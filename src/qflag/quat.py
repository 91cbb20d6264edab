"""Quaternion scalar arithmetic.

Conventions used throughout the package:

* a quaternion is ``re + i*im_i + j*im_j + k*im_k`` with ``i*j = k``
  cyclically and ``i**2 = j**2 = k**2 = -1``;
* ``conj(q)`` negates the imaginary part, so ``conj(p*q) = conj(q)*conj(p)``;
* ``norm(q) = sqrt(re**2 + im_i**2 + im_j**2 + im_k**2)`` and
  ``qinv(q) = conj(q) / norm(q)**2``.

All arithmetic is double precision.  The module also provides vectorized
helpers (``qprod``, ``qconj``, ...) operating on numpy arrays whose last axis
has length 4; these back the dense matrix kernels in :mod:`qflag.hmat`.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

__all__ = [
    "Quaternion",
    "quaternion_from_json",
    "json_number",
    "json_int",
    "qprod",
    "qconj",
    "qnorm2",
    "qinv",
]


class Quaternion:
    """One element of H, stored as four floats."""

    __slots__ = ("re", "i", "j", "k")

    def __init__(self, re=0.0, i=0.0, j=0.0, k=0.0):
        self.re = float(re)
        self.i = float(i)
        self.j = float(j)
        self.k = float(k)

    # -- basic structure ---------------------------------------------------

    def norm2(self) -> float:
        return self.re * self.re + self.i * self.i + self.j * self.j + self.k * self.k

    def norm(self) -> float:
        # hypot, unlike sqrt(norm2()), does not underflow for tiny components
        return math.hypot(self.re, self.i, self.j, self.k)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.re + other.re, self.i + other.i,
                          self.j + other.j, self.k + other.k)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.re - other.re, self.i - other.i,
                          self.j - other.j, self.k - other.k)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Quaternion(-self.re, -self.i, -self.j, -self.k)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return Quaternion(self.re * other, self.i * other,
                              self.j * other, self.k * other)
        return Quaternion.from_array(qprod(self.to_array(), _coerce(other).to_array()))

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return Quaternion(self.re / other, self.i / other, self.j / other, self.k / other)
        return NotImplemented

    # -- conversion --------------------------------------------------------

    def to_array(self) -> np.ndarray:
        return np.array([self.re, self.i, self.j, self.k], dtype=float)

    @staticmethod
    def from_array(a) -> "Quaternion":
        return Quaternion(a[0], a[1], a[2], a[3])

    def to_json(self) -> list:
        return [self.re, self.i, self.j, self.k]

    def __repr__(self):
        return f"Quaternion({self.re!r}, {self.i!r}, {self.j!r}, {self.k!r})"


def _coerce(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, numbers.Real):
        return Quaternion(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a quaternion")


def json_number(x, what: str, kind: str = "a finite number") -> float:
    """``x`` as a float; ``ValueError`` naming ``what`` unless it is a real number
    in the float range: not a bool, a string, a NaN, an infinity or an int past 1.8e308."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{what} must be {kind}, got {x!r}")
    return float(x)


def json_int(x, what: str) -> int:
    """``x`` as an int: :func:`json_number` and integral, so 2.0 is 2 and 2.5 is refused."""
    if json_number(x, what, "an integer") % 1:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def quaternion_from_json(obj) -> Quaternion:
    """Parse the 4-array JSON form strictly: exactly four finite numbers."""
    if not isinstance(obj, list) or len(obj) != 4:
        raise ValueError("quaternion JSON must be a 4-element array")
    return Quaternion(*(json_number(x, "quaternion component") for x in obj))


# ---------------------------------------------------------------------------
# Vectorized helpers on (..., 4) float arrays.
# ---------------------------------------------------------------------------

def qprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product, broadcasting over leading axes.

    Computed on complex pairs: with ``q = z1 + z2 j`` and ``j z = conj(z) j``,
    ``(a1 + a2 j)(b1 + b2 j) = (a1 b1 - a2 conj(b2)) + (a1 b2 + a2 conj(b1)) j``.
    """
    za = np.ascontiguousarray(a, dtype=float).view(complex)
    zb = np.ascontiguousarray(b, dtype=float).view(complex)
    a1, a2 = za[..., 0], za[..., 1]
    b1, b2 = zb[..., 0], zb[..., 1]
    z1 = a1 * b1 - a2 * b2.conj()
    out = np.empty(z1.shape + (2,), dtype=complex)
    out[..., 0] = z1
    out[..., 1] = a1 * b2 + a2 * b1.conj()
    return out.view(float)


def qconj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qinv(a: np.ndarray) -> np.ndarray:
    """Inverse ``conj(q) / |q|**2`` of each quaternion."""
    return qconj(a) / qnorm2(a)[..., None]


def qnorm2(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return (a * a).sum(axis=-1)
