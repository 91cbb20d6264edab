"""Quaternion scalar arithmetic.

Conventions used throughout the package:

* a quaternion is ``re + i*im_i + j*im_j + k*im_k`` with ``i*j = k``
  cyclically and ``i**2 = j**2 = k**2 = -1``;
* ``conj(q)`` negates the imaginary part, so ``conj(p*q) = conj(q)*conj(p)``;
* ``norm(q) = sqrt(re**2 + im_i**2 + im_j**2 + im_k**2)`` and
  ``inverse(q) = conj(q) / norm(q)**2``.

All arithmetic is double precision.  The module also provides vectorized
helpers (``qprod``, ``qconj``, ...) operating on numpy arrays whose last axis
has length 4; these back the dense matrix kernels in :mod:`qflag.hmat`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Quaternion",
    "quaternion_from_json",
    "qprod",
    "qconj",
    "qnorm2",
    "qinv",
    "ONE",
    "I",
    "J",
    "K",
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

    def conj(self) -> "Quaternion":
        return Quaternion(self.re, -self.i, -self.j, -self.k)

    def norm2(self) -> float:
        return self.re * self.re + self.i * self.i + self.j * self.j + self.k * self.k

    def norm(self) -> float:
        # hypot, unlike sqrt(norm2()), does not underflow for tiny components
        return math.hypot(self.re, self.i, self.j, self.k)

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.re / n2, -self.i / n2, -self.j / n2, -self.k / n2)

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
        if isinstance(other, (int, float)):
            return Quaternion(self.re * other, self.i * other,
                              self.j * other, self.k * other)
        a, b = self, _coerce(other)
        return Quaternion(
            a.re * b.re - a.i * b.i - a.j * b.j - a.k * b.k,
            a.re * b.i + a.i * b.re + a.j * b.k - a.k * b.j,
            a.re * b.j - a.i * b.k + a.j * b.re + a.k * b.i,
            a.re * b.k + a.i * b.j - a.j * b.i + a.k * b.re,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
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
    if isinstance(x, (int, float)):
        return Quaternion(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a quaternion")


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def quaternion_from_json(obj) -> Quaternion:
    """Parse the 4-array JSON form strictly: exactly four finite numbers."""
    if not isinstance(obj, list) or len(obj) != 4:
        raise ValueError("quaternion JSON must be a 4-element array")
    vals = []
    for x in obj:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError("quaternion components must be numbers")
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("quaternion components must be finite")
        vals.append(x)
    return Quaternion(*vals)


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
