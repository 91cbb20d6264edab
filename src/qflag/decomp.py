"""Decompositions of invertible quaternionic matrices.

Implements the strict Bruhat normal form G = U D P_w V (U, V unit upper
triangular, D diagonal, P_w V P_w^{-1} lower unit triangular), the Dieudonne
determinant, the Iwasawa decomposition G = K R Uu with K symplectic, the
dressing action (G, K) -> K' defined by G K = K' R U, and leaf signatures
(w, diagonal phases).

The Bruhat form comes from row reduction of [G | I] alone: the reduced left
half is U^{-1} G = D P_w V, from which D and V are read, and U is the inverse
of the reduced right half, unit upper triangular, taken by halves down to
LAPACK's inverse of 8 x 8 blocks; leaf signatures and cells stop at the
reduction.  Each elimination step places a scalar inverse explicitly on the
left or right; the order matters because H is non-commutative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hmat import (Permutation, QMatrix, SingularMatrixError, chi, pow2_scaled,
                   require_square_finite, require_symplectic, times_chi, unchi)
from .quat import Quaternion, qinv, qnorm2, qprod

__all__ = [
    "BruhatForm",
    "LeafSignature",
    "bruhat",
    "dieudonne_det",
    "iwasawa",
    "dress",
    "leaf_signature",
]

# Relative pivot threshold.  In ``bruhat``, entries at most PIVOT_RTOL * ||G||_F
# count as zero, so an input that close to a neighbouring cell is given that
# cell's permutation type, and U D P_w V misses G by about the entries dropped;
# ``iwasawa`` and ``dieudonne_det`` raise SingularMatrixError when a diagonal
# entry of the QR factor R of chi(G) is at most PIVOT_RTOL * ||G||_F; ``dress``
# dresses a G whose parts off RU are at most PIVOT_RTOL * ||G||_F as its RU part.
PIVOT_RTOL = 1e-10
# dieudonne_det raises OverflowError when its logarithm is outside these, the
# logarithms of the least and the largest normal float
_LOG_NORMAL = np.log([np.finfo(float).tiny, np.finfo(float).max])


@dataclass
class BruhatForm:
    """The quadruple (U, D, w, V) of the strict Bruhat normal form."""

    U: QMatrix
    D: QMatrix
    w: Permutation
    V: QMatrix

    def to_json(self) -> dict:
        return {name: getattr(self, name).to_json() for name in ("U", "D", "w", "V")}


@dataclass
class LeafSignature:
    """(permutation type, diagonal unit-quaternion phases) labelling a leaf."""

    w: Permutation
    phases: list[Quaternion]

    def deviation(self, other: "LeafSignature") -> float:
        """Max phase distance; infinity when the permutation types differ."""
        if self.w != other.w:
            return float("inf")
        return max((p - q).norm() for p, q in zip(self.phases, other.phases))


def _row_reduce(g: QMatrix) -> tuple[np.ndarray, list[int], int]:
    """Row reduction of ``[2^-e G | I]`` for square finite G: the reduced
    ``(n, 2n, 4)`` array, the pivot row ``w_of[j]`` of each column j, and e.
    The pivot of column j is the bottom-most not-yet-assigned row with a
    nonzero entry, and one batched row operation adds multiples of it to the
    rows above it; SingularMatrixError when a column has none."""
    n = g.n_rows
    scaled, e = pow2_scaled(g.data)
    a = np.zeros((n, 2 * n, 4))
    a[:, :n] = scaled
    a.reshape(-1)[4 * n::8 * n + 4] = 1.0  # the identity: a[i, n + i, 0]
    z = a.view(complex)  # (n, 2n, 2): the (z1, z2) pair of each entry
    rows = z.reshape(n, 4 * n)
    thresh = PIVOT_RTOL * np.sqrt(np.sum(scaled * scaled))
    p_chi = np.empty((2, 2 * n, 2), dtype=complex)  # chi of the pivot row
    w_of = []  # w_of[j] = pivot row of column j
    free = list(range(n))  # rows that are no column's pivot yet, top to bottom

    for j in range(n):
        norm2 = qnorm2(a[:, j])
        live = np.sqrt(norm2) > thresh
        piv = next((r for r in reversed(free) if live[r]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular: no Bruhat pivot in column")
        w_of.append(piv)
        free.remove(piv)
        if piv:
            # a_r -= (a_rj q^{-1}) a_piv above the pivot, for q = a_piv,j and
            # live rows r only: on pairs, a_rj times chi(q)^{-1} chi(a_piv),
            # where chi(q) is block j of chi(a_piv), chi(q)^{-1} = chi(q)^H / |q|^2
            p_chi[0] = z[piv]
            np.conj(z[piv, :, ::-1], out=p_chi[1])
            p_chi[1, :, 0] *= -1.0
            q_inv = p_chi[:, j].T.conj() / norm2[piv]
            rows[:piv] -= (z[:piv, j] * live[:piv, None]) @ (q_inv @ p_chi.reshape(2, 4 * n))
    return a, w_of, e


def bruhat(g: QMatrix) -> BruhatForm:
    """Strict Bruhat normal form of an invertible matrix.

    Row reduction of ``[G | I]`` (:func:`_row_reduce`), held as the (z1, z2)
    pairs of the top rows of :func:`chi`.  The left half ends as ``U^{-1} G =
    D P_w V``, so row w(j) is ``d_j V[j, :]``; V keeps only the entries
    allowed by strictness (``P_w V P_w^{-1}`` lower unit triangular), the rest
    being rounding residue.  U is the inverse of the right half.  G is first
    scaled by a power of two, exactly, and D is scaled back.

    Raises ``ValueError`` on a non-finite entry,
    :class:`SingularMatrixError` when a column has no pivot above the
    threshold, and ``OverflowError`` when D is not finite.
    """
    require_square_finite(g.data, "bruhat")
    a, w_of, e = _row_reduce(g)
    n = g.n_rows
    cols, w_of = np.arange(n), np.array(w_of)
    d = a[w_of, cols]
    v = qprod(qinv(d)[:, None], a[w_of, :n])
    v[~((cols[:, None] < cols) & (w_of[:, None] > w_of))] = 0.0
    v[cols, cols, 0] = 1.0
    dd = np.zeros((n, n, 4))
    dd[w_of, w_of] = _scaled_back(d, e, "bruhat")
    u = unchi(_unit_upper_inv(chi(a[:, n:])))
    return BruhatForm(U=QMatrix(u), D=QMatrix(dd), w=Permutation(w_of), V=QMatrix(v))


def _unit_upper_inv(c: np.ndarray) -> np.ndarray:
    """Inverse of a unit upper triangular ``[[A, B], [0, C]]`` of whole 2 x 2 blocks,
    by halves, ``[[A^-1, -A^-1 B C^-1], [0, C^-1]]``, and by LAPACK at 16 rows or fewer."""
    if len(c) <= 16:
        return np.linalg.inv(c)
    h = len(c) // 4 * 2  # split between quaternion rows
    a_inv, c_inv = _unit_upper_inv(c[:h, :h]), _unit_upper_inv(c[h:, h:])
    out = np.zeros_like(c)
    out[:h, :h], out[h:, h:] = a_inv, c_inv
    out[:h, h:] = -(a_inv @ c[:h, h:]) @ c_inv
    return out


def _scaled_back(x: np.ndarray, e: int, op: str) -> np.ndarray:
    """``x 2**e``, undoing :func:`pow2_scaled`; OverflowError naming ``op`` if not finite."""
    with np.errstate(over="ignore"):  # refused below
        out = np.ldexp(x, e)
    if not np.isfinite(out).all():
        raise OverflowError(f"{op}: a factor is outside the float range")
    return out


def _chi_qr(g: QMatrix, op: str, mode: str) -> tuple:
    """LAPACK's QR of ``chi(G 2^-e)`` (:func:`pow2_scaled`) in ``mode``, the moduli of
    the diagonal of its triangular factor T, and e; ValueError naming ``op`` on a
    non-finite entry, SingularMatrixError on a modulus at most PIVOT_RTOL * ||G||_F."""
    require_square_finite(g.data, op)
    scaled, e = pow2_scaled(g.data)
    qr = np.linalg.qr(chi(scaled), mode=mode)
    mag = np.abs(np.diagonal(qr if mode == "r" else qr[1]))
    if mag.min() <= PIVOT_RTOL * np.sqrt(np.sum(scaled * scaled)):
        raise SingularMatrixError("matrix is singular: QR breakdown")
    return qr, mag, e


def dieudonne_det(g: QMatrix) -> float:
    """Product of |d_i| over the strict-form diagonal.

    The residue map H*/[H*, H*] = R_+ is realized as q -> |q| (so that
    det(diag(r)) = r for positive real r); the sign sgn(w) is absorbed
    because -1 is a commutator in H*.

    Computed without the Bruhat form: |det chi(G)| = Ddet(G)^2 is the
    product of |T_ii| over T of :func:`_chi_qr`, scaled back and summed as
    logarithms so that no partial product overflows.  Raises ``ValueError``
    and :class:`SingularMatrixError` as :func:`iwasawa` does, and
    ``OverflowError`` when the determinant is not a normal float.
    """
    _, mag, e = _chi_qr(g, "dieudonne_det", "r")
    with np.errstate(over="ignore", divide="ignore"):  # out of range: caught below
        log_det = 0.5 * np.sum(np.log(np.ldexp(mag, e)))
    if not _LOG_NORMAL[0] <= log_det <= _LOG_NORMAL[1]:
        raise OverflowError("dieudonne_det: determinant outside the normal float range "
                            f"[{np.finfo(float).tiny:g}, {np.finfo(float).max:g}]")
    return float(np.exp(log_det))


def _iwasawa_k(g: QMatrix) -> tuple:
    """K of :func:`iwasawa`, and T, its diagonal's phases and moduli, and e (:func:`_chi_qr`)."""
    (q, t), mag, e = _chi_qr(g, "iwasawa", "reduced")
    phase = np.diagonal(t) / mag
    return QMatrix(unchi(q * phase)), t, phase, mag, e


def iwasawa(g: QMatrix) -> tuple[QMatrix, QMatrix, QMatrix]:
    """G = K R Uu with K symplectic, R positive real diagonal, Uu unit upper.

    LAPACK's QR of the complex adjoint ``chi(G) = Q T``, with the phases of
    T's diagonal moved from T's rows into Q's columns so that T's diagonal is
    positive; by uniqueness of that QR, ``Q = chi(K)`` and ``T = chi(R Uu)``
    (Bunse-Gerstner, Byers and Mehrmann, Numer. Math. 55, 1989), of G scaled
    by a power of two, exactly, with R scaled back.  Raises ``ValueError`` on a
    non-finite entry, :class:`SingularMatrixError` when a diagonal entry of T is
    at most ``PIVOT_RTOL * ||G||_F``, and ``OverflowError`` when R is not finite.
    """
    n = g.n_rows
    k, t, phase, mag, e = _iwasawa_k(g)
    r = mag[0::2]
    uu = unchi(phase.conj()[:, None] * t) / r[:, None, None]
    uu[np.arange(n), np.arange(n)] = (1.0, 0.0, 0.0, 0.0)
    rr = np.diag(_scaled_back(r, e, "iwasawa"))[..., None] * (1.0, 0.0, 0.0, 0.0)
    return k, QMatrix(rr), QMatrix(uu)


def dress(g: QMatrix, k: QMatrix) -> QMatrix:
    """Dressing action: (G, K) -> K' where G K = K' R U.

    G must be upper triangular with positive real diagonal (an element of RU)
    and K symplectic.  K' is the K of a fresh Iwasawa decomposition of
    ``2^-e G K``, with G scaled as checked, from one QR with R and Uu never formed;
    it re-projects onto the group manifold and keeps iterated orbits from drifting.
    """
    require_square_finite(g.data, "dress")
    c = require_symplectic(k.data, "dress")
    d = pow2_scaled(g.data)[0]  # the rule is scale-free, and no scaled square overflows
    lim = PIVOT_RTOL * np.linalg.norm(d)
    diag = d.reshape(-1, 4)[::len(d) + 1]
    if (diag[:, 0] <= 0).any() or (np.sqrt(qnorm2(diag[:, 1:])) > lim).any():
        raise ValueError("G must have positive real diagonal")
    if any(any(row[:i]) for i, row in enumerate((np.sqrt(qnorm2(d)) > lim).tolist())):
        raise ValueError("G must be upper triangular")
    return _iwasawa_k(times_chi(d, c))[0]


def leaf_signature(k: QMatrix) -> LeafSignature:
    """(w, phases) of a symplectic matrix: the permutation and the normalized
    diagonal of its strict Bruhat form, read off the row reduction."""
    require_symplectic(k.data, "leaf_signature")
    return _leaf_signature(k)


def _leaf_signature(k: QMatrix) -> LeafSignature:
    """:func:`leaf_signature` of a matrix already known to be in Sp(n)."""
    a, w_of, _ = _row_reduce(k)
    diag = a[np.arange(k.n_rows), np.argsort(w_of)]  # D[i, i] 2^-e: q/|q| is scale-free
    phases = [Quaternion(*q) * (1.0 / math.hypot(*q)) for q in diag.tolist()]
    return LeafSignature(w=Permutation(w_of), phases=phases)
