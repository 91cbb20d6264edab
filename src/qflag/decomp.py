"""Decompositions of invertible quaternionic matrices.

Implements the strict Bruhat normal form G = U D P_w V (U, V unit upper
triangular, D diagonal, P_w V P_w^{-1} lower unit triangular), the Dieudonne
determinant, the Iwasawa decomposition G = K R Uu with K symplectic, the
dressing action (G, K) -> K' defined by G K = K' R U, and leaf signatures
(w, diagonal phases).

All elimination steps place scalar inverses explicitly on the left or right;
the order matters because H is non-commutative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hmat import (Permutation, QMatrix, SingularMatrixError, chi, is_symplectic,
                   require_square_finite, unchi)
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
# entry of the QR factor R of chi(G) is at most PIVOT_RTOL * ||G||_F.
PIVOT_RTOL = 1e-10


@dataclass
class BruhatForm:
    """The quadruple (U, D, w, V) of the strict Bruhat normal form."""

    U: QMatrix
    D: QMatrix
    w: Permutation
    V: QMatrix

    def reconstruct(self) -> QMatrix:
        return self.U @ self.D @ self.w.matrix() @ self.V

    def diagonal(self) -> list[Quaternion]:
        return [self.D[i, i] for i in range(self.D.n_rows)]

    def to_json(self) -> dict:
        return {
            "U": self.U.to_json(),
            "D": self.D.to_json(),
            "w": self.w.to_json(),
            "V": self.V.to_json(),
        }


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


def bruhat(g: QMatrix) -> BruhatForm:
    """Strict Bruhat normal form of an invertible matrix.

    Columns are processed left to right.  The pivot of column j is the
    bottom-most not-yet-assigned row with a nonzero entry; entries below the
    pivot (necessarily in already-assigned rows) are cleared by column
    operations that add earlier columns to column j (building V), entries
    above the pivot by row operations that add the pivot row to higher rows
    (building U).  The V so produced automatically satisfies the strictness
    condition that P_w V P_w^{-1} is lower unit triangular.  Within a
    column, every row operation uses the same pivot row and every column
    operation a different earlier column, so each side is one batched update.

    Raises ``ValueError`` on a non-finite entry and
    :class:`SingularMatrixError` when a column has no pivot above the
    threshold.
    """
    require_square_finite(g, "bruhat")
    n = g.n_rows
    thresh = PIVOT_RTOL * max(g.frobenius(), 1e-300)

    a = g.data.copy()
    u_acc = QMatrix.identity(n).data
    v_acc = QMatrix.identity(n).data
    w_of = np.empty(n, dtype=int)  # w_of[j] = pivot row of column j
    pivot_col = np.full(n, -1)     # pivot_col[r] = column whose pivot sits in row r

    for j in range(n):
        live = np.sqrt(qnorm2(a[:, j])) > thresh
        free = np.flatnonzero(live & (pivot_col < 0))
        if free.size == 0:
            raise SingularMatrixError("matrix is singular: no Bruhat pivot in column")
        piv = free[-1]
        w_of[j] = piv
        pivot_col[piv] = j

        above = np.flatnonzero(live[:piv])
        if above.size:
            # rows above the pivot: row operations adding multiples of the
            # pivot row; U <- U (I + e_r c_r e_piv^T) for each such row r
            c = qprod(a[above, j], qinv(a[piv, j]))
            a[above] -= qprod(c[:, None], a[piv])
            u_acc[:, piv] += qprod(u_acc[:, above], c).sum(axis=1)
        below = piv + 1 + np.flatnonzero(live[piv + 1:])
        if below.size:
            # assigned rows below the pivot: column operations adding the
            # columns jp of their pivots to column j; V <- (I + e_jp c e_j^T) V,
            # and row j of V is still e_j, so each c lands at V[jp, j]
            jp = pivot_col[below]
            c = qprod(qinv(a[below, jp]), a[below, j])
            a[:, j] -= qprod(a[:, jp], c).sum(axis=1)
            v_acc[jp, j] = c

    d = QMatrix.zeros(n, n)
    d.data[w_of, w_of] = a[w_of, np.arange(n)]
    return BruhatForm(U=QMatrix(u_acc), D=d, w=Permutation(w_of), V=QMatrix(v_acc))


def dieudonne_det(g: QMatrix) -> float:
    """Product of |d_i| over the strict-form diagonal.

    The residue map H*/[H*, H*] = R_+ is realized as q -> |q| (so that
    det(diag(r)) = r for positive real r); the sign sgn(w) is absorbed
    because -1 is a commutator in H*.

    Computed without the Bruhat form: |det chi(G)| = Ddet(G)^2 is the
    product of |T_ii| over the triangular factor T of LAPACK's QR of
    ``chi(G)``, summed as logarithms so that no partial product overflows.
    Raises ``ValueError`` on a non-finite entry and
    :class:`SingularMatrixError` when some |T_ii| is at most
    ``PIVOT_RTOL * ||G||_F``, the breakdown rule of :func:`iwasawa`.
    """
    require_square_finite(g, "dieudonne_det")
    mag = np.abs(np.diagonal(np.linalg.qr(chi(g.data), mode="r")))
    if mag.min() <= PIVOT_RTOL * g.frobenius():
        raise SingularMatrixError("matrix is singular: QR breakdown")
    return float(np.exp(0.5 * np.sum(np.log(mag))))


def iwasawa(g: QMatrix) -> tuple[QMatrix, QMatrix, QMatrix]:
    """G = K R Uu with K symplectic, R positive real diagonal, Uu unit upper.

    LAPACK's QR of the complex adjoint ``chi(G) = Q T``, with the phases of
    T's diagonal moved from T's rows into Q's columns so that T's diagonal is
    positive; by uniqueness of that QR, ``Q = chi(K)`` and ``T = chi(R Uu)``
    (Bunse-Gerstner, Byers and Mehrmann, Numer. Math. 55, 1989).  Raises
    ``ValueError`` on a non-finite entry and :class:`SingularMatrixError`
    when a diagonal entry of T is at most ``PIVOT_RTOL * ||G||_F``.
    """
    require_square_finite(g, "iwasawa")
    n = g.n_rows
    q, t = np.linalg.qr(chi(g.data))
    d = np.diagonal(t)
    mag = np.abs(d)
    if mag.min() <= PIVOT_RTOL * g.frobenius():
        raise SingularMatrixError("matrix is singular: QR breakdown")
    phase = d / mag
    r = mag[0::2]
    uu = unchi(phase.conj()[:, None] * t) / r[:, None, None]
    uu[np.arange(n), np.arange(n)] = (1.0, 0.0, 0.0, 0.0)
    rr = QMatrix.zeros(n, n)
    rr.data[np.arange(n), np.arange(n), 0] = r
    return QMatrix(unchi(q * phase)), rr, QMatrix(uu)


def dress(g: QMatrix, k: QMatrix, tol: float = 1e-10) -> QMatrix:
    """Dressing action: (G, K) -> K' where G K = K' R U.

    G must be upper triangular with positive real diagonal (an element of RU)
    and K symplectic.  The returned factor comes from a fresh Iwasawa
    decomposition of the product, which re-projects onto the group manifold
    and keeps iterated orbits from drifting.
    """
    require_square_finite(g, "dress")
    require_square_finite(k, "dress")
    _require_ru(g, tol)
    if not is_symplectic(k, tol=max(tol, 1e-8)):
        raise ValueError("dress requires a symplectic K")
    k2, _, _ = iwasawa(g @ k)
    return k2


def _require_ru(g: QMatrix, tol: float) -> None:
    n = g.n_rows
    lim = tol * max(g.frobenius(), 1e-300)
    diag = g.data[np.arange(n), np.arange(n)]
    if np.any(diag[:, 0] <= 0) or np.any(np.sqrt(qnorm2(diag[:, 1:])) > lim):
        raise ValueError("G must have positive real diagonal")
    if np.any(np.sqrt(qnorm2(g.data[np.tril_indices(n, -1)])) > lim):
        raise ValueError("G must be upper triangular")


def leaf_signature(k: QMatrix, tol: float = 1e-8) -> LeafSignature:
    """(w, phases) of a symplectic matrix, via its strict Bruhat form."""
    require_square_finite(k, "leaf_signature")
    if not is_symplectic(k, tol=tol):
        raise ValueError("leaf_signature requires a symplectic matrix")
    form = bruhat(k)
    phases = [q * (1.0 / q.norm()) for q in form.diagonal()]
    return LeafSignature(w=form.w, phases=phases)
