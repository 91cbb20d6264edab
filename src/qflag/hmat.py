"""Dense matrices over H and permutations of S_n.

A :class:`QMatrix` is backed by a float array of shape ``(rows, cols, 4)``;
the last axis holds the four real components of each quaternion entry.
Multiplication respects non-commutativity: entry (i, j) of ``A @ B`` is
``sum_k A[i,k] * B[k,j]`` in that order.

The single matrix norm used everywhere is the Frobenius norm
``sqrt(sum |entry|**2)``, summed on power-of-two scaled entries
(:func:`pow2_scaled`): no square overflows, and a norm past 1.8e308 raises OverflowError.

Products, inverses and exponentials run through BLAS/LAPACK on the complex
adjoint (:func:`chi`), and their results are converted back once per call.
Membership in Sp(n) is one test with one tolerance, :func:`require_symplectic`.
"""

from __future__ import annotations

import math

import numpy as np

from .quat import Quaternion, json_int, qconj, quaternion_from_json

__all__ = [
    "QMatrix",
    "Permutation",
    "SingularMatrixError",
    "ChartBoundaryError",
    "expm",
    "random_sp_algebra",
    "random_symplectic",
]


INV_COND_MAX = 1e12  # largest ||M||_F * ||M^{-1}||_F that QMatrix.inverse accepts

# largest ||M* M - I||_F taken as Sp(n): callers using M^{-1} = M* err by as much
SYMPLECTIC_TOL = 1e-8


class SingularMatrixError(ValueError):
    """Raised when a matrix is singular to working precision."""


class ChartBoundaryError(ValueError):
    """A chart map of HP^1 (:mod:`qflag.chart`) is undefined at, or too close to, this matrix."""


def chi(d: np.ndarray) -> np.ndarray:
    """Complex adjoint of a ``(..., rows, cols, 4)`` quaternion array.

    Entry ``q = z1 + z2 j`` becomes the interleaved 2x2 block ``[[z1, z2],
    [-conj(z2), conj(z1)]]``: an injective algebra homomorphism with
    ``chi(M*) = chi(M)^H`` (F. Zhang, Linear Algebra Appl. 251, 1997)."""
    z = np.ascontiguousarray(d, dtype=float).view(complex)  # (..., rows, cols, 2)
    *lead, rows, cols = z.shape[:-1]
    out = np.empty((*lead, rows, 2, cols, 2), dtype=complex)
    out[..., 0, :, :] = z
    out[..., 1, :, 0] = -z[..., 1].conj()
    out[..., 1, :, 1] = z[..., 0].conj()
    return out.reshape(*lead, 2 * rows, 2 * cols)


def unchi(c: np.ndarray) -> np.ndarray:
    """Nearest quaternion array to a complex ``(..., 2 rows, 2 cols)`` array.

    The orthogonal projection onto the image of :func:`chi`: the ``(z1, z2)``
    of each 2x2 block, read from both of its rows and averaged.  Reading one
    row would keep the cond(G) * eps drift of a LAPACK factor of ``chi(G)``
    off that image, and cost a unitary factor its unitarity.
    """
    blocks = c.reshape(*c.shape[:-2], c.shape[-2] // 2, 2, c.shape[-1] // 2, 2)
    z = (blocks[..., 0, :, :] + blocks[..., 1, :, ::-1].conj() * (1, -1)) / 2
    return z.view(float)


def require_square_finite(data: np.ndarray, op: str) -> None:
    """Raise ``ValueError`` naming ``op`` unless ``data`` is square and finite."""
    if data.shape[-3] != data.shape[-2]:
        raise ValueError(f"{op} requires a square matrix")
    if not np.isfinite(data).all():
        raise ValueError(f"{op}: matrix has a non-finite entry")


def require_symplectic(data: np.ndarray, op: str) -> np.ndarray:
    """chi of one ``(n, n, 4)`` matrix; ``ValueError`` naming ``op`` unless it is square,
    finite and within SYMPLECTIC_TOL of Sp(n): ``||M* M - I||_F``, which chi scales by sqrt(2)."""
    require_square_finite(data, op)
    c = chi(data)
    r = c.conj().T @ c
    r.reshape(-1)[::len(r) + 1] -= 1.0
    if not math.sqrt(np.vdot(r, r).real) <= math.sqrt(2.0) * SYMPLECTIC_TOL:
        raise ValueError(f"{op} requires a symplectic matrix")
    return c


def times_chi(a: np.ndarray, c: np.ndarray) -> "QMatrix":
    """A B for an ``(n, m, 4)`` array A and ``c = chi(B)``: A's rows as pairs times c."""
    if 2 * a.shape[1] != len(c):
        raise ValueError("shape mismatch in quaternionic matmul")
    top = np.ascontiguousarray(a).view(complex).reshape(len(a), -1) @ c
    return QMatrix(top.view(float).reshape(len(a), -1, 4))


def pow2_scaled(data: np.ndarray) -> tuple[np.ndarray, int]:
    """``(data * 2**-e, e)`` with the largest scaled component in [1/2, 1), so no
    squared norm overflows or underflows; exact, and LAPACK commutes with it."""
    _, e = np.frexp(np.abs(data).max(initial=0.0))
    return np.ldexp(data, -e), int(e)


class QMatrix:
    """Dense n_rows x n_cols matrix over H."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3 or data.shape[2] != 4:
            raise ValueError("QMatrix data must have shape (rows, cols, 4)")
        self.data = data

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return QMatrix(np.zeros((rows, cols, 4)))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        m = QMatrix.zeros(n, n)
        m.data[np.arange(n), np.arange(n), 0] = 1.0
        return m

    @staticmethod
    def diag(entries) -> "QMatrix":
        entries = [e if isinstance(e, Quaternion) else Quaternion(e) for e in entries]
        n = len(entries)
        m = QMatrix.zeros(n, n)
        for p, e in enumerate(entries):
            m.data[p, p] = e.to_array()
        return m

    # -- shape and entries -------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, ij) -> Quaternion:
        i, j = ij
        return Quaternion.from_array(self.data[i, j])

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        return times_chi(self.data, chi(other.data))

    def _require_same_shape(self, other: "QMatrix") -> None:
        if self.data.shape != other.data.shape:  # numpy would broadcast a 1 x 1 or 1 x n
            raise ValueError("shape mismatch in quaternionic add or subtract")

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._require_same_shape(other)
        return QMatrix(self.data + other.data)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._require_same_shape(other)
        return QMatrix(self.data - other.data)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.data)

    def scale(self, r: float) -> "QMatrix":
        """Multiply every entry by a real scalar."""
        return QMatrix(self.data * float(r))

    def conj_transpose(self) -> "QMatrix":
        return QMatrix(qconj(self.data).transpose(1, 0, 2))

    def frobenius(self) -> float:
        scaled, e = pow2_scaled(self.data)
        try:
            return math.ldexp(float(np.sqrt(np.sum(scaled * scaled))), e)
        except OverflowError:
            raise OverflowError("Frobenius norm outside the float range") from None

    def inverse(self) -> "QMatrix":
        """Inverse by LAPACK (``np.linalg.inv``) on the complex adjoint of
        ``2^-e M`` (:func:`pow2_scaled`), scaled back by ``2^-e``.

        Raises ``ValueError`` on a non-finite entry, and
        :class:`SingularMatrixError` when LAPACK meets an exactly zero pivot
        or when the Frobenius condition number ``||M||_F * ||M^{-1}||_F``,
        which the scaling leaves unchanged, exceeds ``INV_COND_MAX`` (1e12).
        """
        require_square_finite(self.data, "inverse")
        scaled, e = pow2_scaled(self.data)
        try:
            inv = unchi(np.linalg.inv(chi(scaled)))
        except np.linalg.LinAlgError:
            raise SingularMatrixError("matrix is singular: zero pivot") from None
        if not np.linalg.norm(scaled) * np.linalg.norm(inv) <= INV_COND_MAX:  # also when inf
            raise SingularMatrixError("matrix is singular to working precision: "
                                      f"condition number above {INV_COND_MAX:g}")
        return QMatrix(np.ldexp(inv, -e))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.n_rows,
            "cols": self.n_cols,
            "entries": self.data.tolist(),
        }

    @staticmethod
    def from_json(obj) -> "QMatrix":
        if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= obj.keys():
            raise ValueError("QMatrix JSON must be an object with rows, cols and entries")
        rows, cols = (json_int(obj[key], f"QMatrix {key}") for key in ("rows", "cols"))
        entries = obj["entries"]
        if rows <= 0 or cols <= 0:
            raise ValueError("QMatrix dimensions must be positive")
        if not isinstance(entries, list) or len(entries) != rows:
            raise ValueError("entries must have `rows` rows")
        if any(not isinstance(row, list) or len(row) != cols for row in entries):
            raise ValueError("each row must have `cols` entries")
        return QMatrix([[quaternion_from_json(e).to_array() for e in row] for row in entries])

    def __repr__(self):
        return f"QMatrix({self.n_rows}x{self.n_cols})"


def expm(m: QMatrix) -> QMatrix:
    """Exponential of X in sp(n) by one Hermitian eigendecomposition.

    ``chi(X)`` is skew-Hermitian, so ``exp(chi(X)) = V diag(e^{iw}) V^H`` with
    ``(w, V) = eigh(-i chi(X))``, the standard exponential of a normal matrix
    (Moler and Van Loan, SIAM Rev. 45, 2003), unitary to rounding.  Raises
    ``ValueError`` on a non-finite entry, and off sp(n), when
    ``||X + X*||_F > SYMPLECTIC_TOL * max(1, ||X||_F)``; within that the
    Hermitian part of X is ignored.
    """
    require_square_finite(m.data, "expm")
    if not (m + m.conj_transpose()).frobenius() <= SYMPLECTIC_TOL * max(1.0, m.frobenius()):
        raise ValueError("expm requires an element of sp(n)")
    c = chi(m.data)
    w, v = np.linalg.eigh(-0.5j * (c - c.conj().T))
    return QMatrix(unchi((v * np.exp(1j * w)) @ v.conj().T))


def random_sp_algebra(n: int, rng: np.random.Generator) -> QMatrix:
    """Random element of sp(n): X = (A - A*)/2 for standard Gaussian A."""
    a = QMatrix(rng.normal(size=(n, n, 4)))
    return (a - a.conj_transpose()).scale(0.5)


def random_symplectic(n: int, rng: np.random.Generator) -> QMatrix:
    return expm(random_sp_algebra(n, rng))


class Permutation:
    """Element of S_n in one-line notation (0-based internally).

    ``one_line[j] = w(j)``.  Composition is ``(v @ w)(j) = v(w(j))``, which
    matches the permutation-matrix convention ``P_{v o w} = P_v P_w`` for
    ``(P_w)[i, j] = delta(i, w(j))``.
    """

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        ol = tuple(one_line)
        if sorted(ol) != list(range(len(ol))):  # by value: refuses 0.5, takes 1.0 as 1
            raise ValueError("not a permutation of 0..n-1")
        self.one_line = tuple(map(int, ol))

    @staticmethod
    def longest(n: int) -> "Permutation":
        return Permutation(range(n - 1, -1, -1))

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, j: int) -> int:
        return self.one_line[j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __matmul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.one_line[other.one_line[j]] for j in range(self.n)))

    def length(self) -> int:
        """Number of inversions = minimal adjacent-transposition word length."""
        ol = self.one_line
        return sum(1 for a in range(self.n) for b in range(a + 1, self.n) if ol[a] > ol[b])

    def reduced_word(self) -> list[int]:
        """Reduced word by bubble-sort descent; ``len == self.length()``.

        Returns 0-based positions r, each meaning the adjacent transposition
        (r, r+1); composing ``s_{r_1} @ ... @ s_{r_m}`` reproduces ``self``.
        """
        ol = list(self.one_line)
        word = []
        for end in range(self.n - 1, 0, -1):  # pass i leaves the i largest entries in place
            for r in range(end):
                if ol[r] > ol[r + 1]:
                    ol[r], ol[r + 1] = ol[r + 1], ol[r]
                    word.append(r)
        # ol is now sorted and self = s_{w_m} o ... o s_{w_1} applied to id,
        # i.e. self = product of the word letters in reverse order.
        word.reverse()
        return word

    def matrix(self) -> QMatrix:
        """(P_w)[i, j] = delta(i, w(j))."""
        m = QMatrix.zeros(self.n, self.n)
        m.data[self.one_line, range(self.n), 0] = 1.0
        return m

    def to_json(self) -> dict:
        return {"one_line": [i + 1 for i in self.one_line]}

    def __repr__(self):
        return f"Permutation({[i + 1 for i in self.one_line]})"


def word_to_permutation(word, n: int) -> Permutation:
    """s_{r_1} @ ... @ s_{r_m} (0-based r); each @ s_r swaps one-line entries r, r + 1."""
    ol = list(range(n))
    for r in word:
        if not 0 <= r < n - 1:
            raise ValueError(f"word letter {r} out of range for n={n}")
        ol[r], ol[r + 1] = ol[r + 1], ol[r]
    return Permutation(ol)

