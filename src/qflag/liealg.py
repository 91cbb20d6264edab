"""The Lie algebra sp(n), its exterior algebra, and the Schouten bracket.

Basis of sp(n) (dimension n(2n+1)), for 1 <= p < q <= n and x in {i, j, k}:

* ``E(p,q)``   : +1 at (p, q), -1 at (q, p);
* ``S(x;p,q)`` : x at (p, q) and (q, p);
* ``Dg(x;p)``  : x at the diagonal slot (p, p).

Names carry 1-based positions.  The diagonal elements ``Dg`` span the
spheroid algebra (purely imaginary diagonal matrices).

Multivectors are sparse: a grade-k element of the exterior algebra stores a
map from strictly increasing k-tuples of basis indices to real coefficients,
with coefficients below 1e-14 pruned after every operation.  The kernels work
on whole arrays: ``wedge``, ``schouten`` and the Leibniz derivative write each
product term as an unsorted index row, and one pass (:func:`_collect`) sorts
the rows with the sign of the sort, drops repeats and merges equal rows.  The
tables they read are built lazily and cached per n: a padded sparse table of
structure constants, ad_{B_c} Lambda for every c, and the k-subsets of the
basis.  :class:`SpBasis` holds chi of the basis once, and both the structure
constants and Ad_g are products with it.  :func:`apply_exterior` has one path,
a dense antisymmetric tensor over the basis elements its terms use.

The Schouten bracket follows the convention in which the three identities

    [P,Q] = (-1)^{pq} [Q,P]
    [P, Q^R] = [P,Q]^R + (-1)^{pq+q} Q^[P,R]
    (-1)^{p(r-1)}[P,[Q,R]] + cyclic = 0

hold; on decomposables it is

    [x_1^...^x_p, y_1^...^y_q]
        = (-1)^{p+1} sum_{a,b} (-1)^{a+b} [x_a, y_b] ^ (x without a) ^ (y without b)

which reduces to the Lie bracket on grade-1 inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, permutations

import numpy as np

from .hmat import QMatrix, chi, unchi

__all__ = [
    "SpBasis",
    "sp_basis",
    "Multivector",
    "DualVector",
    "lie_bracket",
    "schouten",
    "lambda_element",
    "ad_multivector",
    "intrinsic_derivative",
    "four_bracket",
    "ad_group",
    "ad_group_matrix",
    "apply_exterior",
]

PRUNE_TOL = 1e-14

_UNITS = ("i", "j", "k")


class SpBasis:
    """Precomputed basis data for sp(n); shared read-only."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        names: list[str] = []
        mats: list[QMatrix] = []
        for p in range(1, n + 1):
            for q in range(p + 1, n + 1):
                m = QMatrix.zeros(n)
                m.data[p - 1, q - 1, 0] = 1.0
                m.data[q - 1, p - 1, 0] = -1.0
                names.append(f"E({p},{q})")
                mats.append(m)
                for xi, x in enumerate(_UNITS, start=1):
                    m = QMatrix.zeros(n)
                    m.data[p - 1, q - 1, xi] = 1.0
                    m.data[q - 1, p - 1, xi] = 1.0
                    names.append(f"S({x};{p},{q})")
                    mats.append(m)
        for p in range(1, n + 1):
            for xi, x in enumerate(_UNITS, start=1):
                m = QMatrix.zeros(n)
                m.data[p - 1, p - 1, xi] = 1.0
                names.append(f"Dg({x};{p})")
                mats.append(m)

        self.names = names
        self.mats = mats
        self.index = {nm: c for c, nm in enumerate(names)}
        self.dim = len(names)
        assert self.dim == n * (2 * n + 1)
        self.spheroid_indices = tuple(c for c, nm in enumerate(names) if nm.startswith("Dg"))

        # The basis matrices stacked.  Flattened, the real pairing
        # <A, B> = Re tr(A* B) is the Euclidean inner product of the rows.
        self.data = np.stack([m.data for m in mats])  # (N, n, n, 4)
        self._flat = self.data.reshape(self.dim, -1)
        self._norm2 = np.sum(self._flat * self._flat, axis=1)
        # chi of the basis laid side by side: [chi(B_1) | ... | chi(B_N)]
        self.chi = chi(np.concatenate(self.data, axis=1))

        self._struct: np.ndarray | None = None

    # -- coordinates -------------------------------------------------------

    def project(self, m: QMatrix) -> np.ndarray:
        """Basis coordinates of a matrix in sp(n) (exact on the span)."""
        return (self._flat @ m.data.reshape(-1)) / self._norm2

    def matrix_of(self, coeffs) -> QMatrix:
        coeffs = np.asarray(coeffs, dtype=float)
        return QMatrix((coeffs @ self._flat).reshape(self.n, self.n, 4))

    def element(self, name: str) -> "Multivector":
        """Grade-1 multivector for a named basis element."""
        return Multivector(self.n, 1, {(self.index[name],): 1.0})

    # -- structure constants -----------------------------------------------

    @property
    def struct(self) -> np.ndarray:
        """struct[a, b, c] = coefficient of basis c in [B_a, B_b]."""
        if self._struct is None:
            N, m = self.dim, 2 * self.n
            # one product gives every chi(B_a) chi(B_b) as the (a, b) block;
            # the entries are 0, +-1 and +-i, so all of it is exact
            prod = self.chi.reshape(m, N, m).swapaxes(0, 1).reshape(N * m, m) @ self.chi
            prod = prod.reshape(N, m, N, m).swapaxes(1, 2)
            comm = unchi(prod - prod.swapaxes(0, 1)).reshape(N, N, -1)
            self._struct = comm @ self._flat.T / self._norm2
        return self._struct

    def ad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad_X on the basis, for X with coordinates x."""
        return np.einsum("a,abc->cb", np.asarray(x, dtype=float), self.struct)


@lru_cache(maxsize=None)
def sp_basis(n: int) -> SpBasis:
    return SpBasis(n)


@lru_cache(maxsize=None)
def _struct_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded sparse structure constants, [B_a, B_b] = sum_s val[a, b, s] B_{col[a, b, s]},
    with as many slots s as the fullest bracket has nonzeros; padding slots hold 0."""
    st = sp_basis(n).struct
    width = max(int(np.count_nonzero(st, axis=2).max()), 1)
    col = np.argsort(st == 0, axis=2, kind="stable")[:, :, :width]  # nonzeros first
    return col, np.take_along_axis(st, col, axis=2)


# ---------------------------------------------------------------------------
# Sparse multivectors
# ---------------------------------------------------------------------------

def _collect(idx: np.ndarray, val: np.ndarray) -> dict[tuple[int, ...], float]:
    """Sum terms into a pruned dict.  Row r of ``idx`` (m, k) stands for
    ``val[r]`` times the wedge of its basis elements in row order: it is sorted
    with the sign of the sort, vanishes if it repeats an index, and equal rows
    are merged."""
    k = idx.shape[1]
    if k > 1:
        inversions = np.zeros(len(idx), dtype=np.intp)
        for i in range(k - 1):
            inversions += np.sum(idx[:, i, None] > idx[:, i + 1:], axis=1)
        idx = np.sort(idx, axis=1)
        keep = np.all(idx[:, 1:] != idx[:, :-1], axis=1)
        idx, val = idx[keep], np.where(inversions % 2, -val, val)[keep]
    order = np.lexsort(idx.T[::-1]) if k else slice(None)
    idx, val = idx[order], val[order]
    new = np.ones(len(idx), dtype=bool)
    new[1:] = np.any(idx[1:] != idx[:-1], axis=1)
    starts = np.flatnonzero(new)
    acc = np.add.reduceat(val, starts)
    keep = np.abs(acc) > PRUNE_TOL
    return dict(zip(map(tuple, idx[starts[keep]].tolist()), acc[keep].tolist()))


@dataclass
class Multivector:
    """Grade-k element of the exterior algebra of sp(n), sparse over tuples."""

    n: int
    grade: int
    coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        self.prune()

    @staticmethod
    def zero(n: int, grade: int) -> "Multivector":
        return Multivector(n, grade, {})

    def prune(self) -> "Multivector":
        self.coeffs = {t: c for t, c in self.coeffs.items() if abs(c) > PRUNE_TOL}
        return self

    @classmethod
    def _of(cls, n: int, grade: int, coeffs: dict) -> "Multivector":
        """Wrap coefficients that are already pruned, skipping the prune."""
        out = cls.__new__(cls)
        out.n, out.grade, out.coeffs = n, grade, coeffs
        return out

    def copy(self) -> "Multivector":
        return Multivector(self.n, self.grade, dict(self.coeffs))

    def max_abs(self) -> float:
        return max(map(abs, self.coeffs.values()), default=0.0)

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, 1.0)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, -1.0)

    def _merge(self, other: "Multivector", sign: float) -> "Multivector":
        # both operands are pruned, so only the keys merged can need pruning;
        # a dict merge is cheaper here than sorting index rows again
        self._check(other)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            v = out.get(t, 0.0) + sign * c
            if abs(v) > PRUNE_TOL:
                out[t] = v
            else:
                out.pop(t, None)
        return Multivector._of(self.n, self.grade, out)

    def scale(self, r: float) -> "Multivector":
        return Multivector(self.n, self.grade, {t: c * r for t, c in self.coeffs.items()})

    def wedge(self, other: "Multivector") -> "Multivector":
        if self.n != other.n:
            raise ValueError("mismatched n")
        i1, v1 = self._arrays()
        i2, v2 = other._arrays()
        rows = np.concatenate([np.repeat(i1, len(v2), axis=0), np.tile(i2, (len(v1), 1))],
                              axis=1)
        return Multivector._of(self.n, self.grade + other.grade,
                               _collect(rows, np.outer(v1, v2).ravel()))

    def _check(self, other: "Multivector") -> None:
        if self.n != other.n or self.grade != other.grade:
            raise ValueError("mismatched n or grade")

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms as an (m, grade) index array and m coefficients."""
        m, k = len(self.coeffs), self.grade
        idx = np.fromiter(chain.from_iterable(self.coeffs), dtype=np.intp, count=m * k)
        return idx.reshape(m, k), np.fromiter(self.coeffs.values(), dtype=float, count=m)

    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For every (term, position), grade >= 1: the factor there, the rest
        of the term, and the term's coefficient times (-1)^position."""
        idx, val = self._arrays()
        m, k = idx.shape
        others = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)
        signed = val[:, None] * np.where(np.arange(k) % 2, -1.0, 1.0)
        return idx.ravel(), idx[:, others].reshape(m * k, k - 1), signed.ravel()

    def as_vector(self) -> np.ndarray:
        """Grade-1 only: dense coordinate vector over the basis."""
        if self.grade != 1:
            raise ValueError("as_vector requires grade 1")
        idx, val = self._arrays()
        return np.bincount(idx[:, 0], weights=val, minlength=sp_basis(self.n).dim)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        names = sp_basis(self.n).names
        terms = [{"idx": [names[c] for c in t], "c": v}
                 for t, v in sorted(self.coeffs.items())]
        return {"n": self.n, "grade": self.grade, "terms": terms}

    @staticmethod
    def from_json(obj) -> "Multivector":
        """Inverse of :meth:`to_json`; unsorted names pick up the sign of their sort.
        A term of the wrong length, repeating or unknown names raises ValueError."""
        n = int(obj["n"])
        grade = int(obj["grade"])
        basis = sp_basis(n)
        rows, vals = [], []
        for term in obj["terms"]:
            names = term["idx"]
            if len(names) != grade:
                raise ValueError(f"term {names}: {len(names)} factors, grade {grade}")
            if any(nm not in basis.index for nm in names):
                raise ValueError(f"term {names}: unknown basis element")
            if len(set(names)) != grade:
                raise ValueError(f"term {names}: repeated basis element")
            rows.append([basis.index[nm] for nm in names])
            vals.append(float(term["c"]))
        idx = np.array(rows, dtype=np.intp).reshape(len(rows), grade)
        return Multivector._of(n, grade, _collect(idx, np.array(vals, dtype=float)))


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------

def lie_bracket(x: Multivector, y: Multivector) -> Multivector:
    """Lie bracket of two grade-1 elements, in basis coordinates."""
    if x.n != y.n:
        raise ValueError("mismatched n")
    if x.grade != 1 or y.grade != 1:
        raise ValueError("lie_bracket expects grade-1 elements")
    return schouten(x, y)


def schouten(p: Multivector, q: Multivector) -> Multivector:
    """Schouten bracket of multivectors (see module docstring for signs).

    All factor pairs (x_a, y_b) are looked up in the sparse structure constants at
    once; each component c of [x_a, y_b] gives the row (c, rest of x, rest of y)."""
    if p.n != q.n:
        raise ValueError("mismatched n")
    if p.grade == 0 or q.grade == 0:
        return Multivector.zero(p.n, max(p.grade + q.grade - 1, 0))
    col, val = _struct_table(p.n)
    a, rest_p, cp = p._factors()
    b, rest_q, cq = q._factors()
    i, j, s = np.nonzero(val[a[:, None], b[None, :]])
    rows = np.concatenate([col[a[i], b[j], s][:, None], rest_p[i], rest_q[j]], axis=1)
    pref = -1.0 if p.grade % 2 == 0 else 1.0  # (-1)^{p+1}
    coef = pref * cp[i] * cq[j] * val[a[i], b[j], s]
    return Multivector._of(p.n, p.grade + q.grade - 1, _collect(rows, coef))


def lambda_element(n: int) -> Multivector:
    """Sum over p < q of E(p,q) ^ S(i;p,q) ^ S(j;p,q) ^ S(k;p,q)."""
    if n < 2:
        raise ValueError("lambda_element requires n >= 2")
    basis = sp_basis(n)
    coeffs: dict[tuple[int, ...], float] = {}
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            t = tuple(sorted(
                basis.index[nm]
                for nm in (f"E({p},{q})", f"S(i;{p},{q})", f"S(j;{p},{q})", f"S(k;{p},{q})")
            ))
            coeffs[t] = 1.0
    return Multivector(n, 4, coeffs)


def ad_multivector(x: Multivector, p: Multivector) -> Multivector:
    """Leibniz extension of ad_X: sum over factor positions of [X, factor]."""
    if x.n != p.n:
        raise ValueError("mismatched n")
    if x.grade != 1:
        raise ValueError("ad_multivector expects a grade-1 first argument")
    ad = sp_basis(x.n).ad_matrix(x.as_vector())
    return _leibniz_apply(ad, p)


def _leibniz_apply(a: np.ndarray, p: Multivector) -> Multivector:
    """Derivative of the exterior power: replace one factor by its a-image;
    the factor at position pos gives the rows (new, rest) with sign (-1)^pos."""
    if p.grade == 0:
        return Multivector.zero(p.n, 0)
    x, rest, coef = p._factors()
    cols = a[:, x]
    new, f = np.nonzero(np.abs(cols) > PRUNE_TOL)
    rows = np.concatenate([new[:, None], rest[f]], axis=1)
    return Multivector._of(p.n, p.grade, _collect(rows, coef[f] * cols[new, f]))


def intrinsic_derivative(x: Multivector, n: int | None = None) -> Multivector:
    """d_e of the multiplicative field in the right trivialization: ad_X Lambda."""
    n = x.n if n is None else n
    return ad_multivector(x, lambda_element(n))


@dataclass
class DualVector:
    """Element of the dual of sp(n), as coefficients over the dual basis."""

    n: int
    coeffs: np.ndarray

    @staticmethod
    def basis_dual(name: str, n: int) -> "DualVector":
        v = np.zeros(sp_basis(n).dim)
        v[sp_basis(n).index[name]] = 1.0
        return DualVector(n, v)


@lru_cache(maxsize=None)
def _intrinsic_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ad_{B_c} Lambda for every basis element c, as COO triples: the basis
    element c, the 4-tuple of the term and its coefficient."""
    basis = sp_basis(n)
    parts = [intrinsic_derivative(basis.element(nm))._arrays() for nm in basis.names]
    rows = np.repeat(np.arange(basis.dim), [len(v) for _, v in parts])
    return rows, np.concatenate([t for t, _ in parts]), np.concatenate([v for _, v in parts])


def four_bracket(z1: DualVector, z2: DualVector, z3: DualVector, z4: DualVector,
                 n: int | None = None) -> DualVector:
    """Dual of the intrinsic derivative on quadruples of covectors.

    <result, X> = <z1^z2^z3^z4, ad_X Lambda> for every basis element X.
    """
    zs = (z1, z2, z3, z4)
    n = z1.n if n is None else n
    if any(z.n != n for z in zs):
        raise ValueError("mismatched n")
    rows, terms, coef = _intrinsic_table(n)
    zmat = np.stack([z.coeffs for z in zs])  # (4, N)
    minors = np.linalg.det(zmat[:, terms].transpose(1, 0, 2))
    return DualVector(n, np.bincount(rows, weights=coef * minors, minlength=sp_basis(n).dim))


# ---------------------------------------------------------------------------
# Group-level adjoint action
# ---------------------------------------------------------------------------

def ad_group_matrix(g, tol: float = 1e-8) -> np.ndarray:
    """Matrix of Ad_g = g (.) g^{-1} on the basis of sp(n); g symplectic.

    ``g`` is a :class:`QMatrix` or a ``(..., n, n, 4)`` array of them, giving
    an ``(N, N)`` or ``(..., N, N)`` result; ``ValueError`` unless every g
    has ``||g* g - I||_F <= tol``."""
    data = g.data if isinstance(g, QMatrix) else np.asarray(g, dtype=float)
    lead, n = data.shape[:-3], data.shape[-2]
    if data.shape[-3] != n:
        raise ValueError("ad_group requires a square g")
    basis = sp_basis(n)
    N, m = basis.dim, 2 * n
    cg = chi(data)
    cgh = cg.conj().swapaxes(-1, -2)
    # chi doubles the squared Frobenius norm; "not <=" also catches NaN
    if not np.all(np.sum(np.abs(cgh @ cg - np.eye(m)) ** 2, axis=(-2, -1)) <= 2 * tol * tol):
        raise ValueError("ad_group requires a symplectic g")
    # g B_c g* for all c in two products: g [B_1 | ... | B_N], then its blocks stacked, times g*
    gb = (cg @ basis.chi).reshape(*lead, m, N, m).swapaxes(-3, -2).reshape(*lead, N * m, m)
    flat = unchi(gb @ cgh).reshape(*lead, N, 4 * n * n)
    return (flat @ basis._flat.T / basis._norm2).swapaxes(-1, -2)


def apply_exterior(a: np.ndarray, p: Multivector) -> Multivector:
    """Apply the grade-wise exterior power of a linear map to a multivector.

    The terms fill one antisymmetric tensor over the u basis elements they use,
    and each of its k slots is contracted with those u columns of ``a``; the
    last slot only for the sorted prefixes of the C(N, k) sorted subsets.
    Cost below k u N^k multiply-adds, memory at most N^k floats.
    """
    N, k = a.shape[0], p.grade
    if k == 0 or not p.coeffs:
        return p.copy()
    idx, val = p._arrays()
    if np.any(idx[:, 1:] <= idx[:, :-1]):
        # a key that is not strictly increasing: sort it with its sign and merge
        return apply_exterior(a, Multivector._of(p.n, k, _collect(idx, val)))
    used = np.zeros(N, dtype=bool)
    used[idx] = True
    cols = np.flatnonzero(used)
    u = len(cols)
    strides, signs = _permuted_strides(k)
    # every term laid out in all k! orders; the keys are strictly increasing
    # and distinct here, so no two layouts share an entry
    dense = np.zeros(u ** k)
    dense[(np.cumsum(used) - 1)[idx] @ u ** strides] = np.outer(val, signs)
    a_used = a[:, cols].T
    for _ in range(k - 1):
        # contract the first slot with a and rotate it to the back
        dense = dense.reshape(u, -1).T @ a_used
    tuples, prefixes, at = _subsets(N, k)
    acc = (dense.reshape(u, -1)[:, prefixes].T @ a_used).ravel()[at]
    nz = np.flatnonzero(np.abs(acc) > PRUNE_TOL)
    return Multivector._of(p.n, k, dict(zip([tuples[r] for r in nz.tolist()],
                                            acc[nz].tolist())))


@lru_cache(maxsize=None)
def _permuted_strides(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! layouts s of a term's factors and their signs (exactly +-1, as
    determinants): factor j takes the slot of stride u ** table[j, s]."""
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    return (k - 1 - perms).T, np.linalg.det(np.eye(k)[perms])


@lru_cache(maxsize=None)
def _subsets(N: int, k: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The k-subsets of range(N) in lexicographic order, as tuples; the flat
    indices into an (N,) * (k - 1) array of their distinct (k - 1)-prefixes;
    and, for each subset, (rank of its prefix) * N + its last element."""
    tuples = tuple(combinations(range(N), k))
    rows = np.array(tuples, dtype=np.intp).reshape(len(tuples), k)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(rows[1:, :-1] != rows[:-1, :-1], axis=1)
    prefixes = rows[new, :-1] @ N ** np.arange(k - 2, -1, -1)
    return tuples, prefixes, (np.cumsum(new) - 1) * N + rows[:, -1]


def ad_group(g: QMatrix, p: Multivector, tol: float = 1e-8) -> Multivector:
    """Ad_g applied factor-wise to a multivector; Ad_{gh} = Ad_g Ad_h."""
    if g.n_rows != p.n:
        raise ValueError("mismatched n")
    return apply_exterior(ad_group_matrix(g, tol=tol), p)
