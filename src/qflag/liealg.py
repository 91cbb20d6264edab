"""The Lie algebra sp(n), its exterior algebra, and the Schouten bracket.

Basis of sp(n) (dimension N = n(2n+1)), for 1 <= p < q <= n and x in {i, j, k}:

* ``E(p,q)``   : +1 at (p, q), -1 at (q, p);
* ``S(x;p,q)`` : x at (p, q) and (q, p);
* ``Dg(x;p)``  : x at the diagonal slot (p, p).

Names carry 1-based positions.  The diagonal elements ``Dg`` span the
spheroid algebra (purely imaginary diagonal matrices).

A grade-k :class:`Multivector` holds its canonical terms as sorted int64 keys
and float64 coefficients, none at most PRUNE_TOL.  The key of the basis indices
a_0 < ... < a_{k-1} is their rank among the k-subsets of range(N) in
lexicographic order, C(N, k) - 1 - sum_j C(N - 1 - a_j, k - j) (the
combinatorial number system).  So key order is row order, a sum is one merge of
sorted keys, and :func:`apply_exterior`, which fills the C(N, k) subsets in
order, keys its output by position; it is the split (generalized Laplace)
product, the image of a term being the wedge of its two halves' images, read off
one product of their minors, the halves' keys read off the term's.  ``wedge`` and
``schouten`` read index rows back from the keys; they and the constructor write
unsorted rows, and :func:`_collect` sorts them with the sign of the sort (the parity of the column
compares row[x] > row[y], x < y), drops those with equal adjacent sorted columns,
ranks them (:func:`_rank`) and merges equal keys.  ``schouten`` is the one bracket kernel:
``lie_bracket`` and ad_X P (:func:`ad_multivector`, the derivative
d_e Lambda(X) = ad_X Lambda) are the bracket with a grade-1 argument.

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

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations

import numpy as np

from .hmat import QMatrix, chi, require_symplectic

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
    """Precomputed basis data for sp(n); shared read-only.  The basis lists
    E(p,q), S(i;p,q), S(j;p,q), S(k;p,q) together for each p < q in order, then
    Dg(i;p), Dg(j;p), Dg(k;p) for each p; ``chi`` holds their complex adjoints,
    ``(N, 2n, 2n)``, and chi is an isometry up to a factor 2 (see :meth:`coords`)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        p, q = np.triu_indices(n, 1)  # the pairs p < q in order
        self.names = [nm for a, b in zip((p + 1).tolist(), (q + 1).tolist())
                      for nm in (f"E({a},{b})", *(f"S({x};{a},{b})" for x in _UNITS))]
        self.names += [f"Dg({x};{a})" for a in range(1, n + 1) for x in _UNITS]
        self.index = {nm: c for c, nm in enumerate(self.names)}
        self.dim = len(self.names)
        self.spheroid_indices = tuple(range(4 * len(p), self.dim))

        self.data = np.zeros((self.dim, n, n, 4))
        e, d = 4 * np.arange(len(p)), np.arange(n)
        self.data[e, p, q, 0], self.data[e, q, p, 0] = 1.0, -1.0
        for x in (1, 2, 3):
            self.data[e + x, p, q, x] = self.data[e + x, q, p, x] = 1.0
            self.data[4 * len(p) + 3 * d + x - 1, d, d, x] = 1.0
        self.chi = chi(self.data)
        flat = self.chi.reshape(self.dim, -1)  # ||row c||^2 = 2 ||B_c||^2
        self._coords = (flat.conj() / np.sum(np.abs(flat) ** 2, axis=1, keepdims=True)).T

    # -- coordinates -------------------------------------------------------

    def coords(self, c: np.ndarray) -> np.ndarray:
        """``(..., N)`` basis coordinates of ``(..., 2n, 2n)`` complex adjoints of sp(n)
        elements, Re<chi(B_c), .> / (2 ||B_c||^2) as Re tr chi(A)^H chi(B) = 2 Re tr(A* B):
        exact on the span, and blind to a part orthogonal to chi(sp(n)), e.g. a Hermitian one."""
        return (c.reshape(*c.shape[:-2], -1) @ self._coords).real

    def element(self, name: str) -> "Multivector":
        """Grade-1 multivector for a named basis element."""
        return Multivector(self.n, 1, {(self.index[name],): 1.0})

    # -- structure constants -----------------------------------------------

    @cached_property
    def struct(self) -> np.ndarray:
        """struct[a, b, c] = coefficient of basis c in [B_a, B_b]."""
        # row a is [B_a, B_c] over all c, exact: chi's entries are 0, +-1 and +-i
        return np.stack([self.coords(x @ self.chi - self.chi @ x) for x in self.chi])


@lru_cache(maxsize=None)
def sp_basis(n: int) -> SpBasis:
    return SpBasis(n)


@lru_cache(maxsize=None)
def _struct_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded sparse structure constants over the N * N pairs,
    [B_a, B_b] = sum_s val[a * N + b, s] B_{col[a * N + b, s]}, with as many
    slots s as the fullest bracket has nonzeros; padding slots hold 0."""
    st = sp_basis(n).struct.reshape(-1, sp_basis(n).dim)
    width = max(int(np.count_nonzero(st, axis=1).max()), 1)
    col = np.argsort(st == 0, axis=1, kind="stable")[:, :width]  # nonzeros first
    return col, np.take_along_axis(st, col, axis=1)


# ---------------------------------------------------------------------------
# Sparse multivectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _binomials(dim: int, k: int) -> tuple[int, np.ndarray]:
    """C(dim, k) and the (k, dim) table of C(b, k - j) at [j, b], which rank and
    unrank grade-k keys; ValueError when a key could reach 2**63."""
    count = math.comb(dim, max(k, 0))  # a negative grade has no terms to key
    if count > 2 ** 63:
        raise ValueError(f"grade {k} over {dim} basis elements has {count} keys, past 2**63")
    tab = [[math.comb(b, k - j) for b in range(dim)] for j in range(k)]
    return count, np.array(tab, dtype=np.int64).reshape(-1, dim)


def _rank(idx: np.ndarray, dim: int) -> np.ndarray:
    """The keys of (m, k) increasing index rows: each row's rank among the
    k-subsets of range(dim) in lexicographic order."""
    count, tab = _binomials(dim, idx.shape[1])
    keys = np.full(len(idx), count - 1)
    for j, row in enumerate(tab[:, ::-1]):  # row[a] = C(dim - 1 - a, k - j)
        keys -= row.take(idx[:, j])
    return keys


def _unrank(keys: np.ndarray, k: int, dim: int) -> np.ndarray:
    """The (m, k) index rows of m grade-k keys, the inverse of :func:`_rank`."""
    count, tab = _binomials(dim, k)
    rest = count - 1 - keys  # sum_j C(dim - 1 - a_j, k - j), read off greedily
    idx = np.empty((len(keys), len(tab)), dtype=np.intp)
    for j, row in enumerate(tab):
        b = np.searchsorted(row, rest, side="right") - 1  # the largest C(b, k - j) <= rest
        idx[:, j], rest = dim - 1 - b, rest - row.take(b)
    return idx


def _collect(idx: np.ndarray, val: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """Sum terms into canonical keys, values and rows.  Row r of ``idx`` (m, k) stands
    for ``val[r]`` times the wedge of its basis elements in row order: it is
    sorted with the sign of the sort, vanishes if it repeats an index, and is
    keyed by its rank among the k-subsets of range(dim); equal keys merge, their
    values summed in input order, and sums at most PRUNE_TOL are pruned."""
    k = idx.shape[1]
    if k > 1:  # whole-column compares: a numpy reduction over the short axis costs far more
        t, odd = idx.T, np.zeros(len(idx), dtype=bool)
        for x, y in combinations(range(k), 2):  # the parity of the sort's inversions
            odd ^= t[x] > t[y]
        idx = np.sort(idx, axis=1)
        t, keep = idx.T, np.ones(len(idx), dtype=bool)
        for x in range(1, k):  # sorted, a repeated factor sits next to itself
            keep &= t[x] != t[x - 1]
        idx, val = idx.compress(keep, axis=0), np.where(odd, -val, val)[keep]
    keys = _rank(idx, dim)
    order = np.argsort(keys, kind="stable")
    ordered, new = keys.take(order), np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]  # where each run of equal keys starts
    starts = np.flatnonzero(new)
    acc = np.add.reduceat(val.take(order), starts)
    keep = np.abs(acc) > PRUNE_TOL
    first = order.take(starts[keep])  # the input row of each kept key's first value
    return keys.take(first), acc[keep], idx.take(first, axis=0)


def _canonicalize(coeffs: dict | None, k: int, dim: int) -> tuple[np.ndarray, ...]:
    """Canonical keys, values and rows of grade-k coefficients over dim basis elements;
    ValueError for a key that is not k indices in range(dim), a coefficient that
    is a bool, not a real number or not finite, or a grade whose keys could reach 2**63."""
    coeffs = coeffs or {}
    m = len(coeffs)
    idx = np.fromiter(chain.from_iterable(coeffs), dtype=float)
    # an index is in range(dim) iff it equals the nearest integer in [0, dim - 1]
    if set(map(len, coeffs)) - {k} or not (idx == idx.clip(0, dim - 1).round()).all():
        t = next(t for t in coeffs
                 if len(t) != k or not all(0 <= i < dim and i % 1 == 0 for i in t))
        raise ValueError(f"key {t}: need {k} basis indices in range({dim})")
    # the rule of quat.json_number: a bool or a string is refused, not converted
    bad = {tp for tp in set(map(type, coeffs.values()))
           if tp is bool or not issubclass(tp, numbers.Real)}
    if bad:
        t = next(t for t, c in coeffs.items() if type(c) in bad)
        raise ValueError(f"key {t}: coefficient {coeffs[t]!r} is not a real number")
    val = np.fromiter(coeffs.values(), dtype=float, count=m)
    if not np.isfinite(val).all():  # NaN would be pruned and inf kept
        t = next(t for t, c in coeffs.items() if not math.isfinite(c))
        raise ValueError(f"key {t}: coefficient {coeffs[t]} is not finite")
    return _collect(idx.astype(np.intp).reshape(m, max(k, 0)), val, dim)  # no terms at k < 0


def _factors(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every (term, position) of (m, k) terms, k >= 1: the factor there,
    the rest of the term, and the term's coefficient times (-1)^position."""
    m, k = idx.shape
    others, signs = _factor_tables(k)
    rest = idx.take(others, axis=1).reshape(m * k, k - 1)
    return idx.ravel(), rest, (val[:, None] * signs).ravel()


@lru_cache(maxsize=None)
def _factor_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions other than each of k, flat (k * (k - 1)), and (-1)^position."""
    return np.nonzero(~np.eye(k, dtype=bool))[1], np.where(np.arange(k) % 2, -1.0, 1.0)


class Multivector:
    """Grade-k element of the exterior algebra of sp(n), held as canonical keys
    and coefficients (see the module docstring); the constructor takes a dict
    from index tuples to coefficients and raises ValueError for a key that is
    not ``grade`` basis indices, a coefficient that is a bool, not a real number or
    not finite, or a grade whose keys could reach 2**63.
    ``coeffs`` is a dict of the terms built on first read; it may be written,
    and from then on every operation reads the terms back from it."""

    def __init__(self, n: int, grade: int, coeffs: dict | None = None):
        self.n, self.grade, self._dict = n, grade, None
        self._keys, self._vals, self._rows = _canonicalize(coeffs, grade, sp_basis(n).dim)

    @staticmethod
    def zero(n: int, grade: int) -> "Multivector":
        return Multivector(n, grade)

    @classmethod
    def _of(cls, n: int, grade: int, keys: np.ndarray, vals: np.ndarray,
            rows: np.ndarray | None = None) -> "Multivector":
        """Wrap canonical keys and values, and their rows if known, skipping the constructor."""
        out = cls.__new__(cls)
        out.n, out.grade, out._dict = n, grade, None
        out._keys, out._vals, out._rows = keys, vals, rows
        return out

    def _keyed(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical keys and values, read back from ``coeffs`` once handed out."""
        if self._dict is not None:
            self._keys, self._vals, self._rows = _canonicalize(self._dict, self.grade,
                                                               sp_basis(self.n).dim)
        return self._keys, self._vals

    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms: an (m, grade) array of increasing index rows in key order and the
        m coefficients.  They are the multivector's own arrays, to be read only."""
        keys, vals = self._keyed()
        if self._rows is None:
            self._rows = _unrank(keys, self.grade, sp_basis(self.n).dim)
        return self._rows, vals

    def _as_dict(self) -> dict[tuple[int, ...], float]:
        idx, vals = self.terms()
        return dict(zip(map(tuple, idx.tolist()), vals.tolist()))

    @property
    def coeffs(self) -> dict[tuple[int, ...], float]:
        if self._dict is None:
            self._dict = self._as_dict()
        return self._dict

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multivector) and (self.n, self.grade) == (other.n, other.grade)
                and all(map(np.array_equal, self._keyed(), other._keyed())))

    def __repr__(self) -> str:
        return f"Multivector(n={self.n}, grade={self.grade}, coeffs={self._as_dict()!r})"

    def copy(self) -> "Multivector":
        arrays = (*self._keyed(), self._rows)  # the rows only if known
        return Multivector._of(self.n, self.grade, *(a.copy() for a in arrays if a is not None))

    def max_abs(self) -> float:
        return float(np.abs(self._keyed()[1]).max(initial=0.0))

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, np.add)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, np.subtract)

    def _merge(self, other: "Multivector", op: np.ufunc) -> "Multivector":
        """self op other: canonical keys are sorted and distinct, so a key occurs at most twice."""
        if self.n != other.n or self.grade != other.grade:
            raise ValueError("mismatched n or grade")
        (k1, v1), (k2, v2) = self._keyed(), other._keyed()
        if np.array_equal(k1, k2):
            keys, acc, first = k1, op(v1, v2), True
        else:  # one stable sort of the two runs, ours first; 0.0 - v is -v for v != 0
            keys = np.concatenate([k1, k2])
            order = np.argsort(keys, kind="stable")
            keys, acc = keys.take(order), np.concatenate([v1, op(0.0, v2)]).take(order)
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]  # False on the second of a twin
            acc[:-1] += np.where(first[1:], 0.0, acc[1:])  # ours + theirs, and v + 0.0 is v
        keep = first & (np.abs(acc) > PRUNE_TOL)
        return Multivector._of(self.n, self.grade, keys[keep], acc[keep])

    def scale(self, r: float) -> "Multivector":
        if not math.isfinite(r):
            raise ValueError(f"scale factor {r} is not finite")
        keys, vals = self._keyed()
        keep = np.abs(vals * r) > PRUNE_TOL
        return Multivector._of(self.n, self.grade, keys[keep], vals[keep] * r)

    def wedge(self, other: "Multivector") -> "Multivector":
        if self.n != other.n:
            raise ValueError("mismatched n")
        (i1, v1), (i2, v2) = self.terms(), other.terms()
        rows = np.concatenate([np.repeat(i1, len(v2), axis=0), np.tile(i2, (len(v1), 1))],
                              axis=1)
        return Multivector._of(self.n, self.grade + other.grade,
                               *_collect(rows, np.outer(v1, v2).ravel(), sp_basis(self.n).dim))

    def as_vector(self) -> np.ndarray:
        """Grade-1 only: dense coordinate vector over the basis."""
        if self.grade != 1:
            raise ValueError("as_vector requires grade 1")
        idx, val = self.terms()
        return np.bincount(idx[:, 0], weights=val, minlength=sp_basis(self.n).dim)


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------

def lie_bracket(x: Multivector, y: Multivector) -> Multivector:
    """Lie bracket of two grade-1 elements, in basis coordinates."""
    if x.grade != 1 or y.grade != 1:
        raise ValueError("lie_bracket expects grade-1 elements")
    return schouten(x, y)  # which checks n


def schouten(p: Multivector, q: Multivector) -> Multivector:
    """Schouten bracket of multivectors (see module docstring for signs).

    All factor pairs (x_a, y_b) are looked up at once, as the rows a * N + b of the
    padded structure constants, and their components read with one flat take each;
    each component c of [x_a, y_b] gives the row (c, rest of x, rest of y)."""
    if p.n != q.n:
        raise ValueError("mismatched n")
    if p.grade == 0 or q.grade == 0:
        return Multivector.zero(p.n, max(p.grade + q.grade - 1, 0))
    col, val = _struct_table(p.n)
    a, rest_p, cp = _factors(*p.terms())
    b, rest_q, cq = _factors(*q.terms())
    pair = (a[:, None] * sp_basis(p.n).dim + b).ravel()  # the table's row of (x_a, y_b)
    ab, s = np.nonzero(val.take(pair, axis=0))
    i, j = np.divmod(ab, len(b))
    flat = pair.take(ab) * val.shape[1] + s
    rows = np.concatenate([col.take(flat)[:, None], rest_p.take(i, axis=0),
                           rest_q.take(j, axis=0)], axis=1)
    pref = -1.0 if p.grade % 2 == 0 else 1.0  # (-1)^{p+1}
    coef = pref * cp.take(i) * cq.take(j) * val.take(flat)
    return Multivector._of(p.n, p.grade + q.grade - 1, *_collect(rows, coef, sp_basis(p.n).dim))


def lambda_element(n: int) -> Multivector:
    """Sum over p < q of E(p,q) ^ S(i;p,q) ^ S(j;p,q) ^ S(k;p,q)."""
    return _lambda_element(n).copy()


@lru_cache(maxsize=None)
def _lambda_element(n: int) -> Multivector:
    if n < 2:
        raise ValueError("lambda_element requires n >= 2")
    # E(p,q), S(i;p,q), S(j;p,q), S(k;p,q) are consecutive in the basis for each p < q
    return Multivector(n, 4, {(c, c + 1, c + 2, c + 3): 1.0 for c in range(0, 2 * n * (n - 1), 4)})


def ad_multivector(x: Multivector, p: Multivector) -> Multivector:
    """Leibniz extension of ad_X, the sum over factor positions of [X, factor]:
    the Schouten bracket [X, P] for grade-1 X."""
    if x.grade != 1:
        raise ValueError("ad_multivector expects a grade-1 first argument")
    return schouten(x, p)


def intrinsic_derivative(x: Multivector) -> Multivector:
    """d_e of the multiplicative field in the right trivialization: ad_X Lambda."""
    return ad_multivector(x, lambda_element(x.n))


@dataclass
class DualVector:
    """Element of the dual of sp(n), as coefficients over the dual basis."""

    n: int
    coeffs: np.ndarray


@lru_cache(maxsize=None)
def _intrinsic_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ad_{B_c} Lambda for every basis element c, as COO triples: the basis
    element c, the 4-tuple of the term and its coefficient."""
    basis = sp_basis(n)
    parts = [intrinsic_derivative(basis.element(nm)).terms() for nm in basis.names]
    rows = np.repeat(np.arange(basis.dim), [len(v) for _, v in parts])
    return rows, np.concatenate([t for t, _ in parts]), np.concatenate([v for _, v in parts])


def four_bracket(z1: DualVector, z2: DualVector, z3: DualVector, z4: DualVector) -> DualVector:
    """Dual of the intrinsic derivative on quadruples of covectors.

    <result, X> = <z1^z2^z3^z4, ad_X Lambda> for every basis element X.
    """
    zs = (z1, z2, z3, z4)
    n = z1.n
    if any(z.n != n for z in zs):
        raise ValueError("mismatched n")
    dim = sp_basis(n).dim
    if any(np.shape(z.coeffs) != (dim,) for z in zs):
        raise ValueError(f"four_bracket needs covectors of {dim} entries over sp({n})")
    rows, terms, coef = _intrinsic_table(n)
    zmat = np.stack([z.coeffs for z in zs])  # (4, N)
    minors = np.linalg.det(zmat.take(terms, axis=1).transpose(1, 0, 2))
    return DualVector(n, np.bincount(rows, weights=coef * minors, minlength=dim))


# ---------------------------------------------------------------------------
# Group-level adjoint action
# ---------------------------------------------------------------------------

def ad_group_matrix(g: QMatrix) -> np.ndarray:
    """Matrix of Ad_g = g (.) g^{-1} on the basis of sp(n); ``ValueError``
    unless g passes :func:`require_symplectic`."""
    cg = require_symplectic(g.data, "ad_group_matrix")
    basis = sp_basis(g.n_rows)
    return basis.coords(cg @ basis.chi @ cg.conj().T).T  # column c: g B_c g*


@np.errstate(over="ignore", invalid="ignore")  # a non-finite image raises below
def apply_exterior(a: np.ndarray, p: Multivector) -> Multivector:
    """Apply the grade-wise exterior power of a linear map to a multivector.

    A term e_S splits into its first h = k // 2 factors S' and the rest S'', and
    a.e_S = (a.e_S') ^ (a.e_S''): the image sums B[P', P''] e_P' ^ e_P'' with
    B = W_h C W_{k-h}^T, C holding each coefficient at (S', S'') and column S' of
    W_j the j x j minors of a on the columns S' over every j-subset of rows.
    Output subset T sums B over its C(k, h) splits, signed by their shuffles; the
    first split's flat index of S gives the keys of S' and S''.
    ``ValueError`` unless a is a finite dim x dim matrix, dim that of sp(n);
    ``OverflowError`` if a coefficient of the image is not finite.
    """
    N, k = sp_basis(p.n).dim, p.grade
    if np.shape(a) != (N, N) or not np.isfinite(a).all():
        raise ValueError(f"apply_exterior needs a finite {N} x {N} matrix over sp({p.n}), "
                         f"got shape {np.shape(a)}")
    keys, val = p._keyed()
    if k == 0 or not len(val):
        return p.copy()
    (first, _), *rest = _splits(N, k)
    r1, r2 = np.divmod(first.take(keys), _binomials(N, k - k // 2)[0])
    (r1, w1), (r2, w2) = _minors(a, r1, k // 2), _minors(a, r2, k - k // 2)
    c = np.zeros((w1.shape[1], w2.shape[1]))
    c[r1, r2] = val  # the keys are canonical: one term per cell
    b = np.dot(np.dot(w1, c), w2.T).ravel()
    acc = b.take(first)
    for flat, odd in rest:  # one split at a time keeps each transient to one output vector
        (np.subtract if odd else np.add)(acc, b.take(flat), out=acc)
    if not np.isfinite(acc).all():
        raise OverflowError("apply_exterior: a coefficient of the image is not finite")
    nz = np.flatnonzero(np.abs(acc) > PRUNE_TOL)  # the keys: acc runs over the subsets in order
    return Multivector._of(p.n, k, nz, acc.take(nz))


def _minors(a: np.ndarray, ranks: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """For m keys of j-subsets of columns: each key's position among the u distinct
    ones in key order, and the (C(N, j), u) j x j minors of a on those columns over
    every j-subset of rows in key order (Laplace expansion along the last column)."""
    N, pos = len(a), np.zeros(_binomials(len(a), j)[0], dtype=np.intp)
    pos[ranks] = 1
    keys = np.flatnonzero(pos)
    pos[keys] = np.arange(len(keys))
    elems = _laplace_tables(N, j)[0]
    out = a.take(elems[0].take(keys), axis=1) if j else np.ones((1, len(keys)))
    for i in range(1, j):
        rows, drop = _laplace_tables(N, i + 1)
        col, prev = a.take(elems[i].take(keys), axis=1), out
        out = col.take(rows[i], axis=0) * prev.take(drop[i], axis=0)
        for r in range(i - 1, -1, -1):  # in place, with alternating cofactor signs
            (np.subtract if (i - r) % 2 else np.add)(
                out, col.take(rows[r], axis=0) * prev.take(drop[r], axis=0), out=out)
    return pos.take(ranks), out


@lru_cache(maxsize=None)
def _laplace_tables(N: int, j: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """For the j-subsets of range(N) in key order and each i < j: their i-th
    elements, and the keys of the (j - 1)-subsets left without them."""
    rows = _unrank(np.arange(_binomials(N, j)[0]), j, N)
    return tuple(rows.T.copy()), tuple(_rank(np.delete(rows, i, axis=1), N) for i in range(j))


@lru_cache(maxsize=None)
def _splits(N: int, k: int) -> tuple[tuple[np.ndarray, bool], ...]:
    """Per choice of h = k // 2 of k positions (the leading h first): the flat index
    into a (C(N, h), C(N, k - h)) array of (T there, T elsewhere) for each k-subset T
    in key order, and whether the shuffle bringing those positions first is odd."""
    h, rows = k // 2, _unrank(np.arange(_binomials(N, k)[0]), k, N)
    width = _binomials(N, k - h)[0]
    return tuple((_rank(rows[:, list(pos)], N) * width + _rank(np.delete(rows, pos, axis=1), N),
                  (sum(pos) - h * (h - 1) // 2) % 2 == 1) for pos in combinations(range(k), h))


def ad_group(g: QMatrix, p: Multivector) -> Multivector:
    """Ad_g applied factor-wise to a multivector; Ad_{gh} = Ad_g Ad_h."""
    return apply_exterior(ad_group_matrix(g), p)
