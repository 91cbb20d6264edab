"""Shared helpers for the test suite: random factor builders and independent
oracles implemented separately from the library code they check."""

import math
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from qflag.chart import Chart, ChartPoint
from qflag.decomp import PIVOT_RTOL, BruhatForm
from qflag.flags import leaf_point
from qflag.hmat import (SYMPLECTIC_TOL, Permutation, QMatrix, SingularMatrixError, pow2_scaled,
                        word_to_permutation)
from qflag.hp1geom import coset_rep
from qflag.liealg import PRUNE_TOL, DualVector, Multivector, lambda_element, sp_basis
from qflag.quat import Quaternion, qnorm2, qprod


ONE, I, J, K = (Quaternion(*unit) for unit in np.eye(4))


def conjugate(q: Quaternion) -> Quaternion:
    """conj(q): the imaginary part negated."""
    return Quaternion(q.re, -q.i, -q.j, -q.k)


def reciprocal(q: Quaternion) -> Quaternion:
    """q^-1 = conj(q) / |q|^2 of a nonzero q."""
    return conjugate(q) / q.norm2()


def multivector_to_json(mv: Multivector) -> dict:
    """``{"n", "grade", "terms": [{"idx": [names], "c"}]}``, the terms in key order and
    each named by its sp(n) basis names (``E(1,2)``, ``S(i;1,2)``, ``Dg(k;1)``)."""
    names = sp_basis(mv.n).names
    idx, vals = mv.terms()
    terms = [{"idx": [names[c] for c in t], "c": v} for t, v in zip(idx.tolist(), vals.tolist())]
    return {"n": mv.n, "grade": mv.grade, "terms": terms}


def multivector_from_json(obj: dict) -> Multivector:
    """Inverse of :func:`multivector_to_json` through the Multivector constructor, so
    unsorted names pick up the sign of their sort."""
    index = sp_basis(obj["n"]).index
    return Multivector(obj["n"], obj["grade"],
                       {tuple(index[nm] for nm in t["idx"]): t["c"] for t in obj["terms"]})


def from_rows(rows) -> QMatrix:
    """The quaternion matrix of nested rows of real numbers and Quaternions."""
    return QMatrix(np.array([[(e if isinstance(e, Quaternion) else Quaternion(e)).to_array()
                              for e in row] for row in rows]))


def transposition(r: int, n: int) -> Permutation:
    """The adjacent transposition of S_n swapping positions r and r + 1 (0-based r)."""
    ol = list(range(n))
    ol[r], ol[r + 1] = ol[r + 1], ol[r]
    return Permutation(ol)


def reconstruct(form: BruhatForm) -> QMatrix:
    """U D P_w V, the product of the strict Bruhat factors."""
    return form.U @ form.D @ form.w.matrix() @ form.V


def random_quaternion(rng, scale=1.0):
    return Quaternion.from_array(rng.normal(scale=scale, size=4))


def random_unit_quaternion(rng):
    q = random_quaternion(rng)
    return q * (1.0 / q.norm())


def random_invertible(n, rng, scale=1.0):
    """Generic matrix over H; invertible with probability 1."""
    return QMatrix(rng.normal(scale=scale, size=(n, n, 4)))


def random_unit_upper(n, rng, scale=0.7):
    m = QMatrix.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            m.data[i, j] = rng.normal(scale=scale, size=4)
    return m


def random_vw(w: Permutation, rng, scale=0.7):
    """Random element of V_w: unit upper triangular with entry (i, j) allowed
    only when w(i) > w(j), which makes P_w V P_w^{-1} lower triangular."""
    n = w.n
    v = QMatrix.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            if w(i) > w(j):
                v.data[i, j] = rng.normal(scale=scale, size=4)
    return v


def random_bruhat_factors(n, rng, w=None):
    """Valid (U, D, w, V) with moderate conditioning, and the product G; the
    cell w is drawn at random unless given."""
    u = random_unit_upper(n, rng)
    d_entries = []
    for _ in range(n):
        q = random_quaternion(rng)
        d_entries.append(q * (float(rng.uniform(0.5, 2.0)) / q.norm()))
    d = QMatrix.diag(d_entries)
    w = Permutation(rng.permutation(n)) if w is None else w
    v = random_vw(w, rng)
    g = u @ d @ w.matrix() @ v
    return u, d, w, v, g


def is_unit_upper(m: QMatrix, tol=1e-12) -> bool:
    n = m.n_rows
    for i in range(n):
        if (m[i, i] - Quaternion(1)).norm() > tol:
            return False
        for j in range(i):
            if m[i, j].norm() > tol:
                return False
    return True


def in_vw(v: QMatrix, w: Permutation, tol=1e-12) -> bool:
    """V in V_w: unit upper triangular and P_w V P_w^{-1} lower unit triangular."""
    if not is_unit_upper(v, tol):
        return False
    pw = w.matrix()
    conj = pw @ v @ pw.inverse()
    n = v.n_rows
    for i in range(n):
        for j in range(i + 1, n):
            if conj[i, j].norm() > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# Per-term exterior-algebra oracles: the term-by-term loops that the library's
# array kernels replaced, on dicts of sorted tuples.
# ---------------------------------------------------------------------------

def wedge_tuples(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Merge two strictly increasing tuples; returns (sorted tuple, sign).

    Sign is the parity of the merge permutation; (0) when an index repeats.
    """
    if not t1:
        return t2, 1
    if not t2:
        return t1, 1
    out = []
    sign = 1
    i = j = 0
    while i < len(t1) and j < len(t2):
        a, b = t1[i], t2[j]
        if a == b:
            return (), 0
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (len(t1) - i) % 2:
                sign = -sign
    out.extend(t1[i:])
    out.extend(t2[j:])
    return tuple(out), sign


def collect_oracle(idx: np.ndarray, val: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """``liealg._collect`` row by row: each row's sign is the parity of its
    inversions, a sorted row that repeats an index is dropped, its key is its
    lexicographic rank C(dim, k) - 1 - sum_j C(dim - 1 - a_j, k - j) from
    ``math.comb``, and equal keys merge in a dict that keeps the first row.  A
    key's values are summed in input order, as numpy's ``add.reduceat`` sums a
    run: the first value plus ``np.sum`` of the rest."""
    k = idx.shape[1]
    runs = {}
    for row, v in zip(idx.tolist(), val.tolist()):
        odd = sum(a > b for a, b in combinations(row, 2)) % 2
        row = sorted(row)
        if any(a == b for a, b in zip(row, row[1:])):
            continue
        key = math.comb(dim, k) - 1 - sum(math.comb(dim - 1 - a, k - j) for j, a in enumerate(row))
        runs.setdefault(key, (row, []))[1].append(-v if odd else v)
    terms = [(key, row, vs[0] + np.sum(vs[1:])) for key, (row, vs) in sorted(runs.items())]
    terms = [t for t in terms if abs(t[2]) > PRUNE_TOL]
    return (np.array([t[0] for t in terms], dtype=np.int64),
            np.array([t[2] for t in terms], dtype=float),
            np.array([t[1] for t in terms], dtype=np.intp).reshape(len(terms), k))


def wedge_oracle(p: Multivector, q: Multivector) -> Multivector:
    out = {}
    for t1, c1 in p.coeffs.items():
        for t2, c2 in q.coeffs.items():
            t, s = wedge_tuples(t1, t2)
            if s:
                out[t] = out.get(t, 0.0) + s * c1 * c2
    return Multivector(p.n, p.grade + q.grade, out)


def merge_oracle(p: Multivector, q: Multivector, sign: float) -> dict:
    """The terms of p + sign * q by a per-key dict merge of canonical operands:
    p's terms, then each of q's added in turn, pruning only the keys it touches."""
    out = dict(p.coeffs)
    for t, c in q.coeffs.items():
        v = out.get(t, 0.0) + sign * c
        if abs(v) > PRUNE_TOL:
            out[t] = v
        else:
            out.pop(t, None)
    return out


def leibniz_oracle(a: np.ndarray, p: Multivector) -> Multivector:
    """Derivative of the exterior power: replace one factor by its a-image."""
    out = {}
    for t, c in p.coeffs.items():
        for pos, idx in enumerate(t):
            rest = t[:pos] + t[pos + 1:]
            col = a[:, idx]
            for new in np.nonzero(np.abs(col) > 1e-14)[0]:
                tt, s = wedge_tuples((int(new),), rest)
                if s:
                    # moving the new factor back to `pos` costs (-1)^pos
                    sign = s if pos % 2 == 0 else -s
                    out[tt] = out.get(tt, 0.0) + sign * c * col[new]
    return Multivector(p.n, p.grade, out)


def apply_exterior_oracle(a: np.ndarray, p: Multivector) -> Multivector:
    """Each term t contributes c_t * det(a[S, t]) to every k-subset S."""
    k = p.grade
    if k == 0:
        return p.copy()
    subsets = list(combinations(range(a.shape[0]), k))
    rows = np.array(subsets)
    acc = np.zeros(len(subsets))
    for t, c in p.coeffs.items():
        acc += c * np.linalg.det(a[:, list(t)][rows])
    return Multivector(p.n, k, {subsets[r]: float(acc[r]) for r in range(len(subsets))})


def apply_exterior_laplace(a: np.ndarray, p: Multivector) -> Multivector:
    """The k x k minors of every term at once, by Laplace expansion along the
    last column: minors[r, t] is the minor of a on the rows of the r-th
    j-subset and the first j columns of term t."""
    N, k = a.shape[0], p.grade
    if k == 0:
        return p.copy()
    idx = np.array(list(p.coeffs), dtype=np.intp).reshape(len(p.coeffs), k)
    val = np.array(list(p.coeffs.values()), dtype=float)
    cols = a[:, idx]
    minors = cols[:, :, 0]
    for j in range(2, k + 1):
        rows, drop = _laplace_tables(N, j)
        minors = sum((-1.0) ** (i + j - 1) * cols[rows[:, i], :, j - 1] * minors[drop[:, i]]
                     for i in range(j))
    acc = minors @ val
    subsets = list(combinations(range(N), k))
    return Multivector(p.n, k, {subsets[r]: float(acc[r]) for r in range(len(subsets))})


@lru_cache(maxsize=None)
def _laplace_tables(N: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The j-subsets of range(N) as a (C(N, j), j) array, and the table of the
    rank of each subset without its i-th element among the (j - 1)-subsets."""
    subsets = list(combinations(range(N), j))
    rank = {t: r for r, t in enumerate(combinations(range(N), j - 1))}
    drop = [[rank[t[:i] + t[i + 1:]] for i in range(j)] for t in subsets]
    return np.array(subsets, dtype=np.intp), np.array(drop, dtype=np.intp)


@lru_cache(maxsize=None)
def sp_basis_oracle(n: int) -> tuple[list[str], list[QMatrix]]:
    """The names and matrices of the sp(n) basis, one QMatrix per element in
    nested loops: E(p,q), S(i;p,q), S(j;p,q), S(k;p,q) for each p < q, then
    Dg(i;p), Dg(j;p), Dg(k;p) for each p.  Cached, so read only."""
    names: list[str] = []
    mats: list[QMatrix] = []
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            m = QMatrix.zeros(n)
            m.data[p - 1, q - 1, 0] = 1.0
            m.data[q - 1, p - 1, 0] = -1.0
            names.append(f"E({p},{q})")
            mats.append(m)
            for xi, x in enumerate("ijk", start=1):
                m = QMatrix.zeros(n)
                m.data[p - 1, q - 1, xi] = 1.0
                m.data[q - 1, p - 1, xi] = 1.0
                names.append(f"S({x};{p},{q})")
                mats.append(m)
    for p in range(1, n + 1):
        for xi, x in enumerate("ijk", start=1):
            m = QMatrix.zeros(n)
            m.data[p - 1, p - 1, xi] = 1.0
            names.append(f"Dg({x};{p})")
            mats.append(m)
    return names, mats


def project_oracle(x: np.ndarray, n: int) -> np.ndarray:
    """Basis coordinates of a ``(..., n, n, 4)`` stack of elements of sp(n) in the
    real form: flattened, <A, B> = Re tr(A* B) is the Euclidean inner product, so
    coordinate c is flat(B_c) . flat(X) / ||B_c||^2."""
    flat = np.stack([m.data.reshape(-1) for m in sp_basis_oracle(n)[1]])
    x = np.asarray(x, dtype=float)
    return x.reshape(*x.shape[:-3], -1) @ flat.T / np.sum(flat * flat, axis=1)


def lambda_oracle(n: int) -> Multivector:
    """Lambda built by basis names: E(p,q) ^ S(i;p,q) ^ S(j;p,q) ^ S(k;p,q) over p < q."""
    index = sp_basis(n).index
    terms = {tuple(sorted(index[nm] for nm in (f"E({p},{q})", f"S(i;{p},{q})",
                                               f"S(j;{p},{q})", f"S(k;{p},{q})"))): 1.0
             for p in range(1, n + 1) for q in range(p + 1, n + 1)}
    return Multivector(n, 4, terms)


def struct_oracle(n: int) -> np.ndarray:
    """Structure constants from one QMatrix commutator per pair of basis elements."""
    mats = sp_basis_oracle(n)[1]
    N = len(mats)
    tab = np.zeros((N, N, N))
    for a in range(N):
        ma = mats[a]
        for b in range(a + 1, N):
            mb = mats[b]
            coeffs = project_oracle((ma @ mb - mb @ ma).data, n)
            coeffs[np.abs(coeffs) < 1e-14] = 0.0
            tab[a, b] = coeffs
            tab[b, a] = -coeffs
    return tab


def ad_matrix_oracle(x: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Matrix of ad_X on the basis, for X with coordinates x, from structure
    constants st[a, b, c] (as built by :func:`struct_oracle`)."""
    return np.einsum("a,abc->cb", np.asarray(x, dtype=float), st)


def basis_dual(name: str, n: int) -> DualVector:
    """The covector dual to the named basis element of sp(n)."""
    return DualVector(n, np.eye(sp_basis(n).dim)[sp_basis(n).index[name]])


def four_bracket_oracle(zs, n: int) -> np.ndarray:
    """<z1^z2^z3^z4, ad_X Lambda> for each basis element X, one at a time."""
    basis = sp_basis(n)
    lam = lambda_element(n)
    st = struct_oracle(n)
    zmat = np.stack([z.coeffs for z in zs])
    out = np.zeros(basis.dim)
    for c in range(basis.dim):
        dxi = leibniz_oracle(ad_matrix_oracle(np.eye(basis.dim)[c], st), lam)
        out[c] = sum(coeff * float(np.linalg.det(zmat[:, list(t)]))
                     for t, coeff in dxi.coeffs.items())
    return out


def ad_group_oracle(g: QMatrix) -> np.ndarray:
    """Matrix of Ad_g on the basis, from Hamilton products g B_c g*."""
    gstar = g.conj_transpose().data
    cols = []
    for m in sp_basis_oracle(g.n_rows)[1]:
        gb = hamilton(g.data[:, :, None], m.data[None, :, :]).sum(axis=1)
        cols.append(project_oracle(hamilton(gb[:, :, None], gstar[None]).sum(axis=1), g.n_rows))
    return np.stack(cols, axis=1)


def max_coeff_diff(p: Multivector, q: Multivector) -> float:
    """Largest coefficient difference, over the union of the terms; unlike
    ``(p - q).max_abs()``, no difference is pruned."""
    (ip, vp), (iq, vq) = p.terms(), q.terms()
    rows = np.concatenate([ip, iq])
    dims = (sp_basis(p.n).dim,) * rows.shape[1]
    flat = np.ravel_multi_index(rows.T, dims) if dims else np.zeros(len(rows), dtype=int)
    diff = np.bincount(np.unique(flat, return_inverse=True)[1], weights=np.concatenate([vp, -vq]))
    return float(np.abs(diff).max(initial=0.0))


# ---------------------------------------------------------------------------
# Independent Schouten oracle: odd-variable contraction formula.
#
# Writing a multivector P = sum c_t theta_{t_1} ... theta_{t_k} in
# anticommuting variables theta_a, the bracket is
#
#     [P, Q] = sum_{a,b,c} f_{ab}^c (dP/dtheta_a) ^ theta_c ^ (dQ/dtheta_b)
#
# where d/dtheta_a removes the variable at position idx with sign (-1)^idx.
# This formulation never touches the decomposable-sum formula used by the
# library, so it is an independent check of every sign.
# ---------------------------------------------------------------------------

def schouten_oracle(p: Multivector, q: Multivector) -> Multivector:
    st = sp_basis(p.n).struct
    out = {}
    for t1, c1 in p.coeffs.items():
        for pos1, a in enumerate(t1):
            rest1 = t1[:pos1] + t1[pos1 + 1:]
            s1 = -c1 if pos1 % 2 else c1
            for t2, c2 in q.coeffs.items():
                for pos2, b in enumerate(t2):
                    row = st[a, b]
                    nz = np.nonzero(row)[0]
                    if nz.size == 0:
                        continue
                    rest2 = t2[:pos2] + t2[pos2 + 1:]
                    s2 = -c2 if pos2 % 2 else c2
                    for c in nz:
                        mid, sm = wedge_tuples((int(c),), rest2)
                        if sm == 0:
                            continue
                        t, s = wedge_tuples(rest1, mid)
                        if s == 0:
                            continue
                        out[t] = out.get(t, 0.0) + s1 * s2 * sm * s * float(row[c])
    return Multivector(p.n, p.grade + q.grade - 1, out)


# ---------------------------------------------------------------------------
# Independent decomposition oracles: the hand-written Gauss-Jordan inverse and
# modified Gram-Schmidt Iwasawa factorization that the LAPACK kernels on the
# complex adjoint replaced, and the Bruhat loop of row and column operations
# that row reduction of [G | I] replaced.  They use their own Hamilton product,
# so they share no arithmetic with the library's kernels.  The one exception is
# the per-column row reduction, kept to pin the library's arithmetic bit for bit.
# ---------------------------------------------------------------------------

def hamilton(a, b):
    """Quaternion product of (..., 4) arrays from the 16-term Hamilton formula."""
    aw, ax, ay, az = (a[..., i] for i in range(4))
    bw, bx, by, bz = (b[..., i] for i in range(4))
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def chi_oracle(d: np.ndarray) -> np.ndarray:
    """Complex adjoint of a ``(..., rows, cols, 4)`` array, one 2 x 2 block
    ``[[z1, z2], [-conj(z2), conj(z1)]]`` at a time from the four components
    ``q = a + b i + c j + d k``, ``z1 = a + b i``, ``z2 = c + d i``, so each
    signed zero lands where the block's formula puts it."""
    *lead, rows, cols, _ = d.shape
    out = np.empty((*lead, 2 * rows, 2 * cols), dtype=complex)
    for pos in np.ndindex(*lead, rows, cols):
        *at, i, j = pos
        a, b, c, dd = (float(x) for x in d[pos])
        out[(*at, slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2))] = [
            [complex(a, b), complex(c, dd)], [complex(-c, dd), complex(a, -b)]]
    return out


def real_rep(m: QMatrix) -> np.ndarray:
    """The left-regular real form of an r x c quaternion matrix, (4r, 4c): block (i, j)
    is the 4 x 4 matrix of x -> m_ij x on R^4 = H, from Hamilton products alone.
    It is an injective algebra homomorphism, so real_rep(AB) = real_rep(A) real_rep(B),
    and |det real_rep(G)| = Ddet(G)^4 (H. Aslaksen, "Quaternionic determinants",
    Math. Intelligencer 18, 1996)."""
    r, c = m.data.shape[:2]
    blocks = hamilton(m.data[:, :, None, :], np.eye(4))  # [i, j, b, a] = (m_ij e_b)_a
    return blocks.transpose(0, 3, 1, 2).reshape(4 * r, 4 * c)


def from_real_rep(r: np.ndarray) -> QMatrix:
    """The quaternion matrix whose :func:`real_rep` is ``r``: column 0 of block (i, j),
    the image m_ij * 1 of the unit."""
    rows, cols = r.shape[0] // 4, r.shape[1] // 4
    return QMatrix(r.reshape(rows, 4, cols, 4)[:, :, :, 0].transpose(0, 2, 1))


def real_rep_inverse(m: QMatrix) -> QMatrix:
    """M^-1 as the LAPACK inverse of real_rep(M), free of chi: real_rep is an
    injective homomorphism, so real_rep(M^-1) = real_rep(M)^-1."""
    return from_real_rep(np.linalg.inv(real_rep(m)))


def real_rep_ddet(g: QMatrix) -> float:
    """The Dieudonne determinant |det real_rep(G)|^(1/4), through a log-determinant."""
    return math.exp(np.linalg.slogdet(real_rep(g))[1] / 4)


def symplectic_residual(m: QMatrix) -> float:
    """||M* M - I||_F of a square M, with M* M summed from the Hamilton formula."""
    if m.n_rows != m.n_cols:
        raise ValueError("symplectic_residual requires a square matrix")
    mstar_m = hamilton(_qconj(m.data)[:, :, None], m.data[:, None]).sum(axis=0)
    mstar_m[..., 0] -= np.eye(m.n_rows)
    return float(np.sqrt(np.sum(mstar_m * mstar_m)))


def is_symplectic(m: QMatrix, tol: float = SYMPLECTIC_TOL) -> bool:
    """True iff ||M* M - I||_F <= tol: the Sp(n) membership test, read independently."""
    return symplectic_residual(m) <= tol


def exp_pure_oracle(s: Quaternion) -> Quaternion:
    """exp(s) = cos|s| + (s/|s|) sin|s| of a purely imaginary s != 0, in closed form."""
    t = s.norm()
    return Quaternion(math.cos(t), *(s.to_array()[1:] * (math.sin(t) / t)))


def _qconj(q):
    """Conjugate of each quaternion of a (..., 4) array."""
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _qinverse(q):
    """Inverse of each quaternion of a (..., 4) array."""
    return _qconj(q) / np.sum(q * q, axis=-1, keepdims=True)


def gauss_jordan_inverse(m: QMatrix) -> QMatrix:
    """Gauss-Jordan inverse with partial pivoting by left row operations.

    Raises ValueError when a pivot is at most 1e-12 * ||M||_F.
    """
    n = m.n_rows
    a = m.data.copy()
    inv = QMatrix.identity(n).data
    thresh = 1e-12 * m.frobenius()
    for col in range(n):
        mags = np.sqrt(np.sum(a[col:, col] ** 2, axis=-1))
        piv = col + int(np.argmax(mags))
        if mags[piv - col] <= thresh:
            raise ValueError("oracle: singular to working precision")
        a[[col, piv]] = a[[piv, col]]
        inv[[col, piv]] = inv[[piv, col]]
        p_inv = _qinverse(a[col, col])
        a[col] = hamilton(p_inv, a[col])
        inv[col] = hamilton(p_inv, inv[col])
        for r in range(n):
            if r != col:
                c = a[r, col].copy()
                a[r] -= hamilton(c, a[col])
                inv[r] -= hamilton(c, inv[col])
    return QMatrix(inv)


def gram_schmidt_iwasawa(g: QMatrix):
    """G = K R U by modified Gram-Schmidt on columns, twice per column.

    Column j of G is sum_i column i of K times T[i, j] (coefficients on the
    right, inner product <x, y> = sum conj(x_l) y_l); R = diag(T) and
    U = R^{-1} T.
    """
    n = g.n_rows
    k = g.data.copy()
    t = np.zeros((n, n, 4))
    for j in range(n):
        for _ in range(2):
            for i in range(j):
                xc = _qconj(k[:, i])
                coef = hamilton(xc, k[:, j]).sum(axis=0)
                k[:, j] -= hamilton(k[:, i], coef)
                t[i, j] += coef
        r = np.sqrt(np.sum(k[:, j] ** 2))
        k[:, j] /= r
        t[j, j, 0] = r
    r = t[np.arange(n), np.arange(n), 0]
    rr = QMatrix.diag([float(x) for x in r])
    return QMatrix(k), rr, QMatrix(t / r[:, None, None])


def bruhat_oracle(g: QMatrix) -> BruhatForm:
    """Strict Bruhat form by row and column operations, accumulating U and V.

    The pivot rule and liveness test are those of ``decomp.bruhat``.  Entries
    above the pivot are cleared by row operations (building U), live entries
    below it, in already-assigned rows, by column operations that add the
    columns of their pivots to column j (building V), so the reduced matrix
    is D P_w.
    """
    n = g.n_rows
    thresh = PIVOT_RTOL * max(g.frobenius(), 1e-300)
    a = g.data.copy()
    u_acc = QMatrix.identity(n).data
    v_acc = QMatrix.identity(n).data
    w_of = np.empty(n, dtype=int)
    pivot_col = np.full(n, -1)
    for j in range(n):
        live = np.sqrt(np.sum(a[:, j] ** 2, axis=-1)) > thresh
        free = np.flatnonzero(live & (pivot_col < 0))
        if free.size == 0:
            raise SingularMatrixError("oracle: no Bruhat pivot in column")
        piv = free[-1]
        w_of[j] = piv
        pivot_col[piv] = j
        above = np.flatnonzero(live[:piv])
        if above.size:
            c = hamilton(a[above, j], _qinverse(a[piv, j]))
            a[above] -= hamilton(c[:, None], a[piv])
            u_acc[:, piv] += hamilton(u_acc[:, above], c).sum(axis=1)
        below = piv + 1 + np.flatnonzero(live[piv + 1:])
        if below.size:
            jp = pivot_col[below]
            c = hamilton(_qinverse(a[below, jp]), a[below, j])
            a[:, j] -= hamilton(a[:, jp], c).sum(axis=1)
            v_acc[jp, j] = c
    d = QMatrix.zeros(n, n)
    d.data[w_of, w_of] = a[w_of, np.arange(n)]
    return BruhatForm(U=QMatrix(u_acc), D=d, w=Permutation(w_of), V=QMatrix(v_acc))


def row_reduce_oracle(g: QMatrix) -> tuple[np.ndarray, np.ndarray, int]:
    """The Bruhat row reduction of ``[2^-e G | I]`` one column at a time, with the
    pivot found by ``nonzero`` over a boolean mask of free rows and the identity
    placed by index arrays: the reduced ``(n, 2n, 4)`` array, the pivot row of
    each column, and e.  The same arithmetic, in the same order, as the library's
    reduction, which must match it bit for bit."""
    n = g.n_rows
    scaled, e = pow2_scaled(g.data)
    a = np.zeros((n, 2 * n, 4))
    a[:, :n] = scaled
    a[np.arange(n), n + np.arange(n), 0] = 1.0
    z = a.view(complex)
    rows = z.reshape(n, 4 * n)
    thresh = PIVOT_RTOL * np.sqrt(np.sum(scaled * scaled))
    p_chi = np.empty((2, 2 * n, 2), dtype=complex)
    w_of = np.empty(n, dtype=int)
    free = np.ones(n, dtype=bool)
    for j in range(n):
        norm2 = qnorm2(a[:, j])
        live = np.sqrt(norm2) > thresh
        cand = (live & free).nonzero()[0]
        if cand.size == 0:
            raise SingularMatrixError("oracle: no Bruhat pivot in column")
        piv = w_of[j] = cand[-1]
        free[piv] = False
        if piv:
            p_chi[0] = z[piv]
            np.conj(z[piv, :, ::-1], out=p_chi[1])
            p_chi[1, :, 0] *= -1.0
            q_inv = p_chi[:, j].T.conj() / norm2[piv]
            rows[:piv] -= (z[:piv, j] * live[:piv, None]) @ (q_inv @ p_chi.reshape(2, 4 * n))
    return a, w_of, e


def random_multivector(n, grade, rng, nterms=4):
    basis = sp_basis(n)
    combos = list(combinations(range(basis.dim), grade))
    picks = rng.choice(len(combos), size=min(nterms, len(combos)), replace=False)
    return Multivector(n, grade, {combos[i]: float(rng.normal()) for i in picks})


def embed_multivector(p: Multivector, r: int, n: int) -> Multivector:
    """Image of a multivector over sp(2) under the algebra embedding at block r."""
    b2, bn = sp_basis(2), sp_basis(n)

    def shift(name: str) -> str:
        kind, inside = name.split("(")
        inside = inside.rstrip(")")
        if kind == "Dg":
            x, pp = inside.split(";")
            return f"Dg({x};{int(pp) + r})"
        if kind == "E":
            pp, qq = inside.split(",")
            return f"E({int(pp) + r},{int(qq) + r})"
        x, rest = inside.split(";")
        pp, qq = rest.split(",")
        return f"S({x};{int(pp) + r},{int(qq) + r})"

    out = {}
    for t, c in p.coeffs.items():
        img, sign = (), 1
        for idx in t:
            img, s = wedge_tuples(img, (bn.index[shift(b2.names[idx])],))
            sign *= s
        out[img] = out.get(img, 0.0) + sign * c
    return Multivector(n, p.grade, out)


# ---------------------------------------------------------------------------
# Chart geometry on HP^1 one point at a time, on Quaternion objects: the
# per-point algorithm that the batched hp1geom path replaced.  Products of
# matrices use the Hamilton product above.  And the batched Jacobians by
# broadcast quaternion products, which hp1geom's table of monomials replaced.
# ---------------------------------------------------------------------------

def coset_rep_oracle(p: ChartPoint) -> QMatrix:
    c = p.coord
    s = 1.0 / math.sqrt(1.0 + c.norm2())
    if p.chart is Chart.SOUTH:
        rows = [[-conjugate(c) * s, Quaternion(s)], [Quaternion(s), c * s]]
    else:
        rows = [[Quaternion(s), -conjugate(c) * s], [c * s, Quaternion(s)]]
    return from_rows(rows)


def chart_coord_oracle(m: QMatrix, chart: Chart) -> Quaternion:
    """The chart coordinate a^{-1} b of M: ``(a, b) = (M21, M22)`` on the South chart
    and ``(M22, M21)`` on the North."""
    a, b = (m[1, 0], m[1, 1]) if chart is Chart.SOUTH else (m[1, 1], m[1, 0])
    return reciprocal(a) * b


def chart_derivative_oracle(m: QMatrix, mdot: QMatrix, chart: Chart) -> Quaternion:
    """Derivative of the chart coordinate a^{-1} b along a curve with velocity mdot."""
    if chart is Chart.SOUTH:
        a, b, da, db = m[1, 0], m[1, 1], mdot[1, 0], mdot[1, 1]
    else:
        a, b, da, db = m[1, 1], m[1, 0], mdot[1, 1], mdot[1, 0]
    ai = reciprocal(a)
    return -(ai * da * ai * b) + ai * db


def jacobian_oracle(p: ChartPoint, side: str) -> np.ndarray:
    """X -> d/dt chart(exp(tX) k) ("action") or chart(k exp(tX)) ("flow")."""
    m = coset_rep_oracle(p).data
    cols = []
    for bm in sp_basis_oracle(2)[1]:
        left, right = (bm.data, m) if side == "action" else (m, bm.data)
        mdot = QMatrix(hamilton(left[:, :, None], right[None]).sum(axis=1))
        cols.append(chart_derivative_oracle(QMatrix(m), mdot, p.chart).to_array())
    return np.stack(cols, axis=1)


def jacobians_qprod_oracle(chart: Chart, coords: np.ndarray) -> np.ndarray:
    """The ``(m, 2, 4, dim)`` action and flow Jacobians at ``(m, 4)`` coordinates c,
    by broadcast quaternion products: ``(1 + |c|^2) X21`` and, with ``(p, q) = (0, 1)``
    (South) or ``(1, 0)`` (North), ``Xpq + c Xqq - Xpp c - c Xqp c``."""
    x = np.moveaxis(sp_basis(2).data, 0, 2)  # x[i, j]: entry (i, j) of every basis element
    p, q = (0, 1) if chart is Chart.SOUTH else (1, 0)
    c = coords[:, None]
    action = (1.0 + qnorm2(coords))[:, None, None] * x[1, 0]
    flow = x[p, q] + qprod(c, x[q, q]) - qprod(x[p, p], c) - qprod(qprod(c, x[q, p]), c)
    return np.stack([action, flow], axis=1).swapaxes(-1, -2)


def pushforward_oracle(p: ChartPoint, mv: Multivector) -> float:
    jac = jacobian_oracle(p, "action")
    return float(sum(c * np.linalg.det(jac[:, list(t)]) for t, c in mv.coeffs.items()))


def bruhat_field_oracle(p: ChartPoint) -> float:
    """Pushforward of Ad_k Lambda - Lambda, expanded over all 4-subsets."""
    lam = lambda_element(2)
    moved = apply_exterior_oracle(ad_group_oracle(coset_rep_oracle(p)), lam) - lam
    return pushforward_oracle(p, moved)


# ---------------------------------------------------------------------------
# The approximations that closed forms replaced: the matrix exponential by
# scaling and squaring a truncated series, and the leaf differential and the
# Lie derivative on HP^1 by central differences.
# ---------------------------------------------------------------------------

def expm_series_oracle(m: QMatrix) -> QMatrix:
    """exp(X) of any square X: the Taylor series of real_rep(X 2^-s), ||X 2^-s||_F <= 1/2,
    summed until a term's quaternion norm is below 1e-13, then squared s times; free of chi."""
    norm = m.frobenius()
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    x = real_rep(m) * 0.5 ** s
    acc = term = np.eye(len(x))
    for kfac in range(1, 62):
        term = (term @ x) / kfac
        acc = acc + term
        if np.linalg.norm(term) < 2.0 * 1e-13:  # ||real_rep(Y)||_F = 2 ||Y||_F
            break
    for _ in range(s):
        acc = acc @ acc
    return from_real_rep(acc)


def leaf_jacobian_fd_oracle(word, base: np.ndarray, n: int, h: float = 1e-5) -> np.ndarray:
    """(4m, dim sp(n)) central-difference differential of the word map at the
    (m, 4) parameters, right-translated: row a is the sp(n) coordinates of
    (K(p + h e_a) - K(p - h e_a)) / 2h times K(p)*; errs by O(h^2) and eps / h."""
    def at(flat):
        return leaf_point(word, [Quaternion.from_array(q) for q in flat.reshape(-1, 4)], n).matrix

    flat0 = np.asarray(base, dtype=float).reshape(-1)
    k0_inv = at(flat0).conj_transpose()
    rows = []
    for e in np.eye(len(flat0)) * h:
        diff = (at(flat0 + e) - at(flat0 - e)).scale(1.0 / (2 * h))
        rows.append(project_oracle((diff @ k0_inv).data, n))
    return np.array(rows)


def lie_derivative_stencil_oracle(p: ChartPoint, x: Multivector, h: float = 1e-3):
    """(b . grad f, f div b, RHS) of L_{gamma(X)} xi = wedge^4 gamma(ad_X Lambda) at a
    South-chart point, b = J_flow X: the derivatives by the fourth-order central
    difference (8 (g(+h) - g(-h)) - (g(+2h) - g(-2h))) / 12h, which errs by O(h^4)
    and eps / h, and RHS as [X, Lambda] pushed through J_flow term by term."""
    xv = x.as_vector()

    def at(c):
        q = ChartPoint.south(Quaternion.from_array(c))
        return bruhat_field_oracle(q), jacobian_oracle(q, "flow") @ xv

    c0 = p.coord.to_array()
    weights = np.array([8.0, -8.0, -1.0, 1.0]) / (12.0 * h)
    grad_f, div_b = np.zeros(4), 0.0
    for m, e in enumerate(np.eye(4)):
        f, b = zip(*(at(c0 + s * h * e) for s in (1.0, -1.0, 2.0, -2.0)))
        grad_f[m] = weights @ f
        div_b += weights @ np.array(b)[:, m]
    f0, b0 = at(c0)
    jflow = jacobian_oracle(p, "flow")
    rhs = sum(coeff * np.linalg.det(jflow[:, list(t)])
              for t, coeff in schouten_oracle(x, lambda_oracle(2)).coeffs.items())
    return float(b0 @ grad_f), float(f0 * div_b), float(rhs)


# ---------------------------------------------------------------------------
# Words of S_n as first composed: one Permutation per letter folded by @, and
# bubble sort repeated until a pass makes no swap.
# ---------------------------------------------------------------------------

def word_to_permutation_oracle(word, n: int) -> Permutation:
    """s_{r_1} @ ... @ s_{r_m} (0-based r), one transposition per letter."""
    return reduce(lambda a, b: a @ b, [transposition(r, n) for r in word], Permutation(range(n)))


def reduced_word_oracle(w: Permutation) -> list[int]:
    """Swaps of full bubble-sort passes until one makes none, in reverse order."""
    ol, word, changed = list(w.one_line), [], True
    while changed:
        changed = False
        for r in range(w.n - 1):
            if ol[r] > ol[r + 1]:
                ol[r], ol[r + 1] = ol[r + 1], ol[r]
                word.append(r)
                changed = True
    return word[::-1]


def reduced_words(n: int) -> list[list[int]]:
    """Every reduced word (0-based letters) of every element of S_n, the empty one first."""
    words, frontier = [[]], [[]]
    while frontier:
        frontier = [w + [r] for w in frontier for r in range(n - 1)
                    if word_to_permutation(w + [r], n).length() == len(w) + 1]
        words += frontier
    return words


# ---------------------------------------------------------------------------
# Leaf points as first built: each letter's block embedded at rows/columns
# r, r + 1 of the n x n identity, and the whole product formed by matmul.
# ---------------------------------------------------------------------------

def embed_sp2(a: QMatrix, r: int, n: int) -> QMatrix:
    """Embed a 2x2 block at rows/columns {r, r+1} (0-based r), identity elsewhere.

    This is a group homomorphism: embed(A @ B) = embed(A) @ embed(B).
    """
    if a.n_rows != 2 or a.n_cols != 2:
        raise ValueError("embed_sp2 expects a 2x2 matrix")
    if not (0 <= r < n - 1):
        raise ValueError(f"block position {r} out of range for n={n}")
    m = QMatrix.identity(n)
    m.data[r:r + 2, r:r + 2] = a.data
    return m


def leaf_point_oracle(word, params, n: int) -> QMatrix:
    """The product of the embedded k_v blocks of a word, one full n x n matmul per letter."""
    return reduce(lambda m, rv: m @ embed_sp2(coset_rep(ChartPoint.south(rv[1])), rv[0], n),
                  zip(word, params), QMatrix.identity(n))
