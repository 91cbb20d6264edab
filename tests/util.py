"""Shared helpers for the test suite: random factor builders and independent
oracles implemented separately from the library code they check."""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from qflag.decomp import bruhat
from qflag.hmat import Permutation, QMatrix
from qflag.hp1geom import Chart, ChartPoint
from qflag.liealg import Multivector, lambda_element, sp_basis
from qflag.quat import Quaternion


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


def random_bruhat_factors(n, rng):
    """Valid (U, D, w, V) with moderate conditioning, and the product G."""
    u = random_unit_upper(n, rng)
    d_entries = []
    for _ in range(n):
        q = random_quaternion(rng)
        d_entries.append(q * (float(rng.uniform(0.5, 2.0)) / q.norm()))
    d = QMatrix.diag(d_entries)
    w = Permutation(rng.permutation(n))
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


def wedge_oracle(p: Multivector, q: Multivector) -> Multivector:
    out = {}
    for t1, c1 in p.coeffs.items():
        for t2, c2 in q.coeffs.items():
            t, s = wedge_tuples(t1, t2)
            if s:
                out[t] = out.get(t, 0.0) + s * c1 * c2
    return Multivector(p.n, p.grade + q.grade, out)


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


def struct_oracle(n: int) -> np.ndarray:
    """Structure constants from one QMatrix commutator per pair of basis elements."""
    basis = sp_basis(n)
    N = basis.dim
    tab = np.zeros((N, N, N))
    for a in range(N):
        ma = basis.mats[a]
        for b in range(a + 1, N):
            mb = basis.mats[b]
            coeffs = basis.project(ma @ mb - mb @ ma)
            coeffs[np.abs(coeffs) < 1e-14] = 0.0
            tab[a, b] = coeffs
            tab[b, a] = -coeffs
    return tab


def four_bracket_oracle(zs, n: int) -> np.ndarray:
    """<z1^z2^z3^z4, ad_X Lambda> for each basis element X, one at a time."""
    basis = sp_basis(n)
    lam = lambda_element(n)
    zmat = np.stack([z.coeffs for z in zs])
    out = np.zeros(basis.dim)
    for c in range(basis.dim):
        dxi = leibniz_oracle(basis.ad_matrix(np.eye(basis.dim)[c]), lam)
        out[c] = sum(coeff * float(np.linalg.det(zmat[:, list(t)]))
                     for t, coeff in dxi.coeffs.items())
    return out


def ad_group_oracle(g: QMatrix) -> np.ndarray:
    """Matrix of Ad_g on the basis, from Hamilton products g B_c g*."""
    basis = sp_basis(g.n_rows)
    gstar = g.conj_transpose().data
    cols = []
    for m in basis.mats:
        gb = hamilton(g.data[:, :, None], m.data[None, :, :]).sum(axis=1)
        cols.append(basis.project(QMatrix(hamilton(gb[:, :, None], gstar[None]).sum(axis=1))))
    return np.stack(cols, axis=1)


def bruhat_ddet(g: QMatrix) -> float:
    """Dieudonne determinant as the product of |d_i| over the Bruhat diagonal."""
    return float(np.prod([q.norm() for q in bruhat(g).diagonal()]))


def max_coeff_diff(p: Multivector, q: Multivector) -> float:
    """Largest coefficient difference, over the union of the terms."""
    return max((abs(p.coeffs.get(t, 0.0) - q.coeffs.get(t, 0.0))
                for t in set(p.coeffs) | set(q.coeffs)), default=0.0)


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
# complex adjoint replaced.  They use their own Hamilton product, so they share
# no arithmetic with the library's kernels.
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


def _qinverse(q):
    out = -q / np.sum(q * q)
    out[0] = -out[0]
    return out


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
                xc = k[:, i] * np.array([1.0, -1.0, -1.0, -1.0])
                coef = hamilton(xc, k[:, j]).sum(axis=0)
                k[:, j] -= hamilton(k[:, i], coef)
                t[i, j] += coef
        r = np.sqrt(np.sum(k[:, j] ** 2))
        k[:, j] /= r
        t[j, j, 0] = r
    r = t[np.arange(n), np.arange(n), 0]
    rr = QMatrix.diag([float(x) for x in r])
    return QMatrix(k), rr, QMatrix(t / r[:, None, None])


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
# matrices use the Hamilton product above.
# ---------------------------------------------------------------------------

def coset_rep_oracle(p: ChartPoint) -> QMatrix:
    c = p.coord
    s = 1.0 / math.sqrt(1.0 + c.norm2())
    if p.chart is Chart.SOUTH:
        rows = [[-c.conj() * s, Quaternion(s)], [Quaternion(s), c * s]]
    else:
        rows = [[Quaternion(s), -c.conj() * s], [c * s, Quaternion(s)]]
    return QMatrix.from_rows(rows)


def chart_derivative_oracle(m: QMatrix, mdot: QMatrix, chart: Chart) -> Quaternion:
    """Derivative of the chart coordinate a^{-1} b along a curve with velocity mdot."""
    if chart is Chart.SOUTH:
        a, b, da, db = m[1, 0], m[1, 1], mdot[1, 0], mdot[1, 1]
    else:
        a, b, da, db = m[1, 1], m[1, 0], mdot[1, 1], mdot[1, 0]
    ai = a.inverse()
    return -(ai * da * ai * b) + ai * db


def jacobian_oracle(p: ChartPoint, side: str) -> np.ndarray:
    """X -> d/dt chart(exp(tX) k) ("action") or chart(k exp(tX)) ("flow")."""
    m = coset_rep_oracle(p).data
    cols = []
    for bm in sp_basis(2).mats:
        left, right = (bm.data, m) if side == "action" else (m, bm.data)
        mdot = QMatrix(hamilton(left[:, :, None], right[None]).sum(axis=1))
        cols.append(chart_derivative_oracle(QMatrix(m), mdot, p.chart).to_array())
    return np.stack(cols, axis=1)


def pushforward_oracle(p: ChartPoint, mv: Multivector) -> float:
    jac = jacobian_oracle(p, "action")
    return float(sum(c * np.linalg.det(jac[:, list(t)]) for t, c in mv.coeffs.items()))


def bruhat_field_oracle(p: ChartPoint) -> float:
    """Pushforward of Ad_k Lambda - Lambda, expanded over all 4-subsets."""
    lam = lambda_element(2)
    moved = apply_exterior_oracle(ad_group_oracle(coset_rep_oracle(p)), lam) - lam
    return pushforward_oracle(p, moved)
