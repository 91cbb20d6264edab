from itertools import combinations

import numpy as np
import pytest

from qflag.hmat import QMatrix, expm
from qflag.hp1geom import (
    CHART_EPS,
    RANK_RTOL,
    Chart,
    ChartBoundaryError,
    ChartPoint,
    action_jacobian,
    bruhat_field,
    bruhat_normalization,
    coset_rep,
    flow_jacobian,
    fourvector_rank,
    hamiltonian_field,
    invariant_field,
    lie_derivative_check,
    north_coord,
    pushforward_coeff,
    radial_profile,
    rank_at,
    south_coord,
    _bruhat_coeffs,
    _coset_reps,
    _jacobian_table,
    _jacobians,
    _pushforward,
)
from qflag.liealg import Multivector, ad_group_matrix, sp_basis
from qflag.quat import Quaternion

from util import (
    bruhat_field_oracle,
    coset_rep_oracle,
    from_rows,
    is_symplectic,
    jacobian_oracle,
    jacobians_qprod_oracle,
    lie_derivative_stencil_oracle,
    pushforward_oracle,
    random_multivector,
    random_quaternion,
    random_unit_quaternion,
)


def south(*comps):
    return ChartPoint.south(Quaternion(*comps))


# -- charts and representatives --------------------------------------------

def test_coset_rep_special_points():
    p12 = from_rows([[0, 1], [1, 0]])
    assert (coset_rep(south(0)) - p12).frobenius() == 0.0
    assert (coset_rep(ChartPoint.north(Quaternion())) - QMatrix.identity(2)).frobenius() == 0.0


def test_coset_rep_symplectic_and_chart_consistent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = random_quaternion(rng)
        m = coset_rep(ChartPoint.south(v))
        assert is_symplectic(m, tol=1e-12)
        assert (south_coord(m) - v).norm() <= 1e-12 * max(1.0, v.norm())
        u = random_quaternion(rng)
        m = coset_rep(ChartPoint.north(u))
        assert is_symplectic(m, tol=1e-12)
        assert (north_coord(m) - u).norm() <= 1e-12 * max(1.0, u.norm())


def test_charts_invariant_under_spheroid():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = coset_rep(ChartPoint.south(random_quaternion(rng)))
        sph = QMatrix.diag([random_unit_quaternion(rng), random_unit_quaternion(rng)])
        assert (south_coord(sph @ m) - south_coord(m)).norm() <= 1e-12
        assert (north_coord(sph @ m) - north_coord(m)).norm() <= 1e-12


def test_chart_transition_v_equals_u_inverse():
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = random_quaternion(rng)
        if v.norm() < 0.2:
            continue
        m = coset_rep(ChartPoint.south(v))
        assert (north_coord(m) - v.inverse()).norm() <= 1e-12


def test_chart_boundary_errors():
    with pytest.raises(ChartBoundaryError):
        south_coord(QMatrix.identity(2))
    with pytest.raises(ChartBoundaryError):
        north_coord(from_rows([[0, 1], [1, 0]]))


# -- jacobians and pushforward ----------------------------------------------

def test_action_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    b = sp_basis(2)
    h = 1e-6
    for _ in range(5):
        p = ChartPoint.south(random_quaternion(rng))
        m = coset_rep(p)
        jac = action_jacobian(p)
        assert jac.shape == (4, 10)
        for c in range(b.dim):
            plus = south_coord(expm(QMatrix(b.data[c]).scale(h)) @ m)
            minus = south_coord(expm(QMatrix(b.data[c]).scale(-h)) @ m)
            fd = (plus - minus).to_array() / (2 * h)
            assert np.max(np.abs(fd - jac[:, c])) <= 1e-7


def test_flow_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    b = sp_basis(2)
    h = 1e-6
    p = ChartPoint.south(random_quaternion(rng))
    m = coset_rep(p)
    jac = flow_jacobian(p)
    for c in range(b.dim):
        plus = south_coord(m @ expm(QMatrix(b.data[c]).scale(h)))
        minus = south_coord(m @ expm(QMatrix(b.data[c]).scale(-h)))
        fd = (plus - minus).to_array() / (2 * h)
        assert np.max(np.abs(fd - jac[:, c])) <= 1e-7


def test_action_jacobian_has_rank_four():
    rng = np.random.default_rng(5)
    for _ in range(5):
        jac = action_jacobian(ChartPoint.south(random_quaternion(rng)))
        sv = np.linalg.svd(jac, compute_uv=False)
        assert np.sum(sv > 1e-9 * sv[0]) == 4


def test_pushforward_linearity_and_kernel():
    rng = np.random.default_rng(6)
    p = ChartPoint.south(random_quaternion(rng))
    a = random_multivector(2, 4, rng)
    b = random_multivector(2, 4, rng)
    assert pushforward_coeff(p, Multivector.zero(2, 4)) == 0.0
    lhs = pushforward_coeff(p, a + b.scale(2.5))
    rhs = pushforward_coeff(p, a) + 2.5 * pushforward_coeff(p, b)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    # a decomposable with a factor in ker(J) pushes to zero
    jac = action_jacobian(p)
    null = np.linalg.svd(jac)[2][-1]  # right-singular vector, singular value 0
    x = Multivector(2, 1, {(int(i),): float(null[i]) for i in range(10)})
    basis = sp_basis(2)
    p4 = x.wedge(basis.element("E(1,2)")).wedge(
        basis.element("S(i;1,2)")).wedge(basis.element("S(j;1,2)"))
    assert abs(pushforward_coeff(p, p4)) <= 1e-9


def test_pushforward_of_shuffled_keys_equals_sorted():
    rng = np.random.default_rng(16)
    p = ChartPoint.south(random_quaternion(rng))
    mv = random_multivector(2, 4, rng, nterms=8)
    shuffled = {(0, 0, 1, 2): 5.0}  # a repeated factor: zero
    for t, c in mv.coeffs.items():
        perm = rng.permutation(4)
        shuffled[tuple(t[i] for i in perm)] = c * round(np.linalg.det(np.eye(4)[perm]))
    assert pushforward_coeff(p, Multivector(2, 4, shuffled)) == pushforward_coeff(p, mv)


# -- the batched path against the per-point oracle ----------------------------

def rel_err(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / max(1.0, np.max(np.abs(want))))


@pytest.mark.parametrize("chart", list(Chart))
def test_batch_of_one_matches_oracle(chart):
    rng = np.random.default_rng(30)
    for _ in range(5):
        q = random_quaternion(rng)
        p = ChartPoint(chart, q * (float(rng.uniform(0.1, 3.0)) / q.norm()))
        assert rel_err(coset_rep(p).data, coset_rep_oracle(p).data) <= 1e-12
        assert rel_err(action_jacobian(p), jacobian_oracle(p, "action")) <= 1e-12
        assert rel_err(flow_jacobian(p), jacobian_oracle(p, "flow")) <= 1e-12
        mv = random_multivector(2, 4, rng, nterms=6)
        assert rel_err(pushforward_coeff(p, mv), pushforward_oracle(p, mv)) <= 1e-12
        want = bruhat_field_oracle(p)
        assert abs(bruhat_field(p).coeff - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("chart", list(Chart))
def test_batch_matches_oracle_row_by_row(chart):
    rng = np.random.default_rng(31)
    dirs = rng.normal(size=(12, 4))
    coords = dirs * (rng.uniform(0.1, 3.0, size=12) / np.linalg.norm(dirs, axis=1))[:, None]
    points = [ChartPoint(chart, Quaternion.from_array(c)) for c in coords]
    reps = _coset_reps(chart, coords)
    jac = _jacobians(chart, coords)
    action, flow = jac[:, 0], jac[:, 1]
    coeffs = _bruhat_coeffs(chart, coords)
    mv = random_multivector(2, 4, rng, nterms=6)
    pushed = _pushforward(action, mv)
    assert reps.shape == (12, 2, 2, 4) and jac.shape == (12, 2, 4, 10)
    for r, p in enumerate(points):
        assert rel_err(reps[r], coset_rep_oracle(p).data) <= 1e-12
        assert rel_err(action[r], jacobian_oracle(p, "action")) <= 1e-12
        assert rel_err(flow[r], jacobian_oracle(p, "flow")) <= 1e-12
        assert rel_err(pushed[r], pushforward_oracle(p, mv)) <= 1e-12
        want = bruhat_field_oracle(p)
        assert abs(coeffs[r] - want) <= 1e-12 * abs(want)
    # the closed-form Jacobians alone, over eight decades of rho: the table's
    # integer coefficients give the quaternion products to the last bit or so
    far = rng.normal(size=(33, 4))
    far *= (np.logspace(-4, 4, 33) / np.linalg.norm(far, axis=1))[:, None]
    assert set(np.unique(_jacobian_table(chart))) <= {-1.0, 0.0, 1.0}
    for c, jac, want in zip(far, _jacobians(chart, far), jacobians_qprod_oracle(chart, far)):
        p = ChartPoint(chart, Quaternion.from_array(c))
        assert np.abs(jac - want).max() <= 1e-15 * np.abs(want).max()
        assert rel_err(jac[0], jacobian_oracle(p, "action")) <= 1e-12
        assert rel_err(jac[1], jacobian_oracle(p, "flow")) <= 1e-12


@pytest.mark.parametrize("chart", list(Chart))
def test_flow_jacobian_is_action_jacobian_times_ad(chart):
    # exp(t Ad_k X) k = k exp(tX), so J Ad_k = J_flow; Ad_k from the group, not the chart
    rng = np.random.default_rng(32)
    dirs = rng.normal(size=(64, 4))
    coords = dirs * (np.logspace(-2, 2, 64) / np.linalg.norm(dirs, axis=1))[:, None]
    reps = _coset_reps(chart, coords)
    jac = _jacobians(chart, coords)
    for r in range(len(reps)):
        via_ad = jac[r, 0] @ ad_group_matrix(QMatrix(reps[r]))
        assert rel_err(via_ad, jac[r, 1]) <= 1e-13
    # at the North pole k = I, and the two translations agree exactly
    pole = np.zeros((1, 4))
    jac = _jacobians(Chart.NORTH, pole)
    assert np.array_equal(jac[0, 0], jac[0, 1])
    assert _bruhat_coeffs(Chart.NORTH, pole)[0] == 0.0


def test_chart_eps_edge_fails_the_whole_batch():
    # On coset_rep the North chart divides by |M22| = 1/sqrt(1 + rho^2); put
    # one point just inside CHART_EPS and one just outside.
    direction = np.array([0.5, -0.5, 0.5, 0.5])
    rhos = [np.sqrt(1.0 / (CHART_EPS * f) ** 2 - 1.0) for f in (1.0 + 1e-6, 1.0 - 1e-6)]
    coords = np.array([rho * direction for rho in rhos])
    reps = _coset_reps(Chart.NORTH, coords)
    m22 = np.linalg.norm(reps[:, 1, 1], axis=1)
    assert m22[0] > CHART_EPS >= m22[1]
    inside = _bruhat_coeffs(Chart.NORTH, coords[:1])
    assert np.isfinite(inside).all() and inside[0] != 0.0
    assert np.isfinite(_jacobians(Chart.NORTH, coords[:1])).all()
    with pytest.raises(ChartBoundaryError):
        _jacobians(Chart.NORTH, coords)
    with pytest.raises(ChartBoundaryError):
        _bruhat_coeffs(Chart.NORTH, coords)
    with pytest.raises(ChartBoundaryError):
        rank_at(ChartPoint.north(Quaternion.from_array(coords[1])))
    # lie_derivative_check reads the Jacobians at c and c +- e_m, |c +- e_m| <= rho + 1,
    # and on the South chart k's denominator is the same s
    inner, outer = (ChartPoint.south(Quaternion.from_array(c)) for c in coords)
    x = Multivector(2, 1, {(0,): 1.0})
    assert np.isfinite(lie_derivative_check(inner, x))
    with pytest.raises(ChartBoundaryError):
        lie_derivative_check(outer, x)
    # a profile holding one point beyond the edge yields no row at all
    rows = []
    with pytest.raises(ChartBoundaryError):
        for row in radial_profile([1.0, rhos[1]], directions=2, seed=0):
            rows.append(row)
    assert rows == []


# -- the Bruhat field --------------------------------------------------------

def test_field_vanishes_at_north_pole():
    # exactly: rank_at(north) == 0 relies on it, and fourvector_rank counts any nonzero f
    sample = bruhat_field(ChartPoint.north(Quaternion()))
    assert sample.coeff == 0.0
    coords = np.array([[0.5, 0.1, -0.2, 0.3], [0.0, 0.0, 0.0, 0.0]])
    coeffs = _bruhat_coeffs(Chart.NORTH, coords)
    assert coeffs[1] == 0.0 and coeffs[0] != 0.0


def test_invariant_field_values():
    assert invariant_field(south(0)).coeff == 1.0
    assert invariant_field(south(1.0)).coeff == 16.0
    with pytest.raises(ValueError):
        invariant_field(ChartPoint.north(Quaternion()))


@pytest.mark.parametrize("make, match", [
    (lambda: pushforward_coeff(south(1.0), Multivector(2, 3, {(0, 1, 2): 1.0})),
     "grade-4 multivector over sp"),
    (lambda: pushforward_coeff(south(1.0), Multivector(3, 4, {(0, 1, 2, 3): 1.0})),
     "grade-4 multivector over sp"),
    (lambda: lie_derivative_check(ChartPoint.north(Quaternion()), Multivector(2, 1, {(0,): 1.0})),
     "South chart"),
], ids=["pushforward-grade", "pushforward-n", "lie_derivative-north"])
def test_chart_functions_reject_wrong_input(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_bruhat_normalization_is_the_field_at_the_south_origin():
    assert bruhat_normalization() == bruhat_field(ChartPoint.south(Quaternion())).coeff
    assert bruhat_normalization() == pytest.approx(2.0, abs=1e-15)


def test_ratio_law_spot_values():
    norm = bruhat_normalization()
    for rho, expect in [(1.0, 0.5), (2.0, 49.0 / 125.0)]:
        fb = bruhat_field(south(0, rho)).coeff / norm
        fi = invariant_field(south(0, rho)).coeff
        assert fb / fi == pytest.approx(expect, rel=1e-6)


def test_radial_profile_rows():
    rows = list(radial_profile([0.5, 1.0], directions=3, seed=0))
    assert len(rows) == 6
    assert [r["rho"] for r in rows] == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    for r in rows:
        assert abs(r["ratio"] - r["expected_ratio"]) == r["abs_err"]
        assert r["abs_err"] <= 1e-6 * r["expected_ratio"]


# -- ranks -------------------------------------------------------------------

def brute_force_rank(coeffs, dim, cutoff=1e-9):
    """Independent oracle: dense antisymmetric 4-tensor, contract 3 slots."""
    from itertools import permutations as perms

    t4 = np.zeros((dim,) * 4)
    for t, c in coeffs.items():
        for perm in perms(range(4)):
            sgn = 1.0
            for a in range(4):
                for b in range(a + 1, 4):
                    if perm[a] > perm[b]:
                        sgn = -sgn
            t4[tuple(t[i] for i in perm)] = sgn * c
    rows = []
    for i, j, k in combinations(range(dim), 3):
        rows.append(t4[i, j, k, :])
    mat = np.stack(rows)
    if not np.any(mat):
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > cutoff * sv[0]))


@pytest.mark.parametrize("dim", [8, 12])
def test_fourvector_rank_matches_oracle(dim):
    rng = np.random.default_rng(dim)
    combos = list(combinations(range(dim), 4))
    for _ in range(10):
        picks = rng.choice(len(combos), size=3, replace=False)
        coeffs = {combos[i]: float(rng.normal()) for i in picks}
        assert fourvector_rank(coeffs, dim) == brute_force_rank(coeffs, dim)


@pytest.mark.parametrize("dim", [8, 12])
def test_fourvector_rank_divisible_by_four(dim):
    rng = np.random.default_rng(20 + dim)
    combos = list(combinations(range(dim), 4))
    # generic dense 4-vectors have full rank (= dim, divisible by 4)
    for _ in range(5):
        coeffs = {t: float(rng.normal()) for t in combos}
        assert fourvector_rank(coeffs, dim) == dim
    # sums of decomposables on disjoint index blocks have rank 4k
    for k in range(dim // 4 + 1):
        coeffs = {tuple(range(4 * b, 4 * b + 4)): float(rng.normal()) + 2.0
                  for b in range(k)}
        assert fourvector_rank(coeffs, dim) == 4 * k
    assert fourvector_rank({}, dim) == 0


@pytest.mark.parametrize("factor, rank", [(1.001, 8), (0.999, 4)])
def test_fourvector_rank_at_rank_rtol_edge(factor, rank):
    # the contraction matrix has singular values 1 and delta, four of each
    delta = factor * RANK_RTOL
    assert fourvector_rank({(0, 1, 2, 3): 1.0, (4, 5, 6, 7): delta}, 8) == rank


def test_fourvector_rank_on_keys_that_are_not_strictly_increasing():
    assert fourvector_rank({(1, 0, 2, 3): 1.0}, 4) == 4
    assert fourvector_rank({(1, 0, 2, 3): 1.0, (0, 1, 2, 3): 1.0}, 4) == 0
    assert fourvector_rank({(0, 0, 1, 2): 1.0}, 4) == 0
    for bad in ({(0, 1, 2): 1.0, (0, 1, 2, 3, 4): 1.0}, {(0, 1, 2, 5): 1.0}):
        with pytest.raises(ValueError):
            fourvector_rank(bad, 5)


def test_rank_at():
    assert rank_at(ChartPoint.north(Quaternion())) == 0
    rng = np.random.default_rng(13)
    for _ in range(5):
        assert rank_at(ChartPoint.south(random_quaternion(rng))) == 4


# -- hamiltonian triples -----------------------------------------------------

def test_hamiltonian_field():
    rng = np.random.default_rng(14)
    p = ChartPoint.south(random_quaternion(rng))
    f = bruhat_field(p).coeff
    e = np.eye(4)
    assert np.allclose(hamiltonian_field(p, e[0], e[1], e[2]), f * e[3])
    assert np.max(np.abs(hamiltonian_field(p, np.zeros(4), e[1], e[2]))) == 0.0
    assert np.max(np.abs(hamiltonian_field(p, e[1], e[1], e[2]))) == 0.0
    # alternating: swapping two arguments flips the sign
    a, b, c = rng.normal(size=(3, 4))
    assert np.allclose(hamiltonian_field(p, a, b, c), -hamiltonian_field(p, b, a, c))


# -- Lie derivative ----------------------------------------------------------

def test_lie_derivative_trivial_cases():
    p = south(0.2, 0.6, -0.1, 0.3)
    assert lie_derivative_check(p, Multivector.zero(2, 1)) <= 1e-12
    b = sp_basis(2)
    sph = Multivector(2, 1, {(int(b.spheroid_indices[0]),): 1.0})
    assert lie_derivative_check(p, sph) <= 1e-12


def test_lie_derivative_fourth_order_on_criterion_10_pairs():
    # the (p, X) pairs of acceptance criterion 10, whose bound stays 1e-3: the
    # oracle's fourth-order stencil holds the identity to 1e-8 there, and the
    # closed form to rounding of the largest of its terms
    rng = np.random.default_rng(10)
    for _ in range(10):
        v = random_quaternion(rng)
        p = ChartPoint.south(v * (float(rng.uniform(0.3, 1.5)) / v.norm()))
        x = random_multivector(2, 1, rng, nterms=4)
        b_grad_f, f_div_b, rhs = lie_derivative_stencil_oracle(p, x)
        assert abs(b_grad_f - f_div_b - rhs) <= 1e-8
        assert lie_derivative_check(p, x) <= 1e-13 * max(abs(b_grad_f), abs(f_div_b), abs(rhs))


@pytest.mark.parametrize("rho", [10.0, 30.0, 100.0])
def test_lie_derivative_is_exact_far_from_the_origin(rho):
    # The terms grow as rho^7 and a difference step's error with them; the closed
    # form's residual is rounding of the largest term (|RHS| alone can vanish).
    # X is generic: on the diagonal torus all three terms vanish identically.
    rng = np.random.default_rng(17)
    for _ in range(3):
        v = random_quaternion(rng)
        p = ChartPoint.south(v * (rho / v.norm()))
        x = Multivector(2, 1, {(i,): c for i, c in enumerate(rng.normal(size=10))})
        scale = max(map(abs, lie_derivative_stencil_oracle(p, x)))
        assert lie_derivative_check(p, x) <= 1e-9 * scale


def test_lie_derivative_random():
    rng = np.random.default_rng(15)
    v = random_quaternion(rng)
    v = v * (0.7 / v.norm())
    x = random_multivector(2, 1, rng, nterms=4)
    assert lie_derivative_check(ChartPoint.south(v), x) <= 1e-12
