import json
from itertools import combinations

import numpy as np
import pytest

from qflag.hmat import QMatrix, expm, random_symplectic
from qflag.liealg import (
    DualVector,
    Multivector,
    ad_group,
    ad_group_matrix,
    ad_multivector,
    apply_exterior,
    four_bracket,
    intrinsic_derivative,
    lambda_element,
    lie_bracket,
    schouten,
    sp_basis,
)
from qflag.quat import Quaternion

from util import (
    ad_group_oracle,
    apply_exterior_laplace,
    apply_exterior_oracle,
    four_bracket_oracle,
    leibniz_oracle,
    max_coeff_diff,
    random_multivector,
    random_unit_quaternion,
    schouten_oracle,
    struct_oracle,
    wedge_oracle,
    wedge_tuples,
)

UNITS = ("i", "j", "k")

# unit multiplication table: UPROD[x][y] = (sign, unit) with x*y = sign*unit
UPROD = {
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}


def basis_mv(n):
    b = sp_basis(n)

    def E():
        return b.element("E(1,2)")

    def S(x):
        return b.element(f"S({x};1,2)")

    def H(x):
        return b.element(f"Dg({x};1)") - b.element(f"Dg({x};2)")

    def M(x):
        return b.element(f"Dg({x};1)") + b.element(f"Dg({x};2)")

    return E, S, H, M


# -- basis ------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_dimension_and_antihermiticity(n):
    b = sp_basis(n)
    assert b.dim == n * (2 * n + 1)
    for m in b.mats:
        assert (m + m.conj_transpose()).frobenius() == 0.0
    assert len(b.spheroid_indices) == 3 * n


@pytest.mark.parametrize("n", [2, 3])
def test_projection_is_exact_on_basis(n):
    b = sp_basis(n)
    for c, name in enumerate(b.names):
        coords = b.project(b.mats[c])
        expect = np.zeros(b.dim)
        expect[c] = 1.0
        assert np.array_equal(coords, expect)
        assert (b.matrix_of(coords) - b.mats[c]).frobenius() == 0.0


# -- the full E / S_x / H_x / M_x commutator table ---------------------------

def test_commutator_table_exact():
    E, S, H, M = basis_mv(2)

    def expect_m(x, y):
        if x == y:
            return Multivector.zero(2, 1)
        sgn, u = UPROD[(x, y)]
        return M(u).scale(2.0 * sgn)

    for x in UNITS:
        assert (lie_bracket(M(x), E()) - Multivector.zero(2, 1)).max_abs() == 0.0
        assert (lie_bracket(H(x), E()) - S(x).scale(2.0)).max_abs() == 0.0
        assert (lie_bracket(E(), S(x)) - H(x).scale(2.0)).max_abs() == 0.0
        assert (lie_bracket(S(x), E()) - H(x).scale(-2.0)).max_abs() == 0.0
        for y in UNITS:
            assert (lie_bracket(M(x), M(y)) - expect_m(x, y)).max_abs() == 0.0
            assert (lie_bracket(H(x), H(y)) - expect_m(x, y)).max_abs() == 0.0
            assert (lie_bracket(S(x), S(y)) - expect_m(x, y)).max_abs() == 0.0
            if x == y:
                assert (lie_bracket(H(x), S(y)) - E().scale(-2.0)).max_abs() == 0.0
                assert (lie_bracket(S(x), H(y)) - E().scale(2.0)).max_abs() == 0.0
                assert lie_bracket(S(x), M(y)).max_abs() == 0.0
                assert lie_bracket(H(x), M(y)).max_abs() == 0.0
            else:
                sgn, u = UPROD[(x, y)]
                assert lie_bracket(S(x), H(y)).max_abs() == 0.0
                assert (lie_bracket(S(x), M(y)) - S(u).scale(2.0 * sgn)).max_abs() == 0.0
                assert (lie_bracket(H(x), M(y)) - H(u).scale(2.0 * sgn)).max_abs() == 0.0


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(0)
    b = sp_basis(3)
    for _ in range(10):
        x, y, z = (random_multivector(3, 1, rng, nterms=3) for _ in range(3))
        assert (lie_bracket(x, y) + lie_bracket(y, x)).max_abs() <= 1e-12
        jac = (lie_bracket(x, lie_bracket(y, z))
               + lie_bracket(y, lie_bracket(z, x))
               + lie_bracket(z, lie_bracket(x, y)))
        assert jac.max_abs() <= 1e-10
        # bracket agrees with the matrix commutator
        mx, my = b.matrix_of(x.as_vector()), b.matrix_of(y.as_vector())
        comm = mx @ my - my @ mx
        assert np.max(np.abs(lie_bracket(x, y).as_vector() - b.project(comm))) <= 1e-12


# -- multivectors -----------------------------------------------------------

def test_wedge_tuples_signs():
    assert wedge_tuples((0, 2), (1,)) == ((0, 1, 2), -1)
    assert wedge_tuples((1,), (0, 2)) == ((0, 1, 2), -1)
    assert wedge_tuples((0,), (1, 2)) == ((0, 1, 2), 1)
    assert wedge_tuples((0, 1), (1, 2)) == ((), 0)
    assert wedge_tuples((), (3, 4)) == ((3, 4), 1)


def test_wedge_anticommutes_and_kills_repeats():
    rng = np.random.default_rng(1)
    a = random_multivector(2, 1, rng, nterms=5)
    b = random_multivector(2, 2, rng, nterms=5)
    assert (a.wedge(b) - b.wedge(a).scale((-1.0) ** (1 * 2))).max_abs() <= 1e-12
    lam = lambda_element(2)
    assert lam.wedge(lam).max_abs() == 0.0  # repeated factors


def test_sums_prune_cancelled_terms():
    rng = np.random.default_rng(13)
    p = random_multivector(3, 2, rng, nterms=6)
    assert (p - p).coeffs == {} and (p + p.scale(-1.0)).coeffs == {}
    q = Multivector(3, 2, {t: c + 1e-15 for t, c in p.coeffs.items()})
    assert (q - p).coeffs == {}


def test_multivector_json_round_trip():
    rng = np.random.default_rng(2)
    p = random_multivector(3, 3, rng, nterms=6)
    p2 = Multivector.from_json(json.loads(json.dumps(p.to_json())))
    assert (p - p2).max_abs() == 0.0
    # unsorted names pick up the permutation sign
    b = sp_basis(2)
    obj = {"n": 2, "grade": 2,
           "terms": [{"idx": [b.names[1], b.names[0]], "c": 1.0}]}
    q = Multivector.from_json(obj)
    assert q.coeffs == {(0, 1): -1.0}


@pytest.mark.parametrize("idx, match", [
    (["E(1,2)", "E(1,2)"], "repeated basis element"),
    (["E(1,2)"], "1 factors, grade 2"),
    (["E(1,2)", "S(i;1,2)", "S(j;1,2)"], "3 factors, grade 2"),
    (["E(1,2)", "X(1,2)"], "unknown basis element"),
])
def test_multivector_json_rejects_malformed_terms(idx, match):
    obj = {"n": 2, "grade": 2, "terms": [{"idx": ["E(1,2)", "S(k;1,2)"], "c": 1.0},
                                         {"idx": idx, "c": 2.0}]}
    with pytest.raises(ValueError, match=match) as err:
        Multivector.from_json(obj)
    assert str(idx) in str(err.value)


def test_lambda_element_structure():
    lam2 = lambda_element(2)
    b = sp_basis(2)
    t = tuple(sorted(b.index[nm] for nm in ("E(1,2)", "S(i;1,2)", "S(j;1,2)", "S(k;1,2)")))
    assert lam2.coeffs == {t: 1.0}
    assert len(lambda_element(3).coeffs) == 3
    assert all(c == 1.0 for c in lambda_element(4).coeffs.values())
    with pytest.raises(ValueError):
        lambda_element(1)


# -- Schouten bracket -------------------------------------------------------

def test_schouten_reduces_to_lie_bracket():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_multivector(2, 1, rng, nterms=3)
        y = random_multivector(2, 1, rng, nterms=3)
        assert (schouten(x, y) - lie_bracket(x, y)).max_abs() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_schouten_matches_independent_oracle(n):
    rng = np.random.default_rng(4 + n)
    for _ in range(15):
        p, q = (int(v) for v in rng.integers(1, 5, size=2))
        P = random_multivector(n, p, rng)
        Q = random_multivector(n, q, rng)
        assert (schouten(P, Q) - schouten_oracle(P, Q)).max_abs() <= 1e-12


def test_schouten_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q, r = (int(v) for v in rng.integers(1, 5, size=3))
        P, Q, R = (random_multivector(2, g, rng) for g in (p, q, r))
        anti = schouten(P, Q) - schouten(Q, P).scale((-1.0) ** (p * q))
        assert anti.max_abs() <= 1e-10
        leib = (schouten(P, Q.wedge(R)) - schouten(P, Q).wedge(R)
                - Q.wedge(schouten(P, R)).scale((-1.0) ** (p * q + q)))
        assert leib.max_abs() <= 1e-10
        jac = (schouten(P, schouten(Q, R)).scale((-1.0) ** (p * (r - 1)))
               + schouten(Q, schouten(R, P)).scale((-1.0) ** (q * (p - 1)))
               + schouten(R, schouten(P, Q)).scale((-1.0) ** (r * (q - 1))))
        assert jac.max_abs() <= 1e-10


def test_lambda_self_bracket_n2_vanishes():
    lam = lambda_element(2)
    assert schouten(lam, lam).max_abs() <= 1e-12


def test_lambda_self_bracket_n3_regression():
    lam = lambda_element(3)
    br = schouten(lam, lam)
    # frozen regression value, first computed with schouten_oracle
    assert br.max_abs() == pytest.approx(2.0, abs=1e-12)
    assert len(br.coeffs) == 48
    assert (br - schouten_oracle(lam, lam)).max_abs() <= 1e-12


# -- adjoint actions --------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_spheroid_annihilates_lambda(n):
    rng = np.random.default_rng(6 + n)
    b = sp_basis(n)
    lam = lambda_element(n)
    for _ in range(10):
        coeffs = {(int(i),): float(rng.normal()) for i in b.spheroid_indices}
        x = Multivector(n, 1, coeffs)
        assert ad_multivector(x, lam).max_abs() <= 1e-12
        assert intrinsic_derivative(x).max_abs() <= 1e-12


def test_ad_multivector_hand_examples():
    E, S, H, M = basis_mv(2)
    lam = lambda_element(2)
    assert ad_multivector(H("i"), lam).max_abs() == 0.0
    # [E, S_i ^ S_j] = [E,S_i]^S_j + S_i^[E,S_j] = 2 H_i ^ S_j + 2 S_i ^ H_j
    got = ad_multivector(E(), S("i").wedge(S("j")))
    expect = (H("i").wedge(S("j")) + S("i").wedge(H("j"))).scale(2.0)
    assert (got - expect).max_abs() == 0.0
    assert ad_multivector(Multivector.zero(2, 1), lam).max_abs() == 0.0


def test_intrinsic_derivative_matches_finite_difference():
    rng = np.random.default_rng(8)
    b = sp_basis(2)
    lam = lambda_element(2)
    t = 1e-5
    for _ in range(5):
        x = random_multivector(2, 1, rng, nterms=4)
        x = x.scale(1.0 / float(np.linalg.norm(x.as_vector())))
        g = expm(b.matrix_of(x.as_vector()).scale(t))
        fd = (ad_group(g, lam, tol=1e-6) - lam).scale(1.0 / t)
        assert (fd - intrinsic_derivative(x)).max_abs() <= 1e-4


def test_four_bracket():
    b = sp_basis(2)
    z = [DualVector.basis_dual(nm, 2)
         for nm in ("E(1,2)", "S(i;1,2)", "S(j;1,2)", "S(k;1,2)")]
    # duplicated covector arguments annihilate
    assert np.max(np.abs(four_bracket(z[0], z[0], z[1], z[2]).coeffs)) == 0.0
    out = four_bracket(*z)
    lam_tuple = next(iter(lambda_element(2).coeffs))
    for c, name in enumerate(b.names):
        dxi = intrinsic_derivative(b.element(name))
        assert out.coeffs[c] == pytest.approx(dxi.coeffs.get(lam_tuple, 0.0), abs=1e-12)
    # spheroid pairing vanishes
    for i in b.spheroid_indices:
        assert abs(out.coeffs[i]) <= 1e-12


def test_ad_group_basic():
    rng = np.random.default_rng(9)
    lam = lambda_element(2)
    p = random_multivector(2, 3, rng)
    assert (ad_group(QMatrix.identity(2), p) - p).max_abs() <= 1e-12
    sph = QMatrix.diag([random_unit_quaternion(rng), random_unit_quaternion(rng)])
    assert (ad_group(sph, lam) - lam).max_abs() <= 1e-10
    with pytest.raises(ValueError):
        ad_group_matrix(QMatrix.diag([2, 1]))


@pytest.mark.parametrize("n", [2, 3])
def test_ad_group_composition(n):
    rng = np.random.default_rng(10 + n)
    p = random_multivector(n, 4, rng)
    g, h = random_symplectic(n, rng), random_symplectic(n, rng)
    lhs = ad_group(g @ h, p)
    rhs = ad_group(g, ad_group(h, p))
    assert (lhs - rhs).max_abs() <= 1e-10


def test_apply_exterior_dense_and_sparse_paths_agree():
    # linearity: the 60 terms at once (which touch most basis columns) equal
    # the sum of the terms one at a time (each touching 3 columns)
    rng = np.random.default_rng(12)
    b = sp_basis(2)
    a = rng.normal(size=(b.dim, b.dim))
    big = random_multivector(2, 3, rng, nterms=60)
    small_sum = Multivector.zero(2, 3)
    acc = Multivector.zero(2, 3)
    for t, c in big.coeffs.items():
        small_sum = small_sum + Multivector(2, 3, {t: c})
        acc = acc + apply_exterior(a, Multivector(2, 3, {t: c}))
    dense = apply_exterior(a, big)
    assert (dense - acc).max_abs() <= 1e-10 * max(1.0, dense.max_abs())


# -- array kernels against the per-term oracles ------------------------------

ORACLE_TOL = 1e-12


def _sizes(n, rng):
    """Random multivectors of grades 0-4 with 0-5 terms over sp(n)."""
    return [random_multivector(n, k, rng, nterms=int(rng.integers(0, 6))) for k in range(5)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_and_schouten_match_oracles(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(3):
        mvs = _sizes(n, rng)
        for p in mvs:
            for q in mvs:
                assert max_coeff_diff(p.wedge(q), wedge_oracle(p, q)) <= ORACLE_TOL
                br = schouten(p, q)
                assert br.grade == max(p.grade + q.grade - 1, 0)
                assert max_coeff_diff(br, schouten_oracle(p, q)) <= ORACLE_TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leibniz_and_apply_exterior_match_oracles(n):
    rng = np.random.default_rng(30 + n)
    b = sp_basis(n)
    x = random_multivector(n, 1, rng, nterms=3)
    maps = (b.ad_matrix(x.as_vector()), ad_group_matrix(random_symplectic(n, rng)),
            rng.normal(size=(b.dim, b.dim)))
    for p in _sizes(n, rng) + [Multivector.zero(n, k) for k in range(5)]:
        assert max_coeff_diff(ad_multivector(x, p), leibniz_oracle(maps[0], p)) <= ORACLE_TOL
        for a in maps:
            got, expect = apply_exterior(a, p), apply_exterior_oracle(a, p)
            assert max_coeff_diff(got, expect) <= ORACLE_TOL * max(1.0, expect.max_abs())


@pytest.mark.parametrize("n, grade", [(2, 2), (2, 4), (3, 3), (4, 1), (4, 4)])
@pytest.mark.parametrize("nterms", [0, 1, 3, 32, 33])
def test_apply_exterior_both_branches_match_oracle(n, grade, nterms):
    # one path for every term count; 32 and 33 are where a split by term
    # count would part, so both sides must match the Laplace expansion and
    # the per-term determinants
    rng = np.random.default_rng(40 + n + grade)
    a = rng.normal(size=(sp_basis(n).dim,) * 2)
    p = random_multivector(n, grade, rng, nterms=nterms)
    got = apply_exterior(a, p)
    for expect in (apply_exterior_laplace(a, p), apply_exterior_oracle(a, p)):
        assert max_coeff_diff(got, expect) <= ORACLE_TOL * max(1.0, expect.max_abs())


@pytest.mark.parametrize("n, grade", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_apply_exterior_on_every_subset_matches_oracles(n, grade):
    # all C(N, k) terms, so the tensor spans every column of a (u = N)
    rng = np.random.default_rng(70 + 10 * n + grade)
    dim = sp_basis(n).dim
    a = rng.normal(size=(dim, dim))
    p = Multivector(n, grade, {t: float(rng.normal()) for t in combinations(range(dim), grade)})
    got = apply_exterior(a, p)
    for expect in (apply_exterior_laplace(a, p), apply_exterior_oracle(a, p)):
        assert max_coeff_diff(got, expect) <= ORACLE_TOL * max(1.0, expect.max_abs())


@pytest.mark.parametrize("coeffs", [
    {(3, 1): 2.0, (0, 4): 1.0},  # unsorted
    {(1, 1): 1.0},  # a repeated factor
    {(0, 1): 1.0, (1, 0): 1.0},  # two keys for one subset
    {(2, 0, 5): 1.5, (0, 2, 5): 0.5, (1, 1, 3): 3.0},
])
def test_apply_exterior_on_keys_that_are_not_strictly_increasing(coeffs):
    a = np.random.default_rng(80).normal(size=(10, 10))
    p = Multivector(2, len(next(iter(coeffs))), coeffs)
    got, expect = apply_exterior(a, p), apply_exterior_oracle(a, p)
    assert max_coeff_diff(got, expect) <= ORACLE_TOL * max(1.0, expect.max_abs())
    assert all(list(t) == sorted(set(t)) for t in got.coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_struct_equals_per_pair_commutators(n):
    assert np.array_equal(sp_basis(n).struct, struct_oracle(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_four_bracket_matches_oracle(n):
    rng = np.random.default_rng(50 + n)
    dim = sp_basis(n).dim
    for _ in range(3):
        zs = [DualVector(n, rng.normal(size=dim)) for _ in range(4)]
        expect = four_bracket_oracle(zs, n)
        got = four_bracket(*zs).coeffs
        assert np.max(np.abs(got - expect)) <= ORACLE_TOL * max(1.0, np.max(np.abs(expect)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ad_group_matrix_matches_hamilton_oracle(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        g = random_symplectic(n, rng)
        assert np.max(np.abs(ad_group_matrix(g) - ad_group_oracle(g))) <= ORACLE_TOL
