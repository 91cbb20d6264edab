import json
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qflag import liealg
from qflag.hmat import QMatrix, chi, expm, random_symplectic
from qflag.liealg import (
    PRUNE_TOL,
    DualVector,
    Multivector,
    SpBasis,
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

from util import (
    ad_group_oracle,
    ad_matrix_oracle,
    apply_exterior_laplace,
    apply_exterior_oracle,
    basis_dual,
    collect_oracle,
    four_bracket_oracle,
    lambda_oracle,
    leibniz_oracle,
    max_coeff_diff,
    merge_oracle,
    multivector_from_json,
    multivector_to_json,
    project_oracle,
    random_multivector,
    random_unit_quaternion,
    schouten_oracle,
    sp_basis_oracle,
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
    for c in range(b.dim):
        m = QMatrix(b.data[c])
        assert (m + m.conj_transpose()).frobenius() == 0.0
    assert len(b.spheroid_indices) == 3 * n


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_matches_loop_construction(n):
    b = sp_basis(n)
    names, mats = sp_basis_oracle(n)
    data = np.stack([m.data for m in mats])
    assert b.names == names
    assert b.index == {nm: c for c, nm in enumerate(names)}
    assert b.data.dtype == data.dtype and np.array_equal(b.data, data)
    assert np.array_equal(np.signbit(b.data), np.signbit(data))
    assert np.array_equal(b.chi, chi(data))
    assert b.spheroid_indices == tuple(c for c, nm in enumerate(names) if nm.startswith("Dg"))


@pytest.mark.parametrize("n", [2, 3])
def test_projection_is_exact_on_basis(n):
    b = sp_basis(n)
    for c, name in enumerate(b.names):
        m = QMatrix(b.data[c])
        coords = b.coords(chi(m.data))
        expect = np.zeros(b.dim)
        expect[c] = 1.0
        assert np.array_equal(coords, expect)
        assert (QMatrix(np.tensordot(coords, b.data, axes=1)) - m).frobenius() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coords_match_real_form_projection(n):
    b = sp_basis(n)
    assert np.array_equal(b.coords(b.chi), np.eye(b.dim))
    a = np.random.default_rng(90 + n).normal(size=(7, n, n, 4))
    x = a - a.swapaxes(1, 2) * (1.0, -1.0, -1.0, -1.0)  # A - A*, in sp(n)
    norms = np.sqrt(np.sum(x * x, axis=(1, 2, 3)))
    err = np.abs(b.coords(chi(x)) - project_oracle(x, n)).max(axis=1)
    assert np.all(err <= 1e-14 * norms)


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
        mx, my = (QMatrix(np.tensordot(v.as_vector(), b.data, axes=1)) for v in (x, y))
        comm = mx @ my - my @ mx
        assert np.max(np.abs(lie_bracket(x, y).as_vector() - b.coords(chi(comm.data)))) <= 1e-12


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


def test_constructor_canonicalizes_keys():
    # one subset under two keys, and a difference of two equal elements: both zero
    assert Multivector(2, 2, {(0, 1): 1.0, (1, 0): 1.0}).max_abs() == 0.0
    assert (Multivector(2, 2, {(1, 0): -1.0}) - Multivector(2, 2, {(0, 1): 1.0})).max_abs() == 0.0
    assert Multivector(2, 2, {(0, 1): 1.0, (1, 0): 1.0}).terms()[1].size == 0
    assert Multivector(2, 2, {(1, 1): 3.0}).coeffs == {}
    assert Multivector(2, 3, {(5, 0, 2): 1.5, (0, 2, 5): 0.5, (2, 0, 5): 4.0}).coeffs == {
        (0, 2, 5): -2.0}
    assert Multivector(2, -1, {}).coeffs == {}


@pytest.mark.parametrize("key", [(0, 1, 2), (3,), (0, 10), (-1, 3), (0, 1.5)],
                         ids=["too-long", "too-short", "index-dim", "index-negative",
                              "index-non-integral"])
def test_constructor_rejects_malformed_keys(key):
    with pytest.raises(ValueError, match="basis indices in range"):
        Multivector(2, 2, {(0, 1): 1.0, key: 1.0})


def _mv(n, grade):
    return Multivector(n, grade, {tuple(range(grade)): 1.0})


@pytest.mark.parametrize("make, match", [
    (lambda: SpBasis(0), "n must be positive"),
    (lambda: _mv(2, 1) + _mv(3, 1), "mismatched n or grade"),
    (lambda: _mv(2, 1) + _mv(2, 2), "mismatched n or grade"),
    (lambda: _mv(2, 1).wedge(_mv(3, 1)), "mismatched n"),
    (lambda: schouten(_mv(2, 1), _mv(3, 1)), "mismatched n"),
    (lambda: ad_multivector(_mv(2, 1), _mv(3, 2)), "mismatched n"),
    (lambda: ad_multivector(_mv(2, 2), _mv(2, 2)), "grade-1 first argument"),
    (lambda: four_bracket(*[basis_dual("E(1,2)", 2)] * 3,
                          basis_dual("E(1,2)", 3)), "mismatched n"),
    (lambda: ad_group(QMatrix.identity(3), _mv(2, 1)),
     r"10 x 10 matrix over sp\(2\), got shape \(21, 21\)"),
    (lambda: _mv(2, 2).as_vector(), "as_vector requires grade 1"),
    (lambda: lie_bracket(_mv(2, 1), _mv(2, 2)), "grade-1 elements"),
], ids=["SpBasis-0", "add-n", "add-grade", "wedge", "schouten", "ad_multivector-n",
        "ad_multivector-grade", "four_bracket", "ad_group", "as_vector", "lie_bracket"])
def test_operations_reject_mismatched_operands(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_sums_prune_cancelled_terms():
    rng = np.random.default_rng(13)
    p = random_multivector(3, 2, rng, nterms=6)
    assert (p - p).coeffs == {} and (p + p.scale(-1.0)).coeffs == {}
    assert p.scale(0.0).coeffs == {} and p.scale(1e-16).coeffs == {}
    q = Multivector(3, 2, {t: c + 1e-15 for t, c in p.coeffs.items()})
    assert (q - p).coeffs == {}


def _merge_cases():
    """(name, p, q) pairs of canonical operands for the sums."""
    rng = np.random.default_rng(15)
    p3 = random_multivector(3, 3, rng, nterms=8)
    shared = list(p3.coeffs)[:4]
    q3 = Multivector(3, 3, {**{t: float(rng.normal()) for t in shared[1:]},
                            shared[0]: -p3.coeffs[shared[0]],  # cancels in p + q
                            **random_multivector(3, 3, rng, nterms=3).coeffs})
    lam4 = Multivector(3, 4, {t: float(rng.normal()) for t in combinations(range(21), 4)})
    moved = ad_group(random_symplectic(3, rng), lambda_element(3))
    return [
        ("disjoint", Multivector(2, 2, {(0, 1): 1.0, (2, 3): -2.0}),
         Multivector(2, 2, {(4, 5): 0.5, (1, 2): 3.0})),
        ("overlapping", p3, q3),
        ("empty-right", p3, Multivector.zero(3, 3)),
        ("empty-left", Multivector.zero(3, 3), q3),
        ("empty-both", Multivector.zero(2, 2), Multivector.zero(2, 2)),
        ("grade-0", Multivector(2, 0, {(): 1.5}), Multivector(2, 0, {(): -0.25})),
        ("grade-0-cancelling", Multivector(2, 0, {(): 1.5}), Multivector(2, 0, {(): 1.5})),
        ("lambda4-sp3-self", lam4, lam4),
        ("lambda4-sp3-moved", lam4, moved),
    ]


MERGE_CASES = _merge_cases()


@pytest.mark.parametrize("name, p, q", MERGE_CASES, ids=[c[0] for c in MERGE_CASES])
def test_sums_match_the_dict_merge_exactly(name, p, q):
    # the kernels run first, on copies whose coeffs dict was never handed out
    got_add, got_sub = p.copy() + q.copy(), p.copy() - q.copy()
    assert got_add.coeffs == merge_oracle(p, q, 1.0)
    assert got_sub.coeffs == merge_oracle(p, q, -1.0)
    if name == "lambda4-sp3-self":
        assert len(p.coeffs) == 5985 and got_sub.coeffs == {}


@pytest.mark.parametrize("name, p, q", MERGE_CASES, ids=[c[0] for c in MERGE_CASES])
@pytest.mark.parametrize("r", [2.0, -1.0, 0.3, 1e-15, 0.0])
def test_scale_and_max_abs_match_the_dict_loops_exactly(name, p, q, r):
    scaled, largest = p.copy().scale(r), p.copy().max_abs()
    assert scaled.coeffs == {t: c * r for t, c in p.coeffs.items() if abs(c * r) > PRUNE_TOL}
    assert largest == max(map(abs, p.coeffs.values()), default=0.0)


@st.composite
def _canonical_pairs(draw):
    """Canonical (p, q) over sp(2), grades 0-3, with equal, disjoint or overlapping
    keys, or one or both empty; a shared key may be a twin pair that cancels in
    p + q or in p - q to exactly 0.99 or 1.01 x PRUNE_TOL (4x and -3x or 3x, where
    x has a float32 mantissa so that 3x and 4x - 3x are exact)."""
    grade = draw(st.integers(0, 3))
    keys = st.sets(st.sampled_from(list(combinations(range(10), grade))), max_size=12)
    kind = draw(st.sampled_from(["equal", "disjoint", "overlapping",
                                 "empty-left", "empty-right", "empty-both"]))
    a = set() if kind in ("empty-left", "empty-both") else draw(keys)
    extra = draw(keys)
    b = {"equal": a, "disjoint": extra - a, "empty-left": extra, "empty-right": set(),
         "empty-both": set(), "overlapping": {t for t in a if draw(st.booleans())} | extra}[kind]
    coef = st.builds(lambda m, s: m * s, st.floats(2 * PRUNE_TOL, 8.0), st.sampled_from([1, -1]))
    p, q = {t: draw(coef) for t in a}, {t: draw(coef) for t in b}
    for t in a & b:
        f = draw(st.sampled_from([None, 0.99, 1.01]))
        if f is not None:
            x = float(np.float32(f * PRUNE_TOL)) * draw(st.sampled_from([1.0, -1.0]))
            in_sum = draw(st.booleans())  # the twin cancels in p + q, else in p - q
            p[t], q[t] = 4 * x, -3 * x if in_sum else 3 * x
    return Multivector(2, grade, p), Multivector(2, grade, q)


@given(_canonical_pairs())
def test_sums_match_the_merge_oracle_on_drawn_pairs(pair):
    p, q = pair
    got_add, got_sub, ref_sub = p + q, p - q, p + q.scale(-1.0)  # before any coeffs read
    for got, ref in zip(got_sub._keyed(), ref_sub._keyed(), strict=True):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert got_add.coeffs == merge_oracle(p, q, 1.0)
    assert got_sub.coeffs == merge_oracle(p, q, -1.0)


def test_writes_through_coeffs_are_read_back():
    rng = np.random.default_rng(14)
    orig = random_multivector(2, 2, rng, nterms=5)
    before = multivector_to_json(orig)
    mv = orig.copy()
    first, second = list(mv.coeffs)[:2]
    mv.coeffs[first] += 0.5
    mv.coeffs[(3, 8)] = -1.25
    del mv.coeffs[second]
    ref = Multivector(2, 2, dict(mv.coeffs))
    other, x = random_multivector(2, 2, rng, nterms=3), random_multivector(2, 1, rng)
    a = rng.normal(size=(10, 10))
    assert mv + other == ref + other and mv - other == ref - other
    assert mv.max_abs() == ref.max_abs()
    assert apply_exterior(a, mv) == apply_exterior(a, ref)
    assert schouten(x, mv) == schouten(x, ref)
    assert multivector_to_json(mv) == multivector_to_json(ref)
    # a later write is read back as well
    mv.coeffs[first] = 7.0
    assert mv.max_abs() == 7.0 and (mv - ref).coeffs == {first: 7.0 - ref.coeffs[first]}
    assert multivector_to_json(orig) == before and orig == multivector_from_json(before)


def test_equality_and_repr_show_n_grade_and_terms():
    p = Multivector(2, 2, {(2, 3): -2.0, (0, 1): 1.5})
    assert p == Multivector(2, 2, {(1, 0): -1.5, (2, 3): -2.0})
    assert p != Multivector(3, 2, {(0, 1): 1.5, (2, 3): -2.0})
    assert p != Multivector(2, 2, {(0, 1): 1.5})
    assert p != Multivector(2, 2, {(0, 1): 1.5, (2, 3): -2.0 + 1e-12})
    assert Multivector.zero(2, 1) != Multivector.zero(2, 2) and p != p.coeffs
    assert repr(p) == "Multivector(n=2, grade=2, coeffs={(0, 1): 1.5, (2, 3): -2.0})"


@pytest.mark.parametrize("n, grade", [(2, 3), (3, 4)])
def test_keys_follow_the_lexicographic_order_of_the_rows(n, grade):
    rows = list(combinations(range(sp_basis(n).dim), grade))
    mv = Multivector(n, grade, {t: float(i) for i, t in enumerate(reversed(rows), start=1)})
    # the rows of a sum are read back from its keys
    for got in (mv, mv + Multivector.zero(n, grade)):
        idx, vals = got.terms()
        assert idx.tolist() == [list(t) for t in rows]
        assert vals.tolist() == [float(len(rows) - i) for i in range(len(rows))]


def test_keys_fit_every_cli_grade_and_refuse_past_int64():
    # verify schouten's Leibniz brackets reach grade 11 at n = 5 and 6, where
    # dim ** 11 would pass 2**63; ranks among the k-subsets stay far below it
    for n in range(2, 7):
        dim = sp_basis(n).dim
        for grade in range(1, min(dim, 11) + 1):
            ends = {tuple(range(grade)): 1.0, tuple(range(dim - grade, dim)): -2.0}
            mv = Multivector(n, grade, ends) + Multivector.zero(n, grade)
            assert mv.coeffs == ends
    # at dim 78, grade 21 is the last with at most 2**63 subsets
    last = tuple(range(78 - 21, 78))
    assert Multivector(6, 21, {last: 1.0}).copy().scale(2.0).coeffs == {last: 2.0}
    big = Multivector(6, 11, {tuple(range(11)): 1.0})
    for build in (lambda: Multivector(6, 22), lambda: Multivector(6, 22, {tuple(range(22)): 1.0}),
                  lambda: big.wedge(Multivector(6, 11, {tuple(range(11, 22)): 1.0}))):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            build()


def test_multivector_json_round_trip():
    # the bracket goldens' format, read back through the constructor
    rng = np.random.default_rng(2)
    p = random_multivector(3, 3, rng, nterms=6)
    p2 = multivector_from_json(json.loads(json.dumps(multivector_to_json(p))))
    assert (p - p2).max_abs() == 0.0
    # unsorted names pick up the permutation sign
    b = sp_basis(2)
    obj = {"n": 2, "grade": 2,
           "terms": [{"idx": [b.names[1], b.names[0]], "c": 1.0}]}
    q = multivector_from_json(obj)
    assert q.coeffs == {(0, 1): -1.0}


@pytest.mark.parametrize("make, match", [
    (lambda: Multivector(2, 1, {(1,): 1.0, (0,): float("nan")}), r"key \(0,\): .* not finite"),
    (lambda: Multivector(2, 1, {(0,): float("inf")}), "not finite"),
    # np.fromiter(..., dtype=float) would read True as 1.0 and "1.5" as 1.5; by the
    # rule of quat.json_number they are refused
    *((lambda bad=bad: Multivector(2, 2, {(1, 2): 1.0, (0, 3): bad}),
       r"key \(0, 3\): coefficient .* is not a real number")
      for bad in (True, np.True_, "1.5", 1 + 2j, None)),
], ids=["nan", "inf", "bool", "numpy-bool", "string", "complex", "none"])
def test_multivector_refuses_non_finite_and_non_integral_input(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: apply_exterior(np.eye(10) * 2, Multivector(3, 1, {(1,): 1.0})), "21 x 21"),
    (lambda: apply_exterior(np.eye(30), Multivector(2, 1, {(1,): 1.0})), "10 x 10"),
    (lambda: apply_exterior(np.eye(9), Multivector(2, 0)), "10 x 10"),
    (lambda: apply_exterior(np.full((10, 10), np.nan), Multivector(2, 1, {(1,): 1.0})),
     "finite"),
    (lambda: apply_exterior(np.diag([np.inf] + [1.0] * 9), lambda_element(2)), "finite"),
    (lambda: Multivector(2, 1, {(1,): 1.0}).scale(float("nan")), "scale factor nan"),
    (lambda: Multivector(2, 1, {(1,): 1.0}).scale(float("inf")), "scale factor inf"),
    (lambda: Multivector(2, 1).scale(float("-inf")), "scale factor -inf"),
    (lambda: four_bracket(*[basis_dual("E(1,2)", 2)] * 3, DualVector(2, np.ones(12))),
     "covectors of 10 entries over sp"),
    (lambda: four_bracket(DualVector(2, np.ones(3)), *[basis_dual("E(1,2)", 2)] * 3),
     "covectors of 10 entries over sp"),
], ids=["exterior-10-on-sp3", "exterior-30-on-sp2", "exterior-grade0", "exterior-nan",
        "exterior-inf", "scale-nan", "scale-inf", "scale-empty-minus-inf", "four-bracket-12",
        "four-bracket-3"])
def test_operations_refuse_wrong_shapes_and_non_finite_values(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("a", [1e100 * np.eye(21), np.diag([1e200, 1e200] + [1.0] * 19)],
                         ids=["inf-terms", "inf-times-zero"])
def test_apply_exterior_refuses_an_image_past_the_float_range(a):
    # e_0123 maps to 1e400 times itself: an inf term, or, where the minor's inf meets
    # a zero of the coefficient table, a NaN that the prune would drop silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="apply_exterior"):
            apply_exterior(a, lambda_element(3))


def test_apply_exterior_keeps_an_image_near_the_float_maximum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply_exterior(np.diag([1e150, 1e150] + [1.0] * 19), lambda_element(3))
    expect = {(0, 1, 2, 3): 1e300, (4, 5, 6, 7): 1.0, (8, 9, 10, 11): 1.0}
    assert got.coeffs == pytest.approx(expect, rel=1e-15)


def test_lambda_element_structure():
    lam2 = lambda_element(2)
    b = sp_basis(2)
    t = tuple(sorted(b.index[nm] for nm in ("E(1,2)", "S(i;1,2)", "S(j;1,2)", "S(k;1,2)")))
    assert lam2.coeffs == {t: 1.0}
    assert len(lambda_element(3).coeffs) == 3
    assert all(c == 1.0 for c in lambda_element(4).coeffs.values())
    with pytest.raises(ValueError):
        lambda_element(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lambda_element_matches_the_named_construction(n):
    assert lambda_element(n) == lambda_oracle(n)


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
        g = expm(QMatrix(np.tensordot(x.as_vector(), b.data, axes=1)).scale(t))
        fd = (ad_group(g, lam) - lam).scale(1.0 / t)
        assert (fd - intrinsic_derivative(x)).max_abs() <= 1e-4


def test_four_bracket():
    b = sp_basis(2)
    z = [basis_dual(nm, 2)
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
    # in every round, empty operands and a grade-1 operand with more terms than _sizes draws
    edges = [Multivector.zero(n, 1), Multivector.zero(n, 3),
             random_multivector(n, 1, np.random.default_rng(50 + n), nterms=5)]
    for _ in range(3):
        mvs = _sizes(n, rng) + edges
        for p in mvs:
            for q in mvs:
                assert max_coeff_diff(p.wedge(q), wedge_oracle(p, q)) <= ORACLE_TOL
                br = schouten(p, q)
                assert br.grade == max(p.grade + q.grade - 1, 0)
                assert max_coeff_diff(br, schouten_oracle(p, q)) <= ORACLE_TOL


@st.composite
def _collect_inputs(draw):
    """Unsorted (m, k) index rows over range(dim) and their values, with
    repeated indices within rows and duplicate (and permuted) rows."""
    k = draw(st.sampled_from([0, 1, 2, 5, 11]))
    dim = draw(st.sampled_from([10, 21, 55, 78]))
    m = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 300)))
    pool = draw(st.integers(1, 40))  # distinct draws the m rows are taken from
    repeats = draw(st.sampled_from([0.0, 0.2, 1.0]))  # rows given a repeated index
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.integers(0, dim, size=(pool, k))
    rows = base[rng.integers(0, pool, size=m)]
    rows = np.take_along_axis(rows, rng.random(rows.shape).argsort(axis=1), axis=1)
    if k > 1:
        hit = rng.random(m) < repeats
        rows[hit, rng.integers(1, k)] = rows[hit, 0]
    val = (rng.choice([1.0, -1.0, 0.5, 1e-15], size=m) if draw(st.booleans())
           else rng.normal(size=m))  # exact values cancel and prune when rows merge
    return rows.astype(np.intp), val, dim


@given(_collect_inputs())
def test_collect_is_bitwise_the_oracle(args):
    for got, want in zip(liealg._collect(*args), collect_oracle(*args), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leibniz_and_apply_exterior_match_oracles(n):
    rng = np.random.default_rng(30 + n)
    b = sp_basis(n)
    x = random_multivector(n, 1, rng, nterms=3)
    maps = (ad_matrix_oracle(x.as_vector(), struct_oracle(n)),
            ad_group_matrix(random_symplectic(n, rng)),
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


def _refuse(*args):
    raise AssertionError("apply_exterior ranked or unranked index rows")


@pytest.mark.parametrize("n", [2, 3])
def test_apply_exterior_reads_keys_alone(n, monkeypatch):
    # a rowless input (an output of -) and its constructor-built twin, whose rows are
    # cached, give byte-equal images with _rank and _unrank refusing every call
    rng = np.random.default_rng(100 + n)
    a, h = ad_group_matrix(random_symplectic(n, rng)), random_symplectic(n, rng)
    lam = lambda_element(n)
    rowless = [random_multivector(n, k, rng, nterms=6) - random_multivector(n, k, rng, nterms=6)
               for k in range(1, 6)] + [ad_group(h, lam) - lam]
    cached = [Multivector(n, p.grade, p.copy().coeffs) for p in rowless]
    for p in rowless:
        apply_exterior(a, p)  # builds the split and Laplace tables
    with monkeypatch.context() as m:
        m.setattr(liealg, "_rank", _refuse)
        m.setattr(liealg, "_unrank", _refuse)
        images = [(apply_exterior(a, p), apply_exterior(a, q)) for p, q in zip(rowless, cached)]
    for p, (got, twin) in zip(rowless, images):
        assert got._rows is None and p._rows is None
        assert got._keys.tobytes() == twin._keys.tobytes()
        assert got._vals.tobytes() == twin._vals.tobytes()
        if len(p.terms()[1]) <= 300:  # the oracle is too slow on the dense moved Λ_3
            expect = apply_exterior_oracle(a, p)
            assert max_coeff_diff(got, expect) <= ORACLE_TOL * max(1.0, expect.max_abs())


@pytest.mark.parametrize("grade", [1, 5, 6, 7])
@pytest.mark.parametrize("nterms", [1, 5, 252])
def test_split_product_matches_determinant_oracle(grade, nterms):
    # the kernel splits a grade-k term after h = k // 2 factors: an empty first
    # half at grade 1, halves of unequal size at grades 5 and 7; 252 = C(10, 5)
    # terms take every subset of the 10 basis elements of sp(2) at each grade
    rng = np.random.default_rng(90 + grade)
    a = rng.normal(size=(10, 10))
    p = random_multivector(2, grade, rng, nterms=nterms)
    got, expect = apply_exterior(a, p), apply_exterior_oracle(a, p)
    assert max_coeff_diff(got, expect) <= ORACLE_TOL * max(1.0, expect.max_abs())


def test_lambda_4_under_ad_group_matches_determinant_oracle():
    rng = np.random.default_rng(95)
    a = ad_group_matrix(random_symplectic(4, rng))
    lam = lambda_element(4)
    got, expect = apply_exterior(a, lam), apply_exterior_oracle(a, lam)
    assert max_coeff_diff(got, expect) <= ORACLE_TOL * max(1.0, expect.max_abs())


def test_ad_group_is_multiplicative_on_lambda_5():
    # the determinant oracle is too slow over the C(55, 4) subsets; Ad_{gh} = Ad_g Ad_h
    # checks the kernel there, the inner image filling most of them
    rng = np.random.default_rng(96)
    g, h, lam = random_symplectic(5, rng), random_symplectic(5, rng), lambda_element(5)
    inner = ad_group(h, lam)
    assert len(inner.terms()[1]) > 10 ** 5
    assert max_coeff_diff(ad_group(g @ h, lam), ad_group(g, inner)) <= 1e-10


def test_ad_group_peak_memory_at_n4():
    # warm (tables cached), the split product stays well below the 14 MiB that
    # a dense tensor over the 36 basis elements of sp(4) took
    g, lam = random_symplectic(4, np.random.default_rng(97)), lambda_element(4)
    ad_group(g, lam)
    tracemalloc.start()
    try:
        ad_group(g, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_struct_equals_per_pair_commutators(n):
    assert np.array_equal(sp_basis(n).struct, struct_oracle(n))


def test_struct_build_peak_memory_at_n6():
    # the table is 78^3 floats, 3.6 MiB; one complex array of N^2 (2n)^2 entries is 13.4 MiB
    tracemalloc.start()
    try:
        SpBasis(6).struct
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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
