import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qflag.decomp import (
    PIVOT_RTOL,
    bruhat,
    dieudonne_det,
    dress,
    iwasawa,
    leaf_signature,
)
from qflag.flags import cell_of, leaf_point
from qflag.hmat import (
    Permutation,
    QMatrix,
    SingularMatrixError,
    random_symplectic,
)
from qflag.quat import Quaternion

from util import (
    ONE,
    J,
    K,
    bruhat_oracle,
    from_rows,
    gram_schmidt_iwasawa,
    in_vw,
    is_unit_upper,
    random_bruhat_factors,
    random_invertible,
    random_unit_quaternion,
    random_unit_upper,
    real_rep_ddet,
    reconstruct,
)


def frob(m):
    return m.frobenius()


# -- strict Bruhat normal form ---------------------------------------------

def test_bruhat_of_permutation_matrices():
    for ol in permutations(range(3)):
        w = Permutation(ol)
        form = bruhat(w.matrix())
        assert form.w == w
        assert frob(form.U - QMatrix.identity(3)) == 0.0
        assert frob(form.D - QMatrix.identity(3)) == 0.0
        assert frob(form.V - QMatrix.identity(3)) == 0.0


def test_bruhat_closed_form_2x2():
    g = from_rows([[1, 0], [1, 1]])
    form = bruhat(g)
    assert form.w == Permutation([1, 0])
    assert frob(form.U - from_rows([[1, 1], [0, 1]])) == 0.0
    assert frob(form.D - QMatrix.diag([-1, 1])) == 0.0
    assert frob(form.V - from_rows([[1, 1], [0, 1]])) == 0.0
    assert frob(reconstruct(form) - g) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_build_then_decompose(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(25):
        u, d, w, v, g = random_bruhat_factors(n, rng)
        form = bruhat(g)
        assert form.w == w
        assert frob(form.U - u) <= 1e-8
        assert frob(form.D - d) <= 1e-8
        assert frob(form.V - v) <= 1e-8
        assert frob(reconstruct(form) - g) <= 1e-9 * max(1.0, frob(g))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_structural_invariants(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(25):
        g = random_invertible(n, rng)
        form = bruhat(g)
        assert is_unit_upper(form.U, tol=1e-12)
        assert in_vw(form.V, form.w, tol=1e-10)
        free = sum(1 for i in range(n) for j in range(i + 1, n)
                   if form.V[i, j].norm() > 1e-10)
        assert free <= form.w.length()
        assert frob(reconstruct(form) - g) <= 1e-9 * frob(g)


def assert_matches_oracle(g):
    form, ref = bruhat(g), bruhat_oracle(g)
    assert form.w == ref.w
    assert in_vw(form.V, form.w, tol=0.0)  # strictness holds exactly, as in the oracle
    tol = 1e-10 * frob(g)
    assert frob(form.U - ref.U) <= tol
    assert frob(form.D - ref.D) <= tol
    assert frob(form.V - ref.V) <= tol


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_bruhat_matches_oracle_on_random_matrices(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(3 if n == 32 else 10):
        assert_matches_oracle(random_invertible(n, rng))


def test_bruhat_matches_oracle_on_permutation_matrices():
    for ol in permutations(range(4)):
        assert_matches_oracle(Permutation(ol).matrix())


@pytest.mark.parametrize("n", [3, 4])
def test_bruhat_matches_oracle_in_every_cell(n):
    rng = np.random.default_rng(60 + n)
    for ol in permutations(range(n)):
        *_, g = random_bruhat_factors(n, rng, w=Permutation(ol))
        assert_matches_oracle(g)


def test_bruhat_matches_oracle_on_leaf_points():
    rng = np.random.default_rng(70)
    for ol in permutations(range(3)):
        word = Permutation(ol).reduced_word()
        params = [Quaternion.from_array(x) for x in rng.normal(size=(len(word), 4))]
        assert_matches_oracle(leaf_point(word, params, 3).matrix)


@pytest.mark.parametrize("scale", [1e155, 1e-170])
def test_bruhat_is_scale_safe(scale):
    # ||G||_F overflows at 1e155 and the squared entries underflow at 1e-170
    g = QMatrix.identity(3).scale(scale)
    form = bruhat(g)
    assert form.w == Permutation(range(3))
    assert frob(form.U - QMatrix.identity(3)) == 0.0
    assert frob(form.V - QMatrix.identity(3)) == 0.0
    assert np.array_equal(form.D.data, g.data)


@pytest.mark.parametrize("factor", [1.01, 0.99])
def test_bruhat_pivot_threshold(factor):
    # an entry above PIVOT_RTOL * ||G||_F moves G to the big cell; one below
    # it counts as zero, and U D P_w V misses G by about that entry
    g = QMatrix.identity(2)
    g.data[1, 0, 0] = eps = factor * PIVOT_RTOL * np.sqrt(2.0)
    assert abs(eps / (factor * PIVOT_RTOL * frob(g)) - 1.0) <= 1e-15
    form = bruhat(g)
    if factor > 1.0:
        assert form.w == Permutation([1, 0])
    else:
        assert form.w == Permutation(range(2))
        assert frob(form.V - QMatrix.identity(2)) == 0.0  # V_id = {I}
        assert frob(reconstruct(form) - g) <= eps


def test_bruhat_dimension_bookkeeping():
    # 4*len(w_l) + dim B = 4n^2 with dim B = 2n^2 + 2n
    for n in range(2, 6):
        wl = Permutation.longest(n)
        assert 4 * wl.length() + (2 * n * n + 2 * n) == 4 * n * n


def test_bruhat_singular_raises():
    with pytest.raises(SingularMatrixError):
        bruhat(from_rows([[1, 1], [1, 1]]))


# -- Dieudonne determinant --------------------------------------------------

def test_ddet_examples():
    assert abs(dieudonne_det(QMatrix.diag([J, 2 * K])) - 2.0) <= 1e-12
    assert abs(dieudonne_det(QMatrix.identity(3)) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_ddet_matches_bruhat_diagonal_oracle(n):
    # the oracle is |det real_rep(G)|^(1/4), free of chi and of the Bruhat form
    rng = np.random.default_rng(42 + n)
    for _ in range(5):
        g = random_invertible(n, rng)
        assert abs(dieudonne_det(g) / real_rep_ddet(g) - 1.0) <= 1e-12


def test_ddet_does_not_overflow_when_its_value_fits():
    # |det chi(G)| = Ddet(G)^2 = 1e400 overflows; Ddet(G) = 1e200 does not
    assert abs(dieudonne_det(QMatrix.diag([1e100, 1e100])) / 1e200 - 1.0) <= 1e-12


@pytest.mark.parametrize("scale", [1e155, 1e-170])
def test_ddet_outside_the_float_range_raises(scale):
    # 1e465 overflows and 1e-510 underflows, though each entry and each pivot fits
    with pytest.raises(OverflowError, match="normal float range"):
        dieudonne_det(QMatrix.identity(3).scale(scale))


def test_ddet_is_scale_safe_when_its_value_fits():
    assert abs(dieudonne_det(QMatrix.identity(1).scale(1e155)) / 1e155 - 1.0) <= 1e-14


def test_ddet_symplectic_is_one():
    rng = np.random.default_rng(40)
    for n in (2, 3):
        for _ in range(10):
            k = random_symplectic(n, rng)
            assert abs(dieudonne_det(k) - 1.0) <= 1e-9


def test_ddet_multiplicative():
    rng = np.random.default_rng(41)
    for _ in range(25):
        a, b = random_invertible(3, rng), random_invertible(3, rng)
        da, db, dab = dieudonne_det(a), dieudonne_det(b), dieudonne_det(a @ b)
        assert abs(dab / (da * db) - 1.0) <= 1e-9


# -- Iwasawa decomposition --------------------------------------------------

def test_iwasawa_identity_and_group_elements():
    k, r, u = iwasawa(QMatrix.identity(3))
    assert frob(k - QMatrix.identity(3)) == 0.0
    assert frob(r - QMatrix.identity(3)) == 0.0
    assert frob(u - QMatrix.identity(3)) == 0.0
    rng = np.random.default_rng(50)
    g = random_symplectic(3, rng)
    k, r, u = iwasawa(g)
    assert frob(k - g) <= 1e-9
    assert frob(r - QMatrix.identity(3)) <= 1e-9
    assert frob(u - QMatrix.identity(3)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 5])
def test_iwasawa_random(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        g = random_invertible(n, rng)
        k, r, u = iwasawa(g)
        assert frob(k.conj_transpose() @ k - QMatrix.identity(n)) <= 1e-12
        for i in range(n):
            d = r[i, i]
            assert d.re > 0 and Quaternion(0, d.i, d.j, d.k).norm() <= 1e-12
            for j in range(n):
                if j != i:
                    assert r[i, j].norm() <= 1e-14
        assert is_unit_upper(u, tol=1e-12)
        assert frob(k @ r @ u - g) <= 1e-9 * frob(g)


@pytest.mark.parametrize("scale", [1e155, 1e-170])
def test_iwasawa_is_scale_safe(scale):
    # ||G||_F overflows at 1e155 and the squared entries underflow at 1e-170
    g = QMatrix.identity(3).scale(scale)
    k, r, u = iwasawa(g)
    assert frob(k - QMatrix.identity(3)) == 0.0
    assert frob(u - QMatrix.identity(3)) == 0.0
    assert np.array_equal(r.data, g.data)
    # a power-of-two multiple of G gives K and U bit for bit, and R scaled
    e = int(np.log2(scale))
    g = random_invertible(3, np.random.default_rng(280))
    far = iwasawa(QMatrix(np.ldexp(g.data, e)))
    near = iwasawa(g)
    assert np.array_equal(far[0].data, near[0].data)
    assert np.array_equal(far[1].data, np.ldexp(near[1].data, e))
    assert np.array_equal(far[2].data, near[2].data)


def test_iwasawa_build_then_decompose():
    rng = np.random.default_rng(70)
    n = 3
    for _ in range(10):
        k0 = random_symplectic(n, rng)
        r0 = QMatrix.diag([float(rng.uniform(0.5, 2.0)) for _ in range(n)])
        u0 = random_unit_upper(n, rng)
        k, r, u = iwasawa(k0 @ r0 @ u0)
        assert frob(k - k0) <= 1e-9
        assert frob(r - r0) <= 1e-9
        assert frob(u - u0) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_iwasawa_matches_gram_schmidt_oracle(n):
    rng = np.random.default_rng(210 + n)
    for _ in range(5):
        g = random_invertible(n, rng)
        for got, oracle in zip(iwasawa(g), gram_schmidt_iwasawa(g)):
            assert frob(got - oracle) <= 1e-12 * frob(oracle)


def test_iwasawa_unitary_on_ill_conditioned_input():
    # A random RU factor at n = 32 is ill-conditioned.  K read off one row of
    # each 2x2 block of LAPACK's Q loses unitarity to ~1e-12 here (and to
    # 2e-10 on other draws); the projection onto the image of chi keeps ~4e-15.
    from qflag.flags import random_ru

    rng = np.random.default_rng(240)
    for _ in range(3):
        g = random_ru(32, rng) @ random_symplectic(32, rng)
        k, r, u = iwasawa(g)
        assert frob(k.conj_transpose() @ k - QMatrix.identity(32)) <= 1e-13
        assert frob(k @ r @ u - g) <= 1e-13 * frob(g)


@pytest.mark.parametrize("factor, singular", [(1.01, False), (0.99, True)])
def test_iwasawa_breakdown_threshold(factor, singular):
    # G = K diag(1, 1, r) has Iwasawa R = diag(1, 1, r) and ||G||_F ~ sqrt(2)
    rng = np.random.default_rng(220)
    k0 = random_symplectic(3, rng)
    r = factor * PIVOT_RTOL * np.sqrt(2.0)
    g = k0 @ QMatrix.diag([1, 1, r])
    if singular:
        with pytest.raises(SingularMatrixError):
            iwasawa(g)
        with pytest.raises(SingularMatrixError):
            dieudonne_det(g)
    else:
        assert abs(dieudonne_det(g) / r - 1.0) <= 1e-4
        k, rr, u = iwasawa(g)
        assert abs(rr[2, 2].re / r - 1.0) <= 1e-4
        assert frob(k - k0) <= 1e-5


def _with_entry(m, value):
    m = QMatrix(m.data.copy())
    m.data[0, 1, 2] = value
    return m


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompositions_reject_non_finite(bad):
    rng = np.random.default_rng(230)
    g, k = random_invertible(3, rng), random_symplectic(3, rng)
    ru = from_rows([[1, 0.5, 0], [0, 2, 0], [0, 0, 1]])
    for fn, args in [(bruhat, (_with_entry(g, bad),)),
                     (dieudonne_det, (_with_entry(g, bad),)),
                     (iwasawa, (_with_entry(g, bad),)),
                     (leaf_signature, (_with_entry(k, bad),)),
                     (cell_of, (_with_entry(k, bad),)),
                     (dress, (_with_entry(ru, bad), k)),
                     (dress, (ru, _with_entry(k, bad)))]:
        with pytest.raises(ValueError, match=f"{fn.__name__}: matrix has a non-finite entry"):
            fn(*args)


# -- dressing action --------------------------------------------------------

def test_dress_trivial_cases():
    rng = np.random.default_rng(80)
    k = random_symplectic(3, rng)
    assert frob(dress(QMatrix.identity(3), k) - k) <= 1e-12
    g = from_rows([[2, J], [0, 1]])
    assert frob(dress(g, QMatrix.identity(2)) - QMatrix.identity(2)) <= 1e-12


def test_dress_hand_computed_example():
    # dress([[1, t], [0, 1]], P_(12)) = (1/sqrt(1+t^2)) [[t, 1], [1, -t]]
    t = 0.8
    g = from_rows([[1, t], [0, 1]])
    p12 = Permutation([1, 0]).matrix()
    s = 1.0 / np.sqrt(1 + t * t)
    expect = from_rows([[t * s, s], [s, -t * s]])
    assert frob(dress(g, p12) - expect) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_dress_left_action_axiom(n):
    from qflag.flags import random_ru

    rng = np.random.default_rng(90 + n)
    for _ in range(10):
        g1, g2 = random_ru(n, rng), random_ru(n, rng)
        k = random_symplectic(n, rng)
        lhs = dress(g2, dress(g1, k))
        rhs = dress(g2 @ g1, k)
        assert frob(lhs - rhs) <= 1e-9


def test_dress_validates_preconditions():
    rng = np.random.default_rng(91)
    k = random_symplectic(2, rng)
    with pytest.raises(ValueError):
        dress(from_rows([[J, 0], [0, 1]]), k)  # non-real diagonal
    with pytest.raises(ValueError):
        dress(from_rows([[1, 0], [1, 1]]), k)  # lower entry
    with pytest.raises(ValueError):
        dress(QMatrix.identity(2), QMatrix.diag([2, 1]))  # K not symplectic


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_dress_rule_is_scale_free(scale):
    # the PIVOT_RTOL rule is relative, so a lower entry as large as the diagonal is
    # refused at every scale, and an upper one accepted
    with pytest.raises(ValueError, match="G must be upper triangular"):
        dress(from_rows([[1, 0], [1, 1]]).scale(scale), QMatrix.identity(2))
    k = dress(from_rows([[1, 0.8], [0, 1]]).scale(scale), QMatrix.identity(2))
    assert frob(k - QMatrix.identity(2)) <= 1e-12
    # the edge: a lower entry, or an imaginary part of the diagonal, of
    # (1 -+ 1e-6) PIVOT_RTOL ||G||_F, where ||G||_F = sqrt(2 + t^2) is sqrt(2) to rounding
    for f, refused in [(1.0 - 1e-6, False), (1.0 + 1e-6, True)]:
        t = f * PIVOT_RTOL * np.sqrt(2.0)
        for g, match in [(from_rows([[1, 0], [t, 1]]), "upper triangular"),
                         (from_rows([[Quaternion(1, t), 0], [0, 1]]), "real diagonal")]:
            if refused:
                with pytest.raises(ValueError, match=match):
                    dress(g.scale(scale), QMatrix.identity(2))
            else:
                k = dress(g.scale(scale), QMatrix.identity(2))
                assert frob(k - QMatrix.identity(2)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_dress_is_the_k_of_iwasawa_bit_for_bit(n):
    from qflag.flags import random_ru

    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        g, k = random_ru(n, rng), random_symplectic(n, rng)
        assert dress(g, k).data.tobytes() == iwasawa(g @ k)[0].data.tobytes()


def test_dress_forms_no_r_factor():
    # G K is finite, but its R is not: iwasawa refuses it, dress returns K'
    c = np.sqrt(0.5)
    g = from_rows([[0.92e308, 0.92e308], [0, 1.79e308]])
    k = from_rows([[c, -c], [c, c]])
    with pytest.raises(OverflowError, match="iwasawa: a factor is outside the float range"):
        iwasawa(g @ k)
    k2 = dress(g, k)
    assert frob(k2.conj_transpose() @ k2 - QMatrix.identity(2)) <= 1e-12


def test_dress_of_a_g_whose_product_with_k_overflows():
    # G K is past the float range, but the power-of-two scaled G that the RU
    # check holds times K is not, and K' is scale-free
    c = np.sqrt(0.5)
    g = from_rows([[1.5e308, 1.5e308], [0, 1e305]])
    k = from_rows([[c, -c], [c, c]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k2 = dress(g, k)
    assert frob(k2.conj_transpose() @ k2 - QMatrix.identity(2)) <= 1e-12


def test_dress_refuses_a_pivot_far_below_the_threshold_near_the_float_maximum():
    # G22 = 1 is about 5e-309 of ||G||_F, far below PIVOT_RTOL
    c = np.sqrt(0.5)
    with pytest.raises(SingularMatrixError, match="QR breakdown"):
        dress(from_rows([[1.5e308, 1.5e308], [0, 1]]), from_rows([[c, -c], [c, c]]))


@given(n=st.sampled_from([1, 2, 3, 8]), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_dress_is_bitwise_scale_free(n, seed, data):
    # K' of 2^s G is K' of G bit for bit for every s that keeps each nonzero
    # component of 2^s G finite and normal (frexp exponent in [-1021, 1024]);
    # both ends of that range, where G K would overflow or underflow, on every draw
    from qflag.flags import random_ru

    rng = np.random.default_rng(seed)
    g, k = random_ru(n, rng), random_symplectic(n, rng)
    _, exps = np.frexp(np.abs(g.data[g.data != 0]))
    lo, hi = -1021 - int(exps.min()), 1024 - int(exps.max())
    want = dress(g, k).data.tobytes()
    for s in (lo, data.draw(st.integers(lo, hi), label="s"), hi):
        assert dress(QMatrix(np.ldexp(g.data, s)), k).data.tobytes() == want, s


@pytest.mark.parametrize("n", [2, 3])
def test_dress_preserves_leaf_signature(n):
    from qflag.flags import random_ru

    rng = np.random.default_rng(95 + n)
    for _ in range(20):
        k = random_symplectic(n, rng)
        sig0 = leaf_signature(k)
        sig1 = leaf_signature(dress(random_ru(n, rng), k))
        assert sig0.deviation(sig1) <= 1e-8


# -- leaf signatures --------------------------------------------------------

def test_leaf_signature_examples():
    for ol in permutations(range(3)):
        w = Permutation(ol)
        sig = leaf_signature(w.matrix())
        assert sig.w == w
        assert all((p - ONE).norm() == 0.0 for p in sig.phases)

    rng = np.random.default_rng(100)
    sigma = [random_unit_quaternion(rng) for _ in range(3)]
    w = Permutation([2, 0, 1])
    sig = leaf_signature(QMatrix.diag(sigma) @ w.matrix())
    assert sig.w == w
    assert max((p - s).norm() for p, s in zip(sig.phases, sigma)) <= 1e-12


def _symplectic_samples():
    """All permutation matrices of S_3 and S_4, leaf points of the six words
    of S_3, and random symplectic matrices at n = 2, 3 and 8."""
    rng = np.random.default_rng(110)
    for n in (3, 4):
        for ol in permutations(range(n)):
            yield Permutation(ol).matrix()
    for ol in permutations(range(3)):
        word = Permutation(ol).reduced_word()
        params = [Quaternion.from_array(x) for x in rng.normal(size=(len(word), 4))]
        yield leaf_point(word, params, 3).matrix
    for n in (2, 3, 8):
        for _ in range(5):
            yield random_symplectic(n, rng)


def test_leaf_signature_and_cell_equal_the_bruhat_form_exactly():
    # both stop at the row reduction; they must read what bruhat reads
    for k in _symplectic_samples():
        form = bruhat(k)
        sig = leaf_signature(k)
        assert sig.w == form.w
        assert cell_of(k) == form.w
        expect = [q * (1.0 / q.norm()) for q in (form.D[i, i] for i in range(k.n_rows))]
        assert [p.to_json() for p in sig.phases] == [q.to_json() for q in expect]


def test_leaf_signature_deviation_infinite_on_cell_mismatch():
    a = leaf_signature(Permutation([1, 0]).matrix())
    b = leaf_signature(QMatrix.identity(2))
    assert a.deviation(b) == float("inf")


def test_leaf_signature_requires_symplectic():
    with pytest.raises(ValueError):
        leaf_signature(QMatrix.diag([2, 1]))
