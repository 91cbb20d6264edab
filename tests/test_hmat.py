import json
import math
from itertools import permutations

import numpy as np
import pytest

from qflag.decomp import dress, leaf_signature
from qflag.flags import cell_of, orbit_probe
from qflag.hmat import (
    INV_COND_MAX,
    SYMPLECTIC_TOL,
    Permutation,
    QMatrix,
    SingularMatrixError,
    expm,
    random_sp_algebra,
    random_symplectic,
    require_symplectic,
    word_to_permutation,
)
from qflag.liealg import ad_group_matrix
from qflag.quat import I, J, ONE, Quaternion

from util import (embed_sp2, exp_pure_oracle, expm_series_oracle, from_rows, gauss_jordan_inverse,
                  is_symplectic, random_invertible, real_rep, reduced_word_oracle,
                  symplectic_residual, transposition, word_to_permutation_oracle)


def frob(m):
    return m.frobenius()


def test_matmul_order_matters():
    a = QMatrix.diag([I, ONE])
    b = from_rows([[0, J], [J, 0]])
    ab = a @ b
    ba = b @ a
    assert (ab[0, 1] - I * J).norm() == 0.0
    assert (ba[1, 0] - J * I).norm() == 0.0
    assert frob(ab - ba) > 1.0


@pytest.mark.parametrize("n", [1, 3, 8])
def test_matmul_matches_the_real_rep_oracle(n):
    # real_rep is an algebra homomorphism built from Hamilton products, free of chi
    rng = np.random.default_rng(70 + n)
    a, b = random_invertible(n, rng), random_invertible(n, rng)
    assert np.array_equal(real_rep(QMatrix.identity(n)), np.eye(4 * n))
    err = np.abs(real_rep(a @ b) - real_rep(a) @ real_rep(b)).max()
    assert err <= 1e-14 * frob(a) * frob(b)


def test_conj_transpose_involution_and_antihomomorphism():
    rng = np.random.default_rng(1)
    a, b = random_invertible(3, rng), random_invertible(3, rng)
    assert frob(a.conj_transpose().conj_transpose() - a) == 0.0
    assert frob((a @ b).conj_transpose() - b.conj_transpose() @ a.conj_transpose()) <= 1e-12


def test_inverse_examples():
    assert frob(QMatrix.identity(3).inverse() - QMatrix.identity(3)) == 0.0
    inv = QMatrix.diag([J]).inverse()
    assert (inv[0, 0] - (-J)).norm() == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_random(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = random_invertible(n, rng)
        assert frob(m @ m.inverse() - QMatrix.identity(n)) <= 1e-9
        assert frob(m.inverse() @ m - QMatrix.identity(n)) <= 1e-9


def test_inverse_singular_raises():
    m = from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        m.inverse()


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_inverse_matches_gauss_jordan_oracle(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        m = random_invertible(n, rng)
        oracle = gauss_jordan_inverse(m)
        assert frob(m.inverse() - oracle) <= 1e-12 * frob(oracle)


@pytest.mark.parametrize("factor, singular", [(0.99, False), (1.01, True)])
def test_inverse_condition_threshold(factor, singular):
    # K diag(1, 1, eps J) K' has ||M||_F ||M^-1||_F = sqrt((2 + eps^2)(2 + eps^-2)),
    # which is factor * INV_COND_MAX for the eps chosen here
    c = factor * INV_COND_MAX
    eps = np.sqrt(2.0) / c
    rng = np.random.default_rng(210)
    k1, k2 = random_symplectic(3, rng), random_symplectic(3, rng)
    m = k1 @ QMatrix.diag([1, 1, J * eps]) @ k2
    if singular:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    else:
        expect = k2.conj_transpose() @ QMatrix.diag([1, 1, J * (-1 / eps)]) @ k1.conj_transpose()
        assert frob(m.inverse() - expect) <= 1e-3 * frob(expect)


@pytest.mark.parametrize("scale", [1e155, 1e-170])
def test_inverse_is_scale_safe(scale):
    # ||M||_F overflows at 1e155, and ||M^-1||_F at 1e-170
    m = QMatrix.identity(3).scale(scale)
    assert np.array_equal(m.inverse().data, QMatrix.identity(3).scale(1.0 / scale).data)
    g = random_invertible(3, np.random.default_rng(220))
    far = QMatrix(np.ldexp(g.data, int(np.log2(scale))))
    assert np.array_equal(far.inverse().data, np.ldexp(g.inverse().data, -int(np.log2(scale))))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inverse_and_expm_reject_non_finite(bad):
    m = QMatrix.identity(3)
    m.data[1, 2, 3] = bad
    with pytest.raises(ValueError, match="inverse: matrix has a non-finite entry"):
        m.inverse()
    with pytest.raises(ValueError, match="expm: matrix has a non-finite entry"):
        expm(m)


def test_is_symplectic_basic():
    assert is_symplectic(QMatrix.identity(2))
    assert not is_symplectic(QMatrix.diag([2, 1]))
    assert np.array_equal(require_symplectic(QMatrix.identity(2).data, "op"), np.eye(4))
    with pytest.raises(ValueError, match="op requires a symplectic matrix"):
        require_symplectic(QMatrix.diag([2, 1]).data, "op")


@pytest.mark.parametrize("n", [2, 3])
def test_symplectic_closure(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(10):
        g = random_symplectic(n, rng)
        h = random_symplectic(n, rng)
        assert is_symplectic(g, tol=1e-10)
        assert is_symplectic(g @ h, tol=1e-9)
        assert is_symplectic(g.conj_transpose(), tol=1e-10)
        # conj_transpose is the group inverse
        assert frob(g @ g.conj_transpose() - QMatrix.identity(n)) <= 1e-10


# every caller that requires a symplectic matrix, with the name its errors carry
SYMPLECTIC_CALLERS = [
    ("dress", lambda m: dress(QMatrix.identity(m.n_rows), m)),
    ("leaf_signature", leaf_signature),
    ("cell_of", cell_of),
    ("orbit_probe", lambda m: orbit_probe(m, samples=2, seed=0)),
    ("ad_group_matrix", ad_group_matrix),
    ("require_symplectic", lambda m: require_symplectic(m.data, "require_symplectic")),
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("factor, inside", [(1 - 1e-3, True), (1 + 1e-3, False)])
def test_symplectic_tol_edge(n, factor, inside):
    # M = K diag(1 + d, 1, ...) has ||M* M - I||_F = 2d + d^2 = factor * SYMPLECTIC_TOL
    target = factor * SYMPLECTIC_TOL
    d = target / (1.0 + np.sqrt(1.0 + target))
    k = random_symplectic(n, np.random.default_rng(240 + n))
    m = k @ QMatrix.diag([1.0 + d] + [1.0] * (n - 1))
    assert abs(symplectic_residual(m) / target - 1.0) <= 1e-6
    assert is_symplectic(m) == inside
    for op, fn in SYMPLECTIC_CALLERS:
        if inside:
            fn(m)
        else:
            with pytest.raises(ValueError, match=f"{op} requires a symplectic matrix"):
                fn(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symplectic_callers_reject_non_finite(bad):
    m = random_symplectic(3, np.random.default_rng(250))
    m.data[2, 1, 3] = bad
    for op, fn in SYMPLECTIC_CALLERS:
        with pytest.raises(ValueError, match=f"{op}: matrix has a non-finite entry"):
            fn(m)


def test_expm_matches_scalar_exponential():
    s = Quaternion(0.0, 0.3, -0.7, 0.2)
    assert (expm(QMatrix.diag([s]))[0, 0] - exp_pure_oracle(s)).norm() <= 1e-13


def test_expm_lands_in_group():
    rng = np.random.default_rng(7)
    x = random_sp_algebra(3, rng)
    assert frob(x + x.conj_transpose()) <= 1e-12
    assert is_symplectic(expm(x), tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
def test_expm_matches_series_oracle(n):
    x = random_sp_algebra(n, np.random.default_rng(260 + n))
    k = expm(x)
    assert frob(k - expm_series_oracle(x)) <= 1e-11
    assert symplectic_residual(k) <= 1e-12


@pytest.mark.parametrize("scale", [1e-3, 3.0, 1e200], ids=["absolute", "relative", "huge"])
@pytest.mark.parametrize("factor, inside", [(0.99, True), (1.01, False)])
def test_expm_sp_rule_edge(scale, factor, inside):
    # X + d I has ||(X + d I) + (X + d I)*||_F = 2 d sqrt(n), and Re tr X = 0, so
    # ||X + d I||_F = sqrt(||X||_F^2 + n d^2), which moves the bound by far less than 1%
    n = 3
    x = random_sp_algebra(n, np.random.default_rng(280))
    x = x.scale(scale / frob(x))
    d = factor * SYMPLECTIC_TOL * max(1.0, scale) / (2.0 * np.sqrt(n))
    y = x + QMatrix.identity(n).scale(d)
    if inside:
        assert frob(expm(y) - expm(x)) <= 1e-12
    else:
        with pytest.raises(ValueError, match="expm requires an element of sp"):
            expm(y)


def test_frobenius_is_scale_safe():
    # the squares are summed on entries scaled by a power of two: the same bits as
    # the plain sum in the normal range, and finite where its squares overflow
    rng = np.random.default_rng(11)
    for rows, cols in [(1, 1), (3, 3), (2, 5)]:
        m = QMatrix(rng.normal(size=(rows, cols, 4)))
        assert m.frobenius() == float(np.sqrt(np.sum(m.data * m.data)))
        for e in (600, -600):
            assert m.scale(2.0 ** e).frobenius() == math.ldexp(m.frobenius(), e)
    assert QMatrix.zeros(2).frobenius() == 0.0
    assert QMatrix.identity(2).scale(1e200).frobenius() == pytest.approx(np.sqrt(2) * 1e200)
    with pytest.raises(ValueError, match="expm requires an element of sp"):
        expm(QMatrix.identity(2).scale(1e200))


def test_frobenius_past_the_float_maximum_names_the_norm():
    # every component 8e307 is finite, but ||M||_F = 8e307 sqrt(36) is not
    big = QMatrix(np.full((3, 3, 4), 8e307))
    with pytest.raises(OverflowError, match="Frobenius norm outside the float range"):
        big.frobenius()
    # a skew-Hermitian X of that size passes the sp(n) test (X + X* = 0) and is
    # refused by its own norm, which bounds the test
    x = (big - big.conj_transpose()).scale(0.5)
    assert (x + x.conj_transpose()).frobenius() == 0.0
    with pytest.raises(OverflowError, match="Frobenius norm outside the float range"):
        expm(x)


@pytest.mark.parametrize("make, match", [
    (lambda: QMatrix(np.zeros((2, 2, 3))), r"shape \(rows, cols, 4\)"),
    (lambda: QMatrix.zeros(2) @ QMatrix.zeros(3), "shape mismatch"),
    (lambda: QMatrix.zeros(1) + QMatrix.identity(3), "shape mismatch"),
    (lambda: QMatrix.zeros(1, 3) + QMatrix.zeros(3, 1), "shape mismatch"),
    (lambda: QMatrix.zeros(1, 3) - QMatrix.zeros(3, 1), "shape mismatch"),
    (lambda: QMatrix.zeros(2, 3).inverse(), "inverse requires a square matrix"),
    (lambda: require_symplectic(QMatrix.zeros(2, 3).data, "op"), "op requires a square matrix"),
    (lambda: Permutation([1, 0]) @ Permutation([0, 1, 2]), "size mismatch"),
    (lambda: Permutation.from_json({"one_line": "21"}), "one_line must be a list"),
    (lambda: word_to_permutation([0, -1], 3), "word letter -1 out of range for n=3"),
    (lambda: word_to_permutation([2], 3), "word letter 2 out of range for n=3"),
], ids=["data-shape", "matmul", "add-1x1-to-3x3", "add-row-to-column", "sub-row-from-column",
        "inverse-non-square", "require_symplectic-non-square", "permutation-sizes",
        "one_line-not-list", "word-letter-negative", "word-letter-n-1"])
def test_rejects_malformed_arguments(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("one_line", [[1.9, 2.2], [1, 2.5], [2, 1 + 1e-9], [float("inf"), 1],
                                      [float("nan"), 1], [True, 2], ["1", 2]])
def test_permutation_refuses_non_integral_entries(one_line):
    # from_json reads 1-based entries; int() would truncate 1.9 and 2.2 to the identity of S_2
    with pytest.raises(ValueError, match="one_line entry must be an integer"):
        Permutation.from_json({"one_line": one_line})
    if not any(isinstance(x, (bool, str)) for x in one_line):  # the 0-based entries direct
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation([x - 1 for x in one_line])
    # integral floats and numpy integers name the same permutation as ints
    assert Permutation.from_json({"one_line": [2.0, 1.0]}) == Permutation([1, 0])
    assert Permutation(np.array([1, 0])).one_line == (1, 0)


def test_qmatrix_json_round_trip():
    rng = np.random.default_rng(3)
    m = random_invertible(2, rng)
    m2 = QMatrix.from_json(json.loads(json.dumps(m.to_json())))
    assert frob(m - m2) == 0.0


@pytest.mark.parametrize("bad", [
    [],
    {"rows": 2, "cols": 2},
    {"rows": 0, "cols": 1, "entries": []},
    {"rows": 1, "cols": 1, "entries": [[[1, 0, 0]]]},
    {"rows": 2, "cols": 1, "entries": [[[1, 0, 0, 0]]]},
    {"rows": True, "cols": 1.9, "entries": [[[1, 0, 0, 0]]]},
    {"rows": 1, "cols": float("inf"), "entries": [[[1, 0, 0, 0]]]},
    {"rows": "1", "cols": 1, "entries": [[[1, 0, 0, 0]]]},
    {"rows": 2, "cols": 1, "entries": [[[1, 0, 0, 0]], [[1, 0, 0, 0], [1, 0, 0, 0]]]},
    {"rows": 1, "cols": 10 ** 12, "entries": [[[1, 0, 0, 0]]]},  # fails before allocating
])
def test_qmatrix_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        QMatrix.from_json(bad)


# -- permutations -----------------------------------------------------------

def test_permutation_matrix_convention():
    w = Permutation([2, 0, 1])
    pm = w.matrix()
    for j in range(3):
        assert (pm[w(j), j] - ONE).norm() == 0.0


def test_composition_matches_matrix_product_on_s3():
    for a in permutations(range(3)):
        for b in permutations(range(3)):
            v, w = Permutation(a), Permutation(b)
            lhs = (v @ w).matrix()
            rhs = v.matrix() @ w.matrix()
            assert frob(lhs - rhs) == 0.0


def test_length_changes_by_one_under_adjacent_transposition():
    for ol in permutations(range(4)):
        w = Permutation(ol)
        for r in range(3):
            tau = transposition(r, 4)
            assert abs(w.length() - (w @ tau).length()) == 1


def test_reduced_word_examples():
    assert Permutation.identity(4).reduced_word() == []
    wl = Permutation.longest(3)
    assert wl.one_line == (2, 1, 0)
    assert wl.length() == 3 and len(wl.reduced_word()) == 3
    w = Permutation([2, 0, 1])  # 1-based one-line [3, 1, 2]
    assert w.length() == 2
    word = w.reduced_word()
    assert len(word) == 2
    assert word_to_permutation(word, 3) == w


def test_words_match_the_oracles_on_s1_to_s7():
    # all 5913 permutations of n <= 7: the same reduced word, and the same
    # product for it, its reverse and the non-reduced word w w^-1
    count = 0
    for n in range(1, 8):
        for ol in permutations(range(n)):
            w = Permutation(ol)
            word = w.reduced_word()
            assert word == reduced_word_oracle(w)
            for letters in (word, word[::-1], word + word[::-1]):
                assert word_to_permutation(letters, n) == word_to_permutation_oracle(letters, n)
            count += 1
    assert count == 5913


def test_reduced_word_reproduces_all_of_s4():
    for ol in permutations(range(4)):
        w = Permutation(ol)
        word = w.reduced_word()
        assert len(word) == w.length()
        assert word_to_permutation(word, 4) == w


def test_permutation_inverse_and_json():
    w = Permutation([2, 0, 3, 1])
    assert w @ w.inverse() == Permutation.identity(4)
    assert Permutation.from_json(w.to_json()) == w
    assert w.to_json() == {"one_line": [3, 1, 4, 2]}  # 1-indexed on the wire
    with pytest.raises(ValueError):
        Permutation.from_json({"cycles": []})
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


# -- embeddings (the oracle of flags.leaf_point) ------------------------------

def test_embed_identity():
    assert frob(embed_sp2(QMatrix.identity(2), 0, 4) - QMatrix.identity(4)) == 0.0


def test_embed_transposition():
    p12 = transposition(0, 2).matrix()
    expect = transposition(0, 3).matrix()
    assert frob(embed_sp2(p12, 0, 3) - expect) == 0.0


def test_embed_is_homomorphism():
    rng = np.random.default_rng(5)
    for r, n in [(0, 3), (1, 3), (2, 4)]:
        a = random_symplectic(2, rng)
        b = random_symplectic(2, rng)
        lhs = embed_sp2(a @ b, r, n)
        rhs = embed_sp2(a, r, n) @ embed_sp2(b, r, n)
        assert frob(lhs - rhs) <= 1e-12


def test_embed_range_checked():
    with pytest.raises(ValueError):
        embed_sp2(QMatrix.identity(2), 2, 3)
    with pytest.raises(ValueError):
        embed_sp2(QMatrix.identity(3), 0, 4)
