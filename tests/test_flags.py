from itertools import permutations

import numpy as np
import pytest

from qflag import decomp, flags
from qflag.chart import ChartPoint
from qflag.decomp import leaf_signature
from qflag.flags import (
    TRIVIAL_PHASE_TOL,
    _leaf_jacobian,
    cell_of,
    leaf_dimension,
    leaf_point,
    orbit_probe,
    random_ru,
)
from qflag.hmat import Permutation, QMatrix, require_symplectic, word_to_permutation
from qflag.liealg import sp_basis
from qflag.hp1geom import coset_rep
from qflag.quat import Quaternion

from util import (ONE, is_symplectic, leaf_jacobian_fd_oracle, leaf_point_oracle,
                  random_unit_quaternion, reduced_words)


def sized_params(word, rng):
    """Generic parameters with |v| in [0.3, 1.5] (avoids measure-zero cell drops)."""
    out = []
    for _ in word:
        q = Quaternion.from_array(rng.normal(size=4))
        out.append(q * (float(rng.uniform(0.3, 1.5)) / q.norm()))
    return out


def test_leaf_point_empty_word():
    lp = leaf_point([], [], 3)
    assert (lp.matrix - QMatrix.identity(3)).frobenius() == 0.0
    sig = leaf_signature(lp.matrix)
    assert sig.w == Permutation(range(3))
    assert all((p - ONE).norm() == 0.0 for p in sig.phases)


def test_leaf_point_single_letter_at_zero():
    lp = leaf_point([0], [Quaternion()], 2)
    assert (lp.matrix - Permutation([1, 0]).matrix()).frobenius() == 0.0


def test_leaf_point_longest_word_signature():
    rng = np.random.default_rng(0)
    word = [0, 1, 0]
    for attempt in range(3):
        lp = leaf_point(word, sized_params(word, rng), 3)
        sig = leaf_signature(lp.matrix)
        if sig.w == Permutation.longest(3):
            break
    assert sig.w == Permutation.longest(3)
    assert max((p - ONE).norm() for p in sig.phases) <= 1e-8
    assert is_symplectic(lp.matrix, tol=1e-10)


def random_reduced_word(n, rng):
    """A reduced word of random length, each letter drawn among those that lengthen it."""
    word, ol = [], list(range(n))
    for _ in range(int(rng.integers(n * (n - 1) // 2 + 1))):
        r = int(rng.choice([r for r in range(n - 1) if ol[r] < ol[r + 1]]))
        ol[r], ol[r + 1] = ol[r + 1], ol[r]
        word.append(r)
    return word


def test_leaf_point_is_the_product_of_embedded_blocks():
    # the same four products per entry, summed by BLAS kernels that may round them
    # apart: at odd n, a word that moves the last column twice can differ by an ulp
    rng = np.random.default_rng(33)
    cases = [(word, 4) for word in reduced_words(4)]
    for n in (5, 6, 8):
        cases += [(random_reduced_word(n, rng), n) for _ in range(40)]
        cases.append((Permutation.longest(n).reduced_word(), n))
    for word, n in cases:
        params = [Quaternion.from_array(v) for v in 0.7 * rng.normal(size=(len(word), 4))]
        diff = leaf_point(word, params, n).matrix - leaf_point_oracle(word, params, n)
        assert np.abs(diff.data).max(initial=0.0) <= 4 * np.finfo(float).eps, (word, n)


def test_leaf_point_validation():
    with pytest.raises(ValueError):
        leaf_point([0], [], 2)  # length mismatch
    with pytest.raises(ValueError):
        leaf_point([0, 0], [Quaternion(), Quaternion()], 2)  # not reduced
    with pytest.raises(ValueError):
        leaf_point([5], [Quaternion()], 3)  # letter out of range


def test_cell_of():
    assert cell_of(QMatrix.identity(2)) == Permutation(range(2))
    kv = coset_rep(ChartPoint.south(Quaternion(0.4, -0.2, 0.9, 0.1)))
    assert cell_of(kv) == Permutation([1, 0])
    rng = np.random.default_rng(1)
    word = [1, 0]
    lp = leaf_point(word, sized_params(word, rng), 3)
    assert cell_of(lp.matrix) == word_to_permutation(word, 3)
    with pytest.raises(ValueError):
        cell_of(QMatrix.diag([2, 1]))


def test_leaf_dimension():
    assert leaf_dimension([], 3) == 0
    assert leaf_dimension([0], 2) == 4
    assert leaf_dimension([0, 1], 3) == 8
    assert leaf_dimension([0, 1, 0], 3) == 12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leaf_jacobian_matches_fd_oracle_on_every_reduced_word(n):
    rng = np.random.default_rng(40 + n)
    for word in reduced_words(n)[1:]:
        base = np.array([q.to_array() for q in sized_params(word, rng)])
        jac = _leaf_jacobian(word, base, n)
        assert jac.shape == (4 * len(word), sp_basis(n).dim)
        assert np.abs(jac - leaf_jacobian_fd_oracle(word, base, n)).max() <= 1e-9
        assert np.linalg.matrix_rank(jac) == 4 * len(word)
        assert leaf_dimension(word, n, seed=n) == 4 * len(word)


def test_leaf_dimension_rejects_unreduced_word():
    with pytest.raises(ValueError, match="not reduced"):
        leaf_dimension([0, 0], 3)


def test_random_ru_structure():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_ru(3, rng)
        for i in range(3):
            d = g[i, i]
            assert 0.5 <= d.re <= 2.0
            assert Quaternion(0, d.i, d.j, d.k).norm() == 0.0
            for j in range(i):
                assert g[i, j].norm() == 0.0


def test_orbit_probe_identity():
    report = orbit_probe(QMatrix.identity(3), samples=20, seed=0)
    assert report["kind"] == "orbit_probe"
    assert report["w"] == [1, 2, 3]
    assert report["phase_dev"] <= 1e-10


def test_orbit_probe_p12_reconstructs_kv():
    report = orbit_probe(Permutation([1, 0]).matrix(), samples=50, seed=1)
    assert report["phase_dev"] <= 1e-8
    assert report["kv_reconstruction_err"] <= 1e-9


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_orbit_probe_trivial_phase_edge(factor):
    # a base point whose phase lies within TRIVIAL_PHASE_TOL of 1 is read against the
    # k_v chart form, and reconstructs it only up to that phase
    d = factor * TRIVIAL_PHASE_TOL
    k = Permutation([1, 0]).matrix() @ QMatrix.diag([Quaternion(np.cos(d), np.sin(d)), Quaternion(1)])
    report = orbit_probe(k, samples=5, seed=0)
    if factor < 1:
        assert report["kv_reconstruction_err"] == pytest.approx(d, rel=1e-6)
    else:
        assert "kv_reconstruction_err" not in report


def test_orbit_probe_sigma_pw_n3():
    rng = np.random.default_rng(3)
    sigma = [random_unit_quaternion(rng) for _ in range(3)]
    for ol in permutations(range(3)):
        w = Permutation(ol)
        k = QMatrix.diag(sigma) @ w.matrix()
        report = orbit_probe(k, samples=25, seed=4)
        assert report["w"] == [i + 1 for i in w.one_line]
        assert report["phase_dev"] <= 1e-8
        assert "kv_reconstruction_err" not in report


def test_orbit_probe_checks_its_input_once(monkeypatch):
    calls = []

    def counted(data, op):
        calls.append(op)
        return require_symplectic(data, op)

    for module in (decomp, flags):
        monkeypatch.setattr(module, "require_symplectic", counted)
    orbit_probe(Permutation([1, 2, 0]).matrix(), samples=30, seed=0)
    assert calls == ["orbit_probe"]


def test_orbit_probe_requires_symplectic():
    with pytest.raises(ValueError):
        orbit_probe(QMatrix.diag([2, 1]), samples=1, seed=0)
