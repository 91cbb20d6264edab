import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qflag.quat import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    qconj,
    qnorm2,
    qprod,
    quaternion_from_json,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def close(a: Quaternion, b: Quaternion, tol=1e-12) -> bool:
    return (a - b).norm() <= tol


def test_defining_relations():
    assert close(I * J, K)
    assert close(J * K, I)
    assert close(K * I, J)
    assert close(I * I, -ONE)
    assert close((ONE + I) * (ONE - I), Quaternion(2))


def test_minus_one_is_a_commutator():
    assert close(I * J * I.inverse() * J.inverse(), -ONE)


@given(quats, quats)
def test_norm_multiplicative(a, b):
    assert abs((a * b).norm() - a.norm() * b.norm()) <= 1e-12 * max(1.0, a.norm() * b.norm())


@given(quats, quats)
def test_conj_antihomomorphism(a, b):
    assert close((a * b).conj(), b.conj() * a.conj(), tol=1e-10)


@given(quats, quats)
def test_real_part_of_product_symmetric(a, b):
    assert abs((a * b).re - (b * a).re) <= 1e-10


@given(quats)
def test_inverse(a):
    if a.norm() < 1e-3:
        return
    assert close(a * a.inverse(), ONE, tol=1e-10)
    assert close(a.inverse() * a, ONE, tol=1e-10)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_json_round_trip():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert close(quaternion_from_json(json.loads(json.dumps(q.to_json()))), q, tol=0.0)


@pytest.mark.parametrize("bad", [
    [1, 2, 3],
    [1, 2, 3, 4, 5],
    {"re": 1},
    [1, 2, 3, "x"],
    [1, 2, 3, True],
    [1, 2, 3, float("inf")],
    [1, 2, 3, float("nan")],
    "1 2 3 4",
])
def test_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        quaternion_from_json(bad)


@pytest.mark.parametrize("other", ["1", None, [1, 0, 0, 0]])
def test_arithmetic_rejects_non_numbers(other):
    for op in (lambda q: q + other, lambda q: q - other, lambda q: other - q, lambda q: q * other):
        with pytest.raises(TypeError, match="cannot interpret"):
            op(Quaternion(1.0))


def test_vectorized_helpers_match_scalar():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 7, 4))
    for r in range(7):
        qa, qb = Quaternion.from_array(a[r]), Quaternion.from_array(b[r])
        assert np.allclose(qprod(a, b)[r], (qa * qb).to_array(), atol=1e-12)
        assert np.allclose(qconj(a)[r], qa.conj().to_array(), atol=0)
        assert abs(qnorm2(a)[r] - qa.norm2()) <= 1e-12
