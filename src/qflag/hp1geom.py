"""Chart-level geometry on the quaternionic projective line.

HP^1 is the quotient of Sp(2) by left multiplication with diagonal unit
quaternions.  Two charts cover it:

* South (coordinate v): ``v(M) = M21^{-1} M22``, covering the open 4-cell;
* North (coordinate u): ``u(M) = M22^{-1} M21``, with ``u = 0`` at the
  identity coset (the North pole).

Both maps are invariant under left multiplication by ``diag(unit, unit)``,
so they are well defined on cosets.  The 4-vector field of interest is the
multiplicative field ``(L_k)_* Lambda - (R_k)_* Lambda`` pushed to the chart.
Its two translations are two Jacobians at k in closed form: the action J,
``X -> d/dt chart(exp(tX) k) = (1 + |c|^2) X21``, and the flow J_flow,
``X -> d/dt chart(k exp(tX))``, the quaternionic Moebius field
``X12 + c X22 - X11 c - c X21 c`` (South; indices 1, 2 swapped on the North).
Since ``exp(t Ad_k X) k = k exp(tX)``, ``J Ad_k = J_flow``, so the field is
``J_flow Lambda - J Lambda``: ``Ad_k Lambda - Lambda`` right-trivialized.
Both Jacobians are quadratic in c, the monomials 1, c_i, c_i c_l of c times a
per-chart table of 0s and +-1s built on first use, so their unit central
differences are their exact derivatives: the Lie derivative needs no step.

Every evaluation runs on an array of points of one chart, an ``(m, 4)``
array of coordinates; a function of one :class:`ChartPoint` is a batch of
one.  By Cauchy-Binet the pushforward of a 4-vector ``P = sum_t c_t e_t``
through a 4 x dim Jacobian J is ``sum_t c_t det(J[:, t])``, the 4 x 4 minors
of J on the terms of P; through J_flow it is that of ``Ad_k P``, without
expanding ``Lambda^4 Ad_k . P`` over all C(dim, 4) subsets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hmat import QMatrix
from .liealg import (DualVector, Multivector, _canonicalize, _factors, four_bracket,
                     lambda_element, sp_basis)
from .quat import Quaternion, qinv, qnorm2, qprod

__all__ = [
    "Chart",
    "ChartPoint",
    "ChartBoundaryError",
    "FieldSample",
    "south_coord",
    "north_coord",
    "coset_rep",
    "action_jacobian",
    "flow_jacobian",
    "pushforward_coeff",
    "bruhat_field",
    "invariant_field",
    "rank_at",
    "fourvector_rank",
    "hamiltonian_field",
    "lie_derivative_check",
    "radial_profile",
]

# Both chart maps divide by one entry of the matrix (M21 on the South chart,
# M22 on the North), s = 1/sqrt(1 + rho^2) on coset_rep, rho = |coordinate|.
# A point whose entry is at most CHART_EPS (rho >= ~1e10) is off the chart; a
# batch holding one raises ChartBoundaryError as a whole (the CLI exits 2).
CHART_EPS = 1e-10
# fourvector_rank misses a contraction direction weaker than this, relative
RANK_RTOL = 1e-9


class Chart(enum.Enum):
    SOUTH = "south"
    NORTH = "north"


class ChartBoundaryError(ValueError):
    """The chart map is undefined at (or too close to) this matrix."""


@dataclass(frozen=True)
class ChartPoint:
    chart: Chart
    coord: Quaternion

    @staticmethod
    def south(v: Quaternion) -> "ChartPoint":
        return ChartPoint(Chart.SOUTH, v)

    @staticmethod
    def north(u: Quaternion) -> "ChartPoint":
        return ChartPoint(Chart.NORTH, u)


@dataclass(frozen=True)
class FieldSample:
    """Coefficient f of a chart 4-vector f * d1^d2^d3^d4."""

    at: ChartPoint
    coeff: float


def south_coord(m: QMatrix) -> Quaternion:
    return _chart_map(Chart.SOUTH, m)


def north_coord(m: QMatrix) -> Quaternion:
    return _chart_map(Chart.NORTH, m)


def _coset_reps(chart: Chart, coords: np.ndarray) -> np.ndarray:
    """``(m, 2, 2, 4)`` symplectic coset representatives of ``(m, 4)`` coordinates c:
    ``s [[-conj(c), 1], [1, c]]`` (South) or ``s [[1, -conj(c)], [c, 1]]`` (North),
    with ``s = 1/sqrt(1 + |c|^2)``."""
    s = 1.0 / np.sqrt(1.0 + qnorm2(coords))
    col = 0 if chart is Chart.SOUTH else 1  # the column of -conj(c) s
    reps = np.zeros((len(coords), 2, 2, 4))
    reps[:, 1, 1 - col] = coords * s[:, None]
    reps[:, 0, col] = reps[:, 1, 1 - col] * (-1.0, 1.0, 1.0, 1.0)
    reps[:, 0, 1 - col, 0] = reps[:, 1, col, 0] = s
    return reps


def _require_on_chart(chart: Chart, denom: np.ndarray) -> None:
    """Fail the whole batch if any chart denominator ``|a|`` is at most CHART_EPS."""
    if np.any(denom <= CHART_EPS):
        raise ChartBoundaryError(
            f"{chart.value} chart undefined: denominator entry at most {CHART_EPS:g}")


def _chart_map(chart: Chart, m: QMatrix) -> Quaternion:
    """The coordinate ``a^{-1} b`` of M, with ``(a, b) = (M21, M22)`` on the
    South chart and ``(M22, M21)`` on the North."""
    a, b = m.data[1] if chart is Chart.SOUTH else m.data[1, ::-1]
    _require_on_chart(chart, np.sqrt(qnorm2(a)))
    return Quaternion.from_array(qprod(qinv(a), b))


@lru_cache(maxsize=None)
def _jacobian_table(chart: Chart) -> np.ndarray:
    """``(21, 2, 4, dim)`` coefficients, each 0 or +-1, of both Jacobians on the
    monomials 1, c_i, c_i c_l of ``c = sum_i c_i e_i``.  With ``(p, q) = (0, 1)``
    (South) or ``(1, 0)`` (North), the action's are ``X21``, 0, ``delta_il X21``
    and the flow's ``Xpq``, ``e_i Xqq - Xpp e_i``, ``-e_i Xqp e_l``."""
    x = np.moveaxis(sp_basis(2).data, 0, 2)  # x[i, j]: entry (i, j) of every basis element
    p, q = (0, 1) if chart is Chart.SOUTH else (1, 0)
    e = np.eye(4)[:, None]  # e[i]: the unit e_i, broadcast over the basis
    action = [x[1, 0], np.zeros((4, *x.shape[2:])), np.eye(4)[:, :, None, None] * x[1, 0]]
    flow = [x[p, q], qprod(e, x[q, q]) - qprod(x[p, p], e), -qprod(qprod(e[:, None], x[q, p]), e)]
    table = np.stack([np.concatenate([t.reshape(-1, *x.shape[2:]) for t in side])
                      for side in (action, flow)], axis=1).swapaxes(-1, -2).copy()
    table.flags.writeable = False  # one array shared by every caller
    return table


def _jacobians(chart: Chart, coords: np.ndarray) -> np.ndarray:
    """``(m, 2, 4, dim)`` Jacobians of the action (index 0) and the flow (index 1)
    at the coset representatives k of the ``(m, 4)`` coordinates c: the monomials
    1, c_i, c_i c_l of c times :func:`_jacobian_table`.
    On the South chart ``k = s [[-conj(c), 1], [1, c]]``, so along ``kdot``
    the coordinate ``a^{-1} b`` moves by ``(bdot - adot c) / s``, where:
    row 2 of X k is ``s (X22 - X21 conj(c), X21 + X22 c)``: ``(1 + |c|^2) X21``;
    row 2 of k X is ``s (X11 + c X21, X12 + c X22)``: ``X12 + c X22 - X11 c - c X21 c``.
    The North k is the South one times ``P = [[0, 1], [1, 0]]``, read in swapped
    order: the same action, and the flow of ``P X P`` (indices 1, 2 swapped)."""
    _require_on_chart(chart, 1.0 / np.sqrt(1.0 + qnorm2(coords)))  # k's denominator is s
    quadratic = (coords[:, :, None] * coords[:, None]).reshape(-1, 16)
    monomials = np.concatenate([np.ones((len(coords), 1)), coords, quadratic], axis=1)
    table = _jacobian_table(chart)
    return (monomials @ table.reshape(len(table), -1)).reshape(-1, *table.shape[1:])


def _pushforward(jac: np.ndarray, mv: Multivector) -> np.ndarray:
    """Coefficients of d1^d2^d3^d4 in the images of a grade-4 multivector
    under ``(..., 4, dim)`` Jacobians: the minors of its terms' columns."""
    terms, coeffs = mv.terms()
    return np.linalg.det(jac[..., terms].swapaxes(-2, -3)) @ coeffs


def _bruhat_coeffs(chart: Chart, coords: np.ndarray) -> np.ndarray:
    """Bruhat field coefficients ``(m,)`` at the ``(m, 4)`` coordinates, Lambda
    pushed through the flow minus through the action.  At k = I the two
    Jacobians are equal and the coefficient is exactly 0."""
    pushed = _pushforward(_jacobians(chart, coords), lambda_element(2))
    return pushed[:, 1] - pushed[:, 0]


def coset_rep(p: ChartPoint) -> QMatrix:
    """Symplectic coset representative whose chart coordinate is p.coord."""
    return QMatrix(_coset_reps(p.chart, p.coord.to_array()[None])[0])


def action_jacobian(p: ChartPoint) -> np.ndarray:
    """4 x dim(sp(2)) real matrix of X -> d/dt chart(exp(tX) k) at t = 0."""
    return _jacobians(p.chart, p.coord.to_array()[None])[0, 0]


def flow_jacobian(p: ChartPoint) -> np.ndarray:
    """Jacobian of the right action: X -> d/dt chart(k exp(tX)) at t = 0."""
    return _jacobians(p.chart, p.coord.to_array()[None])[0, 1]


def pushforward_coeff(p: ChartPoint, mv: Multivector) -> float:
    """Coefficient of d1^d2^d3^d4 in the image of a grade-4 multivector."""
    if mv.grade != 4 or mv.n != 2:
        raise ValueError("pushforward expects a grade-4 multivector over sp(2)")
    return float(_pushforward(action_jacobian(p), mv))


def bruhat_field(p: ChartPoint) -> FieldSample:
    """Pushforward of (L_k)_* Lambda - (R_k)_* Lambda at the coset of k = coset_rep(p)."""
    return FieldSample(at=p, coeff=float(_bruhat_coeffs(p.chart, p.coord.to_array()[None])[0]))


def invariant_field(p: ChartPoint) -> FieldSample:
    """Rotation-invariant reference profile (1 + rho^2)^4, normalized at v = 0."""
    if p.chart is not Chart.SOUTH:
        raise ValueError("invariant_field is defined on the South chart")
    rho2 = p.coord.norm2()
    return FieldSample(at=p, coeff=(1.0 + rho2) ** 4)


# ---------------------------------------------------------------------------
# Rank of 4-vectors via the contraction map
# ---------------------------------------------------------------------------

def fourvector_rank(coeffs: dict[tuple[int, ...], float], dim: int) -> int:
    """Rank, relative to ``RANK_RTOL``, of the contraction map Lambda^3 V* -> V
    of a constant 4-vector with terms canonical as in :class:`Multivector`:
    its matrix of contractions with the basis 3-covectors has nonzero rows
    only for the 3-subsets the terms leave after dropping one factor."""
    _, val, idx = _canonicalize(coeffs, 4, dim)
    if not len(val):
        return 0
    # pairing sign: parity of moving the dropped factor past the others
    col, rest, signed = _factors(idx, val)
    subsets, row = np.unique(rest, axis=0, return_inverse=True)
    mat = np.zeros((len(subsets), dim))
    mat[row.ravel(), col] = signed  # one term per (subset, column): no collisions
    return int(np.linalg.matrix_rank(mat, rtol=RANK_RTOL))


def rank_at(p: ChartPoint) -> int:
    """Rank of the chart 4-vector f d1^d2^d3^d4 of the pushed-forward field at
    p: 4 where f is nonzero, and 0 where the field vanishes exactly."""
    return 4 if bruhat_field(p).coeff != 0.0 else 0


def hamiltonian_field(p: ChartPoint, df1, df2, df3) -> np.ndarray:
    """Contraction of the chart 4-vector with df1 ^ df2 ^ df3.

    Trilinear and alternating in the covector arguments; the orientation
    convention is fixed by X^m = f * det(rows df1, df2, df3, e_m).
    """
    dfs = np.broadcast_to(np.array([df1, df2, df3], dtype=float), (4, 3, 4))
    return bruhat_field(p).coeff * np.linalg.det(np.concatenate([dfs, np.eye(4)[:, None]], 1))


# ---------------------------------------------------------------------------
# Lie-derivative check of the multiplicative-action identity
# ---------------------------------------------------------------------------

def lie_derivative_check(p: ChartPoint, x: Multivector) -> float:
    """|LHS - RHS| for the identity L_{gamma(X)} xi = wedge^4 gamma(ad_X Lambda).

    LHS is the Lie derivative of the chart field f * d^4 along the chart
    vector field b = J_flow X of the right action of X, b . grad f - f div b,
    exact: both Jacobians are quadratic in c, so d_m J is the unit central
    difference (J(c + e_m) - J(c - e_m)) / 2, and one Jacobian pass at c and
    c +- e_m gives J and every d_m J.  By Jacobi's formula d_m of each minor
    of f is the sum over rows r of the minor with row r replaced by d_m of it.
    RHS pushes ad_X Lambda through J_flow: :func:`four_bracket` of its rows, paired with X.
    """
    if p.chart is not Chart.SOUTH:
        raise ValueError("lie_derivative_check works on the South chart")
    xv, lam = x.as_vector(), lambda_element(2)
    steps = np.vstack([np.zeros(4), np.eye(4), -np.eye(4)])  # c, c + e_m, c - e_m
    jac = _jacobians(Chart.SOUTH, p.coord.to_array() + steps)
    dj = (jac[1:5] - jac[5:]) / 2.0  # (m, action/flow, 4, dim)
    # (m, r, action/flow, 4, dim): J with row r replaced by row r of d_m J
    swapped = np.where(np.eye(4, dtype=bool)[:, None, :, None], dj[:, None], jac[0])
    side = np.array([-1.0, 1.0])  # f: the flow pushforward minus the action one
    f, grad_f = _pushforward(jac[0], lam) @ side, _pushforward(swapped, lam).sum(1) @ side
    div_b = np.trace(dj[:, 1] @ xv)  # b = J_flow x, so d_m b = (d_m J_flow) x
    rhs = four_bracket(*(DualVector(2, row) for row in jac[0, 1])).coeffs @ xv
    return abs(float((jac[0, 1] @ xv) @ grad_f - f * div_b - rhs))


# ---------------------------------------------------------------------------
# Radial profile sampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bruhat_normalization() -> float:
    """The Bruhat coefficient at the South-chart origin v = 0, where its
    closed-form profile (1 + rho^2)(1 + 3 rho^4) is 1: the constant that
    scales the profile to 1 there."""
    return bruhat_field(ChartPoint.south(Quaternion())).coeff


def radial_profile(rhos, directions: int, seed: int):
    """Sampled profile rows for the Bruhat and invariant fields.

    Yields dict rows with keys rho, direction_seed, coeff_bruhat,
    coeff_invariant, ratio, expected_ratio, abs_err, ordered by (rho, seed).
    All (rho, direction) points are one batch.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(directions, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norm_const = bruhat_normalization()
    rhos = [float(rho) for rho in rhos]
    coords = (np.array(rhos).reshape(-1, 1, 1) * dirs).reshape(-1, 4)
    fbs = _bruhat_coeffs(Chart.SOUTH, coords) / norm_const
    fis = (1.0 + qnorm2(coords)) ** 4
    for r, (fb, fi) in enumerate(zip(fbs.tolist(), fis.tolist())):
        rho = rhos[r // directions]
        expected = (1.0 + 3.0 * rho ** 4) / (1.0 + rho ** 2) ** 3
        ratio = fb / fi
        yield {
            "rho": rho,
            "direction_seed": r % directions,
            "coeff_bruhat": fb,
            "coeff_invariant": fi,
            "ratio": ratio,
            "expected_ratio": expected,
            "abs_err": abs(ratio - expected),
        }
