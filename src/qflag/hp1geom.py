"""Chart-level geometry on the quaternionic projective line.

HP^1 is the quotient of Sp(2) by left multiplication with diagonal unit
quaternions.  Two charts cover it:

* South (coordinate v): ``v(M) = M21^{-1} M22``, covering the open 4-cell;
* North (coordinate u): ``u(M) = M22^{-1} M21``, with ``u = 0`` at the
  identity coset (the North pole).

Both maps are invariant under left multiplication by ``diag(unit, unit)``,
so they are well defined on cosets.  The 4-vector field of interest is
represented pointwise in the right-translation trivialization: its value
over the coset of ``k`` is ``Ad_k Lambda - Lambda``, pushed to chart
coordinates through the Jacobian of ``X -> d/dt chart(exp(tX) k)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hmat import QMatrix
from .liealg import (
    Multivector,
    ad_group_matrix,
    apply_exterior,
    lambda_element,
    sp_basis,
)
from .quat import Quaternion

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

CHART_EPS = 1e-10


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
    """Coefficient f of a chart 4-vector f * d1^d2^d3^d4, plus its dual 1/f."""

    at: ChartPoint
    coeff: float

    @property
    def dual_coeff(self) -> float:
        if self.coeff == 0.0:
            raise ZeroDivisionError("field vanishes here; no dual coefficient")
        return 1.0 / self.coeff


def south_coord(m: QMatrix) -> Quaternion:
    denom = m[1, 0]
    if denom.norm() <= CHART_EPS:
        raise ChartBoundaryError("South chart undefined: |M21| below threshold")
    return denom.inverse() * m[1, 1]


def north_coord(m: QMatrix) -> Quaternion:
    denom = m[1, 1]
    if denom.norm() <= CHART_EPS:
        raise ChartBoundaryError("North chart undefined: |M22| below threshold")
    return denom.inverse() * m[1, 0]


def coset_rep(p: ChartPoint) -> QMatrix:
    """Symplectic coset representative whose chart coordinate is p.coord."""
    c = p.coord
    s = 1.0 / math.sqrt(1.0 + c.norm2())
    if p.chart is Chart.SOUTH:
        rows = [[-c.conj() * s, Quaternion(s)], [Quaternion(s), c * s]]
    else:
        rows = [[Quaternion(s), -c.conj() * s], [c * s, Quaternion(s)]]
    return QMatrix.from_rows(rows)


def _chart_derivative(m: QMatrix, mdot: QMatrix, chart: Chart) -> Quaternion:
    """Derivative of the chart coordinate along a curve with velocity mdot."""
    if chart is Chart.SOUTH:
        a, b = m[1, 0], m[1, 1]
        da, db = mdot[1, 0], mdot[1, 1]
    else:
        a, b = m[1, 1], m[1, 0]
        da, db = mdot[1, 1], mdot[1, 0]
    if a.norm() <= CHART_EPS:
        raise ChartBoundaryError("chart derivative undefined: denominator entry ~ 0")
    ai = a.inverse()
    return -(ai * da * ai * b) + ai * db


def action_jacobian(p: ChartPoint) -> np.ndarray:
    """4 x dim(sp(2)) real matrix of X -> d/dt chart(exp(tX) k) at t = 0."""
    m = coset_rep(p)
    basis = sp_basis(2)
    cols = []
    for bm in basis.mats:
        vdot = _chart_derivative(m, bm @ m, p.chart)
        cols.append(vdot.to_array())
    return np.stack(cols, axis=1)


def flow_jacobian(p: ChartPoint) -> np.ndarray:
    """Jacobian of the right action: X -> d/dt chart(k exp(tX)) at t = 0."""
    m = coset_rep(p)
    basis = sp_basis(2)
    cols = []
    for bm in basis.mats:
        vdot = _chart_derivative(m, m @ bm, p.chart)
        cols.append(vdot.to_array())
    return np.stack(cols, axis=1)


def pushforward_coeff(p: ChartPoint, mv: Multivector) -> float:
    """Coefficient of d1^d2^d3^d4 in the image of a grade-4 multivector."""
    if mv.grade != 4 or mv.n != 2:
        raise ValueError("pushforward expects a grade-4 multivector over sp(2)")
    jac = action_jacobian(p)
    terms = np.array(list(mv.coeffs), dtype=np.intp).reshape(-1, 4)
    coeffs = np.fromiter(mv.coeffs.values(), dtype=float, count=len(terms))
    return float(np.linalg.det(jac[:, terms].transpose(1, 0, 2)) @ coeffs)


def bruhat_field(p: ChartPoint) -> FieldSample:
    """Pushforward of Ad_k Lambda - Lambda at the coset of k = coset_rep(p)."""
    lam = lambda_element(2)
    ad = ad_group_matrix(coset_rep(p), tol=1e-8)
    moved = apply_exterior(ad, lam) - lam
    return FieldSample(at=p, coeff=pushforward_coeff(p, moved))


def invariant_field(p: ChartPoint) -> FieldSample:
    """Rotation-invariant reference profile (1 + rho^2)^4, normalized at v = 0."""
    if p.chart is not Chart.SOUTH:
        raise ValueError("invariant_field is defined on the South chart")
    rho2 = p.coord.norm2()
    return FieldSample(at=p, coeff=(1.0 + rho2) ** 4)


# ---------------------------------------------------------------------------
# Rank of 4-vectors via the contraction map
# ---------------------------------------------------------------------------

def fourvector_rank(coeffs: dict[tuple[int, ...], float], dim: int,
                    rel_cutoff: float = 1e-9) -> int:
    """Rank of the contraction map Lambda^3 V* -> V of a constant 4-vector.

    Builds the C(dim,3) x dim matrix of contractions with basis 3-covectors
    and counts singular values above ``rel_cutoff`` times the largest.
    """
    rows = list(combinations(range(dim), 3))
    row_index = {t: r for r, t in enumerate(rows)}
    mat = np.zeros((len(rows), dim))
    for t, c in coeffs.items():
        for pos in range(4):
            m = t[pos]
            rest = t[:pos] + t[pos + 1:]
            # pairing sign: parity of moving slot `pos` past the others
            sign = 1.0 if pos % 2 == 0 else -1.0
            mat[row_index[rest], m] += sign * c
    if not np.any(mat):
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > rel_cutoff * sv[0]))


def rank_at(p: ChartPoint) -> int:
    """Rank of the chart 4-vector of the pushed-forward field at p."""
    f = bruhat_field(p).coeff
    return fourvector_rank({(0, 1, 2, 3): f}, 4)


def hamiltonian_field(p: ChartPoint, df1, df2, df3) -> np.ndarray:
    """Contraction of the chart 4-vector with df1 ^ df2 ^ df3.

    Trilinear and alternating in the covector arguments; the orientation
    convention is fixed by X^m = f * det(rows df1, df2, df3, e_m).
    """
    f = bruhat_field(p).coeff
    dfs = [np.asarray(d, dtype=float) for d in (df1, df2, df3)]
    out = np.zeros(4)
    for m in range(4):
        em = np.zeros(4)
        em[m] = 1.0
        out[m] = f * float(np.linalg.det(np.stack(dfs + [em])))
    return out


# ---------------------------------------------------------------------------
# Lie-derivative check of the multiplicative-action identity
# ---------------------------------------------------------------------------

def _south_field_coeff(v: np.ndarray) -> float:
    return bruhat_field(ChartPoint.south(Quaternion.from_array(v))).coeff


def _south_flow_vector(v: np.ndarray, x_vec: np.ndarray) -> np.ndarray:
    jac = flow_jacobian(ChartPoint.south(Quaternion.from_array(v)))
    return jac @ x_vec


def lie_derivative_check(p: ChartPoint, x: Multivector, h: float = 1e-4) -> float:
    """|LHS - RHS| for the identity L_{gamma(X)} xi = wedge^4 gamma(ad_X Lambda).

    LHS is the Lie derivative of the chart field f * d^4 along the chart
    vector field of the right action of X, computed as
    (b . grad f - f div b) with second-order central differences of step h.
    RHS pushes Ad_k (ad_X Lambda) through the same trivialization.
    """
    if p.chart is not Chart.SOUTH:
        raise ValueError("lie_derivative_check works on the South chart")
    from .liealg import ad_multivector

    v0 = p.coord.to_array()
    x_vec = x.as_vector()

    b0 = _south_flow_vector(v0, x_vec)
    f0 = _south_field_coeff(v0)
    grad_f = np.zeros(4)
    div_b = 0.0
    for m in range(4):
        e = np.zeros(4)
        e[m] = h
        grad_f[m] = (_south_field_coeff(v0 + e) - _south_field_coeff(v0 - e)) / (2 * h)
        div_b += (_south_flow_vector(v0 + e, x_vec)[m]
                  - _south_flow_vector(v0 - e, x_vec)[m]) / (2 * h)
    lhs = float(b0 @ grad_f) - f0 * div_b

    ad_k = ad_group_matrix(coset_rep(p), tol=1e-8)
    rhs_mv = apply_exterior(ad_k, ad_multivector(x, lambda_element(2)))
    rhs = pushforward_coeff(p, rhs_mv)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Radial profile sampling
# ---------------------------------------------------------------------------

def bruhat_normalization(rho_ref: float = 1e-3) -> float:
    """Constant scaling the Bruhat coefficient to 1 at the v -> 0 limit.

    Evaluated at a small reference radius and divided by the analytic radial
    profile there, so the returned constant carries no O(rho_ref^2) bias.
    """
    ref = bruhat_field(ChartPoint.south(Quaternion(rho_ref))).coeff
    return ref / ((1.0 + rho_ref ** 2) * (1.0 + 3.0 * rho_ref ** 4))


def radial_profile(rhos, directions: int, seed: int):
    """Sampled profile rows for the Bruhat and invariant fields.

    Yields dict rows with keys rho, direction_seed, coeff_bruhat,
    coeff_invariant, ratio, expected_ratio, abs_err, ordered by (rho, seed).
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(directions, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norm_const = bruhat_normalization()
    for rho in rhos:
        expected = (1.0 + 3.0 * rho ** 4) / (1.0 + rho ** 2) ** 3
        for d in range(directions):
            v = Quaternion.from_array(rho * dirs[d])
            pt = ChartPoint.south(v)
            fb = bruhat_field(pt).coeff / norm_const
            fi = invariant_field(pt).coeff
            ratio = fb / fi
            yield {
                "rho": float(rho),
                "direction_seed": d,
                "coeff_bruhat": fb,
                "coeff_invariant": fi,
                "ratio": ratio,
                "expected_ratio": expected,
                "abs_err": abs(ratio - expected),
            }
