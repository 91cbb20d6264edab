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
coordinates through the Jacobian J of ``X -> d/dt chart(exp(tX) k)``.

Every evaluation runs on an array of points of one chart, an ``(m, 4)``
array of coordinates; a function of one :class:`ChartPoint` is a batch of
one.  By Cauchy-Binet the pushforward of ``Lambda^4 A . P``, for a 4-vector
``P = sum_t c_t e_t``, is ``sum_t c_t det((J A)[:, t])``: the 4 x 4 minors of
the 4 x dim matrix ``J A`` on the terms of ``P``, without expanding
``Lambda^4 A . P`` over all C(dim, 4) subsets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .hmat import QMatrix
from .liealg import Multivector, ad_group_matrix, lambda_element, sp_basis
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

# Both chart maps and their derivatives divide by one entry of the matrix
# (M21 on the South chart, M22 on the North), which is 1/sqrt(1 + rho^2) on
# coset_rep, rho = |coordinate|.  A point whose entry is at most CHART_EPS
# (rho >= ~1e10) is off the chart: a batch holding one raises
# ChartBoundaryError as a whole, with no partial result, and the CLI exits 2.
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


def _jacobians(chart: Chart, reps: np.ndarray, side: str) -> np.ndarray:
    """``(m, 4, dim)`` Jacobians at the ``(m, 2, 2, 4)`` matrices k of
    ``X -> d/dt chart(exp(tX) k)`` (side "action") or ``chart(k exp(tX))``
    (side "flow") at t = 0.

    The coordinate is ``a^{-1} b``, with ``(a, b) = (k21, k22)`` on the South
    chart and ``(k22, k21)`` on the North; along a velocity ``kdot`` its
    derivative is ``a^{-1} (bdot - adot a^{-1} b)``.
    """
    basis = sp_basis(2).data
    if side == "action":  # row 2 of B k, for every basis element B
        row = qprod(basis[None, :, 1, :, None], reps[:, None]).sum(axis=2)
    else:  # row 2 of k B
        row = qprod(reps[:, None, 1, :, None], basis[None]).sum(axis=2)
    ia, ib = (0, 1) if chart is Chart.SOUTH else (1, 0)
    a = reps[:, 1, ia]
    if np.any(np.sqrt(qnorm2(a)) <= CHART_EPS):
        raise ChartBoundaryError(
            f"{chart.value} chart undefined: denominator entry at most {CHART_EPS:g}")
    ai = qinv(a)[:, None]
    coord = qprod(ai, reps[:, None, 1, ib])
    return qprod(ai, row[..., ib, :] - qprod(row[..., ia, :], coord)).swapaxes(1, 2)


def _pushforward(jac: np.ndarray, mv: Multivector) -> np.ndarray:
    """Coefficients of d1^d2^d3^d4 in the images of a grade-4 multivector
    under ``(..., 4, dim)`` Jacobians: the minors of its terms' columns."""
    terms = np.array(list(mv.coeffs), dtype=np.intp).reshape(-1, 4)
    coeffs = np.fromiter(mv.coeffs.values(), dtype=float, count=len(terms))
    return np.linalg.det(np.moveaxis(jac[..., terms], -2, -3)) @ coeffs


def _bruhat_coeffs(chart: Chart, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(m,)`` of Ad_k Lambda - Lambda pushed forward at the
    ``(m, 2, 2, 4)`` matrices k, and the ``(m, 4, dim)`` products J Ad_k, which
    push forward Ad_k P for any P.  At k = I the coefficient is exactly 0."""
    jac = _jacobians(chart, reps, "action")
    jad = jac @ ad_group_matrix(reps, tol=1e-8)
    lam = lambda_element(2)
    return _pushforward(jad, lam) - _pushforward(jac, lam), jad


def _at(p: ChartPoint) -> np.ndarray:
    """The ``(1, 2, 2, 4)`` coset representative of one point."""
    return _coset_reps(p.chart, p.coord.to_array()[None])


def coset_rep(p: ChartPoint) -> QMatrix:
    """Symplectic coset representative whose chart coordinate is p.coord."""
    return QMatrix(_at(p)[0])


def action_jacobian(p: ChartPoint) -> np.ndarray:
    """4 x dim(sp(2)) real matrix of X -> d/dt chart(exp(tX) k) at t = 0."""
    return _jacobians(p.chart, _at(p), "action")[0]


def flow_jacobian(p: ChartPoint) -> np.ndarray:
    """Jacobian of the right action: X -> d/dt chart(k exp(tX)) at t = 0."""
    return _jacobians(p.chart, _at(p), "flow")[0]


def pushforward_coeff(p: ChartPoint, mv: Multivector) -> float:
    """Coefficient of d1^d2^d3^d4 in the image of a grade-4 multivector."""
    if mv.grade != 4 or mv.n != 2:
        raise ValueError("pushforward expects a grade-4 multivector over sp(2)")
    return float(_pushforward(action_jacobian(p), mv))


def bruhat_field(p: ChartPoint) -> FieldSample:
    """Pushforward of Ad_k Lambda - Lambda at the coset of k = coset_rep(p)."""
    return FieldSample(at=p, coeff=float(_bruhat_coeffs(p.chart, _at(p))[0][0]))


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

def lie_derivative_check(p: ChartPoint, x: Multivector, h: float = 1e-3) -> float:
    """|LHS - RHS| for the identity L_{gamma(X)} xi = wedge^4 gamma(ad_X Lambda).

    LHS is the Lie derivative of the chart field f * d^4 along the chart
    vector field b of the right action of X, b . grad f - f div b, with the
    fourth-order central difference (8 (g(+h) - g(-h)) - (g(+2h) - g(-2h))) / 12h,
    the Richardson extrapolation of the second-order one.  RHS pushes
    Ad_k (ad_X Lambda) through the same trivialization.  The 17 stencil
    points are one batch.
    """
    if p.chart is not Chart.SOUTH:
        raise ValueError("lie_derivative_check works on the South chart")
    from .liealg import ad_multivector

    steps = h * np.array([1.0, -1.0, 2.0, -2.0])
    # row 1 + 4 s + m is the centre moved by steps[s] along coordinate m
    offsets = np.concatenate([np.zeros((1, 4)), (steps[:, None, None] * np.eye(4)).reshape(16, 4)])
    reps = _coset_reps(Chart.SOUTH, p.coord.to_array() + offsets)
    f, jad = _bruhat_coeffs(Chart.SOUTH, reps)
    b = _jacobians(Chart.SOUTH, reps, "flow") @ x.as_vector()
    weights = np.array([8.0, -8.0, -1.0, 1.0]) / (12.0 * h)
    grad_f = weights @ f[1:].reshape(4, 4)
    div_b = float(np.sum(weights @ np.diagonal(b[1:].reshape(4, 4, 4), axis1=1, axis2=2)))
    lhs = float(b[0] @ grad_f - f[0] * div_b)
    rhs = float(_pushforward(jad[0], ad_multivector(x, lambda_element(2))))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Radial profile sampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
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
    All (rho, direction) points are one batch.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(directions, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norm_const = bruhat_normalization()
    rhos = [float(rho) for rho in rhos]
    coords = (np.array(rhos).reshape(-1, 1, 1) * dirs).reshape(-1, 4)
    fbs = _bruhat_coeffs(Chart.SOUTH, _coset_reps(Chart.SOUTH, coords))[0] / norm_const
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
