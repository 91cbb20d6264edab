"""The two charts of the quaternionic projective line and their coset representatives.

HP^1 is the quotient of Sp(2) by left multiplication with diagonal unit
quaternions.  Two charts cover it:

* South (coordinate v): ``v(M) = M21^{-1} M22``, covering the open 4-cell;
* North (coordinate u): ``u(M) = M22^{-1} M21``, with ``u = 0`` at the
  identity coset (the North pole).

Both maps are invariant under left multiplication by ``diag(unit, unit)``,
so they are well defined on cosets.  This module needs no Lie algebra, so the
leaves and dressing orbits of :mod:`qflag.flags` load no :mod:`qflag.liealg`;
the fields on the charts are in :mod:`qflag.hp1geom`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .hmat import ChartBoundaryError, QMatrix
from .quat import Quaternion, qinv, qnorm2, qprod

__all__ = [
    "Chart",
    "ChartPoint",
    "south_coord",
]

# south_coord divides by the entry M21 of the matrix, the Jacobians by
# s = 1/sqrt(1 + rho^2) on the coset representative, rho = |coordinate|.  A point
# whose entry is at most CHART_EPS (rho >= ~1e10), or NaN, is off the chart; a
# batch holding one raises ChartBoundaryError as a whole (the CLI exits 2).
CHART_EPS = 1e-10


class Chart(enum.Enum):
    SOUTH = "south"
    NORTH = "north"


@dataclass(frozen=True)
class ChartPoint:
    """A point of one chart; ``ValueError`` unless its coordinate is finite."""

    chart: Chart
    coord: Quaternion

    def __post_init__(self):
        if not np.isfinite(self.coord.to_array()).all():
            raise ValueError(f"chart coordinate {self.coord!r} is not finite")

    @staticmethod
    def south(v: Quaternion) -> "ChartPoint":
        return ChartPoint(Chart.SOUTH, v)

    @staticmethod
    def north(u: Quaternion) -> "ChartPoint":
        return ChartPoint(Chart.NORTH, u)


def south_coord(m: QMatrix) -> Quaternion:
    """The South coordinate ``M21^{-1} M22`` of M; :class:`ChartBoundaryError`
    where ``|M21|`` is at most CHART_EPS or NaN."""
    a, b = m.data[1]
    _require_on_chart(Chart.SOUTH, np.sqrt(qnorm2(a)))
    return Quaternion.from_array(qprod(qinv(a), b))


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
    """Fail the whole batch with :class:`ChartBoundaryError` unless every chart
    denominator ``|a|`` exceeds CHART_EPS: one at most CHART_EPS, or NaN, is off the chart."""
    if not (denom > CHART_EPS).all():
        raise ChartBoundaryError(
            f"{chart.value} chart undefined: denominator entry at most {CHART_EPS:g}")
