"""Finite-difference check that cos(r) solves u'' + cot(r) u' + 2u = 0 on a football.

In geodesic polar coordinates a football metric is dr^2 + a^2 sin^2(r) dtheta^2;
for radial functions its Laplacian reduces to u'' + cot(r) u', independent of
the cone factor a.  The function cos(r) is an eigenfunction with eigenvalue 2.
The check reads no property of a metric: it measures the central-difference
residual of cos(r) and its convergence order on a fixed grid, so it tests
the discretisation and passes whatever metric is at hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sphtrig import PI


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes on [delta, pi - delta]; the poles are excluded."""

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n}")
        if not (0.0 < self.delta < PI / 2.0):
            raise ValueError(f"delta = {self.delta!r} outside (0, pi/2)")

    @property
    def spacing(self) -> float:
        return (PI - 2.0 * self.delta) / (self.n - 1)

    def nodes(self) -> list[float]:
        h = self.spacing
        return [self.delta + i * h for i in range(self.n)]


def radial_residual(g: RadialGrid, u=math.cos) -> float:
    """Max |u'' + cot(r) u' + 2u| over interior nodes, central differences.

    The default u = cos is the eigenfunction candidate; passing another
    profile (e.g. cos(2r)) provides a negative control.
    """
    r = g.nodes()
    h = g.spacing
    vals = [u(x) for x in r]
    worst = 0.0
    for i in range(1, g.n - 1):
        d2 = (vals[i + 1] - 2.0 * vals[i] + vals[i - 1]) / (h * h)
        d1 = (vals[i + 1] - vals[i - 1]) / (2.0 * h)
        cot = math.cos(r[i]) / math.sin(r[i])
        res = d2 + cot * d1 + 2.0 * vals[i]
        worst = max(worst, abs(res))
    return worst


def convergence_orders(n: int, delta: float, refinements: int = 2) -> list[float]:
    """Observed orders log2(res(h)/res(h/2)) over successive grid halvings."""
    residuals = []
    nodes = n
    for _ in range(refinements + 1):
        residuals.append(radial_residual(RadialGrid(nodes, delta)))
        nodes = 2 * (nodes - 1) + 1
    return [math.log2(residuals[i] / residuals[i + 1])
            for i in range(refinements)]

