"""Finite-difference check that cos(r) solves u'' + cot(r) u' + 2u = 0 on a football.

In geodesic polar coordinates a football metric is dr^2 + a^2 sin^2(r) dtheta^2;
for radial functions its Laplacian reduces to u'' + cot(r) u', independent of
the cone factor a.  The function cos(r) is an eigenfunction with eigenvalue 2.
The check reads no property of a metric: radial_residual measures the
central-difference residual of cos(r) on one grid, and suites.eigen_suite
reads its convergence order off three grids, each halving the spacing, so
it tests the discretisation and passes whatever metric is at hand.
"""

from __future__ import annotations

import math

from .sphtrig import PI


def radial_residual(n: int, delta: float, u=math.cos) -> float:
    """Max |u'' + cot(r) u' + 2u| over the interior of n uniform nodes.

    The nodes span [delta, pi - delta], the poles excluded, and the
    derivatives are central differences.  The default u = cos is the
    eigenfunction candidate; passing another profile (e.g. cos(2r))
    provides a negative control.
    """
    h = (PI - 2.0 * delta) / (n - 1)
    r = [delta + i * h for i in range(n)]
    vals = [u(x) for x in r]
    worst = 0.0
    for i in range(1, n - 1):
        d2 = (vals[i + 1] - 2.0 * vals[i] + vals[i - 1]) / (h * h)
        d1 = (vals[i + 1] - vals[i - 1]) / (2.0 * h)
        cot = math.cos(r[i]) / math.sin(r[i])
        res = d2 + cot * d1 + 2.0 * vals[i]
        worst = max(worst, abs(res))
    return worst

