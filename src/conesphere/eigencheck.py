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

import numpy as np

from .sphtrig import PI


def radial_residual(n: int, delta: float, u=np.cos) -> float:
    """Max |u'' + cot(r) u' + 2u| over the interior of n uniform nodes.

    The nodes span [delta, pi - delta], the poles excluded, and the
    derivatives are central differences.  u maps the array of nodes to its
    values; the default u = cos is the eigenfunction candidate, and
    another profile (e.g. cos(2r)) provides a negative control.
    """
    h = (PI - 2.0 * delta) / (n - 1)
    r = delta + np.arange(n) * h
    vals = u(r)
    mid, inner = vals[1:-1], r[1:-1]
    d2 = (vals[2:] - 2.0 * mid + vals[:-2]) / (h * h)
    d1 = (vals[2:] - vals[:-2]) / (2.0 * h)
    res = d2 + np.cos(inner) / np.sin(inner) * d1 + 2.0 * mid
    return float(np.max(np.abs(res)))
