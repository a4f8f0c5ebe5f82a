"""Oracles shared by the test modules, written apart from the library.

tangent and corner measure angles on the unit sphere from explicit vectors,
with no spherical trigonometry; golden_minimize is a derivative-free line
search that locates what the library computes in closed form or by Newton.
"""

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def tangent(at, to):
    """Unit tangent at `at` of the great-circle arc toward `to`."""
    t = to - np.dot(to, at) * at
    return t / np.linalg.norm(t)


def corner(at, p, q):
    """Interior angle at `at` between the arcs to p and q."""
    u, v = tangent(at, p), tangent(at, q)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def golden_minimize(f, lo, hi, width):
    """Golden-section search for a minimum of f in [lo, hi].

    Shrinks the bracket until it is at most width wide and returns its
    midpoint.
    """
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > width:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)
