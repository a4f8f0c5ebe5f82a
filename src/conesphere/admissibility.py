"""Cone-angle bookkeeping: the odd-lattice distance.

Normalized cone angles are beta_j = (cone angle)/(2*pi), passed as a plain
sequence of floats: ConeAngleSpec.normalized(), or the cone angles of
metric.cone_angle_tuple over 2*pi.  Spherical cone metrics on the sphere
require the L1 distance from beta_vec - 1 to the set of integer vectors
with odd coordinate sum to be at least 1; the glued football family sits
exactly on that boundary.
"""

from __future__ import annotations

import itertools
import math


def mp_distance(beta_vec) -> float:
    """L1 distance from beta_vec - 1 to the odd integer lattice.

    The lattice is the integer vectors with odd coordinate sum: round each
    x to m; on an even sum, move the first m farthest from its x to the
    other integer next to x, the cheapest flip, which adds 1 - 2*|x - m|.
    """
    x = [b - 1.0 for b in beta_vec]
    rounded = [round(xi) for xi in x]
    if sum(rounded) % 2 == 0:
        j = max(range(len(x)), key=lambda i: abs(x[i] - rounded[i]))
        rounded[j] += 1 if x[j] >= rounded[j] else -1
    # fsum keeps the result identical to the enumeration oracle even when
    # a mathematically tied lattice point sums in a different order.
    return math.fsum(abs(xi - mi) for xi, mi in zip(x, rounded))


def mp_distance_bruteforce(beta_vec) -> float:
    """Exhaustive-search oracle for mp_distance over a bounded integer box.

    Enumerates every integer vector whose coordinates lie within 2 of the
    rounded ones (the L1 minimizer never strays further than one flip) and
    keeps the admissible minimum.  Exponential in the dimension; intended
    for cross-checks in few dimensions.
    """
    x = [b - 1.0 for b in beta_vec]
    centers = [round(xi) for xi in x]
    best = None
    ranges = [range(c - 2, c + 3) for c in centers]
    for m in itertools.product(*ranges):
        if sum(m) % 2 == 0:
            continue
        cost = math.fsum(abs(xi - mi) for xi, mi in zip(x, m))
        if best is None or cost < best:
            best = cost
    return best
