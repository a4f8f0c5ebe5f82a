"""Direct verification suites for the geometric facts behind the rigidity result.

Each suite turns one ingredient of the rigidity argument into a concrete
numerical sweep:

* half_piece_solve(apex_half, d_half, ell, branch) reconstructs one
  Z2-symmetric half of a glued piece from its apex half-angle, its D-side
  half-angle and the slit length, and returns its outer side and the total
  corner angle collected at the 4*pi cone point, in closed form by Napier's
  rule.  Corner totals may exceed pi.  Nothing in the package calls it: the
  lemma2 and step1 suites read the uneven-split defect off the diagonal of
  solver.defect_scan, and the tests check that diagonal against two half
  pieces solved here.
* lemma3_sweep gives the extrema of the base-angle sum of triangles with a
  fixed base and fixed opposite angle in closed form: the isosceles shapes.
  Where there are none, angle_sum_branches shows the sum is monotone on
  every interval of base angles between the closed-form points where the
  number of triangles changes.
* lemma1_caseb_exclusion tabulates the bigon case of lemma 1 (two
  non-identical triangles over the chord) by its one closed form: the
  closure gap is (1 - cos beta) cos^2 l1, positive for every l1 != pi/2.
  It cannot fail, since it takes cos l5 from the bigon relation itself.

Every function takes plain numbers.  lemma3_sweep, angle_sum_branches and
lemma1_caseb_exclusion return the rows themselves, as dicts; the suites add
only their verdict keys.
"""

from __future__ import annotations

import math

from .sphtrig import PI, TWO_PI


class NoTriangleError(ValueError):
    """The given data cannot be realized by any spherical triangle."""


def half_piece_solve(apex_half: float, d_half: float, ell: float,
                     branch: str) -> tuple[float, float]:
    """One symmetric half of a glued piece: (outer side, corner), closed form.

    apex_half and d_half are the halves of the apex cone angle and of the
    D-side cone angle carried by this piece, both in (0, pi/2) so that the
    doubled piece keeps proper apexes; ell is the slit length l3 = l4, in
    (0, pi).  The outer side follows from the sine rule,
    sin(side) = sin(d_half) sin(ell) / sin(apex_half), on the acute branch
    in (0, pi/2] or the obtuse one in [pi/2, pi), which the rule alone
    cannot tell apart.  It reads a ratio up to 1e-12 above 1 as roundoff of
    1; beyond that, or at a ratio that underflows to 0, it raises
    NoTriangleError.  Doubled across its symmetry axis, the half piece is a
    kite whose chord between the two corner copies splits it into two
    isosceles triangles: legs side with apex angle 2*apex_half, and legs ell
    with apex angle 2*d_half.  The corner is the sum of one base angle of
    each, and the axis cuts each isosceles triangle into two right
    triangles, so Napier's rule gives every base angle B directly:
    cot B = cos(leg) * tan(half apex).
    """
    for name, v in (("apex_half", apex_half), ("d_half", d_half)):
        if not (0.0 < v < PI / 2.0):
            raise ValueError(f"{name} = {v!r} outside (0, pi/2)")
    if not (0.0 < ell < PI):
        raise ValueError(f"ell = {ell!r} outside (0, pi)")
    if branch not in ("acute", "obtuse"):
        raise ValueError(f"branch must be 'acute' or 'obtuse', got {branch!r}")
    ratio = math.sin(d_half) * math.sin(ell) / math.sin(apex_half)
    if not 0.0 < ratio <= 1.0 + 1e-12:
        raise NoTriangleError(f"sine-rule ratio {ratio!r} outside (0, 1]: "
                              f"no such triangle")
    # min caps the roundoff window at 1, so asin reads its argument in (0, 1].
    side = math.asin(min(ratio, 1.0))
    if branch == "obtuse":
        side = PI - side
    corner = (math.atan2(1.0, math.cos(side) * math.tan(apex_half))
              + math.atan2(1.0, math.cos(ell) * math.tan(d_half)))
    return side, corner


def sign(x: float) -> int:
    """Three-way sign of x: 1, -1, or 0 for +-0.0 (and nan)."""
    return int(x > 0.0) - int(x < 0.0)


def inequality_sign(ell: float, l1: float, l2: float) -> int:
    """Sign of sin(ell) * cos(ell) * sin((l1 - l2)/2)."""
    return sign(math.sin(ell) * math.cos(ell) * math.sin(0.5 * (l1 - l2)))


def _angle_sum_roots(alpha: float, ell: float, beta: float) -> list[float]:
    """All s in (alpha, alpha + pi) at which the dual cosine law holds.

    The law is cos(beta) = -cos(alpha)cos(u) + sin(alpha)sin(u)cos(ell) for
    the second base angle u = s - alpha.  It reads R cos(u - phi) = cos(beta),
    where (R cos phi, R sin phi) = (-cos alpha, sin alpha cos ell), and
    R > 0 since no double alpha has cos(alpha) == 0.0.  So the roots are
    u = phi -+ half (mod 2*pi), kept inside (1e-9, pi - 1e-9) and returned
    in ascending order, with cos(half) = cos(beta) / R.  Since
    R^2 = 1 - sin^2(alpha) sin^2(ell), R sin(half) is the square root of
    D = (sin beta - sin alpha sin ell)(sin beta + sin alpha sin ell), which is
    R^2 - cos^2(beta) factored, and half = atan2(sqrt(D), cos beta).  There
    is no root when D < 0.  Where the two roots meet, D is near 0 and
    acos(cos(beta) / R) would read an argument next to +-1, losing half the
    digits of half; the factors of D keep them.
    """
    x, y = -math.cos(alpha), math.sin(alpha) * math.cos(ell)
    sin_beta, prod = math.sin(beta), math.sin(alpha) * math.sin(ell)
    disc = (sin_beta - prod) * (sin_beta + prod)
    if disc < 0.0:
        return []
    phi = math.atan2(y, x)
    half = math.atan2(math.sqrt(disc), math.cos(beta))
    us = sorted((phi + sign * half) % TWO_PI for sign in (-1.0, 1.0))
    return [alpha + u for u in us if 1e-9 < u < PI - 1e-9]


def lemma3_sweep(ell: float, beta: float) -> tuple[dict, ...]:
    """The interior extrema of the base-angle sum s(alpha).

    For triangles with fixed base ell and fixed opposite angle beta, the
    extrema sit at the isosceles shapes alpha = s/2, where the dual cosine
    law reads cos^2(alpha) = (cos(ell) - cos(beta))/(1 + cos(ell)).  So there
    are two, alpha = acos(+-sqrt of that ratio), when cos(ell) > cos(beta),
    and none when cos(ell) < cos(beta).  At each, s is solved back from the
    law (the root nearest 2*alpha), so |alpha - s/2| tests the formula, and
    the kind comes from the second difference of s along that root branch.
    cos(ell) = cos(beta) is the degenerate case: the critical shape sits in
    a flat family and is reported as the one row (pi/2, pi, "degenerate").
    Each extremum is the report row {"alpha_crit", "s_crit", "kind"}, kind
    "minimum", "maximum" or "degenerate".
    """
    for name, value in (("ell", ell), ("beta", beta)):
        if not (0.0 < value < PI):
            raise ValueError(f"{name} = {value!r} outside (0, pi)")
    if abs(math.sin(ell)) < 1e-12:
        raise ValueError(f"ell = {ell!r} too close to a multiple of pi")
    cos_ell, cos_beta = math.cos(ell), math.cos(beta)
    if abs(cos_ell - cos_beta) < 1e-9:
        return ({"alpha_crit": PI / 2.0, "s_crit": PI, "kind": "degenerate"},)
    if cos_ell < cos_beta:
        return ()

    def s_near(a: float, target: float) -> float:
        roots = _angle_sum_roots(a, ell, beta)
        if not roots:
            raise NoTriangleError(
                f"no triangle with base angle {a!r} for ell = {ell!r}, "
                f"beta = {beta!r}")
        return min(roots, key=lambda s: abs(s - target))

    # tan(alpha) = cos(beta/2) / sqrt(sin((beta + ell)/2) sin((beta - ell)/2)),
    # with beta > ell here: no acos next to 1 where the extrema near 0, pi.
    y = math.cos(0.5 * beta)
    x = math.sqrt(math.sin(0.5 * (beta + ell)) * math.sin(0.5 * (beta - ell)))
    # Triangles exist only for sin(alpha) <= sin(beta)/sin(ell): the acute
    # extremum lies below the end of that interval, and the obtuse one
    # above pi minus it.  The ratio is positive, and asin reads it below 1.
    ratio = math.sin(beta) / math.sin(ell)
    end = math.asin(ratio) if ratio < 1.0 else math.inf
    extrema = []
    for a in (math.atan2(y, x), math.atan2(y, -x)):
        s = s_near(a, 2.0 * a)
        # Beta near pi puts the extrema within 1e-4 of 0 and pi, and within
        # 1e-4 of the end of their interval.
        h = min(1e-4, 0.5 * a, 0.5 * (PI - a), 0.5 * (end - min(a, PI - a)))
        curvature = s_near(a - h, s) + s_near(a + h, s) - 2.0 * s
        kind = "minimum" if curvature > 0.0 else "maximum"
        extrema.append({"alpha_crit": a, "s_crit": s, "kind": kind})
    return tuple(extrema)


# Evenly spaced base angles angle_sum_branches samples inside each interval;
# an interval narrower than SLIVER lies within the roundoff of its ends and
# of the 1e-9 margin of _angle_sum_roots, and is skipped.
BRANCH_NODES = 32
SLIVER = 1e-8


def angle_sum_branches(ell: float, beta: float) -> tuple[dict, ...]:
    """Trend of the base-angle sum s along every branch of triangles.

    The number of _angle_sum_roots changes only where a root leaves
    (alpha, alpha + pi), at alpha = beta or pi - beta, or where the two
    roots meet, at sin(alpha) = sin(beta)/sin(ell).  Those points cut (0, pi)
    into intervals.  Each one wider than SLIVER is sampled at BRANCH_NODES
    nodes strictly inside it, which must all have the same root count
    (AssertionError otherwise), and each root index there is one branch of
    s, the report row {"alpha_min", "alpha_max", "samples", "trend"}: its
    first and last node, the node count, and a trend of "increasing" or
    "decreasing" if s moves strictly one way between every pair of
    neighbours, "not monotone" otherwise.
    """
    cuts = {beta, PI - beta}
    ratio = math.sin(beta) / math.sin(ell)
    if ratio < 1.0:
        meet = math.asin(ratio)
        cuts |= {meet, PI - meet}
    ends = sorted({0.0, PI} | {c for c in cuts if 0.0 < c < PI})
    branches = []
    for lo, hi in zip(ends, ends[1:]):
        if hi - lo < SLIVER:
            continue
        alphas = [lo + (hi - lo) * k / (BRANCH_NODES + 1)
                  for k in range(1, BRANCH_NODES + 1)]
        root_sets = [_angle_sum_roots(a, ell, beta) for a in alphas]
        counts = {len(roots) for roots in root_sets}
        if len(counts) != 1:
            raise AssertionError(f"root count changes inside ({lo!r}, {hi!r}): "
                                 f"{sorted(counts)}")
        for s in zip(*root_sets):
            steps = [right - left for left, right in zip(s, s[1:])]
            trend = ("increasing" if all(d > 0.0 for d in steps)
                     else "decreasing" if all(d < 0.0 for d in steps)
                     else "not monotone")
            branches.append({"alpha_min": alphas[0], "alpha_max": alphas[-1],
                             "samples": len(s), "trend": trend})
    return tuple(branches)


def lemma1_caseb_exclusion(beta: float, l1_grid) -> tuple[dict, ...]:
    """One row per l1 of the non-identical (bigon) case, which cannot close.

    With l1 + l2 = pi the chord satisfies cos l5 = 1 + (cos beta - 1) sin^2 l1,
    and closing the slit triangle over that chord at apex angle alpha leaves
    the gap |1 + (cos l5 - 1) sin^2 alpha - cos beta|, smallest at
    alpha = pi/2, where it is |cos l5 - cos beta| = (1 - cos beta) cos^2 l1.
    That closed form is positive for every l1 != pi/2, so incompatible
    (gap > 0) holds at every node: no node can fail.  Both use
    1 - cos beta = 2 sin^2(beta/2): the difference cancels to 0 at small
    beta (at 2 of 1000 nodes at beta = 3e-6 and all of them at 1e-8).  Each
    row is {"l1", "cos_l5", "incompatible", "alpha_scan_min"}, the last the
    gap.
    """
    if not (0.0 < beta < PI):
        raise ValueError(f"beta = {beta!r} outside (0, pi)")
    # 1 - cos beta.
    versine = 2.0 * math.sin(0.5 * beta) ** 2
    rows = []
    for l1 in l1_grid:
        l1 = float(l1)
        if not (0.0 < l1 < PI):
            raise ValueError(f"l1 = {l1!r} outside (0, pi)")
        if abs(l1 - PI / 2.0) < 1e-9:
            raise ValueError("l1 = pi/2 is the identical-triangle case (a), "
                             "excluded from the grid")
        cos_l5 = 1.0 - versine * math.sin(l1) ** 2
        gap = versine * math.cos(l1) ** 2
        rows.append({"l1": l1, "cos_l5": cos_l5, "incompatible": gap > 0.0,
                     "alpha_scan_min": gap})
    return tuple(rows)
