"""Direct verification suites for the geometric facts behind the rigidity result.

Each suite turns one ingredient of the rigidity argument into a concrete
numerical sweep:

* slit-piece solves (half_piece_solve) reconstruct one Z2-symmetric half of a
  glued piece from its apex half-angle, its D-side half-angle and the slit
  length, and report the total corner angle collected at the 4*pi cone
  point, in closed form by Napier's rule.  Corner totals may exceed pi.
* defect_node measures how far the corner total of two such pieces, with
  football angles (alpha, beta) and the D-angle split unevenly as
  (alpha - 2*eps, beta + 2*eps), misses 4*pi; step1_asymmetric_exclusion
  sweeps it over the slit length.  Lemma 2 is the case alpha = beta.
* lemma3_sweep gives the extrema of the base-angle sum of triangles with a
  fixed base and fixed opposite angle in closed form: the isosceles shapes.
  Where there are none, angle_sum_branches shows the sum is monotone on
  every interval of base angles between the closed-form points where the
  number of triangles changes.
* lemma1_caseb_exclusion tabulates the bigon case of lemma 1 (two
  non-identical triangles over the chord).  It cannot fail: it takes cos l5
  from the bigon relation itself, so every node restates sin^2 l1 < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sphtrig import (
    PI,
    TWO_PI,
    NoTriangleError,
    clamped_acos,
    sine_rule_side,
)


@dataclass(frozen=True)
class HalfPieceConfig:
    """One symmetric half of a glued piece.

    apex_half and d_half are the halves of the apex cone angle and of the
    D-side cone angle carried by this piece (both below pi/2 so the doubled
    piece keeps proper apexes); ell is the slit length l3 = l4 and branch
    chooses the acute or obtuse sine-rule solution for the outer side.
    """

    apex_half: float
    d_half: float
    ell: float
    branch: str

    def __post_init__(self):
        for name, v in (("apex_half", self.apex_half), ("d_half", self.d_half)):
            if not (0.0 < v < PI / 2.0):
                raise ValueError(f"{name} = {v!r} outside (0, pi/2)")
        if not (0.0 < self.ell < PI):
            raise ValueError(f"ell = {self.ell!r} outside (0, pi)")
        if self.branch not in ("acute", "obtuse"):
            raise ValueError(f"branch must be 'acute' or 'obtuse', got {self.branch!r}")


@dataclass(frozen=True)
class HalfPieceSolution:
    """Outer side length plus the corner angle at the 4*pi vertex."""

    side: float
    corner: float


@dataclass(frozen=True)
class Lemma2Defect:
    """Defect of the total corner angle against 4*pi for an uneven D-split."""

    l1: float
    l2: float
    alpha1: float
    alpha2: float
    defect: float


@dataclass(frozen=True)
class ExtremalityResult:
    """One interior extremum of the base-angle sum; kind classifies it."""

    alpha_crit: float
    s_crit: float
    kind: str  # "minimum" | "maximum" | "degenerate"


@dataclass(frozen=True)
class Lemma3Result:
    degenerate: bool
    extrema: tuple[ExtremalityResult, ...]


@dataclass(frozen=True)
class AngleSumBranch:
    """The base-angle sum along one root branch over a run of base angles."""

    alpha_min: float
    alpha_max: float
    samples: int
    trend: str  # "increasing" | "decreasing" | "not monotone"


@dataclass(frozen=True)
class CaseBRow:
    l1: float
    cos_l5: float
    bigon_ratio: float
    required_sin2_alpha: float
    incompatible: bool
    alpha_scan_min: float


@dataclass(frozen=True)
class DefectRow:
    ell: float
    result: Lemma2Defect | None

    @property
    def feasible(self) -> bool:
        return self.result is not None


def half_piece_solve(cfg: HalfPieceConfig) -> HalfPieceSolution:
    """Solve one half piece: its outer side and its corner, in closed form.

    The outer side follows from the sine rule with the requested branch; a
    ratio above 1 raises NoTriangleError.  Doubled across its symmetry
    axis, the half piece is a kite whose chord between the two corner
    copies splits it into two isosceles triangles: legs side with apex
    angle 2*apex_half, and legs ell with apex angle 2*d_half.  The corner
    is the sum of one base angle of each, and the axis cuts each isosceles
    triangle into two right triangles, so Napier's rule gives every base
    angle B directly: cot B = cos(leg) * tan(half apex).
    """
    side = sine_rule_side(cfg.apex_half, cfg.ell, cfg.d_half, cfg.branch)
    corner = (math.atan2(1.0, math.cos(side) * math.tan(cfg.apex_half))
              + math.atan2(1.0, math.cos(cfg.ell) * math.tan(cfg.d_half)))
    return HalfPieceSolution(side=side, corner=corner)


def defect_node(alpha: float, beta: float, eps: float, ell: float,
                regime: str) -> Lemma2Defect:
    """Corner-total defect for the D-split (alpha - 2*eps, beta + 2*eps).

    Each piece pairs a football angle with its share of the D-angle; both
    shares must lie in (0, pi).  regime "below" is the perturbation branch
    with l1, l2 < pi/2 (slit length ell above pi/2); "above" is the mirror
    branch.
    """
    d1, d2 = alpha - 2.0 * eps, beta + 2.0 * eps
    if not (0.0 < d1 < PI and 0.0 < d2 < PI):
        raise ValueError(f"D-split {d1!r}, {d2!r} leaves (0, pi)")
    _check_regime(ell, regime)
    branch = "acute" if regime == "below" else "obtuse"
    p1 = half_piece_solve(HalfPieceConfig(0.5 * alpha, 0.5 * d1, ell, branch))
    p2 = half_piece_solve(HalfPieceConfig(0.5 * beta, 0.5 * d2, ell, branch))
    return Lemma2Defect(l1=p1.side, l2=p2.side,
                        alpha1=p1.corner, alpha2=p2.corner,
                        defect=2.0 * (p1.corner + p2.corner) - 4.0 * PI)


def _check_regime(ell: float, regime: str) -> None:
    if regime not in ("below", "above"):
        raise ValueError(f"regime must be 'below' or 'above', got {regime!r}")
    if regime == "below" and not (PI / 2.0 < ell < PI):
        raise ValueError(f"regime 'below' needs ell in (pi/2, pi), got {ell!r}")
    if regime == "above" and not (0.0 < ell < PI / 2.0):
        raise ValueError(f"regime 'above' needs ell in (0, pi/2), got {ell!r}")


def inequality_sign(ell: float, l1: float, l2: float) -> int:
    """Sign of sin(ell) * cos(ell) * sin((l1 - l2)/2)."""
    product = math.sin(ell) * math.cos(ell) * math.sin(0.5 * (l1 - l2))
    if product > 0.0:
        return 1
    if product < 0.0:
        return -1
    return 0


def _angle_sum_roots(alpha: float, ell: float, beta: float) -> list[float]:
    """All s in (alpha, alpha + pi) at which the dual cosine law holds.

    The law is cos(beta) = -cos(alpha)cos(u) + sin(alpha)sin(u)cos(ell) for
    the second base angle u = s - alpha.  It reads R cos(u - phi) = cos(beta),
    where (R cos phi, R sin phi) = (-cos alpha, sin alpha cos ell), so the
    roots are u = phi -+ acos(cos(beta) / R) (mod 2*pi), kept inside
    (1e-9, pi - 1e-9) and returned in ascending order.  There is none when
    |cos beta| > R.
    """
    cos_beta = math.cos(beta)
    x, y = -math.cos(alpha), math.sin(alpha) * math.cos(ell)
    r = math.hypot(x, y)
    if r == 0.0 or abs(cos_beta) > r:
        return []
    phi = math.atan2(y, x)
    half = clamped_acos(cos_beta / r)
    us = sorted((phi + sign * half) % TWO_PI for sign in (-1.0, 1.0))
    return [alpha + u for u in us if 1e-9 < u < PI - 1e-9]


def lemma3_sweep(ell: float, beta: float) -> Lemma3Result:
    """The interior extrema of the base-angle sum s(alpha).

    For triangles with fixed base ell and fixed opposite angle beta, the
    extrema sit at the isosceles shapes alpha = s/2, where the dual cosine
    law reads cos^2(alpha) = (cos(ell) - cos(beta))/(1 + cos(ell)).  So there
    are two, alpha = acos(+-sqrt of that ratio), when cos(ell) > cos(beta),
    and none when cos(ell) < cos(beta).  At each, s is solved back from the
    law (the root nearest 2*alpha), so |alpha - s/2| tests the formula, and
    the kind comes from the second difference of s along that root branch.
    cos(ell) = cos(beta) is the degenerate case: the critical shape sits in
    a flat family and is reported as such.
    """
    for name, value in (("ell", ell), ("beta", beta)):
        if not (0.0 < value < PI):
            raise ValueError(f"{name} = {value!r} outside (0, pi)")
    if abs(math.sin(ell)) < 1e-12:
        raise ValueError(f"ell = {ell!r} too close to a multiple of pi")
    cos_ell, cos_beta = math.cos(ell), math.cos(beta)
    if abs(cos_ell - cos_beta) < 1e-9:
        return Lemma3Result(
            degenerate=True,
            extrema=(ExtremalityResult(PI / 2.0, PI, "degenerate"),))
    if cos_ell < cos_beta:
        return Lemma3Result(degenerate=False, extrema=())

    def s_near(a: float, target: float) -> float:
        roots = _angle_sum_roots(a, ell, beta)
        if not roots:
            raise NoTriangleError(
                f"no triangle with base angle {a!r} for ell = {ell!r}, "
                f"beta = {beta!r}")
        return min(roots, key=lambda s: abs(s - target))

    x = math.sqrt((cos_ell - cos_beta) / (1.0 + cos_ell))
    delta = 1e-4
    extrema = []
    for a in (clamped_acos(x), clamped_acos(-x)):
        s = s_near(a, 2.0 * a)
        curvature = s_near(a - delta, s) + s_near(a + delta, s) - 2.0 * s
        kind = "minimum" if curvature > 0.0 else "maximum"
        extrema.append(ExtremalityResult(a, s, kind))
    return Lemma3Result(degenerate=False, extrema=tuple(extrema))


# Evenly spaced base angles angle_sum_branches samples inside each interval;
# an interval narrower than SLIVER lies within the roundoff of its ends and
# of the 1e-9 margin of _angle_sum_roots, and is skipped.
BRANCH_NODES = 32
SLIVER = 1e-8


def angle_sum_branches(ell: float, beta: float) -> tuple[AngleSumBranch, ...]:
    """Trend of the base-angle sum s along every branch of triangles.

    The number of _angle_sum_roots changes only where a root leaves
    (alpha, alpha + pi), at alpha = beta or pi - beta, or where the two
    roots meet, at sin(alpha) = sin(beta)/sin(ell).  Those points cut (0, pi)
    into intervals.  Each one wider than SLIVER is sampled at BRANCH_NODES
    nodes strictly inside it, which must all have the same root count
    (AssertionError otherwise), and each root index there is one branch of
    s: increasing or decreasing if s moves strictly one way between every
    pair of neighbours, and "not monotone" otherwise.
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
            branches.append(AngleSumBranch(alphas[0], alphas[-1], len(s), trend))
    return tuple(branches)


def lemma1_caseb_exclusion(beta: float, l1_grid) -> tuple[CaseBRow, ...]:
    """One row per l1 of the non-identical (bigon) case, which cannot close.

    With l1 + l2 = pi the chord satisfies cos l5 = 1 + (cos beta - 1) sin^2 l1,
    so (cos l5 - 1)/(cos beta - 1) = sin^2 l1 < 1 away from l1 = pi/2, while
    closing the slit triangle over the same chord would need
    sin^2 alpha = (cos beta - 1)/(cos l5 - 1) > 1.  Since cos l5 comes from
    the bigon relation itself, each row restates sin^2 l1 < 1 three ways
    (bigon_ratio, required_sin2_alpha and the smallest closure gap over all
    alpha), and incompatible holds at every l1 != pi/2: no node can fail.
    """
    if not (0.0 < beta < PI):
        raise ValueError(f"beta = {beta!r} outside (0, pi)")
    rows = []
    for l1 in l1_grid:
        l1 = float(l1)
        if not (0.0 < l1 < PI):
            raise ValueError(f"l1 = {l1!r} outside (0, pi)")
        if abs(l1 - PI / 2.0) < 1e-9:
            raise ValueError("l1 = pi/2 is the identical-triangle case (a), "
                             "excluded from the grid")
        sin2 = math.sin(l1) ** 2
        cos_l5 = 1.0 + (math.cos(beta) - 1.0) * sin2
        bigon_ratio = (cos_l5 - 1.0) / (math.cos(beta) - 1.0)
        required = (math.cos(beta) - 1.0) / (cos_l5 - 1.0)
        # Direct evidence: no alpha satisfies the slit-triangle closure.  The
        # closure gap |1 + (cos l5 - 1) sin^2 alpha - cos beta| equals
        # (1 - cos beta)(1 - sin^2 l1 sin^2 alpha), smallest at alpha = pi/2.
        scan_min = abs(cos_l5 - math.cos(beta))
        rows.append(CaseBRow(
            l1=l1, cos_l5=cos_l5, bigon_ratio=bigon_ratio,
            required_sin2_alpha=required,
            incompatible=(bigon_ratio < 1.0 and required > 1.0
                          and scan_min > 0.0),
            alpha_scan_min=scan_min))
    return tuple(rows)


def step1_asymmetric_exclusion(alpha: float, beta: float, eps: float,
                               ell_grid, regime: str) -> tuple[DefectRow, ...]:
    """defect_node over a grid of slit lengths, infeasible nodes flagged."""
    rows = []
    for ell in ell_grid:
        ell = float(ell)
        try:
            result = defect_node(alpha, beta, eps, ell, regime)
        except NoTriangleError:
            result = None
        rows.append(DefectRow(ell=ell, result=result))
    return tuple(rows)
