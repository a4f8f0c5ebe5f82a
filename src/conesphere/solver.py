"""Cone-angle constraint solver on the six-length space.

The residual map sends edge lengths to the four cone-angle defects
(theta_A - alpha, theta_B - beta, theta_D - (alpha + beta), theta_C - 4*pi).
Around a glued-football point the exact Jacobian of this map is rank
deficient, damped minimum-norm Gauss-Newton projects perturbed metrics back
onto the zero set, and the rigidity scan measures how far multistart
solutions land from the one-parameter glued family.  The defect scan
gives the C-defect at (l3, l4) node pairs with the other three
constraints closed exactly.

residual(lengths, target), jacobian(lengths), gauss_newton(start, target),
max_feasible_radius(lengths) and family_distance(lengths, spec) read any
sequence of the six lengths l1..l6 (a tuple, a metric or an ndarray row);
target is a 4-vector of cone angles, spec.cone_vector() on the family or a
point off it.  Each point is solved once, by metric.cone_angle_pass: one
sphtrig.sss_solve per triangle gives its cone angles and exact Jacobian.
The pass tests the point first with metric.validate; outside the validity
region it raises InvalidTriangleError naming every violation, which the
solver loops treat as a boundary.  The region is a convex polytope in
l1..l6 (metric.VALIDITY_ROWS), so the largest probe ball that fits in it (max_feasible_radius) is closed form.

defect_scan solves all its nodes in one pass of array operations: the
closure by half-angle sines, with no clamp, then metric.cone_angle_rows,
the batched cone angles and validity mask.  It returns a ScanGrid of
arrays, with no object per node.
Gauss-Newton stays on the scalar path: at a single point the fixed cost of
the array operations makes the batched kernel slower than cone_angle_pass.

A rigidity start is scalar work on six floats, so its cost is mostly per
call: one gauss_newton makes one pass per trial point and one SVD per
accepted point, and one family_distance about 203 glued_football builds.
The per-point arithmetic therefore avoids numpy temporaries: lengths become
a Python list once per pass, the Jacobian sums into a flat list of its 24
entries at indices planned once at import, metric.validate tests all of
T1..T4 in one expression, once per pass, and sphtrig.sss_solve tests
nothing, norms are math.sqrt of a dot product (what np.linalg.norm
computes for a 1-D float array, to the bit), and family distances are
math.dist.  The fixed inputs are converted once: gauss_newton makes its
target an ndarray once per call and keeps its SVD factors per accepted
point, family_distance scans a grid built once at import with its 200
GluedFootballParams records built once per spec, and a ConeAngleSpec
carries its half-angle sines.  On a 2-vCPU Xeon host, best of timeit
repeats, one pass takes about 8 us, one SVD about 10 us and one
glued_football build about 0.9 us (1.4 us with a new record), so per-call
overhead of a few us matters.

The glued family is a curve of double roots, where Gauss-Newton converges
only linearly: each step about halves the one before.  gauss_newton keeps
four rules, stated in its docstring: Levenberg damping, a nonmonotone
acceptance test (Grippo, Lampariello and Lucidi), doubling a halving step,
which cancels the leading error (Decker and Kelley), and one stop decision
after each accepted step.  On the rigidity benchmark plan that takes about
15.5 iterations per start, and about 25.2 on rigidity-edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .metric import (
    LENGTH_FIELDS,
    VALIDITY_BOUNDS,
    VALIDITY_ROWS,
    ConeAngleSpec,
    GluedFootballParams,
    cone_angle_pass,
    cone_angle_rows,
    cone_angle_tuple,
    glued_football,
)
from .sphtrig import (
    PI,
    InvalidTriangleError,
    sas_half_sides,
)

# Slit parameter window scanned when projecting onto the family, and the
# 200 slit parameters of family_distance's coarse scan, built once.
FAMILY_T_MIN = 1e-4
FAMILY_T_MAX = PI - 1e-4
FAMILY_GRID = np.linspace(FAMILY_T_MIN, FAMILY_T_MAX, 200).tolist()

# Gauss-Newton converges below RES_TOL within MAX_ITER steps; singular
# values under RANK_TOL times the largest count as zero; rigidity holds
# when every converged start lands within DIST_TOL of the glued family.
RES_TOL = 1e-11
MAX_ITER = 50
# A step within HALVING_TOL (relative) of half the step before it is the
# linear rate of a double root: gauss_newton then takes twice the step.  A
# polish step not HALVING_TOL shorter than the step before it has stalled.
HALVING_TOL = 0.1
RANK_TOL = 1e-6
DIST_TOL = 1e-6
# Start and bounds of the Levenberg damping.  Along the family tangent
# sigma_4 is about 1e-16 sigma_1, so an undamped minimum-norm step would
# blow up.
DAMPING0 = 1e-3
DAMPING_FLOOR = 1e-8
DAMPING_MAX = 1e3
# Once RES_TOL is met, polish until steps stall or fall below STEP_TOL: the
# quadratically flat kernel directions need the extra steps to pull tight
# onto the solution set.
STEP_TOL = 1e-10


@dataclass(frozen=True)
class GaussNewtonResult:
    status: str  # "converged" | "max_iter" | "boundary"
    lengths: tuple[float, ...] | None
    residual_norm: float
    iterations: int


def residual(lengths, target) -> np.ndarray:
    """The cone-angle defects (r_A, r_B, r_D, r_C) of l1..l6 against target.

    target is the 4-vector (theta_A, theta_B, theta_D, theta_C) to reach,
    spec.cone_vector() for the glued family.  Invalid lengths raise
    InvalidTriangleError.
    """
    return np.subtract(cone_angle_tuple(lengths), target)


def jacobian(lengths) -> np.ndarray:
    """Exact 4x6 Jacobian of the residual (the cone angles) in l1..l6, from
    cone_angle_pass; the target does not enter.  Invalid lengths raise
    InvalidTriangleError."""
    return np.array(cone_angle_pass(lengths)[1]).reshape(4, 6)


def numerical_rank(J: np.ndarray) -> tuple[int, np.ndarray]:
    """Count of singular values at or above RANK_TOL times the largest."""
    svals = np.linalg.svd(np.asarray(J, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0, svals
    rank = int(np.sum(svals >= RANK_TOL * svals[0]))
    return rank, svals


def _halves(prev: np.ndarray, step: np.ndarray) -> bool:
    """True when |prev - 2 step| <= HALVING_TOL |prev|, squared and summed
    over Python floats: six entries cost less than numpy temporaries."""
    gap2 = norm2 = 0.0
    for p, q in zip(prev.tolist(), step.tolist()):
        gap2 += (p - 2.0 * q) ** 2
        norm2 += p * p
    return gap2 <= HALVING_TOL * HALVING_TOL * norm2


def gauss_newton(start, target) -> GaussNewtonResult:
    """Project the six lengths start onto the zero set of residual(., target).

    Each iteration takes the damped minimum-norm least-squares step from the
    SVD of the exact Jacobian, halved up to 60 times to keep the trial point
    inside the validity region.  Four rules drive it:

    - Damping.  The Levenberg damping starts at DAMPING0.  A rejected step
      multiplies it by 10, up to DAMPING_MAX; an accepted one divides it
      by 3, down to DAMPING_FLOOR.
    - Acceptance.  A trial point is accepted when its residual norm is at
      most the larger of the norms at the last two accepted points, or
      below RES_TOL.  Near a double root a damped step can raise the
      residual once and still close in.  A monotone test rejects it, and
      its x10 / /3 cycle can then hold the damping above the smallest
      singular value until MAX_ITER.
    - Doubling.  Near the family the steps halve.  A step within
      HALVING_TOL of half the step computed at the accepted point before,
      both at the damping floor, is taken twice over, and the step after
      it is not compared.  Above the floor the test also fires on chance
      halvings far from the family, and doubling those lost converged
      starts near the validity boundary.
    - Stop.  The solve stops after an accepted step, or after MAX_ITER
      iterations.  It stops once the residual is below RES_TOL and the
      step that got it there is below STEP_TOL.  It also stops when the
      polish stalls: a step taken below RES_TOL at the damping floor that
      is not HALVING_TOL shorter than the step before it, since the steps
      stop halving at the roundoff floor.  Above the damping floor the
      damping, not roundoff, can hold a step back.  Once a doubled step has
      been accepted, a longer step starts a climb instead: the doubled
      step landed below the roundoff floor, and the steps from there grow
      until the iterate is back at it.  The climb stalls at its first step
      that is not longer than the one before it.  A step doubled below
      RES_TOL is about as long as the step before it, so it mostly reads
      as a stall, and the solve ends where that step landed.

    The status is "boundary" when start is outside the region or no
    halving of a step stays in it, else "converged" when the final
    residual norm is below RES_TOL and "max_iter" otherwise.  Each trial
    point is solved once, by cone_angle_pass: its angles give the
    residual, and an accepted point keeps its Jacobian.  A rejected step
    changes only the damping, so the SVD is computed once per accepted
    point, when an iteration needs it.  With it the point keeps s*s, U^T r
    and V = Vt.T, since r and U change only on acceptance, so each
    iteration, after a rejection too, forms only V (s/(s*s + lam^2) U^T r).
    The result carries the final lengths as a tuple of floats, or None when
    start itself is outside the region.
    """
    x = np.array(start, dtype=float)
    target = np.asarray(target, dtype=float)
    try:
        theta, J = cone_angle_pass(x)
    except InvalidTriangleError:
        return GaussNewtonResult("boundary", None, math.inf, 0)
    r = np.subtract(theta, target)
    # rnorm_prev is the norm at the accepted point before x.
    rnorm = rnorm_prev = math.sqrt(r.dot(r))
    lam = DAMPING0
    last_step = math.inf
    V = None  # Vt.T of the SVD of J at x, kept with sv, sv*sv and U.T @ r
    prev = None  # the undoubled floor-damped step at the last accepted point
    extrapolated = False  # a doubled step was accepted
    climbing = False  # polish steps grow back up to the roundoff floor
    for iterations in range(1, MAX_ITER + 1):
        if V is None:
            U, sv, Vt = np.linalg.svd(np.array(J).reshape(4, 6),
                                      full_matrices=False)
            ss, Ur, V = sv * sv, U.T @ r, Vt.T
        # Minus the damped minimum-norm step V diag(s/(s^2+lam^2)) U^T r.
        step = V @ (sv / (ss + lam * lam) * Ur)
        doubled = prev is not None and _halves(prev, step)
        prev = None if doubled or lam > DAMPING_FLOOR else step
        if doubled:
            step = 2.0 * step
        for _ in range(61):  # the step, then 60 halvings into the region
            x_new = x - step
            try:
                theta, J_new = cone_angle_pass(x_new)
                break
            except InvalidTriangleError:
                step = 0.5 * step
        else:
            return GaussNewtonResult("boundary", tuple(x.tolist()), rnorm,
                                     iterations)
        r_new = np.subtract(theta, target)
        rnorm_new = math.sqrt(r_new.dot(r_new))
        if not (rnorm_new <= max(rnorm, rnorm_prev) or rnorm_new < RES_TOL):
            lam = min(lam * 10.0, DAMPING_MAX)
            prev = None
            continue
        new_step = math.sqrt(step.dot(step))
        stalled = False
        if rnorm < RES_TOL and lam <= DAMPING_FLOOR:
            if extrapolated and new_step > last_step:
                climbing = True
            else:
                stalled = climbing or new_step > (1 - HALVING_TOL) * last_step
        extrapolated = extrapolated or doubled
        x, r, rnorm_prev, rnorm, J = x_new, r_new, rnorm, rnorm_new, J_new
        V = None
        lam = max(lam / 3.0, DAMPING_FLOOR)
        last_step = new_step
        if stalled or (rnorm < RES_TOL and last_step < STEP_TOL):
            break
    status = "converged" if rnorm < RES_TOL else "max_iter"
    return GaussNewtonResult(status, tuple(x.tolist()), rnorm, iterations)


@functools.lru_cache(maxsize=1)
def _family_params(spec: ConeAngleSpec) -> tuple[GluedFootballParams, ...]:
    """The records GluedFootballParams(spec, s) of the coarse scan, one per
    slit parameter s of FAMILY_GRID, kept for the last spec asked for: a
    rigidity probe projects every start onto the family of one spec."""
    return tuple(GluedFootballParams(spec, s) for s in FAMILY_GRID)


def family_distance(lengths, spec: ConeAngleSpec) -> tuple[float, float]:
    """Closest glued football to l1..l6: (s_star, Euclidean distance).

    A length that is not finite is a ValueError that names it: no football
    is nearest to it.  A coarse scan over the 200 slit parameters of
    FAMILY_GRID picks the well; scan ties resolve toward smaller s.  A slit
    parameter whose football degenerates (alpha or beta near pi, at the
    ends of the window) counts as infinitely far.  A safeguarded Newton
    iteration on phi(s) = |F(s) - x|^2 / 2 then refines the best grid point
    inside its two neighbours, or between an end node and 0 or pi, since the
    family runs past the window: F(s) = (pi - s, pi - s, s, s, l5, l6) is a
    glued_football build, and with a = sin(alpha/2) from spec.half_sines,
    w = 1 - a^2 sin^2 s the chord has l5' = 2a cos s / sqrt(w) and
    l5'' = 2a (a^2 - 1) sin s / w^(3/2) (l6 with beta).  The sign of phi'
    shrinks the bracket; a step that leaves it, or phi'' <= 0, bisects
    instead, and a degenerate football bounds it.  A step toward the last
    degenerate football bisects too: the minimum of phi then lies past that
    end, and Newton would aim there again.  It stops after a step below
    1e-12, when the next step rounds to nothing, or once a degenerate
    football bounds a bracket narrower than 1e-9, the roundoff blur of the
    validity edge.  It returns the last s built with math.dist of that
    build: re-measuring glued_football(s_star) reproduces the distance
    exactly.  When no grid football is valid (the valid slit window can be
    narrower than the grid step) the call raises ValueError.

    Each probe is one scalar glued_football build with its validate, about
    0.9 us: the 200-point scan plus a few Newton builds (2-4 on the
    benchmark plans) make a call.  The scan is one pass that keeps the
    running minimum, with no list of builds or distances.  Its 200 params
    records come from _family_params, built once per spec, since a
    rigidity probe projects every start onto one family; the Newton stage
    makes its own.  The builds themselves stay scalar and uncached because
    the benchmark traces glued_football and pins more than 200 builds per
    call; the closed-form projection that replaces the scan waits on that
    pin.
    """
    for field, x in zip(LENGTH_FIELDS, lengths):
        if not math.isfinite(x):
            raise ValueError(f"{field} = {float(x)!r} is not finite")
    # One pass keeps the nearest build; strict < keeps the first of equal
    # distances, and a degenerate build is never nearest.
    grid = FAMILY_GRID
    best, j, fam = math.inf, 0, None
    for i, p in enumerate(_family_params(spec)):
        try:
            f = glued_football(p)
        except InvalidTriangleError:
            continue
        d = math.dist(f, lengths)
        if d < best:
            best, j, fam = d, i, f
    if fam is None:
        raise ValueError(f"no grid slit gives a valid football for {spec!r}")
    s = grid[j]
    # An end node's bracket runs on to the end of the family.
    lo = grid[j - 1] if j > 0 else 0.0
    hi = grid[j + 1] if j + 1 < len(grid) else PI
    dead = math.nan  # the last slit parameter whose football degenerated
    while True:
        d = [f - x for f, x in zip(fam, lengths)]
        slope = d[2] + d[3] - d[0] - d[1]
        curvature = 4.0
        sin_s, cos_s = math.sin(s), math.cos(s)
        for a, dl in zip(spec.half_sines, d[4:]):
            w = 1.0 - a * a * sin_s * sin_s
            first = 2.0 * a * cos_s / math.sqrt(w)
            second = 2.0 * a * (a * a - 1.0) * sin_s / (w * math.sqrt(w))
            slope += dl * first
            curvature += first * first + dl * second
        if slope > 0.0:
            hi = s
        elif slope < 0.0:
            lo = s
        s_new = s - slope / curvature if curvature > 0.0 else math.nan
        if s_new != s and (not lo < s_new < hi
                           or (s_new - s) * (dead - s) > 0.0):
            s_new = 0.5 * (lo + hi)
        if s_new == s:
            break
        step = abs(s_new - s)
        try:
            fam = glued_football(GluedFootballParams(spec, s_new))
        except InvalidTriangleError:
            # A degenerate football bounds the bracket; s stays.
            lo, hi = (lo, s_new) if s_new > s else (s_new, hi)
            dead = s_new
        else:
            s = s_new
        if step < 1e-12 or (not math.isnan(dead) and hi - lo < 1e-9):
            break
    return s, math.dist(fam, lengths)


def max_feasible_radius(lengths) -> float:
    """Supremum of the radii whose max-norm ball around l1..l6 stays valid.

    Over the ball of radius r the largest value of c . x is c . l plus
    r |c|_1, so the ball is inside the polytope iff r < (b - c . l)/|c|_1
    for every validity row: the bound is the least of those ratios.
    """
    slack = VALIDITY_BOUNDS - VALIDITY_ROWS @ np.asarray(lengths, dtype=float)
    return float(np.min(slack / np.abs(VALIDITY_ROWS).sum(axis=1)))


def rigidity_scan(p: GluedFootballParams, target, radius: float,
                  samples: int, seed: int) -> dict:
    """Multistart probe of local rigidity around one glued football.

    Draws samples starts uniformly in the max-norm ball of the given
    radius, projects each with gauss_newton onto the cone-angle 4-vector
    target (p.spec.cone_vector() to probe the family itself) and returns the
    rigidity report's results: the Jacobian spectrum at the base point,
    convergence counts, and per converged start its lengths, residual norm,
    Gauss-Newton iterations, nearest slit parameter s_star and family
    distance, with the largest of those distances.  Deterministic for a
    fixed seed.  An empty probe (radius not positive, no samples) is a
    ValueError, and so is a negative seed, which numpy's generator rejects
    without naming it.
    """
    if not radius > 0.0:  # also rejects nan
        raise ValueError(f"radius must be positive, got {radius!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    base = glued_football(p)
    feasible = max_feasible_radius(base)
    if not radius < feasible:
        raise ValueError(
            f"radius {radius!r} leaves the validity region; "
            f"max feasible radius here is {feasible!r}")
    rank, svals = numerical_rank(jacobian(base))
    rng = np.random.default_rng(seed)
    starts = np.array(base) + rng.uniform(-radius, radius, size=(samples, 6))
    results = [gauss_newton(s, target) for s in starts]
    statuses = [res.status for res in results]
    solutions = []
    for res in results:
        if res.status == "converged":
            s_star, dist = family_distance(res.lengths, p.spec)
            solutions.append({"lengths": list(res.lengths),
                              "residual_norm": res.residual_norm,
                              "iterations": res.iterations,
                              "s_star": s_star, "family_distance": dist})
    max_dist = max((sol["family_distance"] for sol in solutions), default=0.0)
    return {
        "alpha": p.spec.alpha, "beta": p.spec.beta, "t": p.t,
        "radius": radius, "seed": seed,
        "singular_values": [float(s) for s in svals],
        "kernel_dim": 6 - rank,
        "starts": samples,
        "converged": len(solutions),
        "boundary_failures": statuses.count("boundary"),
        "nonconverged": statuses.count("max_iter"),
        "max_family_distance": max_dist,
        "dist_tol": DIST_TOL,
        "rigidity_holds": bool(solutions) and max_dist < DIST_TOL,
        "solutions": solutions,
    }


@dataclass(frozen=True)
class ScanGrid:
    """A defect scan, one row per node: lengths l1..l6 (n, 6), residuals
    (r_A, r_B, r_D, r_C) (n, 4) and the feasible mask (n,).

    An infeasible node keeps its l3 and l4; its other cells are nan.
    """

    lengths: np.ndarray
    residuals: np.ndarray
    feasible: np.ndarray


def defect_scan(spec: ConeAngleSpec, l3, l4, eps: float = 0.0,
                branch: str = "acute") -> ScanGrid:
    """C-defect at (l3, l4) node pairs with the other constraints closed exactly.

    The closure: the D-part apex targets are (alpha - 2*eps) for the slit
    triangle at D1 and (beta + 2*eps) at D2; l5 and l6 follow from (l3, l4)
    by sphtrig.sas_half_sides, one broadcast call over both targets, then
    l1 and l2 are solved so that the A- and B-apexes hit their targets
    exactly.  branch picks l1, l2 acute or obtuse (the two perturbation
    regimes).  Only the C-defect stays free.

    l3 and l4 are equal-length arrays, node k at (l3[k], l4[k]); the rows
    follow them in order, and the caller builds any grid.  Infeasible nodes
    are kept with feasible False rather than dropped.  A node is infeasible
    when a sine ratio leaves (0, 1] or the closed lengths (l3 and l4 among
    them) leave the validity region; a nan ratio fails both tests.
    """
    if branch not in ("acute", "obtuse"):
        raise ValueError(f"branch must be 'acute' or 'obtuse', got {branch!r}")
    l3, l4 = np.asarray(l3, dtype=float), np.asarray(l4, dtype=float)
    if len(l3) == 0 or len(l3) != len(l4):
        raise ValueError(f"scan grid needs at least 1 node, as equal-length "
                         f"l3 and l4, got {len(l3)} and {len(l4)}")
    d1 = spec.alpha - 2.0 * eps
    d2 = spec.beta + 2.0 * eps
    if not (0.0 < d1 < PI and 0.0 < d2 < PI):
        raise ValueError(f"eps = {eps!r} drives a D-apex out of (0, pi)")
    with np.errstate(invalid="ignore"):
        # l5 and l6 as in sphtrig.side_from_sas, then l1 and l2 from the
        # sine ratio that puts each isosceles apex on target.  Lengths
        # outside [0, pi] can make a half-side negative: its root is nan.
        h, k = sas_half_sides(l3, l4, np.array([[d1], [d2]]), np.sin, np.cos)
        l5, l6 = 2.0 * np.arctan2(np.sqrt(h), np.sqrt(k))
        s1 = np.sin(0.5 * l5) / spec.half_sines[0]
        s2 = np.sin(0.5 * l6) / spec.half_sines[1]
        feasible = (0.0 < s1) & (s1 <= 1.0) & (0.0 < s2) & (s2 <= 1.0)
        l1, l2 = np.arcsin(s1), np.arcsin(s2)
    if branch == "obtuse":
        l1, l2 = PI - l1, PI - l2
    lengths = np.column_stack([l1, l2, l3, l4, l5, l6])
    theta, valid = cone_angle_rows(lengths)
    feasible &= valid
    lengths[~feasible] = np.nan
    lengths[:, 2], lengths[:, 3] = l3, l4
    residuals = theta - spec.cone_vector()
    residuals[~feasible] = np.nan
    return ScanGrid(lengths, residuals, feasible)
