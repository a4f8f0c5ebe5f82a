"""Cone-angle constraint solver on the six-length space.

The residual map sends edge lengths to the four cone-angle defects
(theta_A - alpha, theta_B - beta, theta_D - (alpha + beta), theta_C - 4*pi).
Around a glued-football point the exact Jacobian of this map is rank
deficient, damped minimum-norm Gauss-Newton projects perturbed metrics back
onto the zero set, and the rigidity scan measures how far multistart
solutions land from the one-parameter glued family.  The defect scan
sweeps the C-defect over an (l3, l4) grid with the other three
constraints closed exactly.

residual(lengths, spec) and jacobian(lengths) take the six lengths l1..l6
and solve each triangle by sphtrig's half-angle rule, through
metric.cone_angle_tuple and sphtrig.sss_differentials.  Outside the validity
region both raise InvalidTriangleError (OFF_DOMAIN), a boundary to the solver
loops.  The region is a convex polytope in l1..l6 (metric.VALIDITY_ROWS), so
the largest probe ball that fits in it (max_feasible_radius) is closed form.

defect_scan runs its whole grid in one pass of array operations: the
closure, then metric.cone_angle_rows, the batched cone angles and validity
mask.  It returns a ScanGrid of arrays, with no object per node.
Gauss-Newton stays on the scalar path: at a single point the fixed cost of
the array operations makes the batched kernel slower than cone_angle_tuple.

A rigidity start is scalar work on six floats, so its cost is mostly per
call: at (alpha, beta, t) = (1, 2, 1.2) one gauss_newton (27 iterations)
takes about 1.3 ms and one family_distance about 1.2 ms, best of timeit
repeats on a 2-vCPU Xeon.  The per-point arithmetic therefore avoids
numpy temporaries: lengths become a Python list once per residual or
Jacobian, norms are math.sqrt of a dot product (what np.linalg.norm
computes for a 1-D float array, to the bit), and family distances are
math.dist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (
    TRIANGLE_LAYOUT,
    VALIDITY_BOUNDS,
    VALIDITY_ROWS,
    ConeAngleSpec,
    GluedFootballParams,
    TriangulatedMetric,
    cone_angle_rows,
    cone_angle_tuple,
    glued_football,
    solve_triangle,
)
from .sphtrig import (
    PI,
    InvalidTriangleError,
    clamp_rows,
    sss_differentials,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Errors of a residual evaluated outside the validity region.
OFF_DOMAIN = InvalidTriangleError

# Slit parameter window scanned when projecting onto the family.
FAMILY_T_MIN = 1e-4
FAMILY_T_MAX = PI - 1e-4

# Gauss-Newton converges below RES_TOL within MAX_ITER steps; singular
# values under RANK_TOL times the largest count as zero; rigidity holds
# when every converged start lands within DIST_TOL of the glued family.
RES_TOL = 1e-11
MAX_ITER = 50
RANK_TOL = 1e-6
DIST_TOL = 1e-6
# Start and bounds of the Levenberg damping.  Along the family tangent
# sigma_4 is about 1e-16 sigma_1, so an undamped minimum-norm step would
# blow up.
DAMPING0 = 1e-3
DAMPING_FLOOR = 1e-8
DAMPING_MAX = 1e3
# Once RES_TOL is met, polish until steps stall: the quadratically flat
# kernel directions need the extra steps to pull tight onto the solution set.
STEP_TOL = 1e-10
POLISH_LIMIT = 15


@dataclass(frozen=True)
class GaussNewtonResult:
    status: str  # "converged" | "max_iter" | "boundary"
    metric: TriangulatedMetric | None
    residual_norm: float
    iterations: int

    @property
    def success(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class RigidityReport:
    spec: ConeAngleSpec
    t: float
    radius: float
    seed: int
    singular_values: tuple[float, float, float, float]
    kernel_dim: int
    starts: int
    converged: int
    boundary_failures: int
    nonconverged: int
    max_family_distance: float
    # One row per converged start: (lengths, residual norm, s_star, distance).
    solutions: tuple[tuple[tuple[float, ...], float, float, float], ...]

    @property
    def rigidity_holds(self) -> bool:
        return self.converged > 0 and self.max_family_distance < DIST_TOL


def residual(lengths, spec: ConeAngleSpec) -> np.ndarray:
    """The cone-angle defects (r_A, r_B, r_D, r_C) of l1..l6 against spec.

    Invalid lengths raise InvalidTriangleError naming the triangle.
    """
    return np.subtract(cone_angle_tuple(lengths), spec.cone_vector())


def jacobian(lengths) -> np.ndarray:
    """Exact 4x6 Jacobian of the residual (the cone angles) in l1..l6.

    Each triangle's sss_differentials go to the cone-point rows and side
    columns TRIANGLE_LAYOUT assigns them; the target does not enter.
    Invalid lengths raise InvalidTriangleError naming the triangle.
    """
    x = np.asarray(lengths, dtype=float).tolist()
    J = [[0.0] * 6 for _ in range(4)]
    for idx, (sides, points) in enumerate(TRIANGLE_LAYOUT, start=1):
        dangs = solve_triangle(idx, sss_differentials, *(x[s] for s in sides))
        for p, row in zip(points, dangs):
            for col, d in zip(sides, row):
                J[p][col] += d
    return np.array(J)


def numerical_rank(J: np.ndarray, rel_tol: float = RANK_TOL) -> tuple[int, np.ndarray]:
    """Count of singular values at or above rel_tol times the largest."""
    svals = np.linalg.svd(np.asarray(J, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0, svals
    rank = int(np.sum(svals >= rel_tol * svals[0]))
    return rank, svals


def _damped_min_norm_step(U: np.ndarray, s: np.ndarray, Vt: np.ndarray,
                          r: np.ndarray, lam: float) -> np.ndarray:
    """Minimum-norm Levenberg step -V diag(s/(s^2+lam^2)) U^T r from J's SVD."""
    factors = s / (s * s + lam * lam)
    return -(Vt.T @ (factors * (U.T @ r)))


def gauss_newton(start: TriangulatedMetric, spec: ConeAngleSpec) -> GaussNewtonResult:
    """Project a metric onto the cone-angle constraint set.

    Steps are damped minimum-norm least-squares solutions from the SVD of
    the exact Jacobian, backtracked to stay inside the validity region.
    Success requires the residual norm below RES_TOL; the iteration
    then polishes until the step size stalls so that the quadratically flat
    directions are fully resolved.  A rejected step changes only the
    damping, so the SVD is kept until a step is accepted and computed only
    when an iteration needs it.
    """
    x = np.array(start.lengths())
    try:
        r = residual(x, spec)
    except OFF_DOMAIN:
        return GaussNewtonResult("boundary", None, math.inf, 0)
    rnorm = math.sqrt(r.dot(r))
    lam = DAMPING0
    last_step = math.inf
    polish = 0
    iterations = 0
    svd = None
    for _ in range(MAX_ITER):
        if rnorm < RES_TOL:
            if last_step < STEP_TOL or polish >= POLISH_LIMIT:
                break
            polish += 1
        iterations += 1
        if svd is None:
            svd = np.linalg.svd(jacobian(x), full_matrices=False)
        step = _damped_min_norm_step(*svd, r, lam)
        # Backtrack into the validity region.
        shrink = 0
        while True:
            x_new = x + step
            try:
                r_new = residual(x_new, spec)
                break
            except OFF_DOMAIN:
                step = 0.5 * step
                shrink += 1
                if shrink > 60:
                    return GaussNewtonResult("boundary", TriangulatedMetric(*x),
                                             rnorm, iterations)
        rnorm_new = math.sqrt(r_new.dot(r_new))
        if rnorm_new <= rnorm or rnorm_new < RES_TOL:
            last_step = math.sqrt(step.dot(step))
            x, r, rnorm = x_new, r_new, rnorm_new
            svd = None
            lam = max(lam / 3.0, DAMPING_FLOOR)
        else:
            lam = min(lam * 10.0, DAMPING_MAX)
    if rnorm < RES_TOL:
        return GaussNewtonResult("converged", TriangulatedMetric(*x),
                                 rnorm, iterations)
    return GaussNewtonResult("max_iter", TriangulatedMetric(*x), rnorm, iterations)


def family_distance(m: TriangulatedMetric, spec: ConeAngleSpec) -> tuple[float, float]:
    """Closest glued football: (s_star, Euclidean distance over the six lengths).

    A 200-point coarse scan over the slit parameter is refined by
    golden-section search; scan ties resolve toward smaller s.  A slit
    parameter whose football degenerates (alpha or beta near pi, at the ends
    of the window) counts as infinitely far.

    Each probe is one scalar glued_football build with its validate, about
    4.5 us, and about 250 probes make a call; math.dist keeps the distance
    itself near 0.1 us.  The builds stay scalar and uncached because the
    benchmark traces glued_football and counts them; the closed-form
    projection that replaces them waits on that count.
    """
    target = m.lengths()

    def dist(s: float) -> float:
        try:
            fam = glued_football(GluedFootballParams(spec, float(s)))
        except OFF_DOMAIN:
            return math.inf
        return math.dist(fam.lengths(), target)

    grid = np.linspace(FAMILY_T_MIN, FAMILY_T_MAX, 200)
    values = [dist(s) for s in grid]
    j = int(np.argmin(values))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    # Golden-section refinement on [lo, hi].
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = dist(x1), dist(x2)
    while hi - lo > 1e-12:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = dist(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = dist(x2)
    s_star = 0.5 * (lo + hi)
    return float(s_star), float(dist(s_star))


def max_feasible_radius(base: TriangulatedMetric) -> float:
    """Supremum of the radii whose max-norm ball around base stays valid.

    Over the ball of radius r the largest value of c . x is c . base plus
    r |c|_1, so the ball is inside the polytope iff r < (b - c . base)/|c|_1
    for every validity row: the bound is the least of those ratios.
    """
    slack = VALIDITY_BOUNDS - VALIDITY_ROWS @ np.array(base.lengths())
    return float(np.min(slack / np.abs(VALIDITY_ROWS).sum(axis=1)))


def rigidity_scan(p: GluedFootballParams, radius: float, samples: int,
                  seed: int) -> RigidityReport:
    """Multistart probe of local rigidity around one glued football.

    Draws samples starts uniformly in the max-norm ball of the given
    radius, projects each with gauss_newton and reports the Jacobian
    spectrum at the base point, convergence counts and the largest family
    distance among converged solutions.  Deterministic for a fixed seed.
    An empty probe (radius not positive, no samples) is a ValueError.
    """
    if not radius > 0.0:  # also rejects nan
        raise ValueError(f"radius must be positive, got {radius!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    base = glued_football(p)
    feasible = max_feasible_radius(base)
    if not radius < feasible:
        raise ValueError(
            f"radius {radius!r} leaves the validity region; "
            f"max feasible radius here is {feasible:.6f}")
    rank, svals = numerical_rank(jacobian(base.lengths()))
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-radius, radius, size=(samples, 6))
    starts = [TriangulatedMetric(*(np.array(base.lengths()) + off))
              for off in offsets]
    results = [gauss_newton(s, p.spec) for s in starts]
    solutions = []
    boundary = 0
    nonconv = 0
    max_dist = 0.0
    for res in results:
        if res.status == "converged":
            s_star, dist = family_distance(res.metric, p.spec)
            solutions.append((res.metric.lengths(), res.residual_norm,
                              s_star, dist))
            max_dist = max(max_dist, dist)
        elif res.status == "boundary":
            boundary += 1
        else:
            nonconv += 1
    return RigidityReport(
        spec=p.spec, t=p.t, radius=radius, seed=seed,
        singular_values=tuple(float(s) for s in svals),
        kernel_dim=6 - rank,
        starts=samples,
        converged=len(solutions),
        boundary_failures=boundary,
        nonconverged=nonconv,
        max_family_distance=max_dist,
        solutions=tuple(solutions),
    )


@dataclass(frozen=True)
class ScanClosure:
    """Closure rule for defect_scan.

    The D-part apex targets are (alpha - 2*eps) for the slit triangle at D1
    and (beta + 2*eps) at D2; l5 and l6 follow from (l3, l4) by the cosine
    law, then l1 and l2 are solved so the A- and B-apexes hit their targets
    exactly.  branch picks l1, l2 acute or obtuse (the two perturbation
    regimes).  Only the C-defect remains free.
    """

    eps: float = 0.0
    branch: str = "acute"

    def __post_init__(self):
        if self.branch not in ("acute", "obtuse"):
            raise ValueError(f"branch must be 'acute' or 'obtuse', got {self.branch!r}")


@dataclass(frozen=True)
class ScanGrid:
    """A defect scan, one row per node: lengths l1..l6 (n, 6), residuals
    (r_A, r_B, r_D, r_C) (n, 4) and the feasible mask (n,).

    An infeasible node keeps its l3 and l4; its other cells are nan.
    """

    lengths: np.ndarray
    residuals: np.ndarray
    feasible: np.ndarray


def defect_scan(spec: ConeAngleSpec, l3_grid, l4_grid,
                closure: ScanClosure | None = None) -> ScanGrid:
    """C-defect over a (l3, l4) grid with the other constraints closed exactly.

    Rows appear in lexicographic (l3, l4) order; infeasible nodes are
    kept with feasible False rather than dropped.  A node is infeasible
    when a closure ratio leaves (0, 1] or the closed lengths (l3 and l4
    among them) leave the validity region.
    """
    if len(l3_grid) == 0 or len(l4_grid) == 0:
        raise ValueError(f"scan grid needs at least 1 node per axis, "
                         f"got {len(l3_grid)} x {len(l4_grid)}")
    closure = closure or ScanClosure()
    alpha, beta = spec.alpha, spec.beta
    d1 = alpha - 2.0 * closure.eps
    d2 = beta + 2.0 * closure.eps
    if not (0.0 < d1 < PI and 0.0 < d2 < PI):
        raise ValueError(f"eps = {closure.eps!r} drives a D-apex out of (0, pi)")
    l3 = np.repeat(np.asarray(l3_grid, dtype=float), len(l4_grid))
    l4 = np.tile(np.asarray(l4_grid, dtype=float), len(l3_grid))
    with np.errstate(invalid="ignore"):
        # l5 and l6 by the cosine law (sphtrig.side_from_sas), then l1 and
        # l2 from the sine ratio that puts each isosceles apex on target.
        c34, s34 = np.cos(l3) * np.cos(l4), np.sin(l3) * np.sin(l4)
        l5, ok5 = clamp_rows(c34 + s34 * math.cos(d1))
        l6, ok6 = clamp_rows(c34 + s34 * math.cos(d2))
        l5, l6 = np.arccos(l5), np.arccos(l6)
        s1 = np.sin(0.5 * l5) / math.sin(0.5 * alpha)
        s2 = np.sin(0.5 * l6) / math.sin(0.5 * beta)
        feasible = ok5 & ok6 & (0.0 < s1) & (s1 <= 1.0) & (0.0 < s2) & (s2 <= 1.0)
        l1, l2 = np.arcsin(s1), np.arcsin(s2)
    if closure.branch == "obtuse":
        l1, l2 = PI - l1, PI - l2
    lengths = np.column_stack([l1, l2, l3, l4, l5, l6])
    theta, valid = cone_angle_rows(lengths)
    feasible &= valid
    lengths[~feasible] = np.nan
    lengths[:, 2], lengths[:, 3] = l3, l4
    residuals = theta - spec.cone_vector()
    residuals[~feasible] = np.nan
    return ScanGrid(lengths, residuals, feasible)
