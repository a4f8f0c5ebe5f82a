"""Cone-angle constraint solver on the six-length space.

The residual map sends edge lengths to the four cone-angle defects
(theta_A - alpha, theta_B - beta, theta_D - (alpha + beta), theta_C - 4*pi).
Around a glued-football point the exact Jacobian of this map is rank
deficient, damped minimum-norm Gauss-Newton projects perturbed metrics back
onto the zero set, and the rigidity scan measures how far multistart
solutions land from the one-parameter glued family.

The cone angles and the validity rule come from metric.cone_angle_tuple,
which checks every triangle as it solves it; the Jacobian sums
sphtrig.sss_differentials over the same layout.  The solver loops evaluate
the residual once per point and treat its InvalidTriangleError (or an
inverse-trig argument beyond the roundoff clamp) as "outside the validity
region".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (
    TRIANGLE_LAYOUT,
    ConeAngleSpec,
    GluedFootballParams,
    TriangulatedMetric,
    cone_angle_tuple,
    glued_football,
    solve_triangle,
    validate,
)
from .reports import RunConfig
from .sphtrig import (
    PI,
    InvalidTriangleError,
    NumericalCorruptionError,
    clamped_asin,
    side_from_sas,
    sss_differentials,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Errors of a residual evaluated outside the validity region.
OFF_DOMAIN = (InvalidTriangleError, NumericalCorruptionError)

# Slit parameter window scanned when projecting onto the family.
FAMILY_T_MIN = 1e-4
FAMILY_T_MAX = PI - 1e-4

# Bounds of the Levenberg damping.  Along the family tangent sigma_4 is
# about 1e-16 sigma_1, so an undamped minimum-norm step would blow up.
DAMPING_FLOOR = 1e-8
DAMPING_MAX = 1e3
# Once res_tol is met, polish until steps stall: the quadratically flat
# kernel directions need the extra steps to pull tight onto the solution set.
STEP_TOL = 1e-10
POLISH_LIMIT = 15


@dataclass(frozen=True)
class ConstraintResidual:
    """The four cone-angle defects (r_A, r_B, r_D, r_C), radians."""

    r: tuple[float, float, float, float]

    @property
    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.r))


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
class ScanRow:
    """One node of a defect scan; residuals are None when infeasible."""

    l1: float | None
    l2: float | None
    l3: float
    l4: float
    l5: float | None
    l6: float | None
    r_A: float | None
    r_B: float | None
    r_D: float | None
    r_C: float | None
    feasible: bool


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
    dist_tol: float
    # One row per converged start: (lengths, residual norm, s_star, distance).
    solutions: tuple[tuple[tuple[float, ...], float, float, float], ...]

    @property
    def rigidity_holds(self) -> bool:
        return self.converged > 0 and self.max_family_distance < self.dist_tol


def _residual_vector(lengths, spec: ConeAngleSpec) -> np.ndarray:
    theta = cone_angle_tuple(lengths)
    target = spec.cone_vector()
    return np.array([theta[0] - target[0], theta[1] - target[1],
                     theta[2] - target[2], theta[3] - target[3]])


def residual(m: TriangulatedMetric, spec: ConeAngleSpec) -> ConstraintResidual:
    """Cone-angle defects of a valid metric against the target spec.

    An invalid metric raises InvalidTriangleError naming the triangle.
    """
    vec = _residual_vector(np.array(m.lengths()), spec)
    return ConstraintResidual(tuple(float(v) for v in vec))


def jacobian(m: TriangulatedMetric) -> np.ndarray:
    """Exact 4x6 Jacobian of the residual (the cone angles) in l1..l6.

    Each triangle's sss_differentials go to the cone-point rows and side
    columns TRIANGLE_LAYOUT assigns them; the target does not enter.  An
    invalid metric raises InvalidTriangleError naming the triangle.
    """
    x = m.lengths()
    J = [[0.0] * 6 for _ in range(4)]
    for idx, (sides, points) in enumerate(TRIANGLE_LAYOUT, start=1):
        dangs = solve_triangle(idx, sss_differentials, *(x[s] for s in sides))
        for p, row in zip(points, dangs):
            for col, d in zip(sides, row):
                J[p][col] += d
    return np.array(J)


def numerical_rank(J: np.ndarray, rel_tol: float = 1e-6) -> tuple[int, np.ndarray]:
    """Count of singular values at or above rel_tol times the largest."""
    svals = np.linalg.svd(np.asarray(J, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0, svals
    rank = int(np.sum(svals >= rel_tol * svals[0]))
    return rank, svals


def _damped_min_norm_step(J: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """Minimum-norm Levenberg step -V diag(s/(s^2+lam^2)) U^T r."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    factors = s / (s * s + lam * lam)
    return -(Vt.T @ (factors * (U.T @ r)))


def gauss_newton(start: TriangulatedMetric, spec: ConeAngleSpec,
                 config: RunConfig = RunConfig()) -> GaussNewtonResult:
    """Project a metric onto the cone-angle constraint set.

    Steps are damped minimum-norm least-squares solutions from the SVD of
    the exact Jacobian, backtracked to stay inside the validity region.
    Success requires the residual norm below config.res_tol; the iteration
    then polishes until the step size stalls so that the quadratically flat
    directions are fully resolved.
    """
    x = np.array(start.lengths())
    try:
        r = _residual_vector(x, spec)
    except OFF_DOMAIN:
        return GaussNewtonResult("boundary", None, math.inf, 0)
    rnorm = float(np.linalg.norm(r))
    lam = config.damping0
    last_step = math.inf
    polish = 0
    iterations = 0
    for _ in range(config.max_iter):
        if rnorm < config.res_tol:
            if last_step < STEP_TOL or polish >= POLISH_LIMIT:
                break
            polish += 1
        iterations += 1
        step = _damped_min_norm_step(jacobian(TriangulatedMetric(*x)), r, lam)
        # Backtrack into the validity region.
        shrink = 0
        while True:
            x_new = x + step
            try:
                r_new = _residual_vector(x_new, spec)
                break
            except OFF_DOMAIN:
                step = 0.5 * step
                shrink += 1
                if shrink > 60:
                    return GaussNewtonResult("boundary", TriangulatedMetric(*x),
                                             rnorm, iterations)
        rnorm_new = float(np.linalg.norm(r_new))
        if rnorm_new <= rnorm or rnorm_new < config.res_tol:
            last_step = float(np.linalg.norm(step))
            x, r, rnorm = x_new, r_new, rnorm_new
            lam = max(lam / 3.0, DAMPING_FLOOR)
        else:
            lam = min(lam * 10.0, DAMPING_MAX)
    if rnorm < config.res_tol:
        return GaussNewtonResult("converged", TriangulatedMetric(*x),
                                 rnorm, iterations)
    return GaussNewtonResult("max_iter", TriangulatedMetric(*x), rnorm, iterations)


def family_distance(m: TriangulatedMetric, spec: ConeAngleSpec) -> tuple[float, float]:
    """Closest glued football: (s_star, Euclidean distance over the six lengths).

    A 200-point coarse scan over the slit parameter is refined by
    golden-section search; scan ties resolve toward smaller s.  A slit
    parameter whose football degenerates (alpha or beta near pi, at the ends
    of the window) counts as infinitely far.
    """
    target = np.array(m.lengths())

    def dist(s: float) -> float:
        try:
            fam = glued_football(GluedFootballParams(spec, float(s)))
        except OFF_DOMAIN:
            return math.inf
        return float(np.linalg.norm(np.array(fam.lengths()) - target))

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
    """Largest max-norm ball radius around base whose corners stay valid."""
    lo, hi = 0.0, PI
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _ball_corners_valid(base, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _ball_corners_valid(base: TriangulatedMetric, radius: float) -> bool:
    x = np.array(base.lengths())
    for mask in range(64):
        signs = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(6)])
        if not validate(TriangulatedMetric(*(x + radius * signs))).is_valid:
            return False
    return True


def rigidity_scan(p: GluedFootballParams,
                  config: RunConfig = RunConfig()) -> RigidityReport:
    """Multistart probe of local rigidity around one glued football.

    Draws config.samples starts uniformly in the max-norm ball of radius
    config.radius, projects each with gauss_newton and reports the Jacobian
    spectrum at the base point, convergence counts and the largest family
    distance among converged solutions.  Deterministic for a fixed seed.
    An empty probe (radius not positive, no samples) is a ValueError.
    """
    radius = config.radius
    if not radius > 0.0:  # also rejects nan
        raise ValueError(f"radius must be positive, got {radius!r}")
    if config.samples < 1:
        raise ValueError(f"samples must be at least 1, got {config.samples!r}")
    base = glued_football(p)
    if not _ball_corners_valid(base, radius):
        feasible = max_feasible_radius(base)
        raise ValueError(
            f"radius {radius!r} leaves the validity region; "
            f"max feasible radius here is {feasible:.6f}")
    rank, svals = numerical_rank(jacobian(base), config.rank_tol)
    rng = np.random.default_rng(config.seed)
    offsets = rng.uniform(-radius, radius, size=(config.samples, 6))
    starts = [TriangulatedMetric(*(np.array(base.lengths()) + off))
              for off in offsets]
    results = [gauss_newton(s, p.spec, config) for s in starts]
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
        spec=p.spec, t=p.t, radius=radius, seed=config.seed,
        singular_values=tuple(float(s) for s in svals),
        kernel_dim=6 - rank,
        starts=config.samples,
        converged=len(solutions),
        boundary_failures=boundary,
        nonconverged=nonconv,
        max_family_distance=max_dist,
        dist_tol=config.dist_tol,
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


def defect_scan(spec: ConeAngleSpec, l3_grid, l4_grid,
                closure: ScanClosure | None = None) -> list[ScanRow]:
    """C-defect over a (l3, l4) grid with the other constraints closed exactly.

    Rows appear in lexicographic (l3, l4) order; infeasible nodes are
    emitted with feasible=False rather than dropped.
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
    rows: list[ScanRow] = []
    for l3 in l3_grid:
        for l4 in l4_grid:
            row = _scan_node(spec, float(l3), float(l4), d1, d2, closure.branch)
            rows.append(row)
    return rows


def _scan_node(spec, l3, l4, d1, d2, branch) -> ScanRow:
    infeasible = ScanRow(None, None, l3, l4, None, None,
                         None, None, None, None, False)
    if not (0.0 < l3 < PI and 0.0 < l4 < PI):
        return infeasible
    l5 = side_from_sas(l3, l4, d1)
    l6 = side_from_sas(l4, l3, d2)
    s1 = math.sin(0.5 * l5) / math.sin(0.5 * spec.alpha)
    s2 = math.sin(0.5 * l6) / math.sin(0.5 * spec.beta)
    if s1 > 1.0 or s2 > 1.0 or s1 <= 0.0 or s2 <= 0.0:
        return infeasible
    l1 = clamped_asin(s1)
    l2 = clamped_asin(s2)
    if branch == "obtuse":
        l1, l2 = PI - l1, PI - l2
    try:
        r = _residual_vector((l1, l2, l3, l4, l5, l6), spec)
    except OFF_DOMAIN:
        return infeasible
    return ScanRow(l1, l2, l3, l4, l5, l6,
                   float(r[0]), float(r[1]), float(r[2]), float(r[3]), True)
