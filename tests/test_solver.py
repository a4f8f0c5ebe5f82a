import functools
import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conesphere import solver, suites
from conesphere.metric import (
    TRIANGLE_LAYOUT,
    VALIDITY_BOUNDS,
    VALIDITY_ROWS,
    ConeAngleSpec,
    GluedFootballParams,
    TriangulatedMetric,
    cone_angle_pass,
    cone_angle_rows,
    cone_angle_tuple,
    glued_football,
    validate,
)
from conesphere.solver import (
    DAMPING0,
    DAMPING_FLOOR,
    DAMPING_MAX,
    DIST_TOL,
    HALVING_TOL,
    MAX_ITER,
    RES_TOL,
    STEP_TOL,
    GaussNewtonResult,
    defect_scan,
    family_distance,
    gauss_newton,
    jacobian,
    max_feasible_radius,
    numerical_rank,
    residual,
    rigidity_scan,
)
from conesphere.sphtrig import PI, InvalidTriangleError, sss_solve
from oracles import corner, golden_minimize

SPEC = ConeAngleSpec(PI / 2, PI / 2)


def base_metric(t=PI / 3, spec=SPEC):
    return glued_football(GluedFootballParams(spec, t))


def family_tangent(spec, t, ds=1e-7):
    plus = glued_football(GluedFootballParams(spec, t + ds))
    minus = glued_football(GluedFootballParams(spec, t - ds))
    return (np.array(plus.lengths()) - np.array(minus.lengths())) / (2 * ds)


# ---------------------------------------------------------------------------
# Embedding oracle for the cone angles: each triangle is built from unit
# vectors and its corners are measured with tangent vectors, so neither the
# inverse cosine law nor the library's triangle layout is used.
# ---------------------------------------------------------------------------

# T1..T4: the sides (a, b, c) as indices into l1..l6, and the cone point that
# collects the corner opposite a, opposite b and opposite c.
LAYOUT = (
    ((0, 0, 4), ("C", "C", "A")),
    ((2, 3, 4), ("C", "C", "D")),
    ((1, 1, 5), ("C", "C", "B")),
    ((3, 2, 5), ("C", "C", "D")),
)


def embedded_corners(a, b, c):
    """Corners opposite sides a, b and c of a triangle on the unit sphere.

    P1 is the north pole and P2 lies at distance c from it on the xz-plane;
    the third vertex P solves P.P1 = cos b, P.P2 = cos a and |P| = 1.
    """
    P1 = np.array([0.0, 0.0, 1.0])
    P2 = np.array([math.sin(c), 0.0, math.cos(c)])
    z = math.cos(b)
    x = (math.cos(a) - z * math.cos(c)) / math.sin(c)
    P = np.array([x, math.sqrt(1.0 - x * x - z * z), z])
    return corner(P1, P2, P), corner(P2, P1, P), corner(P, P1, P2)


def embedded_cone_angles(lengths, layout=LAYOUT):
    """(theta_A, theta_B, theta_D, theta_C) assembled from embedded corners."""
    theta = dict.fromkeys("ABDC", 0.0)
    for sides, points in layout:
        corners = embedded_corners(*(lengths[k] for k in sides))
        for point, corner in zip(points, corners):
            theta[point] += corner
    return tuple(theta[k] for k in "ABDC")


def embedded_residual(lengths, spec, layout=LAYOUT):
    target = spec.cone_vector()
    return tuple(a - b for a, b in
                 zip(embedded_cone_angles(lengths, layout), target))


EMBED_STEP = 1e-7


def embedded_margin(lengths):
    """Smallest slack of any side range, triangle inequality or perimeter."""
    slack = []
    for sides, _ in LAYOUT:
        a, b, c = (lengths[k] for k in sides)
        slack += [a, b, c, PI - a, PI - b, PI - c,
                  b + c - a, a + c - b, a + b - c, 2 * PI - a - b - c]
    return min(slack)


def embedded_jacobian(x, spec, layout=LAYOUT):
    """Central differences of embedded_residual, step EMBED_STEP.

    Their truncation error grows like (EMBED_STEP / embedded_margin)**2
    relative to the derivative, so callers keep the margin at 1e-3 or more.
    """
    cols = []
    for e in np.eye(6):
        plus = embedded_residual(x + EMBED_STEP * e, spec, layout)
        minus = embedded_residual(x - EMBED_STEP * e, spec, layout)
        cols.append((np.array(plus) - np.array(minus)) / (2 * EMBED_STEP))
    return np.column_stack(cols)


def jacobian_loops(lengths):
    """Reference assembly of the exact Jacobian: each triangle's
    sss_solve Jacobian added into a 4x6 list of lists by nested loops over
    TRIANGLE_LAYOUT, every entry from 0.0."""
    x = np.asarray(lengths, dtype=float).tolist()
    J = [[0.0] * 6 for _ in range(4)]
    for sides, points in TRIANGLE_LAYOUT:
        dangs = sss_solve(*(x[s] for s in sides))[1]
        for p, row in zip(points, dangs):
            for col, d in zip(sides, row):
                J[p][col] += d
    return np.array(J)


def two_solve_gauss_newton(start, target, double=True, monotone=False,
                           first_stall=False):
    """Reference Gauss-Newton that solves each point twice: residual at
    every trial point, then jacobian at each accepted one.  Otherwise the
    iteration of solver.gauss_newton, step for step: a step at the damping
    floor that halves the floor-damped step computed at the point before is
    doubled; a trial point is accepted against the larger norm of the last
    two accepted points; the polish stops at a step not HALVING_TOL shorter
    than the step before it, read only at the damping floor, except that
    once a doubled step has been accepted a longer step starts a climb,
    which stops at the first step not longer than the one before it.
    double=False never doubles.  first_stall=True stops at the first step
    that is not HALVING_TOL shorter, at any damping and also after a
    doubled step.  monotone=True accepts only a trial point whose norm
    does not grow and polishes up to 15 steps, the rules before the
    two-point test and the stall stop."""
    x = np.array(start, dtype=float)
    target = np.asarray(target, dtype=float)
    try:
        r = residual(x, target)
    except InvalidTriangleError:
        return GaussNewtonResult("boundary", None, math.inf, 0)
    rnorm = rnorm_prev = math.sqrt(r.dot(r))
    lam, last_step, polish, iterations, svd = DAMPING0, math.inf, 0, 0, None
    prev, extrapolated, climbing = None, False, False
    for _ in range(MAX_ITER):
        if rnorm < RES_TOL:
            if last_step < STEP_TOL or (monotone and polish >= 15):
                break
            polish += 1
        iterations += 1
        if svd is None:
            svd = np.linalg.svd(jacobian(x), full_matrices=False)
        U, sv, Vt = svd
        step = Vt.T @ (sv / (sv * sv + lam * lam) * (U.T @ r))
        doubled = False
        if prev is not None:
            gap2 = norm2 = 0.0
            for p, q in zip(prev.tolist(), step.tolist()):
                gap2 += (p - 2.0 * q) ** 2
                norm2 += p * p
            doubled = gap2 <= HALVING_TOL * HALVING_TOL * norm2
        keep = double and lam == DAMPING_FLOOR and not doubled
        prev = step if keep else None
        if doubled:
            step = 2.0 * step
        shrink = 0
        while True:
            x_new = x - step
            try:
                r_new = residual(x_new, target)
                break
            except InvalidTriangleError:
                step = 0.5 * step
                shrink += 1
                if shrink > 60:
                    return GaussNewtonResult("boundary", tuple(x.tolist()),
                                             rnorm, iterations)
        rnorm_new = math.sqrt(r_new.dot(r_new))
        bound = rnorm if monotone else max(rnorm, rnorm_prev)
        if rnorm_new <= bound or rnorm_new < RES_TOL:
            new_step = math.sqrt(step.dot(step))
            polishing = not monotone and rnorm < RES_TOL and (
                first_stall or lam == DAMPING_FLOOR)
            stalled = False
            if polishing and climbing:
                stalled = new_step <= last_step
            elif (polishing and not first_stall and extrapolated
                  and new_step > last_step):
                climbing = True
            elif polishing:
                stalled = new_step > (1.0 - HALVING_TOL) * last_step
            extrapolated = extrapolated or doubled
            x, r, rnorm_prev, rnorm, svd = x_new, r_new, rnorm, rnorm_new, None
            lam = max(lam / 3.0, DAMPING_FLOOR)
            last_step = new_step
            if stalled:
                break
        else:
            lam = min(lam * 10.0, DAMPING_MAX)
            prev = None
    status = "converged" if rnorm < RES_TOL else "max_iter"
    return GaussNewtonResult(status, tuple(x.tolist()), rnorm, iterations)


# The rigidity and rigidity-edge benchmark plans at (alpha, beta) = (1, 2):
# (t, radius), and the start seed of their first input at benchmark seed 7.
BENCH_PLANS = ((1.2, 0.05), (0.2, 0.02))
BENCH_FIRST_SEED = 1390851128


def bench_starts(t, radius, samples=100, seed=BENCH_FIRST_SEED):
    """The starts rigidity_scan draws for one benchmark input."""
    base = np.array(glued_football(
        GluedFootballParams(ConeAngleSpec(1.0, 2.0), t)).lengths())
    return base + np.random.default_rng(seed).uniform(
        -radius, radius, size=(samples, 6))


def inward_fold_problem(samples=20):
    """TestFoldControl's unreachable problem: its starts within 0.01 of the
    football at t = 1.2 (seed 7), and its target pushed 1e-6 along the
    cokernel w, out of the realizable half-space.  No start reaches it."""
    fold = TestFoldControl()
    base = np.array(glued_football(GluedFootballParams(fold.spec, fold.t)))
    starts = base + np.random.default_rng(7).uniform(
        -0.01, 0.01, size=(samples, 6))
    return starts, np.array(fold.spec.cone_vector()) - 1e-6 * fold.cokernel()


def distance_slack(s, spec):
    """Two float evaluations of a distance to the family near slit
    parameter s differ by at most this.  Each chord l = 2 asin(sin s
    sin(angle/2)) carries the rounding of its argument times the asin's
    condition 1/cos(l/2), which grows as alpha or beta nears pi; against
    50-digit mpmath one evaluation was off by at most 1.5 eps times the
    larger condition, on 300 starts and 120 converged points."""
    fam = glued_football(GluedFootballParams(spec, s))
    condition = max(1.0 / math.cos(0.5 * fam.l5), 1.0 / math.cos(0.5 * fam.l6))
    return 4.0 * sys.float_info.epsilon * condition


def golden_family_distance(lengths, spec):
    """Reference projection onto the family: the same 200-point scan,
    refined by golden-section search on the best grid point's two
    neighbours down to a width of 1e-12; s_star is the final midpoint."""

    def dist(s):
        try:
            fam = glued_football(GluedFootballParams(spec, float(s)))
        except InvalidTriangleError:
            return math.inf
        return math.dist(fam.lengths(), lengths)

    grid = np.linspace(solver.FAMILY_T_MIN, solver.FAMILY_T_MAX, 200)
    j = int(np.argmin([dist(s) for s in grid]))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    s_star = golden_minimize(dist, lo, hi, 1e-12)
    return float(s_star), float(dist(s_star))


class TestResidual:
    def test_family_point_is_zero(self):
        res = residual(base_metric(), SPEC.cone_vector())
        assert np.linalg.norm(res) < 1e-12

    def test_target_offset_is_linear(self):
        shifted = ConeAngleSpec(PI / 2 + 0.1, PI / 2)
        res = residual(base_metric(), shifted.cone_vector())
        assert res[0] == pytest.approx(-0.1, abs=1e-13)
        # theta_D also chases alpha + beta.
        assert res[2] == pytest.approx(-0.1, abs=1e-13)

    def test_matches_cone_angles_path(self):
        # The residual is computed by metric.cone_angle_tuple itself, so
        # the reference is the embedding oracle.
        m = TriangulatedMetric(1.9, 2.0, 1.0, 1.2, 1.3, 1.25)
        res = residual(m, SPEC.cone_vector())
        assert tuple(res) == pytest.approx(
            embedded_residual(m.lengths(), SPEC), abs=1e-12)
        # Negative control: the oracle tells layouts apart.  Swapping the D
        # corner of T2 with one of its C corners moves r_D and r_C.
        swapped = (LAYOUT[0], ((2, 3, 4), ("C", "D", "C")), LAYOUT[2], LAYOUT[3])
        wrong = embedded_residual(m.lengths(), SPEC, swapped)
        assert max(abs(a - b) for a, b in zip(res, wrong)) > 1e-2

    @given(st.floats(0.3, PI - 0.3), st.floats(0.3, PI - 0.3),
           st.floats(0.4, PI - 0.4),
           st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_embedding_near_family(self, alpha, beta, t, offset):
        spec = ConeAngleSpec(alpha, beta)
        base = glued_football(GluedFootballParams(spec, t))
        x = np.array(base) + np.array(offset)
        assume(not validate(x))
        assert tuple(residual(x, spec.cone_vector())) == pytest.approx(
            embedded_residual(x, spec), abs=1e-10)

    def test_antisymmetric_reclosed_perturbation(self):
        # l3/l4 pushed apart with l5, l6 re-closed: the A, B, D residuals
        # stay pinned and the C defect responds quadratically with the
        # sign fixed by the isosceles extremum kind (acute base angles at
        # t = pi/3 make the symmetric point a maximum of the corner sum).
        scan = defect_scan(SPEC, [PI / 3 + 0.01], [PI / 3 - 0.01],
                           eps=0.0, branch="obtuse")
        r_A, r_B, r_D, r_C = scan.residuals[0]
        assert scan.feasible[0]
        assert abs(r_A) < 1e-13 and abs(r_B) < 1e-13
        assert abs(r_D) < 1e-13
        assert r_C == pytest.approx(-0.0004000366726799598, abs=1e-12)
        # Mirror case t = 2pi/3: obtuse base angles, symmetric point is a
        # minimum, so the defect flips sign.
        scan = defect_scan(SPEC, [2 * PI / 3 + 0.01], [2 * PI / 3 - 0.01],
                           eps=0.0, branch="acute")
        assert scan.residuals[0, 3] == pytest.approx(0.00040003667268173615, abs=1e-12)


class TestJacobian:
    def test_family_tangent_in_kernel(self):
        for spec, t in ((SPEC, PI / 3), (ConeAngleSpec(1.0, 2.0), 1.2)):
            m = glued_football(GluedFootballParams(spec, t))
            J = jacobian(m.lengths())
            v = family_tangent(spec, t)
            assert np.linalg.norm(J @ v) / np.linalg.norm(v) < 1e-6

    def test_swap_equivariance_at_symmetric_point(self):
        # Swapping the two footballs (l1<->l2, l5<->l6) permutes the A and
        # B residuals when alpha = beta.
        m = base_metric()
        J = jacobian(m.lengths())
        S = np.zeros((6, 6))
        for i, j in ((0, 1), (1, 0), (2, 2), (3, 3), (4, 5), (5, 4)):
            S[i, j] = 1.0
        P = np.zeros((4, 4))
        for i, j in ((0, 1), (1, 0), (2, 2), (3, 3)):
            P[i, j] = 1.0
        assert np.allclose(J @ S, P @ J, atol=1e-8)

    def test_slit_swap_direction_in_kernel(self):
        # r is invariant under l3 <-> l4, so the antisymmetric direction
        # is flat at any symmetric point.
        J = jacobian(base_metric().lengths())
        v = np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0])
        assert np.linalg.norm(J @ v) < 1e-8

    @given(st.floats(0.3, PI - 0.3), st.floats(0.3, PI - 0.3),
           st.floats(0.4, PI - 0.4),
           st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_embedding_differences(self, alpha, beta, t, offset):
        spec = ConeAngleSpec(alpha, beta)
        base = glued_football(GluedFootballParams(spec, t))
        x = np.array(base.lengths()) + np.array(offset)
        assume(embedded_margin(x) > 1e-3)
        J = jacobian(x)
        scale = max(1.0, float(np.max(np.abs(J))))
        assert np.max(np.abs(J - embedded_jacobian(x, spec))) < 1e-6 * scale

    def test_embedding_differences_tell_layouts_apart(self):
        # Negative control for the property above: with T2's D corner
        # swapped for one of its C corners, the differenced oracle no
        # longer matches the Jacobian.
        swapped = (LAYOUT[0], ((2, 3, 4), ("C", "D", "C")), LAYOUT[2], LAYOUT[3])
        m = TriangulatedMetric(1.9, 2.0, 1.0, 1.2, 1.3, 1.25)
        x = np.array(m.lengths())
        J = jacobian(x)
        assert np.max(np.abs(J - embedded_jacobian(x, SPEC))) < 1e-6
        assert np.max(np.abs(J - embedded_jacobian(x, SPEC, swapped))) > 1e-1

    def test_finite_at_thin_validity_margin(self):
        # T2 within 5e-9 of degenerate (T1 is near its perimeter bound too).
        # The exact Jacobian takes no probe step, so it exists wherever the
        # residual does.
        m = base_metric()
        closer = TriangulatedMetric(m.l1, m.l2, m.l3, m.l4,
                                    m.l3 + m.l4 - 5e-9, m.l6)
        assert not validate(closer)
        assert np.all(np.isfinite(jacobian(closer.lengths())))

    @given(st.floats(0.2, PI - 0.2), st.floats(0.2, PI - 0.2),
           st.floats(0.2, PI - 0.2),
           st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6),
           st.integers(0, len(VALIDITY_ROWS)), st.floats(1e-12, 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_nested_loops(self, alpha, beta, t, offset, row,
                                           slack):
        # Points near the family; unless row is past the last validity row,
        # moved along that row's normal to within slack of its bound.
        spec = ConeAngleSpec(alpha, beta)
        x = np.array(base_metric(t=t, spec=spec).lengths()) + offset
        if row < len(VALIDITY_ROWS):
            c = VALIDITY_ROWS[row]
            x = x + (VALIDITY_BOUNDS[row] - c @ x - slack) * c / (c @ c)
        assume(not validate(x))
        np.testing.assert_array_equal(jacobian(x).view(np.int64),
                                      jacobian_loops(x).view(np.int64))


class TestConeAnglePass:
    @given(st.floats(0.2, PI - 0.2), st.floats(0.2, PI - 0.2),
           st.floats(0.2, PI - 0.2),
           st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6),
           st.integers(0, len(VALIDITY_ROWS)), st.floats(1e-12, 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_both_paths(self, alpha, beta, t, offset, row,
                                         slack):
        # Points drawn as in TestJacobian::test_bit_identical_to_nested_loops.
        # The one pass gives the scalar angles and the nested-loop Jacobian
        # to the bit.  The batched angles take numpy's sin and arctan2,
        # which may differ from libm's by an ulp: they agree to 1e-13, as
        # in test_metric, and the validity mask exactly.
        spec = ConeAngleSpec(alpha, beta)
        x = np.array(base_metric(t=t, spec=spec).lengths()) + offset
        if row < len(VALIDITY_ROWS):
            c = VALIDITY_ROWS[row]
            x = x + (VALIDITY_BOUNDS[row] - c @ x - slack) * c / (c @ c)
        assume(not validate(x))
        theta, J = cone_angle_pass(x)
        rows, valid = cone_angle_rows(x[None, :])
        assert valid[0]
        np.testing.assert_array_equal(
            np.array(theta).view(np.int64),
            np.array(cone_angle_tuple(x)).view(np.int64))
        assert rows[0].tolist() == pytest.approx(theta, abs=1e-13)
        np.testing.assert_array_equal(
            np.array(J).reshape(4, 6).view(np.int64),
            jacobian_loops(x).view(np.int64))

    def test_invalid_triangle_raises(self):
        # l5 past l3 + l4 breaks T2 = (l3, l4, l5): the pass raises.
        m = base_metric()
        bad = (m.l1, m.l2, m.l3, m.l4, m.l3 + m.l4 + 1e-3, m.l6)
        assert validate(bad)
        with pytest.raises(InvalidTriangleError):
            cone_angle_pass(bad)


class TestNumericalRank:
    def test_zero_matrix(self):
        rank, svals = numerical_rank(np.zeros((4, 6)))
        assert rank == 0

    def test_random_full_rank(self):
        rng = np.random.default_rng(0)
        J = rng.standard_normal((4, 6))
        rank, _ = numerical_rank(J)
        assert rank == 4

    def test_family_point_rank_deficiency(self):
        for spec, t in ((SPEC, PI / 3), (ConeAngleSpec(1.0, 2.0), 1.2),
                        (SPEC, PI / 2)):
            m = glued_football(GluedFootballParams(spec, t))
            rank, svals = numerical_rank(jacobian(m.lengths()))
            assert rank <= 3
            assert svals[3] / svals[0] < 1e-13


class TestGaussNewton:
    def test_family_point_is_fixed(self):
        result = gauss_newton(base_metric(), SPEC.cone_vector())
        assert result.status == "converged"
        assert result.iterations <= 1
        assert result.residual_norm < 1e-12

    def test_perturbed_start_lands_on_family(self):
        m = base_metric()
        start = np.array(m) + 1e-3 * np.array([1, -1, 1, 1, -1, 1])
        result = gauss_newton(start, SPEC.cone_vector())
        assert result.status == "converged"
        assert result.residual_norm < 1e-11
        _, dist = family_distance(result.lengths, SPEC)
        assert dist < 1e-6

    def test_converged_outputs_are_valid_metrics(self):
        from conesphere.metric import validate

        rng = np.random.default_rng(5)
        m = np.array(base_metric().lengths())
        for _ in range(8):
            result = gauss_newton(m + rng.uniform(-0.05, 0.05, 6),
                                  SPEC.cone_vector())
            assert result.status == "converged"
            assert result.residual_norm < 1e-11
            assert type(result.lengths) is tuple
            assert all(type(v) is float for v in result.lengths)
            assert not validate(result.lengths)

    def test_rejected_step_keeps_the_factorization(self, monkeypatch):
        # The first start of the unreachable fold problem ends max_iter
        # after rejected steps.  A rejection changes only the damping, so
        # no point is factored twice: the SVDs are those of the two-solve
        # reference, one per accepted point, Jacobian for Jacobian.
        starts, target = inward_fold_problem(1)
        start = starts[0]
        svd = np.linalg.svd
        factored = []

        def recording(J, full_matrices=True):
            factored.append(np.array(J))
            return svd(J, full_matrices=full_matrices)

        monkeypatch.setattr(np.linalg, "svd", recording)
        result = gauss_newton(start, target)
        ours, factored[:] = factored[:], []
        reference = two_solve_gauss_newton(start, target)
        assert result == reference
        assert result.status == "max_iter"
        assert len(ours) == len(factored)
        for J, K in zip(ours, factored):
            np.testing.assert_array_equal(J.view(np.int64), K.view(np.int64))
        assert all(not np.array_equal(J, K) for J, K in zip(ours, ours[1:]))
        # One SVD per accepted point, so fewer than the iterations.
        assert len(ours) < result.iterations
        np.testing.assert_array_equal(ours[0], jacobian(start))

    def test_backtracks_out_of_the_validity_region(self, monkeypatch):
        # The 36th draw of default_rng(3) in [0.05, 3.1]^6 is a valid start
        # whose full steps leave the region: each such trial point raises
        # in the pass, the step is halved from the same point, and the
        # solve still converges.
        target = ConeAngleSpec(1.0, 2.0).cone_vector()
        start = np.random.default_rng(3).uniform(0.05, 3.1, (36, 6))[35]
        assert not validate(start)
        trials = []  # (point, valid) in evaluation order

        def counting(lengths):
            point = np.array(lengths, dtype=float)
            try:
                out = cone_angle_pass(lengths)
            except InvalidTriangleError:
                trials.append((point, False))
                raise
            trials.append((point, True))
            return out

        monkeypatch.setattr(solver, "cone_angle_pass", counting)
        result = gauss_newton(start, target)
        rejected = [k for k, (_, ok) in enumerate(trials) if not ok]
        assert rejected
        for k in rejected:
            assert validate(trials[k][0])
            # The next trial point halves the step from some earlier valid
            # point x: x - next = (x - rejected) / 2 up to roundoff.
            nxt = trials[k + 1][0]
            gaps = [np.max(np.abs((x - nxt) - 0.5 * (x - trials[k][0])))
                    for x, ok in trials[:k] if ok]
            assert min(gaps) < 1e-14
        assert result.status == "converged"
        assert not validate(result.lengths)

    def test_exhausted_backtracking_is_a_boundary(self, monkeypatch):
        # A pass that solves the start and raises at every trial point
        # halves the first step until the backtracking gives up: the solve
        # stops at the start, inside its first iteration.
        start = tuple(np.array(base_metric()) + 1e-3 * np.array(
            [1, -1, 1, 1, -1, 1]))
        passes = []

        def start_only(lengths):
            passes.append(lengths)
            if len(passes) > 1:
                raise InvalidTriangleError("trial point")
            return cone_angle_pass(lengths)

        monkeypatch.setattr(solver, "cone_angle_pass", start_only)
        result = gauss_newton(start, SPEC.cone_vector())
        assert result.status == "boundary"
        assert result.lengths == start
        assert result.iterations == 1
        assert result.residual_norm == float(
            np.linalg.norm(residual(start, SPEC.cone_vector())))
        # The start, the full step and 60 halvings of it.
        assert len(passes) == 1 + 61

    @pytest.mark.parametrize(
        "case", [*BENCH_PLANS, "damping-cycle", "backtrack",
                 *(("fold", k) for k in range(20))],
        ids=lambda case: case if isinstance(case, str) else "-".join(
            map(str, case)))
    def test_matches_the_two_solve_reference(self, case):
        # The one-solve iteration changes no bit: every result equals the
        # reference's.  The first 100-start input of each benchmark plan
        # makes no rejected step and no backtrack, so the other cases take
        # those paths: a rigidity-edge start (benchmark seed 7, input 2,
        # start 31) whose damping cycles x10 / /3 until MAX_ITER, the start
        # of test_backtracks_out_of_the_validity_region, and each start of
        # the unreachable fold problem, which end MAX_ITER after rejections.
        target = ConeAngleSpec(1.0, 2.0).cone_vector()
        if case == "damping-cycle":
            starts = bench_starts(0.2, 0.02, seed=1695753998)[31:32]
        elif case == "backtrack":
            starts = np.random.default_rng(3).uniform(0.05, 3.1, (36, 6))[35:]
        elif case[0] == "fold":
            starts, target = inward_fold_problem()
            starts = starts[case[1]:case[1] + 1]
        else:
            starts = bench_starts(*case)
        for start in starts:
            assert gauss_newton(start, target) == two_solve_gauss_newton(
                start, target)

    def test_halving_steps_are_doubled(self):
        # On the first 100-start input of the rigidity plan every start
        # converges onto the family, in at most 17 passes per start on
        # average: 16.6 now, 19.6 with the polish run to 15 steps and 28.6
        # with steps never doubled either.
        spec = ConeAngleSpec(1.0, 2.0)
        starts = bench_starts(*BENCH_PLANS[0])
        with mock.patch.object(solver, "cone_angle_pass",
                               wraps=cone_angle_pass) as solve:
            results = [gauss_newton(s, spec.cone_vector()) for s in starts]
        assert solve.call_count <= 17 * len(starts)
        for result in results:
            assert result.status == "converged"
            assert family_distance(result.lengths, spec)[1] < DIST_TOL

    def test_polish_ends_at_the_roundoff_floor(self):
        # A doubled step lands anywhere from 1e-11 to 1e-7 from the family,
        # mostly below the roundoff floor, and the polish climbs back to
        # the floor: on the first rigidity input the 90th percentile family
        # distance is 2.2e-8, at the floor.  Negative control: stopping at
        # the first growing step leaves the starts part way up, and the
        # 90th percentile at 7.0e-9 then depends on where they landed.
        spec = ConeAngleSpec(1.0, 2.0)
        target = spec.cone_vector()
        starts = bench_starts(*BENCH_PLANS[0])

        def p90(solve):
            ends = sorted(family_distance(solve(s, target).lengths, spec)[1]
                          for s in starts)
            return ends[89]

        assert 1e-8 < p90(gauss_newton) < 3e-8
        first = functools.partial(two_solve_gauss_newton, first_stall=True)
        assert p90(first) < 1e-8

    def test_landing_above_the_floor_polishes_on(self, monkeypatch):
        # This start's doubled step lands 3.9e-6 from the family, beyond
        # DIST_TOL, and above the floor the steps after it shrink: they are
        # not a climb, and the polish halves the distance down to 1.3e-8.
        spec = ConeAngleSpec(1.0, 2.0)
        target = spec.cone_vector()
        start = bench_starts(1.2, 0.05, seed=208202837)[38]
        points = []

        def recording(lengths):
            points.append(np.array(lengths, dtype=float))
            return cone_angle_pass(lengths)

        monkeypatch.setattr(solver, "cone_angle_pass", recording)
        result = gauss_newton(start, target)
        landing = next(x for x in points
                       if np.linalg.norm(residual(x, target)) < RES_TOL)
        assert family_distance(landing, spec)[1] > DIST_TOL
        assert result.status == "converged"
        assert family_distance(result.lengths, spec)[1] < 5e-8

    def test_stall_is_read_at_the_damping_floor(self):
        # A rigidity-edge start (benchmark seed 6, input 1) that meets
        # RES_TOL 4.4e-6 from the family while the damping is still above
        # its floor: its next step does not shorten because the damping
        # holds it back.  Read as a stall, that ended the solve there after
        # 5 iterations, beyond DIST_TOL; the polish now runs on down to the
        # floor, 2.0e-8 away after 33 iterations.
        spec = ConeAngleSpec(1.0, 2.0)
        target = spec.cone_vector()
        start = bench_starts(0.2, 0.02, seed=2083207870)[45]
        result = gauss_newton(start, target)
        assert result.status == "converged"
        assert family_distance(result.lengths, spec)[1] < 1e-7
        early = two_solve_gauss_newton(start, target, first_stall=True)
        assert early.status == "converged" and early.iterations == 5
        assert family_distance(early.lengths, spec)[1] > DIST_TOL

    @pytest.mark.parametrize("t, radius", BENCH_PLANS)
    def test_doubling_loses_no_converged_start(self, t, radius):
        # Every start of the first benchmark input that converges with
        # steps never doubled still converges.
        target = ConeAngleSpec(1.0, 2.0).cone_vector()
        for start in bench_starts(t, radius):
            if two_solve_gauss_newton(start, target, double=False).status == (
                    "converged"):
                assert gauss_newton(start, target).status == "converged"

    @pytest.mark.parametrize("t, radius", BENCH_PLANS)
    def test_two_point_test_loses_no_converged_start(self, t, radius):
        # Every start of the first benchmark input that converges under
        # the monotone test with 15 polish steps still converges.  On the
        # rigidity-edge input 61 of 100 did, and 100 of 100 do now.
        target = ConeAngleSpec(1.0, 2.0).cone_vector()
        for start in bench_starts(t, radius):
            if two_solve_gauss_newton(start, target, monotone=True).status == (
                    "converged"):
                assert gauss_newton(start, target).status == "converged"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(6))
    def test_non_finite_length_is_off_domain(self, bad, index):
        # Every validity comparison is strict and reads "not (x < y)", so a
        # nan or infinite length fails it on each path.
        lengths = list(base_metric().lengths())
        lengths[index] = bad
        assert validate(lengths)
        theta, valid = cone_angle_rows([lengths])
        assert not valid[0] and np.isnan(theta).all()
        with pytest.raises(InvalidTriangleError):
            cone_angle_tuple(lengths)
        with pytest.raises(InvalidTriangleError):
            sss_solve(bad, 1.0, 1.0)
        assert gauss_newton(lengths, SPEC.cone_vector()).status == "boundary"

    def test_invalid_start_is_boundary_failure(self):
        result = gauss_newton((3.0,) * 6, SPEC.cone_vector())
        assert result.status == "boundary"
        assert result.lengths is None


class TestFamilyDistance:
    def test_family_point_distance_zero(self):
        s, dist = family_distance(base_metric(), SPEC)
        assert s == pytest.approx(PI / 3, abs=1e-9)
        assert dist < 1e-12

    def test_second_family_point(self):
        m = base_metric(t=1.9)
        s, dist = family_distance(m, SPEC)
        assert s == pytest.approx(1.9, abs=1e-9)
        assert dist < 1e-12

    def test_l1_bump_scale(self):
        m = base_metric()
        bumped = TriangulatedMetric(m.l1 + 1e-3, m.l2, m.l3, m.l4, m.l5, m.l6)
        s, dist = family_distance(bumped, SPEC)
        assert abs(s - PI / 3) < 5e-4
        assert 1e-3 / math.sqrt(6) < dist < 1e-3

    def test_angle_near_pi(self):
        # With alpha within 2e-3 of pi the footballs at the ends of the slit
        # window degenerate; those probes count as infinitely far.
        spec = ConeAngleSpec(3.1405, 1.0)
        s, dist = family_distance(base_metric(t=1.2, spec=spec), spec)
        assert s == pytest.approx(1.2, abs=1e-9)
        assert dist < 1e-12

    def test_no_valid_football_on_the_grid(self):
        # alpha within 1e-6 of pi: the footballs are valid only in a slit
        # window narrower than the scan's grid step, so the scan measures
        # nothing and the spec is named.
        spec = ConeAngleSpec(PI - 1e-6, 2.0)
        m = glued_football(GluedFootballParams(spec, PI / 2))
        with pytest.raises(ValueError, match="alpha=3.14159165"):
            family_distance(m, spec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 5])
    def test_non_finite_length_is_named(self, bad, index):
        # No football is nearest to a point with a nan or infinite length,
        # so no distance is returned and the length is named.
        lengths = list(glued_football(GluedFootballParams(
            ConeAngleSpec(1.0, 2.0), 1.2)))
        lengths[index] = bad
        with pytest.raises(ValueError, match=f"l{index + 1} = {bad!r} is not"):
            family_distance(lengths, ConeAngleSpec(1.0, 2.0))

    def test_scan_builds_the_grid_in_order(self, monkeypatch):
        # The first 200 builds are the coarse grid, in order and to the bit,
        # before any Newton build.
        slits = []

        def counting(p):
            slits.append(p.t)
            return glued_football(p)

        monkeypatch.setattr(solver, "glued_football", counting)
        family_distance(base_metric(t=1.2), SPEC)
        grid = np.linspace(solver.FAMILY_T_MIN, solver.FAMILY_T_MAX, 200)
        assert slits[:200] == grid.tolist()
        assert len(slits) > 200

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, PI - 0.2), st.floats(0.2, PI - 0.2),
           st.floats(0.3, PI - 0.3),
           st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6))
    def test_matches_closed_form_grid(self, alpha, beta, t, offset):
        # Oracle: the family in closed form on a 4001-point s grid.  The
        # search must do at least as well as the grid, and land within one
        # grid step of the grid's argmin.
        spec = ConeAngleSpec(alpha, beta)
        point = np.array(base_metric(t=t, spec=spec).lengths()) + offset
        s_grid = np.linspace(solver.FAMILY_T_MIN, solver.FAMILY_T_MAX, 4001)
        fam = np.column_stack([
            PI - s_grid, PI - s_grid, s_grid, s_grid,
            2.0 * np.arcsin(np.sin(s_grid) * math.sin(0.5 * alpha)),
            2.0 * np.arcsin(np.sin(s_grid) * math.sin(0.5 * beta))])
        grid_dist = np.linalg.norm(fam - point, axis=1)
        j = int(np.argmin(grid_dist))
        s_star, dist = family_distance(TriangulatedMetric(*point), spec)
        assert dist <= grid_dist[j] + 1e-15
        assert abs(s_star - s_grid[j]) <= s_grid[1] - s_grid[0]


    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, PI - 0.2), st.floats(0.2, PI - 0.2),
           st.floats(0.2, PI - 0.2),
           st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6))
    # beta near pi: one float distance there is off by up to 3.0e-15.
    @example(1.5, 2.9375, 1.5625, [0.0, 0.0, 0.0, 0.0, 0.0, 0.015625])
    def test_matches_golden_section(self, alpha, beta, t, offset):
        # Oracle: the same scan refined by golden-section search.  On the
        # start itself the distance is flat to roundoff over about 1e-9 in
        # s, more than the oracle resolves, so only the distances are
        # compared there, within two evaluation errors; on the converged
        # output s_star is too.  Newton converges quadratically from the
        # grid: 2 to 4 builds on 4000 such starts, where a wrong or missing
        # phi'' takes up to 12.
        spec = ConeAngleSpec(alpha, beta)
        start = np.array(base_metric(t=t, spec=spec)) + offset
        with mock.patch.object(solver, "glued_football",
                               wraps=glued_football) as build:
            s_star, dist = family_distance(start, spec)
        assert build.call_count <= 205
        assert dist <= (golden_family_distance(start, spec)[1]
                        + distance_slack(s_star, spec))
        result = gauss_newton(start, spec.cone_vector())
        assume(result.status == "converged")
        s_star, dist = family_distance(result.lengths, spec)
        s_ref, dist_ref = golden_family_distance(result.lengths, spec)
        assert abs(s_star - s_ref) <= 1e-10
        assert dist <= dist_ref + distance_slack(s_star, spec)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.2, PI - 0.2), st.floats(0.2, PI - 0.2),
           st.floats(0.2, PI - 0.2))
    # Outside FAMILY_GRID's end nodes: a bracket clipped to them left
    # these 1.4e-4 and 1.6e-4 from their own family.
    @example(1.0, 2.0, 5e-5)
    @example(1.0, 2.0, 3.14155)
    def test_family_points_to_roundoff(self, alpha, beta, t):
        # The last Newton step is taken, not only measured: a family point
        # comes back within an ulp or two of its own t (a refinement that
        # stops short of a step below 1e-12 leaves up to 1e-12 here).
        spec = ConeAngleSpec(alpha, beta)
        s_star, dist = family_distance(base_metric(t=t, spec=spec), spec)
        assert abs(s_star - t) <= 1e-15
        assert dist <= 2e-15

    @pytest.mark.parametrize("t, radius", [(1.2, 0.05), (0.2, 0.02)])
    def test_newton_budget_and_exact_remeasure(self, monkeypatch, t, radius):
        # The converged starts of both benchmark plans: at most 12 Newton
        # builds after the 200-point scan, and the distance is that of a
        # fresh build at s_star, to the bit.
        spec = ConeAngleSpec(1.0, 2.0)
        report = rigidity_scan(GluedFootballParams(spec, t), spec.cone_vector(),
                               radius, 20, 7)
        assert report["converged"] > 0
        builds = []

        def counting(p):
            builds.append(p.t)
            return glued_football(p)

        monkeypatch.setattr(solver, "glued_football", counting)
        for sol in report["solutions"]:
            m = TriangulatedMetric(*sol["lengths"])
            builds.clear()
            s_star, dist = family_distance(m, spec)
            assert 200 < len(builds) <= 212
            assert (s_star, dist) == (sol["s_star"], sol["family_distance"])
            fam = glued_football(GluedFootballParams(spec, s_star))
            assert dist == math.dist(fam.lengths(), m.lengths())

    def test_second_call_reuses_the_scan_records(self, monkeypatch):
        # The coarse scan's 200 records are built once per spec: a second
        # call constructs only its Newton records (2-4 on this point).
        made = []

        def counting(spec, t):
            made.append(t)
            return GluedFootballParams(spec, t)

        monkeypatch.setattr(solver, "GluedFootballParams", counting)
        solver._family_params.cache_clear()
        m = base_metric(t=1.2)
        first = family_distance(m, SPEC)
        assert len(made) > 200
        made.clear()
        assert family_distance(m, SPEC) == first
        assert len(made) <= 10

    def test_alternating_specs_match_fresh_results(self, monkeypatch):
        # Specs A, B, A in one process: each result is, to the bit, the one
        # an empty memo gives, and every scan build is of the spec asked for.
        specs = [ConeAngleSpec(1.0, 2.0), ConeAngleSpec(2.5, 0.7),
                 ConeAngleSpec(1.0, 2.0)]
        points = [np.array(base_metric(t=1.2, spec=spec)) + 1e-3
                  for spec in specs]
        built = []

        def recording(p):
            built.append(p.spec)
            return glued_football(p)

        monkeypatch.setattr(solver, "glued_football", recording)
        solver._family_params.cache_clear()
        results = []
        for spec, point in zip(specs, points):
            built.clear()
            results.append(family_distance(point, spec))
            assert built[:200] == [spec] * 200
        for spec, point, result in zip(specs, points, results):
            solver._family_params.cache_clear()
            assert family_distance(point, spec) == result
        assert results[0] != results[1]

    def test_degenerate_end_of_the_family(self, monkeypatch):
        # With alpha within 1.1e-3 of pi the footballs below s = 3.35e-4
        # degenerate, and the closest valid one sits at that end: Newton
        # steps into the degenerate footballs only bound the bracket.  The
        # end is fuzzy to about 1e-9 in s (the perimeter test reads
        # roundoff there), so the oracle may land deeper inside it.
        spec = ConeAngleSpec(3.1405, 1.0)
        m = base_metric(t=4e-4, spec=spec)
        bumped = TriangulatedMetric(m.l1 + 1e-3, m.l2, m.l3, m.l4, m.l5, m.l6)
        builds = []

        def counting(p):
            try:
                fam = glued_football(p)
            except InvalidTriangleError:
                builds.append(False)
                raise
            builds.append(True)
            return fam

        monkeypatch.setattr(solver, "glued_football", counting)
        s_star, dist = family_distance(bumped, spec)
        # Bisecting toward the degenerate end takes 26 builds after the
        # scan, 11 failed, and stops once the bracket is inside the blur;
        # bisecting on to a step below 1e-12 took 35, 17 failed, and Newton
        # aiming past the end again took 43, 18 failed.
        newton = builds[200:]
        assert len(builds) > 200
        assert len(newton) <= 26
        assert newton.count(False) <= 11
        fam = glued_football(GluedFootballParams(spec, s_star))
        assert dist == math.dist(fam.lengths(), bumped.lengths())
        s_ref, dist_ref = golden_family_distance(bumped, spec)
        assert abs(s_star - s_ref) < 1e-8
        assert dist < dist_ref + 1e-9


def mp_cone_system(x, target):
    """Residual and Jacobian of the cone angles at mpmath lengths x, from
    the cosine law and its differentials along LAYOUT: for a triangle with
    sides (a, b, c) and opposite corners (A, B, C), dA/da = sin a /
    (sin A sin b sin c), dA/db = -cos C dA/da and dA/dc = -cos B dA/da."""
    theta = dict.fromkeys("ABDC", mpmath.mpf(0))
    rows = {point: [mpmath.mpf(0)] * 6 for point in "ABDC"}
    for sides, points in LAYOUT:
        cos_s = [mpmath.cos(x[k]) for k in sides]
        sin_s = [mpmath.sin(x[k]) for k in sides]
        cyclic = [(i, (i + 1) % 3, (i + 2) % 3) for i in range(3)]
        corners = [mpmath.acos((cos_s[i] - cos_s[j] * cos_s[k])
                               / (sin_s[j] * sin_s[k])) for i, j, k in cyclic]
        for i, j, k in cyclic:
            d = sin_s[i] / (mpmath.sin(corners[i]) * sin_s[j] * sin_s[k])
            row = rows[points[i]]
            theta[points[i]] += corners[i]
            row[sides[i]] += d
            row[sides[j]] -= mpmath.cos(corners[k]) * d
            row[sides[k]] -= mpmath.cos(corners[j]) * d
    r = mpmath.matrix([theta[p] - v for p, v in zip("ABDC", target)])
    return r, mpmath.matrix([rows[p] for p in "ABDC"])


def mp_endgame(lengths, spec, dps=50):
    """50-digit minimum-norm Newton, x <- x - J^T (J J^T)^-1 r, from
    lengths onto the zero set of the exact spec's cone angles.  At the
    family's double roots each step halves the distance, so it stops after
    a step below 1e-13, that far from the zero set; it returns floats."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(spec.alpha), mpmath.mpf(spec.beta)
        target = (a, b, a + b, 4 * mpmath.pi)
        x = mpmath.matrix([mpmath.mpf(v) for v in lengths])
        for _ in range(MAX_ITER):
            r, J = mp_cone_system(x, target)
            step = J.T * mpmath.lu_solve(J * J.T, r)
            x -= step
            if mpmath.norm(step) < 1e-13:
                return tuple(float(v) for v in x)
    raise AssertionError(f"no endgame from {lengths!r}")


class TestEndgameOracle:
    """The program's converged points against an independent endgame.

    The rigidity-edge probe at seed 7 with 20 starts: each converged end
    point, refined by mp_endgame, must land on the family and within
    DIST_TOL of where the program stopped.
    """

    spec = ConeAngleSpec(1.0, 2.0)
    p = GluedFootballParams(spec, 0.2)

    def test_every_converged_point_is_on_the_family(self):
        # Every start converges, start 17 among them, which the monotone
        # test stopped 5.05e-6 from the family (the control below).
        report = rigidity_scan(self.p, self.spec.cone_vector(), radius=0.02,
                               samples=20, seed=7)
        assert report["converged"] == 20
        for sol in report["solutions"]:
            end = mp_endgame(sol["lengths"], self.spec)
            assert family_distance(end, self.spec)[1] < 1e-11
            assert math.dist(end, sol["lengths"]) < DIST_TOL
        assert report["rigidity_holds"]

    def test_start_17_stopped_short_under_the_monotone_test(self):
        # Negative control: the monotone test with 15 polish steps stops
        # start 17 about 5.05e-6 from the family, and the endgame from
        # there lands that far away.
        target = self.spec.cone_vector()
        base = np.array(glued_football(self.p))
        start = base + np.random.default_rng(7).uniform(
            -0.02, 0.02, size=(20, 6))[17]
        old = two_solve_gauss_newton(start, target, monotone=True)
        assert old.status == "converged"
        end = mp_endgame(old.lengths, self.spec)
        assert family_distance(end, self.spec)[1] < 1e-11
        assert math.dist(end, old.lengths) > 4 * DIST_TOL


class TestFoldControl:
    """Positive control for the rigidity probe: the family is a fold.

    On the family the left null vector of J, in residual order (A, B, D, C),
    is w = (1, 1, -1, -cos t).  Near the family the realizable cone angles
    fill the half-space w . (theta - theta0) >= 0, so a target pushed by
    +eps along w is reached off the family, about 1.8 sqrt(eps) away, and
    one pushed by -eps is reached nowhere.
    """

    spec = ConeAngleSpec(1.0, 2.0)
    t = 1.2

    def cokernel(self, sign=-1.0):
        w = np.array([1.0, 1.0, -1.0, sign * math.cos(self.t)])
        return w / np.linalg.norm(w)

    def solve(self, eps):
        base = np.array(glued_football(GluedFootballParams(self.spec, self.t)))
        starts = base + np.random.default_rng(7).uniform(-0.01, 0.01, size=(20, 6))
        target = np.array(self.spec.cone_vector()) + eps * self.cokernel()
        return [gauss_newton(s, target) for s in starts]

    def test_cokernel_is_the_left_null_vector(self):
        J = jacobian(glued_football(GluedFootballParams(self.spec, self.t)))
        sigma1 = np.linalg.svd(J, compute_uv=False)[0]
        assert np.linalg.norm(self.cokernel() @ J) / sigma1 < 1e-13
        # Negative control: the wrong sign of the C entry is far from null.
        assert np.linalg.norm(self.cokernel(+1.0) @ J) / sigma1 > 0.1

    def test_outward_target_is_reached_off_the_family(self):
        results = self.solve(1e-6)
        assert [r.status for r in results] == ["converged"] * 20
        for r in results:
            _, dist = family_distance(r.lengths, self.spec)
            assert dist > 1000 * solver.DIST_TOL

    def test_inward_target_is_not_reached(self):
        results = self.solve(-1e-6)
        assert [r.status for r in results] == ["max_iter"] * 20
        # The closest the solver gets is the fold itself, about |eps| away.
        assert min(r.residual_norm for r in results) > 0.5e-6

    def test_whole_probe_reads_the_fold(self):
        # rigidity_scan with its verdict, on the starts of solve: pushed
        # outward, every start converges more than 1e-3 from the family and
        # the probe fails; pushed inward, no start converges.  A sign error
        # in w or in the layout fails one of the two.
        p = GluedFootballParams(self.spec, self.t)
        theta0 = np.array(self.spec.cone_vector())
        out = rigidity_scan(p, theta0 + 1e-6 * self.cokernel(), radius=0.01,
                            samples=20, seed=7)
        assert out["converged"] == 20
        assert min(sol["family_distance"] for sol in out["solutions"]) > 1e-3
        assert out["rigidity_holds"] is False
        inward = rigidity_scan(p, theta0 - 1e-6 * self.cokernel(),
                               radius=0.01, samples=20, seed=7)
        assert (inward["converged"], inward["nonconverged"]) == (0, 20)
        assert inward["rigidity_holds"] is False


class TestRigidityScan:
    def test_small_scan_converges_onto_family(self):
        report = rigidity_scan(GluedFootballParams(SPEC, PI / 3),
                               SPEC.cone_vector(), radius=0.05, samples=40,
                               seed=7)
        assert report["converged"] == 40
        assert report["max_family_distance"] < 1e-6
        assert report["rigidity_holds"]
        assert report["kernel_dim"] >= 2

    def test_residual_norms_are_the_euclidean_norm(self):
        # Each recorded norm is bit for bit np.linalg.norm of the residual
        # at the recorded lengths.
        spec = ConeAngleSpec(1.0, 2.0)
        report = rigidity_scan(GluedFootballParams(spec, 1.2),
                               spec.cone_vector(), radius=0.05, samples=8,
                               seed=7)
        assert report["converged"] == 8
        for sol in report["solutions"]:
            assert sol["residual_norm"] == float(
                np.linalg.norm(residual(sol["lengths"], spec.cone_vector())))

    def test_rows_carry_their_iterations(self):
        # Each solution row carries the iterations of its start's solve.
        p = GluedFootballParams(ConeAngleSpec(1.0, 2.0), 1.2)
        target = p.spec.cone_vector()
        report = rigidity_scan(p, target, radius=0.05, samples=8, seed=7)
        starts = np.array(glued_football(p).lengths()) + np.random.default_rng(
            7).uniform(-0.05, 0.05, size=(8, 6))
        assert report["converged"] == 8
        assert [sol["iterations"] for sol in report["solutions"]] == [
            gauss_newton(s, target).iterations for s in starts]

    @pytest.mark.parametrize("t, radius", BENCH_PLANS)
    def test_bit_identical_to_the_two_solve_reference(self, t, radius):
        # The first input of each benchmark plan, against the scan rebuilt
        # from two_solve_gauss_newton per start plus family_distance: every
        # solution row and every count, to the bit.
        spec = ConeAngleSpec(1.0, 2.0)
        target = spec.cone_vector()
        report = rigidity_scan(GluedFootballParams(spec, t), target, radius,
                               100, BENCH_FIRST_SEED)
        results = [two_solve_gauss_newton(s, target)
                   for s in bench_starts(t, radius)]
        rows = []
        for res in results:
            if res.status == "converged":
                rows.append((*res.lengths, res.residual_norm, res.iterations,
                             *family_distance(res.lengths, spec)))
        statuses = [res.status for res in results]
        assert (report["converged"], report["nonconverged"],
                report["boundary_failures"]) == (
            len(rows), statuses.count("max_iter"), statuses.count("boundary"))

        def bits(row):
            return [v.hex() if isinstance(v, float) else v for v in row]

        assert [bits((*sol["lengths"], sol["residual_norm"],
                      sol["iterations"], sol["s_star"],
                      sol["family_distance"]))
                 for sol in report["solutions"]] == [bits(r) for r in rows]

    def test_deterministic_for_fixed_seed(self):
        from conesphere.suites import rigidity_suite
        from conesphere.reports import render_report

        rep1 = rigidity_suite(PI / 2, PI / 2, PI / 3, 0.05, 15, 7)
        rep2 = rigidity_suite(PI / 2, PI / 2, PI / 3, 0.05, 15, 7)
        assert render_report(rep1) == render_report(rep2)

    def test_seed_changes_details_not_verdict(self):
        p = GluedFootballParams(SPEC, PI / 3)
        target = p.spec.cone_vector()
        rep1 = rigidity_scan(p, target, radius=0.05, samples=25, seed=7)
        rep2 = rigidity_scan(p, target, radius=0.05, samples=25, seed=8)
        assert rep1["rigidity_holds"] == rep2["rigidity_holds"]
        assert rep1["solutions"] != rep2["solutions"]

    def test_counts_follow_each_start_status(self):
        # Starts that cannot reach their target stop at MAX_ITER.  The
        # counts are those of gauss_newton on the same starts, and a probe
        # whose only start fails does not hold.
        fold = TestFoldControl()
        p = GluedFootballParams(fold.spec, fold.t)
        starts, target = inward_fold_problem(12)
        statuses = [gauss_newton(s, target).status for s in starts]
        report = rigidity_scan(p, target, radius=0.01, samples=12, seed=7)
        counts = (report["converged"], report["nonconverged"],
                  report["boundary_failures"])
        assert counts == (statuses.count("converged"), statuses.count("max_iter"),
                          statuses.count("boundary"))
        assert report["nonconverged"] > 0
        lone = rigidity_scan(p, target, radius=0.01, samples=1, seed=7)
        assert statuses[0] == "max_iter"
        assert lone["converged"] == 0 and lone["max_family_distance"] == 0.0
        assert lone["rigidity_holds"] is False

    def test_radius_bound_is_strict_at_the_closed_form(self):
        p = GluedFootballParams(ConeAngleSpec(1.0, 2.0), 0.2)
        r = max_feasible_radius(glued_football(p))
        rigidity_scan(p, p.spec.cone_vector(), radius=r * (1 - 1e-9),
                      samples=1, seed=7)
        for radius in (r, r * (1 + 1e-9)):
            with pytest.raises(ValueError, match="leaves the validity region"):
                rigidity_scan(p, p.spec.cone_vector(), radius=radius,
                              samples=1, seed=7)

    def test_negative_seed_is_named(self):
        # numpy's generator rejects it too, but without naming the seed.
        p = GluedFootballParams(ConeAngleSpec(1.0, 2.0), 1.2)
        with pytest.raises(ValueError,
                           match=r"^seed must be non-negative, got -1$"):
            rigidity_scan(p, p.spec.cone_vector(), radius=0.05, samples=1,
                          seed=-1)

    def test_oversized_radius_names_feasible_bound(self):
        p = GluedFootballParams(SPEC, 0.1)
        with pytest.raises(ValueError) as err:
            rigidity_scan(p, p.spec.cone_vector(), radius=0.5, samples=5,
                          seed=7)
        feasible = max_feasible_radius(glued_football(p))
        assert f"{feasible:.6f}" in str(err.value)


def ball_corners_valid(base, radius):
    """Oracle: all 64 corners of the max-norm ball pass metric.validate."""
    x = np.array(base.lengths())
    for mask in range(64):
        signs = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(6)])
        if validate(x + radius * signs):
            return False
    return True


class TestMaxFeasibleRadius:
    @pytest.mark.parametrize("alpha, beta, t", [
        (1.0, 2.0, 0.2), (1.0, 2.0, 1.2), (PI / 2, PI / 2, PI / 3),
        (PI / 2, PI / 2, 0.1), (0.3, 2.8, 0.4), (2.8, 0.3, 2.9),
        (0.3, 0.3, PI / 2), (2.8, 2.8, 1.0), (1.5, 0.7, 2.5)])
    def test_matches_corner_enumeration(self, alpha, beta, t):
        base = glued_football(GluedFootballParams(ConeAngleSpec(alpha, beta), t))
        r = max_feasible_radius(base)
        assert 0.0 < r < PI
        assert ball_corners_valid(base, r * (1 - 1e-9))
        assert not ball_corners_valid(base, r * (1 + 1e-9))

    def test_rigidity_edge_base(self):
        base = glued_football(GluedFootballParams(ConeAngleSpec(1.0, 2.0), 0.2))
        assert max_feasible_radius(base) == pytest.approx(0.0213579, abs=5e-8)


def product(l3_axis, l4_axis):
    """The (l3, l4) pairs of the grid over two axes, l3 major."""
    return ([l3 for l3 in l3_axis for _ in l4_axis],
            [l4 for _ in l3_axis for l4 in l4_axis])


def cosine_law_side(a, b, C):
    """Third side by acos of the cosine law, its argument clipped to [-1, 1]."""
    arg = math.cos(a) * math.cos(b) + math.sin(a) * math.sin(b) * math.cos(C)
    return math.acos(max(-1.0, min(1.0, arg)))


def scan_node(spec, l3, l4, closure):
    """Per-node reference for defect_scan: (lengths, residuals), or None
    when the node is infeasible."""
    if not (0.0 < l3 < PI and 0.0 < l4 < PI):
        return None
    l5 = cosine_law_side(l3, l4, spec.alpha - 2.0 * closure["eps"])
    l6 = cosine_law_side(l4, l3, spec.beta + 2.0 * closure["eps"])
    s1 = math.sin(0.5 * l5) / math.sin(0.5 * spec.alpha)
    s2 = math.sin(0.5 * l6) / math.sin(0.5 * spec.beta)
    if not (0.0 < s1 <= 1.0 and 0.0 < s2 <= 1.0):
        return None
    l1, l2 = math.asin(s1), math.asin(s2)
    if closure["branch"] == "obtuse":
        l1, l2 = PI - l1, PI - l2
    lengths = (l1, l2, l3, l4, l5, l6)
    try:
        return lengths, residual(lengths, spec.cone_vector())
    except InvalidTriangleError:
        return None


def mp_diagonal_node(alpha, beta, eps, ell, branch):
    """(l5, l6, r_C) of the scan node l3 = l4 = ell in 50-digit arithmetic:
    the cosine law for the chords and for every corner, on LAYOUT."""
    def side(a, b, C):
        return mpmath.acos(mpmath.cos(a) * mpmath.cos(b)
                           + mpmath.sin(a) * mpmath.sin(b) * mpmath.cos(C))

    def angle(a, b, c):
        return mpmath.acos((mpmath.cos(a) - mpmath.cos(b) * mpmath.cos(c))
                           / (mpmath.sin(b) * mpmath.sin(c)))

    with mpmath.workdps(50):
        ell = mpmath.mpf(ell)
        # The D-apex targets as the scan rounds them.
        l5 = side(ell, ell, mpmath.mpf(alpha - 2.0 * eps))
        l6 = side(ell, ell, mpmath.mpf(beta + 2.0 * eps))
        l1 = mpmath.asin(mpmath.sin(l5 / 2) / mpmath.sin(mpmath.mpf(alpha) / 2))
        l2 = mpmath.asin(mpmath.sin(l6 / 2) / mpmath.sin(mpmath.mpf(beta) / 2))
        if branch == "obtuse":
            l1, l2 = mpmath.pi - l1, mpmath.pi - l2
        x = (l1, l2, ell, ell, l5, l6)
        theta_C = -4 * mpmath.pi
        for sides, points in LAYOUT:
            a, b, c = (x[k] for k in sides)
            for point, corner in zip(points, (angle(a, b, c), angle(b, c, a),
                                              angle(c, a, b))):
                if point == "C":
                    theta_C += corner
        return l5, l6, theta_C


class TestDefectScan:
    @pytest.mark.parametrize("lo, hi, n, closure", [
        # The benchmark's two windows, then windows with infeasible nodes:
        # closure ratios above 1, and l3, l4 outside (0, pi).
        (2.0, 2.4, 101, {"eps": 0.05, "branch": "acute"}),
        (0.6, 1.0, 101, {"eps": 0.05, "branch": "obtuse"}),
        (0.1, 3.0, 41, {"eps": 0.05, "branch": "obtuse"}),
        (-0.5, 3.5, 21, {"eps": 0.0, "branch": "acute"}),
    ])
    def test_matches_per_node_closure(self, lo, hi, n, closure):
        spec = ConeAngleSpec(1.0, 2.0)
        axis = np.linspace(lo, hi, n).tolist()
        l3s, l4s = product(axis, axis)
        scan = defect_scan(spec, l3s, l4s, **closure)
        lengths = np.full((len(l3s), 6), np.nan)
        residuals = np.full((len(l3s), 4), np.nan)
        for k, (l3, l4) in enumerate(zip(l3s, l4s)):
            lengths[k, 2:4] = l3, l4
            node = scan_node(spec, l3, l4, closure)
            if node is not None:
                lengths[k], residuals[k] = node
        assert scan.feasible.tolist() == (~np.isnan(residuals[:, 0])).tolist()
        assert scan.feasible.any()
        np.testing.assert_array_equal(scan.lengths[:, 2:4], lengths[:, 2:4])
        np.testing.assert_allclose(scan.lengths, lengths, rtol=0, atol=1e-13)
        np.testing.assert_allclose(scan.residuals, residuals, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("ell, branch", [
        (3.1404, "acute"), (3.13, "acute"), (0.0012, "obtuse"), (0.01, "obtuse")])
    def test_thin_end_matches_high_precision(self, ell, branch):
        # At either end of the slit range the chords are about 1e-3.  The
        # cosine law's acos put l5 4.9e-14 off and r_C 1.55e-10 off at
        # ell = 3.1404; the half-angle form keeps l5 within 1e-18 and r_C
        # within 1.7e-13.
        scan = defect_scan(ConeAngleSpec(1.0, 2.0), [ell], [ell], 0.05, branch)
        assert scan.feasible[0]
        l5, l6, r_C = mp_diagonal_node(1.0, 2.0, 0.05, ell, branch)
        assert abs(scan.lengths[0, 4] - l5) < 1e-16
        assert abs(scan.lengths[0, 5] - l6) < 1e-16
        assert abs(scan.residuals[0, 3] - r_C) < 1e-12

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError, match="branch must be"):
            defect_scan(SPEC, [PI / 3], [PI / 3], eps=0.0, branch="bogus")

    @pytest.mark.parametrize("eps", [0.8, -1.1])
    def test_eps_driving_a_d_apex_out_rejected(self, eps):
        # (1, 2): eps = 0.8 puts alpha - 2 eps below 0, eps = -1.1 puts it
        # above pi.
        with pytest.raises(ValueError, match="drives a D-apex out"):
            defect_scan(ConeAngleSpec(1.0, 2.0), [2.0], [2.0], eps, "acute")

    @pytest.mark.parametrize("l3, l4", [([], []), ([1.0, 1.1], [1.0])])
    def test_empty_or_unequal_pairs_rejected(self, l3, l4):
        with pytest.raises(ValueError, match="scan grid needs at least 1 node"):
            defect_scan(SPEC, l3, l4, eps=0.0, branch="acute")

    def test_family_slice_rows_are_flat(self):
        scan = defect_scan(SPEC, [PI / 3], [PI / 3],
                           eps=0.0, branch="obtuse")
        assert scan.feasible[0]
        assert abs(scan.residuals[0, 3]) < 1e-12

    def test_rows_in_lexicographic_order(self):
        # The scan suite builds the grid: l3 major, each axis in its order.
        _, scan = suites.scan_suite(PI / 2, PI / 2, 0.0, "obtuse",
                                    [1.1, 1.0], [1.0, 0.9, 0.95])
        assert scan.lengths[:, 2:4].tolist() == [
            [1.1, 1.0], [1.1, 0.9], [1.1, 0.95],
            [1.0, 1.0], [1.0, 0.9], [1.0, 0.95]]

    def test_rows_in_input_order(self):
        l3s, l4s = [1.1, 1.0, 1.05], [0.9, 1.0, 0.95]
        scan = defect_scan(SPEC, l3s, l4s, eps=0.0, branch="obtuse")
        assert scan.lengths[:, 2].tolist() == l3s
        assert scan.lengths[:, 3].tolist() == l4s
        # Each row is the node solved alone.
        for k, (l3, l4) in enumerate(zip(l3s, l4s)):
            alone = defect_scan(SPEC, [l3], [l4], eps=0.0, branch="obtuse")
            np.testing.assert_array_equal(alone.lengths[0], scan.lengths[k])
            np.testing.assert_array_equal(alone.residuals[0], scan.residuals[k])

    def test_infeasible_nodes_flagged_not_dropped(self):
        # eps large enough that the B-side closure ratio exceeds 1.
        scan = defect_scan(SPEC, *product([1.9, 2.6], [1.9, 2.6]),
                           eps=0.1, branch="acute")
        assert len(scan.feasible) == 4
        flags = {(round(l3, 2), round(l4, 2)): ok for (l3, l4), ok in
                 zip(scan.lengths[:, 2:4].tolist(), scan.feasible.tolist())}
        assert flags[(1.9, 1.9)] is False
        assert flags[(2.6, 2.6)] is True

    def test_closure_pins_a_b_d_exactly(self):
        scan = defect_scan(ConeAngleSpec(1.0, 2.0),
                           *product([2.2, 2.4], [2.2, 2.3]),
                           eps=0.05, branch="acute")
        for (r_A, r_B, r_D, r_C), ok in zip(scan.residuals, scan.feasible):
            if ok:
                assert abs(r_A) < 1e-12
                assert abs(r_B) < 1e-12
                assert abs(r_D) < 1e-12
                assert abs(r_C) > 1e-4

    def test_zero_crossings_only_on_family_slice(self):
        # With an even split, the diagonal nodes are family points and the
        # off-diagonal ones carry a strictly nonzero C-defect.
        grid = [1.0, 1.05, 1.1]
        scan = defect_scan(SPEC, *product(grid, grid), eps=0.0, branch="obtuse")
        for (l3, l4), r_C, ok in zip(scan.lengths[:, 2:4], scan.residuals[:, 3],
                                     scan.feasible):
            assert ok
            if l3 == l4:
                assert abs(r_C) < 1e-9
            else:
                assert abs(r_C) > 1e-9
