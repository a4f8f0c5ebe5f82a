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
    cone_angle_rows,
    cone_angle_tuple,
    glued_football,
    validate,
)
from conesphere.solver import (
    defect_scan,
    family_distance,
    gauss_newton,
    jacobian,
    max_feasible_radius,
    numerical_rank,
    residual,
    rigidity_scan,
)
from conesphere.sphtrig import (
    PI,
    InvalidTriangleError,
    sss_differentials,
)

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


def _tangent(at, to):
    t = to - np.dot(to, at) * at
    return t / np.linalg.norm(t)


def _corner(at, p, q):
    """Interior angle at `at` between the arcs to p and q."""
    u, v = _tangent(at, p), _tangent(at, q)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


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
    return _corner(P1, P2, P), _corner(P2, P1, P), _corner(P, P1, P2)


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
    sss_differentials added into a 4x6 list of lists by nested loops over
    TRIANGLE_LAYOUT, every entry from 0.0."""
    x = np.asarray(lengths, dtype=float).tolist()
    J = [[0.0] * 6 for _ in range(4)]
    for sides, points in TRIANGLE_LAYOUT:
        dangs = sss_differentials(*(x[s] for s in sides))
        for p, row in zip(points, dangs):
            for col, d in zip(sides, row):
                J[p][col] += d
    return np.array(J)


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


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        # The first start a seed-7, radius-0.02 probe draws at t = 0.2 has
        # rejected steps.  A rejection changes only the damping, so the
        # next iteration must not recompute the Jacobian at the same point.
        spec = ConeAngleSpec(1.0, 2.0)
        base = np.array(glued_football(GluedFootballParams(spec, 0.2)).lengths())
        offset = np.random.default_rng(7).uniform(-0.02, 0.02, size=6)
        points = []

        def recording(lengths):
            points.append(tuple(float(v) for v in lengths))
            return jacobian(lengths)

        monkeypatch.setattr(solver, "jacobian", recording)
        result = gauss_newton(base + offset, spec.cone_vector())
        assert all(a != b for a, b in zip(points, points[1:]))
        # One Jacobian per accepted point, so fewer than the iterations.
        assert len(points) < result.iterations

    def test_backtracks_out_of_the_validity_region(self, monkeypatch):
        # The 36th draw of default_rng(3) in [0.05, 3.1]^6 is a valid start
        # whose full steps leave the region: each such trial point is
        # rejected, the step halved, and the solve still converges.
        target = ConeAngleSpec(1.0, 2.0).cone_vector()
        start = np.random.default_rng(3).uniform(0.05, 3.1, (36, 6))[35]
        assert not validate(start)
        rejected = []

        def counting(lengths, target):
            try:
                return residual(lengths, target)
            except InvalidTriangleError:
                rejected.append(tuple(lengths))
                raise

        monkeypatch.setattr(solver, "residual", counting)
        result = gauss_newton(start, target)
        assert rejected
        assert result.status == "converged"
        assert not validate(result.lengths)

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
            sss_differentials(bad, 1.0, 1.0)
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
        report = rigidity_scan(GluedFootballParams(spec, t), radius, 20, 7)
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
        # Bisecting toward the degenerate end takes 35 builds after the
        # scan, 17 failed; Newton aiming past it again took 43, 18 failed.
        newton = builds[200:]
        assert len(builds) > 200
        assert len(newton) <= 35
        assert newton.count(False) <= 17
        fam = glued_football(GluedFootballParams(spec, s_star))
        assert dist == math.dist(fam.lengths(), bumped.lengths())
        s_ref, dist_ref = golden_family_distance(bumped, spec)
        assert abs(s_star - s_ref) < 1e-8
        assert dist < dist_ref + 1e-9


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


class TestRigidityScan:
    def test_small_scan_converges_onto_family(self):
        report = rigidity_scan(GluedFootballParams(SPEC, PI / 3),
                               radius=0.05, samples=40, seed=7)
        assert report["converged"] == 40
        assert report["max_family_distance"] < 1e-6
        assert report["rigidity_holds"]
        assert report["kernel_dim"] >= 2

    def test_residual_norms_are_the_euclidean_norm(self):
        # Each recorded norm is bit for bit np.linalg.norm of the residual
        # at the recorded lengths.
        spec = ConeAngleSpec(1.0, 2.0)
        report = rigidity_scan(GluedFootballParams(spec, 1.2),
                               radius=0.05, samples=8, seed=7)
        assert report["converged"] == 8
        for sol in report["solutions"]:
            assert sol["residual_norm"] == float(
                np.linalg.norm(residual(sol["lengths"], spec.cone_vector())))

    def test_deterministic_for_fixed_seed(self):
        from conesphere.suites import rigidity_suite
        from conesphere.reports import render_report

        rep1 = rigidity_suite(PI / 2, PI / 2, PI / 3, 0.05, 15, 7)
        rep2 = rigidity_suite(PI / 2, PI / 2, PI / 3, 0.05, 15, 7)
        assert render_report(rep1) == render_report(rep2)

    def test_seed_changes_details_not_verdict(self):
        p = GluedFootballParams(SPEC, PI / 3)
        rep1 = rigidity_scan(p, radius=0.05, samples=25, seed=7)
        rep2 = rigidity_scan(p, radius=0.05, samples=25, seed=8)
        assert rep1["rigidity_holds"] == rep2["rigidity_holds"]
        assert rep1["solutions"] != rep2["solutions"]

    def test_counts_follow_each_start_status(self):
        # Near the validity boundary some starts stop at MAX_ITER.  The
        # counts are those of gauss_newton on the same starts, and a probe
        # whose only start fails does not hold.
        p = GluedFootballParams(ConeAngleSpec(1.0, 2.0), 0.2)
        base = np.array(glued_football(p).lengths())
        offsets = np.random.default_rng(7).uniform(-0.02, 0.02, size=(12, 6))
        statuses = [gauss_newton(base + off, p.spec.cone_vector()).status
                    for off in offsets]
        report = rigidity_scan(p, radius=0.02, samples=12, seed=7)
        counts = (report["converged"], report["nonconverged"],
                  report["boundary_failures"])
        assert counts == (statuses.count("converged"), statuses.count("max_iter"),
                          statuses.count("boundary"))
        assert report["nonconverged"] > 0
        lone = rigidity_scan(p, radius=0.02, samples=1, seed=7)
        assert statuses[0] == "max_iter"
        assert lone["converged"] == 0 and lone["max_family_distance"] == 0.0
        assert lone["rigidity_holds"] is False

    def test_radius_bound_is_strict_at_the_closed_form(self):
        p = GluedFootballParams(ConeAngleSpec(1.0, 2.0), 0.2)
        r = max_feasible_radius(glued_football(p))
        rigidity_scan(p, radius=r * (1 - 1e-9), samples=1, seed=7)
        for radius in (r, r * (1 + 1e-9)):
            with pytest.raises(ValueError, match="leaves the validity region"):
                rigidity_scan(p, radius=radius, samples=1, seed=7)

    def test_oversized_radius_names_feasible_bound(self):
        p = GluedFootballParams(SPEC, 0.1)
        with pytest.raises(ValueError) as err:
            rigidity_scan(p, radius=0.5, samples=5, seed=7)
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
