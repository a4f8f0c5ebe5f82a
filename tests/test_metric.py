import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesphere.metric import (
    TRIANGLE_LAYOUT,
    ConeAngleSpec,
    GluedFootballParams,
    MetricDocumentError,
    MetricRangeError,
    TriangulatedMetric,
    cone_angle_rows,
    cone_angle_tuple,
    deserialize,
    glued_football,
    serialize,
    total_area,
    validate,
)
from conesphere.solver import max_feasible_radius
from conesphere.sphtrig import (
    PI,
    TWO_PI,
    VALIDITY_MARGIN,
    InvalidTriangleError,
    sss_solve,
    triangle_violations,
)

TARGET = 4.0 * PI


def family(alpha, beta, t):
    return glued_football(GluedFootballParams(ConeAngleSpec(alpha, beta), t))


class TestConeAngleSpec:
    def test_cone_vector(self):
        spec = ConeAngleSpec(1.0, 2.0)
        assert spec.cone_vector() == (1.0, 2.0, 3.0, 4.0 * PI)
        assert spec.normalized() == pytest.approx(
            (1.0 / (2 * PI), 1.0 / PI, 1.5 / PI, 2.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConeAngleSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            ConeAngleSpec(1.0, PI)

    def test_tiny_angle_is_in_range(self):
        # (0, pi) is the whole rule: a tiny alpha is a spec, and only the
        # football built from it degenerates.
        spec = ConeAngleSpec(1e-16, 1.0)
        assert spec.cone_vector() == (1e-16, 1.0, 1.0 + 1e-16, 4.0 * PI)


class TestGluedFootball:
    def test_closed_forms(self):
        m = family(PI / 2, PI / 2, PI / 3)
        assert m.l1 == m.l2 == pytest.approx(2 * PI / 3, abs=1e-15)
        assert m.l3 == m.l4 == pytest.approx(PI / 3, abs=1e-15)
        assert m.l5 == m.l6 == pytest.approx(1.3181160716528177, abs=1e-12)

    def test_equal_angles_give_equal_chords(self):
        for t in (0.4, 1.2, 2.8):
            m = family(1.234, 1.234, t)
            assert m.l5 == m.l6

    def test_slit_lengths_complement_l1(self):
        m = family(0.8, 2.1, 1.7)
        assert m.l3 == m.l4 == pytest.approx(PI - m.l1, abs=1e-15)

    def test_degenerate_t_rejected(self):
        with pytest.raises(ValueError):
            family(1.0, 1.0, 0.0)

    def test_family_grid_residual(self):
        for alpha in np.linspace(0.25, PI - 0.25, 4):
            for beta in np.linspace(0.25, PI - 0.25, 4):
                spec = ConeAngleSpec(alpha, beta)
                for t in np.linspace(0.15, PI - 0.15, 5):
                    m = glued_football(GluedFootballParams(spec, t))
                    theta = cone_angle_tuple(m.lengths())
                    target = spec.cone_vector()
                    assert max(abs(a - b) for a, b in zip(theta, target)) < 1e-12


class TestConeAngles:
    def test_family_point_angles(self):
        theta_A, theta_B, theta_D, theta_C = cone_angle_tuple(
            family(PI / 2, PI / 2, PI / 3).lengths())
        assert theta_A == pytest.approx(PI / 2, abs=1e-12)
        assert theta_B == pytest.approx(PI / 2, abs=1e-12)
        assert theta_D == pytest.approx(PI, abs=1e-12)
        assert theta_C == pytest.approx(TARGET, abs=1e-12)

    def test_family_per_vertex_totals_are_flat(self):
        # Each of C1..C4 collects exactly pi at a glued football.
        x = family(1.1, 2.3, 0.9).lengths()
        t1, t2, t3, t4 = (sss_solve(*(x[i] for i in sides))[0]
                          for sides, _ in TRIANGLE_LAYOUT)
        assert t1[0] + t2[1] == pytest.approx(PI, abs=1e-12)  # at C1
        assert t1[1] + t2[0] == pytest.approx(PI, abs=1e-12)  # at C2
        assert t3[0] + t4[1] == pytest.approx(PI, abs=1e-12)  # at C3
        assert t3[1] + t4[0] == pytest.approx(PI, abs=1e-12)  # at C4

    def test_perturbed_l3_breaks_c_constraint(self):
        m = family(PI / 2, PI / 2, PI / 3)
        bumped = TriangulatedMetric(m.l1, m.l2, m.l3 + 0.01, m.l4, m.l5, m.l6)
        theta_C = cone_angle_tuple(bumped.lengths())[3]
        assert theta_C - TARGET == pytest.approx(0.023027851247796605,
                                                 abs=1e-12)

    @given(st.floats(0.3, PI - 0.3), st.floats(0.3, PI - 0.3),
           st.floats(0.2, PI - 0.2))
    @settings(max_examples=50)
    def test_football_swap_relabeling(self, alpha, beta, t):
        m = family(alpha, beta, t)
        swapped = TriangulatedMetric(m.l2, m.l1, m.l3, m.l4, m.l6, m.l5)
        theta = cone_angle_tuple(m.lengths())
        theta_s = cone_angle_tuple(swapped.lengths())
        assert theta_s[0] == pytest.approx(theta[1], abs=1e-12)
        assert theta_s[1] == pytest.approx(theta[0], abs=1e-12)
        assert theta_s[2] == pytest.approx(theta[2], abs=1e-12)
        assert theta_s[3] == pytest.approx(theta[3], abs=1e-12)

    def test_slit_swap_invariance(self):
        # Swapping l3 and l4 relabels corners without moving any cone angle.
        m = TriangulatedMetric(1.9, 2.0, 1.0, 1.2, 1.3, 1.25)
        swapped = TriangulatedMetric(1.9, 2.0, 1.2, 1.0, 1.3, 1.25)
        assert cone_angle_tuple(m.lengths()) == pytest.approx(
            cone_angle_tuple(swapped.lengths()), abs=1e-14)


def _near_family(alpha, beta, t, offset):
    return list(np.array(family(alpha, beta, t).lengths()) + np.array(offset))


# Rows near the glued family (mostly valid) and anywhere around (0, pi)^6
# (mostly invalid, some with lengths outside (0, pi)).
LENGTH_ROWS = st.one_of(
    st.builds(_near_family, st.floats(0.3, PI - 0.3), st.floats(0.3, PI - 0.3),
              st.floats(0.4, PI - 0.4),
              st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6)),
    st.lists(st.floats(-0.5, PI + 0.5), min_size=6, max_size=6))


def cosine_law_reference(row):
    """Cone angles of the doubles in row by the inverse cosine law, in
    50-digit arithmetic."""
    def angle(a, b, c):
        return mpmath.acos((mpmath.cos(a) - mpmath.cos(b) * mpmath.cos(c))
                           / (mpmath.sin(b) * mpmath.sin(c)))

    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in row]
        theta = [mpmath.mpf(0)] * 4
        for (i, j, k), (p, q, r) in TRIANGLE_LAYOUT:
            theta[p] += angle(x[i], x[j], x[k])
            theta[q] += angle(x[j], x[k], x[i])
            theta[r] += angle(x[k], x[i], x[j])
        return theta


class TestConeAngleRows:
    @given(st.lists(LENGTH_ROWS, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_cone_angle_tuple(self, rows):
        theta, valid = cone_angle_rows(np.array(rows))
        for row, angles, ok in zip(rows, theta, valid):
            assert ok == (not validate(row))
            if ok:
                assert angles.tolist() == pytest.approx(
                    cone_angle_tuple(row), abs=1e-13)
            else:
                assert np.isnan(angles).all()

    @pytest.mark.parametrize("row, index", [
        # Each row puts one of T2 = (l3, l4, l5)'s four bounds on the side
        # row[index]: a < b + c, b < a + c, c < a + b, then the perimeter.
        ((1.9, 2.0, 1.2 + 1.0 - VALIDITY_MARGIN, 1.2, 1.0, 1.25), 2),
        ((1.9, 2.0, 1.0, 1.0 + 1.2 - VALIDITY_MARGIN, 1.2, 1.25), 3),
        ((1.9, 2.0, 1.0, 1.2, 1.0 + 1.2 - VALIDITY_MARGIN, 1.25), 4),
        ((1.9, 2.0, 2.0, 2.1, 2.0 * PI - VALIDITY_MARGIN - 4.1, 1.25), 4),
    ])
    def test_validity_flips_at_the_same_double_in_both_paths(self, row, index):
        # Walk row[index] one ulp at a time to the last valid double; the
        # next one up must be invalid in both paths too.
        x = list(row)
        while validate(x):
            x[index] = math.nextafter(x[index], 0.0)
        while True:
            y = list(x)
            y[index] = math.nextafter(x[index], math.inf)
            issues = validate(y)
            if issues:
                break
            x = y
        assert issues[0].startswith("T2: ")
        assert cone_angle_rows([x, y])[1].tolist() == [True, False]

    def test_thin_row_is_valid_in_both_paths(self):
        # T2 is thin, with sides near 0 and pi, and 1.1e-10 inside its
        # perimeter bound.  The cosine law put one of its arguments at
        # -1.00005 here; the half-angle rule has no argument to leave a
        # domain.  One rounding of l3 + l4 + l5 moves an angle by about 6e-8,
        # so the 50-digit reference on the same doubles holds only to 1e-7.
        row = (PI / 2, PI / 2, 3.141592587551585, 3.395821253575468e-07,
               3.141592379933989, 3.1415923140076676)
        assert not validate(row)
        theta, valid = cone_angle_rows([row])
        assert valid[0]
        assert theta[0].tolist() == pytest.approx(cone_angle_tuple(row),
                                                  abs=1e-13)
        ref = cosine_law_reference(row)
        assert max(abs(float(t - u)) for t, u in zip(ref, theta[0])) < 1e-7


class TestValidate:
    def test_family_valid(self):
        assert validate(family(0.7, 2.2, 1.9)) == []

    def test_degenerate_slit_triangle_flagged(self):
        # l5 = l3 + l4 flattens T2 and takes T1 = (l1, l1, l5) to perimeter
        # 2*pi; T3 and T4 stay valid.  The list is pinned whole: one entry
        # per violation, in T1..T4 order, each named by its triangle.
        m = family(PI / 2, PI / 2, PI / 3)
        bad = TriangulatedMetric(m.l1, m.l2, m.l3, m.l4, m.l3 + m.l4, m.l6)
        assert validate(bad) == [
            f"T1: perimeter {bad.l1 + bad.l1 + bad.l5!r} not below 2*pi",
            f"T2: triangle inequality c < a + b violated by "
            f"{bad.l5 - (bad.l3 + bad.l4)!r}",
        ]

    def test_range_violation_flagged(self):
        # A side outside (0, pi) breaks one of the four inequalities, which
        # bound every side.  l1 = pi is two sides of T1 and takes its
        # perimeter past 2*pi.
        assert validate((PI, 1.0, 1.0, 1.0, 1.0, 1.0)) == [
            f"T1: perimeter {PI + PI + 1.0!r} not below 2*pi",
        ]
        # l3 = -0.1 is a side of T2 = (l3, l4, l5) and T4 = (l4, l3, l6);
        # every violation of each is listed, not just the first.
        l3 = -0.1
        assert validate((1.0, 1.0, l3, 1.0, 1.0, 1.0)) == [
            f"T2: triangle inequality b < a + c violated by {1.0 - (l3 + 1.0)!r}",
            f"T2: triangle inequality c < a + b violated by {1.0 - (l3 + 1.0)!r}",
            f"T4: triangle inequality a < b + c violated by {1.0 - (l3 + 1.0)!r}",
            f"T4: triangle inequality c < a + b violated by {1.0 - (1.0 + l3)!r}",
        ]

    def test_cone_angles_error_names_triangle(self):
        from conesphere.solver import residual
        from conesphere.sphtrig import InvalidTriangleError

        # T2 = (0.5, 0.5, 1.2) and T4 = (0.5, 0.5, 1.4) are too flat; T1 and
        # T3 are valid.  validate names both triangles; the solvers only
        # raise.
        bad = (1.5, 1.5, 0.5, 0.5, 1.2, 1.4)
        assert validate(bad) == [
            f"T2: triangle inequality c < a + b violated by {1.2 - (0.5 + 0.5)!r}",
            f"T4: triangle inequality c < a + b violated by {1.4 - (0.5 + 0.5)!r}",
        ]
        with pytest.raises(InvalidTriangleError):
            cone_angle_tuple(bad)
        # The solver's residual evaluates through the same path.
        with pytest.raises(InvalidTriangleError):
            residual(bad, ConeAngleSpec(1.0, 1.0).cone_vector())


def _edge_side(a, b, bound, place, push):
    """The side c that puts the given bound of triangle_violations on
    (a, b, c), numbered in its order a < b + c, b < a + c, c < a + b,
    perimeter, at its edge, then moved by push.  place 1 is the last double
    that meets the bound and 2 the first that breaks it; 0 is one double
    inside 1, and 3 one double beyond 2."""
    m = VALIDITY_MARGIN
    meets = (lambda c: a < b + c - m, lambda c: b < a + c - m,
             lambda c: c < a + b - m, lambda c: a + b + c < TWO_PI - m)[bound]
    edge = (a - b + m, b - a + m, a + b - m, TWO_PI - m - a - b)[bound]
    # A larger c meets the first two bounds and breaks the last two.  Each
    # comparison is monotone in c, so bisect to two adjacent doubles.
    inward = 1e-12 if bound < 2 else -1e-12
    ok, bad = edge + inward, edge - inward
    while (mid := 0.5 * (ok + bad)) not in (ok, bad):
        ok, bad = (mid, bad) if meets(mid) else (ok, mid)
    return (math.nextafter(ok, ok + inward), ok, bad,
            math.nextafter(bad, bad - inward))[place] + push


def _with(values, index, v):
    return (*values[:index], v, *values[index + 1:])


# Plain values, with room outside (0, pi); a special value in one slot.
SIDE = st.floats(-0.5, 7.0)
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
IN_RANGE = st.floats(0.0, PI)
BOUND = st.integers(0, 3)
PLACE = st.integers(0, 3)
PUSH = st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12))

# Triangles anywhere, within 1e-12 of each of the four bounds (often on
# the doubles where it flips), and with a nan or infinite side.
TRIANGLES = st.one_of(
    st.tuples(SIDE, SIDE, SIDE),
    st.builds(lambda a, b, *edge: (a, b, _edge_side(a, b, *edge)),
              IN_RANGE, IN_RANGE, BOUND, PLACE, PUSH),
    st.builds(_with, st.tuples(SIDE, SIDE, SIDE), st.integers(0, 2), SPECIAL))


def _edge_row(x, tri, *edge):
    # The third side of each triangle is one length in no other slot of it.
    (i, j, k), _ = TRIANGLE_LAYOUT[tri]
    return _with(x, k, _edge_side(x[i], x[j], *edge))


SIX = st.tuples(*[IN_RANGE] * 6)
# Six lengths anywhere, with one triangle within 1e-12 of one of its four
# bounds, and with a nan or infinite length.
ROWS = st.one_of(
    st.tuples(*[SIDE] * 6),
    st.builds(_edge_row, SIX, st.integers(0, 3), BOUND, PLACE, PUSH),
    st.builds(_with, st.tuples(*[SIDE] * 6), st.integers(0, 5), SPECIAL))


class TestInlineValidity:
    """sss_solve and validate test the four inequalities inline and call
    triangle_violations only to name a violation; cone_angle_rows makes the
    same comparisons elementwise.  All three must agree with the rule."""

    @staticmethod
    def check_sss_solve(sides):
        bad = triangle_violations(*sides)
        if not bad:
            sss_solve(*sides)
            return
        with pytest.raises(InvalidTriangleError) as err:
            sss_solve(*sides)
        assert str(err.value) == f"invalid spherical triangle {sides}: {bad[0]}"

    @staticmethod
    def check_validate(x):
        expected = [f"T{t}: " + v
                    for t, (sides, _) in enumerate(TRIANGLE_LAYOUT, start=1)
                    for v in triangle_violations(*(x[s] for s in sides))]
        assert validate(x) == expected
        assert cone_angle_rows([x])[1].tolist() == [not expected]

    @given(TRIANGLES)
    @settings(max_examples=500, deadline=None)
    def test_sss_solve_raises_on_the_rule(self, sides):
        self.check_sss_solve(sides)

    @given(ROWS)
    @settings(max_examples=500, deadline=None)
    def test_validate_expands_the_rule(self, x):
        self.check_validate(x)

    @pytest.mark.parametrize("a, b", [(1.0, 1.2), (1.2, 1.0), (2.0, 2.2)])
    @pytest.mark.parametrize("bound", range(4))
    def test_every_bound_flips_with_the_rule(self, a, b, bound):
        # The four doubles around each bound's edge, in a triangle (a, b, c)
        # and in each triangle of a valid row.  At each pair the first
        # double that breaks a bound meets it with equality.  The first
        # bound breaks alone where a > b, the second where a < b, and the
        # perimeter where a + b > pi.
        row = (a, b, a, b, 1.1, 1.3)
        for place in range(4):
            self.check_sss_solve((a, b, _edge_side(a, b, bound, place, 0.0)))
            for tri in range(len(TRIANGLE_LAYOUT)):
                self.check_validate(_edge_row(row, tri, bound, place, 0.0))


GENERIC = (1.9, 2.0, 1.0, 1.2, 1.3, 1.25)


@pytest.mark.parametrize("wrap", [
    tuple, list, lambda x: np.array([x, x])[1], lambda x: TriangulatedMetric(*x),
], ids=["tuple", "list", "ndarray-row", "metric"])
def test_plain_lengths_in_every_container(wrap):
    # validate, total_area and serialize index or iterate the six lengths
    # and convert nothing, so every container gives the tuple's results.
    spec = ConeAngleSpec(1.0, 2.0)
    x = wrap(GENERIC)
    assert validate(x) == []
    assert total_area(x) == total_area(GENERIC)
    assert serialize(x, spec) == serialize(GENERIC, spec)
    assert deserialize(serialize(x, spec)) == (GENERIC, spec)
    # The messages are the same text for every container: an ndarray
    # row's numbers print as floats, not numpy scalars.
    bad = wrap((1.5, 1.5, 0.5, 0.5, 1.2, 1.4))
    assert validate(bad) == [
        f"T2: triangle inequality c < a + b violated by {1.2 - (0.5 + 0.5)!r}",
        f"T4: triangle inequality c < a + b violated by {1.4 - (0.5 + 0.5)!r}",
    ]


class TestArea:
    def test_right_angle_family_area(self):
        for t in (0.3, 1.1, 2.6):
            assert total_area(family(PI / 2, PI / 2, t)) == pytest.approx(
                2.0 * PI, abs=1e-10)

    def test_area_constant_along_family(self):
        spec_area = 2.0 * (0.9 + 2.4)
        areas = [total_area(family(0.9, 2.4, t))
                 for t in np.linspace(0.15, PI - 0.15, 9)]
        assert max(abs(a - spec_area) for a in areas) < 1e-10

    def test_generic_metric_area_bounds(self):
        assert 0.0 < total_area(GENERIC) < 8.0 * PI

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.2, PI - 0.2), st.floats(0.2, PI - 0.2),
           st.floats(0.2, PI - 0.2),
           st.lists(st.floats(-0.99, 0.99), min_size=6, max_size=6))
    def test_matches_the_triangle_excess_sum(self, alpha, beta, t, frac):
        # Valid lengths off the family: a family point moved by less than
        # the largest ball that stays in the validity region.  The oracle
        # sums each triangle's excess, angle sum less pi.
        base = family(alpha, beta, t)
        radius = max_feasible_radius(base)
        x = [v + radius * f for v, f in zip(base.lengths(), frac)]
        excess = sum(sum(sss_solve(*(x[i] for i in sides))[0]) - PI
                     for sides, _ in TRIANGLE_LAYOUT)
        assert abs(total_area(x) - excess) < 1e-13


class TestSerialization:
    def test_round_trip_identity(self):
        spec = ConeAngleSpec(PI / 2, PI / 2)
        m = family(PI / 2, PI / 2, PI / 3)
        m2, spec2 = deserialize(serialize(m, spec))
        assert m2 == m
        assert spec2 == spec

    def test_missing_field_names_it(self):
        spec = ConeAngleSpec(1.0, 1.0)
        doc = serialize(family(1.0, 1.0, 1.0), spec)
        broken = doc.replace('"l6"', '"lX"')
        with pytest.raises(MetricDocumentError) as err:
            deserialize(broken)
        assert "l6" in str(err.value)

    def test_negative_length_is_range_error(self):
        spec = ConeAngleSpec(1.0, 1.0)
        doc = serialize(family(1.0, 1.0, 1.0), spec)
        m, _ = deserialize(doc)
        broken = doc.replace(f"{m.l3!r}".replace("'", ""), "-1.0", 1)
        with pytest.raises(MetricRangeError):
            deserialize(broken)

    def test_not_json_is_document_error(self):
        with pytest.raises(MetricDocumentError):
            deserialize("not a document")
