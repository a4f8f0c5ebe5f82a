import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conesphere.sphtrig import (
    PI,
    InvalidTriangleError,
    NoTriangleError,
    NumericalCorruptionError,
    angles_from_sss,
    clamp_rows,
    clamped_acos,
    side_from_sas,
    sine_rule_side,
    sss_angles,
    sss_differentials,
    triangle_violations,
)


def valid_triangles():
    """Strategy: sides (a, b, c) of random valid spherical triangles with a
    safety margin."""
    def build(a, b, frac):
        lo = abs(a - b) + 1e-3
        hi = min(a + b, 2.0 * PI - a - b) - 1e-3
        return (a, b, lo + frac * (hi - lo))

    sides = st.floats(min_value=0.05, max_value=PI - 0.05)
    fracs = st.floats(min_value=0.01, max_value=0.99)
    return st.builds(build, sides, sides, fracs).filter(
        lambda t: not triangle_violations(*t))


def excess(a, b, c):
    """The spherical area of a triangle: its angle sum less pi."""
    return sum(sss_angles(a, b, c)) - PI


class TestClamping:
    def test_roundoff_is_clamped(self):
        assert clamped_acos(1.0 + 5e-13) == 0.0
        assert clamped_acos(-1.0 - 5e-13) == PI

    def test_beyond_clamp_raises(self):
        with pytest.raises(NumericalCorruptionError):
            clamped_acos(1.0 + 1e-9)

    def test_rows_share_the_guard_band(self):
        x = np.array([1.0 + 5e-13, -1.0 - 5e-13, 1.0 + 2e-12, -1.0 - 2e-12,
                      0.5, math.nan])
        clipped, inside = clamp_rows(x)
        assert inside.tolist() == [True, True, False, False, True, False]
        assert clipped[[0, 1, 4]].tolist() == [1.0, -1.0, 0.5]
        with pytest.raises(NumericalCorruptionError):
            clamped_acos(1.0 + 2e-12)


class TestSideFromSas:
    def test_octant(self):
        assert side_from_sas(PI / 2, PI / 2, PI / 2) == pytest.approx(PI / 2, abs=1e-15)

    def test_direct_formula_value(self):
        c = side_from_sas(PI / 3, PI / 3, PI / 2)
        assert c == pytest.approx(math.acos(0.25), abs=1e-15)
        # Cross-check: the half-angle identity sin(c/2) = sin(pi/3) sin(pi/4).
        assert math.sin(c / 2) == pytest.approx(
            math.sin(PI / 3) * math.sin(PI / 4), abs=1e-15)

    @given(a=st.floats(0.1, PI - 0.1), b=st.floats(0.1, PI - 0.1),
           C=st.floats(0.1, PI - 0.1))
    def test_symmetric_in_a_b(self, a, b, C):
        assert side_from_sas(a, b, C) == side_from_sas(b, a, C)

    @given(a=st.floats(0.2, PI - 0.2), b=st.floats(0.2, PI - 0.2),
           C=st.floats(0.1, PI - 0.2))
    @settings(max_examples=60)
    def test_monotone_in_included_angle(self, a, b, C):
        assert side_from_sas(a, b, C + 0.05) > side_from_sas(a, b, C)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            side_from_sas(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            side_from_sas(1.0, 1.0, PI)


class TestAnglesFromSss:
    def test_octant(self):
        assert sss_angles(PI / 2, PI / 2, PI / 2) == pytest.approx(
            (PI / 2,) * 3, abs=1e-15)

    def test_isosceles_with_right_angles(self):
        A, B, C = sss_angles(PI / 2, PI / 2, PI / 3)
        assert A == pytest.approx(PI / 2, abs=1e-12)
        assert B == pytest.approx(PI / 2, abs=1e-12)
        assert C == pytest.approx(PI / 3, abs=1e-12)

    def test_isosceles_symmetry_exact(self):
        c = side_from_sas(0.8, 0.8, 1.1)
        A, B, _ = sss_angles(0.8, 0.8, c)
        assert A == B

    def test_invalid_triangle_names_violation(self):
        with pytest.raises(InvalidTriangleError) as err:
            sss_angles(2.0, 0.7, 0.7)
        assert "triangle inequality" in err.value.violation
        assert triangle_violations(2.0, 0.7, 0.7) == [err.value.violation]

    @given(valid_triangles())
    @settings(max_examples=100)
    def test_round_trip_sas(self, tri):
        a, b, c = tri
        A, B, C = sss_angles(a, b, c)
        # Rebuild each side from the other two plus the included angle.
        assert side_from_sas(b, c, A) == pytest.approx(a, abs=1e-10)
        assert side_from_sas(a, c, B) == pytest.approx(b, abs=1e-10)
        assert side_from_sas(a, b, C) == pytest.approx(c, abs=1e-10)

    @given(valid_triangles())
    @settings(max_examples=50)
    def test_traced_name_is_sss_angles(self, tri):
        # Same values, but not an alias: a tracer wraps every name bound to
        # the object, so an alias would wrap sss_angles as well.
        assert angles_from_sss is not sss_angles
        assert angles_from_sss(*tri) == sss_angles(*tri)

    @given(st.floats(1e-9, 1e-6), st.floats(0.4, 1.0), st.floats(0.4, 1.0),
           st.floats(0.1, 0.9))
    @settings(max_examples=100)
    def test_tiny_triangles_match_the_planar_law(self, scale, u, v, frac):
        # At sides of 1e-9..1e-6 the spherical excess is below 1e-12, so the
        # angles are the planar ones.  The cosine law lost every digit here:
        # cos of each side rounds to 1 and its numerator cancels.
        lo, hi = abs(u - v), u + v
        a, b, c = scale * u, scale * v, scale * (lo + frac * (hi - lo))
        assume(not triangle_violations(a, b, c))
        planar = [math.acos((y * y + z * z - x * x) / (2.0 * y * z))
                  for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
        assert sss_angles(a, b, c) == pytest.approx(planar, abs=1e-9)

    @given(valid_triangles())
    @settings(max_examples=100)
    def test_angle_sum_window(self, tri):
        assert PI < sum(sss_angles(*tri)) < 3.0 * PI


class TestSssDifferentials:
    def test_octant_is_identity(self):
        # All angles right: dA/da = 1 and every cross term carries a cos 0.
        D = sss_differentials(PI / 2, PI / 2, PI / 2)
        for i in range(3):
            for j in range(3):
                assert D[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_invalid_triangle_raises(self):
        with pytest.raises(InvalidTriangleError):
            sss_differentials(2.0, 0.7, 0.7)

    @given(valid_triangles())
    @settings(max_examples=100)
    def test_matches_central_differences(self, tri):
        # valid_triangles keeps every inequality 1e-3 from equality, so
        # the O((h / margin)**2) truncation error stays near 1e-8.
        h = 1e-7
        sides = list(tri)
        D = sss_differentials(*sides)
        scale = max(1.0, max(abs(v) for row in D for v in row))
        for j in range(3):
            plus, minus = list(sides), list(sides)
            plus[j] += h
            minus[j] -= h
            fd = [(p - m) / (2 * h) for p, m in
                  zip(sss_angles(*plus), sss_angles(*minus))]
            for i in range(3):
                assert abs(D[i][j] - fd[i]) < 1e-6 * scale


class TestSineRuleSide:
    def test_isosceles_branch_match(self):
        assert sine_rule_side(0.7, 1.1, 0.7, "acute") == pytest.approx(1.1, abs=1e-14)
        assert sine_rule_side(0.7, 2.5, 0.7, "obtuse") == pytest.approx(2.5, abs=1e-14)

    def test_polar_relation(self):
        b = sine_rule_side(PI / 2, PI / 2, 0.9, "acute")
        assert math.sin(b) == pytest.approx(math.sin(0.9), abs=1e-15)

    def test_slit_piece_example(self):
        b = sine_rule_side(PI / 4, 2 * PI / 3, PI / 4 - 0.05, "acute")
        assert b == pytest.approx(0.9643170952927866, abs=1e-12)
        assert math.sin(b) == pytest.approx(
            math.sin(2 * PI / 3) * math.sin(PI / 4 - 0.05) / math.sin(PI / 4),
            abs=1e-15)

    def test_ratio_above_one_raises(self):
        with pytest.raises(NoTriangleError):
            sine_rule_side(0.2, PI / 2, 1.5, "acute")

    def test_ratio_in_clamp_window_gives_right_angle(self):
        # A = B, a = pi/2 makes the ratio exactly 1 up to roundoff.
        assert sine_rule_side(0.8, PI / 2, 0.8, "acute") == pytest.approx(PI / 2)

    def test_branch_flag_is_mandatory_semantics(self):
        with pytest.raises(ValueError):
            sine_rule_side(0.7, 1.1, 0.7, "auto")


class TestExcess:
    def test_octant(self):
        assert excess(PI / 2, PI / 2, PI / 2) == pytest.approx(PI / 2, abs=1e-14)

    def test_thin_triangle_positive(self):
        exc = excess(PI / 2, PI / 2, 1e-6)
        assert 0.0 < exc < 1e-5

    @given(valid_triangles())
    @settings(max_examples=100)
    def test_bounds(self, tri):
        exc = excess(*tri)
        assert 0.0 < exc < 2.0 * PI
