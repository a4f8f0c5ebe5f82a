import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conesphere.lemmas import NoTriangleError, half_piece_solve
from conesphere.sphtrig import (
    PI,
    angles_from_sss,
    side_from_sas,
    sss_solve,
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
    return sum(sss_solve(a, b, c)[0]) - PI


def embedded_side(a, b, C):
    """Arc between unit vectors at arcs a and b from the pole, at azimuths 0
    and C: atan2(|u x v|, u . v), with no cosine law."""
    u = np.array([math.sin(a), 0.0, math.cos(a)])
    v = np.array([math.sin(b) * math.cos(C), math.sin(b) * math.sin(C),
                  math.cos(b)])
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


class TestSideFromSas:
    def test_octant(self):
        assert side_from_sas(PI / 2, PI / 2, PI / 2) == pytest.approx(PI / 2, abs=1e-15)

    def test_direct_formula_value(self):
        c = side_from_sas(PI / 3, PI / 3, PI / 2)
        assert c == pytest.approx(math.acos(0.25), abs=1e-15)
        # Cross-check: the half-angle identity sin(c/2) = sin(pi/3) sin(pi/4).
        assert math.sin(c / 2) == pytest.approx(
            math.sin(PI / 3) * math.sin(PI / 4), abs=1e-15)

    @pytest.mark.parametrize("a, C", [(1.0, 1e-8), (1e-5, 1.0)])
    def test_isosceles_closed_form(self, a, C):
        # With a = b the side is 2 asin(sin a sin(C/2)).  The cosine law's
        # acos returned 0.0 for (1, 1, 1e-8), and was 1.5e-7 off at 1e-5.
        exact = 2.0 * math.asin(math.sin(a) * math.sin(0.5 * C))
        assert abs(side_from_sas(a, a, C) - exact) <= 2.0 * math.ulp(exact)

    @given(a=st.floats(1e-6, PI - 1e-6), b=st.floats(1e-6, PI - 1e-6),
           C=st.floats(1e-6, PI - 1e-6))
    @settings(max_examples=500)
    def test_matches_embedding(self, a, b, C):
        # The embedding's cross product carries an error of a few ulp of
        # sin a and sin b, so the bound is relative to the largest of c,
        # sin a and sin b: measured at most 3.0 ulp over 300,000 samples
        # (a relative error of at most 1.4e-13 in c).  The cosine law broke
        # it by 6.8e13 ulp at a = b = C = 1e-6.
        c = embedded_side(a, b, C)
        scale = max(c, math.sin(a), math.sin(b))
        assert abs(side_from_sas(a, b, C) - c) <= 8.0 * math.ulp(scale)

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
        assert sss_solve(PI / 2, PI / 2, PI / 2)[0] == pytest.approx(
            (PI / 2,) * 3, abs=1e-15)

    def test_isosceles_with_right_angles(self):
        A, B, C = sss_solve(PI / 2, PI / 2, PI / 3)[0]
        assert A == pytest.approx(PI / 2, abs=1e-12)
        assert B == pytest.approx(PI / 2, abs=1e-12)
        assert C == pytest.approx(PI / 3, abs=1e-12)

    def test_isosceles_symmetry_exact(self):
        c = side_from_sas(0.8, 0.8, 1.1)
        A, B, _ = sss_solve(0.8, 0.8, c)[0]
        assert A == B

    @given(valid_triangles())
    @settings(max_examples=100)
    def test_round_trip_sas(self, tri):
        a, b, c = tri
        A, B, C = sss_solve(a, b, c)[0]
        # Rebuild each side from the other two plus the included angle.
        assert side_from_sas(b, c, A) == pytest.approx(a, abs=1e-10)
        assert side_from_sas(a, c, B) == pytest.approx(b, abs=1e-10)
        assert side_from_sas(a, b, C) == pytest.approx(c, abs=1e-10)

    @given(valid_triangles())
    @settings(max_examples=50)
    def test_traced_name_is_sss_angles(self, tri):
        # The traced name gives the angles of the one SSS solve.
        assert angles_from_sss(*tri) == sss_solve(*tri)[0]

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
        assert sss_solve(a, b, c)[0] == pytest.approx(planar, abs=1e-9)

    @given(valid_triangles())
    @settings(max_examples=100)
    def test_angle_sum_window(self, tri):
        assert PI < sum(sss_solve(*tri)[0]) < 3.0 * PI


class TestSssDifferentials:
    def test_octant_is_identity(self):
        # All angles right: dA/da = 1 and every cross term carries a cos 0.
        D = sss_solve(PI / 2, PI / 2, PI / 2)[1]
        for i in range(3):
            for j in range(3):
                assert D[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    @given(valid_triangles())
    @settings(max_examples=100)
    def test_matches_central_differences(self, tri):
        # valid_triangles keeps every inequality 1e-3 from equality, so
        # the O((h / margin)**2) truncation error stays near 1e-8.
        h = 1e-7
        sides = list(tri)
        D = sss_solve(*sides)[1]
        scale = max(1.0, max(abs(v) for row in D for v in row))
        for j in range(3):
            plus, minus = list(sides), list(sides)
            plus[j] += h
            minus[j] -= h
            fd = [(p - m) / (2 * h) for p, m in
                  zip(sss_solve(*plus)[0], sss_solve(*minus)[0])]
            for i in range(3):
                assert abs(D[i][j] - fd[i]) < 1e-6 * scale


class TestSineRuleSide:
    """The sine rule as lemmas.half_piece_solve, its one caller, solves it:
    sin(side) = sin(d_half) sin(ell) / sin(apex_half), with both half
    angles in (0, pi/2)."""

    @staticmethod
    def side(apex_half, d_half, ell, branch):
        return half_piece_solve(apex_half, d_half, ell, branch)[0]

    def test_isosceles_branch_match(self):
        assert self.side(0.7, 0.7, 1.1, "acute") == pytest.approx(1.1, abs=1e-14)
        assert self.side(0.7, 0.7, 2.5, "obtuse") == pytest.approx(2.5, abs=1e-14)

    def test_slit_piece_example(self):
        b = self.side(PI / 4, PI / 4 - 0.05, 2 * PI / 3, "acute")
        assert b == pytest.approx(0.9643170952927866, abs=1e-12)
        assert math.sin(b) == pytest.approx(
            math.sin(2 * PI / 3) * math.sin(PI / 4 - 0.05) / math.sin(PI / 4),
            abs=1e-15)

    def test_ratio_above_one_raises(self):
        with pytest.raises(NoTriangleError):
            self.side(0.2, 1.5, PI / 2, "acute")

    def test_ratio_in_clamp_window_gives_right_angle(self):
        # Equal half angles and ell = pi/2 make the ratio 1 up to roundoff.
        assert self.side(0.8, 0.8, PI / 2, "acute") == pytest.approx(PI / 2)
        # A ratio up to 1e-12 above 1 is 1; beyond it, no triangle.
        for excess, ok in ((0.5, True), (2.0, False)):
            d_half = math.asin(math.sin(0.8) * (1.0 + excess * 1e-12))
            if ok:
                assert self.side(0.8, d_half, PI / 2, "acute") == PI / 2
            else:
                with pytest.raises(NoTriangleError):
                    self.side(0.8, d_half, PI / 2, "acute")

    def test_branch_flag_is_mandatory_semantics(self):
        with pytest.raises(ValueError, match="branch must be"):
            self.side(0.7, 0.7, 1.1, "auto")

    @pytest.mark.parametrize("ell", [0.0, PI, math.nan])
    def test_ell_outside_zero_pi_rejected(self, ell):
        with pytest.raises(ValueError, match="ell = .* outside"):
            self.side(0.7, 0.7, ell, "acute")


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
