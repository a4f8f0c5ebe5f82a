import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conesphere.admissibility import (
    chi,
    mp_distance,
    mp_distance_bruteforce,
)
from conesphere.metric import ConeAngleSpec, GluedFootballParams, glued_football, total_area
from conesphere.sphtrig import PI


class TestChi:
    def test_example_vector(self):
        assert chi((0.25, 0.25, 0.5, 2.0)) == pytest.approx(1.0)

    def test_smooth_sphere(self):
        assert chi(()) == 2

    def test_family_closed_form(self):
        for alpha, beta in ((0.4, 0.9), (PI / 2, PI / 2), (2.5, 0.3)):
            vec = ConeAngleSpec(alpha, beta).normalized()
            assert chi(vec) == pytest.approx((alpha + beta) / PI, abs=1e-14)

    def test_area_is_two_pi_chi(self):
        spec = ConeAngleSpec(1.3, 0.7)
        vec = spec.normalized()
        area = total_area(glued_football(GluedFootballParams(spec, 1.1)))
        assert area == pytest.approx(2.0 * PI * chi(vec), abs=1e-10)


class TestMpDistance:
    def test_two_smooth_points(self):
        assert mp_distance((1.0, 1.0)) == pytest.approx(1.0)

    def test_example_vector(self):
        vec = (0.25, 0.25, 0.5, 2.0)
        assert mp_distance(vec) == pytest.approx(1.0, abs=1e-15)
        assert mp_distance_bruteforce(vec) == pytest.approx(1.0, abs=1e-15)

    def test_family_sits_on_the_boundary(self):
        for alpha in np.linspace(0.2, PI - 0.2, 7):
            for beta in np.linspace(0.2, PI - 0.2, 7):
                vec = ConeAngleSpec(alpha, beta).normalized()
                assert abs(mp_distance(vec) - 1.0) < 1e-12

    @given(st.lists(st.floats(0.01, 3.99), min_size=1, max_size=5))
    @settings(max_examples=150)
    # Ties that uniform draws almost never produce: equal distances to the
    # rounded integers, integers, and two coordinates an ulp apart.
    @example([1.5, 1.5])
    @example([2.0, 2.0])
    @example([1.3, math.nextafter(1.3, 2.0)])
    @example([0.5, 1.5, 2.5, 3.5])
    def test_matches_bruteforce_exactly(self, entries):
        vec = tuple(entries)
        assert mp_distance(vec) == mp_distance_bruteforce(vec)

    def test_all_odd_variant_on_family_is_not_unit(self):
        # With every coordinate forced odd (nearest odd integer, coordinate
        # by coordinate) the family distance is (alpha + beta)/pi, not 1;
        # the odd-sum lattice of mp_distance is the one that puts the family
        # on the unit boundary.
        vec = ConeAngleSpec(0.3, 0.3).normalized()
        all_odd = math.fsum(abs(x - (2 * round((x - 1.0) / 2.0) + 1))
                            for x in (b - 1.0 for b in vec))
        assert all_odd == pytest.approx(0.6 / PI, abs=1e-12)
        assert mp_distance(vec) == pytest.approx(1.0, abs=1e-12)

    def test_tie_break_is_deterministic(self):
        vec = (1.5, 1.5)
        assert mp_distance(vec) == mp_distance(vec)
        assert mp_distance(vec) == pytest.approx(1.0)

    def test_unknown_parity_rejected(self):
        # The odd-sum lattice is the only convention; there is no parity knob.
        with pytest.raises(TypeError):
            mp_distance((1.0,), parity="all")
