import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conesphere.metric import (
    VALIDITY_BOUNDS,
    VALIDITY_ROWS,
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
from conesphere.sphtrig import PI, NumericalCorruptionError

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
        from conesphere.sphtrig import angles_from_sss

        m = family(1.1, 2.3, 0.9)
        t1, t2, t3, t4 = (angles_from_sss(tr) for tr in m.triangles())
        assert t1.A + t2.B == pytest.approx(PI, abs=1e-12)  # at C1
        assert t1.B + t2.A == pytest.approx(PI, abs=1e-12)  # at C2
        assert t3.A + t4.B == pytest.approx(PI, abs=1e-12)  # at C3
        assert t3.B + t4.A == pytest.approx(PI, abs=1e-12)  # at C4

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


class TestConeAngleRows:
    @given(st.lists(LENGTH_ROWS, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_cone_angle_tuple(self, rows):
        x = np.array(rows)
        # Off the polytope's boundary, where the two rules may round apart.
        assume(np.all(np.abs(VALIDITY_BOUNDS - x @ VALIDITY_ROWS.T) > 1e-9))
        theta, valid = cone_angle_rows(x)
        for row, angles, ok in zip(rows, theta, valid):
            assert ok == (not validate(TriangulatedMetric(*row)))
            if ok:
                assert angles.tolist() == pytest.approx(
                    cone_angle_tuple(row), abs=1e-13)
            else:
                assert np.isnan(angles).all()

    def test_argument_beyond_the_guard_band_is_invalid(self):
        # T2 is thin, with sides near 0 and pi: it is inside the validity
        # polytope, but roundoff puts one cosine-law argument at -1.00005,
        # where cone_angle_tuple raises.
        row = (PI / 2, PI / 2, 3.141592587551585, 3.395821253575468e-07,
               3.141592379933989, 3.1415923140076676)
        assert not validate(TriangulatedMetric(*row))
        with pytest.raises(NumericalCorruptionError):
            cone_angle_tuple(row)
        theta, valid = cone_angle_rows([row])
        assert not valid[0] and np.isnan(theta).all()


class TestValidate:
    def test_family_valid(self):
        assert validate(family(0.7, 2.2, 1.9)) == []

    def test_degenerate_slit_triangle_flagged(self):
        m = family(PI / 2, PI / 2, PI / 3)
        bad = TriangulatedMetric(m.l1, m.l2, m.l3, m.l4, m.l3 + m.l4, m.l6)
        issues = validate(bad)
        assert issues
        assert any("T2" in issue for issue in issues)

    def test_range_violation_flagged(self):
        # l1 = pi is a side of T1, which names it.
        issues = validate(TriangulatedMetric(PI, 1.0, 1.0, 1.0, 1.0, 1.0))
        assert issues
        assert issues[0].startswith("T1: side a = ")

    def test_cone_angles_error_names_triangle(self):
        from conesphere.solver import residual
        from conesphere.sphtrig import InvalidTriangleError

        bad = TriangulatedMetric(1.5, 1.5, 0.5, 0.5, 1.2, 1.4)
        with pytest.raises(InvalidTriangleError) as err:
            cone_angle_tuple(bad.lengths())
        assert "T2" in str(err.value)
        # The solver's residual evaluates through the same path.
        with pytest.raises(InvalidTriangleError) as err:
            residual(bad.lengths(), ConeAngleSpec(1.0, 1.0))
        assert "T2" in str(err.value)


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
        m = TriangulatedMetric(1.9, 2.0, 1.0, 1.2, 1.3, 1.25)
        assert 0.0 < total_area(m) < 8.0 * PI


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
