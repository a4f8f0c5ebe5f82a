import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conesphere import lemmas, suites
from conesphere.lemmas import (
    NoTriangleError,
    angle_sum_branches,
    half_piece_solve,
    inequality_sign,
    lemma1_caseb_exclusion,
    lemma3_sweep,
    _angle_sum_roots,
)
from conesphere.metric import ConeAngleSpec
from conesphere.solver import ScanGrid, defect_scan
from conesphere.sphtrig import PI, sss_solve
from oracles import corner, golden_minimize, tangent


# ---------------------------------------------------------------------------
# Embedding oracle: build a half piece explicitly on the unit sphere and
# measure its corner angle with tangent vectors, entirely outside the
# trigonometric kernel.
# ---------------------------------------------------------------------------

def embedded_half_piece_corner(apex_half, d_half, ell, branch):
    """Corner angle at the slit vertex, via explicit unit vectors.

    The apex sits at the north pole, the slit vertex C at azimuth
    +apex_half and arc length from the pole the sine-rule side of
    half_piece_solve (the corner alone is measured), and the D vertex on the azimuth-0 symmetry plane at
    distance ell from C, selected so the angle it makes with the symmetry
    axis equals d_half.  The corner angle is measured as the tangent sweep
    from the apex direction to the D direction on the side of the region,
    which may exceed pi.
    """
    side, _ = half_piece_solve(apex_half, d_half, ell, branch)
    A = np.array([0.0, 0.0, 1.0])
    C = np.array([math.sin(side) * math.cos(apex_half),
                  math.sin(side) * math.sin(apex_half),
                  math.cos(side)])
    # D on the symmetry great circle (xz-plane), angle psi from the pole.
    amp = math.hypot(C[0], C[2])
    phase = math.atan2(C[0], C[2])
    # cos(ell) = C . D(psi) = amp * cos(psi - phase)
    delta = math.acos(max(-1.0, min(1.0, math.cos(ell) / amp)))
    candidates = [phase + delta, phase - delta]
    best = None
    for psi in candidates:
        psi = psi % (2.0 * PI)
        D = np.array([math.sin(psi), 0.0, math.cos(psi)])
        # Axis tangent at D back toward the apex, along decreasing psi.
        axis_dir = np.array([-math.cos(psi), 0.0, math.sin(psi)])
        to_C = tangent(D, C)
        d_angle = math.acos(max(-1.0, min(1.0, np.dot(axis_dir, to_C))))
        err = abs(d_angle - d_half)
        if best is None or err < best[0]:
            best = (err, D)
    err, D = best
    assert err < 1e-8, f"no symmetry-plane vertex with D-angle {d_half}"
    # Interior angle at C between the apex arc and the slit arc, swept on
    # the region side (toward decreasing azimuth).
    t_A = tangent(C, A)
    t_D = tangent(C, D)
    cross = np.cross(t_A, t_D)
    signed_sin = float(np.dot(cross, C))
    cos_angle = float(np.dot(t_A, t_D))
    sweep = math.atan2(signed_sin, cos_angle)
    if sweep < 0.0:
        sweep += 2.0 * PI
    return sweep


def embedded_base_angle_sums(a, ell, beta, n=120):
    """Base-angle sums of the triangles with base ell, base angle a, apex beta.

    The base runs from P at the north pole to Q at distance ell along the
    azimuth-0 meridian.  The apex X walks the arc leaving P at angle a
    from PQ; every point on it where the angle at X equals beta (bracketed
    on an n-node grid, then bisected) gives one triangle, and its sum
    a + angle(Q) is returned.
    """
    P = np.array([0.0, 0.0, 1.0])
    Q = np.array([math.sin(ell), 0.0, math.cos(ell)])
    u = np.array([math.cos(a), math.sin(a), 0.0])

    def apex(t):
        return math.cos(t) * P + math.sin(t) * u

    def f(t):
        return corner(apex(t), P, Q) - beta

    ts = [PI * (k + 0.5) / n for k in range(n)]
    fs = [f(t) for t in ts]
    sums = []
    for k in range(n - 1):
        lo, hi, f_lo = ts[k], ts[k + 1], fs[k]
        if f_lo * fs[k + 1] > 0.0:
            continue
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            f_mid = f(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        sums.append(a + corner(Q, P, apex(0.5 * (lo + hi))))
    return sums


def embedded_extremum_kind(a_star, s_star, ell, beta, delta=1e-2):
    """Kind of the extremum of s at (a_star, s_star) from the embedded sums.

    Each neighbour follows the solution branch through s_star; the sign of
    the second difference of s decides minimum or maximum.
    """
    def s_near(a, target):
        return min(embedded_base_angle_sums(a, ell, beta),
                   key=lambda s: abs(s - target))

    s0 = s_near(a_star, s_star)
    assert abs(s0 - s_star) < 1e-8, f"embedding misses s = {s_star} at a = {a_star}"
    second = s_near(a_star - delta, s0) + s_near(a_star + delta, s0) - 2.0 * s0
    return "minimum" if second > 0.0 else "maximum"


# ---------------------------------------------------------------------------
# half_piece_solve
# ---------------------------------------------------------------------------

class TestHalfPiece:
    def test_symmetric_family_point_is_flat(self):
        # Equal apex and D halves: the half piece is half of a lune and the
        # corner angle is exactly pi (per-vertex total pi when doubled).
        side, corner = half_piece_solve(PI / 4, PI / 4, 2 * PI / 3, "acute")
        assert side == pytest.approx(PI - 2 * PI / 3, abs=1e-12)
        assert corner == pytest.approx(PI, abs=1e-12)

    def test_slit_piece_example(self):
        side, corner = half_piece_solve(PI / 4, (PI / 2 - 0.1) / 2, 2 * PI / 3,
                                        "acute")
        assert side == pytest.approx(0.9643170952927866, abs=1e-12)
        assert corner == pytest.approx(3.0483413960624732, abs=1e-11)

    def test_other_slit_piece_example(self):
        # The other piece of the same split (lemma 2 at eps = 0.05).
        side, corner = half_piece_solve(PI / 4, (PI / 2 + 0.1) / 2, 2 * PI / 3,
                                        "acute")
        assert side == pytest.approx(1.1390259991704181, abs=1e-12)
        assert corner == pytest.approx(3.2501547977606773, abs=1e-11)

    def test_infeasible_ratio_raises(self):
        with pytest.raises(NoTriangleError):
            half_piece_solve(0.05, 1.5, 1.5, "acute")

    @pytest.mark.parametrize("name", ["apex_half", "d_half"])
    @pytest.mark.parametrize("value", [0.0, PI / 2, math.nan])
    def test_half_angles_outside_zero_half_pi_rejected(self, name, value):
        halves = {"apex_half": PI / 4, "d_half": PI / 4, name: value}
        with pytest.raises(ValueError, match=f"{name} = .* outside"):
            half_piece_solve(halves["apex_half"], halves["d_half"],
                             2 * PI / 3, "acute")

    @pytest.mark.parametrize("apex_half,d_half,ell,branch", [
        (PI / 4, (PI / 2 - 0.1) / 2, 2 * PI / 3, "acute"),
        (PI / 4, (PI / 2 + 0.1) / 2, 2 * PI / 3, "acute"),
        (PI / 4, (PI / 2 - 0.1) / 2, PI / 3, "obtuse"),
        (PI / 4, (PI / 2 + 0.1) / 2, PI / 3, "obtuse"),
        (0.5, 0.42, 2.2, "acute"),
        (1.0, 1.08, 1.1, "obtuse"),
    ])
    def test_matches_embedded_geometry(self, apex_half, d_half, ell, branch):
        _, corner = half_piece_solve(apex_half, d_half, ell, branch)
        oracle = embedded_half_piece_corner(apex_half, d_half, ell, branch)
        assert corner == pytest.approx(oracle, abs=1e-9)

    @given(apex_half=st.floats(0.01, PI / 2 - 0.01),
           d_half=st.floats(0.01, PI / 2 - 0.01),
           frac=st.floats(0.01, 0.99),
           branch=st.sampled_from(["acute", "obtuse"]))
    @settings(max_examples=200, deadline=None)
    def test_corner_matches_embedding_in_both_regimes(
            self, apex_half, d_half, frac, branch):
        # Acute pieces have their slit in (pi/2, pi), obtuse ones in
        # (0, pi/2), as the suites' windows place them.
        ell = 0.5 * PI * (1.0 + frac if branch == "acute" else frac)
        ratio = math.sin(d_half) * math.sin(ell) / math.sin(apex_half)
        assume(ratio < 1.0 - 1e-6)
        _, corner = half_piece_solve(apex_half, d_half, ell, branch)
        oracle = embedded_half_piece_corner(apex_half, d_half, ell, branch)
        assert corner == pytest.approx(oracle, abs=1e-9)


# ---------------------------------------------------------------------------
# The uneven-split defect.  The lemma2 and step1 suites read it off the
# diagonal l3 = l4 = ell of solver.defect_scan; napier_defect rebuilds it
# from two half_piece_solve calls as an independent oracle.
# ---------------------------------------------------------------------------

def diagonal(alpha, beta, eps, ells, branch):
    """The scan's {"l1", "l2", "defect"} at each ell, None where infeasible."""
    scan = defect_scan(ConeAngleSpec(alpha, beta), ells, ells, eps, branch)
    nodes = []
    for k in range(len(ells)):
        l1, l2 = scan.lengths[k, :2].tolist()
        nodes.append({"l1": l1, "l2": l2, "defect": float(scan.residuals[k, 3])}
                     if scan.feasible[k] else None)
    return nodes


def diagonal_node(alpha, beta, eps, ell, branch):
    (node,) = diagonal(alpha, beta, eps, [ell], branch)
    assert node is not None, f"infeasible node at ell = {ell}"
    return node


def napier_defect(alpha, beta, eps, ell, branch):
    """{"l1", "l2", "defect"} of the D-split (alpha - 2 eps, beta + 2 eps)
    by Napier's rule, None when a sine-rule ratio exceeds 1."""
    try:
        l1, c1 = half_piece_solve(0.5 * alpha, 0.5 * (alpha - 2.0 * eps),
                                  ell, branch)
        l2, c2 = half_piece_solve(0.5 * beta, 0.5 * (beta + 2.0 * eps),
                                  ell, branch)
    except NoTriangleError:
        return None
    return {"l1": l1, "l2": l2, "defect": 2.0 * (c1 + c2) - 4.0 * PI}


@given(alpha=st.floats(0.05, PI - 0.05), beta=st.floats(0.05, PI - 0.05),
       eps=st.floats(-0.3, 0.3), branch=st.sampled_from(["acute", "obtuse"]),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_diagonal_matches_napier(alpha, beta, eps, branch, fracs):
    # Slit lengths at least 0.05 inside the regime's interval: (pi/2, pi)
    # for acute pieces, (0, pi/2) for obtuse ones.
    assume(0.0 < alpha - 2.0 * eps < PI and 0.0 < beta + 2.0 * eps < PI)
    lo = PI / 2 + 0.05 if branch == "acute" else 0.05
    ells = [lo + (PI / 2 - 0.1) * f for f in fracs]
    for ell, node in zip(ells, diagonal(alpha, beta, eps, ells, branch)):
        oracle = napier_defect(alpha, beta, eps, ell, branch)
        assert (node is None) == (oracle is None), (ell, node, oracle)
        if node is not None:
            assert node["defect"] == pytest.approx(oracle["defect"], abs=1e-11)


class TestLemma2Defect:
    def test_zero_split_is_family(self):
        for ell, branch in ((2.0, "acute"), (1.1, "obtuse")):
            d = diagonal_node(PI / 2, PI / 2, 0.0, ell, branch)
            assert abs(d["defect"]) < 1e-10

    def test_frozen_below_case(self):
        d = diagonal_node(PI / 2, PI / 2, 0.05, 2 * PI / 3, "acute")
        assert d["l1"] == pytest.approx(0.9643170952927866, abs=1e-12)
        assert d["l2"] == pytest.approx(1.1390259991704181, abs=1e-12)
        assert d["defect"] == pytest.approx(0.030621773287128562, abs=1e-11)

    def test_frozen_above_case(self):
        d = diagonal_node(PI / 2, PI / 2, 0.05, PI / 3, "obtuse")
        assert d["defect"] == pytest.approx(-0.030621773287128562, abs=1e-11)

    def test_true_sign_structure(self):
        # Corner totals exceed 4*pi when l1, l2 are short (slit above pi/2)
        # and fall below 4*pi in the mirror regime: the opposite of the
        # classical sign convention.  Acceptance criterion 4 asserts this
        # law over both suites.
        for eps in (0.01, 0.05, 0.1):
            below = diagonal(PI / 2, PI / 2, eps, np.linspace(2.0, 2.6, 5),
                             "acute")
            assert all(d["defect"] > 1e-9 for d in below)
            above = diagonal(PI / 2, PI / 2, eps, np.linspace(0.5, 1.04, 5),
                             "obtuse")
            assert all(d["defect"] < -1e-9 for d in above)

    def test_matches_napier_oracle(self):
        # Same configuration by Napier's rule on the two half pieces.
        d = diagonal_node(PI / 2, PI / 2, 0.05, 2.2, "acute")
        oracle = napier_defect(PI / 2, PI / 2, 0.05, 2.2, "acute")
        assert d["defect"] == pytest.approx(oracle["defect"], abs=1e-12)
        assert d["l1"] == pytest.approx(oracle["l1"], abs=1e-12)
        assert d["l2"] == pytest.approx(oracle["l2"], abs=1e-12)

    def test_matches_embedded_geometry(self):
        beta, eps, ell = PI / 2, 0.05, 2 * PI / 3
        d = diagonal_node(beta, beta, eps, ell, "acute")
        a1 = embedded_half_piece_corner(beta / 2, (beta - 2 * eps) / 2, ell, "acute")
        a2 = embedded_half_piece_corner(beta / 2, (beta + 2 * eps) / 2, ell, "acute")
        assert d["defect"] == pytest.approx(2 * (a1 + a2) - 4 * PI, abs=1e-9)

    def test_even_in_eps(self):
        # At alpha = beta, -eps swaps the pieces: l1 <-> l2 and l5 <-> l6,
        # bit for bit.  The defect sums the eight corners in another order,
        # so it agrees only within 4 ulp(4 pi) = 7.1e-15 (the worst over 61
        # ells in [2.0, 2.6] is 3.6e-15).
        ells = np.linspace(2.0, 2.6, 61)
        spec = ConeAngleSpec(PI / 2, PI / 2)
        plus = defect_scan(spec, ells, ells, 0.05, "acute")
        minus = defect_scan(spec, ells, ells, -0.05, "acute")
        assert plus.feasible.all() and minus.feasible.all()
        np.testing.assert_array_equal(plus.lengths[:, [1, 0, 2, 3, 5, 4]],
                                      minus.lengths)
        np.testing.assert_allclose(plus.residuals[:, 3], minus.residuals[:, 3],
                                   rtol=0, atol=4 * math.ulp(4 * PI))
        # Quadratic smallness: defect(eps/2) ~ defect(eps)/4.
        d1 = diagonal_node(PI / 2, PI / 2, 0.04, 2.2, "acute")["defect"]
        d2 = diagonal_node(PI / 2, PI / 2, 0.02, 2.2, "acute")["defect"]
        assert d1 / d2 == pytest.approx(4.0, rel=0.05)

    def test_first_order_cancellation(self):
        for eps in (0.01, 0.02):
            d = diagonal_node(PI / 2, PI / 2, eps, 2.3, "acute")["defect"]
            dm = diagonal_node(PI / 2, PI / 2, -eps, 2.3, "acute")["defect"]
            assert abs(d + dm) < 10.0 * eps ** 2

    def test_corrected_sign_law(self):
        # defect < 0 iff R1 > R2, where R_i = sin((ell + l_i)/2) /
        # sin((ell - l_i)/2); equivalently sign(defect) =
        # -sign(sin(ell) sin((l1 - l2)/2) / (d1 d2)).  Verified on both
        # regimes; this is the cancellation-corrected version of the
        # product law (no cos(ell) factor).
        cases = [(0.03, ell, "acute") for ell in np.linspace(2.05, 2.55, 4)]
        cases += [(0.03, ell, "obtuse") for ell in np.linspace(0.6, 1.0, 4)]
        for eps, ell, branch in cases:
            d = diagonal_node(PI / 2, PI / 2, eps, float(ell), branch)
            r1 = math.sin(0.5 * (ell + d["l1"])) / math.sin(0.5 * (ell - d["l1"]))
            r2 = math.sin(0.5 * (ell + d["l2"])) / math.sin(0.5 * (ell - d["l2"]))
            assert (d["defect"] < 0.0) == (r1 > r2)

    def test_sweep_flags_infeasible(self):
        nodes = diagonal(PI / 2, PI / 2, 0.1, [1.7, 2.2], "acute")
        assert nodes[0] is None
        assert nodes[1] is not None
        assert napier_defect(PI / 2, PI / 2, 0.1, 1.7, "acute") is None

    def test_sweep_row_keys(self):
        # A window reaching below the feasible slit lengths: the suite
        # writes each infeasible node as {"ell", "feasible": False} and
        # each feasible one as the diagonal node plus the sign keys.
        report = suites._defect_suite("lemmas --suite lemma2", PI / 2, PI / 2,
                                      {"below": ("acute", 1.7, 2.2)}, {})
        sweeps = report["results"]["sweeps"]
        feasible = [row["feasible"] for sweep in sweeps for row in sweep["rows"]]
        assert 0 < sum(feasible) < len(feasible)
        for sweep in sweeps:
            nodes = diagonal(PI / 2, PI / 2, sweep["eps"], sweep["grid"], "acute")
            for ell, row, node in zip(sweep["grid"], sweep["rows"], nodes,
                                      strict=True):
                if node is None:
                    assert row == {"ell": ell, "feasible": False}
                else:
                    assert row == {"ell": ell, "feasible": True, **node,
                                   "expected_sign": -1, "computed_sign": 1,
                                   "classical_product_sign": inequality_sign(
                                       ell, node["l1"], node["l2"])}


# ---------------------------------------------------------------------------
# inequality_sign
# ---------------------------------------------------------------------------

class TestInequalitySign:
    def test_below_regime_product_is_positive(self):
        # ell > pi/2 with l1 < l2: cos < 0 and sin((l1-l2)/2) < 0.
        assert inequality_sign(2 * PI / 3, 0.96, 1.14) == 1

    def test_above_regime_product_is_positive(self):
        assert inequality_sign(PI / 3, 2.18, 2.00) == 1

    def test_equal_sides_zero(self):
        assert inequality_sign(1.0, 1.2, 1.2) == 0

    def test_mixed_signs_product_is_negative(self):
        # ell < pi/2 with l1 < l2: sin, cos > 0 and sin((l1-l2)/2) < 0.
        assert inequality_sign(PI / 3, 1.0, 1.2) == -1


# ---------------------------------------------------------------------------
# The per-node sign rule of the lemma2, step1 and scan verdicts
# ---------------------------------------------------------------------------

def constant_defect_scan(defects):
    """A stand-in for suites.defect_scan: every node feasible, node k with
    r_C = defects[k % len(defects)] and the other cells 1.0."""
    def scan(spec, l3, l4, eps, branch):
        n = len(l3)
        residuals = np.ones((n, 4))
        residuals[:, 3] = [defects[k % len(defects)] for k in range(n)]
        return ScanGrid(np.ones((n, 6)), residuals, np.ones(n, dtype=bool))
    return scan


class TestSignRule:
    def test_margin_is_undecided(self):
        beyond = math.nextafter(suites.SIGN_MARGIN, math.inf)
        for stated in (1, -1):
            assert not suites.as_stated(stated * suites.SIGN_MARGIN, stated)
            assert suites.as_stated(stated * beyond, stated)
            assert not suites.as_stated(-stated * beyond, stated)

    def test_signed_zero_signs_to_zero(self):
        assert lemmas.sign(0.0) == lemmas.sign(-0.0) == 0
        assert lemmas.sign(5e-324) == 1
        assert lemmas.sign(-5e-324) == -1

    def test_scan_node_inside_the_margin_fails(self, monkeypatch):
        # Every node carries the stated sign; one of the nine is 5e-10
        # from zero, inside the margin, and fails the scan by itself.
        stated = suites.STATED_SIGN["acute"]
        axis = [2.0, 2.2, 2.4]
        monkeypatch.setattr(suites, "defect_scan",
                            constant_defect_scan([stated * 1e-3]))
        report, _ = suites.scan_suite(1.0, 2.0, 0.05, "acute", axis, axis)
        assert report["results"]["checked_nodes"] == 9
        assert report["results"]["pass"] is True
        monkeypatch.setattr(suites, "defect_scan", constant_defect_scan(
            [stated * 1e-3] * 4 + [stated * 5e-10]))
        report, _ = suites.scan_suite(1.0, 2.0, 0.05, "acute", axis, axis)
        assert report["results"]["checked_nodes"] == 9
        assert report["results"]["pass"] is False

    def test_defect_suite_node_inside_the_margin_fails(self, monkeypatch):
        monkeypatch.setattr(suites, "defect_scan", constant_defect_scan(
            [-1e-3, -1e-3, -5e-10]))
        report = suites._defect_suite("lemmas --suite lemma2", PI / 2,
                                      PI / 2, {"below": ("acute", 2.0, 2.6)},
                                      {})
        sweeps = report["results"]["sweeps"]
        # Five nodes per sweep, so the 5e-10 node lands in every sweep.
        assert [s["pass"] for s in sweeps] == [False] * len(suites.LEMMA2_EPS)
        assert all(row["computed_sign"] == -1
                   for s in sweeps for row in s["rows"])


# ---------------------------------------------------------------------------
# lemma3_sweep
# ---------------------------------------------------------------------------

def dual_cosine_angle(A, B, c):
    """Angle opposite side c from the two angles adjacent to it.

    The dual (polar) cosine law cos C = -cos A cos B + sin A sin B cos c,
    an oracle for the roots of _angle_sum_roots, which solve the same law
    for the base angle in closed form.
    """
    arg = -math.cos(A) * math.cos(B) + math.sin(A) * math.sin(B) * math.cos(c)
    return math.acos(max(-1.0, min(1.0, arg)))


class TestDualCosine:
    def test_two_right_angles_force_apex_equal_to_side(self):
        for c in (0.3, 1.0, 2.0):
            assert dual_cosine_angle(PI / 2, PI / 2, c) == pytest.approx(c, abs=1e-14)

    def test_octant(self):
        assert dual_cosine_angle(PI / 2, PI / 2, PI / 2) == pytest.approx(PI / 2)

    def test_isosceles_extremal_triangle(self):
        # alpha with tan^2(alpha) = 2 closes base pi/3 onto a right apex.
        alpha = math.acos(1.0 / math.sqrt(3.0))
        assert dual_cosine_angle(alpha, alpha, PI / 3) == pytest.approx(
            PI / 2, abs=1e-12)

    @given(A=st.floats(0.05, PI - 0.05), B=st.floats(0.05, PI - 0.05),
           c=st.floats(0.05, PI - 0.05))
    @settings(max_examples=100)
    def test_argument_always_in_range(self, A, B, c):
        # The hinge argument lies strictly inside (-cos(A-B), -cos(A+B)),
        # so any two angles in (0, pi) across a side in (0, pi) close.
        arg = (-math.cos(A) * math.cos(B)
               + math.sin(A) * math.sin(B) * math.cos(c))
        assert -1.0 <= arg <= 1.0
        assert 0.0 <= dual_cosine_angle(A, B, c) <= PI

    @given(a=st.floats(0.05, PI - 0.05), b=st.floats(0.05, PI - 0.05),
           frac=st.floats(0.01, 0.99))
    @settings(max_examples=100)
    def test_agrees_with_sss(self, a, b, frac):
        lo = abs(a - b) + 1e-3
        hi = min(a + b, 2.0 * PI - a - b) - 1e-3
        assume(lo < hi)
        c = lo + frac * (hi - lo)
        A, B, C = sss_solve(a, b, c)[0]
        assert dual_cosine_angle(A, B, c) == pytest.approx(C, abs=1e-10)


def golden_extremize(ell, beta, lo, hi, kind):
    """Independent locator: golden-section on the same implicit function."""
    def s_of(a):
        roots = _angle_sum_roots(a, ell, beta)
        assert roots
        return min(roots, key=lambda s: abs(s - 2 * a))

    sign = 1.0 if kind == "minimum" else -1.0
    return golden_minimize(lambda a: sign * s_of(a), lo, hi, 1e-9)


def mp_angle_sum_roots(alpha, ell, beta, dps=50):
    """_angle_sum_roots in dps digits, from acos(cos(beta) / R) directly:
    the digits that formula loses where two roots meet are far below dps."""
    with mpmath.workdps(dps):
        a, e, b = (mpmath.mpf(v) for v in (alpha, ell, beta))
        x, y = -mpmath.cos(a), mpmath.sin(a) * mpmath.cos(e)
        r = mpmath.hypot(x, y)
        if abs(mpmath.cos(b)) > r:
            return []
        phi, half = mpmath.atan2(y, x), mpmath.acos(mpmath.cos(b) / r)
        us = sorted((phi + sign * half) % (2 * mpmath.pi) for sign in (-1, 1))
        return [a + u for u in us if 1e-9 < u < mpmath.pi - 1e-9]


class TestAngleSumRoots:
    def test_two_roots_near_the_fold(self):
        # Near the fold (cos(beta) just below R) the two roots sit 0.0106
        # apart, inside one cell of a coarse sign-change scan.
        r = math.hypot(math.cos(1.0), math.sin(1.0) * math.cos(1.0))
        beta = math.acos(r - 1e-5)
        roots = _angle_sum_roots(1.0, 1.0, beta)
        assert len(roots) == 2
        assert roots[1] - roots[0] == pytest.approx(0.0106, abs=1e-4)

    def test_roots_keep_their_digits_where_two_roots_meet(self):
        # ell = 1, beta = 1e-7: on (1.006e-7, 1.183e-7) the two roots are
        # about to meet and cos(beta) / R is next to 1, where its acos
        # loses half the digits.  The roots stay within a few ulps of
        # 50-digit ones.
        lo, hi = 1.006e-7, 1.183e-7
        for k in range(1, 33):
            alpha = lo + (hi - lo) * k / 33
            roots = _angle_sum_roots(alpha, 1.0, 1e-7)
            exact = mp_angle_sum_roots(alpha, 1.0, 1e-7)
            assert len(roots) == len(exact) == 2
            for s, s_exact in zip(roots, exact):
                assert abs(s - float(s_exact)) <= 2e-15, (alpha, s, s_exact)

    @settings(max_examples=400, deadline=None)
    @given(*[st.floats(0.0, PI, exclude_min=True, exclude_max=True)] * 3)
    def test_never_raises(self, alpha, ell, beta):
        # sqrt reads only a discriminant D >= 0, and atan2 needs no clamp.
        for s in _angle_sum_roots(alpha, ell, beta):
            assert alpha < s < alpha + PI

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.01, PI - 0.01), st.floats(0.01, PI - 0.01),
           st.floats(0.01, PI - 0.01))
    def test_roots_solve_the_dual_cosine_law(self, alpha, ell, beta):
        for s in _angle_sum_roots(alpha, ell, beta):
            assert alpha < s < alpha + PI
            assert dual_cosine_angle(alpha, s - alpha, ell) == pytest.approx(
                beta, abs=1e-12)


class TestLemma3:
    def test_closed_form_case(self):
        extrema = lemma3_sweep(PI / 3, PI / 2)
        assert [e["kind"] for e in extrema] != ["degenerate"]
        assert len(extrema) == 2
        lo, hi = extrema
        assert lo["alpha_crit"] == pytest.approx(math.acos(1 / math.sqrt(3)),
                                                 abs=1e-9)
        assert hi["alpha_crit"] == pytest.approx(
            PI - math.acos(1 / math.sqrt(3)), abs=1e-9)
        assert lo["s_crit"] == pytest.approx(2 * lo["alpha_crit"], abs=1e-9)

    def test_isosceles_location_on_random_pairs(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 8:
            ell = rng.uniform(0.2, PI - 0.2)
            beta = rng.uniform(0.2, PI - 0.2)
            if math.cos(ell) - math.cos(beta) <= 0.05:
                continue
            done += 1
            extrema = lemma3_sweep(ell, beta)
            assert len(extrema) == 2
            for ext in extrema:
                a = ext["alpha_crit"]
                located = golden_extremize(ell, beta, a - 0.05, a + 0.05,
                                           ext["kind"])
                assert a == pytest.approx(located, abs=1e-6)
                assert abs(a - ext["s_crit"] / 2) < 1e-6

    def test_kind_vs_halfpi_truth(self):
        # The acute isosceles shape maximizes the base-angle sum and the
        # obtuse one minimizes it, the mirror of the classical convention
        # (acceptance criterion 5 asserts this law).  Each kind is checked
        # against the embedding oracle, which never touches the implicit
        # equation lemma3_sweep solves.
        lo, hi = lemma3_sweep(PI / 3, PI / 2)
        assert lo["alpha_crit"] < PI / 2 and lo["kind"] == "maximum"
        assert hi["alpha_crit"] > PI / 2 and hi["kind"] == "minimum"
        cases = [(PI / 3, PI / 2)]
        rng = np.random.default_rng(2024)
        while len(cases) < 4:
            ell = float(rng.uniform(0.15, PI - 0.15))
            beta = float(rng.uniform(0.15, PI - 0.15))
            if math.cos(ell) - math.cos(beta) > 0.05:
                cases.append((ell, beta))
        for ell, beta in cases:
            extrema = lemma3_sweep(ell, beta)
            assert len(extrema) == 2
            for ext in extrema:
                assert ext["kind"] == embedded_extremum_kind(
                    ext["alpha_crit"], ext["s_crit"], ell, beta), (ell, beta, ext)

    @pytest.mark.parametrize("beta", [3.14158, 3.141592, 3.1415926])
    def test_kind_near_beta_pi(self, beta):
        # The extrema sit within 1e-5 of 0 and pi, nearer than the 1e-4 of
        # the second difference elsewhere; the oracle steps half the way to
        # the nearer end.
        extrema = lemma3_sweep(1.0, beta)
        assert [e["kind"] for e in extrema] == ["maximum", "minimum"]
        for ext in extrema:
            a = ext["alpha_crit"]
            assert ext["kind"] == embedded_extremum_kind(
                a, ext["s_crit"], 1.0, beta, delta=0.5 * min(a, PI - a))

    def test_kinds_where_the_roots_meet(self):
        # ell = 0.001, beta = 3.14159: the extrema sit within 1.4e-6 of 0
        # and pi, where the two roots nearly meet.  The kinds are the signs
        # of the 50-digit second difference of s, taken at the same nodes,
        # and far below the roundoff of an acos next to -1.
        ell, beta = 0.001, 3.14159
        extrema = lemma3_sweep(ell, beta)
        assert [e["kind"] for e in extrema] == ["maximum", "minimum"]
        for ext in extrema:
            a = ext["alpha_crit"]
            h = min(1e-4, 0.5 * a, 0.5 * (PI - a))

            def s_near(alpha):
                return min(mp_angle_sum_roots(alpha, ell, beta),
                           key=lambda s: abs(s - 2 * a))

            curvature = s_near(a - h) + s_near(a + h) - 2 * s_near(a)
            assert ext["kind"] == ("minimum" if curvature > 0 else "maximum")

    @pytest.mark.parametrize("ell, beta", [
        (0.001, 3.14159), (1.0, 3.141592), (2.6, 3.141586), (1.0, 2.0),
        (1.0471976, 1.5707963)])
    def test_alpha_crit_keeps_its_digits(self, ell, beta):
        # cos^2(alpha) = (cos(ell) - cos(beta))/(1 + cos(ell)) in 50 digits.
        # Near 0 and pi an acos of its root, next to 1, lost half the
        # digits (relative error 4.4e-6 at (0.001, 3.14159)).
        with mpmath.workdps(50):
            e, b = mpmath.mpf(ell), mpmath.mpf(beta)
            ref = mpmath.acos(mpmath.sqrt(
                (mpmath.cos(e) - mpmath.cos(b)) / (1 + mpmath.cos(e))))
            lo, hi = lemma3_sweep(ell, beta)
            for got, want in ((lo, ref), (hi, mpmath.pi - ref)):
                assert abs(got["alpha_crit"] - want) / want < 1e-15

    def test_plan_input_keeps_its_bits(self):
        # The benchmark's lemma3 input reads the same extrema as with acos.
        lo, hi = lemma3_sweep(1.0471976, 1.5707963)
        assert (lo["alpha_crit"], hi["alpha_crit"]) == (
            0.9553166569952698, 2.1862759965945235)
        assert (lo["s_crit"], hi["s_crit"]) == (
            1.9106333139905398, 4.372551993189047)

    @pytest.mark.parametrize("ell, beta", [(2.6, 3.141586)] + [
        (0.01 + (PI - 0.02) * k / 11, PI - 10.0 ** -(5 + k % 4))
        for k in range(12)])
    def test_kinds_with_beta_near_pi(self, ell, beta):
        # Within 1e-5 of pi the acute extremum can lie closer than its own
        # step h to the end of the interval where triangles exist,
        # sin(alpha) = sin(beta)/sin(ell): h stops halfway there.  The kinds
        # are the signs of the 50-digit second difference at the same nodes.
        extrema = lemma3_sweep(ell, beta)
        assert [e["kind"] for e in extrema] == ["maximum", "minimum"]
        end = math.asin(math.sin(beta) / math.sin(ell))
        for ext in extrema:
            a = ext["alpha_crit"]
            h = min(1e-4, 0.5 * a, 0.5 * (PI - a), 0.5 * (end - min(a, PI - a)))

            def s_near(alpha):
                return min(mp_angle_sum_roots(alpha, ell, beta),
                           key=lambda s: abs(s - 2 * a))

            curvature = s_near(a - h) + s_near(a + h) - 2 * s_near(a)
            assert ext["kind"] == ("minimum" if curvature > 0 else "maximum")

    def test_monotone_where_the_roots_meet(self):
        # ell = 1, beta = 1e-7 has no isosceles shape: every branch is
        # monotone, also the two 1.8e-8 wide ones next to 0 and pi.
        report = suites.lemma3_suite(1.0, 1e-7)["results"]
        assert {b["trend"] for b in report["branches"]} == {
            "increasing", "decreasing"}
        assert report["pass"]

    def test_agrees_with_golden_section_oracle(self):
        for ext in lemma3_sweep(1.0, 2.0):
            a = ext["alpha_crit"]
            located = golden_extremize(1.0, 2.0, a - 0.05, a + 0.05, ext["kind"])
            assert located == pytest.approx(a, abs=1e-6)

    def test_degenerate_case_flagged(self):
        (ext,) = lemma3_sweep(PI / 3, PI / 3)
        assert ext["kind"] == "degenerate"
        assert ext["alpha_crit"] == pytest.approx(PI / 2)

    def test_no_isosceles_when_cos_ell_below_cos_beta(self):
        # Isosceles shapes need cos(ell) > cos(beta); here none exist and
        # the sweep reports no interior extrema.
        assert lemma3_sweep(2.5, 0.5) == ()

    def test_angle_sum_monotone_without_extrema(self):
        # Triangles exist for small and for large base angles only, and the
        # sum rises along both root intervals.
        branches = angle_sum_branches(2.5, 0.5)
        assert [b["trend"] for b in branches] == ["increasing", "increasing"]
        assert branches[0]["alpha_max"] < 0.5 < 2.6 < branches[1]["alpha_min"]
        assert suites.lemma3_suite(2.5, 0.5)["results"]["pass"]

    @pytest.mark.parametrize("ell, beta, trends", [
        (PI / 3, PI / 2, ["not monotone"] * 2),
        (0.5, 1.0, ["increasing", "not monotone", "not monotone",
                    "increasing"])])
    def test_monotonicity_check_fails_where_extrema_exist(
            self, monkeypatch, ell, beta, trends):
        # Negative control: here the sum has a maximum and a minimum, so the
        # branches through them are not monotone, and a sweep that missed
        # both extrema would fail the suite, even beside monotone branches.
        branches = angle_sum_branches(ell, beta)
        assert [b["trend"] for b in branches] == trends
        monkeypatch.setattr("conesphere.lemmas.lemma3_sweep",
                            lambda ell, beta: ())
        assert not suites.lemma3_suite(ell, beta)["results"]["pass"]

    @pytest.mark.parametrize("ell", [1.0, 0.4])
    def test_narrow_root_intervals_are_sampled(self, ell):
        # beta = 0.01: every root interval is narrower than one degree, yet
        # each is sampled inside, and the sum is monotone on all of them.
        branches = angle_sum_branches(ell, 0.01)
        assert len(branches) == 6
        assert all(b["samples"] == 32 and b["alpha_max"] - b["alpha_min"] < 0.02
                   for b in branches)
        assert {b["trend"] for b in branches} == {"increasing", "decreasing"}
        assert suites.lemma3_suite(ell, 0.01)["results"]["pass"]

    def test_sub_roundoff_interval_is_skipped(self):
        # At ell = pi/2 the cuts beta and asin(sin(beta)/sin(ell)) coincide,
        # but in floats they differ by an ulp; the sliver between them holds
        # no branch.
        branches = angle_sum_branches(PI / 2, 1.2)
        assert [b["trend"] for b in branches] == ["increasing", "increasing"]

    def test_interval_cuts_are_where_the_root_count_changes(self, monkeypatch):
        # Negative control: roots that vanish inside an interval (here at
        # alpha = 0.25, which is no cut for (2.5, 0.5)) break the premise of
        # the sampling, and the sampler refuses to classify them.
        roots = _angle_sum_roots
        monkeypatch.setattr(
            "conesphere.lemmas._angle_sum_roots",
            lambda alpha, ell, beta: roots(alpha, ell, beta) if alpha < 0.25 else [])
        with pytest.raises(AssertionError, match="root count changes inside"):
            angle_sum_branches(2.5, 0.5)

    @pytest.mark.parametrize("ell, beta", [
        (-1.0, 1.5), (0.0, 1.5), (PI, 1.5), (7.0, 1.5),
        (1.0, -1.0), (1.0, 0.0), (1.0, PI), (1.0, 4.0)])
    def test_lengths_and_angles_outside_zero_pi_rejected(self, ell, beta):
        # No triangle has them; beta = -1 would otherwise pass as the
        # degenerate case, since cos(-1) = cos(1).
        with pytest.raises(ValueError, match="outside"):
            lemma3_sweep(ell, beta)

    def test_no_root_at_the_isosceles_angle_is_no_triangle(self, monkeypatch):
        monkeypatch.setattr("conesphere.lemmas._angle_sum_roots",
                            lambda alpha, ell, beta: [])
        with pytest.raises(NoTriangleError, match="no triangle"):
            lemma3_sweep(PI / 3, PI / 2)


# ---------------------------------------------------------------------------
# lemma1 case (b)
# ---------------------------------------------------------------------------

class TestLemma1CaseB:
    def test_no_bigon_closure_anywhere(self):
        grid = [v for v in np.linspace(0.01, PI - 0.01, 200)
                if abs(v - PI / 2) > 1e-6]
        for beta in (0.5, 1.0, 2.0, 3.0):
            rows = lemma1_caseb_exclusion(beta, grid)
            assert all(r["incompatible"] for r in rows)
            assert min(r["alpha_scan_min"] for r in rows) > 0.0

    def test_alpha_scan_min_matches_a_direct_scan(self):
        # The closed form |cos l5 - cos beta| against the closure gap
        # scanned over 181 alphas in [0.01, pi - 0.01], which include pi/2.
        grid = np.linspace(0.05, PI - 0.05, 40)
        for beta in (0.5, 1.0, 2.0, 3.0):
            for row in lemma1_caseb_exclusion(beta, grid):
                scanned = min(
                    abs(1.0 + (row["cos_l5"] - 1.0) * math.sin(a) ** 2
                        - math.cos(beta))
                    for a in (1e-2 + (PI - 2e-2) * k / 180.0
                              for k in range(181)))
                assert row["alpha_scan_min"] == pytest.approx(scanned, abs=1e-15)

    def test_spec_point(self):
        # The gap (1 - cos beta) cos^2 l1 at (pi/2, pi/3).
        (row,) = lemma1_caseb_exclusion(PI / 2, [PI / 3])
        assert row["alpha_scan_min"] == pytest.approx(0.25, abs=1e-12)
        assert row["incompatible"]

    def test_midpoint_is_rejected(self):
        with pytest.raises(ValueError):
            lemma1_caseb_exclusion(1.0, [PI / 2])

    @pytest.mark.parametrize("beta, l1, name", [
        (0.0, 1.0, "beta"), (PI, 1.0, "beta"), (math.nan, 1.0, "beta"),
        (1.0, 0.0, "l1"), (1.0, PI, "l1"), (1.0, math.nan, "l1")])
    def test_beta_and_l1_outside_zero_pi_rejected(self, beta, l1, name):
        with pytest.raises(ValueError, match=f"{name} = .* outside"):
            lemma1_caseb_exclusion(beta, [1.2, l1])


# ---------------------------------------------------------------------------
# step 1 (alpha != beta)
# ---------------------------------------------------------------------------

class TestStep1:
    def test_zero_split_vanishes(self):
        for d in diagonal(1.0, 2.0, 0.0, np.linspace(2.2, 2.6, 3), "acute"):
            assert abs(d["defect"]) < 1e-10

    def test_true_single_sign_per_regime(self):
        def signs(nodes):
            defects = [d["defect"] for d in nodes if d is not None]
            assert defects and 0.0 not in defects
            return {math.copysign(1.0, d) for d in defects}

        for eps in (0.01, 0.05, 0.1):
            below = diagonal(1.0, 2.0, eps, np.linspace(2.11, 2.82, 5), "acute")
            assert signs(below) == {1.0}
            above = diagonal(1.0, 2.0, eps, np.linspace(0.2, 1.06, 5), "obtuse")
            assert signs(above) == {-1.0}
