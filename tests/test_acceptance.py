"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with pytest -s or on
failure).  Criteria 4 and 5 assert the slit-defect signs and isosceles
extremum kinds that the geometry gives, which mirror the classical
conventions: the defect is positive in the below regime and negative
above, and the acute isosceles shape is a maximum.  Both are checked
against explicit unit-sphere embeddings in tests/test_lemmas.py, and c4
also against the six-length closure.  The README's acceptance notes record
the classical statements as a finding.
"""

import math

import numpy as np
import pytest

from conesphere.admissibility import AngleVector, chi, mp_distance, mp_distance_bruteforce
from conesphere.eigencheck import RadialGrid, convergence_orders, radial_residual
from conesphere.lemmas import (
    lemma1_caseb_exclusion,
    lemma3_sweep,
    step1_asymmetric_exclusion,
)
from conesphere.metric import (
    ConeAngleSpec,
    GluedFootballParams,
    cone_angle_tuple,
    glued_football,
    total_area,
)
from conesphere.reports import render_report
from conesphere.solver import ScanClosure, defect_scan, jacobian, numerical_rank, rigidity_scan
from conesphere.sphtrig import PI

ANGLE_GRID = np.linspace(0.3, PI - 0.3, 9)
T_GRID = np.linspace(0.2, PI - 0.2, 9)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")


def test_c1_family_realization():
    worst_res = 0.0
    worst_angle = 0.0
    for alpha in ANGLE_GRID:
        for beta in ANGLE_GRID:
            spec = ConeAngleSpec(alpha, beta)
            target = spec.cone_vector()
            for t in T_GRID:
                m = glued_football(GluedFootballParams(spec, t))
                theta = cone_angle_tuple(m.lengths())
                diffs = [th - tg for th, tg in zip(theta, target)]
                worst_res = max(worst_res, math.sqrt(sum(d * d for d in diffs)))
                worst_angle = max(worst_angle, max(abs(d) for d in diffs))
    ok = worst_res < 1e-12 and worst_angle < 1e-10
    report("1 family realization", ok,
           f"max residual {worst_res:.2e}, max angle defect {worst_angle:.2e}")
    assert worst_res < 1e-12
    assert worst_angle < 1e-10


@pytest.mark.parametrize("alpha,beta,t", [
    (PI / 2, PI / 2, PI / 3),
    (1.0, 2.0, 1.2),
    (PI / 2, PI / 2, PI / 2),
])
def test_c2_rigidity(alpha, beta, t):
    rep = rigidity_scan(GluedFootballParams(ConeAngleSpec(alpha, beta), t),
                        radius=0.05, samples=500, seed=7)
    frac = rep["converged"] / rep["starts"]
    ok = frac >= 0.95 and rep["max_family_distance"] < 1e-6
    report(f"2 rigidity ({alpha:.4f},{beta:.4f},{t:.4f})", ok,
           f"converged {rep['converged']}/{rep['starts']}, "
           f"max family distance {rep['max_family_distance']:.2e}, "
           f"kernel dim {rep['kernel_dim']}")
    assert frac >= 0.95
    assert rep["max_family_distance"] < 1e-6


def test_c3_jacobian_degeneracy():
    worst = 0.0
    for alpha in ANGLE_GRID:
        for beta in ANGLE_GRID:
            spec = ConeAngleSpec(alpha, beta)
            for t in T_GRID:
                m = glued_football(GluedFootballParams(spec, t))
                rank, svals = numerical_rank(jacobian(m.lengths()), rel_tol=1e-6)
                ratio = svals[3] / svals[0]
                worst = max(worst, ratio)
                assert rank <= 3, (alpha, beta, t, svals)
    ok = worst < 1e-6
    report("3 jacobian degeneracy", ok, f"max sigma4/sigma1 {worst:.2e}")
    assert worst < 1e-6


def test_c4_lemma2_sign_structure():
    """Slit-defect signs: defect > 0 in the below regime (l1, l2 < pi/2),
    < 0 above, with sign(defect) = -sign(sin(ell) sin((l1 - l2)/2)).

    This is the mirror of the classical convention, whose product
    sin(ell) cos(ell) sin((l1 - l2)/2) is +1 on every node and so cannot
    follow a sign that changes between the regimes.  Each node's defect
    must also match the C-residual of the six-length closure
    (solver.defect_scan), so the sign rests on two computations.
    """
    margin = 1e-9
    failures = []
    checked = 0

    def check(sweep, spec, eps, regime, label):
        nonlocal checked
        expected = 1 if regime == "below" else -1
        closure = ScanClosure(eps=eps,
                              branch="acute" if regime == "below" else "obtuse")
        for row in sweep:
            if not row.feasible:
                continue
            checked += 1
            res = row.result
            sign = int(math.copysign(1.0, res.defect))
            stated_ok = (sign == expected and abs(res.defect) > margin)
            law = -int(math.copysign(
                1.0, math.sin(row.ell) * math.sin(0.5 * (res.l1 - res.l2))))
            scan = defect_scan(spec, [row.ell], [row.ell], closure)
            r_C = float(scan.residuals[0, 3])
            closure_ok = bool(scan.feasible[0]) and abs(r_C - res.defect) <= 1e-12
            if not (stated_ok and sign == law and closure_ok):
                failures.append(
                    f"{label} ell={row.ell:.3f}: defect={res.defect:+.3e} "
                    f"(expected sign {expected:+d}), corrected law {law:+d}, "
                    f"closure r_C {r_C}")

    equal = ConeAngleSpec(PI / 2, PI / 2)
    unequal = ConeAngleSpec(1.0, 2.0)
    for eps in (0.01, 0.05, 0.1):
        check(step1_asymmetric_exclusion(PI / 2, PI / 2, eps,
                                         np.linspace(2.0, 2.6, 5), "below"),
              equal, eps, "below", f"lemma2 eps={eps} below")
        check(step1_asymmetric_exclusion(PI / 2, PI / 2, eps,
                                         np.linspace(0.5, 1.04, 5), "above"),
              equal, eps, "above", f"lemma2 eps={eps} above")
        check(step1_asymmetric_exclusion(1.0, 2.0, eps,
                                         np.linspace(2.11, 2.82, 5), "below"),
              unequal, eps, "below", f"step1 eps={eps} below")
        check(step1_asymmetric_exclusion(1.0, 2.0, eps,
                                         np.linspace(0.2, 1.06, 5), "above"),
              unequal, eps, "above", f"step1 eps={eps} above")

    # All 60 grid nodes are feasible; skipping any would weaken the check.
    ok = not failures and checked == 60
    report("4 slit-defect sign structure", ok,
           f"{len(failures)}/{checked} nodes contradict the sign law, "
           "60 expected")
    assert ok, (
        f"{len(failures)} of {checked} checked nodes (of 60) contradict the "
        "sign law or the closure path.  Sample nodes:\n  "
        + "\n  ".join(failures[:6]))


def test_c5_isosceles_extremality():
    """Extrema location and classification.

    Locations (|alpha - s/2| < 1e-6, closed form to 1e-9), the degenerate
    detection and the rule "maximum iff alpha < pi/2": the acute isosceles
    shape maximizes the base-angle sum, the mirror of the classical
    "minimum iff alpha < pi/2" (the embedding oracle in test_lemmas.py
    agrees).
    """
    failures = []

    # Closed-form case.
    res = lemma3_sweep(PI / 3, PI / 2)
    alpha0 = math.acos(1.0 / math.sqrt(3.0))
    if abs(res.extrema[0].alpha_crit - alpha0) > 1e-9:
        failures.append("closed-form location")

    # Degenerate case per the flat-family classification.
    degen = lemma3_sweep(PI / 3, PI / 3)
    if not (degen.degenerate and degen.extrema[0].kind == "degenerate"):
        failures.append("degenerate case")

    # 20 random pairs with a margin away from the degenerate set, drawn on
    # the side where the isosceles shapes exist (cos ell > cos beta).
    rng = np.random.default_rng(2024)
    pairs = []
    while len(pairs) < 20:
        ell = float(rng.uniform(0.15, PI - 0.15))
        beta = float(rng.uniform(0.15, PI - 0.15))
        if math.cos(ell) - math.cos(beta) > 0.05:
            pairs.append((ell, beta))
    rule_breaks = 0
    for ell, beta in pairs:
        res = lemma3_sweep(ell, beta)
        if len(res.extrema) != 2:
            failures.append(f"extrema count at ({ell:.3f}, {beta:.3f})")
            continue
        for ext in res.extrema:
            if abs(ext.alpha_crit - 0.5 * ext.s_crit) > 1e-6:
                failures.append(f"isosceles gap at ({ell:.3f}, {beta:.3f})")
            stated_kind = "maximum" if ext.alpha_crit < PI / 2 else "minimum"
            if ext.kind != stated_kind:
                rule_breaks += 1
    if rule_breaks:
        failures.append(f"classification rule broken at {rule_breaks}/40 extrema")

    ok = not failures
    report("5 isosceles extremality", ok, "; ".join(failures) or "all clauses hold")
    assert ok, "criterion clauses failed: " + "; ".join(failures)


def test_c6_caseb_exclusion():
    grid = [v for v in np.linspace(0.01, PI - 0.01, 1000)
            if abs(v - PI / 2) > 1e-6]
    feasible_total = 0
    for beta in (0.5, 1.0, 2.0, 3.0):
        rows = lemma1_caseb_exclusion(beta, grid)
        feasible_total += sum(0 if r.incompatible else 1 for r in rows)
    ok = feasible_total == 0
    report("6 bigon case-b exclusion", ok,
           f"{feasible_total} feasible case-b nodes over {4 * len(grid)}")
    assert feasible_total == 0


def test_c7_admissibility():
    worst_mp = 0.0
    worst_chi = 0.0
    for alpha in ANGLE_GRID:
        for beta in ANGLE_GRID:
            spec = ConeAngleSpec(alpha, beta)
            vec = AngleVector.from_spec(spec)
            mp = mp_distance(vec)
            assert mp == mp_distance_bruteforce(vec)
            worst_mp = max(worst_mp, abs(mp - 1.0))
            worst_chi = max(worst_chi,
                            abs(chi(vec) - (alpha + beta) / PI))
    worst_area = 0.0
    for alpha in ANGLE_GRID[::4]:
        for beta in ANGLE_GRID[::4]:
            spec = ConeAngleSpec(alpha, beta)
            vec = AngleVector.from_spec(spec)
            for t in T_GRID:
                area = total_area(glued_football(GluedFootballParams(spec, t)))
                worst_area = max(worst_area, abs(area - 2.0 * PI * chi(vec)))
    ok = worst_mp < 1e-12 and worst_chi < 1e-12 and worst_area < 1e-10
    report("7 admissibility", ok,
           f"max |mp-1| {worst_mp:.2e}, max chi gap {worst_chi:.2e}, "
           f"max area gap {worst_area:.2e}")
    assert worst_mp < 1e-12
    assert worst_area < 1e-10


def test_c8_eigencheck():
    residual = radial_residual(RadialGrid(1001, 0.1))
    orders = convergence_orders(1001, 0.1, refinements=2)
    ok = residual < 1e-4 and all(1.9 <= o <= 2.1 for o in orders)
    report("8 eigencheck", ok,
           f"residual {residual:.2e}, orders {[f'{o:.3f}' for o in orders]}")
    assert residual < 1e-4
    assert all(1.9 <= o <= 2.1 for o in orders)


def test_c9_determinism():
    from conesphere.suites import admissible_suite, lemma2_suite, rigidity_suite

    pairs = []
    for runner, args in ((rigidity_suite, (PI / 2, PI / 2, PI / 3, 0.05, 30, 7)),
                         (lemma2_suite, (PI / 2,)),
                         (admissible_suite, (1.0, 2.0))):
        first, _ = runner(*args)
        second, _ = runner(*args)
        pairs.append(render_report(first) == render_report(second))
    ok = all(pairs)
    report("9 determinism", ok, f"byte-identical: {pairs}")
    assert ok
