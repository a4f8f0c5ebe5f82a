"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with pytest -s or on
failure).  Criteria 4 and 5 assert the slit-defect signs and isosceles
extremum kinds that the geometry gives, which mirror the classical
conventions: the defect is positive in the below regime and negative
above, and the acute isosceles shape is a maximum.  Both are checked
against explicit unit-sphere embeddings in tests/test_lemmas.py, and c4
also against Napier's rule on the half pieces.  The README's acceptance notes record
the classical statements as a finding.
"""

import math

import numpy as np
import pytest

from conesphere.admissibility import mp_distance, mp_distance_bruteforce
from conesphere import suites
from conesphere.lemmas import half_piece_solve, lemma1_caseb_exclusion, lemma3_sweep
from conesphere.metric import (
    ConeAngleSpec,
    GluedFootballParams,
    cone_angle_tuple,
    glued_football,
)
from conesphere.reports import render_report
from conesphere.solver import jacobian, numerical_rank, rigidity_scan
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
    spec = ConeAngleSpec(alpha, beta)
    rep = rigidity_scan(GluedFootballParams(spec, t), spec.cone_vector(),
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
                rank, svals = numerical_rank(jacobian(m))
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
    follow a sign that changes between the regimes.  The lemma2 and step1
    suites read each defect off the six-length closure (solver.defect_scan);
    each must also match Napier's rule on the two half pieces
    (lemmas.half_piece_solve), so the sign rests on two computations.  The
    rule on the other branch must miss every node.
    """
    margin = 1e-9
    failures = []
    checked = 0
    other_miss = math.inf

    def napier(alpha, beta, eps, ell, branch):
        _, c1 = half_piece_solve(0.5 * alpha, 0.5 * (alpha - 2.0 * eps), ell,
                                 branch)
        _, c2 = half_piece_solve(0.5 * beta, 0.5 * (beta + 2.0 * eps), ell,
                                 branch)
        return 2.0 * (c1 + c2) - 4.0 * PI

    for label, rep in (("lemma2", suites.lemma2_suite(PI / 2)),
                       ("step1", suites.step1_suite(1.0, 2.0))):
        results = rep["results"]
        alpha, beta = results.get("alpha", results["beta"]), results["beta"]
        for sweep in results["sweeps"]:
            eps, regime = sweep["eps"], sweep["regime"]
            expected = 1 if regime == "below" else -1
            branch, other = (("acute", "obtuse") if regime == "below"
                             else ("obtuse", "acute"))
            for row in sweep["rows"]:
                if not row["feasible"]:
                    continue
                checked += 1
                ell, defect = row["ell"], row["defect"]
                sign = int(math.copysign(1.0, defect))
                stated_ok = (sign == expected and abs(defect) > margin)
                law = -int(math.copysign(
                    1.0, math.sin(ell) * math.sin(0.5 * (row["l1"] - row["l2"]))))
                oracle = napier(alpha, beta, eps, ell, branch)
                other_miss = min(other_miss, abs(
                    napier(alpha, beta, eps, ell, other) - defect))
                if not (stated_ok and sign == law
                        and abs(oracle - defect) <= 1e-12):
                    failures.append(
                        f"{label} eps={eps} {regime} ell={ell:.3f}: "
                        f"defect={defect:+.3e} (expected sign {expected:+d}), "
                        f"corrected law {law:+d}, Napier {oracle}")

    # All 60 grid nodes are feasible; skipping any would weaken the check.
    ok = not failures and checked == 60 and other_miss > 1.0
    report("4 slit-defect sign structure", ok,
           f"{len(failures)}/{checked} nodes contradict the sign law, "
           f"60 expected; the other branch misses by at least {other_miss:.2f}")
    assert ok, (
        f"{len(failures)} of {checked} checked nodes (of 60) contradict the "
        f"sign law or Napier's rule, and the other branch misses by "
        f"{other_miss}.  Sample nodes:\n  " + "\n  ".join(failures[:6]))


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
    extrema = lemma3_sweep(PI / 3, PI / 2)
    alpha0 = math.acos(1.0 / math.sqrt(3.0))
    if abs(extrema[0]["alpha_crit"] - alpha0) > 1e-9:
        failures.append("closed-form location")

    # Degenerate case per the flat-family classification.
    degen = lemma3_sweep(PI / 3, PI / 3)
    if [e["kind"] for e in degen] != ["degenerate"]:
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
        extrema = lemma3_sweep(ell, beta)
        if len(extrema) != 2:
            failures.append(f"extrema count at ({ell:.3f}, {beta:.3f})")
            continue
        for ext in extrema:
            if abs(ext["alpha_crit"] - 0.5 * ext["s_crit"]) > 1e-6:
                failures.append(f"isosceles gap at ({ell:.3f}, {beta:.3f})")
            stated_kind = "maximum" if ext["alpha_crit"] < PI / 2 else "minimum"
            if ext["kind"] != stated_kind:
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
    # The closure gap is (1 - cos beta) cos^2 l1 in closed form.
    eps, worst_eps = np.finfo(float).eps, 0.0
    for beta in (0.5, 1.0, 2.0, 3.0):
        rows = lemma1_caseb_exclusion(beta, grid)
        feasible_total += sum(0 if r["incompatible"] else 1 for r in rows)
        for r in rows:
            closed = (1.0 - math.cos(beta)) * math.cos(r["l1"]) ** 2
            worst_eps = max(worst_eps, abs(r["alpha_scan_min"] - closed) / eps)
    ok = feasible_total == 0 and worst_eps <= 4.0
    report("6 bigon case-b exclusion", ok,
           f"{feasible_total} feasible case-b nodes over {4 * len(grid)}; "
           f"gap within {worst_eps:.1f} eps of its closed form")
    assert feasible_total == 0
    assert worst_eps <= 4.0


def test_c7_admissibility():
    worst_mp = 0.0
    for alpha in ANGLE_GRID:
        for beta in ANGLE_GRID:
            vec = ConeAngleSpec(alpha, beta).normalized()
            mp = mp_distance(vec)
            assert mp == mp_distance_bruteforce(vec)
            worst_mp = max(worst_mp, abs(mp - 1.0))
    ok = worst_mp < 1e-12
    report("7 admissibility", ok, f"max |mp-1| {worst_mp:.2e}")
    assert worst_mp < 1e-12


def test_c8_eigencheck():
    from conesphere.suites import eigen_suite

    results = eigen_suite()["results"]
    residual = results["max_residual"]
    orders = results["convergence_orders"]
    ok = residual < 1e-4 and all(1.9 <= o <= 2.1 for o in orders)
    report("8 eigencheck", ok,
           f"residual {residual:.2e}, orders {[f'{o:.3f}' for o in orders]}")
    assert results["n"] == 1001 and results["delta"] == 0.1
    assert residual < 1e-4
    assert len(orders) == 2 and all(1.9 <= o <= 2.1 for o in orders)
    assert results["pass"]


def test_c9_determinism():
    from conesphere.suites import admissible_suite, lemma2_suite, rigidity_suite

    pairs = []
    for runner, args in ((rigidity_suite, (PI / 2, PI / 2, PI / 3, 0.05, 30, 7)),
                         (lemma2_suite, (PI / 2,)),
                         (admissible_suite, (1.0, 2.0))):
        first = runner(*args)
        second = runner(*args)
        pairs.append(render_report(first) == render_report(second))
    ok = all(pairs)
    report("9 determinism", ok, f"byte-identical: {pairs}")
    assert ok
