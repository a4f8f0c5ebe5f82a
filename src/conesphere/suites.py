"""Suite runners: wire the library operations to reports and pass/fail verdicts.

Each runner returns (report_dict, ok).  lemma2_suite and step1_suite are
two entries into one uneven-split defect runner; lemma2 is step1 with
alpha = beta.  The slit-defect suites (lemma2, step1, scan) assert the
classical sign convention for the corner-angle defect: corner total below
4*pi when l1, l2 < pi/2 and above 4*pi in the mirror regime.  The computed
geometry consistently yields the opposite signs (see the test suite for the
corrected sign law verified against independent embeddings), so those
suites report FAIL; the reports carry both the expected and the computed
sign per node.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lemmas
from .admissibility import AngleVector, chi, mp_distance, mp_distance_bruteforce
from .eigencheck import RadialGrid, convergence_orders, radial_residual
from .metric import ConeAngleSpec, GluedFootballParams, glued_football, total_area
from .reports import build_report
from .solver import (
    DAMPING0,
    DIST_TOL,
    MAX_ITER,
    RANK_TOL,
    RES_TOL,
    ScanClosure,
    ScanGrid,
    defect_scan,
    rigidity_scan,
)
from .sphtrig import PI


def _defect_rows_json(sweep: tuple[lemmas.DefectRow, ...],
                      expected_sign: int) -> list[dict]:
    rows = []
    for row in sweep:
        if not row.feasible:
            rows.append({"ell": row.ell, "feasible": False})
            continue
        res = row.result
        rows.append({
            "ell": row.ell, "feasible": True,
            "l1": res.l1, "l2": res.l2,
            "alpha1": res.alpha1, "alpha2": res.alpha2,
            "defect": res.defect,
            "expected_sign": expected_sign,
            "computed_sign": int(math.copysign(1.0, res.defect)) if res.defect else 0,
            "classical_product_sign": lemmas.inequality_sign(row.ell, res.l1, res.l2),
        })
    return rows


def _stated_sign(regime: str) -> int:
    # The classical convention under test: defect negative in the "below"
    # regime, positive in "above".
    return -1 if regime == "below" else 1


# Uneven-split defect grids.  Every window sits inside the feasibility
# region of every eps in LEMMA2_EPS.
LEMMA2_EPS = (0.01, 0.05, 0.1)
LEMMA2_GRID = 5
LEMMA2_WINDOWS = {"below": (2.0, 2.6), "above": (0.5, 1.04)}
STEP1_WINDOWS = {"below": (2.11, 2.82), "above": (0.2, 1.06)}


def _defect_suite(command: str, alpha: float, beta: float, windows: dict,
                  results: dict) -> tuple[dict, bool]:
    """Uneven-split defect sweeps over every eps and regime window."""
    results["sweeps"] = []
    ok = True
    margin = 1e-9
    for eps in LEMMA2_EPS:
        for regime, (lo, hi) in windows.items():
            grid = np.linspace(lo, hi, LEMMA2_GRID)
            sweep = lemmas.step1_asymmetric_exclusion(alpha, beta, eps, grid, regime)
            expected = _stated_sign(regime)
            rows = _defect_rows_json(sweep, expected)
            node_ok = all(
                r["feasible"] and r["computed_sign"] == expected
                and abs(r["defect"]) > margin
                for r in rows)
            ok = ok and node_ok
            results["sweeps"].append({
                "eps": eps, "regime": regime,
                "grid": [float(g) for g in grid],
                "rows": rows, "pass": node_ok,
            })
    results["pass"] = ok
    return build_report(command, results), ok


def lemma2_suite(beta: float) -> tuple[dict, bool]:
    return _defect_suite("lemmas --suite lemma2", beta, beta,
                         LEMMA2_WINDOWS, {"beta": beta})


def step1_suite(alpha: float, beta: float) -> tuple[dict, bool]:
    return _defect_suite("lemmas --suite step1", alpha, beta,
                         STEP1_WINDOWS, {"alpha": alpha, "beta": beta})


def lemma3_suite(ell: float, beta: float) -> tuple[dict, bool]:
    res = lemmas.lemma3_sweep(ell, beta)
    rows = [{"alpha_crit": e.alpha_crit, "s_crit": e.s_crit, "kind": e.kind,
             "iso_gap": abs(e.alpha_crit - 0.5 * e.s_crit)}
            for e in res.extrema]
    results = {"ell": ell, "beta": beta, "degenerate": res.degenerate,
               "extrema": rows}
    if res.degenerate:
        ok = len(res.extrema) == 1 and res.extrema[0].kind == "degenerate"
    elif res.extrema:
        # Node assertions: both isosceles extrema located, each a genuine
        # critical point of the angle sum.
        ok = (len(res.extrema) == 2
              and all(r["iso_gap"] < 1e-6 for r in rows)
              and {e.kind for e in res.extrema} == {"minimum", "maximum"})
    else:
        # No isosceles shape (cos l < cos beta): the sum must have no
        # interior critical point, so it is strictly monotone on every
        # branch, and there must be at least one branch.
        branches = lemmas.angle_sum_branches(ell, beta)
        trends = {b.trend for b in branches}
        ok = bool(trends) and "not monotone" not in trends
        results["branches"] = [dataclasses.asdict(b) for b in branches]
    results["pass"] = ok
    return build_report("lemmas --suite lemma3", results), ok


LEMMA1_GRID = 1000


def lemma1_suite(betas: tuple[float, ...]) -> tuple[dict, bool]:
    ok = True
    per_beta = []
    # Grid over (0, pi) omitting the excluded midpoint l1 = pi/2.
    grid = [v for v in np.linspace(0.01, PI - 0.01, LEMMA1_GRID)
            if abs(v - PI / 2.0) > 1e-6]
    for beta in betas:
        rows = lemmas.lemma1_caseb_exclusion(beta, grid)
        feasible_caseb = sum(0 if r.incompatible else 1 for r in rows)
        ok = ok and feasible_caseb == 0
        per_beta.append({
            "beta": beta,
            "nodes": len(rows),
            "feasible_caseb_nodes": feasible_caseb,
            "min_alpha_scan_margin": min(r.alpha_scan_min for r in rows),
            "pass": feasible_caseb == 0,
        })
    results = {"betas": list(betas), "per_beta": per_beta, "pass": ok}
    return build_report("lemmas --suite lemma1", results), ok


# The eigen check's grid and its residual gate.
EIGEN_N = 1001
EIGEN_DELTA = 0.1
EIGEN_RESIDUAL_BOUND = 1e-4


def eigen_suite() -> tuple[dict, bool]:
    residual = radial_residual(RadialGrid(EIGEN_N, EIGEN_DELTA))
    orders = convergence_orders(EIGEN_N, EIGEN_DELTA, refinements=2)
    ok = (residual < EIGEN_RESIDUAL_BOUND
          and all(1.9 <= o <= 2.1 for o in orders))
    results = {
        "n": EIGEN_N, "delta": EIGEN_DELTA,
        "max_residual": residual,
        "residual_bound": EIGEN_RESIDUAL_BOUND,
        "convergence_orders": orders,
        "pass": ok,
    }
    return build_report("eigen", results), ok


def admissible_suite(alpha: float, beta: float) -> tuple[dict, bool]:
    spec = ConeAngleSpec(alpha, beta)
    vec = AngleVector.from_spec(spec)
    mp = mp_distance(vec)
    mp_brute = mp_distance_bruteforce(vec)
    chi_val = chi(vec)
    chi_closed = (alpha + beta) / PI
    area_checks = []
    area_ok = True
    for t in (0.6, PI / 2.0, 2.2):
        area = total_area(glued_football(GluedFootballParams(spec, t)))
        gap = abs(area - 2.0 * PI * chi_val)
        area_checks.append({"t": t, "area": area, "gap": gap})
        area_ok = area_ok and gap < 1e-10
    ok = (abs(mp - 1.0) < 1e-12 and mp == mp_brute
          and abs(chi_val - chi_closed) < 1e-12 and area_ok)
    results = {
        "alpha": alpha, "beta": beta,
        "beta_vec": list(vec.beta_vec),
        "mp_distance": mp,
        "mp_distance_bruteforce": mp_brute,
        "chi": chi_val,
        "chi_closed_form": chi_closed,
        "area_checks": area_checks,
        "pass": ok,
    }
    return build_report("admissible", results), ok


def rigidity_suite(alpha: float, beta: float, t: float, radius: float,
                   samples: int, seed: int) -> tuple[dict, bool]:
    results = rigidity_scan(GluedFootballParams(ConeAngleSpec(alpha, beta), t),
                            radius, samples, seed)
    ok = results["rigidity_holds"]
    results["pass"] = ok
    config = {"res_tol": RES_TOL, "rank_tol": RANK_TOL, "dist_tol": DIST_TOL,
              "max_iter": MAX_ITER, "damping0": DAMPING0,
              "radius": radius, "samples": samples, "seed": seed}
    return {**build_report("rigidity", results), "config": config}, ok


def scan_suite(alpha: float, beta: float, eps: float,
               branch: str, l3_grid, l4_grid) -> tuple[dict, ScanGrid, bool]:
    """Defect scan plus the stated per-node sign assertion (eps != 0 only).

    A verdict needs at least one checked node: a scan at eps = 0, or one
    whose nodes are all infeasible, fails.
    """
    spec = ConeAngleSpec(alpha, beta)
    grid = defect_scan(spec, l3_grid, l4_grid, ScanClosure(eps=eps, branch=branch))
    regime = "below" if branch == "acute" else "above"
    expected = _stated_sign(regime)
    feasible = int(grid.feasible.sum())
    signs = np.sign(grid.residuals[grid.feasible, 3]) if eps != 0.0 else []
    checked = len(signs)
    ok = checked > 0 and bool(np.all(signs == expected))
    results = {
        "alpha": alpha, "beta": beta, "eps": eps, "branch": branch,
        "nodes": len(grid.feasible), "feasible_nodes": feasible,
        "checked_nodes": checked,
        "expected_sign": expected if eps != 0.0 else 0,
        "pass": ok,
    }
    return build_report("scan", results), grid, ok
