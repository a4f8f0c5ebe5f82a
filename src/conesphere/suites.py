"""Suite runners: wire the library operations to reports and pass/fail verdicts.

Each runner returns its report, whose results.pass is the verdict;
scan_suite returns (report, grid).  lemma2_suite and step1_suite are two
entries into one uneven-split defect runner; lemma2 is step1 with
alpha = beta.  It reads each defect off the diagonal l3 = l4 = ell of
solver.defect_scan, the same closure the scan suite sweeps, so a report
row carries the piece sides l1, l2 and the corner total's defect, not
the corner of each piece.  The slit-defect suites (lemma2, step1, scan)
assert the classical sign convention for the corner-angle defect: corner
total below 4*pi on the acute branch (l1, l2 < pi/2) and above 4*pi on
the obtuse one.  A node is as stated (as_stated) when its defect clears
SIGN_MARGIN with the stated sign.  The computed geometry consistently
yields the opposite signs (see the test suite for the corrected sign law
verified against independent embeddings), so those suites report FAIL;
the reports carry both the expected and the computed sign per node.
"""

from __future__ import annotations

import math

import numpy as np

from . import lemmas
from .admissibility import mp_distance, mp_distance_bruteforce
from .eigencheck import radial_residual
from .metric import ConeAngleSpec, GluedFootballParams
from .reports import build_report
from .solver import (
    DAMPING0,
    DIST_TOL,
    MAX_ITER,
    RANK_TOL,
    RES_TOL,
    ScanGrid,
    defect_scan,
    rigidity_scan,
)
from .sphtrig import PI


# The classical convention under test, by branch: the corner-total defect
# is negative on the acute branch ("below") and positive on the obtuse one.
STATED_SIGN = {"acute": -1, "obtuse": 1}
# A defect decides its sign only beyond this margin.
SIGN_MARGIN = 1e-9


def as_stated(defect: float, stated: int) -> bool:
    """True when |defect| > SIGN_MARGIN and defect has the stated sign."""
    return abs(defect) > SIGN_MARGIN and lemmas.sign(defect) == stated


# Uneven-split defect grids: each regime's branch and slit window.  Every
# window sits inside the feasibility region of every eps in LEMMA2_EPS.
LEMMA2_EPS = (0.01, 0.05, 0.1)
LEMMA2_GRID = 5
LEMMA2_WINDOWS = {"below": ("acute", 2.0, 2.6), "above": ("obtuse", 0.5, 1.04)}
STEP1_WINDOWS = {"below": ("acute", 2.11, 2.82), "above": ("obtuse", 0.2, 1.06)}


def _defect_suite(command: str, alpha: float, beta: float, windows: dict,
                  results: dict) -> dict:
    """Uneven-split defect sweeps over every eps and regime window.

    Each sweep runs one defect_scan on the diagonal l3 = l4 = ell of its
    grid, node k at row k: the slit triangles of both pieces then share the
    slit length, and r_C is the defect.
    """
    spec = ConeAngleSpec(alpha, beta)
    results["sweeps"] = []
    for eps in LEMMA2_EPS:
        for regime, (branch, lo, hi) in windows.items():
            grid = np.linspace(lo, hi, LEMMA2_GRID)
            scan = defect_scan(spec, grid, grid, eps, branch)
            expected = STATED_SIGN[branch]
            rows = []
            for k, ell in enumerate(grid.tolist()):
                if not scan.feasible[k]:
                    rows.append({"ell": ell, "feasible": False})
                    continue
                l1, l2 = scan.lengths[k, :2].tolist()
                defect = float(scan.residuals[k, 3])
                rows.append({
                    "ell": ell, "feasible": True, "l1": l1, "l2": l2,
                    "defect": defect, "expected_sign": expected,
                    "computed_sign": lemmas.sign(defect),
                    "classical_product_sign": lemmas.inequality_sign(ell, l1, l2)})
            ok = all(r["feasible"] and as_stated(r["defect"], expected)
                     for r in rows)
            results["sweeps"].append({
                "eps": eps, "regime": regime, "grid": grid.tolist(),
                "rows": rows, "pass": ok,
            })
    results["pass"] = all(sweep["pass"] for sweep in results["sweeps"])
    return build_report(command, results)


def lemma2_suite(beta: float) -> dict:
    # Checked here: the spec's own check would name the alpha it copies.
    if not (0.0 < beta < PI):
        raise ValueError(f"beta = {beta!r} outside the supported range (0, pi)")
    return _defect_suite("lemmas --suite lemma2", beta, beta,
                         LEMMA2_WINDOWS, {"beta": beta})


def step1_suite(alpha: float, beta: float) -> dict:
    return _defect_suite("lemmas --suite step1", alpha, beta,
                         STEP1_WINDOWS, {"alpha": alpha, "beta": beta})


def lemma3_suite(ell: float, beta: float) -> dict:
    extrema = lemmas.lemma3_sweep(ell, beta)
    for e in extrema:
        e["iso_gap"] = abs(e["alpha_crit"] - 0.5 * e["s_crit"])
    kinds = [e["kind"] for e in extrema]
    degenerate = kinds == ["degenerate"]
    results = {"ell": ell, "beta": beta, "degenerate": degenerate,
               "extrema": list(extrema)}
    if degenerate:
        # Cannot fail: lemma3_sweep returns this one row itself whenever
        # |cos l - cos beta| < 1e-9, and checks nothing there.
        ok = True
    elif extrema:
        # Node assertions: both isosceles extrema located, each a genuine
        # critical point of the angle sum.
        ok = (len(extrema) == 2
              and all(e["iso_gap"] < 1e-6 for e in extrema)
              and set(kinds) == {"minimum", "maximum"})
    else:
        # No isosceles shape (cos l < cos beta): the sum must have no
        # interior critical point, so it is strictly monotone on every
        # branch, and there must be at least one branch.
        branches = lemmas.angle_sum_branches(ell, beta)
        trends = {b["trend"] for b in branches}
        ok = bool(trends) and "not monotone" not in trends
        results["branches"] = list(branches)
    results["pass"] = ok
    return build_report("lemmas --suite lemma3", results)


LEMMA1_GRID = 1000


def lemma1_suite(betas: tuple[float, ...]) -> dict:
    per_beta = []
    # Grid over (0, pi) omitting the excluded midpoint l1 = pi/2.
    grid = [v for v in np.linspace(0.01, PI - 0.01, LEMMA1_GRID)
            if abs(v - PI / 2.0) > 1e-6]
    for beta in betas:
        rows = lemmas.lemma1_caseb_exclusion(beta, grid)
        feasible_caseb = sum(0 if r["incompatible"] else 1 for r in rows)
        per_beta.append({
            "beta": beta,
            "nodes": len(rows),
            "feasible_caseb_nodes": feasible_caseb,
            "min_alpha_scan_margin": min(r["alpha_scan_min"] for r in rows),
            "pass": feasible_caseb == 0,
        })
    results = {"betas": list(betas), "per_beta": per_beta,
               "pass": all(b["pass"] for b in per_beta)}
    return build_report("lemmas --suite lemma1", results)


# The eigen check's grid and its residual gate.
EIGEN_N = 1001
EIGEN_DELTA = 0.1
EIGEN_RESIDUAL_BOUND = 1e-4


def eigen_suite() -> dict:
    # The residual at EIGEN_N nodes and at two halvings of the spacing; the
    # observed orders are log2(res(h)/res(h/2)).
    ladder = [radial_residual(n, EIGEN_DELTA)
              for n in (EIGEN_N, 2 * EIGEN_N - 1, 4 * EIGEN_N - 3)]
    residual = ladder[0]
    orders = [math.log2(coarse / fine)
              for coarse, fine in zip(ladder, ladder[1:])]
    ok = (residual < EIGEN_RESIDUAL_BOUND
          and all(1.9 <= o <= 2.1 for o in orders))
    results = {
        "n": EIGEN_N, "delta": EIGEN_DELTA,
        "max_residual": residual,
        "residual_bound": EIGEN_RESIDUAL_BOUND,
        "convergence_orders": orders,
        "pass": ok,
    }
    return build_report("eigen", results)


def admissible_suite(alpha: float, beta: float) -> dict:
    beta_vec = ConeAngleSpec(alpha, beta).normalized()
    mp = mp_distance(beta_vec)
    mp_brute = mp_distance_bruteforce(beta_vec)
    results = {
        "alpha": alpha, "beta": beta,
        "beta_vec": list(beta_vec),
        "mp_distance": mp,
        "mp_distance_bruteforce": mp_brute,
        "pass": abs(mp - 1.0) < 1e-12 and mp == mp_brute,
    }
    return build_report("admissible", results)


def rigidity_suite(alpha: float, beta: float, t: float, radius: float,
                   samples: int, seed: int) -> dict:
    spec = ConeAngleSpec(alpha, beta)
    results = rigidity_scan(GluedFootballParams(spec, t), spec.cone_vector(),
                            radius, samples, seed)
    results["pass"] = results["rigidity_holds"]
    config = {"res_tol": RES_TOL, "rank_tol": RANK_TOL, "dist_tol": DIST_TOL,
              "max_iter": MAX_ITER, "damping0": DAMPING0,
              "radius": radius, "samples": samples, "seed": seed}
    return {**build_report("rigidity", results), "config": config}


def scan_suite(alpha: float, beta: float, eps: float,
               branch: str, l3_grid, l4_grid) -> tuple[dict, ScanGrid]:
    """Defect scan plus the stated per-node sign assertion (eps != 0 only).

    The scan runs over the (l3, l4) product of the two axes, rows in
    lexicographic order.  It passes when it checks at least one node and
    every checked node is as_stated: a scan at eps = 0, or one whose nodes
    are all infeasible, fails.
    """
    spec = ConeAngleSpec(alpha, beta)
    grid = defect_scan(spec, np.repeat(l3_grid, len(l4_grid)),
                       np.tile(l4_grid, len(l3_grid)), eps, branch)
    expected = STATED_SIGN[branch]
    feasible = int(grid.feasible.sum())
    defects = grid.residuals[grid.feasible, 3].tolist() if eps != 0.0 else []
    checked = len(defects)
    ok = checked > 0 and all(as_stated(d, expected) for d in defects)
    results = {
        "alpha": alpha, "beta": beta, "eps": eps, "branch": branch,
        "nodes": len(grid.feasible), "feasible_nodes": feasible,
        "checked_nodes": checked,
        "expected_sign": expected if eps != 0.0 else 0,
        "pass": ok,
    }
    return build_report("scan", results), grid
