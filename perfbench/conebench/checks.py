"""Output checks for the benchmark's reports.

Each checker takes a parsed report (and, for scans, the CSV text) plus the
exit code `cli.main` returned, and returns an Outcome: how many operations
it judged, which of them failed, and the accuracy figures the end-to-end
metrics are built from.  The checkers only read outputs; they never call
into the program except through the `family_point` callable the rigidity
checker is given, which must rebuild a glued football with the public
`conesphere.metric` API.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .workloads import EXPECTED_EXIT

# Closure residuals of a scan row are exact up to roundoff; this is the
# package's own roundoff scale for inverse-trig arguments (sphtrig.CLAMP_TOL).
ROUNDOFF_TOL = 1e-12
# Distances below this are float roundoff: each distance entering
# dist_margin is raised to it first, so the margin stays put while results
# sit at roundoff and moves only when they leave it.  Scan residuals here
# are at most 2e-15.
ROUNDOFF_FLOOR = 1e-14
# Sign decisions are trusted only beyond the suites' own defect margin.
SIGN_THRESHOLD = 1e-9
# How many converged starts per rigidity report get their family distance
# re-measured; the worst one is always among them.
REMEASURE_SAMPLE = 5
REMEASURE_TOL = 1e-12

SCAN_HEADER = ["l1", "l2", "l3", "l4", "l5", "l6",
               "rA", "rB", "rD", "rC", "feasible"]


@dataclass
class Outcome:
    """Operations judged by one check and what they measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Rigidity starts that do not support the verdict: they ended
    # `boundary` or `max_iter`, or converged farther than dist_tol from
    # the family.
    unsupported: int = 0
    # Distance of each claimed solution from where it must lie, raised to
    # ROUNDOFF_FLOOR and divided by the tolerance it is judged against.
    dist_ratios: list[float] = field(default_factory=list)
    # Smallest |decided quantity| / decision threshold (inf: no decision).
    decision_margin: float = math.inf

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.unsupported += other.unsupported
        self.dist_ratios.extend(other.dist_ratios)
        self.decision_margin = min(self.decision_margin, other.decision_margin)


def check_rigidity(report: dict, exit_code: int, expect: dict,
                   family_point) -> Outcome:
    """One operation for the command plus one per start.

    `family_point(alpha, beta, s)` returns the six lengths of the glued
    football at slit parameter s.
    """
    res = report["results"]
    cfg = report["config"]
    out = Outcome(attempted=1 + int(res["starts"]))
    label = f"rigidity seed {res['seed']}"
    sols = res["solutions"]
    command_ok = True

    def command_fail(message: str) -> None:
        nonlocal command_ok
        out.problems.append(f"{label}: {message}")
        command_ok = False

    if res["starts"] != expect["samples"]:
        command_fail(f"{res['starts']} starts, asked for {expect['samples']}")
    if (res["converged"] + res["boundary_failures"] + res["nonconverged"]
            != res["starts"] or len(sols) != res["converged"]):
        command_fail("start counts do not add up")
    # Exactly one of the four constraint directions degenerates (rank 3),
    # so the 4x6 Jacobian has a 3-dimensional kernel.
    if res["kernel_dim"] != 3:
        command_fail(f"kernel_dim {res['kernel_dim']} != 3")
    worst = max((s["family_distance"] for s in sols), default=0.0)
    if res["max_family_distance"] != worst:
        command_fail("max_family_distance is not the largest solution distance")
    holds = res["converged"] > 0 and worst < res["dist_tol"]
    if (res["rigidity_holds"] != holds or res["pass"] != holds
            or exit_code != (0 if holds else 1)):
        command_fail(f"verdict inconsistent (pass {res['pass']}, exit {exit_code})")
    if not command_ok:
        out.failed += 1

    bad_starts = set()
    for k, s in enumerate(sols):
        if not s["residual_norm"] < cfg["res_tol"]:
            bad_starts.add(k)
    if sols:
        worst_k = max(range(len(sols)), key=lambda k: sols[k]["family_distance"])
        step = max(1, len(sols) // REMEASURE_SAMPLE)
        for k in sorted(set(range(0, len(sols), step)[:REMEASURE_SAMPLE - 1])
                        | {worst_k}):
            s = sols[k]
            fam = family_point(expect["alpha"], expect["beta"], s["s_star"])
            again = math.sqrt(sum((a - b) ** 2
                                  for a, b in zip(s["lengths"], fam)))
            if abs(again - s["family_distance"]) > REMEASURE_TOL:
                bad_starts.add(k)
    if bad_starts:
        out.fail(f"{label}: {len(bad_starts)} converged starts fail their "
                 f"residual or family-distance re-measure", len(bad_starts))
    out.dist_ratios = [max(s["family_distance"], ROUNDOFF_FLOOR) / res["dist_tol"]
                       for s in sols]
    out.unsupported = (res["boundary_failures"] + res["nonconverged"]
                       + sum(1 for k, r in enumerate(out.dist_ratios)
                             if r >= 1.0 and k not in bad_starts))

    svals = res["singular_values"]
    # Rank 3 needs sigma4/sigma1 below rank_tol and sigma3/sigma1 above
    # it; the margin is the closer of the two.
    rank_tol = cfg["rank_tol"]
    out.decision_margin = min(rank_tol * svals[0] / svals[3],
                              svals[2] / svals[0] / rank_tol)
    return out


def _grid(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


def check_scan(report: dict, csv_text: str, exit_code: int, branch: str,
               expect: dict) -> Outcome:
    """One operation: row count and grid order, closure, C-defect sign."""
    out = Outcome(attempted=1)
    label = f"scan {branch}"
    n = expect["grid"]
    lo, hi = expect["windows"][branch]
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    rows = list(reader)
    problems = []
    if header != SCAN_HEADER:
        problems.append(f"header {header}")
    nodes = [(a, b) for a in _grid(lo, hi, n) for b in _grid(lo, hi, n)]
    if len(rows) != len(nodes):
        problems.append(f"{len(rows)} rows for {len(nodes)} grid nodes")
    # Acute slit lengths give a positive C-defect, obtuse a negative one.
    sign = 1.0 if branch == "acute" else -1.0
    min_defect = math.inf
    bad_rows = 0
    for row, (l3, l4) in zip(rows, nodes):
        if len(row) != len(SCAN_HEADER):
            bad_rows += 1
            continue
        vals = [float(v) for v in row[:10]]
        if (abs(vals[2] - l3) > 1e-12 or abs(vals[3] - l4) > 1e-12
                or row[10] != "1"):
            bad_rows += 1
            continue
        r_close = max(abs(vals[6]), abs(vals[7]), abs(vals[8]))
        out.dist_ratios.append(max(r_close, ROUNDOFF_FLOOR) / ROUNDOFF_TOL)
        min_defect = min(min_defect, sign * vals[9])
        if r_close > ROUNDOFF_TOL or not sign * vals[9] > 0.0:
            bad_rows += 1
    if bad_rows:
        problems.append(f"{bad_rows} rows off the grid, infeasible, not closed "
                        f"at roundoff or with the wrong C-defect sign")
    res = report["results"]
    if (res["nodes"] != len(nodes) or res["feasible_nodes"] != len(nodes)
            or res["branch"] != branch):
        problems.append("report node counts disagree with the grid")
    if res["pass"] != (EXPECTED_EXIT["scan-" + branch] == 0) \
            or exit_code != EXPECTED_EXIT["scan-" + branch]:
        problems.append(f"verdict changed (pass {res['pass']}, exit {exit_code})")
    if problems:
        out.fail(f"{label}: " + "; ".join(problems))
    out.decision_margin = min_defect / SIGN_THRESHOLD
    return out


def check_suite(label: str, report: dict, exit_code: int) -> Outcome:
    """One operation: the verdict equals the program's by-design verdict."""
    out = Outcome(attempted=1)
    res = report["results"]
    want = EXPECTED_EXIT[label]
    problems = []
    if exit_code != want or res["pass"] != (want == 0):
        problems.append(f"verdict changed (pass {res['pass']}, exit {exit_code})")
    if label in ("lemma2", "step1"):
        # The c4 finding: every node is feasible and carries the nonzero
        # sign opposite to the stated convention.
        rows = [r for sw in res["sweeps"] for r in sw["rows"]]
        flipped = [r for r in rows
                   if r["feasible"] and r["computed_sign"] == -r["expected_sign"]]
        if len(flipped) != len(rows):
            problems.append(f"{len(rows) - len(flipped)} of {len(rows)} nodes "
                            f"infeasible or not sign-flipped")
        if flipped:
            out.decision_margin = (min(abs(r["defect"]) for r in flipped)
                                   / SIGN_THRESHOLD)
    elif label == "lemma3":
        kinds = sorted(e["kind"] for e in res["extrema"])
        if kinds != ["maximum", "minimum"]:
            problems.append(f"extrema {kinds}")
    if problems:
        out.fail(f"{label}: " + "; ".join(problems))
    return out


def check_repeat(label: str, first: str, again: str) -> Outcome:
    """One operation: a repeated command reproduces its report byte for byte."""
    out = Outcome(attempted=1)
    if first != again:
        out.fail(f"{label}: report digest {again[:12]} != first run {first[:12]}")
    return out


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]
