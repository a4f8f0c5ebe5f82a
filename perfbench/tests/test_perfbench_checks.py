"""The benchmark's output checks pass on real reports and fail on tampered ones."""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from conebench import checks  # noqa: E402
from conebench.tracer import Tracer  # noqa: E402
from conebench.workloads import build_plan  # noqa: E402

from conesphere import cli, metric, solver  # noqa: E402


def family_point(alpha, beta, s):
    spec = metric.ConeAngleSpec(alpha, beta)
    return metric.glued_football(metric.GluedFootballParams(spec, s)).lengths()


def _run(plan_input, tmp_path):
    """Run one plan input through cli.main; {label: (exit code, [texts])}."""
    out = {}
    for cmd in plan_input:
        argv = [a.replace("{dir}", str(tmp_path)) for a in cmd.argv]
        code = cli.main(argv)
        texts = [Path(p.replace("{dir}", str(tmp_path))).read_text()
                 for p in cmd.outputs]
        out[cmd.label] = (code, texts)
    return out


@pytest.fixture(scope="module")
def rigidity_run(tmp_path_factory):
    plan = build_plan("rigidity", 5, "tiny")
    code, (text,) = _run(plan.inputs[0], tmp_path_factory.mktemp("rig"))["rigidity"]
    return plan, code, json.loads(text)


@pytest.fixture(scope="module")
def sweeps_run(tmp_path_factory):
    plan = build_plan("sweeps", 5, "tiny")
    return plan, _run(plan.inputs[0], tmp_path_factory.mktemp("sweeps"))


def _check_rig(plan, code, report):
    return checks.check_rigidity(report, code, plan.expect, family_point)


def test_rigidity_report_passes(rigidity_run):
    plan, code, report = rigidity_run
    out = _check_rig(plan, code, report)
    assert out.failed == 0, out.problems
    assert out.attempted == 1 + plan.expect["samples"]
    assert out.dist_ratios and max(out.dist_ratios) < 1.0
    assert out.decision_margin > 1.0


@pytest.mark.parametrize("tamper", [
    lambda r: r["results"]["solutions"][0].update(
        family_distance=2.0 * r["results"]["solutions"][0]["family_distance"]),
    lambda r: r["results"]["solutions"][-1].update(residual_norm=1e-3),
    lambda r: r["results"].update(converged=r["results"]["converged"] + 1),
    lambda r: r["results"].update(kernel_dim=2),
    lambda r: r["results"].update(max_family_distance=0.0),
    lambda r: r["results"].update(starts=r["results"]["starts"] - 1),
], ids=["family-distance", "residual", "counts", "kernel-dim", "max-distance",
        "starts"])
def test_rigidity_check_can_fail(rigidity_run, tamper):
    plan, code, report = rigidity_run
    bad = copy.deepcopy(report)
    tamper(bad)
    assert _check_rig(plan, code, bad).failed >= 1


def test_rigidity_exit_code_must_match_verdict(rigidity_run):
    plan, code, report = rigidity_run
    assert _check_rig(plan, 1 - code, report).failed == 1


def _check_scan(plan, runs, branch, csv_text=None, code=None):
    c, (csv_out, json_out) = runs["scan-" + branch]
    return checks.check_scan(json.loads(json_out), csv_text or csv_out,
                             c if code is None else code, branch, plan.expect)


def test_scan_reports_pass(sweeps_run):
    plan, runs = sweeps_run
    for branch in ("acute", "obtuse"):
        out = _check_scan(plan, runs, branch)
        assert out.failed == 0, out.problems
        assert 0.0 < checks.p90(out.dist_ratios) < 1.0
        assert out.decision_margin > 1.0


def _tamper_csv(text, row, col, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tamper", [
    lambda t: _tamper_csv(t, 3, 9, "-" + t.splitlines()[3].split(",")[9]),  # rC sign
    lambda t: _tamper_csv(t, 2, 6, "1e-9"),  # rA off roundoff
    lambda t: _tamper_csv(t, 5, 10, "0"),  # infeasible
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # a row lost
    lambda t: "\n".join([t.splitlines()[0]] + t.splitlines()[1:][::-1]) + "\n",  # order
], ids=["sign", "closure", "feasible", "row-count", "order"])
def test_scan_check_can_fail(sweeps_run, tamper):
    plan, runs = sweeps_run
    csv_text = runs["scan-acute"][1][0]
    assert _check_scan(plan, runs, "acute", tamper(csv_text)).failed == 1


def test_scan_verdict_must_stay(sweeps_run):
    plan, runs = sweeps_run
    assert _check_scan(plan, runs, "obtuse", code=0).failed == 1


def test_suite_verdicts_pass(sweeps_run):
    _, runs = sweeps_run
    for label in ("lemma1", "lemma2", "step1", "lemma3", "eigen", "admissible"):
        code, (text,) = runs[label]
        out = checks.check_suite(label, json.loads(text), code)
        assert out.failed == 0, out.problems


@pytest.mark.parametrize("label", ["lemma1", "lemma2", "step1", "lemma3",
                                   "eigen", "admissible"])
def test_suite_check_can_fail(sweeps_run, label):
    _, runs = sweeps_run
    code, (text,) = runs[label]
    report = json.loads(text)
    report["results"]["pass"] = not report["results"]["pass"]
    assert checks.check_suite(label, report, 1 - code).failed == 1


def test_sign_flip_finding_is_checked(sweeps_run):
    _, runs = sweeps_run
    code, (text,) = runs["lemma2"]
    report = json.loads(text)
    row = report["results"]["sweeps"][0]["rows"][0]
    row["computed_sign"] = row["expected_sign"]
    assert checks.check_suite("lemma2", report, code).failed == 1


def test_repeat_digest_mismatch_fails():
    assert checks.check_repeat("x", "ab" * 32, "ab" * 32).failed == 0
    assert checks.check_repeat("x", "ab" * 32, "ba" * 32).failed == 1


def test_tracer_restores_program_and_nests_spans():
    original = solver.glued_football
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.glued_football is not original
        spec = metric.ConeAngleSpec(1.0, 2.0)
        m = metric.glued_football(metric.GluedFootballParams(spec, 1.2))
        solver.family_distance(m, spec)
    finally:
        tracer.uninstall()
    assert solver.glued_football is original
    layers = tracer.summary(1)
    assert layers["solver.family_distance.calls"] == 1
    assert layers["metric.glued_football.calls"] > 200
    assert (layers["solver.family_distance.builds_per_call"]
            == layers["metric.glued_football.calls"] - 1)
    assert 0.0 < layers["metric.glued_football.self_ms"] \
        < layers["metric.glued_football.total_ms"]


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _worker_result(rounds_per_input, repeat_failures=0):
    """A worker result for two inputs with the same first pass."""
    rounds = []
    for i, count in enumerate(rounds_per_input):
        rounds += [{"input": i, "traced": False, "verdict_s": 1.0 + i}] * count
    repeats = len(rounds) - len(rounds_per_input)
    first = {"attempted": 202, "failed": 0, "unsupported": 70}
    return {"rounds": rounds, "reference_s": 1.0e-3, "peak_rss_mb": 80.0,
            "attempted": first["attempted"] + repeats,
            "failed": repeat_failures, "first_pass": first,
            "dist_ratio_p90": 0.1, "decision_margin": 10.0}


def test_success_ratio_ignores_round_count():
    run = _load_run()
    setup = {"setup_s": 0.1}
    few = run.end_to_end(setup, _worker_result([2, 1]))
    many = run.end_to_end(setup, _worker_result([30, 29], repeat_failures=3))
    assert few["success_ratio"] == many["success_ratio"] == (202 - 70) / 202


def test_verdict_s_weights_inputs_equally():
    run = _load_run()
    setup = {"setup_s": 0.1}
    # Input 0 takes 1 s and input 1 takes 2 s, however often each ran.
    for counts in ([3, 2], [2, 3], [5, 1]):
        values = run.end_to_end(setup, _worker_result(counts))
        assert values["verdict_s"] == pytest.approx(1.5)


def test_select_follows_benchmark_json_and_needs_every_metric():
    run = _load_run()
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = run.end_to_end({"setup_s": 0.1}, _worker_result([2, 1]))
    picked = run.select(values, specs)
    assert [(k, v["unit"]) for k, v in picked.items()] == [
        (m["name"], m["unit"]) for m in specs]
    with pytest.raises(run.BenchError):
        run.select({}, specs)


def test_margins_are_floored_at_roundoff(rigidity_run, sweeps_run):
    floor = checks.ROUNDOFF_FLOOR / checks.ROUNDOFF_TOL
    plan, runs = sweeps_run
    # Scan residuals are at roundoff, so every row sits at the floor.
    assert checks.p90(_check_scan(plan, runs, "acute").dist_ratios) == floor
    # An exactly closed row reads as the floor too, not as 0.
    csv_text = runs["scan-acute"][1][0]
    for col in (6, 7, 8):
        csv_text = _tamper_csv(csv_text, 1, col, "0.0")
    out = _check_scan(plan, runs, "acute", csv_text)
    assert out.failed == 0 and min(out.dist_ratios) == floor
    plan, code, report = rigidity_run
    exact = copy.deepcopy(report)
    for s in exact["results"]["solutions"]:
        s["family_distance"] = 0.0
    ratios = _check_rig(plan, code, exact).dist_ratios
    assert ratios and min(ratios) == checks.ROUNDOFF_FLOOR / report["results"]["dist_tol"]
