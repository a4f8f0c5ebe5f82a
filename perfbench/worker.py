"""Benchmark worker: one fresh process that drives `conesphere.cli.main`.

Started by run.py with a JSON job description as its only argument.  It
imports `conesphere.cli` from the checkout's `src/`, runs the workload's
commands round after round until the time is up, checks every report, and
prints one JSON line with the round timings and check results.

Round r runs input r mod K (K inputs in the plan).  The first pass over the
inputs is checked in full; every later round repeats an input, and its
reports and exit codes must match the first pass byte for byte.  In a traced
run each input is run untraced and then traced, and the traced round is the
repeat.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from conebench.checks import (
    Outcome,
    check_repeat,
    check_rigidity,
    check_scan,
    check_suite,
    p90,
)
from conebench import reference
from conebench.tracer import Tracer
from conebench.workloads import build_plan

# The loop stops starting rounds after this long even if the minimum number
# of rounds is not reached; the run then fails rather than overrun.
HARD_LIMIT_S = 140.0
# Reference-loop passes timed after every round (see conebench.reference).
REFERENCE_SAMPLES = 100


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import conesphere.cli as cli

    here = Path(cli.__file__).resolve()
    if src.resolve() not in here.parents:
        raise ImportError(f"conesphere imported from {here}, not from {src}")
    return cli


def _digest(code, paths: list[Path]) -> str:
    h = hashlib.sha256(f"exit {code}\n".encode())
    for p in paths:
        h.update(f"{p.name}\n".encode())
        h.update(p.read_bytes() if p.is_file() else b"<missing>")
    return h.hexdigest()


def _run_command(cli, argv: list[str]):
    """Exit code of one `cli.main` call, or a description of how it broke."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a failed operation, not a bench error
        return f"{type(exc).__name__}: {exc}"


def _check_input(plan, commands, family_point) -> Outcome:
    out = Outcome()
    for cmd, code, paths in commands:
        if not isinstance(code, int):
            out.attempted += 1
            out.fail(f"{cmd.label}: {code}")
            continue
        try:
            report = json.loads(paths[-1].read_text())
            if cmd.label == "rigidity":
                out.merge(check_rigidity(report, code, plan.expect, family_point))
            elif cmd.label.startswith("scan-"):
                out.merge(check_scan(report, paths[0].read_text(), code,
                                     cmd.label[len("scan-"):], plan.expect))
            else:
                out.merge(check_suite(cmd.label, report, code))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            out.attempted += 1
            out.fail(f"{cmd.label}: unreadable output ({type(exc).__name__}: {exc})")
    return out


def _environment() -> dict:
    import numpy as np

    env = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        env["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main(job: dict) -> int:
    root = Path(job["root"])
    try:
        cli = _import_program(root / "src")
    except ImportError as exc:
        print(f"worker: cannot import conesphere: {exc}", file=sys.stderr)
        return 2
    from conesphere.metric import ConeAngleSpec, GluedFootballParams, glued_football

    def family_point(alpha, beta, s):
        return glued_football(GluedFootballParams(ConeAngleSpec(alpha, beta), s)).lengths()

    plan = build_plan(job["workload"], job["seed"], job["size"])
    trace = bool(job["trace"])
    work = Path(job["work_dir"])
    tracer = Tracer() if trace else None
    n_inputs = len(plan.inputs)
    # Untraced: every input once, plus one repeat.  Traced: one pair.
    min_rounds = 2 if trace else n_inputs + 1
    outcome = Outcome()
    first: dict[int, tuple] = {}
    rounds = []
    ref_times = [reference.mean_time(REFERENCE_SAMPLES)]
    t_begin = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - t_begin
        if r >= min_rounds and elapsed >= job["seconds"]:
            break
        if elapsed > HARD_LIMIT_S:
            print(f"worker: only {r} of {min_rounds} rounds in {HARD_LIMIT_S} s",
                  file=sys.stderr)
            return 1
        i, traced = ((r // 2) % n_inputs, r % 2 == 1) if trace else (r % n_inputs, False)
        rdir = work / f"round{r}"
        rdir.mkdir()
        commands = []
        for cmd in plan.inputs[i]:
            argv = [a.replace("{dir}", str(rdir)) for a in cmd.argv]
            paths = [Path(p.replace("{dir}", str(rdir))) for p in cmd.outputs]
            commands.append((cmd, argv, paths))
        if traced:
            tracer.run_id = r
            tracer.install()
        t0 = time.perf_counter()
        codes = [_run_command(cli, argv) for _, argv, _ in commands]
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        ref_times.append(reference.mean_time(REFERENCE_SAMPLES))
        rounds.append({"input": i, "traced": traced, "verdict_s": t1 - t0,
                       "reference_s": ref_times[-1]})
        digests = [_digest(code, paths) for code, (_, _, paths) in zip(codes, commands)]
        done = [(cmd, code, paths) for code, (cmd, _, paths) in zip(codes, commands)]
        if i not in first:
            first[i] = (done, digests)
        else:
            for (cmd, _, _), d0, d1 in zip(done, first[i][1], digests):
                outcome.merge(check_repeat(f"input {i} {cmd.label}", d0, d1))
            shutil.rmtree(rdir)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    accuracy = Outcome()
    for i in sorted(first):
        accuracy.merge(_check_input(plan, first[i][0], family_point))
    outcome.merge(accuracy)

    result = {
        "rounds": rounds,
        "reference_s": sum(ref_times) / len(ref_times),
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # The first pass alone: a fixed sample whatever the round count.
        "first_pass": {"attempted": accuracy.attempted,
                       "failed": accuracy.failed,
                       "unsupported": accuracy.unsupported},
        "problems": outcome.problems[:20],
        "dist_ratio_p90": p90(accuracy.dist_ratios),
        "decision_margin": accuracy.decision_margin,
        "digests": {f"input{i}/{cmd.label}": d
                    for i in sorted(first)
                    for (cmd, _, _), d in zip(*first[i])},
        "env": _environment(),
    }
    if trace:
        traced_rounds = sum(1 for rd in rounds if rd["traced"])
        result["layers"] = tracer.summary(traced_rounds)
        out_dir = Path(job["out_dir"])
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{plan.workload}-seed{plan.seed}.npz"
        tracer.save(spans)
        result["spans_file"] = str(spans.relative_to(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
