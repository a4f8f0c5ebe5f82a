"""conesphere benchmark: time to verdict and trust in the verdict.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rigidity --seed 7 --seconds 30 --trace 0

Workloads: rigidity, rigidity-edge, sweeps (see perfbench/README.md), or
`all`, which runs each of them untraced and traced.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: every end-to-end metric with --trace 0, every
per-layer metric with --trace 1.  The lines before it record the
environment and the digests of the reports, so two commits can be
compared.

The program is driven only through `conesphere.cli.main`, in fresh child
processes that import it from the checkout's `src/`, with BLAS and OpenMP
capped at one thread.  Reports go to a scratch directory inside the
checkout that is removed afterwards; traced runs leave their spans in
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conebench import reference  # noqa: E402
from conebench.workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Fresh interpreters timed for setup_s; one more runs first, untimed, so
# that bytecode compilation and a cold file cache are not counted.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30.0
# The whole run must end within 180 s.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_setup(count: int) -> dict:
    """Median time from a fresh interpreter to `import conesphere.cli` done.

    Each probe's time is scaled to the host's full speed by the reference
    loop it times after its import (see conebench.reference).
    """
    totals, numpy_s, conesphere_s = [], [], []
    for k in range(count + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(ROOT / "src")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env(), text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up probe did not exit")
        fields = line.split()
        if (proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready"
                or not rest.strip()):
            raise BenchError(f"set-up probe failed: {line.strip()} {err.strip()}")
        if k == 0:
            continue
        totals.append((t1 - t0) * reference.NOMINAL_S / float(rest))
        numpy_s.append(float(fields[1]))
        conesphere_s.append(float(fields[2]))
    return {"setup_s": statistics.median(totals),
            "import.numpy_s": statistics.median(numpy_s),
            "import.conesphere_s": statistics.median(conesphere_s)}


def run_worker(job: dict, timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              capture_output=True, text=True, env=child_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu": cpu, "seed": seed, "thread_caps": THREAD_CAPS}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def select(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    return {m["name"]: _metric(values[m["name"]], m["unit"]) for m in specs}


def mean_round_s(rounds: list[dict]) -> float:
    """Mean untraced round time, each input weighted equally.

    Inputs that fit in one more round than others would otherwise weigh
    more, and how many do depends on the program's speed.
    """
    per_input: dict[int, list[float]] = {}
    for rd in rounds:
        if not rd["traced"]:
            per_input.setdefault(rd["input"], []).append(rd["verdict_s"])
    return statistics.fmean(statistics.fmean(v) for v in per_input.values())


def end_to_end(setup: dict, worker: dict) -> dict:
    # Accuracy comes from the first pass only, so that it does not depend
    # on how many repeats fit in the time; repeats still count in `failed`.
    first = worker["first_pass"]
    ok = first["attempted"] - first["failed"] - first["unsupported"]
    ratio = worker["dist_ratio_p90"]
    decision = worker["decision_margin"]
    return {
        "setup_s": setup["setup_s"],
        "verdict_s": mean_round_s(worker["rounds"])
                     * reference.NOMINAL_S / worker["reference_s"],
        "peak_rss_mb": worker["peak_rss_mb"],
        "success_ratio": ok / first["attempted"],
        # Ratios are floored at roundoff, so only an empty sample (no
        # converged start) gives 0.
        "dist_margin": 1.0 / ratio if ratio > 0 else 0.0,
        "decision_margin": decision if decision != float("inf") else 0.0,
    }


def per_layer(setup: dict, worker: dict) -> dict:
    values = dict(worker["layers"])
    values["import.numpy_s"] = setup["import.numpy_s"]
    values["import.conesphere_s"] = setup["import.conesphere_s"]
    plain = [rd["verdict_s"] for rd in worker["rounds"] if not rd["traced"]]
    traced = [rd["verdict_s"] for rd in worker["rounds"] if rd["traced"]]
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    values["trace.verdict_s_untraced"] = untraced_s
    values["trace.verdict_s_traced"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return values


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    t_start = time.perf_counter()
    setup = probe_setup(SETUP_PROBES if size == "full" else 2)
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    try:
        job = {"root": str(ROOT), "workload": workload, "seed": seed,
               "seconds": seconds, "trace": trace, "size": size,
               "work_dir": str(work), "out_dir": str(ROOT / ".perfbench_out")}
        worker = run_worker(job, RUN_LIMIT_S - (time.perf_counter() - t_start))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        metrics = select(per_layer(setup, worker), spec["per_layer"])
    else:
        metrics = select(end_to_end(setup, worker), spec["end_to_end"])
    print(json.dumps({"env": {**environment(seed), **worker["env"]},
                      "workload": workload, "trace": int(trace),
                      **({"spans": worker["spans_file"]} if trace else {})}))
    print(json.dumps({"rounds": worker["rounds"],
                      "reference_s": worker["reference_s"]}))
    if not trace:
        # The gated verdict_s is scaled to full host speed; this is the raw
        # time it came from.
        print(json.dumps({"verdict_s": metrics["verdict_s"]["value"],
                          "verdict_s_unscaled": mean_round_s(worker["rounds"])}))
    print(json.dumps({"digests": worker["digests"]}))
    for problem in worker["problems"]:
        print(f"check failed: {problem}")
    return {"correct": worker["failed"] == 0, "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conesphere" / "cli.py").is_file():
        print(f"no conesphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.workload != "all":
            result = run_one(spec, args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size)
        else:
            results = {}
            for workload in WORKLOADS:
                for trace in (False, True):
                    res = run_one(spec, workload, args.seed, args.seconds, trace,
                                  args.size)
                    print(f"{workload} trace={int(trace)}: {json.dumps(res)}")
                    results[(workload, trace)] = res
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{name}": m for (w, trace), r in results.items()
                            if not trace for name, m in r["metrics"].items()},
            }
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
