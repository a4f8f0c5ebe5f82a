"""Workload plans: which `conesphere` commands a benchmark run issues.

A plan is a list of *inputs*; each input is the list of CLI commands of
one verdict.  A run cycles through the inputs round after round, so the
first pass over the inputs is the fixed, seed-determined sample that the
accuracy metrics are computed from, and every later pass repeats an input
whose reports must come back byte-identical.

Output paths are left as placeholders ("{dir}") that the worker fills in
per round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("rigidity", "rigidity-edge", "sweeps")

# Sizes: starts per rigidity command, distinct rigidity inputs per run,
# scan grid nodes per axis.  "tiny" is for the smoke tests only.
SIZES = {
    "full": {"samples": 100, "inputs": 10, "grid": 101},
    "tiny": {"samples": 4, "inputs": 2, "grid": 6},
}

RIGIDITY_SPECS = {
    # Every start converges; Gauss-Newton and family_distance split the time.
    "rigidity": {"t": "1.2", "radius": "0.05"},
    # Near the validity boundary (max feasible radius 0.0214): about a third
    # of the starts hit max_iter and a few converged ones land off the family.
    "rigidity-edge": {"t": "0.2", "radius": "0.02"},
}

SCAN_WINDOWS = {"acute": ("2.0", "2.4"), "obtuse": ("0.6", "1.0")}

# Verdicts the program gives by design: lemma2 and step1 assert the
# classical slit-defect sign convention (acceptance criterion c4) and fail,
# and so does scan, which asserts the same convention per node.
EXPECTED_EXIT = {
    "scan-acute": 1,
    "scan-obtuse": 1,
    "lemma1": 0,
    "lemma2": 1,
    "step1": 1,
    "lemma3": 0,
    "eigen": 0,
    "admissible": 0,
}


@dataclass(frozen=True)
class Command:
    """One `cli.main` call: a label, its argv and the files it writes."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    inputs: tuple[tuple[Command, ...], ...]
    # Parameters the output checks need.
    expect: dict


def input_seeds(seed: int, count: int) -> list[int]:
    """Rigidity start seeds derived from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _rigidity_plan(workload: str, seed: int, size: str) -> Plan:
    sz = SIZES[size]
    spec = RIGIDITY_SPECS[workload]
    inputs = []
    for s in input_seeds(seed, sz["inputs"]):
        out = "{dir}/rigidity.json"
        argv = ("rigidity", "--alpha", "1.0", "--beta", "2.0",
                "--t", spec["t"], "--radius", spec["radius"],
                "--samples", str(sz["samples"]), "--seed", str(s),
                "--out", out)
        inputs.append((Command("rigidity", argv, (out,)),))
    expect = {"alpha": 1.0, "beta": 2.0, "t": float(spec["t"]),
              "samples": sz["samples"]}
    return Plan(workload, seed, tuple(inputs), expect)


def _sweeps_plan(seed: int, size: str) -> Plan:
    grid = str(SIZES[size]["grid"])
    cmds = []
    for branch, (lo, hi) in SCAN_WINDOWS.items():
        csv_out = "{dir}/scan-" + branch + ".csv"
        json_out = "{dir}/scan-" + branch + ".json"
        argv = ("scan", "--alpha", "1.0", "--beta", "2.0", "--eps", "0.05",
                "--branch", branch, "--l3-min", lo, "--l3-max", hi,
                "--l4-min", lo, "--l4-max", hi, "--grid", grid,
                "--out", csv_out, "--report", json_out)
        cmds.append(Command("scan-" + branch, argv, (csv_out, json_out)))
    for suite in ("lemma1", "lemma2", "step1"):
        out = "{dir}/" + suite + ".json"
        cmds.append(Command(suite, ("lemmas", "--suite", suite, "--out", out),
                            (out,)))
    out = "{dir}/lemma3.json"
    cmds.append(Command("lemma3", ("lemmas", "--suite", "lemma3",
                                   "--ell", "1.0471976",
                                   "--beta-angle", "1.5707963",
                                   "--out", out), (out,)))
    out = "{dir}/eigen.json"
    cmds.append(Command("eigen", ("eigen", "--out", out), (out,)))
    out = "{dir}/admissible.json"
    cmds.append(Command("admissible", ("admissible", "--alpha", "1.5707963",
                                       "--beta", "1.5707963", "--out", out),
                        (out,)))
    # The sweep grids are fixed; the seed only labels the run.
    expect = {"grid": int(grid), "windows": {
        b: (float(lo), float(hi)) for b, (lo, hi) in SCAN_WINDOWS.items()}}
    return Plan("sweeps", seed, (tuple(cmds),), expect)


def build_plan(workload: str, seed: int, size: str = "full") -> Plan:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if workload in RIGIDITY_SPECS:
        return _rigidity_plan(workload, seed, size)
    if workload == "sweeps":
        return _sweeps_plan(seed, size)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
