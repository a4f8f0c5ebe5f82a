"""Spans around conesphere's public functions, recorded from outside.

`Tracer.install()` replaces each target function under every name a
`conesphere` module looks it up by (for instance `solver.glued_football`,
`suites.glued_football` and `metric.glued_football` are one function), so
every call from inside the program is seen.  `uninstall()` puts the
originals back, so untraced rounds run the unmodified program.

A span is (name, start, end, parent, run id).  Spans stay in memory in
compact arrays and are summarised, and saved, once the run ends.  A span's
self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (defining module, function); spans are named "module.function".
TARGETS = (
    ("solver", "gauss_newton"),
    ("solver", "jacobian"),
    ("solver", "family_distance"),
    ("solver", "defect_scan"),
    ("metric", "validate"),
    ("metric", "glued_football"),
    ("sphtrig", "side_from_sas"),
    ("sphtrig", "angles_from_sss"),
    ("lemmas", "lemma1_caseb_exclusion"),
    ("lemmas", "lemma3_sweep"),
    ("lemmas", "half_piece_solve"),
    ("eigencheck", "radial_residual"),
    ("admissibility", "mp_distance_bruteforce"),
    ("suites", "rigidity_suite"),
    ("suites", "scan_suite"),
    ("suites", "lemma1_suite"),
    ("suites", "lemma2_suite"),
    ("suites", "step1_suite"),
    ("suites", "lemma3_suite"),
    ("suites", "eigen_suite"),
    ("suites", "admissible_suite"),
    ("reports", "render_report"),
    ("reports", "render_csv"),
)

# Layers reported with calls, total and self time and per-call quantiles.
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fn in TARGETS
                  if mod not in ("suites", "reports"))
SUITES = tuple(f"suites.{fn}" for mod, fn in TARGETS if mod == "suites")
RENDERERS = ("reports.render_report", "reports.render_csv")
GN_STATUSES = ("converged", "max_iter", "boundary")


class Tracer:
    """Wraps the targets of a loaded `conesphere` and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.run_col = array("i")
        # Counts recorded at the span boundaries, summed over the run.
        self.counts: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, annotate):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Columns are appended on entry so that a span's index is fixed
            # before its children record theirs.
            idx = len(self.name_col)
            self.name_col.append(nid)
            self.parent_col.append(stack[-1] if stack else -1)
            self.run_col.append(self.run_id)
            self.end_col.append(0.0)
            stack.append(idx)
            self.start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_col[idx] = clock()
                stack.pop()
            if annotate is not None:
                annotate(self.counts, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "conesphere" or key.startswith("conesphere.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"conesphere.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, original, ANNOTATIONS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays, times relative to the first."""
        import numpy as np

        start = np.frombuffer(self.start_col, dtype=np.float64)
        t_ref = start.min() if start.size else 0.0
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "start": start - t_ref,
            "end": np.frombuffer(self.end_col, dtype=np.float64) - t_ref,
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run_col, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        import json

        import numpy as np

        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.arrays())

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-layer figures, per traced round (calls, times, counts)."""
        import numpy as np

        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out: dict[str, float] = {}
        rounds = max(rounds, 1)

        def of(name: str):
            nid = self.name_ids.get(name)
            mask = cols["name"] == nid if nid is not None else np.zeros(dur.size, bool)
            return mask, dur[mask], self_time[mask]

        for name in FUNCTIONS:
            _, d, s = of(name)
            out[f"{name}.calls"] = d.size / rounds
            out[f"{name}.total_ms"] = 1e3 * d.sum() / rounds
            out[f"{name}.self_ms"] = 1e3 * s.sum() / rounds
            out[f"{name}.p50_us"] = 1e6 * float(np.percentile(d, 50)) if d.size else 0.0
            out[f"{name}.p90_us"] = 1e6 * float(np.percentile(d, 90)) if d.size else 0.0
        gn_calls = of("solver.gauss_newton")[1].size
        out["solver.gauss_newton.iterations"] = (
            self.counts.get("gn.iterations", 0.0) / gn_calls if gn_calls else 0.0)
        for status in GN_STATUSES:
            out[f"solver.gauss_newton.{status}"] = (
                self.counts.get(f"gn.{status}", 0.0) / rounds)
        fd_mask, fd, _ = of("solver.family_distance")
        builds = of("metric.glued_football")[0] & has_parent
        builds &= np.isin(parent, np.flatnonzero(fd_mask))
        out["solver.family_distance.builds_per_call"] = (
            int(builds.sum()) / fd.size if fd.size else 0.0)
        for name in SUITES:
            out[f"{name}.self_ms"] = 1e3 * of(name)[2].sum() / rounds
        for name in RENDERERS:
            out[f"{name}.total_ms"] = 1e3 * of(name)[1].sum() / rounds
            out[f"{name}.bytes"] = self.counts.get(f"{name}.bytes", 0.0) / rounds
        return out


def _count_gauss_newton(counts, result) -> None:
    counts["gn.iterations"] = counts.get("gn.iterations", 0.0) + result.iterations
    key = f"gn.{result.status}"
    counts[key] = counts.get(key, 0.0) + 1


def _count_bytes(name):
    def annotate(counts, result) -> None:
        key = f"{name}.bytes"
        counts[key] = counts.get(key, 0.0) + len(result.encode("utf-8"))
    return annotate


ANNOTATIONS = {
    "solver.gauss_newton": _count_gauss_newton,
    **{name: _count_bytes(name) for name in RENDERERS},
}
