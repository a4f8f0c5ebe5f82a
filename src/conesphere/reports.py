"""Deterministic report/CSV rendering.

Every report embeds the artifact version and the command; the rigidity
report also carries a config block: the solver's tolerance constants and
the probe's radius, sample count and seed.  Serialization is canonical
(sorted keys, shortest round-trip floats; the scan CSV, the only CSV,
writes every float at .17g), so two runs with identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__


def build_report(command: str, results: dict) -> dict:
    return {"artifact": "conesphere", "version": __version__,
            "command": command, "results": results}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


SCAN_CSV_HEADER = ("l1", "l2", "l3", "l4", "l5", "l6",
                   "rA", "rB", "rD", "rC", "feasible")
# One scan row: ten lossless floats (nan for an infeasible cell), then the
# feasible flag as 0 or 1.
_SCAN_ROW = ",".join(["%.17g"] * 10 + ["%d"])
# Rows converted to Python floats at a time, to bound the list's memory.
_CSV_CHUNK = 4096


def render_csv(grid) -> str:
    """The scan CSV of a solver.ScanGrid: the header, then its rows in order."""
    table = np.column_stack([grid.lengths, grid.residuals, grid.feasible])
    lines = [",".join(SCAN_CSV_HEADER)]
    for start in range(0, len(table), _CSV_CHUNK):
        lines.extend(_SCAN_ROW % tuple(row)
                     for row in table[start:start + _CSV_CHUNK].tolist())
    return "\n".join(lines) + "\n"
