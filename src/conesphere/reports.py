"""Deterministic report/CSV rendering.

Every report embeds the artifact version and the command; the rigidity
report also carries a config block: the solver's tolerance constants and
the probe's radius, sample count and seed.  Serialization is canonical
(sorted keys, shortest round-trip floats; the only CSV, the scan's, writes
each cell at .17g), so identical inputs give byte-identical files.
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


def render_csv(grid) -> str:
    """The scan CSV of a solver.ScanGrid: the header, then its rows in order.

    Every cell is "%.17g" of a float, feasible as 1.0 or 0.0.  Values repeat
    down a column, so each column formats each of its bit patterns once
    (bits keep -0.0 apart from 0.0); column by column, temporaries stay small.
    """
    columns = []
    for column in [*grid.lengths.T, *grid.residuals.T, 1.0 * grid.feasible]:
        keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
        texts = ["%.17g" % v for v in keys.view(np.float64).tolist()]
        columns.append(np.array(texts, dtype=object)[inverse].tolist())
    rows = map(",".join, zip(*columns))
    return "\n".join([",".join(SCAN_CSV_HEADER), *rows, ""])
