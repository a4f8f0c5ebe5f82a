"""Deterministic report/CSV rendering.

Every report embeds the artifact version and the command; the rigidity
report also carries a config block: the solver's tolerance constants and
the probe's radius, sample count and seed.  Serialization is canonical (sorted keys, shortest
round-trip floats), so two runs with identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json

from . import __version__


def build_report(command: str, results: dict) -> dict:
    return {"artifact": "conesphere", "version": __version__,
            "command": command, "results": results}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))


def format_number(value) -> str:
    """Lossless decimal rendering used in CSV cells."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def render_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(header, rows))


SCAN_CSV_HEADER = ["l1", "l2", "l3", "l4", "l5", "l6",
                   "rA", "rB", "rD", "rC", "feasible"]


def scan_rows_to_csv(rows) -> list[tuple]:
    return [(r.l1, r.l2, r.l3, r.l4, r.l5, r.l6,
             r.r_A, r.r_B, r.r_D, r.r_C, r.feasible) for r in rows]
