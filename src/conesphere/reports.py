"""Run configuration and deterministic report/CSV rendering.

Every report embeds the artifact version and the full effective RunConfig,
and serialization is canonical (sorted keys, shortest round-trip floats), so
two runs with identical configuration produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from . import __version__


@dataclass(frozen=True)
class RunConfig:
    """Settings a caller can set; echoed verbatim into every report.

    The solver's tolerances and multistart sizes, and the eigen check's
    grid (``eigen --n/--delta``).  Suite grids are constants in ``suites``.
    """

    res_tol: float = 1e-11
    rank_tol: float = 1e-6
    dist_tol: float = 1e-6
    max_iter: int = 50
    damping0: float = 1e-3
    radius: float = 0.05
    samples: int = 500
    seed: int = 7
    eigen_n: int = 1001
    eigen_delta: float = 0.1

    def merged(self, overrides: dict) -> "RunConfig":
        """New config with overrides applied; unknown keys are an error."""
        known = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in known:
                raise KeyError(f"unknown config field {key!r}")
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        return cls().merged(data)


def build_report(command: str, config: RunConfig, results: dict) -> dict:
    return {
        "artifact": "conesphere",
        "version": __version__,
        "command": command,
        "config": dataclasses.asdict(config),
        "results": results,
    }


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
