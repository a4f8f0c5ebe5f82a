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
    """Effective knobs of a run; echoed verbatim into every report."""

    res_tol: float = 1e-11
    rank_tol: float = 1e-6
    dist_tol: float = 1e-6
    max_iter: int = 50
    damping0: float = 1e-3
    radius: float = 0.05
    samples: int = 500
    seed: int = 7
    # Suite grids.  The slit-defect windows sit inside the feasibility
    # region of every eps in lemma2_eps.
    lemma1_grid: int = 1000
    lemma2_eps: tuple[float, ...] = (0.01, 0.05, 0.1)
    lemma2_grid: int = 5
    lemma2_below: tuple[float, float] = (2.0, 2.6)
    lemma2_above: tuple[float, float] = (0.5, 1.04)
    step1_below: tuple[float, float] = (2.11, 2.82)
    step1_above: tuple[float, float] = (0.2, 1.06)
    lemma3_n: int = 241
    eigen_n: int = 1001
    eigen_delta: float = 0.1
    eigen_residual_bound: float = 1e-4

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key, val in out.items():
            if isinstance(val, tuple):
                out[key] = list(val)
        return out

    def merged(self, overrides: dict) -> "RunConfig":
        """New config with overrides applied; unknown keys are an error."""
        known = {f.name: f for f in dataclasses.fields(self)}
        clean = {}
        for key, val in overrides.items():
            if key not in known:
                raise KeyError(f"unknown config field {key!r}")
            if isinstance(getattr(self, key), tuple):
                val = tuple(val)
            clean[key] = val
        return dataclasses.replace(self, **clean)

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
        "config": config.to_dict(),
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
