"""Command-line front end.

Commands: construct, check, rigidity, scan, lemmas, eigen, admissible.
All numeric arguments are radians.  Exit codes: 0 pass, 1 assertion or
validity failure, 2 usage error, 3 I/O or parse error.  A suite command's
exit code is read from its report's results.pass; every output, report,
CSV or metric document, goes through _emit.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import suites
from .metric import (
    LENGTH_FIELDS,
    ConeAngleSpec,
    GluedFootballParams,
    MetricDocumentError,
    MetricRangeError,
    cone_angle_tuple,
    deserialize,
    glued_football,
    serialize,
    validate,
)
from .reports import build_report, render_csv, render_report
from .solver import residual
from .sphtrig import PI

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="conesphere",
        description="Spherical conical metrics from glued footballs: "
                    "construction, validation and rigidity suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a glued-football metric document")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", help="metric document path (default: stdout)")

    p = sub.add_parser("check", help="validate a metric document")
    p.add_argument("path")
    p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("rigidity", help="multistart local rigidity scan")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("scan", help="C-defect scan over an (l3, l4) grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--branch", choices=("acute", "obtuse"), default="acute")
    p.add_argument("--l3-min", type=float, required=True)
    p.add_argument("--l3-max", type=float, required=True)
    p.add_argument("--l4-min", type=float, required=True)
    p.add_argument("--l4-max", type=float, required=True)
    p.add_argument("--grid", type=int, default=11, help="nodes per axis")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--report", help="JSON report path")

    p = sub.add_parser("lemmas", help="named verification suites")
    p.add_argument("--suite", choices=("lemma1", "lemma2", "lemma3", "step1"),
                   required=True)
    p.add_argument("--beta-angle", type=float,
                   help="opposite/cone angle for lemma1..lemma3")
    p.add_argument("--ell", type=float, help="base length for lemma3")
    p.add_argument("--alpha", type=float, help="step1 first angle")
    p.add_argument("--beta", type=float, help="step1 second angle")
    p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("eigen", help="radial eigenfunction residual check")
    p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("admissible", help="angle-data admissibility checks")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", help="report path (default: stdout)")

    return parser


def _emit(path, text: str) -> None:
    """Write text to the file at path, or to stdout when there is no path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _norm(r) -> float:
    """Euclidean norm of a residual, summed in order as the reports record it."""
    return math.sqrt(sum(v * v for v in r))


def _cmd_construct(args) -> int:
    spec = ConeAngleSpec(args.alpha, args.beta)
    metric = glued_football(GluedFootballParams(spec, args.t))
    norm = _norm(residual(metric, spec.cone_vector()))
    _emit(args.out, serialize(metric, spec))
    print(f"residual_norm = {norm:.17g}",
          file=sys.stdout if args.out else sys.stderr)
    return EXIT_PASS


def _document_error(kind: str, err, code: int) -> int:
    print(f"{kind} error at {err.location or '<document>'}: {err}",
          file=sys.stderr)
    return code


def _cmd_check(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            metric, spec = deserialize(fh.read())
    except UnicodeDecodeError as err:
        # A ValueError, which main would call a usage error.
        return _document_error(
            "parse", MetricDocumentError(f"not UTF-8 text: {err}"), EXIT_IO)
    except MetricDocumentError as err:
        return _document_error("parse", err, EXIT_IO)
    except MetricRangeError as err:
        return _document_error("range", err, EXIT_FAIL)
    violations = validate(metric)
    results = {
        "path": args.path,
        "lengths": dict(zip(LENGTH_FIELDS, metric)),
        "spec": {"alpha": spec.alpha, "beta": spec.beta},
        "valid": not violations,
        "violations": violations,
    }
    if not violations:
        theta = cone_angle_tuple(metric)
        res = np.subtract(theta, spec.cone_vector())
        results["cone_angles"] = dict(zip(
            ("theta_A", "theta_B", "theta_D", "theta_C"), theta))
        results["residual"] = res.tolist()
        results["residual_norm"] = _norm(res)
    _emit(args.out, render_report(build_report("check", results)))
    return EXIT_FAIL if violations else EXIT_PASS


def _cmd_scan(args) -> int:
    # A window with a bound that is not finite has no nodes to check.
    for option in ("l3_min", "l3_max", "l4_min", "l4_max"):
        value = getattr(args, option)
        if not math.isfinite(value):
            raise ValueError(f"--{option.replace('_', '-')} = {value!r} "
                             f"is not finite")
    l3_grid = np.linspace(args.l3_min, args.l3_max, args.grid)
    l4_grid = np.linspace(args.l4_min, args.l4_max, args.grid)
    report, grid = suites.scan_suite(
        args.alpha, args.beta, args.eps, args.branch, l3_grid, l4_grid)
    _emit(args.out, render_csv(grid))
    if args.report:
        _emit(args.report, render_report(report))
    return EXIT_PASS if report["results"]["pass"] else EXIT_FAIL


# The angle options each lemmas suite reads; any other one given is a usage
# error.
_SUITE_OPTIONS = {"lemma1": ("beta_angle",), "lemma2": ("beta_angle",),
                  "lemma3": ("ell", "beta_angle"), "step1": ("alpha", "beta")}


def _lemmas(args) -> dict:
    reads = _SUITE_OPTIONS[args.suite]
    # A fixed order, so that every run names the same option.
    for option in ("beta_angle", "ell", "alpha", "beta"):
        if option not in reads and getattr(args, option) is not None:
            raise ValueError(f"--suite {args.suite} does not read "
                             f"--{option.replace('_', '-')}")
    if args.suite == "lemma1":
        betas = ((args.beta_angle,) if args.beta_angle is not None
                 else (0.5, 1.0, 2.0, 3.0))
        return suites.lemma1_suite(betas)
    if args.suite == "lemma2":
        beta = args.beta_angle if args.beta_angle is not None else PI / 2.0
        return suites.lemma2_suite(beta)
    if args.suite == "lemma3":
        if args.ell is None or args.beta_angle is None:
            raise ValueError("lemma3 needs --ell and --beta-angle")
        return suites.lemma3_suite(args.ell, args.beta_angle)
    return suites.step1_suite(1.0 if args.alpha is None else args.alpha,
                              2.0 if args.beta is None else args.beta)


# The commands whose only output is their suite's report.
_SUITES = {
    "rigidity": lambda args: suites.rigidity_suite(
        args.alpha, args.beta, args.t, args.radius, args.samples, args.seed),
    "lemmas": _lemmas,
    "eigen": lambda args: suites.eigen_suite(),
    "admissible": lambda args: suites.admissible_suite(args.alpha, args.beta),
}


def _cmd_suite(args) -> int:
    report = _SUITES[args.command](args)
    _emit(args.out, render_report(report))
    return EXIT_PASS if report["results"]["pass"] else EXIT_FAIL


_HANDLERS = {"construct": _cmd_construct, "check": _cmd_check,
             "scan": _cmd_scan, **dict.fromkeys(_SUITES, _cmd_suite)}


def main(argv=None) -> int:
    """Run one command.  In every command, an invalid input raises
    ValueError, a usage error (exit 2), and a file that cannot be read or
    written is an I/O error (exit 3)."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
