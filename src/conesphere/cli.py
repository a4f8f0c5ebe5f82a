"""Command-line front end.

Commands: construct, check, rigidity, scan, lemmas, eigen, admissible.
All numeric arguments are radians.  Exit codes: 0 pass, 1 assertion or
validity failure, 2 usage error, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import suites
from .metric import (
    ConeAngleSpec,
    GluedFootballParams,
    MetricDocumentError,
    MetricRangeError,
    cone_angles,
    deserialize,
    glued_football,
    serialize,
    validate,
)
from .reports import (
    SCAN_CSV_HEADER,
    RunConfig,
    build_report,
    render_csv,
    render_report,
    scan_rows_to_csv,
    write_csv,
    write_report,
)
from .solver import residual
from .sphtrig import PI

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesphere",
        description="Spherical conical metrics from glued footballs: "
                    "construction, validation and rigidity suites.")
    parser.add_argument("--config", help="JSON file with RunConfig overrides")
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
    p.add_argument("--radius", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--alpha", type=float, default=1.0, help="step1 first angle")
    p.add_argument("--beta", type=float, default=2.0, help="step1 second angle")
    p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("eigen", help="radial eigenfunction residual check")
    p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("admissible", help="angle-data admissibility checks")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", help="report path (default: stdout)")

    return parser


def _write_report(args, report: dict) -> None:
    if args.out:
        write_report(args.out, report)
    else:
        sys.stdout.write(render_report(report))


def _cmd_construct(args, config: RunConfig) -> int:
    try:
        spec = ConeAngleSpec(args.alpha, args.beta)
        metric = glued_football(GluedFootballParams(spec, args.t))
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    doc = serialize(metric, spec)
    res = residual(metric, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"residual_norm = {res.norm:.17g}")
    else:
        sys.stdout.write(doc)
        print(f"residual_norm = {res.norm:.17g}", file=sys.stderr)
    return EXIT_PASS


def _cmd_check(args, config: RunConfig) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        metric, spec = deserialize(text)
    except MetricDocumentError as err:
        print(f"parse error at {err.location or '<document>'}: {err}",
              file=sys.stderr)
        return EXIT_IO
    except MetricRangeError as err:
        print(f"range error at {err.location or '<document>'}: {err}",
              file=sys.stderr)
        return EXIT_FAIL
    report = validate(metric)
    results = {
        "path": args.path,
        "lengths": dict(zip(("l1", "l2", "l3", "l4", "l5", "l6"),
                            metric.lengths())),
        "spec": {"alpha": spec.alpha, "beta": spec.beta},
        "valid": report.is_valid,
        "violations": list(report.issues),
    }
    if report.is_valid:
        theta = cone_angles(metric)
        res = residual(metric, spec)
        results["cone_angles"] = {
            "theta_A": theta.theta_A, "theta_B": theta.theta_B,
            "theta_D": theta.theta_D, "theta_C": theta.theta_C,
        }
        results["residual"] = list(res.r)
        results["residual_norm"] = res.norm
    _write_report(args, build_report("check", config, results))
    return EXIT_PASS if report.is_valid else EXIT_FAIL


def _rigidity(args, config: RunConfig):
    overrides = {key: value for key in ("radius", "samples", "seed")
                 if (value := getattr(args, key)) is not None}
    return suites.rigidity_suite(config.merged(overrides),
                                 args.alpha, args.beta, args.t)


def _scan(args, config: RunConfig):
    l3_grid = np.linspace(args.l3_min, args.l3_max, args.grid)
    l4_grid = np.linspace(args.l4_min, args.l4_max, args.grid)
    report, rows, ok = suites.scan_suite(
        config, args.alpha, args.beta, args.eps, args.branch, l3_grid, l4_grid)
    return (report, rows), ok


def _lemmas(args, config: RunConfig):
    if args.suite == "lemma1":
        betas = ((args.beta_angle,) if args.beta_angle is not None
                 else (0.5, 1.0, 2.0, 3.0))
        return suites.lemma1_suite(config, betas)
    if args.suite == "lemma2":
        beta = args.beta_angle if args.beta_angle is not None else PI / 2.0
        return suites.lemma2_suite(config, beta)
    if args.suite == "lemma3":
        if args.ell is None or args.beta_angle is None:
            raise ValueError("lemma3 needs --ell and --beta-angle")
        return suites.lemma3_suite(config, args.ell, args.beta_angle)
    return suites.step1_suite(config, args.alpha, args.beta)


def _write_scan(args, output) -> None:
    report, rows = output
    csv_rows = scan_rows_to_csv(rows)
    if args.out:
        write_csv(args.out, SCAN_CSV_HEADER, csv_rows)
    else:
        sys.stdout.write(render_csv(SCAN_CSV_HEADER, csv_rows))
    if args.report:
        write_report(args.report, report)


def _suite_command(run, write=_write_report):
    """The verdict rule of every suite command.

    A suite's ValueError is a usage error (exit 2); otherwise its output is
    written and the exit code is 0 on pass, 1 on fail.
    """
    def handler(args, config: RunConfig) -> int:
        try:
            output, ok = run(args, config)
        except ValueError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return EXIT_USAGE
        write(args, output)
        return EXIT_PASS if ok else EXIT_FAIL
    return handler


_HANDLERS = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "rigidity": _suite_command(_rigidity),
    "scan": _suite_command(_scan, _write_scan),
    "lemmas": _suite_command(_lemmas),
    "eigen": _suite_command(lambda args, config: suites.eigen_suite(config)),
    "admissible": _suite_command(
        lambda args, config: suites.admissible_suite(config, args.alpha, args.beta)),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            config = RunConfig.from_file(args.config)
        except OSError as err:
            print(f"io error: {err}", file=sys.stderr)
            return EXIT_IO
        except (ValueError, KeyError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_USAGE
    else:
        config = RunConfig()
    return _HANDLERS[args.command](args, config)


if __name__ == "__main__":
    sys.exit(main())
