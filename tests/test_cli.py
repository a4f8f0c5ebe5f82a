import json
import math
import re

import pytest

from conesphere.cli import main
from conesphere.metric import (
    LENGTH_FIELDS,
    MetricDocumentError,
    MetricRangeError,
    deserialize,
    validate,
)
from conesphere.sphtrig import PI

ALPHA = "1.5707963"
BETA = "1.5707963"
T = "1.0471976"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructCheck:
    def test_construct_writes_document(self, tmp_path, capsys):
        out = tmp_path / "metric.json"
        code, stdout, _ = run(capsys, "construct", "--alpha", ALPHA,
                              "--beta", BETA, "--t", T, "--out", str(out))
        assert code == 0
        assert "residual_norm" in stdout
        metric, spec = deserialize(out.read_text())
        assert metric.l1 == pytest.approx(PI - float(T), abs=1e-6)

    def test_construct_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "--alpha", ALPHA,
                           "--beta", BETA, "--t", "0")
        assert code == 2
        assert "usage error" in err

    def test_construct_tiny_alpha_degenerates(self, capsys):
        # alpha = 1e-16 is a valid spec; its football's T1 is flat.
        code, _, err = run(capsys, "construct", "--alpha", "1e-16",
                           "--beta", "1.0", "--t", "1.0")
        assert code == 2
        assert "glued football at t = 1.0 degenerates" in err

    def test_round_trip_check_passes(self, tmp_path, capsys):
        out = tmp_path / "metric.json"
        run(capsys, "construct", "--alpha", ALPHA, "--beta", BETA,
            "--t", T, "--out", str(out))
        code, stdout, _ = run(capsys, "check", str(out))
        assert code == 0
        report = json.loads(stdout)
        angles = report["results"]["cone_angles"]
        assert angles["theta_C"] == pytest.approx(4 * PI, abs=1e-9)
        assert report["results"]["valid"] is True

    def test_check_corrupted_length_fails(self, tmp_path, capsys):
        out = tmp_path / "metric.json"
        run(capsys, "construct", "--alpha", ALPHA, "--beta", BETA,
            "--t", T, "--out", str(out))
        doc = json.loads(out.read_text())
        doc["lengths"]["l5"] = 3.1
        out.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "check", str(out))
        assert code == 1
        results = json.loads(stdout)["results"]
        assert results["valid"] is False
        # The report lists what validate names, every violation by its
        # triangle, and nothing else.
        lengths = tuple(doc["lengths"][f] for f in LENGTH_FIELDS)
        assert results["violations"] == validate(lengths)
        assert len(results["violations"]) >= 2
        assert all(re.match(r"^T[1-4]: (triangle inequality|perimeter)", v)
                   for v in results["violations"])

    def test_check_thin_valid_metric(self, tmp_path, capsys):
        # T2 is 1.1e-10 inside its perimeter bound, with sides near 0 and
        # pi.  It is valid, so check reports it valid with its cone angles;
        # an inverse cosine law used to fail on it with an uncaught error.
        lengths = (PI / 2, PI / 2, 3.141592587551585, 3.395821253575468e-07,
                   3.141592379933989, 3.1415923140076676)
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({
            "spec": {"alpha": 1.0, "beta": 2.0},
            "lengths": dict(zip(("l1", "l2", "l3", "l4", "l5", "l6"), lengths))}))
        code, stdout, _ = run(capsys, "check", str(path))
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["valid"] is True
        angles = list(results["cone_angles"].values())
        assert len(angles) == 4 and all(math.isfinite(v) for v in angles)

    def test_check_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/metric.json")
        assert code == 3

    def test_check_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 3
        assert "parse error" in err

    def test_check_out_of_range_length(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({
            "spec": {"alpha": 1.0, "beta": 1.0},
            "lengths": {"l1": 1.0, "l2": 1.0, "l3": -1.0, "l4": 1.0,
                        "l5": 1.0, "l6": 1.0}}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "range error" in err

    def test_check_non_utf8_is_parse_error(self, tmp_path, capsys):
        # UnicodeDecodeError is a ValueError, but an unreadable document is
        # a parse error (exit 3), not a usage error.
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00\x01")
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("parse error at <document>: not UTF-8 text: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("zeros", [400, 5000])
    def test_check_integer_beyond_double_is_range_error(self, tmp_path,
                                                        capsys, zeros):
        # 10**400 has no float; it reads as infinite, like the literal 1e400.
        # 10**5000 is also past the int() digit limit of Python >= 3.11.
        doc = json.dumps({"spec": {"alpha": 1.0, "beta": 2.0},
                          "lengths": dict.fromkeys(LENGTH_FIELDS, 1.0)})
        path = tmp_path / "huge.json"
        path.write_text(doc.replace('"l1": 1.0', '"l1": 1' + "0" * zeros))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert out == ""
        assert err == ("range error at lengths.l1: "
                       "lengths.l1 = inf outside (0, pi)\n")


SPEC_DOC = {"alpha": 1.0, "beta": 2.0}
LENGTHS_DOC = dict.fromkeys(LENGTH_FIELDS, 1.0)


class TestDocumentErrors:
    @pytest.mark.parametrize("doc, error, location", [
        ([SPEC_DOC, LENGTHS_DOC], MetricDocumentError, ""),
        ({"spec": SPEC_DOC}, MetricDocumentError, "lengths"),
        ({"spec": {"alpha": 1.0}, "lengths": LENGTHS_DOC},
         MetricDocumentError, "spec.beta"),
        ({"spec": {"alpha": "1.0", "beta": 2.0}, "lengths": LENGTHS_DOC},
         MetricDocumentError, "spec.alpha"),
        ({"spec": SPEC_DOC, "lengths": {**LENGTHS_DOC, "l4": True}},
         MetricDocumentError, "lengths.l4"),
        ({"spec": {"alpha": 1.0, "beta": 3.5}, "lengths": LENGTHS_DOC},
         MetricRangeError, "spec"),
    ], ids=["root", "section", "spec-field", "spec-number", "length-number",
            "spec-range"])
    def test_error_class_location_and_exit(self, tmp_path, capsys, doc,
                                           error, location):
        text = json.dumps(doc)
        with pytest.raises(ValueError) as exc:
            deserialize(text)
        assert type(exc.value) is error
        assert exc.value.location == location
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        kind, expected = (("range", 1) if error is MetricRangeError
                          else ("parse", 3))
        assert code == expected
        assert out == ""
        assert err.startswith(f"{kind} error at {location or '<document>'}: ")
        assert err.count("\n") == 1


class TestRigidity:
    def test_small_scan_passes(self, tmp_path, capsys):
        out = tmp_path / "rigidity.json"
        code, _, _ = run(capsys, "rigidity", "--alpha", ALPHA, "--beta", BETA,
                         "--t", T, "--samples", "20", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["rigidity_holds"] is True
        assert report["results"]["converged"] == 20

    def test_oversized_radius_usage_error(self, capsys):
        code, _, err = run(capsys, "rigidity", "--alpha", ALPHA,
                           "--beta", BETA, "--t", "0.1", "--radius", "0.3",
                           "--samples", "5")
        assert code == 2
        assert "max feasible radius" in err

    @pytest.mark.parametrize("option, value", [
        ("--radius", "0"), ("--radius", "-0.01"), ("--samples", "0"),
        ("--seed", "-1")])
    def test_empty_probe_usage_error(self, capsys, option, value):
        # A probe with no ball or no starts has nothing to give a verdict on,
        # and a negative seed draws no starts: each names its option.
        code, _, err = run(capsys, "rigidity", "--alpha", ALPHA,
                           "--beta", BETA, "--t", T, option, value)
        assert code == 2
        assert f"usage error: {option[2:]} must be" in err

    def test_angle_near_pi_passes(self, tmp_path, capsys):
        # The footballs at the ends of the slit window degenerate here; the
        # family search must step over them, not end the command.
        out = tmp_path / "rigidity.json"
        code, _, err = run(capsys, "rigidity", "--alpha", "3.1405",
                           "--beta", "1.0", "--t", "1.2", "--radius", "1e-8",
                           "--samples", "3", "--out", str(out))
        assert code == 0, err
        results = json.loads(out.read_text())["results"]
        assert results["converged"] == 3
        assert results["max_family_distance"] < 1e-6

    def test_config_block_is_constants_plus_probe(self, tmp_path, capsys):
        # The rigidity report is the only one with a config block: the five
        # solver constants and the probe options as given on the command line.
        out = tmp_path / "rigidity.json"
        code, _, _ = run(capsys, "rigidity", "--alpha", ALPHA, "--beta", BETA,
                         "--t", T, "--samples", "9", "--seed", "11",
                         "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"] == {
            "res_tol": 1e-11, "rank_tol": 1e-6, "dist_tol": 1e-6,
            "max_iter": 50, "damping0": 1e-3,
            "radius": 0.05, "samples": 9, "seed": 11}
        assert report["results"]["starts"] == 9
        assert report["results"]["seed"] == 11

    def test_reports_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["rigidity", "--alpha", ALPHA, "--beta", BETA, "--t", T,
                "--samples", "12", "--seed", "3"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestScan:
    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--alpha", ALPHA, "--beta", BETA,
                         "--l3-min", "1.0", "--l3-max", "1.1",
                         "--l4-min", "1.0", "--l4-max", "1.1",
                         "--grid", "2", "--branch", "obtuse",
                         "--out", str(out))
        # At eps = 0 no node is checked, so there is no verdict to pass.
        assert code == 1
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "l1,l2,l3,l4,l5,l6,rA,rB,rD,rC,feasible"
        assert len(lines) == 5

    def test_csv_round_trips_at_full_precision(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        run(capsys, "scan", "--alpha", ALPHA, "--beta", BETA,
            "--l3-min", "1.0", "--l3-max", "1.2", "--l4-min", "1.0",
            "--l4-max", "1.2", "--grid", "2", "--branch", "obtuse",
            "--out", str(out))
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        # Feed the lengths back through the residual machinery.
        from conesphere.metric import ConeAngleSpec
        from conesphere.solver import residual

        lengths = [float(row[k]) for k in ("l1", "l2", "l3", "l4", "l5", "l6")]
        res = residual(lengths,
                       ConeAngleSpec(float(ALPHA), float(BETA)).cone_vector())
        assert res[3] == pytest.approx(float(row["rC"]), abs=1e-15)

    def test_uneven_split_scan_reports_sign_mismatch(self, capsys):
        # The scan suite reports against the classical sign convention,
        # which the geometry mirrors, so it exits 1; see the README's
        # acceptance notes.
        code, out, _ = run(capsys, "scan", "--alpha", ALPHA, "--beta", BETA,
                           "--eps", "0.05", "--branch", "acute",
                           "--l3-min", "2.0", "--l3-max", "2.4",
                           "--l4-min", "2.0", "--l4-max", "2.4", "--grid", "3")
        assert code == 1

    def test_all_infeasible_window_fails(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        report = tmp_path / "scan.json"
        code, _, _ = run(capsys, "scan", "--alpha", "1.0", "--beta", "2.0",
                         "--eps", "0.05", "--l3-min", "0.3", "--l3-max", "0.4",
                         "--l4-min", "2.6", "--l4-max", "2.7", "--grid", "3",
                         "--out", str(out), "--report", str(report))
        assert code == 1
        results = json.loads(report.read_text())["results"]
        assert results["feasible_nodes"] == 0
        assert results["checked_nodes"] == 0
        assert results["pass"] is False
        assert len(out.read_text().strip().splitlines()) == 10

    def test_empty_grid_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--alpha", ALPHA, "--beta", BETA,
                             "--l3-min", "1.0", "--l3-max", "1.1",
                             "--l4-min", "1.0", "--l4-max", "1.1",
                             "--grid", "0")
        assert code == 2
        assert out == ""
        assert "usage error: scan grid needs at least 1 node" in err


    @pytest.mark.parametrize("option, value", [
        ("--l3-min", "inf"), ("--l3-max", "nan"), ("--l4-min", "-inf"),
        ("--l4-max", "inf")])
    def test_non_finite_window_usage_error(self, capsys, option, value):
        # A window bound that is not finite leaves no node to check: the
        # bound is named, not read as a failed verdict.
        bounds = {"--l3-min": "2.0", "--l3-max": "2.4",
                  "--l4-min": "2.0", "--l4-max": "2.4", option: value}
        code, out, err = run(capsys, "scan", "--alpha", "1.0", "--beta", "2.0",
                             "--eps", "0.05", "--grid", "3",
                             *(f"{k}={v}" for k, v in bounds.items()))
        assert code == 2
        assert out == ""
        assert f"usage error: {option} = {float(value)!r} is not finite" in err


class TestLemmasCommand:
    def test_lemma3_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", "1.0471976", "--beta-angle", "1.5707963")
        assert code == 0
        report = json.loads(stdout)
        kinds = {e["kind"] for e in report["results"]["extrema"]}
        assert kinds == {"minimum", "maximum"}

    def test_lemma3_without_extrema_exits_zero(self, capsys):
        # cos(l) < cos(beta): no isosceles shape, and the angle sum rises
        # along both root intervals.
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", "2.5", "--beta-angle", "0.5")
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["extrema"] == []
        assert [b["trend"] for b in results["branches"]] == [
            "increasing", "increasing"]

    def test_lemma3_narrow_root_intervals_exit_zero(self, capsys):
        # beta = 0.01: every root interval is narrower than one degree.
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", "1.0", "--beta-angle", "0.01")
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["extrema"] == [] and results["pass"] is True
        assert len(results["branches"]) == 6

    @pytest.mark.parametrize("ell, beta", [("2.6", "3.141586"),
                                           ("0.001", "3.14159")])
    def test_lemma3_beta_near_pi_exits_zero(self, capsys, ell, beta):
        # The extrema sit within 1.3e-5 of 0 and pi; at (2.6, 3.141586) the
        # acute one is 4.7e-7 from the end of its triangle interval.
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", ell, "--beta-angle", beta)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert [e["kind"] for e in results["extrema"]] == ["maximum", "minimum"]

    def test_lemma1_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma1",
                              "--beta-angle", "1.0")
        assert code == 0
        report = json.loads(stdout)
        assert report["results"]["per_beta"][0]["feasible_caseb_nodes"] == 0

    def test_lemma2_exits_one_with_sign_report(self, capsys):
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma2")
        assert code == 1
        report = json.loads(stdout)
        sweep = report["results"]["sweeps"][0]
        row = sweep["rows"][0]
        assert row["computed_sign"] == -row["expected_sign"]

    def test_step1_apex_outside_range_usage_error(self, capsys):
        # alpha = 3.15 > pi: ConeAngleSpec rejects the angle.
        code, out, err = run(capsys, "lemmas", "--suite", "step1",
                             "--alpha", "3.15", "--beta", "1.0")
        assert code == 2
        assert out == ""
        assert err == ("usage error: alpha = 3.15 outside the supported "
                       "range (0, pi)\n")

    @pytest.mark.parametrize("suite", ["lemma1", "lemma2"])
    def test_beta_angle_outside_range_names_beta(self, capsys, suite):
        # lemma2 runs step1 at alpha = beta; its error names the option the
        # user gave, not the alpha it was copied into.
        code, out, err = run(capsys, "lemmas", "--suite", suite,
                             "--beta-angle", "3.2")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: beta = 3.2 outside")

    def test_lemma3_requires_inputs(self, capsys):
        code, _, err = run(capsys, "lemmas", "--suite", "lemma3")
        assert code == 2

    @pytest.mark.parametrize("ell, beta", [
        ("-1.0", "1.5"), ("7.0", "1.5"), ("1.0", "4.0"), ("1.0", "-1"),
        ("1.0", "0.0"),
        # Inside (0, pi), but sin(ell) < 1e-12: lemma3_sweep rejects those too.
        ("1e-13", "1.0"), ("3.1415926535897", "1.0")])
    def test_lemma3_outside_zero_pi_usage_error(self, capsys, ell, beta):
        code, out, err = run(capsys, "lemmas", "--suite", "lemma3",
                             "--ell", ell, "--beta-angle", beta)
        assert code == 2
        assert out == ""
        assert "usage error" in err


DEFECT_ROW_KEYS = {"ell", "feasible", "l1", "l2", "defect",
                   "expected_sign", "computed_sign", "classical_product_sign"}


class TestReportRows:
    """The exact keys of each kind of lemma report row."""

    @pytest.mark.parametrize("suite", ["lemma2", "step1"])
    def test_defect_rows(self, capsys, suite):
        code, stdout, _ = run(capsys, "lemmas", "--suite", suite)
        assert code == 1
        sweeps = json.loads(stdout)["results"]["sweeps"]
        rows = [row for sweep in sweeps for row in sweep["rows"]]
        assert len(rows) == 30
        assert all(set(row) == DEFECT_ROW_KEYS for row in rows)

    def test_lemma3_extremum_rows(self, capsys):
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", "1.0471976", "--beta-angle", "1.5707963")
        assert code == 0
        results = json.loads(stdout)["results"]
        assert set(results) == {"ell", "beta", "degenerate", "extrema", "pass"}
        assert len(results["extrema"]) == 2
        for row in results["extrema"]:
            assert set(row) == {"alpha_crit", "s_crit", "kind", "iso_gap"}

    def test_lemma3_degenerate_row(self, capsys):
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", "1.0471976", "--beta-angle", "1.0471976")
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["degenerate"] is True and results["pass"] is True
        assert results["extrema"] == [{"alpha_crit": PI / 2, "s_crit": PI,
                                       "kind": "degenerate", "iso_gap": 0.0}]

    def test_lemma3_branch_rows(self, capsys):
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", "2.5", "--beta-angle", "0.5")
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["degenerate"] is False
        assert len(results["branches"]) == 2
        for row in results["branches"]:
            assert set(row) == {"alpha_min", "alpha_max", "samples", "trend"}


class TestEigenAdmissible:
    def test_eigen_passes(self, capsys):
        code, stdout, _ = run(capsys, "eigen")
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["max_residual"] < results["residual_bound"]
        assert not [key for key in results if key.startswith("slit_")]

    @pytest.mark.parametrize("option", ["--n", "--delta", "--alpha", "--beta",
                                        "--t"])
    def test_eigen_takes_no_inputs(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", option, "501"])
        assert exc.value.code == 2

    def test_suite_reports_carry_no_config(self, capsys):
        for argv in (("eigen",), ("admissible", "--alpha", ALPHA, "--beta", BETA)):
            code, stdout, _ = run(capsys, *argv)
            assert code == 0
            assert "config" not in json.loads(stdout)

    def test_config_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "x.json", "eigen"])
        assert exc.value.code == 2

    def test_admissible_example(self, capsys):
        code, stdout, _ = run(capsys, "admissible", "--alpha", ALPHA,
                              "--beta", BETA)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["mp_distance"] == pytest.approx(1.0, abs=1e-12)
        assert "mp_distance_all_odd" not in results


class TestUnwritableOutput:
    SCAN = ("scan", "--alpha", ALPHA, "--beta", BETA, "--eps", "0.05",
            "--l3-min", "2.0", "--l3-max", "2.4", "--l4-min", "2.0",
            "--l4-max", "2.4", "--grid", "3")

    @pytest.mark.parametrize("argv", [
        ("eigen", "--out", "{missing}"),
        (*SCAN, "--out", "{missing}"),
        (*SCAN, "--out", "{ok}", "--report", "{missing}"),
        ("construct", "--alpha", ALPHA, "--beta", BETA, "--t", T,
         "--out", "{missing}"),
        ("check", "{doc}", "--out", "{missing}"),
    ], ids=["eigen", "scan-out", "scan-report", "construct", "check"])
    def test_io_error_exit_3(self, tmp_path, capsys, argv):
        # A path in a directory that does not exist cannot be opened.
        paths = {"missing": str(tmp_path / "missing" / "out"),
                 "ok": str(tmp_path / "scan.csv"),
                 "doc": str(tmp_path / "metric.json")}
        run(capsys, "construct", "--alpha", ALPHA, "--beta", BETA, "--t", T,
            "--out", paths["doc"])
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 3
        assert err.startswith("io error: ")
