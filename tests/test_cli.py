import json

import pytest

from conesphere.cli import main
from conesphere.metric import deserialize
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
        assert json.loads(stdout)["results"]["valid"] is False

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
        ("--radius", "0"), ("--radius", "-0.01"), ("--samples", "0")])
    def test_empty_probe_usage_error(self, capsys, option, value):
        # A probe with no ball or no starts has nothing to give a verdict on.
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
        assert code == 0
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
        from conesphere.metric import ConeAngleSpec, TriangulatedMetric
        from conesphere.solver import residual

        m = TriangulatedMetric(*(float(row[k]) for k in
                                 ("l1", "l2", "l3", "l4", "l5", "l6")))
        res = residual(m, ConeAngleSpec(float(ALPHA), float(BETA)))
        assert res.r[3] == pytest.approx(float(row["rC"]), abs=1e-15)

    def test_uneven_split_scan_reports_sign_mismatch(self, capsys):
        # The scan suite reports against the classical sign convention,
        # which the geometry mirrors, so it exits 1; see the README's
        # acceptance notes.
        code, out, _ = run(capsys, "scan", "--alpha", ALPHA, "--beta", BETA,
                           "--eps", "0.05", "--branch", "acute",
                           "--l3-min", "2.0", "--l3-max", "2.4",
                           "--l4-min", "2.0", "--l4-max", "2.4", "--grid", "3")
        assert code == 1

    def test_empty_grid_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--alpha", ALPHA, "--beta", BETA,
                             "--l3-min", "1.0", "--l3-max", "1.1",
                             "--l4-min", "1.0", "--l4-max", "1.1",
                             "--grid", "0")
        assert code == 2
        assert out == ""
        assert "usage error: scan grid needs at least 1 node" in err


class TestLemmasCommand:
    def test_lemma3_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "lemmas", "--suite", "lemma3",
                              "--ell", "1.0471976", "--beta-angle", "1.5707963")
        assert code == 0
        report = json.loads(stdout)
        kinds = {e["kind"] for e in report["results"]["extrema"]}
        assert kinds == {"minimum", "maximum"}

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

    def test_lemma3_requires_inputs(self, capsys):
        code, _, err = run(capsys, "lemmas", "--suite", "lemma3")
        assert code == 2


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

    def test_admissible_example(self, capsys):
        code, stdout, _ = run(capsys, "admissible", "--alpha", ALPHA,
                              "--beta", BETA)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["mp_distance"] == pytest.approx(1.0, abs=1e-12)
        assert results["chi"] == pytest.approx(
            (float(ALPHA) + float(BETA)) / PI, abs=1e-14)


class TestConfigFile:
    def test_config_overrides_and_echo(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"samples": 9, "seed": 11}))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "--config", str(cfg), "rigidity",
                         "--alpha", ALPHA, "--beta", BETA, "--t", T,
                         "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["samples"] == 9
        assert report["config"]["seed"] == 11
        assert report["results"]["starts"] == 9

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # "workers", "fd_step", the suite grids and the eigen grid were
        # fields once; old config files naming them must fail loudly rather
        # than be half-applied.
        for overrides in ({"nonsense": 1}, {"workers": 2}, {"fd_step": 1e-6},
                          {"lemma2_grid": 5}, {"eigen_residual_bound": 1e-4},
                          {"eigen_n": 501}, {"eigen_delta": 0.1}):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(overrides))
            code, _, err = run(capsys, "--config", str(cfg), "eigen")
            assert code == 2
            assert next(iter(overrides)) in err

    @pytest.mark.parametrize("overrides", [
        {"seed": 1.5}, {"res_tol": "x"}, {"samples": True}, {"dist_tol": None}],
        ids=["float-seed", "str-res_tol", "bool-samples", "null-dist_tol"])
    @pytest.mark.parametrize("command", [
        ("rigidity", "--alpha", ALPHA, "--beta", BETA, "--t", T,
         "--samples", "3"),
        ("lemmas", "--suite", "lemma1", "--beta-angle", "1.0")],
        ids=["rigidity", "lemma1"])
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, overrides,
                                            command):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(overrides))
        code, out, err = run(capsys, "--config", str(cfg), *command)
        assert code == 2
        assert out == ""
        assert f"config error: config field {next(iter(overrides))!r}" in err

    def test_int_fits_float_field(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dist_tol": 1}))
        code, stdout, _ = run(capsys, "--config", str(cfg), "eigen")
        assert code == 0
        assert json.loads(stdout)["config"]["dist_tol"] == 1
