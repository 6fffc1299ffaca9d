import json

import numpy as np
import pytest

from radreg.cli import main
from radreg.data import LabeledDataset, load_dataset_csv, save_dataset_csv
from radreg.noise import MassartSpec, corrupt_massart, gated_flip
from radreg.relu import GD_MODES

from oracles import cut_along, ellipsoid_only


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthCorrupt:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code, stdout, _ = run_cli(capsys, "synth", "--d", "3", "--n", "25",
                                  "--seed", "7", "--out", str(out))
        assert code == 0
        meta = json.loads(stdout)
        assert meta["rows"] == 25 and meta["d"] == 3
        ds = load_dataset_csv(out)
        assert ds.m == 25

    def test_synth_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "synth", "--d", "2", "--n", "10", "--seed", "3", "--out", str(a))
        run_cli(capsys, "synth", "--d", "2", "--n", "10", "--seed", "3", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_corrupt_gated(self, tmp_path, capsys):
        data = tmp_path / "clean.csv"
        run_cli(capsys, "synth", "--d", "4", "--n", "200", "--seed", "1",
                "--out", str(data))
        out = tmp_path / "noisy.csv"
        code, stdout, _ = run_cli(capsys, "corrupt", "--in", str(data),
                                  "--eta", "0.3", "--strategy", "gated-flip:2",
                                  "--seed", "5", "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert 0 < summary["corrupted"] < summary["corruptible"]
        clean = load_dataset_csv(data)
        noisy, record = corrupt_massart(clean, MassartSpec(0.3, gated_flip(2.0), seed=5))
        assert np.array_equal(load_dataset_csv(out).y, noisy.y)
        assert int(record.mask.sum()) == summary["corrupted"]
        assert np.all(np.any(clean.x[record.mask] > 2.0, axis=1))

    def test_record_out_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["corrupt", "--in", "x.csv", "--eta", "0.3", "--out", "y.csv",
                  "--record-out", "r.json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --record-out" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, expected", [
        ("flip-negate", {"kind": "flip-negate"}),
        ("scale:2", {"kind": "scale", "factor": 2.0}),
        ("constant:-1.5", {"kind": "constant", "value": -1.5}),
        ('{"kind": "scale", "factor": 3}', {"kind": "scale", "factor": 3.0}),
        ("gated-flip:2", {"kind": "gated",
                          "predicate": {"kind": "any-coord-above", "threshold": 2.0},
                          "inner": {"kind": "flip-negate"}}),
    ])
    def test_corrupt_strategy_spellings(self, strategy, expected, tmp_path, capsys):
        data = tmp_path / "clean.csv"
        run_cli(capsys, "synth", "--d", "2", "--n", "20", "--out", str(data))
        code, stdout, _ = run_cli(capsys, "corrupt", "--in", str(data), "--eta", "0.2",
                                  "--strategy", strategy, "--out", str(tmp_path / "out.csv"))
        assert code == 0
        assert json.loads(stdout)["spec"]["strategy"] == expected


class TestFitCommands:
    def make_linear_csv(self, tmp_path, capsys, w_star="2,-3"):
        data = tmp_path / "lin.csv"
        run_cli(capsys, "synth", "--d", "2", "--n", "40", "--seed", "2",
                "--w-star", w_star, "--out", str(data))
        return data

    def test_fit_linear_recovers(self, tmp_path, capsys):
        data = self.make_linear_csv(tmp_path, capsys)
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "fit-linear", "--in", str(data),
                             "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["w_snapped"]["values"] == [2.0, -3.0]
        assert report["majority_certified"] is True

    def make_relu_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((150, 2)) + 1.0
        w_star = np.array([2.0, 1.0])
        y = np.maximum(X @ w_star, 0.0)
        data = tmp_path / "relu.csv"
        save_dataset_csv(LabeledDataset(X, y), data)
        return data

    def test_fit_relu(self, tmp_path, capsys, monkeypatch):
        # the candidate certifies this set, so the ellipsoid runs without it
        ellipsoid_only(monkeypatch)
        data = self.make_relu_csv(tmp_path)
        code, stdout, _ = run_cli(capsys, "fit-relu", "--in", str(data),
                                  "--radius", "5", "--max-denominator", "8")
        assert code == 0
        report = json.loads(stdout)
        assert report["w_snapped"]["values"] == [2.0, 1.0]
        diagnostics = report["diagnostics"]
        assert diagnostics["certified_by"] == "ellipsoid"
        assert diagnostics["oracle_calls"] == diagnostics["steps"] > 0

    def test_fit_relu_certifies_the_candidate_before_any_step(self, tmp_path, capsys):
        data = self.make_relu_csv(tmp_path)
        code, stdout, _ = run_cli(capsys, "fit-relu", "--in", str(data),
                                  "--radius", "5", "--max-denominator", "8")
        assert code == 0
        report = strict_json(stdout)
        assert report["w_snapped"]["values"] == [2.0, 1.0]
        diagnostics = report["diagnostics"]
        assert diagnostics["certified_by"] == "candidate"
        assert type(diagnostics["irls_rounds"]) is int and diagnostics["irls_rounds"] == 0
        assert diagnostics["steps"] == diagnostics["oracle_calls"] == 0
        assert diagnostics["isotropy_iterations"] == 0
        assert diagnostics["volume_logs"] == [pytest.approx(2 * np.log(5.0))]

    def test_fit_relu_failure_carries_its_diagnostics(self, tmp_path, capsys, monkeypatch):
        # without the candidate, which certifies this set, and with every cut
        # along e1, the shape grows along e2 until the 349-step budget of d = 2 runs out
        ellipsoid_only(monkeypatch)
        cut_along(monkeypatch, [1.0, 0.0])
        data = self.make_relu_csv(tmp_path)
        code, stdout, stderr = run_cli(capsys, "fit-relu", "--in", str(data),
                                       "--radius", "5", "--max-denominator", "8")
        assert code == 2 and stdout == ""
        error = strict_json(stderr)
        assert error["error"] == "NoRecovery" and "within 349 steps" in error["message"]
        assert error["diagnostics"]["steps"] == 349
        assert len(error["diagnostics"]["center"]) == 2
        assert error["diagnostics"]["radius"] > 5.0

    @pytest.mark.parametrize("radius, steps, message", [("8", 2, "mean signed image"),
                                                        ("7", 30, "fell below")])
    def test_fit_relu_stops_report_where_the_search_stood(self, radius, steps, message,
                                                          tmp_path, capsys):
        # one covariate, labels 1, 2, 3: from radius 8 the center bisects to
        # exactly 2, where the residual signs cancel and the oracle has no cut
        data = tmp_path / "three.csv"
        save_dataset_csv(LabeledDataset(np.ones((3, 1)), [1.0, 2.0, 3.0]), data)
        code, stdout, stderr = run_cli(capsys, "fit-relu", "--in", str(data), "--radius", radius)
        assert code == 2 and stdout == ""
        error = strict_json(stderr)
        assert error["error"] == "NoRecovery" and message in error["message"]
        assert error["diagnostics"]["steps"] == steps
        assert len(error["diagnostics"]["center"]) == 1

    def test_fit_relu_empty_halfspace_reports_where_the_search_stood(self, tmp_path, capsys):
        # labels -1, -2, -3 fit no ReLU: the first cut moves the center to -4,
        # where no point lies on the positive side
        data = tmp_path / "negative.csv"
        save_dataset_csv(LabeledDataset(np.ones((3, 1)), [-1.0, -2.0, -3.0]), data)
        code, stdout, stderr = run_cli(capsys, "fit-relu", "--in", str(data), "--radius", "8")
        assert code == 2 and stdout == ""
        error = strict_json(stderr)
        assert error["error"] == "HalfspaceEmpty"
        assert error["diagnostics"] == {"center": [-4.0], "radius": 4.0, "steps": 1}

    def test_gd_relu_trajectory(self, tmp_path, capsys):
        data = tmp_path / "gd.csv"
        run_cli(capsys, "synth", "--d", "3", "--n", "60", "--seed", "4",
                "--model", "relu", "--out", str(data))
        traj = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(capsys, "gd-relu", "--in", str(data),
                                  "--mode", "radial-isotropic", "--iters", "10",
                                  "--w-star", "1,10,1", "--out", str(traj))
        assert code == 0
        lines = traj.read_text().strip().splitlines()
        assert lines[0] == "iter,loss,distance"
        assert len(lines) == 11
        summary = json.loads(stdout)
        assert summary["iters"] == 10


    def test_gd_relu_summary_is_strict_json_without_w_star(self, tmp_path, capsys):
        # with no target the distance is unknown: null, not the NaN literal
        # that RFC 8259 parsers reject
        data = tmp_path / "gd.csv"
        run_cli(capsys, "synth", "--d", "3", "--n", "60", "--seed", "4",
                "--model", "relu", "--out", str(data))
        code, stdout, _ = run_cli(capsys, "gd-relu", "--in", str(data), "--iters", "3")
        assert code == 0
        summary = strict_json(stdout)
        assert summary["final_distance"] is None
        assert summary["iters"] == 3

    @pytest.mark.parametrize("mode", GD_MODES)
    def test_gd_relu_takes_every_mode(self, mode, tmp_path, capsys):
        data = tmp_path / "gd.csv"
        run_cli(capsys, "synth", "--d", "3", "--n", "60", "--seed", "4",
                "--model", "relu", "--out", str(data))
        code, stdout, _ = run_cli(capsys, "gd-relu", "--in", str(data), "--mode", mode,
                                  "--iters", "2")
        assert code == 0
        assert strict_json(stdout)["iters"] == 2

    def test_gd_relu_target_of_another_dimension(self, tmp_path, capsys):
        data = tmp_path / "gd.csv"
        run_cli(capsys, "synth", "--d", "3", "--n", "60", "--seed", "4",
                "--model", "relu", "--out", str(data))
        code, _, stderr = run_cli(capsys, "gd-relu", "--in", str(data), "--w-star", "1,1")
        assert code == 2
        assert strict_json(stderr)["error"] == "DimensionMismatch"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
    def test_gd_relu_bad_alpha_is_a_contract_violation(self, alpha, tmp_path, capsys):
        data = self.make_relu_csv(tmp_path)
        code, stdout, stderr = run_cli(capsys, "gd-relu", "--in", str(data), f"--alpha={alpha}")
        assert code == 2 and stdout == ""
        error = strict_json(stderr)
        assert error["error"] == "ContractViolation" and "alpha" in error["message"]

    @pytest.mark.parametrize("flag, value", [("--radius", "nan"), ("--radius", "inf")])
    def test_bad_search_bound_is_a_contract_violation(self, flag, value, tmp_path, capsys):
        # NaN used to surface as LinAlgError or ValueError
        data = self.make_relu_csv(tmp_path)
        code, _, stderr = run_cli(capsys, "fit-relu", "--in", str(data), flag, value)
        assert code == 2
        error = strict_json(stderr)
        assert error["error"] == "ContractViolation"
        assert flag[2:].replace("-", "_") in error["message"]

    @pytest.mark.parametrize("command", [["fit-linear", "--in", "x.csv"],
                                         ["fit-relu", "--in", "x.csv"],
                                         ["gd-relu", "--in", "x.csv"],
                                         ["bench", "recovery-rate"]])
    def test_gamma_is_not_an_option(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main(command + ["--gamma", "0.5"])
        assert info.value.code == 2
        assert "--gamma" in capsys.readouterr().err

    def test_max_steps_is_not_an_option(self, capsys):
        # the step budget is always the one the radius floor derives
        with pytest.raises(SystemExit) as info:
            main(["fit-relu", "--in", "x.csv", "--max-steps", "1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --max-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit-linear", "fit-relu"])
    def test_zero_max_denominator_is_a_contract_violation(self, command, tmp_path, capsys):
        data = self.make_linear_csv(tmp_path, capsys)
        code, _, stderr = run_cli(capsys, command, "--in", str(data), "--max-denominator", "0")
        assert code == 2
        error = strict_json(stderr)
        assert error["error"] == "ContractViolation"
        assert "max_denominator" in error["message"]


class TestBenchEval:
    @pytest.mark.parametrize("flag, value", [("--max-denominator", "0"), ("--w-star", "1,1")])
    def test_bench_target_is_not_an_option(self, flag, value, capsys):
        # the sweep always targets default_target(d) at denominator 10**6
        with pytest.raises(SystemExit) as info:
            main(["bench", "recovery-rate", "--d", "2", "--n", "10", "--trials", "1", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bench_recovery_rate(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code, _, _ = run_cli(capsys, "bench", "recovery-rate", "--d", "2",
                             "--n", "30", "--eta-grid", "0,0.2", "--trials", "3",
                             "--seed", "6", "--methods", "naive-l1",
                             "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 2
        assert report["rows"][0]["recovery_rate"] == 1.0  # eta = 0

    def test_eval_margin(self, tmp_path, capsys):
        data = tmp_path / "test.csv"
        run_cli(capsys, "synth", "--d", "2", "--n", "20", "--seed", "8",
                "--w-star", "1,2", "--out", str(data))
        code, stdout, _ = run_cli(capsys, "eval", "margin", "--in", str(data),
                                  "--w", "1,2", "--margin", "0")
        assert code == 0
        assert json.loads(stdout)["fraction"] == 1.0

    @pytest.mark.parametrize("margin", ["nan", "-1"])
    def test_eval_margin_bad_margin_is_a_contract_violation(self, margin, tmp_path, capsys):
        data = tmp_path / "test.csv"
        run_cli(capsys, "synth", "--d", "2", "--n", "20", "--out", str(data))
        code, _, stderr = run_cli(capsys, "eval", "margin", "--in", str(data),
                                  "--w", "1,2", f"--margin={margin}")
        assert code == 2
        error = strict_json(stderr)
        assert error["error"] == "ContractViolation" and "margin" in error["message"]

    def test_eval_margin_parameter_of_another_dimension(self, tmp_path, capsys):
        data = tmp_path / "test.csv"
        run_cli(capsys, "synth", "--d", "3", "--n", "20", "--out", str(data))
        code, _, stderr = run_cli(capsys, "eval", "margin", "--in", str(data), "--w", "1,1")
        assert code == 2
        assert strict_json(stderr)["error"] == "DimensionMismatch"


class TestErrorContract:
    def test_missing_file_gives_json_error(self, capsys):
        code, stdout, stderr = run_cli(capsys, "fit-linear", "--in",
                                       "/nonexistent/nope.csv")
        assert code != 0
        err = json.loads(stderr)
        assert "error" in err and "message" in err

    def test_malformed_csv_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,2.0\n1.0,zap\n")
        code, _, stderr = run_cli(capsys, "fit-linear", "--in", str(bad))
        error = json.loads(stderr)
        assert code == 2 and error["error"] == "MalformedCsv"
        assert error["diagnostics"] == {"row": 3, "column": 2}

    def test_non_spanning_covariates_name_the_level(self, tmp_path, capsys):
        data = tmp_path / "line.csv"
        data.write_text("x1,x2,y\n1,1,2\n2,2,4\n3,3,6\n")
        code, _, stderr = run_cli(capsys, "fit-linear", "--in", str(data))
        error = json.loads(stderr)
        assert code == 2 and error["error"] == "NonIdentifiable"
        assert error["diagnostics"] == {"level": 0}

    @pytest.mark.parametrize("strategy, named", [
        ('{"kind": "scale"}', "'factor'"),
        ("scale:abc", "'factor'"),
        ("gated-flip:", "'threshold'"),
        ("{bad", "not valid JSON"),
        ("scale:nan", "'factor'"),
        ('{"kind": "constant", "value": Infinity}', "'value'"),
        ("gated-flip:-inf", "'threshold'"),
        ("bogus", "unrecognized strategy 'bogus'"),
    ])
    def test_malformed_strategy_is_a_contract_violation(self, strategy, named, tmp_path,
                                                        capsys):
        # these used to exit with a bare KeyError, ValueError or JSONDecodeError,
        # a NaN or infinite number in the summary, or a RadregError
        data = tmp_path / "clean.csv"
        run_cli(capsys, "synth", "--d", "2", "--n", "20", "--out", str(data))
        code, _, stderr = run_cli(capsys, "corrupt", "--in", str(data), "--eta", "0.2",
                                  "--strategy", strategy, "--out", str(tmp_path / "out.csv"))
        err = json.loads(stderr)
        assert code == 2 and err["error"] == "ContractViolation"
        assert named in err["message"]

    @pytest.mark.parametrize("command", [
        ["synth", "--d", "2", "--n", "20", "--seed", "-1", "--out", "out.csv"],
        ["corrupt", "--in", "clean.csv", "--eta", "0.2", "--seed", "-5", "--out", "out.csv"],
        ["bench", "recovery-rate", "--trials", "1", "--seed", "-2"],
    ])
    def test_negative_seed_is_a_contract_violation(self, command, tmp_path, capsys,
                                                   monkeypatch):
        # these used to exit with numpy's untyped ValueError
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "synth", "--d", "2", "--n", "20", "--out", "clean.csv")
        code, stdout, stderr = run_cli(capsys, *command)
        assert code == 2 and stdout == ""
        error = strict_json(stderr)
        assert error["error"] == "ContractViolation" and "seed" in error["message"]
