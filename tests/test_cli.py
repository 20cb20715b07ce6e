import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fdrkit
from fdrkit import TrainingConfig, load_table, train
from fdrkit.cli import main

FAST_FIT = ["--epochs", "3", "--batch-size", "128", "--grid-size", "200",
            "--f1-sweeps", "2", "--hidden", "16,16"]


@pytest.fixture()
def runner():
    return CliRunner()


def _json_payload(output: str) -> dict:
    start = output.index("{")
    return json.loads(output[start:])


def simulate(runner, tmp_path, name="t.csv", seed="7", n="400", scenario="A"):
    path = tmp_path / name
    res = runner.invoke(main, ["simulate", "--scenario", scenario, "--seed",
                               seed, "--n", n, "--out", str(path)])
    assert res.exit_code == 0, res.output
    return path, _json_payload(res.output)


class TestSimulate:
    def test_writes_table_with_truth(self, runner, tmp_path):
        path, payload = simulate(runner, tmp_path)
        header = path.read_text().splitlines()[0].split(",")
        assert "h" in header and "z" in header
        assert payload["n"] == 400
        assert "config_hash" in payload

    def test_unknown_scenario_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--scenario", "Q", "--out",
                                   str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert "available" in res.output

    def test_byte_identical_reruns(self, runner, tmp_path):
        p1, _ = simulate(runner, tmp_path, name="a.csv")
        p2, _ = simulate(runner, tmp_path, name="b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestFit:
    def test_fit_writes_model(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        model_path = tmp_path / "m.json"
        res = runner.invoke(main, ["fit", "--in", str(table), "--variant", "b",
                                   "--seed", "7", "--out", str(model_path),
                                   *FAST_FIT])
        assert res.exit_code == 0, res.output
        payload = _json_payload(res.output)
        assert payload["variant"] == "neurt_b"
        saved = json.loads(model_path.read_text())
        assert saved["variant"] == "neurt_b"
        assert payload["stop_reason"] == saved["train_log"]["stop_reason"]

    def test_missing_input_nonzero_exit(self, runner, tmp_path):
        res = runner.invoke(main, ["fit", "--in", str(tmp_path / "nope.csv"),
                                   "--out", str(tmp_path / "m.json")])
        assert res.exit_code != 0

    def test_q_zero_warns_but_fits(self, runner, tmp_path):
        path = tmp_path / "noq.csv"
        rng = np.random.default_rng(0)
        lines = ["z,x0"] + [f"{float(z)!r},{float(x)!r}" for z, x in
                            zip(rng.standard_normal(60),
                                rng.standard_normal(60))]
        path.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["fit", "--in", str(path), "--variant", "a",
                                   "--seed", "1", "--out",
                                   str(tmp_path / "m.json"), *FAST_FIT])
        assert res.exit_code == 0, res.output
        assert "skipped" in res.output


    @pytest.mark.parametrize("hidden", ["8,x", "8,0", "-4", ""])
    def test_bad_hidden_usage_error(self, runner, tmp_path, hidden):
        table, _ = simulate(runner, tmp_path)
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(tmp_path / "m.json"), "--hidden",
                                   hidden])
        assert res.exit_code == 2, res.output
        assert "--hidden" in res.output and "positive integers" in res.output
        assert not (tmp_path / "m.json").exists()

    def test_invalid_training_flag_usage_error(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(tmp_path / "m.json"), "--lr", "-1"])
        assert res.exit_code == 2, res.output
        assert "lr, epochs and batch_size must be positive" in res.output
        assert not (tmp_path / "m.json").exists()

    def test_invalid_f1_flag_usage_error(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(tmp_path / "m.json"), "--f1-sweeps",
                                   "0"])
        assert res.exit_code == 2, res.output
        assert "sweeps must be >= 1" in res.output
        assert not (tmp_path / "m.json").exists()


def _one_line_error(args):
    """Run the CLI in its own process, check that it printed no traceback,
    and return its exit code and the lines of its stderr."""
    src = str(Path(fdrkit.__file__).parents[1])
    res = subprocess.run([sys.executable, "-m", "fdrkit.cli", *args],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert "Traceback" not in res.stderr
    return res.returncode, res.stderr.strip().splitlines()


class TestDiscover:
    def test_bh_on_null_z(self, runner, tmp_path):
        path = tmp_path / "null.csv"
        lines = ["z,x0"] + [f"0.0,{i}" for i in range(20)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["discover", "--in", str(path), "--method",
                                   "bh", "--alpha", "0.1", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert _json_payload(res.output)["discoveries"] == 0

    def test_table_that_is_not_utf8_is_a_one_line_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,z,x0\nr1,1.0,0.5\ncafé,2.0,1.5\n".encode("latin-1"))
        code, lines = _one_line_error([
            "discover", "--in", str(path), "--method", "bh", "--out",
            str(tmp_path / "d.csv")])
        assert code == 1
        assert lines == [
            f"Error: {path}: not UTF-8 text, byte 0xe9 at offset 22"]

    @pytest.mark.parametrize("spoil", [
        lambda d: "{not json",
        lambda d: json.dumps({k: v for k, v in d.items() if k != "variant"}),
        lambda d: json.dumps({**d, "f1": {**d["f1"], "weights": ["x"]}}),
    ], ids=["not_json", "missing_key", "non_numeric_weights"])
    def test_malformed_model_is_a_one_line_error(self, runner, tmp_path,
                                                  spoil):
        table, _ = simulate(runner, tmp_path)
        model_path = tmp_path / "m.json"
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(model_path), *FAST_FIT])
        assert res.exit_code == 0, res.output
        model_path.write_text(spoil(json.loads(model_path.read_text())))
        code, lines = _one_line_error([
            "discover", "--in", str(table), "--model", str(model_path),
            "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith(
            f"Error: {model_path}: not a valid model file (")
        assert not (tmp_path / "d.csv").exists()

    def test_alpha_out_of_range(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        res = runner.invoke(main, ["discover", "--in", str(table), "--method",
                                   "bh", "--alpha", "1.5", "--out",
                                   str(tmp_path / "d.csv")])
        assert res.exit_code == 2

    def test_neurt_requires_model(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        res = runner.invoke(main, ["discover", "--in", str(table), "--method",
                                   "neurt", "--out", str(tmp_path / "d.csv")])
        assert res.exit_code == 2

    def test_full_pipeline_report(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path, n="500")
        model_path = tmp_path / "m.json"
        res = runner.invoke(main, ["fit", "--in", str(table), "--variant", "b",
                                   "--seed", "7", "--out", str(model_path),
                                   *FAST_FIT])
        assert res.exit_code == 0, res.output
        out = tmp_path / "d.csv"
        report = tmp_path / "r.json"
        res = runner.invoke(main, ["discover", "--in", str(table), "--method",
                                   "neurt", "--model", str(model_path),
                                   "--alpha", "0.1", "--out", str(out),
                                   "--report", str(report)])
        assert res.exit_code == 0, res.output
        payload = json.loads(report.read_text())
        assert {"method", "alpha", "n", "discoveries", "fdp", "power",
                "seconds", "config_hash"} <= set(payload)
        assert payload["fdp"] <= 0.2
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,score,rejected"
        assert len(lines) == 501


class TestConfigPrecedence:
    def test_config_file_sets_defaults_flags_win(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "hidden": "8,8",
                                        "f1_sweeps": 2, "grid_size": 150}))
        model_path = tmp_path / "m.json"
        res = runner.invoke(main, ["fit", "--in", str(table), "--seed", "1",
                                   "--out", str(model_path), "--config",
                                   str(cfg_path), "--epochs", "1"])
        assert res.exit_code == 0, res.output
        saved = json.loads(model_path.read_text())
        assert saved["train_config"]["epochs"] == 1        # flag beats file
        assert saved["train_config"]["lambda_grid_size"] == 150  # file beats default

    def test_unknown_key_usage_error(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid-size": 5, "epochs": 2}))
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(tmp_path / "m.json"), "--config",
                                   str(cfg_path)])
        assert res.exit_code == 2, res.output
        assert "unknown key(s) ['grid-size']" in res.output
        assert "'grid_size'" in res.output and "'in_path'" in res.output
        assert not (tmp_path / "m.json").exists()

    def test_non_object_config_usage_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        res = runner.invoke(main, ["simulate", "--out", str(tmp_path / "t.csv"),
                                   "--config", str(cfg_path)])
        assert res.exit_code == 2, res.output
        assert "JSON object" in res.output


class TestBenchmark:
    def test_single_cell_matches_run_report(self, runner, tmp_path):
        out_dir = tmp_path / "bench"
        res = runner.invoke(main, ["benchmark", "--scenario", "A", "--methods",
                                   "bh", "--seeds", "3", "--alpha", "0.1",
                                   "--n", "800", "--out-dir", str(out_dir)])
        assert res.exit_code == 0, res.output
        agg = json.loads((out_dir / "aggregate.json").read_text())
        stats = agg["methods"]["bh"]
        assert stats["sd_discoveries"] == 0.0
        per_seed = (out_dir / "per_seed.csv").read_text().strip().splitlines()
        assert len(per_seed) == 2
        row = per_seed[1].split(",")
        assert row[0] == "bh" and int(row[3]) == stats["mean_discoveries"]
        assert (out_dir / "hist_bh.csv").exists()

    def test_empty_methods_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["benchmark", "--methods", "", "--seeds",
                                   "0", "--out-dir", str(tmp_path / "b")])
        assert res.exit_code == 2

    def test_empty_seeds_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["benchmark", "--methods", "bh", "--seeds",
                                   "", "--out-dir", str(tmp_path / "b")])
        assert res.exit_code == 2

    def test_unknown_method_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["benchmark", "--methods", "magic",
                                   "--seeds", "0", "--out-dir",
                                   str(tmp_path / "b")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("hidden", ["8,x", "0"])
    def test_bad_hidden_usage_error(self, runner, tmp_path, hidden):
        out_dir = tmp_path / "b"
        res = runner.invoke(main, ["benchmark", "--methods", "neurt_a",
                                   "--seeds", "0", "--hidden", hidden,
                                   "--out-dir", str(out_dir)])
        assert res.exit_code == 2, res.output
        assert "--hidden" in res.output and "positive integers" in res.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("methods", ["bh", "neurt_a"])
    def test_invalid_training_flag_rejected_up_front(self, runner, tmp_path,
                                                     methods):
        out_dir = tmp_path / "b"
        res = runner.invoke(main, ["benchmark", "--methods", methods,
                                   "--seeds", "0", "--n", "400", "--lr", "-1",
                                   "--out-dir", str(out_dir)])
        assert res.exit_code == 2, res.output
        assert "lr, epochs and batch_size must be positive" in res.output
        assert "running" not in res.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("methods", ["bh", "neurt_a"])
    def test_invalid_f1_flag_rejected_up_front(self, runner, tmp_path,
                                               methods):
        out_dir = tmp_path / "b"
        res = runner.invoke(main, ["benchmark", "--methods", methods,
                                   "--seeds", "0", "--n", "400",
                                   "--f1-sweeps", "0", "--out-dir",
                                   str(out_dir)])
        assert res.exit_code == 2, res.output
        assert "sweeps must be >= 1" in res.output
        assert "running" not in res.output
        assert not out_dir.exists()

    def test_reruns_same_outputs(self, runner, tmp_path):
        args = ["benchmark", "--scenario", "A", "--methods", "bh,sbh,neurt_a",
                "--seeds", "0,1", "--alpha", "0.1", "--n", "400", *FAST_FIT]
        outs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            res = runner.invoke(main, args + ["--out-dir", str(out_dir)])
            assert res.exit_code == 0, res.output
            agg = json.loads((out_dir / "aggregate.json").read_text())
            del agg["out_dir"]
            for stats in agg["methods"].values():  # wall time differs
                del stats["mean_seconds"]
            per_seed = [ln.rsplit(",", 1)[0] for ln in
                        (out_dir / "per_seed.csv").read_text().splitlines()]
            assert per_seed[0] == "method,seed,n,discoveries,fdp,power"
            outs.append((agg, per_seed))
        assert outs[0] == outs[1]

    def test_histogram_splits_by_truth(self, runner, tmp_path):
        out_dir = tmp_path / "bench2"
        res = runner.invoke(main, ["benchmark", "--scenario", "A", "--methods",
                                   "bh,sbh", "--seeds", "0,1", "--alpha",
                                   "0.1", "--n", "600", "--out-dir",
                                   str(out_dir)])
        assert res.exit_code == 0, res.output
        lines = (out_dir / "hist_sbh.csv").read_text().strip().splitlines()
        assert lines[0] == ("bin_left,bin_right,rejected_null,rejected_alt,"
                            "accepted_null,accepted_alt")
        total = sum(sum(int(v) for v in ln.split(",")[2:]) for ln in lines[1:])
        assert total == 2 * 600  # two seeds pooled


class TestReport:
    def test_renders_table(self, runner, tmp_path):
        out_dir = tmp_path / "bench"
        res = runner.invoke(main, ["benchmark", "--scenario", "N", "--methods",
                                   "bh", "--seeds", "0", "--n", "500",
                                   "--out-dir", str(out_dir)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["report", "--in", str(out_dir)])
        assert res.exit_code == 0, res.output
        assert "bh" in res.output and "power" in res.output

    def test_missing_aggregate(self, runner, tmp_path):
        res = runner.invoke(main, ["report", "--in", str(tmp_path)])
        assert res.exit_code == 2


class TestPinnedOutputs:
    """Config hashes are pure JSON, so these values hold on any machine."""

    def test_simulate_config_hash(self, runner, tmp_path):
        _, payload = simulate(runner, tmp_path)
        assert payload["config_hash"] == "1d4756f776bb"

    def test_fit_hash_and_model_match_library_train(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        cli_model, lib_model = tmp_path / "cli.json", tmp_path / "lib.json"
        res = runner.invoke(main, ["fit", "--in", str(table), "--variant", "b",
                                   "--seed", "7", "--out", str(cli_model),
                                   *FAST_FIT])
        assert res.exit_code == 0, res.output
        assert _json_payload(res.output)["config_hash"] == "c0960df09b0b"
        config = TrainingConfig(seed=7, epochs=3, batch_size=128,
                                lambda_grid_size=200, f1_sweeps=2)
        train(load_table(table), config, "neurt_b",
              hidden_sizes=(16, 16)).save(lib_model)
        assert cli_model.read_bytes() == lib_model.read_bytes()

    def test_benchmark_config_hash(self, runner, tmp_path):
        res = runner.invoke(main, ["benchmark", "--scenario", "N", "--methods",
                                   "sbh,bh", "--seeds", "0:3", "--n", "400",
                                   "--alpha", "0.2", "--out-dir",
                                   str(tmp_path / "b")])
        assert res.exit_code == 0, res.output
        assert _json_payload(res.output)["config_hash"] == "53d90e414ac9"
