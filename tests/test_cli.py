import dataclasses
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fdrkit
from fdrkit import (
    FittedModel,
    TrainingConfig,
    data_model,
    load_table,
    posteriors,
    select_discoveries,
    train,
)
from fdrkit import cli
from fdrkit.cli import _discoveries, main

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

    def test_zero_rows_usage_error(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        res = runner.invoke(main, ["simulate", "--n", "0", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "n >= 1" in res.output
        assert not out.exists()


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "lr must be a finite number"),
        ("--lr", "inf", "lr must be a finite number"),
        ("--weight-decay", "inf", "weight_decay must be a finite number"),
    ])
    def test_non_finite_training_flag_usage_error(self, runner, tmp_path,
                                                  flag, value, message):
        table, _ = simulate(runner, tmp_path)
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(tmp_path / "m.json"), flag, value])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not (tmp_path / "m.json").exists()

    def test_invalid_f1_flag_usage_error(self, runner, tmp_path):
        table, _ = simulate(runner, tmp_path)
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(tmp_path / "m.json"), "--f1-sweeps",
                                   "0"])
        assert res.exit_code == 2, res.output
        assert "sweeps must be >= 1" in res.output
        assert not (tmp_path / "m.json").exists()


def _run_cli(args, **env):
    """Run the CLI in its own process and session, with ``env`` added to
    its environment; check that it printed no traceback and that no
    process of its session outlives it, and return its exit code and the
    lines of its stderr."""
    src = str(Path(fdrkit.__file__).parents[1])
    with subprocess.Popen(
            [sys.executable, "-m", "fdrkit.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
            env={**os.environ, "PYTHONPATH": src, **env}) as proc:
        try:
            _, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    with pytest.raises(ProcessLookupError):  # the session's group is empty
        os.killpg(proc.pid, 0)
    assert "Traceback" not in stderr
    return proc.returncode, stderr.strip().splitlines()


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

    def test_byte_order_mark_keeps_the_ids(self, runner, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffid,z,x0,h\nr0,3.5,0.1,1\nr1,0.0,0.2,0\n"
                         .encode("utf-8"))
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["discover", "--in", str(path), "--method",
                                   "bh", "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["r0", "r1"]

    def test_table_that_is_not_utf8_is_a_one_line_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,z,x0\nr1,1.0,0.5\ncafé,2.0,1.5\n".encode("latin-1"))
        code, lines = _run_cli([
            "discover", "--in", str(path), "--method", "bh", "--out",
            str(tmp_path / "d.csv")])
        assert code == 1
        assert lines == [
            f"Error: {path}: not UTF-8 text, byte 0xe9 at offset 22"]

    @pytest.mark.parametrize("spoil", [
        lambda d: "{not json",
        lambda d: json.dumps({k: v for k, v in d.items() if k != "variant"}),
        lambda d: json.dumps({**d, "f1": {**d["f1"], "weights": ["x"]}}),
        lambda d: json.dumps({**d, "k": 3}),
        lambda d: json.dumps({**d, "regression": {
            **d["regression"], "delta_a": d["regression"]["delta_a"][1:],
            "delta_b": d["regression"]["delta_b"][1:]}}),
        lambda d: json.dumps({**d, "network": {**d["network"], "weights": [
            w[1:] if i == 1 else w
            for i, w in enumerate(d["network"]["weights"])]}}),
    ], ids=["not_json", "missing_key", "non_numeric_weights", "k_edited",
            "regression_short", "weights_short"])
    def test_malformed_model_is_a_one_line_error(self, runner, tmp_path,
                                                  spoil):
        table, _ = simulate(runner, tmp_path)
        model_path = tmp_path / "m.json"
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(model_path), *FAST_FIT])
        assert res.exit_code == 0, res.output
        model_path.write_text(spoil(json.loads(model_path.read_text())))
        code, lines = _run_cli([
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


#: the model each neurt scoring case uses; the other cases are methods
_MODEL_OF = {"neurt_a": "a", "neurt_b": "b", "neurt_a_no_stage2": "a-ns",
             "neurt_b_no_stage2": "b-ns"}
# a scenario-A header: id,z,x0..x9,a0,a1,h; the parser reads id last
_Z, _X, _A, _H, _ID = [1], list(range(2, 12)), [12, 13], [14], [0]
#: the columns each scoring case parses
_USECOLS = {
    "bh": _Z + _H + _ID,
    "sbh": _Z + _H + _ID,
    "neurt_a": _Z + _A + _H + _ID,
    "neurt_b": _Z + _A + _H + _ID,
    "neurt_a_no_stage2": _Z + _X + _H + _ID,
    "neurt_b_no_stage2": _Z + _X + _A + _H + _ID,
}


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A scenario-A table and, per model kind, a model fitted on it."""
    tmp = tmp_path_factory.mktemp("scored")
    runner = CliRunner()
    table, _ = simulate(runner, tmp)
    models = {}
    for kind in _MODEL_OF.values():
        models[kind] = tmp / f"m_{kind}.json"
        stage2 = "--no-stage2" if kind.endswith("-ns") else "--stage2"
        res = runner.invoke(main, ["fit", "--in", str(table), "--variant",
                                   kind[0], stage2, "--seed", "7", "--out",
                                   str(models[kind]), *FAST_FIT])
        assert res.exit_code == 0, res.output
    return table, models


def _discover(runner, scored, case, table, out):
    flags = (["--model", str(scored[1][_MODEL_OF[case]])]
             if case in _MODEL_OF else ["--method", case])
    return runner.invoke(main, ["discover", "--in", str(table), *flags,
                                "--out", str(out)])


def _with_cell(path, dest, row, col, text):
    """A copy of the CSV at ``path`` with one body cell replaced."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[lines[0].strip().split(",").index(col)] = text
    lines[row] = ",".join(cells)
    dest.write_text("".join(lines), encoding="utf-8")
    return dest


class TestDiscoverParsesWhatItScores:
    """``discover`` parses ``z``, ``h``, ``id`` and only the covariate
    blocks its method scores with, and answers as on a full read."""

    @pytest.mark.parametrize("case", _USECOLS)
    def test_parsed_columns(self, runner, scored, tmp_path, monkeypatch,
                            case):
        seen = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            seen.append(list(kwargs["usecols"]))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(data_model.np, "loadtxt", spy)
        res = _discover(runner, scored, case, scored[0], tmp_path / "d.csv")
        assert res.exit_code == 0, res.output
        assert seen == [_USECOLS[case]]

    @pytest.mark.parametrize("case", _USECOLS)
    def test_output_matches_scoring_the_full_table(self, runner, scored,
                                                   tmp_path, case):
        out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
        res = _discover(runner, scored, case, scored[0], out)
        assert res.exit_code == 0, res.output
        full = load_table(scored[0])
        if case in _MODEL_OF:
            model = FittedModel.load(scored[1][_MODEL_OF[case]])
            w = posteriors(model, full)
            ds = select_discoveries(w, 0.1)
        else:
            ds = _discoveries(case, full, 0.1)
        ds.write_csv(ref, ids=full.ids)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("bad", ["oops", "0.5\x1c"],
                             ids=["loadtxt_pass", "per_cell_loop"])
    def test_bad_cell_in_a_covariate_it_does_not_score(self, runner, scored,
                                                       tmp_path, bad):
        table = _with_cell(scored[0], tmp_path / "bad.csv", 2, "x3", bad)
        error = "Error: non-numeric value in row 3, column 'x3'"
        res = runner.invoke(main, ["fit", "--in", str(table), "--out",
                                   str(tmp_path / "m.json"), *FAST_FIT])
        assert res.exit_code == 1 and error in res.output
        for case in _USECOLS:
            out, clean = tmp_path / f"{case}.csv", tmp_path / "clean.csv"
            res = _discover(runner, scored, case, table, out)
            if case.endswith("no_stage2"):
                assert res.exit_code == 1 and error in res.output, case
                assert not out.exists()
            else:
                assert res.exit_code == 0, res.output
                _discover(runner, scored, case, scored[0], clean)
                assert out.read_bytes() == clean.read_bytes(), case

    @pytest.mark.parametrize("drop,layout", [("x9", "k=9, q=2"),
                                             ("a1", "k=10, q=1")])
    def test_layout_mismatch_is_refused(self, runner, scored, tmp_path, drop,
                                        layout):
        lines = scored[0].read_text(encoding="utf-8").splitlines()
        j = lines[0].split(",").index(drop)
        table = tmp_path / "t.csv"
        table.write_text("".join(
            ",".join(c for i, c in enumerate(line.split(",")) if i != j) + "\n"
            for line in lines), encoding="utf-8")
        for case in ("neurt_a", "neurt_b_no_stage2"):
            out = tmp_path / "d.csv"
            res = _discover(runner, scored, case, table, out)
            assert res.exit_code == 1
            assert (f"Error: table has ({layout}), model was fitted on "
                    f"(k=10, q=2)") in res.output
            assert not out.exists()

    def test_bad_model_is_reported_before_a_bad_table(self, tmp_path):
        table = tmp_path / "latin1.csv"
        table.write_bytes("id,z,x0\nr1,1.0,0.5\ncafé,2.0,1.5\n"
                          .encode("latin-1"))
        model = tmp_path / "m.json"
        model.write_text("{not json")
        code, lines = _run_cli([
            "discover", "--in", str(table), "--model", str(model), "--out",
            str(tmp_path / "d.csv")])
        assert code == 1
        assert lines[0].startswith(f"Error: {model}: not a valid model file")


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

    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_adjustment_mode_is_no_setting(self, runner, tmp_path, command):
        """Stage II scores by the fitted mean only: an ``adjust_mode`` key
        or an ``--adjust-mode`` flag is a usage error."""
        out = tmp_path / "out"
        args = {
            "fit": ["fit", "--in", str(simulate(runner, tmp_path)[0]),
                    "--out", str(out)],
            "benchmark": ["benchmark", "--methods", "neurt_b", "--seeds", "0",
                          "--out-dir", str(out)],
        }[command]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"adjust_mode": "mean"}))
        res = runner.invoke(main, [*args, "--config", str(cfg_path)])
        assert res.exit_code == 2, res.output
        assert "unknown key(s) ['adjust_mode']" in res.output
        assert "accepted keys: [" in res.output and "'stage2'" in res.output
        for mode in ("mean", "sample"):
            res = runner.invoke(main, [*args, "--adjust-mode", mode])
            assert res.exit_code == 2, res.output
            assert "No such option '--adjust-mode'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command, values", [
        ("fit", {"epochs": 2.5, "seed": 0.5}),
        ("fit", {"epochs": 2.0}),
        ("simulate", {"seed": 1.9}),
        ("simulate", {"seed": True}),
        ("benchmark", {"n_override": 400.5}),
    ], ids=["fit_float", "fit_integral_float", "simulate_float",
            "simulate_true", "benchmark_float"])
    def test_non_integer_for_an_integer_flag_usage_error(
            self, runner, tmp_path, command, values):
        """A JSON float or bool is refused as ``--epochs 2.0`` is, not
        truncated to an integer."""
        out = tmp_path / "out"
        args = {
            "fit": ["fit", "--in", str(simulate(runner, tmp_path)[0]),
                    "--out", str(out)],
            "simulate": ["simulate", "--n", "50", "--out", str(out)],
            "benchmark": ["benchmark", "--methods", "bh", "--seeds", "0",
                          "--out-dir", str(out)],
        }[command]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        res = runner.invoke(main, [*args, "--config", str(cfg_path)])
        assert res.exit_code == 2, res.output
        key = next(iter(values))
        assert (f"{key} in --config {cfg_path} must be an integer, "
                f"not {json.dumps(values[key])}") in res.output
        assert not out.exists()

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

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_bad_row_count_usage_error(self, runner, tmp_path, n):
        out_dir = tmp_path / "b"
        res = runner.invoke(main, ["benchmark", "--methods", "bh", "--seeds",
                                   "0", "--n", n, "--out-dir", str(out_dir)])
        assert res.exit_code == 2, res.output
        assert "n >= 1" in res.output and "running" not in res.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("seeds", ["a", "1,,2", "3:x"])
    def test_malformed_seeds_usage_error(self, runner, tmp_path, seeds):
        out_dir = tmp_path / "b"
        res = runner.invoke(main, ["benchmark", "--methods", "bh", "--seeds",
                                   seeds, "--out-dir", str(out_dir)])
        assert res.exit_code == 2, res.output
        assert "lo:hi" in res.output and "comma-separated list" in res.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("methods, seeds, repeats", [
        ("bh", "1,1,2", "--seeds repeats [1]"),
        ("bh,sbh", "2,0,2,0", "--seeds repeats [0, 2]"),
        ("bh,bh", "0", "--methods repeats ['bh']"),
    ])
    def test_repeated_seed_or_method_usage_error(self, runner, tmp_path,
                                                 methods, seeds, repeats):
        out_dir = tmp_path / "b"
        res = runner.invoke(main, ["benchmark", "--methods", methods,
                                   "--seeds", seeds, "--n", "300",
                                   "--out-dir", str(out_dir)])
        assert res.exit_code == 2, res.output
        assert repeats in res.output and "running" not in res.output
        assert not out_dir.exists()

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


def _usable_cpus() -> int:
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


@pytest.mark.skipif(_usable_cpus() < 2, reason="needs 2 usable CPUs")
class TestBenchmarkWorkers:
    def test_pool_gives_the_in_process_answers(self, runner, tmp_path,
                                               monkeypatch):
        args = ["--methods", "bh,neurt_a,neurt_b", "--seeds", "0,1",
                "--n", "400", *FAST_FIT]
        code, lines = _run_cli(
            ["benchmark", *args, "--out-dir", str(tmp_path / "pool")],
            OPENBLAS_NUM_THREADS="1")
        assert code == 0, lines
        workers = min(4, _usable_cpus())
        assert lines[0] == f"running 6 cells on {workers} worker processes"
        monkeypatch.setattr(data_model, "_usable_cpus", lambda: 1)
        res = runner.invoke(main, ["benchmark", *args, "--out-dir",
                                   str(tmp_path / "serial")])
        assert res.exit_code == 0, res.output
        assert "running 6 cells in this process" in res.output
        outs = []
        for name in ("pool", "serial"):
            out_dir = tmp_path / name
            agg = json.loads((out_dir / "aggregate.json").read_text())
            del agg["out_dir"]
            for stats in agg["methods"].values():  # wall time differs
                del stats["mean_seconds"]
            per_seed = [ln.rsplit(",", 1)[0] for ln in
                        (out_dir / "per_seed.csv").read_text().splitlines()]
            hists = [(out_dir / f"hist_{m}.csv").read_bytes()
                     for m in ("bh", "neurt_a", "neurt_b")]
            outs.append((agg, per_seed, hists))
        assert outs[0] == outs[1]

    def test_a_failing_cell_stops_the_pool(self, tmp_path):
        out_dir = tmp_path / "b"
        code, lines = _run_cli([
            "benchmark", "--methods", "neurt_a,neurt_b", "--seeds", "0,1",
            "--n", "5", *FAST_FIT, "--out-dir", str(out_dir)],
            OPENBLAS_NUM_THREADS="1")
        assert code == 1
        assert lines[0] == (f"running 4 cells on {min(4, _usable_cpus())} "
                            f"worker processes")
        assert [ln for ln in lines if ln.startswith("Error:")] == [
            "Error: alternative estimation needs >= 10 values"]
        assert lines[-1].startswith("Error:")
        assert list(out_dir.iterdir()) == []


def _fake_cell(cell, **settings):
    method, seed = cell
    return {"method": method, "seed": seed, "n": 1, "discoveries": 0,
            "fdp": 0.0, "power": 0.0, "seconds": 0.0, "z": np.zeros(1),
            "rejected_mask": np.zeros(1, bool), "h": np.zeros(1, int)}


#: ``benchmark`` flags giving 4, 1 and 0 training cells, of 4, 2 and 4 cells
_CELLS = {4: ["--methods", "neurt_a,neurt_b", "--seeds", "0,1"],
          1: ["--methods", "bh,neurt_a", "--seeds", "0"],
          0: ["--methods", "bh,sbh", "--seeds", "0,1"]}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("tasks, cpus, cells, expected", [
    (["1", "2", "3"], 2, 4, 1),  # a multi-threaded BLAS: no fork
    (["1"], 2, 4, 2),
    (["1"], 8, 4, 4),
    (["1"], 2, 1, 1),  # one training cell stays in this process
    (["1"], 2, 0, 1),
    (None, 2, 4, 1),  # no /proc
])
def test_worker_count(runner, tmp_path, monkeypatch, tasks, cpus, cells,
                      expected):
    """``benchmark`` runs on one process per usable CPU, but at most one
    per training cell, and logs the count first."""
    listdir = os.listdir

    def tasks_listed(path):
        if path != "/proc/self/task":
            return listdir(path)
        if tasks is None:
            raise FileNotFoundError(path)
        return tasks

    monkeypatch.setattr(os, "listdir", tasks_listed)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cli, "_benchmark_cell", _fake_cell)
    res = runner.invoke(main, ["benchmark", *_CELLS[cells], "--out-dir",
                               str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    n = 2 if cells == 1 else 4
    assert res.output.splitlines()[0] == f"running {n} cells " + (
        f"on {expected} worker processes" if expected > 1
        else "in this process")
    per_seed = (tmp_path / "b" / "per_seed.csv").read_text().splitlines()
    assert len(per_seed) == 1 + n  # every cell's result came back
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("methods, seeds, cpus", [
    ("bh,sbh,neurt_a,neurt_b", "0,1", 4),  # the battery's cells
    ("bh,sbh,neurt_a,neurt_b", "0:3", 2),
    ("bh,neurt_a,neurt_b", "0,1", 4),
    ("bh,neurt_a,neurt_b", "0,1", 3),
    ("neurt_a,neurt_b", "0:5", 4),
])
def test_fits_are_spread_evenly_and_baselines_stay_here(
        runner, tmp_path, monkeypatch, methods, seeds, cpus):
    """One part per usable CPU, at most one per fit, and no part trains
    more than ``ceil(fits / parts)`` models; the baselines run in this
    process."""
    ran = tmp_path / "ran"

    def cell(cell, **settings):
        with open(ran, "a") as fh:
            fh.write(f"{cell[0]} {os.getpid()}\n")
        return _fake_cell(cell)

    monkeypatch.setattr(data_model, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_benchmark_cell", cell)
    res = runner.invoke(main, ["benchmark", "--methods", methods, "--seeds",
                               seeds, "--out-dir", str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    fits = Counter()
    for line in ran.read_text().splitlines():
        method, pid = line.split()
        if method in ("bh", "sbh"):
            assert int(pid) == os.getpid()
        else:
            fits[int(pid)] += 1
    parts = min(cpus, sum(fits.values()))
    assert res.output.splitlines()[0].endswith(f"on {parts} worker processes")
    assert len(fits) == parts and os.getpid() not in fits
    assert max(fits.values()) == -(-sum(fits.values()) // parts)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"methods": {"bh": {"sd_discoveries": 0.0, "mean_fdp": 0.1,
                                       "mean_power": 0.5}}}),
    ], ids=["not_json", "missing_mean_discoveries"])
    def test_malformed_aggregate_is_a_one_line_error(self, tmp_path, text):
        path = tmp_path / "aggregate.json"
        path.write_text(text)
        code, lines = _run_cli(["report", "--in", str(path)])
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith(f"Error: {path}: not a valid aggregate (")


class TestCommandErrors:
    """Faults every command reports the same way, without a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "fit", "benchmark"])
    def test_negative_seed_usage_error(self, runner, tmp_path, command):
        out = tmp_path / "out"
        args = {
            "simulate": ["simulate", "--seed", "-1", "--out", str(out)],
            "fit": ["fit", "--in", str(simulate(runner, tmp_path)[0]),
                    "--seed", "-1", "--out", str(out)],
            "benchmark": ["benchmark", "--methods", "bh", "--seeds", "-2:-1",
                          "--out-dir", str(out)],
        }[command]
        code, lines = _run_cli(args)
        assert code == 2
        assert "non-negative" in lines[-1]
        assert not out.exists()

    def test_failure_inside_a_benchmark_cell_is_a_one_line_error(
            self, tmp_path):
        out_dir = tmp_path / "bench"
        code, lines = _run_cli([
            "benchmark", "--methods", "neurt_a", "--n", "5", "--seeds", "0",
            "--out-dir", str(out_dir)])
        assert code == 1
        assert [ln for ln in lines if ln.startswith("Error:")] == [
            "Error: alternative estimation needs >= 10 values"]
        assert lines[-1].startswith("Error:")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("flag", ["simulate --out", "fit --out",
                                      "discover --out", "discover --report"])
    def test_output_in_a_missing_directory_is_a_one_line_error(
            self, runner, tmp_path, flag):
        table, _ = simulate(runner, tmp_path)
        bh = ["discover", "--in", str(table), "--method", "bh"]
        args = {
            "simulate --out": ["simulate", "--n", "50"],
            "fit --out": ["fit", "--in", str(table), *FAST_FIT],
            "discover --out": bh,
            "discover --report": [*bh, "--out", str(tmp_path / "d.csv")],
        }[flag]
        path = tmp_path / "no" / "such" / "file"
        code, lines = _run_cli([*args, flag.split()[1], str(path)])
        assert code == 1
        assert lines == [f"Error: {path}: No such file or directory"]

    @pytest.mark.parametrize("flag", ["simulate --out", "fit --out",
                                      "discover --out", "discover --report"])
    def test_outputs_are_checked_before_any_work(self, runner, tmp_path,
                                                 monkeypatch, flag):
        table, _ = simulate(runner, tmp_path)
        called = []
        for name in ("generate", "load_table", "train"):
            def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        bh = ["discover", "--in", str(table), "--method", "bh"]
        args = {
            "simulate --out": ["simulate", "--n", "50"],
            "fit --out": ["fit", "--in", str(table), *FAST_FIT],
            "discover --out": [*bh, "--report", str(tmp_path / "r.json")],
            "discover --report": [*bh, "--out", str(tmp_path / "d.csv")],
        }[flag]
        path = tmp_path / "no" / "such" / "file"
        res = runner.invoke(main, [*args, flag.split()[1], str(path)])
        assert res.exit_code == 1
        assert f"Error: {path}: No such file or directory" in res.output
        assert called == []
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestTracedNames:
    """The per-layer tracer (``perfbench/layers.py``) times scoring by
    patching these names on ``cli``, so the commands must look them up
    there at call time, not through function objects captured earlier."""

    NAMES = ("bh", "storey_bh", "z_to_pvalue", "posteriors",
             "select_discoveries", "train", "load_table")

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        for name in self.NAMES:
            def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
                seen.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        return seen

    @pytest.mark.parametrize("method, expected", [
        ("bh", ["load_table", "z_to_pvalue", "bh"]),
        ("sbh", ["load_table", "z_to_pvalue", "storey_bh"]),
        ("neurt", ["load_table", "posteriors", "select_discoveries"]),
    ])
    def test_discover(self, runner, scored, tmp_path, calls, method,
                      expected):
        res = runner.invoke(main, [
            "discover", "--in", str(scored[0]), "--method", method,
            "--model", str(scored[1]["b"]), "--out", str(tmp_path / "d.csv")])
        assert res.exit_code == 0, res.output
        assert calls == expected

    def test_benchmark(self, runner, tmp_path, calls):
        res = runner.invoke(main, [
            "benchmark", "--methods", "bh,sbh,neurt_a", "--seeds", "0",
            "--n", "400", "--out-dir", str(tmp_path / "b"), *FAST_FIT])
        assert res.exit_code == 0, res.output
        assert calls == ["z_to_pvalue", "bh", "z_to_pvalue", "storey_bh",
                         "train", "posteriors", "select_discoveries"]


def test_settable_values_are_pinned():
    """Flags of every command plus fields of every exported settings class
    (named ``*Config`` or ``*Schema``): 81 values, none from the
    environment, so a new setting has to change this test."""
    flags = sum(len(command.params) for command in main.commands.values())
    settings = [getattr(fdrkit, name) for name in fdrkit.__all__
                if name.endswith(("Config", "Schema"))]
    fields = sum(len(dataclasses.fields(cls)) for cls in settings)
    assert (flags, fields) == (52, 29)
    package = Path(fdrkit.__file__).parent
    for source in package.glob("*.py"):
        text = source.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, source.name


_NO_SCIPY = """
import sys
import fdrkit
from fdrkit.cli import main

t, m, d = sys.argv[1], sys.argv[2], sys.argv[3]
for args in (["simulate", "--n", "400", "--out", t],
             ["fit", "--in", t, "--out", m, *sys.argv[4:]],
             ["discover", "--in", t, "--model", m, "--out", d],
             ["discover", "--in", t, "--method", "bh", "--out", d]):
    main(args, standalone_mode=False)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_a_run_imports_no_scipy(tmp_path):
    """fdrkit takes its special functions from the C library, so a whole
    simulate, fit and discover run loads no scipy module."""
    src = str(Path(fdrkit.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path / "t.csv"),
         str(tmp_path / "m.json"), str(tmp_path / "d.csv"), *FAST_FIT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


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
        assert _json_payload(res.output)["config_hash"] == "e12c94b76b83"
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
        assert _json_payload(res.output)["config_hash"] == "d93dc6acedcb"
