"""The benchmark's workloads: set-up, one timed pass and output checks.

Every workload drives fdrkit through its command-line entry point,
in-process, the way a user's command runs. Table seeds derive from the
benchmark's workload seed; the program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from fdrkit import cli
from fdrkit.synthetic import generate, scenario_config
from fdrkit.two_groups import FittedModel

from .spans import Tracer

ALPHA = 0.1
#: ``battery`` fails its check when the mean neurt FDP exceeds ALPHA + this
FDP_SLACK = 0.05


def acceptance(epochs: int = 50) -> list[str]:
    """Training flags of the acceptance battery, with an epoch cap."""
    return ["--lr", "3e-3", "--epochs", str(epochs), "--batch-size", "256",
            "--grid-size", "500"]


@dataclass
class Op:
    """One unit of user work: a CLI call, or one cell of ``benchmark``.

    ``kind`` is ``fit``, ``discover`` or ``baseline``. ``report`` is the
    command's JSON output; ``result`` holds the deterministic outputs
    that every pass must reproduce.
    """

    kind: str
    name: str
    seconds: float
    report: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def table_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def call_cli(argv: list[str], tracer: Tracer | None = None):
    """Run one ``fdrkit`` command in-process; return (seconds, stdout JSON)."""
    out = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), span:
        cli.main.main(args=argv, standalone_mode=False)
    return time.perf_counter() - t0, json.loads(out.getvalue())


def run_op(kind: str, name: str, argv: list[str], tracer) -> Op:
    """``call_cli`` as an Op; a raising command becomes a failed Op."""
    try:
        seconds, report = call_cli(argv, tracer)
    except Exception as e:  # the pass goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        return Op(kind, name, float("nan"), errors=[f"raised {e!r}"])
    return Op(kind, name, seconds, report)


def truth(state: dict, n: int) -> np.ndarray:
    """Truth labels of the state's table, drawn once per run."""
    if "h" not in state:
        state["h"] = generate(
            scenario_config("A", seed=state["seed"], n=n)).h_truth
    return state["h"]


def simulate(path: str, seed: int, n: int, tracer) -> None:
    call_cli(["simulate", "--scenario", "A", "--seed", str(seed),
              "--n", str(n), "--out", path], tracer)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def check_discovery_csv(op: Op, path: str, h: np.ndarray) -> None:
    """The CSV has one row per test, and its rejections match the report."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != h.shape[0]:
        op.errors.append(f"{path}: {len(rows)} rows, expected {h.shape[0]}")
        return
    rejected = np.array([r[2] == "1" for r in rows])
    m = int(rejected.sum())
    tp = int(h[rejected].sum())
    fdp, power = (m - tp) / max(1, m), tp / max(1, int(h.sum()))
    if m != op.report.get("discoveries"):
        op.errors.append(f"{m} rejected rows, report says "
                         f"{op.report.get('discoveries')}")
    if not (_close(fdp, op.report.get("fdp", -1.0))
            and _close(power, op.report.get("power", -1.0))):
        op.errors.append("report fdp/power do not match the CSV and truth")
    op.result.update(discoveries=m, fdp=fdp, power=power, csv=digest(path))


def check_model(op: Op, path: str, variant: str) -> None:
    try:
        model = FittedModel.load(path)
    except Exception as e:  # any load failure fails the check
        traceback.print_exc(file=sys.stderr)
        op.errors.append(f"model file does not reload: {e!r}")
        return
    if model.variant != variant:
        op.errors.append(f"model variant {model.variant}, expected {variant}")
    op.result["model"] = digest(path)


@dataclass
class Battery:
    """Seeds of the acceptance battery through ``fdrkit benchmark``."""

    n: int = 5000
    seeds: int = 2
    epochs: int = 50
    hidden: str = "200,200"
    name: str = "battery"
    methods: tuple = ("bh", "sbh", "neurt_a", "neurt_b")

    @property
    def rows(self) -> int:
        return self.n * len(self.methods) * self.seeds

    def setup(self, work: str, seed: int, tracer=None) -> dict:
        seeds = table_seeds(seed, self.seeds)
        for s in seeds:
            simulate(os.path.join(work, f"table_{s}.csv"), s, self.n, tracer)
        return {"seeds": seeds, "ops": []}

    def run_pass(self, state: dict, out: str, tracer=None) -> list[Op]:
        op = run_op("cell", "benchmark", [
            "benchmark", "--scenario", "A", "--n", str(self.n),
            "--methods", ",".join(self.methods),
            "--seeds", ",".join(map(str, state["seeds"])),
            "--alpha", str(ALPHA), "--out-dir", out, "--hidden", self.hidden,
            *acceptance(self.epochs)], tracer)
        cells = {}
        if not op.errors:
            with open(os.path.join(out, "per_seed.csv"), newline="",
                      encoding="utf-8") as fh:
                cells = {(r["method"], int(r["seed"])): r
                         for r in csv.DictReader(fh)}
        ops = []
        for m in self.methods:
            kind = "fit" if m.startswith("neurt") else "baseline"
            for s in state["seeds"]:
                r = cells.get((m, s))
                if r is None:
                    ops.append(Op(kind, m, float("nan"),
                                  errors=op.errors or ["no cell"]))
                    continue
                ops.append(Op(kind, m, float(r["seconds"]), result={
                    "seed": s, "n": int(r["n"]),
                    "discoveries": int(r["discoveries"]),
                    "fdp": float(r["fdp"]), "power": float(r["power"])}))
        return ops

    def check(self, state: dict, out: str, ops: list[Op]) -> None:
        if "n_alt" not in state:
            state["n_alt"] = {s: int(generate(scenario_config(
                "A", seed=s, n=self.n)).h_truth.sum()) for s in state["seeds"]}
        n_alt = state["n_alt"]
        for m in self.methods:
            cells = [op for op in ops if op.name == m and not op.errors]
            if len(cells) != len(state["seeds"]):
                continue
            for op in cells:
                if op.result["n"] != self.n:
                    op.errors.append(f"cell n={op.result['n']}, "
                                     f"expected {self.n}")
            # the histogram pools the seeds: its counts must add up to the
            # cells' discoveries, false discoveries and true alternatives
            path = os.path.join(out, f"hist_{m}.csv")
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            col = {c: sum(int(r[c]) for r in rows) for c in (
                "rejected_null", "rejected_alt", "accepted_null",
                "accepted_alt")}
            res = [op.result for op in cells]
            expect = {
                "total": self.n * len(cells),
                "rejected_null": sum(round(r["fdp"] * r["discoveries"])
                                     for r in res),
                "rejected_alt": sum(round(r["power"] * n_alt[r["seed"]])
                                    for r in res),
                "alternatives": sum(n_alt[r["seed"]] for r in res),
            }
            got = {
                "total": sum(col.values()),
                "rejected_null": col["rejected_null"],
                "rejected_alt": col["rejected_alt"],
                "alternatives": col["rejected_alt"] + col["accepted_alt"],
            }
            if got != expect or (col["rejected_null"] + col["rejected_alt"]
                                 != sum(r["discoveries"] for r in res)):
                for op in cells:
                    op.errors.append(f"histogram {got} disagrees with the "
                                     f"cells and truth {expect}")
            for op in cells:
                op.result["hist"] = digest(path)
        neurt = [op for op in ops if op.name.startswith("neurt") and not op.errors]
        if neurt:
            mean_fdp = float(np.mean([op.result["fdp"] for op in neurt]))
            if mean_fdp > ALPHA + FDP_SLACK:
                for op in neurt:
                    op.errors.append(f"mean neurt FDP {mean_fdp:.4f} exceeds "
                                     f"alpha + slack {ALPHA + FDP_SLACK}")


@dataclass
class FitLarge:
    """``fdrkit fit`` then ``discover`` on one large table."""

    n: int = 50000
    epochs: int = 5
    hidden: str = "200,200"
    name: str = "fit_50k"

    @property
    def rows(self) -> int:
        return 2 * self.n

    def setup(self, work: str, seed: int, tracer=None) -> dict:
        (s,) = table_seeds(seed, 1)
        path = os.path.join(work, "table.csv")
        simulate(path, s, self.n, tracer)
        return {"seed": s, "table": path, "ops": []}

    def run_pass(self, state: dict, out: str, tracer=None) -> list[Op]:
        model = os.path.join(out, "model.json")
        fit = run_op("fit", "neurt_a", [
            "fit", "--in", state["table"], "--variant", "a",
            "--seed", str(state["seed"]), "--out", model,
            "--hidden", self.hidden, *acceptance(self.epochs)], tracer)
        fit.result.update(epochs_run=fit.report.get("epochs_run"),
                          best_val_nll=fit.report.get("best_val_nll"))
        disc = run_op("discover", "neurt", [
            "discover", "--in", state["table"], "--method", "neurt",
            "--model", model, "--alpha", str(ALPHA),
            "--out", os.path.join(out, "neurt.csv")], tracer)
        return [fit, disc]

    def check(self, state: dict, out: str, ops: list[Op]) -> None:
        fit, disc = ops
        if not fit.errors:
            check_model(fit, os.path.join(out, "model.json"), "neurt_a")
            if fit.result["epochs_run"] != self.epochs:
                fit.errors.append(f"ran {fit.result['epochs_run']} epochs, "
                                  f"expected the cap {self.epochs}")
        if not disc.errors:
            check_discovery_csv(disc, os.path.join(out, "neurt.csv"),
                                truth(state, self.n))


@dataclass
class ScoreLarge:
    """Fit once at ``n_fit`` in set-up; time ``discover`` on a large table."""

    n: int = 100000
    n_fit: int = 5000
    # the scoring model's quality does not change the scoring work, so a
    # shorter fit keeps the three set-ups affordable
    epochs: int = 20
    hidden: str = "200,200"
    name: str = "score_100k"
    methods: tuple = ("neurt", "bh", "sbh")

    @property
    def rows(self) -> int:
        return self.n * len(self.methods)

    def setup(self, work: str, seed: int, tracer=None) -> dict:
        s_fit, s_score = table_seeds(seed, 2)
        fit_table = os.path.join(work, "fit.csv")
        model = os.path.join(work, "model.json")
        simulate(fit_table, s_fit, self.n_fit, tracer)
        seconds, report = call_cli([
            "fit", "--in", fit_table, "--variant", "b", "--seed", str(s_fit),
            "--out", model, "--hidden", self.hidden,
            *acceptance(self.epochs)], tracer)
        fit = Op("fit", "neurt_b", seconds, report)
        check_model(fit, model, "neurt_b")
        if fit.errors:
            raise RuntimeError("; ".join(fit.errors))
        table = os.path.join(work, "score.csv")
        simulate(table, s_score, self.n, tracer)
        return {"seed": s_score, "table": table, "model": model, "ops": [fit]}

    def run_pass(self, state: dict, out: str, tracer=None) -> list[Op]:
        ops = []
        for m in self.methods:
            extra = ["--model", state["model"]] if m == "neurt" else []
            ops.append(run_op("discover" if m == "neurt" else "baseline", m, [
                "discover", "--in", state["table"], "--method", m, *extra,
                "--alpha", str(ALPHA), "--out", os.path.join(out, f"{m}.csv")],
                tracer))
        return ops

    def check(self, state: dict, out: str, ops: list[Op]) -> None:
        for op in ops:
            if not op.errors:
                check_discovery_csv(op, os.path.join(out, f"{op.name}.csv"),
                                    truth(state, self.n))


WORKLOADS = {w.name: w for w in (Battery(), FitLarge(), ScoreLarge())}
