"""Batch command-line interface.

Subcommands: ``simulate`` (draw a synthetic table), ``fit`` (train a
model), ``discover`` (produce a rejection set and run report),
``benchmark`` (grid of methods x seeds with aggregate statistics) and
``report`` (render an aggregate as a table). Machine-readable JSON goes
to stdout or ``--out``; human logs go to stderr. Every command is
deterministic given its flags.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, replace

import click
import numpy as np

from . import __version__
from .baselines import bh, storey_bh, z_to_pvalue
from .data_model import load_table, write_table
from .errors import FdrkitError
from .prior_net import NetworkConfig
from .synthetic import SCENARIOS, generate, scenario_config
from .two_groups import (
    ADJUST_MODES,
    VARIANTS,
    FittedModel,
    TrainingConfig,
    fdp_power,
    posteriors,
    select_discoveries,
    train,
)

_BASELINES = ("bh", "sbh")


def _hash_config(d: dict) -> str:
    payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _emit(payload: dict, out_path=None):
    text = json.dumps(payload, sort_keys=True, indent=1)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _log(msg: str):
    click.echo(msg, err=True)


def _config_file_option(f):
    def callback(ctx, param, value):
        if value:
            with open(value, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            accepted = sorted(p.name for p in ctx.command.params
                              if p.expose_value)
            if not isinstance(loaded, dict):
                raise click.UsageError(
                    f"--config {value} must hold a JSON object; "
                    f"accepted keys: {accepted}")
            unknown = sorted(set(loaded) - set(accepted))
            if unknown:
                raise click.UsageError(
                    f"unknown key(s) {unknown} in --config {value}; "
                    f"accepted keys: {accepted}")
            ctx.default_map = {**(ctx.default_map or {}), **loaded}
        return value

    return click.option(
        "--config", type=click.Path(exists=True, dir_okay=False),
        is_eager=True, expose_value=False, callback=callback,
        help="JSON file of flag defaults; explicit flags take precedence.",
    )(f)


#: training flag name -> TrainingConfig field, where the two differ
_FIELD_OF_FLAG = {"grid_size": "lambda_grid_size", "stage2": "apply_stage2"}
_DEFAULTS = TrainingConfig()


def _parse_hidden(ctx, param, value) -> tuple[int, ...]:
    """``--hidden`` text as a tuple of positive layer sizes."""
    try:
        sizes = tuple(int(h) for h in str(value).split(","))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise click.BadParameter(
            f"{value!r} is not a comma-separated list of positive integers")
    return sizes


def _training_options(f):
    """Training flags; their defaults are the TrainingConfig defaults."""
    def opt(decls, help=None, **kw):
        name = decls.split("/")[0].lstrip("-").replace("-", "_")
        default = getattr(_DEFAULTS, _FIELD_OF_FLAG.get(name, name))
        return click.option(decls, default=default, show_default=True,
                            help=help, **kw)

    for option in reversed([
        opt("--lr"),
        opt("--epochs"),
        opt("--batch-size"),
        opt("--weight-decay"),
        opt("--momentum"),
        opt("--val-fraction"),
        opt("--patience"),
        opt("--grid-size",
            "Cells in the posterior's mixing-weight quadrature."),
        click.option("--hidden", show_default=True,
                     default=",".join(map(str, NetworkConfig.hidden_sizes)),
                     callback=_parse_hidden,
                     help="Comma-separated hidden layer sizes."),
        opt("--standardize/--no-standardize"),
        opt("--stage2/--no-stage2",
            "Apply the auxiliary-covariate adjustment."),
        opt("--adjust-mode", type=click.Choice(ADJUST_MODES)),
        opt("--f1-sweeps", "Averaging passes of the alternative estimator."),
    ]):
        f = option(f)
    return f


def _config_of_flags(seed, flags: dict) -> TrainingConfig:
    return TrainingConfig(
        seed=seed, **{_FIELD_OF_FLAG.get(k, k): v for k, v in flags.items()})


@click.group()
@click.version_option(version=__version__, prog_name="fdrkit")
def main():
    """Covariate-adaptive FDR control toolkit."""


@main.command()
@click.option("--scenario", default="A", show_default=True,
              help=f"Preset name; one of {sorted(SCENARIOS)}.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--n", "n_override", default=None, type=int,
              help="Override the preset row count.")
@click.option("--out", required=True, type=click.Path(writable=True))
@_config_file_option
def simulate(scenario, seed, n_override, out):
    """Draw a synthetic hypothesis table with ground-truth labels."""
    overrides = {"n": n_override} if n_override else {}
    try:
        cfg = scenario_config(scenario, seed=seed, **overrides)
    except FdrkitError as e:
        raise click.UsageError(str(e))
    table = generate(cfg)
    write_table(table, out)
    payload = {
        "command": "simulate",
        "scenario": scenario.upper(),
        "n": table.n,
        "seed": seed,
        "config_hash": _hash_config(asdict(cfg)),
        "out": str(out),
    }
    _log(f"wrote {table.n} rows to {out}")
    _emit(payload)


@main.command()
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--variant", default="a", show_default=True,
              type=click.Choice(["a", "b"]))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path(writable=True))
@_training_options
@_config_file_option
def fit(in_path, variant, seed, out, **train_kwargs):
    """Fit the covariate-adaptive model and write it as JSON."""
    hidden = train_kwargs.pop("hidden")
    try:
        config = _config_of_flags(seed, train_kwargs)
    except FdrkitError as e:
        raise click.UsageError(str(e))
    try:
        table = load_table(in_path)
        if table.q == 0:
            _log("warning: table has no auxiliary columns; "
                 "the Stage II adjustment will be skipped")
        t0 = time.perf_counter()
        model = train(table, config, variant=f"neurt_{variant}",
                      hidden_sizes=hidden)
        seconds = time.perf_counter() - t0
        model.save(out)
    except FdrkitError as e:
        raise click.ClickException(str(e))
    payload = {
        "command": "fit",
        "variant": model.variant,
        "n": table.n, "k": table.k, "q": table.q,
        "best_epoch": model.train_log["best_epoch"],
        "best_val_nll": model.train_log["best_val_nll"],
        "epochs_run": len(model.train_log["epochs"]) - 1,
        "stop_reason": model.train_log["stop_reason"],
        "pi1_hat": model.pi1_hat,
        "seconds": round(seconds, 3),
        "config_hash": _hash_config({**asdict(config),
                                     "hidden": list(hidden),
                                     "variant": variant}),
        "out": str(out),
    }
    _log(f"fitted {model.variant} in {seconds:.1f}s "
         f"(best val NLL {model.train_log['best_val_nll']:.5f})")
    _emit(payload)


def _run_baseline(method, table, alpha, sidedness="two_sided", lambda0=0.5):
    """Discoveries of ``bh`` or ``sbh``; ``benchmark`` runs the defaults."""
    p = z_to_pvalue(table.z, sidedness=sidedness)
    if method == "bh":
        return bh(p, alpha)
    return storey_bh(p, alpha, lambda0=lambda0)


@main.command()
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", default="neurt", show_default=True,
              type=click.Choice(["neurt", "bh", "sbh"]))
@click.option("--model", "model_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Fitted model JSON; required for --method neurt.")
@click.option("--alpha", default=0.1, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--sidedness", default="two_sided", show_default=True,
              type=click.Choice(["two_sided", "left", "right"]),
              help="z to p-value conversion for the baselines.")
@click.option("--lambda0", default=0.5, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--out", required=True, type=click.Path(writable=True),
              help="Discovery CSV path.")
@click.option("--report", "report_path", default=None,
              type=click.Path(writable=True),
              help="Run report JSON path (also echoed to stdout).")
@_config_file_option
def discover(in_path, method, model_path, alpha, sidedness, lambda0, out,
             report_path):
    """Apply a rejection procedure and write discoveries plus a report."""
    t0 = time.perf_counter()
    try:
        table = load_table(in_path)
        seed = None
        if method == "neurt":
            if model_path is None:
                raise click.UsageError("--method neurt requires --model")
            model = FittedModel.load(model_path)
            w = posteriors(model, table)
            ds = select_discoveries(w, alpha)
            seed = model.train_config.get("seed")
        else:
            ds = _run_baseline(method, table, alpha, sidedness, lambda0)
        ds.write_csv(out, ids=table.ids)
    except FdrkitError as e:
        raise click.ClickException(str(e))
    seconds = time.perf_counter() - t0
    payload = {
        "command": "discover",
        "method": method,
        "alpha": alpha,
        "n": table.n,
        "discoveries": ds.n_rejected,
        "seconds": round(seconds, 3),
        "seed": seed,
        "config_hash": _hash_config({
            "method": method, "alpha": alpha, "sidedness": sidedness,
            "lambda0": lambda0,
        }),
        "out": str(out),
    }
    if table.h_truth is not None:
        fdp, power, counts = fdp_power(ds, table.h_truth)
        payload.update({"fdp": fdp, "power": power, "counts": counts})
    _log(f"{method}: {ds.n_rejected} discoveries at alpha={alpha}")
    _emit(payload, report_path)


def _benchmark_cell(method, seed, scenario, n_override, alpha, hidden,
                    config):
    overrides = {"n": n_override} if n_override else {}
    table = generate(scenario_config(scenario, seed=seed, **overrides))
    t0 = time.perf_counter()
    if method in _BASELINES:
        ds = _run_baseline(method, table, alpha)
    else:
        model = train(table, replace(config, seed=seed),
                      variant=method, hidden_sizes=hidden)
        ds = select_discoveries(posteriors(model, table), alpha)
    seconds = time.perf_counter() - t0
    fdp, power, _ = fdp_power(ds, table.h_truth)
    return {
        "method": method, "seed": seed, "n": table.n,
        "discoveries": ds.n_rejected, "fdp": fdp, "power": power,
        "seconds": seconds,
        "z": table.z, "rejected_mask": ds.rejected_mask(),
        "h": table.h_truth,
    }


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(s) for s in text.split(",")]


def _write_histogram(path, cells, bins):
    """Pooled z-histogram split by rejection status and truth."""
    edges = bins
    cols = {name: np.zeros(len(edges) - 1, dtype=np.int64)
            for name in ("rejected_null", "rejected_alt",
                         "accepted_null", "accepted_alt")}
    for cell in cells:
        z, rej, h = cell["z"], cell["rejected_mask"], cell["h"]
        for name, mask in (
            ("rejected_null", rej & (h == 0)),
            ("rejected_alt", rej & (h == 1)),
            ("accepted_null", ~rej & (h == 0)),
            ("accepted_alt", ~rej & (h == 1)),
        ):
            cols[name] += np.histogram(z[mask], bins=edges)[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,rejected_null,rejected_alt,"
                 "accepted_null,accepted_alt\n")
        for i in range(len(edges) - 1):
            fh.write(f"{float(edges[i])!r},{float(edges[i + 1])!r},"
                     f"{cols['rejected_null'][i]},{cols['rejected_alt'][i]},"
                     f"{cols['accepted_null'][i]},{cols['accepted_alt'][i]}\n")


@main.command()
@click.option("--scenario", default="A", show_default=True)
@click.option("--methods", default="bh,sbh,neurt_a,neurt_b", show_default=True,
              help="Comma-separated list.")
@click.option("--seeds", default="0:20", show_default=True,
              help="Either lo:hi (half-open) or a comma-separated list.")
@click.option("--alpha", default=0.1, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--n", "n_override", default=None, type=int)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@_training_options
@_config_file_option
def benchmark(scenario, methods, seeds, alpha, n_override, out_dir,
              **train_kwargs):
    """Run every (method, seed) cell and aggregate discoveries/FDP/power."""
    hidden = train_kwargs.pop("hidden")
    method_list = [m for m in (s.strip() for s in methods.split(",")) if m]
    seed_list = _parse_seeds(seeds)
    if not method_list:
        raise click.UsageError("methods list must not be empty")
    if not seed_list:
        raise click.UsageError("seeds list must not be empty")
    for m in method_list:
        if m not in _BASELINES + VARIANTS:
            raise click.UsageError(
                f"unknown method {m!r}; available: "
                f"{list(_BASELINES + VARIANTS)}"
            )
    try:
        scenario_config(scenario)
        config = _config_of_flags(0, train_kwargs)
    except FdrkitError as e:
        raise click.UsageError(str(e))

    os.makedirs(out_dir, exist_ok=True)
    results = {}
    try:
        for m in method_list:
            for s in seed_list:
                _log(f"running {m} seed={s}")
                results[(m, s)] = _benchmark_cell(
                    m, s, scenario, n_override, alpha, hidden, config)
    except FdrkitError as e:
        raise click.ClickException(str(e))

    per_seed_path = os.path.join(out_dir, "per_seed.csv")
    with open(per_seed_path, "w", encoding="utf-8") as fh:
        fh.write("method,seed,n,discoveries,fdp,power,seconds\n")
        for (m, s) in sorted(results):
            r = results[(m, s)]
            fh.write(f"{m},{s},{r['n']},{r['discoveries']},"
                     f"{r['fdp']!r},{r['power']!r},{r['seconds']:.3f}\n")

    bins = np.linspace(-10.0, 10.0, 81)
    aggregate = {}
    for m in method_list:
        rows = [results[(m, s)] for s in sorted(seed_list)]
        stats = {"mean_seconds": float(np.mean([r["seconds"] for r in rows]))}
        for key in ("discoveries", "fdp", "power"):
            values = [r[key] for r in rows]
            stats[f"mean_{key}"] = float(np.mean(values))
            stats[f"sd_{key}"] = (float(np.std(values, ddof=1))
                                  if len(rows) > 1 else 0.0)
        aggregate[m] = stats
        _write_histogram(os.path.join(out_dir, f"hist_{m}.csv"), rows, bins)

    payload = {
        "command": "benchmark",
        "scenario": scenario.upper(),
        "alpha": alpha,
        "seeds": sorted(seed_list),
        "methods": aggregate,
        "config_hash": _hash_config({
            "scenario": scenario.upper(), "alpha": alpha,
            "seeds": sorted(seed_list), "methods": sorted(method_list),
            "n": n_override, "hidden": list(hidden), **train_kwargs,
        }),
        "out_dir": str(out_dir),
    }
    with open(os.path.join(out_dir, "aggregate.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    _emit(payload)


@main.command()
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True),
              help="aggregate.json or a benchmark output directory.")
@click.option("--out", default=None, type=click.Path(writable=True),
              help="Also write the rendered table to this path.")
def report(in_path, out):
    """Render a benchmark aggregate as an aligned text table."""
    path = in_path
    if os.path.isdir(path):
        path = os.path.join(path, "aggregate.json")
        if not os.path.exists(path):
            raise click.UsageError(f"no aggregate.json under {in_path}")
    with open(path, "r", encoding="utf-8") as fh:
        agg = json.load(fh)
    methods = agg.get("methods", {})
    if not methods:
        raise click.ClickException("aggregate contains no methods")
    lines = [
        f"scenario {agg.get('scenario')} | alpha {agg.get('alpha')} | "
        f"seeds {len(agg.get('seeds', []))}",
        f"{'method':<10}{'discoveries':>14}{'fdp':>12}{'power':>12}",
    ]
    for name in sorted(methods):
        s = methods[name]
        lines.append(
            f"{name:<10}"
            f"{s['mean_discoveries']:>9.1f} ±{s['sd_discoveries']:<4.1f}"
            f"{s['mean_fdp']:>8.3f}"
            f"{s['mean_power']:>12.3f}"
        )
    text = "\n".join(lines)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    click.echo(text)


if __name__ == "__main__":
    main()
