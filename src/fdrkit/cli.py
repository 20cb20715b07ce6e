"""Batch command-line interface.

Subcommands: ``simulate`` (draw a synthetic table), ``fit`` (train a
model), ``discover`` (produce a rejection set and run report),
``benchmark`` (grid of methods x seeds with aggregate statistics) and
``report`` (render an aggregate as a table). Machine-readable JSON goes
to stdout or ``--out``; human logs go to stderr. Every command is
deterministic given its flags.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import pickle
import stat
import time
from collections import Counter
from dataclasses import asdict, replace
from functools import partial

import click
import numpy as np

from . import __version__
from .baselines import bh, storey_bh, z_to_pvalue
from .data_model import _part_edges, _run_parts, load_table, write_table
from .errors import FdrkitError
from .prior_net import NetworkConfig
from .synthetic import SCENARIOS, generate, scenario_config
from .two_groups import (
    VARIANTS,
    FittedModel,
    TrainingConfig,
    fdp_power,
    posteriors,
    select_discoveries,
    train,
)

_BASELINES = ("bh", "sbh")
_METHODS = _BASELINES + tuple(VARIANTS)


def _hash_config(d: dict) -> str:
    payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _emit(payload: dict, log=None, out_path=None):
    """Write ``payload`` to ``out_path``, if given, before printing
    ``log`` to stderr and ``payload`` to stdout."""
    text = json.dumps(payload, sort_keys=True, indent=1)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if log:
        _log(log)
    click.echo(text)


def _log(msg: str):
    click.echo(msg, err=True)


def _check_output_dirs(*paths):
    """Before any work, raise the ``OSError`` that opening one of
    ``paths`` (None where an output is not asked for) would raise for a
    directory that is missing or is not a directory."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or os.curdir
        try:
            is_dir = stat.S_ISDIR(os.stat(folder).st_mode)
        except OSError as err:
            raise OSError(err.errno, err.strerror, path) from None
        if not is_dir:
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _config_file_option(f):
    def callback(ctx, param, value):
        if value:
            with open(value, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            types = {p.name: p.type for p in ctx.command.params
                     if p.expose_value}
            accepted = sorted(types)
            if not isinstance(loaded, dict):
                raise click.UsageError(
                    f"--config {value} must hold a JSON object; "
                    f"accepted keys: {accepted}")
            unknown = sorted(set(loaded) - set(accepted))
            if unknown:
                raise click.UsageError(
                    f"unknown key(s) {unknown} in --config {value}; "
                    f"accepted keys: {accepted}")
            for key, v in loaded.items():  # click's INT would truncate v
                if (isinstance(types[key], click.types.IntParamType)
                        and isinstance(v, (bool, float))):
                    raise click.UsageError(
                        f"{key} in --config {value} must be an integer, "
                        f"not {json.dumps(v)}")
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
        opt("--f1-sweeps", "Averaging passes of the alternative estimator."),
    ]):
        f = option(f)
    return f


def _config_of_flags(seed, flags: dict) -> TrainingConfig:
    return TrainingConfig(
        seed=seed, **{_FIELD_OF_FLAG.get(k, k): v for k, v in flags.items()})


class _Commands(click.Group):
    """A file a command cannot open, or an ``FdrkitError`` once its work
    has started, is one ``Error:`` line, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as err:
            if err.filename is None:  # e.g. a closed pipe on stdout
                raise
            raise click.ClickException(
                f"{err.filename}: {err.strerror}") from None
        except FdrkitError as err:
            raise click.ClickException(str(err)) from None


@click.group(cls=_Commands)
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
    try:
        cfg = scenario_config(scenario, seed=seed, n=n_override)
    except FdrkitError as e:
        raise click.UsageError(str(e))
    _check_output_dirs(out)
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
    _emit(payload, f"wrote {table.n} rows to {out}")


@main.command()
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--variant", default="a", show_default=True,
              type=click.Choice([v.removeprefix("neurt_") for v in VARIANTS]))
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
    _check_output_dirs(out)
    table = load_table(in_path)
    if table.q == 0:
        _log("warning: table has no auxiliary columns; "
             "the Stage II adjustment will be skipped")
    t0 = time.perf_counter()
    model = train(table, config, variant=f"neurt_{variant}",
                  hidden_sizes=hidden)
    seconds = time.perf_counter() - t0
    model.save(out)
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
    _emit(payload, f"fitted {model.variant} in {seconds:.1f}s "
                   f"(best val NLL {model.train_log['best_val_nll']:.5f})")


def _discoveries(method, table, alpha, model=None, sidedness="two_sided",
                 lambda0=0.5):
    """The discoveries of ``method``: the step-down selection on
    ``model``'s posteriors when a model is given, else the ``bh`` or
    ``sbh`` baseline (``benchmark`` runs its defaults)."""
    if model is not None:
        return select_discoveries(posteriors(model, table), alpha)
    p = z_to_pvalue(table.z, sidedness=sidedness)
    if method == "bh":
        return bh(p, alpha)
    return storey_bh(p, alpha, lambda0=lambda0)


@main.command()
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", default="neurt", show_default=True,
              type=click.Choice(("neurt",) + _BASELINES))
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
    _check_output_dirs(out, report_path)
    if method == "neurt" and model_path is None:
        raise click.UsageError("--method neurt requires --model")
    t0 = time.perf_counter()
    # the model comes first: it says which covariate blocks to parse
    model = FittedModel.load(model_path) if method == "neurt" else None
    table = load_table(in_path,
                       blocks=() if model is None else model.covariate_blocks)
    ds = _discoveries(method, table, alpha, model, sidedness, lambda0)
    ds.write_csv(out, ids=table.ids)
    seconds = time.perf_counter() - t0
    payload = {
        "command": "discover",
        "method": method,
        "alpha": alpha,
        "n": table.n,
        "discoveries": ds.n_rejected,
        "seconds": round(seconds, 3),
        "seed": None if model is None else model.config.seed,
        "config_hash": _hash_config({
            "method": method, "alpha": alpha, "sidedness": sidedness,
            "lambda0": lambda0,
        }),
        "out": str(out),
    }
    if table.h_truth is not None:
        fdp, power, counts = fdp_power(ds, table.h_truth)
        payload.update({"fdp": fdp, "power": power, "counts": counts})
    _emit(payload, f"{method}: {ds.n_rejected} discoveries at alpha={alpha}",
          report_path)


def _benchmark_cell(cell, scenario, n_override, alpha, hidden, config):
    method, seed = cell
    _log(f"running {method} seed={seed}")
    table = generate(scenario_config(scenario, seed=seed, n=n_override))
    t0 = time.perf_counter()
    model = None
    if method not in _BASELINES:
        model = train(table, replace(config, seed=seed),
                      variant=method, hidden_sizes=hidden)
    ds = _discoveries(method, table, alpha, model)
    seconds = time.perf_counter() - t0
    fdp, power, _ = fdp_power(ds, table.h_truth)
    return {
        "method": method, "seed": seed, "n": table.n,
        "discoveries": ds.n_rejected, "fdp": fdp, "power": power,
        "seconds": seconds,
        "z": table.z, "rejected_mask": ds.rejected_mask(),
        "h": table.h_truth,
    }


def _run_cells(out, lo, hi, cells, **settings):
    """Run ``cells[lo:hi]`` and pickle each result onto ``out``."""
    for cell in cells[lo:hi]:
        pickle.dump(_benchmark_cell(cell, **settings), out)


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in text.split(",")] if text else []
    except ValueError:
        raise click.UsageError(
            f"--seeds {text!r} is neither lo:hi (half-open) nor a "
            f"comma-separated list of integers") from None
    if min(seeds, default=0) < 0:
        raise click.UsageError(f"--seeds {text!r}: seeds must be non-negative")
    return seeds


def _write_histogram(path, cells, edges):
    """Pooled z-histogram split by rejection status and truth."""
    cols = {}
    for cell in cells:
        z, rej, h = cell["z"], cell["rejected_mask"], cell["h"]
        for name, mask in (
            ("rejected_null", rej & (h == 0)),
            ("rejected_alt", rej & (h == 1)),
            ("accepted_null", ~rej & (h == 0)),
            ("accepted_alt", ~rej & (h == 1)),
        ):
            cols[name] = cols.get(name, 0) + np.histogram(z[mask], edges)[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["bin_left", "bin_right", *cols]) + "\n")
        for lo, hi, row in zip(edges[:-1], edges[1:],
                               np.column_stack(list(cols.values()))):
            fh.write(",".join([repr(float(lo)), repr(float(hi)),
                               *map(str, row)]) + "\n")


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
    for flag, values in (("--methods", method_list), ("--seeds", seed_list)):
        if not values:
            raise click.UsageError(f"{flag} list must not be empty")
        repeated = sorted(v for v, count in Counter(values).items()
                          if count > 1)
        if repeated:
            raise click.UsageError(f"{flag} repeats {repeated}")
    for m in method_list:
        if m not in _METHODS:
            raise click.UsageError(
                f"unknown method {m!r}; available: {list(_METHODS)}")
    try:
        scenario_config(scenario, n=n_override)
        config = _config_of_flags(0, train_kwargs)
    except FdrkitError as e:
        raise click.UsageError(str(e))

    os.makedirs(out_dir, exist_ok=True)
    # the fits run in parts, one per usable CPU and at most one per fit,
    # so no part trains more than one more model than another; seed-major,
    # so a part's fits mix the methods. The baselines take milliseconds
    # and run first, in this process.
    cells = [(m, s) for s in seed_list for m in method_list]
    fits = [c for c in cells if c[0] not in _BASELINES]
    processes = len(_part_edges(len(fits), 1)) - 1
    _log(f"running {len(cells)} cells " + (
        f"on {processes} worker processes" if processes > 1
        else "in this process"))
    settings = dict(scenario=scenario, n_override=n_override, alpha=alpha,
                    hidden=hidden, config=config)
    done = [_benchmark_cell(c, **settings) for c in cells
            if c[0] in _BASELINES]
    pickled = io.BytesIO()
    _run_parts(partial(_run_cells, cells=fits, **settings), len(fits), 1,
               pickled)
    pickled.seek(0)
    done += [pickle.load(pickled) for _ in fits]
    results = {(r["method"], r["seed"]): r for r in done}

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
    _emit(payload, out_path=os.path.join(out_dir, "aggregate.json"))


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
    try:
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
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise click.ClickException(f"{path}: not a valid aggregate "
                                   f"({type(err).__name__}: {err})") from None
    text = "\n".join(lines)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    click.echo(text)


if __name__ == "__main__":
    main()
