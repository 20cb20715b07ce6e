"""Call boundaries of fdrkit's modules and the per-layer metrics.

Each hook wraps a callable where its caller looks it up, so no source
file of the package changes. The layers are the package's modules; a
span's layer is the first dotted part of its name.
"""

from __future__ import annotations

import os

import numpy as np

from fdrkit import cli, two_groups
from fdrkit.baselines import DiscoverySet
from fdrkit.data_model import CovariateScaling
from fdrkit.densities import RecursionConfig
from fdrkit.two_groups import FittedModel

from .spans import Hook, Tracer

LAYERS = ("cli", "synthetic", "data_model", "densities", "prior_net",
          "two_groups", "aux_adjust", "baselines")

#: (metric, unit) in report order. ``.s`` is busy time (child spans
#: included), ``.self_s`` excludes child spans; values are per pass.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("synthetic.generate.s", "s"),
    ("data_model.load_table.s", "s"),
    ("data_model.load_table.bytes_per_s", "B/s"),
    ("data_model.standardize.s", "s"),
    ("densities.estimate_alternative.s", "s"),
    ("densities.estimate_alternative.calls", "count"),
    ("densities.recursion_updates", "count"),
    ("densities.updates_per_s", "1/s"),
    ("densities.eval_density.s", "s"),
    ("prior_net.forward.s", "s"),
    ("prior_net.forward.rows", "count"),
    ("prior_net.backward.s", "s"),
    ("prior_net.backward.rows", "count"),
    ("prior_net.rows_per_s", "rows/s"),
    ("two_groups.train.self_s", "s"),
    ("two_groups.train.epochs", "count"),
    ("two_groups.train.batches", "count"),
    ("two_groups.posterior_alt.s", "s"),
    ("two_groups.posterior_alt.cells", "count"),
    ("two_groups.posteriors.s", "s"),
    ("two_groups.select_discoveries.s", "s"),
    ("two_groups.model_io.s", "s"),
    ("aux_adjust.s", "s"),
    ("baselines.s", "s"),
    ("baselines.write_csv.s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("setup.data_model.write_table.s", "s"),
)


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _rows(key):
    def work(args, kwargs, result):
        x = np.asarray(args[1])
        return {key: 1 if x.ndim < 2 else x.shape[0]}
    return work


def _updates(args, kwargs, result):
    config = _arg(args, kwargs, 2, "config", RecursionConfig())
    return {"densities.recursion_updates":
            np.asarray(args[0]).size * config.sweeps}


def _epochs(args, kwargs, result):
    return {"two_groups.train.epochs": len(result.train_log["epochs"]) - 1}


def _cells(args, kwargs, result):
    grid = _arg(args, kwargs, 4, "grid_size", 1000)
    return {"two_groups.posterior_alt.cells": np.asarray(args[0]).size * grid}


def _table_bytes(args, kwargs, result):
    return {"data_model.load_table.bytes": os.path.getsize(args[0])}


def hooks() -> list[Hook]:
    """Every traced call boundary, at the name its caller uses."""
    fwd = _rows("prior_net.forward.rows")
    return [
        Hook(cli, "generate", "synthetic.generate"),
        Hook(cli, "load_table", "data_model.load_table", _table_bytes),
        Hook(cli, "write_table", "data_model.write_table"),
        Hook(two_groups, "standardize_covariates", "data_model.standardize"),
        Hook(CovariateScaling, "apply", "data_model.standardize"),
        Hook(two_groups, "estimate_alternative",
             "densities.estimate_alternative", _updates),
        Hook(two_groups, "eval_density", "densities.eval_density"),
        Hook(two_groups, "forward", "prior_net.forward", fwd),
        Hook(two_groups, "_forward_cached", "prior_net.forward", fwd),
        Hook(two_groups, "backward", "prior_net.backward",
             _rows("prior_net.backward.rows")),
        Hook(cli, "train", "two_groups.train", _epochs),
        Hook(two_groups, "_loss_and_grads", "two_groups.train.batch",
             timed=False),
        Hook(two_groups, "posterior_alt", "two_groups.posterior_alt", _cells),
        Hook(cli, "posteriors", "two_groups.posteriors"),
        Hook(cli, "select_discoveries", "two_groups.select_discoveries"),
        Hook(FittedModel, "save", "two_groups.model_io"),
        Hook(FittedModel, "load", "two_groups.model_io"),
        Hook(two_groups, "fit_bivariate_ols", "aux_adjust.fit_bivariate_ols"),
        Hook(two_groups, "adjust", "aux_adjust.adjust"),
        Hook(cli, "z_to_pvalue", "baselines.z_to_pvalue"),
        Hook(cli, "bh", "baselines.bh"),
        Hook(cli, "storey_bh", "baselines.storey_bh"),
        Hook(DiscoverySet, "write_csv", "baselines.write_csv"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def summarize(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass of ``wall`` seconds."""
    c, busy = tracer.counts, tracer.busy
    by_layer = tracer.self_by_prefix()
    fwd_s, bwd_s = busy("prior_net.forward"), busy("prior_net.backward")
    f1_s = busy("densities.estimate_alternative")
    load_s = busy("data_model.load_table")
    out = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "synthetic.generate.s": busy("synthetic.generate"),
        "data_model.load_table.s": load_s,
        "data_model.load_table.bytes_per_s":
            _ratio(c["data_model.load_table.bytes"], load_s),
        "data_model.standardize.s": busy("data_model.standardize"),
        "densities.estimate_alternative.s": f1_s,
        "densities.estimate_alternative.calls":
            c["densities.estimate_alternative.calls"],
        "densities.recursion_updates": c["densities.recursion_updates"],
        "densities.updates_per_s":
            _ratio(c["densities.recursion_updates"], f1_s),
        "densities.eval_density.s": busy("densities.eval_density"),
        "prior_net.forward.s": fwd_s,
        "prior_net.forward.rows": c["prior_net.forward.rows"],
        "prior_net.backward.s": bwd_s,
        "prior_net.backward.rows": c["prior_net.backward.rows"],
        "prior_net.rows_per_s": _ratio(
            c["prior_net.forward.rows"] + c["prior_net.backward.rows"],
            fwd_s + bwd_s),
        "two_groups.train.self_s": sum(
            t for s, t in zip(tracer.spans, tracer.self_times())
            if s.name == "two_groups.train"),
        "two_groups.train.epochs": c["two_groups.train.epochs"],
        "two_groups.train.batches": c["two_groups.train.batch.calls"],
        "two_groups.posterior_alt.s": busy("two_groups.posterior_alt"),
        "two_groups.posterior_alt.cells": c["two_groups.posterior_alt.cells"],
        "two_groups.posteriors.s": busy("two_groups.posteriors"),
        "two_groups.select_discoveries.s":
            busy("two_groups.select_discoveries"),
        "two_groups.model_io.s": busy("two_groups.model_io"),
        "aux_adjust.s": tracer.busy_layer("aux_adjust"),
        "baselines.s": sum(busy(f"baselines.{f}")
                           for f in ("z_to_pvalue", "bh", "storey_bh")),
        "baselines.write_csv.s": busy("baselines.write_csv"),
        "trace.unattributed_s": wall - tracer.covered(),
        "trace.wall_s": wall,
    })
    return out


def layer_table(tracer: Tracer, wall: float) -> list[str]:
    """Report lines: spans, busy and self seconds and share per layer."""
    spans: dict[str, int] = {}
    for s in tracer.spans:
        layer = s.name.split(".", 1)[0]
        spans[layer] = spans.get(layer, 0) + 1
    selfs = tracer.self_by_prefix()
    lines = [f"  {'layer':<14}{'spans':>8}{'busy_s':>10}{'self_s':>10}"
             f"{'share':>8}"]
    for layer in LAYERS:
        t = selfs.get(layer, 0.0)
        lines.append(f"  {layer:<14}{spans.get(layer, 0):>8}"
                     f"{tracer.busy_layer(layer):>10.3f}{t:>10.3f}"
                     f"{_ratio(t, wall):>8.1%}")
    un = wall - tracer.covered()
    lines.append(f"  {'unattributed':<14}{'':>8}{'':>10}{un:>10.3f}"
                 f"{_ratio(un, wall):>8.1%}")
    return lines
