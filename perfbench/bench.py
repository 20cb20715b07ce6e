"""Measurement loop, environment record and report of one benchmark run.

A run sets the workload up ``SETUP_REPS`` times, then repeats its pass
until ``seconds`` have gone by (at least once). With ``trace`` on,
untraced and traced passes alternate, so the tracing overhead is
measured in the same process; end-to-end numbers always come from the
untraced passes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import BLAS_THREAD_VARS, layers
from .spans import Tracer
from .workloads import WORKLOADS, Op

SETUP_REPS = 3

#: (name, unit) of the end-to-end metrics every workload reports
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "rows/s"),
    ("fit_s", "s"),
    ("peak_rss_mb", "MB"),
    ("power", "ratio"),
    ("precision", "ratio"),
)


@dataclass
class Pass:
    traced: bool
    wall: float
    ops: list[Op]
    tracer: Tracer | None


@dataclass
class Record:
    setup_times: list[float]
    setup_ops: list[Op]
    setup_tracer: Tracer | None
    passes: list[Pass]

    @property
    def untraced(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]

    @property
    def ops(self) -> list[Op]:
        return [op for p in self.passes for op in p.ops]

    def samples(self, kind: str) -> list[float]:
        """Seconds per untraced operation of one kind (set-up fits too)."""
        ops = [op for p in self.untraced for op in p.ops] + self.setup_ops
        return [op.seconds for op in ops if op.kind == kind]

    def neurt_mean(self, key: str) -> float:
        vals = [op.result[key] for op in self.passes[0].ops
                if op.name.startswith("neurt") and key in op.result]
        return float(np.mean(vals)) if vals else math.nan


def _git_sha(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "FDRKIT_THREADS": os.environ.get("FDRKIT_THREADS"),
        "workload_seed": seed,
    }


def _median(values: list[float]) -> float:
    v = [x for x in values if math.isfinite(x)]
    return statistics.median(v) if v else math.nan


def _stats(values: list[float]) -> str:
    v = sorted(x for x in values if math.isfinite(x))
    return f"median of {len(v)}, max {v[-1]:.4g}" if v else "no samples"


def _patched(tracer: Tracer | None):
    return tracer.patched(layers.hooks()) if tracer else contextlib.nullcontext()


def _setup(workload, seed: int, work: str, tracer: Tracer | None):
    os.makedirs(work)
    t0 = time.perf_counter()
    with _patched(tracer):
        state = workload.setup(work, seed, tracer)
    return time.perf_counter() - t0, state


def measure(workload, seed: int, seconds: float, trace: bool,
            work: str) -> Record:
    """Set up, run the passes and check them.

    The first set-up feeds the passes; the others run after the passes,
    so the median set-up time samples the whole run.
    """
    setup_tracer = Tracer() if trace else None
    setup_time, state = _setup(workload, seed, os.path.join(work, "setup0"),
                               setup_tracer)
    rec = Record([setup_time], list(state["ops"]), setup_tracer, [])

    start = time.perf_counter()
    while (not rec.passes or time.perf_counter() - start < seconds
           or (trace and len(rec.passes) < 2)):
        traced = trace and len(rec.passes) % 2 == 1
        out = os.path.join(work, f"pass{len(rec.passes)}")
        os.makedirs(out)
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        with _patched(tracer):
            ops = workload.run_pass(state, out, tracer)
        wall = time.perf_counter() - t0
        workload.check(state, out, ops)
        if rec.passes:
            for op, first in zip(ops, rec.passes[0].ops):
                if not op.errors and op.result != first.result:
                    op.errors.append("outputs differ from the first pass")
        rec.passes.append(Pass(traced, wall, ops, tracer))
        shutil.rmtree(out)

    for rep in range(1, SETUP_REPS):
        rep_dir = os.path.join(work, f"setup{rep}")
        setup_time, rep_state = _setup(workload, seed, rep_dir, None)
        rec.setup_times.append(setup_time)
        rec.setup_ops += rep_state["ops"]
        shutil.rmtree(rep_dir)
    return rec


def end_to_end(workload, rec: Record) -> dict:
    wall = _median([p.wall for p in rec.untraced])
    return {
        "setup_s": _median(rec.setup_times),
        "wall_s": wall,
        "rows_per_s": workload.rows / wall,
        "fit_s": _median(rec.samples("fit")),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "power": rec.neurt_mean("power"),
        "precision": 1.0 - rec.neurt_mean("fdp"),
    }


def per_layer(rec: Record) -> dict:
    traced = [p for p in rec.passes if p.traced]
    rows = [layers.summarize(p.tracer, p.wall) for p in traced]
    out = {name: _median([r[name] for r in rows]) for name in rows[0]}
    out["trace.overhead"] = (_median([p.wall for p in traced])
                             / _median([p.wall for p in rec.untraced]) - 1.0)
    out["setup.data_model.write_table.s"] = rec.setup_tracer.busy(
        "data_model.write_table")
    return out


def report(workload, env: dict, rec: Record, e2e: dict,
           layer_metrics: dict | None) -> list[str]:
    """Human-readable lines: environment, every end-to-end metric with its
    unit and sample count, failed operations and, when traced, the
    per-layer tables and metrics."""
    lines = [f"perfbench {workload.name}: {len(rec.untraced)} untraced and "
             f"{len(rec.passes) - len(rec.untraced)} traced passes, "
             f"{workload.rows} rows per pass",
             "environment " + json.dumps(env, sort_keys=True),
             "end-to-end (untraced passes):"]
    samples = {"setup_s": rec.setup_times,
               "wall_s": [p.wall for p in rec.untraced],
               "fit_s": rec.samples("fit")}
    for name, unit in END_TO_END:
        note = f"  ({_stats(samples[name])})" if name in samples else ""
        lines.append(f"  {name:<14}{e2e[name]:>14.6g} {unit}{note}")
    for kind in ("discover", "baseline"):
        v = rec.samples(kind)
        lines.append(f"  {kind + '_s':<14}{_median(v):>14.6g} s  "
                     f"({_stats(v)}; report only)")
    failed = [op for op in rec.ops if op.errors]
    lines.append(f"  {'fdp':<14}{rec.neurt_mean('fdp'):>14.6g} ratio  "
                 "(report only)")
    lines.append(f"  {'failed_frac':<14}{len(failed) / len(rec.ops):>14.6g} "
                 f"ratio  ({len(failed)} of {len(rec.ops)} operations)")
    for op in failed:
        lines.append(f"  FAILED {op.kind} {op.name}: {'; '.join(op.errors)}")
    if layer_metrics is None:
        return lines
    first = next(p for p in rec.passes if p.traced)
    lines.append(f"first traced pass, {first.wall:.3f} s:")
    lines += layers.layer_table(first.tracer, first.wall)
    if first.tracer.missing:
        lines.append("  hooks not found: " + ", ".join(first.tracer.missing))
    lines.append(f"first set-up, traced, {rec.setup_times[0]:.3f} s:")
    lines += layers.layer_table(rec.setup_tracer, rec.setup_times[0])
    lines.append("per-layer metrics (median over traced passes):")
    for name, unit in layers.PER_LAYER:
        lines.append(f"  {name:<38}{layer_metrics[name]:>16.6g} {unit}")
    return lines


def run(root: str, workload_name: str, seed: int, seconds: float,
        trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    env = environment(root, seed)
    base = os.path.join(root, ".perfbench_work")
    work = os.path.join(base, f"{workload.name}-{os.getpid()}")
    try:
        rec = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(base)
    e2e = end_to_end(workload, rec)
    layer_metrics = per_layer(rec) if trace else None
    for line in report(workload, env, rec, e2e, layer_metrics):
        print(line)
    threads_ok = threading.active_count() <= env["nproc"] and all(
        int(v or 1) <= env["nproc"] for v in env["blas_threads"].values())
    if not threads_ok:
        print("more threads than processors")
    metrics, units = ((layer_metrics, dict(layers.PER_LAYER)) if trace
                      else (e2e, dict(END_TO_END)))
    finite = {k: v for k, v in metrics.items() if math.isfinite(v)}
    failed = sum(1 for op in rec.ops if op.errors)
    print(json.dumps({
        "correct": failed == 0 and threads_ok and len(finite) == len(metrics),
        "attempted": len(rec.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in finite.items()},
    }), flush=True)
    return 0
