"""Run one fdrkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; fdrkit is imported from its
``src`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fdrkit", "__init__.py")):
        print(f"perfbench: no fdrkit sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import BLAS_THREAD_VARS

    # serial path: no benchmark thread pool, one BLAS thread; set before
    # numpy is first imported
    os.environ.pop("FDRKIT_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import fdrkit

    if os.path.dirname(os.path.abspath(fdrkit.__file__)) != os.path.join(src, "fdrkit"):
        print(f"perfbench: fdrkit was imported from {fdrkit.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(bench.WORKLOADS)}")
    return bench.run(ROOT, args.workload, args.seed, args.seconds,
                     bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
