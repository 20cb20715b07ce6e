"""Small versions of the workloads: tracing must not change any answer."""

import pytest

from perfbench import layers
from perfbench.spans import Tracer
from perfbench.workloads import Battery, FitLarge, ScoreLarge

SMALL = [
    Battery(n=1000, epochs=3, hidden="16,16"),
    FitLarge(n=1000, epochs=2, hidden="16,16"),
    ScoreLarge(n=1500, n_fit=1000, epochs=3, hidden="16,16"),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_passes_give_identical_outputs(workload, tmp_path):
    setup = tmp_path / "setup"
    setup.mkdir()
    state = workload.setup(str(setup), seed=11)
    runs = []
    for traced in (False, True):
        out = tmp_path / f"pass_{traced}"
        out.mkdir()
        tracer = Tracer()
        if traced:
            with tracer.patched(layers.hooks()):
                ops = workload.run_pass(state, str(out), tracer)
        else:
            ops = workload.run_pass(state, str(out))
        workload.check(state, str(out), ops)
        runs.append((ops, tracer))
    (plain, _), (traced_ops, tracer) = runs
    # tiny fits may miss the battery's FDP bound; every other check passes
    assert all(e.startswith("mean neurt FDP") for op in plain for e in op.errors)
    assert [op.errors for op in traced_ops] == [op.errors for op in plain]
    assert [op.result for op in traced_ops] == [op.result for op in plain]
    assert any("fdp" in op.result for op in plain)
    assert tracer.spans and tracer.missing == []
    metrics = layers.summarize(tracer, tracer.covered())
    assert metrics["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-9)
