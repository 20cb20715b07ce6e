"""The benchmark's traced call boundaries still exist in fdrkit.

The per-layer tracer skips a hook whose attribute is gone, so a rename
in fdrkit would read as zero time in a layer instead of failing. This
test looks each hook up the way the tracer does.
"""

import inspect
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.layers import hooks  # noqa: E402


def test_every_hook_attribute_exists():
    missing = [
        f"{getattr(h.owner, '__name__', h.owner)}.{h.attr}" for h in hooks()
        if (h.attr not in h.owner.__dict__ if isinstance(h.owner, type)
            else getattr(h.owner, h.attr, None) is None)
    ]
    assert not missing, f"benchmark hooks not found: {missing}"


def test_call_shapes_the_hooks_read():
    """The hooks read some arguments by position: ``x`` of ``forward`` and
    ``backward`` at index 1, ``grid_size`` of ``posterior_alt`` at index
    4 and the path of ``load_table`` at index 0. The settings of
    ``estimate_alternative`` cannot be passed by position at all."""
    from fdrkit import backward, estimate_alternative, forward, load_table
    from fdrkit import posterior_alt

    def names(fn, kind=inspect.Parameter.POSITIONAL_OR_KEYWORD):
        return [p.name for p in inspect.signature(fn).parameters.values()
                if p.kind == kind]

    assert names(forward)[1] == names(backward)[1] == "x"
    assert names(posterior_alt)[4] == "grid_size"
    assert names(load_table)[0] == "path"
    assert names(estimate_alternative) == ["z"]
    assert names(estimate_alternative, inspect.Parameter.KEYWORD_ONLY) == [
        "config", "seed", "f0_loc", "f0_scale"]
