"""The benchmark's traced call boundaries still exist in fdrkit.

The per-layer tracer skips a hook whose attribute is gone, so a rename
in fdrkit would read as zero time in a layer instead of failing. This
test looks each hook up the way the tracer does.
"""

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
