"""Span arithmetic and wrapper restoration of the benchmark tracer."""

import types

import pytest

from perfbench.spans import Hook, Tracer


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_children_on_nested_spans():
    # a: 0..10 holds b: 1..4 and c: 5..9; c holds d: 6..7
    t = Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    with t.span("x.a"):
        with t.span("x.b"):
            pass
        with t.span("y.c"):
            with t.span("y.d"):
                pass
    assert [s.parent for s in t.spans] == [None, 0, 0, 2]
    assert t.self_times() == [3, 3, 3, 1]
    assert t.self_by_prefix() == {"x": 6, "y": 4}
    assert t.covered() == 10
    assert sum(t.self_times()) == t.covered()


def test_busy_counts_nested_spans_of_one_name_once():
    # outer f: 0..10 holds g: 2..8, which holds another f: 3..5
    t = Tracer(clock=fake_clock([0, 2, 3, 5, 8, 10, 20, 21]))
    with t.span("m.f"):
        with t.span("m.g"):
            with t.span("m.f"):
                pass
    with t.span("m.f"):
        pass
    assert t.busy("m.f") == 11
    assert t.busy("m.g") == 6
    assert t.busy_layer("m") == 11


def _module():
    mod = types.SimpleNamespace()
    mod.double = lambda x: 2 * x
    return mod


class Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return -x


def test_wrappers_trace_calls_and_restore_the_originals():
    mod = _module()
    originals = (mod.double, Thing.__dict__["method"], Thing.__dict__["make"],
                 Thing.__dict__["helper"])
    hooks = [
        Hook(mod, "double", "mod.double", lambda a, k, r: {"mod.items": a[0]}),
        Hook(Thing, "method", "thing.method"),
        Hook(Thing, "make", "thing.make"),
        Hook(Thing, "helper", "thing.helper", timed=False),
        Hook(mod, "gone", "mod.gone"),
    ]
    t = Tracer()
    with t.patched(hooks):
        assert mod.double is not originals[0]
        assert mod.double(3) == 6
        assert Thing().method(1) == 2
        assert Thing.make(5) == (Thing, 5)
        assert Thing.helper(4) == -4
    assert (mod.double, Thing.__dict__["method"], Thing.__dict__["make"],
            Thing.__dict__["helper"]) == originals
    assert [s.name for s in t.spans] == ["mod.double", "thing.method",
                                         "thing.make"]
    assert t.counts["mod.items"] == 3
    assert t.counts["thing.helper.calls"] == 1
    assert t.missing == ["mod.gone (gone)"]


def test_wrappers_are_restored_when_the_traced_code_raises():
    mod = _module()
    original = mod.double
    with pytest.raises(ZeroDivisionError):
        with Tracer().patched([Hook(mod, "double", "mod.double")]):
            mod.double(1 / 0)
    assert mod.double is original


def test_package_hooks_are_restored():
    from perfbench import layers

    before = [(h.owner, h.attr, h.owner.__dict__[h.attr]
               if isinstance(h.owner, type) else getattr(h.owner, h.attr))
              for h in layers.hooks()]
    t = Tracer()
    with t.patched(layers.hooks()):
        pass
    assert t.missing == []
    for owner, attr, raw in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is raw
