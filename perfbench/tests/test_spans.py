"""Span bookkeeping: totals, self time, re-entry and restoring patches."""

import types

from spans import Patches, Tracer


def test_self_time_is_span_time_minus_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 6.0, 0],
    ]
    summary = tracer.summary()
    assert summary["outer"].seconds == 10.0
    assert summary["outer"].self_seconds == 6.0
    assert summary["inner"].seconds == 4.0
    assert summary["inner"].self_seconds == 3.0
    assert summary["inner"].calls == 2
    assert summary["leaf"].self_seconds == 1.0


def test_calls_nest_and_direct_reentry_is_one_span():
    tracer = Tracer()

    def recurse(depth):
        return tracer.call("layer", recurse, depth - 1) if depth else "done"

    assert tracer.call("root", recurse, 3) == "done"
    names = [span[0] for span in tracer.spans]
    assert names == ["root", "layer"]
    assert tracer.spans[1][3] == 0


def test_patches_restore_inherited_and_module_attributes():
    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    module = types.SimpleNamespace(fn=lambda: "original")
    with Patches() as patches:
        patches.replace(Child, "step", lambda self: "patched")
        patches.replace(module, "fn", lambda: "patched")
        assert Child().step() == "patched"
        assert module.fn() == "patched"
    assert "step" not in vars(Child)
    assert Child().step() == "base"
    assert module.fn() == "original"
