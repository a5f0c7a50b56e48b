"""Tests for the benchmark's tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.boundaries import LAYERS, Boundary, boundaries  # noqa: E402
from perfbench.tracer import (ROOT_LAYER, LayerTracer, Patch,  # noqa: E402
                              _resolve, percentiles)


class FakeClock:
    """A clock the code under test advances explicitly."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def _tracer(clock):
    return LayerTracer(["sql", "exec", "storage"], clock=clock)


def test_nested_self_time_is_duration_minus_wrapped_children():
    clock = FakeClock()
    tracer = _tracer(clock)

    def leaf():
        clock.spend(3)

    def middle():
        clock.spend(5)
        leaf()
        clock.spend(2)

    def outer():
        clock.spend(10)
        middle()
        clock.spend(4)

    leaf = tracer.wrap(leaf, "storage", "leaf")
    middle = tracer.wrap(middle, "exec", "middle")
    outer = tracer.wrap(outer, "sql", "outer")

    tracer.start()
    clock.spend(1)
    outer()
    clock.spend(6)
    tracer.stop()

    self_us = {k: v * 1000 for k, v in tracer.self_us().items()}
    durations = {"sql": 24, "exec": 10, "storage": 3}
    assert self_us["storage"] == durations["storage"]
    assert self_us["exec"] == durations["exec"] - durations["storage"]
    assert self_us["sql"] == durations["sql"] - durations["exec"]
    assert self_us[ROOT_LAYER] == 7
    assert sum(tracer.self_ns) == tracer.region_ns == 31
    assert tracer.span_counts() == {ROOT_LAYER: 0, "sql": 1, "exec": 1,
                                    "storage": 1}


def test_same_layer_calls_count_but_push_no_span():
    clock = FakeClock()
    tracer = _tracer(clock)

    def inner():
        clock.spend(2)

    inner = tracer.wrap(inner, "exec", "inner")

    def outer():
        inner()
        inner()

    outer = tracer.wrap(outer, "exec", "outer")
    tracer.start()
    outer()
    tracer.stop()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.span_counts()["exec"] == 1
    assert tracer.self_ns[tracer.layers.index("exec")] == 4


def test_generator_steps_are_charged_to_the_layer_that_made_it():
    clock = FakeClock()
    tracer = _tracer(clock)

    def rows():
        for i in range(3):
            clock.spend(5)
            yield i

    rows = tracer.wrap(rows, "exec", "rows")

    def drain():
        out = []
        for row in rows():
            clock.spend(1)
            out.append(row)
        return out

    drain = tracer.wrap(drain, "sql", "drain")
    tracer.start()
    assert drain() == [0, 1, 2]
    tracer.stop()
    self_us = tracer.self_us()
    assert self_us["exec"] * 1000 == 15
    assert self_us["sql"] * 1000 == 3


def test_iter_args_keeps_a_passed_in_stream_with_its_caller():
    clock = FakeClock()
    tracer = _tracer(clock)

    def instrument(stream):
        def counted():
            for item in stream:
                clock.spend(1)
                yield item
        return counted()

    instrument = tracer.wrap(instrument, "storage", "instrument",
                             iter_args=True)

    def produce():
        def gen():
            for i in range(4):
                clock.spend(10)
                yield i
        return list(instrument(gen()))

    produce = tracer.wrap(produce, "exec", "produce")
    tracer.start()
    assert produce() == [0, 1, 2, 3]
    tracer.stop()
    self_us = tracer.self_us()
    assert self_us["exec"] * 1000 == 40
    assert self_us["storage"] * 1000 == 4


def test_probe_sums_amounts_and_untimed_boundaries_only_count():
    clock = FakeClock()
    tracer = _tracer(clock)

    def write(rows):
        clock.spend(7)
        return len(rows)

    def probe(args, result):
        yield "rows", result

    write = tracer.wrap(write, "storage", "write", probe=probe)
    tick = tracer.wrap(lambda: clock.spend(2), "exec", "tick", timed=False)
    tracer.start()
    write([1, 2, 3])
    write([4])
    tick()
    tracer.stop()
    assert tracer.probes == {"rows": 4}
    assert tracer.calls["tick"] == 1
    assert tracer.self_us()["storage"] * 1000 == 14
    assert tracer.self_us()["exec"] == 0
    assert tracer.self_us()[ROOT_LAYER] * 1000 == 2


def test_wrappers_pass_through_while_the_tracer_is_off():
    clock = FakeClock()
    tracer = _tracer(clock)
    double = tracer.wrap(lambda x: 2 * x, "sql", "double")
    assert double(4) == 8
    assert tracer.calls["double"] == 0
    assert sum(tracer.self_ns) == 0


_FAKE_MODULE = """
def helper(x):
    return x + 1


class Thing:
    def method(self):
        return helper(1)

    @staticmethod
    def static():
        return 3

    @property
    def prop(self):
        return 5
"""


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    exec(_FAKE_MODULE, mod.__dict__)
    other = types.ModuleType("fakepkg.other")
    other.helper = mod.helper      # as if ``from fakepkg.mod import helper``
    return {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.other": other}


def test_patch_wraps_every_reference_and_restores_the_originals(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    mod, other = modules["fakepkg.mod"], modules["fakepkg.other"]
    originals = (mod.helper, mod.Thing.__dict__["method"],
                 mod.Thing.__dict__["static"], mod.Thing.__dict__["prop"])
    tracer = LayerTracer(["exec"], clock=FakeClock())
    patch = Patch("fakepkg")
    wrapped = patch.install(tracer, [
        Boundary("exec", "fakepkg.mod:helper"),
        Boundary("exec", "fakepkg.mod:Thing.method"),
        Boundary("exec", "fakepkg.mod:Thing.static"),
        Boundary("exec", "fakepkg.mod:Thing.prop"),
        Boundary("exec", "fakepkg.mod:Thing.missing"),
    ])
    assert wrapped == 4 and patch.unresolved == ["fakepkg.mod:Thing.missing"]
    assert other.helper is mod.helper is not originals[0]
    tracer.start()
    thing = mod.Thing()
    assert (thing.method(), thing.static(), thing.prop) == (2, 3, 5)
    tracer.stop()
    assert tracer.calls["fakepkg.mod:helper"] == 1
    assert tracer.calls["fakepkg.mod:Thing.prop"] == 1
    patch.restore()
    assert (mod.helper, mod.Thing.__dict__["method"],
            mod.Thing.__dict__["static"],
            mod.Thing.__dict__["prop"]) == originals
    assert other.helper is originals[0]


def _program_references():
    """Every boundary's raw attribute and module-level copies of it."""
    refs = {}
    for boundary in boundaries():
        owner, attr, original = _resolve(boundary.target)
        refs[boundary.target] = (owner, attr, original)
    copies = {(name, attr): value
              for name, module in list(sys.modules.items())
              if name.startswith("repro") and module is not None
              for attr, value in vars(module).items()
              if callable(value)}
    return refs, copies


def test_the_program_is_restored_after_a_traced_run():
    refs, copies = _program_references()
    assert all(owner is not None for owner, _a, _o in refs.values())
    tracer = LayerTracer(LAYERS)
    patch = Patch("repro")
    assert patch.install(tracer, boundaries()) == len(refs)
    assert not patch.unresolved
    changed = [t for t, (owner, attr, original) in refs.items()
               if owner.__dict__[attr] is not original]
    assert len(changed) == len(refs)
    patch.restore()
    after, after_copies = _program_references()
    assert after == refs
    assert after_copies == copies


def test_percentiles_report_the_sample_count():
    summary = percentiles(list(range(1000, 0, -1)))
    assert summary == {"n": 1000, "p50": 500, "p95": 950}
    few = percentiles([3.0, 1.0, 2.0])
    assert few == {"n": 3, "p50": 2.0, "p95": None}
    assert percentiles([]) == {"n": 0, "p50": None, "p95": None}


@pytest.mark.parametrize("n", [199, 200])
def test_p95_needs_ten_samples_beyond_it(n):
    summary = percentiles(range(n))
    assert (summary["p95"] is None) == (n < 200)
