"""Outside-in per-layer tracer for the benchmark.

The tracer never touches the program's source.  For a traced run it
replaces each boundary function listed in :mod:`perfbench.boundaries` with
a wrapper that reads ``time.perf_counter_ns`` on entry and exit, and puts
the original back afterwards.

Self time.  The tracer keeps a stack of layers.  Time is charged to the
layer on top of the stack, so a layer's self time is the duration of its
spans minus the time spent in wrapped children.  The root of the stack
is the ``workloads`` layer: the benchmark's client loop and the TPC-C-lite
transaction bodies, i.e. everything not inside a wrapped call.  The self
times of all layers therefore sum to the traced region exactly.

Generators.  A wrapped function that returns a generator has its
iteration timed too, each ``next()`` as one span of the layer that created
it.  That is how the executor's row streams are charged to ``exec`` even
though ``SqlEngine.execute`` (``sql``) drains them.

A call from a layer into itself pushes nothing, so recursion and
intra-layer calls cost only a counter increment.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT_LAYER = "workloads"


class LayerTracer:
    """Per-layer self time, span counts and per-function call counts."""

    def __init__(self, layers: Sequence[str],
                 clock: Callable[[], int] = time.perf_counter_ns):
        if ROOT_LAYER not in layers:
            layers = [ROOT_LAYER, *layers]
        self.layers: List[str] = list(layers)
        self._index = {name: i for i, name in enumerate(self.layers)}
        self._clock = clock
        self.self_ns = [0] * len(self.layers)
        #: Spans opened per layer: entries from a *different* layer.
        self.spans = [0] * len(self.layers)
        self._calls: Dict[str, List[int]] = {}
        #: Sums reported by boundary probes (see ``Boundary.probe``).
        self.probes: Dict[str, float] = {}
        self.on = False
        self._stack: List[int] = []
        self._top = self._index[ROOT_LAYER]
        self._last = 0
        self.region_ns = 0
        self._region_start = 0

    def _counter(self, name: str) -> List[int]:
        return self._calls.setdefault(name, [0])

    @property
    def calls(self) -> Dict[str, int]:
        """Calls per wrapped function name, same-layer calls included."""
        return {name: cell[0] for name, cell in self._calls.items()}

    # -- the traced region ------------------------------------------------

    def start(self) -> None:
        """Open the traced region; the root layer is on top."""
        del self._stack[:]
        self._top = self._index[ROOT_LAYER]
        self._region_start = self._last = self._clock()
        self.on = True

    def stop(self) -> None:
        """Close the traced region and charge the root its last stretch."""
        now = self._clock()
        if self._stack:
            raise RuntimeError("tracer stopped inside a wrapped call")
        self.self_ns[self._top] += now - self._last
        self.region_ns += now - self._region_start
        self.on = False

    # -- span arithmetic --------------------------------------------------

    def enter(self, layer: int) -> None:
        now = self._clock()
        self.self_ns[self._top] += now - self._last
        self._stack.append(self._top)
        self._top = layer
        self._last = now
        self.spans[layer] += 1

    def exit(self) -> None:
        now = self._clock()
        self.self_ns[self._top] += now - self._last
        self._top = self._stack.pop()
        self._last = now

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn: Callable, layer_name: str, name: str,
             probe: Optional[Callable] = None,
             iter_args: bool = False, timed: bool = True) -> Callable:
        """A wrapper that charges ``fn``'s time to ``layer_name``.

        ``probe(args, result)`` yields ``(key, amount)`` pairs added to
        :attr:`probes`.  With ``iter_args``, generator arguments are
        re-wrapped so their steps stay charged to the calling layer.
        With ``timed=False`` the wrapper only counts calls.
        """
        layer = self._index[layer_name]
        count = self._counter(name)
        tracer = self
        if not timed:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                if tracer.on:
                    count[0] += 1
                return fn(*args, **kwargs)

            return counter
        clock = self._clock
        self_ns, spans, stack = self.self_ns, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            count[0] += 1
            if iter_args:
                caller = tracer._top
                args = tuple(tracer._iterate(a, caller)
                             if type(a) is types.GeneratorType else a
                             for a in args)
            top = tracer._top
            if top == layer:
                result = fn(*args, **kwargs)
            else:
                # enter() and exit() inlined: this runs on every call.
                now = clock()
                self_ns[top] += now - tracer._last
                stack.append(top)
                tracer._top = layer
                tracer._last = now
                spans[layer] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_ns[layer] += now - tracer._last
                    tracer._top = stack.pop()
                    tracer._last = now
            if probe is not None:
                for key, amount in probe(args, result):
                    tracer.probes[key] = tracer.probes.get(key, 0) + amount
            if type(result) is types.GeneratorType:
                return tracer._iterate(result, layer)
            return result

        return wrapper

    def _iterate(self, gen, layer: int):
        """Re-yield ``gen``, timing each step as a span of ``layer``."""
        try:
            while True:
                if self._top == layer or not self.on:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                else:
                    self.enter(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                yield item
        finally:
            gen.close()

    # -- results ----------------------------------------------------------

    def self_us(self) -> Dict[str, float]:
        return {name: self.self_ns[i] / 1000.0
                for i, name in enumerate(self.layers)}

    def span_counts(self) -> Dict[str, int]:
        return {name: self.spans[i] for i, name in enumerate(self.layers)}


class Patch:
    """Installs wrappers over boundary functions and restores them.

    A function can be reachable under several names: a class attribute,
    a module global, or a ``from x import f`` copy in another module.
    Every reference to the original object found in the loaded modules of
    ``package`` is replaced, so callers see the wrapper however they
    reach it, and every replacement is undone by :meth:`restore`.
    """

    def __init__(self, package: str):
        self.package = package
        self._undo: List[Tuple[object, str, object]] = []
        self.unresolved: List[str] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == self.package or name.startswith(prefix))]

    def install(self, tracer: LayerTracer, boundaries) -> int:
        """Wrap every boundary; returns how many functions were wrapped."""
        modules = self._modules()
        wrapped = 0
        for boundary in boundaries:
            owner, attr, original = _resolve(boundary.target)
            if owner is None:
                self.unresolved.append(boundary.target)
                continue
            if isinstance(original, property):
                fget = tracer.wrap(original.fget, boundary.layer,
                                   boundary.target, boundary.probe,
                                   boundary.iter_args, boundary.timed)
                self._set(owner, attr, property(fget, original.fset,
                                                original.fdel,
                                                original.__doc__))
                wrapped += 1
                continue
            raw = original
            if isinstance(original, (staticmethod, classmethod)):
                raw = original.__func__
            wrapper = tracer.wrap(raw, boundary.layer, boundary.target,
                                  boundary.probe, boundary.iter_args,
                                  boundary.timed)
            if isinstance(original, staticmethod):
                self._set(owner, attr, staticmethod(wrapper))
            elif isinstance(original, classmethod):
                self._set(owner, attr, classmethod(wrapper))
            else:
                self._set(owner, attr, wrapper)
            if isinstance(owner, types.ModuleType):
                # ``from module import fn`` copies elsewhere in the package.
                for module in modules:
                    if module is not owner and \
                            module.__dict__.get(attr) is original:
                        self._set(module, attr, wrapper)
            wrapped += 1
        return wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest replacement first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(target: str):
    """``'pkg.module:Class.attr'`` -> (owner, attr, raw attribute)."""
    module_name, _, path = target.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return None, None, None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = owner.__dict__.get(part) if hasattr(owner, "__dict__") \
            else None
        if owner is None:
            return None, None, None
    attr = parts[-1]
    original = owner.__dict__.get(attr)
    if original is None:
        return None, None, None
    return owner, attr, original


def percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median and p95 by nearest rank, with the sample count.

    A p95 is only meaningful with at least ten samples beyond it, i.e. 200
    samples; with fewer, ``p95`` is ``None`` rather than a guess.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": None, "p95": None}

    def rank(q: float) -> float:
        return ordered[min(n, max(1, int(round(q * n)))) - 1]

    return {"n": n, "p50": rank(0.50),
            "p95": rank(0.95) if n >= 200 else None}
