"""Layer spans recorded from outside the program.

``Tracer.install`` swaps every public function and method of each movebar
module (a *layer*) with a wrapper that records a span: layer, parent span,
start and end.  The wrapper is bound wherever the original was bound in any
movebar namespace, so calls into a layer from another module are caught too.
``uninstall`` puts the originals back, so untraced ops run the plain code.

Spans are kept in memory for one op at a time; ``summarize`` turns them into
per-layer calls, busy time and self time.  A few heavy functions also feed
computed counters (lattice node-steps, simulation path-steps and bytes); the
lattice count reuses the solver's own step grid, so it follows the solver.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

# layer name -> module; the order is the report order
LAYERS = {
    "curves": "movebar.curves",
    "contract": "movebar.contract",
    "vanilla": "movebar.vanilla",
    "barrier": "movebar.barrier",
    "heatkernel": "movebar.oracles.heatkernel",
    "pde": "movebar.oracles.pde",
    "montecarlo": "movebar.oracles.montecarlo",
    "cli": "movebar.cli",
}


def summarize(spans) -> dict:
    """Per-layer ``calls``, ``busy_s`` and ``self_s`` of one span list.

    ``spans[i] = (layer, parent, start, end)`` with ``parent`` the index of
    the enclosing span or -1.  A call is an entry into the layer: a span with
    no ancestor in the same layer.  Busy time sums the durations of those
    entries, so nested spans of one layer are not counted twice.  Self time
    is each span's duration minus what its direct children cover, summed
    over the layer and minus the layer's own nested spans.
    """
    covered = [0.0] * len(spans)
    for layer, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (layer, parent, start, end) in enumerate(spans):
        row = out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        own = (end - start) - covered[i]
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][1]
        if p < 0:
            row["calls"] += 1
            row["busy_s"] += end - start
        row["self_s"] += own
    return out


def _pde_counters(bound, result, counters):
    # one solve updates every interior node once per substep
    from movebar.oracles import pde  # imported late: run.py picks the src/ first

    args = bound.arguments
    t, contract, grid = args["t"], args["contract"], args["grid"]
    steps = (len(pde._time_grid(t, contract.expiry, grid.n_time, contract)) - 1
             + pde._SMOOTHING_STEPS)
    counters["pde.node_steps"] += (grid.n_space - 1) * steps


def _mc_counters(bound, result, counters):
    # path p draws ceil(n_steps/4) whole 4-word Philox blocks
    steps = result.n_steps
    words = 4 * math.ceil(steps / 4)
    counters["montecarlo.estimates"] += 1
    counters["montecarlo.path_steps"] += result.n_paths * steps
    counters["montecarlo.knockout_sum"] += result.knockout_fraction
    # raw 64-bit words, float64 uniforms and float64 normals
    counters["montecarlo.bytes_computed"] += result.n_paths * 8 * (words + 2 * steps)


# fully qualified function -> counter hook; these calls also record CPU time.
# A private function listed here is wrapped too: each lattice solve, the
# Richardson half-grid one included, goes through pde._solve with the grid
# it really uses.
HOOKS = {
    "movebar.oracles.pde._solve": _pde_counters,
    "movebar.oracles.montecarlo.mc_price": _mc_counters,
}


class Tracer:
    """Layer wrappers plus the spans and counters they record.

    ``prepare`` once, then ``install``/``uninstall`` around each traced op;
    both only swap bindings, so switching costs microseconds.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = defaultdict(float)
        self._patches = []

    # -- installation -------------------------------------------------

    def prepare(self):
        """Build the wrappers and find every binding they replace."""
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if name.startswith("_") and f"{modname}.{name}" not in HOOKS:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(layer, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)

    def install(self):
        for target, name, _, wrapper in self._patches:
            self._set(target, name, wrapper)

    def uninstall(self):
        for target, name, original, _ in self._patches:
            self._set(target, name, original)

    @staticmethod
    def _set(target, name, value):
        if isinstance(target, dict):
            target[name] = value
        else:
            setattr(target, name, value)

    def _rebind(self, original, wrapper):
        """Patch every movebar namespace that binds the original."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("movebar"):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, name, original, wrapper))

    def _wrap_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                new = classmethod(self._wrap(layer, attr.__func__))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrap(layer, attr)
            else:
                continue  # properties and data stay as they are
            self._patches.append((cls, name, attr, new))

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(f"{fn.__module__}.{fn.__qualname__}")
        if hook is not None:
            return self._wrap_hooked(layer, fn, hook)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, stack[-1] if stack else -1, start, end)
        return traced

    def _wrap_hooked(self, layer, fn, counters_hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = self.counters
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            cpu = time.process_time()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                counters[f"{layer}.cpu_s"] += time.process_time() - cpu
                stack.pop()
                spans[idx] = (layer, stack[-1] if stack else -1, start, end)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counters_hook(bound, result, counters)
            return result
        return traced

    # -- per-op bookkeeping -------------------------------------------

    def take_spans(self) -> list:
        """Return and clear the spans recorded since the last call."""
        taken = list(self.spans)
        self.spans.clear()
        return taken
