"""Per-layer spans recorded from outside triway.

`Tracer.install` wraps every public function of triway's modules (the
layers) and `numpy.random.default_rng`, and puts each wrapper in place of
every reference to the original that a triway module holds: module globals
such as `bounds.validate` or `cli.make_config`, and module-level dicts such as
`experiments.BOUND_COLUMNS`.  A wrapper records a span with its parent: a call
count, the span's duration and its self time (duration less the time of the
spans it caused).  Spans are folded into per-name totals and parent->child
call counts as they close, so memory stays flat however many calls an
operation makes.  With `memory=True` each span also records its peak
`tracemalloc` allocation above the level at which it started.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("model", "bounds", "region", "sim", "experiments", "cli")
# functions whose returned text length is recorded as "<name>.bytes"
_SIZED = {"experiments.export_report"}


class _Frame:
    __slots__ = ("name", "start", "child", "base", "peak")

    def __init__(self, name, start, base=0, peak=0):
        self.name, self.start, self.child, self.base, self.peak = name, start, 0, base, peak


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.memory = False
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> calls, whole run
        self.peaks: dict[str, int] = {}  # name -> largest peak in bytes, whole run
        self.reset()

    def reset(self) -> None:
        """Start a new CLI call: clear the per-call totals."""
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.sizes: dict[str, int] = {}

    # ------------------------------------------------------------- spans

    def _enter(self, name: str) -> None:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self._stack[-1]
                top.peak = max(top.peak, peak)
            tracemalloc.reset_peak()
            self._stack.append(_Frame(name, time.perf_counter_ns(), cur, cur))
        else:
            self._stack.append(_Frame(name, time.perf_counter_ns()))

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        frame = self._stack.pop()
        dur = end - frame.start
        row = self.stats.get(frame.name)
        if row is None:
            row = self.stats[frame.name] = [0, 0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - frame.child
        parent = self._stack[-1] if self._stack else None
        edge = (parent.name if parent else "", frame.name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if parent is not None:
            parent.child += dur
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.peak = max(frame.peak, peak)
            self.peaks[frame.name] = max(self.peaks.get(frame.name, 0), frame.peak - frame.base)
            if parent is not None:
                parent.peak = max(parent.peak, frame.peak)
            tracemalloc.reset_peak()

    def _wrap(self, name: str, fn):
        tracer = self
        sized = name in _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if sized:
                tracer.sizes[name] = tracer.sizes.get(name, 0) + len(result)
            return result

        return wrapper

    # ----------------------------------------------------- install / remove

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"triway.{layer}"]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not fname.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        rng = np.random.default_rng
        wrappers[id(rng)] = (rng, self._wrap("rng.default_rng", rng))
        self._set(np.random, "default_rng", wrappers[id(rng)][1])

        def swap(owner, key, value):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                self._set(owner, key, entry[1])

        for modname, mod in list(sys.modules.items()):
            if modname != "triway" and not modname.startswith("triway."):
                continue
            for attr, value in list(vars(mod).items()):
                swap(mod, attr, value)
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        swap(value, key, item)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
