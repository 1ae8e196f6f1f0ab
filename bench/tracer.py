"""Outside-in tracer: wraps the public functions of each ambiseg module.

Every public function defined in one of LAYER_MODULES is replaced by a
wrapper that records a span (name, start, end, parent span, phase) in
memory. The wrapper is installed under every name that binds the
original anywhere in the package, because `training` imports `forward`,
`backward`, `predict_probs` and `adam_step` by name and `predict_probs`
looks `forward` up in `model`'s globals. `count_original_calls` counts
calls by code object through `sys.setprofile`, which sees every call
however it is bound, so the benchmark can prove that no binding was
missed.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

LAYER_MODULES = ("data", "model", "losses", "masks", "training", "fusion", "metrics")


def layer_functions() -> dict[str, Callable]:
    """Public functions defined in each layer module, keyed "module.name"."""
    import ambiseg

    out = {}
    for short in LAYER_MODULES:
        mod = getattr(ambiseg, short)
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                out[f"{short}.{name}"] = obj
    return out


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ambiseg" or name.startswith("ambiseg."))
    ]


class Tracer:
    """Spans kept in parallel lists; observers record per-call facts."""

    def __init__(self, observers: Optional[dict[str, Callable]] = None):
        self.observers = observers or {}
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.phases: list[str] = []
        self.notes: dict[str, list] = defaultdict(list)
        self.phase = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.phases.append(self.phase)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            if observe is not None:
                self.notes[name].append(observe(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers under every binding; restore on exit."""
        originals = layer_functions()
        by_id = {id(fn): name for name, fn in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        undo = []
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None and value is originals[name]:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[name])
        try:
            yield self
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)

    # ------------------------------------------------------------------
    # queries over the recorded spans

    def select(self, name: str, phase: Optional[str] = None) -> list[int]:
        return [
            i
            for i, n in enumerate(self.names)
            if n == name and (phase is None or self.phases[i] == phase)
        ]

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def count(self, name: str, phase: Optional[str] = None) -> int:
        return len(self.select(name, phase))

    def mean_ms(self, name: str) -> float:
        spans = self.select(name)
        if not spans:
            return 0.0
        return 1000.0 * sum(self.duration(i) for i in spans) / len(spans)

    def self_ms(self, name: str) -> float:
        """Mean span time minus the time of its wrapped direct children."""
        spans = self.select(name)
        if not spans:
            return 0.0
        wanted = set(spans)
        child_time = 0.0
        for i, parent in enumerate(self.parents):
            if parent in wanted:
                child_time += self.duration(i)
        total = sum(self.duration(i) for i in spans)
        return 1000.0 * (total - child_time) / len(spans)

    def inside(self, name: str) -> list[bool]:
        """For each span, whether some ancestor span is called `name`."""
        flags: list[bool] = []
        for parent in self.parents:
            flags.append(
                parent >= 0 and (flags[parent] or self.names[parent] == name)
            )
        return flags

    def percentile_ms(self, name: str, q: int) -> float:
        durations = sorted(1000.0 * self.duration(i) for i in self.select(name))
        if not durations:
            return 0.0
        if len(durations) == 1:
            return durations[0]
        return statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def count_original_calls(run: Callable[[], None]) -> Counter:
    """Calls of each layer function's original code object during run()."""
    codes = {fn.__code__: name for name, fn in layer_functions().items()}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts
