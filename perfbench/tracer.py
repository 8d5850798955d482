"""Span tracing by rebinding the library's public functions for one run.

The library binds many of its functions by name (``design.py`` does
``from repro.mtd.subspace import subspace_angle``), so patching only the
defining module would miss most calls.  :meth:`Tracer.installed` therefore
wraps each target once and rebinds *every* module-level name in
``sys.modules`` that refers to the original object, then restores each of
them on exit.  Methods are patched on their owning class, which every
instance and bound method resolves through.

Spans are kept in memory as ``[layer, start, end, parent, outermost,
error]`` lists and reduced by :func:`aggregate` when the run ends; a
layer's self time is its span duration minus the durations of its direct
child spans.  :func:`overhead_seconds` estimates what the wrappers added
to a traced run from their cost on a no-op target.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Marker attribute set on every wrapper (used by the restore self-test).
WRAPPED_MARKER = "__perfbench_original__"


@dataclass(frozen=True)
class Target:
    """One function or method to trace.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``.
    ``kind`` is ``"span"`` (timed, nests) or ``"count"`` (call counter
    only, for functions called too often to time cheaply).  ``observe``
    is called as ``observe(tracer, args, result)`` after each successful
    recorded call.
    """

    layer: str
    where: str
    kind: str = "span"
    observe: Callable[["Tracer", tuple, Any], None] | None = None


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.objects: dict[str, dict[int, Any]] = defaultdict(dict)
        self.recording = True
        self._stack: list[int] = []
        self._active: Counter[str] = Counter()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def enter(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self.clock(), None, parent, self._active[layer] == 0, None])
        self._stack.append(index)
        self._active[layer] += 1
        return index

    def exit(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        span[5] = error
        self._stack.pop()
        self._active[span[0]] -= 1

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside run untraced (used around output checks)."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        layer, observe = target.layer, target.observe

        if target.kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.recording:
                    tracer.counts[layer] += 1
                return fn(*args, **kwargs)

            setattr(counted, WRAPPED_MARKER, fn)
            return counted

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the consumer's work between
            # items is not charged to the generator's layer.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        if not tracer.recording:
                            yield from inner
                            return
                        index = tracer.enter(layer)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer.exit(index)
                            return
                        except BaseException as exc:
                            tracer.exit(index, type(exc).__name__)
                            raise
                        tracer.exit(index)
                        yield item
                finally:
                    inner.close()

            setattr(generator, WRAPPED_MARKER, fn)
            return generator

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(index, type(exc).__name__)
                raise
            tracer.exit(index)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(spanned, WRAPPED_MARKER, fn)
        return spanned

    def _rebind(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _install(self, target: Target) -> None:
        module_name, _, path = target.where.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method_name = path.split(".")
            owner = getattr(module, class_name)
            if method_name not in vars(owner):
                raise AttributeError(f"{target.where} is not defined on the class itself")
            raw = vars(owner)[method_name]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            self._restore.append((owner, method_name, raw))
            setattr(owner, method_name, wrapped)
            return
        original = getattr(module, path)
        wrapper = self._wrap(target, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._rebind(loaded, name, wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, targets: list[Target]) -> Iterator["Tracer"]:
        """Rebind every target for the ``with`` block, then restore all."""
        try:
            for target in targets:
                self._install(target)
            yield self
        finally:
            self._uninstall()


@dataclass
class LayerTotals:
    """Per-layer reduction; ``calls`` and ``seconds`` cover outermost spans."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    errors: Counter[str] = field(default_factory=Counter)


def aggregate(spans: list[list[Any]]) -> dict[str, LayerTotals]:
    """Reduce raw spans to per-layer calls, inclusive and self time."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _outer, _error in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, LayerTotals] = {}
    for index, (layer, start, end, _parent, outermost, error) in enumerate(spans):
        entry = totals.setdefault(layer, LayerTotals())
        duration = end - start
        entry.self_seconds += duration - child_time[index]
        if outermost:
            entry.calls += 1
            entry.seconds += duration
        if error is not None:
            entry.errors[error] += 1
    return totals


def count_nested(spans: list[list[Any]], inner: str, outer: str) -> int:
    """Number of ``inner`` spans that have an ``outer`` span as an ancestor."""
    found = 0
    for layer, _start, _end, parent, _outer, _error in spans:
        if layer != inner:
            continue
        while parent >= 0:
            if spans[parent][0] == outer:
                found += 1
                break
            parent = spans[parent][3]
    return found


def wrapper_cost(kind: str, calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds one recorded call through a ``kind`` wrapper adds to a call.

    Timed on a no-op target with a throwaway tracer: the fastest of
    ``rounds`` loops of ``calls`` wrapped calls minus the fastest loop of
    direct calls.
    """

    def noop() -> None:
        return None

    wrapped = Tracer()._wrap(Target("calibration", "calibration:noop", kind=kind), noop)

    def fastest(fn: Callable[[], None]) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    return max(0.0, (fastest(wrapped) - fastest(noop)) / calls)


def overhead_seconds(tracer: Tracer, targets: list[Target]) -> float:
    """Estimated wall time the wrappers of ``targets`` added to a traced run.

    Recorded spans times the span wrapper's cost plus counted calls times
    the count wrapper's cost.  Measured inside the traced process, so it
    does not depend on how the machine's speed drifts between two runs.
    """
    counted = {target.layer for target in targets if target.kind == "count"}
    n_counted = sum(tracer.counts[layer] for layer in counted)
    return len(tracer.spans) * wrapper_cost("span") + n_counted * wrapper_cost("count")


def wrapped_names() -> list[str]:
    """Every module attribute or class attribute still bound to a wrapper."""
    leftovers = []
    for module_name, loaded in list(sys.modules.items()):
        namespace = getattr(loaded, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if _is_wrapper(value):
                leftovers.append(f"{module_name}.{name}")
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in list(vars(value).items()):
                    if _is_wrapper(member):
                        leftovers.append(f"{module_name}.{name}.{attr}")
    return leftovers


def _is_wrapper(value: Any) -> bool:
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    return isinstance(value, types.FunctionType) and WRAPPED_MARKER in value.__dict__
