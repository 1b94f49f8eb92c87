"""Spans around the calls into gatekit's modules, recorded from outside.

install() replaces each public function of the traced modules, and each public
method of their classes, with a wrapper that records a span.  The wrapper is
put wherever callers look the function up: its own module, every module that
imported it by name, and the package namespace.  Nothing under src/ changes,
and uninstalling restores the original objects.

Spans of one request are kept in memory until end_request(), which computes
each span's self time and folds the request into per-name totals.
"""
from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from dataclasses import dataclass, field

TRACED_MODULES = ("cli", "algos", "ir", "gates", "sim", "emit", "dsl")


@dataclass
class Span:
    name: str
    parent: int | None
    start: int
    end: int = 0
    error: bool = False
    attrs: dict = field(default_factory=dict)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans come from one synchronous call stack, so children nest inside their
    parent and never overlap one another.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    return [span.end - span.start - child for span, child in zip(spans, child_ns)]


@dataclass
class Totals:
    """Everything recorded for one span name over the folded requests."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; `measure` maps a span name to a function of
    (args, kwargs, result) giving counts to attach to the span, and `rename`
    maps a name to a function of (args, kwargs) giving a finer span name.
    With `track_memory_of` set to a module name, and tracemalloc started by
    the caller, `peak_bytes` is the highest traced peak inside any outermost
    span of that module."""

    def __init__(self, measure=None, rename=None, clock=time.perf_counter_ns,
                 track_memory_of=None):
        self.measure = measure or {}
        self.rename = rename or {}
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.totals: dict[str, Totals] = {}
        self.requests = 0
        self.track_memory_of = track_memory_of
        self.peak_bytes = 0

    def call(self, name, fn, args, kwargs):
        label = self.rename[name](args, kwargs) if name in self.rename else name
        outermost_tracked = self._memory_scope(name)
        span = Span(label, self.stack[-1] if self.stack else None, 0)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = self.clock()
            self.stack.pop()
            if outermost_tracked:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
        if name in self.measure:
            span.attrs = self.measure[name](args, kwargs, result)
        return result

    def _memory_scope(self, name: str) -> bool:
        """Reset the tracemalloc peak on entering the outermost span of the
        tracked module; True if this span is that outermost one."""
        prefix = self.track_memory_of
        if prefix is None or not name.startswith(prefix + "."):
            return False
        if any(self.spans[i].name.startswith(prefix + ".") for i in self.stack):
            return False
        tracemalloc.reset_peak()
        return True

    def end_request(self) -> None:
        for span, own in zip(self.spans, self_times(self.spans)):
            totals = self.totals.setdefault(span.name, Totals())
            totals.calls += 1
            totals.total_ns += span.end - span.start
            totals.self_ns += own
            totals.errors += span.error
            for key, value in span.attrs.items():
                totals.attrs[key] = totals.attrs.get(key, 0) + value
        self.spans.clear()
        self.requests += 1


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _public_functions(module):
    """(span name, owner, attribute, function) for the module's own public
    functions and the public plain methods of its own classes."""
    short = module.__name__.rsplit(".", 1)[1]
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{short}.{attr}", module, attr, obj))
        elif inspect.isclass(obj):
            for method, fn in vars(obj).items():
                if not method.startswith("_") and inspect.isfunction(fn):
                    found.append((f"{short}.{method}", obj, method, fn))
    return found


def install(tracer: Tracer, package) -> callable:
    """Wrap the public functions of the traced modules; returns an undo."""
    modules = [getattr(package, short) for short in TRACED_MODULES]
    namespaces = [package] + modules
    patched = []
    for module in modules:
        for name, owner, attr, fn in _public_functions(module):
            wrapper = _wrap(tracer, name, fn)
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, fn))
            if owner is not module:
                continue
            for ns in namespaces:
                for other, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, other, wrapper)
                        patched.append((ns, other, fn))

    def uninstall():
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)

    return uninstall
