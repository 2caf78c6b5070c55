"""In-memory span tracing of the urdufake modules, attached from outside.

`instrumented(tracer)` replaces every public function of each package module,
and every public method of the classes those modules define, with a wrapper
that records a span, under every name a module binds it to: `runner.transform`
and `cli.transform` are wrapped as well as `vectorize.transform`, because
`from .vectorize import transform` copies the reference. Leaving the block
puts the original objects back, so untraced rounds run the shipped code as is.

A span is (name, via, start, end, parent, rid): `name` is the defining module
and function (`vectorize.transform`), `via` the module whose binding was
called, `parent` the index of the enclosing span (-1 at the root) and `rid`
the request or grid-row id the benchmark set when the span began. Spans stay
in memory until the benchmark summarises them at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

#: The package modules, one layer each, in pipeline order.
LAYERS = ("corpus", "preprocess", "vectorize", "selection", "svm", "cnn",
          "persistence", "runner", "metrics", "cli")

#: Methods called once per token. A span each would cost more than the work
#: it measures; their time stays in the caller (preprocess.lemmatize).
PER_TOKEN = frozenset({"preprocess.LemmaTable.lookup"})

#: The grid-row call: run_config(train, test, config, resources).
ROW_SPAN = "runner.run_config"


class Tracer:
    """Spans and per-(phase, round) counters of one benchmark process.

    observers maps a span name to a function called with (tracer, args,
    kwargs, result) after each call, to count what the call produced. Spans
    under a `runner.run_config` call carry its grid row's name as their id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid: tuple = ("bench", 0, "")
        self.observers: dict = {}
        self.counters = defaultdict(lambda: defaultdict(float))
        self.sets = defaultdict(lambda: defaultdict(set))

    def call(self, name: str, via: str, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        saved_rid = self.rid
        if name == ROW_SPAN:
            self.rid = saved_rid[:2] + (args[2].name,)
        rec = [name, via, 0.0, 0.0, stack[-1] if stack else -1, self.rid]
        stack.append(len(spans))
        spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            stack.pop()
            self.rid = saved_rid
        observe = self.observers.get(name)
        if observe is not None:
            observe(self, args, kwargs, out)
        return out

    @contextmanager
    def span(self, name: str, rid: tuple):
        """A benchmark-side root span that sets the request id for its children."""
        saved = self.rid
        self.rid = rid
        rec = [name, "bench", 0.0, 0.0, self.stack[-1] if self.stack else -1, rid]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()
            self.rid = saved

    def count(self, key: str, value: float = 1.0) -> None:
        """Add to a counter of the current request's phase and round."""
        self.counters[self.rid[:2]][key] += value

    def distinct(self, key: str, item) -> None:
        """Record an item in a set of the current request's phase and round."""
        self.sets[self.rid[:2]][key].add(item)


def _public_callables(module):
    """Yield (span name, function) for the module's public functions and
    (span name, (class, attribute, raw class attribute)) for the public
    methods of the classes it defines."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", obj
        elif inspect.isclass(obj):
            for meth, raw in vars(obj).items():
                name = f"{layer}.{attr}.{meth}"
                if meth.startswith("_") or name in PER_TOKEN:
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    yield name, (obj, meth, raw)


def _wrapper(tracer: Tracer, name: str, via: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, via, fn, args, kwargs)
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every public function and method of the package for the block."""
    modules = [importlib.import_module(f"urdufake.{layer}") for layer in LAYERS]
    package = importlib.import_module("urdufake")
    functions: dict[int, str] = {}
    undo: list[tuple] = []
    try:
        for module in modules:
            for name, target in _public_callables(module):
                if isinstance(target, tuple):
                    cls, meth, raw = target
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(_wrapper(tracer, name, name.split(".")[0],
                                                     raw.__func__))
                    else:
                        wrapped = _wrapper(tracer, name, name.split(".")[0], raw)
                    setattr(cls, meth, wrapped)
                    undo.append((cls, meth, raw))
                else:
                    functions[id(target)] = name
        for module in modules + [package]:
            via = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                name = functions.get(id(obj)) if inspect.isfunction(obj) else None
                if name is not None:
                    setattr(module, attr, _wrapper(tracer, name, via, obj))
                    undo.append((module, attr, obj))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarise(spans: list[list]) -> dict[tuple, dict[str, float]]:
    """Per (phase, round): each layer's busy and self seconds, each function's
    seconds and calls, and the wall time of the benchmark's root spans.

    Busy time counts a layer's outermost spans only, so nested calls inside
    the same layer are not counted twice. Self time is a span's duration less
    the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, via, t0, t1, parent, rid in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    above: list[frozenset] = [frozenset()] * len(spans)
    out: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, via, t0, t1, parent, rid) in enumerate(spans):
        layer = layer_of(name)
        if parent >= 0:
            above[i] = above[parent] | {layer_of(spans[parent][0])}
        dur = t1 - t0
        group = out[rid[:2]]
        if layer == "bench":
            if parent < 0 or layer_of(spans[parent][0]) != "bench":
                group["wall_s"] += dur
            continue
        group[f"{layer}.self_s"] += dur - child[i]
        if layer not in above[i]:
            group[f"{layer}.busy_s"] += dur
        group[f"{name}.s"] += dur
        group[f"{name}.calls"] += 1
    return out
