"""Per-layer call tracing from outside the package.

``Tracer`` wraps every public function of each layer module (plus the two
methods ``OutputTable.write`` and ``JoinTimeModel.sample``) at every name it
is bound to in the package, so calls made through ``from .x import f``
bindings are seen too. Each call records a span: id, name, start, end, parent
span and thread. The parent is tracked per thread. Spans stay in memory until
``summarize`` or ``dump`` reads them.

Counters recorded at the same boundaries:

- ``draws``: random variates returned by ``JoinTimeModel.sample`` and
  ``sample_arrival_sequences`` (the size of the returned array);
- ``evals``: ``payment_at`` evaluations made inside ``calibrate_b``;
- ``bytes``: size of the file ``OutputTable.write`` wrote.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

PACKAGE = "crowdcontest"
LAYERS = ("experiments", "bayesian_closed", "open_system", "numerics",
          "timing", "contest", "csf_analysis")
METHODS = (("experiments", "OutputTable", "write"),
           ("timing", "JoinTimeModel", "sample"))


def _draws(args, kwargs, result, extra):
    extra["draws"] = int(getattr(result, "size", 0))


def _bytes(args, kwargs, result, extra):
    path = args[1] if len(args) > 1 else kwargs["path"]
    extra["bytes"] = os.path.getsize(path)


_AFTER = {"timing.JoinTimeModel.sample": _draws,
          "timing.sample_arrival_sequences": _draws,
          "experiments.OutputTable.write": _bytes}


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; ``spans``
    holds ``(id, name, start, end, parent, thread, extra)`` tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner, attribute, span name) of every installed binding
        self._patches: list[tuple[object, str, str]] = []
        self.targets = self._find_targets()

    def _find_targets(self) -> dict[str, object]:
        """Span name -> original function."""
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[f"{layer}.{name}"] = obj
        for layer, cls, meth in METHODS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            targets[f"{layer}.{cls}.{meth}"] = vars(getattr(module, cls))[meth]
        return targets

    def _namespaces(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and name.split(".")[0] == PACKAGE]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {name: self._wrap(name, fn) for name, fn in self.targets.items()}
        name_of = {id(fn): name for name, fn in self.targets.items()}
        for layer, cls, meth in METHODS:
            owner = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls)
            self._patches.append((owner, meth, f"{layer}.{cls}.{meth}"))
        for module in self._namespaces():
            for attr, obj in vars(module).items():
                if id(obj) in name_of:
                    self._patches.append((module, attr, name_of[id(obj)]))
        for owner, attr, name in self._patches:
            setattr(owner, attr, wrappers[name])

    def uninstall(self) -> None:
        for owner, attr, name in reversed(self._patches):
            setattr(owner, attr, self.targets[name])
        self._patches.clear()

    def bindings(self) -> list[tuple[str, str]]:
        """``(span name, "owner.attr")`` for every binding installed."""
        return [(name, f"{owner.__name__}.{attr}") for owner, attr, name in self._patches]

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        counts_evals = name == "bayesian_closed.calibrate_b"
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = {}
            if counts_evals:
                args, kwargs = _count_evals(args, kwargs, extra)
            parent = getattr(local, "current", None)
            span_id = next(ids)
            local.current = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.current = parent
                spans.append((span_id, name, start, end, parent,
                              threading.get_ident(), extra))
            if after is not None:
                after(args, kwargs, result, extra)
            return result

        return wrapper

    def clear(self) -> None:
        self.spans.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "thread", "extra"],
                       "spans": self.spans}, fh)


def _count_evals(args, kwargs, extra):
    payment_at = args[0] if args else kwargs["payment_at"]
    extra["evals"] = 0

    def counted(b):
        extra["evals"] += 1
        return payment_at(b)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, payment_at=counted)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s``, ``max_s`` and
    summed counters. Self time is a span's duration minus the durations of
    its child spans; children share their parent's thread, so they never
    overlap one another."""
    child_time: dict[int, float] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, _, extra in spans:
        dur = end - start
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "max_s": 0.0})
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_time.get(span_id, 0.0)
        row["max_s"] = max(row["max_s"], dur)
        for key, value in extra.items():
            row[key] = row.get(key, 0) + value
    return out
