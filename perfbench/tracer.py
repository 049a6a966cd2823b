"""In-memory span tracer for the public functions of the riwfa layers.

Installing the tracer rebinds every module-level name, in every loaded
``riwfa`` module, that refers to a public function of one of the traced
layers; ``from .waterfill import best_response`` in another module is
caught too.  Uninstalling restores the original objects, so untraced runs
pay nothing.  Metrics look names up with a default of zero, so a function
that a later version of the program removes reads as 0 calls.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("model", "waterfill", "dynamics", "analysis", "cli")


class Tracer:
    """Spans are (name, start, end, parent index); parent is -1 at the top.

    ``probes`` maps a traced name to a function of its return value that
    gives extra counts, e.g. the iterations a run reports.
    """

    def __init__(self, probes=None):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._probes = probes or {}
        self._saved: list[tuple] = []

    def _wrap(self, name: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        probe = self._probes.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if probe is not None:
                for key, value in probe(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = sys.modules.get(f"riwfa.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "riwfa" or mod_name.startswith("riwfa.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total (inclusive) seconds and self seconds, where
        self time is a span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
