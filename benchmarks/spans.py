"""Spans around spinbath's public functions, recorded from outside the package.

Nothing in ``src/`` is edited. :meth:`Tracer.install` wraps every public
function (and public classmethod) defined in the six spinbath modules and
rebinds each name the callers look up, in every ``spinbath`` module that
imported it: ``spinbath.harness.spectral_decomposition``,
``spinbath.lemma.check_l1``, ``lemma.WeightedPointSet.from_decomposition``
and so on. A span is ``(id, parent id, invocation, name, start, end)``;
spans stay in memory and are written out when the worker ends.

Counts are taken from the wrapped calls' arguments and results, never
from timings, so they repeat exactly between runs of the same input.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = ("model", "spectrum", "lemma", "evolution", "harness", "cli")

# Span name -> count hook over (bound arguments, result).
COUNTERS: dict[str, Callable[[dict[str, Any], Any], dict[str, int]]] = {
    "spectrum.spectral_decomposition": lambda a, r: {
        "spectrum.terms": 2 ** a["model"].n_spins, "spectrum.lines": r.n_lines},
    "lemma.make_partition": lambda a, r: {"lemma.groups": r.g_groups},
    "model.generate_random": lambda a, r: {"model.spins": r.n_spins},
    "evolution.sample_series": lambda a, r: {
        "evolution.factor_evals": a["model"].n_spins * a["steps"]},
    "spectrum.brute_force_expectation": lambda a, r: {
        "spectrum.oracle_states": 2 ** (a["model"].n_spins + 1)},
}


def rebind(original: Callable, replacement: Callable) -> int:
    """Point every spinbath module-level name bound to ``original`` at ``replacement``."""
    hits = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "spinbath" and not module_name.startswith("spinbath."):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                hits += 1
    return hits


def public_callables() -> list[tuple[str, Any, str | None, Callable]]:
    """(span name, owner, attribute, function) for every public function and classmethod."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"spinbath.{layer}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found.append((f"{layer}.{name}", None, None, value))
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    if isinstance(member, classmethod) and not attr.startswith("_"):
                        found.append((f"{layer}.{name}.{attr}", value, attr, member.__func__))
    return found


class Tracer:
    """In-memory span recorder; one instance per worker."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, invocation, name, start, end]
        self.counts: Counter = Counter()
        self.invocation = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, self.invocation, name, clock(), 0.0]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counter(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, fn in public_callables():
            wrapped = self.wrap(name, fn)
            if owner is None:
                rebind(fn, wrapped)
            else:
                setattr(owner, attr, classmethod(wrapped))

    def start_invocation(self, index: int) -> None:
        self.invocation = index
        self.counts = Counter()

    def totals(self, invocation: int) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and call count."""
        mine = [s for s in self.spans if s[2] == invocation]
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end in mine:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, _, name, start, end in mine:
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
            entry["calls"] += 1
        return out


def install_rss_probe(span_name: str, peaks: dict[str, float]) -> None:
    """Record how far one call raises the process's peak RSS, in MB.

    Meaningful for the first call in a fresh process, where the high-water
    mark before the call is the post-import baseline.
    """
    layer, _, name = span_name.partition(".")
    current = getattr(importlib.import_module(f"spinbath.{layer}"), name)

    @functools.wraps(current)
    def probed(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return current(*args, **kwargs)
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peaks[span_name] = max(peaks.get(span_name, 0.0), (after - before) / 1024.0)

    rebind(current, probed)
