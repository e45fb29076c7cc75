"""Spans recorded from the benchmark's own code around calls into metadiv.

``instrument`` temporarily replaces the names that metadiv's callers look
up (module globals and two class attributes) with wrappers that open a span
per call, then restores the originals.  Nothing under ``src/`` is edited.
Spans stay in memory as ``[name, start, end, parent, job]`` lists and are
written out by the caller at the end of the run.

A span's self time is its duration minus the durations of its direct
children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections.abc import Iterator

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.job = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def job_summary(self, job: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, for one job."""
        spans = self.spans
        child_time: dict[int, float] = {}
        for s in spans:
            if s[4] == job and s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(spans):
            if s[4] != job:
                continue
            dur = s[2] - s[1]
            agg = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time.get(i, 0.0)
        return out

    def children_per_span(self, job: int, parent_name: str, child_name: str) -> list[int]:
        """Number of direct ``child_name`` children of each ``parent_name`` span."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s[4] == job and s[0] == parent_name}
        for s in self.spans:
            if s[4] == job and s[0] == child_name and s[3] in counts:
                counts[s[3]] += 1
        return list(counts.values())


class _TracedRecords:
    """Proxy for the record stream ``parse_records`` returns.

    Each step of the iteration is a ``marc.parse`` span; ``records`` and
    ``skipped`` are forwarded to the caller and counted once exhausted.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        index = self._tracer.open("marc.parse")
        try:
            return next(self._inner)
        except StopIteration:
            self._tracer.add("marc.records", self._inner.records)
            self._tracer.add("marc.skipped", self._inner.skipped)
            raise
        finally:
            self._tracer.close(index)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CountedEvents:
    """Iterable wrapper that counts the events a growth function consumes."""

    def __init__(self, events, tracer: Tracer) -> None:
        self._events = events
        self._tracer = tracer

    def __iter__(self):
        n = 0
        for event in self._events:
            n += 1
            yield event
        self._tracer.add("accumulation.events", n)


def _after_tokenize(t: Tracer, result):
    t.add("text.tokens", len(result))
    return result


def _before_growth(t: Tracer, args):
    events = args[0]
    if hasattr(events, "__len__"):
        t.add("accumulation.events", len(events))
        return args
    return (_CountedEvents(events, t),) + tuple(args[1:])


def _after_growth(t: Tracer, result):
    t.add("accumulation.checkpoints", len(result))
    return result


def _before_hill(t: Tracer, args):
    t.add("diversity.hill_classes", len(args[0]))
    return args


def _after_fit(t: Tracer, result):
    t.add("fitting.converged", int(bool(result.converged)))
    return result


def _before_parse(t: Tracer, args):
    t.add("marc.parses")
    return args


def _after_parse(t: Tracer, result):
    return _TracedRecords(result, t)


# (module, attribute path, span name, before-hook, after-hook).  The hook
# before the call returns the positional arguments to pass on, the hook
# after it the result to hand back.
TARGETS = (
    ("metadiv.cli", "tokenize", "text.tokenize", None, _after_tokenize),
    ("metadiv.cli", "lexical_report", "text.lexical_report", None, None),
    ("metadiv.cli", "parse_records", "marc.parse", _before_parse, _after_parse),
    ("metadiv.cli", "facet_series", "marc.facet_series", None, None),
    ("metadiv.cli", "profile", "lod.harvest", None, None),
    ("metadiv.cli", "AccumulationCurve.from_csv", "accumulation.from_csv", None, None),
    ("metadiv.cli", "fit_model", "fitting.fit_model", None, _after_fit),
    ("metadiv.cli", "fit_power_law", "fitting.fit_power_law", None, None),
    ("metadiv.cli", "compare_models", "fitting.compare_models", None, None),
    ("metadiv.text", "vocabulary_growth", "accumulation.vocabulary_growth",
     _before_growth, _after_growth),
    ("metadiv.text", "diversity_growth", "accumulation.diversity_growth",
     _before_growth, _after_growth),
    ("metadiv.text", "fit_power_law", "fitting.fit_power_law", None, None),
    ("metadiv.text", "fit_model", "fitting.fit_model", None, _after_fit),
    ("metadiv.text", "compare_models", "fitting.compare_models", None, None),
    ("metadiv.fitting", "fit_model", "fitting.fit_model", None, _after_fit),
    ("metadiv.fitting", "eval_model", "models.eval", None, None),
    ("metadiv.fitting", "model_gradient", "models.gradient", None, None),
    ("metadiv.accumulation", "hill_from_probabilities", "diversity.hill", _before_hill, None),
    ("metadiv.marc", "vocabulary_growth", "accumulation.vocabulary_growth",
     _before_growth, _after_growth),
    ("metadiv.marc", "diversity_growth", "accumulation.diversity_growth",
     _before_growth, _after_growth),
    ("metadiv.lod", "SparqlClient.select", "lod.client", None, None),
)


def _wrap(fn, name: str, tracer: Tracer, before, after):
    def traced(*args, **kwargs):
        if before is not None:
            args = before(tracer, args)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        return result if after is None else after(tracer, result)

    return traced


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[set[str]]:
    """Wrap every target for the duration of the block; yields missing span names.

    A target a refactor removed is reported as missing, never as zero.
    """
    restore = []
    missing: set[str] = set()
    try:
        for module_name, path, name, before, after in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                missing.add(name)
                continue
            owner, attr = found
            # A class attribute is restored as the descriptor it was
            # (classmethod, plain function), not as the bound object.
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(original.__func__, name, tracer, before, after))
            else:
                wrapped = _wrap(getattr(owner, attr), name, tracer, before, after)
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
