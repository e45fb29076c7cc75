"""Growth curves of type counts and diversity over an ordered event stream.

A curve records a statistic of the first ``n`` events at a series of
checkpoints: the number of distinct labels seen (vocabulary growth) or the
Hill diversity of the running frequency distribution.  One pass interns the
labels a block of ``_FLUSH_EVENTS`` (4,096) events at a time and adds each
block's ids into a dense count vector, up to each checkpoint inside the block
and then to its end, giving both statistics at each checkpoint; memory is
O(types + 4,096), whatever the length of the stream.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import count, islice

import numpy as np

from .diversity import _check_order, hill_from_probabilities

__all__ = [
    "every",
    "AccumulationCurve",
    "vocabulary_growth",
    "diversity_growth",
    "growth_curves",
]


@dataclass(frozen=True)
class AccumulationCurve:
    """Ordered (n, value) checkpoints of a growing statistic.

    ``statistic`` is ``type-count`` or ``diversity``; ``ns`` and ``values`` are
    the two columns as read-only float arrays.
    """

    points: tuple[tuple[int, float], ...]
    statistic: str = "diversity"
    ns: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ns = np.array([n for n, _ in self.points], dtype=float)
        values = np.array([v for _, v in self.points], dtype=float)
        if np.any(ns < 1):
            raise ValueError("checkpoint positions must be >= 1")
        if np.any(ns[1:] <= ns[:-1]):
            raise ValueError("checkpoint positions must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("curve values must be finite")
        ns.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.points)

    def truncated(self, n_max: int) -> AccumulationCurve:
        """Sub-curve of checkpoints with n <= n_max."""
        return replace(self, points=tuple((n, v) for n, v in self.points if n <= n_max))

    def to_csv(self) -> str:
        """Plot-data serialization with header ``n,value``.

        Type counts are written as integers, other statistics with four
        decimals.
        """
        counted = self.statistic == "type-count"
        rows = (f"{n},{int(v)}" if counted else f"{n},{v:.4f}" for n, v in self.points)
        return "\n".join(["n,value", *rows]) + "\n"

    @classmethod
    def from_csv(cls, source) -> AccumulationCurve:
        """Parse a CSV (path or file-like) with header ``n,value``.

        Columns after the first two are ignored, and every value must be
        finite.  A curve whose values are all integers is read back as a type
        count.  An error names the source and the line of the bad row (the
        header is line 1).
        """
        if hasattr(source, "read"):
            return cls._read_csv(source, getattr(source, "name", "curve CSV"))
        with open(source, encoding="utf-8", newline="") as f:
            return cls._read_csv(f, source)

    @classmethod
    def _read_csv(cls, f, name) -> AccumulationCurve:
        reader = csv.reader(f)
        rows = filter(None, reader)  # blank lines are skipped
        points: list[tuple[int, float]] = []
        counted = True  # ``to_csv`` writes type counts, and only them, as bare integers
        last = 0
        try:
            if next(rows, [])[:2] != ["n", "value"]:
                raise ValueError("the header must be 'n,value'")
            for r in rows:
                if len(r) < 2:
                    raise ValueError(f"row {','.join(r)!r} needs an n and a value")
                n = int(r[0])
                if n < 1:
                    raise ValueError(f"n {n} is below 1")
                if n > sys.float_info.max:  # ``ns`` holds it as a float
                    raise ValueError(f"n {n} is past float range")
                if float(n) <= float(last):  # past 2**53 distinct ints can round to one float
                    raise ValueError(f"n {n} does not exceed the previous n {last}"
                                     + (" as a float" if n > last else ""))
                value = float(r[1])
                if not math.isfinite(value):
                    raise ValueError(f"value {r[1]!r} is not finite")
                points.append((n, value))
                counted = counted and r[1].isdigit()
                last = n
        except (ValueError, csv.Error) as exc:  # csv.Error: a field past csv's size limit
            # an empty file has no line 1, but that is where its header belongs
            raise ValueError(f"{name}, line {max(reader.line_num, 1)}: {exc}") from None
        statistic = "type-count" if counted and points else "diversity"
        return cls(points=tuple(points), statistic=statistic)


_FLUSH_EVENTS = 4096  # events interned per block: O(types + _FLUSH_EVENTS) memory


def every(step: int) -> range:
    """Checkpoints at every ``step``-th event, for a stream of any length.

    The range can be iterated again, so one schedule serves many streams.
    """
    if step < 1:
        raise ValueError("checkpoint step must be >= 1")
    return range(step, sys.maxsize, step)


def _next_checkpoint(positions: Iterator[int], previous: int) -> int | None:
    position = next(positions, None)
    if position is not None and not hasattr(position, "__index__"):  # what islice takes
        raise ValueError(f"checkpoint {position!r} is not an integer")
    if position is not None and not position > previous:
        raise ValueError(f"checkpoint {position} is below 1" if previous == 0 else
                         f"checkpoint {position} does not exceed the previous one, {previous}")
    return None if position is None else operator.index(position)  # curves store it as n


def growth_curves(events: Iterable[str], checkpoints: Iterable[int],
                  order: float = 1.0) -> tuple[AccumulationCurve, AccumulationCurve]:
    """Type-count and Hill-diversity curves of the events, from one pass.

    ``checkpoints`` are the positions n to sample, strictly increasing from
    1, such as ``every(100)`` or a list.  The pass takes the next position
    when it reaches the previous one, and checks it then.  The final
    checkpoint at the stream end is always included; an empty stream yields
    two empty curves.

    Labels get ids in first-seen order, so ``counts[:R]`` lists the per-type
    counts as a label -> count dict iterates them: the Hill sum adds the same
    terms in the same order as a from-scratch count of the prefix.  The ids
    are read a block of ``_FLUSH_EVENTS`` events at a time, and the type
    count k events into a block is one more than the largest id among them
    (or the count before the block, if larger).  Memory is O(types + 4,096).
    """
    order = _check_order(order)
    ids: defaultdict[str, int] = defaultdict(count().__next__)  # a new label gets the next id
    stream = iter(events)
    counts = np.zeros(0)
    types, hills = [], []  # (n, value) rows
    positions = iter(checkpoints)
    target = _next_checkpoint(positions, 0)
    n = r = 0  # events and types before the block
    while True:
        block = np.fromiter(map(ids.__getitem__, islice(stream, _FLUSH_EVENTS)), np.intp)
        if len(ids) > counts.size:
            counts = np.concatenate((counts, np.zeros(len(ids))))
        seen = np.maximum.accumulate(block)  # ids are first-seen: seen[k-1] + 1 types by k
        done = 0  # events of the block already in the counts
        while target is not None and target - n <= block.size:
            k = target - n
            np.add.at(counts, block[done:k], 1.0)  # whole numbers: exact in any order
            done, r = k, max(r, int(seen[k - 1]) + 1)
            types.append((target, float(r)))
            hills.append((target, hill_from_probabilities(counts[:r] / target, order)))
            target = _next_checkpoint(positions, target)
        np.add.at(counts, block[done:], 1.0)
        n, r = n + block.size, len(ids)
        if block.size < _FLUSH_EVENTS:  # the stream has ended
            if n > 0 and (not types or types[-1][0] != n):
                types.append((n, float(r)))
                hills.append((n, hill_from_probabilities(counts[:r] / n, order)))
            return AccumulationCurve(tuple(types), "type-count"), AccumulationCurve(tuple(hills))


def vocabulary_growth(events: Iterable[str], checkpoints: Iterable[int]) -> AccumulationCurve:
    """Number of distinct labels among the first n events, per checkpoint."""
    return growth_curves(events, checkpoints)[0]


def diversity_growth(
    events: Iterable[str], checkpoints: Iterable[int], order: float = 1.0
) -> AccumulationCurve:
    """Hill diversity of the first n events, per checkpoint, in one pass."""
    return growth_curves(events, checkpoints, order)[1]
