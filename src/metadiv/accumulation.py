"""Growth curves of type counts and diversity over an ordered event stream.

A curve records a statistic of the first ``n`` events at a series of
checkpoints: the number of distinct labels seen (vocabulary growth) or the
Hill diversity of the running frequency distribution.  One pass interns the
labels and adds their ids into a dense count vector at each checkpoint, so
memory grows with the number of types, not with the stream.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import count, islice

import numpy as np

from .diversity import _check_order, hill_from_probabilities

__all__ = [
    "CheckpointSchedule",
    "AccumulationCurve",
    "vocabulary_growth",
    "diversity_growth",
]


@dataclass(frozen=True)
class CheckpointSchedule:
    """Positions at which a growth statistic is sampled.

    Built by ``every`` (every m-th event) or ``explicit`` (a caller-supplied
    list).  Both yield strictly increasing positions; the consumer appends a
    final checkpoint at the stream end when the schedule does not land on it.
    """

    step: int = 0
    points: tuple[int, ...] = ()

    @classmethod
    def every(cls, step: int) -> CheckpointSchedule:
        if step < 1:
            raise ValueError("checkpoint step must be >= 1")
        return cls(step=step)

    @classmethod
    def explicit(cls, points: Sequence[int]) -> CheckpointSchedule:
        pts = tuple(int(p) for p in points)
        if any(p < 1 for p in pts):
            raise ValueError("checkpoints must be >= 1")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        return cls(points=pts)

    def positions(self) -> Iterator[int]:
        """Unbounded (``every``) or explicit strictly increasing positions."""
        return count(self.step, self.step) if self.step else iter(self.points)


@dataclass(frozen=True)
class AccumulationCurve:
    """Ordered (n, value) checkpoints of a growing statistic.

    ``statistic`` is ``type-count`` or ``diversity``.
    """

    points: tuple[tuple[int, float], ...]
    statistic: str = "diversity"

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.points]
        if any(n < 1 for n in ns):
            raise ValueError("checkpoint positions must be >= 1")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("checkpoint positions must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ns(self) -> np.ndarray:
        return np.array([n for n, _ in self.points], dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.points], dtype=float)

    def truncated(self, n_max: int) -> AccumulationCurve:
        """Sub-curve of checkpoints with n <= n_max."""
        return replace(self, points=tuple((n, v) for n, v in self.points if n <= n_max))

    def to_csv(self) -> str:
        """Plot-data serialization with header ``n,value``.

        Type counts are written as integers, other statistics with four
        decimals.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "value"])
        for n, v in self.points:
            value = str(int(v)) if self.statistic == "type-count" else f"{v:.4f}"
            writer.writerow([n, value])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, source) -> AccumulationCurve:
        """Parse a CSV (path or file-like) with header ``n,value``.

        Columns after the first two are ignored.  A curve whose values are
        all integers is read back as a type count.  An error names the
        source and the line of the bad row (the header is line 1).
        """
        if hasattr(source, "read"):
            return cls._read_csv(source, getattr(source, "name", "curve CSV"))
        with open(source, encoding="utf-8", newline="") as f:
            return cls._read_csv(f, source)

    @classmethod
    def _read_csv(cls, f, name) -> AccumulationCurve:
        reader = csv.reader(f)
        rows = filter(None, reader)  # blank lines are skipped
        if next(rows, [])[:2] != ["n", "value"]:
            raise ValueError(f"{name}: the header must be 'n,value'")
        points: list[tuple[int, float]] = []
        counted = True  # ``to_csv`` writes type counts, and only them, as bare integers
        last = 0
        try:
            for r in rows:
                if len(r) < 2:
                    raise ValueError(f"row {','.join(r)!r} needs an n and a value")
                n = int(r[0])
                if n <= last:
                    raise ValueError(f"n {n} is below 1" if n < 1 else
                                     f"n {n} does not exceed the previous n {last}")
                points.append((n, float(r[1])))
                counted = counted and r[1].isdigit()
                last = n
        except ValueError as exc:
            raise ValueError(f"{name}, line {reader.line_num}: {exc}") from None
        statistic = "type-count" if counted and points else "diversity"
        return cls(points=tuple(points), statistic=statistic)


_FLUSH_EVENTS = 4096  # ids reach the counts at least this often: O(types) memory


def _growth(
    events: Iterable[str], schedule: CheckpointSchedule, order: float | None
) -> tuple[tuple[int, float], ...]:
    """(n, value) checkpoints of the type count (``order`` None) or Hill diversity.

    Labels get ids in first-seen order, so ``counts[:R]`` lists the per-type
    counts as a label -> count dict iterates them: the Hill sum adds the same
    terms in the same order as a from-scratch count of the prefix.  The final
    checkpoint at the stream end is always included.
    """
    ids: defaultdict[str, int] = defaultdict(count().__next__)  # a new label gets the next id
    stream = iter(events)
    counts = np.zeros(0)
    points: list[tuple[int, float]] = []
    positions = schedule.positions()
    target = next(positions, None)
    n = 0
    while True:
        stop = n + _FLUSH_EVENTS if target is None else min(target, n + _FLUSH_EVENTS)
        chunk = list(map(ids.__getitem__, islice(stream, stop - n)))
        n += len(chunk)
        r = len(ids)
        if order is not None:  # a type count needs no per-type counts
            if r > counts.size:
                counts = np.concatenate((counts, np.zeros(r)))
            np.add.at(counts, np.array(chunk, dtype=np.intp), 1.0)
        ended = n < stop
        if n == target or (ended and n > 0 and (not points or points[-1][0] != n)):
            value = float(r) if order is None else hill_from_probabilities(counts[:r] / n, order)
            points.append((n, value))
            target = next(positions, None)
        if ended:
            return tuple(points)


def vocabulary_growth(events: Iterable[str], schedule: CheckpointSchedule) -> AccumulationCurve:
    """Number of distinct labels among the first n events, per checkpoint.

    The final checkpoint at the stream end is always included.  An empty
    stream yields an empty curve.
    """
    return AccumulationCurve(_growth(events, schedule, None), statistic="type-count")


def diversity_growth(
    events: Iterable[str], schedule: CheckpointSchedule, order: float = 1.0
) -> AccumulationCurve:
    """Hill diversity of the first n events, per checkpoint, in one pass."""
    order = _check_order(order)
    return AccumulationCurve(_growth(events, schedule, order), statistic="diversity")
