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

    Modes: ``every`` (every m-th event), ``logarithmic`` (a fixed number of
    points per decade), or ``explicit`` (a caller-supplied list).  All modes
    yield strictly increasing positions; the consumer appends a final
    checkpoint at the stream end when the schedule does not land on it.
    """

    mode: str
    step: int = 0
    points: tuple[int, ...] = ()

    @classmethod
    def every(cls, step: int) -> CheckpointSchedule:
        if step < 1:
            raise ValueError("checkpoint step must be >= 1")
        return cls(mode="every", step=step)

    @classmethod
    def logarithmic(cls, per_decade: int = 20) -> CheckpointSchedule:
        if per_decade < 1:
            raise ValueError("points per decade must be >= 1")
        return cls(mode="logarithmic", step=per_decade)

    @classmethod
    def explicit(cls, points: Sequence[int]) -> CheckpointSchedule:
        pts = tuple(int(p) for p in points)
        if any(p < 1 for p in pts):
            raise ValueError("checkpoints must be >= 1")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        return cls(mode="explicit", points=pts)

    def positions(self) -> Iterator[int]:
        """Unbounded (or explicit) strictly increasing checkpoint positions."""
        if self.mode == "every":
            n = self.step
            while True:
                yield n
                n += self.step
        elif self.mode == "logarithmic":
            last = 0
            i = 0
            while True:
                n = int(round(10 ** (i / self.step)))
                i += 1
                if n > last:
                    yield n
                    last = n
        elif self.mode == "explicit":
            yield from self.points
        else:  # pragma: no cover - constructors prevent this
            raise ValueError(f"unknown schedule mode {self.mode!r}")


@dataclass(frozen=True)
class AccumulationCurve:
    """Ordered (n, value) checkpoints of a growing statistic.

    ``statistic`` is one of ``type-count``, ``richness`` or ``diversity``;
    for diversity curves ``order`` carries the Hill order.  ``years`` is an
    optional auxiliary column used by year-bucketed catalog series.
    """

    points: tuple[tuple[int, float], ...]
    statistic: str = "diversity"
    order: float | None = None
    years: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.points]
        if any(n < 1 for n in ns):
            raise ValueError("checkpoint positions must be >= 1")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("checkpoint positions must be strictly increasing")
        if self.years is not None and len(self.years) != len(self.points):
            raise ValueError("years column must match the number of points")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ns(self) -> np.ndarray:
        return np.array([n for n, _ in self.points], dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.points], dtype=float)

    def with_years(self, years: Sequence[int]) -> AccumulationCurve:
        return replace(self, years=tuple(int(y) for y in years))

    def truncated(self, n_max: int) -> AccumulationCurve:
        """Sub-curve of checkpoints with n <= n_max."""
        keep = [i for i, (n, _) in enumerate(self.points) if n <= n_max]
        years = tuple(self.years[i] for i in keep) if self.years is not None else None
        return replace(self, points=tuple(self.points[i] for i in keep), years=years)

    def to_csv(self) -> str:
        """Plot-data serialization with header ``n,value[,year]``.

        Type counts are written as integers, other statistics with four
        decimals.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "value"] if self.years is None else ["n", "value", "year"])
        for i, (n, v) in enumerate(self.points):
            value = str(int(v)) if self.statistic == "type-count" else f"{v:.4f}"
            writer.writerow([n, value] if self.years is None else [n, value, self.years[i]])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(self.to_csv())

    @classmethod
    def from_csv(cls, source) -> AccumulationCurve:
        """Parse a ``n,value[,year]`` CSV (path or file-like).

        A curve whose values are all integers is read back as a type count.
        """
        if hasattr(source, "read"):
            rows = list(csv.reader(source))
        else:
            with open(source, encoding="utf-8", newline="") as f:
                rows = list(csv.reader(f))
        rows = [r for r in rows if r]
        if not rows or rows[0][:2] != ["n", "value"]:
            raise ValueError("curve CSV must start with an 'n,value[,year]' header")
        has_year = len(rows[0]) >= 3 and rows[0][2] == "year"
        points = tuple((int(r[0]), float(r[1])) for r in rows[1:])
        # ``to_csv`` writes type counts, and only them, as bare integers.
        counted = bool(points) and all(r[1].isdigit() for r in rows[1:])
        return cls(
            points=points,
            statistic="type-count" if counted else "diversity",
            years=tuple(int(r[2]) for r in rows[1:]) if has_year else None,
        )


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
    return AccumulationCurve(_growth(events, schedule, order), statistic="diversity", order=order)
