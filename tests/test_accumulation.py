"""Growth curves: hand-simulated examples, oracle equivalence, serialization."""

from __future__ import annotations

import io
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadiv import accumulation
from metadiv.accumulation import (
    AccumulationCurve,
    CheckpointSchedule,
    diversity_growth,
    vocabulary_growth,
)
from metadiv.diversity import FrequencyDistribution, hill_diversity, hill_from_probabilities


def from_scratch(events, schedule, order):
    """Reference curve: count every checkpoint's prefix afresh in a dict.

    ``order`` None gives the type count, otherwise the Hill diversity of the
    counts in first-seen order.
    """
    ns = list(itertools.takewhile(lambda p: p <= len(events), schedule.positions()))
    if events and (not ns or ns[-1] != len(events)):
        ns.append(len(events))
    points = []
    for n in ns:
        counts: dict[str, int] = {}
        for label in events[:n]:
            counts[label] = counts.get(label, 0) + 1
        if order is None:
            points.append((n, float(len(counts))))
        else:
            p = np.fromiter(counts.values(), dtype=float, count=len(counts)) / n
            points.append((n, hill_from_probabilities(p, order)))
    return tuple(points)


streams = st.one_of(
    st.just([]),
    st.integers(1, 60).map(lambda k: ["x"] * k),
    st.integers(1, 60).map(lambda k: [f"t{i}" for i in range(k)]),
    st.lists(st.sampled_from("abcdefghijklmnop"), max_size=200),
)


def log_spaced(per_decade: int, limit: int) -> CheckpointSchedule:
    """Explicit schedule at the rounded powers 10**(i / per_decade) up to limit."""
    powers = (10 ** (i / per_decade) for i in itertools.count())
    points = dict.fromkeys(round(p) for p in itertools.takewhile(lambda p: p <= limit, powers))
    return CheckpointSchedule.explicit(list(points))


@st.composite
def stream_and_schedule(draw):
    events = draw(streams)
    kind = draw(st.sampled_from(["every", "log-spaced", "explicit"]))
    if kind == "every":
        return events, CheckpointSchedule.every(draw(st.integers(1, 30)))
    if kind == "log-spaced":
        return events, log_spaced(draw(st.integers(1, 20)), len(events) + 1)
    # Explicit points may lie past the end of the stream or exactly on it.
    points = draw(st.sets(st.integers(1, len(events) + 20), max_size=12))
    if events and draw(st.booleans()):
        points.add(len(events))
    return events, CheckpointSchedule.explicit(sorted(points))


class TestSchedules:
    def test_every(self):
        sched = CheckpointSchedule.every(10)
        positions = []
        for pos in sched.positions():
            if pos > 45:
                break
            positions.append(pos)
        assert positions == [10, 20, 30, 40]

    def test_every_rejects_bad_step(self):
        with pytest.raises(ValueError):
            CheckpointSchedule.every(0)

    def test_explicit_validated(self):
        with pytest.raises(ValueError):
            CheckpointSchedule.explicit([5, 5, 6])
        with pytest.raises(ValueError):
            CheckpointSchedule.explicit([0, 3])


class TestVocabularyGrowth:
    def test_hand_simulated(self):
        curve = vocabulary_growth("abac", CheckpointSchedule.every(1))
        assert curve.points == ((1, 1.0), (2, 2.0), (3, 2.0), (4, 3.0))
        assert curve.statistic == "type-count"

    def test_single_repeated_label(self):
        curve = vocabulary_growth(["x"] * 100, CheckpointSchedule.every(10))
        assert all(v == 1.0 for _, v in curve.points)
        assert curve.points[-1] == (100, 1.0)

    def test_all_distinct(self):
        events = [f"t{i}" for i in range(57)]
        curve = vocabulary_growth(events, CheckpointSchedule.every(10))
        assert all(v == float(n) for n, v in curve.points)

    def test_final_checkpoint_always_included(self):
        curve = vocabulary_growth("abcde", CheckpointSchedule.every(2))
        assert curve.points[-1][0] == 5

    def test_empty_stream(self):
        curve = vocabulary_growth([], CheckpointSchedule.every(10))
        assert curve.points == ()

    def test_never_exceeds_n_or_total_types(self):
        rng = np.random.default_rng(7)
        events = [f"w{i}" for i in rng.integers(0, 40, size=500)]
        curve = vocabulary_growth(events, log_spaced(5, len(events)))
        total_types = len(set(events))
        for n, v in curve.points:
            assert v <= n
            assert v <= total_types


class TestDiversityGrowth:
    def test_two_uniform_classes(self):
        curve = diversity_growth("ab", CheckpointSchedule.every(1), order=1.0)
        assert curve.points[0] == (1, pytest.approx(1.0))
        assert curve.points[1] == (2, pytest.approx(2.0))

    def test_constant_for_single_class(self):
        curve = diversity_growth(["a"] * 50, CheckpointSchedule.every(7), order=1.0)
        assert all(v == pytest.approx(1.0) for _, v in curve.points)

    def test_order_two_point_value(self):
        # counts a:2, b:6 at n=8 -> 1 / ((2/8)^2 + (6/8)^2)
        curve = diversity_growth("abab" + "b" * 4, CheckpointSchedule.every(8), order=2.0)
        assert curve.points[-1] == (8, pytest.approx(1.6))

    def test_empty_stream(self):
        curve = diversity_growth([], CheckpointSchedule.every(3), order=1.0)
        assert curve.points == ()

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    def test_matches_from_scratch_prefix_distribution(self, order):
        rng = np.random.default_rng(31)
        events = [f"w{i}" for i in rng.zipf(1.6, size=10_000) if i <= 500]
        curve = diversity_growth(events, CheckpointSchedule.every(97), order=order)
        for n, value in curve.points[:: max(1, len(curve) // 20)]:
            prefix = FrequencyDistribution.from_events(events[:n])
            assert value == hill_diversity(prefix, order)

    def test_deterministic(self):
        events = list("the quick brown fox jumps over the lazy dog" * 20)
        a = diversity_growth(events, CheckpointSchedule.every(50), order=1.0)
        b = diversity_growth(events, CheckpointSchedule.every(50), order=1.0)
        assert a == b


class TestGrowthKernel:
    @settings(max_examples=300)
    @given(
        stream_and_schedule(),
        st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 3.7]),
        st.sampled_from([1, 3, 4096]),
    )
    def test_equals_from_scratch_oracle(self, case, order, flush_events):
        """Bit-identical to the oracle, whatever the schedule and buffer size."""
        events, schedule = case
        with mock.patch.object(accumulation, "_FLUSH_EVENTS", flush_events):
            if order is None:
                curve = vocabulary_growth(iter(events), schedule)
            else:
                curve = diversity_growth(iter(events), schedule, order)
        assert curve.points == from_scratch(events, schedule, order)

    @pytest.mark.parametrize("grow", [vocabulary_growth, diversity_growth])
    def test_memory_independent_of_stream_length(self, grow):
        labels = [f"w{i}" for i in range(1000)]

        def peak(n_events: int) -> int:
            events = itertools.islice(itertools.cycle(labels), n_events)
            schedule = log_spaced(20, n_events)  # sparse: 110 checkpoints over 1M events
            tracemalloc.start()
            try:
                grow(events, schedule)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100_000), peak(1_000_000)
        assert large <= small + 16 * 1024


class TestCurveContainer:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError):
            AccumulationCurve(points=((2, 1.0), (2, 2.0)))

    def test_truncated(self):
        curve = AccumulationCurve(points=((1, 1.0), (5, 2.0), (9, 3.0)))
        assert curve.truncated(5).points == ((1, 1.0), (5, 2.0))

    def test_csv_round_trip(self):
        curve = diversity_growth("abacabadae", CheckpointSchedule.every(2), order=1.0)
        text = curve.to_csv()
        assert text.splitlines()[0] == "n,value"
        parsed = AccumulationCurve.from_csv(io.StringIO(text))
        assert parsed.ns.tolist() == curve.ns.tolist()
        assert parsed.values == pytest.approx(curve.values, abs=5e-5)

    @pytest.mark.parametrize("statistic", ["type-count", "diversity"])
    @pytest.mark.parametrize("years", [None, (2001, 2002, 2005)])
    def test_csv_round_trip_keeps_statistic(self, statistic, years):
        """A trailing ``year`` column, as older curve files carry, is ignored."""
        curve = AccumulationCurve(points=((2, 1.0), (3, 2.0), (7, 3.0)), statistic=statistic)
        text = curve.to_csv()
        lines = text.splitlines()
        if years is not None:
            lines = [lines[0] + ",year"] + [f"{row},{y}" for row, y in zip(lines[1:], years)]
        parsed = AccumulationCurve.from_csv(io.StringIO("\n".join(lines) + "\n"))
        assert parsed.statistic == statistic
        assert parsed.to_csv() == text

    def test_type_counts_serialized_as_integers(self):
        curve = vocabulary_growth("aabbcc", CheckpointSchedule.every(2))
        rows = curve.to_csv().splitlines()[1:]
        assert rows == ["2,1", "4,2", "6,3"]

    def test_from_csv_rejects_missing_header(self):
        with pytest.raises(ValueError):
            AccumulationCurve.from_csv(io.StringIO("1,2\n3,4\n"))
