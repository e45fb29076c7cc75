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
    diversity_growth,
    every,
    growth_curves,
    vocabulary_growth,
)
from metadiv.diversity import FrequencyDistribution, hill_diversity, hill_from_probabilities


def from_scratch(events, schedule, order):
    """Reference curve: count every checkpoint's prefix afresh in a dict.

    ``order`` None gives the type count, otherwise the Hill diversity of the
    counts in first-seen order.
    """
    ns = list(itertools.takewhile(lambda p: p <= len(events), schedule))
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


def log_spaced(per_decade: int, limit: int) -> list[int]:
    """Checkpoints at the rounded powers 10**(i / per_decade) up to limit."""
    powers = (10 ** (i / per_decade) for i in itertools.count())
    return list(dict.fromkeys(round(p) for p in itertools.takewhile(lambda p: p <= limit, powers)))


@st.composite
def stream_and_schedule(draw):
    events = draw(streams)
    kind = draw(st.sampled_from(["every", "log-spaced", "explicit"]))
    if kind == "every":
        return events, every(draw(st.integers(1, 30)))
    if kind == "log-spaced":
        return events, log_spaced(draw(st.integers(1, 20)), len(events) + 1)
    # Explicit points may lie past the end of the stream or exactly on it.
    points = draw(st.sets(st.integers(1, len(events) + 20), max_size=12))
    if events and draw(st.booleans()):
        points.add(len(events))
    return events, sorted(points)


class TestSchedules:
    def test_every(self):
        sched = every(10)
        positions = list(itertools.takewhile(lambda pos: pos <= 45, sched))
        assert positions == [10, 20, 30, 40]
        assert list(itertools.islice(sched, 4)) == positions  # iterable again

    def test_every_rejects_bad_step(self):
        for step in (0, -2):
            with pytest.raises(ValueError, match="^checkpoint step must be >= 1$"):
                every(step)

    def test_explicit_validated(self):
        with pytest.raises(ValueError, match="checkpoint 5 does not exceed"):
            growth_curves("abcdefgh", [5, 5, 6])
        with pytest.raises(ValueError, match="checkpoint 0 is below 1"):
            growth_curves("abcdefgh", [0, 3])

    @pytest.mark.parametrize("checkpoints, message", [
        ((5, 3), "checkpoint 3 does not exceed the previous one, 5"),
        ((2, 4, 4), "checkpoint 4 does not exceed the previous one, 4"),
        ((0,), "checkpoint 0 is below 1"),
        ((-2, 3), "checkpoint -2 is below 1"),
        ((1, -1), "checkpoint -1 does not exceed the previous one, 1"),
        ((2.5,), r"checkpoint 2\.5 is not an integer"),
        ((2, 3.5), r"checkpoint 3\.5 is not an integer"),
    ], ids=["decreasing", "repeated", "zero", "negative", "negative-later", "fractional",
            "fractional-later"])
    def test_kernel_names_a_bad_position(self, checkpoints, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            growth_curves(list("abcdefgh"), checkpoints)

    def test_positions_are_taken_as_the_stream_reaches_them(self):
        # An unbounded generator is read only as far as the stream goes, and
        # a bad position after the first one past the end is never taken.
        curve = vocabulary_growth("abcab", itertools.count(2, 2))
        assert curve.points == ((2, 2.0), (4, 3.0), (5, 3.0))
        assert vocabulary_growth("abc", [2, 5, 9, 1]).points == ((2, 2.0), (3, 3.0))


class TestVocabularyGrowth:
    def test_hand_simulated(self):
        curve = vocabulary_growth("abac", every(1))
        assert curve.points == ((1, 1.0), (2, 2.0), (3, 2.0), (4, 3.0))
        assert curve.statistic == "type-count"

    def test_single_repeated_label(self):
        curve = vocabulary_growth(["x"] * 100, every(10))
        assert all(v == 1.0 for _, v in curve.points)
        assert curve.points[-1] == (100, 1.0)

    def test_all_distinct(self):
        events = [f"t{i}" for i in range(57)]
        curve = vocabulary_growth(events, every(10))
        assert all(v == float(n) for n, v in curve.points)

    def test_final_checkpoint_always_included(self):
        curve = vocabulary_growth("abcde", every(2))
        assert curve.points[-1][0] == 5

    def test_empty_stream(self):
        curve = vocabulary_growth([], every(10))
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
        curve = diversity_growth("ab", every(1), order=1.0)
        assert curve.points[0] == (1, pytest.approx(1.0))
        assert curve.points[1] == (2, pytest.approx(2.0))

    def test_constant_for_single_class(self):
        curve = diversity_growth(["a"] * 50, every(7), order=1.0)
        assert all(v == pytest.approx(1.0) for _, v in curve.points)

    def test_order_two_point_value(self):
        # counts a:2, b:6 at n=8 -> 1 / ((2/8)^2 + (6/8)^2)
        curve = diversity_growth("abab" + "b" * 4, every(8), order=2.0)
        assert curve.points[-1] == (8, pytest.approx(1.6))

    def test_empty_stream(self):
        curve = diversity_growth([], every(3), order=1.0)
        assert curve.points == ()

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    def test_matches_from_scratch_prefix_distribution(self, order):
        rng = np.random.default_rng(31)
        events = [f"w{i}" for i in rng.zipf(1.6, size=10_000) if i <= 500]
        curve = diversity_growth(events, every(97), order=order)
        for n, value in curve.points[:: max(1, len(curve) // 20)]:
            prefix = FrequencyDistribution.from_events(events[:n])
            assert value == hill_diversity(prefix, order)

    def test_deterministic(self):
        events = list("the quick brown fox jumps over the lazy dog" * 20)
        a = diversity_growth(events, every(50), order=1.0)
        b = diversity_growth(events, every(50), order=1.0)
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

    @settings(max_examples=300)
    @given(
        stream_and_schedule(),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
        st.sampled_from([1, 3, 4096]),
    )
    def test_growth_curves_equal_both_views(self, case, order, flush_events):
        """One pass gives the curves of the two single-statistic passes, bit for bit."""
        events, schedule = case
        with mock.patch.object(accumulation, "_FLUSH_EVENTS", flush_events):
            types, hills = growth_curves(iter(events), schedule, order)
            assert types == vocabulary_growth(iter(events), schedule)
            assert hills == diversity_growth(iter(events), schedule, order)
        assert types.points == from_scratch(events, schedule, None)
        assert hills.points == from_scratch(events, schedule, order)

    @pytest.mark.parametrize("length", [8192, 8193])
    @pytest.mark.parametrize("order", [None, 1.0, 2.0])
    def test_block_edges_at_the_real_flush_size(self, length, order):
        """Checkpoints on both sides of each block edge, new types at the edge too."""
        assert accumulation._FLUSH_EVENTS == 4096
        rng = np.random.default_rng(11)
        events = [f"w{i}" for i in rng.zipf(1.3, size=length)]
        events[4095], events[4096] = "last-of-block", "first-of-block"
        schedule = [1, 4095, 4096, 4097, 8192, length + 1]
        if order is None:
            curve = vocabulary_growth(iter(events), schedule)
        else:
            curve = diversity_growth(iter(events), schedule, order)
        assert curve.points == from_scratch(events, schedule, order)

    @pytest.mark.parametrize("grow", [vocabulary_growth, diversity_growth, growth_curves])
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
        with pytest.raises(ValueError, match="^checkpoint positions must be strictly increasing$"):
            AccumulationCurve(points=((2, 1.0), (2, 2.0)))
        with pytest.raises(ValueError, match="^checkpoint positions must be >= 1$"):
            AccumulationCurve(points=((0, 1.0),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AccumulationCurve(points=((1, 1.0), (2, bad), (3, 2.0), (4, 2.5)))

    def test_columns_are_built_once_and_read_only(self):
        curve = AccumulationCurve(points=((1, 1.0), (5, 2.0), (9, 3.0)))
        assert curve.ns is curve.ns and curve.values is curve.values
        assert curve.ns.tolist() == [1.0, 5.0, 9.0] and curve.values.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            curve.values[0] = 0.0

    def test_truncated(self):
        curve = AccumulationCurve(points=((1, 1.0), (5, 2.0), (9, 3.0)))
        assert curve.truncated(5).points == ((1, 1.0), (5, 2.0))

    def test_csv_round_trip(self):
        curve = diversity_growth("abacabadae", every(2), order=1.0)
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
        curve = vocabulary_growth("aabbcc", every(2))
        rows = curve.to_csv().splitlines()[1:]
        assert rows == ["2,1", "4,2", "6,3"]

    def test_from_csv_rejects_missing_header(self):
        with pytest.raises(ValueError):
            AccumulationCurve.from_csv(io.StringIO("1,2\n3,4\n"))

    @pytest.mark.parametrize(
        "body, line, detail",
        [
            ("1,1.0\n2,abc\n", 3, "'abc'"),  # value not a number
            ("1,1.0\n1.5,2.0\n", 3, "'1.5'"),  # n not an integer
            ("0,1.0\n", 2, "n 0 is below 1"),
            ("1,1.0\n\n3,2.0\n3,4.0\n", 5, "n 3 does not exceed the previous n 3"),
            # ``ns`` holds n as a float: 2**53 + 1 rounds down onto 2**53, and
            # 2**53 + 3 rounds up onto 2**53 + 4
            pytest.param("1,1\n2,2\n9007199254740992,3\n9007199254740993,4\n", 5,
                         "n 9007199254740993 does not exceed the previous n 9007199254740992 "
                         "as a float", id="float-tie-rounding-down"),
            pytest.param("9007199254740995,1\n9007199254740996,2\n", 3,
                         "n 9007199254740996 does not exceed the previous n 9007199254740995 "
                         "as a float", id="float-tie-rounding-up"),
            pytest.param("1," + "1" * 200_000 + "\n", 2, "field larger than field limit",
                         id="csv-field-limit"),
        ],
    )
    def test_from_csv_error_names_file_and_line(self, tmp_path, body, line, detail):
        path = tmp_path / "curve.csv"
        path.write_text("n,value\n" + body)
        with pytest.raises(ValueError) as info:
            AccumulationCurve.from_csv(path)
        assert str(info.value).startswith(f"{path}, line {line}: ")
        assert detail in str(info.value)
