"""Core diversity indices: point oracles and distribution-level invariants."""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadiv.diversity import (
    ORDER_ONE_NEAR,
    FrequencyDistribution,
    _entropy_from_probabilities,
    diversity_richness_ratio,
    hill_diversity,
    hill_from_probabilities,
    richness,
    shannon_entropy,
)

counts_lists = st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=100)


def dist_of(counts):
    return FrequencyDistribution({f"c{i}": c for i, c in enumerate(counts)})


class TestConstruction:
    def test_from_counts_direct(self):
        d = FrequencyDistribution({"a": 2, "b": 3})
        assert d.counts == {"a": 2, "b": 3}
        assert d.total == 5

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="'a'"):
            FrequencyDistribution({"a": -1})

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="'a'"):
            FrequencyDistribution({"a": 2.7})
        d = FrequencyDistribution({"a": 2.0, "b": np.int64(3)})
        assert d.counts == {"a": 2, "b": 3} and d.total == 5

    @pytest.mark.parametrize("count", ["3", True, np.True_], ids=repr)
    def test_non_number_count_rejected(self, count):
        with pytest.raises(ValueError, match="'a'"):
            FrequencyDistribution({"a": count})

    def test_counts_stored_as_int(self):
        d = FrequencyDistribution({"a": 2.0, "b": np.int64(3)})
        assert [type(c) for c in d.counts.values()] == [int, int]
        assert type(d.total) is int

    def test_constructor_derives_total(self):
        d = FrequencyDistribution({"a": 2, "b": 1})
        assert d.counts == {"a": 2, "b": 1}
        assert d.total == 3 and d
        assert hill_diversity(d, 1.0) == pytest.approx(3 / 2 ** (2 / 3))
        assert shannon_entropy(d) == pytest.approx(math.log(3) - 2 / 3 * math.log(2))

    def test_constructor_keeps_its_own_copy(self):
        counts = {"a": 1}
        d = FrequencyDistribution(counts)
        counts["b"] = 5  # the caller's dict changes after the distribution is built
        assert d.counts == {"a": 1}
        assert d.total == 1 and richness(d) == 1
        assert hill_diversity(d, 1.0) == 1.0

    @pytest.mark.parametrize("counts", [
        pytest.param({"a": 2, "b": 0}, id="0"), pytest.param({"a": 2, "b": -1}, id="-1"),
        pytest.param({"a": 2.5}, id="2.5"), pytest.param({"a": 1.5, "b": 2.5}, id="1.5-2.5"),
        pytest.param({"a": float("nan")}, id="nan")])
    def test_constructor_rejects_count_below_one(self, counts):
        with pytest.raises(ValueError, match="must be >= 1.*'[ab]'"):
            FrequencyDistribution(counts)

    def test_from_events(self):
        d = FrequencyDistribution.from_events("abcabcaa")
        assert d.counts == {"a": 4, "b": 2, "c": 2}
        assert d.total == 8

    @given(counts_lists)
    def test_probabilities_sum_to_one(self, counts):
        p = dist_of(counts).probabilities()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)


class TestRichness:
    def test_three_classes(self):
        assert richness(dist_of([8, 4, 4])) == 3

    def test_single_class(self):
        assert richness(dist_of([1])) == 1

    def test_empty_is_zero(self):
        assert richness(FrequencyDistribution()) == 0


class TestShannonEntropy:
    def test_uniform_four_classes(self):
        assert shannon_entropy(dist_of([5, 5, 5, 5])) == pytest.approx(math.log(4))

    def test_single_class_is_zero(self):
        assert shannon_entropy(dist_of([7])) == 0.0

    def test_half_quarter_quarter(self):
        # -sum p ln p with p = (1/2, 1/4, 1/4): 0.5 ln 2 + 0.5 ln 4
        expected = 0.5 * math.log(2) + 0.5 * math.log(4)
        assert shannon_entropy(dist_of([8, 4, 4])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.039721, abs=5e-7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(FrequencyDistribution())

    @settings(max_examples=300)
    @given(st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1, max_size=600))
    def test_one_buffer_sum_is_bit_identical(self, values):
        # Lengths up to 600 cross both block sizes of numpy's pairwise sum (8 and 128).
        p = np.array(values)
        entropy = _entropy_from_probabilities(p)
        assert entropy.hex() == float(-(p * np.log(p)).sum()).hex()  # bits, the sign of 0 too
        assert p.tolist() == values  # the buffer is the logarithms, not p


class TestHillDiversity:
    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_uniform_equals_class_count(self, order):
        assert hill_diversity(dist_of([3] * 4), order) == pytest.approx(4.0, abs=1e-12)

    def test_order_two(self):
        # 1 / sum p^2 with p = (.5, .25, .25): 1 / 0.375
        assert hill_diversity(dist_of([8, 4, 4]), 2.0) == pytest.approx(1 / 0.375)
        assert 1 / 0.375 == pytest.approx(2.666667, abs=5e-7)

    def test_order_one_is_exp_entropy(self):
        d = dist_of([8, 4, 4])
        assert hill_diversity(d, 1.0) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert hill_diversity(d, 1.0) == pytest.approx(
            math.exp(shannon_entropy(d)), abs=1e-12
        )

    def test_order_zero_is_richness(self):
        assert hill_diversity(dist_of([8, 4, 4]), 0.0) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hill_diversity(FrequencyDistribution(), 1.0)

    @pytest.mark.parametrize("order", [-0.5, float("inf"), float("nan")])
    def test_invalid_order_rejected(self, order):
        with pytest.raises(ValueError):
            hill_diversity(dist_of([1, 2]), order)


class TestRatio:
    def test_published_class_profile(self):
        # effective 2.1 of 5 available classes
        assert 2.1 / 5 == pytest.approx(0.42)

    def test_uniform_is_one(self):
        assert diversity_richness_ratio(dist_of([2] * 7), 1.0) == pytest.approx(1.0)

    def test_published_property_profile(self):
        assert round(55.5 / 791, 2) == pytest.approx(0.07)

    def test_matches_components(self):
        d = dist_of([8, 4, 4])
        assert diversity_richness_ratio(d, 2.0) == pytest.approx(
            hill_diversity(d, 2.0) / richness(d)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diversity_richness_ratio(FrequencyDistribution(), 1.0)


class TestInvariants:
    @given(counts_lists)
    def test_order_zero_equals_richness_exactly(self, counts):
        d = dist_of(counts)
        assert hill_diversity(d, 0.0) == float(richness(d))

    @given(counts_lists)
    def test_bounded_by_one_and_richness(self, counts):
        d = dist_of(counts)
        r = richness(d)
        for order in (0.0, 0.3, 1.0, 2.0, 7.5):
            value = hill_diversity(d, order)
            assert 1.0 - 1e-9 <= value <= r * (1 + 1e-9)

    @given(counts_lists)
    def test_monotone_in_order(self, counts):
        d = dist_of(counts)
        orders = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0]
        values = [hill_diversity(d, k) for k in orders]
        for lower, upper in zip(values[1:], values):
            assert lower <= upper * (1 + 1e-9)

    @settings(max_examples=200)
    @given(counts_lists)
    def test_continuous_at_order_one(self, counts):
        d = dist_of(counts)
        target = math.exp(shannon_entropy(d))
        assert abs(hill_diversity(d, 1.0 + 1e-6) - target) < 1e-4
        assert abs(hill_diversity(d, 1.0 - 1e-6) - target) < 1e-4

    @given(counts_lists, st.randoms(use_true_random=False))
    def test_label_permutation_invariance(self, counts, rnd):
        d = dist_of(counts)
        labels = [f"c{i}" for i in range(len(counts))]
        rnd.shuffle(labels)
        shuffled = FrequencyDistribution(dict(zip(labels, counts)))
        for order in (0.0, 1.0, 2.0):
            assert hill_diversity(shuffled, order) == pytest.approx(
                hill_diversity(d, order), rel=1e-12
            )

    @given(counts_lists, st.integers(min_value=2, max_value=1000))
    def test_count_scaling_invariance(self, counts, factor):
        base = dist_of(counts)
        scaled = dist_of([c * factor for c in counts])
        for order in (0.0, 1.0, 2.0):
            assert hill_diversity(scaled, order) == pytest.approx(
                hill_diversity(base, order), rel=1e-12
            )


class TestProbabilityVector:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 7, 8_191, 8_192, 8_193, 20_000]),  # numpy sums in blocks of 8,192
        st.sampled_from([0.0, 0.5, 1.0, 1.001, 2.0, 3.7]),
        st.integers(0, 2**32 - 1),
    )
    def test_reads_p_only_and_order_one_is_exp_entropy(self, size, order, seed):
        """``p`` is never written, and order 1 is ``exp(-sum p ln p)`` to the bit."""
        counts = np.random.default_rng(seed).zipf(1.3, size=size).astype(float)
        p = counts / counts.sum()
        before = p.tobytes()
        d = hill_from_probabilities(p, order)
        assert p.tobytes() == before
        if order == 1.0:
            assert d == float(np.exp(float(-np.sum(p * np.log(p)))))


def hill_oracle(p, order) -> float:
    """Hill diversity of the float weights ``p`` normalized, worked at 50 digits.

    Normalizing here keeps the rounding of the float sum of ``p`` out of the
    oracle; near order 1 the power sum amplifies it by 1 / (1 - k).  The
    largest weight is factored out, D = top**(k/(1-k)) * (sum (x/top)**k)**(1/(1-k)),
    so that the sum keeps its term 1 where every (x/norm)**k is below the
    smallest Decimal, as at k = 1e308.
    """
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 50, MIN_EMIN, MAX_EMAX  # 0.1 ** 1e6 is 1e-1000000
        weights = [Decimal(x) for x in p]
        norm, top, k = sum(weights), max(weights), Decimal(order)
        total = sum((x / top) ** k for x in weights)
        return float((top / norm) ** (k / (1 - k)) * total ** (1 / (1 - k)))


class TestHighOrders:
    @pytest.mark.parametrize("p", [[0.5, 0.5], [0.9, 0.1], [0.7, 0.2, 0.1]])
    @pytest.mark.parametrize("order", [2000.0, 1e6])
    def test_finite_where_the_power_sum_underflows(self, p, order):
        # sum p**k is below the smallest normal float in all but (0.9, 0.1) at
        # order 2000; where it is 0.0, 0.0 ** (1 / (1 - k)) divides by zero
        assert hill_from_probabilities(np.array(p), order) == pytest.approx(
            hill_oracle(p, order), rel=1e-14
        )

    @pytest.mark.parametrize("order", [400.0, 1e6, 1e308])
    def test_largest_class_factored_out(self, order):
        # 50 classes: every p**k underflows from k = 400 on, and at 1e308 the
        # product k ln p is past float range; D tends to 1 / max p
        counts = np.bincount(np.random.default_rng(0).integers(0, 50, 2_000)).astype(float)
        p = counts / counts.sum()
        assert np.sum(p**order) < np.finfo(float).tiny
        d = hill_from_probabilities(p, order)
        assert d == pytest.approx(hill_oracle(p, order), rel=1e-14)
        assert 1 / p.max() <= d < 1.01 / p.max()

    @settings(max_examples=100, deadline=None)
    @given(counts_lists, st.sampled_from([0.0, 0.5, 2.0, 3.0]))
    def test_direct_form_unchanged(self, counts, order):
        p = np.array(counts, dtype=float) / sum(counts)
        direct = float(np.sum(p**order) ** (1.0 / (1.0 - order)))
        assert hill_from_probabilities(p, order) == direct


class TestNearOrderOne:
    """Nearer 1 than ORDER_ONE_NEAR, but not at 1, the direct form cancels: on
    these Zipf classes it misses rel=1e-13 at 1 + 1e-9, 1 - 1e-8 and 1 + 1e-4."""

    @pytest.mark.parametrize("order", [1 - 2**-53, 1 + 2**-52, 1 - 9e-10, 1 + 1e-9, 1 - 1e-8,
                                       1 + 1e-4, 1 - 0.05, 1 + 0.0999])
    def test_zipf_against_oracle(self, order):
        counts = np.random.default_rng(0).zipf(1.3, size=2_000).astype(float)
        p = counts / counts.sum()
        assert hill_from_probabilities(p, order) == pytest.approx(hill_oracle(p, order), rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(
        counts_lists,
        # 2**-52 is the gap above 1, so 1 +- distance is never 1
        st.floats(min_value=2**-52, max_value=ORDER_ONE_NEAR, exclude_max=True),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_against_oracle(self, counts, distance, side):
        p = np.array(counts, dtype=float) / sum(counts)
        order = 1.0 + side * distance
        assert hill_from_probabilities(p, order) == pytest.approx(hill_oracle(p, order), rel=1e-13)
