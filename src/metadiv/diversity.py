"""Effective-number diversity indices computed from frequency distributions.

The central quantity is the Hill diversity of order ``k``,

    D_k = (sum_n p_n ** k) ** (1 / (1 - k)),

where ``p_n`` is the relative abundance of class ``n``.  Order 0 is the
richness (number of distinct classes), order 1 is the exponential of the
Shannon entropy, and order 2 is the inverse Simpson concentration.  All
indices are "effective numbers": a perfectly even distribution over N
classes scores N at every order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrequencyDistribution",
    "richness",
    "shannon_entropy",
    "hill_diversity",
    "diversity_richness_ratio",
]

# Nearer 1 than this the direct form loses digits to the cancellation in
# sum p**k ~ 1, amplified by 1/(1-k), so log D is taken as
# log1p(sum p * expm1((k-1) ln p)) / (1-k).  Against a 60-digit oracle the
# direct form is within 2e-15 relative from |k-1| = 0.1 on, but 2e-13 at 1e-3.
ORDER_ONE_NEAR = 0.1


@dataclass(frozen=True)
class FrequencyDistribution:
    """Immutable label -> count multiset with a derived total.

    The constructor keeps its own copy of ``counts``, in which every count
    must be a whole number >= 1 (any other count, a string or a bool
    included, raises ``ValueError``) and is stored as an ``int``; ``total``
    is the sum of the counts.
    """

    counts: Mapping[str, int] = field(default_factory=dict)
    total: int = field(init=False)

    def __post_init__(self) -> None:
        counts = {label: count if type(count) is int and count >= 1  # the common case, fast
                  else _whole_count(label, count) for label, count in self.counts.items()}
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", sum(counts.values()))

    @classmethod
    def from_events(cls, events: Iterable[str]) -> FrequencyDistribution:
        """Build a distribution by counting an event stream."""
        return cls(Counter(events))

    def __len__(self) -> int:
        return len(self.counts)

    def probabilities(self) -> np.ndarray:
        """Relative abundances p_n = count_n / total."""
        counts = np.fromiter(self.counts.values(), dtype=float, count=len(self.counts))
        return counts / float(self.total)


def _whole_count(label: str, count) -> int:
    try:  # a bool would pass as the count 1
        if not isinstance(count, (bool, np.bool_)) and count >= 1 and count % 1 == 0:
            return int(count)
    except TypeError:  # a string, None or other non-number
        pass
    raise ValueError(f"every count must be >= 1 and whole, got {count!r} for {label!r}")


def _check_order(order: float) -> float:
    order = float(order)
    if not np.isfinite(order) or order < 0.0:
        raise ValueError(f"diversity order must be finite and >= 0, got {order}")
    return order


def _entropy_from_probabilities(p: np.ndarray) -> float:
    # -(p * np.log(p)).sum(): the same ufuncs in the same order, in one buffer
    terms = np.log(p)
    np.multiply(p, terms, out=terms)
    return float(-np.add.reduce(terms))


def hill_from_probabilities(p: np.ndarray, order: float) -> float:
    """Hill diversity of a probability vector (all entries strictly positive).

    ``order`` must already have passed ``_check_order``.
    """
    if p.size == 0:
        raise ValueError("diversity of an empty distribution is undefined")
    if order == 1.0:  # the limit of the general formula, whose exponent 1/(1-k) diverges
        return float(np.exp(_entropy_from_probabilities(p)))
    if abs(order - 1.0) < ORDER_ONE_NEAR:
        terms = np.expm1(np.log(p) * (order - 1.0))
        return float(np.exp(np.log1p((p * terms).sum()) / (1.0 - order)))
    total = np.sum(p**order)
    if total < np.finfo(float).tiny:  # p**k underflowed: take the largest p out of the sum,
        top = p.max()  # D = top**(k/(1-k)) * (sum (p/top)**k)**(1/(1-k)), which tends to 1/top
        scaled = np.sum((p / top) ** order)  # at least 1; no product with k can overflow
        return float(top ** (order / (1.0 - order)) * scaled ** (1.0 / (1.0 - order)))
    return float(total ** (1.0 / (1.0 - order)))


def richness(dist: FrequencyDistribution) -> int:
    """Number of distinct classes; the order-0 Hill diversity. Empty -> 0."""
    return len(dist.counts)


def shannon_entropy(dist: FrequencyDistribution) -> float:
    """Shannon entropy H = -sum p_n ln p_n, in nats.

    The natural logarithm is used throughout so that ``exp(H)`` equals the
    order-1 Hill diversity.
    """
    if dist.total == 0:
        raise ValueError("entropy of an empty distribution is undefined")
    return _entropy_from_probabilities(dist.probabilities())


def hill_diversity(dist: FrequencyDistribution, order: float) -> float:
    """Hill diversity of the given order; ``exp(H)`` at the order-1 limit.

    The result always lies in [1, richness]: order 0 counts every class
    equally, and increasing the order discounts rare classes.
    """
    return hill_from_probabilities(dist.probabilities(), _check_order(order))  # raises if empty


def diversity_richness_ratio(dist: FrequencyDistribution, order: float = 1.0) -> float:
    """Diversity divided by richness: evenness of usage of the observed classes."""
    return hill_diversity(dist, order) / richness(dist)  # hill_diversity raises if empty
