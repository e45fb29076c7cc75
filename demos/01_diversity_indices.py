"""Effective numbers: how Hill diversity summarizes a frequency distribution.

Richness counts every observed class once, no matter how rare.  Hill
diversity of order k discounts rare classes more and more as k grows, and
always reads as "the number of equally-common classes that would give the
same index".  Run with:  python demos/01_diversity_indices.py
"""

from metadiv import (
    FrequencyDistribution,
    diversity_richness_ratio,
    hill_diversity,
    richness,
    shannon_entropy,
)

# A perfectly even catalog facet and a skewed one, same richness.
even = FrequencyDistribution({f"topic-{i}": 10 for i in range(8)})
skewed = FrequencyDistribution(
    {"topic-0": 65, "topic-1": 5} | {f"topic-{i}": 1 for i in range(2, 8)}
)

print(f"{'order k':>8} {'even D':>9} {'skewed D':>9}")
for order in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    print(
        f"{order:8.1f} {hill_diversity(even, order):9.3f} "
        f"{hill_diversity(skewed, order):9.3f}"
    )

# Order 0 is richness; order 1 is exp of the Shannon entropy.
print()
print("richness          :", richness(skewed))
print("exp(entropy)      :", round(2.718281828459045 ** shannon_entropy(skewed), 3))
print("order-1 diversity :", round(hill_diversity(skewed, 1.0), 3))

# The diversity/richness ratio measures evenness of usage: 1.0 means every
# class pulls equal weight, small values mean a few classes dominate.
print()
print("even   D/R:", round(diversity_richness_ratio(even, 1.0), 2))
print("skewed D/R:", round(diversity_richness_ratio(skewed, 1.0), 2))
