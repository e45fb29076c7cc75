"""Vocabulary growth, diversity growth, and asymptote extrapolation.

A text's vocabulary keeps growing with its length (well fit by C*n^alpha),
so raw type counts cannot compare texts of different sizes.  The running
diversity instead approaches a finite asymptote, and a saturating model
fitted to its growth curve estimates that asymptote from a sample.  Here
the corpus is synthetic Zipf text, so the true value is known and the
extrapolation error is measurable.  Run with:
python demos/02_lexical_growth_extrapolation.py
"""

import os

from metadiv import (
    ModelKind,
    asymptote,
    compare_models,
    every,
    fit_model,
    fit_power_law,
    growth_curves,
)
from metadiv.synthetic import zipf_corpus, zipf_true_diversity

N_TOKENS, N_TYPES = 100_000, 5_000
tokens = zipf_corpus(N_TOKENS, N_TYPES, exponent=1.0, seed=42)
true_d = zipf_true_diversity(N_TYPES, exponent=1.0)
print(f"corpus: {N_TOKENS} tokens over {N_TYPES} types, true diversity {true_d:.1f}")

# One pass over the tokens gives both curves at every 100th token.
vocab, diversity = growth_curves(tokens, every(100), order=1.0)

# The unbounded side: vocabulary follows a power law in n.
power = fit_power_law(vocab)
print(
    f"\nvocabulary growth ~ C*n^alpha with "
    f"C={power.params['C']:.2f}, alpha={power.params['alpha']:.3f}"
)

# The bounded side: fit each saturating model and read off its asymptote.
print(f"\nobserved diversity at n={N_TOKENS}: {diversity.points[-1][1]:.1f}")
for kind in (ModelKind.M1, ModelKind.M2, ModelKind.M3, ModelKind.M4):
    fit = fit_model(diversity, kind)
    err = abs(asymptote(fit) - true_d) / true_d
    print(
        f"  {kind.name}: extrapolated D = {asymptote(fit):7.1f}   "
        f"error vs true {err:6.1%}   converged={fit.converged}"
    )

# Out-of-sample test: train on the first 10k tokens only, rank models by
# their prediction error on the remaining 90k.
print("\nholdout ranking (trained on n <= 10000):")
for ranked in compare_models(diversity, train_limit=10_000):
    print(f"  {ranked.kind.name}: holdout RMSE {ranked.holdout_rmse:8.3f}")

# Plot-ready CSVs for external tooling.
os.makedirs("demo_output", exist_ok=True)
for curve, name in ((vocab, "vocabulary_growth"), (diversity, "diversity_growth")):
    with open(f"demo_output/{name}.csv", "w", encoding="utf-8", newline="") as f:
        f.write(curve.to_csv())
print("\nwrote demo_output/vocabulary_growth.csv and demo_output/diversity_growth.csv")
