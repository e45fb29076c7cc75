"""Diversity measures for digital-library data and metadata.

Hill-number diversity indices over frequency distributions, growth curves
with saturating-model extrapolation of the asymptotic diversity, lexical
profiling of texts, MARC catalog facet series, and SPARQL endpoint
vocabulary profiles.
"""

from .accumulation import (
    AccumulationCurve,
    diversity_growth,
    every,
    growth_curves,
    vocabulary_growth,
)
from .diversity import (
    FrequencyDistribution,
    diversity_richness_ratio,
    hill_diversity,
    richness,
    shannon_entropy,
)
from .fitting import (
    FitResult,
    InsufficientDataError,
    ModelKind,
    RankedModel,
    asymptote,
    compare_models,
    eval_model,
    fit_model,
    fit_power_law,
    model_gradient,
)
from .text import LexicalReport, lexical_report, pearson_r, tokenize

__version__ = "0.1.0"

__all__ = [
    "AccumulationCurve",
    "FrequencyDistribution",
    "FitResult",
    "InsufficientDataError",
    "LexicalReport",
    "ModelKind",
    "RankedModel",
    "asymptote",
    "compare_models",
    "diversity_growth",
    "diversity_richness_ratio",
    "eval_model",
    "every",
    "fit_model",
    "fit_power_law",
    "growth_curves",
    "hill_diversity",
    "lexical_report",
    "model_gradient",
    "pearson_r",
    "richness",
    "shannon_entropy",
    "tokenize",
    "vocabulary_growth",
]
