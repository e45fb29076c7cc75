"""Per-layer metrics of one traced job, named after metadiv's modules.

Each metric lists the span names it is computed from; when a wrap target
behind one of them no longer exists, the metric is reported as missing
(value ``None``), never as zero.  A ratio whose base is zero reads 0.0; its
base is reported beside it.
"""

from __future__ import annotations

# (name, unit, spans it depends on, how it is computed)
#   total:<span>  summed duration     self:<span>   summed self time
#   calls:<span>  number of spans     counter:<key> count kept by the wrappers
#   ratio:<a>/<b> quotient of two counters or span counts
METRICS = (
    ("text.tokenize_s", "s", ("text.tokenize",), "total:text.tokenize"),
    ("text.tokens", "count", ("text.tokenize",), "counter:text.tokens"),
    ("text.lexical_report_self_s", "s", ("text.lexical_report",), "self:text.lexical_report"),
    ("accumulation.diversity_growth_self_s", "s", ("accumulation.diversity_growth",),
     "self:accumulation.diversity_growth"),
    ("accumulation.vocabulary_growth_s", "s", ("accumulation.vocabulary_growth",),
     "total:accumulation.vocabulary_growth"),
    ("accumulation.events", "count",
     ("accumulation.vocabulary_growth", "accumulation.diversity_growth"),
     "counter:accumulation.events"),
    ("accumulation.checkpoints", "count",
     ("accumulation.vocabulary_growth", "accumulation.diversity_growth"),
     "counter:accumulation.checkpoints"),
    ("accumulation.from_csv_s", "s", ("accumulation.from_csv",), "total:accumulation.from_csv"),
    ("diversity.hill_calls", "count", ("diversity.hill",), "calls:diversity.hill"),
    ("diversity.hill_classes", "count", ("diversity.hill",), "counter:diversity.hill_classes"),
    ("diversity.hill_s", "s", ("diversity.hill",), "total:diversity.hill"),
    ("fitting.fit_model_self_s", "s", ("fitting.fit_model",), "self:fitting.fit_model"),
    ("fitting.fit_model_calls", "count", ("fitting.fit_model",), "calls:fitting.fit_model"),
    ("fitting.fit_power_law_s", "s", ("fitting.fit_power_law",), "total:fitting.fit_power_law"),
    ("fitting.compare_models_self_s", "s", ("fitting.compare_models",),
     "self:fitting.compare_models"),
    ("fitting.converged_frac", "ratio", ("fitting.fit_model",),
     "ratio:counter:fitting.converged/calls:fitting.fit_model"),
    ("fitting.step_accept_frac", "ratio", ("models.eval", "models.gradient"),
     "ratio:calls:models.gradient/calls:models.eval"),
    ("models.eval_calls", "count", ("models.eval",), "calls:models.eval"),
    ("models.eval_s", "s", ("models.eval",), "total:models.eval"),
    ("models.gradient_calls", "count", ("models.gradient",), "calls:models.gradient"),
    ("models.gradient_s", "s", ("models.gradient",), "total:models.gradient"),
    ("marc.parse_s", "s", ("marc.parse",), "total:marc.parse"),
    ("marc.parses", "count", ("marc.parse",), "counter:marc.parses"),
    ("marc.records", "count", ("marc.parse",), "counter:marc.records"),
    ("marc.skipped", "count", ("marc.parse",), "counter:marc.skipped"),
    ("marc.facet_series_self_s", "s", ("marc.facet_series",), "self:marc.facet_series"),
    ("lod.requests", "count", (), "counter:lod.requests"),
    ("lod.retries", "count", ("lod.client",), "retries"),
    ("lod.rows", "count", (), "counter:lod.rows"),
    ("lod.query_bytes", "count", (), "counter:lod.query_bytes"),
    ("lod.partitioned_harvests", "count", (), "counter:lod.partitioned_harvests"),
    ("lod.transport_wait_s", "s", (), "total:lod.transport"),
    ("lod.client_self_s", "s", ("lod.client",), "self:lod.client"),
    ("lod.harvest_self_s", "s", ("lod.harvest",), "self:lod.harvest"),
    ("cli.self_s", "s", (), "self:cli.main"),
    ("cli.stdout_bytes", "count", (), "counter:cli.stdout_bytes"),
)

# Measured outside a single traced job, by the run itself.
RUN_METRICS = (
    ("marc.parse_peak_mb", "MB"),
    ("trace.overhead_s", "s"),
)

UNITS = {name: unit for name, unit, *_ in METRICS} | dict(RUN_METRICS)


def _term(expr: str, summary: dict, counters: dict) -> float:
    kind, _, key = expr.partition(":")
    if kind == "counter":
        return counters.get(key, 0)
    field = {"total": "total_s", "self": "self_s", "calls": "calls"}[kind]
    return summary.get(key, {}).get(field, 0)


def job_metrics(tracer, missing: set[str]) -> dict[str, float | None]:
    """Every per-layer metric of the tracer's (single) job."""
    summary = tracer.job_summary(tracer.job)
    out: dict[str, float | None] = {}
    for name, _unit, spans, expr in METRICS:
        if missing.intersection(spans):
            out[name] = None
        elif expr == "retries":
            attempts = tracer.children_per_span(tracer.job, "lod.client", "lod.transport")
            out[name] = sum(max(0, n - 1) for n in attempts)
        elif expr.startswith("ratio:"):
            num, den = expr[len("ratio:"):].split("/")
            base = _term(den, summary, tracer.counters)
            out[name] = _term(num, summary, tracer.counters) / base if base else 0.0
        else:
            out[name] = _term(expr, summary, tracer.counters)
    return out
