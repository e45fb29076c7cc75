"""The four workloads: which CLI commands one job runs and how each is checked.

Every workload is a closed loop with one client: the next ``metadiv``
invocation starts when the previous one has returned.  Paths given to the
CLI are relative to the workload's input directory, so no output embeds a
temporary path.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import checks
import inputs


@dataclass(frozen=True)
class Invocation:
    argv: list[str]
    check: Callable[[str, str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # what units_per_s counts
    write: Callable[[str, int], inputs.Truth]
    jobs: Callable[[inputs.Truth], list[Invocation]]
    units: Callable[[inputs.Truth], int]
    fake_sparql: bool = False


def _lexdiv_jobs(truth):
    argv = ["lexdiv", *(d["file"] for d in truth.spec["documents"]),
            "--every", str(inputs.LEX_EVERY), "--train", str(inputs.LEX_TRAIN)]
    return [Invocation(argv, lambda out, err: checks.check_lexdiv(out, err, truth))]


FIT_TRAIN = 500_000


def _fit_jobs(truth):
    return [
        Invocation(["fit", c["file"], "--model", "m4", "--train", str(FIT_TRAIN)],
                   lambda out, err, f=c["file"]: checks.check_fit(out, err, truth, f, FIT_TRAIN))
        for c in truth.spec["curves"]
    ]


def _marc_jobs(truth):
    return [
        Invocation(["marc", inputs.MARC_FILE, "--facet", facet, "--order", "2"],
                   lambda out, err, f=facet: checks.check_marc(out, err, truth, f))
        for facet in inputs.MARC_FACETS
    ]


def _lod_jobs(truth):
    argv = ["lod", "--roster", inputs.LOD_ROSTER, "--format", "json"]
    return [Invocation(argv, lambda out, err: checks.check_lod(out, err, truth, inputs.LOD_EPOCH))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lexdiv-zipf",
            "four Zipf texts (12.5k-50k tokens, 5,000 checkpoints) through lexdiv: the "
            "growth kernel and tokenizer dominate, fitting is about 2%",
            "tokens", inputs.write_lexdiv, _lexdiv_jobs, lambda t: t.spec["tokens"]),
        Workload(
            "fit-holdout",
            "fit m4 plus a holdout ranking on 10 saved 10k-point curves from all five "
            "model forms: fitting only, the growth kernel never runs",
            "curve points", inputs.write_fit, _fit_jobs, lambda t: t.spec["curve_points"]),
        Workload(
            "marc-catalog",
            "three facet series of a 7.5k-record MARCXML catalog at order 2: parsing "
            "dominates, few checkpoints over many events",
            "records", inputs.write_marc, _marc_jobs, lambda t: t.spec["records"]),
        Workload(
            "lod-harvest",
            "three fake endpoints (direct, row-capped, timing out) with a 5 ms round "
            "trip: the only workload of the lod layer",
            "keys", inputs.write_lod, _lod_jobs, lambda t: t.spec["keys"], fake_sparql=True),
    )
}
