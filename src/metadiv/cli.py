"""Command-line interface: stable, plot-ready CSV/JSON for every pipeline.

Subcommands: ``lexdiv`` (per-document lexical diversity), ``fit`` (model
fitting on a saved curve), ``marc`` (catalog facet series) and ``lod``
(endpoint diversity profiles).  Output is byte-deterministic for fixed
inputs: fixed column order, four decimals for diversity values, two for
diversity/richness ratios; a CSV cell that holds a file or endpoint name is
quoted (RFC 4180) only when it contains a comma, a quote or a line break.
This module writes every stdout byte: the library's result objects carry
numbers, and the printers below choose the fields and their precision.
Exit codes: 0 success, 1 input error, 2 transport error, 64 usage error.
Each subcommand imports its own layers when it runs; ``parse_records``,
``facet_series`` and ``profile`` are functions of this module that import
their layer when called.
Run it as ``metadiv`` once installed, or as ``python -m metadiv.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .accumulation import AccumulationCurve, every
from .diversity import _check_order
from .fitting import FitResult, ModelKind, RankedModel, compare_models, fit_model, fit_power_law
from .text import DEFAULT_TRAIN_LIMIT, LexicalReport, lexical_report, pearson_r, tokenize

if TYPE_CHECKING:
    from .lod import LodProfile, SparqlTransport

__all__ = ["main", "console_main"]

# marc.FACETS, which a test pins: the parser needs them without the MARC layer.
FACETS = ("authors", "subjects", "subdivisions")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TRANSPORT = 2
EXIT_USAGE = 64

LEXDIV_CSV_HEADER = "source,tokens,types,observed_D,extrapolated_D,C,alpha"


# The layer calls a run makes through this module, so that a tracer or a test
# can replace them here; each imports its layer only when it is called.
def parse_records(*args, **kwargs):
    """:func:`metadiv.marc.parse_records`."""
    from . import marc
    return marc.parse_records(*args, **kwargs)


def facet_series(*args, **kwargs):
    """:func:`metadiv.marc.facet_series`."""
    from . import marc
    return marc.facet_series(*args, **kwargs)


def profile(*args, **kwargs):
    """:func:`metadiv.lod.profile`."""
    from . import lod
    return lod.profile(*args, **kwargs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want 64
        self.exit(EXIT_USAGE, f"usage error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="metadiv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_lex = sub.add_parser("lexdiv", help="lexical diversity reports for text files")
    p_lex.add_argument("files", nargs="+", help="UTF-8 plain-text documents")
    p_lex.add_argument("--order", type=float, default=1.0, help="diversity order k")
    p_lex.add_argument("--every", type=int, default=100, help="checkpoint spacing in tokens")
    p_lex.add_argument("--train", type=int, default=DEFAULT_TRAIN_LIMIT,
                       help="token limit for the holdout model ranking that --format json prints")
    p_lex.add_argument("--format", choices=("csv", "json"), default="csv")
    p_lex.add_argument("--curves", metavar="DIR",
                       help="also write per-document growth curves as CSV into DIR")
    p_lex.set_defaults(func=_run_lexdiv)

    p_fit = sub.add_parser("fit", help="fit a growth model to a saved n,value curve")
    p_fit.add_argument("curve", help="CSV file with header n,value")
    p_fit.add_argument("--model", required=True, choices=sorted(kind.value for kind in ModelKind))
    p_fit.add_argument("--train", type=int, default=None,
                       help="also rank all saturating models by holdout RMSE past this n")
    p_fit.set_defaults(func=_run_fit)

    p_marc = sub.add_parser("marc", help="cumulative facet series from MARCXML catalogs")
    p_marc.add_argument("files", nargs="+", help="MARCXML files (optionally .gz)")
    p_marc.add_argument("--facet", required=True, choices=FACETS)
    p_marc.add_argument("--order", type=float, default=1.0, help="diversity order k")
    p_marc.add_argument("--extended-subjects", action="store_true",
                        help="include 600/610/651 in addition to 650")
    p_marc.set_defaults(func=_run_marc)

    p_lod = sub.add_parser("lod", help="diversity profiles of SPARQL endpoints")
    p_lod.add_argument("--roster", help="endpoint roster JSON (default: shipped roster)")
    p_lod.add_argument("--endpoint", help="profile only this endpoint name")
    p_lod.add_argument("--format", choices=("json", "csv"), default="json")
    p_lod.set_defaults(func=_run_lod)

    for p in sub.choices.values():  # the last option of every subcommand
        p.add_argument("--output", help="write to this path instead of stdout")
    return parser


def _fmt4(value: float) -> str:
    # + 0.0 after rounding keeps "-0.0000" out of the output
    return f"{round(value, 4) + 0.0:.4f}"


def _csv_cell(text: str) -> str:
    # RFC 4180: quoted, with quotes doubled, only when the text needs it
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _json_text(payload, source: str) -> str:
    try:  # JSON (RFC 8259) has no NaN or infinity
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _fit_fields(fit: FitResult) -> dict:
    return {
        "kind": fit.kind.value,
        "params": dict(fit.params),
        "residual": fit.residual,
        "n_points": fit.n_points,
        "converged": fit.converged,
    }


def _report_fields(report: LexicalReport, ranking: list[RankedModel] | None) -> dict:
    return {
        "source": report.source_id,
        "tokens": report.n_tokens,
        "types": report.n_types,
        "order": report.order,
        "observed_D": round(report.observed_diversity, 4),
        "extrapolated_D": round(report.extrapolated_diversity, 4),
        "power_law": {k: round(v, 6) for k, v in report.power_law.params.items()},
        "m4": {k: round(v, 6) for k, v in report.saturating.params.items()},
        "ranking": None if ranking is None else [
            {"model": rm.kind.value, "holdout_rmse": round(rm.holdout_rmse, 6)} for rm in ranking
        ],
    }


def _profile_fields(prof: LodProfile) -> dict:
    return {
        "endpoint": prof.endpoint,
        "retrieved_at": prof.retrieved_at,
        "complete": prof.complete,
        "classes": prof.classes.counts,
        "properties": prof.properties.counts,
        "sameas_hosts": prof.sameas_hosts.counts,
        "derived": {
            side: {"D": round(idx.diversity, 4), "R": idx.richness, "DR": round(idx.ratio, 2)}
            for side, idx in prof.derived().items()
        },
    }


def _curve_stem(path: str) -> str:
    return os.path.basename(path).rsplit(".", 1)[0]


def _run_lexdiv(args, transport) -> None:
    checkpoints = every(args.every)
    order = _check_order(args.order)  # checked here so its error names no document
    if abs(args.train) > sys.float_info.max:  # the holdout split compares it with float n
        raise ValueError(f"--train {args.train} is past float range")
    if args.curves:  # before any document is read
        stems: dict[str, str] = {}  # file stem -> the first document with it
        for path in args.files:
            first = stems.setdefault(_curve_stem(path), path)
            if first != path:
                raise ValueError(f"--curves: {first} and {path} would write the same curve files")
    # A run holds one document at a time: its text, tokens and report are
    # released before the next file is opened, and only what the output needs
    # is kept.  With --curves that is every document's two curves, written
    # once every document has succeeded.
    rows, n_tokens, extrapolated, curves = zip(*(
        _lexdiv_document(path, args, order, checkpoints) for path in args.files))

    if args.curves:
        os.makedirs(args.curves, exist_ok=True)
        for path, (vocabulary, diversity) in zip(args.files, curves):
            stem = os.path.join(args.curves, _curve_stem(path))
            _write_output(vocabulary.to_csv(), f"{stem}.vocab.csv")
            _write_output(diversity.to_csv(), f"{stem}.diversity.csv")

    try:  # undefined for fewer than two documents or a constant column
        pearson = pearson_r(n_tokens, extrapolated)
    except ValueError:
        pearson = None

    if args.format == "json":
        payload = {"documents": list(rows),
                   "pearson_R": None if pearson is None else round(pearson, 4)}
        _write_output(_json_text(payload, ", ".join(args.files)), args.output)
    else:
        summary = "undefined" if pearson is None else _fmt4(pearson)
        lines = [LEXDIV_CSV_HEADER, *rows, f"# pearson_R,{summary}"]
        _write_output("\n".join(lines) + "\n", args.output)


def _lexdiv_document(path: str, args, order: float, checkpoints: range) -> tuple:
    """One document's printed fields (a CSV row, or its JSON fields), its token
    count and extrapolated D for ``pearson_R``, and its two curves if ``--curves``."""
    try:
        with open(path, encoding="utf-8") as f:
            tokens = tokenize(f.read())
        r = lexical_report(tokens, path, order, checkpoints)
        ranking = r.holdout_ranking(args.train) if args.format == "json" else None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if args.format == "json":
        fields = _report_fields(r, ranking)
    else:
        fields = (f"{_csv_cell(r.source_id)},{r.n_tokens},{r.n_types},"
                  f"{_fmt4(r.observed_diversity)},{_fmt4(r.extrapolated_diversity)},"
                  f"{_fmt4(r.power_law.params['C'])},{_fmt4(r.power_law.params['alpha'])}")
    curves = (r.vocabulary_curve, r.diversity_curve) if args.curves else None
    return fields, r.n_tokens, r.extrapolated_diversity, curves


def _run_fit(args, transport) -> None:
    if args.train is not None and abs(args.train) > sys.float_info.max:
        raise ValueError(f"--train {args.train} is past float range")
    curve = AccumulationCurve.from_csv(args.curve)
    kind = ModelKind(args.model)
    if kind is ModelKind.POWER_LAW:
        fit = fit_power_law(curve)
    else:
        fit = fit_model(curve, kind)
    payload = _fit_fields(fit)
    if args.train is not None:
        ranking = compare_models(curve, args.train)
        payload["comparison"] = [
            {
                "model": rm.kind.value,
                "holdout_rmse": rm.holdout_rmse,
                "fit": _fit_fields(rm.fit),
            }
            for rm in ranking
        ]
    _write_output(_json_text(payload, args.curve), args.output)


def _run_marc(args, transport) -> None:
    stream = parse_records(args.files, extended_subjects=args.extended_subjects)
    series = facet_series(stream, args.facet, args.order)
    lines = ["year,cum_richness,cum_diversity"]
    lines += (f"{year},{rich},{_fmt4(div)}" for year, rich, div in series.rows)
    _write_output("\n".join(lines) + "\n", args.output)
    quality = {
        "records": stream.records,
        "skipped": stream.skipped,
        "missing_year": stream.missing_year,
        "mu": round(series.mu, 4),
        "structured_headings": stream.structured_headings,
        "split_headings": stream.split_headings,
    }
    sys.stderr.write(json.dumps(quality) + "\n")


def _run_lod(args, transport) -> int | None:
    from .lod import HarvestError

    try:
        _profile_roster(args, transport)
    except HarvestError as exc:  # caught here: main never loads the LOD layer
        sys.stderr.write(f"transport error: {exc}\n")
        return EXIT_TRANSPORT
    return None


def _profile_roster(args, transport) -> None:
    from concurrent.futures import ThreadPoolExecutor

    from .lod import SparqlClient, load_roster

    roster = load_roster(args.roster)
    if args.endpoint is not None:
        roster = [cfg for cfg in roster if cfg.name == args.endpoint]
        if not roster:
            raise ValueError(f"endpoint {args.endpoint!r} is not in the roster")
    clients = [SparqlClient(cfg, transport) for cfg in roster]

    def harvest(index: int) -> LodProfile:
        # Once a harvest fails, no later endpoint's profile or error is read.
        try:
            return profile(clients[index])
        except Exception:
            for client in clients[index + 1:]:
                client.stopped = True
            raise

    # Endpoints are independent servers: every one is harvested at once, each
    # in its own worker, while its client keeps its own requests one at a time.
    # A pool needs one worker even for an empty roster.
    with ThreadPoolExecutor(max_workers=max(len(clients), 1)) as pool:
        try:
            profiles = list(pool.map(harvest, range(len(clients))))
        except BaseException:  # an interrupt, or the first failure in roster order
            for client in clients:
                client.stopped = True
            raise
    if args.format == "csv":
        # the summary table: D, R and D/R of both sides, one row per endpoint
        lines = ["host,class_D,class_R,class_DR,prop_D,prop_R,prop_DR"]
        for prof in profiles:
            derived = prof.derived()
            cls, prop = derived["class"], derived["property"]
            lines.append(f"{_csv_cell(prof.endpoint)},{_fmt4(cls.diversity)},{cls.richness},"
                         f"{cls.ratio:.2f},{_fmt4(prop.diversity)},{prop.richness},"
                         f"{prop.ratio:.2f}")
        _write_output("\n".join(lines) + "\n", args.output)
    else:
        payload = [_profile_fields(p) for p in profiles]
        _write_output(_json_text(payload, args.roster or "shipped roster"), args.output)


def main(argv=None, transport: SparqlTransport | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help or a usage error
        return int(exc.code or 0)
    try:
        code = args.func(args, transport)  # a runner returns a code only on failure
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    return EXIT_OK if code is None else code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
