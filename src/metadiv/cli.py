"""Command-line interface: stable, plot-ready CSV/JSON for every pipeline.

Subcommands: ``lexdiv`` (per-document lexical diversity), ``fit`` (model
fitting on a saved curve), ``marc`` (catalog facet series) and ``lod``
(endpoint diversity profiles).  Output is byte-deterministic for fixed
inputs: fixed column order, four decimals for diversity values, two for
diversity/richness ratios.  Exit codes: 0 success, 1 input error,
2 transport error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .accumulation import AccumulationCurve, CheckpointSchedule
from .fitting import ModelKind, compare_models, fit_model, fit_power_law
from .lod import (HarvestError, SparqlClient, SparqlTransport, load_roster, profile,
                  profiles_to_csv)
from .marc import FACETS, facet_series, parse_records
from .text import DEFAULT_TRAIN_LIMIT, lexical_report, pearson_r, tokenize

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TRANSPORT = 2
EXIT_USAGE = 64

LEXDIV_CSV_HEADER = "source,tokens,types,observed_D,extrapolated_D,C,alpha"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want 64
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="metadiv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_lex = sub.add_parser("lexdiv", help="lexical diversity reports for text files")
    p_lex.add_argument("files", nargs="+", help="UTF-8 plain-text documents")
    p_lex.add_argument("--order", type=float, default=1.0, help="diversity order k")
    p_lex.add_argument("--every", type=int, default=100, help="checkpoint spacing in tokens")
    p_lex.add_argument("--train", type=int, default=DEFAULT_TRAIN_LIMIT,
                       help="token limit for the holdout model comparison")
    p_lex.add_argument("--format", choices=("csv", "json"), default="csv")
    p_lex.add_argument("--curves", metavar="DIR",
                       help="also write per-document growth curves as CSV into DIR")
    p_lex.add_argument("--output", help="write to this path instead of stdout")
    p_lex.set_defaults(func=_run_lexdiv)

    p_fit = sub.add_parser("fit", help="fit a growth model to a saved n,value curve")
    p_fit.add_argument("curve", help="CSV file with header n,value")
    p_fit.add_argument("--model", required=True, choices=("m1", "m2", "m3", "m4", "power"))
    p_fit.add_argument("--train", type=int, default=None,
                       help="also rank all saturating models by holdout RMSE past this n")
    p_fit.add_argument("--output", help="write to this path instead of stdout")
    p_fit.set_defaults(func=_run_fit)

    p_marc = sub.add_parser("marc", help="cumulative facet series from MARCXML catalogs")
    p_marc.add_argument("files", nargs="+", help="MARCXML files (optionally .gz)")
    p_marc.add_argument("--facet", required=True, choices=FACETS)
    p_marc.add_argument("--order", type=float, default=1.0, help="diversity order k")
    p_marc.add_argument("--extended-subjects", action="store_true",
                        help="include 600/610/651 in addition to 650")
    p_marc.add_argument("--output", help="write to this path instead of stdout")
    p_marc.set_defaults(func=_run_marc)

    p_lod = sub.add_parser("lod", help="diversity profiles of SPARQL endpoints")
    p_lod.add_argument("--roster", help="endpoint roster JSON (default: shipped roster)")
    p_lod.add_argument("--endpoint", help="profile only this endpoint name")
    p_lod.add_argument("--format", choices=("json", "csv"), default="json")
    p_lod.add_argument("--output", help="write to this path instead of stdout")
    p_lod.set_defaults(func=_run_lod)

    return parser


def _fmt4(value: float) -> str:
    # + 0.0 after rounding keeps "-0.0000" out of the output
    return f"{round(value, 4) + 0.0:.4f}"


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _curve_stem(path: str) -> str:
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


def _run_lexdiv(args, transport) -> int:
    schedule = CheckpointSchedule.every(args.every)
    reports = []
    for path in args.files:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        doc = tokenize(text, source_id=path)
        reports.append(lexical_report(doc, args.order, schedule, args.train))

    if args.curves:
        os.makedirs(args.curves, exist_ok=True)
        for report in reports:
            stem = _curve_stem(report.source_id)
            report.vocabulary_curve.write_csv(os.path.join(args.curves, f"{stem}.vocab.csv"))
            report.diversity_curve.write_csv(os.path.join(args.curves, f"{stem}.diversity.csv"))

    pearson = None
    tokens = [float(r.n_tokens) for r in reports]
    extrapolated = [r.extrapolated_diversity for r in reports]
    if len(reports) >= 2:
        try:
            pearson = pearson_r(tokens, extrapolated)
        except ValueError:
            pearson = None

    if args.format == "json":
        payload = {
            "documents": [r.to_dict() for r in reports],
            "pearson_R": None if pearson is None else round(pearson, 4),
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [LEXDIV_CSV_HEADER]
        for r in reports:
            lines.append(
                f"{r.source_id},{r.n_tokens},{r.n_types},"
                f"{_fmt4(r.observed_diversity)},{_fmt4(r.extrapolated_diversity)},"
                f"{_fmt4(r.power_law.params['C'])},{_fmt4(r.power_law.params['alpha'])}"
            )
        summary = "undefined" if pearson is None else _fmt4(pearson)
        lines.append(f"# pearson_R,{summary}")
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _run_fit(args, transport) -> int:
    curve = AccumulationCurve.from_csv(args.curve)
    kind = ModelKind(args.model)
    if kind is ModelKind.POWER_LAW:
        fit = fit_power_law(curve)
    else:
        fit = fit_model(curve, kind)
    payload = fit.to_dict()
    if args.train is not None:
        ranking = compare_models(curve, args.train)
        payload["comparison"] = [
            {
                "model": rm.kind.value,
                "holdout_rmse": rm.holdout_rmse,
                "fit": rm.fit.to_dict(),
            }
            for rm in ranking
        ]
    _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def _run_marc(args, transport) -> int:
    stream = parse_records(args.files, extended_subjects=args.extended_subjects)
    series = facet_series(stream, args.facet, args.order)
    _write_output(series.to_csv(), args.output)
    quality = {
        "records": stream.records,
        "skipped": stream.skipped,
        "missing_year": series.missing_year,
        "mu": round(series.mu, 4),
        "structured_headings": series.structured_headings,
        "split_headings": series.split_headings,
    }
    sys.stderr.write(json.dumps(quality) + "\n")
    return EXIT_OK


def _run_lod(args, transport) -> int:
    roster = load_roster(args.roster)
    if args.endpoint is not None:
        roster = [cfg for cfg in roster if cfg.name == args.endpoint]
        if not roster:
            raise ValueError(f"endpoint {args.endpoint!r} is not in the roster")
    profiles = [profile(SparqlClient(cfg, transport)) for cfg in roster]
    if args.format == "csv":
        _write_output(profiles_to_csv(profiles), args.output)
    else:
        payload = [p.to_dict() for p in profiles]
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def main(argv=None, transport: SparqlTransport | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args, transport)
    except HarvestError as exc:
        sys.stderr.write(f"transport error: {exc}\n")
        return EXIT_TRANSPORT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())
