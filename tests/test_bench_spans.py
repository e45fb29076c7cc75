"""The benchmark's wrap targets: every name perfbench/spans.py wraps still resolves."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from metadiv import cli

from .conftest import marc_collection, marc_record

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("target", SPANS.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_target_resolves(target):
    module_name, path, *_ = target
    assert SPANS._resolve(module_name, path) is not None


def test_traced_marc_run_prints_what_an_untraced_run_prints(tmp_path, capsys):
    # The tracer hands ``_run_marc`` a proxy of the record stream; every
    # tally on the stderr line must come through it unchanged.
    catalog = tmp_path / "catalog.xml"
    catalog.write_bytes(marc_collection(
        marc_record("r1", "010101", authors=("Alpha, A.",),
                    subjects=((("a", "Commerce"), ("x", "History")),)),
        marc_record(None, "010102", authors=("Beta, B.",)),
        marc_record("r3", None, authors=("Gamma, C.",)),
        marc_record("r4", "020101", authors=("Alpha, A.",),
                    subjects=((("a", "Commerce--History"),),)),
    ))
    argv = ["marc", str(catalog), "--facet", "authors"]
    assert cli.main(argv) == cli.EXIT_OK
    plain = capsys.readouterr()
    tracer = SPANS.Tracer()
    with SPANS.instrument(tracer):
        assert cli.main(argv) == cli.EXIT_OK
    traced = capsys.readouterr()
    assert (traced.out, traced.err) == (plain.out, plain.err)
    assert plain.err.splitlines()[-1] == (
        '{"records": 3, "skipped": 1, "missing_year": 1, "mu": 2.0, '
        '"structured_headings": 1, "split_headings": 1}')
    assert (tracer.counters["marc.records"], tracer.counters["marc.skipped"]) == (3, 1)
