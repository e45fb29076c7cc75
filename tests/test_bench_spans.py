"""The benchmark's wrap targets: every name perfbench/spans.py wraps still resolves."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from metadiv import cli
from metadiv.accumulation import every, vocabulary_growth
from metadiv.text import tokenize

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


def test_traced_lexdiv_counts_every_hill_sum(tmp_path, capsys):
    # ``diversity.hill`` wraps ``hill_from_probabilities`` where the growth
    # kernel looks it up, in ``metadiv.accumulation``.  A kernel that bound
    # the function at import would run unwrapped and leave both counts at 0.
    rng = np.random.default_rng(5)
    words = [f"word{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(300)]
    texts = [" ".join(words[i] for i in rng.zipf(1.4, size=size) if i < 300)
             for size in (900, 1500)]
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"doc{i}.txt")
        paths[-1].write_text(text, encoding="utf-8")
    argv = ["lexdiv", *map(str, paths), "--every", "25"]
    assert cli.main(argv) == cli.EXIT_OK
    plain = capsys.readouterr()
    tracer = SPANS.Tracer()
    with SPANS.instrument(tracer) as missing:
        assert cli.main(argv) == cli.EXIT_OK
    traced = capsys.readouterr()
    assert not missing
    assert (traced.out, traced.err) == (plain.out, plain.err)
    curves = [vocabulary_growth(tokenize(text), every(25)) for text in texts]
    hill_spans = [span for span in tracer.spans if span[0] == "diversity.hill"]
    assert len(hill_spans) == sum(map(len, curves)) > 0
    assert tracer.counters["diversity.hill_classes"] == sum(c.values.sum() for c in curves)
