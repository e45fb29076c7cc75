"""CLI subcommands: golden outputs, determinism, exit codes."""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import gzip
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metadiv import cli, lod
from metadiv.accumulation import AccumulationCurve, every
from metadiv.diversity import FrequencyDistribution, hill_diversity, richness
from metadiv.fitting import FORMS, ModelKind, compare_models, eval_model, fit_model, fit_power_law
from metadiv.marc import FACETS
from metadiv.synthetic import zipf_corpus
from metadiv.text import lexical_report, tokenize

from .conftest import (PEOPLE_GRAPH, FlakyTransport, GraphTransport, RewrittenCounts,
                       marc_collection, marc_record, negated)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"

ALPHA_TEXT = "The quick brown fox jumps over the lazy dog. " * 40
BETA_TOKENS = " ".join(f"w{i % 37:02d}" for i in range(400))


def check_golden(name: str, produced: str) -> None:
    """Compare against the frozen golden file (REGEN_GOLDEN=1 rewrites)."""
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(produced, encoding="utf-8")
    assert produced == path.read_text(encoding="utf-8")


def run_twice(argv, capsys, transport=None) -> tuple[int, str, str]:
    """Run a command twice and demand byte-identical output."""
    code1 = cli.main(argv, transport=transport)
    first = capsys.readouterr()
    code2 = cli.main(argv, transport=transport)
    second = capsys.readouterr()
    assert (code1, first.out, first.err) == (code2, second.out, second.err)
    return code1, first.out, first.err


def scaled_curve(scale: float) -> str:
    """Curve CSV text with values scale·n for n = 1..39."""
    return "n,value\n" + "".join(f"{n},{scale * n!r}\n" for n in range(1, 40))


@pytest.fixture()
def corpus_dir(tmp_path, monkeypatch):
    (tmp_path / "alpha.txt").write_text(ALPHA_TEXT, encoding="utf-8")
    (tmp_path / "beta.txt").write_text(BETA_TOKENS, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


MARC_FIXTURE = marc_collection(
    marc_record("r1", "010101", authors=("Alpha, A.",),
                subjects=((("a", "Commerce"), ("x", "History")),)),
    marc_record("r2", "010102", authors=("Beta, B.",),
                subjects=((("a", "Theater"),),)),
    marc_record("r3", "020101", authors=("Alpha, A.",),
                subjects=((("a", "Commerce--History"),),)),
)


@pytest.fixture()
def marc_file(tmp_path, monkeypatch):
    (tmp_path / "catalog.xml").write_bytes(MARC_FIXTURE)
    monkeypatch.chdir(tmp_path)
    return "catalog.xml"


@pytest.fixture()
def fixture_roster(tmp_path, monkeypatch):
    roster = tmp_path / "roster.json"
    roster.write_text(
        json.dumps([{"name": "FIX", "url": "http://fixture.invalid/sparql"}])
    )
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    return str(roster)


class TestLexdiv:
    def test_csv_golden(self, corpus_dir, capsys):
        code, out, _ = run_twice(
            ["lexdiv", "alpha.txt", "beta.txt", "--every", "20"], capsys
        )
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == cli.LEXDIV_CSV_HEADER
        assert out.splitlines()[-1].startswith("# pearson_R,")
        check_golden("lexdiv.csv", out)

    def test_json_golden(self, corpus_dir, capsys):
        code, out, _ = run_twice(
            ["lexdiv", "alpha.txt", "beta.txt", "--every", "20", "--format", "json"],
            capsys,
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert [d["source"] for d in payload["documents"]] == ["alpha.txt", "beta.txt"]
        assert payload["documents"][0]["types"] == 8
        check_golden("lexdiv.json", out)

    def test_curve_dump(self, corpus_dir, capsys):
        code = cli.main(
            ["lexdiv", "alpha.txt", "beta.txt", "--every", "20", "--curves", "curves"]
        )
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert sorted(os.listdir("curves")) == ["alpha.diversity.csv", "alpha.vocab.csv",
                                                "beta.diversity.csv", "beta.vocab.csv"]
        vocab = Path("curves/alpha.vocab.csv").read_text()
        assert vocab.splitlines()[0] == "n,value"
        div = Path("curves/alpha.diversity.csv").read_text()
        assert div.splitlines()[0] == "n,value"

    @pytest.mark.parametrize("first, second", [("a/x.txt", "b/x.txt"), ("x.txt", "x.md")])
    def test_curve_stem_collision_exits_one(self, tmp_path, monkeypatch, capsys, first, second):
        monkeypatch.chdir(tmp_path)
        for path, text in ((first, ALPHA_TEXT), (second, BETA_TOKENS)):
            Path(path).parent.mkdir(exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")
        argv = ["lexdiv", first, second, "--every", "20", "--curves", "out"]
        assert cli.main(argv) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"input error: --curves: {first} and {second} "
                       "would write the same curve files\n")
        assert not Path("out").exists()

    def test_curve_stem_collision_found_before_reading(self, tmp_path, monkeypatch, capsys):
        # Neither document exists: the collision is reported without opening one.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["lexdiv", "a/x.txt", "b/x.txt", "--curves", "out"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: --curves: a/x.txt and b/x.txt would write the same curve files\n")

    def test_empty_document_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.txt").write_text("")
        assert cli.main(["lexdiv", "empty.txt"]) == cli.EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["lexdiv", "absent.txt"]) == cli.EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize(
        "content, detail",
        [(b"ok \xff", "'utf-8' codec can't decode"),
         (b"two words", "power-law fit needs at least 3 points"),
         (b"", "document contains no tokens")],
    )
    def test_input_error_names_the_document(self, corpus_dir, capsys, content, detail):
        (corpus_dir / "bad.txt").write_bytes(content)
        assert cli.main(["lexdiv", "alpha.txt", "bad.txt"]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: bad.txt: ") and detail in err
        assert err.count("bad.txt") == 1

    def test_bad_order_names_no_document(self, corpus_dir, capsys):
        assert cli.main(["lexdiv", "alpha.txt", "--order", "-1"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: diversity order")

    @pytest.mark.parametrize("argv", [["lexdiv", "missing.txt"],
                                      ["fit", "missing.csv", "--model", "m4"]],
                             ids=["lexdiv", "fit"])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_train_past_float_range_is_checked_first(self, tmp_path, monkeypatch, capsys,
                                                     argv, sign):
        # The holdout split compares --train with float positions; the file
        # does not exist, so the check must come before it is read.
        monkeypatch.chdir(tmp_path)
        train = sign + "1" + "0" * 400
        assert cli.main([*argv, "--train", train]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: --train {train} is past float range\n"

    def test_order_past_float_range_in_the_power_sum(self, tmp_path, monkeypatch, capsys):
        # Every p**k underflows, and k ln p is past float range: D is 1 / max p.
        monkeypatch.chdir(tmp_path)
        words = [f"w{i}" for i in np.random.default_rng(0).integers(0, 50, 2_000)]
        Path("fifty.txt").write_text(" ".join(words))
        argv = ["lexdiv", "fifty.txt", "--order", "1e308", "--format", "json"]
        code, out, err = run_twice(argv, capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        [doc] = json.loads(out)["documents"]
        assert doc["observed_D"] == round(len(words) / max(Counter(words).values()), 4)

    def test_report_dict_shape(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("tiny").write_text(" ".join("abcab" * 30))
        code, out, _ = run_twice(["lexdiv", "tiny", "--every", "10", "--format", "json"],
                                 capsys)
        assert code == cli.EXIT_OK
        [payload] = json.loads(out)["documents"]
        assert payload["source"] == "tiny"
        assert payload["tokens"] == 150
        assert payload["types"] == 3
        assert set(payload["power_law"]) == {"C", "alpha"}
        assert set(payload["m4"]) == {"D", "c", "alpha"}

    def test_json_ranking(self, tmp_path, monkeypatch, capsys):
        # The goldens are shorter than the training limit and print no
        # ranking.  Built in-process, as in TestFit::test_stdout_bytes.
        monkeypatch.chdir(tmp_path)
        text = " ".join(zipf_corpus(3000, 500, seed=7))
        Path("zipf.txt").write_text(text, encoding="utf-8")
        code, out, err = run_twice(["lexdiv", "zipf.txt", "--every", "20", "--train", "1500",
                                    "--format", "json"], capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        report = lexical_report(tokenize(text), "zipf.txt", 1.0, every(20))
        expected = [{"model": rm.kind.value, "holdout_rmse": round(rm.holdout_rmse, 6)}
                    for rm in report.holdout_ranking(1500)]
        assert sorted(entry["model"] for entry in expected) == ["m1", "m2", "m3", "m4"]
        [document] = json.loads(out)["documents"]
        assert document["ranking"] == expected

    @pytest.mark.parametrize("fmt, calls", [("csv", 0), ("json", 2)])
    def test_ranking_fitted_only_for_json(self, corpus_dir, capsys, fmt, calls):
        # Only JSON prints the holdout ranking, so CSV fits none; both print
        # the golden's bytes.
        with mock.patch("metadiv.text.compare_models", wraps=compare_models) as compare:
            code = cli.main(["lexdiv", "alpha.txt", "beta.txt", "--every", "20",
                             "--format", fmt])
        assert code == cli.EXIT_OK
        assert compare.call_count == calls
        check_golden(f"lexdiv.{fmt}", capsys.readouterr().out)

    def test_output_file(self, corpus_dir, capsys):
        code = cli.main(["lexdiv", "alpha.txt", "--every", "20", "--output", "report.csv"])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert Path("report.csv").read_text().startswith(cli.LEXDIV_CSV_HEADER)

    @pytest.mark.parametrize("name, cell", [
        ("a,b.txt", '"a,b.txt"'),
        ('say "hi".txt', '"say ""hi"".txt"'),
        ("two\nlines.txt", '"two\nlines.txt"'),
        ("plain name.txt", "plain name.txt"),
    ])
    def test_csv_source_quoted_only_when_needed(self, corpus_dir, capsys, name, cell):
        (corpus_dir / name).write_text(ALPHA_TEXT, encoding="utf-8")
        assert cli.main(["lexdiv", name, "beta.txt", "--every", "20"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows[:3]] == [7, 7, 7]
        assert [rows[1][0], rows[2][0]] == [name, "beta.txt"]
        assert out.split("\n", 1)[1].startswith(cell + ",")


class TestFit:
    @pytest.fixture()
    def m2_curve_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ns = np.unique(np.round(np.geomspace(1, 1e5, 50)).astype(int))
        values = eval_model(ModelKind.M2, (50.0, 1000.0), ns.astype(float))
        lines = ["n,value"] + [f"{n},{float(v)!r}" for n, v in zip(ns, values)]
        (tmp_path / "curve.csv").write_text("\n".join(lines) + "\n")
        return "curve.csv"

    def test_m2_fit_json(self, m2_curve_file, capsys):
        code, out, _ = run_twice(["fit", m2_curve_file, "--model", "m2"], capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["kind"] == "m2"
        assert payload["converged"] is True
        assert payload["params"]["D"] == pytest.approx(50.0, rel=1e-4)
        assert payload["params"]["c"] == pytest.approx(1000.0, rel=1e-4)

    def test_power_fit(self, m2_curve_file, capsys):
        code, out, _ = run_twice(["fit", m2_curve_file, "--model", "power"], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["kind"] == "power"

    def test_train_adds_comparison(self, m2_curve_file, capsys):
        code, out, _ = run_twice(
            ["fit", m2_curve_file, "--model", "m2", "--train", "10000"], capsys
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        ranked = [entry["model"] for entry in payload["comparison"]]
        assert set(ranked) == {"m1", "m2", "m3", "m4"}
        assert payload["comparison"][0]["holdout_rmse"] <= payload["comparison"][-1]["holdout_rmse"]

    @pytest.mark.parametrize("argv", [["--model", "m2"], ["--model", "m2", "--train", "10000"],
                                      ["--model", "power"]], ids=["m2", "m2-train", "power"])
    def test_stdout_bytes(self, m2_curve_file, capsys, argv):
        # Built in-process rather than from a golden file: the last digits
        # of a fit depend on the host's numeric kernels.
        def fit_fields(fit):
            return {"kind": fit.kind.value, "params": dict(fit.params), "residual": fit.residual,
                    "n_points": fit.n_points, "converged": fit.converged}

        curve = AccumulationCurve.from_csv(m2_curve_file)
        kind = ModelKind(argv[1])
        expected = fit_fields(fit_power_law(curve) if kind is ModelKind.POWER_LAW
                              else fit_model(curve, kind))
        if "--train" in argv:
            expected["comparison"] = [
                {"model": rm.kind.value, "holdout_rmse": rm.holdout_rmse,
                 "fit": fit_fields(rm.fit)}
                for rm in compare_models(curve, 10_000)
            ]
        code, out, err = run_twice(["fit", m2_curve_file, *argv], capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_json_fields(self, m2_curve_file, capsys):
        code, out, _ = run_twice(["fit", m2_curve_file, "--model", "m2"], capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload.keys() == {"kind", "params", "residual", "n_points", "converged"}
        assert payload["kind"] == "m2"
        assert payload["params"].keys() == set(FORMS[ModelKind.M2].names)
        assert payload["converged"] is True
        assert payload["n_points"] == len(AccumulationCurve.from_csv(m2_curve_file))

    def test_year_column_ignored(self, m2_curve_file, capsys):
        with_years = ["n,value,year"] + [
            f"{row},{2000 + i}"
            for i, row in enumerate(Path(m2_curve_file).read_text().splitlines()[1:])
        ]
        Path("years.csv").write_text("\n".join(with_years) + "\n")
        argv = ["--model", "m4", "--train", "10000"]
        code, out, _ = run_twice(["fit", m2_curve_file, *argv], capsys)
        code_years, out_years, _ = run_twice(["fit", "years.csv", *argv], capsys)
        assert code == code_years == cli.EXIT_OK
        assert out_years == out

    def test_bad_curve_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("nope\n1,2\n")
        assert cli.main(["fit", "bad.csv", "--model", "m2"]) == cli.EXIT_INPUT
        capsys.readouterr()

    def test_short_row_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "short.csv").write_text("n,value\n1,1.0\n2\n")
        assert cli.main(["fit", "short.csv", "--model", "m2"]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error:") and "'2'" in err

    def test_bad_value_names_file_and_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("n,value\n1,1.0\n2,abc\n")
        assert cli.main(["fit", "bad.csv", "--model", "m2"]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: bad.csv, line 3: ") and "'abc'" in err

    def test_n_past_float_range_names_file_and_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        n = "1" + "0" * 400
        (tmp_path / "bad.csv").write_text(f"n,value\n1,1.0\n{n},2.0\n")
        assert cli.main(["fit", "bad.csv", "--model", "m2"]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: bad.csv, line 3: n {n} is past float range\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("model", ["power", "m2"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, monkeypatch, capsys, value,
                                                  model):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text(f"n,value\n1,1.0\n2,2.0\n3,{value}\n4,3.0\n5,3.5\n")
        assert cli.main(["fit", "bad.csv", "--model", model]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: bad.csv, line 4: value '{value}' is not finite\n"

    @pytest.mark.parametrize("scale, model", [(1e-320, "m2"), (1e300, "m4")])
    @pytest.mark.parametrize("train", [[], ["--train", "20"]], ids=["fit", "train"])
    def test_non_finite_fit_names_file(self, tmp_path, monkeypatch, capsys, scale, model, train):
        # JSON has no Infinity, so the fit is refused instead of printed
        monkeypatch.chdir(tmp_path)
        lines = ["n,value"] + [f"{n},{scale * n!r}" for n in range(1, 40)]
        (tmp_path / "extreme.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["fit", "extreme.csv", "--model", model, *train]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "input error: extreme.csv: Out of range float values are not JSON compliant")

    def test_fit_with_d_on_its_floor_is_not_converged(self, tmp_path, monkeypatch, capsys):
        # M1 cannot go below D = 1e-12, about 1e296 times these values
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.csv").write_text(scaled_curve(1e-320))
        code, out, _ = run_twice(["fit", "tiny.csv", "--model", "m1"], capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["params"]["D"] == FORMS[ModelKind.M1].floors[0]
        assert payload["converged"] is False


class TestMarc:
    def test_subjects_csv_golden(self, marc_file, capsys):
        code, out, err = run_twice(["marc", marc_file, "--facet", "subjects"], capsys)
        assert code == cli.EXIT_OK
        # 2001: Commerce--History + Theater (uniform 2) ; 2002: 2:1 skew
        assert out == (
            "year,cum_richness,cum_diversity\n"
            "2001,2,2.0000\n"
            "2002,2,1.8899\n"
        )
        quality = json.loads(err)
        assert quality == {
            "records": 3,
            "skipped": 0,
            "missing_year": 0,
            "mu": 1.5,
            "structured_headings": 2,
            "split_headings": 1,
        }
        check_golden("marc_subjects.csv", out)

    def test_subdivision_facet(self, marc_file, capsys):
        code, out, _ = run_twice(["marc", marc_file, "--facet", "subdivisions"], capsys)
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "year,cum_richness,cum_diversity"
        richness_column = [int(line.split(",")[1]) for line in lines[1:]]
        assert richness_column == sorted(richness_column)
        check_golden("marc_subdivisions.csv", out)

    def test_authors_facet(self, marc_file, capsys):
        code, out, err = run_twice(["marc", marc_file, "--facet", "authors"], capsys)
        assert code == cli.EXIT_OK
        check_golden("marc_authors.csv", out)
        # heading counts do not depend on the facet asked for
        quality = json.loads(err)
        assert (quality["structured_headings"], quality["split_headings"]) == (2, 1)

    @pytest.mark.parametrize("facet, mu", [
        ("authors", "1.5"), ("subjects", "1.5"), ("subdivisions", "1.6667")])
    def test_quality_line_bytes(self, marc_file, capsys, facet, mu):
        # Key order and spacing are part of the line; only mu depends on the facet.
        _, _, err = run_twice(["marc", marc_file, "--facet", facet], capsys)
        assert err == (
            '{"records": 3, "skipped": 0, "missing_year": 0, '
            f'"mu": {mu}, "structured_headings": 2, "split_headings": 1}}\n'
        )

    def test_extended_subjects_adds_651(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        spain = ('<datafield tag="651" ind1=" " ind2="0"><subfield code="a">Spain</subfield>'
                 '<subfield code="x">History</subfield></datafield></record>')
        record = marc_record("r2", "020101", subjects=((("a", "Theater"),),))
        Path("catalog.xml").write_bytes(marc_collection(
            marc_record("r1", "010101", subjects=((("a", "Commerce"),),)),
            record.replace("</record>", spain)))
        argv = ["marc", "catalog.xml", "--facet", "subjects"]
        code, out, err = run_twice(argv, capsys)
        assert code == cli.EXIT_OK
        assert out == "year,cum_richness,cum_diversity\n2001,1,1.0000\n2002,2,2.0000\n"
        assert json.loads(err)["structured_headings"] == 2
        code, out, err = run_twice([*argv, "--extended-subjects"], capsys)
        assert code == cli.EXIT_OK
        # 2002 adds Theater and Spain--History: three subjects, one event each
        assert out == "year,cum_richness,cum_diversity\n2001,1,1.0000\n2002,3,3.0000\n"
        assert json.loads(err)["structured_headings"] == 3

    def test_csv_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("catalog.xml").write_bytes(marc_collection(
            marc_record("r1", "010101", authors=("A",)),
            marc_record("r2", "020101", authors=("B",))))
        code, out, _ = run_twice(["marc", "catalog.xml", "--facet", "authors"], capsys)
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "year,cum_richness,cum_diversity"
        assert lines[1] == "2001,1,1.0000"

    def test_truncated_collection_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "truncated.xml").write_bytes(MARC_FIXTURE[: len(MARC_FIXTURE) // 2])
        assert cli.main(["marc", "truncated.xml", "--facet", "authors"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: truncated.xml: malformed MARCXML:")
        assert "line 1, column" in captured.err

    def test_unreadable_input_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["marc", "absent.xml", "--facet", "authors"]) == cli.EXIT_INPUT
        capsys.readouterr()


A_URL, B_URL, C_URL = (f"http://{name}.invalid/sparql" for name in "abc")
THREE_GRAPHS = {
    A_URL: PEOPLE_GRAPH,
    B_URL: PEOPLE_GRAPH + [("w", "rdf:type", "http://example.org/Place"),
                           ("x", "owl:sameAs", "http://viaf.org/viaf/1")],
    C_URL: PEOPLE_GRAPH + [("v", "ex:name", "Vera")],
}


@pytest.fixture()
def three_roster(tmp_path, monkeypatch):
    """Endpoints A, B and C; C is asked for pages of one key."""
    roster = tmp_path / "three.json"
    roster.write_text(json.dumps([{"name": "A", "url": A_URL}, {"name": "B", "url": B_URL},
                                  {"name": "C", "url": C_URL, "page_size": 1}]))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    return str(roster)


class ByUrl:
    """Answers each URL of ``three_roster`` from its own ``GraphTransport``.

    C caps its answers at one row, so C's harvests run enumeration pages
    and VALUES batches.  ``before(url)`` runs ahead of every request, and
    ``most_in_flight`` keeps, per URL, the most requests open at once.
    """

    def __init__(self, before=None) -> None:
        self.routes = {url: GraphTransport(graph, row_cap=1 if url == C_URL else None)
                       for url, graph in THREE_GRAPHS.items()}
        self.before = before
        self.most_in_flight: Counter[str] = Counter()
        self._in_flight: Counter[str] = Counter()
        self._lock = threading.Lock()

    def select(self, url, query, timeout):
        if self.before is not None:
            self.before(url)
        with self._lock:
            self._in_flight[url] += 1
            self.most_in_flight[url] = max(self.most_in_flight[url], self._in_flight[url])
        try:
            time.sleep(0.001)  # keeps the request open long enough for an overlap to show
            return self.routes[url].select(url, query, timeout)
        finally:
            with self._lock:
                self._in_flight[url] -= 1


def watch_stops(monkeypatch) -> dict[str, threading.Event]:
    """Patches ``lod.SparqlClient`` so that stopping a client sets its URL's event."""
    stopped = {url: threading.Event() for url in THREE_GRAPHS}

    class Client(lod.SparqlClient):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            if name == "stopped" and value:
                stopped[self.cfg.url].set()

    monkeypatch.setattr(lod, "SparqlClient", Client)
    return stopped


class TestLod:
    def test_json_golden(self, fixture_roster, capsys):
        transport = GraphTransport(
            PEOPLE_GRAPH + [("x", "owl:sameAs", "http://viaf.org/viaf/1")]
        )
        code, out, _ = run_twice(
            ["lod", "--roster", fixture_roster, "--format", "json"], capsys,
            transport=transport,
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload[0]["endpoint"] == "FIX"
        assert payload[0]["sameas_hosts"] == {"viaf.org": 1}
        check_golden("lod_profile.json", out)

    @pytest.mark.parametrize("epoch", ["99999999999999999999", "abc", "-99999999999999"])
    def test_unusable_source_date_epoch_sends_no_request(self, fixture_roster, monkeypatch,
                                                         capsys, epoch):
        # An overflow, a non-integer and a year before 1, checked before any harvest.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        transport = GraphTransport(PEOPLE_GRAPH)
        assert cli.main(["lod", "--roster", fixture_roster], transport) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"input error: SOURCE_DATE_EPOCH {epoch!r} is not a usable")
        assert err.count("\n") == 1
        assert transport.queries == []

    def test_csv_golden(self, fixture_roster, capsys):
        code, out, _ = run_twice(
            ["lod", "--roster", fixture_roster, "--format", "csv"], capsys,
            transport=GraphTransport(PEOPLE_GRAPH),
        )
        assert code == cli.EXIT_OK
        # classes 2:1 -> D = 1.8899, R = 2; properties all rdf:type -> 1
        assert out == (
            "host,class_D,class_R,class_DR,prop_D,prop_R,prop_DR\n"
            "FIX,1.8899,2,0.94,1.0000,1,1.00\n"
        )
        check_golden("lod_profile.csv", out)

    def test_csv_empty_graph(self, fixture_roster, capsys):
        code, out, _ = run_twice(["lod", "--roster", fixture_roster, "--format", "csv"], capsys,
                                 transport=GraphTransport([]))
        assert code == cli.EXIT_OK
        assert out.splitlines()[1:] == ["FIX,0.0000,0,0.00,0.0000,0,0.00"]

    def test_csv_host_quoted_when_needed(self, tmp_path, capsys):
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps([
            {"name": 'FIX, "west"', "url": "http://fixture.invalid/sparql"},
            {"name": "PLAIN", "url": "http://fixture.invalid/sparql"}]))
        code = cli.main(["lod", "--roster", str(roster), "--format", "csv"],
                        transport=GraphTransport(PEOPLE_GRAPH))
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ['"FIX, ""west""",1.8899,2,0.94,1.0000,1,1.00',
                             "PLAIN,1.8899,2,0.94,1.0000,1,1.00"]
        assert [row[0] for row in csv.reader(lines[1:])] == ['FIX, "west"', "PLAIN"]

    def test_retry_leaves_stdout_unchanged(self, fixture_roster, capsys, monkeypatch):
        monkeypatch.setattr(lod, "BACKOFF_BASE_SECONDS", 0)
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=1)
        code = cli.main(["lod", "--roster", fixture_roster, "--format", "csv"],
                        transport=transport)
        assert code == cli.EXIT_OK
        assert transport.attempts == 4  # three queries, the first one retried
        check_golden("lod_profile.csv", capsys.readouterr().out)

    def test_derived_json_for_known_distribution(self, fixture_roster, capsys):
        triples = (
            [(f"s{i}", "rdf:type", "http://example.org/A") for i in range(8)]
            + [(f"t{i}", "rdf:type", "http://example.org/B") for i in range(4)]
            + [(f"u{i}", "rdf:type", "http://example.org/C") for i in range(4)]
        )
        code, out, _ = run_twice(["lod", "--roster", fixture_roster], capsys,
                                 transport=GraphTransport(triples))
        assert code == cli.EXIT_OK
        [payload] = json.loads(out)
        assert payload["derived"]["class"] == {"D": 2.8284, "R": 3, "DR": 0.94}
        assert payload["retrieved_at"] == "2023-11-14T22:13:20+00:00"

    def test_published_style_skewed_fixture(self, fixture_roster, capsys):
        # five classes with counts 81:8:5:3:3 give D/R = 0.42 at the
        # summary table's precision
        counts = {"A": 81, "B": 8, "C": 5, "D": 3, "E": 3}
        triples = [
            (f"s{uri}{i}", "rdf:type", f"http://example.org/{uri}")
            for uri, n in counts.items()
            for i in range(n)
        ]
        code, out, _ = run_twice(["lod", "--roster", fixture_roster], capsys,
                                 transport=GraphTransport(triples))
        assert code == cli.EXIT_OK
        assert json.loads(out)[0]["derived"]["class"]["DR"] == 0.42

    def test_derived_recomputable_from_stored_distributions(self, fixture_roster, capsys):
        code, out, _ = run_twice(["lod", "--roster", fixture_roster], capsys,
                                 transport=GraphTransport(PEOPLE_GRAPH))
        assert code == cli.EXIT_OK
        [payload] = json.loads(out)
        for side, stored in (("class", "classes"), ("property", "properties")):
            dist = FrequencyDistribution(payload[stored])
            assert payload["derived"][side]["D"] == round(hill_diversity(dist, 1.0), 4)
            assert payload["derived"][side]["R"] == richness(dist)
            assert payload["derived"][side]["DR"] == round(
                hill_diversity(dist, 1.0) / richness(dist), 2
            )

    def test_csv_layout(self, fixture_roster, capsys):
        code, out, _ = run_twice(["lod", "--roster", fixture_roster, "--format", "csv"], capsys,
                                 transport=GraphTransport(PEOPLE_GRAPH))
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "host,class_D,class_R,class_DR,prop_D,prop_R,prop_DR"
        assert lines[1].startswith("FIX,")

    def test_endpoint_filter_unknown_name(self, fixture_roster, capsys):
        code = cli.main(
            ["lod", "--roster", fixture_roster, "--endpoint", "NOPE"],
            transport=GraphTransport(PEOPLE_GRAPH),
        )
        assert code == cli.EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("entries", [
        [{"url": "http://x.invalid/sparql"}],               # entry without a name
        {"name": "X", "url": "http://x.invalid/sparql"},    # object, not a list
        pytest.param('[{"name": "X",', id="truncated"),      # not valid JSON
        # longer than the platform can wait: a socket timeout, a sleep
        pytest.param([{"name": "X", "url": "http://127.0.0.1:9/sparql", "timeout": 1e12}],
                     id="timeout-1e12"),
        pytest.param([{"name": "X", "url": "http://x.invalid/sparql", "delay_ms": 1e30}],
                     id="delay_ms-1e30"),
    ])
    def test_malformed_roster_exits_one(self, tmp_path, capsys, entries):
        roster = tmp_path / "r.json"
        roster.write_text(entries if isinstance(entries, str) else json.dumps(entries))
        code = cli.main(["lod", "--roster", str(roster)],
                        transport=GraphTransport(PEOPLE_GRAPH))
        assert code == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error:") and str(roster) in err

    @pytest.mark.parametrize("harvest", [lod.CLASS_COUNT_QUERY, lod.PROPERTY_COUNT_QUERY],
                             ids=["class", "property"])
    def test_negative_count_exits_two(self, fixture_roster, capsys, harvest):
        code = cli.main(["lod", "--roster", fixture_roster],
                        transport=RewrittenCounts(GraphTransport(PEOPLE_GRAPH), harvest))
        assert code == cli.EXIT_TRANSPORT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("transport error:") and "negative count" in err

    @pytest.mark.parametrize("rewrite", [
        lambda count: count + "0" * 400,   # one count past float range
        lambda count: "1" + "0" * 308,     # each count in range, their sum past it
    ], ids=["count", "sum"])
    def test_count_past_float_range_exits_two(self, fixture_roster, capsys, rewrite):
        transport = RewrittenCounts(GraphTransport(PEOPLE_GRAPH), lod.CLASS_COUNT_QUERY, rewrite)
        code = cli.main(["lod", "--roster", fixture_roster], transport=transport)
        assert code == cli.EXIT_TRANSPORT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("transport error:") and "past float range" in err
        assert "row {'class': 'http://example.org/" in err  # the row is named

    def test_transport_failure_exits_two(self, fixture_roster, capsys, monkeypatch):
        monkeypatch.setattr(lod, "BACKOFF_BASE_SECONDS", 0)
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=99)
        code = cli.main(["lod", "--roster", fixture_roster], transport=transport)
        assert code == cli.EXIT_TRANSPORT
        assert transport.attempts == lod.MAX_ATTEMPTS
        assert "transport error" in capsys.readouterr().err


    def test_endpoints_are_harvested_at_once(self, three_roster, capsys):
        # A's first request waits until B has sent one: a roster harvested
        # one endpoint after another fails here instead of hanging
        b_asked = threading.Event()

        def before(url):
            if url == B_URL:
                b_asked.set()
            elif url == A_URL and not b_asked.wait(timeout=5):
                raise AssertionError("B sent no request while A was harvested")

        assert cli.main(["lod", "--roster", three_roster], transport=ByUrl(before)) == cli.EXIT_OK
        capsys.readouterr()

    def test_every_endpoint_is_harvested_at_once(self, tmp_path, monkeypatch, capsys):
        # One endpoint more than a thread pool's default bound.  Each first
        # request is answered only once every endpoint has sent one, so a pool
        # with fewer workers than endpoints fails here instead of hanging.
        size = min(32, (os.cpu_count() or 1) + 4) + 1
        roster = tmp_path / "many.json"
        roster.write_text(json.dumps(
            [{"name": f"E{i}", "url": f"http://e{i}.invalid/sparql"} for i in range(size)]))
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        everyone_asked = threading.Barrier(size, timeout=5)
        asked: set[str] = set()
        lock = threading.Lock()
        graph = GraphTransport(PEOPLE_GRAPH)

        class HoldFirst:
            def select(self, url, query, timeout):
                with lock:
                    first = url not in asked
                    asked.add(url)
                if first:
                    try:
                        everyone_asked.wait()
                    except threading.BrokenBarrierError:
                        raise AssertionError(f"{len(asked)} of {size} endpoints sent a request")
                return graph.select(url, query, timeout)

        argv = ["lod", "--roster", str(roster), "--format", "csv"]
        assert cli.main(argv, transport=HoldFirst()) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            f"E{i}" for i in range(size)]

    @pytest.mark.parametrize("fmt, printed", [
        ("json", "[]\n"), ("csv", "host,class_D,class_R,class_DR,prop_D,prop_R,prop_DR\n")])
    def test_empty_roster(self, tmp_path, capsys, fmt, printed):
        roster = tmp_path / "empty.json"
        roster.write_text("[]")
        argv = ["lod", "--roster", str(roster), "--format", fmt]
        assert cli.main(argv, transport=GraphTransport(PEOPLE_GRAPH)) == cli.EXIT_OK
        assert capsys.readouterr() == (printed, "")

    def test_one_request_in_flight_per_endpoint(self, three_roster, capsys):
        transport = ByUrl()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            code = cli.main(["lod", "--roster", three_roster], transport=transport)
        finally:
            sys.setswitchinterval(interval)
        assert code == cli.EXIT_OK
        capsys.readouterr()
        assert transport.most_in_flight == {A_URL: 1, B_URL: 1, C_URL: 1}
        # every endpoint is sent what it is sent alone, in the same order
        for cfg in lod.load_roster(three_roster):
            alone = ByUrl()
            lod.profile(lod.SparqlClient(cfg, alone))
            assert transport.routes[cfg.url].queries == alone.routes[cfg.url].queries
        assert len(transport.routes[C_URL].queries) > 3  # pages and batches as well

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_roster_order_when_the_first_endpoint_answers_last(self, three_roster, capsys,
                                                               monkeypatch, fmt):
        finished = []
        rest_done = threading.Event()

        def profile(client):  # A's harvest starts once B's and C's are done
            if client.cfg.name == "A" and not rest_done.wait(timeout=5):
                raise AssertionError("B and C did not finish")
            prof = lod.profile(client)
            finished.append(client.cfg.name)
            if {"B", "C"} <= set(finished):
                rest_done.set()
            return prof

        argv = ["lod", "--roster", three_roster, "--format", fmt]
        with monkeypatch.context() as m:
            m.setattr(cli, "profile", profile)
            assert cli.main(argv, transport=ByUrl()) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert finished[-1] == "A"
        alone = []
        for name in "ABC":
            assert cli.main(argv + ["--endpoint", name], transport=ByUrl()) == cli.EXIT_OK
            alone.append(capsys.readouterr().out)
        if fmt == "json":
            rebuilt = json.dumps([p for text in alone for p in json.loads(text)], indent=2) + "\n"
        else:
            rebuilt = alone[0] + "".join(text.split("\n", 1)[1] for text in alone[1:])
        assert out == rebuilt

    def test_first_failure_in_roster_order_is_reported(self, three_roster, capsys, monkeypatch):
        monkeypatch.setattr(lod, "BACKOFF_BASE_SECONDS", 0)
        transport = ByUrl()
        for url in (A_URL, B_URL):
            transport.routes[url] = FlakyTransport(transport.routes[url], failures=99)
        b_failed = threading.Event()

        def profile(client):  # B has failed before A sends a request
            if client.cfg.name == "A" and not b_failed.wait(timeout=5):
                raise AssertionError("B did not fail")
            try:
                return lod.profile(client)
            finally:
                if client.cfg.name == "B":
                    b_failed.set()

        monkeypatch.setattr(cli, "profile", profile)
        code = cli.main(["lod", "--roster", three_roster], transport=transport)
        out, err = capsys.readouterr()
        assert (code, out) == (cli.EXIT_TRANSPORT, "")
        [line] = [line for line in err.splitlines() if line.startswith("transport error:")]
        assert line.startswith(f"transport error: {A_URL}: giving up after {lod.MAX_ATTEMPTS} ")
        assert transport.routes[B_URL].attempts == lod.MAX_ATTEMPTS

    def test_no_request_behind_a_failure(self, three_roster, capsys, monkeypatch):
        monkeypatch.setattr(lod, "BACKOFF_BASE_SECONDS", 0)
        # one worker, whatever size the pool is asked for
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda max_workers=None: ThreadPoolExecutor(1))
        transport = ByUrl()
        transport.routes[A_URL] = FlakyTransport(transport.routes[A_URL], failures=99)
        code = cli.main(["lod", "--roster", three_roster], transport=transport)
        capsys.readouterr()
        assert code == cli.EXIT_TRANSPORT
        assert transport.routes[A_URL].attempts == lod.MAX_ATTEMPTS
        assert transport.routes[B_URL].queries == transport.routes[C_URL].queries == []

    def test_later_endpoints_stop_after_a_failure(self, three_roster, capsys, monkeypatch):
        # B fails while A and C are harvesting.  C's first request, and A's, are
        # answered only once C's client is stopped: C must send nothing after
        # it, and A, before the failure in roster order, harvests to its end
        monkeypatch.setattr(lod, "BACKOFF_BASE_SECONDS", 0)
        stopped = watch_stops(monkeypatch)
        c_asked = threading.Event()

        def before(url):
            if url == B_URL:
                c_asked.wait(timeout=5)
            elif url == A_URL:
                stopped[C_URL].wait(timeout=5)
            elif not c_asked.is_set():
                c_asked.set()
                stopped[C_URL].wait(timeout=5)

        transport = ByUrl(before)
        transport.routes[B_URL] = FlakyTransport(transport.routes[B_URL], failures=99)
        code = cli.main(["lod", "--roster", three_roster], transport=transport)
        out, err = capsys.readouterr()
        assert (code, out) == (cli.EXIT_TRANSPORT, "")
        [line] = [line for line in err.splitlines() if line.startswith("transport error:")]
        assert line.startswith(f"transport error: {B_URL}: giving up after {lod.MAX_ATTEMPTS} ")
        assert len(transport.routes[A_URL].queries) == 3
        assert len(transport.routes[C_URL].queries) == 1

    def test_interrupt_stops_every_endpoint(self, three_roster, capsys, monkeypatch):
        # A's worker is interrupted while B's first request is open, and that
        # request is answered only once B's client is stopped
        stopped = watch_stops(monkeypatch)
        b_asked = threading.Event()

        def before(url):
            if url == A_URL:
                b_asked.wait(timeout=5)
                raise KeyboardInterrupt
            if url == B_URL and not b_asked.is_set():
                b_asked.set()
                stopped[B_URL].wait(timeout=5)

        transport = ByUrl(before)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["lod", "--roster", three_roster], transport=transport)
        capsys.readouterr()
        assert len(transport.routes[B_URL].queries) == 1


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert cli.main(["lexdiv", "x.txt", "--bogus"]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["marc", "x.xml"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "metadiv" in capsys.readouterr().out

    def test_module_runs_the_cli(self, tmp_path):
        # ``python -m metadiv.cli`` is the CLI: the same exit code and message.
        roster = tmp_path / "r.json"
        roster.write_text(json.dumps(
            [{"name": "X", "url": "http://127.0.0.1:9/sparql", "timeout": 1e12}]))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-m", "metadiv.cli", "lod", "--roster", str(roster)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (cli.EXIT_INPUT, "")
        assert done.stderr.startswith(f"input error: roster {roster}: entry 0 is invalid")
        assert "timeout must be > 0" in done.stderr

    def test_cold_start_imports_no_http_client(self):
        # The HTTP stack costs tens of milliseconds to import, and only an
        # HttpTransport needs it, so it must not load with the CLI.
        src = str(ROOT / "src")
        code = (f"import sys; sys.path.insert(0, {src!r}); import metadiv.cli; "
                "print(sorted({'urllib.request', 'http.client'} & sys.modules.keys()))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out == "[]\n"


# --- malformed input ---------------------------------------------------------

BIG = "1" + "0" * 400  # an integer past float range


@contextlib.contextmanager
def recorded_sleeps():
    """Clients that a runner builds through ``lod.SparqlClient`` record their
    sleeps in the yielded list instead of sleeping.

    A client built any other way, such as from a name bound before the patch,
    raises at its first sleep, so a generated roster's delay (up to
    ``lod.TIMEOUT_MAX / 2`` per request) fails the test instead of hanging it.
    """
    def refuse(seconds: float) -> None:
        raise AssertionError(f"a client built without the recording sleep slept {seconds} s")

    init = lod.SparqlClient.__init__

    def guarded_init(self, cfg, transport=None, sleep=refuse):
        init(self, cfg, transport, sleep)

    slept: list[float] = []
    with mock.patch.object(lod.SparqlClient, "__init__", guarded_init), \
            mock.patch.object(lod, "SparqlClient",
                              functools.partial(lod.SparqlClient, sleep=slept.append)):
        yield slept


def run_cli(argv, transport=None) -> tuple[int, str]:
    """``cli.main``'s exit code and stdout; a warning, in any thread, raises."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(argv, transport)
    return code, out.getvalue()


# Curve cells: numbers, numbers past float range, non-numbers and any text.
cells = st.one_of(st.integers(-2, 10**6).map(str), st.floats().map(repr),
                  st.sampled_from(["", "abc", "nan", "-inf", "1e400", BIG, " 7", "1_0"]),
                  st.text(max_size=4))


@st.composite
def growth_curves(draw) -> str:
    """Curve CSV text of increasing n, scaled up to float range's ends."""
    header = draw(st.sampled_from(["n,value", "n,value,year"]))
    ns = sorted(draw(st.sets(st.integers(1, 10**6), min_size=2, max_size=40)))
    scale = draw(st.one_of(st.sampled_from([1.0, 1e-320, 1e300]), st.floats(-1e300, 1e300)))
    noise = draw(st.lists(st.floats(0, 1e3), min_size=len(ns), max_size=len(ns)))
    rows = [f"{n},{scale * (i + 1) + e!r}" for i, (n, e) in enumerate(zip(ns, noise))]
    return "\n".join([header, *rows]) + "\n"


curve_texts = st.one_of(
    growth_curves(),
    st.lists(st.lists(cells, max_size=3).map(",".join), max_size=6).map(
        lambda rows: "\n".join(["n,value", *rows]) + "\n"),
    st.text(max_size=20))

# Roster values of every JSON type, and strings that parse as numbers or not.
roster_values = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.text(max_size=4), st.sampled_from(["2", "1.5", "nan", "1e30"]))
ROSTER_FIELDS = {  # values each field takes in a valid entry
    "name": st.sampled_from(["A", "B", "a,b", ""]),
    "url": st.sampled_from([A_URL, "https://b.example/s?x=1"]),
    "page_size": st.integers(1, 3) | st.just(10_000),
    "timeout": st.floats(1e-3, lod.TIMEOUT_MAX),
    "delay_ms": st.integers(0, int(lod.TIMEOUT_MAX * 500)),
}


@st.composite
def roster_entries(draw) -> dict:
    """A valid roster entry, or one with a field of any value."""
    names = list(ROSTER_FIELDS)
    entry = draw(st.fixed_dictionaries({key: ROSTER_FIELDS[key] for key in names[:2]},
                                       optional={key: ROSTER_FIELDS[key] for key in names[2:]}))
    if draw(st.booleans()):
        entry[draw(st.sampled_from([*names, "other"]))] = draw(roster_values)
    return entry


roster_texts = st.one_of(
    st.lists(roster_entries(), max_size=3, unique_by=lambda entry: repr(entry["name"]))
    .map(json.dumps),
    st.lists(roster_values, max_size=2).map(json.dumps),
    st.text(max_size=8))

# Count rewrites of the class count answer
COUNT_REWRITES = {"none": None, "negated": negated,
                  "past-range": lambda count: count + "0" * 400,
                  "sum-past-range": lambda count: "1" + "0" * 308}

# MARCXML of generated records whose text may break the XML, plain or
# gzipped, then whole, cut short or with one bit flipped.
marc_texts = st.text(st.sampled_from("Ab1 ,.-<&>é\t"), max_size=8)


@st.composite
def marc_files(draw) -> tuple[str, bytes]:
    """(file name, bytes) of a generated MARCXML collection."""
    records = draw(st.lists(st.builds(
        marc_record, st.none() | st.sampled_from(["r1", "r2"]),
        st.none() | st.text(st.sampled_from("0123456789 x"), max_size=8),
        st.lists(marc_texts, max_size=2).map(tuple), st.lists(marc_texts, max_size=2).map(tuple),
        st.lists(st.lists(st.tuples(st.sampled_from("axyzv6"), marc_texts), max_size=3)
                 .map(tuple), max_size=2).map(tuple)), max_size=4))
    data = marc_collection(*records, namespaced=draw(st.booleans()))
    name = "catalog.xml"
    if draw(st.booleans()):
        data, name = gzip.compress(data, mtime=0), name + ".gz"
    damage = draw(st.sampled_from(["none", "cut", "flip"]))
    if damage == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif damage == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        data = bytearray(data)
        data[bit // 8] ^= 1 << bit % 8
    return name, bytes(data)


MARC_GZ = gzip.compress(MARC_FIXTURE, mtime=0)

# Texts of a few words, or of any characters, and argv numbers in and out of range.
lexdiv_texts = st.one_of(
    st.lists(st.sampled_from(["the", "of", "a", "Zé", "naïve", "x1", "İstanbul", "--"]),
             max_size=300).map(" ".join),
    st.text(max_size=60))
argv_ints = st.one_of(st.integers(-3, 400).map(str), st.sampled_from([BIG, "-" + BIG, "1.5", "x"]))
argv_floats = st.one_of(st.floats().map(repr), st.sampled_from(["0", "1", "2", "1e308", BIG, "x"]))


class TestMalformedInput:
    """Whatever a curve file or a roster holds, ``metadiv`` ends with an exit
    code and a message: no exception escapes and no warning is raised."""

    # The explicit examples are earlier tracebacks, non-JSON output and numpy
    # warnings, each now mended where its value enters.
    @settings(max_examples=150, deadline=None)
    @given(curve_texts, st.sampled_from(["power", "m1", "m2", "m3", "m4", "m5"]),
           st.one_of(st.none(), st.integers(-5, 10**3).map(str), st.sampled_from([BIG, "x"])))
    @example(f"n,value\n1,1.0\n{BIG},2.0\n", "m2", None)
    @example(scaled_curve(1.0), "m4", BIG)
    @example(scaled_curve(1.0), "m4", "-" + BIG)
    @example(scaled_curve(1e-320), "m2", None)
    @example(scaled_curve(1e-320), "m2", "20")
    @example(scaled_curve(1e300), "m4", None)
    @example(scaled_curve(1e300), "m4", "20")
    @example("n,value\n3,1.0\n4,2e-320\n5,3e-320\n", "power", None)  # C overflows
    @example("n,value\n1," + "1" * 200_000 + "\n", "m2", None)  # past csv's field limit
    def test_fit(self, text, model, train):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "curve.csv")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            argv = ["fit", path, "--model", model] + ([] if train is None else ["--train", train])
            code, out = run_cli(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_USAGE)
        if code == cli.EXIT_OK:
            assert json.loads(out)["kind"] == model

    @settings(max_examples=150, deadline=None)
    @given(roster_texts, st.sampled_from(["json", "csv"]), st.sampled_from([None, "A"]),
           st.just("none") | st.sampled_from(sorted(COUNT_REWRITES)))
    @example('[{"name": "X",', "json", None, "none")
    @example(json.dumps([{"name": "a", "url": A_URL}, {"name": "b", "url": A_URL},
                         {"name": "a", "url": B_URL}]), "json", "a", "none")
    @example(json.dumps([{"name": "A", "url": A_URL, "delay_ms": 1e30}]), "json", None, "none")
    @example(json.dumps([{"name": "A", "url": A_URL, "timeout": 1e12}]), "json", None, "none")
    @example(json.dumps([{"name": "A", "url": A_URL}]), "json", None, "negated")
    @example(json.dumps([{"name": "A", "url": A_URL}]), "csv", None, "past-range")
    @example(json.dumps([{"name": "A", "url": A_URL}]), "json", None, "sum-past-range")
    @example(json.dumps([{"name": None, "url": A_URL}]), "csv", None, "none")
    def test_lod(self, text, fmt, endpoint, rewrite):
        transport = GraphTransport(PEOPLE_GRAPH + [("x", "owl:sameAs", "http://viaf.org/v/1")])
        if COUNT_REWRITES[rewrite] is not None:
            transport = RewrittenCounts(transport, lod.CLASS_COUNT_QUERY, COUNT_REWRITES[rewrite])
        with tempfile.TemporaryDirectory() as tmp, recorded_sleeps() as slept:
            path = os.path.join(tmp, "roster.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            argv = ["lod", "--roster", path, "--format", fmt]
            code, out = run_cli(argv + ([] if endpoint is None else ["--endpoint", endpoint]),
                                transport)
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_TRANSPORT)
        assert all(0 <= seconds <= lod.TIMEOUT_MAX / 2 for seconds in slept)
        if code == cli.EXIT_OK and fmt == "json":
            assert isinstance(json.loads(out), list)
        elif code == cli.EXIT_OK:
            header, *rows = csv.reader(io.StringIO(out))
            assert header == "host,class_D,class_R,class_DR,prop_D,prop_R,prop_DR".split(",")
            assert all(len(row) == len(header) for row in rows)

    @settings(max_examples=150, deadline=None)
    @given(marc_files(), st.sampled_from(FACETS), argv_floats, st.booleans())
    @example(("catalog.xml.gz", MARC_GZ[:len(MARC_GZ) // 2]), "authors", "1", False)  # EOFError
    # the first deflate block takes the reserved type 3: zlib.error
    @example(("catalog.xml.gz", MARC_GZ[:10] + bytes([MARC_GZ[10] | 0b110]) + MARC_GZ[11:]),
             "subjects", "1", False)
    def test_marc(self, file, facet, order, extended):
        name, data = file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as f:
                f.write(data)
            argv = ["marc", path, "--facet", facet, "--order", order]
            code, out = run_cli(argv + (["--extended-subjects"] if extended else []))
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_USAGE)
        if code == cli.EXIT_OK:
            header, *rows = csv.reader(io.StringIO(out))
            assert header == ["year", "cum_richness", "cum_diversity"]
            assert all(len(row) == len(header) for row in rows)

    @settings(max_examples=100, deadline=None)
    @given(lexdiv_texts, argv_ints, argv_ints, argv_floats, st.sampled_from(["csv", "json"]))
    def test_lexdiv(self, text, every_, train, order, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.txt")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            code, out = run_cli(["lexdiv", path, "--every", every_, "--train", train,
                                 "--order", order, "--format", fmt])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_USAGE)
        if code == cli.EXIT_OK and fmt == "json":
            assert [d["source"] for d in json.loads(out)["documents"]] == [path]
        elif code == cli.EXIT_OK:
            header, *rows = csv.reader(io.StringIO(out))
            assert header == cli.LEXDIV_CSV_HEADER.split(",") and len(rows) == 2


def golden_outputs() -> dict[str, str]:
    """Stdout of the CLI runs behind six goldens, run in the current directory.

    The caller sets ``SOURCE_DATE_EPOCH`` to 1700000000, as ``fixture_roster`` does.
    """
    Path("alpha.txt").write_text(ALPHA_TEXT, encoding="utf-8")
    Path("beta.txt").write_text(BETA_TOKENS, encoding="utf-8")
    Path("catalog.xml").write_bytes(MARC_FIXTURE)
    Path("roster.json").write_text(
        json.dumps([{"name": "FIX", "url": "http://fixture.invalid/sparql"}]))
    with_sameas = PEOPLE_GRAPH + [("x", "owl:sameAs", "http://viaf.org/viaf/1")]
    runs = {
        "lexdiv.csv": (["lexdiv", "alpha.txt", "beta.txt", "--every", "20"], None),
        **{f"marc_{facet}.csv": (["marc", "catalog.xml", "--facet", facet], None)
           for facet in ("authors", "subjects", "subdivisions")},
        "lod_profile.csv": (["lod", "--roster", "roster.json", "--format", "csv"],
                            GraphTransport(PEOPLE_GRAPH)),
        "lod_profile.json": (["lod", "--roster", "roster.json", "--format", "json"],
                             GraphTransport(with_sameas)),
    }
    outputs = {}
    for name, (argv, transport) in runs.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv, transport) == cli.EXIT_OK
        outputs[name] = out.getvalue()
    return outputs


def cpu_features() -> dict[str, bool]:
    """numpy's CPU feature flags in this process, after any switch."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return dict(__cpu_features__)


# Each switch makes one child process use the kernels a CPU without AVX-512
# would get.  On such a CPU, or with another BLAS or numpy, it changes
# nothing and the test still holds.  ``fit`` and ``lexdiv --format json`` print
# digits that these switches move, so they are not checked here.  The child
# reads numpy's switched features back; the OpenBLAS core type cannot be read
# back without threadpoolctl, so that switch is taken on trust.
KERNEL_SWITCHES = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.parametrize("switch", KERNEL_SWITCHES.values(), ids=KERNEL_SWITCHES.keys())
def test_goldens_hold_under_kernel_switch(tmp_path, switch):
    env = {**os.environ, **switch, "SOURCE_DATE_EPOCH": "1700000000",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    code = ("import json, tests.test_cli as t; "
            "print(json.dumps([t.golden_outputs(), t.cpu_features()]))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    outputs, features = json.loads(done.stdout)
    # a name this CPU has must read False under the switch, or numpy ignored it
    disabled = [name for name in switch.get("NPY_DISABLE_CPU_FEATURES", "").split()
                if cpu_features().get(name)]
    assert {name: features.get(name) for name in disabled} == dict.fromkeys(disabled, False)
    assert set(outputs) == {"lexdiv.csv", "lod_profile.csv", "lod_profile.json",
                            "marc_authors.csv", "marc_subdivisions.csv", "marc_subjects.csv"}
    for name, produced in outputs.items():
        assert produced == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name
