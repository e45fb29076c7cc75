"""CLI subcommands: golden outputs, determinism, exit codes."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from metadiv import cli, lod
from metadiv.accumulation import AccumulationCurve, every
from metadiv.diversity import FrequencyDistribution, hill_diversity, richness
from metadiv.fitting import FORMS, ModelKind, compare_models, eval_model, fit_model, fit_power_law
from metadiv.synthetic import zipf_corpus
from metadiv.text import lexical_report, tokenize

from .conftest import (PEOPLE_GRAPH, FlakyTransport, GraphTransport, RewrittenCounts,
                       marc_collection, marc_record)

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
        report = lexical_report(tokenize(text), "zipf.txt", 1.0, every(20), 1500)
        expected = [{"model": rm.kind.value, "holdout_rmse": round(rm.holdout_rmse, 6)}
                    for rm in report.ranking]
        assert sorted(entry["model"] for entry in expected) == ["m1", "m2", "m3", "m4"]
        [document] = json.loads(out)["documents"]
        assert document["ranking"] == expected

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
    """Patches ``cli.SparqlClient`` so that stopping a client sets its URL's event."""
    stopped = {url: threading.Event() for url in THREE_GRAPHS}

    class Client(lod.SparqlClient):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            if name == "stopped" and value:
                stopped[self.cfg.url].set()

    monkeypatch.setattr(cli, "SparqlClient", Client)
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
            dist = FrequencyDistribution.from_counts(payload[stored].items())
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
        monkeypatch.setattr(cli, "ThreadPoolExecutor",
                            functools.partial(ThreadPoolExecutor, max_workers=1))
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
