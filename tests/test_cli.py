"""CLI subcommands: golden outputs, determinism, exit codes."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from metadiv import cli, lod
from metadiv.models import ModelKind, eval_model

from .conftest import (PEOPLE_GRAPH, FlakyTransport, GraphTransport, NegatedCounts, marc_collection,
                       marc_record)

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

    def test_output_file(self, corpus_dir, capsys):
        code = cli.main(["lexdiv", "alpha.txt", "--every", "20", "--output", "report.csv"])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert Path("report.csv").read_text().startswith(cli.LEXDIV_CSV_HEADER)


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

    def test_retry_leaves_stdout_unchanged(self, fixture_roster, capsys, monkeypatch):
        monkeypatch.setattr(lod, "BACKOFF_BASE_SECONDS", 0)
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=1)
        code = cli.main(["lod", "--roster", fixture_roster, "--format", "csv"],
                        transport=transport)
        assert code == cli.EXIT_OK
        assert transport.attempts == 4  # three queries, the first one retried
        check_golden("lod_profile.csv", capsys.readouterr().out)

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
                        transport=NegatedCounts(GraphTransport(PEOPLE_GRAPH), harvest))
        assert code == cli.EXIT_TRANSPORT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("transport error:") and "negative count" in err

    def test_transport_failure_exits_two(self, fixture_roster, capsys, monkeypatch):
        monkeypatch.setattr(lod, "BACKOFF_BASE_SECONDS", 0)
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=99)
        code = cli.main(["lod", "--roster", fixture_roster], transport=transport)
        assert code == cli.EXIT_TRANSPORT
        assert transport.attempts == lod.MAX_ATTEMPTS
        assert "transport error" in capsys.readouterr().err


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
