"""Acceptance suite: one test per release criterion, at pinned tolerances.

The terminal summary prints one PASS/FAIL line per criterion (see
conftest.pytest_terminal_summary).
"""

from __future__ import annotations

import io
import json
from decimal import Decimal

import numpy as np
import pytest

from metadiv import cli
from metadiv.accumulation import AccumulationCurve
from metadiv.diversity import (
    FrequencyDistribution,
    hill_diversity,
    richness,
    shannon_entropy,
)
from metadiv.fitting import (ModelKind, compare_models, eval_model, fit_model, fit_power_law,
                             model_gradient)
from metadiv.marc import MarcView, facet_series, parse_records, split_heading
from metadiv.lod import (
    CLASS_COUNT_QUERY,
    SAMEAS_HOST_QUERY,
    EndpointConfig,
    SparqlClient,
    class_counts,
    load_published_profiles,
    property_counts,
)
from metadiv.text import lexical_report, pearson_r

from .conftest import PEOPLE_GRAPH, GraphTransport, marc_collection, marc_record


# The published (D, R, D/R) snapshot gives D to one decimal, R exactly and
# D/R to two decimals, the ratio computed from the unrounded D.
D_STEP, RATIO_STEP = Decimal("0.1"), Decimal("0.01")
D_HALF_WIDTH, RATIO_HALF_WIDTH = Decimal("0.05"), Decimal("0.005")
PUBLISHED_RATIO_CRITERION = "8c published D/R columns consistent at their rounding"


def unrounded_ratio_bounds(d, r) -> tuple[Decimal, Decimal]:
    """Range of D/R over every unrounded D that rounds to the published ``d``."""
    d = Decimal(str(d))
    return (d - D_HALF_WIDTH) / r, (d + D_HALF_WIDTH) / r


def published_ratio_consistent(d, r, ratio) -> bool:
    """Whether some D within ±0.05 of ``d`` gives a D/R within ±0.005 of ``ratio``."""
    low, high = unrounded_ratio_bounds(d, r)
    ratio = Decimal(str(ratio))
    return low <= ratio + RATIO_HALF_WIDTH and ratio - RATIO_HALF_WIDTH <= high


def random_distribution(rng) -> FrequencyDistribution:
    n_classes = int(rng.integers(1, 101))
    counts = rng.integers(1, 10_000, size=n_classes)
    return FrequencyDistribution({f"c{i}": int(c) for i, c in enumerate(counts)})


class TestCriterion1HillIdentities:
    def test_identities_over_1000_random_distributions(self, record_property):
        record_property("criterion", "1 Hill-index identity suite")
        rng = np.random.default_rng(1)
        orders = [0.0, 0.5, 1.0, 2.0, 5.0]
        for _ in range(1000):
            dist = random_distribution(rng)
            r = richness(dist)
            values = [hill_diversity(dist, k) for k in orders]
            assert values[0] == float(r)  # order 0 is richness, exactly
            for value in values:
                assert 1.0 - 1e-9 <= value <= r * (1 + 1e-9)
            for higher, lower in zip(values, values[1:]):
                assert lower <= higher * (1 + 1e-9)  # monotone in the order
            target = np.exp(shannon_entropy(dist))
            assert abs(hill_diversity(dist, 1.0 + 1e-6) - target) < 1e-4
            assert abs(hill_diversity(dist, 1.0 - 1e-6) - target) < 1e-4


class TestCriterion2PointChecks:
    def test_eight_four_four(self, record_property):
        record_property("criterion", "2 Eq-1 point checks on {8,4,4}")
        dist = FrequencyDistribution({"a": 8, "b": 4, "c": 4})
        assert hill_diversity(dist, 1.0) == pytest.approx(2.8284, abs=1e-4)
        assert hill_diversity(dist, 2.0) == pytest.approx(2.6667, abs=1e-4)
        assert hill_diversity(dist, 0.0) == 3.0


class TestCriterion3PowerLawRecovery:
    @pytest.mark.parametrize("c_true,alpha_true", [(6.7, 0.68), (6.9, 0.66), (11.1, 0.59)])
    def test_published_parameter_pairs(self, record_property, c_true, alpha_true):
        record_property("criterion", "3 power-law recovery of published parameter pairs")
        ns = np.unique(np.round(np.geomspace(10, 1e5, 60)).astype(int))
        values = c_true * ns.astype(float) ** alpha_true
        curve = AccumulationCurve(
            points=tuple((int(n), float(v)) for n, v in zip(ns, values)),
            statistic="type-count",
        )
        fit = fit_power_law(curve)
        assert fit.params["C"] == pytest.approx(c_true, rel=1e-6)
        assert fit.params["alpha"] == pytest.approx(alpha_true, rel=1e-6)


def random_valid_params(kind: ModelKind, rng) -> np.ndarray:
    d = rng.uniform(2.0, 200.0)
    if kind is ModelKind.M1:
        return np.array([d, rng.uniform(1e-4, 1e-2)])
    if kind is ModelKind.M2:
        return np.array([d, rng.uniform(50.0, 2e4)])
    if kind is ModelKind.M3:
        c = rng.uniform(50.0, 2e4)
        return np.array([d, rng.uniform(0.0, 0.5 * c), c])
    return np.array([d, rng.uniform(50.0, 2e4), rng.uniform(0.2, 3.0)])


SATURATING_KINDS = [ModelKind.M1, ModelKind.M2, ModelKind.M3, ModelKind.M4]


class TestCriterion4SaturatingRecovery:
    NS = np.unique(np.round(np.geomspace(1, 1e5, 50)).astype(int))

    @pytest.mark.parametrize("kind", SATURATING_KINDS)
    def test_twenty_random_vectors(self, record_property, kind):
        record_property("criterion", "4 saturating-model recovery and gradient check")
        rng = np.random.default_rng(sum(map(ord, kind.value)))
        for _ in range(20):
            true = random_valid_params(kind, rng)
            values = eval_model(kind, true, self.NS.astype(float))
            curve = AccumulationCurve(
                points=tuple((int(n), float(v)) for n, v in zip(self.NS, values))
            )
            fit = fit_model(curve, kind)
            assert fit.converged
            rel = np.abs(fit.param_vector() - true) / np.maximum(np.abs(true), 1e-12)
            assert np.max(rel) < 1e-3

    @pytest.mark.parametrize("kind", SATURATING_KINDS)
    def test_gradient_check(self, record_property, kind):
        record_property("criterion", "4 saturating-model recovery and gradient check")
        rng = np.random.default_rng(77)
        n = np.array([1.0, 23.0, 512.0, 9_999.0, 87_000.0])
        for _ in range(20):
            params = random_valid_params(kind, rng)
            grad = model_gradient(kind, params, n)
            for j, value in enumerate(params):
                h = max(abs(value), 1e-3) * 1e-6
                up, down = params.copy(), params.copy()
                up[j] += h
                down[j] -= h
                approx = (eval_model(kind, up, n) - eval_model(kind, down, n)) / (2 * h)
                scale = np.maximum(np.maximum(np.abs(approx), np.abs(grad[:, j])), 1.0)
                assert np.all(np.abs(grad[:, j] - approx) / scale < 1e-5)


class TestCriterion5HoldoutRanking:
    def test_m4_at_or_above_m1_and_m2_on_zipf_corpus(
        self, record_property, zipf_diversity_curve
    ):
        record_property("criterion", "5 holdout ranking on the synthetic corpus")
        ranking = compare_models(zipf_diversity_curve, train_limit=10_000)
        position = {rm.kind: i for i, rm in enumerate(ranking)}
        assert position[ModelKind.M4] <= position[ModelKind.M1]
        assert position[ModelKind.M4] <= position[ModelKind.M2]


class TestCriterion6SampleSizeStability:
    def test_asymptote_stable_across_prefixes(self, record_property, zipf_tokens):
        record_property("criterion", "6 sample-size stability of the extrapolated asymptote")
        estimates = []
        for fraction in (0.25, 0.5, 1.0):
            prefix = zipf_tokens[: int(len(zipf_tokens) * fraction)]
            report = lexical_report(prefix, "p")
            assert report.saturating.converged
            estimates.append(report.extrapolated_diversity)
        spread = (max(estimates) - min(estimates)) / min(estimates)
        assert spread < 0.15

    def test_pearson_exact_linearity_cases(self, record_property):
        record_property("criterion", "6 sample-size stability of the extrapolated asymptote")
        assert pearson_r((1, 2, 3), (2, 4, 6)) == pytest.approx(1.0, abs=1e-12)
        assert pearson_r((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0, abs=1e-12)


class TestCriterion7MarcSuite:
    def test_descriptor_split(self, record_property):
        record_property("criterion", "7 MARC suite")
        assert split_heading("Commerce--History").texts == ("Commerce", "History")

    def test_target_mu_fixture(self, record_property):
        record_property("criterion", "7 MARC suite")
        # 10 authors, 49 items: items per author engineered to 4.9
        records = []
        rid = 0
        for author_idx in range(10):
            for _ in range(13 if author_idx == 0 else 4):
                records.append(
                    marc_record(f"r{rid}", f"{rid % 20:02d}0101",
                                authors=(f"Author {author_idx}",))
                )
                rid += 1
        stream = parse_records(io.BytesIO(marc_collection(*records)))
        series = facet_series(stream, "authors")
        assert series.mu == pytest.approx(4.9, abs=0.01)

    def test_per_year_diversity_oracle_on_100_random_fixtures(self, record_property):
        record_property("criterion", "7 MARC suite")
        rng = np.random.default_rng(2024)
        for fixture in range(100):
            n_records = int(rng.integers(5, 60))
            views = [
                MarcView(
                    record_id=f"f{fixture}r{i}",
                    entry_year=int(rng.integers(1995, 2015)),
                    authors=(f"Author {rng.integers(0, 15)}",),
                    headings=(),
                )
                for i in range(n_records)
            ]
            series = facet_series(views, "authors")
            for year, rich, div in series.rows:
                events = [
                    a for v in views if v.entry_year <= year for a in v.authors
                ]
                dist = FrequencyDistribution.from_events(events)
                assert rich == richness(dist)
                assert div == pytest.approx(hill_diversity(dist, 1.0), rel=1e-12)


class TestCriterion8LodSuite:
    # Live-endpoint reproduction of published diversity values is explicitly
    # not a target here: endpoints drift, so fixtures stand in.

    def test_query_texts_frozen(self, record_property):
        record_property("criterion", "8a harvest query texts frozen")
        assert CLASS_COUNT_QUERY == (
            "SELECT ?class (COUNT(?s) AS ?count)\n"
            "WHERE {\n"
            "    ?s a ?class \n"
            "}\n"
            "GROUP BY ?class"
        )
        assert SAMEAS_HOST_QUERY == (
            "SELECT ?hostname (COUNT(?s) AS ?count)\n"
            "WHERE{\n"
            "   ?s owl:sameAs ?same . \n"
            "    bind(\n"
            "       strbefore(strafter(\n"
            '        str(?same),"//"),"/") \n'
            "        AS ?hostname)\n"
            "}\n"
            "GROUP BY ?hostname"
        )

    def test_partitioned_equals_direct_on_truncating_fixtures(self, record_property):
        record_property("criterion", "8b partitioned/direct retrieval equivalence")
        triples = [(f"s{i}", "rdf:type", f"http://example.org/C{i % 7}") for i in range(50)]
        triples += [(f"s{i}", f"p{i % 5}", f"o{i}") for i in range(40)]
        plain = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql")
        capped = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql", page_size=3)
        for op in (class_counts, property_counts):
            direct = op(SparqlClient(plain, GraphTransport(triples)))
            partitioned = op(SparqlClient(capped, GraphTransport(triples, row_cap=3)))
            flagged = op(
                SparqlClient(plain, GraphTransport(triples, row_cap=1, signal_truncation=True))
            )
            assert direct == partitioned == flagged

    def test_published_ratio_consistency(self, record_property):
        record_property("criterion", PUBLISHED_RATIO_CRITERION)
        offending = []
        for row in load_published_profiles():
            for side, d, r, ratio in (
                ("class", row.class_D, row.class_R, row.class_DR),
                ("property", row.prop_D, row.prop_R, row.prop_DR),
            ):
                # The half-widths below hold only at the precision the
                # snapshot was published in; floats drop trailing zeros, so
                # the check goes through Decimal(str(x)).
                assert Decimal(str(d)) % D_STEP == 0, f"{row.host} {side}: D {d}"
                assert Decimal(str(ratio)) % RATIO_STEP == 0, f"{row.host} {side}: D/R {ratio}"
                assert r > 0 and Decimal(str(r)) % 1 == 0, f"{row.host} {side}: R {r}"
                if not published_ratio_consistent(d, r, ratio):
                    low, high = unrounded_ratio_bounds(d, r)
                    offending.append(f"{row.host} {side}: [{low:.4f}, {high:.4f}] vs {ratio}")
        assert not offending, (
            "published ratios that no unrounded D within ±0.05 brings within "
            "±0.005 of D/R: " + "; ".join(offending)
        )

    @pytest.mark.parametrize(
        "d, r, ratio",
        [
            (2.1, 5, 0.24),  # AT class, digits of 0.42 swapped
            (7.0, 12, 0.49),  # FI class given FI's property ratio
            (17.3, 35, 0.59),  # FI property given FI's class ratio
            (2.1, 5, 0.44),  # AT class ratio off by +0.02
            (14.6, 23, 0.62),  # KB property ratio off by -0.02
        ],
    )
    def test_ratio_check_rejects_transcription_errors(self, record_property, d, r, ratio):
        record_property("criterion", PUBLISHED_RATIO_CRITERION)
        assert not published_ratio_consistent(d, r, ratio)

    def test_ratio_check_accepts_rounding_boundary(self, record_property):
        record_property("criterion", PUBLISHED_RATIO_CRITERION)
        # KB class: 3.9 / 12 = 0.325 exactly, half a step from the published 0.32.
        assert Decimal("3.9") / 12 == Decimal("0.32") + RATIO_HALF_WIDTH
        assert published_ratio_consistent(3.9, 12, 0.32)


class TestCriterion9Determinism:
    def _run_twice(self, argv, capsys, transport=None) -> str:
        code1 = cli.main(argv, transport=transport)
        first = capsys.readouterr()
        code2 = cli.main(argv, transport=transport)
        second = capsys.readouterr()
        assert code1 == code2 == cli.EXIT_OK
        assert first.out == second.out
        return first.out

    def test_cli_outputs_byte_identical_across_runs(
        self, record_property, tmp_path, monkeypatch, capsys
    ):
        record_property("criterion", "9 CLI output determinism")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

        (tmp_path / "doc.txt").write_text(
            "El ingenioso hidalgo don Quijote de la Mancha. " * 30, encoding="utf-8"
        )
        self._run_twice(["lexdiv", "doc.txt", "--every", "20"], capsys)

        (tmp_path / "catalog.xml").write_bytes(
            marc_collection(
                marc_record("r1", "010101", authors=("A",),
                            subjects=((("a", "Commerce--History"),),)),
                marc_record("r2", "020101", authors=("B",),
                            subjects=((("a", "Theater"),),)),
            )
        )
        self._run_twice(["marc", "catalog.xml", "--facet", "subjects"], capsys)

        curve = AccumulationCurve(
            points=tuple(
                (n, float(eval_model(ModelKind.M2, (50.0, 1000.0), float(n))))
                for n in (1, 10, 100, 1000, 10_000, 100_000)
            )
        )
        (tmp_path / "curve.csv").write_text(curve.to_csv())
        self._run_twice(["fit", "curve.csv", "--model", "m2"], capsys)

        (tmp_path / "roster.json").write_text(
            json.dumps([{"name": "FIX", "url": "http://fixture.invalid/sparql"}])
        )
        out_json = self._run_twice(
            ["lod", "--roster", "roster.json"], capsys,
            transport=GraphTransport(PEOPLE_GRAPH),
        )
        assert json.loads(out_json)[0]["endpoint"] == "FIX"
