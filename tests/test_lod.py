"""Harvest queries, partitioned fallback, transport behavior, profiles."""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadiv.lod import (
    CLASS_COUNT_QUERY,
    PROPERTY_COUNT_QUERY,
    SAMEAS_HOST_QUERY,
    EndpointConfig,
    EndpointError,
    HttpTransport,
    ProtocolError,
    QueryTimeout,
    SparqlClient,
    TransportError,
    class_counts,
    load_published_profiles,
    load_roster,
    profile,
    profiles_to_csv,
    property_counts,
    sameas_host_counts,
)

from .conftest import PEOPLE_GRAPH, FlakyTransport, GraphTransport, NegatedCounts

CFG = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql")


class TestQueryTexts:
    def test_class_count_query_frozen(self):
        assert CLASS_COUNT_QUERY == (
            "SELECT ?class (COUNT(?s) AS ?count)\n"
            "WHERE {\n"
            "    ?s a ?class \n"
            "}\n"
            "GROUP BY ?class"
        )

    def test_sameas_host_query_frozen(self):
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

    def test_property_variant_mirrors_class_query_shape(self):
        assert PROPERTY_COUNT_QUERY == (
            "SELECT ?p (COUNT(*) AS ?count)\n"
            "WHERE {\n"
            "    ?s ?p ?o \n"
            "}\n"
            "GROUP BY ?p"
        )


class TestEndpointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointConfig(name="x", url="http://x", page_size=0)
        with pytest.raises(ValueError):
            EndpointConfig(name="x", url="http://x", delay_ms=-1)


class TestClassCounts:
    def test_hand_counted_fixture(self):
        dist = class_counts(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH)))
        assert dist.counts == {"http://example.org/Person": 2, "http://example.org/Work": 1}

    def test_empty_graph(self):
        dist = class_counts(SparqlClient(CFG, GraphTransport([])))
        assert dist.counts == {}

    def test_truncation_flag_triggers_partitioned_path(self):
        transport = GraphTransport(PEOPLE_GRAPH, row_cap=1, signal_truncation=True)
        dist = class_counts(SparqlClient(CFG, transport))
        assert dist.counts == {"http://example.org/Person": 2, "http://example.org/Work": 1}
        assert transport.queries[0] == CLASS_COUNT_QUERY
        assert any("SELECT DISTINCT ?class" in q for q in transport.queries)

    def test_row_cap_at_page_size_triggers_partitioned_path(self):
        cfg = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql", page_size=1)
        transport = GraphTransport(PEOPLE_GRAPH, row_cap=1)
        dist = class_counts(SparqlClient(cfg, transport))
        assert dist.counts == {"http://example.org/Person": 2, "http://example.org/Work": 1}

    def test_timeout_on_direct_query_triggers_partitioned_path(self):
        inner = GraphTransport(PEOPLE_GRAPH)

        class TimeoutOnDirect:
            def select(self, url, query, timeout):
                if query == CLASS_COUNT_QUERY:
                    raise QueryTimeout("too slow")
                return inner.select(url, query, timeout)

        dist = class_counts(SparqlClient(CFG, TimeoutOnDirect()))
        assert dist.counts == {"http://example.org/Person": 2, "http://example.org/Work": 1}

    def test_partitioned_equals_direct(self):
        direct = class_counts(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH)))
        cfg = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql", page_size=1)
        partitioned = class_counts(SparqlClient(cfg, GraphTransport(PEOPLE_GRAPH, row_cap=1)))
        assert direct == partitioned


# Random graphs over few classes and properties, so keys repeat and their
# count varies from none to a dozen on each side.
graphs = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.sampled_from(["rdf:type"] + [f"http://example.org/p{i}" for i in range(6)]),
        st.integers(0, 11),
    ),
    max_size=60,
).map(lambda rows: [
    (f"s{s}", p, f"http://example.org/C{o}" if p == "rdf:type" else f"o{o}")
    for s, p, o in rows
])


class TestPartitionedProperty:
    @given(graphs)
    @settings(max_examples=100, deadline=None)
    def test_row_capped_equals_direct_at_every_page_size(self, triples):
        # page sizes below, at and above the key count: below it the capped
        # direct answer falls back to partitioning, at it the enumeration
        # ends on an empty page, above it the direct answer is complete
        for harvest in (class_counts, property_counts):
            direct = harvest(SparqlClient(CFG, GraphTransport(triples)))
            for page in range(1, len(direct) + 2):
                capped = harvest(SparqlClient(
                    replace(CFG, page_size=page), GraphTransport(triples, row_cap=page)
                ))
                assert list(capped.counts.items()) == list(direct.counts.items())
                assert capped.total == direct.total


class TestPropertyCounts:
    def test_triples_per_predicate(self):
        triples = [("s1", "p", "o1"), ("s2", "p", "o2"), ("s3", "q", "o3")]
        dist = property_counts(SparqlClient(CFG, GraphTransport(triples)))
        assert dist.counts == {"p": 2, "q": 1}

    def test_type_only_graph(self):
        dist = property_counts(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH)))
        assert dist.counts == {"rdf:type": 3}

    def test_partitioned_equals_direct(self):
        triples = [(f"s{i}", f"p{i % 5}", f"o{i}") for i in range(40)]
        direct = property_counts(SparqlClient(CFG, GraphTransport(triples)))
        cfg = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql", page_size=2)
        partitioned = property_counts(SparqlClient(cfg, GraphTransport(triples, row_cap=2)))
        assert direct == partitioned


class TestSameasHostCounts:
    def test_hosts_extracted(self):
        triples = [
            ("a", "owl:sameAs", "http://viaf.org/viaf/1"),
            ("b", "owl:sameAs", "http://viaf.org/viaf/2"),
        ]
        dist = sameas_host_counts(SparqlClient(CFG, GraphTransport(triples)))
        assert dist.counts == {"viaf.org": 2}

    def test_https_host(self):
        triples = [("a", "owl:sameAs", "https://d-nb.info/gnd/x")]
        dist = sameas_host_counts(SparqlClient(CFG, GraphTransport(triples)))
        assert dist.counts == {"d-nb.info": 1}

    def test_no_links(self):
        dist = sameas_host_counts(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH)))
        assert dist.counts == {}


class TestClientBehavior:
    def test_retries_then_succeeds(self):
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=2)
        sleeps: list[float] = []
        client = SparqlClient(CFG, transport, sleep=sleeps.append)
        result = client.select(CLASS_COUNT_QUERY)
        assert len(result.rows) == 2
        assert transport.attempts == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_retries_are_logged(self, caplog):
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=2)
        client = SparqlClient(CFG, transport, sleep=lambda _: None)
        with caplog.at_level(logging.WARNING, logger="metadiv.lod"):
            client.select(CLASS_COUNT_QUERY)
        assert [r.getMessage() for r in caplog.records] == [
            f"{CFG.url}: attempt 1 of 3 failed: connection reset",
            f"{CFG.url}: attempt 2 of 3 failed: connection reset",
        ]

    def test_gives_up_with_retry_count(self):
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=10)
        client = SparqlClient(CFG, transport, sleep=lambda _: None)
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.select(CLASS_COUNT_QUERY)

    def test_non_retryable_endpoint_error_propagates_immediately(self):
        error = EndpointError("HTTP 400", status=400)
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=10, error=error)
        client = SparqlClient(CFG, transport, sleep=lambda _: None)
        with pytest.raises(EndpointError):
            client.select(CLASS_COUNT_QUERY)
        assert transport.attempts == 1

    def test_server_errors_are_retried(self):
        error = EndpointError("HTTP 503", status=503)
        transport = FlakyTransport(GraphTransport(PEOPLE_GRAPH), failures=1, error=error)
        client = SparqlClient(CFG, transport, sleep=lambda _: None)
        assert len(client.select(CLASS_COUNT_QUERY).rows) == 2

    def test_politeness_delay_between_requests(self):
        cfg = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql", delay_ms=250)
        transport = GraphTransport(PEOPLE_GRAPH)
        sleeps: list[float] = []
        client = SparqlClient(cfg, transport, sleep=sleeps.append)
        client.select(CLASS_COUNT_QUERY)
        assert sleeps == []  # no delay before the first request
        client.select(PROPERTY_COUNT_QUERY)
        client.select(SAMEAS_HOST_QUERY)
        assert sleeps == [0.25, 0.25]

    def test_politeness_delay_spans_every_harvest_of_a_profile(self):
        cfg = replace(CFG, page_size=1, delay_ms=250)
        graph = PEOPLE_GRAPH + [("x", "owl:sameAs", "http://viaf.org/viaf/1")]
        transport = GraphTransport(graph, row_cap=1)
        sleeps: list[float] = []
        profile(SparqlClient(cfg, transport, sleep=sleeps.append))
        # direct and partitioned class and property queries, then sameAs
        assert transport.queries[-1] == SAMEAS_HOST_QUERY
        assert len(transport.queries) > 3
        assert sleeps == [0.25] * (len(transport.queries) - 1)

    def test_requests_are_strictly_sequential(self):
        cfg = EndpointConfig(name="FIX", url="http://fixture.invalid/sparql", delay_ms=10)
        inner = GraphTransport(PEOPLE_GRAPH)
        in_flight = {"now": 0, "max": 0}

        class Guard:
            def select(self, url, query, timeout):
                in_flight["now"] += 1
                in_flight["max"] = max(in_flight["max"], in_flight["now"])
                try:
                    return inner.select(url, query, timeout)
                finally:
                    in_flight["now"] -= 1

        profile(SparqlClient(cfg, Guard(), sleep=lambda _: None))
        assert in_flight["max"] == 1

    def test_malformed_rows_raise_protocol_error(self):
        class Bad:
            def select(self, url, query, timeout):
                from metadiv.lod import SparqlResult

                return SparqlResult(rows=[{"class": "x", "count": "not-a-number"}])

        with pytest.raises(ProtocolError):
            class_counts(SparqlClient(CFG, Bad()))


class TestProfile:
    def test_derived_indices_for_known_distribution(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        triples = (
            [(f"s{i}", "rdf:type", "http://example.org/A") for i in range(8)]
            + [(f"t{i}", "rdf:type", "http://example.org/B") for i in range(4)]
            + [(f"u{i}", "rdf:type", "http://example.org/C") for i in range(4)]
        )
        prof = profile(SparqlClient(CFG, GraphTransport(triples)))
        derived = prof.derived()["class"]
        assert derived.diversity == pytest.approx(2.8284, abs=5e-5)
        assert derived.richness == 3
        assert derived.ratio == pytest.approx(0.9428, abs=5e-5)
        payload = prof.to_dict()
        assert payload["derived"]["class"] == {"D": 2.8284, "R": 3, "DR": 0.94}
        assert payload["retrieved_at"] == "2023-11-14T22:13:20+00:00"

    def test_single_class(self):
        triples = [("s", "rdf:type", "http://example.org/Only")]
        prof = profile(SparqlClient(CFG, GraphTransport(triples)))
        derived = prof.derived()["class"]
        assert (derived.diversity, derived.richness, derived.ratio) == (1.0, 1, 1.0)

    def test_published_style_skewed_fixture(self):
        # five classes with counts 81:8:5:3:3 give D = 2.1 and D/R = 0.42
        # at the summary table's precision
        counts = {"A": 81, "B": 8, "C": 5, "D": 3, "E": 3}
        triples = [
            (f"s{uri}{i}", "rdf:type", f"http://example.org/{uri}")
            for uri, n in counts.items()
            for i in range(n)
        ]
        prof = profile(SparqlClient(CFG, GraphTransport(triples)))
        derived = prof.derived()["class"]
        assert round(derived.diversity, 1) == 2.1
        assert derived.richness == 5
        assert prof.to_dict()["derived"]["class"]["DR"] == 0.42

    def test_partial_when_sameas_unsupported(self):
        prof = profile(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH, fail_sameas=True)))
        assert prof.complete is False
        assert prof.sameas_hosts.counts == {}
        assert prof.classes.total == 3

    def test_partial_when_sameas_counts_negative(self):
        graph = PEOPLE_GRAPH + [("x", "owl:sameAs", "http://viaf.org/viaf/1")]
        transport = NegatedCounts(GraphTransport(graph), SAMEAS_HOST_QUERY)
        prof = profile(SparqlClient(CFG, transport))
        assert prof.complete is False
        assert prof.sameas_hosts.counts == {}
        assert prof.classes.total == 3

    def test_derived_recomputable_from_stored_distributions(self):
        from metadiv.diversity import hill_diversity, richness

        prof = profile(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH)))
        payload = prof.to_dict()
        for side, dist in (("class", prof.classes), ("property", prof.properties)):
            assert payload["derived"][side]["D"] == round(hill_diversity(dist, 1.0), 4)
            assert payload["derived"][side]["R"] == richness(dist)
            assert payload["derived"][side]["DR"] == round(
                hill_diversity(dist, 1.0) / richness(dist), 2
            )

    def test_csv_layout(self):
        prof = profile(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH)))
        text = profiles_to_csv([prof])
        lines = text.splitlines()
        assert lines[0] == "host,class_D,class_R,class_DR,prop_D,prop_R,prop_DR"
        assert lines[1].startswith("FIX,")


class TestShippedData:
    def test_roster_loads_with_expected_entries(self):
        roster = load_roster()
        names = [cfg.name for cfg in roster]
        assert len(names) == 11
        for code in ("AT", "BNB", "BNE", "BNF", "BVC", "EU", "FI", "KB"):
            assert code in names
        assert all(cfg.url.startswith("https://") for cfg in roster)

    def test_roster_from_file(self, tmp_path):
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([{"name": "X", "url": "http://x/sparql"}]))
        roster = load_roster(str(path))
        assert roster == [EndpointConfig(name="X", url="http://x/sparql")]

    def test_roster_options_override_defaults(self, tmp_path):
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([
            {"name": "X", "url": "http://x/sparql", "page_size": "5", "timeout": 3,
             "delay_ms": 7, "note": "ignored"},
            {"name": "Y", "url": "http://y/sparql", "timeout": "2.5"},
        ]))
        assert load_roster(str(path)) == [
            EndpointConfig(name="X", url="http://x/sparql", page_size=5, timeout=3.0,
                           delay_ms=7),
            EndpointConfig(name="Y", url="http://y/sparql", timeout=2.5),
        ]

    @pytest.mark.parametrize("entries, problem", [
        ([{"name": "X", "url": "http://x/sparql"}, {"name": "Y"}], "entry 1 .*'url'"),
        ([{"name": "X", "url": "http://x/sparql", "page_size": 0}], "entry 0 .*page size"),
        (["http://x/sparql"], "entry 0"),
        pytest.param('[{"name": "X",', "not valid JSON: ", id="truncated"),
    ])
    def test_malformed_roster_names_file_and_entry(self, tmp_path, entries, problem):
        path = tmp_path / "roster.json"
        path.write_text(entries if isinstance(entries, str) else json.dumps(entries))
        with pytest.raises(ValueError, match=problem) as err:
            load_roster(str(path))
        assert str(path) in str(err.value)

    def test_published_profiles_snapshot(self):
        rows = load_published_profiles()
        assert len(rows) == 8
        by_host = {r.host: r for r in rows}
        assert by_host["AT"].class_D == 2.1
        assert by_host["AT"].class_R == 5
        assert by_host["BNF"].prop_R == 791


# --- real HTTP transport over a loopback server ------------------------------


class _SparqlHandler(BaseHTTPRequestHandler):
    graph = GraphTransport(PEOPLE_GRAPH)
    fail_next: list[int] = []

    def _respond(self, query: str) -> None:
        if self.fail_next:
            self.send_response(self.fail_next.pop(0))
            self.end_headers()
            return
        query = "\n".join(
            line for line in query.splitlines() if not line.startswith("#")
        )
        result = self.graph.select("", query, 0.0)
        bindings = [
            {var: {"type": "uri", "value": value} for var, value in row.items()}
            for row in result.rows
        ]
        body = json.dumps({"results": {"bindings": bindings}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        query = parse_qs(urlparse(self.path).query).get("query", [""])[0]
        self._respond(query)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        query = parse_qs(self.rfile.read(length).decode()).get("query", [""])[0]
        self._respond(query)

    def log_message(self, *args):
        pass


@pytest.fixture()
def loopback_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SparqlHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _SparqlHandler.fail_next = []
    yield f"http://127.0.0.1:{server.server_address[1]}/sparql"
    server.shutdown()
    thread.join()
    server.server_close()


class TestHttpTransport:
    def test_select_over_http(self, loopback_endpoint):
        cfg = EndpointConfig(name="LOOP", url=loopback_endpoint)
        dist = class_counts(SparqlClient(cfg, HttpTransport()))
        assert dist.counts == {"http://example.org/Person": 2, "http://example.org/Work": 1}

    def test_post_used_for_long_queries(self, loopback_endpoint):
        from metadiv.lod import _GET_QUERY_LIMIT

        # comment padding pushes the query over the GET limit; the server
        # strips comment lines, so a correct answer proves the POST body
        # carried the full text
        long_query = CLASS_COUNT_QUERY + "\n# " + "x" * _GET_QUERY_LIMIT
        assert len(long_query) > _GET_QUERY_LIMIT
        result = HttpTransport().select(loopback_endpoint, long_query, timeout=5.0)
        assert len(result.rows) == 2

    def test_http_error_status(self, loopback_endpoint):
        _SparqlHandler.fail_next = [404]
        with pytest.raises(EndpointError) as err:
            HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=5.0)
        assert err.value.status == 404
        assert not err.value.retryable

    def test_server_error_is_retried_by_client(self, loopback_endpoint):
        _SparqlHandler.fail_next = [503]
        cfg = EndpointConfig(name="LOOP", url=loopback_endpoint)
        client = SparqlClient(cfg, HttpTransport(), sleep=lambda _: None)
        assert len(client.select(CLASS_COUNT_QUERY).rows) == 2

    def test_connection_refused_is_transport_error(self):
        cfg = EndpointConfig(name="DEAD", url="http://127.0.0.1:9/sparql", timeout=0.5)
        client = SparqlClient(cfg, HttpTransport(), sleep=lambda _: None)
        with pytest.raises(TransportError):
            client.select(CLASS_COUNT_QUERY)
