"""Harvest queries, partitioned fallback, transport behavior, profiles."""

from __future__ import annotations

import gzip
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
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
    SparqlResult,
    TransportError,
    class_counts,
    load_published_profiles,
    load_roster,
    profile,
    property_counts,
    sameas_host_counts,
)

from .conftest import PEOPLE_GRAPH, FlakyTransport, GraphTransport, RewrittenCounts

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
        # the page size is sent as the LIMIT of each enumeration query
        for page_size in (2.5, True):
            with pytest.raises(ValueError, match=f"got {page_size!r}$"):
                EndpointConfig(name="x", url="http://a.example/s", page_size=page_size)


# A child process that prints "ready" and then waits as long as a roster
# entry may make it wait.
_LONGEST_WAITS = {
    "delay_ms": """
import threading
from metadiv.lod import EndpointConfig, SparqlClient, SparqlResult
class Answer:
    def select(self, url, query, timeout):
        return SparqlResult(rows=[])
cfg = EndpointConfig(name="X", url="http://x.invalid/sparql",
                     delay_ms=int(threading.TIMEOUT_MAX * 500))
client = SparqlClient(cfg, Answer())
client.select("q")
print("ready", flush=True)
client.select("q")  # sleeps the politeness delay first
""",
    "timeout": """
import socket, threading
from metadiv.lod import EndpointConfig, HttpTransport
server = socket.create_server(("127.0.0.1", 0))  # connects, never answers
cfg = EndpointConfig(name="X", url=f"http://127.0.0.1:{server.getsockname()[1]}/sparql",
                     timeout=threading.TIMEOUT_MAX)
print("ready", flush=True)
HttpTransport().select(cfg.url, "SELECT * {}", cfg.timeout)
""",
}


@pytest.mark.parametrize("code", _LONGEST_WAITS.values(), ids=_LONGEST_WAITS.keys())
def test_longest_roster_wait_is_one_the_platform_takes(code):
    # A wait the platform rejects fails at once (EINVAL), so the child must
    # still be waiting half a second after it starts.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            assert child.stdout.readline() == "ready\n"
            time.sleep(0.5)
            assert child.poll() is None
        finally:
            child.kill()


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

    @pytest.mark.parametrize("n_classes, page", [(7, 1), (7, 2), (7, 3), (7, 7), (6, 3)])
    def test_each_page_is_counted_before_the_next_is_requested(self, n_classes, page):
        graph = [(f"s{i}", "rdf:type", f"http://example.org/C{i % n_classes}")
                 for i in range(3 * n_classes)]
        transport = GraphTransport(graph, row_cap=page)
        dist = class_counts(SparqlClient(replace(CFG, page_size=page), transport))
        assert dist == class_counts(SparqlClient(CFG, GraphTransport(graph)))
        kinds = "".join("D" if q == CLASS_COUNT_QUERY else "E" if q.startswith("SELECT DISTINCT")
                        else "B" for q in transport.queries)
        # direct, then page and batch in turn; a full last page is followed
        # by one empty page, which sends no batch
        batches = -(-n_classes // page)
        assert kinds == "D" + "EB" * batches + ("E" if n_classes % page == 0 else "")
        assert kinds.count("E") == n_classes // page + 1
        assert "VALUES ?class {  }" not in "".join(transport.queries)

    def test_malformed_count_row_stops_the_harvest(self):
        graph = [(f"s{i}", "rdf:type", f"http://example.org/C{i}") for i in range(7)]
        inner = GraphTransport(graph, row_cap=2)

        class NegativeBatchCounts:
            def select(self, url, query, timeout):
                result = inner.select(url, query, timeout)
                if "VALUES" in query:
                    return SparqlResult(rows=[{**row, "count": "-1"} for row in result.rows])
                return result

        with pytest.raises(ProtocolError, match=r"^malformed count row \{'class': 'http://exa"):
            class_counts(SparqlClient(replace(CFG, page_size=2), NegativeBatchCounts()))
        # the direct query, the first page and its batch; nothing after the batch
        assert inner.queries[0] == CLASS_COUNT_QUERY
        assert inner.queries[1].startswith("SELECT DISTINCT ?class")
        assert "VALUES" in inner.queries[2]
        assert len(inner.queries) == 3

    @pytest.mark.parametrize("n_classes", [500, 4_000])
    def test_partitioned_harvest_holds_one_page_of_rows(self, n_classes):
        # Rows are counted as they arrive, so above the distribution it
        # returns, a harvest holds one page of rows and the dict's growth.
        # Holding every batch's rows until the end takes about twice the
        # distribution again.
        graph = [(f"s{i}", "rdf:type", f"http://example.org/C{i % n_classes}")
                 for i in range(3 * n_classes)]
        client = SparqlClient(replace(CFG, page_size=50),
                              RowCopying(GraphTransport(graph, row_cap=50)))
        expected = class_counts(client)  # records every answer before tracing
        tracemalloc.start()
        try:
            dist = class_counts(client)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist == expected and len(dist) == n_classes
        assert peak - kept < kept / 2

    def test_malformed_key_row_raises_protocol_error(self):
        inner = GraphTransport(PEOPLE_GRAPH)

        class KeylessPage:
            def select(self, url, query, timeout):
                if query.startswith("SELECT DISTINCT"):
                    return SparqlResult(rows=[{"class": "http://example.org/Person"},
                                              {"k": "http://example.org/Work"}])
                return inner.select(url, query, timeout)

        cfg = replace(CFG, page_size=2)
        with pytest.raises(ProtocolError, match=r"^malformed key row \{'k': 'http://exa"):
            class_counts(SparqlClient(cfg, KeylessPage()))
        assert inner.queries == [CLASS_COUNT_QUERY]  # no batch for the malformed page


class RowCopying:
    """Answers each query with fresh rows parsed from JSON, as ``HttpTransport``
    does; the JSON text is recorded from ``inner`` the first time a query is sent."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.answers: dict[str, tuple[str, bool]] = {}

    def select(self, url: str, query: str, timeout: float) -> SparqlResult:
        if query not in self.answers:
            result = self.inner.select(url, query, timeout)
            self.answers[query] = (json.dumps(result.rows), result.truncated)
        body, truncated = self.answers[query]
        return SparqlResult(rows=json.loads(body), truncated=truncated)


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

    def test_target_without_host_part_is_dropped(self):
        # SPARQL's strbefore binds "" for a target with no //host/ part.
        triples = [("a", "owl:sameAs", "urn:isbn:1"), ("b", "owl:sameAs", "http://viaf.org"),
                   ("c", "owl:sameAs", "http://viaf.org/x")]
        rows = GraphTransport(triples).select(CFG.url, SAMEAS_HOST_QUERY, CFG.timeout).rows
        assert {"hostname": "", "count": "2"} in rows
        dist = sameas_host_counts(SparqlClient(CFG, GraphTransport(triples)))
        assert dist.counts == {"viaf.org": 1}


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
    def test_derived_indices_for_known_distribution(self):
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

    def test_single_class(self):
        triples = [("s", "rdf:type", "http://example.org/Only")]
        prof = profile(SparqlClient(CFG, GraphTransport(triples)))
        derived = prof.derived()["class"]
        assert (derived.diversity, derived.richness, derived.ratio) == (1.0, 1, 1.0)

    def test_published_style_skewed_fixture(self):
        # five classes with counts 81:8:5:3:3 give D = 2.1; the CLI tests
        # check D/R = 0.42 at the summary table's precision
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

    def test_partial_when_sameas_unsupported(self):
        prof = profile(SparqlClient(CFG, GraphTransport(PEOPLE_GRAPH, fail_sameas=True)))
        assert prof.complete is False
        assert prof.sameas_hosts.counts == {}
        assert prof.classes.total == 3

    def test_partial_when_sameas_counts_negative(self):
        graph = PEOPLE_GRAPH + [("x", "owl:sameAs", "http://viaf.org/viaf/1")]
        transport = RewrittenCounts(GraphTransport(graph), SAMEAS_HOST_QUERY)
        prof = profile(SparqlClient(CFG, transport))
        assert prof.complete is False
        assert prof.sameas_hosts.counts == {}
        assert prof.classes.total == 3


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

    def test_two_entries_may_share_a_url(self, tmp_path):
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([{"name": "X", "url": "http://x/sparql"},
                                    {"name": "Y", "url": "http://x/sparql"}]))
        assert [cfg.name for cfg in load_roster(str(path))] == ["X", "Y"]

    def test_two_entries_may_not_share_a_name(self, tmp_path):
        # ``--endpoint a`` would harvest both and print two profiles named a
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([{"name": "a", "url": "http://x/sparql"},
                                    {"name": "b", "url": "http://x/sparql"},
                                    {"name": "a", "url": "http://y/sparql"}]))
        with pytest.raises(ValueError) as err:
            load_roster(str(path))
        assert str(err.value) == (f"roster {path}: entry 2 is invalid: "
                                  """ValueError("entries 0 and 2 are both named 'a'")""")

    @pytest.mark.parametrize("entries, problem", [
        ([{"name": "X", "url": "http://x/sparql"}, {"name": "Y"}], "entry 1 .*'url'"),
        ([{"name": "X", "url": "http://x/sparql", "page_size": 0}], "entry 0 .*page size"),
        (["http://x/sparql"], "entry 0"),
        *(pytest.param([{"name": n, "url": "http://x/sparql"}], "entry 0 .*name must be a string",
                       id=f"name-{n}") for n in (None, 5, True)),
        pytest.param('[{"name": "X",', "not valid JSON: ", id="truncated"),
        *(pytest.param([{"name": "X", "url": "http://x/sparql", "timeout": t}],
                       "entry 0 .*timeout", id=f"timeout-{t}") for t in (0, -1, "nan")),
        *(pytest.param([{"name": "X", "url": u}], "entry 0 .*url", id=f"url-{u}")
          for u in ("data.example.org/sparql", "file:///srv/sparql.json", "http:///sparql",
                    "http://x/spärql")),
        *(pytest.param([{"name": "X", "url": "http://x/sparql", k: v}], f"entry 0 .*{k}",
                       id=f"{k}-{v}")
          for k, v in (("page_size", 2.5), ("delay_ms", True), ("timeout", True),
                       ("delay_ms", 0.5), ("timeout", 1e12), ("delay_ms", 1e30),
                       # just under TIMEOUT_MAX * 1000, which time.sleep cannot take
                       ("delay_ms", 9_223_372_035_000))),
        pytest.param('[{"name": "X", "url": "http://x/sparql", "page_size": Infinity}]',
                     "entry 0 .*infinity", id="page_size-inf"),
        # past Python's limit on the digits of an integer read from a string
        pytest.param('[{"name": "X", "url": "http://x/sparql", "page_size": %s}]' % ("1" * 5000),
                     "not valid JSON: .*digits", id="page_size-5000-digits"),
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
    # How an answer departs from plain JSON: "stall" sends nothing for a
    # second, "short" half its Content-Length, "not-json" an HTML page and
    # "gzip" a compressed body.
    mode = ""
    retyped: tuple = ()  # (variable, JSON value): every cell of that variable holds the value
    seen: list = []  # (command, path, headers) of every request

    def _respond(self, query: str) -> None:
        self.seen.append((self.command, self.path, self.headers))
        if self.fail_next:
            self.send_response(self.fail_next.pop(0))
            self.end_headers()
            return
        if self.mode == "stall":
            time.sleep(1.0)
            return
        query = "\n".join(
            line for line in query.splitlines() if not line.startswith("#")
        )
        result = self.graph.select("", query, 0.0)
        bindings = [
            {var: {"type": "uri", "value": value} for var, value in row.items()}
            for row in result.rows
        ]
        if self.retyped:
            var, value = self.retyped
            for binding in bindings:
                binding[var]["value"] = value
        body = json.dumps({"results": {"bindings": bindings}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        if self.mode == "not-json":
            body = b"<html><body>Service busy</body></html>"
        elif self.mode == "gzip":
            body = gzip.compress(body)
            self.send_header("Content-Encoding", "gzip")
        elif self.mode == "short":
            self.send_header("Content-Length", str(len(body)))
            body = body[: len(body) // 2]
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
    _SparqlHandler.mode = ""
    _SparqlHandler.retyped = ()
    _SparqlHandler.seen = []
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

    def test_get_carries_accept_header_and_exact_query(self, loopback_endpoint):
        url = loopback_endpoint + "?default-graph-uri=g"
        HttpTransport().select(url, CLASS_COUNT_QUERY, timeout=5.0)
        [(command, path, headers)] = _SparqlHandler.seen
        assert command == "GET"
        assert parse_qs(urlparse(path).query) == {
            "default-graph-uri": ["g"], "query": [CLASS_COUNT_QUERY]}
        assert headers["Accept"] == "application/sparql-results+json"

    def test_read_timeout_is_query_timeout(self, loopback_endpoint):
        _SparqlHandler.mode = "stall"
        with pytest.raises(QueryTimeout):
            HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=0.2)

    def test_body_shorter_than_content_length_is_transport_error(self, loopback_endpoint):
        _SparqlHandler.mode = "short"
        with pytest.raises(TransportError) as err:
            HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=5.0)
        assert not isinstance(err.value, QueryTimeout)

    def test_non_json_body_is_protocol_error(self, loopback_endpoint):
        _SparqlHandler.mode = "not-json"
        with pytest.raises(ProtocolError):
            HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=5.0)

    # SPARQL 1.1 Query Results JSON (section 3.2.2) makes every "value" a string.
    @pytest.mark.parametrize("var, value", [("count", 5.5), ("count", True), ("count", None),
                                            ("count", [1]), ("class", None)],
                             ids=["count-5.5", "count-true", "count-null", "count-list", "class-null"])
    def test_non_string_value_is_protocol_error(self, loopback_endpoint, var, value):
        _SparqlHandler.retyped = (var, value)
        with pytest.raises(ProtocolError, match=re.escape(loopback_endpoint)):
            HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=5.0)

    def test_no_content_is_endpoint_error(self, loopback_endpoint):
        _SparqlHandler.fail_next = [204]
        with pytest.raises(EndpointError) as err:
            HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=5.0)
        assert err.value.status == 204

    def test_gzip_answer_is_decoded(self, loopback_endpoint):
        _SparqlHandler.mode = "gzip"
        result = HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=5.0)
        assert len(result.rows) == 2
        [(_, _, headers)] = _SparqlHandler.seen
        assert "gzip" in headers["Accept-Encoding"]

    def test_proxy_variable_read_when_transport_is_made(self, loopback_endpoint, monkeypatch):
        # A first request before the variable is set: an opener shared by
        # every transport would already have read the proxy settings.
        HttpTransport().select(loopback_endpoint, CLASS_COUNT_QUERY, timeout=5.0)
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", loopback_endpoint.removesuffix("/sparql"))
        # nothing listens on port 9: only the proxy can answer
        target = "http://127.0.0.1:9/sparql"
        result = HttpTransport().select(target, CLASS_COUNT_QUERY, timeout=5.0)
        assert len(result.rows) == 2
        assert _SparqlHandler.seen[-1][1].startswith(target + "?")
