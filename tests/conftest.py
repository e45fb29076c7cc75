"""Shared fixtures: synthetic corpora, MARCXML builders, fake SPARQL transports."""

from __future__ import annotations

import re
from collections import Counter

import pytest

from metadiv.accumulation import diversity_growth, every
from metadiv.lod import (
    CLASS_COUNT_QUERY,
    PROPERTY_COUNT_QUERY,
    SAMEAS_HOST_QUERY,
    EndpointError,
    SparqlResult,
    TransportError,
)
from metadiv.synthetic import zipf_corpus

ZIPF_SEED = 20260811
ZIPF_TOKENS = 100_000
ZIPF_TYPES = 5_000
ZIPF_EXPONENT = 1.0


@pytest.fixture(scope="session")
def zipf_tokens() -> tuple[str, ...]:
    return zipf_corpus(ZIPF_TOKENS, ZIPF_TYPES, ZIPF_EXPONENT, seed=ZIPF_SEED)


@pytest.fixture(scope="session")
def zipf_diversity_curve(zipf_tokens):
    return diversity_growth(zipf_tokens, every(100), order=1.0)


@pytest.fixture(scope="session")
def novel_like_tokens() -> tuple[str, ...]:
    # Large type inventory: vocabulary growth stays in the unsaturated
    # power-law regime over the whole stream, as in novel-length text.
    return zipf_corpus(ZIPF_TOKENS, 50_000, ZIPF_EXPONENT, seed=ZIPF_SEED)


# --- MARCXML builders -------------------------------------------------------

MARC_NS = "http://www.loc.gov/MARC21/slim"


def marc_record(
    record_id: str | None,
    field_008: str | None = None,
    authors: tuple[str, ...] = (),
    added_authors: tuple[str, ...] = (),
    subjects: tuple[tuple[tuple[str, str], ...], ...] = (),
) -> str:
    """One MARCXML record element; subjects are tuples of (code, text) pairs."""
    parts = ["<record>"]
    if record_id is not None:
        parts.append(f'<controlfield tag="001">{record_id}</controlfield>')
    if field_008 is not None:
        parts.append(f'<controlfield tag="008">{field_008}</controlfield>')
    for i, name in enumerate(authors):
        tag = "100" if i == 0 else "700"
        parts.append(
            f'<datafield tag="{tag}" ind1="1" ind2=" ">'
            f'<subfield code="a">{name}</subfield></datafield>'
        )
    for name in added_authors:
        parts.append(
            '<datafield tag="700" ind1="1" ind2=" ">'
            f'<subfield code="a">{name}</subfield></datafield>'
        )
    for subfields in subjects:
        cells = "".join(
            f'<subfield code="{code}">{text}</subfield>' for code, text in subfields
        )
        parts.append(f'<datafield tag="650" ind1=" " ind2="0">{cells}</datafield>')
    parts.append("</record>")
    return "".join(parts)


def marc_collection(*records: str, namespaced: bool = True) -> bytes:
    ns = f' xmlns="{MARC_NS}"' if namespaced else ""
    return f'<?xml version="1.0" encoding="UTF-8"?><collection{ns}>{"".join(records)}</collection>'.encode()


# --- fake SPARQL transports --------------------------------------------------

_ENUM_RE = re.compile(
    r"SELECT DISTINCT \?(\w+) WHERE \{ (.+) \} ORDER BY \?\w+ LIMIT (\d+) OFFSET (\d+)"
)
_BATCH_RE = re.compile(r"VALUES \?(\w+) \{ (.*?) \}")


class GraphTransport:
    """Answers the harvest queries from an in-memory triple list.

    Triples are (subject, predicate, object) with predicate "rdf:type" for
    class membership and "owl:sameAs" for external links.  ``row_cap``
    emulates a server-side row limit; ``signal_truncation`` marks capped
    responses the way a self-aware endpoint would.
    """

    def __init__(
        self,
        triples,
        row_cap: int | None = None,
        signal_truncation: bool = False,
        fail_sameas: bool = False,
    ) -> None:
        self.triples = list(triples)
        self.row_cap = row_cap
        self.signal_truncation = signal_truncation
        self.fail_sameas = fail_sameas
        self.queries: list[str] = []

    def select(self, url: str, query: str, timeout: float) -> SparqlResult:
        self.queries.append(query)
        rows = self._answer(query)
        truncated = False
        # The cap models a server-side row limit on unrestricted grouped
        # queries; LIMIT-ed partition pages stay under it by construction.
        is_direct = query in (CLASS_COUNT_QUERY, PROPERTY_COUNT_QUERY, SAMEAS_HOST_QUERY)
        if is_direct and self.row_cap is not None and len(rows) > self.row_cap:
            rows = rows[: self.row_cap]
            truncated = self.signal_truncation
        return SparqlResult(rows=rows, truncated=truncated)

    def _grouped(self, pairs, var):
        counts = Counter(pairs)
        return [
            {var: key, "count": str(count)} for key, count in sorted(counts.items())
        ]

    def _answer(self, query: str):
        if query == CLASS_COUNT_QUERY:
            return self._grouped(
                [o for _, p, o in self.triples if p == "rdf:type"], "class"
            )
        if query == PROPERTY_COUNT_QUERY:
            return self._grouped([p for _, p, _ in self.triples], "p")
        if query == SAMEAS_HOST_QUERY:
            if self.fail_sameas:
                raise EndpointError("sameAs pattern unsupported", status=400)
            hosts = []
            for _, p, o in self.triples:
                if p != "owl:sameAs":
                    continue
                after = o.split("//", 1)[1] if "//" in o else ""
                hosts.append(after.split("/", 1)[0] if "/" in after else "")
            return self._grouped(hosts, "hostname")
        match = _ENUM_RE.fullmatch(query)
        if match:
            var, pattern, limit, offset = match.groups()
            if pattern == "?s a ?class":
                keys = sorted({o for _, p, o in self.triples if p == "rdf:type"})
            else:
                keys = sorted({p for _, p, _ in self.triples})
            page = keys[int(offset) : int(offset) + int(limit)]
            return [{var: key} for key in page]
        match = _BATCH_RE.search(query)
        if match:
            var, values = match.groups()
            wanted = {uri.strip("<>") for uri in values.split()}
            if var == "class":
                pairs = [o for _, p, o in self.triples if p == "rdf:type" and o in wanted]
            else:
                pairs = [p for _, p, _ in self.triples if p in wanted]
            return self._grouped(pairs, var)
        raise AssertionError(f"fixture cannot answer query: {query!r}")


class FlakyTransport:
    """Fails the first ``failures`` requests, then delegates."""

    def __init__(self, inner, failures: int, error: Exception | None = None) -> None:
        self.inner = inner
        self.remaining = failures
        self.error = error if error is not None else TransportError("connection reset")
        self.attempts = 0

    def select(self, url: str, query: str, timeout: float) -> SparqlResult:
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return self.inner.select(url, query, timeout)


def negated(count: str) -> str:
    return f"-{count}"


class RewrittenCounts:
    """Answers ``query`` with ``rewrite`` applied to every count; other queries unchanged."""

    def __init__(self, inner, query: str, rewrite=negated) -> None:
        self.inner = inner
        self.query = query
        self.rewrite = rewrite

    def select(self, url: str, query: str, timeout: float) -> SparqlResult:
        result = self.inner.select(url, query, timeout)
        if query != self.query:
            return result
        rows = [{**row, "count": self.rewrite(row["count"])} for row in result.rows]
        return SparqlResult(rows=rows, truncated=result.truncated)


PEOPLE_GRAPH = [
    ("x", "rdf:type", "http://example.org/Person"),
    ("y", "rdf:type", "http://example.org/Person"),
    ("z", "rdf:type", "http://example.org/Work"),
]


# --- acceptance reporting -----------------------------------------------------


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, title): release acceptance criterion"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, str] = {}
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" not in report.nodeid:
                continue
            label = dict(report.user_properties or []).get("criterion")
            if not label:
                continue
            # a criterion with any failing test counts as failed
            if outcomes.get(label) != "FAIL":
                outcomes[label] = "FAIL" if outcome == "failed" else "PASS"
    if outcomes:
        terminalreporter.section("acceptance criteria")
        for label in sorted(outcomes):
            terminalreporter.write_line(f"{outcomes[label]:4s}  {label}")
