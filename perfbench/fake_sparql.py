"""In-process fake SPARQL endpoints with precomputed answers.

Each endpoint serves the counts written by ``inputs.write_lod``.  Every
request sleeps a fixed modelled round trip, so harvest wall time tracks the
number of requests as it would against a real endpoint, while the fake's own
CPU cost stays small: direct answers and enumeration rows are built once,
and a ``VALUES`` batch is answered by dictionary look-ups.

Endpoint behaviours: ``direct`` answers grouped queries in full; ``cap``
silently truncates grouped answers to ``row_cap`` rows; ``timeout`` raises
``QueryTimeout`` on the grouped class and property queries.
"""

from __future__ import annotations

import json
import re
import time

from metadiv.lod import QueryTimeout, SparqlResult

ROUND_TRIP_S = 0.005

_SELECT_VAR_RE = re.compile(r"SELECT\s+(?:DISTINCT\s+)?\?(\w+)")
_LIMIT_RE = re.compile(r"LIMIT\s+(\d+)\s+OFFSET\s+(\d+)")
_VALUES_RE = re.compile(r"VALUES\s+\?\w+\s*\{([^}]*)\}")
_IRI_RE = re.compile(r"<([^>]*)>")


class _Endpoint:
    def __init__(self, spec: dict) -> None:
        self.behaviour = spec["behaviour"]
        self.row_cap = spec["row_cap"]
        self.counts = {var: spec[var] for var in ("class", "p", "hostname")}
        self.count_rows = {
            var: {key: {var: key, "count": str(c)} for key, c in counts.items()}
            for var, counts in self.counts.items()
        }
        self.direct_rows = {var: list(rows.values()) for var, rows in self.count_rows.items()}
        self.key_rows = {var: [{var: key} for key in sorted(counts)]
                         for var, counts in self.counts.items()}


class FakeSparql:
    """A ``SparqlTransport`` serving several fake endpoints, keyed by URL.

    Counts requests, rows returned, query bytes and enumeration queries per
    (url, variable); ``tracer``, when set, records one ``lod.transport``
    span per request.
    """

    def __init__(self, answers: dict, round_trip_s: float = ROUND_TRIP_S) -> None:
        self.endpoints = {url: _Endpoint(spec) for url, spec in answers.items()}
        self.round_trip_s = round_trip_s
        self.tracer = None
        self.slept_s = 0.0  # total time in modelled round trips, never reset
        self.reset()

    @classmethod
    def from_file(cls, path: str, round_trip_s: float = ROUND_TRIP_S) -> FakeSparql:
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f), round_trip_s)

    def reset(self) -> None:
        self.requests = 0
        self.rows = 0
        self.query_bytes = 0
        self.enumerations: dict[tuple[str, str], int] = {}

    def select(self, url: str, query: str, timeout: float) -> SparqlResult:
        span = self.tracer.open("lod.transport") if self.tracer is not None else None
        try:
            self.requests += 1
            self.query_bytes += len(query.encode("utf-8"))
            t0 = time.perf_counter()
            time.sleep(self.round_trip_s)
            self.slept_s += time.perf_counter() - t0
            result = self._answer(self.endpoints[url], url, query, timeout)
            self.rows += len(result.rows)
            return result
        finally:
            if span is not None:
                self.tracer.close(span)

    def _answer(self, ep: _Endpoint, url: str, query: str, timeout: float) -> SparqlResult:
        var = _SELECT_VAR_RE.search(query).group(1)
        values = _VALUES_RE.search(query)
        if values is not None:
            table = ep.count_rows[var]
            return SparqlResult(rows=[table[key] for key in _IRI_RE.findall(values.group(1))
                                      if key in table])
        page = _LIMIT_RE.search(query)
        if page is not None:
            self.enumerations[(url, var)] = self.enumerations.get((url, var), 0) + 1
            limit, offset = int(page.group(1)), int(page.group(2))
            return SparqlResult(rows=ep.key_rows[var][offset:offset + limit])
        if ep.behaviour == "timeout" and var != "hostname":
            raise QueryTimeout(f"{url}: no answer within {timeout}s")
        rows = ep.direct_rows[var]
        if ep.behaviour == "cap" and var != "hostname":
            rows = rows[:ep.row_cap]
        return SparqlResult(rows=rows)

    def partitioned_harvests(self) -> int:
        """Harvests (endpoint, variable) that fell back to enumeration."""
        return len(self.enumerations)
