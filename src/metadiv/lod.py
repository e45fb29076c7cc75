"""SPARQL harvesting of class/property/sameAs usage and diversity profiles.

Each endpoint is queried for the number of resources per class, the number
of triples per property, and the number of owl:sameAs links per external
hostname.  When an endpoint truncates result sets or times out on the
grouped query, retrieval falls back to a page loop: each page of distinct
keys is counted in one VALUES batch before the next page is requested.
Answer rows, direct or partitioned, are counted as they arrive, so a
harvest holds one page of rows besides the counts.  Every harvester takes
one ``SparqlClient``, which holds the endpoint's config and transport; its
requests are strictly sequential and separated by a politeness delay.
``metadiv lod`` harvests the endpoints of a roster concurrently, each
through its own client in a pool thread, so no endpoint ever has more than
one request in flight.  The default transport, ``HttpTransport``, speaks
the SPARQL 1.1 Protocol through the standard library's urllib.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from threading import TIMEOUT_MAX
from typing import NamedTuple, Protocol
from urllib.parse import urlencode, urlsplit

from .diversity import FrequencyDistribution, hill_diversity, richness

__all__ = [
    "CLASS_COUNT_QUERY",
    "PROPERTY_COUNT_QUERY",
    "SAMEAS_HOST_QUERY",
    "EndpointConfig",
    "LodProfile",
    "DerivedIndices",
    "HarvestError",
    "TransportError",
    "QueryTimeout",
    "EndpointError",
    "ProtocolError",
    "SparqlResult",
    "SparqlTransport",
    "HttpTransport",
    "SparqlClient",
    "class_counts",
    "property_counts",
    "sameas_host_counts",
    "profile",
    "load_roster",
    "load_published_profiles",
]

logger = logging.getLogger(__name__)

# Grouped count of resources per class.  The text is frozen verbatim,
# whitespace included: endpoints receive exactly these bytes.
CLASS_COUNT_QUERY = (
    "SELECT ?class (COUNT(?s) AS ?count)\n"
    "WHERE {\n"
    "    ?s a ?class \n"
    "}\n"
    "GROUP BY ?class"
)

# Property analogue of the class query: counts triples per predicate.
PROPERTY_COUNT_QUERY = (
    "SELECT ?p (COUNT(*) AS ?count)\n"
    "WHERE {\n"
    "    ?s ?p ?o \n"
    "}\n"
    "GROUP BY ?p"
)

# Grouped count of owl:sameAs links per external hostname; the hostname is
# the substring of the target URI between "//" and the following "/".
SAMEAS_HOST_QUERY = (
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

MAX_ATTEMPTS = 3
BACKOFF_BASE_SECONDS = 0.5
_GET_QUERY_LIMIT = 1500  # longer queries go by POST


class HarvestError(Exception):
    """Base class for harvesting failures."""

    retryable = False


class TransportError(HarvestError):
    """Network-level failure (connection refused, reset, DNS)."""

    retryable = True


class QueryTimeout(TransportError):
    """The endpoint did not answer within the configured timeout.

    On the direct grouped query this triggers the partitioned fallback
    instead of a retry.
    """

    retryable = False


class EndpointError(HarvestError):
    """HTTP non-success response from the endpoint."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retryable = status is not None and status >= 500


class ProtocolError(HarvestError):
    """The endpoint answered with something other than SPARQL JSON results."""


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings for one SPARQL endpoint.

    ``page_size`` must not exceed the endpoint's own row cap, or a capped
    direct answer or enumeration page looks complete.
    """

    name: str
    url: str
    page_size: int = 10_000
    timeout: float = 60.0
    delay_ms: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):  # it is printed, and CSV-quoted, as a string
            raise ValueError(f"name must be a string, got {self.name!r}")
        parts = urlsplit(str(self.url))
        if not (parts.scheme in ("http", "https") and parts.hostname and str(self.url).isascii()):
            raise ValueError(f"url must be an ASCII http(s) URL with a host, got {self.url!r}")
        if isinstance(self.page_size, (bool, float)) or self.page_size < 1:
            raise ValueError(f"page size must be an integer >= 1, got {self.page_size!r}")
        # A longer socket timeout overflows the platform's time_t.  time.sleep
        # adds its delay to the monotonic clock first, so half of that bound
        # leaves room for any uptime.
        if not 0.0 < self.timeout <= TIMEOUT_MAX:  # also rejects nan
            raise ValueError(f"timeout must be > 0 and at most {TIMEOUT_MAX:.0f} s, "
                             f"got {self.timeout}")
        if not 0 <= self.delay_ms <= TIMEOUT_MAX * 500:
            raise ValueError(f"delay_ms must be >= 0 and at most {TIMEOUT_MAX * 500:.0f}, "
                             f"got {self.delay_ms}")


@dataclass
class SparqlResult:
    """Rows of a SELECT response, as variable -> plain string value maps.

    ``truncated`` marks responses the transport knows to be incomplete
    (for example a server-side row cap it can detect).
    """

    rows: list[dict[str, str]]
    truncated: bool = False


class SparqlTransport(Protocol):
    """Sends one SELECT query to an endpoint URL and returns its rows.

    ``metadiv lod`` shares one injected transport among the endpoints of a
    roster, so ``select`` may be called from several threads at once, but
    never twice at once for one endpoint: each ``SparqlClient`` waits for
    an answer before it sends the next query.  Two roster entries with one
    URL are two endpoints.
    """

    def select(self, url: str, query: str, timeout: float) -> SparqlResult: ...


class HttpTransport:
    """SPARQL Protocol over HTTP with sparql-results+json responses.

    Short queries travel as GET parameters, long ones (partitioned VALUES
    batches) as form-encoded POST.  The proxy environment variables are read
    when the transport is made; gzip answers are accepted.  Each request
    opens its own connection, and TLS is checked against the system CA store.
    """

    def __init__(self) -> None:
        import urllib.request

        # not urlopen: its shared opener reads the proxy variables only once
        self._opener = urllib.request.build_opener()

    def select(self, url: str, query: str, timeout: float) -> SparqlResult:
        import zlib
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import Request

        form = urlencode({"query": query})
        headers = {"Accept": "application/sparql-results+json", "Accept-Encoding": "gzip"}
        if len(query) <= _GET_QUERY_LIMIT:
            request = Request(url + ("&" if "?" in url else "?") + form, headers=headers)
        else:
            request = Request(url, data=form.encode(), headers=headers)
        try:
            with self._opener.open(request, timeout=timeout) as response:
                status, body = response.status, response.read()
                if status == 200 and response.headers.get("Content-Encoding") == "gzip":
                    body = zlib.decompress(body, wbits=31)
        except HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, HTTPException, zlib.error) as exc:
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise QueryTimeout(f"{url}: no answer within {timeout}s") from exc
            raise TransportError(f"{url}: {exc}") from exc
        if status != 200:
            raise EndpointError(f"{url}: HTTP {status}", status=status)
        try:
            bindings = json.loads(body)["results"]["bindings"]
            rows = [
                {var: cell["value"] for var, cell in binding.items()}
                for binding in bindings
            ]
            if odd := [v for row in rows for v in row.values() if not isinstance(v, str)]:
                raise TypeError(f"value {odd[0]!r} is not a string")  # SPARQL results JSON §3.2.2
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"{url}: malformed SPARQL results: {exc}") from exc
        return SparqlResult(rows=rows)


class SparqlClient:
    """Sequential, rate-limited query runner for one endpoint.

    Retries retryable failures up to MAX_ATTEMPTS with exponential backoff
    and sleeps the politeness delay between consecutive requests.  Once
    ``stopped`` is set, ``select`` raises ``HarvestError`` and sends nothing;
    a request in flight, and a politeness or backoff sleep begun, finish first.
    """

    def __init__(
        self,
        cfg: EndpointConfig,
        transport: SparqlTransport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.cfg = cfg
        self.transport = transport if transport is not None else HttpTransport()
        self._sleep = sleep
        self._requests_sent = 0
        self.stopped = False

    def select(self, query: str) -> SparqlResult:
        last_error: HarvestError | None = None
        for attempt in range(MAX_ATTEMPTS):
            if self._requests_sent > 0 and self.cfg.delay_ms > 0:
                self._sleep(self.cfg.delay_ms / 1000.0)
            if attempt > 0:
                self._sleep(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
            if self.stopped:
                raise HarvestError(f"{self.cfg.url}: harvest stopped")
            self._requests_sent += 1
            try:
                return self.transport.select(self.cfg.url, query, self.cfg.timeout)
            except HarvestError as exc:
                if not exc.retryable:
                    raise
                logger.warning("%s: attempt %d of %d failed: %s",
                               self.cfg.url, attempt + 1, MAX_ATTEMPTS, exc)
                last_error = exc
        raise TransportError(
            f"{self.cfg.url}: giving up after {MAX_ATTEMPTS} attempts: {last_error}"
        ) from last_error


def _counts_from_rows(
    rows: Iterable[dict[str, str]], key_var: str
) -> FrequencyDistribution:
    counts: dict[str, int] = {}
    total = 0  # kept in float range: probabilities() divides by float(total)
    for row in rows:
        try:
            key = row[key_var]
            count = int(row["count"])
            if count < 0:
                raise ValueError("negative count")
            if (total := total + count) > sys.float_info.max:
                raise ValueError("the counts add up past float range")
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"malformed count row {row!r}: {exc}") from exc
        if key != "" and count:  # zero counts are not stored; "" is a sameAs target with no //host/
            counts[key] = counts.get(key, 0) + count
    return FrequencyDistribution(counts)


# Partitioned retrieval, shared by the class and property harvests: each page
# of keys is counted in one VALUES batch before the next page is requested.
_ENUM = (
    "SELECT DISTINCT ?{key} WHERE {{ {pattern} }} "
    "ORDER BY ?{key} LIMIT {limit} OFFSET {offset}"
)
_BATCH = (
    "SELECT ?{key} ({count} AS ?count) "
    "WHERE {{ VALUES ?{key} {{ {values} }} {pattern} }} GROUP BY ?{key}"
)


def _grouped_rows(
    client: SparqlClient, direct_query: str, key: str, pattern: str, count: str
) -> Iterator[dict[str, str]]:
    """Rows of ``direct_query`` if complete, else of partitioned ``pattern`` queries."""
    page = client.cfg.page_size
    try:
        result = client.select(direct_query)
        if not result.truncated and len(result.rows) < page:
            yield from result.rows
            return
        del result  # a capped answer is not kept through the page loop
    except QueryTimeout:
        pass
    for offset in range(0, sys.maxsize, page):
        key_rows = client.select(_ENUM.format(key=key, pattern=pattern, limit=page,
                                              offset=offset)).rows
        if malformed := [row for row in key_rows if key not in row]:
            raise ProtocolError(f"malformed key row {malformed[0]!r}")
        if key_rows:
            values = " ".join(f"<{row[key]}>" for row in key_rows)
            query = _BATCH.format(key=key, count=count, values=values, pattern=pattern)
            yield from client.select(query).rows
        if len(key_rows) < page:
            return


def class_counts(client: SparqlClient) -> FrequencyDistribution:
    """Resources per class, with partitioned fallback on truncation/timeout."""
    rows = _grouped_rows(client, CLASS_COUNT_QUERY, "class", "?s a ?class", "COUNT(?s)")
    return _counts_from_rows(rows, "class")


def property_counts(client: SparqlClient) -> FrequencyDistribution:
    """Triples per predicate, with the same partitioned fallback."""
    rows = _grouped_rows(client, PROPERTY_COUNT_QUERY, "p", "?s ?p ?o", "COUNT(*)")
    return _counts_from_rows(rows, "p")


def sameas_host_counts(client: SparqlClient) -> FrequencyDistribution:
    """owl:sameAs links per external hostname, as extracted by the endpoint."""
    return _counts_from_rows(client.select(SAMEAS_HOST_QUERY).rows, "hostname")


class DerivedIndices(NamedTuple):
    diversity: float
    richness: int
    ratio: float


def _derive(dist: FrequencyDistribution) -> DerivedIndices:
    r = richness(dist)
    if r == 0:
        return DerivedIndices(diversity=0.0, richness=0, ratio=0.0)
    d = hill_diversity(dist, 1.0)
    return DerivedIndices(diversity=d, richness=r, ratio=d / r)


def _pinned_time() -> datetime | None:
    """The time SOURCE_DATE_EPOCH pins for reproducible output, or None if it is unset."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:  # not an integer, past the platform's time_t, or outside years 1-9999
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(f"SOURCE_DATE_EPOCH {epoch!r} is not a usable Unix time: {exc}") from exc


@dataclass
class LodProfile:
    """Per-endpoint usage distributions and their diversity summary.

    ``complete`` is False when the optional sameAs harvest failed; class and
    property harvests are mandatory.  ``retrieved_at`` keeps endpoint
    staleness visible.
    """

    endpoint: str
    classes: FrequencyDistribution
    properties: FrequencyDistribution
    sameas_hosts: FrequencyDistribution
    retrieved_at: str
    complete: bool = True

    def derived(self) -> dict[str, DerivedIndices]:
        return {"class": _derive(self.classes), "property": _derive(self.properties)}


def profile(client: SparqlClient) -> LodProfile:
    """Harvest one endpoint through ``client`` and derive its diversity summary.

    Every request goes through the one client, so its politeness delay
    separates all of them.  A failing sameAs harvest yields a partial
    profile (complete=False); class or property failures propagate.
    A ``SOURCE_DATE_EPOCH`` that gives no time raises ``ValueError`` before
    the first request.
    """
    stamp = _pinned_time()
    classes = class_counts(client)
    properties = property_counts(client)
    complete = True
    try:
        sameas = sameas_host_counts(client)
    except HarvestError:
        sameas = FrequencyDistribution()
        complete = False
    return LodProfile(
        endpoint=client.cfg.name,
        classes=classes,
        properties=properties,
        sameas_hosts=sameas,
        retrieved_at=(stamp or datetime.now(tz=timezone.utc)).replace(microsecond=0).isoformat(),
        complete=complete,
    )


_ROSTER_OPTIONS = {"page_size": int, "timeout": float, "delay_ms": int}


def load_roster(path=None) -> list[EndpointConfig]:
    """Endpoint roster: the shipped library list, or a user JSON file.

    Each entry needs a string ``name`` that no other entry has and a ``url``;
    ``page_size``, ``timeout`` and ``delay_ms`` override the
    ``EndpointConfig`` defaults.
    """
    if path is None:
        source = "shipped roster"
        text = resources.files("metadiv").joinpath("data/endpoints.json").read_text("utf-8")
    else:
        source = f"roster {path}"
        with open(path, encoding="utf-8") as f:
            text = f.read()
    try:
        entries = json.loads(text)
    except ValueError as exc:  # bad JSON, or a number past int's digit limit
        raise ValueError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError(f"{source}: expected a JSON list of endpoints")
    roster = []
    first: dict[str, int] = {}  # name -> index of the entry that has it
    for index, entry in enumerate(entries):
        try:
            options = {k: cast(entry[k]) for k, cast in _ROSTER_OPTIONS.items() if k in entry}
            for k, value in options.items():
                raw = entry[k]  # a string must parse, a number convert exactly
                exact = isinstance(raw, (str, type(value))) or raw == value
                if isinstance(raw, bool) or not exact:
                    raise ValueError(f"{k} {raw!r} is not exactly a {type(value).__name__}")
            if (other := first.setdefault(entry["name"], index)) != index:
                raise ValueError(f"entries {other} and {index} are both named {entry['name']!r}")
            roster.append(EndpointConfig(name=entry["name"], url=entry["url"], **options))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{source}: entry {index} is invalid: {exc!r}") from exc
    return roster


class PublishedProfile(NamedTuple):
    """One endpoint's row of the published snapshot, at its published precision.

    D is rounded to one decimal and R is exact. D/R has two decimals and was
    computed from the unrounded D, so ``round(D / R, 2)`` can differ from the
    D/R column.
    """

    host: str
    class_D: float
    class_R: int
    class_DR: float
    prop_D: float
    prop_R: int
    prop_DR: float


def load_published_profiles() -> list[PublishedProfile]:
    """The shipped snapshot of previously published per-endpoint indices.

    Endpoints drift over time, so these are reference values, not live
    targets. Values are returned as the file holds them; see
    ``PublishedProfile`` for the precision of each column.
    """
    text = (
        resources.files("metadiv")
        .joinpath("data/published_profiles.csv")
        .read_text("utf-8")
    )
    reader = csv.DictReader(io.StringIO(text))
    return [
        PublishedProfile(
            host=row["host"],
            class_D=float(row["class_D"]),
            class_R=int(row["class_R"]),
            class_DR=float(row["class_DR"]),
            prop_D=float(row["prop_D"]),
            prop_R=int(row["prop_R"]),
            prop_DR=float(row["prop_DR"]),
        )
        for row in reader
    ]
