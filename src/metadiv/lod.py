"""SPARQL harvesting of class/property/sameAs usage and diversity profiles.

Each endpoint is queried for the number of resources per class, the number
of triples per property, and the number of owl:sameAs links per external
hostname.  When an endpoint truncates result sets or times out on the
grouped query, retrieval falls back to a partitioned two-phase strategy:
enumerate the distinct keys page by page, then count per key in batches via
VALUES clauses.  Every harvester takes one ``SparqlClient``, which holds the
endpoint's config and transport; its requests are strictly sequential and
separated by a politeness delay.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from typing import NamedTuple, Protocol

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
    "profiles_to_csv",
    "PROFILE_CSV_HEADER",
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

PROFILE_CSV_HEADER = "host,class_D,class_R,class_DR,prop_D,prop_R,prop_DR"

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
    """Connection settings for one SPARQL endpoint."""

    name: str
    url: str
    page_size: int = 10_000
    timeout: float = 60.0
    delay_ms: int = 0

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise ValueError("page size must be >= 1")
        if self.delay_ms < 0:
            raise ValueError("politeness delay must be >= 0")


@dataclass
class SparqlResult:
    """Rows of a SELECT response, as variable -> plain string value maps.

    ``truncated`` marks responses the transport knows to be incomplete
    (for example a server-side row cap it can detect).
    """

    rows: list[dict[str, str]]
    truncated: bool = False


class SparqlTransport(Protocol):
    def select(self, url: str, query: str, timeout: float) -> SparqlResult: ...


class HttpTransport:
    """SPARQL Protocol over HTTP with sparql-results+json responses.

    Short queries travel as GET parameters, long ones (partitioned VALUES
    batches) as form-encoded POST.  Proxy environment variables are honored
    by the underlying session.
    """

    def __init__(self, session=None) -> None:
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def select(self, url: str, query: str, timeout: float) -> SparqlResult:
        import requests

        headers = {"Accept": "application/sparql-results+json"}
        try:
            if len(query) <= _GET_QUERY_LIMIT:
                response = self._session.get(
                    url, params={"query": query}, headers=headers, timeout=timeout
                )
            else:
                response = self._session.post(
                    url, data={"query": query}, headers=headers, timeout=timeout
                )
        except requests.Timeout as exc:
            raise QueryTimeout(f"{url}: no answer within {timeout}s") from exc
        except requests.RequestException as exc:
            raise TransportError(f"{url}: {exc}") from exc
        if response.status_code != 200:
            raise EndpointError(
                f"{url}: HTTP {response.status_code}", status=response.status_code
            )
        try:
            payload = response.json()
            bindings = payload["results"]["bindings"]
            rows = [
                {var: cell["value"] for var, cell in binding.items()}
                for binding in bindings
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"{url}: malformed SPARQL results: {exc}") from exc
        return SparqlResult(rows=rows)


class SparqlClient:
    """Sequential, rate-limited query runner for one endpoint.

    Retries retryable failures up to MAX_ATTEMPTS with exponential backoff
    and sleeps the politeness delay between consecutive requests.
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

    def select(self, query: str) -> SparqlResult:
        last_error: HarvestError | None = None
        for attempt in range(MAX_ATTEMPTS):
            if self._requests_sent > 0 and self.cfg.delay_ms > 0:
                self._sleep(self.cfg.delay_ms / 1000.0)
            if attempt > 0:
                self._sleep(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
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
    pairs = []
    for row in rows:
        try:
            key = row[key_var]
            count = int(row["count"])
            if count < 0:
                raise ValueError("negative count")
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"malformed count row {row!r}: {exc}") from exc
        if key == "":
            continue  # sameAs targets without a //host/ part bind to ""
        pairs.append((key, count))
    return FrequencyDistribution.from_counts(pairs)


def _paginate_keys(client: SparqlClient, enum_template: str, key_var: str) -> list[str]:
    keys: list[str] = []
    offset = 0
    page = client.cfg.page_size
    while True:
        query = enum_template.format(limit=page, offset=offset)
        rows = client.select(query).rows
        for row in rows:
            try:
                keys.append(row[key_var])
            except KeyError as exc:
                raise ProtocolError(f"malformed key row {row!r}") from exc
        if len(rows) < page:
            return keys
        offset += page


def _partitioned_counts(
    client: SparqlClient,
    enum_template: str,
    batch_template: str,
    key_var: str,
) -> FrequencyDistribution:
    keys = _paginate_keys(client, enum_template, key_var)
    page = client.cfg.page_size
    rows: list[dict[str, str]] = []
    for start in range(0, len(keys), page):
        values = " ".join(f"<{key}>" for key in keys[start : start + page])
        rows.extend(client.select(batch_template.format(values=values)).rows)
    return _counts_from_rows(rows, key_var)


def _grouped_with_fallback(
    client: SparqlClient,
    direct_query: str,
    enum_template: str,
    batch_template: str,
    key_var: str,
) -> FrequencyDistribution:
    try:
        result = client.select(direct_query)
        if not result.truncated and len(result.rows) < client.cfg.page_size:
            return _counts_from_rows(result.rows, key_var)
    except QueryTimeout:
        pass
    return _partitioned_counts(client, enum_template, batch_template, key_var)


_CLASS_ENUM = (
    "SELECT DISTINCT ?class WHERE {{ ?s a ?class }} "
    "ORDER BY ?class LIMIT {limit} OFFSET {offset}"
)
_CLASS_BATCH = (
    "SELECT ?class (COUNT(?s) AS ?count) "
    "WHERE {{ VALUES ?class {{ {values} }} ?s a ?class }} GROUP BY ?class"
)
_PROPERTY_ENUM = (
    "SELECT DISTINCT ?p WHERE {{ ?s ?p ?o }} "
    "ORDER BY ?p LIMIT {limit} OFFSET {offset}"
)
_PROPERTY_BATCH = (
    "SELECT ?p (COUNT(*) AS ?count) "
    "WHERE {{ VALUES ?p {{ {values} }} ?s ?p ?o }} GROUP BY ?p"
)


def class_counts(client: SparqlClient) -> FrequencyDistribution:
    """Resources per class, with partitioned fallback on truncation/timeout."""
    return _grouped_with_fallback(
        client, CLASS_COUNT_QUERY, _CLASS_ENUM, _CLASS_BATCH, "class"
    )


def property_counts(client: SparqlClient) -> FrequencyDistribution:
    """Triples per predicate, with the same partitioned fallback."""
    return _grouped_with_fallback(
        client, PROPERTY_COUNT_QUERY, _PROPERTY_ENUM, _PROPERTY_BATCH, "p"
    )


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


def _now_iso() -> str:
    # SOURCE_DATE_EPOCH pins the timestamp for reproducible output.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        stamp = datetime.now(tz=timezone.utc)
    return stamp.replace(microsecond=0).isoformat()


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

    def to_dict(self) -> dict:
        derived = self.derived()
        return {
            "endpoint": self.endpoint,
            "retrieved_at": self.retrieved_at,
            "complete": self.complete,
            "classes": dict(self.classes.counts),
            "properties": dict(self.properties.counts),
            "sameas_hosts": dict(self.sameas_hosts.counts),
            "derived": {
                side: {
                    "D": round(idx.diversity, 4),
                    "R": idx.richness,
                    "DR": round(idx.ratio, 2),
                }
                for side, idx in derived.items()
            },
        }


def profile(client: SparqlClient) -> LodProfile:
    """Harvest one endpoint through ``client`` and derive its diversity summary.

    Every request goes through the one client, so its politeness delay
    separates all of them.  A failing sameAs harvest yields a partial
    profile (complete=False); class or property failures propagate.
    """
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
        retrieved_at=_now_iso(),
        complete=complete,
    )


def profiles_to_csv(profiles: Sequence[LodProfile]) -> str:
    """Summary table, one row per endpoint: D, R and D/R for both sides."""
    lines = [PROFILE_CSV_HEADER]
    for prof in profiles:
        derived = prof.derived()
        cls, prop = derived["class"], derived["property"]
        lines.append(
            f"{prof.endpoint},{cls.diversity:.4f},{cls.richness},{cls.ratio:.2f},"
            f"{prop.diversity:.4f},{prop.richness},{prop.ratio:.2f}"
        )
    return "\n".join(lines) + "\n"


_ROSTER_OPTIONS = {"page_size": int, "timeout": float, "delay_ms": int}


def load_roster(path=None) -> list[EndpointConfig]:
    """Endpoint roster: the shipped library list, or a user JSON file.

    Each entry needs a ``name`` and a ``url``; ``page_size``, ``timeout``
    and ``delay_ms`` override the ``EndpointConfig`` defaults.
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
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError(f"{source}: expected a JSON list of endpoints")
    roster = []
    for index, entry in enumerate(entries):
        try:
            options = {k: cast(entry[k]) for k, cast in _ROSTER_OPTIONS.items() if k in entry}
            roster.append(EndpointConfig(name=entry["name"], url=entry["url"], **options))
        except (KeyError, TypeError, ValueError) as exc:
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
