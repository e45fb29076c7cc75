"""MARCXML parsing and cumulative facet series for catalog records.

Records are reduced to a normalized view (id, catalog-entry year, author
names, subject headings); facet series accumulate richness and diversity of
one facet per entry year.  Authors come from the 100/110/111 main entries
plus the 700/710/711 added entries; subjects from 650, optionally extended
with 600/610/651.  Author identity is the normalized name string, with no
authority resolution.
"""

from __future__ import annotations

import gzip
import logging
import os
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, chain
from xml.etree import ElementTree

from .accumulation import CheckpointSchedule, diversity_growth, vocabulary_growth
from .diversity import _check_order

__all__ = [
    "SubjectHeading",
    "MarcView",
    "FacetSeries",
    "RecordStream",
    "parse_records",
    "entry_year",
    "split_heading",
    "heading_from_subfields",
    "facet_series",
    "FACETS",
]

logger = logging.getLogger(__name__)

AUTHOR_FIELDS = ("100", "110", "111", "700", "710", "711")
SUBJECT_FIELDS = ("650",)
EXTENDED_SUBJECT_FIELDS = ("650", "600", "610", "651")
FACETS = ("authors", "subjects", "subdivisions")

# Subdivision kind by MARC subfield code; $a depends on the field.
_SUBFIELD_KINDS = {"x": "topical", "y": "chronological", "z": "geographical", "v": "form"}
_BASE_KINDS = {"650": "topical", "651": "geographical"}
_AUTHOR_TAGS = frozenset(AUTHOR_FIELDS)
# A MARC record element has no namespace or the MARCXML one; other "record"
# elements, such as OAI-PMH wrappers, are not read.
_MARC_RECORD_TAGS = frozenset({"record", "{http://www.loc.gov/MARC21/slim}record"})


def _normalize(text: str) -> str:
    """Trim, collapse internal whitespace, strip trailing punctuation."""
    return " ".join(text.split()).rstrip(" ,;:/.")


@dataclass(frozen=True)
class SubjectHeading:
    """Compound subject descriptor split into ordered subdivisions.

    ``structured`` records which path produced the split: MARC subfields or
    string-splitting on the ``--`` delimiter.
    """

    subdivisions: tuple[tuple[str, str], ...]
    structured: bool = False

    @property
    def descriptor(self) -> str:
        return "--".join(text for _, text in self.subdivisions)

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(text for _, text in self.subdivisions)


@dataclass(frozen=True)
class MarcView:
    """Normalized view of one bibliographic record."""

    record_id: str
    entry_year: int | None
    authors: tuple[str, ...]
    headings: tuple[SubjectHeading, ...]


def entry_year(field_008: str | None) -> int | None:
    """Year a record entered the catalog, from 008/00-05 (YYMMDD).

    Century pivot: YY >= 70 reads as 19YY, otherwise 20YY.  Undecodable
    fields yield None.
    """
    if field_008 is None or len(field_008) < 6 or not field_008[:6].isdigit():
        return None
    yy = int(field_008[:2])
    return 1900 + yy if yy >= 70 else 2000 + yy


def split_heading(descriptor: str) -> SubjectHeading:
    """Split a plain descriptor on the ``--`` delimiter.

    Without subfield structure the subdivision kinds are unknown and tagged
    ``other``.
    """
    parts = [p for p in (part.strip() for part in descriptor.split("--")) if p]
    if not parts:
        raise ValueError("empty subject descriptor")
    return SubjectHeading(
        subdivisions=tuple(("other", p) for p in parts), structured=False
    )


def heading_from_subfields(
    pairs: Iterable[tuple[str, str]], tag: str = "650"
) -> SubjectHeading | None:
    """Build a heading from MARC (subfield code, text) pairs in field order.

    $a carries the base term, $x/$y/$z/$v the typed subdivisions; other
    subfields (authority links, source codes) are ignored.  Returns None
    when no usable text remains.
    """
    subdivisions: list[tuple[str, str]] = []
    for code, raw in pairs:
        text = _normalize(raw)
        if not text:
            continue
        if code == "a":
            subdivisions.append((_BASE_KINDS.get(tag, "other"), text))
        elif code in _SUBFIELD_KINDS:
            subdivisions.append((_SUBFIELD_KINDS[code], text))
    if not subdivisions:
        return None
    if len(subdivisions) == 1 and "--" in subdivisions[0][1]:
        # Pre-joined descriptor stored in a single subfield.
        return split_heading(subdivisions[0][1])
    return SubjectHeading(subdivisions=tuple(subdivisions), structured=True)


class _LocalNames(dict):
    """Memo of element tag -> local name, without the ``{namespace}`` part."""

    def __missing__(self, tag: str) -> str:
        name = self[tag] = tag.rpartition("}")[2]
        return name


def _record_to_view(
    record: ElementTree.Element, subject_fields: frozenset[str], names: _LocalNames
) -> MarcView:
    record_id = None
    field_008 = None
    authors: list[str] = []
    headings: list[SubjectHeading] = []

    for child in record:
        name = names[child.tag]
        if name == "controlfield":
            tag = child.get("tag")
            if tag == "001" and child.text:
                record_id = child.text.strip()
            elif tag == "008" and child.text:
                field_008 = child.text
        elif name == "datafield":
            tag = child.get("tag") or ""
            if tag in _AUTHOR_TAGS:
                for sf in child:
                    if sf.get("code") == "a" and names[sf.tag] == "subfield":
                        name_text = _normalize(sf.text or "")
                        if name_text:
                            authors.append(name_text)
            elif tag in subject_fields:
                pairs = [(sf.get("code") or "", sf.text or "")
                         for sf in child if names[sf.tag] == "subfield"]
                heading = heading_from_subfields(pairs, tag)
                if heading is not None:
                    headings.append(heading)

    if not record_id:
        raise ValueError("record has no 001 control number")
    return MarcView(
        record_id=record_id,
        entry_year=entry_year(field_008),
        authors=tuple(authors),
        headings=tuple(headings),
    )


def _container(
    root: ElementTree.Element, elem: ElementTree.Element
) -> ElementTree.Element | None:
    """The parent of ``elem``, the element that has just started.

    The open elements form the rightmost path of the tree and the newest
    one ends it.  None when that path no longer reaches ``elem``, because an
    enclosing record was already read and cleared.
    """
    parent = root
    while len(parent):
        last = parent[-1]
        if last is elem:
            return parent
        parent = last
    return None


def _start_events(handle) -> Iterator[tuple[str, ElementTree.Element]]:
    """Start events of the document in ``handle``, as ``iterparse`` gives them.

    The iterator ``iterparse`` returns is a reference cycle that keeps its
    parser until a garbage collection; this generator frees it when dropped.
    """
    parser = ElementTree.XMLPullParser(events=("start",))
    while data := handle.read(16 * 1024):  # the chunk size iterparse reads
        parser.feed(data)
        yield from parser.read_events()
    parser.close()
    yield from parser.read_events()


def _open(source):
    """(binary handle, name for messages) of a path or file-like source."""
    if hasattr(source, "read"):
        return source, getattr(source, "name", "<stream>")
    path = os.fsdecode(source)
    return (gzip.open if path.endswith(".gz") else open)(path, "rb"), path


class RecordStream(Iterator[MarcView]):
    """Iterator over the records of one or more MARCXML files.

    Structurally invalid records are skipped with a counted warning instead
    of aborting the stream; ``records`` and ``skipped`` are valid once the
    stream is exhausted.
    """

    def __init__(self, sources: Iterable, extended_subjects: bool = False) -> None:
        self._sources = list(sources)
        self._subject_fields = frozenset(
            EXTENDED_SUBJECT_FIELDS if extended_subjects else SUBJECT_FIELDS
        )
        self.records = 0
        self.skipped = 0
        self._names = _LocalNames()
        self._iter = self._walk()

    def _walk(self) -> Iterator[MarcView]:
        # Start events only: a record is complete once the next "record"
        # element starts, MARC or not (or the document ends).  Each new one's
        # container is then emptied, which drops the finished records, so
        # memory stays flat however many records a file holds.
        names = self._names
        for source in self._sources:
            handle, name = _open(source)
            try:
                events = _start_events(handle)
                _, root = next(events)
                pending = root if root.tag in _MARC_RECORD_TAGS else None
                for _, elem in events:
                    if names[elem.tag] == "record":
                        if pending is not None and (view := self._read(pending)):
                            yield view
                        if (container := _container(root, elem)) is not None:
                            del container[:]
                        pending = elem if elem.tag in _MARC_RECORD_TAGS else None
                if pending is not None and (view := self._read(pending)):
                    yield view
            except ElementTree.ParseError as exc:
                # ParseError is a SyntaxError; callers handle malformed input
                # as ValueError.
                raise ValueError(f"{name}: malformed MARCXML: {exc}") from exc
            finally:
                if handle is not source:
                    handle.close()

    def _read(self, record: ElementTree.Element) -> MarcView | None:
        try:
            view = _record_to_view(record, self._subject_fields, self._names)
        except ValueError as exc:
            self.skipped += 1
            logger.warning("skipping record: %s", exc)
            view = None
        else:
            self.records += 1
        # Frees the fields of a record that stays attached: one inside
        # another record, or the last one of a container.
        record.clear()
        return view

    def __iter__(self) -> RecordStream:
        return self

    def __next__(self) -> MarcView:
        return next(self._iter)


def parse_records(sources, extended_subjects: bool = False) -> RecordStream:
    """Stream MarcViews from MARCXML paths or file-like objects.

    Accepts a single source or a sequence; a path may be ``str``, ``bytes``
    or ``os.PathLike``.  ``.gz`` paths are decompressed transparently.
    """
    if isinstance(sources, (str, bytes, os.PathLike)) or hasattr(sources, "read"):
        sources = [sources]
    return RecordStream(sources, extended_subjects=extended_subjects)


def _facet_values(view: MarcView, facet: str) -> list[str]:
    if facet == "authors":
        return list(view.authors)
    if facet == "subjects":
        return [h.descriptor for h in view.headings]
    return [text for h in view.headings for text in h.texts]  # subdivisions


@dataclass(frozen=True)
class FacetSeries:
    """Per-year cumulative richness and diversity of one catalog facet."""

    facet: str
    order: float
    rows: tuple[tuple[int, int, float], ...]  # (year, cum_richness, cum_diversity)
    total_events: int
    missing_year: int = 0
    structured_headings: int = 0
    split_headings: int = 0

    @property
    def mu(self) -> float:
        """Mean number of items per facet value: total events / final richness."""
        return self.total_events / self.rows[-1][1]

    def to_csv(self) -> str:
        lines = ["year,cum_richness,cum_diversity"]
        for year, rich, div in self.rows:
            lines.append(f"{year},{rich},{div:.4f}")
        return "\n".join(lines) + "\n"


def facet_series(
    records: Iterable[MarcView], facet: str, order: float = 1.0
) -> FacetSeries:
    """Cumulative richness/diversity of a facet, bucketed by entry year.

    Each record contributes one event per facet value; records without a
    decodable entry year are excluded and counted.  Raises ``ValueError``
    for an unknown facet, before reading any record, and when no record
    carries a year.
    """
    if facet not in FACETS:
        raise ValueError(f"unknown facet {facet!r}; expected one of {FACETS}")
    order = _check_order(order)
    # Per-year label counts in first-arrival order.  Checkpoints fall only at
    # year ends, so expanding each bucket in turn gives every checkpoint the
    # same counts and label ids as the whole event list in year order.
    buckets: defaultdict[int, Counter[str]] = defaultdict(Counter)
    missing = structured = split = 0
    for view in records:
        for h in view.headings:
            if h.structured:
                structured += 1
            else:
                split += 1
        if view.entry_year is None:
            missing += 1
            continue
        values = _facet_values(view, facet)
        if values:
            buckets[view.entry_year].update(values)
    if not buckets:
        raise ValueError(f"no records with a catalog-entry year carry facet {facet!r}")

    years = sorted(buckets)
    ends = list(accumulate(buckets[year].total() for year in years))
    schedule = CheckpointSchedule.explicit(ends)

    def events() -> Iterator[str]:
        return chain.from_iterable(buckets[year].elements() for year in years)

    rich_curve = vocabulary_growth(events(), schedule)
    div_curve = diversity_growth(events(), schedule, order)
    rows = tuple(
        (year, int(rich), div)
        for year, (_, rich), (_, div) in zip(years, rich_curve.points, div_curve.points)
    )
    return FacetSeries(
        facet=facet,
        order=order,
        rows=rows,
        total_events=ends[-1],
        missing_year=missing,
        structured_headings=structured,
        split_headings=split,
    )
