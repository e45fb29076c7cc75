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
import zlib
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, chain
from xml.etree import ElementTree

from .accumulation import growth_curves
from .accumulation import diversity_growth, vocabulary_growth  # noqa: F401  perfbench/spans.py wraps them here
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

# Subfield codes whose text belongs to a subject heading: the base term $a
# and the subdivisions $x/$y/$z/$v.
_HEADING_CODES = frozenset("axyzv")
_AUTHOR_TAGS = frozenset(AUTHOR_FIELDS)
# A MARC record element has no namespace or the MARCXML one; other "record"
# elements, such as OAI-PMH wrappers, are not read.
_MARC_RECORD_TAGS = frozenset({"record", "{http://www.loc.gov/MARC21/slim}record"})


def _normalize(text: str) -> str:
    """Trim, collapse internal whitespace, strip trailing punctuation."""
    return " ".join(text.split()).rstrip(" ,;:/.")


@dataclass(frozen=True)
class SubjectHeading:
    """Compound subject descriptor split into its subdivision texts, in order.

    ``structured`` records which path produced the split: MARC subfields or
    string-splitting on the ``--`` delimiter.
    """

    texts: tuple[str, ...]
    structured: bool = False

    @property
    def descriptor(self) -> str:
        return "--".join(self.texts)


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
    """Split a plain descriptor on the ``--`` delimiter into its texts."""
    texts = tuple(p for p in (part.strip() for part in descriptor.split("--")) if p)
    if not texts:
        raise ValueError("empty subject descriptor")
    return SubjectHeading(texts)


def heading_from_subfields(pairs: Iterable[tuple[str, str]]) -> SubjectHeading | None:
    """Build a heading from MARC (subfield code, text) pairs in field order.

    Its texts are those of $a and $x/$y/$z/$v; other subfields (authority
    links, source codes) are ignored, and a lone ``--``-joined text is split.
    Returns None when no usable text remains.
    """
    texts: list[str] = []
    for code, raw in pairs:
        if code in _HEADING_CODES:
            text = _normalize(raw)
            if text:
                texts.append(text)
    if not texts:
        return None
    if len(texts) == 1 and "--" in texts[0]:
        # Pre-joined descriptor in one subfield; delimiters alone make no heading.
        try:
            return split_heading(texts[0])
        except ValueError:
            return None
    return SubjectHeading(tuple(texts), structured=True)


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
                heading = heading_from_subfields(pairs)
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
        try:
            parser.feed(data)
        except LookupError as exc:  # the XML declaration names an unknown encoding
            raise ElementTree.ParseError(exc) from exc
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
    of aborting the stream.  Once it is exhausted, it holds the per-record
    tallies: ``records``, ``skipped``, ``missing_year``, and the headings
    split by subfield (``structured_headings``) or on ``--`` (``split_headings``).
    """

    def __init__(self, sources: Iterable, extended_subjects: bool = False) -> None:
        self._sources = list(sources)
        self._subject_fields = frozenset(
            EXTENDED_SUBJECT_FIELDS if extended_subjects else SUBJECT_FIELDS
        )
        self.records = 0
        self.skipped = 0
        self.missing_year = 0
        self.structured_headings = 0
        self.split_headings = 0
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
            except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # cut or damaged .gz
                raise ValueError(f"{name}: bad gzip data: {exc}") from exc
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
            self.missing_year += view.entry_year is None
            self.structured_headings += sum(h.structured for h in view.headings)
            self.split_headings += sum(not h.structured for h in view.headings)
        # Frees the fields of a record that stays attached: one inside
        # another record, or the last one of a container.
        record.clear()
        return view

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
    """Per-year cumulative richness and diversity of one catalog facet, and its event total."""

    rows: tuple[tuple[int, int, float], ...]  # (year, cum_richness, cum_diversity)
    total_events: int

    @property
    def mu(self) -> float:
        """Mean number of items per facet value: total events / final richness."""
        return self.total_events / self.rows[-1][1]


def facet_series(
    records: Iterable[MarcView], facet: str, order: float = 1.0
) -> FacetSeries:
    """Cumulative richness/diversity of a facet, bucketed by entry year.

    Each record contributes one event per facet value; records without a
    decodable entry year are excluded (a ``RecordStream`` counts them).
    Raises ``ValueError`` for an unknown facet, before reading any record,
    and when no record carries a year.
    """
    if facet not in FACETS:
        raise ValueError(f"unknown facet {facet!r}; expected one of {FACETS}")
    order = _check_order(order)
    # Per-year label counts in first-arrival order.  Checkpoints fall only at
    # year ends, so expanding each bucket in turn gives every checkpoint the
    # same counts and label ids as the whole event list in year order.
    buckets: defaultdict[int, Counter[str]] = defaultdict(Counter)
    for view in records:
        if view.entry_year is None:
            continue
        values = _facet_values(view, facet)
        if values:
            buckets[view.entry_year].update(values)
    if not buckets:
        raise ValueError(f"no records with a catalog-entry year carry facet {facet!r}")

    years = sorted(buckets)
    ends = list(accumulate(buckets[year].total() for year in years))
    events = chain.from_iterable(buckets[year].elements() for year in years)
    rich_curve, div_curve = growth_curves(events, ends, order)
    rows = tuple(
        (year, int(rich), div)
        for year, (_, rich), (_, div) in zip(years, rich_curve.points, div_curve.points)
    )
    return FacetSeries(rows=rows, total_events=ends[-1])
