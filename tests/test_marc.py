"""MARCXML parsing, entry-year decoding, heading splits, facet series."""

from __future__ import annotations

import gc
import gzip
import io
import logging
import os
import re
import tracemalloc
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadiv.accumulation import CheckpointSchedule, diversity_growth, vocabulary_growth
from metadiv.diversity import FrequencyDistribution, hill_diversity
from metadiv.marc import (
    EXTENDED_SUBJECT_FIELDS,
    FACETS,
    SUBJECT_FIELDS,
    FacetSeries,
    MarcView,
    SubjectHeading,
    entry_year,
    facet_series,
    heading_from_subfields,
    parse_records,
    split_heading,
)

from .conftest import MARC_NS, marc_collection, marc_record


class TestEntryYear:
    def test_nineteen_eighty_five(self):
        assert entry_year("850315s1985    sp            000 0 spa d") == 1985

    def test_pivot_to_two_thousand(self):
        assert entry_year("200101s2020") == 2020

    def test_pivot_boundary(self):
        assert entry_year("700101") == 1970
        assert entry_year("690101") == 2069

    def test_undecodable(self):
        assert entry_year("xx0101") is None
        assert entry_year("85") is None
        assert entry_year(None) is None


class TestSplitHeading:
    def test_two_part_descriptor(self):
        heading = split_heading("Commerce--History")
        assert heading.texts == ("Commerce", "History")
        assert not heading.structured

    def test_single_subject(self):
        heading = split_heading("Theater")
        assert heading.texts == ("Theater",)

    def test_round_trip(self):
        descriptor = "Spain--History--16th century"
        assert split_heading(descriptor).descriptor == descriptor

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_heading("")


class TestHeadingFromSubfields:
    def test_chronological_subfield(self):
        heading = heading_from_subfields([("a", "Spain"), ("y", "16th century")])
        assert heading.structured
        assert heading.subdivisions == (
            ("topical", "Spain"),
            ("chronological", "16th century"),
        )

    def test_kind_mapping(self):
        heading = heading_from_subfields(
            [("a", "Art"), ("x", "Study"), ("z", "Spain"), ("v", "Exhibitions")]
        )
        assert [kind for kind, _ in heading.subdivisions] == [
            "topical",
            "topical",
            "geographical",
            "form",
        ]

    def test_control_subfields_ignored(self):
        heading = heading_from_subfields([("a", "Art"), ("0", "sh85007461")])
        assert heading.texts == ("Art",)

    def test_joined_descriptor_in_single_subfield_is_split(self):
        heading = heading_from_subfields([("a", "Commerce--History")])
        assert heading.texts == ("Commerce", "History")
        assert not heading.structured

    def test_round_trip(self):
        heading = heading_from_subfields([("a", "Spain"), ("y", "16th century")])
        assert heading.descriptor == "Spain--16th century"
        assert "--".join(heading.texts) == heading.descriptor


class TestParseRecords:
    def test_author_extracted(self):
        xml = marc_collection(
            marc_record("r1", "850315", authors=("Cervantes Saavedra, Miguel de,",))
        )
        views = list(parse_records(io.BytesIO(xml)))
        assert views[0].authors == ("Cervantes Saavedra, Miguel de",)
        assert views[0].entry_year == 1985

    def test_no_author_fields(self):
        xml = marc_collection(marc_record("r1", "850315"))
        views = list(parse_records(io.BytesIO(xml)))
        assert views[0].authors == ()

    def test_added_entries_collected(self):
        xml = marc_collection(
            marc_record("r1", "850315", authors=("Main, Author",), added_authors=("Second, Author",))
        )
        views = list(parse_records(io.BytesIO(xml)))
        assert views[0].authors == ("Main, Author", "Second, Author")

    def test_malformed_record_skipped_with_count(self):
        xml = marc_collection(
            marc_record("r1", "850315", authors=("A",)),
            marc_record(None, "860315", authors=("B",)),  # no 001: invalid
            marc_record("r3", "870315", authors=("C",)),
        )
        stream = parse_records(io.BytesIO(xml))
        views = list(stream)
        assert len(views) == 2
        assert stream.records == 2
        assert stream.skipped == 1

    def test_subjects_extracted(self):
        xml = marc_collection(
            marc_record(
                "r1",
                "850315",
                subjects=((("a", "Commerce"), ("x", "History")),),
            )
        )
        views = list(parse_records(io.BytesIO(xml)))
        assert views[0].headings[0].descriptor == "Commerce--History"

    def test_without_namespace(self):
        xml = marc_collection(marc_record("r1", "850315", authors=("A",)), namespaced=False)
        assert list(parse_records(io.BytesIO(xml)))[0].authors == ("A",)

    def test_gzip_path(self, tmp_path):
        xml = marc_collection(marc_record("r1", "850315", authors=("A",)))
        path = tmp_path / "records.xml.gz"
        path.write_bytes(gzip.compress(xml))
        assert list(parse_records(str(path)))[0].record_id == "r1"

    def test_name_normalization(self):
        xml = marc_collection(
            marc_record("r1", "850315", authors=("  Vega,   Lope de. ",))
        )
        views = list(parse_records(io.BytesIO(xml)))
        assert views[0].authors == ("Vega, Lope de",)

    def test_extended_subject_fields_behind_flag(self):
        record = (
            '<record><controlfield tag="001">r1</controlfield>'
            '<controlfield tag="008">850315</controlfield>'
            '<datafield tag="651" ind1=" " ind2="0">'
            '<subfield code="a">Spain</subfield>'
            '<subfield code="x">History</subfield></datafield></record>'
        )
        xml = marc_collection(record)
        default_views = list(parse_records(io.BytesIO(xml)))
        assert default_views[0].headings == ()  # 651 is off by default
        extended_views = list(parse_records(io.BytesIO(xml), extended_subjects=True))
        heading = extended_views[0].headings[0]
        assert heading.descriptor == "Spain--History"
        assert heading.subdivisions[0] == ("geographical", "Spain")

    @pytest.mark.parametrize("decl", ["", f' xmlns="{MARC_NS}"'], ids=["plain", "marc-ns"])
    def test_oai_pmh_wrappers_are_not_records(self, decl, caplog):
        records = [marc_record(f"r{i}", "850315", authors=("A",)) for i in range(50)]
        stream = parse_records(io.BytesIO(_enveloped(records, "oai", decl=decl)))
        with caplog.at_level(logging.WARNING, logger="metadiv.marc"):
            assert [v.record_id for v in stream] == [f"r{i}" for i in range(50)]
        assert (stream.records, stream.skipped) == (50, 0)
        assert caplog.records == []


class TestSourcePaths:
    def test_path_object(self, tmp_path):
        path = tmp_path / "records.xml"
        path.write_bytes(marc_collection(marc_record("r1", "850315")))
        assert [v.record_id for v in parse_records(path)] == ["r1"]

    def test_bytes_path(self, tmp_path):
        path = tmp_path / "records.xml.gz"
        path.write_bytes(gzip.compress(marc_collection(marc_record("r1", "850315"))))
        assert [v.record_id for v in parse_records(os.fsencode(path))] == ["r1"]

    def test_sequence_of_path_kinds(self, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / f"part{i}.xml"
            path.write_bytes(marc_collection(marc_record(f"r{i}", "850315")))
            paths.append(path)
        sources = [paths[0], os.fsencode(paths[1]), str(paths[2])]
        assert [v.record_id for v in parse_records(sources)] == ["r0", "r1", "r2"]

    def test_malformed_file_named_by_its_path(self, tmp_path):
        path = tmp_path / "truncated.xml"
        path.write_bytes(marc_collection(marc_record("r1", "850315"))[:-20])
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed MARCXML")):
            list(parse_records(os.fsencode(path)))


class TestStreamingMemory:
    @pytest.mark.parametrize("shape", ["collection", "container", "oai"])
    def test_memory_independent_of_catalog_size(self, shape):
        def peak(n_records: int) -> int:
            records = [marc_record(f"r{i:06d}", "850315", authors=(f"Author {i % 97}",),
                                   subjects=((("a", "Art"), ("x", "History")),))
                       for i in range(n_records)]
            data = (marc_collection(*records) if shape == "collection"
                    else _enveloped(records, shape, decl=f' xmlns="{MARC_NS}"'))
            tracemalloc.start()
            try:
                stream = parse_records(io.BytesIO(data))
                assert sum(1 for _ in stream) == n_records
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The end-event walk kept each emptied record attached: about 80
        # bytes a record, 280 KB more for the larger catalog.  Emptying only
        # the document root left the records of an envelope attached.
        small, large = peak(500), peak(4_000)
        assert large <= small + 32 * 1024

    @pytest.mark.parametrize("facet", FACETS)
    def test_facet_series_memory_independent_of_catalog_size(self, facet):
        def peak(n_records: int) -> int:
            # Five years; 31 authors and 13 topics, each one seen in every
            # year by 500 records already.
            data = marc_collection(*(
                marc_record(f"r{i:06d}", f"{80 + i % 5:02d}0315", authors=(f"Author {i % 31}",),
                            subjects=((("a", f"Topic {i % 13}"), ("x", "History")),))
                for i in range(n_records)))
            tracemalloc.start()
            try:
                series = facet_series(parse_records(io.BytesIO(data)), facet)
                assert [year for year, _, _ in series.rows] == [1980, 1981, 1982, 1983, 1984]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The first run at a new size may peak up to ~70 KB higher, from
        # one-off allocations inside the interpreter; the lower of two runs
        # is the steady state.  Keeping one (year, label) event per facet
        # value would add about 490 KB for the larger catalog.
        small, large = (min(peak(n), peak(n)) for n in (500, 4_000))
        assert large <= small + 32 * 1024

    def test_parser_state_freed_without_garbage_collection(self):
        records = [marc_record(f"r{i:06d}", "850315", authors=(f"Author {i % 97}",))
                   for i in range(2_000)]
        data = marc_collection(*records)
        gc.collect()
        gc.disable()
        try:
            stream = parse_records(io.BytesIO(data))
            assert sum(1 for _ in stream) == 2_000
            del stream
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTruncatedCollection:
    """A record is read once the next record starts or the document ends,
    so a parse error between two records loses the one complete before it."""

    def test_error_inside_a_record(self):
        data = marc_collection(marc_record("r1", "850315", authors=("Ann",)),
                               marc_record("r2", "850315"))
        stream = parse_records(io.BytesIO(data[:data.index(b"r2")]))
        views = []
        with pytest.raises(ValueError, match=r"^<stream>: malformed MARCXML: .+: "
                                             r"line 1, column \d+$"):
            views.extend(stream)
        assert views == [MarcView("r1", 1985, ("Ann",), ())]
        assert (stream.records, stream.skipped) == (1, 0)

    def test_error_between_records(self, caplog):
        data = marc_collection(marc_record("r1", "850315"), marc_record(None, "850315"),
                               marc_record("r3", "850315"))
        cut = data.rindex(b"<record>") + len(b"<rec")
        stream = parse_records(io.BytesIO(data[:cut]))
        views = []
        with caplog.at_level(logging.WARNING, logger="metadiv.marc"):
            with pytest.raises(ValueError, match=r"^<stream>: malformed MARCXML: .+: "
                                                 r"line 1, column \d+$"):
                views.extend(stream)
        # The record without 001 was complete but is neither read nor counted.
        assert views == [MarcView("r1", 1985, (), ())]
        assert (stream.records, stream.skipped) == (1, 0)
        assert caplog.records == []


# --- reference: the end-event record walk with per-element namespace
# stripping and regex normalization, as this module read MARCXML before it
# switched to start events; it reads the records in the MARC namespace or in
# none -------------------------------------------------------------------------

_REF_WS_RE = re.compile(r"\s+")


def _ref_normalize(text):
    text = _REF_WS_RE.sub(" ", text.strip())
    return text.rstrip(" ,;:/.")


def _ref_localname(tag):
    return tag.rsplit("}", 1)[-1]


def _ref_heading(pairs, tag):
    kinds = {"x": "topical", "y": "chronological", "z": "geographical", "v": "form"}
    subdivisions = []
    for code, raw in pairs:
        text = _ref_normalize(raw)
        if not text:
            continue
        if code == "a":
            subdivisions.append(({"650": "topical", "651": "geographical"}.get(tag, "other"), text))
        elif code in kinds:
            subdivisions.append((kinds[code], text))
    if not subdivisions:
        return None
    if len(subdivisions) == 1 and "--" in subdivisions[0][1]:
        return split_heading(subdivisions[0][1])
    return SubjectHeading(subdivisions=tuple(subdivisions), structured=True)


def _ref_record_to_view(record, subject_fields):
    record_id = None
    field_008 = None
    authors = []
    headings = []
    for child in record:
        name = _ref_localname(child.tag)
        if name == "controlfield":
            tag = child.get("tag")
            if tag == "001" and child.text:
                record_id = child.text.strip()
            elif tag == "008" and child.text:
                field_008 = child.text
        elif name == "datafield":
            tag = child.get("tag") or ""
            subfields = [
                (sf.get("code") or "", sf.text or "")
                for sf in child
                if _ref_localname(sf.tag) == "subfield"
            ]
            if tag in ("100", "110", "111", "700", "710", "711"):
                for code, text in subfields:
                    if code == "a":
                        name_text = _ref_normalize(text)
                        if name_text:
                            authors.append(name_text)
            elif tag in subject_fields:
                heading = _ref_heading(subfields, tag)
                if heading is not None:
                    headings.append(heading)
    if not record_id:
        raise ValueError("record has no 001 control number")
    return MarcView(record_id, entry_year(field_008), tuple(authors), tuple(headings))


def _ref_parse(data, extended_subjects):
    fields = EXTENDED_SUBJECT_FIELDS if extended_subjects else SUBJECT_FIELDS
    views, warnings, records, skipped = [], [], 0, 0
    for _, elem in ElementTree.iterparse(io.BytesIO(data), events=("end",)):
        if elem.tag not in ("record", f"{{{MARC_NS}}}record"):
            continue
        try:
            view = _ref_record_to_view(elem, fields)
        except ValueError as exc:
            skipped += 1
            warnings.append(f"skipping record: {exc}")
        else:
            records += 1
            views.append(view)
        elem.clear()
    return views, warnings, records, skipped


# Mixed ASCII and Unicode whitespace, trailing punctuation, "--" joins.
_PIECES = ["Art", "Zé", "Ñu", "a", " ", "  ", "\t", "\n", "\r", "\u00a0", "\u2003",
           "\u3000", "\u2028", "\x85", ",", ";", ":", "/", ".", "-", "--", " -- "]
_texts = st.lists(st.sampled_from(_PIECES), max_size=6).map("".join)
_controlfields = st.tuples(
    st.just("controlfield"),
    st.sampled_from(["001", "003", "005", "008", None]),
    st.one_of(_texts, st.sampled_from(["850315", "200101s2020", "xx0101", "85", "||||||"])),
    st.just(()),
)
_subfields = st.tuples(
    st.sampled_from(["subfield", "subfield", "subfield", "note"]),
    st.sampled_from(["a", "a", "x", "y", "z", "v", "0", "2", "c", None]),
    _texts,
    st.just(()),
)
_datafields = st.tuples(
    st.just("datafield"),
    st.sampled_from(["100", "110", "111", "700", "710", "711", "245",
                     "650", "650", "600", "610", "651", "500", None]),
    st.just(""),
    st.lists(_subfields, max_size=5),
)
_records = st.tuples(
    st.sampled_from([None, "", "  ", "r1", " bib 2 "]),  # 001; None: absent
    st.sampled_from([None, "850315s1985", "200101", "xx0101", "85", ""]),  # 008
    st.lists(st.one_of(_controlfields, _datafields,
                       st.just(("leader", None, "00000nam", ()))), max_size=6),
)


def _element(prefix, name, tag, text, children):
    attr = "" if tag is None else f' {"code" if name in ("subfield", "note") else "tag"}="{tag}"'
    inner = escape(text) + "".join(_element(prefix, *c) for c in children)
    return f"<{prefix}{name}{attr}>{inner}</{prefix}{name}>"


def _record_xml(prefix, record):
    record_id, field_008, children = record
    head = [("controlfield", "001", record_id, ()), ("controlfield", "008", field_008, ())]
    body = [c for c in head if c[2] is not None] + children
    return f"<{prefix}record>{''.join(_element(prefix, *c) for c in body)}</{prefix}record>"


OAI_NS = "http://www.openarchives.org/OAI/2.0/"


def _enveloped(records: list[str], shape: str, decl: str = "", prefix: str = "") -> bytes:
    """MARCXML records inside an envelope: ``container`` puts them in a list
    below the root, between other elements; ``oai`` wraps each one in an
    OAI-PMH record, as a harvest returns them."""
    if shape == "container":
        body = (f"<{prefix}envelope{decl}><{prefix}header/><{prefix}list>{''.join(records)}"
                f"<{prefix}token/></{prefix}list></{prefix}envelope>")
    else:
        items = "".join(f"<o:record><o:header/><o:metadata>{r}</o:metadata></o:record>"
                        for r in records)
        body = f'<o:OAI-PMH xmlns:o="{OAI_NS}"{decl}><o:ListRecords>{items}</o:ListRecords></o:OAI-PMH>'
    return ('<?xml version="1.0" encoding="UTF-8"?>' + body).encode("utf-8")


@st.composite
def marc_documents(draw):
    """MARCXML bytes: a collection without namespace, with the MARC namespace
    as default or prefixed, a lone record as the document element, or the
    records inside an envelope."""
    layout = draw(st.sampled_from(["plain", "default", "prefixed"]))
    prefix = "marc:" if layout == "prefixed" else ""
    decl = {"plain": "", "default": f' xmlns="{MARC_NS}"',
            "prefixed": f' xmlns:marc="{MARC_NS}"'}[layout]
    records = [_record_xml(prefix, r) for r in draw(st.lists(_records, max_size=6))]
    shape = draw(st.sampled_from(["collection", "collection", "container", "oai"]))
    if shape != "collection":
        return _enveloped(records, shape, decl, prefix)
    if len(records) == 1 and draw(st.booleans()):
        body = records[0].replace(f"<{prefix}record>", f"<{prefix}record{decl}>", 1)
    else:
        body = f"<{prefix}collection{decl}>{''.join(records)}</{prefix}collection>"
    return ('<?xml version="1.0" encoding="UTF-8"?>' + body).encode("utf-8")


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestRecordWalkOracle:
    @settings(max_examples=200)
    @given(marc_documents(), st.booleans())
    def test_equals_end_event_reference(self, data, extended_subjects):
        views, warnings, records, skipped = _ref_parse(data, extended_subjects)
        logger = logging.getLogger("metadiv.marc")
        handler = _Messages()
        logger.addHandler(handler)
        try:
            stream = parse_records(io.BytesIO(data), extended_subjects=extended_subjects)
            assert list(stream) == views
        finally:
            logger.removeHandler(handler)
        assert (stream.records, stream.skipped) == (records, skipped)
        assert handler.messages == warnings


def catalog(entries):
    """entries: sequence of (record_id, year, authors) -> MARCXML bytes."""
    records = [
        marc_record(rid, f"{year % 100:02d}0101" if year else None, authors=tuple(auth))
        for rid, year, auth in entries
    ]
    return marc_collection(*records)


class TestFacetSeries:
    def test_two_year_author_example(self):
        xml = catalog(
            [("r1", 2001, ["A"]), ("r2", 2001, ["A"]), ("r3", 2002, ["B"])]
        )
        series = facet_series(parse_records(io.BytesIO(xml)), "authors")
        assert series.rows[0] == (2001, 1, pytest.approx(1.0))
        year, rich, div = series.rows[1]
        assert (year, rich) == (2002, 2)
        # p = (2/3, 1/3): exp(ln 3 - (2/3) ln 2)
        assert div == pytest.approx(3 / 2 ** (2 / 3), abs=1e-12)
        assert div == pytest.approx(1.8899, abs=5e-5)
        assert series.mu == pytest.approx(1.5)

    def test_unique_authors_mu_one(self):
        xml = catalog([(f"r{i}", 2000 + i, [f"Author {i}"]) for i in range(6)])
        series = facet_series(parse_records(io.BytesIO(xml)), "authors")
        assert series.mu == pytest.approx(1.0)
        final_year, final_rich, final_div = series.rows[-1]
        assert final_div == pytest.approx(final_rich)  # uniform counts

    def test_skewed_catalog_hits_target_mu(self):
        # 49 author events over 10 distinct authors: mu = 4.9
        entries = []
        rid = 0
        for author_idx in range(10):
            repeats = 13 if author_idx == 0 else 4
            for _ in range(repeats):
                entries.append((f"r{rid}", 2000 + rid % 20, [f"Author {author_idx}"]))
                rid += 1
        series = facet_series(parse_records(io.BytesIO(catalog(entries))), "authors")
        assert series.mu == pytest.approx(4.9, abs=0.01)
        assert series.mu * series.rows[-1][1] == pytest.approx(series.total_events)

    def test_missing_years_excluded_and_counted(self):
        xml = catalog([("r1", 2001, ["A"]), ("r2", None, ["B"]), ("r3", 2002, ["C"])])
        series = facet_series(parse_records(io.BytesIO(xml)), "authors")
        assert series.missing_year == 1
        assert series.rows[-1][1] == 2

    def test_all_years_missing_is_an_error(self):
        xml = catalog([("r1", None, ["A"])])
        with pytest.raises(ValueError):
            facet_series(parse_records(io.BytesIO(xml)), "authors")

    def test_unknown_facet_rejected(self):
        # The facet is checked before any record is read, so no records at
        # all give the same error.
        xml = catalog([("r1", 2001, ["A"])])
        for records in (parse_records(io.BytesIO(xml)), []):
            with pytest.raises(ValueError, match="^unknown facet 'languages'"):
                facet_series(records, "languages")

    def test_richness_non_decreasing(self):
        rng = np.random.default_rng(17)
        entries = [
            (f"r{i}", int(rng.integers(1990, 2021)), [f"Author {rng.integers(0, 30)}"])
            for i in range(200)
        ]
        series = facet_series(parse_records(io.BytesIO(catalog(entries))), "authors")
        richness_column = [rich for _, rich, _ in series.rows]
        assert richness_column == sorted(richness_column)
        years = [year for year, _, _ in series.rows]
        assert years == sorted(set(years))

    def test_per_year_diversity_matches_from_scratch(self):
        rng = np.random.default_rng(23)
        entries = [
            (f"r{i}", int(rng.integers(2000, 2011)), [f"Author {rng.integers(0, 12)}"])
            for i in range(120)
        ]
        xml = catalog(entries)
        series = facet_series(parse_records(io.BytesIO(xml)), "authors")
        views = list(parse_records(io.BytesIO(xml)))
        for year, rich, div in series.rows:
            events = [
                a
                for v in views
                if v.entry_year is not None and v.entry_year <= year
                for a in v.authors
            ]
            dist = FrequencyDistribution.from_events(events)
            assert rich == len(dist.counts)
            assert div == pytest.approx(hill_diversity(dist, 1.0), rel=1e-12)

    def test_subdivision_facet_splits_headings(self):
        xml = marc_collection(
            marc_record("r1", "010101", subjects=((("a", "Commerce--History"),),)),
            marc_record("r2", "020101", subjects=((("a", "Commerce"),),)),
        )
        whole = facet_series(parse_records(io.BytesIO(xml)), "subjects")
        split = facet_series(parse_records(io.BytesIO(xml)), "subdivisions")
        assert whole.rows[-1][1] == 2  # Commerce--History, Commerce
        assert split.rows[-1][1] == 2  # Commerce, History
        assert split.total_events == 3

    def test_heading_path_reported(self):
        xml = marc_collection(
            marc_record("r1", "010101", subjects=((("a", "Commerce--History"),),)),
            marc_record("r2", "020101", subjects=((("a", "Art"), ("x", "Study")),)),
        )
        series = facet_series(parse_records(io.BytesIO(xml)), "subjects")
        assert series.split_headings == 1
        assert series.structured_headings == 1

    def test_csv_format(self):
        xml = catalog([("r1", 2001, ["A"]), ("r2", 2002, ["B"])])
        text = facet_series(parse_records(io.BytesIO(xml)), "authors").to_csv()
        lines = text.splitlines()
        assert lines[0] == "year,cum_richness,cum_diversity"
        assert lines[1] == "2001,1,1.0000"

    def test_subdivision_richness_sanity_bound(self):
        rng = np.random.default_rng(29)
        topics = ["Art", "Commerce", "History", "Spain", "Theater"]
        records = []
        max_parts = 1
        for i in range(60):
            n_parts = int(rng.integers(1, 4))
            max_parts = max(max_parts, n_parts)
            parts = [topics[rng.integers(0, len(topics))] for _ in range(n_parts)]
            records.append(
                marc_record(f"r{i}", f"{rng.integers(0, 20):02d}0101",
                            subjects=((("a", "--".join(parts)),),))
            )
        xml = marc_collection(*records)
        whole = facet_series(parse_records(io.BytesIO(xml)), "subjects")
        split = facet_series(parse_records(io.BytesIO(xml)), "subdivisions")
        assert split.rows[-1][1] <= whole.rows[-1][1] * max_parts


# --- reference: facet series from one (year, label) event per facet value,
# stably sorted by year, as this module computed them before it counted the
# labels in per-year buckets ---------------------------------------------------


def _ref_facet_series(records, facet, order):
    order = float(order)
    events = []
    missing = structured = split = 0
    for view in records:
        structured += sum(h.structured for h in view.headings)
        split += sum(not h.structured for h in view.headings)
        if view.entry_year is None:
            missing += 1
            continue
        if facet == "authors":
            values = list(view.authors)
        elif facet == "subjects":
            values = [h.descriptor for h in view.headings]
        else:
            values = [text for h in view.headings for text in h.texts]
        events.extend((view.entry_year, value) for value in values)
    if not events:
        raise ValueError(f"no records with a catalog-entry year carry facet {facet!r}")
    events.sort(key=lambda pair: pair[0])  # stable: keeps arrival order per year
    years = sorted({year for year, _ in events})
    index = {year: n for n, (year, _) in enumerate(events, 1)}
    labels = [label for _, label in events]
    schedule = CheckpointSchedule.explicit([index[year] for year in years])
    rich = vocabulary_growth(labels, schedule)
    div = diversity_growth(labels, schedule, order)
    rows = tuple((year, int(r), d) for year, (_, r), (_, d) in zip(years, rich.points, div.points))
    return FacetSeries(facet, order, rows, len(events), missing, structured, split)


# Few labels, so they repeat within and across years; years out of order or
# missing; records with no authors or no headings.
_labels = st.sampled_from(["Ann", "Bo", "Cy", "Di", "Ed"])
_headings = st.builds(
    SubjectHeading,
    st.lists(st.tuples(st.sampled_from(["topical", "other"]), _labels),
             min_size=1, max_size=3).map(tuple),
    st.booleans(),
)
_views = st.builds(
    MarcView,
    st.just("r"),
    st.sampled_from([None, 2003, 1999, 2010, 2001]),
    st.lists(_labels, max_size=4).map(tuple),
    st.lists(_headings, max_size=3).map(tuple),
)


class TestFacetSeriesOracle:
    @settings(max_examples=300)
    @given(st.lists(_views, max_size=30), st.sampled_from(FACETS),
           st.sampled_from([0, 0.5, 1, 2, 3.7]))
    def test_equals_sort_based_reference(self, views, facet, order):
        try:
            expected = _ref_facet_series(views, facet, order)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                facet_series(iter(views), facet, order)
        else:
            assert facet_series(iter(views), facet, order) == expected
