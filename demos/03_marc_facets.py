"""Catalog facet series: cumulative author and subject diversity by year.

Each MARC record contributes one event per facet value (author name,
subject descriptor, or subject subdivision), bucketed by the year the
record entered the catalog (control field 008/00-05).  The series tracks
cumulative richness and diversity per year.  Run with:
python demos/03_marc_facets.py
"""

import io
import random

from metadiv.marc import facet_series, parse_records, split_heading

# Build a small synthetic MARCXML catalog: a specialist library that keeps
# acquiring within a few pet subjects, plus a long tail of one-off authors.
rng = random.Random(7)
AUTHORS = [f"Author, No. {i}" for i in range(40)]
SUBJECTS = [
    "Commerce--History",
    "Theater--Spain--16th century",
    "Spain--History",
    "Literature",
    "Commerce",
]

records = []
for i in range(300):
    year = 1995 + min(i // 12, 24)
    author = AUTHORS[min(int(rng.expovariate(0.12)), len(AUTHORS) - 1)]
    subject = SUBJECTS[min(int(rng.expovariate(0.9)), len(SUBJECTS) - 1)]
    records.append(
        f'<record><controlfield tag="001">demo{i}</controlfield>'
        f'<controlfield tag="008">{year % 100:02d}0101</controlfield>'
        f'<datafield tag="100"><subfield code="a">{author}</subfield></datafield>'
        f'<datafield tag="650"><subfield code="a">{subject}</subfield></datafield>'
        "</record>"
    )
xml = ("<collection>" + "".join(records) + "</collection>").encode()

# A compound descriptor splits into its subdivision texts.
heading = split_heading("Theater--Spain--16th century")
print("subdivisions of a compound descriptor:", heading.texts)

for facet in ("authors", "subjects", "subdivisions"):
    stream = parse_records(io.BytesIO(xml))
    series = facet_series(stream, facet, order=1.0)
    year, rich, div = series.rows[-1]
    print(
        f"\n{facet}: final year {year}, cumulative richness {rich}, "
        f"diversity {div:.2f}, items per value mu={series.mu:.2f}"
    )
    print("  last five years of the series (year, richness, diversity):")
    for row in series.rows[-5:]:
        print(f"    {row[0]}  {row[1]:4d}  {row[2]:8.3f}")
