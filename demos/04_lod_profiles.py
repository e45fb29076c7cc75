"""Vocabulary-usage profiles of linked-open-data endpoints.

A profile counts how often each RDF class and property is used, plus where
owl:sameAs links point, and condenses each distribution into diversity D,
richness R and the evenness ratio D/R.  This demo runs against an
in-memory fixture endpoint, handed to `profile()` as the transport of its
`SparqlClient`, so it works offline.  A client built from a shipped roster
entry with no transport, `profile(SparqlClient(cfg))`, performs the same
harvest over HTTP.  The summary table is what `metadiv lod --format csv`
prints for the same fixture.  Run with:  python demos/04_lod_profiles.py
"""

import json
import os
from collections import Counter

from metadiv import cli
from metadiv.lod import (
    CLASS_COUNT_QUERY,
    PROPERTY_COUNT_QUERY,
    SAMEAS_HOST_QUERY,
    EndpointConfig,
    SparqlClient,
    SparqlResult,
    load_published_profiles,
    load_roster,
    profile,
)

# The queries sent over the wire are small grouped counts:
print("class-count query sent to each endpoint:")
print(CLASS_COUNT_QUERY)


class FixtureEndpoint:
    """Minimal in-memory stand-in for a SPARQL endpoint."""

    def __init__(self, triples):
        self.triples = triples

    def select(self, url, query, timeout):
        if query == CLASS_COUNT_QUERY:
            counts = Counter(o for _, p, o in self.triples if p == "rdf:type")
            var = "class"
        elif query == PROPERTY_COUNT_QUERY:
            counts = Counter(p for _, p, _ in self.triples)
            var = "p"
        elif query == SAMEAS_HOST_QUERY:
            targets = (o for _, p, o in self.triples if p == "owl:sameAs")
            counts = Counter(t.split("//")[1].split("/")[0] for t in targets)
            var = "hostname"
        else:
            raise AssertionError(f"unexpected query: {query}")
        rows = [{var: k, "count": str(v)} for k, v in sorted(counts.items())]
        return SparqlResult(rows=rows)


TRIPLES = (
    [(f"person{i}", "rdf:type", "http://example.org/Person") for i in range(60)]
    + [(f"work{i}", "rdf:type", "http://example.org/Work") for i in range(25)]
    + [(f"place{i}", "rdf:type", "http://example.org/Place") for i in range(5)]
    + [(f"person{i}", "http://example.org/hasName", f"name{i}") for i in range(60)]
    + [(f"work{i}", "http://example.org/hasAuthor", f"person{i % 9}") for i in range(25)]
    + [(f"person{i}", "owl:sameAs", f"http://viaf.org/viaf/{i}") for i in range(12)]
    + [("person0", "owl:sameAs", "https://d-nb.info/gnd/0")]
)

cfg = EndpointConfig(name="DEMO", url="http://fixture.invalid/sparql")
prof = profile(SparqlClient(cfg, FixtureEndpoint(TRIPLES)))

derived = prof.derived()
print("\nfixture endpoint profile:")
for side in ("class", "property"):
    d = derived[side]
    print(f"  {side:8s}: D={d.diversity:6.3f}  R={d.richness:3d}  D/R={d.ratio:.2f}")
print("  sameAs link targets:", dict(prof.sameas_hosts.counts))

print("\nsummary row (plot-ready CSV):")
os.makedirs("demo_output", exist_ok=True)
with open("demo_output/fixture_roster.json", "w", encoding="utf-8") as f:
    json.dump([{"name": cfg.name, "url": cfg.url}], f)
cli.main(["lod", "--roster", "demo_output/fixture_roster.json", "--format", "csv"],
         FixtureEndpoint(TRIPLES))
print()

# The package ships a roster of public library endpoints and a snapshot of
# previously published profile summaries for reference.
roster = load_roster()
print(f"shipped roster: {len(roster)} endpoints:", ", ".join(c.name for c in roster))
print("\npublished profile snapshot (reference values; endpoints drift):")
for row in load_published_profiles():
    print(
        f"  {row.host:4s} class D={row.class_D:5.1f} R={row.class_R:3d} "
        f"D/R={row.class_DR:.2f}   property D={row.prop_D:5.1f} "
        f"R={row.prop_R:3d} D/R={row.prop_DR:.2f}"
    )
