"""Self-tests of the benchmark's own machinery (``run.py --selftest``).

1. A one-digit error planted in a checked stdout field fails the invocation,
   so ``failed_frac`` rises, on every workload.
2. The fake SPARQL endpoints' enumeration pages and ``VALUES`` batches agree
   with their direct grouped answers.
3. On one small traced job the self times of all spans sum to within 10 %
   of the job's traced wall time.
"""

from __future__ import annotations

import os
import re
import tempfile

import fake_sparql
import harness
import inputs
import spans
from workloads import WORKLOADS


def _plant_digit(text: str, marker: str) -> str:
    """Change the first digit after ``marker`` (d -> d+1 mod 10)."""
    at = text.index(marker) + len(marker)
    m = re.compile(r"\d").search(text, at)
    digit = str((int(m.group(0)) + 1) % 10)
    return text[:m.start()] + digit + text[m.end():]


def _markers(out: str) -> dict[str, str]:
    last_year = out.rstrip().rsplit("\n", 1)[-1].split(",")[0]
    return {
        "lexdiv-zipf": "d1.txt,",        # token count of the first document
        "fit-holdout": '"D": ',          # fitted asymptote; caught by the stdout digest
        "marc-catalog": f"\n{last_year},",  # final cumulative richness
        "lod-harvest": '"R": ',          # class richness of the first endpoint
    }


def planted_error(root: str, name: str) -> str | None:
    h = harness.Harness(root, WORKLOADS[name], harness.DEFAULT_SEED)
    h.setup(1)
    clean = h.warm_job()
    if any(c.problem for c in clean):
        return f"{name}: clean job already fails: {[c.problem for c in clean if c.problem][:1]}"
    first = clean[0]
    planted = harness.Call(first.seconds, first.code,
                           _plant_digit(first.stdout, _markers(first.stdout)[name]), first.stderr)
    calls = [h.checked(0, planted)] + clean[1:]
    failed = sum(1 for c in calls if c.problem)
    if failed != 1:
        return f"{name}: planted one-digit error gave {failed} failed invocations, expected 1"
    return None


def fake_consistency() -> str | None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs.write_lod(tmp, 7)
        fake = fake_sparql.FakeSparql.from_file(os.path.join(tmp, inputs.LOD_ANSWERS), 0.0)
    for url, ep in fake.endpoints.items():
        for var, pattern in (("class", "?s a ?class"), ("p", "?s ?p ?o")):
            direct = {row[var]: int(row["count"]) for row in ep.direct_rows[var]}
            for page in (500, 997):
                keys, offset = [], 0
                while True:
                    rows = fake.select(url, f"SELECT DISTINCT ?{var} WHERE {{ {pattern} }} "
                                       f"ORDER BY ?{var} LIMIT {page} OFFSET {offset}", 60).rows
                    keys += [row[var] for row in rows]
                    if len(rows) < page:
                        break
                    offset += page
                if sorted(keys) != sorted(direct) or len(keys) != len(set(keys)):
                    return f"{url} {var}: enumeration with pages of {page} != direct keys"
                batched = {}
                for start in range(0, len(keys), page):
                    values = " ".join(f"<{k}>" for k in keys[start:start + page])
                    query = (f"SELECT ?{var} (COUNT(*) AS ?count) WHERE "
                             f"{{ VALUES ?{var} {{ {values} }} {pattern} }} GROUP BY ?{var}")
                    batched.update((row[var], int(row["count"]))
                                   for row in fake.select(url, query, 60).rows)
                if batched != direct:
                    return f"{url} {var}: VALUES batches of {page} != direct counts"
    return None


def self_time_closure(root: str) -> str | None:
    h = harness.Harness(root, WORKLOADS["fit-holdout"], harness.DEFAULT_SEED)
    h.setup(1)
    h.invocations = h.invocations[:2]
    h.golden = None
    tracer = spans.Tracer()
    tracer.job = 1
    calls, missing = h.traced_job(tracer)
    wall = sum(c.seconds for c in calls)
    summary = tracer.job_summary(1)
    total_self = sum(s["self_s"] for s in summary.values())
    if missing or any(c.problem for c in calls):
        return f"traced job failed: missing {sorted(missing)}, {[c.problem for c in calls]}"
    negative = [name for name, s in summary.items() if s["self_s"] < -1e-6]
    if negative:
        return f"negative self time (overlapping spans) in {negative}"
    if abs(total_self - wall) > 0.10 * wall:
        return f"self times sum to {total_self:.4f} s, traced wall {wall:.4f} s"
    print(f"  self times {total_self:.4f} s vs traced wall {wall:.4f} s "
          f"over {len(tracer.spans)} spans")
    return None


def main(root: str) -> int:
    checks = [(f"planted digit fails {name}", lambda n=name: planted_error(root, n))
              for name in WORKLOADS]
    checks += [("fake SPARQL pages and batches match direct answers", fake_consistency),
               ("self times cover the traced wall time", lambda: self_time_closure(root))]
    failures = 0
    for title, check in checks:
        problem = check()
        failures += problem is not None
        print(f"{'FAIL' if problem else 'PASS'}  {title}" + (f": {problem}" if problem else ""))
    return 1 if failures else 0
