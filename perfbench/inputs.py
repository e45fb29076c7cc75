"""Seeded input generators with ground truth for the four benchmark workloads.

Only numpy's ``Generator`` and the standard library are used; nothing from
``metadiv`` (in particular not ``metadiv.synthetic``) and nothing from the
test suite, so a change to the program cannot change its own inputs.  Each
``write_*`` function writes its files under fixed names into a directory
and returns a ``Truth``: the input spec plus the values a correct run must
print.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# CV syllables over single code points, so a word parses back into its
# syllables in exactly one way.  Upper-casing and case-folding these letters
# round-trips (no ß, no dotted I).
_CONSONANTS = "bcdfgklmnprstvzñç"
_VOWELS = "aeiouyéöåü"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _word(index: int) -> str:
    """Bijective base-len(_SYLLABLES) spelling of index >= 0: unique words."""
    base = len(_SYLLABLES)
    parts = []
    n = index + 1
    while n > 0:
        n, r = divmod(n - 1, base)
        parts.append(_SYLLABLES[r])
    return "".join(reversed(parts))


def _zipf_draws(rng: np.random.Generator, n_draws: int, n_types: int, exponent: float):
    """Ranks 0..n_types-1 drawn with p(rank) proportional to (rank+1)**-exponent."""
    weights = np.arange(1, n_types + 1, dtype=float) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(n_draws), side="right"), n_types - 1)


def _hill(counts, order: float) -> float:
    c = np.asarray(counts, dtype=float)
    p = c / c.sum()
    if order == 1.0:
        return float(math.exp(-float(np.sum(p * np.log(p)))))
    return float(np.sum(p**order) ** (1.0 / (1.0 - order)))


@dataclass
class Truth:
    """What was generated (``spec``) and what the program must report."""

    spec: dict
    expected: dict = field(default_factory=dict)


# --- lexdiv-zipf --------------------------------------------------------------

# (file, tokens, type inventory).  The CLI samples a checkpoint every
# LEX_EVERY tokens: 5,000 checkpoints in all.
LEX_DOCS = (("d1.txt", 12_500, 1_250), ("d2.txt", 25_000, 5_000),
            ("d3.txt", 37_500, 8_750), ("d4.txt", 50_000, 12_500))
LEX_EVERY = 25
LEX_TRAIN = 2_500
LEX_EXPONENT = 1.0
_NUMBERS = ("1984", "42", "2023", "7", "360", "1.5", "10,000")
_OPENERS = ('(', '"', '«')
_CLOSERS = (",", ".", ";", ":", "!", "?", ")", '"', "»", "...")


def _lex_forms(rng: np.random.Generator, n_types: int) -> list[str]:
    """Canonical (case-folded) form of each frequency rank.

    Some forms are hyphen or apostrophe compounds or carry a digit; removing
    those characters gives back a distinct syllable word, so forms stay
    unique.
    """
    order = rng.permutation(n_types)
    kinds = rng.random(n_types)
    forms = []
    for rank in range(n_types):
        w = _word(int(order[rank]) + len(_SYLLABLES))  # at least two syllables
        if kinds[rank] < 0.05:
            w = f"{w[:2]}-{w[2:]}"
        elif kinds[rank] < 0.08:
            w = f"{w[:2]}'{w[2:]}"
        elif kinds[rank] < 0.11:
            w = f"{w[:2]}{rank % 10}{w[2:]}"
        forms.append(w)
    return forms


def write_lexdiv(directory: str, seed: int) -> Truth:
    rng = np.random.default_rng([seed, 1])
    max_types = max(t for _, _, t in LEX_DOCS)
    forms = _lex_forms(rng, max_types)
    spec_docs, expected = [], {}
    for name, n_tokens, n_types in LEX_DOCS:
        ranks = _zipf_draws(rng, n_tokens, n_types, LEX_EXPONENT)
        style = rng.random(n_tokens)
        noise = rng.random(n_tokens)
        pick = rng.integers(0, 1 << 30, n_tokens)
        out = []
        for i in range(n_tokens):
            w = forms[ranks[i]]
            s = style[i]
            if s < 0.08:
                w = w[0].upper() + w[1:]
            elif s < 0.09:
                w = w.upper()
            u = noise[i]
            if u < 0.06:
                w = w + _CLOSERS[pick[i] % len(_CLOSERS)]
            elif u < 0.08:
                w = _OPENERS[pick[i] % len(_OPENERS)] + w
            elif u < 0.10:
                w = f"{w} {_NUMBERS[pick[i] % len(_NUMBERS)]}"
            elif u < 0.11:
                w = f"{w} —"
            out.append(w)
            out.append("\n" if pick[i] % 13 == 0 else " ")
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write("".join(out))
        counts = np.bincount(ranks, minlength=n_types)
        counts = counts[counts > 0]
        spec_docs.append({"file": name, "tokens": n_tokens, "inventory": n_types,
                          "types": int(counts.size)})
        expected[name] = {"tokens": n_tokens, "types": int(counts.size),
                          "observed_D": _hill(counts, 1.0)}
    spec = {"documents": spec_docs, "exponent": LEX_EXPONENT,
            "tokens": sum(d["tokens"] for d in spec_docs),
            "types": sum(d["types"] for d in spec_docs)}
    return Truth(spec=spec, expected=expected)


# --- fit-holdout --------------------------------------------------------------

FIT_CURVES = 10
FIT_POINTS = 10_000
FIT_STEP = 100  # n = 100, 200, ..., 1,000,000
FIT_NOISE = 0.002
FIT_FORMS = ("power", "m1", "m2", "m3", "m4")


# Parameter centres of the curves of each form, in curve order; a seed
# moves each parameter by at most 5 % around its centre and redraws the
# noise.  Wider draws change which misspecified fits run into the iteration
# limit, and with it a job's work, from seed to seed.  "half" is the n at
# which a saturating curve reaches half its asymptote D.  M2 curves keep to
# small half values: M3 and M4 contain M2 on a boundary, and for larger
# ones whether they converge there depends on the noise.
_FIT_CENTRES = {
    "power": ({"C": 6.0, "alpha": 0.5}, {"C": 14.0, "alpha": 0.45}),
    "m1": ({"D": 1500.0, "half": 4e4}, {"D": 3500.0, "half": 1.5e5}),
    "m2": ({"D": 1500.0, "half": 4e4}, {"D": 3500.0, "half": 5e4}),
    "m3": ({"D": 1500.0, "half": 4e4, "b": 8e3}, {"D": 3500.0, "half": 1.5e5, "b": 3e4}),
    "m4": ({"D": 1500.0, "half": 4e4, "alpha": 0.6}, {"D": 3500.0, "half": 1.5e5, "alpha": 1.4}),
}


def _curve_values(form: str, k: int, rng: np.random.Generator, n: np.ndarray):
    p = {name: centre * rng.uniform(0.95, 1.05) for name, centre in _FIT_CENTRES[form][k].items()}
    if form == "power":
        return p, p["C"] * n ** p["alpha"]
    D, half = p["D"], p.pop("half")
    if form == "m1":
        p["alpha"] = math.log(2.0) / half
        return p, D * (1.0 - np.exp(-p["alpha"] * n))
    p["c"] = half
    if form == "m2":
        return p, D * n / (n + half)
    if form == "m3":
        return p, D * (n + p["b"]) / (n + half)
    return p, D * (n / (n + half)) ** p["alpha"]


def write_fit(directory: str, seed: int) -> Truth:
    rng = np.random.default_rng([seed, 2])
    n = np.arange(1, FIT_POINTS + 1, dtype=float) * FIT_STEP
    curves = []
    for i in range(FIT_CURVES):
        form = FIT_FORMS[i % len(FIT_FORMS)]  # every form equally often, in every seed
        params, values = _curve_values(form, i // len(FIT_FORMS), rng, n)
        values = values * (1.0 + FIT_NOISE * rng.standard_normal(n.size))
        name = f"curve{i:02d}.csv"
        lines = ["n,value"]
        lines.extend(f"{int(k)},{v:.4f}" for k, v in zip(n, values))
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        curves.append({"file": name, "form": form,
                       "params": {k: round(float(v), 6) for k, v in params.items()}})
    spec = {"curves": curves, "points_per_curve": FIT_POINTS, "step": FIT_STEP,
            "curve_points": FIT_CURVES * FIT_POINTS, "noise": FIT_NOISE}
    return Truth(spec=spec, expected={c["file"]: {"n_points": FIT_POINTS} for c in curves})


# --- marc-catalog -------------------------------------------------------------

MARC_FILE = "catalog.xml.gz"
MARC_RECORDS = 7_500
MARC_AUTHORS = 5_000
MARC_TERMS = 1_250
MARC_TOPICAL = 60
MARC_PLACES = 120
MARC_YEARS = (1970, 2025)
MARC_NO_008 = 0.02
MARC_NO_001 = 0.001
MARC_FACETS = ("authors", "subjects", "subdivisions")
MARC_ORDER = 2.0
_MARC_NS = "http://www.loc.gov/MARC21/slim"


def _title(word: str) -> str:
    return word[0].upper() + word[1:]


def _marc_field(tag: str, subfields, ind1: str = " ", ind2: str = " ") -> str:
    cells = "".join(f'<subfield code="{c}">{t}</subfield>' for c, t in subfields)
    return f'<datafield tag="{tag}" ind1="{ind1}" ind2="{ind2}">{cells}</datafield>'


def _facet_truth(events_by_year: dict[int, list[str]], order: float) -> dict:
    """Per-year cumulative richness and order-k diversity, plus totals."""
    counts: dict[str, int] = {}
    rows = []
    for year in sorted(events_by_year):
        for label in events_by_year[year]:
            counts[label] = counts.get(label, 0) + 1
        rows.append([year, len(counts), _hill(list(counts.values()), order)])
    total = sum(counts.values())
    return {"rows": rows, "events": total, "mu": total / len(counts)}


def write_marc(directory: str, seed: int) -> Truth:
    rng = np.random.default_rng([seed, 3])
    authors = [f"{_title(_word(i + 300))}, {_title(_word(int(g)))}"
               for i, g in enumerate(rng.integers(0, 250, MARC_AUTHORS))]
    terms = [_title(_word(i + 3000)) + ("" if i % 3 else f" {_word(i % 200)}")
             for i in range(MARC_TERMS)]
    topical = [_title(_word(i + 40_000)) + " aspects" for i in range(MARC_TOPICAL)]
    places = [_title(_word(i + 60_000)) for i in range(MARC_PLACES)]
    author_ranks = rng.permutation(MARC_AUTHORS)
    term_ranks = rng.permutation(MARC_TERMS)

    first, last = MARC_YEARS
    year_weights = np.linspace(1.0, 3.0, last - first + 1)
    years = first + np.searchsorted(np.cumsum(year_weights) / year_weights.sum(),
                                    rng.random(MARC_RECORDS), side="right")
    years = np.minimum(years, last)
    no_001 = rng.random(MARC_RECORDS) < MARC_NO_001
    no_008 = rng.random(MARC_RECORDS) < MARC_NO_008
    n_added = rng.integers(0, 4, MARC_RECORDS)
    has_main = rng.random(MARC_RECORDS) < 0.9
    n_subjects = rng.integers(0, 4, MARC_RECORDS)
    author_draws = iter(_zipf_draws(rng, MARC_RECORDS * 4, MARC_AUTHORS, 1.0))
    term_draws = iter(_zipf_draws(rng, MARC_RECORDS * 4, MARC_TERMS, 1.0))
    sub_draws = iter(_zipf_draws(rng, MARC_RECORDS * 4, MARC_TOPICAL, 1.0))
    place_draws = iter(_zipf_draws(rng, MARC_RECORDS * 4, MARC_PLACES, 1.0))
    shape = iter(rng.random(MARC_RECORDS * 4 * 3))

    events = {facet: {} for facet in MARC_FACETS}
    records = skipped = missing_year = 0
    structured = split = 0
    parts = [f'<?xml version="1.0" encoding="UTF-8"?>\n<collection xmlns="{_MARC_NS}">\n']
    for r in range(MARC_RECORDS):
        year = int(years[r])
        rec = ["<record><leader>00000nam a2200000 a 4500</leader>"]
        if not no_001[r]:
            rec.append(f'<controlfield tag="001">bib{seed % 1000:03d}{r:07d}</controlfield>')
        if no_008[r]:
            if r % 2:
                rec.append('<controlfield tag="008">||||||s2001    xx            000 0 und d</controlfield>')
        else:
            rec.append(f'<controlfield tag="008">{year % 100:02d}{1 + r % 12:02d}'
                       f'{1 + r % 28:02d}s{year}    xxu           000 0 eng d</controlfield>')
        names = []
        for k in range(int(has_main[r]) + int(n_added[r])):
            name = authors[author_ranks[next(author_draws)]]
            names.append(name)
            tag = "100" if k == 0 and has_main[r] else "700"
            surface = name.replace(", ", ",  ") if next(shape) < 0.1 else name
            surface += "." if next(shape) < 0.5 else ","
            rec.append(_marc_field(tag, [("a", surface)], ind1="1"))
        rec.append(_marc_field("245", [("a", f"Work {r} /"), ("c", "by someone.")], "1", "0"))
        headings = []
        for _ in range(int(n_subjects[r])):
            texts = [terms[term_ranks[next(term_draws)]]]
            if next(shape) < 0.5:
                texts.append(topical[next(sub_draws)])
            if next(shape) < 0.4:
                texts.append(places[next(place_draws)])
            headings.append(texts)
            if len(texts) > 1 and next(shape) < 0.15:
                split += 1
                rec.append(_marc_field("650", [("a", " -- ".join(texts) + "."),
                                               ("2", "lcsh")], ind2="0"))
            else:
                structured += 1
                codes = ["a"] + ["x" if t in topical else "z" for t in texts[1:]]
                cells = [(c, t + ("." if i == len(texts) - 1 else "")) for i, (c, t)
                         in enumerate(zip(codes, texts))]
                if next(shape) < 0.2:
                    cells.append(("0", f"http://id.example.org/subjects/sh{r:07d}"))
                rec.append(_marc_field("650", cells, ind2="0"))
        rec.append("</record>\n")
        parts.append("".join(rec))
        if no_001[r]:
            skipped += 1
            continue
        records += 1
        if no_008[r]:
            missing_year += 1
            continue
        values = {
            "authors": names,
            "subjects": ["--".join(t) for t in headings],
            "subdivisions": [x for t in headings for x in t],
        }
        for facet in MARC_FACETS:
            if values[facet]:
                events[facet].setdefault(year, []).extend(values[facet])
    parts.append("</collection>\n")
    with gzip.open(os.path.join(directory, MARC_FILE), "wb", compresslevel=1) as f:
        f.write("".join(parts).encode("utf-8"))

    expected = {"records": records, "skipped": skipped, "missing_year": missing_year}
    for facet in MARC_FACETS:
        expected[facet] = _facet_truth(events[facet], MARC_ORDER)
    spec = {"file": MARC_FILE, "records": MARC_RECORDS, "valid_records": records,
            "skipped": skipped, "missing_year": missing_year,
            "structured_headings": structured, "split_headings": split,
            "events": {f: expected[f]["events"] for f in MARC_FACETS}}
    return Truth(spec=spec, expected=expected)


# --- lod-harvest --------------------------------------------------------------

LOD_ROSTER = "roster.json"
LOD_ANSWERS = "sparql_answers.json"
LOD_EPOCH = "1700000000"
# (name, behaviour, classes, properties, sameAs hosts, page_size)
LOD_ENDPOINTS = (
    ("DIRECT", "direct", 3_000, 800, 40, 10_000),
    ("CAPPED", "cap", 40_000, 3_000, 60, 500),
    ("SLOW", "timeout", 20_000, 2_000, 30, 500),
)
LOD_ROW_CAP = 1_000


def _zipf_counts(rng: np.random.Generator, n_keys: int, top: float) -> list[int]:
    ranks = np.arange(1, n_keys + 1, dtype=float)
    jitter = rng.lognormal(0.0, 0.3, n_keys)
    return [int(c) for c in np.maximum(1.0, np.round(top / ranks * jitter))]


def write_lod(directory: str, seed: int) -> Truth:
    """Roster JSON plus the fake endpoints' answers (their ground truth)."""
    rng = np.random.default_rng([seed, 4])
    roster, answers, expected = [], {}, {}
    keys_total = 0
    for name, behaviour, n_cls, n_prop, n_hosts, page_size in LOD_ENDPOINTS:
        host = f"{name.lower()}.bench.invalid"
        url = f"http://{host}/sparql"
        cls_ids = rng.permutation(n_cls * 4)[:n_cls]
        prop_ids = rng.permutation(n_prop * 4)[:n_prop]
        classes = dict(zip(
            (f"http://{host}/ontology/{_title(_word(int(i)))}" for i in cls_ids),
            _zipf_counts(rng, n_cls, 2e6)))
        properties = dict(zip(
            (f"http://{host}/vocab/{_word(int(i))}" for i in prop_ids),
            _zipf_counts(rng, n_prop, 5e6)))
        hosts = dict(zip((f"{_word(int(i))}.example.org" for i in rng.permutation(4000)[:n_hosts]),
                         _zipf_counts(rng, n_hosts, 1e5)))
        roster.append({"name": name, "url": url, "page_size": page_size,
                       "timeout": 60.0, "delay_ms": 0})
        answers[url] = {"behaviour": behaviour, "row_cap": LOD_ROW_CAP,
                        "class": classes, "p": properties,
                        # "" is what the endpoint binds for sameAs targets without a host
                        "hostname": {**hosts, "": 7}}
        expected[name] = {"classes": classes, "properties": properties, "sameas_hosts": hosts,
                          "class_D": _hill(list(classes.values()), 1.0),
                          "prop_D": _hill(list(properties.values()), 1.0)}
        keys_total += n_cls + n_prop + n_hosts
    with open(os.path.join(directory, LOD_ROSTER), "w", encoding="utf-8") as f:
        json.dump(roster, f, indent=1)
    with open(os.path.join(directory, LOD_ANSWERS), "w", encoding="utf-8") as f:
        json.dump(answers, f)
    spec = {"endpoints": [{"name": n, "behaviour": b, "classes": c, "properties": p,
                           "sameas_hosts": h, "page_size": s}
                          for n, b, c, p, h, s in LOD_ENDPOINTS],
            "keys": keys_total, "row_cap": LOD_ROW_CAP}
    return Truth(spec=spec, expected=expected)
