"""Output checks that hold for every seed, from the generator's ground truth.

Each ``check_*`` takes one invocation's stdout and stderr and returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

# Printed values carry four decimals (two for D/R); allow the rounding step
# plus float noise from a different summation order.
TOL_4DP = 1.5e-4
TOL_2DP = 0.0051

LEXDIV_HEADER = "source,tokens,types,observed_D,extrapolated_D,C,alpha"


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_lexdiv(stdout: str, stderr: str, truth) -> list[str]:
    lines = stdout.splitlines()
    docs = truth.spec["documents"]
    if len(lines) != len(docs) + 2 or lines[0] != LEXDIV_HEADER:
        return [f"lexdiv: expected header plus {len(docs)} rows plus summary, got {lines[:1]}"]
    problems = []
    for line, doc in zip(lines[1:], docs):
        cells = line.split(",")
        want = truth.expected[doc["file"]]
        try:
            source, tokens, types = cells[0], int(cells[1]), int(cells[2])
            numbers = [float(c) for c in cells[3:]]
        except (ValueError, IndexError):
            problems.append(f"lexdiv: malformed row {line!r}")
            continue
        if (source, tokens, types) != (doc["file"], want["tokens"], want["types"]):
            problems.append(f"lexdiv: {line!r} != {doc['file']},{want['tokens']},{want['types']}")
        if len(numbers) != 4 or not all(math.isfinite(x) for x in numbers):
            problems.append(f"lexdiv: non-finite or missing values in {line!r}")
        elif abs(numbers[0] - want["observed_D"]) > TOL_4DP:
            problems.append(f"lexdiv: {doc['file']} observed_D {numbers[0]} != {want['observed_D']:.6f}")
    summary = lines[-1].split(",")
    try:
        ok = summary[0] == "# pearson_R" and -1.0 <= float(summary[1]) <= 1.0
    except (ValueError, IndexError):
        ok = False
    if not ok:
        problems.append(f"lexdiv: bad summary line {lines[-1]!r}")
    return problems


def _check_fit_dict(fit: dict, kind: str, n_points: int, where: str) -> list[str]:
    names = {"m1": {"D", "alpha"}, "m2": {"D", "c"}, "m3": {"D", "b", "c"},
             "m4": {"D", "c", "alpha"}}[kind]
    problems = []
    if fit.get("kind") != kind or set(fit.get("params", {})) != names:
        problems.append(f"{where}: kind/params {fit.get('kind')} {sorted(fit.get('params', {}))}")
    elif not all(_finite(v) for v in fit["params"].values()):
        problems.append(f"{where}: non-finite params {fit['params']}")
    if not _finite(fit.get("residual")) or fit["residual"] < 0:
        problems.append(f"{where}: bad residual {fit.get('residual')}")
    if fit.get("n_points") != n_points or not isinstance(fit.get("converged"), bool):
        problems.append(f"{where}: n_points/converged {fit.get('n_points')} {fit.get('converged')}")
    return problems


def check_fit(stdout: str, stderr: str, truth, curve: str, train: int) -> list[str]:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"fit {curve}: stdout is not JSON: {exc}"]
    n_points = truth.expected[curve]["n_points"]
    problems = _check_fit_dict(payload, "m4", n_points, f"fit {curve}")
    ranking = payload.get("comparison")
    if not isinstance(ranking, list) or sorted(r.get("model") for r in ranking) != ["m1", "m2", "m3", "m4"]:
        return problems + [f"fit {curve}: comparison does not rank the 4 saturating models"]
    n_train = min(n_points, train // truth.spec["step"])
    keys = []
    for r in ranking:
        problems += _check_fit_dict(r["fit"], r["model"], n_train, f"fit {curve} {r['model']}")
        if not _finite(r.get("holdout_rmse")):
            problems.append(f"fit {curve}: holdout_rmse of {r['model']} is {r.get('holdout_rmse')}")
        keys.append((not r["fit"].get("converged"), r.get("holdout_rmse")))
    if not problems and keys != sorted(keys):
        problems.append(f"fit {curve}: comparison not ranked by (converged, holdout_rmse)")
    return problems


def check_marc(stdout: str, stderr: str, truth, facet: str) -> list[str]:
    want = truth.expected[facet]
    lines = stdout.splitlines()
    if not lines or lines[0] != "year,cum_richness,cum_diversity":
        return [f"marc {facet}: bad header {lines[:1]}"]
    problems = []
    if len(lines) - 1 != len(want["rows"]):
        problems.append(f"marc {facet}: {len(lines) - 1} rows, expected {len(want['rows'])}")
    for line, (year, rich, div) in zip(lines[1:], want["rows"]):
        try:
            y, r, d = line.split(",")
            ok = int(y) == year and int(r) == rich and abs(float(d) - div) <= TOL_4DP
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"marc {facet}: row {line!r} != {year},{rich},{div:.6f}")
    try:
        quality = json.loads(stderr.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return problems + [f"marc {facet}: no quality JSON on stderr"]
    for key in ("records", "skipped", "missing_year"):
        if quality.get(key) != truth.expected[key]:
            problems.append(f"marc {facet}: {key} {quality.get(key)} != {truth.expected[key]}")
    if not _finite(quality.get("mu")) or abs(quality["mu"] - want["mu"]) > TOL_4DP:
        problems.append(f"marc {facet}: mu {quality.get('mu')} != {want['mu']:.6f}")
    return problems


def check_lod(stdout: str, stderr: str, truth, epoch: str) -> list[str]:
    try:
        profiles = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"lod: stdout is not JSON: {exc}"]
    names = [e["name"] for e in truth.spec["endpoints"]]
    if not isinstance(profiles, list) or [p.get("endpoint") for p in profiles] != names:
        return [f"lod: expected profiles for {names}"]
    stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    problems = []
    for prof in profiles:
        name = prof["endpoint"]
        want = truth.expected[name]
        if prof.get("retrieved_at") != stamp or prof.get("complete") is not True:
            problems.append(f"lod {name}: retrieved_at/complete {prof.get('retrieved_at')} {prof.get('complete')}")
        # Partitioned endpoints must agree with the direct (uncapped) truth.
        for key in ("classes", "properties", "sameas_hosts"):
            if prof.get(key) != want[key]:
                problems.append(f"lod {name}: {key} differ from the endpoint's counts")
        derived = prof.get("derived", {})
        for side, counts, d_true in (("class", want["classes"], want["class_D"]),
                                     ("property", want["properties"], want["prop_D"])):
            idx = derived.get(side, {})
            if idx.get("R") != len(counts):
                problems.append(f"lod {name}: {side} R {idx.get('R')} != {len(counts)}")
            elif not _finite(idx.get("D")) or abs(idx["D"] - d_true) > TOL_4DP:
                problems.append(f"lod {name}: {side} D {idx.get('D')} != {d_true:.6f}")
            elif not _finite(idx.get("DR")) or abs(idx["DR"] - d_true / len(counts)) > TOL_2DP:
                problems.append(f"lod {name}: {side} DR {idx.get('DR')}")
    return problems
