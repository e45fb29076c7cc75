"""Write a BENCH_<PR>.json from alternating parent/change benchmark runs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs marc-catalog:1:10 marc-catalog:7:3 lexdiv-zipf:1:3 \\
        --traced marc-catalog:1 --claim marc-catalog:wall_s \\
        --note "what the change does" --out BENCH_5.json

``--parent`` and ``--change`` are two checkouts of the repository, each
with its own ``perfbench/``.  Every ``W:SEED:N`` item runs
``python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0``
N times in each checkout, alternating which side goes first (the parent in
odd pairs); every ``W:SEED`` of ``--traced`` runs once per side with
``--trace 1``.  S is ``run_seconds`` of the change's BENCHMARK.json, which
every item is checked against before the first run.  Each run starts just
after its checkout is compiled, so no cold start compiles a module on one
side only; a checkout that does not compile stops the session there.
``--parent`` must be a git checkout; its HEAD is recorded as the parent
commit.  Each run's value is the figure the run prints, its median at
reference host speed.  The output holds, per workload and seed, every run's
value, medians, quartiles and the pairs the change won, plus the input
spec, the environment and the command.

The output file is rewritten after every run and an existing one is
extended, so an interrupted session resumes where it stopped and several
calls can fill one file.  A file recorded against another parent commit or
run length is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 1800
SIDES = ("parent", "change")
ENV_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc", "cpu_model")
# -f: compileall's own check skips a module edited within the second it was compiled;
# timestamp: under SOURCE_DATE_EPOCH it writes checked-hash files, which every import rehashes.
COMPILE = [sys.executable, "-m", "compileall", "-q", "-f", "--invalidation-mode", "timestamp",
           "src", "perfbench"]


def run_benchmark(checkout: str, workload: str, seed: int, seconds: int,
                  trace: int) -> tuple[dict, dict]:
    """(last-line result, details file) of one ``perfbench/run.py`` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} failed:\n{done.stdout}{done.stderr}")
    details_path = os.path.join(checkout, ".perfbench", "results",
                                f"{workload}-seed{seed}-trace{trace}.json")
    with open(details_path, encoding="utf-8") as f:
        return json.loads(lines[-1]), json.load(f)


def describe(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(v, 6) for v in values]}


def summarize(raw: dict, better: dict[str, str]) -> dict:
    """BENCH layout from the raw per-run records."""
    workloads: dict = {}
    for key, pairs in raw["pairs"].items():
        workload, seed = key.rsplit(":", 1)
        entry = workloads.setdefault(workload, {"runs": []})
        if not pairs:
            continue
        metrics = {}
        for name, m in pairs[0]["change"]["metrics"].items():
            if any(p[side]["metrics"][name]["value"] is None for p in pairs for side in SIDES):
                continue
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            sign = 1 if better.get(name, "lower") == "lower" else -1
            won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            metrics[name] = {"unit": m["unit"],
                             **{side: describe(values[side]) for side in SIDES},
                             "change_better_pairs": won}
        entry["runs"].append({
            "seed": int(seed),
            "pairs": len(pairs),
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "metrics": metrics,
        })
    for key, sides in raw["traced"].items():
        workload, seed = key.rsplit(":", 1)
        entry = workloads.setdefault(workload, {"runs": []})
        entry[f"traced_seed_{seed}"] = {
            "note": "one --trace 1 run per side; layer times as measured (not rescaled), "
                    "so compare with the host speed beside them",
            **{side: {name: m["value"] for name, m in run["metrics"].items()}
               | {"host_speed_median": run["host_speed_median"]}
               for side, run in sides.items()},
        }
    for key, spec in raw["input_spec"].items():
        workloads.setdefault(key.rsplit(":", 1)[0], {"runs": []}).setdefault("input_spec", spec)
    return workloads


def write(path: str, raw: dict, better: dict[str, str]) -> None:
    out = {
        "change": raw["note"],
        "parent_commit": raw["parent_commit"],
        "claim": raw["claim"],
        "method": f"python3 perfbench/run.py --workload W --seed S --seconds {raw['run_seconds']} "
                  "--trace 0, parent and change each from its own checkout, alternating "
                  "which runs first (parent first in odd pairs), each compiled by python3 -m "
                  "compileall -q -f --invalidation-mode timestamp src perfbench just before "
                  "every run; each run's value is that run's median at reference host speed; "
                  "medians and quartiles below are over runs; written by tools/bench_pairs.py",
        "workloads": summarize(raw, better),
        "environment": raw["environment"],
        "raw": raw,
    }
    with open(path + ".tmp", "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    os.replace(path + ".tmp", path)


def git_head(checkout: str) -> str | None:
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if done.returncode:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", nargs="*", default=[], metavar="W:SEED:N",
                        help="N alternating pairs of untraced runs of workload W at SEED")
    parser.add_argument("--traced", nargs="*", default=[], metavar="W:SEED",
                        help="one --trace 1 run per side")
    parser.add_argument("--claim", metavar="W:METRIC", help="the metric the change claims")
    parser.add_argument("--note", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    parent_commit = git_head(args.parent)
    if parent_commit is None:
        parser.error(f"--parent {args.parent} is not a git checkout")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    names = "|".join(re.escape(w["name"]) for w in spec["workloads"])

    def items(option: str, form: str, pattern: str, texts: list[str]) -> list[tuple]:
        for text in texts:
            if not re.fullmatch(pattern, text):
                parser.error(f"{option} {text}: not {form} with W and METRIC as in BENCHMARK.json")
        return [re.fullmatch(pattern, text).groups() for text in texts]

    pairs = items("--pairs", "W:SEED:N", f"({names}):([0-9]+):(0*[1-9][0-9]*)", args.pairs)
    traced = items("--traced", "W:SEED", f"({names}):([0-9]+)", args.traced)
    claim = items("--claim", "W:METRIC", f"({names}):({'|'.join(map(re.escape, better))})",
                  [args.claim] if args.claim else [])
    raw = {"note": args.note, "parent_commit": parent_commit, "run_seconds": seconds,
           "claim": None, "environment": None, "input_spec": {}, "pairs": {}, "traced": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            raw = json.load(f)["raw"]
        recorded = (raw.get("parent_commit"), raw.get("run_seconds"))
        if recorded != (parent_commit, seconds):
            parser.error(f"{args.out} holds runs of parent {recorded[0]} at {recorded[1]} s, "
                         f"not of {parent_commit} at {seconds} s")
    for workload, metric in claim:
        raw["claim"] = {"workload": workload, "metric": metric, "better": better[metric]}
    raw["note"] = args.note or raw["note"]
    checkouts = {"parent": args.parent, "change": args.change}

    def one(side: str, workload: str, seed: int, trace: int) -> dict:
        done = subprocess.run(COMPILE, cwd=checkouts[side], capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"{checkouts[side]}: compileall failed:\n{done.stdout}{done.stderr}")
        result, details = run_benchmark(checkouts[side], workload, seed, seconds, trace)
        raw["environment"] = raw["environment"] or {k: details["environment"][k] for k in ENV_KEYS}
        raw["input_spec"].setdefault(f"{workload}:{seed}", details["input_spec"])
        value = result["metrics"].get("wall_s", {}).get("value")
        print(f"{workload} seed {seed} trace {trace} {side}: failed {result['failed']}"
              + ("" if value is None else f", wall_s {value:.4f}"), flush=True)
        return {"metrics": result["metrics"], "attempted": result["attempted"],
                "failed": result["failed"], "host_speed_median": details["host_speed"]["median"]}

    for workload, seed, n in pairs:
        runs = raw["pairs"].setdefault(f"{workload}:{seed}", [])
        while len(runs) < int(n):
            order = SIDES if len(runs) % 2 == 0 else SIDES[::-1]  # parent first in odd pairs
            runs.append({side: one(side, workload, int(seed), 0) for side in order})
            write(args.out, raw, better)
    for workload, seed in traced:
        sides = raw["traced"].setdefault(f"{workload}:{seed}", {})
        for side in SIDES:
            if side not in sides:
                sides[side] = one(side, workload, int(seed), 1)
                write(args.out, raw, better)
    write(args.out, raw, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
