"""metadiv benchmark: four CLI batch workloads, job-level and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all              # every workload, one table
    python3 perfbench/run.py --workload all --repeat 10  # run-to-run spread vs bounds
    python3 perfbench/run.py --selftest

Run from the repository root; metadiv is imported from ``src/``.  One run
generates its inputs from the seed under ``.perfbench/work/``, then, for
``--seconds``, repeats rounds: with ``--trace 0`` each of the job's
invocations once warm in-process and once cold in a fresh interpreter, with
``--trace 1`` one untraced and one traced job.  Every output is checked.

End-to-end times are given at reference host speed (see ``calibrate.py``);
the measured times are printed beside them.  A job's time is the sum over its
invocations of each one's median.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Full details (environment, input spec, quartiles, spans)
are written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_ROUNDS = 3  # rounds per run, whatever --seconds says
RUN_TIMEOUT_S = 900

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("cold_wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _describe(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile that has
    at least ten samples beyond it (None when there are too few)."""
    import numpy as np

    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (values[0],) * 3
    high = None
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            high = {"percentile": pct, "value": float(np.percentile(values, pct))}
            break
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n, "high": high}


# --- environment ---------------------------------------------------------------


def _blas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over src/ (paths and contents), for checkouts without git."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def environment(seed: int, load_before: tuple[float, ...]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# --- one run ---------------------------------------------------------------------


def _rounds(one_round, seconds: float) -> None:
    """Run one_round() at least MIN_ROUNDS times, and again while another
    round is expected to end within ``seconds``."""
    rounds = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start + (now - t0) > seconds:
            return


def _job_stats(per_call: list[list[float]]) -> dict:
    """Job time as the sum over its invocations of each one's median, and
    the same sums of quartiles.  A median per invocation keeps a job's figure
    steady when the host's speed changes for a second or two mid-job."""
    parts = [_describe(v) for v in per_call]
    rounds = [sum(r) for r in zip(*per_call)]
    return {key: sum(p[key] for p in parts) for key in ("median", "q1", "q3")} | {
        "n": len(rounds), "high": _describe(rounds)["high"], "per_round": rounds}


def _write_json(name: str, payload) -> str:
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, separators=(",", ":"))
    return path


def run_once(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    import harness
    import layers
    import spans
    from workloads import WORKLOADS

    load_before = os.getloadavg()
    workload = WORKLOADS[workload_name]
    h = harness.Harness(ROOT, workload, seed)
    setup_times = h.setup(SETUP_REPEATS)
    units = workload.units(h.truth)
    n_calls = len(h.invocations)
    details: dict = {"workload": workload_name, "seed": seed, "seconds": seconds,
                     "trace": int(traced), "input_spec": h.truth.spec}

    if not traced:
        warm: list[list] = [[] for _ in range(n_calls)]
        cold: list[list] = [[] for _ in range(n_calls)]

        def one_round():
            for i in range(n_calls):
                warm[i].append(h.warm_call(i))
                cold[i].append(h.cold_call(i))

        _rounds(one_round, seconds)
        calls = [c for per in warm + cold for c in per]
        wall = _job_stats([[c.at_ref_s for c in per] for per in warm])
        stats = {
            "setup_s": _describe([t * speed for t, speed in setup_times]),
            "wall_s": wall,
            "units_per_s": {"median": units / wall["median"], "q1": units / wall["q3"],
                            "q3": units / wall["q1"], "n": wall["n"], "high": None},
            "cold_wall_s": _job_stats([[c.at_ref_s for c in per] for per in cold]),
            "peak_rss_mb": _describe([max(r) for r in zip(*([c.peak_rss_mb for c in per]
                                                             for per in cold))]),
        }
        metrics = {name: (stats[name]["median"], unit) for name, unit in END_TO_END}
        details["measured"] = {
            "setup_s": _describe([t for t, _ in setup_times]),
            "wall_s": _job_stats([[c.seconds for c in per] for per in warm]),
            "cold_wall_s": _job_stats([[c.seconds for c in per] for per in cold]),
        }
    else:
        untraced, traced_jobs, tracers = [], [], []

        def one_round():
            untraced.append(h.warm_job())
            tracer = spans.Tracer()
            tracer.job = len(tracers) + 1
            calls, missing = h.traced_job(tracer)
            tracers.append(tracer)
            traced_jobs.append((calls, layers.job_metrics(tracer, missing), missing))

        _rounds(one_round, seconds)
        calls = [c for job in untraced for c in job] + [c for job in traced_jobs for c in job[0]]
        samples = {name: [job[1][name] for job in traced_jobs] for name, *_ in layers.METRICS}
        untraced_walls = [sum(c.at_ref_s for c in job) for job in untraced]
        traced_walls = [sum(c.at_ref_s for c in job[0]) for job in traced_jobs]
        samples["trace.overhead_s"] = [statistics.median(traced_walls)
                                       - statistics.median(untraced_walls)]
        samples["marc.parse_peak_mb"] = [h.parse_peak_mb()]
        stats = {name: (None if None in v else _describe(v)) for name, v in samples.items()}
        metrics = {name: (None if stats[name] is None else stats[name]["median"], unit)
                   for name, unit in layers.UNITS.items()}
        # Counts repeat exactly from job to job; report them as integers.
        metrics.update({name: (int(v), unit) for name, (v, unit) in metrics.items()
                        if unit == "count" and v is not None and float(v).is_integer()})
        counts = [name for name, unit, *_ in layers.METRICS if unit == "count"]
        details["counts_repeat"] = all(len(set(samples[n])) == 1 for n in counts)
        details["missing_spans"] = sorted(set().union(*(job[2] for job in traced_jobs)))
        details["untraced_wall_s"] = untraced_walls
        details["traced_wall_s"] = traced_walls
        details["spans_file"] = _write_json(
            f"{workload_name}-seed{seed}-spans.json",
            {"fields": ["name", "start", "end", "parent", "job"],
             "spans": [s for t in tracers for s in t.spans]})

    problems = [c.problem for c in calls if c.problem]
    details["host_speed"] = _describe([c.speed for c in calls])
    details.update(
        environment=environment(seed, load_before),
        stats=stats,
        attempted=len(calls),
        failed=len(problems),
        failed_frac=len(problems) / len(calls),
        problems=problems[:20],
        units=f"{units} {workload.unit} per job of {n_calls} invocation(s)",
    )
    details["results_file"] = _write_json(
        f"{workload_name}-seed{seed}-trace{int(traced)}.json", details)
    return {
        "details": details,
        "result": {
            "correct": not problems,
            "attempted": len(calls),
            "failed": len(problems),
            "metrics": {
                name: ({"value": value, "unit": unit} if value is not None
                       else {"value": None, "unit": unit, "missing": True})
                for name, (value, unit) in metrics.items()
            },
        },
    }


def _print_run(details: dict, result: dict) -> None:
    env = details["environment"]
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"({details['units']})")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"x{env['blas_threads']} threads, nproc {env['nproc']}, {env['cpu_model']}, "
          f"load {env['loadavg_before'][0]:.2f}->{env['loadavg_after'][0]:.2f}, "
          f"commit {env['git_commit'] or env['src_sha256'][:12]}")
    for name, m in result["metrics"].items():
        st = details["stats"].get(name)
        if st is None:
            print(f"{name:40s} missing ({m['unit']})")
            continue
        fmt = ".0f" if m["unit"] == "count" else ".6g"
        spread = (f"  q1 {st['q1']:{fmt}}  q3 {st['q3']:{fmt}}  n {st['n']}"
                  if st["n"] > 1 else "")
        high = st["high"]
        if high:
            spread += f"  p{high['percentile']:g} {high['value']:{fmt}}"
        print(f"{name:40s} {m['value']:{fmt}} {m['unit']}{spread}")
    print(f"{'failed_frac':40s} {details['failed_frac']:.6g} ratio "
          f"({details['failed']}/{details['attempted']} invocations)")
    speed = details["host_speed"]
    scaled = ("times above are at reference speed" if not details["trace"] else
              "per-layer times are as measured, trace.overhead_s at reference speed")
    print(f"# host speed vs reference: median {speed['median']:.3f}, "
          f"q1 {speed['q1']:.3f}, q3 {speed['q3']:.3f}; {scaled}")
    for name, st in details.get("measured", {}).items():
        print(f"# measured {name}: median {st['median']:.6g} s, q1 {st['q1']:.6g}, "
              f"q3 {st['q3']:.6g}")
    for problem in details["problems"]:
        print(f"# FAILED: {problem}")
    if details.get("missing_spans"):
        print(f"# missing wrap targets: {', '.join(details['missing_spans'])}")


# --- several runs -----------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, traced: int) -> tuple[dict | None, str]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), done.stdout
    except (IndexError, json.JSONDecodeError):
        return None, done.stdout + done.stderr


def _bounds() -> dict[str, float]:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_many(names: list[str], seed: int, seconds: float, traced: int, repeat: int) -> int:
    bounds = _bounds()
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for i in range(repeat):
            result, text = _spawn(name, seed + i, seconds, traced)
            if repeat == 1:
                print("\n".join(text.rstrip().splitlines()[:-1]))
            if result is None or not result["correct"]:
                ok = False
                print(f"# {name} seed {seed + i}: FAILED\n{text[-2000:]}")
                if result is None:
                    continue
            for metric, m in result["metrics"].items():
                units[metric] = m["unit"]
                if m["value"] is not None:
                    values.setdefault(metric, []).append(m["value"])
        if repeat > 1:
            print(f"# {name}: {repeat} runs, seeds {seed}..{seed + repeat - 1}")
            print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
            for metric, vs in values.items():
                med = statistics.median(vs)
                q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) >= 2 else (vs[0],) * 3
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(metric)
                verdict = ("" if bound is None else
                           "steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                print(f"{metric:40s} {med:12.6g} {spread:8.4f} "
                      f"{'' if bound is None else bound:>6}  {verdict} {units[metric]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    from harness import DEFAULT_SEED
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload with seeds seed, seed+1, ...; prints spreads")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        import selftest

        return selftest.main(ROOT)
    if args.workload == "all" or args.repeat > 1:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return run_many(names, args.seed, args.seconds, args.trace, args.repeat)
    out = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_run(out["details"], out["result"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "metadiv", "__init__.py")):
        sys.stderr.write(f"perfbench: no metadiv sources under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
