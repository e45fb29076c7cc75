"""Runs a workload's CLI invocations warm in-process, cold in subprocesses, or traced.

A job is all of a workload's ``metadiv.cli.main`` invocations, one after
the other.  A warm call runs ``main`` in this interpreter with stdout and
stderr captured; a cold call starts a fresh interpreter through
``cli_child.py`` and reads its peak RSS from ``os.wait4``.  Every call's
output is checked; a non-zero exit or a failed check fails the invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import calibrate
import inputs
import spans
from workloads import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "cli_child.py")
STDOUT_SHA256 = os.path.join(HERE, "stdout_sha256.json")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150.0

clock = time.perf_counter

@dataclass
class Call:
    """One invocation's time, exit code, output and check result ('' = correct).

    ``seconds`` is the measured wall time, ``wait_s`` the part spent in the
    fake transport's modelled round trips and ``speed`` the host speed
    around the call (see ``calibrate``); ``at_ref_s`` is the wall time at
    reference speed, with the waiting left as it was.
    """

    seconds: float
    code: int | None
    stdout: str
    stderr: str
    problem: str = ""
    peak_rss_mb: float = 0.0
    wait_s: float = 0.0
    speed: float = 1.0

    @property
    def at_ref_s(self) -> float:
        return self.wait_s + (self.seconds - self.wait_s) * self.speed


class Harness:
    def __init__(self, root: str, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = os.path.join(root, ".perfbench", "work", workload.name)
        self.truth = None
        self.invocations = []
        self.fake = None
        self.golden = None
        if seed == DEFAULT_SEED:
            with open(STDOUT_SHA256, encoding="utf-8") as f:
                self.golden = json.load(f).get(workload.name)
        # Pins the LOD profiles' timestamp, here and in cold subprocesses.
        os.environ["SOURCE_DATE_EPOCH"] = inputs.LOD_EPOCH
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    @staticmethod
    def _timed(run):
        """Run ``run()`` between two speed measurements taken right before and
        right after it; returns its result and the mean host speed."""
        before = calibrate.measure()[0]
        result = run()
        return result, (before + calibrate.measure()[0]) / 2.0

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """Import metadiv and generate the inputs, ``repeats`` times.

        Returns (seconds, host speed) per repeat, the time being that of
        importing ``metadiv.cli`` afresh plus generating and writing one
        run's inputs.
        """
        times = []
        for _ in range(repeats):
            # Drop metadiv (and the fake, which holds metadiv classes) so the
            # import below runs the package's module code again.
            for name in [m for m in sys.modules if m.split(".")[0] in ("metadiv", "fake_sparql")]:
                del sys.modules[name]
            os.makedirs(self.workdir, exist_ok=True)
            (seconds, truth), speed = self._timed(self._setup_once)
            times.append((seconds, speed))
        self.truth = truth
        self.invocations = self.workload.jobs(truth)
        return times

    def _setup_once(self):
        t0 = clock()
        import metadiv.cli  # noqa: F401  (timed: part of set-up)

        truth = self.workload.write(self.workdir, self.seed)
        if self.workload.fake_sparql:
            import fake_sparql

            self.fake = fake_sparql.FakeSparql.from_file(
                os.path.join(self.workdir, inputs.LOD_ANSWERS))
        return clock() - t0, truth

    # --- calls --------------------------------------------------------------

    def warm_call(self, i: int, tracer: spans.Tracer | None = None) -> Call:
        """One invocation in this interpreter; with a tracer, inside a
        ``cli.main`` span (the speed measurements stay outside it)."""
        call, call.speed = self._timed(lambda: self._warm(i, tracer))
        return self.checked(i, call)

    def _warm(self, i: int, tracer: spans.Tracer | None) -> Call:
        from metadiv.cli import main

        out, err = io.StringIO(), io.StringIO()
        waited = self.fake.slept_s if self.fake is not None else 0.0
        span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        t0 = clock()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(self.invocations[i].argv, transport=self.fake)
        except Exception:  # a crash fails this invocation; the run goes on
            code = None
            err.write(traceback.format_exc())
        finally:
            seconds = clock() - t0
            os.chdir(cwd)
        if self.fake is not None:
            waited = self.fake.slept_s - waited
        return Call(seconds, code, out.getvalue(), err.getvalue(), wait_s=waited)

    def cold_call(self, i: int) -> Call:
        """One invocation in a fresh interpreter.  The child measures the host
        speed itself, first thing and last thing, because the parent may sit
        on another CPU; the time it spends measuring is not counted."""
        out_path, err_path, report_path = (os.path.join(self.workdir, f".cold.{ext}")
                                           for ext in ("stdout", "stderr", "json"))
        cmd = [sys.executable, CHILD, "--report", report_path]
        if self.workload.fake_sparql:
            cmd += ["--fake-sparql", inputs.LOD_ANSWERS]
        cmd += ["--", *self.invocations[i].argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = {"calibration_s": 0.0, "speed": 1.0, "wait_s": 0.0}
        if proc.returncode == 0:
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
        with open(out_path, encoding="utf-8") as f_out, open(err_path, encoding="utf-8") as f_err:
            call = Call(seconds - report["calibration_s"], proc.returncode, f_out.read(),
                        f_err.read(), peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux: KiB
                        wait_s=report["wait_s"], speed=report["speed"])
        return self.checked(i, call)

    def checked(self, i: int, call: Call) -> Call:
        inv = self.invocations[i]
        if call.code != 0:
            problems = [f"exit code {call.code}: {call.stderr.strip()[-300:]}"]
        else:
            problems = inv.check(call.stdout, call.stderr)
            if self.golden is not None and not problems:
                digest = hashlib.sha256(call.stdout.encode("utf-8")).hexdigest()
                if digest != self.golden[i]:
                    problems = [f"stdout SHA-256 {digest[:12]} differs from the "
                                f"recorded {self.golden[i][:12]}"]
        call.problem = f"{' '.join(inv.argv)}: {'; '.join(problems)}" if problems else ""
        return call

    def warm_job(self) -> list[Call]:
        return [self.warm_call(i) for i in range(len(self.invocations))]

    def traced_job(self, tracer: spans.Tracer) -> tuple[list[Call], set[str]]:
        """One warm job with every wrap target instrumented; also returns the
        span names whose wrap target is missing."""
        if self.fake is not None:
            self.fake.reset()
            self.fake.tracer = tracer
        calls = []
        try:
            with spans.instrument(tracer) as missing:
                for i in range(len(self.invocations)):
                    call = self.warm_call(i, tracer)
                    tracer.add("cli.stdout_bytes", len(call.stdout.encode("utf-8")))
                    calls.append(call)
        finally:
            if self.fake is not None:
                self.fake.tracer = None
        if self.fake is not None:
            tracer.add("lod.requests", self.fake.requests)
            tracer.add("lod.rows", self.fake.rows)
            tracer.add("lod.query_bytes", self.fake.query_bytes)
            tracer.add("lod.partitioned_harvests", self.fake.partitioned_harvests())
        return calls, missing

    # --- memory pass --------------------------------------------------------

    def parse_peak_mb(self) -> float | None:
        """Peak traced allocation while one catalog parse is drained (tracemalloc).

        0.0 for workloads without a catalog; None when ``parse_records`` is gone.
        """
        import metadiv.cli

        if self.workload.name != "marc-catalog":
            return 0.0
        parse = getattr(metadiv.cli, "parse_records", None)
        if parse is None:
            return None
        path = os.path.join(self.workdir, inputs.MARC_FILE)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with contextlib.redirect_stderr(io.StringIO()):  # skipped-record warnings
                for _ in parse([path]):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / 2**20
