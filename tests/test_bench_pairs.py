"""The BENCH writer: committed BENCH files follow from their own raw runs."""

from __future__ import annotations

import importlib.util
import json
import py_compile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# BENCH files written by tools/bench_pairs.py keep their runs in a "raw"
# block; older ones were written by hand and have none.
RAW_BENCH_FILES = sorted(
    path for path in ROOT.glob("BENCH_*.json") if "raw" in json.loads(path.read_text())
)


def test_raw_bench_files_exist():
    assert RAW_BENCH_FILES


@pytest.mark.parametrize("path", RAW_BENCH_FILES, ids=lambda path: path.name)
def test_summary_reproduces_committed_workloads(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bench = json.loads(path.read_text())
    assert _load_bench_pairs().summarize(bench["raw"], better) == bench["workloads"]


def test_bytecode_state_names_modules_without_fresh_cache(tmp_path, monkeypatch):
    package = tmp_path / "src" / "metadiv"
    package.mkdir(parents=True)
    for name in ("fresh.py", "edited.py", "never.py"):
        (package / name).write_text("X = 1\n")
    for name in ("fresh.py", "edited.py"):
        py_compile.compile(str(package / name), doraise=True)
    (package / "edited.py").write_text("X = 22\n")  # another size: the header no longer matches
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert _load_bench_pairs().bytecode_state(str(tmp_path)) == {
        "PYTHONDONTWRITEBYTECODE": "1", "stale_modules": ["edited.py", "never.py"]}
