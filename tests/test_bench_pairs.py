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


def test_pair_refused_while_one_side_would_compile_a_shared_module(tmp_path, monkeypatch):
    bench_pairs = _load_bench_pairs()
    checkouts = {"parent": ("text.py", "gone.py"), "change": ("text.py", "added.py")}
    for side, names in checkouts.items():
        package = tmp_path / side / "src" / "metadiv"
        package.mkdir(parents=True)
        for name in names:
            (package / name).write_text("X = 1\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    py_compile.compile(str(tmp_path / "parent" / "src" / "metadiv" / "text.py"), doraise=True)
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    # gone.py and added.py are compiled on their one side only: no mismatch
    assert bench_pairs.mixed_bytecode(parent, change) == ["text.py"]

    def run_benchmark(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    out = tmp_path / "BENCH.json"
    for option in ("--pairs", "--traced"):
        with pytest.raises(SystemExit, match=r": refusing lexdiv-zipf:1\S*: text\.py would load"):
            bench_pairs.main(["--parent", parent, "--change", change, option,
                              "lexdiv-zipf:1:1" if option == "--pairs" else "lexdiv-zipf:1",
                              "--out", str(out)])
    assert not out.exists()
    py_compile.compile(str(tmp_path / "change" / "src" / "metadiv" / "text.py"), doraise=True)
    assert bench_pairs.mixed_bytecode(parent, change) == []
