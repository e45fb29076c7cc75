"""The BENCH writer: committed BENCH files follow from their own raw runs,
every run starts from a freshly compiled checkout, and a malformed item is
refused before the first run.  The session tests replace ``run_benchmark``
with a fake, so no benchmark process starts."""

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


# --- sessions over two small checkouts ---------------------------------------


def _checkout(path: Path, broken: bool = False) -> str:
    for name in ("src/metadiv/__init__.py", "src/metadiv/text.py", "perfbench/run.py"):
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text("X = 1\n")
    if broken:
        (path / "src" / "metadiv" / "broken.py").write_text("def (:\n")
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return str(path)


def _uncompiled(checkout: str) -> list[str]:
    """Modules the import system would compile, as a timestamp ``.pyc`` header shows."""
    stale = []
    for source in sorted(Path(checkout).glob("*/**/*.py")):
        st = source.stat()
        expected = (importlib.util.MAGIC_NUMBER + bytes(4)
                    + (int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                    + (st.st_size & 0xFFFFFFFF).to_bytes(4, "little"))
        try:
            header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
        except OSError:
            header = b""
        if header != expected:
            stale.append(str(source.relative_to(checkout)))
    return stale


class _FakeRuns:
    """Stands in for ``run_benchmark``: records each run and what it found uncompiled."""

    def __init__(self, env_keys: tuple[str, ...]):
        self.env_keys = env_keys
        self.runs: list[tuple[str, int, list[str]]] = []
        self.edit: Path | None = None  # a source to edit after the first run of its checkout

    def __call__(self, checkout, workload, seed, seconds, trace):
        self.runs.append((checkout, trace, _uncompiled(checkout)))
        if self.edit is not None and str(self.edit).startswith(checkout):
            self.edit.write_text("X = 22\n")  # another size, most likely in the same second
            self.edit = None
        result = {"metrics": {"wall_s": {"value": 0.1, "unit": "s"}}, "attempted": 3, "failed": 0}
        details = {"environment": dict.fromkeys(self.env_keys, "-"),
                   "input_spec": {"seed": seed}, "host_speed": {"median": 1.0}}
        return result, details


@pytest.fixture()
def session(tmp_path, monkeypatch):
    """(bench_pairs with a fake git and run_benchmark, the fake, parent, change, out)."""
    bench_pairs = _load_bench_pairs()
    fake = _FakeRuns(bench_pairs.ENV_KEYS)
    monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_benchmark", fake)
    # Neither may keep compileall from writing timestamp bytecode.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    return (bench_pairs, fake, _checkout(tmp_path / "parent"), _checkout(tmp_path / "change"),
            tmp_path / "BENCH.json")


def test_every_run_finds_its_checkout_compiled(session):
    bench_pairs, fake, parent, change, out = session
    fake.edit = Path(change) / "src" / "metadiv" / "text.py"
    assert _uncompiled(parent) == _uncompiled(change) == [
        "perfbench/run.py", "src/metadiv/__init__.py", "src/metadiv/text.py"]
    assert bench_pairs.main(["--parent", parent, "--change", change, "--pairs",
                             "lexdiv-zipf:1:2", "--traced", "lexdiv-zipf:1", "--out", str(out)]) == 0
    assert [(checkout, trace) for checkout, trace, _ in fake.runs] == [
        (parent, 0), (change, 0), (change, 0), (parent, 0), (parent, 1), (change, 1)]
    assert [stale for _, _, stale in fake.runs] == [[]] * 6
    assert fake.edit is None  # text.py was edited after the change's first run
    bench = json.loads(out.read_text())
    assert len(bench["raw"]["pairs"]["lexdiv-zipf:1"]) == 2
    assert set(bench["raw"]["traced"]["lexdiv-zipf:1"]) == {"parent", "change"}
    assert "compileall" in bench["method"]


def test_compiled_parent_and_uncompiled_change_run_a_pair(session):
    bench_pairs, fake, parent, change, out = session
    for path in Path(parent).glob("*/**/*.py"):
        py_compile.compile(str(path), doraise=True,
                           invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    assert _uncompiled(parent) == [] and _uncompiled(change) != []
    assert bench_pairs.main(["--parent", parent, "--change", change, "--pairs",
                             "lexdiv-zipf:1:1", "--out", str(out)]) == 0
    assert [stale for _, _, stale in fake.runs] == [[], []]
    assert len(json.loads(out.read_text())["raw"]["pairs"]["lexdiv-zipf:1"]) == 1


@pytest.mark.parametrize("broken_side", ["parent", "change"])
def test_checkout_that_does_not_compile_stops_the_session(session, broken_side):
    bench_pairs, fake, parent, change, out = session
    broken = _checkout(Path(parent if broken_side == "parent" else change), broken=True)
    with pytest.raises(SystemExit, match=r"(?s)compileall failed:.*broken\.py.*SyntaxError"):
        bench_pairs.main(["--parent", parent, "--change", change, "--pairs",
                          "lexdiv-zipf:1:1", "--out", str(out)])
    assert broken not in [checkout for checkout, _, _ in fake.runs]
    assert not out.exists()


@pytest.mark.parametrize("option, item", [
    ("--pairs", "lexdiv-zipf:1"),
    ("--pairs", "lexdif-zipf:1:1"),
    ("--pairs", "lexdiv-zipf:1:0"),
    ("--pairs", "lexdiv-zipf:one:1"),
    ("--traced", "lexdiv-zipf:1:1"),
    ("--traced", "lexdiv-zipf"),
    ("--claim", "lexdiv-zipf:wal_s"),
    ("--claim", "wall_s"),
])
def test_malformed_item_is_a_usage_error_before_any_run(session, capsys, option, item):
    bench_pairs, fake, parent, change, out = session
    # A well-formed item of another option beside it: were the bad one let
    # through, that item's runs would start.
    good = ["--traced", "lexdiv-zipf:1"] if option == "--pairs" else ["--pairs", "lexdiv-zipf:1:1"]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", parent, "--change", change, *good, option, item,
                          "--out", str(out)])
    assert exit_.value.code == 2
    assert f"{option} {item}: not " in capsys.readouterr().err
    assert fake.runs == [] and _uncompiled(change) != [] and not out.exists()
