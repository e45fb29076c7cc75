"""A cold command imports only the layers it runs.

The layer calls a tracer wraps stay functions of ``metadiv.cli``, which
import their layer only when called.  Each test starts a new interpreter: in this one other test modules have
already imported the MARC and LOD layers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metadiv import cli
from metadiv.marc import FACETS

from .test_cli import ALPHA_TEXT, BETA_TOKENS, MARC_FIXTURE, scaled_curve

ROOT = Path(__file__).resolve().parents[1]

MARC_LAYER = ("metadiv.marc", "xml.etree.ElementTree")
LOD_LAYER = ("metadiv.lod", "concurrent.futures")

# Runs one command; the last stdout line is a JSON object of what the script sets.
PRELUDE = """
import contextlib, io, json, sys
from metadiv import cli
out = {}
"""
RUN = """
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
    out["code"] = cli.main(ARGV, transport=TRANSPORT)
out["err"] = err.getvalue()
"""
LOD_TRANSPORT = """
from tests.conftest import PEOPLE_GRAPH, GraphTransport
TRANSPORT = GraphTransport(PEOPLE_GRAPH)
"""


def run_fresh(tmp_path, script: str) -> dict:
    """``script`` after PRELUDE in a new interpreter; returns its ``out``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
           "SOURCE_DATE_EPOCH": "1700000000"}
    done = subprocess.run([sys.executable, "-c", PRELUDE + script + "print(json.dumps(out))\n"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture()
def inputs(tmp_path):
    (tmp_path / "curve.csv").write_text(scaled_curve(2.0), encoding="utf-8")
    (tmp_path / "alpha.txt").write_text(ALPHA_TEXT, encoding="utf-8")
    (tmp_path / "beta.txt").write_text(BETA_TOKENS, encoding="utf-8")
    (tmp_path / "catalog.xml").write_bytes(MARC_FIXTURE)
    (tmp_path / "roster.json").write_text(
        json.dumps([{"name": "FIX", "url": "http://fixture.invalid/sparql"}]), encoding="utf-8")
    return tmp_path


# (argv, the tests' transport or none, modules the command must not load).
COMMANDS = {
    "fit": (["fit", "curve.csv", "--model", "m4", "--train", "20"], "TRANSPORT = None\n",
            MARC_LAYER + LOD_LAYER),
    "lexdiv": (["lexdiv", "alpha.txt", "beta.txt", "--every", "20"], "TRANSPORT = None\n",
               MARC_LAYER + LOD_LAYER),
    "marc": (["marc", "catalog.xml", "--facet", "subjects"], "TRANSPORT = None\n", LOD_LAYER),
    "lod": (["lod", "--roster", "roster.json"], LOD_TRANSPORT, MARC_LAYER),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(inputs, command):
    argv, transport, absent = COMMANDS[command]
    out = run_fresh(inputs, f"ARGV = {argv!r}\n{transport}{RUN}"
                            f"out['loaded'] = [m for m in {absent!r} if m in sys.modules]\n")
    assert (out["code"], out["loaded"]) == (cli.EXIT_OK, []), out["err"]


def test_facet_choices_are_the_marc_facets():
    assert cli.FACETS == FACETS


# The layer calls of metadiv.cli that perfbench/spans.py and its harness wrap.
WRAPPED = ("parse_records", "facet_series", "profile")


def test_wrapped_names_resolve_without_loading_a_layer(tmp_path):
    # Each is a callable on metadiv.cli before any run, found again statically
    # (a tracer restores what it finds so), and reading them loads no layer.
    out = run_fresh(tmp_path, f"""
import inspect
out["callable"] = [callable(getattr(cli, name)) for name in {WRAPPED!r}]
out["static"] = all(inspect.getattr_static(cli, name) is getattr(cli, name) for name in {WRAPPED!r})
out["loaded"] = [m for m in {MARC_LAYER + LOD_LAYER!r} if m in sys.modules]
""")
    assert out == {"callable": [True] * len(WRAPPED), "static": True, "loaded": []}


# Per command: the (module, name) pairs it calls, each replaced before the
# first run by a wrapper that records the call.  The wrapped layer calls are
# replaced on metadiv.cli; every other name on the module that defines it.
REPLACED = {
    "marc": (("metadiv.cli", "parse_records"), ("metadiv.cli", "facet_series")),
    "lod": (("metadiv.lod", "load_roster"), ("metadiv.lod", "SparqlClient"),
            ("metadiv.cli", "profile"), ("concurrent.futures", "ThreadPoolExecutor")),
}


@pytest.mark.parametrize("command", REPLACED)
def test_replacement_set_before_first_run_is_called(inputs, command):
    argv, transport, _ = COMMANDS[command]
    out = run_fresh(inputs, f"""
import importlib
calls = out["calls"] = []
def recorded(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper
for module_name, name in {REPLACED[command]!r}:
    module = importlib.import_module(module_name)
    setattr(module, name, recorded(name, getattr(module, name)))
ARGV = {argv!r}
{transport}{RUN}""")
    assert out["code"] == cli.EXIT_OK, out["err"]
    assert sorted(set(out["calls"])) == sorted(name for _, name in REPLACED[command])
