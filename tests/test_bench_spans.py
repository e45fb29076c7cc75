"""The benchmark's wrap targets: every name perfbench/spans.py wraps still resolves."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("target", SPANS.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_target_resolves(target):
    module_name, path, *_ = target
    assert SPANS._resolve(module_name, path) is not None

