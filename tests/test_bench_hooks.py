"""The per-layer benchmark trace wraps product functions by module and name.

``perfbench/tracing.py`` lists them in ``TARGETS``; a target that no longer
resolves is only reported as ``not traced`` in a trace run, and its layer
metric vanishes. This test fails on such a rename instead. It loads the
tracing module from its file and never changes it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _trace_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up here
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TARGETS]


TARGETS = _trace_targets()


def test_targets_are_listed():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_resolves_in_src(module_name, attr):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
    owner = module
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
