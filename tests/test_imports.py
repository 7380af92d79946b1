"""The import graph, checked in fresh interpreters: importing a module loads
only what that module needs, since every command starts as a new process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(module: str) -> set[str]:
    """The solguard modules a fresh interpreter holds after ``import module``."""
    script = f"""
import json, sys
import {module}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("solguard"))))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, encoding="utf-8", env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


@pytest.mark.parametrize(
    "module, absent",
    [
        (
            "solguard.agents.config",
            {"solguard.agents.detect", "solguard.agents.pipeline", "solguard.agents.remediate", "solguard.agents.report"},
        ),
        ("solguard.retrieval.tfidf", {"solguard.retrieval.snapshot", "solguard.retrieval.kb"}),
    ],
)
def test_a_module_loads_no_sibling_it_does_not_use(module, absent):
    loaded = loaded_after(module)
    assert module in loaded
    assert loaded & absent == set()
