"""The import graph, checked in fresh interpreters: importing a module loads
only what that module needs, since every command starts as a new process.
And every name a module imports is used in that module, and every exception
class ``errors.py`` declares is used by another module."""

from __future__ import annotations

import ast
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


def _quoted_annotation_names(tree: ast.Module) -> set[str]:
    """The names read in quoted annotations such as ``run: "PipelineRun"``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads (``import a.b`` binds
    ``a``). ``__future__`` imports are exempt, and a name imported under
    ``if TYPE_CHECKING:`` is also used when a quoted annotation reads it."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    type_only = {
        id(stmt)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
        for stmt in node.body
    }
    quoted = _quoted_annotation_names(tree)
    return [
        f"line {node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        if name not in read and not (id(node) in type_only and name in quoted)
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"],  # a package __init__ imports to re-export
    ids=lambda p: p.relative_to(SRC).as_posix(),
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from __future__ import annotations\nimport os\nos.sep\n", []),
        ("import os.path\nos.path.join\n", []),
        ("import json as j\nimport sys\nj.dumps\n", ["line 2: sys"]),
        ("from a import B, C\nx: B\n", ["line 1: C"]),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from a import B\ndef f(x: 'B') -> None: ...\n", []),
        ("from a import B\ndef f(x: 'B') -> None: ...\n", ["line 1: B"]),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from a import B, C\nx: 'list[B]'\n", ["line 3: C"]),
    ],
)
def test_the_unused_import_check_itself(source, unused):
    assert unused_imports(source) == unused


ERRORS = SRC / "solguard" / "errors.py"


def names_read(source: str) -> set[str]:
    """The names a module reads, bare or as an attribute (``errors.X`` reads ``X``)."""
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Name, ast.Attribute))]
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes}


@pytest.mark.parametrize(
    "name", [node.name for node in ast.parse(ERRORS.read_text(encoding="utf-8")).body if isinstance(node, ast.ClassDef)]
)
def test_every_exception_class_is_named_outside_errors(name):
    """Some other module raises, catches or subclasses it: a class that no module names is dead code."""
    others = [p for p in SRC.rglob("*.py") if p != ERRORS]
    assert any(name in names_read(p.read_text(encoding="utf-8")) for p in others)
