"""The benchmark's hold on the product: the names it imports and two seams.

``perfbench/`` imports solguard names inside functions that only a
benchmark run reaches, so a rename used to show only there. This test reads
each ``perfbench/*.py`` with :mod:`ast`, without importing it, resolves every
``from solguard... import ...`` it finds, and checks the two seams the
benchmark relies on: ``dataclasses.replace(ctx, providers=...)`` on a
pipeline context, and the ``complete(self, prompt, *, role)`` signature of
each provider class whose ``complete`` it wraps.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import presign_fixture

ROOT = Path(__file__).resolve().parent.parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))}
NODES = [node for tree in TREES.values() for node in ast.walk(tree)]
IMPORTS = sorted({
    (node.module, alias.name)
    for node in NODES
    if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "solguard"
    for alias in node.names
})
ROLES = ("detector", "advisor", "assessor", "fixer", "verifier")


def test_the_benchmark_s_known_imports_are_found():
    found = {f"{module}.{name}" for module, name in IMPORTS}
    assert found >= {
        "solguard.agents.config.load_config",
        "solguard.agents.pipeline.build_context",
        "solguard.agents.pipeline.run_pipeline",
        "solguard.evaluation.load_dataset",
        "solguard.evaluation.normalize_variant",
        "solguard.evaluation.run_variants",
        "solguard.llm.prompts.REPAIR_INSTRUCTION",
        "solguard.static_analysis.rules.default_ruleset",
        "solguard.static_analysis.scanner.load_file",
        "solguard.llm.TranscriptRecorder",
        "solguard.llm.mock.MockProvider",
        "solguard.llm.provider.HttpProvider",
        "solguard.cli.main",
    }


@pytest.mark.parametrize("module_name, name", IMPORTS, ids=[f"{m}.{n}" for m, n in IMPORTS])
def test_each_imported_name_resolves_in_src(module_name, name):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
    assert hasattr(module, name), f"{module_name} has no {name}"


def test_a_context_takes_its_providers_by_dataclasses_replace():
    keywords = {
        keyword.arg
        for node in NODES
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "replace"
        for keyword in node.keywords
    }
    assert keywords == {"providers"}
    ctx, _ = presign_fixture.recording_context()
    stand_in = object()
    swapped = dataclasses.replace(ctx, **{keyword: {role: stand_in for role in ctx.providers} for keyword in keywords})
    assert all(swapped.provider(role) is stand_in for role in ROLES)


def test_each_wrapped_complete_has_the_benchmark_s_signature():
    (wrapper,) = [node for node in NODES if isinstance(node, ast.FunctionDef) and node.name == "complete"]
    expected = [(arg.arg, inspect.Parameter.POSITIONAL_OR_KEYWORD) for arg in wrapper.args.args]
    expected += [(arg.arg, inspect.Parameter.KEYWORD_ONLY) for arg in wrapper.args.kwonlyargs]
    assert [name for name, _ in expected] == ["self", "prompt", "role"]
    imported = [getattr(importlib.import_module(module_name), name) for module_name, name in IMPORTS]
    wrapped = [value for value in imported if inspect.isclass(value) and "complete" in vars(value)]
    assert {cls.__name__ for cls in wrapped} >= {"MockProvider", "HttpProvider"}
    for cls in wrapped:
        params = inspect.signature(cls.complete).parameters.values()
        assert [(p.name, p.kind) for p in params] == expected, cls
