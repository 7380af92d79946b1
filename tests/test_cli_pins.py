"""Pinned stdout and exit codes of the commands.

The command layer may be restructured freely; what a user sees on stdout
may not change. Temporary paths are masked as ``<tmp>`` so the pins hold
in any directory.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from solguard.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

AUDIT_STDOUT = (
    "presign: vulnerable (report written to <tmp>/out)\n"
    "safe: safe (report written to <tmp>/out)\n"
    "processed 2/2 contracts, 1 vulnerable\n"
    "patch verification passed: 1/1 patched (1/2 of all processed)\n"
)

DETECT_STDOUT = (
    "presign: vulnerable 0.84 (mode weighted)\n"
    "  static     vulnerable 0.90\n"
    "  retrieval  vulnerable 0.60\n"
    "  model      vulnerable 0.90\n"
    "safe: safe 0.00 (mode weighted)\n"
    "  static     safe       0.00\n"
    "  retrieval  safe       0.00\n"
    "  model      safe       0.00\n"
)

EVAL_STDOUT = (
    "variant            F1   Recall  Precision  Accuracy     FPR\n"
    "-----------------------------------------------------------\n"
    "weighted       1.0000   1.0000     1.0000    1.0000  0.0000\n"
    "voting         0.8889   0.8000     1.0000    0.9000  0.0000\n"
    "enriched       0.7500   0.6000     1.0000    0.8000  0.0000\n"
    "no-static      0.8889   0.8000     1.0000    0.9000  0.0000\n"
    "no-rag         0.7500   0.6000     1.0000    0.8000  0.0000\n"
    "results written to <tmp>/results.json\n"
)


def invoke(runner, tmp_path: Path, *args) -> tuple[int, str]:
    """Exit code and stdout of one command, with ``tmp_path`` masked."""
    result = runner.invoke(main, [str(a) for a in args])
    return result.exit_code, result.stdout.replace(str(tmp_path), "<tmp>")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_audit_stdout(runner, tmp_path, presign_config, jobs):
    assert invoke(
        runner, tmp_path, "audit", FIXTURES / "presign.sol", FIXTURES / "safe.sol", "-c", presign_config, "--jobs", jobs
    ) == (0, AUDIT_STDOUT)


def test_detect_stdout(runner, tmp_path, presign_config):
    assert invoke(
        runner, tmp_path, "detect", FIXTURES / "presign.sol", FIXTURES / "safe.sol", "-c", presign_config
    ) == (0, DETECT_STDOUT)


def test_eval_stdout(runner, tmp_path, eval_env):
    assert invoke(
        runner, tmp_path, "eval", eval_env["dataset"], "-c", eval_env["config"],
        "--variants", "W,V,E,w/o Static,w/o RAG", "--out", tmp_path / "results.json",
    ) == (0, EVAL_STDOUT)


def test_calibrate_stdout(runner, tmp_path, eval_env):
    assert invoke(runner, tmp_path, "calibrate", eval_env["dataset"], "-c", eval_env["config"]) == (
        0,
        "calibrated threshold: 0.515\n",
    )


def test_kb_build_update_status_stdout(runner, tmp_path):
    index_root = tmp_path / "idx"
    assert invoke(
        runner, tmp_path, "kb", "build", "--corpus", FIXTURES / "corpus.jsonl",
        "--docs", FIXTURES / "kb_docs", "--index-root", index_root,
    ) == (0, "corpus: published version 1\nkb: published version 1\n")
    assert invoke(runner, tmp_path, "kb", "update", "--docs", FIXTURES / "kb_docs", "--index-root", index_root) == (
        0,
        "kb: published version 2\n",
    )
    assert invoke(runner, tmp_path, "kb", "status", "--index-root", index_root) == (
        0,
        "corpus: version 1, 15 documents\nkb: version 2, 6 documents, 6 chunks\n",
    )
