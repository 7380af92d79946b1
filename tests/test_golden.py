"""Pinned digests of the mock pipeline's observable outputs.

Two runs of the same code agreeing says nothing about a refactor; these
digests tie the audit files, the ``detect --json`` output and the
evaluation results to fixed bytes, so any change that alters them has to
update the pins on purpose.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from solguard.agents.config import load_config
from solguard.agents.detect import run_channels
from solguard.agents.pipeline import build_context
from solguard.cli import main
from solguard.llm.mock import TranscriptRecorder
from solguard.static_analysis.scanner import load_file
from conftest import write_pipeline_config

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PINNED_DETECT = {
    "weighted": "ce713483ae66d19a43924380af4e037501e781607609a26ae6a601a1a5c84c03",
    "voting": "b8a8e8a3847d0ad6d0c8c02098429156295b8933e9eb15637b8beee44c5da361",
    "enriched": "a2a1e19461cf7719f112af4f5349c680fbc20b904f513d232b58bd18bcd1c777",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_audit_outputs_are_pinned(runner, presign_config, tmp_path):
    result = runner.invoke(
        main,
        ["audit", str(FIXTURES / "presign.sol"), str(FIXTURES / "safe.sol"), "-c", str(presign_config), "--jobs", "1"],
    )
    assert result.exit_code == 0, result.output
    digests = {p.name: sha256(p.read_bytes()) for p in sorted((tmp_path / "out").iterdir())}
    assert digests == {
        "presign.report.json": "5276539606bfbb039060f04e112bea9199f7fa5f986b3967c2ffd7ac6d5e7b51",
        "presign.report.md": "67b492eb75cc04476610d15e9a0d437d57b99e2096250e839680d615cf35141a",
        "presign.run.json": "d77aef96ffd725ac303f97d8f43c2cc3e1640025b0f7f9a1f2c4de108bf7ee12",
        "safe.report.json": "f9a91c4ccfce3e5be2d682ab72d253b8b6a386aafe518f67cc7c3c8e84760acf",
        "safe.report.md": "36ed5a42a364541ee90c5c1be21bc8d1ec50498dde35decc35e176613c6215b4",
        "safe.run.json": "08f3d4f0578e69e99568cbfba1b5859b8336fc87e93334f0ee523c24137f57e8",
    }


def record_rule_detector_transcript(index_root: Path, path: Path) -> None:
    """Detector replies for every rule fixture, in the weighted and the
    enriched prompt, that name the fixture's manifest findings."""
    manifest = json.loads((FIXTURES / "rules" / "manifest.json").read_text(encoding="utf-8"))
    findings: list = []

    def respond(role: str, prompt: str) -> str:
        score = 0.9 if findings else 0.1
        if "Similar contracts from the audit corpus" in prompt:
            score -= 0.05  # the enriched prompt, answered a little differently
        return json.dumps({
            "verdict": "vulnerable" if findings else "safe",
            "score": score,
            "findings": [{"class": name, "function": fn, "evidence": f"{fn} ({name})"} for name, fn in findings],
        })

    recorder = TranscriptRecorder(respond, model_id="detector-sim")
    path.write_text("", encoding="utf-8")
    config = load_config(write_pipeline_config(path.with_suffix(".yaml"), index_root, path.parent, path))
    ctx = replace(build_context(config, roles=("detector",)), providers={"detector": recorder})
    for sol in sorted((FIXTURES / "rules").glob("*.sol")):
        findings[:] = manifest[sol.name]["findings"]
        run_channels(load_file(sol), ctx, ("weighted", "enriched"))
    recorder.write(path)


@pytest.mark.parametrize("mode", ["weighted", "voting", "enriched"])
def test_detect_json_over_rule_fixtures_is_pinned(runner, built_index_root, tmp_path, mode):
    transcript = tmp_path / "detector.jsonl"
    record_rule_detector_transcript(built_index_root, transcript)
    config = write_pipeline_config(tmp_path / "config.yaml", built_index_root, tmp_path / "out", transcript)
    result = runner.invoke(main, ["detect", str(FIXTURES / "rules"), "-c", str(config), "--json", "--mode", mode])
    assert result.exit_code == 0, result.output
    assert sha256(result.stdout_bytes) == PINNED_DETECT[mode]


def test_eval_results_are_pinned(runner, eval_env, tmp_path):
    out = tmp_path / "results.json"
    result = runner.invoke(
        main,
        [
            "eval", str(eval_env["dataset"]),
            "-c", str(eval_env["config"]),
            "--variants", "W,V,E,w/o Static,w/o RAG",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    results = json.loads(out.read_text(encoding="utf-8"))["results"]  # "dataset" is a temporary path
    assert sha256(json.dumps(results, sort_keys=True).encode("utf-8")) == (
        "e2fffb73473839cdb66b0740c2434f644a0d93eeabdf02388bb4e91b38b2a534"
    )
