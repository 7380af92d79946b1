"""Pinned bytes of the degraded run records the happy-path goldens miss.

``test_golden.py`` pins a clean preSign audit and a safe one. These pins
tie the files written for each degraded shape to fixed bytes as well: an
incomplete suggestion, a defaulted risk level, a failed verification with
new issues, a failed fix, an undetermined verdict, and an evaluation whose
metrics are degenerate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from solguard.cli import main
from solguard.llm.mock import TranscriptRecorder

import presign_fixture
from conftest import write_pipeline_config

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCRIPTED = presign_fixture.scripted_responses()
NEW_ISSUE = {"class": "Reentrancy", "function": "preSign", "evidence": "emit after write"}

# scenario: (replies that replace the scripted ones, config overrides, what the run record shows)
SCENARIOS = {
    "incomplete-suggestion": (
        {"advisor": json.dumps({**json.loads(SCRIPTED["advisor"]), "cause_analysis": ""})},
        {},
        lambda run: not run["suggestions"][0]["complete"],
    ),
    "defaulted-risk": (
        {"assessor": json.dumps({"level": "Severe"})},
        {},
        lambda run: run["risk"]["assignments"][0]["defaulted"],
    ),
    "failed-verification": (
        {"verifier": json.dumps({"passed": False, "new_issues": [NEW_ISSUE]})},
        {},
        # the verifier's new issue is in the patched file, at preSign's body there
        lambda run: not run["verification"]["passed"] and any(
            issue["contract_id"] == "presign.patched"
            and issue["location"]["function"] == "preSign"
            and (issue["location"]["start"], issue["location"]["end"]) != (0, len(run["patch"]["repaired_source"].encode()))
            for issue in run["verification"]["new_issues"]
        ),
    ),
    "failed-fix": (
        {"fixer": json.dumps({"repaired_source": 'contract Broken { string s = "open', "rationale": "Unfinished."})},
        {},
        lambda run: run["patch"] is None and "fix" in run["errors"],
    ),
    "undetermined": (
        {"detector": "no verdict here"},
        {"weights": {"model": 1.0, "static": 0.0, "retrieval": 0.0}},
        lambda run: run["verdict"]["verdict"] == "undetermined" and "detect" in run["errors"],
    ),
}

PINNED = {
    "incomplete-suggestion": {
        "presign.report.json": "f5bd30da95333c3098a9bbe57d831ca0858dec4d86e07c9c71295ce6df299691",
        "presign.report.md": "c2ecf7d1b005c24f78fffd43766fc3838b7230eb19fb8287e13cabff51667b44",
        "presign.run.json": "621d456558903b398d8f2a93931423eeab7c1711b5936c1cf026806e10886d25",
    },
    "defaulted-risk": {
        "presign.report.json": "47f5269ecfff03c58e3aba46df2205489c0db6294896fc7fe34766bc1cd278bc",
        "presign.report.md": "2165cf52c1016c6031f5047b2a2d0fdabb0f93fa8fa546c5a812cc7cddf9a6c9",
        "presign.run.json": "72824cbeecb11f056937d45cd6e677e6d896f597e251e9385b72e128ccdf7269",
    },
    "failed-verification": {
        "presign.report.json": "91284049747dfb52b8e9dd884c1ddd11bded78b030647adf8ca64e6311e1a477",
        "presign.report.md": "f09737aac5007b7e63f97e118a971fb7fdc1b34fa18ee95dff98d61f359a53d5",
        "presign.run.json": "a050f8407a399508181730b7739593c9fa2825e1d41bcdcb1359fcf23a80b213",
    },
    "failed-fix": {
        "presign.report.json": "60e5839bcc7c12cc42f2ef4f810648e3ebf25e9bc753bb1cdf2804f0067c7e9f",
        "presign.report.md": "9c26e9048f76f57006b0205acfdb1581c2806ab473d9e8d813ab41f10b0fad56",
        "presign.run.json": "29daeb51da8f37ce3addfb9d56b4838244433c1b3e35461fa05f68b555213d46",
    },
    "undetermined": {
        "presign.report.json": "21ee695dd20fa2ea3edce1e660f701dba6162a99b713a16508427bea513d0fb6",
        "presign.report.md": "83ac9e35bd93bc6d929202ca38d13fca978497d0a17f4807bced0c7eb6ede305",
        "presign.run.json": "7b154f0b1fe02ed907f9d4a86237746a1c86acde5a3cc1bedf149b8fc5d736f7",
    },
}

PINNED_DEGENERATE_EVAL = "330e0802497bba5374ba5b596a603b69967f6ce0884c98e16c516e4e20a0047c"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_degraded_audit_outputs_are_pinned(scenario, runner, built_index_root, tmp_path, fake_providers):
    replies, overrides, shown = SCENARIOS[scenario]
    responses = {**SCRIPTED, **replies}
    fake_providers(lambda config: TranscriptRecorder(lambda role, prompt: responses[role], model_id=config.model_id))
    out_dir = tmp_path / "out"
    config = write_pipeline_config(
        tmp_path / "config.yaml", built_index_root, out_dir, FIXTURES / "presign_transcript.jsonl", **overrides
    )
    result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config), "--jobs", "1"])
    run = json.loads((out_dir / "presign.run.json").read_text(encoding="utf-8"))
    assert shown(run), run
    assert result.exit_code == (1 if run["errors"] else 0), result.output
    digests = {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    assert digests == PINNED[scenario]


def test_degenerate_eval_results_are_pinned(runner, eval_env, tmp_path, monkeypatch):
    """Only safe contracts: precision, recall and F1 have zero denominators."""
    rows = eval_env["dataset"].read_text(encoding="utf-8").splitlines()
    safe = [row for row in rows if json.loads(row)["label"] == "safe"]
    (tmp_path / "safe.jsonl").write_text("\n".join(safe) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the results name the dataset path as given
    result = runner.invoke(
        main, ["eval", "safe.jsonl", "-c", str(eval_env["config"]), "--variants", "W,w/o RAG", "--out", "results.json"]
    )
    assert result.exit_code == 0, result.output
    raw = (tmp_path / "results.json").read_bytes()
    assert all(report["degenerate"] for report in json.loads(raw)["results"])
    assert sha256(raw) == PINNED_DEGENERATE_EVAL
