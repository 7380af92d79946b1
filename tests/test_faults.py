"""Property: injected provider faults end each contract with a run record
and a report, never a traceback, and the outcome does not depend on how
many contracts or calls run at once."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solguard.agents.pipeline import PipelineRun, run_pipeline
from solguard.cli import main
from solguard.llm.mock import TranscriptRecorder
from solguard.static_analysis.scanner import load_file

import presign_fixture
from conftest import write_pipeline_config
from fault_injection import FaultInjectingProvider

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONTRACTS = {"multi": FIXTURES / "rules" / "multi_vuln.sol", "safe": FIXTURES / "safe.sol"}
PATCHED_MULTI = (FIXTURES / "rules" / "multi_vuln.sol").read_text(encoding="utf-8").replace(
    '        msg.sender.call{value: amount}("");\n        balances[msg.sender] -= amount;\n',
    '        balances[msg.sender] -= amount;\n        (bool ok, ) = msg.sender.call{value: amount}("");\n'
    '        require(ok, "transfer failed");\n',
)
SCRIPTED = presign_fixture.scripted_responses()
# the stages each stage needs to have succeeded before it runs
NEEDS = {"advise": {"detect"}, "assess": {"detect"}, "fix": {"advise", "assess"}, "verify": {"fix"}}


def responder(role: str, prompt: str) -> str:
    if role == "detector":
        if "LendingPool" not in prompt:
            return presign_fixture.safe_detector_response()
        return json.dumps({
            "verdict": "vulnerable",
            "score": 0.9,
            "findings": [{"class": "Reentrancy", "function": "withdraw", "evidence": "msg.sender.call"}],
        })
    if role == "fixer":
        return json.dumps({"repaired_source": PATCHED_MULTI, "rationale": "Effects before the call."})
    return SCRIPTED[role]


def faulty(seed: int, model_id: str) -> FaultInjectingProvider:
    return FaultInjectingProvider(TranscriptRecorder(responder, model_id=model_id), seed)


def test_multi_vuln_fixture_has_several_findings():
    ctx, _ = presign_fixture.recording_context()
    ctx = replace(ctx, providers={role: TranscriptRecorder(responder, role) for role in ctx.providers})
    run = run_pipeline(load_file(CONTRACTS["multi"], "multi"), ctx)
    assert len(run.findings) >= 3
    assert run.errors == {}


def audit_outcome(runner, config: Path, out_dir: Path, jobs: int) -> tuple[str, dict[str, bytes]]:
    shutil.rmtree(out_dir, ignore_errors=True)
    paths = [str(p) for p in CONTRACTS.values()]
    result = runner.invoke(main, ["audit", *paths, "-c", str(config), "--jobs", str(jobs)])
    assert isinstance(result.exception, (SystemExit, type(None))), result.exception
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    for contract_id in ("multi_vuln", "safe"):
        outcome = [line for line in lines if line.startswith(f"{contract_id}: ")]
        assert len(outcome) == 1, result.output
    assert "processed 2/2 contracts" in result.output
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    records = [json.loads(files[f"{contract_id}.run.json"]) for contract_id in ("multi_vuln", "safe")]
    assert {"multi_vuln.report.md", "safe.report.md"} <= set(files)
    assert result.exit_code == (1 if any(r["errors"] for r in records) else 0), result.output
    return result.stdout + result.stderr, files


BASE_CONTEXT, _ = presign_fixture.recording_context()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_run_ends_with_a_report(seed):
    ctx = replace(BASE_CONTEXT, providers={role: faulty(seed, role) for role in BASE_CONTEXT.providers})
    for contract_id, path in CONTRACTS.items():
        run = run_pipeline(load_file(path, contract_id), ctx)
        assert isinstance(run, PipelineRun)
        assert run.report is not None and len(run.report.sections) == 7
        assert run.stages[-1] == "report" and not set(run.errors) & set(run.stages)
        for stage in run.stages:
            assert NEEDS.get(stage, set()) <= set(run.stages), run.stages


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_contract_ends_with_a_recorded_outcome(seed, runner, built_index_root, tmp_path):
    out_dir = tmp_path / f"out-{seed}"
    config = write_pipeline_config(
        tmp_path / "cfg.yaml", built_index_root, out_dir, FIXTURES / "presign_transcript.jsonl"
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "solguard.agents.pipeline.build_provider",
            lambda config, exchange_log=None: faulty(seed, config.model_id),
        )
        sequential = audit_outcome(runner, config, out_dir, jobs=1)
        parallel = audit_outcome(runner, config, out_dir, jobs=2)
        again = audit_outcome(runner, config, out_dir, jobs=2)
    assert parallel == sequential
    assert again == parallel
