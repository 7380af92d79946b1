"""Builders for the end-to-end preSign fixture.

The shipped transcript (fixtures/presign_transcript.jsonl) is produced by
running the real pipeline once with scripted stage responses through a
TranscriptRecorder, so its fingerprints always match the prompts the
pipeline actually renders. Regenerate with tools/regen_fixtures.py after
changing prompt templates.
"""

from __future__ import annotations

import json
from pathlib import Path

from solguard.agents.config import FusionWeights, PipelineConfig
from solguard.agents.pipeline import PipelineContext, PipelineRun, run_pipeline
from solguard.llm.mock import TranscriptRecorder
from solguard.llm.provider import ProviderConfig
from solguard.retrieval.kb import HashingEmbedder, build_kb_index, load_kb_documents
from solguard.retrieval.tfidf import build_corpus_index, load_corpus_file
from solguard.static_analysis.rules import default_ruleset
from solguard.static_analysis.scanner import load_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ROLE_MODELS = {
    "detector": "detector-sim",
    "advisor": "base-sim",
    "assessor": "base-sim",
    "fixer": "base-sim",
    "verifier": "verifier-sim",
}


def scripted_responses() -> dict[str, str]:
    """Canned stage outputs for the preSign contract, keyed by role."""
    patched_source = (FIXTURES / "presign_patched.sol").read_text(encoding="utf-8")
    return {
        "detector": json.dumps(
            {
                "verdict": "vulnerable",
                "score": 0.9,
                "findings": [
                    {
                        "class": "Unprotected Function",
                        "function": "preSign",
                        "evidence": "preSignatures[orderUid] = signed ? 1 : 0;",
                    }
                ],
            }
        ),
        "advisor": json.dumps(
            {
                "vulnerability_name": "Unprotected Function",
                "cause_analysis": (
                    "preSign is external and writes to the preSignatures mapping "
                    "without any caller check, so any account can set or clear "
                    "pre-signatures for arbitrary order identifiers."
                ),
                "impact_assessment": (
                    "An attacker can mark arbitrary orders as pre-signed and trigger "
                    "settlements the owner never approved, leading to theft of the "
                    "assets those orders move."
                ),
                "repair_steps": [
                    "Restrict preSign to the contract owner with require(msg.sender == owner).",
                    "Alternatively add an onlyOwner modifier and apply it to preSign.",
                    "Re-audit the settlement path that consumes preSignatures.",
                ],
                "preventive_measures": [
                    "Gate every state-changing external function behind access control.",
                    "Add and monitor events on privileged state changes.",
                ],
            }
        ),
        "assessor": json.dumps({"level": "Critical"}),
        "fixer": json.dumps(
            {
                "repaired_source": patched_source,
                "rationale": (
                    "Added require(msg.sender == owner) at the top of preSign so only "
                    "the contract owner can set pre-signatures; no other behavior changed."
                ),
            }
        ),
        "verifier": json.dumps({"passed": True, "new_issues": []}),
    }


def fixture_config(index_root: str, output_dir: str, transcript: str) -> PipelineConfig:
    providers = {
        role_or_base: ProviderConfig(kind="mock", model_id=model, transcript=transcript)
        for role_or_base, model in (
            ("detector", "detector-sim"),
            ("base", "base-sim"),
            ("verifier", "verifier-sim"),
        )
    }
    return PipelineConfig(
        mode="weighted",
        weights=FusionWeights(),
        threshold=0.5,
        k=5,
        index_root=index_root,
        output_dir=output_dir,
        providers=providers,
    )


def safe_detector_response() -> str:
    return json.dumps({"verdict": "safe", "score": 0.0, "findings": []})


def recording_context(
    responses: dict[str, str] | None = None,
) -> tuple[PipelineContext, dict[str, TranscriptRecorder]]:
    """Pipeline context whose providers record (role, fingerprint, response).

    The default responses script the preSign walkthrough; pass overrides to
    reuse the same context against other contracts.
    """
    responses = responses or scripted_responses()
    recorders = {
        role: TranscriptRecorder(
            lambda _role, _prompt, role=role: responses[role], model_id=model
        )
        for role, model in ROLE_MODELS.items()
    }
    corpus_index = build_corpus_index(load_corpus_file(FIXTURES / "corpus.jsonl"))
    kb_index = build_kb_index(load_kb_documents(FIXTURES / "kb_docs"), HashingEmbedder())
    config = PipelineConfig(providers={
        "detector": ProviderConfig(kind="mock", model_id="detector-sim", transcript="<recording>"),
        "base": ProviderConfig(kind="mock", model_id="base-sim", transcript="<recording>"),
        "verifier": ProviderConfig(kind="mock", model_id="verifier-sim", transcript="<recording>"),
    })
    ctx = PipelineContext(
        config=config,
        ruleset=default_ruleset(),
        corpus_index=corpus_index,
        kb_index=kb_index,
        providers=dict(recorders),
    )
    return ctx, recorders


def build_transcript() -> tuple[str, PipelineRun]:
    """Run the pipeline over presign.sol (and the safe fixture) with scripted
    responses; return the transcript text and the presign run."""
    ctx, recorders = recording_context()
    contract = load_file(FIXTURES / "presign.sol", "presign")
    run = run_pipeline(contract, ctx)

    safe_responses = scripted_responses()
    safe_responses["detector"] = safe_detector_response()
    safe_ctx, safe_recorders = recording_context(safe_responses)
    run_pipeline(load_file(FIXTURES / "safe.sol", "safe"), safe_ctx)

    lines: list[str] = []
    seen: set[str] = set()
    for source in (recorders, safe_recorders):
        for role in ("detector", "advisor", "assessor", "fixer", "verifier"):
            for entry in source[role].entries:
                line = json.dumps(entry, sort_keys=True)
                if line not in seen:
                    seen.add(line)
                    lines.append(line)
    return "\n".join(lines) + "\n", run


def write_transcript(path: Path | None = None) -> Path:
    target = path or (FIXTURES / "presign_transcript.jsonl")
    text, run = build_transcript()
    assert run.verification is not None and run.verification.passed, (
        "scripted preSign pipeline must verify cleanly before freezing the transcript"
    )
    target.write_text(text, encoding="utf-8")
    return target
