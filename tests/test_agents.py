from __future__ import annotations

import importlib
import itertools
import json
import random
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from solguard.agents.config import FusionWeights, PipelineConfig, apply_overrides, load_config, parse_config
from solguard.agents.detect import (
    build_detection_prompt,
    fuse_channels,
    model_channel,
    weighted_score,
)
from solguard.agents.pipeline import PipelineRun, run_pipeline
from solguard.agents.remediate import (
    RiskAssignment,
    advise,
    assess,
    build_advisor_prompt,
    fix,
    verify,
)
from solguard.core import (
    Channel,
    ChannelResult,
    Finding,
    Location,
    Patch,
    RepairSuggestion,
    RiskLevel,
    Span,
    Verdict,
    VulnerabilityClass,
)
from solguard.errors import ConfigError, PipelineError, TransportError
from solguard.llm.mock import TranscriptRecorder
from solguard.llm.provider import ProviderConfig
from solguard.retrieval.tfidf import top_k
from solguard.static_analysis.rules import default_ruleset
from solguard.static_analysis.scanner import load_file, load_source

import presign_fixture

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def channel_result(channel: Channel, score: float, threshold: float = 0.5) -> ChannelResult:
    verdict = Verdict.VULNERABLE if score >= threshold else Verdict.SAFE
    return ChannelResult(channel=channel, verdict=verdict, score=score)


def channels_for(s_static: float, s_retrieval: float, s_model: float):
    return {
        Channel.STATIC: channel_result(Channel.STATIC, s_static),
        Channel.RETRIEVAL: channel_result(Channel.RETRIEVAL, s_retrieval),
        Channel.MODEL: channel_result(Channel.MODEL, s_model),
    }


class TestFusion:
    def test_worked_weighted_example(self):
        weights = FusionWeights(model=0.7, static=0.1, retrieval=0.2)
        fused = fuse_channels(channels_for(1.0, 0.6, 0.9), "weighted", weights, 0.5)
        assert fused.score == pytest.approx(0.85, abs=1e-12)
        assert fused.verdict is Verdict.VULNERABLE

    def test_voting_majority(self):
        fused = fuse_channels(channels_for(0.9, 0.2, 0.8), "voting", FusionWeights(), 0.5)
        assert fused.verdict is Verdict.VULNERABLE  # two of three vote vulnerable

    def test_voting_exhaustive_against_majority_oracle(self):
        for v_static, v_retrieval, v_model in itertools.product([0.0, 1.0], repeat=3):
            fused = fuse_channels(
                channels_for(v_static, v_retrieval, v_model), "voting", FusionWeights(), 0.5
            )
            majority = (v_static + v_retrieval + v_model) >= 2
            assert (fused.verdict is Verdict.VULNERABLE) == majority

    def test_all_zero_safe_in_both_modes(self):
        for mode in ("weighted", "voting"):
            fused = fuse_channels(channels_for(0.0, 0.0, 0.0), mode, FusionWeights(), 0.5)
            assert fused.verdict is Verdict.SAFE
            assert fused.score == 0.0

    def test_model_only_weights_reduce_to_model_verdict(self):
        weights = FusionWeights(model=1.0, static=0.0, retrieval=0.0)
        rng = random.Random(4)
        for _ in range(200):
            s = [rng.random() for _ in range(3)]
            t = rng.random()
            fused = fuse_channels(channels_for(s[0], s[1], s[2]), "weighted", weights, t)
            assert fused.score == pytest.approx(s[2], abs=1e-12)
            assert (fused.verdict is Verdict.VULNERABLE) == (s[2] >= t)

    def test_monotone_in_each_channel(self):
        weights = FusionWeights()
        rng = random.Random(5)
        for _ in range(200):
            base = [rng.random() for _ in range(3)]
            base_score = weighted_score(weights, base[2], base[0], base[1])
            for i in range(3):
                bumped = list(base)
                bumped[i] = min(1.0, bumped[i] + rng.random() * (1 - bumped[i]))
                new_score = weighted_score(weights, bumped[2], bumped[0], bumped[1])
                assert new_score >= base_score - 1e-12

    def test_channel_results_ordered_static_retrieval_model(self):
        fused = fuse_channels(channels_for(0.1, 0.2, 0.3), "weighted", FusionWeights(), 0.5)
        assert [c.channel for c in fused.channel_results] == [
            Channel.STATIC, Channel.RETRIEVAL, Channel.MODEL,
        ]


class TestFusionWeights:
    def test_defaults(self):
        w = FusionWeights()
        assert (w.model, w.static, w.retrieval) == (0.7, 0.1, 0.2)

    def test_sum_validation(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            FusionWeights(model=0.7, static=0.2, retrieval=0.2)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match=r"weights channel static must be a number in \[0, 1\]"):
            parse_config({"weights": {"model": 1.0, "static": -0.4, "retrieval": 0.4}})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ConfigError, match=r"weights channel model must be a number in \[0, 1\]"):
            parse_config({"weights": {"model": value, "static": 0.1, "retrieval": 0.2}})

    def test_proportional_renormalization_without_static(self):
        w = FusionWeights().without("static")
        assert w.model == pytest.approx(0.7 / 0.9, abs=1e-12)
        assert w.static == 0.0
        assert w.retrieval == pytest.approx(0.2 / 0.9, abs=1e-12)

    def test_renormalization_without_retrieval(self):
        w = FusionWeights().without("retrieval")
        assert w.model == pytest.approx(0.7 / 0.8, abs=1e-12)
        assert w.static == pytest.approx(0.1 / 0.8, abs=1e-12)


class TestDetectionPrompt:
    def test_default_mode_excludes_channel_outputs(self):
        contract = load_file(FIXTURES / "presign.sol", "presign")
        prompt = build_detection_prompt(contract, "weighted")
        assert "Similar contracts" not in prompt
        assert "Reference notes" not in prompt
        assert contract.source in prompt

    def test_enriched_mode_injects_neighbors_and_notes(self):
        ctx, _ = presign_fixture.recording_context()
        contract = load_file(FIXTURES / "presign.sol", "presign")
        prompt = build_detection_prompt(
            contract, "enriched", top_k(contract, ctx.corpus_index, ctx.config.k), ctx.kb_index
        )
        assert "Similar contracts from the audit corpus:" in prompt
        assert "corp-presign-registry" in prompt
        assert "Reference notes:" in prompt


class TestModelChannel:
    def test_verdict_follows_score_threshold(self):
        contract = load_source("c", "contract C {}")
        recorder = TranscriptRecorder(
            lambda role, prompt: json.dumps({"verdict": "vulnerable", "score": 0.4, "findings": []})
        )
        result = model_channel(contract, recorder, channel_threshold=0.5)
        assert result.verdict is Verdict.SAFE  # score authoritative over stated verdict
        assert result.score == pytest.approx(0.4)

    def test_score_clamped_and_findings_localized(self):
        source = (FIXTURES / "presign.sol").read_text(encoding="utf-8")
        contract = load_source("presign", source)
        recorder = TranscriptRecorder(
            lambda role, prompt: json.dumps(
                {
                    "verdict": "vulnerable",
                    "score": 1.7,
                    "findings": [
                        {"class": "Unprotected Function", "function": "preSign", "evidence": "e"},
                        {"class": "Ghost", "function": "doesNotExist", "evidence": "e"},
                    ],
                }
            )
        )
        result = model_channel(contract, recorder)
        assert result.score == 1.0
        presign_finding = result.findings[0]
        assert presign_finding.location.function == "preSign"
        assert presign_finding.location.span.end > presign_finding.location.span.start
        ghost = result.findings[1]
        assert ghost.location.span == Span(0, len(source.encode()))


def _finding(cls: str, function: str, start: int = 0, contract_id: str = "presign") -> Finding:
    return Finding(
        contract_id=contract_id,
        vuln_class=VulnerabilityClass(cls),
        location=Location(Span(start, start + 10), function),
        evidence="evidence line",
        channel=Channel.STATIC,
        confidence=0.9,
    )


class TestAdvise:
    def test_empty_findings_rejected(self):
        contract = load_source("c", "contract C {}")
        recorder = TranscriptRecorder(lambda role, prompt: "{}")
        with pytest.raises(PipelineError, match="at least one finding"):
            advise(contract, [], None, recorder)

    def test_no_kb_marks_background_slot(self):
        contract = load_source("c", "contract C {}")
        prompt = build_advisor_prompt(contract, _finding("Reentrancy", "f", contract_id="c"), None)
        assert "no references found" in prompt

    def test_extraction_failure_yields_incomplete_suggestion(self):
        contract = load_source("c", "contract C {}")
        recorder = TranscriptRecorder(lambda role, prompt: "not json at all")
        suggestions = advise(contract, [_finding("Reentrancy", "f", contract_id="c")], None, recorder)
        assert len(suggestions) == 1
        assert not suggestions[0].complete

    @pytest.mark.parametrize("field", ["cause_analysis", "repair_steps"])
    def test_reply_with_an_empty_field_yields_incomplete_suggestion(self, field):
        reply = {
            "vulnerability_name": "Reentrancy",
            "cause_analysis": "state written after the call",
            "impact_assessment": "funds drained",
            "repair_steps": ["move the write before the call"],
            "preventive_measures": ["checks-effects-interactions"],
        }
        reply[field] = [] if field == "repair_steps" else ""
        contract = load_source("c", "contract C {}")
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps(reply))
        suggestions = advise(contract, [_finding("Reentrancy", "f", contract_id="c")], None, recorder)
        assert len(suggestions) == 1
        assert not suggestions[0].complete


class TestAssess:
    def test_invalid_level_defaults_to_high_with_flag(self):
        contract = load_source("c", "contract C {}")
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"level": "Catastrophic"}))
        assignments, distribution = assess(
            contract, [_finding("Reentrancy", "f", contract_id="c")], [], None, recorder
        )
        assert assignments[0].level is RiskLevel.HIGH
        assert assignments[0].defaulted
        assert distribution == {"Critical": 0, "High": 1, "Medium": 0, "Low": 0}

    def test_zero_findings_empty_distribution(self):
        contract = load_source("c", "contract C {}")
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"level": "Low"}))
        assignments, distribution = assess(contract, [], [], None, recorder)
        assert assignments == []
        assert distribution == {"Critical": 0, "High": 0, "Medium": 0, "Low": 0}

    def test_distribution_counts(self):
        contract = load_source("c", "contract C {}")
        levels = iter(["Critical", "Low", "Low"])
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"level": next(levels)}))
        findings = [_finding("A", "f", 0, "c"), _finding("B", "g", 20, "c"), _finding("C", "h", 40, "c")]
        _, distribution = assess(contract, findings, [], None, recorder)
        assert distribution == {"Critical": 1, "High": 0, "Medium": 0, "Low": 2}


def _repair_order(assignments: list[RiskAssignment]) -> list[str]:
    """Functions in the order the fixer prompt numbers their findings."""
    prompts: list[str] = []

    def reply(role, prompt):
        prompts.append(prompt)
        return json.dumps({"repaired_source": "contract C {}", "rationale": "r"})

    suggestions = [RepairSuggestion("", "", "", (), (), a.finding, complete=False) for a in assignments]
    fix(load_source("c", "contract C {}"), suggestions, assignments, TranscriptRecorder(reply))
    return re.findall(r"^\d+\. \[\w+\] \w+ in (\w+):", prompts[0], re.MULTILINE)


class TestPrioritize:
    def test_critical_before_medium_regardless_of_position(self):
        medium = RiskAssignment(_finding("A", "f", start=40), RiskLevel.MEDIUM)
        critical = RiskAssignment(_finding("B", "g", start=900), RiskLevel.CRITICAL)
        assert _repair_order([medium, critical]) == ["g", "f"]

    def test_single_assignment_identity(self):
        only = RiskAssignment(_finding("A", "f"), RiskLevel.LOW)
        assert _repair_order([only]) == ["f"]

    def test_location_breaks_ties(self):
        first = RiskAssignment(_finding("A", "f", start=10), RiskLevel.HIGH)
        second = RiskAssignment(_finding("B", "g", start=500), RiskLevel.HIGH)
        assert _repair_order([second, first]) == ["f", "g"]


class TestVerify:
    def test_selfdestruct_in_patch_fails_with_new_issue(self):
        contract = load_file(FIXTURES / "presign.sol", "presign")
        findings = [_finding("Unprotected Function", "preSign")]
        bad_source = (FIXTURES / "presign_patched.sol").read_text(encoding="utf-8").replace(
            "emit PreSignature(msg.sender, orderUid, signed);",
            "emit PreSignature(msg.sender, orderUid, signed);\n    }\n\n"
            "    function scrap() external {\n        selfdestruct(payable(msg.sender));",
        )
        patch = Patch(
            original="presign",
            repaired_source=bad_source,
            addressed_findings=tuple(findings),
            rationale="adds a backdoor",
        )
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"passed": True, "new_issues": []}))
        result = verify(contract, patch, findings, default_ruleset(), recorder)
        assert not result.passed
        assert "Unprotected Selfdestruct" in {f.vuln_class.name for f in result.new_issues}

    def test_model_rejection_fails_even_when_rescan_clean(self):
        contract = load_file(FIXTURES / "presign.sol", "presign")
        findings = [_finding("Unprotected Function", "preSign")]
        patch = Patch(
            original="presign",
            repaired_source=(FIXTURES / "presign_patched.sol").read_text(encoding="utf-8"),
            addressed_findings=tuple(findings),
            rationale="owner guard",
        )
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"passed": False, "new_issues": []}))
        result = verify(contract, patch, findings, default_ruleset(), recorder)
        assert not result.passed
        assert result.eliminated == tuple(findings)  # rescan confirms elimination


class TestConfigValidation:
    def _payload(self, **overrides):
        payload = {
            "providers": {
                "detector": {"kind": "mock", "model_id": "a", "transcript": "t.jsonl"},
                "base": {"kind": "mock", "model_id": "b", "transcript": "t.jsonl"},
                "fixer": {"kind": "mock", "model_id": "fix", "transcript": "t.jsonl"},
                "verifier": {"kind": "mock", "model_id": "ver", "transcript": "t.jsonl"},
            }
        }
        payload.update(overrides)
        return payload

    def test_verifier_must_differ_from_fixer(self):
        payload = self._payload()
        payload["providers"]["verifier"]["model_id"] = "fix"
        with pytest.raises(ConfigError, match="different model"):
            parse_config(payload)

    def test_verifier_vs_base_fixer_fallback(self):
        payload = self._payload()
        del payload["providers"]["fixer"]  # fixer falls back to base
        payload["providers"]["verifier"]["model_id"] = "b"
        with pytest.raises(ConfigError, match="different model"):
            parse_config(payload)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config(self._payload(weights={"model": 0.5, "static": 0.1, "retrieval": 0.2}))

    @pytest.mark.parametrize("key", ["index_root", "output_dir", "ruleset", "exchange_log"])
    @pytest.mark.parametrize("value", [5, ["a"]])
    def test_path_that_is_not_a_string_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be a path"):
            parse_config(self._payload(**{key: value}), base_dir=Path("."))

    def test_transcript_that_is_not_a_string_rejected(self):
        payload = self._payload()
        payload["providers"]["detector"]["transcript"] = 5
        with pytest.raises(ConfigError, match="transcript must be a path"):
            parse_config(payload, base_dir=Path("."))

    @pytest.mark.parametrize("providers", [["x"], "detector"])
    def test_providers_that_are_not_a_mapping_rejected(self, providers):
        with pytest.raises(ConfigError, match="providers must be a mapping"):
            parse_config(self._payload(providers=providers))

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError, match="configuration key k must be a whole number >= 1, got 0"):
            parse_config(self._payload(k=0))

    @pytest.mark.parametrize("key", ["threshold", "channel_threshold"])
    @pytest.mark.parametrize("value", [7, -0.1, float("nan")])
    def test_thresholds_outside_unit_interval_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"configuration key {key} must be a number in \[0, 1\]"):
            parse_config(self._payload(**{key: value}))

    @pytest.mark.parametrize("k", [2.5, True, float("nan")])
    def test_k_must_be_a_whole_number(self, k):
        with pytest.raises(ConfigError, match="k must be"):
            parse_config(self._payload(k=k))

    @pytest.mark.parametrize("key", ["threshold", "channel_threshold"])
    def test_boolean_threshold_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            parse_config(self._payload(**{key: True}))

    def test_boolean_weight_rejected(self):
        with pytest.raises(ConfigError, match="weights channel model must be a number"):
            parse_config(self._payload(weights={"model": True, "static": 0, "retrieval": 0}))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(self._payload(mode="psychic"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'surprise'"):
            parse_config(self._payload(surprise=1))

    # sorting the unknown keys of a mapping that mixes int and str keys used
    # to raise a TypeError instead of naming the key
    def test_int_key_beside_str_keys_is_named_at_the_top_level(self):
        with pytest.raises(ConfigError, match="unknown configuration key 1$"):
            parse_config({**self._payload(), 1: "a", "foo": "b"})

    def test_int_key_beside_str_keys_is_named_as_a_provider_role(self):
        payload = self._payload()
        payload["providers"].update({1: {"kind": "mock"}, "foo": {"kind": "mock"}})
        with pytest.raises(ConfigError, match="unknown providers role 1$"):
            parse_config(payload)

    def test_int_key_beside_str_keys_is_named_inside_a_provider(self):
        payload = self._payload()
        payload["providers"]["detector"].update({1: "a", "foo": "b"})
        with pytest.raises(ConfigError, match="unknown detector provider key 1$"):
            parse_config(payload)

    def test_file_config_errors_name_the_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("threshold: '0.5'\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: configuration key threshold must be a number")):
            load_config(path)

    def test_absent_keys_take_the_dataclass_defaults(self):
        assert parse_config({}) == PipelineConfig()
        provider = {"kind": "mock", "model_id": "m", "transcript": "t.jsonl"}
        assert parse_config({"providers": {"detector": provider}}).providers["detector"] == ProviderConfig(**provider)

    @pytest.mark.parametrize(
        "overrides, complaint",
        [
            ({"threshold": 1.5}, "configuration key threshold must be a number in [0, 1], got 1.5"),
            ({"k": 0}, "configuration key k must be a whole number >= 1, got 0"),
            ({"mode": "psychic"}, "configuration key mode must be weighted|voting|enriched, got 'psychic'"),
            (
                {"weights": {"model": 0.5, "static": True, "retrieval": 0.5}},
                "weights channel static must be a number in [0, 1], got True",
            ),
            ({"weights": {"model": 0.5, "static": 0.1, "retrieval": 0.2}}, "fusion weights must sum to 1"),
        ],
    )
    def test_overrides_parse_through_the_same_fields(self, overrides, complaint):
        with pytest.raises(ConfigError, match=re.escape(complaint)):
            apply_overrides(parse_config(self._payload()), **overrides)

    def test_overrides_replace_only_the_given_keys(self):
        config = parse_config(self._payload())
        weights = {"model": 1, "static": 0, "retrieval": 0}
        changed = apply_overrides(config, threshold=1, k=3, weights=weights, output_dir="rel/out")
        assert changed == replace(
            config, threshold=1.0, k=3, weights=FusionWeights(1.0, 0.0, 0.0), output_dir="rel/out"
        )
        assert apply_overrides(config) is config


class TestPipeline:
    def test_presign_full_run(self):
        ctx, _ = presign_fixture.recording_context()
        contract = load_file(FIXTURES / "presign.sol", "presign")
        run = run_pipeline(contract, ctx)
        assert run.fused.verdict is Verdict.VULNERABLE
        assert run.stages == ("detect", "advise", "assess", "fix", "verify", "report")
        assert [a.level for a in run.risk_assignments] == [RiskLevel.CRITICAL]
        assert "require(msg.sender == owner" in run.patch.repaired_source
        assert run.verification.passed
        assert run.report is not None
        assert run.errors == {}

    def test_safe_contract_runs_detect_and_report_only(self):
        responses = presign_fixture.scripted_responses()
        responses["detector"] = presign_fixture.safe_detector_response()
        ctx, _ = presign_fixture.recording_context(responses)
        contract = load_file(FIXTURES / "safe.sol", "safe")
        run = run_pipeline(contract, ctx)
        assert run.fused.verdict is Verdict.SAFE
        assert run.stages == ("detect", "report")
        assert run.findings == ()
        assert run.patch is None and run.verification is None

    def test_missing_fixer_response_degrades_gracefully(self):
        responses = presign_fixture.scripted_responses()

        def responder(role: str, prompt: str) -> str:
            if role == "fixer":
                return "UNKNOWN"
            return responses[role]

        ctx, _ = presign_fixture.recording_context()
        broken = {role: TranscriptRecorder(responder, model_id=f"{role}-m") for role in ctx.providers}
        ctx = type(ctx)(
            config=ctx.config,
            ruleset=ctx.ruleset,
            corpus_index=ctx.corpus_index,
            kb_index=ctx.kb_index,
            providers=dict(broken),
        )
        contract = load_file(FIXTURES / "presign.sol", "presign")
        run = run_pipeline(contract, ctx)
        assert "fix" in run.errors
        assert run.patch is None
        assert run.stages == ("detect", "advise", "assess", "report")
        assert run.report is not None
        assert len(run.suggestions) == 1  # earlier stages intact

    @pytest.mark.parametrize(
        "role, stage, stages",
        [
            ("detector", "detect", ("report",)),
            ("advisor", "advise", ("detect", "assess", "report")),
            ("assessor", "assess", ("detect", "advise", "report")),
            ("verifier", "verify", ("detect", "advise", "assess", "fix", "report")),
        ],
    )
    def test_failed_stage_skips_only_the_stages_that_need_it(self, role, stage, stages):
        responses = presign_fixture.scripted_responses()

        def responder(asked: str, prompt: str) -> str:
            if asked == role:
                raise TransportError(f"{role} server error 503")
            return responses[asked]

        ctx, _ = presign_fixture.recording_context()
        ctx = replace(ctx, providers={r: TranscriptRecorder(responder, model_id=f"{r}-m") for r in ctx.providers})
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert list(run.errors) == [stage]
        assert f"{role} server error 503" in run.errors[stage]
        assert run.stages == stages
        assert set(run.timings) == set(stages) | {stage}  # skipped stages never start
        assert len(run.report.sections) == 7
        assert f"Stages with errors: {stage}" in run.report.sections[1].body
        assert (run.patch is not None) == (stage == "verify")
        assert run.verification is None
        if stage == "detect":
            channels = [c["channel"] for c in run.to_payload()["verdict"]["channels"]]
            assert channels == ["static", "retrieval"]
            static, retrieval = run.fused.channel_results
            renormalized = ctx.config.weights.without("model")
            assert run.fused.score == weighted_score(renormalized, 0.0, static.score, retrieval.score)

    def test_stage_timings_recorded_in_memory_but_not_serialized(self):
        ctx, _ = presign_fixture.recording_context()
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert set(run.timings) >= {"detect", "report"}
        assert "timings" not in run.to_payload()

    def test_report_sections_for_presign(self):
        ctx, _ = presign_fixture.recording_context()
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        in_depth = run.report.sections[4]
        assert in_depth.title == "In-Depth Analysis Report"
        assert "Unprotected Function" in in_depth.body
        assert "Critical" in in_depth.body

    def test_safe_report_has_seven_sections_and_empty_summary(self):
        responses = presign_fixture.scripted_responses()
        responses["detector"] = presign_fixture.safe_detector_response()
        ctx, _ = presign_fixture.recording_context(responses)
        run = run_pipeline(load_file(FIXTURES / "safe.sol", "safe"), ctx)
        assert len(run.report.sections) == 7
        assert "No vulnerabilities were found." in run.report.sections[3].body

    def test_each_source_is_lexed_and_viewed_once(self, monkeypatch):
        ctx, _ = presign_fixture.recording_context()
        calls: dict[str, list] = {
            "tokenize_solidity": [], "build_view": [], "collect_state_variables": [], "parse_pragma": []
        }
        for module_name, name in (
            ("solguard.static_analysis.tokenizer", "tokenize_solidity"),
            ("solguard.static_analysis.structure", "build_view"),
            ("solguard.static_analysis.structure", "collect_state_variables"),
            ("solguard.static_analysis.structure", "parse_pragma"),
        ):
            original = getattr(importlib.import_module(module_name), name)

            def counted(arg, _original=original, _calls=calls[name]):
                _calls.append(arg)
                return _original(arg)

            # patch every module that imported the function by name
            for module_key, module in list(sys.modules.items()):
                if module_key.startswith("solguard") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        contract = load_file(FIXTURES / "presign.sol", "presign")
        run = run_pipeline(contract, ctx)
        assert run.verification is not None
        original_source = (FIXTURES / "presign.sol").read_text(encoding="utf-8")
        assert calls["tokenize_solidity"] == [original_source, run.patch.repaired_source]
        assert len(calls["build_view"]) == 2
        # one state-variable pass and one pragma read per view
        streams = [contract.token_stream, run.patch.repaired.token_stream]
        assert calls["collect_state_variables"] == streams
        assert calls["parse_pragma"] == streams

    def test_deterministic_output_across_runs(self):
        ctx, _ = presign_fixture.recording_context()
        contract = load_file(FIXTURES / "presign.sol", "presign")
        first = run_pipeline(contract, ctx)
        second = run_pipeline(contract, ctx)
        assert json.dumps(first.to_payload(), sort_keys=True) == json.dumps(
            second.to_payload(), sort_keys=True
        )
        assert first.report.to_markdown() == second.report.to_markdown()


class TestPipelineRunAlignment:
    def _fused(self):
        return fuse_channels(channels_for(0.9, 0.6, 0.9), "weighted", FusionWeights(), 0.5)

    @pytest.mark.parametrize("order", [(1, 0), (0,)])
    def test_entries_out_of_findings_order_or_count_rejected(self, order):
        findings = (_finding("A", "f", 0), _finding("B", "g", 20))
        assignments = tuple(RiskAssignment(findings[i], RiskLevel.HIGH) for i in order)
        with pytest.raises(ValueError, match="one entry per finding"):
            PipelineRun("presign", self._fused(), findings=findings, risk_assignments=assignments)

    def test_aligned_or_empty_entries_accepted(self):
        first = _finding("A", "f", 0)
        assignment = RiskAssignment(first, RiskLevel.HIGH)
        run = PipelineRun("presign", self._fused(), findings=(first,), risk_assignments=(assignment,))
        assert run.per_finding() == [(first, None, assignment)]


class TestFixFailurePaths:
    def test_untokenizable_patch_after_retry_records_fix_error(self):
        responses = presign_fixture.scripted_responses()
        responses["fixer"] = json.dumps(
            {"repaired_source": 'contract Broken { string s = "unterminated; }', "rationale": "r"}
        )
        ctx, _ = presign_fixture.recording_context(responses)
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert "fix" in run.errors
        assert "tokenize" in run.errors["fix"]
        assert run.patch is None
        assert run.stages == ("detect", "advise", "assess", "report")
        assert run.report is not None

    def test_unsegmentable_patch_after_retry_records_fix_error(self):
        responses = presign_fixture.scripted_responses()
        responses["fixer"] = json.dumps(
            {"repaired_source": "pragma solidity ^0.8.0;\ncontract A { function f() public {", "rationale": "r"}
        )
        ctx, recorders = presign_fixture.recording_context(responses)
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert run.errors == {
            "fix": "presign: repaired source does not segment: unbalanced braces at bytes 57..58"
        }
        assert len(recorders["fixer"].entries) == 2  # one repair retry
        assert run.patch is None
        assert run.stages == ("detect", "advise", "assess", "report")
        assert run.report is not None

    def test_untokenizable_then_repaired_patch_succeeds(self):
        responses = presign_fixture.scripted_responses()
        good = responses["fixer"]
        queue = [
            json.dumps({"repaired_source": 'contract B { string s = "oops; }', "rationale": "r"}),
            good,
        ]

        def responder(role: str, prompt: str) -> str:
            if role == "fixer":
                return queue.pop(0)
            return responses[role]

        ctx, _ = presign_fixture.recording_context()
        patched_providers = {
            role: TranscriptRecorder(responder, model_id=f"{role}-m") for role in ctx.providers
        }
        ctx = type(ctx)(
            config=ctx.config,
            ruleset=ctx.ruleset,
            corpus_index=ctx.corpus_index,
            kb_index=ctx.kb_index,
            providers=patched_providers,
        )
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert run.errors == {}
        assert run.patch is not None
        assert queue == []  # both scripted fixer responses consumed


class TestFusedVerdictAccessor:
    def test_channel_lookup(self):
        fused = fuse_channels(channels_for(0.1, 0.2, 0.3), "weighted", FusionWeights(), 0.5)
        assert fused.channel(Channel.MODEL).score == pytest.approx(0.3)
        with pytest.raises(KeyError):
            fuse_channels(
                {Channel.MODEL: channel_result(Channel.MODEL, 0.3)},
                "weighted",
                FusionWeights(model=1.0, static=0.0, retrieval=0.0),
                0.5,
            ).channel(Channel.STATIC)
