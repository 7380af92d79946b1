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
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.agents.config import MODES, FusionWeights, PipelineConfig, apply_overrides, load_config, parse_config
from solguard.agents.detect import (
    FusedVerdict,
    actionable_findings,
    build_detection_prompt,
    fuse_channels,
    model_channel,
    weighted_score,
)
from solguard.agents.pipeline import PipelineRun, build_context, run_pipeline
from solguard.agents.remediate import (
    RiskAssignment,
    advise,
    assess,
    build_advisor_prompt,
    fix,
    verify,
)
from solguard.core import (
    REPORT_SECTION_TITLES,
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
from solguard.errors import ConfigError, TransportError
from solguard.llm.mock import TranscriptRecorder
from solguard.llm.provider import ProviderConfig
from solguard.retrieval.tfidf import build_corpus_index, top_k
from solguard.static_analysis.rules import default_ruleset
from solguard.static_analysis.scanner import load_file, load_source, scan, static_channel

import presign_fixture
from conftest import risk_distribution

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


def _renormalized_without(weights: FusionWeights, dropped: str) -> FusionWeights:
    """The oracle for an absent channel: the weights that were renormalized
    by hand before fusion, with the dropped channel's weight set to 0."""
    values = {"model": weights.model, "static": weights.static, "retrieval": weights.retrieval}
    values[dropped] = 0.0
    remaining = sum(values.values())
    if remaining <= 0:
        raise ConfigError(f"cannot drop {dropped}: no weight would remain")
    return FusionWeights(**{k: v / remaining for k, v in values.items()})


def _oracle_fusion(channels: dict[Channel, ChannelResult], mode: str, weights: FusionWeights, threshold: float):
    """The verdict each channel set the product makes was given before fusion
    took over absent channels: all three fused as given; a failed model
    channel fused with renormalized weights, or undetermined when the others
    had no weight; a dropped static or retrieval channel fused with
    renormalized weights (an ablation that leaves no weight is refused)."""
    absent = [ch for ch in Channel if ch not in channels]
    if absent == [Channel.MODEL] and not (weights.static or weights.retrieval):
        return FusedVerdict(Verdict.UNDETERMINED, 0.0, mode, tuple(channels.values()), threshold)
    if absent:
        [dropped] = absent
        weights = _renormalized_without(weights, dropped.value)

    def score_of(ch: Channel) -> float:
        return channels[ch].score if ch in channels else 0.0

    score = weighted_score(weights, score_of(Channel.MODEL), score_of(Channel.STATIC), score_of(Channel.RETRIEVAL))
    if mode == "voting":
        votes = sum(1 for c in channels.values() if c.verdict is Verdict.VULNERABLE)
        verdict = Verdict.VULNERABLE if votes * 2 > len(channels) else Verdict.SAFE
    else:
        verdict = Verdict.VULNERABLE if score >= threshold else Verdict.SAFE
    ordered = tuple(channels[ch] for ch in (Channel.STATIC, Channel.RETRIEVAL, Channel.MODEL) if ch in channels)
    return FusedVerdict(verdict=verdict, score=score, mode=mode, channel_results=ordered, threshold=threshold)


_UNIT = st.floats(0.0, 1.0)


@st.composite
def _weights(draw) -> FusionWeights:
    raw = draw(st.tuples(*[st.one_of(st.just(0.0), _UNIT)] * 3).filter(lambda t: sum(t) > 0))
    total = sum(raw)
    return FusionWeights(*(x / total for x in raw))


class TestFusionOfAbsentChannels:
    @settings(max_examples=400, deadline=None)
    @given(
        weights=_weights(),
        scores=st.tuples(_UNIT, _UNIT, _UNIT),
        verdicts=st.tuples(*[st.sampled_from([Verdict.SAFE, Verdict.VULNERABLE])] * 3),
        mode=st.sampled_from(MODES),
        threshold=_UNIT,
    )
    def test_every_channel_set_fuses_bit_identically_to_renormalizing_first(
        self, weights, scores, verdicts, mode, threshold
    ):
        # the channel sets the product makes: all three (detect), model absent
        # (a failed detector), static or retrieval absent (the eval ablations)
        everything = {
            ch: ChannelResult(ch, verdict, score)
            for ch, verdict, score in zip((Channel.STATIC, Channel.RETRIEVAL, Channel.MODEL), verdicts, scores)
        }
        for absent in (None, Channel.MODEL, Channel.STATIC, Channel.RETRIEVAL):
            channels = {ch: res for ch, res in everything.items() if ch is not absent}
            try:
                expected = _oracle_fusion(channels, mode, weights, threshold)
            except ConfigError:  # run_variants refuses this ablation before fusing
                continue
            fused = fuse_channels(channels, mode, weights, threshold)
            assert fused == expected
            assert fused.score.hex() == expected.score.hex()


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

    def test_a_name_defined_twice_spans_every_definition(self):
        source = "contract A { constructor() { uint x = 1; } }\ncontract B { constructor() { uint y = 2; } }\n"
        reply = json.dumps({"verdict": "vulnerable", "score": 0.9,
                            "findings": [{"class": "Reentrancy", "function": "constructor", "evidence": "e"}]})
        result = model_channel(load_source("c", source), TranscriptRecorder(lambda role, prompt: reply))
        # from A's constructor body to B's, not B's alone
        assert result.findings[0].location.span == Span(27, 87)

    @staticmethod
    def _presign_findings(findings: list) -> tuple[tuple[Finding, ...], Span]:
        source = (FIXTURES / "presign.sol").read_text(encoding="utf-8")
        reply = json.dumps({"verdict": "vulnerable", "score": 0.9, "findings": findings})
        result = model_channel(load_source("presign", source), TranscriptRecorder(lambda role, prompt: reply))
        return result.findings, Span(0, len(source.encode()))

    def test_parameter_list_and_whitespace_leave_the_function_name(self):
        findings, whole = self._presign_findings([
            {"class": "Unprotected Function", "function": name}
            for name in ("preSign", "preSign()", " preSign(bytes calldata orderUid, bool signed) ")
        ])
        assert {f.location.function for f in findings} == {"preSign"}
        assert len({f.location.span for f in findings}) == 1 and findings[0].location.span != whole

    def test_a_contract_qualified_name_merges_with_the_static_finding_on_that_function(self):
        contract = load_file(FIXTURES / "presign.sol", "presign")
        reply = json.dumps({"verdict": "vulnerable", "score": 0.9, "findings": [
            {"class": "Unprotected Function", "function": "OrderPreSignManager.preSign"},
        ]})
        channels = {
            Channel.STATIC: static_channel(contract, default_ruleset()),
            Channel.MODEL: model_channel(contract, TranscriptRecorder(lambda role, prompt: reply)),
        }
        fused = fuse_channels(channels, "weighted", FusionWeights(), 0.5)
        [finding] = actionable_findings(fused, contract, default_ruleset())
        assert finding.key == ("Unprotected Function", "preSign")
        assert finding.location.span == Span(369, 483)

    def test_null_function_is_contract_level_and_null_class_is_skipped(self, caplog):
        findings, whole = self._presign_findings([
            {"class": "Reentrancy", "function": None},
            {"class": "Reentrancy", "function": 7},
            {"class": None, "function": "preSign"},
            {"class": 107, "function": "preSign"},
        ])
        assert [(f.vuln_class.name, f.location) for f in findings] == [("Reentrancy", Location(whole, ""))] * 2
        assert caplog.text.count("ignoring malformed model finding") == 2


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
        assignments = assess(contract, [_finding("Reentrancy", "f", contract_id="c")], [], None, recorder)
        assert assignments[0].level is RiskLevel.HIGH
        assert assignments[0].defaulted
        assert risk_distribution(assignments) == {"Critical": 0, "High": 1, "Medium": 0, "Low": 0}

    def test_zero_findings_empty_distribution(self):
        # a run whose assess did not run, failed, or had nothing to rate names no level
        contract = load_source("c", "contract C {}")
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"level": "Low"}))
        assignments = assess(contract, [], [], None, recorder)
        assert assignments == []
        assert risk_distribution(assignments) == {}

    def test_distribution_counts(self):
        contract = load_source("c", "contract C {}")
        levels = iter(["Critical", "Low", "Low"])
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"level": next(levels)}))
        findings = [_finding("A", "f", 0, "c"), _finding("B", "g", 20, "c"), _finding("C", "h", 40, "c")]
        distribution = risk_distribution(assess(contract, findings, [], None, recorder))
        assert distribution == {"Critical": 1, "High": 0, "Medium": 0, "Low": 2}
        assert list(distribution) == [level.value for level in RiskLevel]


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
    def test_an_addressed_finding_the_rescan_still_fires_fails_a_patch_the_model_passes(self):
        contract = load_file(FIXTURES / "presign.sol", "presign")
        [finding] = scan(contract, default_ruleset())  # Unprotected Function on preSign
        patch = Patch("presign", contract.source, (finding,), "changes nothing")
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"passed": True, "new_issues": []}))
        result = verify(contract, patch, default_ruleset(), recorder)
        assert (result.passed, result.eliminated, result.new_issues) == (False, (), ())

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
        result = verify(contract, patch, default_ruleset(), recorder)
        assert not result.passed
        assert "Unprotected Selfdestruct" in {f.vuln_class.name for f in result.new_issues}

    def test_a_verifier_new_issue_is_located_in_the_patched_file_like_a_rescan_issue(self):
        contract = load_file(FIXTURES / "presign.sol", "presign")
        findings = [_finding("Unprotected Function", "preSign")]
        bad_source = (FIXTURES / "presign_patched.sol").read_text(encoding="utf-8").replace(
            "emit PreSignature(msg.sender, orderUid, signed);",
            "emit PreSignature(msg.sender, orderUid, signed);\n    }\n\n"
            "    function scrap() external {\n        selfdestruct(payable(msg.sender));",
        )
        patch = Patch("presign", bad_source, tuple(findings), "adds a backdoor")
        issue = {"class": "Reentrancy", "function": "preSign", "evidence": "emit after write"}
        recorder = TranscriptRecorder(lambda role, prompt: json.dumps({"passed": False, "new_issues": [issue]}))
        result = verify(contract, patch, default_ruleset(), recorder)
        [rescan] = [f for f in result.new_issues if f.channel is Channel.STATIC]
        [model] = [f for f in result.new_issues if f.channel is Channel.MODEL]
        [pre_sign] = [fn for fn in patch.repaired.view.functions if fn.name == "preSign"]
        assert rescan.contract_id == model.contract_id == "presign.patched"
        assert rescan.location.function == "scrap"
        assert model.location == Location(pre_sign.body_span, "preSign") != Location(patch.repaired.whole, "preSign")

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
        result = verify(contract, patch, default_ruleset(), recorder)
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

    def test_retrieval_hints_reach_the_chain_folded_onto_the_ruleset(self):
        # no rule flags safe.sol and the detector names nothing, so the
        # vulnerable neighbours' classes become the findings; both spellings
        # fold onto the ruleset's Reentrancy and merge into one
        responses = presign_fixture.scripted_responses()
        responses["detector"] = json.dumps({"verdict": "vulnerable", "score": 0.9, "findings": []})
        ctx, _ = presign_fixture.recording_context(responses)
        source = (FIXTURES / "safe.sol").read_text(encoding="utf-8")
        ctx = replace(ctx, corpus_index=build_corpus_index(
            [("n1", "vulnerable", ("SWC-107",), source), ("n2", "vulnerable", ("reentrancy",), source)]
        ))
        run = run_pipeline(load_file(FIXTURES / "safe.sol", "safe"), ctx)
        assert run.fused.verdict is Verdict.VULNERABLE
        assert [(f.vuln_class, f.channel, f.location.function) for f in run.findings] == [
            (VulnerabilityClass("Reentrancy", "SWC-107"), Channel.RETRIEVAL, "")
        ]
        table = run.report.sections[3].body.splitlines()
        assert len(table) == 3 and table[2].startswith("| 1 | Reentrancy | SWC-107 | (contract level) | retrieval |")
        channels = {c["channel"]: c for c in run.to_payload()["verdict"]["channels"]}
        assert [f["class"]["name"] for f in channels["retrieval"]["findings"]] == ["SWC-107", "reentrancy"]

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

    def test_a_detector_only_context_records_the_missing_roles_and_still_reports(self, presign_config):
        ctx = build_context(load_config(presign_config), roles=("detector",))
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert run.errors == {
            "advise": "no provider configured for role 'advisor'",
            "assess": "no provider configured for role 'assessor'",
        }
        assert run.stages == ("detect", "report")
        assert run.patch is None and run.verification is None
        assert len(run.report.sections) == 7
        assert "Stages with errors: advise, assess" in run.report.sections[1].body

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
        responses, asked_roles = presign_fixture.scripted_responses(), set()

        def responder(asked: str, prompt: str) -> str:
            asked_roles.add(asked)
            if asked == role:
                raise TransportError(f"{role} server error 503")
            return responses[asked]

        ctx, _ = presign_fixture.recording_context()
        ctx = replace(ctx, providers={r: TranscriptRecorder(responder, model_id=f"{r}-m") for r in ctx.providers})
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert list(run.errors) == [stage]
        assert f"{role} server error 503" in run.errors[stage]
        assert run.stages == stages
        roles = {"detect": "detector", "advise": "advisor", "assess": "assessor", "fix": "fixer", "verify": "verifier"}
        assert asked_roles == {roles[s] for s in (*stages, stage) if s in roles}  # skipped stages never start
        assert len(run.report.sections) == 7
        assert f"Stages with errors: {stage}" in run.report.sections[1].body
        assert (run.patch is not None) == (stage == "verify")
        assert run.verification is None
        if stage == "detect":
            channels = [c["channel"] for c in run.to_payload()["verdict"]["channels"]]
            assert channels == ["static", "retrieval"]
            static, retrieval = run.fused.channel_results
            w = ctx.config.weights
            total = w.static + w.retrieval
            renormalized = FusionWeights(model=0.0, static=w.static / total, retrieval=w.retrieval / total)
            assert run.fused.score == weighted_score(renormalized, 0.0, static.score, retrieval.score)

    @pytest.mark.parametrize(
        "role, stage", [("detector", "detect"), ("advisor", "advise"), ("assessor", "assess"),
                        ("fixer", "fix"), ("verifier", "verify")],
    )
    def test_a_provider_value_error_is_a_stage_error_not_a_degraded_finding(self, role, stage):
        # a provider's own exception is a transport fault: it is asked once and
        # fails its stage (a detect error keeps the fused verdict), where a
        # ValueError used to pass for an unusable reply or leave run_pipeline
        responses, asked = presign_fixture.scripted_responses(), []

        def responder(r: str, prompt: str) -> str:
            asked.append(r)
            if r == role:
                raise ValueError("provider bug")
            return responses[r]

        ctx, _ = presign_fixture.recording_context()
        ctx = replace(ctx, providers={r: TranscriptRecorder(responder, model_id=f"{r}-m") for r in ctx.providers})
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert list(run.errors) == [stage]
        assert f"{role}: provider failed: ValueError('provider bug')" in run.errors[stage]
        assert asked.count(role) == 1
        assert all(s.complete for s in run.suggestions)
        assert not any(a.defaulted for a in run.risk_assignments)
        assert len(run.report.sections) == 7

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

            def counted(arg, *rest, _original=original, _calls=calls[name]):
                _calls.append(arg)
                return _original(arg, *rest)

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
        # one state-variable pass and one pragma read per view, over its token index
        indexes = [contract.view.index, run.patch.repaired.view.index]
        assert [index.tokens for index in indexes] == [contract.token_stream, run.patch.repaired.token_stream]
        assert calls["collect_state_variables"] == indexes
        assert calls["parse_pragma"] == indexes

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


@pytest.mark.parametrize("role, key", [("advisor", "cause_analysis"), ("fixer", "repaired_source")])
def test_reply_with_a_lone_surrogate_earns_the_repair_prompt(role, key):
    # a JSON "\ud800" in a reply decodes to a lone surrogate, which has no
    # UTF-8 bytes: in advice it used to abort the report's write, and in a
    # patch the fix stage, with a UnicodeEncodeError
    responses = presign_fixture.scripted_responses()
    reply = json.loads(responses[role])
    reply[key] += " \ud800"
    responses[role] = json.dumps(reply)
    ctx, recorders = presign_fixture.recording_context(responses)
    run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
    assert len(recorders[role].entries) == 2  # one repair retry
    assert "\ud800" not in run.report.to_markdown()
    if role == "fixer":
        assert run.errors == {"fix": "fixer: reply field repaired_source holds a lone surrogate, which is not text"}


def test_model_text_cannot_forge_a_report_section():
    # a line break in a reply once opened a heading of its own in report.md,
    # and a pipe split the discovery-table row
    forged = "Bad | class\n## 8. Injected \\| cell"
    responses = presign_fixture.scripted_responses()
    detector = json.loads(responses["detector"])
    detector["findings"].append({"class": forged, "function": "preSign", "evidence": "x\r\n## 9. Injected"})
    responses["detector"] = json.dumps(detector)
    advice = json.loads(responses["advisor"])
    advice["cause_analysis"] += "\n## 10. Injected"
    advice["repair_steps"].append("step\r## 11. Injected")
    responses["advisor"] = json.dumps(advice)
    fixer = json.loads(responses["fixer"])
    fixer["rationale"] += "\n\n## 12. Injected"
    responses["fixer"] = json.dumps(fixer)
    new_issue = {"class": forged, "function": "preSign", "evidence": "e"}
    responses["verifier"] = json.dumps({"passed": False, "new_issues": [new_issue]})
    ctx, _ = presign_fixture.recording_context(responses)
    run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
    assert forged in [f.vuln_class.name for f in run.findings]
    lines = run.report.to_markdown().splitlines()
    headings = [line for line in lines if line.startswith("## ")]
    assert headings == [f"## {i}. {title}" for i, title in enumerate(REPORT_SECTION_TITLES, start=1)]
    rows = [line for line in lines if line.startswith("|")]
    assert len(rows) == 2 + len(run.findings)
    for row in rows:  # a pipe after an even number of backslashes delimits a cell
        assert len(re.findall(r"(?<!\\)(?:\\\\)*\|", row)) == 8, row


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

    def test_prose_then_untokenizable_patch_is_two_fixer_calls_and_one_fix_error(self):
        responses = presign_fixture.scripted_responses()
        replies = iter(["I would add an owner check to preSign.", json.dumps(
            {"repaired_source": 'contract Broken { string s = "open', "rationale": "r"}
        )])

        def responder(role: str, prompt: str) -> str:
            return next(replies) if role == "fixer" else responses[role]

        ctx, _ = presign_fixture.recording_context()
        ctx = replace(ctx, providers={r: TranscriptRecorder(responder, model_id=f"{r}-m") for r in ctx.providers})
        run = run_pipeline(load_file(FIXTURES / "presign.sol", "presign"), ctx)
        assert len(ctx.providers["fixer"].entries) == 2  # the repair prompt, and no retry of fix's own
        assert run.errors == {
            "fix": "presign: repaired source does not tokenize: unterminated string literal at bytes 29..34"
        }
        assert run.stages == ("detect", "advise", "assess", "report")

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
