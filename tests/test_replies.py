"""Model replies parse through their reply records: a mistyped field earns
the one repair prompt, a malformed finding is skipped, and no reply ends a
call with anything but a ``SolguardError``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solguard.agents.detect import model_channel
from solguard.agents.remediate import RiskAssignment, advise, assess, fix, verify
from solguard.cli import main
from solguard.core import Channel, Finding, Location, Patch, RepairSuggestion, RiskLevel, Span, VulnerabilityClass
from solguard.errors import ExtractionError, SchemaError, SolguardError
from solguard.llm.mock import TranscriptRecorder
from solguard.llm.prompts import REPAIR_INSTRUCTION
from solguard.llm.structured import DETECTOR_REPLY, extract_structured
from solguard.static_analysis.rules import default_ruleset
from solguard.static_analysis.scanner import load_file

import presign_fixture
from conftest import write_pipeline_config

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PRESIGN = load_file(FIXTURES / "presign.sol", "presign")
PATCHED_SOURCE = (FIXTURES / "presign_patched.sol").read_text(encoding="utf-8")
FINDING = Finding("presign", VulnerabilityClass("Unprotected Function"), Location(Span(0, 10), "preSign"),
                  "evidence line", Channel.STATIC, 0.9)
PATCH = Patch("presign", PATCHED_SOURCE, (FINDING,), "owner guard")
SCRIPTED = presign_fixture.scripted_responses()


def answering(*replies: str) -> TranscriptRecorder:
    """A provider giving ``replies`` in turn, the last one from then on,
    that keeps the prompts it was sent as ``prompts``."""
    queue, prompts = list(replies), []

    def reply(role: str, prompt: str) -> str:
        prompts.append(prompt)
        return queue.pop(0) if len(queue) > 1 else queue[0]

    provider = TranscriptRecorder(reply)
    provider.prompts = prompts
    return provider


def repaired(provider: TranscriptRecorder) -> bool:
    """Whether the provider was asked once more, with the repair prompt."""
    return len(provider.prompts) == 2 and provider.prompts[1].endswith(REPAIR_INSTRUCTION)


NESTED = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder's recursion limit


def detector_reply(score: str = "0.9", evidence: str = '"e"') -> str:
    finding = f'{{"class": "Reentrancy", "function": "preSign", "evidence": {evidence}}}'
    return f'{{"verdict": "vulnerable", "score": {score}, "findings": [{finding}]}}'


class TestDetectorReply:
    def test_null_evidence_reads_as_empty_text(self):
        provider = answering(detector_reply(evidence="null"))
        result = model_channel(PRESIGN, provider)
        assert [f.evidence for f in result.findings] == [""]
        assert not repaired(provider)

    @pytest.mark.parametrize(
        "score",
        ["true", "NaN", "Infinity", "-Infinity", "1" + "0" * 399, NESTED],
        ids=["true", "NaN", "inf", "-inf", "400 digits", "100,000 nested ["],
    )
    def test_score_that_is_no_finite_number_earns_the_repair_prompt(self, score):
        provider = answering(detector_reply(score), detector_reply("0.2"))
        result = model_channel(PRESIGN, provider)
        assert repaired(provider) and result.score == 0.2

    def test_second_faulty_score_names_the_field(self):
        provider = answering(detector_reply("1" + "0" * 399))
        with pytest.raises(SchemaError, match="reply field score must be a number") as err:
            model_channel(PRESIGN, provider)
        assert err.value.field == "score" and repaired(provider)

    def test_keys_the_role_does_not_declare_are_ignored(self):
        reply = json.loads(detector_reply())
        reply["confidence"] = "very"
        reply["findings"][0]["severity"] = None
        provider = answering(json.dumps(reply))
        assert [f.location.function for f in model_channel(PRESIGN, provider).findings] == ["preSign"]
        assert not repaired(provider)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_object_the_decoder_refuses_is_passed_over(self):
        response = '{"score": 1' + "0" * 5000 + '} then {"verdict": "safe", "score": 0.1, "findings": []}'
        assert extract_structured(response, DETECTOR_REPLY) == {"verdict": "safe", "score": 0.1, "findings": []}


class TestAdvisorReply:
    @pytest.mark.parametrize("steps", [[None], [7], ["check the caller", None]])
    def test_null_or_numeric_step_earns_the_repair_prompt_then_leaves_the_suggestion_incomplete(self, steps):
        reply = {**json.loads(SCRIPTED["advisor"]), "repair_steps": steps}
        provider = answering(json.dumps(reply))
        [suggestion] = advise(PRESIGN, [FINDING], None, provider)
        assert repaired(provider) and not suggestion.complete

    def test_empty_field_earns_the_repair_prompt_then_leaves_the_suggestion_incomplete(self):
        provider = answering(json.dumps({**json.loads(SCRIPTED["advisor"]), "cause_analysis": ""}))
        [suggestion] = advise(PRESIGN, [FINDING], None, provider)
        assert repaired(provider) and not suggestion.complete

    def test_steps_repaired_on_the_second_reply_stand(self):
        faulty = json.dumps({**json.loads(SCRIPTED["advisor"]), "repair_steps": [None]})
        provider = answering(faulty, SCRIPTED["advisor"])
        [suggestion] = advise(PRESIGN, [FINDING], None, provider)
        assert repaired(provider) and suggestion.complete
        assert suggestion.repair_steps == tuple(json.loads(SCRIPTED["advisor"])["repair_steps"])


class TestAssessorReply:
    def test_level_outside_the_four_earns_the_repair_prompt_then_defaults_to_high(self):
        provider = answering(json.dumps({"level": "Severe"}))
        [assignment] = assess(PRESIGN, [FINDING], [], None, provider)
        assert repaired(provider) and assignment == RiskAssignment(FINDING, RiskLevel.HIGH, defaulted=True)

    def test_level_repaired_on_the_second_reply_stands(self):
        provider = answering(json.dumps({"level": "Severe"}), json.dumps({"level": " low "}))
        [assignment] = assess(PRESIGN, [FINDING], [], None, provider)
        assert repaired(provider) and assignment == RiskAssignment(FINDING, RiskLevel.LOW)


class TestFixerReply:
    SUGGESTION = RepairSuggestion("n", "c", "i", ("s",), ("p",), FINDING)
    ASSIGNMENT = RiskAssignment(FINDING, RiskLevel.HIGH)

    def test_prose_then_an_unlexable_source_is_one_repair_prompt_then_a_named_fault(self):
        unlexable = json.dumps({"repaired_source": 'contract Broken { string s = "open', "rationale": "r"})
        provider = answering("I would add an owner check to preSign.", unlexable)
        with pytest.raises(ExtractionError) as err:
            fix(PRESIGN, [self.SUGGESTION], [self.ASSIGNMENT], provider)
        assert repaired(provider)
        assert str(err.value) == (
            "presign: repaired source does not tokenize: unterminated string literal at bytes 29..34"
        )

    def test_unsegmentable_then_whole_source_stands(self):
        unsegmentable = json.dumps({"repaired_source": "contract A { function f() public {", "rationale": "r"})
        provider = answering(unsegmentable, SCRIPTED["fixer"])
        patch = fix(PRESIGN, [self.SUGGESTION], [self.ASSIGNMENT], provider)
        assert repaired(provider) and patch.repaired_source == json.loads(SCRIPTED["fixer"])["repaired_source"]


class TestVerifierReply:
    @pytest.mark.parametrize("item", [{"class": None, "function": None, "evidence": None}, {}])
    def test_new_issue_without_class_or_function_is_unspecified_at_contract_level(self, item):
        provider = answering(json.dumps({"passed": True, "new_issues": [item]}))
        result = verify(PRESIGN, PATCH, default_ruleset(), provider)
        assert not repaired(provider) and not result.passed
        [issue] = result.new_issues
        whole = Span(0, len(PATCHED_SOURCE.encode()))
        assert (issue.vuln_class.name, issue.location, issue.evidence) == ("Unspecified", Location(whole, ""), "")

    def test_new_issue_that_is_not_a_mapping_is_a_reply_fault_not_a_pass(self):
        provider = answering(json.dumps({"passed": True, "new_issues": ["reentrancy in withdraw"]}))
        with pytest.raises(SchemaError, match="new_issues must be a list, each item a mapping") as err:
            verify(PRESIGN, PATCH, default_ruleset(), provider)
        assert err.value.field == "new_issues" and repaired(provider)


@pytest.mark.parametrize(
    "score, fault",
    [("1" + "0" * 399, "score must be a number"), (NESTED, "verdict")],
    ids=["400 digits", "100,000 nested ["],
)
def test_audit_records_a_detector_reply_the_decoder_refuses_and_goes_on(
    runner, built_index_root, tmp_path, fake_providers, score, fault
):
    huge = detector_reply(score)

    def reply(role: str, prompt: str) -> str:
        if role == "detector":
            return huge if "LendingPool" in prompt else presign_fixture.safe_detector_response()
        return SCRIPTED[role]

    out_dir = tmp_path / "out"
    transcript = FIXTURES / "presign_transcript.jsonl"
    config = write_pipeline_config(tmp_path / "cfg.yaml", built_index_root, out_dir, transcript)
    fake_providers(lambda config: TranscriptRecorder(reply))
    paths = [str(FIXTURES / "rules" / "multi_vuln.sol"), str(FIXTURES / "safe.sol")]
    result = runner.invoke(main, ["audit", *paths, "-c", str(config), "--jobs", "1"])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1, result.output
    assert "processed 2/2 contracts" in result.output
    records = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in out_dir.glob("*.run.json")}
    assert set(records) == {"multi_vuln.run.json", "safe.run.json"}
    assert fault in records["multi_vuln.run.json"]["errors"]["detect"]
    assert records["safe.run.json"]["errors"] == {}


@pytest.mark.parametrize("role, stage", [("detector", "detect"), ("fixer", "fix")])
def test_audit_records_a_provider_value_error_and_goes_on(
    runner, built_index_root, tmp_path, fake_providers, role, stage
):
    # a provider's own exception is a transport fault of its stage: it once
    # left run_pipeline and aborted the batch
    def reply(asked: str, prompt: str) -> str:
        if asked == role:
            raise ValueError("provider bug")
        if asked == "detector" and "BalanceReader" in prompt:
            return presign_fixture.safe_detector_response()
        return SCRIPTED[asked]

    out_dir = tmp_path / "out"
    transcript = FIXTURES / "presign_transcript.jsonl"
    config = write_pipeline_config(tmp_path / "cfg.yaml", built_index_root, out_dir, transcript)
    fake_providers(lambda config: TranscriptRecorder(reply))
    paths = [str(FIXTURES / "presign.sol"), str(FIXTURES / "safe.sol")]
    result = runner.invoke(main, ["audit", *paths, "-c", str(config), "--jobs", "1"])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1, result.output
    assert "processed 2/2 contracts" in result.output
    records = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in out_dir.glob("*.run.json")}
    assert set(records) == {"presign.run.json", "safe.run.json"}
    assert list(records["presign.run.json"]["errors"]) == [stage]
    assert f"{role}: provider failed: ValueError('provider bug')" in records["presign.run.json"]["errors"][stage]


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text(max_size=8), children, max_size=3)
    ),
    max_leaves=8,
)
TEXT = st.text(max_size=12) | st.sampled_from(["High", " low ", "Critical", "contract C {}", PATCHED_SOURCE])
ITEM = st.fixed_dictionaries({}, optional={key: TEXT | JSON for key in ("class", "function", "evidence")})
# every role's keys, each with values of its type or of any other JSON type
FIELDS = {
    "verdict": TEXT, "score": st.floats() | st.integers(), "findings": st.lists(ITEM | JSON, max_size=3),
    "vulnerability_name": TEXT, "cause_analysis": TEXT, "impact_assessment": TEXT,
    "repair_steps": st.lists(TEXT | JSON, max_size=3), "preventive_measures": st.lists(TEXT | JSON, max_size=3),
    "level": TEXT, "repaired_source": TEXT, "rationale": TEXT,
    "passed": st.booleans(), "new_issues": st.lists(ITEM | JSON, max_size=3),
}
REPLIES = st.fixed_dictionaries({}, optional={key: values | JSON for key, values in FIELDS.items()}).map(json.dumps)


@settings(max_examples=150, deadline=None)
@given(REPLIES)
@example(detector_reply("1" + "0" * 399))
@example(detector_reply("1" + "0" * 4999))
@example(detector_reply(NESTED))
@example('{"passed": true, "new_issues": ["reentrancy in withdraw"]}')
def test_every_reply_ends_each_call_with_a_result_or_a_solguard_error(reply):
    suggestion = RepairSuggestion("n", "c", "i", ("s",), ("p",), FINDING)
    assignment = RiskAssignment(FINDING, RiskLevel.HIGH)
    calls = [
        lambda provider: model_channel(PRESIGN, provider),
        lambda provider: advise(PRESIGN, [FINDING], None, provider),
        lambda provider: assess(PRESIGN, [FINDING], [suggestion], None, provider),
        lambda provider: fix(PRESIGN, [suggestion], [assignment], provider),
        lambda provider: verify(PRESIGN, PATCH, default_ruleset(), provider),
    ]
    for call in calls:
        try:
            call(TranscriptRecorder(lambda role, prompt: reply))
        except SolguardError:
            pass
