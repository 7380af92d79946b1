from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
import yaml

from solguard.core import Verdict
from solguard.errors import RulesetError
from solguard.static_analysis.rules import (
    default_ruleset,
    dump_ruleset,
    load_ruleset,
    parse_ruleset,
    save_ruleset,
)
from solguard.static_analysis.scanner import load_file, load_source, scan, static_channel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def ruleset():
    return default_ruleset()


@pytest.fixture(scope="module")
def manifest():
    return json.loads((FIXTURES / "rules" / "manifest.json").read_text(encoding="utf-8"))


def rule_class(ruleset, rule_id: str) -> str:
    for rule in ruleset:
        if rule.rule_id == rule_id:
            return rule.vuln_class.name
    raise KeyError(rule_id)


class TestFixtureCorpus:
    def test_labeled_findings_match_exactly(self, ruleset, manifest):
        assert len(manifest) >= 16
        for name, expected in manifest.items():
            contract = load_file(FIXTURES / "rules" / name)
            got = sorted((f.vuln_class.name, f.location.function) for f in scan(contract, ruleset))
            want = sorted((rule_class(ruleset, rid), fn) for rid, fn in expected["findings"])
            assert got == want, f"{name}: {got} != {want}"

    def test_presign_fires_unprotected_function(self, ruleset):
        contract = load_file(FIXTURES / "presign.sol")
        classes = {f.vuln_class.name for f in scan(contract, ruleset)}
        assert classes == {"Unprotected Function"}

    def test_patched_presign_is_clean(self, ruleset):
        contract = load_file(FIXTURES / "presign_patched.sol")
        assert scan(contract, ruleset) == []

    def test_reentrancy_write_after_call_fires_swc_107(self, ruleset):
        contract = load_file(FIXTURES / "rules" / "multi_vuln.sol")
        reentrancy = [f for f in scan(contract, ruleset) if f.vuln_class.name == "Reentrancy"]
        assert len(reentrancy) == 1
        assert reentrancy[0].vuln_class.swc_id == "SWC-107"
        assert reentrancy[0].location.function == "withdraw"


class TestScan:
    def test_empty_contract_yields_no_findings(self, ruleset):
        assert scan(load_source("empty", ""), ruleset) == []

    def test_empty_ruleset_rejected(self):
        with pytest.raises(ValueError):
            scan(load_source("c", "contract C {}"), [])

    def test_determinism_byte_identical(self, ruleset):
        contract = load_file(FIXTURES / "rules" / "multi_vuln.sol")
        first = [f.to_payload() for f in scan(contract, ruleset)]
        second = [f.to_payload() for f in scan(contract, ruleset)]
        assert json.dumps(first) == json.dumps(second)

    def test_adding_a_rule_never_removes_findings(self, ruleset, manifest):
        # monotonicity over every prefix of the rule list, on every fixture
        for name in manifest:
            contract = load_file(FIXTURES / "rules" / name)
            seen: set[tuple[str, str]] = set()
            for size in range(1, len(ruleset) + 1):
                found = {
                    (f.vuln_class.name, f.location.function)
                    for f in scan(contract, ruleset[:size])
                }
                assert seen <= found
                seen = found


class TestStaticChannel:
    def test_presign_vulnerable_with_rule_confidence(self, ruleset):
        contract = load_file(FIXTURES / "presign.sol")
        result = static_channel(contract, ruleset)
        assert result.verdict is Verdict.VULNERABLE
        assert result.score == pytest.approx(0.9)

    def test_empty_contract_safe_zero(self, ruleset):
        result = static_channel(load_source("empty", ""), ruleset)
        assert result.verdict is Verdict.SAFE
        assert result.score == 0.0

    def test_score_is_max_confidence(self):
        rules = parse_ruleset(
            """
- rule_id: ts
  class: Timestamp Dependence
  swc_id: SWC-116
  matcher: {type: token_sequence_in_condition, sequences: [["block", ".", "timestamp"]]}
  confidence: 0.6
- rule_id: origin
  class: tx.origin Authentication
  swc_id: SWC-115
  matcher: {type: token_sequence_in_condition, sequences: [["tx", ".", "origin"]]}
  confidence: 0.8
"""
        )
        source = """
        pragma solidity ^0.8.0;
        contract C {
            address public owner;
            uint256 public deadline;
            function a() external view returns (bool) { return true; }
            function check() external view {
                require(tx.origin == owner);
                if (block.timestamp > deadline) { revert(); }
            }
        }
        """
        result = static_channel(load_source("c", source), rules)
        assert result.score == pytest.approx(0.8)
        assert len(result.findings) == 2

    def test_safe_iff_score_zero(self, ruleset, manifest):
        for name in list(manifest) + ["../presign.sol", "../safe.sol"]:
            contract = load_file(FIXTURES / "rules" / name)
            result = static_channel(contract, ruleset)
            assert (result.verdict is Verdict.SAFE) == (result.score == 0.0)


ODD = {"rule_id": "odd", "class": "X", "matcher": {"type": "unguarded_token", "token": "t"}, "confidence": 0.5}
ABSENT = object()


class TestRulesetFile:
    def test_round_trip_is_lossless(self, ruleset, tmp_path):
        path = tmp_path / "rules.yaml"
        save_ruleset(ruleset, path)
        assert load_ruleset(path) == ruleset

    def test_dump_parses_back(self, ruleset):
        assert parse_ruleset(dump_ruleset(ruleset)) == ruleset

    def test_duplicate_rule_id_rejected(self):
        text = dump_ruleset(default_ruleset()[:1]) * 2
        with pytest.raises(RulesetError, match="duplicate rule_id"):
            parse_ruleset(text)

    def test_unknown_matcher_type_rejected(self):
        with pytest.raises(RulesetError, match="unknown matcher"):
            parse_ruleset(
                "- {rule_id: x, class: X, matcher: {type: nope}, confidence: 0.5}"
            )

    def test_confidence_bounds_enforced(self):
        with pytest.raises(RulesetError, match="confidence"):
            parse_ruleset(
                "- rule_id: x\n  class: X\n  matcher: {type: unguarded_token, token: t}\n  confidence: 1.5"
            )

    # each of these used to load, then fail or match nothing during the scan
    @pytest.mark.parametrize(
        "matcher, complaint",
        [
            ("{type: token_sequence_in_condition}", "needs a sequences parameter"),
            ("{type: unguarded_token}", "needs a token parameter"),
            ("{type: member_call_on_parameter}", "needs a member parameter"),
            ("{type: unchecked_arithmetic, flag_below: zero}", "flag_below must be a version"),
            ('{type: token_sequence_in_condition, sequences: "tx.origin"}', "sequences must be a list of token lists"),
            ("{type: token_sequence_in_condition, sequences: [tx, origin]}", "sequences must be a list of token lists"),
            ("{type: unguarded_token, token: selfdestruct, allowed_modifiers: onlyOwner}", "allowed_modifiers must be"),
            ("{type: member_call_on_parameter, member: [delegatecall]}", "member must be a string"),
            ("unguarded_token", "matcher must be a mapping"),
            # a misspelled parameter used to be ignored, leaving the default in force
            ("{type: unguarded_state_mutator, allowed_modifier: [onlyOwner]}", "unknown matcher parameter 'allowed_modifier'"),
        ],
    )
    def test_bad_matcher_parameter_names_the_rule(self, matcher, complaint):
        with pytest.raises(RulesetError, match=f"rule odd: .*{complaint}"):
            parse_ruleset(f"- {{rule_id: odd, class: X, matcher: {matcher}, confidence: 0.5}}")

    # each of these used to load, or to fail with a TypeError traceback
    @pytest.mark.parametrize(
        "changes, complaint",
        [
            ({"class": ["a"]}, "rule odd: record key class must be a string, got ['a']"),
            ({"rule_id": ["r"]}, "rule #1: record key rule_id must be a string, got ['r']"),
            ({"rule_id": 5}, "rule #1: record key rule_id must be a string, got 5"),
            ({"class": 5}, "rule odd: record key class must be a string, got 5"),
            ({"swc_id": 107}, "rule odd: record key swc_id must be a string, got 107"),
            ({"description": 5}, "rule odd: record key description must be a string, got 5"),
            ({"confidence": True}, "rule odd: record key confidence must be a number in [0, 1], got True"),
            ({"confidence": "0.5"}, "rule odd: record key confidence must be a number in [0, 1], got '0.5'"),
            ({"descripton": "x"}, "rule odd: unknown record key 'descripton'"),
            ({"confidence": ABSENT}, "rule odd: record needs a confidence key"),
            ({"matcher": {"type": ["a"]}}, "rule odd: unknown matcher type ['a']"),
            # YAML reads an unquoted 0.10 as the number 0.1, which used to load as version 0.1
            (
                {"matcher": {"type": "unchecked_arithmetic", "flag_below": 0.1}},
                'rule odd: matcher parameter flag_below must be a version in quotes, like "0.8", got 0.1',
            ),
            # a parameter of another matcher type is not this one's
            (
                {"matcher": {**ODD["matcher"], "call_members": ["call"]}},
                "rule odd: unknown matcher parameter 'call_members'",
            ),
        ],
    )
    def test_malformed_rule_record_names_the_rule_and_key(self, changes, complaint):
        record = {key: value for key, value in {**ODD, **changes}.items() if value is not ABSENT}
        with pytest.raises(RulesetError, match=re.escape(complaint)):
            parse_ruleset(yaml.safe_dump([record]))

    def test_absent_matcher_parameters_take_their_declared_defaults(self):
        (rule,) = parse_ruleset("- {rule_id: x, class: X, matcher: {type: unchecked_arithmetic}, confidence: 1}")
        assert rule.matcher == {"type": "unchecked_arithmetic", "flag_below": "0.8", "guard_markers": ["SafeMath"]}
        assert rule.default_confidence == 1.0 and rule.description == "" and rule.vuln_class.swc_id is None

    def test_rules_sharing_a_default_dump_without_yaml_aliases(self):
        rules = [{**ODD, "rule_id": f"r{n}", "class": f"C{n}", "matcher": {"type": "unguarded_state_mutator"}} for n in (1, 2)]
        text = yaml.safe_dump(rules)
        dumped = dump_ruleset(parse_ruleset(text))
        assert "&" not in dumped and "*" not in dumped
        assert parse_ruleset(dumped) == parse_ruleset(text)

    def test_non_numeric_confidence_rejected(self):
        complaint = "rule x: record key confidence must be a number in [0, 1], got 'high'"
        with pytest.raises(RulesetError, match=re.escape(complaint)):
            parse_ruleset("- {rule_id: x, class: X, matcher: {type: unguarded_token, token: t}, confidence: high}")

    def test_not_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("rule_id: [unclosed", encoding="utf-8")
        with pytest.raises(RulesetError):
            load_ruleset(path)

    @pytest.mark.parametrize("fault", ["missing", "not utf-8", "a directory"])
    def test_unreadable_file_is_ruleset_error_naming_it(self, tmp_path, fault):
        path = tmp_path / "rules.yaml"
        if fault == "not utf-8":
            path.write_bytes(b"- rule_id: \xff")
        elif fault == "a directory":
            path.mkdir()
        with pytest.raises(RulesetError, match=re.escape(str(path))):
            load_ruleset(path)

    def test_default_class_names_unique_with_swc_ids(self, ruleset):
        names = [r.vuln_class.name for r in ruleset]
        assert len(names) == len(set(names)) == 8
        swc = {r.rule_id: r.vuln_class.swc_id for r in ruleset}
        assert swc["reentrancy"] == "SWC-107"
        assert swc["integer-overflow"] == "SWC-101"
        assert swc["unchecked-call"] == "SWC-104"
        assert swc["unprotected-selfdestruct"] == "SWC-106"
        assert swc["delegatecall-to-parameter"] == "SWC-112"
        assert swc["tx-origin-auth"] == "SWC-115"
        assert swc["timestamp-dependence"] == "SWC-116"


def test_evidence_is_the_matching_source_line(ruleset):
    contract = load_file(FIXTURES / "rules" / "txorigin_pos.sol")
    finding = scan(contract, ruleset)[0]
    assert finding.evidence == 'require(tx.origin == owner, "denied");'
