"""The token-table lexer, view and rules against the tuple-of-tokens code
they replaced (``reference_static_analysis``): the same findings, views and
faults on every fixture, on the benchmark's audit-mixed contracts and their
patches, and on generated contracts.

The benchmark's generator is loaded from its file and never changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_static_analysis as reference
from solguard.core import normalize_text
from solguard.errors import SolguardError
from solguard.static_analysis.rules import default_ruleset
from solguard.static_analysis.scanner import load_source, scan

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
RULESET = default_ruleset()
# the audit-mixed workload's (size class, target bytes, count) in perfbench/run.py
AUDIT_MIXED_SIZES = [("small", 1_000, 16), ("medium", 10_000, 6), ("large", 100_000, 2)]


def _generator():
    spec = importlib.util.spec_from_file_location("perfbench_generate", ROOT / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generate  # its dataclasses look their module up here
    spec.loader.exec_module(generate)
    return generate


def outcome(source: str):
    """Findings and view of the product code, or its fault."""
    try:
        contract = load_source("c", source)
        view = contract.view
        tokens = view.index.tokens
        functions = [
            (fn.name, fn.visibility, fn.modifiers, fn.body_span, fn.mutates_state, fn.kind, fn.params,
             tuple(map(tokens.token, fn.body)))
            for fn in view.functions
        ]
        return scan(contract, RULESET), functions, view.state_variables, view.pragma_version, set(view.lexemes)
    except SolguardError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "span", None)


def reference_outcome(source: str):
    """The same, from the replaced code."""
    source = normalize_text(source)
    try:
        view = reference.build_view(reference.tokenize_solidity(source))
        functions = [
            (fn.name, fn.visibility, fn.modifiers, fn.body_span, fn.mutates_state, fn.kind, fn.params, fn.body_tokens)
            for fn in view.functions
        ]
        findings = reference.scan("c", source, RULESET)
        return findings, functions, view.state_variables, view.pragma_version, set(view.lexemes)
    except SolguardError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "span", None)


def test_matches_reference_on_every_fixture():
    paths = sorted(FIXTURES.rglob("*.sol"))
    assert len(paths) >= 20
    fired = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        got = outcome(source)
        assert got == reference_outcome(source), path.name
        fired += len(got[0])
    assert fired >= 10  # the comparison is not vacuous


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_reference_on_audit_mixed_contracts_and_patches(seed):
    generate = _generator()
    catalog = {r.rule_id: (r.vuln_class.name, r.vuln_class.swc_id) for r in RULESET}
    contracts = generate.audit_contracts(generate.Fixtures(FIXTURES, catalog), seed, AUDIT_MIXED_SIZES, 0.5)
    sources = [c.source for c in contracts] + [c.patched for c in contracts if c.patched]
    assert len(sources) > len(contracts)  # the vulnerable ones' patches too
    for source in sources:
        got = outcome(source)
        assert got == reference_outcome(source), generate.ID_RE.search(source).group(1)
    assert any(outcome(c.source)[0] for c in contracts)


# body fragments: guards, calls, writes, and parentheses that need not balance
BODY = st.sampled_from([
    "x = 1;", "bal[to] -= 1;", "owner = to;", "x++;", "--x;", "uint256 y = x + 1;", "(x, y) = (1, 2);",
    "delete owner;", "delete y;", "return x * 2;", "{ x += 1; }", "if (", "require(", "while (", "(", ")", ";",
    "msg.sender", "==", "tx.origin", "block.timestamp", "now", "selfdestruct(to);", "to.call", "to.send(1)",
    "to.transfer(1);", "to.delegatecall(data);", "payable(to).call{value: 1}(\"\");", "x.call{gas: 1, value: 2}",
    "bool ok = to.send(1);", "return to.send(1);", "SafeMath", ".", "emit E(x);",
])
HEADER = st.sampled_from([
    "external", "public", "internal", "private", "view", "payable", "onlyOwner", "guard(1)", "returns (uint)",
    "override", "override(A, B)", "virtual",
])
FUNCTION = st.builds(
    "{}({}) {} {{ {} }}".format,
    st.sampled_from(["function f", "function g", "function", "constructor", "receive", "fallback", "modifier m"]),
    st.sampled_from(["", "address to", "address payable to, bytes calldata data", "uint256", "uint[] memory xs, Q q"]),
    st.lists(HEADER, max_size=3).map(" ".join),
    st.lists(BODY, max_size=25).map(" ".join),
)
CONTRACT = st.builds(
    "{} contract C {{ {} {} }} {}".format,
    st.sampled_from(["", "pragma solidity ^0.7.0;", "pragma solidity >=0.8.0;", "pragma solidity;"]),
    st.lists(st.sampled_from(["address owner;", "uint256 x = 1;", "mapping(address => uint) bal;", "event E(uint a);",
                              "using SafeMath for uint;", "struct S { uint a; }"]), max_size=4).map(" ".join),
    st.lists(FUNCTION, max_size=4).map(" ".join),
    st.sampled_from(["", "}", "{", ")", "function h() external;", "interface I { function f() external; }"]),
)


@settings(max_examples=800, deadline=None)
@given(CONTRACT)
def test_matches_reference_on_generated_contracts(source):
    assert outcome(source) == reference_outcome(source)
