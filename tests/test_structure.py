from __future__ import annotations

from pathlib import Path

import pytest

from solguard.errors import StructuralError
from solguard.static_analysis.structure import (
    build_view,
    collect_state_variables,
    parse_pragma,
)
from solguard.static_analysis.tokenizer import tokenize_solidity

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def functions_of(source: str):
    return list(build_view(tokenize_solidity(source)).functions)


def test_presign_has_external_presign_function_without_modifiers():
    source = (FIXTURES / "presign.sol").read_text(encoding="utf-8")
    spans = functions_of(source)
    by_name = {fn.name: fn for fn in spans}
    assert "preSign" in by_name
    assert by_name["preSign"].visibility == "external"
    assert by_name["preSign"].modifiers == ()
    assert by_name["preSign"].mutates_state is True


def test_contract_without_functions_yields_empty_list():
    assert functions_of("pragma solidity ^0.8.0;\ncontract Empty { uint256 public x; }") == []


def test_nested_blocks_stay_inside_one_span():
    source = """
    contract C {
        function f(uint256 n) external pure returns (uint256) {
            uint256 acc = 0;
            for (uint256 i = 0; i < n; i++) {
                if (i % 2 == 0) {
                    acc += i;
                } else {
                    acc += 1;
                }
            }
            return acc;
        }
    }
    """
    spans = functions_of(source)
    assert len(spans) == 1
    # independent brace-matching oracle over the raw bytes
    data = source.encode("utf-8")
    fn_open = data.index(b"{", data.index(b"function"))
    depth = 0
    for i in range(fn_open, len(data)):
        if data[i : i + 1] == b"{":
            depth += 1
        elif data[i : i + 1] == b"}":
            depth -= 1
            if depth == 0:
                fn_close = i
                break
    assert spans[0].body_span == (fn_open, fn_close + 1)


def test_unbalanced_braces_raise_with_last_open_span():
    source = "contract C { function f() public { uint x = 1; "
    with pytest.raises(StructuralError) as err:
        functions_of(source)
    open_positions = [i for i, ch in enumerate(source) if ch == "{"]
    assert err.value.span[0] == open_positions[-1]


def test_visibility_and_modifier_extraction_skips_returns_group():
    source = """
    contract C {
        function f() internal view onlyOwner whenNotPaused(3) returns (uint256 x) {
            return 1;
        }
    }
    """
    fn = functions_of(source)[0]
    assert fn.visibility == "internal"
    assert fn.modifiers == ("onlyOwner", "whenNotPaused")


def test_bodyless_declarations_are_skipped():
    source = "interface I { function f() external; function g() external view returns (uint256); }"
    assert functions_of(source) == []


def test_constructor_fallback_receive_kinds():
    source = """
    contract C {
        constructor() {}
        receive() external payable {}
        fallback() external payable {}
        function go() public {}
    }
    """
    spans = functions_of(source)
    assert [(fn.name, fn.kind) for fn in spans] == [
        ("constructor", "constructor"),
        ("receive", "receive"),
        ("fallback", "fallback"),
        ("go", "function"),
    ]


def test_parameter_names_extracted():
    source = "contract C { function f(address payable to, bytes calldata data, uint256) external {} }"
    fn = functions_of(source)[0]
    assert fn.params == ("to", "data")


def test_state_variables_collected():
    source = """
    pragma solidity ^0.8.0;
    contract C {
        address public owner;
        mapping(bytes => uint256) public preSignatures;
        uint256 private constant FEE = 100;
        using SafeMath for uint256;
        event E(address a);

        modifier onlyOwner() { require(msg.sender == owner); _; }

        function f() external { owner = msg.sender; }
    }
    """
    tokens = tokenize_solidity(source)
    assert collect_state_variables(tokens) == {"owner", "preSignatures", "FEE"}


def test_mutates_state_detection():
    source = """
    contract C {
        uint256 public total;
        mapping(address => uint256) public balances;

        function write() external { total = 1; }
        function writeMap() external { balances[msg.sender] -= 2; }
        function reader() external view returns (uint256) { return total; }
        function localOnly() external pure returns (uint256) { uint256 x = 1; return x; }
        function sends(address payable to) external { to.transfer(1); }
    }
    """
    spans = {fn.name: fn for fn in functions_of(source)}
    assert spans["write"].mutates_state
    assert spans["writeMap"].mutates_state
    assert not spans["reader"].mutates_state
    assert not spans["localOnly"].mutates_state
    assert spans["sends"].mutates_state


def test_pragma_parsing_and_comparison():
    tokens = tokenize_solidity("pragma solidity >=0.6.0 <0.8.0;\ncontract C {}")
    assert parse_pragma(tokens) == ">=0.6.0<0.8.0"
    view = build_view(tokens)
    assert view.pragma_below(0, 8)

    tokens = tokenize_solidity("pragma solidity ^0.8.10;\ncontract C {}")
    assert not build_view(tokens).pragma_below(0, 8)

    assert parse_pragma(tokenize_solidity("contract C {}")) is None


def test_fixture_corpus_functions_match_manifest():
    import json

    manifest = json.loads((FIXTURES / "rules" / "manifest.json").read_text(encoding="utf-8"))
    for name, expected in manifest.items():
        source = (FIXTURES / "rules" / name).read_text(encoding="utf-8")
        got = [fn.name for fn in functions_of(source)]
        assert got == expected["functions"], f"{name}: functions {got} != {expected['functions']}"
