"""The source an advisor or assessor prompt shows for one finding."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.agents.remediate import build_advisor_prompt, build_assessor_prompt, excerpt
from solguard.core import Channel, Finding, Location, Span, VulnerabilityClass
from solguard.static_analysis.scanner import load_source

RULE_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "rules"


def finding(function: str) -> Finding:
    return Finding(
        contract_id="c",
        vuln_class=VulnerabilityClass("Reentrancy"),
        location=Location(Span(0, 1), function),
        evidence="evidence line",
        channel=Channel.STATIC,
        confidence=0.9,
    )


def bodies_of(contract, name: str) -> list[str]:
    """The text of each body of the functions called ``name``."""
    data = contract.token_stream.data
    return [data[fn.body_span.start : fn.body_span.end].decode("utf-8") for fn in contract.view.functions if fn.name == name]


def body_of(contract, name: str) -> str:
    (body,) = bodies_of(contract, name)
    return body


TWO = """\
pragma solidity ^0.8.0;

contract A {
    function f() public { x = 1; }
}

contract B {
    function g() public { y = 2; }
}
"""

HIERARCHY = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.0;
import "./Token.sol";

library SafeAdd {
    function plus(uint256 a, uint256 b) internal pure returns (uint256) { return a + b; }
}

abstract contract Ledger {
    using SafeAdd for uint256;
    uint256 internal total;
    function bump() internal { total = total.plus(1); }
}

contract Vault is Ledger {
    function withdraw() external { bump(); payable(msg.sender).transfer(1); }
}

contract Lottery {
    function draw() external { winner = block.timestamp % 7; }
}
"""


def test_the_finding_s_own_contract_stays_and_the_other_is_cut_with_its_whitespace():
    contract = load_source("c", TWO)
    assert excerpt(contract, finding("f")) == (
        "pragma solidity ^0.8.0;\n\ncontract A {\n    function f() public { x = 1; }\n}\n\n"
    )
    assert excerpt(contract, finding("g")) == (
        "pragma solidity ^0.8.0;\n\ncontract B {\n    function g() public { y = 2; }\n}\n"
    )


def test_a_base_contract_and_a_library_it_uses_stay_transitively():
    contract = load_source("c", HIERARCHY)
    shown = excerpt(contract, finding("withdraw"))
    for kept in ("withdraw", "bump", "plus"):
        assert body_of(contract, kept) in shown
    assert "abstract contract Ledger" in shown
    assert "library SafeAdd" in shown
    assert "Lottery" not in shown and body_of(contract, "draw") not in shown
    # file-level text stays, in order
    assert shown.startswith('// SPDX-License-Identifier: MIT\npragma solidity ^0.8.0;\nimport "./Token.sol";\n')


def test_a_cut_abstract_contract_takes_its_keyword_along():
    contract = load_source("c", HIERARCHY)
    shown = excerpt(contract, finding("draw"))
    assert "abstract" not in shown and "Ledger" not in shown and "SafeAdd" not in shown
    assert body_of(contract, "draw") in shown
    assert load_source("e", shown).view.functions[0].name == "draw"


def test_a_repeated_name_keeps_every_contract_that_defines_it():
    source = """\
pragma solidity ^0.8.0;
contract A { address owner; constructor() { owner = msg.sender; } }
contract B { uint256 start; constructor() { start = block.number; } }
contract C { function g() public {} }
"""
    contract = load_source("c", source)
    shown = excerpt(contract, finding("constructor"))
    assert all(body in shown for body in bodies_of(contract, "constructor"))
    assert "contract A" in shown and "contract B" in shown
    assert "contract C" not in shown


@pytest.mark.parametrize(
    "source, function",
    [
        (TWO, ""),  # a contract-level finding
        (TWO, "nowhere"),  # a name no function has
        ("pragma solidity ^0.8.0;\ncontract A { function f() public {} }\n", "f"),  # one container
        (HIERARCHY.replace("contract Lottery", "contract Lottery is Vault"), "draw"),  # nothing to cut
    ],
    ids=["contract-level", "unknown-name", "one-container", "nothing-cut"],
)
def test_the_whole_source_goes_when_there_is_nothing_to_decompose(source, function):
    contract = load_source("c", source)
    assert excerpt(contract, finding(function)) == contract.source


def test_a_free_function_s_finding_keeps_the_file_level_text():
    source = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.0;

function double(uint256 a) pure returns (uint256) { return Maths.twice(a); }

library Maths { function twice(uint256 a) internal pure returns (uint256) { return a * 2; } }

contract A { function f() public { x = double(1); } }
"""
    contract = load_source("c", source)
    shown = excerpt(contract, finding("double"))
    assert shown.startswith("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.0;\n\nfunction double(")
    assert body_of(contract, "double") in shown
    assert "library Maths" in shown  # named inside the free function
    assert "contract A" not in shown


def test_an_advisor_prompt_holds_the_function_and_no_other_contract_s_function_body():
    contract = load_source("c", HIERARCHY)
    prompt = build_advisor_prompt(contract, finding("draw"), None)
    assert body_of(contract, "draw") in prompt
    for other in ("withdraw", "bump", "plus"):
        assert body_of(contract, other) not in prompt
    assert build_assessor_prompt(contract, finding("draw"), None, None).count(body_of(contract, "draw")) == 1


def _fixture_body(path: Path) -> str:
    """A rules fixture without its licence and pragma lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(line for line in lines if not line.startswith(("// SPDX", "pragma solidity"))).strip() + "\n"


BODIES = [_fixture_body(path) for path in sorted(RULE_FIXTURES.glob("*.sol"))]


@settings(max_examples=150, deadline=None)
@given(bodies=st.lists(st.sampled_from(BODIES), min_size=1, max_size=4), pick=st.integers(min_value=0))
def test_every_excerpt_lexes_segments_and_keeps_its_function(bodies, pick):
    contract = load_source("c", "pragma solidity ^0.8.0;\n\n" + "\n".join(bodies))
    names = sorted({fn.name for fn in contract.view.functions})
    name = names[pick % len(names)]
    shown = excerpt(contract, finding(name))
    view = load_source("e", shown).view  # raises unless it lexes and segments
    assert all(body in shown for body in bodies_of(contract, name))
    source_texts = [contract.source.encode("utf-8")[c.span.start : c.span.end] for c in contract.view.containers]
    shown_texts = [shown.encode("utf-8")[c.span.start : c.span.end] for c in view.containers]
    if len(shown_texts) == len(source_texts):
        assert shown == contract.source
    # what stays is closed under naming: no cut container is named inside a kept one
    kept_names = {c.name for c in view.containers}
    for container, text in zip(contract.view.containers, source_texts):
        if text not in shown_texts:
            assert container.name not in kept_names
            assert not any(view.index.find(container.name, c.rows) for c in view.containers)
