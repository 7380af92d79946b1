"""The source an advisor or assessor prompt shows for one finding, the two
sources a verifier prompt shows for one patch, and the source a fixer
prompt shows with the splice that puts its reply back into the whole file."""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.agents.remediate import (
    RiskAssignment,
    build_advisor_prompt,
    build_assessor_prompt,
    build_verifier_prompt,
    excerpt,
    fix,
    verifier_excerpts,
)
from solguard.core import Channel, Finding, Location, Patch, RepairSuggestion, RiskLevel, Span, VulnerabilityClass
from solguard.llm.mock import TranscriptRecorder
from solguard.llm.prompts import VERIFIER_TEMPLATE
from solguard.llm.provider import prompt_fingerprint
from solguard.llm.template import render_prompt
from solguard.static_analysis import scanner
from solguard.static_analysis.scanner import load_file, load_source

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RULE_FIXTURES = FIXTURES / "rules"


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


# -- the verifier's two excerpts ------------------------------------------


def patch_of(repaired: str, *functions: str) -> Patch:
    return Patch(
        original="c",
        repaired_source=repaired,
        addressed_findings=tuple(finding(name) for name in functions or ("",)),
        rationale="r",
    )


def whole_source_prompt(contract, patch: Patch) -> str:
    """A verifier prompt that binds both whole sources."""
    findings_text = "\n".join(f"- {f.vuln_class.name} in {f.function_label}" for f in patch.addressed_findings)
    return render_prompt(
        VERIFIER_TEMPLATE, {"findings": findings_text, "code": contract.source, "patched_code": patch.repaired_source}
    )


THREE = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.0;

contract A {
    function f() public { x = 1; }
}

contract B {
    function g() public { y = 2; }
}

contract C {
    function h() public { z = 3; }
}
"""


def test_a_swapped_contract_is_all_either_side_shows():
    contract = load_source("c", THREE)
    patch = patch_of(THREE.replace("y = 2;", "require(msg.sender == owner); y = 2;"), "g")
    head = "// SPDX-License-Identifier: MIT\npragma solidity ^0.8.0;\n\n"
    assert verifier_excerpts(contract, patch) == (
        head + "contract B {\n    function g() public { y = 2; }\n}\n\n",
        head + "contract B {\n    function g() public { require(msg.sender == owner); y = 2; }\n}\n\n",
    )


def test_a_renamed_contract_shows_the_old_name_before_and_the_new_one_after():
    contract = load_source("c", TWO)
    original, patched = verifier_excerpts(contract, patch_of(TWO.replace("contract B", "contract Guarded")))
    assert "contract B" in original and "Guarded" not in original
    assert "contract Guarded" in patched and "contract B" not in patched
    assert "contract A" not in original and "contract A" not in patched


def test_a_contract_deriving_from_a_changed_base_stays_with_the_base_s_bases():
    source = """\
pragma solidity ^0.8.0;

contract Root { uint256 internal total; }

contract Base is Root {
    function bump() internal { total += 1; }
}

contract Derived is Base {
    function run() external { bump(); }
}

contract Other {
    function idle() external {}
}
"""
    contract = load_source("c", source)
    patch = patch_of(source.replace("total += 1;", "total += 2;"), "bump")
    for side in verifier_excerpts(contract, patch):
        assert "contract Root" in side and "contract Base is Root" in side and "contract Derived is Base" in side
        assert "Other" not in side


def test_a_patch_of_file_level_text_alone_keeps_the_findings_home_contracts():
    contract = load_source("c", TWO)
    patch = patch_of(TWO.replace("pragma solidity ^0.8.0;", "pragma solidity ^0.8.20;"), "g")
    original, patched = verifier_excerpts(contract, patch)
    assert original == "pragma solidity ^0.8.0;\n\ncontract B {\n    function g() public { y = 2; }\n}\n"
    assert patched == original.replace("^0.8.0", "^0.8.20")


def test_a_one_contract_side_is_the_whole_source():
    one = "pragma solidity ^0.8.0;\ncontract A { function f() public { x = 2; } }\n"
    contract = load_source("c", one)
    patch = patch_of(one + "\ncontract Helper { function help() public {} }\n")
    original, patched = verifier_excerpts(contract, patch)
    assert original == contract.source
    assert patched == "pragma solidity ^0.8.0;\ncontract Helper { function help() public {} }\n"  # the other side is cut
    original, patched = verifier_excerpts(load_source("c", patch.repaired_source), patch_of(one))
    assert original == "pragma solidity ^0.8.0;\ncontract Helper { function help() public {} }\n"
    assert patched == one


FREE_FUNCTION = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.0;

function double(uint256 a) pure returns (uint256) { return Maths.twice(a); }

library Maths { function twice(uint256 a) internal pure returns (uint256) { return a * 2; } }

contract A { function f() public { x = double(1); } }

contract B { function g() public { y = 2; } }
"""


def test_a_one_contract_file_shows_whole_for_a_free_function_s_finding():
    source = (
        "pragma solidity ^0.8.0;\nfunction double(uint256 a) pure returns (uint256) { return a * 2; }\n"
        "contract A { function f() public { x = double(1); } }\n"
    )
    contract = load_source("c", source)
    assert excerpt(contract, finding("double")) == source


def test_a_verifier_side_keeps_what_an_addressed_free_function_names():
    contract = load_source("c", FREE_FUNCTION)
    patch = patch_of(FREE_FUNCTION.replace("x = double(1);", "require(msg.sender == owner); x = double(1);"), "double")
    for side in verifier_excerpts(contract, patch):
        assert "library Maths" in side and "contract A" in side
        assert "contract B" not in side


def chain(n: int) -> str:
    """``n`` contracts, each deriving from the one before."""
    lines = ["pragma solidity ^0.8.0;", "contract C0 { function f0() public { x = 0; } }"]
    lines += [f"contract C{i} is C{i - 1} {{ function f{i}() public {{ x = {i}; }} }}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def test_both_closures_are_linear_in_the_containers_of_a_file():
    source = chain(4_000)
    contract = load_source("c", source)
    patch = patch_of(source.replace("x = 0;", "x = 1;"), "f0")
    contract.view, patch.repaired.view  # segment both sides before the clock starts
    started = time.perf_counter()
    assert excerpt(contract, finding("f3999")) == source  # the last contract keeps every base
    assert time.perf_counter() - started < 1.0
    started = time.perf_counter()
    assert verifier_excerpts(contract, patch) == (source, patch.repaired_source)  # each derives from C0
    assert time.perf_counter() - started < 1.0


def test_the_presign_verifier_prompt_still_replays_from_the_shipped_transcript():
    import presign_fixture

    _, run = presign_fixture.build_transcript()
    prompt = build_verifier_prompt(load_file(FIXTURES / "presign.sol", "presign"), run.patch)
    shipped = (FIXTURES / "presign_transcript.jsonl").read_text(encoding="utf-8").splitlines()
    assert {"role": "verifier", "fingerprint": prompt_fingerprint(prompt)} in [
        {k: entry[k] for k in ("role", "fingerprint")} for entry in map(json.loads, shipped)
    ]


TWINS = {
    path.name: sorted(RULE_FIXTURES.glob(path.name.replace("_pos.sol", "_neg*.sol")))
    for path in sorted(RULE_FIXTURES.glob("*_pos.sol"))
}


@settings(max_examples=150, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(TWINS)), min_size=1, max_size=4),
    swap=st.integers(min_value=0),
    twin=st.integers(min_value=0),
    pick=st.integers(min_value=0),
)
def test_every_changed_container_shows_verbatim_on_its_side(names, swap, twin, pick):
    segments = [_fixture_body(RULE_FIXTURES / name) for name in names]
    twins = TWINS[names[swap % len(names)]]
    patched_segments = list(segments)
    patched_segments[swap % len(names)] = _fixture_body(twins[twin % len(twins)])
    head = "pragma solidity ^0.8.0;\n\n"
    contract = load_source("c", head + "\n".join(segments))
    functions = sorted({fn.name for fn in contract.view.functions})
    patch = patch_of(head + "\n".join(patched_segments), functions[pick % len(functions)])
    shown = verifier_excerpts(contract, patch)
    sides = (contract, patch.repaired)
    for side, other, text in zip(sides, reversed(sides), shown):
        load_source("e", text).view  # raises unless it lexes and segments
        data, other_data = side.token_stream.data, other.token_stream.data
        twins_left = [other_data[c.span.start : c.span.end] for c in other.view.containers]
        for c in side.view.containers:
            container_text = data[c.span.start : c.span.end]
            if container_text in twins_left:
                twins_left.remove(container_text)
            else:
                assert container_text.decode("utf-8") in text
    if shown == (contract.source, patch.repaired_source):
        assert build_verifier_prompt(contract, patch) == whole_source_prompt(contract, patch)


# -- the fixer's excerpt and the splice ------------------------------------


def fixed(source: str, edit, *functions: str) -> tuple[str, Patch]:
    """The code of the fixer prompt for findings in ``functions`` of
    ``source``, and the patch :func:`fix` makes of ``edit(that code)``."""
    shown: list[str] = []

    def reply(role: str, prompt: str) -> str:
        shown.append(prompt.split("\n\nContract code:\n", 1)[1])
        return json.dumps({"repaired_source": edit(shown[-1]), "rationale": "r"})

    assignments = [RiskAssignment(finding(name), RiskLevel.HIGH) for name in functions]
    suggestions = [RepairSuggestion("", "", "", (), (), a.finding, complete=False) for a in assignments]
    patch = fix(load_source("c", source), suggestions, assignments, TranscriptRecorder(reply))
    return shown[0], patch


def grown(source: str, names: set[str] | None = None) -> str:
    """``source`` with a function added at the end of each container named in
    ``names``, or of every container."""
    contract = load_source("e", source)
    data = contract.token_stream.data
    for container in reversed(contract.view.containers):
        if names is None or container.name in names:
            at = container.span.end - 1  # the closing brace
            data = data[:at] + b"    function spliced() public { touched += 1; }\n" + data[at:]
    return data.decode("utf-8")


LIBRARY_AND_THREE = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.0;
import "./Token.sol";

/// Arithmetic the vault relies on.
library SafeAdd {
    function plus(uint256 a, uint256 b) internal pure returns (uint256) { return a + b; }
}

// the vault
contract Vault {
    using SafeAdd for uint256;
    function withdraw() external { total = total.plus(1); }
}

// the lottery
contract Lottery {
    function draw() external { winner = block.timestamp % 7; }
}

// the registry
contract Registry {
    function register() external { owner = msg.sender; }
}
"""


def test_a_fixer_prompt_shows_the_findings_containers_their_closure_and_every_root_line():
    contract = load_source("c", LIBRARY_AND_THREE)
    shown, patch = fixed(LIBRARY_AND_THREE, lambda code: code, "withdraw", "draw")
    registry = "contract Registry {\n    function register() external { owner = msg.sender; }\n}\n"
    assert shown == LIBRARY_AND_THREE.replace(registry, "")
    for kept in ("library SafeAdd", "contract Vault", "contract Lottery"):
        assert kept in shown
    assert body_of(contract, "register") not in shown
    roots = [line for line in LIBRARY_AND_THREE.splitlines() if line.startswith(("//", "pragma", "import"))]
    assert len(roots) == 7 and all(line in shown.splitlines() for line in roots)
    assert patch.repaired_source == LIBRARY_AND_THREE  # an unedited excerpt splices back to its source


def test_a_fixer_prompt_for_several_containers_asks_for_the_code_shown_not_the_whole_source():
    # a model told to return the complete source may write a stand-in for a
    # cut container, which the splice cannot tell from an edit of it
    prompts: list[str] = []

    def reply(role: str, prompt: str) -> str:
        prompts.append(prompt)
        return json.dumps({"repaired_source": prompt.split("\n\nContract code:\n", 1)[1], "rationale": "r"})

    assignments = [RiskAssignment(finding("withdraw"), RiskLevel.HIGH)]
    suggestions = [RepairSuggestion("", "", "", (), (), assignments[0].finding, complete=False)]
    fix(load_source("c", LIBRARY_AND_THREE), suggestions, assignments, TranscriptRecorder(reply))
    (prompt,) = prompts
    instructions, code = prompt.split("\n\nVulnerabilities in priority order:\n", 1)
    assert "contract Registry" not in code and "contract Lottery" not in code  # an excerpt
    assert not re.search(r"\b(complete|full)\b[^.\n]*\bsource", instructions, re.IGNORECASE), instructions
    assert "the code shown, repaired in full" in instructions


HEAD = "// SPDX-License-Identifier: MIT\npragma solidity ^0.8.0;\n\n"
A, B, C, D = (
    f"contract {name} {{\n    function {function}() public {{ {variable} = {i}; }}\n}}"
    for i, (name, function, variable) in enumerate(zip("ABCD", "fghk", "xyzw"), start=1)
)
FOUR = HEAD + "\n\n".join([A, B, C, D]) + "\n"


@pytest.mark.parametrize(
    "functions, edit, spliced",
    [
        (
            ("g", "k"),
            lambda code: code.replace("^0.8.0", "^0.8.20").replace("y = 2;", "y = 3;"),
            FOUR.replace("^0.8.0", "^0.8.20").replace("y = 2;", "y = 3;"),  # each before the next kept container
        ),
        (
            ("g", "k"),
            lambda code: code.replace("contract B", "contract Guarded"),
            HEAD + "\n\n".join([B.replace("contract B", "contract Guarded"), A, C, D]) + "\n",  # A and C before D
        ),
        (
            ("k",),
            lambda code: code.replace("contract D", "contract Last").rstrip("\n"),
            HEAD + D.replace("contract D", "contract Last") + "\n" + "\n\n".join([A, B, C]) + "\n\n",  # at the end
        ),
    ],
    ids=["pragma-edited", "kept-container-renamed", "last-kept-container-renamed"],
)
def test_a_reply_that_edits_outside_its_containers_or_renames_one_splices_by_name(functions, edit, spliced):
    shown, patch = fixed(FOUR, edit, *functions)
    assert shown == HEAD + "\n\n".join(c for c in (A, B, C, D) if any(f"{f}()" in c for f in functions)) + "\n"
    assert patch.repaired_source == spliced
    load_source("e", spliced).view  # lexes and segments


def test_a_whole_file_reply_stands_as_it_is_and_is_lexed_once(monkeypatch):
    lexed: list[str] = []
    monkeypatch.setattr(scanner, "load_source", lambda *args: lexed.append(args[0]) or load_source(*args))
    whole = FOUR.replace("y = 2;", "y = 3;")
    shown, patch = fixed(FOUR, lambda code: whole, "g")
    assert shown != FOUR and patch.repaired_source == whole
    patch.repaired.view
    assert lexed == ["c.patched"]  # the reply's own lex is the patch's
    lexed.clear()
    _, patch = fixed(FOUR, lambda code: code.replace("y = 2;", "y = 3;"), "g")
    assert patch.repaired_source == whole
    patch.repaired.view
    assert lexed == ["c.patched", "c.patched"]  # the reply, then the spliced file


def test_two_containers_of_one_name_send_the_whole_source():
    source = FOUR.replace("contract C", "contract A")
    shown, patch = fixed(source, lambda code: code.replace("y = 2;", "y = 3;"), "g")
    assert shown == source
    assert patch.repaired_source == source.replace("y = 2;", "y = 3;")


RULE_TEXTS = {path: path.read_text(encoding="utf-8") for path in sorted(RULE_FIXTURES.glob("*.sol"))}


def _by_container() -> dict[str, list[Path]]:
    """The rules fixtures, grouped by the name of each container they hold."""
    grouped: dict[str, list[Path]] = {}
    for path, text in RULE_TEXTS.items():
        for container in load_source(path.stem, text).view.containers:
            grouped.setdefault(container.name, []).append(path)
    return grouped


BY_CONTAINER = _by_container()


@settings(max_examples=200, deadline=None)
@given(
    picks=st.lists(
        st.tuples(st.sampled_from(sorted(BY_CONTAINER)), st.integers(min_value=0)),
        min_size=1, max_size=5, unique_by=lambda pick: pick[0],
    ),
    chosen=st.lists(st.integers(min_value=0), min_size=1, max_size=2),
)
def test_a_spliced_edit_of_the_fixer_s_excerpt_is_the_same_edit_of_the_whole_file(picks, chosen):
    # whole rule files, so each cut contract lies before the next file's licence and pragma lines
    source = "\n".join(RULE_TEXTS[BY_CONTAINER[name][i % len(BY_CONTAINER[name])]] for name, i in picks)
    functions = sorted({fn.name for fn in load_source("c", source).view.functions})
    shown, patch = fixed(source, grown, *(functions[i % len(functions)] for i in chosen))
    kept = {container.name for container in load_source("e", shown).view.containers}
    assert patch.repaired_source == grown(source, kept)
