from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lexer
from solguard.core import TokenKind, byte_length
from solguard.errors import LexicalError
from solguard.static_analysis.tokenizer import tokenize_solidity

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def kinds_and_lexemes(source: str):
    return [(t.kind.value, t.lexeme) for t in tokenize_solidity(source)]


def test_simple_function_declaration():
    assert kinds_and_lexemes("function f() public {}") == [
        ("keyword", "function"),
        ("ident", "f"),
        ("punct", "("),
        ("punct", ")"),
        ("keyword", "public"),
        ("punct", "{"),
        ("punct", "}"),
    ]


def test_empty_source_yields_empty_stream():
    assert tokenize_solidity("") == ()


def test_line_comment_goes_to_discard_channel():
    assert kinds_and_lexemes("// note\nuint x;") == [
        ("keyword", "uint"),
        ("ident", "x"),
        ("punct", ";"),
    ]


def test_block_comment_discarded():
    assert [t.lexeme for t in tokenize_solidity("/* a\nb */ uint y;")] == ["uint", "y", ";"]


def test_string_literals_and_escapes():
    strings = [t for t in tokenize_solidity('call("hello \\"x\\"");') if t.kind is TokenKind.STRING]
    assert len(strings) == 1
    assert strings[0].lexeme == '"hello \\"x\\""'


def test_compound_operators_maximal_munch():
    assert [lex for _, lex in kinds_and_lexemes("a >= b != c => d -= e")] == [
        "a", ">=", "b", "!=", "c", "=>", "d", "-=", "e",
    ]


def test_numbers_decimal_and_hex():
    lexemes = [lex for kind, lex in kinds_and_lexemes("x = 1_000 + 0xFF + 2e10;") if kind == "number"]
    assert lexemes == ["1_000", "0xFF", "2e10"]


def test_sized_types_are_keywords():
    kinds = {lex: kind for kind, lex in kinds_and_lexemes("uint256 a; bytes32 b; int8 c;")}
    assert kinds["uint256"] == "keyword"
    assert kinds["bytes32"] == "keyword"
    assert kinds["int8"] == "keyword"
    assert kinds["a"] == "ident"


def test_unterminated_string_raises_with_span():
    with pytest.raises(LexicalError) as err:
        tokenize_solidity('x = "oops;')
    assert err.value.span[0] == 4


def test_unterminated_block_comment_raises():
    with pytest.raises(LexicalError, match="block comment"):
        tokenize_solidity("uint x; /* dangling")


def test_unexpected_byte_raises():
    with pytest.raises(LexicalError):
        tokenize_solidity("uint x; §")


def test_spans_are_ascending_non_overlapping_and_in_bounds():
    for path in sorted((FIXTURES / "rules").glob("*.sol")):
        source = path.read_text(encoding="utf-8")
        limit = byte_length(source)
        prev_end = 0
        for tok in tokenize_solidity(source):
            assert 0 <= tok.span.start < tok.span.end <= limit
            assert tok.span.start >= prev_end
            prev_end = tok.span.end


def test_span_slices_reproduce_lexemes():
    source = (FIXTURES / "presign.sol").read_text(encoding="utf-8")
    data = source.encode("utf-8")
    for tok in tokenize_solidity(source):
        assert data[tok.span.start : tok.span.end].decode("utf-8") == tok.lexeme


def test_tokenization_is_deterministic():
    source = (FIXTURES / "presign.sol").read_text(encoding="utf-8")
    assert tokenize_solidity(source) == tokenize_solidity(source)


def test_non_ascii_content_keeps_byte_spans_consistent():
    source = '// naïve café comment\nstring s = "héllo"; uint z;'
    tokens = tokenize_solidity(source)
    data = source.encode("utf-8")
    for tok in tokens:
        assert data[tok.span.start : tok.span.end].decode("utf-8") == tok.lexeme
    assert [t.lexeme for t in tokens][-3:] == ["uint", "z", ";"]


# (source, expected (kind, lexeme, span) triples) at each boundary of the grammar
GRAMMAR_EDGES = {
    "block comment closes only after its opener": ("/*/ x */", []),
    "hex prefix alone is a number": ("0x", [("number", "0x", (0, 2))]),
    "fraction needs a digit after the dot": (
        "1.e5", [("number", "1", (0, 1)), ("punct", ".", (1, 2)), ("ident", "e5", (2, 4))]
    ),
    "exponent needs a digit": ("1e", [("number", "1", (0, 1)), ("ident", "e", (1, 2))]),
    "dollar starts an identifier": ("$x", [("ident", "$x", (0, 2))]),
    "shift-assign is one operator": (">>=", [("punct", ">>=", (0, 3))]),
    "power-assign is one operator": ("**=", [("punct", "**=", (0, 3))]),
    "arrow is one operator": ("=>", [("punct", "=>", (0, 2))]),
}


@pytest.mark.parametrize("source, expected", GRAMMAR_EDGES.values(), ids=GRAMMAR_EDGES.keys())
def test_grammar_edges(source, expected):
    assert [(t.kind.value, t.lexeme, tuple(t.span)) for t in tokenize_solidity(source)] == expected


# (source, message, span) for each error at a boundary of the grammar
ERROR_EDGES = {
    "backslash at input end stays in the string": ('"a\\', "unterminated string literal", (0, 3)),
    "newline ends a string": ("'a\nb'", "unterminated string literal", (0, 2)),
    "bare carriage return": ("x\ry", "unexpected byte b'\\r'", (1, 2)),
    "non-ASCII byte reported at its first byte": ("a é", "unexpected byte b'\\xc3'", (2, 3)),
    "block comment left open": ("x /* y", "unterminated block comment", (2, 6)),
}


@pytest.mark.parametrize("source, message, span", ERROR_EDGES.values(), ids=ERROR_EDGES.keys())
def test_error_edges(source, message, span):
    with pytest.raises(LexicalError) as err:
        tokenize_solidity(source)
    assert str(err.value) == f"{message} at bytes {span[0]}..{span[1]}"
    assert err.value.span == span


def lex_outcome(lex, source):
    """Tokens, or the error's message and span: what the two lexers must share."""
    try:
        return lex(source)
    except LexicalError as exc:
        return (str(exc), exc.span)


def test_matches_reference_lexer_on_fixtures():
    paths = sorted(FIXTURES.rglob("*.sol"))
    assert paths
    for path in paths:
        source = path.read_text(encoding="utf-8")
        assert tokenize_solidity(source) == reference_lexer.tokenize_solidity(source).tokens, path.name


# every byte class that decides a token boundary, plus the compound operators
LEXER_ALPHABET = st.sampled_from(
    list("/*\"'\\\n\r\t\f\v é§axeE_$09.")
    + [">>=", "<<=", "**=", "==", "=>", "->", "++", "--", "&&", "||", "!="]
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(LEXER_ALPHABET, max_size=24).map("".join))
def test_matches_reference_lexer(source):
    expected = lex_outcome(lambda s: reference_lexer.tokenize_solidity(s).tokens, source)
    assert lex_outcome(tokenize_solidity, source) == expected
