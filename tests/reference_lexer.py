"""Reference lexer: the byte-walking Solidity lexer that the regex lexer in
``solguard.static_analysis.tokenizer`` replaced, kept as a test oracle.

``tests/test_tokenizer.py`` requires the two to agree on every token (kind,
lexeme, span) and on every ``LexicalError`` (message, span). The code below
is the replaced module as it was, except that comments are tagged with a
local ``_COMMENT`` kind, since ``TokenKind`` no longer has one. Never import
this module from ``src/``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from solguard.core import Span, Token, TokenKind
from solguard.errors import LexicalError

KEYWORDS = frozenset(
    """
    pragma solidity contract interface library abstract import using is
    function constructor fallback receive modifier event error struct enum
    mapping public private internal external pure view payable constant
    immutable virtual override returns return if else for while do break
    continue new delete emit memory storage calldata indexed anonymous
    unchecked try catch assembly type bool string bytes address uint int
    true false wei gwei ether seconds minutes hours days weeks
    """.split()
)

# uint8..uint256 / int / bytes1..bytes32 and friends
_SIZED_TYPE = re.compile(r"^(u?int(\d+)?|bytes(\d+)?|fixed|ufixed)$")

# longest first so maximal munch picks compound operators
_OPERATORS = [
    b">>=", b"<<=", b"**=",
    b"==", b"!=", b"<=", b">=", b"&&", b"||", b"+=", b"-=", b"*=", b"/=",
    b"%=", b"|=", b"&=", b"^=", b"++", b"--", b"**", b"<<", b">>", b"=>", b"->",
    b"{", b"}", b"(", b")", b"[", b"]", b";", b",", b".", b"?", b":",
    b"=", b"+", b"-", b"*", b"/", b"%", b"!", b"&", b"|", b"^", b"~", b"<", b">",
]

_IDENT_START = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | frozenset(b"0123456789")
_DIGITS = frozenset(b"0123456789")
_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF_")
_WHITESPACE = frozenset(b" \t\n\f\v")
_COMMENT = "comment"


@dataclass(frozen=True)
class TokenStream:
    """Lexer output: code tokens plus the discarded comment channel."""

    tokens: tuple[Token, ...]
    comments: tuple[Token, ...]


def _classify_word(word: str) -> TokenKind:
    if word in KEYWORDS or _SIZED_TYPE.match(word):
        return TokenKind.KEYWORD
    return TokenKind.IDENT


def tokenize_solidity(source: str) -> TokenStream:
    """Tokenize Solidity source text.

    Raises :class:`LexicalError` on unterminated strings or block comments
    and on bytes that do not start any token.
    """
    data = source.encode("utf-8")
    n = len(data)
    tokens: list[Token] = []
    comments: list[Token] = []
    i = 0
    while i < n:
        b = data[i]
        if b in _WHITESPACE:
            i += 1
            continue
        if data.startswith(b"//", i):
            end = data.find(b"\n", i)
            end = n if end == -1 else end
            comments.append(_token(_COMMENT, data, i, end))
            i = end
            continue
        if data.startswith(b"/*", i):
            end = data.find(b"*/", i + 2)
            if end == -1:
                raise LexicalError("unterminated block comment", (i, n))
            comments.append(_token(_COMMENT, data, i, end + 2))
            i = end + 2
            continue
        if b in (0x22, 0x27):  # " or '
            i = _scan_string(data, i, tokens)
            continue
        if b in _DIGITS:
            i = _scan_number(data, i, tokens)
            continue
        if b in _IDENT_START:
            j = i + 1
            while j < n and data[j] in _IDENT_CONT:
                j += 1
            word = data[i:j].decode("utf-8")
            tokens.append(Token(_classify_word(word), word, Span(i, j)))
            i = j
            continue
        op = _match_operator(data, i)
        if op is not None:
            tokens.append(Token(TokenKind.PUNCT, op.decode("ascii"), Span(i, i + len(op))))
            i += len(op)
            continue
        raise LexicalError(f"unexpected byte {bytes([b])!r}", (i, i + 1))
    return TokenStream(tuple(tokens), tuple(comments))


def _token(kind: TokenKind, data: bytes, start: int, end: int) -> Token:
    lexeme = data[start:end].decode("utf-8", errors="replace")
    return Token(kind, lexeme, Span(start, end))


def _match_operator(data: bytes, i: int) -> bytes | None:
    for op in _OPERATORS:
        if data.startswith(op, i):
            return op
    return None


def _scan_string(data: bytes, i: int, tokens: list[Token]) -> int:
    quote = data[i]
    j = i + 1
    n = len(data)
    while j < n:
        b = data[j]
        if b == 0x5C:  # backslash escape
            j += 2
            continue
        if b == quote:
            tokens.append(_token(TokenKind.STRING, data, i, j + 1))
            return j + 1
        if b == 0x0A:
            break
        j += 1
    raise LexicalError("unterminated string literal", (i, min(j, n)))


def _scan_number(data: bytes, i: int, tokens: list[Token]) -> int:
    n = len(data)
    j = i
    if data.startswith(b"0x", i) or data.startswith(b"0X", i):
        j = i + 2
        while j < n and data[j] in _HEX_DIGITS:
            j += 1
    else:
        while j < n and (data[j] in _DIGITS or data[j] == 0x5F):  # digits and _
            j += 1
        if j < n and data[j] == 0x2E and j + 1 < n and data[j + 1] in _DIGITS:  # .
            j += 1
            while j < n and data[j] in _DIGITS:
                j += 1
        if j < n and data[j] in (0x65, 0x45) and j + 1 < n and data[j + 1] in _DIGITS:  # e/E
            j += 1
            while j < n and data[j] in _DIGITS:
                j += 1
    tokens.append(_token(TokenKind.NUMBER, data, i, j))
    return j
