r"""Lexical scanner for Solidity source.

Lexes the UTF-8 bytes of the source, so token spans are byte offsets, with
one regex whose alternatives are tried in this order at each position:

1. whitespace ``[ \t\n\f\v]+``, skipped;
2. a ``//`` comment to the end of the line, then a ``/* ... */`` comment
   closed by the first ``*/`` after the opener (so ``/*/`` stays open);
3. a ``"`` or ``'`` string; a backslash escapes any one byte, and an
   unescaped newline leaves the string unterminated;
4. an unterminated block comment or string, which is an error;
5. a number: hex ``0[xX][0-9a-fA-F_]*``, else decimal
   ``[0-9][0-9_]*(\.[0-9]+)?([eE][0-9]+)?``;
6. a word ``[A-Za-z_$][A-Za-z_$0-9]*``: a keyword if it is in
   :data:`KEYWORDS` or a sized type, else an identifier;
7. an operator, longest first, so ``>>=`` is one token;
8. any other byte, which is an error.

Comments are dropped with the whitespace. A :class:`LexicalError` spans the
rest of the input for an unterminated block comment; for an unterminated
string, up to the newline or input end that stopped it (a trailing lone
backslash included); and for an unexpected byte, that byte, which the
message names.
"""

from __future__ import annotations

import re

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

# group names that are token kinds are emitted as such; see the module docstring
_GRAMMAR = re.compile(
    rb"""(?P<space>[ \t\n\f\v]+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
    | (?P<unterminated>/\*|"(?:\\.|[^"\\\n])*\\?|'(?:\\.|[^'\\\n])*\\?)
    | (?P<number>0[xX][0-9a-fA-F_]*|[0-9][0-9_]*(?:\.[0-9]+)?(?:[eE][0-9]+)?)
    | (?P<word>[A-Za-z_$][A-Za-z_$0-9]*)
    | (?P<punct>%s)
    | (?P<unexpected>.)"""
    % b"|".join(re.escape(op) for op in _OPERATORS),
    re.DOTALL | re.VERBOSE,
)


def _classify_word(word: str) -> TokenKind:
    if word in KEYWORDS or _SIZED_TYPE.match(word):
        return TokenKind.KEYWORD
    return TokenKind.IDENT


def tokenize_solidity(source: str) -> tuple[Token, ...]:
    """Tokenize Solidity source text, comments and whitespace dropped.

    Raises :class:`LexicalError` on unterminated strings or block comments
    and on bytes that do not start any token.
    """
    data = source.encode("utf-8")
    tokens: list[Token] = []
    for m in _GRAMMAR.finditer(data):
        group = m.lastgroup
        if group == "space" or group == "comment":
            continue
        start, end = m.span()
        if group == "unexpected":
            raise LexicalError(f"unexpected byte {m.group()!r}", (start, end))
        if group == "unterminated":
            if m.group() == b"/*":
                raise LexicalError("unterminated block comment", (start, len(data)))
            raise LexicalError("unterminated string literal", (start, end))
        lexeme = m.group().decode("utf-8")
        kind = _classify_word(lexeme) if group == "word" else TokenKind(group)
        tokens.append(Token(kind, lexeme, Span(start, end)))
    return tuple(tokens)
