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
backslash included); for an unexpected byte, that byte, which the message
names; and for a lone surrogate, which has no UTF-8 bytes, the three bytes
it would take, the message naming its character position.

The result is a :class:`TokenTable`, cut with no Python step per token from
one ``findall`` of (skipped text, token) pairs: spans are running sums of
lengths, and a kind code follows from the first byte. A word's keyword-ness
is decided when asked, and ``Token`` objects are built when iterated.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterator

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
_LETTERS = (string.ascii_letters + "_$").encode()

# longest first so maximal munch picks compound operators
_OPERATORS = b""">>= <<= **= == != <= >= && || += -= *= /= %= |= &= ^= ++ -- ** << >> => ->
    { } ( ) [ ] ; , . ? : = + - * / % ! & | ^ ~ < >""".split()

_SKIPPED = rb"[ \t\n\f\v]+|//[^\n]*|/\*.*?\*/"
_STRING = rb""""(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'"""
_OPEN_STRING = rb""""(?:\\.|[^"\\\n])*\\?|'(?:\\.|[^'\\\n])*\\?"""
_NUMBER = rb"0[xX][0-9a-fA-F_]*|[0-9][0-9_]*(?:\.[0-9]+)?(?:[eE][0-9]+)?"
_WORD = rb"[A-Za-z_$][A-Za-z_$0-9]*"
_OPERATOR = b"|".join(re.escape(op) for op in _OPERATORS)

# (skipped text, token) per match. A fault (an unterminated block comment or
# string, an unexpected byte) matches in neither group, so its bytes go
# missing from the running sum. A `/*` left after skipping never closes; the
# lookahead keeps it from lexing as `/`. `\Z` ends the input with no token.
_PIECES = re.compile(
    rb"((?:%s)*)(?:(%s|%s|%s|(?!/\*)(?:%s))|/\*|%s|.|\Z)"
    % (_SKIPPED, _STRING, _NUMBER, _WORD, _OPERATOR, _OPEN_STRING),
    re.DOTALL,
)
# what stands where no token starts
_FAULT = re.compile(rb"(/\*)|(%s)|." % _OPEN_STRING, re.DOTALL)

# a token's kind code, from its first byte
WORD, NUMBER, STRING, PUNCT = b"wnsp"
_KIND_OF_FIRST_BYTE = bytes(
    WORD if b in _LETTERS else NUMBER if b in b"0123456789" else STRING if b in b"\"'" else PUNCT
    for b in range(256)
)
_KINDS = {NUMBER: TokenKind.NUMBER, STRING: TokenKind.STRING, PUNCT: TokenKind.PUNCT}


@lru_cache(maxsize=4096)
def _word_kind(word: str) -> TokenKind:
    return TokenKind.KEYWORD if word in KEYWORDS or _SIZED_TYPE.match(word) else TokenKind.IDENT


@dataclass(frozen=True)
class TokenTable:
    """The tokens of one source as parallel columns: row ``i`` is the token
    ``lexemes[i]`` at bytes ``starts[i]..ends[i]`` of ``data``, of kind code
    ``kinds[i]`` (``WORD``, ``NUMBER``, ``STRING`` or ``PUNCT``)."""

    data: bytes  # the UTF-8 source that was lexed
    kinds: bytes
    starts: list[int]
    ends: list[int]
    lexemes: list[str]

    def kind(self, i: int) -> TokenKind:
        code = self.kinds[i]
        return _word_kind(self.lexemes[i]) if code == WORD else _KINDS[code]

    def token(self, i: int) -> Token:
        return Token(self.kind(i), self.lexemes[i], Span(self.starts[i], self.ends[i]))

    def __iter__(self) -> Iterator[Token]:
        return map(self.token, range(len(self.lexemes)))


def tokenize_solidity(source: str) -> TokenTable:
    """Tokenize Solidity source text, comments and whitespace dropped.

    Raises :class:`LexicalError` on unterminated strings or block comments,
    on bytes that do not start any token, and on a lone surrogate (a JSON
    ``"\\ud800"`` decodes to one), which has no UTF-8 bytes.
    """
    try:
        data = source.encode("utf-8")
    except UnicodeEncodeError as exc:
        at, char = len(source[: exc.start].encode("utf-8")), source[exc.start]
        raise LexicalError(f"lone surrogate U+{ord(char):04X} (character {exc.start})", (at, at + 3)) from exc
    pieces = list(chain.from_iterable(_PIECES.findall(data)))
    bounds = list(accumulate(map(len, pieces)))
    tokens = pieces[1::2]
    if bounds[-1] != len(data):  # the first empty token is the first fault
        raise _fault(data, bounds[2 * tokens.index(b"")])
    while tokens and not tokens[-1]:  # the pairs that \Z matched
        tokens.pop()
    del bounds[2 * len(tokens) :]
    lexeme_of = {raw: raw.decode("utf-8") for raw in set(tokens)}
    return TokenTable(
        data=data,
        kinds=bytes(map(itemgetter(0), tokens)).translate(_KIND_OF_FIRST_BYTE),
        starts=bounds[0::2],
        ends=bounds[1::2],
        lexemes=list(map(lexeme_of.__getitem__, tokens)),
    )


def _fault(data: bytes, at: int) -> LexicalError:
    m = _FAULT.match(data, at)
    if m.group(1):
        return LexicalError("unterminated block comment", (at, len(data)))
    if m.group(2):
        return LexicalError("unterminated string literal", m.span())
    return LexicalError(f"unexpected byte {m.group()!r}", m.span())
