"""Term extraction for the similarity indexes.

Drops comments and string literals, lowercases, and splits the rest into
runs of ``[a-z0-9]`` with :func:`words`, which alone gives the terms of the
knowledge base's chunks and queries. Kept independent from the full
Solidity lexer so the two views cannot drift together.

One regex pass replaces each comment and string literal with a space:

- ``//`` starts a line comment, which stops before its newline.
- ``/*`` starts a block comment, which ends after the first ``*/`` that
  begins after the opening ``/*`` (so ``/*/`` does not close it), or at the
  end of the text.
- ``"`` or ``'`` starts a string, which ends after the next unescaped quote
  of the same kind or the next newline, or at the end of the text. Inside
  it a backslash escapes the next character, a newline included, and may
  stand last in the text.
"""

from __future__ import annotations

import re

# keeps the bytes of [a-z0-9] and turns every other byte into a space; a
# non-ASCII character's UTF-8 bytes are all >= 0x80, so none survives
_TERM_BYTES = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))
_STRIP_RE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?(?:\*/|\Z)"
    r'|"[^"\\\n]*(?:\\.?[^"\\\n]*)*["\n]?'
    r"|'[^'\\\n]*(?:\\.?[^'\\\n]*)*['\n]?",
    re.DOTALL,
)


def words(text: str) -> list[str]:
    """The runs of ``[a-z0-9]`` in ``text.lower()``, in order."""
    # the runs that re.findall would find, at half its cost; a lone surrogate
    # (a JSON "\ud800" decodes to one) encodes too, to bytes >= 0x80
    return text.lower().encode("utf-8", "surrogatepass").translate(_TERM_BYTES).decode("ascii").split()


def tokenize_for_tfidf(source: str) -> list[str]:
    """Lowercased alphanumeric terms of ``source``, comments and string
    contents excluded."""
    return words(_STRIP_RE.sub(" ", source))
