"""Term extraction for the contract-similarity index.

Drops comments and string literals, lowercases, and splits the rest into
runs of ``[a-z0-9]``. Kept independent from the full Solidity lexer so the
two views cannot drift together.

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

_TERM_RE = re.compile(r"[a-z0-9]+")
_STRIP_RE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?(?:\*/|\Z)"
    r'|"[^"\\\n]*(?:\\.?[^"\\\n]*)*["\n]?'
    r"|'[^'\\\n]*(?:\\.?[^'\\\n]*)*['\n]?",
    re.DOTALL,
)


def tokenize_for_tfidf(source: str) -> list[str]:
    """Lowercased alphanumeric terms of ``source``, comments and string
    contents excluded."""
    return _TERM_RE.findall(_STRIP_RE.sub(" ", source).lower())
