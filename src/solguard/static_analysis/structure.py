"""Function segmentation and contract-level structure over the token stream.

No AST is built; functions are located by their declaration keywords and a
brace-matched body span, which keeps the view tolerant of grammar-version
differences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from solguard.core import Span, Token, TokenKind
from solguard.errors import StructuralError

VISIBILITY_KEYWORDS = ("public", "external", "internal", "private")
_MUTABILITY_KEYWORDS = frozenset({"pure", "view", "payable", "constant"})
_DECLARATION_KEYWORDS = frozenset({"function", "constructor", "fallback", "receive"})
_CONTAINER_KEYWORDS = frozenset({"contract", "interface", "library"})
ASSIGNMENT_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="})
_VERSION_RE = re.compile(r"\d+\.\d+(\.\d+)?")


@dataclass(frozen=True)
class FunctionSpan:
    """One function-like declaration with its brace-matched body."""

    name: str
    visibility: str  # public | external | internal | private | unspecified
    modifiers: tuple[str, ...]
    body_span: Span
    mutates_state: bool
    kind: str = "function"  # function | constructor | fallback | receive
    params: tuple[str, ...] = ()
    body_tokens: tuple[Token, ...] = ()


@dataclass(frozen=True)
class ContractView:
    """Everything the pattern rules need to evaluate one source unit."""

    functions: tuple[FunctionSpan, ...]
    state_variables: frozenset[str]
    pragma_version: str | None
    lexemes: frozenset[str] = field(default_factory=frozenset)

    def pragma_below(self, major: int, minor: int) -> bool:
        """True when the pragma's first version literal is below major.minor."""
        if not self.pragma_version:
            return False
        m = _VERSION_RE.search(self.pragma_version)
        if not m:
            return False
        parts = [int(p) for p in m.group(0).split(".")]
        return (parts[0], parts[1]) < (major, minor)


def _check_balanced(tokens: tuple[Token, ...]) -> None:
    stack: list[Token] = []
    for tok in tokens:
        if tok.lexeme == "{":
            stack.append(tok)
        elif tok.lexeme == "}":
            if not stack:
                raise StructuralError("unmatched closing brace", tok.span)
            stack.pop()
    if stack:
        raise StructuralError("unbalanced braces", stack[-1].span)


# opening bracket -> (its closer, the fault when none matches)
_CLOSERS = {"{": ("}", "unbalanced braces"), "(": (")", "unclosed parenthesis")}


def _match_close(tokens: tuple[Token, ...], open_idx: int) -> int:
    """Index of the ``}`` or ``)`` matching the bracket at ``open_idx``."""
    opener = tokens[open_idx].lexeme
    closer, fault = _CLOSERS[opener]
    depth = 0
    for i in range(open_idx, len(tokens)):
        lex = tokens[i].lexeme
        if lex == opener:
            depth += 1
        elif lex == closer:
            depth -= 1
            if depth == 0:
                return i
    raise StructuralError(fault, tokens[open_idx].span)


def _param_names(tokens: tuple[Token, ...], open_idx: int, close_idx: int) -> tuple[str, ...]:
    """Parameter names: the trailing identifier of each comma slot, if any."""
    names: list[str] = []
    slot: list[Token] = []
    depth = 0
    for tok in tokens[open_idx + 1 : close_idx]:
        if tok.lexeme in "([":
            depth += 1
        elif tok.lexeme in ")]":
            depth -= 1
        if tok.lexeme == "," and depth == 0:
            names.extend(_slot_name(slot))
            slot = []
        else:
            slot.append(tok)
    names.extend(_slot_name(slot))
    return tuple(names)


def _slot_name(slot: list[Token]) -> list[str]:
    idents = [t.lexeme for t in slot if t.kind is TokenKind.IDENT]
    return [idents[-1]] if idents else []


def _function_spans(tokens: tuple[Token, ...], state_vars: frozenset[str]) -> list[FunctionSpan]:
    spans: list[FunctionSpan] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind is not TokenKind.KEYWORD or tok.lexeme not in _DECLARATION_KEYWORDS:
            i += 1
            continue
        kind = tok.lexeme
        j = i + 1
        if kind == "function" and j < n and tokens[j].kind is TokenKind.IDENT:
            name = tokens[j].lexeme
            j += 1
        else:
            name = kind
        # parameter list
        params: tuple[str, ...] = ()
        if j < n and tokens[j].lexeme == "(":
            close = _match_close(tokens, j)
            params = _param_names(tokens, j, close)
            j = close + 1
        # header up to the body brace or a bodyless `;`
        visibility = "unspecified"
        modifiers: list[str] = []
        while j < n and tokens[j].lexeme not in ("{", ";"):
            h = tokens[j]
            if h.kind is TokenKind.KEYWORD:
                if h.lexeme in VISIBILITY_KEYWORDS:
                    visibility = h.lexeme
                elif h.lexeme in ("returns", "override") and j + 1 < n and tokens[j + 1].lexeme == "(":
                    j = _match_close(tokens, j + 1)
            elif h.kind is TokenKind.IDENT:
                modifiers.append(h.lexeme)
                if j + 1 < n and tokens[j + 1].lexeme == "(":  # modifier arguments
                    j = _match_close(tokens, j + 1)
            j += 1
        if j >= n or tokens[j].lexeme == ";":
            i = j + 1
            continue
        close = _match_close(tokens, j)
        body = tokens[j : close + 1]
        spans.append(
            FunctionSpan(
                name=name,
                visibility=visibility,
                modifiers=tuple(modifiers),
                body_span=Span(tokens[j].span.start, tokens[close].span.end),
                mutates_state=_mutates_state(body, state_vars),
                kind=kind,
                params=params,
                body_tokens=body,
            )
        )
        i = close + 1
    return spans


def _mutates_state(body: tuple[Token, ...], state_vars: frozenset[str]) -> bool:
    """Writes to a storage variable, or moves value out via a call."""
    if any(root in state_vars for _, root in assignment_roots(body)):
        return True
    for k in range(len(body) - 1):
        if body[k].lexeme == "." and body[k + 1].lexeme in ("transfer", "send"):
            return True
        if (
            body[k].lexeme == "call"
            and body[k + 1].lexeme == "{"
            and any(t.lexeme == "value" for t in body[k + 1 : k + 6])
        ):
            return True
        if body[k].lexeme == "delete" and k + 1 < len(body) and body[k + 1].lexeme in state_vars:
            return True
    return False


def assignment_roots(body: tuple[Token, ...]) -> Iterator[tuple[int, str]]:
    """``(index, root)`` for each assigning token of ``body``, where root is
    the root identifier of the statement it assigns in.

    For ``balances[msg.sender] -= x;`` the root is ``balances``. Compound
    ops (``++``/``--``) count as assignments to the preceding identifier
    chain's root. Local declarations and tuple assignments have no root.
    """
    stmt_start = 0
    for idx, tok in enumerate(body):
        if tok.lexeme in (";", "{", "}"):
            stmt_start = idx + 1
            continue
        if (tok.kind is TokenKind.PUNCT and tok.lexeme in ASSIGNMENT_OPS) or tok.lexeme in ("++", "--"):
            for t in body[stmt_start:idx]:
                if t.kind is TokenKind.IDENT:
                    yield idx, t.lexeme
                    break
                if t.kind is TokenKind.KEYWORD or t.lexeme == "(":
                    break  # local declaration or tuple assignment


def collect_state_variables(tokens: tuple[Token, ...]) -> frozenset[str]:
    """Names of contract-level variable declarations.

    Walks statements that sit at contract depth (directly inside a
    contract/interface/library block) and picks the declared name: the last
    identifier before ``=`` or ``;``.
    """
    names: set[str] = set()
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if tok.kind is TokenKind.KEYWORD and tok.lexeme in _CONTAINER_KEYWORDS:
            # skip to the contract body brace
            j = i + 1
            while j < n and tokens[j].lexeme != "{":
                j += 1
            if j >= n:
                break
            end = _match_close(tokens, j)
            names |= _state_vars_in_block(tokens, j + 1, end)
            i = end + 1
        else:
            i += 1
    return frozenset(names)


def _state_vars_in_block(tokens: tuple[Token, ...], start: int, end: int) -> set[str]:
    names: set[str] = set()
    i = start
    while i < end:
        tok = tokens[i]
        if tok.kind is TokenKind.KEYWORD and tok.lexeme in (
            _DECLARATION_KEYWORDS | {"modifier", "struct", "enum", "event", "error", "using", "import"}
        ):
            i = _skip_member(tokens, i, end)
            continue
        # a candidate declaration statement: scan to `;`, note last ident before `=`/`;`
        stmt_end = i
        depth = 0
        last_ident: str | None = None
        saw_assign = False
        while stmt_end < end:
            t = tokens[stmt_end]
            if t.lexeme in "([":
                depth += 1
            elif t.lexeme in ")]":
                depth -= 1
            elif depth == 0 and t.lexeme == "=" and not saw_assign:
                saw_assign = True
            elif depth == 0 and t.kind is TokenKind.IDENT and not saw_assign:
                last_ident = t.lexeme
            if t.lexeme == ";" and depth == 0:
                break
            if t.lexeme == "{":  # unexpected block: bail to its end
                stmt_end = _match_close(tokens, stmt_end)
                last_ident = None
                break
            stmt_end += 1
        if last_ident:
            names.add(last_ident)
        i = stmt_end + 1
    return names


def _skip_member(tokens: tuple[Token, ...], i: int, end: int) -> int:
    """Skip a function/modifier/struct/... member: to its body's ``}`` or ``;``."""
    j = i
    while j < end:
        lex = tokens[j].lexeme
        if lex == ";":
            return j + 1
        if lex == "{":
            return _match_close(tokens, j) + 1
        j += 1
    return end


def parse_pragma(tokens: tuple[Token, ...]) -> str | None:
    """The raw text of the first ``pragma solidity`` directive, if any."""
    for i, tok in enumerate(tokens):
        if tok.lexeme == "pragma" and i + 1 < len(tokens) and tokens[i + 1].lexeme == "solidity":
            parts: list[str] = []
            j = i + 2
            while j < len(tokens) and tokens[j].lexeme != ";":
                parts.append(tokens[j].lexeme)
                j += 1
            return "".join(parts) or None
    return None


def build_view(tokens: tuple[Token, ...]) -> ContractView:
    _check_balanced(tokens)
    state_variables = collect_state_variables(tokens)
    return ContractView(
        functions=tuple(_function_spans(tokens, state_variables)),
        state_variables=state_variables,
        pragma_version=parse_pragma(tokens),
        lexemes=frozenset(t.lexeme for t in tokens),
    )
