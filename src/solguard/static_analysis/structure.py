"""Function segmentation and contract-level structure over the token table.

No AST is built; functions are located by their declaration keywords and a
brace-matched body, which keeps the view tolerant of grammar-version
differences. :func:`build_view` indexes the table once (:class:`TokenIndex`):
each lexeme's ascending rows, and the closing row of every bracket. A walk
then finds a lexeme's rows in a range by bisection and a closer by lookup,
instead of stepping token by token. A function body is a range of rows, and
so is each top-level container, which the view finds once and each function
names by its index.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterator, NamedTuple

from solguard.core import Span, TokenKind
from solguard.errors import StructuralError
from solguard.static_analysis.tokenizer import TokenTable

VISIBILITY_KEYWORDS = ("public", "external", "internal", "private")
_DECLARATION_KEYWORDS = frozenset({"function", "constructor", "fallback", "receive"})
_MEMBER_KEYWORDS = _DECLARATION_KEYWORDS | {"modifier", "struct", "enum", "event", "error", "using", "import"}
_CONTAINER_KEYWORDS = frozenset({"contract", "interface", "library"})
_CONDITION_OPENERS = frozenset({"require", "if", "while"})
ASSIGNMENT_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="})
_ASSIGNING = ASSIGNMENT_OPS | {"++", "--"}
_STATEMENT_BOUNDS = frozenset({";", "{", "}"})
_VALUE_MOVERS = frozenset({"transfer", "send"})
_VERSION_RE = re.compile(r"\d+\.\d+(\.\d+)?")


class TokenIndex:
    """A token table with each lexeme's ascending rows and the closing row of
    every matched bracket; :class:`StructuralError` if the braces do not balance."""

    def __init__(self, tokens: TokenTable):
        self.tokens = tokens
        self.lexemes = tokens.lexemes
        positions: defaultdict[str, list[int]] = defaultdict(list)
        for i, lexeme in enumerate(self.lexemes):
            positions[lexeme].append(i)
        self.positions: dict[str, list[int]] = dict(positions)
        self.closes: dict[int, int] = {}  # opening bracket row -> its closer's row
        stray, unclosed = self._pair("{", "}")
        if stray or unclosed:
            fault, row = ("unmatched closing brace", stray[0]) if stray else ("unbalanced braces", unclosed[-1])
            raise StructuralError(fault, tokens.token(row).span)
        self._pair("(", ")")
        self._rows_of_any: dict[frozenset[str], list[int]] = {}

    def _pair(self, opener: str, closer: str) -> tuple[list[int], list[int]]:
        """Pair brackets: the closers that match nothing and the openers left open."""
        stray: list[int] = []
        stack: list[int] = []
        for i in sorted(self.positions.get(opener, []) + self.positions.get(closer, [])):
            if self.lexemes[i] == opener:
                stack.append(i)
            elif stack:
                self.closes[stack.pop()] = i
            else:
                stray.append(i)
        return stray, stack

    def close(self, i: int) -> int:
        """The row of the ``}`` or ``)`` that matches the bracket at row ``i``."""
        if i not in self.closes:
            raise StructuralError("unclosed parenthesis", self.tokens.token(i).span)
        return self.closes[i]

    def find(self, lexemes: str | frozenset[str], within: range) -> list[int]:
        """The ascending rows in ``within`` of a lexeme, or of any lexeme of a
        set; a set's merged rows are kept for the next function."""
        if isinstance(lexemes, str):
            rows = self.positions.get(lexemes, [])
        elif (rows := self._rows_of_any.get(lexemes)) is None:
            rows = self._rows_of_any[lexemes] = sorted(chain.from_iterable(self.positions.get(x, []) for x in lexemes))
        return rows[bisect_left(rows, within.start) : bisect_left(rows, within.stop)]

    def first(self, lexeme: str, within: range) -> int | None:
        """The first row in ``within`` of a lexeme, if any."""
        rows = self.positions.get(lexeme, [])
        k = bisect_left(rows, within.start)
        return rows[k] if k < len(rows) and rows[k] < within.stop else None

    def is_ident(self, i: int) -> bool:
        return self.tokens.kind(i) is TokenKind.IDENT


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
    body: range = range(0)  # table rows, `{` to `}`
    # (open, close) rows of each require(...)/if(...)/while(...) group; a
    # group left open closes at the body's end
    conditions: tuple[tuple[int, int], ...] = ()
    container: int | None = None  # index into ContractView.containers; None outside any

    def in_condition(self, i: int) -> bool:
        """Whether row ``i`` lies inside one of the body's condition groups."""
        return any(open_ < i < close for open_, close in self.conditions)


class Container(NamedTuple):
    """One top-level ``contract``, ``interface`` or ``library``, a leading
    ``abstract`` included."""

    name: str
    rows: range  # table rows, first keyword to closing `}`
    span: Span


@dataclass(frozen=True)
class ContractView:
    """Everything the pattern rules need to evaluate one source unit."""

    index: TokenIndex
    containers: tuple[Container, ...]
    functions: tuple[FunctionSpan, ...]
    state_variables: frozenset[str]
    pragma_version: str | None
    lexemes: Collection[str]  # every distinct lexeme: the keys of the index

    def pragma_below(self, major: int, minor: int) -> bool:
        """True when the pragma's first version literal is below major.minor."""
        m = _VERSION_RE.search(self.pragma_version or "")
        return m is not None and tuple(int(p) for p in m.group(0).split(".")[:2]) < (major, minor)


def _param_names(index: TokenIndex, open_idx: int, close_idx: int) -> tuple[str, ...]:
    """Parameter names: the trailing identifier of each comma slot, if any."""
    names: list[str | None] = [None]
    depth = 0
    for k in range(open_idx + 1, close_idx):
        lexeme = index.lexemes[k]
        depth += (lexeme in "([") - (lexeme in ")]")
        if lexeme == "," and depth == 0:
            names.append(None)
        elif index.is_ident(k):
            names[-1] = lexeme
    return tuple(filter(None, names))


def _function_spans(
    index: TokenIndex, state_vars: frozenset[str], containers: tuple[Container, ...]
) -> list[FunctionSpan]:
    lexemes = index.lexemes
    n = len(lexemes)
    spans: list[FunctionSpan] = []
    i = 0
    c = 0  # the first container that does not end before this declaration
    for start in index.find(_DECLARATION_KEYWORDS, range(n)):
        if start < i:
            continue  # inside the body of the function before
        kind = lexemes[start]
        j = start + 1
        named = kind == "function" and j < n and index.is_ident(j)
        name, j = (lexemes[j], j + 1) if named else (kind, j)
        # parameter list
        params: tuple[str, ...] = ()
        if j < n and lexemes[j] == "(":
            close = index.close(j)
            params = _param_names(index, j, close)
            j = close + 1
        # header up to the body brace or a bodyless `;`
        visibility = "unspecified"
        modifiers: list[str] = []
        while j < n and lexemes[j] not in ("{", ";"):
            ident = index.is_ident(j)
            if ident:
                modifiers.append(lexemes[j])
            elif lexemes[j] in VISIBILITY_KEYWORDS:
                visibility = lexemes[j]
            if (ident or lexemes[j] in ("returns", "override")) and lexemes[j + 1 : j + 2] == ["("]:
                j = index.close(j + 1)  # modifier arguments, or a returns or override list
            j += 1
        if j >= n or lexemes[j] == ";":
            i = j + 1
            continue
        close = index.close(j)
        body = range(j, close + 1)
        while c < len(containers) and containers[c].rows.stop <= start:
            c += 1
        spans.append(
            FunctionSpan(
                name=name,
                visibility=visibility,
                modifiers=tuple(modifiers),
                body_span=Span(index.tokens.starts[j], index.tokens.ends[close]),
                mutates_state=_mutates_state(index, body, state_vars),
                kind=kind,
                params=params,
                body=body,
                conditions=_conditions(index, body),
                container=c if c < len(containers) and start in containers[c].rows else None,
            )
        )
        i = close + 1
    return spans


def _conditions(index: TokenIndex, body: range) -> tuple[tuple[int, int], ...]:
    return tuple(
        (k + 1, index.closes.get(k + 1, body.stop))
        for k in index.find(_CONDITION_OPENERS, body)
        if index.lexemes[k + 1] == "("  # a body ends in `}`, so row k + 1 is in it
    )


def _mutates_state(index: TokenIndex, body: range, state_vars: frozenset[str]) -> bool:
    """Writes to a storage variable, or moves value out via a call."""
    lexemes = index.lexemes
    before_last = range(body.start, body.stop - 1)
    return (
        any(root in state_vars for _, root in assignment_roots(index, body))
        or any(lexemes[k - 1] == "." for k in index.find(_VALUE_MOVERS, range(body.start + 1, body.stop)))
        or any(lexemes[k + 1] == "{" and "value" in lexemes[k + 1 : min(k + 6, body.stop)]
               for k in index.find("call", before_last))
        or any(lexemes[k + 1] in state_vars for k in index.find("delete", before_last))
    )


def statement_start(index: TokenIndex, i: int) -> int:
    """The row after the last ``;``, ``{`` or ``}`` before row ``i`` of a
    function body: its statement's first row (a body opens with ``{``)."""
    k = i - 1
    while index.lexemes[k] not in _STATEMENT_BOUNDS:
        k -= 1
    return k + 1


def assignment_roots(index: TokenIndex, within: range) -> Iterator[tuple[int, str]]:
    """``(row, root)`` for each assigning token in ``within``, rows of one
    function body, where root is the root identifier of the statement it
    assigns in.

    For ``balances[msg.sender] -= x;`` the root is ``balances``. Compound
    ops (``++``/``--``) count as assignments to the preceding identifier
    chain's root. Local declarations and tuple assignments have no root.
    """
    for row in index.find(_ASSIGNING, within):
        for k in range(statement_start(index, row), row):
            kind = index.tokens.kind(k)
            if kind is TokenKind.IDENT:
                yield row, index.lexemes[k]
                break
            if kind is TokenKind.KEYWORD or index.lexemes[k] == "(":
                break  # local declaration or tuple assignment


def find_containers(index: TokenIndex) -> tuple[Container, ...]:
    """The top-level containers in source order: each container keyword not
    inside the container before, through the brace its first ``{`` opens."""
    lexemes, tokens = index.lexemes, index.tokens
    n = len(lexemes)
    containers: list[Container] = []
    i = 0
    for start in index.find(_CONTAINER_KEYWORDS, range(n)):
        if start < i:
            continue  # inside the container before
        brace = index.first("{", range(start + 1, n))
        if brace is None:
            break
        end = index.close(brace)
        first = start - 1 if start and lexemes[start - 1] == "abstract" else start
        name = lexemes[start + 1] if index.is_ident(start + 1) else ""
        containers.append(Container(name, range(first, end + 1), Span(tokens.starts[first], tokens.ends[end])))
        i = end + 1
    return tuple(containers)


def collect_state_variables(index: TokenIndex, containers: tuple[Container, ...]) -> frozenset[str]:
    """Names of contract-level variable declarations.

    Walks statements that sit at contract depth (directly inside a
    container's block) and picks the declared name: the last identifier
    before ``=`` or ``;``.
    """
    names: set[str] = set()
    for container in containers:
        body = index.first("{", container.rows)
        names |= _state_vars_in_block(index, body + 1, container.rows.stop - 1)
    return frozenset(names)


def _state_vars_in_block(index: TokenIndex, start: int, end: int) -> set[str]:
    lexemes = index.lexemes
    names: set[str] = set()
    i = start
    while i < end:
        if lexemes[i] in _MEMBER_KEYWORDS:
            i = _skip_member(index, i, end)
            continue
        # a candidate declaration statement: scan to `;`, note last ident before `=`/`;`
        stmt_end = i
        depth = 0
        last_ident: str | None = None
        saw_assign = False
        while stmt_end < end:
            lexeme = lexemes[stmt_end]
            if lexeme in "([)]":
                depth += 1 if lexeme in "([" else -1
            elif depth == 0 and not saw_assign:
                saw_assign = lexeme == "="
                last_ident = lexeme if index.is_ident(stmt_end) else last_ident
            if lexeme == ";" and depth == 0:
                break
            if lexeme == "{":  # unexpected block: bail to its end
                stmt_end = index.close(stmt_end)
                last_ident = None
                break
            stmt_end += 1
        if last_ident:
            names.add(last_ident)
        i = stmt_end + 1
    return names


def _skip_member(index: TokenIndex, i: int, end: int) -> int:
    """Skip a function/modifier/struct/... member: to its body's ``}`` or ``;``."""
    for j in range(i, end):
        if index.lexemes[j] in (";", "{"):
            return j + 1 if index.lexemes[j] == ";" else index.close(j) + 1
    return end


def parse_pragma(index: TokenIndex) -> str | None:
    """The raw text of the first ``pragma solidity`` directive, if any."""
    n = len(index.lexemes)
    for i in index.positions.get("pragma", []):
        if index.lexemes[i + 1 : i + 2] == ["solidity"]:
            semicolons = index.find(";", range(i + 2, n))
            return "".join(index.lexemes[i + 2 : semicolons[0] if semicolons else n]) or None
    return None


def build_view(tokens: TokenTable) -> ContractView:
    index = TokenIndex(tokens)
    containers = find_containers(index)
    state_variables = collect_state_variables(index, containers)
    return ContractView(
        index=index,
        containers=containers,
        functions=tuple(_function_spans(index, state_variables, containers)),
        state_variables=state_variables,
        pragma_version=parse_pragma(index),
        lexemes=index.positions.keys(),
    )
