"""Reference static analysis: the tuple-of-tokens lexer, view and rule
matchers that the token table in ``solguard.static_analysis`` replaced,
kept as a test oracle.

``tests/test_tokenizer.py`` requires the product lexer to agree with
:func:`tokenize_solidity` here on every token (kind, lexeme, span) and on
every ``LexicalError`` (message, span); ``tests/test_rules.py`` requires
:func:`scan` here and the product ``scan`` to report the same findings.
The code below is the replaced code as it was, except that :func:`scan`
takes the contract id and source instead of a ``SourceContract``, and the
matchers are looked up by type without their parameter records (the
product parses the rule file). Never import this module from ``src/``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from solguard.core import Channel, Finding, Location, Span, Token, TokenKind, merge_findings
from solguard.errors import LexicalError, StructuralError

# --- lexer ------------------------------------------------------------------

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


# --- view -------------------------------------------------------------------

VISIBILITY_KEYWORDS = ("public", "external", "internal", "private")
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



# --- rule matchers ----------------------------------------------------------

_CONDITION_OPENERS = frozenset({"require", "if", "while"})
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "+=", "-=", "*=", "++", "--"})

# matcher type -> predicate, filled by @_matcher
_MATCHERS: dict[str, Callable[[dict[str, Any], FunctionSpan, ContractView], int | None]] = {}


def evaluate_rule(rule, fn: FunctionSpan, view: ContractView) -> int | None:
    """Deterministically evaluate one rule against one function scope: the
    index into the function's body tokens where it fired, or None."""
    return _MATCHERS[rule.matcher["type"]](rule.matcher, fn, view)


def _matcher(mtype: str) -> Callable:
    def register(predicate: Callable) -> Callable:
        _MATCHERS[mtype] = predicate
        return predicate

    return register


def _condition_indices(body: tuple[Token, ...]) -> set[int]:
    """Token indices lying inside a require(...)/if(...)/while(...) group."""
    inside: set[int] = set()
    stack = [False]
    for idx, tok in enumerate(body):
        if tok.lexeme == ")" and len(stack) > 1:
            stack.pop()
        if stack[-1]:
            inside.add(idx)
        if tok.lexeme == "(":
            opener = body[idx - 1].lexeme if idx > 0 else ""
            stack.append(opener in _CONDITION_OPENERS or stack[-1])
    return inside


def _member_call_sites(body: tuple[Token, ...], members: frozenset[str]) -> list[int]:
    """Indices of member tokens in ``<expr>.member(`` / ``<expr>.member{`` form."""
    sites: list[int] = []
    for k in range(1, len(body) - 1):
        if (
            body[k - 1].lexeme == "."
            and body[k].kind is TokenKind.IDENT
            and body[k].lexeme in members
            and body[k + 1].lexeme in ("(", "{")
        ):
            sites.append(k)
    return sites


def _has_sender_guard(body: tuple[Token, ...]) -> bool:
    """A ``msg.sender ==`` (or ``== msg.sender``) comparison anywhere in the body."""
    for k in range(len(body) - 2):
        if body[k].lexeme == "msg" and body[k + 1].lexeme == "." and body[k + 2].lexeme == "sender":
            before = body[k - 1].lexeme if k > 0 else ""
            after = body[k + 3].lexeme if k + 3 < len(body) else ""
            if before == "==" or after == "==":
                return True
    return False


def _has_allowed_modifier(fn: FunctionSpan, allowed: list[str]) -> bool:
    return any(m in allowed for m in fn.modifiers)


def _statement_start(body: tuple[Token, ...], idx: int) -> int:
    for k in range(idx - 1, -1, -1):
        if body[k].lexeme in (";", "{", "}"):
            return k + 1
    return 0


@_matcher("external_call_before_state_write")
def _match_external_call_before_state_write(
    spec: dict[str, Any], fn: FunctionSpan, view: ContractView
) -> int | None:
    members = frozenset(spec["call_members"])
    body = fn.body_tokens
    sites = _member_call_sites(body, members)
    if not sites:
        return None
    first_call = sites[0]
    if any(idx > first_call and root in view.state_variables for idx, root in assignment_roots(body)):
        return first_call
    return None


@_matcher("unguarded_state_mutator")
def _match_unguarded_state_mutator(
    spec: dict[str, Any], fn: FunctionSpan, view: ContractView
) -> int | None:
    if fn.kind == "constructor":
        return None
    externally_callable = fn.visibility in ("public", "external") or fn.kind in ("fallback", "receive")
    if not externally_callable or not fn.mutates_state:
        return None
    if _has_allowed_modifier(fn, spec["allowed_modifiers"]):
        return None
    if _has_sender_guard(fn.body_tokens):
        return None
    return 0


@_matcher("unchecked_arithmetic")
def _match_unchecked_arithmetic(
    spec: dict[str, Any], fn: FunctionSpan, view: ContractView
) -> int | None:
    major, minor = (int(p) for p in spec["flag_below"].split("."))
    if not view.pragma_below(major, minor):
        return None
    if any(marker in view.lexemes for marker in spec["guard_markers"]):
        return None
    for idx, tok in enumerate(fn.body_tokens):
        if tok.kind is TokenKind.PUNCT and tok.lexeme in _ARITHMETIC_OPS:
            return idx
    return None


@_matcher("token_sequence_in_condition")
def _match_token_sequence_in_condition(
    spec: dict[str, Any], fn: FunctionSpan, view: ContractView
) -> int | None:
    body = fn.body_tokens
    inside = _condition_indices(body)
    for seq in spec["sequences"]:
        m = len(seq)
        for k in range(len(body) - m + 1):
            if all(body[k + o].lexeme == seq[o] for o in range(m)) and k in inside:
                return k
    return None


@_matcher("unchecked_call_result")
def _match_unchecked_call_result(
    spec: dict[str, Any], fn: FunctionSpan, view: ContractView
) -> int | None:
    members = frozenset(spec["call_members"])
    body = fn.body_tokens
    inside = _condition_indices(body)
    for k in _member_call_sites(body, members):
        if k in inside:
            continue  # checked inline, e.g. require(addr.send(x))
        start = _statement_start(body, k)
        stmt_before = body[start:k]
        if any(t.lexeme in ASSIGNMENT_OPS and t.kind is TokenKind.PUNCT for t in stmt_before):
            continue  # return value captured
        if stmt_before and stmt_before[0].lexeme in ("require", "if", "return", "assert", "while"):
            continue
        return k
    return None


@_matcher("unguarded_token")
def _match_unguarded_token(spec: dict[str, Any], fn: FunctionSpan, view: ContractView) -> int | None:
    if fn.kind == "constructor":
        return None
    wanted = spec["token"]
    for idx, tok in enumerate(fn.body_tokens):
        if tok.lexeme == wanted:
            if _has_allowed_modifier(fn, spec["allowed_modifiers"]):
                return None
            if _has_sender_guard(fn.body_tokens):
                return None
            return idx
    return None


@_matcher("member_call_on_parameter")
def _match_member_call_on_parameter(
    spec: dict[str, Any], fn: FunctionSpan, view: ContractView
) -> int | None:
    member = spec["member"]
    body = fn.body_tokens
    for k in _member_call_sites(body, frozenset({member})):
        if k >= 2 and body[k - 2].kind is TokenKind.IDENT and body[k - 2].lexeme in fn.params:
            return k
    return None


# --- scan -------------------------------------------------------------------

def evidence_line(source: str, byte_offset: int) -> str:
    """The trimmed source line containing ``byte_offset``."""
    data = source.encode("utf-8")
    start = data.rfind(b"\n", 0, byte_offset) + 1
    end = data.find(b"\n", byte_offset)
    end = len(data) if end == -1 else end
    return data[start:end].decode("utf-8", errors="replace").strip()[:160]


def scan(contract_id: str, source: str, ruleset: list) -> list[Finding]:
    """Evaluate every rule over every function span of ``source``, already
    LF-normalized; one finding per match.

    Results pass through :func:`merge_findings`, so duplicate (class,
    function) hits collapse to the highest-confidence instance.
    """
    if not ruleset:
        raise ValueError("ruleset must not be empty")
    view = build_view(tokenize_solidity(source))
    findings: list[Finding] = []
    for fn in view.functions:
        for rule in ruleset:
            fired = evaluate_rule(rule, fn, view)
            if fired is None:
                continue
            tok = fn.body_tokens[fired]
            findings.append(
                Finding(
                    contract_id=contract_id,
                    vuln_class=rule.vuln_class,
                    location=Location(span=fn.body_span, function=fn.name),
                    evidence=evidence_line(source, tok.span.start),
                    channel=Channel.STATIC,
                    confidence=rule.default_confidence,
                )
            )
    return merge_findings([findings])
