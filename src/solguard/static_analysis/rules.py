"""Declarative pattern rules evaluated over function-scoped token windows.

Each rule binds a vulnerability class to a matcher: a named predicate with
parameters, evaluated independently per function. Rules live in a YAML file
so the shipped set can be extended or re-tuned without code changes.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import yaml

from solguard.core import Token, TokenKind, VulnerabilityClass
from solguard.errors import RulesetError
from solguard.records import Field, Record, mapping, number, string, strings
from solguard.static_analysis.structure import ASSIGNMENT_OPS, ContractView, FunctionSpan, assignment_roots

_CONDITION_OPENERS = frozenset({"require", "if", "while"})
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "+=", "-=", "*=", "++", "--"})


@dataclass(frozen=True)
class PatternRule:
    rule_id: str
    vuln_class: VulnerabilityClass
    matcher: dict[str, Any]  # the type and every parameter of its record, defaults filled in
    description: str
    default_confidence: float


def evaluate_rule(rule: PatternRule, fn: FunctionSpan, view: ContractView) -> int | None:
    """Deterministically evaluate one rule against one function scope: the
    index into the function's body tokens where it fired, or None."""
    return _MATCHERS[rule.matcher["type"]][0](rule.matcher, fn, view)


# --- matcher predicates ----------------------------------------------------

# matcher type -> (predicate, the record of its parameters), filled by @_matcher; a rule's
# matcher is parsed by that record when the file is read, so each predicate finds its parameters
_MATCHERS: dict[str, tuple[Callable[[dict[str, Any], FunctionSpan, ContractView], int | None], Record]] = {}
_TOKENS = strings().accepts
_SEQUENCES = Field("a list of token lists", lambda v: type(v) is list and all(q and _TOKENS(q) for q in v))
_VERSION = Field(
    'a version in quotes, like "0.8"', lambda v: type(v) is str and re.fullmatch(r"\d+\.\d+", v) is not None, "0.8"
)


def _matcher(mtype: str, **parameters: Field) -> Callable:
    def register(predicate: Callable) -> Callable:
        _MATCHERS[mtype] = predicate, Record({"type": string(), **parameters}, noun="parameter")
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


@_matcher("external_call_before_state_write", call_members=strings(["call", "send", "transfer"]))
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


@_matcher("unguarded_state_mutator", allowed_modifiers=strings([]))
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


@_matcher("unchecked_arithmetic", flag_below=_VERSION, guard_markers=strings(["SafeMath"]))
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


@_matcher("token_sequence_in_condition", sequences=_SEQUENCES)
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


@_matcher("unchecked_call_result", call_members=strings(["call", "delegatecall", "staticcall", "send"]))
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


@_matcher("unguarded_token", token=string(), allowed_modifiers=strings([]))
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


@_matcher("member_call_on_parameter", member=string())
def _match_member_call_on_parameter(
    spec: dict[str, Any], fn: FunctionSpan, view: ContractView
) -> int | None:
    member = spec["member"]
    body = fn.body_tokens
    for k in _member_call_sites(body, frozenset({member})):
        if k >= 2 and body[k - 2].kind is TokenKind.IDENT and body[k - 2].lexeme in fn.params:
            return k
    return None


RULE = Record({
    "rule_id": string(), "class": string(), "swc_id": string(None), "matcher": mapping(), "description": string(""),
    "confidence": number("[0, 1]"),
})


# --- rule file I/O ----------------------------------------------------------


def load_ruleset(path: str | Path) -> list[PatternRule]:
    """Load rules from a YAML file; see data/rules.yaml for the shipped set."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise RulesetError(f"cannot read rule file {path}: {exc}") from exc
    return parse_ruleset(text)


def parse_ruleset(text: str) -> list[PatternRule]:
    try:
        records = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise RulesetError(f"rule file is not valid YAML: {exc}") from exc
    if not isinstance(records, list) or not records:
        raise RulesetError("rule file must contain a non-empty list of rules")
    rules: list[PatternRule] = []
    seen_ids: set[str] = set()
    seen_classes: set[str] = set()
    for n, rec in enumerate(records, start=1):
        rule_id = rec.get("rule_id") if type(rec) is dict else None
        where = f"rule {rule_id}" if type(rule_id) is str else f"rule #{n}"
        values = RULE.parse(rec, RulesetError, where, "record")
        matcher, vuln_class = values["matcher"], VulnerabilityClass(values["class"], values["swc_id"])
        if matcher.get("type") not in tuple(_MATCHERS):  # a tuple takes a type that is no dict key, such as a list
            raise RulesetError(f"{where}: unknown matcher type {matcher.get('type')!r}")
        spec = _MATCHERS[matcher["type"]][1].parse(matcher, RulesetError, where, "matcher")
        rule = PatternRule(values["rule_id"], vuln_class, spec, values["description"], values["confidence"])
        if rule.rule_id in seen_ids:
            raise RulesetError(f"duplicate rule_id {rule.rule_id!r}")
        if rule.vuln_class.name in seen_classes:
            raise RulesetError(f"duplicate vulnerability class {rule.vuln_class.name!r}")
        seen_ids.add(rule.rule_id)
        seen_classes.add(rule.vuln_class.name)
        rules.append(rule)
    return rules


def dump_ruleset(rules: list[PatternRule]) -> str:
    records = [
        {
            "rule_id": r.rule_id,
            "class": r.vuln_class.name,
            "swc_id": r.vuln_class.swc_id,
            "matcher": copy.deepcopy(r.matcher),  # else a default list rules share dumps as a YAML alias
            "description": r.description,
            "confidence": r.default_confidence,
        }
        for r in rules
    ]
    return yaml.safe_dump(records, sort_keys=False)


def save_ruleset(rules: list[PatternRule], path: str | Path) -> None:
    Path(path).write_text(dump_ruleset(rules), encoding="utf-8")


def default_ruleset() -> list[PatternRule]:
    """The rule set shipped as package data."""
    text = resources.files("solguard.data").joinpath("rules.yaml").read_text(encoding="utf-8")
    return parse_ruleset(text)
