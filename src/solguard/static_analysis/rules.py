"""Declarative pattern rules evaluated over function-scoped token ranges.

Each rule binds a vulnerability class to a matcher: a named predicate with
parameters, evaluated independently per function. Rules live in a YAML file
so the shipped set can be extended or re-tuned without code changes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

from solguard.core import VulnerabilityClass
from solguard.errors import RulesetError
from solguard.jsonl import read_text, read_yaml
from solguard.records import Field, Record, mapping, naming, number, string, strings, text
from solguard.static_analysis.structure import (
    ASSIGNMENT_OPS,
    ContractView,
    FunctionSpan,
    TokenIndex,
    assignment_roots,
    statement_start,
)

_ARITHMETIC_OPS = frozenset({"+", "-", "*", "+=", "-=", "*=", "++", "--"})


@dataclass(frozen=True)
class PatternRule:
    rule_id: str
    vuln_class: VulnerabilityClass
    matcher: dict[str, Any]  # the type and every parameter of its record, defaults filled in
    default_confidence: float


def evaluate_rule(rule: PatternRule, fn: FunctionSpan, view: ContractView) -> int | None:
    """Deterministically evaluate one rule against one function scope: the
    token table row where it fired, or None."""
    return _MATCHERS[rule.matcher["type"]][0](rule.matcher, fn, view)


# --- matcher predicates ----------------------------------------------------

# matcher type -> (predicate, the record of its parameters), filled by @_matcher; a rule's
# matcher is parsed by that record when the file is read, so each predicate finds its parameters
Spec = dict[str, Any]
_MATCHERS: dict[str, tuple[Callable[[Spec, FunctionSpan, ContractView], int | None], Record]] = {}
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


def _member_call_sites(index: TokenIndex, body: range, members: frozenset[str]) -> list[int]:
    """Rows of member tokens in ``<expr>.member(`` / ``<expr>.member{`` form."""
    rows = index.find(members, range(body.start + 1, body.stop - 1))
    return [k for k in rows if index.lexemes[k - 1] == "." and index.is_ident(k) and index.lexemes[k + 1] in ("(", "{")]


def _has_sender_guard(index: TokenIndex, body: range) -> bool:
    """A ``msg.sender ==`` (or ``== msg.sender``) comparison anywhere in the body."""
    lexemes = index.lexemes
    for k in index.find("msg", range(body.start, body.stop - 2)):
        if lexemes[k + 1] == "." and lexemes[k + 2] == "sender":
            before = lexemes[k - 1] if k > body.start else ""
            after = lexemes[k + 3] if k + 3 < body.stop else ""
            if before == "==" or after == "==":
                return True
    return False


def _guarded(spec: Spec, fn: FunctionSpan, view: ContractView) -> bool:
    """An allowed modifier on the function, or a sender guard in its body."""
    return any(m in spec["allowed_modifiers"] for m in fn.modifiers) or _has_sender_guard(view.index, fn.body)


@_matcher("external_call_before_state_write", call_members=strings(["call", "send", "transfer"]))
def _match_external_call_before_state_write(spec: Spec, fn: FunctionSpan, view: ContractView) -> int | None:
    sites = _member_call_sites(view.index, fn.body, frozenset(spec["call_members"]))
    if not sites:
        return None
    later = range(sites[0] + 1, fn.body.stop)
    return sites[0] if any(root in view.state_variables for _, root in assignment_roots(view.index, later)) else None


@_matcher("unguarded_state_mutator", allowed_modifiers=strings([]))
def _match_unguarded_state_mutator(spec: Spec, fn: FunctionSpan, view: ContractView) -> int | None:
    externally_callable = fn.visibility in ("public", "external") or fn.kind in ("fallback", "receive")
    if fn.kind == "constructor" or not externally_callable or not fn.mutates_state or _guarded(spec, fn, view):
        return None
    return fn.body.start


@_matcher("unchecked_arithmetic", flag_below=_VERSION, guard_markers=strings(["SafeMath"]))
def _match_unchecked_arithmetic(spec: Spec, fn: FunctionSpan, view: ContractView) -> int | None:
    major, minor = (int(p) for p in spec["flag_below"].split("."))
    if not view.pragma_below(major, minor) or any(marker in view.lexemes for marker in spec["guard_markers"]):
        return None
    rows = view.index.find(_ARITHMETIC_OPS, fn.body)
    return rows[0] if rows else None


@_matcher("token_sequence_in_condition", sequences=_SEQUENCES)
def _match_token_sequence_in_condition(spec: Spec, fn: FunctionSpan, view: ContractView) -> int | None:
    lexemes = view.index.lexemes
    for seq in spec["sequences"]:
        for k in view.index.find(seq[0], range(fn.body.start, fn.body.stop - len(seq) + 1)):
            if lexemes[k : k + len(seq)] == seq and fn.in_condition(k):
                return k
    return None


@_matcher("unchecked_call_result", call_members=strings(["call", "delegatecall", "staticcall", "send"]))
def _match_unchecked_call_result(spec: Spec, fn: FunctionSpan, view: ContractView) -> int | None:
    for k in _member_call_sites(view.index, fn.body, frozenset(spec["call_members"])):
        if fn.in_condition(k):
            continue  # checked inline, e.g. require(addr.send(x))
        stmt_before = view.index.lexemes[statement_start(view.index, k) : k]
        if any(lexeme in ASSIGNMENT_OPS for lexeme in stmt_before):
            continue  # return value captured
        if stmt_before and stmt_before[0] in ("require", "if", "return", "assert", "while"):
            continue
        return k
    return None


@_matcher("unguarded_token", token=string(), allowed_modifiers=strings([]))
def _match_unguarded_token(spec: Spec, fn: FunctionSpan, view: ContractView) -> int | None:
    rows = view.index.find(spec["token"], fn.body)
    if fn.kind == "constructor" or not rows or _guarded(spec, fn, view):
        return None
    return rows[0]


@_matcher("member_call_on_parameter", member=string())
def _match_member_call_on_parameter(spec: Spec, fn: FunctionSpan, view: ContractView) -> int | None:
    index = view.index
    for k in _member_call_sites(index, fn.body, frozenset({spec["member"]})):
        if index.is_ident(k - 2) and index.lexemes[k - 2] in fn.params:  # `.` is never a body's first row
            return k
    return None


RULE = Record({
    "rule_id": text(), "class": text(), "swc_id": text(None), "matcher": mapping(), "description": string(""),
    "confidence": number("[0, 1]"),
})


# --- rule file I/O ----------------------------------------------------------


def load_ruleset(path: str | Path) -> list[PatternRule]:
    """Load rules from a YAML file, any fault naming it; see data/rules.yaml
    for the shipped set."""
    text = read_text(path, RulesetError, "rule file")
    with naming(str(path), RulesetError):
        return parse_ruleset(text)


def parse_ruleset(text: str) -> list[PatternRule]:
    records = read_yaml(text, RulesetError, "rule file is not valid YAML")
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
        rule = PatternRule(values["rule_id"], vuln_class, spec, values["confidence"])
        if rule.rule_id in seen_ids:
            raise RulesetError(f"duplicate rule_id {rule.rule_id!r}")
        if rule.vuln_class.name in seen_classes:
            raise RulesetError(f"duplicate vulnerability class {rule.vuln_class.name!r}")
        seen_ids.add(rule.rule_id)
        seen_classes.add(rule.vuln_class.name)
        rules.append(rule)
    return rules


def canonical_class(name: str, ruleset: Sequence[PatternRule]) -> VulnerabilityClass:
    """The class of ``ruleset`` that ``name`` spells: a class's exact name is
    that class; else case and punctuation fold away before ``name`` is
    compared with each class name and rule id; else a single SWC number in
    ``name`` picks the class with that ``swc_id``. A name that spells no
    class, or more than one, comes back unchanged as a class of its own."""
    for rule in ruleset:
        if rule.vuln_class.name == name:
            return rule.vuln_class
    folded, numbers = _fold(name), _swc_numbers(name)
    spelled = {r.vuln_class for r in ruleset if folded and folded in (_fold(r.vuln_class.name), _fold(r.rule_id))}
    if not spelled and len(numbers) == 1:
        spelled = {r.vuln_class for r in ruleset if _swc_numbers(r.vuln_class.swc_id or "") == numbers}
    return spelled.pop() if len(spelled) == 1 else VulnerabilityClass(name)


def _fold(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", name.lower())


def _swc_numbers(text: str) -> set[str]:
    return {n.lstrip("0") for n in re.findall(r"swc\W*(\d+)", text, re.IGNORECASE)}


def default_ruleset() -> list[PatternRule]:
    """The rule set shipped as package data."""
    text = resources.files("solguard.data").joinpath("rules.yaml").read_text(encoding="utf-8")
    return parse_ruleset(text)
