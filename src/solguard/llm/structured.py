"""Extraction of structured records from free-form model replies, and the
reply record of each agent role."""

from __future__ import annotations

import json
import re
from functools import partial

from solguard.errors import ExtractionError, SchemaError
from solguard.records import ABSENT, Field, Record, boolean, items, number, string, strings

_DECODER = json.JSONDecoder()


def extract_structured(response: str, schema: Record, role: str = "model") -> dict:
    """Parse the first well-formed JSON object in ``response`` through the
    reply record ``schema``.

    Each ``{`` is tried in turn, so a stray brace before the object (one
    that never closes included) does not hide it, and neither does one
    the decoder refuses, such as an integer longer than its digit limit or
    nesting deeper than the recursion limit.

    Raises :class:`ExtractionError` when no object parses, and
    :class:`SchemaError` naming the top-level field when the first parsed
    object lacks or mistypes one, or holds a lone surrogate in it; of
    several, the first in declaration order. The raw response text is
    carried on the error untouched.
    """
    start = response.find("{")
    while start != -1:
        try:
            record, _ = _DECODER.raw_decode(response, start)
        except (ValueError, RecursionError):
            start = response.find("{", start + 1)
            continue
        for key in schema.fields:
            fault = partial(SchemaError, raw_text=response, field=key)
            record[key] = value = schema.value(key, record.get(key, ABSENT), fault, role, "reply")
            try:  # a JSON "\ud800" decodes to a lone surrogate, which no report file can hold
                json.dumps(value, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise fault(f"{role}: reply field {key} holds a lone surrogate, which is not text") from None
        return record
    raise ExtractionError(f"{role}: no structured object found in response", response)


def _function_name(value: object, *_: object) -> str:
    """`foo()`, `foo(uint256)` and `Vault.foo()` name the function foo (a
    Solidity function name holds no dot); a non-text function is contract level."""
    return re.sub(r"\s*\([^()]*\)$", "", value.strip()).rsplit(".", 1)[-1] if type(value) is str else ""


def _reply(fields: dict[str, Field]) -> Record:
    return Record(fields, noun="field", reply=True)


# a finding the detector reports, and a new issue the verifier reports
FINDING = _reply({"class": string(), "function": Field("a function name", lambda v: True, "", _function_name),
                  "evidence": string("")})
NEW_ISSUE = _reply({**FINDING.fields, "class": string("Unspecified")})

# a malformed finding is the detector's to skip, so its reply takes any list
DETECTOR_REPLY = _reply({"verdict": string(), "score": number("[-inf, inf]"), "findings": items()})
ADVISOR_REPLY = _reply({
    "vulnerability_name": string(), "cause_analysis": string(), "impact_assessment": string(),
    "repair_steps": strings(), "preventive_measures": strings(),
})
ASSESSOR_REPLY = _reply({"level": string()})
FIXER_REPLY = _reply({"repaired_source": string(), "rationale": string()})
VERIFIER_REPLY = _reply({"passed": boolean(), "new_issues": items(NEW_ISSUE.field())})
