"""Extraction of structured records from free-form model replies."""

from __future__ import annotations

import json
from dataclasses import dataclass

from solguard.errors import ExtractionError, SchemaError

_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class StructuredSchema:
    """Required fields and their accepted Python types for one agent role."""

    name: str
    fields: dict[str, tuple[type, ...]]


def extract_structured(response: str, schema: StructuredSchema) -> dict:
    """Parse the first well-formed JSON object in ``response`` and validate it.

    Each ``{`` is tried in turn, so a stray brace before the object (one
    that never closes included) does not hide it.

    Raises :class:`ExtractionError` when no object parses, and
    :class:`SchemaError` naming the field when the first parsed object is
    missing or mistypes a required field. The raw response text is carried
    on the error untouched.
    """
    start = response.find("{")
    while start != -1:
        try:
            record, _ = _DECODER.raw_decode(response, start)
        except json.JSONDecodeError:
            start = response.find("{", start + 1)
            continue
        for field_name, types in schema.fields.items():
            if field_name not in record:
                raise SchemaError(
                    f"{schema.name}: missing required field: {field_name}",
                    response,
                    field_name,
                )
            if not isinstance(record[field_name], types):
                raise SchemaError(
                    f"{schema.name}: field {field_name} has wrong type "
                    f"{type(record[field_name]).__name__}",
                    response,
                    field_name,
                )
        return record
    raise ExtractionError(f"{schema.name}: no structured object found in response", response)


DETECTOR_SCHEMA = StructuredSchema(
    "detector", {"verdict": (str,), "score": (int, float), "findings": (list,)}
)
ADVISOR_SCHEMA = StructuredSchema(
    "advisor",
    {
        "vulnerability_name": (str,),
        "cause_analysis": (str,),
        "impact_assessment": (str,),
        "repair_steps": (list,),
        "preventive_measures": (list,),
    },
)
ASSESSOR_SCHEMA = StructuredSchema("assessor", {"level": (str,)})
FIXER_SCHEMA = StructuredSchema("fixer", {"repaired_source": (str,), "rationale": (str,)})
VERIFIER_SCHEMA = StructuredSchema("verifier", {"passed": (bool,), "new_issues": (list,)})
