"""Reference reply reader: the brace-scanning extractor that
``solguard.llm.structured.extract_structured`` replaced, kept as a test
oracle.

``tests/test_llm.py`` requires the two to agree on every reply where this
reader returns a record or raises ``SchemaError``. They may differ only
behind a ``{`` that never closes: this reader stops there, the new one goes
on to the next ``{``. The code below is the replaced module as it was.
Never import this module from ``src/``.
"""

from __future__ import annotations

import json

from solguard.errors import ExtractionError, SchemaError
from solguard.llm.structured import StructuredSchema


def candidate_objects(text: str):
    """Balanced {...} regions in order of appearance, string-aware."""
    i = 0
    n = len(text)
    while i < n:
        start = text.find("{", i)
        if start == -1:
            return
        depth = 0
        in_string = False
        escaped = False
        for j in range(start, n):
            ch = text[j]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    yield text[start : j + 1]
                    break
        else:
            return  # unbalanced tail; no further candidates
        i = start + 1


def extract_structured(response: str, schema: StructuredSchema) -> dict:
    for candidate in candidate_objects(response):
        try:
            record = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
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
