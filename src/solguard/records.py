"""Closed-world input records, each declared once and parsed where it is read.

A :class:`Record` is a set of named fields, each of a type and either
required or with a default. A key it does not declare, or a value of the
wrong type, is the caller's error naming where the record came from and the
key. ``bool`` is not a number, a number is finite, and a field whose default
is ``None`` also takes ``null``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from solguard.errors import SolguardError

REQUIRED = object()  # the default of a field that must be given
_ABSENT = object()
_MAX = sys.float_info.max


class Field(NamedTuple):
    expected: str  # the type, as messages and the docs state it
    accepts: Callable[[Any], bool]
    default: Any = REQUIRED
    convert: Callable[..., Any] | None = None  # (value, error, where, key, base) -> plain value


def _resolve(value: str, error: Any, where: str, key: str, base: Path | None) -> str:
    return str((base / value).resolve()) if base is not None and not Path(value).is_absolute() else value


def _type(expected: str, accepts: Callable[[Any], bool], convert: Callable | None = None) -> Callable[..., Field]:
    """A field type without parameters: called with its default, if any."""
    return lambda default=REQUIRED: Field(expected, accepts, default, convert)


string = _type("a string", lambda v: type(v) is str)
path = _type("a path", lambda v: type(v) is str and v != "", _resolve)  # relative to the base directory
strings = _type("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v))
mapping = _type("a mapping", lambda v: type(v) is dict)


def one_of(choices: tuple[str, ...], default: Any = REQUIRED) -> Field:
    return Field("|".join(choices), lambda v: type(v) is str and v in choices, default)


def whole(minimum: int, default: Any = REQUIRED) -> Field:
    return Field(f"a whole number >= {minimum}", lambda v: type(v) is int and v >= minimum, default)


def number(interval: str, default: Any = REQUIRED) -> Field:
    """A number in ``interval``, e.g. ``[0, 1]`` or ``(0, inf)`` (a round bracket leaves its end out), as a float."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above, below = interval[0] == "(", interval[-1] == ")"

    def accepts(v: Any) -> bool:  # within the float range, so neither NaN nor infinite
        within = type(v) in (int, float) and -_MAX <= v <= _MAX
        return within and (low < v if above else low <= v) and (v < high if below else v <= high)

    return Field(f"a number in {interval}", accepts, default, lambda v, *_: float(v))


class Record:
    """A closed set of fields, whose keys messages call ``noun``. Nested
    under a key, the record is named by that key."""

    def __init__(self, fields: dict[str, Field], noun: str = "key"):
        self.fields, self.noun = fields, noun
        self._defaults = {key: f.default for key, f in fields.items()}  # in declaration order
        self._plain = {key: f.accepts for key, f in fields.items() if f.convert is None}
        # the keys that, when absent, raise or take a default that is converted
        self._absent = tuple(
            key for key, f in fields.items() if f.default is REQUIRED or f.convert and f.default is not None
        )

    def field(self, default: Any = REQUIRED) -> Field:  # this record as the type of another's field
        return Field("a mapping", lambda v: type(v) is dict, default, self.parse)

    def parse(self, value: Any, error: type[SolguardError], where: str, name: str, base: Path | None = None) -> dict:
        """The plain values of the record ``name`` read from ``where``, its paths resolved against ``base``."""
        if type(value) is not dict:
            raise error(f"{where}: {name} must be a mapping, got {value!r}")
        values = dict(self._defaults)
        for key, v in value.items():  # an accepted plain value inline, anything else through value()
            accepts = self._plain.get(key)
            values[key] = v if accepts is not None and accepts(v) else self.value(key, v, error, where, name, base)
        for key in self._absent:
            if key not in value:
                values[key] = self.value(key, _ABSENT, error, where, name, base)
        return values

    def value(self, key: Any, value: Any, error: type[SolguardError], where: str, name: str, base: Path | None = None):
        """The plain value of one key of the record ``name``."""
        field = self.fields.get(key)
        if field is None:
            raise error(f"{where}: unknown {name} {self.noun} {key!r}")
        if value is _ABSENT:
            if field.default is REQUIRED:
                raise error(f"{where}: {name} needs {'an' if key[0] in 'aeiou' else 'a'} {key} {self.noun}")
            value = field.default
        elif not (value is None and field.default is None or field.accepts(value)):
            raise error(f"{where}: {name} {self.noun} {key} must be {field.expected}, got {value!r}")
        return value if field.convert is None or value is None else field.convert(value, error, where, key, base)
