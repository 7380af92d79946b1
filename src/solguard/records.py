"""Untrusted records, inputs and model replies, each declared once and parsed where it is read.

A :class:`Record` is a set of named fields, each of a type and either
required or with a default. A value of the wrong type or that its convert step refuses,
or a key an input record does not declare, is the caller's error naming where the record
came from and the key. ``bool`` is not a number, a number is finite, and a field whose default
is ``None`` also takes ``null``. A :data:`text` field, or each item of a :data:`texts`
field, holds no lone surrogate. A record can parse into the object it
describes, whose own faults then name the record and where it came from too.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from solguard.errors import SolguardError

REQUIRED = object()  # the default of a field that must be given
ABSENT = object()  # the value of a key the record was not given
_MAX = sys.float_info.max
_SURROGATE = re.compile(r"[\ud800-\udfff]")


@contextmanager
def naming(where: str, error: type[SolguardError]) -> Iterator[None]:
    """Prefix ``where`` to an ``error`` raised inside, so that an object's faults name the input it came from."""
    try:
        yield
    except error as exc:
        raise error(f"{where}: {exc}") from exc


class Field(NamedTuple):
    expected: str  # the type, as messages and the docs state it
    accepts: Callable[[Any], bool]
    default: Any = REQUIRED
    convert: Callable[..., Any] | None = None  # (value, error, where, key, base) -> plain value, or ValueError


def _resolve(value: str, error: Any, where: str, key: str, base: Path | None) -> str:
    return str((base / value).resolve()) if base is not None and not Path(value).is_absolute() else value


def _type(expected: str, accepts: Callable[[Any], bool], convert: Callable | None = None) -> Callable[..., Field]:
    """A field type without parameters: called with its default, if any."""
    return lambda default=REQUIRED: Field(expected, accepts, default, convert)


def _text(value: str | list[str], *_: Any) -> str | list[str]:
    """``value``, a string or a list of them, unless one holds a lone surrogate (a
    JSON or YAML "\\ud800" decodes to one), which UTF-8 prompts and records cannot hold."""
    for item in (value,) if type(value) is str else value:
        if not item.isascii() and _SURROGATE.search(item):
            raise ValueError(f"{item!r} holds a lone surrogate, which is not text")
    return value


string = _type("a string", lambda v: type(v) is str)
text = _type(string().expected, string().accepts, _text)
path = _type("a path", lambda v: type(v) is str and v != "", _resolve)  # relative to the base directory
strings = _type("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v))
texts = _type(strings().expected, strings().accepts, _text)
mapping = _type("a mapping", lambda v: type(v) is dict)
boolean = _type("true or false", lambda v: type(v) is bool)


def items(item: Field | None = None, default: Any = REQUIRED) -> Field:
    """A list; with ``item``, one whose every value is of that type and is converted through it."""
    if item is None:
        return Field("a list", lambda v: type(v) is list, default)
    convert = item.convert and (lambda v, *rest: [item.convert(i, *rest) for i in v])
    accepts = lambda v: type(v) is list and all(map(item.accepts, v))  # noqa: E731
    return Field(f"a list, each item {item.expected}", accepts, default, convert)


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
    """A set of fields, whose keys messages call ``noun``. Nested under a
    key, the record is named by that key. With ``make``, a parse returns
    ``make(**values)`` rather than the values. A ``reply`` record, read from
    a model, keeps the keys it does not declare as given and takes ``null``
    for a field's default."""

    def __init__(self, fields: dict[str, Field], noun="key", make: Callable[..., Any] | None = None, reply=False):
        self.fields, self.noun, self.make, self.reply = fields, noun, make, reply
        # in declaration order, each key with the check that passes a given plain value inline
        self._inline = tuple((key, f.accepts if f.convert is None else None) for key, f in fields.items())

    def field(self, default: Any = REQUIRED) -> Field:  # this record as the type of another's field
        return Field("a mapping", lambda v: type(v) is dict, default, self.parse)

    def parse(self, value: Any, error: type[SolguardError], where: str, name: str, base: Path | None = None) -> Any:
        """The plain values of the record ``name`` read from ``where``, its
        paths resolved against ``base``, or what ``make`` makes of them. Of
        several faults, an undeclared key of an input record is named first,
        then the first faulty field in declaration order."""
        if type(value) is not dict:
            raise error(f"{where}: {name} must be a mapping, got {value!r}")
        if not self.reply and not value.keys() <= self.fields.keys():
            unknown = next(key for key in value if key not in self.fields)
            raise error(f"{where}: unknown {name} {self.noun} {unknown!r}")
        values = dict(value) if self.reply else {}
        for key, accepts in self._inline:  # an accepted plain value inline, anything else through value()
            v = value.get(key, ABSENT)
            values[key] = v if accepts is not None and accepts(v) else self.value(key, v, error, where, name, base)
        if self.make is None:
            return values
        with naming(f"{where}: {name}", error):
            return self.make(**values)

    def value(self, key: Any, value: Any, error: type[SolguardError], where: str, name: str, base: Path | None = None):
        """The plain value of one key of the record ``name``; ``value`` is
        :data:`ABSENT` when the key was not given."""
        field = self.fields.get(key)
        if field is None:
            raise error(f"{where}: unknown {name} {self.noun} {key!r}")
        if value is None and self.reply and field.default is not REQUIRED:
            value = ABSENT
        if value is ABSENT:
            if field.default is REQUIRED:
                raise error(f"{where}: {name} needs {'an' if key[0] in 'aeiou' else 'a'} {key} {self.noun}")
            value = field.default
        elif not (value is None and field.default is None or field.accepts(value)):
            raise error(f"{where}: {name} {self.noun} {key} must be {field.expected}, got {value!r}")
        try:
            return value if field.convert is None or value is None else field.convert(value, error, where, key, base)
        except ValueError as exc:
            raise error(f"{where}: {name} {self.noun} {key} {exc}") from exc
