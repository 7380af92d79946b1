"""Prompt templates with four canonical sections and placeholder binding."""

from __future__ import annotations

import re
from dataclasses import dataclass

from solguard.errors import SolguardError

# placeholders look like {code}; identifier-shaped only, so literal JSON
# braces in the template text are left alone
_PLACEHOLDER_RE = re.compile(r"\{([a-z_][a-z0-9_]*)\}")


class TemplateError(SolguardError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    """Four-component prompt: role, task, expected output, background.

    ``body`` carries the per-request material and its placeholders, ``{code}``
    included where the template targets contract source.
    """

    role_playing: str
    task_description: str
    expected_output: str
    background_information: str
    body: str


def _substitute(text: str, bindings: dict[str, str]) -> str:
    unbound: list[str] = []

    def repl(match: re.Match[str]) -> str:
        key = match.group(1)
        if key not in bindings:
            unbound.append(key)
            return match.group(0)
        return bindings[key]

    result = _PLACEHOLDER_RE.sub(repl, text)
    if unbound:
        raise TemplateError(f"unbound placeholder: {unbound[0]}")
    return result


def render_prompt(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Emit the four sections in canonical order, then the bound body.

    Raises :class:`TemplateError` naming the first placeholder that has no
    binding.
    """
    sections = [
        ("Role", template.role_playing),
        ("Task", template.task_description),
        ("Expected Output", template.expected_output),
        ("Background Information", template.background_information),
    ]
    parts: list[str] = []
    for title, text in sections:
        parts.append(f"## {title}\n{_substitute(text, bindings)}")
    parts.append(_substitute(template.body, bindings))
    return "\n\n".join(parts)
