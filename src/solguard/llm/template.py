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


def render_prompt(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Emit the four sections in canonical order, then the body, with every
    placeholder bound in one pass.

    Raises :class:`TemplateError` naming the first placeholder that has no
    binding.
    """
    sections = [
        ("Role", template.role_playing),
        ("Task", template.task_description),
        ("Expected Output", template.expected_output),
        ("Background Information", template.background_information),
    ]
    unbound: list[str] = []

    def repl(match: re.Match[str]) -> str:
        key = match.group(1)
        if key not in bindings:
            unbound.append(key)
            return match.group(0)
        return bindings[key]

    text = "\n\n".join([*(f"## {title}\n{section}" for title, section in sections), template.body])
    result = _PLACEHOLDER_RE.sub(repl, text)
    if unbound:
        raise TemplateError(f"unbound placeholder: {unbound[0]}")
    return result
