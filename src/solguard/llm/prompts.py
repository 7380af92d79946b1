"""Prompt templates for the six pipeline roles.

Every template follows the same four-component structure; bodies carry the
per-request placeholders. The detection template deliberately contains no
slot for static or retrieval results: channel outputs are fused after the
model answers, not fed into it. The enriched variant is the exception and
adds similar contracts and knowledge excerpts to the background.
"""

from __future__ import annotations

from solguard.llm.template import PromptTemplate

_JSON_ONLY = "Reply with exactly one JSON object and no other text around it."

DETECTOR_TEMPLATE = PromptTemplate(
    role_playing=(
        "You are a senior smart contract security auditor specializing in Solidity."
    ),
    task_description=(
        "Review the contract below and decide whether it is vulnerable. Identify "
        "each vulnerability, the function it affects, and a short evidence excerpt."
    ),
    expected_output=(
        'A JSON object of the form {"verdict": "safe" | "vulnerable", '
        '"score": <probability that the contract is vulnerable, 0.0 to 1.0>, '
        '"findings": [{"class": "<vulnerability class>", "function": "<name>", '
        '"evidence": "<short excerpt>"}]}. ' + _JSON_ONLY
    ),
    background_information=(
        "Common Solidity weakness classes: reentrancy, integer overflow/underflow, "
        "unprotected state-changing functions, tx.origin authentication, unchecked "
        "low-level calls, timestamp dependence, unprotected selfdestruct, and "
        "delegatecall to untrusted callees."
    ),
    body="Contract code:\n{code}",
)

DETECTOR_ENRICHED_TEMPLATE = PromptTemplate(
    role_playing=DETECTOR_TEMPLATE.role_playing,
    task_description=DETECTOR_TEMPLATE.task_description,
    expected_output=DETECTOR_TEMPLATE.expected_output,
    background_information=(
        DETECTOR_TEMPLATE.background_information
        + "\n\nSimilar contracts from the audit corpus:\n{similar_contracts}"
        + "\n\nReference notes:\n{reference_notes}"
    ),
    body=DETECTOR_TEMPLATE.body,
)

ADVISOR_TEMPLATE = PromptTemplate(
    role_playing=(
        "You are a smart contract security consultant who writes actionable "
        "remediation guidance."
    ),
    task_description=(
        "For the vulnerability described below, produce a complete repair "
        "suggestion: name it, analyze the root cause, assess the potential "
        "impact, give concrete repair steps, and list preventive measures."
    ),
    expected_output=(
        'A JSON object of the form {"vulnerability_name": "...", '
        '"cause_analysis": "...", "impact_assessment": "...", '
        '"repair_steps": ["..."], "preventive_measures": ["..."]}. ' + _JSON_ONLY
    ),
    background_information="Reference notes:\n{reference_notes}",
    body=(
        "Vulnerability: {vulnerability}\n"
        "Affected function: {function}\n"
        "Evidence:\n{evidence}\n\n"
        "Contract code:\n{code}"
    ),
)

ASSESSOR_TEMPLATE = PromptTemplate(
    role_playing=(
        "You are a risk analyst who grades smart contract vulnerabilities on a "
        "four-level scale."
    ),
    task_description=(
        "Assign a risk level to the vulnerability below considering "
        "exploitability, asset exposure, and blast radius. The only valid "
        "levels are Critical, High, Medium, and Low."
    ),
    expected_output=(
        'A JSON object of the form {"level": "Critical" | "High" | "Medium" | "Low"}. '
        + _JSON_ONLY
    ),
    background_information="Reference notes:\n{reference_notes}",
    body=(
        "Vulnerability: {vulnerability}\n"
        "Affected function: {function}\n"
        "Evidence:\n{evidence}\n\n"
        "Repair suggestion summary:\n{suggestion_summary}\n\n"
        "Contract code:\n{code}"
    ),
)

FIXER_TEMPLATE = PromptTemplate(
    role_playing="You are a Solidity engineer repairing audited contracts.",
    task_description=(
        "Rewrite the contract to fix the vulnerabilities listed below, in the "
        "given priority order. Preserve behavior otherwise, keep the original "
        "style, and return the code shown, repaired in full."
    ),
    expected_output=(
        'A JSON object of the form {"repaired_source": "<repaired code>", '
        '"rationale": "<what changed and why>"}. ' + _JSON_ONLY
    ),
    background_information=(
        "Follow checks-effects-interactions, prefer explicit access control "
        "modifiers or msg.sender checks, and avoid introducing new external calls."
    ),
    body=(
        "Vulnerabilities in priority order:\n{suggestions}\n\n"
        "Contract code:\n{code}"
    ),
)

VERIFIER_TEMPLATE = PromptTemplate(
    role_playing=(
        "You are an independent reviewer judging whether a patch is safe to ship. "
        "You were not involved in writing it."
    ),
    task_description=(
        "Check that every listed vulnerability is eliminated by the patched "
        "source and that the patch introduces no new security issues."
    ),
    expected_output=(
        'A JSON object of the form {"passed": true | false, '
        '"new_issues": [{"class": "...", "function": "...", "evidence": "..."}]}. '
        + _JSON_ONLY
    ),
    background_information=(
        "A patch passes only if all listed vulnerabilities are gone and nothing "
        "new was introduced."
    ),
    body=(
        "Vulnerabilities the patch must eliminate:\n{findings}\n\n"
        "Original code:\n{code}\n\n"
        "Patched code:\n{patched_code}"
    ),
)

REPAIR_INSTRUCTION = (
    "Your previous reply could not be parsed. Re-emit your answer as one valid "
    "JSON object matching the expected structure, with no surrounding prose."
)

NO_REFERENCES_NOTE = "no references found"
