"""SARIF 2.1.0 emission for ``python -m repro.analysis --format sarif``.

SARIF is the interchange format GitHub's code-scanning UI ingests, so a
CI upload of this document turns every violation into an inline PR
annotation at the offending line.  Only the subset of the format those
consumers read is emitted: one run, one driver, the rule catalogue, and
one result per violation.
"""

from __future__ import annotations

from typing import Iterable

from .rules import RULES, Violation

__all__ = ["to_sarif"]

_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def to_sarif(violations: Iterable[Violation]) -> dict[str, object]:
    """Build a SARIF ``dict`` (caller serialises with ``json.dumps``)."""
    violations = list(violations)
    used_rules = sorted({v.rule for v in violations})
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": RULES.get(rule_id, "unknown rule")},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id in (used_rules or sorted(RULES))
    ]
    results = [
        {
            "ruleId": v.rule,
            "level": "error",
            "message": {"text": v.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": v.path},
                    "region": {
                        "startLine": max(v.line, 1),
                        "startColumn": v.col + 1,
                    },
                },
            }],
        }
        for v in violations
    ]
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-analysis",
                "informationUri": "docs/contracts.md",
                "rules": rules,
            }},
            "results": results,
        }],
    }
