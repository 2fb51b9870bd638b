"""The simlint rule catalog.

Rules are ordered by id; DESIGN.md 6.5 documents the catalog with the
rationale each rule carries in code.  Selection accepts either the id
("R12") or the slug name ("interprocedural-hook"), case-insensitively.
Retired ids (R4, R8, R9, R10) are not reused.
"""

from repro.analysis.rules.channels import SingleTokenChannelRule
from repro.analysis.rules.determinism import (
    FloatCycleCompareRule,
    NondeterminismRule,
)
from repro.analysis.rules.hooks import (
    InterproceduralHookRule,
    MutableDefaultRule,
)
from repro.analysis.rules.pooling import (
    DirectTokenConstructionRule,
    MissingSlotsRule,
    discover_pooled_classes,
)
from repro.analysis.rules.fusion import FusionPurityRule
from repro.analysis.rules.schema import SchemaCoherenceRule
from repro.analysis.rules.snapshot import SnapshotCompletenessRule

ALL_RULES = tuple(sorted(
    (
        NondeterminismRule(),
        SingleTokenChannelRule(),
        DirectTokenConstructionRule(),
        FloatCycleCompareRule(),
        MutableDefaultRule(),
        MissingSlotsRule(),
        SnapshotCompletenessRule(),
        InterproceduralHookRule(),
        FusionPurityRule(),
        SchemaCoherenceRule(),
    ),
    key=lambda rule: int(rule.id[1:]),
))

RULES_BY_KEY = {}
for _rule in ALL_RULES:
    RULES_BY_KEY[_rule.id.lower()] = _rule
    RULES_BY_KEY[_rule.name.lower()] = _rule


def select_rules(spec=None):
    """Resolve a comma-separated id/name spec to rule instances.

    ``None`` / ``"all"`` selects the whole catalog.  Raises ValueError
    naming the unknown entry otherwise, so CLI typos fail loudly.
    """
    if spec is None or spec.strip().lower() in ("", "all"):
        return ALL_RULES
    selected = []
    for part in spec.split(","):
        key = part.strip().lower()
        if not key:
            continue
        rule = RULES_BY_KEY.get(key)
        if rule is None:
            known = ", ".join(rule.id for rule in ALL_RULES)
            raise ValueError(f"unknown rule {part.strip()!r} (known: {known})")
        if rule not in selected:
            selected.append(rule)
    return tuple(selected)


__all__ = [
    "ALL_RULES",
    "RULES_BY_KEY",
    "select_rules",
    "discover_pooled_classes",
]
