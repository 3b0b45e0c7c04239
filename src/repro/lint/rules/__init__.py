"""The lint rule registry.

Every rule is a stateless singleton registered under its id.  A rule
implements one or both hooks:

``check_module(module, ctx)``
    Per-file pass; yields :class:`~repro.lint.findings.Finding`.
``finish(ctx)``
    Cross-file pass after every module was visited — for invariants
    that live between files (backend parity, stage-key coverage,
    metric-label consistency).

Rule ids follow ``RPR<NNN>``.  ``RPR000`` is reserved for the linter
itself (parse failures, malformed ``noqa`` suppressions) and cannot be
suppressed.
"""

from __future__ import annotations

from repro.lint.findings import SEVERITIES, Finding

__all__ = ["Rule", "META_RULE_ID", "register_rule", "all_rules",
           "known_rule_ids"]

#: The linter's own findings (parse errors, bad suppressions).
META_RULE_ID = "RPR000"


class Rule:
    """Base class: identity, severity, options, finding helper."""

    rule_id = "RPR000"
    title = ""
    #: default severity; ``[tool.repro.lint.<id>] severity`` overrides
    severity = "error"
    #: per-rule option defaults; the pyproject table is merged over them
    default_options: dict = {}

    def check_module(self, module, ctx):
        """Per-file hook; default: nothing."""
        return ()

    def finish(self, ctx):
        """Cross-file hook after all modules; default: nothing."""
        return ()

    # ------------------------------------------------------------------
    def emit(self, ctx, rel: str, node, message: str,
             severity: str | None = None) -> Finding:
        """Build a finding at *node* (an AST node or a line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(path=rel, line=line, col=col, rule=self.rule_id,
                       severity=severity or ctx.severity(self.rule_id),
                       message=message)


_REGISTRY: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Register a rule instance (import-time, one per id)."""
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"rule {rule.rule_id} is already registered")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"rule {rule.rule_id} has bad severity "
                         f"{rule.severity!r}")
    _REGISTRY[rule.rule_id] = rule
    return rule


def all_rules() -> dict[str, Rule]:
    """Registered rules by id (sorted), importing the built-ins once."""
    _load_builtin_rules()
    return dict(sorted(_REGISTRY.items()))


def known_rule_ids() -> set[str]:
    """Every valid rule id, including the reserved meta id."""
    _load_builtin_rules()
    return set(_REGISTRY) | {META_RULE_ID}


def _load_builtin_rules() -> None:
    # import side effect registers each rule exactly once
    from repro.lint.rules import (  # noqa: F401
        cachekey,
        determinism,
        floatcontam,
        journalpurity,
        layering,
        metric_hygiene,
        parity,
    )
