"""repro.lint — domain-aware static analysis for the repro tree.

Most linters enforce style; this one enforces the *invariants the
reproduction's claims rest on*: seeded randomness everywhere results
flow (RPR001), cache keys that see every config field (RPR002), kernel
backends that stay complete and tested (RPR003), exact-integer
reference kernels free of float contamination (RPR004), journal records
that stay bit-identical across process boundaries (RPR005), a
metric/span vocabulary that stays static and consistent (RPR006), and
a package graph whose imports all point down one order (RPR007).
Each rule's rationale lives in ``docs/invariants.md``.

Usage::

    from repro.lint import lint_paths
    result = lint_paths(["src"], root="/path/to/repo")
    assert result.ok, [f.render() for f in result.errors]

or from the command line: ``repro lint src/ [--json]``.

Built on :mod:`ast` only — no third-party dependencies.  Suppressions
are per-line and per-rule (``# repro: noqa[RPR001]``); configuration
lives in ``[tool.repro.lint]`` in ``pyproject.toml``.
"""

from repro.lint.config import LintConfig, LintConfigError
from repro.lint.engine import (
    Linter,
    lint_paths,
)
from repro.lint.findings import SEVERITIES, Finding
from repro.lint.rules import (
    META_RULE_ID,
    Rule,
    all_rules,
    known_rule_ids,
    register_rule,
)

__all__ = [
    "SEVERITIES",
    "Finding",
    "LintConfig",
    "LintConfigError",
    "Linter",
    "META_RULE_ID",
    "Rule",
    "all_rules",
    "known_rule_ids",
    "lint_paths",
    "register_rule",
]
