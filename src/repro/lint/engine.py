"""The lint engine: file collection, parsing, suppression, rule runs.

A :class:`Linter` run is two passes over the collected modules — every
enabled rule's ``check_module`` per file, then every rule's ``finish``
across files — followed by ``# repro: noqa[RULE-ID]`` suppression.
Suppressions are strict: a bare ``noqa`` or an unknown rule id is itself
a finding (:data:`~repro.lint.rules.META_RULE_ID`, unsuppressible),
because a suppression nobody can attribute to a rule is a suppression
nobody can audit.

Explicitly named files are always linted; configured ``exclude``
patterns apply only while walking directories.  That split is what lets
the test fixtures under ``tests/fixtures/lint/`` hold deliberate
violations without tripping ``repro lint .``: the directory walk skips
them, the fixture tests pass them by name.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field

from repro.lint.astutil import ImportMap, match_path
from repro.lint.config import LintConfig, LintConfigError
from repro.lint.findings import Finding
from repro.lint.rules import META_RULE_ID, all_rules, known_rule_ids

__all__ = ["Linter", "lint_paths"]

#: the suppression marker, with or without a bracketed rule-id list
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([^\]]*)\])?")


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file, as the rules see it."""

    path: str          # absolute path on disk
    rel: str           # posix path relative to the lint root
    source: str
    tree: ast.Module
    imports: ImportMap


class LintContext:
    """Shared state for one :meth:`Linter.run`."""

    def __init__(self, config: LintConfig, root: str,
                 modules: list[ModuleInfo]) -> None:
        self.config = config
        self.root = root
        self.modules = modules
        #: scratch space for cross-file/cross-rule accumulation
        self.cache: dict = {}
        self._rules = all_rules()

    def options(self, rule) -> dict:
        """*rule*'s ``default_options`` merged with the config table."""
        return self.config.options(rule.rule_id, rule.default_options)

    def severity(self, rule_id: str) -> str:
        """Effective severity: config override, else rule default."""
        override = self.config.severity_override(rule_id)
        if override is not None:
            return override
        rule = self._rules.get(rule_id)
        return rule.severity if rule is not None else "error"


@dataclass
class LintResult:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    checked_files: list[str] = field(default_factory=list)
    suppressed: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when nothing error-severity survived suppression."""
        return not self.errors


class Linter:
    """Collect files under a root, run the enabled rules over them."""

    def __init__(self, config: LintConfig | None = None,
                 root: str | None = None) -> None:
        self.config = config if config is not None else LintConfig()
        self.root = os.path.abspath(root or os.getcwd())
        rules = all_rules()
        if self.config.select is not None:
            unknown = sorted(set(self.config.select) - set(rules))
            if unknown:
                raise LintConfigError(
                    f"unknown rule id(s) in select: {', '.join(unknown)}"
                    f" (known: {', '.join(sorted(rules))})")
        self.rules = [rule for rule_id, rule in rules.items()
                      if self.config.selected(rule_id)]

    # ------------------------------------------------------------------
    def run(self, paths) -> LintResult:
        result = LintResult()
        modules: list[ModuleInfo] = []
        suppressions: dict[str, dict[int, set[str]]] = {}
        for path in self.collect_files(paths):
            rel = self._rel(path)
            result.checked_files.append(rel)
            try:
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=path)
            except (OSError, SyntaxError, ValueError) as error:
                line = getattr(error, "lineno", None) or 1
                result.findings.append(Finding(
                    path=rel, line=line, col=0, rule=META_RULE_ID,
                    severity="error",
                    message=f"cannot parse: {error}"))
                continue
            modules.append(ModuleInfo(path=path, rel=rel, source=source,
                                      tree=tree, imports=ImportMap(tree)))
            suppressions[rel] = self._scan_noqa(
                rel, source, result.findings)

        ctx = LintContext(self.config, self.root, modules)
        for module in modules:
            for rule in self.rules:
                result.findings.extend(
                    rule.check_module(module, ctx) or ())
        for rule in self.rules:
            result.findings.extend(rule.finish(ctx) or ())

        kept: list[Finding] = []
        for finding in result.findings:
            lines = suppressions.get(finding.path, {})
            if finding.rule != META_RULE_ID \
                    and finding.rule in lines.get(finding.line, ()):
                result.suppressed += 1
            else:
                kept.append(finding)
        result.findings = sorted(kept)
        return result

    # ------------------------------------------------------------------
    def collect_files(self, paths) -> list[str]:
        """Absolute file paths to lint, sorted and deduplicated.

        Files named explicitly are always included; directories are
        walked recursively with the configured ``exclude`` patterns
        applied (relative to the lint root).
        """
        collected: set[str] = set()
        for entry in paths:
            path = entry if os.path.isabs(entry) \
                else os.path.join(self.root, entry)
            path = os.path.abspath(path)
            if os.path.isfile(path):
                collected.add(path)
            elif os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames.sort()
                    dirnames[:] = [
                        d for d in dirnames
                        if not match_path(
                            self._rel(os.path.join(dirpath, d)),
                            self.config.exclude)]
                    for filename in sorted(filenames):
                        if not filename.endswith(".py"):
                            continue
                        candidate = os.path.join(dirpath, filename)
                        if not match_path(self._rel(candidate),
                                          self.config.exclude):
                            collected.add(candidate)
            else:
                raise FileNotFoundError(f"no such file or directory: "
                                        f"{entry}")
        return sorted(collected)

    def _rel(self, path: str) -> str:
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    # ------------------------------------------------------------------
    def _scan_noqa(self, rel: str, source: str,
                   findings: list[Finding]) -> dict[int, set[str]]:
        """Per-line suppressed rule ids; malformed noqas become
        :data:`META_RULE_ID` findings appended to *findings*."""
        known = known_rule_ids()
        by_line: dict[int, set[str]] = {}
        for lineno, col, text in self._comments(source):
            for match in _NOQA_RE.finditer(text):
                body = match.group(1)
                if body is None or not body.strip():
                    findings.append(Finding(
                        path=rel, line=lineno, col=col + match.start(),
                        rule=META_RULE_ID, severity="error",
                        message="bare 'repro: noqa' — every suppression "
                                "must name the rule it silences, e.g. "
                                "'# repro: noqa[RPR001]'"))
                    continue
                ids = {part.strip().upper()
                       for part in body.split(",") if part.strip()}
                unknown = sorted(ids - known)
                if unknown:
                    findings.append(Finding(
                        path=rel, line=lineno, col=col + match.start(),
                        rule=META_RULE_ID, severity="error",
                        message=f"noqa names unknown rule id(s): "
                                f"{', '.join(unknown)}"))
                ids &= known
                ids.discard(META_RULE_ID)   # the meta rule never yields
                if ids:
                    by_line.setdefault(lineno, set()).update(ids)
        return by_line

    @staticmethod
    def _comments(source: str):
        """``(line, col, text)`` of every comment token.

        Tokenizing (rather than regex-scanning raw lines) keeps noqa
        markers quoted inside docstrings or string literals — like the
        ones in this module's own docs — from acting as suppressions.
        """
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.start[1], token.string
        except (tokenize.TokenError, IndentationError,
                SyntaxError):  # pragma: no cover - ast.parse ran first
            return


def lint_paths(paths, root: str | None = None,
               config: LintConfig | None = None) -> LintResult:
    """One-call façade: configure, collect, run."""
    resolved_root = os.path.abspath(root or os.getcwd())
    if config is None:
        config = LintConfig.discover(root=resolved_root)
    return Linter(config=config, root=resolved_root).run(paths)
