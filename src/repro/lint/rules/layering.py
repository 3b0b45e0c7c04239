"""RPR007 — layering: every ``repro`` import points down one package order.

The order is ``_TIERS`` below, lowest first, measured from the
tree (``hardware`` sits below ``nn``, ``faults``/``serving`` below
``pipeline``).  A module may import its own package or a lower tier; an
import of a higher tier, of another package in the same tier or of a
package outside the order is a finding.  Function-level imports count
too: a cycle hidden in a function is still a cycle.  Exempt: the root
modules (``repro/__init__.py``, ``__main__.py``, ``cli.py``) and ``from
repro import __version__``.  Rationale in ``docs/invariants.md``.
"""

from __future__ import annotations

import ast

from repro.lint.rules import Rule, register_rule


def _module_parts(rel: str) -> list[str] | None:
    """``["repro", <package>, ..., <module>]`` for a file under a
    ``repro/`` directory, else ``None``."""
    if not rel.endswith(".py"):
        return None
    segments = rel[:-len(".py")].split("/")
    folders = segments[:-1]
    if "repro" not in folders:
        return None
    return segments[len(folders) - 1 - folders[::-1].index("repro"):]


def _imported_packages(node: ast.AST, parts: list[str]):
    """Each ``repro`` package the import statement *node* names;
    *parts* (the importer's module path) resolves relative imports."""
    if isinstance(node, ast.Import):
        modules = [alias.name.split(".") for alias in node.names]
        names: list[str] = []
    elif isinstance(node, ast.ImportFrom):
        base = parts[:len(parts) - node.level] if node.level else []
        modules = [base + (node.module.split(".") if node.module else [])]
        names = [alias.name for alias in node.names]
    else:
        return
    for module in modules:
        if module[:1] != ["repro"]:
            continue
        if len(module) > 1:
            yield module[1]
            continue
        for name in names:               # from repro import <name>
            if name != "__version__":
                yield name


#: The package order, lowest tier first.  Declared here only: it is not
#: a rule option, so no config file can reorder or merge tiers.
_TIERS = (
    ("fixedpoint", "utils", "obs", "lint"),
    ("asm", "kernels"),
    ("rtl", "hardware"),
    ("nn",),
    ("datasets", "training", "faults", "serving"),
    ("analysis", "pipeline"),
    ("explore",),
    ("experiments",),
)
_TIER = {package: index for index, packages in enumerate(_TIERS)
         for package in packages}


class LayeringRule(Rule):
    rule_id = "RPR007"
    title = "repro import against the package order"
    severity = "error"

    def check_module(self, module, ctx):
        parts = _module_parts(module.rel)
        if parts is None or len(parts) < 3:
            return                       # outside repro, or a root module
        own = parts[1]
        if own not in _TIER:
            yield self.emit(ctx, module.rel, 1,
                            f"package {own!r} is not in the RPR007 "
                            f"package order; add it to a tier")
            return
        for node in ast.walk(module.tree):
            for package in _imported_packages(node, parts):
                if package == own:
                    continue
                level = _TIER.get(package)
                if level is None:
                    why = "is not in the package order"
                elif level > _TIER[own]:
                    why = "sits in a higher tier"
                elif level == _TIER[own]:
                    why = "sits in the same tier"
                else:
                    continue
                yield self.emit(
                    ctx, module.rel, node,
                    f"{own} imports repro.{package}, which {why}; "
                    f"imports must point down the package order")


register_rule(LayeringRule())
