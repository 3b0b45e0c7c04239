"""RPR002 — cache-key completeness for :class:`PipelineConfig`.

The stage cache keys every stage on a hash of *only the config fields
that stage's result depends on*, and deliberately excludes ``backend``
/ ``eval_batch_size`` because backends are bit-identical and batching
does not change results.  That audit was done by hand; this rule makes
it mechanical, in three checks:

1. **Round-trip coverage** — every dataclass field of ``PipelineConfig``
   (or a subclass) must appear as a literal key in its ``to_dict()``.
   A subclass that adds a field without overriding ``to_dict`` is
   flagged on the field: the inherited ``to_dict``/``digest`` cannot
   see it, so two configs differing only in that field would share a
   digest and poison each other's cache entries.
2. **Digest drops are documented** — every ``data.pop("...")`` inside
   ``digest()`` must be listed in the ``digest_exclusions`` option.
3. **Stage-key coverage** (cross-file) — every field of the canonical
   ``PipelineConfig`` must either be read by
   ``Pipeline._stage_deps`` (directly, or through one of the
   ``aliases`` accessor methods) or be named in the documented
   ``stage_key_exclusions`` set.  A new config field that nobody
   routes into a stage key (or explicitly excludes) is exactly the
   silent cache poisoning this rule exists to stop.  Stale exclusion
   entries that no longer name a field are warned about.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import (
    decorator_names,
    dotted_parts,
    iter_class_methods,
)
from repro.lint.rules import Rule, register_rule

__all__ = ["CacheKeyRule"]


def _is_config_dataclass(node: ast.ClassDef, class_name: str) -> bool:
    if "dataclass" not in decorator_names(node):
        return False
    if node.name == class_name:
        return True
    for base in node.bases:
        parts = dotted_parts(base)
        if parts and parts[-1] == class_name:
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, ast.AST]]:
    """``(name, node)`` of the class body's annotated fields."""
    fields = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and not stmt.target.id.startswith("_"):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append((stmt.target.id, stmt))
    return fields


def _literal_dict_keys(fn: ast.FunctionDef) -> set[str]:
    """String keys built by *fn*: dict literals plus ``x["k"] = ...``."""
    keys: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            keys.add(node.slice.value)
    return keys


def _popped_keys(fn: ast.FunctionDef) -> list[tuple[str, ast.AST]]:
    popped = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "pop" and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            popped.append((node.args[0].value, node))
    return popped


class CacheKeyRule(Rule):
    rule_id = "RPR002"
    title = "PipelineConfig field invisible to digest / stage cache key"
    severity = "error"
    default_options = {
        "config_class": "PipelineConfig",
        "stage_deps_function": "_stage_deps",
        # digest() may drop these from the config hash (location, not
        # content — see PipelineConfig.digest)
        "digest_exclusions": ["cache_dir"],
        # fields deliberately absent from every stage-key slice:
        # backends are bit-identical, eval_batch_size is a memory knob,
        # cache_dir is location, and the stage list enters each key
        # structurally (stage name + executed plan)
        "stage_key_exclusions": [
            "backend", "eval_batch_size", "cache_dir", "stages",
        ],
        # accessor methods _stage_deps uses instead of raw fields
        "aliases": {
            "word_bits": "bits",
            "tier": "budget",
            "resolved_export_design": "export_design",
        },
    }

    # ------------------------------------------------------------------
    def check_module(self, module, ctx):
        options = ctx.options(self)
        class_name = options["config_class"]
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) \
                    or not _is_config_dataclass(node, class_name):
                continue
            is_canonical = node.name == class_name
            if is_canonical:
                ctx.cache.setdefault("rpr002.canonical", []).append(
                    (module, node))
            fields = _dataclass_fields(node)
            to_dict = next((fn for fn in iter_class_methods(node)
                            if fn.name == "to_dict"), None)
            if to_dict is not None:
                keys = _literal_dict_keys(to_dict)
                for name, field_node in fields:
                    if name not in keys:
                        yield self.emit(
                            ctx, module.rel, field_node,
                            f"field {name!r} of {node.name} is missing "
                            f"from to_dict(): the config digest and "
                            f"every stage cache key will silently "
                            f"ignore it")
            elif not is_canonical:
                for name, field_node in fields:
                    yield self.emit(
                        ctx, module.rel, field_node,
                        f"field {name!r} added by {class_name} subclass "
                        f"{node.name} is invisible to the inherited "
                        f"to_dict()/digest(): override to_dict() to "
                        f"include it, or the stage cache will treat "
                        f"differing configs as identical")
            digest = next((fn for fn in iter_class_methods(node)
                           if fn.name == "digest"), None)
            if digest is not None:
                allowed = set(options["digest_exclusions"])
                for key, pop_node in _popped_keys(digest):
                    if key not in allowed:
                        yield self.emit(
                            ctx, module.rel, pop_node,
                            f"digest() drops {key!r} from the config "
                            f"hash without listing it in the RPR002 "
                            f"digest_exclusions allowlist")

    # ------------------------------------------------------------------
    def finish(self, ctx):
        options = ctx.options(self)
        canonical = ctx.cache.get("rpr002.canonical", [])
        if len(canonical) != 1:
            return  # no (or ambiguous) canonical config in this run
        config_module, config_class = canonical[0]
        deps_site = self._find_stage_deps(
            ctx, options["stage_deps_function"])
        if deps_site is None:
            return
        deps_module, deps_fn = deps_site
        accessed = self._accessed_fields(deps_fn, options["aliases"])
        exclusions = set(options["stage_key_exclusions"])
        field_names = [name for name, _ in
                       _dataclass_fields(config_class)]
        for name in field_names:
            if name not in accessed and name not in exclusions:
                yield self.emit(
                    ctx, deps_module.rel, deps_fn,
                    f"PipelineConfig field {name!r} is neither hashed "
                    f"by {deps_fn.name}() nor named in the documented "
                    f"stage_key_exclusions set — a config change in it "
                    f"would silently reuse stale cache entries")
        for name in sorted(exclusions):
            if name not in field_names:
                yield self.emit(
                    ctx, deps_module.rel, deps_fn,
                    f"stage_key_exclusions entry {name!r} does not "
                    f"name a PipelineConfig field (stale allowlist?)",
                    severity="warning")

    # ------------------------------------------------------------------
    @staticmethod
    def _find_stage_deps(ctx, fn_name: str):
        for module in ctx.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.FunctionDef) \
                        and node.name == fn_name:
                    return module, node
        return None

    @staticmethod
    def _accessed_fields(fn: ast.FunctionDef,
                         aliases: dict[str, str]) -> set[str]:
        """Config fields *fn* reads, directly or via alias accessors."""
        receivers = {"cfg"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and dotted_parts(node.value) == ("self", "config"):
                receivers.add(node.targets[0].id)
        accessed: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Attribute):
                continue
            base = dotted_parts(node.value)
            if base is None:
                continue
            if base == ("self", "config") \
                    or (len(base) == 1 and base[0] in receivers):
                accessed.add(aliases.get(node.attr, node.attr))
        return accessed


register_rule(CacheKeyRule())
