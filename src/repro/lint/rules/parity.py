"""RPR003 — backend parity on :class:`KernelBackend`.

Since PR 4 every compute kernel lives behind the backend registry with
the contract "all backends are bit-identical to ``reference``".  That
contract has two mechanical prerequisites this rule enforces:

1. every abstract method of ``KernelBackend`` (a method whose body is
   ``raise NotImplementedError``) is implemented by **both** the
   ``reference`` and ``fast`` backend classes — a kernel added to the
   interface but only one backend would make ``auto`` silently
   incomplete;
2. every abstract method name is referenced by at least one test under
   ``tests/`` — the identity suites (``test_kernels.py``,
   ``test_sim_backends.py``) are what *makes* the bit-identity claim
   true, so an untested kernel family has no claim at all.

The test scan reads ``tests/`` (the ``test_paths`` option) even when it
is not part of the linted path set: the rule is about ``src`` code
whose proof obligations live elsewhere.
"""

from __future__ import annotations

import ast
import os

from repro.lint.astutil import dotted_parts, iter_class_methods, match_path
from repro.lint.rules import Rule, register_rule


def _is_abstract(fn: ast.FunctionDef) -> bool:
    """Body is (docstring +) ``raise NotImplementedError``."""
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _backend_name(node: ast.ClassDef) -> str | None:
    """The class's ``name = "..."`` registry attribute."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id == "name" \
                and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            return stmt.value.value
    return None


class BackendParityRule(Rule):
    rule_id = "RPR003"
    title = "KernelBackend method unimplemented or untested"
    severity = "error"
    default_options = {
        "base_class": "KernelBackend",
        "backends": ["reference", "fast"],
        "test_paths": ["tests"],
    }

    def check_module(self, module, ctx):
        base_class = ctx.options(self)["base_class"]
        store = ctx.cache.setdefault(
            "rpr003", {"bases": [], "impls": []})
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == base_class:
                abstract = [fn for fn in iter_class_methods(node)
                            if _is_abstract(fn)]
                store["bases"].append((module, node, abstract))
            else:
                for base in node.bases:
                    parts = dotted_parts(base)
                    if parts and parts[-1] == base_class:
                        store["impls"].append((module, node))
                        break
        return ()

    # ------------------------------------------------------------------
    def finish(self, ctx):
        options = ctx.options(self)
        store = ctx.cache.get("rpr003", {"bases": [], "impls": []})
        if len(store["bases"]) != 1:
            return  # no (or ambiguous) backend interface in this run
        base_module, base_node, abstract = store["bases"][0]
        if not abstract:
            return
        by_name: dict[str, tuple] = {}
        for module, node in store["impls"]:
            name = _backend_name(node)
            if name is not None:
                methods = {fn.name for fn in iter_class_methods(node)}
                by_name[name] = (module, node, methods)
        for backend in options["backends"]:
            if backend not in by_name:
                yield self.emit(
                    ctx, base_module.rel, base_node,
                    f"no {base_node.name} subclass with "
                    f"name = {backend!r} found — the {backend} backend "
                    f"is unimplemented")
                continue
            module, node, methods = by_name[backend]
            for fn in abstract:
                if fn.name not in methods:
                    yield self.emit(
                        ctx, module.rel, node,
                        f"backend {backend!r} ({node.name}) does not "
                        f"implement abstract kernel method "
                        f"{fn.name!r}; 'auto' dispatch would raise "
                        f"NotImplementedError at runtime")
        yield from self._check_test_references(
            ctx, base_module, abstract, options["test_paths"])

    # ------------------------------------------------------------------
    def _check_test_references(self, ctx, base_module, abstract,
                               test_paths):
        identifiers = self._test_identifiers(ctx, test_paths)
        if identifiers is None:
            return  # no test tree next to this run; nothing to prove
        for fn in abstract:
            if fn.name not in identifiers:
                yield self.emit(
                    ctx, base_module.rel, fn,
                    f"abstract kernel method {fn.name!r} is referenced "
                    f"by no test under {', '.join(test_paths)}/ — the "
                    f"backend bit-identity contract for it is "
                    f"unverified")

    def _test_identifiers(self, ctx, test_paths) -> set[str] | None:
        cache_key = ("rpr003.test_idents", tuple(test_paths))
        if cache_key in ctx.cache:
            return ctx.cache[cache_key]
        identifiers: set[str] | None = None
        for entry in test_paths:
            root = entry if os.path.isabs(entry) \
                else os.path.join(ctx.root, entry)
            if not os.path.isdir(root):
                continue
            identifiers = set() if identifiers is None else identifiers
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    rel = os.path.relpath(path, ctx.root).replace(
                        os.sep, "/")
                    if match_path(rel, ctx.config.exclude):
                        continue
                    identifiers |= self._identifiers_of(path)
        ctx.cache[cache_key] = identifiers
        return identifiers

    @staticmethod
    def _identifiers_of(path: str) -> set[str]:
        try:
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
        except (OSError, SyntaxError):
            return set()
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                names.add(node.name)
        return names


register_rule(BackendParityRule())
