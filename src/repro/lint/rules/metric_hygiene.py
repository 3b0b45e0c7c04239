"""RPR006 — metric and span naming hygiene.

``repro.obs`` (PR 6) exports every metric to Prometheus and keys metric
instances by ``(name, labels)``; ``docs/observability.md`` documents the
vocabulary.  That only stays a vocabulary while call sites keep names
static and label schemas consistent:

* metric names at ``counter()`` / ``gauge()`` / ``histogram()`` call
  sites must be **string literals** matching
  ``[A-Za-z_][A-Za-z0-9_.:]*`` — a computed name is unbounded
  cardinality and may collide after Prometheus sanitisation;
* label keys must be valid Prometheus label names and **consistent per
  metric name across the whole tree** (a ``kernels.calls{backend,...}``
  here and a ``kernels.calls{device,...}`` there would split the series);
* span names must be literals, or f-strings with a literal dotted
  prefix (``f"stage.{stage}"`` keeps the namespace enumerable even
  though the leaf is dynamic).

Forwarding shims whose *callers* hold the literal (``repro.obs.span``
itself) carry a ``# repro: noqa[RPR006]``.
"""

from __future__ import annotations

import ast
import re

from repro.lint.astutil import match_path
from repro.lint.rules import Rule, register_rule

_METRIC_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.:]*$")
_LABEL_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class MetricHygieneRule(Rule):
    rule_id = "RPR006"
    title = "non-literal or inconsistent metric/span naming"
    severity = "error"
    default_options = {
        "metric_methods": ["counter", "gauge", "histogram"],
        "span_methods": ["span"],
        # constructor kwargs that are configuration, not labels
        "non_label_kwargs": ["window"],
        "skip": [],
    }

    def check_module(self, module, ctx):
        options = ctx.options(self)
        if match_path(module.rel, options["skip"]):
            return
        metric_methods = set(options["metric_methods"])
        span_methods = set(options["span_methods"])
        non_label = set(options["non_label_kwargs"])
        sites = ctx.cache.setdefault("rpr006.sites", {})
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method in metric_methods:
                yield from self._check_metric(ctx, module, node, method,
                                              non_label, sites)
            elif method in span_methods:
                yield from self._check_span(ctx, module, node)

    # ------------------------------------------------------------------
    def _check_metric(self, ctx, module, node, method, non_label, sites):
        name_arg = node.args[0] if node.args else None
        if name_arg is None:
            return
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            yield self.emit(
                ctx, module.rel, node,
                f"metric name passed to .{method}() must be a string "
                f"literal — computed names are unbounded cardinality "
                f"and undiscoverable from docs/observability.md")
            return
        name = name_arg.value
        if not _METRIC_NAME_RE.match(name):
            yield self.emit(
                ctx, module.rel, node,
                f"metric name {name!r} is not cleanly "
                f"Prometheus-sanitizable (want "
                f"[A-Za-z_][A-Za-z0-9_.:]*)")
            return
        dynamic = False
        keys = []
        for kw in node.keywords:
            if kw.arg is None:          # **labels: schema not static
                dynamic = True
            elif kw.arg not in non_label:
                keys.append(kw.arg)
                if not _LABEL_KEY_RE.match(kw.arg):
                    yield self.emit(
                        ctx, module.rel, kw.value,
                        f"label key {kw.arg!r} on metric {name!r} is "
                        f"not a valid Prometheus label name")
        if not dynamic:
            sites.setdefault(name, []).append(
                (module.rel, node.lineno, frozenset(keys)))

    def _check_span(self, ctx, module, node):
        name_arg = node.args[0] if node.args else None
        if name_arg is None:
            return
        if isinstance(name_arg, ast.Constant) \
                and isinstance(name_arg.value, str):
            if not _METRIC_NAME_RE.match(name_arg.value):
                yield self.emit(
                    ctx, module.rel, node,
                    f"span name {name_arg.value!r} is not a dotted "
                    f"identifier")
            return
        if isinstance(name_arg, ast.JoinedStr):
            first = name_arg.values[0] if name_arg.values else None
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str) \
                    and first.value.endswith(".") \
                    and _METRIC_NAME_RE.match(first.value[:-1]):
                return  # literal dotted prefix: namespace stays bounded
            yield self.emit(
                ctx, module.rel, node,
                "span name f-string must start with a literal dotted "
                "prefix (e.g. f\"stage.{name}\") so the span namespace "
                "stays enumerable")
            return
        yield self.emit(
            ctx, module.rel, node,
            "span name must be a string literal (or an f-string with "
            "a literal dotted prefix)")

    # ------------------------------------------------------------------
    def finish(self, ctx):
        sites = ctx.cache.get("rpr006.sites", {})
        for name in sorted(sites):
            entries = sorted(sites[name],
                             key=lambda e: (e[0], e[1]))
            baseline_path, baseline_line, baseline_keys = entries[0]
            for path, line, keys in entries[1:]:
                if keys != baseline_keys:
                    yield self.emit(
                        ctx, path, line,
                        f"metric {name!r} is recorded with label keys "
                        f"{{{', '.join(sorted(keys)) or ''}}} here but "
                        f"{{{', '.join(sorted(baseline_keys)) or ''}}} "
                        f"at {baseline_path}:{baseline_line} — one "
                        f"metric name, one label schema")


register_rule(MetricHygieneRule())
