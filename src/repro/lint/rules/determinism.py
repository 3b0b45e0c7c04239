"""RPR001 — determinism: no hidden randomness or wall-clock values.

The paper's methodology (and every bit-identity guarantee stacked on it
since PR 1) only holds while *all* stochasticity is seeded and explicit:
an unseeded generator or a wall-clock-derived value silently turns a
characterized error source into an uncharacterized one, exactly the
failure mode an unmodelled approximate multiplier would be.

Flagged:

* ``np.random.default_rng()`` / ``np.random.RandomState()`` /
  ``random.Random()`` constructed **without a seed**;
* any call into the stdlib ``random`` module's global-state functions
  (``random.random()``, ``random.seed()``, ...);
* numpy's legacy global-state API (``np.random.seed``, ``np.random.rand``,
  ``np.random.shuffle``, ...);
* ``time.time`` / ``time.time_ns`` — called *or* referenced (a
  ``default_factory=time.time`` is just as wall-clock-derived).

``time.perf_counter`` / ``time.monotonic`` / ``time.process_time`` are
interval clocks and stay legal — they measure, they do not stamp.

The documented exceptions live in ``[tool.repro.lint.RPR001] allow`` in
``pyproject.toml`` (trace metadata, serving registration stamps and
HTTP ``Date`` headers are telemetry, not results); one-off exceptions use
``# repro: noqa[RPR001]``.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import match_path
from repro.lint.rules import Rule, register_rule

#: Constructors that are fine seeded but flagged bare.
_UNSEEDED = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}

#: numpy's legacy global-state functions (module-level RNG).
_NUMPY_LEGACY = {
    "numpy.random." + name for name in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "shuffle", "permutation", "choice", "normal",
        "uniform", "standard_normal", "bytes",
    )
}

#: members of the stdlib ``random`` module that do NOT touch the hidden
#: global generator when used as constructors
_RANDOM_MODULE_OK = {"random.Random", "random.SystemRandom"}

#: wall-clock sources; referencing one is as bad as calling it
_WALL_CLOCK = {"time.time", "time.time_ns"}


class DeterminismRule(Rule):
    rule_id = "RPR001"
    title = "unseeded randomness or wall-clock-derived value"
    severity = "error"
    default_options = {
        # documented exceptions (see docs/invariants.md): trace metadata,
        # serving registration stamps and HTTP Date headers are
        # telemetry, not results
        "allow": [
            "src/repro/obs/tracing.py",
            "src/repro/serving/registry.py",
            "src/repro/serving/server.py",
            "benchmarks/",
        ],
    }

    def check_module(self, module, ctx):
        options = ctx.options(self)
        if match_path(module.rel, options["allow"]):
            return
        resolve = module.imports.resolve
        call_funcs = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                name = resolve(node.func)
                if name is None:
                    continue
                if name in _UNSEEDED and not node.args \
                        and not node.keywords:
                    yield self.emit(
                        ctx, module.rel, node,
                        f"unseeded {name}() — results become "
                        f"run-dependent; pass an explicit seed "
                        f"(convention: default_rng(0))")
                elif name in _NUMPY_LEGACY:
                    yield self.emit(
                        ctx, module.rel, node,
                        f"{name}() uses numpy's hidden global RNG "
                        f"state; thread a seeded np.random.Generator "
                        f"through instead")
                elif name.startswith("random.") \
                        and name not in _RANDOM_MODULE_OK \
                        and name.count(".") == 1:
                    yield self.emit(
                        ctx, module.rel, node,
                        f"{name}() uses the stdlib random module's "
                        f"hidden global state; use a seeded "
                        f"np.random.Generator")
        # wall-clock references (calls were collected above, so a call's
        # func attribute reports once, here)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Name)) \
                    and isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name) \
                        and node.id not in module.imports.aliases:
                    continue
                name = resolve(node)
                if name in _WALL_CLOCK:
                    verb = "call" if id(node) in call_funcs \
                        else "reference"
                    yield self.emit(
                        ctx, module.rel, node,
                        f"{verb} to {name} derives a value from the "
                        f"wall clock; results and cached artifacts "
                        f"must not depend on when they were computed")


register_rule(DeterminismRule())
