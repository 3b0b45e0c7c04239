"""RPR004 — float contamination of the exact-integer reference kernels.

``repro/kernels/reference.py`` is the ground truth every other backend
is measured against (PR 4): int64 codes, exact integer accumulation,
and float64 *only* at the documented real-domain transition (the
``real = acc.astype(np.float64) * scale + bias`` step before
requantisation).  A stray float division or a ``float32`` dtype in the
integer path would not crash — it would silently shift low-order bits
and every "bit-identical" assertion downstream would be comparing two
wrong numbers that happen to agree.

Inside the files this rule covers, the following are findings unless
they occur in an assignment to one of the allowlisted *carrier* names
(``real`` / ``scale`` by default — the explicit, reviewed
integer-to-real transition points):

* true division (``/`` — floor division ``//`` stays legal),
* numpy float dtype references (``np.float64``, ``np.float32``, ...),
* ``float(...)`` construction.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import match_path
from repro.lint.rules import Rule, register_rule

_FLOAT_DTYPES = {
    "numpy." + name for name in (
        "float16", "float32", "float64", "float128", "half", "single",
        "double", "longdouble", "float_",
    )
}


class FloatContaminationRule(Rule):
    rule_id = "RPR004"
    title = "float arithmetic in an exact-integer kernel"
    severity = "error"
    default_options = {
        "files": ["*/kernels/reference.py"],
        # reviewed integer->real transition variables
        "carriers": ["real", "scale"],
    }

    def check_module(self, module, ctx):
        options = ctx.options(self)
        if not match_path(module.rel, options["files"]):
            return
        carriers = set(options["carriers"])
        resolve = module.imports.resolve
        findings = []

        def carrier_assign(node: ast.AST) -> bool:
            if isinstance(node, ast.Assign):
                return all(isinstance(t, ast.Name) and t.id in carriers
                           for t in node.targets)
            if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                return isinstance(node.target, ast.Name) \
                    and node.target.id in carriers
            return False

        def scan(node: ast.AST) -> None:
            if carrier_assign(node):
                return  # reviewed transition point; subtree is allowed
            if isinstance(node, ast.BinOp) \
                    and isinstance(node.op, ast.Div):
                findings.append(self.emit(
                    ctx, module.rel, node,
                    "true division in an exact-integer kernel — use "
                    "integer arithmetic (// ) or route the value "
                    "through an allowlisted carrier assignment"))
            elif isinstance(node, ast.Attribute):
                name = resolve(node)
                if name in _FLOAT_DTYPES:
                    findings.append(self.emit(
                        ctx, module.rel, node,
                        f"{name} in an exact-integer kernel outside a "
                        f"carrier assignment — float dtypes may only "
                        f"enter at the documented real-domain "
                        f"transition"))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "float":
                findings.append(self.emit(
                    ctx, module.rel, node,
                    "float() construction in an exact-integer kernel "
                    "outside a carrier assignment"))
            for child in ast.iter_child_nodes(node):
                scan(child)

        scan(module.tree)
        return findings


register_rule(FloatContaminationRule())
