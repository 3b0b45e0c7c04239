"""RPR005 — journal purity across the explore multiprocessing boundary.

PR 3's exploration journals are *order-independent and bit-identical*
between serial and parallel runs: records are keyed by config digest and
contain nothing timing-, process- or host-dependent.  PR 6 added worker
telemetry without breaking that by the out-of-band wrapper pattern —
``{"record": <pure>, "elapsed_s": <telemetry>}`` — where the impure
value rides *next to* the record and is stripped before journaling.

This rule pins the invariant down for the files that build journal
records or cross the worker boundary: wall-clock stamps, PIDs,
hostnames, UUIDs and datetime "now" calls are findings there.  Interval
clocks (``time.perf_counter`` / ``time.monotonic``) stay legal — they
are how the out-of-band telemetry is measured — and the atomic-write
helper's ``os.getpid()`` temp-file suffix lives in
``repro.utils.serialization``, outside the covered set, because it
never enters record *content*.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import match_path
from repro.lint.rules import Rule, register_rule

_IMPURE = {
    "time.time", "time.time_ns",
    "os.getpid", "os.getppid", "os.uname",
    "socket.gethostname", "socket.getfqdn",
    "platform.node", "platform.uname",
    "uuid.uuid1", "uuid.uuid4",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}


class JournalPurityRule(Rule):
    rule_id = "RPR005"
    title = "process/host/wall-clock state in the journal path"
    severity = "error"
    default_options = {
        "files": ["*/explore/journal.py", "*/explore/executor.py"],
    }

    def check_module(self, module, ctx):
        options = ctx.options(self)
        if not match_path(module.rel, options["files"]):
            return
        resolve = module.imports.resolve
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Name)) \
                    and isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name) \
                        and node.id not in module.imports.aliases:
                    continue
                name = resolve(node)
                if name in _IMPURE:
                    yield self.emit(
                        ctx, module.rel, node,
                        f"{name} in a journal-path module: records "
                        f"crossing the worker boundary must stay "
                        f"bit-identical between serial and parallel "
                        f"runs — keep telemetry out-of-band "
                        f"(the {{record, elapsed_s}} wrapper pattern)")


register_rule(JournalPurityRule())
