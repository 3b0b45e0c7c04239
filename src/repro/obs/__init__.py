"""repro.obs — unified tracing, metrics and profiling for the whole repo.

One zero-dependency telemetry layer shared by the pipeline, the
explorer, the kernel layer, the cycle-accurate simulator, constrained
retraining and the serving stack:

* :class:`MetricsRegistry` — thread-safe counters, gauges and histograms
  (linear-interpolation quantiles), exported as JSON rows and as the
  Prometheus text format (serving's ``GET /metrics``);
* :func:`span` — nestable tracing spans recording wall time, process CPU
  time and peak RSS into an in-memory tree, optionally streamed to a
  Chrome-trace-compatible JSONL file (``repro run --trace out.jsonl``);
* profiling hooks at the hot boundaries — pipeline stages (duration +
  cache hit/miss counters), explore candidates (spans + journal
  counters + worker utilization), kernel dispatch (per-backend /
  per-kernel call counts and cumulative seconds), the toggle simulator,
  per-epoch retraining spans and the serving request path.

Everything is **off by default** and the disabled path is a no-op — one
boolean check per instrumented call, benchmarked at well under 1%
overhead on the kernels micro-bench (``BENCH_obs.json``,
``benchmarks/bench_obs_overhead.py``).  Enable per process::

    from repro import obs
    obs.enable(trace_path="results/trace.jsonl")   # path optional
    ...instrumented work...
    obs.disable()                                   # flush + close

or from the CLI: ``repro run cfg.json --trace out.jsonl`` /
``repro explore space.toml --trace out.jsonl``, then render with
``repro stats out.jsonl``.  A traced worker pool ships each task's spans
and counters back to the parent (:func:`shipping` / :func:`adopt`), so
one trace file covers a ``--jobs N`` run.

The serving stack's :class:`~repro.serving.metrics.ServingMetrics` is
always on; it owns a private :class:`MetricsRegistry` rather than the
global one, because a server wants request metrics regardless of the
process-wide tracing switch.

Metric names and the span naming convention are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import functools
import os
import threading
from collections.abc import Callable

from repro.obs.metrics import (
    DEFAULT_WINDOW,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    prometheus_name,
    quantile,
)
from repro.obs.tracing import (
    MAX_KEPT_SPANS,
    NULL_SPAN,
    TRACE_FORMAT,
    Span,
    Tracer,
)

__all__ = [
    "quantile", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_WINDOW", "prometheus_name", "escape_label_value",
    "Span", "Tracer", "TRACE_FORMAT", "MAX_KEPT_SPANS",
    "enable", "disable", "enabled", "span", "registry", "tracer",
    "spans", "record_kernel", "reset", "shipping", "adopt",
]


class _State:
    """Process-global switch + the objects it guards."""

    __slots__ = ("enabled", "tracer", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Tracer | None = None
        self.registry = MetricsRegistry()


_STATE = _State()
_LOCK = threading.Lock()


def enable(trace_path: str | None = None) -> None:
    """Turn instrumentation on for this process.

    *trace_path* (optional) streams finished spans to a
    ``repro-trace/1`` JSONL file; :func:`disable` appends the final
    metrics snapshot and closes it.  Calling :func:`enable` while
    already enabled restarts the tracer (the metrics registry is kept).
    """
    with _LOCK:
        if _STATE.tracer is not None:
            _STATE.tracer.close()
        _STATE.tracer = Tracer(trace_path)
        _STATE.enabled = True


def disable() -> None:
    """Turn instrumentation off; flush and close any trace file."""
    with _LOCK:
        _STATE.enabled = False
        if _STATE.tracer is not None:
            dropped = _STATE.tracer.dropped
            if dropped:
                # the in-memory forest cap must never be silent: count it
                # and stamp it into the trace's closing metrics line
                _STATE.registry.counter("obs.spans_dropped").inc(dropped)
            _STATE.tracer.write_metrics(_STATE.registry.to_dict(),
                                        dropped=dropped)
            _STATE.tracer.close()


def enabled() -> bool:
    """Is instrumentation on?  The one check every hot path makes."""
    return _STATE.enabled


def span(name: str, **attrs):
    """A context-managed tracing span (no-op singleton when disabled)."""
    if not _STATE.enabled:
        return NULL_SPAN
    # forwarding shim: the literal span name lives at the caller
    return _STATE.tracer.span(name, attrs)  # repro: noqa[RPR006]


def registry() -> MetricsRegistry:
    """The process-global metrics registry (usable even when disabled)."""
    return _STATE.registry


def tracer() -> Tracer | None:
    """The live tracer, or ``None`` before the first :func:`enable`."""
    return _STATE.tracer


def spans() -> list[Span]:
    """Finished root spans of the current tracer (empty when none)."""
    return list(_STATE.tracer.roots) if _STATE.tracer is not None else []


def record_kernel(backend: str, kernel: str, seconds: float,
                  calls: int = 1) -> None:
    """Account one (or *calls*) kernel dispatches to *backend*.

    Callers guard with :func:`enabled` so the disabled path never pays
    the registry lookup::

        if obs.enabled():
            t0 = time.perf_counter()
            out = be.dense(self, x, x_fmt)
            obs.record_kernel(be.name, "dense",
                              time.perf_counter() - t0)
    """
    reg = _STATE.registry
    reg.counter("kernels.calls", backend=backend, kernel=kernel).inc(calls)
    reg.counter("kernels.seconds", backend=backend, kernel=kernel,
                ).inc(seconds)


def reset() -> None:
    """Full teardown: disable, drop spans and metrics (test isolation)."""
    with _LOCK:
        _STATE.enabled = False
        if _STATE.tracer is not None:
            _STATE.tracer.close()
        _STATE.tracer = None
        _STATE.registry.clear()


def shipping(fn: Callable) -> Callable:
    """Wrap pool task *fn* so a worker ships its trace back with it.

    The wrapped task runs *fn* in the worker under an in-memory tracer
    on this process's epoch and a fresh registry, and returns
    ``(result, span events, counter rows)``; the parent hands that to
    :func:`adopt`.  Call only while :func:`enabled`.
    """
    return functools.partial(_run_shipped, fn, _STATE.tracer.epoch)


def _run_shipped(fn: Callable, epoch: float, payload):
    tracer = Tracer(epoch=epoch)
    tracer.events = []
    registry = MetricsRegistry()
    _STATE.tracer, _STATE.registry, _STATE.enabled = tracer, registry, True
    try:
        result = fn(payload)
    finally:
        _STATE.enabled = False
        _STATE.tracer = None
    counters = [row for row in registry.to_dict()
                if row["kind"] == "counter"]
    return result, tracer.events, counters


def adopt(shipped):
    """Parent side of :func:`shipping`: file a worker task's trace.

    The spans go under the span open on this thread; the counters are
    added into this process's registry.  Returns the task's result.
    """
    result, events, counters = shipped
    if _STATE.tracer is not None:
        _STATE.tracer.graft(events)
    _STATE.registry.add_counters(counters)
    return result


def _abandon_in_child() -> None:
    """``after_in_child`` hook: a forked child runs untraced.

    It abandons the inherited trace file handle unflushed, so it never
    writes the parent's file; pool workers trace through
    :func:`shipping` instead.  Locks are replaced, not taken: any
    inherited lock may have been mid-acquire at fork.
    """
    global _LOCK
    _LOCK = threading.Lock()
    if _STATE.tracer is not None:
        _STATE.tracer.abandon()
    _STATE.enabled = False
    _STATE.tracer = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_abandon_in_child)
