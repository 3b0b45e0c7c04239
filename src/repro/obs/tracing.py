"""Nestable tracing spans: wall time, CPU time, peak RSS, span trees.

A span measures one named region of work::

    with obs.span("stage.train", app="mnist_mlp") as sp:
        ...
        sp.set(epochs=history.epochs_run)

Spans nest through a per-thread stack, so a traced pipeline run yields a
tree — ``pipeline.run`` > ``stage.constrain`` > ``constrain.asm2`` >
``train.epoch`` — each node carrying wall milliseconds, process CPU
milliseconds, the peak RSS observed at exit and how much it grew during
the span.  Exceptions are recorded (the span notes the exception type)
and re-raised; the stack always unwinds.

When tracing is enabled (:func:`repro.obs.enable`) finished spans are
kept in an in-memory forest (bounded, see ``MAX_KEPT_SPANS``) and, when
a trace path was given, appended to a JSONL file — one JSON object per
line, schema ``repro-trace/1``:

* first line: ``{"type": "meta", "format": "repro-trace/1", ...}``
* one ``{"type": "span", ...}`` line per finished span, carrying the
  Chrome trace-event keys (``name``/``ph``/``ts``/``dur``/``pid``/
  ``tid``/``args``) plus ``id``/``parent``/``cpu_ms``/``rss_peak_kb``;
* a final ``{"type": "metrics", ...}`` snapshot written by
  :func:`repro.obs.disable`.

``repro stats trace.jsonl`` renders the tree; ``repro stats --chrome
out.json`` converts the span lines into the Chrome trace-event JSON
array that ``chrome://tracing`` / Perfetto load directly (see
``docs/observability.md``).

Fork safety: a forked child (a worker pool under the ``fork`` start
method) must not write to the parent's inherited file handle, so an
``os.register_at_fork`` hook in :mod:`repro.obs` abandons it unflushed
(:meth:`Tracer.abandon`) and disables tracing in the child.  A traced
pool worker instead records each task into an in-memory tracer on the
parent's epoch (``events``) and returns the span events with its
result; the parent files them under its open span with
:meth:`Tracer.graft`, so one file holds the whole run.
"""

from __future__ import annotations

import json
import os
import threading
import time

try:                                   # POSIX; absent on some platforms
    import resource
except ImportError:                    # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

__all__ = ["TRACE_FORMAT", "MAX_KEPT_SPANS", "Span", "Tracer"]

#: Inherited-across-fork file objects a child abandoned.  Kept alive on
#: purpose: letting the garbage collector close them would flush any
#: parent bytes still sitting in the inherited userspace buffer into the
#: parent's file — from the wrong process.
_ABANDONED_FILES: list = []

#: Schema tag of the first line of every trace file.
TRACE_FORMAT = "repro-trace/1"

#: Upper bound on finished spans kept in memory (a runaway-loop guard;
#: the JSONL file keeps everything).
MAX_KEPT_SPANS = 100_000


# ru_maxrss is KiB on Linux but bytes on macOS
_RSS_DIVISOR = 1024.0 if (hasattr(os, "uname")
                          and os.uname().sysname == "Darwin") else 1.0


def _peak_rss_kb() -> float:
    """Peak RSS of this process in KiB (0.0 where unsupported)."""
    if resource is None:
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / _RSS_DIVISOR


class Span:
    """One timed region; also its own context manager.

    Only the owning :class:`Tracer` creates these (via
    :func:`repro.obs.span`).  Attributes are filled at ``__exit__``;
    ``children`` makes the finished spans a tree.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "thread_id",
                 "wall_ms", "cpu_ms", "rss_peak_kb", "rss_grew_kb",
                 "error", "children", "_tracer", "_t0", "_cpu0", "_rss0",
                 "_ts_us")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id: int = 0
        self.parent_id: int | None = None
        self.thread_id: int = 0
        self.wall_ms: float = 0.0
        self.cpu_ms: float = 0.0
        self.rss_peak_kb: float = 0.0
        self.rss_grew_kb: float = 0.0
        self.error: str | None = None
        self.children: list[Span] = []
        self._tracer = tracer

    # ------------------------------------------------------------------
    def set(self, **attrs) -> "Span":
        """Attach result attributes discovered while the span runs."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer.next_id()
        self.thread_id = threading.get_ident()
        stack = tracer.stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._ts_us = (time.perf_counter() - tracer.epoch) * 1e6
        self._rss0 = _peak_rss_kb()
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_ms = (time.perf_counter() - self._t0) * 1e3
        self.cpu_ms = (time.process_time() - self._cpu0) * 1e3
        self.rss_peak_kb = _peak_rss_kb()
        self.rss_grew_kb = self.rss_peak_kb - self._rss0
        if exc_type is not None:
            self.error = exc_type.__name__
        tracer = self._tracer
        stack = tracer.stack()
        # unwind to (and past) this span even if an inner span leaked
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        parent = stack[-1] if stack else None
        tracer.finish(self, parent)
        return False                            # never swallow

    # ------------------------------------------------------------------
    def to_event(self, pid: int) -> dict:
        """This span as one trace-file line (Chrome keys + extras)."""
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "ph": "X",
            "ts": round(self._ts_us, 1),
            "dur": round(self.wall_ms * 1e3, 1),
            "pid": pid,
            "tid": self.thread_id,
            "cpu_ms": round(self.cpu_ms, 3),
            "rss_peak_kb": round(self.rss_peak_kb, 1),
            "rss_grew_kb": round(self.rss_grew_kb, 1),
            "error": self.error,
            "args": dict(self.attrs),
        }


class _NullSpan:
    """The disabled path: one shared, do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Owns the span forest, the id counter and the trace file."""

    def __init__(self, trace_path: str | None = None,
                 epoch: float | None = None) -> None:
        # a pool worker's tracer shares its parent's epoch: perf_counter
        # is system-wide, so both land on one timeline
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.pid = os.getpid()
        self.roots: list[Span] = []
        self.dropped = 0
        self._kept = 0
        self._ids = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._file = None
        self._file_lock = threading.Lock()
        #: finished span events, kept when set to a list (pool workers)
        self.events: list[dict] | None = None
        self.path = trace_path
        if trace_path is not None:
            directory = os.path.dirname(os.path.abspath(trace_path))
            os.makedirs(directory, exist_ok=True)
            # line buffered: every span line hits the OS as it is written,
            # so a killed run keeps its finished spans and a fork never
            # inherits a half-filled userspace buffer (see Tracer.abandon)
            self._file = open(trace_path, "w", buffering=1)
            self._write_line(self.meta_line())

    # ------------------------------------------------------------------
    def meta_line(self) -> dict:
        from repro import __version__
        return {"type": "meta", "format": TRACE_FORMAT,
                "repro_version": __version__, "pid": self.pid,
                "created_unix": time.time()}

    def next_id(self) -> int:
        with self._id_lock:
            self._ids += 1
            return self._ids

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, attrs: dict) -> Span:
        return Span(self, name, attrs)

    # ------------------------------------------------------------------
    def finish(self, span: Span, parent: Span | None) -> None:
        """File a finished span into the forest and the trace file."""
        if self._kept < MAX_KEPT_SPANS:
            self._kept += 1
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        else:
            self.dropped += 1
        if self._file is not None or self.events is not None:
            self._emit(span.to_event(self.pid))

    def graft(self, events: list[dict]) -> None:
        """File span events a pool worker shipped back.

        Ids are renumbered from this tracer's counter, and the worker's
        root spans hang under the span open on the calling thread.
        ``pid``, ``tid`` and ``ts`` stay as the worker recorded them.
        Grafted spans go to the trace file, not the in-memory forest.
        """
        stack = self.stack()
        under = stack[-1].span_id if stack else None
        ids = {event["id"]: self.next_id() for event in events}
        for event in events:
            self._emit(dict(event, id=ids[event["id"]],
                            parent=ids.get(event["parent"], under)))

    def _emit(self, event: dict) -> None:
        if self.events is not None:
            self.events.append(event)
        if self._file is not None:
            self._write_line(event)

    def _write_line(self, payload: dict) -> None:
        with self._file_lock:
            if self._file is None:          # closed concurrently
                return
            self._file.write(json.dumps(payload) + "\n")

    def write_metrics(self, rows: list[dict], dropped: int = 0) -> None:
        """Append the closing metrics snapshot line.

        *dropped* > 0 stamps how many finished spans the in-memory
        forest refused past :data:`MAX_KEPT_SPANS` — the cap must never
        be silent (the JSONL file itself keeps every span regardless).
        """
        if self._file is not None:
            payload: dict = {"type": "metrics", "metrics": rows}
            if dropped:
                payload["dropped"] = dropped
            self._write_line(payload)

    def close(self) -> None:
        with self._file_lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def abandon(self) -> None:
        """Forget an inherited file handle without flushing or closing.

        Called in a freshly forked child on the tracer it inherited: the
        handle (and any buffered parent bytes in it) belongs to the
        parent process, so the child must neither write, flush nor close
        it — it is parked in :data:`_ABANDONED_FILES` so garbage
        collection cannot flush it either.  The child is single-threaded
        at this point, so the (possibly mid-write-locked) inherited
        ``_file_lock`` is deliberately not taken.
        """
        file = self._file
        self._file = None
        if file is not None:
            _ABANDONED_FILES.append(file)
