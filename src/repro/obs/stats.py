"""Read back ``repro-trace/1`` files: span trees, metrics, Chrome, diffs.

``repro stats out.jsonl`` is a thin CLI over this module:

* :func:`load_trace` parses a trace JSONL file into a :class:`TraceFile`
  (meta header, span-event forest, final metrics snapshot);
* :func:`format_span_tree` renders the forest as an indented table of
  wall / CPU / RSS per span;
* :func:`format_metric_table` renders the metrics snapshot;
* :func:`write_chrome_trace` converts the span lines into the Chrome
  trace-event JSON **array** format that ``chrome://tracing`` and
  Perfetto load directly;
* :func:`diff_traces` / :func:`format_trace_diff` align two traces by
  span *path* and report wall/CPU/RSS and metric deltas past a
  significance threshold (``repro stats --diff A.jsonl B.jsonl`` —
  "did PR N slow the energy stage?" as one command).

The line schema is documented in :mod:`repro.obs.tracing` and
``docs/observability.md``; :func:`load_trace` validates it and raises
:class:`TraceError` with the offending line number on any violation,
hostile bytes included.  A ``--jobs N`` run is one file: pool workers
ship their spans back to the parent, which files them under its open
span (:func:`repro.obs.adopt`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.tracing import TRACE_FORMAT

__all__ = ["TraceError", "TraceFile", "load_trace",
           "format_span_tree", "format_metric_table", "write_chrome_trace",
           "span_paths", "diff_traces", "format_trace_diff"]

_NUMBER = (int, float)

#: Keys every span line must carry (the documented schema), and types.
SPAN_KEYS = {"name": str, "id": int, "parent": (int, type(None)),
             "ph": str, "ts": _NUMBER, "dur": _NUMBER, "pid": int,
             "tid": int, "cpu_ms": _NUMBER, "rss_peak_kb": _NUMBER,
             "args": dict}

#: Value keys of a metrics-snapshot row, by metric kind.
METRIC_VALUE_KEYS = {"counter": ("value",), "gauge": ("value",),
                     "histogram": ("count", "mean", "p50", "p95", "p99")}


class TraceError(ValueError):
    """A trace file does not match the ``repro-trace/1`` schema."""


@dataclass
class SpanNode:
    """One span event, re-linked into a tree."""

    event: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.event["name"]

    @property
    def wall_ms(self) -> float:
        return self.event["dur"] / 1e3

    @property
    def cpu_ms(self) -> float:
        return self.event["cpu_ms"]


@dataclass
class TraceFile:
    """A fully parsed trace: header, span forest, metrics snapshot."""

    meta: dict
    roots: list[SpanNode]
    events: list[dict]              # span events in file order
    metrics: list[dict]             # rows of the final metrics snapshot
    dropped: int = 0                # spans the in-memory forest refused

    def span_names(self) -> set[str]:
        return {event["name"] for event in self.events}


def load_trace(path: str) -> TraceFile:
    """Parse and validate one ``repro-trace/1`` JSONL file."""
    meta: dict | None = None
    events: list[dict] = []
    metrics: list[dict] = []
    dropped = 0
    ids: set[int] = set()
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as error:
                raise TraceError(
                    f"{where}: not valid UTF-8 JSON: {error}") from None
            if not isinstance(payload, dict):
                raise TraceError(f"{where}: a line must be a JSON object, "
                                 f"got {type(payload).__name__}")
            kind = payload.get("type")
            if lineno == 1:
                if kind != "meta" or payload.get("format") != TRACE_FORMAT:
                    raise TraceError(
                        f"{path}:1: expected a {TRACE_FORMAT!r} meta line, "
                        f"got {raw[:80]!r}")
                meta = payload
            elif kind == "span":
                _check_span(payload, ids, where)
                events.append(payload)
            elif kind == "metrics":
                metrics = _check_metrics(payload.get("metrics", []), where)
                dropped = payload.get("dropped", 0)
                if not isinstance(dropped, int):
                    raise TraceError(f"{where}: 'dropped' must be an int")
            else:
                raise TraceError(
                    f"{where}: unknown line type {kind!r}")
    if meta is None:
        raise TraceError(f"{path}: empty trace file")
    return TraceFile(meta=meta, roots=_link(events), events=events,
                     metrics=metrics, dropped=dropped)


def _check_span(event: dict, ids: set[int], where: str) -> None:
    missing = [key for key in SPAN_KEYS if key not in event]
    if missing:
        raise TraceError(f"{where}: span line missing {missing}")
    for key, kind in SPAN_KEYS.items():
        if not isinstance(event[key], kind):
            raise TraceError(f"{where}: span {key!r} has the wrong type "
                             f"({type(event[key]).__name__})")
    if event["id"] in ids:
        raise TraceError(f"{where}: duplicate span id {event['id']}")
    ids.add(event["id"])


def _check_metrics(rows, where: str) -> list[dict]:
    if not isinstance(rows, list):
        raise TraceError(f"{where}: 'metrics' must be a list of rows")
    for row in rows:
        kind = row.get("kind") if isinstance(row, dict) else None
        if not (isinstance(kind, str) and kind in METRIC_VALUE_KEYS
                and isinstance(row.get("name"), str)
                and isinstance(row.get("labels"), dict)
                and all(isinstance(row.get(key), _NUMBER)
                        for key in METRIC_VALUE_KEYS[kind])):
            raise TraceError(f"{where}: malformed metrics row "
                             f"{str(row)[:80]!r}")
    return rows


def _link(events: list[dict]) -> list[SpanNode]:
    """Rebuild the span forest from ``id``/``parent`` references."""
    nodes = {event["id"]: SpanNode(event) for event in events}
    roots: list[SpanNode] = []
    for event in events:               # file order = finish order
        node = nodes[event["id"]]
        parent = nodes.get(event["parent"])
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():        # children run (and finish) first
        node.children.sort(key=lambda child: child.event["ts"])
    roots.sort(key=lambda root: root.event["ts"])
    return roots


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _attr_text(args: dict) -> str:
    if not args:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in args.items())
    return f"  [{inner}]"


def format_span_tree(trace: TraceFile, max_depth: int | None = None) -> str:
    """Indented per-span table: wall ms, CPU ms, peak RSS, attributes."""
    lines = [f"{'span':<44} {'wall_ms':>10} {'cpu_ms':>10} "
             f"{'rss_peak_mb':>12}",
             "-" * 78]

    def walk(node: SpanNode, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        event = node.event
        label = "  " * depth + event["name"]
        if event.get("error"):
            label += f" !{event['error']}"
        lines.append(
            f"{label:<44} {event['dur'] / 1e3:>10.2f} "
            f"{event['cpu_ms']:>10.2f} "
            f"{event['rss_peak_kb'] / 1024:>12.1f}"
            f"{_attr_text(event.get('args', {}))}")
        for child in node.children:
            walk(child, depth + 1)

    for root in trace.roots:
        walk(root, 0)
    if len(lines) == 2:
        lines.append("(no spans)")
    return "\n".join(lines)


def format_metric_table(trace: TraceFile) -> str:
    """The final metrics snapshot as an aligned name/labels/value table."""
    if not trace.metrics:
        return "(no metrics snapshot in trace)"
    lines = [f"{'metric':<34} {'labels':<34} {'value':>14}", "-" * 84]
    for row in trace.metrics:
        labels = ",".join(f"{key}={value}"
                          for key, value in sorted(row["labels"].items()))
        if row["kind"] == "histogram":
            value = (f"n={row['count']} mean={row['mean']:.4g} "
                     f"p50={row['p50']:.4g} p95={row['p95']:.4g} "
                     f"p99={row['p99']:.4g}")
            lines.append(f"{row['name']:<34} {labels:<34} {value}")
        else:
            lines.append(f"{row['name']:<34} {labels:<34} "
                         f"{row['value']:>14.6g}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace diffing (repro stats --diff A.jsonl B.jsonl)
# ----------------------------------------------------------------------
@dataclass
class PathStats:
    """Aggregated cost of every span sharing one root-to-node path."""

    count: int = 0
    wall_ms: float = 0.0
    cpu_ms: float = 0.0
    rss_peak_kb: float = 0.0        # max, not sum: RSS is a level

    def add(self, event: dict) -> None:
        self.count += 1
        self.wall_ms += event["dur"] / 1e3
        self.cpu_ms += event["cpu_ms"]
        self.rss_peak_kb = max(self.rss_peak_kb, event["rss_peak_kb"])


def span_paths(trace: TraceFile) -> dict[str, PathStats]:
    """Aggregate the forest by span *path* (``a.b/c.d/...`` from root).

    Spans with the same path — every ``train.epoch`` under the same
    stage, every worker's ``explore.candidate`` under ``explore.map`` —
    fold into one row, which is what makes two runs of the same workload
    alignable even when counts and interleavings differ.
    """
    paths: dict[str, PathStats] = {}

    def walk(node: SpanNode, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        paths.setdefault(path, PathStats()).add(node.event)
        for child in node.children:
            walk(child, path)

    for root in trace.roots:
        walk(root, "")
    return paths


@dataclass
class DiffRow:
    """One aligned span path (or metric) across the two traces."""

    path: str
    a: PathStats
    b: PathStats

    @property
    def wall_delta_ms(self) -> float:
        return self.b.wall_ms - self.a.wall_ms

    @property
    def wall_pct(self) -> float | None:
        """Relative wall change vs. A (None when A has no such span)."""
        if self.a.count == 0 or self.a.wall_ms == 0.0:
            return None
        return 100.0 * self.wall_delta_ms / self.a.wall_ms


@dataclass
class MetricDelta:
    name: str
    labels: str
    value_a: float | None
    value_b: float | None

    @property
    def delta(self) -> float:
        return (self.value_b or 0.0) - (self.value_a or 0.0)


@dataclass
class TraceDiff:
    """The full alignment; ``significant`` applies the threshold."""

    rows: list[DiffRow]             # every aligned span path
    metrics: list[MetricDelta]      # counter/gauge deltas (nonzero only)
    threshold_pct: float

    def significant(self) -> list[DiffRow]:
        picked = []
        for row in self.rows:
            if row.a.count == 0 or row.b.count == 0:
                picked.append(row)          # appeared / disappeared
            elif row.wall_pct is not None \
                    and abs(row.wall_pct) >= self.threshold_pct:
                picked.append(row)
        return picked


def diff_traces(a: TraceFile, b: TraceFile,
                threshold_pct: float = 5.0) -> TraceDiff:
    """Align *a* and *b* by span path; collect wall and metric deltas."""
    paths_a = span_paths(a)
    paths_b = span_paths(b)
    rows = [DiffRow(path, paths_a.get(path, PathStats()),
                    paths_b.get(path, PathStats()))
            for path in sorted(set(paths_a) | set(paths_b))]

    def scalar_values(trace: TraceFile) -> dict:
        values = {}
        for row in trace.metrics:
            key = (row["name"],
                   ",".join(f"{k}={v}"
                            for k, v in sorted(row["labels"].items())))
            if row["kind"] == "histogram":
                values[key] = row["count"]
            else:
                values[key] = row["value"]
        return values

    metrics_a = scalar_values(a)
    metrics_b = scalar_values(b)
    deltas = []
    for name, labels in sorted(set(metrics_a) | set(metrics_b)):
        delta = MetricDelta(name, labels,
                            metrics_a.get((name, labels)),
                            metrics_b.get((name, labels)))
        if delta.delta != 0.0 or delta.value_a is None \
                or delta.value_b is None:
            deltas.append(delta)
    return TraceDiff(rows=rows, metrics=deltas,
                     threshold_pct=threshold_pct)


def format_trace_diff(diff: TraceDiff) -> str:
    """Render the significant rows of a :class:`TraceDiff` as a table."""
    lines = [f"{'span path':<52} {'wall_a_ms':>10} {'wall_b_ms':>10} "
             f"{'delta_ms':>10} {'delta%':>8}",
             "-" * 94]
    for row in diff.significant():
        if row.a.count == 0:
            pct = "new"
        elif row.b.count == 0:
            pct = "gone"
        else:
            pct = f"{row.wall_pct:+.1f}%"
        label = row.path if len(row.path) <= 52 else "…" + row.path[-51:]
        lines.append(f"{label:<52} {row.a.wall_ms:>10.2f} "
                     f"{row.b.wall_ms:>10.2f} {row.wall_delta_ms:>+10.2f} "
                     f"{pct:>8}")
    if len(lines) == 2:
        lines.append(f"(no span path moved by >= {diff.threshold_pct:g}%)")
    lines.append("")
    lines.append(f"{len(diff.rows)} span paths aligned, "
                 f"{len(diff.significant())} past the "
                 f"{diff.threshold_pct:g}% threshold")
    if diff.metrics:
        lines.append("")
        lines.append(f"{'metric':<38} {'labels':<26} {'a':>10} {'b':>10} "
                     f"{'delta':>10}")
        lines.append("-" * 98)
        for delta in diff.metrics:
            a_txt = "-" if delta.value_a is None else f"{delta.value_a:g}"
            b_txt = "-" if delta.value_b is None else f"{delta.value_b:g}"
            lines.append(f"{delta.name:<38} {delta.labels:<26} "
                         f"{a_txt:>10} {b_txt:>10} {delta.delta:>+10g}")
    return "\n".join(lines)


def write_chrome_trace(trace: TraceFile, out_path: str) -> str:
    """Write the span events as a Chrome trace-event JSON array.

    The output opens directly in ``chrome://tracing`` / Perfetto: each
    span becomes a complete ("ph": "X") event; the extra repro keys ride
    along inside ``args`` where the viewers display them.
    """
    chrome_events = []
    for event in trace.events:
        args = dict(event.get("args", {}))
        args.update({"cpu_ms": event["cpu_ms"],
                     "rss_peak_kb": event["rss_peak_kb"]})
        if event.get("error"):
            args["error"] = event["error"]
        chrome_events.append({
            "name": event["name"], "ph": "X", "ts": event["ts"],
            "dur": event["dur"], "pid": event["pid"], "tid": event["tid"],
            "cat": "repro", "args": args,
        })
    with open(out_path, "w") as handle:
        json.dump({"traceEvents": chrome_events,
                   "displayTimeUnit": "ms"}, handle)
    return out_path
