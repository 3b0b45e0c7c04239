"""Cross-process telemetry tests: pool workers ship their spans and
counters back into the parent's one trace file, trace diffing, and the
serial-vs-parallel structural identity of a traced exploration (span
forests and counters match, journals stay bit-identical)."""

import json
import multiprocessing
import os

import pytest

from repro import obs
from repro.cli import main
from repro.explore import SearchSpace, run_exploration
from repro.explore.executor import pool_map
from repro.obs.stats import (
    diff_traces,
    format_trace_diff,
    load_trace,
    span_paths,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker-pool tests fork")


@pytest.fixture(autouse=True)
def obs_isolation():
    """Every test starts and ends with obs disabled and empty."""
    obs.reset()
    yield
    obs.reset()


def _task(index):
    """A pool task: two nested spans and one kernel dispatch."""
    with obs.span("task.outer", index=index):
        with obs.span("task.inner"):
            if obs.enabled():
                obs.record_kernel("fast", "dense", 0.25)
    return index, (index * 10, os.getpid())


def _traced_pool_map(trace):
    obs.enable(trace_path=trace)
    with obs.span("parent.map"):
        values = pool_map(_task, list(range(4)), 2)
    obs.disable()
    return values, load_trace(trace)


def _metric_rows(trace):
    return {(row["name"], tuple(sorted(row["labels"].items()))): row
            for row in trace.metrics}


# ----------------------------------------------------------------------
# worker spans and counters shipped through pool_map
# ----------------------------------------------------------------------
class TestWorkerSpans:
    def test_grafts_under_open_span(self, tmp_path):
        _, trace = _traced_pool_map(str(tmp_path / "t.jsonl"))
        assert [root.name for root in trace.roots] == ["parent.map"]
        tasks = trace.roots[0].children
        assert sorted(node.event["args"]["index"] for node in tasks) == \
            [0, 1, 2, 3]
        assert all([child.name for child in node.children]
                   == ["task.inner"] for node in tasks)

    def test_span_ids_unique(self, tmp_path):
        _, trace = _traced_pool_map(str(tmp_path / "t.jsonl"))
        ids = [event["id"] for event in trace.events]
        assert len(ids) == len(set(ids)) == 9
        assert {event["parent"] for event in trace.events} <= \
            set(ids) | {None}

    def test_worker_pid_kept_on_parent_epoch(self, tmp_path):
        values, trace = _traced_pool_map(str(tmp_path / "t.jsonl"))
        parent_pid = trace.meta["pid"]
        workers = [event for event in trace.events
                   if event["name"] == "task.outer"]
        assert {event["pid"] for event in workers} == \
            {pid for _, pid in values}
        assert parent_pid not in {event["pid"] for event in workers}
        # worker timestamps land inside the parent span's interval
        root = trace.roots[0].event
        for event in workers:
            assert root["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= root["ts"] + root["dur"]

    def test_counters_summed_into_registry_and_closing_line(self, tmp_path):
        _, trace = _traced_pool_map(str(tmp_path / "t.jsonl"))
        calls = obs.registry().counter("kernels.calls", backend="fast",
                                       kernel="dense")
        assert calls.value == 4
        rows = _metric_rows(trace)
        assert len(rows) == len(trace.metrics)      # one row per key
        key = (("backend", "fast"), ("kernel", "dense"))
        assert rows[("kernels.calls", key)]["value"] == 4
        assert rows[("kernels.seconds", key)]["value"] == 1.0

    def test_forked_child_never_writes_parent_trace(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        obs.enable(trace_path=trace)
        with obs.span("parent.root"):
            process = multiprocessing.get_context("fork").Process(
                target=_child_body)
            process.start()
            process.join(timeout=30)
        obs.disable()
        assert process.exitcode == 0
        loaded = load_trace(trace)
        assert [root.name for root in loaded.roots] == ["parent.root"]
        assert {event["pid"] for event in loaded.events} == \
            {loaded.meta["pid"]}

    def test_untraced_pool_map_returns_values_untouched(self, tmp_path):
        plain = pool_map(_task, list(range(4)), 2)
        assert [value for value, _ in plain] == [0, 10, 20, 30]
        assert obs.registry().to_dict() == []
        traced, _ = _traced_pool_map(str(tmp_path / "t.jsonl"))
        assert [value for value, _ in traced] == [0, 10, 20, 30]


def _child_body():
    # a forked non-pool child runs untraced: its spans are no-ops
    if obs.enabled():
        os._exit(3)
    with obs.span("child.outer"):
        pass


@pytest.mark.slow
def test_traced_run_jobs_ships_pipeline_spans(tmp_path):
    """``repro run A B --jobs 2 --trace``: the second pool_map caller."""
    paths = []
    for seed in (0, 1):
        path = tmp_path / f"cfg{seed}.json"
        path.write_text(json.dumps({
            "app": "face", "designs": ["asm1"], "budget": TINY,
            "stages": ["train", "constrain", "evaluate"], "seed": seed}))
        paths.append(str(path))
    trace_path = str(tmp_path / "t.jsonl")
    assert main(["run", *paths, "--jobs", "2", "--trace", trace_path,
                 "--cache-dir", str(tmp_path / "cache"), "--quiet"]) == 0
    trace = load_trace(trace_path)
    runs = [event for event in trace.events
            if event["name"] == "pipeline.run"]
    assert len(runs) == 2
    assert len({event["pid"] for event in runs}) == 2
    assert trace.meta["pid"] not in {event["pid"] for event in runs}
    misses = [row for row in trace.metrics
              if row["name"] == "pipeline.cache.misses"]
    assert {row["labels"]["stage"] for row in misses} >= \
        {"train", "constrain", "evaluate"}
    assert [name for name in os.listdir(tmp_path)
            if name.startswith("t.jsonl")] == ["t.jsonl"]


# ----------------------------------------------------------------------
# trace diffing
# ----------------------------------------------------------------------
def _write_trace(path, spans, metrics=()):
    """Hand-author a minimal repro-trace/1 file for diff tests."""
    with open(path, "w") as handle:
        handle.write(json.dumps({
            "type": "meta", "format": obs.TRACE_FORMAT,
            "repro_version": "test", "pid": 1, "created_unix": 0}) + "\n")
        for index, (name, parent, dur_us) in enumerate(spans, start=1):
            handle.write(json.dumps({
                "type": "span",
                "name": name, "ph": "X", "id": index, "parent": parent,
                "ts": index, "dur": dur_us, "pid": 1, "tid": 1,
                "cpu_ms": dur_us / 1e3, "rss_peak_kb": 1000,
                "rss_grew_kb": 0, "error": None, "args": {}}) + "\n")
        handle.write(json.dumps({"type": "metrics",
                                 "metrics": list(metrics)}) + "\n")
    return path


class TestDiff:
    def test_aligns_by_span_path_and_flags_significant(self, tmp_path):
        a = load_trace(_write_trace(
            str(tmp_path / "a.jsonl"),
            [("root", None, 100_000), ("step", 1, 50_000)]))
        b = load_trace(_write_trace(
            str(tmp_path / "b.jsonl"),
            [("root", None, 100_000), ("step", 1, 80_000)]))
        diff = diff_traces(a, b, threshold_pct=5.0)
        rows = {row.path: row for row in diff.significant()}
        assert "root/step" in rows
        assert rows["root/step"].wall_pct == pytest.approx(60.0)
        assert "root" not in rows          # unchanged

    def test_appeared_and_disappeared_paths_are_significant(self, tmp_path):
        a = load_trace(_write_trace(str(tmp_path / "a.jsonl"),
                                    [("root", None, 1000),
                                     ("gone", 1, 1000)]))
        b = load_trace(_write_trace(str(tmp_path / "b.jsonl"),
                                    [("root", None, 1000),
                                     ("new", 1, 1000)]))
        paths = {row.path for row in diff_traces(a, b).significant()}
        assert paths == {"root/gone", "root/new"}

    def test_metric_deltas(self, tmp_path):
        row_a = {"name": "kernels.calls", "kind": "counter",
                 "labels": {"backend": "fast"}, "value": 10}
        row_b = dict(row_a, value=14)
        a = load_trace(_write_trace(str(tmp_path / "a.jsonl"),
                                    [("root", None, 1000)], [row_a]))
        b = load_trace(_write_trace(str(tmp_path / "b.jsonl"),
                                    [("root", None, 1000)], [row_b]))
        diff = diff_traces(a, b)
        deltas = {(d.name, d.labels): d.delta for d in diff.metrics}
        assert deltas[("kernels.calls", "backend=fast")] == 4

    def test_format_trace_diff_renders(self, tmp_path):
        a = load_trace(_write_trace(str(tmp_path / "a.jsonl"),
                                    [("root", None, 100_000)]))
        b = load_trace(_write_trace(str(tmp_path / "b.jsonl"),
                                    [("root", None, 200_000)]))
        text = format_trace_diff(diff_traces(a, b))
        assert "root" in text
        assert "+100.0%" in text

    def test_span_paths_counts_repeats(self, tmp_path):
        trace = load_trace(_write_trace(
            str(tmp_path / "a.jsonl"),
            [("root", None, 1000), ("step", 1, 400), ("step", 1, 600)]))
        stats = span_paths(trace)
        assert stats["root/step"].count == 2
        assert stats["root/step"].wall_ms == pytest.approx(1.0)


TINY = {"name": "tiny", "n_train": 250, "n_test": 120,
        "max_epochs": 3, "retrain_epochs": 2}


# ----------------------------------------------------------------------
# traced exploration: serial == parallel, journals stay bit-identical
# ----------------------------------------------------------------------
def _tiny_space():
    return SearchSpace(app="face", designs=("conventional", "asm1"),
                       budgets=(TINY,), seeds=(0, 1))


def _normalize(node):
    """Structure key: names + parentage + candidate identity, no timing.

    Children are sorted (parallel completion order is nondeterministic)
    and only the identity attributes of candidate spans are kept (other
    spans' args legitimately differ between jobs=1 and jobs=N, e.g. the
    ``jobs`` attribute of ``explore.map``).
    """
    args = node.event.get("args", {})
    identity = tuple(sorted(
        (k, v) for k, v in args.items()
        if node.name == "explore.candidate"
        and k in ("design", "seed", "digest")))
    return (node.name, identity,
            tuple(sorted(_normalize(child) for child in node.children)))


def _journal_bytes(journal_dir):
    records = os.path.join(journal_dir, "records")
    return {name: open(os.path.join(records, name), "rb").read()
            for name in sorted(os.listdir(records))}


@pytest.mark.slow
def test_traced_parallel_explore_matches_serial(tmp_path):
    cache = str(tmp_path / "cache")
    space = _tiny_space()

    # untraced first: its journal is the bit-identity reference and it
    # warms the shared stage cache, so both traced runs see the same
    # cache state (cold vs. warm runs legitimately differ in span
    # structure — a cold stage has train.epoch children, a warm one not)
    untraced_dir = str(tmp_path / "untraced")
    run_exploration(space, untraced_dir, cache_dir=cache, jobs=4)

    serial_dir = str(tmp_path / "serial")
    serial_trace = str(tmp_path / "serial.jsonl")
    obs.enable(trace_path=serial_trace)
    run_exploration(space, serial_dir, cache_dir=cache, jobs=1)
    obs.disable()
    obs.reset()

    parallel_dir = str(tmp_path / "parallel")
    parallel_trace = str(tmp_path / "parallel.jsonl")
    obs.enable(trace_path=parallel_trace)
    run_exploration(space, parallel_dir, cache_dir=cache, jobs=4)
    obs.disable()
    obs.reset()

    # one file per run, with candidate spans from the workers
    assert sorted(name for name in os.listdir(tmp_path)
                  if name.endswith(".jsonl")) == ["parallel.jsonl",
                                                  "serial.jsonl"]
    serial = load_trace(serial_trace)
    parallel = load_trace(parallel_trace)
    worker_candidates = [event for event in parallel.events
                         if event["name"] == "explore.candidate"]
    assert len(worker_candidates) == len(space.grid())
    assert all(event["pid"] != parallel.meta["pid"]
               for event in worker_candidates)

    # span forests are structurally identical
    assert sorted(_normalize(root) for root in serial.roots) == \
        sorted(_normalize(root) for root in parallel.roots)

    # the same metric rows; only the pool gauges and timings differ
    serial_rows = _metric_rows(serial)
    parallel_rows = _metric_rows(parallel)
    assert serial_rows.keys() == parallel_rows.keys()
    for key, row in serial_rows.items():
        if row["kind"] == "histogram":
            assert parallel_rows[key]["count"] == row["count"], key
        elif key[0] not in ("explore.workers",
                            "explore.worker_utilization"):
            assert parallel_rows[key] == row, key

    # journals are bit-identical: serial vs parallel vs untraced
    assert _journal_bytes(serial_dir) == _journal_bytes(parallel_dir)
    assert _journal_bytes(serial_dir) == _journal_bytes(untraced_dir)
