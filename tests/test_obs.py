"""Tests for repro.obs: quantiles, metrics registry, Prometheus export,
tracing spans (nesting / exception safety / thread safety), the global
enable/disable switch, trace-file parsing and an end-to-end traced
pipeline run."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import stats as obs_stats
from repro.pipeline import Budget, Pipeline, PipelineConfig

TINY_BUDGET = Budget("tiny", n_train=250, n_test=120, max_epochs=3,
                     retrain_epochs=2)


@pytest.fixture(autouse=True)
def obs_isolation():
    """Every test starts and ends with obs disabled and empty."""
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# quantile
# ----------------------------------------------------------------------
class TestQuantile:
    def test_empty_returns_zero(self):
        assert obs.quantile([], 0.5) == 0.0
        assert obs.quantile([], 0.99) == 0.0

    def test_single_sample_every_q(self):
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert obs.quantile([7.5], q) == 7.5

    def test_ties(self):
        assert obs.quantile([3.0, 3.0, 3.0, 3.0], 0.5) == 3.0
        assert obs.quantile([1.0, 3.0, 3.0, 3.0], 0.25) == pytest.approx(2.5)

    def test_interpolates_between_order_statistics(self):
        # p50 of [1..10] is 5.5, not 5 or 6 (the old nearest-rank bias)
        values = list(range(1, 11))
        assert obs.quantile(values, 0.5) == pytest.approx(5.5)
        assert obs.quantile(values, 0.95) == pytest.approx(9.55)

    def test_matches_numpy_linear_method(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-5.0, 5.0, size=37).tolist()
        for q in (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert obs.quantile(values, q) == pytest.approx(
                float(np.quantile(values, q)))

    def test_unsorted_input(self):
        assert obs.quantile([9.0, 1.0, 5.0], 0.5) == 5.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            obs.quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            obs.quantile([1.0], -0.1)


# ----------------------------------------------------------------------
# metrics primitives and the registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        counter = obs.Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_up_and_down(self):
        gauge = obs.Gauge()
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8.0

    def test_histogram_summary(self):
        histogram = obs.Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["mean"] == 2.5
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == pytest.approx(2.5)

    def test_histogram_empty_summary(self):
        summary = obs.Histogram().summary()
        assert summary == {"count": 0, "sum": 0.0, "mean": 0.0,
                           "min": 0.0, "max": 0.0, "p50": 0.0,
                           "p95": 0.0, "p99": 0.0}

    def test_histogram_window_bounds_memory_keeps_exact_totals(self):
        histogram = obs.Histogram(window=4)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100          # exact forever
        assert histogram.sum == float(sum(range(100)))
        assert histogram.min == 0.0
        assert histogram.max == 99.0
        # quantiles only see the last 4 observations (96..99)
        assert histogram.quantile(0.0) == 96.0

    def test_registry_memoizes_by_name_and_labels(self):
        registry = obs.MetricsRegistry()
        a = registry.counter("x.calls", backend="fast")
        b = registry.counter("x.calls", backend="fast")
        c = registry.counter("x.calls", backend="reference")
        assert a is b
        assert a is not c

    def test_registry_rejects_kind_conflict(self):
        registry = obs.MetricsRegistry()
        registry.counter("y.calls")
        with pytest.raises(ValueError):
            registry.gauge("y.calls")

    def test_to_dict_rows(self):
        registry = obs.MetricsRegistry()
        registry.counter("a.hits", stage="train").inc(2)
        registry.gauge("b.depth").set(5)
        registry.histogram("c.seconds").observe(1.5)
        rows = {row["name"]: row for row in registry.to_dict()}
        assert rows["a.hits"]["value"] == 2.0
        assert rows["a.hits"]["labels"] == {"stage": "train"}
        assert rows["b.depth"]["kind"] == "gauge"
        assert rows["c.seconds"]["count"] == 1

    def test_thread_safety_under_concurrent_recording(self):
        registry = obs.MetricsRegistry()

        def hammer() -> None:
            for i in range(1000):
                registry.counter("t.calls").inc()
                registry.histogram("t.seconds").observe(float(i))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("t.calls").value == 8000.0
        assert registry.histogram("t.seconds").count == 8000


class TestPrometheus:
    def test_name_sanitisation(self):
        assert obs.prometheus_name("kernels.calls") == "kernels_calls"
        assert obs.prometheus_name("9lives") == "_9lives"

    def test_label_value_escaping(self):
        assert obs.escape_label_value('a"b') == 'a\\"b'
        assert obs.escape_label_value("a\\b") == "a\\\\b"
        assert obs.escape_label_value("a\nb") == "a\\nb"

    def test_text_format(self):
        registry = obs.MetricsRegistry()
        registry.counter("esc.calls", backend='we"ird\n').inc(3)
        registry.gauge("queue.depth").set(2)
        registry.histogram("lat.seconds").observe(0.5)
        text = registry.to_prometheus()
        assert text.endswith("\n")
        assert "# TYPE esc_calls counter" in text
        assert 'esc_calls{backend="we\\"ird\\n"} 3' in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 2" in text
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{quantile="0.5"} 0.5' in text
        assert "lat_seconds_count 1" in text
        assert "lat_seconds_sum 0.5" in text

    def test_empty_registry_renders_empty(self):
        assert obs.MetricsRegistry().to_prometheus() == ""

    def test_help_lines_for_documented_vocabulary(self):
        registry = obs.MetricsRegistry()
        registry.counter("kernels.calls", backend="fast",
                         kernel="dense").inc()
        text = registry.to_prometheus()
        assert "# HELP kernels_calls " \
               "Kernel dispatches per backend and kernel\n" \
               "# TYPE kernels_calls counter" in text

    def test_help_precedes_type_and_escapes(self):
        registry = obs.MetricsRegistry()
        registry.describe("local.metric", "line one\nline two \\ done")
        registry.gauge("local.metric").set(1)
        text = registry.to_prometheus()
        assert "# HELP local_metric line one\\nline two \\\\ done\n" \
               "# TYPE local_metric gauge" in text

    def test_undocumented_metric_has_no_help_line(self):
        registry = obs.MetricsRegistry()
        registry.counter("adhoc.thing").inc()
        text = registry.to_prometheus()
        assert "# HELP" not in text
        assert "# TYPE adhoc_thing counter" in text


# ----------------------------------------------------------------------
# spans and the global switch
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        span = obs.span("anything", k=1)
        assert span is obs.span("something.else")
        with span as inner:
            inner.set(ignored=True)
        assert obs.spans() == []

    def test_nesting_builds_tree(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("child.a"):
                with obs.span("grand"):
                    pass
            with obs.span("child.b"):
                pass
        roots = obs.spans()
        assert [root.name for root in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == \
            ["child.a", "child.b"]
        assert roots[0].children[0].children[0].name == "grand"
        assert roots[0].wall_ms >= roots[0].children[0].wall_ms

    def test_exception_recorded_and_reraised(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("boom"):
                    raise RuntimeError("x")
        outer = obs.spans()[0]
        assert outer.error == "RuntimeError"
        assert outer.children[0].error == "RuntimeError"
        # the stack unwound: a new span is a root again
        with obs.span("after"):
            pass
        assert [root.name for root in obs.spans()] == ["outer", "after"]

    def test_set_attaches_attrs(self):
        obs.enable()
        with obs.span("s", a=1) as span:
            span.set(b=2)
        assert obs.spans()[0].attrs == {"a": 1, "b": 2}

    def test_threads_get_independent_stacks(self):
        obs.enable()
        ready = threading.Barrier(2)

        def work(tag: str) -> None:
            ready.wait(timeout=5.0)
            with obs.span(f"root.{tag}"):
                with obs.span(f"leaf.{tag}"):
                    pass

        threads = [threading.Thread(target=work, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = {root.name: root for root in obs.spans()}
        # each thread's leaf nested under its own root, never the other's
        assert set(roots) == {"root.a", "root.b"}
        for tag in ("a", "b"):
            assert [c.name for c in roots[f"root.{tag}"].children] == \
                [f"leaf.{tag}"]

    def test_record_kernel_counters(self):
        obs.record_kernel("fast", "dense", 0.25, calls=3)
        registry = obs.registry()
        assert registry.counter("kernels.calls", backend="fast",
                                kernel="dense").value == 3.0
        assert registry.counter("kernels.seconds", backend="fast",
                                kernel="dense").value == 0.25

    def test_reset_clears_everything(self):
        obs.enable()
        with obs.span("s"):
            pass
        obs.registry().counter("c").inc()
        obs.reset()
        assert not obs.enabled()
        assert obs.spans() == []
        assert obs.registry().to_dict() == []


# ----------------------------------------------------------------------
# trace files
# ----------------------------------------------------------------------
class TestTraceFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.enable(path)
        with obs.span("outer", app="x"):
            with obs.span("inner"):
                pass
        obs.registry().counter("pipeline.cache.hits", stage="train").inc()
        obs.disable()

        trace = obs_stats.load_trace(path)
        assert trace.meta["format"] == obs.TRACE_FORMAT
        assert trace.span_names() == {"outer", "inner"}
        assert [root.name for root in trace.roots] == ["outer"]
        assert [child.name for child in trace.roots[0].children] == \
            ["inner"]
        assert trace.metrics[0]["name"] == "pipeline.cache.hits"

        rendered = obs_stats.format_span_tree(trace)
        assert "outer" in rendered and "  inner" in rendered
        table = obs_stats.format_metric_table(trace)
        assert "pipeline.cache.hits" in table

    def test_chrome_conversion(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.enable(path)
        with obs.span("s", design="asm2"):
            pass
        obs.disable()
        out = str(tmp_path / "chrome.json")
        obs_stats.write_chrome_trace(obs_stats.load_trace(path), out)
        with open(out) as handle:
            chrome = json.load(handle)
        event = chrome["traceEvents"][0]
        assert event["ph"] == "X"
        assert event["name"] == "s"
        assert event["args"]["design"] == "asm2"
        assert "cpu_ms" in event["args"]

    def test_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n')
        with pytest.raises(obs_stats.TraceError):
            obs_stats.load_trace(str(path))

    def test_rejects_bad_span_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "format": obs.TRACE_FORMAT})
            + "\n" + json.dumps({"type": "span", "name": "s"}) + "\n")
        with pytest.raises(obs_stats.TraceError, match="missing"):
            obs_stats.load_trace(str(path))

    def test_rejects_unknown_line_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "format": obs.TRACE_FORMAT})
            + "\n" + json.dumps({"type": "surprise"}) + "\n")
        with pytest.raises(obs_stats.TraceError, match="unknown"):
            obs_stats.load_trace(str(path))


_META = json.dumps({"type": "meta", "format": obs.TRACE_FORMAT}) + "\n"
_SPAN = {"type": "span", "name": "s", "id": 1, "parent": None, "ph": "X",
         "ts": 0, "dur": 1, "pid": 1, "tid": 1, "cpu_ms": 0,
         "rss_peak_kb": 0, "args": {}}
HOSTILE_TRACES = {
    "non-object-line": b"[1]\n",
    "not-utf8": b"\xff\xfe",
    "unhashable-span-id": (_META + json.dumps(dict(_SPAN, id=[1]))
                           + "\n").encode(),
    "metrics-not-a-list": (_META + '{"type": "metrics", '
                           '"metrics": "oops"}\n').encode(),
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# schema-shaped lines with some keys overwritten by arbitrary JSON
_ROW = {"name": "m", "kind": "counter", "labels": {}, "value": 1}
_SCHEMA_LINES = st.one_of(
    st.dictionaries(st.sampled_from(sorted(_SPAN)), _JSON).map(
        lambda hostile: {**_SPAN, **hostile}),
    st.dictionaries(st.sampled_from(sorted(_ROW) + ["count"]), _JSON).map(
        lambda hostile: {"type": "metrics",
                         "metrics": [{**_ROW, **hostile}]}),
    st.dictionaries(st.sampled_from(["metrics", "dropped"]), _JSON).map(
        lambda hostile: {"type": "metrics", **hostile}))


class TestHostileTraces:
    @pytest.mark.parametrize("body", list(HOSTILE_TRACES.values()),
                             ids=list(HOSTILE_TRACES))
    def test_typed_error_and_stats_exits_one(self, tmp_path, capsys,
                                             body):
        from repro.cli import main

        path = tmp_path / "hostile.jsonl"
        path.write_bytes(body)
        with pytest.raises(obs_stats.TraceError):
            obs_stats.load_trace(str(path))
        assert main(["stats", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @settings(max_examples=200, deadline=None)
    @given(body=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=200).map(lambda tail: _META.encode() + tail),
        st.lists(_SCHEMA_LINES, max_size=3).map(
            lambda lines: (_META + "".join(
                json.dumps(line) + "\n" for line in lines)).encode())))
    def test_arbitrary_bytes_load_or_raise_trace_error(
            self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "arbitrary.jsonl"
        path.write_bytes(body)
        try:
            trace = obs_stats.load_trace(str(path))
        except obs_stats.TraceError:
            return
        assert isinstance(trace, obs_stats.TraceFile)
        # whatever loads must also render
        obs_stats.format_span_tree(trace)
        obs_stats.format_metric_table(trace)


# ----------------------------------------------------------------------
# end to end: a traced pipeline run
# ----------------------------------------------------------------------
class TestTracedPipeline:
    def test_traced_run_covers_stages_and_cache_counters(self, tmp_path):
        config = PipelineConfig(
            app="face", designs=("asm1",),
            stages=("train", "quantize", "evaluate"),
            budget=TINY_BUDGET, seed=0,
            cache_dir=str(tmp_path / "cache"))
        path = str(tmp_path / "trace.jsonl")

        obs.enable(path)
        Pipeline(config).run()
        obs.disable()
        trace = obs_stats.load_trace(path)
        names = trace.span_names()
        assert {"pipeline.run", "stage.train", "stage.quantize",
                "stage.evaluate", "train.epoch"} <= names
        metric_names = {row["name"] for row in trace.metrics}
        assert "pipeline.cache.misses" in metric_names
        assert "kernels.calls" in metric_names

        # warm re-run: every stage served from cache, hits counted
        obs.reset()
        warm = str(tmp_path / "warm.jsonl")
        obs.enable(warm)
        Pipeline(config).run(resume=True)
        obs.disable()
        warm_trace = obs_stats.load_trace(warm)
        stage_events = [event for event in warm_trace.events
                        if event["name"].startswith("stage.")]
        assert stage_events
        assert all(event["args"]["cached"] for event in stage_events)
        # one hit per stage the cold run executed (the plan may insert
        # dependency stages beyond the three we asked for)
        executed = {event["name"].removeprefix("stage.")
                    for event in trace.events
                    if event["name"].startswith("stage.")}
        hits = {row["labels"]["stage"]: row["value"]
                for row in warm_trace.metrics
                if row["name"] == "pipeline.cache.hits"}
        assert hits == {stage: 1.0 for stage in executed}

    def test_dataset_span_and_cache_counters(self, tmp_path):
        config = PipelineConfig(
            app="face", designs=("asm1",), stages=("train",),
            budget=TINY_BUDGET, seed=0, cache_dir=str(tmp_path / "cache"))

        def traced_run(name, resume):
            obs.reset()
            path = str(tmp_path / name)
            obs.enable(path)
            Pipeline(config).run(resume=resume)
            obs.disable()
            trace = obs_stats.load_trace(path)
            spans = [event for event in trace.events
                     if event["name"] == "pipeline.dataset"]
            counts = {row["name"]: row["value"] for row in trace.metrics
                      if row["name"].startswith("pipeline.cache.")
                      and row["labels"]["stage"] == "dataset"}
            return [span["args"]["cached"] for span in spans], counts

        assert traced_run("cold.jsonl", resume=True) == \
            ([False], {"pipeline.cache.misses": 1.0})
        # retraining without resume still finds the dataset entry
        assert traced_run("retrain.jsonl", resume=False) == \
            ([True], {"pipeline.cache.hits": 1.0})

    def test_disabled_run_records_nothing(self, tmp_path):
        config = PipelineConfig(
            app="face", designs=("asm1",),
            stages=("train", "quantize", "evaluate"),
            budget=TINY_BUDGET, seed=0,
            cache_dir=str(tmp_path / "cache"))
        Pipeline(config).run()
        assert not obs.enabled()
        assert obs.spans() == []
        assert obs.registry().to_dict() == []


# ----------------------------------------------------------------------
# the in-memory span cap must never be silent
# ----------------------------------------------------------------------
class TestDroppedSpans:
    def test_dropped_spans_counted_and_stamped(self, tmp_path,
                                               monkeypatch):
        import repro.obs.tracing as tracing
        from repro.obs.stats import load_trace

        monkeypatch.setattr(tracing, "MAX_KEPT_SPANS", 3)
        trace = str(tmp_path / "t.jsonl")
        obs.enable(trace_path=trace)
        for _ in range(5):
            with obs.span("tick"):
                pass
        obs.disable()
        assert obs.registry().counter("obs.spans_dropped").value == 2.0
        loaded = load_trace(trace)
        assert loaded.dropped == 2
        # the JSONL file itself keeps every span regardless of the cap
        assert len(loaded.events) == 5

    def test_no_drop_no_counter_no_stamp(self, tmp_path):
        from repro.obs.stats import load_trace

        trace = str(tmp_path / "t.jsonl")
        obs.enable(trace_path=trace)
        with obs.span("one"):
            pass
        obs.disable()
        rows = {row["name"] for row in obs.registry().to_dict()}
        assert "obs.spans_dropped" not in rows
        assert load_trace(trace).dropped == 0
