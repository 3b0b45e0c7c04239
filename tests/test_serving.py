"""Tests for the serving stack: artifacts, compiled models, registry,
micro-batching and the HTTP front end."""

import email.utils
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import zipfile
from concurrent.futures import TimeoutError as ResultTimeoutError
from decimal import Decimal, localcontext
from http.server import BaseHTTPRequestHandler

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import repro
from repro import obs
from repro.asm.alphabet import ALPHA_1, ALPHA_2
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import AlphabetSetMultiplier, Multiplier
from repro.datasets.registry import BENCHMARKS, build_model, lenet, mlp
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.serving import (
    ArtifactIntegrityError,
    BatchSettings,
    CompiledModel,
    DeadlineExceededError,
    MicroBatcher,
    ModelRegistry,
    QueueFullError,
    ServingMetrics,
    create_server,
    read_manifest,
)
from repro.serving.artifact import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    ArtifactError,
    _manifest_digest,
    save_artifact,
)
from repro.serving.server import _encode, _http_date, _parse_predict

RNG = np.random.default_rng(7)


def make_quantized(seed: int = 3, constrained: bool = True,
                   use_lut: bool = False) -> QuantizedNetwork:
    """A small (untrained) digits MLP lowered onto the ASM engine."""
    net = mlp([1024, 24, 10], seed=seed, name="digits")
    if constrained:
        spec = QuantizationSpec(8, Multiplier(ALPHA_2),
                                constrainer=WeightConstrainer(8, ALPHA_2))
    else:
        spec = QuantizationSpec(8)
    return QuantizedNetwork.from_float(net, spec, use_lut=use_lut)


@pytest.fixture
def exported(tmp_path):
    quantized = make_quantized()
    path = save_artifact(quantized, str(tmp_path / "digits"))
    return quantized, path


def sample_batch(n: int = 16) -> np.ndarray:
    return RNG.uniform(-1.0, 1.0, size=(n, 1024))


class TestArtifactRoundTrip:
    def test_logits_bit_identical(self, exported):
        quantized, path = exported
        x = sample_batch()
        reloaded = CompiledModel.load(path)
        assert np.array_equal(quantized.forward(x), reloaded.forward(x))
        assert reloaded.spec_label == quantized.spec.label
        assert reloaded.name == "digits"

    def test_compiled_bit_identical(self, exported):
        quantized, path = exported
        x = sample_batch()
        compiled = CompiledModel.load(path)
        assert np.array_equal(quantized.forward(x), compiled.forward(x))
        assert np.array_equal(quantized.predict(x), compiled.predict(x))

    def test_lut_round_trip(self, tmp_path):
        quantized = make_quantized(use_lut=True)
        path = save_artifact(quantized, str(tmp_path / "lut"))
        x = sample_batch(8)
        assert np.array_equal(quantized.forward(x),
                              CompiledModel.load(path).forward(x))

    def test_conv_round_trip(self, tmp_path):
        net = lenet(10, seed=1)
        spec = QuantizationSpec(12, Multiplier(ALPHA_2),
                                constrainer=WeightConstrainer(12, ALPHA_2))
        quantized = QuantizedNetwork.from_float(net, spec)
        path = save_artifact(quantized, str(tmp_path / "lenet"))
        x = RNG.uniform(-1.0, 1.0, size=(3, 1, 32, 32))
        compiled = CompiledModel.load(path)
        assert np.array_equal(quantized.forward(x), compiled.forward(x))
        assert compiled.input_spatial == (32, 32)
        # conv topology and energy derive from the stored spatial metadata
        assert compiled.energy_per_inference_nj() > 0

    def test_bundle_bytes_reproducible(self, tmp_path):
        """Two exports of one network are the same files byte for byte;
        the zip members carry no write time."""
        quantized = make_quantized()
        first = save_artifact(quantized, str(tmp_path / "first"))
        second = save_artifact(quantized, str(tmp_path / "second"))
        for name in (MANIFEST_NAME, ARRAYS_NAME):
            with open(os.path.join(first, name), "rb") as a, \
                    open(os.path.join(second, name), "rb") as b:
                assert a.read() == b.read(), name
        with zipfile.ZipFile(os.path.join(first, ARRAYS_NAME)) as archive:
            assert {info.date_time for info in archive.infolist()} == \
                {(1980, 1, 1, 0, 0, 0)}

    def test_manifest_metadata(self, exported):
        _, path = exported
        manifest = read_manifest(path)
        assert manifest["bits"] == 8
        assert manifest["alphabets"] == [1, 3]
        assert manifest["constrainer_mode"] == "greedy"

    def test_corrupted_array_rejected(self, exported):
        _, path = exported
        arrays_path = os.path.join(path, ARRAYS_NAME)
        with np.load(arrays_path) as data:
            arrays = {key: data[key].copy() for key in data.files}
        arrays["layer0:w_int"][0, 0] += 1
        np.savez(arrays_path, **arrays)
        with pytest.raises(ArtifactIntegrityError, match="integrity hash"):
            CompiledModel.load(path)

    def test_corrupted_manifest_rejected(self, exported):
        _, path = exported
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["bits"] = 12          # tamper without updating checksum
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            CompiledModel.load(path)

    def test_invalid_alphabets_rejected(self, exported):
        """A re-checksummed manifest naming no valid alphabet set is a
        typed load error, not a ValueError from deep inside the load."""
        _, path = exported
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["layers"][0]["alphabets"] = [2]
        manifest["checksum"] = _manifest_digest(manifest)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="layer 0: bad alphabets"):
            CompiledModel.load(path)

    @pytest.mark.parametrize("tamper", [
        lambda layer: layer.pop("activation"),
        lambda layer: layer["w_fmt"].update(total_bits="x"),
    ], ids=["no_activation", "bad_total_bits"])
    def test_malformed_layer_rejected(self, exported, tamper):
        """A re-checksummed manifest with a malformed layer field is a
        typed load error naming the layer, not a KeyError/ValueError."""
        _, path = exported
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        tamper(manifest["layers"][0])
        manifest["checksum"] = _manifest_digest(manifest)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="layer 0: bad entry"):
            CompiledModel.load(path)

    @pytest.mark.parametrize("tamper, part", [
        (lambda manifest: manifest["act_fmt"].update(total_bits="x"),
         "act_fmt"),
        (lambda manifest: manifest.update(layers=5), "layers"),
        (lambda manifest: manifest.pop("use_lut"), "use_lut"),
        (lambda manifest: manifest.update(bits="x"), "bits"),
    ], ids=["bad_act_fmt", "layers_not_a_list", "no_use_lut", "bad_bits"])
    def test_malformed_manifest_field_rejected(self, exported, tamper,
                                               part):
        """The manifest-level fields read before the layer loop fail as
        typed load errors naming the field, not a ValueError, TypeError
        or KeyError."""
        _, path = exported
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        tamper(manifest)
        manifest["checksum"] = _manifest_digest(manifest)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match=f"bad manifest {part}"):
            CompiledModel.load(path)

    @pytest.mark.parametrize("app", sorted(BENCHMARKS))
    def test_topology_matches_float_model(self, app, tmp_path):
        """The served model and the float network it came from give
        the engine the same per-layer work."""
        model = build_model(app, seed=0)
        lowered = QuantizedNetwork.from_float(model, QuantizationSpec(8))
        path = save_artifact(lowered, str(tmp_path / app))
        assert CompiledModel.load(path).topology() == model.topology()

    def test_missing_bundle_rejected(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ArtifactError):
            CompiledModel.load(str(empty))

    def test_mixed_layer_specs_preserved(self, tmp_path):
        from repro.asm.alphabet import ALPHA_4
        from repro.hardware.engine import ProcessingEngine

        net = mlp([64, 16, 10], seed=5, name="mixed")
        base = QuantizationSpec(8, Multiplier(ALPHA_4),
                                constrainer=WeightConstrainer(8, ALPHA_4))
        layer_specs = [
            QuantizationSpec(8, Multiplier(ALPHA_4),
                             constrainer=WeightConstrainer(8, ALPHA_4)),
            QuantizationSpec(8, Multiplier(ALPHA_2),
                             constrainer=WeightConstrainer(8, ALPHA_2)),
        ]
        quantized = QuantizedNetwork.from_float(net, base,
                                                layer_specs=layer_specs)
        path = save_artifact(quantized, str(tmp_path / "mixed"))
        manifest = read_manifest(path)
        assert [entry["alphabets"] for entry in manifest["layers"]] == \
            [[1, 3, 5, 7], [1, 3]]
        compiled = CompiledModel.load(path)
        x = RNG.uniform(-1.0, 1.0, size=(4, 64))
        assert np.array_equal(quantized.forward(x), compiled.forward(x))
        # energy must be costed with each layer's own alphabet set
        expected = ProcessingEngine(8, Multiplier(ALPHA_4)).run(
            compiled.topology(),
            layer_alphabets=[Multiplier(ALPHA_4),
                             Multiplier(ALPHA_2)]).energy_nj
        assert compiled.energy_per_inference_nj() == pytest.approx(expected)


class TestTableMemoization:
    def test_effective_weight_table_shared(self):
        a = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        b = AlphabetSetMultiplier(8, ALPHA_2, fallback="nearest")
        table_a = a.effective_weight_table()
        assert table_a is b.effective_weight_table()
        assert not table_a.flags.writeable

    def test_constrainer_table_shared(self):
        a = WeightConstrainer(8, ALPHA_1)
        b = WeightConstrainer(8, ALPHA_1)
        assert a._table is b._table
        # results still writable (fancy indexing copies)
        out = a.constrain_array(np.array([5, -7]))
        out += 1


class TestRegistry:
    def test_register_get_latest(self, exported):
        _, path = exported
        registry = ModelRegistry()
        entry1 = registry.register(path, name="digits")
        entry2 = registry.register(CompiledModel.load(path), name="digits")
        assert (entry1.version, entry2.version) == (1, 2)
        assert registry.get("digits") is entry2.model
        assert registry.get("digits", version=1) is entry1.model
        assert len(registry) == 2 and "digits" in registry

    def test_duplicate_version_rejected(self, exported):
        _, path = exported
        registry = ModelRegistry()
        registry.register(path, name="digits", version=3)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(path, name="digits", version=3)

    def test_unknown_lookup(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.get("missing")

    def test_evict(self, exported):
        _, path = exported
        registry = ModelRegistry()
        registry.register(path, name="digits")
        registry.register(path, name="digits")
        assert registry.evict("digits", version=1) == 1
        assert registry.evict("digits") == 1
        assert registry.evict("digits") == 0
        assert len(registry) == 0

    def test_list_models(self, exported):
        _, path = exported
        registry = ModelRegistry()
        registry.register(path, name="b")
        registry.register(path, name="a")
        assert [entry.key for entry in registry.list_models()] == \
            ["a@v1", "b@v1"]

    def test_evicted_versions_not_reused(self, exported):
        _, path = exported
        registry = ModelRegistry()
        registry.register(path, name="digits")            # v1
        registry.register(path, name="digits")            # v2
        registry.evict("digits", version=2)               # rollback
        entry = registry.register(path, name="digits")
        assert entry.version == 3                         # never v2 again
        registry.evict("digits")                          # evict the name
        assert registry.register(path, name="digits").version == 4


class TestMicroBatcher:
    def test_default_is_work_conserving(self):
        assert BatchSettings().max_latency_ms == 0.0

    def test_concurrent_submitters_bit_identical(self, exported):
        quantized, path = exported
        compiled = CompiledModel.load(path)
        x = sample_batch(48)
        reference = quantized.forward(x)
        metrics = ServingMetrics()
        results: dict[int, np.ndarray] = {}
        # the default (work-conserving) window: requests still coalesce
        # because they pile up behind a running forward pass
        with MicroBatcher(lambda key: compiled,
                          BatchSettings(max_batch_size=16),
                          metrics=metrics) as batcher:
            def submit_range(start: int, stop: int) -> None:
                futures = [(i, batcher.submit("digits", x[i]))
                           for i in range(start, stop)]
                for i, future in futures:
                    results[i] = future.result(timeout=10.0)

            threads = [threading.Thread(target=submit_range,
                                        args=(t * 12, (t + 1) * 12))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        stacked = np.concatenate([results[i] for i in range(48)], axis=0)
        assert np.array_equal(stacked, reference)
        snapshot = metrics.snapshot()
        assert snapshot["batches_total"] >= 1
        # coalescing happened: fewer forward passes than requests
        assert snapshot["batches_total"] < 48

    def test_multi_model_grouping(self, exported, tmp_path):
        _, path = exported
        other = make_quantized(seed=9, constrained=False)
        other_path = save_artifact(other, str(tmp_path / "other"))
        registry = ModelRegistry()
        registry.register(path, name="digits")
        registry.register(other_path, name="other")
        x = sample_batch(6)
        with MicroBatcher(lambda key: registry.get(*key),
                          BatchSettings(max_latency_ms=10.0)) as batcher:
            futures = [(key, batcher.submit((key, None), x))
                       for key in ("digits", "other")]
            outputs = {key: future.result(timeout=10.0)
                       for key, future in futures}
        assert np.array_equal(outputs["digits"],
                              registry.get("digits").forward(x))
        assert np.array_equal(outputs["other"],
                              registry.get("other").forward(x))

    def test_unknown_model_sets_exception(self):
        registry = ModelRegistry()
        with MicroBatcher(lambda key: registry.get(*key),
                          BatchSettings(max_latency_ms=0.0)) as batcher:
            future = batcher.submit(("missing", None), np.zeros(4))
            with pytest.raises(KeyError):
                future.result(timeout=10.0)

    def test_submit_after_close_rejected(self, exported):
        _, path = exported
        compiled = CompiledModel.load(path)
        batcher = MicroBatcher(lambda key: compiled)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit("digits", np.zeros(1024))

    def test_bad_rank_rejected(self, exported):
        _, path = exported
        compiled = CompiledModel.load(path)
        with MicroBatcher(lambda key: compiled) as batcher:
            with pytest.raises(ValueError):
                batcher.submit("digits", np.zeros((2, 2, 2, 2, 2)))

    def test_malformed_corider_does_not_poison_batch(self, exported):
        quantized, path = exported
        compiled = CompiledModel.load(path)
        x = sample_batch(2)
        with MicroBatcher(lambda key: compiled,
                          BatchSettings(max_latency_ms=50.0)) as batcher:
            good = batcher.submit("digits", x)
            bad = batcher.submit("digits", np.zeros(10))  # wrong width
            assert np.array_equal(good.result(timeout=10.0),
                                  quantized.forward(x))
            with pytest.raises(ValueError):
                bad.result(timeout=10.0)

    def test_cancelled_future_does_not_kill_worker(self, exported):
        quantized, path = exported
        compiled = CompiledModel.load(path)
        x = sample_batch(2)
        with MicroBatcher(lambda key: compiled,
                          BatchSettings(max_latency_ms=0.0)) as batcher:
            for _ in range(20):
                batcher.submit("digits", x[0]).cancel()
            # worker must still be alive and serving after cancel races
            scores = batcher.predict("digits", x, timeout=10.0)
        assert np.array_equal(scores, quantized.forward(x))


class TestServingMetrics:
    def test_latency_percentiles_interpolate(self):
        metrics = ServingMetrics()
        for ms in range(1, 11):                    # 100 ms .. 1000 ms
            metrics.record_request(model="m@v1", samples=1,
                                   latency_s=ms / 10.0)
        latency = metrics.snapshot()["latency_ms"]
        # linear interpolation: p50 of 10 evenly spaced points sits
        # between the 5th and 6th order statistics, not on either
        assert latency["p50"] == pytest.approx(550.0)
        assert latency["p95"] == pytest.approx(955.0)
        assert latency["max"] == pytest.approx(1000.0)

    def test_per_model_breakdown_and_energy(self):
        metrics = ServingMetrics()
        metrics.record_request(model="a@v1", samples=2, latency_s=0.01,
                               energy_nj=10.0)
        metrics.record_request(model="b@v1", samples=3, latency_s=0.02,
                               energy_nj=30.0)
        snapshot = metrics.snapshot()
        assert snapshot["models"] == {
            "a@v1": {"requests": 1, "samples": 2, "energy_nj": 10.0},
            "b@v1": {"requests": 1, "samples": 3, "energy_nj": 30.0},
        }
        assert snapshot["energy"]["total_nj"] == pytest.approx(40.0)
        body = metrics.to_prometheus()
        assert 'serving_model_energy_nj{model="a@v1"} 10' in body


@pytest.fixture
def running_server(exported):
    _, path = exported
    registry = ModelRegistry()
    registry.register(path, name="digits")
    server = create_server(registry,
                           settings=BatchSettings(max_latency_ms=2.0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", exported[0]
    server.shutdown()
    thread.join(timeout=5.0)


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read())


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())


class TestServer:
    def test_predict_matches_quantized(self, running_server):
        base, quantized = running_server
        x = sample_batch(5)
        response = _post(f"{base}/predict",
                         {"model": "digits", "inputs": x.tolist()})
        assert response["predictions"] == quantized.predict(x).tolist()
        assert np.array_equal(np.asarray(response["scores"]),
                              quantized.forward(x))
        assert response["energy_nj_est"] > 0

    def test_health_models_stats(self, running_server):
        base, _ = running_server
        assert _get(f"{base}/health") == {"status": "ok",
                                          "models": ["digits@v1"]}
        models = _get(f"{base}/models")["models"]
        assert models[0]["name"] == "digits"
        assert models[0]["spec"] == "8b-asm2-constrained"
        x = sample_batch(3)
        _post(f"{base}/predict", {"model": "digits", "inputs": x.tolist()})
        stats = _get(f"{base}/stats")
        assert stats["requests_total"] >= 1
        assert stats["samples_total"] >= 3
        assert stats["energy"]["total_nj"] > 0

    def test_unknown_model_404(self, running_server):
        base, _ = running_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/predict",
                  {"model": "nope", "inputs": [[0.0] * 1024]})
        assert excinfo.value.code == 404

    def test_bad_body_400(self, running_server):
        base, _ = running_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/predict", {"inputs": [[0.0] * 1024]})
        assert excinfo.value.code == 400

    def test_stats_exposes_queue_depth_and_errors(self, running_server):
        base, _ = running_server
        stats = _get(f"{base}/stats")
        assert stats["queue_depth"] == 0          # idle server, live poll
        before = stats["errors_total"]
        with pytest.raises(urllib.error.HTTPError):
            _post(f"{base}/predict",
                  {"model": "nope", "inputs": [[0.0] * 1024]})
        assert _get(f"{base}/stats")["errors_total"] == before + 1

    def test_metrics_endpoint_prometheus(self, running_server):
        base, _ = running_server
        x = sample_batch(2)
        _post(f"{base}/predict", {"model": "digits", "inputs": x.tolist()})
        request = urllib.request.urlopen(f"{base}/metrics", timeout=10.0)
        with request as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain")
            body = response.read().decode()
        assert "# TYPE serving_requests counter" in body
        assert "serving_requests 1" in body
        assert "serving_queue_depth 0" in body
        assert 'serving_model_samples{model="digits@v1"} 2' in body
        assert "serving_latency_seconds_count 1" in body


# ----------------------------------------------------------------------
# overload hardening: admission control, deadlines, worker isolation
# ----------------------------------------------------------------------
class _GatedModel:
    """Forward pass that blocks until released — a stand-in for a slow
    model, used to hold the batcher worker busy deterministically."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.gate = threading.Event()

    def forward(self, x):
        self.started.set()
        assert self.gate.wait(timeout=30.0)
        return self.inner.forward(x)


class TestOverloadHardening:
    def test_settings_validated(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            BatchSettings(max_queue_depth=-1)
        with pytest.raises(ValueError, match="deadline_s"):
            BatchSettings(deadline_s=0.0)

    def test_submit_sheds_when_queue_full(self, exported):
        _, path = exported
        model = _GatedModel(CompiledModel.load(path))
        metrics = ServingMetrics()
        x = sample_batch(1)
        with MicroBatcher(lambda key: model,
                          BatchSettings(max_latency_ms=0.0,
                                        max_queue_depth=2),
                          metrics=metrics) as batcher:
            held = batcher.submit("digits", x)      # occupies the worker
            assert model.started.wait(timeout=10.0)
            queued = [batcher.submit("digits", x) for _ in range(2)]
            assert batcher.overloaded()
            with pytest.raises(QueueFullError, match="depth bound"):
                batcher.submit("digits", x)
            assert metrics.snapshot()["shed_total"] == 1
            model.gate.set()
            for future in [held, *queued]:
                assert future.result(timeout=10.0).shape == (1, 10)
            assert not batcher.overloaded()

    def test_deadline_expired_request_dropped(self, exported):
        _, path = exported
        model = _GatedModel(CompiledModel.load(path))
        metrics = ServingMetrics()
        x = sample_batch(1)
        with MicroBatcher(lambda key: model,
                          BatchSettings(max_latency_ms=0.0,
                                        deadline_s=0.05),
                          metrics=metrics) as batcher:
            held = batcher.submit("digits", x)      # occupies the worker
            assert model.started.wait(timeout=10.0)
            late = batcher.submit("digits", x)      # queues behind it
            time.sleep(0.2)                         # ...past its deadline
            model.gate.set()
            assert held.result(timeout=10.0).shape == (1, 10)
            with pytest.raises(DeadlineExceededError, match="deadline"):
                late.result(timeout=10.0)
        assert metrics.snapshot()["deadline_expired_total"] == 1

    def test_worker_survives_flush_machinery_error(self, exported):
        quantized, path = exported
        compiled = CompiledModel.load(path)

        class HostileMetrics(ServingMetrics):
            raised = False

            def record_batch(self, size):
                if not HostileMetrics.raised:
                    HostileMetrics.raised = True
                    raise RuntimeError("metrics backend down")
                super().record_batch(size)

        x = sample_batch(2)
        with MicroBatcher(lambda key: compiled,
                          BatchSettings(max_latency_ms=0.0),
                          metrics=HostileMetrics()) as batcher:
            poisoned = batcher.submit("digits", x)
            with pytest.raises(RuntimeError, match="metrics backend"):
                poisoned.result(timeout=10.0)
            # the worker thread absorbed the error and still serves
            scores = batcher.predict("digits", x, timeout=10.0)
        assert np.array_equal(scores, quantized.forward(x))

    def test_cancelled_request_skips_forward_pass(self, exported):
        _, path = exported
        model = _GatedModel(CompiledModel.load(path))
        metrics = ServingMetrics()
        x = sample_batch(1)
        with MicroBatcher(lambda key: model,
                          metrics=metrics) as batcher:
            held = batcher.submit("digits", x)      # occupies the worker
            assert model.started.wait(timeout=10.0)
            assert batcher.submit("digits", x).cancel()
            model.gate.set()
            held.result(timeout=10.0)
        assert metrics.snapshot()["batches_total"] == 1

    def test_close_resolves_inflight_requests(self, exported):
        quantized, path = exported
        compiled = CompiledModel.load(path)

        class Slow:
            def forward(self, x):
                time.sleep(0.02)
                return compiled.forward(x)

        x = sample_batch(2)
        batcher = MicroBatcher(lambda key: Slow(),
                               BatchSettings(max_latency_ms=0.0))
        futures = [batcher.submit("digits", x) for _ in range(6)]
        batcher.close(timeout=30.0)     # drains, never abandons a future
        for future in futures:
            assert np.array_equal(future.result(timeout=1.0),
                                  quantized.forward(x))


# ----------------------------------------------------------------------
# who runs a batch: the idle batcher's caller, or the worker
# ----------------------------------------------------------------------
class _ThreadRecordingModel:
    """Delegating model that records the thread and row count of every
    forward pass."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[threading.Thread, int]] = []

    def forward(self, x):
        self.calls.append((threading.current_thread(), len(x)))
        return self.inner.forward(x)


class _FortranScores:
    """Delegating model whose scores come back in Fortran order, so a
    multi-row request's slice of a coalesced batch is not C-contiguous."""

    def __init__(self, inner):
        self.inner = inner

    def forward(self, x):
        return np.asfortranarray(self.inner.forward(x))


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestInlinePredict:
    def test_idle_batcher_runs_on_calling_thread(self, exported):
        quantized, path = exported
        model = _ThreadRecordingModel(CompiledModel.load(path))
        metrics = ServingMetrics()
        x = sample_batch(3)
        with MicroBatcher(lambda key: model, metrics=metrics) as batcher:
            scores = batcher.predict("digits", x)
        assert np.array_equal(scores, quantized.forward(x))
        assert model.calls == [(threading.current_thread(), 3)]
        assert metrics.snapshot()["batches_total"] == 1

    @pytest.mark.parametrize("settings", [
        BatchSettings(max_latency_ms=1.0),
        BatchSettings(deadline_s=5.0),
        BatchSettings(max_queue_depth=4),
    ], ids=["latency-window", "deadline", "queue-bound"])
    def test_settings_that_need_the_queue_use_the_worker(self, exported,
                                                         settings):
        quantized, path = exported
        model = _ThreadRecordingModel(CompiledModel.load(path))
        x = sample_batch(2)
        with MicroBatcher(lambda key: model, settings) as batcher:
            scores = batcher.predict("digits", x)
        assert np.array_equal(scores, quantized.forward(x))
        assert [thread.name for thread, _ in model.calls] == \
            ["repro-microbatcher"]

    def test_request_already_queued_uses_the_worker(self, exported):
        quantized, path = exported
        gated = _GatedModel(CompiledModel.load(path))
        model = _ThreadRecordingModel(gated)
        x = sample_batch(1)
        results = []
        with MicroBatcher(lambda key: model) as batcher:
            held = batcher.submit("digits", x)      # occupies the worker
            assert gated.started.wait(timeout=10.0)
            queued = batcher.submit("digits", x)    # waits behind it
            caller = threading.Thread(
                target=lambda: results.append(batcher.predict("digits", x)))
            caller.start()
            # the predict queued behind `queued` instead of running inline
            _wait_for(lambda: batcher.queue_depth() == 2)
            gated.gate.set()
            caller.join(timeout=10.0)
            for future in (held, queued):
                future.result(timeout=10.0)
        assert np.array_equal(results[0], quantized.forward(x))
        assert {thread.name for thread, _ in model.calls} == \
            {"repro-microbatcher"}
        # `queued` and the predict rode one batch
        assert [rows for _, rows in model.calls] == [1, 2]

    def test_coalesced_http_batch_encodes_non_contiguous_slices(
            self, exported):
        quantized, path = exported
        gated = _GatedModel(_FortranScores(CompiledModel.load(path)))
        model = _ThreadRecordingModel(gated)
        registry = ModelRegistry()
        registry.register(path, name="digits")
        server = create_server(registry)
        server.batcher._resolve = lambda key: model
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        base = "http://%s:%d" % server.server_address[:2]
        inputs = [sample_batch(3), sample_batch(4)]
        replies = {}

        def client(index: int) -> None:
            conn = _connection(base)
            try:
                replies[index] = _predict(conn, inputs[index])
            finally:
                conn.close()

        try:
            held = server.batcher.submit(("digits", 1), sample_batch(1))
            assert gated.started.wait(timeout=10.0)
            # a queued request makes both predicts queue behind it
            queued = server.batcher.submit(("digits", 1), sample_batch(2))
            clients = [threading.Thread(target=client, args=(index,))
                       for index in range(len(inputs))]
            for thread in clients:
                thread.start()
            _wait_for(lambda: server.batcher.queue_depth() == 3)
            gated.gate.set()
            for thread in clients:
                thread.join(timeout=10.0)
            for future in (held, queued):
                future.result(timeout=10.0)
        finally:
            gated.gate.set()
            server.shutdown()
            loop.join(timeout=5.0)
        # all three rode one forward pass; each got an F-ordered row slice
        assert [rows for _, rows in model.calls] == [1, 9]
        for index, x in enumerate(inputs):
            response, payload = replies[index]
            assert response.status == 200
            assert payload["predictions"] == quantized.predict(x).tolist()
            assert np.array_equal(np.asarray(payload["scores"]),
                                  quantized.forward(x))

    def test_concurrent_inline_and_worker_passes_bit_identical(
            self, exported):
        _, path = exported
        compiled = CompiledModel.load(path)
        model = _ThreadRecordingModel(compiled)
        sizes = (1, 3, 64)
        inputs = {size: sample_batch(size) for size in sizes}
        expected = {size: compiled.forward(inputs[size]) for size in sizes}
        mismatches: list[tuple[int, int]] = []
        start = threading.Barrier(8)

        def client(batcher: MicroBatcher, index: int) -> None:
            start.wait(timeout=10.0)
            for call in range(25):
                size = sizes[(index + call) % len(sizes)]
                scores = batcher.predict("digits", inputs[size])
                if (scores.dtype != expected[size].dtype
                        or scores.tobytes() != expected[size].tobytes()):
                    mismatches.append((index, call))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the clients finely
        try:
            with MicroBatcher(lambda key: model) as batcher:
                threads = [threading.Thread(target=client,
                                            args=(batcher, index))
                           for index in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                # the in-progress count lost no update: idle again, the
                # next predict runs on this thread
                batcher.predict("digits", inputs[1])
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []
        assert model.calls[-1] == (threading.current_thread(), 1)
        # every request ran in exactly one forward pass
        assert sum(rows for _, rows in model.calls[:-1]) == sum(
            sizes[(index + call) % len(sizes)]
            for index in range(8) for call in range(25))
        # the first call found the batcher idle and ran inline; calls
        # made while another was in progress went to the worker
        assert {thread.name == "repro-microbatcher"
                for thread, _ in model.calls} == {False, True}

    def test_queued_predict_timeout_cancels_its_request(self, exported):
        quantized, path = exported
        gated = _GatedModel(CompiledModel.load(path))
        model = _ThreadRecordingModel(gated)
        x = sample_batch(1)
        with MicroBatcher(lambda key: model) as batcher:
            held = batcher.submit("digits", x)      # occupies the worker
            assert gated.started.wait(timeout=10.0)
            queued = batcher.submit("digits", x)
            with pytest.raises(ResultTimeoutError):
                batcher.predict("digits", sample_batch(3), timeout=0.05)
            gated.gate.set()
            for future in (held, queued):
                future.result(timeout=10.0)
            _wait_for(lambda: batcher.queue_depth() == 0)
            # the batcher is idle again, so the next predict runs inline
            scores = batcher.predict("digits", x)
        assert np.array_equal(scores, quantized.forward(x))
        # the timed-out 3-row request never reached a forward pass
        assert [rows for _, rows in model.calls] == [1, 1, 1]
        assert model.calls[-1][0] is threading.current_thread()

    def test_traced_request_records_the_four_serving_spans(self, exported):
        quantized, path = exported
        registry = ModelRegistry()
        registry.register(path, name="digits")
        server = create_server(registry)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        host, port = server.server_address[:2]
        x = sample_batch(2)
        obs.reset()
        obs.enable()
        try:
            response = _post(f"http://{host}:{port}/predict",
                             {"model": "digits", "inputs": x.tolist()})
            roots = {span.name: span for span in obs.spans()}
        finally:
            obs.reset()
            server.shutdown()
            loop.join(timeout=5.0)
        assert response["predictions"] == quantized.predict(x).tolist()
        assert {"serving.parse", "serving.request",
                "serving.encode"} <= set(roots)
        # the idle batcher ran the batch inline, under the request span
        assert [child.name for child in roots["serving.request"].children] \
            == ["serving.batch"]


@pytest.fixture
def overload_server(exported):
    """A running server with a depth-1 queue and a gate-blocked model."""
    _, path = exported
    registry = ModelRegistry()
    registry.register(path, name="digits")
    server = create_server(registry,
                           settings=BatchSettings(max_latency_ms=0.0,
                                                  max_queue_depth=1))
    model = _GatedModel(CompiledModel.load(path))
    server.batcher._resolve = lambda key: model
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", server, model
    model.gate.set()
    server.shutdown()
    thread.join(timeout=5.0)


def _one_sample_body(first: bytes) -> bytes:
    """A 1024-wide one-sample ``/predict`` body whose first element is
    the literal *first*."""
    return (b'{"model": "digits", "inputs": [' + first
            + b", 0.0" * 1023 + b"]}")


#: bodies that must get a typed 400 and leave the server answering
HOSTILE_BODIES = {
    "deep-nesting": (b'{"model": "digits", "inputs": ' + b"[" * 100_000
                     + b"]" * 100_000 + b"}"),
    "400-digit-integer": _one_sample_body(b"9" * 400),
    "null-element": _one_sample_body(b"null"),
    "nan-literal": _one_sample_body(b"NaN"),
    "infinity-literal": _one_sample_body(b"-Infinity"),
    "double-overflow": _one_sample_body(b"1e400"),
    "utf8-bom": b"\xef\xbb\xbf" + _one_sample_body(b"0.0"),
    "utf16-body": _one_sample_body(b"0.0").decode().encode("utf-16"),
    "lone-surrogate": b'{"model": "digits\\ud800", "inputs": [0.0]}',
    "list-model": b'{"model": ["digits"], "inputs": [0.0]}',
    "list-version": _one_sample_body(b"0.0").replace(
        b'"inputs"', b'"version": [1], "inputs"'),
    # a float64 cast reads these as 0.5, 7.0 and 1.0/0.0 and answers 200
    "numeric-string": _one_sample_body(b'"0.5"'),
    "padded-string": _one_sample_body(b'" 7 "'),
    "all-booleans": (b'{"model": "digits", "inputs": ['
                     + b"true, " * 1023 + b"false]}"),
}


class TestServerHardening:
    @pytest.mark.parametrize("body", HOSTILE_BODIES.values(),
                             ids=HOSTILE_BODIES.keys())
    def test_hostile_body_is_typed_400(self, running_server, body):
        base, quantized = running_server
        conn = _connection(base)
        try:
            conn.request("POST", "/predict", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            reply = orjson.loads(response.read())     # strict JSON
            assert response.status == 400
            assert reply["error"]
            # the connection and the server both still answer
            x = sample_batch(2)
            response, payload = _predict(conn, x)
            assert response.status == 200
            assert np.array_equal(np.asarray(payload["scores"]),
                                  quantized.forward(x))
        finally:
            conn.close()

    def test_non_dict_json_body_is_400_not_500(self, running_server):
        base, _ = running_server
        for payload in (b"[1, 2, 3]", b'"predict"'):
            request = urllib.request.Request(
                f"{base}/predict", data=payload,
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "JSON object" in body["error"]

    def test_healthz_ready_when_idle(self, running_server):
        base, _ = running_server
        assert _get(f"{base}/healthz") == {"status": "ready"}

    def test_overload_sheds_503_and_healthz_flips(self, overload_server):
        base, server, model = overload_server
        x = sample_batch(1)
        held = server.batcher.submit(("digits", 1), x)
        assert model.started.wait(timeout=10.0)
        queued = server.batcher.submit(("digits", 1), x)
        assert server.batcher.overloaded()

        # predict sheds with 503 + Retry-After while the queue is full
        request = urllib.request.Request(
            f"{base}/predict",
            data=json.dumps({"model": "digits",
                             "inputs": x.tolist()}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] == "1"
        assert "depth bound" in json.loads(excinfo.value.read())["error"]

        # the readiness probe flips not-ready while shedding ...
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/healthz", timeout=10.0)
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["status"] == "overloaded"

        # ... and recovers once the queue drains
        model.gate.set()
        for future in (held, queued):
            future.result(timeout=10.0)
        assert _get(f"{base}/healthz") == {"status": "ready"}
        assert _get(f"{base}/stats")["shed_total"] == 1


# ----------------------------------------------------------------------
# connections: keep-alive, TCP_NODELAY, request framing
# ----------------------------------------------------------------------
def _connection(base: str) -> http.client.HTTPConnection:
    parts = urllib.parse.urlsplit(base)
    return http.client.HTTPConnection(parts.hostname, parts.port,
                                      timeout=10.0)


def _predict(conn: http.client.HTTPConnection, x: np.ndarray):
    conn.request("POST", "/predict",
                 body=json.dumps({"model": "digits",
                                  "inputs": x.tolist()}).encode(),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response, json.loads(response.read())


def _exchange(base: str, raw: bytes, timeout: float = 1.0) -> bytes:
    """Send raw request bytes; return all the server sends before it
    closes the connection (a socket timeout fails the caller)."""
    parts = urllib.parse.urlsplit(base)
    with socket.create_connection((parts.hostname, parts.port),
                                  timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnections:
    def test_predicts_reuse_one_connection(self, running_server):
        base, quantized = running_server
        conn = _connection(base)
        try:
            sockets = []
            for x in (sample_batch(1)[0], sample_batch(3)):
                response, payload = _predict(conn, x)
                assert response.status == 200
                assert np.array_equal(np.asarray(payload["scores"]),
                                      quantized.forward(np.atleast_2d(x)))
                sockets.append(conn.sock)
            assert sockets[0] is not None and sockets[0] is sockets[1]
        finally:
            conn.close()

    def test_sequential_requests_do_not_wait_for_delayed_acks(
            self, running_server):
        # with Nagle's algorithm on, each reply would stall ~40 ms on the
        # client's delayed ACK: 50 requests would take about 2 s
        base, _ = running_server
        x = sample_batch(1)[0]
        conn = _connection(base)
        try:
            _predict(conn, x)                       # connect + warm up
            started = time.monotonic()
            for _ in range(50):
                response, _payload = _predict(conn, x)
                assert response.status == 200
            assert time.monotonic() - started < 1.0
        finally:
            conn.close()

    def test_unread_body_closes_connection(self, running_server):
        base, quantized = running_server
        # the 404 body is itself a request: kept alive, it would be
        # parsed as one and draw a second reply
        smuggled = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        reply = _exchange(base, (
            b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(smuggled)).encode() + b"\r\n\r\n" + smuggled))
        assert reply.startswith(b"HTTP/1.1 404")
        assert reply.count(b"HTTP/1.") == 1
        conn = _connection(base)
        try:
            conn.request("POST", "/nope", body=b'{"model": "digits"}')
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            x = sample_batch(2)
            response, payload = _predict(conn, x)   # reconnects
            assert response.status == 200
            assert np.array_equal(np.asarray(payload["scores"]),
                                  quantized.forward(x))
        finally:
            conn.close()

    @pytest.mark.parametrize("framing", [
        b"Content-Length: -1\r\n\r\n{}",
        b"Content-Length: 12abc\r\n\r\n{}",
        b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    ], ids=["negative", "garbage", "chunked"])
    def test_hostile_framing_is_400_and_closes(self, running_server,
                                               framing):
        base, _ = running_server
        started = time.monotonic()
        reply = _exchange(base, b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                                + framing)
        assert time.monotonic() - started < 1.0
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply

    def test_expect_100_continue_answered_before_body(self, running_server):
        base, quantized = running_server
        x = sample_batch(1)
        body = json.dumps({"model": "digits", "inputs": x.tolist()}).encode()
        parts = urllib.parse.urlsplit(base)
        with socket.create_connection((parts.hostname, parts.port),
                                      timeout=1.0) as sock:
            sock.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                         b"Expect: 100-continue\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        first, second = reply.split(b"HTTP/1.1 ")[1:]
        assert first.startswith(b"200")
        scores = json.loads(first.split(b"\r\n\r\n", 1)[1])["scores"]
        assert np.array_equal(np.asarray(scores), quantized.forward(x))
        assert second.startswith(b"200")

    def test_shutdown_ends_idle_kept_alive_connection(self, exported):
        _, path = exported
        registry = ModelRegistry()
        registry.register(path, name="digits")
        server = create_server(registry)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("GET", "/health")
            assert conn.getresponse().read()
            assert conn.sock is not None            # kept alive
            server.shutdown()
            # the server ends the connection instead of leaving a handler
            # parked on it in front of a closed batcher
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()
            loop.join(timeout=5.0)

    def test_result_timeout_is_503_not_500(self, exported):
        _, path = exported
        registry = ModelRegistry()
        registry.register(path, name="digits")
        server = create_server(registry,
                               settings=BatchSettings(deadline_s=0.05))
        model = _GatedModel(CompiledModel.load(path))
        server.batcher._resolve = lambda key: model
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            started = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/predict", {"model": "digits",
                                          "inputs": sample_batch(1).tolist()})
            assert time.monotonic() - started < 5.0
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
            assert "no result within 50ms" in json.loads(
                excinfo.value.read())["error"]
            assert _get(f"{base}/stats")["deadline_expired_total"] == 1
        finally:
            model.gate.set()
            server.shutdown()
            loop.join(timeout=5.0)


# ----------------------------------------------------------------------
# the request head: strict RFC 9112 fields, stdlib limits, JSON errors
# ----------------------------------------------------------------------
_HEAD_INPUT = np.random.default_rng(11).uniform(-1.0, 1.0, size=(1, 1024))
_HEAD_BODY = json.dumps({"model": "digits",
                         "inputs": _HEAD_INPUT[0].tolist()}).encode()
_HEAD_LENGTH = str(len(_HEAD_BODY)).encode()


def _predict_head(*fields: bytes,
                  line: bytes = b"POST /predict HTTP/1.1") -> bytes:
    """A raw request: *line*, ``Host`` and *fields*, then a valid
    one-sample ``/predict`` body."""
    return (line + b"\r\nHost: x\r\n"
            + b"".join(field + b"\r\n" for field in fields)
            + b"\r\n" + _HEAD_BODY)


#: heads the lenient stdlib parser misread (a 200, a hang or an HTML
#: reply): each must get a JSON 4xx/505 and a closed connection
HOSTILE_HEADS = {
    "differing-content-lengths": (_predict_head(
        b"Content-Length: " + _HEAD_LENGTH, b"Content-Length: 5"), 400),
    "space-before-colon-transfer-encoding": (_predict_head(
        b"Transfer-Encoding : chunked",
        b"Content-Length: " + _HEAD_LENGTH), 400),
    "line-without-colon": (_predict_head(
        b"X-No-Colon", b"Content-Length: " + _HEAD_LENGTH,
        b"Connection: close"), 400),
    "space-before-colon-content-length": (_predict_head(
        b"Content-Length : " + _HEAD_LENGTH), 400),
    "obs-fold": (_predict_head(
        b"X-Folded: a", b" b", b"Content-Length: " + _HEAD_LENGTH), 400),
    "http-2-request-line": (_predict_head(
        b"Content-Length: " + _HEAD_LENGTH,
        line=b"POST /predict HTTP/2.0"), 505),
    "101-fields": (_predict_head(                 # with Host
        *(b"X-Field-%d: v" % index for index in range(99)),
        b"Content-Length: " + _HEAD_LENGTH), 431),
    "65537-byte-line": (_predict_head(
        b"X-Long: " + b"a" * (65537 - len(b"X-Long: \r\n")),
        b"Content-Length: " + _HEAD_LENGTH), 431),
}


class TestRequestHead:
    @pytest.mark.parametrize("raw, status", HOSTILE_HEADS.values(),
                             ids=HOSTILE_HEADS.keys())
    def test_hostile_head_is_json_error_and_closes(self, running_server,
                                                   raw, status):
        base, quantized = running_server
        # _exchange reads to EOF: a connection left open fails it
        head, _, body = _exchange(base, raw).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), head
        assert b"\r\nConnection: close" in head
        assert b"\r\nContent-Type: application/json" in head
        assert orjson.loads(body)["error"]
        # a new connection still gets a valid predict answered
        conn = _connection(base)
        try:
            x = sample_batch(2)
            response, payload = _predict(conn, x)
            assert response.status == 200
            assert np.array_equal(np.asarray(payload["scores"]),
                                  quantized.forward(x))
        finally:
            conn.close()

    def test_limits_are_inclusive(self, running_server):
        # 100 fields and a 65,536-byte line (CRLF included) are read
        base, _ = running_server
        # Host + 96 + X-Long + Content-Length + Connection = 100 fields
        fields = [b"X-Field-%d: v" % index for index in range(96)]
        fields.append(b"X-Long: " + b"a" * (65536 - len(b"X-Long: \r\n")))
        reply = _exchange(base, _predict_head(
            *fields, b"Content-Length: " + _HEAD_LENGTH,
            b"Connection: close"))
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_repeated_equal_content_lengths_are_one(self, running_server):
        base, quantized = running_server
        reply = _exchange(base, _predict_head(
            b"Content-Length: " + _HEAD_LENGTH,
            b"content-length:" + _HEAD_LENGTH + b" \t",
            b"Connection: close"))
        assert reply.startswith(b"HTTP/1.1 200 ")
        scores = orjson.loads(reply.partition(b"\r\n\r\n")[2])["scores"]
        assert np.array_equal(np.asarray(scores),
                              quantized.forward(_HEAD_INPUT))

    @pytest.mark.parametrize("line, status", [
        (b"GET /health", 400),                  # HTTP/0.9
        (b"GET  /health HTTP/1.1", 400),        # two spaces
        (b"GET /health HTTP/1.1 x", 400),
        (b"GET /health HTTPS/1.1", 400),
        (b"GET /health HTTP/0.9", 400),
        (b"GET /health HTTP/3.0", 505),
        (b"PATCH /health HTTP/1.1", 501),
        (b"GET /" + b"a" * 65536 + b" HTTP/1.1", 414),
    ], ids=["http-0.9", "two-spaces", "extra-word", "https",
            "http-0.9-version", "http-3.0", "unknown-method",
            "65537-byte-line"])
    def test_bad_request_line_is_json_error(self, running_server, line,
                                            status):
        base, _ = running_server
        head, _, body = _exchange(
            base, line + b"\r\nHost: x\r\n\r\n").partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), head
        assert b"\r\nConnection: close" in head
        assert orjson.loads(body)["error"]

    @pytest.mark.parametrize("line", [
        b"GET /" + b"a" * 65536 + b" HTTP/1.1",        # stdlib path
        b"PATCH /health HTTP/1.1",                      # stdlib path
        b"GET /health HTTP/2.0",
    ], ids=["414", "501", "505"])
    def test_head_error_after_kept_alive_request_closes(self, running_server,
                                                        line):
        # the first request read its body; the second head still closes
        base, _ = running_server
        reply = _exchange(base, _predict_head(
            b"Content-Length: " + _HEAD_LENGTH)
            + line + b"\r\nHost: x\r\n\r\n")
        # exactly two replies: nothing after the error parses as a request
        empty, first, second = reply.split(b"HTTP/1.1 ")
        assert not empty
        assert first.startswith(b"200 ") and b"Connection:" not in first
        assert second[:3] in (b"414", b"501", b"505")
        assert b"\r\nConnection: close" in second

    @pytest.mark.parametrize("field, problem", [
        (b"Content-Length : 2", "whitespace before ':'"),
        (b"X-No-Colon", "without ':'"),
        (b"X(y): 1", "not a token"),
        (b"X-Y: a\x00b", "control character"),
        (b" X-Y: 1", "obs-fold"),
    ])
    def test_field_error_names_the_problem(self, running_server, field,
                                           problem):
        base, _ = running_server
        reply = _exchange(base, b"GET /health HTTP/1.1\r\nHost: x\r\n"
                                + field + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert problem in orjson.loads(
            reply.partition(b"\r\n\r\n")[2])["error"]

    def test_head_is_read_without_http_client(self, running_server,
                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("http.client.parse_headers was called")

        # the server runs in this process; the client reads raw bytes
        monkeypatch.setattr(http.client, "parse_headers", refuse)
        base, quantized = running_server
        reply = _exchange(base, _predict_head(
            b"Content-Length: " + _HEAD_LENGTH, b"Connection: close"))
        assert reply.startswith(b"HTTP/1.1 200 ")
        scores = orjson.loads(reply.partition(b"\r\n\r\n")[2])["scores"]
        assert np.array_equal(np.asarray(scores),
                              quantized.forward(_HEAD_INPUT))

    def test_reply_head_keeps_the_stdlib_layout(self, running_server):
        base, _ = running_server
        before = int(time.time())
        reply = _exchange(base, b"GET /health HTTP/1.1\r\nHost: x\r\n"
                                b"Connection: close\r\n\r\n")
        after = int(time.time())
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        dates = {email.utils.formatdate(second, usegmt=True)
                 for second in range(before, after + 1)}
        assert lines[2].removeprefix("Date: ") in dates
        assert lines[:2] + lines[3:] == [
            "HTTP/1.1 200 OK",
            "Server: " + BaseHTTPRequestHandler.version_string(
                BaseHTTPRequestHandler),
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]

    def test_date_is_formatted_once_per_second(self):
        second = 1_700_000_000
        assert _http_date(second) == email.utils.formatdate(
            second + 0.999, usegmt=True)
        assert _http_date(second) is _http_date(second)
        assert _http_date(second + 1) == "Tue, 14 Nov 2023 22:13:21 GMT"


class TestParsePredict:
    @pytest.mark.parametrize("inputs, problem", [
        (b'["0.5", true, " 7 "]', "holds a string"),
        (b'[[1.0, "2"]]', "holds a string"),
        (b'[true, null, 1.0]', "holds null"),
        (b'[{"x": 1}]', "holds an object"),
        (b"[[1.0, [2.0]]]", "holds an array"),
        (b"[true, false]", "only booleans"),
        (b"[[true], [false]]", "only booleans"),
        (b"[[1.0, 2.0], [3.0]]", "not a rectangular"),
        (b"[[1.0], 2.0]", "not a rectangular"),
        (b"null", "rank 0"),
        (b'"0.5"', "rank 0"),
        (b"[[[[[1.0]]]]]", "rank 5"),
    ])
    def test_non_numbers_are_rejected(self, inputs, problem):
        with pytest.raises(ValueError, match=problem):
            _parse_predict(b'{"model": "m", "inputs": ' + inputs + b"}")

    def test_booleans_among_numbers_read_as_one_and_zero(self):
        # documented in docs/robustness.md: NumPy's dtype is float64 here
        inputs = _parse_predict(b'{"model": "m", "inputs": [true, 0.5, '
                                b'false, 2]}')[2]
        assert inputs.dtype == np.float64
        assert inputs.tolist() == [1.0, 0.5, 0.0, 2.0]

    @pytest.mark.parametrize("inputs, shape", [
        (b"[]", (0,)), (b"[[], []]", (2, 0)), (b"[[[[0.5]]]]", (1, 1, 1, 1)),
        (b"[[[1, 2]], [[3, 4]]]", (2, 1, 2)),
    ])
    def test_shapes(self, inputs, shape):
        body = b'{"model": "m", "inputs": ' + inputs + b"}"
        decoded = _parse_predict(body)[2]
        assert decoded.shape == shape and decoded.dtype == np.float64
        assert decoded.tobytes() == np.asarray(
            json.loads(body)["inputs"], dtype=np.float64).tobytes()

    def test_integers_decode_to_doubles(self):
        inputs = _parse_predict(b'{"model": "m", "inputs": '
                                b'[[9007199254740993, -1], [0, 3]]}')[2]
        assert inputs.dtype == np.float64
        assert inputs.tolist() == [[2.0**53, -1.0], [0.0, 3.0]]


class TestLazyPackage:
    def test_artifact_and_registry_load_no_http_stack(self):
        # repro run's export and serve-check stages import only these
        code = ("import sys, repro.serving.artifact, repro.serving.registry\n"
                "print(sorted(set(sys.modules) & {'repro.serving.server', "
                "'repro.serving.batching', 'http.server', 'orjson'}))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60,
                                check=True)
        assert result.stdout.strip() == "[]"

    def test_exports_resolve_lazily(self):
        import repro.serving as serving

        for name in serving.__all__:
            assert getattr(serving, name) is not None
        assert serving.create_server is create_server
        assert set(serving.__all__) <= set(dir(serving))
        with pytest.raises(AttributeError, match="no_such_name"):
            serving.no_such_name  # noqa: B018


# ----------------------------------------------------------------------
# the JSON codec: exact decode of every finite double, exact encode
# ----------------------------------------------------------------------
_EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308)
_doubles = (st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(_EDGE_DOUBLES))


def _midpoint(x: float) -> str:
    """The exact decimal midpoint of *x* and its neighbour toward zero
    (toward +inf for a zero): a round-half-even tie for the parser."""
    neighbour = float(np.nextafter(x, 0.0)) if x != 0 else 5e-324
    with localcontext() as context:
        context.prec = 1200                 # > the 768 digits a tie needs
        return str((Decimal(x) + Decimal(neighbour)) / 2)


_literals = st.one_of(
    _doubles.map(repr),
    _doubles.map(lambda x: "%.40e" % x),
    _doubles.map(_midpoint),
    st.integers(-2**70, 2**70).map(str),
)


class TestJsonCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_literals, min_size=1, max_size=16))
    def test_decode_matches_the_stdlib_bit_for_bit(self, literals):
        body = ('{"model": "m", "inputs": [' + ", ".join(literals)
                + "]}").encode()
        expected = np.asarray(json.loads(body)["inputs"], dtype=np.float64)
        assert _parse_predict(body)[2].tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=4,
                                           min_side=0, max_side=5),
                  elements=_doubles))
    def test_nested_inputs_decode_like_a_float64_cast(self, inputs):
        body = json.dumps({"model": "m", "inputs": inputs.tolist()}).encode()
        expected = np.asarray(json.loads(body)["inputs"], dtype=np.float64)
        decoded = _parse_predict(body)[2]
        assert decoded.shape == expected.shape
        assert decoded.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 8),
                                        st.integers(1, 12)),
                  elements=_doubles))
    def test_scores_round_trip_through_the_encoder(self, scores):
        predictions = np.argmax(scores, axis=1)
        decoded = json.loads(_encode({"predictions": predictions,
                                      "scores": scores}))
        assert decoded["predictions"] == predictions.tolist()
        assert decoded["scores"] == scores.tolist()
        # bit for bit, so -0.0 survives too
        assert np.asarray(decoded["scores"]).tobytes() == scores.tobytes()
