"""Tests for repro.faults: deterministic fault models, the pipeline
``faults`` stage, resiliency reports, the chaos harness, and the
hardened explore executor (retry / quarantine / timeout / corrupt-record
healing / chaos bit-identity)."""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.asm.alphabet import ALPHA_2
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import Multiplier
from repro.datasets.registry import mlp
from repro.explore import (
    FAILED_STATUS,
    ExplorationJournal,
    SearchSpace,
    run_candidates,
    run_exploration,
)
from repro.faults import (
    ChaosConfig,
    ChaosCrash,
    FaultModelError,
    FaultSpec,
    ResiliencyPoint,
    ResiliencyReport,
    fault_network,
    fault_session,
    faulted_accuracy,
    format_resiliency_report,
)
from repro.faults import chaos
from repro.faults.models import (
    fault_activation_array,
    fault_mask,
    fault_weight_array,
    element_hash,
    flip_bit,
    saturate_codes,
)
from repro.fixedpoint.binary import signed_range
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.pipeline import Pipeline, PipelineConfig, PipelineConfigError

RNG = np.random.default_rng(11)

TINY = {"name": "tiny", "n_train": 250, "n_test": 120,
        "max_epochs": 3, "retrain_epochs": 2}

FAULT_STAGES = ("train", "quantize", "constrain", "evaluate", "faults")


def make_quantized(backend: str = "reference") -> QuantizedNetwork:
    net = mlp([1024, 24, 10], seed=3, name="digits")
    spec = QuantizationSpec(8, Multiplier(ALPHA_2),
                            constrainer=WeightConstrainer(8, ALPHA_2))
    return QuantizedNetwork.from_float(net, spec, backend=backend)


def tiny_space(**overrides) -> SearchSpace:
    base = dict(app="face", designs=("conventional", "asm1"),
                budgets=(TINY,), seeds=(0,))
    base.update(overrides)
    return SearchSpace(**base)


def record_bytes(journal_dir: str) -> dict:
    out = {}
    for path in sorted(glob.glob(
            os.path.join(journal_dir, "records", "*.json"))):
        with open(path, "rb") as handle:
            out[os.path.basename(path)] = handle.read()
    return out


# ----------------------------------------------------------------------
# fault models
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultModelError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray", rate=0.1)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultModelError, match="rate"):
            FaultSpec(kind="weight_bitflip", rate=1.5)
        with pytest.raises(FaultModelError, match="rate"):
            FaultSpec(kind="weight_bitflip", rate=-0.1)

    def test_round_trip(self):
        spec = FaultSpec(kind="activation_upset", rate=0.01, seed=5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultMechanics:
    def test_flip_bit_stays_in_range_and_involutes(self):
        codes = np.arange(-128, 128, dtype=np.int64)
        bits = RNG.integers(0, 8, size=codes.shape).astype(np.uint64)
        flipped = flip_bit(codes, bits, 8)
        low, high = signed_range(8)
        assert flipped.min() >= low and flipped.max() <= high
        assert np.array_equal(flip_bit(flipped, bits, 8), codes)
        assert not np.array_equal(flipped, codes)

    def test_saturate_follows_sign(self):
        low, high = signed_range(8)
        codes = np.array([-3, -1, 0, 2, 100], dtype=np.int64)
        assert saturate_codes(codes, 8).tolist() == \
            [low, low, high, high, high]

    def test_fault_mask_extremes_and_rate(self):
        hashes = element_hash(0, 0, np.arange(20000, dtype=np.uint64),
                              np.zeros(20000, dtype=np.int64))
        assert fault_mask(hashes, 0.0).sum() == 0
        assert fault_mask(hashes, 1.0).sum() == 20000
        frac = fault_mask(hashes, 0.5).mean()
        assert 0.45 < frac < 0.55      # splitmix64 is uniform enough

    def test_weight_fault_deterministic(self):
        w = RNG.integers(-100, 100, size=(64, 32)).astype(np.int64)
        spec = FaultSpec(kind="weight_bitflip", rate=0.05, seed=2)
        a, count_a = fault_weight_array(w, 8, spec, layer_index=0)
        b, count_b = fault_weight_array(w, 8, spec, layer_index=0)
        assert count_a == count_b > 0
        assert np.array_equal(a, b)
        # a different layer index faults different sites
        c, _ = fault_weight_array(w, 8, spec, layer_index=1)
        assert not np.array_equal(a, c)

    def test_weight_stuck_drives_zero(self):
        w = RNG.integers(1, 100, size=2048).astype(np.int64)  # no zeros
        spec = FaultSpec(kind="weight_stuck", rate=0.1, seed=0)
        faulted, count = fault_weight_array(w, 8, spec, layer_index=0)
        assert count > 0
        assert (faulted == 0).sum() == count

    def test_activation_faults_batch_split_invariant(self):
        codes = RNG.integers(-100, 100, size=(8, 50)).astype(np.int64)
        spec = FaultSpec(kind="activation_upset", rate=0.2, seed=1)
        whole, count = fault_activation_array(codes, 8, spec, 0)
        halves = np.concatenate([
            fault_activation_array(codes[:4], 8, spec, 0)[0],
            fault_activation_array(codes[4:], 8, spec, 0)[0]])
        assert count > 0
        assert np.array_equal(whole, halves)

    def test_zero_rate_returns_input_untouched(self):
        codes = RNG.integers(-10, 10, size=(4, 9)).astype(np.int64)
        spec = FaultSpec(kind="requantize_saturation", rate=0.0)
        faulted, count = fault_activation_array(codes, 8, spec, 0)
        assert count == 0
        assert faulted is codes

    def test_family_fences(self):
        w = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(FaultModelError, match="not a weight fault"):
            fault_weight_array(
                w, 8, FaultSpec("activation_upset", 0.1), 0)
        with pytest.raises(FaultModelError,
                           match="not an activation fault"):
            fault_activation_array(
                w, 8, FaultSpec("weight_bitflip", 0.1), 0)


class TestInjection:
    def test_weight_faults_leave_original_untouched(self):
        net = make_quantized()
        spec = FaultSpec(kind="weight_bitflip", rate=0.02, seed=0)
        before = [layer.w_int.copy() for layer in net.layers
                  if hasattr(layer, "w_int")]
        clone, injected = fault_network(net, spec)
        assert injected > 0
        after = [layer.w_int for layer in net.layers
                 if hasattr(layer, "w_int")]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)
        x = RNG.uniform(-1.0, 1.0, size=(8, 1024))
        assert not np.array_equal(net.forward(x), clone.forward(x))

    @pytest.mark.parametrize("kind", ["weight_bitflip", "weight_stuck",
                                      "activation_upset",
                                      "requantize_saturation"])
    def test_backend_and_batch_size_invariant(self, kind):
        spec = FaultSpec(kind=kind, rate=0.05, seed=3)
        x = RNG.uniform(-1.0, 1.0, size=(64, 1024))
        labels = RNG.integers(0, 10, size=64)
        ref = make_quantized("reference")
        fast = make_quantized("fast")
        acc_ref, inj_ref = faulted_accuracy(ref, spec, x, labels,
                                            batch_size=64)
        acc_fast, inj_fast = faulted_accuracy(fast, spec, x, labels,
                                              batch_size=64)
        acc_small, inj_small = faulted_accuracy(ref, spec, x, labels,
                                                batch_size=16)
        assert acc_ref == acc_fast == acc_small
        assert inj_ref == inj_fast == inj_small > 0

    def test_session_forward_bit_identical_across_backends(self):
        spec = FaultSpec(kind="activation_upset", rate=0.1, seed=4)
        x = RNG.uniform(-1.0, 1.0, size=(16, 1024))
        ref = make_quantized("reference")
        fast = make_quantized("fast")
        with fault_session(spec, ref):
            scores_ref = ref.forward(x)
        with fault_session(spec, fast):
            scores_fast = fast.forward(x)
        assert np.array_equal(scores_ref, scores_fast)
        # and the hook is gone: clean forwards agree with each other
        assert np.array_equal(ref.forward(x), fast.forward(x))

    def test_session_rejects_weight_kinds(self):
        net = make_quantized()
        with pytest.raises(FaultModelError, match="activation fault"):
            with fault_session(FaultSpec("weight_stuck", 0.1), net):
                pass

    def test_zero_rate_equals_clean_accuracy(self):
        net = make_quantized()
        x = RNG.uniform(-1.0, 1.0, size=(32, 1024))
        labels = RNG.integers(0, 10, size=32)
        spec = FaultSpec(kind="activation_upset", rate=0.0)
        accuracy, injected = faulted_accuracy(net, spec, x, labels)
        assert injected == 0
        assert accuracy == net.accuracy(x, labels)


# ----------------------------------------------------------------------
# pipeline faults stage
# ----------------------------------------------------------------------
class TestFaultsStage:
    def test_faults_stage_requires_rates(self):
        with pytest.raises(PipelineConfigError, match="fault_rates"):
            PipelineConfig(app="face", stages=FAULT_STAGES, budget=TINY)

    def test_bad_fault_kind_rejected(self):
        with pytest.raises(PipelineConfigError, match="fault_kind"):
            PipelineConfig(app="face", budget=TINY,
                           fault_rates=(0.01,), fault_kind="nope")

    def test_duplicate_rates_rejected(self):
        with pytest.raises(PipelineConfigError, match="duplicate"):
            PipelineConfig(app="face", budget=TINY,
                           fault_rates=(0.01, 0.01))

    def test_stage_runs_and_caches(self, tmp_path):
        config = PipelineConfig(
            app="face", designs=("conventional", "asm2"),
            stages=FAULT_STAGES, budget=TINY,
            cache_dir=str(tmp_path / "cache"),
            fault_rates=(0.005, 0.05), fault_kind="activation_upset")
        report = Pipeline(config).run()
        faults = report.require("faults")
        assert len(faults.rows) == 4            # 2 designs x 2 rates
        for row in faults.rows:
            clean = report.require("evaluate").row_for(row.design).accuracy
            assert row.degradation == pytest.approx(clean - row.accuracy)
            assert row.injected > 0
        # second run resumes from the stage cache, bit-equal
        resumed = Pipeline(config).run()
        assert "faults" in resumed.cached_stages
        assert resumed.faults == report.faults

    def test_resiliency_report_from_pipeline(self, tmp_path):
        config = PipelineConfig(
            app="face", designs=("conventional", "asm2"),
            stages=FAULT_STAGES, budget=TINY,
            cache_dir=str(tmp_path / "cache"), fault_rates=(0.01,))
        resiliency = ResiliencyReport.from_pipeline_report(
            Pipeline(config).run())
        assert resiliency.app == "face"
        assert resiliency.designs == ("conventional", "asm2")
        assert set(resiliency.clean) == {"conventional", "asm2"}
        assert len(resiliency.points) == 2
        text = format_resiliency_report(resiliency)
        assert "Resiliency" in text and "asm2" in text


# ----------------------------------------------------------------------
# resiliency report arithmetic
# ----------------------------------------------------------------------
def hand_report() -> ResiliencyReport:
    return ResiliencyReport(
        app="face", bits=12, kind="activation_upset", seed=0,
        budget="tiny", rates=(0.01, 0.05),
        designs=("conventional", "asm2"),
        clean={"conventional": 0.98, "asm2": 0.97},
        points=(
            ResiliencyPoint("conventional", 0.01, 0.97, 0.01, 10),
            ResiliencyPoint("conventional", 0.05, 0.95, 0.03, 50),
            ResiliencyPoint("asm2", 0.01, 0.955, 0.015, 11),
            ResiliencyPoint("asm2", 0.05, 0.94, 0.03, 49),
        ))


class TestResiliencyReport:
    def test_round_trip(self):
        report = hand_report()
        assert ResiliencyReport.from_dict(report.to_dict()) == report

    def test_worst_excess_degradation(self):
        # asm2 at 0.01 degrades 0.015 vs conventional 0.01 -> +0.5pp;
        # at 0.05 both degrade 0.03 -> 0pp.  Worst is +0.5pp.
        assert hand_report().worst_excess_degradation_pp() == \
            pytest.approx(0.5)

    def test_min_clean_accuracy(self):
        assert hand_report().min_clean_accuracy() == pytest.approx(0.97)

    def test_curve_sorted_by_rate(self):
        curve = hand_report().curve("asm2")
        assert [p.rate for p in curve] == [0.01, 0.05]

    def test_bench_results_gate_metrics_are_top_level(self):
        results = hand_report().bench_results()
        assert results["min_clean_accuracy"] == pytest.approx(0.97)
        assert results["worst_excess_degradation_pp"] == \
            pytest.approx(0.5)
        assert set(results["curves"]) == {"conventional", "asm2"}


# ----------------------------------------------------------------------
# chaos harness
# ----------------------------------------------------------------------
class TestChaos:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="crash_rate"):
            ChaosConfig(crash_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            ChaosConfig(crash_rate=0.6, slow_rate=0.6)

    def test_curse_deterministic_and_banded(self):
        digest = "ab" * 32
        config = ChaosConfig(crash_rate=0.3, slow_rate=0.3,
                             io_fault_rate=0.3, seed=9)
        assert config.curse(digest) == config.curse(digest)
        assert ChaosConfig(crash_rate=1.0).curse(digest) == "crash"
        assert ChaosConfig().curse(digest) is None

    def test_maybe_strike_respects_max_attempt(self):
        digest = "cd" * 32
        chaos.install(ChaosConfig(crash_rate=1.0, max_attempt=1))
        try:
            with pytest.raises(ChaosCrash):
                chaos.maybe_strike(digest, attempt=0)
            chaos.maybe_strike(digest, attempt=1)    # retries succeed
        finally:
            chaos.uninstall()

    def test_env_var_activation(self, monkeypatch):
        config = ChaosConfig(io_fault_rate=1.0, seed=3)
        monkeypatch.setenv(chaos.ENV_VAR, json.dumps(config.to_dict()))
        assert chaos.active() == config
        monkeypatch.setenv(chaos.ENV_VAR, json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="unknown chaos key"):
            chaos.active()

    def test_inactive_is_noop(self):
        chaos.maybe_strike("ef" * 32, attempt=0)


# ----------------------------------------------------------------------
# hardened executor
# ----------------------------------------------------------------------
class TestHardenedExecutor:
    def test_chaos_journal_bit_identical_to_fault_free(self, tmp_path,
                                                       monkeypatch):
        space = tiny_space()
        configs = space.grid()
        # pick a chaos seed (pure hash, so this search is instant) that
        # curses at least one candidate's first attempt
        for seed in range(200):
            config = ChaosConfig(crash_rate=0.5, seed=seed)
            cursed = sum(1 for c in configs
                         if config.curse(c.digest()) is not None)
            if cursed >= 1:
                break
        assert cursed >= 1
        clean_dir = str(tmp_path / "clean")
        clean = run_exploration(space, clean_dir, jobs=1)
        assert clean.failed == 0

        monkeypatch.setenv(chaos.ENV_VAR, json.dumps(config.to_dict()))
        chaotic_dir = str(tmp_path / "chaotic")
        chaotic = run_exploration(space, chaotic_dir, jobs=2)
        assert chaotic.failed == 0
        # every cursed first attempt retried and succeeded: the journal
        # is byte-identical to the fault-free run's
        assert record_bytes(chaotic_dir) == record_bytes(clean_dir)
        assert chaotic.to_dict()["records"] == clean.to_dict()["records"]

    def test_quarantine_and_resume_skip(self, tmp_path):
        space = tiny_space()
        configs = space.grid()
        journal = ExplorationJournal.open(str(tmp_path / "journal"),
                                          space)
        chaos.install(ChaosConfig(crash_rate=1.0, max_attempt=99))
        try:
            records, stats = run_candidates(
                configs, journal=journal, jobs=1, max_retries=1,
                backoff_s=0.001)
        finally:
            chaos.uninstall()
        assert stats["failed"] == len(configs)
        assert stats["retries"] == len(configs)          # 1 retry each
        for record in records:
            assert record["status"] == FAILED_STATUS
            assert record["error_type"] == "ChaosCrash"
            assert record["attempts"] == 2
            assert record["config"]["cache_dir"] is None
        # resume skips quarantined candidates entirely (no chaos now)
        records2, stats2 = run_candidates(configs, journal=journal,
                                          jobs=1)
        assert stats2["journal_hits"] == len(configs)
        assert stats2["evaluated"] == 0
        assert records2 == records

    def test_quarantined_excluded_from_report(self, tmp_path):
        space = tiny_space()
        chaos.install(ChaosConfig(crash_rate=1.0, max_attempt=99))
        try:
            report = run_exploration(space, str(tmp_path / "journal"),
                                     jobs=1, max_retries=0)
        finally:
            chaos.uninstall()
        assert report.failed == len(space.grid())
        assert report.records == ()
        assert report.frontier == ()
        assert report.to_dict()["failed"] == report.failed

    def test_timeout_then_retry_succeeds(self, tmp_path):
        space = tiny_space(designs=("conventional",))
        (config,) = space.grid(str(tmp_path / "cache"))
        # warm the stage cache so the clean retry is all cache hits and
        # finishes well inside the 1s deadline even on a slow host
        Pipeline(config).run()
        journal = ExplorationJournal.open(str(tmp_path / "journal"),
                                          space)
        # first attempt stalls 30s; the 1s deadline kills it, the retry
        # is past max_attempt and runs clean
        chaos.install(ChaosConfig(slow_rate=1.0, slow_s=30.0,
                                  max_attempt=1))
        started = time.monotonic()
        try:
            records, stats = run_candidates(
                [config], journal=journal, jobs=1, timeout_s=1.0,
                backoff_s=0.001)
        finally:
            chaos.uninstall()
        assert time.monotonic() - started < 25.0      # did not sleep 30s
        assert stats["retries"] == 1
        assert stats["failed"] == 0
        assert records[0]["metrics"]["accuracy"] > 0.5

    def test_corrupt_record_heals_on_resume(self, tmp_path, capfd):
        space = tiny_space(designs=("conventional",))
        journal_dir = str(tmp_path / "journal")
        run_exploration(space, journal_dir, jobs=1)
        before = record_bytes(journal_dir)
        (victim,) = glob.glob(os.path.join(journal_dir, "records",
                                           "*.json"))
        with open(victim, "w") as handle:
            handle.write('{"format": 1, "config_digest": "trunc')
        capfd.readouterr()
        report = run_exploration(space, journal_dir, jobs=1)
        assert report.journal_hits == 0
        assert report.evaluated == 1
        assert "corrupt journal record" in capfd.readouterr().err
        assert record_bytes(journal_dir) == before

    def test_non_dict_record_is_silent_miss(self, tmp_path):
        space = tiny_space()
        journal = ExplorationJournal.open(str(tmp_path / "journal"),
                                          space)
        digest = space.grid()[0].digest()
        with open(os.path.join(journal.records_dir,
                               f"{digest}.json"), "w") as handle:
            json.dump([1, 2, 3], handle)
        assert journal.load_record(digest) is None


# ----------------------------------------------------------------------
# SIGTERM mid-exploration: crash-safe journals and a well-formed trace
# ----------------------------------------------------------------------
class TestSigtermExplore:
    def test_no_orphan_temp_files_and_resumable(self, tmp_path):
        space_path = tmp_path / "space.json"
        space = tiny_space(seeds=(0, 1),
                           budgets=({**TINY, "max_epochs": 6},))
        space_path.write_text(json.dumps(space.to_dict()))
        journal_dir = str(tmp_path / "journal")
        trace_path = str(tmp_path / "trace.jsonl")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(os.path.dirname(
                       os.path.dirname(os.path.abspath(__file__))),
                       "src"))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "explore",
             str(space_path), "--jobs", "2", "--journal", journal_dir,
             "--trace", trace_path, "--quiet"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        time.sleep(3.0)                  # let workers get mid-candidate
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=30.0)

        # crash safety: atomic writes leave no orphaned temp files
        # anywhere under the journal (records or shared stage cache)
        strays = glob.glob(os.path.join(journal_dir, "**", "*.tmp"),
                           recursive=True)
        assert strays == []
        for path in glob.glob(os.path.join(journal_dir, "records",
                                           "*.json")):
            with open(path) as handle:
                json.load(handle)        # every record parses

        # the one trace file is line-buffered: its meta line and every
        # line completed before the SIGTERM are intact JSONL
        with open(trace_path) as handle:
            lines = handle.readlines()
        assert json.loads(lines[0])["type"] == "meta"
        for line in lines:
            if line.endswith("\n"):
                json.loads(line)

        # and the journal resumes to completion
        report = run_exploration(space, journal_dir, jobs=1)
        assert len(report.records) == len(space.grid())
        assert report.failed == 0
