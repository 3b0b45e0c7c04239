"""Tests for the compute-kernel layer (`repro.kernels`).

The load-bearing property is *bit-identity*: the fast (BLAS-in-float64)
backend must match the reference (exact integer) backend to the last bit
across word widths, alphabet sets, mixed per-layer plans and fallback
policies — it is the foundation of the serving stack's correctness and
of sharing pipeline cache entries across backends.
"""

import numpy as np
import pytest

from repro.asm.alphabet import ALPHA_2, standard_set
from repro.asm.multiplier import (
    FALLBACK_POLICIES,
    Multiplier,
    effective_weight_table,
)
from repro.datasets.registry import lenet, mlp
from repro.fixedpoint.qformat import QFormat
from repro.kernels import (
    BACKEND_NAMES,
    KernelBackendError,
    batched_accuracy,
    blas_exact,
    get_backend,
    quantize_codes_f64,
    register_backend,
)
from repro.kernels.registry import _REGISTRY, KernelBackend
from repro.nn.activations import Sigmoid
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork, _QuantDense
from repro.pipeline.config import PipelineConfig, PipelineConfigError

RNG = np.random.default_rng(17)


def random_batch(n: int, width: int) -> np.ndarray:
    return RNG.uniform(-1.0, 1.0, size=(n, width))


def assert_backends_identical(quantized: QuantizedNetwork,
                              x: np.ndarray) -> None:
    reference = quantized.with_backend("reference")
    fast = quantized.with_backend("fast")
    assert np.array_equal(reference.forward(x), fast.forward(x))
    assert np.array_equal(reference.predict(x), fast.predict(x))


class TestRegistry:
    def test_builtin_backends(self):
        assert set(BACKEND_NAMES) == {"reference", "fast", "auto"}
        assert get_backend("reference").name == "reference"
        assert get_backend("fast").name == "fast"

    def test_auto_resolves_to_fast(self):
        assert get_backend("auto") is get_backend("fast")
        assert get_backend() is get_backend("fast")

    def test_instance_passthrough(self):
        backend = get_backend("reference")
        assert get_backend(backend) is backend

    def test_unknown_backend(self):
        with pytest.raises(KernelBackendError, match="unknown"):
            get_backend("simd")

    def test_duplicate_registration(self):
        probe = KernelBackend()
        register_backend("test-probe", probe)
        try:
            with pytest.raises(KernelBackendError, match="registered"):
                register_backend("test-probe", probe)
            register_backend("test-probe", probe, replace=True)
        finally:
            del _REGISTRY["test-probe"]


class TestFastReferenceEquivalence:
    """The seeded-random equivalence suite of the exactness guarantee."""

    @pytest.mark.parametrize("bits", [8, 12])
    @pytest.mark.parametrize("count", [1, 2, 4, 8])
    def test_constrained_mlp(self, bits, count):
        net = mlp([64, 24, 10], seed=bits + count)
        spec = QuantizationSpec.constrained(
            bits, Multiplier(standard_set(count)))
        quantized = QuantizedNetwork.from_float(net, spec)
        assert_backends_identical(quantized, random_batch(33, 64))

    @pytest.mark.parametrize("bits", [8, 12])
    def test_conventional_mlp(self, bits):
        net = mlp([64, 24, 10], seed=bits)
        quantized = QuantizedNetwork.from_float(net, QuantizationSpec(bits))
        assert_backends_identical(quantized, random_batch(33, 64))

    @pytest.mark.parametrize("fallback",
                             [f for f in FALLBACK_POLICIES if f != "error"])
    @pytest.mark.parametrize("bits", [8, 12])
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_fallback_policies(self, bits, count, fallback):
        """Post-hoc deployment (no constraining) under every fallback."""
        net = mlp([64, 24, 10], seed=count)
        spec = QuantizationSpec(bits, Multiplier(standard_set(count)),
                                fallback=fallback)
        quantized = QuantizedNetwork.from_float(net, spec)
        assert_backends_identical(quantized, random_batch(33, 64))

    @pytest.mark.parametrize("bits", [8, 12])
    def test_mixed_per_layer_plan(self, bits):
        """§VI.E-style mixed plan: MAN first layer, exact second."""
        net = mlp([64, 24, 10], seed=3)
        layer_specs = [
            QuantizationSpec.constrained(bits, Multiplier(standard_set(1))),
            QuantizationSpec(bits),
        ]
        quantized = QuantizedNetwork.from_float(
            net, QuantizationSpec(bits), layer_specs=layer_specs)
        assert_backends_identical(quantized, random_batch(33, 64))

    @pytest.mark.parametrize("use_lut", [False, True])
    def test_cnn_with_pool(self, use_lut):
        """Conv + scaled-avg-pool + dense, with and without the LUT."""
        net = lenet(10, seed=4)
        spec = QuantizationSpec.constrained(12, Multiplier(ALPHA_2))
        quantized = QuantizedNetwork.from_float(net, spec, use_lut=use_lut)
        x = RNG.uniform(-1.0, 1.0, size=(3, 1, 32, 32))
        assert_backends_identical(quantized, x)

    def test_quantize_codes_f64_matches_int_path(self):
        fmt = QFormat(8, 7)
        values = RNG.normal(scale=0.7, size=(50, 20))
        values[0, :3] = [2.0, -2.0, 0.5 * fmt.resolution]  # saturate + tie
        codes = quantize_codes_f64(values, fmt)
        assert codes.dtype == np.float64
        np.testing.assert_array_equal(codes.astype(np.int64),
                                      fmt.quantize_array(values))


class TestFallbackLowering:
    def test_blas_exact_bound(self):
        act_fmt = QFormat(8, 7)
        w = np.full((100, 10), 127, dtype=np.int64)
        assert blas_exact(w, 100, act_fmt)
        # fan_in * max|W| * max|x| >= 2**53 -> not provably exact
        huge = np.full((4, 4), 2 ** 40, dtype=np.int64)
        assert not blas_exact(huge, 4096, QFormat(8, 7))
        assert blas_exact(np.empty((0, 4), dtype=np.int64), 0, act_fmt)

    def test_inexact_layer_falls_back_bit_identically(self):
        """A layer over the 2**53 bound runs on the integer kernels even
        under the fast backend — and still matches exactly."""
        act_fmt = QFormat(40, 39)
        w_int = RNG.integers(-(2 ** 30), 2 ** 30, size=(64, 10),
                             dtype=np.int64)
        layer = _QuantDense(w_int, QFormat(40, 39), np.zeros(10), Sigmoid(),
                            act_fmt, None, is_output=True)
        fast = get_backend("fast")
        assert fast.lowering(layer) == "integer"
        x = RNG.integers(-(2 ** 20), 2 ** 20, size=(7, 64), dtype=np.int64)
        ref_out, _ = get_backend("reference").dense(layer, x, act_fmt)
        fast_out, _ = fast.dense(layer, x.astype(np.float64), act_fmt)
        np.testing.assert_array_equal(ref_out, fast_out)

    def test_exact_layer_reports_blas(self):
        net = mlp([64, 24, 10], seed=5)
        quantized = QuantizedNetwork.from_float(net, QuantizationSpec(8))
        fast = get_backend("fast")
        assert [fast.lowering(layer) for layer in quantized.layers] == \
            ["blas", "blas"]


class TestDirectKernelMethodParity:
    """Call each abstract KernelBackend method directly on both built-in
    backends — the interface-level counterpart of the network-level
    identity suites, so no kernel family can drop out of test coverage
    unnoticed (enforced by lint rule RPR003)."""

    def test_quantize_input_identical(self):
        fmt = QFormat(8, 7)
        x = RNG.normal(scale=0.6, size=(20, 12))
        ref_codes = get_backend("reference").quantize_input(x, fmt)
        fast_codes = get_backend("fast").quantize_input(x, fmt)
        assert ref_codes.dtype == np.int64
        assert fast_codes.dtype == np.float64     # fast carrier dtype
        np.testing.assert_array_equal(ref_codes,
                                      fast_codes.astype(np.int64))

    def test_simulate_layer_identical(self):
        weights = RNG.integers(-100, 101, size=(16, 5))
        inputs = RNG.integers(-120, 121, size=16)
        ref = get_backend("reference").simulate_layer(
            weights, inputs, 4, (3, 5))
        fast = get_backend("fast").simulate_layer(
            weights, inputs, 4, (3, 5))
        assert ref == fast
        assert ref.cycles == 16 * 2               # two lane groups

    def test_project_weights_identical(self):
        from repro.asm.constraints import WeightConstrainer

        constrainer = WeightConstrainer(8, ALPHA_2)
        weights = RNG.normal(scale=0.4, size=(12, 6))
        ref = get_backend("reference").project_weights(
            weights.copy(), 8, constrainer, {})
        fast = get_backend("fast").project_weights(
            weights.copy(), 8, constrainer, {})
        np.testing.assert_array_equal(ref, fast)


class TestEffectiveWeightTableReuse:
    def test_public_function_hits_the_memoized_table(self):
        from repro.asm.multiplier import AlphabetSetMultiplier

        table = effective_weight_table(8, ALPHA_2, "nearest")
        via_multiplier = AlphabetSetMultiplier(
            8, ALPHA_2, fallback="nearest").effective_weight_table()
        assert table is via_multiplier
        assert not table.flags.writeable

    def test_bad_fallback_rejected(self):
        with pytest.raises(ValueError, match="fallback"):
            effective_weight_table(8, ALPHA_2, "zero")
        with pytest.raises(ValueError, match="fallback"):
            QuantizationSpec(8, Multiplier(ALPHA_2), fallback="zero")


class TestBatchedAccuracy:
    def predict_mod(self, x):
        # per-sample deterministic: class = first feature mod 3
        return np.asarray(x)[:, 0].astype(np.int64) % 3

    def test_independent_of_batch_size(self):
        net = mlp([64, 24, 10], seed=6)
        quantized = QuantizedNetwork.from_float(net, QuantizationSpec(8))
        x = random_batch(100, 64)
        labels = RNG.integers(0, 10, size=100)
        accs = {quantized.accuracy(x, labels, batch_size=b)
                for b in (1, 7, 100, 512)}
        assert len(accs) == 1

    def test_counts_correct_predictions(self):
        x = np.repeat(np.arange(10.0)[:, None], 4, axis=1)
        labels = (np.arange(10) % 3).astype(np.int64)
        labels[0] = 2  # one miss
        assert batched_accuracy(self.predict_mod, x, labels,
                                batch_size=4) == pytest.approx(0.9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            batched_accuracy(self.predict_mod, np.zeros((3, 4)),
                             np.zeros(4))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            batched_accuracy(self.predict_mod, np.zeros((3, 4)),
                             np.zeros(3), batch_size=0)

    def test_empty(self):
        assert batched_accuracy(self.predict_mod, np.zeros((0, 4)),
                                np.zeros(0)) == 0.0


class TestPipelinePlumbing:
    def test_config_round_trip_and_validation(self):
        config = PipelineConfig(app="mnist_mlp", backend="fast",
                                eval_batch_size=64)
        assert PipelineConfig.from_dict(config.to_dict()) == config
        with pytest.raises(PipelineConfigError, match="backend"):
            PipelineConfig(app="mnist_mlp", backend="simd")
        with pytest.raises(PipelineConfigError, match="eval_batch_size"):
            PipelineConfig(app="mnist_mlp", eval_batch_size=0)

    def test_stage_keys_shared_across_backends(self):
        """backend / eval_batch_size must not split the stage cache."""
        from repro.pipeline.pipeline import Pipeline

        base = PipelineConfig(app="mnist_mlp",
                              designs=("conventional", "asm1"))
        variants = [base.with_overrides(backend="reference"),
                    base.with_overrides(backend="fast"),
                    base.with_overrides(eval_batch_size=7)]
        plan = Pipeline(base).plan()
        for stage in plan:
            keys = {Pipeline(cfg).stage_key(stage, plan)
                    for cfg in [base] + variants}
            assert len(keys) == 1, stage

    def test_backend_changes_config_digest(self):
        base = PipelineConfig(app="mnist_mlp")
        assert base.digest() != \
            base.with_overrides(backend="reference").digest()

    def test_cli_backend_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "cfg.json", "--backend", "fast"])
        assert args.backend == "fast"
        for flag in ("--sim-backend", "--train-backend"):
            with pytest.raises(SystemExit):
                parser.parse_args(["run", "cfg.json", flag, "fast"])
        # explore candidates always run on the config default ("auto")
        with pytest.raises(SystemExit):
            parser.parse_args(["explore", "space.toml",
                               "--backend", "reference"])

    def test_pipeline_designs_bit_identical_across_backends(self, tmp_path):
        """Acceptance: conventional, asm1 and a mixed design deploy
        bit-identically on both backends after a real (tiny) pipeline."""
        from repro.pipeline.config import Budget
        from repro.pipeline.pipeline import Pipeline
        from repro.pipeline.stages import PipelineContext

        config = PipelineConfig(
            app="mnist_mlp", designs=("conventional", "asm1", "mixed:1-0"),
            stages=("train", "quantize", "constrain", "evaluate"),
            budget=Budget("tiny", n_train=120, n_test=60, max_epochs=2,
                          retrain_epochs=1),
            cache_dir=str(tmp_path / "cache"))
        ctx = PipelineContext(config)
        report = Pipeline(config).run(context=ctx)
        _, x_test = ctx.arrays()
        for design in ("asm1", "mixed:1-0"):
            quantized = ctx.design_quantized(design)
            assert_backends_identical(quantized, x_test)
        # the conventional baseline too
        ctx.model.load_state(ctx.train_state)
        baseline = QuantizedNetwork.from_float(
            ctx.model, QuantizationSpec(ctx.bits))
        assert_backends_identical(baseline, x_test)
        assert report.evaluate is not None
