"""Bit-identity of the fast training kernels (forward/backward/update).

The fast backend of :mod:`repro.kernels.training` compiles a per-network
training plan (cached im2col gathers, fused activation derivatives,
preallocated gradient buffers, in-place momentum SGD) and claims
bit-identical results to the reference per-layer loops.  This suite
enforces the claim end to end: seeded ``Trainer.fit`` runs must produce
byte-equal :class:`TrainHistory` and final network state across MLPs,
LeNet-style conv stacks (with and without connection tables), ragged
final batches and projected-SGD retraining (``post_step``) — plus
direct kernel-call parity, the train-backend plumbing, stage-cache
neutrality and the epoch telemetry counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import obs
from repro.asm.alphabet import ALPHA_2
from repro.kernels import get_backend
from repro.kernels.training import (
    _FALLBACK,
    _activation_forward,
    _build_plan,
    _ConvPlan,
    _DensePlan,
    _fused_activation,
    _PoolPlan,
)
from repro.nn.activations import Identity, ReLU, Sigmoid, Tanh
from repro.nn.layers import Conv2D, Dense, Flatten, ScaledAvgPool2D
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer
from repro.training.constrained import (
    ConstraintProjector,
    constrained_trainer,
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# network builders (seeded twins for reference / fast runs)
# ----------------------------------------------------------------------
def build_mlp(seed=3, hidden_act="sigmoid"):
    rng = np.random.default_rng(seed)
    return Sequential([
        Dense(20, 16, activation=hidden_act, rng=rng),
        Dense(16, 10, activation="identity", rng=rng),
    ])


def build_conv(seed=3, table=False):
    rng = np.random.default_rng(seed)
    ct = None
    if table:
        ct = np.zeros((4, 2), dtype=bool)
        ct[0, 0] = ct[1, 1] = ct[2, :] = ct[3, 0] = True
    return Sequential([
        Conv2D(2, 4, 3, activation="tanh", connection_table=ct, rng=rng),
        ScaledAvgPool2D(4, 2, activation="tanh"),
        Conv2D(4, 6, 3, activation="tanh", rng=rng),
        Flatten(),
        Dense(6 * 16, 10, activation="identity", rng=rng),
    ], input_spatial=(14, 14))


def state_bytes(network):
    return b"".join(param.tobytes() for layer in network.state()
                    for param in layer.values())


def fit_once(build, backend, shape=(20,), n=37, batch=8, epochs=2,
             post_step_bits=None):
    """One seeded ``fit`` run; n=37 with batch=8 leaves a ragged tail."""
    network = build()
    network.set_train_backend(backend)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(n, *shape))
    y = np.eye(10)[rng.integers(0, 10, size=n)]
    x_val = rng.normal(size=(11, *shape))
    y_val = rng.integers(0, 10, size=11)
    optimizer = SGD(network, learning_rate=0.05, momentum=0.9)
    if post_step_bits is not None:
        projector = ConstraintProjector(network, post_step_bits, ALPHA_2)
        trainer = constrained_trainer(network, optimizer, projector,
                                      batch_size=batch,
                                      rng=np.random.default_rng(5))
    else:
        trainer = Trainer(network, optimizer, batch_size=batch,
                          rng=np.random.default_rng(5))
    history = trainer.fit(x, y, x_val, y_val, max_epochs=epochs)
    return history, state_bytes(network)


def assert_identical_runs(build, shape=(20,), **kwargs):
    ref_hist, ref_state = fit_once(build, "reference", shape=shape,
                                   **kwargs)
    fast_hist, fast_state = fit_once(build, "fast", shape=shape, **kwargs)
    assert ref_hist.losses == fast_hist.losses
    assert ref_hist.accuracies == fast_hist.accuracies
    assert ref_state == fast_state


# ----------------------------------------------------------------------
# end-to-end training bit-identity
# ----------------------------------------------------------------------
class TestTrainingBitIdentity:
    """fast fit == reference fit, history and weights byte for byte."""

    def test_mlp_identical(self):
        assert_identical_runs(build_mlp)

    def test_mlp_relu_tanh_identical(self):
        def build():
            rng = np.random.default_rng(3)
            return Sequential([
                Dense(20, 16, activation="relu", rng=rng),
                Dense(16, 12, activation="tanh", rng=rng),
                Dense(12, 10, activation="identity", rng=rng),
            ])
        assert_identical_runs(build)

    def test_conv_stack_identical(self):
        assert_identical_runs(build_conv, shape=(2, 14, 14))

    def test_connection_table_identical(self):
        assert_identical_runs(lambda: build_conv(table=True),
                              shape=(2, 14, 14))

    def test_ragged_single_sample_tail(self):
        """n % batch == 1: the smallest possible final batch."""
        assert_identical_runs(build_mlp, n=33, batch=16)

    def test_projected_sgd_identical(self):
        """Constrained retraining: projection rebinds every weight
        tensor after each step, forcing plan revalidation."""
        assert_identical_runs(build_mlp, post_step_bits=8, epochs=3)


# ----------------------------------------------------------------------
# direct kernel-call parity
# ----------------------------------------------------------------------
class TestDirectKernelParity:
    """train_forward / train_backward / sgd_update called directly."""

    def _twins(self):
        return build_mlp(), build_mlp()

    def test_train_forward_identical(self):
        net_ref, net_fast = self._twins()
        x = np.random.default_rng(1).normal(size=(9, 20))
        ref = get_backend("reference").train_forward(net_ref, x)
        fast = get_backend("fast").train_forward(net_fast, x)
        assert ref.tobytes() == fast.tobytes()

    def test_train_backward_identical(self):
        net_ref, net_fast = self._twins()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 20))
        grad = rng.normal(size=(9, 10))
        get_backend("reference").train_forward(net_ref, x)
        get_backend("fast").train_forward(net_fast, x)
        gx_ref = get_backend("reference").train_backward(net_ref, grad)
        gx_fast = get_backend("fast").train_backward(net_fast, grad)
        assert gx_ref.tobytes() == gx_fast.tobytes()
        for layer_ref, layer_fast in zip(net_ref.layers, net_fast.layers):
            assert set(layer_ref.grads) == set(layer_fast.grads)
            for key in layer_ref.grads:
                assert layer_ref.grads[key].tobytes() == \
                    layer_fast.grads[key].tobytes()

    def test_sgd_update_identical(self):
        net_ref, net_fast = self._twins()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 20))
        grad = rng.normal(size=(9, 10))
        vel_ref, vel_fast = {}, {}
        for step in range(4):  # momentum state carries across steps
            for network, velocity, backend in (
                    (net_ref, vel_ref, "reference"),
                    (net_fast, vel_fast, "fast")):
                be = get_backend(backend)
                be.train_forward(network, x)
                be.train_backward(network, grad)
                be.sgd_update(network, velocity, 0.05, 0.9)
        assert state_bytes(net_ref) == state_bytes(net_fast)
        assert set(vel_ref) == set(vel_fast)
        for slot in vel_ref:
            assert vel_ref[slot].tobytes() == vel_fast[slot].tobytes()

    def test_fast_falls_back_on_float32(self):
        """Non-float64 inputs bypass the plans but still train."""
        net_ref, net_fast = self._twins()
        net_fast.set_train_backend("fast")
        x = np.random.default_rng(4).normal(size=(5, 20)).astype(
            np.float32)
        ref = net_ref.forward(x.astype(np.float64))
        fast = net_fast.forward(x)
        np.testing.assert_allclose(ref, fast, rtol=1e-6)


class TestPlanDispatch:
    """Plans and fused derivatives are proven for the built-in classes
    only: a subclass that may override ``forward`` runs its own
    ``forward``/``backward``."""

    def test_builtins_planned_and_subclasses_fall_back(self):
        class CustomDense(Dense):
            pass

        class CustomSigmoid(Sigmoid):
            pass

        flat, maps = np.zeros((4, 6)), np.zeros((4, 2, 8, 8))
        assert isinstance(_build_plan(Dense(6, 3), flat), _DensePlan)
        assert isinstance(_build_plan(Conv2D(2, 3, 3), maps), _ConvPlan)
        assert isinstance(_build_plan(ScaledAvgPool2D(2), maps), _PoolPlan)
        for activation in (Identity(), Sigmoid(), Tanh(), ReLU()):
            assert _fused_activation(activation)
        assert _build_plan(CustomDense(6, 3), flat) is _FALLBACK
        assert not _fused_activation(CustomSigmoid())
        assert _build_plan(Dense(6, 3, activation=CustomSigmoid()),
                           flat) is _FALLBACK


def grads_bytes(network):
    return [(key, layer.grads[key].tobytes())
            for layer in network.layers for key in sorted(layer.grads)]


def build_flatten_first(seed=3):
    """No parameters below the first trainable layer."""
    rng = np.random.default_rng(seed)
    return Sequential([Flatten(), Dense(8, 10, activation="sigmoid",
                                        rng=rng)])


class TestInputGradSkip:
    """``train_backward(..., input_grad=False)`` — the trainer's call —
    returns ``None`` and leaves every layer's ``grads`` as the full
    backward pass does."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("build, shape", [
        (build_mlp, (20,)),
        (build_conv, (2, 14, 14)),
        (lambda: build_conv(table=True), (2, 14, 14)),
        (build_flatten_first, (2, 2, 2)),
    ], ids=["mlp", "conv", "conv_table", "flatten_first"])
    def test_grads_match_full_pass(self, backend, build, shape):
        be = get_backend(backend)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, *shape))
        grad = rng.normal(size=(9, 10))
        full, skipped = build(), build()
        be.train_forward(full, x)
        assert be.train_backward(full, grad).shape == x.shape
        be.train_forward(skipped, x)
        assert be.train_backward(skipped, grad, input_grad=False) is None
        assert grads_bytes(skipped) == grads_bytes(full)


#: float64 sigmoid inputs that seek out the edges: ±0.0, subnormals and
#: ±inf (all drawn by ``st.floats``), |z| where exp(-|z|) rounds to 1,
#: and |z| where exp over/underflows
_SIGMOID_INPUTS = st.one_of(
    st.floats(allow_nan=False),
    st.floats(min_value=700.0, max_value=750.0),
    st.floats(min_value=-750.0, max_value=-700.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 2.0 ** -53, -2.0 ** -53,
                     2.0 ** -52, -2.0 ** -52, 708.3964185322641,
                     709.782712893384, -709.782712893384,
                     745.1332191019411, -745.1332191019411]))


class TestMaskFreeSigmoid:
    """The fast plans' sigmoid, ``e = exp(-|z|)`` then ``1/(1+e)`` or
    ``e/(1+e)``, is byte for byte ``Sigmoid.forward``.

    NaN is not drawn: a NaN input gives NaN on both paths, but
    ``-|z|`` may flip its sign bit, which ``tobytes()`` would show.
    """

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3,
                                           max_side=9),
                  elements=_SIGMOID_INPUTS),
           st.booleans())
    def test_bytes_equal_sigmoid_forward(self, z, transposed):
        if transposed:        # a strided input, like a conv plan's view
            z = z.T
        activation = Sigmoid()
        assert _fused_activation(activation)
        fast = _activation_forward(activation, z, np.empty_like(z),
                                   np.empty(z.shape))
        assert fast.tobytes() == activation.forward(z).tobytes()


# ----------------------------------------------------------------------
# backend plumbing
# ----------------------------------------------------------------------
class TestTrainBackendPlumbing:
    def test_default_is_reference(self):
        assert build_mlp().train_kernel.name == "reference"

    def test_auto_resolves_to_fast(self):
        network = build_mlp()
        network.set_train_backend("auto")
        assert network.train_kernel.name == "fast"
        assert network.train_kernel is get_backend("auto")

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception):
            build_mlp().set_train_backend("gpu")

    def test_config_backend_drives_training(self):
        from repro.pipeline.config import PipelineConfig
        from repro.pipeline.stages import PipelineContext

        for name in ("reference", "fast"):
            ctx = PipelineContext(PipelineConfig(app="mnist_mlp",
                                                 backend=name))
            assert ctx.model.train_kernel.name == name


class TestTrainBackendCacheNeutrality:
    """Runs differing only in backend (which also picks the training
    kernels) share every cache entry."""

    BUDGET = {"name": "micro", "n_train": 60, "n_test": 30,
              "max_epochs": 1, "retrain_epochs": 1}

    def _pipeline(self, **overrides):
        from repro.pipeline.config import PipelineConfig
        from repro.pipeline.pipeline import Pipeline

        base = dict(app="mnist_mlp", designs=("conventional", "asm1"),
                    stages=("train", "quantize", "constrain", "evaluate"),
                    budget=self.BUDGET)
        base.update(overrides)
        return Pipeline(PipelineConfig(**base))

    def test_stage_keys_identical_across_backends(self):
        fast = self._pipeline()                     # default "auto"
        reference = self._pipeline(backend="reference")
        plan = fast.plan()
        assert plan == reference.plan()
        for stage in plan:
            assert fast.stage_key(stage, plan) == \
                reference.stage_key(stage, plan), stage

    def test_backends_produce_identical_reports(self):
        fast = self._pipeline().run()
        reference = self._pipeline(backend="reference").run()
        assert fast.evaluate == reference.evaluate
        assert fast.train == reference.train


# ----------------------------------------------------------------------
# trainer validation + telemetry satellites
# ----------------------------------------------------------------------
class TestTrainerValidation:
    def test_mismatched_validation_pair_rejected(self):
        network = build_mlp()
        trainer = Trainer(network, SGD(network), batch_size=8)
        x = np.zeros((10, 20))
        y = np.eye(10)[np.zeros(10, dtype=int)]
        with pytest.raises(ValueError, match="validation"):
            trainer.fit(x, y, np.zeros((5, 20)),
                        np.zeros(4, dtype=int))

    def test_mismatched_training_pair_rejected(self):
        network = build_mlp()
        trainer = Trainer(network, SGD(network), batch_size=8)
        with pytest.raises(ValueError, match="training"):
            trainer.fit(np.zeros((10, 20)),
                        np.eye(10)[np.zeros(9, dtype=int)],
                        np.zeros((5, 20)), np.zeros(5, dtype=int))


class TestTrainingTelemetry:
    def _epoch(self, backend):
        network = build_mlp()
        network.set_train_backend(backend)
        trainer = Trainer(network, SGD(network), batch_size=8,
                          rng=np.random.default_rng(5))
        rng = np.random.default_rng(7)
        x = rng.normal(size=(37, 20))
        y = np.eye(10)[rng.integers(0, 10, size=37)]
        trainer.train_epoch(x, y)

    def test_epoch_counters(self):
        obs.enable()
        self._epoch("fast")
        registry = obs.registry()
        assert registry.counter("train.batches").value == 5.0
        assert registry.counter("train.samples").value == 37.0
        assert registry.counter("kernels.calls", backend="fast",
                                kernel="train_step").value == 5.0
        assert registry.counter("kernels.seconds", backend="fast",
                                kernel="train_step").value > 0.0

    def test_backend_labels_the_counter(self):
        obs.enable()
        self._epoch("reference")
        assert obs.registry().counter(
            "kernels.calls", backend="reference",
            kernel="train_step").value == 5.0

    def test_disabled_obs_records_nothing(self):
        self._epoch("fast")
        assert obs.registry().counter("train.batches").value == 0.0
