"""Cross-module integration tests: the full pipeline on small instances.

These exercise the complete chain the paper describes — train, constrain,
retrain, deploy on the bit-accurate ASM engine, cost on the hardware model —
and assert the paper's qualitative claims hold end to end.
"""

import numpy as np
import pytest

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.datasets import build_model, load_dataset, synthetic_mnist
from repro.hardware.engine import ProcessingEngine
from repro.nn.optim import SGD
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.nn.trainer import Trainer
from repro.pipeline import Budget, Pipeline, PipelineConfig
from repro.training.constrained import ConstraintProjector, constrained_trainer


@pytest.fixture(scope="module")
def mnist_small():
    return synthetic_mnist(n_train=500, n_test=250, seed=0)


@pytest.fixture(scope="module")
def trained(mnist_small):
    from repro.datasets import mlp
    model = mlp([1024, 48, 10], seed=2)
    trainer = Trainer(model, SGD(model, 0.3), batch_size=32, patience=2)
    trainer.fit(mnist_small.flat_train, mnist_small.y_train_onehot,
                mnist_small.flat_test, mnist_small.y_test, max_epochs=10)
    return model


class TestEndToEndPipeline:
    def test_train_constrain_deploy_chain(self, mnist_small, trained):
        """The full paper pipeline on one network and alphabet set."""
        model = trained
        baseline = QuantizedNetwork.from_float(
            model, QuantizationSpec(8)).accuracy(
            mnist_small.flat_test, mnist_small.y_test)

        state = model.state()
        projector = ConstraintProjector(model, 8, ALPHA_1)
        trainer = constrained_trainer(model, SGD(model, 0.075), projector,
                                      batch_size=32, patience=2)
        trainer.fit(mnist_small.flat_train, mnist_small.y_train_onehot,
                    mnist_small.flat_test, mnist_small.y_test, max_epochs=6)
        man_acc = QuantizedNetwork.from_float(
            model, QuantizationSpec(
                8, Multiplier(ALPHA_1),
                constrainer=WeightConstrainer(8, ALPHA_1)),
        ).accuracy(mnist_small.flat_test, mnist_small.y_test)
        model.load_state(state)

        # the paper's claim: minimal degradation after retraining
        assert man_acc >= baseline - 0.08

        # and a real hardware payoff at iso-speed
        topo = model.topology()
        conv_energy = ProcessingEngine(8, CONVENTIONAL).run(topo).energy_nj
        man_energy = ProcessingEngine(8, Multiplier(ALPHA_1)).run(
            topo).energy_nj
        assert man_energy < 0.75 * conv_energy

    def test_methodology_on_benchmark_model(self):
        """Algorithm 2 drives a Table IV model to an accepted design."""
        report = Pipeline(PipelineConfig(
            app="mnist_mlp", designs=("conventional", "ladder"),
            stages=("train", "quantize", "constrain", "evaluate"),
            quality=0.95, ladder=(1, 2, 4, 8),
            budget=Budget("small", n_train=500, n_test=250, max_epochs=8,
                          retrain_epochs=5))).run()
        outcome = report.constrain.outcome_for("ladder")
        assert outcome.chosen_alphabets in (1, 2, 4, 8)
        # quality bound respected by construction
        assert report.evaluate.row_for("ladder").accuracy >= \
            report.quantize.baseline_accuracy * 0.95

    def test_registered_benchmark_roundtrip(self):
        """Registry model + dataset + engine cost agree on shapes."""
        data = load_dataset("tich", n_train=72, n_test=36, seed=0)
        model = build_model("tich", seed=0)
        out = model.forward(data.flat_test, training=False)
        assert out.shape == (36, 36)
        report = ProcessingEngine(8, Multiplier(ALPHA_2)).run(model.topology())
        assert report.total_macs == model.num_params - model.num_neurons

    def test_cnn_pipeline(self):
        """LeNet trains, quantises to 12-bit MAN, and costs on the engine."""
        data = synthetic_mnist(n_train=200, n_test=80, seed=1)
        model = build_model("mnist_cnn", seed=1)
        trainer = Trainer(model, SGD(model, 0.1), batch_size=16, patience=2)
        trainer.fit(data.x_train, data.y_train_onehot, data.x_test,
                    data.y_test, max_epochs=3)
        projector = ConstraintProjector(model, 12, ALPHA_1)
        retrainer = constrained_trainer(model, SGD(model, 0.025), projector,
                                        batch_size=16, patience=2)
        retrainer.fit(data.x_train, data.y_train_onehot, data.x_test,
                      data.y_test, max_epochs=2)
        q = QuantizedNetwork.from_float(
            model, QuantizationSpec(
                12, Multiplier(ALPHA_1),
                constrainer=WeightConstrainer(12, ALPHA_1)))
        acc = q.accuracy(data.x_test, data.y_test)
        assert acc > 0.3  # trained well above chance through the MAN engine
        report = ProcessingEngine(12, Multiplier(ALPHA_1)).run(
            model.topology())
        assert report.total_macs > 0


class TestPaperInvariantsEndToEnd:
    def test_effective_weights_equal_datapath_on_network(self, trained,
                                                         mnist_small):
        """A whole network's ASM scores equal per-weight datapath results."""
        from repro.asm.multiplier import AlphabetSetMultiplier
        spec = QuantizationSpec(8, Multiplier(ALPHA_4), fallback="nearest")
        q = QuantizedNetwork.from_float(trained, spec)
        layer = q.weight_layers[0]
        m = AlphabetSetMultiplier(8, ALPHA_4, fallback="nearest")
        x_int = q.act_fmt.quantize_array(mnist_small.flat_test[:2])
        acc_fast = x_int @ layer.w_int
        acc_slow = np.zeros_like(acc_fast)
        for j in range(4):  # spot-check a few output neurons bit-level
            for s in range(2):
                acc_slow[s, j] = sum(
                    m.multiply(int(layer.w_int[i, j]), int(x_int[s, i]))
                    for i in range(x_int.shape[1]))
        np.testing.assert_array_equal(acc_fast[:, :4], acc_slow[:, :4])

    def test_energy_accuracy_tradeoff_curve(self, trained, mnist_small):
        """Fewer alphabets: monotonically less energy; accuracy stays in a
        narrow band after constraining (no retraining here, nearest
        fallback — the weak deployment)."""
        topo = trained.topology()
        energies = []
        accuracies = []
        for aset in (ALPHA_4, ALPHA_2, ALPHA_1):
            energies.append(ProcessingEngine(8, Multiplier(aset)).run(
                topo).energy_nj)
            q = QuantizedNetwork.from_float(
                trained, QuantizationSpec(8, Multiplier(aset),
                                          fallback="nearest"))
            accuracies.append(q.accuracy(mnist_small.flat_test,
                                         mnist_small.y_test))
        assert energies[0] > energies[1] > energies[2]
        assert min(accuracies) > 0.2  # degraded but functional
