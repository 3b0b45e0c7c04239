"""Ablation: constrained retraining vs post-hoc deployment.

The paper's central methodological claim is that *retraining with the
constraints in place* recovers the accuracy an approximate multiplier
loses.  This bench deploys the same trained network three ways:

* conventional engine (baseline),
* MAN engine without retraining (quartets snap via the hardware fallback),
* MAN engine after constrained retraining.
"""

from conftest import TINY, emit

from repro.asm.alphabet import ALPHA_1
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import Multiplier
from repro.datasets import build_model, load_dataset
from repro.hardware.report import format_table
from repro.nn.optim import SGD
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.nn.trainer import Trainer
from repro.training.constrained import ConstraintProjector, constrained_trainer


def _run():
    data = load_dataset("svhn", n_train=TINY.n_train, n_test=TINY.n_test,
                        seed=0)
    model = build_model("svhn", seed=1)
    trainer = Trainer(model, SGD(model, 0.05), batch_size=32, patience=2)
    trainer.fit(data.flat_train, data.y_train_onehot, data.flat_test,
                data.y_test, max_epochs=TINY.max_epochs)

    baseline = QuantizedNetwork.from_float(
        model, QuantizationSpec(8)).accuracy(data.flat_test, data.y_test)
    posthoc = QuantizedNetwork.from_float(
        model, QuantizationSpec(8, Multiplier(ALPHA_1), fallback="nearest"),
    ).accuracy(data.flat_test, data.y_test)

    projector = ConstraintProjector(model, 8, ALPHA_1)
    retrainer = constrained_trainer(model, SGD(model, 0.0125), projector,
                                    batch_size=32, patience=2)
    retrainer.fit(data.flat_train, data.y_train_onehot, data.flat_test,
                  data.y_test, max_epochs=TINY.retrain_epochs)
    constrainer = WeightConstrainer(8, ALPHA_1)
    retrained = QuantizedNetwork.from_float(
        model, QuantizationSpec(8, Multiplier(ALPHA_1),
                                constrainer=constrainer),
    ).accuracy(data.flat_test, data.y_test)
    return baseline, posthoc, retrained


def test_ablation_retraining(benchmark):
    baseline, posthoc, retrained = benchmark.pedantic(
        _run, rounds=1, iterations=1)
    emit("ablation_retraining", format_table(
        ["Deployment", "Accuracy (%)"],
        [["conventional 8-bit", f"{baseline * 100:.2f}"],
         ["MAN, no retraining (nearest fallback)", f"{posthoc * 100:.2f}"],
         ["MAN, constrained retraining", f"{retrained * 100:.2f}"]],
        title="Ablation - retraining vs post-hoc MAN deployment (SVHN)"))
    # retraining must recover (most of) the post-hoc loss
    assert retrained >= posthoc - 0.02
    assert retrained >= baseline - 0.12
