"""Digit recognition with the full design methodology (Algorithm 2).

Trains the paper's 1024-100-10 MLP on the synthetic MNIST stand-in, then
runs the alphabet-escalation methodology as the pipeline's ``ladder``
design: retrain with {1}, accept if the quality bound holds, else escalate
to {1,3}, {1,3,5,7}, ...  The same flow as
``repro run examples/configs/digits_ladder.toml``, at this example's budget.

Run:  python examples/digit_recognition.py [--full]
"""

import argparse

from repro.asm.alphabet import standard_set
from repro.datasets import build_model
from repro.pipeline import Budget, Pipeline, PipelineConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale training budget")
    parser.add_argument("--quality", type=float, default=0.99,
                        help="quality constraint Q (default 0.99)")
    args = parser.parse_args()

    config = PipelineConfig(
        app="mnist_mlp", designs=("conventional", "ladder"),
        stages=("train", "quantize", "constrain", "evaluate"),
        budget="full" if args.full else Budget("example", 1200, 500, 12, 8),
        quality=args.quality, ladder=(1, 2, 4, 8), seed=0)
    tier = config.tier()
    print(f"generating synthetic MNIST ({tier.n_train} train / "
          f"{tier.n_test} test)")
    model = build_model("mnist_mlp")
    print(f"model: {model.num_params} synapses, {model.num_neurons} neurons "
          f"(Table IV: 103510 / 110)")

    report = Pipeline(config).run()
    baseline = report.quantize.baseline_accuracy
    outcome = report.constrain.outcome_for("ladder")
    print(f"\nfloat accuracy:            "
          f"{report.train.float_accuracy * 100:.2f}%")
    print(f"8-bit conventional (J):    {baseline * 100:.2f}%")
    for count, accuracy in zip(config.ladder, outcome.ladder_accuracies):
        verdict = ("ACCEPTED" if accuracy >= baseline * config.quality
                   else "rejected")
        print(f"  {count} alphabet(s) {standard_set(count)}: "
              f"K = {accuracy * 100:.2f}%  [{verdict}]")
    loss = report.evaluate.row_for("ladder").loss
    print(f"\nchosen design: {outcome.chosen_alphabets} alphabet(s), "
          f"accuracy loss {loss * 100:.2f}%")
    if outcome.chosen_alphabets == 1:
        print("-> the network runs on Multiplier-less Artificial Neurons.")


if __name__ == "__main__":
    main()
