"""Mixed-alphabet networks (§VI.E / Fig. 11).

Large early layers use the 1-alphabet MAN; the small concluding layers use
2/4-alphabet ASMs.  The example retrains the SVHN-style 6-layer MLP under
the three deployments and reports accuracy, energy, and the share of
processing cycles the upgraded layers account for (paper: ~3.84%).

Run:  python examples/mixed_alphabet.py [--app svhn|tich|mnist_mlp]
"""

import argparse

from repro.asm.alphabet import ALPHA_1
from repro.asm.multiplier import Multiplier
from repro.datasets import build_model
from repro.experiments import EXPERIMENTS, FIGURE11_DEPLOYMENTS
from repro.hardware.engine import ProcessingEngine
from repro.pipeline import run_pipeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--app", default="svhn",
                        choices=["svhn", "tich", "mnist_mlp"])
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    topology = build_model(args.app).topology()
    engine = ProcessingEngine(8, Multiplier(ALPHA_1))
    report = engine.run(topology)
    tail = 2 if args.app in ("svhn", "tich") else 1
    share = report.layer_cycle_fraction(tail)
    print(f"{args.app}: last {tail} layer(s) use {share * 100:.2f}% of "
          f"processing cycles (paper quotes 3.84% for SVHN)\n")

    config = next(c for c in EXPERIMENTS["fig11"].configs
                  if c.app == args.app)
    report = run_pipeline(config.with_overrides(
        budget="full" if args.full else "quick"))
    print(f"{'deployment':15s} {'accuracy':>9s} {'energy (nJ)':>12s} "
          f"{'vs conv':>8s}")
    for design, deployment in FIGURE11_DEPLOYMENTS:
        accuracy = report.evaluate.row_for(design).accuracy
        energy = report.energy.row_for(design)
        print(f"{deployment:15s} {accuracy * 100:8.2f}% "
              f"{energy.energy_nj:12.1f} {energy.normalized:8.3f}")

    man, mixed = (report.evaluate.row_for(d) for d in ("asm1", "mixed"))
    man_nj, mixed_nj = (report.energy.row_for(d).energy_nj
                        for d in ("asm1", "mixed"))
    print(f"\nmixed vs all-{{1}}: {(mixed.accuracy - man.accuracy) * 100:+.2f}"
          f" accuracy points for "
          f"{(mixed_nj / man_nj - 1) * 100:+.2f}% energy")


if __name__ == "__main__":
    main()
