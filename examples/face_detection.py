"""Face detection — the paper's §IV.C credibility experiment (Table II).

Trains the 1024-100-2 MLP on synthetic face/non-face patches, then
reproduces Table II: accuracy at 8 and 12 bits for the conventional
multiplier and the 4/2/1-alphabet ASMs (with constrained retraining).

Run:  python examples/face_detection.py [--full]
"""

import argparse

from repro.experiments import EXPERIMENTS, format_accuracy_table
from repro.pipeline import run_pipeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale training budget")
    args = parser.parse_args()

    grid = EXPERIMENTS["table2"].configs[0]
    for bits in (8, 12):
        report = run_pipeline(grid.with_overrides(
            bits=bits, budget="full" if args.full else "quick"))
        print(format_accuracy_table(
            report, f"Table II - face detection, {bits}-bit synapses"))
        print()

    print("paper reference (Table II): 12-bit losses 0.12 / 0.19 / 0.24 %")
    print("for 4 / 2 / 1 alphabets; max degradation 0.47% at 8 bits.")


if __name__ == "__main__":
    main()
