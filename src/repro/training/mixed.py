"""Mixed per-layer alphabet plans — the paper's §VI.E add-on technique.

Small concluding layers matter more for the output and cost a tiny share of
processing cycles, so they can afford more alphabets: 1-alphabet neurons in
the early large layers, 2/4-alphabet neurons in the last one or two layers.
This module builds such plans; the pipeline's ``mixed`` design retrains,
evaluates and costs them (:mod:`repro.pipeline.stages`) — everything
Fig. 11 plots.
"""

from __future__ import annotations

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4, AlphabetSet
from repro.nn.network import Sequential
from repro.training.constrained import weight_param_name

__all__ = ["build_mixed_plan", "paper_mixed_plan", "MIXED_PLAN_APPS"]

#: Applications with a §VI.E mixed plan (the ones Fig. 11 covers).
MIXED_PLAN_APPS = ("mnist_mlp", "svhn", "tich")


def build_mixed_plan(network: Sequential,
                     final_sets: list[AlphabetSet],
                     base_set: AlphabetSet = ALPHA_1,
                     ) -> list[AlphabetSet]:
    """§VI.E plan: ``base_set`` everywhere except the last ``len(final_sets)``
    parameterised layers, which get *final_sets* in order.

    For the paper's SVHN example: ``build_mixed_plan(net, [ALPHA_2, ALPHA_4])``
    puts {1} on the first four layers, {1,3} on the penultimate and
    {1,3,5,7} on the ultimate layer.
    """
    num_layers = sum(1 for layer in network.layers
                     if weight_param_name(layer) is not None)
    if len(final_sets) > num_layers:
        raise ValueError(
            f"{len(final_sets)} final sets for {num_layers} layers"
        )
    plan: list[AlphabetSet] = [base_set] * (num_layers - len(final_sets))
    plan.extend(final_sets)
    return plan


def paper_mixed_plan(app: str, network: Sequential) -> list[AlphabetSet]:
    """The paper's §VI.E plan for each Fig. 11 application.

    MNIST (2-layer): {1} hidden, {1,3,5,7} output.
    SVHN (6-layer) and TICH (5-layer): {1} early, {1,3} penultimate,
    {1,3,5,7} ultimate.
    """
    if app == "mnist_mlp":
        return build_mixed_plan(network, [ALPHA_4], base_set=ALPHA_1)
    if app in ("svhn", "tich"):
        return build_mixed_plan(network, [ALPHA_2, ALPHA_4],
                                base_set=ALPHA_1)
    raise ValueError(f"no §VI.E mixed plan for {app!r}; "
                     f"choose from {MIXED_PLAN_APPS}")
