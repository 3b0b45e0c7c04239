"""RPR007 bad fixture: a kernel module importing against the order."""

from repro.asm.alphabet import ALPHA_1   # same tier as kernels
from repro.nn.layers import Dense        # a higher tier, module level


def plan(layer):
    from repro.nn import activations     # a higher tier, deferred
    return Dense, ALPHA_1, activations, layer
