"""Run the doctests embedded in the library's docstrings."""

import doctest

import pytest

import repro.analysis.quartets
import repro.asm.alphabet
import repro.asm.constraints
import repro.asm.decompose
import repro.datasets.digits
import repro.datasets.registry
import repro.fixedpoint.binary
import repro.fixedpoint.qformat
import repro.fixedpoint.quartet
import repro.hardware.engine
import repro.hardware.neuron
import repro.hardware.precompute
import repro.hardware.report
import repro.nn.activations
import repro.rtl.generator

MODULES = [
    repro.fixedpoint.binary,
    repro.fixedpoint.qformat,
    repro.fixedpoint.quartet,
    repro.asm.alphabet,
    repro.asm.decompose,
    repro.asm.constraints,
    repro.hardware.precompute,
    repro.hardware.engine,
    repro.hardware.neuron,
    repro.hardware.report,
    repro.nn.activations,
    repro.datasets.digits,
    repro.datasets.registry,
    repro.analysis.quartets,
    repro.rtl.generator,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    failures, tested = doctest.testmod(module)
    assert failures == 0
    assert tested > 0  # every listed module carries at least one example
