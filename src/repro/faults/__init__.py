"""repro.faults — deterministic fault injection and resiliency curves.

Two faces:

* **Model-level** (:mod:`~repro.faults.models`,
  :mod:`~repro.faults.inject`): seeded, hash-driven fault models (weight
  bit flips, stuck-at table entries, activation upsets, requantize
  saturation) injected at the kernels dispatch layer, so every backend
  sees bit-identical faulted values.  The pipeline ``faults`` stage
  sweeps them into an accuracy-vs-fault-rate
  :class:`~repro.pipeline.stages.FaultsResult`, which ``repro faults``
  runs and reports like ``repro run``.
* **System-level** (:mod:`~repro.faults.chaos`): a chaos harness that
  deterministically crashes, stalls, or IO-faults explore workers, used
  by the tests and CI to exercise the hardened executor and serving
  stack.

See ``docs/robustness.md`` for the methodology.
"""

from repro.faults.chaos import ChaosConfig, ChaosCrash, ChaosIOFault
from repro.faults.inject import fault_network, fault_session, faulted_accuracy
from repro.faults.models import ACTIVATION_FAULT_KINDS, FAULT_KINDS, \
    FaultModelError, FaultSpec, WEIGHT_FAULT_KINDS

__all__ = [
    "FAULT_KINDS", "WEIGHT_FAULT_KINDS", "ACTIVATION_FAULT_KINDS",
    "FaultModelError", "FaultSpec",
    "fault_network", "fault_session", "faulted_accuracy",
    "ChaosConfig", "ChaosCrash", "ChaosIOFault",
]
