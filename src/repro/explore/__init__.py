"""repro.explore — parallel design-space exploration with Pareto frontiers.

The paper's central claim is a *trade-off*: alphabet-set multiplier
neurons buy large energy/area savings for a bounded accuracy drop, and
Algorithm 2 / the §VI.E mixed deployments are hand-picked points on that
curve.  This subsystem makes the curve itself a first-class object:

* :class:`SearchSpace` — a declarative description (JSON/TOML) of the
  design axes to sweep: design tokens (including custom per-layer
  ``mixed:C1-C2-...`` plans), word widths, budget tiers, seeds, ladder
  qualities, constraint modes;
* strategies — ``grid`` (exhaustive), ``random`` (seeded sampling) and
  ``sensitivity`` (a greedy per-layer search that degrades the least
  output-sensitive layers first, generalising Algorithm 2);
* a multiprocessing executor whose workers share one dependency-keyed
  pipeline stage cache, plus an order-independent resumable journal —
  serial and parallel explorations of the same space leave bit-identical
  journals and frontiers;
* :class:`ExplorationReport` — every candidate's
  (accuracy, energy, area, delay) metrics plus the Pareto frontier, as
  JSON and formatted tables;
* :func:`register_frontier` — exports the frontier winners into the
  serving :class:`~repro.serving.registry.ModelRegistry` so the best
  trade-off points are immediately servable.

Typical use::

    from repro.explore import SearchSpace, run_exploration
    space = SearchSpace.load("examples/configs/digits_explore.toml")
    report = run_exploration(space, "results/explore/digits", jobs=4)
    print(format_exploration_report(report))

or, from a shell: ``repro explore examples/configs/digits_explore.toml
--jobs 4``.
"""

from repro.explore.deploy import register_frontier
from repro.explore.executor import (
    CandidateTimeout,
    evaluate_candidate,
    run_candidates,
)
from repro.explore.journal import (
    FAILED_STATUS,
    ExplorationJournal,
    JournalError,
    list_journals,
    load_space,
)
from repro.explore.pareto import (
    OBJECTIVES,
    Objective,
    dominates,
    pareto_frontier,
    resolve_objectives,
)
from repro.explore.report import ExplorationReport, format_exploration_report
from repro.explore.space import SearchSpace, SearchSpaceError
from repro.explore.strategies import random_candidates, run_exploration

__all__ = [
    "SearchSpace", "SearchSpaceError",
    "Objective", "OBJECTIVES", "dominates", "pareto_frontier",
    "resolve_objectives",
    "ExplorationJournal", "JournalError", "load_space", "list_journals",
    "FAILED_STATUS", "CandidateTimeout",
    "evaluate_candidate", "run_candidates",
    "ExplorationReport", "format_exploration_report",
    "random_candidates", "run_exploration",
    "register_frontier",
]
