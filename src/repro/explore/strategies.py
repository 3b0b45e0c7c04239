"""Exploration strategies: grid, random sampling, sensitivity-guided.

``grid`` and ``random`` are pure *enumeration* strategies — they emit a
candidate list up front and the executor evaluates it (in parallel if
asked).  ``sensitivity`` is a *search*: it generalises the paper's
Algorithm 2 from "escalate the alphabet count uniformly" to "degrade
layers one at a time, least output-sensitive first", using
:func:`repro.analysis.sensitivity.layer_sensitivity` on the trained
network to decide the degradation order and the quality bound
``K >= J * quality`` to decide when to stop.  Its steps are inherently
sequential, but each step is an ordinary journaled candidate, so resumes
replay instantly.

:func:`run_exploration` is the single entry point the CLI and tests use:
strategy -> candidate records -> Pareto reduction -> journaled report.
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis.sensitivity import layer_sensitivity
from repro.asm.alphabet import standard_set
from repro.explore.executor import DEFAULT_MAX_RETRIES, run_candidates
from repro.explore.journal import FAILED_STATUS, ExplorationJournal
from repro.explore.pareto import pareto_frontier, resolve_objectives
from repro.explore.report import ExplorationReport
from repro.explore.space import SearchSpace
from repro.pipeline.config import PipelineConfig
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stages import PipelineContext

__all__ = ["random_candidates", "run_exploration"]


def grid_candidates(space: SearchSpace,
                    cache_dir: str | None = None
                    ) -> tuple[PipelineConfig, ...]:
    """The exhaustive (deduplicated) grid — see :meth:`SearchSpace.grid`."""
    return space.grid(cache_dir)


def random_candidates(space: SearchSpace,
                      cache_dir: str | None = None
                      ) -> tuple[PipelineConfig, ...]:
    """``space.samples`` grid points, drawn without replacement.

    Seeded by ``space.strategy_seed`` and re-ordered ascending, so the
    sample — and therefore the journal — is deterministic.
    """
    grid = space.grid(cache_dir)
    if space.samples >= len(grid):
        return grid
    rng = np.random.default_rng(space.strategy_seed)
    chosen = sorted(rng.choice(len(grid), size=space.samples,
                               replace=False).tolist())
    return tuple(grid[index] for index in chosen)


# ----------------------------------------------------------------------
# sensitivity-guided greedy per-layer search
# ----------------------------------------------------------------------
def sensitivity_order(space: SearchSpace, base: PipelineConfig,
                      resume: bool = True) -> list[int]:
    """Layer indices ordered least-sensitive-first.

    Trains (or resumes) the base network, then approximates each
    parameterised layer alone with the most aggressive configured
    alphabet set and ranks layers by the resulting accuracy drop — the
    measured version of the paper's "initial layers tolerate more error"
    claim that §VI.E borrows from AxNN.
    """
    ctx = PipelineContext(base)
    Pipeline(base).run(stages=("train",), resume=resume, context=ctx)
    ctx.model.load_state(ctx.train_state)
    _, x_test = ctx.arrays()
    probe_set = standard_set(min(space.sensitivity_counts))
    drops = layer_sensitivity(ctx.model, x_test, ctx.dataset.y_test,
                              ctx.bits, probe_set, backend=base.backend,
                              eval_batch_size=base.eval_batch_size)
    return sorted(range(len(drops)),
                  key=lambda i: (drops[i].drop, i))


def _plan_token(n_layers: int, degraded: list[int], count: int) -> str:
    counts = [0] * n_layers
    for index in degraded:
        counts[index] = count
    return "mixed:" + "-".join(str(c) for c in counts)


def _sensitivity_search(space: SearchSpace, cache_dir: str | None,
                        journal: ExplorationJournal | None, jobs: int,
                        resume: bool, verbose: bool,
                        max_retries: int = DEFAULT_MAX_RETRIES,
                        timeout_s: float | None = None,
                        ) -> tuple[list[dict], dict]:
    """Greedy search; returns (records, stats) like ``run_candidates``."""
    bits, budget = space.bits[0], space.budgets[0]
    seed, quality = space.seeds[0], space.qualities[0]
    mode = space.constraint_modes[0]
    base = space.candidate("conventional", bits, budget, seed, quality,
                           mode, cache_dir)
    records, stats = run_candidates([base], journal=journal, jobs=jobs,
                                    resume=resume, verbose=verbose,
                                    max_retries=max_retries,
                                    timeout_s=timeout_s)
    if records[0].get("status") == FAILED_STATUS:
        raise RuntimeError(
            "sensitivity search cannot start: the conventional baseline "
            f"candidate was quarantined ({records[0]['error_type']}: "
            f"{records[0]['error']})")
    baseline = records[0]["metrics"]["accuracy"]           # Algorithm 2's J
    bound = baseline * quality
    order = sensitivity_order(space, base, resume=resume)
    if verbose:
        print(f"[sensitivity] degradation order (least sensitive first): "
              f"{order}; quality bound {bound * 100:.2f}%")

    def accumulate(configs: list[PipelineConfig]) -> list[dict]:
        new_records, new_stats = run_candidates(
            configs, journal=journal, jobs=jobs, resume=resume,
            verbose=verbose, max_retries=max_retries, timeout_s=timeout_s)
        for key in ("candidates", "journal_hits", "evaluated", "failed",
                    "retries", "elapsed_s"):
            stats[key] += new_stats[key]
        records.extend(new_records)
        return new_records

    budget_left = (space.max_candidates - 1
                   if space.max_candidates is not None else None)
    for count in space.sensitivity_counts:
        for depth in range(1, len(order) + 1):
            if budget_left is not None and budget_left <= 0:
                return records, stats
            token = _plan_token(len(order), order[:depth], count)
            config = space.candidate(token, bits, budget, seed, quality,
                                     mode, cache_dir)
            (record,) = accumulate([config])
            if budget_left is not None:
                budget_left -= 1
            if record.get("status") == FAILED_STATUS:
                # an unevaluable plan says nothing about deeper ones;
                # treat it like a quality miss and move to the next count
                break
            if record["metrics"]["accuracy"] < bound:
                # this layer was one too many; deeper plans with the same
                # count only degrade further, so move to the next count
                break
    return records, stats


# ----------------------------------------------------------------------
def run_exploration(space: SearchSpace, journal_dir: str,
                    cache_dir: str | None = None, jobs: int = 1,
                    resume: bool = True, verbose: bool = False,
                    max_retries: int = DEFAULT_MAX_RETRIES,
                    timeout_s: float | None = None) -> ExplorationReport:
    """Explore *space*, journaling under *journal_dir*; returns the report.

    The pipeline stage cache defaults to ``<journal_dir>/cache`` so
    parallel workers (and later resumes) share every stage they agree
    on.  ``resume=False`` ignores both the journal and the stage cache.

    Quarantined candidates (see :func:`~repro.explore.executor
    .run_candidates`) stay in the journal as typed failure records but
    are excluded from the report's record list and frontier; the report
    counts them in ``failed``.
    """
    journal = ExplorationJournal.open(journal_dir, space)
    if cache_dir is None:
        cache_dir = os.path.join(journal_dir, "cache")
    if space.strategy == "grid":
        configs = grid_candidates(space, cache_dir)
        records, stats = run_candidates(configs, journal=journal, jobs=jobs,
                                        resume=resume, verbose=verbose,
                                        max_retries=max_retries,
                                        timeout_s=timeout_s)
    elif space.strategy == "random":
        configs = random_candidates(space, cache_dir)
        records, stats = run_candidates(configs, journal=journal, jobs=jobs,
                                        resume=resume, verbose=verbose,
                                        max_retries=max_retries,
                                        timeout_s=timeout_s)
    else:
        records, stats = _sensitivity_search(space, cache_dir, journal,
                                             jobs, resume, verbose,
                                             max_retries=max_retries,
                                             timeout_s=timeout_s)
    ok_records = [r for r in records if r.get("status") != FAILED_STATUS]
    failed = len(records) - len(ok_records)
    objectives = resolve_objectives(space.objectives)
    frontier = pareto_frontier([r["metrics"] for r in ok_records],
                               objectives)
    report = ExplorationReport(
        space=space, records=tuple(ok_records), frontier=frontier,
        journal_hits=stats["journal_hits"], evaluated=stats["evaluated"],
        failed=failed, cache_dir=cache_dir)
    journal.write_report(report.to_dict())
    return report
