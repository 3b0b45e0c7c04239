"""Multiprocessing evaluation of exploration candidates.

One shared worker-pool layer for everything in the repo that fans
pipeline work out over processes:

* :func:`run_candidates` — evaluate a list of candidate
  :class:`PipelineConfig`s (the explorer's hot path), journaling each
  result as it lands;
* :func:`run_pipeline_jobs` — the ``--jobs`` flag of ``repro run`` and
  ``repro experiment``.

Determinism: workers only *compute*; the parent process owns the journal
and the result ordering (records are keyed by candidate config digest
and re-ordered by candidate index), so ``jobs=1`` and ``jobs=N`` produce
bit-identical journals and frontiers.  Workers share the pipeline stage
cache directory — safe, because stage-cache writes are atomic and the
stages are deterministic (two workers racing to produce an entry write
identical bytes).
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager

from repro import obs
from repro.explore.journal import FAILED_STATUS, RECORD_FORMAT, \
    ExplorationJournal
from repro.faults import chaos as _chaos
from repro.pipeline.config import PipelineConfig
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.report import PipelineReport
from repro.utils.serialization import to_jsonable

__all__ = ["RECORD_FORMAT", "CandidateTimeout", "evaluate_candidate",
           "run_candidates", "pool_map", "run_pipeline_jobs"]

#: Metric keys every candidate record carries (the Pareto axes).
METRIC_KEYS = ("accuracy", "accuracy_loss", "energy_nj",
               "energy_per_mac_fj", "area_um2", "latency_us", "cycles")

#: Default bounded-retry count for failing candidates (attempts =
#: ``max_retries + 1``); exhausted candidates are quarantined into the
#: journal as typed failure records.
DEFAULT_MAX_RETRIES = 2

#: First-retry backoff; doubles per retry round.  Deliberately tiny —
#: the common transient (a cursed chaos attempt, an OS hiccup) clears
#: immediately, and sweeps must not crawl.
DEFAULT_BACKOFF_S = 0.05


class CandidateTimeout(RuntimeError):
    """A candidate exceeded the per-candidate evaluation timeout."""


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`CandidateTimeout` after *seconds* of wall time.

    Uses ``SIGALRM``, so it only arms in a (worker) main thread on
    platforms that have it; elsewhere it is a no-op and the candidate
    runs unbounded — a graceful degradation, not an error.
    """
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise CandidateTimeout(
            f"candidate exceeded the {seconds:g}s evaluation timeout")

    try:
        previous = signal.signal(signal.SIGALRM, _expired)
    except ValueError:          # not in the main thread
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def pool_map(fn: Callable, payloads: Sequence, jobs: int,
             on_result: Callable[[object], None] | None = None) -> list:
    """Map *fn* over *payloads*, in-process or on a worker pool.

    *fn* must accept one payload and return ``(index, value)`` with the
    payload's position; results come back ordered by that index whatever
    the completion order.  ``on_result`` (if given) sees each
    ``(index, value)`` as it completes — the journaling hook.

    Under a traced parent (``--trace``), each worker traces its task in
    memory and ships the spans and counters back with the value
    (:func:`repro.obs.shipping`); the parent files them under its open
    span.  Tracing never touches the values, so journals stay
    bit-identical between traced and untraced runs.
    """
    results: dict[int, object] = {}
    if jobs <= 1 or len(payloads) <= 1:
        for payload in payloads:
            index, value = fn(payload)
            if on_result is not None:
                on_result((index, value))
            results[index] = value
    else:
        traced = obs.enabled()
        task = obs.shipping(fn) if traced else fn
        ctx = _pool_context()
        with ctx.Pool(processes=min(jobs, len(payloads))) as pool:
            for item in pool.imap_unordered(task, payloads):
                index, value = obs.adopt(item) if traced else item
                if on_result is not None:
                    on_result((index, value))
                results[index] = value
    return [results[index] for index in sorted(results)]


# ----------------------------------------------------------------------
# candidate evaluation
# ----------------------------------------------------------------------
def metrics_from_report(report: PipelineReport, design: str) -> dict:
    """Flatten one design's pipeline report into the Pareto metric axes."""
    eval_row = report.require("evaluate").row_for(design)
    energy_row = report.require("energy").row_for(design)
    return {
        "accuracy": eval_row.accuracy,
        "accuracy_loss": (eval_row.loss if eval_row.loss is not None
                          else 0.0),
        "energy_nj": energy_row.energy_nj,
        "energy_per_mac_fj": energy_row.energy_per_mac_fj,
        "area_um2": energy_row.area_um2,
        "latency_us": energy_row.latency_us,
        "cycles": energy_row.cycles,
    }


def evaluate_candidate(config: PipelineConfig,
                       resume: bool = True) -> dict:
    """Run one candidate pipeline and reduce it to a journal record.

    The record is pure JSON builtins and intentionally contains nothing
    order-, timing- or location-dependent (``cache_dir`` is stripped, and
    ``cached_stages`` is *not* recorded — which stages happened to be
    warm differs between serial and parallel runs of the same space).
    """
    with obs.span("explore.candidate", design=config.designs[0],
                  seed=config.seed, digest=config.digest()[:12]):
        report = Pipeline(config).run(resume=resume)
    design = config.designs[0]
    eval_row = report.require("evaluate").row_for(design)
    config_dict = config.to_dict()
    config_dict["cache_dir"] = None
    record = {
        "format": RECORD_FORMAT,
        "config": config_dict,
        "config_digest": config.digest(),
        "design": design,
        "label": eval_row.label,
        "metrics": metrics_from_report(report, design),
    }
    if config.parsed_designs[0].constrained:
        outcome = report.require("constrain").outcome_for(design)
        record["retrain_epochs"] = outcome.epochs
        if outcome.chosen_alphabets is not None:
            record["chosen_alphabets"] = outcome.chosen_alphabets
    if report.faults is not None:
        record["faults"] = to_jsonable(report.faults)
    return record


def _candidate_worker(payload) -> tuple[int, dict]:
    index, config_dict, resume, attempt, timeout_s = payload
    config = PipelineConfig.from_dict(config_dict)
    started = time.perf_counter()
    try:
        with _deadline(timeout_s):
            # the chaos harness (tests/CI only; inert otherwise) gets
            # first strike, exactly where a real worker would crash or
            # stall — inside the deadline, so slow workers time out
            _chaos.maybe_strike(config.digest(), attempt)
            record = evaluate_candidate(config, resume=resume)
    except Exception as error:
        # failures come back as typed values, never as pool-breaking
        # exceptions: the parent owns retry/quarantine policy
        return index, {"failure": {"error_type": type(error).__name__,
                                   "error": str(error)[:500]},
                       "elapsed_s": time.perf_counter() - started}
    # the record itself must stay deterministic (it is journaled and
    # compared bit-for-bit between serial and parallel runs), so timing
    # rides alongside it and is stripped off by ``run_candidates``
    return index, {"record": record,
                   "elapsed_s": time.perf_counter() - started}


def run_candidates(configs: Sequence[PipelineConfig],
                   journal: ExplorationJournal | None = None,
                   jobs: int = 1, resume: bool = True,
                   verbose: bool = False,
                   max_retries: int = DEFAULT_MAX_RETRIES,
                   timeout_s: float | None = None,
                   backoff_s: float = DEFAULT_BACKOFF_S,
                   ) -> tuple[list[dict], dict]:
    """Evaluate *configs*, reusing journal records where possible.

    Returns ``(records, stats)`` with records in candidate order and
    ``stats = {"candidates", "journal_hits", "evaluated", "failed",
    "retries", "elapsed_s", "utilization"}`` — ``elapsed_s`` sums the
    workers' per-candidate wall time and ``utilization`` is that busy
    time over the pool's capacity (``jobs``  × the fan-out wall time),
    the explorer's worker-utilization figure.  With ``resume=False``
    both the journal and the pipeline stage cache are ignored (and then
    rewritten).

    Hardening: a failing candidate is retried up to *max_retries* times
    with exponential backoff (``backoff_s`` doubling per round); a
    candidate still failing after that is *quarantined* — a typed
    failure record (``"status": "failed"``) lands in the journal and in
    the returned records, and resumed runs skip it.  *timeout_s* bounds
    each attempt's wall time (``SIGALRM``-based; see
    :class:`CandidateTimeout`).  Successful candidates' records are
    byte-identical whether or not failures happened around them.
    """
    records: dict[int, dict] = {}
    pending: list[tuple[int, dict, bool, int, float | None]] = []
    telemetry = obs.enabled()
    for index, config in enumerate(configs):
        digest = config.digest()
        cached = journal.load_record(digest) if (journal is not None
                                                and resume) else None
        if cached is not None:
            records[index] = cached
            if telemetry:
                obs.registry().counter("explore.journal_hits").inc()
            if verbose:
                note = ("quarantined, skipped"
                        if cached.get("status") == FAILED_STATUS
                        else "journal hit")
                print(f"[{index + 1}/{len(configs)}] "
                      f"{config.designs[0]} seed={config.seed}: {note}")
        else:
            pending.append((index, config.to_dict(), resume, 0, timeout_s))

    busy = [0.0]

    def landed(item) -> None:
        index, outcome = item
        busy[0] += outcome["elapsed_s"]
        if "failure" in outcome:
            # retry/quarantine policy runs after the round completes
            return
        record = outcome["record"]
        records[index] = record
        if journal is not None:
            journal.write_record(record)
            if telemetry:
                obs.registry().counter("explore.journal_writes").inc()
        if telemetry:
            obs.registry().counter("explore.candidates_evaluated").inc()
            obs.registry().histogram("explore.candidate_seconds").observe(
                outcome["elapsed_s"])
        if verbose:
            metrics = record["metrics"]
            print(f"[{index + 1}/{len(configs)}] {record['design']} "
                  f"seed={record['config']['seed']}: "
                  f"accuracy={metrics['accuracy'] * 100:.2f}% "
                  f"energy={metrics['energy_nj']:.1f}nJ")

    def quarantine(index: int, failure: dict, attempts: int) -> None:
        config_dict = configs[index].to_dict()
        config_dict["cache_dir"] = None
        record = {
            "format": RECORD_FORMAT,
            "config": config_dict,
            "config_digest": configs[index].digest(),
            "design": configs[index].designs[0],
            "status": FAILED_STATUS,
            "error_type": failure["error_type"],
            "error": failure["error"],
            "attempts": attempts,
        }
        records[index] = record
        if journal is not None:
            journal.write_record(record)
        if telemetry:
            obs.registry().counter("explore.quarantined").inc()
        if verbose:
            print(f"[{index + 1}/{len(configs)}] "
                  f"{configs[index].designs[0]} "
                  f"seed={configs[index].seed}: QUARANTINED after "
                  f"{attempts} attempts ({failure['error_type']}: "
                  f"{failure['error']})")

    retries_total = 0
    failed = 0
    workers = max(1, min(jobs, len(pending)) if pending else 1)
    with obs.span("explore.map", candidates=len(configs),
                  pending=len(pending), jobs=workers) as map_span:
        started = time.perf_counter()
        round_payloads = pending
        while round_payloads:
            outcomes = pool_map(_candidate_worker, round_payloads, jobs,
                                on_result=landed)
            retry_payloads = []
            ordered = sorted(round_payloads, key=lambda p: p[0])
            for payload, outcome in zip(ordered, outcomes):
                if "failure" not in outcome:
                    continue
                index, config_dict, res, attempt, limit = payload
                if attempt < max_retries:
                    retries_total += 1
                    if telemetry:
                        obs.registry().counter("explore.retries").inc()
                    if verbose:
                        failure = outcome["failure"]
                        print(f"[{index + 1}/{len(configs)}] "
                              f"{configs[index].designs[0]} "
                              f"seed={configs[index].seed}: attempt "
                              f"{attempt + 1} failed "
                              f"({failure['error_type']}), retrying")
                    retry_payloads.append(
                        (index, config_dict, res, attempt + 1, limit))
                else:
                    failed += 1
                    quarantine(index, outcome["failure"], attempt + 1)
            if retry_payloads and backoff_s > 0:
                # exponential backoff: every payload in a round shares
                # the same attempt number
                time.sleep(backoff_s * 2 ** (retry_payloads[0][3] - 1))
            round_payloads = retry_payloads
        wall = time.perf_counter() - started
        utilization = (busy[0] / (workers * wall)
                       if pending and wall > 0 else 0.0)
        map_span.set(utilization=round(utilization, 3),
                     retries=retries_total, failed=failed)
    if telemetry:
        obs.registry().gauge("explore.workers").set(workers)
        obs.registry().gauge("explore.worker_utilization").set(utilization)
    stats = {
        "candidates": len(configs),
        "journal_hits": len(configs) - len(pending),
        "evaluated": len(pending) - failed,
        "failed": failed,
        "retries": retries_total,
        "elapsed_s": busy[0],
        "utilization": utilization,
    }
    return [records[index] for index in sorted(records)], stats


# ----------------------------------------------------------------------
# generic pipeline fan-out (the CLI --jobs flag)
# ----------------------------------------------------------------------
def _pipeline_job(payload) -> tuple[int, PipelineReport]:
    index, config_dict, stages, resume = payload
    config = PipelineConfig.from_dict(config_dict)
    return index, Pipeline(config).run(stages=stages, resume=resume)


def run_pipeline_jobs(configs: Sequence[PipelineConfig],
                      stages: tuple[str, ...] | None = None,
                      resume: bool = True,
                      jobs: int = 1) -> list[PipelineReport]:
    """Run several pipeline configs, returning their reports in order."""
    payloads = [(index, config.to_dict(), stages, resume)
                for index, config in enumerate(configs)]
    return pool_map(_pipeline_job, payloads, jobs)
