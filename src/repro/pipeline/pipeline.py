"""The :class:`Pipeline`: ordered, cacheable execution of named stages.

``Pipeline(config).run()`` resolves the configured stages (pulling in
prerequisites transitively), runs them in canonical order against one
shared :class:`~repro.pipeline.stages.PipelineContext`, and returns a
:class:`~repro.pipeline.report.PipelineReport`.

Stage cache
-----------
When the config names a ``cache_dir`` (or one is passed explicitly),
every completed stage persists its result JSON plus any weight states
under ``<cache_dir>/<stage>-<depkey>/``, where ``depkey`` hashes *only
the config fields that stage depends on* (plus, for ``evaluate``,
whether ``quantize`` is in the plan — its losses depend on that).  Two
consequences:

* a re-run with the same config resumes from the cache and is
  bit-identical to a cold run (weights round-trip through ``.npz``
  exactly, floats round-trip through JSON exactly);
* *different* configs share entries for the stages on which they agree —
  a design-space exploration sweeping ``designs`` trains once per
  (app, bits, budget, seed) and only re-runs constrain/evaluate/energy.

The synthesised dataset is cached the same way, once per (app, n_train,
n_test, seed), at ``<cache_dir>/dataset-<key>/dataset.npz`` (see
:meth:`Pipeline.dataset_cache_path`), so a sweep synthesises each
distinct dataset once.  An unreadable entry of
any kind is a cache miss: the stage recomputes and overwrites it.

All cache writes go through a temp file plus an atomic ``os.replace``,
and a concurrent worker having already produced an entry is harmless
(the deterministic stages produce identical bytes), so many processes —
the :mod:`repro.explore` worker pool in particular — can share one
``cache_dir`` without corruption.

Each completed cached run also drops a small marker under
``<cache_dir>/runs/`` so ``repro list`` can enumerate what has been run.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro import obs
from repro.asm.alphabet import standard_set
from repro.pipeline.config import STAGE_NAMES, PipelineConfig
from repro.pipeline.report import STAGE_ATTRS, PipelineReport
from repro.pipeline.stages import (
    CACHE_READ_ERRORS,
    STAGE_FUNCTIONS,
    ConstrainResult,
    PipelineContext,
    StageError,
    load_state,
    result_from_payload,
    save_state,
)
from repro.utils.serialization import atomic_write_json, to_jsonable

__all__ = ["Pipeline", "run_pipeline", "list_cached_runs"]

_CACHE_FORMAT = 2


class Pipeline:
    """Declarative, stage-based execution of one :class:`PipelineConfig`."""

    def __init__(self, config: PipelineConfig,
                 cache_dir: str | None = None) -> None:
        self.config = config
        #: cache root (``None`` disables caching)
        self.cache_root = (cache_dir if cache_dir is not None
                           else config.cache_dir)

    # ------------------------------------------------------------------
    # stage planning
    # ------------------------------------------------------------------
    def _requires(self, stage: str) -> tuple[str, ...]:
        """Prerequisite stages of *stage* under this config."""
        designs = self.config.parsed_designs
        has_asm = any(d.constrained for d in designs)
        has_ladder = any(d.is_ladder for d in designs)
        if stage == "train":
            return ()
        if stage == "quantize":
            return ("train",)
        if stage == "constrain":
            return ("train", "quantize") if has_ladder else ("train",)
        if stage == "evaluate":
            needs: list[str] = []
            if not all(d.constrained for d in designs):
                needs.append("quantize")
            if has_asm:
                needs.append("constrain")
            return tuple(needs)
        if stage == "faults":
            # faulted accuracy is measured against the clean evaluation
            # and perturbs the same deployed networks; evaluate's own
            # prerequisites pull the trained/constrained weights in
            return ("evaluate",)
        if stage == "energy":
            if self.config.sim_samples:
                # toggle simulation traces real activations through the
                # deployed designs, so it needs the trained weights
                return ("train", "constrain") if has_asm else ("train",)
            # ladder designs resolve their alphabet set while constraining
            return ("constrain",) if has_ladder else ()
        if stage == "export":
            return ("constrain",)
        if stage == "serve-check":
            return ("export",)
        raise ValueError(f"unknown stage {stage!r}")

    def plan(self, stages: tuple[str, ...] | None = None) -> tuple[str, ...]:
        """Requested stages plus prerequisites, in canonical order."""
        requested = tuple(stages) if stages is not None else \
            self.config.stages
        for stage in requested:
            if stage not in STAGE_NAMES:
                raise ValueError(
                    f"unknown stage {stage!r}; choose from {STAGE_NAMES}")
        needed: set[str] = set()

        def add(stage: str) -> None:
            if stage in needed:
                return
            needed.add(stage)
            for dep in self._requires(stage):
                add(dep)

        for stage in requested:
            add(stage)
        if "export" in needed:
            # fail before any stage runs, not after a full training run
            # (config construction validates this only for configured
            # stage lists; runtime overrides land here)
            self.config.resolved_export_design()
        return tuple(s for s in STAGE_NAMES if s in needed)

    # ------------------------------------------------------------------
    # cache keys: hash only what each stage's result depends on
    # ------------------------------------------------------------------
    def _stage_deps(self, stage: str, plan: tuple[str, ...]) -> dict:
        """The config slice that determines *stage*'s result.

        ``backend`` and ``eval_batch_size`` are deliberately absent from
        every slice: kernel backends (forward, simulation, projection and
        training alike) are bit-identical and accuracy is independent of
        the evaluation batch size, so runs differing only in those fields
        share every cache entry (asserted in ``tests/test_kernels.py``
        and ``tests/test_train_backends.py``).  ``sim_samples`` *does* enter the
        energy slice — simulated toggle energy is part of that stage's
        result.  ``cache_dir`` is location, not content.
        """
        cfg = self.config
        deps: dict = {
            "app": cfg.app,
            "bits": cfg.word_bits(),
            "seed": cfg.seed,
            "budget": dict(vars(cfg.tier())),
        }
        if stage in ("train", "quantize"):
            return deps
        # every later stage sees the constrained deployments
        deps["constraint_mode"] = cfg.constraint_mode
        deps["quality"] = cfg.quality
        deps["ladder"] = list(cfg.ladder)
        if stage == "constrain":
            # conventional has no constrain outcome; its presence in the
            # design list must not split the cache
            deps["designs"] = [d.token for d in cfg.parsed_designs
                               if d.constrained]
            return deps
        if stage == "faults":
            deps["designs"] = list(cfg.designs)
            deps["fault_rates"] = list(cfg.fault_rates)
            deps["fault_kind"] = cfg.fault_kind
            deps["fault_seed"] = cfg.fault_seed
            # like evaluate: losses depend on whether quantize ran
            deps["with_quantize"] = "quantize" in plan
            return deps
        if stage in ("evaluate", "energy"):
            deps["designs"] = list(cfg.designs)
            if stage == "evaluate":
                # losses are reported only when quantize ran (see
                # stage_evaluate), so the plan subset is part of the key
                deps["with_quantize"] = "quantize" in plan
            if stage == "energy" and cfg.sim_samples:
                # added only when nonzero so analytic-only runs keep
                # their pre-existing cache entries
                deps["sim_samples"] = cfg.sim_samples
            return deps
        if stage in ("export", "serve-check"):
            deps["export_design"] = cfg.resolved_export_design()
            deps["export_dir"] = cfg.export_dir
            if stage == "serve-check":
                deps["serve_name"] = cfg.serve_name or cfg.app
            return deps
        raise ValueError(f"unknown stage {stage!r}")

    def stage_key(self, stage: str, plan: tuple[str, ...]) -> str:
        """Content hash of everything *stage*'s result depends on."""
        return _content_key(stage, self._stage_deps(stage, plan))

    def dataset_cache_path(self) -> str | None:
        """Cache entry of the synthesised dataset (``None`` when caching
        is off), keyed by exactly what synthesis depends on — every
        candidate of a sweep sharing (app, n_train, n_test, seed) shares
        it."""
        if self.cache_root is None:
            return None
        tier = self.config.tier()
        key = _content_key("dataset", {
            "app": self.config.app, "n_train": tier.n_train,
            "n_test": tier.n_test, "seed": self.config.seed})
        return os.path.join(self.cache_root, f"dataset-{key[:16]}",
                            "dataset.npz")

    def stage_cache_dir(self, stage: str,
                        plan: tuple[str, ...]) -> str | None:
        """Cache directory of *stage* (``None`` when caching is off)."""
        if self.cache_root is None:
            return None
        return os.path.join(
            self.cache_root,
            f"{stage.replace('-', '_')}-{self.stage_key(stage, plan)[:16]}")

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _stage_json(stage_dir: str, stage: str) -> str:
        return os.path.join(stage_dir, f"{stage}.json")

    def _state_files(self, stage: str, stage_dir: str, ctx: PipelineContext,
                     payload: dict | None = None) -> dict[str, str]:
        """``label -> npz path`` of the weight states *stage* persists."""
        if stage == "train":
            return {"train": os.path.join(stage_dir, "train-state.npz")}
        if stage == "constrain":
            if payload is not None:
                designs = [o["design"] for o in payload["outcomes"]]
            else:
                designs = [d.token for d in ctx.config.parsed_designs
                           if d.constrained]
            return {design: os.path.join(
                        stage_dir, f"state-{_design_tag(design)}.npz")
                    for design in designs}
        return {}

    def _try_load_cached(self, stage: str, stage_dir: str | None, key: str,
                         ctx: PipelineContext):
        """Load *stage* from the cache, or return ``None`` on any miss.

        An unreadable entry is a miss too — a malformed envelope, a
        payload that does not rebuild the result, truncated or missing
        weight states — so the stage recomputes and overwrites it.
        """
        if stage_dir is None:
            return None
        path = self._stage_json(stage_dir, stage)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except CACHE_READ_ERRORS:
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("format") != _CACHE_FORMAT
                or envelope.get("key") != key
                or envelope.get("stage") != stage):
            return None
        try:
            payload = envelope["result"]
            result = result_from_payload(stage, payload)
            states = {label: load_state(state_path, ctx.model)
                      for label, state_path in self._state_files(
                          stage, stage_dir, ctx, payload=payload).items()}
            outcomes = result.outcomes \
                if isinstance(result, ConstrainResult) else ()
            chosen_sets = {
                outcome.design: standard_set(outcome.chosen_alphabets)
                for outcome in outcomes
                if outcome.chosen_alphabets is not None}
        except CACHE_READ_ERRORS + (TypeError,):
            return None
        if stage == "export" and not os.path.isdir(result.path):
            return None  # artifact bundle was deleted; re-export
        # rebuild the context exactly as a live run would have left it
        if stage == "train":
            ctx.train_state = states["train"]
        elif stage == "constrain":
            ctx.design_states.update(states)
            ctx.chosen_sets.update(chosen_sets)
        return result

    def _write_cache(self, stage: str, stage_dir: str | None, key: str,
                     ctx: PipelineContext, result) -> None:
        if stage_dir is None:
            return
        os.makedirs(stage_dir, exist_ok=True)
        # states first, envelope last: a reader that sees the envelope may
        # still double-check the states, never the other way around
        for label, path in self._state_files(stage, stage_dir, ctx).items():
            state = (ctx.train_state if label == "train"
                     else ctx.design_states.get(label))
            if state is None:  # design not retrained (shouldn't happen)
                continue
            save_state(path, state)
        envelope = {
            "format": _CACHE_FORMAT,
            "stage": stage,
            "key": key,
            "result": to_jsonable(result),
        }
        atomic_write_json(self._stage_json(stage_dir, stage), envelope)

    def _write_run_marker(self, plan: tuple[str, ...]) -> None:
        """Record this (config, plan) under ``<cache>/runs/`` for listing."""
        runs_dir = os.path.join(self.cache_root, "runs")
        os.makedirs(runs_dir, exist_ok=True)
        cfg = self.config
        plan_tag = hashlib.sha256("+".join(plan).encode()).hexdigest()[:8]
        marker = {
            "config_digest": cfg.digest(),
            "app": cfg.app,
            "bits": cfg.word_bits(),
            "designs": list(cfg.designs),
            "stages": list(plan),
            "budget": cfg.tier().name,
            "seed": cfg.seed,
        }
        atomic_write_json(
            os.path.join(runs_dir,
                         f"{cfg.digest()[:16]}-{plan_tag}.json"), marker)

    # ------------------------------------------------------------------
    def run(self, stages: tuple[str, ...] | None = None,
            resume: bool = True, verbose: bool = False,
            context: PipelineContext | None = None) -> PipelineReport:
        """Execute the (resolved) stages; returns the report.

        ``resume=False`` ignores existing cache entries (they are still
        rewritten afterwards when caching is enabled).  Passing a
        *context* exposes the run's mutable state (trained model, weight
        states) to the caller — the sensitivity-guided explorer uses this
        to probe the trained network.
        """
        ctx = context if context is not None \
            else PipelineContext(self.config)
        ctx.dataset_path = self.dataset_cache_path()
        plan = self.plan(stages)
        cached: list[str] = []
        with obs.span("pipeline.run", app=self.config.app,
                      digest=self.config.digest()[:12],
                      stages=",".join(plan)):
            for stage in plan:
                with obs.span(f"stage.{stage}") as stage_span:
                    self._run_stage(stage, plan, ctx, cached,
                                    resume=resume, verbose=verbose,
                                    stage_span=stage_span)
        if self.cache_root is not None:
            self._write_run_marker(plan)
        report_kwargs = {STAGE_ATTRS[name]: result
                         for name, result in ctx.results.items()}
        return PipelineReport(config=self.config, stages_run=plan,
                              cached_stages=tuple(cached), **report_kwargs)

    def _run_stage(self, stage: str, plan: tuple[str, ...],
                   ctx: PipelineContext, cached: list[str], *,
                   resume: bool, verbose: bool, stage_span) -> None:
        """Run (or load) one stage inside its tracing span."""
        key = self.stage_key(stage, plan)
        stage_dir = self.stage_cache_dir(stage, plan)
        result = self._try_load_cached(stage, stage_dir, key, ctx) \
            if resume else None
        if result is not None:
            cached.append(stage)
            stage_span.set(cached=True)
            if obs.enabled():
                obs.registry().counter("pipeline.cache.hits",
                                       stage=stage).inc()
            if verbose:
                print(f"[{stage}] cached "
                      f"({os.path.relpath(self._stage_json(stage_dir, stage))})")
        else:
            stage_span.set(cached=False)
            if obs.enabled():
                obs.registry().counter("pipeline.cache.misses",
                                       stage=stage).inc()
            if verbose:
                print(f"[{stage}] running ...")
            try:
                result = STAGE_FUNCTIONS[stage](ctx)
            except StageError as error:
                raise StageError(
                    f"stage {stage!r} failed: {error}") from error
            self._write_cache(stage, stage_dir, key, ctx, result)
        ctx.results[stage] = result


def _content_key(stage: str, deps: dict) -> str:
    """SHA-256 of a cache entry's name and everything it depends on."""
    canon = json.dumps(
        {"format": _CACHE_FORMAT, "stage": stage, "deps": deps},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _design_tag(design: str) -> str:
    """Filesystem-safe tag for a design token (``mixed:1-0`` -> hash)."""
    if ":" not in design:
        return design
    return "plan-" + hashlib.sha256(design.encode()).hexdigest()[:12]


def list_cached_runs(cache_dir: str) -> list[dict]:
    """Markers of completed cached runs under *cache_dir*, sorted.

    Each entry is the marker dict written by :meth:`Pipeline.run`
    (app, designs, stages, budget, seed, config_digest).  Unreadable
    markers are skipped.
    """
    runs_dir = os.path.join(cache_dir, "runs")
    markers = []
    try:
        names = sorted(os.listdir(runs_dir))
    except OSError:
        return []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(runs_dir, name)) as handle:
                markers.append(json.load(handle))
        except (OSError, json.JSONDecodeError):
            continue
    markers.sort(key=lambda m: (m.get("app", ""), m.get("seed", 0),
                                m.get("config_digest", "")))
    return markers


def run_pipeline(config: PipelineConfig | dict | str | os.PathLike,
                 stages: tuple[str, ...] | None = None,
                 cache_dir: str | None = None,
                 resume: bool = True,
                 verbose: bool = False) -> PipelineReport:
    """One-call convenience: accept a config object, mapping or file path."""
    if isinstance(config, (str, os.PathLike)):
        config = PipelineConfig.load(os.fspath(config))
    elif isinstance(config, dict):
        config = PipelineConfig.from_dict(config)
    return Pipeline(config, cache_dir=cache_dir).run(
        stages=stages, resume=resume, verbose=verbose)
