"""Declarative search spaces over pipeline configurations.

A :class:`SearchSpace` names the axes of a design-space exploration —
design tokens, word widths, budget tiers, seeds, ladder qualities,
constraint modes — plus the strategy that walks them and the objectives
the Pareto reduction optimises.  Like
:class:`~repro.pipeline.config.PipelineConfig` it is frozen, validated
on construction, loadable from a dict / JSON / TOML file, round-trips
exactly, and has a content digest (which keys the exploration journal).

Every *candidate* the space enumerates is an ordinary
:class:`PipelineConfig` carrying exactly one design token, so candidate
evaluation is just :func:`~repro.pipeline.pipeline.run_pipeline` — the
explorer adds no second execution path.  Candidates run on the
config's default kernel backend (``auto``); backends are bit-identical,
so a space has no backend axis.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from repro.datasets.registry import BENCHMARKS
from repro.explore.pareto import resolve_objectives
from repro.pipeline.config import (
    DESIGN_COUNTS,
    Budget,
    Design,
    PipelineConfig,
    PipelineConfigError,
    _budget_from_dict,
    _coerce_json_fields,
    _from_mapping,
)

__all__ = ["SearchSpaceError", "SearchSpace"]

#: The stage plan every candidate runs: enough for the full metric set
#: (accuracy + loss from evaluate/quantize, energy/area/delay from energy).
EVAL_STAGES = ("train", "quantize", "constrain", "evaluate", "energy")

STRATEGIES = ("grid", "random", "sensitivity")


class SearchSpaceError(ValueError):
    """Invalid search-space description (bad value or unknown key)."""


@dataclass(frozen=True)
class SearchSpace:
    """The axes, strategy and objectives of one exploration."""

    app: str
    name: str = ""                       # journal/report label; default: app
    designs: tuple[str, ...] = ("conventional", "asm4", "asm2", "asm1")
    bits: tuple[int | None, ...] = (None,)   # None/0 -> Table IV width
    budgets: tuple[str | Budget, ...] = ("quick",)
    seeds: tuple[int, ...] = (0,)
    qualities: tuple[float, ...] = (0.99,)   # ladder designs' Q
    constraint_modes: tuple[str, ...] = ("greedy",)
    strategy: str = "grid"
    samples: int = 8                     # random strategy: grid points drawn
    strategy_seed: int = 0               # random strategy: sampling rng
    max_candidates: int | None = None
    #: sensitivity strategy: counts to degrade the chosen layers to
    sensitivity_counts: tuple[int, ...] = (1,)
    objectives: tuple[str, ...] = ("accuracy", "energy_per_mac_fj",
                                   "area_um2", "latency_us")
    #: test samples each candidate traces through the cycle-accurate
    #: simulator (0 = analytic energy only; see PipelineConfig)
    sim_samples: int = 0
    #: fault rates each candidate additionally sweeps (non-empty adds
    #: the ``faults`` stage to every candidate; see ``repro.faults``)
    fault_rates: tuple[float, ...] = ()
    #: fault model of the sweep (see PipelineConfig.fault_kind)
    fault_kind: str = "activation_upset"
    #: seed of the deterministic fault-site hash
    fault_seed: int = 0

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        _coerce_json_fields(self, SearchSpaceError)
        # TOML has no null: 0 means "the benchmark's Table IV width"
        object.__setattr__(self, "bits", tuple(
            None if b == 0 else b for b in self.bits))
        object.__setattr__(self, "budgets", tuple(
            _coerce_budget(b) for b in self.budgets))
        if not self.name:
            object.__setattr__(self, "name", self.app)
        self._validate()

    def _validate(self) -> None:
        if self.app not in BENCHMARKS:
            raise SearchSpaceError(
                f"unknown app {self.app!r}; choose from {sorted(BENCHMARKS)}")
        for field_name in ("designs", "bits", "budgets", "seeds",
                           "qualities", "constraint_modes",
                           "sensitivity_counts"):
            if not getattr(self, field_name):
                raise SearchSpaceError(f"{field_name} must not be empty")
        if len(set(self.designs)) != len(self.designs):
            raise SearchSpaceError(f"duplicate designs in {self.designs}")
        if self.strategy not in STRATEGIES:
            raise SearchSpaceError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{STRATEGIES}")
        if self.samples < 1:
            raise SearchSpaceError(f"samples must be >= 1, got {self.samples}")
        for count in self.sensitivity_counts:
            if count not in DESIGN_COUNTS:
                raise SearchSpaceError(
                    f"sensitivity count {count} has no standard alphabet "
                    f"set (choose from {DESIGN_COUNTS})")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise SearchSpaceError(
                f"max_candidates must be >= 1, got {self.max_candidates}")
        try:
            resolve_objectives(self.objectives)
        except ValueError as error:
            raise SearchSpaceError(str(error)) from None
        # probe each value of each axis once, the other axes at their
        # first values, so bad tokens / apps without a §VI.E plan /
        # out-of-range values fail at load time, not mid-exploration
        axes = (self.designs, self.bits, self.budgets, self.seeds,
                self.qualities, self.constraint_modes)
        first = [values[0] for values in axes]
        probes = [first]
        for axis, values in enumerate(axes):
            for value in values[1:]:
                probes.append(first[:axis] + [value] + first[axis + 1:])
        for probe in probes:
            try:
                self.candidate(*probe)
            except PipelineConfigError as error:
                raise SearchSpaceError(str(error)) from None

    # ------------------------------------------------------------------
    # candidates
    # ------------------------------------------------------------------
    def candidate(self, design: str, bits: int | None, budget: str | Budget,
                  seed: int, quality: float, constraint_mode: str,
                  cache_dir: str | None = None) -> PipelineConfig:
        """The :class:`PipelineConfig` of one design point."""
        stages = EVAL_STAGES + ("faults",) if self.fault_rates \
            else EVAL_STAGES
        return PipelineConfig(
            app=self.app, bits=bits, designs=(design,), stages=stages,
            budget=budget, seed=seed, quality=quality,
            constraint_mode=constraint_mode, cache_dir=cache_dir,
            sim_samples=self.sim_samples,
            fault_rates=self.fault_rates, fault_kind=self.fault_kind,
            fault_seed=self.fault_seed)

    def grid(self, cache_dir: str | None = None) -> tuple[PipelineConfig, ...]:
        """The full cartesian grid, canonicalised and deduplicated.

        Axes that cannot affect a design are pinned to their first value
        (``constraint_mode``/``quality`` for conventional, ``quality``
        for non-ladder designs), so sweeping ``qualities`` does not clone
        every ASM point; the resulting duplicates collapse by their
        canonical axis values, preserving first-seen order.
        """
        seen: set[tuple] = set()
        out: list[PipelineConfig] = []
        for design in self.designs:
            parsed = Design.parse(design)
            for bits, budget, seed, mode, quality in itertools.product(
                    self.bits, self.budgets, self.seeds,
                    self.constraint_modes, self.qualities):
                if not parsed.constrained:
                    mode = self.constraint_modes[0]
                if not parsed.is_ladder:
                    quality = self.qualities[0]
                point = (design, bits, budget, seed, mode, quality)
                if point not in seen:
                    seen.add(point)
                    out.append(self.candidate(design, bits, budget, seed,
                                              quality, mode, cache_dir))
        if self.max_candidates is not None:
            out = out[:self.max_candidates]
        return tuple(out)

    # ------------------------------------------------------------------
    # round-trips (same conventions as PipelineConfig)
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        return _from_mapping(cls, data, SearchSpaceError, "search space")

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "name": self.name,
            "designs": list(self.designs),
            "bits": [0 if b is None else b for b in self.bits],
            "budgets": [b if isinstance(b, str) else dict(vars(b))
                        for b in self.budgets],
            "seeds": list(self.seeds),
            "qualities": list(self.qualities),
            "constraint_modes": list(self.constraint_modes),
            "strategy": self.strategy,
            "samples": self.samples,
            "strategy_seed": self.strategy_seed,
            "max_candidates": self.max_candidates,
            "sensitivity_counts": list(self.sensitivity_counts),
            "objectives": list(self.objectives),
            "sim_samples": self.sim_samples,
            "fault_rates": list(self.fault_rates),
            "fault_kind": self.fault_kind,
            "fault_seed": self.fault_seed,
        }

    @classmethod
    def load(cls, path: str) -> "SearchSpace":
        """Load a ``.json`` or ``.toml`` search-space file."""
        from repro.utils.serialization import load_mapping

        return cls.from_dict(
            load_mapping(path, SearchSpaceError, noun="search space"))

    def digest(self) -> str:
        """Content hash; keys the exploration journal."""
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _coerce_budget(value) -> str | Budget:
    if isinstance(value, str) and value not in ("quick", "full"):
        raise SearchSpaceError(
            f"unknown budget tier {value!r}; choose from "
            f"['full', 'quick'] or give an inline budget table")
    try:
        return _budget_from_dict(value) if isinstance(value, dict) else value
    except PipelineConfigError as error:
        raise SearchSpaceError(str(error)) from None
