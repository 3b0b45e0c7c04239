"""Declarative pipeline configuration.

A :class:`PipelineConfig` is the single description of one end-to-end run
of the paper's flow — dataset/benchmark, word width, ASM *designs* to
deploy, training budget tier, seed, and which named stages to execute.
It is frozen, validated on construction, loadable from a dict / JSON /
TOML file and round-trippable (``from_dict(cfg.to_dict()) == cfg``), so
new scenarios are a config file, not a new driver module.

Each design token names one :class:`Design`, the neuron design a run
deploys; ``docs/pipeline.md`` tabulates the vocabulary.

This module is also the home of the training *budget tiers*
(``quick`` / ``full``) and the per-benchmark optimiser settings.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from dataclasses import MISSING, dataclass, fields, replace
from typing import ClassVar

from repro.asm.alphabet import AlphabetSet, standard_set
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.datasets.registry import BENCHMARKS
from repro.faults.models import FAULT_KINDS
from repro.kernels.evaluate import DEFAULT_EVAL_BATCH
from repro.kernels.registry import BACKEND_NAMES
from repro.training.mixed import MIXED_PLAN_APPS, paper_mixed_plan

__all__ = [
    "Budget", "QUICK", "budget", "TRAIN_SETTINGS",
    "PipelineConfigError", "PipelineConfig",
    "STAGE_NAMES", "DESIGN_COUNTS", "Design",
]


@dataclass(frozen=True)
class Budget:
    """Sample counts and epoch limits for one tier."""

    name: str
    n_train: int
    n_test: int
    max_epochs: int
    retrain_epochs: int


QUICK = Budget("quick", n_train=700, n_test=300, max_epochs=8,
               retrain_epochs=5)
FULL = Budget("full", n_train=4000, n_test=1500, max_epochs=40,
              retrain_epochs=20)

_TIERS = {"quick": QUICK, "full": FULL}


def budget(full: bool) -> Budget:
    return FULL if full else QUICK


@dataclass(frozen=True)
class TrainSettings:
    """Per-benchmark optimiser settings."""

    learning_rate: float
    retrain_lr_scale: float = 0.25
    batch_size: int = 32
    patience: int = 3


#: The deep tanh MLPs (SVHN, TICH) need a gentler rate than the 2-layer
#: sigmoid nets; retraining scales the rate down per Algorithm 2.
TRAIN_SETTINGS: dict[str, TrainSettings] = {
    "mnist_mlp": TrainSettings(learning_rate=0.3),
    "mnist_cnn": TrainSettings(learning_rate=0.1, batch_size=16),
    "face": TrainSettings(learning_rate=0.3),
    "svhn": TrainSettings(learning_rate=0.05),
    "tich": TrainSettings(learning_rate=0.05),
}


#: Canonical stage order; ``PipelineConfig.stages`` is any subset.
STAGE_NAMES = ("train", "quantize", "constrain", "evaluate", "faults",
               "energy", "export", "serve-check")

#: Alphabet counts with a standard set (see ``repro.asm.alphabet``).
DESIGN_COUNTS = (1, 2, 4, 8)

_ASM_RE = re.compile(r"^asm([0-9]+)$")
_PLAN_RE = re.compile(r"^mixed:([0-9]+(?:-[0-9]+)*)$")


class PipelineConfigError(ValueError):
    """Invalid pipeline configuration (bad value or unknown key)."""


@dataclass(frozen=True)
class Design:
    """One parsed design token (:meth:`parse` is the one parser).

    ``kind`` is ``conventional`` (the exact multiplier), ``asm``
    (``asmN``, the uniform N-alphabet ASM; the MAN is ``asm1``),
    ``mixed`` (the paper's §VI.E per-layer plan), ``plan`` (a custom
    ``mixed:C1-C2-...``, one count per parameterised layer, ``0`` =
    exact) or ``ladder`` (Algorithm 2's quality ladder).  ``counts`` is
    ``(N,)`` for ``asmN``, ``(0,)`` for conventional, a plan's counts.
    """

    token: str
    kind: str
    counts: tuple[int, ...] = ()

    #: the token forms, as parse errors and ``repro list`` name them
    FORMS: ClassVar[tuple[str, ...]] = (
        "conventional", *(f"asm{count}" for count in DESIGN_COUNTS),
        "mixed", "mixed:C1-C2-...", "ladder")

    @classmethod
    def parse(cls, token: str) -> "Design":
        """The design *token* names (memoized per token)."""
        if not isinstance(token, str):
            raise PipelineConfigError(
                f"design tokens must be strings, got {token!r}")
        return _parse_design(token)

    @property
    def constrained(self) -> bool:
        """Whether the ``constrain`` stage retrains this design (every
        design but the conventional baseline)."""
        return self.kind != "conventional"

    @property
    def is_ladder(self) -> bool:
        return self.kind == "ladder"

    @property
    def per_layer(self) -> bool:
        """Whether the design is a per-layer plan (lowered layer by layer
        over a conventional base spec)."""
        return self.kind in ("mixed", "plan")

    @property
    def path_name(self) -> str:
        """The token as a path component (``:`` is not portable)."""
        return self.token.replace(":", "_")

    def check_app(self, app: str) -> None:
        """Reject an *app* this design cannot deploy on."""
        if self.kind == "mixed" and app not in MIXED_PLAN_APPS:
            raise PipelineConfigError(
                f"app {app!r} has no §VI.E 'mixed' plan; "
                f"choose from {MIXED_PLAN_APPS}")

    def plan(self, app: str, model,
             chosen: AlphabetSet | None = None) -> list[Multiplier]:
        """The multiplier of each parameterised layer of *model*; a
        ladder deploys *chosen*, the set its ``constrain`` picked.
        Raises :class:`ValueError` when neither fits."""
        n_layers = len(model.trainable_layers)
        if self.kind == "mixed":
            return [Multiplier(aset) for aset in paper_mixed_plan(app, model)]
        if self.kind == "plan":
            if len(self.counts) != n_layers:
                raise ValueError(
                    f"design {self.token!r} gives {len(self.counts)} layer "
                    f"counts but {app!r} has {n_layers} parameterised "
                    f"layers")
            return [_multiplier(count) for count in self.counts]
        if self.is_ladder:
            if chosen is None:
                raise ValueError(
                    "ladder design not resolved yet - run 'constrain'")
            return [Multiplier(chosen)] * n_layers
        return [_multiplier(self.counts[0])] * n_layers

    def label(self, plan: list[Multiplier]) -> str:
        """The evaluation label of this design deployed as *plan*."""
        if self.per_layer:
            return "mixed(" + ",".join(m.label("exact") for m in plan) + ")"
        label = plan[0].label(asm="{count} {set}")
        return f"ladder {label}" if self.is_ladder else label


def _multiplier(count: int) -> Multiplier:
    return Multiplier(standard_set(count)) if count else CONVENTIONAL


@functools.lru_cache(maxsize=256)
def _parse_design(token: str) -> Design:
    if token == "conventional":
        return Design(token, "conventional", (0,))
    if token in ("mixed", "ladder"):
        return Design(token, token)
    match = _ASM_RE.match(token)
    if match and int(match.group(1)) in DESIGN_COUNTS:
        return Design(token, "asm", (int(match.group(1)),))
    match = _PLAN_RE.match(token)
    if match:
        counts = tuple(int(c) for c in match.group(1).split("-"))
        for count in counts:
            if count != 0 and count not in DESIGN_COUNTS:
                raise PipelineConfigError(
                    f"design {token!r}: layer count {count} has no "
                    f"standard alphabet set (choose from {DESIGN_COUNTS}, "
                    f"or 0 for a conventional layer)")
        if not any(counts):
            raise PipelineConfigError(
                f"design {token!r} constrains no layer; use "
                f"'conventional' instead")
        return Design(token, "plan", counts)
    raise PipelineConfigError(
        f"unknown design {token!r}; expected one of "
        f"{', '.join(Design.FORMS)}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs, declaratively; validation
    parses ``designs`` into ``parsed_designs``, one :class:`Design` each.
    """

    app: str
    bits: int | None = None            # None -> the benchmark's Table IV width
    designs: tuple[str, ...] = ("conventional", "asm4", "asm2", "asm1")
    stages: tuple[str, ...] = ("train", "quantize", "constrain",
                               "evaluate", "energy")
    budget: str | Budget = "quick"
    seed: int = 0
    constraint_mode: str = "greedy"
    quality: float = 0.99              # Algorithm 2's Q (ladder designs)
    ladder: tuple[int, ...] = (1, 2, 4, 8)
    export_design: str | None = None   # default: first non-conventional
    export_dir: str = os.path.join("results", "artifacts")
    serve_name: str | None = None      # registry name; default: app
    cache_dir: str | None = None       # stage cache root; None -> no cache
    #: kernel backend (``repro.kernels``: "reference" | "fast" | "auto")
    #: for every kernel family the run uses: forward/evaluate, constraint
    #: projection, training and the toggle simulator.  All backends are
    #: bit-identical, so this is a speed knob, not a results knob —
    #: which is also why it is excluded from the stage cache keys.
    backend: str = "auto"
    #: evaluation batch size (memory knob; results are independent of it)
    eval_batch_size: int = DEFAULT_EVAL_BATCH
    #: test samples the energy stage traces through the cycle-accurate
    #: simulator for data-dependent toggle energy (0 = analytic model
    #: only).  Unlike the backend this **changes the energy result**,
    #: so it is part of the energy stage's cache key.
    sim_samples: int = 0
    #: fault rates the ``faults`` stage sweeps (empty = stage refuses to
    #: run).  Rates, kind and seed all change the resiliency result, so
    #: all three are part of the faults stage's cache key.
    fault_rates: tuple[float, ...] = ()
    #: fault model swept by the ``faults`` stage (``repro.faults``).
    fault_kind: str = "activation_upset"
    #: seed of the deterministic fault-site hash.
    fault_seed: int = 0

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        _coerce_json_fields(self, PipelineConfigError)
        if isinstance(self.budget, dict):
            object.__setattr__(self, "budget", _budget_from_dict(self.budget))
        self._validate()

    def _validate(self) -> None:
        if self.app not in BENCHMARKS:
            raise PipelineConfigError(
                f"unknown app {self.app!r}; choose from {sorted(BENCHMARKS)}")
        if self.bits is not None and self.bits < 2:
            raise PipelineConfigError(f"bits must be >= 2, got {self.bits}")
        if not self.designs:
            raise PipelineConfigError("designs must not be empty")
        if len(set(self.designs)) != len(self.designs):
            raise PipelineConfigError(f"duplicate designs in {self.designs}")
        parsed = tuple(map(Design.parse, self.designs))
        for design in parsed:
            design.check_app(self.app)
        # not a field: the tokens are what round-trips and what the
        # digest and the stage keys hash
        object.__setattr__(self, "parsed_designs", parsed)
        if not self.stages:
            raise PipelineConfigError("stages must not be empty")
        for stage in self.stages:
            if stage not in STAGE_NAMES:
                raise PipelineConfigError(
                    f"unknown stage {stage!r}; choose from {STAGE_NAMES}")
        if len(set(self.stages)) != len(self.stages):
            raise PipelineConfigError(f"duplicate stages in {self.stages}")
        if isinstance(self.budget, str):
            if self.budget not in _TIERS:
                raise PipelineConfigError(
                    f"unknown budget tier {self.budget!r}; choose from "
                    f"{sorted(_TIERS)} or give an inline budget table")
        if self.constraint_mode not in ("greedy", "nearest"):
            raise PipelineConfigError(
                f"constraint_mode must be 'greedy' or 'nearest', "
                f"got {self.constraint_mode!r}")
        if not 0 < self.quality <= 1:
            raise PipelineConfigError(
                f"quality must be in (0, 1], got {self.quality}")
        if not self.ladder:
            raise PipelineConfigError("ladder must not be empty")
        for count in self.ladder:
            if count not in DESIGN_COUNTS:
                raise PipelineConfigError(
                    f"ladder count {count} has no standard alphabet set "
                    f"(choose from {DESIGN_COUNTS})")
        if self.backend not in BACKEND_NAMES:
            raise PipelineConfigError(
                f"unknown backend {self.backend!r}; choose from "
                f"{BACKEND_NAMES}")
        if self.eval_batch_size < 1:
            raise PipelineConfigError(
                f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        if self.sim_samples < 0:
            raise PipelineConfigError(
                f"sim_samples must be >= 0, got {self.sim_samples}")
        if self.fault_kind not in FAULT_KINDS:
            raise PipelineConfigError(
                f"unknown fault_kind {self.fault_kind!r}; choose from "
                f"{FAULT_KINDS}")
        for rate in self.fault_rates:
            if not 0.0 <= rate <= 1.0:
                raise PipelineConfigError(
                    f"fault rates must be in [0, 1], got {rate}")
        if len(set(self.fault_rates)) != len(self.fault_rates):
            raise PipelineConfigError(
                f"duplicate fault rates in {self.fault_rates}")
        if "faults" in self.stages and not self.fault_rates:
            raise PipelineConfigError(
                "the 'faults' stage needs a non-empty fault_rates sweep")
        if self.export_design is not None:
            if self.export_design not in self.designs:
                raise PipelineConfigError(
                    f"export_design {self.export_design!r} is not one of "
                    f"the configured designs {self.designs}")
            if not Design.parse(self.export_design).constrained:
                raise PipelineConfigError(
                    "export_design must name an ASM design, not "
                    "'conventional'")
        if "export" in self.stages or "serve-check" in self.stages:
            # fail at config time, not after a full training run
            self.resolved_export_design()

    # ------------------------------------------------------------------
    # resolved views
    # ------------------------------------------------------------------
    def word_bits(self) -> int:
        """The word width: explicit ``bits`` or the Table IV default."""
        return self.bits if self.bits is not None else \
            BENCHMARKS[self.app].bits

    def tier(self) -> Budget:
        """The resolved training budget."""
        return _TIERS[self.budget] if isinstance(self.budget, str) \
            else self.budget

    def train_settings(self) -> TrainSettings:
        return TRAIN_SETTINGS[self.app]

    def resolved_export_design(self) -> str:
        """The design :mod:`~repro.pipeline.stages` exports."""
        if self.export_design is not None:
            return self.export_design
        for design in self.parsed_designs:
            if design.constrained:
                return design.token
        raise PipelineConfigError(
            "no exportable design: every configured design is "
            "'conventional'")

    # ------------------------------------------------------------------
    # round-trips
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Build a config from a plain mapping; unknown keys are errors."""
        return _from_mapping(cls, data, PipelineConfigError, "config")

    def to_dict(self) -> dict:
        """Plain-builtin mapping; ``from_dict`` inverts it exactly."""
        data: dict = {
            "app": self.app,
            "bits": self.bits,
            "designs": list(self.designs),
            "stages": list(self.stages),
            "budget": self.budget if isinstance(self.budget, str)
            else dict(vars(self.budget)),      # the fields, in order
            "seed": self.seed,
            "constraint_mode": self.constraint_mode,
            "quality": self.quality,
            "ladder": list(self.ladder),
            "export_design": self.export_design,
            "export_dir": self.export_dir,
            "serve_name": self.serve_name,
            "cache_dir": self.cache_dir,
            "backend": self.backend,
            "eval_batch_size": self.eval_batch_size,
            "sim_samples": self.sim_samples,
            "fault_rates": list(self.fault_rates),
            "fault_kind": self.fault_kind,
            "fault_seed": self.fault_seed,
        }
        return data

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise PipelineConfigError(f"config is not valid JSON: {error}")
        return cls.from_dict(data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        """Load a ``.json`` or ``.toml`` config file."""
        from repro.utils.serialization import load_mapping

        return cls.from_dict(
            load_mapping(path, PipelineConfigError, noun="config"))

    def save(self, path: str) -> str:
        """Write the config as JSON; :meth:`load` inverts it."""
        ext = os.path.splitext(path)[1].lower()
        if ext != ".json":
            raise PipelineConfigError(
                f"save() writes JSON; use a .json path, not {ext!r}")
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Content hash keying the stage cache.

        ``cache_dir`` is excluded — where results are cached does not
        change what is computed.
        """
        data = self.to_dict()
        data.pop("cache_dir")
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def with_overrides(self, **changes) -> "PipelineConfig":
        """A copy with *changes* applied (same validation)."""
        return replace(self, **changes)


#: what each field annotation accepts from JSON, and its name in errors;
#: a ``tuple[X, ...]`` field is a list of ``X`` entries
_JSON_TYPES = {
    "str": ("a string", (str,)), "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "str | None": ("a string or null", (str, type(None))),
    "int | None": ("an integer or null", (int, type(None))),
    "str | Budget": ("a tier name or a budget table", (str, dict, Budget)),
}


@functools.cache
def _field_types(cls) -> tuple:
    """``(name, is_list, type name, types, exact types)`` of each field
    of *cls*; the exact types are a fast path (they never hold bool)."""
    out = []
    for field in fields(cls):
        is_list = field.type.startswith("tuple[")
        name, types = _JSON_TYPES[field.type[6:-6] if is_list else field.type]
        out.append((field.name, is_list, name, types, frozenset(types)))
    return tuple(out)


def _coerce_json_fields(obj, error: type) -> None:
    """Turn the list fields of the dataclass *obj* into tuples, and raise
    *error* naming the first field whose value (or entry) is not of its
    annotated type; ``bool`` is no number here."""
    for name, is_list, type_name, types, exact in _field_types(type(obj)):
        value = getattr(obj, name)
        if not is_list:
            if type(value) not in exact and (
                    type(value) is bool or not isinstance(value, types)):
                raise error(f"{name} must be {type_name}, got {value!r}")
            continue
        if type(value) is not tuple:
            if not isinstance(value, list):
                raise error(f"{name} must be a list, got {value!r}")
            value = tuple(value)
            object.__setattr__(obj, name, value)
        for entry in value:
            if type(entry) not in exact and (
                    type(entry) is bool or not isinstance(entry, types)):
                raise error(
                    f"{name} entries must be {type_name}, got {entry!r}")


def _from_mapping(cls, data, error: type, noun: str):
    """``cls(**data)`` for the plain mapping *data*; a non-mapping, an
    unknown key or a missing required key raises *error*."""
    if not isinstance(data, dict):
        raise error(f"{noun} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise error(f"unknown {noun} key(s): {', '.join(unknown)}; "
                    f"known keys: {', '.join(sorted(known))}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in data]
    if missing:
        raise error(f"{noun} is missing key(s): {', '.join(missing)}")
    return cls(**data)


def _budget_from_dict(data: dict) -> Budget:
    budget = _from_mapping(Budget, {"name": "custom", **data},
                           PipelineConfigError, "budget table")
    _coerce_json_fields(budget, PipelineConfigError)
    return budget
