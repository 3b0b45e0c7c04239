"""Named pipeline stages and their typed results.

Each stage is a function ``(PipelineContext) -> StageResult`` operating on
the shared context (dataset, model, stashed weight states).  Stages are
individually runnable and cacheable: results are plain frozen dataclasses
reconstructible from their JSON form (:func:`result_from_payload`), and
weight states round-trip through ``.npz`` files bit-exactly — a resumed
pipeline produces the same numbers as a cold one.

The stage bodies reproduce the exact operation sequences of the
pre-pipeline experiment drivers (same trainer construction, same
projector, same quantisation calls), which is what keeps the paper's
tables bit-identical to their pre-pipeline output.  Algorithm 2 lives
here only: every design's retrain goes through :func:`_retrain`, and the
``ladder`` design escalates through it rung by rung.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.asm.alphabet import AlphabetSet, standard_set
from repro.asm.multiplier import CONVENTIONAL, Multiplier
from repro.datasets.base import Dataset
from repro.datasets.registry import BENCHMARKS, build_model, load_dataset, \
    training_arrays
from repro.hardware.engine import ProcessingEngine
from repro.nn.optim import SGD
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.nn.trainer import Trainer
from repro.pipeline.config import PipelineConfig, is_plan_design, \
    parse_design
from repro.training.constrained import ConstraintProjector, constrained_trainer
from repro.training.mixed import paper_mixed_plan

__all__ = [
    "PipelineContext", "StageError",
    "TrainResult", "QuantizeResult", "DesignOutcome", "ConstrainResult",
    "EvaluationRow", "EvaluateResult", "FaultRow", "FaultsResult",
    "EnergyDesignRow", "EnergyResult",
    "ExportResult", "ServeCheckResult",
    "STAGE_FUNCTIONS", "result_from_payload",
    "save_state", "load_state", "CACHE_READ_ERRORS",
]

#: what reading a damaged cache file raises (missing or truncated file,
#: bad zip CRC, absent member, inconsistent arrays) — always a cache miss
CACHE_READ_ERRORS = (OSError, ValueError, KeyError, EOFError,
                     zipfile.BadZipFile)


class StageError(RuntimeError):
    """A stage cannot run (missing prerequisite state or bad design)."""


# ----------------------------------------------------------------------
# typed stage results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainResult:
    """Unconstrained training to saturation (Algorithm 2 step 1)."""

    app: str
    bits: int
    budget: str
    seed: int
    epochs: int
    float_accuracy: float


@dataclass(frozen=True)
class QuantizeResult:
    """Baseline accuracy J through the quantised conventional engine."""

    bits: int
    baseline_accuracy: float


@dataclass(frozen=True)
class DesignOutcome:
    """One design's constrained retraining record."""

    design: str
    epochs: int
    chosen_alphabets: int | None = None      # ladder designs only
    ladder_accuracies: tuple[float, ...] = ()
    # ladder designs only: did the chosen rung reach K >= J * quality?
    # False when the ladder ran out of rungs first
    quality_met: bool | None = None


@dataclass(frozen=True)
class ConstrainResult:
    """Constrained retraining of every non-conventional design."""

    outcomes: tuple[DesignOutcome, ...]

    def outcome_for(self, design: str) -> DesignOutcome:
        for outcome in self.outcomes:
            if outcome.design == design:
                return outcome
        raise KeyError(f"no constrain outcome for design {design!r}")


@dataclass(frozen=True)
class EvaluationRow:
    """Bit-accurate engine accuracy of one deployed design."""

    design: str
    label: str
    accuracy: float
    loss: float | None          # vs the conventional baseline, if known


@dataclass(frozen=True)
class EvaluateResult:
    rows: tuple[EvaluationRow, ...]

    def row_for(self, design: str) -> EvaluationRow:
        for row in self.rows:
            if row.design == design:
                return row
        raise KeyError(f"no evaluation row for design {design!r}")


@dataclass(frozen=True)
class FaultRow:
    """Accuracy of one design under one fault rate."""

    design: str
    rate: float
    accuracy: float
    #: clean accuracy minus faulted accuracy (positive = worse).
    degradation: float
    #: fault sites hit while evaluating the test set.
    injected: int


@dataclass(frozen=True)
class FaultsResult:
    """The ``faults`` stage: a seeded accuracy-vs-fault-rate sweep."""

    kind: str
    seed: int
    rows: tuple[FaultRow, ...]


@dataclass(frozen=True)
class EnergyDesignRow:
    """CSHM-engine cost of one inference under one design."""

    design: str
    label: str
    energy_nj: float
    cycles: int
    normalized: float           # vs the conventional design
    energy_per_mac_fj: float = 0.0
    area_um2: float = 0.0       # CSHM cluster area (iso-speed sized)
    latency_us: float = 0.0     # one inference pass at the design clock
    # cycle-accurate toggle simulation over real test activations
    # (``config.sim_samples`` > 0; dense layers only — zeros otherwise)
    sim_energy_nj: float = 0.0  # mean per-inference toggle energy
    sim_toggles: float = 0.0    # mean bit toggles per inference
    sim_cycles: int = 0         # simulated engine cycles (data-blind)
    sim_macs: int = 0           # MACs covered by the simulated layers


@dataclass(frozen=True)
class EnergyResult:
    rows: tuple[EnergyDesignRow, ...]

    def row_for(self, design: str) -> EnergyDesignRow:
        for row in self.rows:
            if row.design == design:
                return row
        raise KeyError(f"no energy row for design {design!r}")


@dataclass(frozen=True)
class ExportResult:
    """A constrained design exported as a serving artifact bundle."""

    design: str
    path: str
    spec_label: str
    artifact_bytes: int


@dataclass(frozen=True)
class ServeCheckResult:
    """Registry reload + bit-identity verification of the export."""

    design: str
    registry_key: str
    num_params: int
    compiled_accuracy: float
    bit_identical: bool
    energy_nj_per_inference: float | None


# ----------------------------------------------------------------------
# context
# ----------------------------------------------------------------------
class PipelineContext:
    """Mutable runtime state shared by the stages of one pipeline run."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.bench = BENCHMARKS[config.app]
        self.tier = config.tier()
        self.settings = config.train_settings()
        self.bits = config.word_bits()
        #: stage-cache entry of the dataset (``None``: always synthesise);
        #: set by :meth:`Pipeline.run` from the pipeline's cache root
        self.dataset_path: str | None = None
        self._dataset: Dataset | None = None
        self._model = None
        #: restore point after unconstrained training (Algorithm 2 step 2)
        self.train_state: list | None = None
        #: per-design retrained weight states
        self.design_states: dict[str, list] = {}
        #: ladder designs resolve to a concrete set during ``constrain``
        self.chosen_sets: dict[str, AlphabetSet] = {}
        #: completed stage results, keyed by stage name
        self.results: dict[str, object] = {}
        #: lowered networks per design (states are fixed once constrained,
        #: so evaluate/export/serve-check share one QuantizedNetwork)
        self._quantized: dict[str, QuantizedNetwork] = {}

    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The run's dataset: loaded from :attr:`dataset_path` when that
        entry exists, else synthesised (and stored there)."""
        if self._dataset is None:
            with obs.span("pipeline.dataset",
                          app=self.config.app) as dataset_span:
                path = self.dataset_path
                dataset = _load_dataset(path) if path else None
                cached = dataset is not None
                dataset_span.set(cached=cached)
                if obs.enabled():
                    if cached:
                        obs.registry().counter("pipeline.cache.hits",
                                               stage="dataset").inc()
                    else:
                        obs.registry().counter("pipeline.cache.misses",
                                               stage="dataset").inc()
                if not cached:
                    dataset = load_dataset(
                        self.config.app, n_train=self.tier.n_train,
                        n_test=self.tier.n_test, seed=self.config.seed)
                    if path:
                        _save_dataset(path, dataset)
            self._dataset = dataset
        return self._dataset

    @property
    def model(self):
        if self._model is None:
            self._model = build_model(self.config.app,
                                      seed=self.config.seed + 1)
            # training kernels follow the run's one backend knob (a
            # bit-identical speed knob, so it stays out of every stage key)
            self._model.set_train_backend(self.config.backend)
        return self._model

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return training_arrays(self.dataset, self.bench)

    # ------------------------------------------------------------------
    def design_set(self, design: str) -> Multiplier:
        """The uniform multiplier of *design*.

        ``mixed`` has no uniform set (use :meth:`design_plan`); ``ladder``
        resolves to the set chosen during the ``constrain`` stage.
        """
        kind = parse_design(design)
        if kind is None:
            return CONVENTIONAL
        if is_plan_design(kind):
            raise StageError(
                f"{design!r} has a per-layer plan, not one set")
        if kind == "ladder":
            if design not in self.chosen_sets:
                raise StageError(
                    "ladder design not resolved yet - run 'constrain'")
            return Multiplier(self.chosen_sets[design])
        return Multiplier(standard_set(kind))

    def design_plan(self, design: str) -> list[Multiplier]:
        """Per-parameterised-layer multiplier plan of *design*."""
        n_layers = len(self.model.trainable_layers)
        kind = parse_design(design)
        if kind == "mixed":
            return [Multiplier(aset) for aset in
                    paper_mixed_plan(self.config.app, self.model)]
        if isinstance(kind, tuple):            # custom mixed:C1-C2-... plan
            if len(kind) != n_layers:
                raise StageError(
                    f"design {design!r} gives {len(kind)} layer counts but "
                    f"{self.config.app!r} has {n_layers} parameterised "
                    f"layers")
            return [CONVENTIONAL if count == 0 else
                    Multiplier(standard_set(count)) for count in kind]
        return [self.design_set(design)] * n_layers

    def require_design_state(self, design: str) -> list:
        try:
            return self.design_states[design]
        except KeyError:
            raise StageError(
                f"no retrained weights for design {design!r} - "
                f"run 'constrain' first") from None

    def conventional_quantized(self) -> QuantizedNetwork:
        """The conventional-engine lowering of the trained weights
        (memoized; shared by ``quantize`` and the simulated energy
        traces — weights are folded at construction, so later model
        state changes cannot stale it)."""
        if "conventional" not in self._quantized:
            if self.train_state is None:
                raise StageError(
                    "the conventional deployment needs 'train' to have run")
            model = self.model
            model.load_state(self.train_state)
            self._quantized["conventional"] = QuantizedNetwork.from_float(
                model, QuantizationSpec(self.bits),
                backend=self.config.backend)
        return self._quantized["conventional"]

    def design_quantized(self, design: str) -> QuantizedNetwork:
        """The deployable quantised network of *design* (memoized).

        Runs on the config's kernel ``backend`` — bit-identical across
        backends, so only evaluation speed changes.
        """
        if design in self._quantized:
            return self._quantized[design]
        model = self.model
        model.load_state(self.require_design_state(design))
        bits = self.bits
        mode = self.config.constraint_mode
        backend = self.config.backend
        if is_plan_design(parse_design(design)):
            layer_specs = [
                QuantizationSpec.constrained(bits, multiplier, mode=mode)
                for multiplier in self.design_plan(design)]
            quantized = QuantizedNetwork.from_float(
                model, QuantizationSpec(bits), layer_specs=layer_specs,
                backend=backend)
        else:
            quantized = QuantizedNetwork.from_float(
                model, QuantizationSpec.constrained(
                    bits, self.design_set(design), mode=mode),
                backend=backend)
        self._quantized[design] = quantized
        return quantized


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def stage_train(ctx: PipelineContext) -> TrainResult:
    """Unconstrained training to saturation; stores the restore point."""
    model = ctx.model
    settings = ctx.settings
    x_train, x_test = ctx.arrays()
    trainer = Trainer(model, SGD(model, settings.learning_rate),
                      batch_size=settings.batch_size,
                      patience=settings.patience)
    history = trainer.fit(x_train, ctx.dataset.y_train_onehot, x_test,
                          ctx.dataset.y_test,
                          max_epochs=ctx.tier.max_epochs)
    ctx.train_state = model.state()
    return TrainResult(
        app=ctx.config.app, bits=ctx.bits, budget=ctx.tier.name,
        seed=ctx.config.seed, epochs=history.epochs_run,
        float_accuracy=model.accuracy(x_test, ctx.dataset.y_test))


def stage_quantize(ctx: PipelineContext) -> QuantizeResult:
    """Baseline accuracy J through the conventional quantised engine."""
    if ctx.train_state is None:
        raise StageError("'quantize' needs 'train' to have run")
    _, x_test = ctx.arrays()
    baseline = ctx.conventional_quantized().accuracy(
        x_test, ctx.dataset.y_test,
        batch_size=ctx.config.eval_batch_size)
    return QuantizeResult(bits=ctx.bits, baseline_accuracy=baseline)


def stage_constrain(ctx: PipelineContext) -> ConstrainResult:
    """Constrained retraining (Algorithm 2 step 3) per design."""
    if ctx.train_state is None:
        raise StageError("'constrain' needs 'train' to have run")
    outcomes: list[DesignOutcome] = []
    for design in ctx.config.designs:
        kind = parse_design(design)
        if kind is None:
            continue
        with obs.span("constrain.design", design=design) as design_span:
            if kind == "ladder":
                outcome = _constrain_ladder(ctx, design)
            else:
                outcome = DesignOutcome(design=design,
                                        epochs=_retrain(ctx, design))
            design_span.set(epochs=outcome.epochs)
            outcomes.append(outcome)
    return ConstrainResult(outcomes=tuple(outcomes))


def _retrain(ctx: PipelineContext, design: str) -> int:
    """Projected-SGD retrain of *design* from the restore point at the
    lower learning rate (Algorithm 2 step 3).

    Stores the retrained weights as the design's state (dropping any
    stale lowering of it) and returns the epochs run.
    """
    model = ctx.model
    settings = ctx.settings
    x_train, x_test = ctx.arrays()
    model.load_state(ctx.train_state)
    projector = ConstraintProjector(
        model, ctx.bits, layer_plan=ctx.design_plan(design),
        mode=ctx.config.constraint_mode, backend=ctx.config.backend)
    retrainer = constrained_trainer(
        model, SGD(model, settings.learning_rate * settings.retrain_lr_scale),
        projector, batch_size=settings.batch_size, patience=settings.patience)
    history = retrainer.fit(x_train, ctx.dataset.y_train_onehot, x_test,
                            ctx.dataset.y_test,
                            max_epochs=ctx.tier.retrain_epochs)
    ctx.design_states[design] = model.state()
    ctx._quantized.pop(design, None)
    return history.epochs_run


def _constrain_ladder(ctx: PipelineContext, design: str) -> DesignOutcome:
    """Algorithm 2 step 4 for one ``ladder`` design: retrain with each
    rung's alphabet set until its accuracy ``K >= J * quality``.

    The last rung tried is the chosen one.  A ladder can run out of rungs
    with K still short of the bound (even the exact 8-alphabet set is
    retrained), so the outcome records ``quality_met``.  Each rung is
    lowered through :meth:`PipelineContext.design_quantized`, so the chosen
    rung's network stays memoized for ``evaluate`` and ``export``.
    """
    quantize = ctx.results.get("quantize")
    if quantize is None:
        raise StageError(
            "'ladder' designs need the 'quantize' stage for the baseline "
            "accuracy J")
    threshold = quantize.baseline_accuracy * ctx.config.quality
    _, x_test = ctx.arrays()
    accuracies: list[float] = []
    for count in ctx.config.ladder:
        ctx.chosen_sets[design] = standard_set(count)
        epochs = _retrain(ctx, design)
        accuracies.append(ctx.design_quantized(design).accuracy(
            x_test, ctx.dataset.y_test,
            batch_size=ctx.config.eval_batch_size))
        if accuracies[-1] >= threshold:
            break
    return DesignOutcome(design=design, epochs=epochs,
                         chosen_alphabets=count,
                         ladder_accuracies=tuple(accuracies),
                         quality_met=bool(accuracies[-1] >= threshold))


def stage_evaluate(ctx: PipelineContext) -> EvaluateResult:
    """Bit-accurate ASM-engine accuracy per design."""
    _, x_test = ctx.arrays()
    y_test = ctx.dataset.y_test
    quantize: QuantizeResult | None = ctx.results.get("quantize")
    baseline = quantize.baseline_accuracy if quantize else None
    rows: list[EvaluationRow] = []
    for design in ctx.config.designs:
        kind = parse_design(design)
        if kind is None:
            if baseline is None:
                raise StageError(
                    "evaluating 'conventional' needs the 'quantize' stage")
            rows.append(EvaluationRow(design=design, label="conventional",
                                      accuracy=baseline, loss=0.0))
            continue
        quantized = ctx.design_quantized(design)
        if is_plan_design(kind):
            label = "mixed(" + ",".join(
                m.label("exact") for m in ctx.design_plan(design)) + ")"
        else:
            label = ctx.design_set(design).label(asm="{count} {set}")
            if kind == "ladder":
                label = f"ladder {label}"
        accuracy = quantized.accuracy(
            x_test, y_test, batch_size=ctx.config.eval_batch_size)
        rows.append(EvaluationRow(
            design=design, label=label, accuracy=accuracy,
            loss=None if baseline is None else baseline - accuracy))
    return EvaluateResult(rows=tuple(rows))


def stage_faults(ctx: PipelineContext) -> FaultsResult:
    """Seeded fault-rate sweep over the deployed designs.

    Reuses the same memoized :class:`QuantizedNetwork` per design as
    ``evaluate`` and perturbs it through :mod:`repro.faults` — fault
    decisions hash ``(seed, layer, position, code)``, so the sweep is
    bit-identical across kernel backends and batch sizes (which is why
    neither enters this stage's cache key).
    """
    from repro.faults.inject import faulted_accuracy
    from repro.faults.models import FaultSpec

    rates = ctx.config.fault_rates
    if not rates:
        raise StageError(
            "the 'faults' stage needs fault_rates in the config")
    _, x_test = ctx.arrays()
    y_test = ctx.dataset.y_test
    evaluate: EvaluateResult = ctx.results.get("evaluate")
    if evaluate is None:
        raise StageError("the 'faults' stage needs 'evaluate' to have run")
    rows: list[FaultRow] = []
    for design in ctx.config.designs:
        clean = evaluate.row_for(design).accuracy
        quantized = (ctx.conventional_quantized()
                     if parse_design(design) is None
                     else ctx.design_quantized(design))
        for rate in rates:
            spec = FaultSpec(kind=ctx.config.fault_kind, rate=rate,
                             seed=ctx.config.fault_seed)
            accuracy, injected = faulted_accuracy(
                quantized, spec, x_test, y_test,
                batch_size=ctx.config.eval_batch_size)
            rows.append(FaultRow(
                design=design, rate=rate, accuracy=accuracy,
                degradation=clean - accuracy, injected=injected))
    return FaultsResult(kind=ctx.config.fault_kind,
                        seed=ctx.config.fault_seed, rows=tuple(rows))


def stage_energy(ctx: PipelineContext) -> EnergyResult:
    """CSHM-engine per-inference energy per design.

    Always reports the analytic (architecture-only) model; when
    ``config.sim_samples`` > 0 each design's dense layers are also traced
    through the cycle-accurate toggle simulator on that many real test
    activations (``config.backend`` picks the bit-identical fast or
    reference counting kernel), exposing the data-dependent energy the
    analytic model averages away.
    """
    topology = ctx.model.topology()
    engine = ProcessingEngine(ctx.bits, backend=ctx.config.backend)
    conventional = engine.run(topology)
    rows: list[EnergyDesignRow] = []
    for design in ctx.config.designs:
        if design == "conventional":
            report = conventional
        else:
            report = engine.run(topology,
                                layer_alphabets=ctx.design_plan(design))
        sim = _simulate_design_energy(ctx, engine, design) \
            if ctx.config.sim_samples else {}
        rows.append(EnergyDesignRow(
            design=design, label=report.design_label,
            energy_nj=report.energy_nj, cycles=report.cycles,
            normalized=report.energy_nj / conventional.energy_nj,
            energy_per_mac_fj=report.energy_per_mac_fj,
            area_um2=report.area_um2, latency_us=report.latency_us,
            **sim))
    return EnergyResult(rows=tuple(rows))


def _simulate_design_energy(ctx: PipelineContext, engine: ProcessingEngine,
                            design: str) -> dict:
    """Toggle-level energy of *design* over ``sim_samples`` test inputs."""
    quantized = ctx.conventional_quantized() if design == "conventional" \
        else ctx.design_quantized(design)
    _, x_test = ctx.arrays()
    batch = x_test[:ctx.config.sim_samples]
    n_samples = len(batch)
    if not n_samples:
        return {}
    energy_nj = 0.0
    toggles = 0
    cycles = 0
    macs = 0
    with obs.span("energy.simulate", design=design, samples=n_samples):
        for layer, codes in quantized.dense_layer_inputs(batch):
            simulator = engine.simulator(layer.multiplier)
            effective = simulator.remap_weights(layer.w_int)
            for sample in codes:
                trace = simulator.run_layer(effective, sample,
                                            name=layer.name or "dense",
                                            remapped=True)
                energy_nj += trace.energy_nj
                toggles += trace.toggles.total
            cycles += trace.cycles          # data-independent per layer
            macs += trace.macs
    return {
        "sim_energy_nj": energy_nj / n_samples,
        "sim_toggles": toggles / n_samples,
        "sim_cycles": cycles,
        "sim_macs": macs,
    }


def stage_export(ctx: PipelineContext) -> ExportResult:
    """Persist the export design as a serving artifact bundle."""
    from repro.serving.artifact import save_artifact

    design = ctx.config.resolved_export_design()
    quantized = ctx.design_quantized(design)
    # ':' in custom plan tokens is not a portable path character
    path = os.path.join(ctx.config.export_dir,
                        f"{ctx.config.app}-{design.replace(':', '_')}")
    save_artifact(quantized, path)
    artifact_bytes = sum(
        os.path.getsize(os.path.join(path, item))
        for item in os.listdir(path))
    return ExportResult(design=design, path=path,
                        spec_label=quantized.deployment_label,
                        artifact_bytes=artifact_bytes)


def stage_serve_check(ctx: PipelineContext) -> ServeCheckResult:
    """Reload the export through the registry; verify bit-identity."""
    from repro.serving.registry import ModelRegistry

    export: ExportResult | None = ctx.results.get("export")
    if export is None:
        raise StageError("'serve-check' needs the 'export' stage")
    registry = ModelRegistry()
    entry = registry.register(
        export.path, name=ctx.config.serve_name or ctx.config.app)
    compiled = entry.model
    quantized = ctx.design_quantized(export.design)
    _, x_test = ctx.arrays()
    reference = quantized.forward(x_test)
    reloaded = compiled.forward(x_test)
    return ServeCheckResult(
        design=export.design, registry_key=entry.key,
        num_params=compiled.num_params,
        compiled_accuracy=compiled.accuracy(
            x_test, ctx.dataset.y_test,
            batch_size=ctx.config.eval_batch_size),
        bit_identical=bool(np.array_equal(reference, reloaded)),
        energy_nj_per_inference=compiled.energy_per_inference_nj())


STAGE_FUNCTIONS = {
    "train": stage_train,
    "quantize": stage_quantize,
    "constrain": stage_constrain,
    "evaluate": stage_evaluate,
    "faults": stage_faults,
    "energy": stage_energy,
    "export": stage_export,
    "serve-check": stage_serve_check,
}


# ----------------------------------------------------------------------
# cache round-trips
# ----------------------------------------------------------------------
def result_from_payload(stage: str, payload: dict):
    """Rebuild a stage result from its :func:`to_jsonable` form."""
    if stage == "train":
        return TrainResult(**payload)
    if stage == "quantize":
        return QuantizeResult(**payload)
    if stage == "constrain":
        return ConstrainResult(outcomes=tuple(
            DesignOutcome(
                design=o["design"], epochs=o["epochs"],
                chosen_alphabets=o.get("chosen_alphabets"),
                ladder_accuracies=tuple(o.get("ladder_accuracies", ())),
                quality_met=o.get("quality_met"))
            for o in payload["outcomes"]))
    if stage == "evaluate":
        return EvaluateResult(rows=tuple(
            EvaluationRow(**row) for row in payload["rows"]))
    if stage == "faults":
        return FaultsResult(kind=payload["kind"], seed=payload["seed"],
                            rows=tuple(FaultRow(**row)
                                       for row in payload["rows"]))
    if stage == "energy":
        return EnergyResult(rows=tuple(
            EnergyDesignRow(**row) for row in payload["rows"]))
    if stage == "export":
        return ExportResult(**payload)
    if stage == "serve-check":
        return ServeCheckResult(**payload)
    raise ValueError(f"unknown stage {stage!r}")


def _savez_atomic(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Write *arrays* to *path* as ``.npz`` via a temp file + rename.

    Concurrent pipeline workers may race to produce the same cache
    entry, and since the stages are deterministic both writers produce
    identical bytes — last rename wins, readers never see a partial file.
    """
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def save_state(path: str, state: list) -> None:
    """Persist a ``Sequential.state()`` weight snapshot as ``.npz``
    (atomically, see :func:`_savez_atomic`)."""
    arrays = {}
    for index, layer_state in enumerate(state):
        for key, value in layer_state.items():
            arrays[f"{index}:{key}"] = value
    _savez_atomic(path, arrays)


def load_state(path: str, model) -> list:
    """Load a snapshot written by :func:`save_state` (bit-exact)."""
    template = model.state()
    with np.load(path) as data:
        return [{key: data[f"{index}:{key}"]
                 for key in layer_state}
                for index, layer_state in enumerate(template)]


def _save_dataset(path: str, dataset: Dataset) -> None:
    """Persist a synthesised dataset as one ``.npz`` (bit-exact)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _savez_atomic(path, {
        "name": np.array(dataset.name),
        "n_classes": np.array(dataset.n_classes),
        "x_train": dataset.x_train, "y_train": dataset.y_train,
        "x_test": dataset.x_test, "y_test": dataset.y_test,
    })


def _load_dataset(path: str) -> Dataset | None:
    """The dataset written by :func:`_save_dataset`, or ``None`` when
    *path* is missing or unreadable (a miss: the caller resynthesises)."""
    try:
        with np.load(path) as data:
            return Dataset(
                name=str(data["name"]), n_classes=int(data["n_classes"]),
                x_train=data["x_train"], y_train=data["y_train"],
                x_test=data["x_test"], y_test=data["y_test"])
    except CACHE_READ_ERRORS:
        return None
