"""Behaviour pins: SHA-256 digests of everything the integer domain produces.

:func:`compute` recomputes every pinned entry from the current source.
``tests/pins/manifest.json`` holds the digests a known-good commit
produced; ``tests/pins/test_pins.py`` compares the two, and
``python tests/pins/regen.py`` is the only writer of the manifest.

Pinned entries (all seeded, none trained, so none depends on the host):

* ``forward/<app>/<design>`` -- reference-backend scores of
  ``build_model(app, seed=0)`` lowered at 8 bits, on 32 PCG64 inputs;
* ``artifact/<app>/<design>/<file>`` -- the exported bundle of each of
  those networks.  ``manifest.json`` is hashed byte for byte;
  ``arrays.npz`` member by member (name and ``.npy`` bytes), because the
  zip container stamps each member with the wall-clock write time;
* ``table/effective/...`` and ``table/constrainer/...`` -- the effective-
  weight and Algorithm-1 lookup tables at 8 and 12 bits for every
  standard alphabet set under every fallback / constraint mode;
* ``toggles/<design>`` -- toggle counts and cycles of one simulated
  dense layer;
* ``neuron/<bits>b/<design>`` -- the iso-speed ``make_neuron(...).cost()``
  figures of the conventional and every standard-set neuron at 8 and 12
  bits;
* ``engine/<app>/<design>`` -- labels, cycles, energy and area of the
  analytic engine run of each ``forward`` lowering's per-layer plan;
* ``served_energy/<app>/<design>`` -- ``CompiledModel.load(bundle)
  .energy_per_inference_nj()`` of each exported bundle;
* ``rtl/...`` -- the generated Verilog text;
* ``config/<file>/...`` -- the config digest, every planned stage key
  and the dataset key of each ``examples/configs`` file (TOML files need
  ``tomllib``, so Python < 3.11 computes no entry for them).

Besides the digests, :func:`compute` reports *mismatches*: claims that
must hold at any commit (fast == reference forward scores and toggle
counts).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import zipfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if os.path.join(REPO, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO, "src"))

from repro.asm.alphabet import STANDARD_SETS, standard_set  # noqa: E402
from repro.asm.constraints import WeightConstrainer  # noqa: E402
from repro.asm.multiplier import (  # noqa: E402
    CONVENTIONAL,
    FALLBACK_POLICIES,
    Multiplier,
    effective_weight_table,
)
from repro.datasets.registry import BENCHMARKS, build_model  # noqa: E402
from repro.explore.space import SearchSpace  # noqa: E402
from repro.hardware.engine import ProcessingEngine  # noqa: E402
from repro.hardware.neuron import make_neuron  # noqa: E402
from repro.hardware.simulator import CycleAccurateEngine  # noqa: E402
from repro.nn.quantized import (  # noqa: E402
    QuantizationSpec,
    QuantizedNetwork,
)
from repro.pipeline.config import PipelineConfig, parse_design  # noqa: E402
from repro.pipeline.pipeline import Pipeline  # noqa: E402
from repro.rtl.generator import (  # noqa: E402
    generate_asm_mac,
    generate_conventional_mac,
    generate_precompute_bank,
)
from repro.serving.artifact import save_artifact  # noqa: E402
from repro.serving.compiled import CompiledModel  # noqa: E402
from repro.training.mixed import paper_mixed_plan  # noqa: E402
from repro.utils.serialization import load_mapping  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "manifest.json")
CONFIG_DIR = os.path.join(REPO, "examples", "configs")

BITS = 8
N_INPUTS = 32
UNIFORM_DESIGNS = ("conventional", "asm1", "asm2")
#: (app, design) lowerings beyond every app x UNIFORM_DESIGNS
EXTRA_DESIGNS = (
    ("mnist_mlp", "mixed"), ("svhn", "mixed"), ("tich", "mixed"),
    ("mnist_mlp", "mixed:2-0"), ("mnist_cnn", "mixed:1-0-2-0-4-8"),
)
TABLE_BITS = (8, 12)
CONSTRAINT_MODES = ("greedy", "nearest")
RTL_FALLBACKS = ("nearest", "truncate")


def has_tomllib() -> bool:
    try:
        import tomllib  # noqa: F401
    except ImportError:
        return False
    return True


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(value) -> str:
    return _sha(json.dumps(value, sort_keys=True,
                           separators=(",", ":")).encode())


def _array_sha(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return _sha(f"{array.dtype.str}{array.shape}".encode()
                + array.tobytes())


def _inputs(app: str) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(0))
    shape = ((N_INPUTS, 1, 32, 32) if BENCHMARKS[app].needs_images
             else (N_INPUTS, 1024))
    return rng.uniform(0.0, 1.0, size=shape)


def _multiplier(count: int | None) -> Multiplier:
    return Multiplier(standard_set(count)) if count else CONVENTIONAL


def _plan(app: str, design: str, model) -> list[Multiplier]:
    """Per-parameterised-layer multiplier plan of *design* on *model*."""
    kind = parse_design(design)
    if kind is None or isinstance(kind, int):
        return [_multiplier(kind)] * len(model.trainable_layers)
    if kind == "mixed":
        return [Multiplier(aset) for aset in paper_mixed_plan(app, model)]
    return [_multiplier(count) for count in kind]


def lower(app: str, design: str) -> QuantizedNetwork:
    """``build_model(app, seed=0)`` lowered for *design* at 8 bits,
    the way the pipeline's ``design_quantized`` lowers constrained
    weights (greedy Algorithm 1 per layer)."""
    model = build_model(app, seed=0)
    base = QuantizationSpec(BITS)
    kind = parse_design(design)
    if kind is None:
        return QuantizedNetwork.from_float(model, base)
    if isinstance(kind, int):
        return QuantizedNetwork.from_float(
            model, QuantizationSpec.constrained(BITS, _multiplier(kind)))
    layer_specs = [QuantizationSpec.constrained(BITS, multiplier)
                   for multiplier in _plan(app, design, model)]
    return QuantizedNetwork.from_float(model, base,
                                       layer_specs=layer_specs)


def _npz_sha(path: str) -> str:
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as bundle:
        for info in bundle.infolist():
            digest.update(info.filename.encode() + b"\0")
            digest.update(bundle.read(info))
    return digest.hexdigest()


def _lowerings() -> list[tuple[str, str]]:
    return [(app, design) for app in BENCHMARKS
            for design in UNIFORM_DESIGNS] + list(EXTRA_DESIGNS)


def _networks(pins: dict, mismatches: list, workdir: str) -> None:
    for app, design in _lowerings():
        tag = f"{app}/{design}"
        network = lower(app, design)
        x = _inputs(app)
        scores = network.forward(x)
        pins[f"forward/{tag}"] = _array_sha(scores)
        if network.with_backend("fast").forward(x).tobytes() \
                != scores.tobytes():
            mismatches.append(f"forward/{tag}: fast != reference")
        path = os.path.join(workdir, app, design.replace(":", "_"))
        save_artifact(network, path)
        with open(os.path.join(path, "manifest.json"), "rb") as handle:
            pins[f"artifact/{tag}/manifest.json"] = _sha(handle.read())
        pins[f"artifact/{tag}/arrays.npz"] = _npz_sha(
            os.path.join(path, "arrays.npz"))
        pins[f"served_energy/{tag}"] = _json_sha(
            CompiledModel.load(path).energy_per_inference_nj())


def _tables(pins: dict) -> None:
    for bits in TABLE_BITS:
        for count, aset in STANDARD_SETS.items():
            for fallback in FALLBACK_POLICIES:
                pins[f"table/effective/{bits}b/asm{count}/{fallback}"] = \
                    _array_sha(effective_weight_table(bits, aset, fallback))
            for mode in CONSTRAINT_MODES:
                pins[f"table/constrainer/{bits}b/asm{count}/{mode}"] = \
                    _array_sha(WeightConstrainer(bits, aset, mode).table)


def _toggles(pins: dict, mismatches: list) -> None:
    rng = np.random.Generator(np.random.PCG64(1))
    raw = rng.integers(-128, 128, size=(24, 10), dtype=np.int64)
    inputs = rng.integers(-128, 128, size=24, dtype=np.int64)
    for design in UNIFORM_DESIGNS:
        multiplier = _multiplier(parse_design(design))
        constrainer = multiplier.constrainer(BITS)
        weights = raw if constrainer is None else \
            constrainer.constrain_array(raw)
        traces = [CycleAccurateEngine(BITS, multiplier, backend=backend)
                  .run_layer(weights, inputs)
                  for backend in ("reference", "fast")]
        counts = [{"cycles": t.cycles, "macs": t.macs,
                   "toggles": [t.toggles.input_bus, t.toggles.bank_outputs,
                               t.toggles.products, t.toggles.accumulators]}
                  for t in traces]
        pins[f"toggles/{design}"] = _json_sha(counts[0])
        if counts[0] != counts[1]:
            mismatches.append(f"toggles/{design}: fast != reference")


def _neurons(pins: dict) -> None:
    designs = [("conventional", CONVENTIONAL)] + [
        (f"asm{count}", Multiplier(aset))
        for count, aset in STANDARD_SETS.items()]
    for bits in TABLE_BITS:
        for design, multiplier in designs:
            pins[f"neuron/{bits}b/{design}"] = _json_sha(
                dataclasses.asdict(make_neuron(bits, multiplier).cost()))


def _engines(pins: dict) -> None:
    engine = ProcessingEngine(BITS)
    for app, design in _lowerings():
        model = build_model(app, seed=0)
        report = engine.run(model.topology(), _plan(app, design, model))
        pins[f"engine/{app}/{design}"] = _json_sha({
            "design_label": report.design_label,
            "layer_labels": [layer.alphabet_label
                             for layer in report.layers],
            "cycles": report.cycles, "energy_nj": report.energy_nj,
            "area_um2": report.area_um2})


def _rtl(pins: dict) -> None:
    for bits in TABLE_BITS:
        pins[f"rtl/conventional_mac/{bits}b"] = _sha(
            generate_conventional_mac(bits).encode())
        for count, aset in STANDARD_SETS.items():
            for fallback in RTL_FALLBACKS:
                pins[f"rtl/asm_mac/{bits}b/asm{count}/{fallback}"] = _sha(
                    generate_asm_mac(bits, aset, fallback=fallback).encode())
            pins[f"rtl/precompute_bank/{bits}b/asm{count}"] = _sha(
                generate_precompute_bank(bits, aset).encode())


def _config_keys(pins: dict, prefix: str, config: PipelineConfig) -> None:
    pipeline = Pipeline(config, cache_dir="")
    plan = pipeline.plan()
    pins[f"{prefix}/digest"] = config.digest()
    for stage in plan:
        pins[f"{prefix}/stage/{stage}"] = pipeline.stage_key(stage, plan)
    pins[f"{prefix}/dataset"] = _sha(
        pipeline.dataset_cache_path().encode())


def _configs(pins: dict) -> None:
    for name in sorted(os.listdir(CONFIG_DIR)):
        if name.endswith(".toml") and not has_tomllib():
            continue
        data = load_mapping(os.path.join(CONFIG_DIR, name), ValueError,
                            noun="config")
        if "strategy" in data:            # a repro explore search space
            space = SearchSpace.from_dict(data)
            pins[f"config/{name}/digest"] = space.digest()
            for index, config in enumerate(space.grid()):
                _config_keys(pins, f"config/{name}/{index}", config)
        else:
            _config_keys(pins, f"config/{name}",
                         PipelineConfig.from_dict(data))


def is_toml_entry(name: str) -> bool:
    """True for entries that only Python >= 3.11 can compute."""
    return name.startswith("config/") and name.split("/")[1].endswith(
        ".toml")


def compute() -> tuple[dict[str, str], list[str]]:
    """Every pinned entry's digest, plus the invariant mismatches."""
    pins: dict[str, str] = {}
    mismatches: list[str] = []
    with tempfile.TemporaryDirectory() as workdir:
        _networks(pins, mismatches, workdir)
    _tables(pins)
    _toggles(pins, mismatches)
    _neurons(pins)
    _engines(pins)
    _rtl(pins)
    _configs(pins)
    return pins, mismatches


def load_manifest() -> dict[str, str]:
    with open(MANIFEST) as handle:
        return json.load(handle)["pins"]
