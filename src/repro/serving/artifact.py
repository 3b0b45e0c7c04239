"""Versioned on-disk model artifacts with integrity hashes.

An artifact is a directory bundle::

    <path>/
        manifest.json   # schema, spec metadata, layer descriptors, hashes
        arrays.npz      # the pre-folded integer weight tables + biases

The arrays are the *deployed* integer weights of a
:class:`~repro.nn.quantized.QuantizedNetwork` — the Q-format rounding,
Algorithm-1 constraining and ASM effective-weight remap have all been folded
in at export time, so loading never touches a multiplier or constrainer
table.  :meth:`repro.serving.compiled.CompiledModel.load` is the one
reader; its forward pass is bit-identical to the exported network's
(asserted in ``tests/test_serving.py``).

Integrity: every array is hashed (SHA-256 over dtype, shape and bytes) and
the manifest carries a checksum over its own canonical JSON.  Any mismatch
raises :class:`ArtifactIntegrityError` at load.  Every ``arrays.npz``
member carries one fixed zip timestamp, so a bundle's bytes depend only
on the network.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from typing import Any

import numpy as np

from repro.asm.multiplier import Multiplier
from repro.fixedpoint.qformat import QFormat
from repro.nn.activations import SigmoidLUT, get_activation
from repro.nn.quantized import (
    QuantizedNetwork,
    _QuantConv,
    _QuantDense,
    _QuantFlatten,
    _QuantPool,
)

__all__ = ["ArtifactError", "ArtifactIntegrityError", "MANIFEST_NAME",
           "ARRAYS_NAME", "save_artifact", "read_manifest"]

ARTIFACT_FORMAT = "repro-serving/model"
ARTIFACT_VERSION = 1
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: The timestamp of every ``arrays.npz`` member (the zip format's epoch).
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)


class ArtifactError(Exception):
    """Malformed or unreadable artifact bundle."""


class ArtifactIntegrityError(ArtifactError):
    """An integrity hash did not match the stored payload."""


# ----------------------------------------------------------------------
# hashing helpers
# ----------------------------------------------------------------------
def _array_digest(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape and raw bytes (C-order)."""
    digest = hashlib.sha256()
    digest.update(str(array.dtype.str).encode())
    digest.update(str(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return "sha256:" + digest.hexdigest()


def _manifest_digest(manifest: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of *manifest* minus its checksum."""
    body = {k: v for k, v in manifest.items() if k != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _fmt_to_json(fmt: QFormat) -> dict[str, int]:
    return {"total_bits": fmt.total_bits, "frac_bits": fmt.frac_bits}


def _fmt_from_json(data: dict[str, int]) -> QFormat:
    return QFormat(int(data["total_bits"]), int(data["frac_bits"]))


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def _describe_layer(index: int, layer) -> tuple[dict[str, Any],
                                                dict[str, np.ndarray]]:
    """Manifest entry + named arrays for one quantised layer."""
    prefix = f"layer{index}"
    entry: dict[str, Any] = {"kind": layer.kind, "name": layer.name}
    if not isinstance(layer, _QuantFlatten):
        # per-layer because mixed deployments (§VI.E) fold each layer for
        # its own multiplier; energy estimates need the real per-layer one
        entry["alphabets"] = layer.multiplier.token
    arrays: dict[str, np.ndarray] = {}
    if isinstance(layer, _QuantDense):
        entry.update(activation=layer.activation.name,
                     w_fmt=_fmt_to_json(layer.w_fmt),
                     is_output=layer.is_output)
        arrays[f"{prefix}:w_int"] = layer.w_int
        arrays[f"{prefix}:bias"] = layer.bias
    elif isinstance(layer, _QuantConv):
        entry.update(activation=layer.activation.name,
                     w_fmt=_fmt_to_json(layer.w_fmt),
                     kernel=layer.kernel)
        arrays[f"{prefix}:w_int"] = layer.w_int
        arrays[f"{prefix}:bias"] = layer.bias
    elif isinstance(layer, _QuantPool):
        entry.update(activation=layer.activation.name,
                     gain_fmt=_fmt_to_json(layer.gain_fmt),
                     size=layer.size)
        arrays[f"{prefix}:gain_int"] = layer.gain_int
        arrays[f"{prefix}:bias"] = layer.bias
    elif isinstance(layer, _QuantFlatten):
        pass
    else:  # pragma: no cover - new layer kinds must extend the schema
        raise ArtifactError(
            f"cannot serialise layer type {type(layer).__name__}")
    entry["arrays"] = sorted(arrays)
    return entry, arrays


def save_artifact(network: QuantizedNetwork, path: str,
                  name: str | None = None,
                  metadata: dict[str, Any] | None = None) -> str:
    """Write *network* as an artifact bundle under directory *path*.

    Returns *path*.  ``name`` overrides the model name recorded in the
    manifest; ``metadata`` is an optional free-form JSON-able dict stored
    under ``"user_metadata"`` (e.g. training provenance).
    """
    spec = network.spec
    layers_json: list[dict[str, Any]] = []
    arrays: dict[str, np.ndarray] = {}
    for index, layer in enumerate(network.layers):
        entry, layer_arrays = _describe_layer(index, layer)
        layers_json.append(entry)
        arrays.update(layer_arrays)

    manifest: dict[str, Any] = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "model_name": name or network.name,
        "bits": spec.bits,
        "alphabets": spec.multiplier.token,
        "fallback": spec.fallback,
        "constrainer_mode": (spec.constrainer.mode
                             if spec.constrainer is not None else None),
        "use_lut": network.use_lut,
        "act_fmt": _fmt_to_json(network.act_fmt),
        "input_spatial": (list(network.input_spatial)
                          if network.input_spatial else None),
        "spec_label": network.deployment_label,
        "layers": layers_json,
        "array_hashes": {key: _array_digest(value)
                         for key, value in arrays.items()},
        "user_metadata": metadata or {},
    }
    manifest["checksum"] = _manifest_digest(manifest)

    os.makedirs(path, exist_ok=True)
    _write_arrays(os.path.join(path, ARRAYS_NAME), arrays)
    with open(os.path.join(path, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _write_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez(path, **arrays)`` with every member stamped
    :data:`_ZIP_DATE_TIME` instead of whatever the zip writer picks."""
    with zipfile.ZipFile(path, "w", allowZip64=True) as archive:
        for key, value in arrays.items():
            info = zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_DATE_TIME)
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, value, allow_pickle=False)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def read_manifest(path: str) -> dict[str, Any]:
    """Read and checksum-verify the manifest of the bundle at *path*."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise ArtifactError(f"no {MANIFEST_NAME} in {path!r}") from None
    except json.JSONDecodeError as error:
        raise ArtifactError(f"corrupt manifest in {path!r}: {error}") \
            from None
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"{path!r} is not a {ARTIFACT_FORMAT} bundle "
            f"(format={manifest.get('format')!r})")
    if manifest.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {manifest.get('version')!r} "
            f"(this build reads version {ARTIFACT_VERSION})")
    if manifest.get("checksum") != _manifest_digest(manifest):
        raise ArtifactIntegrityError(
            f"manifest checksum mismatch in {path!r}")
    return manifest


def _load_arrays(path: str, manifest: dict[str, Any],
                 ) -> dict[str, np.ndarray]:
    """Load and hash-verify every array the manifest references."""
    arrays_path = os.path.join(path, ARRAYS_NAME)
    try:
        with np.load(arrays_path) as data:
            arrays = {key: data[key] for key in data.files}
    except FileNotFoundError:
        raise ArtifactError(f"no {ARRAYS_NAME} in {path!r}") from None
    except (OSError, ValueError) as error:
        raise ArtifactIntegrityError(
            f"unreadable {ARRAYS_NAME} in {path!r}: {error}") from None
    hashes = manifest["array_hashes"]
    missing = set(hashes) - set(arrays)
    if missing:
        raise ArtifactIntegrityError(
            f"{path!r} is missing arrays {sorted(missing)}")
    for key, expected in hashes.items():
        actual = _array_digest(arrays[key])
        if actual != expected:
            raise ArtifactIntegrityError(
                f"array {key!r} in {path!r} fails its integrity hash "
                f"({actual} != {expected})")
    return arrays


def build_layers(manifest: dict[str, Any], arrays: dict[str, np.ndarray],
                 ) -> tuple[list, QFormat]:
    """Reconstruct the quantised layer stack from a verified bundle
    (for :meth:`repro.serving.compiled.CompiledModel.load`; no multiplier
    or constrainer table is rebuilt)."""
    part = "act_fmt"            # names the malformed field in the error
    try:
        act_fmt = _fmt_from_json(manifest["act_fmt"])
        part = "bits"
        bits = int(manifest["bits"])
        part = "use_lut"
        lut = (SigmoidLUT(output_bits=bits - 1)
               if manifest["use_lut"] else None)
        part = "layers"
        entries = list(manifest["layers"])
    except (KeyError, TypeError, ValueError) as error:
        raise ArtifactError(f"bad manifest {part} ({error!r})") from None
    layers = []
    for index, entry in enumerate(entries):
        prefix = f"layer{index}"
        part = "entry"          # names the malformed part in the error
        try:
            kind = entry["kind"]
            name = entry.get("name")
            if kind == "flatten":
                layers.append(_QuantFlatten(name=name))
                continue
            activation = get_activation(entry["activation"])
            layer_lut = lut if activation.name == "sigmoid" else None
            if kind == "dense":
                quant = _QuantDense(
                    arrays[f"{prefix}:w_int"], _fmt_from_json(entry["w_fmt"]),
                    arrays[f"{prefix}:bias"], activation, act_fmt, layer_lut,
                    is_output=bool(entry["is_output"]), name=name)
            elif kind == "conv":
                quant = _QuantConv(
                    arrays[f"{prefix}:w_int"], _fmt_from_json(entry["w_fmt"]),
                    arrays[f"{prefix}:bias"], int(entry["kernel"]),
                    activation, act_fmt, layer_lut, name=name)
            elif kind == "pool":
                quant = _QuantPool(
                    arrays[f"{prefix}:gain_int"],
                    _fmt_from_json(entry["gain_fmt"]),
                    arrays[f"{prefix}:bias"], int(entry["size"]),
                    activation, act_fmt, layer_lut, name=name)
            else:
                raise ArtifactError(f"unknown layer kind {kind!r}")
            # absent key (pre-mixed-spec bundles) falls back to the
            # network-level set; an explicit null means conventional
            part = "alphabets"
            quant.multiplier = Multiplier.from_token(
                entry.get("alphabets", manifest["alphabets"]))
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactError(
                f"layer {index}: bad {part} ({error!r})") from None
        layers.append(quant)
    return layers, act_fmt
