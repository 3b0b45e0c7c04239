"""JSON-friendly serialization of result objects.

One dataclass-walking converter shared by every ``--json`` writer and
the pipeline's :class:`~repro.pipeline.report.PipelineReport`.  The goal is
*fidelity*, not schema: dataclasses become dicts, tuples become lists,
numpy scalars/arrays become their Python equivalents, and anything else
passes through for ``json.dump(..., default=str)`` to finish off.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass

import numpy as np

__all__ = ["to_jsonable", "write_json", "atomic_write_json",
           "load_mapping"]


def to_jsonable(value):
    """Recursively convert *value* into JSON-serialisable builtins."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: to_jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def write_json(path: str, payload, indent: int = 2) -> str:
    """Write *payload* (via :func:`to_jsonable`) to *path*; returns *path*."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(to_jsonable(payload), handle, indent=indent, default=str)
    return path


def atomic_write_json(path: str, payload, indent: int = 2) -> str:
    """Like :func:`write_json`, but via a temp file + atomic rename.

    Safe against concurrent writers producing the same entry (pipeline
    stage cache, exploration journal): each writes its own temp file and
    the final ``os.replace`` is atomic, so readers never observe a
    partial file.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(to_jsonable(payload), handle, indent=indent, default=str)
    os.replace(tmp, path)
    return path


def load_mapping(path: str, error_cls: type[Exception],
                 noun: str = "config") -> dict:
    """Load a ``.json`` or ``.toml`` file as a plain mapping.

    Shared by :class:`~repro.pipeline.config.PipelineConfig` and
    :class:`~repro.explore.space.SearchSpace`; parse and extension errors
    raise *error_cls* with *noun* naming the offending artifact.
    """
    ext = os.path.splitext(path)[1].lower()
    if ext == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10
            raise error_cls(
                f"TOML {noun}s need Python 3.11+ (tomllib); "
                f"use a JSON {noun} instead") from None
        with open(path, "rb") as handle:
            try:
                return tomllib.load(handle)
            except tomllib.TOMLDecodeError as error:
                raise error_cls(f"{noun} is not valid TOML: {error}")
    if ext == ".json":
        with open(path) as handle:
            try:
                return json.load(handle)
            except json.JSONDecodeError as error:
                raise error_cls(f"{noun} is not valid JSON: {error}")
    raise error_cls(
        f"unsupported {noun} extension {ext!r} (use .json or .toml)")
