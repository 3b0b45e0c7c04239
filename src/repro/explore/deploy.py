"""Frontier -> serving: make the Pareto-optimal designs servable.

The point of the exploration is to *pick* a trade-off, so the winners
should not stay numbers in a report: :func:`register_frontier` exports
every non-conventional frontier design as a serving artifact bundle and
registers it in a :class:`~repro.serving.registry.ModelRegistry`, where
the batching queue / HTTP server can resolve it immediately.

Thanks to the dependency-keyed stage cache, exporting a frontier winner
re-runs nothing but the ``export`` stage itself — train/constrain results
are shared with the exploration that found it.
"""

from __future__ import annotations

import os

from repro.explore.report import ExplorationReport
from repro.pipeline.config import Design, PipelineConfig
from repro.pipeline.pipeline import Pipeline
from repro.serving.registry import ModelEntry, ModelRegistry

__all__ = ["register_frontier"]


def register_frontier(report: ExplorationReport,
                      registry: ModelRegistry | None = None,
                      export_dir: str = os.path.join(
                          "results", "artifacts", "explore"),
                      cache_dir: str | None = None,
                      verbose: bool = False) -> list[ModelEntry]:
    """Export and register every ASM/mixed frontier design of *report*.

    Artifacts land under ``<export_dir>/<config-digest[:12]>/`` (one
    directory per candidate, so same-design candidates from different
    seeds do not overwrite each other) and register under the name
    ``<app>-<design>`` — the registry auto-versions repeats.  Returns the
    created entries in frontier order; conventional designs have nothing
    to export and are skipped.

    ``cache_dir`` defaults to the stage cache the exploration itself
    used (``report.cache_dir``), so only the ``export`` stage runs; a
    report reloaded from JSON no longer knows its cache and retrains
    unless one is passed.
    """
    if registry is None:
        registry = ModelRegistry()
    if cache_dir is None:
        cache_dir = report.cache_dir
    entries: list[ModelEntry] = []
    for record in report.frontier_records():
        design = Design.parse(record["design"])
        if not design.constrained:
            continue
        config = PipelineConfig.from_dict(record["config"])
        config = config.with_overrides(
            stages=(*config.stages, "export"),
            export_design=design.token,
            export_dir=os.path.join(export_dir,
                                    record["config_digest"][:12]),
            cache_dir=cache_dir)
        pipeline_report = Pipeline(config).run(verbose=verbose)
        export = pipeline_report.require("export")
        name = f"{config.app}-{design.path_name}"
        entry = registry.register(export.path, name=name)
        if verbose:
            print(f"[registry] {entry.key} <- {export.path}")
        entries.append(entry)
    return entries
