"""repro — Multiplier-less Artificial Neurons (DATE 2016) reproduction.

A production-quality Python reproduction of "Multiplier-less Artificial
Neurons Exploiting Error Resiliency for Energy-Efficient Neural Computing"
(Sarwar, Venkataramani, Raghunathan, Roy — DATE 2016).

The public API is the declarative pipeline::

    from repro import PipelineConfig, run_pipeline
    report = run_pipeline(PipelineConfig(app="mnist_mlp",
                                         designs=("conventional", "asm2")))

or, from a shell, the ``repro`` CLI (``repro run <config>``,
``repro experiment <name>``, ``repro serve``, ``repro list``).

Subpackages
-----------
``repro.pipeline``
    The declarative train → quantize → constrain → evaluate → energy →
    export → serve-check flow: ``PipelineConfig``, staged ``Pipeline``
    with caching/resume, ``PipelineReport``.
``repro.kernels``
    The compute-kernel layer under every forward path: dense / conv
    (im2col) / scaled-avg-pool / requantise kernels, each with a
    bit-exact ``reference`` implementation and a BLAS-lowered ``fast``
    one, behind ``get_backend("reference" | "fast" | "auto")``.
``repro.fixedpoint``
    Two's-complement words, Q-format quantisation, quartet layouts.
``repro.asm``
    Alphabet Set Multiplier: alphabet sets, decomposition, bit-accurate
    multiplier models, Algorithm-1 weight constraining, MAN programs.
``repro.hardware``
    45 nm-class gate-level cost model: components, neuron datapaths,
    CSHM processing engine, iso-speed sizing.
``repro.nn``
    numpy MLP/CNN substrate with backprop and quantised/ASM inference.
``repro.datasets``
    Seeded synthetic stand-ins for MNIST, YUV Faces, SVHN and TICH.
``repro.training``
    Constrained retraining (projected SGD) and mixed per-layer alphabet
    plans (§VI.E); Algorithm 2 runs as the pipeline's ``ladder`` design.
``repro.explore``
    Parallel design-space exploration: declarative ``SearchSpace``,
    grid/random/sensitivity-guided strategies on a multiprocessing
    worker pool, resumable journals, Pareto frontiers over
    accuracy/energy/area/delay, frontier export into the serving
    registry.
``repro.experiments``
    One table mapping every table and figure of the paper to the
    pipeline configs it needs and a formatter over their reports.
``repro.serving``
    Deployment stack: versioned compiled-model artifacts, a multi-model
    registry, dynamic micro-batching and an HTTP inference server that
    reports the paper's energy story live (JSON ``/stats`` +
    Prometheus ``/metrics``).
``repro.obs``
    Unified observability: thread-safe metrics registry (counters /
    gauges / histograms with interpolated quantiles, JSON + Prometheus
    exports), nestable tracing spans (wall/CPU/peak-RSS) streamed to
    Chrome-compatible JSONL (``repro run --trace``, ``repro stats``),
    and no-op-when-disabled profiling hooks at every hot boundary.
``repro.lint``
    Domain-aware static analysis (``repro lint``): AST rules that
    enforce the invariants above — seeded randomness, cache-key
    completeness, backend parity, exact-integer kernels, journal
    purity, metric hygiene (rules RPR001–RPR006, docs/invariants.md).
``repro.utils``
    Shared utilities (JSON serialization of result objects).
"""

__version__ = "2.0.0"

__all__ = ["__version__", "PipelineConfig", "Pipeline", "PipelineReport",
           "run_pipeline", "SearchSpace", "ExplorationReport",
           "run_exploration", "get_backend"]

_PIPELINE_EXPORTS = {"PipelineConfig", "Pipeline", "PipelineReport",
                     "run_pipeline"}
_EXPLORE_EXPORTS = {"SearchSpace", "ExplorationReport", "run_exploration"}
_KERNEL_EXPORTS = {"get_backend"}


def __getattr__(name: str):
    # lazy so `import repro` stays lightweight for fixed-point-only users
    if name in _PIPELINE_EXPORTS:
        from repro import pipeline
        return getattr(pipeline, name)
    if name in _EXPLORE_EXPORTS:
        from repro import explore
        return getattr(explore, name)
    if name in _KERNEL_EXPORTS:
        from repro import kernels
        return getattr(kernels, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
