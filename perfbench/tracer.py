"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from outside the program: :func:`install` replaces
public functions and methods of each layer with timing wrappers, patched
where their callers look them up (``repro.pipeline.stages.load_dataset``,
the ``STAGE_FUNCTIONS`` entries, class attributes for methods).  Nothing
under ``src/`` changes.  Only traced runs call :func:`install`; the
untraced runs execute the program exactly as shipped.

A span is the list ``[id, parent_id, name, start, end, attrs]`` with
``perf_counter`` times.  Spans stay in :attr:`Tracer.spans` until the
process writes them out at its end.  Explore workers hand their spans
back to the parent inside the candidate outcome (see
:func:`_shipping_worker`), so one list covers the whole sweep.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

__all__ = ["Tracer", "install"]


class Tracer:
    """Thread-safe span recorder (one per process)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # ids stay unique across forked workers: the pid is in the high bits
        self._ids = itertools.count()
        self._local = threading.local()
        #: perf_counter at the start of the most recent serving forward
        #: pass (the server runs one batcher thread)
        self.last_forward_start = 0.0

    def new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None, after=None, under=None):
        """A wrapper of *fn* that records one span named *name* per call.

        ``attrs(args, kwargs)`` gives the span's attributes; ``after(
        record, args, result)`` may add more once *fn* returned.  With
        *under*, calls outside an open span of that name run untimed.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if under is not None and not any(s[2] == under for s in stack):
                return fn(*args, **kwargs)
            record = [self.new_id(), stack[-1][0] if stack else None, name,
                      0.0, 0.0, attrs(args, kwargs) if attrs else {}]
            stack.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
                self.spans.append(record)
            if after is not None:
                after(record, args, result)
            return result
        return traced


# the tracer of this process and the originals the module-level
# wrappers delegate to (module level so forked workers can unpickle them)
_TRACER: Tracer | None = None
_ORIGINAL_WORKER = None
_ORIGINAL_POOL_MAP = None


def _shipping_worker(payload):
    """Run one explore candidate and return its spans with the outcome."""
    mark = len(_TRACER.spans)
    index, outcome = _ORIGINAL_WORKER(payload)
    outcome["perfbench_spans"] = _TRACER.spans[mark:]
    del _TRACER.spans[mark:]
    return index, outcome


def _collecting_pool_map(fn, payloads, jobs, on_result=None):
    """``pool_map`` that moves shipped worker spans into this process."""
    def landed(item):
        _TRACER.spans.extend(item[1].pop("perfbench_spans", ()))
        if on_result is not None:
            on_result(item)
    return _ORIGINAL_POOL_MAP(fn, payloads, jobs, on_result=landed)


def _file_bytes(record, args, result) -> None:
    record[5]["bytes"] = os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary of this process to *tracer*."""
    global _TRACER, _ORIGINAL_WORKER, _ORIGINAL_POOL_MAP
    from repro.explore import executor
    from repro.explore.journal import ExplorationJournal
    from repro.hardware.engine import ProcessingEngine
    from repro.hardware.simulator import CycleAccurateEngine
    from repro.nn.network import Sequential
    from repro.nn.optim import SGD
    from repro.nn.quantized import QuantizedNetwork
    from repro.nn.trainer import Trainer
    from repro.pipeline import pipeline, stages
    from repro.serving.batching import MicroBatcher
    from repro.serving.compiled import CompiledModel
    from repro.serving.registry import ModelRegistry
    from repro.training.constrained import ConstraintProjector

    _TRACER = tracer
    wrap = tracer.wrap

    # datasets: one span per synthesis, keyed for the distinct count
    stages.load_dataset = wrap(
        stages.load_dataset, "datasets.load",
        attrs=lambda a, k: {"key": repr((a, sorted(k.items())))})

    # nn / kernels training: the kernel calls count only inside fit
    Trainer.fit = wrap(Trainer.fit, "nn.fit")
    for owner, method in ((Sequential, "forward"), (Sequential, "backward"),
                          (SGD, "step")):
        setattr(owner, method, wrap(getattr(owner, method), "kernels.train",
                                    under="nn.fit"))
    ConstraintProjector.project = wrap(ConstraintProjector.project,
                                       "training.project")

    # hardware / kernels simulate
    ProcessingEngine.run = wrap(ProcessingEngine.run, "hardware.engine")
    CycleAccurateEngine.run_layer = wrap(CycleAccurateEngine.run_layer,
                                         "kernels.simulate")

    # kernels forward
    samples = lambda a, k: {"samples": len(a[1])}  # noqa: E731
    QuantizedNetwork.forward = wrap(QuantizedNetwork.forward,
                                    "kernels.forward", attrs=samples)
    compiled_forward = wrap(CompiledModel.forward, "kernels.forward",
                            attrs=samples)

    @functools.wraps(compiled_forward)
    def forward(self, x):
        tracer.last_forward_start = time.perf_counter()
        return compiled_forward(self, x)
    CompiledModel.forward = forward

    # pipeline stages and the stage cache
    for stage, fn in list(stages.STAGE_FUNCTIONS.items()):
        stages.STAGE_FUNCTIONS[stage] = wrap(fn, f"pipeline.stage.{stage}")
    pipeline.save_state = wrap(pipeline.save_state, "pipeline.cache.store",
                               after=_file_bytes)
    pipeline.load_state = wrap(
        pipeline.load_state, "pipeline.cache.load",
        attrs=lambda a, k: {"bytes": os.path.getsize(a[0])})

    def envelope(record, args, result) -> None:
        _file_bytes(record, args, result)
        payload = args[1]
        if isinstance(payload, dict) and "stage" in payload \
                and "key" in payload:
            record[5]["stage_key"] = f"{payload['stage']}:{payload['key']}"
    pipeline.atomic_write_json = wrap(pipeline.atomic_write_json,
                                      "pipeline.cache.store", after=envelope)

    # explore
    executor.evaluate_candidate = wrap(executor.evaluate_candidate,
                                       "explore.candidate")
    ExplorationJournal.write_record = wrap(ExplorationJournal.write_record,
                                           "explore.journal.write")
    _ORIGINAL_WORKER = executor._candidate_worker
    _ORIGINAL_POOL_MAP = executor.pool_map
    executor._candidate_worker = _shipping_worker
    executor.pool_map = _collecting_pool_map

    # serving
    ModelRegistry.register = wrap(ModelRegistry.register, "serving.register")
    original_submit = MicroBatcher.submit

    @functools.wraps(original_submit)
    def submit(self, key, x):
        submitted = time.perf_counter()
        future = original_submit(self, key, x)

        def resolved(_future) -> None:
            # runs in the batcher thread right after the batch's forward
            # pass, so the latest forward start is this request's batch
            tracer.spans.append([
                tracer.new_id(), None, "serving.submit", submitted,
                time.perf_counter(),
                {"wait": max(0.0, tracer.last_forward_start - submitted)}])
        future.add_done_callback(resolved)
        return future
    MicroBatcher.submit = submit
