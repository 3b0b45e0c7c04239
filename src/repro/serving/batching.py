"""Dynamic micro-batching: coalesce single requests into batched passes.

The integer-matmul forward pass is dramatically cheaper per sample when
batched (see ``benchmarks/bench_serving_throughput.py``), so concurrent
requests share forward passes: requests enter a queue, a worker thread
drains it, groups requests by model key, and runs one forward pass per
group.  A batch never exceeds ``max_batch_size`` samples.

The batcher is work-conserving by default (``max_latency_ms=0``): the
worker takes the first queued request plus whatever queued while the
previous forward pass ran, and never idles waiting for co-riders.
Batches still form under load, because requests pile up behind a
running forward pass.  A positive ``max_latency_ms`` makes a request
wait up to that long for co-riders, trading latency for larger batches.

Who runs a batch: :meth:`MicroBatcher.predict` (the server's one call)
runs the forward pass on the calling thread when the worker's next
batch would be this request alone — the queue is empty, no other
``predict`` is in progress, and no co-rider window, queue bound or
deadline is set.  That skips the hand-off to the worker, which costs
several times a 1-sample forward pass.  Every other request is queued
and the worker runs it, so concurrent requests still coalesce.

Each :meth:`MicroBatcher.submit` returns a
:class:`concurrent.futures.Future` resolving to the score rows for that
request — batching is invisible to callers, and because the batched forward
is row-wise exact integer arithmetic, results are bit-identical to an
unbatched pass.

Overload hardening (see ``docs/robustness.md``): ``max_queue_depth``
bounds the queue and :meth:`submit` sheds with :class:`QueueFullError`
once it is full (the server maps this to ``503`` + ``Retry-After``);
``deadline_s`` bounds a request's total queue + compute time — a request
that waited past its deadline resolves to
:class:`DeadlineExceededError` instead of burning a forward pass on an
answer nobody is waiting for.  A request whose future the caller
cancelled is dropped before the forward pass too.  An exception
escaping a batch resolves that batch's futures and never kills the
worker thread.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as ResultTimeoutError
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.serving.metrics import ServingMetrics

__all__ = ["BatchSettings", "MicroBatcher", "QueueFullError",
           "DeadlineExceededError"]


class QueueFullError(RuntimeError):
    """Request shed: the batching queue is at ``max_queue_depth``."""


class DeadlineExceededError(RuntimeError):
    """Request dropped: it waited in the queue past ``deadline_s``."""


@dataclass(frozen=True)
class BatchSettings:
    """Tunables for the micro-batching queue."""

    max_batch_size: int = 64
    #: longest a request waits for co-riders (0 = work-conserving: take
    #: only what queued meanwhile)
    max_latency_ms: float = 0.0
    #: admission bound: submits shed with :class:`QueueFullError` while
    #: this many requests are already queued (0 = unbounded)
    max_queue_depth: int = 0
    #: per-request deadline in seconds; a request still queued past it
    #: resolves to :class:`DeadlineExceededError` (None = no deadline)
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_latency_ms < 0:
            raise ValueError("max_latency_ms must be >= 0")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")


def _as_batch(x) -> np.ndarray:
    """*x* as a float64 batch: a leading axis is added to one flat sample
    or one image; any other rank than a batch of those is a ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim in (1, 3):            # one flat sample / one image
        x = x[np.newaxis]
    if x.ndim not in (2, 4):
        raise ValueError(
            f"expected a sample or batch, got shape {x.shape}")
    return x


class _Request:
    __slots__ = ("key", "x", "future", "enqueued")

    def __init__(self, key, x: np.ndarray) -> None:
        self.key = key
        self.x = x
        self.future: Future = Future()
        self.enqueued = time.monotonic()


class MicroBatcher:
    """Background worker that batches predict requests per model key.

    Parameters
    ----------
    resolve:
        ``key -> model`` callable; a model only needs ``forward``.  Pass
        ``registry.get`` (or ``lambda key: registry.get(*key)`` for
        ``(name, version)`` keys) to serve from a
        :class:`~repro.serving.registry.ModelRegistry`; pass
        ``lambda _key: model`` for a single model.
    settings:
        Batch size / latency bounds.
    metrics:
        Optional :class:`ServingMetrics` fed batch sizes and queue depth.
    """

    def __init__(self, resolve: Callable[[object], object],
                 settings: BatchSettings | None = None,
                 metrics: ServingMetrics | None = None) -> None:
        self._resolve = resolve
        self.settings = settings or BatchSettings()
        self.metrics = metrics
        self._queue: queue.Queue[_Request | None] = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        #: :meth:`predict` calls in progress (guarded by ``_lock``)
        self._predicting = 0
        self._worker = threading.Thread(target=self._run, daemon=True,
                                        name="repro-microbatcher")
        self._worker.start()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, key, x: np.ndarray) -> Future:
        """Enqueue one request; resolves to the score rows for *x*.

        *x* may be a single sample (feature vector / image) or a small
        batch; a leading batch axis is added for single samples.
        """
        # convert/validate outside the lock — payloads can be large and
        # concurrent submitters are the normal case
        request = _Request(key, _as_batch(x))
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self.overloaded():
                if self.metrics is not None:
                    self.metrics.record_shed()
                raise QueueFullError(
                    f"queue is at its depth bound "
                    f"({self.settings.max_queue_depth}); retry later")
            self._queue.put(request)
        if self.metrics is not None:
            self.metrics.set_queue_depth(self._queue.qsize())
        return request.future

    def predict(self, key, x: np.ndarray, timeout: float | None = 10.0,
                ) -> np.ndarray:
        """The score rows for *x*, waiting at most *timeout* seconds.

        An idle batcher runs the forward pass on the calling thread; see
        the module docstring for when.  Otherwise the request is queued
        like :meth:`submit`; if no result arrives in time its future is
        cancelled, so the worker skips it, and
        :class:`concurrent.futures.TimeoutError` is raised.
        """
        settings = self.settings
        with self._lock:
            inline = (not self._closed and self._predicting == 0
                      and settings.max_latency_ms == 0
                      and settings.deadline_s is None
                      and settings.max_queue_depth == 0
                      and self._queue.empty())
            self._predicting += 1
        try:
            if inline:
                return self._forward(key, _as_batch(x), 1)
            future = self.submit(key, x)
            try:
                return future.result(timeout=timeout)
            except ResultTimeoutError:
                future.cancel()
                raise
        finally:
            with self._lock:
                self._predicting -= 1

    def queue_depth(self) -> int:
        """Requests currently waiting (approximate, like ``qsize``).

        The server's ``/stats`` and ``/metrics`` handlers poll this so
        snapshots report the live depth rather than the depth at the
        last submit."""
        return self._queue.qsize()

    def overloaded(self) -> bool:
        """Whether the next :meth:`submit` would shed (``/healthz``'s
        readiness signal).  Always ``False`` when the queue is unbounded.
        """
        return (self.settings.max_queue_depth > 0
                and self._queue.qsize() >= self.settings.max_queue_depth)

    def close(self, timeout: float | None = 5.0) -> None:
        """Drain outstanding requests and stop the worker."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _collect(self, first: _Request) -> tuple[list[_Request], bool]:
        """Gather co-riders for *first* until size or latency bound."""
        batch = [first]
        samples = len(first.x)
        deadline = first.enqueued + self.settings.max_latency_ms / 1e3
        stop = False
        while samples < self.settings.max_batch_size:
            wait = deadline - time.monotonic()
            try:
                item = (self._queue.get_nowait() if wait <= 0
                        else self._queue.get(timeout=wait))
            except queue.Empty:
                break
            if item is None:
                stop = True
                break
            batch.append(item)
            samples += len(item.x)
        return batch, stop

    @staticmethod
    def _resolve_future(future: Future, result=None,
                        error: Exception | None = None) -> None:
        """Set a future's outcome, tolerating a concurrent cancel().

        The client owns the future and may cancel between our check and the
        set — swallowing :class:`InvalidStateError` keeps the worker thread
        alive (a dead worker would hang every later request forever).
        """
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except InvalidStateError:
            pass

    def _expire(self, batch: list[_Request]) -> list[_Request]:
        """Drop requests nobody waits for: cancelled by their caller
        (:meth:`predict` cancels when it stops waiting), or queued past
        the deadline."""
        deadline_s = self.settings.deadline_s
        now = time.monotonic()
        live = []
        for request in batch:
            if request.future.cancelled():
                continue
            waited = now - request.enqueued
            if deadline_s is not None and waited > deadline_s:
                if self.metrics is not None:
                    self.metrics.record_deadline_expired()
                self._resolve_future(request.future, error=(
                    DeadlineExceededError(
                        f"request queued {waited * 1e3:.0f}ms, past its "
                        f"{deadline_s * 1e3:.0f}ms deadline")))
            else:
                live.append(request)
        return live

    def _forward(self, key, x: np.ndarray, requests: int) -> np.ndarray:
        """One traced, counted forward pass of *requests* stacked in *x*."""
        with obs.span("serving.batch", requests=requests):
            scores = self._resolve(key).forward(x)
        if self.metrics is not None:
            self.metrics.record_batch(len(scores))
        return scores

    def _flush(self, batch: list[_Request]) -> None:
        """Run one forward pass per model key and resolve futures."""
        batch = self._expire(batch)
        # group on (key, sample shape) so one malformed request cannot
        # break np.concatenate — and thereby the batch — for its co-riders
        groups: dict[object, list[_Request]] = {}
        for request in batch:
            groups.setdefault((request.key, request.x.shape[1:]),
                              []).append(request)
        for (key, _shape), requests in groups.items():
            try:
                scores = self._forward(
                    key, np.concatenate([r.x for r in requests], axis=0),
                    len(requests))
            except Exception as error:
                for request in requests:
                    self._resolve_future(request.future, error=error)
                continue
            offset = 0
            for request in requests:
                rows = scores[offset:offset + len(request.x)]
                offset += len(request.x)
                self._resolve_future(request.future, result=rows)

    def _flush_isolated(self, batch: list[_Request]) -> None:
        """Flush, absorbing anything the flush machinery itself raises.

        ``_flush`` already fences model errors per group; this is the
        last line of defence for bugs *around* the forward pass (metrics,
        grouping, a hostile ``resolve``).  The worker thread must survive
        — a dead worker hangs every later request forever — so the batch
        fails, its futures resolve, and the loop continues.
        """
        try:
            self._flush(batch)
        except Exception as error:  # noqa: BLE001 - isolate the worker
            for request in batch:
                if not request.future.done():
                    self._resolve_future(request.future, error=error)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                break
            batch, stop = self._collect(item)
            if self.metrics is not None:
                self.metrics.set_queue_depth(self._queue.qsize())
            self._flush_isolated(batch)
            if stop:
                break
        # drain anything enqueued before close() won the lock
        leftovers: list[_Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        if leftovers:
            self._flush_isolated(leftovers)
