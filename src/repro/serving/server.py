"""Stdlib HTTP front end for the serving stack.

Endpoints (all JSON):

* ``GET  /health``  — liveness + registered model list,
* ``GET  /healthz`` — readiness probe: ``200 ready`` normally, ``503
  overloaded`` while the batching queue is at its depth bound (load
  balancers should stop routing here until it drains),
* ``GET  /models``  — registry detail (name, version, spec label, energy),
* ``GET  /stats``   — :class:`~repro.serving.metrics.ServingMetrics`
  snapshot (throughput, latency p50/p95/p99, live queue depth, error
  counts, energy totals),
* ``GET  /metrics`` — the same metrics in the Prometheus text exposition
  format (scrape target; text/plain, not JSON),
* ``POST /predict`` — ``{"model": name, "inputs": [[...], ...],
  "version": optional int}`` → ``{"predictions": [...], "scores": ...}``.

Connections persist: the handler speaks HTTP/1.1 with ``TCP_NODELAY``,
so a client that keeps its connection open (``http.client``, curl,
``requests.Session``) pays one TCP connect, not one per request.
Request bodies are framed by ``Content-Length`` alone.  A negative or
non-integer length, or any ``Transfer-Encoding``, gets a 400 and the
connection closes; so does any reply sent before the body was read, so
leftover body bytes never parse as the next request.

The request head is read here, not by ``email.parser``: the request
line must be ``METHOD SP target SP HTTP/1.x`` (HTTP/2 and later get a
505, anything else a 400), and header fields follow RFC 9112 §5
strictly.  A line without ``:``, whitespace before the colon, a field
name that is not a token, a control character in a value, an obs-fold
continuation line or two differing ``Content-Length`` fields get a
400; a header line over 65,536 bytes or more than 100 fields get a
431 (the stdlib's limits).  Every error reply, head errors included,
is a JSON ``{"error": ...}`` body, and one sent before the request
body was read closes the connection.  The ``Date`` line is formatted
once per wall-clock second.

Bodies are strict JSON (RFC 8259), decoded and encoded with orjson: a
body that is not UTF-8, nests too deep, or holds a ``NaN``/``Infinity``
literal, a number past the double range, a lone surrogate escape, a
``null`` or string input or only booleans gets a 400, like any other
malformed body.

Run it through the unified CLI::

    repro serve results/artifacts/digits

(``PYTHONPATH=src python -m repro serve ...`` from a checkout).
"""

from __future__ import annotations

import argparse
import re
import socket
import struct
import threading
import time
from concurrent.futures import TimeoutError as ResultTimeoutError
from email.utils import formatdate
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import orjson

from repro import obs
from repro.serving.batching import (
    BatchSettings,
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry, default_registry

__all__ = ["create_server", "main"]

#: how long a handler waits for its batch when no ``deadline_s`` is set
RESULT_TIMEOUT_S = 30.0
#: how often the serve loop checks for :meth:`ServingServer.shutdown`
#: (socketserver's default of 0.5 s makes every shutdown wait that long)
POLL_INTERVAL_S = 0.05
#: the stdlib's head limits (``http.client``): bytes per header line,
#: CRLF included, and header fields per request
MAX_LINE = 65536
MAX_FIELDS = 100

#: an RFC 9110 token: a method or a field name
_TOKEN = rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
_REQUEST_LINE = re.compile(
    rb"(" + _TOKEN + rb") ([^\x00-\x20\x7f]+) HTTP/(\d)\.(\d)\r?\n")
#: ``name ":" OWS value OWS``; a value holds no control byte but HTAB
_FIELD_LINE = re.compile(
    rb"(" + _TOKEN + rb"):[ \t]*([^\x00-\x08\x0a-\x1f\x7f]*?)[ \t]*\r?\n")
_SERVER = (f"{BaseHTTPRequestHandler.server_version} "
           f"{BaseHTTPRequestHandler.sys_version}")


class ServingServer(ThreadingHTTPServer):
    """HTTP server owning the registry, batcher and metrics."""

    daemon_threads = True
    # the socketserver default backlog (5) resets connections under
    # concurrent bursts; batching exists precisely for those
    request_queue_size = 128

    def __init__(self, address: tuple[str, int],
                 registry: ModelRegistry,
                 settings: BatchSettings | None = None) -> None:
        # open client connections, so shutdown can end kept-alive ones
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)
        self.registry = registry
        self.metrics = ServingMetrics()
        self.batcher = MicroBatcher(
            lambda key: registry.get(*key), settings=settings,
            metrics=self.metrics)

    def serve_forever(self, poll_interval: float = POLL_INTERVAL_S) -> None:
        super().serve_forever(poll_interval)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def shutdown(self) -> None:
        """Stop the HTTP loop, end every kept-alive connection once its
        in-flight request is answered, drain the batcher, release the
        socket."""
        super().shutdown()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            # a handler idling for the next request reads EOF and returns;
            # one mid-request still writes its response first
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        self.batcher.close()
        self.server_close()


class _Handler(BaseHTTPRequestHandler):
    server: ServingServer

    # keep-alive: one handler serves every request on its connection
    protocol_version = "HTTP/1.1"
    # without TCP_NODELAY a response written in two pieces waits ~40 ms
    # for the client's delayed ACK (Nagle's algorithm)
    disable_nagle_algorithm = True
    # buffered: the headers and the body leave in one send when
    # handle_one_request flushes after each request
    wbufsize = 1 << 16
    #: whether the current request's body has been consumed
    _body_read = False

    # silence per-request stderr lines; metrics carry the signal
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def parse_request(self) -> bool:
        """Read the request line and the header fields into
        ``self.headers``, a dict keyed by the lower-cased field name
        (the first of repeated fields wins); a head this server will not
        read gets a JSON error, and the connection closes."""
        self._body_read = False
        self.headers = None                 # framing unknown: close
        self.close_connection = True
        line = self.raw_requestline
        if line in (b"\r\n", b"\n"):
            return False                    # as the stdlib: just close
        request = _REQUEST_LINE.fullmatch(line)
        if request is None:
            self.send_error(400, "malformed request line; expected "
                                 "'METHOD target HTTP/1.1'")
            return False
        method, target, major, minor = request.groups()
        if major != b"1":
            self.send_error(
                505 if major > b"1" else 400,
                f"HTTP/{major.decode()}.{minor.decode()} is not supported; "
                f"send HTTP/1.1")
            return False
        self.request_version = f"HTTP/1.{minor.decode()}"
        self.close_connection = minor == b"0"
        self.command = method.decode()
        self.path = target.decode("latin-1")
        if self.path.startswith("//"):
            # as the stdlib: '//host/x' is not an absolute URI here
            self.path = "/" + self.path.lstrip("/")

        headers: dict[str, str] = {}
        readline = self.rfile.readline
        fields = 0
        while True:
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(431, f"header line longer than "
                                     f"{MAX_LINE} bytes")
                return False
            if line in (b"\r\n", b"\n"):
                break
            fields += 1
            if fields > MAX_FIELDS:
                self.send_error(431, f"more than {MAX_FIELDS} header fields")
                return False
            field = _FIELD_LINE.fullmatch(line)
            if field is None:
                self.send_error(400, _field_error(line))
                return False
            name = field[1].lower().decode()
            value = field[2].decode("latin-1")
            if name not in headers:
                headers[name] = value
            elif name == "content-length" and headers[name] != value:
                self.send_error(400, "repeated Content-Length fields differ")
                return False
        self.headers = headers

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (headers.get("expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Head errors, here and in the stdlib handler (414 request line
        too long, 501 unknown method): a JSON error, then close."""
        self.headers = None
        self._body_read = False             # so _respond closes
        self._send_error_json(int(code), message or self.responses[code][0])

    def handle_expect_100(self) -> bool:
        # send the interim 100 now: the client holds the body back for it
        super().handle_expect_100()
        self.wfile.flush()
        return True

    # ------------------------------------------------------------------
    def _respond(self, status: int, body: bytes, content_type: str,
                 retry_after_s: int | None = None) -> None:
        """The one response writer: every reply carries Content-Length,
        and a reply that leaves request-body bytes unread closes the
        connection, so those bytes never parse as the next request."""
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                f"Server: {_SERVER}\r\n"
                f"Date: {_http_date(int(time.time()))}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if retry_after_s is not None:
            head += f"Retry-After: {retry_after_s}\r\n"
        headers = self.headers
        if not self._body_read and (
                headers is None or "transfer-encoding" in headers
                or headers.get("content-length", "0") != "0"):
            head += "Connection: close\r\n"
            self.close_connection = True
        self.wfile.write(f"{head}\r\n".encode("latin-1"))
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200,
                   retry_after_s: int | None = None) -> None:
        self._respond(status, _encode(payload), "application/json",
                      retry_after_s)

    def _send_error_json(self, status: int, message: str,
                         retry_after_s: int | None = None) -> None:
        self.server.metrics.record_error()
        self._send_json({"error": message}, status, retry_after_s)

    def _read_body(self) -> bytes | None:
        """The request body, framed by Content-Length alone; ``None``
        once framing this server does not accept got its 400."""
        if "transfer-encoding" in self.headers:
            self._send_error_json(
                400, "Transfer-Encoding bodies are not supported; "
                     "send Content-Length")
            return None
        length = self.headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            # rfile.read(-1) would wait for EOF and never reply
            self._send_error_json(400, f"invalid Content-Length {length!r}")
            return None
        body = self.rfile.read(int(length))
        self._body_read = True
        return body

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        if self.path == "/health":
            entries = self.server.registry.list_models()
            self._send_json({
                "status": "ok",
                "models": [entry.key for entry in entries],
            })
        elif self.path == "/healthz":
            # readiness, not liveness: flips 503 while the batcher sheds
            # so load balancers stop routing until the queue drains
            if self.server.batcher.overloaded():
                self._send_json(
                    {"status": "overloaded",
                     "queue_depth": self.server.batcher.queue_depth()},
                    status=503)
            else:
                self._send_json({"status": "ready"})
        elif self.path == "/stats":
            # refresh the gauge so the snapshot reports the *live* depth,
            # not the depth at the last enqueue/dequeue
            self.server.metrics.set_queue_depth(
                self.server.batcher.queue_depth())
            self._send_json(self.server.metrics.snapshot())
        elif self.path == "/metrics":
            self.server.metrics.set_queue_depth(
                self.server.batcher.queue_depth())
            self._respond(200, self.server.metrics.to_prometheus().encode(),
                          "text/plain; version=0.0.4; charset=utf-8")
        elif self.path == "/models":
            payload = []
            for entry in self.server.registry.list_models():
                model = entry.model
                payload.append({
                    "name": entry.name,
                    "version": entry.version,
                    "spec": model.spec_label,
                    "bits": model.bits,
                    "params": model.num_params,
                    "path": entry.path,
                    "energy_nj_per_inference":
                        model.energy_per_inference_nj(),
                })
            self._send_json({"models": payload})
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        if self.path != "/predict":
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        started = time.monotonic()
        body = self._read_body()
        if body is None:
            return
        try:
            with obs.span("serving.parse", bytes=len(body)):
                name, version, inputs = _parse_predict(body)
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        # the deadline bounds queue + compute, so it bounds the wait too
        timeout_s = self.server.batcher.settings.deadline_s or RESULT_TIMEOUT_S
        try:
            # resolve once and pin the version, so the batch, the energy
            # estimate and the metrics all describe the same model even if
            # the registry is mutated mid-request
            with obs.span("serving.request", model=name,
                          samples=1 if inputs.ndim == 1 else len(inputs)):
                entry = self.server.registry.entry(name, version)
                scores = self.server.batcher.predict(
                    (name, entry.version), inputs, timeout=timeout_s)
        except KeyError as error:
            self._send_error_json(
                404, str(error.args[0]) if error.args else str(error))
            return
        except (QueueFullError, DeadlineExceededError) as error:
            # admission control and deadlines: shed with Retry-After so
            # well-behaved clients back off instead of hammering the queue
            self._send_error_json(503, str(error), retry_after_s=1)
            return
        except ResultTimeoutError:
            # predict cancelled the queued request: the batcher skips it
            self.server.metrics.record_deadline_expired()
            self._send_error_json(
                503, f"no result within {timeout_s * 1e3:.0f}ms; "
                     f"retry later", retry_after_s=1)
            return
        except ValueError as error:
            # shape/rank mismatches between the inputs and the model
            self._send_error_json(400, f"bad inputs: {error}")
            return
        except Exception as error:  # noqa: BLE001 - report, don't crash
            self._send_error_json(500, f"{type(error).__name__}: {error}")
            return
        latency = time.monotonic() - started
        per_inference = entry.model.energy_per_inference_nj()
        energy = (per_inference * len(scores)
                  if per_inference is not None else None)
        self.server.metrics.record_request(
            model=entry.key, samples=len(scores), latency_s=latency,
            energy_nj=energy)
        with obs.span("serving.encode", samples=len(scores)):
            payload = _encode({
                "model": name,
                "predictions": np.argmax(scores, axis=1),
                "scores": np.ascontiguousarray(scores),
                "latency_ms": round(latency * 1e3, 3),
                "energy_nj_est": energy,
            })
        self._respond(200, payload, "application/json")


def _parse_predict(body: bytes) -> tuple[str, object, np.ndarray]:
    """``(model, version, inputs)`` of a ``POST /predict`` body; a
    ValueError says what is wrong with it (the handler's 400)."""
    try:
        request = orjson.loads(body or b"{}")
    except orjson.JSONDecodeError as error:
        raise ValueError(f"body is not valid JSON: {error}") from None
    if not isinstance(request, dict):
        # valid JSON but not an object (e.g. a bare list) used to
        # escape as an unhandled 500; malformed input is the
        # client's fault and must say so
        raise ValueError(f"body must be a JSON object, "
                         f"got {type(request).__name__}")
    name, version = request.get("model"), request.get("version")
    if not name:
        raise ValueError("missing 'model'")
    # the registry looks both up as dict keys: a list would be a 500
    if not isinstance(name, str):
        raise ValueError(f"'model' must be a string, "
                         f"got {type(name).__name__}")
    if version is not None and type(version) is not int:
        raise ValueError(f"'version' must be an integer, "
                         f"got {type(version).__name__}")
    return name, version, _inputs_array(request.get("inputs"))


#: JSON names of the values orjson decodes to
_JSON_NAMES = {str: "a string", type(None): "null", dict: "an object",
               list: "an array"}


def _inputs_array(inputs) -> np.ndarray:
    """``inputs`` as a float64 array: a rectangular nest of lists of
    rank 1-4 whose leaves are JSON numbers.

    The leaves are packed with ``struct``, whose ``d`` code converts
    what ``float()`` would without parsing strings: unlike a NumPy
    float64 cast it does not read ``"0.5"`` as 0.5 or null as NaN.
    Booleans among numbers read as 1 and 0; an array of booleans only
    is rejected (only arrays that start with one are scanned)."""
    shape = []
    probe = inputs
    while type(probe) is list:
        shape.append(len(probe))
        if not probe:
            break
        probe = probe[0]
    if not 1 <= len(shape) <= 4:
        raise ValueError(f"'inputs' must be an array of rank 1-4 of "
                         f"numbers, got rank {len(shape)}")
    leaves = [inputs]
    for size in shape:
        rows, leaves = leaves, []
        for row in rows:
            if type(row) is not list or len(row) != size:
                raise ValueError("'inputs' is not a rectangular array")
            leaves.extend(row)
    array = np.empty(shape)
    try:
        struct.pack_into(f"{len(leaves)}d", array, 0, *leaves)
    except struct.error:
        bad = next(leaf for leaf in leaves
                   if type(leaf) not in (int, float, bool))
        raise ValueError(f"'inputs' holds {_JSON_NAMES[type(bad)]} "
                         f"where a number belongs") from None
    if leaves and type(leaves[0]) is bool and all(
            type(leaf) is bool for leaf in leaves):
        raise ValueError("'inputs' holds only booleans; send numbers")
    return array


def _field_error(line: bytes) -> str:
    """What is wrong with a header line that ``_FIELD_LINE`` rejects."""
    if not line.endswith(b"\n"):
        return "request head ends before its blank line"
    if line[:1] in (b" ", b"\t"):
        return "obs-fold continuation lines are not accepted"
    name, colon, _ = line.partition(b":")
    if not colon:
        return "header line without ':'"
    if name != name.rstrip(b" \t"):
        return "whitespace before ':' in a header field"
    if re.fullmatch(_TOKEN, name) is None:
        return f"header field name {name[:64]!r} is not a token"
    return f"control character in header field {name.decode()!r}"


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` value of one wall-clock second, formatted once."""
    return formatdate(second, usegmt=True)


def _encode(payload: dict) -> bytes:
    """The one response encoder: JSON bytes, numpy arrays included
    (they must be C-contiguous)."""
    return orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY)


# ----------------------------------------------------------------------
def create_server(registry: ModelRegistry, host: str = "127.0.0.1",
                  port: int = 0,
                  settings: BatchSettings | None = None) -> ServingServer:
    """Build a :class:`ServingServer` (``port=0`` → ephemeral port)."""
    return ServingServer((host, port), registry, settings=settings)


def serve_forever(server: ServingServer) -> None:
    """Blocking serve loop with clean Ctrl-C shutdown."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        shutdown = threading.Thread(target=server.shutdown)
        shutdown.start()
        shutdown.join()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve exported ASM model artifacts over HTTP")
    parser.add_argument(
        "artifacts", nargs="+", metavar="[NAME=]PATH",
        help="artifact bundle directory, optionally renamed via NAME=PATH")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8100)
    parser.add_argument("--max-batch-size", type=int, default=64,
                        help="samples per coalesced forward pass")
    parser.add_argument("--max-latency-ms", type=float, default=0.0,
                        help="longest a request waits for co-riders "
                             "(0 = batch only what queued during the "
                             "previous forward pass; raise it to trade "
                             "latency for larger batches)")
    parser.add_argument("--max-queue-depth", type=int, default=0,
                        help="shed requests (503) past this queue depth "
                             "(0 = unbounded)")
    parser.add_argument("--deadline-ms", type=float, default=0.0,
                        help="drop requests queued longer than this "
                             "(0 = no deadline)")
    args = parser.parse_args(argv)

    from repro.serving.artifact import ArtifactError

    registry = default_registry()
    for item in args.artifacts:
        name, _, path = item.rpartition("=")
        try:
            entry = registry.register(path, name=name or None)
        except ArtifactError as error:
            print(f"error: cannot register {path!r}: {error}")
            return 1
        energy = entry.model.energy_per_inference_nj()
        energy_text = (f"{energy:.1f} nJ/inference"
                       if energy is not None else "energy n/a")
        print(f"registered {entry.key}: {entry.model.spec_label}, "
              f"{entry.model.num_params} params, {energy_text}")

    server = create_server(
        registry, host=args.host, port=args.port,
        settings=BatchSettings(
            max_batch_size=args.max_batch_size,
            max_latency_ms=args.max_latency_ms,
            max_queue_depth=args.max_queue_depth,
            deadline_s=(args.deadline_ms / 1e3
                        if args.deadline_ms > 0 else None)))
    host, port = server.server_address[:2]
    print(f"serving {len(registry)} model(s) on http://{host}:{port} "
          f"(POST /predict, GET /health /healthz /models /stats /metrics)")
    serve_forever(server)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
