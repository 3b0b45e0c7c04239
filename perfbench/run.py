"""End-to-end benchmark of the three user paths: ``repro run``,
``repro explore`` and ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline_run --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
layer metric should move which end-to-end metric):

* ``pipeline_run``  -- fresh interpreters, one ``Pipeline.run`` each;
* ``explore_sweep`` -- one process running ``run_exploration`` back to back;
* ``serve_single``  -- 2 closed-loop HTTP clients, 1 sample per request;
* ``serve_batch``   -- 2 closed-loop HTTP clients, 64 samples per request.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends
half the time untraced and half traced (same inputs), checks that both
halves give identical outputs, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any correctness check failed and 2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROGRAM = os.path.join(HERE, "program.py")
EXPLORE_SPACE = os.path.join(ROOT, "examples", "configs",
                             "digits_explore.toml")

#: explore workers.  ``jobs=2`` does not repeat within a tenth on a 2-core
#: host (see README.md), so the sweep runs serially.
EXPLORE_JOBS = 1
CHILD_TIMEOUT_S = 150
SERVE_CLIENTS = 2
SERVE_NAME = "mnist_mlp"
SERVE_BATCH = {"serve_single": 1, "serve_batch": 64}
#: distinct request bodies per serving run (requests cycle through them)
SERVE_BODIES = {1: 256, 64: 16}
SERVER_LAUNCHES = 5
CEILING_BATCHES = (1, 2, 4, 8, 16, 32, 64)

PIPELINE_STAGES = ("train", "quantize", "constrain", "evaluate", "energy",
                   "export", "serve-check")

#: Operation latencies are printed but not bounded: ``ops_per_s`` carries
#: them, and serve_batch's request latencies are bimodal (two handler
#: threads decoding at once or in turn), so their p50 falls between the
#: modes and jumps from run to run
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "datasets.load.s": "s", "datasets.load.calls": "count",
    "datasets.load.distinct": "count",
    "kernels.train.s": "s", "kernels.train.calls": "count",
    "nn.fit.self_s": "s",
    "training.project.s": "s", "training.project.calls": "count",
    "hardware.engine.s": "s",
    "kernels.simulate.s": "s", "kernels.simulate.calls": "count",
    "kernels.forward.s": "s", "kernels.forward.calls": "count",
    "kernels.forward.samples": "count",
    **{f"pipeline.stage.{stage}.self_s": "s" for stage in PIPELINE_STAGES},
    "pipeline.stage.runs": "count", "pipeline.stage.distinct_keys": "count",
    "pipeline.stage.useful_ratio": "ratio",
    "pipeline.cache.store.s": "s", "pipeline.cache.load.s": "s",
    "pipeline.cache.bytes": "bytes",
    "explore.candidates": "count", "explore.candidate.s": "s",
    "explore.busy_frac": "ratio", "explore.cpu_per_wall": "ratio",
    "explore.journal.write.s": "s",
    "serving.connect.ms": "ms", "serving.connects_per_request": "ratio",
    "serving.batcher.wait.ms": "ms", "serving.batch_size.mean": "count",
    "serving.handler_other.ms": "ms", "serving.kernel_ceiling_frac": "ratio",
    "serving.register.s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: per-layer figures no traced run can give, and why
UNMEASURED = {
    "pipeline.stage.faults.self_s":
        "no workload plans the faults stage",
    "pipeline.cache.load.s (stage JSON envelopes)":
        "the envelope read sits inside Pipeline._try_load_cached, which "
        "is not a public function; only load_state (.npz) is timed",
    "serving parse/encode split":
        "request parsing and response encoding run inline in the HTTP "
        "handler with no public function around them; both are inside "
        "serving.handler_other.ms",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not set up or drive the program."""


# ----------------------------------------------------------------------
# running the program
# ----------------------------------------------------------------------
def program_command(command: str, out: str, trace: bool,
                    extra: list[str]) -> tuple[list[str], float]:
    spawned_at = time.monotonic()
    cmd = [sys.executable, PROGRAM, command, "--out", out,
           "--spawned-at", repr(spawned_at), *extra]
    return cmd + (["--trace"] if trace else []), spawned_at


def run_program(work: str, tag: str, command: str, extra: list[str],
                trace: bool) -> tuple[dict | None, float, str | None]:
    """Run one program process to completion.

    Returns ``(result, wall_s, error)``; ``result`` is ``None`` when the
    process failed, with the tail of its output in ``error``.
    """
    out = os.path.join(work, f"{tag}.json")
    log = os.path.join(work, f"{tag}.log")
    cmd, spawned_at = program_command(command, out, trace, extra)
    with open(log, "wb") as handle:
        try:
            code = subprocess.run(cmd, stdout=handle,
                                  stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    wall = time.monotonic() - spawned_at
    if code != 0 or not os.path.exists(out):
        with open(log, "rb") as handle:
            tail = handle.read()[-400:].decode(errors="replace")
        return None, wall, f"{tag}: exit {code}: {tail.strip()}"
    with open(out) as handle:
        return json.load(handle), wall, None


def repeat(iteration, seconds: float) -> list[dict]:
    """Call ``iteration(i)`` for about *seconds* (at least once).

    Another iteration starts only while at least half of the previous
    one's wall time is left, so a run overshoots by half an iteration
    at most and usually less.
    """
    outcomes: list[dict] = []
    started = time.monotonic()
    while not outcomes or (time.monotonic() - started
                           + outcomes[-1]["wall"] / 2 < seconds):
        outcomes.append(iteration(len(outcomes)))
    return outcomes


def write_json(path: str, payload) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------
def layer_metrics(span_files: list[list], ops: int) -> dict:
    """Per-operation layer figures from the spans of traced processes.

    Each element of *span_files* holds the spans of one process (plus
    the explore workers it collected); self time is a span's duration
    minus its direct children's.
    """
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    samples = cache_bytes = distinct_loads = distinct_keys = 0
    for spans in span_files:
        children: dict[int, float] = defaultdict(float)
        for ident, parent, name, start, end, attrs in spans:
            if parent is not None:
                children[parent] += end - start
        loads, keys = set(), set()
        for ident, parent, name, start, end, attrs in spans:
            total[name] += end - start
            self_s[name] += end - start - children[ident]
            calls[name] += 1
            if name == "kernels.forward":
                samples += attrs["samples"]
            elif name == "datasets.load":
                loads.add(attrs["key"])
            elif name.startswith("pipeline.cache."):
                cache_bytes += attrs["bytes"]
                if "stage_key" in attrs:
                    keys.add(attrs["stage_key"])
        distinct_loads += len(loads)
        distinct_keys += len(keys)
    ops = max(ops, 1)
    runs = sum(count for name, count in calls.items()
               if name.startswith("pipeline.stage."))
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "datasets.load.s": total["datasets.load"] / ops,
        "datasets.load.calls": calls["datasets.load"] / ops,
        "datasets.load.distinct": distinct_loads / ops,
        "kernels.train.s": total["kernels.train"] / ops,
        "kernels.train.calls": calls["kernels.train"] / ops,
        "nn.fit.self_s": self_s["nn.fit"] / ops,
        "training.project.s": total["training.project"] / ops,
        "training.project.calls": calls["training.project"] / ops,
        "hardware.engine.s": total["hardware.engine"] / ops,
        "kernels.simulate.s": total["kernels.simulate"] / ops,
        "kernels.simulate.calls": calls["kernels.simulate"] / ops,
        "kernels.forward.s": total["kernels.forward"] / ops,
        "kernels.forward.calls": calls["kernels.forward"] / ops,
        "kernels.forward.samples": samples / ops,
        "pipeline.stage.runs": runs / ops,
        "pipeline.stage.distinct_keys": distinct_keys / ops,
        "pipeline.stage.useful_ratio": distinct_keys / runs if runs else 0.0,
        "pipeline.cache.store.s": total["pipeline.cache.store"] / ops,
        "pipeline.cache.load.s": total["pipeline.cache.load"] / ops,
        "pipeline.cache.bytes": cache_bytes / ops,
        "explore.candidates": calls["explore.candidate"] / ops,
        "explore.journal.write.s": total["explore.journal.write"] / ops,
        "serving.register.s": total["serving.register"] / ops,
    })
    for stage in PIPELINE_STAGES:
        metrics[f"pipeline.stage.{stage}.self_s"] = \
            self_s[f"pipeline.stage.{stage}"] / ops
    return metrics


def spans_named(span_files: list[list], name: str) -> list[list]:
    return [span for spans in span_files for span in spans
            if span[2] == name]


# ----------------------------------------------------------------------
# pipeline_run
# ----------------------------------------------------------------------
def pipeline_workload(args, work: str) -> dict:
    rng = random.Random(args.seed)
    seeds: list[int] = []

    def iteration(index: int, trace: bool) -> dict:
        while len(seeds) <= index:
            seeds.append(rng.randrange(1 << 20))
        run_dir = os.path.join(work, f"{'traced' if trace else 'plain'}"
                                     f"-{index}")
        config = write_json(os.path.join(run_dir, "config.json"), {
            "app": "mnist_mlp",
            "designs": ["conventional", "asm2", "asm1"],
            "stages": list(PIPELINE_STAGES),
            "budget": "quick",
            "seed": seeds[index],
            "sim_samples": 16,
            "cache_dir": os.path.join(run_dir, "cache"),
            "export_dir": os.path.join(run_dir, "artifacts"),
        })
        result, wall, error = run_program(run_dir, "run", "pipeline",
                                          ["--config", config], trace)
        if result is not None and not result["bit_identical"]:
            error = f"seed {seeds[index]}: serve-check not bit-identical"
        shutil.rmtree(run_dir, ignore_errors=True)
        return {"result": result, "wall": wall, "error": error}

    if not args.trace:
        runs = repeat(lambda i: iteration(i, False), args.seconds)
        ok = ok_results(runs)
        return summary(runs, {
            "setup_s": median([r["setup_s"] for r in ok]),
            "ops_per_s": 1 / median([r["wall"] for r in runs]),
            "peak_rss_mb": max((r["peak_rss_mb"] for r in ok), default=0.0),
        }, notes={"run_s": (median([r["run_s"] for r in ok]), "s")})

    plain = repeat(lambda i: iteration(i, False), args.seconds / 2)
    traced = repeat(lambda i: iteration(i, True), args.seconds / 2)
    pairs = list(zip(plain, traced))
    for first, second in pairs:
        if first["result"] and second["result"] \
                and first["result"]["rows"] != second["result"]["rows"]:
            second["error"] = "traced and untraced report rows differ"
    ok = ok_results(traced)
    metrics = layer_metrics([r["spans"] for r in ok], len(ok))
    metrics["obs.trace_overhead_frac"] = overhead(
        [(a["result"]["run_s"], b["result"]["run_s"]) for a, b in pairs
         if a["result"] and b["result"]])
    return summary(plain + traced, metrics)


# ----------------------------------------------------------------------
# explore_sweep
# ----------------------------------------------------------------------
def explore_workload(args, work: str) -> dict:
    sys.path.insert(0, SRC)
    from repro.utils.serialization import load_mapping

    space = load_mapping(EXPLORE_SPACE, BenchmarkError, noun="search space")
    space["seeds"] = [args.seed, args.seed + 1]
    space_path = write_json(os.path.join(work, "space.json"), space)

    def sweeps(tag: str, seconds: float, trace: bool) -> tuple[dict, list]:
        """One program process sweeping for *seconds*; its sweeps as
        ``repeat``-style outcomes, one per sweep."""
        result, wall, error = run_program(
            work, tag, "explore",
            ["--space", space_path, "--journal", os.path.join(work, tag),
             "--jobs", str(EXPLORE_JOBS), "--seconds", repr(seconds)],
            trace)
        if result is None:
            return {}, [{"result": None, "error": error}]
        return result, [{"result": sweep, "error": None}
                        for sweep in result["sweeps"]]

    def check(outcomes: list[dict]) -> None:
        reference = next((o["result"]["records"] for o in outcomes
                          if o["result"] is not None), None)
        for outcome in outcomes:
            sweep = outcome["result"]
            if sweep is None:
                continue
            if sweep["quarantined"]:
                outcome["error"] = f"{sweep['quarantined']} quarantined"
            elif not sweep["frontier"]:
                outcome["error"] = "empty Pareto frontier"
            elif sweep["records"] != reference:
                outcome["error"] = "journal records differ between sweeps"

    if not args.trace:
        process, runs = sweeps("plain", args.seconds, False)
        check(runs)
        ok = ok_results(runs)
        sweep_s = median([r["sweep_s"] for r in ok])
        return summary(runs, {
            "setup_s": median([r["setup_s"] for r in ok]),
            "ops_per_s": 1 / median([r["setup_s"] + r["sweep_s"]
                                     for r in ok]) if ok else 0.0,
            "peak_rss_mb": process.get("peak_rss_mb", 0.0),
        }, notes={"sweep_s": (sweep_s, "s"),
                  "cpu_per_wall": (median([r["cpu_s"] / r["sweep_s"]
                                           for r in ok]), "ratio")})

    _, plain = sweeps("plain", args.seconds / 2, False)
    process, traced = sweeps("traced", args.seconds / 2, True)
    check(plain + traced)
    ok = ok_results(traced)
    spans = [process["spans"]] if ok else []
    metrics = layer_metrics(spans, len(ok))
    candidates = spans_named(spans, "explore.candidate")
    metrics["explore.candidate.s"] = median([s[4] - s[3] for s in candidates])
    if ok:
        metrics["explore.busy_frac"] = (
            sum(s[4] - s[3] for s in candidates)
            / (process["jobs"] * sum(r["sweep_s"] for r in ok)))
    metrics["explore.cpu_per_wall"] = median(
        [r["cpu_s"] / r["sweep_s"] for r in ok_results(plain)])
    metrics["obs.trace_overhead_frac"] = (
        median([r["sweep_s"] for r in ok])
        / median([r["sweep_s"] for r in ok_results(plain)]) - 1
        if ok and ok_results(plain) else 0.0)
    return summary(plain + traced, metrics)


# ----------------------------------------------------------------------
# serve_single / serve_batch
# ----------------------------------------------------------------------
class Server:
    """One server process, ready once ``/healthz`` answered 200."""

    def __init__(self, work: str, tag: str, artifact: str,
                 trace: bool) -> None:
        self.out = os.path.join(work, f"{tag}.json")
        self._log = open(os.path.join(work, f"{tag}.log"), "wb")
        cmd, spawned_at = program_command(
            "serve", self.out, trace,
            ["--artifact", artifact, "--name", SERVE_NAME])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"PORT "):
            self.kill()
            raise BenchmarkError(f"server {tag} did not start")
        self.port = int(line.split()[1])
        deadline = time.monotonic() + 60
        while get_status(self.port, "/healthz") != 200:
            if time.monotonic() > deadline:
                self.kill()
                raise BenchmarkError(f"server {tag} never became ready")
            time.sleep(0.002)
        self.setup_s = time.monotonic() - spawned_at

    def stop(self) -> dict:
        """Shut the server down cleanly; returns what it wrote out."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        with open(self.out) as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._log):
            if stream is not None and not stream.closed:
                stream.close()


def get_status(port: int, path: str) -> int | None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status
    except OSError:
        return None
    finally:
        conn.close()


def drive(port: int, bodies: list[bytes], expected: list[tuple],
          seconds: float) -> dict:
    """Closed-loop load: each client thread sends its next request only
    after the previous response arrived, over one reused connection."""
    clients: list[dict] = [{} for _ in range(SERVE_CLIENTS)]
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        latencies: list[float] = []
        connect_s = 0.0
        connects = attempted = failed = 0
        turn = index
        try:
            while time.perf_counter() < deadline:
                body = bodies[turn % len(bodies)]
                want = expected[turn % len(bodies)]
                turn += SERVE_CLIENTS
                attempted += 1
                started = time.perf_counter()
                try:
                    if conn.sock is None:
                        conn.connect()
                        connect_s += time.perf_counter() - started
                        connects += 1
                    conn.request("POST", "/predict", body=body, headers={
                        "Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    failed += 1
                    continue
                latencies.append(time.perf_counter() - started)
                if response.status != 200:
                    failed += 1
                    continue
                answer = json.loads(payload)
                if (answer.get("predictions"), answer.get("scores")) != want:
                    failed += 1
        finally:
            conn.close()
            clients[index] = {"latencies": latencies, "connect_s": connect_s,
                              "connects": connects, "attempted": attempted,
                              "failed": failed}

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(index,))
               for index in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies = sorted(x for c in clients for x in c["latencies"])
    attempted = sum(c["attempted"] for c in clients)
    failed = sum(c["failed"] for c in clients)
    return {
        "attempted": attempted, "failed": failed,
        "req_per_s": (attempted - failed) / elapsed,
        "latencies": latencies,
        "p50_s": median(latencies),
        "p99_s": (statistics.quantiles(latencies, n=100)[98]
                  if len(latencies) >= 100 else math.nan),
        "connect_s": sum(c["connect_s"] for c in clients),
        "connects": sum(c["connects"] for c in clients),
    }


def kernel_rates(model, x) -> dict[int, float]:
    """``CompiledModel.forward`` samples/s at each ceiling batch size."""
    rates = {}
    for batch in CEILING_BATCHES:
        chunk = x[:batch]
        model.forward(chunk)
        calls, started = 0, time.perf_counter()
        while calls < 5 or time.perf_counter() - started < 0.1:
            model.forward(chunk)
            calls += 1
        rates[batch] = batch * calls / (time.perf_counter() - started)
    return rates


def serve_workload(args, work: str) -> dict:
    sys.path.insert(0, SRC)
    import numpy as np
    from repro.datasets.registry import BENCHMARKS, load_dataset, \
        training_arrays
    from repro.serving.compiled import CompiledModel

    batch = SERVE_BATCH[args.workload]
    # set-up: export the served artifact, then build the request bodies
    # and the outputs the server must return for them
    config = write_json(os.path.join(work, "export", "config.json"), {
        "app": "mnist_mlp", "designs": ["asm2"],
        "stages": ["train", "constrain", "export"], "budget": "quick",
        "seed": args.seed,
        "export_dir": os.path.join(work, "export", "artifacts")})
    result, _, error = run_program(os.path.join(work, "export"), "export",
                                   "pipeline", ["--config", config], False)
    if result is None:
        raise BenchmarkError(error)
    artifact = result["export_path"]
    n_bodies = SERVE_BODIES[batch]
    dataset = load_dataset("mnist_mlp", n_train=10, n_test=n_bodies * batch,
                           seed=args.seed)
    _, x = training_arrays(dataset, BENCHMARKS["mnist_mlp"])
    model = CompiledModel.load(artifact)
    bodies, expected = [], []
    for index in range(n_bodies):
        rows = x[index * batch:(index + 1) * batch]
        scores = model.forward(rows)
        inputs = rows[0] if batch == 1 else rows
        bodies.append(json.dumps({"model": SERVE_NAME,
                                  "inputs": inputs.tolist()}).encode())
        expected.append((np.argmax(scores, axis=1).tolist(),
                         scores.tolist()))
    rates = kernel_rates(model, x) if args.trace else {}

    with ExitStack() as stack:
        setups = []
        for launch in range(SERVER_LAUNCHES):
            server = Server(work, f"server-{launch}", artifact, False)
            stack.callback(server.kill)
            setups.append(server.setup_s)
            if launch < SERVER_LAUNCHES - 1:
                server.stop()
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = drive(server.port, bodies, expected, seconds)
        plain_out = server.stop()
        if args.trace:
            server = Server(work, "server-traced", artifact, True)
            stack.callback(server.kill)
            traced = drive(server.port, bodies, expected, seconds)
            traced_out = server.stop()

    attempted = plain["attempted"]
    failed = plain["failed"]
    if not args.trace:
        return summary_counts(attempted, failed, {
            "setup_s": median(setups),
            "ops_per_s": plain["req_per_s"],
            "peak_rss_mb": plain_out["peak_rss_mb"],
        }, notes={"req_per_s": (plain["req_per_s"], "1/s"),
                  "samples_per_s": (plain["req_per_s"] * batch, "1/s"),
                  "latency_p50_ms": (plain["p50_s"] * 1e3, "ms"),
                  "latency_mean_ms": (statistics.fmean(plain["latencies"])
                                      * 1e3, "ms"),
                  "latency_p99_ms": (plain["p99_s"] * 1e3, "ms"),
                  "requests": (len(plain["latencies"]), "count")})

    spans = [traced_out["spans"]]
    requests = len(traced["latencies"])
    metrics = layer_metrics(spans, requests)
    forwards = spans_named(spans, "kernels.forward")
    submits = spans_named(spans, "serving.submit")
    batch_mean = (sum(s[5]["samples"] for s in forwards) / len(forwards)
                  if forwards else 0.0)
    sizes = sorted(rates)
    ceiling = float(np.interp(math.log2(max(batch_mean, 1.0)),
                              [math.log2(b) for b in sizes],
                              [rates[b] for b in sizes]))
    submit_s = (sum(s[4] - s[3] for s in submits) / len(submits)
                if submits else 0.0)
    connect_per_request = traced["connect_s"] / max(requests, 1)
    metrics.update({
        "serving.connect.ms": (traced["connect_s"]
                               / max(traced["connects"], 1) * 1e3),
        "serving.connects_per_request": traced["connects"] / max(requests, 1),
        "serving.batcher.wait.ms": (
            sum(s[5]["wait"] for s in submits) / len(submits) * 1e3
            if submits else 0.0),
        "serving.batch_size.mean": batch_mean,
        "serving.handler_other.ms": (
            statistics.fmean(traced["latencies"]) - connect_per_request
            - submit_s) * 1e3 if requests else 0.0,
        "serving.kernel_ceiling_frac": plain["req_per_s"] * batch / ceiling,
        "serving.register.s": sum(
            s[4] - s[3] for s in spans_named(spans, "serving.register")),
        "obs.trace_overhead_frac": traced["p50_s"] / plain["p50_s"] - 1,
    })
    return summary_counts(attempted + traced["attempted"],
                          failed + traced["failed"], metrics)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def ok_results(runs: list[dict]) -> list[dict]:
    return [r["result"] for r in runs if r["error"] is None]


def overhead(pairs: list[tuple[float, float]]) -> float:
    """Median traced/untraced time ratio minus 1 over matched runs."""
    return median([traced / plain for plain, traced in pairs]) - 1


def summary(runs: list[dict], metrics: dict, notes=None) -> dict:
    for run in runs:
        if run["error"] is not None:
            print(f"error: {run['error']}", file=sys.stderr)
    failed = sum(run["error"] is not None for run in runs)
    return summary_counts(len(runs), failed, metrics, notes)


def summary_counts(attempted: int, failed: int, metrics: dict,
                   notes=None) -> dict:
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": notes or {}}


WORKLOADS = {
    "pipeline_run": pipeline_workload,
    "explore_sweep": explore_workload,
    "serve_single": serve_workload,
    "serve_batch": serve_workload,
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0] + " " + __doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join(SRC, "repro", "__init__.py"), EXPLORE_SPACE):
        if not os.path.isfile(needed):
            print(f"error: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        outcome = WORKLOADS[args.workload](args, work)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass                # another run still uses it

    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} attempted, {failed} failed")
    print(f"  {'error_rate':34s} {failed / max(attempted, 1):14.6g} ratio")
    for name, (value, unit) in outcome["notes"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, unit in units.items():
        print(f"  {name:34s} {outcome['metrics'][name]:14.6g} {unit}")
    if args.trace:
        for name, why in UNMEASURED.items():
            print(f"  not measured: {name}: {why}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
