"""The program side of the benchmark: one fresh interpreter per call.

``run.py`` starts this script the way users start ``repro``; it is never
imported.  Each subcommand reads its generated input file, does its work
(one pipeline run, sweeps for ``--seconds``, or serving until its stdin
closes), and writes ``--out`` (timings, outputs to check, peak RSS and,
with ``--trace``, the spans) before it exits::

    program.py pipeline --config cfg.json --out out.json --spawned-at T
    program.py explore  --space space.json --journal DIR --jobs N \
                        --seconds S ...
    program.py serve    --artifact DIR --name NAME --out out.json ...

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer, install  # noqa: E402

#: explore set-up takes about a millisecond, so each sweep times it
#: this many times and keeps the median
SETUP_REPEATS = 5


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def cmd_pipeline(args) -> dict:
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.pipeline import Pipeline

    config = PipelineConfig.load(args.config)
    setup_s = time.monotonic() - args.spawned_at
    started = time.perf_counter()
    report = Pipeline(config).run()
    run_s = time.perf_counter() - started
    stages = report.to_dict()["stages"]
    # the artifact path differs between runs, so it stays out of the rows
    export_path = stages.get("export", {}).pop("path", None)
    serve_check = stages.get("serve-check")
    return {"setup_s": setup_s, "run_s": run_s, "rows": stages,
            "bit_identical": bool(serve_check
                                  and serve_check["bit_identical"]),
            "export_path": export_path}


def cmd_explore(args) -> dict:
    """Sweeps back to back for about ``--seconds``, each in a fresh
    journal and stage cache; later sweeps skip first-use set-up, which
    ``pipeline`` measures."""
    from repro.explore.journal import FAILED_STATUS
    from repro.explore.space import SearchSpace
    from repro.explore.strategies import run_exploration

    sweeps: list[dict] = []
    started = time.monotonic()
    while not sweeps or (time.monotonic() - started
                         + sweeps[-1]["sweep_s"] / 2 < args.seconds):
        setups = []
        for _ in range(SETUP_REPEATS):
            loading = time.perf_counter()
            space = SearchSpace.load(args.space)
            space.grid()        # enumeration is part of set-up
            setups.append(time.perf_counter() - loading)
        setup_s = sorted(setups)[SETUP_REPEATS // 2]
        journal = os.path.join(args.journal, f"sweep-{len(sweeps)}")
        cpu = cpu_seconds()
        sweeping = time.perf_counter()
        report = run_exploration(space, journal, jobs=args.jobs, resume=True)
        sweep_s = time.perf_counter() - sweeping
        cpu = cpu_seconds() - cpu
        records_dir = os.path.join(journal, "records")
        digests = {}
        quarantined = 0
        for name in sorted(os.listdir(records_dir)):
            with open(os.path.join(records_dir, name), "rb") as handle:
                data = handle.read()
            digests[name] = hashlib.sha256(data).hexdigest()
            quarantined += json.loads(data).get("status") == FAILED_STATUS
        shutil.rmtree(journal)
        sweeps.append({"setup_s": setup_s, "sweep_s": sweep_s, "cpu_s": cpu,
                       "records": digests, "quarantined": quarantined,
                       "frontier": len(report.frontier)})
    return {"jobs": args.jobs, "sweeps": sweeps}


def cmd_serve(args) -> dict:
    from repro.serving.registry import ModelRegistry
    from repro.serving.server import create_server

    registry = ModelRegistry()
    registry.register(args.artifact, name=args.name)
    server = create_server(registry, port=0)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()            # the parent closes stdin to stop us
    server.shutdown()
    loop.join(timeout=10)
    return {}


COMMANDS = {"pipeline": cmd_pipeline, "explore": cmd_explore,
            "serve": cmd_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--space")
    parser.add_argument("--journal")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--artifact")
    parser.add_argument("--name")
    args = parser.parse_args()
    tracer = Tracer()
    if args.trace:
        install(tracer)
    result = COMMANDS[args.command](args)
    result["peak_rss_mb"] = peak_rss_mb()
    result["spans"] = tracer.spans
    tmp = args.out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(result, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
