"""The unified ``repro`` command-line interface.

One console entry point for the whole flow::

    repro run examples/configs/digits_quick.json   # declarative pipeline
    repro run cfg.json --seeds 0,1,2 --jobs 3      # multi-seed, parallel
    repro run cfg.json --trace out.jsonl           # traced run (repro.obs)
    repro experiment fig7 --full                   # paper tables/figures
    repro experiment all --trace all.jsonl         # ... traced
    repro explore examples/configs/digits_explore.toml --jobs 4
    repro faults mnist_mlp --rates 0.001,0.01,0.05 # resiliency curves
    repro serve results/artifacts/mnist_mlp-asm2   # HTTP inference server
    repro stats out.jsonl                          # span tree + metrics
    repro lint src/                                # domain invariant linter
    repro list                                     # what exists

``repro run`` executes :class:`~repro.pipeline.config.PipelineConfig`
files (JSON or TOML) and prints the reports; ``repro explore`` walks a
:class:`~repro.explore.space.SearchSpace` on a worker pool and reduces
it to Pareto frontiers; ``repro experiment`` reproduces the paper's
tables and figures; ``repro serve`` runs the HTTP inference server.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.faults.models import FAULT_KINDS
from repro.kernels.registry import BACKEND_NAMES
from repro.pipeline.config import (
    STAGE_NAMES,
    Design,
    PipelineConfig,
    PipelineConfigError,
)

__all__ = ["main"]

#: Where cached pipeline runs / exploration journals live by default
#: (``repro list`` scans these; ``--cache-dir`` / ``--journal`` override).
DEFAULT_CACHE_DIR = os.path.join("results", "pipeline-cache")
DEFAULT_EXPLORE_DIR = os.path.join("results", "explore")


def _parse_seeds(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        seeds = tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        raise PipelineConfigError(f"bad --seeds value {text!r}; "
                                  f"expected e.g. 0,1,2")
    if not seeds:
        raise PipelineConfigError("--seeds must name at least one seed")
    return seeds


def _start_trace(trace_path: str | None) -> bool:
    """Enable :mod:`repro.obs` when ``--trace`` was given."""
    if trace_path is None:
        return False
    from repro import obs

    obs.enable(trace_path=trace_path)
    return True


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a repro.obs span/metrics trace to "
                             "PATH (JSONL; render with `repro stats "
                             "PATH`); worker processes ship their spans "
                             "and counters back into this one file")


def _finish_trace(args: argparse.Namespace, tracing: bool) -> None:
    """Flush/close the trace file and tell the user where it went."""
    if not tracing:
        return
    from repro import obs

    obs.disable()
    if not getattr(args, "quiet", False):
        print(f"[trace written to {args.trace}; inspect with "
              f"`repro stats {args.trace}`]")


def _run_single(args: argparse.Namespace, config: PipelineConfig,
                stages: tuple[str, ...] | None = None) -> int:
    """Run one config with live per-stage progress, print its report
    and write ``--json``: the one-config path of ``run`` and ``faults``."""
    from repro.pipeline.pipeline import Pipeline
    from repro.pipeline.report import format_report

    report = Pipeline(config).run(stages=stages, resume=not args.no_resume,
                                  verbose=not args.quiet)
    if not args.quiet:
        print()
    print(format_report(report))
    if args.json:
        print(f"\n[wrote {report.save(args.json)}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.explore.executor import run_pipeline_jobs
    from repro.pipeline.report import format_report
    from repro.pipeline.stages import StageError
    from repro.utils.serialization import write_json

    tracing = _start_trace(args.trace)
    try:
        stages = tuple(s for s in args.stages.split(",") if s) \
            if args.stages else None
        seeds = _parse_seeds(args.seeds)
        configs: list[PipelineConfig] = []
        for path in args.config:
            config = PipelineConfig.load(path)
            if args.full:
                config = config.with_overrides(budget="full")
            if args.cache_dir is not None:
                config = config.with_overrides(cache_dir=args.cache_dir)
            if args.backend is not None:
                config = config.with_overrides(backend=args.backend)
            if seeds is not None:
                configs.extend(config.with_overrides(seed=seed)
                               for seed in seeds)
            elif args.seed is not None:
                configs.append(config.with_overrides(seed=args.seed))
            else:
                configs.append(config)
        if len(configs) == 1:
            return _run_single(args, configs[0], stages)
        reports = run_pipeline_jobs(configs, stages=stages,
                                    resume=not args.no_resume,
                                    jobs=args.jobs)
        print("\n\n".join(format_report(report) for report in reports))
        if args.json:
            path = write_json(args.json, {"reports": [
                report.to_dict() for report in reports]})
            print(f"\n[wrote {path}]")
    except (PipelineConfigError, StageError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _finish_trace(args, tracing)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, execute
    from repro.pipeline.stages import StageError

    names = tuple(EXPERIMENTS) if args.name == "all" else (args.name,)
    tracing = _start_trace(args.trace)
    try:
        return execute(names, full=args.full, seed=args.seed,
                       write_results=args.json, jobs=args.jobs)
    except (PipelineConfigError, StageError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _finish_trace(args, tracing)


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import (
        JournalError,
        SearchSpace,
        SearchSpaceError,
        format_exploration_report,
        register_frontier,
        run_exploration,
    )
    from repro.pipeline.stages import StageError

    tracing = _start_trace(args.trace)
    try:
        space = SearchSpace.load(args.space)
        journal_dir = args.journal if args.journal is not None else \
            os.path.join(DEFAULT_EXPLORE_DIR, space.name)
        report = run_exploration(space, journal_dir,
                                 cache_dir=args.cache_dir,
                                 jobs=args.jobs,
                                 resume=not args.no_resume,
                                 verbose=not args.quiet,
                                 max_retries=args.max_retries,
                                 timeout_s=args.timeout or None)
    except (SearchSpaceError, JournalError, StageError, OSError,
            ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _finish_trace(args, tracing)
    if not args.quiet:
        print()
    print(format_exploration_report(report))
    print(f"\n[journal: {journal_dir}]")
    if args.json:
        print(f"[wrote {report.save(args.json)}]")
    if args.register:
        # the report remembers the stage cache it ran against, so this
        # re-runs nothing but the export stage per winner
        entries = register_frontier(report, verbose=not args.quiet)
        if entries:
            print("\nregistered frontier designs:")
            for entry in entries:
                print(f"  {entry.key:<24} {entry.path}")
        else:
            print("\nno ASM/mixed design on the frontier; "
                  "nothing to register")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.pipeline.stages import StageError

    tracing = _start_trace(args.trace)
    try:
        config = PipelineConfig(
            app=args.app,
            designs=tuple(args.designs.split(",")),
            stages=("train", "quantize", "constrain", "evaluate",
                    "faults"),
            budget="full" if args.full else "quick",
            seed=args.seed,
            cache_dir=args.cache_dir,
            fault_rates=tuple(float(r) for r in args.rates.split(",")),
            fault_kind=args.kind,
            fault_seed=args.fault_seed,
        )
        return _run_single(args, config)
    except (PipelineConfigError, StageError, OSError,
            ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _finish_trace(args, tracing)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.server import main as serve_main

    return serve_main(args.args)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.stats import (
        TraceError,
        diff_traces,
        format_metric_table,
        format_span_tree,
        format_trace_diff,
        load_trace,
        write_chrome_trace,
    )

    if args.diff is not None:
        if args.trace is not None:
            print("error: --diff takes exactly two traces; drop the "
                  "positional argument", file=sys.stderr)
            return 2
        try:
            trace_a = load_trace(args.diff[0])
            trace_b = load_trace(args.diff[1])
        except (TraceError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"diff: {args.diff[0]} (A) vs {args.diff[1]} (B), "
              f"significance threshold {args.threshold:g}%")
        print()
        print(format_trace_diff(diff_traces(trace_a, trace_b,
                                            threshold_pct=args.threshold)))
        return 0

    if args.trace is None:
        print("error: a trace path is required (or use --diff A B)",
              file=sys.stderr)
        return 2
    try:
        trace = load_trace(args.trace)
    except (TraceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    meta = trace.meta
    print(f"trace: {args.trace} (format {meta['format']}, "
          f"repro {meta.get('repro_version', '?')}, "
          f"{len(trace.events)} spans)")
    if trace.dropped:
        print(f"note: {trace.dropped} span(s) dropped past the in-memory "
              f"cap (MAX_KEPT_SPANS)")
    print()
    print(format_span_tree(trace, max_depth=args.depth))
    if not args.no_metrics:
        print()
        print(format_metric_table(trace))
    if args.chrome:
        path = write_chrome_trace(trace, args.chrome)
        print(f"\n[wrote Chrome trace {path}; open via chrome://tracing "
              f"or https://ui.perfetto.dev]")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import subprocess

    from repro.obs.history import (
        SUITES,
        HistoryError,
        append_entry,
        check_gates,
        entry_from_payload,
        format_trend,
        load_history,
    )

    suites = args.suite or (list(SUITES) if not args.check else [])
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        print(f"error: unknown suite(s) {', '.join(unknown)}; "
              f"choose from {', '.join(SUITES)}", file=sys.stderr)
        return 2

    bench_dir = os.path.abspath(args.benchmarks_dir)
    repo_root = os.path.dirname(bench_dir)
    history_path = args.history if args.history is not None else \
        os.path.join(repo_root, "BENCH_HISTORY.jsonl")
    try:
        entries = load_history(history_path)
    except HistoryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    for suite in suites:
        for script_name in SUITES[suite]:
            script = os.path.join(bench_dir, script_name)
            if not os.path.exists(script):
                print(f"error: {script} not found", file=sys.stderr)
                return 1
            print(f"[bench {suite}] running {script_name} ...")
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", script, "-q", "-s"],
                cwd=repo_root)
            if proc.returncode != 0:
                print(f"error: suite {suite!r} failed (exit "
                      f"{proc.returncode})", file=sys.stderr)
                return 1
        payload_path = os.path.join(repo_root, f"BENCH_{suite}.json")
        try:
            with open(payload_path) as handle:
                payload = json.load(handle)
            entries = append_entry(history_path,
                                   entry_from_payload(suite, payload))
        except (OSError, ValueError) as error:
            print(f"error: could not ledger {payload_path}: {error}",
                  file=sys.stderr)
            return 1
        print(f"[bench {suite}] ledgered into {history_path}")

    if not entries:
        print(f"bench history {history_path} is empty; run "
              f"`repro bench` first")
        return 0
    print()
    print(format_trend(entries))
    violations = check_gates(entries)
    if violations:
        print()
        for violation in violations:
            print(f"GATE FAILED  {violation.render()}", file=sys.stderr)
        return 1
    print(f"\nall trajectory gates pass ({len(entries)} ledger entries)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import LintConfig, LintConfigError, Linter, all_rules

    if args.rules:
        for rule_id, rule in all_rules().items():
            print(f"{rule_id}  {rule.severity:<7}  {rule.title}")
        return 0
    root = os.path.abspath(args.root)
    try:
        config = LintConfig.discover(args.config, root=root)
        if args.select:
            config.select = [s.strip().upper()
                             for s in args.select.split(",") if s.strip()]
        result = Linter(config=config, root=root).run(args.paths)
    except (LintConfigError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "format": "repro-lint/1",
            "root": root,
            "files": len(result.checked_files),
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "suppressed": result.suppressed,
            "findings": [f.to_dict() for f in result.findings],
        }, indent=2))
    else:
        for finding in result.findings:
            print(finding.render())
        if result.findings:
            print()
        print(f"{len(result.checked_files)} files checked: "
              f"{len(result.errors)} error(s), "
              f"{len(result.warnings)} warning(s), "
              f"{result.suppressed} suppressed")
    if args.warn_only:
        return 0
    return 0 if result.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.datasets.registry import BENCHMARKS
    from repro.experiments import EXPERIMENTS
    from repro.explore.journal import list_journals
    from repro.pipeline.pipeline import list_cached_runs

    print("pipeline stages (repro run):")
    print("  " + ", ".join(STAGE_NAMES))
    print("designs:")
    print("  " + ", ".join(Design.FORMS))
    print("benchmarks:")
    for key, spec in BENCHMARKS.items():
        print(f"  {key:<10} {spec.description}")
    print("experiments (repro experiment):")
    print("  " + ", ".join(EXPERIMENTS))

    runs = list_cached_runs(args.cache_dir)
    print(f"cached pipeline runs ({args.cache_dir}):")
    if runs:
        for run in runs:
            print(f"  {run.get('config_digest', '?')[:12]}  "
                  f"{run.get('app', '?'):<10} seed={run.get('seed', '?')} "
                  f"budget={run.get('budget', '?'):<6} "
                  f"designs={','.join(run.get('designs', []))} "
                  f"stages={','.join(run.get('stages', []))}")
    else:
        print("  (none)")

    journals = list_journals(args.explore_dir)
    print(f"exploration journals ({args.explore_dir}):")
    if journals:
        for journal in journals:
            status = "report ready" if journal["has_report"] \
                else "in progress"
            print(f"  {journal['path']}  app={journal['app']} "
                  f"strategy={journal['strategy']} "
                  f"records={journal['records']} ({status})")
    else:
        print("  (none)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiplier-less Artificial Neurons: train, constrain, "
                    "evaluate, explore, export and serve from one CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute declarative pipeline configs (.json/.toml)")
    run.add_argument("config", nargs="+",
                     help="path(s) to PipelineConfig files")
    run.add_argument("--stages", default=None, metavar="S1,S2,...",
                     help="override the configs' stage list "
                          f"(choose from {','.join(STAGE_NAMES)})")
    run.add_argument("--cache-dir", default=None,
                     help="stage cache root (overrides config.cache_dir)")
    run.add_argument("--backend", default=None,
                     choices=BACKEND_NAMES,
                     help="kernel backend for every kernel family "
                          "(bit-identical; overrides config.backend)")
    run.add_argument("--no-resume", action="store_true",
                     help="ignore cached stage results")
    run.add_argument("--full", action="store_true",
                     help="override the budget to the paper-scale tier")
    seed = run.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=None,
                      help="override the configs' seed")
    seed.add_argument("--seeds", default=None, metavar="S1,S2,...",
                      help="fan each config out over several seeds "
                           "(combine with --jobs)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for multi-config/seed runs")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="also write the report(s) as JSON to PATH")
    _add_trace_flag(run)
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-stage progress lines")
    run.set_defaults(func=_cmd_run)

    experiment = sub.add_parser(
        "experiment", help="reproduce a paper table/figure (or 'all')")
    experiment.add_argument("name", help="experiment id or 'all'; "
                                         "see `repro list`")
    experiment.add_argument("--full", action="store_true",
                            help="paper-scale training budgets")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes when running several "
                                 "experiments")
    experiment.add_argument("--json", action="store_true",
                            help="write results/<experiment>.json")
    _add_trace_flag(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    explore = sub.add_parser(
        "explore", help="design-space exploration over a SearchSpace "
                        "(.json/.toml); reduces to Pareto frontiers")
    explore.add_argument("space", help="path to a SearchSpace file")
    explore.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel candidate evaluations")
    explore.add_argument("--journal", default=None, metavar="DIR",
                         help="journal directory (default: "
                              f"{DEFAULT_EXPLORE_DIR}/<space name>); "
                              "re-running resumes from it")
    explore.add_argument("--cache-dir", default=None,
                         help="pipeline stage cache shared by the workers "
                              "(default: <journal>/cache)")
    explore.add_argument("--no-resume", action="store_true",
                         help="ignore the journal and stage cache")
    explore.add_argument("--max-retries", type=int, default=2,
                         metavar="N",
                         help="bounded retries per failing candidate "
                              "before it is quarantined into the journal "
                              "as a typed failure record")
    explore.add_argument("--timeout", type=float, default=0.0,
                         metavar="SECONDS",
                         help="per-candidate evaluation timeout "
                              "(0 = unbounded)")
    explore.add_argument("--register", action="store_true",
                         help="export frontier winners and register them "
                              "in the serving model registry")
    explore.add_argument("--json", default=None, metavar="PATH",
                         help="also write the ExplorationReport to PATH")
    _add_trace_flag(explore)
    explore.add_argument("--quiet", action="store_true",
                         help="suppress per-candidate progress lines")
    explore.set_defaults(func=_cmd_explore)

    faults = sub.add_parser(
        "faults", help="accuracy-vs-fault-rate resiliency curves "
                       "(seeded, deterministic fault injection)")
    faults.add_argument("app", help="benchmark application; "
                                    "see `repro list`")
    faults.add_argument("--designs", default="conventional,asm2,asm8",
                        metavar="D1,D2,...",
                        help="design tokens to sweep "
                             "(default: %(default)s)")
    faults.add_argument("--rates", default="0.001,0.005,0.01,0.05",
                        metavar="R1,R2,...",
                        help="fault rates to sweep "
                             "(default: %(default)s)")
    faults.add_argument("--kind", default="activation_upset",
                        choices=FAULT_KINDS,
                        help="fault model (default: %(default)s)")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the deterministic fault-site hash")
    faults.add_argument("--seed", type=int, default=0,
                        help="training seed")
    faults.add_argument("--full", action="store_true",
                        help="paper-scale training budget")
    faults.add_argument("--cache-dir", default=None,
                        help="pipeline stage cache root")
    faults.add_argument("--no-resume", action="store_true",
                        help="ignore cached stage results")
    faults.add_argument("--json", default=None, metavar="PATH",
                        help="also write the PipelineReport to PATH")
    _add_trace_flag(faults)
    faults.add_argument("--quiet", action="store_true",
                        help="suppress per-stage progress lines")
    faults.set_defaults(func=_cmd_faults)

    serve = sub.add_parser(
        "serve", help="serve exported artifacts over HTTP "
                      "(see `repro serve --help`)")
    serve.add_argument("args", nargs=argparse.REMAINDER,
                       help="arguments passed to the serving front end")
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser(
        "stats", help="render a --trace file: span tree, metric table, "
                      "trace diffing, optional Chrome trace export")
    stats.add_argument("trace", nargs="?", default=None,
                       help="path to a repro-trace JSONL file (from "
                            "--trace)")
    stats.add_argument("--diff", nargs=2, default=None,
                       metavar=("A.jsonl", "B.jsonl"),
                       help="instead of rendering one trace, align two "
                            "traces by span path and report wall/CPU/RSS "
                            "and metric deltas")
    stats.add_argument("--threshold", type=float, default=5.0,
                       metavar="PCT",
                       help="significance threshold for --diff wall-time "
                            "deltas (default: 5%%)")
    stats.add_argument("--depth", type=int, default=None, metavar="N",
                       help="limit the span tree to N levels")
    stats.add_argument("--no-metrics", action="store_true",
                       help="skip the metric table")
    stats.add_argument("--chrome", default=None, metavar="OUT.json",
                       help="also convert the spans to a Chrome "
                            "trace-event JSON file for chrome://tracing")
    stats.set_defaults(func=_cmd_stats)

    bench = sub.add_parser(
        "bench", help="run benchmark suites, ledger their results into "
                      "BENCH_HISTORY.jsonl and gate the trajectory")
    bench.add_argument("suite", nargs="*",
                       help="suites to run (default: all; "
                            "see repro.obs.history.SUITES); with --check "
                            "the default is to run none and only gate")
    bench.add_argument("--history", default=None, metavar="PATH",
                       help="ledger file (default: BENCH_HISTORY.jsonl "
                            "next to the benchmarks directory)")
    bench.add_argument("--check", action="store_true",
                       help="gate the existing ledger without running "
                            "any suite (the CI mode)")
    bench.add_argument("--benchmarks-dir", default="benchmarks",
                       metavar="DIR",
                       help="directory holding the bench_*.py suites")
    bench.set_defaults(func=_cmd_bench)

    lint = sub.add_parser(
        "lint", help="run the domain invariant linter (determinism, "
                     "cache keys, backend parity, ... — see "
                     "docs/invariants.md)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files/directories to lint (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable findings "
                           "(format repro-lint/1) instead of text")
    lint.add_argument("--select", default=None, metavar="ID1,ID2,...",
                      help="run only these rule ids (e.g. RPR001,RPR004)")
    lint.add_argument("--config", default=None, metavar="PYPROJECT",
                      help="read [tool.repro.lint] from this file "
                           "(default: <root>/pyproject.toml)")
    lint.add_argument("--root", default=".",
                      help="repository root paths are resolved and "
                           "reported against (default: cwd)")
    lint.add_argument("--warn-only", action="store_true",
                      help="report findings but always exit 0")
    lint.add_argument("--rules", action="store_true",
                      help="list the registered rules and exit")
    lint.set_defaults(func=_cmd_lint)

    lst = sub.add_parser(
        "list", help="list stages, designs, benchmarks, experiments, "
                     "cached runs and exploration journals")
    lst.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                     help="stage cache root to scan for cached runs")
    lst.add_argument("--explore-dir", default=DEFAULT_EXPLORE_DIR,
                     help="directory to scan for exploration journals")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
