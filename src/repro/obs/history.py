"""Benchmark-trajectory ledger: ``BENCH_HISTORY.jsonl`` + trend gates.

The checked-in ``BENCH_*.json`` files are point-in-time snapshots; the
paper's claims, and the repo's performance story, are *trends* (energy
savings vs. accuracy degradation across alphabet sets, kernel speedups
across PRs).  This module gives those trends a ledger:

* one JSONL file (``BENCH_HISTORY.jsonl`` at the repo root, checked in)
  with one entry per ``(git_sha, bench)`` pair — re-running a bench at
  the same commit *replaces* its entry instead of appending a duplicate;
* each entry wraps the bench's ``emit_json`` payload (``results`` plus
  the attribution stamps ``host`` / ``repro_version`` / ``git_sha``);
* :class:`Gate` rules that fail the trajectory when a tracked metric
  falls past its absolute floor/ceiling **or** drifts beyond a tolerance
  against the trailing same-host median — drift across different hosts
  is machine noise, never a regression.

``repro bench`` runs the suites, appends entries and gates; ``repro
bench --check`` replays the gates over the checked-in history (the CI
step).  Entry schema (one JSON object per line)::

    {"format": "repro-bench-history/1", "bench": "kernels",
     "git_sha": "<full sha or 'unknown'>", "host": "...",
     "repro_version": "1.9.0", "bench_format": "repro-bench/kernels/1",
     "results": {...}}                  # the emit_json results verbatim
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass

__all__ = ["HISTORY_FORMAT", "SUITES", "HistoryError", "Gate",
           "DEFAULT_GATES", "git_sha", "entry_from_payload",
           "load_history", "append_entry", "resolve_metric",
           "check_gates", "format_trend"]

#: Schema tag every ledger line carries.
HISTORY_FORMAT = "repro-bench-history/1"

#: Bench suites the ledger tracks: name -> bench module filenames, run
#: in order.  Each script's ``emit_json`` writes (or merges into)
#: ``BENCH_<name>.json`` next to the benchmarks directory; ``repro
#: bench`` ledgers the combined payload after the last script.  The
#: training suite is two scripts: the per-step projection kernel bench
#: plus the whole-epoch training-kernel bench (PR 9), both landing in
#: ``BENCH_training.json``.
SUITES: dict[str, tuple[str, ...]] = {
    "kernels": ("bench_kernels_backends.py",),
    "simulator": ("bench_simulator_backends.py",),
    "training": ("bench_training_projection.py",
                 "bench_training_epoch.py"),
    "obs": ("bench_obs_overhead.py",),
    "faults": ("bench_faults_resiliency.py",),
}


class HistoryError(ValueError):
    """The ledger file does not match ``repro-bench-history/1``."""


def git_sha(cwd: str | None = None) -> str:
    """The commit to attribute a bench run to.

    ``GIT_COMMIT`` (CI convention) wins, then ``git rev-parse HEAD``,
    then ``"unknown"`` — never an exception.  The value is attribution
    metadata only; it must stay out of every cache key (RPR001/RPR002
    territory ends where the ledger begins).
    """
    sha = os.environ.get("GIT_COMMIT", "").strip()
    if sha:
        return sha
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0 or not proc.stdout.strip():
        return "unknown"
    return proc.stdout.strip()


def entry_from_payload(bench: str, payload: dict,
                       sha: str | None = None) -> dict:
    """Wrap one ``BENCH_<bench>.json`` payload as a ledger entry."""
    if "results" not in payload:
        raise HistoryError(f"bench payload for {bench!r} has no 'results'")
    return {
        "format": HISTORY_FORMAT,
        "bench": bench,
        "git_sha": sha or payload.get("git_sha") or git_sha(),
        "host": payload.get("host", "unknown"),
        "repro_version": payload.get("repro_version", "unknown"),
        "bench_format": payload.get("format"),
        "results": payload["results"],
    }


# ----------------------------------------------------------------------
# ledger file
# ----------------------------------------------------------------------
def load_history(path: str) -> list[dict]:
    """Parse the ledger; a missing file is an empty history."""
    entries: list[dict] = []
    try:
        handle = open(path)
    except FileNotFoundError:
        return entries
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as error:
                raise HistoryError(
                    f"{path}:{lineno}: not valid JSON: {error}") from None
            if entry.get("format") != HISTORY_FORMAT:
                raise HistoryError(
                    f"{path}:{lineno}: expected format {HISTORY_FORMAT!r},"
                    f" got {entry.get('format')!r}")
            for key in ("bench", "git_sha", "results"):
                if key not in entry:
                    raise HistoryError(
                        f"{path}:{lineno}: entry missing {key!r}")
            entries.append(entry)
    return entries


def append_entry(path: str, entry: dict) -> list[dict]:
    """Append *entry*, replacing any prior ``(git_sha, bench)`` twin.

    Returns the new history.  The rewrite goes through a temp file +
    atomic rename so a crashed bench run never truncates the ledger.
    """
    if entry.get("format") != HISTORY_FORMAT:
        raise HistoryError(f"entry is not {HISTORY_FORMAT!r}: {entry}")
    key = (entry["git_sha"], entry["bench"])
    entries = [e for e in load_history(path)
               if (e["git_sha"], e["bench"]) != key]
    entries.append(entry)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        for line_entry in entries:
            handle.write(json.dumps(line_entry, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return entries


def resolve_metric(results: dict, dotted: str):
    """Walk ``a.b.c`` into a results dict; ``None`` when absent."""
    node = results
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Gate:
    """One tracked metric: an absolute bound plus a drift tolerance.

    ``floor`` means higher-is-better (speedups), ``ceiling`` means
    lower-is-better (overhead percentages); exactly one of the two also
    fixes the direction the drift check guards.  Drift compares the
    latest entry against the median of the previous ``window`` entries
    *from the same host* and fails when it is worse by more than
    ``tolerance_pct``.
    """

    bench: str
    metric: str                     # dotted path inside entry["results"]
    floor: float | None = None
    ceiling: float | None = None
    tolerance_pct: float = 30.0
    window: int = 5

    def __post_init__(self) -> None:
        if (self.floor is None) == (self.ceiling is None):
            raise ValueError(
                f"gate {self.bench}/{self.metric}: set exactly one of "
                f"floor/ceiling (it also fixes the drift direction)")
        if self.tolerance_pct <= 0:
            raise ValueError("tolerance_pct must be > 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def higher_is_better(self) -> bool:
        return self.floor is not None


#: The repo's tracked trajectory: the same metrics the CI smoke jobs
#: floor-check on single snapshots, now gated over their history.
DEFAULT_GATES: tuple[Gate, ...] = (
    Gate("kernels", "dense_mlp_8b_asm2.speedup", floor=3.0),
    Gate("simulator", "dense_400x120_8b_asm2.speedup", floor=20.0),
    Gate("training", "mlp_1024x100x10_8b_asm2.speedup", floor=3.0),
    Gate("training", "train_epoch_mlp_8b.speedup", floor=2.0),
    Gate("obs", "overhead_pct", ceiling=1.0),
    Gate("faults", "min_clean_accuracy", floor=0.70),
    # ASM designs must degrade no more than ~3pp beyond conventional at
    # matched fault rates; pp excesses are tiny and noisy at the tiny
    # budget, so the drift tolerance is wide and the ceiling does the work.
    Gate("faults", "worst_excess_degradation_pp", ceiling=3.0,
         tolerance_pct=400.0),
)


@dataclass(frozen=True)
class Violation:
    """One failed gate, printable as a single line."""

    bench: str
    metric: str
    kind: str                       # floor | ceiling | drift | missing
    message: str

    def render(self) -> str:
        return f"{self.bench}.{self.metric}: {self.kind} — {self.message}"


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_gates(entries: list[dict],
                gates: tuple[Gate, ...] = DEFAULT_GATES) -> list[Violation]:
    """Every gate violation in *entries* (empty means the ledger is ok).

    A bench with no entries passes vacuously (suites run selectively);
    a gated metric missing from the latest entry of a tracked bench is
    itself a violation — silently losing a tracked metric is exactly the
    regression-shaped hole this ledger exists to close.
    """
    violations: list[Violation] = []
    for gate in gates:
        tracked = [e for e in entries if e["bench"] == gate.bench]
        if not tracked:
            continue
        latest = tracked[-1]
        value = resolve_metric(latest["results"], gate.metric)
        if value is None:
            violations.append(Violation(
                gate.bench, gate.metric, "missing",
                f"latest entry ({latest['git_sha'][:12]}) does not carry "
                f"the tracked metric"))
            continue
        if gate.floor is not None and value < gate.floor:
            violations.append(Violation(
                gate.bench, gate.metric, "floor",
                f"{value:g} fell below the floor {gate.floor:g} "
                f"at {latest['git_sha'][:12]}"))
        if gate.ceiling is not None and value > gate.ceiling:
            violations.append(Violation(
                gate.bench, gate.metric, "ceiling",
                f"{value:g} exceeded the ceiling {gate.ceiling:g} "
                f"at {latest['git_sha'][:12]}"))
        prior = [resolve_metric(e["results"], gate.metric)
                 for e in tracked[:-1]
                 if e.get("host") == latest.get("host")]
        prior = [v for v in prior if v is not None][-gate.window:]
        if not prior:
            continue
        baseline = _median(prior)
        if baseline == 0:
            continue
        if gate.higher_is_better:
            drift_pct = 100.0 * (baseline - value) / baseline
        else:
            drift_pct = 100.0 * (value - baseline) / baseline
        if drift_pct > gate.tolerance_pct:
            violations.append(Violation(
                gate.bench, gate.metric, "drift",
                f"{value:g} is {drift_pct:.1f}% worse than the trailing "
                f"same-host median {baseline:g} (tolerance "
                f"{gate.tolerance_pct:g}%, window {len(prior)})"))
    return violations


def format_trend(entries: list[dict],
                 gates: tuple[Gate, ...] = DEFAULT_GATES,
                 last: int = 8) -> str:
    """The tracked metrics' trajectories as an aligned text table."""
    lines = [f"{'gate':<44} {'bound':>10} {'trend (oldest -> latest)'}",
             "-" * 92]
    for gate in gates:
        tracked = [e for e in entries if e["bench"] == gate.bench]
        values = [(e["git_sha"][:8],
                   resolve_metric(e["results"], gate.metric))
                  for e in tracked[-last:]]
        bound = (f">={gate.floor:g}" if gate.floor is not None
                 else f"<={gate.ceiling:g}")
        if values:
            trend = "  ".join(
                f"{sha}:{'?' if value is None else format(value, 'g')}"
                for sha, value in values)
        else:
            trend = "(no entries)"
        lines.append(f"{gate.bench + '.' + gate.metric:<44} "
                     f"{bound:>10} {trend}")
    return "\n".join(lines)
