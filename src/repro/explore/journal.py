"""Resumable, order-independent exploration journals.

A journal is a directory::

    <journal>/
      space.json              # the SearchSpace + its digest (written once)
      records/<digest>.json   # one file per evaluated candidate
      report.json             # the final ExplorationReport (overwritten)

Records are keyed by the candidate's *config digest* and contain nothing
order- or timing-dependent, so the journal a parallel exploration leaves
behind is byte-identical to a serial one (same set of files, same
contents) — the property the tier-1 tests pin down.  Resuming is just
"skip every candidate whose record file already exists", which also
means a finished exploration re-runs with 100% journal hits.

All writes are atomic (temp + rename) via the same helper the pipeline
stage cache uses, so concurrent explorers sharing a journal directory
cannot corrupt it.
"""

from __future__ import annotations

import json
import os
import sys

from repro import obs
from repro.explore.space import SearchSpace, SearchSpaceError
from repro.utils.serialization import atomic_write_json

__all__ = ["JournalError", "ExplorationJournal", "load_space",
           "list_journals", "RECORD_FORMAT", "FAILED_STATUS"]

_JOURNAL_FORMAT = 1

#: Candidate-record schema version; bump when the metric axes change so
#: resumes re-evaluate instead of surfacing stale records.
RECORD_FORMAT = 1

#: ``record["status"]`` of a quarantined candidate: the executor
#: exhausted its retries and journaled a typed failure record instead
#: of metrics.  Resumed runs skip these; reports count them separately.
FAILED_STATUS = "failed"


class JournalError(RuntimeError):
    """A journal directory cannot be used (foreign space or bad files)."""


class ExplorationJournal:
    """Per-candidate record store for one :class:`SearchSpace`."""

    def __init__(self, root: str, space: SearchSpace) -> None:
        self.root = root
        self.space = space
        self.records_dir = os.path.join(root, "records")

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, root: str, space: SearchSpace) -> "ExplorationJournal":
        """Create (or re-open) the journal of *space* at *root*.

        Re-opening with a different search space is an error — a journal
        belongs to exactly one space; pick a new directory (or delete the
        old one) to explore something else.
        """
        space_path = os.path.join(root, "space.json")
        if os.path.exists(space_path):
            try:
                with open(space_path) as handle:
                    header = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise JournalError(
                    f"unreadable journal header {space_path}: {error}")
            if header.get("space_digest") != space.digest():
                raise JournalError(
                    f"journal {root} belongs to a different search space "
                    f"(digest {header.get('space_digest', '?')[:12]} != "
                    f"{space.digest()[:12]}); use a fresh --journal "
                    f"directory")
        else:
            os.makedirs(root, exist_ok=True)
            atomic_write_json(space_path, {
                "format": _JOURNAL_FORMAT,
                "space": space.to_dict(),
                "space_digest": space.digest(),
            })
        journal = cls(root, space)
        os.makedirs(journal.records_dir, exist_ok=True)
        return journal

    # ------------------------------------------------------------------
    def _record_path(self, digest: str) -> str:
        return os.path.join(self.records_dir, f"{digest}.json")

    def has(self, digest: str) -> bool:
        return os.path.exists(self._record_path(digest))

    def load_record(self, digest: str) -> dict | None:
        """The stored record of candidate *digest*, or ``None``.

        A record from an older :data:`RECORD_FORMAT` is a miss — the
        candidate re-evaluates rather than resuming with stale axes.
        A *corrupt or truncated* record file (crashed writer, torn
        disk) is also a miss, but a logged one: the candidate silently
        re-evaluates and the rewrite heals the journal, instead of one
        bad file killing the whole resume.
        """
        path = self._record_path(digest)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            print(f"warning: skipping corrupt journal record {path} "
                  f"({type(error).__name__}: {error}); re-evaluating",
                  file=sys.stderr)
            if obs.enabled():
                obs.registry().counter("explore.corrupt_records").inc()
            return None
        if not isinstance(record, dict) \
                or record.get("config_digest") != digest \
                or record.get("format") != RECORD_FORMAT:
            return None
        return record

    def write_record(self, record: dict) -> str:
        """Persist one candidate record (atomic; keyed by config digest)."""
        return atomic_write_json(
            self._record_path(record["config_digest"]), record)

    def record_digests(self) -> set[str]:
        try:
            names = os.listdir(self.records_dir)
        except OSError:
            return set()
        return {name[:-len(".json")] for name in names
                if name.endswith(".json")}

    # ------------------------------------------------------------------
    def write_report(self, report_dict: dict) -> str:
        return atomic_write_json(
            os.path.join(self.root, "report.json"), report_dict)


def load_space(journal_root: str) -> SearchSpace:
    """The :class:`SearchSpace` a journal directory was opened for."""
    space_path = os.path.join(journal_root, "space.json")
    try:
        with open(space_path) as handle:
            header = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise JournalError(
            f"not an exploration journal ({space_path}: {error})")
    try:
        return SearchSpace.from_dict(header["space"])
    except (KeyError, SearchSpaceError) as error:
        raise JournalError(f"corrupt journal header {space_path}: {error}")


def list_journals(explore_dir: str) -> list[dict]:
    """Summaries of the journals under *explore_dir*, sorted by name.

    Each summary has the journal path, space name/app/strategy, how many
    records exist and whether a report has been reduced yet.
    """
    summaries = []
    try:
        names = sorted(os.listdir(explore_dir))
    except OSError:
        return []
    for name in names:
        root = os.path.join(explore_dir, name)
        space_path = os.path.join(root, "space.json")
        if not os.path.isfile(space_path):
            continue
        try:
            with open(space_path) as handle:
                header = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        space = header.get("space", {})
        try:
            records = len([n for n in os.listdir(
                os.path.join(root, "records")) if n.endswith(".json")])
        except OSError:
            records = 0
        summaries.append({
            "path": root,
            "name": space.get("name", name),
            "app": space.get("app", "?"),
            "strategy": space.get("strategy", "?"),
            "records": records,
            "has_report": os.path.isfile(os.path.join(root, "report.json")),
        })
    return summaries
