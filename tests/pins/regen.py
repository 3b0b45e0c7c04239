"""Rewrite ``tests/pins/manifest.json`` from the current source.

Run from the repository root::

    python tests/pins/regen.py

This is the only writer of the manifest; the tier-1 test only reads it.
A change that moves a pin regenerates the manifest and lists every moved
entry, and why it moved, in CHANGES.md (the script prints them).  Run it
on Python >= 3.11: older interpreters cannot compute the TOML config
entries, and the script refuses rather than drop them.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pinning  # noqa: E402


def main() -> int:
    if not pinning.has_tomllib():
        print("regen.py needs Python >= 3.11 (tomllib) to pin the TOML "
              "configs", file=sys.stderr)
        return 2
    pins, mismatches = pinning.compute()
    if mismatches:
        print("refusing to pin a tree that breaks its own invariants:",
              file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    old = pinning.load_manifest() if os.path.exists(pinning.MANIFEST) \
        else {}
    for name in sorted(set(old) | set(pins)):
        if old.get(name) != pins.get(name):
            state = ("new" if name not in old else
                     "gone" if name not in pins else "moved")
            print(f"{state}: {name}")
    with open(pinning.MANIFEST, "w") as handle:
        json.dump({"pins": dict(sorted(pins.items()))}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(pins)} pins to {os.path.relpath(pinning.MANIFEST)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
