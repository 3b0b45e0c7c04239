"""Cross-commit behaviour pins: recompute every digest and compare.

A failure names every entry that moved.  If the move is intended,
regenerate with ``python tests/pins/regen.py`` and list each moved entry
and its reason in CHANGES.md; otherwise the change broke behaviour that
no other test sees (both backends moving together, a re-keyed cache).
"""

from __future__ import annotations

import pinning


def _state(name: str, expected: dict, actual: dict) -> str:
    if name not in expected:
        return "new"
    return "gone" if name not in actual else "moved"


def test_behaviour_pins_unchanged():
    expected = pinning.load_manifest()
    if not pinning.has_tomllib():
        expected = {name: digest for name, digest in expected.items()
                    if not pinning.is_toml_entry(name)}
    actual, mismatches = pinning.compute()
    moved = [f"{name} ({_state(name, expected, actual)})"
             for name in sorted(set(expected) | set(actual))
             if expected.get(name) != actual.get(name)]
    assert not moved, (f"{len(moved)} behaviour pin(s) moved:\n  "
                       + "\n  ".join(moved))
    assert not mismatches, "\n".join(mismatches)


def test_manifest_covers_every_entry_kind():
    names = pinning.load_manifest()
    for prefix in ("forward/", "artifact/", "table/effective/",
                   "table/constrainer/", "toggles/", "neuron/", "engine/",
                   "served_energy/", "rtl/asm_mac/",
                   "rtl/conventional_mac/", "rtl/precompute_bank/",
                   "config/digits_ladder.toml/stage/constrain",
                   "config/digits_explore.toml/digest"):
        assert any(name.startswith(prefix) for name in names), prefix
