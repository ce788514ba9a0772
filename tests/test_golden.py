"""Golden CLI outputs: every ``--out`` file of a fixed command list stays equal.

``CASES`` is the single command list. Each case runs ``wlansat`` in-process
into a fresh directory, and every file it writes is compared with the stored
copy under ``tests/golden/<case>/``: CSV, text and event files byte for byte,
JSON parsed and compared with ``==`` (floats exactly, key order ignored).

A change that alters an output on purpose regenerates the stored copies with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. ``tests/golden/unequal.json`` is an input: a
scenario with 1 to 16 nodes per WLAN, so the WLANs have unequal theta and the
order of the product-form multiplications shows in the last digit.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from wlansat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
UNEQUAL = str(GOLDEN / "unequal.json")

_SIM = ("--duration", "3", "--warmup", "0.5", "--reps", "2")
_SWEEP = ("--values", "16,64", "--modes", "full,dominant,ctmc,sim", "--duration", "2", "--warmup", "0.5", "--reps", "2")

# case name -> CLI arguments; "{out}" stands for the case's output directory
CASES: dict[str, tuple[str, ...]] = {
    **{
        f"analyze-{name}-{mode}-{coll}": ("analyze", name, *mode_flags, *coll_flags)
        for name in ("i", "ii", "iii")
        for mode, mode_flags in (("full", ()), ("dominant", ("--dominant",)))
        for coll, coll_flags in (("collisions", ()), ("blind", ("--no-collisions",)))
    },
    **{f"states-{name}": ("states", name) for name in ("i", "ii", "iii")},
    "analyze-unequal": ("analyze", UNEQUAL),
    "states-unequal": ("states", UNEQUAL),
    "gamma-curve": ("gamma-curve", "--n-max", "8"),
    "simulate-ii": ("simulate", "ii", "--seed", "7", *_SIM, "--events", "{out}/events.csv"),
    "sweep-iii": ("sweep", "iii", *_SWEEP),
}


def run_case(case: str, out: Path) -> None:
    argv = [arg.replace("{out}", str(out)) for arg in CASES[case]]
    assert main([*argv, "--out", str(out)]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_equal_golden(case, tmp_path):
    run_case(case, tmp_path)
    expected = GOLDEN / case
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in expected.iterdir())
    for stored in sorted(expected.iterdir()):
        got = tmp_path / stored.name
        if stored.suffix == ".json":
            assert json.loads(got.read_text("utf-8")) == json.loads(stored.read_text("utf-8")), stored.name
        else:
            assert got.read_bytes() == stored.read_bytes(), stored.name


def regenerate() -> None:
    """Rewrite every ``tests/golden/<case>/`` from the current code."""
    for case in CASES:
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        run_case(case, target)
        print(f"{case}: {', '.join(sorted(p.name for p in target.iterdir()))}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
