"""Golden CLI outputs: every ``--out`` file and every stdout of a fixed command list stays equal.

``CASES`` is the single command list. Each case runs ``wlansat`` in-process
into a fresh directory, and every file it writes is compared with the stored
copy under ``tests/golden/<case>/``: CSV, text and event files byte for byte,
JSON parsed and compared with ``==`` (floats exactly, key order ignored).
Each case of ``STDOUT_CASES`` (``CASES`` plus ``bianchi``, which writes no
files) runs again without ``--out``, and its stdout is compared byte for byte
with ``tests/golden/stdout/<case>.txt``.

A change that alters an output on purpose regenerates the stored copies with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. ``tests/golden/unequal.json`` is an input: a
scenario with 1 to 16 nodes per WLAN, so the WLANs have unequal theta and the
order of the product-form multiplications shows in the last digit.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from wlansat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
STDOUT = GOLDEN / "stdout"
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
STDOUT_CASES = {**CASES, "bianchi": ("bianchi", "--n-total", "48", "--cw-min", "32", "--m", "5")}


def run_case(case: str, out: Path) -> None:
    argv = [arg.replace("{out}", str(out)) for arg in CASES[case]]
    assert main([*argv, "--out", str(out)]) == 0


def run_stdout(case: str, scratch: Path) -> bytes:
    """The case's stdout without ``--out``; an ``--events`` file goes to ``scratch``."""
    argv = [arg.replace("{out}", str(scratch)) for arg in STDOUT_CASES[case]]
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        assert main(argv) == 0
    return captured.getvalue().encode("utf-8")


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


@pytest.mark.parametrize("case", sorted(STDOUT_CASES))
def test_stdout_equals_golden(case, tmp_path):
    assert run_stdout(case, tmp_path) == (STDOUT / f"{case}.txt").read_bytes()


def regenerate() -> None:
    """Rewrite every ``tests/golden/<case>/`` and ``tests/golden/stdout/`` from the current code."""
    for case in CASES:
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        run_case(case, target)
        print(f"{case}: {', '.join(sorted(p.name for p in target.iterdir()))}", file=sys.stderr)
    shutil.rmtree(STDOUT, ignore_errors=True)
    STDOUT.mkdir()
    for case in STDOUT_CASES:
        with tempfile.TemporaryDirectory() as scratch:
            (STDOUT / f"{case}.txt").write_bytes(run_stdout(case, Path(scratch)))
    print(f"stdout: {len(STDOUT_CASES)} cases", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
