#!/usr/bin/env python3
"""wlansat benchmark: time one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload analyze-mesh --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy, and nothing is built. With
``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans are
also written to ``perfbench/out/``. ``--smoke`` shrinks every workload so that
all of them, with all their checks, finish in seconds.

Times are calibrated: pass times are scaled by the speed at which the
interpreter ran a fixed pure-Python loop alongside them (see :func:`calibrate`),
set-up times by the time a fresh interpreter took to import numpy right after
each (see :class:`SetupProbes`).

Exit status: 0 when a result was printed (its ``correct`` field says whether
every output passed its checks), 2 when ``src/wlansat`` cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import NamedTuple
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("analyze-mesh", "states-wide", "sweep-cw")
DEFAULT_SEED = 1
SETUP_PROBES = 9  # fresh-interpreter set-up probes per run, spread over its measured calls
CALIBRATION_SAMPLES = 2  # calibration loops before a pass and after each of its calls
CALIBRATION_REF_S = 0.005  # the calibration loop's time at reference speed
GAUGE_REF_S = 0.13  # a fresh interpreter's numpy import time at reference speed


def import_wlansat():
    """Import ``wlansat`` from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wlansat
    except ImportError as exc:
        print(f"perfbench: cannot import wlansat from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(wlansat.__file__).resolve().is_relative_to(src):
        print(f"perfbench: wlansat was imported from {wlansat.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return wlansat


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, a gauge of the interpreter's current speed.

    On a shared machine the same code runs up to 1.7 times slower for tens of
    seconds at a time. Timings are scaled by the speed this loop measures over
    the same span, relative to ``CALIBRATION_REF_S``.
    """
    start = perf_counter()
    acc, seen = 0.0, {}
    for i in range(15_000):
        x = (i * 2654435761) & 0xFFFF
        seen[x & 255] = seen.get(x & 255, 0) + 1
        acc += math.sqrt(x)
    return perf_counter() - start


def calibration() -> list[float]:
    return [calibrate() for _ in range(CALIBRATION_SAMPLES)]


def speed(samples: list[float]) -> float:
    """Interpreter speed relative to the reference, from calibration samples.

    The mean, not the median: a slowdown stretches a timed call by its average
    over the call, and the mean loop time averages it over the same span.
    """
    return CALIBRATION_REF_S / statistics.mean(samples)


class SetupProbes:
    """Set-up time of fresh interpreters, probed at even steps through the measured calls.

    Each probe starts a new interpreter that imports wlansat and builds the
    workload's inputs, then a second one that only imports numpy, the gauge.
    Set-up is start-up and imports: file reads, unmarshalling, extension
    loading. A busy machine slows those by another factor than it slows
    pure-Python loops, so set-up is scaled by the gauge, taken right after it,
    and not by :func:`calibrate`. Nothing in wlansat can move the gauge.
    """

    GAUGE = [sys.executable, "-c", "from time import perf_counter as c; t = c(); import numpy; print(c() - t)"]

    def __init__(self, args, seconds: float) -> None:
        self.cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.cmd.append("--smoke")
        self.every = seconds / SETUP_PROBES
        self.measured = 0.0
        self.times: list[float] = []
        self.gauges: list[float] = []

    def probe(self) -> None:
        for cmd, times in ((self.cmd, self.times), (self.GAUGE, self.gauges)):
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
            times.append(float(done.stdout))

    def after_call(self, seconds: float) -> None:
        """Count one timed call; probe once more for each step of measured time it completes."""
        self.measured += seconds
        while len(self.times) < SETUP_PROBES and self.measured >= (len(self.times) + 0.5) * self.every:
            self.probe()

    def calibrated(self) -> float:
        """Median set-up time at the reference gauge time, after any probes the run ended before."""
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return GAUGE_REF_S * statistics.median(t / g for t, g in zip(self.times, self.gauges))


def environment(wlansat) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "kernel_backend": wlansat.kernel_backend(),
        "machine": platform.machine(),
    }


def same(got, want, where: str = "") -> list[str]:
    """Differences between an output and the stored reference.

    Floats are analytic outputs and must agree to a relative 1e-12; every
    other value (counts, simulator CSV fields) must be identical.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [e for k in want for e in same(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items, reference has {len(want)}"]
        return [e for k, (g, w) in enumerate(zip(got, want)) for e in same(g, w, f"{where}/{k}")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


class Pass(NamedTuple):
    """Wall time of each call in one pass, and the calibration samples taken around them."""

    times: list[float]
    samples: list[float]

    @property
    def seconds(self) -> float:
        return sum(self.times)


def calibrated(passes: list[Pass]) -> tuple[list[float], float]:
    """Each pass's wall time at reference speed, and the mean of them.

    One speed, from every calibration sample of the run, scales every pass.
    """
    factor = speed([x for p in passes for x in p.samples])
    wall = [p.seconds * factor for p in passes]
    return wall, statistics.mean(wall)


def run_pass(workload, after_call=None):
    """One pass of ``workload``: its output and its timings.

    The calibration loop runs before the first call and after each call,
    outside the calls' timed regions; so does ``after_call``, given each
    call's time.
    """
    steps = workload.run()
    timing = Pass([], calibration())
    start = perf_counter()
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value, timing
        timing.times.append(perf_counter() - start)
        timing.samples.extend(calibration())
        if after_call is not None:
            after_call(timing.times[-1])
        start = perf_counter()


class Runner:
    """Runs passes of one workload, checks each output and keeps the tally."""

    def __init__(self, workload, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, tracer=None, after_call=None) -> Pass | None:
        """One checked pass; its timings, or None if it raised."""
        self.attempted += 1
        try:
            with tracer or contextlib.nullcontext():
                output, timing = run_pass(self.workload, after_call)
            errors = self.workload.check(output)
            if self.reference is not None:
                errors += same(self.workload.reference(output), self.reference, "reference")
        except Exception:  # a failing call is counted and reported, the run goes on
            timing = None
            errors = [traceback.format_exc(limit=3)]
        output = None  # release this pass's results before the next one starts
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        return timing

    def timed(self, seconds: float, tracer=None, after_call=None) -> list[Pass]:
        """Timings of each pass, repeating passes until ``seconds`` of calls are measured."""
        passes: list[Pass] = []
        spent = 0.0
        while spent < seconds or not passes:
            start = perf_counter()
            timing = self.attempt(tracer, after_call)
            spent += perf_counter() - start if timing is None else timing.seconds
            if timing is not None:
                passes.append(timing)
            elif spent >= seconds:
                sys.exit("perfbench: every pass raised:\n" + "\n".join(self.errors))
        return passes


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its level.

    With fewer than 20 samples that percentile would not lie above the
    median, so the maximum is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 1.0
    return ordered[n - 11], (n - 10) / n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: every workload and check in seconds")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the default-seed reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        start = perf_counter()
        import_wlansat()
        import workloads

        workloads.make(args.workload, args.seed, args.smoke, str(OUT))
        print(perf_counter() - start)
        return 0

    wlansat = import_wlansat()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    size = "smoke" if args.smoke else "full"
    ref_key = f"{args.workload}/{size}"
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            parser.error(f"references are stored for --seed {DEFAULT_SEED} only")
        workload = workloads.make(args.workload, args.seed, args.smoke, str(OUT))
        output, _timing = run_pass(workload)
        errors = workload.check(output)
        if errors:
            sys.exit("perfbench: not storing a reference that fails its checks:\n" + "\n".join(errors))
        stored[ref_key] = workload.reference(output)
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    if args.seed == DEFAULT_SEED and ref_key not in stored:
        sys.exit(f"perfbench: no stored reference for {ref_key}")

    # Warm-up pass on the smoke-sized inputs: lazy imports and first calls happen here.
    runner = Runner(workloads.make(args.workload, args.seed, True, str(OUT)), None)
    runner.attempt()
    runner.workload = workloads.make(args.workload, args.seed, args.smoke, str(OUT))
    runner.reference = stored[ref_key] if args.seed == DEFAULT_SEED else None

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if args.trace == 0:
        probes = SetupProbes(args, args.seconds)
        passes = runner.timed(args.seconds, after_call=probes.after_call)
        setup_s = probes.calibrated()
        timings = {"passes": passes, "setup_probes": probes.times, "setup_gauges": probes.gauges}
        wall, wall_s = calibrated(passes)
        tail_s, tail_q = tail(wall)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_share": (1.0 - runner.failed / runner.attempted, "share"),
        }
        raw = [p.seconds for p in passes]
        summary = (
            f"n={len(passes)} passes of {len(passes[0].times)} calls; calibrated pass time: "
            f"mean {wall_s:.4f} s, median {statistics.median(wall):.4f} s, p{100 * tail_q:.1f} {tail_s:.4f} s; "
            f"measured: median {statistics.median(raw):.4f} s, min {min(raw):.4f} s; "
            f"interpreter speed {wall_s / statistics.mean(raw):.3f} of reference; "
            f"set-up: {len(probes.times)} probes, measured median {statistics.median(probes.times):.4f} s, "
            f"gauge median {statistics.median(probes.gauges):.4f} s"
        )
    else:
        plain = runner.timed(args.seconds / 2)
        tracer = spans.Tracer()
        traced = runner.timed(args.seconds / 2, tracer)
        timings = {"untraced": plain, "traced": traced}
        traced_speed = speed([x for p in traced for x in p.samples])
        metrics = tracer.layer_metrics(len(traced), traced_speed)
        metrics["trace.overhead_s"] = (calibrated(traced)[1] - calibrated(plain)[1], "s")
        tracer.dump(str(OUT / f"spans-{label}.json"))
        summary = (
            f"n={len(plain)} untraced and {len(traced)} traced passes, "
            f"interpreter speed {traced_speed:.3f} of reference"
        )

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(wlansat)
    (OUT / f"result-{label}.json").write_text(
        json.dumps({"env": env, "summary": summary, "errors": runner.errors, **result, "timings": timings}) + "\n",
        encoding="utf-8",
    )
    for error in runner.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(f"{label}: {summary}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
