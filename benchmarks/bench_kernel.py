#!/usr/bin/env python3
"""Benchmark the compiled simulation kernel against the pure-Python one.

Runs identical replications (same derived seeds, bit-identical results) of a
few representative workloads on every built kernel and reports the time each
took plus the speedup.

    python3 benchmarks/bench_kernel.py [--duration 60] [--reps 3]
"""

from __future__ import annotations

import argparse
import time

from wlansat import SimConfig, bundled_scenario, with_cw_min, with_n_nodes
from wlansat.sim import _engine, _kernel_args, derive_seeds

try:
    from wlansat.sim import _engine_c
except ImportError:  # extension not built: time the pure-Python kernel alone
    _engine_c = None

WORKLOADS = [
    ("triangle, N=16, cw=32", lambda: with_n_nodes(bundled_scenario("i"), 16)),
    ("line x5, N=16, cw=32", lambda: with_n_nodes(bundled_scenario("iii"), 16)),
    ("line x5, N=16, cw=16", lambda: with_cw_min(with_n_nodes(bundled_scenario("iii"), 16), 16)),
    ("line x3, N=1, cw=8192", lambda: with_cw_min(with_n_nodes(bundled_scenario("ii"), 1), 8192)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()

    kernels = {"python": _engine} if _engine_c is None else {"c": _engine_c, "python": _engine}
    print(f"kernels: {', '.join(kernels)}   duration: {args.duration}s x {args.reps} reps")
    header = f"{'workload':<26} " + " ".join(f"{name + ' (s)':>12}" for name in kernels)
    if len(kernels) == 2:
        header += f" {'speedup':>9} {'identical':>10}"
    print(header)

    for label, build in WORKLOADS:
        config = SimConfig(build(), duration=args.duration, warmup=1.0, seed=7, replications=args.reps)
        kernel_args = _kernel_args(config)
        seeds = derive_seeds(config.seed, config.replications)
        timings = {}
        outputs = {}
        for name, kernel in kernels.items():
            start = time.perf_counter()
            outputs[name] = [kernel.run_kernel(*kernel_args, seed, False) for seed in seeds]
            timings[name] = time.perf_counter() - start
        row = f"{label:<26} " + " ".join(f"{timings[name]:>12.3f}" for name in kernels)
        if len(kernels) == 2:
            row += f" {timings['python'] / timings['c']:>8.1f}x"
            row += f" {str(outputs['c'] == outputs['python']):>10}"
        print(row)


if __name__ == "__main__":
    main()
