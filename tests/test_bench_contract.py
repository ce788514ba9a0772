"""The benchmark tracer's contract with the library.

``perfbench/spans.py`` patches library functions at the call sites listed in
its ``CALL_SITES`` (entering a ``Tracer`` fails if one no longer resolves) and
reads its counters from their arguments and results:
``len(report.records)`` for transitions, positions 0 and 1 of
``run_kernel``'s return tuple for attempts. The module is executed from its
source, so nothing under ``perfbench/`` is imported as a package or written.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

from wlansat import SimConfig, sim, throughput

from conftest import grid3x3, path3

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip("perfbench/ is absent")
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_analyze_counts(spans):
    with spans.Tracer() as tracer:
        report = throughput.analyze(grid3x3())
    metrics = tracer.layer_metrics(passes=1, speed=1.0)
    assert metrics["throughput.gamma_factor.calls"] == (46, "count")
    # one solve per distinct pool size k_nodes + n_nodes
    assert metrics["bianchi.solve_fixed_point.calls"] == (5, "count")
    assert metrics["throughput.transitions"] == (152, "count")
    assert len(report.records) == 152


def test_traced_simulate_counts(spans):
    config = SimConfig(path3(4), duration=2.0, warmup=0.5, seed=3, replications=3)
    with spans.Tracer() as tracer:
        result = sim.simulate(config)
    metrics = tracer.layer_metrics(passes=1, speed=1.0)
    attempts = sum(result.successes.values()) + sum(result.collisions.values())
    assert attempts > 0
    assert metrics["sim.attempts"] == (attempts, "count")
    assert metrics["sim.run_kernel.calls"] == (config.replications, "count")
