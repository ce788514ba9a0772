"""In-memory span tracer that wraps wlansat's public functions from outside.

Each layer function is replaced, for the duration of a ``with tracer:`` block,
at every module attribute through which the library calls it. ``throughput``
and ``cli`` import ``solve_fixed_point``, ``analyze`` and ``simulate`` by name,
so those names are patched in the importing module as well as in the defining
one; ``run_kernel`` is looked up on the kernel module at each call. Nothing
under ``src/`` is modified.

A span is ``(id, parent_id, name, start_ns, end_ns)``; ``parent_id`` is -1 for
a call made directly by the benchmark. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name): every place a layer function is looked up.
CALL_SITES = (
    ("wlansat.bianchi", "solve_fixed_point", "bianchi.solve_fixed_point"),
    ("wlansat.throughput", "solve_fixed_point", "bianchi.solve_fixed_point"),
    ("wlansat.cli", "solve_fixed_point", "bianchi.solve_fixed_point"),
    ("wlansat.throughput", "analyze", "throughput.analyze"),
    ("wlansat.cli", "analyze", "throughput.analyze"),
    ("wlansat.throughput", "gamma_factor", "throughput.gamma_factor"),
    ("wlansat.throughput", "contender_set", "throughput.contender_set"),
    ("wlansat.throughput", "dominant_closure", "throughput.dominant_closure"),
    ("wlansat.ctmc", "enumerate_states", "ctmc.enumerate_states"),
    ("wlansat.ctmc", "stationary_product_form", "ctmc.stationary_product_form"),
    ("wlansat.ctmc", "dominant_states", "ctmc.dominant_states"),
    ("wlansat.ctmc", "occupancy_mass", "ctmc.occupancy_mass"),
    ("wlansat.sim", "simulate", "sim.simulate"),
    ("wlansat.cli", "simulate", "sim.simulate"),
    ("wlansat.sim._engine", "run_kernel", "sim.run_kernel"),
    ("wlansat.cli", "main", "cli.main"),
)


class Tracer:
    """Collects spans and per-span counters while active (``with tracer:``)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.fixed_point_keys: set[tuple] = set()
        self.analyze_transitions = 0
        self.states_enumerated = 0
        self.kernel_attempts = 0
        self.kernel_collisions = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        sites = list(CALL_SITES)
        engine_c = getattr(importlib.import_module("wlansat.sim"), "_engine_c", None)
        if engine_c is not None:
            sites.append(("wlansat.sim._engine_c", "run_kernel", "sim.run_kernel"))
        for module_name, attr, span_name in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counters recorded at the same boundaries as the spans.

    def _observe_bianchi_solve_fixed_point(self, args, kwargs, result) -> None:
        self.fixed_point_keys.add(args + tuple(sorted(kwargs.items())))

    def _observe_throughput_analyze(self, args, kwargs, report) -> None:
        self.analyze_transitions += len(report.records)

    def _observe_ctmc_enumerate_states(self, args, kwargs, space) -> None:
        self.states_enumerated += len(space)

    def _observe_sim_run_kernel(self, args, kwargs, result) -> None:
        successes, collisions = result[0], result[1]
        self.kernel_attempts += sum(successes) + sum(collisions)
        self.kernel_collisions += sum(collisions)

    def dump(self, path: str) -> None:
        """Write every span recorded so far as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"], "spans": self.spans}, fh)
            fh.write("\n")

    def layer_metrics(self, passes: int, speed: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as totals per traced pass, keyed by metric name.

        Times are multiplied by ``speed``, the interpreter's speed relative to
        the reference measured while the traced passes ran.
        """
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for sid, _parent, name, start, end in self.spans:
            self_ns[name] += end - start - child_ns[sid]

        def per_pass(value: float) -> float:
            return value / passes

        def s(name: str) -> tuple[float, str]:
            return per_pass(total_ns[name] * speed / 1e9), "s"

        def self_s(name: str) -> tuple[float, str]:
            return per_pass(self_ns[name] * speed / 1e9), "s"

        def count(name: str) -> tuple[float, str]:
            return per_pass(calls[name]), "count"

        solve = "bianchi.solve_fixed_point"
        solve_ms = [(end - start) * speed / 1e6 for _sid, _p, name, start, end in self.spans if name == solve]
        # Every pass repeats the same inputs, so the run's keys are one pass's keys.
        keys = len(self.fixed_point_keys)
        kernel_s = total_ns["sim.run_kernel"] * speed / 1e9
        attempts = self.kernel_attempts
        return {
            f"{solve}.calls": count(solve),
            f"{solve}.s": s(solve),
            f"{solve}.p50_ms": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
            f"{solve}.max_ms": (max(solve_ms, default=0.0), "ms"),
            f"{solve}.distinct_keys": (float(keys), "count"),
            f"{solve}.reuse": (keys * passes / calls[solve] if calls[solve] else 0.0, "ratio"),
            "throughput.analyze.s": s("throughput.analyze"),
            "throughput.analyze.self_s": self_s("throughput.analyze"),
            "throughput.gamma_factor.calls": count("throughput.gamma_factor"),
            "throughput.gamma_factor.self_s": self_s("throughput.gamma_factor"),
            "throughput.contender_set.calls": count("throughput.contender_set"),
            "throughput.contender_set.s": s("throughput.contender_set"),
            "throughput.dominant_closure.s": s("throughput.dominant_closure"),
            "throughput.transitions": (per_pass(self.analyze_transitions), "count"),
            "ctmc.states": (per_pass(self.states_enumerated), "count"),
            "ctmc.enumerate_states.s": s("ctmc.enumerate_states"),
            "ctmc.stationary_product_form.calls": count("ctmc.stationary_product_form"),
            "ctmc.stationary_product_form.s": s("ctmc.stationary_product_form"),
            "ctmc.dominant_states.calls": count("ctmc.dominant_states"),
            "ctmc.dominant_states.s": s("ctmc.dominant_states"),
            "ctmc.occupancy_mass.s": s("ctmc.occupancy_mass"),
            "sim.simulate.s": s("sim.simulate"),
            "sim.simulate.self_s": self_s("sim.simulate"),
            "sim.run_kernel.calls": count("sim.run_kernel"),
            "sim.run_kernel.s": s("sim.run_kernel"),
            "sim.attempts": (per_pass(attempts), "count"),
            "sim.run_kernel.us_per_attempt": (kernel_s / attempts * 1e6 if attempts else 0.0, "us"),
            "sim.collision_share": (self.kernel_collisions / attempts if attempts else 0.0, "share"),
            "cli.main.s": s("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
        }

