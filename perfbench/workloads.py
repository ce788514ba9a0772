"""The benchmark's three workloads: seeded inputs, one timed pass, and its checks.

Every workload object is built from ``(seed, smoke)`` alone and exposes

* ``run()``: a generator making one pass over the inputs. Each ``yield``
  ends one call into the library, which the runner times on its own; the
  generator returns the pass's output;
* ``check(output)``: the correctness failures of that pass (empty when the
  output is right);
* ``reference(output)``: the values compared against the stored reference on
  the default seed.

Library functions are always called through their module attribute
(``throughput.analyze``, ``ctmc.enumerate_states``, ``cli.main``) so that the
span tracer in :mod:`spans` sees them.
"""

from __future__ import annotations

import csv
import math
import os
import random

from wlansat import cli, ctmc, throughput
from wlansat.scenario import ConflictGraph, Scenario, Wlan, bundled_scenario, with_cw_min, with_n_nodes

NODES_PER_WLAN = 16
SWEEP_VALUES = tuple(4 << k for k in range(12))  # 4, 8, ..., 8192
SWEEP_MODES = ("full", "dominant", "ctmc", "sim")
SWEEP_WLANS = 5  # scenario iii


def _params():
    """The bundled 802.11ac parameters (cw_min 32, m 5)."""
    return bundled_scenario("iii").params


class AnalyzeMesh:
    """``analyze`` in full mode with collisions on a grid deployment.

    APs sit on a square grid of spacing 1/3 and conflict when closer than
    0.35, so each AP hears its grid neighbours. The seed permutes which WLAN
    id sits at each grid point: state bitmasks, state order and the order of
    contender sets change, the amount of work does not. (Uniformly placed APs
    made one ``analyze`` vary threefold between seeds.)
    """

    def __init__(self, seed: int, smoke: bool) -> None:
        side = 2 if smoke else 3
        ids = list(range(side * side))
        random.Random(seed).shuffle(ids)
        points = {ids[r * side + c]: (c / 3, r / 3) for r in range(side) for c in range(side)}
        edges = [(a, b) for a in points for b in points if a < b and math.dist(points[a], points[b]) < 0.35]
        self.scenario = Scenario(
            wlans=tuple(Wlan(id=i, n_nodes=NODES_PER_WLAN) for i in points),
            graph=ConflictGraph(len(points), edges),
            params=_params(),
        )
        self._oracle = None

    def run(self):
        report = throughput.analyze(self.scenario)
        yield
        return report

    def check(self, report) -> list[str]:
        errors = []
        if self._oracle is None:
            space = report.stationary.space
            self._oracle = ctmc.stationary_generator_solve(space, self.scenario.lambdas(), self.scenario.params.mu)
        pi, oracle = report.stationary.pi, self._oracle.pi
        gap = max(abs(a - b) for a, b in zip(pi, oracle))
        if len(pi) != len(oracle) or gap > 1e-9:
            errors.append(f"product form differs from the generator solve by {gap:.3e}")
        bad = [r for r in report.records if r.gamma > r.p + 1e-12]
        if bad:
            errors.append(f"{len(bad)} transitions have gamma > p")
        cap = self.scenario.params.mu * self.scenario.params.l_bits
        for wlan, x in report.per_wlan.items():
            if not 0.0 <= x <= cap:
                errors.append(f"x_{wlan} = {x} outside [0, mu*L = {cap}]")
        return errors

    def reference(self, report) -> dict:
        return {
            "per_wlan": [report.per_wlan[w] for w in sorted(report.per_wlan)],
            "dominant_mass": report.dominant_mass,
            "transitions": len(report.records),
        }


class StatesWide:
    """The ``wlansat states`` library path, then ``analyze --dominant``, on 2^n states.

    ``n`` WLANs with no conflicts: every subset is a feasible state and the
    only maximal state is the full set. The seed does not change the input.
    """

    def __init__(self, seed: int, smoke: bool) -> None:
        n = 8 if smoke else 17
        self.scenario = Scenario(
            wlans=tuple(Wlan(id=i, n_nodes=NODES_PER_WLAN) for i in range(n)),
            graph=ConflictGraph(n, []),
            params=_params(),
        )

    def run(self):
        space = ctmc.enumerate_states(self.scenario)
        yield
        dominant = ctmc.dominant_states(space)
        yield
        dist = ctmc.stationary_product_form(space, self.scenario.thetas())
        yield
        report = throughput.analyze(self.scenario, "dominant-only", space=space)
        yield
        return space, dominant, dist, report

    def check(self, output) -> list[str]:
        space, dominant, dist, report = output
        errors = []
        n = self.scenario.n_wlans
        if len(space) != 2**n:
            errors.append(f"{len(space)} states, expected 2^{n}")
        if dominant != ((1 << n) - 1,):
            errors.append(f"dominant states {dominant[:4]}..., expected only the full set")
        for label, pi in (("product form", dist.pi), ("analyze", report.stationary.pi)):
            total = math.fsum(pi)
            if abs(total - 1.0) > 1e-12:
                errors.append(f"{label}: sum of pi is 1 + {total - 1.0:.3e}")
        if len(report.records) != n * n:
            errors.append(f"{len(report.records)} transitions, expected {n * n}")
        return errors

    def reference(self, output) -> dict:
        _space, _dominant, dist, report = output
        return {
            "per_wlan": [report.per_wlan[w] for w in sorted(report.per_wlan)],
            "dominant_mass": report.dominant_mass,
            "pi_empty": float(dist.pi[0]),
            "pi_full": float(dist.pi[-1]),
        }


class SweepCw:
    """``wlansat sweep iii --param cw_min`` at 4..8192 in all four modes, via ``cli.main``.

    One CLI call per value, each into its own output directory, so that the
    runner's calibration loop samples the interpreter's speed between values.
    """

    def __init__(self, seed: int, smoke: bool, out_dir: str) -> None:
        duration, reps = ("1.2", "1") if smoke else ("12", "2")
        self.out_dir = out_dir
        self.argv = {
            value: [
                "sweep", "iii", "--param", "cw_min", "--values", str(value),
                "--modes", ",".join(SWEEP_MODES),
                "--n-nodes", str(NODES_PER_WLAN),
                "--seed", str(seed), "--jobs", "1",
                "--duration", duration, "--warmup", "1", "--reps", reps,
                "--out", os.path.join(out_dir, f"cw{value}"),
            ]
            for value in SWEEP_VALUES
        }
        self._library = None
        self._first_sim_rows = None

    def run(self):
        codes = []
        for value in SWEEP_VALUES:
            codes.append(cli.main(self.argv[value]))
            yield
        return codes

    def _rows(self) -> list[list[str]]:
        rows = []
        for value in SWEEP_VALUES:
            with open(os.path.join(self.out_dir, f"cw{value}", "sweep.csv"), newline="", encoding="utf-8") as fh:
                rows.extend(list(csv.reader(fh))[1:])
        return rows

    def library(self) -> dict[str, float]:
        """``analyze`` called directly for every analytic row, keyed like the CSV."""
        if self._library is None:
            base = with_n_nodes(bundled_scenario("iii"), NODES_PER_WLAN)
            self._library = {}
            for value in SWEEP_VALUES:
                for mode in SWEEP_MODES[:3]:
                    report = throughput.analyze(
                        with_cw_min(base, value),
                        "dominant-only" if mode == "dominant" else "full",
                        collisions=mode != "ctmc",
                    )
                    for w, x in report.per_wlan.items():
                        self._library[f"{value}/{w}/{report.mode_label()}"] = x
        return self._library

    def check(self, codes: list[int]) -> list[str]:
        if any(codes):
            return [f"cli.main returned {codes}"]
        rows = self._rows()
        expected = len(SWEEP_VALUES) * SWEEP_WLANS * len(SWEEP_MODES)
        errors = [] if len(rows) == expected else [f"{len(rows)} CSV rows, expected {expected}"]
        library = self.library()
        sim_rows = []
        for _param, value, wlan, mode, x, stderr in rows:
            if mode == "sim":
                sim_rows.append([value, wlan, x, stderr])
            elif format(library.get(f"{value}/{wlan}/{mode}", math.nan), ".6g") != x:
                errors.append(f"CSV row cw={value} wlan={wlan} {mode}: {x} differs from analyze")
        if self._first_sim_rows is None:
            self._first_sim_rows = sim_rows
        elif sim_rows != self._first_sim_rows:
            errors.append("sim rows differ from the first pass with the same seed")
        return errors

    def reference(self, codes: list[int]) -> dict:
        return {
            "analytic": self.library(),
            "sim_rows": [[value, wlan, x, se] for _p, value, wlan, mode, x, se in self._rows() if mode == "sim"],
        }


def make(name: str, seed: int, smoke: bool, out_dir: str):
    """Build the named workload's inputs."""
    if name == "analyze-mesh":
        return AnalyzeMesh(seed, smoke)
    if name == "states-wide":
        return StatesWide(seed, smoke)
    if name == "sweep-cw":
        return SweepCw(seed, smoke, os.path.join(out_dir, f"sweep-cw-seed{seed}"))
    raise ValueError(f"unknown workload {name!r}")
