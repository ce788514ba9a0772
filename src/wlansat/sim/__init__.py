"""Slotted CSMA/CA simulator: the validation oracle for the analytical model.

The kernel in :mod:`wlansat.sim._engine` runs the slot process of one
replication. :func:`simulate` runs each replication once and aggregates its
counts, state airtime and per-(WLAN, predecessor) contention probe.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..errors import InvalidParameterError
from ..scenario import PhyMacParams, Scenario
from . import _engine
from ._engine import derive_seeds

#: Most nodes, summed over the WLANs, that one replication may simulate. The
#: kernel holds about 120 bytes per node (tracemalloc peak of one replication
#: at 5e4 to 4e5 nodes, CPython 3.11), so this keeps a replication near 1 GB;
#: with ``jobs > 1`` every worker holds one.
MAX_SIM_NODES = 8_000_000


def kernel_backend() -> str:
    """Name of the simulation kernel: always ``"python"``."""
    return "python"


def slot_durations(params: PhyMacParams) -> tuple[int, int]:
    """Transmission durations as whole slots: (success, collision).

    Durations are rounded to the nearest slot so the kernel stays purely
    slot-synchronous; with the default 802.11ac numbers the rounding error is
    below 0.05%.
    """
    return max(1, round(params.e_t / params.t_e)), max(1, round(params.e_tc / params.t_e))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def fan_out(fn, work: list, jobs: int) -> list:
    """``[fn(item) for item in work]``, in that order, over up to ``jobs`` processes."""
    if not _is_int(jobs) or jobs < 1:
        raise InvalidParameterError(f"jobs must be an integer >= 1, got {jobs!r}")
    if jobs == 1 or len(work) < 2:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(fn, work))


@dataclass(frozen=True)
class SimConfig:
    """One simulation request: scenario, horizon, seeding and replication."""

    scenario: Scenario
    duration: float = 60.0
    warmup: float = 1.0
    seed: int = 1
    replications: int = 10

    def __post_init__(self) -> None:
        for name in ("duration", "warmup"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.warmup >= 0:
            raise InvalidParameterError(f"warmup must be >= 0, got {self.warmup}")
        if not self.duration > self.warmup:
            raise InvalidParameterError(
                f"duration must exceed warmup, got duration={self.duration} warmup={self.warmup}"
            )
        if not _is_int(self.replications) or self.replications < 1:
            raise InvalidParameterError(f"replications must be an integer >= 1, got {self.replications}")
        if not _is_int(self.seed):
            raise InvalidParameterError(f"seed must be an integer, got {self.seed!r}")
        total = 0
        for w in self.scenario.wlans:  # checked before the kernel lists one entry per node
            total += w.n_nodes
            if total > MAX_SIM_NODES:
                raise InvalidParameterError(
                    f"wlans[{w.id}].n_nodes is too large for the simulator: "
                    f"at most {MAX_SIM_NODES} nodes in all WLANs together"
                )


@dataclass(frozen=True)
class SimulationResult:
    """Replication-averaged simulator output.

    ``throughput``/``stderr`` are bits/s per WLAN id (mean and standard error
    over replications); ``successes``/``collisions`` are attempt totals inside
    the measurement window, summed over replications. ``state_airtime`` maps a
    transmitting-WLAN bitmask to its mean fraction of measured time (masks of
    colliding neighbors can fall outside the feasible-state family).
    ``probe`` classifies every measured attempt by the system state at its
    start slot: one record per (WLAN, predecessor mask), sorted by that pair,
    pooled over replications. Set ``collision_fraction`` against the
    analytical ``p``, and the success share divided by the state's stationary
    probability against ``1 - gamma``.
    """

    throughput: dict[int, float]
    stderr: dict[int, float]
    successes: dict[int, int]
    collisions: dict[int, int]
    state_airtime: dict[int, float]
    rep_throughput: tuple[tuple[float, ...], ...] = field(repr=False)
    probe: tuple[ProbeRecord, ...] = field(repr=False)
    events: tuple[tuple[tuple[int, int, int, bool, int], ...], ...] | None = field(
        default=None, repr=False
    )


@dataclass(frozen=True)
class ProbeRecord:
    """Empirical per-(WLAN, predecessor-state) contention statistics.

    ``collision_fraction`` estimates the conditional collision probability of
    attempts classified by the set of WLANs already transmitting when the
    attempt started; ``success_airtime_share`` is the fraction of measured time
    this (WLAN, predecessor) pair spent in successful transmissions.
    """

    wlan: int
    predecessor: int
    attempts: int
    collisions: int
    collision_fraction: float
    success_airtime_share: float


def _kernel_args(config: SimConfig) -> tuple:
    scenario = config.scenario
    node_wlan: list[int] = []
    for w in scenario.wlans:
        node_wlan.extend([w.id] * w.n_nodes)
    neigh_masks = [scenario.graph.closed_mask(i) for i in range(scenario.n_wlans)]
    d_succ, d_coll = slot_durations(scenario.params)
    warmup_slot = round(config.warmup / scenario.params.t_e)
    end_slot = round(config.duration / scenario.params.t_e)
    if end_slot <= warmup_slot:
        raise InvalidParameterError("duration - warmup must cover at least one slot")
    params = scenario.params
    return (node_wlan, neigh_masks, params.cw_min, params.m, d_succ, d_coll, warmup_slot, end_slot)


def _run_one(packed):
    args, seed, record_events = packed
    # looked up at each call, so a wrapper patched onto the kernel module sees every run
    return _engine.run_kernel(*args, seed, record_events)


def simulate(
    config: SimConfig,
    *,
    record_events: bool = False,
    jobs: int = 1,
) -> SimulationResult:
    """Run the configured replications and aggregate their statistics.

    Replications are independent (seeds derived from ``config.seed`` by index),
    so ``jobs > 1`` runs them in a process pool; results are merged by
    replication index either way, making the output independent of ``jobs``.
    """
    args = _kernel_args(config)
    warmup_slot, end_slot = args[-2], args[-1]
    measured_slots = end_slot - warmup_slot
    measured_time = measured_slots * config.scenario.params.t_e
    l_bits = config.scenario.params.l_bits
    n_wlans = config.scenario.n_wlans
    reps = config.replications

    work = [(args, seed, record_events) for seed in derive_seeds(config.seed, reps)]
    outcomes = fan_out(_run_one, work, jobs)

    state_total: dict[int, int] = {}
    probe_total: dict[tuple[int, int], list[int]] = {}
    rep_throughput: list[tuple[float, ...]] = []
    all_events = [] if record_events else None
    for successes, _collisions, state_slots, probe, events in outcomes:
        for mask, slots in state_slots.items():
            state_total[mask] = state_total.get(mask, 0) + slots
        for key, (attempts, colls, succ_slots) in probe.items():
            rec = probe_total.setdefault(key, [0, 0, 0])
            rec[0] += attempts
            rec[1] += colls
            rec[2] += succ_slots
        rep_throughput.append(tuple(s * l_bits / measured_time for s in successes))
        if all_events is not None:
            all_events.append(tuple(events))

    try:
        mean = {w: math.fsum(rep[w] for rep in rep_throughput) / reps for w in range(n_wlans)}
        stderr = {}
        for w in range(n_wlans):
            if reps > 1:
                var = math.fsum((rep[w] - mean[w]) ** 2 for rep in rep_throughput) / (reps - 1)
                stderr[w] = math.sqrt(var / reps)
            else:
                stderr[w] = 0.0
        finite = all(math.isfinite(x) for x in (*mean.values(), *stderr.values()))
    except OverflowError:  # a square or a sum left double range
        finite = False
    if not finite:
        raise InvalidParameterError(
            f"l_bits is too large for the simulator: the throughput s * l_bits / T over "
            f"{reps} replications or its standard error overflows, got l_bits={l_bits}"
        )

    return SimulationResult(
        throughput=mean,
        stderr=stderr,
        successes={w: sum(rep[0][w] for rep in outcomes) for w in range(n_wlans)},
        collisions={w: sum(rep[1][w] for rep in outcomes) for w in range(n_wlans)},
        state_airtime={
            mask: slots / (measured_slots * reps) for mask, slots in sorted(state_total.items())
        },
        rep_throughput=tuple(rep_throughput),
        probe=tuple(
            ProbeRecord(
                wlan=wlan,
                predecessor=pre_mask,
                attempts=attempts,
                collisions=colls,
                collision_fraction=colls / attempts,
                success_airtime_share=succ_slots / (measured_slots * reps),
            )
            for (wlan, pre_mask), (attempts, colls, succ_slots) in sorted(probe_total.items())
        ),
        events=tuple(all_events) if all_events is not None else None,
    )
