"""Per-WLAN saturation throughput from state occupancy plus collision losses.

The occupancy model alone overestimates throughput because its continuous
backoff timers never expire simultaneously. The correction works per state
transition: for WLAN ``i`` entering state ``s`` from its predecessor
``s' = s \\ {i}``, the nodes of ``i`` race against the node pool of the
contending WLANs ``K_{i|s'}`` (i's unblocked neighbors at ``s'``). Solving the
slotted fixed point for that pool yields a conditional throughput ``y``; the
discount ``gamma`` is chosen so that the local two-level occupancy estimate,
scaled by ``1 - gamma``, reproduces ``y``. The total is then

    x_i = sum over feasible s containing i of  pi_s * (1 - gamma_{i,s}) * mu * L

Gamma depends on the transition only through the key ``(i, C)``, where the
contender mask ``C = N(i) & ~s' & ~N(s')`` and ``N(s')`` is the union of the
neighbor masks of the members of ``s'``. :func:`analyze` therefore solves one
gamma per key and reuses it for every transition with that key.

The fixed point itself depends on a key only through the pool size
``k_nodes + n_i``, since ``cw_min`` and ``m`` are fixed for a scenario. Each
:func:`analyze` call keeps a dict from ``(pool size, cw_min, m)`` to
:class:`BianchiPoint`, passed to :func:`gamma_factor` as ``points``, so it
solves each pool size once per call. A caller may pass its own dict to
:func:`analyze` as ``points`` to share the solves between calls, as
``wlansat sweep`` does for the analytic modes of one sweep point; the key
holds ``cw_min`` and ``m``, so a dict shared across scenarios that differ in
them stays correct. Nothing is cached across calls otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from . import ctmc
from .bianchi import BianchiPoint, slot_probabilities, solve_fixed_point
from .ctmc import FeasibleStateSpace, StationaryDistribution, state_members
from .errors import ContractViolationError
from .scenario import PhyMacParams, Scenario, Wlan, theta_of


@dataclass(frozen=True)
class GammaRecord:
    """Collision discount for one (WLAN, predecessor state) transition.

    The discount is a function of the WLAN and its contender mask alone, so
    records of two transitions with the same ``(wlan, contenders)`` key share
    every field except ``state`` and ``predecessor``.

    ``gamma_raw`` is the value before clamping to [0, 1]; it can dip slightly
    below zero at large windows where the slot-level throughput marginally
    exceeds the local occupancy estimate. ``p`` is the conditional collision
    probability from the same fixed-point solve (always >= gamma up to
    numerical noise).
    """

    wlan: int
    state: int
    predecessor: int
    contenders: tuple[int, ...]
    k_nodes: int
    y: float
    gamma_raw: float
    gamma: float
    p: float


@dataclass(frozen=True)
class ThroughputReport:
    """Per-WLAN totals plus one :class:`GammaRecord` per transition, in summation
    order; each transition's term ``pi_s * (1 - gamma) * mu * L`` is listed
    under ``contributions`` in :meth:`to_json_dict`."""

    per_wlan: dict[int, float]
    records: tuple[GammaRecord, ...]
    mode: Literal["full", "dominant-only"]
    collisions: bool
    dominant_mass: float
    stationary: StationaryDistribution

    def mode_label(self) -> str:
        """Mode tag used in CSV output; 'ctmc-' prefix marks gamma = 0 runs."""
        return self.mode if self.collisions else f"ctmc-{self.mode}"

    def to_json_dict(self) -> dict:
        """Machine-readable mirror of the report."""
        params = self.stationary.space.scenario.params
        mu_l = params.mu * params.l_bits
        pis = [self.stationary.prob(r.state) for r in self.records]
        return {
            "mode": self.mode,
            "collisions": self.collisions,
            "dominant_mass": self.dominant_mass,
            "per_wlan": {str(w): x for w, x in sorted(self.per_wlan.items())},
            "contributions": [
                {
                    "wlan": r.wlan,
                    "state": list(state_members(r.state)),
                    "pi": pi,
                    "gamma": r.gamma,
                    "term_bits_per_s": pi * (1.0 - r.gamma) * mu_l,
                }
                for r, pi in zip(self.records, pis)
            ],
            "gamma_records": [
                {
                    "wlan": r.wlan,
                    "state": list(state_members(r.state)),
                    "predecessor": list(state_members(r.predecessor)),
                    "contenders": list(r.contenders),
                    "k_nodes": r.k_nodes,
                    "y_bits_per_s": r.y,
                    "gamma_raw": r.gamma_raw,
                    "gamma": r.gamma,
                    "p": r.p,
                }
                for r in self.records
            ],
        }


def contender_set(wlan: int, predecessor: int, space: FeasibleStateSpace) -> tuple[int, ...]:
    """WLANs racing with ``wlan`` for the channel at state ``predecessor``.

    These are the neighbors of ``wlan`` that are themselves free to count down
    at ``predecessor``: not active there, and not blocked by an active WLAN.
    """
    if predecessor >> wlan & 1:
        raise ContractViolationError(f"wlan {wlan} is already active in {ctmc.format_state(predecessor)}")
    if predecessor not in space or (predecessor | 1 << wlan) not in space:
        raise ContractViolationError(
            f"({wlan}, {ctmc.format_state(predecessor)}) is not a feasible transition"
        )
    graph = space.scenario.graph
    out = []
    for j in graph.neighbors(wlan):
        if predecessor >> j & 1:
            continue
        if (predecessor | 1 << j) in space:
            out.append(j)
    return tuple(out)


def _renewal_throughput(point: BianchiPoint, n_tagged: int, params: PhyMacParams) -> float:
    """Payload per slot over slot duration for ``n_tagged`` nodes at a solved point."""
    a, b, c, d = slot_probabilities(point, n_tagged)
    return d * params.l_bits / (a * params.t_e + b * params.e_t + c * params.e_tc)


def conditional_throughput(wlan: Wlan, k_nodes: int, params: PhyMacParams) -> float:
    """Slot-level throughput of ``wlan`` against ``k_nodes`` foreign contenders.

    Renewal form: expected payload per slot over expected slot duration, with
    the fixed point solved for all ``k_nodes + n_nodes`` contending nodes.
    """
    point = solve_fixed_point(k_nodes + wlan.n_nodes, params.cw_min, params.m)
    return _renewal_throughput(point, wlan.n_nodes, params)


def _local_record(
    wlan: Wlan, predecessor: int, contenders: tuple[int, ...], scenario: Scenario
) -> GammaRecord:
    """Collision-blind record: ``y`` is the local occupancy estimate, gamma is 0.

    The local estimate restricts the chain to ``wlan`` and its ``contenders``
    (normalizer ``1 + theta_i + sum theta_j``).
    """
    params = scenario.params
    theta_i = theta_of(wlan, params)
    local_z = 1.0 + theta_i + sum(theta_of(scenario.wlans[j], params) for j in contenders)
    return GammaRecord(
        wlan=wlan.id,
        state=predecessor | 1 << wlan.id,
        predecessor=predecessor,
        contenders=contenders,
        k_nodes=sum(scenario.wlans[j].n_nodes for j in contenders),
        y=params.mu * params.l_bits * theta_i / local_z,
        gamma_raw=0.0,
        gamma=0.0,
        p=0.0,
    )


def gamma_factor(
    wlan: Wlan,
    predecessor: int,
    scenario: Scenario,
    space: FeasibleStateSpace,
    *,
    points: dict[tuple[int, int, int], BianchiPoint] | None = None,
) -> GammaRecord:
    """Collision discount for ``wlan`` entering from ``predecessor``.

    Gamma is what must be shaved off the local occupancy estimate (see
    :func:`_local_record`) to match the slot-level throughput ``y``. For a
    single node with no contenders both sides coincide and gamma is 0.

    ``points`` maps ``(k_nodes + n_nodes, cw_min, m)`` to the solved fixed
    point of that pool. A missing key is solved and stored there; without
    ``points`` the pool is solved afresh.
    """
    local = _local_record(wlan, predecessor, contender_set(wlan.id, predecessor, space), scenario)
    params = scenario.params
    n_total = local.k_nodes + wlan.n_nodes
    if points is None:
        points = {}
    key = (n_total, params.cw_min, params.m)
    point = points.get(key)
    if point is None:
        point = points[key] = solve_fixed_point(*key)
    y = _renewal_throughput(point, wlan.n_nodes, params)
    gamma_raw = 1.0 - y / local.y
    return replace(local, y=y, gamma_raw=gamma_raw, gamma=min(1.0, max(0.0, gamma_raw)), p=point.p)


def dominant_closure(space: FeasibleStateSpace) -> set[int]:
    """Dominant states plus every immediate predecessor (one WLAN removed)."""
    keep: set[int] = set()
    for s in ctmc.dominant_states(space):
        keep.add(s)
        for i in state_members(s):
            keep.add(s & ~(1 << i))
    return keep


def analyze(
    scenario: Scenario,
    mode: Literal["full", "dominant-only"] = "full",
    *,
    collisions: bool = True,
    space: FeasibleStateSpace | None = None,
    points: dict[tuple[int, int, int], BianchiPoint] | None = None,
) -> ThroughputReport:
    """Per-WLAN throughput for a scenario.

    ``mode="full"`` sums over every feasible state containing each WLAN;
    ``mode="dominant-only"`` restricts the sum to the maximal states and their
    immediate predecessors (the occupancy weights still come from the full
    product form), skipping the remaining fixed-point solves.

    With ``collisions=False`` every gamma is pinned to 0, which reproduces the
    raw occupancy-model throughput (the collision-blind reference curve); the
    recorded ``y`` is then the matching local estimate and ``p`` is 0.

    ``points`` has the contract of :func:`gamma_factor`'s: it maps
    ``(pool size, cw_min, m)`` to the solved fixed point, and the pools this
    call solves are added to it. Without it the call keeps its own dict.
    """
    if mode not in ("full", "dominant-only"):
        raise ContractViolationError(f"mode must be 'full' or 'dominant-only', got {mode!r}")
    if space is None:
        space = ctmc.enumerate_states(scenario)
    elif space.scenario != scenario:
        raise ContractViolationError("space must be enumerated from the analyzed scenario")
    dist = ctmc.stationary_product_form(space, scenario.thetas())
    params = scenario.params
    mu_l = params.mu * params.l_bits

    restricted = dominant_closure(space)
    dominant_mass = ctmc.occupancy_mass(dist, restricted)
    walk = sorted(restricted, key=space.index.__getitem__) if mode == "dominant-only" else space.states

    neighbor_masks = [scenario.graph.neighbor_mask(j) for j in range(scenario.n_wlans)]
    if points is None:
        points = {}
    by_key: dict[tuple[int, int], GammaRecord] = {}
    records: list[GammaRecord] = []
    terms: dict[int, list[float]] = {w.id: [] for w in scenario.wlans}
    for s in walk:
        if not s:
            continue
        for i in state_members(s):
            predecessor = s & ~(1 << i)
            blocked = predecessor
            for j in state_members(predecessor):
                blocked |= neighbor_masks[j]
            contender_mask = neighbor_masks[i] & ~blocked
            key = (i, contender_mask)
            record = by_key.get(key)
            if record is not None:
                record = replace(record, state=s, predecessor=predecessor)
            elif collisions:
                record = by_key[key] = gamma_factor(
                    scenario.wlans[i], predecessor, scenario, space, points=points
                )
            else:
                contenders = state_members(contender_mask)
                record = by_key[key] = _local_record(scenario.wlans[i], predecessor, contenders, scenario)
            records.append(record)
            terms[i].append(dist.prob(s) * (1.0 - record.gamma) * mu_l)

    per_wlan = {i: math.fsum(values) for i, values in terms.items()}
    return ThroughputReport(
        per_wlan=per_wlan,
        records=tuple(records),
        mode=mode,
        collisions=collisions,
        dominant_mass=dominant_mass,
        stationary=dist,
    )
