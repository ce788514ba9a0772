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
class Contribution:
    """One additive throughput term: pi_s * (1 - gamma) * mu * L."""

    wlan: int
    state: int
    pi: float
    gamma: float
    term: float


@dataclass(frozen=True)
class ThroughputReport:
    """Full analysis output: per-WLAN totals plus their per-state breakdown."""

    per_wlan: dict[int, float]
    contributions: tuple[Contribution, ...]
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
        return {
            "mode": self.mode,
            "collisions": self.collisions,
            "dominant_mass": self.dominant_mass,
            "per_wlan": {str(w): x for w, x in sorted(self.per_wlan.items())},
            "contributions": [
                {
                    "wlan": c.wlan,
                    "state": list(state_members(c.state)),
                    "pi": c.pi,
                    "gamma": c.gamma,
                    "term_bits_per_s": c.term,
                }
                for c in self.contributions
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


def gamma_factor(
    wlan: Wlan, predecessor: int, scenario: Scenario, space: FeasibleStateSpace
) -> GammaRecord:
    """Collision discount for ``wlan`` entering from ``predecessor``.

    The local occupancy estimate restricts the chain to ``wlan`` and its
    contenders (normalizer ``1 + theta_i + sum theta_j``); gamma is what must
    be shaved off that estimate to match the slot-level throughput ``y``. For
    a single node with no contenders both sides coincide and gamma is 0.
    """
    contenders = contender_set(wlan.id, predecessor, space)
    params = scenario.params
    k_nodes = sum(scenario.wlans[j].n_nodes for j in contenders)
    point = solve_fixed_point(k_nodes + wlan.n_nodes, params.cw_min, params.m)
    y = _renewal_throughput(point, wlan.n_nodes, params)

    theta_i = theta_of(wlan, params)
    local_z = 1.0 + theta_i + sum(theta_of(scenario.wlans[j], params) for j in contenders)
    local_estimate = params.mu * params.l_bits * theta_i / local_z
    gamma_raw = 1.0 - y / local_estimate
    return GammaRecord(
        wlan=wlan.id,
        state=predecessor | 1 << wlan.id,
        predecessor=predecessor,
        contenders=contenders,
        k_nodes=k_nodes,
        y=y,
        gamma_raw=gamma_raw,
        gamma=min(1.0, max(0.0, gamma_raw)),
        p=point.p,
    )


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
) -> ThroughputReport:
    """Per-WLAN throughput for a scenario.

    ``mode="full"`` sums over every feasible state containing each WLAN;
    ``mode="dominant-only"`` restricts the sum to the maximal states and their
    immediate predecessors (the occupancy weights still come from the full
    product form), skipping the remaining fixed-point solves.

    With ``collisions=False`` every gamma is pinned to 0, which reproduces the
    raw occupancy-model throughput (the collision-blind reference curve); the
    recorded ``y`` is then the matching local estimate and ``p`` is 0.
    """
    if mode not in ("full", "dominant-only"):
        raise ContractViolationError(f"mode must be 'full' or 'dominant-only', got {mode!r}")
    if space is None:
        space = ctmc.enumerate_states(scenario)
    thetas = scenario.thetas()
    dist = ctmc.stationary_product_form(space, thetas)
    params = scenario.params
    mu_l = params.mu * params.l_bits

    restricted = dominant_closure(space)
    dominant_mass = ctmc.occupancy_mass(dist, restricted)
    walk = sorted(restricted, key=space.index.__getitem__) if mode == "dominant-only" else space.states

    neighbor_masks = [scenario.graph.neighbor_mask(j) for j in range(scenario.n_wlans)]
    by_key: dict[tuple[int, int], GammaRecord] = {}
    contributions: list[Contribution] = []
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
                record = by_key[key] = gamma_factor(scenario.wlans[i], predecessor, scenario, space)
            else:
                contenders = state_members(contender_mask)
                local_z = 1.0 + thetas[i] + sum(thetas[j] for j in contenders)
                record = by_key[key] = GammaRecord(
                    wlan=i,
                    state=s,
                    predecessor=predecessor,
                    contenders=contenders,
                    k_nodes=sum(scenario.wlans[j].n_nodes for j in contenders),
                    y=mu_l * thetas[i] / local_z,
                    gamma_raw=0.0,
                    gamma=0.0,
                    p=0.0,
                )
            records.append(record)
            pi_s = dist.prob(s)
            term = pi_s * (1.0 - record.gamma) * mu_l
            contributions.append(Contribution(wlan=i, state=s, pi=pi_s, gamma=record.gamma, term=term))
            terms[i].append(term)

    per_wlan = {i: math.fsum(values) for i, values in terms.items()}
    return ThroughputReport(
        per_wlan=per_wlan,
        contributions=tuple(contributions),
        records=tuple(records),
        mode=mode,
        collisions=collisions,
        dominant_mass=dominant_mass,
        stationary=dist,
    )
