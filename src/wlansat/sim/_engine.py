"""Simulation kernel: slotted CSMA/CA over a WLAN conflict graph.

The process is slot-synchronous. Every node holds a backoff counter drawn
uniformly from [0, CW-1]; a node observes a slot as idle when no node of its
own WLAN or of an adjacent WLAN is transmitting during that slot. Counters
decrement only on observed-idle slots, and a node transmits in the idle slot
that follows its countdown (a draw of b transmits in the (b+1)-th idle slot).
All nodes of one sensing neighborhood whose counters expire in the same slot
transmit together: a lone transmitter succeeds and holds the channel for
``d_succ`` slots, otherwise every same-slot transmitter in the neighborhood
collides and holds it for ``d_coll`` slots, doubling its window up to stage
``m_stages``. Success resets the window; traffic is full-buffer, so the
finishing node immediately redraws.

The implementation is event-driven but exactly equivalent to stepping slot by
slot: each WLAN keeps a virtual clock counting the idle slots it has observed,
and a node's pending transmission is a target value on its WLAN's clock.
Between transmission starts/ends nothing else can happen, so time jumps to the
earliest pending end or target. No event scans all nodes: each WLAN keeps its
idle nodes in a heap of ``(target, node)`` whose top is its minimum pending
target, and the transmitting nodes sit in a heap of ``(end slot, node)``. So
an event costs O(W) plus heap operations for the nodes that end or start.

Node order is part of the result: nodes ending in the same slot redraw, and
same-slot starters enter the probe and the event log, in increasing node
index, as a slot-by-slot walk over the nodes would. Heap ties break on the
node index, and starters from several WLANs are sorted.

RNG: SplitMix64 (Steele et al.), one named 64-bit stream per replication;
draws map the next output onto [0, CW-1] by multiply-shift, so results are
identical for identical seeds on every machine.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

_MASK64 = (1 << 64) - 1
_NEVER = float("inf")  # no pending end or target


def mix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (advanced state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seeds(seed: int, count: int) -> list[int]:
    """Per-replication kernel seeds: successive outputs of a master stream."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state, z = mix64(state)
        out.append(z)
    return out


class _IdleWlans(dict):
    """Transmitting-WLAN mask -> the WLANs sensing the channel idle under it,
    filled on first use (one entry per mask reached, as in ``state_slots``)."""

    def __init__(self, neigh_masks: list[int]) -> None:
        super().__init__()
        self.neigh_masks = neigh_masks

    def __missing__(self, mask: int) -> list[int]:
        free = self[mask] = [w for w, nm in enumerate(self.neigh_masks) if not mask & nm]
        return free


def run_kernel(
    node_wlan: list[int],
    neigh_masks: list[int],
    cw_min: int,
    m_stages: int,
    d_succ: int,
    d_coll: int,
    warmup_slot: int,
    end_slot: int,
    seed: int,
    record_events: bool,
):
    """Run one replication; see the module docstring for the process rules.

    Returns ``(successes, collisions, state_slots, probe, events)`` where the
    first two are per-WLAN attempt counts started inside the measurement
    window (summed from ``probe``), ``state_slots`` maps each transmitting-WLAN
    bitmask to the slots it was active within the window, ``probe`` maps
    ``(wlan, predecessor mask)`` to ``[attempts, collisions, successful airtime
    in slots]``, and ``events`` is ``None`` or a list of ``(start_slot, wlan,
    node, success, duration)`` covering the whole run.
    """
    n_wlans = len(neigh_masks)
    rng = seed & _MASK64

    stage = [0] * len(node_wlan)
    tx_ok = [False] * len(node_wlan)
    v = [0] * n_wlans  # idle slots observed by each WLAN so far
    num_tx = [0] * n_wlans
    active_mask = 0  # WLANs with at least one node transmitting
    idle_wlans = _IdleWlans(neigh_masks)
    idle: list[list[tuple[int, int]]] = [[] for _ in range(n_wlans)]  # per WLAN: (target, node)
    on_air: list[tuple[int, int]] = []  # (end slot, node)

    state_slots: dict[int, int] = {}
    probe: dict[tuple[int, int], list[int]] = {}
    events: list[tuple[int, int, int, bool, int]] | None = [] if record_events else None

    for n, w in enumerate(node_wlan):
        rng, z = mix64(rng)
        idle[w].append(((z * cw_min) >> 64, n))
    for heap in idle:
        heapify(heap)

    t = 0
    while True:
        # earliest end, or earliest target on the clock of a WLAN sensing idle
        t_next = on_air[0][0] if on_air else _NEVER
        free = idle_wlans[active_mask]
        for w in free:
            heap = idle[w]
            if heap:
                cand = t + heap[0][0] - v[w]
                if cand < t_next:
                    t_next = cand

        lo = t if t > warmup_slot else warmup_slot
        if t_next >= end_slot:
            if end_slot > lo:
                state_slots[active_mask] = state_slots.get(active_mask, 0) + end_slot - lo
            break

        # account the constant-state segment [t, t_next) and advance clocks
        if t_next > lo:
            state_slots[active_mask] = state_slots.get(active_mask, 0) + t_next - lo
        dt = t_next - t
        if dt:
            for w in free:
                v[w] += dt
        t = t_next

        # transmission ends first: they free the channel for slot t
        while on_air and on_air[0][0] == t:
            n = heappop(on_air)[1]
            w = node_wlan[n]
            num_tx[w] -= 1
            if not num_tx[w]:
                active_mask &= ~(1 << w)
            stage[n] = 0 if tx_ok[n] else min(stage[n] + 1, m_stages)
            rng = (rng + 0x9E3779B97F4A7C15) & _MASK64  # mix64, inlined
            z = ((rng ^ (rng >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            heappush(idle[w], (v[w] + ((z * (cw_min << stage[n])) >> 64), n))

        # then simultaneous starts, judged against ongoing transmissions only
        pre_mask = active_mask
        groups = []
        any_mask = 0
        for w in idle_wlans[pre_mask]:
            heap = idle[w]
            if heap and heap[0][0] == v[w]:
                group = [heappop(heap)[1]]
                while heap and heap[0][0] == v[w]:
                    group.append(heappop(heap)[1])
                groups.append((w, group))
                any_mask |= 1 << w
        if not groups:
            continue

        starters = []
        for w, group in groups:
            ok = len(group) == 1 and not (any_mask & neigh_masks[w] & ~(1 << w))
            starters.extend((n, w, ok) for n in group)
        if len(groups) > 1:
            starters.sort()
        measured = warmup_slot <= t
        for n, w, ok in starters:
            dur = d_succ if ok else d_coll
            heappush(on_air, (t + dur, n))
            tx_ok[n] = ok
            num_tx[w] += 1
            active_mask |= 1 << w
            if measured:
                rec = probe.get((w, pre_mask))
                if rec is None:
                    rec = [0, 0, 0]
                    probe[(w, pre_mask)] = rec
                rec[0] += 1
                if ok:
                    rec[2] += d_succ
                else:
                    rec[1] += 1
            if events is not None:
                events.append((t, w, n, ok, dur))

    successes = [0] * n_wlans
    collisions = [0] * n_wlans
    for (w, _pre_mask), (attempts, colls, _slots) in probe.items():
        successes[w] += attempts - colls
        collisions[w] += colls
    return successes, collisions, state_slots, probe, events
