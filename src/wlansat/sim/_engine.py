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
target, and the transmitting nodes sit in a heap of ``(end slot, node)``.

Each event scans the WLANs that sense the channel idle once: the scan that
finds the next event time also keeps the WLANs whose earliest target lands on
it, and only those can start. The exception is an event whose ends free a
WLAN. A node of that WLAN redraws its counter as its transmission ends, and a
draw of 0 makes it transmit in that very slot, so every WLAN that senses idle
after the ends is scanned again. So an event costs O(W) plus heap operations
for the nodes that end or start.

Node order is part of the result: nodes ending in the same slot redraw, and
same-slot starters enter the event log, in increasing node index, as a
slot-by-slot walk over the nodes would. Heap ties break on the node index, and
one sort at the end of the run puts the event log in (start slot, node) order.

RNG: SplitMix64 (Steele et al.), one named 64-bit stream per replication;
draws map the next output onto [0, CW-1] by multiply-shift, so results are
identical for identical seeds on every machine. The generator is
counter-based: output k of a stream at state s is mix(s + k * gamma mod 2^64).
The kernel therefore draws blocks of 4,096 outputs with numpy ``uint64``
arithmetic, which wraps like the masks in :func:`mix64`, and hands them to the
loop as Python ints; :func:`derive_seeds` reads the same blocks. The stream
is the one that repeated :func:`mix64` calls give, and :func:`mix64` stays as
the one-step reference that the test suite's stepwise oracle draws through.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain, count, islice
from operator import itemgetter

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_BLOCK = 4096  # outputs drawn per numpy block
_BLOCK_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)  # k * gamma mod 2^64


def mix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (advanced state, 64-bit output)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _mix_block(state: int) -> list[int]:
    """The ``_BLOCK`` outputs that ``mix64`` yields from ``state``, in order.

    numpy's ``uint64`` array arithmetic wraps mod 2^64 like the masks above.
    """
    z = np.uint64(state) + _BLOCK_STEPS
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return (z ^ (z >> 31)).tolist()


def _draws(state: int):
    """Endless iterator over the outputs of repeated ``mix64`` calls from ``state``.

    Block bases advance in Python ints, since numpy warns on scalar overflow.
    """
    bases = ((state + k * _BLOCK * _GAMMA) & _MASK64 for k in count())
    return chain.from_iterable(map(_mix_block, bases))


def derive_seeds(seed: int, count: int) -> list[int]:
    """Per-replication kernel seeds: successive outputs of a master stream."""
    return list(islice(_draws(seed & _MASK64), count))


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
    node, success, duration)`` covering the whole run in (start slot, node) order.

    Every ``neigh_masks[w]`` must contain bit ``w`` (a closed neighbourhood,
    as ``_kernel_args`` builds it): the start phase takes a WLAN with a node
    on air to sense the channel busy, and so looks for starters only among
    the ``due`` WLANs when no end changed the transmitting mask.
    """
    n_wlans = len(neigh_masks)
    draw = _draws(seed & _MASK64).__next__

    stage = [0] * len(node_wlan)
    tx_ok = [False] * len(node_wlan)
    v = [0] * n_wlans  # idle slots observed by each WLAN so far
    num_tx = [0] * n_wlans
    active_mask = 0  # WLANs with at least one node transmitting
    idle_wlans = _IdleWlans(neigh_masks)
    idle: list[list[tuple[int, int]]] = [[] for _ in range(n_wlans)]  # per WLAN: (target, node)
    # (end slot, node); the window's end sits in it as a sentinel that never
    # pops, so the next event time never passes end_slot
    on_air: list[tuple[int, int]] = [(end_slot, -1)]

    state_slots: dict[int, int] = {}
    probe: dict[tuple[int, int], list[int]] = {}
    events: list[tuple[int, int, int, bool, int]] | None = [] if record_events else None

    for n, w in enumerate(node_wlan):
        idle[w].append(((draw() * cw_min) >> 64, n))
    for heap in idle:
        heapify(heap)

    t = 0
    while True:
        # earliest end, or earliest target on the clock of a WLAN sensing idle;
        # ``due`` keeps the WLANs whose earliest target lands on ``t_next``
        t_next = on_air[0][0]
        free = idle_wlans[active_mask]
        due = []
        for w in free:
            heap = idle[w]
            if heap:
                cand = t + heap[0][0] - v[w]
                if cand < t_next:
                    t_next = cand
                    due = [w]
                elif cand == t_next:
                    due.append(w)

        # account the constant-state segment [t, t_next) inside the window
        lo = t if t > warmup_slot else warmup_slot
        if t_next > lo:
            state_slots[active_mask] = state_slots.get(active_mask, 0) + t_next - lo
        if t_next == end_slot:
            break

        dt = t_next - t
        if dt:
            for w in free:
                v[w] += dt
        t = t_next

        # transmission ends first: they free the channel for slot t
        pre_mask = active_mask
        while on_air[0][0] == t:
            n = heappop(on_air)[1]
            w = node_wlan[n]
            num_tx[w] -= 1
            if not num_tx[w]:
                active_mask &= ~(1 << w)
            stage[n] = 0 if tx_ok[n] else min(stage[n] + 1, m_stages)
            heappush(idle[w], (v[w] + ((draw() * (cw_min << stage[n])) >> 64), n))

        # then simultaneous starts, judged against ongoing transmissions only.
        # If no end freed a WLAN, only the ``due`` WLANs can start; otherwise a
        # node in a freed WLAN may have redrawn 0, so every idle WLAN is scanned
        if active_mask != pre_mask:
            pre_mask = active_mask
            due = idle_wlans[pre_mask]
        elif not due:
            continue
        groups = []  # (WLAN, its starting nodes)
        any_mask = 0  # WLANs with starters
        for w in due:
            heap = idle[w]
            vw = v[w]
            if heap and heap[0][0] == vw:
                group = [heappop(heap)[1]]
                while heap and heap[0][0] == vw:
                    group.append(heappop(heap)[1])
                groups.append((w, group))
                any_mask |= 1 << w
        if not groups:
            continue

        measured = warmup_slot <= t
        for w, group in groups:
            ok = len(group) == 1 and not (any_mask & neigh_masks[w] & ~(1 << w))
            dur = d_succ if ok else d_coll
            for n in group:
                heappush(on_air, (t + dur, n))
                tx_ok[n] = ok
            num_tx[w] += len(group)
            active_mask |= 1 << w
            if measured:
                rec = probe.get((w, pre_mask))
                if rec is None:
                    rec = probe[(w, pre_mask)] = [0, 0, 0]
                rec[0] += len(group)
                if ok:
                    rec[2] += d_succ
                else:
                    rec[1] += len(group)
            if events is not None:
                events.extend((t, w, n, ok, dur) for n in group)

    if events is not None:  # start slots rise strictly; same-slot starters go in node order
        events.sort(key=itemgetter(0, 2))
    successes = [0] * n_wlans
    collisions = [0] * n_wlans
    for (w, _pre_mask), (attempts, colls, _slots) in probe.items():
        successes[w] += attempts - colls
        collisions[w] += colls
    return successes, collisions, state_slots, probe, events
