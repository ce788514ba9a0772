"""Simulator: kernel oracle equivalence, tracer hook, physics sanity, audits."""

from __future__ import annotations

import pytest

import wlansat as w
from wlansat import InvalidParameterError
from wlansat.sim import _engine, derive_seeds, slot_durations
from wlansat.sim.audit import label_violations, mutual_exclusion_violations

from conftest import extended_path, make_scenario, path3, single, triangle


# --- independent kernel oracle ----------------------------------------------------
#
# A deliberately naive slot-by-slot walk of the same process: counters
# decrement only in fully idle slots (a transmission starting in a slot makes
# it busy), transmit decisions use the pre-start mask, finished transmitters
# redraw in node order. Consumes the identical RNG stream, so any scheduling
# bug in the event-driven kernel shows up as a hard mismatch.


def stepwise_kernel(node_wlan, neigh_masks, cw_min, m_stages, d_succ, d_coll,
                    warmup_slot, end_slot, seed, record_events):
    mask64 = (1 << 64) - 1
    n_nodes, n_wlans = len(node_wlan), len(neigh_masks)
    rng = seed & mask64
    counter = [0] * n_nodes
    stage = [0] * n_nodes
    tx_end = [-1] * n_nodes
    tx_ok = [False] * n_nodes
    num_tx = [0] * n_wlans
    successes = [0] * n_wlans
    collisions = [0] * n_wlans
    state_slots = {}
    probe = {}
    events = [] if record_events else None
    for n in range(n_nodes):
        rng, z = _engine.mix64(rng)
        counter[n] = (z * cw_min) >> 64
    for t in range(end_slot):
        for n in range(n_nodes):
            if tx_end[n] == t:
                wl = node_wlan[n]
                num_tx[wl] -= 1
                stage[n] = 0 if tx_ok[n] else min(stage[n] + 1, m_stages)
                rng, z = _engine.mix64(rng)
                counter[n] = (z * (cw_min << stage[n])) >> 64
                tx_end[n] = -1
        pre = 0
        for wl in range(n_wlans):
            if num_tx[wl]:
                pre |= 1 << wl
        starters, cnt, any_mask = [], [0] * n_wlans, 0
        for n in range(n_nodes):
            wl = node_wlan[n]
            if tx_end[n] < 0 and not pre & neigh_masks[wl] and counter[n] == 0:
                starters.append(n)
                cnt[wl] += 1
                any_mask |= 1 << wl
        measured = warmup_slot <= t < end_slot
        active = pre
        for n in starters:
            wl = node_wlan[n]
            ok = cnt[wl] == 1 and not (any_mask & neigh_masks[wl] & ~(1 << wl))
            dur = d_succ if ok else d_coll
            tx_end[n], tx_ok[n] = t + dur, ok
            num_tx[wl] += 1
            active |= 1 << wl
            if measured:
                (successes if ok else collisions)[wl] += 1
                rec = probe.setdefault((wl, pre), [0, 0, 0])
                rec[0] += 1
                if ok:
                    rec[2] += d_succ
                else:
                    rec[1] += 1
            if events is not None:
                events.append((t, wl, n, ok, dur))
        for n in range(n_nodes):
            if tx_end[n] < 0 and counter[n] > 0 and not active & neigh_masks[node_wlan[n]]:
                counter[n] -= 1
        if t >= warmup_slot:
            state_slots[active] = state_slots.get(active, 0) + 1
    return successes, collisions, state_slots, probe, events


RING12 = [1 << i | 1 << (i - 1) % 12 | 1 << (i + 1) % 12 for i in range(12)]
for a, b in ((0, 6), (3, 9)):
    RING12[a] |= 1 << b
    RING12[b] |= 1 << a

ORACLE_CASES = [
    ([0, 0, 1, 1, 2, 2], [0b011, 0b111, 0b110], 8, 2, 20, 20),
    ([0, 1, 2], [0b111, 0b111, 0b111], 4, 5, 15, 11),
    ([0] * 4 + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4,
     [0b00011, 0b00111, 0b11110, 0b01100, 0b10100], 16, 3, 30, 30),
    ([0], [0b1], 32, 5, 50, 50),
    ([0, 1], [0b01, 0b10], 4, 0, 25, 25),
    # nodes not grouped by WLAN: same-slot redraws and starters must follow node index
    ([2, 0, 1, 0, 2, 1, 1], [0b011, 0b111, 0b110], 4, 3, 12, 9),
    ([3, 1, 0, 3, 2, 3, 1, 3, 0, 3], [0b0011, 0b1111, 0b0110, 0b1010], 8, 2, 10, 10),
    ([1, 0, 2, 1, 0, 2, 1, 0], [0b111, 0b111, 0b111], 2, 0, 7, 7),
    # window 2, stage 0: half of all redraws are 0, and a node whose end frees
    # its WLAN (or whose WLAN is freed later) must start in that end's slot
    ([0, 1, 2], [0b011, 0b111, 0b110], 2, 0, 5, 3),
    # 12 WLANs on a ring with two chords, nodes interleaved across WLANs
    ([(7 * k) % 12 for k in range(24)], RING12, 4, 3, 6, 4),
]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
@pytest.mark.parametrize("seed", [1, 99, 2**63 + 5])
def test_event_kernel_matches_stepwise_oracle(case, seed):
    args = ORACLE_CASES[case]
    expected = stepwise_kernel(*args, 100, 5000, seed, True)
    assert _engine.run_kernel(*args, 100, 5000, seed, True) == expected
    # simulate's default path logs no events; the oracle's other outputs do not depend on the log
    assert _engine.run_kernel(*args, 100, 5000, seed, False) == (*expected[:4], None)


@pytest.mark.parametrize("seed", [1, 99, 2**64 - 1])
def test_event_kernel_matches_stepwise_oracle_across_draw_blocks(seed):
    # short airtimes over 20,000 slots take more than two of the kernel's
    # 4,096-output draw blocks; seed 2**64 - 1 wraps the stream state at once
    args = ([0, 1, 2, 0, 1, 2], [0b011, 0b111, 0b110], 4, 2, 2, 1)
    expected = stepwise_kernel(*args, 10, 20_000, seed, True)
    assert len(expected[4]) > 2 * 4096  # at least one draw per transmission
    assert _engine.run_kernel(*args, 10, 20_000, seed, True) == expected
    assert _engine.run_kernel(*args, 10, 20_000, seed, False) == (*expected[:4], None)


def test_simulate_looks_up_the_kernel_at_each_replication(monkeypatch):
    # an outside tracer patches _engine.run_kernel and must see every replication
    config = w.SimConfig(triangle(4), duration=3.0, warmup=0.5, seed=99, replications=3)
    plain = w.simulate(config, jobs=1)
    original = _engine.run_kernel
    seeds = []

    def counting(*args):
        seeds.append(args[-2])
        return original(*args)

    monkeypatch.setattr(_engine, "run_kernel", counting)
    traced = w.simulate(config, jobs=1)
    assert seeds == derive_seeds(config.seed, config.replications)
    assert traced == plain


# --- physics sanity -----------------------------------------------------------------


def test_single_node_matches_renewal_formula():
    scenario = single()
    p = scenario.params
    expected = p.l_bits / (15.5 * p.t_e + p.e_t)
    res = w.simulate(w.SimConfig(scenario, duration=30, warmup=1, seed=5, replications=2))
    assert res.throughput[0] == pytest.approx(expected, rel=0.01)
    assert res.collisions[0] == 0


def test_disconnected_wlans_do_not_interact():
    scenario = make_scenario(2, [])
    p = scenario.params
    expected = p.l_bits / (15.5 * p.t_e + p.e_t)
    res = w.simulate(w.SimConfig(scenario, duration=30, warmup=1, seed=6, replications=2))
    for i in (0, 1):
        assert res.throughput[i] == pytest.approx(expected, rel=0.01)
        assert res.collisions[i] == 0


def test_conservation_attempts_split_into_outcomes():
    config = w.SimConfig(triangle(8), duration=5, warmup=0.5, seed=13, replications=2)
    res = w.simulate(config)
    for i in res.throughput:
        attempts = sum(r.attempts for r in res.probe if r.wlan == i)
        assert attempts == res.successes[i] + res.collisions[i]


def test_reproducibility_and_seed_sensitivity():
    config = w.SimConfig(path3(4), duration=4, warmup=0.5, seed=42, replications=3)
    a = w.simulate(config)
    b = w.simulate(config)
    assert a.successes == b.successes and a.rep_throughput == b.rep_throughput
    c = w.simulate(w.SimConfig(path3(4), duration=4, warmup=0.5, seed=43, replications=3))
    assert a.successes != c.successes


def test_jobs_do_not_change_results():
    config = w.SimConfig(triangle(4), duration=3, warmup=0.5, seed=21, replications=4)
    serial = w.simulate(config)
    parallel = w.simulate(config, jobs=4)
    assert serial.rep_throughput == parallel.rep_throughput
    assert serial.state_airtime == parallel.state_airtime
    assert serial.probe == parallel.probe


def test_throughput_consistent_with_success_counts():
    config = w.SimConfig(triangle(16), duration=5, warmup=1, seed=3, replications=2)
    res = w.simulate(config)
    measured = (round(5 / 9e-6) - round(1 / 9e-6)) * 9e-6
    for i in res.throughput:
        rebuilt = res.successes[i] * 768000 / (measured * 2)
        assert res.throughput[i] == pytest.approx(rebuilt, rel=1e-9)


def test_convergence_with_longer_runs():
    # doubling the horizon moves the per-WLAN estimate by well under 1%
    base = dict(scenario=triangle(16), warmup=1, seed=17)
    short = w.simulate(w.SimConfig(duration=60, replications=10, **base), jobs=4)
    long = w.simulate(w.SimConfig(duration=120, replications=10, **base), jobs=4)
    for i in short.throughput:
        assert short.throughput[i] == pytest.approx(long.throughput[i], rel=0.01)


def test_state_airtime_tracks_stationary_distribution():
    # moderate window keeps collisions rare enough for pi to show through
    scenario = path3(1, cw_min=256)
    res = w.simulate(w.SimConfig(scenario, duration=40, warmup=1, seed=29, replications=3))
    dist = w.stationary_product_form(w.enumerate_states(scenario), scenario.thetas())
    for mask in (0b001, 0b010, 0b100, 0b101):
        assert res.state_airtime.get(mask, 0.0) == pytest.approx(dist.prob(mask), rel=0.05)


# --- event log and audits --------------------------------------------------------------


def test_event_log_mutual_exclusion_and_labels():
    scenario = extended_path(8)
    res = w.simulate(
        w.SimConfig(scenario, duration=10, warmup=0, seed=31, replications=2),
        record_events=True,
    )
    assert res.events is not None and len(res.events) == 2
    for rep_events in res.events:
        assert len(rep_events) > 100
        assert mutual_exclusion_violations(rep_events, scenario) == []
        assert label_violations(rep_events, scenario) == []


def test_events_off_by_default():
    res = w.simulate(w.SimConfig(single(), duration=2, warmup=0, seed=1, replications=1))
    assert res.events is None


def test_audit_flags_planted_violation():
    scenario = path3(1)
    good = [(100, 0, 0, True, 50), (100, 1, 1, False, 50)]
    assert mutual_exclusion_violations(good, scenario) == []  # same-slot start is legal
    bad = [(100, 0, 0, True, 50), (120, 1, 1, True, 50)]
    assert len(mutual_exclusion_violations(bad, scenario)) == 1
    assert len(label_violations(good, scenario)) == 1  # event labeled success despite rival


# --- contention probe ---------------------------------------------------------------


def test_probe_single_wlan_never_collides():
    records = w.simulate(w.SimConfig(single(), duration=5, warmup=0.5, seed=2, replications=1)).probe
    assert len(records) == 1
    assert records[0].predecessor == 0
    assert records[0].collision_fraction == 0.0


@pytest.fixture(scope="module")
def triangle16_idle_probe():
    """Probe records of attempts from the idle state, three fully overlapped WLANs of 16."""
    config = w.SimConfig(triangle(16), duration=60, warmup=1, seed=123, replications=10)
    return [r for r in w.simulate(config).probe if r.predecessor == 0]


def test_probe_matches_fixed_point_collision_probability(triangle16_idle_probe):
    """Fully overlapped 3x16 nodes: empirical per-attempt collision rate ~ p.

    Pooled over the three symmetric WLANs; the residual ~1.6% is the real
    decoupling bias of the fixed point against the slotted process, so the 2%
    bound needs the pooled (low-noise) estimate.
    """
    point = w.solve_fixed_point(48, 32, 5)
    records = triangle16_idle_probe
    attempts = sum(r.attempts for r in records)
    colls = sum(r.collisions for r in records)
    assert colls / attempts == pytest.approx(point.p, rel=0.02)


def test_probe_success_share_reproduces_gamma(triangle16_idle_probe):
    """1 - (successful airtime)/(stationary occupancy) ~ the analytical discount."""
    report = w.analyze(triangle(16))
    dist = report.stationary
    gamma = report.records[0].gamma  # symmetric: identical for all three
    records = triangle16_idle_probe
    share = sum(r.success_airtime_share for r in records)
    occupancy = sum(dist.prob(1 << r.wlan) for r in records)
    assert 1.0 - share / occupancy == pytest.approx(gamma, rel=0.05)


# --- configuration -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        w.SimConfig(single(), duration=1.0, warmup=2.0)
    with pytest.raises(InvalidParameterError):
        w.SimConfig(single(), replications=0)
    for field, value in (("duration", float("inf")), ("warmup", float("inf")), ("warmup", float("nan")),
                         ("seed", True), ("seed", 1.0), ("replications", True), ("replications", 2.5)):
        with pytest.raises(InvalidParameterError, match=field):
            w.SimConfig(single(), **{field: value})
    config = w.SimConfig(single(), duration=0.2, warmup=0.1, replications=1)
    for jobs in (True, 0, 1.5):
        with pytest.raises(InvalidParameterError, match="jobs"):
            w.simulate(config, jobs=jobs)


def test_config_caps_total_nodes_before_building_them():
    # SimConfig only validates, so neither scenario's nodes are ever allocated
    at_cap = make_scenario(2, [(0, 1)], n_nodes=[w.sim.MAX_SIM_NODES - 1, 1])
    assert w.SimConfig(at_cap).scenario is at_cap
    over = make_scenario(2, [(0, 1)], n_nodes=[w.sim.MAX_SIM_NODES, 1])
    with pytest.raises(InvalidParameterError, match=r"wlans\[1\]\.n_nodes"):
        w.SimConfig(over)


def test_slot_durations_round_to_nearest():
    scenario = single()
    assert slot_durations(scenario.params) == (737, 737)
    short = single(e_t=1e-6, e_tc=4.5e-6)  # floors at one slot / rounds half-even
    assert slot_durations(short.params)[0] == 1
