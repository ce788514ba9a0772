"""Throughput engine: contender sets, conditional throughput, gamma, analyze."""

from __future__ import annotations

import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlansat as w
from wlansat import ContractViolationError, throughput

from conftest import extended_path, grid3x3, make_scenario, path3, single, triangle


def spaces(scenario):
    return scenario, w.enumerate_states(scenario)


# --- contender sets -------------------------------------------------------------


def test_contenders_triangle_at_empty():
    _, space = spaces(triangle())
    assert w.contender_set(0, 0, space) == (1, 2)


def test_contenders_path_middle_blocks():
    # WLAN 2 entering while 0 is active: 1 is blocked by 0, so nobody contends
    _, space = spaces(path3())
    assert w.contender_set(2, 0b001, space) == ()


def test_contenders_extended_path():
    # WLAN 2 entering while 0 is active: 1 blocked, 3 and 4 free
    _, space = spaces(extended_path())
    assert w.contender_set(2, 0b00001, space) == (3, 4)


def test_contender_contract_violations():
    _, space = spaces(path3())
    with pytest.raises(ContractViolationError):
        w.contender_set(0, 0b001, space)  # wlan already active
    with pytest.raises(ContractViolationError):
        w.contender_set(1, 0b100, space)  # {1, 2} is not feasible


# --- conditional throughput -------------------------------------------------------


def test_conditional_throughput_isolated_single_node(params):
    # renewal cycle collapses to E[B] empty slots plus one transmission
    y = w.conditional_throughput(w.Wlan(0, 1), 0, params)
    assert y == pytest.approx(113450033.23731443, rel=1e-12)


def test_conditional_throughput_symmetric_split(params):
    # three fully overlapping single-node WLANs each carry a third of the pool
    y_one = w.conditional_throughput(w.Wlan(0, 1), 2, params)
    y_all = w.conditional_throughput(w.Wlan(0, 3), 0, params)
    assert y_one == pytest.approx(y_all / 3.0, rel=1e-12)


def test_conditional_throughput_against_slot_level_monte_carlo(params):
    """Slot process sampled directly with the solved tau pins Eq-level algebra."""
    point = w.solve_fixed_point(48, params.cw_min, params.m)
    rng = np.random.default_rng(987654321)
    slots = 2_000_000
    k_tx = rng.binomial(48, point.tau, size=slots)
    duration = np.where(k_tx == 0, params.t_e, np.where(k_tx == 1, params.e_t, params.e_tc)).sum()
    tagged_successes = (rng.random(int((k_tx == 1).sum())) < 16 / 48).sum()
    y_mc = tagged_successes * params.l_bits / duration
    y = w.conditional_throughput(w.Wlan(0, 16), 32, params)
    assert y == pytest.approx(y_mc, rel=5e-3)


# --- gamma -----------------------------------------------------------------------


@pytest.mark.parametrize("cw", [4, 16, 32, 256, 8192])
def test_gamma_exactly_zero_for_isolated_single_node(cw):
    scenario, space = spaces(single(cw_min=cw))
    record = w.gamma_factor(scenario.wlans[0], 0, scenario, space)
    assert abs(record.gamma_raw) < 1e-9
    assert 0.0 <= record.gamma < 1e-9  # clamp keeps positive rounding noise
    assert record.contenders == () and record.k_nodes == 0


def test_gamma_vanishes_for_large_windows():
    gammas = []
    for cw in (32, 256, 8192):
        scenario, space = spaces(triangle(16, cw_min=cw))
        gammas.append(w.gamma_factor(scenario.wlans[0], 0, scenario, space).gamma)
    assert gammas[0] > gammas[1] > gammas[2]
    assert gammas[-1] < 0.02


def test_gamma_curve_stays_below_collision_probability():
    # one WLAN, growing node pool: the discount is a normalized (smaller) loss
    for n in range(1, 33):
        scenario, space = spaces(single(n))
        record = w.gamma_factor(scenario.wlans[0], 0, scenario, space)
        assert record.gamma_raw <= record.p + 1e-9
        assert 0.0 <= record.gamma <= 1.0


def test_gamma_record_structure():
    scenario, space = spaces(extended_path(16))
    record = w.gamma_factor(scenario.wlans[2], 0b00001, scenario, space)
    assert record.state == 0b00101 and record.predecessor == 0b00001
    assert record.contenders == (3, 4) and record.k_nodes == 32
    assert record.wlan == 2


# --- analyze ----------------------------------------------------------------------


def test_analyze_triangle_closed_form():
    scenario = triangle(16)
    report = w.analyze(scenario)
    theta = scenario.thetas()[0]
    gamma = report.records[0].gamma
    expected = scenario.params.mu * scenario.params.l_bits * theta * (1 - gamma) / (1 + 3 * theta)
    for x in report.per_wlan.values():
        assert x == pytest.approx(expected, rel=1e-12)


def test_analyze_path3_closed_forms():
    scenario = path3(16)
    report = w.analyze(scenario)
    th = scenario.thetas()[0]
    mu_l = scenario.params.mu * scenario.params.l_bits
    z = 1 + 3 * th + th * th
    by_key = {(r.wlan, r.predecessor): r.gamma for r in report.records}
    x_b = mu_l * th * (1 - by_key[(1, 0)]) / z
    x_a = mu_l * (th * (1 - by_key[(0, 0)]) + th * th * (1 - by_key[(0, 0b100)])) / z
    assert report.per_wlan[1] == pytest.approx(x_b, rel=1e-12)
    assert report.per_wlan[0] == pytest.approx(x_a, rel=1e-12)
    assert report.per_wlan[2] == pytest.approx(x_a, rel=1e-12)


def test_analyze_symmetry_triangle():
    report = w.analyze(triangle(16))
    xs = list(report.per_wlan.values())
    assert abs(xs[0] - xs[1]) <= 1e-9 * xs[0]
    assert abs(xs[1] - xs[2]) <= 1e-9 * xs[1]


def test_analyze_no_collisions_reproduces_occupancy_model():
    scenario = path3(16)
    report = w.analyze(scenario, collisions=False)
    space = w.enumerate_states(scenario)
    dist = w.stationary_product_form(space, scenario.thetas())
    mu_l = scenario.params.mu * scenario.params.l_bits
    for i in report.per_wlan:
        expected = sum(dist.prob(s) for s in space.states if s >> i & 1) * mu_l
        assert report.per_wlan[i] == pytest.approx(expected, rel=1e-12)
    assert all(r.gamma == 0.0 for r in report.records)
    assert report.mode_label() == "ctmc-full"


def test_throughput_never_exceeds_channel_capacity():
    for scenario in (triangle(16), path3(16), extended_path(16), single(16, cw_min=4)):
        report = w.analyze(scenario)
        cap = scenario.params.mu * scenario.params.l_bits
        for x in report.per_wlan.values():
            assert 0.0 <= x <= cap


def test_contributions_sum_to_totals():
    report = w.analyze(extended_path(16))
    contributions = report.to_json_dict()["contributions"]
    for i, x in report.per_wlan.items():
        total = math.fsum(c["term_bits_per_s"] for c in contributions if c["wlan"] == i)
        assert abs(total - x) <= 1e-12 * max(1.0, x)


def test_throughput_non_increasing_as_blocking_edges_added():
    # growing WLAN 0's neighborhood can only hurt WLAN 0
    graphs = [
        [],
        [(0, 1)],
        [(0, 1), (0, 2)],
        [(0, 1), (0, 2), (0, 3)],
    ]
    values = []
    for edges in graphs:
        report = w.analyze(make_scenario(4, edges, n_nodes=8))
        values.append(report.per_wlan[0])
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_dominant_mode_matches_full_on_reference_layouts():
    for build in (triangle, path3, extended_path):
        scenario = build(16)
        full = w.analyze(scenario)
        reduced = w.analyze(scenario, "dominant-only")
        assert reduced.mode == "dominant-only"
        assert 0.0 < reduced.dominant_mass <= 1.0
        for i in full.per_wlan:
            assert reduced.per_wlan[i] == pytest.approx(full.per_wlan[i], rel=0.05)


def test_dominant_mode_skips_isolated_singletons():
    # in the 5-WLAN layout the bare singletons {1}, {3}, {4} are neither
    # dominant nor predecessors of a dominant state
    report = w.analyze(extended_path(16), "dominant-only")
    states_for_1 = {r.state for r in report.records if r.wlan == 1}
    assert 0b00010 not in states_for_1
    full_states_for_1 = {r.state for r in w.analyze(extended_path(16)).records if r.wlan == 1}
    assert 0b00010 in full_states_for_1


def test_report_json_mirror_roundtrips():
    report = w.analyze(path3(4))
    doc = report.to_json_dict()
    assert doc["mode"] == "full" and doc["collisions"] is True
    assert set(doc["per_wlan"]) == {"0", "1", "2"}
    assert len(doc["contributions"]) == len(report.records)
    assert len(doc["gamma_records"]) == len(report.records)


def test_reports_compare_by_value():
    # pi is a numpy array, so its elementwise == must not leak into report equality
    scenario = w.bundled_scenario("iii")
    assert w.analyze(scenario) == w.analyze(scenario)
    assert (w.analyze(scenario) == w.analyze(w.with_cw_min(scenario, 64))) is False


def test_analyze_rejects_unknown_mode():
    with pytest.raises(ContractViolationError):
        w.analyze(path3(), "fastest")


def test_analyze_rejects_space_of_another_scenario():
    with pytest.raises(ContractViolationError, match="space"):
        w.analyze(path3(16), space=w.enumerate_states(path3(4)))


# --- one gamma per (WLAN, contender set) ----------------------------------------


def per_transition_analyze(scenario, mode, collisions):
    """``analyze`` without grouping: one ``gamma_factor`` call per transition.

    Returns ``(per_wlan, records, terms)`` built in the same order and with the
    same arithmetic as ``analyze``; ``terms`` maps each WLAN to its additive
    terms in summation order.
    """
    space = w.enumerate_states(scenario)
    thetas = scenario.thetas()
    dist = w.stationary_product_form(space, thetas)
    mu_l = scenario.params.mu * scenario.params.l_bits
    wanted = throughput.dominant_closure(space) if mode == "dominant-only" else None
    records = []
    terms = {wlan.id: [] for wlan in scenario.wlans}
    for s in space.states:
        if not s or (wanted is not None and s not in wanted):
            continue
        for i in w.state_members(s):
            predecessor = s & ~(1 << i)
            if collisions:
                record = w.gamma_factor(scenario.wlans[i], predecessor, scenario, space)
            else:
                contenders = w.contender_set(i, predecessor, space)
                local_z = 1.0 + thetas[i] + sum(thetas[j] for j in contenders)
                record = w.GammaRecord(
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
            terms[i].append(dist.prob(s) * (1.0 - record.gamma) * mu_l)
    per_wlan = {i: math.fsum(values) for i, values in terms.items()}
    return per_wlan, tuple(records), terms


def geometric(n_wlans, seed):
    """APs placed uniformly in the unit square, in conflict below distance 0.4."""
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n_wlans)]
    edges = [
        (a, b) for a in range(n_wlans) for b in range(a + 1, n_wlans)
        if math.dist(points[a], points[b]) < 0.4
    ]
    return make_scenario(n_wlans, edges, [rng.randint(1, 4) for _ in range(n_wlans)])


def assert_matches_per_transition_reference(scenario, mode, collisions):
    per_wlan, records, terms = per_transition_analyze(scenario, mode, collisions)
    report = w.analyze(scenario, mode, collisions=collisions)
    assert report.per_wlan == per_wlan
    assert report.records == records
    contributions = report.to_json_dict()["contributions"]
    for i, wlan_terms in terms.items():
        assert [c["term_bits_per_s"] for c in contributions if c["wlan"] == i] == wlan_terms


@pytest.mark.parametrize("name", ["i", "ii", "iii"])
@pytest.mark.parametrize("cw", [4, 32, 1024])
@pytest.mark.parametrize("mode", ["full", "dominant-only"])
@pytest.mark.parametrize("collisions", [True, False])
def test_keyed_analyze_equals_reference_on_bundled(name, cw, mode, collisions):
    scenario = w.with_cw_min(w.bundled_scenario(name), cw)
    assert_matches_per_transition_reference(scenario, mode, collisions)


@pytest.mark.parametrize("n_wlans,seed", [(10, 1), (12, 4)])
@pytest.mark.parametrize("mode", ["full", "dominant-only"])
@pytest.mark.parametrize("collisions", [True, False])
def test_keyed_analyze_equals_reference_on_geometric(n_wlans, seed, mode, collisions):
    assert_matches_per_transition_reference(geometric(n_wlans, seed), mode, collisions)


def test_analyze_solves_gamma_once_per_key(monkeypatch):
    scenario = grid3x3()
    space = w.enumerate_states(scenario)
    keys = {
        (i, w.contender_set(i, s & ~(1 << i), space))
        for s in space.states
        for i in w.state_members(s)
    }
    original = throughput.gamma_factor
    original_solve = throughput.solve_fixed_point
    calls = []
    solves = []

    def counting(wlan, predecessor, scenario, space, **kwargs):
        calls.append((wlan.id, predecessor))
        return original(wlan, predecessor, scenario, space, **kwargs)

    def counting_solve(n_total, cw_min, m):
        solves.append(n_total)
        return original_solve(n_total, cw_min, m)

    monkeypatch.setattr(throughput, "gamma_factor", counting)
    monkeypatch.setattr(throughput, "solve_fixed_point", counting_solve)
    report = w.analyze(scenario, space=space)
    assert len(calls) == len(keys) == 46
    pool_sizes = {r.k_nodes + scenario.wlans[r.wlan].n_nodes for r in report.records}
    assert len(solves) == len(pool_sizes) == 5
    assert len(report.records) == 152


UNEQUAL = Path(__file__).resolve().parent / "golden" / "unequal.json"


@pytest.mark.parametrize("load", [
    lambda: w.bundled_scenario("iii"),
    lambda: w.load_scenario(str(UNEQUAL)),  # WLANs of 1-16 nodes: equal pools from other mixes
], ids=["iii", "unequal"])
def test_analyze_keeps_no_pool_points_between_calls(load):
    scenario = load()
    later = w.with_cw_min(scenario, 16)
    per_wlan, records, _ = per_transition_analyze(later, "full", True)
    w.analyze(w.with_cw_min(scenario, 32))
    report = w.analyze(later)
    assert report.per_wlan == per_wlan
    assert report.records == records


@pytest.mark.parametrize("load", [
    lambda: w.bundled_scenario("iii"),
    lambda: w.load_scenario(str(UNEQUAL)),
], ids=["iii", "unequal"])
def test_analyze_with_shared_points_equals_fresh_calls(load):
    scenario = load()
    points = {}
    for mode, collisions in (("full", True), ("dominant-only", True), ("full", False)):
        shared = w.analyze(scenario, mode, collisions=collisions, points=points)
        fresh = w.analyze(scenario, mode, collisions=collisions)
        assert shared.per_wlan == fresh.per_wlan
        assert shared.records == fresh.records
        assert shared.dominant_mass == fresh.dominant_mass
    assert points  # the first call filled the dict the others read


@pytest.mark.parametrize("load", [
    lambda: w.bundled_scenario("iii"),
    lambda: w.load_scenario(str(UNEQUAL)),
], ids=["iii", "unequal"])
def test_analyze_shares_points_across_cw_min_and_m(load):
    # equal pool sizes under another cw_min or m must not reuse each other's fixed point
    scenario = load()
    points = {}
    for cw_min, m in ((32, 5), (16, 5), (16, 3)):
        varied = replace(scenario, params=replace(scenario.params, cw_min=cw_min, m=m))
        shared = w.analyze(varied, points=points)
        fresh = w.analyze(varied)
        assert shared.per_wlan == fresh.per_wlan
        assert shared.records == fresh.records
    assert {key[1:] for key in points} == {(32, 5), (16, 5), (16, 3)}


@st.composite
def small_scenarios(draw):
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return make_scenario(n, edges)


@given(small_scenarios())
@settings(max_examples=60, deadline=None)
def test_key_mask_members_equal_contender_set(scenario):
    # with collisions off each record's contenders are the members of its key mask
    space = w.enumerate_states(scenario)
    report = w.analyze(scenario, collisions=False, space=space)
    assert len(report.records) == sum(s.bit_count() for s in space.states)
    for record in report.records:
        assert record.contenders == w.contender_set(record.wlan, record.predecessor, space)
