"""State enumeration, product-form distribution, and the generator oracle."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlansat as w
from wlansat import ContractViolationError, InvalidParameterError, StateSpaceTooLargeError

from conftest import extended_path, make_scenario, path3, single, triangle


def masks(space):
    return [w.format_state(s) for s in space.states]


# --- enumeration -------------------------------------------------------------


def test_triangle_has_empty_plus_singletons():
    space = w.enumerate_states(triangle())
    assert len(space) == 4
    assert masks(space) == ["{}", "{0}", "{1}", "{2}"]


def test_two_isolated_wlans_enumerate_all_subsets():
    space = w.enumerate_states(make_scenario(2, []))
    assert masks(space) == ["{}", "{0}", "{1}", "{0,1}"]


def test_path3_five_states():
    space = w.enumerate_states(path3())
    assert masks(space) == ["{}", "{0}", "{1}", "{2}", "{0,2}"]


def test_extended_path_fourteen_states():
    space = w.enumerate_states(extended_path())
    assert len(space) == 14
    assert space.size_histogram() == [1, 5, 6, 2]


def test_order_is_size_then_value():
    space = w.enumerate_states(make_scenario(3, [(0, 1)]))
    sizes = [s.bit_count() for s in space.states]
    assert sizes == sorted(sizes)
    for k in set(sizes):
        level = [s for s in space.states if s.bit_count() == k]
        assert level == sorted(level)


@st.composite
def random_scenarios(draw):
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return make_scenario(n, edges)


@given(random_scenarios())
@settings(max_examples=60)
def test_enumeration_downward_closed_and_feasible(scenario):
    space = w.enumerate_states(scenario)
    seen = set(space.states)
    assert len(seen) == len(space.states)
    assert 0 in seen
    for s in space.states:
        for i in w.state_members(s):
            assert s & ~(1 << i) in seen  # removing any member stays feasible
            for j in w.state_members(s):
                if i < j:
                    assert not scenario.graph.adjacent(i, j)


# --- dominant states ----------------------------------------------------------


def test_dominant_triangle_is_every_singleton():
    space = w.enumerate_states(triangle())
    assert [w.format_state(s) for s in w.dominant_states(space)] == ["{0}", "{1}", "{2}"]


def test_dominant_disconnected_is_full_set():
    space = w.enumerate_states(make_scenario(4, []))
    assert w.dominant_states(space) == (0b1111,)


def test_dominant_path3():
    space = w.enumerate_states(path3())
    assert [w.format_state(s) for s in w.dominant_states(space)] == ["{1}", "{0,2}"]


def test_dominant_extended_path():
    space = w.enumerate_states(extended_path())
    assert [w.format_state(s) for s in w.dominant_states(space)] == ["{0,2}", "{0,3,4}", "{1,3,4}"]


@given(random_scenarios())
@settings(max_examples=60)
def test_dominant_matches_bruteforce_maximality(scenario):
    space = w.enumerate_states(scenario)
    dominant = set(w.dominant_states(space))
    for s in space.states:
        has_superset = any(z != s and z & s == s for z in space.states)
        assert (s in dominant) == (not has_superset)


# --- stationary distribution ---------------------------------------------------


def test_product_form_single_wlan_theta_one():
    space = w.enumerate_states(single(cw_min=3, t_e=1.0, e_t=1.0, e_tc=1.0))
    dist = w.stationary_product_form(space, [1.0])
    assert dist.prob(0) == pytest.approx(0.5, abs=1e-15)
    assert dist.prob(1) == pytest.approx(0.5, abs=1e-15)


def test_product_form_triangle_normalizer():
    scenario = triangle()
    theta = scenario.thetas()[0]
    dist = w.stationary_product_form(w.enumerate_states(scenario), scenario.thetas())
    assert dist.prob(0) == pytest.approx(1.0 / (1.0 + 3.0 * theta), rel=1e-12)
    for s in (0b001, 0b010, 0b100):
        assert dist.prob(s) == pytest.approx(theta / (1.0 + 3.0 * theta), rel=1e-12)


def test_product_form_extended_path_normalizer():
    scenario = extended_path()
    th = scenario.thetas()[0]
    dist = w.stationary_product_form(w.enumerate_states(scenario), scenario.thetas())
    z = 1.0 + 5.0 * th + 6.0 * th**2 + 2.0 * th**3
    assert dist.prob(0) == pytest.approx(1.0 / z, rel=1e-12)


def test_product_form_rejects_bad_theta():
    space = w.enumerate_states(single())
    for bad in ([0.0], [-1.0], [float("nan")], [float("inf")]):
        with pytest.raises(InvalidParameterError):
            w.stationary_product_form(space, bad)


def test_product_form_overflow_raises():
    # no log-domain fallback: a weight past double range is a hard error,
    # and the error is the only signal (numpy's overflow warning is silenced)
    space = w.enumerate_states(make_scenario(2, []))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(w.NumericalError, match="weight overflowed"):
            w.stationary_product_form(space, [1e200, 1e200])


def test_product_form_normalizer_overflow_raises():
    # every weight is finite (1, 1e308, 1, 1e308) but their sum is not
    space = w.enumerate_states(make_scenario(2, []))
    with pytest.raises(w.NumericalError, match="normalizing constant"):
        w.stationary_product_form(space, [1e308, 1.0])


def test_generator_solve_single_wlan():
    scenario = single()
    space = w.enumerate_states(scenario)
    theta = scenario.thetas()[0]
    dist = w.stationary_generator_solve(space, scenario.lambdas(), scenario.params.mu)
    assert dist.prob(0) == pytest.approx(1.0 / (1.0 + theta), rel=1e-12)
    assert dist.prob(1) == pytest.approx(theta / (1.0 + theta), rel=1e-12)


@pytest.mark.parametrize("build", [triangle, path3, extended_path])
@pytest.mark.parametrize("n_nodes", [1, 16])
def test_generator_solve_matches_product_form(build, n_nodes):
    scenario = build(n_nodes)
    space = w.enumerate_states(scenario)
    by_form = w.stationary_product_form(space, scenario.thetas())
    by_solve = w.stationary_generator_solve(space, scenario.lambdas(), scenario.params.mu)
    assert np.max(np.abs(by_form.pi - by_solve.pi)) < 1e-9


@given(random_scenarios(), st.floats(0.05, 100.0))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_random_graphs(scenario, theta):
    space = w.enumerate_states(scenario)
    thetas = [theta * (1 + 0.1 * i) for i in range(scenario.n_wlans)]
    mu = scenario.params.mu
    lambdas = [t * mu for t in thetas]
    by_form = w.stationary_product_form(space, thetas)
    by_solve = w.stationary_generator_solve(space, lambdas, mu)
    assert np.max(np.abs(by_form.pi - by_solve.pi)) < 1e-9


@given(random_scenarios())
@settings(max_examples=40)
def test_normalization_and_detailed_balance(scenario):
    space = w.enumerate_states(scenario)
    thetas = scenario.thetas()
    dist = w.stationary_product_form(space, thetas)
    assert abs(math.fsum(dist.pi.tolist()) - 1.0) < 1e-12
    assert np.all(dist.pi >= 0) and np.all(dist.pi <= 1)
    for s in space.states:
        for i in range(scenario.n_wlans):
            up = s | 1 << i
            if not s >> i & 1 and up in space:
                ratio = dist.prob(up) / dist.prob(s)
                assert ratio == pytest.approx(thetas[i], rel=1e-9)


@given(random_scenarios(), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_relabeling_equivariance(scenario, rnd):
    n = scenario.n_wlans
    perm = list(range(n))
    rnd.shuffle(perm)
    relabeled = make_scenario(
        n,
        [(perm[a], perm[b]) for a, b in scenario.graph.edges],
        n_nodes=[scenario.wlans[perm.index(i)].n_nodes for i in range(n)],
    )
    dist = w.stationary_product_form(w.enumerate_states(scenario), scenario.thetas())
    dist2 = w.stationary_product_form(w.enumerate_states(relabeled), relabeled.thetas())
    for s in dist.space.states:
        image = 0
        for i in w.state_members(s):
            image |= 1 << perm[i]
        assert dist2.prob(image) == pytest.approx(dist.prob(s), rel=1e-12, abs=1e-300)


def test_generator_solve_state_cap():
    scenario = make_scenario(13, [])  # 2^13 = 8192 states
    space = w.enumerate_states(scenario)
    assert len(space) == 8192
    with pytest.raises(StateSpaceTooLargeError):
        w.stationary_generator_solve(space, scenario.lambdas(), scenario.params.mu)


def test_infeasible_state_is_a_contract_violation_naming_it():
    scenario = w.bundled_scenario("iii")
    dist = w.stationary_product_form(w.enumerate_states(scenario), scenario.thetas())
    assert not scenario.graph.adjacent(0, 2) and scenario.graph.adjacent(0, 1)
    assert dist.prob(0b101) > 0
    with pytest.raises(ContractViolationError, match=r"\{0,1\} is not a feasible state"):
        dist.prob(0b011)
    with pytest.raises(ContractViolationError, match=r"\{0,1\} is not a feasible state"):
        w.occupancy_mass(dist, [0, 0b011])


def test_negative_mask_is_a_contract_violation():
    with pytest.raises(ContractViolationError, match="got -1"):
        w.state_members(-1)
    with pytest.raises(ContractViolationError, match="got -4"):
        w.format_state(-4)


def test_occupancy_mass_counts_each_state_once():
    scenario = path3()
    space = w.enumerate_states(scenario)
    dist = w.stationary_product_form(space, scenario.thetas())
    assert w.occupancy_mass(dist, list(space.states) + [0]) == pytest.approx(1.0, abs=1e-12)


# --- the mask-array passes against per-state loops ------------------------------


def reference_layer(scenario, thetas):
    """States, index, dominant states and pi from one Python step per state.

    A copy of the per-state loops the mask-array passes replaced; their
    outputs must be reproduced exactly, not to a tolerance.
    """
    n = scenario.n_wlans
    adj = [scenario.graph.neighbor_mask(i) for i in range(n)]
    states, level = [0], [0]
    while level:
        nxt = [s | 1 << j for s in level for j in range(s.bit_length(), n) if not adj[j] & s]
        nxt.sort()
        states.extend(nxt)
        level = nxt
    dominant = tuple(
        s for s in states if not any(not (s >> j & 1) and not (adj[j] & s) for j in range(n))
    )
    weights = []
    for s in states:
        weight = 1.0
        for i in range(n):
            if s >> i & 1:
                weight *= thetas[i]
        weights.append(weight)
    pi = np.asarray(weights, dtype=float) / math.fsum(sorted(weights, reverse=True))
    return tuple(states), {s: k for k, s in enumerate(states)}, dominant, pi


def seeded_graph(n, density, seed=0):
    rnd = random.Random(seed)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return make_scenario(n, [e for e in pairs if rnd.random() < density])


def disjoint_triangles(k):
    """``k`` disjoint triangles: 4^k states, masks up to bit 3k - 1."""
    return make_scenario(3 * k, [(t + a, t + b) for t in range(0, 3 * k, 3) for a, b in ((0, 1), (0, 2), (1, 2))])


LAYER_CASES = {
    **{name: lambda name=name: w.bundled_scenario(name) for name in ("i", "ii", "iii")},
    **{
        f"seeded-{n}-{density}": lambda n=n, density=density: seeded_graph(n, density, seed=100 * n)
        for n, density in [(1, 0.0), (4, 0.5), (7, 0.3), (10, 0.1), (12, 0.6), (15, 0.25), (18, 0.4), (20, 0.3)]
    },
    "edgeless-20": lambda: seeded_graph(20, 0.0),
    "clique-20": lambda: seeded_graph(20, 1.0),
    "triangles-24": lambda: disjoint_triangles(8),  # 65,536 states, bit 23 in use
}


@pytest.mark.parametrize("case", sorted(LAYER_CASES))
def test_mask_passes_equal_per_state_loops(case):
    scenario = LAYER_CASES[case]()
    rnd = random.Random(case)
    thetas = [rnd.uniform(0.05, 20.0) for _ in range(scenario.n_wlans)]
    states, index, dominant, pi = reference_layer(scenario, thetas)
    space = w.enumerate_states(scenario)
    assert space.states == states
    assert space.index == index
    assert w.dominant_states(space) == dominant
    assert np.array_equal(w.stationary_product_form(space, thetas).pi, pi)
