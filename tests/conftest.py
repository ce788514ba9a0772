"""Shared fixtures and scenario builders for the test suite."""

from __future__ import annotations

import math

import pytest

from wlansat import ConflictGraph, PhyMacParams, Scenario, Wlan

#: 802.11ac-style defaults used throughout: 9 us slots, 6.63 ms payload
#: airtime, 768 kbit per access, CW 32..1024.
DEFAULTS = dict(t_e=9e-6, e_t=6.63e-3, e_tc=6.63e-3, cw_min=32, m=5, l_bits=768000)


def make_params(**overrides) -> PhyMacParams:
    return PhyMacParams(**{**DEFAULTS, **overrides})


def make_scenario(n_wlans, edges, n_nodes=1, **param_overrides) -> Scenario:
    """Uniform scenario over an explicit edge list."""
    counts = [n_nodes] * n_wlans if isinstance(n_nodes, int) else list(n_nodes)
    return Scenario(
        wlans=tuple(Wlan(id=i, n_nodes=counts[i]) for i in range(n_wlans)),
        graph=ConflictGraph(n_wlans, edges),
        params=make_params(**param_overrides),
    )


def triangle(n_nodes=1, **overrides) -> Scenario:
    """Three fully overlapping WLANs."""
    return make_scenario(3, [(0, 1), (0, 2), (1, 2)], n_nodes, **overrides)


def path3(n_nodes=1, **overrides) -> Scenario:
    """Three WLANs in a line; the middle one overlaps both ends."""
    return make_scenario(3, [(0, 1), (1, 2)], n_nodes, **overrides)


def extended_path(n_nodes=1, **overrides) -> Scenario:
    """The 5-WLAN layout: a line plus two extra WLANs hanging off WLAN 2."""
    return make_scenario(5, [(0, 1), (1, 2), (2, 3), (2, 4)], n_nodes, **overrides)


def single(n_nodes=1, **overrides) -> Scenario:
    return make_scenario(1, [], n_nodes, **overrides)


def grid3x3() -> Scenario:
    """9 APs on a square grid of spacing 1/3; each hears its grid neighbours."""
    points = [(c / 3, r / 3) for r in range(3) for c in range(3)]
    edges = [(a, b) for a in range(9) for b in range(a + 1, 9) if math.dist(points[a], points[b]) < 0.35]
    return make_scenario(9, edges, n_nodes=4)


@pytest.fixture
def params() -> PhyMacParams:
    return make_params()
