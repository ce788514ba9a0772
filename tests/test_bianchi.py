"""Contention fixed point: backoff forms, solver vs bisection oracle, slot probabilities."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wlansat as w
from wlansat import InvalidParameterError


# --- independent oracle --------------------------------------------------------
#
# The oracle deliberately mirrors nothing from the implementation: the mean
# backoff uses the rational closed form (divided by 1 - 2p) and the root is
# found by plain bisection on g(tau) = tau - 1/(e_b(p(tau)) + 1), which is
# strictly increasing.


def rational_backoff(p, cw_min, m):
    return (1.0 - p - p * (2.0 * p) ** m) / (1.0 - 2.0 * p) * cw_min / 2.0 - 0.5


def bisect_tau(n_total, cw_min, m, steps=200):
    def g(tau):
        p = 1.0 - (1.0 - tau) ** (n_total - 1)
        if abs(1.0 - 2.0 * p) < 1e-12:  # dodge the removable singularity
            p += 1e-9
        return tau - 1.0 / (rational_backoff(p, cw_min, m) + 1.0)

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- expected backoff ----------------------------------------------------------


def test_backoff_no_collisions():
    assert w.expected_backoff(0.0, 32, 5) == 15.5


def test_backoff_at_the_removable_singularity():
    # polynomial form is exact at p = 1/2: (1 + 0.5 * 5) * 16 - 0.5
    assert w.expected_backoff(0.5, 32, 5) == 55.5
    # and continuous through it: the rational form evaluated nearby agrees
    for p in (0.5 - 1e-6, 0.5 + 1e-6):
        assert rational_backoff(p, 32, 5) == pytest.approx(55.5, rel=1e-5)


def test_backoff_m_zero_never_grows():
    for p in (0.0, 0.3, 0.9):
        assert w.expected_backoff(p, 32, 0) == 15.5


@given(p=st.floats(0.0, 0.999), cw=st.sampled_from([2, 4, 32, 256, 8192]), m=st.integers(0, 8))
@settings(max_examples=300)
def test_backoff_stable_form_matches_rational_form(p, cw, m):
    assume(abs(1.0 - 2.0 * p) > 1e-4)
    assert w.expected_backoff(p, cw, m) == pytest.approx(rational_backoff(p, cw, m), rel=1e-9)


def test_backoff_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        w.expected_backoff(1.0, 32, 5)
    with pytest.raises(InvalidParameterError):
        w.expected_backoff(-0.1, 32, 5)
    with pytest.raises(InvalidParameterError):
        w.expected_backoff(0.2, 1, 5)


# --- fixed point -----------------------------------------------------------------


@pytest.mark.parametrize("cw", [4, 16, 32, 256, 8192])
def test_single_node_is_exact(cw):
    point = w.solve_fixed_point(1, cw, 5)
    assert point.p == 0.0
    assert point.tau == 2.0 / (cw + 1.0)
    assert point.e_b == (cw - 1.0) / 2.0


def test_two_nodes_default_window_frozen_value():
    # frozen from the bisection oracle above (200 steps)
    point = w.solve_fixed_point(2, 32, 5)
    assert point.tau == pytest.approx(0.05704432071981774, abs=1e-9)
    assert point.p == pytest.approx(0.05704432071981769, abs=1e-9)
    # for two nodes p = 1 - (1 - tau)^1 = tau
    assert point.p == pytest.approx(point.tau, abs=1e-12)


def test_m_zero_fixed_point_is_explicit():
    # with m = 0 the backoff is p-independent: tau = 1/(cw/2 + 0.5) exactly
    point = w.solve_fixed_point(32, 4, 0)
    assert point.tau == pytest.approx(0.4, abs=1e-12)
    assert point.p == pytest.approx(1.0 - 0.6**31, rel=1e-12)


@pytest.mark.parametrize("n_total", [1, 2, 4, 8, 16, 32, 48])
@pytest.mark.parametrize("cw", [4, 16, 32, 256, 8192])
@pytest.mark.parametrize("m", [0, 5])
def test_solver_matches_bisection_oracle(n_total, cw, m):
    point = w.solve_fixed_point(n_total, cw, m)
    assert point.tau == pytest.approx(bisect_tau(n_total, cw, m), abs=1e-9)
    # residuals of both defining equations
    assert abs(point.tau - 1.0 / (point.e_b + 1.0)) <= 1e-10
    assert abs(point.p - (1.0 - (1.0 - point.tau) ** (n_total - 1))) <= 1e-10


@pytest.mark.parametrize("n_total", [1, 2, 3, 10, 96, 100, 1000, 3000, 10_000])
def test_solver_large_pools_stay_in_domain(n_total):
    # up to 10^4 nodes at small windows (1 - tau)^(n_total - 1) underflows
    # and p rounds to 1.0; the solve must still return a residual-free point
    for cw in (2, 3, 4, 8, 16, 32):
        for m in range(8):
            point = w.solve_fixed_point(n_total, cw, m)
            assert 0.0 <= point.p <= 1.0
            assert abs(point.tau - 1.0 / (point.e_b + 1.0)) <= 1e-10
            assert abs(point.p - (1.0 - (1.0 - point.tau) ** (n_total - 1))) <= 1e-10


def test_solver_at_rounded_unit_collision_probability():
    # the true p is 1 - 3^-999, which rounds to 1.0; with m = 0, e_b = cw/2 - 1/2
    point = w.solve_fixed_point(1000, 2, 0)
    assert point.p == 1.0
    assert point.e_b == 0.5
    assert point.tau == 1.0 / 1.5


def test_collision_probability_monotone_in_pool_size():
    ps = [w.solve_fixed_point(n, 32, 5).p for n in (1, 2, 4, 8, 16, 32, 64)]
    assert all(a <= b for a, b in zip(ps, ps[1:]))


def test_tau_monotone_in_window():
    taus = [w.solve_fixed_point(8, cw, 5).tau for cw in (4, 8, 16, 64, 1024, 8192)]
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def test_solver_rejects_bad_inputs():
    for bad in [(0, 32, 5), (4, 1, 5), (4, 32, -1)]:
        with pytest.raises(InvalidParameterError):
            w.solve_fixed_point(*bad)


# --- slot probabilities ----------------------------------------------------------


def test_slot_probabilities_single_node():
    point = w.solve_fixed_point(1, 32, 5)
    a, b, c, d = w.slot_probabilities(point, 1)
    assert a == pytest.approx(1.0 - point.tau, abs=1e-15)
    assert b == pytest.approx(point.tau, abs=1e-15)
    assert d == b
    assert c == pytest.approx(0.0, abs=1e-15)


def test_slot_probabilities_half_tau_binomial():
    point = w.BianchiPoint(n_total=2, tau=0.5, p=0.5, e_b=1.0)
    a, b, c, d = w.slot_probabilities(point, 1)
    assert (a, b, c, d) == (0.25, 0.5, 0.25, 0.25)


@pytest.mark.parametrize("n_total,n_tagged", [(48, 16), (3, 1), (7, 7), (10, 3)])
def test_slot_probability_invariants(n_total, n_tagged):
    point = w.solve_fixed_point(n_total, 32, 5)
    a, b, c, d = w.slot_probabilities(point, n_tagged)
    assert a + b + c == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= d <= b
    assert d / b == pytest.approx(n_tagged / n_total, rel=1e-12)


def test_slot_probabilities_rejects_bad_tagged_count():
    point = w.solve_fixed_point(4, 32, 5)
    for bad in (0, 5):
        with pytest.raises(InvalidParameterError):
            w.slot_probabilities(point, bad)
