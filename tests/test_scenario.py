"""Domain model: parameter validation, rates, JSON round-trips, bundled files."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wlansat as w
from wlansat import InvalidParameterError, StateSpaceTooLargeError

from conftest import make_params, make_scenario

GOLDEN = dict(t_e_s=9e-6, e_t_s=6.63e-3, e_tc_s=6.63e-3, cw_min=32, m=5, l_bits=768000)


# --- rates -------------------------------------------------------------------


def test_lambda_single_node_default_window():
    lam = w.lambda_of(w.Wlan(0, 1), make_params())
    assert lam == pytest.approx(7168.458781362007, rel=1e-12)


def test_lambda_scales_linearly_with_nodes():
    p = make_params()
    assert w.lambda_of(w.Wlan(0, 16), p) == pytest.approx(16 * w.lambda_of(w.Wlan(0, 1), p), rel=1e-12)


def test_lambda_trivial_window():
    # cw_min=3 makes the per-attempt mean one slot of one second
    p = make_params(t_e=1.0, cw_min=3)
    assert w.lambda_of(w.Wlan(0, 1), p) == 1.0


def test_theta_default_parameters():
    th = w.theta_of(w.Wlan(0, 1), make_params())
    assert th == pytest.approx(47.526881720430104, rel=1e-12)


def test_theta_unity_when_rates_match():
    p = make_params(t_e=1.0, e_t=1.0, e_tc=1.0, cw_min=3)  # lambda = 1 = mu
    assert w.theta_of(w.Wlan(0, 1), p) == 1.0


def test_theta_doubles_with_nodes():
    p = make_params()
    assert w.theta_of(w.Wlan(0, 8), p) == pytest.approx(2 * w.theta_of(w.Wlan(0, 4), p), rel=1e-12)


@given(
    n_nodes=st.integers(1, 64),
    cw_min=st.integers(2, 8192),
    t_e=st.floats(1e-7, 1e-3),
    e_t=st.floats(1e-5, 1e-1),
)
def test_theta_is_lambda_over_mu_exactly(n_nodes, cw_min, t_e, e_t):
    p = make_params(t_e=t_e, e_t=e_t, e_tc=e_t, cw_min=cw_min)
    wl = w.Wlan(0, n_nodes)
    assert w.theta_of(wl, p) == w.lambda_of(wl, p) / p.mu


@pytest.mark.parametrize("cw_pair", [(2, 3), (16, 32), (1024, 8192)])
def test_lambda_monotone_in_window(cw_pair):
    lo, hi = cw_pair
    assert w.lambda_of(w.Wlan(0, 1), make_params(cw_min=lo)) > w.lambda_of(
        w.Wlan(0, 1), make_params(cw_min=hi)
    )


def test_lambda_monotone_in_nodes():
    p = make_params()
    values = [w.lambda_of(w.Wlan(0, n), p) for n in range(1, 8)]
    assert all(a < b for a, b in zip(values, values[1:]))


# --- validation --------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [dict(cw_min=1), dict(cw_min=0), dict(m=-1), dict(t_e=0.0), dict(e_t=-1.0),
     dict(e_tc=0.0), dict(l_bits=0), dict(cw_min=2.5), dict(m=1.5),
     dict(t_e=math.inf), dict(e_t=math.inf), dict(e_tc=math.inf), dict(l_bits=math.inf),
     dict(l_bits=10**400)],
)
def test_bad_params_rejected(overrides):
    (field,) = overrides
    with pytest.raises(InvalidParameterError, match=field):
        make_params(**overrides)


def test_bad_wlan_rejected():
    with pytest.raises(InvalidParameterError):
        w.Wlan(0, 0)
    with pytest.raises(InvalidParameterError):
        w.Wlan(-1, 1)


def test_graph_rejects_self_edge_and_unknown_ids():
    with pytest.raises(InvalidParameterError):
        w.ConflictGraph(3, [(1, 1)])
    with pytest.raises(InvalidParameterError):
        w.ConflictGraph(3, [(0, 3)])
    with pytest.raises(InvalidParameterError):
        w.ConflictGraph(3, [(0, True)])
    for n_wlans in (2.5, True, "3"):
        with pytest.raises(InvalidParameterError, match="n_wlans"):
            w.ConflictGraph(n_wlans, [])


def test_graph_equality_ignores_edge_order_and_repeats():
    g = w.ConflictGraph(3, [(0, 1), (1, 2)])
    for same in (w.ConflictGraph(3, [(2, 1), (1, 0)]), w.ConflictGraph(3, [(0, 1), (1, 0), (2, 1)]),
                 w.ConflictGraph(3, {(1, 2), (0, 1)})):
        assert same == g and hash(same) == hash(g)
        assert same.edges == ((0, 1), (1, 2))
    assert w.ConflictGraph(4, [(0, 1), (1, 2)]) != g


def test_scenario_requires_dense_ids():
    with pytest.raises(InvalidParameterError):
        w.Scenario(
            wlans=(w.Wlan(0, 1), w.Wlan(2, 1)),
            graph=w.ConflictGraph(2, []),
            params=make_params(),
        )


def test_scenario_wlan_cap():
    with pytest.raises(StateSpaceTooLargeError):
        make_scenario(25, [])


def test_graph_size_must_match():
    with pytest.raises(InvalidParameterError):
        w.Scenario(
            wlans=(w.Wlan(0, 1),),
            graph=w.ConflictGraph(2, []),
            params=make_params(),
        )


@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1])))
def test_graph_adjacency_symmetric(edges):
    g = w.ConflictGraph(7, edges)
    for a in range(7):
        for b in range(7):
            assert g.adjacent(a, b) == g.adjacent(b, a)
            if a == b:
                assert not g.adjacent(a, b)


# --- scenario files ----------------------------------------------------------


def golden_doc():
    return {
        "wlans": [{"id": 0, "n_nodes": 2}, {"id": 1, "n_nodes": 3}],
        "edges": [[0, 1]],
        "params": dict(GOLDEN),
    }


def test_scenario_roundtrip():
    s = w.scenario_from_dict(golden_doc())
    assert w.scenario_to_dict(s) == golden_doc()


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(golden_doc()))
    s = w.load_scenario(str(path))
    assert s.n_wlans == 2 and s.graph.adjacent(0, 1)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.pop("edges"), "edges"),
        (lambda d: d["params"].update(bogus=2), "bogus"),
        (lambda d: d["params"].pop("cw_min"), "cw_min"),
        (lambda d: d["wlans"][0].update(name="ap"), "name"),
        (lambda d: d["wlans"][0].pop("n_nodes"), "n_nodes"),
    ],
)
def test_unknown_or_missing_keys_rejected_naming_field(mutate, field):
    doc = golden_doc()
    mutate(doc)
    with pytest.raises(InvalidParameterError, match=field):
        w.scenario_from_dict(doc)


def test_missing_file_is_invalid_input():
    with pytest.raises(InvalidParameterError, match="not found"):
        w.load_scenario("/nonexistent/path.json")


@pytest.mark.parametrize(
    "name, n_states_edges",
    [("scenario1", 3), ("i", 3), ("scenario2", 2), ("II", 2), ("iii", 4)],
)
def test_bundled_names_resolve(name, n_states_edges):
    assert len(w.bundled_scenario(name).graph.edges) == n_states_edges


def test_bundled_files_encode_reference_setups():
    s1, s2, s3 = (w.bundled_scenario(k) for k in ("i", "ii", "iii"))
    assert s1.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert s2.graph.edges == ((0, 1), (1, 2))
    assert s3.graph.edges == ((0, 1), (1, 2), (2, 3), (2, 4))
    for s in (s1, s2, s3):
        p = s.params
        assert (p.l_bits, p.e_t, p.e_tc, p.cw_min, p.m, p.t_e) == (
            768000, 6.63e-3, 6.63e-3, 32, 5, 9e-6
        )


def test_with_n_nodes_and_with_cw_min():
    s = w.with_n_nodes(w.bundled_scenario("i"), 4)
    assert all(wl.n_nodes == 4 for wl in s.wlans)
    s2 = w.with_cw_min(s, 64)
    assert s2.params.cw_min == 64 and s2.params.m == 5
    s3 = w.with_cw_min(s, 64, fixed_cw_max=True)  # cw_max stays 1024
    assert s3.params.cw_min == 64 and s3.params.m == 4
    with pytest.raises(InvalidParameterError):
        w.with_cw_min(s, 48, fixed_cw_max=True)
