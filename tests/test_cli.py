"""Command-line interface: subcommands, file outputs, determinism, exit codes."""

from __future__ import annotations

import csv
import json

import pytest

import wlansat as w
from wlansat import bianchi, cli, throughput
from wlansat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- states / bianchi ----------------------------------------------------------


def test_states_lists_space_and_dominant(capsys):
    code, out, _ = run(capsys, "states", "iii")
    assert code == 0
    assert "states (14):" in out
    assert "dominant (3):" in out
    assert "{0,2}" in out and "{0,3,4}" in out and "{1,3,4}" in out


def test_bianchi_prints_fixed_point(capsys):
    code, out, _ = run(capsys, "bianchi", "--n-total", "1", "--cw-min", "32", "--m", "5")
    assert code == 0
    assert "p=0.0" in out
    assert repr(2.0 / 33.0) in out


@pytest.mark.parametrize("argv", [
    ("bianchi", "--n-total", "96", "--cw-min", "4", "--m", "5"),
    ("analyze", "iii", "--n-nodes", "100000"),
])
def test_collision_probability_rounding_to_one_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out


# --- analyze ---------------------------------------------------------------------


def test_analyze_stdout_and_files(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", "i")
    assert code == 0 and "wlan 0:" in out

    code, _, _ = run(capsys, "analyze", "i", "--out", str(tmp_path))
    assert code == 0
    rows = read_csv(tmp_path / "analyze.csv")
    assert rows[0] == ["wlan_id", "x_bits_per_s", "mode"]
    assert len(rows) == 4 and rows[1][2] == "full"

    detail = read_csv(tmp_path / "analyze_detail.csv")
    assert detail[0] == ["wlan_id", "state", "pi", "gamma_raw", "gamma", "p", "y_bits_per_s"]
    assert len(detail) == 4  # one record per (wlan, state) pair in the triangle

    doc = json.loads((tmp_path / "analyze.json").read_text())
    assert doc["mode"] == "full" and set(doc["per_wlan"]) == {"0", "1", "2"}


def test_analyze_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "analyze", "iii", "--out", str(a))
    run(capsys, "analyze", "iii", "--out", str(b))
    assert (a / "analyze.csv").read_bytes() == (b / "analyze.csv").read_bytes()
    assert (a / "analyze.json").read_bytes() == (b / "analyze.json").read_bytes()


def test_analyze_six_significant_digits(tmp_path, capsys):
    run(capsys, "analyze", "i", "--out", str(tmp_path))
    value = read_csv(tmp_path / "analyze.csv")[1][1]
    assert value == format(float(value), ".6g")


def test_analyze_no_collisions_matches_engine(tmp_path, capsys):
    run(capsys, "analyze", "ii", "--no-collisions", "--out", str(tmp_path))
    rows = read_csv(tmp_path / "analyze.csv")
    assert rows[1][2] == "ctmc-full"
    report = w.analyze(w.bundled_scenario("ii"), collisions=False)
    assert float(rows[1][1]) == pytest.approx(report.per_wlan[0], rel=1e-5)  # 6 sig digits


def test_analyze_mbps_scaling(tmp_path, capsys):
    run(capsys, "analyze", "i", "--mbps", "--out", str(tmp_path))
    rows = read_csv(tmp_path / "analyze.csv")
    assert rows[0][1] == "x_mbps"
    report = w.analyze(w.bundled_scenario("i"))
    assert float(rows[1][1]) == pytest.approx(report.per_wlan[0] / 1e6, rel=1e-5)


def test_analyze_dominant_flag(tmp_path, capsys):
    run(capsys, "analyze", "iii", "--dominant", "--out", str(tmp_path))
    assert read_csv(tmp_path / "analyze.csv")[1][2] == "dominant-only"


def test_n_nodes_override(capsys):
    code, out, _ = run(capsys, "analyze", "i", "--n-nodes", "16")
    assert code == 0
    expected = w.analyze(w.with_n_nodes(w.bundled_scenario("i"), 16)).per_wlan[0]
    assert format(expected, ".6g") in out


# --- simulate ----------------------------------------------------------------------


def test_simulate_writes_csv_and_event_log(tmp_path, capsys):
    events = tmp_path / "events.log"
    code, _, _ = run(
        capsys, "simulate", "i", "--duration", "2", "--warmup", "0.5", "--reps", "2",
        "--seed", "7", "--events", str(events), "--out", str(tmp_path),
    )
    assert code == 0
    rows = read_csv(tmp_path / "simulate.csv")
    assert rows[0] == ["wlan_id", "x_bits_per_s", "stderr", "successes", "collisions", "mode"]
    assert len(rows) == 4 and all(r[5] == "sim" for r in rows[1:])

    lines = events.read_text().splitlines()
    assert lines[0] == "start_slot,wlan_id,node_id,type,duration_slots"
    first = lines[1].split(",")
    assert first[3] in ("success", "collision") and int(first[4]) == 737


def test_simulate_deterministic_for_fixed_seed(tmp_path, capsys):
    args = ("simulate", "ii", "--duration", "2", "--reps", "2", "--warmup", "0.2", "--seed", "3")
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, *args, "--out", str(a))
    run(capsys, *args, "--out", str(b))
    assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()


# --- sweep -------------------------------------------------------------------------


def test_sweep_grid_rows_and_order(tmp_path, capsys):
    code, _, _ = run(
        capsys, "sweep", "ii", "--param", "cw_min", "--values", "16,32",
        "--modes", "full,ctmc,sim", "--duration", "2", "--warmup", "0.5",
        "--reps", "2", "--seed", "5", "--out", str(tmp_path),
    )
    assert code == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0] == ["param", "value", "wlan_id", "mode", "x_bits_per_s", "stderr"]
    body = rows[1:]
    assert len(body) == 2 * 3 * 3  # values x modes x wlans
    assert [r[1] for r in body] == ["16"] * 9 + ["32"] * 9  # assembled in input order
    modes = {r[3] for r in body}
    assert modes == {"full", "ctmc-full", "sim"}


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    args = (
        "sweep", "i", "--param", "n_nodes", "--values", "1,2,4",
        "--modes", "full,sim", "--duration", "1", "--warmup", "0.2",
        "--reps", "1", "--seed", "9",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, *args, "--jobs", "1", "--out", str(a))
    run(capsys, *args, "--jobs", "3", "--out", str(b))
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_fix_cw_max(tmp_path, capsys):
    code, _, _ = run(
        capsys, "sweep", "i", "--param", "cw_min", "--values", "32,64",
        "--modes", "full", "--fix-cw-max", "--out", str(tmp_path),
    )
    assert code == 0
    expected = w.analyze(w.with_cw_min(w.bundled_scenario("i"), 64, fixed_cw_max=True))
    rows = read_csv(tmp_path / "sweep.csv")
    got = float(next(r for r in rows[1:] if r[1] == "64" and r[2] == "0")[4])
    assert got == pytest.approx(expected.per_wlan[0], rel=1e-5)


# --- gamma-curve ----------------------------------------------------------------------


def test_gamma_curve_output(tmp_path, capsys):
    code, _, _ = run(capsys, "gamma-curve", "--n-max", "8", "--out", str(tmp_path))
    assert code == 0
    rows = read_csv(tmp_path / "gamma_curve.csv")
    assert rows[0] == ["n_nodes", "tau", "p", "e_b", "gamma_raw", "gamma"]
    assert len(rows) == 9
    for row in rows[1:]:
        assert float(row[5]) <= float(row[2]) + 1e-9  # gamma <= p along the curve
    ps = [float(r[2]) for r in rows[1:]]
    assert ps == sorted(ps)


def test_gamma_curve_solves_each_row_once(capsys, monkeypatch):
    original = bianchi.solve_fixed_point
    solves = []

    def counting(n_total, cw_min, m):
        solves.append(n_total)
        return original(n_total, cw_min, m)

    for module in (bianchi, throughput, cli):
        monkeypatch.setattr(module, "solve_fixed_point", counting)
    code, _, _ = run(capsys, "gamma-curve", "--n-max", "8")
    assert code == 0
    assert solves == list(range(1, 9))


# --- output path ---------------------------------------------------------------------------


def test_analyze_stdout_builds_no_file_output(capsys, monkeypatch):
    def refuse(*_args):
        raise AssertionError("a file output was built on the stdout path")

    monkeypatch.setattr(w.ThroughputReport, "to_json_dict", refuse)  # analyze.json
    monkeypatch.setattr(w.ctmc, "format_state", refuse)  # analyze_detail.csv
    code, out, _ = run(capsys, "analyze", "iii")
    assert code == 0 and "wlan 4:" in out


@pytest.mark.parametrize("argv", [
    ("analyze", "/no/such/file.json"),
    ("simulate", "iii", "--duration", "inf"),
    ("sweep", "iii", "--values", "4,x"),
    ("states", "/no/such/file.json"),
    ("gamma-curve", "--n-max", "0"),
], ids=["analyze", "simulate", "sweep", "states", "gamma-curve"])
def test_failed_command_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert code == 1 and stdout == ""
    assert not out.exists()


# --- failure modes ----------------------------------------------------------------------


def test_invalid_scenario_exits_one_naming_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "wlans": [{"id": 0, "n_nodes": 1}],
        "edges": [],
        "params": {"t_e_s": 9e-6, "e_t_s": 6.63e-3, "e_tc_s": 6.63e-3,
                   "cw_min": 1, "m": 5, "l_bits": 768000},
    }))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "cw_min" in err


@pytest.mark.parametrize("key,field", [("l_bits", "l_bits"), ("e_t_s", "e_t"), ("t_e_s", "t_e")])
def test_infinite_param_exits_one_naming_field(tmp_path, capsys, key, field):
    params = {"t_e_s": 9e-6, "e_t_s": 6.63e-3, "e_tc_s": 6.63e-3,
              "cw_min": 32, "m": 5, "l_bits": 768000}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "wlans": [{"id": 0, "n_nodes": 1}, {"id": 1, "n_nodes": 1}],
        "edges": [[0, 1]],
        "params": {**params, key: float("inf")},
    }))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and f"{field} must be finite" in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("key,value,field", [
    ("l_bits", 1e308, "l_bits"),
    ("l_bits", 1e306, "l_bits"),  # mu * l_bits stays finite, mu * l_bits * theta does not
    ("e_t_s", 1e308, "e_t"),
    ("e_t_s", 1e-320, "e_t"),
    ("e_tc_s", 1e308, "e_tc"),
    ("t_e_s", 1e-320, "t_e"),
    ("t_e_s", 1e308, "t_e"),
    ("cw_min", 10**400, "cw_min"),
    ("n_nodes", 10**400, "n_nodes"),
], ids=["l_bits-huge", "l_bits-times-theta", "e_t-huge", "e_t-tiny", "e_tc-huge", "t_e-tiny", "t_e-huge", "cw_min-huge", "n_nodes-huge"])
def test_extreme_finite_input_exits_one_naming_field(tmp_path, capsys, command, key, value, field):
    # finite inputs whose derived rates over- or underflow a double
    params = {"t_e_s": 9e-6, "e_t_s": 6.63e-3, "e_tc_s": 6.63e-3,
              "cw_min": 32, "m": 5, "l_bits": 768000}
    n_nodes = value if key == "n_nodes" else 1
    if key != "n_nodes":
        params[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "wlans": [{"id": 0, "n_nodes": n_nodes}, {"id": 1, "n_nodes": 1}],
        "edges": [[0, 1]],
        "params": params,
    }))
    code, out, err = run(capsys, command, str(bad))
    assert code == 1 and out == ""
    assert field in err


def write_linked_pair(tmp_path, n_nodes=(16, 16), **params):
    """Scenario file of 2 linked WLANs with the bundled parameters, some overridden."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "wlans": [{"id": k, "n_nodes": n} for k, n in enumerate(n_nodes)],
        "edges": [[0, 1]],
        "params": {"t_e_s": 9e-6, "e_t_s": 6.63e-3, "e_tc_s": 6.63e-3,
                   "cw_min": 32, "m": 5, "l_bits": 768000, **params},
    }))
    return str(path)


def test_simulated_throughput_overflow_exits_one_naming_l_bits(tmp_path, capsys):
    # analyze answers; the squares in the simulator's standard error overflow
    path = write_linked_pair(tmp_path, l_bits=1e160)
    code, out, err = run(capsys, "simulate", path, "--duration", "3", "--warmup", "0.5", "--reps", "2")
    assert code == 1 and out == ""
    assert "l_bits" in err
    assert run(capsys, "analyze", path)[0] == 0


@pytest.mark.parametrize("n_nodes", [10**12, 10**300], ids=["1e12", "1e300"])
def test_simulator_node_cap_exits_one_naming_field(tmp_path, capsys, n_nodes):
    code, out, err = run(capsys, "simulate", write_linked_pair(tmp_path, n_nodes=(1, n_nodes)))
    assert code == 1 and out == ""
    assert "wlans[1].n_nodes" in err


def test_analyze_accepts_more_nodes_than_the_simulator(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", write_linked_pair(tmp_path, n_nodes=(1, 10**12)))
    assert code == 0 and "wlan 1:" in out


def test_unknown_key_exits_one_naming_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "wlans": [{"id": 0, "n_nodes": 1}],
        "edges": [],
        "params": {"t_e_s": 9e-6, "e_t_s": 6.63e-3, "e_tc_s": 6.63e-3,
                   "cw_min": 32, "m": 5, "l_bits": 768000},
        "comment": "nope",
    }))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and "comment" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "simulate", "/no/such/file.json")
    assert code == 1 and "not found" in err


def test_bad_usage_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_sweep_values_exit_one(capsys):
    code, _, err = run(capsys, "sweep", "i", "--values", "4,x")
    assert code == 1 and "values" in err


@pytest.mark.parametrize("argv,field", [
    (("sweep", "iii", "--values", "4", "--modes", ","), "modes"),
    (("gamma-curve", "--n-max", "0"), "n_max"),
    (("simulate", "iii", "--jobs", "-3"), "jobs"),
    (("sweep", "iii", "--values", "4", "--modes", "full", "--jobs", "0"), "jobs"),
    (("sweep", "iii", "--param", "n_nodes", "--values", "4", "--fix-cw-max"), "fix_cw_max"),
])
def test_empty_or_nonpositive_input_exits_one_naming_field(capsys, argv, field):
    code, _, err = run(capsys, *argv)
    assert code == 1 and field in err


def test_non_finite_duration_exits_one_naming_field(capsys):
    code, _, err = run(capsys, "simulate", "iii", "--duration", "inf")
    assert code == 1 and "duration" in err
