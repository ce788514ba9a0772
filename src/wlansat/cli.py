"""Command-line front end.

Subcommands, and the files each one writes with ``--out DIR``:

* ``analyze``     -- per-WLAN analytical throughput (analyze.csv, analyze_detail.csv, analyze.json)
* ``simulate``    -- run the CSMA/CA simulator (simulate.csv)
* ``sweep``       -- repeat analysis/simulation over a parameter sweep (sweep.csv)
* ``states``      -- dump the feasible-state space and its maximal states (states.txt)
* ``bianchi``     -- solve one contention fixed point (stdout only)
* ``gamma-curve`` -- (p, gamma) pairs for a growing single-WLAN node pool (gamma_curve.csv)

Each command returns its stdout text and its output files. Only :func:`main`
emits them, once the command has succeeded: it prints the text, or with
``--out DIR`` creates ``DIR`` and renders and writes the files there.
``simulate --events FILE`` writes its event log either way. Exit codes: 0
success, 1 invalid input (message names the offending field or argument), 2
numerical failure. Output is deterministic: fixed row order, 6 significant
digits, CRLF line ends in CSV files and LF on stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import ctmc, throughput
from .bianchi import BianchiPoint, solve_fixed_point
from .errors import InvalidParameterError, NumericalError, WlansatError
from .scenario import ConflictGraph, Scenario, Wlan, bundled_scenario, load_scenario, with_cw_min, with_n_nodes
from .sim import SimConfig, derive_seeds, simulate
from .throughput import analyze

_SWEEP_MODES = ("full", "dominant", "ctmc", "sim")

#: A command's stdout text and its output files (file name -> renders its text).
_Output = tuple[str, dict[str, Callable[[], str]]]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for numerics."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _csv(header: list[str], rows: list[list], newline: str = "\r\n") -> str:
    """One table as CSV text: CRLF line ends for files, LF for stdout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(header)
    writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if getattr(args, "n_nodes", None) is not None:
        scenario = with_n_nodes(scenario, args.n_nodes)
    return scenario


def _x_unit(mbps: bool) -> tuple[str, float]:
    """Throughput column name and the factor from bits/s to its unit."""
    return ("x_mbps", 1e-6) if mbps else ("x_bits_per_s", 1.0)


# --- analyze -----------------------------------------------------------------


def _cmd_analyze(args) -> _Output:
    scenario = _load(args)
    mode = "dominant-only" if args.dominant else "full"
    report = analyze(scenario, mode, collisions=not args.no_collisions)
    x_col, scale = _x_unit(args.mbps)
    label = report.mode_label()

    rows = [[w, report.per_wlan[w] * scale, label] for w in sorted(report.per_wlan)]
    text = f"mode: {label}   dominant mass: {_fmt(report.dominant_mass)}\n"
    text += "".join(f"wlan {w}: {_fmt(x)} {x_col}\n" for w, x, _ in rows)

    def detail() -> str:  # one row per transition
        header = ["wlan_id", "state", "pi", "gamma_raw", "gamma", "p", "y_bits_per_s"]
        return _csv(header, [
            [r.wlan, ctmc.format_state(r.state), report.stationary.prob(r.state), r.gamma_raw, r.gamma, r.p, r.y]
            for r in report.records
        ])

    return text, {
        "analyze.csv": lambda: _csv(["wlan_id", x_col, "mode"], rows),
        "analyze_detail.csv": detail,
        "analyze.json": lambda: json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
    }


# --- simulate ----------------------------------------------------------------


def _cmd_simulate(args) -> _Output:
    scenario = _load(args)
    config = SimConfig(
        scenario=scenario,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        replications=args.reps,
    )
    result = simulate(config, record_events=args.events is not None, jobs=args.jobs)

    if args.events is not None:
        with open(args.events, "w", encoding="utf-8") as fh:
            fh.write("start_slot,wlan_id,node_id,type,duration_slots\n")
            for start, wlan, node, ok, dur in result.events[0]:
                fh.write(f"{start},{wlan},{node},{'success' if ok else 'collision'},{dur}\n")

    x_col, scale = _x_unit(args.mbps)
    rows = [
        [w, result.throughput[w] * scale, result.stderr[w] * scale,
         result.successes[w], result.collisions[w], "sim"]
        for w in sorted(result.throughput)
    ]
    text = f"reps: {config.replications}   duration: {config.duration}s\n"
    text += "".join(
        f"wlan {w}: {_fmt(x)} +- {_fmt(se)} {x_col} ({s} ok / {c} lost)\n" for w, x, se, s, c, _ in rows
    )
    return text, {"simulate.csv": lambda: _csv(["wlan_id", x_col, "stderr", "successes", "collisions", "mode"], rows)}


# --- sweep -------------------------------------------------------------------


def _sweep_point(packed):
    scenario, param, value, modes, duration, warmup, seed, reps = packed
    rows = []
    for mode in modes:
        if mode == "sim":
            result = simulate(SimConfig(scenario, duration, warmup, seed, reps))
            for w in sorted(result.throughput):
                rows.append([param, value, w, "sim", result.throughput[w], result.stderr[w]])
        else:
            report = analyze(
                scenario,
                "dominant-only" if mode == "dominant" else "full",
                collisions=mode != "ctmc",
            )
            for w in sorted(report.per_wlan):
                rows.append([param, value, w, report.mode_label(), report.per_wlan[w], 0.0])
    return rows


def _cmd_sweep(args) -> _Output:
    if args.jobs < 1:
        raise InvalidParameterError(f"jobs must be an integer >= 1, got {args.jobs}")
    scenario = _load(args)
    try:
        values = tuple(int(v) for v in args.values.split(",") if v)
    except ValueError:
        raise InvalidParameterError(
            f"--values must be a comma-separated integer list, got {args.values!r}"
        )
    modes = tuple(m for m in args.modes.split(",") if m)
    if args.fix_cw_max and args.param != "cw_min":
        raise InvalidParameterError(f"fix_cw_max applies only to param cw_min, got {args.param!r}")
    for name, items in (("values", values), ("modes", modes)):
        if not items:
            raise InvalidParameterError(f"{name} must not be empty")
    for mode in modes:
        if mode not in _SWEEP_MODES:
            raise InvalidParameterError(f"modes entries must be in {_SWEEP_MODES}, got {mode!r}")
    # --param is cw_min or n_nodes (argparse choices); every value must yield a valid scenario
    if args.param == "cw_min":
        scenarios = [with_cw_min(scenario, value, fixed_cw_max=args.fix_cw_max) for value in values]
    else:
        scenarios = [with_n_nodes(scenario, value) for value in values]

    work = [
        (point_scenario, args.param, value, modes, args.duration, args.warmup, seed, args.reps)
        for point_scenario, value, seed in zip(scenarios, values, derive_seeds(args.seed, len(values)))
    ]
    if args.jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(work))) as pool:
            chunks = list(pool.map(_sweep_point, work))
    else:
        chunks = [_sweep_point(item) for item in work]

    x_col, scale = _x_unit(args.mbps)
    rows = [
        [param, value, w, mode, x * scale, se * scale]
        for chunk in chunks
        for param, value, w, mode, x, se in chunk
    ]
    header = ["param", "value", "wlan_id", "mode", x_col, "stderr"]
    return _csv(header, rows, "\n"), {"sweep.csv": lambda: _csv(header, rows)}


# --- states ------------------------------------------------------------------


def _cmd_states(args) -> _Output:
    scenario = _load(args)
    space = ctmc.enumerate_states(scenario)
    dominant = ctmc.dominant_states(space)
    dist = ctmc.stationary_product_form(space, scenario.thetas())
    restricted = throughput.dominant_closure(space)

    lines = [f"states ({len(space)}):"]
    lines += [f"  {ctmc.format_state(s)}  pi={_fmt(dist.prob(s))}" for s in space.states]
    lines.append(f"dominant ({len(dominant)}):")
    lines += [f"  {ctmc.format_state(s)}" for s in dominant]
    lines.append(
        f"occupancy mass of dominant states and their predecessors: "
        f"{_fmt(ctmc.occupancy_mass(dist, restricted))}"
    )
    text = "\n".join(lines) + "\n"
    return text, {"states.txt": lambda: text}


# --- bianchi -----------------------------------------------------------------


def _cmd_bianchi(args) -> _Output:
    point = solve_fixed_point(args.n_total, args.cw_min, args.m)
    return f"n_total={point.n_total} tau={point.tau!r} p={point.p!r} e_b={point.e_b!r}\n", {}


# --- gamma-curve -------------------------------------------------------------


def _cmd_gamma_curve(args) -> _Output:
    if args.n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {args.n_max}")
    params = (bundled_scenario("iii") if args.scenario is None else load_scenario(args.scenario)).params
    overrides = {"cw_min": args.cw_min, "m": args.m}
    params = replace(params, **{k: v for k, v in overrides.items() if v is not None})

    rows = []
    points: dict[int, BianchiPoint] = {}
    for n in range(1, args.n_max + 1):
        scenario = Scenario(
            wlans=(Wlan(id=0, n_nodes=n),), graph=ConflictGraph(1, []), params=params
        )
        space = ctmc.enumerate_states(scenario)
        record = throughput.gamma_factor(scenario.wlans[0], 0, scenario, space, points=points)
        point = points[n]
        rows.append([n, point.tau, record.p, point.e_b, record.gamma_raw, record.gamma])

    header = ["n_nodes", "tau", "p", "e_b", "gamma_raw", "gamma"]
    return _csv(header, rows, "\n"), {"gamma_curve.csv": lambda: _csv(header, rows)}


# --- wiring ------------------------------------------------------------------


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario JSON path or bundled name (scenario1/i, ...)")
    p.add_argument("--n-nodes", type=int, default=None, help="override n_nodes of every WLAN")
    p.add_argument("--out", default=None, help="output directory (default: print to stdout)")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--duration", type=float, default=60.0, help="simulated seconds (default 60)")
    p.add_argument("--warmup", type=float, default=1.0, help="discarded warmup seconds (default 1)")
    p.add_argument("--reps", type=int, default=10, help="replications (default 10)")
    p.add_argument("--seed", type=int, default=1, help="master RNG seed (default 1)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wlansat", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analytical per-WLAN throughput")
    _add_scenario_args(p)
    p.add_argument("--dominant", action="store_true", help="restrict to dominant states + predecessors")
    p.add_argument("--no-collisions", action="store_true", help="force gamma = 0 (occupancy model only)")
    p.add_argument("--mbps", action="store_true", help="report Mbps instead of bits/s")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run the CSMA/CA simulator")
    _add_scenario_args(p)
    _add_sim_args(p)
    p.add_argument("--events", default=None, metavar="FILE", help="write replication 0's event log")
    p.add_argument("--mbps", action="store_true", help="report Mbps instead of bits/s")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="sweep cw_min or n_nodes across modes")
    _add_scenario_args(p)
    _add_sim_args(p)
    p.add_argument("--param", choices=("cw_min", "n_nodes"), default="cw_min")
    p.add_argument("--values", required=True, help="comma-separated integer values")
    p.add_argument("--modes", default="full,ctmc,sim", help=f"subset of {','.join(_SWEEP_MODES)}")
    p.add_argument("--fix-cw-max", action="store_true",
                   help="keep cw_max constant while sweeping cw_min (default: keep m)")
    p.add_argument("--mbps", action="store_true", help="report Mbps instead of bits/s")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("states", help="dump feasible and dominant states")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("bianchi", help="solve one contention fixed point")
    p.add_argument("--n-total", type=int, required=True)
    p.add_argument("--cw-min", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_bianchi)

    p = sub.add_parser("gamma-curve", help="(p, gamma) vs node count for one WLAN")
    p.add_argument("--scenario", default=None, help="take PHY/MAC parameters from this scenario (default: the bundled ones)")
    p.add_argument("--cw-min", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n-max", type=int, default=50, help="sweep n_nodes from 1 to this (default 50)")
    p.add_argument("--out", default=None, help="output directory (default: print to stdout)")
    p.set_defaults(func=_cmd_gamma_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, files = args.func(args)
        if getattr(args, "out", None) is None:
            sys.stdout.write(text)
        else:
            os.makedirs(args.out, exist_ok=True)
            for name, render in files.items():
                with open(os.path.join(args.out, name), "w", newline="", encoding="utf-8") as fh:
                    fh.write(render())
    except NumericalError as exc:
        print(f"wlansat: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (WlansatError, OSError) as exc:
        print(f"wlansat: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
