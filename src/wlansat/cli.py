"""Command-line front end.

Subcommands:

* ``analyze``     -- per-WLAN analytical throughput (CSV/JSON)
* ``simulate``    -- run the CSMA/CA simulator (CSV, optional event log)
* ``sweep``       -- repeat analysis/simulation over a parameter sweep
* ``states``      -- dump the feasible-state space and its maximal states
* ``bianchi``     -- solve one contention fixed point
* ``gamma-curve`` -- (p, gamma) pairs for a growing single-WLAN node pool

Exit codes: 0 success, 1 invalid input (message names the offending field or
argument), 2 numerical failure. With ``--out DIR`` results are written as
files inside ``DIR``; otherwise a readable summary goes to stdout. File output
is deterministic: fixed row order and 6-significant-digit numbers.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import ctmc, throughput
from .bianchi import solve_fixed_point
from .errors import InvalidParameterError, NumericalError, WlansatError
from .scenario import Scenario, Wlan, load_scenario, with_cw_min, with_n_nodes
from .sim import SimConfig, derive_seeds, simulate
from .throughput import analyze

_SWEEP_MODES = ("full", "dominant", "ctmc", "sim")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: which knob to turn, over which values, in which modes."""

    scenario: Scenario
    param: str  # "cw_min" or "n_nodes", applied uniformly to all WLANs
    values: tuple[int, ...]
    modes: tuple[str, ...]
    fix_cw_max: bool = False

    def __post_init__(self) -> None:
        if self.param not in ("cw_min", "n_nodes"):
            raise InvalidParameterError(f"param must be cw_min or n_nodes, got {self.param!r}")
        if self.fix_cw_max and self.param != "cw_min":
            raise InvalidParameterError(f"fix_cw_max applies only to param cw_min, got {self.param!r}")
        if not self.values:
            raise InvalidParameterError("values must not be empty")
        if not self.modes:
            raise InvalidParameterError("modes must not be empty")
        for mode in self.modes:
            if mode not in _SWEEP_MODES:
                raise InvalidParameterError(f"modes entries must be in {_SWEEP_MODES}, got {mode!r}")
        for value in self.values:
            self.apply(value)  # every value must yield a valid scenario

    def apply(self, value: int) -> Scenario:
        if self.param == "cw_min":
            return with_cw_min(self.scenario, value, fixed_cw_max=self.fix_cw_max)
        return with_n_nodes(self.scenario, value)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for numerics."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if getattr(args, "n_nodes", None) is not None:
        scenario = with_n_nodes(scenario, args.n_nodes)
    return scenario


def _x_header(mbps: bool) -> str:
    return "x_mbps" if mbps else "x_bits_per_s"


def _x_scale(mbps: bool) -> float:
    return 1e-6 if mbps else 1.0


def _outdir(args) -> str | None:
    out = getattr(args, "out", None)
    if out is not None:
        os.makedirs(out, exist_ok=True)
    return out


# --- analyze -----------------------------------------------------------------


def _cmd_analyze(args) -> int:
    scenario = _load(args)
    mode = "dominant-only" if args.dominant else "full"
    report = analyze(scenario, mode, collisions=not args.no_collisions)
    scale = _x_scale(args.mbps)
    label = report.mode_label()

    rows = [[w, report.per_wlan[w] * scale, label] for w in sorted(report.per_wlan)]
    detail = [
        [r.wlan, ctmc.format_state(r.state), report.stationary.prob(r.state),
         r.gamma_raw, r.gamma, r.p, r.y]
        for r in report.records
    ]
    out = _outdir(args)
    if out is None:
        print(f"mode: {label}   dominant mass: {_fmt(report.dominant_mass)}")
        for w, x, _ in rows:
            print(f"wlan {w}: {_fmt(x)} {_x_header(args.mbps)}")
        return 0
    _write_csv(os.path.join(out, "analyze.csv"), ["wlan_id", _x_header(args.mbps), "mode"], rows)
    _write_csv(
        os.path.join(out, "analyze_detail.csv"),
        ["wlan_id", "state", "pi", "gamma_raw", "gamma", "p", "y_bits_per_s"],
        detail,
    )
    with open(os.path.join(out, "analyze.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# --- simulate ----------------------------------------------------------------


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    config = SimConfig(
        scenario=scenario,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        replications=args.reps,
    )
    result = simulate(config, record_events=args.events is not None, jobs=args.jobs)
    scale = _x_scale(args.mbps)

    if args.events is not None:
        with open(args.events, "w", encoding="utf-8") as fh:
            fh.write("start_slot,wlan_id,node_id,type,duration_slots\n")
            for start, wlan, node, ok, dur in result.events[0]:
                fh.write(f"{start},{wlan},{node},{'success' if ok else 'collision'},{dur}\n")

    rows = [
        [w, result.throughput[w] * scale, result.stderr[w] * scale,
         result.successes[w], result.collisions[w], "sim"]
        for w in sorted(result.throughput)
    ]
    out = _outdir(args)
    if out is None:
        print(f"reps: {config.replications}   duration: {config.duration}s")
        for w, x, se, s, c, _ in rows:
            print(f"wlan {w}: {_fmt(x)} +- {_fmt(se)} {_x_header(args.mbps)} ({s} ok / {c} lost)")
        return 0
    _write_csv(
        os.path.join(out, "simulate.csv"),
        ["wlan_id", _x_header(args.mbps), "stderr", "successes", "collisions", "mode"],
        rows,
    )
    return 0


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


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise InvalidParameterError(f"jobs must be an integer >= 1, got {args.jobs}")
    scenario = _load(args)
    try:
        values = tuple(int(v) for v in args.values.split(",") if v)
    except ValueError:
        raise InvalidParameterError(
            f"--values must be a comma-separated integer list, got {args.values!r}"
        )
    spec = SweepSpec(
        scenario=scenario,
        param=args.param,
        values=values,
        modes=tuple(m for m in args.modes.split(",") if m),
        fix_cw_max=args.fix_cw_max,
    )

    seeds = derive_seeds(args.seed, len(spec.values))
    work = [
        (spec.apply(value), spec.param, value, spec.modes,
         args.duration, args.warmup, seeds[k], args.reps)
        for k, value in enumerate(spec.values)
    ]
    if args.jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(work))) as pool:
            chunks = list(pool.map(_sweep_point, work))
    else:
        chunks = [_sweep_point(item) for item in work]

    scale = _x_scale(args.mbps)
    rows = [
        [param, value, w, mode, x * scale, se * scale]
        for chunk in chunks
        for param, value, w, mode, x, se in chunk
    ]
    out = _outdir(args)
    header = ["param", "value", "wlan_id", "mode", _x_header(args.mbps), "stderr"]
    if out is None:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        return 0
    _write_csv(os.path.join(out, "sweep.csv"), header, rows)
    return 0


# --- states ------------------------------------------------------------------


def _cmd_states(args) -> int:
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
    out = _outdir(args)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(os.path.join(out, "states.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# --- bianchi -----------------------------------------------------------------


def _cmd_bianchi(args) -> int:
    point = solve_fixed_point(args.n_total, args.cw_min, args.m)
    print(f"n_total={point.n_total} tau={point.tau!r} p={point.p!r} e_b={point.e_b!r}")
    return 0


# --- gamma-curve -------------------------------------------------------------


def _cmd_gamma_curve(args) -> int:
    if args.n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {args.n_max}")
    if args.scenario is not None:
        params = load_scenario(args.scenario).params
    else:
        from .scenario import PhyMacParams

        params = PhyMacParams(
            t_e=9e-6, e_t=6.63e-3, e_tc=6.63e-3, cw_min=32, m=5, l_bits=768000
        )
    if args.cw_min is not None or args.m is not None:
        from dataclasses import replace

        params = replace(
            params,
            cw_min=args.cw_min if args.cw_min is not None else params.cw_min,
            m=args.m if args.m is not None else params.m,
        )

    from .scenario import ConflictGraph

    rows = []
    for n in range(1, args.n_max + 1):
        scenario = Scenario(
            wlans=(Wlan(id=0, n_nodes=n),), graph=ConflictGraph(1, []), params=params
        )
        space = ctmc.enumerate_states(scenario)
        record = throughput.gamma_factor(scenario.wlans[0], 0, scenario, space)
        point = solve_fixed_point(n, params.cw_min, params.m)
        rows.append([n, point.tau, record.p, point.e_b, record.gamma_raw, record.gamma])

    header = ["n_nodes", "tau", "p", "e_b", "gamma_raw", "gamma"]
    out = _outdir(args)
    if out is None:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        return 0
    _write_csv(os.path.join(out, "gamma_curve.csv"), header, rows)
    return 0


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
    p.add_argument("--scenario", default=None, help="take PHY/MAC parameters from this scenario")
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
        return args.func(args)
    except NumericalError as exc:
        print(f"wlansat: numerical failure: {exc}", file=sys.stderr)
        return 2
    except WlansatError as exc:
        print(f"wlansat: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"wlansat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
