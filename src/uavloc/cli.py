"""Command-line surface.

Subcommands: simulate, solve, plan, crb, mc. Exit codes: 0 success,
2 input error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import fim, slam
from .errors import INPUT_ERRORS, NUMERIC_ERRORS, InvalidParam, NotConverged, SchemaError
from .fim import InfoState, crb_history
from .iofiles import (RunConfig, csv_refusal, export_results, mission_report, parse_run_config,
                      read_measurement_log, write_crb_history)
from .mission import monte_carlo, run_mission, straight_line_path
from .model import require_coordinate, require_prior, within_reach
from .planner import PlannerState, next_waypoint, reach_threshold


def _read_text(path: str) -> str:
    """An input file's UTF-8 text, newlines untranslated, for its format's parser."""
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def _load_config(args) -> RunConfig:
    """The config of --scenario; --seed, where taken and given, replaces its seed."""
    return parse_run_config(_read_text(args.scenario), seed=getattr(args, "seed", None))


def _mission_kwargs(rc: RunConfig, args) -> dict:
    mode = "greedy" if args.mode == "greedy" else straight_line_path(rc.scenario)
    return {"mode": mode, "toa_path": args.toa, "solve_every": rc.solve_every,
            "eps_prior": rc.eps_prior, "slam_cfg": rc.slam, "planner_headings": rc.headings}


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_simulate(args) -> int:
    rc = _load_config(args)
    result = run_mission(rc.scenario, **_mission_kwargs(rc, args))
    files = export_results(result, rc.scenario, args.out)
    _emit(mission_report(result) | {"files": files}, args.json)
    return 0


def _cmd_solve(args) -> int:
    rc = _load_config(args)
    samples = read_measurement_log(_read_text(args.log))
    if not samples:
        raise SchemaError("measurement log contains no rows")
    init = slam.initial_state(samples)
    slam.check_identifiability(samples)
    state, report = slam.solve_slam(init, samples, rc.slam)
    if not report.converged:
        raise NotConverged("no stopping test met", report=report)
    payload = {
        "converged": report.converged,
        "iterations": report.iterations,
        "trials": report.trials,
        "final_objective": report.objective_trace[-1],
        "users": {str(uid): list(map(float, state.users[j]))
                  for j, uid in enumerate(samples.user_ids)},
        "uav_steps": list(samples.steps),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "solution.json"), "w") as f:
            json.dump(payload | {
                "uav": {str(st): list(map(float, state.uav[i]))
                        for i, st in enumerate(samples.steps)},
            }, f, indent=2)
    _emit(payload, args.json)
    return 0


def _planner_state(doc, rc: RunConfig) -> PlannerState:
    """PlannerState from a state JSON document; SchemaError if malformed."""
    if not isinstance(doc, dict):
        raise SchemaError("state JSON must be an object")
    missing = [k for k in ("step", "pos", "fim", "user_estimates") if k not in doc]
    if missing:
        raise SchemaError(f"state JSON lacks {', '.join(missing)}")
    s = rc.scenario
    step = doc["step"]
    if type(step) is not int or not 1 <= step < s.mission_steps:
        raise SchemaError(f"state 'step' must be an integer in 1..{s.mission_steps - 1}")
    try:
        arrays = {k: np.asarray(doc[k], dtype=float) for k in ("pos", "user_estimates", "fim")}
    except (TypeError, ValueError, OverflowError):
        raise SchemaError("state 'pos', 'user_estimates' and 'fim' must hold numbers") from None
    users = arrays["user_estimates"]
    k = len(users) if users.ndim else 0
    shapes = {"pos": (3,), "user_estimates": (max(k, 1), 2), "fim": (2 * k, 2 * k)}
    for key, arr in arrays.items():
        if arr.shape != shapes[key] or not np.all(np.isfinite(arr)):
            raise SchemaError(f"state '{key}' must be finite numbers of shape {shapes[key]}")
    require_coordinate("state.pos", *arrays["pos"].tolist())
    terminal = s.uav_terminal.as_array()
    dist = float(np.linalg.norm(arrays["pos"] - terminal))
    # every mission state passes; from here the planner's fallback hop is within d_max
    if not within_reach(dist, s.d_max, s.mission_steps - step):
        reach = reach_threshold(step, s.mission_steps, s.d_max)
        raise InvalidParam("state.pos", f"must lie within d_max*(N - step) = {reach:.6g} m of "
                           f"uav_terminal, not {dist:.6g} m")
    require_coordinate("state.user_estimates", *users.ravel().tolist())
    # a JSON string or bool is refused, not converted
    eps = float(require_prior("state.eps_prior", doc.get("eps_prior", rc.eps_prior)))
    # the planner reads only the diagonal 2x2 blocks of fim
    info = InfoState(step=step, fim=arrays["fim"], eps_prior=eps)
    if not np.array_equal(info.fim, arrays["fim"]):
        raise SchemaError("state 'fim' must be block-diagonal: every 2x2 block "
                          "off the diagonal must be zero")
    if np.any(info.blocks[:, 0, 1] != info.blocks[:, 1, 0]):
        raise SchemaError("state 'fim' must have symmetric 2x2 diagonal blocks")
    # fim's verdict; a singular state is left to the planner, a numeric failure
    must = {"not positive semidefinite": "positive semidefinite 2x2 diagonal blocks",
            "CRB trace overflow": "2x2 diagonal blocks whose CRB trace is finite"}
    if (reason := fim.refusal(info.blocks, eps)) in must:
        raise SchemaError(f"state 'fim' must have {must[reason]}")
    return PlannerState(step=step, pos=arrays["pos"], terminal=terminal,
                        mission_steps=s.mission_steps, d_max=s.d_max, info=info,
                        user_estimates=users, noise_model=s.toa_noise, headings=rc.headings)


def _cmd_plan(args) -> int:
    rc = _load_config(args)
    wp = next_waypoint(_planner_state(json.loads(_read_text(args.state)), rc))
    _emit({"next_waypoint": [float(v) for v in wp]}, args.json)
    return 0


def _read_xyz_csv(path: str, header: list[str]) -> np.ndarray:
    """One or more rows of finite numbers under an exact header."""
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path))))
    except csv.Error as exc:  # a lone carriage return, a field over csv's size limit
        raise SchemaError(f"{path}: unreadable CSV: {csv_refusal(exc)}") from None
    if not rows or rows[0] != header:
        raise SchemaError(f"{path}: header must be exactly {','.join(header)}")
    rows = [row for row in rows[1:] if row]
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        data = None
    # an empty list of rows gives shape (0,), which the shape test rejects
    if data is None or data.shape != (len(rows), len(header)) or not np.all(np.isfinite(data)):
        raise SchemaError(f"{path}: expected one or more rows of {len(header)} finite numbers")
    require_coordinate(path, *data[:, 1:].ravel().tolist())
    return data


def _cmd_crb(args) -> int:
    rc = _load_config(args)
    traj = _read_xyz_csv(args.trajectory, ["step", "x", "y", "z"])
    users = _read_xyz_csv(args.users, ["user_id", "x", "y"])
    if not np.array_equal(traj[:, 0], np.arange(1, len(traj) + 1)):  # the history's numbering
        raise SchemaError(f"{args.trajectory}: steps must be 1, 2, ..., N in order")
    ids = users[:, 0]
    if ids.min() < 1 or np.any(ids % 1) or len(np.unique(ids)) < len(ids):
        raise SchemaError(f"{args.users}: user ids must be distinct integers >= 1")
    history = crb_history(traj[:, 1:], users[:, 1:], rc.scenario.toa_noise,
                          rc.eps_prior).tolist()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = write_crb_history(history, args.out)
        _emit({"crb_history_file": path, "final_crb_trace_m2": history[-1]}, args.json)
    else:
        _emit({"crb_history_m2": history}, args.json)
    return 0


def _cmd_mc(args) -> int:
    rc = _load_config(args)
    summary = monte_carlo(rc.scenario, runs=args.runs, **_mission_kwargs(rc, args))
    _emit({"runs": summary.runs, "stats": summary.stats}, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uavloc",
                                description="UAV-aided user localization simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=False, seed=True):
        sp.add_argument("--scenario", required=True, help="scenario YAML file")
        if seed:  # only where a number is drawn
            sp.add_argument("--seed", type=int, default=None, help="replaces the scenario's seed")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if out_required is not None:
            sp.add_argument("--out", required=out_required, default=None, help="output directory")

    sp = sub.add_parser("simulate", help="run one mission and export results")
    common(sp, out_required=True)
    sp.add_argument("--mode", choices=["greedy", "fixed"], default="greedy",
                    help="'fixed' flies the straight start-terminal line")
    sp.add_argument("--toa", choices=["ideal", "nr"], default="ideal")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("solve", help="SLAM estimate from a measurement log")
    common(sp, seed=False)
    sp.add_argument("--log", required=True, help="measurement log CSV")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("plan", help="next waypoint from a planner state JSON")
    common(sp, out_required=None, seed=False)
    sp.add_argument("--state", required=True, help="JSON with step, pos, fim, user_estimates")
    sp.set_defaults(func=_cmd_plan)

    sp = sub.add_parser("crb", help="CRB trace history for a trajectory")
    common(sp, seed=False)
    sp.add_argument("--trajectory", required=True, help="CSV: step,x,y,z")
    sp.add_argument("--users", required=True, help="CSV: user_id,x,y")
    sp.set_defaults(func=_cmd_crb)

    sp = sub.add_parser("mc", help="Monte Carlo batch of missions")
    common(sp, out_required=None)
    sp.add_argument("--runs", type=int, required=True)
    sp.add_argument("--mode", choices=["greedy", "fixed"], default="greedy")
    sp.add_argument("--toa", choices=["ideal", "nr"], default="ideal")
    sp.set_defaults(func=_cmd_mc)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*INPUT_ERRORS, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input whose arrays the host cannot allocate
        print("error: not enough memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if isinstance(exc, NotConverged):
            print(f"iterations: {exc.report.iterations}, trials: {exc.report.trials}, "
                  f"last step norm: {exc.report.final_step_norm:.3e}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
