"""Command-line surface: parses arguments, runs a subcommand and maps its
errors to exit codes; iofiles reads and writes every file.

Subcommands: simulate, solve, plan, crb, mc. Exit codes: 0 success,
2 input error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import sys

from . import iofiles, slam
from .errors import INPUT_ERRORS, NUMERIC_ERRORS, NotConverged, SchemaError
from .fim import crb_history
from .mission import monte_carlo, run_mission, straight_line_path
from .planner import next_waypoint


def _load_config(args) -> iofiles.RunConfig:
    """The config of --scenario; --seed, where taken and given, replaces its seed."""
    text = iofiles.read_text(args.scenario)
    return iofiles.parse_run_config(text, seed=getattr(args, "seed", None))


def _mission_kwargs(rc: iofiles.RunConfig, args) -> dict:
    mode = "greedy" if args.mode == "greedy" else straight_line_path(rc.scenario)
    return {"mode": mode, "toa_path": args.toa, "solve_every": rc.solve_every,
            "eps_prior": rc.eps_prior, "slam_cfg": rc.slam, "planner_headings": rc.headings}


# a subcommand takes the config of --scenario and the arguments, and returns what main prints
def _cmd_simulate(rc: iofiles.RunConfig, args) -> dict:
    result = run_mission(rc.scenario, **_mission_kwargs(rc, args))
    files = iofiles.export_results(result, rc.scenario, args.out)
    return iofiles.mission_report(result) | {"files": files}


def _cmd_solve(rc: iofiles.RunConfig, args) -> dict:
    samples = iofiles.read_measurement_log(iofiles.read_text(args.log))
    if not samples:
        raise SchemaError("measurement log contains no rows")
    init = slam.initial_state(samples)
    slam.check_identifiability(samples)
    state, report = slam.solve_slam(init, samples, rc.slam)
    if not report.converged:
        raise NotConverged("no stopping test met", report=report)
    if args.out:
        iofiles.export_solution(samples, state, report, args.out)
    return iofiles.solve_report(samples, state, report)


def _cmd_plan(rc: iofiles.RunConfig, args) -> dict:
    wp = next_waypoint(iofiles.read_planner_state(iofiles.read_text(args.state), rc))
    return {"next_waypoint": [float(v) for v in wp]}


def _cmd_crb(rc: iofiles.RunConfig, args) -> dict:
    traj = iofiles.read_trajectory(iofiles.read_text(args.trajectory), args.trajectory)
    users = iofiles.read_users(iofiles.read_text(args.users), args.users)
    history = crb_history(traj, users, rc.scenario.toa_noise, rc.eps_prior).tolist()
    if not args.out:
        return {"crb_history_m2": history}
    return {"crb_history_file": iofiles.write_crb_history(history, args.out),
            "final_crb_trace_m2": history[-1]}


def _cmd_mc(rc: iofiles.RunConfig, args) -> dict:
    summary = monte_carlo(rc.scenario, runs=args.runs, **_mission_kwargs(rc, args))
    return {"runs": summary.runs, "stats": summary.stats}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uavloc",
                                description="UAV-aided user localization simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, out_required=False, seed=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        sp.add_argument("--scenario", required=True, help="scenario YAML file")
        if seed:  # only where a number is drawn
            sp.add_argument("--seed", type=int, default=None, help="replaces the scenario's seed")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if out_required is not None:
            sp.add_argument("--out", required=out_required, default=None, help="output directory")
        return sp

    sp = command("simulate", _cmd_simulate, "run one mission and export results",
                 out_required=True)
    sp.add_argument("--mode", choices=["greedy", "fixed"], default="greedy",
                    help="'fixed' flies the straight start-terminal line")
    sp.add_argument("--toa", choices=["ideal", "nr"], default="ideal")

    sp = command("solve", _cmd_solve, "SLAM estimate from a measurement log", seed=False)
    sp.add_argument("--log", required=True, help="measurement log CSV")

    sp = command("plan", _cmd_plan, "next waypoint from a planner state JSON", out_required=None,
                 seed=False)
    sp.add_argument("--state", required=True, help="JSON with step, pos, fim, user_estimates")

    sp = command("crb", _cmd_crb, "CRB trace history for a trajectory", seed=False)
    sp.add_argument("--trajectory", required=True, help="CSV: step,x,y,z")
    sp.add_argument("--users", required=True, help="CSV: user_id,x,y")

    sp = command("mc", _cmd_mc, "Monte Carlo batch of missions", out_required=None)
    sp.add_argument("--runs", type=int, required=True)
    sp.add_argument("--mode", choices=["greedy", "fixed"], default="greedy")
    sp.add_argument("--toa", choices=["ideal", "nr"], default="ideal")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(_load_config(args), args)
        if args.json:
            print(iofiles.json_text(payload), end="")
        else:
            for key, value in payload.items():
                print(f"{key}: {value}")
        return 0
    except (*INPUT_ERRORS, *iofiles.FILE_ERRORS) as exc:
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
