"""Closed-loop mission orchestration: move, keep steps delta_keep apart,
measure, estimate, plan. Also Monte Carlo batches and error metrics.

A mission is fully deterministic given its scenario: all its noise comes
from one numpy PCG64 Generator seeded with scenario.seed.

What runs when. Every step takes a GPS fix and, on the greedy path, plans
the next waypoint against the Fisher information. A retained step measures
its K links in one sample_toa call, and on the greedy path adds its Fisher
blocks (step_contribution, accumulate), which only the planner reads; a
solve follows on its schedule. The rest waits for the step that reads it:
- The log is read at the first retained step, by each solve and by the
  result. On the NR path its rows hold sample_toa's delays until then;
  each read estimates the rows not yet estimated in one estimate_toa_nr
  call, with the drift offset of each row's step.
- The log is a step-major grid: row i is retained step i // K and user
  i % K. A read hands on the prefix of the retained rows, a MeasurementLog
  that derives its index layout from its columns, as every log does.
- The CRB history is taken once, at the end, by fim.crb_history, the rule
  `uavloc crb` follows: the retained positions at the final user estimates,
  each step reading its last retained one. So it is a bound at the final
  estimates, not at the true users. A fixed path does no other Fisher work:
  at eps_prior = 0 it raises SingularFim at its end, after its solves; a
  greedy one raises it at step 1, where the planner reads the blocks.

How a mission's estimates start. At the first retained step each user
lies on its measured range circle about that step's GPS fix, along the
planned track from uav_start to uav_terminal: slam.range_circle_start, the
one first-estimate rule, which `uavloc solve` applies to a log too. Every
solve starts by slam.basin_start's rule at the current pose estimates, so
the one solve of solve_every=0 can start from the fit over all its samples,
as `uavloc solve` does. Each solve takes its poses from the last one's, or
from the GPS fixes of steps retained since.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import mean, median, stdev

import numpy as np

from . import slam
from .channel import RngStream, sample_gps, sample_toa
# Unused here; re-exported because perfbench/tracing.py wraps it by this module's name.
from .channel import is_blocked  # noqa: F401
from .errors import InvalidParam
from .fim import accumulate, crb_history, default_eps_prior, initial_info, step_contribution
# Unused here; re-exported because perfbench/tracing.py wraps it by this module's name.
from .fim import crb_trace  # noqa: F401
from .model import (ROWS_MAX, MeasurementLog, Scenario, require_int, require_length,
                    require_prior, validate_scenario, within_reach)
from .nrtiming import NrConfig, drift_offset, estimate_toa_nr
from .planner import PlannerState, next_waypoint

DEFAULT_SOLVE_EVERY = 1  # re-solve SLAM at every retained step


@dataclass
class Metrics:
    user_abs_errors: tuple[float, ...]  # meters, per user
    user_rmse: float
    uav_rmse_est: float   # SLAM pose estimates vs truth, retained steps
    uav_rmse_gps: float   # raw GPS vs truth, retained steps


@dataclass
class MissionResult:
    planned: np.ndarray          # (N, 3) executed trajectory (== true trajectory)
    gps: np.ndarray              # (N, 3)
    retained_steps: tuple[int, ...]   # 1-based mission steps kept by the delta rule
    samples: MeasurementLog      # one row per (retained step, user)
    user_estimates: np.ndarray   # (K, 2)
    uav_estimates: np.ndarray    # (R, 3), aligned with retained_steps
    # (N,) trace of the user-only CRB after each step: fim.crb_history of the
    # retained positions at user_estimates, each step reading its last
    # retained one; a bound at the final estimates, not at the true users
    crb_history: np.ndarray
    converged: bool
    metrics: Metrics


def straight_line_path(s: Scenario) -> np.ndarray:
    t = np.linspace(0.0, 1.0, s.mission_steps)[:, None]
    a = s.uav_start.as_array()
    b = s.uav_terminal.as_array()
    return a + t * (b - a)


def circle_path(center, radius: float, altitude: float, steps: int) -> np.ndarray:
    """Closed circular path, useful as a fixed benchmark trajectory."""
    ang = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
    cx, cy = center
    return np.column_stack([cx + radius * np.cos(ang),
                            cy + radius * np.sin(ang),
                            np.full(steps, float(altitude))])


def compute_metrics(scenario: Scenario, planned, gps, retained_steps,
                    uav_estimates, user_estimates) -> Metrics:
    truth = np.array([u.as_array() for u in scenario.users])
    errs = tuple(float(np.linalg.norm(user_estimates[k] - truth[k]))
                 for k in range(len(truth)))
    user_rmse = float(np.sqrt(np.mean(np.square(errs))))
    idx = np.asarray(retained_steps) - 1
    true_ret = planned[idx]
    uav_rmse_est = float(np.sqrt(np.mean(np.sum((uav_estimates - true_ret) ** 2, axis=1))))
    uav_rmse_gps = float(np.sqrt(np.mean(np.sum((gps[idx] - true_ret) ** 2, axis=1))))
    return Metrics(user_abs_errors=errs, user_rmse=user_rmse,
                   uav_rmse_est=uav_rmse_est, uav_rmse_gps=uav_rmse_gps)


def check_options(solve_every, eps_prior, planner_headings):
    """InvalidParam naming the first bad option of run_mission (or RunConfig)."""
    require_int("solve_every", solve_every, 0)
    require_prior("eps_prior", eps_prior)
    require_int("planner_headings", planner_headings, 1, ROWS_MAX - 1)


def run_mission(scenario: Scenario, mode="greedy", *, toa_path: str = "ideal",
                solve_every: int = DEFAULT_SOLVE_EVERY, eps_prior: float | None = None,
                slam_cfg: slam.SlamConfig | None = None,
                planner_headings: int = PlannerState.headings) -> MissionResult:
    """Execute one mission.

    mode: "greedy" for online informative planning, or an (N, 3) array of
    fixed waypoints. toa_path: "ideal" (Gaussian channel noise only) or
    "nr" (quantized through the NR timing-advance + SRS procedure).
    solve_every: re-solve SLAM every m retained steps; 0 means only at the
    end of the mission. The first estimates are slam.range_circle_start
    along the planned track, and the module docstring says how every solve
    starts; only the noise is drawn, from scenario.seed.
    eps_prior, the Fisher prior in m^-2 (model.require_prior), defaults to
    fim.default_eps_prior of toa_noise.sigma0 (model.unit_ratio), as the
    solves' damping and step tolerance scale; an eps_prior that is set is kept.
    A fixed path starts within reach of uav_start in 0 moves and keeps every
    hop within reach in 1 (model.within_reach), and takes the coordinate rule
    (model.require_length).
    Per retained step the mission measures, accumulates the Fisher blocks
    for the greedy planner and solves on schedule; the NR estimates of its
    delays wait for the next read of the log (the first step, a solve, the
    result), and the CRB history for the end, at the final estimates (the
    module docstring says more). So SingularFim from a singular Fisher
    matrix (eps_prior = 0) comes at the end of a fixed-path mission, after
    its last solve.
    The result's `converged` is the last solve's report.converged; a solve
    that does not converge hands on its best state, and the mission goes on.
    InvalidParam names a bad scenario field (validate_scenario) or option
    (check_options), or "sample_rate" where the NR path's NrConfig of the
    scenario's numerology and sample rate can overflow the CIR window.
    """
    s = validate_scenario(scenario)
    if toa_path not in ("ideal", "nr"):
        raise InvalidParam("toa_path", "must be 'ideal' or 'nr'")
    nr_cfg = NrConfig(mu=s.numerology, f_s=s.sample_rate) if toa_path == "nr" else None
    if eps_prior is None:
        eps_prior = default_eps_prior(s.toa_noise.sigma0)
    check_options(solve_every, eps_prior, planner_headings)
    n_steps = s.mission_steps
    num_users = len(s.users)
    users = np.array([u.as_array() for u in s.users])
    # read once; the planner never writes its state's terminal
    start, terminal = s.uav_start.as_array(), s.uav_terminal.as_array()

    fixed_path = None
    if not isinstance(mode, str):
        fixed_path = np.asarray(mode, dtype=float)
        if fixed_path.shape != (n_steps, 3):
            raise InvalidParam("mode", f"fixed path must have shape ({n_steps}, 3)")
        require_length("mode", *fixed_path.ravel().tolist())
        if not within_reach(np.linalg.norm(fixed_path[0] - start), s.d_max, 0):
            raise InvalidParam("mode", "fixed path must start at uav_start")
        hops = np.linalg.norm(np.diff(fixed_path, axis=0), axis=1)
        if not np.all(within_reach(hops, s.d_max, 1)):
            raise InvalidParam("mode", "fixed path violates the d_max step constraint")
    elif mode != "greedy":
        raise InvalidParam("mode", "must be 'greedy' or an (N, 3) path")

    rng = RngStream(s.seed)

    cfg = slam_cfg or slam.SlamConfig.for_scenario(s)

    positions = np.zeros((n_steps, 3))
    positions[0] = start
    gps_trace = np.zeros((n_steps, 3))
    # the measurement columns, one row per (retained step, user), filled as
    # steps are retained: row i is retained step i // K, user i % K; on the
    # NR path a row's toa holds sample_toa's delay until it is read
    log = MeasurementLog(step=np.zeros(n_steps * num_users, dtype=np.int64),
                         user_id=np.tile(np.arange(1, num_users + 1), n_steps),
                         gps=np.empty((n_steps * num_users, 3)),
                         toa=np.empty(n_steps * num_users))
    samples = log[:0]  # the rows read last, never written again
    retained: list[int] = []
    info = initial_info(num_users, eps_prior)  # read by the greedy planner only
    u_est = None
    # pose estimates of the retained steps, in order: each step's GPS fix
    # until a solve overwrites it
    pose_est = np.empty((n_steps, 3))
    converged = True

    def read_samples() -> MeasurementLog:
        """The log of every step retained so far, its NR delays estimated."""
        nonlocal samples
        stop = len(retained) * num_users
        if len(samples) < stop:
            rows = slice(len(samples), stop)
            if nr_cfg is not None:
                log.toa[rows] = estimate_toa_nr(log.toa[rows], nr_cfg,
                                                drift_offset(log.step[rows], s.toa_noise))
            samples = log[:stop]
        return samples

    def do_solve():
        nonlocal u_est, converged
        measured = read_samples()
        # every retained step holds one sample per user, so the solve's poses
        # are the retained steps in order
        poses = pose_est[:len(retained)]
        u_est = slam.basin_start(measured, poses, u_est)
        state, report = slam.solve_slam(slam.StateVector(uav=poses, users=u_est), measured, cfg)
        converged = report.converged
        u_est = state.users
        poses[:] = state.uav

    for n in range(1, n_steps + 1):
        p = positions[n - 1]
        gps_trace[n - 1] = sample_gps(p, s.sigma_gps, rng)
        keep = (not retained or
                np.linalg.norm(p - positions[retained[-1] - 1]) >= s.delta_keep)
        if keep:
            rows = slice(len(retained) * num_users, (len(retained) + 1) * num_users)
            pose_est[len(retained)] = gps_trace[n - 1]
            retained.append(n)
            log.step[rows] = n
            log.gps[rows] = gps_trace[n - 1]
            log.toa[rows] = sample_toa(p, users, s.toa_noise, s.buildings, rng)
            if u_est is None:  # each user on its range circle along the planned track
                track = terminal[:2] - start[:2]
                u_est = slam.range_circle_start(read_samples(), track)
            if solve_every and len(retained) % solve_every == 0:
                do_solve()
            if fixed_path is None:
                info = accumulate(info, step_contribution(p, u_est, s.toa_noise))

        if n < n_steps:
            if fixed_path is not None:
                positions[n] = fixed_path[n]
            else:
                st = PlannerState(step=n, pos=p, terminal=terminal,
                                  mission_steps=n_steps, d_max=s.d_max, info=info,
                                  user_estimates=u_est, noise_model=s.toa_noise,
                                  headings=planner_headings)
                positions[n] = next_waypoint(st)

    if not solve_every or len(retained) % solve_every:
        do_solve()

    kept = np.array(retained)
    history = crb_history(positions[kept - 1], u_est, s.toa_noise, eps_prior)
    # each step reads the history at its last retained step
    history = history[np.searchsorted(kept, np.arange(1, n_steps + 1), side="right") - 1]
    uav_estimates = pose_est[:len(retained)].copy()
    metrics = compute_metrics(s, positions, gps_trace, retained, uav_estimates, u_est)
    return MissionResult(planned=positions, gps=gps_trace,
                         retained_steps=tuple(retained), samples=read_samples(),
                         user_estimates=u_est, uav_estimates=uav_estimates,
                         crb_history=history, converged=converged,
                         metrics=metrics)


@dataclass
class McSummary:
    runs: int
    per_run_metrics: list[Metrics]
    final_crb_traces: list[float]
    stats: dict  # field -> {"mean", "median", "std"}


def _stats(values):
    return {"mean": mean(values), "median": median(values),
            "std": stdev(values) if len(values) > 1 else 0.0}


def monte_carlo(scenario: Scenario, mode="greedy", runs: int = 1,
                **mission_kwargs) -> McSummary:
    """Run `runs` missions with per-run seeds scenario.seed + i and report
    mean/median/std of every metric and of the final CRB trace."""
    require_int("runs", runs, 1)
    metrics = []
    crbs = []
    for i in range(runs):
        res = run_mission(replace(scenario, seed=scenario.seed + i), mode, **mission_kwargs)
        metrics.append(res.metrics)
        crbs.append(float(res.crb_history[-1]))
    stats = {
        "user_rmse": _stats([m.user_rmse for m in metrics]),
        "user_abs_error": _stats([e for m in metrics for e in m.user_abs_errors]),
        "uav_rmse_est": _stats([m.uav_rmse_est for m in metrics]),
        "uav_rmse_gps": _stats([m.uav_rmse_gps for m in metrics]),
        "final_crb_trace": _stats(crbs),
    }
    return McSummary(runs=runs, per_run_metrics=metrics,
                     final_crb_traces=crbs, stats=stats)
