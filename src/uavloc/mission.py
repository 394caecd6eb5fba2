"""Closed-loop mission orchestration: move, keep steps delta_keep apart,
measure, estimate, plan. Also Monte Carlo batches and error metrics.

A mission is fully deterministic given its scenario: measurement noise comes
from one numpy PCG64 Generator seeded with scenario.seed, the user-position
initialization of the solver from a second one seeded by a SeedSequence
spawned from the same seed. A retained step measures its K links in one
sample_toa (and, on the NR path, one estimate_toa_nr) call.

How a mission's solves start: slam.initial_state gives the user estimates at
the first retained step, for the planner; heard from one position, every
user keeps its draw there, and the estimator's stream draws nothing after.
Before every solve slam.basin_start gives each user the best, by the ToA
sum of squares at the current pose estimates, of its estimate, that
estimate's mirror image about its track of those poses, and the two points
of its squared-range fit there; so the one solve of solve_every=0 is not
left with the step-1 draw but can start from the fit over all its samples,
much as `uavloc solve` does. Each solve takes its poses from the last one's,
or from the GPS fixes of steps retained since.
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
from .fim import DEFAULT_EPS_PRIOR, accumulate, crb_trace, initial_info, step_contribution
from .model import (REACH_SLACK, MeasurementLog, Scenario, require_int, require_number,
                    validate_scenario)
from .nrtiming import NrConfig, SawtoothDrift, drift_offset, estimate_toa_nr
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
    # (N,) trace of the user-only CRB after each step, each retained step's
    # Fisher information taken at the user estimates the mission holds at
    # that step (after its solve, if it solves), not at the true users
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
    require_number("eps_prior", eps_prior, 0)
    require_int("planner_headings", planner_headings, 1)


def run_mission(scenario: Scenario, mode="greedy", *, toa_path: str = "ideal",
                solve_every: int = DEFAULT_SOLVE_EVERY, eps_prior: float = DEFAULT_EPS_PRIOR,
                slam_cfg: slam.SlamConfig | None = None,
                planner_headings: int = PlannerState.headings) -> MissionResult:
    """Execute one mission.

    mode: "greedy" for online informative planning, or an (N, 3) array of
    fixed waypoints. toa_path: "ideal" (Gaussian channel noise only) or
    "nr" (quantized through the NR timing-advance + SRS procedure).
    solve_every: re-solve SLAM every m retained steps; 0 means only at the
    end of the mission. Every solve starts from slam.basin_start (the module
    docstring says how). Every draw comes from scenario.seed: the estimator's
    stream draws only at the first retained step, in slam.initial_state.
    A fixed path starts at uav_start (within 1e-9 m), is finite and keeps
    every hop within d_max.
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
    check_options(solve_every, eps_prior, planner_headings)
    n_steps = s.mission_steps
    num_users = len(s.users)
    users = np.array([u.as_array() for u in s.users])

    fixed_path = None
    if not isinstance(mode, str):
        fixed_path = np.asarray(mode, dtype=float)
        if fixed_path.shape != (n_steps, 3):
            raise InvalidParam("mode", f"fixed path must have shape ({n_steps}, 3)")
        if not np.isfinite(fixed_path).all():
            raise InvalidParam("mode", "fixed path must be finite")
        if np.linalg.norm(fixed_path[0] - s.uav_start.as_array()) > 1e-9:
            raise InvalidParam("mode", "fixed path must start at uav_start")
        hops = np.linalg.norm(np.diff(fixed_path, axis=0), axis=1)
        if np.any(hops > s.d_max * (1 + REACH_SLACK)):
            raise InvalidParam("mode", "fixed path violates the d_max step constraint")
    elif mode != "greedy":
        raise InvalidParam("mode", "must be 'greedy' or an (N, 3) path")

    rng = RngStream(s.seed)
    # the estimator's stream: a child of the seed, so measurement draws never shift it
    est_rng = RngStream(np.random.SeedSequence(entropy=s.seed, spawn_key=(1,)))

    cfg = slam_cfg or slam.SlamConfig.for_scenario(s)
    drift = SawtoothDrift(s.toa_noise.drift_rate, s.toa_noise.drift_reset_period)

    positions = np.zeros((n_steps, 3))
    positions[0] = s.uav_start.as_array()
    gps_trace = np.zeros((n_steps, 3))
    crb_history = np.zeros(n_steps)
    # the measurement columns, one row per (retained step, user), filled as
    # steps are retained; samples, the filled part, is never written again
    log = MeasurementLog(step=np.zeros(n_steps * num_users, dtype=np.int64),
                         user_id=np.tile(np.arange(1, num_users + 1), n_steps),
                         gps=np.empty((n_steps * num_users, 3)),
                         toa=np.empty(n_steps * num_users))
    samples = log[:0]
    retained: list[int] = []
    info = initial_info(num_users, eps_prior)
    u_est = None
    # pose estimates of the retained steps, in order: each step's GPS fix
    # until a solve overwrites it
    pose_est = np.empty((n_steps, 3))
    converged = True

    def do_solve():
        nonlocal u_est, converged
        # every retained step holds one sample per user, so the solve's poses
        # are the retained steps in order
        poses = pose_est[:len(retained)]
        u_est = slam.basin_start(samples, poses, u_est)
        state, report = slam.solve_slam(slam.StateVector(uav=poses, users=u_est), samples, cfg)
        converged = report.converged
        u_est = state.users
        poses[:] = state.uav

    for n in range(1, n_steps + 1):
        p = positions[n - 1]
        gps_trace[n - 1] = sample_gps(p, s.sigma_gps, rng)
        keep = (not retained or
                np.linalg.norm(p - positions[retained[-1] - 1]) >= s.delta_keep)
        if keep:
            rows = slice(len(samples), len(samples) + num_users)
            pose_est[len(retained)] = gps_trace[n - 1]
            retained.append(n)
            log.step[rows] = n
            log.gps[rows] = gps_trace[n - 1]
            toa = sample_toa(p, users, s.toa_noise, s.buildings, rng)
            if toa_path == "nr":
                toa = estimate_toa_nr(toa, nr_cfg, drift_offset(n, drift))
            log.toa[rows] = toa
            samples = log[:rows.stop]
            if u_est is None:
                u_est = slam.initial_state(samples, est_rng).users
            if solve_every and len(retained) % solve_every == 0:
                do_solve()
            info = accumulate(info, step_contribution(p, u_est, s.toa_noise))
        crb_history[n - 1] = crb_trace(info)

        if n < n_steps:
            if fixed_path is not None:
                positions[n] = fixed_path[n]
            else:
                st = PlannerState(step=n, pos=p, terminal=s.uav_terminal.as_array(),
                                  mission_steps=n_steps, d_max=s.d_max, info=info,
                                  user_estimates=u_est, noise_model=s.toa_noise,
                                  headings=planner_headings)
                positions[n] = next_waypoint(st)

    if not solve_every or len(retained) % solve_every:
        do_solve()

    uav_estimates = pose_est[:len(retained)].copy()
    metrics = compute_metrics(s, positions, gps_trace, retained, uav_estimates, u_est)
    return MissionResult(planned=positions, gps=gps_trace,
                         retained_steps=tuple(retained), samples=samples,
                         user_estimates=u_est, uav_estimates=uav_estimates,
                         crb_history=crb_history, converged=converged, metrics=metrics)


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
