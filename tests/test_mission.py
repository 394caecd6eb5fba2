import contextlib
import functools
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.workloads import WORKLOADS
from uavloc import fim, mission, nrtiming, slam
from uavloc.cli import main
from uavloc.errors import InvalidParam, SingularFim
from uavloc.iofiles import serialize_scenario, write_measurement_log
from uavloc.mission import (circle_path, compute_metrics, monte_carlo,
                            run_mission, straight_line_path)
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import REACH_SLACK, Scenario, ToaNoiseModel, Vec2, Vec3
from uavloc.planner import reach_threshold
from uavloc.slam import SlamConfig


def circle_scenario(n_steps=40, sigma0=1.25e-8, sigma_gps=1.0, delta=0.0,
                    users=((0.0, 0.0),), seed=0, **kw):
    return Scenario(users=tuple(Vec2(*u) for u in users),
                    uav_start=Vec3(50, 0, 30), uav_terminal=Vec3(50, 0, 30),
                    mission_steps=n_steps, d_max=12.0, delta_keep=delta,
                    sigma_gps=sigma_gps,
                    toa_noise=ToaNoiseModel(kind="constant", sigma0=sigma0),
                    seed=seed, **kw)


def tiny_noise_scenario(**kw):
    return circle_scenario(n_steps=30, sigma0=1e-16, sigma_gps=1e-12, **kw)


def test_zero_noise_fixed_circle_recovers_user():
    s = tiny_noise_scenario()
    path = circle_path((0, 0), 50.0, 30.0, s.mission_steps)
    cfg = SlamConfig(sigma_gps=s.sigma_gps, sigma_tau=s.toa_noise.sigma0,
                     tol_step=1e-12, max_iter=200)
    res = run_mission(s, path, solve_every=0, slam_cfg=cfg)
    assert res.metrics.user_abs_errors[0] < 1e-6
    assert res.metrics.uav_rmse_est < 1e-6


def test_fixed_path_validation():
    s = circle_scenario(n_steps=10)
    bad = np.zeros((10, 3))
    bad[5] = [100, 0, 0]  # 100 m hop > d_max
    with pytest.raises(InvalidParam):
        run_mission(s, bad)
    with pytest.raises(InvalidParam):
        run_mission(s, np.zeros((7, 3)))
    with pytest.raises(InvalidParam):
        run_mission(s, "not-a-mode")
    hover = np.tile(s.uav_start.as_array(), (10, 1))
    elsewhere = hover - [50.0, 0.0, 0.0]  # its own hops are 0, but the first is 50 m
    with pytest.raises(InvalidParam, match="start at uav_start"):
        run_mission(s, elsewhere)
    gap = hover.copy()
    gap[4] = np.nan
    with pytest.raises(InvalidParam, match="finite"):
        run_mission(s, gap)
    jump = hover.copy()
    jump[6:] += [0.0, s.d_max + 1.0, 0.0]  # one hop over d_max
    with pytest.raises(InvalidParam, match="d_max"):
        run_mission(s, jump)
    # the flight rule: a start within d_max * REACH_SLACK of uav_start is taken
    # as uav_start (uav_start's y is 0, so the offset is the distance exactly)
    near = hover.copy()
    near[0, 1] += s.d_max * REACH_SLACK
    assert run_mission(s, near).planned[0].tolist() == s.uav_start.as_array().tolist()
    hover[0, 1] += 2 * s.d_max * REACH_SLACK
    with pytest.raises(InvalidParam, match="start at uav_start"):
        run_mission(s, hover)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_run_mission_refuses_bad_seed(seed):
    with pytest.raises(InvalidParam) as exc:
        run_mission(circle_scenario(n_steps=10, seed=seed), "greedy")
    assert exc.value.field == "seed"


@pytest.mark.parametrize("solve_every", [-1, 1.5])
def test_run_mission_refuses_bad_solve_every(solve_every):
    with pytest.raises(InvalidParam) as exc:
        run_mission(circle_scenario(n_steps=10), "greedy", solve_every=solve_every)
    assert exc.value.field == "solve_every"


@pytest.mark.parametrize("field, value", [
    ("eps_prior", -1.0), ("eps_prior", float("nan")), ("eps_prior", float("inf")),
    ("planner_headings", -3), ("planner_headings", 0), ("planner_headings", 2.5),
    ("toa_path", "x"),
])
def test_run_mission_refuses_bad_option(field, value):
    with pytest.raises(InvalidParam) as exc:
        run_mission(circle_scenario(n_steps=10), "greedy", **{field: value})
    assert exc.value.field == field


@pytest.mark.parametrize("solve_every", [0, 1, 3, 7])
def test_solve_schedule(monkeypatch, solve_every):
    """A solve after every solve_every-th retained step, and one at the end
    unless the last retained step just solved."""
    sizes = []
    solve = slam.solve_slam

    def counted(init, samples, *args, **kwargs):
        sizes.append(len(samples))
        return solve(init, samples, *args, **kwargs)
    monkeypatch.setattr(slam, "solve_slam", counted)
    res = run_mission(circle_scenario(n_steps=30), circle_path((0, 0), 50.0, 30.0, 30),
                      solve_every=solve_every)
    retained = len(res.retained_steps)
    assert retained == 30
    every = range(solve_every, retained + 1, solve_every) if solve_every else []
    assert sizes == sorted({*every, retained})


def sigma_gps_scenario(sigma_gps=1.0, seed=11):
    """6 users uniform in +-40 m (default_rng(5)), flown over in 30 greedy
    steps from (-40, 0, 30) to (40, 0, 30)."""
    users = np.random.default_rng(5).uniform(-40.0, 40.0, (6, 2))
    return Scenario(users=tuple(Vec2(*u) for u in users), uav_start=Vec3(-40, 0, 30),
                    uav_terminal=Vec3(40, 0, 30), mission_steps=30, sigma_gps=sigma_gps,
                    seed=seed)


def test_one_solve_at_the_end_starts_in_the_true_basin():
    # the one solve of solve_every=0 starts from basin_start's squared-range
    # fit over all its samples; from the step-1 start it ended near the
    # mirror images, with a median user RMSE of 26 m over these runs
    summary = monte_carlo(sigma_gps_scenario(), "greedy", runs=10, solve_every=0)
    assert summary.stats["user_rmse"]["median"] <= 5.0


def first_estimates(monkeypatch, s, mode="greedy", **kw):
    """The first user estimates of a mission, as slam.range_circle_start
    returns them at its first retained step, and the mission's result."""
    seen = []
    start = slam.range_circle_start

    def recorded(measurements, track):
        seen.append(start(measurements, track))
        return seen[-1].copy()
    monkeypatch.setattr(slam, "range_circle_start", recorded)
    res = run_mission(s, mode, **kw)
    assert len(seen) == 1
    return seen[0], res


def range_circle_start(fix, toa, start, terminal):
    """u_k = f_xy + h_k e, h_k = sqrt(max((C tau_k)^2 - f_z^2, 0)) and e the
    horizontal unit vector from start to terminal, (1, 0) where they meet."""
    track = np.subtract(terminal[:2], start[:2])
    e = track / np.linalg.norm(track) if np.any(track) else np.array([1.0, 0.0])
    h = np.sqrt(np.clip((C * toa) ** 2 - fix[2] ** 2, 0.0, None))
    return fix[:2] + np.outer(h, e)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), num_users=st.integers(1, 4),
       bearing=st.sampled_from([None, 0.0, 45.0, 90.0, 180.0, 200.0]),
       solve_every=st.sampled_from([0, 2, 5]), fixed=st.booleans(), nr=st.booleans())
def test_first_estimates_lie_on_the_range_circles_along_the_planned_track(
        seed, num_users, bearing, solve_every, fixed, nr):
    # at the first retained step each user lies on its range circle about
    # the step-1 GPS fix, along uav_start -> uav_terminal (or +x on a loop),
    # at the delays as read: NR-estimated on the NR path
    rng = np.random.default_rng(seed)
    start = np.array([-10.0, 5.0, 30.0])
    if bearing is None:  # a loop: start and terminal meet horizontally
        terminal = start + [0.0, 0.0, 5.0]
    else:
        a = np.radians(bearing)
        terminal = start + [40.0 * np.cos(a), 40.0 * np.sin(a), 0.0]
    s = Scenario(users=tuple(Vec2(*u) for u in rng.uniform(-30.0, 30.0, (num_users, 2))),
                 uav_start=Vec3(*start), uav_terminal=Vec3(*terminal), mission_steps=12,
                 d_max=8.0, toa_noise=ToaNoiseModel(drift_rate=3e-9, drift_reset_period=4),
                 seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        users, res = first_estimates(mp, s, straight_line_path(s) if fixed else "greedy",
                                     toa_path="nr" if nr else "ideal",
                                     solve_every=solve_every)
    want = range_circle_start(res.gps[0], res.samples.toa[:num_users], start, terminal)
    np.testing.assert_allclose(users, want, rtol=1e-12, atol=1e-9)
    if bearing is None:
        assert np.all(users[:, 1] == res.gps[0, 1]) and np.all(users[:, 0] >= res.gps[0, 0])


def test_first_estimates_sit_at_the_fix_where_the_range_is_below_the_altitude(monkeypatch):
    # a delay shorter than the altitude gives h = 0: the user sits under the fix
    sample = mission.sample_toa
    calls = []

    def short_first(p, users, noise, buildings, rng):
        toa = sample(p, users, noise, buildings, rng)
        if not calls:
            toa[0] = 10.0 / C  # 10 m, under the 30 m altitude
        calls.append(1)
        return toa
    monkeypatch.setattr(mission, "sample_toa", short_first)
    s = sigma_gps_scenario()
    users, res = first_estimates(monkeypatch, s, solve_every=0)
    np.testing.assert_array_equal(users[0], res.gps[0, :2])
    assert np.all(users[1:, 1] == res.gps[0, 1]) and np.all(users[1:, 0] >= res.gps[0, 0])


def test_first_nr_estimates_read_the_estimated_delays(monkeypatch):
    # the NR path reads each delay through the NR estimate, not sample_toa's draw
    s = replace(sigma_gps_scenario(), toa_noise=ToaNoiseModel(drift_rate=3e-9))
    raw = []
    sample = mission.sample_toa

    def recorded(*args):
        raw.append(sample(*args))
        return raw[-1].copy()
    monkeypatch.setattr(mission, "sample_toa", recorded)
    users, res = first_estimates(monkeypatch, s, toa_path="nr", solve_every=0)
    start, terminal = s.uav_start.as_array(), s.uav_terminal.as_array()
    estimated = res.samples.toa[:len(s.users)]
    assert np.all(estimated != raw[0])
    np.testing.assert_allclose(users, range_circle_start(res.gps[0], estimated, start, terminal),
                               rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("solve_every", [0, 1, 5])
@pytest.mark.parametrize("toa_path", ["ideal", "nr"])
def test_a_mission_draws_no_start(monkeypatch, solve_every, toa_path):
    # a mission neither calls initial_state nor spawns a second random stream
    def refuse(*args, **kwargs):
        raise AssertionError("a mission drew a start")
    monkeypatch.setattr(slam, "initial_state", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    run_mission(sigma_gps_scenario(), "greedy", toa_path=toa_path, solve_every=solve_every)


def test_every_solve_starts_from_the_basin_start(monkeypatch):
    # each solve starts from basin_start's users at the pose estimates it
    # was given, over the samples it solves; on this seed some starts move
    # a user to its mirror image
    starts, inits, moved = [], [], []
    basin, solve = slam.basin_start, slam.solve_slam

    def recorded_basin(samples, poses, users):
        out = basin(samples, poses, users)
        starts.append((len(samples), poses.copy(), out))
        moved.append(bool(np.any(out != users)))
        return out

    def recorded_solve(init, samples, cfg):
        inits.append((len(samples), init.uav.copy(), init.users.copy()))
        return solve(init, samples, cfg)
    monkeypatch.setattr(slam, "basin_start", recorded_basin)
    monkeypatch.setattr(slam, "solve_slam", recorded_solve)
    run_mission(sigma_gps_scenario(seed=12), "greedy", solve_every=5)
    assert len(starts) == len(inits) > 1 and any(moved)
    for (rows, poses, users), (solved_rows, uav, init_users) in zip(starts, inits):
        assert rows == solved_rows
        np.testing.assert_array_equal(poses, uav)
        np.testing.assert_array_equal(users, init_users)


def test_online_workload_takes_at_most_40_lm_trials_per_mission(monkeypatch):
    # the benchmark's 40 online_greedy_nr missions of seed 1, their LM work
    # counted, not timed: starting each solve at the best of the warm
    # estimate, its mirror image and the squared-range fit takes about 26
    # linear solves per mission; the first two alone took 56
    workload = WORKLOADS["online_greedy_nr"]
    trials = []
    solve = slam.solve_slam

    def counted(init, samples, cfg):
        state, report = solve(init, samples, cfg)
        trials.append(report.trials)
        return state, report
    monkeypatch.setattr(slam, "solve_slam", counted)
    missions = workload.make_inputs(1)
    for s in missions:
        workload.run(s)
    assert len(missions) == 40
    assert sum(trials) <= 40 * len(missions)


def test_huber_mission_resolves_converge_within_the_iteration_budget(monkeypatch):
    # one online_greedy_nr mission of seed 401 under a Huber cost at
    # delta = sigma_tau: on the exact Hessian of that cost each of its five
    # re-solves converges within the workload's 20 iterations (in 5 to 9)
    workload = WORKLOADS["online_greedy_nr"]
    s = workload.make_inputs(401)[3]
    reports = []
    solve = slam.solve_slam

    def recorded(init, samples, cfg):
        state, report = solve(init, samples, cfg)
        reports.append(report)
        return state, report
    monkeypatch.setattr(slam, "solve_slam", recorded)
    cfg = SlamConfig.for_scenario(s, huber_delta=s.toa_noise.sigma0, max_iter=workload.max_iter)
    mission.run_mission(s, "greedy", toa_path="nr", solve_every=workload.solve_every, slam_cfg=cfg)
    assert len(reports) == 5
    assert all(r.converged for r in reports), [r.iterations for r in reports]


def test_online_workload_estimates_toa_once_per_read_and_traces_the_history_once(
        monkeypatch):
    # the benchmark's online_greedy_nr missions of seed 1, their work counted:
    # the NR delays of the rows retained since the last read go through one
    # estimate_toa_nr call at step 1 and at each solve, and the CRB history
    # through one fim.crb_history call at the end
    workload = WORKLOADS["online_greedy_nr"]
    counts = {"solve_slam": 0, "estimate_toa_nr": 0, "crb_history": 0, "crb_trace": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    counting(slam, "solve_slam")
    for name in ("estimate_toa_nr", "crb_history", "crb_trace"):
        counting(mission, name)
    for s in workload.make_inputs(1)[:10]:
        for name in counts:
            counts[name] = 0
        workload.run(s)
        assert counts["solve_slam"] >= 1
        assert 1 <= counts["estimate_toa_nr"] <= counts["solve_slam"] + 1
        assert counts["crb_history"] == 1 and counts["crb_trace"] == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), num_users=st.integers(1, 4),
       n_steps=st.integers(6, 14), delta=st.sampled_from([0.0, 2.0, 7.0]),
       solve_every=st.integers(0, 4), fixed=st.booleans(), nr=st.booleans())
def test_mission_logs_carry_the_layout_their_columns_give(seed, num_users, n_steps, delta,
                                                          solve_every, fixed, nr):
    # each log the mission hands on (to every solve and in the result) is
    # the step-major grid of the steps retained so far, and the layout it
    # derives says so: pose i // K and user i % K of row i, read-only
    rng = np.random.default_rng(seed)
    s = Scenario(users=tuple(Vec2(*u) for u in rng.uniform(-30.0, 30.0, (num_users, 2))),
                 uav_start=Vec3(-20.0, 0.0, 30.0), uav_terminal=Vec3(20.0, 0.0, 30.0),
                 mission_steps=n_steps, d_max=8.0, delta_keep=delta,
                 toa_noise=ToaNoiseModel(drift_rate=3e-9, drift_reset_period=4), seed=seed)
    logs = []
    solve = slam.solve_slam

    def recorded(init, samples, cfg):
        logs.append(samples)
        return solve(init, samples, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slam, "solve_slam", recorded)
        res = run_mission(s, straight_line_path(s) if fixed else "greedy",
                          toa_path="nr" if nr else "ideal", solve_every=solve_every)
    logs.append(res.samples)
    assert len(logs) >= 2 and len(res.samples) == len(res.retained_steps) * num_users
    for log in logs:
        R, rest = divmod(len(log), num_users)
        assert rest == 0 and R >= 1
        assert log.steps == res.retained_steps[:R]
        assert log.user_ids == tuple(range(1, num_users + 1))
        assert all(type(n) is int for n in log.steps + log.user_ids)
        want = {"pose": np.arange(R).repeat(num_users),
                "user": np.tile(np.arange(num_users), R),
                "pose_gps": res.gps[np.array(log.steps) - 1]}
        for name, value in want.items():
            got = getattr(log, name)
            assert got.dtype == value.dtype and not got.flags.writeable
            np.testing.assert_array_equal(got, value)
        # a prefix of the result's log: rows are never written once read
        for name in ("step", "user_id", "gps", "toa"):
            np.testing.assert_array_equal(getattr(log, name),
                                          getattr(res.samples, name)[:len(log)])


def test_fixed_mission_without_prior_raises_singular_fim_after_its_solves(monkeypatch):
    # the CRB history is traced at the end, so a singular first state is
    # found there, after the solves; the greedy planner reads it at step 1
    solves = []
    solve = slam.solve_slam

    def counted(*args):
        solves.append(1)
        return solve(*args)
    monkeypatch.setattr(slam, "solve_slam", counted)
    s = circle_scenario(n_steps=30)
    with pytest.raises(SingularFim):
        run_mission(s, circle_path((0, 0), 50.0, 30.0, 30), solve_every=5, eps_prior=0.0)
    assert len(solves) == 6
    with pytest.raises(SingularFim):
        run_mission(s, "greedy", solve_every=5, eps_prior=0.0)
    assert len(solves) == 6


@pytest.mark.parametrize("solve_every", [0, 1, 5])
@pytest.mark.parametrize("toa_path", ["ideal", "nr"])
@pytest.mark.parametrize("fixed", [False, True], ids=["greedy", "fixed"])
def test_crb_history_is_the_retained_track_at_the_final_estimates(tmp_path, fixed, toa_path,
                                                                   solve_every):
    # one rule for every CRB history: fim.crb_history of the retained
    # positions at the final user estimates, each step reading the value of
    # its last retained step; `uavloc crb` on that track and those users
    # prints the retained steps' values
    s = replace(sigma_gps_scenario(), delta_keep=6.0)
    res = run_mission(s, straight_line_path(s) if fixed else "greedy", toa_path=toa_path,
                      solve_every=solve_every)
    kept = np.array(res.retained_steps)
    assert 1 < len(kept) < s.mission_steps
    track = res.planned[kept - 1]
    want = fim.crb_history(track, res.user_estimates, s.toa_noise, fim.DEFAULT_EPS_PRIOR)
    last = np.searchsorted(kept, np.arange(1, s.mission_steps + 1), side="right") - 1
    np.testing.assert_array_equal(res.crb_history, want[last])

    (tmp_path / "scenario.yaml").write_text(serialize_scenario(s))
    (tmp_path / "traj.csv").write_text("step,x,y,z\n" + "".join(
        f"{i},{x!r},{y!r},{z!r}\n" for i, (x, y, z) in enumerate(track.tolist(), start=1)))
    (tmp_path / "users.csv").write_text("user_id,x,y\n" + "".join(
        f"{k},{x!r},{y!r}\n" for k, (x, y) in enumerate(res.user_estimates.tolist(), start=1)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["crb", "--scenario", str(tmp_path / "scenario.yaml"), "--json",
                   "--trajectory", str(tmp_path / "traj.csv"),
                   "--users", str(tmp_path / "users.csv")])
    assert rc == 0
    assert json.loads(out.getvalue())["crb_history_m2"] == res.crb_history[kept - 1].tolist()


def test_a_fixed_path_mission_takes_its_fisher_blocks_once_at_its_end(monkeypatch):
    # only the greedy planner reads the Fisher state, so a fixed path takes
    # the blocks of its retained positions in one call, after its last solve
    events = []
    contribution, solve = fim.step_contribution, slam.solve_slam

    def recorded_contribution(uav, users, noise):
        events.append(("step_contribution", np.shape(uav)))
        return contribution(uav, users, noise)

    def recorded_solve(*args):
        events.append(("solve_slam",))
        return solve(*args)
    monkeypatch.setattr(fim, "step_contribution", recorded_contribution)
    monkeypatch.setattr(mission, "step_contribution", recorded_contribution)
    monkeypatch.setattr(slam, "solve_slam", recorded_solve)
    s = replace(sigma_gps_scenario(), delta_keep=4.0)
    res = run_mission(s, straight_line_path(s), solve_every=5)
    blocks = [e for e in events if e[0] == "step_contribution"]
    assert blocks == [("step_contribution", (len(res.retained_steps), 3))]
    assert events[-1] == blocks[0] and ("solve_slam",) in events


@pytest.mark.parametrize("solve_every", [5, 0])
def test_per_distance_solves_weigh_once_and_descend(tmp_path, monkeypatch, solve_every):
    # each solve takes its per-distance ToA weights once, at its start point,
    # so every objective trace descends: a circle mission's solves, and
    # `uavloc solve` of that mission's log
    noise = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=2e-9, scale=40.0)
    s = replace(circle_scenario(n_steps=30, users=((10.0, -5.0), (-20.0, 15.0), (25.0, 20.0),
                                                   (-5.0, -30.0))), toa_noise=noise)
    weights, solve = slam.measurement_weights, slam.solve_slam
    weighings, traces = [], []

    def counted_weights(*args):
        weighings[-1] += 1
        return weights(*args)

    def recorded_solve(*args):
        weighings.append(0)
        state, report = solve(*args)
        traces.append(report.objective_trace)
        return state, report
    monkeypatch.setattr(slam, "measurement_weights", counted_weights)
    monkeypatch.setattr(slam, "solve_slam", recorded_solve)
    res = run_mission(s, circle_path((0, 0), 50.0, 30.0, s.mission_steps),
                      solve_every=solve_every,
                      slam_cfg=SlamConfig.for_scenario(s, per_distance_weights=True))
    assert len(traces) == (6 if solve_every else 1)

    (tmp_path / "scenario.yaml").write_text(serialize_scenario(s) +
                                            "solver: {per_distance_weights: true}\n")
    (tmp_path / "log.csv").write_text(write_measurement_log(res.samples))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--scenario", str(tmp_path / "scenario.yaml"),
                     "--log", str(tmp_path / "log.csv")]) == 0
    for trace in traces:
        assert len(trace) > 1 and np.all(np.diff(trace) <= 0)
    assert weighings == [1] * len(traces)


def test_converged_is_the_last_solves():
    # a solve that meets no stopping test hands on its best state, and the
    # mission reports the last solve's outcome
    s = circle_scenario(n_steps=30)
    path = circle_path((0, 0), 50.0, 30.0, 30)
    assert run_mission(s, path, solve_every=0).converged is True
    cut = run_mission(s, path, solve_every=0, slam_cfg=SlamConfig.for_scenario(s, max_iter=1))
    assert cut.converged is False and np.isfinite(cut.user_estimates).all()


def test_nr_mission_synthesizes_no_cir(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the NR estimate synthesized a CIR")
    monkeypatch.setattr(nrtiming, "synth_cir", refuse)
    monkeypatch.setattr(nrtiming, "srs_refine", refuse)
    res = run_mission(circle_scenario(n_steps=12), "greedy", toa_path="nr")
    assert len(res.samples) == 12


def test_nr_mission_measures_a_step_in_one_call(monkeypatch):
    calls = {"sample_toa": [], "estimate_toa_nr": []}
    for name in calls:
        fn = getattr(mission, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            calls[_name].append(np.shape(out))
            return out
        monkeypatch.setattr(mission, name, counted)
    s = circle_scenario(n_steps=12, delta=15.0, users=((0.0, 0.0), (5.0, -5.0), (-9.0, 3.0)))
    res = run_mission(s, "greedy", toa_path="nr")
    assert 1 < len(res.retained_steps) < 12
    assert calls["sample_toa"] == calls["estimate_toa_nr"] == [(3,)] * len(res.retained_steps)


@pytest.mark.parametrize("mu, f_s", [(0, 491.52e6), (0, 1e9), (5, 491.52e6 * 32)])
def test_nr_path_refuses_sample_rate_beyond_cir_window(mu, f_s):
    s = circle_scenario(n_steps=10, numerology=mu, sample_rate=f_s)
    with pytest.raises(InvalidParam) as exc:
        run_mission(s, "greedy", toa_path="nr")
    assert exc.value.field == "sample_rate"
    run_mission(s, "greedy")  # the ideal path does not quantize


@pytest.mark.parametrize("solve_every", [0, 1, 5])
@pytest.mark.parametrize("toa_path", ["ideal", "nr"])
def test_mission_determinism_bit_identical(toa_path, solve_every):
    s = circle_scenario(n_steps=25, delta=2.0, seed=5)
    a = run_mission(s, "greedy", toa_path=toa_path, solve_every=solve_every)
    b = run_mission(s, "greedy", toa_path=toa_path, solve_every=solve_every)
    np.testing.assert_array_equal(a.planned, b.planned)
    np.testing.assert_array_equal(a.gps, b.gps)
    np.testing.assert_array_equal(a.user_estimates, b.user_estimates)
    np.testing.assert_array_equal(a.uav_estimates, b.uav_estimates)
    np.testing.assert_array_equal(a.crb_history, b.crb_history)
    assert a.retained_steps == b.retained_steps
    assert [m.toa for m in a.samples] == [m.toa for m in b.samples]


def test_crb_history_nonincreasing():
    s = circle_scenario(n_steps=30, delta=2.0)
    res = run_mission(s, "greedy")
    hist = res.crb_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def kept_by_rule(path, delta):
    """The 1-based steps of path that the keep rule retains: the first, then
    each at least delta from the last one retained."""
    kept = [1]
    for n in range(2, len(path) + 1):
        if np.linalg.norm(path[n - 1] - path[kept[-1] - 1]) >= delta:
            kept.append(n)
    return kept


def test_retained_steps_match_sparsify_rule():
    s = circle_scenario(n_steps=30, delta=4.0)
    res = run_mission(s, "greedy")
    assert list(res.retained_steps) == kept_by_rule(res.planned, s.delta_keep)
    # fixed paths from the scenario's start
    start = circle_scenario().uav_start.as_array()
    rng = np.random.default_rng(2)
    hops = rng.uniform(-3, 3, (19, 3))
    hops[4] = 0.0  # steps 5 and 6 are one point
    hold = start + np.cumsum(np.vstack([np.zeros(3), hops]), axis=0)
    line = start + np.outer(np.arange(10.0), [1.0, 0.0, 0.0])  # 1 m apart
    walk = start + np.cumsum(np.vstack([np.zeros(3), rng.normal(0, 1.5, (59, 3))]), axis=0)
    assert len(kept_by_rule(walk, 2.0)) < len(walk)
    for path, delta, want in [(hold, 0.0, list(range(1, 21))), (line, 2.0, [1, 3, 5, 7, 9]),
                              (walk, 2.0, kept_by_rule(walk, 2.0))]:
        s = circle_scenario(n_steps=len(path), delta=delta)
        kept = run_mission(s, path, solve_every=0).retained_steps
        assert list(kept) == want
        # each retained step lies >= delta from the one retained before it,
        # and each dropped step < delta from the last one retained
        for n in range(2, len(path) + 1):
            last = max(k for k in kept if k < n)
            assert (np.linalg.norm(path[n - 1] - path[last - 1]) >= delta) == (n in kept)


def test_greedy_path_feasible():
    s = circle_scenario(n_steps=25, delta=2.0)
    res = run_mission(s, "greedy")
    path = res.planned
    hops = np.linalg.norm(np.diff(path, axis=0), axis=1)
    assert np.all(hops <= s.d_max * (1 + 1e-12))
    term = s.uav_terminal.as_array()
    assert np.linalg.norm(path[-1] - term) <= 1e-9
    for n in range(1, s.mission_steps + 1):
        assert np.linalg.norm(path[n - 1] - term) <= \
            reach_threshold(n, s.mission_steps, s.d_max) + 1e-9


def readme_scenario(scale):
    """The README scenario with every length, and sigma0, multiplied by `scale`."""
    return Scenario(users=(Vec2(10.0 * scale, -5.0 * scale), Vec2(-20.0 * scale, 15.0 * scale)),
                    uav_start=Vec3(0.0, 0.0, 30.0 * scale),
                    uav_terminal=Vec3(40.0 * scale, 0.0, 30.0 * scale), mission_steps=25,
                    d_max=5.0 * scale, delta_keep=2.0 * scale, sigma_gps=scale,
                    toa_noise=ToaNoiseModel(sigma0=1.25e-8 * scale), seed=7)


@pytest.mark.parametrize("mode", ["greedy", "straight"])
@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1e-10, 1e-9, 1.0, 1e12, 1e30])
def test_flight_rule_holds_at_every_length_scale(scale, mode):
    """model.REACH_SLACK is relative, so the flight keeps the rule at any
    scale: every hop within d_max (1 + REACH_SLACK), every position n within
    reach_threshold(n) (1 + REACH_SLACK) of the terminal, and the last one
    exactly at it."""
    s = readme_scenario(scale)
    path = run_mission(s, "greedy" if mode == "greedy" else straight_line_path(s),
                       solve_every=5).planned
    term = s.uav_terminal.as_array()
    hops = np.linalg.norm(np.diff(path, axis=0), axis=1)
    assert np.all(hops <= s.d_max * (1 + REACH_SLACK))
    for n in range(1, s.mission_steps + 1):
        assert np.linalg.norm(path[n - 1] - term) <= \
            reach_threshold(n, s.mission_steps, s.d_max) * (1 + REACH_SLACK)
    assert path[-1].tolist() == term.tolist()


@functools.cache
def _readme_errors(scale, seed, solve_every):
    """Each user's error over `scale`, greedy with ideal ToA."""
    res = run_mission(replace(readme_scenario(scale), seed=seed), solve_every=solve_every)
    return np.array(res.metrics.user_abs_errors) / scale


@pytest.mark.parametrize("solve_every", [5, 0, 1])
@pytest.mark.parametrize("scale", [1e-38, 1e-15, 1e-12, 1e-10, 1e-9, 1e-6, 1e6, 1e12, 1e30])
def test_estimates_do_not_depend_on_the_length_unit(scale, solve_every):
    """The unit rule of model.ToaNoiseModel.sigma0: the damping bounds, the
    default tol_step and the default eps_prior scale with sigma0, and
    slam.EXTENT_RTOL is relative, so each user's error over the scale is its
    error at scale 1."""
    for seed in (7, 8, 9):
        np.testing.assert_allclose(_readme_errors(scale, seed, solve_every),
                                   _readme_errors(1.0, seed, solve_every), rtol=1e-5)


def test_nr_toa_path_runs_and_is_reasonable():
    s = circle_scenario(n_steps=30, sigma0=1e-9)
    path = circle_path((0, 0), 50.0, 30.0, s.mission_steps)
    res = run_mission(s, path, toa_path="nr", solve_every=0)
    # NR quantization alone bounds the per-measurement range error by ~2.4 m
    assert res.metrics.user_abs_errors[0] < 10.0


def test_metrics_truth_estimate_all_zero():
    s = tiny_noise_scenario()
    path = circle_path((0, 0), 50.0, 30.0, s.mission_steps)
    truth_users = np.array([[0.0, 0.0]])
    m = compute_metrics(s, path, path, tuple(range(1, s.mission_steps + 1)),
                        path, truth_users)
    assert m.user_abs_errors == (0.0,)
    assert m.user_rmse == 0.0
    assert m.uav_rmse_est == 0.0
    assert m.uav_rmse_gps == 0.0


def test_metrics_345_offset():
    s = tiny_noise_scenario()
    path = circle_path((0, 0), 50.0, 30.0, s.mission_steps)
    est_users = np.array([[3.0, 4.0]])
    m = compute_metrics(s, path, path, tuple(range(1, s.mission_steps + 1)),
                        path, est_users)
    assert m.user_abs_errors[0] == pytest.approx(5.0, rel=1e-12)


def test_slam_uav_track_beats_raw_gps_when_toa_sharp():
    # sigma_gps = 5 m >> effective ToA error (~0.3 m): fusing ToA must
    # improve the UAV track over raw GPS
    s = circle_scenario(n_steps=60, sigma0=1e-9, sigma_gps=5.0, seed=3)
    path = circle_path((0, 0), 50.0, 30.0, s.mission_steps)
    res = run_mission(s, path, solve_every=0)
    assert res.metrics.uav_rmse_est < res.metrics.uav_rmse_gps


def test_monte_carlo_single_run_matches_mission():
    s = circle_scenario(n_steps=20, delta=2.0)
    summary = monte_carlo(s, "greedy", runs=1)
    direct = run_mission(s, "greedy")
    assert summary.per_run_metrics[0] == direct.metrics
    assert summary.final_crb_traces[0] == float(direct.crb_history[-1])


def test_monte_carlo_doubling_reproduces_first_half():
    s = circle_scenario(n_steps=15, delta=2.0)
    a = monte_carlo(s, "greedy", runs=3)
    b = monte_carlo(s, "greedy", runs=6)
    assert a.per_run_metrics == b.per_run_metrics[:3]
    assert a.final_crb_traces == b.final_crb_traces[:3]


def test_monte_carlo_runs_validation():
    for runs in (0, -1, 2.5, True):
        with pytest.raises(InvalidParam) as exc:
            monte_carlo(circle_scenario(), "greedy", runs=runs)
        assert exc.value.field == "runs"


def test_straight_line_path_endpoints():
    s = circle_scenario(n_steps=12)
    p = straight_line_path(s)
    np.testing.assert_allclose(p[0], s.uav_start.as_array())
    np.testing.assert_allclose(p[-1], s.uav_terminal.as_array())
    assert len(p) == 12
