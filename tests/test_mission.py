import numpy as np
import pytest

from perfbench.workloads import WORKLOADS
from uavloc import mission, nrtiming, slam
from uavloc.errors import InvalidParam
from uavloc.mission import (circle_path, compute_metrics, monte_carlo,
                            run_mission, straight_line_path)
from uavloc.model import (Scenario, ToaNoiseModel, Vec2, Vec3)
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
    hover[0, 0] += 5e-10  # within 1e-9 m of uav_start
    assert run_mission(s, hover).planned[0].tolist() == s.uav_start.as_array().tolist()


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


@pytest.mark.parametrize("solve_every", [0, 1, 5])
def test_initial_state_runs_once_at_the_first_step(monkeypatch, solve_every):
    # one start at step 1, for the planner; every solve, the first too,
    # starts from basin_start, whose squared-range fit needs no draw
    rows = []
    start = slam.initial_state

    def counted(samples, rng):
        rows.append(len(samples))
        return start(samples, rng)
    monkeypatch.setattr(slam, "initial_state", counted)
    run_mission(sigma_gps_scenario(), "greedy", solve_every=solve_every)
    assert rows == [6]


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


def test_mission_determinism_bit_identical():
    s = circle_scenario(n_steps=25, delta=2.0, seed=5)
    a = run_mission(s, "greedy")
    b = run_mission(s, "greedy")
    np.testing.assert_array_equal(a.planned, b.planned)
    np.testing.assert_array_equal(a.gps, b.gps)
    np.testing.assert_array_equal(a.user_estimates, b.user_estimates)
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
