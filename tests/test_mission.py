import numpy as np
import pytest

from uavloc import mission, nrtiming, slam
from uavloc.channel import sparsify
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


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_run_mission_refuses_bad_seed(seed):
    with pytest.raises(InvalidParam) as exc:
        run_mission(circle_scenario(n_steps=10), "greedy", seed=seed)
    assert exc.value.field == "seed"


@pytest.mark.parametrize("solve_every", [-1, 1.5])
def test_run_mission_refuses_bad_solve_every(solve_every):
    with pytest.raises(InvalidParam) as exc:
        run_mission(circle_scenario(n_steps=10), "greedy", solve_every=solve_every)
    assert exc.value.field == "solve_every"


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
    s = circle_scenario(n_steps=25, delta=2.0)
    a = run_mission(s, "greedy", seed=5)
    b = run_mission(s, "greedy", seed=5)
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


def test_retained_steps_match_sparsify_rule():
    s = circle_scenario(n_steps=30, delta=4.0)
    res = run_mission(s, "greedy")
    kept = sparsify(res.planned, s.delta_keep)
    assert list(np.asarray(res.retained_steps) - 1) == kept
    pos = res.planned
    for a, b in zip(res.retained_steps, res.retained_steps[1:]):
        assert np.linalg.norm(pos[b - 1] - pos[a - 1]) >= s.delta_keep


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
    direct = run_mission(s, "greedy", seed=s.seed)
    assert summary.per_run_metrics[0] == direct.metrics
    assert summary.final_crb_traces[0] == float(direct.crb_history[-1])


def test_monte_carlo_doubling_reproduces_first_half():
    s = circle_scenario(n_steps=15, delta=2.0)
    a = monte_carlo(s, "greedy", runs=3)
    b = monte_carlo(s, "greedy", runs=6)
    assert a.per_run_metrics == b.per_run_metrics[:3]
    assert a.final_crb_traces == b.final_crb_traces[:3]


def test_monte_carlo_runs_validation():
    with pytest.raises(InvalidParam):
        monte_carlo(circle_scenario(), "greedy", runs=0)


def test_straight_line_path_endpoints():
    s = circle_scenario(n_steps=12)
    p = straight_line_path(s)
    np.testing.assert_allclose(p[0], s.uav_start.as_array())
    np.testing.assert_allclose(p[-1], s.uav_terminal.as_array())
    assert len(p) == 12
