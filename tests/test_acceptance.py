"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion NN PASS" line on success; the pytest -v
report gives the matching fail line otherwise.
"""
import filecmp
import time


import numpy as np
import pytest

from uavloc.channel import los_delay
from uavloc.cli import main
from uavloc.fim import (accumulate, crb_trace, improvement_matrix,
                        initial_info, inverse_with_prior, step_contribution,
                        toa_info_contribution)
from uavloc.mission import circle_path, monte_carlo, run_mission
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import (MeasurementSample, Scenario, ToaNoiseModel, Vec2,
                          Vec3)
from uavloc.nrtiming import NrConfig, SawtoothDrift, drift_offset, estimate_toa_nr
from uavloc.planner import reach_threshold
from uavloc.slam import SlamConfig, StateVector, solve_slam, toa_jacobian_row


def circle(n, radius=50.0, alt=30.0):
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang),
                            np.full(n, alt)])


def noiseless_samples(uavs, users):
    return [MeasurementSample(step=n, user_id=k, gps_pos=Vec3(*p),
                              toa=los_delay(p, u))
            for n, p in enumerate(uavs, start=1)
            for k, u in enumerate(users, start=1)]


def test_criterion_01_jacobian_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    h = 1e-3
    for _ in range(100):
        uav = rng.uniform(-100, 100, 3)
        uav[2] = rng.uniform(5, 100)
        user = rng.uniform(-100, 100, 2)

        def resid(x, u):
            return -np.linalg.norm(np.asarray(x) - np.r_[u, 0.0]) / C

        fd = np.zeros(5)
        for i in range(3):
            e = np.zeros(3); e[i] = h
            fd[i] = (resid(uav + e, user) - resid(uav - e, user)) / (2 * h)
        for i in range(2):
            e = np.zeros(2); e[i] = h
            fd[3 + i] = (resid(uav, user + e) - resid(uav, user - e)) / (2 * h)
        analytic = toa_jacobian_row(uav, user)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6

        # gps residual is g - x, so each coordinate derivative is exactly -1
        for i in range(3):
            e = np.zeros(3); e[i] = h
            g = rng.uniform(-10, 10, 3)
            fd_gps = ((g - (uav + e))[i] - (g - (uav - e))[i]) / (2 * h)
            assert abs(fd_gps - (-1.0)) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 01 PASS: jacobians match finite differences ({elapsed:.2f} s)")


def test_criterion_02_fim_cumulativity():
    rng = np.random.default_rng(101)
    for _ in range(50):
        steps = int(rng.integers(3, 20))
        k = int(rng.integers(1, 4))
        uavs = rng.uniform(-80, 80, (steps, 3))
        uavs[:, 2] = rng.uniform(10, 60, steps)
        users = rng.uniform(-80, 80, (k, 2))
        sigmas = rng.uniform(5e-9, 5e-8, (steps, k))
        contribs = [np.array([toa_info_contribution(uavs[n], users[j], sigmas[n, j])
                              for j in range(k)]) for n in range(steps)]
        # from scratch: sum the per-user blocks directly into a fresh matrix
        scratch = np.zeros((2 * k, 2 * k))
        for c in contribs:
            for j in range(k):
                scratch[2 * j:2 * j + 2, 2 * j:2 * j + 2] += c[j]
        info = initial_info(k)
        for c in contribs:
            info = accumulate(info, c)
        err = np.linalg.norm(info.fim - scratch) / np.linalg.norm(scratch)
        assert err <= 1e-12
    print("criterion 02 PASS: incremental FIM equals from-scratch rebuild (50 missions)")


def test_criterion_03_inverse_recursion():
    rng = np.random.default_rng(102)
    for _ in range(10):
        uavs = rng.uniform(-80, 80, (20, 3))
        uavs[:, 2] = rng.uniform(10, 60, 20)
        users = rng.uniform(-80, 80, (2, 2))
        info = initial_info(2, eps_prior=1e-6)
        inv = inverse_with_prior(info)
        for n in range(20):
            c = np.array([toa_info_contribution(uavs[n], users[j],
                                                float(rng.uniform(5e-9, 5e-8)))
                          for j in range(2)])
            inv = inv - improvement_matrix(info, c)
            info = accumulate(info, c)
        direct = inverse_with_prior(info)
        err = np.linalg.norm(inv - direct) / np.linalg.norm(direct)
        assert err <= 1e-8
    print("criterion 03 PASS: recursive inverse matches direct inversion (<= 1e-8)")


def test_criterion_04_orthogonal_crb_closed_form():
    sigma = 1e-9
    info = initial_info(1, eps_prior=0.0)
    info = accumulate(info, toa_info_contribution((50, 0, 0), (0, 0), sigma)[None])
    info = accumulate(info, toa_info_contribution((0, 50, 0), (0, 0), sigma)[None])
    expected = 2 * sigma ** 2 * C ** 2
    assert expected == pytest.approx(0.17975, abs=2e-4)
    assert crb_trace(info) == pytest.approx(expected, rel=1e-9)
    print(f"criterion 04 PASS: orthogonal-geometry CRB = {crb_trace(info):.5f} m^2")


def test_criterion_05_noiseless_slam_recovery():
    ok = 0
    for seed in range(100):
        rng = np.random.default_rng(200 + seed)
        uavs = circle(20, radius=float(rng.uniform(30, 70)),
                      alt=float(rng.uniform(20, 50)))
        users = rng.uniform(-40, 40, (2, 2))
        samples = noiseless_samples(uavs, list(users))
        init = StateVector(uav=uavs + rng.uniform(-2, 2, uavs.shape),
                           users=users + rng.uniform(-5, 5, users.shape))
        cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8,
                         tol_step=1e-10, max_iter=50)
        try:
            state, report = solve_slam(init, samples, cfg)
        except Exception:
            continue
        if (report.iterations <= 50
                and np.abs(state.uav - uavs).max() < 1e-6
                and np.abs(state.users - users).max() < 1e-6):
            ok += 1
    assert ok >= 95
    print(f"criterion 05 PASS: noiseless recovery on {ok}/100 seeds")


def test_criterion_06_estimator_efficiency():
    t0 = time.perf_counter()
    sigma_tau = 12.5e-9
    n_steps = 100
    s = Scenario(users=(Vec2(0.0, 0.0),),
                 uav_start=Vec3(50, 0, 30), uav_terminal=Vec3(50, 0, 30),
                 mission_steps=n_steps, d_max=5.0, delta_keep=0.0,
                 sigma_gps=1.0,
                 toa_noise=ToaNoiseModel(kind="constant", sigma0=sigma_tau),
                 seed=0)
    path = circle_path((0, 0), 50.0, 30.0, n_steps)
    summary = monte_carlo(s, path, runs=200, solve_every=0)

    # reference bound accumulated along the true trajectory at the true user
    info = initial_info(1)
    for p in path:
        info = accumulate(info, step_contribution(p, [[0.0, 0.0]], s.toa_noise))
    crb = crb_trace(info)

    errs = np.array([m.user_abs_errors[0] for m in summary.per_run_metrics])
    mse = float(np.mean(errs ** 2))
    rmse = float(np.sqrt(mse))
    elapsed = time.perf_counter() - t0
    assert rmse <= 2.0 * np.sqrt(crb)
    assert mse >= 0.85 * crb
    assert elapsed < 120.0
    print(f"criterion 06 PASS: rmse={rmse:.3f} m, crb={crb:.3f} m^2, "
          f"{elapsed:.1f} s over 200 runs")


def test_criterion_07_nr_quantization_bound():
    f_s = 61.44e6
    worst = 0.0
    for mu in (0, 1):
        cfg = NrConfig(mu=mu, f_s=f_s)
        grid = np.concatenate([np.linspace(0.0, 2e-6, 4001),
                               np.random.default_rng(301).uniform(0, 2e-6, 1000)])
        for t in grid:
            err = abs(estimate_toa_nr(float(t), cfg, 0.0) - t)
            worst = max(worst, err)
    bound = 1 / (2 * f_s)
    assert worst <= bound
    print(f"criterion 07 PASS: max NR error {worst * 1e9:.2f} ns <= {bound * 1e9:.2f} ns")


def test_criterion_08_sawtooth_consistency():
    f_s = 61.44e6
    cfg = NrConfig(mu=1, f_s=f_s)
    rate, period = 1e-8, 10
    drift = SawtoothDrift(rate=rate, reset_period=period)
    tau = 200.0 / C  # static 200 m round-trip-free link
    errors = [estimate_toa_nr(tau, cfg, drift_offset(n, drift)) - tau
              for n in range(1, 4 * period + 1)]
    # exact periodicity: the drift pattern repeats and quantization is
    # deterministic in the true delay
    for n in range(len(errors) - period):
        assert errors[n] == errors[n + period]
    # ramp: within each period the error never steps down by more than one
    # quantization cell
    cell = 1 / (2 * f_s)
    for start in range(0, len(errors), period):
        block = errors[start:start + period]
        assert all(b >= a - cell for a, b in zip(block, block[1:]))
    span = max(errors) - min(errors)
    assert span == pytest.approx(rate * (period - 1) / 2, abs=cell)
    print(f"criterion 08 PASS: sawtooth period {period}, "
          f"peak-to-trough {span * 1e9:.1f} ns ~= {rate * (period - 1) / 2 * 1e9:.1f} ns")


def test_criterion_09_planner_feasibility():
    rng = np.random.default_rng(400)
    for _ in range(100):
        n_steps = int(rng.integers(8, 21))
        d_max = float(rng.uniform(2, 8))
        start = np.r_[rng.uniform(-30, 30, 2), rng.uniform(20, 50)]
        bearing = rng.uniform(0, 2 * np.pi)
        span = rng.uniform(0, 0.9) * d_max * (n_steps - 1)
        term = start + span * np.array([np.cos(bearing), np.sin(bearing), 0.0])
        users = tuple(Vec2(*rng.uniform(-60, 60, 2))
                      for _ in range(int(rng.integers(1, 3))))
        s = Scenario(users=users, uav_start=Vec3(*start), uav_terminal=Vec3(*term),
                     mission_steps=n_steps, d_max=d_max, delta_keep=0.0,
                     sigma_gps=1.0,
                     toa_noise=ToaNoiseModel(kind="constant", sigma0=1.25e-8),
                     seed=int(rng.integers(0, 10000)))
        res = run_mission(s, "greedy", solve_every=0)
        path = res.planned
        hops = np.linalg.norm(np.diff(path, axis=0), axis=1)
        assert np.all(hops <= d_max * (1 + 1e-12))
        assert np.linalg.norm(path[-1] - term) <= 1e-9
        for n in range(1, n_steps + 1):
            assert np.linalg.norm(path[n - 1] - term) <= \
                reach_threshold(n, n_steps, d_max) + 1e-9
    print("criterion 09 PASS: 100 greedy missions feasible, terminal hit at step N")


def test_criterion_10_planner_value():
    rng = np.random.default_rng(500)
    greedy_crbs, straight_crbs = [], []
    n_steps, d_max = 25, 5.0
    for i in range(100):
        start = np.r_[rng.uniform(-20, 20, 2), rng.uniform(25, 40)]
        bearing = rng.uniform(0, 2 * np.pi)
        span = rng.uniform(0, 0.5) * d_max * (n_steps - 1)
        term = start + span * np.array([np.cos(bearing), np.sin(bearing), 0.0])
        s = Scenario(users=(Vec2(*rng.uniform(-40, 40, 2)),),
                     uav_start=Vec3(*start), uav_terminal=Vec3(*term),
                     mission_steps=n_steps, d_max=d_max, delta_keep=0.0,
                     sigma_gps=1.0,
                     toa_noise=ToaNoiseModel(kind="constant", sigma0=1.25e-8),
                     seed=1000 + i)
        g = run_mission(s, "greedy", solve_every=5)
        line = np.linspace(start, term, n_steps)
        f = run_mission(s, line, solve_every=5)
        greedy_crbs.append(float(g.crb_history[-1]))
        straight_crbs.append(float(f.crb_history[-1]))
    med_g = float(np.median(greedy_crbs))
    med_s = float(np.median(straight_crbs))
    assert med_g <= med_s
    print(f"criterion 10 PASS: median final CRB greedy {med_g:.3f} <= straight {med_s:.3f}")


def test_criterion_11_bandwidth_consistency():
    f_s = 40e6  # one range-resolution cell is C/B = 7.5 m
    rng = np.random.default_rng(600)
    errors = []
    n_steps = 40
    path = circle_path((0, 0), 50.0, 30.0, n_steps)
    for i in range(100):
        user = rng.uniform(-30, 30, 2)
        s = Scenario(users=(Vec2(*user),),
                     uav_start=Vec3(50, 0, 30), uav_terminal=Vec3(50, 0, 30),
                     mission_steps=n_steps, d_max=10.0, delta_keep=0.0,
                     sigma_gps=1.0,
                     toa_noise=ToaNoiseModel(kind="constant", sigma0=1.25e-8),
                     sample_rate=f_s, seed=i)
        res = run_mission(s, path, toa_path="nr", solve_every=0)
        errors.append(res.metrics.user_abs_errors[0])
    med = float(np.median(errors))
    assert med <= 7.5
    print(f"criterion 11 PASS: median NR-path user error {med:.2f} m <= 7.5 m")


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text("users:\n  - [10.0, -5.0]\n  - [-20.0, 15.0]\n"
                   "uav_start: [0.0, 0.0, 30.0]\n"
                   "uav_terminal: [40.0, 0.0, 30.0]\n"
                   "mission_steps: 25\ndelta_keep: 2.0\nseed: 7\n")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--scenario", str(cfg), "--out", out_a, "--seed", "7"]) == 0
    assert main(["simulate", "--scenario", str(cfg), "--out", out_b, "--seed", "7"]) == 0
    names = ["trajectory.csv", "users.csv", "crb_history.csv",
             "metrics.json", "measurements.csv"]
    match, mismatch, errs = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert sorted(match) == sorted(names) and not mismatch and not errs
    print("criterion 12 PASS: repeated simulate runs are byte-identical")
