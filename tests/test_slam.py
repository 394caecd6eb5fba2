import math

import numpy as np
import pytest

from uavloc.channel import los_delay
from uavloc.errors import DegenerateGeometry, NotConverged
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import MeasurementSample, ToaNoiseModel, Vec3
from uavloc.slam import (NormalEquations, SlamConfig, StateVector,
                         assemble_normal_equations, build_problem,
                         gauss_newton_step, measurement_weights, objective,
                         solve_slam, toa_jacobian_row)


def make_samples(uav_positions, users, gps_positions=None, noise=None):
    """Noiseless samples unless explicit gps positions / toa noise are given."""
    gps_positions = gps_positions if gps_positions is not None else uav_positions
    samples = []
    for n, (p, g) in enumerate(zip(uav_positions, gps_positions), start=1):
        for k, u in enumerate(users, start=1):
            tau = los_delay(p, u)
            if noise is not None:
                tau += noise.standard_normal() * 0  # placeholder, unused
            samples.append(MeasurementSample(step=n, user_id=k,
                                             gps_pos=Vec3(*g), toa=tau))
    return samples


def circle(n, radius=50.0, alt=30.0, center=(0.0, 0.0)):
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang),
                            np.full(n, alt)])


# --- objective ---

def test_objective_zero_at_truth():
    uavs = circle(8)
    users = [np.array([0.0, 40.0])]
    samples = make_samples(uavs, users)
    state = StateVector(uav=uavs.copy(), users=np.array(users))
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1e-8)
    assert objective(state, samples, cfg) == 0.0


def test_objective_single_gps_unit_residual():
    samples = [MeasurementSample(1, 1, Vec3(1, 0, 0.1),
                                 toa=los_delay((0, 0, 0.1), (0, 50)))]
    # gps offset (1,0,0) from the pose; the toa residual stays zero
    state = StateVector(uav=np.array([[0.0, 0.0, 0.1]]), users=np.array([[0.0, 50.0]]))
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1e-8)
    obj = objective(state, samples, cfg)
    toa_resid = samples[0].toa - los_delay((0, 0, 0.1), (0, 50))
    assert obj == pytest.approx(1.0 + toa_resid ** 2 / 1e-16, rel=1e-12)
    assert obj == pytest.approx(1.0)


def test_objective_single_toa_hand_oracle():
    # truth user (0,40), tau_hat = 50/C; state user at (0,43): d = sqrt(2749)
    sigma_tau = 1e-8
    tau_hat = 50.0 / C
    samples = [MeasurementSample(1, 1, Vec3(0, 0, 30), toa=tau_hat)]
    state = StateVector(uav=np.array([[0.0, 0.0, 30.0]]), users=np.array([[0.0, 43.0]]))
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=sigma_tau)
    d = math.sqrt(2749.0)
    assert d == pytest.approx(52.4309, abs=1e-4)
    expected = ((50.0 - d) / C) ** 2 / sigma_tau ** 2  # gps residual is zero
    assert objective(state, samples, cfg) == pytest.approx(expected, rel=1e-12)


# --- toa_jacobian_row ---

def fd_toa_jacobian(uav, user, h=1e-3):
    """Central finite differences of r = tau_hat - d/C (tau_hat constant)."""
    def resid(x, u):
        d = np.linalg.norm(np.asarray(x) - np.array([u[0], u[1], 0.0]))
        return -d / C
    row = np.zeros(5)
    uav = np.asarray(uav, dtype=float)
    user = np.asarray(user, dtype=float)
    for i in range(3):
        e = np.zeros(3); e[i] = h
        row[i] = (resid(uav + e, user) - resid(uav - e, user)) / (2 * h)
    for i in range(2):
        e = np.zeros(2); e[i] = h
        row[3 + i] = (resid(uav, user + e) - resid(uav, user - e)) / (2 * h)
    return row


def test_jacobian_hand_values():
    row = toa_jacobian_row((50, 0, 0), (0, 0))
    assert row[3] == pytest.approx(1.0 / C, rel=1e-12)   # du_x
    assert row[4] == 0.0
    row = toa_jacobian_row((0, 0, 30), (0, 40))
    assert row[4] == pytest.approx(-40.0 / (C * 50.0), rel=1e-12)
    assert row[4] == pytest.approx(-2.668e-9, rel=1e-3)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(100):
        uav = rng.uniform(-100, 100, 3)
        uav[2] = rng.uniform(5, 100)
        user = rng.uniform(-100, 100, 2)
        analytic = toa_jacobian_row(uav, user)
        fd = fd_toa_jacobian(uav, user)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6


def test_jacobian_coordinate_swap_symmetry():
    row = toa_jacobian_row((3, 7, 20), (1, 2))
    swapped = toa_jacobian_row((7, 3, 20), (2, 1))
    assert swapped[0] == pytest.approx(row[1], rel=1e-14)
    assert swapped[1] == pytest.approx(row[0], rel=1e-14)
    assert swapped[3] == pytest.approx(row[4], rel=1e-14)
    assert swapped[4] == pytest.approx(row[3], rel=1e-14)


def test_jacobian_degenerate():
    with pytest.raises(DegenerateGeometry):
        toa_jacobian_row((1, 2, 0), (1, 2))


# --- assemble_normal_equations ---

def test_gps_only_block_diagonal():
    uavs = circle(4)
    users = [np.array([0.0, 40.0])]
    # gps-only: the toa measurements get zero weight
    samples = make_samples(uavs, users)
    problem = build_problem(samples)
    cfg = SlamConfig(sigma_gps=2.0, sigma_tau=1e-8)
    state = StateVector(uav=uavs.copy(), users=np.array(users))
    ne = assemble_normal_equations(problem, state.flatten(), 1 / cfg.sigma_gps ** 2, 0.0)
    expected = np.zeros((14, 14))
    expected[:12, :12] = np.kron(np.eye(4), np.eye(3) / 4.0)
    np.testing.assert_allclose(ne.H, expected, atol=1e-15)


def test_single_toa_term_rank_one_outer_product():
    sigma = 2e-8
    samples = [MeasurementSample(1, 1, Vec3(0, 0, 30), toa=50 / C)]
    problem = build_problem(samples)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=sigma)
    state = StateVector(uav=np.array([[0.0, 0.0, 30.0]]), users=np.array([[0.0, 40.0]]))
    # toa-only: the gps fix gets zero weight
    ne = assemble_normal_equations(problem, state.flatten(), 0.0, 1 / cfg.sigma_tau ** 2)
    j = toa_jacobian_row((0, 0, 30), (0, 40))
    expected = np.outer(j, j) / sigma ** 2
    np.testing.assert_allclose(ne.H, expected, rtol=1e-13, atol=1e-30)
    assert np.linalg.matrix_rank(ne.H, tol=1e-12 * np.abs(ne.H).max()) == 1


def test_h_psd_random_scenarios():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, 4))
        uavs = rng.uniform(-80, 80, (n, 3))
        uavs[:, 2] = rng.uniform(10, 60, n)
        users = list(rng.uniform(-80, 80, (k, 2)))
        samples = make_samples(uavs, users)
        state = StateVector(uav=uavs, users=np.array(users))
        cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1e-8)
        problem = build_problem(samples)
        flat = state.flatten()
        H = assemble_normal_equations(problem, flat,
                                      *measurement_weights(problem, flat, cfg)).H
        np.testing.assert_allclose(H, H.T, rtol=1e-12, atol=1e-20)
        for _ in range(10):
            x = rng.standard_normal(len(H))
            assert x @ H @ x >= -1e-10 * (x @ x)


def dense_oracle_h_b(state, problem, cfg):
    """Independent dense construction: stack the full Jacobian row by row.

    ToA weights are 1/sigma^2, sigma taken from the exponential noise model
    at the state's link distance when cfg.per_distance_weights is set, times
    the Huber IRLS weight delta/|r| for residuals beyond cfg.huber_delta.
    Also returns the objective: weighted squares, Huber-linear beyond delta.
    """
    flat = state.flatten()
    S, K = problem.num_poses, problem.num_users
    rows, weights, resids, costs = [], [], [], []
    w_gps = 1 / cfg.sigma_gps ** 2
    for i in range(S):
        for axis in range(3):
            row = np.zeros(3 * S + 2 * K)
            row[3 * i + axis] = -1.0
            rows.append(row)
            weights.append(w_gps)
            resids.append(problem.gps[i][axis] - flat[3 * i + axis])
            costs.append(w_gps * resids[-1] ** 2)
    for i, j, tau in zip(problem.pose, problem.user, problem.toa):
        x = flat[3 * i:3 * i + 3]
        u = flat[3 * S + 2 * j:3 * S + 2 * j + 2]
        diff = x - np.array([u[0], u[1], 0.0])
        d = np.linalg.norm(diff)
        row = np.zeros(3 * S + 2 * K)
        row[3 * i:3 * i + 3] = -diff / (C * d)
        row[3 * S + 2 * j:3 * S + 2 * j + 2] = diff[:2] / (C * d)
        rows.append(row)
        sigma = cfg.sigma_tau
        if cfg.per_distance_weights:
            m = cfg.noise_model
            sigma = m.sigma0 + m.amp * math.exp(d / m.scale)
        r = tau - d / C
        w = 1 / sigma ** 2
        delta = cfg.huber_delta
        if delta is not None and abs(r) > delta:
            weights.append(w * delta / abs(r))
            costs.append(w * delta * (2 * abs(r) - delta))
        else:
            weights.append(w)
            costs.append(w * r ** 2)
        resids.append(r)
    J = np.array(rows)
    W = np.diag(weights)
    r = np.array(resids)
    return J.T @ W @ J, J.T @ W @ r, math.fsum(costs)


def random_h_b_case(rng):
    """Noisy samples over a random geometry and a perturbed state."""
    n = int(rng.integers(4, 11))
    k = int(rng.integers(1, 4))
    uavs = rng.uniform(-80, 80, (n, 3))
    uavs[:, 2] = rng.uniform(10, 60, n)
    users = list(rng.uniform(-80, 80, (k, 2)))
    gps = uavs + rng.normal(0, 1, uavs.shape)
    samples = make_samples(uavs, users, gps_positions=gps)
    state = StateVector(uav=gps.copy(), users=np.array(users) + rng.normal(0, 3, (k, 2)))
    return samples, state


def test_h_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        cfg = SlamConfig(sigma_gps=1.3, sigma_tau=2e-8)
        samples, state = random_h_b_case(rng)
        problem = build_problem(samples)
        flat = state.flatten()
        ne = assemble_normal_equations(problem, flat, *measurement_weights(problem, flat, cfg))
        H_ref, b_ref, _ = dense_oracle_h_b(state, problem, cfg)
        np.testing.assert_allclose(ne.H, H_ref, rtol=1e-12, atol=1e-30)
        np.testing.assert_allclose(ne.b, b_ref, rtol=1e-12, atol=1e-30)


@pytest.mark.parametrize("huber, per_distance",
                         [(True, False), (False, True), (True, True)],
                         ids=["huber", "per_distance", "huber_and_per_distance"])
def test_weighted_h_b_objective_match_dense_oracle(huber, per_distance):
    rng = np.random.default_rng(5)
    noise = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=2e-9, scale=40.0)
    cfg = SlamConfig(sigma_gps=1.3, sigma_tau=2e-8, noise_model=noise,
                     per_distance_weights=per_distance,
                     huber_delta=1e-8 if huber else None)
    beyond = within = 0
    for _ in range(5):
        samples, state = random_h_b_case(rng)
        problem = build_problem(samples)
        flat = state.flatten()
        ne = assemble_normal_equations(problem, flat, *measurement_weights(problem, flat, cfg),
                                       huber_delta=cfg.huber_delta)
        H_ref, b_ref, f_ref = dense_oracle_h_b(state, problem, cfg)
        np.testing.assert_allclose(ne.H, H_ref, rtol=1e-12, atol=1e-30)
        np.testing.assert_allclose(ne.b, b_ref, rtol=1e-12, atol=1e-30)
        assert objective(state, samples, cfg) == pytest.approx(f_ref, rel=1e-12)
        resid = np.array([m.toa - los_delay(state.uav[m.step - 1], state.users[m.user_id - 1])
                          for m in samples])
        beyond += int(np.sum(np.abs(resid) > 1e-8))
        within += int(np.sum(np.abs(resid) <= 1e-8))
    # both branches of the Huber weight are exercised
    assert beyond > 0 and within > 0


# --- gauss_newton_step ---

def test_step_zero_b():
    H = np.eye(5)
    delta = gauss_newton_step(NormalEquations(H=H, b=np.zeros(5), damping=0.0))
    np.testing.assert_array_equal(delta, np.zeros(5))


def test_pure_gps_one_exact_step():
    uavs = circle(5)
    gps = uavs + np.random.default_rng(1).normal(0, 2, uavs.shape)
    users = [np.array([0.0, 40.0])]
    samples = make_samples(uavs, users, gps_positions=gps)
    problem = build_problem(samples)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1e-8)
    state = StateVector(uav=uavs.copy(), users=np.array(users))
    flat = state.flatten()
    # gps-only: the toa measurements get zero weight
    ne = assemble_normal_equations(problem, flat, 1 / cfg.sigma_gps ** 2, 0.0)
    # restrict to the pose block (user block untouched by gps terms)
    d = 15
    delta = gauss_newton_step(NormalEquations(H=ne.H[:d, :d], b=ne.b[:d], damping=0.0))
    moved = flat[:d] + delta
    np.testing.assert_allclose(moved.reshape(5, 3), gps, rtol=0, atol=1e-10)


def test_linear_solve_residual():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        A = rng.standard_normal((n, n))
        H = A @ A.T + n * np.eye(n)
        b = rng.standard_normal(n)
        lam = float(rng.uniform(0, 1))
        delta = gauss_newton_step(NormalEquations(H=H, b=b, damping=lam))
        res = np.linalg.norm((H + lam * np.eye(n)) @ delta + b) / np.linalg.norm(b)
        assert res <= 1e-10


# --- solve_slam ---

def test_noiseless_recovery_from_perturbed_init():
    rng = np.random.default_rng(0)
    uavs = circle(20)
    users = np.array([[0.0, 40.0], [-30.0, -10.0]])
    samples = make_samples(uavs, list(users))
    init = StateVector(uav=uavs + rng.uniform(-1, 1, uavs.shape),
                       users=users + rng.uniform(-1, 1, users.shape))
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8, tol_step=1e-10)
    state, report = solve_slam(init, samples, cfg, warn_identifiability=False)
    assert report.converged
    np.testing.assert_allclose(state.uav, uavs, atol=1e-6)
    np.testing.assert_allclose(state.users, users, atol=1e-6)


def test_objective_trace_nonincreasing():
    rng = np.random.default_rng(2)
    uavs = circle(15)
    gps = uavs + rng.normal(0, 1, uavs.shape)
    users = np.array([[10.0, 25.0]])
    samples = []
    for n, (p, g) in enumerate(zip(uavs, gps), start=1):
        tau = los_delay(p, users[0]) + 1.25e-8 * rng.standard_normal()
        samples.append(MeasurementSample(n, 1, Vec3(*g), tau))
    init = StateVector(uav=gps.copy(), users=np.array([[40.0, -40.0]]))
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8)
    state, report = solve_slam(init, samples, cfg, warn_identifiability=False)
    trace = report.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("per_distance", [False, True], ids=["fixed", "per_distance"])
def test_objective_evaluations_per_solve(monkeypatch, per_distance):
    # with fixed weights the objective at the current point is already known
    # (the value before the loop, or the accepted trial's), so only the trial
    # steps evaluate it; per-distance weights change it at every iteration
    import uavloc.slam as slam_mod
    calls = {"objective_terms": 0, "gauss_newton_step": 0}
    for name in calls:
        def counted(*args, _fn=getattr(slam_mod, name), _name=name, **kw):
            out = _fn(*args, **kw)
            calls[_name] += 1
            return out
        monkeypatch.setattr(slam_mod, name, counted)
    rng = np.random.default_rng(4)
    uavs = circle(15)
    gps = uavs + rng.normal(0, 1, uavs.shape)
    users = np.array([[10.0, 25.0], [-20.0, 5.0]])
    samples = [MeasurementSample(n, k, Vec3(*g), los_delay(p, u) + 1.25e-8 * rng.standard_normal())
               for n, (p, g) in enumerate(zip(uavs, gps), start=1)
               for k, u in enumerate(users, start=1)]
    noise = ToaNoiseModel(kind="exponential", sigma0=1e-8, amp=2e-9, scale=60.0)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8, noise_model=noise,
                     per_distance_weights=per_distance)
    init = StateVector(uav=gps.copy(), users=users + 8.0)
    _, report = solve_slam(init, samples, cfg, warn_identifiability=False)
    assert calls["gauss_newton_step"] >= report.iterations > 1
    per_iteration = report.iterations if per_distance else 0
    assert calls["objective_terms"] == 1 + per_iteration + calls["gauss_newton_step"]


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    uavs = circle(12)
    gps = uavs + rng.normal(0, 1, uavs.shape)
    users = np.array([[5.0, 20.0]])
    offset = np.array([123.0, -77.0])

    def solve_for(shift2):
        shift3 = np.r_[shift2, 0.0]
        samples = []
        for n, (p, g) in enumerate(zip(uavs + shift3, gps + shift3), start=1):
            samples.append(MeasurementSample(n, 1, Vec3(*g),
                                             los_delay(p, users[0] + shift2)))
        init = StateVector(uav=(gps + shift3).copy(),
                           users=users + shift2 + np.array([[3.0, -2.0]]))
        cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8, tol_step=1e-10)
        state, _ = solve_slam(init, samples, cfg, warn_identifiability=False)
        return state

    a = solve_for(np.zeros(2))
    b = solve_for(offset)
    np.testing.assert_allclose(b.users - offset, a.users, atol=1e-6)
    np.testing.assert_allclose(b.uav - np.r_[offset, 0.0], a.uav, atol=1e-6)


def test_gauge_positive_definite_with_gps():
    # two poses with linearly independent horizontal gradients to the user
    uavs = np.array([[50.0, 0.0, 30.0], [0.0, 50.0, 30.0]])
    users = [np.array([0.0, 0.0])]
    samples = make_samples(uavs, users)
    state = StateVector(uav=uavs.copy(), users=np.array(users))
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1e-8)
    problem = build_problem(samples)
    flat = state.flatten()
    H = assemble_normal_equations(problem, flat, *measurement_weights(problem, flat, cfg)).H
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() > 0


def test_not_converged_carries_state():
    uavs = circle(10)
    users = np.array([[0.0, 40.0]])
    samples = make_samples(uavs, list(users))
    init = StateVector(uav=uavs.copy(), users=users + 100.0)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8, max_iter=1, tol_step=1e-14)
    with pytest.raises(NotConverged) as exc:
        solve_slam(init, samples, cfg, warn_identifiability=False)
    assert exc.value.state is not None
    assert exc.value.report.iterations == 1
