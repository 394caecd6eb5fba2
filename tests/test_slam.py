import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavloc import slam
from uavloc.channel import RngStream, los_delay
from uavloc.errors import DegenerateGeometry, InvalidParam, SingularSystem
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import MeasurementLog, MeasurementSample, ToaNoiseModel, Vec3
from uavloc.slam import (NormalEquations, SlamConfig, StateVector,
                         assemble_normal_equations, basin_start, check_identifiability,
                         gauss_newton_step, measurement_weights, objective,
                         initial_state, objective_terms, residuals, solve_slam,
                         toa_jacobian_row)
from uavloc.slam import _range_fit


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

def dense_h(ne):
    """The dense (3S + 2K)-square H whose blocks `ne` holds."""
    S, K = len(ne.Hpp), len(ne.Huu)
    H = np.zeros((3 * S + 2 * K, 3 * S + 2 * K))
    for i in range(S):
        H[3 * i:3 * i + 3, 3 * i:3 * i + 3] = ne.Hpp[i]
        H[3 * i:3 * i + 3, 3 * S:] = ne.Hpu[i]
        H[3 * S:, 3 * i:3 * i + 3] = ne.Hpu[i].T
    for j in range(K):
        H[3 * S + 2 * j:3 * S + 2 * j + 2, 3 * S + 2 * j:3 * S + 2 * j + 2] = ne.Huu[j]
    return H


def blocks_of(H, b, S, K):
    """NormalEquations holding the blocks of a dense H with no pose-pose or
    user-user coupling."""
    Hpp = np.array([H[3 * i:3 * i + 3, 3 * i:3 * i + 3] for i in range(S)])
    Hpu = np.array([H[3 * i:3 * i + 3, 3 * S:] for i in range(S)])
    Huu = np.array([H[3 * S + 2 * j:3 * S + 2 * j + 2, 3 * S + 2 * j:3 * S + 2 * j + 2]
                    for j in range(K)]).reshape(K, 2, 2)
    return NormalEquations(Hpp=Hpp, Hpu=Hpu, Huu=Huu, b=b)


def test_dense_h_helpers_round_trip():
    ne = NormalEquations(Hpp=np.arange(18.0).reshape(2, 3, 3), Hpu=np.arange(24.0).reshape(2, 3, 4),
                         Huu=np.arange(8.0).reshape(2, 2, 2), b=np.arange(10.0))
    back = blocks_of(dense_h(ne), ne.b, 2, 2)
    for name in ("Hpp", "Hpu", "Huu", "b"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ne, name))
    H = dense_h(ne)
    assert H[3, 7] == ne.Hpu[1, 0, 1] and H[7, 3] == ne.Hpu[1, 0, 1]
    assert H[8, 9] == ne.Huu[1, 0, 1] and H[1, 2] == ne.Hpp[0, 1, 2]
    assert H[0, 3] == 0.0 and H[6, 8] == 0.0


def test_gps_only_block_diagonal():
    uavs = circle(4)
    users = [np.array([0.0, 40.0])]
    # gps-only: the toa measurements get zero weight
    samples = make_samples(uavs, users)
    log = MeasurementLog.of(samples)
    cfg = SlamConfig(sigma_gps=2.0, sigma_tau=1e-8)
    state = StateVector(uav=uavs.copy(), users=np.array(users))
    ne = assemble_normal_equations(log, residuals(log, state.flatten()),
                                   1 / cfg.sigma_gps ** 2, 0.0)
    expected = np.zeros((14, 14))
    expected[:12, :12] = np.kron(np.eye(4), np.eye(3) / 4.0)
    np.testing.assert_allclose(dense_h(ne), expected, atol=1e-15)


def test_single_toa_term_rank_one_outer_product():
    sigma = 2e-8
    samples = [MeasurementSample(1, 1, Vec3(0, 0, 30), toa=50 / C)]
    log = MeasurementLog.of(samples)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=sigma)
    state = StateVector(uav=np.array([[0.0, 0.0, 30.0]]), users=np.array([[0.0, 40.0]]))
    # toa-only: the gps fix gets zero weight
    H = dense_h(assemble_normal_equations(log, residuals(log, state.flatten()),
                                          0.0, 1 / cfg.sigma_tau ** 2))
    j = toa_jacobian_row((0, 0, 30), (0, 40))
    expected = np.outer(j, j) / sigma ** 2
    np.testing.assert_allclose(H, expected, rtol=1e-13, atol=1e-30)
    assert np.linalg.matrix_rank(H, tol=1e-12 * np.abs(H).max()) == 1


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
        log = MeasurementLog.of(samples)
        res = residuals(log, state.flatten())
        H = dense_h(assemble_normal_equations(log, res, *measurement_weights(res, cfg)))
        np.testing.assert_allclose(H, H.T, rtol=1e-12, atol=1e-20)
        for _ in range(10):
            x = rng.standard_normal(len(H))
            assert x @ H @ x >= -1e-10 * (x @ x)


def dense_oracle_h_b(state, log, cfg):
    """Independent dense construction: stack the full Jacobian row by row,
    and add each ToA residual's curvature w r grad^2 r in its own dense
    matrix, so H = J^T W J + sum w r grad^2 r is the Newton matrix.

    ToA weights are 1/sigma^2, sigma taken from the exponential noise model
    at the state's link distance when cfg.per_distance_weights is set, times
    the Huber IRLS weight delta/|r| for residuals beyond cfg.huber_delta.
    Also returns the objective: weighted squares, Huber-linear beyond delta.
    """
    flat = state.flatten()
    S, K = len(log.steps), len(log.user_ids)
    rows, weights, resids, costs = [], [], [], []
    curvature = np.zeros((3 * S + 2 * K, 3 * S + 2 * K))
    w_gps = 1 / cfg.sigma_gps ** 2
    for i in range(S):
        for axis in range(3):
            row = np.zeros(3 * S + 2 * K)
            row[3 * i + axis] = -1.0
            rows.append(row)
            weights.append(w_gps)
            resids.append(log.pose_gps[i][axis] - flat[3 * i + axis])
            costs.append(w_gps * resids[-1] ** 2)
    for i, j, tau in zip(log.pose, log.user, log.toa):
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
        # grad^2 r = -P / (C d) on the pose, -P[:2, :2] / (C d) on the user
        # and +P[:, :2] / (C d) between them, with P = I - n n^T
        P = np.eye(3) - np.outer(diff, diff) / d ** 2
        c = weights[-1] * r / (C * d)
        pi, uj = slice(3 * i, 3 * i + 3), slice(3 * S + 2 * j, 3 * S + 2 * j + 2)
        curvature[pi, pi] -= c * P
        curvature[uj, uj] -= c * P[:2, :2]
        curvature[pi, uj] += c * P[:, :2]
        curvature[uj, pi] += c * P[:2, :]
    J = np.array(rows)
    W = np.diag(weights)
    r = np.array(resids)
    return J.T @ W @ J + curvature, J.T @ W @ r, math.fsum(costs)


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
        log = MeasurementLog.of(samples)
        res = residuals(log, state.flatten())
        ne = assemble_normal_equations(log, res, *measurement_weights(res, cfg))
        H_ref, b_ref, _ = dense_oracle_h_b(state, log, cfg)
        np.testing.assert_allclose(dense_h(ne), H_ref, rtol=1e-12, atol=1e-30)
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
        log = MeasurementLog.of(samples)
        res = residuals(log, state.flatten())
        ne = assemble_normal_equations(log, res, *measurement_weights(res, cfg),
                                       huber_delta=cfg.huber_delta)
        H_ref, b_ref, f_ref = dense_oracle_h_b(state, log, cfg)
        np.testing.assert_allclose(dense_h(ne), H_ref, rtol=1e-12, atol=1e-30)
        np.testing.assert_allclose(ne.b, b_ref, rtol=1e-12, atol=1e-30)
        assert objective(state, samples, cfg) == pytest.approx(f_ref, rel=1e-12)
        resid = np.array([m.toa - los_delay(state.uav[m.step - 1], state.users[m.user_id - 1])
                          for m in samples])
        beyond += int(np.sum(np.abs(resid) > 1e-8))
        within += int(np.sum(np.abs(resid) <= 1e-8))
    # both branches of the Huber weight are exercised
    assert beyond > 0 and within > 0


def test_newton_matrix_matches_finite_difference_hessian():
    # the objective is f = r^T W r, so its Hessian is 2 H when H is the exact
    # Newton matrix; J^T W J alone misses the ToA curvature by a few per cent
    rng = np.random.default_rng(9)
    cfg = SlamConfig(sigma_gps=1.3, sigma_tau=2e-8)
    h = 1e-3
    for _ in range(3):
        samples, state = random_h_b_case(rng)
        samples = [replace(m, toa=m.toa + 2e-8 * rng.standard_normal()) for m in samples]
        log = MeasurementLog.of(samples)
        flat = state.flatten()
        res = residuals(log, flat)
        weights = measurement_weights(res, cfg)
        ne = assemble_normal_equations(log, res, *weights)

        def f(x):
            return objective_terms(residuals(log, x), *weights)

        n = len(flat)
        step = h * np.eye(n)
        fd = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                fd[i, j] = fd[j, i] = (f(flat + step[i] + step[j]) - f(flat + step[i] - step[j])
                                       - f(flat - step[i] + step[j])
                                       + f(flat - step[i] - step[j])) / (8 * h * h)
        H = dense_h(ne)
        np.testing.assert_allclose(H, fd, rtol=0, atol=1e-6 * np.abs(H).max())


# --- gauss_newton_step ---

def test_step_zero_b():
    H = np.eye(5)
    delta = gauss_newton_step(blocks_of(H, np.zeros(5), 1, 1), 0.0)
    np.testing.assert_array_equal(delta, np.zeros(5))


def test_pure_gps_one_exact_step():
    uavs = circle(5)
    gps = uavs + np.random.default_rng(1).normal(0, 2, uavs.shape)
    users = [np.array([0.0, 40.0])]
    samples = make_samples(uavs, users, gps_positions=gps)
    log = MeasurementLog.of(samples)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1e-8)
    state = StateVector(uav=uavs.copy(), users=np.array(users))
    flat = state.flatten()
    # gps-only: the toa measurements get zero weight
    ne = assemble_normal_equations(log, residuals(log, flat), 1 / cfg.sigma_gps ** 2, 0.0)
    # restrict to the pose block (user block untouched by gps terms)
    d = 15
    delta = gauss_newton_step(NormalEquations(Hpp=ne.Hpp, Hpu=ne.Hpu[:, :, :0], Huu=ne.Huu[:0],
                                              b=ne.b[:d]), 0.0)
    moved = flat[:d] + delta
    np.testing.assert_allclose(moved.reshape(5, 3), gps, rtol=0, atol=1e-10)


def test_linear_solve_residual():
    rng = np.random.default_rng(6)
    for _ in range(20):
        S, K = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        n = 3 * S + 2 * K
        # rows over one pose and one user, as measurements are
        A = np.zeros((n, 4 * n))
        for col in range(4 * n):
            i, j = rng.integers(S), rng.integers(K)
            A[3 * i:3 * i + 3, col] = rng.standard_normal(3)
            A[3 * S + 2 * j:3 * S + 2 * j + 2, col] = rng.standard_normal(2)
        H = A @ A.T + n * np.eye(n)
        b = rng.standard_normal(n)
        lam = float(rng.uniform(0, 1))
        delta = gauss_newton_step(blocks_of(H, b, S, K), lam)
        res = np.linalg.norm((H + lam * np.eye(n)) @ delta + b) / np.linalg.norm(b)
        assert res <= 1e-10


@pytest.mark.parametrize("huber, per_distance",
                         [(False, False), (True, False), (False, True), (True, True)],
                         ids=["plain", "huber", "per_distance", "huber_and_per_distance"])
def test_schur_step_matches_dense_solve(huber, per_distance):
    # the pose-eliminated step is the Newton step of the dense system, also
    # with users missing at some poses and a repeated (pose, user) measurement
    rng = np.random.default_rng(8)
    noise = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=2e-9, scale=40.0)
    cfg = SlamConfig(sigma_gps=1.3, sigma_tau=2e-8, noise_model=noise,
                     per_distance_weights=per_distance,
                     huber_delta=1e-8 if huber else None)
    indefinite = 0
    for _ in range(6):
        samples, state = random_h_b_case(rng)
        n, k = len(state.uav), len(state.users)
        if k > 1:
            # from the fourth pose on, each pose misses one user
            samples = [m for m in samples if m.step <= 3 or m.user_id != m.step % k + 1]
        samples = samples + [samples[int(rng.integers(len(samples)))]]
        log = MeasurementLog.of(samples)
        assert len(log.toa) == n * k + 1 - (n - 3) * (k > 1)
        res = residuals(log, state.flatten())
        H_ref, b_ref, _ = dense_oracle_h_b(state, log, cfg)
        ne = assemble_normal_equations(log, res, *measurement_weights(res, cfg),
                                       huber_delta=cfg.huber_delta)
        for lam in (0.0, 1e-4, 10.0):
            damped = H_ref + lam * np.eye(len(b_ref))
            if np.linalg.eigvalsh(damped).min() <= 0:
                # an indefinite Newton matrix is refused, as dense Cholesky refuses it
                with pytest.raises(SingularSystem):
                    gauss_newton_step(ne, lam)
                indefinite += 1
                continue
            delta = gauss_newton_step(ne, lam)
            np.testing.assert_allclose(delta, np.linalg.solve(damped, -b_ref), rtol=1e-10)
    # far from the minimum a few are; most steps are compared
    assert indefinite <= 3


def test_trials_on_one_normal_equations_equal_trials_on_fresh_copies():
    # every trial on one NormalEquations reuses its [Hpu | b_p], built at the
    # first; a trial at one damping leaves nothing behind for the next
    rng = np.random.default_rng(11)

    def trial(ne, lam):
        try:
            return gauss_newton_step(ne, lam).tolist()
        except SingularSystem:
            return "singular"

    for _ in range(4):
        samples, state = random_h_b_case(rng)
        log = MeasurementLog.of(samples)
        res = residuals(log, state.flatten())
        ne = assemble_normal_equations(log, res, *measurement_weights(res, SlamConfig()))

        def fresh():
            return NormalEquations(ne.Hpp.copy(), ne.Hpu.copy(), ne.Huu.copy(), ne.b.copy())

        for dampings in ((1e-4, 10.0), (10.0, 1e-4)):
            shared = fresh()
            assert [trial(shared, lam) for lam in dampings] == \
                [trial(fresh(), lam) for lam in dampings]
            assert shared.coupling is shared.coupling


def singular_case(one_user_pose):
    """Three poses on a circle see user 1, and user 2 if `one_user_pose`. A
    fourth pose sees one user along an axis: user 1 with an x-difference of
    0 if `one_user_pose`, else user 2, which no other pose sees, with a
    y-difference of 0. Either way one block of H has an exactly zero row."""
    users = [np.array([0.0, 40.0]), np.array([-30.0, -10.0])]
    uavs = circle(3)
    samples = make_samples(uavs, users)
    lone = np.array([0.0, 0.0, 30.0])
    if one_user_pose:
        samples.append(MeasurementSample(4, 1, Vec3(*lone), los_delay(lone, users[0])))
    else:
        samples = [m for m in samples if m.user_id == 1]
        # on the user's y: its y-difference is 0
        lone = np.array([10.0, -10.0, 30.0])
        samples.append(MeasurementSample(4, 2, Vec3(*lone), los_delay(lone, users[1])))
    state = StateVector(uav=np.vstack([uavs, lone]), users=np.array(users))
    return MeasurementLog.of(samples), state.flatten()


@pytest.mark.parametrize("case", ["pose_block", "reduced_matrix", "indefinite_pose_block"])
def test_singular_where_dense_cholesky_fails(case):
    if case == "indefinite_pose_block":
        # no coupling, so only the check of the pose block can catch it
        ne = blocks_of(np.diag([1.0, -1.0, 1.0, 1.0, 1.0]), np.ones(5), 1, 1)
    else:
        # no GPS weight: the lone pose's block is singular; with GPS, the
        # user seen from one pose leaves the reduced matrix singular
        log, flat = singular_case(one_user_pose=case == "pose_block")
        ne = assemble_normal_equations(log, residuals(log, flat),
                                       0.0 if case == "pose_block" else 1.0,
                                       1 / 1e-8 ** 2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(dense_h(ne))
    with pytest.raises(SingularSystem):
        gauss_newton_step(ne, 0.0)
    # damped enough, both systems are positive definite and the steps agree
    lam = 2.0
    ref = np.linalg.solve(dense_h(ne) + lam * np.eye(len(ne.b)), -ne.b)
    np.testing.assert_allclose(gauss_newton_step(ne, lam), ref, rtol=1e-10)


# --- check_identifiability ---

ID_USERS = [np.array([10.0, 40.0]), np.array([-30.0, -10.0]), np.array([25.0, -20.0])]


def straight(n):
    return np.column_stack([np.linspace(-40.0, 40.0, n), np.zeros(n), np.full(n, 30.0)])


def test_identifiability_circle_flags_no_user():
    assert check_identifiability(MeasurementLog.of(make_samples(circle(8), ID_USERS))) == []


def test_identifiability_straight_track_flags_every_user():
    samples = make_samples(straight(8), ID_USERS)
    assert check_identifiability(MeasurementLog.of(samples)) == [1, 2, 3]


def test_identifiability_user_seen_from_two_poses_is_flagged():
    # user 2 is heard only at the first two of 8 poses on a circle
    samples = [m for m in make_samples(circle(8), ID_USERS) if m.user_id != 2 or m.step <= 2]
    assert check_identifiability(MeasurementLog.of(samples)) == [2]


def test_solve_slam_logs_nothing(caplog):
    # every user is weakly observed from a straight track; `uavloc solve`
    # warns about them (tests/test_io.py), solve_slam does not
    uavs = straight(8)
    init = StateVector(uav=uavs.copy(), users=np.array(ID_USERS))
    with caplog.at_level(logging.DEBUG, logger="uavloc"):
        solve_slam(init, make_samples(uavs, ID_USERS), SlamConfig())
    assert caplog.records == []


# --- initial_state ---

# a cross of four poses: sum q q^T is exactly isotropic, so no axis is principal
CROSS = np.array([[40.0, 0.0, 30.0], [0.0, 40.0, 30.0], [-40.0, 0.0, 30.0], [0.0, -40.0, 30.0]])


@pytest.mark.parametrize("uavs", [circle(16), CROSS], ids=["circle", "cross"])
def test_start_recovers_a_noise_free_log(uavs):
    users = np.array(ID_USERS + [np.array([70.0, 65.0])])
    start = initial_state(make_samples(uavs, list(users)), RngStream(3))
    np.testing.assert_allclose(start.users, users, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(start.uav, uavs)


@pytest.mark.parametrize("along", [0, 1], ids=["x", "y"])
def test_start_on_a_straight_track_ignores_the_seed(along):
    # the track lies on an axis at one altitude, so the mirror images of a
    # user give bit-identical ranges and the ToA objective cannot tell them
    # apart: the start takes the fit's first image whatever the draw
    order = [along, 1 - along]
    uavs, users = straight(8)[:, order + [2]], np.array(ID_USERS)[:, order]
    across = 1 - along
    samples = make_samples(uavs, list(users))
    draws = [drawn_start(uavs, len(users), seed).users for seed in (0, 1)]
    assert np.any(np.sign(draws[0][:, across]) != np.sign(draws[1][:, across]))
    starts = [initial_state(samples, RngStream(seed)).users for seed in (0, 1)]
    np.testing.assert_array_equal(starts[0], starts[1])
    log = MeasurementLog.of(samples)
    fit = _range_fit(uavs[log.pose], C * log.toa, log.user, len(users))[1]
    np.testing.assert_array_equal(starts[0], fit[0])
    np.testing.assert_allclose(np.abs(starts[0]), np.abs(users), rtol=0, atol=1e-6)
    cfg = SlamConfig()
    for k in range(len(users)):
        mirrored = starts[0].copy()
        mirrored[k, across] *= -1
        assert (objective(StateVector(uavs, mirrored), samples, cfg)
                == objective(StateVector(uavs, starts[0]), samples, cfg))


def test_start_keeps_the_draw_of_a_user_without_track_extent():
    # a one-pose log: no user has extent
    one_pose = make_samples(circle(1), ID_USERS)
    for seed in (0, 5):
        np.testing.assert_array_equal(initial_state(one_pose, RngStream(seed)).users,
                                      drawn_start(circle(1), len(ID_USERS), seed).users)
    # user 2 is heard at pose 3 only, user 3 three times at pose 5
    uavs = circle(8)
    samples = [m for m in make_samples(uavs, ID_USERS)
               if m.user_id == 1 or (m.user_id, m.step) in ((2, 3), (3, 5))]
    samples += [m for m in samples if m.user_id == 3] * 2
    for seed in (0, 5):
        start, drawn = initial_state(samples, RngStream(seed)), drawn_start(uavs, 3, seed)
        np.testing.assert_array_equal(start.users[1:], drawn.users[1:])
        np.testing.assert_allclose(start.users[0], ID_USERS[0], rtol=0, atol=1e-6)


def test_a_one_pose_start_makes_no_fit(monkeypatch):
    # heard from one pose no user has track extent, so every user keeps its
    # draw and no squared-range fit is made
    def refuse(*args):
        raise AssertionError("a fit was made at one pose")
    monkeypatch.setattr(slam, "_range_fit", refuse)
    monkeypatch.setattr(slam, "_range_misfit", refuse)
    for seed in (0, 5):
        start = initial_state(make_samples(circle(1), ID_USERS), RngStream(seed))
        np.testing.assert_array_equal(start.users,
                                      drawn_start(circle(1), len(ID_USERS), seed).users)
        np.testing.assert_array_equal(start.uav, circle(1))


def two_fixes_1_mm_apart():
    """A user heard from two GPS fixes 1 mm apart, with squared ranges
    8.9e4 m^2 apart: the along-track fit lies about 4.5e7 m away."""
    gps = np.array([[0.0, 0.0, 10.0], [0.001, 0.0, 10.0]])
    return MeasurementLog(step=np.array([1, 2]), user_id=np.array([1, 1]), gps=gps,
                          toa=np.array([30.0, 300.0]) / C)


def test_start_keeps_the_draw_of_a_user_whose_fit_leaves_the_box():
    log = two_fixes_1_mm_apart()
    for seed in (0, 5):
        np.testing.assert_array_equal(initial_state(log, RngStream(seed)).users,
                                      drawn_start(log.pose_gps, 1, seed).users)


def reference_fit(p, ct):
    """The squared-range least-squares fit of one user heard from poses p
    (n, 3) at ranges ct (n,), one user at a time: centre + v with
    v = -(2 S + mu I)^-1 sum q y, S = sum q q^T, at the root mu of
    |v|^2 = (mu + sum y) / n above -2 lambda_min(S), found by bisection with
    np.linalg.solve; and its mirror image about the principal axis of the
    track, found by np.linalg.svd."""
    centre = p[:, :2].mean(axis=0)
    q = p[:, :2] - centre
    y = ct ** 2 - p[:, 2] ** 2 - np.sum(q ** 2, axis=1)
    S, g, n = q.T @ q, q.T @ y, len(q)
    lam_min = np.linalg.eigvalsh(S)[0]

    def v(mu):
        return np.linalg.solve(2 * S + mu * np.eye(2), -g)

    def excess(mu):
        return v(mu) @ v(mu) - (mu + y.sum()) / n
    lo, width = -2 * lam_min, 1.0
    while excess(lo + width) > 0:
        width *= 2
    hi = lo + width
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    fit = centre + v(hi)
    normal = np.linalg.svd(q)[2][1]
    return fit, fit - 2 * ((fit - centre) @ normal) * normal


def reference_start(log, drawn):
    """initial_state's users computed one user at a time: of reference_fit's
    two points, the one with the lower ToA sum of squares, if it lies in the
    GPS box widened by 50 m."""
    users = drawn.copy()
    for j in range(len(log.user_ids)):
        p, ct = log.pose_gps[log.pose[log.user == j]], C * log.toa[log.user == j]
        if np.linalg.svd(p[:, :2] - p[:, :2].mean(axis=0), compute_uv=False)[0] <= 1e-9:
            continue
        cands = reference_fit(p, ct)
        cost = [np.sum((ct - np.linalg.norm(p - np.append(c, 0.0), axis=1)) ** 2) for c in cands]
        best = cands[int(np.argmin(cost))]
        lo, hi = log.pose_gps[:, :2].min(axis=0) - 50.0, log.pose_gps[:, :2].max(axis=0) + 50.0
        if np.all((lo <= best) & (best <= hi)):
            users[j] = best
    return users


@pytest.mark.parametrize("seed", [3, 4])
def test_start_equals_the_per_user_reference(seed):
    samples, drawn, _, _ = plateau_case(seed)
    # users 1-3 heard from the first 8 poses only, user 4 from one
    samples = [m for m in samples
               if m.user_id > 4 or (m.step <= 8 and (m.user_id < 4 or m.step == 1))]
    log = MeasurementLog.of(samples)
    np.testing.assert_allclose(initial_state(log, RngStream(seed)).users,
                               reference_start(log, drawn.users), rtol=0, atol=1e-6)


def test_start_ignores_the_seed_when_every_user_has_track_extent():
    samples = plateau_case(5)[0]
    np.testing.assert_array_equal(initial_state(samples, RngStream(1)).users,
                                  initial_state(samples, RngStream(2)).users)


# a rectangle 200 m long and 2e-7 m wide: the width is lost to rounding in
# sum q q^T, but not in sum q y, so the fit across the track divides a
# nonzero number by 0
THIN = np.array([[100.0, 1e-7, 30.0], [-100.0, 1e-7, 30.0],
                 [100.0, -1e-7, 30.0], [-100.0, -1e-7, 30.0]])

# Positions on a 1 mm grid and delays on a 1 ps grid, as a log records them:
# no input is so small that its square underflows.
MM = st.integers(-100_000, 100_000).map(lambda v: v / 1000)


@st.composite
def sparse_logs(draw):
    """Logs of 1-6 poses, some at repeated positions, and up to 4 users with
    rows missing; delays from 0 to 300 m, many shorter than the altitude's
    (so (C tau)^2 - z^2 < 0)."""
    altitude = st.integers(1_000, 100_000).map(lambda v: v / 1000)
    spots = draw(st.lists(st.tuples(MM, MM, altitude), min_size=1, max_size=3))
    poses = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=6))
    num_users = draw(st.integers(1, 4))
    heard = draw(st.lists(st.booleans(), min_size=len(poses) * num_users,
                          max_size=len(poses) * num_users).filter(any))
    rows = [(i + 1, k + 1, poses[i]) for i in range(len(poses)) for k in range(num_users)
            if heard[i * num_users + k]]
    toa = draw(st.lists(st.integers(0, 1_000_000).map(lambda ps: ps * 1e-12),
                        min_size=len(rows), max_size=len(rows)))
    return MeasurementLog(step=np.array([r[0] for r in rows]),
                          user_id=np.array([r[1] for r in rows]),
                          gps=np.array([r[2] for r in rows], dtype=float), toa=np.array(toa))


@settings(max_examples=300, deadline=None, database=None)
@given(log=sparse_logs(), seed=st.integers(0, 2 ** 32 - 1))
@example(log=MeasurementLog.of(make_samples(straight(4), ID_USERS)), seed=0)
@example(log=MeasurementLog.of(make_samples(CROSS, ID_USERS)), seed=0)
@example(log=two_fixes_1_mm_apart(), seed=0)
@example(log=MeasurementLog.of(make_samples(THIN, ID_USERS)), seed=0)
def test_start_lies_in_the_widened_box_and_raises_no_float_warning(log, seed):
    with np.errstate(all="raise"):
        start = initial_state(log, RngStream(seed))
    assert start.users.shape == (len(log.user_ids), 2)
    lo, hi = log.pose_gps[:, :2].min(axis=0) - 50.0, log.pose_gps[:, :2].max(axis=0) + 50.0
    assert np.all((lo <= start.users) & (start.users <= hi))
    np.testing.assert_array_equal(start.uav, log.pose_gps)


# --- _range_fit ---

def squared_range_misfit(p, ct, v, centre):
    """sum (y - |v|^2 + 2 q^T v)^2 over the rows of one user for each v
    (..., 2), the objective _range_fit minimizes, and the size of its terms
    at v, for a rounding slack."""
    q = p[:, :2] - centre
    y = ct ** 2 - p[:, 2] ** 2 - np.sum(q ** 2, axis=1)
    vv = np.sum(v ** 2, axis=-1)[..., None]
    qv = v @ q.T
    return (np.sum((y - vv + 2 * qv) ** 2, axis=-1),
            np.sum((np.abs(y) + vv + 2 * np.abs(qv)) ** 2, axis=-1))


def grid_oracle(p, ct, centre):
    """The lowest squared_range_misfit found by brute force: an 81 x 81 grid
    over the disc the minimum must lie in, then around each of its best
    three points a 15 x 15 grid, narrowed fourfold about its best point 13
    times, down to about 1e-9 of the disc."""
    q = p[:, :2] - centre
    y = ct ** 2 - p[:, 2] ** 2 - np.sum(q ** 2, axis=1)
    # beyond this radius every term is larger than |y|, its value at v = 0
    big_q, big_y = np.max(np.linalg.norm(q, axis=1)), np.max(np.abs(y))
    radius = big_q + math.sqrt(big_q ** 2 + 2 * big_y) + 1.0
    axis = np.linspace(-radius, radius, 81)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    cost = squared_range_misfit(p, ct, grid, centre)[0]
    points = grid[np.argsort(cost)[:3]]
    window = 2 * (axis[1] - axis[0])
    local = np.linspace(-1.0, 1.0, 15)
    local = np.stack(np.meshgrid(local, local), axis=-1).reshape(-1, 2)
    for _ in range(13):
        trial = points[:, None] + window * local
        cost = squared_range_misfit(p, ct, trial, centre)[0]
        points = trial[np.arange(len(points)), np.argmin(cost, axis=1)]
        window /= 4
    return np.min(squared_range_misfit(p, ct, points, centre)[0])


def fit_one(p, ct):
    """_range_fit of one user heard from poses p at ranges ct: its two points
    and its track's centre."""
    (_, centre, _, _, _, _), fit = _range_fit(p, ct, np.zeros(len(p), dtype=np.int64), 1)
    return fit[:, 0], centre[0]


@st.composite
def fit_tracks(draw):
    """A user in +-100 m heard, with range errors up to 10 m, from 2 to 8
    poses on a 1 mm grid: anywhere, at two spots, or on a straight line."""
    kind = draw(st.sampled_from(["random", "two", "straight"]))
    altitude = st.integers(1_000, 100_000).map(lambda v: v / 1000)
    if kind == "straight":
        start, step = draw(st.tuples(MM, MM)), draw(st.tuples(MM, MM))
        n = draw(st.integers(2, 8))
        xy = [(start[0] + i * step[0], start[1] + i * step[1]) for i in range(n)]
    else:
        spots = draw(st.lists(st.tuples(MM, MM), min_size=2, max_size=2 if kind == "two" else 8))
        xy = draw(st.lists(st.sampled_from(spots), min_size=2, max_size=8)) + spots
    p = np.array([(x, y, draw(altitude)) for x, y in xy])
    user = np.array(draw(st.tuples(MM, MM)))
    noise = draw(st.lists(st.integers(-10_000, 10_000).map(lambda v: v / 1000),
                          min_size=len(p), max_size=len(p)))
    ct = np.maximum(np.linalg.norm(p - np.append(user, 0.0), axis=1) + noise, 0.0)
    return p, ct


@settings(max_examples=100, deadline=None, database=None)
@given(track=fit_tracks())
def test_range_fit_is_no_worse_than_a_grid_oracle(track):
    p, ct = track
    if np.linalg.svd(p[:, :2] - p[:, :2].mean(axis=0), compute_uv=False)[0] <= 1e-9:
        return  # no extent: the fit is not taken
    with np.errstate(all="raise"):
        fit, centre = fit_one(p, ct)
    cost, size = squared_range_misfit(p, ct, fit - centre, centre)
    # the fit's first point is the global minimum; the mirror is no lower
    # but in the hard case, where the two tie
    assert cost[0] <= grid_oracle(p, ct, centre) + 1e-9 * size[0]
    assert cost[0] <= cost[1] + 1e-9 * size[1]


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.6, 0.8), (-1.0, 1.0)],
                         ids=["x", "3-4-5", "diagonal"])
def test_range_fit_returns_both_images_on_a_straight_track(direction):
    # noiseless ranges from a straight track: the fit and its mirror are the
    # user and its mirror image, whichever side the user is on
    line = np.outer(np.linspace(-40.0, 40.0, 9), direction)
    p = np.column_stack([line + [5.0, -3.0], np.full(9, 30.0)])
    normal = np.array([-direction[1], direction[0]]) / np.hypot(*direction)
    for user in (np.array([12.0, 20.0]), np.array([-7.0, -25.0])):
        ct = np.linalg.norm(p - np.append(user, 0.0), axis=1)
        fit, centre = fit_one(p, ct)
        image = user - 2 * ((user - centre) @ normal) * normal
        nearer = int(np.argmin(np.linalg.norm(fit - user, axis=1)))
        np.testing.assert_allclose(fit[[nearer, 1 - nearer]], [user, image], rtol=0, atol=1e-6)


@pytest.mark.parametrize("case", ["coincident", "single", "under"])
def test_range_fit_raises_no_float_warning_on_degenerate_tracks(case):
    # three poses at one spot, one pose, and a user right under a pose of a
    # circle: every start is finite and raises no float error
    users = np.array(ID_USERS)
    uavs = {"coincident": np.repeat([[0.1, 0.7, 30.0]], 3, axis=0),
            "single": circle(1), "under": circle(8)}[case]
    if case == "under":
        users[0] = uavs[2, :2]
    samples = make_samples(uavs, list(users))
    with np.errstate(all="raise"):
        start = initial_state(samples, RngStream(0))
        warm = basin_start(samples, uavs, start.users)
    assert np.isfinite(warm).all()
    if case == "under":
        np.testing.assert_allclose(start.users, users, rtol=0, atol=1e-6)


# --- basin_start ---

def mirrored(points, track):
    """points (K, 2) reflected about the principal axis of the horizontal
    track (n, 3), found by np.linalg.svd."""
    centre = track[:, :2].mean(axis=0)
    normal = np.linalg.svd(track[:, :2] - centre)[2][1]
    return points - 2.0 * np.outer((points - centre) @ normal, normal)


def test_basin_start_returns_mirrored_users_to_the_true_side():
    # a quarter circle of noiseless poses, the GPS fixes 30 m off them: the
    # users and the axis are taken at the poses, where a mirror image costs more
    uavs, users = circle(32)[:9], np.array(ID_USERS)
    samples = make_samples(uavs, list(users), gps_positions=uavs + [30.0, -30.0, 0.0])
    planted = mirrored(users, uavs)
    assert np.all(np.linalg.norm(planted - users, axis=1) > 10.0)
    np.testing.assert_allclose(basin_start(samples, uavs, planted), users, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(basin_start(samples, uavs, users), users)


def test_basin_start_keeps_users_on_an_exact_tie():
    # the track lies on the x axis at one altitude, so each user and its
    # mirror image give bit-identical ranges: the tie keeps the user
    uavs, users = straight(8), np.array(ID_USERS)
    samples = make_samples(uavs, list(users))
    for start in (users, users * [1.0, -1.0]):
        np.testing.assert_array_equal(basin_start(samples, uavs, start), start)


def range_sum_of_squares(log, poses, users):
    """Each user's sum of (C tau - |x - (u, 0)|)^2 over its rows, one user
    at a time."""
    out = []
    for j, u in enumerate(users):
        rows = log.user == j
        d = np.linalg.norm(poses[log.pose[rows]] - np.append(u, 0.0), axis=1)
        out.append(float(np.sum((C * log.toa[rows] - d) ** 2)))
    return np.array(out)


@settings(max_examples=300, deadline=None, database=None)
@given(log=sparse_logs(), users=st.lists(st.tuples(MM, MM), min_size=4, max_size=4))
@example(log=MeasurementLog.of(make_samples(straight(4), ID_USERS)), users=[(1.0, 2.0)] * 4)
@example(log=MeasurementLog.of(make_samples(CROSS, ID_USERS)), users=[(1.0, 2.0)] * 4)
@example(log=MeasurementLog.of(make_samples(THIN, ID_USERS)), users=[(1.0, 2.0)] * 4)
def test_basin_start_never_raises_a_users_sum_of_squares(log, users):
    users, poses = np.array(users)[:len(log.user_ids)], log.pose_gps
    with np.errstate(all="raise"):
        start = basin_start(log, poses, users)
    before, after = (range_sum_of_squares(log, poses, u) for u in (users, start))
    # up to rounding: the two sums are formed in different orders
    assert np.all(after <= before * (1 + 1e-9) + 1e-18)
    for j in range(len(users)):
        track = poses[log.pose[log.user == j], :2]
        if (track == track[0]).all():  # heard from one horizontal position
            assert start[j].tolist() == users[j].tolist()


def reference_weak(log):
    """check_identifiability's rule one user at a time: fewer than 3 rows, or
    a second singular value of the centred horizontal track at most 1e-9 m."""
    weak = []
    for j, uid in enumerate(log.user_ids):
        track = log.pose_gps[log.pose[log.user == j], :2]
        if (len(track) < 3 or
                np.linalg.svd(track - track.mean(axis=0), compute_uv=False)[1] <= 1e-9):
            weak.append(uid)
    return weak


@settings(max_examples=300, deadline=None, database=None)
@given(log=sparse_logs())
@example(log=MeasurementLog.of(make_samples(straight(4), ID_USERS)))
@example(log=MeasurementLog.of(make_samples(CROSS, ID_USERS)))
@example(log=two_fixes_1_mm_apart())
@example(log=MeasurementLog.of(make_samples(THIN, ID_USERS)))
def test_identifiability_equals_the_per_user_svd_rule(log):
    with np.errstate(all="raise"):
        assert check_identifiability(log) == reference_weak(log)


# --- solve_slam ---

def test_noiseless_recovery_from_perturbed_init():
    rng = np.random.default_rng(0)
    uavs = circle(20)
    users = np.array([[0.0, 40.0], [-30.0, -10.0]])
    samples = make_samples(uavs, list(users))
    init = StateVector(uav=uavs + rng.uniform(-1, 1, uavs.shape),
                       users=users + rng.uniform(-1, 1, users.shape))
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8, tol_step=1e-10)
    state, report = solve_slam(init, samples, cfg)
    assert report.converged
    np.testing.assert_allclose(state.uav, uavs, atol=1e-6)
    np.testing.assert_allclose(state.users, users, atol=1e-6)


def test_solve_from_exact_minimum():
    # noiseless data and the true state: b = 0, so the first step is zero and
    # the solve stops there (the gain ratio would be 0 / 0)
    uavs = circle(6)
    users = np.array([[0.0, 40.0], [-30.0, -10.0]])
    samples = make_samples(uavs, list(users))
    init = StateVector(uav=uavs.copy(), users=users.copy())
    state, report = solve_slam(init, samples, SlamConfig())
    assert report.converged and report.iterations == 1 and report.final_step_norm == 0.0
    np.testing.assert_array_equal(state.flatten(), init.flatten())
    # an init whose shape does not match the measurement set is refused
    for wrong in (StateVector(uav=uavs[1:], users=users), StateVector(uav=uavs, users=users[1:])):
        with pytest.raises(ValueError, match="dimensions"):
            solve_slam(wrong, samples, SlamConfig())
    with pytest.raises(ValueError, match="empty"):
        initial_state([], RngStream(0))


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
    state, report = solve_slam(init, samples, cfg)
    trace = report.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_per_distance_weights_need_a_noise_model():
    with pytest.raises(InvalidParam) as exc:
        SlamConfig(per_distance_weights=True)
    assert exc.value.field == "per_distance_weights"
    noise = ToaNoiseModel(kind="exponential", amp=1e-9, scale=50.0)
    assert SlamConfig(per_distance_weights=True, noise_model=noise).noise_model is noise


@pytest.mark.parametrize("value", ["no", 1, 0.0, None])
def test_per_distance_weights_must_be_a_bool(value):
    noise = ToaNoiseModel(kind="exponential", amp=1e-9, scale=50.0)
    with pytest.raises(InvalidParam) as exc:
        SlamConfig(per_distance_weights=value, noise_model=noise)
    assert exc.value.field == "per_distance_weights"
    assert SlamConfig(per_distance_weights=False, noise_model=noise).per_distance_weights is False


# unchecked, a mission with these settings divides by zero (sigma 0), fails
# in range() (max_iter 2.5), runs to a meaningless estimate (sigma_tau NaN,
# huber_delta < 0) or makes no iteration (max_iter 0)
@pytest.mark.parametrize("field, value", [
    ("sigma_tau", 0.0), ("sigma_gps", 0.0), ("sigma_tau", float("nan")),
    ("huber_delta", -1e-8), ("max_iter", 2.5), ("max_iter", 0),
    ("tol_step", float("inf")), ("huber_delta", float("nan")), ("max_iter", True),
])
def test_slam_config_refuses_bad_field(field, value):
    with pytest.raises(InvalidParam) as exc:
        SlamConfig(**{field: value})
    assert exc.value.field == field


@pytest.mark.parametrize("per_distance", [False, True], ids=["fixed", "per_distance"])
def test_objective_evaluations_per_solve(monkeypatch, per_distance):
    # with fixed weights the objective at the current point is already known
    # (the value before the loop, or the accepted trial's), so only the trial
    # steps evaluate it; per-distance weights change it at every iteration
    import uavloc.slam as slam_mod
    calls = {"objective_terms": 0, "gauss_newton_step": 0}
    attempts = []
    for name in calls:
        def counted(*args, _fn=getattr(slam_mod, name), _name=name, **kw):
            attempts.append(_name)
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
    _, report = solve_slam(init, samples, cfg)
    assert calls["gauss_newton_step"] >= report.iterations > 1
    per_iteration = report.iterations if per_distance else 0
    assert calls["objective_terms"] == 1 + per_iteration + calls["gauss_newton_step"]
    # trials counts the linear solves attempted, failed factorizations included
    assert report.trials == attempts.count("gauss_newton_step")


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
        state, _ = solve_slam(init, samples, cfg)
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
    log = MeasurementLog.of(samples)
    res = residuals(log, state.flatten())
    H = dense_h(assemble_normal_equations(log, res, *measurement_weights(res, cfg)))
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() > 0


def test_not_converged_carries_state():
    uavs = circle(10)
    users = np.array([[0.0, 40.0]])
    samples = make_samples(uavs, list(users))
    init = StateVector(uav=uavs.copy(), users=users + 100.0)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8, max_iter=1, tol_step=1e-14)
    state, report = solve_slam(init, samples, cfg)
    assert report.converged is False and report.iterations == 1
    # the best state found: the one accepted step, not the start
    f_init, f_best = report.objective_trace
    assert objective(state, samples, cfg) == f_best < f_init


def noisy_circle_case():
    """20 poses on a circle and two users, the users started a few metres
    off. The ToA noise is four times the sigma the solver assumes, so the
    residuals stay large at the minimum, where Gauss-Newton is slow."""
    rng = np.random.default_rng(2)
    uavs = circle(20)
    gps = uavs + rng.normal(0, 1, uavs.shape)
    users = np.array([[10.0, 25.0], [-20.0, 5.0]])
    samples = [MeasurementSample(n, k, Vec3(*g), los_delay(p, u) + 5e-8 * rng.standard_normal())
               for n, (p, g) in enumerate(zip(uavs, gps), start=1)
               for k, u in enumerate(users, start=1)]
    init = StateVector(uav=gps.copy(), users=users + np.array([[3.0, -2.0], [-2.0, 3.0]]))
    return samples, init


def test_newton_lm_converges_quadratically():
    samples, init = noisy_circle_case()
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8)
    _, report = solve_slam(init, samples, cfg)
    # Gauss-Newton-LM with lambda / 10 on accept and x 10 on reject took 11
    # iterations here, its steps shrinking by a factor of 5 each
    assert report.converged and report.iterations <= 5
    # the solve cut after k iterations reports its last accepted step
    norms = []
    for k in range(1, report.iterations + 1):
        _, cut = solve_slam(init, samples, replace(cfg, max_iter=k))
        if not norms or cut.final_step_norm != norms[-1]:
            norms.append(cut.final_step_norm)
    assert len(norms) >= 3 and norms[-1] < 1e-2
    for before, after in zip(norms, norms[1:]):
        assert after <= 10.0 * before ** 2  # metres


def drawn_start(gps, num_users, seed):
    """Poses at the GPS fixes, users uniform over the GPS box widened by 50 m
    (K x then K y draws of RngStream(seed)): far from the minimum, so a solve
    from it takes failed factorizations and rejected steps on its way."""
    rng = RngStream(seed)
    lo, hi = gps[:, :2].min(axis=0) - 50.0, gps[:, :2].max(axis=0) + 50.0
    users = np.column_stack([rng.uniform(lo[0], hi[0], num_users),
                             rng.uniform(lo[1], hi[1], num_users)])
    return StateVector(uav=gps.copy(), users=users)


def plateau_case(seed):
    """A log as `uavloc solve` reads it: 64 poses on a closed circle, 8 users
    in a disc, GPS and ToA noise, users drawn uniformly by `drawn_start`."""
    rng = np.random.default_rng(seed)
    path = circle(64, radius=60.0)
    radius, angle = 48 * np.sqrt(rng.uniform(0, 1, 8)), rng.uniform(0, 2 * np.pi, 8)
    users = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    gps = path + rng.standard_normal(path.shape)
    samples = [MeasurementSample(i + 1, k + 1, Vec3(*gps[i]),
                                 los_delay(path[i], u) + 1.25e-8 * rng.standard_normal())
               for i in range(len(path)) for k, u in enumerate(users)]
    return samples, drawn_start(gps, len(users), seed), path, users


@pytest.mark.parametrize("seed", [8, 38, 55, 89, 133])
def test_converged_at_the_rounding_plateau(seed):
    # With the step test alone these solves ended unconverged: f stopped
    # changing beyond rounding while the step was still above tol_step, every
    # trial step was rejected and lambda ran out. Gauss-Newton-LM did so on
    # seeds 8 to 89, Newton-LM on 133, where REL_DECREASE_TOL now ends it.
    samples, init, path, users = plateau_case(seed)
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8)
    state, report = solve_slam(init, samples, cfg)
    assert report.converged
    log = MeasurementLog.of(samples)
    weights = measurement_weights(residuals(log, init.flatten()), cfg)

    def grad(x):
        return np.linalg.norm(assemble_normal_equations(log, residuals(log, x), *weights).b)

    assert grad(state.flatten()) <= 1e-9 * grad(init.flatten())
    truth = StateVector(uav=path, users=users).flatten()
    assert report.objective_trace[-1] <= objective_terms(residuals(log, truth), *weights)


def test_gain_ratio_damping_path(monkeypatch):
    # Madsen, Nielsen & Tingleff (2004), section 3.2: an accepted step scales
    # lambda by max(1/3, 1 - (2 rho - 1)^3), within [1/3, 2], and resets nu to
    # 2; a rejected one multiplies lambda by nu and doubles nu; a failed
    # factorization multiplies lambda by 10
    import uavloc.slam as slam_mod
    trials, values = [], []
    step, objective_fn = slam_mod.gauss_newton_step, slam_mod.objective_terms

    def recorded_step(ne, damping):
        try:
            delta = step(ne, damping)
        except SingularSystem:
            trials.append(("failed", damping))
            raise
        trials.append(("solved", damping))
        return delta

    def recorded_objective(*args, **kw):
        values.append(objective_fn(*args, **kw))
        return values[-1]

    monkeypatch.setattr(slam_mod, "gauss_newton_step", recorded_step)
    monkeypatch.setattr(slam_mod, "objective_terms", recorded_objective)
    samples, init, _, _ = plateau_case(9)
    _, report = solve_slam(init, samples, SlamConfig(sigma_gps=1.0, sigma_tau=1.25e-8))
    assert report.trials == len(trials)
    f, trial_values, nu = values[0], iter(values[1:]), 2.0
    seen = set()
    for (kind, lam), (_, lam_next) in zip(trials, trials[1:]):
        if kind == "failed":
            seen.add(kind)
            assert lam_next == 10.0 * lam
            continue
        f_new = next(trial_values)
        if f_new <= f:
            seen.add("accepted")
            assert lam / 3.0 * (1 - 1e-12) <= lam_next <= 2.0 * lam
            f, nu = f_new, 2.0
        else:
            seen.add("rejected")
            assert lam_next == nu * lam
            nu *= 2.0
    assert seen == {"failed", "accepted", "rejected"}
