import numpy as np
import pytest

from uavloc.errors import DegenerateGeometry, SingularFim
from uavloc.fim import (InfoState, accumulate, crb_trace, improvement_matrix,
                        improvement_traces, initial_info, inverse_with_prior,
                        step_contribution, toa_info_contribution)
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import MeasurementLog, MeasurementSample, ToaNoiseModel, Vec3
from uavloc.slam import SlamConfig, StateVector, assemble_normal_equations, residuals
from uavloc.channel import los_delay


def random_mission(rng, steps, num_users):
    uavs = rng.uniform(-80, 80, (steps, 3))
    uavs[:, 2] = rng.uniform(10, 60, steps)
    users = rng.uniform(-80, 80, (num_users, 2))
    sigmas = rng.uniform(5e-9, 5e-8, (steps, num_users))
    return uavs, users, sigmas


def mission_contribs(uavs, users, sigmas):
    out = []
    for n in range(len(uavs)):
        out.append(np.array([toa_info_contribution(uavs[n], users[k], sigmas[n, k])
                             for k in range(len(users))]))
    return out


# --- toa_info_contribution ---

def test_contribution_hand_value():
    # horizontal unit geometry: g = (1/C, 0); info = diag(1/(sigma^2 C^2), 0)
    h = toa_info_contribution((50, 0, 0), (0, 0), 1e-9)
    expected = 1.0 / (1e-18 * C ** 2)
    assert h[0, 0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(11.127, abs=5e-3)
    assert h[0, 1] == h[1, 0] == h[1, 1] == 0.0


def test_contribution_overhead_is_zero():
    h = toa_info_contribution((3, 4, 25), (3, 4), 1e-9)
    np.testing.assert_array_equal(h, np.zeros((2, 2)))


def test_contribution_degenerate():
    with pytest.raises(DegenerateGeometry):
        toa_info_contribution((3, 4, 0), (3, 4), 1e-9)


def test_contribution_psd_rank_at_most_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        uav = rng.uniform(-50, 50, 3)
        uav[2] = rng.uniform(5, 80)
        h = toa_info_contribution(uav, rng.uniform(-50, 50, 2), 2e-8)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-18
        assert np.linalg.matrix_rank(h, tol=1e-12 * max(h.max(), 1e-30)) <= 1


def test_contribution_matches_slam_user_block():
    # cross-module equality: same 2x2 block as J^T Q^-1 J from the solver
    sigma = 1.5e-8
    uav = np.array([20.0, -10.0, 35.0])
    user = np.array([-5.0, 12.0])
    samples = [MeasurementSample(1, 1, Vec3(*uav), los_delay(uav, user))]
    state = StateVector(uav=uav[None, :].copy(), users=user[None, :].copy())
    cfg = SlamConfig(sigma_gps=1.0, sigma_tau=sigma)
    # toa-only: the gps fix gets zero weight
    log = MeasurementLog.of(samples)
    ne = assemble_normal_equations(log, residuals(log, state.flatten()),
                                   0.0, 1 / cfg.sigma_tau ** 2)
    # the one user's block of H
    np.testing.assert_allclose(ne.Huu[0], toa_info_contribution(uav, user, sigma),
                               rtol=1e-12)


def test_contribution_matches_likelihood_curvature():
    # second derivative of 0.5 * r^2 / sigma^2 at truth equals g g^T / sigma^2
    sigma = 2e-8
    uav = np.array([30.0, 15.0, 40.0])
    user = np.array([-10.0, 5.0])
    tau_hat = los_delay(uav, user)

    def nll(u):
        r = tau_hat - los_delay(uav, u)
        return 0.5 * r ** 2 / sigma ** 2

    h = 1e-3
    hess = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2); ei[i] = h
            ej = np.zeros(2); ej[j] = h
            hess[i, j] = (nll(user + ei + ej) - nll(user + ei - ej)
                          - nll(user - ei + ej) + nll(user - ei - ej)) / (4 * h * h)
    # at truth the residual term of the Hessian vanishes, leaving the FIM
    fim = toa_info_contribution(uav, user, sigma)
    np.testing.assert_allclose(hess, fim, rtol=1e-5)


# --- accumulate ---

def test_accumulate_zero_contribution():
    info = initial_info(2)
    out = accumulate(info, np.zeros((2, 2, 2)))
    np.testing.assert_array_equal(out.fim, info.fim)
    assert out.step == 1


def test_accumulate_linearity_and_order():
    rng = np.random.default_rng(2)
    uavs, users, sigmas = random_mission(rng, 6, 2)
    contribs = mission_contribs(uavs, users, sigmas)
    twice = accumulate(accumulate(initial_info(2), contribs[0]), contribs[0])
    np.testing.assert_allclose(twice.fim, 2 * accumulate(initial_info(2), contribs[0]).fim,
                               rtol=1e-15)
    fwd = initial_info(2)
    for c in contribs:
        fwd = accumulate(fwd, c)
    rev = initial_info(2)
    for c in reversed(contribs):
        rev = accumulate(rev, c)
    np.testing.assert_allclose(fwd.fim, rev.fim, rtol=1e-13, atol=1e-25)


def test_fim_loewner_monotone():
    rng = np.random.default_rng(3)
    uavs, users, sigmas = random_mission(rng, 10, 2)
    info = initial_info(2)
    for c in mission_contribs(uavs, users, sigmas):
        new = accumulate(info, c)
        assert np.linalg.eigvalsh(new.fim - info.fim).min() >= -1e-12
        info = new


# --- crb_trace ---

def test_crb_orthogonal_closed_form():
    sigma = 1e-9
    info = initial_info(1, eps_prior=0.0)
    info = accumulate(info, toa_info_contribution((50, 0, 0), (0, 0), sigma)[None])
    info = accumulate(info, toa_info_contribution((0, 50, 0), (0, 0), sigma)[None])
    expected = 2 * sigma ** 2 * C ** 2
    assert expected == pytest.approx(0.17975, abs=2e-4)
    assert crb_trace(info) == pytest.approx(expected, rel=1e-9)


def test_crb_singular_without_prior():
    info = initial_info(1, eps_prior=0.0)
    info = accumulate(info, toa_info_contribution((50, 0, 0), (0, 0), 1e-9)[None])
    with pytest.raises(SingularFim):
        crb_trace(info)


def random_bearing_contribution(rng, sigma=1e-9):
    """One ToA sample's block from a random bearing and range: rank 1, b != 0."""
    theta = rng.uniform(0, 2 * np.pi)
    while abs(np.sin(2 * theta)) < 0.1:  # keep both axes and b away from 0
        theta = rng.uniform(0, 2 * np.pi)
    r = rng.uniform(5, 300)
    uav = np.array([r * np.cos(theta), r * np.sin(theta), rng.uniform(0, 80)])
    return toa_info_contribution(uav, (0, 0), sigma)


@pytest.mark.parametrize("repeats", [1, 10, 1000])
def test_crb_singular_rotated_rank_one(repeats):
    # a block of `repeats` equal samples from one bearing is rank 1, whatever
    # the bearing; with no prior every such block must be rejected
    rng = np.random.default_rng(9)
    for _ in range(200 if repeats == 1 else 20):
        h = random_bearing_contribution(rng)
        assert h[0, 1] != 0.0
        info = initial_info(1, eps_prior=0.0)
        for _ in range(repeats):
            info = accumulate(info, h[None])
        with pytest.raises(SingularFim):
            crb_trace(info)
        with pytest.raises(SingularFim):
            inverse_with_prior(info)


def test_crb_rank_one_with_prior_is_exact():
    # a rank-1 block far above the prior (ToA sigma 1e-16 s): tr((F + eps I)^-1)
    # is 1/eps + 1/(tr F + eps), although F + eps I is singular to rounding
    rng = np.random.default_rng(10)
    for _ in range(50):
        h = random_bearing_contribution(rng, sigma=1e-16)
        info = accumulate(initial_info(1, eps_prior=1e-6), h[None])
        expected = 1 / 1e-6 + 1 / (np.trace(h) + 1e-6)
        assert crb_trace(info) == pytest.approx(expected, rel=1e-12)


def test_crb_matches_dense_inverse():
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(1, 11))
        uavs, users, sigmas = random_mission(rng, int(rng.integers(2, 12)), k)
        info = initial_info(k, eps_prior=float(rng.choice([0.0, 1e-6])))
        for c in mission_contribs(uavs, users, sigmas):
            info = accumulate(info, c)
        dense = np.linalg.inv(info.fim + info.eps_prior * np.eye(2 * k))
        assert crb_trace(info) == pytest.approx(np.trace(dense), rel=1e-12)
        np.testing.assert_allclose(inverse_with_prior(info), dense, rtol=1e-12, atol=0)


def test_crb_reads_only_the_diagonal_blocks():
    # the off-diagonal blocks of a block-diagonal F are structural zeros; the
    # arithmetic reads the diagonal blocks of the dense fim without copying it
    rng = np.random.default_rng(12)
    uavs, users, sigmas = random_mission(rng, 5, 3)
    info = initial_info(3)
    for c in mission_contribs(uavs, users, sigmas):
        info = accumulate(info, c)
    noisy = info.fim + np.kron(1 - np.eye(3), np.full((2, 2), 7.0))
    assert crb_trace(InfoState(info.step, noisy, info.eps_prior)) == crb_trace(info)
    strided = np.asfortranarray(info.fim)
    assert crb_trace(InfoState(info.step, strided, info.eps_prior)) == crb_trace(info)


def test_info_state_owns_its_blocks():
    # the state copies the blocks of the matrix it is built from, and .fim is
    # a new matrix: writing into either leaves the state's bounds unchanged
    rng = np.random.default_rng(15)
    uavs, users, sigmas = random_mission(rng, 5, 3)
    info = initial_info(3)
    for c in mission_contribs(uavs, users, sigmas):
        info = accumulate(info, c)
    fim = info.fim
    state = InfoState(info.step, fim, info.eps_prior)
    cands = np.column_stack([rng.uniform(-80, 80, (9, 2)), np.full(9, 30.0)])
    contribs = step_contribution(cands, users, ToaNoiseModel(sigma0=2e-8))
    crb, traces = crb_trace(state), improvement_traces(state, contribs)
    fim[...] = 0.0
    state.fim[...] = 0.0
    assert crb_trace(state) == crb
    np.testing.assert_array_equal(improvement_traces(state, contribs), traces)


def test_crb_never_increases_with_psd_updates():
    rng = np.random.default_rng(4)
    info = initial_info(2, eps_prior=1e-6)
    prev = crb_trace(info)
    for _ in range(30):
        g = rng.standard_normal((2, 2, 1))
        contribs = np.einsum("kij,klj->kil", g, g) * rng.uniform(0.1, 5)
        info = accumulate(info, contribs)
        cur = crb_trace(info)
        assert cur <= prev + 1e-12
        prev = cur


def test_crb_nonincreasing_over_mission():
    rng = np.random.default_rng(5)
    uavs, users, sigmas = random_mission(rng, 15, 3)
    info = initial_info(3)
    prev = crb_trace(info)
    for c in mission_contribs(uavs, users, sigmas):
        info = accumulate(info, c)
        cur = crb_trace(info)
        assert cur <= prev + 1e-12
        prev = cur


# --- improvement_matrix ---

def test_improvement_zero_contribution():
    info = accumulate(initial_info(1), toa_info_contribution((50, 0, 30), (0, 0), 1e-8)[None])
    R = improvement_matrix(info, np.zeros((1, 2, 2)))
    np.testing.assert_allclose(R, np.zeros((2, 2)), atol=1e-18)


def test_improvement_recursion_matches_direct_inverse():
    rng = np.random.default_rng(6)
    for _ in range(5):
        uavs, users, sigmas = random_mission(rng, 20, 2)
        contribs = mission_contribs(uavs, users, sigmas)
        info = initial_info(2, eps_prior=1e-6)
        inv = inverse_with_prior(info)
        for c in contribs:
            inv = inv - improvement_matrix(info, c)
            info = accumulate(info, c)
        direct = inverse_with_prior(info)
        err = np.linalg.norm(inv - direct) / np.linalg.norm(direct)
        assert err <= 1e-8


# tr(R) is the CRB trace's decrease, compared relative to the traces: near
# 2e6 one ulp is 2.3e-10, so no absolute tolerance fits every seed
@pytest.mark.parametrize("seed", range(60))
def test_improvement_trace_equals_crb_decrease_relative(seed):
    rng = np.random.default_rng(seed)
    uavs, users, sigmas = random_mission(rng, 12, 2)
    info = initial_info(2)
    for c in mission_contribs(uavs, users, sigmas):
        before = crb_trace(info)
        R = improvement_matrix(info, c)
        info = accumulate(info, c)
        assert before - crb_trace(info) == pytest.approx(np.trace(R), rel=1e-12)


def test_improvement_psd():
    rng = np.random.default_rng(8)
    uavs, users, sigmas = random_mission(rng, 10, 2)
    info = initial_info(2)
    for c in mission_contribs(uavs, users, sigmas):
        R = improvement_matrix(info, c)
        floor = -1e-12 * max(1.0, np.linalg.norm(R))
        assert np.linalg.eigvalsh(R).min() >= floor
        info = accumulate(info, c)


# --- step_contribution ---

def test_step_contribution_uses_distance_sigma():
    noise = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=1e-9, scale=100.0)
    uav = np.array([0.0, 0.0, 30.0])
    users = np.array([[0.0, 40.0], [100.0, 0.0]])
    out = step_contribution(uav, users, noise)
    from uavloc.channel import sigma_tau_of_distance
    for k, u in enumerate(users):
        d = np.linalg.norm(uav - np.r_[u, 0.0])
        expected = toa_info_contribution(uav, u, sigma_tau_of_distance(d, noise))
        np.testing.assert_allclose(out[k], expected, rtol=1e-14)


def test_step_contribution_broadcasts_over_candidates():
    # a (C, 3) stack of positions gives the blocks of each position, bit for bit
    rng = np.random.default_rng(13)
    noise = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=1e-9, scale=100.0)
    cands = rng.uniform(-60, 60, (9, 3))
    cands[:, 2] = 30.0
    users = rng.uniform(-60, 60, (4, 2))
    out = step_contribution(cands, users, noise)
    assert out.shape == (9, 4, 2, 2)
    for c in range(9):
        np.testing.assert_array_equal(out[c], step_contribution(cands[c], users, noise))


def test_improvement_traces_match_improvement_matrix():
    rng = np.random.default_rng(14)
    uavs, users, sigmas = random_mission(rng, 6, 3)
    info = initial_info(3)
    for c in mission_contribs(uavs, users, sigmas):
        info = accumulate(info, c)
    cands = np.column_stack([rng.uniform(-80, 80, (9, 2)), np.full(9, 30.0)])
    contribs = step_contribution(cands, users, ToaNoiseModel(sigma0=2e-8))
    traces = improvement_traces(info, contribs)
    assert traces.shape == (9,)
    for c in range(9):
        R = improvement_matrix(info, contribs[c])
        assert traces[c] == pytest.approx(np.trace(R), rel=1e-12)
