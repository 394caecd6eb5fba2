import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc.errors import DegenerateGeometry, InvalidParam, SingularFim
from uavloc.fim import (InfoState, accumulate, crb_trace, crb_traces, improvement_matrix,
                        improvement_traces, initial_info, inverse_with_prior,
                        step_contribution, toa_info_contribution)
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import MeasurementLog, MeasurementSample, ToaNoiseModel, Vec3, toa_variance
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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 30), k=st.integers(1, 40),
       eps_prior=st.sampled_from([0.0, 1e-9, 1e-6, 0.37]), exponential=st.booleans())
def test_crb_traces_of_a_history_equal_each_states_crb_trace(seed, steps, k, eps_prior,
                                                             exponential):
    # the history kernel over the stacked blocks after each step gives, bit
    # for bit, the trace crb_trace gives of each accumulated InfoState, and
    # refuses the history where some state is singular
    rng = np.random.default_rng(seed)
    uavs, users, _ = random_mission(rng, steps, k)
    noise = ToaNoiseModel(kind="exponential" if exponential else "constant",
                          sigma0=1e-8, amp=1e-10, scale=40.0)
    info, states = initial_info(k, eps_prior), []
    for uav in uavs:
        info = accumulate(info, step_contribution(uav, users, noise))
        states.append(info)
    blocks = np.array([state.blocks for state in states])
    try:
        expected = [crb_trace(state) for state in states]
    except SingularFim:
        with pytest.raises(SingularFim):
            crb_traces(blocks, eps_prior)
        return
    got = crb_traces(blocks, eps_prior)
    assert got.shape == (steps,)
    np.testing.assert_array_equal(got, expected)
    assert crb_traces(blocks[-1], eps_prior) == crb_trace(states[-1])


def test_crb_traces_refuse_a_history_without_prior_whose_first_state_is_singular():
    # at eps_prior = 0 the first step's rank-1 blocks are singular, so the
    # whole history is refused although every later state is regular
    rng = np.random.default_rng(3)
    uavs, users, _ = random_mission(rng, 6, 4)
    info, states = initial_info(4, eps_prior=0.0), []
    for uav in uavs:
        info = accumulate(info, step_contribution(uav, users, ToaNoiseModel()))
        states.append(info)
    with pytest.raises(SingularFim):
        crb_trace(states[0])
    with pytest.raises(SingularFim):
        crb_traces(np.array([state.blocks for state in states]), 0.0)
    later = crb_traces(np.array([state.blocks for state in states[1:]]), 0.0)
    np.testing.assert_array_equal(later, [crb_trace(state) for state in states[1:]])


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
    noise = ToaNoiseModel(sigma0=2e-8)
    crb, traces = crb_trace(state), improvement_traces(state, cands, users, noise)
    fim[...] = 0.0
    state.fim[...] = 0.0
    assert crb_trace(state) == crb
    np.testing.assert_array_equal(improvement_traces(state, cands, users, noise), traces)


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


def _gain_rounding(info, contribs):
    """The rounding scale of tr(R) after contributions (K, 2, 2): the sum
    over users of tr(P^-1), and of tr((P + H)^-1) times the condition
    number (|a d| + |b c|) / det of the determinant of P + H = [[a, b],
    [c, d]], which is large where the step leaves the block near-singular."""
    eps = info.eps_prior
    after = info.blocks + contribs
    a, d = after[:, 0, 0] + eps, after[:, 1, 1] + eps
    traces = crb_traces(after[:, None], eps)  # tr((P + H)^-1) of each user, (a + d) / det
    cond = (np.abs(a * d) + np.abs(after[:, 0, 1] * after[:, 1, 0])) * traces / (a + d)
    return crb_trace(info) + np.sum(traces * cond)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 10),
       eps_prior=st.sampled_from([0.0, 1e-6, 1e-3]), one_bearing=st.booleans(),
       exponential=st.booleans(), far=st.booleans())
def test_improvement_traces_match_improvement_matrix(seed, k, eps_prior, one_bearing,
                                                     exponential, far):
    # each candidate's tr(R) from the (C, K) kernel equals the trace of the
    # dense improvement matrix of its step_contribution blocks, relative to
    # the traces it is a difference of (_gain_rounding); both refuse the same
    # inputs. One-bearing states measure every user from one horizontal
    # position, so each block is rank 1, and two candidates keep a bearing.
    rng = np.random.default_rng(seed)
    users = rng.uniform(-80, 80, (k, 2))
    if exponential:
        noise = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=1e-9, scale=100.0)
    else:
        noise = ToaNoiseModel(sigma0=float(rng.uniform(5e-9, 5e-8)))
    if far and exponential and eps_prior > 0:
        users[-1] = (1e5, 1e5)  # exp(d / scale) overflows: sigma is inf
    uavs = np.column_stack([rng.uniform(-80, 80, (6, 2)), rng.uniform(10, 60, 6)])
    if one_bearing:
        uavs[:, :2] = uavs[0, :2]
    info = initial_info(k, eps_prior)
    for uav in uavs[:int(rng.integers(1 if one_bearing else 2, 7))]:
        info = accumulate(info, step_contribution(uav, users, noise))
    cands = np.column_stack([rng.uniform(-80, 80, (9, 2)), rng.uniform(10, 60, 9)])
    cands[0, :2] = uavs[0, :2]  # every user's bearing from the state's first position
    cands[1, :2] = users[0] + rng.uniform(0.2, 3.0) * (uavs[0, :2] - users[0])  # user 0's
    cands[8] = np.r_[users[k // 2] + 1e-160, 1e-160]  # a short link, not a zero one

    if one_bearing and eps_prior == 0.0:  # rank-1 blocks and no prior: singular
        with pytest.raises(SingularFim):
            improvement_matrix(info, step_contribution(cands[2], users, noise))
        with pytest.raises(SingularFim):
            improvement_traces(info, cands, users, noise)
        return
    traces = improvement_traces(info, cands, users, noise)
    assert traces.shape == (9,)
    for c, cand in enumerate(cands):
        contribs = step_contribution(cand, users, noise)
        R = improvement_matrix(info, contribs)
        assert traces[c] == pytest.approx(np.trace(R), rel=1e-12,
                                          abs=1e-12 * _gain_rounding(info, contribs))
    if users[-1, 0] == 1e5:  # the far user alone gains exactly 0
        far_info = InfoState(info.step, info.fim[-2:, -2:], eps_prior)
        assert np.all(improvement_traces(far_info, cands, users[-1:], noise) == 0.0)

    # a candidate at a user's position on the ground has no link direction
    ground = np.vstack([cands, np.r_[users[k // 2], 0.0]])
    with pytest.raises(DegenerateGeometry):
        step_contribution(ground[-1], users, noise)
    with pytest.raises(DegenerateGeometry):
        improvement_traces(info, ground, users, noise)
    # a NaN user estimate gives a NaN candidate block, refused by both
    lost = users.copy()
    lost[k // 2] = np.nan
    with pytest.raises(SingularFim):
        improvement_matrix(info, step_contribution(cands[2], lost, noise))
    with pytest.raises(SingularFim):
        improvement_traces(info, cands, lost, noise)


def test_improvement_traces_carry_the_rank_rule_into_candidate_blocks():
    # at an eps_prior far below the rounding of its rank-1 blocks A, det(P)
    # is eps (tr A + eps) by the rank rule. A candidate on the same bearings
    # keeps every block rank 1: its tr(R) is at the rounding level of the
    # CRB trace, as improvement_matrix gives it, and it is not refused. Off
    # those bearings every block gains full rank, and all of tr(P^-1) but
    # rounding.
    rng = np.random.default_rng(17)
    users = rng.uniform(-80, 80, (6, 2))
    noise = ToaNoiseModel(sigma0=1.25e-8)
    info = accumulate(initial_info(6, eps_prior=1e-18),
                      step_contribution([10.0, -5.0, 30.0], users, noise))
    cands = np.array([[10.0, -5.0, 30.0], [10.0, -5.0, 45.0], [40.0, 20.0, 30.0]])
    traces, crb = improvement_traces(info, cands, users, noise), crb_trace(info)
    for c, cand in enumerate(cands):
        oracle = np.trace(improvement_matrix(info, step_contribution(cand, users, noise)))
        if c < 2:
            assert abs(traces[c]) <= 1e-12 * crb and abs(oracle) <= 1e-12 * crb
        else:
            assert traces[c] == pytest.approx(oracle, rel=1e-12)
            assert traces[c] == pytest.approx(crb, rel=1e-12)


def _eye_with(entry, value):
    block = np.eye(2)
    block[entry] = value
    return block


@pytest.mark.parametrize("block", [_eye_with((0, 0), 0.0)] + [
    _eye_with(entry, value) for value in (np.nan, np.inf, -np.inf)
    for entry in ((0, 0), (0, 1), (1, 0), (1, 1))] + [
    np.array([[5e-324, 2e-8], [2e-8, 1e308]]),  # c / a overflows
    np.array([[1.0, 1e200], [1e200, 1.0]])])  # b (c / a) overflows
def test_det_refuses_a_zero_pivot_and_non_finite_blocks_without_a_warning(block):
    # a zero pivot a (at eps_prior 0), an inf or a NaN entry, and a block
    # whose pivot quotient overflows are refused, with no float warning on
    # the way to SingularFim
    blocks = np.stack([np.eye(2), block, np.eye(2)])
    info = accumulate(initial_info(3, eps_prior=0.0), blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFim):
            crb_traces(blocks, 0.0)
        with pytest.raises(SingularFim):
            inverse_with_prior(info)
        with pytest.raises(SingularFim):
            improvement_traces(info, [[5.0, 0.0, 30.0]], np.zeros((3, 2)), ToaNoiseModel())


def test_a_block_whose_determinant_overflows_has_its_crb_trace_without_a_warning():
    # 1e200 I: det = 1e400 is beyond the float range, but w = 1 and the CRB
    # trace is 2e-200, so the block is accepted
    block = np.array([[1e200, 0.0], [0.0, 1e200]])
    info = accumulate(initial_info(3, eps_prior=0.0), np.stack([np.eye(2), block, np.eye(2)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert crb_traces(block, 0.0) == pytest.approx(2e-200, rel=1e-15)
        np.testing.assert_allclose(inverse_with_prior(info), np.diag([1, 1, 1e-200, 1e-200, 1, 1]),
                                   rtol=1e-15)
        gains = improvement_traces(info, [[5.0, 0.0, 30.0]], np.zeros((3, 2)), ToaNoiseModel())
        assert 0 < gains[0] < crb_trace(info)


@pytest.mark.parametrize("eps", [1e-6, 1e-150, 1e-160, 1e-162, 1e-300, 2e-308, 1e80])
def test_an_uninformed_block_has_crb_trace_two_over_eps(eps):
    # eps I, a user straight below every UAV position or never heard: its
    # CRB trace is 2 / eps at every eps whose 2 / eps is a float, and a
    # candidate gains 1/eps - 1/(eps + |g|^2) of it. A det formed as eps^2
    # would be subnormal below 1.5e-154 and 0 below 1.5e-162
    info = initial_info(1, eps_prior=eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = crb_trace(info)
        assert abs(trace - 2 / eps) <= 2 * np.spacing(2 / eps)
        gain = improvement_traces(info, [[3.0, 4.0, 0.0]], [[0.0, 0.0]], ToaNoiseModel())[0]
    gg = 1 / (ToaNoiseModel().sigma0 * C) ** 2
    assert gain == pytest.approx(1 / eps - 1 / (eps + gg), rel=1e-14)


@pytest.mark.parametrize("eps", [1e-309, 5e-324])
def test_a_crb_trace_beyond_the_float_range_is_not_a_singular_matrix(eps):
    # eps I is positive definite, but 2 / eps overflows: an input error on
    # eps_prior (exit 2), not SingularFim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParam, match="eps_prior"):
            crb_traces(np.zeros((1, 2, 2)), eps)


@pytest.mark.parametrize("rank_one, eps", [
    ([[1e30, 1e30], [1e30, 1e30]], 1e-300),  # w = 2e-330, below the float range
    ([[1e-100, 1e-100], [1e-100, 1e-100]], 1e-200),  # det = 2e-300 eps
    ([[1e300, 1e145], [1e145, 1e-10]], 1e-30),  # A_aa / d = 1e310
    ([[1e300, 1e135], [1e135, 1e-30]], 1e-50)])  # A_aa / d = 1e330
def test_a_rank_one_block_has_its_crb_trace_at_any_scale(rank_one, eps):
    # the rank rule's CRB trace, (a + d) / (eps (tr A + eps)), within 2 ulps
    # wherever it is a float, though the share w = det / (a d) may be below
    # the float range; a candidate gains about all of it only where its link
    # crosses A's range, and exactly 0 straight above the user
    block = np.array(rank_one)
    info = InfoState(1, block, eps_prior=eps)
    cands = [[0.0, 0.0, 30.0], [3.0, 3.0, 30.0], [3.0, -3.0, 30.0], [5.0, 0.0, 30.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = crb_trace(info)
        gains = improvement_traces(info, cands, [[0.0, 0.0]], ToaNoiseModel())
    e, a, d = Fraction(eps), Fraction(block[0, 0]), Fraction(block[1, 1])
    exact = (a + d + 2 * e) / (e * (a + d + e))
    assert abs(Fraction(trace) - exact) <= 2 * Fraction(np.spacing(trace))
    gx, gy = _kernel_links(np.array(cands), np.zeros((1, 2)), ToaNoiseModel())
    for c, gain in enumerate(gains):
        before, after = _exact_gain_terms(a + e, Fraction(block[0, 1]), d + e,
                                          e * (a + d + e), gx[c, 0], gy[c, 0])
        assert abs(Fraction(gain) - (before - after)) <= Fraction(1e-12) * before
    assert gains[0] == 0.0
    with pytest.raises(SingularFim):
        crb_traces(block[None], 0.0)


# --- exact-rational oracles ---

def _exact_gain_terms(a, b, d, det, gx, gy):
    """tr P^-1 and tr (P + g g^T)^-1 of P = [[a, b], [b, d]] with det P =
    det, in exact rationals, g's components given as floats."""
    gx, gy = Fraction(gx), Fraction(gy)
    det_new = det + d * gx * gx + a * gy * gy - 2 * b * gx * gy
    return (a + d) / det, (a + d + gx * gx + gy * gy) / det_new


def _exact_blocks(info):
    """(a, b, d, det) of each block of F + eps_prior I, as Fractions."""
    eps = Fraction(info.eps_prior)
    out = []
    for block in info.blocks:
        a, b, d = Fraction(block[0, 0]) + eps, Fraction(block[0, 1]), Fraction(block[1, 1]) + eps
        out.append((a, b, d, a * d - b * b))
    return out


def _kernel_links(cands, users, noise):
    """The link gradients g (C, K) over sigma, from improvement_traces' own
    float arithmetic on the links."""
    hx = cands[:, 0, None] - users[:, 0]
    hy = cands[:, 1, None] - users[:, 1]
    dist = np.sqrt(hx * hx + hy * hy + cands[:, 2, None] ** 2)
    link = np.sqrt(toa_variance(dist, noise)) * C * dist
    return hx / link, hy / link


def _oracle_states():
    """The 40 seed-11 states of test_crb_matches_dense_inverse, each with
    its users, last position and noise, and 20 40-user states built as the
    plan_queries benchmark builds its own: a random feasible flight over
    users estimated within about 3 m, its blocks taken at the estimates."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(1, 11))
        uavs, users, sigmas = random_mission(rng, int(rng.integers(2, 12)), k)
        info = initial_info(k, eps_prior=float(rng.choice([0.0, 1e-6])))
        for c in mission_contribs(uavs, users, sigmas):
            info = accumulate(info, c)
        yield info, users, uavs[-1], ToaNoiseModel(sigma0=float(sigmas[-1].mean()))
    rng = np.random.default_rng(19)
    noise = ToaNoiseModel(sigma0=1.25e-8)
    for _ in range(20):
        users = rng.uniform(-100, 100, (40, 2)) + 3.0 * rng.standard_normal((40, 2))
        info, pos = initial_info(40, eps_prior=1e-6), np.array([0.0, 0.0, 30.0])
        for _ in range(int(rng.integers(1, 59))):
            info = accumulate(info, step_contribution(pos, users, noise))
            theta = 2 * np.pi * int(rng.integers(8)) / 8
            pos = pos + 5.0 * np.array([np.cos(theta), np.sin(theta), 0.0])
        yield info, users, pos, noise


def test_crb_traces_match_exact_rationals():
    # within 2e-13 of the exact trace of F + eps_prior I from the float
    # blocks (7.4e-14 while det was a s)
    for info, *_ in _oracle_states():
        exact = sum((a + d) / det for a, _, d, det in _exact_blocks(info))
        assert abs(Fraction(crb_trace(info)) - exact) <= Fraction(2e-13) * exact


def test_improvement_traces_match_exact_rationals():
    # each candidate's tr(R) within 1e-12 of the largest per-user term
    # tr P^-1 of the exact gain on the float blocks and the kernel's own
    # link gradients. improvement_matrix, 1e-7 off, cannot pin it
    for info, users, pos, noise in _oracle_states():
        cands = pos + 5.0 * np.column_stack([np.cos(np.arange(9) * np.pi / 4),
                                             np.sin(np.arange(9) * np.pi / 4), np.zeros(9)])
        cands[-1] = pos
        gains = improvement_traces(info, cands, users, noise)
        gx, gy = _kernel_links(cands, users, noise)
        blocks = _exact_blocks(info)
        for c in range(len(cands)):
            terms = [_exact_gain_terms(*blocks[k], gx[c, k], gy[c, k]) for k in range(len(users))]
            exact = sum(before - after for before, after in terms)
            largest = max(before for before, _ in terms)
            assert abs(Fraction(gains[c]) - exact) <= Fraction(1e-12) * largest


def test_initial_info_builds_no_dense_matrix():
    # K zero blocks, not the diagonal blocks of a (2K, 2K) zero matrix (128 MB at K = 2000)
    tracemalloc.start()
    try:
        info = initial_info(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6 and info.blocks.shape == (2000, 2, 2)
    got, want = initial_info(40, 3e-7), InfoState(step=0, fim=np.zeros((80, 80)), eps_prior=3e-7)
    assert (got.step, got.eps_prior) == (want.step, want.eps_prior)
    assert got.blocks.dtype == want.blocks.dtype and got.blocks.shape == want.blocks.shape
    assert got.blocks.flags.c_contiguous and got.blocks.tobytes() == want.blocks.tobytes()
