import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc.fim import accumulate, initial_info, toa_info_contribution
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import ToaNoiseModel
from uavloc.planner import (PlannerState, candidate_positions, greedy_cost,
                            next_waypoint, reach_threshold)

NOISE = ToaNoiseModel(kind="constant", sigma0=1.25e-8)


def make_state(step, pos, terminal, n_steps, d_max, info=None, users=None, **kw):
    if info is None:
        info = initial_info(1)
    if users is None:
        users = np.array([[0.0, 0.0]])
    return PlannerState(step=step, pos=np.asarray(pos, dtype=float),
                        terminal=np.asarray(terminal, dtype=float),
                        mission_steps=n_steps, d_max=d_max, info=info,
                        user_estimates=np.asarray(users, dtype=float),
                        noise_model=NOISE, **kw)


# --- reach_threshold ---

def test_reach_threshold_values():
    assert reach_threshold(10, 10, 5.0) == 0.0
    assert reach_threshold(1, 10, 5.0) == 45.0
    for n in range(1, 10):
        assert reach_threshold(n, 10, 5.0) - reach_threshold(n + 1, 10, 5.0) == 5.0


# --- greedy_cost ---

def test_infeasible_candidate_scores_minus_inf():
    st = make_state(step=8, pos=(0, 0, 30), terminal=(100, 0, 30), n_steps=10, d_max=5.0)
    assert greedy_cost(np.array([0.0, 5.0, 30.0]), st) == float("-inf")


def test_overhead_candidate_zero_cost():
    info = accumulate(initial_info(1, eps_prior=1e-6),
                      toa_info_contribution((50, 0, 30), (0, 0), 1e-8)[None])
    st = make_state(step=1, pos=(0, 0, 30), terminal=(0, 0, 30), n_steps=100,
                    d_max=5.0, info=info, users=[[0.0, 0.0]])
    assert greedy_cost(np.array([0.0, 0.0, 30.0]), st) == pytest.approx(0.0, abs=1e-15)


def test_perpendicular_bearing_scores_higher():
    # prior measurements all from the +x bearing; a +y candidate adds the
    # missing information direction and must win
    info = initial_info(1, eps_prior=1e-6)
    for _ in range(5):
        info = accumulate(info, toa_info_contribution((60, 0, 30), (0, 0), 1.25e-8)[None])
    st = make_state(step=1, pos=(0, 0, 30), terminal=(0, 0, 30), n_steps=200,
                    d_max=60.0, info=info, users=[[0.0, 0.0]])
    along = greedy_cost(np.array([60.0, 0.0, 30.0]), st)
    perp = greedy_cost(np.array([0.0, 60.0, 30.0]), st)
    assert perp > along


# --- candidate_positions ---

@pytest.mark.parametrize("headings", [1, 8, 12])
@pytest.mark.parametrize("pos", [(3.5, -2.25, 30.0), (-0.0, 0.0, -0.0)])
def test_candidates_equal_the_ring_built_per_query(headings, pos):
    st = make_state(step=1, pos=pos, terminal=(0, 0, 30), n_steps=10, d_max=5.0,
                    headings=headings)
    pos = np.asarray(pos, dtype=float)
    theta = 2.0 * np.pi * np.arange(headings) / headings
    ring = pos + 5.0 * np.column_stack([np.cos(theta), np.sin(theta), np.zeros(headings)])
    want = np.vstack([ring, pos])
    for _ in range(2):
        cands = candidate_positions(st)
        assert cands.tobytes() == want.tobytes()  # -0.0 of a held pos kept
        cands[:] = np.nan  # the caller's array, not the cached ring


# --- next_waypoint ---

def test_forced_terminal_at_last_step():
    term = np.array([40.0, -3.0, 25.0])
    st = make_state(step=9, pos=(36.0, -3.0, 25.0), terminal=term, n_steps=10, d_max=5.0)
    np.testing.assert_array_equal(next_waypoint(st), term)
    # at the final step there is no next waypoint
    with pytest.raises(ValueError):
        next_waypoint(make_state(step=10, pos=term, terminal=term, n_steps=10, d_max=5.0))


def test_fallback_step_toward_terminal():
    # terminal exactly d_max*(N-n) away on a bearing between the 8 headings:
    # no ring candidate closes the full 5 m toward it, so all are infeasible
    pos = np.array([0.0, 0.0, 30.0])
    phi = np.deg2rad(20.0)
    term = pos + 20.0 * np.array([np.cos(phi), np.sin(phi), 0.0])
    st = make_state(step=6, pos=pos, terminal=term, n_steps=10, d_max=5.0)
    for cand in candidate_positions(st):
        assert greedy_cost(cand, st) == float("-inf")
    wp = next_waypoint(st)
    expected = pos + (term - pos) / 4  # ||x - x_F|| / (N - n) = 5 m toward terminal
    np.testing.assert_allclose(wp, expected, rtol=1e-15)


def test_straight_corridor_collapses_to_segment():
    # terminal exactly N-1 hops away: the feasible set is the straight line
    n_steps = 9
    pos = np.array([0.0, 0.0, 30.0])
    term = np.array([40.0, 0.0, 30.0])
    info = initial_info(1)
    path = [pos]
    for n in range(1, n_steps):
        st = make_state(step=n, pos=path[-1], terminal=term, n_steps=n_steps,
                        d_max=5.0, info=info, users=[[10.0, 50.0]])
        path.append(next_waypoint(st))
    path = np.array(path)
    expected = np.column_stack([np.linspace(0, 40, n_steps),
                                np.zeros(n_steps), np.full(n_steps, 30.0)])
    np.testing.assert_allclose(path, expected, atol=1e-9)


def test_tie_breaks_to_smallest_heading_index(monkeypatch):
    # with all candidates scoring equally, heading 0 must be returned
    import uavloc.planner as planner_mod
    monkeypatch.setattr(planner_mod, "improvement_traces",
                        lambda info, uav, user_ests, noise: np.ones(len(uav)))
    st = make_state(step=1, pos=(0, 0, 30), terminal=(0, 0, 30), n_steps=100,
                    d_max=5.0, users=[[0.0, 0.0]])
    wp = next_waypoint(st)
    np.testing.assert_allclose(wp, [5.0, 0.0, 30.0], atol=1e-12)


def test_planner_deterministic():
    info = accumulate(initial_info(1, eps_prior=1e-6),
                      toa_info_contribution((30, 10, 30), (0, 0), 1.25e-8)[None])
    st1 = make_state(step=3, pos=(5, 5, 30), terminal=(40, 0, 30), n_steps=30,
                     d_max=5.0, info=info, users=[[2.0, 1.0]])
    st2 = make_state(step=3, pos=(5, 5, 30), terminal=(40, 0, 30), n_steps=30,
                     d_max=5.0, info=info, users=[[2.0, 1.0]])
    np.testing.assert_array_equal(next_waypoint(st1), next_waypoint(st2))


def test_feasibility_invariants_random_scenarios():
    # planner-only feasibility: fixed user estimates, random geometry
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_steps = int(rng.integers(5, 25))
        d_max = float(rng.uniform(2, 8))
        start = np.r_[rng.uniform(-30, 30, 2), rng.uniform(20, 50)]
        direction = rng.standard_normal(3)
        direction[2] = 0.0
        direction /= np.linalg.norm(direction[:2])
        term = start + direction * rng.uniform(0, 0.9) * d_max * (n_steps - 1)
        users = rng.uniform(-60, 60, (int(rng.integers(1, 3)), 2))
        info = initial_info(len(users))
        pos = start
        for n in range(1, n_steps):
            assert np.linalg.norm(pos - term) <= reach_threshold(n, n_steps, d_max) + 1e-9
            st = make_state(step=n, pos=pos, terminal=term, n_steps=n_steps,
                            d_max=d_max, info=info, users=users)
            nxt = next_waypoint(st)
            assert np.linalg.norm(nxt - pos) <= d_max * (1 + 1e-12)
            pos = nxt
        assert np.linalg.norm(pos - term) <= 1e-9


def dense_oracle_costs(st_):
    """tr(R) of every candidate from dense 2K x 2K inverses, -inf where the
    terminal becomes unreachable; geometry and noise written out here."""
    k = len(st_.user_estimates)
    prior = st_.info.fim + st_.info.eps_prior * np.eye(2 * k)
    before = np.trace(np.linalg.inv(prior))
    slack = st_.d_max * (st_.mission_steps - st_.step - 1)
    cands = [st_.pos + st_.d_max * np.array([np.cos(theta), np.sin(theta), 0.0])
             for theta in 2 * np.pi * np.arange(st_.headings) / st_.headings] + [st_.pos]
    costs = []
    for cand in cands:
        if np.linalg.norm(cand - st_.terminal) > slack + 1e-9:
            costs.append(float("-inf"))
            continue
        gain = np.zeros((2 * k, 2 * k))
        for j, u in enumerate(st_.user_estimates):
            diff = cand[:2] - u
            d = np.sqrt(diff @ diff + cand[2] ** 2)
            g = diff / (C * d)
            gain[2 * j:2 * j + 2, 2 * j:2 * j + 2] = np.outer(g, g) / NOISE.sigma0 ** 2
        costs.append(before - np.trace(np.linalg.inv(prior + gain)))
    return np.array(costs), np.array(cands)


@st.composite
def block_diagonal_states(draw):
    k = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    users = rng.uniform(-80, 80, (k, 2))
    info = initial_info(k, eps_prior=draw(st.sampled_from([1e-6, 1e-3])))
    for _ in range(draw(st.integers(0, 6))):
        uav = np.r_[rng.uniform(-80, 80, 2), rng.uniform(10, 60)]
        info = accumulate(info, np.array([toa_info_contribution(uav, u, NOISE.sigma0)
                                          for u in users]))
    n_steps = draw(st.integers(3, 30))
    step = draw(st.integers(1, n_steps - 1))
    d_max = 5.0
    pos = np.r_[rng.uniform(-50, 50, 2), 30.0]
    # the terminal's distance relative to the slack of the next step sets how
    # many candidates are feasible: all, some, or (beyond slack + d_max) none
    slack = d_max * (n_steps - step - 1)
    bearing = rng.uniform(0, 2 * np.pi)
    dist = draw(st.floats(0.0, 1.0)) * (slack + 1.5 * d_max)
    terminal = pos + dist * np.array([np.cos(bearing), np.sin(bearing), 0.0])
    return make_state(step=step, pos=pos, terminal=terminal, n_steps=n_steps,
                      d_max=d_max, info=info, users=users)


@settings(max_examples=150, deadline=None, database=None)
@given(st_=block_diagonal_states())
def test_next_waypoint_matches_dense_oracle(st_):
    costs, cands = dense_oracle_costs(st_)
    wp = next_waypoint(st_)
    if not np.isfinite(costs).any():
        remaining = st_.mission_steps - st_.step
        expected = st_.terminal if remaining == 1 else \
            st_.pos + (st_.terminal - st_.pos) / remaining
        np.testing.assert_allclose(wp, expected, rtol=0, atol=1e-12)
        return
    best = costs.max()
    # candidates within rounding of the best: the planner may pick any of them
    near = np.flatnonzero(costs >= best - 1e-9 * abs(best))
    chosen = np.flatnonzero(np.all(cands == wp, axis=1))
    assert len(chosen) >= 1
    if len(near) == 1:
        assert chosen[0] == near[0] == int(np.argmax(costs))
    else:
        assert chosen[0] in near
    assert greedy_cost(wp, st_) == pytest.approx(best, rel=1e-9)
