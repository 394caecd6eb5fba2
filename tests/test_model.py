import json
import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavloc
import uavloc.model
from uavloc.channel import toa_gradient
from uavloc.errors import InvalidParam, TerminalUnreachable
from uavloc.fim import default_eps_prior, improvement_traces, initial_info, step_contribution
from uavloc.iofiles import RunConfig, _planner_state
from uavloc.mission import run_mission
from uavloc.model import (LENGTH_MAX, REACH_SLACK, SPEED_OF_LIGHT, AxisBox, MeasurementLog,
                          MeasurementSample, Scenario, ToaNoiseModel, Vec2, Vec3,
                          sigma_tau_of_distance, toa_variance, validate_scenario)
from uavloc.planner import PlannerState, greedy_cost
from uavloc.slam import SlamConfig, measurement_weights, range_circle_start, residuals


def make_scenario(**kw):
    base = dict(users=(Vec2(0.0, 40.0),), uav_start=Vec3(0, 0, 30),
                uav_terminal=Vec3(40, 0, 30), mission_steps=10, d_max=5.0)
    base.update(kw)
    return Scenario(**base)


def test_reachable_scenario_valid():
    # distance 40 <= 5 * 9 = 45
    s = make_scenario()
    assert validate_scenario(s) is s


def test_terminal_unreachable():
    with pytest.raises(TerminalUnreachable):
        validate_scenario(make_scenario(uav_terminal=Vec3(100, 0, 30)))


def test_sigma_gps_boundary():
    with pytest.raises(InvalidParam) as exc:
        validate_scenario(make_scenario(sigma_gps=0.0))
    assert exc.value.field == "sigma_gps"


@pytest.mark.parametrize("field,value", [
    ("mission_steps", 1),
    ("d_max", 0.0),
    ("delta_keep", -1.0),
    ("numerology", 6),
    ("sample_rate", 0.0),
    ("users", ()),
    ("mission_steps", 25.0),
    ("seed", 7.5),
    ("numerology", 1.0),
])
def test_invalid_fields_rejected(field, value):
    with pytest.raises(InvalidParam) as exc:
        validate_scenario(make_scenario(**{field: value}))
    assert exc.value.field == field


def test_nan_coordinates_rejected():
    with pytest.raises(InvalidParam):
        validate_scenario(make_scenario(uav_start=Vec3(0, float("nan"), 30)))


def test_noise_model_invariants():
    bad = ToaNoiseModel(kind="exponential", sigma0=1e-8, amp=-1e-9, scale=100.0)
    with pytest.raises(InvalidParam):
        validate_scenario(make_scenario(toa_noise=bad))
    with pytest.raises(InvalidParam):
        validate_scenario(make_scenario(toa_noise=ToaNoiseModel(sigma0=0.0)))
    with pytest.raises(InvalidParam) as exc:
        validate_scenario(make_scenario(toa_noise=ToaNoiseModel(drift_reset_period=2.5)))
    assert exc.value.field == "toa_noise.drift_reset_period"


NAN = float("nan")


# one field broken per model; the scenario and the solver name the same field
@pytest.mark.parametrize("field, kw", [
    ("kind", {"kind": "bogus"}),
    ("sigma0", {"sigma0": 1e-60}),   # below the floor, 1 / LENGTH_MAX m of range
    ("sigma0", {"sigma0": 1e40}),    # above the ceiling, LENGTH_MAX m of range
    ("amp", {"kind": "exponential", "amp": -1e-9}),
    ("scale", {"kind": "exponential", "amp": 1e-9, "scale": 0.0}),  # weights 1 / inf^2 = 0
    ("scale", {"kind": "exponential", "amp": 1e-9, "scale": -50.0}),
    ("drift_rate", {"drift_rate": -1e-9}),
    ("drift_reset_period", {"drift_reset_period": 0}),
    ("drift_reset_period", {"drift_reset_period": 2.5}),
    ("drift_reset_period", {"drift_reset_period": True}),
    ("nlos_scale", {"nlos_scale": -1.0}),
    ("sigma0", {"sigma0": NAN}),
    ("amp", {"kind": "exponential", "amp": NAN}),
    ("scale", {"kind": "exponential", "amp": 1e-9, "scale": NAN}),
    ("drift_rate", {"drift_rate": NAN}),
    ("nlos_scale", {"nlos_scale": NAN}),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]}" for k in v))
def test_one_rule_refuses_a_bad_noise_model_in_the_scenario_and_the_solver(field, kw):
    noise = ToaNoiseModel(**kw)
    with pytest.raises(InvalidParam) as scenario:
        validate_scenario(make_scenario(toa_noise=noise))
    assert scenario.value.field == f"toa_noise.{field}"
    with pytest.raises(InvalidParam) as solver:
        SlamConfig(per_distance_weights=True, noise_model=noise)
    assert solver.value.field == f"noise_model.{field}"
    assert solver.value.reason == scenario.value.reason
    # noise_model is read, and so checked, only under per_distance_weights
    assert SlamConfig(noise_model=noise).noise_model is noise


@st.composite
def noise_models(draw):
    """A ToA noise model that validate_scenario accepts on make_scenario()."""
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    return ToaNoiseModel(kind=draw(st.sampled_from(["constant", "exponential"])),
                         sigma0=draw(real(1e-12, 1e-6)), amp=draw(real(0.0, 1e-8)),
                         scale=draw(real(10.0, 1e4)), drift_rate=draw(real(0.0, 1e-8)),
                         drift_reset_period=draw(st.integers(1, 50)),
                         nlos_scale=draw(real(0.0, 1e-8)))


@settings(max_examples=100, deadline=None, database=None)
@given(noise_models())
def test_the_scenario_and_the_solver_accept_the_same_noise_models(noise):
    validate_scenario(make_scenario(toa_noise=noise))
    assert SlamConfig(per_distance_weights=True, noise_model=noise).noise_model is noise


def test_the_drift_reach_has_one_owner():
    # drift_reach is the ramp's largest range, C / 2 * rate * (min(period, steps) - 1),
    # and validate_scenario and nrtiming.drift_offset both bound it by LENGTH_MAX
    from uavloc.model import drift_reach
    from uavloc.nrtiming import drift_offset
    ramp = ToaNoiseModel(drift_rate=2e-9, drift_reset_period=5)
    assert drift_reach(ramp, 3) == SPEED_OF_LIGHT / 2 * 2e-9 * 2
    assert drift_reach(ramp, 9) == drift_reach(ramp, 5) == SPEED_OF_LIGHT / 2 * 2e-9 * 4
    assert drift_reach(ramp, 1) == 0.0
    # a rate whose reach over 10 steps is just beyond the bound; over 9 steps within it
    far = ToaNoiseModel(drift_rate=LENGTH_MAX / (SPEED_OF_LIGHT / 2) / 8.5, drift_reset_period=20)
    assert drift_reach(far, 9) < LENGTH_MAX < drift_reach(far, 10)
    for steps, refused in ((9, False), (10, True)):
        try:
            drift_offset(np.arange(1, steps + 1), far)
        except InvalidParam as exc:
            assert refused and exc.field == "toa_noise.drift_rate"
        else:
            assert not refused
    with pytest.raises(InvalidParam) as exc:
        validate_scenario(make_scenario(toa_noise=far))
    assert exc.value.field == "toa_noise.drift_rate"
    # drift_offset refuses a bad field first, then a step below 1, then the reach
    with pytest.raises(InvalidParam) as exc:
        drift_offset(np.array([0, 3]), ToaNoiseModel(drift_reset_period=0))
    assert exc.value.field == "toa_noise.drift_reset_period"
    with pytest.raises(ValueError, match="^step must be >= 1$"):
        drift_offset(np.array([0, 10]), far)


# farthest link: 50 m from the user to the start, plus 9 moves of 5 m
FARTHEST_LINK = 95.0


def exponential_noise_scenario(exponent, amp):
    """The default scenario with exponential noise at exponent d/scale at its farthest link."""
    noise = ToaNoiseModel(kind="exponential", sigma0=1e-8, amp=amp, scale=FARTHEST_LINK / exponent)
    return make_scenario(users=(Vec2(0.0, 40.0),), toa_noise=noise)


# exponents d/scale at the farthest link where sigma_tau^2 is finite and where
# it overflows (amp 0: where exp(d/scale) itself overflows). No accepted
# scenario has an overflowing variance: at amp > 0 both are refused, 13.7 C
# sigma_tau lying beyond LENGTH_MAX long before its square overflows; at amp 0
# sigma_tau is sigma0 at both.
@pytest.mark.parametrize("amp, finite, overflowing", [(1e-9, 370.0, 380.0), (0.0, 700.0, 720.0)])
def test_exponential_noise_variance_finite_up_to_the_farthest_link(amp, finite, overflowing):
    for exponent in (finite, overflowing):
        s = exponential_noise_scenario(exponent, amp)
        if amp:
            with pytest.raises(InvalidParam) as exc:
                validate_scenario(s)
            assert exc.value.field == "toa_noise"
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                validate_scenario(s)
                assert sigma_tau_of_distance(FARTHEST_LINK, s.toa_noise) == s.toa_noise.sigma0


def test_exponential_noise_within_the_length_bound_at_the_farthest_link():
    # 13.7 C sigma_tau there is 5.0e39 m at the exponent 90 and 1.4e40 m at 91
    validate_scenario(exponential_noise_scenario(90.0, 1e-9))
    with pytest.raises(InvalidParam) as exc:
        validate_scenario(exponential_noise_scenario(91.0, 1e-9))
    assert exc.value.field == "toa_noise"


# the exponential law of the README scenario's far-noise copy (tests/test_io.py)
FAR_NOISE = ToaNoiseModel(kind="exponential", sigma0=1e-8, amp=1e-9, scale=2.0)


# One rule decides what a ToA link carries: model.toa_variance. At 1500 m
# exp(d / scale) overflows; at 1000 m sigma is 1.4e208, finite, and only its
# square overflows. The solver's weight, the Fisher block and the planner's
# gain all read the variance, so such a link carries no information in each.
@pytest.mark.parametrize("noise, d, var", [
    (ToaNoiseModel(sigma0=1.25e-8), 50.0, 1.25e-8 * 1.25e-8),
    (FAR_NOISE, 1500.0, np.inf),
    (FAR_NOISE, 1000.0, np.inf),
], ids=["constant", "exp_overflows", "square_overflows"])
def test_toa_variance_decides_what_a_link_carries(noise, d, var):
    uav, user = np.array([0.6 * d, 0.0, 0.8 * d]), np.zeros(2)
    log = MeasurementLog.of([MeasurementSample(1, 1, Vec3(*uav), d / SPEED_OF_LIGHT)])
    cfg = SlamConfig(noise_model=noise, per_distance_weights=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(toa_variance(np.array([d, d]), noise) == var)
        if d == 1000.0:
            assert 1.34e154 < sigma_tau_of_distance(d, noise) < np.inf
        _, w_toa = measurement_weights(residuals(log, np.r_[uav, user]), cfg)
        block = step_contribution(uav, user[None], noise)
        gain = improvement_traces(initial_info(1), uav[None], user[None], noise)
    g = toa_gradient(uav, user)[0][:2]
    assert np.all(w_toa == 1.0 / var)
    np.testing.assert_array_equal(block, [np.outer(g, g) / var])
    assert (gain > 0.0) if var < np.inf else gain.tolist() == [0.0]


FAR = 1.0000001 * LENGTH_MAX


@pytest.mark.parametrize("field, kw", [
    ("users[0]", dict(users=(Vec2(FAR, 0.0),))),
    ("users[0]", dict(users=(Vec2(0.0, -FAR),))),
    ("uav_start", dict(uav_start=Vec3(0, 0, FAR), uav_terminal=Vec3(0, 0, FAR))),
    ("uav_terminal", dict(uav_terminal=Vec3(FAR, 0, 30), d_max=FAR)),
    ("buildings[0]", dict(buildings=(AxisBox(Vec3(0, 0, 0), Vec3(FAR, 1, 1)),))),
    # 9 moves of d_max: the farthest link, not a coordinate, is too long
    ("d_max", dict(d_max=LENGTH_MAX / 8)),
    ("users", dict(users=(Vec2(-LENGTH_MAX, 0.0),), uav_start=Vec3(LENGTH_MAX, 0, 30),
                   uav_terminal=Vec3(LENGTH_MAX, 0, 30))),
])
def test_lengths_beyond_the_bound_rejected(field, kw):
    with pytest.raises(InvalidParam) as exc:
        validate_scenario(make_scenario(**kw))
    assert exc.value.field == field


def test_lengths_at_the_bound_accepted():
    box = AxisBox(Vec3(-1e40, -1e40, 0), Vec3(1e40, 1, 1e40))
    for user in (Vec2(1e40, 0.0), Vec2(0.0, -1e40)):
        # the farthest link, 45 m of moves plus the start-to-user distance,
        # rounds to the bound, 1e40 m
        validate_scenario(make_scenario(users=(user,), buildings=(box,)))


def test_building_corner_order():
    box = AxisBox(Vec3(10, 0, 0), Vec3(5, 5, 5))
    with pytest.raises(InvalidParam):
        validate_scenario(make_scenario(buildings=(box,)))


def test_reachability_is_exact_boundary():
    # Exactly at the budget must validate; fractionally beyond must not.
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        d_max = float(rng.uniform(0.5, 10.0))
        budget = d_max * (n - 1)
        ok = make_scenario(uav_terminal=Vec3(budget, 0, 30),
                           mission_steps=n, d_max=d_max)
        validate_scenario(ok)
        bad = make_scenario(uav_terminal=Vec3(budget * (1 + 1e-9), 0, 30),
                            mission_steps=n, d_max=d_max)
        with pytest.raises(TerminalUnreachable):
            validate_scenario(bad)


# The sites of the flight rule, each as (the moves of d_max it checks a
# distance x against, whether it accepts x) on a 4-step scenario whose lengths
# are `scale` times the README's: uav_start (0, 0, 30), one user (10, -5),
# d_max 5. x is the first coordinate of a point whose distance to the point
# it is checked against is x itself.

def _flight_scenario(scale, terminal_x=0.0):
    return Scenario(users=(Vec2(10.0 * scale, -5.0 * scale),),
                    uav_start=Vec3(0.0, 0.0, 30.0 * scale),
                    uav_terminal=Vec3(terminal_x, 0.0, 30.0 * scale), mission_steps=4,
                    d_max=5.0 * scale, delta_keep=2.0 * scale, sigma_gps=scale,
                    toa_noise=ToaNoiseModel(sigma0=1.25e-8 * scale))


def _terminal_within_budget(scale, x):
    try:
        validate_scenario(_flight_scenario(scale, terminal_x=x))
    except TerminalUnreachable:
        return False
    return True


def _plan_state_pos(scale, x):
    s = _flight_scenario(scale)
    doc = {"step": 1, "pos": [x, 0.0, 30.0 * scale], "fim": [[0.0, 0.0], [0.0, 0.0]],
           "user_estimates": [[10.0 * scale, -5.0 * scale]]}
    try:
        _planner_state(doc, RunConfig(scenario=s, slam=SlamConfig.for_scenario(s)))
    except InvalidParam as exc:
        assert exc.field == "state.pos"
        return False
    return True


def _planner_candidate(scale, x):
    s = _flight_scenario(scale)
    st_ = PlannerState(step=1, pos=s.uav_start.as_array(), terminal=s.uav_terminal.as_array(),
                       mission_steps=s.mission_steps, d_max=s.d_max,
                       info=initial_info(1, default_eps_prior(s.toa_noise.sigma0)),
                       user_estimates=np.array([[10.0 * scale, -5.0 * scale]]),
                       noise_model=s.toa_noise)
    return greedy_cost([x, 0.0, 30.0 * scale], st_) > -np.inf


def _fixed_path(scale, path, refusal):
    try:
        run_mission(_flight_scenario(scale), np.array(path))
    except InvalidParam as exc:
        assert exc.field == "mode" and refusal in str(exc)
        return False
    return True


def _fixed_path_start(scale, x):
    return _fixed_path(scale, [[x, 0.0, 30.0 * scale]] * 4, "start at uav_start")


def _fixed_path_hop(scale, x):
    start, hop = [0.0, 0.0, 30.0 * scale], [x, 0.0, 30.0 * scale]
    return _fixed_path(scale, [start, hop, hop, hop], "d_max")


FLIGHT_RULE_SITES = {"validate_scenario": (3, _terminal_within_budget),
                     "uavloc plan state pos": (3, _plan_state_pos),
                     "planner feasibility": (2, _planner_candidate),
                     "fixed path start": (0, _fixed_path_start),
                     "fixed path hop": (1, _fixed_path_hop)}


def test_the_flight_rule_has_one_owner(monkeypatch):
    """Every site of the flight rule reads model.REACH_SLACK where it applies
    the rule: at the real slack each accepts the last float within its limit
    and refuses the next one, at any length scale; with the slack set to 1e-3
    each accepts 5e-4 of its budget beyond it and refuses 2e-3. A budget of 0
    moves (a fixed path's start) has the slack of one move."""
    for scale in (1e-30, 1e30):
        d_max = 5.0 * scale
        for name, (moves, accepts) in FLIGHT_RULE_SITES.items():
            limit = (d_max * moves) * (1 + REACH_SLACK) if moves else d_max * REACH_SLACK
            assert accepts(scale, limit), (name, scale)
            assert not accepts(scale, np.nextafter(limit, np.inf)), (name, scale)
    monkeypatch.setattr(uavloc.model, "REACH_SLACK", 1e-3)
    for name, (moves, accepts) in FLIGHT_RULE_SITES.items():
        budget, slack = 5.0 * moves, 5.0 * max(moves, 1)
        assert accepts(1.0, budget + 5e-4 * slack), name
        assert not accepts(1.0, budget + 2e-3 * slack), name


# --- MeasurementLog index layout ---

@st.composite
def logs_and_slices(draw):
    """A log in random row order, with repeated steps and non-contiguous
    ids, and a slice of it."""
    ids = st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1, max_size=6, unique=True)
    step_ids, user_ids = draw(ids), draw(ids)
    m = draw(st.integers(0, 25))
    rows = st.lists(st.tuples(st.sampled_from(step_ids), st.sampled_from(user_ids),
                              st.tuples(*[st.floats(-1e3, 1e3)] * 3)), min_size=m, max_size=m)
    step, user_id, gps = zip(*draw(rows)) if m else ((), (), ())
    log = MeasurementLog(step=np.array(step, dtype=np.int64),
                         user_id=np.array(user_id, dtype=np.int64),
                         gps=np.array(gps, dtype=float).reshape(-1, 3), toa=np.zeros(m))
    start, stop = sorted(draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    return log, log[start:stop]


@settings(max_examples=150, deadline=None, database=None)
@given(logs_and_slices())
def test_log_layout_property(logs):
    for log in logs:
        step, user_id = log.step.tolist(), log.user_id.tolist()
        assert log.steps == tuple(sorted(set(step)))
        assert log.user_ids == tuple(sorted(set(user_id)))
        assert all(type(v) is int for v in log.steps + log.user_ids)
        assert [log.steps[p] for p in log.pose] == step
        assert [log.user_ids[u] for u in log.user] == user_id
        # the GPS fix of each step's first row, in row order
        first = {}
        for i, n in enumerate(step):
            first.setdefault(n, i)
        assert log.pose_gps.shape == (len(log.steps), 3)
        for p, n in enumerate(log.steps):
            assert log.pose_gps[p].tolist() == log.gps[first[n]].tolist()


@settings(max_examples=150, deadline=None, database=None)
@given(logs_and_slices())
def test_pair_index_of_a_slice_equals_that_of_a_fresh_log(logs):
    log, part = logs
    fresh = MeasurementLog(step=part.step.copy(), user_id=part.user_id.copy(),
                           gps=part.gps.copy(), toa=part.toa.copy())
    np.testing.assert_array_equal(part.pair_index, fresh.pair_index)
    for each in (log, part):
        # row i's entry e, of its (pose, user) pair's 12, at e * M + i
        K, M = len(each.user_ids), len(each)
        want = [12 * (K * p + u) + e for e in range(12) for p, u in zip(each.pose, each.user)]
        assert each.pair_index.tolist() == want and each.pair_index.shape == (12 * M,)


@settings(max_examples=150, deadline=None, database=None)
@given(logs_and_slices())
def test_pair_first_is_the_first_row_of_each_pair(logs):
    for log in logs:
        # a plain walk: the first row of each (pose, user) pair, listed in (user, pose) order
        first = {}
        for i, pair in enumerate(zip(log.user.tolist(), log.pose.tolist())):
            first.setdefault(pair, i)
        assert log.pair_first.tolist() == [first[pair] for pair in sorted(first)]
        # the first rows of the pairs as a duplicate rule found them by its own np.unique
        _, unique_first = np.unique(log.pose * len(log) + log.user, return_index=True)
        assert sorted(log.pair_first.tolist()) == sorted(unique_first.tolist())
        if not len(log):
            continue
        # range_circle_start's earliest row per user, as a stable sort found it, on
        # the log's first row of each pair, in log order, as a log's rules ask: ids
        # >= 1 (the layout's indices + 1, ordered as the log's ids) and each step's
        # first GPS fix in all its rows
        rows = np.sort(log.pair_first)
        timed = MeasurementLog(log.pose[rows] + 1, log.user[rows] + 1,
                               log.pose_gps[log.pose[rows]],
                               toa=np.arange(len(rows), 0, -1) * 1e-6)
        order = np.argsort(timed.user * len(timed.steps) + timed.pose, kind="stable")
        count = np.bincount(timed.user, minlength=len(timed.user_ids))
        row = order[np.cumsum(count) - count]
        f, ct = timed.pose_gps[timed.pose[row]], SPEED_OF_LIGHT * timed.toa[row]
        want = f[:, :2] + np.sqrt(np.maximum(ct ** 2 - f[:, 2] ** 2, 0.0))[:, None] * [0.6, 0.8]
        assert range_circle_start(timed, np.array([3.0, 4.0])).tobytes() == want.tobytes()


def test_log_layout_computed_once_and_read_only():
    log = MeasurementLog(step=np.array([5, 2, 5]), user_id=np.array([9, 9, 4]),
                         gps=np.arange(9.0).reshape(3, 3), toa=np.zeros(3))
    assert log.pose is log.pose and log.pose_gps is log.pose_gps and log.user is log.user
    assert log.pair_index is log.pair_index and log.pair_first is log.pair_first
    for name in ("steps", "user_ids", "pose", "user", "pose_gps"):
        with pytest.raises(FrozenInstanceError):
            setattr(log, name, None)
    for array in (log.pose, log.user, log.pose_gps, log.pair_index, log.pair_first):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("module", ["model", "errors", "channel", "nrtiming", "fim", "planner",
                                    "slam", "mission"])
def test_a_module_loads_only_what_it_imports(module):
    # The package root re-exports nothing, so the estimator and its data types
    # load neither PyYAML nor the config reader nor the command line.
    src = os.path.dirname(os.path.dirname(uavloc.__file__))
    code = ("import json, sys; import uavloc." + module
            + "; print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert not loaded & {"yaml", "uavloc.iofiles", "uavloc.cli"}
    if module == "model":
        assert {m for m in loaded if m.split(".")[0] == "uavloc"} == {
            "uavloc", "uavloc.model", "uavloc.errors"}
