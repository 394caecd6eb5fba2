from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc.errors import InvalidParam, TerminalUnreachable
from uavloc.model import (AxisBox, MeasurementLog, Scenario, ToaNoiseModel, Vec2, Vec3,
                          validate_scenario)


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


# exponents d/scale at the farthest link: the variance is finite at the
# first and overflows at the second (amp 0: exp(d/scale) itself overflows)
@pytest.mark.parametrize("amp, finite, overflowing", [(1e-9, 370.0, 380.0), (0.0, 700.0, 720.0)])
def test_exponential_noise_variance_finite_up_to_the_farthest_link(amp, finite, overflowing):
    # farthest link: 50 m from the user to the start, plus 9 moves of 5 m
    def scenario(exponent):
        noise = ToaNoiseModel(kind="exponential", sigma0=1e-8, amp=amp, scale=95.0 / exponent)
        return make_scenario(users=(Vec2(0.0, 40.0),), toa_noise=noise)
    validate_scenario(scenario(finite))
    with pytest.raises(InvalidParam) as exc:
        validate_scenario(scenario(overflowing))
    assert exc.value.field == "toa_noise"


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
def test_a_given_layout_is_read_as_the_derived_one(logs):
    # with_layout takes the layout in the format the log derives: the same
    # entries, read-only, and then nothing is derived
    for log in logs:
        derived = MeasurementLog(log.step, log.user_id, log.gps, log.toa)
        given_ = log[:].with_layout(list(derived.steps), list(derived.user_ids),
                                    derived.pose.copy(), derived.user.copy(),
                                    derived.pose_gps.copy())
        assert given_.steps == derived.steps and given_.user_ids == derived.user_ids
        for name in ("pose", "user", "pose_gps", "pair_index"):
            got = getattr(given_, name)
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, getattr(derived, name))


def test_a_layout_cannot_be_given_once_read():
    log = MeasurementLog(step=np.array([5, 2, 5]), user_id=np.array([9, 9, 4]),
                         gps=np.arange(9.0).reshape(3, 3), toa=np.zeros(3))
    log.pose
    with pytest.raises(ValueError, match="already been read"):
        log.with_layout([2, 5], [4, 9], np.array([1, 0, 1]), np.array([1, 1, 0]),
                        log.gps[[1, 0]])


def test_log_layout_computed_once_and_read_only():
    log = MeasurementLog(step=np.array([5, 2, 5]), user_id=np.array([9, 9, 4]),
                         gps=np.arange(9.0).reshape(3, 3), toa=np.zeros(3))
    assert log.pose is log.pose and log.pose_gps is log.pose_gps and log.user is log.user
    assert log.pair_index is log.pair_index
    for name in ("steps", "user_ids", "pose", "user", "pose_gps"):
        with pytest.raises(FrozenInstanceError):
            setattr(log, name, None)
    for array in (log.pose, log.user, log.pose_gps, log.pair_index):
        with pytest.raises(ValueError):
            array[0] = 0
