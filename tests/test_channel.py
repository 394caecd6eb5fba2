import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavloc import channel
from uavloc.channel import (RngStream, is_blocked, link_geometry, los_delay,
                            sample_gps, sample_toa, sigma_tau_of_distance,
                            sparsify)
from uavloc.errors import DegenerateGeometry
from uavloc.model import SPEED_OF_LIGHT as C
from uavloc.model import AxisBox, ToaNoiseModel, Vec2, Vec3


# --- los_delay ---

def test_los_delay_345_triangle():
    assert los_delay(Vec3(0, 0, 30), Vec2(0, 40)) == pytest.approx(50 / C, rel=1e-15)


def test_los_delay_vertical():
    assert los_delay(Vec3(0, 0, 100), Vec2(0, 0)) == pytest.approx(100 / C, rel=1e-15)


def test_los_delay_3_4_12_13():
    assert los_delay(Vec3(3, 4, 12), Vec2(0, 0)) == pytest.approx(13 / C, rel=1e-15)


def test_los_delay_degenerate():
    with pytest.raises(DegenerateGeometry):
        los_delay(Vec3(1, 2, 0), Vec2(1, 2))


def test_los_delay_translation_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        uav = rng.uniform(-100, 100, 3)
        uav[2] = abs(uav[2]) + 1
        user = rng.uniform(-100, 100, 2)
        base = los_delay(uav, user)
        shift = rng.uniform(-50, 50, 2)
        shifted = los_delay(uav + np.r_[shift, 0.0], user + shift)
        assert shifted == pytest.approx(base, rel=1e-12)
        s = float(rng.uniform(0.1, 10))
        assert los_delay(uav * s, user * s) == pytest.approx(base * s, rel=1e-12)


# --- sample_gps ---

def test_gps_zero_noise_limit():
    rng = RngStream(1)
    out = sample_gps(Vec3(1, 2, 3), 1e-300, rng)
    np.testing.assert_allclose(out, [1, 2, 3], atol=1e-290)


def test_gps_variance_monte_carlo():
    # Per-axis sample variance of 1e5 unit-sigma draws must be 1 +- 0.02.
    rng = RngStream(123)
    draws = np.array([sample_gps(Vec3(0, 0, 0), 1.0, rng) for _ in range(100_000)])
    var = draws.var(axis=0)
    np.testing.assert_allclose(var, 1.0, atol=0.02)


def test_gps_seed_determinism():
    a = sample_gps(Vec3(5, 5, 5), 2.0, RngStream(42))
    b = sample_gps(Vec3(5, 5, 5), 2.0, RngStream(42))
    np.testing.assert_array_equal(a, b)


# --- sigma_tau_of_distance ---

def test_sigma_constant():
    m = ToaNoiseModel(kind="constant", sigma0=1e-8)
    assert sigma_tau_of_distance(500.0, m) == 1e-8


def test_sigma_exponential_at_zero():
    m = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=1e-9, scale=100.0)
    assert sigma_tau_of_distance(0.0, m) == pytest.approx(6e-9, rel=1e-15)


def test_sigma_exponential_at_scale():
    m = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=1e-9, scale=100.0)
    expected = 5e-9 + 1e-9 * math.e  # direct evaluation oracle
    assert sigma_tau_of_distance(100.0, m) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(7.71828e-9, rel=1e-5)


def test_sigma_nondecreasing():
    m = ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=1e-9, scale=100.0)
    d = np.linspace(0, 1000, 200)
    vals = [sigma_tau_of_distance(x, m) for x in d]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# --- is_blocked ---

def blocked_oracle(uav, user, box, samples=200_001):
    """Dense sampling of the open segment against the strict box interior."""
    p0 = np.asarray(uav, dtype=float)
    p1 = np.array([user[0], user[1], 0.0])
    t = np.linspace(0, 1, samples)[1:-1]
    pts = p0 + t[:, None] * (p1 - p0)
    lo = box.min_corner.as_array()
    hi = box.max_corner.as_array()
    inside = np.all((pts > lo) & (pts < hi), axis=1)
    return bool(inside.any())


def test_no_boxes_never_blocked():
    assert not is_blocked(Vec3(0, 0, 30), Vec2(20, 0), [])


def test_blocked_through_building():
    box = AxisBox(Vec3(5, -5, 0), Vec3(15, 5, 50))
    assert blocked_oracle((0, 0, 30), (20, 0), box)
    assert is_blocked(Vec3(0, 0, 30), Vec2(20, 0), [box])


def test_high_uav_same_building_matches_oracle():
    # Spec leaves this case to the oracle: the segment from (0,0,100) dips
    # below z=50 inside the slab x in [10,15], so it IS blocked.
    box = AxisBox(Vec3(5, -5, 0), Vec3(15, 5, 50))
    expected = blocked_oracle((0, 0, 100), (20, 0), box)
    assert expected is True
    assert is_blocked(Vec3(0, 0, 100), Vec2(20, 0), [box]) == expected


def test_is_blocked_random_against_oracle():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(100):
        uav = rng.uniform(-50, 50, 3)
        uav[2] = rng.uniform(10, 120)
        user = rng.uniform(-50, 50, 2)
        lo = rng.uniform(-40, 30, 3)
        lo[2] = 0.0
        hi = lo + rng.uniform(1, 40, 3)
        box = AxisBox(Vec3(*lo), Vec3(*hi))
        got = is_blocked(uav, Vec2(*user), [box])
        want = blocked_oracle(uav, user, box, samples=20_001)
        # dense sampling can miss razor-thin crossings, never invent them
        if got != want:
            assert got and not want
            mismatches += 1
    assert mismatches <= 2


@np.errstate(over="ignore")  # a near-zero link component overflows t to its limit
def scalar_is_blocked(uav, user, boxes) -> bool:
    """Reference slab test, one link and one box at a time."""
    p0 = np.asarray(uav, dtype=float)
    d = -link_geometry(p0, np.asarray(user, dtype=float))[0]
    for box in boxes:
        lo = box.min_corner.as_array()
        hi = box.max_corner.as_array()
        t0, t1 = 0.0, 1.0
        hit = True
        for i in range(3):
            if d[i] == 0.0:
                if not (lo[i] < p0[i] < hi[i]):
                    hit = False
                    break
            else:
                ta = (lo[i] - p0[i]) / d[i]
                tb = (hi[i] - p0[i]) / d[i]
                if ta > tb:
                    ta, tb = tb, ta
                t0 = max(t0, ta)
                t1 = min(t1, tb)
                if t1 <= t0:
                    hit = False
                    break
        if hit and t1 > t0:
            return True
    return False


UNIT_BOX = AxisBox(Vec3(0, 0, 0), Vec3(1, 1, 1))


@pytest.mark.parametrize("uav, user, expected", [
    ((0.5, 0.5, 2.0), (0.5, 0.5), True),     # vertical, through the roof
    ((0.0, 0.5, 2.0), (0.0, 0.5), False),    # vertical, down a face
    ((0.0, 0.0, 2.0), (0.0, 0.0), False),    # vertical, down an edge
    ((-1.0, 0.5, 3.0), (2.0, 0.5), False),   # grazes the top edge at x = 1
    ((-1.0, 1.0, 0.5), (2.0, 1.0), False),   # slides along the y = 1 face
    ((-1.0, 0.5, 0.5), (2.0, 0.5), True),    # enters through a face
    ((2.0, 0.5, 0.5), (0.5, 0.5), True),     # ends on the floor, inside
    ((0.5, 0.5, 1.0), (0.5, 0.5), True),     # starts on the roof
    ((1.0, 0.5, 0.5), (3.0, 0.5), False),    # starts on a face, leaves
    ((3.0, 0.5, 1.0), (1.0, 0.5), False),    # ends on an edge of the floor
])
def test_is_blocked_boundary_cases(uav, user, expected):
    assert is_blocked(uav, user, [UNIT_BOX]) is expected
    assert scalar_is_blocked(uav, user, [UNIT_BOX]) is expected


# small integers make faces, edges and axis-parallel links common
coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.5, 3.5))


@st.composite
def boxes(draw):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = [], []
        for _ in range(3):
            a = draw(coord)
            b = draw(coord.filter(lambda v: v != a))
            lo.append(min(a, b))
            hi.append(max(a, b))
        out.append(AxisBox(Vec3(*lo), Vec3(*hi)))
    return out


@settings(max_examples=200, deadline=None, database=None)
@given(uav=st.tuples(coord, coord, coord), users=st.lists(st.tuples(coord, coord),
       min_size=1, max_size=5), bx=boxes())
# along a face; along the floor (a slab boundary); down a face and an edge
@example(uav=(0.0, 0.0, 1.0), users=[(2.0, 0.0)], bx=[UNIT_BOX])
@example(uav=(0.5, 0.5, 0.0), users=[(2.0, 0.5), (0.5, 3.0)], bx=[UNIT_BOX])
@example(uav=(1.0, 0.0, 2.0), users=[(1.0, 0.0), (1.0, 1.0)], bx=[UNIT_BOX])
def test_is_blocked_equals_scalar_slab_loop(uav, users, bx):
    users = np.array(users)
    try:
        want = [scalar_is_blocked(uav, user, bx) for user in users]
    except DegenerateGeometry:  # a link of zero length, or one that squares to 0
        with pytest.raises(DegenerateGeometry):
            is_blocked(uav, users, bx)
        return
    got = is_blocked(uav, users, bx)
    assert got.shape == (len(users),)
    for k, user in enumerate(users):
        single = is_blocked(uav, user, bx)
        assert type(single) is bool
        assert got[k] == single == want[k]


def test_is_blocked_broadcasts_over_leading_axes():
    rng = np.random.default_rng(9)
    users = rng.uniform(-3, 3, (4, 5, 2))
    box = AxisBox(Vec3(-1, -1, 0), Vec3(1, 1, 2))
    got = is_blocked((0.0, 0.0, 3.0), users, [box])
    assert got.shape == (4, 5)
    assert got.tolist() == [[scalar_is_blocked((0.0, 0.0, 3.0), u, [box]) for u in row]
                            for row in users]


def test_is_blocked_degenerate_link():
    with pytest.raises(DegenerateGeometry):
        is_blocked(Vec3(1, 2, 0), [[5.0, 5.0], [1.0, 2.0]], [])


# --- sample_toa ---

def test_toa_noiseless_limit():
    m = ToaNoiseModel(kind="constant", sigma0=0.0)  # limit case, bypasses validation
    rng = RngStream(3)
    assert sample_toa(Vec3(0, 0, 30), Vec2(0, 40), m, [], rng) == los_delay(
        Vec3(0, 0, 30), Vec2(0, 40))


def test_toa_noise_std_monte_carlo():
    m = ToaNoiseModel(kind="constant", sigma0=1e-8)
    rng = RngStream(11)
    tau0 = los_delay(Vec3(0, 0, 30), Vec2(0, 40))
    draws = sample_toa(Vec3(0, 0, 30), np.tile([0.0, 40.0], (100_000, 1)), m, [], rng)
    assert draws.std() == pytest.approx(1e-8, rel=0.02)
    assert draws.mean() == pytest.approx(tau0, abs=3e-10)


def test_toa_nlos_bias_mean():
    # half-normal mean = scale * sqrt(2/pi); pick scale so the mean is 5e-8
    scale = 5e-8 / math.sqrt(2 / math.pi)
    m = ToaNoiseModel(kind="constant", sigma0=1e-10, nlos_scale=scale)
    box = AxisBox(Vec3(-5, 15, 0), Vec3(5, 25, 50))  # blocks the link
    assert is_blocked(Vec3(0, 0, 30), Vec2(0, 40), [box])
    rng = RngStream(12)
    tau0 = los_delay(Vec3(0, 0, 30), Vec2(0, 40))
    draws = sample_toa(Vec3(0, 0, 30), np.tile([0.0, 40.0], (100_000, 1)), m, [box], rng)
    assert draws.mean() - tau0 == pytest.approx(5e-8, rel=0.02)


def test_toa_never_negative():
    m = ToaNoiseModel(kind="constant", sigma0=1e-3)  # absurd noise forces clamping
    rng = RngStream(13)
    draws = [sample_toa(Vec3(0, 0, 30), Vec2(0, 40), m, [], rng) for _ in range(1000)]
    assert min(draws) == 0.0
    assert all(d >= 0 for d in draws)


STEP_USERS = np.array([[10.0, -5.0], [-20.0, 15.0], [30.0, 2.0], [0.5, 0.5], [-8.0, -30.0]])
WALL = AxisBox(Vec3(5, -10, 0), Vec3(8, 10, 40))  # blocks the links to users 1 and 3


@pytest.mark.parametrize("m, boxes", [
    (ToaNoiseModel(kind="constant", sigma0=1e-8), []),
    (ToaNoiseModel(kind="constant", sigma0=1e-8), [WALL]),  # blocked, no NLoS excess
    (ToaNoiseModel(kind="constant", sigma0=1e-8, nlos_scale=3e-8), []),
    (ToaNoiseModel(kind="exponential", sigma0=5e-9, amp=2e-9, scale=40.0), [WALL]),
])
def test_sample_toa_step_equals_single_user_calls(m, boxes):
    uav = np.array([0.0, 0.0, 30.0])
    assert is_blocked(uav, STEP_USERS, [WALL]).tolist() == [True, False, True, False, False]
    rng_a, rng_b = RngStream(21), RngStream(21)
    for _ in range(3):
        step = sample_toa(uav, STEP_USERS, m, boxes, rng_a)
        singles = [sample_toa(uav, u, m, boxes, rng_b) for u in STEP_USERS]
        assert all(type(v) is float for v in singles)
        np.testing.assert_array_equal(step, singles)


def test_sample_toa_draws_excess_delays_after_the_gaussian_draws():
    m = ToaNoiseModel(kind="constant", sigma0=1e-8, nlos_scale=3e-8)
    uav = np.array([0.0, 0.0, 30.0])
    step = sample_toa(uav, STEP_USERS, m, [WALL], RngStream(22))
    rng = RngStream(22)
    want = (np.linalg.norm(uav - np.c_[STEP_USERS, np.zeros(5)], axis=1) / C
            + 1e-8 * rng.standard_normal(5))
    want[[0, 2]] += np.abs(rng.normal(0.0, 3e-8, 2))
    np.testing.assert_array_equal(step, np.maximum(want, 0.0))


def test_sample_toa_runs_no_slab_test_without_nlos(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("slab test run with nlos_scale == 0")
    monkeypatch.setattr(channel, "is_blocked", refuse)
    monkeypatch.setattr(channel, "_crossings", refuse)
    m = ToaNoiseModel(kind="constant", sigma0=1e-8)
    assert sample_toa(Vec3(0, 0, 30), STEP_USERS, m, [WALL], RngStream(23)).shape == (5,)


# --- sparsify ---

def test_sparsify_delta_zero_keeps_all():
    pos = np.random.default_rng(0).uniform(0, 10, (20, 3))
    assert sparsify(pos, 0.0) == list(range(20))


def test_sparsify_line_every_second():
    pos = np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)])
    assert sparsify(pos, 2.0) == [0, 2, 4, 6, 8]


def test_sparsify_random_walk_spacing():
    rng = np.random.default_rng(2)
    pos = np.cumsum(rng.normal(0, 1.5, (200, 3)), axis=0)
    kept = sparsify(pos, 2.0)
    assert kept[0] == 0
    assert kept == sorted(set(kept))  # subsequence of input indices
    for a, b in zip(kept, kept[1:]):
        assert np.linalg.norm(pos[b] - pos[a]) >= 2.0
