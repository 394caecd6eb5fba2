"""Synthetic GPS and ToA measurement generation.

Covers the LoS delay model, Gaussian GPS noise, the distance-dependent
delay-noise model, segment/box blockage tests, and the delta-distance
sparsification rule. All randomness flows through RngStream so a fixed seed
reproduces the full measurement sequence bit-identically.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometry
from .model import SPEED_OF_LIGHT, ToaNoiseModel, Vec2, Vec3


class RngStream:
    """Deterministic PCG64-backed random stream.

    Gaussian draws use numpy's Generator (ziggurat standard normal); the
    algorithm is fixed by pinning PCG64, so the same seed always yields the
    same sequence.
    """

    def __init__(self, seed):
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)


def _as_array(p) -> np.ndarray:
    return p.as_array() if isinstance(p, (Vec2, Vec3)) else np.asarray(p, dtype=float)


def link_geometry(uav, users):
    """Difference vectors and lengths of UAV-to-user links, users lifted to z = 0.

    uav (M, 3) and users (M, 2) broadcast over their leading axes, so one UAV
    position may face K users. Returns diff = uav - (user, 0) of shape (M, 3)
    and d = ||diff|| of shape (M,). Raises DegenerateGeometry if any d == 0.
    """
    users = np.asarray(users, dtype=float)
    lifted = np.concatenate([users, np.zeros(users.shape[:-1] + (1,))], axis=-1)
    diff = np.asarray(uav, dtype=float) - lifted
    d = np.sqrt(np.vecdot(diff, diff))
    if (d == 0.0).any():
        raise DegenerateGeometry("zero UAV-user distance")
    return diff, d


def los_delay(uav, user) -> float:
    """True LoS propagation delay ||uav - user|| / C in seconds."""
    return float(link_geometry(_as_array(uav), _as_array(user))[1]) / SPEED_OF_LIGHT


def sample_gps(true_pos, sigma_gps: float, rng: RngStream) -> np.ndarray:
    """GPS fix: true position plus N(0, sigma_gps^2 I3) noise."""
    return _as_array(true_pos) + sigma_gps * rng.standard_normal(3)


def sigma_tau_of_distance(d: float, m: ToaNoiseModel) -> float:
    """Delay-noise std at link distance d (meters); d may be an array."""
    if m.kind == "exponential":
        return m.sigma0 + m.amp * np.exp(d / m.scale)
    return m.sigma0


def is_blocked(uav, user, boxes) -> bool:
    """True iff the open UAV-user segment crosses any box interior.

    Standard slab test; grazing contact with a face or edge does not count
    as blockage. A zero-length link raises DegenerateGeometry, as in
    los_delay.
    """
    p0 = _as_array(uav)
    d = -link_geometry(p0, _as_array(user))[0]
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


def sample_toa(uav, user, m: ToaNoiseModel, blocked: bool, rng: RngStream) -> float:
    """Noisy LoS delay estimate in seconds, clamped at >= 0.

    Blocked links get an extra half-normal excess delay of scale
    m.nlos_scale on top of the Gaussian estimation noise.
    """
    tau = los_delay(uav, user)
    d = tau * SPEED_OF_LIGHT
    val = tau + sigma_tau_of_distance(d, m) * rng.standard_normal()
    if blocked and m.nlos_scale > 0:
        val += abs(rng.normal(0.0, m.nlos_scale))
    return max(val, 0.0)


def sparsify(positions, delta: float) -> list[int]:
    """Greedy distance filter over a position sequence.

    Keeps index 0, then keeps an index iff its position is at least `delta`
    meters from the last kept one. Returns 0-based indices.
    """
    pos = np.asarray(positions, dtype=float)
    if len(pos) == 0:
        raise ValueError("positions must be nonempty")
    kept = [0]
    for i in range(1, len(pos)):
        if np.linalg.norm(pos[i] - pos[kept[-1]]) >= delta:
            kept.append(i)
    return kept
