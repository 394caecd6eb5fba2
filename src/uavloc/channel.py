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


def _crossings(p0, seg, boxes) -> np.ndarray:
    """Whether the open segments p0 + t seg (..., 3), 0 < t < 1, cross a box
    interior, as (...,) booleans: the slab test (Williams et al., JGT 2005)
    on (..., B, 2, 3) arrays of the t at which each segment meets each face."""
    corners = np.array([[b.min_corner.as_array(), b.max_corner.as_array()]
                        for b in boxes]).reshape(-1, 2, 3)
    # parallel to an axis, x / 0 = +-inf leaves t free inside the slab and
    # none outside it (a near-zero component overflows to the same limit); on
    # its boundary 0 / 0 = NaN makes the test below false
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (corners - p0) / seg[..., None, None, :]
    enter, leave = t.min(axis=-2).max(axis=-1), t.max(axis=-2).min(axis=-1)
    return (np.minimum(leave, 1.0) > np.maximum(enter, 0.0)).any(axis=-1)


def is_blocked(uav, users, boxes):
    """Whether the open UAV-user segments cross a box interior: a bool for one
    user (2,), (...,) booleans for users (..., 2). Grazing a face or edge is
    no blockage, and a segment parallel to an axis must lie strictly inside
    that axis's slab. A zero-length link raises DegenerateGeometry."""
    p0 = _as_array(uav)
    blocked = _crossings(p0, -link_geometry(p0, _as_array(users))[0], boxes)
    return blocked if blocked.ndim else bool(blocked)


def sample_toa(uav, users, m: ToaNoiseModel, boxes, rng: RngStream):
    """Noisy LoS delays of one step's links in seconds, clamped at >= 0: a
    float for one user (2,), (K,) for users (K, 2). The K Gaussian noise
    draws come first; then, only if m.nlos_scale > 0, each link the boxes
    block draws, in user order, a half-normal excess delay of scale
    m.nlos_scale."""
    p0, users = _as_array(uav), _as_array(users)
    diff, d = link_geometry(p0, users.reshape(-1, 2))
    tau = d / SPEED_OF_LIGHT
    # sigma at the distance the delay gives back, as samples were always drawn
    val = tau + sigma_tau_of_distance(tau * SPEED_OF_LIGHT, m) * rng.standard_normal(len(d))
    if m.nlos_scale > 0:
        blocked = _crossings(p0, -diff, boxes)
        val[blocked] += np.abs(rng.normal(0.0, m.nlos_scale, np.count_nonzero(blocked)))
    val = np.maximum(val, 0.0)
    return val if users.ndim > 1 else float(val[0])


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
