"""Domain types and scenario validation.

All geometry is local Cartesian meters (z up), delays are seconds held as
double-precision reals. Users live on the ground plane (2D), the UAV in 3D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam, TerminalUnreachable

SPEED_OF_LIGHT = 299792458.0  # m/s, exact


@dataclass(frozen=True)
class Vec3:
    """3D position in meters."""
    x: float
    y: float
    z: float

    def as_array(self):
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class Vec2:
    """2D ground position in meters."""
    x: float
    y: float

    def as_array(self):
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned building volume used for LoS blockage checks."""
    min_corner: Vec3
    max_corner: Vec3


@dataclass(frozen=True)
class ToaNoiseModel:
    """Delay-estimate noise configuration.

    kind "constant": sigma_tau(d) = sigma0.
    kind "exponential": sigma_tau(d) = sigma0 + amp * exp(d / scale).

    drift_rate is the sawtooth clock-drift ramp in seconds of accumulated
    offset per mission step; the ramp resets every drift_reset_period steps.
    nlos_scale is the half-normal scale (seconds) of the nonnegative excess
    delay added when the link is blocked.
    """
    kind: str = "constant"
    sigma0: float = 1.25e-8
    amp: float = 0.0
    scale: float = 100.0
    drift_rate: float = 0.0
    drift_reset_period: int = 1
    nlos_scale: float = 0.0


@dataclass(frozen=True)
class MeasurementSample:
    """One measurement tuple: GPS-reported UAV position plus the estimated
    LoS delay for user `user_id` at mission step `step` (both 1-based)."""
    step: int
    user_id: int
    gps_pos: Vec3
    toa: float  # seconds


@dataclass(frozen=True)
class Scenario:
    """World description for one simulated mission."""
    users: tuple[Vec2, ...]
    uav_start: Vec3
    uav_terminal: Vec3
    mission_steps: int
    d_max: float = 5.0            # meters per step
    delta_keep: float = 2.0       # sparsification distance, meters
    sigma_gps: float = 1.0        # meters
    toa_noise: ToaNoiseModel = field(default_factory=ToaNoiseModel)
    numerology: int = 1
    sample_rate: float = 61.44e6  # Hz
    buildings: tuple[AxisBox, ...] = ()
    seed: int = 0


# Relative slack for the exact reachability check.
_REACH_SLACK = 1e-12


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise InvalidParam(name, "must be finite")


def validate_scenario(s: Scenario) -> Scenario:
    """Check every scenario invariant; return s unchanged if all hold."""
    if len(s.users) < 1:
        raise InvalidParam("users", "need at least one user")
    for i, u in enumerate(s.users):
        _require_finite(f"users[{i}]", u.x, u.y)
    _require_finite("uav_start", s.uav_start.x, s.uav_start.y, s.uav_start.z)
    _require_finite("uav_terminal", s.uav_terminal.x, s.uav_terminal.y, s.uav_terminal.z)
    if s.mission_steps < 2:
        raise InvalidParam("mission_steps", "must be >= 2")
    if not (s.d_max > 0 and math.isfinite(s.d_max)):
        raise InvalidParam("d_max", "must be > 0")
    if not (s.delta_keep >= 0 and math.isfinite(s.delta_keep)):
        raise InvalidParam("delta_keep", "must be >= 0")
    if not (s.sigma_gps > 0 and math.isfinite(s.sigma_gps)):
        raise InvalidParam("sigma_gps", "must be > 0")
    if s.numerology not in (0, 1, 2, 3, 4, 5):
        raise InvalidParam("numerology", "must be in 0..5")
    if not (s.sample_rate > 0 and math.isfinite(s.sample_rate)):
        raise InvalidParam("sample_rate", "must be > 0")

    m = s.toa_noise
    if m.kind not in ("constant", "exponential"):
        raise InvalidParam("toa_noise.kind", "must be 'constant' or 'exponential'")
    if not (m.sigma0 > 0 and math.isfinite(m.sigma0)):
        raise InvalidParam("toa_noise.sigma0", "must be > 0")
    if m.kind == "exponential":
        if not (m.amp >= 0 and math.isfinite(m.amp)):
            raise InvalidParam("toa_noise.amp", "must be >= 0")
        if not (m.scale > 0 and math.isfinite(m.scale)):
            raise InvalidParam("toa_noise.scale", "must be > 0")
    if not (m.drift_rate >= 0 and math.isfinite(m.drift_rate)):
        raise InvalidParam("toa_noise.drift_rate", "must be >= 0")
    if m.drift_reset_period < 1:
        raise InvalidParam("toa_noise.drift_reset_period", "must be >= 1")
    if not (m.nlos_scale >= 0 and math.isfinite(m.nlos_scale)):
        raise InvalidParam("toa_noise.nlos_scale", "must be >= 0")

    for i, box in enumerate(s.buildings):
        lo, hi = box.min_corner.as_array(), box.max_corner.as_array()
        _require_finite(f"buildings[{i}]", *lo, *hi)
        if not np.all(lo <= hi):
            raise InvalidParam(f"buildings[{i}]", "min_corner must be <= max_corner")

    dist = float(np.linalg.norm(s.uav_start.as_array() - s.uav_terminal.as_array()))
    budget = s.d_max * (s.mission_steps - 1)
    if dist > budget * (1.0 + _REACH_SLACK):
        raise TerminalUnreachable(
            f"start-terminal distance {dist:.6g} m exceeds d_max*(N-1) = {budget:.6g} m")
    return s
