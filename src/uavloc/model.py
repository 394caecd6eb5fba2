"""Domain types and scenario validation.

All geometry is local Cartesian meters (z up), delays are seconds held as
double-precision reals. Users live on the ground plane (2D), the UAV in 3D.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

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


def sigma_tau_of_distance(d: float, m: ToaNoiseModel) -> float:
    """Delay-noise std at link distance d (meters); d may be an array."""
    if m.kind == "exponential":
        return m.sigma0 + m.amp * np.exp(d / m.scale)
    return m.sigma0


@dataclass(frozen=True)
class MeasurementSample:
    """One measurement tuple: GPS-reported UAV position plus the estimated
    LoS delay for user `user_id` at mission step `step` (both 1-based)."""
    step: int
    user_id: int
    gps_pos: Vec3
    toa: float  # seconds


@dataclass(frozen=True, eq=False)
class MeasurementLog(Sequence):
    """A measurement set as columns, one row per MeasurementSample.

    step and user_id are (M,) int64, gps (M, 3) and toa (M,) floats. As a
    sequence, an integer index gives the row's MeasurementSample (plain
    Python scalars) and a slice gives a MeasurementLog of views.

    The index layout is read-only and computed on first access, then kept:
    steps and user_ids, the sorted distinct values as tuples of int; pose
    and user (M,), each row's index into them; pose_gps (S, 3), the GPS fix
    of each step's first row; and pair_index (12 M,), the solver's bincount
    index of 12 entries per row, 12 (K pose + user) + e for entry e, laid
    out entry-major. So the columns must not change once the layout has
    been read.
    """
    step: np.ndarray
    user_id: np.ndarray
    gps: np.ndarray
    toa: np.ndarray

    @cached_property
    def _layout(self):
        steps, first, pose = np.unique(self.step, return_index=True, return_inverse=True)
        user_ids, user = np.unique(self.user_id, return_inverse=True)
        pose_gps = self.gps[first]
        pose.flags.writeable = user.flags.writeable = pose_gps.flags.writeable = False
        return tuple(steps.tolist()), tuple(user_ids.tolist()), pose, user, pose_gps

    steps = property(lambda self: self._layout[0])
    user_ids = property(lambda self: self._layout[1])
    pose = property(lambda self: self._layout[2])
    user = property(lambda self: self._layout[3])
    pose_gps = property(lambda self: self._layout[4])

    @cached_property
    def pair_index(self):
        pair = 12 * (len(self.user_ids) * self.pose + self.user) + np.arange(12)[:, None]
        pair = pair.ravel()
        pair.flags.writeable = False
        return pair

    @classmethod
    def of(cls, measurements) -> MeasurementLog:
        """A MeasurementLog unchanged; any other iterable of MeasurementSample
        as the columns of its rows, in order."""
        if isinstance(measurements, cls):
            return measurements
        rows = list(measurements)
        return cls(step=np.array([m.step for m in rows], dtype=np.int64),
                   user_id=np.array([m.user_id for m in rows], dtype=np.int64),
                   gps=np.array([(m.gps_pos.x, m.gps_pos.y, m.gps_pos.z) for m in rows],
                                dtype=float).reshape(-1, 3),
                   toa=np.array([m.toa for m in rows], dtype=float))

    def __len__(self):
        return len(self.toa)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MeasurementLog(self.step[index], self.user_id[index], self.gps[index],
                                  self.toa[index])
        i = operator.index(index)
        return MeasurementSample(step=int(self.step[i]), user_id=int(self.user_id[i]),
                                 gps_pos=Vec3(*self.gps[i].tolist()), toa=float(self.toa[i]))


@dataclass(frozen=True)
class Scenario:
    """World description for one simulated mission."""
    users: tuple[Vec2, ...]
    uav_start: Vec3
    uav_terminal: Vec3
    mission_steps: int
    d_max: float = 5.0            # meters per step
    delta_keep: float = 2.0       # keep distance of retained steps, meters
    sigma_gps: float = 1.0        # meters
    toa_noise: ToaNoiseModel = field(default_factory=ToaNoiseModel)
    numerology: int = 1
    sample_rate: float = 61.44e6  # Hz
    buildings: tuple[AxisBox, ...] = ()
    seed: int = 0


# Relative slack on a distance checked against d_max: the start-to-terminal
# budget here and each hop of a fixed mission path.
REACH_SLACK = 1e-12


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise InvalidParam(name, "must be finite")


def require_number(name, value, low, strict=False):
    """value if it is a real number within the range of a float, not a bool,
    > low (strict) or >= low; else InvalidParam(name)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and ((low < value) if strict else (low <= value)) and value <= sys.float_info.max):
        raise InvalidParam(name, f"must be finite and {'>' if strict else '>='} {low}")
    return value


def require_int(name, value, low):
    """value if it is an integer, not a bool, >= low; else InvalidParam(name)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low):
        raise InvalidParam(name, f"must be an integer >= {low}")
    return value


def require_numerology(mu):
    """mu if it is an NR numerology, an integer in 0..5; else InvalidParam."""
    if require_int("numerology", mu, 0) > 5:
        raise InvalidParam("numerology", "must be in 0..5")
    return mu


def validate_scenario(s: Scenario) -> Scenario:
    """Check every scenario invariant; return s unchanged if all hold."""
    if len(s.users) < 1:
        raise InvalidParam("users", "need at least one user")
    for i, u in enumerate(s.users):
        _require_finite(f"users[{i}]", u.x, u.y)
    _require_finite("uav_start", s.uav_start.x, s.uav_start.y, s.uav_start.z)
    _require_finite("uav_terminal", s.uav_terminal.x, s.uav_terminal.y, s.uav_terminal.z)
    require_int("mission_steps", s.mission_steps, 2)
    require_number("d_max", s.d_max, 0, strict=True)
    require_number("delta_keep", s.delta_keep, 0)
    require_number("sigma_gps", s.sigma_gps, 0, strict=True)
    require_numerology(s.numerology)
    require_number("sample_rate", s.sample_rate, 0, strict=True)
    require_int("seed", s.seed, 0)

    m = s.toa_noise
    if m.kind not in ("constant", "exponential"):
        raise InvalidParam("toa_noise.kind", "must be 'constant' or 'exponential'")
    require_number("toa_noise.sigma0", m.sigma0, 0, strict=True)
    if m.kind == "exponential":
        require_number("toa_noise.amp", m.amp, 0)
        require_number("toa_noise.scale", m.scale, 0, strict=True)
    require_number("toa_noise.drift_rate", m.drift_rate, 0)
    require_int("toa_noise.drift_reset_period", m.drift_reset_period, 1)
    require_number("toa_noise.nlos_scale", m.nlos_scale, 0)

    for i, box in enumerate(s.buildings):
        lo, hi = box.min_corner.as_array(), box.max_corner.as_array()
        _require_finite(f"buildings[{i}]", *lo, *hi)
        if not np.all(lo <= hi):
            raise InvalidParam(f"buildings[{i}]", "min_corner must be <= max_corner")

    dist = float(np.linalg.norm(s.uav_start.as_array() - s.uav_terminal.as_array()))
    budget = s.d_max * (s.mission_steps - 1)
    if dist > budget * (1.0 + REACH_SLACK):
        raise TerminalUnreachable(
            f"start-terminal distance {dist:.6g} m exceeds d_max*(N-1) = {budget:.6g} m")
    if m.kind == "exponential":
        # no UAV position of the mission is farther from a user than this
        reach = budget + max(math.dist(s.uav_start.as_array(), (u.x, u.y, 0.0))
                             for u in s.users)
        # an overflowed exp gives inf, or NaN where amp is 0; both are refused
        with np.errstate(over="ignore", invalid="ignore"):
            variance = sigma_tau_of_distance(reach, m) ** 2  # as the solver and FIM use it
        if not math.isfinite(variance):
            raise InvalidParam("toa_noise", f"(sigma0 + amp*exp(d/scale))^2 is not finite at "
                               f"d = {reach:.6g} m, the farthest link the mission allows")
    return s
