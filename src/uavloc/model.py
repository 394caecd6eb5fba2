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
    sigma0: float = 1.25e-8  # the unit of every default tolerance with a length in it: unit_ratio
    amp: float = 0.0
    scale: float = 100.0
    drift_rate: float = 0.0
    drift_reset_period: int = 1
    nlos_scale: float = 0.0


def unit_ratio(sigma0: float) -> float:
    """The unit rule's r = sigma0 / ToaNoiseModel.sigma0 of a ToA noise sigma0.
    A default tolerance with a length in it is quoted at r = 1 and scales
    with r: a damping bound or eps_prior by 1 / r^2, tol_step by r. A
    tol_step or eps_prior that is set is kept as it is."""
    return sigma0 / ToaNoiseModel.sigma0


def sigma_tau_of_distance(d: float, m: ToaNoiseModel) -> float:
    """Delay-noise std at link distance d (meters, or an array); sigma0 where amp is 0."""
    if m.kind == "exponential" and m.amp:
        return m.sigma0 + m.amp * np.exp(d / m.scale)
    return m.sigma0


def toa_variance(d, m: ToaNoiseModel):
    """sigma * sigma of sigma_tau_of_distance(d, m), in s^2. Where sigma or
    its square overflows it is +inf, with no float warning: a far link
    carries no information, and 1 / toa_variance is its weight 0."""
    with np.errstate(over="ignore"):
        sigma = sigma_tau_of_distance(d, m)
        return sigma * sigma


@dataclass(frozen=True)
class MeasurementSample:
    """One measurement tuple: GPS-reported UAV position plus the estimated
    LoS delay for user `user_id` at mission step `step`. A log's rules
    (MeasurementLog.fault) ask both to be >= 1 and no pair to repeat."""
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
    of each step's first row; pair_first (P,), the first row of each of the
    P distinct (pose, user) pairs, in (user, pose) order, which fault's
    duplicate rule and slam.range_circle_start read; and pair_index
    (12 M,), the solver's bincount index of 12 entries per row, 12 (K pose +
    user) + e for entry e, laid out entry-major. pair_first and pair_index
    are each computed the first time they are read, pair_first by one
    stable sort. Every log derives its layout from its own columns, so the
    columns must not change once the layout has been read. So is fault, the
    first row to break a log's rules: the one statement of them, which `of`
    enforces for every solver entry and the log reader for every file.
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
    def pair_first(self):
        _, first = np.unique(self.user * len(self.steps) + self.pose, return_index=True)
        first.flags.writeable = False
        return first

    @cached_property
    def pair_index(self):
        pair = 12 * (len(self.user_ids) * self.pose + self.user) + np.arange(12)[:, None]
        pair = pair.ravel()
        pair.flags.writeable = False
        return pair

    @cached_property
    def fault(self):
        """(i, message) of the first row i to break a rule of a log, by the first
        rule it breaks, in the order a row is checked: its values finite (0)
        and within LENGTH_MAX, a range C toa_s within it (1), toa_s >= 0 (2),
        step and user_id >= 1 (3), its (step, user_id) pair not given in an
        earlier row (4), and its GPS fix its step's first (5); else None."""
        finite = np.isfinite(np.column_stack([self.gps, self.toa]))
        far = np.column_stack([np.abs(self.gps), self.toa]) > _VALUE_LIMIT
        repeated = np.ones((len(self), 1), dtype=bool)
        repeated[self.pair_first] = False
        ids = np.column_stack([self.step, self.user_id])
        rules = [~finite, far, self.toa[:, None] < 0, ids < 1, repeated,
                 self.gps != self.pose_gps[self.pose]]
        # each rule's first row: a mask's first True, row-major, lies in it
        bad = [(int(np.argmax(m)) // m.shape[1], r) for r, m in enumerate(rules) if m.any()]
        if not bad:
            return None
        i, rule = min(bad)
        c = int(np.argmax(far[i]))
        beyond = (f"{VALUE_COLUMNS[c]} must be at most {LENGTH_MAX:g} m in magnitude" if c < 3
                  else f"toa_s must be at most {_VALUE_LIMIT[3]:.6g} s, a range C*toa_s of "
                  f"{LENGTH_MAX:g} m")
        return i, [f"{VALUE_COLUMNS[int(np.argmin(finite[i]))]} must be finite", beyond,
                   "toa_s must be >= 0", "step and user_id must be >= 1",
                   f"duplicate row for step {self.step[i]}, user_id {self.user_id[i]}",
                   f"GPS fix differs from the first one given for step {self.step[i]}"][rule]

    @classmethod
    def of(cls, measurements) -> MeasurementLog:
        """The MeasurementLog every solver entry, check_identifiability and
        write_measurement_log read: a log itself, any other iterable of
        MeasurementSample as the columns of its rows, in order. ValueError if
        it has no rows, or "sample i: <message>" of the row that fault names,
        the log reader's RowError message for that row."""
        if not isinstance(log := measurements, cls):
            rows = list(measurements)
            log = cls(step=np.array([m.step for m in rows], dtype=np.int64),
                      user_id=np.array([m.user_id for m in rows], dtype=np.int64),
                      gps=np.array([(m.gps_pos.x, m.gps_pos.y, m.gps_pos.z) for m in rows],
                                   dtype=float).reshape(-1, 3),
                      toa=np.array([m.toa for m in rows], dtype=float))
        if not len(log):
            raise ValueError("measurement set is empty")
        if log.fault:
            raise ValueError(f"sample {log.fault[0]}: {log.fault[1]}")
        return log

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


# The flight rule: a distance checked against a budget of d_max moves may exceed it by
# REACH_SLACK of that budget (within_reach).
REACH_SLACK = 1e-12

# The largest magnitude, in meters, of a scenario coordinate, a mission's
# farthest link, a logged GPS coordinate and a logged range C tau; 1 /
# LENGTH_MAX m is the floor of a noise scale and of a nonzero input
# coordinate. The highest power of a length the package forms is the sixth:
# slam._range_fit squares g1 = sum q y over a user's n rows, with q its
# centred track and y = (C tau)^2 - z^2 - |q|^2.
# Where every coordinate and range is at most L, |q| <= 2 sqrt(2) L and
# |y| <= 10 L^2, so g1^2 <= 800 n^2 L^6, and the hard-case test's
# n g1^2 <= 800 n^3 L^6. At L = 2 LENGTH_MAX (a mission's poses lie within
# its farthest link of the start) that is below the largest float, 1.8e308,
# for any log of fewer than 1e21 rows. A weight 1 / sigma^2, or eps_prior,
# is at most LENGTH_MAX^2 m^-2, so a weighted squared residual is at most 4 LENGTH_MAX^4.
LENGTH_MAX = 1e40

VALUE_COLUMNS = ("gps_x", "gps_y", "gps_z", "toa_s")  # a measurement's values, as a log names them
_VALUE_LIMIT = np.array([LENGTH_MAX] * 3 + [LENGTH_MAX / SPEED_OF_LIGHT])


# The most standard deviations a numpy Generator's normal draw lies from its
# mean: its ziggurat goes past the edge r = 3.6541528853610088 only as r + x,
# x = -log1p(-U) / r with U < 1 a double on the grid 2^-53, so r + x <= r + 53 ln 2 / r.
NORMAL_REACH = 13.7076

# The most rows of three float64 one numpy array can hold, its size in bytes an intp.
# mission_steps sizes a mission's (N, 3) arrays and planner headings the (headings + 1, 3)
# ring, so a larger count is refused: below it, an array the host cannot give is a MemoryError.
ROWS_MAX = np.iinfo(np.intp).max // 24


def within_reach(distance, d_max, moves):
    """Whether distance (meters, a float or an array) is within `moves` moves
    of d_max by the flight rule: at most (d_max * moves) * (1 + REACH_SLACK).
    At moves 0, where two points should be one, it is the slack of one move,
    d_max * REACH_SLACK."""
    return distance <= ((d_max * moves) * (1 + REACH_SLACK) if moves else d_max * REACH_SLACK)


def require_prior(name, value):
    """value if it is a Fisher prior eps_prior, in m^-2, within [0,
    LENGTH_MAX^2]; else InvalidParam(name)."""
    return require_number(name, value, 0, high=LENGTH_MAX ** 2)


def require_length(name, *lengths):
    """InvalidParam(name) unless every length, in meters, is finite and at
    most LENGTH_MAX in magnitude: the ceiling alone, for a sum, a ramp or a
    path the package forms."""
    for v in lengths:
        if not abs(v) <= LENGTH_MAX:  # NaN fails too
            raise InvalidParam(name, f"must keep every length finite and within {LENGTH_MAX:g} "
                               f"m, not {abs(v):.6g} m")


def require_coordinate(name, *coords):
    """InvalidParam(name) unless every coordinate given as input, in meters,
    is 0 or within [1 / LENGTH_MAX, LENGTH_MAX] in magnitude. Two such
    coordinates differ by 0 or by at least 2^-185 = 2.0e-56 m, the spacing of
    floats at 1e-40, so no link between such points squares to length 0."""
    for v in coords:
        if not (v == 0 or 1 / LENGTH_MAX <= abs(v) <= LENGTH_MAX):  # NaN fails too
            raise InvalidParam(name, f"must keep every coordinate 0 or within [{1 / LENGTH_MAX:g}"
                               f", {LENGTH_MAX:g}] m in magnitude, not {abs(v):.6g} m")


def require_number(name, value, low, strict=False, high=sys.float_info.max):
    """value if it is a real number, not a bool, > low (strict) or >= low,
    and <= high, by default the largest float; else InvalidParam(name)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and ((low < value) if strict else (low <= value)) and value <= high):
        raise InvalidParam(name, f"must be finite and {'>' if strict else '>='} {low:g}"
                           + (f" and <= {high:g}" if high < sys.float_info.max else ""))
    return value


def require_scale(name, value, meters=1.0):
    """value if it is a noise scale, value * meters (C for a delay) within
    [1 / LENGTH_MAX, LENGTH_MAX] m; else InvalidParam(name)."""
    return require_number(name, value, 1 / LENGTH_MAX / meters, high=LENGTH_MAX / meters)


def require_int(name, value, low, high=math.inf):
    """value if it is an integer, not a bool, >= low and <= high; else InvalidParam(name)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value <= high):
        raise InvalidParam(name, f"must be an integer >= {low}"
                           + (f" and <= {high}" if high < math.inf else ""))
    return value


def require_numerology(mu):
    """mu if it is an NR numerology, an integer in 0..5; else InvalidParam."""
    if require_int("numerology", mu, 0) > 5:
        raise InvalidParam("numerology", "must be in 0..5")
    return mu


def _require_ramp(name, m: ToaNoiseModel):
    """(drift_rate, drift_reset_period) of m if the rate is a number >= 0 and
    the period an integer >= 1; else InvalidParam(name.<field>)."""
    return (require_number(f"{name}.drift_rate", m.drift_rate, 0),
            require_int(f"{name}.drift_reset_period", m.drift_reset_period, 1))


def require_noise(name, m: ToaNoiseModel) -> ToaNoiseModel:
    """m if every field of the ToA noise model is valid; else InvalidParam
    naming the first bad one as name.<field>, in field order: kind, sigma0 a
    noise scale (in meters of range), amp >= 0 and scale > 0 where kind is
    "exponential", drift_rate >= 0, drift_reset_period an integer >= 1, and
    nlos_scale >= 0."""
    if m.kind not in ("constant", "exponential"):
        raise InvalidParam(f"{name}.kind", "must be 'constant' or 'exponential'")
    require_scale(f"{name}.sigma0", m.sigma0, SPEED_OF_LIGHT)
    if m.kind == "exponential":
        require_number(f"{name}.amp", m.amp, 0)
        require_number(f"{name}.scale", m.scale, 0, strict=True)
    _require_ramp(name, m)
    require_number(f"{name}.nlos_scale", m.nlos_scale, 0)
    return m


def drift_reach(m: ToaNoiseModel, steps) -> float:
    """The range C / 2 * drift_rate * (min(drift_reset_period, steps) - 1), in
    meters, of the largest drift offset of m's ramp over `steps` mission
    steps: half a round trip's drift. InvalidParam first, as
    toa_noise.drift_rate or toa_noise.drift_reset_period, where require_noise
    refuses that field. inf, with no float warning, where it overflows."""
    rate, period = _require_ramp("toa_noise", m)
    return SPEED_OF_LIGHT / 2 * float(rate) * (int(min(period, steps)) - 1)


def validate_scenario(s: Scenario) -> Scenario:
    """Check every scenario invariant; return s unchanged if all hold."""
    if len(s.users) < 1:
        raise InvalidParam("users", "need at least one user")
    for i, u in enumerate(s.users):
        require_coordinate(f"users[{i}]", u.x, u.y)
    require_coordinate("uav_start", s.uav_start.x, s.uav_start.y, s.uav_start.z)
    require_coordinate("uav_terminal", s.uav_terminal.x, s.uav_terminal.y, s.uav_terminal.z)
    require_int("mission_steps", s.mission_steps, 2, ROWS_MAX)
    require_number("d_max", s.d_max, 0, strict=True)
    require_number("delta_keep", s.delta_keep, 0)
    require_scale("sigma_gps", s.sigma_gps)
    require_numerology(s.numerology)
    require_number("sample_rate", s.sample_rate, 0, strict=True)
    require_int("seed", s.seed, 0)

    m = require_noise("toa_noise", s.toa_noise)

    for i, box in enumerate(s.buildings):
        lo, hi = box.min_corner.as_array(), box.max_corner.as_array()
        require_coordinate(f"buildings[{i}]", *lo, *hi)
        if not np.all(lo <= hi):
            raise InvalidParam(f"buildings[{i}]", "min_corner must be <= max_corner")

    start = s.uav_start.as_array()
    dist = float(np.linalg.norm(start - s.uav_terminal.as_array()))
    far = max(math.dist(start, (u.x, u.y, 0.0)) for u in s.users)
    # A GPS fix lies within the moves and NORMAL_REACH sigma_gps of uav_start; a range
    # C tau within the farthest link, NORMAL_REACH (sigma_gps, C sigma_tau, C nlos_scale)
    # and half a round trip's drift. A sum beyond the bound names its largest term.
    with np.errstate(over="ignore"):
        budget = s.d_max * (s.mission_steps - 1)
        if not within_reach(dist, s.d_max, s.mission_steps - 1):
            raise TerminalUnreachable(
                f"start-terminal distance {dist:.6g} m exceeds d_max*(N-1) = {budget:.6g} m")
        gps, sigma = NORMAL_REACH * s.sigma_gps, sigma_tau_of_distance(budget + far, m)
        for terms in ({"uav_start": float(np.abs(start).max()), "d_max": budget, "sigma_gps": gps},
                      {"d_max": budget, "users": far, "sigma_gps": gps,
                       "toa_noise.sigma0" if m.sigma0 >= sigma - m.sigma0 else "toa_noise":
                           NORMAL_REACH * SPEED_OF_LIGHT * sigma,
                       "toa_noise.nlos_scale": NORMAL_REACH * SPEED_OF_LIGHT * m.nlos_scale,
                       "toa_noise.drift_rate": drift_reach(m, s.mission_steps)}):
            require_length(max(terms, key=terms.get), sum(terms.values()))
    return s
