import contextlib
import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import uavloc
from uavloc.channel import los_delay
from uavloc.cli import main
from uavloc.errors import InvalidParam, ParseError, RowError, SchemaError, UnknownKey
from uavloc.iofiles import (LOG_HEADER, export_results, parse_run_config,
                            parse_scenario, read_measurement_log,
                            serialize_scenario, write_measurement_log)
from uavloc.mission import check_options, run_mission
from uavloc.model import (AxisBox, MeasurementSample, Scenario, ToaNoiseModel,
                          Vec2, Vec3)
from uavloc.slam import SlamConfig

MINIMAL = """\
users:
  - [10.0, -5.0]
uav_start: [0.0, 0.0, 30.0]
uav_terminal: [40.0, 0.0, 30.0]
mission_steps: 20
"""


# --- config parsing ---

def test_minimal_config_defaults():
    s = parse_scenario(MINIMAL)
    assert s.users == (Vec2(10.0, -5.0),)
    assert s.d_max == 5.0
    assert s.delta_keep == 2.0
    assert s.sigma_gps == 1.0
    assert s.numerology == 1
    assert s.sample_rate == 61.44e6
    assert s.toa_noise.kind == "constant"
    assert s.toa_noise.sigma0 == 1.25e-8
    assert s.buildings == ()
    assert s.seed == 0


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_scenario(MINIMAL + "seed: 1\nseed: 2\n")


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey):
        parse_scenario(MINIMAL + "velocity: 3\n")
    with pytest.raises(UnknownKey):
        parse_scenario(MINIMAL + "toa_noise: {sigma: 1.0e-8}\n")


def test_missing_required_key():
    with pytest.raises(ParseError):
        parse_scenario("users:\n  - [0, 0]\nuav_start: [0, 0, 30]\n"
                       "uav_terminal: [1, 0, 30]\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ParseError):
        parse_scenario(MINIMAL.replace("mission_steps: 20", "mission_steps: soon"))
    with pytest.raises(ParseError):
        parse_scenario(MINIMAL.replace("[0.0, 0.0, 30.0]", "[0.0, 0.0]"))


def test_solver_planner_sections():
    rc = parse_run_config(MINIMAL + "solver: {max_iter: 30, solve_every: 5}\n"
                                    "planner: {headings: 16}\n")
    assert rc.slam.max_iter == 30
    assert rc.solve_every == 5
    assert rc.headings == 16
    with pytest.raises(UnknownKey):
        parse_run_config(MINIMAL + "solver: {step_size: 1}\n")
    with pytest.raises(ParseError, match="'solver' must be a mapping"):
        parse_run_config(MINIMAL + "solver: [1]\n")


@pytest.mark.parametrize("sections", ["", "solver:\nplanner:\n"], ids=["absent", "empty"])
def test_run_options_defaults(sections):
    noise = "toa_noise: {kind: exponential, sigma0: 2.0e-8, amp: 1.0e-9}\n"
    rc = parse_run_config(MINIMAL + "sigma_gps: 1.5\n" + noise + sections)
    assert (rc.solve_every, rc.eps_prior, rc.headings) == (1, 1e-6, 8)
    s = rc.scenario
    assert rc.slam == SlamConfig(sigma_gps=1.5, sigma_tau=s.toa_noise.sigma0,
                                 noise_model=s.toa_noise)
    assert rc.slam.sigma_tau == 2e-8
    assert rc.slam.noise_model is s.toa_noise and s.toa_noise.kind == "exponential"


def test_run_options_overrides():
    rc = parse_run_config(MINIMAL + "solver:\n"
                          "  sigma_tau: 3.0e-8\n  per_distance_weights: true\n"
                          "  huber_delta: 4.0e-8\n  tol_step: 1.0e-9\n  max_iter: 7\n"
                          "  solve_every: 0\n  eps_prior: 0.0\n"
                          "planner: {headings: 1}\n")
    assert rc.slam == SlamConfig(sigma_gps=1.0, sigma_tau=3e-8, noise_model=rc.scenario.toa_noise,
                                 per_distance_weights=True, huber_delta=4e-8, tol_step=1e-9,
                                 max_iter=7)
    assert (rc.solve_every, rc.eps_prior, rc.headings) == (0, 0.0, 1)
    # integer values of float keys are taken as floats
    rc = parse_run_config(MINIMAL + "solver: {sigma_tau: 1, eps_prior: 2}\n")
    assert type(rc.slam.sigma_tau) is float and type(rc.eps_prior) is float


def test_buildings_parse():
    s = parse_scenario(MINIMAL + "buildings:\n"
                                 "  - {min: [5, -5, 0], max: [15, 5, 50]}\n")
    assert s.buildings == (AxisBox(Vec3(5, -5, 0), Vec3(15, 5, 50)),)


def test_bare_toa_noise_section_is_the_defaults():
    # like a bare `solver:` line, a bare `toa_noise:` line is an empty section
    assert parse_scenario(MINIMAL + "toa_noise:\n").toa_noise == ToaNoiseModel()


def test_unhashable_key_rejected():
    with pytest.raises(ParseError, match="unhashable key"):
        parse_scenario(MINIMAL + "? [1, 2]\n: 3\n")


def random_scenario(rng):
    n_users = int(rng.integers(1, 4))
    noise = ToaNoiseModel(kind=str(rng.choice(["constant", "exponential"])),
                          sigma0=float(rng.uniform(1e-9, 5e-8)),
                          amp=float(rng.uniform(0, 1e-8)),
                          scale=float(rng.uniform(50, 500)),
                          drift_rate=float(rng.uniform(0, 1e-8)),
                          drift_reset_period=int(rng.integers(1, 20)),
                          nlos_scale=float(rng.uniform(0, 1e-7)))
    n = int(rng.integers(5, 60))
    start = Vec3(*rng.uniform(-50, 50, 2), float(rng.uniform(10, 60)))
    return Scenario(users=tuple(Vec2(*rng.uniform(-80, 80, 2)) for _ in range(n_users)),
                    uav_start=start, uav_terminal=start,
                    mission_steps=n, d_max=float(rng.uniform(1, 10)),
                    delta_keep=float(rng.uniform(0, 3)),
                    sigma_gps=float(rng.uniform(0.1, 5)),
                    toa_noise=noise, numerology=int(rng.integers(0, 6)),
                    sample_rate=float(rng.choice([30.72e6, 61.44e6, 122.88e6])),
                    buildings=(AxisBox(Vec3(1, 2, 0), Vec3(3, 4, 20)),),
                    seed=int(rng.integers(0, 10000)))


def test_scenario_roundtrip_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_scenario(rng)
        assert parse_scenario(serialize_scenario(s)) == s


def _maybe_numpy(values, numpy_type):
    """Draws from `values`, some as plain Python scalars, some as numpy ones."""
    return st.one_of(values, values.map(numpy_type))


def _real(low, high):
    return _maybe_numpy(st.floats(low, high), np.float64)


def _integer(low, high):
    return _maybe_numpy(st.integers(low, high), np.int64)


@st.composite
def valid_scenarios(draw):
    start = Vec3(*(draw(_real(-100, 100)) for _ in range(3)))
    d_max = draw(_real(1e-3, 20))
    # half a step from the start: reachable at any mission length
    terminal = Vec3(start.x + draw(st.floats(0, 0.5)) * d_max, start.y, start.z)
    corners = [(Vec3(*(draw(_real(-50, 50)) for _ in range(3))),
                [draw(_real(0, 30)) for _ in range(3)])
               for _ in range(draw(st.integers(0, 2)))]
    users = tuple(Vec2(draw(_real(-80, 80)), draw(_real(-80, 80)))
                  for _ in range(draw(st.integers(1, 3))))
    steps = draw(_integer(2, 500))
    # amp*exp(d/scale) stays below 1e-8*exp(300) at the farthest reachable link
    reach = d_max * (steps - 1) + max(math.dist((start.x, start.y, start.z), (u.x, u.y, 0))
                                      for u in users)
    min_scale = max(1.0, reach / 300)
    noise = ToaNoiseModel(kind=draw(st.sampled_from(["constant", "exponential"])),
                          sigma0=draw(_real(1e-10, 1e-6)), amp=draw(_real(0, 1e-8)),
                          scale=draw(_real(min_scale, min_scale + 1e3)),
                          drift_rate=draw(_real(0, 1e-8)),
                          drift_reset_period=draw(_integer(1, 50)),
                          nlos_scale=draw(_real(0, 1e-7)))
    return Scenario(users=users, uav_start=start, uav_terminal=terminal,
                    mission_steps=steps, d_max=d_max,
                    delta_keep=draw(_real(0, 10)), sigma_gps=draw(_real(1e-3, 10)),
                    toa_noise=noise, numerology=draw(_integer(0, 5)),
                    sample_rate=draw(_real(1e6, 2e8)),
                    buildings=tuple(AxisBox(lo, Vec3(lo.x + dx, lo.y + dy, lo.z + dz))
                                    for lo, (dx, dy, dz) in corners),
                    seed=draw(_integer(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None, database=None)
@given(s=valid_scenarios())
def test_scenario_roundtrip_numpy_scalars(s):
    text = serialize_scenario(s)
    assert isinstance(yaml.safe_load(text), dict)
    assert parse_scenario(text) == s


# --- measurement logs ---

def test_log_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    # one GPS fix per step, shared by the step's rows, as a valid log has it
    gps = {n: Vec3(*rng.standard_normal(3) * 37.1) for n in range(1, 15)}
    samples = [MeasurementSample(step=n, user_id=k, gps_pos=gps[n],
                                 toa=float(rng.uniform(0, 1e-6)))
               for n in range(1, 15) for k in (1, 2)]
    text = write_measurement_log(samples)
    assert text.splitlines()[0] == ",".join(LOG_HEADER)
    back = read_measurement_log(text)
    assert list(back) == sorted(samples, key=lambda m: (m.step, m.user_id))
    assert write_measurement_log(back) == text


def test_log_header_must_match():
    with pytest.raises(SchemaError):
        read_measurement_log("step,user,gps_x,gps_y,gps_z,toa_s\n1,1,0,0,30,1e-7\n")
    with pytest.raises(SchemaError):
        read_measurement_log("")


def test_log_bad_rows():
    head = ",".join(LOG_HEADER) + "\n"
    with pytest.raises(RowError):
        read_measurement_log(head + "1,1,0,0,30\n")
    with pytest.raises(RowError):
        read_measurement_log(head + "1,1,0,0,30,abc\n")
    with pytest.raises(RowError):
        read_measurement_log(head + "1,1,0,0,30,-1e-9\n")


@pytest.mark.parametrize("field", ["gps_x", "gps_y", "gps_z", "toa_s"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_log_rejects_non_finite(field, bad):
    row = dict(zip(LOG_HEADER, ["1", "1", "0.0", "0.0", "30.0", "1e-7"]))
    row[field] = bad
    text = ",".join(LOG_HEADER) + "\n" + ",".join(row[k] for k in LOG_HEADER) + "\n"
    with pytest.raises(RowError, match=field):
        read_measurement_log(text)


@pytest.mark.parametrize("rows, row, message", [
    (["0,1,0.0,0.0,30.0,1e-7"], 2, "step and user_id must be >= 1"),
    (["-3,1,0.0,0.0,30.0,1e-7"], 2, "step and user_id must be >= 1"),
    (["1,1,0.0,0.0,30.0,1e-7", "1,0,0.0,0.0,30.0,1e-7"], 3, "step and user_id must be >= 1"),
    (["1,1,0.0,0.0,30.0,1e-7", "2,1,1.0,0.0,30.0,1e-7", "1,1,0.0,0.0,30.0,2e-7"], 4,
     "duplicate row for step 1, user_id 1"),
    (["1,1,0.0,0.0,30.0,1e-7", "1,2,0.0,0.5,30.0,1e-7"], 3,
     "GPS fix differs from the first one given for step 1"),
], ids=["step_zero", "step_negative", "user_id_zero", "duplicate", "conflicting_gps"])
def test_log_rejects_inconsistent_rows(rows, row, message):
    text = ",".join(LOG_HEADER) + "\n" + "\n".join(rows) + "\n"
    with pytest.raises(RowError, match=message) as exc:
        read_measurement_log(text)
    assert exc.value.row == row


# The first bad row in file order is reported, whichever rule it breaks and
# whatever later rows break.
FIRST_BAD_ROW = [
    ("nonfinite_before_short_row", ["1,1,nan,0.0,30.0,1e-7", "2,1,0.0,0.0,30.0"], 2,
     "gps_x must be finite"),
    ("short_row_before_nonfinite", ["1,1,0.0,0.0,30.0", "2,1,inf,0.0,30.0,1e-7"], 2,
     "expected 6 fields, got 5"),
    ("duplicate_before_unparsable", ["1,1,0.0,0.0,30.0,1e-7", "1,1,0.0,0.0,30.0,1e-7",
                                     "2,1,0.0,0.0,30.0,abc"], 3,
     "duplicate row for step 1, user_id 1"),
    ("unparsable_before_duplicate", ["1,1,0.0,0.0,30.0,1e-7", "2,x,0.0,0.0,30.0,1e-7",
                                     "1,1,0.0,0.0,30.0,1e-7"], 3,
     "invalid literal for int() with base 10: 'x'"),
    ("gps_conflict_before_negative_toa", ["1,1,0.0,0.0,30.0,1e-7", "1,2,0.0,1.0,30.0,1e-7",
                                          "2,1,0.0,0.0,30.0,-1e-9"], 3,
     "GPS fix differs from the first one given for step 1"),
    ("blank_lines_count", ["1,1,0.0,0.0,30.0,1e-7", "", "", "1,2,0.0,0.0,30.0,-1e-9"], 5,
     "toa_s must be >= 0"),
    ("header_only", [], None, None),
    ("blank_lines_only", ["", "\r", ""], None, None),
]


@pytest.mark.parametrize("rows, row, message", [case[1:] for case in FIRST_BAD_ROW],
                         ids=[case[0] for case in FIRST_BAD_ROW])
def test_log_first_bad_row_across_rules(rows, row, message):
    text = ",".join(LOG_HEADER) + "\n" + "".join(line + "\n" for line in rows)
    # a body of blank lines must not reach np.loadtxt, which warns on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if row is None:
            assert len(read_measurement_log(text)) == 0
            return
        with pytest.raises(RowError) as exc:
            read_measurement_log(text)
    assert (exc.value.row, str(exc.value)) == (row, f"row {row}: {message}")


@pytest.mark.parametrize("field", ["step", "user_id"])
def test_log_ids_must_fit_int64(field):
    row = dict(zip(LOG_HEADER, ["1", "1", "0.0", "0.0", "30.0", "1e-7"]))
    row[field] = str(2 ** 63 - 1)
    text = ",".join(LOG_HEADER) + "\n" + ",".join(row[k] for k in LOG_HEADER) + "\n"
    assert getattr(read_measurement_log(text)[0], field) == 2 ** 63 - 1
    for too_large in (str(2 ** 63), "99999999999999999999", "-99999999999999999999"):
        row[field] = too_large
        text = ",".join(LOG_HEADER) + "\n" + ",".join(row[k] for k in LOG_HEADER) + "\n"
        with pytest.raises(RowError, match="must fit in a 64-bit integer") as exc:
            read_measurement_log(text)
        assert exc.value.row == 2


def _csv_rows(reader):
    """The rows of a csv reader; a row csv cannot read is a RowError at the
    reader's line_num."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise RowError(reader.line_num, str(exc)) from None


def reference_read(text):
    """Row-by-row reader with the rules of read_measurement_log: the
    reference for its column readers."""
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == LOG_HEADER
    samples, seen, gps_of_step = [], set(), {}
    for rownum, row in enumerate(_csv_rows(reader), start=2):
        if not row:
            continue
        if len(row) != len(LOG_HEADER):
            raise RowError(rownum, f"expected {len(LOG_HEADER)} fields, got {len(row)}")
        try:
            step, user_id = int(row[0]), int(row[1])
            values = tuple(map(float, row[2:]))
        except ValueError as exc:
            raise RowError(rownum, str(exc)) from None
        if not all(-2 ** 63 <= v < 2 ** 63 for v in (step, user_id)):
            raise RowError(rownum, "step and user_id must fit in a 64-bit integer")
        if not all(map(math.isfinite, values)):
            name = LOG_HEADER[2 + [math.isfinite(v) for v in values].index(False)]
            raise RowError(rownum, f"{name} must be finite")
        gps, toa = values[:3], values[3]
        if toa < 0:
            raise RowError(rownum, "toa_s must be >= 0")
        if step < 1 or user_id < 1:
            raise RowError(rownum, "step and user_id must be >= 1")
        if (step, user_id) in seen:
            raise RowError(rownum, f"duplicate row for step {step}, user_id {user_id}")
        seen.add((step, user_id))
        if gps_of_step.setdefault(step, gps) != gps:
            raise RowError(rownum, f"GPS fix differs from the first one given for step {step}")
        samples.append(MeasurementSample(step, user_id, Vec3(*gps), toa))
    return samples


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_samples(draw):
    """A valid measurement set in random row order: each step has one GPS
    fix, shared by its rows, and at most one row per user."""
    steps = draw(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6, unique=True))
    samples = []
    for n in steps:
        gps = Vec3(draw(_FINITE), draw(_FINITE), draw(_FINITE))
        for k in draw(st.lists(st.integers(1, 50), min_size=1, max_size=4, unique=True)):
            toa = draw(st.floats(0.0, 1e-3) | st.floats(min_value=0.0, allow_infinity=False))
            samples.append(MeasurementSample(n, k, gps, toa))
    return draw(st.permutations(samples))


@settings(max_examples=150, deadline=None, database=None)
@given(samples=valid_samples())
def test_log_roundtrip_property(samples):
    text = write_measurement_log(samples)
    back = read_measurement_log(text)
    assert list(back) == sorted(samples, key=lambda m: (m.step, m.user_id))
    assert write_measurement_log(back) == text


def _exact_outcome(read, text):
    """The rows `read` gives for text, floats as float.hex so that -0.0 and
    0.0 differ; or the row and message of its RowError."""
    try:
        return [(m.step, m.user_id, *map(float.hex, (*astuple(m.gps_pos), m.toa)))
                for m in read(text)]
    except RowError as exc:
        return exc.row, str(exc)


# fields a row rule, int() or float() refuses, and spellings that numpy and
# int() or float() read differently (numpy refuses 1_0 and non-ASCII digits,
# and takes \x1c for space)
_BAD_FIELDS = ["nan", "inf", "-inf", "-1e-9", "0", "-3", "abc", "", "1.5", " 2", "1e400",
               "1_0", "\u0661", " +2 ", "1.0", '"7"', str(2 ** 63), "\x1c1"]


@settings(max_examples=300, deadline=None, database=None)
@given(samples=valid_samples(), data=st.data())
def test_log_one_corruption_matches_reference(samples, data):
    lines = [[str(m.step), str(m.user_id), *map(repr, (m.gps_pos.x, m.gps_pos.y, m.gps_pos.z)),
              repr(m.toa)] for m in samples]
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["field", "gps", "drop", "extra", "duplicate"]))
    if kind == "field":
        lines[i][data.draw(st.integers(0, 5))] = data.draw(st.sampled_from(_BAD_FIELDS))
    elif kind == "gps":
        lines[i][data.draw(st.integers(2, 4))] = repr(data.draw(_FINITE))
    elif kind == "drop":
        del lines[i][data.draw(st.integers(0, 5))]
    elif kind == "extra":
        lines[i].append("0")
    else:
        lines.insert(data.draw(st.integers(0, len(lines))), list(lines[i]))
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(0, len(lines))), [])
    text = ",".join(LOG_HEADER) + "\n" + "".join(",".join(f) + "\n" for f in lines)
    assert _exact_outcome(read_measurement_log, text) == _exact_outcome(reference_read, text)


_ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")
# other spellings of a field's text; int(), float() or csv read some of them
# as the plain text and refuse others
_SPELLINGS = [
    lambda s: s,
    lambda s: f" +{s} " if s[0] != "-" else f" {s} ",
    lambda s: f'"{s}"',
    lambda s: f'"{s},"',
    lambda s: s[0] + "_" + s[1:],
    lambda s: s.translate(_ARABIC_DIGITS),
    lambda s: s + ".0",
    lambda s: "\t" + s + "\xa0",
    lambda s: s + "\x1c",
]


@st.composite
def spelled_logs(draw):
    """The text of a valid log with some fields spelled in another way,
    maybe an id outside int64 or a whitespace-only line, blank lines, and
    LF or CRLF line ends."""
    spell = draw(st.sampled_from(_SPELLINGS))
    rows = [[str(m.step), str(m.user_id), *map(repr, astuple(m.gps_pos)), repr(m.toa)]
            for m in draw(valid_samples())]
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = str(
            draw(st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 63 - 1, -2 ** 63, 10 ** 20])))
    lines = [",".join(spell(f) if draw(st.booleans()) else f for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return ",".join(LOG_HEADER) + end + "".join(line + end for line in lines)


@settings(max_examples=300, deadline=None, database=None)
@given(text=spelled_logs())
@example(text=",".join(LOG_HEADER) + "\r\n1,1,0.0,0.0,30.0,1e-7\r\n\r\n"
         '"2"," +1 ","0,0",0.0,30.0,1e-7\r\n')
@example(text=",".join(LOG_HEADER) + "\n1_0,\u0661,0.0,0.0,30.0,1e-7\n 1.0,1,0,0,30,1e-7\n")
def test_log_spellings_match_reference(text):
    assert _exact_outcome(read_measurement_log, text) == _exact_outcome(reference_read, text)


def test_log_unreadable_csv_is_a_row_or_schema_error():
    head = ",".join(LOG_HEADER) + "\n"
    with pytest.raises(RowError, match="new-line character") as exc:
        read_measurement_log(head + "1,1,0.0,0.0,30.0,1e-7\n2,1,0.0\r,0.0,30.0,1e-7\n")
    assert exc.value.row == 3
    long_field = "1,1,0.0,0.0,30.0," + "x" * 200000 + "\n"
    with pytest.raises(RowError, match="field larger than field limit") as exc:
        read_measurement_log(head + long_field)
    assert exc.value.row == 2
    # a bad row before the unreadable one is the first bad row
    with pytest.raises(RowError, match="toa_s must be >= 0") as exc:
        read_measurement_log(head + "1,1,0.0,0.0,30.0,-1e-9\n" + long_field)
    assert exc.value.row == 2
    with pytest.raises(SchemaError, match="unreadable header row"):
        read_measurement_log(head.replace("\n", "\rx\n"))


# numeric fields over csv's 131072-character limit that numpy reads: digits,
# a quoted field spanning lines (csv names the line where it passes the
# limit) and one padded with spaces after its quote
@pytest.mark.parametrize("field, row", [
    ("0" * 200000, 2), ('"' + "\n" * 200000 + '1e-7"', 2 + 131072), ('"1e-7"' + " " * 200000, 2),
], ids=["digits", "quoted_lines", "padded"])
def test_log_over_long_field_is_a_row_error_with_or_without_a_later_bad_row(field, row):
    text = ",".join(LOG_HEADER) + "\n1,1,0.0,0.0,30.0," + field + "\n"
    for body in (text, text + "2,1,0.0,0.0,30.0,-1e-9\n"):
        with pytest.raises(RowError, match="field larger than field limit") as exc:
            read_measurement_log(body)
        assert exc.value.row == row
        assert _exact_outcome(read_measurement_log, body) == _exact_outcome(reference_read, body)


def test_cli_solve_over_long_field_exits_2(tmp_path, scenario_file, capsys):
    log = tmp_path / "measurements.csv"
    log.write_text(",".join(LOG_HEADER) + "\n1,1,0.0,0.0,30.0," + "x" * 200000 + "\n")
    line = _input_error(capsys, ["solve", "--scenario", scenario_file, "--log", str(log)])
    assert line == "error: row 2: field larger than field limit (131072)"


def test_cli_solve_duplicate_row_exits_2(tmp_path, scenario_file, capsys):
    out = str(tmp_path / "out")
    assert main(["simulate", "--scenario", scenario_file, "--out", out]) == 0
    log = tmp_path / "out" / "measurements.csv"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines + [lines[1]]) + "\n")
    capsys.readouterr()
    assert main(["solve", "--scenario", scenario_file, "--log", str(log)]) == 2
    err = capsys.readouterr().err
    assert f"row {len(lines) + 1}: duplicate row" in err and "Traceback" not in err


# --- export_results ---

def test_export_results_contents(tmp_path):
    s = parse_scenario(MINIMAL + "delta_keep: 3.0\n")
    res = run_mission(s, "greedy")
    files = export_results(res, s, str(tmp_path))
    names = {f.rsplit("/", 1)[-1] for f in files}
    assert names == {"trajectory.csv", "users.csv", "crb_history.csv",
                     "metrics.json", "measurements.csv"}

    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "step,true_x,true_y,true_z,gps_x,gps_y,gps_z,est_x,est_y,est_z"
    assert len(traj) == 1 + s.mission_steps
    retained = set(res.retained_steps)
    for line in traj[1:]:
        cells = line.split(",")
        if int(cells[0]) in retained:
            assert all(c != "" for c in cells)
        else:
            assert cells[7:] == ["", "", ""]

    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["user_rmse_m"] == res.metrics.user_rmse
    assert metrics["retained_steps"] == list(res.retained_steps)
    assert metrics["converged"] == res.converged

    back = read_measurement_log((tmp_path / "measurements.csv").read_text())
    assert list(back) == sorted(res.samples, key=lambda m: (m.step, m.user_id))

    crb = (tmp_path / "crb_history.csv").read_text().splitlines()
    assert len(crb) == 1 + s.mission_steps
    assert float(crb[-1].split(",")[1]) == float(res.crb_history[-1])


# --- CLI ---

@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text(MINIMAL + "delta_keep: 3.0\nsolver: {solve_every: 5}\n")
    return str(p)


def test_cli_simulate_and_solve(tmp_path, scenario_file, capsys):
    out = str(tmp_path / "out")
    rc = main(["simulate", "--scenario", scenario_file, "--out", out, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["user_rmse_m"] >= 0.0

    rc = main(["solve", "--scenario", scenario_file,
               "--log", out + "/measurements.csv", "--json"])
    assert rc == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved["converged"] is True
    assert solved["trials"] >= 1
    assert np.allclose(solved["users"]["1"], [10.0, -5.0], atol=5.0)


def test_cli_plan(tmp_path, scenario_file, capsys):
    state = {"step": 1, "pos": [0.0, 0.0, 30.0],
             "fim": [[1e3, 0.0], [0.0, 1e3]],
             "user_estimates": [[10.0, -5.0]]}
    sp = tmp_path / "state.json"
    sp.write_text(json.dumps(state))
    rc = main(["plan", "--scenario", scenario_file, "--state", str(sp), "--json"])
    assert rc == 0
    wp = json.loads(capsys.readouterr().out)["next_waypoint"]
    assert len(wp) == 3
    assert np.linalg.norm(np.array(wp) - [0, 0, 30]) <= 5.0 + 1e-9


def test_cli_crb(tmp_path, scenario_file, capsys):
    tp = tmp_path / "traj.csv"
    tp.write_text("step,x,y,z\n1,50,0,30\n2,0,50,30\n")
    up = tmp_path / "users.csv"
    up.write_text("user_id,x,y\n1,0,0\n")
    rc = main(["crb", "--scenario", scenario_file, "--trajectory", str(tp),
               "--users", str(up), "--json"])
    assert rc == 0
    hist = json.loads(capsys.readouterr().out)["crb_history_m2"]
    assert len(hist) == 2 and hist[1] < hist[0]


def test_cli_mc(scenario_file, capsys):
    rc = main(["mc", "--scenario", scenario_file, "--runs", "2", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["runs"] == 2
    assert "mean" in out["stats"]["user_rmse"]


def test_cli_mc_seed_replaces_scenario_seed(tmp_path, capsys):
    # per-run seeds are seed + i, whether the seed comes from --seed or the config
    def mc(seed, argv=()):
        path = tmp_path / f"seed{seed}.yaml"
        path.write_text(MINIMAL + f"delta_keep: 3.0\nseed: {seed}\n")
        assert main(["mc", "--scenario", str(path), "--runs", "2", *argv]) == 0
        return capsys.readouterr().out

    with_flag = mc(7, ["--seed", "99"])
    assert with_flag == mc(99)
    assert with_flag != mc(7)


def test_cli_solve_reads_the_layout_once(scenario_file, measurement_log, capsys):
    # one np.unique per index (steps, user ids) and one for repeated
    # (step, user_id) pairs, all in the reader; the solver and the output
    # reuse the layout the log carries
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        assert main(["solve", "--scenario", scenario_file, "--log", measurement_log]) == 0
    capsys.readouterr()
    assert unique.call_count == 3


def test_cli_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL + "warp_speed: 9\n")
    assert main(["simulate", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--scenario", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


README_FAR_NOISE = """\
users:
  - [10.0, -5.0]
  - [-20.0, 15.0]
uav_start: [0.0, 0.0, 30.0]
uav_terminal: [40.0, 0.0, 30.0]
mission_steps: 25
d_max: 5.0
delta_keep: 2.0
sigma_gps: 1.0
toa_noise: {kind: exponential, sigma0: 1.0e-8, amp: 1.0e-9, scale: SCALE}
seed: 7
solver:
  solve_every: 5
"""


# sigma at the estimated users, far beyond the mission's reach, overflowed exp
# (scale 2.0, seed 7) or its square (scale 5.0, seed 2) in the Fisher update
@pytest.mark.parametrize("scale, seed", [("2.0", "7"), ("5.0", "2")])
@pytest.mark.parametrize("mode, toa", [("greedy", "ideal"), ("fixed", "nr")])
def test_cli_simulate_far_estimates_raise_no_float_warning(tmp_path, capsys, scale, seed,
                                                           mode, toa):
    path = tmp_path / "far.yaml"
    path.write_text(README_FAR_NOISE.replace("SCALE", scale))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", "--scenario", str(path), "--out", str(out),
                   "--mode", mode, "--toa", toa, "--seed", seed])
    capsys.readouterr()
    assert rc == 0
    crb = np.loadtxt(out / "crb_history.csv", delimiter=",", skiprows=1)
    assert crb.shape == (25, 2) and np.isfinite(crb).all()


# every value here crashed `simulate` with a traceback, was accepted without
# error, or exited 3 (numeric failure) before the options were checked
BAD_OPTIONS = [
    ("solver", "max_iter", "abc"), ("solver", "max_iter", "2.0"),
    ("solver", "sigma_tau", "0"), ("solver", "sigma_tau", "1e-8"),
    ("solver", "huber_delta", "0"), ("planner", "headings", "2.5"),
    ("solver", "huber_delta", "-1"), ("solver", "solve_every", "-2"),
    ("solver", "solve_every", "2.5"), ("solver", "tol_step", ".nan"),
    ("solver", "max_iter", "true"), ("solver", "per_distance_weights", "3"),
    ("planner", "headings", "0"),
    ("solver", "eps_prior", "-1"), ("solver", "eps_prior", ".inf"),
]


@pytest.fixture(scope="module")
def measurement_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "measurements.csv"
    path.write_text(write_measurement_log(run_mission(parse_scenario(MINIMAL), "greedy").samples))
    return str(path)


def _input_error(capsys, argv):
    """The one `error:` line of a run of `main(argv)` that must exit 2
    without a traceback."""
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err + captured.out
    return lines[0]


def _command_args(command, tmp_path, measurement_log):
    """Valid input files and options for each subcommand but the scenario."""
    if command == "mc":
        return ["--runs", "1"]
    if command == "simulate":
        return ["--out", str(tmp_path / "out")]
    if command == "solve":
        return ["--log", measurement_log]
    if command == "plan":
        state = tmp_path / "state.json"
        state.write_text(json.dumps(VALID_STATE))
        return ["--state", str(state)]
    (tmp_path / "traj.csv").write_text("step,x,y,z\n1,50,0,30\n2,0,50,30\n")
    (tmp_path / "users.csv").write_text("user_id,x,y\n1,0,0\n")
    return ["--trajectory", str(tmp_path / "traj.csv"), "--users", str(tmp_path / "users.csv")]


# plan and crb never run a mission, so only the config parser stands between
# a bad option and them
@pytest.mark.parametrize("command", ["simulate", "solve", "plan", "crb", "mc"])
@pytest.mark.parametrize("section, key, value", BAD_OPTIONS,
                         ids=[f"{k}={v}" for _, k, v in BAD_OPTIONS])
def test_cli_bad_option_exits_2(tmp_path, capsys, measurement_log, command, section, key, value):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(MINIMAL + f"{section}: {{{key}: {value}}}\n")
    line = _input_error(capsys, [command, "--scenario", str(cfg)]
                        + _command_args(command, tmp_path, measurement_log))
    assert f"'{section}.{key}'" in line


def _owner_refuses(key, value):
    """Whether the library's owner of an option refuses value: SlamConfig
    for the solver settings, mission.check_options for the rest."""
    mission = {"solve_every": 1, "eps_prior": 1e-6, "planner_headings": 8}
    try:
        if key in ("solve_every", "eps_prior", "headings"):
            check_options(**(mission | {"planner_headings" if key == "headings" else key: value}))
        else:
            SlamConfig.for_scenario(parse_scenario(MINIMAL), **{key: value})
    except InvalidParam:
        return True
    return False


CHECKED_OPTIONS = [("solver", "sigma_tau"), ("solver", "huber_delta"), ("solver", "tol_step"),
                   ("solver", "max_iter"), ("solver", "solve_every"), ("solver", "eps_prior"),
                   ("solver", "per_distance_weights"), ("planner", "headings")]


@settings(max_examples=200, deadline=None)
@given(option=st.sampled_from(CHECKED_OPTIONS),
       value=st.one_of(st.integers(), st.floats(), st.booleans()))
@example(option=("solver", "sigma_tau"), value=10 ** 400)
@example(option=("solver", "eps_prior"), value=0.0)
@example(option=("solver", "eps_prior"), value=-0.0)
@example(option=("solver", "eps_prior"), value=0)
@example(option=("planner", "headings"), value=True)
@example(option=("solver", "per_distance_weights"), value=1)
def test_config_refuses_an_option_exactly_when_its_owner_does(option, value):
    section, key = option
    text = MINIMAL + yaml.safe_dump({section: {key: value}})
    read = yaml.safe_load(text)[section][key]
    assert type(read) is type(value) and (read == value or math.isnan(value))
    try:
        parse_run_config(text)
    except (InvalidParam, ParseError) as exc:
        assert f"'{section}.{key}'" in str(exc)
        assert _owner_refuses(key, value), str(exc)
    else:
        assert not _owner_refuses(key, value)


# One bad document per branch of the config parser, with the key(s) the error
# line must name.
BAD_DOCUMENTS = [
    ("not_mapping", "- 1\n- 2\n", ["config document"]),
    ("missing_users", MINIMAL.replace("users:\n  - [10.0, -5.0]\n", ""), ["users"]),
    ("users_scalar", MINIMAL.replace("users:\n  - [10.0, -5.0]", "users: 3"), ["users"]),
    ("users_empty", MINIMAL.replace("users:\n  - [10.0, -5.0]", "users: []"), ["users"]),
    ("users_one_element", MINIMAL.replace("[10.0, -5.0]", "[10.0]"), ["users[0]"]),
    ("users_text", MINIMAL.replace("[10.0, -5.0]", "[ten, five]"), ["users[0]"]),
    ("uav_start_2_elements", MINIMAL.replace("[0.0, 0.0, 30.0]", "[0.0, 0.0]"), ["uav_start"]),
    ("mission_steps_fraction", MINIMAL.replace("mission_steps: 20", "mission_steps: 2.5"),
     ["mission_steps"]),
    ("toa_noise_list", MINIMAL + "toa_noise: [1.0e-8]\n", ["toa_noise"]),
    ("toa_noise_unknown_key", MINIMAL + "toa_noise: {bogus: 1}\n", ["toa_noise", "bogus"]),
    ("toa_noise_kind", MINIMAL + "toa_noise: {kind: gaussian}\n", ["toa_noise.kind"]),
    ("toa_noise_sigma0_text", MINIMAL + "toa_noise: {sigma0: 1e-8}\n", ["toa_noise.sigma0"]),
    ("toa_noise_drift_reset_fraction", MINIMAL + "toa_noise: {drift_reset_period: 1.5}\n",
     ["toa_noise.drift_reset_period"]),
    ("buildings_mapping", MINIMAL + "buildings: {min: [0, 0, 0], max: [1, 1, 1]}\n",
     ["buildings"]),
    ("buildings_scalar", MINIMAL + "buildings: [3]\n", ["buildings[0]"]),
    ("buildings_no_max", MINIMAL + "buildings:\n  - {min: [0, 0, 0]}\n",
     ["buildings[0]", "max"]),
    ("buildings_unknown_key", MINIMAL + "buildings:\n  - {min: [0, 0, 0], max: [1, 1, 1], "
     "height: 3}\n", ["buildings[0]", "height"]),
    ("buildings_min_2_elements", MINIMAL + "buildings:\n  - {min: [0, 0], max: [1, 1, 1]}\n",
     ["buildings[0].min"]),
    ("d_max_bool", MINIMAL + "d_max: true\n", ["d_max"]),
    ("seed_text", MINIMAL + "seed: abc\n", ["seed"]),
    ("yaml_unclosed_flow_sequence", MINIMAL + "buildings: [1, 2\n",
     ["invalid YAML at line 7, column 1: expected ',' or ']', but got '<stream end>'"]),
    ("yaml_tab_indented_block", MINIMAL.replace("  - [10.0", "\t- [10.0"),
     ["invalid YAML at line 2, column 1: found character '\\t'"]),
    ("yaml_control_character", MINIMAL + "# \x07\n",
     ["invalid YAML: unacceptable character #x0007"]),
    ("non_text_key", MINIMAL + "1: 2\n", ["config document: 1"]),
]


@pytest.mark.parametrize("text, keys", [case[1:] for case in BAD_DOCUMENTS],
                         ids=[case[0] for case in BAD_DOCUMENTS])
def test_cli_bad_document_exits_2(tmp_path, capsys, text, keys):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(text)
    line = _input_error(capsys, ["simulate", "--scenario", str(cfg),
                                 "--out", str(tmp_path / "out")])
    assert all(key in line for key in keys), line


@pytest.mark.parametrize("command", ["simulate", "solve", "plan", "crb", "mc"])
@pytest.mark.parametrize("where", ["config", "option"])
def test_cli_negative_seed_exits_2(tmp_path, capsys, measurement_log, command, where):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(MINIMAL + ("seed: -1\n" if where == "config" else ""))
    args = _command_args(command, tmp_path, measurement_log)
    seed = ["--seed", "-1"] if where == "option" else []
    assert "'seed'" in _input_error(capsys, [command, "--scenario", str(cfg)] + args + seed)


# Scenarios that parse but break an invariant of validate_scenario; each
# subcommand named here used to skip the check, and simulate used to write
# (amp 1e-9) or fail on (amp 0) the non-finite sigma of the overflowing
# exponential noise model.
OVERFLOWING_NOISE = "toa_noise: {kind: exponential, sigma0: 1.0e-8, amp: %s, scale: 0.01}\n"
INVALID_SCENARIOS = [
    ("solve", "sigma_gps: 0.0\n", "sigma_gps"),
    ("crb", "toa_noise: {sigma0: 0.0}\n", "toa_noise.sigma0"),
    ("solve", "toa_noise: {kind: exponential, scale: 0.0}\n", "toa_noise.scale"),
    ("plan", "d_max: 0.0\n", "d_max"),
    ("simulate", OVERFLOWING_NOISE % "1.0e-9", "toa_noise"),
    ("simulate", OVERFLOWING_NOISE % "0.0", "toa_noise"),
    ("simulate", "toa_noise: {drift_rate: -1.0}\n", "toa_noise.drift_rate"),
    ("solve", "toa_noise: {drift_reset_period: 0}\n", "toa_noise.drift_reset_period"),
    ("crb", "toa_noise: {nlos_scale: -1.0}\n", "toa_noise.nlos_scale"),
]


@pytest.mark.parametrize("command, line, key", INVALID_SCENARIOS,
                         ids=[f"{c}-{k}" for c, _, k in INVALID_SCENARIOS])
def test_cli_invalid_scenario_exits_2(tmp_path, capsys, measurement_log, command, line, key):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(MINIMAL + line)
    assert f"'{key}'" in _input_error(capsys, [command, "--scenario", str(cfg)]
                               + _command_args(command, tmp_path, measurement_log))


def test_cli_nr_sample_rate_beyond_cir_window_exits_2(tmp_path, capsys):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(MINIMAL + "numerology: 0\nsample_rate: 1.0e+9\n")
    out = tmp_path / "out"
    line = _input_error(capsys, ["simulate", "--scenario", str(cfg), "--out", str(out),
                                 "--toa", "nr"])
    assert "'sample_rate'" in line and not out.exists()
    cfg.write_text(MINIMAL + "numerology: 0\nsample_rate: 4.0e+8\n")
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out), "--toa", "nr"]) == 0


@pytest.mark.parametrize("case", ["log_directory", "trajectory_directory", "out_is_file",
                                  "config_not_utf8", "state_not_utf8"])
def test_cli_unreadable_file_exits_2(tmp_path, capsys, scenario_file, case):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("users: [[10.0, -5.0]]  # \xb5m\n".encode("latin-1"))
    users = tmp_path / "users.csv"
    users.write_text("user_id,x,y\n1,0,0\n")
    argv = {
        "log_directory": ["solve", "--scenario", scenario_file, "--log", str(tmp_path)],
        "trajectory_directory": ["crb", "--scenario", scenario_file,
                                 "--trajectory", str(tmp_path), "--users", str(users)],
        "out_is_file": ["simulate", "--scenario", scenario_file, "--out", scenario_file],
        "config_not_utf8": ["simulate", "--scenario", str(not_utf8),
                            "--out", str(tmp_path / "out")],
        "state_not_utf8": ["plan", "--scenario", scenario_file, "--state", str(not_utf8)],
    }[case]
    _input_error(capsys, argv)


def test_cli_exit_code_3_on_numeric_failure(tmp_path, capsys):
    # one bearing only and no inversion prior: the Fisher matrix is singular
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(MINIMAL + "solver: {eps_prior: 0.0}\n")
    tp = tmp_path / "traj.csv"
    tp.write_text("step,x,y,z\n1,50,-5,30\n")
    up = tmp_path / "users.csv"
    up.write_text("user_id,x,y\n1,10,-5\n")
    assert main(["crb", "--scenario", str(cfg), "--trajectory", str(tp),
                 "--users", str(up)]) == 3
    capsys.readouterr()


README_SCENARIO = """\
users:
  - [10.0, -5.0]
  - [-20.0, 15.0]
uav_start: [0.0, 0.0, 30.0]
uav_terminal: [40.0, 0.0, 30.0]
mission_steps: 25
d_max: 5.0
delta_keep: 2.0
sigma_gps: 1.0
toa_noise:
  kind: constant
  sigma0: 1.25e-8
seed: 7
"""


def test_cli_solve_not_converged_exits_3(tmp_path, capsys):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(README_SCENARIO + "solver: {solve_every: 5}\n")
    assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    # one LM iteration cannot meet a stopping test from the initial state
    cfg.write_text(README_SCENARIO + "solver: {max_iter: 1}\n")
    out = tmp_path / "out"
    capsys.readouterr()
    log = str(tmp_path / "sim" / "measurements.csv")
    assert main(["solve", "--scenario", str(cfg), "--log", log, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    first, second = captured.err.splitlines()
    assert first == "numeric failure: no stopping test met"
    assert re.fullmatch(r"iterations: 1, trials: 1, last step norm: \d\.\d{3}e[+-]\d\d", second)
    assert not (out / "solution.json").exists()


def test_cli_solve_warns_once_per_weak_user(tmp_path, scenario_file, caplog, capsys):
    # exact GPS fixes on one straight line: no user is seen from
    # non-collinear points
    track = np.column_stack([np.linspace(-40.0, 40.0, 8), np.zeros(8), np.full(8, 30.0)])
    users = [(10.0, 40.0), (-30.0, -10.0), (25.0, -20.0)]
    log = tmp_path / "straight.csv"
    log.write_text(write_measurement_log(
        [MeasurementSample(n, k, Vec3(*p), los_delay(p, u))
         for n, p in enumerate(track, start=1) for k, u in enumerate(users, start=1)]))
    with caplog.at_level(logging.WARNING, logger="uavloc"):
        rc = main(["solve", "--scenario", scenario_file, "--log", str(log)])
    capsys.readouterr()
    assert rc == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"user {uid} is weakly observed (needs >=3 non-collinear ToA measurements)"
        for uid in (1, 2, 3)]


def test_cli_solve_out_writes_the_payload_and_poses(tmp_path, scenario_file, measurement_log,
                                                    capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["solve", "--scenario", scenario_file, "--log", measurement_log, "--json",
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    solution = json.loads((out / "solution.json").read_text())
    uav = solution.pop("uav")
    assert solution == payload
    assert list(uav) == [str(step) for step in payload["uav_steps"]]
    assert all(len(pose) == 3 for pose in uav.values())


def test_cli_crb_out_writes_the_history(tmp_path, scenario_file, capsys):
    (tmp_path / "traj.csv").write_text("step,x,y,z\n1,50,0,30\n2,0,50,30\n3,-50,0,30\n")
    (tmp_path / "users.csv").write_text("user_id,x,y\n1,0,0\n2,20,-10\n")
    argv = ["crb", "--scenario", scenario_file, "--trajectory", str(tmp_path / "traj.csv"),
            "--users", str(tmp_path / "users.csv"), "--json"]
    capsys.readouterr()
    assert main(argv) == 0
    history = json.loads(capsys.readouterr().out)["crb_history_m2"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    path = str(out / "crb_history.csv")
    assert json.loads(capsys.readouterr().out) == {"crb_history_file": path,
                                                   "final_crb_trace_m2": history[-1]}
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "crb_trace_m2"]
    assert [(int(n), float(v)) for n, v in rows[1:]] == list(enumerate(history, start=1))


def test_cli_solve_non_finite_toa_exits_2(tmp_path, scenario_file, capsys):
    out = str(tmp_path / "out")
    assert main(["simulate", "--scenario", scenario_file, "--out", out]) == 0
    log = tmp_path / "out" / "measurements.csv"
    lines = log.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:5] + ["nan"])
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["solve", "--scenario", scenario_file, "--log", str(log)]) == 2
    assert "toa_s must be finite" in capsys.readouterr().err


def test_cli_solve_header_only_log_exits_2(tmp_path, scenario_file, capsys):
    log = tmp_path / "measurements.csv"
    log.write_text(",".join(LOG_HEADER) + "\n")
    line = _input_error(capsys, ["solve", "--scenario", scenario_file, "--log", str(log)])
    assert line == "error: measurement log contains no rows"


VALID_STATE = {"step": 1, "pos": [0.0, 0.0, 30.0],
               "fim": [[1e3, 0.0], [0.0, 1e3]], "user_estimates": [[10.0, -5.0]]}


def _plan_exit(tmp_path, scenario_file, text):
    sp = tmp_path / "state.json"
    sp.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["plan", "--scenario", scenario_file, "--state", str(sp)])
    return rc, err.getvalue()


@pytest.mark.parametrize("key", ["step", "pos", "fim", "user_estimates"])
def test_cli_plan_missing_key_exits_2(tmp_path, scenario_file, key):
    doc = {k: v for k, v in VALID_STATE.items() if k != key}
    rc, err = _plan_exit(tmp_path, scenario_file, json.dumps(doc))
    assert rc == 2 and key in err


def test_cli_plan_fim_shape_mismatch_exits_2(tmp_path, scenario_file):
    doc = dict(VALID_STATE, user_estimates=[[10.0, -5.0], [0.0, 3.0]])
    rc, err = _plan_exit(tmp_path, scenario_file, json.dumps(doc))
    assert rc == 2 and "(4, 4)" in err


# Two users whose 2x2 Fisher blocks are coupled by one off-diagonal entry, and
# one user whose block is not symmetric.
COUPLED_STATE = dict(VALID_STATE, user_estimates=[[10.0, -5.0], [0.0, 3.0]],
                     fim=[[1e3, 0.0, 0.0, 0.0], [0.0, 1e3, 1.0, 0.0],
                          [0.0, 1.0, 1e3, 0.0], [0.0, 0.0, 0.0, 1e3]])
ASYMMETRIC_STATE = dict(VALID_STATE, fim=[[1e3, 2.0], [0.0, 1e3]])


@pytest.mark.parametrize("doc, message", [
    (COUPLED_STATE, "block-diagonal"), (ASYMMETRIC_STATE, "symmetric")],
    ids=["off_diagonal_block", "asymmetric_block"])
def test_cli_plan_fim_not_block_diagonal_exits_2(tmp_path, scenario_file, doc, message):
    rc, err = _plan_exit(tmp_path, scenario_file, json.dumps(doc))
    assert rc == 2 and message in err and "Traceback" not in err
    fixed = np.array(doc["fim"])
    fixed = np.where(np.kron(np.eye(len(fixed) // 2), np.ones((2, 2))) > 0, fixed, 0.0)
    fixed = np.minimum(fixed, fixed.T)
    rc, _ = _plan_exit(tmp_path, scenario_file, json.dumps(dict(doc, fim=fixed.tolist())))
    assert rc == 0


# One-user Fisher blocks that are symmetric but not positive semidefinite.
NOT_PSD_FIMS = [[[1.0, 3.0], [3.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]]


@pytest.mark.parametrize("fim", NOT_PSD_FIMS, ids=["indefinite", "negative_definite"])
def test_cli_plan_fim_not_psd_exits_2(tmp_path, scenario_file, fim):
    rc, err = _plan_exit(tmp_path, scenario_file, json.dumps(dict(VALID_STATE, fim=fim)))
    assert rc == 2 and "positive semidefinite" in err and "Traceback" not in err
    # the same block with its eigenvalues made non-negative is accepted
    w, v = np.linalg.eigh(np.array(fim))
    fixed = v @ np.diag(np.abs(w)) @ v.T
    fixed = (fixed + fixed.T) / 2
    rc, _ = _plan_exit(tmp_path, scenario_file, json.dumps(dict(VALID_STATE, fim=fixed.tolist())))
    assert rc == 0


def test_cli_plan_accepts_rank_one_fim(tmp_path, scenario_file):
    # one ToA sample gives a rank-1 block whose determinant is 0 up to rounding
    fim = 7e14 * np.outer([0.1257302210933933, -0.1321048632913019],
                          [0.1257302210933933, -0.1321048632913019])
    assert fim[0, 1] ** 2 - fim[0, 0] * fim[1, 1] > 0  # negative by rounding
    rc, _ = _plan_exit(tmp_path, scenario_file, json.dumps(dict(VALID_STATE, fim=fim.tolist())))
    assert rc == 0


def _psd(fim):
    return bool(np.all(np.linalg.eigvalsh(fim) >= -1e-9 * np.abs(fim).max()))


# Values that are not what the key needs: wrong type, wrong shape or not finite.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=5),
                  st.floats(allow_nan=True, allow_infinity=True).filter(
                      lambda v: not math.isfinite(v)),
                  st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                  st.lists(st.integers(-5, 5), max_size=4),
                  st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
                           min_size=1, max_size=5),
                  st.just([[0.0, 0.0, 0.0]]), st.just([1e400]),
                  st.just([[float("nan"), 0.0], [0.0, 1.0]]))


def _is_valid(key, value):
    """Whether `value` happens to be acceptable for `key` in VALID_STATE."""
    if key == "step":
        return type(value) is int and 1 <= value < 20
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return False
    shape = {"pos": (3,), "fim": (2, 2), "user_estimates": (1, 2)}[key]
    return (arr.shape == shape and bool(np.all(np.isfinite(arr)))
            and (key != "fim" or (bool(np.array_equal(arr, arr.T)) and _psd(arr))))


@st.composite
def malformed_state(draw):
    kind = draw(st.sampled_from(["drop", "replace", "not_object", "coupled", "asymmetric",
                                 "not_psd"]))
    if kind == "not_object":
        return json.dumps(draw(st.one_of(st.lists(st.integers(), max_size=3),
                                         st.integers(), st.text(max_size=5), st.none())))
    if kind == "not_psd":
        # a symmetric one-user fim with a negative eigenvalue
        low = draw(st.floats(-1e3, -1e-3))
        high = draw(st.floats(-1e3, 1e3))
        theta = draw(st.floats(0.0, math.pi))
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        fim = rot @ np.diag([low, high]) @ rot.T
        fim = draw(st.sampled_from([(fim + fim.T) / 2] + [np.array(f) for f in NOT_PSD_FIMS]))
        assert not _is_valid("fim", fim.tolist())
        return json.dumps(dict(VALID_STATE, fim=fim.tolist()))
    if kind in ("coupled", "asymmetric"):
        # a finite fim of the right shape with one entry changed to a non-zero
        # value that breaks the block-diagonal or the symmetric structure
        doc = dict(COUPLED_STATE if kind == "coupled" else VALID_STATE)
        fim = np.array(doc["fim"])
        i, j = draw(st.sampled_from([(0, 2), (0, 3), (1, 2), (3, 0)] if kind == "coupled"
                                    else [(0, 1), (1, 0)]))
        value = draw(st.floats(-1e6, 1e6).filter(lambda v: v != 0.0))
        if kind == "coupled":
            fim[i, j] = value
        else:
            fim[i, j] += value
        return json.dumps(dict(doc, fim=fim.tolist()))
    key = draw(st.sampled_from(sorted(VALID_STATE)))
    doc = dict(VALID_STATE)
    if kind == "drop":
        del doc[key]
    else:
        value = draw(_JUNK)
        assume(not _is_valid(key, value))
        doc[key] = value
    return json.dumps(doc)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=malformed_state())
@example(text=json.dumps(dict(VALID_STATE, eps_prior=-1.0)))
@example(text=json.dumps(dict(VALID_STATE, eps_prior=float("nan"))))
def test_cli_plan_malformed_state_exits_2(tmp_path, scenario_file, text):
    rc, err = _plan_exit(tmp_path, scenario_file, text)
    assert rc == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0.5", True])
def test_cli_plan_eps_prior_not_a_number_exits_2(tmp_path, scenario_file, capsys, value):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(dict(VALID_STATE, eps_prior=value)))
    argv = ["plan", "--scenario", scenario_file, "--state", str(state)]
    assert "'state.eps_prior'" in _input_error(capsys, argv)
    state.write_text(json.dumps(dict(VALID_STATE, eps_prior=0.5)))
    assert main(argv) == 0


def test_cli_imports_no_scipy():
    # scipy would more than double the resident memory and import time of
    # every uavloc command
    code = "import sys, uavloc.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(uavloc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("traj, users", [
    ("step,x,y,z\n1,50,0\n", "user_id,x,y\n1,0,0\n"),
    ("step,x,y,z\n1,50,0,30\n", "user_id,x,y\n1,0\n"),
    ("step,x,y,z\n1,50,0,abc\n", "user_id,x,y\n1,0,0\n"),
    ("step,x,y,z\n1,50,0,nan\n", "user_id,x,y\n1,0,0\n"),
    ("step,x,y,z\n", "user_id,x,y\n1,0,0\n"),
    ("n,x,y,z\n1,50,0,30\n", "user_id,x,y\n1,0,0\n"),
    # a field over csv's 131072-character limit
    ("step,x,y,z\n1,50,0," + "3" * 200000 + "\n", "user_id,x,y\n1,0,0\n"),
    ("step,x,y,z\n1,50,0,30\n", "user_id,x,y\n1,0," + "3" * 200000 + "\n"),
], ids=["short_trajectory_row", "short_users_row", "non_numeric", "non_finite", "no_rows",
        "wrong_header", "over_long_trajectory_field", "over_long_users_field"])
def test_cli_crb_malformed_csv_exits_2(tmp_path, scenario_file, capsys, traj, users):
    tp = tmp_path / "traj.csv"
    tp.write_text(traj)
    up = tmp_path / "users.csv"
    up.write_text(users)
    _input_error(capsys, ["crb", "--scenario", scenario_file, "--trajectory", str(tp),
                          "--users", str(up)])
