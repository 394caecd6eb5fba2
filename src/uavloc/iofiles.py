"""Scenario config parsing, measurement-log ingestion/export, and results
serialization.

Config documents are YAML with a strict schema: unknown keys and duplicate
keys are rejected, units are meters/seconds/Hz throughout. CSV numbers are
written with repr() so they round-trip bit-exactly.
"""
from __future__ import annotations

import csv
import io
import json
import numbers
import os
import sys
from collections.abc import Hashable
from dataclasses import astuple, dataclass, fields, is_dataclass

import numpy as np
import yaml

from .errors import InvalidParam, ParseError, RowError, SchemaError, UnitError, UnknownKey
from .fim import DEFAULT_EPS_PRIOR
from .mission import DEFAULT_SOLVE_EVERY, MissionResult, check_options
from .model import (AxisBox, MeasurementLog, Scenario, ToaNoiseModel, Vec2, Vec3,
                    validate_scenario)
from .planner import PlannerState
from .slam import SlamConfig

LOG_HEADER = ["step", "user_id", "gps_x", "gps_y", "gps_z", "toa_s"]


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate mapping keys."""


def _strict_mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if not isinstance(key, Hashable):
            break  # SafeLoader.construct_mapping refuses it
        if key in seen:
            raise ParseError(f"duplicated key '{key}' at line {key_node.start_mark.line + 1}")
        seen.add(key)
    return yaml.SafeLoader.construct_mapping(loader, node, deep)


_StrictLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG,
                              _strict_mapping)


@dataclass(frozen=True)
class RunConfig:
    """A config document's scenario, checked by validate_scenario, and its
    `solver:`/`planner:` options: slam (a SlamConfig) holds the solver keys and the
    scenario's sigma_gps and toa_noise; solve_every, eps_prior and headings, checked
    by mission.check_options, go to run_mission. A key left out takes its default."""
    scenario: Scenario
    slam: SlamConfig
    solve_every: int = DEFAULT_SOLVE_EVERY
    eps_prior: float = DEFAULT_EPS_PRIOR
    headings: int = PlannerState.headings

    def __post_init__(self):
        check_options(self.solve_every, self.eps_prior, self.headings)


def _num(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UnitError(f"'{key}' must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or an int beyond float
        raise UnitError(f"'{key}' must be finite")
    return float(value)


def _intval(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"'{key}' must be an integer, got {value!r}")
    return value


def _bool(value, key):
    if not isinstance(value, bool):
        raise ParseError(f"'{key}' must be true or false, got {value!r}")
    return value


def _point(record):
    """Parser of a point given as the list of its coordinates, e.g. [x, y, z]
    for a Vec3."""
    names = [f.name for f in fields(record)]

    def parse(value, key):
        if not isinstance(value, list) or len(value) != len(names):
            raise ParseError(f"'{key}' must be a {len(names)}-element list [{', '.join(names)}]")
        return record(*(_num(v, key) for v in value))
    return parse


def _list(item):
    """Parser of a list whose entries `item` parses; gives a tuple."""
    def parse(value, key):
        if not isinstance(value, list):
            raise ParseError(f"'{key}' must be a list")
        return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))
    return parse


def _section(parsers, required=(), build=dict):
    """Parser of a mapping section whose keys `parsers` lists: it rejects a
    value that is not a mapping, unknown keys and missing required keys, and
    passes each key's parsed value to `build` as a keyword. A bare `section:`
    line (null) is an empty section. The document itself is the section
    named ""; the keys of a section named s are named s.key."""
    def parse(value, where=""):
        section = f"'{where}'" if where else "the config document"
        value = {} if value is None else value
        if not isinstance(value, dict):
            raise ParseError(f"{section} must be a mapping")
        unknown = sorted(map(str, set(value).difference(parsers)))
        if unknown:
            raise UnknownKey(f"unknown key(s) in {section}: {', '.join(unknown)}")
        prefix = f"{where}." if where else ""
        for key in required:
            if key not in value:
                raise ParseError(f"missing required key '{prefix}{key}'")
        return build(**{key: parsers[key](v, prefix + key) for key, v in value.items()})
    return parse


# The config schema: the parser of each key of every section, which checks
# its type only. Ranges are checked by their owners: validate_scenario for
# the scenario, RunConfig for the `solver:` and `planner:` options.
_SOLVER_KEYS = {"sigma_tau": _num, "huber_delta": _num, "tol_step": _num, "eps_prior": _num,
                "max_iter": _intval, "solve_every": _intval, "per_distance_weights": _bool}
_PLANNER_KEYS = {"headings": _intval}
_NOISE_SECTION = _section(
    {"kind": lambda value, key: value,  # validate_scenario checks it names a kind
     "sigma0": _num, "amp": _num, "scale": _num, "drift_rate": _num,
     "drift_reset_period": _intval, "nlos_scale": _num}, build=ToaNoiseModel)
_BUILDING = _section({"min": _point(Vec3), "max": _point(Vec3)}, required=("min", "max"),
                     build=lambda **c: AxisBox(c["min"], c["max"]))
_DOCUMENT = _section(
    {"users": _list(_point(Vec2)), "uav_start": _point(Vec3), "uav_terminal": _point(Vec3),
     "mission_steps": _intval, "d_max": _num, "delta_keep": _num, "sigma_gps": _num,
     "toa_noise": _NOISE_SECTION, "numerology": _intval, "sample_rate": _num,
     "buildings": _list(_BUILDING), "seed": _intval,
     "solver": _section(_SOLVER_KEYS), "planner": _section(_PLANNER_KEYS)},
    required=("users", "uav_start", "uav_terminal", "mission_steps"))


def parse_run_config(text: str, seed: int | None = None) -> RunConfig:
    """Parse a full run-config document (scenario + solver/planner options);
    an option RunConfig refuses raises InvalidParam naming its config key.
    A seed, where given, replaces the document's before the scenario is checked."""
    try:
        doc = yaml.load(text, Loader=_StrictLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ParseError(f"invalid YAML at line {mark.line + 1}, column {mark.column + 1}: "
                         f"{exc.problem}") from exc
    except yaml.YAMLError as exc:  # a character YAML does not allow; no line to name
        raise ParseError(f"invalid YAML: {str(exc).splitlines()[0]}") from exc
    kw = _DOCUMENT(doc)
    solver, planner = kw.pop("solver", {}), kw.pop("planner", {})
    if seed is not None:
        kw["seed"] = seed
    scenario = validate_scenario(Scenario(**kw))
    mission_opts = {key: solver.pop(key) for key in ("solve_every", "eps_prior") if key in solver}
    try:
        return RunConfig(scenario=scenario, slam=SlamConfig.for_scenario(scenario, **solver),
                         **mission_opts, **planner)
    except InvalidParam as exc:  # the owner names its own field
        key = "planner.headings" if exc.field == "planner_headings" else f"solver.{exc.field}"
        raise InvalidParam(key, exc.reason) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document, applying documented defaults."""
    return parse_run_config(text).scenario


def _plain(value):
    """A scenario value as plain YAML data: a record as the mapping of its
    fields (a point as the list of its coordinates, a building as its min/max
    corners), a tuple as a list, and numpy scalars as int or float."""
    if isinstance(value, AxisBox):
        value = {"min": value.min_corner, "max": value.max_corner}
    elif isinstance(value, (Vec2, Vec3)):
        value = astuple(value)
    elif is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, str):
        return value
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def serialize_scenario(s: Scenario) -> str:
    """YAML form of a scenario; parse_scenario(serialize_scenario(s)) == s."""
    return yaml.safe_dump(_plain(s), sort_keys=False)


def _fmt(x) -> str:
    return repr(float(x))


def _first_inconsistent(log: MeasurementLog):
    """Index and message of the first row of a parsed log that breaks a row
    rule of read_measurement_log; None if there is none. At the first bad
    row every row before it is valid, so the duplicate and GPS tests of each
    row against the rows before it agree with reading row by row. The tests
    read the log's index layout, which the returned log then carries."""
    finite = np.isfinite(np.column_stack([log.gps, log.toa]))
    _, first_of_pair = np.unique(log.pose * len(log) + log.user, return_index=True)
    repeated = np.ones(len(log), dtype=bool)
    repeated[first_of_pair] = False
    # rule masks in the order a row is checked: a row that breaks two rules
    # reports the first
    rules = [~finite.all(axis=1), log.toa < 0, (log.step < 1) | (log.user_id < 1), repeated,
             np.any(log.gps != log.pose_gps[log.pose], axis=1)]
    bad = [(int(np.argmax(m)), r) for r, m in enumerate(rules) if m.any()]
    if not bad:
        return None
    i, rule = min(bad)
    step, user_id = int(log.step[i]), int(log.user_id[i])
    return i, [f"{LOG_HEADER[2 + int(np.argmin(finite[i]))]} must be finite",
               "toa_s must be >= 0", "step and user_id must be >= 1",
               f"duplicate row for step {step}, user_id {user_id}",
               f"GPS fix differs from the first one given for step {step}"][rule]


# A log row as np.loadtxt reads it. numpy parses a float field with
# PyOS_string_to_double, the routine float() calls, and an int field as
# int() does for the spellings it accepts.
_LOG_ROW = np.dtype([("step", np.int64), ("user_id", np.int64), ("gps", np.float64, 3),
                     ("toa", np.float64)])


def _log_of(rows) -> MeasurementLog:
    """The columns of an array of _LOG_ROW records."""
    return MeasurementLog(step=rows["step"].copy(), user_id=rows["user_id"].copy(),
                          gps=rows["gps"].copy(), toa=rows["toa"].copy())


def _loaded(body: str):
    """The columns of a log body, header removed, as np.loadtxt reads them
    in one pass; None where the row path must read the body instead. numpy
    refuses some spellings int() and float() accept (1_0, non-ASCII
    digits), and skips blank lines as the row path does. It refuses every
    field they refuse, save one holding a separator \\x1c-\\x1f, which numpy
    strips as space: a body holding one is left to the row path unread. So
    is a body of blank lines only, on which numpy warns that it holds no
    data, and one with more than csv's field size limit of characters
    between two commas: a field numpy reads holds no comma, and csv refuses
    a field that long (a quoted field may span lines)."""
    limit = csv.field_size_limit()
    if (not body.strip("\r\n") or any(c in body for c in "\x1c\x1d\x1e\x1f")
            or (len(body) > limit and max(map(len, body.split(","))) > limit)):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=_LOG_ROW, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)
    except ValueError:
        return None
    return _log_of(rows)


def csv_refusal(exc: csv.Error) -> str:
    """Why csv refused a record; a lone carriage return is named here, not by
    csv's advice about open(), which varies with the Python version."""
    if str(exc).startswith("new-line character"):
        return ("a carriage return outside a quoted field is not a line ending here "
                "(use LF or CRLF)")
    return str(exc)  # e.g. a field over csv's size limit


def _read_rows(reader) -> MeasurementLog:
    """The row path of read_measurement_log: one walk over the csv records
    after the header, numbered from 2, blank ones skipped, that converts
    each field once, by int() or float(). It stops at the first record that
    csv cannot read (a lone carriage return, a field over csv's size limit),
    that does not hold 6 fields, that int() or float() refuses, or with an id
    outside int64. A rule broken before the stop is the first bad row."""
    numbers, rows, error = [], [], None
    n = 1
    try:
        for n, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(LOG_HEADER):
                error = n, f"expected {len(LOG_HEADER)} fields, got {len(record)}"
                break
            try:
                step, user_id = int(record[0]), int(record[1])
                x, y, z, toa = map(float, record[2:])
            except ValueError as exc:
                error = n, str(exc)
                break
            if not all(-2 ** 63 <= v < 2 ** 63 for v in (step, user_id)):
                error = n, "step and user_id must fit in a 64-bit integer"
                break
            numbers.append(n)
            rows.append((step, user_id, (x, y, z), toa))
    except csv.Error as exc:
        error = n + 1, csv_refusal(exc)
    log = _log_of(np.array(rows, dtype=_LOG_ROW))
    inconsistent = _first_inconsistent(log)
    if inconsistent is not None:
        error = numbers[inconsistent[0]], inconsistent[1]
    if error is not None:
        raise RowError(*error)
    return log


def read_measurement_log(text: str) -> MeasurementLog:
    """Parse a measurement-log CSV; the header must match the schema exactly.

    Each row must hold finite numbers, a step and user_id >= 1 that fit in
    int64, toa_s >= 0, a (step, user_id) pair not given before, and for its
    step the same GPS fix as the step's first row; a RowError names the
    first row that does not, or that csv cannot read. Blank lines are
    skipped but count in the row numbers.

    np.loadtxt reads the body after the header in one pass, and its values
    equal int()'s and float()'s bit for bit. Only a body numpy refuses, or
    whose rows break a rule, is read again by the row path: one walk over
    the csv records that converts each field once, by int() or float(), and
    stops at the first record it cannot convert. The row path defines the
    accepted grammar (it also reads spellings numpy refuses, such as 1_0 and
    non-ASCII digits) and numbers the rows for the RowError.
    """
    f = io.StringIO(text)
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("missing header row") from None
    except csv.Error as exc:
        raise SchemaError(f"unreadable header row: {csv_refusal(exc)}") from None
    if header != LOG_HEADER:
        raise SchemaError(f"header must be exactly {','.join(LOG_HEADER)}")
    start = f.tell()
    body = f.read()
    log = _loaded(body)
    if log is not None and _first_inconsistent(log) is None:
        return log
    f.seek(start)
    return _read_rows(reader)


def write_measurement_log(samples) -> str:
    """The CSV of a MeasurementLog or a list of MeasurementSample, rows sorted
    by (step, user_id)."""
    log = MeasurementLog.of(samples)
    order = np.lexsort((log.user_id, log.step))
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(LOG_HEADER)
    rows = zip(log.step[order].tolist(), log.user_id[order].tolist(),
               log.gps[order].tolist(), log.toa[order].tolist())
    w.writerows([step, user_id, *map(_fmt, gps), _fmt(toa)] for step, user_id, gps, toa in rows)
    return out.getvalue()


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> str:
    """Write a header and rows to the CSV file out_dir/name; returns its path."""
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def write_crb_history(history, out_dir: str) -> str:
    """Write crb_history.csv, the CRB trace (m^2) after each step, into
    out_dir; returns its path."""
    return _write_csv(out_dir, "crb_history.csv", ["step", "crb_trace_m2"],
                      ([n, _fmt(v)] for n, v in enumerate(history, start=1)))


def export_results(result: MissionResult, scenario: Scenario, out_dir: str) -> list[str]:
    """Write trajectory.csv, users.csv, crb_history.csv, metrics.json and
    measurements.csv into out_dir; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    est = {n: [_fmt(v) for v in e] for n, e in zip(result.retained_steps, result.uav_estimates)}
    trajectory = ([n, *map(_fmt, true), *map(_fmt, gps), *est.get(n, ["", "", ""])]
                  for n, (true, gps) in enumerate(zip(result.planned, result.gps), start=1))
    users = ([k, _fmt(u.x), _fmt(u.y), *map(_fmt, e), _fmt(err)]
             for k, (u, e, err) in enumerate(zip(scenario.users, result.user_estimates,
                                                 result.metrics.user_abs_errors), start=1))
    written = [
        _write_csv(out_dir, "trajectory.csv", ["step", "true_x", "true_y", "true_z", "gps_x",
                                               "gps_y", "gps_z", "est_x", "est_y", "est_z"],
                   trajectory),
        _write_csv(out_dir, "users.csv",
                   ["user_id", "true_x", "true_y", "est_x", "est_y", "abs_error_m"], users),
        write_crb_history(result.crb_history, out_dir),
    ]

    path = os.path.join(out_dir, "metrics.json")
    with open(path, "w") as f:
        json.dump({
            "user_abs_errors_m": list(result.metrics.user_abs_errors),
            "user_rmse_m": result.metrics.user_rmse,
            "uav_rmse_est_m": result.metrics.uav_rmse_est,
            "uav_rmse_gps_m": result.metrics.uav_rmse_gps,
            "final_crb_trace_m2": float(result.crb_history[-1]),
            "converged": result.converged,
            "retained_steps": list(result.retained_steps),
        }, f, indent=2)
        f.write("\n")
    written.append(path)

    path = os.path.join(out_dir, "measurements.csv")
    with open(path, "w", newline="") as f:
        f.write(write_measurement_log(result.samples))
    written.append(path)
    return written
