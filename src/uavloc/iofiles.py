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
import math
import os
from dataclasses import dataclass

import yaml

from .errors import ParseError, RowError, SchemaError, UnitError, UnknownKey
from .mission import MissionResult
from .model import AxisBox, MeasurementSample, Scenario, ToaNoiseModel, Vec2, Vec3
from .slam import SlamConfig

LOG_HEADER = ["step", "user_id", "gps_x", "gps_y", "gps_z", "toa_s"]

_SCENARIO_KEYS = {"users", "uav_start", "uav_terminal", "mission_steps", "d_max",
                  "delta_keep", "sigma_gps", "toa_noise", "numerology",
                  "sample_rate", "buildings", "seed"}
_NOISE_KEYS = {"kind", "sigma0", "amp", "scale", "drift_rate",
               "drift_reset_period", "nlos_scale"}


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate mapping keys."""


def _strict_mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise ParseError(f"duplicated key '{key}' at line {key_node.start_mark.line + 1}")
        seen.add(key)
    return yaml.SafeLoader.construct_mapping(loader, node, deep)


_StrictLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG,
                              _strict_mapping)


@dataclass(frozen=True)
class RunConfig:
    """A config document's scenario and its checked `solver:`/`planner:`
    options. slam holds the scenario's sigma_gps and toa_noise and the solver
    keys (sigma_tau defaults to toa_noise.sigma0); solve_every, eps_prior and
    headings go to the mission and planner. Keys left out take the defaults
    given here and in SlamConfig."""
    scenario: Scenario
    slam: SlamConfig
    solve_every: int = 1
    eps_prior: float = 1e-6
    headings: int = 8


def _num(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UnitError(f"'{key}' must be a number, got {value!r}")
    v = float(value)
    if v != v or v in (float("inf"), float("-inf")):
        raise UnitError(f"'{key}' must be finite")
    return v


def _intval(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"'{key}' must be an integer, got {value!r}")
    return value


def _bool(value, key):
    if not isinstance(value, bool):
        raise ParseError(f"'{key}' must be true or false, got {value!r}")
    return value


def _at_least(parse, low, strict=False):
    """A parser that also rejects values below `low` (or equal to it if strict)."""
    def check(value, key):
        v = parse(value, key)
        if v < low or (strict and v == low):
            raise ParseError(f"'{key}' must be {'>' if strict else '>='} {low}, got {value!r}")
        return v
    return check


_POSITIVE = _at_least(_num, 0, strict=True)
# the parser of each key of the `solver:` and `planner:` sections
_SOLVER_KEYS = {"sigma_tau": _POSITIVE, "huber_delta": _POSITIVE, "tol_step": _POSITIVE,
                "eps_prior": _at_least(_num, 0), "max_iter": _at_least(_intval, 1),
                "solve_every": _at_least(_intval, 0), "per_distance_weights": _bool}
_PLANNER_KEYS = {"headings": _at_least(_intval, 1)}


def _vec3(value, key):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ParseError(f"'{key}' must be a 3-element list [x, y, z]")
    return Vec3(*(_num(v, key) for v in value))


def _vec2(value, key):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"'{key}' must be a 2-element list [x, y]")
    return Vec2(*(_num(v, key) for v in value))


def _check_keys(doc, allowed, where):
    unknown = set(doc).difference(allowed)
    if unknown:
        raise UnknownKey(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _parse_noise(doc) -> ToaNoiseModel:
    if not isinstance(doc, dict):
        raise ParseError("'toa_noise' must be a mapping")
    _check_keys(doc, _NOISE_KEYS, "toa_noise")
    kw = {}
    if "kind" in doc:
        if doc["kind"] not in ("constant", "exponential"):
            raise ParseError("toa_noise.kind must be 'constant' or 'exponential'")
        kw["kind"] = doc["kind"]
    for key in ("sigma0", "amp", "scale", "drift_rate", "nlos_scale"):
        if key in doc:
            kw[key] = _num(doc[key], f"toa_noise.{key}")
    if "drift_reset_period" in doc:
        kw["drift_reset_period"] = _intval(doc["drift_reset_period"],
                                           "toa_noise.drift_reset_period")
    return ToaNoiseModel(**kw)


def _parse_options(doc, section, parsers) -> dict:
    """The checked value of each key given in one options section."""
    opts = doc.get(section)
    if opts is None:  # absent, or a bare `solver:` line
        return {}
    if not isinstance(opts, dict):
        raise ParseError(f"'{section}' must be a mapping")
    _check_keys(opts, parsers, section)
    return {key: parsers[key](value, f"{section}.{key}") for key, value in opts.items()}


def parse_run_config(text: str) -> RunConfig:
    """Parse a full run-config document (scenario + solver/planner options)."""
    try:
        doc = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config document must be a mapping")
    _check_keys(doc, _SCENARIO_KEYS | {"solver", "planner"}, "config")

    for key in ("users", "uav_start", "uav_terminal", "mission_steps"):
        if key not in doc:
            raise ParseError(f"missing required key '{key}'")
    users_doc = doc["users"]
    if not isinstance(users_doc, list) or not users_doc:
        raise ParseError("'users' must be a nonempty list of [x, y] pairs")
    users = tuple(_vec2(u, f"users[{i}]") for i, u in enumerate(users_doc))

    kw = dict(users=users,
              uav_start=_vec3(doc["uav_start"], "uav_start"),
              uav_terminal=_vec3(doc["uav_terminal"], "uav_terminal"),
              mission_steps=_intval(doc["mission_steps"], "mission_steps"))
    for key in ("d_max", "delta_keep", "sigma_gps", "sample_rate"):
        if key in doc:
            kw[key] = _num(doc[key], key)
    for key in ("numerology", "seed"):
        if key in doc:
            kw[key] = _intval(doc[key], key)
    if "toa_noise" in doc:
        kw["toa_noise"] = _parse_noise(doc["toa_noise"])
    if "buildings" in doc:
        if not isinstance(doc["buildings"], list):
            raise ParseError("'buildings' must be a list")
        boxes = []
        for i, b in enumerate(doc["buildings"]):
            if not isinstance(b, dict):
                raise ParseError(f"buildings[{i}] must be a mapping with 'min'/'max'")
            _check_keys(b, {"min", "max"}, f"buildings[{i}]")
            if "min" not in b or "max" not in b:
                raise ParseError(f"buildings[{i}] needs 'min' and 'max' corners")
            boxes.append(AxisBox(_vec3(b["min"], f"buildings[{i}].min"),
                                 _vec3(b["max"], f"buildings[{i}].max")))
        kw["buildings"] = tuple(boxes)

    scenario = Scenario(**kw)
    solver = _parse_options(doc, "solver", _SOLVER_KEYS)
    planner = _parse_options(doc, "planner", _PLANNER_KEYS)
    mission_opts = {key: solver.pop(key) for key in ("solve_every", "eps_prior") if key in solver}
    slam = SlamConfig(sigma_gps=scenario.sigma_gps,
                      sigma_tau=solver.pop("sigma_tau", scenario.toa_noise.sigma0),
                      noise_model=scenario.toa_noise, **solver)
    return RunConfig(scenario=scenario, slam=slam, **mission_opts, **planner)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document, applying documented defaults."""
    return parse_run_config(text).scenario


def serialize_scenario(s: Scenario) -> str:
    """YAML form of a scenario; parse_scenario(serialize_scenario(s)) == s."""
    noise = s.toa_noise
    # coerce through float() so numpy scalars stored in the dataclasses
    # serialize as plain YAML numbers
    doc = {
        "users": [[float(u.x), float(u.y)] for u in s.users],
        "uav_start": [float(v) for v in (s.uav_start.x, s.uav_start.y, s.uav_start.z)],
        "uav_terminal": [float(v) for v in (s.uav_terminal.x, s.uav_terminal.y,
                                            s.uav_terminal.z)],
        "mission_steps": int(s.mission_steps),
        "d_max": float(s.d_max),
        "delta_keep": float(s.delta_keep),
        "sigma_gps": float(s.sigma_gps),
        "numerology": int(s.numerology),
        "sample_rate": float(s.sample_rate),
        "seed": int(s.seed),
        "toa_noise": {
            "kind": noise.kind, "sigma0": float(noise.sigma0),
            "amp": float(noise.amp), "scale": float(noise.scale),
            "drift_rate": float(noise.drift_rate),
            "drift_reset_period": int(noise.drift_reset_period),
            "nlos_scale": float(noise.nlos_scale),
        },
        "buildings": [{"min": [float(v) for v in (b.min_corner.x, b.min_corner.y,
                                                  b.min_corner.z)],
                       "max": [float(v) for v in (b.max_corner.x, b.max_corner.y,
                                                  b.max_corner.z)]}
                      for b in s.buildings],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def _fmt(x) -> str:
    return repr(float(x))


def read_measurement_log(text: str) -> list[MeasurementSample]:
    """Parse a measurement-log CSV; the header must match the schema exactly.

    Each row must hold finite numbers, a step and user_id >= 1, toa_s >= 0,
    a (step, user_id) pair not given before, and for its step the same GPS
    fix as the step's first row; a RowError names the first row that does not.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("missing header row") from None
    if header != LOG_HEADER:
        raise SchemaError(f"header must be exactly {','.join(LOG_HEADER)}")
    samples = []
    seen = set()      # (step, user_id) of the rows so far
    gps_of_step = {}  # the first GPS fix given for each step
    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(LOG_HEADER):
            raise RowError(rownum, f"expected {len(LOG_HEADER)} fields, got {len(row)}")
        try:
            step, user_id = int(row[0]), int(row[1])
            values = tuple(map(float, row[2:]))
        except ValueError as exc:
            raise RowError(rownum, str(exc)) from None
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
        samples.append(MeasurementSample(step=step, user_id=user_id,
                                         gps_pos=Vec3(*gps), toa=toa))
    return samples


def write_measurement_log(samples: list[MeasurementSample]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(LOG_HEADER)
    for m in sorted(samples, key=lambda m: (m.step, m.user_id)):
        w.writerow([m.step, m.user_id, _fmt(m.gps_pos.x), _fmt(m.gps_pos.y),
                    _fmt(m.gps_pos.z), _fmt(m.toa)])
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
