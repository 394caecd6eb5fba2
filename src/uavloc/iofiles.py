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
from dataclasses import dataclass, field

import yaml

from .errors import ParseError, RowError, SchemaError, UnitError, UnknownKey
from .mission import MissionResult
from .model import AxisBox, MeasurementSample, Scenario, ToaNoiseModel, Vec2, Vec3

LOG_HEADER = ["step", "user_id", "gps_x", "gps_y", "gps_z", "toa_s"]

_SCENARIO_KEYS = {"users", "uav_start", "uav_terminal", "mission_steps", "d_max",
                  "delta_keep", "sigma_gps", "toa_noise", "numerology",
                  "sample_rate", "buildings", "seed"}
_NOISE_KEYS = {"kind", "sigma0", "amp", "scale", "drift_rate",
               "drift_reset_period", "nlos_scale"}
_SOLVER_KEYS = {"sigma_tau", "per_distance_weights", "huber_delta", "tol_step",
                "max_iter", "solve_every", "eps_prior"}
_PLANNER_KEYS = {"headings"}


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


@dataclass
class RunConfig:
    """Scenario plus solver/planner options from one config document."""
    scenario: Scenario
    solver: dict = field(default_factory=dict)
    planner: dict = field(default_factory=dict)


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


def _vec3(value, key):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ParseError(f"'{key}' must be a 3-element list [x, y, z]")
    return Vec3(*(_num(v, key) for v in value))


def _vec2(value, key):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"'{key}' must be a 2-element list [x, y]")
    return Vec2(*(_num(v, key) for v in value))


def _check_keys(doc, allowed, where):
    unknown = set(doc) - allowed
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

    solver = doc.get("solver", {}) or {}
    planner = doc.get("planner", {}) or {}
    if not isinstance(solver, dict):
        raise ParseError("'solver' must be a mapping")
    if not isinstance(planner, dict):
        raise ParseError("'planner' must be a mapping")
    _check_keys(solver, _SOLVER_KEYS, "solver")
    _check_keys(planner, _PLANNER_KEYS, "planner")
    return RunConfig(scenario=Scenario(**kw), solver=dict(solver), planner=dict(planner))


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


def export_results(result: MissionResult, scenario: Scenario, out_dir: str) -> list[str]:
    """Write trajectory.csv, users.csv, crb_history.csv, metrics.json and
    measurements.csv into out_dir; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    retained = set(result.retained_steps)
    est_by_step = dict(zip(result.retained_steps, result.uav_estimates))

    path = os.path.join(out_dir, "trajectory.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["step", "true_x", "true_y", "true_z",
                    "gps_x", "gps_y", "gps_z", "est_x", "est_y", "est_z"])
        for n in range(1, len(result.planned) + 1):
            row = [n] + [_fmt(v) for v in result.planned[n - 1]] \
                      + [_fmt(v) for v in result.gps[n - 1]]
            if n in retained:
                row += [_fmt(v) for v in est_by_step[n]]
            else:
                row += ["", "", ""]
            w.writerow(row)
    written.append(path)

    path = os.path.join(out_dir, "users.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["user_id", "true_x", "true_y", "est_x", "est_y", "abs_error_m"])
        for k, u in enumerate(scenario.users, start=1):
            est = result.user_estimates[k - 1]
            w.writerow([k, _fmt(u.x), _fmt(u.y), _fmt(est[0]), _fmt(est[1]),
                        _fmt(result.metrics.user_abs_errors[k - 1])])
    written.append(path)

    path = os.path.join(out_dir, "crb_history.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["step", "crb_trace_m2"])
        for n, v in enumerate(result.crb_history, start=1):
            w.writerow([n, _fmt(v)])
    written.append(path)

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
