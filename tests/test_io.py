import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from uavloc.cli import main
from uavloc.errors import ParseError, RowError, SchemaError, UnknownKey
from uavloc.iofiles import (LOG_HEADER, export_results, parse_run_config,
                            parse_scenario, read_measurement_log,
                            serialize_scenario, write_measurement_log)
from uavloc.mission import run_mission
from uavloc.model import (AxisBox, MeasurementSample, Scenario, ToaNoiseModel,
                          Vec2, Vec3)

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
    assert rc.solver == {"max_iter": 30, "solve_every": 5}
    assert rc.planner == {"headings": 16}
    with pytest.raises(UnknownKey):
        parse_run_config(MINIMAL + "solver: {step_size: 1}\n")


def test_buildings_parse():
    s = parse_scenario(MINIMAL + "buildings:\n"
                                 "  - {min: [5, -5, 0], max: [15, 5, 50]}\n")
    assert s.buildings == (AxisBox(Vec3(5, -5, 0), Vec3(15, 5, 50)),)


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
    assert back == sorted(samples, key=lambda m: (m.step, m.user_id))
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
    assert back == sorted(res.samples, key=lambda m: (m.step, m.user_id))

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


def test_cli_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL + "warp_speed: 9\n")
    assert main(["simulate", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--scenario", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


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
            and (key != "fim" or bool(np.array_equal(arr, arr.T))))


@st.composite
def malformed_state(draw):
    kind = draw(st.sampled_from(["drop", "replace", "not_object", "coupled", "asymmetric"]))
    if kind == "not_object":
        return json.dumps(draw(st.one_of(st.lists(st.integers(), max_size=3),
                                         st.integers(), st.text(max_size=5), st.none())))
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
def test_cli_plan_malformed_state_exits_2(tmp_path, scenario_file, text):
    rc, err = _plan_exit(tmp_path, scenario_file, text)
    assert rc == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("traj, users", [
    ("step,x,y,z\n1,50,0\n", "user_id,x,y\n1,0,0\n"),
    ("step,x,y,z\n1,50,0,30\n", "user_id,x,y\n1,0\n"),
    ("step,x,y,z\n1,50,0,abc\n", "user_id,x,y\n1,0,0\n"),
    ("step,x,y,z\n1,50,0,nan\n", "user_id,x,y\n1,0,0\n"),
    ("step,x,y,z\n", "user_id,x,y\n1,0,0\n"),
], ids=["short_trajectory_row", "short_users_row", "non_numeric", "non_finite", "no_rows"])
def test_cli_crb_malformed_csv_exits_2(tmp_path, scenario_file, capsys, traj, users):
    tp = tmp_path / "traj.csv"
    tp.write_text(traj)
    up = tmp_path / "users.csv"
    up.write_text(users)
    assert main(["crb", "--scenario", scenario_file, "--trajectory", str(tp),
                 "--users", str(up)]) == 2
    assert "Traceback" not in capsys.readouterr().err
