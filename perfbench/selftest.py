"""Self-test of the benchmark's oracles and checks.

    python3 perfbench/selftest.py

Each oracle is compared with a second computation of the same quantity, and
each workload check is fed a planted wrong answer that it must reject.
Exits 1 if any test fails. Takes a few seconds.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import oracles, workloads  # noqa: E402
from uavloc import fim, planner, slam  # noqa: E402
from uavloc.model import MeasurementSample  # noqa: E402


def small_log(seed=0):
    wl = workloads.LogBatchSolve()
    wl.logs, wl.poses, wl.users = 1, 24, 4
    inp = wl.make_inputs(seed)[0]
    return wl, inp, wl.run(inp)


def test_gradient_matches_finite_differences():
    _, inp, (_, init, _, _) = small_log()
    data = oracles.LogData(inp["rows"])
    sg, st = workloads.SIGMA_GPS, workloads.SIGMA_TAU
    _, gp, gu = oracles.log_objective_and_grad(data, init.uav, init.users, sg, st)
    for which, idx, analytic in (("uav", (3, 1), gp[3, 1]), ("users", (2, 0), gu[2, 0])):
        h = 1e-5
        plus = {"uav": init.uav.copy(), "users": init.users.copy()}
        minus = {"uav": init.uav.copy(), "users": init.users.copy()}
        plus[which][idx] += h
        minus[which][idx] -= h
        fp = oracles.log_objective_and_grad(data, plus["uav"], plus["users"], sg, st)[0]
        fm = oracles.log_objective_and_grad(data, minus["uav"], minus["users"], sg, st)[0]
        numeric = (fp - fm) / (2 * h)
        assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(analytic)), (which, numeric, analytic)


def test_objective_matches_program():
    _, inp, (samples, init, _, _) = small_log()
    data = oracles.LogData(inp["rows"])
    f = oracles.log_objective_and_grad(data, init.uav, init.users,
                                       workloads.SIGMA_GPS, workloads.SIGMA_TAU)[0]
    cfg = slam.SlamConfig(sigma_gps=workloads.SIGMA_GPS, sigma_tau=workloads.SIGMA_TAU)
    assert abs(slam.objective(init, samples, cfg) - f) <= 1e-9 * f


def test_log_check_accepts_the_program_and_rejects_planted_answers():
    wl, inp, out = small_log()
    samples, init, state, report = out
    assert wl.check(inp, out) == [], wl.check(inp, out)

    nudged = state.copy()
    nudged.users[1] += 0.5  # half a meter off the minimum
    assert any("gradient" in p for p in wl.check(inp, (samples, init, nudged, report)))

    far = state.copy()
    crb = oracles.user_crb(inp["path"], inp["users"], workloads.SIGMA_TAU)
    far.users[0] += 2 * workloads.CRB_MULTIPLE * np.sqrt(crb[0])
    assert any("sqrt(CRB)" in p for p in wl.check(inp, (samples, init, far, report)))
    assert any("at the truth" in p for p in wl.check(inp, (samples, init, init, report)))

    m = samples[5]
    tampered = list(samples)
    tampered[5] = MeasurementSample(m.step, m.user_id, m.gps_pos, m.toa * (1 + 1e-12))
    assert any("parsed rows" in p for p in wl.check(inp, (tampered, init, state, report)))


def test_user_crb_matches_program_fim():
    rng = np.random.default_rng(4)
    users = rng.uniform(-40, 40, (3, 2))
    path = np.column_stack([np.linspace(-30, 30, 12), rng.uniform(-5, 5, 12), np.full(12, 30.0)])
    ours = oracles.user_crb(path, users, workloads.SIGMA_TAU)
    for k in range(len(users)):
        info = fim.initial_info(1, eps_prior=0.0)
        for x in path:
            info = fim.accumulate(info, fim.step_contribution(
                x, users[k:k + 1], workloads.OnlineGreedyNr.noise))
        assert abs(fim.crb_trace(info) - ours[k]) <= 1e-9 * ours[k]
    blocks = oracles.user_fim_blocks(path, users, workloads.SIGMA_TAU)
    dense = np.trace(np.linalg.inv(blocks), axis1=1, axis2=2)
    assert np.allclose(oracles.trace_inv_2x2(blocks), dense, rtol=1e-12)


def test_candidate_gains_match_greedy_cost():
    wl = workloads.PlanQueries()
    wl.flights, wl.per_flight = 1, 5
    for st in wl.make_inputs(3):
        cands = wl.ring(st.pos)
        blocks = np.array([st.info.fim[2 * j:2 * j + 2, 2 * j:2 * j + 2]
                           for j in range(wl.users)])
        ours = oracles.candidate_gains(blocks, st.info.eps_prior, cands,
                                       st.user_estimates, workloads.SIGMA_TAU)
        for c, g in zip(cands, ours):
            cost = planner.greedy_cost(c, st)
            if np.isfinite(cost):
                assert abs(cost - g) <= 1e-9 * abs(g) + 1e-15, (cost, g)


def test_plan_check_rejects_planted_answers():
    wl = workloads.PlanQueries()
    wl.flights, wl.per_flight = 2, 20
    states = wl.make_inputs(5)
    caught = {"worse": 0, "off_ring": 0, "infeasible": 0, "fallback": 0}
    for st in states:
        wp = planner.next_waypoint(st)
        assert wl.check(st, wp) == [], wl.check(st, wp)
        cands = wl.ring(st.pos)
        slack = wl.d_max * (st.mission_steps - st.step - 1)
        feasible = np.linalg.norm(cands - wl.terminal, axis=1) <= slack + 1e-9
        caught["off_ring"] += bool(wl.check(st, wp + np.array([0.3, 0.0, 0.0])))
        if not feasible.all() and feasible.any():
            caught["infeasible"] += bool(wl.check(st, cands[np.argmin(feasible)]))
        if not feasible.any():
            caught["fallback"] += bool(wl.check(st, cands[-1]))
        if feasible.sum() >= 2:
            blocks = np.array([st.info.fim[2 * j:2 * j + 2, 2 * j:2 * j + 2]
                               for j in range(wl.users)])
            gains = oracles.candidate_gains(blocks, st.info.eps_prior, cands[feasible],
                                            st.user_estimates, workloads.SIGMA_TAU)
            if gains.min() < gains.max() * (1 - 1e-3):
                caught["worse"] += bool(wl.check(st, cands[feasible][np.argmin(gains)]))
    assert caught["off_ring"] == len(states), caught
    assert min(caught.values()) > 0, caught


def test_mission_check_rejects_planted_answers():
    wl = workloads.OnlineGreedyNr()
    wl.missions, wl.steps, wl.users = 1, 14, 3
    s = wl.make_inputs(2)[0]
    res = wl.run(s)
    assert wl.check(s, res) == [], wl.check(s, res)

    bad = copy.deepcopy(res)
    bad.planned[5, 0] += 6.0
    assert any("d_max" in p for p in wl.check(s, bad))
    bad = copy.deepcopy(res)
    bad.planned[-1, 1] += 1e-3
    assert any("terminal" in p for p in wl.check(s, bad))
    bad = copy.deepcopy(res)
    bad.crb_history[7] = bad.crb_history[6] * 1.01
    assert any("CRB history" in p for p in wl.check(s, bad))
    bad = dataclasses.replace(res, samples=res.samples[:-1])
    assert any("sample count" in p for p in wl.check(s, bad))

    _, ratios, _ = wl.accuracy([s], [res])
    shifted = dataclasses.replace(res, user_estimates=res.user_estimates + 100.0)
    _, far, _ = wl.accuracy([s], [shifted])
    assert min(far) > workloads.CRB_MULTIPLE > np.median(ratios)


def test_host_scaling_uses_the_nearby_kernel_timings():
    from perfbench import run
    host = run.HostSpeed()
    host.at, host.took = [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0]
    # with a 0.5 s window each 1 s operation sees the kernels at its two ends
    assert run.REF_WINDOW_S == 0.5
    assert np.allclose(host.scale([1.0, 1.0, 1.0]), [1.0, 1.0 / 1.5, 0.5])
    # the same work on a host twice as slow reads the same once scaled
    slow = run.HostSpeed()
    slow.at, slow.took = [0.0, 2.0, 4.0, 6.0], [2.0, 2.0, 4.0, 4.0]
    assert np.allclose(slow.scale([2.0, 2.0, 2.0]), host.scale([1.0, 1.0, 1.0]))


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
