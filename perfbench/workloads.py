"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of operation inputs
(`make_inputs`, one round; `round_s` is about the wall time of a round on
the machine of the README's figures and sets how many rounds a run makes),
runs one operation through the package's public functions (`run`), checks
an output against the oracles (`check`), and summarizes
accuracy over a list of outputs (`accuracy`). The package's functions are
always called through their module attribute (`mission.run_mission`, not a
name imported from it), so that a traced run sees every call.
"""
from __future__ import annotations

import math
import statistics

import numpy as np

from uavloc import iofiles, mission, planner, slam
from uavloc.channel import RngStream
from uavloc.errors import NotConverged
from uavloc.fim import InfoState
from uavloc.model import AxisBox, Scenario, ToaNoiseModel, Vec2, Vec3

from . import oracles

SIGMA_TAU = 1.25e-8  # s, ToA noise std (3.7 m of range)
SIGMA_GPS = 1.0      # m
ALTITUDE = 30.0      # m

# A user's position error may be at most this many times the square root of
# its own CRB trace. On the log workload the largest ratio seen was 2.6 (576
# users, median 0.85); users caught in a mirror-image local minimum of an
# online mission sit at 10 to 40.
CRB_MULTIPLE = 10.0
# At a solution the objective's gradient is this much smaller than at the
# start point; a solver stopped one step early misses it by orders of magnitude.
GRAD_REL = 1e-5


def _problems(where, checks):
    return [f"{where}: {msg}" for ok, msg in checks if not ok]


class OnlineGreedyNr:
    """One closed-loop greedy mission with NR-quantized ToA and periodic
    warm-started SLAM re-solves, as `uavloc simulate --toa nr` runs it with
    `solver: {solve_every: 5, max_iter: 20}`.

    The workload is partly cut-off-bound: 33 to 44 % of the re-solves
    converge within the 20-iteration budget and the rest stop at it. With
    larger budgets a mission's time spreads so widely (coefficient of
    variation 0.3 at 30 or 40 iterations, up to 0.5 at the default 100, 0.2
    at 20) that a 30 s round of missions gives no steady 90th percentile;
    the README has the runs."""

    name = "online_greedy_nr"
    missions = 40
    round_s = 30.0
    users = 6
    steps = 24
    solve_every = 5
    max_iter = 20
    start = Vec3(-30.0, 0.0, ALTITUDE)
    terminal = Vec3(30.0, 0.0, ALTITUDE)
    noise = ToaNoiseModel(kind="constant", sigma0=SIGMA_TAU, nlos_scale=5e-9)
    building = AxisBox(Vec3(-8.0, -45.0, 0.0), Vec3(8.0, -20.0, 25.0))

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        out = []
        for _ in range(self.missions):
            users = tuple(Vec2(*p) for p in rng.uniform(-40.0, 40.0, (self.users, 2)))
            out.append(Scenario(users=users, uav_start=self.start,
                                uav_terminal=self.terminal,
                                mission_steps=self.steps, d_max=5.0, delta_keep=2.0,
                                sigma_gps=SIGMA_GPS, toa_noise=self.noise,
                                buildings=(self.building,),
                                seed=int(rng.integers(2 ** 31))))
        return out

    def run(self, s):
        cfg = slam.SlamConfig(sigma_gps=s.sigma_gps, sigma_tau=s.toa_noise.sigma0,
                              noise_model=s.toa_noise, max_iter=self.max_iter)
        return mission.run_mission(s, "greedy", toa_path="nr",
                                   solve_every=self.solve_every, slam_cfg=cfg)

    def check(self, s, res):
        planned = np.asarray(res.planned)
        hops = np.linalg.norm(np.diff(planned, axis=0), axis=1)
        terminal = s.uav_terminal.as_array()
        crb = np.asarray(res.crb_history)
        retained = list(res.retained_steps)
        return _problems(f"mission seed {s.seed}", [
            (len(planned) == s.mission_steps, "trajectory length != mission_steps"),
            (bool(np.all(hops <= s.d_max * (1 + 1e-9))), "a hop exceeds d_max"),
            (np.linalg.norm(planned[-1] - terminal) <= 1e-6, "last position is not the terminal"),
            (bool(np.all(np.diff(crb) <= 1e-9 * crb[:-1])), "CRB history increases"),
            (len(res.samples) == len(retained) * len(s.users),
             "sample count != retained steps x users"),
            ({m.step for m in res.samples} == set(retained), "samples outside retained steps"),
        ])

    def accuracy(self, scenarios, results):
        errs, ratios, crbs = [], [], []
        for s, res in zip(scenarios, results):
            truth = np.array([u.as_array() for u in s.users])
            err = np.linalg.norm(np.asarray(res.user_estimates) - truth, axis=1)
            positions = np.asarray(res.planned)[np.asarray(res.retained_steps) - 1]
            crb = oracles.user_crb(positions, truth, s.toa_noise.sigma0)
            errs.extend(err)
            ratios.extend(err / np.sqrt(crb))
            crbs.append(float(res.crb_history[-1]))
        return errs, ratios, statistics.fmean(crbs)


class LogBatchSolve:
    """Offline re-solve of a recorded flight: parse the CSV log, draw the
    default initial state, one cold-start LM solve, as `uavloc solve` does."""

    name = "log_batch_solve"
    logs = 72
    round_s = 29.0
    poses = 64
    users = 8
    radius = 60.0

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        path = mission.circle_path((0.0, 0.0), self.radius, ALTITUDE, self.poses)
        out = []
        for _ in range(self.logs):
            r = 0.8 * self.radius * np.sqrt(rng.uniform(0.0, 1.0, self.users))
            a = rng.uniform(0.0, 2.0 * np.pi, self.users)
            users = np.column_stack([r * np.cos(a), r * np.sin(a)])
            gps = path + SIGMA_GPS * rng.standard_normal(path.shape)
            diff = np.repeat(path[:, None, :], self.users, axis=1)
            diff[..., :2] -= users[None]
            toa = (np.linalg.norm(diff, axis=2) / oracles.SPEED_OF_LIGHT
                   + SIGMA_TAU * rng.standard_normal((self.poses, self.users)))
            rows = [(i + 1, k + 1, *map(float, gps[i]), float(toa[i, k]))
                    for i in range(self.poses) for k in range(self.users)]
            text = "step,user_id,gps_x,gps_y,gps_z,toa_s\n" + "".join(
                f"{st},{uid},{x!r},{y!r},{z!r},{t!r}\n" for st, uid, x, y, z, t in rows)
            out.append({"text": text, "rows": rows, "path": path, "users": users,
                        "init_seed": int(rng.integers(2 ** 31))})
        return out

    # the solver settings `uavloc solve` derives from a constant-noise scenario
    cfg = slam.SlamConfig(sigma_gps=SIGMA_GPS, sigma_tau=SIGMA_TAU,
                          noise_model=ToaNoiseModel(sigma0=SIGMA_TAU))

    def run(self, inp):
        samples = iofiles.read_measurement_log(inp["text"])
        init = slam.initial_state(samples, RngStream(inp["init_seed"]))
        try:
            state, report = slam.solve_slam(init, samples, self.cfg)
        except NotConverged as exc:
            # the CLI exits 3 here; the estimate is still checked in full
            state, report = exc.state, exc.report
        return samples, init, state, report

    def check(self, inp, out):
        samples, init, state, _ = out
        parsed = [(m.step, m.user_id, m.gps_pos.x, m.gps_pos.y, m.gps_pos.z, m.toa)
                  for m in samples]
        data = oracles.LogData(inp["rows"])
        f_hat, gp, gu = oracles.log_objective_and_grad(data, state.uav, state.users,
                                                       SIGMA_GPS, SIGMA_TAU)
        _, gp0, gu0 = oracles.log_objective_and_grad(data, init.uav, init.users,
                                                     SIGMA_GPS, SIGMA_TAU)
        f_true, _, _ = oracles.log_objective_and_grad(data, inp["path"], inp["users"],
                                                      SIGMA_GPS, SIGMA_TAU)
        g_hat = math.hypot(np.linalg.norm(gp), np.linalg.norm(gu))
        g_init = math.hypot(np.linalg.norm(gp0), np.linalg.norm(gu0))
        err = np.linalg.norm(state.users - inp["users"], axis=1)
        crb = oracles.user_crb(inp["path"], inp["users"], SIGMA_TAU)
        return _problems(f"log init_seed {inp['init_seed']}", [
            (parsed == inp["rows"], "parsed rows differ from the generated samples"),
            (g_hat <= GRAD_REL * g_init,
             f"gradient at the estimate {g_hat:.3g} vs {g_init:.3g} at the start"),
            (f_hat <= f_true * (1 + 1e-12), "objective above its value at the truth"),
            (bool(np.all(err <= CRB_MULTIPLE * np.sqrt(crb))),
             f"user error beyond {CRB_MULTIPLE:g} sqrt(CRB): max ratio "
             f"{float(np.max(err / np.sqrt(crb))):.3g}"),
        ])

    def accuracy(self, inputs, outputs):
        errs, ratios = [], []
        for inp, (_, _, state, _) in zip(inputs, outputs):
            err = np.linalg.norm(state.users - inp["users"], axis=1)
            crb = oracles.user_crb(inp["path"], inp["users"], SIGMA_TAU)
            errs.extend(err)
            ratios.extend(err / np.sqrt(crb))
        return errs, ratios, 0.0


class PlanQueries:
    """`planner.next_waypoint` on stored planner states, as `uavloc plan`
    serves it. States are snapshots of random feasible flights over many
    users, with the Fisher blocks accumulated at the user estimates."""

    name = "plan_queries"
    round_s = 3.75
    flights = 10
    per_flight = 30
    users = 40
    steps = 60
    d_max = 5.0
    headings = 8
    eps_prior = 1e-6
    start = np.array([0.0, 0.0, ALTITUDE])
    terminal = np.array([0.0, 0.0, ALTITUDE])
    noise = ToaNoiseModel(kind="constant", sigma0=SIGMA_TAU)

    def ring(self, pos):
        ang = 2.0 * np.pi * np.arange(self.headings) / self.headings
        ring = pos + self.d_max * np.column_stack([np.cos(ang), np.sin(ang),
                                                   np.zeros(self.headings)])
        return np.vstack([ring, pos])

    def fallback(self, pos, step):
        remaining = self.steps - step
        return self.terminal.copy() if remaining == 1 else pos + (self.terminal - pos) / remaining

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        k = self.users
        out = []
        for _ in range(self.flights):
            truth = rng.uniform(-100.0, 100.0, (k, 2))
            est = truth + 3.0 * rng.standard_normal((k, 2))
            keep = set(rng.choice(np.arange(1, self.steps), self.per_flight, replace=False))
            blocks = np.zeros((k, 2, 2))
            pos = self.start.copy()
            for n in range(1, self.steps):
                blocks += oracles.user_fim_blocks(pos[None], est, SIGMA_TAU)
                if n in keep:
                    fim = np.zeros((2 * k, 2 * k))
                    for j in range(k):
                        fim[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[j]
                    out.append(planner.PlannerState(
                        step=n, pos=pos.copy(), terminal=self.terminal.copy(),
                        mission_steps=self.steps, d_max=self.d_max,
                        info=InfoState(step=n, fim=fim, eps_prior=self.eps_prior),
                        user_estimates=est.copy(), noise_model=self.noise,
                        headings=self.headings))
                cands = self.ring(pos)
                slack = self.d_max * (self.steps - n - 1)
                ok = np.linalg.norm(cands - self.terminal, axis=1) <= slack + 1e-9
                pos = cands[rng.choice(np.flatnonzero(ok))] if ok.any() \
                    else self.fallback(pos, n)
        return out

    def run(self, st):
        return planner.next_waypoint(st)

    def check(self, st, wp):
        wp = np.asarray(wp, dtype=float)
        cands = self.ring(np.asarray(st.pos, dtype=float))
        slack = self.d_max * (st.mission_steps - st.step - 1)
        feasible = np.linalg.norm(cands - self.terminal, axis=1) <= slack + 1e-9
        where = f"plan step {st.step}"
        within = np.linalg.norm(wp - self.terminal) <= slack + 1e-6
        if not feasible.any():
            return _problems(where, [
                (within, "waypoint cannot reach the terminal"),
                (np.allclose(wp, self.fallback(st.pos, st.step), rtol=0, atol=1e-9),
                 "no feasible candidate, but the waypoint is not the fallback")])
        match = np.flatnonzero(np.all(np.abs(cands - wp) <= 1e-9, axis=1))
        if len(match) == 0:
            return [f"{where}: waypoint is neither a ring candidate nor the hold position"]
        fim = st.info.fim
        blocks = np.array([fim[2 * j:2 * j + 2, 2 * j:2 * j + 2] for j in range(len(fim) // 2)])
        gains = oracles.candidate_gains(blocks, st.info.eps_prior, cands[feasible],
                                        st.user_estimates, st.noise_model.sigma0)
        best = float(gains.max())
        chosen = float(oracles.candidate_gains(blocks, st.info.eps_prior, wp[None],
                                               st.user_estimates, st.noise_model.sigma0)[0])
        return _problems(where, [
            (bool(feasible[match[0]]) and within, "waypoint is infeasible"),
            (chosen >= best - 1e-6 * abs(best), f"tr(R) {chosen:.6g} below the best {best:.6g}"),
        ])

    def accuracy(self, inputs, outputs):
        return [], [], 0.0


WORKLOADS = {w.name: w for w in (OnlineGreedyNr(), LogBatchSolve(), PlanQueries())}
