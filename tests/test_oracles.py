"""The benchmark's oracle self-checks, collected by tier-1.

`perfbench/selftest.py` holds the only tests that hold the program to the
independent oracles of `perfbench/oracles.py` (a numpy WLS objective and
gradient, a closed-form per-user CRB, a per-candidate tr(R)), and that feed
each workload check planted wrong answers. This module imports seven of its
eight tests by name, so pytest collects them here; `perfbench/` is read, not
changed.

The eighth, `test_log_check_accepts_the_program_and_rejects_planted_answers`,
is not imported: it plants `initial_state`'s output as an answer and expects
the "objective above its value at the truth" message, but that start
(`slam.basin_start` at the GPS fixes applied to `slam.range_circle_start`,
with the poses at their GPS fixes) has an objective below the truth's, so
it fails. `test_log_check_rejects_a_drawn_start` below runs its planted
answers with the start of ROADMAP item 1 in its place.
"""
import numpy as np

from perfbench import oracles, workloads
from perfbench.selftest import (  # noqa: F401
    small_log,
    test_candidate_gains_match_greedy_cost,
    test_gradient_matches_finite_differences,
    test_host_scaling_uses_the_nearby_kernel_timings,
    test_mission_check_rejects_planted_answers,
    test_objective_matches_program,
    test_plan_check_rejects_planted_answers,
    test_user_crb_matches_program_fim,
)
from uavloc.model import MeasurementSample
from uavloc.slam import StateVector

# a word of each message of LogBatchSolve.check
MESSAGES = ("parsed rows", "gradient", "at the truth", "sqrt(CRB)")


def test_log_check_rejects_a_drawn_start():
    """The eighth self-test's planted answers, with a drawn start planted in
    place of `initial_state`'s: the poses at the GPS fixes, and the users
    uniform over the GPS box widened by 50 m (`np.random.default_rng(0)`).
    The check refuses that start by all three of its estimate tests, and
    `initial_state`'s by its gradient test alone. CI's `python3
    perfbench/selftest.py` step stays red until ROADMAP item 1 plants this
    start there."""
    wl, inp, out = small_log()
    samples, init, state, report = out

    def caught(planted, start=init, log=samples):
        problems = wl.check(inp, (log, start, planted, report))
        return {word for word in MESSAGES if any(word in p for p in problems)}, problems

    assert caught(state) == (set(), [])

    nudged = state.copy()
    nudged.users[1] += 0.5  # half a meter off the minimum
    assert caught(nudged)[0] == {"gradient"}

    far = state.copy()
    crb = oracles.user_crb(inp["path"], inp["users"], workloads.SIGMA_TAU)
    far.users[0] += 2 * workloads.CRB_MULTIPLE * np.sqrt(crb[0])
    assert "sqrt(CRB)" in caught(far)[0]

    gps = samples.pose_gps
    box = gps[:, :2].min(axis=0) - 50.0, gps[:, :2].max(axis=0) + 50.0
    drawn = StateVector(uav=gps.copy(),
                        users=np.random.default_rng(0).uniform(*box, init.users.shape))
    words, problems = caught(drawn, start=drawn)
    assert words == {"gradient", "at the truth", "sqrt(CRB)"}
    assert problems[-1].endswith("max ratio 91.3")
    assert caught(init, start=init)[0] == {"gradient"}

    m = samples[5]
    tampered = list(samples)
    tampered[5] = MeasurementSample(m.step, m.user_id, m.gps_pos, m.toa * (1 + 1e-12))
    assert caught(state, log=tampered)[0] == {"parsed rows"}
