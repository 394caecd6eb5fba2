"""The benchmark's oracle self-checks, collected by tier-1.

`perfbench/selftest.py` holds the only tests that hold the program to the
independent oracles of `perfbench/oracles.py` (a numpy WLS objective and
gradient, a closed-form per-user CRB, a per-candidate tr(R)), and that feed
each workload check planted wrong answers. This module imports seven of its
eight tests by name, so pytest collects them here; `perfbench/` is read, not
changed.

The eighth, `test_log_check_accepts_the_program_and_rejects_planted_answers`,
is not imported: it plants `initial_state`'s output as an answer and expects
the "objective above its value at the truth" message, but that start, each
user at its squared-range fit with the poses at their GPS fixes, has an
objective below the truth's, so it fails. It stays red in CI's
`python3 perfbench/selftest.py` step until the benchmark change of ROADMAP
item 1 teaches it a start that lies in the basin.
"""
from perfbench.selftest import (  # noqa: F401
    test_candidate_gains_match_greedy_cost,
    test_gradient_matches_finite_differences,
    test_host_scaling_uses_the_nearby_kernel_timings,
    test_mission_check_rejects_planted_answers,
    test_objective_matches_program,
    test_plan_check_rejects_planted_answers,
    test_user_crb_matches_program_fim,
)
