"""Online greedy informative trajectory design.

At each step the UAV evaluates a ring of candidate headings (plus holding
position) and picks the one maximizing the estimated CRB improvement, subject
to the per-step distance budget and terminal reachability. The candidates
are scored as one (C, 3) array: one step_contribution call gives every
candidate-user Fisher block and one improvement_traces call every tr(R).
Infeasible steps fall back to moving straight toward the terminal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fim import InfoState, improvement_traces, step_contribution
# Unused here; re-exported because perfbench/tracing.py wraps it by this module's name.
from .fim import improvement_matrix  # noqa: F401
from .model import ToaNoiseModel

_FEAS_TOL = 1e-9  # meters of slack on the reachability comparison


@dataclass
class PlannerState:
    step: int                  # current step n, 1-based; must be < mission_steps
    pos: np.ndarray            # current UAV position x[n]
    terminal: np.ndarray       # x_F
    mission_steps: int         # N
    d_max: float
    info: InfoState
    user_estimates: np.ndarray  # (K, 2)
    noise_model: ToaNoiseModel = field(default_factory=ToaNoiseModel)
    headings: int = 8


def reach_threshold(n: int, mission_steps: int, d_max: float) -> float:
    """Maximum distance from the terminal still compatible with arriving
    exactly at step N: d_max * (N - n)."""
    return d_max * (mission_steps - n)


@lru_cache(maxsize=16)
def _unit_ring(headings: int) -> np.ndarray:
    """Read-only (headings + 1, 3) unit directions at constant altitude, the
    zero row for holding position last."""
    theta = 2.0 * np.pi * np.arange(headings) / headings
    ring = np.zeros((headings + 1, 3))
    ring[:-1, 0], ring[:-1, 1] = np.cos(theta), np.sin(theta)
    ring.flags.writeable = False
    return ring


def candidate_positions(st: PlannerState) -> np.ndarray:
    """(C, 3) ring of `headings` points at radius d_max, constant altitude,
    hold position last."""
    pos = np.asarray(st.pos, dtype=float)
    cands = pos + st.d_max * _unit_ring(st.headings)
    cands[-1] = pos  # exactly pos: pos + d_max * 0 turns -0.0 into 0.0
    return cands


def _costs(cands: np.ndarray, st: PlannerState) -> np.ndarray:
    """tr(R) of measuring from each candidate (C, 3), -inf where the terminal
    would become unreachable. All feasible candidates are scored at once."""
    slack = reach_threshold(st.step + 1, st.mission_steps, st.d_max)
    diff = cands - np.asarray(st.terminal, dtype=float)
    feasible = np.sqrt(np.vecdot(diff, diff)) <= slack + _FEAS_TOL
    costs = np.full(len(cands), float("-inf"))
    if feasible.any():
        contribs = step_contribution(cands[feasible], st.user_estimates, st.noise_model)
        costs[feasible] = improvement_traces(st.info, contribs)
    return costs


def greedy_cost(candidate, st: PlannerState) -> float:
    """tr(R) of measuring from `candidate`, or -inf if the terminal would
    become unreachable from there."""
    return float(_costs(np.asarray(candidate, dtype=float)[None], st)[0])


def next_waypoint(st: PlannerState) -> np.ndarray:
    """Argmax of greedy_cost over the candidate set (ties to the smallest
    heading index). If no candidate is feasible, move straight toward the
    terminal by ||x - x_F|| / (N - n) meters."""
    if st.step >= st.mission_steps:
        raise ValueError("no next step: already at the final mission step")
    cands = candidate_positions(st)
    costs = _costs(cands, st)
    best = int(np.argmax(costs))  # the first maximum
    if costs[best] > float("-inf"):
        return cands[best]
    pos = np.asarray(st.pos, dtype=float)
    term = np.asarray(st.terminal, dtype=float)
    remaining = st.mission_steps - st.step
    if remaining == 1:
        return term.copy()
    return pos + (term - pos) / remaining
