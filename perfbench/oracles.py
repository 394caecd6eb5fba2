"""Reference computations the benchmark checks the program against.

Everything here is written from the model's equations with numpy alone and
imports nothing from `uavloc`, so a fault in the program cannot hide behind
the same fault in its check:

- the weighted least-squares objective of a measurement log and its
  gradient (GPS terms on the poses, ToA terms between a pose and a user);
- the per-user 2x2 Cramer-Rao bound for known UAV positions;
- the greedy planner's gain tr(R) of a candidate, from per-user 2x2 blocks.
"""
from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


class LogData:
    """A measurement log laid out as the solver's state is: poses ordered by
    step, users ordered by user id."""

    def __init__(self, rows):
        """rows: iterable of (step, user_id, gps_x, gps_y, gps_z, toa_s)."""
        rows = list(rows)
        steps = sorted({r[0] for r in rows})
        users = sorted({r[1] for r in rows})
        pose_of = {s: i for i, s in enumerate(steps)}
        user_of = {u: j for j, u in enumerate(users)}
        self.steps, self.user_ids = steps, users
        self.gps = np.zeros((len(steps), 3))
        seen = set()
        for r in rows:
            if r[0] not in seen:
                self.gps[pose_of[r[0]]] = r[2:5]
                seen.add(r[0])
        self.pose_idx = np.array([pose_of[r[0]] for r in rows])
        self.user_idx = np.array([user_of[r[1]] for r in rows])
        self.toa = np.array([r[5] for r in rows], dtype=float)


def log_objective_and_grad(data: LogData, poses, users, sigma_gps, sigma_tau):
    """f = sum ||gps_i - x_i||^2 / sg^2 + sum (tau - ||x_i - (u_j, 0)||/C)^2 / st^2,
    and its gradient with respect to (poses (S, 3), users (K, 2))."""
    poses = np.asarray(poses, dtype=float)
    users = np.asarray(users, dtype=float)
    w_gps, w_toa = 1.0 / sigma_gps ** 2, 1.0 / sigma_tau ** 2
    r_gps = data.gps - poses
    diff = poses[data.pose_idx].copy()
    diff[:, :2] -= users[data.user_idx]
    dist = np.linalg.norm(diff, axis=1)
    r_toa = data.toa - dist / SPEED_OF_LIGHT
    f = w_gps * float(np.sum(r_gps ** 2)) + w_toa * float(np.sum(r_toa ** 2))

    # d r_toa / d x = -diff / (C d); d r_toa / d u = +diff_xy / (C d)
    coef = (2.0 * w_toa * r_toa / (SPEED_OF_LIGHT * dist))[:, None] * diff
    g_poses = -2.0 * w_gps * r_gps
    np.add.at(g_poses, data.pose_idx, -coef)
    g_users = np.zeros_like(users)
    np.add.at(g_users, data.user_idx, coef[:, :2])
    return f, g_poses, g_users


def _rank_one_blocks(positions, users, sigma_tau):
    """(M, K, 2, 2) information blocks g g^T / sigma^2 with
    g = (x_xy - u) / (C d) for every position x and user u."""
    positions = np.asarray(positions, dtype=float)
    users = np.asarray(users, dtype=float)
    diff_xy = positions[:, None, :2] - users[None, :, :]
    dist = np.sqrt(np.sum(diff_xy ** 2, axis=2) + positions[:, None, 2] ** 2)
    g = diff_xy / (SPEED_OF_LIGHT * dist)[..., None]
    return g[..., :, None] * g[..., None, :] / sigma_tau ** 2


def trace_inv_2x2(blocks):
    """tr(A^-1) of each symmetric 2x2 block: (a + d) / (a d - b^2)."""
    a, b, d = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 1]
    return (a + d) / (a * d - b * b)


def user_crb(positions, users, sigma_tau):
    """Per-user CRB trace (m^2) for ToA from every position in `positions`
    (M, 3) to ground users (K, 2), UAV positions taken as known."""
    fim = _rank_one_blocks(positions, users, sigma_tau).sum(axis=0)
    return trace_inv_2x2(fim)


def user_fim_blocks(positions, users, sigma_tau):
    """Per-user (K, 2, 2) Fisher blocks accumulated over `positions`."""
    return _rank_one_blocks(positions, users, sigma_tau).sum(axis=0)


def candidate_gains(fim_blocks, eps_prior, candidates, user_estimates, sigma_tau):
    """tr(R) of each candidate (C, 3): sum over users of
    tr((F_k + eps I)^-1) - tr((F_k + H_k(c) + eps I)^-1)."""
    prior = np.asarray(fim_blocks, dtype=float) + eps_prior * np.eye(2)
    before = trace_inv_2x2(prior).sum()
    contrib = _rank_one_blocks(candidates, user_estimates, sigma_tau)
    after = trace_inv_2x2(prior[None] + contrib).sum(axis=1)
    return before - after
