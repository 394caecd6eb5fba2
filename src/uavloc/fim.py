"""Fisher information accounting over a mission.

The FIM is taken over the user positions only. Each ToA sample informs one
user, so F is block-diagonal, and InfoState keeps only its (K, 2, 2) blocks;
the dense (2K, 2K) matrix is built only where a caller reads it. Each block
[[a, b], [c, d]] of F + eps_prior I is inverted in closed form,
[[d, -b], [-c, a]] / det with det = ad - bc taken as a s from the pivots a
and s = d - bc / a of its LDL^T factorization, so a CRB trace costs O(K):
tr((F + eps_prior I)^-1) = sum_k (a_k + d_k) / det_k; crb_traces takes
those of many states in one pass.
Contributions are rank-1 per ToA sample and accumulate additively over time.
Every CRB history, `uavloc crb`'s and a mission's, is crb_history: a track's
blocks at one set of user estimates, summed step by step and traced.
The per-step improvement matrix is computed in the subtractive form
R[n] = inv(F_{n-1}) - inv(F_{n-1} + sum_k H_k[n]), which the matrix inversion
lemma shows is the information gained at step n. improvement_traces gives
tr(R) for many candidate UAV positions at once without forming H: a step
adds g g^T to each user's block P, so by the matrix determinant lemma
det(P + g g^T) = det P + g^T adj(P) g, and the traces need only each
block's entries and each candidate-user link, all as (C, K) arrays.
"""
from __future__ import annotations

import copy

import numpy as np

from .channel import toa_gradient
from .errors import DegenerateGeometry, SingularFim
from .model import SPEED_OF_LIGHT, ToaNoiseModel, toa_variance

# A block is rank-deficient when the second pivot s of its LDL^T factorization
# is within this share of d (s / d = det / ad). Rounding leaves a few machine
# epsilons u = 2.2e-16 times d in the s of an exactly singular block: at most
# 3 u d over 20000 single ToA samples at random bearings, and about 0.4 n u d
# for n equal samples summed (measured up to n = 3000), so blocks built from up
# to a few thousand samples along one bearing are caught. Below 1e-12 d the
# computed s has a relative error of about 1e-4 or more, so no CRB taken from
# it would mean anything.
SINGULAR_RTOL = 1e-12

DEFAULT_EPS_PRIOR = 1e-6  # m^-2, the diagonal prior added to F before inversion


def default_eps_prior(sigma0: float) -> float:
    """DEFAULT_EPS_PRIOR / r^2, r = sigma0 / ToaNoiseModel.sigma0: the default
    prior in the unit of a ToA noise sigma0 (model's unit rule)."""
    return DEFAULT_EPS_PRIOR / (sigma0 / ToaNoiseModel.sigma0) ** 2


class InfoState:
    """Cumulative Fisher information of the users after `step` steps, kept as
    its (K, 2, 2) diagonal `blocks`, which the constructor copies from fim."""

    def __init__(self, step: int, fim: np.ndarray, eps_prior: float = DEFAULT_EPS_PRIOR):
        self.step, self.eps_prior = step, eps_prior
        k = len(fim) // 2
        self.blocks = np.diagonal(np.reshape(fim, (k, 2, k, 2)), axis1=0,
                                  axis2=2).transpose(2, 0, 1).astype(float, order="C")

    @property
    def fim(self) -> np.ndarray:
        """A new dense (2K, 2K) block-diagonal matrix of the blocks."""
        return _dense(self.blocks)


def initial_info(num_users: int, eps_prior: float = DEFAULT_EPS_PRIOR) -> InfoState:
    return InfoState(step=0, fim=np.zeros((2 * num_users, 2 * num_users)),
                     eps_prior=eps_prior)


def _dense(blocks: np.ndarray) -> np.ndarray:
    """The (2K, 2K) block-diagonal matrix with the (K, 2, 2) blocks."""
    k = len(blocks)
    out = np.zeros((k, 2, k, 2))
    out[np.arange(k), :, np.arange(k), :] = blocks
    return out.reshape(2 * k, 2 * k)


def _pivots(blocks: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, d, det) of (..., 2, 2) blocks A: the diagonal a and d of
    A + eps I = [[a, b], [c, d]] and det(A + eps I), taken as a s from the
    pivots of its LDL^T factorization: a and s = d - b c / a. Where s is at
    rounding level, A is rank-deficient and det(A + eps I) = eps (tr A + eps)
    exactly. SingularFim unless every A + eps I is positive definite (a > 0
    and det > 0) with finite entries and a finite det; no float warning."""
    # an overflow below, in a, d, s or det, leaves det inf or NaN, which the last test refuses
    with np.errstate(over="ignore", invalid="ignore"):
        a = blocks[..., 0, 0] + eps
        d = blocks[..., 1, 1] + eps
        # refused before dividing: a <= 0 would divide by zero, and an inf or
        # NaN entry would make s inf or NaN
        if not (a.min(initial=1.0) > 0 and np.abs(blocks).max(initial=0.0) < np.inf):
            raise SingularFim("Fisher matrix is singular")
        s = d - blocks[..., 0, 1] * (blocks[..., 1, 0] / a)
        det = a * s
        rank_deficient = np.abs(s) <= SINGULAR_RTOL * d
        if rank_deficient.any():
            det[rank_deficient] = (eps * (a + d - eps))[rank_deficient]
    if not ((det > 0) & (det < np.inf)).all():
        raise SingularFim("Fisher matrix is singular")
    return a, d, det


def _inv_blocks(blocks: np.ndarray, eps: float) -> np.ndarray:
    """(A + eps I)^-1 of each (..., 2, 2) block A."""
    a, d, det = _pivots(blocks, eps)
    adj = np.stack([d, -blocks[..., 0, 1], -blocks[..., 1, 0], a], axis=-1)
    return adj.reshape(blocks.shape) / det[..., None, None]


def toa_info_contribution(uav, user_est, sigma_tau: float) -> np.ndarray:
    """Rank-1 information block (1/sigma^2) g g^T with g = (x_xy - u)/(C d)."""
    return step_contribution(uav, user_est, ToaNoiseModel(sigma0=sigma_tau))[0]


def step_contribution(uav, user_ests, noise: ToaNoiseModel) -> np.ndarray:
    """Per-user 2x2 blocks for UAV positions uav (..., 3), sigma taken from
    the noise model at the estimated link distance. One position (3,) gives
    (K, 2, 2); N positions (N, 3), such as a trajectory, give (N, K, 2, 2)."""
    uav = np.asarray(uav, dtype=float)
    g, d = toa_gradient(uav[..., None, :], np.reshape(user_ests, (-1, 2)))
    var = np.asarray(toa_variance(d, noise))
    return g[..., :2, None] * g[..., None, :2] / var[..., None, None]


def accumulate(info: InfoState, contribs: np.ndarray) -> InfoState:
    """F_n = F_{n-1} + blockdiag(H_k[n]), from the (K, 2, 2) blocks H_k[n]."""
    out = copy.copy(info)
    out.step, out.blocks = info.step + 1, info.blocks + contribs
    return out


def inverse_with_prior(info: InfoState) -> np.ndarray:
    """(F + eps_prior I)^-1 as a dense (2K, 2K) matrix."""
    return _dense(_inv_blocks(info.blocks, info.eps_prior))


def crb_traces(blocks: np.ndarray, eps_prior: float) -> np.ndarray:
    """tr((F + eps_prior I)^-1) in m^2 of each state F kept as (..., K, 2, 2)
    blocks, in one pass: (...,). A mission's whole history, (N, K, 2, 2),
    gives (N,); each trace is the one crb_trace gives of that state, and
    SingularFim is raised if any state is singular."""
    a, d, det = _pivots(blocks, eps_prior)
    return np.sum((a + d) / det, axis=-1)


def crb_history(uav, user_ests, noise: ToaNoiseModel, eps_prior: float) -> np.ndarray:
    """tr((F_n + eps_prior I)^-1) in m^2 after each of N positions uav (N, 3),
    F_n the blocks of the first n at the one set of user estimates user_ests
    (K, 2), as (N,), nonincreasing. run_mission passes its final estimates, so
    its history is a bound at them, not at the true users."""
    return crb_traces(np.cumsum(step_contribution(uav, user_ests, noise), axis=0), eps_prior)


def crb_trace(info: InfoState) -> float:
    """tr((F + eps_prior I)^-1) in m^2: crb_traces of the one state."""
    return float(crb_traces(info.blocks, info.eps_prior))


def improvement_matrix(info: InfoState, contribs: np.ndarray) -> np.ndarray:
    """Information gain at the next step: R = F_prev^-1 - (F_prev + sum H)^-1,
    as a dense (2K, 2K) matrix.

    Satisfies F_n^-1 = F_{n-1}^-1 - R and is symmetric PSD; as the difference
    of two inverses of size about 1/eps_prior, its tr(R) is off by up to
    1.0e-7 relative against exact arithmetic (improvement_traces: 1.9e-12).
    """
    blocks, eps = info.blocks, info.eps_prior
    return _dense(_inv_blocks(blocks, eps) - _inv_blocks(blocks + contribs, eps))


def improvement_traces(info: InfoState, uav, user_ests, noise: ToaNoiseModel) -> np.ndarray:
    """tr(R) of measuring from each of C candidate UAV positions uav (C, 3),
    sigma taken from the noise model at the estimated link distance, as (C,).

    A candidate adds g g^T to each user's block P of F + eps_prior I, with
    g = (x_xy - u) / (sigma C d) its link's delay gradient over sigma, so by
    the matrix determinant lemma each user contributes
    tr P / det P - (tr P + |g|^2) / (det P + g^T adj(P) g), with det P from
    _pivots. P is read as symmetric, as every Fisher block is (uavloc plan
    refuses an asymmetric one). DegenerateGeometry at a zero distance;
    SingularFim if the state or a candidate block is singular."""
    uav = np.asarray(uav, dtype=float)
    users = np.reshape(user_ests, (-1, 2))
    blocks, eps = info.blocks, info.eps_prior
    a, d, det = _pivots(blocks, eps)
    tr = a + d
    # g^T adj(P) g completed to a square on the root of the pivot a of
    # P = [[a, b], [b, d]]: (sqrt(a) g_y - (b / sqrt(a)) g_x)^2 + (det P / a) g_x^2,
    # which neither cancels nor, unlike a (g_y - b g_x / a)^2, overflows on a
    # very unequal diagonal. A rank-deficient P carries its det from _pivots'
    # rank rule into every candidate's
    root_a = np.sqrt(a)
    slope, schur = blocks[:, 0, 1] / root_a, det / a
    # the links as (C, K) arrays of their components, users lifted to z = 0,
    # rather than channel.link_geometry's (C, K, 3) vectors: on 40-user
    # planner states (2-core host) the kernel made next_waypoint 1.13-1.14x
    # as fast as the old (C, K, 2, 2) path that way, and 1.22x this way
    hx = uav[:, 0, None] - users[:, 0]
    hy = uav[:, 1, None] - users[:, 1]
    dist2 = hx * hx + hy * hy + uav[:, 2, None] ** 2
    if (dist2 == 0.0).any():
        raise DegenerateGeometry("zero UAV-user distance")
    dist = np.sqrt(dist2)
    scale = 1.0 / (np.sqrt(toa_variance(dist, noise)) * SPEED_OF_LIGHT * dist)
    gx, gy = hx * scale, hy * scale
    gxx, e = gx * gx, root_a * gy - slope * gx
    det_new = det + (e * e + schur * gxx)
    if not ((det_new > 0) & (det_new < np.inf)).all():
        raise SingularFim("Fisher matrix is singular")
    return (tr / det - (tr + (gxx + gy * gy)) / det_new).sum(axis=1)
