"""Fisher information accounting over a mission.

The FIM is taken over the user positions only. Each ToA sample informs one
user, so F is block-diagonal, and InfoState keeps only its (K, 2, 2) blocks;
the dense (2K, 2K) matrix is built only where a caller reads it. Every block
of F + eps_prior I is read by one rule, block_shares, with no product of two
entries formed, and every state by one verdict, refusal; a CRB trace costs
O(K), and crb_traces takes those of many states in one pass. Contributions
are rank-1 per ToA sample.
Every CRB history, `uavloc crb`'s and a mission's, is crb_history: a track's
blocks at one set of user estimates, summed step by step and traced.
The per-step improvement matrix is computed in the subtractive form
R[n] = inv(F_{n-1}) - inv(F_{n-1} + sum_k H_k[n]), which the matrix inversion
lemma shows is the information gained at step n. improvement_traces gives
tr(R) for many candidate UAV positions at once without forming H: a step
adds g g^T to each user's block, and the traces need only each block's a, d,
p, q and b and each candidate-user link, all as (C, K) arrays.
"""
from __future__ import annotations

import copy

import numpy as np

from .channel import toa_gradient
from .errors import DegenerateGeometry, InvalidParam, SingularFim
from .model import SPEED_OF_LIGHT, ToaNoiseModel, toa_variance, unit_ratio

# A block is rank-deficient when its share w = s / d = det / (a d), s the
# second pivot of its LDL^T factorization, is within this of 0. Rounding
# leaves a few machine epsilons u = 2.2e-16 in the w of an exactly singular
# block: at most 3 u over 20000 single ToA samples at random bearings, and
# about 0.4 n u for n equal samples summed (measured up to n = 3000), so
# blocks built from up to a few thousand samples along one bearing are
# caught. Below 1e-12 the computed w has a relative error of about 1e-4 or
# more, so no CRB taken from it would mean anything.
SINGULAR_RTOL = 1e-12

DEFAULT_EPS_PRIOR = 1e-6  # m^-2, the diagonal prior added to F before inversion


def default_eps_prior(sigma0: float) -> float:
    """DEFAULT_EPS_PRIOR / r^2, r = model.unit_ratio(sigma0): the default
    prior in the unit of a ToA noise sigma0."""
    return DEFAULT_EPS_PRIOR / unit_ratio(sigma0) ** 2


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
    """The state of no information at step 0: K zero blocks, built as blocks,
    not copied from a dense (2K, 2K) zero matrix."""
    info = InfoState(step=0, fim=np.empty((0, 0)), eps_prior=eps_prior)
    info.blocks = np.zeros((num_users, 2, 2))
    return info


def _dense(blocks: np.ndarray) -> np.ndarray:
    """The (2K, 2K) block-diagonal matrix with the (K, 2, 2) blocks."""
    k = len(blocks)
    out = np.zeros((k, 2, k, 2))
    out[np.arange(k), :, np.arange(k), :] = blocks
    return out.reshape(2 * k, 2 * k)


def block_shares(blocks: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
    """(a, d, w, p, q, r) of (..., 2, 2) blocks A, read as symmetric: the
    diagonal a and d of A + eps I = [[a, b], [b, d]], its share
    w = det / (a d) = s / d, s = d - b (b / a) its LDL^T pivot, the diagonal
    p = 1/(a w) and q = 1/(d w) of its inverse (CRB trace p + q) and
    r = 1 / sqrt(w). Where |w| <= SINGULAR_RTOL, det = eps (tr A + eps) (the
    rank rule) and w = eps h, h = (A_aa / a) / d + 1 / a, may be below the
    float range: p, q, r are 1 / (eps (1 + A_aa / d)), 1 / (eps (1 + A_dd / a))
    and 1 / sqrt(eps) / sqrt(h). No float warning; what overflows is inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = blocks[..., 0, 0] + eps
        d = blocks[..., 1, 1] + eps
        w = (d - blocks[..., 0, 1] * (blocks[..., 1, 0] / a)) / d
        p, q, r = 1 / a / w, 1 / d / w, 1 / np.sqrt(w)
        if np.fmin.reduce(np.abs(w), axis=None, initial=1.0) <= SINGULAR_RTOL:
            rank = np.abs(w) <= SINGULAR_RTOL
            p = np.where(rank, 1 / (eps * (1 + blocks[..., 0, 0] / d)), p)
            q = np.where(rank, 1 / (eps * (1 + blocks[..., 1, 1] / a)), q)
            r = np.where(rank, 1 / np.sqrt(eps) / np.sqrt(blocks[..., 0, 0] / a / d + 1 / a), r)
        return a, d, w, p, q, r


def _definite(a: np.ndarray, d: np.ndarray, trace: np.ndarray) -> bool:
    """Whether every a, d and CRB trace p + q of block_shares is finite and positive."""
    return bool(np.minimum(np.minimum(a, d), trace).min(initial=1.0) > 0
                and np.maximum(np.maximum(a, d), trace).max(initial=0.0) < np.inf)


def refusal(blocks: np.ndarray, eps: float) -> str | None:
    """Why F + eps I is refused, F kept as (..., 2, 2) blocks read as
    symmetric, or None where _pivots accepts it. In order: "not positive
    semidefinite", a block of F not finite, with a or d negative, or with
    1 - rho^2 < -SINGULAR_RTOL, rho = |b| / sqrt(a) / sqrt(d) (inf at a or d
    0 and b not); "singular", eps 0 and a block rank-deficient by the rank
    rule (or a zero diagonal); else "CRB trace overflow". No float warning."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = np.abs(blocks[..., 0, 1]) / np.sqrt(blocks[..., 0, 0]) / np.sqrt(blocks[..., 1, 1])
        if not (np.isfinite(blocks).all() and ((blocks[..., 0, 0] >= 0) & (blocks[..., 1, 1] >= 0)
                                               & ~(1 - rho * rho < -SINGULAR_RTOL)).all()):
            return "not positive semidefinite"
    a, d, w, p, q, _ = block_shares(blocks, eps)
    if _definite(a, d, p + q):
        return None
    return "singular" if eps == 0 and not (np.abs(w) > SINGULAR_RTOL).all() \
        else "CRB trace overflow"


def _pivots(blocks: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
    """(a, d, p, q, r, p + q) of block_shares, a, d and the CRB trace p + q
    finite and positive. Else InvalidParam on eps_prior where refusal finds a
    CRB trace overflow at eps_prior > 0 (F PSD keeps every trace below
    2e12 / eps_prior), SingularFim otherwise."""
    a, d, _, p, q, r = block_shares(blocks, eps)
    if not _definite(a, d, trace := p + q):
        if eps > 0 and refusal(blocks, eps) == "CRB trace overflow":
            raise InvalidParam("eps_prior", "too small: a CRB trace of F + eps_prior I "
                               "is beyond the float range")
        raise SingularFim("Fisher matrix is singular")
    return a, d, p, q, r, trace


def _inv_blocks(blocks: np.ndarray, eps: float) -> np.ndarray:
    """(A + eps I)^-1 of each (..., 2, 2) block A, as [[p, -(b/d) p], [-(c/d) p, q]]."""
    _, d, p, q, _, _ = _pivots(blocks, eps)
    inv = np.stack([p, -blocks[..., 0, 1] / d * p, -blocks[..., 1, 0] / d * p, q], axis=-1)
    return inv.reshape(blocks.shape)


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
    _pivots' error is raised if any state is refused."""
    return np.sum(_pivots(blocks, eps_prior)[5], axis=-1)


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

    A candidate adds g g^T to each user's block P = [[a, b], [b, d]] of
    F + eps_prior I, g = (x_xy - u) / (sigma C d) its link's delay gradient
    over sigma, and the user gains tr P^-1 - tr (P + g g^T)^-1. With
    u = (g_x / sqrt(a), g_y / sqrt(d)), rho = b / sqrt(a d) and p, q, r of
    _pivots, which carry its rank rule, P + g g^T has the share w m, with
    m = 1 + u_x^2 + ((u_y - rho u_x) r)^2, and the CRB trace
    (p (1 + u_y^2) + q (1 + u_x^2)) / m: it overflows nowhere that tr P^-1
    does not, and is tr P^-1 to the bit where u is 0. DegenerateGeometry at
    a zero distance, SingularFim at a NaN link, and _pivots' error if the
    state is refused."""
    uav = np.asarray(uav, dtype=float)
    users = np.reshape(user_ests, (-1, 2))
    a, d, p, q, r, trace = _pivots(info.blocks, info.eps_prior)
    root_a, root_d = np.sqrt(a), np.sqrt(d)
    rho = info.blocks[:, 0, 1] / root_a / root_d
    # the links as (C, K) arrays of their components, users lifted to z = 0,
    # rather than channel.link_geometry's (C, K, 3) vectors: on 40-user
    # planner states (2-core host) the kernel made next_waypoint 1.13-1.14x
    # as fast as the old (C, K, 2, 2) path that way, and 1.22x this way
    hx = uav[:, 0, None] - users[:, 0]
    hy = uav[:, 1, None] - users[:, 1]
    dist2 = hx * hx + hy * hy + uav[:, 2, None] ** 2
    if not (dist2 > 0.0).all():  # a zero distance, or a NaN position or estimate
        if (dist2 == 0.0).any():
            raise DegenerateGeometry("zero UAV-user distance")
        raise SingularFim("Fisher matrix is singular")
    dist = np.sqrt(dist2)
    link = np.sqrt(toa_variance(dist, noise)) * SPEED_OF_LIGHT * dist
    ux, uy = hx / root_a / link, hy / root_d / link
    f, wide = (uy - rho * ux) * r, 1 + ux * ux
    share = wide + f * f
    return (trace - (p / share * (1 + uy * uy) + q / share * wide)).sum(axis=1)
