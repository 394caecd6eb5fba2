"""Fisher information accounting over a mission.

The FIM is taken over the user positions only (2K x 2K). Contributions are
rank-1 per ToA sample and accumulate additively over time; the CRB trace is
tr((F + eps_prior I)^-1). The per-step improvement matrix is computed in the
subtractive form R[n] = inv(F_{n-1}) - inv(F_{n-1} + sum_k H_k[n]), which the
matrix inversion lemma shows is the information gained at step n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import link_geometry, sigma_tau_of_distance
from .errors import SingularFim
from .model import SPEED_OF_LIGHT, ToaNoiseModel


@dataclass
class InfoState:
    """Cumulative Fisher matrix for the user block after `step` steps."""
    step: int
    fim: np.ndarray          # (2K, 2K)
    eps_prior: float = 1e-6  # m^-2 diagonal prior regularizer

    @property
    def num_users(self) -> int:
        return self.fim.shape[0] // 2


def initial_info(num_users: int, eps_prior: float = 1e-6) -> InfoState:
    return InfoState(step=0, fim=np.zeros((2 * num_users, 2 * num_users)),
                     eps_prior=eps_prior)


def _inv(mat: np.ndarray, eps: float) -> np.ndarray:
    a = mat + eps * np.eye(len(mat))
    try:
        out = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularFim("Fisher matrix is singular") from exc
    # inv() succeeds on some exactly singular inputs; reject those too. The
    # residual bound is scaled by ||a|| ||a^-1|| so that well-conditioned
    # matrices with large entries are not rejected.
    scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(out))
    resid = np.linalg.norm(a @ out - np.eye(len(a)))
    if not np.all(np.isfinite(out)) or resid > 1e-6 * scale:
        raise SingularFim("Fisher matrix is singular")
    return 0.5 * (out + out.T)


def toa_info_contribution(uav, user_est, sigma_tau: float) -> np.ndarray:
    """Rank-1 information block (1/sigma^2) g g^T with g = (x_xy - u)/(C d)."""
    return step_contribution(uav, user_est, ToaNoiseModel(sigma0=sigma_tau))[0]


def step_contribution(uav, user_ests, noise: ToaNoiseModel) -> np.ndarray:
    """Per-user 2x2 blocks for one UAV position, sigma taken from the noise
    model at the estimated link distance. Returns (K, 2, 2)."""
    diff, d = link_geometry(uav, np.reshape(user_ests, (-1, 2)))
    g = diff[:, :2] / (SPEED_OF_LIGHT * d)[:, None]
    var = np.reshape(sigma_tau_of_distance(d, noise) ** 2, (-1, 1, 1))
    return g[:, :, None] * g[:, None, :] / var


def _expand(contribs: np.ndarray) -> np.ndarray:
    """Block-diagonal embedding of per-user 2x2 blocks into 2K x 2K."""
    contribs = np.asarray(contribs, dtype=float)
    k = len(contribs)
    full = np.zeros((2 * k, 2 * k))
    for j in range(k):
        full[2 * j:2 * j + 2, 2 * j:2 * j + 2] = contribs[j]
    return full


def accumulate(info: InfoState, contribs: np.ndarray) -> InfoState:
    """F_n = F_{n-1} + blockdiag(H_k[n])."""
    return InfoState(step=info.step + 1, fim=info.fim + _expand(contribs),
                     eps_prior=info.eps_prior)


def inverse_with_prior(info: InfoState) -> np.ndarray:
    return _inv(info.fim, info.eps_prior)


def crb_trace(info: InfoState) -> float:
    """tr((F + eps_prior I)^-1) in m^2."""
    return float(np.trace(inverse_with_prior(info)))


def improvement_matrix(info: InfoState, contribs: np.ndarray) -> np.ndarray:
    """Information gain at the next step: R = F_prev^-1 - (F_prev + sum H)^-1.

    Satisfies F_n^-1 = F_{n-1}^-1 - R exactly and is symmetric PSD.
    """
    prev_inv = inverse_with_prior(info)
    next_inv = _inv(info.fim + _expand(contribs), info.eps_prior)
    return prev_inv - next_inv
