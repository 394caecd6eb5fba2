"""Joint user localization and UAV tracking via iterative linearized
least squares.

The state stacks the UAV poses of every observed step (3D) followed by the
user positions (2D). A SlamProblem holds the measurements as arrays: one GPS
fix per pose, and per ToA measurement its pose index, user index and delay.
Residuals, Jacobian rows and weights are computed for all measurements at
once: each GPS fix gives r = gps - x with Jacobian -I, each ToA delay gives
r = tau - ||x - (u, 0)||/C with a 5-entry row over its pose and user. The
weighted rows are summed into the dense (3S + 2K)-square normal equations
H = J^T W J, b = J^T W r, which Levenberg-Marquardt damps and solves by
Cholesky.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .channel import link_geometry, sigma_tau_of_distance
from .errors import NotConverged, SingularSystem
from .model import SPEED_OF_LIGHT, MeasurementSample, ToaNoiseModel

logger = logging.getLogger(__name__)


@dataclass
class StateVector:
    """SLAM unknowns: poses for the observed steps and the user positions.

    Flattened ordering is [pose_1 ... pose_S, user_1 ... user_K].
    """
    uav: np.ndarray    # (S, 3)
    users: np.ndarray  # (K, 2)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.uav.ravel(), self.users.ravel()])

    @classmethod
    def from_flat(cls, flat, num_poses, num_users):
        flat = np.asarray(flat, dtype=float)
        split = 3 * num_poses
        return cls(uav=flat[:split].reshape(num_poses, 3).copy(),
                   users=flat[split:].reshape(num_users, 2).copy())

    def copy(self):
        return StateVector(self.uav.copy(), self.users.copy())


@dataclass
class NormalEquations:
    H: np.ndarray
    b: np.ndarray
    damping: float = 0.0


@dataclass
class SolveReport:
    iterations: int
    objective_trace: list[float]
    converged: bool
    final_step_norm: float


@dataclass(frozen=True)
class SlamConfig:
    sigma_gps: float = 1.0
    sigma_tau: float = 1.25e-8
    noise_model: ToaNoiseModel | None = None
    per_distance_weights: bool = False  # refresh toa sigma from current distances
    huber_delta: float | None = None    # seconds; robust ToA reweighting when set
    tol_step: float = 1e-6
    max_iter: int = 100
    lambda_init: float = 1e-4
    lambda_max: float = 1e8


@dataclass(frozen=True)
class SlamProblem:
    """Index layout and measurements of a measurement set, as arrays."""
    steps: tuple[int, ...]      # observed mission steps, sorted
    user_ids: tuple[int, ...]   # observed user ids, sorted
    gps: np.ndarray             # (S, 3) one GPS fix per observed step
    pose: np.ndarray            # (M,) pose index of each ToA measurement
    user: np.ndarray            # (M,) user index of each ToA measurement
    toa: np.ndarray             # (M,) measured delays, seconds

    @property
    def num_poses(self):
        return len(self.steps)

    @property
    def num_users(self):
        return len(self.user_ids)


def build_problem(measurements: list[MeasurementSample]) -> SlamProblem:
    if not measurements:
        raise ValueError("measurement set is empty")
    steps, first, pose = np.unique([m.step for m in measurements],
                                   return_index=True, return_inverse=True)
    user_ids, user = np.unique([m.user_id for m in measurements], return_inverse=True)
    gps = np.array([measurements[t].gps_pos.as_array() for t in first]).reshape(-1, 3)
    return SlamProblem(steps=tuple(steps.tolist()), user_ids=tuple(user_ids.tolist()),
                       gps=gps, pose=pose, user=user,
                       toa=np.array([float(m.toa) for m in measurements]))


def toa_jacobian_row(uav, user) -> np.ndarray:
    """Partials of the ToA residual r = tau_hat - ||x - u||/C.

    Returns [dr/dx (3 entries), dr/du (2 entries)].
    """
    diff, d = link_geometry(uav, user)
    g = diff / (SPEED_OF_LIGHT * d)
    return np.concatenate([-g, g[:2]])


def _residuals(problem: SlamProblem, flat: np.ndarray):
    """GPS residuals (S, 3), ToA residuals (M,) and the ToA link geometry."""
    split = 3 * problem.num_poses
    uav = flat[:split].reshape(-1, 3)
    diff, d = link_geometry(uav[problem.pose], flat[split:].reshape(-1, 2)[problem.user])
    return problem.gps - uav, problem.toa - d / SPEED_OF_LIGHT, diff, d


def measurement_weights(problem: SlamProblem, flat: np.ndarray, cfg: SlamConfig):
    """GPS weight and per-measurement ToA weights 1/sigma^2 at state `flat`.

    ToA sigmas follow the noise model at the current link distances when
    cfg.per_distance_weights is set, else they are cfg.sigma_tau.
    """
    if cfg.per_distance_weights and cfg.noise_model is not None:
        d = _residuals(problem, flat)[3]
        w_toa = 1.0 / sigma_tau_of_distance(d, cfg.noise_model) ** 2
    else:
        w_toa = np.full(len(problem.toa), 1.0 / cfg.sigma_tau ** 2)
    return 1.0 / cfg.sigma_gps ** 2, w_toa


def objective_terms(problem: SlamProblem, flat: np.ndarray, w_gps: float, w_toa,
                    huber_delta: float | None = None) -> float:
    """Weighted sum of squared residuals; ToA residuals beyond huber_delta
    cost linearly (Huber). w_gps weights each GPS coordinate and w_toa (M,)
    each ToA residual, as measurement_weights gives them."""
    r_gps, r_toa, _, _ = _residuals(problem, flat)
    if huber_delta is None:
        toa = w_toa * r_toa ** 2
    else:
        a = np.abs(r_toa)
        toa = np.where(a > huber_delta, w_toa * huber_delta * (2 * a - huber_delta),
                       w_toa * r_toa ** 2)
    # Summed in order, GPS terms first, not pairwise: LM accepts a step on
    # f_new <= f, so the last bit of f steers the iteration path.
    return float(np.cumsum(np.concatenate([w_gps * np.vecdot(r_gps, r_gps), toa]))[-1])


def objective(state: StateVector, measurements, cfg: SlamConfig) -> float:
    """Negative log-likelihood (up to constants) of the measurement set."""
    problem = build_problem(measurements)
    flat = state.flatten()
    return objective_terms(problem, flat, *measurement_weights(problem, flat, cfg),
                           cfg.huber_delta)


def assemble_normal_equations(problem: SlamProblem, flat: np.ndarray, w_gps: float,
                              w_toa, damping: float = 0.0,
                              huber_delta: float | None = None) -> NormalEquations:
    """H = J^T W J and b = J^T W r over all measurements.

    Each ToA row touches 5 state entries (its pose and its user); the 5x5
    products of all rows are summed into H in one bincount. bincount adds in
    input order, GPS entries first, so every entry of H and b is summed in
    measurement order.
    """
    S = problem.num_poses
    dim = len(flat)
    r_gps, r_toa, diff, d = _residuals(problem, flat)
    g = diff / (SPEED_OF_LIGHT * d)[:, None]
    jac = np.concatenate([-g, g[:, :2]], axis=1)                          # (M, 5)
    w = np.broadcast_to(w_toa, r_toa.shape)
    if huber_delta is not None:
        a = np.abs(r_toa)
        w = w * np.divide(huber_delta, a, out=np.ones_like(a), where=a > huber_delta)
    idx = np.concatenate([3 * problem.pose[:, None] + np.arange(3),
                          3 * S + 2 * problem.user[:, None] + np.arange(2)], axis=1)
    pose_idx = np.arange(3 * S)
    H = np.bincount(
        np.concatenate([pose_idx * (dim + 1), (idx[:, :, None] * dim + idx[:, None, :]).ravel()]),
        weights=np.concatenate([np.full(3 * S, w_gps),
                                (w[:, None, None] * (jac[:, :, None] * jac[:, None, :])).ravel()]),
        minlength=dim * dim).reshape(dim, dim)
    b = np.bincount(
        np.concatenate([pose_idx, idx.ravel()]),
        weights=np.concatenate([w_gps * -r_gps.ravel(),
                                (w[:, None] * (jac * r_toa[:, None])).ravel()]),
        minlength=dim)
    return NormalEquations(H=H, b=b, damping=damping)


def gauss_newton_step(ne: NormalEquations) -> np.ndarray:
    """Solve (H + lambda I) delta = -b with a Cholesky factorization."""
    A = ne.H + ne.damping * np.eye(len(ne.b))
    try:
        c, low = scipy.linalg.cho_factor(A, check_finite=False)
        return scipy.linalg.cho_solve((c, low), -ne.b, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SingularSystem(f"factorization failed at damping {ne.damping:g}") from exc


def check_identifiability(problem: SlamProblem, warn: bool = True) -> list[int]:
    """Users lacking >= 3 ToA measurements from non-collinear horizontal
    UAV positions. Logs a warning for each (identifiability is marginal)."""
    weak = []
    for j, uid in enumerate(problem.user_ids):
        pts = problem.gps[problem.pose[problem.user == j], :2]
        ok = False
        if len(pts) >= 3:
            centered = pts - pts.mean(axis=0)
            ok = np.linalg.matrix_rank(centered, tol=1e-9) >= 2
        if not ok:
            weak.append(uid)
            if warn:
                logger.warning("user %d is weakly observed "
                               "(needs >=3 non-collinear ToA measurements)", uid)
    return weak


def solve_slam(init: StateVector, measurements, cfg: SlamConfig,
               warn_identifiability: bool = True):
    """Levenberg-Marquardt minimization of the joint negative log-likelihood.

    Returns (state, report). Raises NotConverged (carrying the best state and
    report) if the step-size tolerance is not met within cfg.max_iter.
    """
    problem = build_problem(measurements)
    check_identifiability(problem, warn=warn_identifiability)
    if init.uav.shape != (problem.num_poses, 3) or init.users.shape != (problem.num_users, 2):
        raise ValueError("initial state dimensions do not match the measurement set")

    flat = init.flatten()
    lam = cfg.lambda_init
    weights = measurement_weights(problem, flat, cfg)
    f = objective_terms(problem, flat, *weights, cfg.huber_delta)
    trace = [f]
    converged = False
    step_norm = np.inf
    iterations = 0

    for _ in range(cfg.max_iter):
        iterations += 1
        if cfg.per_distance_weights:
            # the weights, and so f, move with the state; fixed weights keep
            # f from before the loop or from the last accepted step
            weights = measurement_weights(problem, flat, cfg)
            f = objective_terms(problem, flat, *weights, cfg.huber_delta)
        ne = assemble_normal_equations(problem, flat, *weights, huber_delta=cfg.huber_delta)

        accepted = False
        while lam <= cfg.lambda_max:
            try:
                delta = gauss_newton_step(replace(ne, damping=lam))
            except SingularSystem:
                lam *= 10.0
                continue
            f_new = objective_terms(problem, flat + delta, *weights, cfg.huber_delta)
            if f_new <= f:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break

        flat = flat + delta
        f = f_new
        trace.append(f)
        lam = max(lam / 10.0, 1e-15)
        step_norm = float(np.linalg.norm(delta))
        if step_norm < cfg.tol_step:
            converged = True
            break

    state = StateVector.from_flat(flat, problem.num_poses, problem.num_users)
    report = SolveReport(iterations=iterations, objective_trace=trace,
                         converged=converged, final_step_norm=step_norm)
    if not converged:
        raise NotConverged("step tolerance not reached", state=state, report=report)
    return state, report


def initial_state(measurements, rng, margin: float = 50.0) -> StateVector:
    """Default initialization: UAV poses from GPS, users uniform over the
    GPS-trace horizontal bounding box expanded by `margin` meters."""
    problem = build_problem(measurements)
    lo = problem.gps[:, :2].min(axis=0) - margin
    hi = problem.gps[:, :2].max(axis=0) + margin
    users = np.column_stack([rng.uniform(lo[0], hi[0], problem.num_users),
                             rng.uniform(lo[1], hi[1], problem.num_users)])
    return StateVector(uav=problem.gps.copy(), users=users)
