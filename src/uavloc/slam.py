"""Joint user localization and UAV tracking by Newton-Levenberg-Marquardt
least squares.

The state stacks the UAV poses of every observed step (3D) followed by the
user positions (2D). A MeasurementLog carries the measurements and their
index layout: one GPS fix per pose, and per ToA measurement its pose index,
user index and delay. Residuals, Jacobian rows and weights are computed for
all measurements at once, the residuals of a point once: each GPS fix gives
r = gps - x with Jacobian -I, each ToA delay gives r = tau - ||x - (u, 0)||/C
with a 5-entry row over its pose and user.

The ToA residuals are not small at the minimum, so Gauss-Newton's J^T W J
converges only linearly there (Nocedal & Wright, "Numerical Optimization",
section 10.3). The solver uses the Newton matrix instead: J^T W J plus each
ToA residual's curvature w r grad^2 r, the exact Hessian of f / 2 when the
weights are fixed. With Huber reweighting it is the IRLS Gauss-Newton term
plus that exact curvature, a positive semidefinite choice rather than the
Hessian of the linear Huber branch. No measurement ties two poses or two
users together, so that matrix and b = J^T W r are kept in blocks: the 3x3
pose blocks, the 2x2 user blocks and the pose-user coupling.
Levenberg-Marquardt damps the matrix and eliminates the poses by the Schur
complement, as bundle adjustment does (Triggs et al., "Bundle Adjustment - A
Modern Synthesis", 2000): each trial step tests one 2K-square reduced
system for positive definiteness by a Cholesky factorization, solves it by
LU and back-solves the S poses, at O(S K^2 + K^3) cost instead of
O((3S + 2K)^3). The damping follows the gain ratio of actual to
predicted decrease (Madsen, Nielsen & Tingleff, "Methods for Non-Linear
Least Squares Problems", 2004, section 3.2).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import delay_gradient, link_geometry, toa_gradient
from .errors import InvalidParam, SingularSystem
from .model import (SPEED_OF_LIGHT, MeasurementLog, Scenario, ToaNoiseModel,
                    require_int, require_number, sigma_tau_of_distance)

logger = logging.getLogger(__name__)

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


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
    """The Newton matrix H in blocks, and b = J^T W r (3S + 2K,).

    Hpp (S, 3, 3) holds the pose blocks, Huu (K, 2, 2) the user blocks and
    Hpu (S, 3, 2K) each pose's coupling to the user coordinates; every other
    entry of H is zero. The fields must not change once `coupling` has
    been read.
    """
    Hpp: np.ndarray
    Hpu: np.ndarray
    Huu: np.ndarray
    b: np.ndarray

    @cached_property
    def coupling(self) -> np.ndarray:
        """[Hpu | b_p] (S, 3, 2K + 1): each pose's coupling and its part of b,
        which every damped trial step multiplies by the inverse pose block."""
        S = len(self.Hpp)
        return np.concatenate([self.Hpu, self.b[:3 * S].reshape(S, 3, 1)], axis=2)


@dataclass
class SolveReport:
    """What a solve did. iterations counts assemblies of the normal
    equations, and objective_trace holds f at the start and after each
    accepted step, the latter under the weights of the iteration that took
    the step. With per_distance_weights those weights are taken again from
    the distances at every iteration, so the trace can rise."""
    iterations: int
    objective_trace: list[float]
    converged: bool
    final_step_norm: float
    trials: int = 0  # linear solves attempted, failed factorizations included


@dataclass(frozen=True)
class SlamConfig:
    sigma_gps: float = Scenario.sigma_gps
    sigma_tau: float = ToaNoiseModel.sigma0
    noise_model: ToaNoiseModel | None = None
    per_distance_weights: bool = False  # refresh toa sigma from current distances
    huber_delta: float | None = None    # seconds; robust ToA reweighting when set
    tol_step: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        for name in ("sigma_gps", "sigma_tau", "tol_step"):
            require_number(name, getattr(self, name), 0, strict=True)
        if self.huber_delta is not None:
            require_number("huber_delta", self.huber_delta, 0, strict=True)
        require_int("max_iter", self.max_iter, 1)
        if not isinstance(self.per_distance_weights, bool):
            raise InvalidParam("per_distance_weights", "must be true or false")
        if self.per_distance_weights and self.noise_model is None:
            raise InvalidParam("per_distance_weights", "needs a noise_model")

    @classmethod
    def for_scenario(cls, s: Scenario, **options) -> SlamConfig:
        """Settings for solving scenario s: its GPS sigma, its ToA noise
        model, and its sigma0 as sigma_tau, each unless `options` set it."""
        return cls(**{"sigma_gps": s.sigma_gps, "sigma_tau": s.toa_noise.sigma0,
                      "noise_model": s.toa_noise} | options)


def _nonempty_log(measurements) -> MeasurementLog:
    """MeasurementLog.of(measurements); ValueError if it has no rows."""
    log = MeasurementLog.of(measurements)
    if not len(log):
        raise ValueError("measurement set is empty")
    return log


def toa_jacobian_row(uav, user) -> np.ndarray:
    """[dr/dx (3 entries), dr/du (2 entries)] of the ToA residual r = tau_hat - ||x - u||/C."""
    g = toa_gradient(uav, user)[0]
    return np.concatenate([-g, g[:2]])


def residuals(log: MeasurementLog, flat: np.ndarray):
    """At state `flat`: GPS residuals (S, 3), ToA residuals (M,) and the ToA
    link geometry (diff (M, 3), d (M,)). The per-point functions below take
    this result, so a point's residuals are computed once."""
    split = 3 * len(log.steps)
    uav = flat[:split].reshape(-1, 3)
    diff, d = link_geometry(uav[log.pose], flat[split:].reshape(-1, 2)[log.user])
    return log.pose_gps - uav, log.toa - d / SPEED_OF_LIGHT, diff, d


def measurement_weights(res, cfg: SlamConfig):
    """GPS weight and per-measurement ToA weights 1/sigma^2 at the point whose
    residuals are `res` (res[3] holds the link distances).

    ToA sigmas follow the noise model at the current link distances when
    cfg.per_distance_weights is set, else they are cfg.sigma_tau.
    """
    if cfg.per_distance_weights:
        w_toa = 1.0 / sigma_tau_of_distance(res[3], cfg.noise_model) ** 2
    else:
        w_toa = np.full(len(res[1]), 1.0 / cfg.sigma_tau ** 2)
    return 1.0 / cfg.sigma_gps ** 2, w_toa


def objective_terms(res, w_gps: float, w_toa, huber_delta: float | None = None) -> float:
    """Weighted sum of squared residuals `res`; ToA residuals beyond
    huber_delta cost linearly (Huber). w_gps weights each GPS coordinate and
    w_toa (M,) each ToA residual, as measurement_weights gives them."""
    r_gps, r_toa, _, _ = res
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
    res = residuals(_nonempty_log(measurements), state.flatten())
    return objective_terms(res, *measurement_weights(res, cfg), cfg.huber_delta)


def assemble_normal_equations(log: MeasurementLog, res, w_gps: float, w_toa,
                              huber_delta: float | None = None) -> NormalEquations:
    """Newton matrix H in blocks and b = J^T W r over all measurements of
    `log`, at the point whose residuals are `res`.

    H is J^T W J plus the curvature of the ToA residuals, sum w r grad^2 r
    (GPS residuals are linear): the exact Hessian of f / 2 for fixed weights,
    the IRLS Gauss-Newton term plus the exact curvature with Huber. With
    g = diff / (C d) (channel.delay_gradient of the residuals' links) and
    c = w r / (C d), a ToA measurement adds (w + C^2 c) g g^T - c I to its
    pose block, the top-left 2x2 of that to its user block and minus its
    first two columns to the coupling, and w r g (negated for the pose) to
    b. w is the ToA
    weight, times the Huber IRLS weight beyond huber_delta; derivatives of
    per-distance weights are left out. One bincount sums the 9 pose-block
    entries and the 3 of b per (pose, user) pair, adding repeated
    measurements of a pair; the blocks are sums of those. Its index is the
    log's pair_index, built once per log.
    """
    S, K = len(log.steps), len(log.user_ids)
    r_gps, r_toa, diff, d = res
    g = np.ascontiguousarray(delay_gradient(diff, d).T)                  # (3, M)
    w = w_toa
    if huber_delta is not None:
        a = np.abs(r_toa)
        w = w * np.divide(huber_delta, a, out=np.ones_like(a), where=a > huber_delta)
    wr = w * r_toa
    c = wr / (SPEED_OF_LIGHT * d)
    # per measurement, the 9 entries of (w + C^2 c) g g^T - c I and the 3 of w r g
    terms = np.empty((4, 3, len(r_toa)))
    np.multiply(((w + SPEED_OF_LIGHT ** 2 * c) * g)[:, None], g[None], out=terms[:3])
    terms.reshape(12, -1)[:9:4] -= c
    np.multiply(wr, g, out=terms[3])
    sums = np.bincount(log.pair_index, weights=terms.ravel(),
                       minlength=12 * S * K).reshape(S, K, 4, 3)
    per_pose, per_user = sums.sum(axis=1), sums.sum(axis=0)
    Hpp = per_pose[:, :3] + w_gps * _EYE3
    Hpu = np.empty((S, 3, K, 2))
    np.negative(sums[:, :, :3, :2].transpose(0, 2, 1, 3), out=Hpu)
    b = np.concatenate([(-w_gps * r_gps - per_pose[:, 3]).ravel(), per_user[:, 3, :2].ravel()])
    return NormalEquations(Hpp=Hpp, Hpu=Hpu.reshape(S, 3, 2 * K), Huu=per_user[:, :2, :2], b=b)


def gauss_newton_step(ne: NormalEquations, damping: float) -> np.ndarray:
    """Solve (H + lambda I) delta = -b, lambda = damping, by eliminating the
    poses.

    With A = Hpp + lambda I (block-diagonal) and B = Hpu, the user step du
    solves the 2K-square reduced system
        (Huu + lambda I - B^T A^-1 B) du = B^T A^-1 b_p - b_u
    by LU, and each pose back-solves dp = -A^-1 (b_p + B du).
    H + lambda I is positive definite exactly when every pose block of A and
    the reduced matrix are, so a Cholesky factorization of each, used only
    as that test, raises SingularSystem where a Cholesky factorization of
    the whole H + lambda I would fail.
    """
    S, K = len(ne.Hpp), len(ne.Huu)
    A = ne.Hpp + damping * _EYE3
    try:
        np.linalg.cholesky(A)  # raises unless every pose block is positive definite
        X = np.linalg.inv(A) @ ne.coupling
        M = ne.Hpu.reshape(3 * S, 2 * K).T @ X.reshape(3 * S, 2 * K + 1)  # B^T A^-1 [B | b_p]
        reduced = -M[:, :2 * K]
        np.einsum("iaib->iab", reduced.reshape(K, 2, K, 2))[...] += ne.Huu
        reduced.flat[::2 * K + 1] += damping
        np.linalg.cholesky(reduced)  # raises unless the reduced matrix is positive definite
        du = np.linalg.solve(reduced, M[:, 2 * K] - ne.b[3 * S:])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"factorization failed at damping {damping:g}") from exc
    dp = -(X[:, :, 2 * K] + X[:, :, :2 * K] @ du)
    return np.concatenate([dp.ravel(), du])


# meters: a track whose extent across its principal axis (the second
# singular value of its centred horizontal positions) is at most this is
# straight; one whose extent along the axis is at most this has none
EXTENT_TOL = 1e-9


def _tracks(xy, user, K: int):
    """Per-user geometry of the horizontal positions xy (M, 2) of rows whose
    user indices are `user` (M,), for users 0..K-1.

    Returns (count, centre, q, (big, small), major, minor): each user's row
    count (K,) and centre (K, 2), the centred rows q = xy - centre[user]
    (M, 2), the larger and smaller eigenvalues of each user's sum q q^T, (K,)
    each, and its unit principal axis and normal, (K, 2) each. The
    smaller eigenvalue cancels on a long thin track, so an extent across
    the axis is measured by projecting q on `minor`. Any axis is principal
    where sum q q^T is isotropic or zero.
    """
    count = np.bincount(user, minlength=K)
    centre = np.column_stack([np.bincount(user, xy[:, i], K) for i in (0, 1)]) / count[:, None]
    q = xy - np.take(centre, user, axis=0)
    qx, qy = q.T
    # the entries sxx, sxy, syy of sum q q^T, and its eigenvalues mid +- r
    sxx, sxy, syy = (np.bincount(user, w, K) for w in (qx * qx, qx * qy, qy * qy))
    half, mid = (sxx - syy) / 2, (sxx + syy) / 2
    r = np.hypot(half, sxy)
    # the principal axis, in the form free of cancellation, and its normal
    ux, uy = np.where(half < 0, (sxy, r - half), (half + r, sxy))
    ux[(ux == 0) & (uy == 0)] = 1.0
    major = np.column_stack([ux, uy]) / np.hypot(ux, uy)[:, None]
    minor = np.column_stack([-major[:, 1], major[:, 0]])
    return count, centre, q, (mid + r, mid - r), major, minor


def check_identifiability(log: MeasurementLog) -> list[int]:
    """Users lacking >= 3 ToA measurements from non-collinear horizontal
    UAV positions. Logs a warning for each (identifiability is marginal);
    `uavloc solve` calls it before solving, solve_slam does not.

    A user's track is non-collinear when its extent across its principal
    axis, sqrt(sum (q . minor)^2) over its centred horizontal positions q,
    exceeds EXTENT_TOL: the second singular value of the centred track."""
    K = len(log.user_ids)
    count, _, q, _, _, minor = _tracks(log.pose_gps[log.pose, :2], log.user, K)
    across = np.vecdot(q, np.take(minor, log.user, axis=0))
    extent = np.sqrt(np.bincount(log.user, across * across, K))
    weak = np.compress((count < 3) | (extent <= EXTENT_TOL), log.user_ids).tolist()
    for uid in weak:
        logger.warning("user %d is weakly observed "
                       "(needs >=3 non-collinear ToA measurements)", uid)
    return weak


# A trial step that changes f by at most this fraction of f, up or down, ends
# the solve as converged: f has stopped changing beyond rounding, whose sign
# then decides acceptance (Ceres' function tolerance).
REL_DECREASE_TOL = 1e-12
# The damping of the first trial step, and the damping beyond which a solve
# that finds no step that does not raise f gives up.
LAMBDA_INIT, LAMBDA_MAX = 1e-4, 1e8
# meters by which initial_state widens the GPS bounding box it draws users from
INIT_MARGIN = 50.0


def solve_slam(init: StateVector, measurements, cfg: SlamConfig):
    """Newton-Levenberg-Marquardt minimization of the joint negative
    log-likelihood.

    Each iteration assembles the Newton matrix, with the exact ToA
    curvature, once, and tries damped steps (H + lambda I) delta = -b until
    one does not raise f. A trial whose damped matrix is not positive
    definite (the Newton matrix can be indefinite far from the minimum)
    multiplies lambda by 10. A rejected step multiplies lambda by nu and
    doubles nu; an accepted one scales lambda by max(1/3, 1 - (2 rho - 1)^3)
    and resets nu to 2, rho being the gain ratio (Madsen, Nielsen &
    Tingleff 2004, section 3.2). The solve stops, converged, when an
    accepted step is shorter than cfg.tol_step or a trial step changes f by
    at most REL_DECREASE_TOL of f.

    Returns (state, report) on every outcome: the best state found, and
    report.converged False if no stopping test is met within cfg.max_iter
    iterations, or no damping up to LAMBDA_MAX gives a step that does not
    raise f.
    """
    log = _nonempty_log(measurements)
    S, K = len(log.steps), len(log.user_ids)
    if init.uav.shape != (S, 3) or init.users.shape != (K, 2):
        raise ValueError("initial state dimensions do not match the measurement set")

    flat = init.flatten()
    lam, nu = LAMBDA_INIT, 2.0
    # the residuals of the current point, shared by the objective that
    # accepts it, the weights and the next assembly
    res = residuals(log, flat)
    weights = measurement_weights(res, cfg)
    f = objective_terms(res, *weights, cfg.huber_delta)
    trace = [f]
    converged = False
    step_norm = np.inf
    iterations = trials = 0

    for _ in range(cfg.max_iter):
        iterations += 1
        if cfg.per_distance_weights:
            # the weights, and so f, move with the state; fixed weights keep
            # f from before the loop or from the last accepted step
            weights = measurement_weights(res, cfg)
            f = objective_terms(res, *weights, cfg.huber_delta)
        ne = assemble_normal_equations(log, res, *weights, huber_delta=cfg.huber_delta)
        accepted = f_settled = False
        while lam <= LAMBDA_MAX:
            trials += 1
            try:
                delta = gauss_newton_step(ne, lam)
            except SingularSystem:
                # the Newton matrix is indefinite here; nu keeps the path of
                # the evaluated steps
                lam *= 10.0
                continue
            trial = flat + delta
            res_new = residuals(log, trial)
            f_new = objective_terms(res_new, *weights, cfg.huber_delta)
            # at the resolution of f rounding decides the sign of the change
            f_settled = abs(f - f_new) <= REL_DECREASE_TOL * f
            if f_new <= f:
                accepted = True
                break
            if f_settled:
                break
            lam *= nu
            nu *= 2.0
        if not accepted:
            converged = f_settled
            break

        step_sq = float(delta @ delta)
        f_prev, flat, f, res = f, trial, f_new, res_new
        trace.append(f)
        step_norm = math.sqrt(step_sq)
        if step_norm < cfg.tol_step or f_settled:
            converged = True
            break
        # gain ratio: actual over predicted decrease, the prediction from the
        # quadratic model, f - m(delta) = lam |delta|^2 - b^T delta, which is
        # > 0 for the delta != 0 left by the stop test
        rho = (f_prev - f) / (lam * step_sq - float(ne.b @ delta))
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)
        nu = 2.0

    return StateVector.from_flat(flat, S, K), SolveReport(
        iterations=iterations, objective_trace=trace, converged=converged,
        final_step_norm=step_norm, trials=trials)


def _range_misfit(p, ct, user, cand):
    """Each user's sum of squared range misses (C tau - |x - (u, 0)|)^2 over
    its rows, its ToA sum of squares times C^2, for n candidate user sets
    `cand` (n, K, 2): (n, K), inf where NaN, so a NaN candidate loses.
    p (M, 3) holds the poses of the rows, ct (M,) their ranges C tau and
    user (M,) their user indices. One (n, M) link evaluation; link_geometry
    is not used because a candidate on a pose at z = 0 is scored, not
    refused."""
    h = p[:, :2] - np.take(cand, user, axis=1)
    miss = (ct - np.sqrt(np.vecdot(h, h) + p[:, 2] ** 2)) ** 2
    cost = np.array([np.bincount(user, m, cand.shape[1]) for m in miss])
    cost[np.isnan(cost)] = np.inf
    return cost


# The squared-range fit's Newton steps stop once every user's last step was
# at most this fraction of its argument, which leaves a relative error of
# about its square (Newton converges quadratically at a simple root), or
# after this many steps.
ROOT_RTOL, ROOT_MAX_STEPS = 1e-6, 100


def _range_fit(p, ct, user, K: int):
    """Each user's squared-range least-squares fit (SR-LS; Beck, Stoica & Li,
    IEEE TSP 2008) at the poses of its rows, and its mirror image.

    p (M, 3) holds the poses of the rows, ct (M,) their ranges C tau and
    user (M,) their user indices 0..K-1. With q a user's centred track
    (_tracks), z the altitudes, n its row count and v = u - centre,
        y = (C tau)^2 - z^2 - |q|^2 = |v|^2 - 2 q^T v
    at noiseless ranges. The fit minimizes sum (y - |v|^2 + 2 q^T v)^2. As
    sum q = 0, its global minimum is
        v = -(2 sum q q^T + mu I)^-1 sum q y,   |v|^2 = (mu + sum y) / n,
    at the one root mu > -2 lambda_min of the second equation, where
    lambda_min is the smaller eigenvalue of sum q q^T. With t = mu +
    2 lambda_min > 0 the root solves the secular equation
    1 / |v(t)| = sqrt(n / (t + sum y - 2 lambda_min)), whose left side is
    concave and increasing in t and its right side convex and decreasing
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 1983). So Newton steps
    from below the root rise to it monotonically, and a step from above
    lands below it. A step goes no lower than halfway from t to the lower
    end of the equation's domain, so none leaves it. The steps stop once
    every user's last one was at most ROOT_RTOL of its t.
    Where sum q y has no part along the minor axis and v at t = 0, all
    along the axis, is no longer than sqrt(mean(y) - 2 lambda_min / n) (the
    hard case, as on a straight track), the root is t = 0, mu =
    -2 lambda_min, and v's part along the minor axis is +-sqrt of the rest.

    Returns (tracks, fit): the _tracks tuple and fit (2, K, 2), each user's
    fit centre + v and its mirror image about the principal axis, in that
    order (in the hard case the + and - images). A user whose track has no
    extent (largest eigenvalue of sum q q^T at most EXTENT_TOL^2) gets its
    centre twice. Real arithmetic, vectorized over the users; no float
    error arises on any finite input.
    """
    tracks = _tracks(p[:, :2], user, K)
    count, centre, q, (big, small), major, minor = tracks
    y = ct ** 2 - p[:, 2] ** 2 - np.vecdot(q, q)
    qx, qy = q.T
    gx, gy, y_sum = (np.bincount(user, w, K) for w in (qx * y, qy * y, y))
    extent = big > EXTENT_TOL ** 2
    # sum q y along and across the axis; a track without extent fits v = 0
    g = np.column_stack([gx, gy]) * extent[:, None]
    g1, g2 = np.vecdot(g, major), np.vecdot(g, minor)
    small = np.maximum(small, 0.0)  # >= 0 but for rounding
    gap = 2.0 * (big - small)       # t + gap is mu + 2 lambda_max
    c0 = y_sum - 2.0 * small        # n |v|^2 at t = 0
    a, b = g1 * g1, g2 * g2
    hard = extent & (b == 0.0) & (count * a <= c0 * gap * gap)
    t = np.zeros(K)
    # the secular root where it is not the hard case's t = 0; a user with
    # sum q y = 0 that is not the hard case has v = 0 whatever t is
    i = ~hard & ((a > 0.0) | (b > 0.0))
    if i.any():
        a, b, d, c, n = a[i], b[i], gap[i], c0[i], count[i]
        lo = np.maximum(-c, 0.0)  # at the root t > 0 and t + c = n |v|^2 > 0
        # start at mu = 0, the root at noiseless ranges, if that is above lo
        ti = 2.0 * small[i]
        ti = np.where(ti > lo, ti, lo + 2.0 * big[i])
        half_n = 0.5 / n
        for _ in range(ROOT_MAX_STEPS):
            x, z, w = 1.0 / (ti + d), 1.0 / ti, n / (ti + c)
            s, e = a * x * x, b * z * z
            v_sq = s + e
            r, rw = 1.0 / np.sqrt(v_sq), np.sqrt(w)
            step = (r - rw) / ((s * x + e * z) * r / v_sq + w * rw * half_n)
            # only a step from above the root can go lower than halfway to lo
            ti, step = np.maximum(ti - step, 0.5 * (ti + lo)), np.abs(step) / ti
            if step.max() <= ROOT_RTOL:
                break
        t[i] = ti
    along = np.divide(-g1, t + gap, out=np.zeros(K), where=t + gap > 0.0)
    across = np.divide(-g2, t, out=np.zeros(K), where=t > 0.0)
    if hard.any():
        across[hard] = np.sqrt(np.maximum(c0 / count - along * along, 0.0))[hard]
    point = centre + along[:, None] * major
    offset = across[:, None] * minor
    return tracks, np.array([point + offset, point - offset])


def basin_start(measurements, poses, users) -> np.ndarray:
    """The users (K, 2) to start a solve from, at the pose estimates `poses`
    (S, 3): for each user, whichever of four candidates has the lowest ToA
    sum of squares at `poses`, in this order: the user, its mirror image
    about the principal axis of its track (the horizontal positions of
    `poses` at its rows), and the two points of its squared-range fit at
    `poses` (_range_fit). A tie goes to the candidate listed first, and a
    track without extent (largest singular value at most EXTENT_TOL) keeps
    the user.

    A warm start lies where the last solve, over fewer poses, left the
    user; the fit is the global minimum of the squared-range misfit at the
    poses of this solve, which is near the new minimum. On a nearly
    straight track the objective has a local minimum at the mirror image of
    the true user, which a warm-started solve keeps; the mirror candidates
    move a user out of it once the track has bent enough to tell the two
    images apart.
    """
    log = _nonempty_log(measurements)
    user, p, K = log.user, np.take(poses, log.pose, axis=0), len(log.user_ids)
    ct = SPEED_OF_LIGHT * log.toa
    (_, centre, _, (big, _), _, minor), fit = _range_fit(p, ct, user, K)
    across = np.vecdot(users - centre, minor)
    cand = np.concatenate([[users, users - 2.0 * across[:, None] * minor], fit])
    best = np.argmin(_range_misfit(p, ct, user, cand), axis=0)
    best[big <= EXTENT_TOL ** 2] = 0
    return cand[best, np.arange(K)]


def initial_state(measurements, rng: np.random.Generator) -> StateVector:
    """Default initialization: UAV poses from GPS, each user at the better
    point of its squared-range fit at the GPS poses (_range_fit; Smith &
    Abel, IEEE TASSP 1987; Beck, Stoica & Li, IEEE TSP 2008).

    First K x then K y coordinates are drawn from `rng`, uniform over the
    GPS-trace horizontal bounding box expanded by INIT_MARGIN meters. Every
    user whose track, the horizontal GPS fixes of its rows, has extent
    (largest singular value of the centred track above EXTENT_TOL) takes
    whichever of the fit and its mirror image about the track's principal
    axis has the lower ToA sum of squares at the GPS poses, the fit on an
    exact tie. A user without extent keeps its draw, and so does one whose
    chosen point lies outside the widened box: on a track barely longer than
    EXTENT_TOL the fit has no useful bound. So the draw decides only those
    users.
    """
    log = _nonempty_log(measurements)
    gps, K = log.pose_gps, len(log.user_ids)
    lo = gps[:, :2].min(axis=0) - INIT_MARGIN
    hi = gps[:, :2].max(axis=0) + INIT_MARGIN
    drawn = np.column_stack([rng.uniform(lo[0], hi[0], K), rng.uniform(lo[1], hi[1], K)])

    user, p = log.user, np.take(gps, log.pose, axis=0)
    ct = SPEED_OF_LIGHT * log.toa
    (_, _, _, (big, _), _, _), fit = _range_fit(p, ct, user, K)
    best = fit[np.argmin(_range_misfit(p, ct, user, fit), axis=0), np.arange(K)]
    inside = np.all((best >= lo) & (best <= hi), axis=1)
    users = np.where(((big > EXTENT_TOL ** 2) & inside)[:, None], best, drawn)
    return StateVector(uav=gps.copy(), users=users)
