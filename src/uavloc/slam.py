"""Joint user localization and UAV tracking by Newton-Levenberg-Marquardt
least squares.

The state stacks the UAV poses of every observed step (3D) followed by the
user positions (2D). A MeasurementLog carries the measurements and their
index layout: one GPS fix per pose, and per ToA measurement its pose index,
user index and delay. Residuals, Jacobian rows and weights are computed for
all measurements at once, the residuals of a point once: each GPS fix gives
r = gps - x with Jacobian -I, each ToA delay gives r = tau - ||x - (u, 0)||/C
with a 5-entry row over its pose and user.

Each ToA term enters through its clipped residual psi = clip(r, -delta,
delta), delta = cfg.huber_delta (psi = r when unset), and costs
w psi (2 r - psi): w r^2 within delta, linear beyond (Huber). The ToA
residuals are not small at the minimum, so Gauss-Newton's J^T W J converges
only linearly there (Nocedal & Wright, "Numerical Optimization", section
10.3). The solver uses the Newton matrix, the exact Hessian of f / 2 for
fixed weights w: J^T W J for the GPS terms and w [psi = r] grad r grad r^T
+ w psi grad^2 r per ToA term, with b, the gradient of f / 2, taking
w psi grad r. No measurement ties two poses or two users together, so the
matrix and b are kept in blocks: the 3x3 pose blocks, the 2x2 user blocks
and the pose-user coupling.
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

import numpy as np

from .channel import delay_gradient, link_geometry, toa_gradient
from .errors import InvalidParam, SingularSystem
from .model import (SPEED_OF_LIGHT, MeasurementLog, Scenario, ToaNoiseModel, require_int,
                    require_noise, require_number, require_scale, toa_variance, unit_ratio)

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
    """The Newton matrix H in blocks, and b (3S + 2K,), the gradient of f / 2.

    Hpp (S, 3, 3) holds the pose blocks, Huu (K, 2, 2) the user blocks and
    Hpu (S, 3, 2K) each pose's coupling to the user coordinates; every other
    entry of H is zero.
    """
    Hpp: np.ndarray
    Hpu: np.ndarray
    Huu: np.ndarray
    b: np.ndarray


@dataclass
class SolveReport:
    """What a solve did. iterations counts assemblies of the normal
    equations, and objective_trace holds f at the start and after each
    accepted step, all under the weights taken at the start point, so it
    never rises."""
    iterations: int
    objective_trace: list[float]
    converged: bool
    final_step_norm: float
    trials: int = 0  # linear solves attempted, failed factorizations included


@dataclass(frozen=True)
class SlamConfig:
    """Solver settings: sigma_gps and tol_step in meters, sigma_tau and
    huber_delta in seconds. A tol_step left None is 1e-6 m * r, r =
    model.unit_ratio of weight_noise's sigma0 (solve_slam); a tol_step that
    is set is kept as it is. Under per_distance_weights, the one setting that
    reads it, noise_model is checked in full by model.require_noise, which
    refuses the models validate_scenario refuses as toa_noise.<field>, here
    as noise_model.<field>; without it noise_model is not read or checked."""
    sigma_gps: float = Scenario.sigma_gps
    sigma_tau: float = ToaNoiseModel.sigma0
    noise_model: ToaNoiseModel | None = None
    per_distance_weights: bool = False  # toa sigma from the distances at each solve's start
    huber_delta: float | None = None    # seconds; threshold of the Huber ToA cost when set
    tol_step: float | None = None       # meters; None: 1e-6 m * r (see above)
    max_iter: int = 100

    def __post_init__(self):
        require_scale("sigma_gps", self.sigma_gps)
        require_scale("sigma_tau", self.sigma_tau, SPEED_OF_LIGHT)
        if self.tol_step is not None:
            require_number("tol_step", self.tol_step, 0, strict=True)
        if self.huber_delta is not None:
            require_scale("huber_delta", self.huber_delta, SPEED_OF_LIGHT)
        require_int("max_iter", self.max_iter, 1)
        if not isinstance(self.per_distance_weights, bool):
            raise InvalidParam("per_distance_weights", "must be true or false")
        if self.per_distance_weights:  # the one setting that reads noise_model
            if self.noise_model is None:
                raise InvalidParam("per_distance_weights", "needs a noise_model")
            require_noise("noise_model", self.noise_model)

    @property
    def weight_noise(self) -> ToaNoiseModel:
        """The ToA noise of the weights: noise_model under per_distance_weights,
        else the constant sigma_tau."""
        return (self.noise_model if self.per_distance_weights
                else ToaNoiseModel(sigma0=self.sigma_tau))

    @classmethod
    def for_scenario(cls, s: Scenario, **options) -> SlamConfig:
        """Settings for solving scenario s: its GPS sigma, its ToA noise
        model, and its sigma0 as sigma_tau, each unless `options` set it."""
        return cls(**{"sigma_gps": s.sigma_gps, "sigma_tau": s.toa_noise.sigma0,
                      "noise_model": s.toa_noise} | options)


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
    """GPS weight and ToA weights 1 / model.toa_variance at the link
    distances res[3] of the point whose residuals are `res`, under
    cfg.weight_noise (one float where it is constant). solve_slam takes them
    once, at its start point."""
    return 1.0 / cfg.sigma_gps ** 2, 1.0 / toa_variance(res[3], cfg.weight_noise)


def _clipped(r_toa, huber_delta):
    """psi = clip(r_toa, -huber_delta, huber_delta), or r_toa when unset."""
    return r_toa if huber_delta is None else np.clip(r_toa, -huber_delta, huber_delta)


def objective_terms(res, w_gps: float, w_toa, huber_delta: float | None = None) -> float:
    """f at the point whose residuals are `res`: the weighted squared GPS
    residuals and each ToA term's w psi (2 r - psi). w_gps weights each GPS
    coordinate and w_toa, (M,) or a float, each ToA residual, as measurement_weights
    gives them."""
    r_gps, r_toa, _, _ = res
    psi = _clipped(r_toa, huber_delta)
    toa = w_toa * (psi * (2 * r_toa - psi))
    # Summed in order, GPS terms first, not pairwise: LM accepts a step on
    # f_new <= f, so the last bit of f steers the iteration path.
    return float(np.cumsum(np.concatenate([w_gps * np.vecdot(r_gps, r_gps), toa]))[-1])


def objective(state: StateVector, measurements, cfg: SlamConfig) -> float:
    """Negative log-likelihood (up to constants) of the measurement set."""
    res = residuals(MeasurementLog.of(measurements), state.flatten())
    return objective_terms(res, *measurement_weights(res, cfg), cfg.huber_delta)


def assemble_normal_equations(log: MeasurementLog, res, w_gps: float, w_toa,
                              huber_delta: float | None = None) -> NormalEquations:
    """The Newton matrix H in blocks and b (module docstring) over all
    measurements of `log`, at the point whose residuals are `res`.

    With g = diff / (C d) (channel.delay_gradient of the residuals' links)
    and c = w psi / (C d), a ToA measurement adds (w [psi = r] + C^2 c) g g^T
    - c I to its pose block, the top-left 2x2 of that to its user block and
    minus its first two columns to the coupling, and w psi g (negated for
    the pose) to b. One bincount lays the 9 pose-block entries and the 3 of
    b out per (pose, user) pair, of which a log holds one row at most
    (MeasurementLog.fault); the blocks are sums of those. Its index is the
    log's pair_index, built once per log.
    """
    S, K = len(log.steps), len(log.user_ids)
    r_gps, r_toa, diff, d = res
    g = np.ascontiguousarray(delay_gradient(diff, d).T)                  # (3, M)
    psi = _clipped(r_toa, huber_delta)
    wpsi = w_toa * psi
    c = wpsi / (SPEED_OF_LIGHT * d)
    # per measurement, the 9 entries of (w [psi = r] + C^2 c) g g^T - c I and the 3 of w psi g
    terms = np.empty((4, 3, len(r_toa)))
    np.multiply(((w_toa * (psi == r_toa) + SPEED_OF_LIGHT ** 2 * c) * g)[:, None], g[None],
                out=terms[:3])
    terms.reshape(12, -1)[:9:4] -= c
    np.multiply(wpsi, g, out=terms[3])
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
        X = np.linalg.inv(A) @ np.concatenate([ne.Hpu, ne.b[:3 * S].reshape(S, 3, 1)], axis=2)
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


# A track's extent along or across its principal axis counts only above this
# share of the largest horizontal coordinate of the rows: about the rounding
# n u of a centre summed over n = 4500 rows (u = 2.2e-16), so the rule holds
# at every length scale.
EXTENT_RTOL = 1e-12


def _tracks(xy, user, K: int):
    """Per-user geometry of the horizontal positions xy (M, 2) of rows whose
    user indices are `user` (M,), for users 0..K-1.

    Returns (count, centre, q, (big, small), major, minor, (long, wide)):
    each user's row count (K,) and centre (K, 2), the centred rows q = xy -
    centre[user] (M, 2), the larger and smaller eigenvalues of each user's
    sum q q^T, (K,) each, its unit principal axis and normal, (K, 2) each,
    and the one extent verdict of every caller, (K,) bools each: whether the
    track's extent along the axis, sqrt(big), and across it, sqrt(sum
    (q . minor)^2), exceed EXTENT_RTOL times max |xy|. The smaller
    eigenvalue cancels on a long thin track, so the extent across is
    measured by projecting q on `minor`. Any axis is principal where
    sum q q^T is isotropic or zero.
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
    # the extent verdicts, each extent's square against the floor's
    big, across = mid + r, np.vecdot(q, np.take(minor, user, axis=0))
    floor = (EXTENT_RTOL * np.abs(xy).max()) ** 2
    long, wide = big > floor, np.bincount(user, across * across, K) > floor
    return count, centre, q, (big, mid - r), major, minor, (long, wide)


def check_identifiability(measurements) -> list[int]:
    """Users lacking >= 3 ToA measurements from non-collinear horizontal
    UAV positions, of the log MeasurementLog.of reads. Logs a warning for
    each (identifiability is marginal); `uavloc solve` calls it before
    solving, solve_slam does not.

    A user's track is non-collinear when _tracks finds it wide: its extent
    across its principal axis, sqrt(sum (q . minor)^2) over its centred
    horizontal positions q (the second singular value of the centred
    track), exceeds EXTENT_RTOL times the largest horizontal coordinate."""
    log = MeasurementLog.of(measurements)
    count, *_, (_, wide) = _tracks(log.pose_gps[log.pose, :2], log.user, len(log.user_ids))
    weak = np.compress((count < 3) | ~wide, log.user_ids).tolist()
    for uid in weak:
        logger.warning("user %d is weakly observed "
                       "(needs >=3 non-collinear ToA measurements)", uid)
    return weak


# A trial step that changes f by at most this fraction of f, up or down, ends
# the solve as converged: f has stopped changing beyond rounding, whose sign
# then decides acceptance (Ceres' function tolerance).
REL_DECREASE_TOL = 1e-12
# The damping's floor, its first trial value, and the one beyond which a solve that finds
# no step that does not raise f gives up; solve_slam divides each by r^2 (model.unit_ratio).
LAMBDA_MIN, LAMBDA_INIT, LAMBDA_MAX = 1e-15, 1e-4, 1e8


def solve_slam(init: StateVector, measurements, cfg: SlamConfig):
    """Newton-Levenberg-Marquardt minimization of the joint negative
    log-likelihood.

    The weights (measurement_weights) are taken once, at `init`: f is the
    objective under them throughout, so the trace descends, and a solve from
    the result takes per-distance weights again, as a mission's re-solves
    do. Each iteration assembles the Newton matrix once, and tries damped
    steps (H + lambda I) delta = -b until one does not raise f. A trial
    whose damped matrix is not positive definite (the Newton matrix can be
    indefinite far from the minimum) multiplies lambda by 10. A rejected
    step multiplies lambda by nu and doubles nu; an accepted one scales
    lambda by max(1/3, 1 - (2 rho - 1)^3) and resets nu to 2, rho being the
    gain ratio (Madsen, Nielsen & Tingleff 2004, section 3.2). The solve
    stops, converged, when an accepted step is shorter than cfg.tol_step or
    a trial step changes f by at most REL_DECREASE_TOL of f.
    The damping starts at LAMBDA_INIT / r^2 and keeps above LAMBDA_MIN / r^2,
    and tol_step defaults to 1e-6 m * r, r = model.unit_ratio of
    cfg.weight_noise's sigma0. So with every length, sigma_gps and sigma0
    scaled by s, a solve's estimate scales by s, up to rounding.

    Returns (state, report) on every outcome: the best state found, and
    report.converged False if no stopping test is met within cfg.max_iter
    iterations, or no damping up to LAMBDA_MAX / r^2 gives a step that does
    not raise f.
    """
    log = MeasurementLog.of(measurements)
    S, K = len(log.steps), len(log.user_ids)
    if init.uav.shape != (S, 3) or init.users.shape != (K, 2):
        raise ValueError("initial state dimensions do not match the measurement set")

    flat = init.flatten()
    r = unit_ratio(cfg.weight_noise.sigma0)
    lam_min, lam, lam_max, nu = LAMBDA_MIN / r**2, LAMBDA_INIT / r**2, LAMBDA_MAX / r**2, 2.0
    tol_step = 1e-6 * r if cfg.tol_step is None else cfg.tol_step
    # the residuals of the current point, shared by the objective that
    # accepts it and the next assembly; the weights are those of init
    res = residuals(log, flat)
    weights = measurement_weights(res, cfg)
    f = objective_terms(res, *weights, cfg.huber_delta)
    trace = [f]
    converged = False
    step_norm = np.inf
    iterations = trials = 0

    for _ in range(cfg.max_iter):
        iterations += 1
        ne = assemble_normal_equations(log, res, *weights, huber_delta=cfg.huber_delta)
        accepted = f_settled = False
        while lam <= lam_max:
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
        if step_norm < tol_step or f_settled:
            converged = True
            break
        # gain ratio: actual over predicted decrease, the prediction from the
        # quadratic model, f - m(delta) = lam |delta|^2 - b^T delta, which is
        # > 0 for the delta != 0 left by the stop test
        rho = (f_prev - f) / (lam * step_sq - float(ne.b @ delta))
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), lam_min)
        nu = 2.0

    return StateVector.from_flat(flat, S, K), SolveReport(
        iterations=iterations, objective_trace=trace, converged=converged,
        final_step_norm=step_norm, trials=trials)


def _range_misfit(p, ct, user, cand):
    """Each user's sum of squared range misses (C tau - |x - (u, 0)|)^2 over
    its rows, its ToA sum of squares times C^2, for n candidate user sets
    `cand` (n, K, 2): (n, K), inf where NaN, so a NaN candidate loses.
    p (M, 3) holds the poses of the rows, ct (M,) their ranges C tau and
    user (M,) their user indices. One (n, M) link evaluation (not
    link_geometry's: a candidate on a pose at z = 0 is scored, not refused)
    and one bincount over user + K candidate."""
    h = p[:, :2] - np.take(cand, user, axis=1)
    miss = (ct - np.sqrt(np.vecdot(h, h) + p[:, 2] ** 2)) ** 2
    n, K = cand.shape[:2]
    cost = np.bincount((user + K * np.arange(n)[:, None]).ravel(), miss.ravel(), n * K)
    return np.where(np.isnan(cost), np.inf, cost).reshape(n, K)


# The squared-range fit's Newton steps stop once each user's last step was
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
    end lo of the equation's domain, and none reaches lo. Each user's steps
    (_secular_root) stop once its last one was at most ROOT_RTOL of its t.
    Where sum q y has no part along the minor axis and v at t = 0, all
    along the axis, is no longer than sqrt(mean(y) - 2 lambda_min / n) (the
    hard case, as on a straight track), the root is t = 0, mu =
    -2 lambda_min, and v's part along the minor axis is +-sqrt of the rest.

    Returns (tracks, fit): the _tracks tuple and fit (2, K, 2), each user's
    fit centre + v and its mirror image about the principal axis, in that
    order (in the hard case the + and - images). A user whose track _tracks
    finds without extent along its axis gets its centre twice. Real
    arithmetic; a user's fit reads only its own rows and _tracks' log-wide
    extent floor. No float error arises on any finite input.
    """
    tracks = _tracks(p[:, :2], user, K)
    count, centre, q, (big, small), major, minor, (extent, _) = tracks
    y = ct ** 2 - p[:, 2] ** 2 - np.vecdot(q, q)
    qx, qy = q.T
    gx, gy, y_sum = (np.bincount(user, w, K) for w in (qx * y, qy * y, y))
    # sum q y along and across the axis; a track without extent fits v = 0
    g = np.column_stack([gx, gy]) * extent[:, None]
    g1, g2 = np.vecdot(g, major), np.vecdot(g, minor)
    small = np.maximum(small, 0.0)  # >= 0 but for rounding
    gap = 2.0 * (big - small)       # t + gap is mu + 2 lambda_max
    c0 = y_sum - 2.0 * small        # n |v|^2 at t = 0
    a, b = g1 * g1, g2 * g2
    hard = extent & (b == 0.0) & (count * a <= c0 * gap * gap)
    # the secular root where it is not the hard case's t = 0; a user with
    # sum q y = 0 that is not the hard case has v = 0 whatever t is
    root = ~hard & ((a > 0.0) | (b > 0.0))
    t = np.array([_secular_root(*sums) if go else 0.0 for go, *sums in zip(
        root.tolist(), *(w.tolist() for w in (a, b, gap, c0, count, small, big)))])
    along = np.divide(-g1, t + gap, out=np.zeros(K), where=t + gap > 0.0)
    across = np.divide(-g2, t, out=np.zeros(K), where=t > 0.0)
    if hard.any():
        across[hard] = np.sqrt(np.maximum(c0 / count - along * along, 0.0))[hard]
    point, offset = centre + along[:, None] * major, across[:, None] * minor
    return tracks, np.array([point + offset, point - offset])


def _secular_root(a, b, gap, c0, n, small, big):
    """_range_fit's secular root t of one user from its sums, on Python floats."""
    lo = max(-c0, 0.0)  # at the root t > 0 and t + c0 = n |v|^2 > 0
    # start at mu = 0, the root at noiseless ranges, if that is above lo
    t = 2.0 * small if 2.0 * small > lo else lo + 2.0 * big
    for _ in range(ROOT_MAX_STEPS):
        x, z, w = 1.0 / (t + gap), 1.0 / t, n / (t + c0)
        s, e = a * x * x, b * z * z
        v_sq = s + e
        r, rw = 1.0 / math.sqrt(v_sq), math.sqrt(w)
        step = (r - rw) / ((s * x + e * z) * r / v_sq + w * rw * (0.5 / n))
        # only a step from above the root can go lower than halfway to lo, and
        # none reaches lo: where halfway rounds to lo, the root is t to rounding
        if (t_next := max(t - step, 0.5 * (t + lo))) <= lo:
            break
        t, step = t_next, abs(step) / t
        if step <= ROOT_RTOL:
            break
    return t


def range_circle_start(measurements, track) -> np.ndarray:
    """Each user (K, 2) on its measured range circle along `track` (2,): f_xy
    + h e, with f the GPS fix and tau the delay of the user's earliest row
    (the first in log order at its lowest step), h = sqrt(max((C tau)^2 -
    f_z^2, 0)) and e = track / |track|, or (1, 0) where track is zero."""
    log = MeasurementLog.of(measurements)
    # the first rows of the (pose, user) pairs in (user, pose) order: a user's first is its earliest
    pairs = log.pair_first
    count = np.bincount(log.user[pairs], minlength=len(log.user_ids))
    first = pairs[np.cumsum(count) - count]
    f, ct = log.pose_gps[log.pose[first]], SPEED_OF_LIGHT * log.toa[first]
    heading = track / np.hypot(*track) if np.any(track) else np.array([1.0, 0.0])
    return f[:, :2] + np.sqrt(np.maximum(ct ** 2 - f[:, 2] ** 2, 0.0))[:, None] * heading


def basin_start(measurements, poses, users) -> np.ndarray:
    """The users (K, 2) to start a solve from, at the pose estimates `poses`
    (S, 3), given their estimates `users` (K, 2). This is the start rule of
    every solve: initial_state applies it at the GPS fixes to
    range_circle_start, a mission before each solve to its estimates.

    For each user, whichever of four candidates has the lowest ToA sum of
    squares at `poses`, in this order: the estimate, its mirror image about
    the principal axis of its track (the horizontal positions of `poses` at
    its rows), and the two points of its squared-range fit at `poses`
    (_range_fit; Smith & Abel, IEEE TASSP 1987; Beck, Stoica & Li, IEEE TSP
    2008). A tie goes to the candidate listed first, and a user whose track
    _tracks finds without extent along its axis (its largest singular value
    at most EXTENT_RTOL times the largest horizontal coordinate of the
    rows' poses) keeps the estimate.

    A warm start lies where the last solve, over fewer poses, left the
    user; the fit is the global minimum of the squared-range misfit at the
    poses of this solve, which is near the new minimum. On a nearly
    straight track the objective has a local minimum at the mirror image of
    the true user, which a warm-started solve keeps; the mirror candidates
    move a user out of it once the track has bent enough to tell the two
    images apart.
    """
    log = MeasurementLog.of(measurements)
    user, p, K = log.user, np.take(poses, log.pose, axis=0), len(log.user_ids)
    ct = SPEED_OF_LIGHT * log.toa
    (_, centre, _, _, _, minor, (extent, _)), fit = _range_fit(p, ct, user, K)
    across = np.vecdot(users - centre, minor)
    cand = np.concatenate([[users, users - 2.0 * across[:, None] * minor], fit])
    best = np.argmin(_range_misfit(p, ct, user, cand), axis=0)
    best[~extent] = 0
    return cand[best, np.arange(K)]


def initial_state(measurements, rng=None) -> StateVector:
    """Default start of a recorded log (`uavloc solve`): the poses at their
    GPS fixes, the users by basin_start there from range_circle_start along
    the GPS track. Nothing is drawn; `rng` is deprecated and ignored."""
    log = MeasurementLog.of(measurements)
    gps = log.pose_gps
    users = range_circle_start(log, gps[-1, :2] - gps[0, :2])
    return StateVector(uav=gps.copy(), users=basin_start(log, gps, users))
