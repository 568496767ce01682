"""Minimum-snap trajectory planning with sampled inequality constraints.

Equality constraints (boundary states, waypoints, junction continuity) are
satisfied exactly by eliminating them: the coefficient vector is
parameterized as c = c0 + Z xi, where c0 is the equality-constrained
minimum-snap solution from a KKT solve and Z spans the constraint null
space.  Inequalities (speed limits, azimuth-rate limit, obstacle clearance)
are enforced at sampled times through rectified residuals driven to zero by
a monotone outer penalty schedule with an L-BFGS quasi-Newton inner solver.

Every map from xi to what the penalized objective reads is linear and is
precomputed once per plan: positions, velocities and accelerations at all
samples come from one matrix product, the snap term is a quadratic in xi,
and the gradient is assembled from the per-sample derivatives with one
more product.  One evaluation therefore costs a fixed handful of small
array operations whatever the number of active constraints.

The planner works in coordinates relative to the start position, so a
translated scenario presents the solver with the same numbers and yields
the translated plan; the start is added back to the solution's constant
coefficients.

Planning uses slightly inflated obstacle radii and slightly tightened
kinodynamic limits so that residuals checked between samples stay within
tolerance; reported residuals are computed against the raw constraint set
in the caller's coordinates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    InvalidInputError,
    PlanInfeasibleError,
    RankDeficientConstraintsError,
)
from .trajectory import (
    ObjectiveWeights,
    PiecewiseTrajectory,
    PolySegment,
    derivative_row,
    rec,
    snap_gram_matrix,
)

# horizontal-speed floor used when evaluating the azimuth rate; below it the
# heading is undefined and the rate is computed against the floor instead
SPEED_FLOOR = 0.05

_SOFTABS_EPS = 1e-8

# (x, y) -> (y, -x) after a row swap: rotates horizontal vectors by -90 deg
_FLIP = np.array([[1.0], [-1.0]])


# ---------------------------------------------------------------------------
# constraint data
# ---------------------------------------------------------------------------


@dataclass
class Sphere:
    """Ball obstacle.  ``distance_from_origin`` reproduces the legacy
    residual that measures clearance from the origin instead of the center."""

    center: np.ndarray
    radius: float
    distance_from_origin: bool = False

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise InvalidInputError("obstacle radius must be positive")

    @property
    def reference(self) -> np.ndarray:
        """Point that clearance is measured from."""
        return np.zeros(3) if self.distance_from_origin else self.center

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.linalg.norm(points - self.reference, axis=1)

    def label(self) -> str:
        c = ",".join(f"{x:.3g}" for x in self.center)
        return f"sphere[{c}]r{self.radius:.3g}"


@dataclass
class CylinderX:
    """Cylinder along the inertial X axis, unbounded, located in the Y-Z plane."""

    center_yz: np.ndarray
    radius: float

    def __post_init__(self):
        self.center_yz = np.asarray(self.center_yz, dtype=float)
        if self.radius <= 0:
            raise InvalidInputError("obstacle radius must be positive")

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.linalg.norm(points[:, 1:3] - self.center_yz, axis=1)

    def label(self) -> str:
        c = ",".join(f"{x:.3g}" for x in self.center_yz)
        return f"cylinder_x[{c}]r{self.radius:.3g}"


@dataclass
class BoundaryConditions:
    """Position/velocity/acceleration targets at trajectory start and end."""

    start_pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    start_vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    start_acc: np.ndarray = field(default_factory=lambda: np.zeros(3))
    end_pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    end_vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    end_acc: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in (
            "start_pos", "start_vel", "start_acc", "end_pos", "end_vel", "end_acc"
        ):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass
class Waypoint:
    """Position pinned at a local time inside one segment."""

    segment: int
    t_local: float
    position: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class ConstraintSet:
    boundary: BoundaryConditions = field(default_factory=BoundaryConditions)
    waypoints: list[Waypoint] = field(default_factory=list)
    v_h_max: float = 1.5
    v_v_max: float = 0.5
    psi_rate_max: float = 1.5
    obstacles: list = field(default_factory=list)
    sample_interval: float = 0.15

    def __post_init__(self):
        if min(self.v_h_max, self.v_v_max, self.psi_rate_max) <= 0:
            raise InvalidInputError("kinodynamic limits must be positive")
        if self.sample_interval <= 0:
            raise InvalidInputError("sample interval must be positive")


@dataclass
class PlanOptions:
    segments: int = 1
    order: int = 6
    T: float = 3.0
    restarts: int = 16
    seed: int = 0
    # Planning margins: obstacles are inflated and limits tightened so that a
    # penalty solve converged to feas_tol on the margined problem leaves the
    # raw sampled residuals identically zero (margins exceed feas_tol by
    # three orders of magnitude) and covers inter-sample dips.
    obstacle_margin: float = 0.05
    speed_margin: float = 0.01
    rate_margin: float = 0.02
    feas_tol: float = 1e-5
    rho_schedule: tuple = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
    inner_maxiter: int = 200


def sample_times(duration: float, interval: float) -> np.ndarray:
    """Sample instants k*interval strictly inside (0, duration)."""
    n = int(math.ceil(duration / interval)) + 1
    times = interval * np.arange(1, n)
    return times[times < duration - 1e-9]


# ---------------------------------------------------------------------------
# equality system and QP oracle
# ---------------------------------------------------------------------------


def build_equality_system(
    cons: ConstraintSet, opts: PlanOptions
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stacked-coefficient equality rows shared by all axes.

    Returns (A, B, labels) with A of shape (m, M*(N+1)), B of shape (m, 3)
    holding the per-axis right-hand sides.
    """
    M, n = opts.segments, opts.order + 1
    total = M * n
    rows, rhs, labels = [], [], []

    def seg_row(segment: int, t_local: float, order: int) -> np.ndarray:
        row = np.zeros(total)
        row[segment * n : (segment + 1) * n] = derivative_row(n, t_local, order)
        return row

    b = cons.boundary
    for order, (s_val, e_val, kind) in enumerate(
        [
            (b.start_pos, b.end_pos, "pos"),
            (b.start_vel, b.end_vel, "vel"),
            (b.start_acc, b.end_acc, "acc"),
        ]
    ):
        rows.append(seg_row(0, 0.0, order))
        rhs.append(s_val)
        labels.append(f"boundary:{kind}:start")
        rows.append(seg_row(M - 1, opts.T, order))
        rhs.append(e_val)
        labels.append(f"boundary:{kind}:end")

    for j, wp in enumerate(cons.waypoints):
        if not 0 <= wp.segment < M:
            raise InvalidInputError(f"waypoint {j} references segment {wp.segment}")
        rows.append(seg_row(wp.segment, wp.t_local, 0))
        rhs.append(wp.position)
        labels.append(f"waypoint{j}:seg{wp.segment}@{wp.t_local:.3g}")

    for j in range(M - 1):
        for order in range(4):
            row = seg_row(j, opts.T, order) - seg_row(j + 1, 0.0, order)
            rows.append(row)
            rhs.append(np.zeros(3))
            labels.append(f"continuity:junction{j}:order{order}")

    return np.array(rows), np.array(rhs), labels


def _dependent_rows(a_mat: np.ndarray, labels: list[str]) -> list[str]:
    """Labels of rows outside a maximal independent set (QR pivoting)."""
    _, r, piv = scipy.linalg.qr(a_mat.T, pivoting=True, mode="economic")
    diag = np.abs(np.diag(r))
    tol = max(a_mat.shape) * np.finfo(float).eps * (diag[0] if diag.size else 1.0)
    rank = int(np.sum(diag > tol))
    return [labels[i] for i in sorted(piv[rank:])]


def _snap_block(opts: PlanOptions) -> np.ndarray:
    q_seg = snap_gram_matrix(opts.order + 1, opts.T)
    return scipy.linalg.block_diag(*[q_seg] * opts.segments)


def _solve_kkt(q_mat: np.ndarray, a_mat: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer of c^T Q c subject to A c = b, with one iterative
    refinement pass.  Returns (c, KKT residual inf-norm)."""
    n, m = q_mat.shape[0], a_mat.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = 2.0 * q_mat
    kkt[:n, n:] = a_mat.T
    kkt[n:, :n] = a_mat
    rhs = np.concatenate([np.zeros(n), b])
    sol = np.linalg.solve(kkt, rhs)
    sol += np.linalg.solve(kkt, rhs - kkt @ sol)
    residual = float(np.max(np.abs(kkt @ sol - rhs)))
    return sol[:n], residual


def solve_qp_equality(
    cons: ConstraintSet,
    weights: ObjectiveWeights | None = None,
    opts: PlanOptions | None = None,
) -> PiecewiseTrajectory:
    """Closed-form minimum-snap trajectory under equality constraints only.

    Ignores obstacles and kinodynamic limits.  Requires mu_v = 0 (the
    quadratic core has no path-length term).  Raises
    RankDeficientConstraintsError naming the redundant rows.
    """
    traj, _ = solve_qp_equality_full(cons, weights, opts)
    return traj


def solve_qp_equality_full(
    cons: ConstraintSet,
    weights: ObjectiveWeights | None = None,
    opts: PlanOptions | None = None,
) -> tuple[PiecewiseTrajectory, float]:
    opts = opts or PlanOptions()
    if weights is not None and weights.mu_v != 0.0:
        raise InvalidInputError("the equality QP oracle requires mu_v = 0")
    a_mat, b_mat, labels = build_equality_system(cons, opts)
    if a_mat.shape[0] > a_mat.shape[1]:
        raise RankDeficientConstraintsError(
            "more constraints than coefficients", labels
        )
    rank = np.linalg.matrix_rank(a_mat)
    if rank < a_mat.shape[0]:
        raise RankDeficientConstraintsError(
            "linearly dependent constraint rows", _dependent_rows(a_mat, labels)
        )
    q_blk = _snap_block(opts)
    n = opts.order + 1
    coeffs = np.zeros((3, opts.segments, n))
    worst = 0.0
    for axis in range(3):
        c, residual = _solve_kkt(q_blk, a_mat, b_mat[:, axis])
        worst = max(worst, residual)
        coeffs[axis] = c.reshape(opts.segments, n)
    segments = [
        PolySegment(coeffs[:, s, :], opts.T) for s in range(opts.segments)
    ]
    return PiecewiseTrajectory(segments), worst


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------


@dataclass
class ResidualReport:
    """Named constraint residuals; everything is zero iff the trajectory
    satisfies the constraint set at the sampled times."""

    boundary: np.ndarray
    waypoints: np.ndarray
    continuity: np.ndarray
    h_speed: float
    v_speed: float
    psi_rate: float
    obstacles: list[float]
    sample_t: np.ndarray
    worst_sample_residual: float
    worst_sample_time: float

    @property
    def max_equality(self) -> float:
        parts = [np.max(np.abs(self.boundary)) if self.boundary.size else 0.0]
        if self.waypoints.size:
            parts.append(float(np.max(np.abs(self.waypoints))))
        if self.continuity.size:
            parts.append(float(np.max(self.continuity)))
        return float(max(parts))

    @property
    def max_aggregate(self) -> float:
        vals = [self.h_speed, self.v_speed, self.psi_rate] + list(self.obstacles)
        return float(max(vals)) if vals else 0.0

    def all_within(self, eq_tol: float = 1e-8, ineq_tol: float = 1e-6) -> bool:
        return self.max_equality <= eq_tol and self.max_aggregate <= ineq_tol


def azimuth_rate(vel: np.ndarray, acc: np.ndarray, floor: float = SPEED_FLOOR) -> np.ndarray:
    """Rate of the horizontal velocity azimuth, floored below the speed
    floor where the heading is undefined."""
    vel = np.atleast_2d(vel)
    acc = np.atleast_2d(acc)
    num = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
    den = np.maximum(vel[:, 0] ** 2 + vel[:, 1] ** 2, floor**2)
    return num / den


def constraint_residuals(
    traj: PiecewiseTrajectory,
    cons: ConstraintSet,
    times: np.ndarray | None = None,
) -> ResidualReport:
    """Equality residuals plus rectified-aggregate inequality residuals."""
    opts = PlanOptions(segments=traj.M, order=traj.segments[0].order, T=traj.T)
    a_mat, b_mat, labels = build_equality_system(cons, opts)
    stacked = np.stack([
        np.concatenate([seg.coeffs[axis] for seg in traj.segments]) for axis in range(3)
    ])
    eq = np.stack([a_mat @ stacked[axis] - b_mat[:, axis] for axis in range(3)], axis=1)
    n_boundary = 6
    n_wp = len(cons.waypoints)
    boundary = eq[:n_boundary]
    waypoints = eq[n_boundary : n_boundary + n_wp]
    continuity = traj.continuity_residuals()

    if times is None:
        times = sample_times(traj.duration, cons.sample_interval)
    pos = traj.eval_many(times, 0)
    vel = traj.eval_many(times, 1)
    acc = traj.eval_many(times, 2)

    h_excess = rec(np.hypot(vel[:, 0], vel[:, 1]) - cons.v_h_max)
    v_excess = rec(np.abs(vel[:, 2]) - cons.v_v_max)
    rate_excess = rec(np.abs(azimuth_rate(vel, acc)) - cons.psi_rate_max)
    per_sample = np.stack([h_excess, v_excess, rate_excess])

    obstacle_aggs = []
    for obstacle in cons.obstacles:
        pen = rec(obstacle.radius - obstacle.distance(pos))
        obstacle_aggs.append(float(np.sum(pen)))
        per_sample = np.vstack([per_sample, pen])

    worst_idx = np.unravel_index(np.argmax(per_sample), per_sample.shape)
    worst_val = float(per_sample[worst_idx])
    worst_time = float(times[worst_idx[1]]) if times.size else 0.0

    return ResidualReport(
        boundary=boundary,
        waypoints=waypoints,
        continuity=continuity,
        h_speed=float(np.sum(h_excess)),
        v_speed=float(np.sum(v_excess)),
        psi_rate=float(np.sum(rate_excess)),
        obstacles=obstacle_aggs,
        sample_t=times,
        worst_sample_residual=worst_val,
        worst_sample_time=worst_time,
    )


# ---------------------------------------------------------------------------
# penalty problem in the equality null space
# ---------------------------------------------------------------------------


# L-BFGS tolerances: a rho stage that cannot end its restart stops early
# (the next stage moves its point anyway); the stage that ends a restart is
# continued from its point to the tight set
_STAGE_TOL = {"ftol": 1e-7, "gtol": 1e-5}
_FINAL_TOL = {"ftol": 1e-14, "gtol": 1e-10}


class _PenaltyProblem:
    """Snap objective plus rho-weighted squared rectified penalties in the
    reduced coordinates of the equality null space.

    The decision vector stacks the per-axis null-space coordinates,
    X = xi.reshape(3, k), so the coefficients are C = c0 + X Z^T.  Setup
    precomputes every linear map the objective reads: the reduced snap
    quadratic f0 + <g0, X> + 1/2 <X H, X>, and the stacked sample basis
    B = [b0; b1; b2; bv] with offsets S0, which gives positions,
    velocities and accelerations at the sample times and velocities at the
    path-length quadrature nodes as S = S0 + X B^T.
    """

    def __init__(self, cons: ConstraintSet, weights: ObjectiveWeights, opts: PlanOptions):
        a_mat, _, _ = build_equality_system(cons, opts)
        qp_traj, self.qp_residual = solve_qp_equality_full(cons, None, opts)
        c0 = np.stack([
            np.concatenate([seg.coeffs[axis] for seg in qp_traj.segments])
            for axis in range(3)
        ])
        z_basis = scipy.linalg.null_space(a_mat)
        self.opts = opts
        self.c0 = c0  # (3, total)
        self.z = z_basis  # (total, k)
        self.k = z_basis.shape[1]
        self.n = opts.order + 1

        self.v_h = cons.v_h_max - opts.speed_margin
        self.v_v = cons.v_v_max - opts.speed_margin
        self.rate = cons.psi_rate_max - opts.rate_margin
        # every obstacle is a clearance ball in the axes it constrains:
        # spheres in x-y-z, x-cylinders in y-z (their x offset is masked)
        obstacles = cons.obstacles
        self.ob_axes = np.array(
            [[1.0, 1.0, 1.0] if isinstance(ob, Sphere) else [0.0, 1.0, 1.0] for ob in obstacles]
        ).reshape(-1, 3, 1)
        self.ob_ref = np.array(
            [ob.reference if isinstance(ob, Sphere) else [0.0, *ob.center_yz] for ob in obstacles]
        ).reshape(-1, 3, 1)
        self.ob_radius = np.array(
            [ob.radius + opts.obstacle_margin for ob in obstacles]
        ).reshape(-1, 1)

        mu_p = weights.mu_p
        q_blk = _snap_block(opts)
        qz = q_blk @ z_basis
        h = 2.0 * mu_p * (z_basis.T @ qz)
        self.h = 0.5 * (h + h.T)
        self.g0 = 2.0 * mu_p * (c0 @ qz)
        self.f0 = mu_p * float(np.sum(c0 * (c0 @ q_blk)))

        # columns of S: [pos | vel | acc] at tau, then velocity at the
        # Gauss-Legendre nodes of the path-length term
        self.tau = sample_times(opts.segments * opts.T, cons.sample_interval)
        rows = [self._basis(self.tau, order) for order in range(3)]
        self.mu_v = weights.mu_v
        if self.mu_v:
            nodes, wts = np.polynomial.legendre.leggauss(32)
            v_nodes = np.concatenate(
                [s * opts.T + 0.5 * opts.T * (nodes + 1.0) for s in range(opts.segments)]
            )
            rows.append(self._basis(v_nodes, 1))
            self.v_weights = self.mu_v * np.tile(0.5 * opts.T * wts, (3, opts.segments))
        phi = np.vstack(rows)
        self.b = phi @ z_basis
        self.bt = np.ascontiguousarray(self.b.T)
        self.s0 = c0 @ phi.T

    def _basis(self, times: np.ndarray, order: int) -> np.ndarray:
        total = self.opts.segments * self.n
        out = np.zeros((times.size, total))
        for i, t in enumerate(times):
            seg = min(int(t / self.opts.T), self.opts.segments - 1)
            t_local = t - seg * self.opts.T
            out[i, seg * self.n : (seg + 1) * self.n] = derivative_row(
                self.n, t_local, order
            )
        return out

    def trajectory(self, xi: np.ndarray, origin=(0.0, 0.0, 0.0)) -> PiecewiseTrajectory:
        """The trajectory of the reduced coordinates xi, moved by origin."""
        c = self.c0 + xi.reshape(3, self.k) @ self.z.T
        c[:, :: self.n] += np.reshape(origin, (3, 1))
        segs = [
            PolySegment(c[:, s * self.n : (s + 1) * self.n], self.opts.T)
            for s in range(self.opts.segments)
        ]
        return PiecewiseTrajectory(segs)

    def evaluate(self, xi: np.ndarray, rho: float) -> tuple[float, np.ndarray, np.ndarray]:
        """Objective + rho * penalty, its gradient, and the per-sample
        rectified excesses: rows horizontal speed, vertical speed, azimuth
        rate, then one per obstacle."""
        x = xi.reshape(3, self.k)
        m = self.tau.size
        s = self.s0 + x @ self.bt
        pos = s[:, :m]
        vel_xy, vz = s[:2, m : 2 * m], s[2, m : 2 * m]
        acc_xy = s[:2, 2 * m : 3 * m]
        vx, vy = vel_xy
        ax, ay = acc_xy
        # d = d(penalty)/dS, scaled by rho before the path-length columns
        d = np.zeros(s.shape)
        excess = np.empty((3 + self.ob_radius.size, m))

        h = np.hypot(vx, vy)
        g = np.maximum(h - self.v_h, 0.0, out=excess[0])
        w_h = 2.0 * g / np.maximum(h, 1e-12)

        g = np.maximum(np.abs(vz) - self.v_v, 0.0, out=excess[1])
        d[2, m : 2 * m] = np.copysign(2.0 * g, vz)

        u = h * h
        den = np.maximum(u, SPEED_FLOOR**2)
        rate = (vx * ay - vy * ax) / den
        g = np.maximum(np.abs(rate) - self.rate, 0.0, out=excess[2])
        w = np.copysign(2.0 * g, rate) / den
        # the rate's speed dependence vanishes where the floor holds
        w_h -= 2.0 * w * rate * (u > SPEED_FLOOR**2)
        d[:2, m : 2 * m] = w_h * vel_xy + w * (acc_xy[::-1] * _FLIP)
        d[:2, 2 * m : 3 * m] = -w * (vel_xy[::-1] * _FLIP)

        if self.ob_radius.size:
            delta = (pos - self.ob_ref) * self.ob_axes  # (obstacles, 3, m)
            dist = np.maximum(np.sqrt((delta * delta).sum(axis=1)), 1e-9)
            g = np.maximum(self.ob_radius - dist, 0.0, out=excess[3:])
            d[:, :m] = ((-2.0 * g / dist)[:, None, :] * delta).sum(axis=0)

        xh = x @ self.h
        value = self.f0 + float(np.vdot(self.g0 + 0.5 * xh, x))
        value += rho * float(np.vdot(excess, excess))
        d *= rho
        if self.mu_v:
            v = s[:, 3 * m :]
            soft = np.sqrt(v * v + _SOFTABS_EPS**2)
            value += float(np.vdot(soft, self.v_weights))
            d[:, 3 * m :] = v / soft * self.v_weights
        grad = self.g0 + xh + d @ self.b
        return value, grad.ravel(), excess

    def value_and_grad(self, xi: np.ndarray, rho: float) -> tuple[float, np.ndarray]:
        """Penalized objective and gradient, the L-BFGS inner problem."""
        value, grad, _ = self.evaluate(xi, rho)
        return value, grad

    def worst_excess(self, xi: np.ndarray) -> float:
        """Worst per-sample excess, 0 when no sample exceeds."""
        excess = self.evaluate(xi, 0.0)[2]
        return float(excess.max()) if excess.size else 0.0

    def restart_result(self, index: int, xi: np.ndarray, rho: float) -> "RestartResult":
        """The restart's objective, worst excess and its time (0 when no
        sample exceeds), and its first-order measures at stage rho."""
        value, grad_f, excess = self.evaluate(xi, 0.0)
        grad_q = self.evaluate(xi, rho)[1]
        worst = float(excess.max()) if excess.size else 0.0
        worst_t = float(self.tau[np.argmax(excess) % self.tau.size]) if worst > 0.0 else 0.0
        stationarity = float(np.linalg.norm(grad_q)) / max(1.0, float(np.linalg.norm(grad_f)))
        return RestartResult(
            index, value, worst, worst_t, rho, stationarity, 2.0 * rho * worst**2, xi.copy()
        )


# ---------------------------------------------------------------------------
# planner driver
# ---------------------------------------------------------------------------


@dataclass
class RestartResult:
    """One restart's end point.  With the penalty's implied multipliers
    lambda_i = 2 rho excess_i, the penalized gradient is the Lagrangian
    gradient grad f + sum_i lambda_i grad c_i, so ``stationarity`` is its
    norm relative to max(1, |grad f|), and ``complementarity`` is the
    largest lambda_i * excess_i, 2 rho max(excess)^2."""

    index: int
    objective: float
    max_excess: float
    worst_time: float
    rho: float  # the stage the restart ended at (0 when nothing was solved)
    stationarity: float
    complementarity: float
    xi: np.ndarray  # reduced coordinates of the start-relative problem


@dataclass
class PlanReport:
    objective: float
    restart_index: int
    stationarity: float  # the winning restart's first-order measures
    complementarity: float
    residuals: ResidualReport
    residuals_dense: ResidualReport
    restarts: list[RestartResult]
    runtime_s: float
    qp_kkt_residual: float

    def summary(self) -> str:
        lines = [
            f"objective          {self.objective:.6e}",
            f"winning restart    {self.restart_index}",
            f"stationarity (rel) {self.stationarity:.3e}",
            f"complementarity    {self.complementarity:.3e}",
            f"qp kkt residual    {self.qp_kkt_residual:.3e}",
            f"max equality residual   {self.residuals.max_equality:.3e}",
            f"max sampled aggregate   {self.residuals.max_aggregate:.3e}",
            f"max aggregate (dense)   {self.residuals_dense.max_aggregate:.3e}",
            f"runtime            {self.runtime_s:.2f} s",
        ]
        return "\n".join(lines)


def _initial_guess(
    rng: np.random.Generator,
    cons: ConstraintSet,
    opts: PlanOptions,
    z_basis: np.ndarray,
) -> np.ndarray:
    """Random coefficients in a span/T^i box, projected to the null space."""
    positions = [cons.boundary.start_pos, cons.boundary.end_pos]
    positions += [wp.position for wp in cons.waypoints]
    span = float(np.max(np.ptp(np.array(positions), axis=0)))
    span = max(span, 0.5)
    n = opts.order + 1
    scales = np.array([span / opts.T**i for i in range(n)])
    draws = np.zeros((3, z_basis.shape[1]))
    for axis in range(3):
        d = np.concatenate([
            rng.uniform(-scales, scales) for _ in range(opts.segments)
        ])
        draws[axis] = z_basis.T @ d
    return draws.ravel()


def _relative_to(cons: ConstraintSet, origin: np.ndarray) -> ConstraintSet:
    """The constraint set in coordinates relative to ``origin``.  An
    origin-referenced sphere becomes a plain sphere about the old origin."""
    b = cons.boundary
    return replace(
        cons,
        boundary=replace(
            b, start_pos=b.start_pos - origin, end_pos=b.end_pos - origin
        ),
        waypoints=[
            Waypoint(wp.segment, wp.t_local, wp.position - origin)
            for wp in cons.waypoints
        ],
        obstacles=[
            Sphere(ob.reference - origin, ob.radius) if isinstance(ob, Sphere)
            else CylinderX(ob.center_yz - origin[1:], ob.radius)
            for ob in cons.obstacles
        ],
    )


def plan(
    cons: ConstraintSet,
    weights: ObjectiveWeights | None = None,
    opts: PlanOptions | None = None,
) -> tuple[PiecewiseTrajectory, PlanReport]:
    """Multi-start penalty minimization of the snap objective.

    Restart 0 starts from the equality-QP minimizer; the rest start from
    seeded random coefficient draws.  Each restart runs the rho schedule
    with inexact stages: L-BFGS stops each stage at a loose tolerance.  A
    stage whose point is feasible, or the last stage, is then continued to
    the tight tolerance, and the restart ends there if the finished point is
    feasible; so every restart reports a tightly solved point of the stage
    it stopped at.  Returns the feasible restart with the lowest objective
    (ties broken by restart index) or raises PlanInfeasibleError with the
    worst residual and its sample time.
    """
    t_start = time.perf_counter()
    weights = weights or ObjectiveWeights()
    opts = opts or PlanOptions()

    origin = cons.boundary.start_pos
    local = _relative_to(cons, origin)
    problem = _PenaltyProblem(local, weights, opts)
    results: list[RestartResult] = []

    def solve(xi, rho, tol):
        return scipy.optimize.minimize(
            problem.value_and_grad, xi, args=(rho,), jac=True, method="L-BFGS-B",
            options={"maxiter": opts.inner_maxiter, **tol},
        ).x

    for r_idx in range(max(opts.restarts, 1)):
        if problem.k == 0:
            xi = np.zeros(0)
        elif r_idx == 0:
            xi = np.zeros(3 * problem.k)
        else:
            rng = np.random.default_rng([opts.seed, r_idx])
            xi = _initial_guess(rng, local, opts, problem.z)

        rho = 0.0
        for stage, rho in enumerate(opts.rho_schedule if xi.size else ()):
            xi = solve(xi, rho, _STAGE_TOL)
            last = stage == len(opts.rho_schedule) - 1
            if last or problem.worst_excess(xi) <= opts.feas_tol:
                xi = solve(xi, rho, _FINAL_TOL)
                if problem.worst_excess(xi) <= opts.feas_tol:
                    break
        results.append(problem.restart_result(r_idx, xi, rho))

    feasible = [r for r in results if r.max_excess <= opts.feas_tol]
    if not feasible:
        worst_restart = min(results, key=lambda r: r.max_excess)
        raise PlanInfeasibleError(
            "no restart reached the residual tolerance",
            worst_restart.max_excess,
            worst_restart.worst_time,
        )
    best = min(feasible, key=lambda r: (r.objective, r.index))
    traj = problem.trajectory(best.xi, origin)

    residuals = constraint_residuals(traj, cons)
    dense_times = sample_times(traj.duration, cons.sample_interval / 10.0)
    residuals_dense = constraint_residuals(traj, cons, times=dense_times)
    report = PlanReport(
        objective=best.objective,
        restart_index=best.index,
        stationarity=best.stationarity,
        complementarity=best.complementarity,
        residuals=residuals,
        residuals_dense=residuals_dense,
        restarts=results,
        runtime_s=time.perf_counter() - t_start,
        qp_kkt_residual=problem.qp_residual,
    )
    return traj, report


# ---------------------------------------------------------------------------
# published case configurations
# ---------------------------------------------------------------------------


def case_library(name: str) -> tuple[ConstraintSet, PlanOptions, ObjectiveWeights]:
    """Published demonstration configurations.

    Geometry (boundary points, waypoints, obstacle centers and radii) is
    fixed; kinodynamic limits and objective weights were never published, so
    the values here are chosen to keep each case feasible while preserving
    its qualitative character.  Case "c" deliberately leaves the azimuth
    rate unconstrained: its fast heading reversals are the behavior the
    tracking experiments probe.
    """
    name = name.lower()
    if name == "a":
        cons = ConstraintSet(
            boundary=BoundaryConditions(end_pos=[1.0, 1.0, 1.0]),
            obstacles=[Sphere(center=[0.5, 0.5, 0.5], radius=0.5)],
            v_h_max=1.5,
            v_v_max=1.0,
            psi_rate_max=1.5,
        )
        return cons, PlanOptions(segments=1), ObjectiveWeights()
    if name == "b":
        cons = ConstraintSet(
            boundary=BoundaryConditions(end_pos=[0.0, 2.0, 0.0]),
            obstacles=[
                CylinderX(center_yz=[0.5, -0.2], radius=0.3),
                CylinderX(center_yz=[1.5, 0.1], radius=0.3),
            ],
            v_h_max=1.5,
            v_v_max=1.0,
            psi_rate_max=1.5,
        )
        return cons, PlanOptions(segments=2), ObjectiveWeights()
    if name == "c":
        ring = lambda r, ang: [r * math.cos(ang), r * math.sin(ang), 0.0]
        start = [1.5, 0.0, 0.0]
        waypoints = [
            Waypoint(0, 1.5, ring(0.3, math.pi / 3)),
            Waypoint(0, 3.0, ring(1.5, 2 * math.pi / 3)),
            Waypoint(1, 1.5, [-0.3, 0.0, 0.0]),
            Waypoint(1, 3.0, ring(1.5, 4 * math.pi / 3)),
            Waypoint(2, 1.5, ring(0.3, 5 * math.pi / 3)),
        ]
        cons = ConstraintSet(
            boundary=BoundaryConditions(start_pos=start, end_pos=start),
            waypoints=waypoints,
            v_h_max=2.5,
            v_v_max=0.5,
            psi_rate_max=1e6,
        )
        return cons, PlanOptions(segments=3), ObjectiveWeights()
    if name == "line":
        cons = ConstraintSet(
            boundary=BoundaryConditions(
                start_vel=[0.5, 0.0, 0.0],
                end_pos=[1.5, 0.0, 0.0],
                end_vel=[0.5, 0.0, 0.0],
            ),
        )
        return cons, PlanOptions(segments=1), ObjectiveWeights()
    raise InvalidInputError(f"unknown case {name!r}; expected a, b, c or line")
