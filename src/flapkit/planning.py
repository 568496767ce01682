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
more product.  One evaluation builds the gradient block of a constraint
family only when one of its samples is active, and L-BFGS reads the value
and the gradient at a point from one cached evaluation.

The planner works in coordinates relative to the start position, so a
translated scenario presents the solver with the same numbers and yields
the translated plan; the start is added back to the solution's constant
coefficients.

The inequalities are one law over arrays of sampled positions, velocities
and accelerations.  The penalty reads it with slightly inflated obstacle
radii and slightly tightened kinodynamic limits, so that residuals checked
between samples stay within tolerance; the residual report reads it on the
raw constraint set in the caller's coordinates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

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


def _offsets(pos: np.ndarray, ref: np.ndarray, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of positions (3, m) from ``ref`` over ``axes`` (both
    (..., 3, 1)), and their lengths."""
    delta = (pos - ref) * axes
    return delta, np.sqrt((delta * delta).sum(axis=-2))


class _Obstacle:
    """A clearance ball: distance is measured from ``reference`` over the ``axes`` set to 1."""

    def distance(self, points: np.ndarray) -> np.ndarray:
        return _offsets(np.atleast_2d(points).T, self.reference[:, None], self.axes[:, None])[1]


@dataclass
class Sphere(_Obstacle):
    """Ball obstacle: clearance is measured from the center."""

    center: np.ndarray
    radius: float
    axes = np.array([1.0, 1.0, 1.0])

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise InvalidInputError("obstacle radius must be positive")

    @property
    def reference(self) -> np.ndarray:
        """Point that clearance is measured from."""
        return self.center


@dataclass
class CylinderX(_Obstacle):
    """Cylinder along the inertial X axis, unbounded, located in the Y-Z plane."""

    center_yz: np.ndarray
    radius: float
    axes = np.array([0.0, 1.0, 1.0])

    def __post_init__(self):
        self.center_yz = np.asarray(self.center_yz, dtype=float)
        if self.radius <= 0:
            raise InvalidInputError("obstacle radius must be positive")

    @property
    def reference(self) -> np.ndarray:
        """A point of the axis; its x is masked by ``axes``."""
        return np.array([0.0, *self.center_yz])


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
    """Labels of rows outside a maximal independent set (QR pivoting:
    numpy has no column-pivoted QR, and LAPACK's pivot order names the rows)."""
    import scipy.linalg

    _, r, piv = scipy.linalg.qr(a_mat.T, pivoting=True, mode="economic")
    diag = np.abs(np.diag(r))
    tol = max(a_mat.shape) * np.finfo(float).eps * (diag[0] if diag.size else 1.0)
    rank = int(np.sum(diag > tol))
    return [labels[i] for i in sorted(piv[rank:])]


def _snap_block(opts: PlanOptions) -> np.ndarray:
    q_seg = snap_gram_matrix(opts.order + 1, opts.T)
    n = q_seg.shape[0]
    q_blk = np.zeros((opts.segments * n, opts.segments * n))
    for j in range(opts.segments):
        q_blk[j * n:(j + 1) * n, j * n:(j + 1) * n] = q_seg
    return q_blk


def _null_space(a_mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``a_mat`` from its full SVD,
    with the rank rule of ``scipy.linalg.null_space``.  The basis is a view
    of the Fortran-ordered right singular vectors, the layout scipy returns:
    the BLAS products that read it round by layout, so plans stay the same
    to the bit."""
    _, s, vh = np.linalg.svd(a_mat, full_matrices=True)
    tol = max(a_mat.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    return np.asfortranarray(vh)[int(np.sum(s > tol)):].T


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
    satisfies the constraint set at the sampled times.  The inequality
    fields are the row sums and the largest entry of the penalty's excess
    table on the raw limits (obstacle distances floored at 1e-9 m, as in
    the penalty); ``worst_sample_time`` is that entry's sample time, 0 when
    no sample exceeds."""

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


class _SampledLaw:
    """The sampled inequality constraints (horizontal speed, vertical speed,
    azimuth rate, obstacle clearance) with the limits tightened and the
    obstacle radii inflated by the margins."""

    def __init__(self, cons: ConstraintSet, speed_margin=0.0, rate_margin=0.0,
                 obstacle_margin=0.0):
        self.limits = np.reshape([
            cons.v_h_max - speed_margin, cons.v_v_max - speed_margin,
            cons.psi_rate_max - rate_margin,
        ], (3, 1))
        obstacles = cons.obstacles
        self.rows = 3 + len(obstacles)
        self.ob_axes = np.reshape([ob.axes for ob in obstacles], (-1, 3, 1))
        self.ob_ref = np.reshape([ob.reference for ob in obstacles], (-1, 3, 1))
        self.ob_radius = np.reshape([ob.radius + obstacle_margin for ob in obstacles], (-1, 1))

    def excess(self, pos: np.ndarray, vel: np.ndarray, acc: np.ndarray) -> tuple:
        """The rectified excess table of samples (3, m), rows horizontal
        speed, vertical speed, azimuth rate, then one per obstacle, and what
        the gradient reads: h = |v_xy|, u = h^2, the floored denominator,
        the rate, the offsets (obstacles, 3, m) and the distances floored
        at 1e-9 (both None without obstacles)."""
        vx, vy, vz = vel
        table = np.empty((self.rows, vx.size))
        h = np.hypot(vx, vy)
        u = h * h
        den = np.maximum(u, SPEED_FLOOR**2)
        rate = (vx * acc[1] - vy * acc[0]) / den
        table[0] = h
        np.abs(vz, out=table[1])
        np.abs(rate, out=table[2])
        table[:3] -= self.limits
        delta = dist = None
        if self.rows > 3:
            delta, dist = _offsets(pos, self.ob_ref, self.ob_axes)
            dist = np.maximum(dist, 1e-9)
            np.subtract(self.ob_radius, dist, out=table[3:])
        np.maximum(table, 0.0, out=table)
        return table, h, u, den, rate, delta, dist


def _worst(excess: np.ndarray, times: np.ndarray) -> tuple[float, float]:
    """The largest excess and its sample time, (0, 0) when none exceeds."""
    i = int(excess.argmax()) if excess.size else 0
    if excess.size and excess.flat[i] > 0.0:
        return float(excess.flat[i]), float(times[i % times.size])
    return 0.0, 0.0


def constraint_residuals(
    traj: PiecewiseTrajectory,
    cons: ConstraintSet,
    times: np.ndarray | None = None,
) -> ResidualReport:
    """Equality residuals plus rectified-aggregate inequality residuals."""
    opts = PlanOptions(segments=traj.M, order=traj.segments[0].order, T=traj.T)
    a_mat, b_mat, labels = build_equality_system(cons, opts)
    stacked = np.concatenate([seg.coeffs for seg in traj.segments], axis=1)
    eq = np.stack([a_mat @ stacked[axis] - b_mat[:, axis] for axis in range(3)], axis=1)
    if times is None:
        times = sample_times(traj.duration, cons.sample_interval)
    excess = _SampledLaw(cons).excess(*(traj.eval_many(times, k).T for k in range(3)))[0]
    sums = excess.sum(axis=1).tolist()
    worst_val, worst_time = _worst(excess, times)
    return ResidualReport(
        boundary=eq[:6],
        waypoints=eq[6 : 6 + len(cons.waypoints)],
        continuity=traj.continuity_residuals(),
        h_speed=sums[0],
        v_speed=sums[1],
        psi_rate=sums[2],
        obstacles=sums[3:],
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
        c0 = np.concatenate([seg.coeffs for seg in qp_traj.segments], axis=1)
        z_basis = _null_space(a_mat)
        self.opts = opts
        self.c0 = c0  # (3, total)
        self.z = z_basis  # (total, k)
        self.k = z_basis.shape[1]
        self.n = opts.order + 1

        self.law = _SampledLaw(cons, opts.speed_margin, opts.rate_margin, opts.obstacle_margin)

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
        # one-entry cache of evaluate(): (point bytes, rho) and the result
        self._key = self._last = None

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
        """Objective + rho * penalty, its gradient, and the law's excess
        table.  A family's gradient block, zero where no sample is active,
        is built only when one is."""
        x = xi.reshape(3, self.k)
        m = self.tau.size
        s = self.s0 + x @ self.bt
        pos, vel, acc = s[:, :m], s[:, m : 2 * m], s[:, 2 * m : 3 * m]
        excess, h, u, den, rate, delta, dist = self.law.excess(pos, vel, acc)
        live_h, live_v, live_r = map(np.count_nonzero, excess[:3])
        # d = d(penalty)/dS, scaled by rho before the path-length columns
        d = np.zeros(s.shape)
        if live_v:
            d[2, m : 2 * m] = np.copysign(2.0 * excess[1], vel[2])
        if live_h or live_r:
            w_h = 2.0 * excess[0] / np.maximum(h, 1e-12)
            w = np.copysign(2.0 * excess[2], rate) / den
            # the rate's speed dependence vanishes where the floor holds
            w_h -= 2.0 * w * rate * (u > SPEED_FLOOR**2)
            d[:2, m : 2 * m] = w_h * vel[:2] + w * (acc[1::-1] * _FLIP)
            d[:2, 2 * m : 3 * m] = -w * (vel[1::-1] * _FLIP)
        g = excess[3:]
        if np.count_nonzero(g):
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
        """Penalized objective and gradient, evaluated afresh."""
        value, grad, _ = self.evaluate(xi, rho)
        return value, grad

    def _cached(self, xi: np.ndarray, rho: float) -> tuple[float, np.ndarray, np.ndarray]:
        # rho is part of the key: one point is read at several rho (each
        # stage starts at the point the previous stage returned)
        key = (xi.tobytes(), rho)
        if key != self._key:
            self._key, self._last = key, self.evaluate(xi, rho)
        return self._last

    def _forget(self) -> None:
        self._key = self._last = None

    def value(self, xi: np.ndarray, rho: float) -> float:
        """Penalized objective, the L-BFGS inner problem.  ``value`` and
        ``gradient`` read one cached evaluation per (point, rho)."""
        return self._cached(xi, rho)[0]

    def gradient(self, xi: np.ndarray, rho: float) -> np.ndarray:
        """Gradient of ``value``, from the same cached evaluation."""
        return self._cached(xi, rho)[1]

    def worst_excess(self, xi: np.ndarray) -> float:
        """Worst per-sample excess, 0 when no sample exceeds.  The excess
        does not depend on rho, so a cached evaluation at xi is read."""
        if self._key is not None and self._key[0] == xi.tobytes():
            excess = self._last[2]
        else:
            excess = self.evaluate(xi, 0.0)[2]
        return _worst(excess, self.tau)[0]

    def restart_result(self, index: int, xi: np.ndarray, rho: float) -> "RestartResult":
        """The restart's objective, worst excess and its time (0 when no
        sample exceeds), and its first-order measures at stage rho."""
        value, grad_f, excess = self.evaluate(xi, 0.0)
        grad_q = self.evaluate(xi, rho)[1]
        worst, worst_t = _worst(excess, self.tau)
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
    """The constraint set in coordinates relative to ``origin``: every
    position, waypoint and obstacle center is shifted by -origin."""
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
            Sphere(ob.center - origin, ob.radius) if isinstance(ob, Sphere)
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
    import scipy.optimize  # minimize is looked up at each solve, so a wrapper on it is called

    t_start = time.perf_counter()
    weights = weights or ObjectiveWeights()
    opts = opts or PlanOptions()

    if not sample_times(opts.segments * opts.T, cons.sample_interval).size:
        raise InvalidInputError(f"sample interval {cons.sample_interval:g} s leaves no sample "
                                f"inside (0, {opts.segments * opts.T:g} s) to enforce limits at")
    origin = cons.boundary.start_pos
    local = _relative_to(cons, origin)
    problem = _PenaltyProblem(local, weights, opts)
    results: list[RestartResult] = []

    def solve(xi, rho, tol):
        # a solve evaluates every point it visits, its start included, so
        # the solver's nfev counts the evaluations it cost
        problem._forget()
        return scipy.optimize.minimize(
            problem.value, xi, args=(rho,), jac=problem.gradient, method="L-BFGS-B",
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
