"""Builders and oracles the tests share: one-segment trajectories, the kv
pairs of a parameter or gain set, the Hamilton product of two quaternions,
the attitude maps in matrix form (R(q), the reduced attitude, the tilt
factor and the azimuth split), state, input and command rows from named
fields, the full model's RK4 steps on ``full_rhs`` and its open-loop
simulator ``simulate_full``, the planner's oracles: the per-row penalty
values and the sequential restart chain, and the tracking-error split over a
whole log in one pass."""

import dataclasses
import hashlib
import math

import numpy as np
import scipy.optimize

from flapkit.attitude import ANTIPODAL_TOL, rotz, wrap_angle
from flapkit.dynamics import FullLog, _half_steps, full_rhs, rk4_flat
from flapkit.errors import DegenerateAttitudeError, InvalidInputError, PropagationError
from flapkit.flatness import V_EPS
from flapkit.planning import (
    INNER_MAXITER,
    RestartResult,
    _FEAS_TOL,
    _FINAL_TOL,
    _RHO_SCHEDULE,
    _SOFTABS_EPS,
    _STAGE_TOL,
    _PenaltyProblem,
    _initial_guess,
    _relative_to,
    _worst,
)
from flapkit.trajectory import PiecewiseTrajectory, PolySegment


def single_segment(coeffs_per_axis, T: float) -> PiecewiseTrajectory:
    """A one-segment trajectory."""
    return PiecewiseTrajectory([PolySegment(np.asarray(coeffs_per_axis, dtype=float), T)])


def constant_trajectory(point, T: float = 1.0, order: int = 6) -> PiecewiseTrajectory:
    """A one-segment trajectory resting at ``point``."""
    coeffs = np.zeros((3, order + 1))
    coeffs[:, 0] = np.asarray(point, dtype=float)
    return single_segment(coeffs, T)


def kv_pairs(params) -> list:
    """(key, value) of each field of a parameter or gain dataclass, as its kv
    file names it, in field order; an inertia J comes last, as its upper
    triangle jxx, jxy, ..., jzz (the layout of the shipped parameter file)."""
    pairs = [(fld.name, getattr(params, fld.name)) for fld in dataclasses.fields(params)
             if fld.name != "J"]
    if hasattr(params, "J"):
        pairs += [(f"j{row}{col}", params.J[i, j]) for i, row in enumerate("xyz")
                  for j, col in enumerate("xyz") if j >= i]
    return pairs


def hamilton(p, q) -> np.ndarray:
    """Hamilton product p (x) q of scalar-first quaternions (eta, epsilon)."""
    (pw, *pv), (qw, *qv) = p, q
    pv, qv = np.asarray(pv, dtype=float), np.asarray(qv, dtype=float)
    return np.concatenate(([pw * qw - pv @ qv], pw * qv + qw * pv + np.cross(pv, qv)))


IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)  # scalar-first (eta, ex, ey, ez)
E3 = np.array([0.0, 0.0, 1.0])
UNIT_TOL = 1e-6


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def quat_to_rot(q) -> np.ndarray:
    """Rotation matrix R(q) = I + 2 eta [eps]x + 2 [eps]x^2 of a unit quaternion
    row (eta, ex, ey, ez), mapping body-frame vectors into the inertial frame.

    Raises InvalidInputError when ``q`` is not a 4-row or deviates from unit
    norm by more than 1e-6.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise InvalidInputError("quaternion must have shape (4,)")
    norm = math.sqrt(q[0] ** 2 + float(q[1:] @ q[1:]))
    if abs(norm - 1.0) > UNIT_TOL:
        raise InvalidInputError(f"quaternion norm {norm:.8f} is not 1")
    s = skew(q[1:])
    return np.eye(3) + 2.0 * q[0] * s + 2.0 * (s @ s)


def reduced_attitude(q) -> np.ndarray:
    """Yaw-invariant reduced attitude Gamma = R(q)^T e3."""
    return quat_to_rot(q).T @ E3


def tilt_quaternion(gamma: np.ndarray, sign: int = 1) -> np.ndarray:
    """Zero-yaw quaternion row whose reduced attitude equals ``gamma``.

    Built from the unnormalized pair s_e * [Gamma.e3 + 1, Gamma x e3]; both
    sign choices represent the same rotation.  Raises
    DegenerateAttitudeError when Gamma is antipodal to e3.
    """
    gamma = np.asarray(gamma, dtype=float)
    if abs(np.linalg.norm(gamma) - 1.0) > UNIT_TOL:
        raise InvalidInputError("reduced attitude must be a unit vector")
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    w = float(gamma @ E3) + 1.0
    if w < ANTIPODAL_TOL:
        raise DegenerateAttitudeError("reduced attitude antipodal to +Z")
    eta, eps = sign * w, sign * np.array([gamma[1], -gamma[0], 0.0])  # Gamma x e3
    return np.concatenate(([eta], eps)) / math.sqrt(eta**2 + float(eps @ eps))


def recover_attitude(gamma: np.ndarray, psi: float, sign: int = 1) -> np.ndarray:
    """Full rotation matrix R = Rz(psi) * R(q_e) from reduced attitude and azimuth."""
    q_e = tilt_quaternion(gamma, sign)
    return rotz(psi) @ quat_to_rot(q_e)


def split_azimuth(rot: np.ndarray) -> tuple[float, np.ndarray]:
    """Split R into (psi, gamma) such that recover_attitude(gamma, psi) == R.

    Inverse of recover_attitude for non-antipodal attitudes.
    """
    rot = np.asarray(rot, dtype=float)
    gamma = rot.T @ E3
    r_e = quat_to_rot(tilt_quaternion(gamma))
    rz = rot @ r_e.T
    psi = math.atan2(rz[1, 0], rz[0, 0])
    return wrap_angle(psi), gamma


def full_row(p=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0), q=IDENTITY_Q, omega=(0.0, 0.0, 0.0),
             f_flap=0.0, theta_rud=0.0, theta_ele=0.0) -> list:
    """A full state row (the columns of ``FULL_LOG_HEADER`` after t); the
    defaults are the level rest state."""
    return [float(x) for x in (*p, *v, *q, *omega, f_flap, theta_rud, theta_ele)]


def vertical_row(p=(0.0, 0.0, 0.0), vv=(0.0, 0.0, 0.0), psi=0.0, omega_psi=0.0) -> list:
    """A vertical state row (the state columns of ``VERTICAL_LOG_HEADER``);
    the defaults are the rest state."""
    return [float(x) for x in (*p, *vv, psi, omega_psi)]


def vertical_inputs(gamma, f_flap) -> tuple:
    """A vertical input row (the input columns of ``VERTICAL_LOG_HEADER``)."""
    return (*(float(g) for g in gamma), float(f_flap))


def commands(f_flap_c=0.0, theta_rud_c=0.0, theta_ele_c=0.0) -> tuple:
    """A full-model command row (f_flap_c, theta_rud_c, theta_ele_c); zero by
    default."""
    return float(f_flap_c), float(theta_rud_c), float(theta_ele_c)


def full_steps(params, y0, rows, dt, radius=math.inf):
    """The full model's RK4 steps from the state row y0 over 2n + 1 half-step
    command rows: ``rk4_flat`` on ``full_rhs`` per step, then the quaternion
    projected onto the unit sphere.  Returns the logged states, the step the
    run stopped at (or None) and why: "stage" for a non-finite stage (the step
    is not logged), "state" for a non-finite state or one beyond ``radius``
    (it is), or the InvalidInputError a stage raised."""
    want = [list(y0)]
    for k in range(1, len(rows) // 2 + 1):
        try:
            y = rk4_flat(full_rhs, want[-1], dt, *rows[2 * k - 2 : 2 * k + 1], params)
        except PropagationError:
            return want, k, "stage"
        except InvalidInputError as err:
            return want, k, err
        n = math.sqrt(y[6] * y[6] + y[7] * y[7] + y[8] * y[8] + y[9] * y[9])
        if n > 0:
            y[6:10] = [v / n for v in y[6:10]]
        want.append(y)
        if math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) > radius or not all(
                map(math.isfinite, y)):
            return want, k, "state"
    return want, None, None


def simulate_full(state0, params, commands, dt: float = 1e-3, duration: float = 1.0) -> FullLog:
    """Open-loop run of the full model from the state row ``state0`` under a
    schedule of command rows (f_flap_c, theta_rud_c, theta_ele_c), read once
    at each half-step time: ``full_steps`` over that table.  Raises what a
    stage's ``full_rhs`` raises, and PropagationError naming the step of a
    non-finite stage or state."""
    rows = [commands(t) for t in _half_steps(dt, duration)]
    want, stop, why = full_steps(params, state0, rows, dt)
    if isinstance(why, InvalidInputError):
        raise why
    if stop is not None:
        raise PropagationError("integration produced non-finite state", step=stop)
    return FullLog(np.arange(len(want)) * dt, np.array(want))


def evaluate_one(problem, xi, rho) -> tuple:
    """(value, gradient, excess table) of a penalty problem at one point:
    the one-row call of its batched ``evaluate``."""
    values, grads, excess = problem.evaluate(xi[None], [rho])
    return values[0], grads[0], excess[0]


def vdot_values(problem, xi, rho) -> list:
    """Oracle of the values of a penalty problem's ``evaluate`` at the rows
    of xi (R, 3k), row r at stage rho[r]: each row's snap, penalty and
    path-length inner products one ``np.vdot`` each, summed as Python
    floats, on the samples and excess table ``evaluate`` computes."""
    x = xi.reshape(len(xi), 3, problem.k)
    m = problem.tau.size
    s = problem.s0 + x @ problem.bt
    excess = problem.law.excess(s[..., :m], s[..., m : 2 * m], s[..., 2 * m : 3 * m])[0]
    q = problem.g0 + 0.5 * (x @ problem.h)
    values = [
        problem.f0 + float(np.vdot(q_r, x_r)) + rho_r * float(np.vdot(e_r, e_r))
        for q_r, x_r, e_r, rho_r in zip(q, x, excess, rho)
    ]
    if problem.mu_v:
        v = s[..., 3 * m :]
        soft = np.sqrt(v * v + _SOFTABS_EPS**2)
        values = [value + float(np.vdot(soft_r, problem.v_weights))
                  for value, soft_r in zip(values, soft)]
    return values


def sequential_restarts(cons, weights, opts) -> list:
    """Oracle of ``plan``'s restarts: each restart run alone, one after
    another, every inner solve a ``scipy.optimize.minimize`` L-BFGS-B call
    on the one-row penalty evaluation; the solve records come from scipy's
    own result.  ``plan`` drives the same L-BFGS-B routine for all restarts
    in lockstep, so its restarts must equal these bit for bit."""
    local = _relative_to(cons, cons.boundary.start_pos)
    problem = _PenaltyProblem(local, weights, opts)

    def evaluate(xi, rho):
        return evaluate_one(problem, xi, rho)

    def solve(xi, rho, tight, solves):
        res = scipy.optimize.minimize(
            lambda x: evaluate(x, rho)[:2], xi, jac=True, method="L-BFGS-B",
            options={"maxiter": INNER_MAXITER, **(_FINAL_TOL if tight else _STAGE_TOL)},
        )
        solves.append((rho, tight, res.nit, res.nfev, res.status))
        return res.x

    def worst(xi):
        return _worst(evaluate(xi, 0.0)[2], problem.tau)[0]

    results = []
    for index in range(opts.restarts):
        if problem.k == 0:
            xi = np.zeros(0)
        elif index == 0:
            xi = np.zeros(3 * problem.k)
        else:
            rng = np.random.default_rng([opts.seed, index])
            xi = _initial_guess(rng, local, opts, problem.z)
        rho, solves = 0.0, []
        for stage, rho in enumerate(_RHO_SCHEDULE if xi.size else ()):
            xi = solve(xi, rho, False, solves)
            last = stage == len(_RHO_SCHEDULE) - 1
            if last or worst(xi) <= _FEAS_TOL:
                xi = solve(xi, rho, True, solves)
                if worst(xi) <= _FEAS_TOL:
                    break
        value, grad_f, excess = evaluate(xi, 0.0)
        grad_q = evaluate(xi, rho)[1]
        max_excess, worst_t = _worst(excess, problem.tau)
        stationarity = float(np.linalg.norm(grad_q)) / max(1.0, float(np.linalg.norm(grad_f)))
        results.append(RestartResult(index, value, max_excess, worst_t, rho, stationarity,
                                     2.0 * rho * max_excess**2, xi.copy(), solves))
    return results


def assert_same_restarts(got: list, want: list) -> None:
    """Restart results equal bit for bit, field by field."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for fld in dataclasses.fields(RestartResult):
            a, b = getattr(g, fld.name), getattr(w, fld.name)
            if fld.name == "xi":
                assert a.tobytes() == b.tobytes(), (g.index, fld.name)
            else:
                assert a == b, (g.index, fld.name, a, b)


def restarts_digest(restarts: list) -> str:
    """sha256 over every field of each restart result, bit for bit: the xi
    bytes and the exact repr of the rest."""
    digest = hashlib.sha256()
    for result in restarts:
        for fld in dataclasses.fields(RestartResult):
            value = getattr(result, fld.name)
            digest.update(value.tobytes() if fld.name == "xi" else repr(value).encode())
    return digest.hexdigest()


def error_components_oracle(positions, times, traj) -> np.ndarray:
    """``metrics.error_components`` in one pass over the whole log, every
    temporary as long as the log: the (along, cross, altitude) split that the
    blocked pass must reproduce bit for bit."""
    times = np.asarray(times, dtype=float)
    t_ref = np.minimum(times, traj.duration)
    ref_pos = traj.eval_many(t_ref, 0)
    ref_vel = traj.eval_many(t_ref, 1)
    err = ref_pos - np.asarray(positions, dtype=float)

    h_speed = np.hypot(ref_vel[:, 0], ref_vel[:, 1])
    live = h_speed >= V_EPS
    ux = np.where(live, ref_vel[:, 0] / np.where(live, h_speed, 1.0), 1.0)
    uy = np.where(live, ref_vel[:, 1] / np.where(live, h_speed, 1.0), 0.0)

    along = err[:, 0] * ux + err[:, 1] * uy
    cross = -err[:, 0] * uy + err[:, 1] * ux
    return np.column_stack([along, cross, err[:, 2]])
