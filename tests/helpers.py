"""Builders the tests share: one-segment trajectories, the kv pairs of a
parameter or gain set, the Hamilton product of two quaternions, state,
input and command rows from named fields, and the planner's oracles: the
per-row penalty values and the sequential restart chain."""

import dataclasses
import hashlib

import numpy as np
import scipy.optimize

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


def full_row(p=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0), q=IDENTITY_Q, omega=(0.0, 0.0, 0.0),
             f_flap=0.0, theta_rud=0.0, theta_ele=0.0) -> list:
    """A full state row (the columns of ``FULL_LOG_HEADER`` after t); the
    defaults are the level rest state."""
    return [float(x) for x in (*p, *v, *q, *omega, f_flap, theta_rud, theta_ele)]


def vertical_row(p=(0.0, 0.0, 0.0), vv=(0.0, 0.0, 0.0), psi=0.0, omega_psi=0.0) -> list:
    """A vertical state row (the state columns of ``VERTICAL_LOG_HEADER``);
    the defaults are the rest state."""
    return [float(x) for x in (*p, *vv, psi, omega_psi)]


def vertical_inputs(gamma, f_flap, theta_rud=0.0) -> tuple:
    """A vertical input row (gx, gy, gz, f_flap, theta_rud)."""
    return (*(float(g) for g in gamma), float(f_flap), float(theta_rud))


def commands(f_flap_c=0.0, theta_rud_c=0.0, theta_ele_c=0.0) -> tuple:
    """A full-model command row (f_flap_c, theta_rud_c, theta_ele_c); zero by
    default."""
    return float(f_flap_c), float(theta_rud_c), float(theta_ele_c)


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
