"""Piecewise-polynomial flat-output trajectories.

A trajectory is an ordered list of segments; each segment holds one
coefficient row per axis (x, y, z) in ascending powers of local time and a
common duration T.  Global time t in [0, M*T] maps to segment floor(t/T);
junction times resolve to the later segment at local time 0.

The snap integral of a segment is a quadratic form in its coefficients and is
evaluated in closed form; the path-length (velocity norm) part of the
objective has no closed form and uses fixed-order Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dynamics import _open_text, _write_csv
from .errors import InvalidInputError, TrajectoryDomainError

SAMPLED_HEADER = "t,x,y,z,vx,vy,vz,ax,ay,az,jx,jy,jz,sx,sy,sz"

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _derivative_rows(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of the order-th derivative, ascending powers along the
    last axis: coeffs[..., order:] scaled by i (i-1) ... (i-order+1).  Past
    the degree the derivative is one zero coefficient."""
    n = coeffs.shape[-1]
    if order >= n:
        return np.zeros(coeffs.shape[:-1] + (1,))
    powers = np.arange(order, n)
    scale = np.prod(powers[:, None] - np.arange(order), axis=1)  # i (i-1) ... (i-order+1)
    return coeffs[..., order:] * scale


def derivative_row(n_coeffs: int, t: float, order: int) -> np.ndarray:
    """Row r with r @ c = d^order/dt^order sum_i c_i t^i."""
    row = np.zeros(n_coeffs)
    for i in range(order, n_coeffs):
        row[i] = math.perm(i, order) * t ** (i - order)
    return row


def snap_gram_matrix(n_coeffs: int, T: float) -> np.ndarray:
    """Gram matrix Q with c^T Q c = integral over [0,T] of (d^4/dt^4 poly)^2."""
    q = np.zeros((n_coeffs, n_coeffs))
    for i in range(4, n_coeffs):
        for k in range(4, n_coeffs):
            power = i + k - 7
            q[i, k] = (
                math.perm(i, 4) * math.perm(k, 4) * T**power / power
            )
    return q


def _locate(times: np.ndarray, M: int, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Segment index and local time of each of ``times`` (clipped to [0, M*T]) on
    M segments of duration T: floor(t/T), the last segment at the end, and a
    time within 1e-12 below a junction the later segment at local time 0."""
    clipped = np.clip(times, 0.0, M * T)
    seg_idx = np.minimum((clipped / T).astype(int), M - 1)
    t_local = clipped - seg_idx * T
    at_junction = (seg_idx < M - 1) & (np.abs(t_local - T) < 1e-12)
    seg_idx[at_junction] += 1
    t_local[at_junction] = 0.0
    return seg_idx, t_local


@dataclass
class PolySegment:
    """One polynomial segment: coeffs shape (3, N+1), ascending powers, local
    time in (0, T].

    The coefficients are not mutated after construction: the derivative
    tables that every evaluation reads are built from them once per order.
    """

    coeffs: np.ndarray
    T: float
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape[0] != 3:
            raise InvalidInputError("segment needs one coefficient row per axis")
        if self.T <= 0:
            raise InvalidInputError("segment duration must be positive")

    @property
    def order(self) -> int:
        return self.coeffs.shape[1] - 1

    def eval(self, t_local, order: int = 0) -> np.ndarray:
        """The order-th derivative at one local time, shape (3,), or many, (3, N);
        its coefficient rows are built once per order."""
        rows = self._tables.get(order)
        if rows is None:
            rows = self._tables[order] = _derivative_rows(self.coeffs, order)
        return np.polynomial.polynomial.polyval(t_local, rows.T)

    def snap_integral(self) -> float:
        q = snap_gram_matrix(self.coeffs.shape[1], self.T)
        return float(sum(self.coeffs[axis] @ q @ self.coeffs[axis] for axis in range(3)))

    def speed_integral(self) -> float:
        """Integral of sum_axis |velocity_axis| via 32-node Gauss-Legendre."""
        nodes = 0.5 * self.T * (_GL_NODES + 1.0)
        weights = 0.5 * self.T * _GL_WEIGHTS
        vel = self.eval(nodes, order=1)
        return float(np.sum(weights * np.sum(np.abs(vel), axis=0)))


@dataclass
class PiecewiseTrajectory:
    """Multi-segment polynomial flat output sigma(t) over [0, M*T].

    The segments are not replaced after construction: the segment count M,
    the common segment duration T and the total duration are fixed then.
    """

    segments: list[PolySegment]
    M: int = field(init=False, repr=False, compare=False)
    T: float = field(init=False, repr=False, compare=False)
    duration: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise InvalidInputError("trajectory needs at least one segment")
        durations = {seg.T for seg in self.segments}
        if len(durations) != 1:
            raise InvalidInputError("segments must share one duration")
        self.M = len(self.segments)
        self.T = self.segments[0].T
        self.duration = self.M * self.T

    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """The order-th derivative at one time, shape (3,): ``eval_many``'s row."""
        return self._per_segment(np.array([float(t)]), lambda seg, t: seg.eval(t, order).T,
                                 (3,))[0]

    def eval_many(self, times: Iterable[float], order: int = 0) -> np.ndarray:
        """Vectorized evaluation at many times, shape (len(times), 3)."""
        times = np.asarray(list(times) if not isinstance(times, np.ndarray) else times,
                           dtype=float)
        return self._per_segment(times, lambda seg, t: seg.eval(t, order).T, (3,))

    def taylor(self, times: np.ndarray, order: int, first: int = 0) -> np.ndarray:
        """sigma^(k)(t)/k! for k = first..order at many times, shape
        (order+1-first, N, 3)."""
        ks = range(first, order + 1)
        return self._per_segment(np.asarray(times, dtype=float), lambda seg, t: np.stack(
            [seg.eval(t, k).T / math.factorial(k) for k in ks], axis=1,
        ), (len(ks), 3)).transpose(1, 0, 2)

    def _per_segment(self, times: np.ndarray, fn, shape: tuple) -> np.ndarray:
        """fn(segment, local times) on the samples of each segment, stacked
        along a leading sample axis of an array of the given trailing shape.  A
        time outside the span by more than 1e-12, or NaN, raises
        TrajectoryDomainError."""
        out = np.empty((times.size, *shape))
        if times.size == 0:
            return out
        if not (np.min(times) >= -1e-12 and np.max(times) <= self.duration + 1e-12):
            raise TrajectoryDomainError("evaluation times outside [0, M*T]")
        seg_idx, t_local = _locate(times, self.M, self.T)
        segments = np.flatnonzero(np.bincount(seg_idx.ravel(), minlength=self.M))
        for s in segments:
            mask = seg_idx == s if len(segments) > 1 else slice(None)
            out[mask] = fn(self.segments[s], t_local[mask])
        return out

    def flat_sample(self, t: float) -> "FlatSample":
        return FlatSample(*(self.eval(t, order) for order in range(4)))

    def continuity_residuals(self) -> np.ndarray:
        """|junction mismatch| for derivative orders 0..3, shape (M-1, 4)."""
        return np.array([
            [np.max(np.abs(left.eval(self.T, k) - right.eval(0.0, k))) for k in range(4)]
            for left, right in zip(self.segments, self.segments[1:])
        ]).reshape(self.M - 1, 4)

    def to_coeff_csv(self, path) -> None:
        n = self.segments[0].coeffs.shape[1]
        header = "seg,axis," + ",".join(f"c{i}" for i in range(n)) + ",T"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for s_idx, seg in enumerate(self.segments):
                for axis in range(3):
                    cells = [str(s_idx), str(axis)]
                    cells += [f"{c:.17g}" for c in seg.coeffs[axis]]
                    cells.append(f"{seg.T:.17g}")
                    fh.write(",".join(cells) + "\n")

    @classmethod
    def from_coeff_csv(cls, path) -> "PiecewiseTrajectory":
        """Read ``to_coeff_csv``'s file: one row (seg, axis, c0..cN, T) for each
        segment 0..M-1 and axis 0..2, all with one T > 0.  A malformed file
        raises InvalidInputError naming the file and, for a bad row, its line."""
        with _open_text(path) as fh:
            header = fh.readline().strip().split(",")
            n = len(header) - 3
            if n < 1 or header[:2] != ["seg", "axis"] or header[-1] != "T":
                raise InvalidInputError(f"{path}, line 1: not a seg,axis,c0,...,T header")
            rows = {}
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                try:
                    if len(cells) != n + 3:
                        raise ValueError(f"{len(cells)} cells, the header has {n + 3}")
                    key, values = (int(cells[0]), int(cells[1])), [float(x) for x in cells[2:]]
                    if key in rows or key[0] < 0 or key[1] not in (0, 1, 2):
                        raise ValueError(f"segment {key[0]}, axis {key[1]} again or out of range")
                    if not all(map(math.isfinite, values)) or values[-1] <= 0:
                        raise ValueError("a non-finite cell or T <= 0")
                    if rows and values[-1] != T:
                        raise ValueError(f"T = {values[-1]!r}, not {T!r} as above")
                except ValueError as err:
                    raise InvalidInputError(f"{path}, line {lineno}: {err}") from None
                rows[key], T = values[:n], values[-1]
        segments = 1 + max((seg for seg, _ in rows), default=0)
        missing = next(((seg, axis) for seg in range(segments) for axis in range(3)
                        if (seg, axis) not in rows), None)
        if missing is not None:
            raise InvalidInputError("{}: segment {}, axis {} has no row".format(path, *missing))
        return cls([PolySegment([rows[seg, axis] for axis in range(3)], T)
                    for seg in range(segments)])

    def to_sampled_csv(self, path, dt: float = 0.01) -> None:
        """Time, then position and derivatives up to snap, every dt."""
        times = np.minimum(np.arange(0.0, self.duration + dt / 2, dt), self.duration)
        tables = [self.eval_many(times, order) for order in range(5)]
        _write_csv(path, SAMPLED_HEADER, np.column_stack([times, *tables]))


@dataclass
class FlatSample:
    """Flat output and its derivatives up to 3rd order at one instant."""

    sigma: np.ndarray
    d1: np.ndarray = field(default_factory=lambda: np.zeros(3))
    d2: np.ndarray = field(default_factory=lambda: np.zeros(3))
    d3: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("sigma", "d1", "d2", "d3"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (3,):
                raise InvalidInputError(f"{name} must be a 3-vector")
            if not np.all(np.isfinite(value)):
                raise InvalidInputError(f"{name} must be finite")
            setattr(self, name, value)


@dataclass
class ObjectiveWeights:
    """Snap weight mu_p and path-length weight mu_v."""

    mu_p: float = 1.0
    mu_v: float = 0.1

    def __post_init__(self):
        if self.mu_p <= 0 or self.mu_v < 0:
            raise InvalidInputError("need mu_p > 0 and mu_v >= 0")


def snap_objective(traj: PiecewiseTrajectory, weights: ObjectiveWeights) -> float:
    """mu_p * closed-form snap integral + mu_v * quadrature path-length term."""
    total = weights.mu_p * sum(seg.snap_integral() for seg in traj.segments)
    if weights.mu_v > 0:
        total += weights.mu_v * sum(seg.speed_integral() for seg in traj.segments)
    return float(total)
