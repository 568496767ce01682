"""Builders the tests share: one-segment trajectories, the kv pairs of a
parameter or gain set, and the Hamilton product of two quaternions."""

import dataclasses

import numpy as np

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
