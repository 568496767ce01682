"""Tracking-error metrics: along-track / cross-track / altitude decomposition.

At every log sample the position error e = sigma_r - p splits into the
horizontal component along the desired velocity azimuth, the horizontal
component perpendicular to it, and the vertical component, so the three
channels always recompose to |e|^2.  Where the desired horizontal speed is
too small to define a heading, the split falls back to the inertial X/Y
axes.  MAX and RMS per channel mirror the published result-table layout;
the published real-flight numbers ship alongside as a comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .flatness import _BLOCK, V_EPS
from .trajectory import PiecewiseTrajectory

METRICS_HEADER = (
    "case,along_max,along_rms,cross_max,cross_rms,alt_max,alt_rms"
)


@dataclass
class ChannelStats:
    max: float
    rms: float

    def __post_init__(self):
        # the RMS of a constant channel can round up past its max by an ulp of
        # the max, so the tolerance scales with it
        if self.rms > self.max + 1e-12 * max(1.0, self.max):
            raise InvalidInputError("rms cannot exceed max")


@dataclass
class MetricsReport:
    case: str
    along: ChannelStats
    cross: ChannelStats
    altitude: ChannelStats

    def row(self) -> list[float]:
        return [
            self.along.max, self.along.rms,
            self.cross.max, self.cross.rms,
            self.altitude.max, self.altitude.rms,
        ]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(METRICS_HEADER + "\n")
            cells = [self.case] + [f"{x:.12g}" for x in self.row()]
            fh.write(",".join(cells) + "\n")

    def summary(self) -> str:
        return (
            f"case {self.case}\n"
            f"  along-track  MAX {self.along.max:.3f} m  RMS {self.along.rms:.3f} m\n"
            f"  cross-track  MAX {self.cross.max:.3f} m  RMS {self.cross.rms:.3f} m\n"
            f"  altitude     MAX {self.altitude.max:.3f} m  RMS {self.altitude.rms:.3f} m"
        )


def error_components(
    positions: np.ndarray,
    times: np.ndarray,
    traj: PiecewiseTrajectory,
) -> np.ndarray:
    """Per-sample (along, cross, altitude) error components, shape (n, 3).

    The log runs through in blocks of ``_BLOCK`` samples, so the reference
    tables and the heading split take memory for one block, not for the whole
    log; every operation is per sample, so the blocks change no value."""
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if times.ndim != 1 or positions.shape != (times.size, 3):
        raise InvalidInputError(
            f"positions of shape {positions.shape} do not match "
            f"{times.shape} log times: want ({times.size}, 3)"
        )
    comps = np.empty((times.size, 3))
    for lo in range(0, times.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        t_ref = np.minimum(times[block], traj.duration)
        ref_pos = traj.eval_many(t_ref, 0)
        ref_vel = traj.eval_many(t_ref, 1)
        err = ref_pos - positions[block]

        h_speed = np.hypot(ref_vel[:, 0], ref_vel[:, 1])
        live = h_speed >= V_EPS
        ux = np.where(live, ref_vel[:, 0] / np.where(live, h_speed, 1.0), 1.0)
        uy = np.where(live, ref_vel[:, 1] / np.where(live, h_speed, 1.0), 0.0)

        comps[block, 0] = err[:, 0] * ux + err[:, 1] * uy
        comps[block, 1] = -err[:, 0] * uy + err[:, 1] * ux
        comps[block, 2] = err[:, 2]
    return comps


def compute_metrics(
    positions: np.ndarray,
    times: np.ndarray,
    traj: PiecewiseTrajectory,
    case: str = "run",
) -> MetricsReport:
    """MAX and RMS of each of ``error_components``' three channels over a log
    of positions, shape (n, 3), at ``times``, shape (n,), against ``traj``;
    a time past ``traj.duration`` reads the trajectory's end.  An empty log
    raises InvalidInputError."""
    if len(times) == 0:
        raise InvalidInputError("empty log")
    comps = error_components(positions, times, traj)
    stats = []
    for j in range(3):
        col = comps[:, j]
        stats.append(ChannelStats(
            max=float(np.max(np.abs(col))),
            rms=float(math.sqrt(np.mean(col**2))),
        ))
    return MetricsReport(case=case, along=stats[0], cross=stats[1], altitude=stats[2])


def reference_tracking_errors() -> dict[str, MetricsReport]:
    """Published real-flight MAX/RMS baselines, keyed by case name."""
    from importlib import resources  # on first use: it is not needed to import flapkit

    text = resources.files("flapkit").joinpath(
        "data/reference_tracking_errors.csv"
    ).read_text(encoding="utf-8")
    out: dict[str, MetricsReport] = {}
    for line in text.strip().splitlines()[1:]:
        cells = line.split(",")
        vals = [float(x) for x in cells[1:7]]
        out[cells[0]] = MetricsReport(
            case=cells[0],
            along=ChannelStats(vals[0], vals[1]),
            cross=ChannelStats(vals[2], vals[3]),
            altitude=ChannelStats(vals[4], vals[5]),
        )
    return out
