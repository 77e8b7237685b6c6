"""Outlier sensitivity maps: how one or two appended points move the
Pearson and Spearman coefficients of a fixed base sample.

A scan stores, for every point of a square grid, the signed deviation of
both coefficients from the base values (raw = base + delta).  Appending
(a, b) moves x only through a and y only through b, so each surface is
the cross-correlation block of the k augmented columns [x; axis_i] with
the k augmented columns [y; axis_j] (their mid-ranks for Spearman).  No
cell is degenerate: a constant base is rejected, appending cannot make a
column constant, and every scanned value (base, fixed outlier and axis
bounds) lies within +-1e150, so no column scale overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimators import (MAX_SCANNED_MAGNITUDE, PairedSample, _check_magnitude,
                         _correlation_core, pearson, spearman)

__all__ = ["AxisSpec", "InfluenceGrid", "scan_single", "scan_double",
           "exceedance_fraction", "delta_width", "MAX_AXIS_POINTS"]

# 100x the fig5 axis; a scan this size holds a few (k x k) float matrices, peaking near
# 144 MB, and the CLI run that streams its 273 MB grid CSV to disk peaks near 160 MB
MAX_AXIS_POINTS = 2001


@dataclass(frozen=True)
class AxisSpec:
    """Evenly spaced scan positions, defaults matching a [-5, 5] x 0.05 grid."""

    lo: float = -5.0
    hi: float = 5.0
    step: float = 0.05

    def __post_init__(self):
        if not (np.isfinite([self.lo, self.hi, self.step]).all()
                and self.step > 0 and self.hi > self.lo):
            raise InputError("axis needs finite lo < hi and a positive step")
        if not (np.isfinite((self.hi - self.lo) / self.step)
                and self.size <= MAX_AXIS_POINTS):
            raise InputError(f"axis needs at most {MAX_AXIS_POINTS} points")

    @property
    def size(self) -> int:
        """Number of scan positions, computed without allocating them."""
        return int(round((self.hi - self.lo) / self.step)) + 1

    @property
    def values(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.size)


@dataclass(frozen=True)
class InfluenceGrid:
    """Signed coefficient deviations over a position grid.

    ``delta_pearson[i, j]`` is the change when a point is appended at
    (axis[i], axis[j]); same layout for ``delta_spearman``.
    """

    base: PairedSample
    axis: np.ndarray
    delta_pearson: np.ndarray
    delta_spearman: np.ndarray
    base_pearson: float
    base_spearman: float
    first_outlier: tuple[float, float] | None = None

    def raw(self, kind: str) -> np.ndarray:
        base = self.base_pearson if kind == "pearson" else self.base_spearman
        return base + self.delta(kind)

    def delta(self, kind: str) -> np.ndarray:
        if kind == "pearson":
            return self.delta_pearson
        if kind == "spearman":
            return self.delta_spearman
        raise InputError(f"no influence surface for kind {kind!r}")


def _scan(scanned: PairedSample, axis: np.ndarray):
    """(pearson, spearman) surfaces: corr([x; axis[i]], [y; axis[j]]) is the
    coefficient with (axis[i], axis[j]) appended.  Each column extends a base
    column checked not to be constant, as ``_correlation_core`` requires.
    """
    xs, ys = (np.vstack([np.repeat(base[:, None], axis.size, axis=1), axis])
              for base in (scanned.x, scanned.y))
    return tuple(_correlation_core(xs, kind, ys) for kind in ("pearson", "spearman"))


def _scan_grid(base: PairedSample, axis: AxisSpec,
               first_outlier: tuple[float, float] | None) -> InfluenceGrid:
    scanned = base if first_outlier is None else base.append(*first_outlier)
    _check_magnitude(MAX_SCANNED_MAGNITUDE, scanned.x, scanned.y, [axis.lo, axis.hi])
    base_rp = pearson(base).value
    base_rs = spearman(base).value
    grid_axis = axis.values
    rp, rs = _scan(scanned, grid_axis)
    rp -= base_rp  # in place: at k = 2001 each surface is 32 MB
    rs -= base_rs
    return InfluenceGrid(base=base, axis=grid_axis, delta_pearson=rp, delta_spearman=rs,
                         base_pearson=base_rp, base_spearman=base_rs,
                         first_outlier=first_outlier)


def scan_single(base: PairedSample, axis: AxisSpec = AxisSpec()) -> InfluenceGrid:
    """Deviation surfaces when one point is appended to the base sample."""
    return _scan_grid(base, axis, None)


def scan_double(base: PairedSample, first_outlier: tuple[float, float],
                axis: AxisSpec = AxisSpec()) -> InfluenceGrid:
    """Deviation surfaces with one fixed outlier plus one scanned point.

    Deviations are measured from the original base coefficients, so the
    surfaces show the combined effect of both added points.
    """
    return _scan_grid(base, axis, (float(first_outlier[0]), float(first_outlier[1])))


def exceedance_fraction(grid: InfluenceGrid, threshold: float,
                        kind: str = "pearson") -> float:
    """Fraction of grid cells whose |deviation| exceeds the threshold."""
    if threshold < 0:
        raise InputError("threshold must be nonnegative")
    return float((np.abs(grid.delta(kind)) > threshold).mean())


def delta_width(grid: InfluenceGrid, kind: str = "pearson") -> float:
    """Spread (max minus min) of the deviation surface."""
    return float(np.ptp(grid.delta(kind)))
