"""Outlier sensitivity maps: how one or two appended points move the
Pearson and Spearman coefficients of a fixed base sample.

A scan recomputes both coefficients on the augmented sample for every
point of a square grid and stores the signed deviation from the base
values.  Raw coefficients are recoverable by adding the base value
back.  Cells whose augmented sample is degenerate are recorded as NaN
(missing) rather than raised: the grid point is fixed, so there is
nothing to retry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimators import PairedSample, pearson, pearson_rows, spearman, spearman_rows

__all__ = ["AxisSpec", "InfluenceGrid", "scan_single", "scan_double",
           "exceedance_fraction", "delta_width"]

_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class AxisSpec:
    """Evenly spaced scan positions, defaults matching a [-5, 5] x 0.05 grid."""

    lo: float = -5.0
    hi: float = 5.0
    step: float = 0.05

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.step > 0):
            raise InputError("axis needs finite lo < hi and a positive step")
        if self.hi <= self.lo:
            raise InputError("axis needs lo < hi")

    @property
    def values(self) -> np.ndarray:
        count = int(round((self.hi - self.lo) / self.step)) + 1
        return self.lo + self.step * np.arange(count)


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
    """(pearson, spearman) coefficient surfaces for one appended point."""
    k = axis.size
    n = scanned.n
    rp = np.empty((k, k))
    rs = np.empty((k, k))
    cells_x, cells_y = np.meshgrid(axis, axis, indexing="ij")
    flat_x = cells_x.ravel()
    flat_y = cells_y.ravel()
    total = flat_x.size
    for start in range(0, total, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, total)
        b = stop - start
        xa = np.empty((b, n + 1))
        ya = np.empty((b, n + 1))
        xa[:, :n] = scanned.x
        ya[:, :n] = scanned.y
        xa[:, n] = flat_x[start:stop]
        ya[:, n] = flat_y[start:stop]
        rp.ravel()[start:stop] = pearson_rows(xa, ya)
        rs.ravel()[start:stop] = spearman_rows(xa, ya)
    return rp, rs


def scan_single(base: PairedSample, axis: AxisSpec = AxisSpec()) -> InfluenceGrid:
    """Deviation surfaces when one point is appended to the base sample."""
    base_rp = pearson(base).value
    base_rs = spearman(base).value
    grid_axis = axis.values
    rp, rs = _scan(base, grid_axis)
    return InfluenceGrid(base=base, axis=grid_axis,
                         delta_pearson=rp - base_rp, delta_spearman=rs - base_rs,
                         base_pearson=base_rp, base_spearman=base_rs)


def scan_double(base: PairedSample, first_outlier: tuple[float, float],
                axis: AxisSpec = AxisSpec()) -> InfluenceGrid:
    """Deviation surfaces with one fixed outlier plus one scanned point.

    Deviations are measured from the original base coefficients, so the
    surfaces show the combined effect of both added points.
    """
    base_rp = pearson(base).value
    base_rs = spearman(base).value
    fx, fy = (float(first_outlier[0]), float(first_outlier[1]))
    scanned = base.append(fx, fy)
    grid_axis = axis.values
    rp, rs = _scan(scanned, grid_axis)
    return InfluenceGrid(base=base, axis=grid_axis,
                         delta_pearson=rp - base_rp, delta_spearman=rs - base_rs,
                         base_pearson=base_rp, base_spearman=base_rs,
                         first_outlier=(fx, fy))


def exceedance_fraction(grid: InfluenceGrid, threshold: float,
                        kind: str = "pearson") -> float:
    """Fraction of grid cells whose |deviation| exceeds the threshold."""
    if threshold < 0:
        raise InputError("threshold must be nonnegative")
    delta = grid.delta(kind)
    good = np.isfinite(delta)
    if not good.any():
        raise InputError("influence grid has no computed cells")
    return float((np.abs(delta[good]) > threshold).mean())


def delta_width(grid: InfluenceGrid, kind: str = "pearson") -> float:
    """Spread (max minus min) of the deviation surface."""
    delta = grid.delta(kind)
    return float(np.nanmax(delta) - np.nanmin(delta))
