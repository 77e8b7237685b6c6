"""Tie-aware ranking and the Pearson, Spearman, and Kendall estimators.

Scalar entry points (`pearson`, `spearman`, `kendall`) operate on a
:class:`PairedSample` and return a :class:`CoefficientEstimate`.  The
row-vectorized kernels (`rank_rows`, `pearson_rows`, `spearman_rows`,
`kendall_rows`) evaluate one coefficient per row of a 2-d array and are
the workhorses of the simulation, influence, and resampling studies.

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InputError

__all__ = [
    "PairedSample",
    "RankVector",
    "CoefficientEstimate",
    "fractional_rank",
    "pearson",
    "spearman",
    "kendall",
    "correlation_matrix",
    "distinct_spearman_values",
    "rank_rows",
    "pearson_rows",
    "spearman_rows",
    "kendall_rows",
]

KINDS = ("pearson", "spearman", "kendall")
_KENDALL_BLOCK_VALUES = 2 ** 18  # column pairs x rows per kendall_rows call


def _as_finite_1d(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PairedSample:
    """Two equal-length vectors of finite observations."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_finite_1d(self.x, "x")
        y = _as_finite_1d(self.y, "y")
        if x.size != y.size:
            raise InputError(f"x and y differ in length ({x.size} vs {y.size})")
        if x.size < 2:
            raise InputError("need at least two paired observations")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size

    def append(self, px: float, py: float) -> "PairedSample":
        """New sample with one extra point appended."""
        return PairedSample(np.append(self.x, px), np.append(self.y, py))


@dataclass(frozen=True)
class RankVector:
    """Fractional ranks of one vector; ties share the mean of their rank span."""

    ranks: np.ndarray
    had_ties: bool


@dataclass(frozen=True)
class CoefficientEstimate:
    kind: str
    value: float
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown coefficient kind {self.kind!r}")
        if not -1.0 <= self.value <= 1.0:
            raise InputError(f"coefficient {self.value} outside [-1, 1]")


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def _tie_run_flags(s: np.ndarray) -> np.ndarray:
    """True where a run of equal values begins, in rows sorted along the last axis."""
    first = np.ones(s.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    return first


def _tie_run_start(first: np.ndarray) -> np.ndarray:
    """Per sorted position, the position where its tie run begins.

    ``first`` flags run beginnings (see :func:`_tie_run_flags`); the
    start is the running maximum over the flagged positions.  int32
    positions halve the memory traffic of this pass.
    """
    idx = np.arange(first.shape[1], dtype=np.int32)
    return np.maximum.accumulate(np.where(first, idx, 0), axis=1)


def rank_rows(a: np.ndarray):
    """Fractional ranks along the last axis of a 2-d array.

    Returns ``(ranks, had_ties)`` where ``ranks`` has the same shape as
    ``a`` and ``had_ties`` is a boolean per row.  Tied values receive the
    mean of the ranks they span, so each row sums to n(n+1)/2 exactly.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InputError("rank_rows expects a 2-d array")
    n = a.shape[1]
    order = np.argsort(a, axis=1, kind="stable")
    s = np.take_along_axis(a, order, axis=1)
    first = _tie_run_flags(s)
    # flag each run's last position (just before the next run's first);
    # in the reversed row those positions begin the runs
    last = np.ones(a.shape, dtype=bool)
    last[:, :-1] = first[:, 1:]
    end = n - 1 - _tie_run_start(last[:, ::-1])[:, ::-1]
    rank_sorted = 0.5 * (_tie_run_start(first) + end) + 1.0
    ranks = np.empty(a.shape, dtype=float)
    np.put_along_axis(ranks, order, rank_sorted, axis=1)
    return ranks, ~first.all(axis=1)


def fractional_rank(values) -> RankVector:
    """Fractional ranks of one vector (mean rank assigned to ties)."""
    v = _as_finite_1d(values, "values")
    ranks, ties = rank_rows(v[None, :])
    return RankVector(ranks=ranks[0], had_ties=bool(ties[0]))


# ---------------------------------------------------------------------------
# Pearson / Spearman row kernels
# ---------------------------------------------------------------------------

def pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Pearson coefficient of two equally shaped 2-d arrays.

    Degenerate rows (either side constant) come back as NaN; callers
    decide whether that is an error or a retry.  numpy's pairwise
    summation keeps the centered dot products accurate for long rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    num = (xc * yc).sum(axis=1)
    den2 = (xc * xc).sum(axis=1) * (yc * yc).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = num / np.sqrt(den2)
    r = np.where(den2 > 0.0, r, np.nan)
    return np.clip(r, -1.0, 1.0)


def spearman_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Spearman coefficient: Pearson applied to fractional ranks."""
    rx, _ = rank_rows(x)
    ry, _ = rank_rows(y)
    return pearson_rows(rx, ry)


# ---------------------------------------------------------------------------
# Kendall row kernel (Knight-style, O(n log n) per row)
# ---------------------------------------------------------------------------

def _dense_codes(v: np.ndarray) -> np.ndarray:
    """Per-row integer codes in [0, n) preserving order; ties share a code."""
    order = np.argsort(v, axis=1, kind="stable")
    s = np.take_along_axis(v, order, axis=1)
    gid = np.cumsum(_tie_run_flags(s), axis=1) - 1
    codes = np.empty(v.shape, dtype=np.int64)
    np.put_along_axis(codes, order, gid, axis=1)
    return codes


def _inversion_counts(v: np.ndarray) -> np.ndarray:
    """Strict inversions per row: pairs i < j with v[i] > v[j].

    Bottom-up merge counting; rows are padded to a power of two with a
    sentinel code above every real code.  Padding is a suffix of each
    row, so a real value in a right half always faces a left half of w
    real values, and the values below the sentinel are the real ones.
    """
    v = np.asarray(v)
    m, n = v.shape
    total = np.zeros(m, dtype=np.int64)
    if n < 2:
        return total
    codes = _dense_codes(np.asarray(v, dtype=float))
    p = 1 << (n - 1).bit_length()
    sentinel = np.int64(n)
    a = np.full((m, p), sentinel, dtype=np.int64)
    a[:, :n] = codes
    w = 1
    while w < p:
        b = a.reshape(-1, 2 * w)
        left = b[:, :w]
        right = b[:, w:]
        nb = b.shape[0]
        offset = (np.arange(nb, dtype=np.int64) * (sentinel + 1))[:, None]
        pos = np.searchsorted((left + offset).ravel(), (right + offset).ravel(),
                              side="right").reshape(nb, w)
        # left values <= each right value, within its own block
        within = pos - np.arange(nb)[:, None] * w
        total += np.where(right < sentinel, w - within, 0).reshape(m, -1).sum(axis=1)
        b.sort(axis=1)
        w *= 2
    return total


def _tied_pair_counts(first: np.ndarray) -> np.ndarray:
    """Sum of t*(t-1)/2 over tie runs, per row, from run-beginning flags."""
    return (np.arange(first.shape[1]) - _tie_run_start(first)).sum(axis=1)


def kendall_rows(x: np.ndarray, y: np.ndarray, variant: str = "b") -> np.ndarray:
    """Row-wise Kendall coefficient.

    ``variant="b"`` (default) penalizes ties in the denominator;
    ``variant="a"`` divides the concordant-discordant surplus by the
    total number of pairs.  Degenerate rows come back as NaN.
    """
    if variant not in ("a", "b"):
        raise InputError(f"kendall variant must be 'a' or 'b', got {variant!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[1]
    n0 = n * (n - 1) // 2

    # sort each row by (x, y): stable argsort by y first, then by x
    by_y = np.argsort(y, axis=1, kind="stable")
    x1 = np.take_along_axis(x, by_y, axis=1)
    by_x = np.argsort(x1, axis=1, kind="stable")
    order = np.take_along_axis(by_y, by_x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    ys = np.take_along_axis(y, order, axis=1)

    new_x = _tie_run_flags(xs)
    ties_x = _tied_pair_counts(new_x)
    ties_xy = _tied_pair_counts(new_x | _tie_run_flags(ys))
    ties_y = _tied_pair_counts(_tie_run_flags(np.sort(y, axis=1)))

    discordant = _inversion_counts(ys)
    surplus = n0 - ties_x - ties_y + ties_xy - 2 * discordant

    if variant == "a":
        tau = surplus / float(n0)
        tau = np.where((ties_x < n0) & (ties_y < n0), tau, np.nan)
    else:
        den2 = (n0 - ties_x).astype(float) * (n0 - ties_y).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            tau = surplus / np.sqrt(den2)
        tau = np.where(den2 > 0.0, tau, np.nan)
    return np.clip(tau, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Scalar estimators
# ---------------------------------------------------------------------------

def _check_not_constant(s: PairedSample):
    if s.x.min() == s.x.max():
        raise DegenerateSampleError("x is constant; coefficient undefined")
    if s.y.min() == s.y.max():
        raise DegenerateSampleError("y is constant; coefficient undefined")


def pearson(s: PairedSample) -> CoefficientEstimate:
    """Linear correlation: centered cross product over centered norms."""
    _check_not_constant(s)
    r = pearson_rows(s.x[None, :], s.y[None, :])[0]
    return CoefficientEstimate("pearson", float(r), s.n)


def spearman(s: PairedSample) -> CoefficientEstimate:
    """Monotone correlation: Pearson applied to the fractional ranks."""
    _check_not_constant(s)
    r = spearman_rows(s.x[None, :], s.y[None, :])[0]
    return CoefficientEstimate("spearman", float(r), s.n)


def kendall(s: PairedSample, variant: str = "b") -> CoefficientEstimate:
    """Concordance correlation: concordant minus discordant pair proportion."""
    _check_not_constant(s)
    t = kendall_rows(s.x[None, :], s.y[None, :], variant=variant)[0]
    return CoefficientEstimate("kendall", float(t), s.n)


# ---------------------------------------------------------------------------
# Correlation matrices
# ---------------------------------------------------------------------------

def _table_and_names(data):
    values = getattr(data, "values", data)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InputError("expected a 2-d table (rows = observations)")
    names = getattr(data, "column_names", None)
    if names is None:
        names = tuple(f"col{i}" for i in range(values.shape[1]))
    return values, names


def correlation_matrix(data, kind: str = "pearson",
                       kendall_variant: str = "b") -> np.ndarray:
    """Symmetric correlation matrix of a table's columns.

    ``data`` is a (rows x columns) array or any object exposing
    ``values``/``column_names``.  Any constant column raises
    :class:`DegenerateSampleError` naming the column, which is what the
    resampling retry rule keys on.
    """
    if kind not in KINDS:
        raise InputError(f"unknown coefficient kind {kind!r}")
    values, names = _table_and_names(data)
    n, p = values.shape
    if n < 2:
        raise InputError("need at least two rows")
    if not np.all(np.isfinite(values)):
        raise InputError("table contains non-finite entries")
    spans = values.max(axis=0) - values.min(axis=0)
    dead = np.flatnonzero(spans == 0.0)
    if dead.size:
        raise DegenerateSampleError(
            f"column {names[dead[0]]!r} is constant; correlation matrix undefined")

    if kind == "kendall":
        # column pairs go through kendall_rows in blocks that bound its
        # temporaries
        iu, ju = np.triu_indices(p, k=1)
        step = max(1, _KENDALL_BLOCK_VALUES // n)
        mat = np.eye(p)
        for lo in range(0, iu.size, step):
            i, j = iu[lo:lo + step], ju[lo:lo + step]
            mat[i, j] = mat[j, i] = kendall_rows(values[:, i].T, values[:, j].T,
                                                 variant=kendall_variant)
        return mat
    return _correlation_core(values, kind)


def _correlation_core(table: np.ndarray, kind: str = "pearson") -> np.ndarray:
    """Pearson or Spearman matrix of a finite table without constant columns.

    The caller has validated the table; :func:`correlation_matrix` is
    the checked entry point.
    """
    if kind == "spearman":
        ranks, _ = rank_rows(table.T)
        table = ranks.T
    centered = table - table.mean(axis=0)
    cov = centered.T @ centered
    scale = np.sqrt(np.diag(cov))
    mat = cov / np.outer(scale, scale)
    mat = 0.5 * (mat + mat.T)
    np.fill_diagonal(mat, 1.0)
    return np.clip(mat, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Distinct Spearman values by enumeration
# ---------------------------------------------------------------------------

def distinct_spearman_values(n: int) -> int:
    """Number of distinct Spearman values over all orderings of n items.

    Enumerates every permutation against the identity; feasible only for
    small n (capped at 9).  The coefficient is a strictly decreasing
    function of the rank-difference sum, so counting distinct sums is
    exact.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InputError("n must be an integer >= 2")
    if n > 9:
        raise InputError(f"enumeration over {n}! permutations is unsupported (max n = 9)")
    identity = tuple(range(n))
    sums = {sum((a - b) ** 2 for a, b in zip(identity, perm))
            for perm in itertools.permutations(identity)}
    return len(sums)
