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
_SHORT_ROW = 7  # rows this short reduce column-wise, bit for bit: numpy sums < 8 terms in order
assert _SHORT_ROW * (_SHORT_ROW ** 2 - 1) // 3 <= 127, "short-row sign sums are reduced in int8"
_KENDALL_PAIRWISE_ROW = 52  # measured crossover of the pair loop and the merge counter
assert _KENDALL_PAIRWISE_ROW <= 128, "the pair loop sums up to n - 1 signs in int8"


def _row_arrays(*arrays):
    """The arguments as float arrays of one 2-d shape; O(1), no finiteness scan."""
    out = [np.asarray(a, dtype=float) for a in arrays]
    if out[0].ndim != 2 or any(a.shape != out[0].shape for a in out):
        raise InputError(f"row kernels expect 2-d arrays of one shape, got "
                         f"{', '.join(str(a.shape) for a in out)}")
    return out


def _varies(a: np.ndarray, axis: int = 1) -> np.ndarray:
    """Per line of 2-d a along ``axis``, whether it holds two different values."""
    if axis == 1 and a.shape[1] > _SHORT_ROW:
        return (a[:, 1:] != a[:, :1]).any(axis=1)
    # short lines: one whole-array compare per entry, 3-4x faster than a row-wise reduce
    entries = a if axis == 0 else a.T  # entries[j] is entry j of every line
    out = np.zeros(entries.shape[1], dtype=bool)
    for entry in entries[1:]:
        out |= entry != entries[0]
    return out


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


def _sign_sums(columns: np.ndarray) -> np.ndarray:
    """S_i = sum_j sign(a_i - a_j) down axis 0 of a contiguous (n, rows)
    array, as exact int8: the a_j below a_i minus those above it, from one
    comparison per ordered pair of positions.  No difference is formed, so
    nothing overflows or rounds.

    The mid-rank of a_i is (n+1)/2 + S_i/2, so S_i/2 is the mid-rank minus
    the exact mean rank.  Every sum of S_i**2 or of S_i*T_i down a column
    lies within n(n**2 - 1)/3, which is 112 at n = 7, so short rows reduce
    them exactly in int8 as well.
    """
    above = (columns[:, None] > columns).view(np.int8)  # [i, j]: a_i > a_j
    return above.sum(axis=1, dtype=np.int8) - above.sum(axis=0, dtype=np.int8)


def _column_dots(s: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """Sums of s*t down axis 0 of two int8 sign or sign-sum arrays, in int8:
    exact while every sum lies within +-127."""
    return np.add.reduce(s * t, axis=0, dtype=np.int8, out=out)


def _level_ranks(a: np.ndarray):
    """``rank_rows`` by counting each row's levels, or None unless every
    value is an integer and each row's largest value is less than n above
    its smallest.

    Integers a and m with a - m < n make the float offset a - m exact,
    even past 2**53, so the offsets order and tie the values as they are.
    A level seen c times with cumulative count C (itself included) spans
    ranks C - c + 1 .. C, whose mean C - (c - 1)/2 is an exact half-integer.
    Column 0 is probed first, so continuous data leaves after O(rows) work.
    """
    col0 = a[:, 0]
    if not np.array_equal(np.trunc(col0), col0):
        return None
    offsets = a - a.min(axis=1, keepdims=True)
    top = offsets.max(initial=0.0)
    if top >= a.shape[1] or not np.array_equal(np.trunc(a), a):
        return None
    rows, width = len(a), int(top) + 1
    offsets += np.arange(0, rows * width, width)[:, None]  # (row, level) -> flat cell
    cells = offsets.astype(np.intp)
    counts = np.bincount(cells.ravel(), minlength=rows * width).reshape(rows, width)
    mid = np.cumsum(counts, axis=1) - 0.5 * (counts - 1)
    return mid.ravel()[cells], (counts > 1).any(axis=1)


def rank_rows(a: np.ndarray):
    """Fractional ranks along the last axis of a finite 2-d array.

    Returns ``(ranks, had_ties)`` where ``ranks`` has the same shape as
    ``a`` and ``had_ties`` is a boolean per row.  Tied values receive the
    mean of the ranks they span, so each row sums to n(n+1)/2 exactly.

    Three paths give the same bits.  Rows of n <= 7 are ranked as
    (n+1)/2 + S/2 from their int8 sign sums S (see :func:`_sign_sums`),
    and tied where the sum of S**2 falls short of its untied n(n**2 - 1)/3.
    Longer rows are ranked by counting each row's levels when every value
    of the array is an integer and each row's largest value is less than
    n above its smallest (Likert items, counts); any other array is sorted.
    """
    (a,) = _row_arrays(a)
    n = a.shape[1]
    if n <= _SHORT_ROW:  # ties shrink the sum of squared sign sums
        s = _sign_sums(np.ascontiguousarray(a.T))
        had_ties = _column_dots(s, s) < n * (n * n - 1) // 3
        return np.ascontiguousarray(((s + (n + 1)) * 0.5).T), had_ties
    counted = _level_ranks(a)
    if counted is not None:
        return counted
    order = np.argsort(a, axis=1)  # ties share one mid-rank: need no stable order
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

def _pearson(x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    xc = x - x.mean(axis=axis, keepdims=True)
    yc = y - y.mean(axis=axis, keepdims=True)
    num = (xc * yc).sum(axis=axis)
    den2 = (xc * xc).sum(axis=axis) * (yc * yc).sum(axis=axis)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = num / np.sqrt(den2)
    return np.clip(np.where(den2 > 0.0, r, np.nan), -1.0, 1.0)


def pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Pearson coefficient of two equally shaped 2-d arrays.

    Degenerate rows (either side constant) come back as NaN; callers
    decide whether that is an error or a retry.  They are found by
    comparison, since a constant whose mean rounds leaves tiny nonzero
    centered values.  numpy's pairwise summation keeps the centered dot
    products accurate for long rows.
    """
    x, y = _row_arrays(x, y)
    axis = 1
    if x.shape[1] <= _SHORT_ROW:
        x, y, axis = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T), 0
    r = _pearson(x, y, axis)
    r[~(_varies(x, axis) & _varies(y, axis))] = np.nan
    return r


def spearman_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Spearman coefficient of finite rows: Pearson applied to fractional ranks.

    Rows of n <= 7 take sum(S*T) / sqrt(sum(S**2) * sum(T**2)) of the int8
    sign sums S, T of x and y; a constant row has S = 0, which makes it
    0 / 0, NaN.  Centred mid-ranks are S/2 and T/2, and scaling by powers
    of two is exact through the products, the square root and the
    division, so this is Pearson of the mid-ranks bit for bit; it cannot
    leave [-1, 1].
    """
    x, y = _row_arrays(x, y)
    if x.shape[1] <= _SHORT_ROW:
        sx, sy = (_sign_sums(np.ascontiguousarray(a.T)) for a in (x, y))
        den2 = _column_dots(sx, sx) * _column_dots(sy, sy).astype(float)
        with np.errstate(invalid="ignore"):
            return _column_dots(sx, sy) / np.sqrt(den2)
    return pearson_rows(rank_rows(x)[0], rank_rows(y)[0])


# ---------------------------------------------------------------------------
# Kendall row kernel (pair loop on short rows; one (x, y) sort and a merge count on long)
# ---------------------------------------------------------------------------

def _inversion_counts(codes: np.ndarray) -> np.ndarray:
    """Strict inversions per row: pairs i < j with codes[i] > codes[j].

    ``codes`` are integers in [0, n).  Bottom-up merge counting; each row
    is padded at the front to a power of two with a code below every real
    code, so a pad in a left half never exceeds a right value and a pad in
    a right half faces only pads.
    """
    m, n = codes.shape
    total = np.zeros(m, dtype=np.int64)
    if n < 2:
        return total
    p = 1 << (n - 1).bit_length()
    a = np.zeros((m, p), dtype=np.int64)
    a[:, p - n:] = codes + 1
    w = 1
    while w < p:
        b = a.reshape(-1, 2 * w)
        nb = b.shape[0]
        offset = np.arange(nb, dtype=np.int64)[:, None] * (n + 1)
        pos = np.searchsorted((b[:, :w] + offset).ravel(), (b[:, w:] + offset).ravel(),
                              side="right").reshape(nb, w)
        # left values <= each right value, within its own block
        within = pos - np.arange(nb)[:, None] * w
        total += (w - within).reshape(m, -1).sum(axis=1)
        b.sort(axis=1)
        w *= 2
    return total


def _tied_pair_counts(first: np.ndarray) -> np.ndarray:
    """Sum of t*(t-1)/2 over tie runs, per row, from run-beginning flags."""
    return (np.arange(first.shape[1]) - _tie_run_start(first)).sum(axis=1)


def _pair_signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sign(a - b) as exact int8 from two comparisons: no difference to
    overflow or round."""
    return (a > b).view(np.int8) - (a < b).view(np.int8)


def _pair_sign_counts(x: np.ndarray, y: np.ndarray):
    """Concordance surplus and untied x and y pair counts per row: integer
    sums of sign(x_j - x_i) * sign(y_j - y_i) over j > i, as exact as the
    merge counter's and cheaper below the crossover.  Position i's int8
    sums hold its n - 1 - i signs against the later positions, so they are
    exact up to n = 128; the positions are then summed in int64."""
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    n = x.shape[1]
    per_position = np.zeros((3, n, x.shape[0]), dtype=np.int8)
    for i in range(n - 1):
        sx = _pair_signs(xt[i + 1:], xt[i])
        sy = _pair_signs(yt[i + 1:], yt[i])
        _column_dots(sx, sy, out=per_position[0, i])
        _column_dots(sx, sx, out=per_position[1, i])
        _column_dots(sy, sy, out=per_position[2, i])
    return per_position.sum(axis=1, dtype=np.int64)


def kendall_rows(x: np.ndarray, y: np.ndarray, variant: str = "b") -> np.ndarray:
    """Row-wise Kendall coefficient of finite rows.

    ``variant="b"`` (default) penalizes ties in the denominator;
    ``variant="a"`` divides the concordant-discordant surplus by the
    total number of pairs.  Degenerate rows come back as NaN.
    """
    if variant not in ("a", "b"):
        raise InputError(f"kendall variant must be 'a' or 'b', got {variant!r}")
    x, y = _row_arrays(x, y)
    n = x.shape[1]
    n0 = n * (n - 1) // 2
    if n <= _KENDALL_PAIRWISE_ROW:
        surplus, untied_x, untied_y = _pair_sign_counts(x, y)
    else:
        # sort each row by (x, y): by y, then stably by x to keep y order in
        # x ties; the y codes are the tie-run indices of the y sort
        by_y = np.argsort(y, axis=1)
        new_y = _tie_run_flags(np.take_along_axis(y, by_y, axis=1))
        x1 = np.take_along_axis(x, by_y, axis=1)
        by_x = np.argsort(x1, axis=1, kind="stable")
        xs = np.take_along_axis(x1, by_x, axis=1)
        codes = np.take_along_axis(np.cumsum(new_y, axis=1) - 1, by_x, axis=1)
        new_x = _tie_run_flags(xs)
        ties_x = _tied_pair_counts(new_x)
        ties_y = _tied_pair_counts(new_y)
        ties_xy = _tied_pair_counts(new_x | _tie_run_flags(codes))
        surplus = n0 - ties_x - ties_y + ties_xy - 2 * _inversion_counts(codes)
        untied_x, untied_y = n0 - ties_x, n0 - ties_y
    den2 = np.asarray(untied_x, dtype=float) * untied_y
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = surplus / (float(n0) if variant == "a" else np.sqrt(den2))
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


def _correlation_core(table: np.ndarray, kind: str = "pearson",
                      other: np.ndarray | None = None) -> np.ndarray:
    """Pearson or Spearman matrices of finite tables without constant columns,
    one per table of a (..., rows, cols) stack; with ``other`` (same rows),
    entry (i, j) pairs column i of ``table`` with column j of ``other``.

    The caller has validated the tables; :func:`correlation_matrix` is
    the checked entry point.
    """
    tables = (table,) if other is None else (table, other)
    columns = [np.swapaxes(t, -1, -2) for t in tables]  # shape (..., cols, rows)
    if kind == "spearman":
        columns = [rank_rows(c.reshape(-1, c.shape[-1]))[0].reshape(c.shape)
                   for c in columns]
    centered = [c - c.mean(axis=-1, keepdims=True) for c in columns]
    scales = [np.sqrt(np.einsum("...ij,...ij->...i", c, c)) for c in centered]
    mat = centered[0] @ np.swapaxes(centered[-1], -1, -2)
    mat /= scales[0][..., :, None]  # one scale vector at a time: no outer product
    mat /= scales[-1][..., None, :]
    if other is None:
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        diagonal = np.arange(mat.shape[-1])
        mat[..., diagonal, diagonal] = 1.0
    return np.clip(mat, -1.0, 1.0, out=mat)


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
