"""Tie-aware ranking and the Pearson, Spearman, and Kendall estimators.

Scalar entry points (`pearson`, `spearman`, `kendall`) operate on a
:class:`PairedSample` and return a :class:`CoefficientEstimate`.  The
row-vectorized kernels (`rank_rows`, `pearson_rows`, `spearman_rows`,
`kendall_rows`) evaluate one coefficient per row of a 2-d array and are
the workhorses of the simulation, influence, and resampling studies.
Pearson refuses moment sums outside float64's normal range (NaN from the row
kernel, :class:`InputError` elsewhere); rank coefficients take any finite value.

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InputError

__all__ = [
    "PairedSample",
    "CoefficientEstimate",
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
# the kinds of correlation_matrix, in the sampling studies' matrix order
_MATRIX_KINDS = ("pearson", "spearman")
_SHORT_ROW = 7  # rows this short reduce column-wise, bit for bit: numpy sums < 8 terms in order
assert _SHORT_ROW * (_SHORT_ROW ** 2 - 1) // 3 <= 127, "short-row sign sums are reduced in int8"
_TINY = np.finfo(float).tiny  # float64's least normal number: a sum below it has lost bits
# the merge counter counts inside base blocks at most this wide by direct compares
_MAX_BASE_BLOCK = 127
assert _MAX_BASE_BLOCK <= 128, "_block_inversions counts in int8"


def _row_arrays(*arrays):
    """The arguments as float arrays of one 2-d shape; O(1), no finiteness scan."""
    out = [np.asarray(a, dtype=float) for a in arrays]
    if out[0].ndim != 2 or any(a.shape != out[0].shape for a in out):
        raise InputError(f"row kernels expect 2-d arrays of one shape, got "
                         f"{', '.join(str(a.shape) for a in out)}")
    return out


def _varies(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per line of a along ``axis``, whether an entry differs from its first."""
    order = list(range(a.ndim))
    order.append(order.pop(axis))
    a = a.transpose(order)  # the lines along the last axis, as np.moveaxis at a fifth of its cost
    if a.shape[-1] > _SHORT_ROW:
        return (a[..., 1:] != a[..., :1]).any(axis=-1)
    # short lines: one whole-array compare per entry, 3-4x faster than a line-wise reduce
    out = np.zeros_like(a[..., 0], dtype=bool)  # in a's memory order: compares whole planes
    for j in range(1, a.shape[-1]):
        out |= a[..., j] != a[..., 0]
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


def _tied_runs(first: np.ndarray):
    """Flat (row-major) first and last positions of the runs of two or more equal
    values, from run-start flags in which each row's position 0 begins a run."""
    edges = np.flatnonzero(np.diff(first.ravel(), append=True))  # flips after s and e of run s..e
    return edges[0::2], edges[1::2]


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


def _column_dots(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sums of s*t down axis 0 of two int8 sign-sum arrays, in int8: exact
    while every sum lies within +-127, as it does for rows of n <= 7."""
    return np.add.reduce(s * t, axis=0, dtype=np.int8)


def _level_ranks(a: np.ndarray):
    """``rank_rows`` by counting each row's levels, or None unless every
    value is an integer and each row's largest value is less than n above
    its smallest.

    Integers a and m with a - m < n make the float offset a - m exact,
    even past 2**53, so the offsets order and tie the values as they are;
    each level takes its :func:`_mid_ranks` rank.  Column 0 is probed
    first, so continuous data leaves after O(rows) work.
    """
    col0 = a[:, 0]
    if not np.array_equal(np.trunc(col0), col0):
        return None
    with np.errstate(over="ignore"):  # a span past 1.8e308 overflows to inf, which is >= n
        offsets = a - a.min(axis=1, keepdims=True)
    top = offsets.max(initial=0.0)
    if top >= a.shape[1] or not np.array_equal(np.trunc(a), a):
        return None
    rows, width = len(a), int(top) + 1
    offsets += np.arange(0, rows * width, width)[:, None]  # (row, level) -> flat cell
    cells = offsets.astype(np.intp)
    counts = np.bincount(cells.ravel(), minlength=rows * width).reshape(rows, width)
    return _mid_ranks(counts).ravel()[cells], (counts > 1).any(axis=1)


def _mid_ranks(counts: np.ndarray) -> np.ndarray:
    """Mid-rank of each level from the level counts along the last axis.

    A level seen c times with cumulative count C (itself included) spans
    ranks C - c + 1 .. C, whose mean C - (c - 1)/2 is an exact half-integer.
    """
    return np.cumsum(counts, axis=-1) - 0.5 * (counts - 1)


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
    Sorted values and ranks move through flat row-major indices: sorted
    positions take ranks 1..n, but a run of equal values (-0.0 ties 0.0) at
    positions s < e of its row takes the exact mid-rank (s + e)/2 + 1.
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
    order += np.arange(0, a.size, n)[:, None]  # flat index of each sorted value
    first = _tie_run_flags(a.ravel()[order])
    had_ties = ~first.all(axis=1)
    sorted_ranks = np.arange(1.0, n + 1.0)
    if had_ties.any():
        starts, ends = _tied_runs(first)
        sorted_ranks = np.tile(sorted_ranks, (len(a), 1))
        tied = ~first
        tied.ravel()[starts] = True
        sorted_ranks[tied] = np.repeat(starts % n + 0.5 * (ends - starts) + 1.0, ends - starts + 1)
    ranks = np.empty(a.shape, dtype=float)
    ranks.ravel()[order] = sorted_ranks
    return ranks, had_ties


# ---------------------------------------------------------------------------
# Pearson / Spearman row kernels
# ---------------------------------------------------------------------------

def _pearson(x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xc = x - x.mean(axis=axis, keepdims=True)
        yc = y - y.mean(axis=axis, keepdims=True)
        num = (xc * yc).sum(axis=axis)
        sxx, syy = (xc * xc).sum(axis=axis), (yc * yc).sum(axis=axis)
        den2 = sxx * syy
        r = num / np.sqrt(den2)
    # Sxx and Syy each in range too: a subnormal Sxx times a huge Syy can be normal
    r[~((np.minimum(np.minimum(sxx, syy), den2) >= _TINY) & (den2 < np.inf))] = np.nan
    return np.clip(r, -1.0, 1.0, out=r)


def pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Pearson coefficient of two equally shaped 2-d arrays.

    Degenerate rows (either side constant, or Sxx, Syy or Sxx*Syy outside
    float64's normal range) come back as NaN; callers decide whether that
    is an error or a retry.  Constant rows are found by comparison, since a
    constant whose mean rounds leaves tiny nonzero centered values.  numpy's
    pairwise summation keeps the centered dot products accurate for long rows.
    """
    return _pearson_rows(x, y, check=True)


def _pearson_rows(x: np.ndarray, y: np.ndarray, check: bool = False) -> np.ndarray:
    """:func:`pearson_rows`, trusting without ``check`` that every row of x
    and of y varies, as the rows of a simulation chunk do once redrawn."""
    x, y = _row_arrays(x, y)
    if x.shape[1] == 0:  # no values: NaN per row, without numpy's empty-mean warning
        return np.full(len(x), np.nan)
    axis = 1
    if x.shape[1] <= _SHORT_ROW:
        x, y, axis = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T), 0
    elif not x.strides[1] == y.strides[1] == x.itemsize:
        # numpy sums a line in another order unless its entries are adjacent
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    r = _pearson(x, y, axis)
    if check:
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

    Longer rows, if neither array ties anywhere, centre their ranks 1..n on
    the exact (n+1)/2; the products sum exactly, and each side's sum of
    squares is c = n(n**2 - 1)/12 (82.5 at n = 10), so sum / sqrt(c*c) is
    Pearson of the ranks bit for bit while 4c < 2**53; other arrays take it
    unchecked, as a constant row's ranks centre to exact zeros, giving NaN.
    """
    x, y = _row_arrays(x, y)
    n = x.shape[1]
    if n <= _SHORT_ROW:
        sx, sy = (_sign_sums(np.ascontiguousarray(a.T)) for a in (x, y))
        den2 = _column_dots(sx, sx) * _column_dots(sy, sy).astype(float)
        with np.errstate(invalid="ignore"):
            return _column_dots(sx, sy) / np.sqrt(den2)
    (rx, tied_x), (ry, tied_y) = rank_rows(x), rank_rows(y)
    if tied_x.any() or tied_y.any() or n * (n * n - 1) // 3 >= 2 ** 53:
        return _pearson_rows(rx, ry)
    c, mean = n * (n * n - 1) / 12, 0.5 * (n + 1)
    return np.clip(((rx - mean) * (ry - mean)).sum(axis=1) / np.sqrt(c * c), -1.0, 1.0)


# ---------------------------------------------------------------------------
# Kendall row kernel (one (x, y) sort and a merge count of the y codes)
# ---------------------------------------------------------------------------

def _inversion_counts(codes: np.ndarray) -> np.ndarray:
    """Strict inversions per row: pairs i < j with codes[i] > codes[j].

    ``codes`` are integers in [0, n).  Each row splits into 2**k base
    blocks, k the least with 127 * 2**k >= n, each w = ceil(n / 2**k)
    wide; rows of n <= 127 are one block of width n.  The row is padded at
    the front to w * 2**k with a code below every real code, so a pad never
    exceeds a later value and fewer than 2**k pads are counted.  The
    inversions inside each base block are counted directly (see
    :func:`_block_inversions`); the blocks are then sorted, and bottom-up
    merge counting takes over from width w (Knight 1966), one sort per
    level.  A merge key is 2v, plus 1 in the right block of each pair, so
    a left value sorts before an equal right one.  Values are held in the
    narrowest signed integer type that holds n, keys in the one that holds
    2n + 1.
    """
    m, n = codes.shape
    total = np.zeros(m, dtype=np.int64)
    if m == 0 or n < 2:
        return total
    blocks = 1 << (-(-n // _MAX_BASE_BLOCK) - 1).bit_length()
    w = -(-n // blocks)
    p = w * blocks
    # min_scalar_type(-v - 1) is the narrowest signed integer type that holds v
    a = np.zeros((m, p), dtype=np.min_scalar_type(-n - 1))
    np.add(codes, 1, out=a[:, p - n:], casting="unsafe")
    total += _block_inversions(a.reshape(-1, w)).reshape(m, -1).sum(axis=1)
    if w == p:
        return total
    a.reshape(-1, w).sort(axis=1)
    a = np.left_shift(a, 1, dtype=np.min_scalar_type(-2 * n - 2))
    while w < p:
        b = a.reshape(-1, 2 * w)
        b[:, w:] |= 1
        b.sort(axis=1)
        # right value j of pair i lands at i * 2w + j + (left values <= it), so pair i holds
        # w * w + w * (w - 1) / 2 + 2 * w * w * i inversions less the sum of those positions
        pairs = np.arange(len(b))
        total += (w * w + w * (w - 1) // 2 + 2 * w * w * pairs).reshape(m, -1).sum(axis=1)
        total -= np.flatnonzero(b & 1).reshape(m, -1).sum(axis=1)
        b &= -2
        w *= 2
    return total


def _block_inversions(blocks: np.ndarray) -> np.ndarray:
    """Strict inversions inside each row of a (blocks, w) array, w <= 128,
    from one compare of the pairs d apart for d = 1..w-1 on the transposed
    (position, block) layout, where each compare runs over whole rows."""
    w = blocks.shape[1]
    columns = np.ascontiguousarray(blocks.T)
    later_below = np.zeros((w - 1, len(blocks)), dtype=np.int8)  # each count < w
    for d in range(1, w):
        later_below[:w - d] += (columns[:-d] > columns[d:]).view(np.int8)
    return later_below.sum(axis=0, dtype=np.int64)


def _tied_pair_counts(first: np.ndarray) -> np.ndarray:
    """Sum of t*(t-1)/2 over the tied runs of each row, from run-start flags,
    exactly in int64; runs of one value add nothing and are never formed."""
    starts, ends = _tied_runs(first)
    t = ends - starts + 1
    counts = np.zeros(len(first), dtype=np.int64)
    np.add.at(counts, starts // first.shape[1], t * (t - 1) // 2)
    return counts


def kendall_rows(x: np.ndarray, y: np.ndarray, variant: str = "b") -> np.ndarray:
    """Row-wise Kendall coefficient of finite rows.

    ``variant="b"`` (default) penalizes ties in the denominator;
    ``variant="a"`` divides the concordant-discordant surplus by the
    total number of pairs.  Degenerate rows come back as NaN.

    Every row is sorted by (x, y), and the inversions of its y codes in
    that order are the discordant pairs (see :func:`_inversion_counts`);
    the tie counts of x, y and (x, y) give the rest of the pair counts as
    exact integers.  If neither array ties anywhere, the codes are the x
    sort order itself and every tie count is 0, so the code gather and the
    tie counts are skipped.
    """
    if variant not in ("a", "b"):
        raise InputError(f"kendall variant must be 'a' or 'b', got {variant!r}")
    x, y = _row_arrays(x, y)
    n = x.shape[1]
    n0 = n * (n - 1) // 2
    # sort each row by (x, y): by y, then by x, stably if x ties anywhere
    # to keep y order in x ties; the y codes are the tie-run indices of the y sort
    by_y = np.argsort(y, axis=1)
    new_y = _tie_run_flags(np.take_along_axis(y, by_y, axis=1))
    x1 = np.take_along_axis(x, by_y, axis=1)
    by_x = np.argsort(x1, axis=1)  # without x ties, the one order
    new_x = _tie_run_flags(np.take_along_axis(x1, by_x, axis=1))
    by_x = by_x if new_x.all() else np.argsort(x1, axis=1, kind="stable")
    codes, ties_x, ties_y, ties_xy = by_x, 0, 0, 0  # no tie anywhere: y codes are 0..n-1
    if not (new_x.all() and new_y.all()):
        codes = np.take_along_axis(np.cumsum(new_y, axis=1) - 1, by_x, axis=1)
        ties_x, ties_y, ties_xy = map(_tied_pair_counts,
                                      (new_x, new_y, new_x | _tie_run_flags(codes)))
    surplus = n0 - ties_x - ties_y + ties_xy - 2 * _inversion_counts(codes)
    den2 = np.asarray(n0 - ties_x, dtype=float) * (n0 - ties_y)
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = surplus / (float(n0) if variant == "a" else np.sqrt(den2))
    tau = np.where(den2 > 0.0, tau, np.nan)
    return np.clip(tau, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Scalar estimators
# ---------------------------------------------------------------------------

def _check_not_constant(s: PairedSample):
    for name, values in (("x", s.x), ("y", s.y)):
        if not _varies(values):
            raise DegenerateSampleError(f"{name} is constant; coefficient undefined")


def pearson(s: PairedSample) -> CoefficientEstimate:
    """Linear correlation: centered cross product over centered norms.
    Moment sums outside float64's normal range raise :class:`InputError`."""
    _check_not_constant(s)
    r = pearson_rows(s.x[None, :], s.y[None, :])[0]
    if np.isnan(r):  # the data vary, so only their sums can make it NaN
        raise InputError("the Pearson moment sums leave float64's normal range")
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


def correlation_matrix(data, kind: str = "pearson") -> np.ndarray:
    """Symmetric Pearson or Spearman correlation matrix of a table's columns.

    ``data`` is a (rows x columns) array or any object exposing
    ``values``/``column_names``.  Any constant column raises
    :class:`DegenerateSampleError` naming the column, and a column whose
    sum of squares leaves float64's normal range raises :class:`InputError`.
    Kendall coefficients come from :func:`kendall` and :func:`kendall_rows`.
    """
    if kind not in _MATRIX_KINDS:
        raise InputError(f"correlation matrices are pearson or spearman, got {kind!r}")
    values, names = _table_and_names(data)
    n = len(values)
    if n < 2:
        raise InputError("need at least two rows")
    if not np.all(np.isfinite(values)):
        raise InputError("table contains non-finite entries")
    dead = np.flatnonzero(~_varies(values, axis=0))
    if dead.size:
        raise DegenerateSampleError(
            f"column {names[dead[0]]!r} is constant; correlation matrix undefined")
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
    with np.errstate(over="ignore", invalid="ignore"):  # an inf mean fails the sums' check
        return _centered_correlation(*[c - c.mean(axis=-1, keepdims=True) for c in columns])


def _centered_correlation(*centered: np.ndarray) -> np.ndarray:
    """The matrices of :func:`_correlation_core` from its centred (..., cols,
    rows) columns: one stack pairs its columns with themselves, two pair
    column i of the first with column j of the second.

    The einsum and matmul reduce in an order set by the memory layout, so
    a caller that centres its own columns lays them out as
    :func:`_correlation_core` does to get the same bits.  Its InputError for
    a sum out of range carries ``index``, the (..., column) of the first.
    """
    sums = [np.einsum("...ij,...ij->...i", c, c) for c in centered]  # einsum never warns
    for s in sums:
        if s.size and not _TINY <= s.min() <= s.max() < np.inf:  # or NaN
            error = InputError("a column's sum of squares leaves float64's normal range")
            error.index = np.unravel_index(np.argmin((s >= _TINY) & (s < np.inf)), s.shape)
            raise error
    mat = centered[0] @ np.swapaxes(centered[-1], -1, -2)
    mat /= np.sqrt(sums[0])[..., :, None]  # one scale vector at a time: no outer product
    mat /= np.sqrt(sums[-1])[..., None, :]
    if len(centered) == 1:
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
