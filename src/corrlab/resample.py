"""Finite-population resampling studies.

A numeric table is treated as the population; samples of a fixed size
are drawn from its rows with replacement, Pearson and Spearman
correlation matrices are computed for every draw, and their column pairs
a < b alone are summarised against the whole-table population matrices.
Draws with a constant column (by ``estimators._varies``, the one constant
test) are redrawn and counted.  Each block of draws from the one replication
driver, ``randgen._replication_blocks``, is reduced in turn; the matrix core
checks the sums of each sample, which can underflow where the population's do not.

A population whose values are all integers (Likert items, counts) is
drawn as per-column level codes, value - column minimum, by the rule of
``_level_codes``.  One count of each block's (table, column, level) cells
then gives the exact Pearson means and the Spearman mid-ranks, and both
centred stacks are gathered from per-level tables in the one (table, row,
column) layout in which :func:`corrlab.estimators._correlation_core`
centres gathered values, so the matrices keep their bits.  The population
matrices are the same count over all rows while the row count keeps the
codes' exactness bounds.  Any other population is gathered as floats,
ranked and centred, and its matrices come from ``_correlation_core``.

A pass over the whole table holds at most the table, its level codes and
one table-sized result, and does the rest in blocks of ``_BLOCK_VALUES``
values: ``moment_profile`` reduces a few columns of a contiguous copy at a
time, ``scale_sums`` sums row blocks, and the population matrices count
and gather the codes a row block at a time into one stack or, for
floats, rank the Spearman columns a few at a time into one array centred
in place.  Each row of a reduction is summed as in one pass, so the bits
are the same.

The original survey datasets this protocol was designed around are not
redistributable, so the module ships two deterministic synthetic
populations with documented moment targets:

* ``asvab_like_population`` - 10 symmetric, light-tailed, strongly
  intercorrelated columns (skewness ~0, kurtosis ~2.1-2.4, pairwise
  correlations ~.5-.85).
* ``dbq_like_population``  - 34 six-point survey columns with most mass
  on the lowest category (skewness ~1.5-6.4, kurtosis ~5-50, weak to
  moderate positive correlations).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InputError
from .estimators import (_MATRIX_KINDS, _TINY, _centered_correlation, _correlation_core,
                         _mid_ranks, _varies, rank_rows)
from .randgen import MarginalSpec, RngStream, _couple, _replication_blocks, _transform

__all__ = [
    "PopulationDataset",
    "MomentProfile",
    "StudyResult",
    "ingest_csv",
    "moment_profile",
    "scale_sums",
    "run_study",
    "asvab_like_population",
    "dbq_like_population",
    "TABLE_STATISTICS",
]

# table values gathered per block of replications (2**18 took more memory and time)
_BLOCK_VALUES = 2 ** 16

# the ten aggregate statistic rows of the summary table, in output order
TABLE_STATISTICS = (
    "mean_pearson",
    "mean_spearman",
    "mean_pearson_minus_pop",
    "mean_spearman_minus_pop",
    "sd_pearson",
    "sd_spearman",
    "mad_pearson_vs_pop_pearson",
    "mad_pearson_vs_pop_spearman",
    "mad_spearman_vs_pop_pearson",
    "mad_spearman_vs_pop_spearman",
)


@dataclass(frozen=True)
class PopulationDataset:
    """An in-memory numeric table treated as a finite population."""

    column_names: tuple[str, ...]
    values: np.ndarray
    dropped_rows: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InputError("population table must be two-dimensional")
        if values.shape[0] < 2:
            raise InputError("population table needs at least two rows")
        if values.shape[1] != len(self.column_names):
            raise InputError("column name count does not match the table width")
        repeated = [n for i, n in enumerate(self.column_names) if n in self.column_names[:i]]
        if repeated:
            raise InputError(f"column name {repeated[0]!r} appears more than once")
        if not np.all(np.isfinite(values)):
            raise InputError("population table contains non-finite entries")
        dead = np.flatnonzero(~_varies(values, axis=0))
        if dead.size:
            raise DegenerateSampleError(
                f"column {self.column_names[dead[0]]!r} is constant")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def ingest_csv(path, delimiter: str = ",") -> PopulationDataset:
    """Read a delimited numeric UTF-8 file with a header row.

    A leading byte-order mark is skipped.  Rows of the wrong width and
    rows with any blank, non-numeric or non-finite cell are dropped; the
    count of dropped rows is recorded on the dataset.  A file that cannot
    be decoded or split into fields, whose rows are all dropped, or that
    yields a constant column, is rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: file is empty") from None
            names = tuple(name.strip() for name in header)
            # lines split at \r, \n and \r\n, as csv splits records
            values, total = _body_values(handle.readlines(), delimiter, len(names))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():  # copy the table only when a row drops
        values = values[finite]
    dropped = total - len(values)
    if not len(values):
        raise InputError(f"{path}: no usable numeric rows ({dropped} dropped)")
    if len(values) < 2:
        raise InputError(f"{path}: need at least two usable rows")
    return PopulationDataset(column_names=names, values=values, dropped_rows=dropped)


def _body_values(lines, delimiter, width):
    """The rows of ``width`` cells among the body lines as floats (a row
    with a cell that is not a number is all NaN), and the count of records.

    A body of which every line is one row of ``width`` numbers is parsed by
    numpy's C reader, which accepts a subset of what ``float`` accepts and
    gives the same values.  It skips empty lines, which csv reads as
    records of no fields, so a skip shows in the row count; and a line
    longer than the csv field limit may hold a field that csv refuses.
    Any other body is split by csv and parsed cell by cell with ``float``.
    """
    # numpy refuses a newline as the delimiter
    if delimiter not in "\r\n" and max(map(len, lines), default=0) <= csv.field_size_limit():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a body of empty lines "contained no data"
                values = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
        except ValueError:  # a cell that is not a number, or rows of unequal width
            pass
        else:
            if values.shape == (len(lines), width):
                return values, len(lines)
    records = list(csv.reader(lines, delimiter=delimiter))
    rows = [_parsed_or_nan(record) for record in records if len(record) == width]
    return np.array(rows, dtype=float).reshape(len(rows), width), len(records)


def _parsed_or_nan(record):
    try:
        return [float(cell) for cell in record]
    except ValueError:
        return [math.nan] * len(record)


@dataclass(frozen=True)
class MomentProfile:
    """Per-column population moments (divide-by-n central moments)."""

    column_names: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray


def moment_profile(dataset: PopulationDataset) -> MomentProfile:
    """Mean, SD, skewness (m3/sd^3), and kurtosis (m4/m2^2) per column.

    A column whose m4 overflows or whose m2^2 is below float64's normal
    range raises :class:`InputError`: its kurtosis would be inf, NaN or short of bits.
    """
    mean, m2, m3, m4 = np.empty((4, dataset.n_cols))
    step = max(1, _BLOCK_VALUES // dataset.n_rows)
    # finite m4 bounds |m3|: a refused column is the only one whose m3 could overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        for lo in range(0, dataset.n_cols, step):
            block = slice(lo, lo + step)
            centered = dataset.values[:, block].T.copy()  # C order: rows sum pairwise
            mean[block] = centered.mean(axis=1)
            centered -= mean[block, None]
            squared = centered * centered  # products, not pow: ** 3 and ** 4 call pow per entry
            m2[block] = squared.mean(axis=1)
            m3[block] = (squared * centered).mean(axis=1)
            m4[block] = (squared * squared).mean(axis=1)
        kurt = m4 / m2 ** 2
        refused = ~((kurt < np.inf) & (m2 ** 2 >= _TINY))  # or NaN; finite m4: kurt <= n
    if refused.any():
        raise InputError(f"column {dataset.column_names[refused.argmax()]!r}: its moment sums "
                         "leave float64's normal range")
    sd = np.sqrt(m2)
    skew = m3 / sd ** 3
    return MomentProfile(column_names=dataset.column_names, mean=mean, sd=sd,
                         skewness=skew, kurtosis=kurt)


def scale_sums(dataset: PopulationDataset, groups) -> PopulationDataset:
    """Aggregate item columns into scale columns by row-wise summation.

    ``groups`` maps each new column name to the item columns it sums.
    """
    if not groups:
        raise InputError("no scale groups given")
    index = {name: i for i, name in enumerate(dataset.column_names)}
    sums = np.empty((dataset.n_rows, len(groups)))
    for column, (scale, members) in zip(sums.T, groups.items()):
        if not (isinstance(members, (list, tuple)) and members
                and all(isinstance(m, str) for m in members)):
            raise InputError(f"scale {scale!r} must map to a non-empty list of column names")
        missing = [m for m in members if m not in index]
        if missing:
            raise InputError(f"scale {scale!r} references unknown column {missing[0]!r}")
        items, step = [index[m] for m in members], max(1, _BLOCK_VALUES // len(members))
        with np.errstate(over="ignore"):  # refused just below
            for lo in range(0, dataset.n_rows, step):  # row blocks: no rows x members copy
                column[lo:lo + step] = dataset.values[lo:lo + step, items].sum(axis=1)
        if not np.isfinite(column).all():
            raise InputError(f"scale {scale!r}: a row's sum leaves float64's range")
    return PopulationDataset(column_names=tuple(groups), values=sums)


# ---------------------------------------------------------------------------
# The resampling study
# ---------------------------------------------------------------------------

# the columns of resample_pairs.csv, in output order
_PAIR_COLUMNS = ("column_a", "column_b", "pop_pearson", "pop_spearman", "mean_pearson",
                 "mean_spearman", "sd_pearson", "sd_spearman", "mad_pearson_vs_pop_pearson",
                 "mad_pearson_vs_pop_spearman", "mad_spearman_vs_pop_pearson",
                 "mad_spearman_vs_pop_spearman")


@dataclass(frozen=True)
class StudyResult:
    """``pairs`` maps each ``_PAIR_COLUMNS`` name to its values over the column pairs
    a < b in row-major order: two lists of column names, then ten float arrays."""

    sample_size: int
    n_samples: int
    pairs: dict[str, list[str] | np.ndarray]
    aggregates: dict[str, float]
    redraw_count: int


@dataclass(frozen=True)
class _LevelCodes:
    """An integer table as per-column level codes value - column minimum."""

    codes: np.ndarray  # (rows, cols) in the narrowest unsigned dtype
    levels: np.ndarray  # (cols, width): the value of each code, column by column

    def matrices(self, tables: np.ndarray, step: int | None = None) -> list[np.ndarray]:
        """The ``_MATRIX_KINDS`` matrices of a (tables, rows, cols) stack of
        codes, bit for bit ``_correlation_core`` of the values they code.

        Integer sums below 2**53 are exact in any order, so the Pearson
        means from the level counts equal numpy's means; the mid-ranks are
        exact half-integers and centre on the exact (n + 1)/2, so every
        Spearman sum is exact in any order while n**3/4 < 2**53.  Both
        stacks are counted and gathered ``step`` rows at a time (all at once
        if None) into one (table, row, col) array, the layout in which
        ``_correlation_core`` centres gathered values.
        """
        count, n, p = tables.shape
        width = self.levels.shape[1]
        offsets = np.arange(0, count * p * width, width).reshape(count, 1, p)
        rows = range(0, n, step or n)
        first = tables[:, :rows.step] + offsets  # a one-block stack indexes its cells once

        def cells(lo):  # flat (table, column, level) cell of each code in the row block
            return first if lo == 0 else tables[:, lo:lo + rows.step] + offsets

        counts = sum(np.bincount(cells(lo).ravel(), minlength=count * p * width) for lo in rows)
        counts = counts.reshape(count, p, width)
        means = (counts * self.levels).sum(axis=-1, keepdims=True) / n
        centred = (self.levels - means, _mid_ranks(counts) - 0.5 * (n + 1))
        stack, matrices = np.empty(tables.shape), []
        for table in centred:
            for lo in rows:  # mode "raise" would buffer the output
                np.take(table, cells(lo), out=stack[:, lo:lo + rows.step], mode="clip")
            matrices.append(_centered_correlation(stack.swapaxes(1, 2)))
        return matrices


def _level_codes(values: np.ndarray, sample_size: int) -> _LevelCodes | None:
    """The table's level codes, or None unless every value is an integer,
    no value is -0.0, each column's largest value is less than
    ``sample_size`` above its smallest, sample_size * max|value| < 2**53
    and sample_size < 2**17 (the Spearman sums stay exact).
    """
    if sample_size >= 2 ** 17 or not np.array_equal(np.trunc(values[0]), values[0]):
        return None  # continuous data leaves here
    low, high = values.min(axis=0), values.max(axis=0)
    if float(max(-low.min(), high.max())) * sample_size >= 2 ** 53:
        return None
    span = float((high - low).max())  # exact: both ends lie within 2**53
    if span >= sample_size:
        return None
    codes = np.empty(values.shape, dtype=np.min_scalar_type(int(span)))
    step = max(1, _BLOCK_VALUES // values.shape[1])  # row blocks: no table-sized float copy
    for lo in range(0, len(values), step):
        rows, block = values[lo:lo + step], codes[lo:lo + step]
        offsets = rows - low
        block[...] = offsets  # drops a fraction: compared below
        if not np.array_equal(block, offsets) or np.signbit(rows[rows == 0.0]).any():
            return None
    return _LevelCodes(codes=codes, levels=low[:, None] + np.arange(int(span) + 1))


def _population(dataset: PopulationDataset, sample_size: int):
    """The table's :func:`_level_codes` and its ``_MATRIX_KINDS`` population
    matrices, from the codes within their exactness bounds (rows < 2**17,
    rows * max|level| < 2**53) and otherwise as ``_correlation_core`` forms
    them, ranking a block of Spearman columns at a time.  An InputError
    names the column whose sum of squares leaves float64's normal range."""
    values, (n, p) = dataset.values, dataset.values.shape
    levels = _level_codes(values, sample_size) if n < 2 ** 17 else None
    if levels is not None and n * np.abs(levels.levels).max() < 2 ** 53:
        step = max(1, _BLOCK_VALUES // p)  # rows; _replicate gathers each block at once
        return levels, np.concatenate(levels.matrices(levels.codes[None], step))
    try:
        pearson = _correlation_core(values, "pearson")
        ranks = np.empty((p, n))  # _correlation_core's Spearman columns, ranked in blocks
        step = max(1, _BLOCK_VALUES // n)
        for lo in range(0, p, step):
            ranks[lo:lo + step] = rank_rows(values[:, lo:lo + step].T)[0]
        ranks -= ranks.mean(axis=-1, keepdims=True)
        pop = np.stack([pearson, _centered_correlation(ranks)])
    except InputError as error:
        raise InputError("the population's sum of squares of column "
                         f"{dataset.column_names[error.index[-1]]!r} leaves float64's "
                         "normal range") from None
    if n >= 2 ** 17:  # codes last, so that they are never held beside the table-sized ranks
        levels = _level_codes(values, sample_size)
    return levels, pop


def _replicate(dataset: PopulationDataset, sample_size: int, n_samples: int,
               master_seed: int, levels: _LevelCodes | None):
    """Yield (matrices, redraws) for successive blocks of replications.

    Draws come from ``randgen._replication_blocks``: chunk k draws its row
    picks block by block from path (k,), and a replication i of it with a
    constant column is redrawn from (k, i).  ``matrices[r, a]`` is replication
    r's matrix of kind ``_MATRIX_KINDS[a]``; ``redraws`` counts failed draws.
    A replication over the redraw cap makes the condition infeasible, naming
    the column that degenerated most often; an InputError names the first
    replication and column whose Pearson sum of squares leaves float64's
    normal range.  Tables are drawn as the codes of ``levels`` unless None.
    """
    if sample_size < 2:
        raise InputError("sample size must be at least 2")
    if n_samples < 2:
        raise InputError("need at least two replications")
    n_rows, p = dataset.values.shape
    source = dataset.values if levels is None else levels.codes
    block = max(1, _BLOCK_VALUES // (sample_size * p))
    done = 0
    for tables, redraws in _replication_blocks(
            RngStream(master_seed), n_samples,
            lambda rng, rows: source[rng.integers(0, n_rows, (rows, sample_size))],
            lambda tables: ~_varies(tables, axis=-2), dataset.column_names,
            f"at sample size {sample_size}", block):
        if levels is None:
            try:
                matrices = [_correlation_core(tables, kind) for kind in _MATRIX_KINDS]
            except InputError as error:
                table, column = error.index
                raise InputError(f"replication {done + table} at sample size {sample_size}: the "
                                 f"sum of squares of column {dataset.column_names[column]!r} "
                                 "leaves float64's normal range") from None
        else:
            matrices = levels.matrices(tables)
        done += len(tables)
        yield np.stack(matrices, axis=1), redraws


class _MeanSD:
    """Running sum and sum of squares over stacks of equally shaped arrays.

    The mean and the SD (n - 1 denominator) use the one-pass formula.
    """

    def __init__(self, shape):
        self.count = 0
        self.total = np.zeros(shape)
        self.total_sq = np.zeros(shape)

    def add(self, stack: np.ndarray):
        self.count += len(stack)
        self.total += stack.sum(axis=0)
        self.total_sq += (stack * stack).sum(axis=0)

    def mean_sd(self):
        reps = float(self.count)
        mean = self.total / reps
        var = np.maximum(self.total_sq / reps - mean ** 2, 0.0) * reps / (reps - 1.0)
        return mean, np.sqrt(var)


def run_study(dataset: PopulationDataset, sample_size: int, n_samples: int,
              master_seed: int = 0) -> StudyResult:
    """Compare sample correlation matrices to the population matrices.

    For every replication: draw ``sample_size`` rows with replacement,
    compute the matrices in ``_MATRIX_KINDS`` order, and accumulate
    per-pair means, SDs, and mean absolute differences against the
    population matrix of every kind.  A replication whose matrix cannot
    be calculated is redrawn (counted); more than the per-replication
    cap means the condition is infeasible and the error names the worst
    column.

    Aggregates follow the study-table convention: per-pair statistics
    averaged without weights over the off-diagonal pairs, with the two
    plain-mean rows aggregated as absolute values of the per-pair means.
    """
    p = dataset.n_cols
    if p < 2:
        raise InputError(f"the resampling study needs at least two columns, got {p}")
    levels, pop = _population(dataset, sample_size)
    iu, ju = np.triu_indices(p, k=1)
    upper = iu * p + ju  # flat offsets: np.take stays contiguous where [..., iu, ju] does not
    pop = np.take(pop.reshape(len(pop), -1), upper, axis=-1)  # [kind, pair]
    moments = _MeanSD(pop.shape)
    abs_dev = np.zeros((len(_MATRIX_KINDS),) + pop.shape)  # [kind, population kind, pair]
    redraws = 0
    for matrices, failed in _replicate(dataset, sample_size, n_samples, master_seed, levels):
        redraws += failed
        matrices = np.take(matrices.reshape(*matrices.shape[:2], -1), upper, axis=-1)
        moments.add(matrices)
        abs_dev += np.abs(matrices[:, :, None] - pop).sum(axis=0)
    means, sds = moments.mean_sd()
    stats = {"column_a": [dataset.column_names[i] for i in iu],
             "column_b": [dataset.column_names[j] for j in ju]}
    for a, kind in enumerate(_MATRIX_KINDS):
        stats.update({f"pop_{kind}": pop[a], f"mean_{kind}": means[a], f"sd_{kind}": sds[a],
                      f"mean_{kind}_minus_pop": means[a] - pop[a]})
        for b, pop_kind in enumerate(_MATRIX_KINDS):
            stats[f"mad_{kind}_vs_pop_{pop_kind}"] = abs_dev[a, b] / float(n_samples)
    plain_means = {f"mean_{kind}" for kind in _MATRIX_KINDS}
    aggregates = {
        name: float(np.mean(np.abs(stats[name]) if name in plain_means else stats[name]))
        for name in TABLE_STATISTICS}
    return StudyResult(sample_size=sample_size, n_samples=n_samples,
                       pairs={name: stats[name] for name in _PAIR_COLUMNS},
                       aggregates=aggregates, redraw_count=redraws)


# ---------------------------------------------------------------------------
# Shipped synthetic populations
# ---------------------------------------------------------------------------

ASVAB_LIKE_SEED = 914001
DBQ_LIKE_SEED = 914002


def asvab_like_population() -> PopulationDataset:
    """Symmetric, light-tailed, strongly intercorrelated 12,000 x 10 test-score table.

    Columns are a common factor plus noise, both standardized uniform,
    with factor shares spaced over [.50, .85]; pairwise correlations are
    the geometric means of the shares (about .5 to .85) and column
    kurtosis sits near 2.1-2.4.
    """
    n_rows, n_cols = 12000, 10
    rng = RngStream(ASVAB_LIKE_SEED).generator()
    shares = np.linspace(0.50, 0.85, n_cols)
    half_width = math.sqrt(3.0)  # standardized uniform on [-sqrt(3), sqrt(3)]
    factor = rng.uniform(-half_width, half_width, size=n_rows)
    table = rng.uniform(-half_width, half_width, size=(n_rows, n_cols))  # the noise
    table *= np.sqrt(1.0 - shares)  # then + sqrt(s) * factor: addition commutes, same bits
    table += np.sqrt(shares) * factor[:, None]
    names = tuple(f"test{i + 1:02d}" for i in range(n_cols))
    return PopulationDataset(column_names=names, values=table)


def dbq_like_population() -> PopulationDataset:
    """Heavily floor-concentrated 9,000 x 34 six-point survey table.

    A single latent factor (loadings spread over [.45, .75]) is pushed
    through per-column category thresholds whose lowest-category mass
    ranges from .50 to .95, giving column skewness about 1.5-6.4 and
    kurtosis about 5-50 (all leptokurtic), with weak-to-moderate positive
    correlations between columns.
    """
    n_rows, n_cols = 9000, 34
    rng = RngStream(DBQ_LIKE_SEED).generator()
    loadings = np.linspace(0.45, 0.75, n_cols)
    factor = rng.standard_normal(n_rows)
    noise = rng.standard_normal((n_rows, n_cols))
    latent = _couple(loadings, factor[:, None], noise)

    # interleave light and heavy floors so kurtosis is not monotone in
    # the loading
    floor_mass = np.linspace(0.50, 0.95, n_cols)
    order = np.argsort(np.tile([0, 2, 1, 3], (n_cols + 3) // 4)[:n_cols],
                       kind="stable")
    floor_mass = floor_mass[order]

    for j in range(n_cols):  # each column's values replace its latent normals
        marginal = MarginalSpec.likert(_survey_thresholds(floor_mass[j]))
        latent[:, j] = _transform(marginal, latent[:, j])
    names = tuple(f"item{i + 1:02d}" for i in range(n_cols))
    return PopulationDataset(column_names=names, values=latent)


def _survey_thresholds(floor_mass: float) -> tuple[float, ...]:
    """Cut points of six categories: given mass on category 1, geometric decay (0.45) above."""
    rest = 0.45 ** np.arange(1, 6)
    probs = np.concatenate([[floor_mass], rest / rest.sum() * (1.0 - floor_mass)])
    return tuple(np.cumsum(probs)[:-1])
