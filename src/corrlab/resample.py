"""Finite-population resampling studies.

A numeric table is treated as the population; samples of a fixed size
are drawn from its rows with replacement, Pearson and Spearman
correlation matrices are computed for every draw, and per-pair summary
statistics are aggregated against the whole-table population matrices.
Draws with a constant column (by ``estimators._varies``, the one constant
test) are redrawn and counted.  Each block of draws from the one replication
driver, ``randgen._replication_blocks``, is reduced in turn.

A population whose values are all integers (Likert items, counts) is
drawn as per-column level codes, value - column minimum, in the
narrowest unsigned dtype when each column spans less than the sample
size (the rule by which ``rank_rows`` counts levels), sample size *
max|value| < 2**53, the sample size is below 2**17 and no value is -0.0.
One count of each block's (table, column, level) cells then gives the
exact Pearson means and the Spearman mid-ranks, and both centred stacks
are gathered from per-level tables in the one (table, row, column)
layout in which :func:`corrlab.estimators._correlation_core` centres
gathered values, so the matrices keep their bits.  Any other population
is gathered as floats, ranked and centred.

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
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateSampleError, InputError
from .estimators import (_MATRIX_KINDS, _centered_correlation, _correlation_core,
                         _mid_ranks, _varies, correlation_matrix)
from .randgen import MarginalSpec, RngStream, _couple, _replication_blocks, _transform

__all__ = [
    "PopulationDataset",
    "MomentProfile",
    "PairSummary",
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
    """Mean, SD, skewness (m3/sd^3), and kurtosis (m4/sd^4) per column."""
    columns = np.ascontiguousarray(dataset.values.T)  # numpy sums along rows pairwise
    mean = columns.mean(axis=1)
    centered = columns - mean[:, None]
    squared = centered * centered  # products, not pow: ** 3 and ** 4 call pow per entry
    m2 = squared.mean(axis=1)
    sd = np.sqrt(m2)
    skew = (squared * centered).mean(axis=1) / sd ** 3
    kurt = (squared * squared).mean(axis=1) / m2 ** 2
    return MomentProfile(column_names=dataset.column_names, mean=mean, sd=sd,
                         skewness=skew, kurtosis=kurt)


def scale_sums(dataset: PopulationDataset, groups) -> PopulationDataset:
    """Aggregate item columns into scale columns by row-wise summation.

    ``groups`` maps each new column name to the item columns it sums.
    """
    if not groups:
        raise InputError("no scale groups given")
    index = {name: i for i, name in enumerate(dataset.column_names)}
    columns = []
    for scale, members in groups.items():
        if not (isinstance(members, (list, tuple)) and members
                and all(isinstance(m, str) for m in members)):
            raise InputError(f"scale {scale!r} must map to a non-empty list of column names")
        missing = [m for m in members if m not in index]
        if missing:
            raise InputError(f"scale {scale!r} references unknown column {missing[0]!r}")
        columns.append(dataset.values[:, [index[m] for m in members]].sum(axis=1))
    return PopulationDataset(column_names=tuple(groups), values=np.column_stack(columns))


# ---------------------------------------------------------------------------
# The resampling study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSummary:
    """Statistics of one off-diagonal column pair, in resample_pairs.csv order."""

    column_a: str
    column_b: str
    pop_pearson: float
    pop_spearman: float
    mean_pearson: float
    mean_spearman: float
    sd_pearson: float
    sd_spearman: float
    mad_pearson_vs_pop_pearson: float
    mad_pearson_vs_pop_spearman: float
    mad_spearman_vs_pop_pearson: float
    mad_spearman_vs_pop_spearman: float


@dataclass(frozen=True)
class StudyResult:
    sample_size: int
    n_samples: int
    pairs: tuple[PairSummary, ...]
    aggregates: dict[str, float]
    redraw_count: int


@dataclass(frozen=True)
class _LevelCodes:
    """An integer table as per-column level codes value - column minimum."""

    codes: np.ndarray  # (rows, cols) in the narrowest unsigned dtype
    levels: np.ndarray  # (cols, width): the value of each code, column by column

    def matrices(self, tables: np.ndarray) -> list[np.ndarray]:
        """The ``_MATRIX_KINDS`` matrices of a (tables, rows, cols) stack of
        codes, bit for bit ``_correlation_core`` of the values they code.

        Integer sums below 2**53 are exact in any order, so the Pearson
        means from the level counts equal numpy's means; the mid-ranks are
        exact half-integers and centre on the exact (n + 1)/2, so every
        Spearman sum is exact in any order while n**3/4 < 2**53.  Both
        stacks are gathered in the (table, row, col) layout in which
        ``_correlation_core`` centres gathered values.
        """
        count, n, p = tables.shape
        width = self.levels.shape[1]
        cells = tables + np.arange(0, count * p * width, width).reshape(count, 1, p)
        counts = np.bincount(cells.ravel(), minlength=count * p * width)
        counts = counts.reshape(count, p, width)
        means = (counts * self.levels).sum(axis=-1, keepdims=True) / n
        centred = (self.levels - means, _mid_ranks(counts) - 0.5 * (n + 1))
        return [_centered_correlation(np.take(t, cells).swapaxes(1, 2)) for t in centred]


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


def _replicate(dataset: PopulationDataset, sample_size: int, n_samples: int,
               master_seed: int):
    """Yield (matrices, redraws) for successive blocks of replications.

    Draws come from ``randgen._replication_blocks``: chunk k draws its row
    picks block by block from path (k,), and a replication i of it with a
    constant column is redrawn from (k, i).  ``matrices[r, a]`` is replication
    r's matrix of kind ``_MATRIX_KINDS[a]``; ``redraws`` counts failed draws.
    A replication over the redraw cap makes the condition infeasible, and
    the error names the column that degenerated most often.  Tables of an
    integer population are drawn as level codes (see :func:`_level_codes`).
    """
    if sample_size < 2:
        raise InputError("sample size must be at least 2")
    if n_samples < 2:
        raise InputError("need at least two replications")
    values = dataset.values
    n_rows, p = values.shape
    levels = _level_codes(values, sample_size)
    source = values if levels is None else levels.codes
    block = max(1, _BLOCK_VALUES // (sample_size * p))
    for tables, redraws in _replication_blocks(
            RngStream(master_seed), n_samples,
            lambda rng, rows: source[rng.integers(0, n_rows, (rows, sample_size))],
            lambda tables: ~_varies(tables, axis=-2), dataset.column_names,
            f"at sample size {sample_size}", block):
        if levels is None:
            matrices = [_correlation_core(tables, kind) for kind in _MATRIX_KINDS]
        else:
            matrices = levels.matrices(tables)
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
    pop = np.stack([correlation_matrix(dataset, kind) for kind in _MATRIX_KINDS])
    moments = _MeanSD(pop.shape)
    abs_dev = np.zeros((len(_MATRIX_KINDS),) + pop.shape)  # [kind, population kind]
    redraws = 0
    for matrices, block_redraws in _replicate(dataset, sample_size, n_samples, master_seed):
        redraws += block_redraws
        moments.add(matrices)
        abs_dev += np.abs(matrices[:, :, None] - pop).sum(axis=0)
    means, sds = moments.mean_sd()
    stats = {}
    for a, kind in enumerate(_MATRIX_KINDS):
        stats.update({f"pop_{kind}": pop[a], f"mean_{kind}": means[a], f"sd_{kind}": sds[a],
                      f"mean_{kind}_minus_pop": means[a] - pop[a]})
        for b, pop_kind in enumerate(_MATRIX_KINDS):
            stats[f"mad_{kind}_vs_pop_{pop_kind}"] = abs_dev[a, b] / float(n_samples)
    iu, ju = np.triu_indices(p, k=1)
    upper = {name: mat[iu, ju] for name, mat in stats.items()}
    names = dataset.column_names
    # every field after column_a and column_b is a per-pair statistic
    rows = np.column_stack([upper[f.name] for f in fields(PairSummary)[2:]]).tolist()
    pairs = tuple(PairSummary(names[i], names[j], *row)
                  for i, j, row in zip(iu, ju, rows))
    plain_means = {f"mean_{kind}" for kind in _MATRIX_KINDS}
    aggregates = {
        name: float(np.mean(np.abs(upper[name]) if name in plain_means else upper[name]))
        for name in TABLE_STATISTICS}
    return StudyResult(sample_size=sample_size, n_samples=n_samples, pairs=pairs,
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
    noise = rng.uniform(-half_width, half_width, size=(n_rows, n_cols))
    table = np.sqrt(shares) * factor[:, None] + np.sqrt(1.0 - shares) * noise
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

    columns = np.empty_like(latent)
    for j in range(n_cols):
        marginal = MarginalSpec.likert(_survey_thresholds(floor_mass[j]))
        columns[:, j] = _transform(marginal, latent[:, j])
    names = tuple(f"item{i + 1:02d}" for i in range(n_cols))
    return PopulationDataset(column_names=names, values=columns)


def _survey_thresholds(floor_mass: float) -> tuple[float, ...]:
    """Cut points of six categories: given mass on category 1, geometric decay (0.45) above."""
    rest = 0.45 ** np.arange(1, 6)
    probs = np.concatenate([[floor_mass], rest / rest.sum() * (1.0 - floor_mass)])
    return tuple(np.cumsum(probs)[:-1])
