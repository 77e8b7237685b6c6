"""Monte Carlo sweeps over sample sizes: draw, estimate, summarize.

A :class:`SimulationPlan` names a population, a list of sample sizes,
the coefficients to estimate, and a replication count.  Each (size,
coefficient) cell yields a :class:`SummaryStats` row.  Cell c draws
through the chunk layout of :mod:`corrlab.randgen` under path (c,), so
results do not depend on how cells are scheduled.  A sweep keeps every
replication in one (coefficient, cell, replication) array and takes each
statistic once per coefficient over all cells; a cell's row has the same
bits as :func:`run_cell` gives for that cell alone.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError
from .estimators import KINDS, _pearson_rows, _varies, kendall_rows, spearman_rows
from .randgen import CHUNK_REPS, REDRAW_CAP_PER_SAMPLE, PopulationSpec, RngStream, _pairs

__all__ = ["SimulationPlan", "SummaryStats", "logspace_sizes", "replication_chunks",
           "run_cell", "run_plan", "SUMMARY_COLUMNS"]

MAX_REDRAW_RATE = 0.5

SUMMARY_COLUMNS = ("condition", "kind", "n", "mean", "sd", "p5", "p95",
                   "bias", "rmse", "redraw_count")


def logspace_sizes(lo: int, hi: int, k: int) -> tuple[int, ...]:
    """k integer sample sizes spaced evenly on a log scale from lo to hi.

    Rounded values are nudged apart so the result is strictly increasing
    with first = lo and last = hi exactly.
    """
    if lo < 2 or hi <= lo:
        raise InputError(f"need 2 <= lo < hi, got lo={lo} hi={hi}")
    if k < 2:
        raise InputError(f"need at least 2 sizes, got k={k}")
    if k > hi - lo + 1:
        raise InputError(f"cannot fit {k} distinct sizes between {lo} and {hi}")
    raw = np.geomspace(lo, hi, k)
    sizes = np.rint(raw).astype(int)
    sizes[0], sizes[-1] = lo, hi
    for i in range(1, k):
        if sizes[i] <= sizes[i - 1]:
            sizes[i] = sizes[i - 1] + 1
    for i in range(k - 2, -1, -1):
        if sizes[i] >= sizes[i + 1]:
            sizes[i] = sizes[i + 1] - 1
    return tuple(int(s) for s in sizes)


@dataclass(frozen=True)
class SimulationPlan:
    population: PopulationSpec
    sample_sizes: tuple[int, ...]
    replications: int = 20000
    coefficients: tuple[str, ...] = ("pearson", "spearman")

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sample_sizes)
        if not sizes or any(s < 2 for s in sizes):
            raise InputError("sample sizes must be a nonempty list of integers >= 2")
        object.__setattr__(self, "sample_sizes", sizes)
        if self.replications < 1:
            raise InputError("need at least one replication")
        kinds = tuple(self.coefficients)
        if not kinds or any(c not in KINDS for c in kinds):
            raise InputError(f"coefficients must be drawn from {KINDS}")
        object.__setattr__(self, "coefficients", kinds)

    @property
    def condition(self) -> str:
        return self.population.label


@dataclass(frozen=True)
class SummaryStats:
    """Per-cell Monte Carlo summary of one coefficient's sampling distribution."""

    condition: str
    kind: str
    n: int
    mean: float
    sd: float | None  # absent (not zero) when only one replication ran
    p5: float
    p95: float
    bias: float
    rmse: float
    population_value: float
    redraw_count: int = 0

    def row(self) -> tuple:
        sd = "" if self.sd is None else self.sd
        return (self.condition, self.kind, self.n, self.mean, sd, self.p5,
                self.p95, self.bias, self.rmse, self.redraw_count)


def replication_chunks(population: PopulationSpec, n: int, reps: int,
                       stream: RngStream):
    """Yield (x, y, redraws) for successive chunks of ``CHUNK_REPS`` rows.

    Draws follow the chunk layout of :mod:`corrlab.randgen` under
    ``stream``: a row with a constant x or y is redrawn, and ``redraws``
    counts the failed draws.
    """
    for k, start in enumerate(range(0, reps, CHUNK_REPS)):
        chunk = stream.child(k)
        x, y = _pairs(population, chunk.generator(), min(CHUNK_REPS, reps - start), n)
        bad = np.flatnonzero(~(_varies(x) & _varies(y)))
        redraws = bad.size
        for row in bad:
            rng = chunk.child(row).generator()
            for _ in range(REDRAW_CAP_PER_SAMPLE):
                xr, yr = _pairs(population, rng, 1, n)
                if _varies(xr)[0] and _varies(yr)[0]:
                    x[row], y[row] = xr[0], yr[0]
                    break
                redraws += 1
            else:
                raise InfeasibleError(f"replication {start + row} at n={n} exceeded "
                                      f"{REDRAW_CAP_PER_SAMPLE} redraws")
        yield x, y, redraws


def _cell_values(plan: SimulationPlan, n: int, cell_stream: RngStream,
                 out: np.ndarray) -> int:
    """Fill row k of ``out`` with the replications of ``plan.coefficients[k]``
    at sample size n; return the redraw count."""
    reps = plan.replications
    # looked up on each call, so a kernel replaced on this module is the one run;
    # replication_chunks redraws until every row varies, so Pearson skips that check
    by_kind = dict(zip(KINDS, (_pearson_rows, spearman_rows, kendall_rows)))
    kernels = [by_kind[kind] for kind in plan.coefficients]
    total_redraws = 0
    done = 0
    for x, y, redraws in replication_chunks(plan.population, n, reps, cell_stream):
        total_redraws += redraws
        for kernel, values in zip(kernels, out):
            values[done:done + len(x)] = kernel(x, y)
        done += len(x)
    if total_redraws > MAX_REDRAW_RATE * (reps + total_redraws):
        raise InfeasibleError(
            f"more than half of all draws at n={n} were degenerate "
            f"({total_redraws} redraws for {reps} replications)")
    return total_redraws


def _summarize(plan: SimulationPlan, sizes, values: np.ndarray,
               redraws) -> list[SummaryStats]:
    """One row per (coefficient, size), coefficient-major, from ``values[kind, cell, rep]``.

    Each statistic is one call per kind over every cell.  numpy reduces,
    partitions and interpolates each row of a C-contiguous 2-d array as it
    would the row alone, so a cell's row does not depend on the others.
    """
    rows = []
    for kind, v in zip(plan.coefficients, values):
        population_value = plan.population.population_value(kind)
        mean = v.mean(axis=1).tolist()
        sd = v.std(axis=1, ddof=1).tolist() if v.shape[1] > 1 else [None] * len(sizes)
        p5, p95 = np.percentile(v, [5.0, 95.0], axis=1).tolist()  # type-7 linear interpolation
        rmse = np.sqrt(np.mean((v - population_value) ** 2, axis=1)).tolist()
        rows += [SummaryStats(condition=plan.condition, kind=kind, n=n, mean=mean[c], sd=sd[c],
                              p5=p5[c], p95=p95[c], bias=mean[c] - population_value,
                              rmse=rmse[c], population_value=population_value,
                              redraw_count=redraws[c])
                 for c, n in enumerate(sizes)]
    return rows


def run_cell(plan: SimulationPlan, n: int, cell_stream: RngStream) -> list[SummaryStats]:
    """All requested coefficient summaries for one sample size."""
    values = np.empty((len(plan.coefficients), 1, plan.replications))
    redraws = _cell_values(plan, n, cell_stream, values[:, 0])
    return _summarize(plan, [n], values, [redraws])


def run_plan(plan: SimulationPlan, threads: int = 1,
             stream: RngStream = RngStream(0)) -> list[SummaryStats]:
    """Run every cell of the plan; one row per (size, coefficient).

    Cells are independent streams, so the result is identical for any
    thread count; rows come back sorted by (n, kind).  Cell i draws under
    ``stream.child(i)``, so a caller running several conditions gives each
    its own root stream.  Every cell fills its slice of one (kind, cell,
    replication) array, and the summaries are taken over all cells at once.
    """
    sizes = plan.sample_sizes
    values = np.empty((len(plan.coefficients), len(sizes), plan.replications))

    def one(index):
        return _cell_values(plan, sizes[index], stream.child(index), values[:, index])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            redraws = list(pool.map(one, range(len(sizes))))
    else:
        redraws = [one(i) for i in range(len(sizes))]
    rows = _summarize(plan, sizes, values, redraws)
    rows.sort(key=lambda r: (r.n, r.kind))
    return rows
