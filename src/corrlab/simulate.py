"""Monte Carlo sweeps over sample sizes: draw, estimate, summarize.

A :class:`SimulationPlan` names a list of sample sizes, the
coefficients to estimate, and a replication count; :func:`run_plan` runs
it against one population and returns its summary table as columns.
Each (size, coefficient) cell yields one row of that table.  Cell c
draws through the chunk layout of :mod:`corrlab.randgen` under path
(c,), so results do not depend on how cells are scheduled, and runs
the draw, the marginal map and every kernel on one row block of
``randgen._BLOCK_VALUES`` values at a time, so a cell holds one block
rather than a chunk.  A sweep keeps every replication in one
(coefficient, cell, replication) array and takes each statistic once per
coefficient over all cells; a cell's row has the same bits as the cell
summarised alone.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError
from .estimators import KINDS, _pearson_rows, _varies, kendall_rows, spearman_rows
from .randgen import _BLOCK_VALUES, PopulationSpec, RngStream, _pairs, _replication_blocks

__all__ = ["SimulationPlan", "logspace_sizes", "replication_chunks", "run_plan",
           "SUMMARY_COLUMNS"]

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


def replication_chunks(population: PopulationSpec, n: int, reps: int,
                       stream: RngStream):
    """Yield (x, y, redraws) for successive blocks of ``max(1, _BLOCK_VALUES // n)``
    rows, at most a chunk of ``CHUNK_REPS``, drawn under ``stream`` by
    :mod:`corrlab.randgen`'s replication driver: a row with a constant x or y
    is redrawn, and ``redraws`` counts the failed draws.  A block has the rows
    of one chunk-wide draw, and every kernel reduces each row on its own, so
    no value depends on the block size."""
    for pairs, redraws in _replication_blocks(
            stream, reps, lambda rng, rows: _pairs(population, rng, rows, n),
            lambda pairs: ~_varies(pairs), ("x", "y"), f"at n={n}",
            max(1, _BLOCK_VALUES // n)):
        yield pairs[:, 0], pairs[:, 1], redraws


def _cell_values(plan: SimulationPlan, population: PopulationSpec, n: int,
                 cell_stream: RngStream, out: np.ndarray) -> int:
    """Fill row k of ``out`` with the replications of ``plan.coefficients[k]``
    at sample size n; return the redraw count."""
    reps = plan.replications
    # looked up on each call, so a kernel replaced on this module is the one run;
    # replication_chunks redraws until every row varies, so Pearson skips that check
    by_kind = dict(zip(KINDS, (_pearson_rows, spearman_rows, kendall_rows)))
    kernels = [by_kind[kind] for kind in plan.coefficients]
    total_redraws = 0
    done = 0
    for x, y, redraws in replication_chunks(population, n, reps, cell_stream):
        total_redraws += redraws
        for kernel, values in zip(kernels, out):
            values[done:done + len(x)] = kernel(x, y)
        done += len(x)
    if total_redraws > MAX_REDRAW_RATE * (reps + total_redraws):
        raise InfeasibleError(
            f"more than half of all draws at n={n} were degenerate "
            f"({total_redraws} redraws for {reps} replications)")
    return total_redraws


def _summarize(plan: SimulationPlan, population: PopulationSpec, values: np.ndarray,
               redraws) -> dict:
    """The ``SUMMARY_COLUMNS`` of ``values[kind, cell, rep]``, one row per
    (size, coefficient) sorted by (n, kind); a cell's ``sd`` is ``""`` when
    only one replication ran.

    Each statistic is one call per kind over every cell.  numpy reduces,
    partitions and interpolates each row of a C-contiguous 2-d array as it
    would the row alone, so a cell's row does not depend on the others.
    """
    kinds, sizes = plan.coefficients, plan.sample_sizes
    stats = []  # per kind: column -> per-cell values
    for kind, v in zip(kinds, values):
        population_value = population.population_value(kind)
        mean = v.mean(axis=1)
        p5, p95 = np.percentile(v, [5.0, 95.0], axis=1)  # type-7 linear interpolation
        stats.append({
            "condition": [population.label] * len(sizes), "kind": [kind] * len(sizes),
            "n": sizes, "mean": mean.tolist(),
            "sd": v.std(axis=1, ddof=1).tolist() if v.shape[1] > 1 else [""] * len(sizes),
            "p5": p5.tolist(), "p95": p95.tolist(), "bias": (mean - population_value).tolist(),
            "rmse": np.sqrt(np.mean((v - population_value) ** 2, axis=1)).tolist(),
            "redraw_count": redraws})
    # stable: cells of equal (n, kind) stay coefficient-major
    cells = sorted(((k, c) for k in range(len(kinds)) for c in range(len(sizes))),
                   key=lambda kc: (sizes[kc[1]], kinds[kc[0]]))
    return {name: [stats[k][name][c] for k, c in cells] for name in SUMMARY_COLUMNS}


def run_plan(plan: SimulationPlan, population: PopulationSpec, threads: int = 1,
             stream: RngStream = RngStream(0)) -> dict:
    """Run every cell of the plan against ``population``; return the summary
    table as a dict of ``SUMMARY_COLUMNS``, one row per (size, coefficient)
    in (n, kind) order, its condition the population's label.

    Cells are independent streams, so the result is identical for any
    thread count.  Cell i draws under ``stream.child(i)``, so a caller
    running one plan against several populations gives each its own root
    stream.  Every cell fills its slice of one (kind, cell, replication)
    array, and the summaries are taken over all cells at once.
    """
    sizes = plan.sample_sizes
    values = np.empty((len(plan.coefficients), len(sizes), plan.replications))

    def one(index):
        return _cell_values(plan, population, sizes[index], stream.child(index),
                            values[:, index])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            redraws = list(pool.map(one, range(len(sizes))))
    else:
        redraws = [one(i) for i in range(len(sizes))]
    return _summarize(plan, population, values, redraws)
