"""Layer microbenchmarks: public corrlab functions on generated inputs.

Each figure is the median over a fixed number of repeats of one call,
divided by the unit of work it names (per value, per build, per call).
Inputs come from the run's seed; the sizes follow the layers that the
workloads exercise (row kernels at n = 5, 50 and 1000, the chi-square
quantile at the calibration size and at n = 5, a 34 x 34 eigenproblem,
a 4,001-point density curve).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from workloads import CALIBRATION_N

ROW_SIZES = (5, 50, 1000)
VALUES_PER_CALL = 100_000  # rows x n for the row kernels
REPEATS = 7


def _median_s(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: first-call costs are not per-call costs
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(spec: dict) -> dict:
    from scipy.special import ndtr

    from corrlab.eigen import symmetric_eigenvalues
    from corrlab.estimators import (correlation_matrix, kendall_rows, pearson_rows,
                                    rank_rows, spearman_rows)
    from corrlab.exact import pearson_density
    from corrlab.randgen import MarginalSpec, RngStream

    rng = np.random.default_rng([spec["seed"], 9411])
    metrics = {}
    for n in ROW_SIZES:
        x = rng.standard_normal((VALUES_PER_CALL // n, n))
        y = 0.3 * x + rng.standard_normal(x.shape)
        kernels = {"pearson_rows": lambda: pearson_rows(x, y),
                   "spearman_rows": lambda: spearman_rows(x, y),
                   "rank_rows": lambda: rank_rows(x),
                   "kendall_rows": lambda: kendall_rows(x, y)}
        for name, fn in kernels.items():
            metrics[f"micro.{name}.n{n}.ns_per_value"] = _median_s(fn) / x.size * 1e9

    builds = 2000
    streams = [RngStream(spec["seed"]).child(3, i) for i in range(builds)]
    metrics["micro.generator.us_per_build"] = _median_s(
        lambda: [s.generator() for s in streams]) / builds * 1e6

    u_calib = ndtr(rng.standard_normal(CALIBRATION_N))
    u_small = ndtr(rng.standard_normal(5))
    calls = 200
    for df in (1, 2, 32):
        marginal = MarginalSpec.chi_square(df)
        metrics[f"micro.chi2_quantile.df{df}.calib_ms"] = _median_s(
            lambda: marginal.quantile(u_calib), repeats=3) * 1e3
        metrics[f"micro.chi2_quantile.df{df}.n5_us"] = _median_s(
            lambda: [marginal.quantile(u_small) for _ in range(calls)]) / calls * 1e6

    corr = correlation_matrix(rng.standard_normal((200, 34)))
    metrics["micro.symmetric_eigenvalues.p34_ms"] = _median_s(
        lambda: symmetric_eigenvalues(corr)) * 1e3

    # a new rho on every call, so the per-(rho, n) normalisation that a
    # fresh process pays is part of the figure
    grid = np.linspace(-1 + 1e-6, 1 - 1e-6, 4001)
    rhos = iter(0.2 + 1e-7 * np.arange(REPEATS + 1))
    metrics["micro.pearson_density.p4001_ms"] = _median_s(
        lambda: pearson_density(grid, next(rhos), 50)) * 1e3
    return {"micro": metrics}
