"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion, each printing one pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them stream).  Heavy
Monte Carlo cells are computed once in session fixtures and shared
between the criteria that reference them.  All seeds are fixed; the
whole suite is deterministic per build.
"""

import math

import numpy as np
import pytest

from corrlab.eigen import eigen_study
from corrlab.estimators import distinct_spearman_values, pearson_rows
from corrlab.exact import (density_curve, expected_pearson, expected_spearman,
                           kendall_from_pearson, pearson_density,
                           spearman_from_pearson)
from corrlab.influence import delta_width, exceedance_fraction, scan_single
from corrlab.randgen import (MarginalSpec, PopulationSpec, RngStream,
                             calibrate_copula, sample_bivariate_normal)
from corrlab.resample import (asvab_like_population, dbq_like_population,
                              moment_profile, run_study)
from corrlab.simulate import SimulationPlan, run_plan

SEED = 20210
REPS = 20000


def finish(number, name, checks):
    """Print the criterion's pass/fail line, then assert."""
    ok = all(passed for _, passed in checks)
    detail = "; ".join(label for label, _ in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    failed = [label for label, passed in checks if not passed]
    assert not failed, f"criterion {number} failed: {failed}"


def run_condition(population, target, sizes, kinds, stream):
    """Every cell of one condition, keyed (target, n); cell i draws from
    ``stream.child(i)``."""
    plan = SimulationPlan(sizes, replications=REPS, coefficients=kinds)
    cells = {}
    table = run_plan(plan, population, threads=2, stream=stream)
    for values in zip(*table.values()):
        row = dict(zip(table, values))
        cells.setdefault((target, row["n"]), {})[row["kind"]] = row
    return cells


@pytest.fixture(scope="session")
def normal_cells():
    cells = {}
    for cond, (rho, sizes, kinds) in enumerate([
            (0.2, (50, 100, 200, 1000), ("pearson", "spearman", "kendall")),
            (0.4, (50, 200), ("pearson", "spearman")),
            (0.8, (50, 200), ("pearson", "spearman"))]):
        cells.update(run_condition(PopulationSpec.bivariate_normal(rho), rho, sizes, kinds,
                                   RngStream(SEED).child(cond)))
    return cells


@pytest.fixture(scope="session")
def exponential_cells():
    marginal = MarginalSpec.exponential()
    cells = {}
    for cond, (target, sizes) in enumerate([(0.4, (18, 213, 1000)),
                                            (0.8, (1000,))]):
        spec = calibrate_copula(marginal, target, calibration_n=10 ** 6,
                                stream=RngStream(SEED).child(90 + cond))
        cells.update(run_condition(spec, target, sizes, ("pearson", "spearman"),
                                   RngStream(SEED).child(10 + cond)))
    return cells


def test_criterion_01_bias_formulas():
    cases = [(0.2, 5, 0.177, 0.160), (0.2, 20, 0.195, 0.182),
             (0.8, 5, 0.754, 0.688), (0.8, 20, 0.792, 0.758)]
    checks = []
    for rho, n, want_p, want_s in cases:
        got_p = expected_pearson(rho, n)
        got_s = expected_spearman(rho, n)
        checks.append((f"E_pearson({rho},{n})={got_p:.4f}~{want_p}",
                       abs(got_p - want_p) <= 5e-4))
        checks.append((f"E_spearman({rho},{n})={got_s:.4f}~{want_s}",
                       abs(got_s - want_s) <= 5e-4))
    finish(1, "bias formulas", checks)


def test_criterion_02_conversion_formulas():
    checks = [
        (f"spearman_from_pearson(.2)={spearman_from_pearson(0.2):.4f}~.191",
         abs(spearman_from_pearson(0.2) - 0.191) <= 5e-4),
        (f"spearman_from_pearson(.8)={spearman_from_pearson(0.8):.4f}~.786",
         abs(spearman_from_pearson(0.8) - 0.786) <= 5e-4),
    ]
    grid = np.linspace(0.0, 1.0, 2000001)
    gap = grid - 6.0 / np.pi * np.arcsin(0.5 * grid)
    best = int(np.argmax(gap))
    checks.append((f"max gap {gap[best]:.5f}~.0181", abs(gap[best] - 0.0181) <= 5e-4))
    checks.append((f"argmax {grid[best]:.4f}~.594", abs(grid[best] - 0.594) <= 2e-3))
    finish(2, "conversion formulas", checks)


def test_criterion_03_density_normalization_and_histogram():
    checks = []
    worst = 0.0
    for rho in (0.0, 0.2, 0.4, 0.8):
        for n in (5, 10, 50, 200):
            curve = density_curve(rho, n)
            worst = max(worst, abs(np.trapezoid(curve.density, curve.grid) - 1.0))
    checks.append((f"max |area-1|={worst:.2e}<=1e-3", worst <= 1e-3))

    rho, n, reps = 0.2, 5, 10 ** 6
    rng = RngStream(5).generator()
    x = rng.standard_normal((reps, n))
    y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal((reps, n))
    observed = np.histogram(pearson_rows(x, y),
                            bins=np.linspace(-1.005, 1.005, 202))[0] / reps
    fine = np.linspace(-1 + 1e-9, 1 - 1e-9, 32001)
    dens = pearson_density(fine, rho, n)
    cdf = np.concatenate([[0.0],
                          np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    cdf /= cdf[-1]
    edges = np.clip(np.linspace(-1.005, 1.005, 202), fine[0], fine[-1])
    expected = np.diff(np.interp(edges, fine, cdf))
    se = np.sqrt(expected * (1 - expected) / reps)
    ratio = float(np.max(np.abs(observed - expected) / np.maximum(se, 1e-15)))
    checks.append((f"max bin discrepancy {ratio:.2f} se < 3 se", ratio < 3.0))
    finish(3, "density normalization and histogram", checks)


def test_criterion_04_normal_condition_variability_ratios(normal_cells):
    bands = {0.2: (1.00, 1.02), 0.4: (1.02, 1.06), 0.8: (1.12, 1.24)}
    sizes = {0.2: (50, 100, 200), 0.4: (50, 200), 0.8: (50, 200)}
    checks = []
    for rho, (lo, hi) in bands.items():
        for n in sizes[rho]:
            cell = normal_cells[(rho, n)]
            ratio = cell["spearman"]["sd"] / cell["pearson"]["sd"]
            checks.append((f"rho={rho} n={n}: sd ratio {ratio:.4f} in [{lo},{hi}]",
                           lo <= ratio <= hi))
    finish(4, "normal-condition variability ratios", checks)


def test_criterion_05_exponential_condition_ratios(exponential_cells):
    targets = [(0.4, 18, 1.135, 0.04), (0.4, 213, 1.26, 0.04),
               (0.4, 1000, 1.273, 0.04), (0.8, 1000, 1.389, 0.05)]
    checks = []
    for rho, n, want, tol in targets:
        cell = exponential_cells[(rho, n)]
        ratio = cell["pearson"]["sd"] / cell["spearman"]["sd"]
        checks.append(
            (f"target={rho} n={n}: sd ratio {ratio:.4f}~{want}+-{tol}",
             abs(ratio - want) <= tol))
    finish(5, "exponential-condition ratios", checks)


def test_criterion_06_sqrt_n_law(normal_cells):
    checks = []
    for kind in ("pearson", "spearman"):
        ratio = (normal_cells[(0.2, 200)][kind]["sd"]
                 / normal_cells[(0.2, 100)][kind]["sd"])
        checks.append((f"{kind}: sd(200)/sd(100)={ratio:.3f}~.71",
                       abs(ratio - 0.71) <= 0.03))
    finish(6, "sqrt-n variability law", checks)


def test_criterion_07_outlier_influence_properties():
    checks = []
    for seed in range(1000, 1010):
        base = sample_bivariate_normal(0.2, 200, RngStream(seed))
        grid = scan_single(base)
        width_p = delta_width(grid, "pearson")
        width_s = delta_width(grid, "spearman")
        exceed_p = exceedance_fraction(grid, 0.05, "pearson")
        exceed_s = exceedance_fraction(grid, 0.05, "spearman")
        checks.append((f"seed {seed}: width ratio {width_p / width_s:.1f}>=3",
                       width_p >= 3 * width_s))
        checks.append((f"exceed_p {exceed_p:.3f}~.19+-.07",
                       abs(exceed_p - 0.19) <= 0.07))
        checks.append((f"exceed_s {exceed_s:.3f}==0", exceed_s == 0.0))
    finish(7, "outlier influence properties", checks)


def test_criterion_08_distinct_spearman_values():
    count = distinct_spearman_values(5)
    finish(8, "distinct coefficient count", [(f"n=5 -> {count}==21", count == 21)])


def test_criterion_09_resampling_study_directions():
    checks = []
    dbq = dbq_like_population()
    kurt = moment_profile(dbq)["kurtosis"]
    checks.append((f"dbq-like min kurtosis {kurt.min():.2f}>3", kurt.min() > 3.0))
    study = run_study(dbq, sample_size=200, n_samples=10000, master_seed=1)
    mad_s = study.aggregates["mad_spearman_vs_pop_pearson"]
    mad_p = study.aggregates["mad_pearson_vs_pop_pearson"]
    checks.append((f"dbq-like: mad_spearman_vs_popP {mad_s:.4f} < "
                   f"mad_pearson_vs_popP {mad_p:.4f}", mad_s < mad_p))
    asvab = asvab_like_population()
    study_a = run_study(asvab, sample_size=200, n_samples=10000, master_seed=1)
    sd_p = study_a.aggregates["sd_pearson"]
    sd_s = study_a.aggregates["sd_spearman"]
    checks.append((f"asvab-like: sd_pearson {sd_p:.4f} < sd_spearman {sd_s:.4f}",
                   sd_p < sd_s))
    finish(9, "resampling study directions", checks)


def test_criterion_10_eigenvalue_stability():
    summary = eigen_study(dbq_like_population(), sample_size=200, n_samples=5000,
                          k=6, master_seed=1)
    sd_p, sd_s = summary.table["sd_pearson"][0], summary.table["sd_spearman"][0]
    checks = [
        (f"sd(eig1): pearson {sd_p:.3f} > spearman {sd_s:.3f}", sd_p > sd_s),
        (f"max trace error {summary.max_trace_error:.2e}<=1e-8",
         summary.max_trace_error <= 1e-8),
    ]
    finish(10, "eigenvalue stability", checks)


def test_criterion_11_kendall_convergence(normal_cells):
    want = kendall_from_pearson(0.2)
    got = normal_cells[(0.2, 1000)]["kendall"]["mean"]
    finish(11, "kendall convergence",
           [(f"mean kendall at n=1000: {got:.4f}~{want:.4f}+-.005",
             abs(got - want) <= 0.005)])


def test_criterion_12_declared_substitutes():
    # the original survey datasets are not redistributable, so their
    # table values cannot be reproduced cell-for-cell; the directional
    # criteria 9 and 10 on the shipped synthetic populations stand in
    finish(12, "declared substitutes for unavailable data",
           [("criteria 9 and 10 are the declared substitutes", True)])
