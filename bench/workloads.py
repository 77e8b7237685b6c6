"""The three benchmark workloads: their corrlab invocations and output checks.

A workload is a set-up phase and a timed phase, each a list of
invocations of ``corrlab.cli.main``.  The worker adds ``--seed``,
``--threads`` and a fresh ``--out-dir`` to every argv.  Each invocation
carries a check that reads what it wrote and returns a list of problems;
an empty list means the outputs are correct.  Why each workload exists
is recorded in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# reduced scales: every invocation stays well under a few seconds
CALIBRATION_N = 10000
NORMAL_REPS = 100
EXPONENTIAL_REPS = 100
CHI2_REPS = 5
RESAMPLE_REPS = 1000
EIGEN_REPS = 200
DEFAULT_SIZES = 25  # the simulate default size-range 5:1000:25

SURVEY_ROWS = 9000
SURVEY_ITEMS = 34
SURVEY_FILE = "survey.csv"

# a sample mean more than this many standard errors from its exact
# expectation fails; 5 keeps the false-alarm rate per run near 1e-4
MEAN_TOLERANCE_SE = 5.0


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]


# ---------------------------------------------------------------------------
# Artifact readers
# ---------------------------------------------------------------------------

def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        first = handle.readline()
        if not first.startswith("# config "):
            raise ValueError(f"{path.name} lacks the config header line")
        return list(csv.DictReader(handle))


def _json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _finite(rows: list[dict], columns) -> list[str]:
    bad = [c for row in rows for c in columns if not math.isfinite(float(row[c]))]
    return [f"non-finite values in {sorted(set(bad))}"] if bad else []


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _check_calibrations(out: Path) -> list[str]:
    files = sorted((out / "calibrations").glob("*.json"))
    if not files:
        return ["no calibration cache written"]
    problems = []
    for path in files:
        spec = _json(path)
        miss = abs(spec["pop_pearson"] - spec["target_pearson"])
        if not miss <= 1e-3:
            problems.append(f"{path.name}: calibrated Pearson misses target by {miss:.2e}")
    return problems


def _sweep_rows(out: Path, kinds: tuple[str, ...], conditions: int) -> tuple[list, list]:
    rows = _csv_rows(out / "simulation_summary.csv")
    problems = _finite(rows, ("mean", "p5", "p95", "rmse"))
    expected = DEFAULT_SIZES * len(kinds) * conditions
    if len(rows) != expected:
        problems.append(f"{len(rows)} summary rows, expected {expected}")
    if {row["kind"] for row in rows} != set(kinds):
        problems.append(f"kinds {sorted({row['kind'] for row in rows})}, expected {kinds}")
    return rows, problems


def _normal_sweep(rho: float, kinds: tuple[str, ...], reps: int):
    def check(out: Path) -> list[str]:
        from corrlab.exact import expected_pearson, expected_spearman, kendall_from_pearson

        expect = {"pearson": lambda n: expected_pearson(rho, n),
                  "spearman": lambda n: expected_spearman(rho, n),
                  "kendall": lambda n: kendall_from_pearson(rho)}
        rows, problems = _sweep_rows(out, kinds, 1)
        for row in rows:
            n = int(row["n"])
            target = expect[row["kind"]](n)
            se = float(row["sd"]) / math.sqrt(reps)
            if not abs(float(row["mean"]) - target) <= MEAN_TOLERANCE_SE * se:
                problems.append(f"{row['kind']} n={n}: mean {row['mean']} vs "
                                f"expected {target:.5f} (se {se:.5f})")
        return problems
    return check


def _copula_sweep(kinds: tuple[str, ...], conditions: int):
    def check(out: Path) -> list[str]:
        rows, problems = _sweep_rows(out, kinds, conditions)
        if any(not -1.0 <= float(row["mean"]) <= 1.0 for row in rows):
            problems.append("a mean coefficient lies outside [-1, 1]")
        return problems
    return check


def _resample_table(out: Path) -> tuple[dict, list[str]]:
    rows = _csv_rows(out / "resample_table.csv")
    table = {row["statistic"]: float(row["value"]) for row in rows}
    problems = _finite(rows, ("value",))
    if len(table) != 10:
        problems.append(f"resample table has {len(table)} rows, expected 10")
    return table, problems


def _check_dbq(out: Path) -> list[str]:
    table, problems = _resample_table(out)
    mad_s = table["mad_spearman_vs_pop_pearson"]
    mad_p = table["mad_pearson_vs_pop_pearson"]
    if not mad_s < mad_p:
        problems.append(f"dbq direction: MAD(s) {mad_s:.4f} not below MAD(p) {mad_p:.4f}")
    return problems


def _check_asvab(out: Path) -> list[str]:
    table, problems = _resample_table(out)
    if not table["sd_pearson"] < table["sd_spearman"]:
        problems.append(f"asvab direction: SD(p) {table['sd_pearson']:.4f} not below "
                        f"SD(s) {table['sd_spearman']:.4f}")
    return problems


def _check_survey_resample(out: Path) -> list[str]:
    _table, problems = _resample_table(out)
    pairs = _json(out / "resample_summary.json")["n_pairs"]
    if pairs != SURVEY_ITEMS * (SURVEY_ITEMS - 1) // 2:
        problems.append(f"{pairs} column pairs from the survey file")
    return problems


def _check_eigen(out: Path) -> list[str]:
    rows = _csv_rows(out / "eigen_table.csv")
    problems = _finite(rows, ("mean_pearson", "sd_pearson", "mean_spearman", "sd_spearman"))
    trace_error = _json(out / "eigen_summary.json")["max_trace_error"]
    if not trace_error <= 1e-8:
        problems.append(f"eigen max_trace_error {trace_error:.2e} above 1e-8")
    sd_p, sd_s = float(rows[0]["sd_pearson"]), float(rows[0]["sd_spearman"])
    if not sd_p > sd_s:
        problems.append(f"eig1 direction: SD(p) {sd_p:.4f} not above SD(s) {sd_s:.4f}")
    return problems


def _check_moments(out: Path) -> list[str]:
    rows = _csv_rows(out / "moments.csv")
    problems = _finite(rows, ("mean", "sd", "skewness", "kurtosis"))
    if len(rows) != SURVEY_ITEMS:
        problems.append(f"{len(rows)} moment rows, expected {SURVEY_ITEMS}")
    return problems


def _influence_summary(out: Path) -> tuple[dict, list[str]]:
    summary = _json(out / "influence_summary.json")
    problems = []
    if summary["grid_cells"] != 201 * 201:
        problems.append(f"{summary['grid_cells']} grid cells, expected 40401")
    if summary["missing_cells"]:
        problems.append(f"{summary['missing_cells']} missing influence cells")
    return summary, problems


def _check_influence_single(out: Path) -> list[str]:
    summary, problems = _influence_summary(out)
    width_p = summary["delta_pearson_max"] - summary["delta_pearson_min"]
    width_s = summary["delta_spearman_max"] - summary["delta_spearman_min"]
    if not width_p >= 3.0 * width_s:
        problems.append(f"width ratio {width_p / width_s:.2f} below 3")
    if summary["exceedance_spearman_0.05"] != 0.0:
        problems.append(f"Spearman exceedance {summary['exceedance_spearman_0.05']} is not 0")
    return problems


def _check_influence_double(out: Path) -> list[str]:
    return _influence_summary(out)[1]


def _check_density(out: Path) -> list[str]:
    problems = []
    for curve in _json(out / "density_summary.json")["curves"]:
        if not abs(curve["area"] - 1.0) <= 1e-3:
            problems.append(f"density rho={curve['pearson']} n={curve['n']}: "
                            f"area {curve['area']:.6f}")
    for path in sorted(out.glob("histogram_*.csv")):
        total = sum(float(row["fraction_pearson"]) for row in _csv_rows(path))
        if not abs(total - 1.0) <= 1e-9:
            problems.append(f"{path.name}: Pearson fractions sum to {total}")
    return problems


# ---------------------------------------------------------------------------
# Inputs and workload definitions
# ---------------------------------------------------------------------------

def write_inputs(workload: str, seed: int, directory: Path) -> None:
    """Generate the workload's input files from its seed."""
    if workload == "resample-eigen":
        write_survey_csv(directory / SURVEY_FILE, seed)


def write_survey_csv(path: Path, seed: int) -> None:
    """A 9,000 x 34 table of six-point items, most mass on the lowest point.

    One latent normal factor per row; each item cuts its own loading-mixed
    normal at thresholds whose floor mass is drawn from [.5, .9].
    """
    from scipy.special import ndtr

    rng = np.random.default_rng([seed, 7301])
    loadings = rng.uniform(0.4, 0.8, SURVEY_ITEMS)
    latent = (loadings * rng.standard_normal((SURVEY_ROWS, 1))
              + np.sqrt(1.0 - loadings ** 2)
              * rng.standard_normal((SURVEY_ROWS, SURVEY_ITEMS)))
    floors = rng.uniform(0.5, 0.9, SURVEY_ITEMS)
    decay = 0.45 ** np.arange(1, 6)
    items = np.empty((SURVEY_ROWS, SURVEY_ITEMS), dtype=int)
    for j in range(SURVEY_ITEMS):
        probs = np.concatenate([[floors[j]], decay / decay.sum() * (1.0 - floors[j])])
        cuts = np.cumsum(probs)[:-1]
        items[:, j] = 1 + np.searchsorted(cuts, ndtr(latent[:, j]), side="right")
    header = ",".join(f"q{j + 1:02d}" for j in range(SURVEY_ITEMS))
    np.savetxt(path, items, fmt="%d", delimiter=",", header=header, comments="")


def _mc_sweep(inputs: Path):
    calib = ("--calibration-n", str(CALIBRATION_N))
    tiny = ("--sizes", "5", "--reps", "1")
    setup = [
        Invocation("calibrate-s6", ("simulate", "--preset", "s6", *calib, *tiny),
                   _check_calibrations),
        Invocation("calibrate-fig4", ("simulate", "--preset", "fig4", *calib, *tiny),
                   _check_calibrations),
    ]
    timed = [
        Invocation("fig2", ("simulate", "--preset", "fig2", "--reps", str(NORMAL_REPS)),
                   _normal_sweep(0.2, ("pearson", "spearman"), NORMAL_REPS)),
        Invocation("s16", ("simulate", "--preset", "s16", "--reps", str(NORMAL_REPS)),
                   _normal_sweep(0.2, ("pearson", "kendall"), NORMAL_REPS)),
        Invocation("fig4", ("simulate", "--preset", "fig4", *calib,
                            "--reps", str(EXPONENTIAL_REPS)),
                   _copula_sweep(("pearson", "spearman"), 1)),
        Invocation("s6", ("simulate", "--preset", "s6", *calib, "--reps", str(CHI2_REPS)),
                   _copula_sweep(("pearson", "spearman"), 3)),
    ]
    return setup, timed


def _resample_eigen(inputs: Path):
    survey = str(inputs / SURVEY_FILE)
    reps = ("--reps", str(RESAMPLE_REPS))
    timed = [
        Invocation("table3-dbq", ("resample", "--preset", "table3-dbq", *reps), _check_dbq),
        Invocation("table3-asvab", ("resample", "--preset", "table3-asvab", *reps),
                   _check_asvab),
        Invocation("tableS3-dbq", ("eigen", "--preset", "tableS3-dbq",
                                   "--reps", str(EIGEN_REPS)), _check_eigen),
        Invocation("moments-csv", ("moments", "--input", survey), _check_moments),
        Invocation("resample-csv", ("resample", "--input", survey, *reps),
                   _check_survey_resample),
    ]
    return [], timed


def _influence_density(inputs: Path):
    timed = [
        Invocation("fig5", ("influence", "--preset", "fig5"), _check_influence_single),
        Invocation("fig5-double", ("influence", "--preset", "fig5", "--outlier-x", "3",
                                   "--outlier-y", "-3"), _check_influence_double),
        Invocation("fig1", ("density", "--preset", "fig1"), _check_density),
        Invocation("s2", ("density", "--preset", "s2"), _check_density),
        Invocation("density-grid", ("density", "--pearson", "0,0.2,0.4,0.8",
                                    "--n", "5,10,50,200"), _check_density),
    ]
    return [], timed


WORKLOADS = {
    "mc-sweep": _mc_sweep,
    "resample-eigen": _resample_eigen,
    "influence-density": _influence_density,
}
# invocations whose wall time at 1 and 2 threads gives simulate.thread_speedup;
# on workloads without them the whole timed phase is used
THREADED = {"fig2", "s16"}


# ---------------------------------------------------------------------------
# Counters read back from the artifacts
# ---------------------------------------------------------------------------

def artifact_counters(outs: list[Path]) -> dict:
    """Work and waste counters of the timed phase, read from its outputs."""
    reps = redraws = samples = sample_redraws = cells = missing = 0
    trace_error = 0.0
    artifact_bytes = 0
    for out in outs:
        artifact_bytes += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        if (out / "simulation_summary.csv").exists():
            per_cell = {}
            for row in _csv_rows(out / "simulation_summary.csv"):
                per_cell[(row["condition"], row["n"])] = int(row["redraw_count"])
            config = _json(out / "resolved_config.json")
            reps += config["params"]["reps"] * len(per_cell)
            redraws += sum(per_cell.values())
        for name in ("resample_summary.json", "eigen_summary.json"):
            if (out / name).exists():
                summary = _json(out / name)
                samples += summary["n_samples"]
                sample_redraws += summary["redraw_count"]
                trace_error = max(trace_error, summary.get("max_trace_error", 0.0))
        if (out / "influence_summary.json").exists():
            summary = _json(out / "influence_summary.json")
            cells += summary["grid_cells"]
            missing += summary["missing_cells"]
    return {
        "simulate.redraws": redraws,
        "simulate.useful_draw_frac": reps / (reps + redraws) if reps else 1.0,
        "resample.useful_draw_frac": (samples / (samples + sample_redraws)
                                      if samples else 1.0),
        "eigen.max_trace_error": trace_error,
        "influence.cells": cells,
        "influence.missing_cells": missing,
        "cli.artifact_bytes": artifact_bytes,
    }
