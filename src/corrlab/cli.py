"""Single command-line entry point for every study in the package.

Subcommands: ``simulate``, ``density``, ``moments``, ``influence``,
``resample``, ``eigen``, ``convert``.  Parameters resolve in layers:
schema defaults, then the replication-scale preset, then a named
figure/table preset, then a JSON config file, then explicit flags.  The
fully resolved configuration is echoed into the output directory and a
short hash of it heads every artifact, so outputs are traceable and
reruns with the same configuration and seed are byte-identical.

Exit codes: 0 success, 2 usage, 3 input data, 4 numeric failure,
5 infeasible condition or not enough memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import eigen as eigenmod
from . import exact, influence, resample, simulate
from .errors import CorrlabError, InfeasibleError, InputError, UsageError
from .estimators import KINDS, pearson_rows, spearman_rows
from .randgen import (CALIBRATION_TOL, CALIBRATION_VERSION, MarginalSpec,
                      PopulationSpec, RngStream, _latent_pair, calibrate_copula,
                      sample_bivariate_normal, sample_population)

__all__ = ["main", "build_parser", "SCHEMA", "PRESETS"]

ENV_OUT_DIR = "CORRLAB_OUT_DIR"
DEFAULT_OUT_DIR = "corrlab-out"
CALIBRATION_SEED = 916001  # populations are fixtures, independent of the run seed


def _ints(text):
    return tuple(int(part) for part in str(text).split(","))


def _floats(text):
    return tuple(float(part) for part in str(text).split(","))


def _strs(text):
    return tuple(part.strip() for part in str(text).split(","))


# key -> (converter, default, help); None defaults mean "optional" or
# "filled from the scale preset" (see _SCALE_DEFAULTS)
SCHEMA = {
    "simulate": {
        "marginal": (str, "normal", "marginal family: normal, exponential, uniform, likert, chi2"),
        "df": (_floats, None, "chi2 degrees of freedom; a comma list runs one condition per value"),
        "pearson": (float, 0.2, "target population Pearson coefficient"),
        "sizes": (_ints, None, "explicit comma list of sample sizes (overrides size-range)"),
        "size-range": (str, "5:1000:25", "log-spaced size sweep as lo:hi:count"),
        "reps": (int, None, "replications per cell (default from scale preset)"),
        "kinds": (_strs, ("pearson", "spearman"), "coefficients to estimate, comma list"),
        "calibration-n": (int, None, "calibration sample size (default from scale preset)"),
        "emit-sample": (int, 0, "also write a depiction sample of this many pairs"),
    },
    "density": {
        "pearson": (_floats, (0.2,), "population coefficient(s), comma list"),
        "n": (_ints, (50,), "sample size(s), comma list"),
        "points": (int, 4001, "grid points per curve"),
        "mc-reps": (int, 0, "if > 0, also write a Monte Carlo histogram of this many draws"),
    },
    "moments": {
        "input": (str, None, "CSV file with header to profile"),
        "population": (str, None, "shipped population: asvab-like or dbq-like"),
        "delimiter": (str, ",", "field delimiter of the input file"),
    },
    "influence": {
        "pearson": (float, 0.2, "population coefficient of the random base sample"),
        "n": (int, 200, "base sample size"),
        "axis-lo": (float, -5.0, "scan grid lower bound"),
        "axis-hi": (float, 5.0, "scan grid upper bound"),
        "axis-step": (float, 0.05, "scan grid resolution"),
        "outlier-x": (float, None, "x of a fixed first outlier (enables the two-point scan)"),
        "outlier-y": (float, None, "y of a fixed first outlier"),
    },
    "resample": {
        "input": (str, None, "CSV population file with header"),
        "population": (str, None, "shipped population: asvab-like or dbq-like (default dbq-like)"),
        "delimiter": (str, ",", "field delimiter of the input file"),
        "sample-size": (int, 200, "rows per resampled table"),
        "reps": (int, None, "number of resampled tables (default from scale preset)"),
        "groups": (str, None, "JSON file mapping scale names to column lists; sums before the study"),
    },
    "eigen": {
        "input": (str, None, "CSV population file with header"),
        "population": (str, None, "shipped population: asvab-like or dbq-like (default dbq-like)"),
        "delimiter": (str, ",", "field delimiter of the input file"),
        "sample-size": (int, 200, "rows per resampled table"),
        "reps": (int, None, "number of resampled tables (default from scale preset)"),
        "top": (int, 6, "how many leading eigenvalues to track"),
    },
    "convert": {
        "pearson": (float, None, "population Pearson value to convert"),
        "kendall": (float, None, "population Kendall value to convert"),
    },
}

_SCALE_DEFAULTS = {
    "desk": {
        ("simulate", "reps"): 20000,
        ("simulate", "calibration-n"): 10 ** 6,
        ("resample", "reps"): 10000,
        ("eigen", "reps"): 5000,
    },
    "paper": {
        ("simulate", "reps"): 100000,
        ("simulate", "calibration-n"): 10 ** 7,
        ("resample", "reps"): 50000,
        ("eigen", "reps"): 50000,
    },
}

PRESETS = {
    "fig1": ("density", {"pearson": "0.2,0.4,0.8", "n": "5,50"}),
    "fig2": ("simulate", {"marginal": "normal", "pearson": "0.2"}),
    "fig4": ("simulate", {"marginal": "exponential", "pearson": "0.4"}),
    "fig5": ("influence", {}),
    "s2": ("density", {"pearson": "0.2", "n": "5", "mc-reps": "1000000"}),
    "s3": ("simulate", {"marginal": "normal", "pearson": "0"}),
    "s4": ("simulate", {"marginal": "normal", "pearson": "0.4"}),
    "s5": ("simulate", {"marginal": "normal", "pearson": "0.8"}),
    "s6": ("simulate", {"marginal": "chi2", "df": "1,2,32", "pearson": "0.4"}),
    "s10": ("simulate", {"marginal": "exponential", "pearson": "0.2",
                         "sizes": "10", "reps": "2", "emit-sample": "1000"}),
    "s11": ("simulate", {"marginal": "exponential", "pearson": "0.2"}),
    "s12": ("simulate", {"marginal": "exponential", "pearson": "0.8",
                         "sizes": "10", "reps": "2", "emit-sample": "1000"}),
    "s13": ("simulate", {"marginal": "exponential", "pearson": "0.8"}),
    "s16": ("simulate", {"marginal": "normal", "pearson": "0.2",
                         "kinds": "pearson,kendall"}),
    "table3-asvab": ("resample", {"population": "asvab-like", "sample-size": "200"}),
    "table3-dbq": ("resample", {"population": "dbq-like", "sample-size": "200"}),
    "tableS3-dbq": ("eigen", {"population": "dbq-like", "sample-size": "200"}),
}


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict
    seed: int
    out_dir: str
    scale: str
    threads: int

    def hash(self) -> str:
        # excludes out_dir and threads: neither may change any result
        payload = {"subcommand": self.subcommand, "params": self.params,
                   "seed": self.seed, "scale": self.scale}
        canon = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def as_echo(self) -> dict:
        return {"subcommand": self.subcommand, "params": self.params,
                "seed": self.seed, "scale": self.scale, "threads": self.threads,
                "out_dir": self.out_dir, "config_hash": self.hash()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlab",
        description="Correlation-estimator studies with deterministic outputs.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SCHEMA.items():
        p = sub.add_parser(name, help=f"run the {name} study")
        for key, (_, default, help_text) in keys.items():
            shown = "" if default is None else f" [default: {default}]"
            p.add_argument(f"--{key}", default=None, metavar="V",
                           help=help_text + shown)
        p.add_argument("--preset", default=None, metavar="NAME",
                       help="named parameter preset; -desk/-paper suffix also sets the scale "
                            f"(available: {', '.join(sorted(PRESETS))})")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON config file; flags override file values")
        p.add_argument("--seed", default=None, metavar="INT",
                       help="non-negative master seed [default: 0]")
        p.add_argument("--out-dir", default=None, metavar="DIR",
                       help=f"output directory [default: ${ENV_OUT_DIR} or ./{DEFAULT_OUT_DIR}]")
        p.add_argument("--scale", default=None, choices=["desk", "paper"],
                       help="replication scale preset [default: desk]")
        p.add_argument("--threads", default=None, metavar="INT",
                       help="worker threads; never changes results [default: cpu count]")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _convert(subcommand: str, key: str, raw, where: str):
    conv = SCHEMA[subcommand][key][0]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {key!r} in {where}: {raw!r}") from exc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, scale preset, named preset, config file, and flags."""
    subcommand = args.subcommand
    keys = SCHEMA[subcommand]
    reserved = {"seed", "out_dir", "scale", "threads", "config", "preset",
                "subcommand"}

    preset_params: dict = {}
    preset_scale = None
    if args.preset:
        name = args.preset
        for suffix in ("-desk", "-paper"):
            if name.endswith(suffix):
                preset_scale = suffix[1:]
                name = name[: -len(suffix)]
        if name not in PRESETS:
            raise UsageError(f"unknown preset {args.preset!r}")
        preset_sub, preset_params = PRESETS[name]
        if preset_sub != subcommand:
            raise UsageError(
                f"preset {name!r} belongs to the {preset_sub!r} subcommand")

    file_values: dict = {}
    file_meta: dict = {}
    if args.config:
        raw = _load_config_file(args.config)
        for key, value in raw.items():
            norm = key.replace("_", "-")
            if key in reserved:
                file_meta[key] = value
            elif norm in keys:
                file_values[norm] = value
            else:
                raise UsageError(f"unknown key {key!r} in config file {args.config}")
        if "subcommand" in file_meta and file_meta["subcommand"] != subcommand:
            raise UsageError(
                f"config file is for subcommand {file_meta['subcommand']!r}, "
                f"not {subcommand!r}")

    def meta(name, flag_value, default):
        if flag_value is not None:
            return flag_value
        if name in file_meta:
            return file_meta[name]
        return default

    scale = meta("scale", args.scale, preset_scale or "desk")
    if scale not in _SCALE_DEFAULTS:
        raise UsageError(f"scale must be desk or paper, got {scale!r}")
    try:
        seed = int(meta("seed", args.seed, 0))
        threads = int(meta("threads", args.threads, os.cpu_count() or 1))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"seed and threads must be integers: {exc}") from exc
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    out_dir = meta("out_dir", args.out_dir,
                   os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))

    params = {}
    for key, (_, default, _help) in keys.items():
        flag_value = getattr(args, key.replace("-", "_"))
        if flag_value is not None:
            params[key] = _convert(subcommand, key, flag_value, "flags")
        elif key in file_values:
            params[key] = _convert(subcommand, key, file_values[key], "config file")
        elif key in preset_params:
            params[key] = _convert(subcommand, key, preset_params[key], "preset")
        elif (subcommand, key) in _SCALE_DEFAULTS[scale]:
            params[key] = _SCALE_DEFAULTS[scale][(subcommand, key)]
        else:
            params[key] = default
    return RunConfig(subcommand=subcommand, params=params, seed=seed,
                     out_dir=str(out_dir), scale=scale, threads=max(1, threads))


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(columns, rows, cfg_hash: str) -> str:
    lines = [f"# config {cfg_hash}", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload, cfg_hash: str) -> str:
    body = dict(payload)
    body["config_hash"] = cfg_hash
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _commit_artifacts(out_dir: str, artifacts: dict[str, str]):
    """Write all artifacts, each atomically, after everything is rendered.

    An unwritable location is a usage error naming the path.
    """
    staged = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in artifacts.items():
            final = os.path.join(out_dir, name)
            tmp = final + f".tmp{os.getpid()}"
            staged.append((tmp, final))
            with open(tmp, "w") as handle:
                handle.write(text)
        for tmp, final in staged:
            os.replace(tmp, final)
    except OSError as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise UsageError(f"cannot write output to {exc.filename or out_dir}: "
                         f"{exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Populations shared by simulate / resample / eigen dispatch
# ---------------------------------------------------------------------------

_MARGINALS = {
    "normal": MarginalSpec.standard_normal,
    "exponential": MarginalSpec.exponential,
    "uniform": MarginalSpec.uniform,
    "likert": MarginalSpec.likert,
}


def _calibration_cache_path(out_dir: str, marginal: MarginalSpec, target: float,
                            calibration_n: int) -> str:
    tag = marginal.describe().replace("(", "_").replace(")", "").replace("=", "")
    name = f"calibration_{tag}_rp{target:g}_n{calibration_n}.json"
    return os.path.join(out_dir, "calibrations", name)


def _load_calibration(path: str, marginal: MarginalSpec, target: float,
                      calibration_n: int) -> PopulationSpec | None:
    """The cached population at ``path``, or None on a cache miss.

    A missing, unreadable or malformed file is a miss, and so is one
    written for other marginals, target or size, with another seed or
    tolerance, or by another calibration algorithm version.
    """
    try:
        with open(path) as handle:
            cached = json.load(handle)
        spec = PopulationSpec.from_dict(cached)
    except (OSError, ValueError, KeyError, TypeError, CorrlabError):
        return None
    key = {"calibration_seed": CALIBRATION_SEED, "tolerance": CALIBRATION_TOL,
           "algorithm": CALIBRATION_VERSION}
    if (all(cached.get(name) == value for name, value in key.items())
            and spec.calibration_n == calibration_n
            and spec.target_pearson == target
            and spec.marginal_x == marginal
            and spec.marginal_y == marginal):
        return spec
    return None


def _population_for(marginal_name: str, df: float | None, target: float,
                    calibration_n: int, out_dir: str) -> PopulationSpec:
    if marginal_name == "normal":
        return PopulationSpec.bivariate_normal(target)
    if marginal_name == "chi2":
        if df is None:
            raise UsageError("chi2 marginal needs --df")
        marginal = MarginalSpec.chi_square(df)
    elif marginal_name in _MARGINALS:
        marginal = _MARGINALS[marginal_name]()
    else:
        raise UsageError(f"unknown marginal family {marginal_name!r}")

    cache = _calibration_cache_path(out_dir, marginal, target, calibration_n)
    spec = _load_calibration(cache, marginal, target, calibration_n)
    if spec is not None:
        return spec
    spec = calibrate_copula(marginal, marginal, target,
                            calibration_n=calibration_n,
                            stream=RngStream(CALIBRATION_SEED), tol=CALIBRATION_TOL)
    record = dict(spec.to_dict(), calibration_seed=CALIBRATION_SEED,
                  tolerance=CALIBRATION_TOL, algorithm=CALIBRATION_VERSION)
    _commit_artifacts(os.path.dirname(cache), {
        os.path.basename(cache): json.dumps(record, indent=2, sort_keys=True)})
    return spec


def _dataset_for(params: dict, default_population: str = "dbq-like"):
    if params.get("input") and params.get("population"):
        raise UsageError("give either --input or --population, not both")
    if params.get("input"):
        return resample.ingest_csv(params["input"], delimiter=params["delimiter"])
    name = params.get("population") or default_population
    if name == "asvab-like":
        return resample.asvab_like_population()
    if name == "dbq-like":
        return resample.dbq_like_population()
    raise UsageError(f"unknown population {name!r} (use asvab-like or dbq-like)")


# ---------------------------------------------------------------------------
# Subcommand runners: each returns {filename: text} plus stdout lines
# ---------------------------------------------------------------------------

def _run_convert(cfg: RunConfig):
    params = cfg.params
    given = [k for k in ("pearson", "kendall") if params[k] is not None]
    if len(given) != 1:
        raise UsageError("convert needs exactly one of --pearson or --kendall")
    if given[0] == "pearson":
        rho = params["pearson"]
        values = {"pearson": rho,
                  "spearman": exact.spearman_from_pearson(rho),
                  "kendall": exact.kendall_from_pearson(rho)}
    else:
        tau = params["kendall"]
        values = {"kendall": tau,
                  "pearson": exact.pearson_from_kendall(tau),
                  "spearman": exact.spearman_from_kendall(tau)}
    lines = [f"{kind}={values[kind]:.6f}" for kind in ("pearson", "spearman", "kendall")]
    return {"conversions.json": _json_text(values, cfg.hash())}, lines


def _run_density(cfg: RunConfig):
    params = cfg.params
    artifacts = {}
    lines = []
    summary = []
    for rho in params["pearson"]:
        for n in params["n"]:
            curve = exact.density_curve(rho, n, points=params["points"])
            area = float(np.trapezoid(curve.density, curve.grid))
            stem = f"rp{rho:g}_n{n}"
            artifacts[f"density_{stem}.csv"] = _csv_text(
                ("r", "density"), zip(curve.grid, curve.density), cfg.hash())
            entry = {"pearson": rho, "n": n, "area": area}
            if params["mc-reps"] > 0:
                histogram, extra = _density_histogram(rho, n, params["mc-reps"],
                                                      cfg.seed)
                artifacts[f"histogram_{stem}.csv"] = _csv_text(
                    ("bin_center", "fraction_pearson", "fraction_spearman",
                     "fraction_exact"), histogram, cfg.hash())
                entry.update(extra)
            summary.append(entry)
            lines.append(f"density {stem}: area={area:.6f}")
    artifacts["density_summary.json"] = _json_text({"curves": summary}, cfg.hash())
    return artifacts, lines


def _density_histogram(rho: float, n: int, reps: int, seed: int):
    """Simulated coefficient distribution on 0.01-wide bins plus the exact curve."""
    x, y = _latent_pair(rho, (reps, n), RngStream(seed).child(2).generator())
    rp = pearson_rows(x, y)
    rs = spearman_rows(x, y)
    edges = np.linspace(-1.005, 1.005, 202)  # bins centered on -1.00 .. 1.00
    centers = 0.5 * (edges[:-1] + edges[1:])
    frac_p = np.histogram(rp, bins=edges)[0] / reps
    frac_s = np.histogram(rs, bins=edges)[0] / reps
    exact_frac = _exact_bin_fractions(rho, n, edges)
    rows = list(zip(centers, frac_p, frac_s, exact_frac))
    return rows, {"mc_reps": reps}


def _exact_bin_fractions(rho: float, n: int, edges: np.ndarray) -> np.ndarray:
    fine = np.linspace(-1 + 1e-9, 1 - 1e-9, 8001)
    dens = exact.pearson_density(fine, rho, n)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    cum /= cum[-1]
    cdf = np.interp(np.clip(edges, fine[0], fine[-1]), fine, cum)
    return np.diff(cdf)


def _run_moments(cfg: RunConfig):
    dataset = _dataset_for(cfg.params, default_population="dbq-like")
    profile = resample.moment_profile(dataset)
    rows = [(name, profile.mean[i], profile.sd[i], profile.skewness[i],
             profile.kurtosis[i])
            for i, name in enumerate(profile.column_names)]
    artifacts = {"moments.csv": _csv_text(
        ("column", "mean", "sd", "skewness", "kurtosis"), rows, cfg.hash())}
    lines = [f"profiled {dataset.n_cols} columns over {dataset.n_rows} rows "
             f"({dataset.dropped_rows} rows dropped)"]
    return artifacts, lines


def _run_simulate(cfg: RunConfig):
    params = cfg.params
    if params["sizes"] is not None:
        sizes = params["sizes"]
    else:
        try:
            lo, hi, k = (int(p) for p in params["size-range"].split(":"))
        except ValueError as exc:
            raise UsageError(f"size-range must be lo:hi:count, "
                             f"got {params['size-range']!r}") from exc
        sizes = simulate.logspace_sizes(lo, hi, k)

    dfs = params["df"] if params["df"] is not None else (None,)
    if params["marginal"] != "chi2" and params["df"] is not None:
        raise UsageError("--df only applies to the chi2 marginal")
    unknown = [kind for kind in params["kinds"] if kind not in KINDS]
    if unknown:
        raise UsageError(f"unknown coefficient kind {unknown[0]!r} "
                         f"(use {', '.join(KINDS)})")

    artifacts = {}
    lines = []
    all_rows = []
    for cond_index, df in enumerate(dfs):
        population = _population_for(params["marginal"], df, params["pearson"],
                                     params["calibration-n"], cfg.out_dir)
        plan = simulate.SimulationPlan(population=population, sample_sizes=sizes,
                                       replications=params["reps"],
                                       coefficients=params["kinds"],
                                       master_seed=cfg.seed)
        rows = simulate.run_plan(plan, threads=cfg.threads,
                                 stream=RngStream(cfg.seed).child(cond_index))
        all_rows.extend(rows)
        lines.append(f"condition {population.label}: {len(rows)} summary rows")
        if params["emit-sample"] > 0 and cond_index == 0:
            sample = sample_population(population, params["emit-sample"],
                                       RngStream(cfg.seed).child(cond_index, 2 ** 20))
            artifacts["depiction_sample.csv"] = _csv_text(
                ("x", "y"), zip(sample.x, sample.y), cfg.hash())
    artifacts["simulation_summary.csv"] = _csv_text(
        simulate.SUMMARY_COLUMNS, [r.row() for r in all_rows], cfg.hash())
    return artifacts, lines


def _run_influence(cfg: RunConfig):
    params = cfg.params
    axis = influence.AxisSpec(params["axis-lo"], params["axis-hi"],
                              params["axis-step"])
    base = sample_bivariate_normal(params["pearson"], params["n"],
                                   RngStream(cfg.seed).child(1))
    has_x = params["outlier-x"] is not None
    has_y = params["outlier-y"] is not None
    if has_x != has_y:
        raise UsageError("give both --outlier-x and --outlier-y or neither")
    if has_x:
        grid = influence.scan_double(base, (params["outlier-x"], params["outlier-y"]),
                                     axis)
    else:
        grid = influence.scan_single(base, axis)

    k = grid.axis.size
    gx = np.repeat(grid.axis, k)
    gy = np.tile(grid.axis, k)
    rows = zip(gx, gy, grid.delta_pearson.ravel(), grid.delta_spearman.ravel())
    summary = {
        "base_pearson": grid.base_pearson,
        "base_spearman": grid.base_spearman,
        "first_outlier": list(grid.first_outlier) if grid.first_outlier else None,
        "grid_cells": int(grid.delta_pearson.size),
        "missing_cells": int(np.isnan(grid.delta_pearson).sum()),
        "delta_pearson_min": float(np.nanmin(grid.delta_pearson)),
        "delta_pearson_max": float(np.nanmax(grid.delta_pearson)),
        "delta_spearman_min": float(np.nanmin(grid.delta_spearman)),
        "delta_spearman_max": float(np.nanmax(grid.delta_spearman)),
        "exceedance_pearson_0.05": influence.exceedance_fraction(grid, 0.05, "pearson"),
        "exceedance_spearman_0.05": influence.exceedance_fraction(grid, 0.05, "spearman"),
    }
    artifacts = {
        "influence_grid.csv": _csv_text(
            ("x", "y", "delta_pearson", "delta_spearman"), rows, cfg.hash()),
        "influence_summary.json": _json_text(summary, cfg.hash()),
    }
    lines = [f"influence grid {k}x{k}: base pearson {grid.base_pearson:+.4f}, "
             f"base spearman {grid.base_spearman:+.4f}"]
    return artifacts, lines


def _load_groups(path: str) -> dict:
    try:
        with open(path) as handle:
            groups = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read groups file {path}: {exc}") from exc
    if not isinstance(groups, dict):
        raise InputError("groups file must map scale names to column lists")
    return groups


def _run_resample(cfg: RunConfig):
    params = cfg.params
    dataset = _dataset_for(params)
    if params["groups"]:
        dataset = resample.scale_sums(dataset, _load_groups(params["groups"]))
    result = resample.run_study(dataset, params["sample-size"], params["reps"],
                                master_seed=cfg.seed)
    table_rows = [(stat, result.aggregates[stat]) for stat in resample.TABLE_STATISTICS]
    summary = {"sample_size": result.sample_size, "n_samples": result.n_samples,
               "redraw_count": result.redraw_count, "n_pairs": len(result.pairs)}
    artifacts = {
        "resample_pairs.csv": _csv_text(
            [f.name for f in fields(resample.PairSummary)],
            map(astuple, result.pairs), cfg.hash()),
        "resample_table.csv": _csv_text(("statistic", "value"), table_rows, cfg.hash()),
        "resample_summary.json": _json_text(summary, cfg.hash()),
    }
    lines = [f"{result.n_samples} samples of {result.sample_size} rows, "
             f"{len(result.pairs)} pairs, {result.redraw_count} redraws"]
    return artifacts, lines


def _run_eigen(cfg: RunConfig):
    params = cfg.params
    dataset = _dataset_for(params)
    summary = eigenmod.eigen_study(dataset, params["sample-size"], params["reps"],
                                   k=params["top"], master_seed=cfg.seed)
    columns = ("mean_pearson", "sd_pearson", "mean_spearman", "sd_spearman",
               "population_pearson", "population_spearman")
    rows = zip(range(1, summary.k + 1), *(getattr(summary, c) for c in columns))
    meta = {"sample_size": summary.sample_size, "n_samples": summary.n_samples,
            "redraw_count": summary.redraw_count,
            "max_trace_error": summary.max_trace_error}
    artifacts = {
        "eigen_table.csv": _csv_text(("eigenvalue",) + columns, rows, cfg.hash()),
        "eigen_summary.json": _json_text(meta, cfg.hash()),
    }
    lines = [f"top {summary.k} eigenvalues over {summary.n_samples} samples "
             f"(max trace error {summary.max_trace_error:.2e})"]
    return artifacts, lines


_RUNNERS = {
    "convert": _run_convert,
    "density": _run_density,
    "moments": _run_moments,
    "simulate": _run_simulate,
    "influence": _run_influence,
    "resample": _run_resample,
    "eigen": _run_eigen,
}


def dispatch(cfg: RunConfig) -> int:
    artifacts, lines = _RUNNERS[cfg.subcommand](cfg)
    artifacts["resolved_config.json"] = _json_text(cfg.as_echo(), cfg.hash())
    _commit_artifacts(cfg.out_dir, artifacts)
    for line in lines:
        print(line)
    print(f"wrote {len(artifacts)} files to {cfg.out_dir} (config {cfg.hash()})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return dispatch(cfg)
    except CorrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: not enough memory: {exc or 'allocation refused'}", file=sys.stderr)
        return InfeasibleError.exit_code


if __name__ == "__main__":
    sys.exit(main())
