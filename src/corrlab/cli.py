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
from dataclasses import dataclass

import numpy as np

from . import eigen as eigenmod
from . import exact, influence, resample, simulate
from .errors import CorrlabError, InfeasibleError, InputError, UsageError
from .estimators import KINDS, _pearson_rows, spearman_rows
from .randgen import (CALIBRATION_TOL, CALIBRATION_VERSION, CHUNK_REPS, MIN_CALIBRATION_N,
                      MarginalSpec, PopulationSpec, RngStream, calibrate_copula,
                      sample_bivariate_normal, sample_population)

__all__ = ["main", "build_parser", "SCHEMA", "PRESETS"]

ENV_OUT_DIR = "CORRLAB_OUT_DIR"
DEFAULT_OUT_DIR = "corrlab-out"
CALIBRATION_SEED = 916001  # populations are fixtures, independent of the run seed
_RENDER_ROWS = 4096  # rows rendered and written at a time; a whole table can be 273 MB of text


def _list_of(conv):
    """Converter of a comma list whose entries must all differ."""
    def parse(text):
        values = tuple(conv(part) for part in text.split(","))
        if len(set(values)) != len(values):
            raise ValueError("list repeats an entry")
        return values
    return parse


_ints, _floats, _strs = _list_of(int), _list_of(float), _list_of(str.strip)


def _distinct_labels(key: str, values, labels: list) -> None:
    """Refuse list values that share a label, hence a file or condition name."""
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise UsageError(f"conflicting values for {key!r}: {values[labels.index(label)]!r} "
                             f"and {values[i]!r} are both labelled {label!r}")


def _char(text):
    if len(text) != 1:
        raise ValueError("must be exactly one character")
    return text


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _threads(text):
    threads = int(text)
    if threads < 1:
        raise UsageError(f"threads must be at least 1, got {threads}")
    return threads


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the system
    has one (``taskset`` narrows it below the machine's count), else the count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scale(text):
    if text not in _SCALE_DEFAULTS:
        raise UsageError(f"scale must be desk or paper, got {text!r}")
    return text


# key -> (converter, default, help); None defaults mean "optional" or
# "filled from the scale preset" (see _SCALE_DEFAULTS).  Every value given
# by a flag, a config file or a preset reaches its converter as text.
_TABLE_INPUT = {  # the table studies' population
    "input": (str, None, "CSV population file with header"),
    "population": (str, None, "shipped population: asvab-like or dbq-like (default dbq-like)"),
    "delimiter": (_char, ",", "field delimiter of the input file"),
}
_TABLE_DRAWS = {
    "sample-size": (int, 200, "rows per resampled table"),
    "reps": (int, None, "number of resampled tables (default from scale preset)"),
}
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
    "moments": _TABLE_INPUT,
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
        **_TABLE_INPUT, **_TABLE_DRAWS,
        "groups": (str, None, "JSON file mapping scale names to column lists; sums before the study"),
    },
    "eigen": {
        **_TABLE_INPUT, **_TABLE_DRAWS,
        "top": (int, 6, "how many leading eigenvalues to track"),
    },
    "convert": {
        "pearson": (float, None, "population Pearson value to convert"),
        "kendall": (float, None, "population Kendall value to convert"),
    },
}

# keys common to every subcommand, resolved by the same rule
COMMON = {
    "seed": (_seed, 0, "non-negative master seed"),
    "out-dir": (str, None, f"output directory [default: ${ENV_OUT_DIR} or ./{DEFAULT_OUT_DIR}]"),
    "scale": (_scale, "desk", "replication scale preset: desk or paper"),
    "threads": (_threads, None,
                "worker threads; never changes results [default: CPUs this process may use]"),
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
        for key, (_, default, help_text) in {**keys, **COMMON}.items():
            shown = "" if default is None else f" [default: {default}]"
            p.add_argument(f"--{key}", default=None, metavar="V",
                           help=help_text + shown)
        p.add_argument("--preset", default=None, metavar="NAME",
                       help="named parameter preset; -desk/-paper suffix also sets the scale "
                            f"(available: {', '.join(sorted(PRESETS))})")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON config file; flags override file values")
    return parser


def _config_values(path: str, subcommand: str, keys: dict) -> dict:
    """The values of a JSON config file by key, underscores read as dashes."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    found = data.pop("subcommand", subcommand)
    if found != subcommand:
        raise UsageError(f"config file is for subcommand {found!r}, not {subcommand!r}")
    values = {}
    for key, value in data.items():
        norm = key.replace("_", "-")
        if norm not in keys and norm not in COMMON:
            raise UsageError(f"unknown key {key!r} in config file {path}")
        if value is None:
            raise UsageError(f"key {key!r} in config file {path} is null")
        values[norm] = value
    return values


def _preset_values(name: str, subcommand: str) -> dict:
    """A named preset's values; a -desk/-paper suffix adds the scale."""
    base, _, scale = name.rpartition("-")
    if scale not in _SCALE_DEFAULTS:
        base, scale = name, None
    if base not in PRESETS:
        raise UsageError(f"unknown preset {name!r}")
    preset_sub, values = PRESETS[base]
    if preset_sub != subcommand:
        raise UsageError(f"preset {base!r} belongs to the {preset_sub!r} subcommand")
    return {**values, "scale": scale}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Resolve every key by one rule: flags > config file > preset > default.

    Layer values are converted from their text, defaults used as they are.
    """
    subcommand = args.subcommand
    keys = SCHEMA[subcommand]
    schema = {**keys, **COMMON}
    preset = _preset_values(args.preset, subcommand) if args.preset else {}
    file_values = _config_values(args.config, subcommand, keys) if args.config else {}
    layers = (("flags", {key: getattr(args, key.replace("-", "_")) for key in schema}),
              ("config file", file_values), ("preset", preset))

    def resolve(key, default):
        for where, values in layers:
            value = values.get(key)
            if value is not None:
                try:
                    return schema[key][0](str(value))
                except (TypeError, ValueError) as exc:
                    raise UsageError(f"bad value for {key!r} in {where}: {value!r}") from exc
        return default

    scale = resolve("scale", COMMON["scale"][1])
    seed = resolve("seed", COMMON["seed"][1])
    threads = resolve("threads", _usable_cpus())
    out_dir = resolve("out-dir", os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))
    params = {key: resolve(key, _SCALE_DEFAULTS[scale].get((subcommand, key), default))
              for key, (_, default, _help) in keys.items()}
    return RunConfig(subcommand=subcommand, params=params, seed=seed,
                     out_dir=out_dir, scale=scale, threads=threads)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _csv_text(table: dict, cfg_hash: str):
    """The texts of one CSV artifact in write order: the config line and the
    header of ``table``'s keys, then the rows of its columns, ``_RENDER_ROWS``
    at a time.

    A column is a float array, written as the shortest round-trip repr of
    each value; a function from an array of row indices to those rows'
    float values; or any other sequence, written with ``str`` per value
    (text, ints and Python floats, whose str is their repr).  At least one
    column is not a function.
    """
    yield f"# config {cfg_hash}\n{','.join(table)}\n"
    size = len(next(c for c in table.values() if not callable(c)))
    for lo in range(0, size, _RENDER_ROWS):
        hi = min(lo + _RENDER_ROWS, size)
        texts = [_reprs(np.asarray(c(np.arange(lo, hi)), dtype=float)) if callable(c) else
                 _reprs(c[lo:hi]) if isinstance(c, np.ndarray) else map(str, c[lo:hi])
                 for c in table.values()]
        yield "\n".join(map(",".join, zip(*texts))) + "\n"


def _reprs(values: np.ndarray) -> list:
    """repr of each value, computed once per distinct bit pattern.

    Unique by bits, not by value, so -0.0 and 0.0 (and NaN payloads) stay
    apart.
    """
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[where].tolist()


def _json_text(payload, cfg_hash: str) -> str:
    body = dict(payload)
    body["config_hash"] = cfg_hash
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _commit_artifacts(out_dir: str, artifacts: dict):
    """Stream each artifact's texts into a staged file, then rename them all.

    ``artifacts`` maps a file name to the texts to write in order, which
    may be rendered lazily while they are written.  Only once every file
    is staged does each replace its final name, so any exception while
    rendering or writing leaves no staged file and no final file.  An
    unwritable location is a usage error naming the path.
    """
    staged = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, texts in artifacts.items():
            final = os.path.join(out_dir, name)
            tmp = final + f".tmp{os.getpid()}"
            staged.append((tmp, final))
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.writelines(texts)
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write output to {exc.filename or out_dir}: "
                             f"{exc.strerror or exc}") from exc
        raise


# ---------------------------------------------------------------------------
# Populations shared by simulate / resample / eigen dispatch
# ---------------------------------------------------------------------------

_MARGINALS = {
    "normal": MarginalSpec.standard_normal,
    "exponential": MarginalSpec.exponential,
    "uniform": MarginalSpec.uniform,
    "likert": MarginalSpec.likert,
}


def _marginal_for(name: str, df: float | None) -> MarginalSpec:
    if name == "chi2":
        if df is None:
            raise UsageError("chi2 marginal needs --df")
        return MarginalSpec.chi_square(df)
    if name not in _MARGINALS:
        raise UsageError(f"unknown marginal family {name!r}")
    return _MARGINALS[name]()


_CALIBRATED = ("latent_rho", "pop_pearson", "pop_spearman")  # cached beside the key


def _population_for(marginal: MarginalSpec, target: float, calibration_n: int,
                    out_dir: str) -> PopulationSpec:
    """The population of one condition; a non-normal one is calibrated once
    and cached in ``out_dir``, keyed by everything the calibration reads.

    A cache file is a hit only when it matches every entry of the key; a
    missing, unreadable or malformed file is a miss.
    """
    if marginal.is_standard_normal:
        return PopulationSpec.bivariate_normal(target)
    key = {"marginal": marginal.to_dict(), "target_pearson": target,
           "calibration_n": calibration_n, "calibration_seed": CALIBRATION_SEED,
           "tolerance": CALIBRATION_TOL, "algorithm": CALIBRATION_VERSION}
    tag = marginal.describe().replace("(", "_").replace(")", "").replace("=", "")
    name = f"calibration_{tag}_rp{target:g}_n{calibration_n}.json"
    cache_dir = os.path.join(out_dir, "calibrations")
    try:
        with open(os.path.join(cache_dir, name)) as handle:
            cached = json.load(handle)
        if not any(cached[entry] != value for entry, value in key.items()):
            return PopulationSpec(marginal, target, *(float(cached[v]) for v in _CALIBRATED))
    except (OSError, ValueError, KeyError, TypeError, CorrlabError):
        pass
    spec = calibrate_copula(marginal, target, calibration_n, RngStream(CALIBRATION_SEED))
    record = dict(key, **{entry: getattr(spec, entry) for entry in _CALIBRATED})
    _commit_artifacts(cache_dir, {name: [json.dumps(record, indent=2, sort_keys=True)]})
    return spec


def _dataset_for(params: dict):
    if params.get("input") and params.get("population"):
        raise UsageError("give either --input or --population, not both")
    if params.get("input"):
        return resample.ingest_csv(params["input"], delimiter=params["delimiter"])
    name = params.get("population") or "dbq-like"
    if name == "asvab-like":
        return resample.asvab_like_population()
    if name == "dbq-like":
        return resample.dbq_like_population()
    raise UsageError(f"unknown population {name!r} (use asvab-like or dbq-like)")


# ---------------------------------------------------------------------------
# Subcommand runners: each returns its artifacts plus stdout lines; a .csv
# artifact is a dict of columns whose keys _csv_text writes as the header, a
# .json artifact is its payload
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
    return {"conversions.json": values}, lines


def _run_density(cfg: RunConfig):
    params = cfg.params
    labels = [f"rp{rho:g}" for rho in params["pearson"]]
    _distinct_labels("pearson", params["pearson"], labels)
    if params["mc-reps"] < 0:
        raise InputError(f"--mc-reps must be at least 0, got {params['mc-reps']}")
    artifacts = {}
    lines = []
    summary = []
    grid_texts = None  # every curve shares one r grid: render it once
    for rho, label in zip(params["pearson"], labels):
        for n in params["n"]:
            curve = exact.density_curve(rho, n, points=params["points"])
            area = float(np.trapezoid(curve.density, curve.grid))
            stem = f"{label}_n{n}"
            grid_texts = grid_texts or _reprs(curve.grid)
            artifacts[f"density_{stem}.csv"] = {"r": grid_texts, "density": curve.density}
            entry = {"pearson": rho, "n": n, "area": area}
            if params["mc-reps"] > 0:
                artifacts[f"histogram_{stem}.csv"] = _density_histogram(
                    rho, n, params["mc-reps"], cfg.seed)
                entry["mc_reps"] = params["mc-reps"]
            summary.append(entry)
            lines.append(f"density {stem}: area={area:.6f}")
    artifacts["density_summary.json"] = {"curves": summary}
    return artifacts, lines


def _density_histogram(rho: float, n: int, reps: int, seed: int):
    """Simulated coefficient distribution on 0.01-wide bins, counted chunk by
    chunk from a simulation cell's draws, plus the exact curve.  The blocks of
    a chunk fill one buffer per kind, which is binned once the chunk is whole;
    counts are integers, so the binning order moves no value."""
    edges = np.linspace(-1.005, 1.005, 202)  # bins centered on -1.00 .. 1.00
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.zeros((2, edges.size - 1), dtype=np.int64)
    chunk = np.empty((2, CHUNK_REPS))
    done = 0
    for x, y, _ in simulate.replication_chunks(PopulationSpec.bivariate_normal(rho), n,
                                               reps, RngStream(seed).child(2)):
        lo = done % CHUNK_REPS  # a block never spans two chunks
        hi, done = lo + len(x), done + len(x)
        chunk[0, lo:hi] = _pearson_rows(x, y)  # rows vary
        chunk[1, lo:hi] = spearman_rows(x, y)
        if hi == CHUNK_REPS or done == reps:
            for kind_counts, values in zip(counts, chunk[:, :hi]):
                kind_counts += np.histogram(values, bins=edges)[0]
    frac_p, frac_s = counts / reps
    return {"bin_center": centers, "fraction_pearson": frac_p, "fraction_spearman": frac_s,
            "fraction_exact": _exact_bin_fractions(rho, n, edges)}


def _exact_bin_fractions(rho: float, n: int, edges: np.ndarray) -> np.ndarray:
    fine = np.linspace(-1 + 1e-9, 1 - 1e-9, 8001)
    dens = exact.pearson_density(fine, rho, n)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    cum /= cum[-1]
    cdf = np.interp(np.clip(edges, fine[0], fine[-1]), fine, cum)
    return np.diff(cdf)


def _run_moments(cfg: RunConfig):
    dataset = _dataset_for(cfg.params)
    lines = [f"profiled {dataset.n_cols} columns over {dataset.n_rows} rows "
             f"({dataset.dropped_rows} rows dropped)"]
    return {"moments.csv": resample.moment_profile(dataset)}, lines


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

    # every condition and count is validated before the first calibration writes its
    # cache, and the calibration size for every marginal, though the normal needs none
    marginals = [_marginal_for(params["marginal"], df) for df in dfs]
    _distinct_labels("df", dfs, [m.describe() for m in marginals])
    if params["calibration-n"] < MIN_CALIBRATION_N:
        raise InputError(f"calibration sample must have at least {MIN_CALIBRATION_N} pairs")
    if params["emit-sample"] < 0 or params["emit-sample"] == 1:
        raise InputError(f"--emit-sample must be 0 or at least 2, got {params['emit-sample']}")
    plan = simulate.SimulationPlan(sample_sizes=sizes, replications=params["reps"],
                                   coefficients=params["kinds"])

    artifacts = {}
    lines = []
    summary = {name: [] for name in simulate.SUMMARY_COLUMNS}
    for cond_index, marginal in enumerate(marginals):
        population = _population_for(marginal, params["pearson"],
                                     params["calibration-n"], cfg.out_dir)
        table = simulate.run_plan(plan, population, threads=cfg.threads,
                                  stream=RngStream(cfg.seed).child(cond_index))
        for name, column in summary.items():
            column += table[name]
        lines.append(f"condition {population.label}: {len(table['n'])} summary rows")
        if params["emit-sample"] > 0 and cond_index == 0:
            sample = sample_population(population, params["emit-sample"],
                                       RngStream(cfg.seed).child(cond_index, 2 ** 20))
            artifacts["depiction_sample.csv"] = {"x": sample.x, "y": sample.y}
    artifacts["simulation_summary.csv"] = summary
    return artifacts, lines


def _run_influence(cfg: RunConfig):
    params = cfg.params
    axis = influence.AxisSpec(params["axis-lo"], params["axis-hi"],
                              params["axis-step"])
    base = sample_bivariate_normal(params["pearson"], params["n"],
                                   RngStream(cfg.seed).child(1))
    outlier = (params["outlier-x"], params["outlier-y"])
    if outlier.count(None) == 1:
        raise UsageError("give both --outlier-x and --outlier-y or neither")
    grid = (influence.scan_single(base, axis) if outlier[0] is None
            else influence.scan_double(base, outlier, axis))

    k = grid.axis.size
    # row r is the cell (axis[r // k], axis[r % k]); no k*k-long x or y column is formed
    table = {"x": lambda r: grid.axis[r // k], "y": lambda r: grid.axis[r % k],
             "delta_pearson": grid.delta_pearson.ravel(),
             "delta_spearman": grid.delta_spearman.ravel()}
    summary = {
        "base_pearson": grid.base_pearson,
        "base_spearman": grid.base_spearman,
        "first_outlier": list(grid.first_outlier) if grid.first_outlier else None,
        "grid_cells": int(grid.delta_pearson.size),
        "missing_cells": int(np.isnan(grid.delta_pearson).sum()),
        "delta_pearson_min": float(grid.delta_pearson.min()),
        "delta_pearson_max": float(grid.delta_pearson.max()),
        "delta_spearman_min": float(grid.delta_spearman.min()),
        "delta_spearman_max": float(grid.delta_spearman.max()),
        "exceedance_pearson_0.05": influence.exceedance_fraction(grid, 0.05, "pearson"),
        "exceedance_spearman_0.05": influence.exceedance_fraction(grid, 0.05, "spearman"),
    }
    lines = [f"influence grid {k}x{k}: base pearson {grid.base_pearson:+.4f}, "
             f"base spearman {grid.base_spearman:+.4f}"]
    return {"influence_grid.csv": table, "influence_summary.json": summary}, lines


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
    summary = {"sample_size": result.sample_size, "n_samples": result.n_samples,
               "redraw_count": result.redraw_count, "n_pairs": len(result.pairs["column_a"])}
    lines = [f"{result.n_samples} samples of {result.sample_size} rows, "
             f"{summary['n_pairs']} pairs, {result.redraw_count} redraws"]
    return {"resample_pairs.csv": result.pairs,
            "resample_table.csv": {"statistic": tuple(result.aggregates),
                                   "value": list(result.aggregates.values())},
            "resample_summary.json": summary}, lines


def _run_eigen(cfg: RunConfig):
    params = cfg.params
    dataset = _dataset_for(params)
    summary = eigenmod.eigen_study(dataset, params["sample-size"], params["reps"],
                                   k=params["top"], master_seed=cfg.seed)
    meta = {"sample_size": summary.sample_size, "n_samples": summary.n_samples,
            "redraw_count": summary.redraw_count, "max_trace_error": summary.max_trace_error}
    lines = [f"top {summary.k} eigenvalues over {summary.n_samples} samples "
             f"(max trace error {summary.max_trace_error:.2e})"]
    return {"eigen_table.csv": summary.table, "eigen_summary.json": meta}, lines


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
    """Run the subcommand, then stream every artifact to disk under one hash."""
    artifacts, lines = _RUNNERS[cfg.subcommand](cfg)
    artifacts["resolved_config.json"] = cfg.as_echo()
    cfg_hash = cfg.hash()
    _commit_artifacts(cfg.out_dir, {
        name: [_json_text(body, cfg_hash)] if name.endswith(".json")
        else _csv_text(body, cfg_hash)
        for name, body in artifacts.items()})
    for line in lines:
        print(line)
    print(f"wrote {len(artifacts)} files to {cfg.out_dir} (config {cfg_hash})")
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
