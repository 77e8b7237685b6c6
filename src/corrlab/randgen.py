"""Deterministic, seedable random generation.

Streams are addressed by a master seed plus an integer path.  Every
replication study draws through one driver, ``_replication_blocks``: chunk
k of ``CHUNK_REPS`` replications draws block by block from path (..., k)
and redraws a degenerate replication i of it from (..., k, i), so every
study is reproducible and safely parallel however its work is blocked or
scheduled.  Studies size their blocks by ``_BLOCK_VALUES``, the one
budget of values per block, so that a block's draw, its map and every
kernel over it stay in cache; a simulation cell of size n runs
``_BLOCK_VALUES // n`` rows at a time, a whole chunk up to n = 16.
Bit-level streams come from numpy's PCG64 keyed by a SeedSequence spawn
key; normal variates use numpy's ziggurat sampler.
Reproducibility holds per build, not across numpy major versions.
A simulation block of n <= 7 (``estimators._SHORT_ROW``) is held
variable-major, each variable one contiguous (n, rows) plane, the layout
the short-row kernels read; every block is coupled in place.  No value
depends on the memory layout.

Correlated non-normal pairs are produced by pushing a correlated
standard-normal pair through one monotone map g(z) = F^-1(Phi(z)) of one
marginal, the same for both variables, with the latent correlation
calibrated so the transformed pair hits a target population Pearson value
measured on a large calibration sample.  ``_transform`` is the only such
map.  The normal is the identity.  The exponential and the chi-square
never form u = Phi(z), which rounds to 1 from z of about 8.3: the
exponential is -log P(Z > z); the chi-square is a cubic Hermite
interpolant of log g from a per-df table of 4,353 nodes over |z| <= 8.5
(step 1/256, exact node values and slopes, relative error below 1e-12 for
df 1 to 100).  Beyond the table, and for a df so large that no table
can be built, the exact map inverts the lower tail below z = 0 and the
upper tail above it.  The uniform is u = Phi(z); the likert never forms
u either and counts its cut points Phi^-1(threshold) at or below z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InfeasibleError, InputError, NumericError
from .estimators import _SHORT_ROW, PairedSample, pearson_rows, spearman_rows
from .exact import kendall_from_pearson, spearman_from_pearson

__all__ = [
    "RngStream",
    "MarginalSpec",
    "PopulationSpec",
    "sample_bivariate_normal",
    "sample_population",
    "calibrate_copula",
    "DEFAULT_LIKERT_THRESHOLDS",
]

CALIBRATION_TOL = 1e-3
# Version of the calibration algorithm: the normal-to-marginal map, the
# bisection and the layout of the calibration sample.  Raise it whenever
# a change moves calibrated values, so cached calibrations are redone.
CALIBRATION_VERSION = 3
MIN_CALIBRATION_N = 1000
# a sample that keeps degenerating is given up after this many redraws
REDRAW_CAP_PER_SAMPLE = 1000
CHUNK_REPS = 4096  # replications per chunk stream: part of the layout, not a knob
# values per block of replications (0.5 MB of float64, an L2-sized working set;
# 2**18 took more memory and time); blocks move no value, only the memory held
_BLOCK_VALUES = 2 ** 16

# Cumulative cut points mimicking a heavily floor-concentrated survey
# item: three quarters of the mass on the lowest of six categories.
DEFAULT_LIKERT_THRESHOLDS = (0.75, 0.87, 0.93, 0.97, 0.99)


@dataclass(frozen=True)
class RngStream:
    """Address of one reproducible random stream, e.g. path (condition,
    cell, chunk) for one chunk of replications of a simulation cell."""

    master_seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def _replication_blocks(stream: RngStream, reps: int, draw, constant, names, where: str,
                        block: int = CHUNK_REPS):
    """The one replication driver: (sample, failed) per block of at most ``block``
    replications, which ``draw(rng, rows)`` stacks on axis 0.  Chunk k draws its
    blocks in turn from path (..., k), which PCG64 makes equal to one chunk-wide
    draw; its replication i is redrawn from (..., k, i) while ``constant`` flags
    a variable of it, and ``failed`` counts the redraws, up to the cap."""
    degenerate = np.zeros(len(names), dtype=np.int64)
    for k, start in enumerate(range(0, reps, CHUNK_REPS)):
        chunk, size = stream.child(k), min(CHUNK_REPS, reps - start)
        rng = chunk.generator()
        for lo in range(0, size, block):
            sample = draw(rng, min(block, size - lo))
            flags = constant(sample)
            failed = 0
            # the flagged replications, in order; flags.any(axis=1) takes 10x as long on
            # 2 columns, and flags.any() passes the many blocks that flag none 4x faster
            flagged = np.unique(np.flatnonzero(flags) // flags.shape[1]) if flags.any() else ()
            for i in flagged:
                degenerate += flags[i]
                redraw = chunk.child(lo + i).generator()
                for _ in range(REDRAW_CAP_PER_SAMPLE):
                    failed += 1
                    fresh = draw(redraw, 1)
                    bad = constant(fresh)[0]
                    degenerate += bad
                    if not bad.any():
                        sample[i] = fresh[0]
                        break
                else:
                    raise InfeasibleError(
                        f"replication {start + lo + i} exceeded {REDRAW_CAP_PER_SAMPLE} redraws "
                        f"{where}; column {names[np.argmax(degenerate)]!r} keeps degenerating")
            yield sample, failed


# ---------------------------------------------------------------------------
# Marginal distributions
# ---------------------------------------------------------------------------

_FAMILIES = ("standard_normal", "exponential", "chi_square", "uniform",
             "discretized_likert")


@dataclass(frozen=True)
class MarginalSpec:
    """One marginal distribution, identified by family and parameters."""

    family: str
    df: float | None = None
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"unknown marginal family {self.family!r}")
        if self.family == "chi_square":
            if self.df is None or not 1 <= self.df < float("inf"):  # nan fails too
                raise InputError(f"chi_square marginal needs a finite df >= 1, got {self.df}")
        elif self.df is not None:
            raise InputError(f"df is only valid for chi_square, not {self.family}")
        if self.family == "discretized_likert":
            t = self.thresholds
            if not t or any(not 0.0 < a < 1.0 for a in t) or list(t) != sorted(set(t)):
                raise InputError("likert thresholds must be strictly increasing in (0, 1)")
            object.__setattr__(self, "thresholds", tuple(float(a) for a in t))
            object.__setattr__(self, "_cuts", special.ndtri(self.thresholds))  # z-space, for _transform
        elif self.thresholds is not None:
            raise InputError("thresholds are only valid for discretized_likert")

    @classmethod
    def standard_normal(cls):
        return cls("standard_normal")

    @classmethod
    def exponential(cls):
        return cls("exponential")

    @classmethod
    def chi_square(cls, df: float):
        return cls("chi_square", df=float(df))

    @classmethod
    def uniform(cls):
        return cls("uniform")

    @classmethod
    def likert(cls, thresholds=DEFAULT_LIKERT_THRESHOLDS):
        return cls("discretized_likert", thresholds=tuple(thresholds))

    @property
    def is_standard_normal(self) -> bool:
        return self.family == "standard_normal"

    def quantile(self, u):
        """Inverse CDF evaluated at u in (0, 1)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
            raise InputError("quantile argument must lie strictly inside (0, 1)")
        if self.family == "standard_normal":
            out = special.ndtri(u_arr)
        elif self.family == "exponential":
            out = -np.log1p(-u_arr)
        elif self.family == "uniform":
            out = u_arr.copy()
        elif self.family == "chi_square":
            out = 2.0 * special.gammaincinv(0.5 * self.df, u_arr)
        else:
            out = 1.0 + np.searchsorted(np.asarray(self.thresholds), u_arr,
                                        side="right").astype(float)
        out = np.asarray(out).reshape(u_arr.shape)
        return out if np.ndim(u) else float(out)

    def describe(self) -> str:
        if self.family == "chi_square":
            return f"chi_square(df={self.df:g})"
        return self.family

    def to_dict(self) -> dict:
        out = {"family": self.family}
        if self.df is not None:
            out["df"] = self.df
        if self.thresholds is not None:
            out["thresholds"] = list(self.thresholds)
        return out


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationSpec:
    """A bivariate population: x and y share one marginal and are coupled
    through a latent standard-normal pair with correlation ``latent_rho``,
    each latent normal z mapped to the marginal by the monotone g(z) of
    ``_transform`` (tabulated on |z| <= 8.5 for the chi-square, exact
    beyond).

    ``pop_pearson``/``pop_spearman`` are the population coefficients; for
    a non-normal marginal they are measured on the calibration sample (the
    large-sample convention), for the normal marginal they are analytic.
    """

    marginal: MarginalSpec
    target_pearson: float
    latent_rho: float
    pop_pearson: float
    pop_spearman: float

    def __post_init__(self):
        if not -1.0 <= self.latent_rho <= 1.0:
            raise InputError(f"latent correlation {self.latent_rho} outside [-1, 1]")

    @property
    def label(self) -> str:
        return f"{self.marginal.describe()}_rp{self.target_pearson:g}"

    @classmethod
    def bivariate_normal(cls, rho: float) -> "PopulationSpec":
        """Standard-normal pair with exact population correlation rho
        (spearman_from_pearson refuses rho outside [-1, 1])."""
        return cls(MarginalSpec.standard_normal(), target_pearson=float(rho),
                   latent_rho=float(rho), pop_pearson=float(rho),
                   pop_spearman=spearman_from_pearson(rho))

    @property
    def pop_kendall(self) -> float:
        # exact for any continuous marginal under the latent-normal coupling
        return kendall_from_pearson(self.latent_rho)

    def population_value(self, kind: str) -> float:
        if kind == "pearson":
            return self.pop_pearson
        if kind == "spearman":
            return self.pop_spearman
        if kind == "kendall":
            return self.pop_kendall
        raise InputError(f"unknown coefficient kind {kind!r}")


def _couple(rho: float, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Independent standard normals z2 turned in place into normals with
    correlation rho to z1, and returned: sqrt(1 - rho**2) * z2 + rho * z1,
    the same bits as rho * z1 + sqrt(1 - rho**2) * z2, as IEEE addition
    commutes."""
    z2 *= np.sqrt(1.0 - rho * rho)
    z2 += rho * z1
    return z2


def sample_bivariate_normal(rho: float, n: int, stream: RngStream) -> PairedSample:
    """Standard-normal pair with population correlation rho.

    At rho = +-1 the second vector is exactly +-first.
    """
    return sample_population(PopulationSpec.bivariate_normal(rho), n, stream)


# The chi-square table spans |z| <= _TABLE_Z in steps of 1 / _TABLE_STEPS.
_TABLE_Z = 8.5
_TABLE_STEPS = 256


def _chi_square_exact(df: float, z: np.ndarray) -> np.ndarray:
    """The chi-square value at latent z, split at 0 so that neither tail
    rounds its probability to 1: the lower tail inverts P(Z <= z), the
    upper tail P(Z > z)."""
    out = np.empty_like(z)
    low = z < 0
    out[low] = special.gammaincinv(0.5 * df, special.ndtr(z[low]))
    high = ~low
    out[high] = special.gammainccinv(0.5 * df, special.ndtr(-z[high]))
    return 2.0 * out


@functools.lru_cache(maxsize=8)
def _chi_square_table(df: float) -> tuple[np.ndarray, ...] | None:
    """Per-interval cubic coefficients (c0, c1, c2, c3) of log g(z) on the
    node grid, or None when the node values of log g do not strictly increase
    (a df so large that they round together) or a coefficient is not finite.

    Node values come from the exact map; the slopes are exact too,
    d log g/dz = phi(z) / (f(g) g) for the chi-square density f, taken in
    logs so that neither tail overflows.  A pure function of df, so a race
    between threads at worst builds it twice.
    """
    nodes = np.linspace(-_TABLE_Z, _TABLE_Z, int(2 * _TABLE_Z * _TABLE_STEPS) + 1)
    g = _chi_square_exact(df, nodes)
    log_g = np.log(g)
    a = 0.5 * df
    log_fg = a * np.log(0.5 * g) - 0.5 * g - special.gammaln(a)
    log_phi = -0.5 * nodes * nodes - 0.5 * np.log(2.0 * np.pi)
    slope = np.exp(log_phi - log_fg) / _TABLE_STEPS  # per step of the grid
    rise = np.diff(log_g)
    coef = (log_g[:-1], slope[:-1], 3.0 * rise - 2.0 * slope[:-1] - slope[1:],
            slope[:-1] + slope[1:] - 2.0 * rise)
    if not (np.all(rise > 0) and all(np.isfinite(c).all() for c in coef)):
        return None
    for c in coef:
        c.flags.writeable = False  # shared by every caller through the cache
    return coef


def _chi_square_from_normal(df: float, z: np.ndarray) -> np.ndarray:
    """exp of the cubic Hermite interpolant of log g on |z| <= _TABLE_Z; the
    exact map beyond it and where no table could be built."""
    coef = _chi_square_table(df)
    if coef is None:
        return _chi_square_exact(df, z)
    c0, c1, c2, c3 = coef
    t = (z + _TABLE_Z) * _TABLE_STEPS
    i = np.clip(t, 0, len(c0) - 1).astype(np.intp)
    s = t - i
    out = c3[i]
    for c in (c2, c1, c0):  # Horner's rule in the offset s within the step
        out *= s
        out += c[i]
    np.exp(out, out=out)
    outside = np.abs(z) > _TABLE_Z
    if outside.any():
        out[outside] = _chi_square_exact(df, z[outside])
    return out


def _exponential_from_normal(z: np.ndarray) -> np.ndarray:
    """-log P(Z > z): exact in the upper tail, where -log1p(-ndtr(z)) loses
    digits from z of about 6 and fails where ndtr(z) rounds to 1.  In the
    lower tail the error is absolute, about 1e-16."""
    tail = special.ndtr(-z)
    with np.errstate(divide="ignore"):  # a zero tail is redone just below
        out = np.log(tail)
    np.subtract(0.0, out, out=out)  # not -out, which is -0 where the tail rounds to 1
    under = tail == 0.0  # z beyond about 37.5
    if under.any():
        out[under] = -special.log_ndtr(-z[under])
    return out


def _transform(marginal: MarginalSpec, z: np.ndarray) -> np.ndarray:
    """The marginal's value at latent standard normals z, the map
    g = F^-1(Phi(z)) of the latent-normal coupling; the only such map in
    simulation, calibration and the dbq-like population.

    The normal is the identity, the exponential, the chi-square and the
    likert are mapped without forming u = Phi(z) (which rounds to 1 from z
    of about 8.3); the uniform is u, and the likert is 1 plus the count of
    its cut points Phi^-1(threshold) at or below z.
    """
    if marginal.is_standard_normal:
        return z
    if marginal.family == "exponential":
        return _exponential_from_normal(z)
    if marginal.family == "chi_square":
        return _chi_square_from_normal(marginal.df, z)
    if marginal.family == "uniform":
        return special.ndtr(z)
    # searchsorted answers in C order; the sum lands in z's memory order
    return np.add(1.0, np.searchsorted(marginal._cuts, z, side="right"),
                  out=np.empty_like(z))


def _pairs(spec: PopulationSpec, rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """x and y stacked as (rows, 2, n), from one normal draw: row r is a
    sample of n pairs made from its own 2n normals, whatever the number of rows.

    Rows of n <= ``_SHORT_ROW`` are copied once into variable-major memory,
    each variable one C-contiguous (n, rows) plane, the layout in which the
    short-row kernels reduce; the shape and the values stay the same."""
    z = rng.standard_normal((rows, 2, n))
    if n <= _SHORT_ROW:
        z = np.ascontiguousarray(z.transpose(1, 2, 0)).transpose(2, 0, 1)
    _couple(spec.latent_rho, z[:, 0], z[:, 1])
    return _transform(spec.marginal, z)


def sample_population(spec: PopulationSpec, n: int, stream: RngStream) -> PairedSample:
    """Draw n pairs from a (calibrated) population."""
    if n < 2:
        raise InputError("need n >= 2")
    x, y = _pairs(spec, stream.generator(), 1, n)[0]
    return PairedSample(x, y)


def calibrate_copula(marginal: MarginalSpec, target_pearson: float,
                     calibration_n: int = 10 ** 6,
                     stream: RngStream = RngStream(0)) -> PopulationSpec:
    """Find the latent correlation that realizes a target population Pearson.

    One set of calibration normals is drawn up front and reused for every
    bisection step (common random numbers), which makes the objective a
    smooth, strictly increasing function of the latent correlation and the
    result deterministic.  Each step maps the normals to the marginal with
    ``_transform``, the map the simulations draw through (for the
    chi-square, its table on |z| <= 8.5 and the exact split map beyond).
    The achieved Pearson and Spearman values of the final calibration
    sample are recorded as the population values.

    Raises :class:`NumericError` when the transformed sample has no finite
    Pearson coefficient that grows with the latent correlation, and
    :class:`InfeasibleError` when the target lies outside what the
    marginal can reach.
    """
    if not -1.0 <= target_pearson <= 1.0:
        raise InputError(f"target correlation {target_pearson} outside [-1, 1]")
    if calibration_n < MIN_CALIBRATION_N:
        raise InputError(f"calibration sample must have at least {MIN_CALIBRATION_N} pairs")

    rng = stream.generator()
    z1 = rng.standard_normal(calibration_n)
    z0 = rng.standard_normal(calibration_n)
    x = _transform(marginal, z1)[None, :]

    def transformed_y(latent: float) -> np.ndarray:
        return _transform(marginal, _couple(latent, z1, z0.copy()))[None, :]

    def achieved(latent: float) -> float:
        return float(pearson_rows(x, transformed_y(latent))[0])

    lo, hi = -0.999999, 0.999999
    f_lo, f_hi = achieved(lo), achieved(hi)
    if not f_lo < f_hi:  # NaN, or no change with the latent: a constant marginal
        raise NumericError("the transformed calibration sample has no finite Pearson "
                           "coefficient that moves with the latent correlation (a "
                           "marginal rounds to a constant in float64)")
    if not f_lo - CALIBRATION_TOL <= target_pearson <= f_hi + CALIBRATION_TOL:
        raise InfeasibleError(
            f"target Pearson {target_pearson} unattainable for this marginal "
            f"(reachable range is about [{f_lo:.4f}, {f_hi:.4f}])")

    latent, value = 0.0, achieved(0.0)
    for _ in range(200):
        if abs(value - target_pearson) <= CALIBRATION_TOL:
            break
        if value < target_pearson:
            lo = latent
        else:
            hi = latent
        latent = 0.5 * (lo + hi)
        value = achieved(latent)
    else:
        raise NumericError("copula calibration bisection did not converge")

    pop_spearman = float(spearman_rows(x, transformed_y(latent))[0])
    return PopulationSpec(marginal, target_pearson=float(target_pearson),
                          latent_rho=float(latent), pop_pearson=value,
                          pop_spearman=pop_spearman)
