"""Deterministic, seedable random generation.

Streams are addressed by a master seed plus an integer path (condition,
cell, replication, ...).  The same address always yields the same draws
no matter how the work is scheduled, which is what makes every study in
this package reproducible and safely parallel.  Bit-level streams come
from numpy's PCG64 keyed by a SeedSequence spawn key; normal variates
use numpy's ziggurat sampler.  Reproducibility is guaranteed per build
of this package, not across numpy major versions.

Correlated non-normal pairs are produced by pushing a correlated
standard-normal pair through each marginal's quantile function, with
the latent correlation calibrated so the transformed pair hits a target
population Pearson value measured on a large calibration sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InfeasibleError, InputError, NumericError
from .estimators import PairedSample, pearson_rows, spearman_rows
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
# Version of the calibration algorithm: the chi-square quantile, the
# bisection and the layout of the calibration sample.  Raise it whenever
# a change moves calibrated values, so cached calibrations are redone.
CALIBRATION_VERSION = 2
# a sample that keeps degenerating is given up after this many redraws
REDRAW_CAP_PER_SAMPLE = 1000

# Cumulative cut points mimicking a heavily floor-concentrated survey
# item: three quarters of the mass on the lowest of six categories.
DEFAULT_LIKERT_THRESHOLDS = (0.75, 0.87, 0.93, 0.97, 0.99)


@dataclass(frozen=True)
class RngStream:
    """Address of one reproducible random stream."""

    master_seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


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
            if self.df is None or self.df < 1:
                raise InputError("chi_square marginal needs df >= 1")
        elif self.df is not None:
            raise InputError(f"df is only valid for chi_square, not {self.family}")
        if self.family == "discretized_likert":
            t = self.thresholds
            if not t or any(not 0.0 < a < 1.0 for a in t) or list(t) != sorted(set(t)):
                raise InputError("likert thresholds must be strictly increasing in (0, 1)")
            object.__setattr__(self, "thresholds", tuple(float(a) for a in t))
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

    @classmethod
    def from_dict(cls, d: dict) -> "MarginalSpec":
        return cls(d["family"], df=d.get("df"),
                   thresholds=tuple(d["thresholds"]) if "thresholds" in d else None)


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationSpec:
    """A bivariate population: two marginals coupled through a latent
    standard-normal pair with correlation ``latent_rho``.

    ``pop_pearson``/``pop_spearman`` are the population coefficients; for
    non-normal marginals they are measured on the calibration sample (the
    large-sample convention), for normal marginals they are analytic.
    """

    marginal_x: MarginalSpec
    marginal_y: MarginalSpec
    target_pearson: float
    latent_rho: float
    pop_pearson: float
    pop_spearman: float
    calibration_n: int = 0
    label: str = ""

    def __post_init__(self):
        if not -1.0 <= self.latent_rho <= 1.0:
            raise InputError(f"latent correlation {self.latent_rho} outside [-1, 1]")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        mx, my = self.marginal_x.describe(), self.marginal_y.describe()
        marg = mx if mx == my else f"{mx}/{my}"
        return f"{marg}_rp{self.target_pearson:g}"

    @classmethod
    def bivariate_normal(cls, rho: float, label: str = "") -> "PopulationSpec":
        """Standard-normal pair with exact population correlation rho."""
        if not -1.0 <= rho <= 1.0:
            raise InputError(f"rho must lie in [-1, 1], got {rho}")
        return cls(MarginalSpec.standard_normal(), MarginalSpec.standard_normal(),
                   target_pearson=float(rho), latent_rho=float(rho),
                   pop_pearson=float(rho),
                   pop_spearman=spearman_from_pearson(rho), label=label)

    @property
    def pop_kendall(self) -> float:
        # exact for any continuous marginals under the latent-normal coupling
        return kendall_from_pearson(self.latent_rho)

    def population_value(self, kind: str) -> float:
        if kind == "pearson":
            return self.pop_pearson
        if kind == "spearman":
            return self.pop_spearman
        if kind == "kendall":
            return self.pop_kendall
        raise InputError(f"unknown coefficient kind {kind!r}")

    def to_dict(self) -> dict:
        return {
            "marginal_x": self.marginal_x.to_dict(),
            "marginal_y": self.marginal_y.to_dict(),
            "target_pearson": self.target_pearson,
            "latent_rho": self.latent_rho,
            "pop_pearson": self.pop_pearson,
            "pop_spearman": self.pop_spearman,
            "calibration_n": self.calibration_n,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PopulationSpec":
        return cls(marginal_x=MarginalSpec.from_dict(d["marginal_x"]),
                   marginal_y=MarginalSpec.from_dict(d["marginal_y"]),
                   target_pearson=d["target_pearson"],
                   latent_rho=d["latent_rho"],
                   pop_pearson=d["pop_pearson"],
                   pop_spearman=d["pop_spearman"],
                   calibration_n=d.get("calibration_n", 0),
                   label=d.get("label", ""))


def _couple(rho: float, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Standard normals with correlation rho to z1, from independent z2."""
    return rho * z1 + np.sqrt(1.0 - rho * rho) * z2


def _latent_pair(rho: float, shape, rng: np.random.Generator):
    """A latent standard-normal pair of the given shape; all of z1 is drawn first."""
    z1 = rng.standard_normal(shape)
    return z1, _couple(rho, z1, rng.standard_normal(shape))


def sample_bivariate_normal(rho: float, n: int, stream: RngStream) -> PairedSample:
    """Standard-normal pair with population correlation rho.

    At rho = +-1 the second vector is exactly +-first.
    """
    return sample_population(PopulationSpec.bivariate_normal(rho), n, stream)


def _transform(marginal: MarginalSpec, z: np.ndarray) -> np.ndarray:
    if marginal.is_standard_normal:
        return z  # quantile(Phi(z)) is the identity; skip the round trip
    return marginal.quantile(special.ndtr(z))


def sample_population(spec: PopulationSpec, n: int, stream: RngStream) -> PairedSample:
    """Draw n pairs from a (calibrated) population."""
    if n < 2:
        raise InputError("need n >= 2")
    z1, z2 = _latent_pair(spec.latent_rho, n, stream.generator())
    return PairedSample(_transform(spec.marginal_x, z1),
                        _transform(spec.marginal_y, z2))


def calibrate_copula(marginal_x: MarginalSpec, marginal_y: MarginalSpec,
                     target_pearson: float, calibration_n: int = 10 ** 6,
                     stream: RngStream = RngStream(0), tol: float = CALIBRATION_TOL,
                     label: str = "") -> PopulationSpec:
    """Find the latent correlation that realizes a target population Pearson.

    One set of calibration normals is drawn up front and reused for every
    bisection step (common random numbers), which makes the objective a
    smooth, strictly increasing function of the latent correlation and the
    result deterministic.  The achieved Pearson and Spearman values of the
    final calibration sample are recorded as the population values.

    Raises :class:`InfeasibleError` when the target lies outside what the
    two marginals can reach.
    """
    if not -1.0 <= target_pearson <= 1.0:
        raise InputError(f"target correlation {target_pearson} outside [-1, 1]")
    if calibration_n < 1000:
        raise InputError("calibration sample must have at least 1000 pairs")

    rng = stream.generator()
    z1 = rng.standard_normal(calibration_n)
    z0 = rng.standard_normal(calibration_n)
    x = _transform(marginal_x, z1)[None, :]

    def transformed_y(latent: float) -> np.ndarray:
        return _transform(marginal_y, _couple(latent, z1, z0))[None, :]

    def achieved(latent: float) -> float:
        return float(pearson_rows(x, transformed_y(latent))[0])

    lo, hi = -0.999999, 0.999999
    f_lo, f_hi = achieved(lo), achieved(hi)
    if not f_lo - tol <= target_pearson <= f_hi + tol:
        raise InfeasibleError(
            f"target Pearson {target_pearson} unattainable for these marginals "
            f"(reachable range is about [{f_lo:.4f}, {f_hi:.4f}])")

    latent, value = 0.0, achieved(0.0)
    for _ in range(200):
        if abs(value - target_pearson) <= tol:
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
    return PopulationSpec(marginal_x=marginal_x, marginal_y=marginal_y,
                          target_pearson=float(target_pearson),
                          latent_rho=float(latent),
                          pop_pearson=value, pop_spearman=pop_spearman,
                          calibration_n=int(calibration_n), label=label)
