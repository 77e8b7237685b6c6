"""Finite-sample theory for correlation estimates under bivariate normality.

Covers the exact sampling density of the Pearson coefficient, the
expected values (hence small-sample bias) of the Pearson and Spearman
coefficients, the closed-form conversions between the three population
coefficients, and Fisher-z interval estimation.

Everything that involves gamma-function ratios is evaluated in log
space so sample sizes up to the thousands stay finite.  The density's
constant factor is the closed form (n-2) Gamma(n-1) / (sqrt(2 pi)
Gamma(n-1/2)) of Hotelling (1953), which makes the curve integrate to
one over (-1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InputError, NumericError

__all__ = [
    "NormalTheoryParams",
    "DensityCurve",
    "hyp2f1_half_half",
    "pearson_density",
    "density_curve",
    "expected_pearson",
    "expected_spearman",
    "expected_spearman_from_mix",
    "spearman_from_pearson",
    "kendall_from_pearson",
    "spearman_from_kendall",
    "fisher_z",
    "fisher_z_inverse",
    "fisher_interval",
    "spearman_interval",
]

SERIES_RELATIVE_TOL = 1e-15
SERIES_MAX_TERMS = 10 ** 6
# Above NEAR_ONE_X the power series at small c needs up to millions of terms
# (tens of millions at c = 2, x = 1 - 1e-12); the connection formula toward
# 1 - x converges in a few dozen.  From NEAR_ONE_MAX_C on the series
# converges within about 40 terms even at x = 1 - 2**-52.
NEAR_ONE_X = 0.99
NEAR_ONE_MAX_C = 50.0


@dataclass(frozen=True)
class NormalTheoryParams:
    """Population coefficient and sample size for the normal-theory formulas."""

    rho: float
    n: int

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise InputError(f"rho must lie strictly inside (-1, 1), got {self.rho}")
        if self.n < 2:
            raise InputError(f"sample size must be >= 2, got {self.n}")


@dataclass(frozen=True)
class DensityCurve:
    """A density sampled on a grid of coefficient values in (-1, 1)."""

    grid: np.ndarray
    density: np.ndarray
    rho: float
    n: int


def hyp2f1_half_half(c: float, x) -> float | np.ndarray:
    """Gauss hypergeometric function 2F1(1/2, 1/2; c; x) for 0 <= x < 1 and
    c > 1 an integer or half-integer, the c = n - 1/2 of the Pearson density
    and c = (n + 1)/2 of its mean; any other c is a domain error.

    Power series until a term falls below 1e-15 of the sum, capped at 1e6
    terms; above ``NEAR_ONE_X`` at c < ``NEAR_ONE_MAX_C`` the connection
    formula toward 1 - x (`_toward_one`) instead.
    """
    if not (c > 1.0 and float(2.0 * c).is_integer()):
        raise InputError(f"series parameter c must be an integer or half-integer above 1, got {c}")
    x_arr = np.asarray(x, dtype=float)
    if np.any((x_arr < 0.0) | (x_arr >= 1.0)):
        raise InputError("series argument must lie in [0, 1)")
    near = (x_arr > NEAR_ONE_X) & (c < NEAR_ONE_MAX_C)
    out = np.empty_like(x_arr)
    if not np.all(near):
        out[~near] = _power_series(c, x_arr[~near])
    if np.any(near):
        out[near] = _toward_one(c, 1.0 - x_arr[near])
    return out if np.ndim(x) else float(out)


def _power_series(c: float, x: np.ndarray) -> np.ndarray:
    term = np.ones_like(x)
    total = np.ones_like(x)
    for i in range(SERIES_MAX_TERMS):
        term = term * ((0.5 + i) ** 2 / ((c + i) * (i + 1.0))) * x
        total = total + term
        if np.all(term <= SERIES_RELATIVE_TOL * total):
            return total
    raise NumericError("hypergeometric series did not converge within 1e6 terms")


def _toward_one(c: float, y: np.ndarray) -> np.ndarray:
    """2F1(1/2, 1/2; c; 1 - y) for 0 < y < 0.01 and 2c an integer in (2, 100).

    With s = c - 1, DLMF 15.8.4 gives A*H + y**s * T, where
    A = Gamma(c) Gamma(s) / Gamma(c - 1/2)**2 (Gauss's value at x = 1),
    H = sum_k (1/2)_k**2 / ((1 - s)_k k!) y**k and
    T = Gamma(c) Gamma(-s) / pi * sum_n (s + 1/2)_n**2 / ((1 + s)_n n!) y**n.
    When s is an integer m, H stops before k = m and T is the logarithmic
    sum of DLMF 15.8.10 (A&S 15.3.11): -(-1)**m / pi times the same
    coefficients, each weighted by
    ln y - psi(n + 1) - psi(n + m + 1) + 2 psi(n + m + 1/2).
    At c < 50 and y < 0.01 the terms of T shrink from the first and those
    of H from k = s on, so each sum stops at a term below 1e-15 of it.
    """
    s = c - 1.0
    log_case = s == math.floor(s)
    term = head = np.ones_like(y)
    for k in range(int(s) - 1 if log_case else SERIES_MAX_TERMS):
        term = term * ((0.5 + k) ** 2 / ((1.0 - s + k) * (k + 1.0))) * y
        head = head + term
        if k > s and np.all(np.abs(term) <= SERIES_RELATIVE_TOL * np.abs(head)):
            break
    if log_case:
        scale = -(-1.0) ** s / math.pi

        def weight(n):
            return (np.log(y) - special.digamma(n + 1.0) - special.digamma(n + c)
                    + 2.0 * special.digamma(n + c - 0.5))
    else:
        scale = special.gamma(c) * special.gamma(-s) / math.pi

        def weight(n):
            return 1.0
    term = np.ones_like(y)
    tail = weight(0) * term
    for n in range(1, SERIES_MAX_TERMS):
        term = term * ((s - 0.5 + n) ** 2 / ((s + n) * n)) * y
        part = weight(n) * term
        tail = tail + part
        if np.all(np.abs(part) <= SERIES_RELATIVE_TOL * np.abs(tail)):
            break
    return special.beta(s, 0.5) / special.beta(c - 0.5, 0.5) * head + scale * y ** s * tail


# ---------------------------------------------------------------------------
# Sampling density of the Pearson coefficient
# ---------------------------------------------------------------------------

def _log_density_shape(r: np.ndarray, rho: float, n: int) -> np.ndarray:
    shape = (0.5 * (n - 1.0) * math.log1p(-rho * rho)
             + 0.5 * (n - 4.0) * np.log1p(-r * r)
             - (n - 1.5) * np.log1p(-rho * r))
    return shape + np.log(hyp2f1_half_half(n - 0.5, 0.5 * (rho * r + 1.0)))


def _log_norm_constant(n: int) -> float:
    """Log of the density's constant factor (Hotelling 1953)."""
    return (math.log(n - 2.0) + special.gammaln(n - 1.0)
            - 0.5 * math.log(2.0 * math.pi) - special.gammaln(n - 0.5))


def pearson_density(r, rho: float, n: int):
    """Exact sampling density of the Pearson coefficient at ``r``.

    Requires n >= 4 and |rho| < 1; |r| >= 1 is a domain error.  The
    closed-form constant makes it integrate to one over (-1, 1).
    """
    params = NormalTheoryParams(rho, n)
    if params.n < 4:
        raise InputError("density requires a sample size of at least 4")
    r_arr = np.asarray(r, dtype=float)
    if np.any(np.abs(r_arr) >= 1.0):
        raise InputError("density argument must lie strictly inside (-1, 1)")
    out = np.exp(_log_density_shape(r_arr, rho, n) + _log_norm_constant(n))
    return out if np.ndim(r) else float(out)


def _null_pearson_density(r, n: int):
    """Closed beta-function form of the density at rho = 0 (cross-check)."""
    r_arr = np.asarray(r, dtype=float)
    log_b = special.betaln(0.5, 0.5 * (n - 2.0))
    return np.exp(0.5 * (n - 4.0) * np.log1p(-r_arr * r_arr) - log_b)


def density_curve(rho: float, n: int, points: int = 4001,
                  eps: float = 1e-6) -> DensityCurve:
    """Density evaluated on an even grid spanning (-1 + eps, 1 - eps)."""
    if points < 3:
        raise InputError("need at least 3 grid points")
    grid = np.linspace(-1.0 + eps, 1.0 - eps, points)
    return DensityCurve(grid=grid, density=pearson_density(grid, rho, n),
                        rho=rho, n=n)


# ---------------------------------------------------------------------------
# Expected values (small-sample bias)
# ---------------------------------------------------------------------------

def expected_pearson(rho: float, n: int) -> float:
    """Expected value of the sample Pearson coefficient at size n.

    Underestimates |rho| in magnitude; the gap closes as n grows.
    """
    if n < 2:
        raise InputError(f"sample size must be >= 2, got {n}")
    if not -1.0 <= rho <= 1.0:
        raise InputError(f"rho must lie in [-1, 1], got {rho}")
    if abs(rho) == 1.0:
        return float(rho)  # point mass at +-1
    log_pref = 2.0 * (special.gammaln(0.5 * n) - special.gammaln(0.5 * (n - 1.0)))
    pref = 2.0 * math.exp(log_pref) / (n - 1.0)
    return pref * rho * hyp2f1_half_half(0.5 * (n + 1.0), rho * rho)


def expected_spearman(rho: float, n: int) -> float:
    """Expected value of the sample Spearman coefficient at size n."""
    if n < 2:
        raise InputError(f"sample size must be >= 2, got {n}")
    if not -1.0 <= rho <= 1.0:
        raise InputError(f"rho must lie in [-1, 1], got {rho}")
    return (6.0 / (math.pi * (n + 1.0))
            * (math.asin(rho) + (n - 2.0) * math.asin(0.5 * rho)))


def expected_spearman_from_mix(rho: float, n: int) -> float:
    """Same expectation written as a population Spearman/Kendall mixture."""
    rs = spearman_from_pearson(rho)
    rt = kendall_from_pearson(rho)
    return ((n - 2.0) * rs + 3.0 * rt) / (n + 1.0)


# ---------------------------------------------------------------------------
# Population coefficient conversions (bivariate normal)
# ---------------------------------------------------------------------------

def _check_unit_interval(value: float, name: str) -> float:
    if not -1.0 <= value <= 1.0:
        raise InputError(f"{name} must lie in [-1, 1], got {value}")
    return float(value)


def spearman_from_pearson(rho: float) -> float:
    """Population Spearman coefficient matching a population Pearson value."""
    rho = _check_unit_interval(rho, "rho")
    return 6.0 / math.pi * math.asin(0.5 * rho)


def kendall_from_pearson(rho: float) -> float:
    """Population Kendall coefficient matching a population Pearson value."""
    rho = _check_unit_interval(rho, "rho")
    return 2.0 / math.pi * math.asin(rho)


def spearman_from_kendall(tau: float) -> float:
    """Population Spearman coefficient matching a population Kendall value."""
    tau = _check_unit_interval(tau, "tau")
    return 6.0 / math.pi * math.asin(0.5 * math.sin(0.5 * math.pi * tau))


def pearson_from_kendall(tau: float) -> float:
    """Inverse of :func:`kendall_from_pearson`."""
    tau = _check_unit_interval(tau, "tau")
    return math.sin(0.5 * math.pi * tau)


# ---------------------------------------------------------------------------
# Fisher-z inference
# ---------------------------------------------------------------------------

def fisher_z(r: float) -> float:
    """Variance-stabilizing transform atanh(r); |r| = 1 is out of domain."""
    if not -1.0 < r < 1.0:
        raise InputError(f"fisher_z requires |r| < 1, got {r}")
    return math.atanh(r)


def fisher_z_inverse(z: float) -> float:
    return math.tanh(z)


def _z_interval(r: float, n: int, level: float, variance_scale: float):
    if not 0.0 < level < 1.0:
        raise InputError(f"confidence level must lie in (0, 1), got {level}")
    if n < 4:
        raise InputError("interval estimation needs n >= 4")
    z = fisher_z(r)
    crit = special.ndtri(0.5 * (1.0 + level))
    stderr = math.sqrt(variance_scale / (n - 3.0))
    return (math.tanh(z - crit * stderr), math.tanh(z + crit * stderr))


def fisher_interval(r: float, n: int, level: float = 0.95):
    """Confidence interval for a Pearson coefficient via the z transform."""
    return _z_interval(r, n, level, 1.0)


def spearman_interval(r: float, n: int, level: float = 0.95):
    """Approximate interval for a Spearman coefficient.

    Uses atanh with standard error sqrt(1.06 / (n - 3)).  This is an
    approximation only; its coverage is validated empirically, not
    derived, so treat it as a rough guide.
    """
    return _z_interval(r, n, level, 1.06)
