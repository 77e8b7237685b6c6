"""Tests for the finite-sample theory module.

The hypergeometric series is checked against a high-precision direct
summation (mpmath); density and interval claims are checked against
Monte Carlo oracles with fixed seeds.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from corrlab import exact
from corrlab.errors import InputError
from corrlab.estimators import pearson_rows
from corrlab.exact import (_null_pearson_density, density_curve, expected_pearson,
                           expected_spearman, expected_spearman_from_mix,
                           fisher_interval, fisher_z, fisher_z_inverse,
                           hyp2f1_half_half, kendall_from_pearson, pearson_density,
                           spearman_from_kendall, spearman_from_pearson,
                           spearman_interval)


def series_oracle(c, x, terms=2000):
    """Direct 2000-term summation of the half-half series at 60 digits."""
    with mp.workdps(60):
        total = mp.mpf(0)
        for i in range(terms):
            total += (mp.gamma(mp.mpf(1) / 2 + i) ** 2 * mp.gamma(c)
                      * mp.mpf(x) ** i) / (mp.pi * mp.gamma(c + i) * mp.factorial(i))
        return float(total)


class TestHypergeometricSeries:
    def test_zero_argument_is_one(self):
        assert hyp2f1_half_half(4.5, 0.0) == 1.0

    def test_matches_direct_summation_oracle(self):
        for c, x in [(4.5, 0.5), (1.5, 0.3), (19.5, 0.9), (199.5, 0.6)]:
            assert hyp2f1_half_half(c, x) == pytest.approx(
                series_oracle(c, x), rel=1e-13)

    def test_monotone_in_argument(self):
        xs = np.linspace(0.0, 0.95, 40)
        vals = hyp2f1_half_half(4.5, xs)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("c", [1.5, 2.0, 2.5, 3.0, 10.0, 49.5, 50.0, 100.5])
    def test_near_one_matches_mpmath(self, c):
        # above x = 0.99 the connection formula runs at c < 50 and the
        # series from c = 50 on
        xs = [np.nextafter(0.99, 1.0), 0.995, 1 - 1e-5, 1 - 1e-9, 1 - 1e-12, 1 - 2 ** -52]
        with mp.workdps(40):
            expected = [float(mp.hyp2f1(0.5, 0.5, c, x)) for x in xs]
        np.testing.assert_allclose(hyp2f1_half_half(c, np.array(xs)), expected, rtol=1e-12)

    @pytest.mark.parametrize("c", [1.5, 2.0])
    def test_series_kept_up_to_the_switch(self, c):
        at, above = 0.99, np.nextafter(0.99, 1.0)
        assert hyp2f1_half_half(c, at) == float(exact._power_series(c, np.array(at)))
        assert hyp2f1_half_half(c, above) == pytest.approx(hyp2f1_half_half(c, at),
                                                           rel=1e-12)

    def test_every_c_of_the_callers_is_accepted(self):
        # c = (n + 1)/2 for E[r] and c = n - 1/2 for the density
        for n in range(2, 2001):
            assert math.isfinite(expected_pearson(0.5, n))
        for n in range(4, 2001):
            assert math.isfinite(pearson_density(0.3, 0.5, n))

    def test_domain_errors(self):
        # c must be an integer or half-integer above 1
        for c in (0.5, 1.0, 1.3, 2 + 1e-13, 3 - 1e-9, 7.25, math.nan, math.inf):
            with pytest.raises(InputError):
                hyp2f1_half_half(c, 0.5)
        with pytest.raises(InputError):
            hyp2f1_half_half(4.5, 1.0)


class TestPearsonDensity:
    def test_symmetric_at_zero_population_value(self):
        grid = np.linspace(0.01, 0.97, 25)
        np.testing.assert_allclose(pearson_density(grid, 0.0, 8),
                                   pearson_density(-grid, 0.0, 8), rtol=1e-12)

    def test_matches_closed_null_form(self):
        grid = np.linspace(-0.995, 0.995, 41)
        for n in (4, 5, 12, 60):
            np.testing.assert_allclose(pearson_density(grid, 0.0, n),
                                       _null_pearson_density(grid, n),
                                       rtol=1e-6)

    def test_normalizes_on_standard_grid(self):
        for rho in (0.0, 0.2, 0.4, 0.8):
            for n in (5, 10, 50, 200):
                curve = density_curve(rho, n)
                area = np.trapezoid(curve.density, curve.grid)
                assert area == pytest.approx(1.0, abs=1e-3), (rho, n)

    @pytest.mark.parametrize("rho,n", [(0.8, 5), (0.95, 5)])
    def test_unit_mass_by_adaptive_quadrature(self, rho, n):
        mass, _ = integrate.quad(pearson_density, -1.0, 1.0, args=(rho, n),
                                 epsabs=1e-13, epsrel=1e-13, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_strong_population_value_small_n_is_left_skewed(self):
        curve = density_curve(0.8, 5)
        mode = curve.grid[np.argmax(curve.density)]
        assert mode > 0.8
        below = np.trapezoid(np.where(curve.grid < mode, curve.density, 0.0), curve.grid)
        above = np.trapezoid(np.where(curve.grid >= mode, curve.density, 0.0), curve.grid)
        assert below > above

    def test_monte_carlo_histogram_matches_curve(self):
        # 2e5 draws at (rho=.2, n=5); the full-scale version runs in the
        # acceptance suite
        rho, n, reps = 0.2, 5, 200000
        rng = np.random.default_rng(501)
        x = rng.standard_normal((reps, n))
        y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal((reps, n))
        r = pearson_rows(x, y)
        edges = np.linspace(-1, 1, 41)
        observed = np.histogram(r, bins=edges)[0] / reps
        fine = np.linspace(-1 + 1e-9, 1 - 1e-9, 4001)
        dens = pearson_density(fine, rho, n)
        cdf = np.concatenate([[0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
        cdf /= cdf[-1]
        expected = np.diff(np.interp(edges, fine, cdf))
        se = np.sqrt(expected * (1 - expected) / reps)
        assert np.max(np.abs(observed - expected) / se) < 4.0

    def test_domain_errors(self):
        with pytest.raises(InputError):
            pearson_density(1.0, 0.2, 10)
        with pytest.raises(InputError):
            pearson_density(0.5, 0.2, 3)


class TestExpectedValues:
    # printed reference values, +-.0005
    @pytest.mark.parametrize("rho,n,expected", [
        (0.2, 5, 0.177), (0.2, 20, 0.195), (0.8, 5, 0.754), (0.8, 20, 0.792)])
    def test_expected_pearson_reference_values(self, rho, n, expected):
        assert expected_pearson(rho, n) == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("rho,n,expected", [
        (0.2, 5, 0.160), (0.2, 20, 0.182), (0.8, 5, 0.688), (0.8, 20, 0.758)])
    def test_expected_spearman_reference_values(self, rho, n, expected):
        assert expected_spearman(rho, n) == pytest.approx(expected, abs=5e-4)

    def test_mixture_form_agrees(self):
        for rho in np.linspace(-0.95, 0.95, 13):
            for n in (3, 5, 20, 100, 1000):
                assert expected_spearman(rho, n) == pytest.approx(
                    expected_spearman_from_mix(rho, n), abs=1e-12)

    def test_underestimation_for_positive_values(self):
        for rho in (0.1, 0.3, 0.5, 0.8, 0.95):
            for n in (3, 5, 10, 50, 200):
                assert expected_pearson(rho, n) < rho
                assert expected_spearman(rho, n) < spearman_from_pearson(rho)

    def test_consistency_at_large_n(self):
        for rho in (0.0, 0.2, 0.4, 0.8):
            assert expected_pearson(rho, 1000) == pytest.approx(rho, abs=1e-3)
            assert expected_spearman(rho, 1000) == pytest.approx(
                spearman_from_pearson(rho), abs=1e-3)

    @pytest.mark.parametrize("rho,n", [(0.999999, 3), (0.99999, 3), (-0.9999999999, 4),
                                       (0.995, 10), (0.999, 98)])
    def test_expected_pearson_near_unit_population_value(self, rho, n):
        # the series at x = rho**2 needed over 1e6 terms here
        with mp.workdps(40):
            scale = 2 * mp.exp(2 * (mp.loggamma(mp.mpf(n) / 2) - mp.loggamma(mp.mpf(n - 1) / 2)))
            expected = float(scale / (n - 1) * rho * mp.hyp2f1(0.5, 0.5, mp.mpf(n + 1) / 2,
                                                               mp.mpf(rho) ** 2))
        assert expected_pearson(rho, n) == pytest.approx(expected, rel=1e-12)

    def test_magnitude_never_exceeds_population_value(self):
        for rho in np.linspace(-0.9, 0.9, 10):
            for n in (3, 8, 40):
                assert abs(expected_pearson(rho, n)) <= abs(rho) + 1e-12


class TestConversions:
    def test_reference_values(self):
        assert spearman_from_pearson(0.2) == pytest.approx(0.191, abs=5e-4)
        assert spearman_from_pearson(0.8) == pytest.approx(0.786, abs=5e-4)
        assert kendall_from_pearson(0.2) == pytest.approx(0.128, abs=5e-4)

    def test_fixed_points(self):
        for f in (spearman_from_pearson, kendall_from_pearson, spearman_from_kendall):
            assert f(0.0) == 0.0
            assert f(1.0) == pytest.approx(1.0)
            assert f(-1.0) == pytest.approx(-1.0)

    def test_odd_functions(self):
        grid = np.linspace(0.0, 1.0, 21)
        for f in (spearman_from_pearson, kendall_from_pearson, spearman_from_kendall):
            for v in grid:
                assert f(-v) == pytest.approx(-f(v), abs=1e-15)

    def test_maximum_pearson_spearman_gap(self):
        grid = np.linspace(0.0, 1.0, 2000001)
        gap = grid - 6.0 / np.pi * np.arcsin(0.5 * grid)
        best = np.argmax(gap)
        assert gap[best] == pytest.approx(0.0181, abs=5e-4)
        assert grid[best] == pytest.approx(0.594, abs=2e-3)
        # spot-check the vectorized identity against the scalar function
        assert spearman_from_pearson(grid[best]) == pytest.approx(
            grid[best] - gap[best], abs=1e-12)

    def test_kendall_below_spearman_and_pearson(self):
        for rho in np.linspace(0.05, 0.99, 20):
            rt = kendall_from_pearson(rho)
            assert rt < spearman_from_pearson(rho)
            assert rt < rho

    def test_round_trip_through_kendall(self):
        for rho in np.linspace(-0.99, 0.99, 21):
            rt = kendall_from_pearson(rho)
            assert spearman_from_kendall(rt) == pytest.approx(
                spearman_from_pearson(rho), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            spearman_from_pearson(1.5)


class TestFisher:
    def test_zero_maps_to_zero(self):
        assert fisher_z(0.0) == 0.0

    def test_inverse_identity(self):
        assert fisher_z(math.tanh(1.0)) == pytest.approx(1.0, abs=1e-12)
        for r in np.linspace(-0.99, 0.99, 21):
            assert fisher_z_inverse(fisher_z(r)) == pytest.approx(r, abs=1e-12)

    def test_odd(self):
        for r in np.linspace(0, 0.99, 15):
            assert fisher_z(-r) == -fisher_z(r)

    def test_boundary_rejected(self):
        with pytest.raises(InputError):
            fisher_z(1.0)
        with pytest.raises(InputError):
            fisher_interval(0.5, 3)

    def test_interval_round_trip_and_order(self):
        lo, hi = fisher_interval(0.4, 50)
        assert lo < 0.4 < hi

    def test_empirical_coverage(self):
        # Monte Carlo oracle: 95% intervals at rho=.4, n=50 cover the
        # population value between 94% and 96% of the time
        rho, n, reps = 0.4, 50, 20000
        rng = np.random.default_rng(602)
        x = rng.standard_normal((reps, n))
        y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal((reps, n))
        r = pearson_rows(x, y)
        z = np.arctanh(r)
        crit = 1.959963984540054
        half = crit / math.sqrt(n - 3)
        covered = (np.tanh(z - half) <= rho) & (rho <= np.tanh(z + half))
        assert 0.94 <= covered.mean() <= 0.96

    def test_spearman_interval_is_wider_and_covers(self):
        lo_p, hi_p = fisher_interval(0.4, 50)
        lo_s, hi_s = spearman_interval(0.4, 50)
        assert hi_s - lo_s > hi_p - lo_p

    def test_spearman_interval_empirical_coverage(self):
        from corrlab.estimators import spearman_rows
        rho, n, reps = 0.4, 50, 8000
        pop_s = spearman_from_pearson(rho)
        rng = np.random.default_rng(603)
        x = rng.standard_normal((reps, n))
        y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal((reps, n))
        rs = spearman_rows(x, y)
        z = np.arctanh(rs)
        half = 1.959963984540054 * math.sqrt(1.06 / (n - 3))
        covered = (np.tanh(z - half) <= pop_s) & (pop_s <= np.tanh(z + half))
        assert 0.93 <= covered.mean() <= 0.97
