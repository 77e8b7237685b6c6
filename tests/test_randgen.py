"""Tests for seeded streams, marginal quantiles, and copula calibration."""

import math

import numpy as np
import pytest
from scipy import special

from corrlab import cli
from corrlab.errors import InfeasibleError, InputError, NumericError
from corrlab.estimators import (_SHORT_ROW, PairedSample, _varies, pearson, pearson_rows,
                                spearman)
from corrlab.randgen import (CALIBRATION_VERSION, CHUNK_REPS, DEFAULT_LIKERT_THRESHOLDS,
                             MarginalSpec, PopulationSpec, RngStream, _chi_square_exact,
                             _chi_square_table, _couple, _pairs, _replication_blocks, _transform,
                             calibrate_copula, sample_bivariate_normal, sample_population)
from corrlab.resample import _survey_thresholds


def sample_moments(v):
    c = v - v.mean()
    m2 = (c ** 2).mean()
    return (c ** 3).mean() / m2 ** 1.5, (c ** 4).mean() / m2 ** 2


class TestRngStream:
    def test_identical_address_identical_draws(self):
        a = RngStream(99, (1, 2, 3)).generator().standard_normal(1000)
        b = RngStream(99).child(1, 2).child(3).generator().standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_disjoint_paths_pass_independence_check(self):
        a = RngStream(99).child(0).generator().standard_normal(100000)
        b = RngStream(99).child(1).generator().standard_normal(100000)
        r = pearson(PairedSample(a, b)).value
        assert abs(r) < 0.01

    def test_different_seeds_differ(self):
        a = RngStream(1).generator().standard_normal(10)
        b = RngStream(2).generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_normal_generation_quality(self):
        v = RngStream(7).child(5).generator().standard_normal(10 ** 6)
        assert abs(v.mean()) < 4.0 / math.sqrt(10 ** 6)
        _, kurt = sample_moments(v)
        assert kurt == pytest.approx(3.0, abs=0.05)


def _normal_pairs(rng, rows):
    return _pairs(PopulationSpec.bivariate_normal(0.3), rng, rows, 6)


def _level_picks(rng, rows):
    # three levels at n = 4: a variable is constant in one draw of 27
    return rng.integers(0, 3, (rows, 2, 4))


def _constant(sample):
    return ~_varies(sample)


class TestReplicationBlocks:
    REPS = CHUNK_REPS + 300

    def _run(self, draw, block, seed=3):
        blocks = list(_replication_blocks(RngStream(seed), self.REPS, draw, _constant,
                                          ("x", "y"), "here", block))
        return (np.concatenate([sample for sample, _ in blocks]),
                sum(failed for _, failed in blocks), max(len(sample) for sample, _ in blocks))

    @pytest.mark.parametrize("draw", [_normal_pairs, _level_picks])
    def test_block_size_moves_no_value(self, draw):
        whole, failed, _ = self._run(draw, CHUNK_REPS)
        assert (failed > 0) == (draw is _level_picks)
        for block in (1, 7, 275):
            sample, block_failed, largest = self._run(draw, block)
            assert largest == block
            assert sample.tobytes() == whole.tobytes() and block_failed == failed

    def test_a_redrawn_replication_comes_from_its_path_in_the_chunk(self):
        sample, _, _ = self._run(_level_picks, 275, seed=5)
        first = _level_picks(RngStream(5).child(1).generator(), 300)
        flagged = _constant(first).any(axis=1)
        assert flagged.any()
        np.testing.assert_array_equal(sample[CHUNK_REPS:][~flagged], first[~flagged])
        for i in np.flatnonzero(flagged):
            rng = RngStream(5).child(1, i).generator()
            redrawn = _level_picks(rng, 1)
            while _constant(redrawn).any():
                redrawn = _level_picks(rng, 1)
            np.testing.assert_array_equal(sample[CHUNK_REPS + i], redrawn[0])


class TestBivariateNormal:
    def test_perfect_correlation_is_elementwise_equality(self):
        s = sample_bivariate_normal(1.0, 500, RngStream(3))
        np.testing.assert_array_equal(s.x, s.y)

    def test_zero_correlation_large_sample(self):
        s = sample_bivariate_normal(0.0, 10 ** 6, RngStream(4))
        assert abs(pearson(s).value) < 0.004

    def test_large_sample_consistency(self):
        s = sample_bivariate_normal(0.2, 10 ** 7, RngStream(5))
        assert pearson(s).value == pytest.approx(0.200, abs=1e-3)

    def test_rho_out_of_range(self):
        for rho in (1.5, math.nan):
            with pytest.raises(InputError, match=rf"^rho must lie in \[-1, 1\], got {rho}$"):
                sample_bivariate_normal(rho, 10, RngStream(0))


class TestMarginalQuantiles:
    def test_exponential_closed_form(self):
        m = MarginalSpec.exponential()
        assert m.quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_chi_square_two_df_is_exponential_with_mean_two(self):
        m_chi = MarginalSpec.chi_square(2)
        m_exp = MarginalSpec.exponential()
        for u in (0.05, 0.3, 0.5, 0.9, 0.999):
            assert m_chi.quantile(u) == pytest.approx(2.0 * m_exp.quantile(u),
                                                      rel=1e-10)

    def test_chi_square_round_trip(self):
        m = MarginalSpec.chi_square(5)
        for u in (1e-6, 0.01, 0.5, 0.99, 1 - 1e-6):
            x = m.quantile(u)
            assert special.gammainc(2.5, x / 2.0) == pytest.approx(u, abs=1e-10)

    @pytest.mark.parametrize("df", [1, 5, 32])
    def test_chi_square_tails_keep_relative_accuracy(self, df):
        m = MarginalSpec.chi_square(df)
        lower = 1e-12
        got = special.gammainc(0.5 * df, 0.5 * m.quantile(lower))
        assert abs(got - lower) <= 1e-12 * lower
        upper = 1.0 - 1e-12
        tail = 1.0 - upper
        got = special.gammaincc(0.5 * df, 0.5 * m.quantile(upper))
        assert abs(got - tail) <= 1e-12 * tail

    def test_normal_quantile_round_trip(self):
        m = MarginalSpec.standard_normal()
        for u in (0.001, 0.25, 0.5, 0.975):
            assert special.ndtr(m.quantile(u)) == pytest.approx(u, abs=1e-12)

    def test_uniform_is_identity(self):
        assert MarginalSpec.uniform().quantile(0.37) == 0.37

    def test_likert_threshold_lookup(self):
        m = MarginalSpec.likert((0.5, 0.75))
        assert m.quantile(0.2) == 1.0
        assert m.quantile(0.6) == 2.0
        assert m.quantile(0.9) == 3.0

    def test_quantile_domain(self):
        with pytest.raises(InputError):
            MarginalSpec.exponential().quantile(0.0)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            MarginalSpec("chi_square")  # df missing
        with pytest.raises(InputError):
            MarginalSpec.likert((0.7, 0.3))
        with pytest.raises(InputError):
            MarginalSpec("nope")

    @pytest.mark.parametrize("df", [math.nan, math.inf, -math.inf, 0.5])
    def test_chi_square_needs_a_finite_df_of_at_least_one(self, df):
        with pytest.raises(InputError, match="finite df >= 1"):
            MarginalSpec.chi_square(df)


class TestNormalMap:
    """``_transform``: latent standard normals straight to each marginal."""

    @pytest.mark.parametrize("df", [1.0, 2.0, 5.0, 32.0, 100.0])
    def test_chi_square_table_matches_exact_split_map(self, df):
        m = MarginalSpec.chi_square(df)
        z = np.linspace(-8.5, 8.5, 200001)
        got = _transform(m, z)
        np.testing.assert_allclose(got, _chi_square_exact(df, z), rtol=1e-11, atol=0)
        assert np.all(np.diff(got) > 0)
        assert _chi_square_table(df) is not None

    @pytest.mark.parametrize("df", [1.0, 2.0, 32.0])
    def test_chi_square_beyond_the_table_is_exact(self, df):
        beyond = np.array([-30.0, -9.0, -8.5000001, 8.5000001, 9.0, 30.0])
        z = np.concatenate([beyond, [-1.0, 0.0, 1.0]])
        got = _transform(MarginalSpec.chi_square(df), z)
        np.testing.assert_array_equal(got[:beyond.size], _chi_square_exact(df, beyond))
        assert np.all(np.diff(got[:beyond.size]) > 0)

    def test_chi_square_without_a_table_is_exact(self):
        # the node values of so large a df round together
        assert _chi_square_table(1e50) is None
        z = np.linspace(-3.0, 3.0, 7)
        np.testing.assert_array_equal(_transform(MarginalSpec.chi_square(1e50), z),
                                      _chi_square_exact(1e50, z))

    def test_exponential_upper_tail(self):
        z = np.array([10.0, 30.0, 40.0])
        assert special.ndtr(-40.0) == 0.0
        np.testing.assert_allclose(_transform(MarginalSpec.exponential(), z),
                                   -special.log_ndtr(-z), rtol=1e-14, atol=0)

    def test_exponential_lower_tail_is_positive_zero(self):
        got = _transform(MarginalSpec.exponential(), np.array([-9.0, -40.0]))
        np.testing.assert_array_equal(got, 0.0)
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("marginal", [MarginalSpec.exponential(),
                                          MarginalSpec.chi_square(1),
                                          MarginalSpec.chi_square(32)],
                             ids=["exponential", "chi2_1", "chi2_32"])
    def test_far_upper_values_are_finite(self, marginal):
        # ndtr(9) rounds to 1, which quantile refuses
        assert special.ndtr(9.0) == 1.0
        got = _transform(marginal, np.array([8.0, 9.0]))
        assert np.all(np.isfinite(got)) and got[1] > got[0]

    def test_normal_is_the_identity(self):
        z = np.array([-40.0, 0.3, 40.0])
        assert _transform(MarginalSpec.standard_normal(), z) is z

    @pytest.mark.parametrize("marginal", [MarginalSpec.uniform(), MarginalSpec.likert()],
                             ids=["uniform", "likert"])
    def test_uniform_and_likert_keep_their_quantile(self, marginal):
        z = RngStream(19).generator().standard_normal(1000)
        np.testing.assert_array_equal(_transform(marginal, z),
                                      marginal.quantile(special.ndtr(z)))

    @pytest.mark.parametrize("marginal", [MarginalSpec.uniform(), MarginalSpec.likert()],
                             ids=["uniform", "likert"])
    def test_uniform_and_likert_at_extreme_z(self, marginal):
        # ndtr rounds to 0 at -40 and to 1 at 8.5 and 40, where quantile refuses
        z = np.array([-40.0, -38.0, -8.5, 0.0, 8.0, 8.5, 40.0])
        u = special.ndtr(z)
        assert u[0] == 0.0 and (u[-2:] == 1.0).all()
        got = _transform(marginal, z)
        inside = (u > 0.0) & (u < 1.0)
        np.testing.assert_array_equal(got[inside], marginal.quantile(u[inside]))
        low, high = (0.0, 1.0) if marginal.family == "uniform" else (1.0, 6.0)
        np.testing.assert_array_equal(got[[0, -2, -1]], [low, high, high])
        assert np.all(np.diff(got) >= 0)

    @pytest.fixture(scope="class")
    def normals(self):
        return RngStream(23).generator().standard_normal(10 ** 6)

    # the default cut points and those of the dbq-like population's 34 floors
    @pytest.mark.parametrize("thresholds", [DEFAULT_LIKERT_THRESHOLDS] + [
        _survey_thresholds(floor) for floor in np.linspace(0.50, 0.95, 34)],
        ids=["default"] + [f"floor{floor:.4f}" for floor in np.linspace(0.50, 0.95, 34)])
    def test_likert_cuts_in_z_match_the_count_of_thresholds_at_or_below_u(self, normals,
                                                                        thresholds):
        expected = 1.0 + np.searchsorted(thresholds, special.ndtr(normals), side="right")
        np.testing.assert_array_equal(_transform(MarginalSpec.likert(thresholds), normals),
                                      expected)

    def test_likert_z_at_a_cut_point_takes_the_upper_category(self):
        cuts = special.ndtri(np.array(DEFAULT_LIKERT_THRESHOLDS))
        z = np.concatenate([np.nextafter(cuts, -np.inf), cuts])
        np.testing.assert_array_equal(_transform(MarginalSpec.likert(), z),
                                      np.concatenate([np.arange(1.0, 6.0), np.arange(2.0, 7.0)]))


# float.hex() of (latent_rho, pop_pearson) of two cheap calibrations, per
# CALIBRATION_VERSION: a change that moves calibrated values must raise the
# version, or caches of the old values would still load
_CALIBRATION_FINGERPRINT = {
    3: {"exponential": ("0x1.cfffe1975f2cbp-2", "0x1.9947567ad5620p-2"),
        "chi_square(df=1)": ("0x1.fdffde939eadep-2", "0x1.9a332a9264d3cp-2")},
}


def test_calibration_fingerprint_matches_version():
    got = {}
    for marginal in (MarginalSpec.exponential(), MarginalSpec.chi_square(1)):
        spec = calibrate_copula(marginal, 0.4, calibration_n=10 ** 4,
                                stream=RngStream(cli.CALIBRATION_SEED))
        got[marginal.describe()] = (spec.latent_rho.hex(), spec.pop_pearson.hex())
    assert got == _CALIBRATION_FINGERPRINT.get(CALIBRATION_VERSION), (
        f"calibrated values moved: raise CALIBRATION_VERSION and update this "
        f"fingerprint (got {got})")


class TestCalibration:
    def test_normal_marginals_recover_the_target(self):
        spec = calibrate_copula(MarginalSpec.standard_normal(), 0.3,
                                calibration_n=10 ** 6, stream=RngStream(11))
        assert spec.latent_rho == pytest.approx(0.3, abs=2e-3)
        assert spec.pop_pearson == pytest.approx(0.3, abs=1e-3)

    def test_exponential_marginal_moments(self):
        spec = calibrate_copula(MarginalSpec.exponential(), 0.4,
                                calibration_n=10 ** 6, stream=RngStream(12))
        assert abs(spec.pop_pearson - 0.4) <= 1e-3
        sample = sample_population(spec, 10 ** 6, RngStream(13))
        skew, kurt = sample_moments(sample.x)
        assert skew == pytest.approx(2.0, abs=0.01)
        assert kurt == pytest.approx(9.0, abs=0.2)

    def test_chi_square_32_marginal_moments(self):
        spec = calibrate_copula(MarginalSpec.chi_square(32), 0.4,
                                calibration_n=10 ** 5, stream=RngStream(14))
        sample = sample_population(spec, 10 ** 6, RngStream(15))
        skew, kurt = sample_moments(sample.x)
        assert skew == pytest.approx(0.50, abs=0.02)
        assert kurt == pytest.approx(3.38, abs=0.1)

    def test_unattainable_target_is_infeasible(self):
        # the countermonotone bound of two exponentials is 1 - pi^2/6, about
        # -.645, so -.9 cannot be reached
        with pytest.raises(InfeasibleError, match="unattainable"):
            calibrate_copula(MarginalSpec.exponential(), -0.9,
                             calibration_n=10 ** 4, stream=RngStream(16))

    @pytest.mark.parametrize("df", [1e50, 1e300])
    def test_constant_marginal_sample_is_a_numeric_error(self, df):
        # at these df the chi-square quantiles round to one float64 value;
        # at 1e300 the centered products overflow as well
        m = MarginalSpec.chi_square(df)
        with pytest.raises(NumericError, match="no finite Pearson coefficient"):
            calibrate_copula(m, 0.2, calibration_n=1000, stream=RngStream(18))

    def test_objective_monotone_in_latent_correlation(self):
        from corrlab.randgen import _transform
        from corrlab.estimators import pearson_rows
        rng = RngStream(17).generator()
        z1 = rng.standard_normal(200000)
        z0 = rng.standard_normal(200000)
        m = MarginalSpec.exponential()
        achieved = []
        for latent in np.linspace(-0.95, 0.95, 15):
            zy = latent * z1 + math.sqrt(1 - latent * latent) * z0
            achieved.append(pearson_rows(_transform(m, z1)[None], _transform(m, zy)[None])[0])
        assert np.all(np.diff(achieved) > 0)


FAMILIES = [MarginalSpec.standard_normal(), MarginalSpec.exponential(),
            MarginalSpec.chi_square(1), MarginalSpec.uniform(), MarginalSpec.likert()]


def _latent(marginal, rho=0.6):
    return PopulationSpec(marginal, target_pearson=0.5, latent_rho=rho, pop_pearson=0.5,
                          pop_spearman=0.5)


class TestPairsLayout:
    """Short-row chunks are held variable-major; no value depends on it."""

    @pytest.mark.parametrize("marginal", FAMILIES, ids=lambda m: m.family)
    @pytest.mark.parametrize("rows", [1, 5, 4096])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_pairs_equal_the_row_major_reference(self, n, rows, marginal):
        spec = _latent(marginal, rho=-0.35)
        z = RngStream(51, (n, rows)).generator().standard_normal((rows, 2, n))
        rho = spec.latent_rho
        z[:, 1] = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
        want = _transform(marginal, z)
        got = _pairs(spec, RngStream(51, (n, rows)).generator(), rows, n)
        assert got.shape == (rows, 2, n) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("marginal", FAMILIES, ids=lambda m: m.family)
    @pytest.mark.parametrize("n", [2, _SHORT_ROW, _SHORT_ROW + 1])
    def test_short_rows_are_contiguous_planes(self, n, marginal):
        pairs = _pairs(_latent(marginal), RngStream(52).generator(), 300, n)
        short = n <= _SHORT_ROW
        for v in (0, 1):
            assert pairs[:, v].T.flags.c_contiguous == short
        assert pairs.flags.c_contiguous == (not short)

    def test_couple_writes_only_its_second_argument(self):
        z1, z2 = RngStream(53).generator().standard_normal((2, 1000))
        before = z1.copy()
        want = 0.3 * z1 + np.sqrt(1.0 - 0.09) * z2
        got = _couple(0.3, z1, z2)
        assert got is z2 and got.tobytes() == want.tobytes()
        assert z1.tobytes() == before.tobytes()

    @pytest.mark.parametrize("marginal", [MarginalSpec.exponential(), MarginalSpec.uniform()],
                             ids=lambda m: m.family)
    def test_calibration_keeps_its_common_random_numbers(self, marginal):
        stream = RngStream(54)
        spec = calibrate_copula(marginal, 0.4, calibration_n=5000, stream=stream)
        assert calibrate_copula(marginal, 0.4, calibration_n=5000, stream=stream) == spec
        # the recorded Pearson is that of the untouched normals at the final latent
        rng = stream.generator()
        z1 = rng.standard_normal(5000)
        z0 = rng.standard_normal(5000)
        rho = spec.latent_rho
        y = _transform(marginal, rho * z1 + np.sqrt(1.0 - rho * rho) * z0)
        assert pearson_rows(_transform(marginal, z1)[None], y[None])[0] == spec.pop_pearson


class TestSamplePopulation:
    def test_normal_marginals_reduce_to_bivariate_normal(self):
        spec = PopulationSpec.bivariate_normal(0.35)
        direct = sample_bivariate_normal(0.35, 1000, RngStream(21).child(4))
        via_population = sample_population(spec, 1000, RngStream(21).child(4))
        np.testing.assert_array_equal(direct.x, via_population.x)
        np.testing.assert_array_equal(direct.y, via_population.y)

    def test_exponential_population_hits_calibrated_value(self):
        spec = calibrate_copula(MarginalSpec.exponential(), 0.4,
                                calibration_n=10 ** 6, stream=RngStream(22))
        s = sample_population(spec, 10 ** 6, RngStream(23))
        assert pearson(s).value == pytest.approx(spec.pop_pearson, abs=5e-3)

    def test_spearman_invariant_under_marginal_swap(self):
        # the coupling is monotone, so replacing a marginal by a strictly
        # increasing transform of it leaves Spearman untouched
        exp_spec = calibrate_copula(MarginalSpec.exponential(), 0.4,
                                    calibration_n=10 ** 5, stream=RngStream(24))
        s = sample_population(exp_spec, 5000, RngStream(25))
        transformed = PairedSample(np.exp(s.x), s.y)
        assert spearman(transformed).value == pytest.approx(spearman(s).value,
                                                            abs=1e-12)

    def test_population_values_by_kind(self):
        spec = PopulationSpec.bivariate_normal(0.2)
        assert spec.population_value("pearson") == 0.2
        assert spec.population_value("spearman") == pytest.approx(0.19131, abs=1e-5)
        assert spec.population_value("kendall") == pytest.approx(0.12819, abs=1e-5)
        with pytest.raises(InputError):
            spec.population_value("other")
