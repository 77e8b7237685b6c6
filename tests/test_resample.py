"""Tests for CSV ingestion, moments, scale sums, and the resampling study."""

import numpy as np
import pytest

from corrlab.errors import DegenerateSampleError, InfeasibleError, InputError
from corrlab.estimators import correlation_matrix
from corrlab.randgen import RngStream
from corrlab.resample import (PopulationDataset, asvab_like_population,
                              dbq_like_population, ingest_csv, moment_profile,
                              run_study, scale_sums)


@pytest.fixture(scope="module")
def dbq():
    return dbq_like_population()


@pytest.fixture(scope="module")
def asvab():
    return asvab_like_population()


class TestIngestCsv:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        d = ingest_csv(path)
        assert d.n_rows == 3 and d.n_cols == 2
        assert d.column_names == ("a", "b")
        assert d.dropped_rows == 0

    def test_blank_cell_drops_row_and_counts(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1,2\n3,\n5,6\n")
        d = ingest_csv(path)
        assert d.n_rows == 2
        assert d.dropped_rows == 1

    def test_non_numeric_cell_drops_row(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,b\n1,2\nx,4\n5,6\n")
        assert ingest_csv(path).dropped_rows == 1

    def test_constant_column_named(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b\n1,1\n2,1\n3,1\n")
        with pytest.raises(DegenerateSampleError, match="b"):
            ingest_csv(path)

    def test_all_rows_dropped(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nx,y\nu,v\n")
        with pytest.raises(InputError):
            ingest_csv(path)

    def test_missing_file(self):
        with pytest.raises(InputError):
            ingest_csv("/no/such/file.csv")

    def test_alternate_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("a;b\n1;2\n3;4\n")
        assert ingest_csv(path, delimiter=";").n_rows == 2


class TestMomentProfile:
    def test_standard_normal_column(self):
        rng = RngStream(31).generator()
        d = PopulationDataset(("z", "w"),
                              np.column_stack([rng.standard_normal(10 ** 6),
                                               rng.standard_normal(10 ** 6)]))
        prof = moment_profile(d)
        assert prof.skewness[0] == pytest.approx(0.0, abs=0.01)
        assert prof.kurtosis[0] == pytest.approx(3.0, abs=0.03)

    def test_exponential_column(self):
        rng = RngStream(32).generator()
        d = PopulationDataset(("e", "z"),
                              np.column_stack([rng.exponential(size=10 ** 6),
                                               rng.standard_normal(10 ** 6)]))
        prof = moment_profile(d)
        assert prof.skewness[0] == pytest.approx(2.0, abs=0.02)
        assert prof.kurtosis[0] == pytest.approx(9.0, abs=0.3)

    def test_symmetric_two_point_column(self):
        values = np.column_stack([np.tile([-1.0, 1.0], 50),
                                  np.arange(100, dtype=float)])
        prof = moment_profile(PopulationDataset(("pm", "ramp"), values))
        assert prof.skewness[0] == pytest.approx(0.0, abs=1e-12)
        assert prof.kurtosis[0] == pytest.approx(1.0, abs=1e-12)

    def test_moment_inequality(self, dbq):
        prof = moment_profile(dbq)
        assert np.all(prof.kurtosis >= prof.skewness ** 2 + 1.0)


class TestScaleSums:
    def test_single_group_of_everything(self):
        values = np.arange(12, dtype=float).reshape(4, 3) ** 1.5
        d = PopulationDataset(("a", "b", "c"), values)
        summed = scale_sums(d, {"total": ["a", "b", "c"]})
        np.testing.assert_allclose(summed.values[:, 0], values.sum(axis=1))

    def test_singleton_groups_are_identity(self):
        values = np.random.default_rng(5).standard_normal((6, 2))
        d = PopulationDataset(("a", "b"), values)
        summed = scale_sums(d, {"a2": ["a"], "b2": ["b"]})
        np.testing.assert_array_equal(summed.values, values)

    def test_two_groups_match_hand_sums(self):
        values = np.array([[1.0, 2.0, 3.0, 4.0],
                           [5.0, 6.0, 7.0, 8.0],
                           [0.0, 1.0, 0.0, 2.0]])
        d = PopulationDataset(("w", "x", "y", "z"), values)
        summed = scale_sums(d, {"left": ["w", "x"], "right": ["y", "z"]})
        np.testing.assert_allclose(summed.values,
                                   np.column_stack([values[:, :2].sum(1),
                                                    values[:, 2:].sum(1)]))

    def test_unknown_column_rejected(self):
        d = PopulationDataset(("a", "b"), np.random.default_rng(6).standard_normal((5, 2)))
        with pytest.raises(InputError, match="nope"):
            scale_sums(d, {"s": ["a", "nope"]})


class TestSyntheticPopulations:
    def test_dbq_like_is_uniformly_leptokurtic(self, dbq):
        prof = moment_profile(dbq)
        assert dbq.n_cols == 34
        assert np.all(prof.kurtosis > 3.0)
        assert np.all(prof.skewness > 0.5)
        assert prof.kurtosis.max() > 20.0  # heavy ceiling, like real survey floors

    def test_dbq_like_positive_correlations(self, dbq):
        mat = correlation_matrix(dbq)
        iu = np.triu_indices(dbq.n_cols, 1)
        assert np.all(mat[iu] > 0.0)

    def test_asvab_like_is_light_tailed_and_strongly_correlated(self, asvab):
        prof = moment_profile(asvab)
        assert asvab.n_cols == 10
        assert np.all(np.abs(prof.skewness) < 0.1)
        assert np.all((prof.kurtosis > 2.0) & (prof.kurtosis < 2.6))
        mat = correlation_matrix(asvab)
        iu = np.triu_indices(10, 1)
        assert mat[iu].min() > 0.45

    def test_generation_is_deterministic(self):
        a = dbq_like_population(n_rows=500)
        b = dbq_like_population(n_rows=500)
        np.testing.assert_array_equal(a.values, b.values)


class TestRunStudy:
    def test_bootstrap_consistency(self):
        rng = RngStream(41).generator()
        x = rng.standard_normal(400)
        y = 0.6 * x + 0.8 * rng.standard_normal(400)
        d = PopulationDataset(("x", "y"), np.column_stack([x, y]))
        pop = correlation_matrix(d)[0, 1]
        result = run_study(d, sample_size=400, n_samples=2000, master_seed=1)
        assert result.pairs[0].mean_pearson == pytest.approx(pop, abs=0.01)

    def test_aggregates_are_unweighted_pair_means(self, asvab):
        result = run_study(asvab, 50, 200, master_seed=2)
        pairs = result.pairs
        assert result.aggregates["sd_pearson"] == pytest.approx(
            np.mean([p.sd_pearson for p in pairs]), abs=1e-12)
        assert result.aggregates["mad_spearman_vs_pop_pearson"] == pytest.approx(
            np.mean([p.mad_spearman_vs_pop_pearson for p in pairs]), abs=1e-12)
        assert result.aggregates["mean_pearson"] == pytest.approx(
            np.mean([abs(p.mean_pearson) for p in pairs]), abs=1e-12)
        assert result.aggregates["mean_pearson_minus_pop"] == pytest.approx(
            np.mean([p.mean_pearson - p.pop_pearson for p in pairs]), abs=1e-12)

    def test_deterministic_under_seed(self, asvab):
        a = run_study(asvab, 30, 100, master_seed=3)
        b = run_study(asvab, 30, 100, master_seed=3)
        assert a == b

    def test_asvab_like_pearson_is_less_variable_per_pair(self, asvab):
        result = run_study(asvab, 200, 2000, master_seed=4)
        for pair in result.pairs:
            assert pair.sd_pearson < pair.sd_spearman, (pair.column_a, pair.column_b)

    def test_dbq_like_spearman_recovers_pearson_population_better(self, dbq):
        result = run_study(dbq, 200, 2000, master_seed=5)
        prof = moment_profile(dbq)
        kurt = dict(zip(dbq.column_names, prof.kurtosis))
        heavy = [p for p in result.pairs
                 if kurt[p.column_a] + kurt[p.column_b] > 40.0]
        assert heavy
        for pair in heavy:
            assert pair.mad_spearman_vs_pop_pearson < pair.mad_pearson_vs_pop_pearson

    def test_kurtosis_error_association(self, dbq):
        from corrlab.estimators import PairedSample, spearman
        result = run_study(dbq, 200, 1000, master_seed=6)
        prof = moment_profile(dbq)
        kurt = dict(zip(dbq.column_names, prof.kurtosis))
        sums = np.array([kurt[p.column_a] + kurt[p.column_b] for p in result.pairs])
        errs = np.array([p.mad_pearson_vs_pop_pearson for p in result.pairs])
        assoc = spearman(PairedSample(sums, errs)).value
        assert assoc > 0.3

    def test_sample_size_trend_keeps_sign_of_sd_differences(self, dbq):
        results = {n: run_study(dbq, n, 600, master_seed=7) for n in (25, 200, 1000)}
        for n, result in results.items():
            for pair in result.pairs:
                assert pair.sd_pearson > pair.sd_spearman, (n, pair.column_a,
                                                            pair.column_b)
        # redraws happen at the small size and are reproducible
        assert results[25].redraw_count > 0
        again = run_study(dbq, 25, 600, master_seed=7)
        assert again.redraw_count == results[25].redraw_count

    def test_redraw_cap_is_infeasible_and_names_the_column(self):
        # one row in 100,000 breaks the constant: a 2-row sample almost
        # never does, so the first replication exhausts its redraws
        rows = 100_000
        rare = np.zeros(rows)
        rare[0] = 1.0
        d = PopulationDataset(("spread", "rare"),
                              np.column_stack([np.arange(rows, dtype=float), rare]))
        with pytest.raises(InfeasibleError, match="'rare'"):
            run_study(d, sample_size=2, n_samples=2)

    def test_validation(self, asvab):
        with pytest.raises(InputError):
            run_study(asvab, 1, 100)
        with pytest.raises(InputError):
            run_study(asvab, 50, 1)
