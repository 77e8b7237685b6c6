"""Tests for CSV ingestion, moments, scale sums, and the resampling study."""

import csv
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from corrlab import estimators, resample
from corrlab.eigen import eigen_study
from corrlab.errors import DegenerateSampleError, InfeasibleError, InputError
from corrlab.estimators import _correlation_core, _level_ranks, correlation_matrix
from corrlab.randgen import CHUNK_REPS, MarginalSpec, RngStream, _transform
from corrlab.resample import (_MATRIX_KINDS, _PAIR_COLUMNS, TABLE_STATISTICS, PopulationDataset,
                              _level_codes, _MeanSD, _replicate, asvab_like_population,
                              dbq_like_population, ingest_csv, moment_profile, run_study,
                              scale_sums)


@pytest.fixture(scope="module")
def dbq():
    return dbq_like_population()


@pytest.fixture(scope="module")
def asvab():
    return asvab_like_population()


@pytest.fixture(scope="module")
def survey():
    """Skewed 4-, 5- and 7-point items from one latent factor; two 7-point
    items run from -3 to 3."""
    rng = RngStream(77).generator()
    latent = 0.6 * rng.standard_normal((3000, 1)) + 0.8 * rng.standard_normal((3000, 6))
    points = np.array([4, 5, 7, 4, 5, 7])
    codes = np.minimum((ndtr(latent) ** 4 * points).astype(int), points - 1)
    values = codes + np.array([1, 1, -3, 0, 1, -3])
    return PopulationDataset(tuple(f"q{j}" for j in range(6)), values.astype(float))


def _ingest_by_cells(path, delimiter):
    """ingest_csv's rules, read with csv.reader and float() cell by cell."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records = list(csv.reader(handle, delimiter=delimiter))
    if not records:
        raise InputError(f"{path}: file is empty")
    names = tuple(name.strip() for name in records[0])
    kept = []
    for record in records[1:]:
        try:
            parsed = [float(cell) for cell in record]
        except ValueError:
            continue
        if len(parsed) == len(names) and all(math.isfinite(v) for v in parsed):
            kept.append(parsed)
    dropped = len(records) - 1 - len(kept)
    if not kept:
        raise InputError(f"{path}: no usable numeric rows ({dropped} dropped)")
    if len(kept) < 2:
        raise InputError(f"{path}: need at least two usable rows")
    return PopulationDataset(names, np.array(kept), dropped_rows=dropped)


def _outcome(read, path, delimiter):
    """What a reader makes of a file: the names, the value bytes and the
    dropped count, or the error's class and message; a warning is an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = read(path, delimiter)
    except (InputError, DegenerateSampleError) as exc:
        return type(exc), str(exc)
    return d.column_names, d.values.shape, d.values.tobytes(), d.dropped_rows


# cells that both float() and numpy's C reader read, with padded cells and
# the exotic separators that csv keeps inside a line; then cells that only
# float() reads and cells that neither reads
_NUMBERS = ["1", "2", "3", "-3.5", "0.25", "1e2", "-0", "+.5", "1e400", "nan", "inf",
            " 4 ", "\t5", "6\x0b", "\x0c7", "8\x85", "\u20289"]
_OTHER_CELLS = ["", "x", "#", "2#", "1_0", '"6"', "\u0661", "\uff11", "1\x00"]
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _delimited_files(draw):
    """(text, delimiter): a header and up to eight lines, with mixed line
    endings and with or without a final one, or a file with no text.  Half
    the files are grids of numbers; the rest mix in other cells and
    wrong-width, blank and whitespace-only lines."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    if draw(st.integers(0, 20)) == 0:
        return "", delimiter
    width = draw(st.integers(1, 3))
    grid = draw(st.booleans())
    cells = st.sampled_from(_NUMBERS if grid else _NUMBERS + _OTHER_CELLS)
    lines = [delimiter.join(f"c{j}" for j in range(width)) + draw(_ENDINGS)]
    for _ in range(draw(st.integers(0, 8))):
        n = width if grid else draw(st.sampled_from([width] * 4 + [0, width - 1, width + 1]))
        line = delimiter.join(draw(st.lists(cells, min_size=n, max_size=n)))
        if n == 0:
            line = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(line + draw(_ENDINGS))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines), delimiter


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

    @pytest.mark.parametrize("cells", [
        ["1_0", " 2 ", "+1.5", "-0", "1e400", "nan", "inf", "3"],
        ["1_0", " 2 ", "+1.5", "-0", "1e400", "nan", "inf", "", "x", "3"]],
        ids=["all-parsable", "unparsable"])
    def test_values_and_drops_match_per_cell_float(self, tmp_path, cells):
        rng = np.random.default_rng(23)
        records = [list(rng.choice(cells, 3)) for _ in range(300)]
        records += [["4", "5"], ["4", "5", "6", "7"], ["1", "2", "3"], ["2", "1", "3.5"]]
        path = tmp_path / "cells.csv"
        path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in records))
        # the value bytes: -0 keeps its sign
        assert _outcome(ingest_csv, path, ",") == _outcome(_ingest_by_cells, path, ",")

    @settings(max_examples=400, deadline=None)
    @given(case=_delimited_files())
    def test_matches_csv_reader_and_per_cell_float(self, case):
        text, delimiter = case
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "cells.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert (_outcome(ingest_csv, path, delimiter)
                    == _outcome(_ingest_by_cells, path, delimiter))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_numeric_grid_skips_the_per_cell_parse(self, tmp_path, monkeypatch, ending):
        def per_cell(record):
            raise AssertionError("a numeric grid reached the per-cell parse")
        monkeypatch.setattr(resample, "_parsed_or_nan", per_cell)
        path = tmp_path / "grid.csv"
        path.write_text(ending.join(["a,b", "1,-0", " 2,1e400", "3.5,nan", "4,5"]),
                        newline="")
        d = ingest_csv(path)
        assert d.values.tobytes() == np.array([[1.0, -0.0], [4.0, 5.0]]).tobytes()
        assert d.dropped_rows == 2

    @pytest.mark.parametrize("body,dropped", [("", 0), ("\n", 1), ("\n\r\n\r", 3),
                                              (" \n\t\n", 2)],
                             ids=["header-only", "empty-line", "empty-lines", "whitespace"])
    def test_empty_body_is_an_input_error_without_warnings(self, tmp_path, body, dropped):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=rf"no usable numeric rows \({dropped} dropped"):
                ingest_csv(path)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,b\n1,2\n3,5\n".encode("utf-8-sig"))
        assert ingest_csv(path).column_names == ("a", "b")

    def test_repeated_column_name_rejected(self):
        values = np.random.default_rng(7).standard_normal((5, 3))
        with pytest.raises(InputError, match="'a' appears more than once"):
            PopulationDataset(("a", "b", "a"), values)


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

    def test_refuses_values_whose_fourth_powers_overflow(self):
        values = np.column_stack([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 1e100]])
        with pytest.raises(InputError, match="column 'b'.*normal range"):
            moment_profile(PopulationDataset(("a", "b"), values))
        values[:, 1] = [1e-100, 2e-100, 4e-100, 8e-100]  # m2**2 underflows: kurtosis was NaN
        with pytest.raises(InputError, match="column 'b'.*normal range"):
            moment_profile(PopulationDataset(("a", "b"), values))
        values[:, 1] = [1.0, 2.0, 3.0, -2e75]  # m4 near 4e300: every moment stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = moment_profile(PopulationDataset(("a", "b"), values))
        assert np.isfinite([prof.sd, prof.skewness, prof.kurtosis]).all()
        assert prof.kurtosis[1] == pytest.approx(7.0 / 3.0)  # a two-point 3:1 column

    def test_matches_exact_rational_moments(self):
        values = np.array([[0, 3, -2], [1, 3, 5], [1, 7, 1], [2, -4, 1], [5, 0, 0],
                           [9, 1, -6], [1, 2, 2]], dtype=float)
        prof = moment_profile(PopulationDataset(("a", "b", "c"), values))
        for j, column in enumerate(values.T.astype(int).tolist()):
            mean = Fraction(sum(column), len(column))
            m2, m3, m4 = (sum((v - mean) ** k for v in column) / len(column)
                          for k in (2, 3, 4))
            assert prof.mean[j] == float(mean)
            assert prof.sd[j] ** 2 == pytest.approx(float(m2), rel=1e-14)
            # skewness is m3 / m2**1.5: compare its square, a rational, and its sign
            assert prof.skewness[j] ** 2 == pytest.approx(float(m3 ** 2 / m2 ** 3), rel=1e-14)
            assert np.sign(prof.skewness[j]) == np.sign(m3)
            assert prof.kurtosis[j] == pytest.approx(float(m4 / m2 ** 2), rel=1e-14)

    def test_survey_moments_match_exact_rational_moments(self, dbq):
        # 9,000 rows of six-point items: summed down the columns one row at a
        # time, skewness and kurtosis were off by up to 7e-13 relative
        prof = moment_profile(dbq)
        for j, column in enumerate(dbq.values.T.astype(int).tolist()):
            n = len(column)
            e1, e2, e3, e4 = (Fraction(sum(v ** k for v in column), n) for k in (1, 2, 3, 4))
            m2 = e2 - e1 ** 2
            m3 = e3 - 3 * e1 * e2 + 2 * e1 ** 3
            m4 = e4 - 4 * e1 * e3 + 6 * e1 ** 2 * e2 - 3 * e1 ** 4
            assert prof.mean[j] == float(e1)
            assert prof.sd[j] == pytest.approx(math.sqrt(m2), rel=1e-14)
            assert prof.skewness[j] == pytest.approx(
                math.copysign(math.sqrt(m3 ** 2 / m2 ** 3), m3), rel=1e-14)
            assert prof.kurtosis[j] == pytest.approx(float(m4 / m2 ** 2), rel=1e-14)

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

    def test_sums_that_overflow_name_their_scale_without_warnings(self):
        d = PopulationDataset(("a", "b"), np.array([[1e308, 1e308], [1.0, 2.0], [3.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="scale 'both'"):
                scale_sums(d, {"first": ["a"], "both": ["a", "b"]})


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
        a = dbq_like_population()
        b = dbq_like_population()
        np.testing.assert_array_equal(a.values, b.values)


class TestReplicationLayout:
    @pytest.mark.parametrize("kind", _MATRIX_KINDS)
    @pytest.mark.parametrize("population", ["dbq", "asvab"])
    def test_stacked_tables_match_per_table_matrices(self, request, population, kind):
        dataset = request.getfixturevalue(population)
        picks = RngStream(12).generator().integers(0, dataset.n_rows, (7, 200))
        tables = dataset.values[picks]
        stacked = _correlation_core(tables, kind)
        per_table = np.stack([_correlation_core(table, kind) for table in tables])
        assert stacked.shape == per_table.shape
        assert stacked.tobytes() == per_table.tobytes()

    @staticmethod
    def _matrices(dataset, n_samples):
        blocks = list(_replicate(dataset, 5, n_samples, 9, _level_codes(dataset.values, 5)))
        return (np.concatenate([matrices for matrices, _ in blocks]),
                sum(redraws for _, redraws in blocks))

    def test_replication_does_not_depend_on_n_samples(self):
        # a 5-row sample draws no 1 (or only 1s) a third of the time, so
        # many replications are redrawn
        rare = np.repeat([0.0, 1.0], [16, 4])
        d = PopulationDataset(("spread", "rare"), np.column_stack([np.arange(20.0), rare]))
        r = 300
        short, redraws = self._matrices(d, r)
        long, _ = self._matrices(d, CHUNK_REPS + r)
        assert redraws > 0
        assert short.shape == (r, len(_MATRIX_KINDS), 2, 2)
        assert long.shape == (CHUNK_REPS + r, len(_MATRIX_KINDS), 2, 2)
        np.testing.assert_array_equal(short, long[:r])


class TestRunStudy:
    def test_bootstrap_consistency(self):
        rng = RngStream(41).generator()
        x = rng.standard_normal(400)
        y = 0.6 * x + 0.8 * rng.standard_normal(400)
        d = PopulationDataset(("x", "y"), np.column_stack([x, y]))
        pop = correlation_matrix(d)[0, 1]
        result = run_study(d, sample_size=400, n_samples=2000, master_seed=1)
        assert result.pairs["mean_pearson"][0] == pytest.approx(pop, abs=0.01)

    def test_aggregates_are_unweighted_pair_means(self, asvab):
        result = run_study(asvab, 50, 200, master_seed=2)
        pairs = result.pairs
        assert result.aggregates["sd_pearson"] == pytest.approx(
            np.mean(pairs["sd_pearson"]), abs=1e-12)
        assert result.aggregates["mad_spearman_vs_pop_pearson"] == pytest.approx(
            np.mean(pairs["mad_spearman_vs_pop_pearson"]), abs=1e-12)
        assert result.aggregates["mean_pearson"] == pytest.approx(
            np.mean(np.abs(pairs["mean_pearson"])), abs=1e-12)
        assert result.aggregates["mean_pearson_minus_pop"] == pytest.approx(
            np.mean(pairs["mean_pearson"] - pairs["pop_pearson"]), abs=1e-12)

    def test_deterministic_under_seed(self, asvab):
        a = run_study(asvab, 30, 100, master_seed=3)
        b = run_study(asvab, 30, 100, master_seed=3)
        assert _study_bytes(a) == _study_bytes(b)

    def test_asvab_like_pearson_is_less_variable_per_pair(self, asvab):
        pairs = run_study(asvab, 200, 2000, master_seed=4).pairs
        assert _pairs_where(pairs, ~(pairs["sd_pearson"] < pairs["sd_spearman"])) == []

    def test_dbq_like_spearman_recovers_pearson_population_better(self, dbq):
        pairs = run_study(dbq, 200, 2000, master_seed=5).pairs
        heavy = _kurtosis_sums(dbq, pairs) > 40.0
        assert heavy.any()
        better = pairs["mad_spearman_vs_pop_pearson"] < pairs["mad_pearson_vs_pop_pearson"]
        assert _pairs_where(pairs, heavy & ~better) == []

    def test_kurtosis_error_association(self, dbq):
        from corrlab.estimators import PairedSample, spearman
        pairs = run_study(dbq, 200, 1000, master_seed=6).pairs
        sums = _kurtosis_sums(dbq, pairs)
        errs = pairs["mad_pearson_vs_pop_pearson"]
        assoc = spearman(PairedSample(sums, errs)).value
        assert assoc > 0.3

    def test_sample_size_trend_keeps_sign_of_sd_differences(self, dbq):
        results = {n: run_study(dbq, n, 600, master_seed=7) for n in (25, 200, 1000)}
        for n, result in results.items():
            pairs = result.pairs
            assert _pairs_where(pairs, ~(pairs["sd_pearson"] > pairs["sd_spearman"])) == [], n
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

    def test_sample_sums_out_of_range_name_the_first_replication_and_column(self):
        # a 20-row sample that misses every 1.0 of column 'a' has a sum of squares
        # near 1e-320; at seed 2 the first is replication 2403, in the second block
        rows = 400
        a = np.where(np.arange(rows) % 10 < 7, (np.arange(rows) % 6 + 1) * 1e-160, 1.0)
        d = PopulationDataset(("spread", "a"), np.column_stack([np.arange(rows, dtype=float), a]))
        message = r"replication 2403 at sample size 20: .* column 'a' .*normal range"
        for study in (run_study, lambda *args, **kw: eigen_study(*args, k=1, **kw)):
            with pytest.raises(InputError, match=message):
                study(d, 20, 5000, master_seed=2)
            study(d, 20, 2403, master_seed=2)  # every replication before it is in range

    def test_validation(self, asvab):
        with pytest.raises(InputError):
            run_study(asvab, 1, 100)
        with pytest.raises(InputError):
            run_study(asvab, 50, 1)


class TestRankPaths:
    @pytest.mark.parametrize("sample_size", [6, 200])
    def test_counted_and_sorted_levels_give_equal_spearman_bytes(self, dbq, sample_size):
        # 0.5 v + 0.25 orders and ties the items as v does, but is not integral,
        # so its Spearman matrices rank by sorting where v's count levels; the
        # Pearson outputs differ in their last bits and are not compared
        mapped = PopulationDataset(dbq.column_names, 0.5 * dbq.values + 0.25)
        assert _level_ranks(dbq.values.T) is not None and _level_ranks(mapped.values.T) is None
        study = [run_study(d, sample_size, 150, master_seed=2) for d in (dbq, mapped)]
        assert study[0].redraw_count == study[1].redraw_count
        for name in ("pop_spearman", "mean_spearman", "sd_spearman",
                     "mad_spearman_vs_pop_spearman"):
            values = [s.pairs[name] for s in study]
            assert values[0].tobytes() == values[1].tobytes(), name
        eigen = [eigen_study(d, sample_size, 150, master_seed=2) for d in (dbq, mapped)]
        assert eigen[0].redraw_count == eigen[1].redraw_count
        for name in ("mean_spearman", "sd_spearman", "population_spearman"):
            assert getattr(eigen[0], name).tobytes() == getattr(eigen[1], name).tobytes(), name


class TestPairReduction:
    """run_study reduces only the pairs a < b; its columns keep the bits of
    the full p x p reduction's upper triangle."""

    @staticmethod
    def _square_reduction(dataset, sample_size, n_samples, seed):
        """The study's statistics as p x p matrices, reduced over whole
        matrices, and the number of blocks reduced."""
        levels, pop = resample._population(dataset, sample_size)
        moments = _MeanSD(pop.shape)
        abs_dev = np.zeros((len(_MATRIX_KINDS),) + pop.shape)
        blocks = 0
        for matrices, _ in _replicate(dataset, sample_size, n_samples, seed, levels):
            blocks += 1
            moments.add(matrices)
            abs_dev += np.abs(matrices[:, :, None] - pop).sum(axis=0)
        means, sds = moments.mean_sd()
        stats = {}
        for a, kind in enumerate(_MATRIX_KINDS):
            stats.update({f"pop_{kind}": pop[a], f"mean_{kind}": means[a], f"sd_{kind}": sds[a],
                          f"mean_{kind}_minus_pop": means[a] - pop[a]})
            for b, pop_kind in enumerate(_MATRIX_KINDS):
                stats[f"mad_{kind}_vs_pop_{pop_kind}"] = abs_dev[a, b] / float(n_samples)
        return stats, blocks

    # dbq draws level codes, asvab floats; each runs three blocks
    @pytest.mark.parametrize("population, sample_size, n_samples", [
        ("dbq", 25, 200), ("dbq", 200, 30), ("asvab", 50, 300)])
    def test_pair_columns_equal_the_upper_triangle_bit_for_bit(
            self, request, population, sample_size, n_samples):
        dataset = request.getfixturevalue(population)
        assert (_level_codes(dataset.values, sample_size) is None) == (population == "asvab")
        stats, blocks = self._square_reduction(dataset, sample_size, n_samples, 9)
        assert blocks >= 2
        result = run_study(dataset, sample_size, n_samples, master_seed=9)
        assert list(result.pairs) == list(_PAIR_COLUMNS)
        iu, ju = np.triu_indices(dataset.n_cols, k=1)
        assert result.pairs["column_a"] == [dataset.column_names[i] for i in iu]
        assert result.pairs["column_b"] == [dataset.column_names[j] for j in ju]
        upper = {name: matrix[iu, ju] for name, matrix in stats.items()}
        for name in _PAIR_COLUMNS[2:]:
            assert upper[name].tobytes() == result.pairs[name].tobytes(), name
        plain_means = {f"mean_{kind}" for kind in _MATRIX_KINDS}
        expected = [np.mean(np.abs(upper[name]) if name in plain_means else upper[name])
                    for name in TABLE_STATISTICS]
        assert np.array(expected).tobytes() == \
            np.array([result.aggregates[name] for name in TABLE_STATISTICS]).tobytes()


def _one_shot_matrices(levels, tables):
    """``_LevelCodes.matrices`` with every cell indexed and gathered at once."""
    count, n, p = tables.shape
    width = levels.levels.shape[1]
    cells = tables + np.arange(0, count * p * width, width).reshape(count, 1, p)
    counts = np.bincount(cells.ravel(), minlength=count * p * width).reshape(count, p, width)
    means = (counts * levels.levels).sum(axis=-1, keepdims=True) / n
    centred = (levels.levels - means, estimators._mid_ranks(counts) - 0.5 * (n + 1))
    return [estimators._centered_correlation(np.take(t, cells).swapaxes(1, 2)) for t in centred]


class TestBlockedPasses:
    """The whole-table passes run in blocks of ``_BLOCK_VALUES`` values and keep
    the bits of the one-shot formulas kept here as references."""

    @staticmethod
    def _one_shot_moments(values):
        columns = np.ascontiguousarray(values.T)
        mean = columns.mean(axis=1)
        centered = columns - mean[:, None]
        squared = centered * centered
        m2 = squared.mean(axis=1)
        sd = np.sqrt(m2)
        return (mean, sd, (squared * centered).mean(axis=1) / sd ** 3,
                (squared * squared).mean(axis=1) / m2 ** 2)

    # a 9,000-row table reduces 7 columns per block; 70,000 rows reduce one
    @pytest.mark.parametrize("shape", [(9000, 34), (9000, 7), (9000, 1), (70_000, 3)],
                             ids=["blocks-and-remainder", "one-block", "one-column",
                                  "column-per-block"])
    def test_moment_profile_keeps_the_one_shot_bits(self, shape):
        cols = shape[1]
        assert resample._BLOCK_VALUES // 9000 == 7 and resample._BLOCK_VALUES // 70_000 == 0
        values = np.exp(RngStream(61).generator().standard_normal(shape))
        profile = moment_profile(PopulationDataset(tuple(f"c{j}" for j in range(cols)), values))
        expected = self._one_shot_moments(values)
        got = (profile.mean, profile.sd, profile.skewness, profile.kurtosis)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    @pytest.mark.parametrize("refused, named", [((16, 30), "item17"), ((33,), "item34")])
    def test_a_refusal_in_a_later_block_names_the_first_refused_column(self, dbq, refused,
                                                                       named):
        values = dbq.values.copy()
        values[:2, refused[0]] = [1e100, -1e100]  # m4 overflows
        values[:, refused[1:]] *= 1e-100  # m2**2 underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"column '{named}'.*normal range"):
                moment_profile(PopulationDataset(dbq.column_names, values))

    # dbq gathers its codes in five row blocks, survey in one; the 2**17 + 1-row
    # tables take the float matrices, asvab's ranks two blocks of five columns
    @pytest.mark.parametrize("population, sample_size", [
        ("dbq", 200), ("survey", 25), ("asvab", 200), ("long-integers", 5), ("long-floats", 5)])
    def test_population_keeps_the_one_shot_bits(self, request, population, sample_size):
        if population.startswith("long"):
            rng = RngStream(62).generator()
            values = rng.integers(0, 4, (2 ** 17 + 1, 3)).astype(float)
            if population == "long-floats":
                values += rng.standard_normal(values.shape)
            dataset = PopulationDataset(("a", "b", "c"), values)
        else:
            dataset = request.getfixturevalue(population)
        codes = _level_codes(dataset.values, sample_size)
        levels, pop = resample._population(dataset, sample_size)
        if population in ("dbq", "survey"):
            expected = np.concatenate(_one_shot_matrices(codes, codes.codes[None]))
        else:
            expected = np.stack([_correlation_core(dataset.values, kind)
                                 for kind in _MATRIX_KINDS])
        assert pop.tobytes() == expected.tobytes()
        floats = population in ("asvab", "long-floats")
        assert (codes is None) == (levels is None) == floats
        if not floats:
            assert levels.codes.tobytes() == codes.codes.tobytes()

    @pytest.mark.parametrize("step", [1, 7, 199, 200, None])
    def test_level_matrices_keep_their_bits_in_any_row_blocks(self, dbq, step):
        levels = _level_codes(dbq.values, 200)
        tables = levels.codes[RngStream(63).generator().integers(0, dbq.n_rows, (5, 200))]
        assert [m.tobytes() for m in levels.matrices(tables, step)] == \
            [m.tobytes() for m in _one_shot_matrices(levels, tables)]

    def test_synthetic_populations_keep_their_values(self, dbq, asvab):
        rng = RngStream(resample.ASVAB_LIKE_SEED).generator()
        shares, half_width = np.linspace(0.50, 0.85, 10), math.sqrt(3.0)
        factor = rng.uniform(-half_width, half_width, size=12000)
        noise = rng.uniform(-half_width, half_width, size=(12000, 10))
        table = np.sqrt(shares) * factor[:, None] + np.sqrt(1.0 - shares) * noise
        assert asvab.values.tobytes() == table.tobytes()
        rng = RngStream(resample.DBQ_LIKE_SEED).generator()
        loadings = np.linspace(0.45, 0.75, 34)
        factor = rng.standard_normal(9000)
        latent = loadings * factor[:, None] + np.sqrt(1.0 - loadings ** 2) * \
            rng.standard_normal((9000, 34))
        floor_mass = np.linspace(0.50, 0.95, 34)[
            np.argsort(np.tile([0, 2, 1, 3], 9)[:34], kind="stable")]
        columns = np.empty_like(latent)
        for j in range(34):
            marginal = MarginalSpec.likert(resample._survey_thresholds(floor_mass[j]))
            columns[:, j] = _transform(marginal, latent[:, j])
        assert dbq.values.tobytes() == columns.tobytes()

    @pytest.mark.parametrize("members", [1, 10, 34])
    def test_scale_sums_keep_the_one_shot_bits(self, members):
        # 34 members sum in blocks of 1,927 rows, 10 in blocks of 6,553
        values = RngStream(64).generator().standard_normal((9000, 34))
        dataset = PopulationDataset(tuple(f"c{j}" for j in range(34)), values)
        groups = {f"s{k}": [f"c{(k + 3 * j) % 34}" for j in range(members)] for k in range(3)}
        expected = np.column_stack([values[:, [(k + 3 * j) % 34 for j in range(members)]]
                                    .sum(axis=1) for k in range(3)])
        assert scale_sums(dataset, groups).values.tobytes() == expected.tobytes()


class TestPeakMemory:
    """The whole-table passes hold at most the table, its level codes and
    one table-sized result beside block-sized temporaries."""

    TABLES = {"floats": lambda rng: rng.standard_normal((200_000, 20)),
              "integers": lambda rng: rng.integers(1, 7, (100_000, 34)).astype(float)}

    @pytest.fixture(scope="class", params=list(TABLES))
    def table(self, request):
        values = self.TABLES[request.param](RngStream(65).generator())
        return PopulationDataset(tuple(f"c{j}" for j in range(values.shape[1])), values)

    @staticmethod
    def _peak_above_start(fn, *args):
        """The traced peak, in bytes, above what was held when ``fn`` started;
        numpy reports its buffers to tracemalloc."""
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    def test_moment_profile(self, table):
        assert self._peak_above_start(moment_profile, table) <= 0.1 * table.values.nbytes + 4e6

    def test_population(self, table):
        floats = table.n_cols == 20
        assert (_level_codes(table.values, 200) is None) == floats
        peak = self._peak_above_start(resample._population, table, 200)
        assert peak <= 1.25 * table.values.nbytes + 4e6


def _pairs_where(pairs, mask):
    """The (column_a, column_b) names of the pairs where ``mask`` is set."""
    return [(pairs["column_a"][i], pairs["column_b"][i]) for i in np.flatnonzero(mask)]


def _kurtosis_sums(dataset, pairs):
    """Each pair's sum of its two columns' kurtoses."""
    kurt = dict(zip(dataset.column_names, moment_profile(dataset).kurtosis))
    return np.array([kurt[a] + kurt[b] for a, b in zip(pairs["column_a"], pairs["column_b"])])


def _study_bytes(result):
    return ([(name, np.asarray(column).tobytes()) for name, column in result.pairs.items()],
            np.array(list(result.aggregates.values())).tobytes(), result.redraw_count)


def _eigen_bytes(summary):
    return [np.asarray(getattr(summary, f.name)).tobytes() for f in fields(summary)]


def _replicate_bytes(dataset, sample_size, n_samples=300):
    levels = resample._level_codes(dataset.values, sample_size)  # None when a test patches it
    blocks = list(_replicate(dataset, sample_size, n_samples, 4, levels))
    return (np.concatenate([matrices for matrices, _ in blocks]).tobytes(),
            sum(redraws for _, redraws in blocks))


class TestLevelCodes:
    """Integer populations resample from level codes, every other one from
    its values, and both give the same bits."""

    @staticmethod
    def _force_float_path(monkeypatch):
        monkeypatch.setattr(resample, "_level_codes", lambda values, sample_size: None)

    @pytest.mark.parametrize("population, sample_size", [
        ("dbq", 6), ("dbq", 25), ("dbq", 200), ("survey", 25), ("survey", 200)])
    def test_level_and_sorted_paths_give_equal_bytes(self, request, monkeypatch,
                                                     population, sample_size):
        dataset = request.getfixturevalue(population)
        assert _level_codes(dataset.values, sample_size) is not None
        study = run_study(dataset, sample_size, 150, master_seed=8)
        eigen = eigen_study(dataset, sample_size, 150, master_seed=8)
        if sample_size < 200:
            assert study.redraw_count > 0
        self._force_float_path(monkeypatch)
        assert _study_bytes(run_study(dataset, sample_size, 150, master_seed=8)) == \
            _study_bytes(study)
        assert _eigen_bytes(eigen_study(dataset, sample_size, 150, master_seed=8)) == \
            _eigen_bytes(eigen)

    def test_level_path_neither_ranks_nor_centres_a_block(self, dbq, monkeypatch):
        calls = []
        for module, name in ((estimators, "rank_rows"), (resample, "_correlation_core")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        assert len(list(_replicate(dbq, 200, 100, 1, _level_codes(dbq.values, 200)))) > 1
        assert calls == []
        list(_replicate(dbq, 200, 100, 1, None))
        assert set(calls) == {"rank_rows", "_correlation_core"}

    def test_codes_take_the_narrowest_unsigned_type(self, dbq):
        assert _level_codes(dbq.values, 200).codes.dtype == np.uint8
        wide = np.column_stack([np.arange(300.0), np.arange(300.0) % 7])
        assert _level_codes(wide, 300).codes.dtype == np.uint16

    # 2**53 // 200 * 200 < 2**53 <= (2**53 // 200 + 1) * 200
    NEAR = float(2 ** 53 // 200)

    @pytest.mark.parametrize("column, sample_size, selected", [
        (np.arange(20.0), 20, True),
        (np.arange(20.0), 19, False),  # spans 19: not less than the sample size
        (np.arange(20.0) + (np.arange(20) == 7) * 0.5, 20, False),  # 7.5 is no integer
        (np.where(np.arange(20) == 7, -0.0, np.arange(20.0) - 7), 20, False),
        (NEAR - np.arange(20.0) % 6, 200, True),
        (NEAR + 1 - np.arange(20.0) % 6, 200, False),  # 200 * max|v| reaches 2**53
        (np.arange(20.0) % 6 - NEAR - 1, 200, False),
    ], ids=["span-below-n", "span-n", "fraction", "negative-zero", "below-2**53",
            "at-2**53", "negative-at-2**53"])
    def test_selection_rule(self, monkeypatch, column, sample_size, selected):
        dataset = PopulationDataset(("a", "b"), np.column_stack([column, np.arange(20.0) % 3]))
        assert (_level_codes(dataset.values, sample_size) is not None) == selected
        if selected:  # near 2**53 the Pearson means are still exact sums
            counted = _replicate_bytes(dataset, sample_size)
            self._force_float_path(monkeypatch)
            assert _replicate_bytes(dataset, sample_size) == counted

    @pytest.mark.parametrize("sample_size, selected", [(2 ** 17 - 1, True), (2 ** 17, False)])
    def test_sample_size_keeps_the_spearman_sums_exact(self, sample_size, selected):
        # centred mid-rank sums reach about n**3/12 in steps of 1/4
        values = np.column_stack([np.arange(20.0), np.arange(20.0) % 3])
        assert (_level_codes(values, sample_size) is not None) == selected

    @staticmethod
    def _population_and_core_calls(monkeypatch, dataset, sample_size):
        calls = []
        core = resample._correlation_core
        monkeypatch.setattr(resample, "_correlation_core",
                            lambda *args: calls.append(args) or core(*args))
        return resample._population(dataset, sample_size)[1], len(calls)

    # near: 200 * max|v| < 2**53 <= 300 * max|v|; long: 2**17 rows
    @pytest.mark.parametrize("population, sample_size, from_codes", [
        ("dbq", 200, True), ("survey", 25, True), ("short", 100, True),
        ("asvab", 200, False), ("near", 200, False), ("long", 5, False)])
    def test_population_matrices_equal_correlation_matrix(self, request, monkeypatch,
                                                          population, sample_size, from_codes):
        rows = {"short": 40, "near": 300, "long": 2 ** 17}.get(population)
        if rows is None:
            dataset = request.getfixturevalue(population)
        else:
            top = self.NEAR if population == "near" else 3.0
            dataset = PopulationDataset(("a", "b"), np.column_stack(
                [top - np.arange(rows) % 4, np.arange(rows) % 3 - 1.0]))
        assert (_level_codes(dataset.values, sample_size) is None) == (population == "asvab")
        expected = np.stack([correlation_matrix(dataset, kind) for kind in _MATRIX_KINDS])
        pop, core_calls = self._population_and_core_calls(monkeypatch, dataset, sample_size)
        assert pop.tobytes() == expected.tobytes()
        # floats: the core gives Pearson; _population ranks and centres the Spearman columns
        assert core_calls == (0 if from_codes else 1)

    @pytest.mark.parametrize("study", [run_study, eigen_study])
    def test_level_codes_run_once_per_study(self, dbq, monkeypatch, study):
        calls = []
        codes = resample._level_codes
        monkeypatch.setattr(resample, "_level_codes",
                            lambda *args: calls.append(args) or codes(*args))
        study(dbq, 25, 50, master_seed=3)
        assert len(calls) == 1

    def test_redraw_cap_names_the_same_column_and_replication(self, monkeypatch):
        # 60 ones in 20,000 rows: most 2-row samples redraw, and replication
        # 38 of seed 0 exhausts its redraws
        rows = 20_000
        rare = (np.arange(rows) < 60).astype(float)
        d = PopulationDataset(("spread", "rare"), np.column_stack([np.arange(rows) % 2.0, rare]))
        assert _level_codes(d.values, 2) is not None

        def message():
            with pytest.raises(InfeasibleError, match=r"replication 38 .*'rare'") as caught:
                run_study(d, sample_size=2, n_samples=300)
            return str(caught.value)

        counted = message()
        self._force_float_path(monkeypatch)
        assert message() == counted
