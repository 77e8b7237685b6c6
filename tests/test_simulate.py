"""Tests for the Monte Carlo sweep engine."""

import struct
from pathlib import Path

import numpy as np
import pytest

from corrlab import cli, simulate
from corrlab.errors import InfeasibleError, InputError
from corrlab.estimators import KINDS, kendall_rows, pearson_rows, spearman_rows
from corrlab.exact import kendall_from_pearson, spearman_from_pearson
from corrlab.randgen import CHUNK_REPS, MarginalSpec, PopulationSpec, RngStream
from corrlab.simulate import (SUMMARY_COLUMNS, SimulationPlan, logspace_sizes,
                              replication_chunks, run_plan)


class TestLogspaceSizes:
    def test_paper_style_sweep(self):
        sizes = logspace_sizes(5, 1000, 25)
        assert len(sizes) == 25
        assert len(set(sizes)) == 25
        assert sizes[0] == 5 and sizes[-1] == 1000
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_exact_log_midpoint(self):
        assert logspace_sizes(10, 1000, 3) == (10, 100, 1000)

    def test_degenerate_range_rejected(self):
        with pytest.raises(InputError):
            logspace_sizes(5, 5, 3)

    def test_too_many_sizes_rejected(self):
        with pytest.raises(InputError):
            logspace_sizes(5, 10, 10)

    def test_dense_low_end_still_distinct(self):
        sizes = logspace_sizes(2, 12, 11)
        assert sizes == tuple(range(2, 13))


def _plan(sizes=(20,), reps=2000, kinds=("pearson", "spearman")):
    return SimulationPlan(sizes, replications=reps, coefficients=kinds)


def _normal(rho=0.2):
    return PopulationSpec.bivariate_normal(rho)


def _two_category_population():
    marginal = MarginalSpec.likert((0.5,))
    return PopulationSpec(marginal, target_pearson=0.0, latent_rho=0.0,
                          pop_pearson=0.0, pop_spearman=0.0)


def rows_of(table):
    """A summary table's rows, each a dict of ``SUMMARY_COLUMNS``."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


class TestRunCell:
    """One-size plans: cell 0 of ``RngStream(k)`` draws from ``RngStream(k).child(0)``."""

    def test_zero_condition_is_unbiased(self):
        plan = _plan(sizes=(50,), reps=20000)
        table = run_plan(plan, _normal(0.0), stream=RngStream(1))
        by_kind = dict(zip(table["kind"], table["mean"]))
        assert by_kind["pearson"] == pytest.approx(0.0, abs=0.005)
        assert by_kind["spearman"] == pytest.approx(0.0, abs=0.005)

    def test_small_sample_bias_matches_theory(self):
        plan = _plan(sizes=(5,), reps=20000)
        table = run_plan(plan, _normal(0.2), stream=RngStream(2))
        by_kind = dict(zip(table["kind"], table["mean"]))
        assert by_kind["pearson"] == pytest.approx(0.177, abs=0.01)
        assert by_kind["spearman"] == pytest.approx(0.160, abs=0.01)

    def test_single_replication_has_no_sd(self):
        plan = _plan(reps=1)
        table = run_plan(plan, _normal(), stream=RngStream(0))
        assert table["sd"] == ["", ""]
        assert table["p5"] == table["p95"] == table["mean"]

    def test_rmse_identity(self):
        plan = _plan(reps=3000)
        for row in rows_of(run_plan(plan, _normal(), stream=RngStream(3))):
            reps = plan.replications
            lhs = row["rmse"] ** 2
            rhs = row["sd"] ** 2 * (reps - 1) / reps + row["bias"] ** 2
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_percentiles_bracket_mean(self):
        plan = _plan(reps=2000)
        for row in rows_of(run_plan(plan, _normal(), stream=RngStream(4))):
            assert row["p5"] <= row["mean"] <= row["p95"]

    def test_degenerate_draws_are_redrawn_and_counted(self):
        # two-category marginal at n=4: a constant draw is common
        plan = SimulationPlan((4,), replications=500, coefficients=("pearson",))
        table = run_plan(plan, _two_category_population(), stream=RngStream(5))
        assert table["redraw_count"][0] > 0

    def test_hopeless_condition_is_infeasible(self):
        # nearly all mass on one category: n=3 draws are almost always constant
        marginal = MarginalSpec.likert((0.999,))
        population = PopulationSpec(marginal, target_pearson=0.0,
                                    latent_rho=0.0, pop_pearson=0.0,
                                    pop_spearman=0.0)
        plan = SimulationPlan((3,), replications=50, coefficients=("pearson",))
        with pytest.raises(InfeasibleError, match=r"replication \d+ exceeded 1000 redraws "
                                                  r"at n=3; column '[xy]' keeps degenerating"):
            run_plan(plan, population, stream=RngStream(6))


class TestRunPlan:
    def test_kernels_are_looked_up_on_each_call(self, monkeypatch):
        # a kernel replaced on the module, as a tracer does, is the one run
        calls = []

        def spy(name, kernel):
            def wrapped(x, y):
                calls.append((name, x.shape))
                return kernel(x, y)
            return wrapped

        monkeypatch.setattr(simulate, "kendall_rows", spy("kendall", kendall_rows))
        monkeypatch.setattr(simulate, "spearman_rows", spy("spearman", spearman_rows))
        run_plan(_plan(sizes=(10, 20), reps=200, kinds=("pearson", "spearman", "kendall")),
                 _normal())
        assert sorted(calls) == [(kind, (200, n)) for kind in ("kendall", "spearman")
                                 for n in (10, 20)]

    def test_rows_cover_every_cell(self):
        plan = _plan(sizes=(10, 20), reps=200, kinds=("pearson", "spearman", "kendall"))
        table = run_plan(plan, _normal())
        assert set(zip(table["n"], table["kind"])) == {
            (n, k) for n in (10, 20) for k in ("pearson", "spearman", "kendall")}

    def test_seed_determinism_and_thread_independence(self):
        plan = _plan(sizes=(10, 30), reps=500)
        table_a = run_plan(plan, _normal(), stream=RngStream(7))
        table_b = run_plan(plan, _normal(), stream=RngStream(7))
        table_c = run_plan(plan, _normal(), threads=4, stream=RngStream(7))
        assert table_a == table_b == table_c

    def test_different_seeds_differ(self):
        table_a = run_plan(_plan(reps=200), _normal(), stream=RngStream(1))
        table_b = run_plan(_plan(reps=200), _normal(), stream=RngStream(2))
        assert table_a != table_b

    @staticmethod
    def _rows(population, n, reps, seed):
        chunks = list(replication_chunks(population, n, reps, RngStream(seed).child(0)))
        x, y = (np.concatenate([chunk[i] for chunk in chunks]) for i in (0, 1))
        return x, y, sum(chunk[2] for chunk in chunks)

    @pytest.mark.parametrize("population,n,redrawn", [
        (PopulationSpec.bivariate_normal(0.2), 15, False),
        (_two_category_population(), 4, True)], ids=["normal", "two-category"])
    def test_replication_does_not_depend_on_reps(self, population, n, redrawn):
        r = 300
        x_a, y_a, redraws = self._rows(population, n, r, seed=8)
        x_b, y_b, _ = self._rows(population, n, CHUNK_REPS + r, seed=8)
        np.testing.assert_array_equal(x_a, x_b[:r])
        np.testing.assert_array_equal(y_a, y_b[:r])
        assert (redraws > 0) == redrawn

    def test_chunks_draw_different_rows(self):
        x, y, _ = self._rows(PopulationSpec.bivariate_normal(0.2), 15, 2 * CHUNK_REPS, seed=8)
        assert not np.isin(x[CHUNK_REPS:], x[:CHUNK_REPS]).any()
        assert not np.isin(y[CHUNK_REPS:], y[:CHUNK_REPS]).any()

    def test_sd_shrinks_with_sample_size(self):
        plan = _plan(sizes=(10, 40, 160), reps=4000)
        table = run_plan(plan, _normal(), stream=RngStream(9))
        sds = [sd for kind, sd in zip(table["kind"], table["sd"]) if kind == "pearson"]
        assert sds[0] > sds[1] > sds[2]

    def test_kendall_mean_tracks_population_conversion(self):
        plan = _plan(sizes=(100,), reps=4000, kinds=("kendall",))
        row = rows_of(run_plan(plan, _normal(), stream=RngStream(10)))[0]
        assert row["mean"] == pytest.approx(kendall_from_pearson(0.2), abs=0.01)
        # bias = mean - population value
        assert row["mean"] - row["bias"] == pytest.approx(kendall_from_pearson(0.2))

    def test_population_values_recorded_per_kind(self):
        plan = _plan(sizes=(12,), reps=50, kinds=("pearson", "spearman"))
        by_kind = {row["kind"]: row
                   for row in rows_of(run_plan(plan, _normal(), stream=RngStream(11)))}
        # bias = mean - population value, one float64 subtraction
        assert by_kind["pearson"]["bias"] == by_kind["pearson"]["mean"] - 0.2
        assert by_kind["spearman"]["bias"] == pytest.approx(
            by_kind["spearman"]["mean"] - spearman_from_pearson(0.2))

    def test_plan_validation(self):
        with pytest.raises(InputError):
            _plan(sizes=())
        with pytest.raises(InputError):
            _plan(sizes=(1,))
        with pytest.raises(InputError):
            _plan(kinds=("nope",))
        with pytest.raises(InputError):
            _plan(reps=0)


def float_bits(table):
    """A summary table's columns in order, floats as their IEEE-754 bytes."""
    return [(name, [struct.pack("<d", v) if isinstance(v, float) else v for v in column])
            for name, column in table.items()]


def sorted_table(rows):
    """The summary table of row dicts, its rows sorted by (n, kind)."""
    rows = sorted(rows, key=lambda r: (r["n"], r["kind"]))
    return {name: [row[name] for row in rows] for name in SUMMARY_COLUMNS}


def one_cell_reference(plan, population, n, cell_stream):
    """A cell's rows from its replications alone, as dicts in plan order: 1-d
    numpy statistics of the public row kernels' values, the summary before
    sweeps were batched."""
    chunks = list(replication_chunks(population, n, plan.replications, cell_stream))
    kernels = {"pearson": pearson_rows, "spearman": spearman_rows, "kendall": kendall_rows}
    redraws = sum(chunk[2] for chunk in chunks)
    rows = []
    for kind in plan.coefficients:
        values = np.concatenate([kernels[kind](x, y) for x, y, _ in chunks])
        pop = population.population_value(kind)
        mean = float(values.mean())
        p5, p95 = np.percentile(values, [5.0, 95.0])
        rows.append({
            "condition": population.label, "kind": kind, "n": n, "mean": mean,
            "sd": float(values.std(ddof=1)) if values.size > 1 else "",
            "p5": float(p5), "p95": float(p95), "bias": mean - pop,
            "rmse": float(np.sqrt(np.mean((values - pop) ** 2))), "redraw_count": redraws})
    return rows


class TestBatchedSummaries:
    """run_plan summarises every cell of a kind in one call; each row must
    have the bits of the cell summarised alone, whatever the thread count."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("reps,sizes,kinds", [
        *(pytest.param(reps, (5, 8, 30, 60) if reps < CHUNK_REPS else (5, 60),
                       ("kendall", "pearson", "spearman"), id=str(reps))
          for reps in (1, 2, 100, CHUNK_REPS + 1)),
        # rows still come sorted by (n, kind)
        pytest.param(300, (40, 5, 8), ("spearman", "kendall", "pearson"), id="unsorted")])
    def test_plan_rows_equal_cell_rows(self, reps, sizes, kinds, threads):
        plan = _plan(sizes=sizes, reps=reps, kinds=kinds)
        population = _normal(0.3)
        stream = RngStream(12)
        table = run_plan(plan, population, threads=threads, stream=stream)
        cells = [one_cell_reference(plan, population, n, stream.child(i))
                 for i, n in enumerate(sizes)]
        assert float_bits(table) == float_bits(sorted_table(row for cell in cells for row in cell))
        assert all((sd == "") == (reps == 1) for sd in table["sd"])

    @pytest.mark.parametrize("reps", [1, 2, 100, CHUNK_REPS + 1])
    def test_cell_rows_equal_one_dimensional_statistics(self, reps):
        plan = _plan(sizes=(30,), reps=reps, kinds=("kendall", "pearson", "spearman"))
        population = _normal(0.3)
        table = run_plan(plan, population, stream=RngStream(13))
        reference = one_cell_reference(plan, population, 30, RngStream(13).child(0))
        assert float_bits(table) == float_bits(sorted_table(reference))

    def test_redraw_counts_stay_with_their_cells(self):
        plan = SimulationPlan((4, 5, 30), replications=100)
        population = _two_category_population()
        table = run_plan(plan, population, threads=2, stream=RngStream(14))
        reference = [row for i, n in enumerate(plan.sample_sizes)
                     for row in one_cell_reference(plan, population, n, RngStream(14).child(i))]
        assert float_bits(table) == float_bits(sorted_table(reference))
        assert table["redraw_count"][0] > table["redraw_count"][-1]


class TestBlockBudget:
    """A cell of size n runs blocks of ``_BLOCK_VALUES // n`` rows.  Budgets
    that make blocks of 1, 7 and 275 rows move no value, redraw count or
    error: a block has the rows of one chunk-wide draw, and every kernel
    reduces each row on its own."""

    SIZES = (5, 20)  # the short-row and long-row kernels
    REPS = CHUNK_REPS + 4  # two chunks, the second one short
    POPULATIONS = {
        "normal": _normal(0.3),
        "exponential": PopulationSpec(MarginalSpec.exponential(), 0.4, 0.4462904, 0.4, 0.0),
        # three-quarters of the mass on one of six levels: ties everywhere, and
        # constant draws redrawn, a quarter of them at n = 5 and a few at n = 20
        "likert": PopulationSpec(MarginalSpec.likert(), 0.3, 0.35, 0.3, 0.3)}

    @staticmethod
    def _blocked(monkeypatch, n, rows, run):
        """``run()`` with a budget of ``rows`` rows at size n, and the largest
        number of rows drawn at once."""
        drawn = []
        pairs = simulate._pairs

        def recorded(spec, rng, count, size):
            drawn.append(count)
            return pairs(spec, rng, count, size)

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_BLOCK_VALUES", rows * n)
            patch.setattr(simulate, "_pairs", recorded)
            return run(), max(drawn)

    @pytest.mark.parametrize("rows", [1, 7, 275])
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("population", list(POPULATIONS))
    def test_run_plan_keeps_its_bits(self, monkeypatch, population, n, rows):
        plan = _plan(sizes=(n,), reps=self.REPS, kinds=KINDS)
        spec = self.POPULATIONS[population]

        def run():
            return run_plan(plan, spec, stream=RngStream(16))

        table, largest = self._blocked(monkeypatch, n, rows, run)
        assert largest == rows
        assert float_bits(table) == float_bits(run())
        assert (table["redraw_count"][0] > 0) == (population == "likert")

    @pytest.mark.parametrize("rows", [1, 7, 275])
    @pytest.mark.parametrize("n", SIZES)
    def test_density_histogram_keeps_its_bits(self, monkeypatch, n, rows):
        def run():
            return cli._density_histogram(0.5, n, self.REPS, 17)

        histogram, largest = self._blocked(monkeypatch, n, rows, run)
        assert largest == rows
        for kind in ("pearson", "spearman"):  # the short last chunk is binned too
            assert histogram[f"fraction_{kind}"].sum() == pytest.approx(1.0, abs=1e-12)
        for name, column in run().items():
            assert np.asarray(histogram[name]).tobytes() == np.asarray(column).tobytes(), name

    def test_redraw_cap_names_the_same_replication(self, monkeypatch):
        # two levels, 97.5 % on the lower: at n = 3, replication 111 is the
        # first whose x keeps coming out constant past the cap
        population = PopulationSpec(MarginalSpec.likert((0.975,)), 0.0, 0.0, 0.0, 0.0)
        plan = SimulationPlan((3,), replications=300, coefficients=("pearson",))

        def error():
            with pytest.raises(InfeasibleError) as raised:
                run_plan(plan, population, stream=RngStream(6))
            return str(raised.value)

        message = error()
        assert message == ("replication 111 exceeded 1000 redraws at n=3; "
                           "column 'x' keeps degenerating")
        for rows in (1, 7, 275):
            assert self._blocked(monkeypatch, 3, rows, error) == (message, rows)


class TestRankInvariance:
    """Every continuous marginal map is strictly increasing where draws land,
    so its images rank as the latent normals do: at one stream, the Spearman
    and Kendall replications equal the normal population's at the latent rho."""

    LATENT = 0.4462904  # the exponential's latent rho at target Pearson .4
    SIZES = (5, 7, 8, 213, 1000)  # short-row (n <= 7) and long-row kernels

    @pytest.mark.parametrize("seed", [7, 29])
    @pytest.mark.parametrize("marginal", [MarginalSpec.exponential()] + [
        MarginalSpec.chi_square(df) for df in (1, 2, 32)], ids=lambda m: m.describe())
    def test_rank_rows_equal_the_normal_populations(self, marginal, seed):
        plan = SimulationPlan(self.SIZES, replications=300, coefficients=KINDS)
        population = PopulationSpec(marginal, 0.4, self.LATENT, 0.4, 0.0)
        rows = rows_of(run_plan(plan, population, stream=RngStream(seed)))
        normal = rows_of(run_plan(plan, _normal(self.LATENT), stream=RngStream(seed)))
        assert [(r["n"], r["kind"]) for r in rows] == [(r["n"], r["kind"]) for r in normal]
        for row, ref in zip(rows, normal):
            if row["kind"] == "pearson":  # the marginal did reshape the draws
                assert row["mean"] != ref["mean"], row["n"]
            else:
                stats = ("mean", "sd", "p5", "p95")
                assert [row[s] for s in stats] == [ref[s] for s in stats], (row["n"], row["kind"])


def test_readme_library_use_runs_as_written():
    # README's example is the documented library entry point; run it verbatim
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["population"].label == "exponential_rp0.4"
    assert set(namespace["table"]["condition"]) == {"exponential_rp0.4"}
