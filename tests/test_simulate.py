"""Tests for the Monte Carlo sweep engine."""

import dataclasses
import struct

import numpy as np
import pytest

from corrlab import simulate
from corrlab.errors import InfeasibleError, InputError
from corrlab.estimators import kendall_rows, pearson_rows, spearman_rows
from corrlab.exact import kendall_from_pearson, spearman_from_pearson
from corrlab.randgen import MarginalSpec, PopulationSpec, RngStream
from corrlab.simulate import (CHUNK_REPS, SimulationPlan, SummaryStats, logspace_sizes,
                              replication_chunks, run_cell, run_plan)


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


def _plan(rho=0.2, sizes=(20,), reps=2000, kinds=("pearson", "spearman")):
    return SimulationPlan(PopulationSpec.bivariate_normal(rho), sizes,
                          replications=reps, coefficients=kinds)


def _two_category_population():
    marginal = MarginalSpec.likert((0.5,))
    return PopulationSpec(marginal, target_pearson=0.0, latent_rho=0.0,
                          pop_pearson=0.0, pop_spearman=0.0)


class TestRunCell:
    def test_zero_condition_is_unbiased(self):
        plan = _plan(rho=0.0, sizes=(50,), reps=20000)
        rows = run_cell(plan, 50, RngStream(1).child(0))
        by_kind = {r.kind: r for r in rows}
        assert by_kind["pearson"].mean == pytest.approx(0.0, abs=0.005)
        assert by_kind["spearman"].mean == pytest.approx(0.0, abs=0.005)

    def test_small_sample_bias_matches_theory(self):
        plan = _plan(rho=0.2, sizes=(5,), reps=20000)
        rows = run_cell(plan, 5, RngStream(2).child(0))
        by_kind = {r.kind: r for r in rows}
        assert by_kind["pearson"].mean == pytest.approx(0.177, abs=0.01)
        assert by_kind["spearman"].mean == pytest.approx(0.160, abs=0.01)

    def test_single_replication_has_no_sd(self):
        plan = _plan(reps=1)
        rows = run_cell(plan, 20, RngStream(0).child(0))
        assert rows[0].sd is None
        assert rows[0].p5 == rows[0].p95 == rows[0].mean

    def test_rmse_identity(self):
        plan = _plan(reps=3000)
        for row in run_cell(plan, 20, RngStream(3).child(0)):
            reps = plan.replications
            lhs = row.rmse ** 2
            rhs = row.sd ** 2 * (reps - 1) / reps + row.bias ** 2
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_percentiles_bracket_mean(self):
        plan = _plan(reps=2000)
        for row in run_cell(plan, 20, RngStream(4).child(0)):
            assert row.p5 <= row.mean <= row.p95

    def test_degenerate_draws_are_redrawn_and_counted(self):
        # two-category marginal at n=4: a constant draw is common
        plan = SimulationPlan(_two_category_population(), (4,), replications=500,
                              coefficients=("pearson",))
        rows = run_cell(plan, 4, RngStream(5).child(0))
        assert rows[0].redraw_count > 0

    def test_hopeless_condition_is_infeasible(self):
        # nearly all mass on one category: n=3 draws are almost always constant
        marginal = MarginalSpec.likert((0.999,))
        population = PopulationSpec(marginal, target_pearson=0.0,
                                    latent_rho=0.0, pop_pearson=0.0,
                                    pop_spearman=0.0)
        plan = SimulationPlan(population, (3,), replications=50,
                              coefficients=("pearson",))
        with pytest.raises(InfeasibleError):
            run_cell(plan, 3, RngStream(6).child(0))


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
        run_plan(_plan(sizes=(10, 20), reps=200, kinds=("pearson", "spearman", "kendall")))
        assert sorted(calls) == [(kind, (200, n)) for kind in ("kendall", "spearman")
                                 for n in (10, 20)]

    def test_rows_cover_every_cell(self):
        plan = _plan(sizes=(10, 20), reps=200, kinds=("pearson", "spearman", "kendall"))
        rows = run_plan(plan)
        assert {(r.n, r.kind) for r in rows} == {
            (n, k) for n in (10, 20) for k in ("pearson", "spearman", "kendall")}

    def test_seed_determinism_and_thread_independence(self):
        plan = _plan(sizes=(10, 30), reps=500)
        rows_a = run_plan(plan, stream=RngStream(7))
        rows_b = run_plan(plan, stream=RngStream(7))
        rows_c = run_plan(plan, threads=4, stream=RngStream(7))
        assert rows_a == rows_b == rows_c

    def test_different_seeds_differ(self):
        rows_a = run_plan(_plan(reps=200), stream=RngStream(1))
        rows_b = run_plan(_plan(reps=200), stream=RngStream(2))
        assert rows_a != rows_b

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
        rows = [r for r in run_plan(plan, stream=RngStream(9)) if r.kind == "pearson"]
        sds = [r.sd for r in rows]
        assert sds[0] > sds[1] > sds[2]

    def test_kendall_mean_tracks_population_conversion(self):
        plan = _plan(sizes=(100,), reps=4000, kinds=("kendall",))
        row = run_plan(plan, stream=RngStream(10))[0]
        assert row.mean == pytest.approx(kendall_from_pearson(0.2), abs=0.01)
        assert row.population_value == pytest.approx(kendall_from_pearson(0.2))

    def test_population_values_recorded_per_kind(self):
        plan = _plan(sizes=(12,), reps=50, kinds=("pearson", "spearman"))
        by_kind = {r.kind: r for r in run_plan(plan, stream=RngStream(11))}
        assert by_kind["pearson"].population_value == 0.2
        assert by_kind["spearman"].population_value == pytest.approx(
            spearman_from_pearson(0.2))

    def test_plan_validation(self):
        with pytest.raises(InputError):
            _plan(sizes=())
        with pytest.raises(InputError):
            _plan(sizes=(1,))
        with pytest.raises(InputError):
            _plan(kinds=("nope",))
        with pytest.raises(InputError):
            _plan(reps=0)


def float_bits(rows):
    """Every field of each summary row, floats as their IEEE-754 bytes."""
    return [tuple(struct.pack("<d", v) if isinstance(v, float) else v
                  for v in dataclasses.astuple(row)) for row in rows]


def one_cell_reference(plan, n, cell_stream):
    """A cell's rows from its replications alone: 1-d numpy statistics of
    the public row kernels' values, the summary before sweeps were batched."""
    chunks = list(replication_chunks(plan.population, n, plan.replications, cell_stream))
    kernels = {"pearson": pearson_rows, "spearman": spearman_rows, "kendall": kendall_rows}
    redraws = sum(chunk[2] for chunk in chunks)
    rows = []
    for kind in plan.coefficients:
        values = np.concatenate([kernels[kind](x, y) for x, y, _ in chunks])
        pop = plan.population.population_value(kind)
        mean = float(values.mean())
        p5, p95 = np.percentile(values, [5.0, 95.0])
        rows.append(SummaryStats(
            condition=plan.condition, kind=kind, n=n, mean=mean,
            sd=float(values.std(ddof=1)) if values.size > 1 else None,
            p5=float(p5), p95=float(p95), bias=mean - pop,
            rmse=float(np.sqrt(np.mean((values - pop) ** 2))), population_value=pop,
            redraw_count=redraws))
    return rows


class TestBatchedSummaries:
    """run_plan summarises every cell of a kind in one call; each row must
    have the bits of the cell summarised alone, whatever the thread count."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("reps", [1, 2, 100, CHUNK_REPS + 1])
    def test_plan_rows_equal_cell_rows(self, reps, threads):
        sizes = (5, 8, 30, 60) if reps < CHUNK_REPS else (5, 60)
        plan = _plan(rho=0.3, sizes=sizes, reps=reps,
                     kinds=("kendall", "pearson", "spearman"))
        stream = RngStream(12)
        rows = run_plan(plan, threads=threads, stream=stream)
        cells = [run_cell(plan, n, stream.child(i)) for i, n in enumerate(sizes)]
        by_cell = sorted((row for cell in cells for row in cell), key=lambda r: (r.n, r.kind))
        assert float_bits(rows) == float_bits(by_cell)
        assert all((row.sd is None) == (reps == 1) for row in rows)

    @pytest.mark.parametrize("reps", [1, 2, 100, CHUNK_REPS + 1])
    def test_cell_rows_equal_one_dimensional_statistics(self, reps):
        plan = _plan(rho=0.3, sizes=(30,), reps=reps, kinds=("kendall", "pearson", "spearman"))
        stream = RngStream(13).child(0)
        assert float_bits(run_cell(plan, 30, stream)) == float_bits(
            one_cell_reference(plan, 30, stream))

    def test_redraw_counts_stay_with_their_cells(self):
        plan = SimulationPlan(_two_category_population(), (4, 5, 30), replications=100)
        rows = run_plan(plan, threads=2, stream=RngStream(14))
        reference = [row for i, n in enumerate(plan.sample_sizes)
                     for row in one_cell_reference(plan, n, RngStream(14).child(i))]
        assert float_bits(rows) == float_bits(sorted(reference, key=lambda r: (r.n, r.kind)))
        assert rows[0].redraw_count > rows[-1].redraw_count
