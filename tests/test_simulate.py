"""Tests for the Monte Carlo sweep engine."""

import numpy as np
import pytest

from corrlab.errors import InfeasibleError, InputError
from corrlab.exact import kendall_from_pearson, spearman_from_pearson
from corrlab.randgen import MarginalSpec, PopulationSpec, RngStream
from corrlab.simulate import (CHUNK_REPS, SimulationPlan, logspace_sizes,
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
