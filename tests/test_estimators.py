"""Tests for ranking and the three correlation estimators.

Brute-force oracles (pair enumeration, sort-index ranking) are
implemented inline and kept independent of the library code paths.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab.errors import DegenerateSampleError, InputError
from corrlab.estimators import (CoefficientEstimate, PairedSample, _inversion_counts,
                                correlation_matrix, distinct_spearman_values,
                                fractional_rank, kendall, kendall_rows, pearson,
                                pearson_rows, rank_rows, spearman, spearman_rows)


def rank_oracle(values):
    """Sort-index ranking with mean-of-span tie handling, done the slow way."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def kendall_oracle(x, y):
    """Quadratic pair enumeration, tau-b normalization."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = np.sign(x[i] - x[j])
        dy = np.sign(y[i] - y[j])
        if dx == 0 and dy == 0:
            continue
        if dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif dx == dy:
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) / 2
    tied_x = sum(1 for i, j in itertools.combinations(range(n), 2) if x[i] == x[j])
    tied_y = sum(1 for i, j in itertools.combinations(range(n), 2) if y[i] == y[j])
    return (concordant - discordant) / np.sqrt((n0 - tied_x) * (n0 - tied_y))


class TestFractionalRank:
    def test_tied_pair_shares_mean_rank(self):
        rv = fractional_rank([2.0, 2.0, 5.0])
        np.testing.assert_array_equal(rv.ranks, [1.5, 1.5, 3.0])
        assert rv.had_ties

    def test_single_element(self):
        rv = fractional_rank([10.0])
        np.testing.assert_array_equal(rv.ranks, [1.0])
        assert not rv.had_ties

    def test_permutation_matches_sort_index_oracle(self):
        rv = fractional_rank([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(rv.ranks, [3.0, 1.0, 2.0])

    def test_random_inputs_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            v = rng.integers(0, 6, size=n).astype(float)
            rv = fractional_rank(v)
            np.testing.assert_allclose(rv.ranks, rank_oracle(list(v)))
            assert rv.had_ties == (len(set(v)) < n)

    def test_rank_sum_is_triangular(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 100):
            v = rng.integers(0, 4, size=n).astype(float)
            assert fractional_rank(v).ranks.sum() == pytest.approx(n * (n + 1) / 2)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            fractional_rank([1.0, np.nan])

    def test_rank_rows_matches_scalar(self):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 5, size=(40, 9)).astype(float)
        ranks, ties = rank_rows(a)
        for i in range(40):
            rv = fractional_rank(a[i])
            np.testing.assert_array_equal(ranks[i], rv.ranks)
            assert ties[i] == rv.had_ties


class TestPairedSample:
    def test_validates_lengths(self):
        with pytest.raises(InputError):
            PairedSample([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_validates_finiteness(self):
        with pytest.raises(InputError):
            PairedSample([1.0, np.inf], [1.0, 2.0])

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            PairedSample([1.0], [2.0])


class TestPearson:
    def test_identical_vectors(self):
        assert pearson(PairedSample([1, 2, 3], [1, 2, 3])).value == pytest.approx(1.0)

    def test_reversed_order(self):
        assert pearson(PairedSample([1, 2, 3], [3, 2, 1])).value == pytest.approx(-1.0)

    def test_hand_computed_example(self):
        # centered x = (-1.5,-.5,.5,1.5), y = (-1.5,.5,-.5,1.5):
        # cross = 4, norms = 5 each -> 4/5
        est = pearson(PairedSample([1, 2, 3, 4], [1, 3, 2, 4]))
        assert est.value == pytest.approx(0.8, abs=1e-15)
        assert est.kind == "pearson" and est.n == 4

    def test_constant_column_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            pearson(PairedSample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


class TestSpearman:
    def test_reduces_to_pearson_on_rank_data(self):
        assert spearman(PairedSample([1, 2, 3, 4], [1, 3, 2, 4])).value == pytest.approx(0.8)

    def test_monotone_map_is_perfect(self):
        assert spearman(PairedSample([1, 2, 3], [2, 4, 6])).value == pytest.approx(1.0)

    def test_equals_pearson_of_ranks(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            s = PairedSample(rng.integers(0, 6, n).astype(float) + 0.0,
                             rng.standard_normal(n))
            if s.x.min() == s.x.max():
                continue
            ranked = PairedSample(fractional_rank(s.x).ranks, fractional_rank(s.y).ranks)
            assert spearman(s).value == pytest.approx(pearson(ranked).value, abs=1e-13)

    def test_no_ties_identities_agree(self):
        # all four no-ties formulations must agree to 1e-12
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            x = rng.permutation(n) + 1.0
            y = rng.permutation(n) + 1.0
            rs = spearman(PairedSample(x, y)).value
            d2 = ((x - y) ** 2).sum()
            xc = x - (n + 1) / 2
            yc = y - (n + 1) / 2
            f1 = (np.sum(xc ** 2) - d2 / 2) / np.sum(xc ** 2)
            f2 = 1 - d2 / (2 * np.sum(xc ** 2))
            f3 = 1 - 6 * d2 / (n * (n * n - 1))
            f4 = 12 / (n * (n * n - 1)) * np.sum(xc * yc)
            for f in (f1, f2, f3, f4):
                assert rs == pytest.approx(f, abs=1e-12)


class TestKendall:
    def test_all_concordant(self):
        assert kendall(PairedSample([1, 2, 3], [1, 2, 3])).value == pytest.approx(1.0)

    def test_all_discordant(self):
        assert kendall(PairedSample([1, 2, 3], [3, 2, 1])).value == pytest.approx(-1.0)

    def test_enumerated_example(self):
        # 6 pairs: 5 concordant, 1 discordant -> (5 - 1) / 6
        assert kendall(PairedSample([1, 2, 3, 4], [1, 3, 2, 4])).value == pytest.approx(2 / 3)

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(150):
            n = int(rng.integers(2, 25))
            if trial % 2:
                x = rng.integers(0, 4, n).astype(float)
                y = rng.integers(0, 4, n).astype(float)
            else:
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
            if x.min() == x.max() or y.min() == y.max():
                continue
            got = kendall(PairedSample(x, y)).value
            assert got == pytest.approx(kendall_oracle(x, y), abs=1e-12)

    def test_tau_a_on_likert_data_differs_from_tau_b(self):
        rng = np.random.default_rng(32)
        x = rng.integers(1, 4, 60).astype(float)
        y = np.clip(x + rng.integers(-1, 2, 60), 1, 5).astype(float)
        s = PairedSample(x, y)
        tau_a = kendall(s, variant="a").value
        tau_b = kendall(s, variant="b").value
        assert abs(tau_a) < abs(tau_b)  # tie penalty shrinks the un-normalized form

    def test_rejects_unknown_variant(self):
        with pytest.raises(InputError):
            kendall(PairedSample([1, 2], [1, 2]), variant="c")

    def test_large_row_kernel_matches_oracle(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((3, 400))
        y = rng.standard_normal((3, 400))
        got = kendall_rows(x, y)
        for i in range(3):
            assert got[i] == pytest.approx(kendall_oracle(x[i], y[i]), abs=1e-12)


class TestInversionCounts:
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_matches_quadratic_count_for_every_padding(self, tied):
        # n = 1..70 pads to 1..128, covering every padding remainder up to 128
        rng = np.random.default_rng(34)
        for n in range(1, 71):
            if tied:
                v = rng.integers(0, 4, (6, n)).astype(float)
            else:
                v = rng.standard_normal((6, n))
            oracle = [sum(1 for i, j in itertools.combinations(range(n), 2)
                          if row[i] > row[j]) for row in v]
            assert _inversion_counts(v).tolist() == oracle, n


class TestCorrelationMatrix:
    def test_identical_columns(self):
        table = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        np.testing.assert_allclose(correlation_matrix(table), np.ones((2, 2)))

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(41)
        table = rng.standard_normal((25, 3))
        mat = correlation_matrix(table)
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else pearson(
                    PairedSample(table[:, i], table[:, j])).value
                assert mat[i, j] == pytest.approx(expected, abs=1e-12)

    def test_rank_transform_equals_spearman_matrix(self):
        rng = np.random.default_rng(42)
        table = rng.integers(0, 5, size=(40, 4)).astype(float)
        ranked = np.column_stack([fractional_rank(table[:, j]).ranks for j in range(4)])
        np.testing.assert_allclose(correlation_matrix(ranked),
                                   correlation_matrix(table, "spearman"), atol=1e-12)

    def test_constant_column_named_in_error(self):
        table = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        with pytest.raises(DegenerateSampleError, match="col1"):
            correlation_matrix(table)

    def test_kendall_matrix_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(43)
        table = rng.integers(0, 4, size=(30, 3)).astype(float)
        mat = correlation_matrix(table, "kendall")
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), 1.0)

    def test_kendall_matrix_entries_match_scalar_kendall(self):
        rng = np.random.default_rng(44)
        table = rng.integers(0, 4, size=(30, 5)).astype(float)
        for variant in ("a", "b"):
            mat = correlation_matrix(table, "kendall", kendall_variant=variant)
            for i in range(5):
                for j in range(5):
                    if i != j:
                        pair = PairedSample(table[:, i], table[:, j])
                        assert mat[i, j] == kendall(pair, variant=variant).value, (i, j)


class TestDistinctSpearmanValues:
    def test_five_items_give_twenty_one_values(self):
        assert distinct_spearman_values(5) == 21

    def test_two_items(self):
        assert distinct_spearman_values(2) == 2

    def test_four_items_match_exact_fraction_enumeration(self):
        # independent oracle: exact rational coefficient per permutation
        n = 4
        values = set()
        for perm in itertools.permutations(range(1, n + 1)):
            d2 = sum((a - b) ** 2 for a, b in zip(range(1, n + 1), perm))
            values.add(1 - Fraction(6 * d2, n * (n * n - 1)))
        assert distinct_spearman_values(4) == len(values)

    def test_too_large_is_rejected(self):
        with pytest.raises(InputError):
            distinct_spearman_values(10)


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

# integer-valued observations: ties occur, but distinct values stay
# distinct under the monotone transforms below (no float collapse)
finite_pairs = st.integers(3, 25).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-10000, 10000).map(float), min_size=n, max_size=n),
        st.lists(st.integers(-10000, 10000).map(float), min_size=n, max_size=n)))


def _usable(x, y):
    return min(x) < max(x) and min(y) < max(y)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(finite_pairs, st.floats(0.1, 3.0), st.floats(-5.0, 5.0))
    def test_spearman_invariant_under_increasing_transform(self, pair, scale, shift):
        x, y = pair
        if not _usable(x, y):
            return
        s = PairedSample(x, y)
        # random strictly increasing piecewise map: affine everywhere,
        # plus a cubic bend above the median
        mid = float(np.median(x))
        xa = np.asarray(x)
        tx = scale * xa + shift + np.where(xa < mid, 0.0, (xa - mid) ** 3)
        transformed = PairedSample(tx, y)
        assert spearman(transformed).value == pytest.approx(spearman(s).value, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(finite_pairs, st.floats(0.01, 100.0), st.floats(-100.0, 100.0))
    def test_pearson_affine_invariance_and_sign_flip(self, pair, a, b):
        x, y = pair
        if not _usable(x, y):
            return
        base = pearson(PairedSample(x, y)).value
        scaled = pearson(PairedSample(a * np.asarray(x) + b, y)).value
        flipped = pearson(PairedSample(-a * np.asarray(x) + b, y)).value
        assert scaled == pytest.approx(base, abs=1e-7)
        assert flipped == pytest.approx(-base, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(finite_pairs)
    def test_symmetry_in_arguments(self, pair):
        x, y = pair
        if not _usable(x, y):
            return
        for estimator in (pearson, spearman, kendall):
            assert (estimator(PairedSample(x, y)).value
                    == estimator(PairedSample(y, x)).value)

    @settings(max_examples=80, deadline=None)
    @given(finite_pairs)
    def test_estimates_stay_in_range(self, pair):
        x, y = pair
        if not _usable(x, y):
            return
        for estimator in (pearson, spearman, kendall):
            est = estimator(PairedSample(x, y))
            assert -1.0 <= est.value <= 1.0

    def test_row_kernels_agree_with_scalar_paths(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((20, 15))
        y = rng.standard_normal((20, 15))
        rp = pearson_rows(x, y)
        rs = spearman_rows(x, y)
        rt = kendall_rows(x, y)
        for i in range(20):
            s = PairedSample(x[i], y[i])
            assert rp[i] == pytest.approx(pearson(s).value, abs=1e-13)
            assert rs[i] == pytest.approx(spearman(s).value, abs=1e-13)
            assert rt[i] == pytest.approx(kendall(s).value, abs=1e-13)

    def test_estimate_type_rejects_out_of_range(self):
        with pytest.raises(InputError):
            CoefficientEstimate("pearson", 1.5, 10)
