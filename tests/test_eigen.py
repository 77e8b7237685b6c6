"""Tests for symmetric eigenvalue extraction and the stability study."""

import numpy as np
import pytest

from corrlab.errors import InputError
from corrlab.eigen import eigen_study, symmetric_eigenvalues
from corrlab.estimators import correlation_matrix, rank_rows
from corrlab.randgen import RngStream
from corrlab.resample import PopulationDataset, dbq_like_population


def charpoly_roots(matrix):
    """Independent oracle: roots of det(A - t I) by sign-change bisection.

    Determinants come from LU factorization, not an eigensolver.  Valid
    when all roots are simple, which holds almost surely for the random
    matrices used here.
    """
    a = np.asarray(matrix, dtype=float)
    bound = np.max(np.sum(np.abs(a), axis=1)) + 1.0  # Gershgorin
    grid = np.linspace(-bound, bound, 20001)
    dets = np.array([np.linalg.det(a - t * np.eye(a.shape[0])) for t in grid])
    roots = []
    for i in np.flatnonzero(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0):
        lo, hi = grid[i], grid[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (np.linalg.det(a - lo * np.eye(a.shape[0]))
                    * np.linalg.det(a - mid * np.eye(a.shape[0]))) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return np.sort(roots)[::-1]


class TestSymmetricEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(symmetric_eigenvalues(np.eye(5)), np.ones(5))

    def test_two_by_two_correlation_closed_form(self):
        for r in (-0.9, -0.3, 0.0, 0.6, 0.99):
            values = symmetric_eigenvalues([[1.0, r], [r, 1.0]])
            np.testing.assert_allclose(values, [1 + abs(r), 1 - abs(r)], atol=1e-12)

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            a = rng.standard_normal((4, 4))
            a = 0.5 * (a + a.T)
            got = symmetric_eigenvalues(a)
            want = charpoly_roots(a)
            assert len(want) == 4
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_descending_order_and_trace(self):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((300, 9))
        mat = correlation_matrix(a)
        values = symmetric_eigenvalues(mat)
        assert np.all(np.diff(values) <= 0)
        assert values.sum() == pytest.approx(9.0, abs=1e-8)
        assert np.all(values >= -1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(73)
        a = rng.standard_normal((8, 8))
        a = 0.5 * (a + a.T)
        perm = rng.permutation(8)
        permuted = a[np.ix_(perm, perm)]
        np.testing.assert_allclose(symmetric_eigenvalues(a),
                                   symmetric_eigenvalues(permuted), atol=1e-9)

    def test_rejects_non_symmetric(self):
        with pytest.raises(InputError):
            symmetric_eigenvalues([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_already_diagonal(self):
        np.testing.assert_allclose(symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                                   [3.0, 2.0, 1.0])


@pytest.fixture(scope="module")
def independent_columns():
    rng = RngStream(81).generator()
    return PopulationDataset(tuple(f"c{i}" for i in range(8)),
                             rng.standard_normal((4000, 8)))


class TestEigenStudy:

    def test_independent_normal_columns(self, independent_columns):
        summary = eigen_study(independent_columns, sample_size=100, n_samples=400,
                              k=3, master_seed=1)
        # sampling noise pushes the top eigenvalue above 1
        assert 1.0 < summary.mean_pearson[0] < 2.0
        # and both matrix kinds are about equally stable for normal data
        ratio = summary.sd_pearson[0] / summary.sd_spearman[0]
        assert 0.85 < ratio < 1.18

    def test_full_spectrum_traces_match_dimension(self, independent_columns):
        summary = eigen_study(independent_columns, sample_size=60, n_samples=50,
                              k=8, master_seed=2)
        assert summary.max_trace_error < 1e-8
        assert summary.mean_pearson.sum() == pytest.approx(8.0, abs=1e-8)

    def test_rank_transformed_dataset_identity(self):
        rng = RngStream(82).generator()
        d = PopulationDataset(("a", "b", "c"),
                              rng.standard_normal((500, 3)) ** 3)
        ranked_values, _ = rank_rows(d.values.T)
        ranked = PopulationDataset(d.column_names, ranked_values.T)
        pop_spearman = symmetric_eigenvalues(correlation_matrix(d, "spearman"))
        pop_rank_pearson = symmetric_eigenvalues(correlation_matrix(ranked))
        np.testing.assert_allclose(pop_spearman, pop_rank_pearson, atol=1e-12)

    def test_dbq_like_pearson_eigenvalues_more_variable(self):
        summary = eigen_study(dbq_like_population(), sample_size=200, n_samples=500,
                              k=6, master_seed=3)
        assert summary.sd_pearson[0] > summary.sd_spearman[0]

    def test_deterministic(self, independent_columns):
        a = eigen_study(independent_columns, 50, 40, k=2, master_seed=4)
        b = eigen_study(independent_columns, 50, 40, k=2, master_seed=4)
        np.testing.assert_array_equal(a.mean_pearson, b.mean_pearson)
        np.testing.assert_array_equal(a.sd_spearman, b.sd_spearman)

    def test_validation(self, independent_columns):
        with pytest.raises(InputError):
            eigen_study(independent_columns, 50, 40, k=0)
        with pytest.raises(InputError):
            eigen_study(independent_columns, 50, 40, k=99)
