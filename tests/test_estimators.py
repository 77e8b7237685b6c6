"""Tests for ranking and the three correlation estimators.

Brute-force oracles (pair enumeration, sort-index ranking) are
implemented inline and kept independent of the library code paths.
"""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import estimators
from corrlab.errors import DegenerateSampleError, InputError
from corrlab.estimators import (CoefficientEstimate, PairedSample, _inversion_counts,
                                _level_ranks, _pearson_rows, _tie_run_flags, _tied_pair_counts, _varies,
                                correlation_matrix,
                                distinct_spearman_values, kendall,
                                kendall_rows, pearson, pearson_rows, rank_rows, spearman,
                                spearman_rows)
from corrlab.influence import AxisSpec, scan_double, scan_single
from corrlab.resample import PopulationDataset, moment_profile


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


def rank_one(v):
    """`rank_rows` on one vector: its ranks and whether it had ties."""
    ranks, ties = rank_rows(np.asarray(v, dtype=float)[None])
    return ranks[0], ties[0]


def kendall_oracle(x, y, variant="b"):
    """Quadratic pair enumeration, tau-b (default) or tau-a normalization."""
    # Python floats compared per pair: the sign of x[i] - x[j], which is 0 only at x[i] == x[j]
    x, y = np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
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
    if variant == "a":
        return (concordant - discordant) / n0 if max(tied_x, tied_y) < n0 else np.nan
    return (concordant - discordant) / np.sqrt((n0 - tied_x) * (n0 - tied_y))


def pearson_reference(x, y):
    """Row-wise Pearson with every sum taken along the rows, as the long-row path does."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    num = (xc * yc).sum(axis=1)
    den2 = (xc * xc).sum(axis=1) * (yc * yc).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = num / np.sqrt(den2)
    return np.clip(np.where(den2 > 0.0, r, np.nan), -1.0, 1.0)


def short_row_cases(rng, n, rows=60):
    """Untied, tied and partly constant (x, y) row pairs of length n."""
    x = rng.standard_normal((3, rows, n))
    y = rng.standard_normal((3, rows, n)) + 0.5 * x
    x[1], y[1] = rng.integers(0, 3, (2, rows, n))
    x[2, ::3] = 2.5
    y[2, 1::4] = -1.0
    return [(x[k], y[k]) for k in range(3)]


def float_sign_ranks(columns):
    """Mid-ranks down axis 0 of an (n, rows) array as the float half-integers
    (n+1)/2 + sum_j sign(a_i - a_j)/2, from float differences and np.sign."""
    r = np.full(columns.shape, 0.5 * (len(columns) + 1))
    with np.errstate(over="ignore"):  # +-1.7e308 differences overflow to +-inf
        for i, j in itertools.combinations(range(len(columns)), 2):
            half = 0.5 * np.sign(columns[i] - columns[j])
            r[i] += half
            r[j] -= half
    return r


def float_sign_spearman(x, y):
    """Pearson of float_sign_ranks, every sum taken down the columns."""
    rx, ry = (float_sign_ranks(np.ascontiguousarray(a.T)) for a in (x, y))
    xc, yc = rx - rx.mean(axis=0), ry - ry.mean(axis=0)
    den2 = (xc * xc).sum(axis=0) * (yc * yc).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (xc * yc).sum(axis=0) / np.sqrt(den2)
    return np.clip(np.where(den2 > 0.0, r, np.nan), -1.0, 1.0)


def float_sign_kendall(x, y, variant):
    """Kendall from float pairwise signs: sums of sign(x_j - x_i) * sign(y_j - y_i)."""
    n = x.shape[1]
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    counts = np.zeros((3, x.shape[0]))
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            sx, sy = np.sign(xt[i + 1:] - xt[i]), np.sign(yt[i + 1:] - yt[i])
            counts[:] += [(sx * sy).sum(axis=0), (sx * sx).sum(axis=0), (sy * sy).sum(axis=0)]
    surplus, untied_x, untied_y = counts
    n0 = n * (n - 1) // 2
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = surplus / (float(n0) if variant == "a" else np.sqrt(untied_x * untied_y))
    return np.clip(np.where(untied_x * untied_y > 0.0, tau, np.nan), -1.0, 1.0)


EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1.7e308, -1.7e308, 1.0])


def sign_sum_cases(rng, n, rows):
    """(name, rows x n array): untied, small-integer ties, signed zeros,
    subnormals and +-1.7e308 (whose differences overflow), each with every
    fourth row made constant."""
    cases = {"untied": rng.standard_normal((rows, n)),
             "integer ties": rng.integers(-2, 3, (rows, n)).astype(float),
             "signed zeros": rng.choice([0.0, -0.0, 1.0], (rows, n)),
             "subnormals": rng.choice([0.0, 5e-324, -5e-324, 1e-310, -1e-310], (rows, n)),
             "edge values": rng.choice(EDGE_VALUES, (rows, n))}
    for a in cases.values():
        a[::4] = a[::4, :1]
    return cases


def long_row_cases(rng, n):
    """Rows of length n > 7 by case name, each with whether rank_rows counts
    their levels (every value an integer less than n above its row minimum)
    rather than sorting them."""
    likert = rng.integers(0, 6, size=(3, n)).astype(float)
    full = rng.integers(0, n, size=(3, n)).astype(float)
    full[:, :2] = [0, n - 1]
    wide = rng.integers(0, n + 1, size=(3, n)).astype(float)
    wide[:, :2] = [0, n]
    signed = rng.integers(-3, 3, size=(3, n)).astype(float)
    signed[signed == 0] = rng.choice([0.0, -0.0], size=int((signed == 0).sum()))
    k = rng.integers(0, n, size=(3, n))
    big = 2.0 ** 53 - 8 + np.where(k < 8, k, k & ~1)  # offsets past 2**53 stay exact
    later_fraction = likert.copy()
    later_fraction[:, -1] += 0.5
    untied = np.argsort(rng.random((3, n)), axis=1) * 1.0
    one_pair = np.where(untied == n - 1, 0.0, untied)
    return {"likert": (likert, True), "likert mapped": (0.5 * likert + 0.25, False),
            "span n-1": (full, True), "untied span n-1": (untied, True),
            "one tied pair": (one_pair, True),
            "span n": (wide, False), "negative, signed zeros": (signed, True),
            "past 2**53": (big, True), "column 0 integral only": (later_fraction, False)}


def untied_path_cases(rng, rows, n):
    """(x, y) pairs of rows x n arrays by case name.  In "one tie" and
    "signed zeros", row ``rows // 2`` holds the array's only tie (in x, and
    in y), so the whole array must take the tie path."""
    x = rng.standard_normal((rows, n))
    y = 0.5 * x + rng.standard_normal((rows, n))
    r = rows // 2
    one_tie, zeros = x.copy(), y.copy()
    one_tie[r, -1] = one_tie[r, 0]
    zeros[r, :2] = [0.0, -0.0]
    huge = np.sign(x) * 1e308 * (1.0 + 0.7 * rng.random((rows, n)))  # at most 1.7e308
    mixed = x.copy()
    mixed[::3] = rng.integers(0, 5, (len(mixed[::3]), n))
    return {"untied": (x, y), "one tie": (one_tie, y), "signed zeros": (x, zeros),
            "near +-1e308": (huge, -huge[::-1]), "tied rows mixed in": (mixed, y)}


def row_boundary_cases(rng, rows, n):
    """Tied rows x n arrays by case name, in half-point values and in
    integers spanning at least n, so that rank_rows sorts them rather than
    counting levels.  In "stacked [a, a, b, b]" the sorted row r ends on the
    value that starts row r + 1.  Every row repeats row 0 up to a shift of
    its values, so every row has row 0's ranks, tie counts and coefficients."""
    halves = rng.permuted(np.arange(n) >= n // 2)
    levels = {"identical rows": np.tile(rng.integers(0, 3, n), (rows, 1)),
              "stacked [a, a, b, b]": np.arange(rows)[:, None] + halves}
    cases = {"constant rows, half-point": np.full((rows, n), 0.5)}
    for name, level in levels.items():
        cases[f"{name}, half-point"] = level + 0.5
        cases[f"{name}, integer"] = level * float(n)
    return cases


def checked_rows(rng, rows):
    """The row that holds each case's tie, the first and last, and a few more."""
    return np.unique(np.concatenate([[0, rows // 2, rows - 1], rng.integers(0, rows, 5)]))


class TestFractionalRank:
    def test_tied_pair_shares_mean_rank(self):
        ranks, had_ties = rank_one([2.0, 2.0, 5.0])
        np.testing.assert_array_equal(ranks, [1.5, 1.5, 3.0])
        assert had_ties

    def test_single_element(self):
        ranks, had_ties = rank_one([10.0])
        np.testing.assert_array_equal(ranks, [1.0])
        assert not had_ties

    def test_permutation_matches_sort_index_oracle(self):
        ranks, _ = rank_one([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(ranks, [3.0, 1.0, 2.0])

    def test_random_inputs_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            v = rng.integers(0, 6, size=n).astype(float)
            ranks, had_ties = rank_one(v)
            np.testing.assert_allclose(ranks, rank_oracle(list(v)))
            assert had_ties == (len(set(v)) < n)

    def test_rank_sum_is_triangular(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 100):
            v = rng.integers(0, 4, size=n).astype(float)
            assert rank_one(v)[0].sum() == pytest.approx(n * (n + 1) / 2)

    @pytest.mark.parametrize("n", [64, 200, 1000])
    def test_tied_rows_match_oracle_at_larger_n(self, n):
        rng = np.random.default_rng(n)
        for case, (a, counted) in long_row_cases(rng, n).items():
            assert (_level_ranks(a) is not None) == counted, case
            ranks, ties = rank_rows(a)
            for i in range(3):
                np.testing.assert_array_equal(ranks[i], rank_oracle(list(a[i])), err_msg=case)
                assert ties[i] == (len(set(a[i])) < n), case

    def test_rank_rows_matches_scalar(self):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 5, size=(40, 9)).astype(float)
        ranks, ties = rank_rows(a)
        for i in range(40):  # a row's ranks must not depend on the rest of the array
            row_ranks, row_ties = rank_one(a[i])
            np.testing.assert_array_equal(ranks[i], row_ranks)
            assert ties[i] == row_ties


class TestRowKernelShapes:
    @pytest.mark.parametrize("kernel", [pearson_rows, spearman_rows, kendall_rows])
    @pytest.mark.parametrize("shapes", [((4, 5), (4, 6)), ((4, 5), (3, 5)), ((5,), (5,)),
                                        ((2, 4, 5), (2, 4, 5))],
                             ids=["columns", "rows", "1-d", "3-d"])
    def test_paired_kernels_reject_bad_shapes(self, kernel, shapes):
        with pytest.raises(InputError, match="2-d arrays of one shape"):
            kernel(np.ones(shapes[0]), np.ones(shapes[1]))

    @pytest.mark.parametrize("n", [2, 5, 30, 100])
    def test_kendall_rows_of_no_rows(self, n):
        assert kendall_rows(np.ones((0, n)), np.ones((0, n))).shape == (0,)

    @pytest.mark.parametrize("shape", [(5,), (2, 4, 5)])
    def test_rank_rows_rejects_other_dimensions(self, shape):
        with pytest.raises(InputError, match="2-d arrays of one shape"):
            rank_rows(np.ones(shape))


class TestShortRowExactness:
    """Rows of n <= 7 take a column-wise path whose bits must match the
    row-axis formulas; n = 8..10 cover the long-row side of the switch."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_ranks_match_oracle(self, n):
        for x, _ in short_row_cases(np.random.default_rng(n), n):
            ranks, ties = rank_rows(x)
            np.testing.assert_array_equal(ranks, [rank_oracle(list(row)) for row in x])
            np.testing.assert_array_equal(ties, [len(set(row)) < n for row in x])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pearson_and_spearman_match_row_axis_formula(self, n):
        for x, y in short_row_cases(np.random.default_rng(100 + n), n):
            np.testing.assert_array_equal(pearson_rows(x, y), pearson_reference(x, y))
            rx = np.array([rank_oracle(list(row)) for row in x])
            ry = np.array([rank_oracle(list(row)) for row in y])
            np.testing.assert_array_equal(spearman_rows(x, y), pearson_reference(rx, ry))


class TestSignSums:
    """The int8 sign-sum kernels against the float-difference formulas they
    replace, bit for bit: ranks and tie flags for n = 1..7 and Spearman
    with its NaN rows; and Kendall's exact pair counts on the same edge
    values, from one base block to two."""

    @pytest.mark.parametrize("rows", [5, 4096])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_ranks_and_ties(self, n, rows):
        for name, a in sign_sum_cases(np.random.default_rng(400 + n), n, rows).items():
            ranks, ties = rank_rows(a)
            expected = float_sign_ranks(np.ascontiguousarray(a.T)).T
            np.testing.assert_array_equal(ranks, expected, err_msg=name)
            assert ranks.flags.c_contiguous
            np.testing.assert_array_equal(
                ties, (expected * expected).sum(axis=1) < n * (n + 1) * (2 * n + 1) / 6,
                err_msg=name)
            np.testing.assert_array_equal(ties, [len(set(row)) < n for row in a.tolist()],
                                          err_msg=name)

    @pytest.mark.parametrize("rows", [5, 4096])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_spearman(self, n, rows):
        rng = np.random.default_rng(500 + n)
        xs, ys = sign_sum_cases(rng, n, rows), sign_sum_cases(rng, n, rows)
        for name in xs:
            x, y = xs[name], np.roll(ys[name], 1, axis=0)  # y alone constant in row 1
            got = spearman_rows(x, y)
            np.testing.assert_array_equal(got, float_sign_spearman(x, y), err_msg=name)
            assert np.isnan(got[::4]).all() and np.isnan(got[1])

    @pytest.mark.parametrize("n", range(2, 58))
    def test_kendall_edge_values(self, n):
        rng = np.random.default_rng(600 + n)
        xs, ys = sign_sum_cases(rng, n, 5), sign_sum_cases(rng, n, 5)
        for name in xs:
            for variant in ("a", "b"):
                np.testing.assert_array_equal(
                    kendall_rows(xs[name], ys[name], variant=variant),
                    float_sign_kendall(xs[name], ys[name], variant),
                    err_msg=f"{name}, tau-{variant}")

    @pytest.mark.parametrize("n", [2, 7, 30, 52])
    def test_kendall_full_chunk(self, n):
        rng = np.random.default_rng(700 + n)
        xs, ys = sign_sum_cases(rng, n, 4096), sign_sum_cases(rng, n, 4096)
        for name in ("untied", "integer ties", "edge values"):
            for variant in ("a", "b"):
                np.testing.assert_array_equal(
                    kendall_rows(xs[name], ys[name], variant=variant),
                    float_sign_kendall(xs[name], ys[name], variant),
                    err_msg=f"{name}, tau-{variant}")


class TestVaries:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_both_layouts_match_set_oracle(self, n):
        # n = 2..7 take the entry loop in both layouts; n = 8 the row-wise reduce
        rng = np.random.default_rng(300 + n)
        rows = rng.standard_normal((64, n))
        rows[::4] = rows[::4, :1]  # constant rows
        rows[1::4] = rows[1::4, :1]
        rows[1::4, rng.integers(0, n)] += 1.0  # rows where exactly one entry differs
        rows[2::8] = 0.1  # constant rows whose mean rounds
        expected = [len(set(row)) > 1 for row in rows]
        np.testing.assert_array_equal(_varies(rows), expected)
        np.testing.assert_array_equal(_varies(np.ascontiguousarray(rows.T), axis=0), expected)

    @pytest.mark.parametrize("n", [2, 7, 8, 40])
    def test_every_axis_of_2d_and_3d_stacks(self, n):
        # n = 2 and 7 take the entry loop, 8 and 40 the line-wise reduce
        rng = np.random.default_rng(310 + n)
        lines = rng.integers(0, 2, (3, 5, n)).astype(float)  # two levels: some lines constant
        lines[0, ::2] = 0.5
        lines[1, 1::2] = -0.0  # -0.0 equals 0.0
        lines[1, 1::2, -1] = 0.0
        oracle = np.array([[len(set(line)) > 1 for line in stack] for stack in lines.tolist()])
        assert oracle.any() and not oracle.all()
        for axis in (-1, 0, -2):
            for stack, expected in ((lines[0], oracle[0]), (lines, oracle)):
                a = np.ascontiguousarray(np.moveaxis(stack, -1, axis))  # lines along axis
                got = _varies(a, axis=axis)
                np.testing.assert_array_equal(got, expected, err_msg=f"axis {axis}, {a.shape}")


def variable_major(pairs):
    """The same (rows, 2, n) values, each variable one C-contiguous (n, rows) plane."""
    return np.ascontiguousarray(pairs.transpose(1, 2, 0)).transpose(2, 0, 1)


class TestMemoryLayout:
    """Every kernel gives the same bits on row-major and variable-major rows."""

    KERNELS = {
        "rank_rows ranks": lambda x, y: rank_rows(x)[0],
        "rank_rows ties": lambda x, y: rank_rows(x)[1],
        "pearson_rows": pearson_rows,
        "unchecked pearson": _pearson_rows,
        "spearman_rows": spearman_rows,
        "kendall_rows": kendall_rows,
        "kendall_rows a": lambda x, y: kendall_rows(x, y, variant="a"),
    }

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_kernels_ignore_the_layout(self, n, tied):
        rng = np.random.default_rng(1200 + n)
        pairs = rng.standard_normal((500, 2, n))
        if tied:
            pairs = np.floor(1.5 * pairs)
            pairs[::50, 0] = 2.0  # constant rows
        swapped = variable_major(pairs)
        assert swapped[:, 0].T.flags.c_contiguous and not swapped[:, 0].flags.c_contiguous
        for name, kernel in self.KERNELS.items():
            want = kernel(pairs[:, 0], pairs[:, 1])
            assert kernel(swapped[:, 0], swapped[:, 1]).tobytes() == want.tobytes(), name
        assert _varies(swapped).tobytes() == _varies(pairs).tobytes()


class TestKendallSwitch:
    """Every row length goes through the one (x, y) sort and merge counter:
    short rows form one base block of width n, and neither the length nor
    the row count selects a path."""

    @pytest.mark.parametrize("n", range(2, 57))
    def test_both_paths_match_pair_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        tied = rng.integers(0, 4, (2, 4, n)).astype(float)
        untied = rng.standard_normal((2, 4, n))
        with np.errstate(invalid="ignore", divide="ignore"):
            for x, y in (tied, untied):
                for variant in ("a", "b"):
                    np.testing.assert_array_equal(
                        kendall_rows(x, y, variant=variant),
                        [kendall_oracle(x[i], y[i], variant) for i in range(len(x))])

    @pytest.mark.parametrize("rows", [1, 128, 129, 4096])
    def test_every_row_count_matches_float_signs(self, rows):
        rng = np.random.default_rng(rows)
        for n in (23, 24, 25, 51, 52, 53, 63, 64):
            xs, ys = sign_sum_cases(rng, n, rows), sign_sum_cases(rng, n, rows)
            for name in ("untied", "integer ties", "edge values"):
                for variant in ("a", "b"):
                    np.testing.assert_array_equal(
                        kendall_rows(xs[name], ys[name], variant=variant),
                        float_sign_kendall(xs[name], ys[name], variant),
                        err_msg=f"{name}, n = {n}, tau-{variant}")


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

    @pytest.mark.parametrize("n", [5, 100])
    @pytest.mark.parametrize("value", [0.1, 1 / 3, 0.7, 1e50])
    def test_constant_row_is_nan(self, value, n):
        # the mean of such a row rounds, so its centered values are tiny
        # equal numbers, not zeros
        constant = np.full((1, n), value)
        other = np.random.default_rng(n).standard_normal((1, n))
        for x, y in ((constant, constant), (constant, other), (other, constant)):
            assert np.isnan(pearson_rows(x, y)[0])

    @pytest.mark.parametrize("n", [2, 5, 7, 8, 50])
    def test_unchecked_rows_that_vary_keep_their_bytes(self, n):
        x, y = np.random.default_rng(n).standard_normal((2, 300, n))
        assert _pearson_rows(x, y).tobytes() == pearson_rows(x, y).tobytes()


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
            ranked = PairedSample(rank_one(s.x)[0], rank_one(s.y)[0])
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

    def test_large_tied_row_kernel_matches_oracle(self):
        # many x ties: the (x, y) sort must keep the y order within each x tie
        rng = np.random.default_rng(34)
        x = rng.integers(0, 6, size=(2, 400)).astype(float)
        y = np.clip(x + rng.integers(-2, 3, size=(2, 400)), 0, 5)
        got = kendall_rows(x, y)
        for i in range(2):
            assert got[i] == pytest.approx(kendall_oracle(x[i], y[i]), abs=1e-12)


class TestKendallLongRows:
    """The one-sort path at the base-block edges of the merge counter: one
    block up to n = 127, two up to 254, four from 255; 128 is past int8."""

    @pytest.mark.parametrize("n", [53, 63, 64, 127, 128, 254, 255])
    def test_matches_pair_oracle(self, n):
        rng = np.random.default_rng(300 + n)
        untied = rng.standard_normal((2, 3, n))
        likert = rng.integers(1, 7, (2, 3, n)).astype(float)
        cases = {"untied": (untied[0], untied[1] + 0.4 * untied[0]),
                 "likert both": (likert[0], likert[1]),
                 "ties in x only": (likert[0], untied[1]),
                 "ties in y only": (untied[0], likert[1]),
                 "constant x": (np.full((3, n), 2.0), untied[1]),
                 "constant y": (likert[0], np.full((3, n), -1.0))}
        with np.errstate(invalid="ignore", divide="ignore"):
            for name, (x, y) in cases.items():
                for variant in ("a", "b"):
                    np.testing.assert_array_equal(
                        kendall_rows(x, y, variant=variant),
                        [kendall_oracle(x[i], y[i], variant) for i in range(len(x))],
                        err_msg=f"{name}, tau-{variant}")


class TestUntiedFastPaths:
    """A long-row array without a tie anywhere skips the tie handling; one
    tie sends the whole array down the tie path.  Both agree with the
    oracles bit for bit on the checked rows, at 1 row and at a full chunk.
    n = 10 is the first where c = n(n**2 - 1)/12 is not an integer."""

    SIZES = [8, 10, 53, 213, 1000]

    @pytest.mark.parametrize("rows", [1, 4096])
    @pytest.mark.parametrize("n", SIZES)
    def test_rank_and_spearman(self, n, rows):
        rng = np.random.default_rng(800 + n)
        check = checked_rows(rng, rows)
        for name, (x, y) in untied_path_cases(rng, rows, n).items():
            ranks, ties = rank_rows(x)
            rx = np.array([rank_oracle(row) for row in x[check].tolist()])
            ry = np.array([rank_oracle(row) for row in y[check].tolist()])
            np.testing.assert_array_equal(ranks[check], rx, err_msg=name)
            np.testing.assert_array_equal(
                ties[check], [len(set(row)) < n for row in x[check].tolist()], err_msg=name)
            np.testing.assert_array_equal(spearman_rows(x, y)[check], pearson_reference(rx, ry),
                                          err_msg=name)

    @pytest.mark.parametrize("rows", [1, 4096])
    @pytest.mark.parametrize("n", SIZES)
    def test_kendall(self, n, rows):
        rng = np.random.default_rng(900 + n)
        check = checked_rows(rng, rows)
        untied = untied_path_cases(rng, rows, n)
        likert = rng.integers(1, 7, (rows, n)).astype(float)
        x, y = untied["untied"]
        cases = {name: (a, b, "b") for name, (a, b) in untied.items()}
        cases.update({"ties in x only": (likert, y, "ab"), "ties in y only": (x, likert, "ab")})
        for name, (a, b, variants) in cases.items():
            for variant in variants:
                np.testing.assert_array_equal(
                    kendall_rows(a, b, variant=variant)[check],
                    float_sign_kendall(a[check], b[check], variant),
                    err_msg=f"{name}, tau-{variant}")


class TestTieRunsAcrossRows:
    """Tie runs are taken over the flattened sorted rows, and position 0 of
    every row begins a run: a run must not cross into the next row."""

    @pytest.mark.parametrize("rows", [1, 100, 4096])
    @pytest.mark.parametrize("n", [8, 23, 64, 213])
    def test_ranks_and_tied_pair_counts(self, n, rows):
        for name, a in row_boundary_cases(np.random.default_rng(n + rows), rows, n).items():
            assert _level_ranks(a) is None, name
            ranks, ties = rank_rows(a)
            row = a[0].tolist()
            np.testing.assert_array_equal(ranks, np.tile(rank_oracle(row), (rows, 1)),
                                          err_msg=name)
            assert ties.all(), name
            pairs = sum(u == v for u, v in itertools.combinations(row, 2))
            np.testing.assert_array_equal(_tied_pair_counts(_tie_run_flags(np.sort(a, axis=1))),
                                          [pairs] * rows, err_msg=name)

    @pytest.mark.parametrize("rows", [1, 100, 4096])
    @pytest.mark.parametrize("n", [8, 23, 64, 213])
    def test_kendall(self, n, rows):
        rng = np.random.default_rng(1000 + n + rows)
        xs, ys = row_boundary_cases(rng, rows, n), row_boundary_cases(rng, rows, n)
        for name in xs:
            x, y = xs[name], ys[name]
            for variant in ("a", "b"):
                expected = float_sign_kendall(x[:1], y[:1], variant)
                np.testing.assert_array_equal(kendall_rows(x, y, variant=variant),
                                              np.tile(expected, rows),
                                              err_msg=f"{name}, tau-{variant}")


def resampled_rows(rng, rows, n, pool=12_000):
    """rows x n values drawn with replacement from ``pool`` continuous values,
    as the psychometric resampling study draws its samples: most rows of 200
    repeat a value, and each tie is a short run among many singletons."""
    return rng.standard_normal(pool)[rng.integers(0, pool, (rows, n))]


def crafted_tie_rows(rng, n):
    """Continuous rows of length n, tied and untied side by side: two
    adjacent tied runs; tied runs at sorted positions 0-1 and n-2..n-1; a
    whole-row run; a signed-zero pair; untied rows between them."""
    a = rng.standard_normal((7, n))
    a[1, :4] = [0.5, 0.5, 0.75, 0.75]  # adjacent in sorted order: nothing lies between
    a[1, 4:] = np.where(np.abs(a[1, 4:] - 0.625) < 0.2, a[1, 4:] + 1.0, a[1, 4:])
    a[3, :4] = [-9.5, -9.5, 9.5, 9.5]
    a[4] = 0.25
    a[6, :2] = [0.0, -0.0]
    return a


class TestSparseTiesAtResamplingShape:
    """Sparse ties in continuous rows, as resampling with replacement makes
    them, and hand-placed runs at the ends and side by side: the sorted path
    must give the oracle's ranks and tie counts bit for bit."""

    @staticmethod
    def check(x, y):
        n = x.shape[1]
        assert _level_ranks(x) is None
        ranks, ties = rank_rows(x)
        rx = np.array([rank_oracle(row) for row in x.tolist()])
        ry = np.array([rank_oracle(row) for row in y.tolist()])
        np.testing.assert_array_equal(ranks, rx)
        np.testing.assert_array_equal(ties, [len(set(row)) < n for row in x.tolist()])
        np.testing.assert_array_equal(spearman_rows(x, y), pearson_reference(rx, ry))
        pairs = [sum(u == v for u, v in itertools.combinations(row, 2)) for row in x.tolist()]
        counts = _tied_pair_counts(_tie_run_flags(np.sort(x, axis=1)))
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, pairs)

    def test_resampled_rows(self):
        rng = np.random.default_rng(30)
        x, y = resampled_rows(rng, 320, 200), resampled_rows(rng, 320, 200)
        ties = rank_rows(x)[1]
        assert 0.5 < ties.mean() < 1.0  # the sparse-tie regime: most rows tie, a few do not
        self.check(x, y)
        for r in (np.argmax(ties), np.argmin(ties)):  # one tied and one untied row alone
            self.check(x[r:r + 1], y[r:r + 1])

    @pytest.mark.parametrize("n", [8, 9, 200])
    def test_crafted_runs(self, n):
        rng = np.random.default_rng(n)
        x = crafted_tie_rows(rng, n)
        self.check(x, rng.standard_normal(x.shape))
        for r in range(len(x)):
            self.check(x[r:r + 1], resampled_rows(rng, 1, n))

    def test_no_rows(self):
        x = np.empty((0, 200))
        ranks, ties = rank_rows(x)
        assert ranks.shape == (0, 200) and ties.shape == (0,)
        assert spearman_rows(x, x).shape == (0,)
        counts = _tied_pair_counts(np.ones((0, 200), dtype=bool))
        assert counts.shape == (0,) and counts.dtype == np.int64


class TestZeroWidthRows:
    """Rows of no values give NaN per row (rank_rows: empty ranks, no ties),
    and no kernel warns."""

    @pytest.mark.parametrize("rows", [0, 3])
    def test_quiet_nan(self, rows):
        x = np.empty((rows, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks, ties = rank_rows(x)
            coefficients = [pearson_rows(x, x), spearman_rows(x, x), kendall_rows(x, x),
                            kendall_rows(x, x, variant="a")]
        assert ranks.shape == (rows, 0)
        np.testing.assert_array_equal(ties, np.zeros(rows, dtype=bool))
        for r in coefficients:
            assert r.shape == (rows,) and np.isnan(r).all()


class _TiePass(Exception):
    pass


class TestFastPathsArePinned:
    """The tie passes raise here: untied arrays must not reach them, and an
    array with one tie must."""

    @pytest.fixture(autouse=True)
    def tie_passes_raise(self, monkeypatch):
        def tie_pass(*args):
            raise _TiePass
        monkeypatch.setattr(estimators, "_tied_runs", tie_pass)
        monkeypatch.setattr(estimators, "_tied_pair_counts", tie_pass)

    @pytest.mark.parametrize("n", [8, 213])
    def test_untied_arrays_skip_the_tie_passes(self, n):
        x, y = np.random.default_rng(n).standard_normal((2, 64, n))
        assert not rank_rows(x)[1].any()
        assert np.isfinite(spearman_rows(x, y)).all()
        assert np.isfinite(kendall_rows(x, y)).all()

    @pytest.mark.parametrize("kernel", ["rank", "spearman x", "spearman y", "kendall x",
                                        "kendall y"])
    def test_one_tie_reaches_the_tie_passes(self, kernel):
        x, y = np.random.default_rng(5).standard_normal((2, 64, 213))
        tied = x.copy()
        tied[40, 7] = tied[40, 100]
        calls = {"rank": lambda: rank_rows(tied),
                 "spearman x": lambda: spearman_rows(tied, y),
                 "spearman y": lambda: spearman_rows(y, tied),
                 "kendall x": lambda: kendall_rows(tied, y),
                 "kendall y": lambda: kendall_rows(y, tied)}
        with pytest.raises(_TiePass):
            calls[kernel]()


def quadratic_inversions(codes):
    """Pairs i < j with codes[i] > codes[j] per row, one position at a time."""
    return sum(((codes[:, i:i + 1] > codes[:, i + 1:]).sum(axis=1)
                for i in range(codes.shape[1] - 1)), np.zeros(len(codes), dtype=int))


def level_inversions(codes, levels):
    """Pairs i < j with codes[i] > codes[j] per row of codes in [0, levels):
    each position counts the earlier positions of every level above its own."""
    total = np.zeros(len(codes), dtype=int)
    for level in range(levels):
        at = codes == level
        total += ((np.cumsum(at, axis=1) - at) * (codes < level)).sum(axis=1)
    return total


def inversion_cases(rng, rows, n):
    """Untied (permutations) and tied (four levels) code arrays of rows x n."""
    return {"untied": np.argsort(rng.random((rows, n)), axis=1),
            "tied": rng.integers(0, 4, (rows, n))}


# n = 127 * 2**k fills 2**k base blocks of 127; one more makes 2**(k+1) blocks
# of 64 behind 2**k - 1 pads.  n = 63 * 2**k + (0, 1) fills 2**(k-1) blocks of
# 126, then of 127 behind 2**(k-1) - 1 pads.
BLOCK_EDGES = sorted({b * 2 ** k + e for b, ks in ((63, range(1, 5)), (127, range(4)))
                      for k in ks for e in (0, 1)})


class TestInversionCounts:
    @pytest.mark.parametrize("rows", [1, 1024])
    @pytest.mark.parametrize("n", [*range(1, 18), 31, 32, 33, 1000])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_base_block_edges(self, tied, n, rows):
        # n = 1..127 fill one base block of width n without pads;
        # n = 1000 fills 8 blocks of 125 without pads
        rng = np.random.default_rng(n + rows)
        if tied:
            codes = rng.integers(0, 4, (rows, n))
        else:
            codes = np.argsort(rng.random((rows, n)), axis=1)
        assert _inversion_counts(codes).tolist() == quadratic_inversions(codes).tolist()

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_matches_quadratic_count_for_every_padding(self, tied):
        # n = 1..70 and 126, 127: one base block of width n without pads;
        # n = 128..131: two blocks of 64..66 behind 0 or 1 pad
        rng = np.random.default_rng(34)
        for n in [*range(1, 71), *range(126, 132)]:
            if tied:
                v = rng.integers(0, 4, (6, n)).astype(float)
            else:
                v = rng.standard_normal((6, n))
            oracle = [sum(1 for i, j in itertools.combinations(range(n), 2)
                          if row[i] > row[j]) for row in v]
            codes = np.array([np.unique(row, return_inverse=True)[1] for row in v])
            assert _inversion_counts(codes).tolist() == oracle, n

    @pytest.mark.parametrize("rows", [1, 1024])
    def test_every_short_length_and_block_edge(self, rows):
        # n = 1..130 crosses 1 and 2 base blocks and the int8 -> int16 switch
        # at 128; the edges double the block count up to 16 blocks of 64
        rng = np.random.default_rng(rows)
        for n in sorted(set(range(1, 131)) | set(BLOCK_EDGES)):
            for name, codes in inversion_cases(rng, rows, n).items():
                expected = (level_inversions(codes, 4) if name == "tied"
                            else quadratic_inversions(codes))
                np.testing.assert_array_equal(_inversion_counts(codes), expected,
                                              err_msg=f"{name}, n = {n}")

    @pytest.mark.parametrize("n", [2 ** 14 - 1, 2 ** 14, 2 ** 15 - 1, 2 ** 15])
    def test_int16_to_int32_switch(self, n):
        # the largest merge key 2n + 1 fits int16 at 2**14 - 1 and not at 2**14;
        # the largest code + 1 is n: it fits int16 at 2**15 - 1 and not at 2**15
        rng = np.random.default_rng(n)
        cases = inversion_cases(rng, 1, n)
        cases["reversed"] = np.arange(n)[None, ::-1]
        for name, codes in cases.items():
            expected = quadratic_inversions(codes).tolist()
            assert _inversion_counts(codes).tolist() == expected, name
        assert expected == [n * (n - 1) // 2]


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
        ranked = np.column_stack([rank_one(table[:, j])[0] for j in range(4)])
        np.testing.assert_allclose(correlation_matrix(ranked),
                                   correlation_matrix(table, "spearman"), atol=1e-12)

    def test_constant_column_named_in_error(self):
        table = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        with pytest.raises(DegenerateSampleError, match="col1"):
            correlation_matrix(table)

    def test_refuses_kendall(self):
        table = np.random.default_rng(43).integers(0, 4, size=(30, 3)).astype(float)
        with pytest.raises(InputError, match="pearson or spearman"):
            correlation_matrix(table, "kendall")


class TestMagnitudeBound:
    """Pearson refuses exactly the moment sums outside float64's normal range:
    [1e200, 1, 2, 3] squares past 1.8e308, and [1, 2, 3] * 1e-200 squares to 0."""

    BIG = [1e200, 1.0, 2.0, 3.0]
    OTHER = [0.0, 1.0, 2.0, 4.0]
    SMALL = [1e-200, 2e-200, 3e-200, 5e-200]

    def test_pearson_refuses_values_past_the_bound(self):
        for x, y in ((self.BIG, self.OTHER), (self.OTHER, [-1e160, 1.0, 2.0, 3.0]),
                     (self.SMALL, self.OTHER)):
            with pytest.raises(InputError, match="normal range"):
                pearson(PairedSample(x, y))
            assert np.isnan(pearson_rows([x], [y])).all()

    def test_pearson_matrix_refuses_values_past_the_bound(self):
        # unrefused, the small column's off-diagonal read 1.0 (true value 0.98)
        for column in (self.BIG, self.SMALL):
            with pytest.raises(InputError, match="normal range"):
                correlation_matrix(np.column_stack([column, self.OTHER]))

    def test_values_at_the_bound_are_correlated(self):
        # 1e150 was once the bound; 1e153 keeps the sum of squares below 1.8e308
        for big in (1e150, 1e153):
            x = [big, 1.0, 2.0, -big]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = pearson(PairedSample(x, self.OTHER)).value
                mat = correlation_matrix(np.column_stack([x, self.OTHER]))
            scaled = np.corrcoef(np.divide(x, big), self.OTHER)[0, 1]
            assert r == pytest.approx(scaled, abs=1e-15)
            assert mat[0, 1] == pytest.approx(scaled, abs=1e-15)

    def test_rank_coefficients_take_any_finite_value(self):
        sample = PairedSample(self.BIG, self.OTHER)
        assert spearman(sample).value == pytest.approx(-0.2)
        assert kendall(sample).value == pytest.approx(0.0)
        mat = correlation_matrix(np.column_stack([self.BIG, self.OTHER]), "spearman")
        assert mat[0, 1] == pytest.approx(-0.2)


POWERS = (-1000, -700, -300, -260, -256, 0, 250, 256, 300, 700, 1000)


def _unless_refused(compute):
    """compute()'s value, or None if it raises InputError; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return compute()
        except InputError:
            return None


class TestPowerOfTwoScaling:
    """Scaling x by 2**kx and y by 2**ky changes no bit of any moment kernel's
    result, or the kernel refuses: InputError, or NaN from pearson_rows.

    Every operation scales exactly while each sum stays in float64's normal
    range.  Unrefused, pearson read 0.0 at 2**256 (Sxx * Syy overflowed),
    the moments' kurtosis 1.50000000006548 at 2**-260 and NaN at 2**-300,
    and a matrix 1.0 at 2**-700.  The scans append one axis to x and to y,
    so they are scaled along kx == ky.
    """

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(33)
        return {n: (rng.standard_normal((6, n)), rng.standard_normal((6, n)))
                for n in (3, 5, 20)}

    @pytest.mark.parametrize("ky", POWERS)
    @pytest.mark.parametrize("kx", POWERS)
    def test_row_kernels(self, rows, kx, ky):
        sx, sy = 2.0 ** kx, 2.0 ** ky
        for x, y in rows.values():
            expected = pearson_rows(x, y)
            got = _unless_refused(lambda: pearson_rows(x * sx, y * sy))
            kept = ~np.isnan(got)
            assert np.array_equal(got[kept], expected[kept])
            if max(abs(kx), abs(ky)) <= 250:
                assert kept.all()
            if max(abs(kx), abs(ky)) >= 700:
                assert not kept.any()
            for i in range(len(x)):
                r = _unless_refused(lambda: pearson(PairedSample(x[i] * sx, y[i] * sy)).value)
                assert r == (expected[i] if kept[i] else None)

    @pytest.mark.parametrize("ky", POWERS)
    @pytest.mark.parametrize("kx", POWERS)
    def test_matrices_and_moments(self, rows, kx, ky):
        x, y = rows[20]
        table = np.column_stack([x[:2].T, y[:2].T])
        scale = np.repeat([2.0 ** kx, 2.0 ** ky], 2)
        for kind in ("pearson", "spearman"):
            got = _unless_refused(lambda: correlation_matrix(table * scale, kind))
            if got is not None:
                assert np.array_equal(got, correlation_matrix(table, kind))
            assert (got is None) == (kind == "pearson" and max(abs(kx), abs(ky)) >= 700)
        names = tuple("abcd")
        got = _unless_refused(lambda: moment_profile(PopulationDataset(names, table * scale)))
        assert (got is None) == (max(abs(kx), abs(ky)) >= 256)  # m4 overflows or m2**2 underflows
        if got is not None:
            expected = moment_profile(PopulationDataset(names, table))
            assert np.array_equal(got["mean"], expected["mean"] * scale)
            assert np.array_equal(got["sd"], expected["sd"] * scale)
            assert np.array_equal(got["skewness"], expected["skewness"])
            assert np.array_equal(got["kurtosis"], expected["kurtosis"])

    @pytest.mark.parametrize("k", POWERS)
    def test_scans(self, rows, k):
        x, y = rows[20]
        base, scale = PairedSample(x[0], y[0]), 2.0 ** k
        axis = AxisSpec(-3.0, 3.0, 0.5)
        scaled_base = PairedSample(base.x * scale, base.y * scale)
        scaled_axis = AxisSpec(-3.0 * scale, 3.0 * scale, 0.5 * scale)
        for scan, scaled_scan in (
                (lambda: scan_single(base, axis),
                 lambda: scan_single(scaled_base, scaled_axis)),
                (lambda: scan_double(base, (4.0, -2.5), axis),
                 lambda: scan_double(scaled_base, (4.0 * scale, -2.5 * scale), scaled_axis))):
            got = _unless_refused(scaled_scan)
            if abs(k) != 256:  # base Sxx * Syy near 2**(4k): in range to 2**+-1000
                assert (got is None) == (abs(k) >= 260)
            if got is not None:
                expected = scan()
                assert np.array_equal(got.axis, expected.axis * scale)
                assert np.array_equal(got.delta_pearson, expected.delta_pearson)
                assert np.array_equal(got.delta_spearman, expected.delta_spearman)


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
