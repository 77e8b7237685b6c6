"""Tests for the outlier-influence scan."""

import json

import numpy as np
import pytest

from corrlab import cli
from corrlab.errors import InputError
from corrlab.estimators import PairedSample, pearson, spearman
from corrlab.influence import (MAX_AXIS_POINTS, AxisSpec, _scan, delta_width,
                               exceedance_fraction, scan_double, scan_single)
from corrlab.randgen import RngStream, sample_bivariate_normal

COARSE = AxisSpec(-5.0, 5.0, 0.5)


@pytest.fixture(scope="module")
def base():
    return sample_bivariate_normal(0.2, 200, RngStream(1000))


@pytest.fixture(scope="module")
def coarse_grid(base):
    return scan_single(base, COARSE)


class TestAxisSpec:
    def test_default_axis_has_201_points(self):
        v = AxisSpec().values
        assert v.size == 201
        assert v[0] == -5.0 and v[-1] == 5.0
        np.testing.assert_allclose(np.diff(v), 0.05)

    def test_validation(self):
        with pytest.raises(InputError):
            AxisSpec(5.0, -5.0, 0.05)
        with pytest.raises(InputError):
            AxisSpec(0.0, 1.0, -0.1)

    def test_size_matches_values(self):
        for spec in (AxisSpec(), COARSE, AxisSpec(-1.0, 5.0, 0.5), AxisSpec(0.0, 1.0, 5.0)):
            assert spec.size == spec.values.size

    def test_axis_stops_at_hi(self):
        # rounding the quotient 1/0.6 once scanned 0, 0.6 and 1.2
        assert AxisSpec(0.0, 1.0, 0.6).values.tolist() == [0.0, 0.6]
        assert AxisSpec(0.0, 1.0, 0.5).values.tolist() == [0.0, 0.5, 1.0]
        # steps that divide the span in decimal keep hi, within a few ulps
        for (lo, hi, step), size in (((0.0, 0.3, 0.1), 4), ((-5.0, 5.0, 0.05), 201),
                                     ((-5.0, 5.0, 0.005), 2001), ((-5.0, 5.0, 0.5), 21)):
            values = AxisSpec(lo, hi, step).values
            assert values.size == size and values[-1] == pytest.approx(hi, abs=1e-12)

    def test_largest_allowed_axis(self):
        assert AxisSpec(-5.0, 5.0, 0.005).size == MAX_AXIS_POINTS

    @pytest.mark.parametrize("lo, hi, step", [
        (-5.0, 5.0, 0.00499), (-5.0, 5.0, 1e-4), (-5.0, 5.0, 1e-300),
        (-5.0, 5.0, 5e-324), (-1.7e308, 1.7e308, 1.0), (0.0, 1.0, np.inf)])
    def test_oversized_or_non_finite_axis_rejected_before_allocation(self, lo, hi, step):
        # only the constructor runs; no axis or scan is ever built
        with pytest.raises(InputError):
            AxisSpec(lo, hi, step)


class TestScanSingle:
    def test_default_grid_shape(self, base):
        grid = scan_single(base, AxisSpec(-5, 5, 0.05))
        assert grid.delta_pearson.shape == (201, 201)
        assert grid.delta_spearman.shape == (201, 201)
        assert np.isfinite(grid.delta_pearson).all()

    @pytest.mark.parametrize("case", ["single", "double", "tied-double"])
    def test_cells_match_direct_recomputation(self, base, coarse_grid, case):
        if case == "single":
            grid = coarse_grid
        elif case == "double":
            grid = scan_double(base, (3.0, -3.0), COARSE)
        else:
            # integer ties; the axis hits base values and the fixed
            # outlier exactly, so the scanned ranks are mid-ranks
            tied = PairedSample(np.array([0.0, 1, 1, 2, 3, 3, 3, 4, 2, 0]),
                                np.array([1.0, 0, 2, 2, 3, 1, 4, 4, 3, 1]))
            grid = scan_double(tied, (2.0, 3.0), AxisSpec(-1.0, 5.0, 0.5))
        scanned = (grid.base if grid.first_outlier is None
                   else grid.base.append(*grid.first_outlier))
        axis = grid.axis
        for i in range(axis.size):
            for j in range(axis.size):
                augmented = scanned.append(axis[i], axis[j])
                assert grid.delta_pearson[i, j] == pytest.approx(
                    pearson(augmented).value - grid.base_pearson, abs=1e-12)
                assert grid.delta_spearman[i, j] == pytest.approx(
                    spearman(augmented).value - grid.base_spearman, abs=1e-12)

    def test_point_at_sample_mean_is_nearly_neutral(self, base):
        augmented = base.append(float(base.x.mean()), float(base.y.mean()))
        delta = pearson(augmented).value - pearson(base).value
        assert abs(delta) < 0.002

    def test_spearman_moves_less_than_pearson(self, coarse_grid):
        assert (np.abs(coarse_grid.delta_spearman).max()
                < np.abs(coarse_grid.delta_pearson).max())

    def test_spearman_saturates_beyond_base_range(self, base, coarse_grid):
        # once the appended point is outside the base range in both
        # coordinates its ranks stop changing, so the surface is constant
        axis = coarse_grid.axis
        beyond_x = axis > base.x.max()
        beyond_y = axis > base.y.max()
        corner = coarse_grid.delta_spearman[np.ix_(beyond_x, beyond_y)]
        assert corner.size > 1
        np.testing.assert_allclose(corner, corner.ravel()[0], atol=1e-12)

    def test_reflection_antisymmetry(self, base):
        # negating the base y and the scan's y axis negates both surfaces
        reflected_base = PairedSample(base.x, -base.y)
        grid = scan_single(base, COARSE)
        reflected = scan_single(reflected_base, COARSE)
        np.testing.assert_allclose(reflected.delta_pearson,
                                   -grid.delta_pearson[:, ::-1], atol=1e-12)
        np.testing.assert_allclose(reflected.delta_spearman,
                                   -grid.delta_spearman[:, ::-1], atol=1e-12)


class TestScanDouble:
    def test_fixed_corner_outlier_widens_pearson(self, base):
        grid = scan_double(base, (5.0, 5.0), COARSE)
        assert delta_width(grid, "pearson") >= 0.15
        assert np.abs(grid.delta_spearman).max() <= 0.06

    def test_near_neutral_first_outlier_matches_single_scan(self, base, coarse_grid):
        double = scan_double(base, (0.0, 0.0), COARSE)
        assert np.max(np.abs(double.delta_pearson - coarse_grid.delta_pearson)) < 0.01
        assert np.max(np.abs(double.delta_spearman - coarse_grid.delta_spearman)) < 0.01

    def test_records_first_outlier(self, base):
        grid = scan_double(base, (2.0, -3.0), COARSE)
        assert grid.first_outlier == (2.0, -3.0)


class TestScannedMagnitude:
    # past about 1.3e154 a column's sum of squares overflows: unrefused, the first
    # scan wrote 9,189 NaN cells of 10,201 and the second a Pearson of 0 in every cell
    @pytest.mark.parametrize("argv", [
        ["--axis-lo", "0", "--axis-hi", "1e155", "--axis-step", "1e153"],
        ["--outlier-x", "1e200", "--outlier-y", "0"]])
    def test_overflowing_scan_is_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main(["influence", *argv, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    # values up to about 1e153 keep every sum finite; 2e150 was refused by a
    # +-1e150 bound before the sums themselves were checked
    @pytest.mark.parametrize("argv", [
        ["--axis-lo=-1e150", "--axis-hi=1e150", "--axis-step=1e148"],
        ["--outlier-x=2e150", "--outlier-y=-2e150"]])
    def test_scan_at_the_bound_is_complete(self, tmp_path, argv):
        assert cli.main(["influence", *argv, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "influence_summary.json").read_text())
        assert summary["missing_cells"] == 0

    def test_large_outlier_scans_as_its_scaled_image(self, base):
        # the scan at 2e150 is the scan of everything times 2**-500 (outlier 0.61)
        # bit for bit: no sum of either leaves float64's normal range
        grid = scan_double(base, (2e150, -2e150), COARSE)
        scale = 2.0 ** -500
        scanned = base.append(2e150, -2e150)
        image = _scan(PairedSample(scanned.x * scale, scanned.y * scale), grid.axis * scale)
        assert np.array_equal(grid.delta_pearson, image[0] - grid.base_pearson)
        assert np.array_equal(grid.delta_spearman, image[1] - grid.base_spearman)

    def test_every_scanned_value_is_checked(self, base):
        big = 1e200  # a column holding it has a sum of squares past 1.8e308
        with pytest.raises(InputError, match="normal range"):
            scan_single(base.append(0.0, -big), COARSE)
        with pytest.raises(InputError, match="normal range"):
            scan_double(base, (big, 0.0), COARSE)
        with pytest.raises(InputError, match="normal range"):
            scan_single(base, AxisSpec(-big, 0.0, big / 100))


class TestExceedance:
    def test_zero_threshold_is_nearly_everything(self, coarse_grid):
        assert exceedance_fraction(coarse_grid, 0.0) > 0.99

    def test_pearson_exceeds_spearman(self, coarse_grid):
        assert (exceedance_fraction(coarse_grid, 0.05, "pearson")
                > exceedance_fraction(coarse_grid, 0.05, "spearman"))

    def test_negative_threshold_rejected(self, coarse_grid):
        with pytest.raises(InputError):
            exceedance_fraction(coarse_grid, -0.1)

    def test_width_ratio_property(self, coarse_grid):
        assert delta_width(coarse_grid, "pearson") >= 3 * delta_width(coarse_grid,
                                                                      "spearman")

    def test_raw_surfaces_recover_base(self, coarse_grid):
        raw = coarse_grid.raw("pearson")
        np.testing.assert_allclose(raw - coarse_grid.delta_pearson,
                                   coarse_grid.base_pearson)
