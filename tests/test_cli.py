"""Tests for the command-line layer: config resolution, artifacts, exit codes."""

import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrlab
from corrlab import cli, exact, resample
from corrlab.errors import NumericError, UsageError
from corrlab.randgen import CALIBRATION_VERSION


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def read_csv(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    assert lines[0].startswith("# config ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestParsing:
    def test_help_lists_every_schema_key(self, capsys):
        for sub, keys in cli.SCHEMA.items():
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([sub, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for key in keys:
                assert f"--{key}" in text, (sub, key)
            for common in ("--seed", "--out-dir", "--scale", "--threads",
                           "--preset", "--config"):
                assert common in text

    def test_unknown_flag_exits_with_usage_code(self):
        assert cli.main(["simulate", "--bogus-flag", "1"]) == 2

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcommand": "convert", "pearson": 0.2,
                                   "mystery_key": 1}))
        code = cli.main(["convert", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "mystery_key" in capsys.readouterr().err

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pearson": 0.2, "seed": 5}))
        out = tmp_path / "out"
        assert cli.main(["convert", "--config", str(cfg), "--pearson", "0.6",
                         "--out-dir", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["params"]["pearson"] == 0.6
        assert resolved["seed"] == 5

    def test_config_for_wrong_subcommand_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcommand": "density"}))
        assert cli.main(["convert", "--pearson", "0.2", "--config", str(cfg)]) == 2

    def test_unknown_preset_rejected(self):
        assert cli.main(["simulate", "--preset", "fig99"]) == 2

    def test_preset_of_other_subcommand_rejected(self):
        assert cli.main(["density", "--preset", "fig2"]) == 2

    def test_preset_scale_suffix(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["simulate", "--preset", "fig2-desk", "--out-dir", str(tmp_path)])
        cfg = cli.resolve_config(args)
        assert cfg.scale == "desk"
        assert cfg.params["reps"] == 20000
        args = cli.build_parser().parse_args(
            ["simulate", "--preset", "fig2-paper", "--out-dir", str(tmp_path)])
        cfg = cli.resolve_config(args)
        assert cfg.params["reps"] == 100000
        assert cfg.params["calibration-n"] == 10 ** 7

    def test_every_preset_resolves(self, tmp_path):
        for name, (sub, _) in cli.PRESETS.items():
            args = cli.build_parser().parse_args(
                [sub, "--preset", name, "--out-dir", str(tmp_path)])
            cfg = cli.resolve_config(args)
            assert cfg.subcommand == sub

    @pytest.mark.parametrize("argv", [
        ["simulate", "--sizes", "5", "--reps", "3", "--seed", "-1"],
        ["density", "--n", "5", "--mc-reps", "10", "--seed", "-3"],
        ["resample", "--reps", "3", "--seed", "-1"],
        ["convert", "--pearson", "0.2", "--seed", "-1"]])
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer")
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_negative_seed_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": "5", "mc-reps": 10, "seed": -2}))
        assert cli.main(["density", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: seed must be a non-negative integer, got -2")

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "from-env"))
        assert cli.main(["convert", "--pearson", "0.1"]) == 0
        assert (tmp_path / "from-env" / "conversions.json").exists()


class TestConvert:
    def test_prints_reference_conversions(self, tmp_path, capsys):
        assert cli.main(["convert", "--pearson", "0.2",
                         "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "spearman=0.191306" in out
        assert "kendall=0.128188" in out

    def test_kendall_input_round_trip(self, tmp_path):
        assert cli.main(["convert", "--kendall", "0.128188",
                         "--out-dir", str(tmp_path)]) == 0
        values = json.loads((tmp_path / "conversions.json").read_text())
        assert values["pearson"] == pytest.approx(0.2, abs=1e-5)

    def test_requires_exactly_one_input(self, tmp_path):
        assert cli.main(["convert", "--out-dir", str(tmp_path)]) == 2
        assert cli.main(["convert", "--pearson", "0.2", "--kendall", "0.1",
                         "--out-dir", str(tmp_path)]) == 2


class TestDensity:
    def test_curve_integrates_to_one(self, tmp_path):
        assert cli.main(["density", "--pearson", "0.8", "--n", "5",
                         "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "density_rp0.8_n5.csv")
        assert header == ["r", "density"]
        grid = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_curves_share_one_rendered_grid(self, tmp_path):
        # 5,001 points span two render chunks of the shared r texts
        assert cli.main(["density", "--pearson", "0,0.6", "--n", "4,30", "--points", "5001",
                         "--out-dir", str(tmp_path)]) == 0
        for rho in (0.0, 0.6):
            for n in (4, 30):
                _, rows = read_csv(tmp_path / f"density_rp{rho:g}_n{n}.csv")
                curve = exact.density_curve(rho, n, points=5001)
                assert [r[0] for r in rows] == [repr(float(v)) for v in curve.grid]
                assert [r[1] for r in rows] == [repr(float(v)) for v in curve.density]

    def test_histogram_artifact(self, tmp_path):
        assert cli.main(["density", "--pearson", "0.2", "--n", "5",
                         "--mc-reps", "20000", "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "histogram_rp0.2_n5.csv")
        assert header == ["bin_center", "fraction_pearson", "fraction_spearman",
                          "fraction_exact"]
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestArtifacts:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["simulate", "--sizes", "8,16", "--reps", "300",
                             "--seed", "9", "--out-dir", str(out)]) == 0
        for name in ("simulation_summary.csv",):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--sizes", "8,16", "--reps", "300", "--seed", "9",
                  "--threads", "1", "--out-dir", str(a)])
        cli.main(["simulate", "--sizes", "8,16", "--reps", "300", "--seed", "9",
                  "--threads", "4", "--out-dir", str(b)])
        assert ((a / "simulation_summary.csv").read_bytes()
                == (b / "simulation_summary.csv").read_bytes())

    def test_every_artifact_carries_config_hash(self, tmp_path):
        assert cli.main(["resample", "--population", "asvab-like",
                         "--sample-size", "30", "--reps", "50",
                         "--out-dir", str(tmp_path)]) == 0
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        tag = f"# config {resolved['config_hash']}"
        for name in os.listdir(tmp_path):
            if name.endswith(".csv"):
                first = (tmp_path / name).read_text().splitlines()[0]
                assert first == tag, name

    def test_no_temporary_files_left_behind(self, tmp_path):
        cli.main(["density", "--out-dir", str(tmp_path)])
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert leftovers == []

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--sizes", "8", "--reps", "200", "--seed", "1",
                  "--out-dir", str(a)])
        cli.main(["simulate", "--sizes", "8", "--reps", "200", "--seed", "2",
                  "--out-dir", str(b)])
        assert ((a / "simulation_summary.csv").read_bytes()
                != (b / "simulation_summary.csv").read_bytes())


# floats whose shortest repr is easy to get wrong: both zeros, NaN, the
# infinities, subnormals, the extremes and the switch to exponent notation
_AWKWARD_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 0.1]
_CHUNK = cli._RENDER_ROWS


@st.composite
def _float_columns(draw):
    """Two columns of one length, each drawn from a small pool (heavy
    repeats, both zeros) or of fresh values (mostly distinct)."""
    size = draw(st.sampled_from([0, 1, 2, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(2):
        if draw(st.booleans()):
            pool = np.array(_AWKWARD_FLOATS + draw(st.lists(st.floats(), max_size=10)))
            columns.append(pool[rng.integers(0, pool.size, size)])
        else:
            columns.append(rng.standard_normal(size) * 10.0 ** draw(st.integers(-320, 300)))
    return columns


def _rows_text(*columns):
    """The rows that ``_csv_text`` writes for these columns, after its two header lines."""
    header = [f"c{i}" for i in range(len(columns))]
    texts = list(cli._csv_text(header, columns, "0123456789ab"))
    assert texts[0] == f"# config 0123456789ab\n{','.join(header)}\n"
    return "".join(texts[1:])


class TestRendering:
    @settings(max_examples=60, deadline=None)
    @given(columns=_float_columns())
    def test_csv_text_writes_the_repr_of_every_value(self, columns):
        rows = list(zip(*(c.tolist() for c in columns)))
        expected = "".join(",".join(map(repr, row)) + "\n" for row in rows)
        assert _rows_text(*columns) == expected
        assert _rows_text(*(c.tolist() for c in columns)) == expected  # Python floats
        shared = cli._reprs(columns[0])  # rendered once, as density shares its grid
        assert _rows_text(shared, columns[1]) == expected

    def test_mixed_columns(self):
        columns = (("a", "b", "c"), range(1, 4), (7, 20, 300), ("", 0.5, ""),
                   [0.1, -0.0, 1e16], np.array([np.nan, 5e-324, -1e-5]))
        assert _rows_text(*columns) == ("a,1,7,,0.1,nan\n"
                                        "b,2,20,0.5,-0.0,5e-324\n"
                                        "c,3,300,,1e+16,-1e-05\n")

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(), max_size=20))
    def test_numpy_float_str_is_the_float_repr(self, values):
        # so a table of numpy floats reads the same through str or _reprs
        for value in _AWKWARD_FLOATS + values:
            assert str(np.float64(value)) == repr(float(value))

    @pytest.mark.parametrize("k", [1, 3, 64, 65])
    def test_grid_columns_from_row_indices(self, k):
        # 65 * 65 rows cross a chunk boundary
        axis, cells = np.linspace(-1.0, 1.0, k), np.arange(k * k) / 7.0
        by_index = _rows_text(lambda r: axis[r // k], lambda r: axis[r % k], cells)
        assert by_index == _rows_text(np.repeat(axis, k), np.tile(axis, k), cells)

    def test_failure_while_streaming_leaves_no_file(self, tmp_path, monkeypatch):
        reprs, calls = cli._reprs, []

        def fail_in_second_chunk(values):
            calls.append(values.size)
            if len(calls) > 4:  # the grid has four columns
                raise NumericError("formatting failed")
            return reprs(values)
        monkeypatch.setattr(cli, "_reprs", fail_in_second_chunk)
        out = tmp_path / "out"
        assert cli.main(["influence", "--preset", "fig5", "--out-dir", str(out)]) == 4
        assert len(calls) == 5
        assert os.listdir(out) == []

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_any_exception_removes_every_staged_file(self, tmp_path, error):
        def texts():
            yield "partial\n"
            raise error("stop")
        with pytest.raises(error):
            cli._commit_artifacts(str(tmp_path), {"a.json": ["{}\n"], "b.csv": texts(),
                                                  "c.json": ["{}\n"]})
        assert os.listdir(tmp_path) == []


class TestStudies:
    def test_influence_double_scan(self, tmp_path):
        assert cli.main(["influence", "--n", "30", "--axis-step", "1",
                         "--outlier-x", "5", "--outlier-y", "5",
                         "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "influence_summary.json").read_text())
        assert summary["first_outlier"] == [5.0, 5.0]
        header, rows = read_csv(tmp_path / "influence_grid.csv")
        assert header == ["x", "y", "delta_pearson", "delta_spearman"]
        assert len(rows) == 11 * 11

    def test_influence_needs_both_outlier_coordinates(self, tmp_path):
        assert cli.main(["influence", "--outlier-x", "5",
                         "--out-dir", str(tmp_path)]) == 2

    def test_resample_with_scale_groups(self, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(3)
        base = rng.standard_normal((300, 1))
        table = np.hstack([base + 0.8 * rng.standard_normal((300, 4))])
        lines = ["a,b,c,d"] + [",".join(f"{v:.6f}" for v in row) for row in table]
        data.write_text("\n".join(lines) + "\n")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"left": ["a", "b"], "right": ["c", "d"]}))
        assert cli.main(["resample", "--input", str(data), "--groups", str(groups),
                         "--sample-size", "40", "--reps", "60",
                         "--out-dir", str(tmp_path / "out")]) == 0
        header, rows = read_csv(tmp_path / "out" / "resample_pairs.csv")
        assert rows[0][0] == "left" and rows[0][1] == "right"
        assert len(rows) == 1

    def test_resample_table_has_ten_statistics(self, tmp_path):
        assert cli.main(["resample", "--population", "asvab-like",
                         "--sample-size", "25", "--reps", "40",
                         "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "resample_table.csv")
        assert header == ["statistic", "value"]
        from corrlab.resample import TABLE_STATISTICS
        assert [r[0] for r in rows] == list(TABLE_STATISTICS)

    def test_resample_pairs_layout(self, tmp_path):
        assert cli.main(["resample", "--population", "asvab-like",
                         "--sample-size", "25", "--reps", "40",
                         "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "resample_pairs.csv")
        assert header == ["column_a", "column_b", "pop_pearson", "pop_spearman",
                          "mean_pearson", "mean_spearman", "sd_pearson",
                          "sd_spearman", "mad_pearson_vs_pop_pearson",
                          "mad_pearson_vs_pop_spearman",
                          "mad_spearman_vs_pop_pearson",
                          "mad_spearman_vs_pop_spearman"]
        assert len(rows) == 10 * 9 // 2
        assert rows[0][:2] == ["test01", "test02"]

    def test_eigen_table_layout(self, tmp_path):
        assert cli.main(["eigen", "--population", "asvab-like",
                         "--sample-size", "30", "--reps", "40", "--top", "4",
                         "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "eigen_table.csv")
        assert header == ["eigenvalue", "mean_pearson", "sd_pearson",
                          "mean_spearman", "sd_spearman", "population_pearson",
                          "population_spearman"]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]

    def test_emit_sample_depiction(self, tmp_path):
        assert cli.main(["simulate", "--preset", "s10", "--calibration-n", "50000",
                         "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "depiction_sample.csv")
        assert header == ["x", "y"]
        assert len(rows) == 1000

    def test_calibration_cache_reused(self, tmp_path):
        for _ in range(2):
            assert cli.main(["simulate", "--marginal", "exponential",
                             "--sizes", "10", "--reps", "50",
                             "--calibration-n", "50000",
                             "--out-dir", str(tmp_path)]) == 0
        cache_dir = tmp_path / "calibrations"
        (cache,) = cache_dir.iterdir()
        record = json.loads(cache.read_text())  # what the benchmark's set-up check reads
        assert abs(record["pop_pearson"] - record["target_pearson"]) <= 1e-3


class TestCalibrationCache:
    ARGS = ["simulate", "--marginal", "exponential", "--pearson", "0.2",
            "--sizes", "10", "--reps", "50", "--calibration-n", "50000"]

    @staticmethod
    def cache_path(out):
        # calibration_<marginal>_rp<target>_n<calibration size>.json
        return out / "calibrations" / "calibration_exponential_rp0.2_n50000.json"

    def run(self, out):
        assert cli.main(self.ARGS + ["--out-dir", str(out)]) == 0
        return (out / "simulation_summary.csv").read_bytes()

    def assert_recalibrated(self, tmp_path, out):
        record = json.loads(open(self.cache_path(out)).read())
        assert record["algorithm"] == CALIBRATION_VERSION
        assert record["calibration_seed"] == cli.CALIBRATION_SEED
        assert self.run(out) == self.run(tmp_path / "clean")

    def test_matching_file_is_used(self, tmp_path):
        out = tmp_path / "out"
        self.run(out)
        record = json.loads(self.cache_path(out).read_text())
        record["latent_rho"] = 0.5  # every key entry still matches
        text = json.dumps(record)
        self.cache_path(out).write_text(text)
        assert self.run(out) != self.run(tmp_path / "clean")
        assert self.cache_path(out).read_text() == text

    @pytest.mark.parametrize("text", ["{not json", json.dumps({"target_pearson": 0.2})],
                             ids=["corrupt", "missing-keys"])
    def test_unusable_file_is_recalibrated(self, tmp_path, text):
        out = tmp_path / "out"
        os.makedirs(os.path.dirname(self.cache_path(out)))
        with open(self.cache_path(out), "w") as handle:
            handle.write(text)
        self.run(out)
        self.assert_recalibrated(tmp_path, out)

    @pytest.mark.parametrize("field,value", [
        ("calibration_seed", 1), ("tolerance", 0.5),
        ("algorithm", 1), ("algorithm", None),
        ("marginal_y", {"family": "exponential"}), ("marginal", {"family": "uniform"}),
        ("marginal", None), ("target_pearson", 0.3), ("calibration_n", 40000),
        pytest.param("algorithm", CALIBRATION_VERSION - 1, id="algorithm-previous")])
    def test_stale_file_is_recalibrated(self, tmp_path, field, value):
        out = tmp_path / "out"
        self.run(out)
        with open(self.cache_path(out)) as handle:
            record = json.load(handle)
        if field == "marginal_y":  # the older format: one marginal per variable
            record["marginal_x"] = record.pop("marginal")
        if value is None:
            del record[field]
        else:
            record[field] = value
        record["latent_rho"] = 0.0  # would change every result if reused
        with open(self.cache_path(out), "w") as handle:
            json.dump(record, handle)
        self.run(out)
        self.assert_recalibrated(tmp_path, out)


class TestExitCodes:
    def test_unknown_kind_is_usage_error(self, tmp_path):
        assert cli.main(["simulate", "--kinds", "foo", "--sizes", "10", "--reps", "5",
                         "--out-dir", str(tmp_path)]) == 2

    def test_input_error_is_three(self, tmp_path):
        assert cli.main(["moments", "--input", "/no/such/file.csv",
                         "--out-dir", str(tmp_path)]) == 3

    def test_constant_column_is_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,7\n2,7\n3,7\n")
        assert cli.main(["moments", "--input", str(bad),
                         "--out-dir", str(tmp_path)]) == 3

    def test_numeric_error_is_four(self, tmp_path, monkeypatch):
        def explode(cfg):
            raise NumericError("iteration diverged")
        monkeypatch.setitem(cli._RUNNERS, "convert", explode)
        assert cli.main(["convert", "--pearson", "0.2",
                         "--out-dir", str(tmp_path)]) == 4

    def test_infeasible_condition_is_five(self, tmp_path, capsys):
        # two exponentials reach no Pearson below 1 - pi^2/6, about -.645
        out = tmp_path / "out"
        assert cli.main(["simulate", "--marginal", "exponential", "--pearson", "-0.9",
                         "--calibration-n", "10000", "--sizes", "5", "--reps", "2",
                         "--out-dir", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: target Pearson -0.9 unattainable")
        assert "Traceback" not in err
        assert not out.exists()

    def test_refused_allocation_is_five(self, tmp_path, capsys, monkeypatch):
        def refuse(cfg):
            raise MemoryError("Unable to allocate 7.28 PiB for an array")
        monkeypatch.setitem(cli._RUNNERS, "simulate", refuse)
        assert cli.main(["simulate", "--out-dir", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory: Unable to allocate")
        assert "Traceback" not in err

    def test_success_is_zero(self, tmp_path):
        assert cli.main(["convert", "--pearson", "0.0",
                         "--out-dir", str(tmp_path)]) == 0

    def test_unwritable_out_dir_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert cli.main(["convert", "--pearson", "0.2", "--out-dir", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker) in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["a-file"]

    @pytest.mark.parametrize("df, code", [("nan", 3), ("inf", 3), ("-inf", 3),
                                          ("1,nan", 3), ("1e50", 4), ("1e300", 4)])
    def test_unusable_chi_square_df(self, tmp_path, capsys, df, code):
        # non-finite df is refused as input; a df so large that the
        # calibration sample is constant in float64 is a numeric failure
        out = tmp_path / "out"
        assert cli.main(["simulate", "--marginal", "chi2", f"--df={df}",
                         "--calibration-n", "1000", "--sizes", "5", "--reps", "2",
                         "--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unattainable" not in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("marginal", ["normal", "exponential"])
    def test_small_calibration_sample_is_three(self, tmp_path, capsys, marginal):
        # refused for every marginal, though the normal one never calibrates
        out = tmp_path / "out"
        assert cli.main(["simulate", "--marginal", marginal, "--calibration-n", "5",
                         "--sizes", "5,6", "--reps", "2", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: calibration sample must have at least 1000 pairs")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", ["ab", ""])
    def test_bad_delimiter_is_usage_error(self, tmp_path, capsys, delimiter):
        data = tmp_path / "t.csv"
        data.write_text("a,b\n1,2\n2,1\n3,5\n")
        out = tmp_path / "out"
        assert cli.main(["moments", "--input", str(data), f"--delimiter={delimiter}",
                         "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for 'delimiter'")
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def survey(tmp_path, columns="abcd"):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(4)
        table = rng.integers(1, 7, size=(120, len(columns)))
        data.write_text("\n".join([",".join(columns)]
                                  + [",".join(map(str, row)) for row in table]) + "\n")
        return data

    # each cell takes its column's sum of squares (moments: of fourth powers)
    # past 1.8e308
    @pytest.mark.parametrize("cell,argv", [
        ("1e100", ["moments"]),
        ("-1e200", ["resample", "--sample-size", "20", "--reps", "5"]),
        ("1e160", ["eigen", "--sample-size", "20", "--reps", "5", "--top", "2"])])
    def test_values_that_overflow_are_input_errors(self, tmp_path, capsys, monkeypatch,
                                                   cell, argv):
        def no_draws(*args):
            raise AssertionError("drew replications from a refused table")

        monkeypatch.setattr(resample, "_replication_blocks", no_draws)
        data = self.survey(tmp_path)
        data.write_text(data.read_text() + f"{cell},1,2,3\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--input", str(data), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "column 'a'" in err and "float64's normal range" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["resample"], ["eigen", "--top", "2"]])
    def test_samples_that_underflow_name_the_replication_and_column(self, tmp_path, capsys,
                                                                    argv):
        # column a is {1..6}e-160 but for one 1.0: most 20-row samples miss it
        # and have a sum of squares near 1e-320, below float64's normal range
        rows = [f"{(i % 6 + 1) * 1e-160!r},{i % 5},{i % 7}" for i in range(399)]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(["a,b,c", *rows, "1.0,3,4"]) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--input", str(data), "--sample-size", "20", "--reps", "50",
                             "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: replication 0 at sample size 20: ")
        assert "column 'a'" in err and "float64's normal range" in err
        assert not out.exists()

    # refused by the +-1e150 and +-1e75 bounds that preceded the sums' own check
    @pytest.mark.parametrize("cell,argv,artifact", [
        ("2e75", ["moments"], "moments.csv"),
        ("1e151", ["eigen", "--sample-size", "20", "--reps", "5", "--top", "2"],
         "eigen_table.csv")])
    def test_large_values_whose_sums_stay_finite_complete(self, tmp_path, cell, argv,
                                                          artifact):
        # the same run with the cell's column times 2**-500 (the cell near 1)
        # gives the same CSV body: column a's mean and SD scale by 2**-500,
        # and no other value moves, as no sum of either run leaves the range
        data = self.survey(tmp_path)
        data.write_text(data.read_text() + f"{cell},1,2,3\n")
        header, *body = data.read_text().splitlines()
        scaled = tmp_path / "scaled.csv"
        scaled.write_text("\n".join([header] + [f"{float(a) * 2.0 ** -500!r},{rest}"
                                                for a, rest in (line.split(",", 1)
                                                                for line in body)]) + "\n")
        bodies = []
        for i, table in enumerate((data, scaled)):
            out = tmp_path / f"out{i}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main([*argv, "--input", str(table), "--out-dir", str(out)]) == 0
            bodies.append([line.split(",") for line in (out / artifact).read_text().splitlines()
                           if not line.startswith("#")])  # the config hash names the input
        if artifact == "moments.csv":
            assert bodies[0][1][0] == "a"  # column,mean,sd,skewness,kurtosis
            bodies[0][1][1:3] = [repr(float(v) * 2.0 ** -500) for v in bodies[0][1][1:3]]
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("members", [["a", ["b"]], "ab"], ids=["nested", "string"])
    def test_malformed_groups_member_is_input_error(self, tmp_path, capsys, members):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"s": members, "t": ["c", "d"]}))
        out = tmp_path / "out"
        assert cli.main(["resample", "--input", str(self.survey(tmp_path)),
                         "--groups", str(groups), "--sample-size", "20", "--reps", "5",
                         "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: scale 's'") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["moments", "resample-groups"])
    def test_repeated_column_name_is_input_error(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text("a,a,b\n1,2,3\n4,6,5\n2,1,8\n")
        argv = ["moments", "--input", str(data)]
        if command == "resample-groups":
            groups = tmp_path / "groups.json"
            groups.write_text(json.dumps({"s": ["a"], "t": ["b"]}))
            argv = ["resample", "--input", str(data), "--groups", str(groups),
                    "--sample-size", "3", "--reps", "5"]
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: column name 'a' appears more than once")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"\xff\xfea,b\n1,2\n3,4\n",
                                         b"a,b\n1,2\n3," + b"4" * 131073 + b"\n"],
                             ids=["undecodable", "over-long field"])
    def test_unreadable_input_is_input_error(self, tmp_path, capsys, content):
        data = tmp_path / "data.csv"
        data.write_bytes(content)
        out = tmp_path / "out"
        assert cli.main(["moments", "--input", str(data), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {data}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["one-column input", "one-scale groups"])
    def test_one_column_resample_is_input_error(self, tmp_path, capsys, source):
        if source == "one-column input":
            extra = ["--input", str(self.survey(tmp_path, columns="a"))]
        else:
            groups = tmp_path / "groups.json"
            groups.write_text(json.dumps({"all": ["a", "b", "c", "d"]}))
            extra = ["--input", str(self.survey(tmp_path)), "--groups", str(groups)]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["resample", *extra, "--sample-size", "20", "--reps", "5",
                             "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "needs at least two columns" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,argv", [
        ("sizes", ["simulate", "--sizes", "10,10", "--reps", "5"]),
        ("kinds", ["simulate", "--kinds", "pearson,pearson", "--sizes", "10", "--reps", "5"]),
        ("df", ["simulate", "--marginal", "chi2", "--df", "2,2", "--sizes", "10",
                "--reps", "5"]),
        ("n", ["density", "--n", "5,5", "--mc-reps", "100"])],
        ids=["sizes", "kinds", "df", "density-n"])
    def test_repeated_list_entry_is_usage_error(self, tmp_path, capsys, key, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for {key!r}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,label,argv", [
        ("pearson", "rp0.2", ["density", "--pearson", "0.2,0.2000001", "--n", "5"]),
        ("df", "chi_square(df=1)", ["simulate", "--marginal", "chi2", "--df", "1,1.0000001",
                                    "--pearson", "0.4", "--calibration-n", "1000",
                                    "--sizes", "5", "--reps", "2"])],
        ids=["density-pearson", "simulate-df"])
    def test_values_with_one_label_are_usage_error(self, tmp_path, capsys, key, label, argv):
        # they would overwrite one file, or share a condition label and its cache
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: conflicting values for {key!r}")
        assert repr(label) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("message,argv", [
        ("--emit-sample must be", ["simulate", "--marginal", "exponential",
                                   "--emit-sample", "1"]),
        ("--emit-sample must be", ["simulate", "--marginal", "exponential",
                                   "--emit-sample", "-1"]),
        ("need at least one replication", ["simulate", "--marginal", "exponential",
                                           "--reps", "0"]),
        ("sample sizes must be", ["simulate", "--marginal", "exponential", "--sizes", "1"]),
        ("--mc-reps must be", ["density", "--n", "5", "--mc-reps", "-1"])],
        ids=["emit-sample-1", "emit-sample-negative", "reps-0", "sizes-1", "mc-reps-negative"])
    def test_unusable_count_flag_is_three(self, tmp_path, capsys, message, argv):
        # refused before any calibration, so no cache file is left behind
        if argv[0] == "simulate":  # the case's own flags follow these, so they win
            argv = [argv[0], "--calibration-n", "1000", "--sizes", "5", "--reps", "2", *argv[1:]]
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-4", "1e-300"])
    def test_oversized_influence_grid_is_input_error(self, tmp_path, capsys, step):
        # rejected while parsing the axis, before the grid is allocated
        assert cli.main(["influence", "--axis-step", step, "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: axis needs at most")


def _csv_ints(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=3).map(
        lambda values: ",".join(map(str, values)))


_CORR = st.sampled_from(["0", "0.4", "-0.9", "1", "-1", "1.5", "nan", "x"])
_POPULATION = st.sampled_from(["asvab-like", "dbq-like", "other"])
_AXIS = st.sampled_from(["-5", "0", "2", "5", "nan"])

# per subcommand: (flags always given, flags that may be given); the
# always-given ones bound the work, so every example runs in under a second
_FUZZ_FLAGS = {
    "simulate": ({"--sizes": _csv_ints(0, 10), "--reps": st.integers(-1, 3),
                  "--calibration-n": st.just(1000)},
                 {"--marginal": st.sampled_from(["normal", "exponential", "uniform",
                                                 "likert", "chi2", "cauchy"]),
                  "--df": st.sampled_from(["1", "2,32", "0", "x"]),
                  "--pearson": _CORR,
                  "--kinds": st.sampled_from(["pearson", "spearman,kendall", "foo"]),
                  "--emit-sample": st.integers(0, 10)}),
    "density": ({}, {"--pearson": _CORR, "--n": _csv_ints(0, 10),
                     "--points": st.integers(0, 50), "--mc-reps": st.integers(-1, 10)}),
    "moments": ({}, {"--population": _POPULATION,
                     "--input": st.just("no-such-file.csv")}),
    "influence": ({"--axis-step": st.sampled_from(["0.5", "1", "2.5"])},
                  {"--pearson": _CORR, "--n": st.integers(0, 10),
                   "--axis-lo": _AXIS, "--axis-hi": _AXIS,
                   "--outlier-x": st.sampled_from(["0", "3"]),
                   "--outlier-y": st.sampled_from(["0", "-3"])}),
    "resample": ({"--reps": st.integers(-1, 3)},
                 {"--population": _POPULATION, "--sample-size": st.integers(0, 10)}),
    "eigen": ({"--reps": st.integers(-1, 3)},
              {"--population": _POPULATION, "--sample-size": st.integers(0, 10),
               "--top": st.integers(-1, 12)}),
    "convert": ({}, {"--pearson": _CORR, "--kendall": _CORR}),
}
_COMMON_FLAGS = {"--seed": st.integers(-3, 3),
                 "--threads": st.sampled_from(["0", "1", "2"]),
                 "--scale": st.sampled_from(["desk", "paper"])}


@st.composite
def _fuzz_argv(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    required, optional = _FUZZ_FLAGS[sub]
    flags = draw(st.fixed_dictionaries(required, optional={**optional, **_COMMON_FLAGS}))
    return [sub] + [str(part) for item in flags.items() for part in item]


class TestArgvFuzz:
    @settings(max_examples=100, deadline=None)
    @given(argv=_fuzz_argv())
    def test_every_outcome_is_a_documented_exit_code(self, argv):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--out-dir", out])
        assert code in {0, 2, 3, 4, 5}, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# CSV-shaped pieces, with bytes that are not UTF-8 and a byte-order mark
_CSV_PIECE = st.sampled_from([b"1", b"2", b"-3.5", b"nan", b"x", b"a", b",", b"\n", b"\r",
                              b'"', b" ", b"\x00", b"\xff", b"\xef\xbb\xbf", b"\xc3\xa9"])


class TestInputFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(content=st.one_of(st.binary(max_size=64),
                             st.lists(_CSV_PIECE, max_size=40).map(b"".join)))
    def test_any_bytes_exit_zero_or_three(self, content):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as work:
            data = os.path.join(work, "input.csv")
            with open(data, "wb") as handle:
                handle.write(content)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["moments", "--input", data,
                                 "--out-dir", os.path.join(work, "out")])
        assert code in {0, 3}, (content, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestConfigFragments:
    @pytest.mark.parametrize("sub,fragment,flags", [
        ("convert", {"seed": 1.7}, ["--pearson", "0.2"]),
        ("resample", {"reps": 2.5}, ["--population", "asvab-like", "--sample-size", "10"]),
        ("convert", {"threads": True}, ["--pearson", "0.2"]),
        ("convert", {"pearson": True}, []),
        ("convert", {"out_dir": None}, ["--pearson", "0.2"]),
        ("convert", {"preset": "fig2"}, ["--pearson", "0.2"]),
        ("convert", {"config": "other.json"}, ["--pearson", "0.2"])],
        ids=["seed", "reps", "threads", "pearson", "out_dir", "preset", "config"])
    def test_misread_values_are_usage_errors(self, tmp_path, capsys, monkeypatch,
                                             sub, fragment, flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(fragment))
        monkeypatch.chdir(tmp_path)  # a stray ./None would land here
        out = tmp_path / "out"
        assert cli.main([sub, *flags, "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert repr(next(iter(fragment))) in err
        assert sorted(os.listdir(tmp_path)) == ["run.json"]


def _resolved(argv):
    try:
        return cli.resolve_config(cli.build_parser().parse_args(argv))
    except UsageError:
        return UsageError


_FRAGMENT_VALUE = st.one_of(
    st.integers(-5, 10 ** 6), st.floats(allow_nan=False), st.booleans(),
    st.lists(st.integers(0, 9), max_size=3),
    st.sampled_from(["", "-1", "1.5", "x", "5,50", "0.2,0.4", "desk", "paper",
                     "normal", "5:50:3"]))


@st.composite
def _config_fragment(draw):
    sub = draw(st.sampled_from(["simulate", "density", "resample", "influence"]))
    key = draw(st.sampled_from(sorted({**cli.SCHEMA[sub], **cli.COMMON})))
    return sub, key, draw(_FRAGMENT_VALUE), draw(st.booleans())


class TestConfigFileFuzz:
    @settings(max_examples=100, deadline=None)
    @given(case=_config_fragment())
    def test_file_value_reads_like_the_flag_text(self, case):
        sub, key, value, underscore = case
        written = key.replace("-", "_") if underscore else key
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as handle:
                json.dump({written: value}, handle)
            from_file = _resolved([sub, "--config", path])
        assert from_file == _resolved([sub, f"--{key}={value}"]), (written, value)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_a_subcommand(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-m", "corrlab", "convert",
                               "--pearson", "0.2", "--out-dir", str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "conversions.json").exists()


class TestImportFootprint:
    def test_cli_import_loads_no_scipy_subpackage_but_special(self):
        # scipy.optimize alone adds ~23 MB of RSS and ~0.2 s to every start
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = ("import sys, corrlab.cli\n"
                "print(' '.join(sorted({m.split('.')[1] for m in sys.modules "
                "if m.startswith('scipy.')})))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        public = {name for name in out if not name.startswith("_")}
        assert public <= {"special", "version"}


class TestPublicNames:
    def test_every_all_entry_resolves_once(self):
        # a stale string in __all__ breaks only `from ... import *`, which nothing else runs
        modules = [corrlab] + [importlib.import_module(f"corrlab.{info.name}")
                               for info in pkgutil.iter_modules(corrlab.__path__)]
        for module in modules:
            names = getattr(module, "__all__", [])
            assert len(set(names)) == len(names), module.__name__
            assert [n for n in names if not hasattr(module, n)] == [], module.__name__

    LIBRARY_MODULES = ("errors", "estimators", "exact", "randgen", "simulate", "influence",
                       "resample", "eigen")

    @pytest.mark.parametrize("short", LIBRARY_MODULES)
    def test_every_public_definition_is_declared(self, short):
        # a public function or class missing from __all__ is missing from corrlab too
        module = importlib.import_module(f"corrlab.{short}")
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert defined - set(getattr(module, "__all__", ())) == set()

    def test_package_exports_what_its_modules_declare(self):
        modules = [importlib.import_module(f"corrlab.{s}") for s in self.LIBRARY_MODULES]
        assert corrlab.__all__ == [n for m in modules for n in m.__all__] + ["__version__"]
        for module in modules:
            for name in module.__all__:
                assert getattr(corrlab, name) is getattr(module, name), name
        namespace = {}
        exec("from corrlab import *", namespace)
        assert set(corrlab.__all__) <= set(namespace)

    def test_earlier_exports_are_kept(self):
        earlier = [
            "CorrlabError", "DegenerateSampleError", "InfeasibleError", "InputError",
            "NumericError", "UsageError",
            "CoefficientEstimate", "PairedSample", "correlation_matrix",
            "distinct_spearman_values", "kendall", "pearson", "spearman",
            "DensityCurve", "density_curve", "expected_pearson", "expected_spearman",
            "fisher_interval", "fisher_z", "hyp2f1_half_half", "kendall_from_pearson",
            "pearson_density", "pearson_from_kendall",
            "spearman_from_kendall", "spearman_from_pearson", "spearman_interval",
            "MarginalSpec", "PopulationSpec", "RngStream", "calibrate_copula",
            "sample_bivariate_normal", "sample_population",
            "SimulationPlan", "SummaryStats", "logspace_sizes", "run_plan",
            "AxisSpec", "InfluenceGrid", "delta_width", "exceedance_fraction",
            "scan_double", "scan_single",
            "MomentProfile", "PopulationDataset", "StudyResult",
            "asvab_like_population", "dbq_like_population", "ingest_csv",
            "moment_profile", "run_study", "scale_sums",
            "EigenSummary", "eigen_study", "symmetric_eigenvalues",
            "__version__",
        ]
        assert len(earlier) == 55
        assert set(earlier) - set(corrlab.__all__) == set()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
class TestPeakMemory:
    @staticmethod
    def peak_mb(code):
        """Peak RSS in MB of a fresh interpreter running ``code``.

        The child reads its own VmHWM: ru_maxrss would carry over the
        test process's peak through fork and exec.
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code += ("\nimport re\n"
                 "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])")
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        return int(done.stdout.split()[-1]) / 1024

    def test_density_histogram_holds_one_chunk(self, tmp_path):
        # a reps x n draw would take 160 MB by itself
        argv = ["density", "--pearson", "0.2", "--n", "5", "--mc-reps", "1000000",
                "--out-dir", str(tmp_path)]
        assert self.peak_mb(f"from corrlab import cli\nassert cli.main({argv!r}) == 0") < 150

    def test_largest_influence_scan_forms_only_its_cross_block(self):
        code = ("from corrlab import influence\n"
                "from corrlab.randgen import RngStream, sample_bivariate_normal\n"
                "axis = influence.AxisSpec(-5.0, 5.0, 0.005)\n"
                "assert axis.size == influence.MAX_AXIS_POINTS\n"
                "influence.scan_single(sample_bivariate_normal(0.2, 200, RngStream(1)), axis)")
        assert self.peak_mb(code) < 150

    def test_influence_cli_streams_its_grid(self, tmp_path):
        # 1,002,001 rows; rendering the whole table before writing it took 320 MB
        argv = ["influence", "--axis-step", "0.01", "--out-dir", str(tmp_path)]
        assert self.peak_mb(f"from corrlab import cli\nassert cli.main({argv!r}) == 0") < 150

    def test_untied_kendall_chunk_skips_the_tie_arrays(self):
        # the two draws take 117 MB with the interpreter; gathering the codes
        # and counting the ties on untied rows took the call to 422 MB
        code = ("import numpy as np\n"
                "from corrlab.estimators import kendall_rows\n"
                "x, y = np.random.default_rng(5).standard_normal((2, 4096, 1000))\n"
                "kendall_rows(x, y)")
        assert self.peak_mb(code) < 400

    def test_integer_resample_keeps_the_population_peak(self):
        # the population matrices of this 24 MB table set the peak, 147 MB
        # when every table was gathered as floats; the level codes take one
        # byte per value and their set-up stays below that peak
        code = ("import numpy as np\n"
                "from corrlab.resample import PopulationDataset, _level_codes, run_study\n"
                "values = np.random.default_rng(4).integers(0, 6, (150_000, 20), np.int8)\n"
                "d = PopulationDataset(tuple(f'q{j}' for j in range(20)), values.astype(float))\n"
                "del values\n"
                "assert _level_codes(d.values, 200).codes.dtype == np.uint8\n"
                "run_study(d, 200, 50)")
        assert self.peak_mb(code) < 150

    def test_numeric_csv_is_read_without_a_str_per_cell(self, tmp_path):
        # 100,000 x 34 one-digit cells, a 27 MB float table: one str per
        # cell took the read to 146 MB, the C reader's lines take it to 96 MB
        path = tmp_path / "items.csv"
        cells = np.random.default_rng(6).integers(1, 7, (100_000, 34))
        np.savetxt(path, cells, fmt="%d", delimiter=",", comments="",
                   header=",".join(f"q{j}" for j in range(34)))
        code = ("from corrlab.resample import ingest_csv\n"
                f"assert ingest_csv({str(path)!r}).n_rows == 100_000")
        assert self.peak_mb(code) < 120

    def test_resample_reduces_one_block_at_a_time(self, tmp_path):
        # one full chunk and part of a second; gathering a whole chunk of
        # 200 x 34 tables would take 223 MB by itself
        argv = ["resample", "--preset", "table3-dbq", "--reps", "4200",
                "--out-dir", str(tmp_path)]
        assert self.peak_mb(f"from corrlab import cli\nassert cli.main({argv!r}) == 0") < 120
