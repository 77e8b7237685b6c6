"""Golden artifact manifest: a fixed set of CLI runs keeps every artifact's bytes.

``golden/manifest.json`` holds the sha256 of each artifact of each
(invocation, seed), taken in one environment: the Python, numpy and scipy
versions and the machine.  numpy's SIMD loops may round differently on
other builds and CPUs, so in any other environment every case skips and
names the key that differs.  A change that moves bytes on purpose rewrites
the manifest with ``python tests/golden/regenerate.py`` and lists every
moved file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.special import ndtr

from corrlab import cli

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
# the thread count never changes a result, so the second seed runs at two
THREADS = {29: 1, 41: 2}
SURVEY = "survey.csv"
MIXED = "survey_mixed.csv"
HALF_POINTS = "half_points.csv"
SCALES = "scales.json"

_CALIBRATION = ("--calibration-n", "10000")
INVOCATIONS = {
    # the benchmark's sixteen, at its reduced counts
    "calibrate-s6": ("simulate", "--preset", "s6", *_CALIBRATION, "--sizes", "5",
                     "--reps", "1"),
    "calibrate-fig4": ("simulate", "--preset", "fig4", *_CALIBRATION, "--sizes", "5",
                       "--reps", "1"),
    "fig2": ("simulate", "--preset", "fig2", "--reps", "100"),
    "s16": ("simulate", "--preset", "s16", "--reps", "100"),
    "fig4": ("simulate", "--preset", "fig4", *_CALIBRATION, "--reps", "100"),
    "s6": ("simulate", "--preset", "s6", *_CALIBRATION, "--reps", "5"),
    "table3-dbq": ("resample", "--preset", "table3-dbq", "--reps", "1000"),
    "table3-asvab": ("resample", "--preset", "table3-asvab", "--reps", "1000"),
    "tableS3-dbq": ("eigen", "--preset", "tableS3-dbq", "--reps", "200"),
    "moments-csv": ("moments", "--input", SURVEY),
    "resample-csv": ("resample", "--input", SURVEY, "--reps", "1000"),
    "fig5": ("influence", "--preset", "fig5"),
    "fig5-double": ("influence", "--preset", "fig5", "--outlier-x", "3", "--outlier-y", "-3"),
    "fig1": ("density", "--preset", "fig1"),
    "s2": ("density", "--preset", "s2"),
    "density-grid": ("density", "--pearson", "0,0.2,0.4,0.8", "--n", "5,10,50,200"),
    # redraws in chunks 0 and 1, with all three kernels on tied rows
    "likert-sweep": ("simulate", "--marginal", "likert", *_CALIBRATION, "--sizes", "5,8,40",
                     "--reps", "4500", "--kinds", "pearson,spearman,kendall"),
    "uniform-sweep": ("simulate", "--marginal", "uniform", *_CALIBRATION, "--sizes", "5,30",
                      "--reps", "300", "--kinds", "pearson,spearman,kendall"),
    # level-code tables with redraws
    "dbq-resample-7": ("resample", "--preset", "table3-dbq", "--sample-size", "7",
                       "--reps", "300"),
    "dbq-eigen-7": ("eigen", "--preset", "tableS3-dbq", "--sample-size", "7", "--reps", "300"),
    # a resample that crosses a chunk
    "asvab-4200": ("resample", "--preset", "table3-asvab", "--sample-size", "10",
                   "--reps", "4200"),
    # tied values that are not integers: ranked by sorting
    "half-points-resample": ("resample", "--input", HALF_POINTS, "--sample-size", "25",
                             "--reps", "200"),
    "half-points-eigen": ("eigen", "--input", HALF_POINTS, "--sample-size", "25",
                          "--reps", "200"),
    # a table that is not a plain numeric grid, read record by record
    "moments-csv-mixed": ("moments", "--input", MIXED),
    "resample-csv-mixed": ("resample", "--input", MIXED, "--reps", "300"),
    # the near-one branch of the 2F1 series
    "density-near-one": ("density", "--pearson", "0.99,0.999", "--n", "4,5,60,101"),
    # either side of the short-row kernels' n <= 7, each crossing a chunk: the
    # histogram's Pearson and Spearman, and the chi-square table under all three kinds
    "density-short-long": ("density", "--pearson", "0.5", "--n", "4,7,8", "--mc-reps", "5000"),
    "chi2-short-long": ("simulate", "--marginal", "chi2", "--df", "1", *_CALIBRATION,
                        "--sizes", "2,7,8", "--reps", "4200",
                        "--kinds", "pearson,spearman,kendall"),
    # row blocks smaller than a chunk: n = 20 splits chunk 0 in two and redraws,
    # n = 700 runs 93-row blocks, and both cross a chunk with all three kernels on ties
    "likert-blocks": ("simulate", "--marginal", "likert", *_CALIBRATION, "--sizes", "20,700",
                      "--reps", "4200", "--kinds", "pearson,spearman,kendall"),
    # unsorted sizes, kinds out of alphabetical order and two conditions: the row order
    "chi2-unsorted": ("simulate", "--marginal", "chi2", "--df", "32,1", *_CALIBRATION,
                      "--sizes", "40,5,8", "--kinds", "spearman,kendall,pearson",
                      "--reps", "300"),
    # one run of every other CSV and JSON writer
    "s10-depiction": ("simulate", "--preset", "s10", *_CALIBRATION),
    "dbq-groups": ("resample", "--preset", "table3-dbq", "--groups", SCALES, "--reps", "300"),
    "moments-asvab": ("moments", "--population", "asvab-like"),
    "convert-pearson": ("convert", "--pearson", "0.2"),
    "convert-kendall": ("convert", "--kendall", "0.3"),
}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def write_inputs(directory: Path) -> None:
    """The survey table, 9,000 rows of 34 six-point items with most mass on
    the lowest point, from a fixed seed; a copy with a blank line, a text
    row and a row with a quoted cell appended; its half-point image; and
    four scales over the dbq-like items 1-9, 10-18, 19-26 and 27-34."""
    rng = np.random.default_rng([29, 7301])
    rows, items = 9000, 34
    loadings = rng.uniform(0.4, 0.8, items)
    latent = (loadings * rng.standard_normal((rows, 1))
              + np.sqrt(1.0 - loadings ** 2) * rng.standard_normal((rows, items)))
    floors = rng.uniform(0.5, 0.9, items)
    decay = 0.45 ** np.arange(1, 6)
    table = np.empty((rows, items), dtype=int)
    for j in range(items):
        cuts = np.cumsum(np.concatenate([[floors[j]], decay / decay.sum() * (1.0 - floors[j])]))
        table[:, j] = 1 + np.searchsorted(cuts[:-1], ndtr(latent[:, j]), side="right")
    header = ",".join(f"q{j + 1:02d}" for j in range(items))
    np.savetxt(directory / SURVEY, table, fmt="%d", delimiter=",", header=header, comments="")
    tail = ",".join(map(str, table[0, 1:]))
    (directory / MIXED).write_text((directory / SURVEY).read_text()
                                   + f"\nx,{tail}\n\"6\",{tail}\n")
    np.savetxt(directory / HALF_POINTS, 0.5 * table[:2000], fmt="%.1f", delimiter=",",
               header=header, comments="")
    bounds = ((1, 9), (10, 18), (19, 26), (27, 34))
    scales = {f"scale{i + 1}": [f"item{j:02d}" for j in range(lo, hi + 1)]
              for i, (lo, hi) in enumerate(bounds)}
    (directory / SCALES).write_text(json.dumps(scales))


def artifact_digests(label: str, seed: int) -> dict:
    """sha256 of every artifact of one invocation, run in the current
    directory (which holds the inputs, so their echoed paths are relative).

    ``resolved_config.json`` echoes the out-dir and the thread count, which
    change no result, so its digest leaves those two keys out.
    """
    out = Path(f"{label}-{seed}")
    argv = [*INVOCATIONS[label], "--seed", str(seed), "--threads", str(THREADS[seed]),
            "--out-dir", str(out)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code == 0, f"{label} at seed {seed} exited {code}: {stderr.getvalue()}"
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "resolved_config.json":
            echo = json.loads(data)
            del echo["out_dir"], echo["threads"]
            data = json.dumps(echo, sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    manifest = json.loads(MANIFEST.read_text())
    here = environment()
    differs = [f"{key} {manifest['environment'].get(key)} there, {value} here"
               for key, value in here.items() if manifest["environment"].get(key) != value]
    if differs:
        pytest.skip("golden manifest made in another environment: " + "; ".join(differs))
    workdir = tmp_path_factory.mktemp("golden")
    write_inputs(workdir)
    return manifest["digests"], workdir


@pytest.mark.parametrize("seed", list(THREADS))
@pytest.mark.parametrize("label", list(INVOCATIONS))
def test_artifacts_match_manifest(golden, monkeypatch, label, seed):
    digests, workdir = golden
    monkeypatch.chdir(workdir)
    assert artifact_digests(label, seed) == digests[str(seed)][label]


def test_check_lists_every_moved_file():
    spec = importlib.util.spec_from_file_location("regenerate",
                                                  MANIFEST.parent / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    recorded = {"29": {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"z.json": "3"}}}
    digests = {"29": {"a": {"x.csv": "1", "y.csv": "9"}, "c": {"z.json": "3"}}}
    assert regenerate.moved_files(recorded, digests) == [
        ("a", "29", "y.csv"), ("b", "29", "z.json"), ("c", "29", "z.json")]
    assert regenerate.moved_files(recorded, recorded) == []
