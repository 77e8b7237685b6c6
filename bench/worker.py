"""One benchmark worker: a fresh process that runs a workload once.

Run by ``run.py`` as ``python3 bench/worker.py '<json spec>'``; the spec
names the checkout root, the workload, the seed, the thread count, the
mode and the directories to use.  Modes:

* ``plain``   - untraced; gives the end-to-end numbers.
* ``traced``  - the same invocations under the span tracer.
* ``micro``   - the layer microbenchmarks instead of a workload.

The worker imports corrlab from ``<root>/src``, runs the set-up phase
and then the timed phase, each invocation into its own fresh out-dir,
records its peak resident set, and only then checks and digests the
outputs.  The machine-speed probe ``probe_s`` runs before the import and
after every step.  Its result goes to ``<run_dir>/result.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter


def probe_s() -> float:
    """Time of a fixed piece of interpreter work that uses no corrlab code.

    The host's speed drifts by up to a third over seconds to minutes.
    Timed before and after every step, this probe measures the speed the
    step ran at, so run.py can scale its time to a reference speed.  It
    needs no import, so it can also bracket the corrlab import.
    """
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - start


def _invoke(cli, inv, phase: str, out: Path, cache: Path, seed: int, threads: int) -> dict:
    """One ``corrlab.cli.main`` call; the calibration cache travels with it."""
    if cache.is_dir():
        shutil.copytree(cache, out / "calibrations")
    argv = [*inv.argv, "--seed", str(seed), "--threads", str(threads), "--out-dir", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # a crash is a failed invocation, not a failed worker
        code = None
        stderr.write(traceback.format_exc())
    seconds = perf_counter() - start
    if (out / "calibrations").is_dir():
        shutil.copytree(out / "calibrations", cache, dirs_exist_ok=True)
    return {"label": inv.label, "phase": phase, "seconds": seconds, "exit": code,
            "stderr": stderr.getvalue()[-2000:]}


def _digest(out: Path) -> dict:
    """sha256 of every artifact.  ``resolved_config.json`` echoes the
    out-dir and thread count, which may differ between runs by design, so
    those two keys are left out of its digest."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "resolved_config.json":
            echo = json.loads(data)
            echo.pop("out_dir", None)
            echo.pop("threads", None)
            data = json.dumps(echo, sort_keys=True).encode()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()[:20]
    return digests


def _problems(record: dict, check, out: Path) -> list[str]:
    problems = []
    if record["exit"] != 0:
        problems.append(f"exit code {record['exit']}")
    if "Traceback" in record["stderr"]:
        problems.append("traceback on stderr: " + record["stderr"].strip().splitlines()[-1])
    if record["exit"] == 0:
        try:
            problems.extend(check(out))
        except Exception as exc:  # a malformed artifact fails its check
            problems.append(f"output check raised {type(exc).__name__}: {exc}")
    return problems


def run_workload(spec: dict) -> dict:
    run_dir = Path(spec["run_dir"])
    root = Path(spec["root"])
    before = probe_s()
    start = perf_counter()
    import corrlab
    from corrlab import cli, eigen, exact, influence, resample, simulate  # noqa: F401
    import_s = perf_counter() - start
    probe = probe_s()
    import_probe_s = (before + probe) / 2
    import workloads  # imports numpy only after the timed corrlab import
    if root / "src" not in Path(corrlab.__file__).resolve().parents:
        raise RuntimeError(f"imported corrlab from {corrlab.__file__}, not from {root / 'src'}")

    tracer = None
    if spec["mode"] == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    setup, timed = workloads.WORKLOADS[spec["workload"]](Path(spec["inputs"]))
    cache = run_dir / "calibration-cache"
    runs = []
    for phase, invocations in (("setup", setup), ("timed", timed)):
        if phase == "timed":
            timed_start = perf_counter()
        for inv in invocations:
            out = run_dir / inv.label
            record = _invoke(cli, inv, phase, out, cache, spec["seed"], spec["threads"])
            after = probe_s()
            record["probe_s"] = (probe + after) / 2  # the probes on either side
            probe = after
            runs.append((inv, out, record))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for inv, out, record in runs:
        record["problems"] = _problems(record, inv.check, out)
        record["digest"] = _digest(out) if out.is_dir() else {}
        del record["stderr"]
    records = [record for _inv, _out, record in runs]
    result = {
        "import_s": import_s,
        "import_probe_s": import_probe_s,
        "setup_s": import_s + sum(r["seconds"] for r in records if r["phase"] == "setup"),
        "wall_s": sum(r["seconds"] for r in records if r["phase"] == "timed"),
        "peak_rss_mb": peak_rss_mb,
        "invocations": records,
        "counters": workloads.artifact_counters(
            [out for _inv, out, record in runs if record["phase"] == "timed"]),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, timed_start)
        tracer.write(spec["spans_file"])
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    if spec["mode"] == "micro":
        import micro
        result = micro.run(spec)
    else:
        result = run_workload(spec)
    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    Path(spec["run_dir"], "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
