"""End-to-end benchmark of the corrlab command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --compare RESULTS_A RESULTS_B

A run makes the workload's inputs from ``--seed``, then starts fresh
worker processes (``worker.py``) one after another until ``--seconds``
have passed, at least three of them.  Each worker imports corrlab from
``src/``, runs the workload's set-up phase and its timed phase through
``corrlab.cli.main`` into fresh out-dirs, and checks every output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json over the
untraced workers: wall_ref_s and setup_s, the timed phase's and the
set-up's time scaled to the reference machine speed (see PROBE_REF_S);
the median peak_rss_mb; and ok_frac, the share of invocations that
passed every check.
``--trace 1`` cycles through an untraced worker, a traced worker and an
untraced worker at ``--threads 2``, then runs the layer
microbenchmarks, and reports the per-layer metrics.  In both modes an
artifact whose bytes differ from those of the run's first worker fails
its invocation.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record of the run,
with quartiles and library versions, goes to ``.bench_out/results/``;
``--compare`` sets two such directories side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_WORKERS = 3
# The probe's time (worker.probe_s) on the 2-core Xeon VM the benchmark was
# developed on, at its usual speed.  An invocation's reference time is its
# wall time times PROBE_REF_S over the probe time measured around it: the
# wall time it would take at that speed.
PROBE_REF_S = 0.025
DEADLINE_S = 170  # the whole run must end within 180 s

sys.path.insert(0, str(HERE))


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (ROOT / "src" / "corrlab").glob("*.py"))


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run_worker(spec: dict, timeout: float) -> tuple[dict | None, str]:
    Path(spec["run_dir"]).mkdir(parents=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker {spec['mode']} timed out after {timeout:.0f} s"
    result_file = Path(spec["run_dir"], "result.json")
    if proc.returncode != 0 or not result_file.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"worker {spec['mode']} exited {proc.returncode}: {tail[0]}"
    return json.loads(result_file.read_text()), ""


def _run_workers(args, run_dir: Path, inputs: Path, problems: list[str]) -> list:
    """Fresh workers until the time is used; returns (mode, threads, result) triples."""
    cycle = [("plain", 1)] if args.trace == 0 else [("plain", 1), ("traced", 1), ("plain", 2)]
    start = time.monotonic()
    done, durations = [], []
    while True:
        mode, threads = cycle[len(done) % len(cycle)]
        spec = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
                "mode": mode, "threads": threads, "inputs": str(inputs),
                "run_dir": str(run_dir / f"worker{len(done)}"),
                "spans_file": str(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")}
        began = time.monotonic()
        result, error = _run_worker(spec, DEADLINE_S - (began - start))
        durations.append(time.monotonic() - began)
        shutil.rmtree(spec["run_dir"], ignore_errors=True)
        done.append((mode, threads, result))
        if error:
            problems.append(error)
        elapsed = time.monotonic() - start
        if len(done) >= MIN_WORKERS and elapsed + statistics.mean(durations) > args.seconds:
            break
        if elapsed + max(durations) > DEADLINE_S - 15:
            print(f"note: stopped after {len(done)} workers to stay within the deadline",
                  file=sys.stderr)
            break
    if args.trace:
        spec = {"root": str(ROOT), "seed": args.seed, "mode": "micro",
                "run_dir": str(run_dir / "micro")}
        result, error = _run_worker(spec, max(1.0, DEADLINE_S - (time.monotonic() - start)))
        done.append(("micro", 1, result))
        if error:
            problems.append(error)
    return done


def _tally(done: list, expected: int, problems: list[str]) -> tuple[int, int]:
    """Attempted and failed invocations, including artifact-digest mismatches."""
    attempted = failed = 0
    reference = None
    for mode, threads, result in done:
        if mode == "micro":
            continue
        if result is None:
            attempted += expected
            failed += expected
            continue
        if reference is None:
            reference = {r["label"]: r["digest"] for r in result["invocations"]}
        for record in result["invocations"]:
            issues = list(record["problems"])
            if record["digest"] != reference.get(record["label"]):
                issues.append(f"artifacts differ from the first worker's "
                              f"({mode}, {threads} threads)")
            attempted += 1
            if issues:
                failed += 1
                problems.extend(f"{record['label']}: {issue}" for issue in issues)
    return attempted, failed


def _ref_s(record: dict) -> float:
    """An invocation's wall time scaled to the reference machine speed."""
    return record["seconds"] * PROBE_REF_S / record["probe_s"]


def _label_medians(results: list, key=_ref_s) -> dict:
    """Median over the given workers of each invocation's reference time
    (or of ``key``)."""
    return {record["label"]: _quartiles([key(next(i for i in r["invocations"]
                                                  if i["label"] == record["label"]))
                                         for r in results])
            for record in results[0]["invocations"]}


def _setup_s(results: list) -> float:
    """The import's median reference time plus the set-up invocations'."""
    imports = statistics.median(r["import_s"] * PROBE_REF_S / r["import_probe_s"]
                                for r in results)
    return imports + _timed_s(results, phase="setup")


def _timed_s(results: list, labels=None, key=_ref_s, phase="timed") -> float:
    """Sum over the phase's invocations (or the chosen ones) of their medians.

    Summing per-invocation medians, rather than taking the median of whole
    timed phases, lets each invocation discard the workers that ran while
    the machine was busy with something else."""
    medians = _label_medians(results, key)
    steps = [r["label"] for r in results[0]["invocations"] if r["phase"] == phase]
    chosen = [label for label in steps if label in (labels or ())] or steps
    return sum((medians[label]["median"] for label in chosen), 0.0)


def _metrics(args, done: list, attempted: int, failed: int) -> tuple[dict, dict]:
    """(metric values, distributions over workers)."""
    from workloads import THREADED

    def results(mode, threads):
        return [r for m, t, r in done if m == mode and t == threads and r is not None]

    plain = results("plain", 1)
    if not plain:
        raise RuntimeError("no untraced worker finished")
    dist = {name: _quartiles([r[name] for r in plain])
            for name in ("wall_s", "setup_s", "peak_rss_mb")}
    dist["invocations"] = _label_medians(plain)
    dist["invocations_raw"] = _label_medians(plain, key=lambda r: r["seconds"])
    dist["probe_s"] = _quartiles([i["probe_s"] for r in plain for i in r["invocations"]]
                                 + [r["import_probe_s"] for r in plain])
    dist["wall_s_raw"] = _timed_s(plain, key=lambda r: r["seconds"])
    wall_ref_s = dist["wall_ref_s"] = _timed_s(plain)
    dist["setup_ref_s"] = _setup_s(plain)
    if args.trace == 0:
        values = {"wall_ref_s": wall_ref_s, "setup_s": dist["setup_ref_s"],
                  "peak_rss_mb": dist["peak_rss_mb"]["median"],
                  "ok_frac": (attempted - failed) / attempted}
        return values, dist

    traced, threads2, micro = results("traced", 1), results("plain", 2), results("micro", 1)
    if not (traced and threads2 and micro):
        raise RuntimeError("the traced, two-thread or micro worker did not finish")
    values = dict(traced[0]["layers"]["metrics"])
    values.update(traced[0]["counters"])
    values.update(micro[0]["micro"])
    values["trace.timed_s"] = _timed_s(traced)
    values["trace.overhead_frac"] = values["trace.timed_s"] / wall_ref_s - 1.0
    values["simulate.thread_speedup"] = (_timed_s(plain, THREADED)
                                         / _timed_s(threads2, THREADED))
    values["threads2.peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in threads2)
    dist["top_self_s"] = traced[0]["layers"]["top_self_s"]
    dist["traced_wall_s"] = traced[0]["wall_s"]
    return values, dist


def bench(args) -> int:
    if not (ROOT / "src" / "corrlab" / "cli.py").is_file():
        print(f"error: no corrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    declared = _declared()
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = OUT / "runs" / name
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    (OUT / "spans").mkdir(exist_ok=True)
    problems: list[str] = []
    try:
        workloads.write_inputs(args.workload, args.seed, inputs)
        setup, timed = workloads.WORKLOADS[args.workload](inputs)
        done = _run_workers(args, run_dir, inputs, problems)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed = _tally(done, len(setup) + len(timed), problems)
    try:
        values, dist = _metrics(args, done, attempted, failed)
    except RuntimeError as exc:
        print(f"error: {exc}; {'; '.join(problems[:5])}", file=sys.stderr)
        return 1
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 3

    versions = next(r["versions"] for _m, _t, r in done if r is not None)
    record = {**versions, "nproc": os.cpu_count(), "src_lines": _src_lines()}
    workers = sum(1 for m, _t, r in done if m != "micro" and r is not None)
    print(f"record: {json.dumps(record, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {workers} workers, "
          f"{attempted} invocations, {failed} failed")
    for metric in ("wall_s", "setup_s", "peak_rss_mb", "probe_s"):
        d = dist[metric]
        print(f"  {metric} as measured, per {'probe' if metric == 'probe_s' else 'worker'}: "
              f"median {d['median']:.4f} [q1 {d['q1']:.4f}, q3 {d['q3']:.4f}] over {d['n']}")
    print(f"  timed phase, sum of invocation medians: {dist['wall_s_raw']:.4f} s as measured, "
          f"{dist['wall_ref_s']:.4f} s at reference speed; set-up "
          f"{dist['setup_ref_s']:.4f} s at reference speed")
    for label, d in dist["invocations"].items():
        raw = dist["invocations_raw"][label]
        print(f"    {label:<16} median {d['median']:.4f} s at reference speed "
              f"[q1 {d['q1']:.4f}, q3 {d['q3']:.4f}], {raw['median']:.4f} s as measured")
    if args.trace:
        timed_s = dist["traced_wall_s"]
        print(f"  largest self times (share of the traced worker's timed phase, "
              f"{timed_s:.3f} s):")
        for span, seconds in dist["top_self_s"]:
            print(f"    {span:<36} {seconds:8.3f} s  {seconds / timed_s:6.1%}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {"correct": failed == 0 and not problems, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{name}-{stamp}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "record": record, "distributions": dist,
         "problems": problems, **summary,
         "timings": [{"mode": mode, "threads": threads,
                      "invocations": [{k: i[k] for k in ("label", "seconds", "probe_s")}
                                      for i in result["invocations"]]}
                     for mode, threads, result in done if mode != "micro" and result]},
        indent=1))
    print(json.dumps(summary))
    return 0


def compare(dir_a: str, dir_b: str) -> int:
    """Medians and quartiles of two result sets, metric by metric.

    A move of the median beyond the metric's bound in its worse direction
    is a regression; a quartile spread wider than the bound on either
    side leaves the metric unresolved.
    """
    declared = _declared()
    bounds = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}

    def load(directory):
        groups = {}
        for path in sorted(Path(directory).glob("*.json")):
            rec = json.loads(path.read_text())
            for metric, entry in rec["metrics"].items():
                groups.setdefault((rec["workload"], metric), []).append(entry["value"])
        return groups

    a, b = load(dir_a), load(dir_b)
    regressions = 0
    print(f"{'workload':<18} {'metric':<40} {'A median [q1, q3] n':<34} "
          f"{'B median [q1, q3] n':<34} change  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        qa, qb = _quartiles(a[key]), _quartiles(b[key])
        change = (qb["median"] / qa["median"] - 1.0) if qa["median"] else 0.0
        verdict = ""
        spec = bounds.get(metric, {})
        if "bound" in spec:
            worse = change if spec["better"] == "lower" else -change
            spread = max((q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0
                         for q in (qa, qb))
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"

        def cell(q):
            return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}] {q['n']}"
        print(f"{workload:<18} {metric:<40} {cell(qa):<34} {cell(qb):<34} "
              f"{change:+6.1%}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["mc-sweep", "resample-eigen",
                                               "influence-density"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=str(OUT / "results"),
                        help="directory that receives the run record")
    parser.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
