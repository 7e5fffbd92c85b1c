"""Benchmark of srbetti: exact Betti tables and Tor verification, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before
it state the sample counts, the tail percentile used and the properties of
the generated inputs.  See README.md for the workloads and metrics.

Every repetition (one input complex and its operations over all of the
workload's fields) runs in a fresh worker process.  The package keeps
process-wide caches (the LRU cache of ``reduced_cohomology_dims``,
``tor._context``, ``complexes._VERTICES_CACHE``): in one process, a second
``betti_table`` on the same complex reads most answers from the first and
takes about a third of the time, and peak memory would carry over from
earlier repetitions.  Fresh processes make every repetition cold.  Workers
run one at a time, with no threads, so that the two cores of a small
machine are not shared between repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
BAND = 5  # percentile points on either side of a reported percentile
WORKER_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(*argv: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {argv} printed no result:\n{proc.stdout[-3000:]}") from None


def band_percentile(pairs: list[tuple[float, float]], p: float) -> float:
    """p-th percentile of (value, weight) pairs, smoothed: the mean of the
    weighted quantile function over p ± BAND percentile points.  A plain
    percentile rests on the one or two operations that happen to sit at p,
    and in a run of ~100 operations that alone moved it by 8 % between seeds."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    lo, hi = max(p - BAND, 0), min(p + BAND, 100)
    acc = area = 0.0
    for value, weight in pairs:
        start, acc = acc, acc + weight / total * 100
        area += value * max(0.0, min(acc, hi) - max(start, lo))
    return area / (hi - lo)


def target_weights(count: int, targets: int) -> list[float]:
    """Weight of repetition k: 1 / the number of repetitions of its target.
    Every target then counts alike, wherever in a cycle the run stopped."""
    visits = [len(range(j, count, targets)) for j in range(targets)]
    return [1 / visits[k % targets] for k in range(count)]


def min_ops(tail: int) -> int:
    """Operations a run needs so that at least 10 lie beyond the tail percentile."""
    return -(-10 * 100 // (100 - tail))


def op_stats(reps: list[dict], key: str, weights: list[float], p: int) -> tuple[float, float, float]:
    """Operations per second, p50 and p-th percentile (s) of the times under ``key``."""
    timed = [(t, w) for rep, w in zip(reps, weights) for t in rep[key]]
    rate = sum(w for _, w in timed) / sum(t * w for t, w in timed)
    return rate, band_percentile(timed, 50), band_percentile(timed, p)


def end_to_end(reps: list[dict], setup_s: list[float], p: int, targets: int) -> tuple[dict, list[str]]:
    """End-to-end metrics of repetitions 0, 1, ... of a run, in order.

    Operation statistics weight every target of the input cycle alike.
    """
    weights = target_weights(len(reps), targets)
    rate, p50, tail = op_stats(reps, "op_s", weights, p)
    ops = sum(len(rep["op_s"]) for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    rss_mib = [rep["rss_kib"] / 1024 for rep in reps]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mib": (statistics.median(rss_mib), "MiB"),
        "pass_ratio": (1 - failed / ops, "ratio"),
    }
    raw_rate, raw_p50, raw_tail = op_stats(reps, "raw_s", weights, p)
    notes = [
        f"times scaled to the reference speed; unscaled: {raw_rate:.4g} ops/s, "
        f"p50 {raw_p50 * 1e3:.4g} ms, p{p} {raw_tail * 1e3:.4g} ms",
        f"operations: {ops} in {len(reps)} repetitions; op_tail_ms is p{p}",
        f"setup_s: median of {len(setup_s)} fresh processes {[round(s, 4) for s in setup_s]}",
        f"peak_rss_mib: median over worker processes; max {max(rss_mib):.2f}",
        f"fail_ratio: {failed}/{ops}",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def input_report(reps: list[dict]) -> str:
    props = [rep["props"] for rep in reps]
    total = {key: sum(p[key] for p in props) for key in props[0]}
    digest = hashlib.sha256("".join(rep["digest"] for rep in reps).encode()).hexdigest()[:16]
    return (
        f"inputs: {len(props)} complexes, digest {digest}; cone share of omega "
        f"{total['cones'] / total['omegas']:.3f}; sum min(|X|,|X^v|) / sum |X| "
        f"{total['dual_min'] / total['faces_sub']:.3f}; mean faces "
        f"{total['faces'] / len(props):.1f}; mean r {total['r'] / len(props):.2f}"
    )


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import srbetti
    import workloads
    import tracer

    if Path(srbetti.__file__).resolve().parent != SRC / "srbetti":
        raise BenchError(f"srbetti imported from {srbetti.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        raise BenchError(f"unknown workload {workload_name!r}; known: {sorted(workloads.WORKLOADS)}")

    spawn("setup", workload_name, str(seed))  # writes the bytecode caches; not counted
    # The machine's speed drifts over seconds, so the set-up samples are
    # spread over the run instead of being taken back to back.
    setup_runs = 0 if trace else SETUP_RUNS
    setup_s: list[float] = []
    reps, traced = [], []
    start = time.perf_counter()
    k = 0
    need = 0 if trace else min_ops(workload.tail)  # no percentiles in a traced run
    while time.perf_counter() - start < seconds or k * len(workload.fields) < need:
        elapsed = time.perf_counter() - start
        if len(setup_s) < min(setup_runs, 1 + int(elapsed * setup_runs / seconds)):
            setup_s.append(spawn("setup", workload_name, str(seed))["setup_s"])
        key = [str(x) for x in (seed, *workloads.input_key(workload, seed, k))]
        reps.append(spawn("rep", workload_name, *key, "0"))
        if trace:
            traced.append(spawn("rep", workload_name, *key, "1"))
        k += 1
    while len(setup_s) < setup_runs:
        setup_s.append(spawn("setup", workload_name, str(seed))["setup_s"])

    print(f"workload {workload_name} seed {seed}: {k} inputs in {time.perf_counter() - start:.1f} s")
    print(input_report(reps))
    for rep in reps + traced:
        for err in rep["errors"]:
            print(f"error: {err}")
    attempted = sum(len(rep["op_s"]) for rep in reps + traced)
    failed = sum(rep["failed"] for rep in reps + traced)
    if trace:
        overhead = sum(sum(r["op_s"]) for r in traced) / sum(sum(r["op_s"]) for r in reps)
        scales = [sum(r["op_s"]) / sum(r["raw_s"]) for r in traced]
        total = tracer.merge([r["trace"] for r in traced], scales)
        metrics = tracer.layer_metrics(total, sum(len(r["op_s"]) for r in traced), overhead)
        if total["absent"]:
            print(f"absent (function removed or renamed): {sorted(total['absent'])}")
    else:
        metrics, notes = end_to_end(reps, setup_s, workload.tail, len(workloads.ORDER))
        print("\n".join(notes))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "srbetti" / "__init__.py").is_file():
        print(f"error: no srbetti package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
