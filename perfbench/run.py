"""One F2C benchmark: frames ingest, live serve and durable recovery.

Usage (from the repository root)::

    python3 perfbench/run.py --workload durable_recover --seed 1 --seconds 40 --trace 0

Set-up generates the workload's inputs from ``--seed``; the run then
measures for ``--seconds`` and checks the program's answers.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ingest_readings_per_s": "1/s",
    "freshness_p50_ms": "ms",
    "freshness_p95_ms": "ms",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "backhaul_bytes_per_reading": "B",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Seconds are self time
#: summed over the traced phase; counts are summed over the same phase.
PER_LAYER = {
    "sensors.generate_s": "s",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.bytes": "B",
    "wire.bytes_per_reading": "B",
    "broker.publish_s": "s",
    "broker.drain_s": "s",
    "broker.shed": "count",
    "pipeline.route_s": "s",
    "dlc.acquire_s": "s",
    "dlc.rows_in": "count",
    "dlc.rows_out": "count",
    "dlc.keep_ratio": "ratio",
    "storage.append_s": "s",
    "storage.rows_appended": "count",
    "storage.evict_s": "s",
    "storage.rows_evicted": "count",
    "cloud.preserve_s": "s",
    "network.account_s": "s",
    "movement.fog1_fog2_s": "s",
    "movement.fog1_fog2_bytes": "B",
    "movement.fog2_cloud_s": "s",
    "movement.fog2_cloud_bytes": "B",
    "segments.append_s": "s",
    "segments.commit_s": "s",
    "segments.bytes": "B",
    "segments.replay_s": "s",
    "recover.recover_s": "s",
    "query.query_s": "s",
    "query.summarize_s": "s",
    "query.queries": "count",
    "query.summaries": "count",
    "query.memo_hits": "count",
    "query.memo_hit_ratio": "ratio",
    "query.rows_returned": "count",
    "query.rows_by_tier.fog_layer_1": "count",
    "query.rows_by_tier.fog_layer_2": "count",
    "query.rows_by_tier.cloud": "count",
    "serve.query_lock_wait_s": "s",
    "serve.round_lock_wait_s": "s",
    "schedule.lag_max_ms": "ms",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "trace.readings": "count",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_live", "durable_recover"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at smoke-test scale")
    return parser.parse_args(argv)


def percentile(values, q: int) -> float:
    """The *q*-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def beyond(values, q: int) -> int:
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result, inputs, setups, setup_speed, rss_mb):
    """The end-to-end metrics of one untraced run, each with a note for people.

    Every time is scaled by the host speed measured around it
    (:mod:`hostspeed`); the note gives the raw value.  Percentiles pool
    every cycle's samples, so each rests on as many samples beyond it as
    possible.  Rates are taken per cycle and reported as the median over
    the cycles.
    """
    scaled = timings(result, setups, result.speed.scaled, setup_speed.scaled)
    unscaled = lambda _when, duration: duration  # noqa: E731
    raw = timings(result, setups, unscaled, unscaled)
    queries = len(result.query_latency_s)
    rounds = sum(len(cycle.freshness_s) for cycle in result.cycles)
    of = f"median of {len(result.cycles)} cycles; " if len(result.cycles) > 1 else ""
    memo = f"memo hits {result.memo_hits}/{queries}"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ingest_readings_per_s": f"{of}{result.readings} readings",
        "freshness_p50_ms": f"n={rounds} rounds",
        "freshness_p95_ms": f"n={rounds} rounds, {beyond(scaled['fresh'], 95)} beyond",
        "query_p50_ms": f"n={queries} queries, {memo}",
        "query_p95_ms": f"n={queries} queries, {beyond(scaled['latency'], 95)} beyond, {memo}",
        "queries_per_s": f"{of}{queries} queries, one closed-loop client",
    }
    rows = [(name, scaled[name], f"{note}; raw {raw[name]:.6g}") for name, note in notes.items()]
    return rows + [
        ("backhaul_bytes_per_reading", ratio(result.cloud_bytes, inputs.readings),
         f"{result.cloud_bytes} cloud bytes / {inputs.readings} readings offered"),
        ("peak_rss_mb", rss_mb, "this process, set-up included"),
    ]


def timings(result, setups, scale, setup_scale):
    """The timed end-to-end metrics, each sample passed through *scale*
    (set-ups through *setup_scale*)."""
    def each(at, durations):
        return [scale(when, duration) for when, duration in zip(at, durations)]

    cycles = result.cycles
    fresh = [s * 1e3 for c in cycles for s in each(c.round_at, c.freshness_s)]
    latency = [s * 1e3 for c in cycles for s in each(c.query_at, c.query_latency_s)]
    return {
        "fresh": fresh,
        "latency": latency,
        "setup_s": median([setup_scale(when, duration) for when, duration in setups]),
        "ingest_readings_per_s": median(
            [ratio(c.readings, sum(each(c.round_at, c.busy_s))) for c in cycles]
        ),
        "freshness_p50_ms": percentile(fresh, 50),
        "freshness_p95_ms": percentile(fresh, 95),
        "query_p50_ms": percentile(latency, 50),
        "query_p95_ms": percentile(latency, 95),
        # One closed-loop client: answers per second of answering.
        "queries_per_s": median(
            [ratio(len(c.query_latency_s), sum(each(c.query_at, c.query_latency_s)))
             for c in cycles if c.query_latency_s]
        ),
    }


def side_metrics(result, inputs):
    """Numbers a user sees that are not gated: too noisy here, in one workload only, or 0."""
    lateness = [s * 1e3 for s in result.lateness_s]
    latency = [s * 1e3 for s in result.query_latency_s]
    speed = result.speed
    return [
        ("host_speed", speed.relative(), "ratio",
         f"reference kernel time / median of {len(speed.cost)} kernel times in the run"),
        ("query_p99_ms", percentile(latency, 99), "ms",
         f"n={len(latency)} queries, {beyond(latency, 99)} beyond"),
        ("wire_bytes_per_reading", ratio(result.wire_bytes, inputs.readings), "B",
         "frames published on the broker / readings offered"),
        ("schedule_lag_max_ms", max(lateness, default=0.0), "ms",
         f"latest open-loop round release, n={len(lateness)}"),
        ("recover_s", median(result.recover_s), "s",
         f"recover() call to first answer, median of {len(result.recover_s)}"),
        ("error_rate", ratio(len(result.failures), result.attempted), "ratio",
         f"{len(result.failures)} failed / {result.attempted} attempted"),
    ]


def per_layer(tracer, result, inputs, baseline):
    """The per-layer metrics of a traced run."""
    layers = tracer.layer_metrics()
    layers["wire.bytes_per_reading"] = ratio(result.wire_bytes, inputs.readings)
    layers["broker.shed"] = result.shed
    layers["dlc.keep_ratio"] = ratio(layers.get("dlc.rows_out", 0), layers.get("dlc.rows_in", 0))
    layers["query.memo_hit_ratio"] = ratio(
        layers.get("query.memo_hits", 0), layers.get("query.queries", 0)
    )
    layers["recover.recover_s"] = median(result.recover_s)
    layers["schedule.lag_max_ms"] = max((s * 1e3 for s in result.lateness_s), default=0.0)
    layers["trace.readings"] = result.readings
    # Traced time per reading over untraced time per reading, same run.
    layers["trace.overhead_ratio"] = ratio(
        ratio(baseline.readings, baseline.ingest_busy_s),
        ratio(result.readings, result.ingest_busy_s),
    )
    return [(name, layers.get(name, 0.0), unit) for name, unit in PER_LAYER.items()]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import workloads
        from hostspeed import HostSpeed
        from spans import Tracer
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    params = workloads.SIZES[args.size][args.workload]
    if args.trace:
        params = dataclasses.replace(params, cycles=1)
    # A traced run measures the same workload twice, untraced then traced,
    # each for half the time, to price the tracing itself.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = workloads.horizon(params, args.seed, seconds, args.workload)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"size={args.size} rounds={workload.round_count()}")

    # (start, duration) of each set-up, with host-speed ticks around them.
    setups = []
    setup_speed = HostSpeed()
    inputs = None
    for _ in range(params.setups):
        inputs = None
        gc.collect()
        for _ in range(3):
            setup_speed.tick()
        start = perf_counter()
        inputs = workloads.setup(workload, tracer)
        setups.append((start, perf_counter() - start))
    for _ in range(3):
        setup_speed.tick()
    inputs.reference = workloads.forked(workloads.reference_digest, workload)
    # The inputs live for the whole run; keep the collector from scanning
    # them, so its pauses come from the program's own objects.
    gc.collect()
    gc.freeze()

    run = workloads.WORKLOADS[args.workload]
    extra = {"state_root": out_dir} if args.workload == "durable_recover" else {}
    baseline = None
    if tracer:
        baseline = run(inputs, params, seconds, None, **extra)
        workloads.close(baseline)
    gc.collect()
    if tracer:
        tracer.install()
    try:
        result = run(inputs, params, seconds, tracer, **extra)
    finally:
        if tracer:
            tracer.uninstall()
    rss_mb = peak_rss_mb()
    if result.deployment is None and not result.failures:
        result.problems.append("the workload did not finish")
    workloads.close(result)
    gc.unfreeze()
    if baseline:
        # The untraced half is gated too.
        result.failures += baseline.failures
        result.problems += [f"untraced half, {problem}" for problem in baseline.problems]

    if tracer:
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(spans_path)
        rows = per_layer(tracer, result, inputs, baseline)
        for name, value, unit in rows:
            print(f"{name:34s} {value:>16.6g} {unit}")
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        rows = []
        for name, value, note in end_to_end(result, inputs, setups, setup_speed, rss_mb):
            rows.append((name, value, END_TO_END[name]))
            print(f"{name:28s} {value:>14.6g} {END_TO_END[name]:4s}  {note}")
        for name, value, unit, note in side_metrics(result, inputs):
            print(f"({name}){'':{max(0, 26 - len(name))}s} {value:>14.6g} {unit:4s}  {note}")

    for failure in result.failures:
        print(failure, file=sys.stderr)
    for problem in result.problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    correct = not result.failures and not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in rows},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
