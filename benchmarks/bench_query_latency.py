"""Hierarchical query latency: nearest-tier hit vs fall-through vs scatter.

Measures the read side of the ``repro.api`` facade over a seeded city
deployment (the benchmark ingest workload driven through the direct
transport):

* ``nearest_tier_hit`` — a one-section window still inside the fog layer-1
  real-time window, served by the section's own node (the paper's critical
  real-time consumer);
* ``fog2_fallthrough`` — the same window after every fog layer-1 node
  evicted its copy (TTL sweep), served by the district's fog layer-2 node;
* ``cloud_fallthrough`` — after fog layer 2 evicted as well, served by the
  cloud with a per-section fog-node filter riding the store's series
  indexes; ``cloud_fallthrough_scan`` is the same question answered by the
  pre-index all-series scan (``use_indexes = False``);
* ``scatter_gather`` / ``cloud_scatter_gather`` — a city-wide window
  resolved per section chain and merged across all 73 chains; at the cloud
  the scatter is answered by **one partitioned store pass**;
  ``cloud_scatter_gather_legacy`` is the same scatter through the old
  engine (one filtered scan per section, no indexes);
* ``memoized_hit`` — the same window twice: the second answer comes from
  the query service's memo, which now shares frozen columns (no per-hit
  copy); ``memoized_hit_adopted`` adds the lazy copy a caller adopting
  the rows via ``result.batch()`` pays — the old per-hit cost;
* ``summarize`` — the city-wide cloud window folded into constant-size
  per-category sketches instead of materialized rows.  ``cold_ms`` is the
  first call after ``invalidate()``; the window then repeats, so the
  timed calls (``avg_ms``, ``median_ms``) take the cloud segments' counts
  from the service's segment cache, and ``sketch_cache_hits`` counts the
  segments they took from it.

Each engine pair (indexed vs scan fall-through, partitioned vs legacy
scatter) is timed **interleaved**: one query of each engine per
repetition, switching engines outside the timed region, and the speedup
ratios compare the two engines' per-query medians.  Timed back to back,
host speed drifting between the two loops decided the ratio.

Every exact-query scenario asserts the expected serving tier before timing
— a wrong tier aborts the benchmark rather than recording a mislabelled
number.  Distinct (cache-missing) windows are generated by nudging
``until`` per repetition (plus a per-scenario salt) so the memo never
serves the cold scenarios.

With ``gate=True`` (the default for the committed run) the benchmark
enforces the scale-out acceptance ratios: the city-wide cloud scatter must
stay within 2.5x of the fog layer-1 scatter, and the per-section cloud
fall-through within 8x of the nearest-tier hit.

Results are written to ``benchmarks/results/BENCH_query.json``
(``schema: bench_query/v2``).  Regenerate with::

    PYTHONPATH=src python benchmarks/bench_query_latency.py
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import statistics
import time
from typing import Callable, Dict

from repro.api import F2CClient, run_workload
from repro.runtime.shards import ShardedWorkload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_OUTPUT = RESULTS_DIR / "BENCH_query.json"

#: TTL horizons that force the fall-throughs (fog L1 keeps 6 h, fog L2 72 h).
AFTER_L1_TTL = 8 * 3600.0
AFTER_L2_TTL = 80 * 3600.0

#: Acceptance ceilings enforced with ``gate=True``.
MAX_CLOUD_SCATTER_VS_FOG1_SCATTER = 2.5
MAX_CLOUD_FALLTHROUGH_VS_NEAREST = 8.0


def build_client(devices_per_type: int = 50, seed: int = 7) -> F2CClient:
    """The ingest benchmark's city-hour, deployed behind the facade."""
    workload = ShardedWorkload.stream_rounds(
        devices_per_type=devices_per_type, seed=seed, duration_s=3600.0, round_s=900.0
    )
    return run_workload(workload)


def _all_stores(client: F2CClient):
    system = client.system
    for node in (*system.fog1_nodes(), *system.fog2_nodes(), system.cloud):
        yield node.storage.store


def _set_indexes(client: F2CClient, enabled: bool) -> None:
    for store in _all_stores(client):
        store.use_indexes = enabled


def _timed_scenarios(
    engines: Dict[str, tuple],
    repetitions: int,
    expect_tiers: tuple,
    rows_of: Callable[[object], int] = len,
) -> Dict[str, Dict[str, object]]:
    """Time the engines alternately: one query of each per repetition.

    *engines* maps a scenario name to ``(select, run_query)``: ``select()``
    switches the deployment to that engine (outside the timed region) and
    ``run_query(index)`` asks its question.  Alternating puts every engine
    under the same host drift, and per-query medians drop the odd query a
    preemption landed in.  Each engine's last answer must be served by
    *expect_tiers*; an empty *expect_tiers* skips the check (the caller
    labels the scenario itself, e.g. when ``run_query`` returns an adopted
    batch rather than a result).
    """
    times: Dict[str, list] = {name: [] for name in engines}
    rows: Dict[str, int] = {name: 0 for name in engines}
    last: Dict[str, object] = {}
    # GC-stable timing: whatever garbage earlier scenarios (or, in the
    # smoke test, earlier test modules) left behind is collected *outside*
    # the timed region, and the collector is paused inside it.  Otherwise
    # an ambient generation-2 pass landing inside one engine's queries — a
    # few milliseconds, comparable to a whole small-workload scenario —
    # decides an A/B ratio by accident of heap phase.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(repetitions):
            for name, (select, run_query) in engines.items():
                select()
                begin = time.perf_counter()
                result = run_query(index)
                times[name].append(time.perf_counter() - begin)
                rows[name] += rows_of(result)
                last[name] = result
    finally:
        if was_enabled:
            gc.enable()
    scenarios: Dict[str, Dict[str, object]] = {}
    for name in engines:
        tiers: tuple = ()
        if expect_tiers:
            tiers = last[name].tiers()
            if tiers != expect_tiers:
                raise RuntimeError(
                    f"{name} expected tiers {expect_tiers}, got {tiers} — "
                    "refusing to record a mislabelled latency"
                )
        total = sum(times[name])
        scenarios[name] = {
            "queries": repetitions,
            "total_s": total,
            "avg_ms": (total / repetitions) * 1e3,
            "median_ms": statistics.median(times[name]) * 1e3,
            "queries_per_sec": repetitions / total if total else None,
            "rows_per_query": rows[name] / repetitions,
            "tiers": list(tiers),
        }
    return scenarios


def _timed_scenario(
    run_query: Callable[[int], object],
    repetitions: int,
    expect_tiers: tuple,
    rows_of: Callable[[object], int] = len,
) -> Dict[str, object]:
    """:func:`_timed_scenarios` for one engine, on the deployment as it is."""
    engines = {"only": (lambda: None, run_query)}
    return _timed_scenarios(engines, repetitions, expect_tiers, rows_of)["only"]


def run_benchmark(
    devices_per_type: int = 50,
    seed: int = 7,
    repetitions: int = 200,
    gate: bool = True,
) -> Dict[str, object]:
    client = build_client(devices_per_type=devices_per_type, seed=seed)
    system = client.system
    section = system.city.sections[0].section_id
    sections = len(system.fog1_nodes())
    scenarios: Dict[str, object] = {}

    # Distinct windows per repetition so the memo never serves the cold
    # scenarios: nudging `until` upward changes the cache key without ever
    # changing the rows (every reading lies in [0, 3600)).  The salt keeps
    # scenarios that repeat the same question (indexed vs scan, partitioned
    # vs legacy) from hitting each other's memoized windows.
    def section_query(salt: float):
        def run(index: int):
            return client.query(
                since=0.0, until=3600.0 + salt + index * 1e-4, section_id=section
            )

        return run

    def city_query(salt: float):
        def run(index: int):
            return client.query(since=0.0, until=3600.0 + salt + index * 1e-4)

        return run

    scatter_reps = max(10, repetitions // 10)

    scenarios["nearest_tier_hit"] = _timed_scenario(
        section_query(0.0), repetitions, ("fog_layer_1",)
    )
    scenarios["scatter_gather"] = _timed_scenario(
        city_query(0.0), scatter_reps, ("fog_layer_1",)
    )
    scenarios["scatter_gather"]["sections"] = sections

    # Memoized: one window, queried repeatedly after a warm-up call.  The
    # hit shares the memo's frozen columns; the "adopted" variant adds the
    # lazy copy a caller mutating the rows pays (the old per-hit cost).
    warm = client.query(since=0.0, until=3600.0, section_id=section)
    memo = _timed_scenario(
        lambda _index: client.query(since=0.0, until=3600.0, section_id=section),
        repetitions,
        ("fog_layer_1",),
    )
    memo["rows_per_query"] = float(len(warm))
    scenarios["memoized_hit"] = memo
    adopted = _timed_scenario(
        lambda _index: client.query(
            since=0.0, until=3600.0, section_id=section
        ).batch(),
        repetitions,
        (),  # a ReadingBatch has no tiers() — attribution asserted above
    )
    adopted["rows_per_query"] = float(len(warm))
    adopted["tiers"] = list(warm.tiers())
    scenarios["memoized_hit_adopted"] = adopted

    # Fall-through 1: every fog L1 node evicts its window (TTL sweep).
    for fog1 in system.fog1_nodes():
        fog1.enforce_retention(AFTER_L1_TTL)
    client.queries.invalidate()
    scenarios["fog2_fallthrough"] = _timed_scenario(
        section_query(0.1), repetitions, ("fog_layer_2",)
    )

    # Fall-through 2: fog L2 evicts as well; only the cloud still covers.
    for fog2 in system.fog2_nodes():
        fog2.enforce_retention(AFTER_L2_TTL)
    client.queries.invalidate()

    # Each cloud question against the old engine, interleaved: all-series
    # scans instead of index candidates, one filtered sub-query per section
    # instead of the partitioned pass.  Distinct salts keep the engines off
    # each other's memoized windows.
    def engine(indexed: bool):
        def select() -> None:
            _set_indexes(client, indexed)
            client.queries.partitioned_scatter = indexed

        return select

    scenarios.update(
        _timed_scenarios(
            {
                "cloud_fallthrough": (engine(True), section_query(0.2)),
                "cloud_fallthrough_scan": (engine(False), section_query(0.3)),
            },
            repetitions,
            ("cloud",),
        )
    )
    scenarios.update(
        _timed_scenarios(
            {
                "cloud_scatter_gather": (engine(True), city_query(0.2)),
                "cloud_scatter_gather_legacy": (engine(False), city_query(0.3)),
            },
            scatter_reps,
            ("cloud",),
        )
    )
    for name in ("cloud_scatter_gather", "cloud_scatter_gather_legacy"):
        scenarios[name]["sections"] = sections
    engine(True)()
    client.queries.invalidate()

    # Approximate city-wide answer: constant-size sketches instead of rows.
    # The first call after invalidate() is cold; the repeats of the same
    # window take the cloud segments' counts from the segment cache.
    def city_summary(_index: int):
        return client.summarize(since=0.0, until=3600.0)

    def summary_rows(summary) -> int:
        return summary.rows

    cold = _timed_scenario(city_summary, 1, ("cloud",), summary_rows)
    hits_before = client.queries.sketch_cache_hits
    summary_reps = max(5, repetitions // 20)
    summarize = _timed_scenario(city_summary, summary_reps, ("cloud",), summary_rows)
    summarize["cold_ms"] = cold["avg_ms"]
    summarize["sketch_cache_hits"] = client.queries.sketch_cache_hits - hits_before
    summarize["summary_bytes"] = city_summary(0).size_bytes()
    scenarios["summarize"] = summarize

    nearest = scenarios["nearest_tier_hit"]["avg_ms"]
    cloud = scenarios["cloud_fallthrough"]["avg_ms"]
    memo_ms = scenarios["memoized_hit"]["avg_ms"]
    ratios = {
        "cloud_fallthrough_vs_nearest": (cloud / nearest) if nearest else None,
        "memoized_vs_nearest": (memo_ms / nearest) if nearest else None,
        "indexed_speedup": (
            scenarios["cloud_fallthrough_scan"]["median_ms"]
            / scenarios["cloud_fallthrough"]["median_ms"]
        ),
        "partitioned_speedup": (
            scenarios["cloud_scatter_gather_legacy"]["median_ms"]
            / scenarios["cloud_scatter_gather"]["median_ms"]
        ),
        "cloud_scatter_vs_fog1_scatter": (
            scenarios["cloud_scatter_gather"]["avg_ms"]
            / scenarios["scatter_gather"]["avg_ms"]
        ),
    }
    if gate:
        if ratios["cloud_scatter_vs_fog1_scatter"] > MAX_CLOUD_SCATTER_VS_FOG1_SCATTER:
            raise RuntimeError(
                f"cloud scatter is {ratios['cloud_scatter_vs_fog1_scatter']:.1f}x the "
                f"fog L1 scatter (ceiling {MAX_CLOUD_SCATTER_VS_FOG1_SCATTER}x)"
            )
        if ratios["cloud_fallthrough_vs_nearest"] > MAX_CLOUD_FALLTHROUGH_VS_NEAREST:
            raise RuntimeError(
                f"cloud fall-through is {ratios['cloud_fallthrough_vs_nearest']:.1f}x "
                f"the nearest-tier hit (ceiling {MAX_CLOUD_FALLTHROUGH_VS_NEAREST}x)"
            )
    return {
        "schema": "bench_query/v2",
        "workload": {
            "devices_per_type": devices_per_type,
            "seed": seed,
            "duration_s": 3600.0,
            "round_s": 900.0,
            "repetitions": repetitions,
            "cloud_readings": len(system.cloud.storage),
        },
        "environment": {"cpu_count": os.cpu_count()},
        "scenarios": scenarios,
        "ratios": ratios,
        "served_from": client.queries.stats(),
    }


def main(output: pathlib.Path = DEFAULT_OUTPUT, **kwargs) -> Dict[str, object]:
    result = run_benchmark(**kwargs)
    output.parent.mkdir(exist_ok=True)
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"workload: {result['workload']['cloud_readings']:,} cloud readings, "
          f"repetitions={result['workload']['repetitions']}")
    for name, stats in result["scenarios"].items():
        print(f"  {name:28s} {stats['avg_ms']:9.3f} ms/query "
              f"({stats['queries_per_sec']:>10,.0f} q/s, "
              f"{stats['rows_per_query']:.0f} rows, tiers={stats['tiers']})")
    ratios = result["ratios"]
    print(f"  cloud fall-through costs {ratios['cloud_fallthrough_vs_nearest']:.1f}x "
          f"the nearest-tier hit (scan was {ratios['indexed_speedup']:.1f}x slower); "
          f"the memoized hit costs {ratios['memoized_vs_nearest']:.2f}x")
    print(f"  cloud scatter costs {ratios['cloud_scatter_vs_fog1_scatter']:.1f}x the "
          f"fog L1 scatter (legacy engine was {ratios['partitioned_speedup']:.1f}x slower)")
    print(f"wrote {output}")
    return result


if __name__ == "__main__":
    main()
