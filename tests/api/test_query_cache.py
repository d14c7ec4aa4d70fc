"""The query memo's byte-accounted LRU bound, and the stats conventions.

The memo used to be an unbounded dict — a consumer sweeping distinct
windows (dashboards paginating history) grew it without limit.  It is now
an LRU bounded by :attr:`PipelineConfig.query_cache_bytes`; these tests pin
the bound, the eviction accounting, the frozen-result sharing that makes
hits cheap, and the *sparse* per-tier counter convention.
"""

from __future__ import annotations

import pytest

from repro.api import F2CClient, PipelineConfig, QueryService
from repro.common.errors import ConfigurationError
from repro.core.architecture import F2CDataManagement
from tests.conftest import make_reading


def _client(small_city, small_catalog, **config_kwargs):
    system = F2CDataManagement(
        city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
    )
    return F2CClient(system=system, config=PipelineConfig(**config_kwargs))


def _seed(client, count=8, section="d-01/s-01"):
    readings = [
        make_reading(sensor_id=f"c-{i}", value=float(i), timestamp=100.0 + i)
        for i in range(count)
    ]
    client.ingest(readings, now=100.0 + count, default_section=section)
    return readings


class TestCacheBound:
    def test_sustained_distinct_windows_stay_bounded(self, small_city, small_catalog):
        capacity = 4096
        client = _client(small_city, small_catalog, query_cache_bytes=capacity)
        _seed(client)
        service = client.queries
        for i in range(300):
            # Distinct keys (the memoized-hit path would not grow the cache).
            client.query(since=0.0, until=200.0 + i * 1e-6, sensor_id="c-1")
            assert service.cache_bytes <= capacity
        stats = service.stats()
        assert stats["cache_bytes"] <= capacity
        assert stats["cache_capacity_bytes"] == capacity
        assert stats["cache_evictions"] > 0
        assert stats["cache_size"] < 300

    def test_least_recently_hit_window_evicts_first(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        service = client.queries
        # Three small entries; shrink the budget to exactly what they cost,
        # touch the first, then add a fourth: the *second* must go.
        keys = [(0.0, 200.0 + i, "c-1", None, None) for i in range(4)]
        for since, until, sensor_id, _, _ in keys[:3]:
            client.query(since=since, until=until, sensor_id=sensor_id)
        service.cache_capacity_bytes = service.cache_bytes
        client.query(since=keys[0][0], until=keys[0][1], sensor_id="c-1")  # refresh
        client.query(since=keys[3][0], until=keys[3][1], sensor_id="c-1")
        assert service.cache_evictions == 1
        assert keys[1] not in service._cache
        assert keys[0] in service._cache and keys[2] in service._cache

    def test_oversized_result_is_served_but_not_memoized(self, small_city, small_catalog):
        client = _client(small_city, small_catalog, query_cache_bytes=600)
        _seed(client, count=50)
        service = client.queries
        result = client.query(since=0.0, until=1_000.0)  # 50 rows >> 600 bytes
        assert len(result) == 50
        assert service.cache_size == 0
        assert service.cache_evictions == 0  # refused up front, nothing evicted
        assert not client.query(since=0.0, until=1_000.0).cache_hit

    def test_zero_capacity_disables_memoization(self, small_city, small_catalog):
        client = _client(small_city, small_catalog, query_cache_bytes=0)
        _seed(client)
        first = client.query(since=0.0, until=1_000.0)
        second = client.query(since=0.0, until=1_000.0)
        assert not first.cache_hit and not second.cache_hit
        assert client.queries.stats()["cache_size"] == 0

    def test_negative_capacity_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="query_cache_bytes"):
            PipelineConfig(query_cache_bytes=-1)
        with pytest.raises(ConfigurationError, match="cold_store_cache_bytes"):
            PipelineConfig(cold_store_cache_bytes=-1)

    def test_cold_store_capacity_defaults_and_stats_keys(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        service = client.queries
        assert service.cold_store_capacity_bytes == QueryService.DEFAULT_COLD_STORE_BYTES
        stats = service.stats()
        assert stats["cold_stores"] == 0
        assert stats["cold_store_bytes"] == 0
        assert stats["cold_store_evictions"] == 0

    def test_invalidate_is_not_an_eviction(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.query(since=0.0, until=1_000.0)
        assert client.queries.invalidate() == 1
        stats = client.queries.stats()
        assert stats["cache_evictions"] == 0
        assert stats["cache_bytes"] == 0

    def test_client_passes_capacity_from_config(self, small_city, small_catalog):
        client = _client(small_city, small_catalog, query_cache_bytes=12345)
        assert client.queries.cache_capacity_bytes == 12345
        assert client.health()["queries"]["cache_capacity_bytes"] == 12345

    def test_default_capacity(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        assert client.queries.cache_capacity_bytes == QueryService.DEFAULT_CACHE_BYTES


class TestHitSharing:
    def test_hits_share_frozen_columns_without_copying(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        first = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        second = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert second.cache_hit
        # The hit is the memoized columns, not a copy — that is what makes
        # hits O(1) instead of O(rows).
        assert second.columns is first.columns
        assert second.columns.frozen
        # Per-hit attribution dicts are private, though.
        assert second.rows_by_tier == first.rows_by_tier
        assert second.rows_by_tier is not first.rows_by_tier

    def test_batch_adoption_copies_lazily(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=3)
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        adopted = result.batch()
        assert not adopted.columns.frozen
        assert adopted.columns is not result.columns
        adopted.append(make_reading(sensor_id="mine", timestamp=5.0))
        assert len(adopted) == 4 and len(result) == 3


class TestSparseTierCounters:
    """One convention, asserted: per-tier dicts are sparse, and the
    service-level counters are exactly the fold of the per-result ones."""

    def test_stats_convention(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        service = client.queries

        expected_rows: dict = {}
        expected_queries: dict = {}
        results = [
            client.query(since=0.0, until=1_000.0, section_id="d-01/s-01"),
            client.query(since=0.0, until=1_000.0),
            client.query(since=5_000.0, until=6_000.0, section_id="d-02/s-01"),
        ]
        for result in results:
            # Per-result rows_by_tier is sparse: no zero-valued tiers, and
            # it agrees with the sources it summarizes.
            assert all(rows > 0 for rows in result.rows_by_tier.values())
            by_tier: dict = {}
            for source in result.sources:
                by_tier[source.tier] = by_tier.get(source.tier, 0) + source.rows
            assert result.rows_by_tier == {t: n for t, n in by_tier.items() if n}
            for tier, rows in result.rows_by_tier.items():
                expected_rows[tier] = expected_rows.get(tier, 0) + rows
            for tier in {source.tier for source in result.sources}:
                expected_queries[tier] = expected_queries.get(tier, 0) + 1

        stats = service.stats()
        # Service counters are the exact fold — same sparse convention:
        # queries_by_tier counts answers that *consulted* the tier,
        # rows_by_tier sums the rows it served; absent tier == zero.
        assert stats["rows_by_tier"] == expected_rows
        assert stats["queries_by_tier"] == expected_queries
        assert "cloud" not in stats["rows_by_tier"]  # nothing synced upward

    def test_cache_hits_do_not_recount_tiers(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        baseline = client.queries.stats()
        hit = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert hit.cache_hit
        stats = client.queries.stats()
        assert stats["rows_by_tier"] == baseline["rows_by_tier"]
        assert stats["queries_by_tier"] == baseline["queries_by_tier"]
        assert stats["served"] == baseline["served"] + 1
        assert stats["cache_hits"] == baseline["cache_hits"] + 1


class TestSummarize:
    def test_summary_estimates_and_attribution(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=12, section="d-01/s-01")
        exact = client.query(since=0.0, until=1_000.0)
        summary = client.summarize(since=0.0, until=1_000.0)
        assert summary.rows == len(exact)
        assert summary.rows_by_tier == exact.rows_by_tier
        assert summary.tiers() == exact.tiers()
        assert summary.categories() == ["energy"]
        # Count-min never undercounts; here collisions are unlikely, so the
        # estimates are exact.
        for sensor_id in set(exact.columns.sensor_ids):
            true = sum(1 for s in exact.columns.sensor_ids if s == sensor_id)
            assert summary.reading_count("energy", sensor_id) >= true
        assert summary.distinct_sensors("energy") == pytest.approx(12, rel=0.25)
        assert summary.reading_count("energy", "never-seen") == 0
        assert summary.distinct_sensors("missing-category") == 0.0
        assert summary.size_bytes() > 0

    def test_summaries_counted_separately_and_not_memoized(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.summarize(since=0.0, until=1_000.0)
        client.summarize(since=0.0, until=1_000.0)
        stats = client.queries.stats()
        assert stats["summaries"] == 2
        assert stats["served"] == 0
        assert stats["cache_size"] == 0


class TestHonestCosting:
    """Memo entries are charged their *measured* footprint, not a flat
    per-row guess — interned tags and fog ids cost what they cost."""

    def test_entry_cost_is_the_measured_column_footprint(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        _seed(client)
        service = client.queries
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        expected = (
            QueryService._CACHE_ENTRY_OVERHEAD
            + result.columns.memory_bytes()
            + len(result.sources) * QueryService._CACHE_SOURCE_COST
        )
        assert service.cache_bytes == expected
        assert service.stats()["cache_bytes"] == expected

    def test_memory_bytes_charges_shared_objects_once(self):
        from repro.sensors.readings import ReadingColumns

        shared = {"site": "barcelona", "quality": 0.9}
        with_shared = ReadingColumns.from_readings(
            make_reading(sensor_id=f"m-{i}", timestamp=float(i), tags=shared)
            for i in range(6)
        )
        with_distinct = ReadingColumns.from_readings(
            make_reading(
                sensor_id=f"m-{i}", timestamp=float(i), tags=dict(shared)
            )
            for i in range(6)
        )
        # Same rows, same values — but six aliases of one dict must cost
        # less than six equal-but-distinct dicts.
        assert with_shared.memory_bytes() < with_distinct.memory_bytes()

    def test_memory_bytes_grows_with_rows(self):
        from repro.sensors.readings import ReadingColumns

        small = ReadingColumns.from_readings(
            make_reading(sensor_id=f"g-{i}", timestamp=float(i)) for i in range(4)
        )
        large = ReadingColumns.from_readings(
            make_reading(sensor_id=f"g-{i}", timestamp=float(i)) for i in range(64)
        )
        assert 0 < small.memory_bytes() < large.memory_bytes()


def _to_broad_tiers(client):
    """Sync upward, then drop the fog L1 copies so summaries must be served
    from the (cacheable) broad tiers."""
    client.synchronise(now=500.0)
    for fog1 in client.system.fog1_nodes():
        fog1.storage.store.clear()
        client.system.merge_fog1_stats({fog1.node_id: {"stored_readings": 0}})
    client.queries.invalidate()


class TestSketchSegmentCache:
    """summarize() sums cached per-segment counts on broad tiers."""

    def _broad_tier_client(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=12)
        _to_broad_tiers(client)
        return client

    def test_warm_summaries_build_identical_sketches(
        self, small_city, small_catalog
    ):
        client = self._broad_tier_client(small_city, small_catalog)
        service = client.queries
        cold = client.summarize(since=0.0, until=1_000.0)
        assert cold.rows == 12
        assert service.stats()["sketch_cache_size"] > 0
        assert service.sketch_cache_hits == 0
        warm = client.summarize(since=0.0, until=1_000.0)
        assert service.sketch_cache_hits > 0
        # Sketches built from the cached counts equal the cold pass bit for bit.
        assert warm.rows == cold.rows and warm.rows_by_tier == cold.rows_by_tier
        assert set(warm.frequency) == set(cold.frequency)
        for category, sketch in cold.frequency.items():
            assert warm.frequency[category]._table == sketch._table
            assert warm.distinct[category]._registers == (
                cold.distinct[category]._registers
            )

    def test_warm_scatter_summary_skips_the_store_pass(
        self, small_city, small_catalog, monkeypatch
    ):
        from repro.storage.timeseries import TimeSeriesStore

        client = self._broad_tier_client(small_city, small_catalog)
        passes = []
        real = TimeSeriesStore.query_window_partitioned

        def counting(store, *args, **kwargs):
            passes.append(store)
            return real(store, *args, **kwargs)

        monkeypatch.setattr(TimeSeriesStore, "query_window_partitioned", counting)
        cold = client.summarize(since=0.0, until=1_000.0)
        assert passes  # the cold scatter reads its rows in one partitioned pass
        del passes[:]
        warm = client.summarize(since=0.0, until=1_000.0)
        assert passes == []  # every broad segment came from the cache
        assert warm.rows == cold.rows and warm.sources == cold.sources

    def test_fog1_segments_are_not_cached(self, small_city, small_catalog):
        # Fog L1 contents churn with every ingest; only the broad tiers —
        # whose contents change exactly at invalidate() points — cache.
        client = _client(small_city, small_catalog)
        _seed(client)
        summary = client.summarize(since=0.0, until=1_000.0)
        assert summary.rows == 8
        assert summary.tiers() == ("fog_layer_1",)
        stats = client.queries.stats()
        assert stats["sketch_cache_size"] == 0
        assert stats["sketch_cache_hits"] == 0

    def test_invalidate_clears_the_sketch_cache(self, small_city, small_catalog):
        client = self._broad_tier_client(small_city, small_catalog)
        client.summarize(since=0.0, until=1_000.0)
        assert client.queries.stats()["sketch_cache_size"] > 0
        client.queries.invalidate()
        assert client.queries.stats()["sketch_cache_size"] == 0

    def test_cache_is_bounded(self, small_city, small_catalog):
        client = self._broad_tier_client(small_city, small_catalog)
        service = client.queries
        service._SKETCH_CACHE_MAX_SEGMENTS = 2
        for i in range(8):
            client.summarize(since=0.0, until=900.0 + i)
        assert len(service._sketch_cache) <= 2


class TestSummarizeHashWork:
    """summarize() hashes once per distinct (category, sensor), not per row."""

    def _seed_repeating(self, client):
        # R = 22 rows over K = 6 distinct keys: four energy sensors report
        # four times each, and two of the same ids report three times as
        # traffic (a distinct key per category).
        readings = [
            make_reading(sensor_id=f"c-{i}", timestamp=100.0 + 10 * t + i)
            for t in range(4)
            for i in range(4)
        ] + [
            make_reading(
                sensor_id=f"c-{i}",
                sensor_type="traffic",
                category="urban",
                timestamp=150.0 + 10 * t + i,
            )
            for t in range(3)
            for i in range(2)
        ]
        client.ingest(readings, now=200.0, default_section="d-01/s-01")
        return len(readings), len({(r.category, r.sensor_id) for r in readings})

    @staticmethod
    def _count_hashes(monkeypatch):
        from repro.aggregation import sketches

        calls = []
        real = sketches._hash64

        def counting(value, seed):
            calls.append(value)
            return real(value, seed)

        monkeypatch.setattr(sketches, "_hash64", counting)
        return calls

    def test_fog1_summary_hashes_each_distinct_key_once(
        self, small_city, small_catalog, monkeypatch
    ):
        client = _client(small_city, small_catalog)
        rows, keys = self._seed_repeating(client)
        calls = self._count_hashes(monkeypatch)
        summary = client.summarize(since=0.0, until=1_000.0)
        assert summary.rows == rows == 22
        assert summary.tiers() == ("fog_layer_1",)
        # depth (4) count-min hashes + 1 distinct-counter hash per key.
        assert len(calls) == 5 * keys == 30

    def test_broad_tier_summaries_cold_and_warm(
        self, small_city, small_catalog, monkeypatch
    ):
        client = _client(small_city, small_catalog)
        rows, keys = self._seed_repeating(client)
        _to_broad_tiers(client)
        calls = self._count_hashes(monkeypatch)
        cold = client.summarize(since=0.0, until=1_000.0)
        assert cold.rows == rows and "fog_layer_1" not in cold.tiers()
        assert len(calls) == 5 * keys
        del calls[:]
        client.summarize(since=0.0, until=1_000.0)
        assert client.queries.sketch_cache_hits > 0
        assert len(calls) == 5 * keys


class TestSensorRouting:
    """Sensor→chain resolution order: assignment, broad-tier index, probe."""

    def test_unassigned_sensor_resolves_via_broad_tier_index(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        # default_section routing leaves no explicit assignment behind.
        client.ingest(
            [make_reading(sensor_id="u-1", timestamp=10.0)],
            now=10.0,
            default_section="d-01/s-02",
        )
        before_sync = client.query(sensor_id="u-1")
        assert before_sync.tiers() == ("fog_layer_1",)  # found by the probe loop
        assert before_sync.sources[0].section_id == "d-01/s-02"

        # Once synced upward, the broad tiers' fog index names the chain
        # directly — even when the fog L1 store no longer holds the series
        # (the sharded-supervisor shape).
        client.synchronise(now=20.0)
        for fog1 in client.system.fog1_nodes():
            fog1.storage.store.clear()
            client.system.merge_fog1_stats({fog1.node_id: {"stored_readings": 0}})
        client.queries.invalidate()
        result = client.query(sensor_id="u-1")
        assert len(result) == 1
        assert result.sources[0].section_id == "d-01/s-02"
        assert result.tiers() == ("fog_layer_2",)
        # The resolution is memoized until the next invalidation.
        expected_chain = client.system.fog1_for_section("d-01/s-02").node_id
        assert client.queries._sensor_chain["u-1"] == expected_chain
        client.queries.invalidate()
        assert "u-1" not in client.queries._sensor_chain

    def test_unknown_sensor_falls_back_to_spread_chain(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        result = client.query(sensor_id="never-ingested")
        assert len(result) == 0
        expected = client.system.spread_section("never-ingested")
        assert result.sources[0].section_id == expected
