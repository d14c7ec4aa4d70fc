"""Property test: ``summarize()`` is the naive per-row sketch fold.

``QueryService.summarize`` sums exact ``(category, sensor_id)`` counts per
chain segment (cached on the broad tiers) and builds each category's
sketches once.  Count-min cells are sums and distinct-counter registers
are maxima, so that must be bit-identical to adding every row of the
equivalent exact :meth:`~repro.api.query.QueryService.query` answer to
fresh sketches one by one.  Checked with Hypothesis over random ingest /
sync / eviction rounds, windows and ``section_id`` / ``category`` filters,
with fog layer-1 serving, with broad tiers serving (cold and from warm
cached segment counts), and under a simulated sharded run.  The cached
counts do not depend on the sketch sizes, so a warm call asking for other
sizes is served from the same cache entries.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation.sketches import CountMinSketch, DistinctCounter
from repro.api import F2CClient, PipelineConfig
from repro.core.architecture import F2CDataManagement
from tests.properties.test_query_scaleout_properties import SECTIONS, _run_rounds, rounds

SMALL = {"width": 64, "depth": 3, "precision": 6}
DEFAULT = {"width": 256, "depth": 4, "precision": 10}

windows = st.tuples(
    st.floats(min_value=-10.0, max_value=4000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=4000.0, allow_nan=False),
).map(lambda bounds: (bounds[0], bounds[0] + bounds[1]))

scopes = st.fixed_dictionaries(
    {},
    optional={
        "section_id": st.sampled_from(SECTIONS),
        "category": st.sampled_from(("energy", "traffic", "waste")),
    },
)


def _naive_fold(exact, width, depth, precision):
    """Every row of the exact answer added to fresh sketches, one by one."""
    frequency, distinct = {}, {}
    columns = exact.columns
    for sensor_id, category in zip(columns.sensor_ids, columns.categories):
        if category not in frequency:
            frequency[category] = CountMinSketch(width, depth)
            distinct[category] = DistinctCounter(precision)
        frequency[category].add(sensor_id)
        distinct[category].add(sensor_id)
    return frequency, distinct


def _assert_is_naive_fold(summary, exact, sizes):
    frequency, distinct = _naive_fold(exact, **sizes)
    assert summary.rows == len(exact)
    assert summary.rows_by_tier == exact.rows_by_tier
    assert summary.sources == exact.sources
    assert list(summary.frequency) == list(frequency)
    for category, sketch in frequency.items():
        assert summary.frequency[category].width == sketch.width
        assert summary.frequency[category]._table == sketch._table
        assert summary.frequency[category].total == sketch.total
        assert summary.distinct[category]._registers == distinct[category]._registers


class TestSummarizeIsTheNaiveFold:
    @pytest.mark.parametrize("evict", [None, "fog1", "both", "sharded"])
    @given(program=rounds, window=windows, scope=scopes)
    # The fixtures are read-only descriptors (City / SensorCatalog); every
    # example deploys its own F2CDataManagement over them.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cold_and_warm_summaries_equal_the_per_row_fold(
        self, small_city, small_catalog, program, window, scope, evict
    ):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        client = F2CClient(system=system, config=PipelineConfig())
        _run_rounds(client, program, sharded=evict == "sharded")
        clock = 1000.0 * len(program)
        if evict in ("fog1", "both"):
            # Push the window off fog layer 1 (and fog layer 2) so the
            # broad tiers serve it and their segment counts are cached.
            client.synchronise(now=clock)
            for fog1 in system.fog1_nodes():
                fog1.enforce_retention(clock + 9 * 3600)
            if evict == "both":
                for fog2 in system.fog2_nodes():
                    fog2.enforce_retention(clock + 81 * 3600)
            client.queries.invalidate()
        since, until = window
        service = client.queries
        exact = service.query(since=since, until=until, **scope)
        cold = service.summarize(since, until, **SMALL, **scope)
        _assert_is_naive_fold(cold, exact, SMALL)
        broad_sources = [s for s in exact.sources if s.tier != "fog_layer_1"]
        for sizes in (SMALL, DEFAULT):
            hits_before = service.sketch_cache_hits
            warm = service.summarize(since, until, **sizes, **scope)
            _assert_is_naive_fold(warm, exact, sizes)
            # Every broad-tier segment of the warm call came from the cache,
            # whatever the sketch sizes (zero-row segments of a scatter are
            # cached too but not listed as sources).
            assert service.sketch_cache_hits - hits_before >= len(broad_sources)
