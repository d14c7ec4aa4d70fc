"""Span tracing for the benchmark's traced run.

A :class:`Tracer` wraps the public entry points of each F2C layer from the
benchmark's side, for the length of one traced run, and records a span per
call: name, start, end, parent span and the round or query it belongs to.
Spans stay in memory and are written out when the run ends.  A layer's
*self time* is its spans' duration minus the time of their child spans, so
nested layers are never counted twice.

Nothing here edits the program: :meth:`Tracer.install` swaps class
attributes for timing wrappers and :meth:`Tracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: The benchmark's own operation spans (one per round, query or recovery);
#: every layer span nests under one of them.
ROOT_SPANS = ("bench.round", "bench.query", "bench.recover")


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self) -> None:
        #: Each span is ``[name, start, end, parent span or None, tag]``.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._gc_started: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: Optional[str] = None) -> list:
        """Start a span on this thread, nested under its open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None and parent is not None:
            tag = parent[4]
        span = [name, perf_counter(), None, parent, tag]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Let this thread's calls through untimed (the benchmark's own checks)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def record(self, name: str, start: float, end: float) -> None:
        """Add an already-finished span under this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append([name, start, end, parent, parent[4] if parent else None])

    def wrap(self, owner: type, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span called *name*.

        *count* is called as ``count(counts, args, result)`` after each call
        to add the layer's work counters.
        """
        raw = owner.__dict__.get(attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else getattr(owner, attr)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if getattr(tracer._local, "paused", False):
                return func(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))

    def _on_gc(self, phase: str, info: dict) -> None:
        thread = threading.get_ident()
        if phase == "start":
            self._gc_started[thread] = perf_counter()
            return
        start = self._gc_started.pop(thread, None)
        if start is not None and not getattr(self._local, "paused", False):
            self.record("gc.pause", start, perf_counter())
            self.counts["gc.collections"] += 1

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer's entry points and listen to the collector."""
        from repro.api.pipeline import IngestSession
        from repro.api.query import QueryService
        from repro.api.serving import ServeHandle
        from repro.core.movement import DataMovementScheduler
        from repro.dlc.acquisition import AcquisitionBlock
        from repro.dlc.preservation import PreservationBlock
        from repro.messaging.broker import Broker
        from repro.network.simulator import NetworkSimulator
        from repro.network.traffic import TrafficAccountant
        from repro.sensors.readings import ReadingColumns
        from repro.storage.segments import DurableTierLogs, SegmentLog
        from repro.storage.tiered import TieredStore

        def wire_bytes(counts, args, payload):
            counts["wire.bytes"] += len(payload)

        def acquired(counts, args, result):
            counts["dlc.rows_in"] += len(args[1])
            counts["dlc.rows_out"] += len(result[0])

        def appended(counts, args, rows):
            counts["storage.rows_appended"] += rows

        def evicted(counts, args, rows):
            counts["storage.rows_evicted"] += rows

        def moved(key: str):
            def count(counts, args, per_node):
                counts[key] += sum(per_node.values())

            return count

        def segment(counts, args, entry):
            if entry is not None:
                counts["segments.bytes"] += entry.length

        def answered(counts, args, result):
            counts["query.queries"] += 1
            counts["query.memo_hits"] += bool(result.cache_hit)
            counts["query.rows_returned"] += len(result)
            for tier, rows in result.rows_by_tier.items():
                counts[f"query.rows_by_tier.{tier}"] += rows

        def summarized(counts, args, summary):
            counts["query.summaries"] += 1
            for tier, rows in summary.rows_by_tier.items():
                counts[f"query.rows_by_tier.{tier}"] += rows

        self.wrap(ReadingColumns, "encode_frame", "wire.encode", wire_bytes)
        self.wrap(ReadingColumns, "decode_frame", "wire.decode")
        self.wrap(Broker, "publish", "broker.publish")
        self.wrap(Broker, "drain_inbox", "broker.drain")
        self.wrap(IngestSession, "ingest", "pipeline.route")
        self.wrap(AcquisitionBlock, "run", "dlc.acquire", acquired)
        self.wrap(TieredStore, "ingest_batch", "storage.append", appended)
        self.wrap(TieredStore, "ingest_columns", "storage.append", appended)
        self.wrap(TieredStore, "enforce_retention", "storage.evict", evicted)
        self.wrap(PreservationBlock, "run", "cloud.preserve")
        self.wrap(TrafficAccountant, "record_transfer", "network.account")
        self.wrap(NetworkSimulator, "send", "network.account")
        self.wrap(DataMovementScheduler, "sync_fog1_to_fog2", "movement.fog1_fog2",
                  moved("movement.fog1_fog2_bytes"))
        self.wrap(DataMovementScheduler, "sync_fog2_to_cloud", "movement.fog2_cloud",
                  moved("movement.fog2_cloud_bytes"))
        self.wrap(SegmentLog, "append", "segments.append", segment)
        self.wrap(DurableTierLogs, "commit", "segments.commit")
        self.wrap(DurableTierLogs, "restore", "segments.replay")
        self.wrap(QueryService, "query", "query.query", answered)
        self.wrap(QueryService, "summarize", "query.summarize", summarized)
        # A serve handle's read verbs only take the serve lock and call the
        # query service, so their self time is the wait for that lock.
        self.wrap(ServeHandle, "submit_query", "serve.query_lock_wait")
        self.wrap(ServeHandle, "summarize", "serve.query_lock_wait")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        children: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if end is not None and parent is not None:
                children[id(parent)] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            if end is not None:
                totals[name] += (end - start) - children[id(span)]
        return totals

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name and end is not None]

    def coverage(self) -> float:
        """Share of the benchmark's operation time that layer spans cover."""
        selfs = self.self_times()
        total = sum(sum(self.durations(name)) for name in ROOT_SPANS)
        uncovered = sum(selfs.get(name, 0.0) for name in ROOT_SPANS)
        return (total - uncovered) / total if total else 0.0

    def layer_metrics(self) -> Dict[str, float]:
        """Self seconds per layer (``<span>_s``) plus every counter."""
        metrics = {f"{name}_s": seconds for name, seconds in self.self_times().items()}
        metrics.update(self.counts)
        generate = self.durations("sensors.generate")
        metrics["sensors.generate_s"] = statistics.median(generate) if generate else 0.0
        metrics["trace.coverage"] = self.coverage()
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, tag) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": ids.get(id(parent)) if parent is not None else None,
                    "tag": tag,
                }) + "\n")
