"""Seeded query mix for the read side of the benchmark.

No measured query traffic exists for this system, so the mix makes no
claim to be realistic.  It gives the five query shapes of the F2C read API
equal shares, plus ``summarize`` as a small stated share, and every query
spans one hour.  Each shape's windows walk the workload's horizon by the
golden ratio, so they cover it evenly and almost never repeat: the query
memo is deliberately cold, and latencies are those of real reads.  A
client's sequence depends only on the seed and the client index, so the
same seed always offers the same queries in the same order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

#: (shape, queries per block of 51): ten of each filter shape and one
#: ``summarize`` (about 2 %).  Every block of 51 consecutive queries holds
#: exactly these counts, in a seeded order, so the mix does not drift
#: between seeds.
SHAPES: Tuple[Tuple[str, int], ...] = (
    ("sensor", 10),
    ("section", 10),
    ("category", 10),
    ("section_category", 10),
    ("city", 10),
    ("summarize", 1),
)

#: Width of every query window: one hour, four rounds.
WIDTH_S = 3600.0
GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Query:
    """One read request; ``shape`` says which filters are set."""

    id: str
    shape: str
    since: float
    until: float
    sensor_id: Optional[str] = None
    section_id: Optional[str] = None
    category: Optional[str] = None


class QueryMix:
    """An endless, seeded stream of queries per client."""

    def __init__(
        self,
        seed: int,
        horizon_s: float,
        sensor_ids: Sequence[str],
        section_ids: Sequence[str],
        categories: Sequence[str],
    ) -> None:
        self.seed = seed
        self.horizon_s = horizon_s
        self.sensor_ids = list(sensor_ids)
        self.section_ids = list(section_ids)
        self.categories = list(categories)

    def stream(self, client: int, landed: Optional[Callable[[], float]] = None) -> Iterator[Query]:
        """Client *client*'s queries, ids ``q<client>.0``, ``q<client>.1``, ...

        With *landed*, a live deployment's data so far (seconds of the
        horizon), each window is placed within that span when it is drawn,
        so no query asks for data that has not arrived yet.
        """
        rng = random.Random(self.seed * 1_000_003 + client)
        block = [shape for shape, count in SHAPES for _ in range(count)]
        # Each shape's windows walk the horizon by the golden ratio from a
        # seeded start, so every run covers it evenly, whatever the seed.
        place = {shape: rng.random() for shape, _ in SHAPES}
        number = 0
        while True:
            rng.shuffle(block)
            for shape in block:
                span = landed() if landed is not None else self.horizon_s
                width = min(WIDTH_S, span)
                place[shape] = (place[shape] + GOLDEN) % 1.0
                since = place[shape] * (span - width)
                yield Query(
                    id=f"q{client}.{number}",
                    shape=shape,
                    since=since,
                    until=since + width,
                    sensor_id=rng.choice(self.sensor_ids) if shape == "sensor" else None,
                    section_id=(
                        rng.choice(self.section_ids)
                        if shape in ("section", "section_category") else None
                    ),
                    category=(
                        rng.choice(self.categories)
                        if shape in ("category", "section_category") else None
                    ),
                )
                number += 1


def answer(target, query: Query):
    """Send *query* to a client or serve handle; returns its answer."""
    if query.shape == "summarize":
        return target.summarize(query.since, query.until)
    return target.query(
        since=query.since,
        until=query.until,
        sensor_id=query.sensor_id,
        section_id=query.section_id,
        category=query.category,
    )


def answer_digest(result) -> str:
    """SHA-256 over an answer's rows, independent of the tier that served them.

    Query answers are compared as sorted canonical rows (the shape the
    cloud digest uses); summaries by their row count and per-category
    distinct-sensor estimates, which do not depend on insertion order.
    """
    digest = hashlib.sha256()
    if hasattr(result, "distinct"):
        digest.update(repr(result.rows).encode())
        for category in result.categories():
            digest.update(repr((category, result.distinct_sensors(category))).encode())
        return digest.hexdigest()
    rows = sorted(
        (
            r.sensor_id,
            r.sensor_type,
            r.category,
            r.value,
            r.timestamp,
            r.size_bytes,
            r.sequence,
            tuple(sorted(r.tags.items())),
        )
        for r in result.readings()
    )
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()
