"""Workload definitions, base data and seeded request streams.

The base data is the program's own TIGER-like road simulator at a fixed
size and seed (the index every workload serves); the requests come from
the generator below, seeded by the benchmark's ``--seed`` argument, so
the program only ever receives generated inputs.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass

import numpy as np
from repro import (
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    PointRequest,
    Rect,
    WindowRequest,
)

#: Request classes of the kinds that take a query window.
WINDOW_REQUESTS = {
    "window": WindowRequest,
    "count": CountRequest,
    "containment": ContainmentRequest,
}

#: Base data: TIGER-like eastern road segments, always the same draw.
BASE_N = 50_000
BASE_DATASET_SEED = 0
#: Nearest neighbours per kNN request.
KNN_K = 10
#: How far back an exact repeat may reach, in stream positions.  Short
#: enough that repeats regularly share a coalesced batch with their
#: original (the server deduplicates within a batch).
REPEAT_WINDOW = 64
#: Largest offset of an inserted rectangle from the base rectangle it
#: copies, per axis (inserts follow the data's density).
INSERT_JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the index configuration it runs against."""

    name: str
    #: Read mix as (kind, weight) pairs; weights sum to 1.
    mix: tuple[tuple[str, float], ...]
    #: Query window area as a share of the unit square.
    window_area: float
    #: Share of read requests that exactly repeat a recent one.
    repeat_frac: float
    #: Share of requests that are writes (half inserts, half deletes).
    write_frac: float
    cache_pages: int
    shards: int
    mmap: bool
    #: Group commit cadence (write batches per commit), or None.
    sync_every_n: int | None
    #: Fixed open-loop Poisson arrival rate (requests/second), about 30%
    #: of the closed-loop capacity measured when the benchmark was set.
    open_rate: float
    #: Untimed closed-loop requests before any timed window.
    warmup_requests: int
    #: Untimed inserts applied before the warm-up requests (write-mix:
    #: they split the 100%-full packed leaves, so the timed window's
    #: inserts find room and its deletes never underflow a leaf).
    warmup_inserts: int


POINT_HEAVY = (
    ("window", 0.40),
    ("point", 0.20),
    ("knn", 0.20),
    ("count", 0.10),
    ("containment", 0.10),
)
RANGE_HEAVY = (
    ("window", 0.60),
    ("point", 0.10),
    ("knn", 0.10),
    ("count", 0.10),
    ("containment", 0.10),
)

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="read-hot",
            mix=POINT_HEAVY,
            window_area=0.0025,
            repeat_frac=0.10,
            write_frac=0.0,
            cache_pages=1024,
            shards=1,
            mmap=False,
            sync_every_n=None,
            open_rate=450.0,
            warmup_requests=1000,
            warmup_inserts=0,
        ),
        Workload(
            name="read-spill",
            mix=RANGE_HEAVY,
            window_area=0.01,
            repeat_frac=0.0,
            write_frac=0.0,
            cache_pages=64,
            shards=1,
            mmap=False,
            sync_every_n=None,
            open_rate=160.0,
            warmup_requests=400,
            warmup_inserts=0,
        ),
        Workload(
            name="write-mix",
            mix=POINT_HEAVY,
            window_area=0.0025,
            repeat_frac=0.10,
            write_frac=0.10,
            cache_pages=1024,
            shards=4,
            mmap=True,
            sync_every_n=8,
            open_rate=350.0,
            warmup_requests=1000,
            warmup_inserts=3000,
        ),
    )
}


class BaseData:
    """The base rectangles as arrays (for the oracle) and as tuples of
    floats (for the generators; the collector stops tracking those)."""

    def __init__(self, data: list) -> None:
        if [value for _, value in data] != list(range(len(data))):
            raise ValueError("base values must be 0..n-1 (row numbers)")
        self.n = len(data)
        self.lo = np.array([rect.lo for rect, _ in data], dtype=np.float64)
        self.hi = np.array([rect.hi for rect, _ in data], dtype=np.float64)
        self.lo_rows = [tuple(row) for row in self.lo.tolist()]
        self.hi_rows = [tuple(row) for row in self.hi.tolist()]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.lo.tobytes())
        h.update(self.hi.tobytes())
        return h.hexdigest()


class RequestStream:
    """An endless, seeded request sequence for one phase of a run.

    Requests must be submitted in the order they are drawn: a delete
    only ever names a rectangle this stream inserted earlier, and the
    service applies writes in admission order, so every delete finds
    its target.  Inserted values are ``f"{tag}{serial}"`` strings,
    disjoint from the integer values of the base data.
    """

    def __init__(
        self,
        workload: Workload,
        base: BaseData,
        seed: int,
        tag: str,
        write_frac: float | None = None,
        delete_share: float = 0.5,
    ) -> None:
        self.w = workload
        self.tag = tag
        self.seed = seed
        self.rng = random.Random(f"{seed}:{workload.name}:{tag}")
        self.write_frac = (
            workload.write_frac if write_frac is None else write_frac
        )
        self.delete_share = delete_share
        self.n = base.n
        self.lo = base.lo_rows
        self.hi = base.hi_rows
        self.half = workload.window_area ** 0.5 / 2
        kinds, weights = zip(*workload.mix)
        self.kinds = kinds
        self.cum = np.cumsum(weights).tolist()
        self.recent: deque = deque(maxlen=REPEAT_WINDOW)
        self.live: list = []  # (rect, value) inserted, not yet deleted
        self.inserted: dict[str, tuple] = {}  # value -> (lo, hi)
        self.serial = 0

    def __next__(self):
        return self._draw()

    def _window(self):
        # Uniform over the unit square the data covers, like the paper's
        # square query windows.
        h = self.half
        cx = self.rng.uniform(h, 1.0 - h)
        cy = self.rng.uniform(h, 1.0 - h)
        return Rect((cx - h, cy - h), (cx + h, cy + h))

    def _draw(self):
        rng = self.rng
        if self.write_frac and rng.random() < self.write_frac:
            return self._write()
        if self.recent and rng.random() < self.w.repeat_frac:
            return self.recent[rng.randrange(len(self.recent))]
        roll = rng.random()
        kind = next(
            (k for k, c in zip(self.kinds, self.cum) if roll < c),
            self.kinds[-1],
        )
        if kind == "point":
            # A point inside a random base rectangle: at least one hit.
            i = rng.randrange(self.n)
            lo, hi = self.lo[i], self.hi[i]
            request = PointRequest(
                tuple(a + rng.random() * (b - a) for a, b in zip(lo, hi))
            )
        elif kind == "knn":
            request = KNNRequest((rng.random(), rng.random()), k=KNN_K)
        else:
            request = WINDOW_REQUESTS[kind](self._window())
        self.recent.append(request)
        return request

    def _write(self):
        rng = self.rng
        if self.live and rng.random() < self.delete_share:
            rect, value = self.live.pop(rng.randrange(len(self.live)))
            return DeleteRequest(rect, value)
        i = rng.randrange(self.n)
        lo, hi = self.lo[i], self.hi[i]
        dx = rng.uniform(-INSERT_JITTER, INSERT_JITTER)
        dy = rng.uniform(-INSERT_JITTER, INSERT_JITTER)
        dx = min(max(dx, -lo[0]), 1.0 - hi[0])
        dy = min(max(dy, -lo[1]), 1.0 - hi[1])
        rect = Rect((lo[0] + dx, lo[1] + dy), (hi[0] + dx, hi[1] + dy))
        value = f"{self.tag}{self.serial}"
        self.serial += 1
        self.live.append((rect, value))
        self.inserted[value] = (rect.lo, rect.hi)
        return InsertRequest(rect, value)


def stream_digest(stream: RequestStream, count: int = 1024) -> str:
    """Hash of the first ``count`` requests a fresh stream draws."""
    h = hashlib.sha256()
    for _ in range(count):
        h.update(repr(next(stream)).encode())
    return h.hexdigest()
