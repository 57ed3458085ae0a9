#!/usr/bin/env python3
"""Serving benchmark of the packed, sharded, async-served PR-tree index.

Run from the repository root:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 12 --trace 0

One run packs a fresh index from the program's source tree, serves it
through the public ``AsyncQueryService`` from this single process
(16 closed-loop clients; a traced run adds one open-loop Poisson phase
at a fixed rate), checks every answer against a brute-force oracle, reopens the
index cold to validate it, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced window
(``--trace 1``).  End-to-end times are scaled to a reference host speed
measured by calibrations interleaved with the timed work (``calibrate``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import collections
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import random
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
#: Everything a run writes lives here (ignored by git).
WORK = ROOT / ".perfbench"

CLIENTS = 16
EXECUTOR_WORKERS = 2
BLOCK_SIZE = 4096
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: The timed closed-loop window of an untraced run is served in segments
#: of this many seconds, with a host calibration (see ``calibrate``)
#: before the first and after each; ``throughput_rps`` and
#: ``read_p50_ms`` are medians over the segments.
SEGMENT_S = 1.0
#: Repetitions of the reference work in one calibration (their median
#: is taken, so one rep slowed by a concurrent group commit is ignored).
CALIB_REPS = 3
#: The reference speed: seconds one rep of the reference work takes on
#: a 2-vCPU 2.1 GHz Xeon VM (Python 3.11, numpy 2.4) at its fastest.
#: Timed figures are scaled to this speed: a time by
#: ``CALIB_REF_S / calibration``, a rate by its inverse.
CALIB_REF_S = 0.018
#: Requests the open-loop phase of a traced run sends on its seeded
#: Poisson schedule (a fixed count, so every workload's p50 has the same
#: sample size).
OPEN_REQUESTS = 1200
#: ``node_reads_per_query`` averages the closed-loop stream's first
#: this many reads, so it repeats exactly for a seed on a static index.
NODE_READS_PREFIX = 2000
#: On-disk bytes of one 2-D entry (four float64 coordinates + a 4-byte
#: pointer): the "user byte" unit of bytes_written_per_user_byte.
ENTRY_BYTES = 36
#: Write-mix levelling: the timed window's two halves may differ by at
#: most this share in median per-write execution time ...
LEVEL_TIME_TOLERANCE = 0.25
#: ... and by at most this many blocks allocated per insert (a packed
#: leaf that still splits allocates one block per insert that hits it).
LEVEL_BLOCKS_TOLERANCE = 0.02

WRITE_KINDS = ("insert", "delete")
#: The metrics a write-mix window that fails its levelling check does
#: not report (see ``Run.levelling``).
UNSTEADY_METRICS = ("throughput_rps", "read_p50_ms")
#: Fields of the compact result kept per response (see ``compact``).
ANSWER, LEAF_READS, REPORTED, ENGINE_S, QUEUE_S, LATENCY_S, BATCH = range(7)


def settle() -> None:
    """Collect garbage, then freeze everything that survived.

    Called after set-up and before each measured phase: the benchmark's
    inputs, streams and the records of earlier phases (and the pages the
    program has cached so far) stay out of the collector's scans, so the
    collections inside a phase cost what that phase's own allocations
    cost rather than growing with everything the benchmark has kept.
    """
    gc.collect()
    gc.freeze()


def _reference_work() -> float:
    """A fixed block of interpreter and small-array numpy work, the two
    kinds of work the program's read and write paths do.  It shares no
    code with the program."""
    import numpy as np

    x = 0.0
    slots = {}
    for i in range(80_000):
        x += (i * 7 % 13) * 0.5
        slots[i & 1023] = x
    a = (np.arange(256, dtype=np.float64).reshape(64, 4) * 0.618) % 1.0
    for _ in range(3_000):
        hits = (a[:, 0] <= 0.5) & (a[:, 2] >= 0.3)
        x += float(a[hits].sum())
    return x


def calibrate() -> float:
    """The host's current speed: seconds one rep of the reference work
    takes now (median of ``CALIB_REPS``).

    The VM this benchmark was set on runs at two speeds about 1.6-1.9x
    apart, switching within seconds, and the share of time at each drifts
    over minutes to hours, so a raw time of the same code moved by up to
    2.5x over a day.  Calibrations interleaved with the timed work track
    that drift (over 8-second stretches the reference work's time and
    the served window's time correlated 0.95), so timed figures are
    reported divided by the calibration, at the reference speed
    ``CALIB_REF_S``.  The program's code does not affect the
    calibration, so any change it makes to a timed figure shows in full.
    """
    reps = []
    for _ in range(CALIB_REPS):
        t0 = time.perf_counter()
        _reference_work()
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


def describe(request) -> tuple:
    """A request as a tuple of plain values (what the oracle checks)."""
    kind = request.kind
    if kind in WRITE_KINDS:
        return (kind, request.value)
    if kind == "point":
        return (kind, request.point)
    if kind == "knn":
        return (kind, request.target, request.k)
    return (kind, request.window.lo, request.window.hi)


def compact(request, response) -> tuple:
    """What the benchmark keeps of a response: the answer and the
    service's timing fields, as a plain tuple of atomic values, so the
    stored results add no work to the garbage collector during the
    timed windows."""
    value = response.value
    kind = request.kind
    if kind == "knn":
        answer = (tuple([nb.distance for nb in value]), tuple([nb.value for nb in value]))
    elif kind in ("window", "containment", "point"):
        answer = tuple([v for _, v in value])
    else:
        answer = value
    stats = response.stats
    return (
        answer,
        getattr(stats, "leaf_reads", 0),
        getattr(stats, "reported", 0),
        response.engine_s,
        response.queue_s,
        response.latency_s,
        response.batch_size,
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sources_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """One benchmark invocation: set-up, phases, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.dir = WORK / f"run-{os.getpid()}"
        #: (phase, describe(request), compact(response) or None, error, t0, t1)
        self.records: list[tuple] = []
        self.inserted: dict[str, tuple] = {}
        self.notes: list[str] = []
        self.layer: dict[str, float] = {}
        #: Why write-mix's timed window was not level, or None.
        self.unsteady: str | None = None
        #: Every calibration of the run, and the timed figures before
        #: scaling (diagnostics, printed and saved but not bounded).
        self.calibs: list[float] = []
        self.raw: dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def setup_once(self, rep: int):
        """One set-up: generate, build, pack, open.  Returns the data,
        the index path, the open index, the four raw sub-phase times and
        the calibrations taken before, between and after them."""
        from repro import BlockStore, build_prtree, fanout_for_block, pack_tree
        from repro.datasets.tiger import tiger_dataset
        from repro.storage import open_index, shard_pack
        from workloads import BASE_DATASET_SEED, BASE_N

        path = self.dir / f"setup{rep}" / "index"
        path.parent.mkdir(parents=True)
        calibs, times = [calibrate()], []

        def timed(step):
            t0 = time.perf_counter()
            out = step()
            times.append(time.perf_counter() - t0)
            calibs.append(calibrate())
            return out

        data = timed(lambda: tiger_dataset(BASE_N, "eastern", seed=BASE_DATASET_SEED))
        tree = timed(lambda: build_prtree(BlockStore(), data, fanout_for_block(BLOCK_SIZE, 2)))
        if self.w.shards > 1:
            timed(lambda: shard_pack(tree, path, shards=self.w.shards, block_size=BLOCK_SIZE))
        else:
            timed(lambda: pack_tree(tree, path, block_size=BLOCK_SIZE))
        index = timed(lambda: open_index(
            path, values=dict(tree.objects), cache_pages=self.w.cache_pages, mmap=self.w.mmap
        ))
        return data, path, index, times, calibs

    def setup(self, reps: int):
        """Set up ``reps`` times, keeping the last index open.  Each
        set-up's sub-phase times are scaled to the reference speed by the
        median of its calibrations; ``setup_s`` and the per-layer set-up
        figures are medians over the set-ups."""
        parts, raw = [], []
        for rep in range(reps):
            data, path, index, times, calibs = self.setup_once(rep)
            scale = CALIB_REF_S / statistics.median(calibs)
            parts.append([t * scale for t in times])
            raw.append(sum(times))
            self.calibs.extend(calibs)
            if rep < reps - 1:
                index.close()
                shutil.rmtree(path.parent)
        self.setup_s = statistics.median(sum(t) for t in parts)
        self.raw["setup_s"] = statistics.median(raw)
        for name, i in (("datasets.gen_s", 0), ("bulk.build_s", 1), ("storage.pack_s", 2), ("storage.open_s", 3)):
            self.layer[name] = statistics.median(t[i] for t in parts)
        return data, path, index

    # -- load phases -------------------------------------------------------

    def stream(self, tag: str, write_frac=None, delete_share=0.5):
        """The request stream of one phase, created before the phases run."""
        from workloads import RequestStream

        if tag not in self.streams:
            self.streams[tag] = RequestStream(
                self.w, self.base, self.seed, tag, write_frac, delete_share,
            )
        return self.streams[tag]

    async def closed_loop(self, svc, phase, stream, seconds=None, count=None):
        """``CLIENTS`` clients, each sending its next request when the
        last returns, until ``seconds`` pass or ``count`` requests are
        drawn, whichever is first.  Returns (start, end) of the window."""
        start = time.perf_counter()
        end = start + seconds if seconds is not None else math.inf
        drawn = 0
        records = self.records
        submit = svc.submit

        async def client():
            nonlocal drawn
            while time.perf_counter() < end and (count is None or drawn < count):
                drawn += 1
                request = next(stream)
                t0 = time.perf_counter()
                try:
                    result, error = compact(request, await submit(request)), None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, exc
                records.append((phase, describe(request), result, error, t0, time.perf_counter()))

        tasks = [asyncio.ensure_future(client()) for _ in range(CLIENTS)]
        await asyncio.gather(*tasks)
        return start, min(end, time.perf_counter())

    async def timed_window(self, svc, index):
        """The untraced run's timed window: ``--seconds`` of closed-loop
        load served in segments of ``SEGMENT_S``.  Between segments the
        clients drain and the host is calibrated.  Keeps per segment its
        (start, end, mean of the calibrations either side) and the blocks
        allocated so far; returns (start, end) of the whole window."""
        stream = self.stream("c")
        self.allocs = [self.allocated(index)]
        self.segments = []
        before = calibrate()
        self.calibs.append(before)
        for _ in range(max(1, round(self.seconds / SEGMENT_S))):
            start, end = await self.closed_loop(svc, "closed", stream, SEGMENT_S)
            after = calibrate()
            self.calibs.append(after)
            self.allocs.append(self.allocated(index))
            self.segments.append((start, end, (before + after) / 2))
            before = after
        return self.segments[0][0], self.segments[-1][1]

    async def open_loop(self, svc, phase, stream):
        """Poisson arrivals at the workload's fixed rate; each request is
        timed from its scheduled send time, and the generator's lateness
        is kept as a diagnostic."""
        rng = random.Random(f"{self.seed}:{self.w.name}:arrivals")
        records = self.records
        late = []

        async def one(request, due):
            try:
                result, error = compact(request, await svc.submit(request)), None
            except Exception as exc:  # counted as a failed operation
                result, error = None, exc
            records.append((phase, describe(request), result, error, due, time.perf_counter()))

        tasks = []
        due = time.perf_counter()
        for _ in range(OPEN_REQUESTS):
            due += rng.expovariate(self.w.open_rate)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            request = next(stream)
            tasks.append(asyncio.ensure_future(one(request, due)))
        await asyncio.gather(*tasks)
        return late

    def allocated(self, index) -> int:
        if self.w.shards > 1:
            return sum(s.page_store.allocated_ever for s in index.shards)
        return index.page_store.allocated_ever

    async def serve(self, index):
        from repro.service import AsyncQueryService
        from layers import Tracer

        w = self.w
        svc = AsyncQueryService(index, executor_workers=EXECUTOR_WORKERS, sync_every_n=w.sync_every_n)
        async with svc:
            if w.warmup_inserts:
                await self.closed_loop(svc, "warm", self.stream("u"), count=w.warmup_inserts)
            await self.closed_loop(svc, "warm", self.stream("w"), count=w.warmup_requests)
            settle()
            if self.traced:
                start, end = await self.closed_loop(svc, "base", self.stream("b"), self.seconds)
                self.base_window = (start, end)
                settle()
                tracer = Tracer()
                svc.stats.max_queue_depth = 0
                pages0, alloc0 = index.page_stats.snapshot(), self.allocated(index)
                tracer.install()
                try:
                    window = await self.closed_loop(svc, "closed", self.stream("c"), self.seconds)
                finally:
                    tracer.uninstall()
                self.trace_delta = (
                    index.page_stats.snapshot() - pages0, self.allocated(index) - alloc0
                )
                self.tracer = tracer
                self.max_queue_depth = svc.stats.max_queue_depth
            else:
                window = await self.timed_window(svc, index)
            self.window = window
            if self.traced:
                settle()
                self.late = await self.open_loop(svc, "open", self.stream("o"))

    # -- checks --------------------------------------------------------------

    def check_responses(self, oracle) -> tuple[int, int, list[str]]:
        from oracle import Inserted

        inserted = None
        for stream in self.streams.values():
            self.inserted.update(stream.inserted)
        if self.inserted:
            inserted = Inserted(self.inserted)
        checked = failed = 0
        problems = []
        self.live = set()
        deleted = set()
        for phase, query, response, error, *_ in self.records:
            kind = query[0]
            if error is not None:
                failed += 1
                problems.append(f"{phase} {kind}: {type(error).__name__}: {error}")
                continue
            if kind == "insert":
                self.live.add(query[1])
            elif kind == "delete":
                if response[ANSWER] is not True:
                    failed += 1
                    problems.append(f"{phase} delete of {query[1]!r} found nothing")
                deleted.add(query[1])
            else:
                reason = oracle.check(query, response[ANSWER], inserted)
                checked += 1
                if reason:
                    problems.append(f"{phase} {query!r}: {reason}")
        self.live -= deleted
        return checked, failed, problems

    def reopen_and_validate(self, path, objects) -> list[str]:
        """Reopen the closed index cold; validate it and compare its
        contents to base data plus live inserts."""
        from repro import validate_rtree
        from repro.storage import open_index

        problems = []
        index = open_index(path, values=objects, cache_pages=self.w.cache_pages, readonly=True)
        try:
            trees = index.shards if self.w.shards > 1 else [index]
            for tree in trees:
                validate_rtree(tree, expect_size=tree.size)
            got = collections.Counter(
                (tuple(rect.lo), tuple(rect.hi), value) for rect, value in index.all_data()
            )
        except Exception as exc:  # reported as a correctness failure
            return [f"reopen/validate: {type(exc).__name__}: {exc}"]
        finally:
            index.close()
        want = collections.Counter(
            zip(self.base.lo_rows, self.base.hi_rows, range(self.base.n))
        )
        for value in self.live:
            lo, hi = self.inserted[value]
            want[(tuple(lo), tuple(hi), value)] += 1
        if got != want:
            problems.append(
                f"reopened contents differ: {sum((got - want).values())} extra, "
                f"{sum((want - got).values())} missing"
            )
        return problems

    # -- metrics ---------------------------------------------------------------

    def segment_of(self, t1: float) -> int:
        """Index of the segment a response completing at ``t1`` belongs
        to (a response completing while the clients drain counts with the
        segment that sent it)."""
        return max(0, bisect.bisect_right(self.segment_starts, t1) - 1)

    def end_to_end(self, attempted, failed) -> dict:
        """The end-to-end metrics of an untraced run.

        Per segment, the completion rate and the read p50 of responses
        completed inside it are scaled to the reference speed by the
        segment's calibration; ``throughput_rps`` and ``read_p50_ms`` are
        the medians over the segments, so a stall or a slow stretch the
        calibration misses moves them only if it covers half the window.
        """
        segments = self.segments
        self.segment_starts = [seg[0] for seg in segments]
        done = [0] * len(segments)
        reads = [[] for _ in segments]
        writes = 0
        prefix = []
        for phase, query, resp, _, t0, t1 in self.records:
            if resp is None or phase != "closed":
                continue
            is_write = query[0] in WRITE_KINDS
            if not is_write and len(prefix) < NODE_READS_PREFIX:
                prefix.append(resp[LEAF_READS])
            i = self.segment_of(t1)
            if t1 > segments[i][1]:
                continue
            done[i] += 1
            if is_write:
                writes += 1
            else:
                reads[i].append(1000 * (t1 - t0))
        rates = [n / (end - start) for n, (start, end, _) in zip(done, segments)]
        p50s = [percentile(part, 0.50) for part in reads]
        speed = [calib / CALIB_REF_S for _, _, calib in segments]
        self.raw["throughput_rps"] = statistics.median(rates)
        self.raw["read_p50_ms"] = statistics.median(p50s)
        self.samples = {
            "segments": len(segments), "read": sum(map(len, reads)),
            "read_per_segment": min(map(len, reads)), "write": writes, "node_reads": len(prefix),
        }
        return {
            "setup_s": (self.setup_s, "s"),
            "throughput_rps": (statistics.median(r * f for r, f in zip(rates, speed)), "1/s"),
            "read_p50_ms": (statistics.median(p / f for p, f in zip(p50s, speed)), "ms"),
            "served_frac": ((attempted - failed) / attempted, "fraction"),
            "node_reads_per_query": (sum(prefix) / max(1, len(prefix)), "nodes"),
            "space_bytes_per_entry": (self.space_bytes_per_entry, "bytes"),
        }

    def levelling(self) -> str | None:
        """Write-mix only: None when the timed window is level, else why
        not.  Compares the window's first and second halves of segments
        on median per-write execution time (scaled by each segment's
        calibration) and on blocks allocated per insert."""
        segments, allocs = self.segments, self.allocs
        mid = len(segments) // 2
        if mid == 0:
            return "the window has a single segment"
        halves = ([], [])
        inserts = [0, 0]
        for phase, req, resp, _, _, t1 in self.records:
            if phase != "closed" or resp is None or req[0] not in WRITE_KINDS:
                continue
            i = self.segment_of(t1)
            half = 0 if i < mid else 1
            halves[half].append(resp[ENGINE_S] * CALIB_REF_S / segments[i][2])
            if req[0] == "insert":
                inserts[half] += 1
        first, second = (statistics.median(h) if h else math.nan for h in halves)
        blocks = (
            (allocs[mid] - allocs[0]) / max(1, inserts[0]),
            (allocs[-1] - allocs[mid]) / max(1, inserts[1]),
        )
        self.level = {"write_ms": (1000 * first, 1000 * second), "blocks_per_insert": blocks}
        if not (abs(second - first) <= LEVEL_TIME_TOLERANCE * max(first, second)):
            return f"per-write time {1000 * first:.3f} -> {1000 * second:.3f} ms"
        if abs(blocks[1] - blocks[0]) > LEVEL_BLOCKS_TOLERANCE:
            return f"blocks per insert {blocks[0]:.3f} -> {blocks[1]:.3f}"
        return None

    def per_layer(self, problems: list[str]) -> dict:
        per, counts = self.tracer.totals()
        problems.extend(self.tracer.hygiene(self.w.name, per))
        start, end = self.window
        closed = [rec for rec in self.records if rec[0] == "closed" and rec[2] is not None]
        reads = [rec for rec in closed if rec[1][0] not in WRITE_KINDS]
        n_reads = max(1, len(reads))
        executed = [rec[2][ENGINE_S] for rec in reads if rec[2][ENGINE_S] > 0]
        inserts = sum(1 for rec in closed if rec[1][0] == "insert")
        writes = len(closed) - len(reads)
        base_start, base_end = self.base_window
        base = [rec for rec in self.records if rec[0] == "base" and rec[2] is not None and rec[5] <= base_end]
        base_rps = len(base) / (base_end - base_start)
        # Tails of the untraced window, and open-loop latency: diagnostics
        # too noisy on a shared host to carry a regression bound.
        base_read_ms = [1000 * (rec[5] - rec[4]) for rec in base if rec[1][0] not in WRITE_KINDS]
        base_write_ms = [1000 * (rec[5] - rec[4]) for rec in base if rec[1][0] in WRITE_KINDS]
        open_read_ms = [
            1000 * (rec[5] - rec[4]) for rec in self.records
            if rec[0] == "open" and rec[2] is not None and rec[1][0] not in WRITE_KINDS
        ]
        traced_rps = sum(1 for rec in closed if rec[5] <= end) / (end - start)
        pages, allocated = self.trace_delta

        def calls(*attrs):
            return sum(per[a][0] for a in attrs)

        def self_ms(*attrs):
            return 1000 * sum(per[a][2] for a in attrs)

        def per_call_ms(attr):
            return self_ms(attr) / per[attr][0] if per[attr][0] else 0.0

        kernel_attrs = [a for a in per if a.startswith("frame_")]
        lookups = pages.hits + pages.misses
        m = {
            "service.queue_ms": (1000 * statistics.mean(r[2][QUEUE_S] for r in reads), "ms"),
            "service.exec_ms": (1000 * statistics.mean(r[2][LATENCY_S] - r[2][QUEUE_S] for r in reads), "ms"),
            "service.batch_size": (statistics.mean(r[2][BATCH] for r in closed), "requests"),
            "service.max_queue_depth": (self.max_queue_depth, "requests"),
            "service.read_p99_ms": (percentile(base_read_ms, 0.99), "ms"),
            "service.write_p50_ms": (percentile(base_write_ms, 0.50) if base_write_ms else 0.0, "ms"),
            "service.write_p99_ms": (percentile(base_write_ms, 0.99) if base_write_ms else 0.0, "ms"),
            "service.open_read_p50_ms": (percentile(open_read_ms, 0.50), "ms"),
            "server.submit_self_ms": (per_call_ms("QueryServer.submit"), "ms/batch"),
            "server.dedup_frac": (counts.get("server.dedup_hits", 0) / max(1, counts.get("server.reads", 0)), "fraction"),
            "queries.engine_ms": (1000 * statistics.mean(executed) if executed else 0.0, "ms"),
            "queries.results_per_read": (statistics.mean(r[2][REPORTED] for r in reads), "results/read"),
            "kernels.calls_per_read": (calls(*kernel_attrs) / n_reads, "calls/read"),
            "kernels.self_ms": (self_ms(*kernel_attrs) / n_reads, "ms/read"),
            "paged.hit_ratio": (pages.hits / lookups if lookups else 0.0, "fraction"),
            "paged.misses_per_read": (pages.misses / n_reads, "misses/read"),
            "paged.evictions": (pages.evictions, "count"),
            "paged.read_self_ms": (self_ms("PagedNodeStore.read") / n_reads, "ms/read"),
            "paged.sync_ms": (per_call_ms("PagedNodeStore.sync"), "ms/call"),
            "codec.decode_calls": (calls("NodeCodec.decode_arrays"), "count"),
            "codec.decode_self_ms": (self_ms("NodeCodec.decode_arrays") / n_reads, "ms/read"),
            "filestore.peek_calls": (calls("FileBlockStore.peek"), "count"),
            "filestore.peek_self_ms": (self_ms("FileBlockStore.peek") / n_reads, "ms/read"),
            "filestore.flush_calls": (calls("FileBlockStore.flush"), "count"),
            "filestore.flush_ms": (1000 * per["FileBlockStore.flush"][1] / max(1, per["FileBlockStore.flush"][0]), "ms/call"),
            "filestore.bytes_written_per_user_byte": (
                counts.get("filestore.bytes_written", 0) / (ENTRY_BYTES * writes) if writes else 0.0,
                "bytes/byte",
            ),
            "shard.shard_mbr_calls_per_read": (calls("ShardedTree.shard_mbr") / n_reads, "calls/read"),
            "shard.shard_mbr_self_ms": (self_ms("ShardedTree.shard_mbr") / n_reads, "ms/read"),
            "update.insert_ms": (per_call_ms("PagedTree.insert"), "ms/call"),
            "update.delete_ms": (per_call_ms("PagedTree.delete"), "ms/call"),
            "update.blocks_allocated_per_insert": (allocated / inserts if inserts else 0.0, "blocks/insert"),
            "datasets.gen_s": (self.layer["datasets.gen_s"], "s"),
            "bulk.build_s": (self.layer["bulk.build_s"], "s"),
            "storage.pack_s": (self.layer["storage.pack_s"], "s"),
            "storage.open_s": (self.layer["storage.open_s"], "s"),
            "loadgen.late_p99_ms": (1000 * percentile(self.late, 0.99), "ms"),
            "trace.overhead_frac": (1.0 - traced_rps / base_rps, "fraction"),
            "trace.reads": (len(reads), "count"),
        }
        return m

    # -- one run ---------------------------------------------------------------

    def execute(self) -> tuple[dict, bool, int, int]:
        import numpy as np
        from oracle import Oracle
        from repro.geometry.kernels import BACKEND
        from workloads import BaseData, stream_digest

        self.streams = {}
        t0 = time.perf_counter()
        data, path, index = self.setup(1 if self.traced else SETUP_REPS)
        self.base = BaseData(data)
        del data
        for tag in ("w", "b", "c", "o"):
            self.stream(tag)
        # Insert-only stream: the write-mix warm-up.
        self.stream("u", 1.0, 0.0)
        settle()
        t1 = time.perf_counter()
        asyncio.run(self.serve(index))
        t2 = time.perf_counter()
        objects = self.objects_of(index)
        index.close()
        files = [p for p in path.parent.iterdir() if p.is_file()]
        self.space_bytes_per_entry = sum(p.stat().st_size for p in files) / index.size

        oracle = Oracle(self.base.lo, self.base.hi)
        checked, failed, problems = self.check_responses(oracle)
        t3 = time.perf_counter()
        problems += self.reopen_and_validate(path, objects)
        attempted = len(self.records)
        t4 = time.perf_counter()
        self.notes.append(
            f"phase seconds: setup {t1 - t0:.1f}, serve {t2 - t1:.1f}, "
            f"check {t3 - t2:.1f}, reopen {t4 - t3:.1f}"
        )

        if self.traced:
            metrics = self.per_layer(problems)
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            spans = self.tracer.dump(trace_dir / f"{self.w.name}.json")
            self.notes.append(f"trace: {spans} spans -> {trace_dir / (self.w.name + '.json')}")
        else:
            metrics = self.end_to_end(attempted, failed)
            self.notes.append("samples: " + ", ".join(f"{k}={v}" for k, v in self.samples.items()))
            self.notes.append(
                f"host calibration: median {1000 * statistics.median(self.calibs):.2f} ms "
                f"(reference {1000 * CALIB_REF_S:.2f} ms, range {1000 * min(self.calibs):.2f}"
                f"-{1000 * max(self.calibs):.2f}); unscaled: "
                + ", ".join(f"{k} {v:.6g}" for k, v in self.raw.items())
            )
            if self.w.write_frac:
                verdict = self.levelling()
                level = self.level
                self.notes.append(
                    "levelling: per-write ms {:.3f} -> {:.3f}, blocks/insert {:.3f} -> {:.3f}".format(
                        *level["write_ms"], *level["blocks_per_insert"]
                    )
                )
                if verdict:
                    self.unsteady = f"write-mix not steady: {verdict}"
        self.notes.append(f"checked responses: {checked}")
        fingerprint = {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "benchmark": sources_digest(),
            "dataset": self.base.digest()[:16],
            "streams": hashlib.sha256(
                "".join(
                    stream_digest(self._fresh_stream(tag))
                    for tag in sorted(self.streams)
                ).encode()
            ).hexdigest()[:16],
            "kernel_backend": BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
        }
        self.fingerprint = fingerprint
        self.problems = problems
        return metrics, not problems, attempted, failed

    def _fresh_stream(self, tag):
        from workloads import RequestStream

        old = self.streams[tag]
        return RequestStream(
            self.w, self.base, old.seed, tag, old.write_frac, old.delete_share
        )

    def objects_of(self, index) -> dict:
        if self.w.shards > 1:
            objects = {}
            for shard in index.shards:
                objects.update(shard.objects)
            return objects
        return dict(index.objects)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        metrics, correct, attempted, failed = run.execute()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 3

    unsteady = run.unsteady is not None
    for name, (value, unit) in metrics.items():
        if unsteady and name in UNSTEADY_METRICS:
            print(f"{name:40s} {'not steady':>14s} ({value:.6g} {unit})")
        else:
            print(f"{name:40s} {value:14.6g} {unit}")
    for note in run.notes:
        print(note)
    if unsteady:
        print(run.unsteady)
    for problem in run.problems[:20]:
        print(f"PROBLEM: {problem}")
    if len(run.problems) > 20:
        print(f"PROBLEM: ... {len(run.problems) - 20} more")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")
    print("fingerprint " + json.dumps(run.fingerprint, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    # The saved copy (what compare.py reads) holds no number for a metric
    # of a write-mix window that was not steady.  The printed line keeps
    # every metric a number, as its consumers require.
    saved = dict(result, fingerprint=run.fingerprint, steady=not unsteady, unscaled=run.raw)
    if unsteady:
        saved["metrics"] = {
            name: {"value": None if name in UNSTEADY_METRICS else m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
