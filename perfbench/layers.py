"""Outside-in per-layer tracing: wrappers around each layer's entry points.

Nothing here changes the program.  For the traced window only,
:class:`Tracer.install` replaces each entry point listed in
:data:`ENTRY_POINTS` with a wrapper that records one span per call on a
per-thread stack: name, parent span, start, duration and self time
(duration minus the time covered by the wrapped calls it made).  Spans
stay in memory until :meth:`Tracer.dump` writes them out as Chrome
trace events after the run.  :meth:`Tracer.uninstall` restores the
original attributes.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass

ALL = frozenset({"read-hot", "read-spill", "write-mix"})
WRITES = frozenset({"write-mix"})
SPILL = frozenset({"read-spill"})


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped function and where it is expected to do work.

    ``expect`` names the workloads whose traced window must record at
    least one call (a renamed or bypassed entry point then fails the
    run instead of reading as zero cost); with ``exclusive`` the other
    workloads must record none.
    """

    module: str
    attr: str  # "Class.method" or "function"
    expect: frozenset = frozenset()
    exclusive: bool = False


ENTRY_POINTS = (
    EntryPoint("repro.server.server", "QueryServer.submit", ALL),
    EntryPoint("repro.geometry.kernels", "frame_intersecting", ALL),
    EntryPoint("repro.geometry.kernels", "frame_containing_point", ALL),
    EntryPoint("repro.geometry.kernels", "frame_contained_in", ALL),
    EntryPoint("repro.geometry.kernels", "frame_count_intersecting", ALL),
    EntryPoint("repro.geometry.kernels", "frame_dist_sq_to_point", ALL),
    EntryPoint("repro.geometry.kernels", "frame_dist_sq_to_rect"),
    EntryPoint("repro.geometry.kernels", "frame_enlargement"),
    EntryPoint("repro.geometry.kernels", "frame_mbr"),
    EntryPoint("repro.geometry.kernels", "frame_pair_mask"),
    EntryPoint("repro.storage.paged", "PagedNodeStore.read", ALL),
    EntryPoint("repro.storage.paged", "PagedNodeStore.sync", WRITES, True),
    EntryPoint("repro.iomodel.codec", "NodeCodec.decode_arrays", SPILL),
    EntryPoint("repro.storage.filestore", "FileBlockStore.peek", SPILL),
    EntryPoint("repro.storage.filestore", "FileBlockStore.flush", WRITES, True),
    # The single funnel of physical writes; wrapped to count bytes.
    EntryPoint("repro.storage.filestore", "FileBlockStore._pwrite", WRITES, True),
    EntryPoint("repro.storage.shard", "ShardedTree.shard_mbr", WRITES, True),
    EntryPoint("repro.storage.paged", "PagedTree.insert", WRITES, True),
    EntryPoint("repro.storage.paged", "PagedTree.delete", WRITES, True),
)


def _observe_submit(counts: dict, args, report) -> None:
    counts["server.reads"] = counts.get("server.reads", 0) + report.requests - report.writes
    counts["server.dedup_hits"] = counts.get("server.dedup_hits", 0) + report.dedup_hits


def _observe_pwrite(counts: dict, args, _result) -> None:
    counts["filestore.bytes_written"] = counts.get("filestore.bytes_written", 0) + len(args[2])


OBSERVERS = {
    "QueryServer.submit": _observe_submit,
    "FileBlockStore._pwrite": _observe_pwrite,
}


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "next_id", "tid")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, child seconds]
        self.spans: list[tuple] = []  # (id, parent, name, start, dur, self)
        self.counts: dict[str, int] = {}
        self.next_id = 0
        self.tid = threading.get_ident()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._saved: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, name: str, fn, observe):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [state.next_id, 0.0]
            state.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                state.spans.append(
                    (frame[0], parent[0] if parent else -1, name, start, dur, dur - frame[1])
                )
            if observe is not None:
                observe(state.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point; raises if one no longer exists."""
        for ep in ENTRY_POINTS:
            owner = importlib.import_module(ep.module)
            *path, attr = ep.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(ep.attr, original, OBSERVERS.get(ep.attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def totals(self) -> tuple[dict[str, list], dict[str, int]]:
        """Per entry point ``[calls, seconds, self seconds]``, and counts."""
        per: dict[str, list] = {ep.attr: [0, 0.0, 0.0] for ep in ENTRY_POINTS}
        counts: dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for _, _, name, _, dur, self_s in state.spans:
                acc = per[name]
                acc[0] += 1
                acc[1] += dur
                acc[2] += self_s
            for key, n in state.counts.items():
                counts[key] = counts.get(key, 0) + n
        return per, counts

    def hygiene(self, workload: str, per: dict[str, list]) -> list[str]:
        """Entry points whose call count contradicts the workload design."""
        problems = []
        for ep in ENTRY_POINTS:
            calls = per[ep.attr][0]
            if workload in ep.expect and calls == 0:
                problems.append(f"{ep.attr}: no calls on {workload}")
            if ep.exclusive and workload not in ep.expect and calls:
                problems.append(f"{ep.attr}: {calls} calls on {workload}")
        return problems

    def dump(self, path) -> int:
        """Write every span as a Chrome trace event; returns the count."""
        with self._lock:
            threads = list(self._threads)
        origin = min(
            (s[3] for state in threads for s in state.spans), default=0.0
        )
        n = 0
        with open(path, "w") as out:
            out.write("[\n")
            for state in threads:
                for span_id, parent, name, start, dur, self_s in state.spans:
                    if n:
                        out.write(",\n")
                    out.write(json.dumps({
                        "name": name, "ph": "X", "pid": 1, "tid": state.tid,
                        "ts": round((start - origin) * 1e6, 3),
                        "dur": round(dur * 1e6, 3),
                        "args": {"id": span_id, "parent": parent,
                                 "self_us": round(self_s * 1e6, 3)},
                    }))
                    n += 1
            out.write("\n]\n")
        return n
