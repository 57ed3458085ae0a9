"""Brute-force answers, independent of the program under test.

Every read is answered by a vectorised scan over the base rectangles
(closed-box predicates, the program's documented semantics) and kNN by
exact distances to every base rectangle.  Rectangles a write stream
inserted are checked separately: the stream knows their exact
coordinates, and base data is never deleted.
"""

from __future__ import annotations

import numpy as np


def _mask(query: tuple, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Rows of ``lo``/``hi`` that satisfy a read query's predicate."""
    kind = query[0]
    if kind == "point":
        p = np.asarray(query[1], dtype=np.float64)
        return ((lo <= p) & (hi >= p)).all(axis=1)
    q_lo = np.asarray(query[1], dtype=np.float64)
    q_hi = np.asarray(query[2], dtype=np.float64)
    if kind == "containment":
        return ((lo >= q_lo) & (hi <= q_hi)).all(axis=1)
    return ((hi >= q_lo) & (lo <= q_hi)).all(axis=1)


def _distances(point, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact MINDIST from a point to every row: per-axis gap, squared,
    summed, square root."""
    p = np.asarray(point, dtype=np.float64)
    d = np.maximum(lo - p, 0.0) + np.maximum(p - hi, 0.0)
    return np.sqrt((d * d).sum(axis=1))


class Inserted:
    """Every rectangle the write streams inserted, by value."""

    def __init__(self, boxes: dict[str, tuple]) -> None:
        self.boxes = boxes
        rows = list(boxes.values())
        self.lo = np.array([lo for lo, _ in rows], dtype=np.float64).reshape(-1, 2)
        self.hi = np.array([hi for _, hi in rows], dtype=np.float64).reshape(-1, 2)


class Oracle:
    """Answers over the base rectangles.

    Rows are kept sorted by their low x so each scan can start from the
    slab of rows whose x-extent can reach the query (any row within
    distance r of x has low x in [x - r - widest, x + r]); inside the
    slab every row is tested.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.order = np.argsort(lo[:, 0], kind="stable")
        self.lo = lo[self.order]
        self.hi = hi[self.order]
        self.lo_x = self.lo[:, 0]
        self.widest = float((hi[:, 0] - lo[:, 0]).max())
        self.rows_lo = lo
        self.rows_hi = hi
        self._ids: dict = {}

    def _slab(self, x_lo: float, x_hi: float) -> slice:
        return slice(
            int(np.searchsorted(self.lo_x, x_lo - self.widest, side="left")),
            int(np.searchsorted(self.lo_x, x_hi, side="right")),
        )

    def ids(self, query: tuple) -> list[int]:
        """Sorted base ids answering a window/containment/point/count."""
        ids = self._ids.get(query)
        if ids is None:
            if query[0] == "point":
                x_lo = x_hi = query[1][0]
            else:
                x_lo, x_hi = query[1][0], query[2][0]
            s = self._slab(x_lo, x_hi)
            ids = sorted(self.order[s][_mask(query, self.lo[s], self.hi[s])].tolist())
            self._ids[query] = ids
        return ids

    def nearest(self, point, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(ids, distances) of every row within ``radius`` of ``point``,
        and possibly some farther ones."""
        s = self._slab(point[0] - radius, point[0] + radius)
        return self.order[s], _distances(point, self.lo[s], self.hi[s])

    def check(self, query: tuple, answer, inserted: Inserted | None) -> str | None:
        """Return None when ``answer`` answers ``query`` correctly, else
        a reason.

        ``query`` and ``answer`` are the plain tuples the benchmark keeps
        of a request and its response (see ``run.describe`` and
        ``run.compact``): ``(kind, lo, hi)``, ``("point", p)`` or
        ``("knn", p, k)``; the returned values for window, containment
        and point, the count, or ``(distances, values)`` for kNN.  ``inserted`` is None when no writes ran: then the answer
        must equal the base answer exactly.  Otherwise the base part must
        still match exactly and every inserted rectangle returned must
        satisfy the query (whether it was live at that moment depends on
        the interleaving, so only its geometry is checked).
        """
        kind = query[0]
        if kind == "knn":
            return self._check_knn(query, *answer, inserted)
        base = self.ids(query)
        if kind == "count":
            extra = 0
            if inserted is not None and len(inserted.boxes):
                extra = int(_mask(query, inserted.lo, inserted.hi).sum())
            if len(base) <= answer <= len(base) + extra:
                return None
            return f"count {answer} outside [{len(base)}, {len(base) + extra}]"
        ids = []
        for v in answer:
            if isinstance(v, int):
                ids.append(v)
                continue
            if inserted is None or v not in inserted.boxes:
                return f"unknown value {v!r}"
            lo, hi = inserted.boxes[v]
            box_lo = np.asarray([lo], dtype=np.float64)
            box_hi = np.asarray([hi], dtype=np.float64)
            if not _mask(query, box_lo, box_hi)[0]:
                return f"inserted {v!r} does not satisfy the query"
        ids.sort()
        if ids != base:
            return f"{len(ids)} base results, oracle has {len(base)}"
        return None

    def _check_knn(self, query, got, values, inserted) -> str | None:
        _, target, k = query
        if len(got) != min(k, len(self.lo)):
            return f"{len(got)} neighbours for k={k}"
        if list(got) != sorted(got):
            return "neighbours not in distance order"
        base_ids = set()
        for distance, v in zip(got, values):
            if isinstance(v, int):
                base_ids.add(v)
                lo, hi = self.rows_lo[v : v + 1], self.rows_hi[v : v + 1]
            else:
                if inserted is None or v not in inserted.boxes:
                    return f"unknown value {v!r}"
                lo, hi = (np.asarray([c], dtype=np.float64) for c in inserted.boxes[v])
            true = _distances(target, lo, hi)[0]
            if true != distance:
                return f"{v!r} reported at {distance}, true {true}"
        if inserted is None:
            # Exact: the k distances are the k smallest (ties anywhere).
            # Widen the slab until it holds k rows within its radius.
            radius = max(got[-1], 1e-3)
            while True:
                _, dist = self.nearest(target, radius)
                if (dist <= radius).sum() >= k or len(dist) == len(self.lo):
                    break
                radius *= 2
            smallest = np.sort(np.partition(dist, k - 1)[:k])
            if not np.array_equal(np.asarray(got), smallest):
                return "kNN distances differ from the k smallest"
            return None
        # With inserts: every base rectangle strictly closer than the
        # farthest neighbour returned must be among the neighbours.
        ids, dist = self.nearest(target, got[-1])
        missing = set(ids[dist < got[-1]].tolist()) - base_ids
        if missing:
            return f"base rectangles {sorted(missing)[:3]} closer than the k-th"
        return None
