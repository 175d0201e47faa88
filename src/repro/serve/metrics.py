"""Request accounting for the generation service.

Two small thread-safe primitives the service composes into its
``GET /metrics`` snapshot:

* :class:`LatencyWindow` — a fixed-capacity ring of the most recent request
  latencies; percentiles are computed over the window on demand, so the
  memory cost is O(capacity) no matter how long the server runs.
* :class:`Counters` — named monotonic counters behind one lock.

Everything here is stdlib + NumPy; the service itself decides *what* to
count, these classes only make the counting safe under the worker pool.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

import numpy as np

__all__ = ["BatchSizeHistogram", "Counters", "LatencyWindow", "RepairStats"]


class BatchSizeHistogram:
    """Micro-batch size accounting for the coalescing worker loop.

    One ``observe(size)`` per fulfilled batch; the snapshot reports the
    full size histogram plus the *coalesced-request fraction* — the share
    of batch-served requests that rode in a batch of two or more, i.e. the
    fraction of work the coalescer actually amortised.
    """

    def __init__(self) -> None:
        self._sizes: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, size: int) -> None:
        if size < 1:
            raise ValueError("batch size must be >= 1")
        with self._lock:
            self._sizes[size] = self._sizes.get(size, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            sizes = dict(self._sizes)
        batches = sum(sizes.values())
        requests = sum(size * count for size, count in sizes.items())
        coalesced = sum(
            size * count for size, count in sizes.items() if size > 1
        )
        return {
            "batches": batches,
            "requests": requests,
            "coalesced_requests": coalesced,
            "coalesced_fraction": coalesced / requests if requests else 0.0,
            "histogram": {
                str(size): sizes[size] for size in sorted(sizes)
            },
        }


class RepairStats:
    """Accumulator for isolated-node repair accounting across requests.

    Workers run each batch inside :func:`repro.trace.counting` and feed
    the counter set here: generated ``samples``, repair wall-clock,
    isolated counts and rejection-sampler proposal/acceptance totals.
    Counter sets without a ``repair_sampler`` label (no repair pass ran)
    are skipped.  The snapshot splits totals per sampler so a mixed
    dense/factored workload stays legible, and derives the factored
    acceptance rate from the raw counts.
    """

    _NUMERIC = (
        "samples",
        "repair_s",
        "repair_isolated",
        "repair_drawn",
        "repair_proposals",
        "repair_accepted",
        "repair_fallback",
        "repair_rounds",
    )

    def __init__(self) -> None:
        self._by_sampler: dict[str, dict[str, float]] = {}
        self._lock = threading.Lock()

    def observe(self, counts: Mapping[str, object]) -> None:
        """Fold one batch's counter set into the totals."""
        sampler = counts.get("repair_sampler")
        if sampler is None:
            return
        with self._lock:
            bucket = self._by_sampler.setdefault(
                sampler, {name: 0 for name in self._NUMERIC}
            )
            for name in self._NUMERIC:
                bucket[name] += counts.get(name, 0)

    def snapshot(self) -> dict:
        with self._lock:
            by_sampler = {
                sampler: dict(bucket)
                for sampler, bucket in self._by_sampler.items()
            }
        for bucket in by_sampler.values():
            proposals = bucket.get("repair_proposals", 0)
            bucket["acceptance_rate"] = (
                bucket.get("repair_accepted", 0) / proposals
                if proposals
                else 0.0
            )
            bucket["repair_s"] = float(bucket["repair_s"])
        return {"by_sampler": by_sampler}


class LatencyWindow:
    """Ring buffer over the last ``capacity`` observed latencies (seconds).

    ``percentiles`` reports over whatever the window currently holds — a
    deliberately *recent* view, so a long-running server's p99 reflects the
    current load, not its whole lifetime.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._values = np.zeros(capacity)
        self._next = 0
        self._count = 0  # total observations ever (window fill = min(count, cap))
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._values[self._next] = seconds
            self._next = (self._next + 1) % self._values.size
            self._count += 1

    def window(self) -> np.ndarray:
        """A copy of the currently-held latencies (unordered)."""
        with self._lock:
            filled = min(self._count, self._values.size)
            return self._values[:filled].copy()

    def percentiles(
        self, qs: Iterable[float] = (50.0, 95.0, 99.0)
    ) -> dict[str, float]:
        """``{"p50_s": ..., ...}`` plus count and mean over the window."""
        values = self.window()
        out: dict[str, float] = {"count": int(self._count)}
        if values.size == 0:
            out["mean_s"] = 0.0
            out.update({f"p{q:g}_s": 0.0 for q in qs})
            return out
        out["mean_s"] = float(values.mean())
        for q, value in zip(qs, np.percentile(values, list(qs))):
            out[f"p{q:g}_s"] = float(value)
        return out


class Counters:
    """Named monotonic counters behind a single lock."""

    def __init__(self, names: Iterable[str]) -> None:
        self._counts = {name: 0 for name in names}
        self._lock = threading.Lock()

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> Mapping[str, int]:
        with self._lock:
            return dict(self._counts)
