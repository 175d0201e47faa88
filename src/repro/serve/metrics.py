"""Request accounting for serving: raw counts in, ``/metrics`` out.

Every counter in :mod:`repro.serve` is a :class:`repro.trace.Counts` set of
raw totals.  The service counts request outcomes; the sample cache counts
lookups, the model registry counts loads, and the worker loop counts batch
sizes and the repair pass of each generation.  Nothing is derived where it
is counted: :func:`render` turns the raw sets into the ``cache``,
``batching``, ``repair`` and ``registry`` sections and computes
``hit_rate``, ``coalesced_fraction`` and ``acceptance_rate`` here only.  In
process mode every worker process ships its raw sets with each result, and
the parent sums the latest set of each live process and renders the sum
with the same function, so both modes report the same keys.

:class:`LatencyWindow` is the one piece that is not a counter: a
fixed-capacity ring of the most recent request latencies whose percentiles
are computed on demand, so its memory cost is O(capacity) no matter how
long the server runs.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "LatencyWindow",
    "REPAIR_COUNTS",
    "batching_section",
    "cache_section",
    "registry_section",
    "render",
    "repair_section",
]

#: The numeric repair counters kept per sampler, in ``/metrics`` order.
REPAIR_COUNTS = (
    "samples",
    "repair_s",
    "repair_isolated",
    "repair_drawn",
    "repair_proposals",
    "repair_accepted",
    "repair_fallback",
    "repair_rounds",
)

_CACHE_COUNTS = ("entries", "capacity", "hits", "misses", "evictions")
_LOAD_COUNTS = ("cold_loads", "warm_acquires", "evictions")


def _rate(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def cache_section(raw: Mapping) -> dict:
    """``raw``: the cache's gauges (``entries``, ``capacity``) and counts."""
    section = {name: raw.get(name, 0) for name in _CACHE_COUNTS}
    section["hit_rate"] = _rate(
        section["hits"], section["hits"] + section["misses"]
    )
    return section


def batching_section(sizes: Mapping[int, int], max_batch_size: int) -> dict:
    """``sizes``: the number of batches served at each batch size."""
    requests = sum(size * n for size, n in sizes.items())
    coalesced = sum(size * n for size, n in sizes.items() if size > 1)
    return {
        "max_batch_size": max_batch_size,
        "batches": sum(sizes.values()),
        "requests": requests,
        "coalesced_requests": coalesced,
        "coalesced_fraction": _rate(coalesced, requests),
        "histogram": {str(size): sizes[size] for size in sorted(sizes)},
    }


def repair_section(raw: Mapping[tuple[str, str], float]) -> dict:
    """``raw``: repair totals keyed by ``(sampler, counter)``."""
    by_sampler = {}
    for sampler in dict.fromkeys(sampler for sampler, __ in raw):
        bucket = {name: raw.get((sampler, name), 0) for name in REPAIR_COUNTS}
        bucket["repair_s"] = float(bucket["repair_s"])
        bucket["acceptance_rate"] = _rate(
            bucket["repair_accepted"], bucket["repair_proposals"]
        )
        by_sampler[sampler] = bucket
    return {"by_sampler": by_sampler}


def registry_section(raw: Mapping, registry) -> dict:
    """``raw``: resident models (``loaded``) and load counts; ``registry``
    supplies what the serving process itself knows about its models."""
    return {
        "models": len(registry.names()),
        "loaded": raw.get("loaded", 0),
        "max_loaded": registry.max_loaded,
        "rejected": len(registry.rejected),
        **{name: raw.get(name, 0) for name in _LOAD_COUNTS},
    }


def render(
    work: Mapping[str, Mapping], *, max_batch_size: int, registry
) -> dict:
    """The ``batching``, ``repair``, ``cache`` and ``registry`` sections.

    ``work`` maps each section name to its raw counts, as
    :meth:`GenerationService.work_counts` reports them (or their sum over
    worker processes, where a section no process has shipped yet reads as
    empty).
    """
    return {
        "batching": batching_section(work["batching"], max_batch_size),
        "repair": repair_section(work["repair"]),
        "cache": cache_section(work["cache"]),
        "registry": registry_section(work["registry"], registry),
    }


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
