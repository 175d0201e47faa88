"""LRU cache of generated graphs keyed by ``(model, seed, params)``.

Generation is deterministic given the model and the request seed (see
``CPGAN.generate``), so a repeated request *must* produce a bit-identical
graph — which makes generated samples perfectly cacheable.  The cache is a
plain ordered-dict LRU behind one lock that counts hits, misses and
evictions into a :class:`~repro.trace.Counts` set; entries are whole
:class:`~repro.graphs.Graph` objects (CSR adjacency, O(m) memory), evicted
least-recently-used once ``capacity`` is reached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Mapping

from ..graphs import Graph
from ..trace import Counts
from .metrics import cache_section

__all__ = ["SampleCache", "cache_key"]


def cache_key(
    model: str,
    seed: int,
    num_nodes: int | None,
    params: Mapping[str, object] | None = None,
) -> tuple:
    """Canonical hashable key: parameter order never matters."""
    items = tuple(sorted((params or {}).items()))
    return (model, int(seed), num_nodes, items)


def _freeze(graph: Graph) -> Graph:
    """Make ``graph``'s backing arrays read-only, in place.

    Cache hits hand every caller the *same* ``Graph`` object; a caller
    mutating its CSR arrays would silently corrupt all later responses for
    that key.  ``Graph`` is documented immutable, so enforcing it here
    turns that corruption into an immediate ``ValueError`` at the mutation
    site instead.
    """
    adjacency = graph.adjacency
    for array in (adjacency.data, adjacency.indices, adjacency.indptr,
                  graph.degrees):
        array.flags.writeable = False
    return graph


class SampleCache:
    """Thread-safe LRU of generated graphs with hit/miss accounting.

    ``capacity=0`` disables caching (every ``get`` is a miss, ``put`` is a
    no-op) — useful for load tests that must exercise the full pipeline.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Graph] = OrderedDict()
        self._lock = threading.Lock()
        self._counts = Counts()

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Graph | None:
        with self._lock:
            graph = self._entries.get(key)
            if graph is None:
                self._counts.add({"misses": 1})
                return None
            self._entries.move_to_end(key)
            self._counts.add({"hits": 1})
            return graph

    def put(self, key: Hashable, graph: Graph) -> None:
        if self.capacity == 0:
            return
        _freeze(graph)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = graph
                return
            self._entries[key] = graph
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._counts.add({"evictions": 1})

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        """Raw counts: ``hits``, ``misses``, ``evictions`` and the
        ``entries``/``capacity`` gauges."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                **self._counts,
            }

    def stats(self) -> dict:
        return cache_section(self.counts())
