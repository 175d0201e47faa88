"""Ref-counted registry of fitted models loaded from ``save_model`` archives.

The registry is the service's source of truth for *which* models exist and
keeps the hot ones warm in memory:

* ``register`` / ``discover`` validate an archive's metadata blob up front
  (a corrupt, truncated, or checkpoint-kind file is rejected with a typed
  :class:`~repro.core.CheckpointError` — never a raw ``KeyError`` mid-
  request) and record per-model metadata without touching the parameter
  arrays.
* ``acquire`` / ``release`` (or the ``lease`` context manager) ref-count
  in-memory models.  A cold acquire loads the archive; once more than
  ``max_loaded`` models are resident, the least-recently-used model with a
  zero refcount is evicted.  A model that is mid-generate (refs > 0) is
  never evicted under a worker's feet.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ..core import CPGAN, CheckpointError, load_model, read_archive_meta
from ..trace import Counts
from .metrics import registry_section

__all__ = ["ModelRegistry"]


@dataclass
class _Entry:
    name: str
    path: Path
    meta: dict
    model: CPGAN | None = None
    refs: int = 0
    last_used: int = 0
    size_bytes: int = 0

    def describe(self) -> dict:
        config = self.meta.get("config", {})
        return {
            "name": self.name,
            "path": str(self.path),
            "nodes": self.meta.get("num_nodes"),
            "edges": self.meta.get("num_edges"),
            "levels": self.meta.get("num_levels"),
            "generation_mode": config.get("generation_mode"),
            "generation_dtype": config.get("generation_dtype"),
            "repair_sampler": config.get("repair_sampler"),
            "hier_level": config.get("hier_level"),
            "hier_workers": config.get("hier_workers"),
            "latent_source": config.get("latent_source"),
            "assembly_strategy": config.get("assembly_strategy"),
            "provenance": self.meta.get("provenance"),
            "archive_bytes": self.size_bytes,
            "loaded": self.model is not None,
            "refs": self.refs,
        }


class ModelRegistry:
    """Named fitted models with warm in-memory residency and LRU eviction."""

    def __init__(self, max_loaded: int = 4) -> None:
        if max_loaded < 1:
            raise ValueError("max_loaded must be >= 1")
        self.max_loaded = max_loaded
        self._entries: dict[str, _Entry] = {}
        #: path -> reason for every archive ``discover`` refused to register.
        self.rejected: dict[str, str] = {}
        self._lock = threading.RLock()
        self._tick = 0
        self._counts = Counts()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, path: str | Path) -> dict:
        """Validate ``path`` and register it as ``name``; returns metadata.

        Raises :class:`CheckpointError` for an invalid archive (including a
        training checkpoint, which is not a servable model) and
        ``FileNotFoundError`` for a missing one.  Re-registering an existing
        name replaces it (the old in-memory model is dropped).
        """
        path = Path(path)
        meta = read_archive_meta(path)
        if meta.get("kind") == "training_checkpoint":
            raise CheckpointError(
                f"{path} is a mid-training checkpoint, not a servable model"
            )
        if "num_nodes" not in meta or "config" not in meta:
            raise CheckpointError(
                f"{path} metadata is missing required model fields"
            )
        entry = _Entry(
            name=name,
            path=path,
            meta=meta,
            size_bytes=path.stat().st_size,
        )
        with self._lock:
            self._entries[name] = entry
        return entry.describe()

    def discover(self, directory: str | Path, pattern: str = "*.npz") -> list[str]:
        """Register every valid archive under ``directory`` (name = stem).

        Invalid files are skipped, with the reason recorded in
        :attr:`rejected` — one bad file must not take the service down.
        """
        registered = []
        for path in sorted(Path(directory).glob(pattern)):
            try:
                self.register(path.stem, path)
                registered.append(path.stem)
            except (CheckpointError, FileNotFoundError) as exc:
                self.rejected[str(path)] = str(exc)
        return registered

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def describe(self, name: str) -> dict:
        with self._lock:
            return self._entry(name).describe()

    def describe_all(self) -> list[dict]:
        with self._lock:
            return [
                self._entries[name].describe()
                for name in sorted(self._entries)
            ]

    def _entry(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(f"unknown model {name!r}")
        return entry

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------
    def acquire(self, name: str) -> CPGAN:
        """Pin ``name`` in memory (loading it if cold) and return the model.

        Every ``acquire`` must be paired with a :meth:`release`; prefer the
        :meth:`lease` context manager.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.model is None:
                # Loading under the registry lock serialises cold loads —
                # deliberate: two workers racing to load the same archive
                # would double both the IO and the resident memory.
                entry.model = load_model(entry.path)
                self._counts.add({"cold_loads": 1})
            else:
                self._counts.add({"warm_acquires": 1})
            entry.refs += 1
            self._tick += 1
            entry.last_used = self._tick
            self._evict_over_budget()
            return entry.model

    def release(self, name: str) -> None:
        with self._lock:
            entry = self._entry(name)
            if entry.refs <= 0:
                raise RuntimeError(f"release of unacquired model {name!r}")
            entry.refs -= 1
            self._evict_over_budget()

    @contextmanager
    def lease(self, name: str):
        model = self.acquire(name)
        try:
            yield model
        finally:
            self.release(name)

    def prefetch(self, names: list[str] | None = None) -> list[str]:
        """Warm up to ``max_loaded`` models so requests skip the cold load.

        The serving tier runs this on a background thread at start (and
        worker processes run it at spawn), keeping archive IO off the
        request path.  Models that fail to load are skipped — they fail
        with full context when actually requested.
        """
        targets = list(names) if names is not None else list(self.names())
        warmed = []
        for name in targets[: self.max_loaded]:
            try:
                with self.lease(name):
                    pass
            except Exception:
                continue
            warmed.append(name)
        return warmed

    def archives(self) -> dict[str, Path]:
        """``{name: archive path}`` for every registered model."""
        with self._lock:
            return {name: e.path for name, e in self._entries.items()}

    def _evict_over_budget(self) -> None:
        """Drop LRU zero-ref models until at most ``max_loaded`` are warm."""
        loaded = [e for e in self._entries.values() if e.model is not None]
        if len(loaded) <= self.max_loaded:
            return
        evictable = sorted(
            (e for e in loaded if e.refs == 0), key=lambda e: e.last_used
        )
        for entry in evictable[: len(loaded) - self.max_loaded]:
            entry.model = None
            self._counts.add({"evictions": 1})

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        """Raw counts: ``cold_loads``, ``warm_acquires``, ``evictions`` and
        the ``loaded`` gauge (models resident now)."""
        with self._lock:
            loaded = sum(
                1 for e in self._entries.values() if e.model is not None
            )
            return {"loaded": loaded, **self._counts}

    def stats(self) -> dict:
        return registry_section(self.counts(), self)
