"""Ambient counters for generation telemetry.

Code that has something to report calls :func:`count`; whoever wants the
numbers wraps the work in :func:`counting`::

    with counting() as counts:
        model.generate(seed=1)
    counts["repair_isolated"], counts["repair_sampler"]

Numbers add up; strings are labels, where the last write wins.  With no
``counting()`` block open, ``count()`` costs one ``ContextVar`` lookup.
The active counter set lives in a :class:`~contextvars.ContextVar`, so
concurrent threads each count into their own block; a pool that submits
through ``contextvars.copy_context().run`` carries the caller's block into
its worker threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["Counts", "count", "counting"]


class Counts(dict):
    """One counter set: a plain dict of totals, safe to add to from threads."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def add(self, values: dict) -> None:
        with self._lock:
            for key, value in values.items():
                if not isinstance(value, str):
                    value += self.get(key, 0)
                self[key] = value

    def snapshot(self) -> dict:
        """A plain-dict copy, consistent while other threads add."""
        with self._lock:
            return dict(self)


_ACTIVE: ContextVar[Counts | None] = ContextVar("repro_counts", default=None)


@contextmanager
def counting() -> Iterator[Counts]:
    """Open a counter set for the ``with`` block and yield it."""
    counts = Counts()
    token = _ACTIVE.set(counts)
    try:
        yield counts
    finally:
        _ACTIVE.reset(token)


def count(**values: int | float | str) -> None:
    """Add ``values`` to the innermost open counter set, if there is one."""
    counts = _ACTIVE.get()
    if counts is not None:
        counts.add(values)
