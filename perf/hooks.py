"""Span tracing of ``repro`` from the outside, for the benchmark's traced runs.

Every hook is one row of :data:`HOOKS`: ``(module, attribute, span)``.
Installing a hook replaces the public name at its call site (the module
attribute the caller looks up, or the method on its class) with a wrapper
that records a span around each call; uninstalling puts the original
object back.  Nothing in ``src/`` knows about the spans, so refactors
that keep these public names keep the benchmark working, and a renamed or
removed target fails the traced run by name instead of going silently
untraced.

A span is ``(name, start, end, parent, pid)`` on the system-wide
monotonic clock, so spans from forked server workers line up with the
load generator's timestamps.  A layer's self time is its spans' durations
minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "HOOKS",
    "PROBE_SPAN",
    "HookError",
    "Tracer",
    "install",
    "installed",
    "uninstall",
    "load_jsonl_spans",
    "self_times",
]

#: (module, attribute, span).  The module is where the *caller* looks the
#: name up, so ``repro.hier.pipeline.topk_pair_candidates`` traces the
#: per-community kernel calls and ``repro.core.model.topk_pair_candidates``
#: the flat ones, although both are the same function.
HOOKS: tuple[tuple[str, str, str], ...] = (
    # generation
    ("repro.core.model", "CPGAN.generate_to_file", "core.model"),
    ("repro.core.model", "CPGAN.generate_batch", "core.model"),
    ("repro.core.variational", "LatentDistributions.sample", "core.variational.sample"),
    ("repro.core.decoder", "GraphDecoder.edge_features_numpy", "core.decoder.features"),
    ("repro.core.model", "topk_pair_candidates", "core.decoder.topk"),
    ("repro.core.model", "topk_pair_candidates_batch", "core.decoder.topk"),
    ("repro.core.model", "select_edges_sparse", "graphs.assembly.select"),
    ("repro.core.model", "assemble_graph_sparse", "graphs.assembly.select"),
    ("repro.hier.pipeline", "plan_partition", "hier.planner.plan"),
    ("repro.hier.pipeline", "sample_supergraph", "hier.supergraph.sample"),
    ("repro.hier.pipeline", "topk_pair_candidates", "hier.topk"),
    ("repro.hier.pipeline", "select_edges_sparse", "hier.select"),
    ("repro.hier.pipeline", "sample_cross_edges", "hier.stitch.cross"),
    ("repro.hier.pipeline", "louvain", "community.louvain"),
    ("repro.graphs.io", "EdgeShardWriter.write", "graphs.io.write"),
    ("repro.graphs.io", "EdgeShardWriter.close", "graphs.io.write"),
    # training
    ("repro.core.encoder", "LadderEncoder.forward", "core.encoder.forward"),
    ("repro.core.variational", "VariationalInference.forward", "core.variational.forward"),
    ("repro.core.decoder", "GraphDecoder.node_features", "core.decoder.forward"),
    ("repro.core.decoder", "GraphDecoder.edge_logits", "core.decoder.forward"),
    ("repro.core.decoder", "GraphDecoder.forward", "core.decoder.forward"),
    ("repro.core.discriminator", "Discriminator.forward", "core.discriminator.forward"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "Adam.step", "nn.optim.step"),
)

#: Work the harness itself does inside a traced call (re-running a
#: selection to price its repair pass).  It is a child span, so it is
#: subtracted from its parent's self time, and it is left out of every
#: layer total and of the traced end-to-end time.
PROBE_SPAN = "trace.probe"


class HookError(RuntimeError):
    """A hook's target does not exist (renamed, moved or removed)."""


class Tracer:
    """In-memory span recorder; thread-aware, fork-aware.

    With ``jsonl_dir`` every finished span is also appended to
    ``spans-<pid>.jsonl`` there at once: forked server workers leave
    through ``os._exit``, which skips any write-at-exit.
    """

    def __init__(self, jsonl_dir: str | Path | None = None) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._jsonl_dir = Path(jsonl_dir) if jsonl_dir is not None else None
        self._sink = None
        self._sink_pid = None
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": stack[-1]["id"] if stack else 0,
            "pid": os.getpid(),
        }
        stack.append(span)
        return span

    def exit(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
            if self._jsonl_dir is not None:
                self._write_line(span)

    def _write_line(self, span: dict) -> None:
        pid = os.getpid()
        if self._sink is None or self._sink_pid != pid:
            # A forked child inherits the parent's handle; open its own.
            self._sink = open(self._jsonl_dir / f"spans-{pid}.jsonl", "a")
            self._sink_pid = pid
        self._sink.write(json.dumps(span) + "\n")
        self._sink.flush()

    @contextmanager
    def span(self, name: str):
        """Record one harness-level span around a ``with`` block."""
        record = self.enter(name)
        try:
            yield record
        finally:
            self.exit(record)


def _resolve(module_name: str, attribute: str):
    """``(owner, name, original)`` for one hook, or :class:`HookError`."""
    label = f"{module_name}:{attribute}"
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookError(f"hook {label}: cannot import {module_name} ({exc})") from exc
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"hook {label}: {part} not found")
    original = vars(owner).get(name)
    if not callable(original):
        raise HookError(f"hook {label}: target not found")
    return owner, name, original


def _wrap(tracer: Tracer, name: str, original, probe):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(span)
        if probe is not None:
            with tracer.span(PROBE_SPAN):
                probe(original, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, hooks=HOOKS, probes: dict | None = None) -> list:
    """Install every hook; returns the handle :func:`uninstall` takes.

    ``probes`` maps a span name to ``probe(original, args, kwargs,
    result)``, run after each call of that span under :data:`PROBE_SPAN`.
    All targets are resolved before any is replaced, so a missing one
    leaves the program untouched.
    """
    probes = probes or {}
    resolved = [
        (*_resolve(module_name, attribute), span)
        for module_name, attribute, span in hooks
    ]
    installed = []
    for owner, name, original, span in resolved:
        setattr(owner, name, _wrap(tracer, span, original, probes.get(span)))
        installed.append((owner, name, original))
    return installed


def uninstall(installed: list) -> None:
    """Put back the original objects :func:`install` replaced."""
    for owner, name, original in reversed(installed):
        setattr(owner, name, original)
    installed.clear()


@contextmanager
def installed(tracer: Tracer, hooks=HOOKS, probes: dict | None = None):
    """:func:`install` for the duration of a ``with`` block."""
    handle = install(tracer, hooks, probes)
    try:
        yield
    finally:
        uninstall(handle)


def load_jsonl_spans(directory: str | Path) -> list[dict]:
    """Every span the per-pid JSONL sinks under ``directory`` hold."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open() as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name (duration minus direct children)."""
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"]:
            child_time[(span["pid"], span["parent"])] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span["end"] - span["start"] - child_time[(span["pid"], span["id"])]
        totals[span["name"]] += own
    return dict(totals)
