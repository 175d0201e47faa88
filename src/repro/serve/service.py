"""The concurrent generation service: worker pool, bounded queue, cache.

Request lifecycle::

    submit(request)
      ├─ validate (model registered, params allowed)
      ├─ sample-cache lookup ── hit ──> resolved immediately (no queue)
      └─ queue.put_nowait ──── full ──> Overloaded(retry_after_s)   [backpressure]
                     │
              worker thread pool (``workers`` threads)
                     │  drop requests past their deadline ──> RequestExpired
                     │  drain the queue opportunistically: coalesce pending
                     │  requests that share (model, num_nodes, params) into
                     │  a micro-batch of ≤ ``max_batch_size`` seeds
                     │  lease model from the registry
                     │  generate_batch with a per-batch config snapshot,
                     │  counted by repro.trace.counting() for /metrics
                     └─ resolve each pending from its slice, fill the cache

**Micro-batching.**  A worker that picks up a request keeps draining the
queue *without waiting* (``get_nowait``) while the next request coalesces
with it — same model, node count and params, only the seed differing — up
to ``max_batch_size``.  The batch runs through ``CPGAN.generate_batch``,
which amortises one decoder block sweep across all seeds; each seed's
graph is still bit-identical to a solo ``generate`` call, so coalescing is
invisible to clients and to the sample cache.  A shallow queue therefore
pays zero added latency (a batch of one is ``generate_batch((seed,))``,
which is what a solo ``generate`` runs), and ``max_batch_size=1``
disables coalescing outright.  The first
non-matching request a worker drains is carried over as its next unit of
work, never re-queued, so FIFO order bends only within a batch (whose
members resolve together anyway).

**Determinism.**  A request's graph depends only on
``(model, seed, num_nodes, params)``: ``CPGAN.generate`` derives every
random draw from the request seed through a fresh PCG64 stream
(``np.random.default_rng(seed)``), and per-request parameter overrides are
applied to a private config snapshot (``CPGAN.generation_config``) rather
than shared model state.  The same request therefore yields a bit-identical
graph no matter which worker runs it, how many workers exist, or what runs
concurrently — which is also what makes the sample cache sound.

**Backpressure.**  The request queue is bounded; when it is full ``submit``
fails *immediately* with :class:`Overloaded` carrying a ``retry_after_s``
hint instead of blocking the caller indefinitely.  The HTTP layer maps this
to ``503`` + ``Retry-After``.  Once :meth:`GenerationService.stop` begins,
``submit`` fails with :class:`ServiceStopping` (also a 503) so a drain is
bounded by the backlog at shutdown time.

**Process mode.**  With ``worker_processes > 0`` the worker pool is a pool
of *processes* instead of threads (see :mod:`repro.serve.procpool`): each
worker process runs this same service with one worker thread, its own warm
models and its own sample cache, and ``(model, seed)`` keys route to
processes by rendezvous hash so repeats stay cache-hot.  Everything
outside NumPy kernels — repair, assembly, cache bookkeeping, JSON — then
escapes the GIL.  Bit-identity is unchanged: the same request returns the
same graph no matter which process serves it.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, get_type_hints

from ..core import CPGANConfig
from ..graphs import Graph
from ..trace import counting
from .cache import SampleCache, cache_key
from .metrics import BatchSizeHistogram, Counters, LatencyWindow, RepairStats
from .registry import ModelRegistry

__all__ = [
    "ALLOWED_PARAMS",
    "GenerationRequest",
    "GenerationResult",
    "GenerationService",
    "Overloaded",
    "RequestExpired",
    "ServiceStopping",
    "autosize_serving",
]


def autosize_serving(cpu_count: int | None = None) -> dict[str, int]:
    """Host-derived defaults for the serving execution tier.

    Heuristic: on a multi-core host the pool is sized as one worker
    *process* per core (capped at 8) so generation escapes the GIL, with
    one scoring thread per process; a single-core host stays in thread
    mode (``worker_processes == 0``) because IPC overhead buys nothing
    there.  ``workers`` and ``generation_threads`` keep their thread-mode
    sizing (2–8 workers, leftover cores as intra-request scoring threads)
    for deployments that pin ``--worker-processes 0``.  ``repro serve``
    applies these whenever the corresponding CLI flag is omitted; explicit
    flags always win.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    cpus = max(int(cpus), 1)
    workers = max(2, min(cpus, 8))
    return {
        "workers": workers,
        "generation_threads": max(1, cpus // workers),
        "worker_processes": 0 if cpus < 2 else min(cpus, 8),
    }

#: Per-request config overrides a client may send.  Everything else in
#: CPGANConfig shapes *training* and cannot change at serving time.
#: ``generation_dtype`` is part of the cache/coalesce key: float32 and
#: float64 requests produce (deterministically) different graphs, so they
#: never share a cache entry or a micro-batch.  ``repair_sampler`` likewise:
#: dense (contract v1) and factored (contract v2) draws consume the request
#: RNG differently, so the two samplers never share a cache entry or batch.
#: ``hier_level`` changes which trained partition plans a hierarchical
#: request, i.e. the output bits — so it is a request parameter and part
#: of the cache key.  ``hier_workers`` deliberately is NOT: like
#: ``generation_threads`` it is a pure wall-clock knob (bit-identical
#: output at every worker count), so it stays a service-level setting.
ALLOWED_PARAMS = frozenset(
    {
        "latent_source",
        "noise_scale",
        "assembly_strategy",
        "generation_mode",
        "candidate_factor",
        "generation_dtype",
        "repair_sampler",
        "hier_level",
    }
)

#: The declared type of every CPGANConfig field.
_FIELD_TYPES = get_type_hints(CPGANConfig)

_STOP = object()

#: Sentinel distinguishing "use the service's configured request timeout"
#: from an explicit ``timeout=None`` (wait indefinitely).
_USE_SERVICE_TIMEOUT = object()


class Overloaded(RuntimeError):
    """The bounded request queue is full — retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"request queue is full; retry after {retry_after_s:g}s"
        )
        self.retry_after_s = retry_after_s


class ServiceStopping(Overloaded):
    """The service is draining for shutdown and accepts no new requests.

    Subclasses :class:`Overloaded` so the HTTP layer's 503 + Retry-After
    mapping applies unchanged — to a client, a draining replica and a full
    queue call for the same reaction (back off, try again or elsewhere).
    The flag this signals is also what makes ``stop(drain=True)`` bounded:
    without it, a live front end could keep feeding the queue faster than
    the workers drain it and the shutdown join would never return.
    """

    def __init__(self, retry_after_s: float = 1.0) -> None:
        RuntimeError.__init__(
            self, "service is stopping; no new requests accepted"
        )
        self.retry_after_s = retry_after_s


class RequestExpired(TimeoutError):
    """The request's deadline passed while it waited for a worker.

    Raised on the pending instead of generating: the caller has already
    given up (the HTTP layer answered 504), so the work is dropped and
    counted as ``expired`` in ``/metrics``.
    """


@dataclass(frozen=True)
class GenerationRequest:
    """One graph-generation request.

    ``params`` are CPGANConfig overrides from :data:`ALLOWED_PARAMS`; the
    tuple ``(model, seed, num_nodes, params)`` fully determines the result.
    """

    model: str
    seed: int = 0
    num_nodes: int | None = None
    params: Mapping[str, object] = field(default_factory=dict)

    def key(self) -> tuple:
        return cache_key(self.model, self.seed, self.num_nodes, self.params)

    def coalesce_key(self) -> tuple:
        """Everything but the seed: requests sharing this key may ride in
        one micro-batch (the seed is the per-sample axis of the batch)."""
        return (
            self.model,
            self.num_nodes,
            tuple(sorted(self.params.items())),
        )


@dataclass(frozen=True)
class GenerationResult:
    """A fulfilled request: the graph plus service-side accounting."""

    request: GenerationRequest
    graph: Graph
    cache_hit: bool
    queued_s: float   # submit -> worker pickup (0 for cache hits)
    total_s: float    # submit -> resolution


class _Pending:
    """Future-like handle the HTTP thread blocks on.

    ``deadline`` is ``submitted_at + timeout`` on ``time.perf_counter``
    (``None`` waits forever).  On Linux that clock is the system-wide
    monotonic clock, so a worker process can compare it against its own
    reading.
    """

    def __init__(
        self, request: GenerationRequest, timeout: float | None = None
    ) -> None:
        self.request = request
        self.submitted_at = time.perf_counter()
        self.deadline = None if timeout is None else self.submitted_at + timeout
        self.started_at: float | None = None
        self._event = threading.Event()
        self._result: GenerationResult | None = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(self)`` once resolved/failed (immediately if already).

        The process-pool worker loop uses this to ship results back over
        IPC without blocking its drain loop on each pending.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def _finish(self) -> None:
        self._event.set()
        with self._cb_lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def resolve(self, result: GenerationResult) -> None:
        self._result = result
        self._finish()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._finish()

    def result(self, timeout: float | None = None) -> GenerationResult:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request for model {self.request.model!r} did not complete "
                f"within {timeout:g}s"
            )
        if self._error is not None:
            raise self._error
        return self._result


def _check_params(params: Mapping[str, object]) -> None:
    """``ValueError`` unless each value has its CPGANConfig field's type
    (an int is a valid float, a bool is no number) and an allowed value."""
    for name, value in params.items():
        expected = _FIELD_TYPES[name]
        accepted = (int, float) if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(
                f"param {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        if expected is float and not math.isfinite(value):
            raise ValueError(f"param {name!r} must be finite")
    CPGANConfig(**params)


class GenerationService:
    """Worker thread pool fulfilling generation requests from a queue.

    ``submit`` may be called before :meth:`start` — requests simply wait in
    the queue until workers exist (and trip backpressure once it fills),
    which tests use to exercise the overload path deterministically.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        workers: int = 2,
        queue_size: int = 32,
        cache_entries: int = 128,
        retry_after_s: float = 0.5,
        latency_window: int = 4096,
        generation_threads: int = 1,
        hier_workers: int = 1,
        max_batch_size: int = 8,
        request_timeout_s: float = 120.0,
        worker_processes: int = 0,
        mp_start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if generation_threads < 1:
            raise ValueError("generation_threads must be >= 1")
        if hier_workers < 1:
            raise ValueError("hier_workers must be >= 1")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if worker_processes < 0:
            raise ValueError("worker_processes must be >= 0 (0 = threads)")
        self.registry = registry
        self.workers = workers
        self.queue_size = queue_size
        self.retry_after_s = retry_after_s
        self.generation_threads = generation_threads
        self.hier_workers = hier_workers
        self.max_batch_size = max_batch_size
        self.request_timeout_s = request_timeout_s
        self.worker_processes = worker_processes
        self.mp_start_method = mp_start_method
        self.cache = SampleCache(cache_entries)
        self.cache_entries = cache_entries
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._threads: list[threading.Thread] = []
        self._pool = None  # ProcessPool when worker_processes > 0
        self._closing = threading.Event()
        self._latency = LatencyWindow(latency_window)
        self._batches = BatchSizeHistogram()
        self._repair = RepairStats()
        self._counters = Counters(
            (
                "submitted",
                "completed",
                "failed",
                "rejected",
                "expired",
                "retried",
                "cache_hits",
                "dropped_responses",
                "worker_restarts",
            )
        )
        # Uptime is measured on the monotonic clock: a wall-clock step
        # (NTP slew, manual reset) must not make /metrics jump or go
        # negative.  The wall-clock instant is kept separately for display.
        self.started_at_unix = time.time()
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "GenerationService":
        if self._threads or self._pool is not None:
            raise RuntimeError("service already started")
        self._closing.clear()
        if self.worker_processes:
            from .procpool import ProcessPool

            self._pool = ProcessPool(
                self,
                self.worker_processes,
                start_method=self.mp_start_method,
            )
            self._pool.start()
            return self
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"generate-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        # Archive loads belong on this prefetch thread, not the request
        # path: the first request for each model should find it warm
        # rather than paying the cold load inside its own latency budget.
        prefetch = threading.Thread(
            target=self._prefetch_models, name="model-prefetch", daemon=True
        )
        prefetch.start()
        return self

    def _prefetch_models(self) -> None:
        try:
            self.registry.prefetch()
        except Exception:  # a broken archive fails at request time instead
            pass

    def stop(self, drain: bool = True) -> None:
        """Stop the workers; with ``drain`` queued requests finish first.

        Stopping first flips the closing flag so :meth:`submit` rejects new
        work with :class:`ServiceStopping` — the drain is therefore bounded
        by the backlog at the moment ``stop`` is called, even with a live
        HTTP front end still taking connections.
        """
        if self._pool is not None:
            self._closing.set()
            pool, self._pool = self._pool, None
            pool.stop(drain=drain)
            return
        if not self._threads:
            return
        self._closing.set()
        if drain:
            self._queue.join()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._threads = []

    def __enter__(self) -> "GenerationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        request: GenerationRequest,
        timeout: float | None = _USE_SERVICE_TIMEOUT,
    ) -> _Pending:
        """Validate and enqueue ``request``; never blocks.

        Raises ``KeyError`` for an unregistered model, ``ValueError`` for a
        disallowed parameter, :class:`Overloaded` when the queue is full,
        and :class:`ServiceStopping` once :meth:`stop` has begun.  A
        sample-cache hit resolves the returned pending immediately without
        touching the queue.  A request still queued ``timeout`` seconds
        after submission (default ``request_timeout_s``; ``None`` never)
        is dropped unserved and fails with :class:`RequestExpired`.
        """
        if timeout is _USE_SERVICE_TIMEOUT:
            timeout = self.request_timeout_s
        self._validate(request)
        if self._closing.is_set():
            self._counters.bump("rejected")
            raise ServiceStopping(self.retry_after_s)
        self._counters.bump("submitted")
        pending = _Pending(request, timeout)
        if self._pool is not None:
            # Process mode: the sample cache lives in the routed worker
            # process (that is what keeps it hot under consistent-hash
            # routing), so every request takes the IPC path.
            try:
                self._pool.dispatch(pending)
            except Overloaded:
                self._counters.bump("rejected")
                raise
            return pending
        if self.worker_processes:
            raise RuntimeError(
                "a process-mode service must be started before submit"
            )
        cached = self.cache.get(request.key())
        if cached is not None:
            self._counters.bump("cache_hits")
            total = time.perf_counter() - pending.submitted_at
            self._latency.observe(total)
            pending.resolve(
                GenerationResult(request, cached, True, 0.0, total)
            )
            return pending
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self._counters.bump("rejected")
            raise Overloaded(self.retry_after_s) from None
        return pending

    def generate(
        self,
        request: GenerationRequest,
        timeout: float | None = _USE_SERVICE_TIMEOUT,
    ) -> GenerationResult:
        """Blocking submit-and-wait convenience used by the HTTP layer.

        With no explicit ``timeout`` the service's configured
        ``request_timeout_s`` applies (``repro serve --request-timeout``);
        pass ``None`` to wait indefinitely.  A timeout raises
        ``TimeoutError``, which the HTTP layer maps to 504.
        """
        if timeout is _USE_SERVICE_TIMEOUT:
            timeout = self.request_timeout_s
        return self.submit(request, timeout).result(timeout)

    def _validate(self, request: GenerationRequest) -> None:
        if request.model not in self.registry:
            raise KeyError(f"unknown model {request.model!r}")
        unknown = set(request.params) - ALLOWED_PARAMS
        if unknown:
            raise ValueError(
                f"unsupported generation params {sorted(unknown)}; "
                f"allowed: {sorted(ALLOWED_PARAMS)}"
            )
        _check_params(request.params)
        if request.num_nodes is not None and request.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        # NumPy's SeedSequence rejects negative seeds with an internal
        # message deep inside the worker; validate here so the HTTP layer
        # returns a clean 400 before any work is queued.
        if request.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def note_dropped_response(self) -> None:
        """Record a response the client disconnected before receiving."""
        self._counters.bump("dropped_responses")

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        # ``carry`` is the first non-coalescing item a drain pass pulled:
        # it becomes this worker's next unit of work instead of being
        # re-queued (which would reorder it behind later arrivals).
        carry = None
        while True:
            item = carry if carry is not None else self._queue.get()
            carry = None
            if item is _STOP:
                self._queue.task_done()
                return
            batch = [item]
            key = item.request.coalesce_key()
            while len(batch) < self.max_batch_size:
                try:
                    follower = self._queue.get_nowait()
                except queue.Empty:
                    break
                if follower is not _STOP and (
                    follower.request.coalesce_key() == key
                ):
                    batch.append(follower)
                else:
                    carry = follower
                    break
            try:
                live = self._drop_expired(batch)
                if live:
                    self._fulfil_batch(live)
            finally:
                for __ in batch:
                    self._queue.task_done()

    def _drop_expired(self, batch: list[_Pending]) -> list[_Pending]:
        """Fail the pendings whose deadline has passed; return the rest.

        Their callers have already timed out, so generating for them
        would only delay the live requests behind them.
        """
        now = time.perf_counter()
        live = []
        for pending in batch:
            if pending.deadline is not None and now >= pending.deadline:
                self._counters.bump("expired")
                pending.fail(
                    RequestExpired(
                        f"request for model {pending.request.model!r} "
                        "expired before a worker picked it up"
                    )
                )
            else:
                live.append(pending)
        return live

    def _fulfil_batch(self, batch: list[_Pending]) -> None:
        """Fulfil one micro-batch of coalesced requests in a single sweep.

        Seeds are deduplicated (identical requests share one generation),
        every pending resolves from its own seed's graph, and the sample
        cache is populated per seed — exactly the graphs solo ``generate``
        calls would have produced, because ``generate_batch`` is
        bit-identical per seed regardless of batch composition.  A batch
        of one is ``generate_batch((seed,))``, which is what
        ``CPGAN.generate`` runs.  The generation runs inside
        :func:`repro.trace.counting`; its counter set feeds the
        ``/metrics`` repair section.
        """
        self._batches.observe(len(batch))
        request = batch[0].request
        started_at = time.perf_counter()
        for pending in batch:
            pending.started_at = started_at
        try:
            with self.registry.lease(request.model) as model:
                # Intra-request parallelism is a service-level deployment
                # knob, not a request parameter: the sparse kernel (and
                # the hierarchical fan-out) is bit-identical at every
                # thread/worker count, so exposing these to clients would
                # only fragment the sample-cache key space.
                config = model.generation_config(
                    generation_threads=self.generation_threads,
                    hier_workers=self.hier_workers,
                    **dict(request.params),
                )
                seeds = list(
                    dict.fromkeys(p.request.seed for p in batch)
                )
                with counting() as counts:
                    graphs = model.generate_batch(
                        seeds, num_nodes=request.num_nodes, config=config
                    )
            self._repair.observe(counts)
            by_seed = dict(zip(seeds, graphs))
            now = time.perf_counter()
            for pending in batch:
                graph = by_seed[pending.request.seed]
                self.cache.put(pending.request.key(), graph)
                result = GenerationResult(
                    pending.request,
                    graph,
                    False,
                    started_at - pending.submitted_at,
                    now - pending.submitted_at,
                )
                self._counters.bump("completed")
                self._latency.observe(result.total_s)
                pending.resolve(result)
        except BaseException as exc:  # surface worker errors to the callers
            for pending in batch:
                self._counters.bump("failed")
                pending.fail(exc)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        if self._pool is not None:
            return self._pool.depth
        return self._queue.qsize()

    def metrics(self) -> dict:
        """The ``GET /metrics`` document."""
        document = {
            "uptime_s": time.monotonic() - self._started_monotonic,
            "started_at_unix": self.started_at_unix,
            "requests": self._counters.snapshot(),
            "latency": self._latency.percentiles(),
            "queue": {
                "depth": self.queue_depth,
                "capacity": self.queue_size,
                "workers": self.workers,
                "worker_processes": self.worker_processes,
                "retry_after_s": self.retry_after_s,
                "request_timeout_s": self.request_timeout_s,
                "generation_threads": self.generation_threads,
                "hier_workers": self.hier_workers,
            },
            "batching": {
                "max_batch_size": self.max_batch_size,
                **self._batches.snapshot(),
            },
            "repair": self._repair.snapshot(),
            "cache": self.cache.stats(),
            "registry": self.registry.stats(),
        }
        if self._pool is not None:
            # Cache/batching/repair accounting lives in the worker
            # processes; replace the (empty) parent sections with the
            # merged per-process view and add the pool's own section.
            document.update(self._pool.metrics_sections())
        return document
