"""Process-pool execution tier for the generation service.

Thread-mode :class:`~repro.serve.GenerationService` shares one GIL across
its worker pool, so everything outside NumPy kernels — isolated-node
repair, sparse assembly, JSON encoding, cache bookkeeping — serialises.
This module moves the workers into separate *processes*:

* **One child service per process.**  Each worker process builds its own
  :class:`~repro.serve.ModelRegistry` from the parent's archive paths
  (pre-fork or spawn + archive load both work — the child never relies on
  inherited model state) and runs a single-worker thread-mode
  ``GenerationService`` inside it.  That re-uses the whole hardened
  request lifecycle per process: the opportunistic ``get_nowait``
  micro-batch coalescing drain loop, the per-process :class:`SampleCache`,
  the raw cache/batching/repair/registry counts, and bounded drain on stop.
* **Rendezvous routing.**  ``(model, seed)`` keys map to processes by
  highest-random-weight (rendezvous) hash — deterministic across runs and
  interpreters (BLAKE2, not Python's salted ``hash``), so a repeated
  request always lands on the process whose cache already holds it.
* **Hardened lifecycle.**  The parent tracks every in-flight request per
  process.  A worker that dies mid-request is respawned in place and its
  orphaned requests are re-dispatched exactly once (then failed, mapping
  to HTTP 500) — never left hanging.  Backpressure is enforced
  parent-side per process, so a full pool still answers ``Overloaded``
  immediately.
* **One accounting path.**  Each result carries its process's raw counts
  (:meth:`GenerationService.work_counts`), never derived rates.  The
  parent keeps the latest set per live process, sums them with
  :meth:`repro.trace.Counts.add` and renders the sum with the same
  :func:`repro.serve.metrics.render` thread mode uses, so ``/metrics``
  has the same sections and keys in both modes plus ``processes``.  The
  ``registry`` load counts are the workers' (each loads its models at
  spawn); ``models``, ``max_loaded`` and ``rejected`` are the parent's.

Determinism is untouched by any of this: each child calls the same
``CPGAN.generate``/``generate_batch`` with the same per-request config
snapshot, so the same ``(model, seed, params)`` returns a bit-identical
graph at every process count — the invariant the tier-1 suite pins at
1/2/4 processes.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import pickle
import signal
import threading
import time
from collections import defaultdict
from multiprocessing import connection as mp_connection

from ..trace import Counts
from .service import (
    GenerationResult,
    Overloaded,
    RequestExpired,
    ServiceStopping,
)

__all__ = ["ProcessPool", "route_key"]

_MSG_REQUEST = "request"
_MSG_PRELOAD = "preload"
_MSG_STOP = "stop"
_MSG_RESULT = "result"
_MSG_BYE = "bye"
_MSG_COLLECTOR_STOP = "collector-stop"


def route_key(model: str, seed: int, processes: int) -> int:
    """Rendezvous (highest-random-weight) hash of ``(model, seed)``.

    Deterministic across interpreters and runs; every process ranks the
    key independently and the highest digest wins, so adding or removing
    one process only remaps the keys that pointed at it.
    """
    if processes < 1:
        raise ValueError("processes must be >= 1")
    best, best_digest = 0, b""
    for index in range(processes):
        digest = hashlib.blake2b(
            f"{model}\x00{int(seed)}\x00{index}".encode(), digest_size=8
        ).digest()
        if digest > best_digest:
            best, best_digest = index, digest
    return best


def _encode_error(error: BaseException) -> bytes:
    """Pickle ``error`` for IPC, degrading to a ``RuntimeError`` carrying
    its repr when the exception itself refuses to pickle."""
    try:
        return pickle.dumps(error)
    except Exception:
        return pickle.dumps(RuntimeError(f"worker error: {error!r}"))


def _worker_main(
    index: int,
    archives: dict[str, str],
    task_queue,
    result_queue,
    settings: dict,
) -> None:
    """Worker-process entry point: a single-worker child service fed from
    the parent's task queue.

    The child's main thread only reads messages and submits — results ship
    back from a done-callback, so while one batch generates, followers
    pile into the child service's internal queue where its drain loop
    coalesces them exactly as thread mode would.
    """
    # A forked child inherits the CLI's SIGTERM-to-KeyboardInterrupt
    # handler; the parent's hard stop terminates children with SIGTERM,
    # which must simply end them.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    from .registry import ModelRegistry
    from .service import GenerationRequest, GenerationService

    registry = ModelRegistry(max_loaded=settings["max_loaded"])
    for name, path in archives.items():
        try:
            registry.register(name, path)
        except Exception:
            continue  # parent validated at registration; fail per-request
    service = GenerationService(
        registry,
        workers=1,
        queue_size=settings["queue_size"],
        cache_entries=settings["cache_entries"],
        retry_after_s=settings["retry_after_s"],
        generation_threads=settings["generation_threads"],
        hier_workers=settings["hier_workers"],
        max_batch_size=settings["max_batch_size"],
        request_timeout_s=settings["request_timeout_s"],
    )
    service.start()

    def ship(req_id: int, pending) -> None:
        if pending._error is not None:
            result_queue.put(
                (_MSG_RESULT, index, req_id, False, None,
                 _encode_error(pending._error), None)
            )
            return
        result = pending._result
        result_queue.put(
            (
                _MSG_RESULT,
                index,
                req_id,
                True,
                (result.graph, result.cache_hit, result.queued_s),
                None,
                service.work_counts(),
            )
        )

    try:
        while True:
            message = task_queue.get()
            kind = message[0]
            if kind == _MSG_STOP:
                break
            if kind == _MSG_PRELOAD:
                registry.prefetch([message[1]])
                continue
            __, req_id, model, seed, num_nodes, params, deadline = message
            request = GenerationRequest(
                model=model, seed=seed, num_nodes=num_nodes, params=params
            )
            # The parent's deadline is on the same system-wide clock, so
            # the child service expires the request at the same instant.
            timeout = None if deadline is None else deadline - time.perf_counter()
            try:
                pending = service.submit(request, timeout)
            except BaseException as exc:
                result_queue.put(
                    (_MSG_RESULT, index, req_id, False, None,
                     _encode_error(exc), None)
                )
                continue
            pending.add_done_callback(
                lambda p, rid=req_id: ship(rid, p)
            )
    finally:
        # Bounded: the parent's closing flag means no message follows the
        # stop sentinel, so the child's own drain finishes its backlog.
        service.stop(drain=True)
        result_queue.put((_MSG_BYE, index))


class _InFlight:
    __slots__ = ("pending", "worker_index", "retried")

    def __init__(self, pending, worker_index: int, retried: bool = False):
        self.pending = pending
        self.worker_index = worker_index
        self.retried = retried


class _WorkerHandle:
    __slots__ = ("index", "process", "task_queue", "load", "routed", "restarts")

    def __init__(self, index, process, task_queue, restarts=0):
        self.index = index
        self.process = process
        self.task_queue = task_queue
        self.load = 0       # in-flight requests dispatched to this process
        self.routed = 0     # lifetime requests routed here
        self.restarts = restarts


class ProcessPool:
    """The parent-side half of process mode: dispatch, collect, supervise."""

    def __init__(self, service, processes: int, start_method: str | None = None):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.service = service
        self.processes = processes
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method
        # Total queue capacity is split across processes; each process
        # bound is enforced parent-side (mp.Queue maxsize is advisory —
        # the feeder thread makes put_nowait unreliable for backpressure).
        self._per_capacity = max(1, -(-service.queue_size // processes))
        self._result_queue = self._ctx.Queue()
        self._workers: list[_WorkerHandle] = []
        self._inflight: dict[int, _InFlight] = {}
        #: worker index -> the raw counts shipped with its latest result
        self._work: dict[int, dict] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._closing = False
        self._collector: threading.Thread | None = None
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ProcessPool":
        for index in range(self.processes):
            self._workers.append(self._spawn(index))
        self._collector = threading.Thread(
            target=self._collect_loop, name="procpool-collector", daemon=True
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="procpool-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, index: int, restarts: int = 0) -> _WorkerHandle:
        service = self.service
        archives = {
            name: str(path) for name, path in service.registry.archives().items()
        }
        settings = {
            "max_loaded": service.registry.max_loaded,
            "queue_size": service.queue_size,
            "cache_entries": service.cache_entries,
            "retry_after_s": service.retry_after_s,
            "generation_threads": service.generation_threads,
            "hier_workers": service.hier_workers,
            "max_batch_size": service.max_batch_size,
            "request_timeout_s": service.request_timeout_s,
        }
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, archives, task_queue, self._result_queue, settings),
            name=f"generate-process-{index}",
            daemon=True,
        )
        process.start()
        # Warm the archives at spawn, ahead of any request: these preload
        # messages are queued before the first dispatch can be.
        for name in list(archives)[: service.registry.max_loaded]:
            task_queue.put((_MSG_PRELOAD, name))
        return _WorkerHandle(index, process, task_queue, restarts)

    def stop(self, drain: bool = True) -> None:
        with self._lock:
            self._closing = True
            workers = list(self._workers)
        if drain:
            for handle in workers:
                handle.task_queue.put((_MSG_STOP,))
            for handle in workers:
                handle.process.join(timeout=60)
        for handle in workers:  # stragglers, or drain=False: hard stop
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        # The children flushed their result pipes before exiting, so this
        # sentinel lands after every real result and the collector drains
        # them all before stopping.
        self._result_queue.put((_MSG_COLLECTOR_STOP,))
        if self._collector is not None:
            self._collector.join(timeout=10)
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        for record in leftovers:
            self.service._requests.add({"failed": 1})
            record.pending.fail(
                ServiceStopping(self.service.retry_after_s)
                if drain
                else RuntimeError("service stopped before the request completed")
            )

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def dispatch(self, pending) -> None:
        request = pending.request
        index = route_key(request.model, request.seed, self.processes)
        with self._lock:
            if self._closing:
                raise ServiceStopping(self.service.retry_after_s)
            handle = self._workers[index]
            if handle.load >= self._per_capacity:
                raise Overloaded(self.service.retry_after_s)
            req_id = next(self._ids)
            self._inflight[req_id] = _InFlight(pending, index)
            handle.load += 1
            handle.routed += 1
        self._send(handle, req_id, pending)

    def _send(self, handle: _WorkerHandle, req_id: int, pending) -> None:
        request = pending.request
        handle.task_queue.put(
            (
                _MSG_REQUEST,
                req_id,
                request.model,
                request.seed,
                request.num_nodes,
                dict(request.params),
                pending.deadline,
            )
        )

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    # parent-side threads
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        service = self.service
        while True:
            try:
                message = self._result_queue.get()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == _MSG_COLLECTOR_STOP:
                return
            if kind == _MSG_BYE:
                continue
            __, index, req_id, ok, payload, error_bytes, work = message
            with self._lock:
                record = self._inflight.pop(req_id, None)
                if record is not None:
                    handle = self._workers[record.worker_index]
                    handle.load = max(0, handle.load - 1)
                if work is not None:
                    self._work[index] = work
            if record is None:
                continue  # re-dispatched after a worker death, or stopped
            pending = record.pending
            if ok:
                graph, cache_hit, queued_s = payload
                now = time.perf_counter()
                result = GenerationResult(
                    pending.request,
                    graph,
                    cache_hit,
                    queued_s,
                    now - pending.submitted_at,
                )
                # A cache hit is not a generation: ``completed`` counts
                # only the requests a worker generated, as in thread mode.
                outcome = "cache_hits" if cache_hit else "completed"
                service._requests.add({outcome: 1})
                service._latency.observe(result.total_s)
                pending.resolve(result)
            else:
                try:
                    error = pickle.loads(error_bytes)
                except Exception:
                    error = RuntimeError("worker failed with an unpicklable error")
                expired = isinstance(error, RequestExpired)
                service._requests.add({"expired" if expired else "failed": 1})
                pending.fail(error)

    def _monitor_loop(self) -> None:
        """Respawn dead workers; re-dispatch their orphans exactly once."""
        while True:
            with self._lock:
                if self._closing:
                    return
                sentinels = {
                    h.process.sentinel: h
                    for h in self._workers
                    if h.process.is_alive()
                }
            if not sentinels:
                time.sleep(0.05)
                continue
            ready = mp_connection.wait(list(sentinels), timeout=0.2)
            for sentinel in ready:
                dead = sentinels[sentinel]
                retry, fail = [], []
                with self._lock:
                    if self._closing:
                        return
                    if self._workers[dead.index] is not dead:
                        continue  # already replaced
                    orphan_ids = [
                        rid
                        for rid, rec in self._inflight.items()
                        if rec.worker_index == dead.index
                    ]
                    orphans = [self._inflight.pop(rid) for rid in orphan_ids]
                    replacement = self._spawn(
                        dead.index, restarts=dead.restarts + 1
                    )
                    self._workers[dead.index] = replacement
                    self._work.pop(dead.index, None)
                    for record in orphans:
                        if record.retried:
                            fail.append(record)
                        else:
                            record.retried = True
                            req_id = next(self._ids)
                            self._inflight[req_id] = record
                            replacement.load += 1
                            retry.append((req_id, record))
                self.service._requests.add({"worker_restarts": 1})
                for record in fail:
                    self.service._requests.add({"failed": 1})
                    record.pending.fail(
                        RuntimeError(
                            "worker process died while handling the request"
                        )
                    )
                for req_id, record in retry:
                    self.service._requests.add({"retried": 1})
                    self._send(replacement, req_id, record.pending)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def work_counts(self) -> dict[str, Counts]:
        """The raw counts of every live worker process, summed."""
        with self._lock:
            shipped = list(self._work.values())
        totals: defaultdict[str, Counts] = defaultdict(Counts)
        for work in shipped:
            for section, counts in work.items():
                totals[section].add(counts)
        return totals

    def processes_section(self) -> dict:
        """The ``processes`` section of ``/metrics``: the pool's own state."""
        with self._lock:
            workers = [
                {
                    "index": h.index,
                    "pid": h.process.pid,
                    "alive": h.process.is_alive(),
                    "restarts": h.restarts,
                    "inflight": h.load,
                    "routed": h.routed,
                }
                for h in self._workers
            ]
        return {
            "count": self.processes,
            "start_method": self.start_method,
            "per_process_queue_capacity": self._per_capacity,
            "workers": workers,
        }
