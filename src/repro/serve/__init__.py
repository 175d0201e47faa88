"""``repro.serve`` — concurrent graph-generation serving.

The deployment shape the ROADMAP's north star asks for: fitted CPGAN
archives become named models in a ref-counted :class:`ModelRegistry`, a
:class:`GenerationService` worker pool fulfils requests from a bounded
queue with explicit backpressure and an LRU sample cache, and a stdlib
``ThreadingHTTPServer`` JSON API (``repro serve`` on the CLI) exposes
``POST /generate``, ``GET /models``, ``GET /healthz`` and ``GET /metrics``.

Per-request determinism is the load-bearing property: the same
``(model, seed, params)`` request returns a bit-identical graph regardless
of worker count or scheduling, because all request randomness flows from
the request seed through a private PCG64 stream and per-request config
overrides never touch shared model state.
"""

from .cache import SampleCache, cache_key
from .http import build_server, serve_forever
from .metrics import LatencyWindow
from .procpool import ProcessPool, route_key
from .registry import ModelRegistry
from .service import (
    ALLOWED_PARAMS,
    GenerationRequest,
    GenerationResult,
    GenerationService,
    Overloaded,
    RequestExpired,
    ServiceStopping,
    autosize_serving,
)

__all__ = [
    "ALLOWED_PARAMS",
    "GenerationRequest",
    "GenerationResult",
    "GenerationService",
    "LatencyWindow",
    "ModelRegistry",
    "Overloaded",
    "ProcessPool",
    "RequestExpired",
    "SampleCache",
    "ServiceStopping",
    "autosize_serving",
    "build_server",
    "cache_key",
    "route_key",
    "serve_forever",
]
