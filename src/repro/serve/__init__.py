"""``repro.serve`` — the fault-tolerant prediction service.

A long-running asyncio HTTP/JSON server in front of the prediction
engine: one engine call per request on a worker pool, a response cache
in front of it, per-request deadlines, admission control with load
shedding, a circuit breaker around the engine, structured error
envelopes, graceful drain, and a mountable chaos plan. See
``docs/SERVE.md`` for the full contract.

Usage::

    from repro.serve import PredictionServer, ServeConfig

    server = PredictionServer(ServeConfig(port=0))
    await server.start()          # inside an event loop
    ...
    await server.drain()

Or from the CLI::

    sg2042-repro serve --port 8642
"""

from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.errors import (
    BadRequest,
    DeadlineExceeded,
    EngineFault,
    NotFound,
    ServeError,
    Shed,
    Unavailable,
)
from repro.serve.respcache import (
    CachedResponse,
    RespCacheStats,
    ResponseCache,
    config_digest,
    explain_key,
    predict_key,
    sweep_key,
)
from repro.serve.server import (
    MAX_SWEEP_CELLS,
    PredictionServer,
    ServeConfig,
    serve_forever,
)

__all__ = [
    "AdmissionController",
    "BadRequest",
    "BreakerState",
    "CachedResponse",
    "CircuitBreaker",
    "DeadlineExceeded",
    "EngineFault",
    "MAX_SWEEP_CELLS",
    "NotFound",
    "PredictionServer",
    "RespCacheStats",
    "ResponseCache",
    "ServeConfig",
    "ServeError",
    "Shed",
    "Unavailable",
    "config_digest",
    "explain_key",
    "predict_key",
    "serve_forever",
    "sweep_key",
]
