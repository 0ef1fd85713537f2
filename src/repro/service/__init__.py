"""Concurrent query service over the persisted clique index.

Three layers, each usable alone:

* :class:`CliqueQueryEngine` — thread-safe query execution straight
  from the index's page pools, with per-query timeouts and cold-path
  degradation (see :mod:`repro.service.engine`).
* :class:`CliqueQueryServer` — a stdlib TCP/JSON-lines server exposing
  the engine to the network (``repro-mce serve``).
* :class:`CliqueQueryClient` — the matching blocking client, with
  connect/read timeouts, jittered backoff retry for idempotent queries,
  and a per-endpoint :class:`CircuitBreaker`.

This is the piece the ROADMAP's "serve heavy traffic" north star asks
for: enumeration produces the index once; the service answers clique
queries without ever re-running ExtMCE.
"""

from repro.service.client import (
    IDEMPOTENT_OPERATIONS,
    CircuitBreaker,
    CliqueQueryClient,
    Response,
    RetryPolicy,
)
from repro.service.engine import OPERATIONS, CliqueQueryEngine, QueryResult
from repro.service.server import PROBE_OPERATIONS, CliqueQueryServer
from repro.service.stats import has_query_metrics, summarize_query_metrics

__all__ = [
    "IDEMPOTENT_OPERATIONS",
    "OPERATIONS",
    "PROBE_OPERATIONS",
    "CircuitBreaker",
    "RetryPolicy",
    "CliqueQueryClient",
    "CliqueQueryEngine",
    "CliqueQueryServer",
    "QueryResult",
    "Response",
    "has_query_metrics",
    "summarize_query_metrics",
]
