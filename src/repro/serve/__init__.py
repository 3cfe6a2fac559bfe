"""The serving layer: many documents, many callers, one process.

The compiler (paper Figure 2) and its guardrails assume they sit inside
a *serving engine* — the setting of the source paper, whose tree-pattern
operators were built as pluggable physical operators of a reusable
XQuery engine.  This package supplies that engine-around-the-engine:

* :class:`DocumentCatalog` — named documents, one shared
  :class:`~repro.engine.Engine` each (shared plan cache + structural
  summary, built once under a lock);
* :class:`QueryService` — a worker pool behind a **bounded admission
  queue**: full queue → typed :class:`~repro.guard.ServiceOverloaded`
  shed (backpressure), per-request deadlines mapped onto
  :class:`~repro.guard.Budgets`, and **coalescing** of identical
  in-flight requests into a single execution;
* :class:`~repro.serve.metrics.ServiceMetrics` /
  :class:`~repro.serve.metrics.ServiceStats` — QPS, queue depth, shed /
  coalesce counts and a constant-memory latency histogram (p50/p95/p99);
* :mod:`repro.serve.loadgen` — a seeded closed-loop load generator that
  doubles as a concurrency differential test (``python -m repro
  serve-bench``), plus the chaos availability sweep (EXPERIMENTS E11);
* :mod:`repro.serve.resilience` — per-request retries with backoff
  (:class:`RetryPolicy`), per-document circuit breakers
  (:class:`BreakerPolicy` / :class:`CircuitBreaker`), health tracking
  (:class:`HealthTracker`, ``QueryService.health()``) and the
  degraded-mode emptiness prover; the catalog quarantines documents
  whose load hits a storage failure (:class:`QuarantineRecord`);
* :mod:`repro.serve.httpobs` — the live observability endpoint:
  :class:`ObservabilityServer` mounts ``/metrics`` (Prometheus text),
  ``/healthz``, ``/flight`` and ``/traces/<id>`` on either service
  (stdlib ``http.server``; see ``docs/OBSPLANE.md``);
* :mod:`repro.serve.cluster` — **multi-process sharded serving**:
  :class:`ClusterService` is the same service with a shard executor —
  each execution attempt scatter-gathers over a pool of worker
  processes (:mod:`repro.serve.worker`), each mmap-sharing the same
  saved columnar shards (:mod:`repro.xmltree.shard`), with per-worker
  circuit breakers, dead-worker respawn and optional partial answers
  (``QueryResponse.partial``).

See ``docs/SERVING.md`` for the architecture and tuning knobs and
``docs/ROBUSTNESS.md`` for the failure-handling contract.
"""

from ..guard import CircuitOpen, DocumentQuarantined, ServiceClosed, \
    ServiceOverloaded
from .catalog import DocumentCatalog, QuarantineRecord
from .httpobs import ObservabilityServer
from .cluster import (ClusterLayout, ClusterService, ClusterStats,
                      WorkerStats, merge_shard_results, scatter_plan)
from .loadgen import (ChaosCell, LoadReport, default_catalog,
                      mixed_workload, run_chaos_cell, run_chaos_sweep,
                      run_load, sequential_baseline)
from .metrics import LatencyHistogram, ServiceMetrics, ServiceStats
from .resilience import (BreakerPolicy, CircuitBreaker, DocumentHealth,
                         HealthTracker, RetryPolicy, ServiceHealth)
from .service import (PendingQuery, QueryRequest, QueryResponse,
                      QueryService)

__all__ = [
    "BreakerPolicy", "ChaosCell", "CircuitBreaker", "CircuitOpen",
    "ClusterLayout", "ClusterService", "ClusterStats",
    "DocumentCatalog", "DocumentHealth", "DocumentQuarantined",
    "HealthTracker", "LatencyHistogram", "LoadReport",
    "ObservabilityServer", "PendingQuery",
    "QuarantineRecord", "QueryRequest", "QueryResponse", "QueryService",
    "RetryPolicy", "ServiceClosed", "ServiceHealth", "ServiceMetrics",
    "ServiceOverloaded", "ServiceStats", "WorkerStats", "default_catalog",
    "merge_shard_results", "mixed_workload", "run_chaos_cell",
    "run_chaos_sweep", "run_load", "scatter_plan", "sequential_baseline",
]
