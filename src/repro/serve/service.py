"""The concurrent query service: admission, workers, coalescing.

:class:`QueryService` turns a :class:`~repro.serve.DocumentCatalog`
into a multi-tenant query endpoint with the three properties a serving
layer needs under load:

* **bounded admission** — requests wait in a fixed-capacity queue; when
  it is full, :meth:`QueryService.submit` sheds the request immediately
  with a typed :class:`~repro.guard.ServiceOverloaded` instead of
  letting work pile up without bound (backpressure, not collapse);
* **deadlines** — a per-request ``timeout`` becomes a wall deadline
  fixed at admission.  Time spent queued counts against it; whatever
  remains when a worker picks the request up is mapped onto
  :class:`~repro.guard.Budgets` so the engine's own governor aborts a
  slow query mid-flight — one slow query cannot starve the pool;
* **request coalescing** — identical in-flight requests (same document,
  query text, strategy and optimize flag) share a single execution: the
  first becomes the *leader*, later duplicates attach to its pending
  result and are never enqueued.  Thundering herds of a hot query cost
  one evaluation.

Each execution attempt goes through one seam, :meth:`QueryService.
_execute`.  Here it compiles and executes on the catalog's shared engine
in the worker thread; :class:`~repro.serve.ClusterService` is this same
service with that step replaced by a scatter over worker processes, so
everything below holds for both.

Results are deterministic: workers only ever *read* the shared,
immutable engines (the plan cache and summary builds are internally
locked, see PR notes in :mod:`repro.obs` / :mod:`repro.xmltree.
document`), so a response is byte-identical to a sequential
``engine.run()`` of the same request.

On top sits the **resilience layer** (:mod:`repro.serve.resilience`,
``docs/ROBUSTNESS.md``): with a :class:`~repro.serve.RetryPolicy`
failed attempts retry with deadline-aware exponential backoff (stepping
to the next fallback strategy on deterministic errors); with a
:class:`~repro.serve.BreakerPolicy` each document gets a circuit
breaker that sheds requests at admission with a typed
:class:`~repro.guard.CircuitOpen` once the document's failure rate
trips it — and, while open, queries the structural summary *proves*
empty are still answered (``QueryResponse.degraded``).  Every caller
always sees either a correct result or a typed
:class:`~repro.guard.ReproError` — never a bare exception, never a
hang: unexpected worker exceptions are wrapped in
:class:`~repro.guard.InternalError` and :meth:`QueryService.close`
sweeps abandoned executions to :class:`~repro.guard.ServiceClosed`.
"""

from __future__ import annotations

import queue as queue_module
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..guard import (AlgorithmError, Budgets, BudgetExceeded, CircuitOpen,
                     InjectedFault, InternalError, ServiceClosed,
                     ServiceOverloaded, chaos_point, deadline_budgets,
                     typed_error)
from ..trace import FlightRecorder, FlightSnapshot, Tracer
from ..xmltree.columnar import StorageError
from .catalog import DocumentCatalog
from .metrics import ServiceMetrics, ServiceStats
from .resilience import (BreakerPolicy, DocumentHealth, FATAL,
                         HealthTracker, NEXT_STRATEGY, RetryPolicy,
                         ServiceHealth, provably_empty)

__all__ = ["QueryRequest", "QueryResponse", "PendingQuery", "QueryService"]

#: errors that count against a document's health/breaker: the engine or
#: its storage failed.  Caller errors (bad query, unknown strategy) and
#: deadline trips say nothing about the document.
_HEALTH_ERRORS = (AlgorithmError, InjectedFault, InternalError,
                  StorageError)

#: default admission-queue capacity (requests waiting for a worker).
DEFAULT_QUEUE_LIMIT = 128

#: default worker count.
DEFAULT_WORKERS = 4

_SENTINEL = object()


@dataclass(frozen=True)
class QueryRequest:
    """One query against one named catalog document."""

    document: str
    query: str
    strategy: Optional[str] = None
    #: wall-clock deadline in seconds, measured from admission (queue
    #: wait included); ``None`` inherits only the service's default
    #: budgets.
    timeout: Optional[float] = None
    optimize: bool = True

    def coalesce_key(self) -> Tuple[Hashable, ...]:
        """Requests with equal keys may share one execution.  The
        deadline is deliberately excluded: a follower rides the
        leader's execution whatever its own timeout was."""
        return (self.document, self.query, self.strategy, self.optimize)


@dataclass
class QueryResponse:
    """The outcome of one executed request (shared by coalesced
    followers — ``coalesced`` on the :class:`PendingQuery` handle, not
    here, says how *this caller* got it)."""

    request: QueryRequest
    results: Optional[List] = None
    error: Optional[Exception] = None
    #: seconds from admission to a worker picking the request up.
    queue_seconds: float = 0.0
    #: seconds the worker spent compiling + executing.
    exec_seconds: float = 0.0
    #: id of this request's span trace, when the service traces (and
    #: its sampler admitted this request); ``None`` otherwise.
    trace_id: Optional[str] = None
    #: total execution attempts (1 = no retry was needed).
    attempts: int = 1
    #: True when this is a degraded-mode answer: the document's circuit
    #: was open and the summary proved the result empty (the ``[]`` is
    #: still byte-identical to a full evaluation).
    degraded: bool = False
    #: True when this is a *partial* scatter-gather answer: some shards
    #: of a clustered execution failed and the coordinator merged the
    #: ones that succeeded (see :mod:`repro.serve.cluster`,
    #: ``allow_partial=True``).  Always False on a single-process
    #: service.
    partial: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def total_seconds(self) -> float:
        return self.queue_seconds + self.exec_seconds

    def unwrap(self) -> List:
        """The result sequence, re-raising the execution error if any."""
        if self.error is not None:
            raise self.error
        assert self.results is not None
        return self.results


class _Execution:
    """Shared state of one admitted execution (leader + followers)."""

    def __init__(self, request: QueryRequest, admitted: float,
                 deadline: Optional[float]) -> None:
        self.request = request
        self.admitted = admitted
        self.deadline = deadline
        self.response: Optional[QueryResponse] = None
        self.done = threading.Event()
        #: followers coalesced onto this execution (admission lock).
        self.coalesced = 0


class PendingQuery:
    """A caller's handle on an admitted (or coalesced) request."""

    def __init__(self, execution: _Execution, coalesced: bool) -> None:
        self._execution = execution
        #: True when this handle attached to an identical in-flight
        #: request instead of enqueueing its own execution.
        self.coalesced = coalesced

    @property
    def request(self) -> QueryRequest:
        return self._execution.request

    def done(self) -> bool:
        return self._execution.done.is_set()

    def response(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block until the execution finishes and return its response
        (errors stay wrapped); raises :class:`TimeoutError` if it does
        not finish within ``timeout`` seconds."""
        if not self._execution.done.wait(timeout):
            raise TimeoutError(
                f"query {self.request.query!r} still pending after "
                f"{timeout} s")
        if self.coalesced:
            chaos_point("serve.wake")
        assert self._execution.response is not None
        return self._execution.response

    def result(self, timeout: Optional[float] = None) -> List:
        """Block for the result sequence, re-raising execution errors."""
        return self.response(timeout).unwrap()


class QueryService:
    """A thread-pool query service over a :class:`DocumentCatalog`.

    ::

        catalog = DocumentCatalog()
        catalog.add_xml("site", "<site>...</site>")
        with QueryService(catalog, workers=4, queue_limit=64) as service:
            names = service.query("site", "$input//person/name")

    ``default_budgets`` apply to every request (per-request deadlines
    tighten, never loosen, the wall budget).  ``queue_limit`` bounds the
    *waiting* requests only; in-flight executions are bounded by
    ``workers``.

    With a ``tracer`` attached, every admitted request the sampler
    accepts gets a root ``request`` span covering queue wait and
    execution (``QueryResponse.trace_id`` identifies it), and finished
    traces are retained in a :class:`~repro.trace.FlightRecorder`
    (supply your own to size it; snapshot via
    :meth:`flight_recorder`).
    """

    def __init__(self, catalog: DocumentCatalog,
                 workers: int = DEFAULT_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 default_budgets: Optional[Budgets] = None,
                 clock=time.perf_counter,
                 tracer: Optional[Tracer] = None,
                 flight_recorder: Optional[FlightRecorder] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 degraded_mode: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.catalog = catalog
        self.queue_limit = queue_limit
        self.default_budgets = default_budgets
        self.metrics = ServiceMetrics(clock=clock)
        self.retry_policy = retry_policy
        self.breaker_policy = breaker_policy
        #: with a breaker, serve provably-empty answers while open.
        self.degraded_mode = degraded_mode
        self.health_tracker = HealthTracker(breaker_policy=breaker_policy,
                                            clock=clock)
        self._retry_rng = random.Random(0)
        self.tracer = tracer
        if flight_recorder is None and tracer is not None:
            flight_recorder = FlightRecorder()
        self._flight = flight_recorder
        self._clock = clock
        self._queue: "queue_module.Queue[Any]" = \
            queue_module.Queue(maxsize=queue_limit)
        self._inflight: Dict[Tuple[Hashable, ...], _Execution] = {}
        self._admission_lock = threading.Lock()
        self._in_flight_count = 0
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-serve-{index}", daemon=True)
            for index in range(workers)]
        for thread in self._threads:
            thread.start()

    # -- admission ----------------------------------------------------------

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Admit, coalesce or shed a request (never blocks).

        Raises :class:`~repro.guard.ServiceOverloaded` when the
        admission queue is full, :class:`~repro.guard.ServiceClosed`
        after :meth:`close`, and :class:`~repro.guard.CircuitOpen` when
        the document's breaker is open and the answer is not provably
        empty (degraded mode, see :mod:`repro.serve.resilience`).
        """
        self.metrics.record_submitted()
        chaos_point("serve.admit")
        breaker = self.health_tracker.breaker(request.document) \
            if self.breaker_policy is not None else None
        if breaker is not None and not breaker.allow():
            # Open circuit: shed at admission — no queue slot, no
            # worker.  (A duplicate that could have coalesced is shed
            # too; with the circuit open there is normally no leader to
            # ride anyway.)
            response = self._degraded_response(request)
            if response is not None:
                self.metrics.record_accepted()
                self.metrics.record_degraded()
                self.metrics.record_done(latency_seconds=0.0,
                                         queue_seconds=0.0, failed=False)
                execution = _Execution(request, self._clock(), None)
                execution.response = response
                execution.done.set()
                return PendingQuery(execution, coalesced=False)
            self.metrics.record_breaker_rejected()
            retry_after = breaker.retry_after()
            raise CircuitOpen(
                f"document {request.document!r} circuit is open "
                f"(retry in {retry_after:.2f} s)",
                document=request.document,
                retry_after_seconds=retry_after)
        key = request.coalesce_key()
        with self._admission_lock:
            if self._closed:
                raise ServiceClosed("query service is closed")
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics.record_coalesced()
                existing.coalesced += 1
                return PendingQuery(existing, coalesced=True)
            admitted = self._clock()
            deadline = None
            if request.timeout is not None:
                deadline = admitted + request.timeout
            execution = _Execution(request, admitted, deadline)
            try:
                self._queue.put_nowait(execution)
            except queue_module.Full:
                self.metrics.record_shed()
                raise ServiceOverloaded(
                    f"admission queue full ({self.queue_limit} waiting); "
                    f"request shed — retry later or lower concurrency",
                    queue_depth=self._queue.qsize(),
                    queue_limit=self.queue_limit) from None
            self._inflight[key] = execution
            self.metrics.record_accepted()
        return PendingQuery(execution, coalesced=False)

    def query(self, document: str, query: str,
              strategy: Optional[str] = None,
              timeout: Optional[float] = None,
              optimize: bool = True) -> List:
        """Submit one request and block for its results."""
        pending = self.submit(QueryRequest(document=document, query=query,
                                           strategy=strategy,
                                           timeout=timeout,
                                           optimize=optimize))
        return pending.result()

    # -- workers ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            execution = self._queue.get()
            if execution is _SENTINEL:
                self._queue.task_done()
                return
            try:
                self._run(execution)
            finally:
                self._queue.task_done()

    def _run(self, execution: _Execution) -> None:
        started = self._clock()
        queue_seconds = started - execution.admitted
        with self._admission_lock:
            self._in_flight_count += 1
        response = QueryResponse(request=execution.request,
                                 queue_seconds=queue_seconds)
        trace = None
        deadline_expired = False
        try:
            # Everything — including trace setup — runs inside this
            # try: an exception anywhere before completion must become
            # a typed response, never a dead worker with hanging
            # waiters (the shutdown/coalesce regression).
            trace = self._begin_trace(execution, queue_seconds, response)
            self._attempt_loop(execution, response, trace)
        except Exception as err:  # typed errors travel to the waiters
            err = typed_error(
                err, f"while serving {execution.request.query!r}")
            response.error = err
            if isinstance(err, BudgetExceeded) and err.kind == "wall":
                deadline_expired = True
        finally:
            response.exec_seconds = self._clock() - started
            key = execution.request.coalesce_key()
            with self._admission_lock:
                if self._inflight.get(key) is execution:
                    del self._inflight[key]
                self._in_flight_count -= 1
                coalesced = execution.coalesced
            if response.error is None and response.results is None:
                # A BaseException (worker being killed) skipped both
                # branches above: complete the execution typed rather
                # than leave the waiters hanging.
                response.error = InternalError(
                    "execution aborted before completion")
            if trace is not None:
                if response.error is not None:
                    trace.annotate(error=getattr(
                        response.error, "code",
                        type(response.error).__name__))
                trace.finish(coalesced=coalesced,
                             rows=len(response.results)
                             if response.results is not None else 0)
                if self._flight is not None:
                    self._flight.record(trace,
                                        latency=response.total_seconds)
            execution.response = response
            execution.done.set()
            self.metrics.record_done(
                latency_seconds=response.total_seconds,
                queue_seconds=queue_seconds,
                failed=response.error is not None,
                deadline_expired=deadline_expired)

    def _begin_trace(self, execution: _Execution, queue_seconds: float,
                     response: QueryResponse):
        if self.tracer is None:
            return None
        # The root span covers the whole request: it starts
        # queue_seconds in the past *on the tracer's own clock* (the
        # service clock may differ, e.g. a fake one under test), and
        # the already-elapsed wait is recorded as a completed child.
        trace = self.tracer.begin(
            "request", start_offset=-queue_seconds,
            document=execution.request.document,
            query=execution.request.query,
            strategy=execution.request.strategy or "default")
        if trace is not None:
            trace.add_span("queue", start=trace.root.start,
                           duration=queue_seconds)
            response.trace_id = trace.trace_id
        return trace

    def _attempt_loop(self, execution: _Execution,
                      response: QueryResponse, trace) -> None:
        """Execute the request, retrying per :attr:`retry_policy`.

        Transient faults retry on the same strategy, deterministic
        engine failures step down the policy's strategy chain; no
        retry ever starts when its backoff would cross the admission
        deadline.  Attempt outcomes feed the document's health/breaker.
        """
        request = execution.request
        # A deadline that lapsed while queued skips the execution.
        self._remaining(execution)
        policy = self.retry_policy
        strategies: List[Optional[str]] = [request.strategy]
        if policy is not None:
            strategies = policy.attempt_strategies(request.strategy)
        level = 0
        attempt = 0
        while True:
            attempt += 1
            response.attempts = attempt
            try:
                chaos_point("serve.execute")
                self._execute(execution, strategies[level], trace,
                              response)
            except Exception as err:
                err = typed_error(err,
                                  f"while serving {request.query!r}")
                if isinstance(err, _HEALTH_ERRORS):
                    self.health_tracker.record_failure(request.document,
                                                       err)
                backoff = self._retry_backoff(policy, err, attempt,
                                              execution)
                if backoff is None:
                    raise err
                if policy.classify(err) == NEXT_STRATEGY \
                        and level + 1 < len(strategies):
                    level += 1
                self.metrics.record_retried()
                if trace is not None:
                    trace.event("retry", attempt=attempt,
                                error_code=err.code,
                                strategy=strategies[level] or "default",
                                backoff_ms=round(backoff * 1e3, 3))
                if backoff > 0:
                    time.sleep(backoff)
            else:
                self.health_tracker.record_success(request.document)
                return

    def _execute(self, execution: _Execution, strategy: Optional[str],
                 trace, response: QueryResponse) -> None:
        """One execution attempt — the service's executor seam: fill
        ``response.results`` or raise.  This one compiles and executes
        on the document's shared engine, in the calling worker thread;
        :class:`~repro.serve.ClusterService` scatters the attempt over
        its worker processes instead."""
        request = execution.request
        engine = self.catalog.engine(request.document)
        budgets = deadline_budgets(self.default_budgets,
                                   self._remaining(execution))
        compiled = engine.compile(request.query, optimize=request.optimize,
                                  tracing=trace)
        response.results = engine.execute(
            compiled, strategy=strategy, optimized=request.optimize,
            budgets=budgets, tracing=trace)

    def _remaining(self, execution: _Execution) -> Optional[float]:
        """Seconds left before the admission deadline (``None`` when
        the request has none); raises a wall :class:`BudgetExceeded`
        charging the whole elapsed time once it has passed."""
        if execution.deadline is None:
            return None
        now = self._clock()
        if now >= execution.deadline:
            elapsed = now - execution.admitted
            raise BudgetExceeded("wall", execution.request.timeout or 0.0,
                                 elapsed, elapsed_seconds=elapsed)
        return execution.deadline - now

    def _retry_backoff(self, policy: Optional[RetryPolicy],
                       err: Exception, attempt: int,
                       execution: _Execution) -> Optional[float]:
        """Backoff seconds before the next attempt, or ``None`` to give
        up (no policy, attempts exhausted, fatal error, or the sleep
        would cross the admission deadline)."""
        if policy is None or attempt >= policy.max_attempts:
            return None
        if policy.classify(err) == FATAL:
            return None
        backoff = policy.delay(attempt, self._retry_rng)
        if execution.deadline is not None and \
                self._clock() + backoff >= execution.deadline:
            return None
        return backoff

    def _degraded_response(self,
                           request: QueryRequest) -> Optional[QueryResponse]:
        """A provably-empty ``[]`` answer servable while the circuit is
        open, or ``None`` when the summary cannot prove emptiness (the
        engine must already be built — degraded mode never triggers the
        possibly-poisoned load path)."""
        if not self.degraded_mode:
            return None
        engine = self.catalog.engine_if_built(request.document)
        if engine is None:
            return None
        try:
            compiled = engine.compile(request.query, optimize=True)
            if not provably_empty(compiled, engine):
                return None
        except Exception:
            return None
        return QueryResponse(request=request, results=[], degraded=True)

    # -- introspection ------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters (see
        :class:`~repro.serve.metrics.ServiceStats`)."""
        with self._admission_lock:
            in_flight = self._in_flight_count
        return self.metrics.stats(queue_depth=self._queue.qsize(),
                                  in_flight=in_flight)

    def flight_recorder(self) -> Optional[FlightSnapshot]:
        """A snapshot of the retained request traces (the K slowest and
        most recent); ``None`` when the service runs untraced."""
        if self._flight is None:
            return None
        return self._flight.snapshot()

    def health(self) -> ServiceHealth:
        """Per-document health: outcome counters, breaker states, the
        catalog's quarantined set, and whether each document can serve
        degraded (provably-empty) answers while circuit-open."""
        return self.health_tracker.snapshot(
            quarantined=self.catalog.quarantined_names(),
            degraded_capable=self._degraded_capable())

    def probe(self, document: str) -> DocumentHealth:
        """Run the health tracker's probe query against ``document``
        and return its refreshed health.  A successful probe closes a
        half-open breaker without waiting for real traffic."""
        self.health_tracker.probe(
            document, lambda: self.catalog.engine(document))
        return self.health_tracker.document_health(
            document,
            degraded_capable=document in self._degraded_capable())

    def _degraded_capable(self) -> set:
        if not self.degraded_mode:
            return set()
        capable = set()
        for name in self.catalog.names():
            engine = self.catalog.engine_if_built(name)
            if engine is not None and engine.use_summary:
                capable.add(name)
        return capable

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_count(self) -> int:
        return len(self._threads)

    # -- lifecycle ----------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admitting requests and shut the workers down.

        With ``drain=True`` (default) queued requests finish first;
        with ``drain=False`` still-queued requests fail with
        :class:`~repro.guard.ServiceClosed`.  Idempotent.
        """
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            self._fail_queued()
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join()
        # Always sweep what the workers left behind: with drain=False,
        # requests that slipped in between the first sweep and the
        # sentinels; in either mode, anything a dead worker abandoned
        # — queued executions it never picked up and in-flight ones it
        # never completed (with their coalesced followers).  Waiters
        # get a typed ServiceClosed instead of hanging forever.
        self._fail_queued()
        self._fail_abandoned()

    def _fail_queued(self) -> None:
        while True:
            try:
                execution = self._queue.get_nowait()
            except queue_module.Empty:
                return
            self._queue.task_done()
            if execution is _SENTINEL:
                continue
            execution.response = QueryResponse(
                request=execution.request,
                error=ServiceClosed("service closed before execution"))
            key = execution.request.coalesce_key()
            with self._admission_lock:
                if self._inflight.get(key) is execution:
                    del self._inflight[key]
            execution.done.set()
            self.metrics.record_done(latency_seconds=0.0, queue_seconds=0.0,
                                     failed=True)

    def _fail_abandoned(self) -> None:
        """Complete every never-finished in-flight execution with a
        typed ServiceClosed (leaders a dead worker abandoned — and
        with them every coalesced follower waiting on the same
        event)."""
        with self._admission_lock:
            executions = list(self._inflight.values())
            self._inflight.clear()
        for execution in executions:
            if execution.done.is_set():
                continue
            execution.response = QueryResponse(
                request=execution.request,
                error=ServiceClosed(
                    "service closed before the execution completed"))
            execution.done.set()
            self.metrics.record_done(latency_seconds=0.0,
                                     queue_seconds=0.0, failed=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
