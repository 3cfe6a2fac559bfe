"""Multi-process sharded serving: scatter-gather over columnar shards.

:class:`ClusterService` is :class:`~repro.serve.QueryService` with a
different executor.  The service keeps everything a coordinator owns —
admission, shedding, coalescing, deadlines, retries, the per-document
breaker, degraded answers, request traces, stats, health and shutdown —
and the cluster replaces only its per-attempt execution step: instead
of running the attempt on the coordinator thread's shared engine
(GIL-bound), it dispatches it to a pool of **worker processes**
(:mod:`repro.serve.worker`), each mmap-opening the same saved columnar
shards read-only — the page cache is shared, so N workers cost one copy
of the columns — and runs the query either

* **scattered**: a shardable query is dispatched once per shard of its
  document, evaluated shard-locally (the shards are subtree-closed, see
  :mod:`repro.xmltree.shard`) and the partial results **k-way merged by
  global pre number** — byte-identical to a single-process evaluation;
* **whole-document**: everything else (positional predicates, FLWOR,
  aggregates, patterns whose predicates could need cross-shard
  witnesses) runs as one task on one worker against the full index.
  Requests still parallelize across the pool.

The **scatter planner** (:func:`scatter_plan`) is deliberately
conservative, in the style of
:func:`~repro.serve.resilience.provably_empty`: it admits exactly the
optimized plan shape ``[DDO*] MapToItem(FieldAccess, TupleTreePattern(
pattern, MapFromItem(bind, Var)))`` with downward axes only (child /
descendant / attribute), no positional steps, and no predicated first
step that could match the **root element** — the one node whose
children are split across shards, so an existential witness for it may
live in a different shard than the match.  Anything it cannot prove
shard-safe runs whole-document; wrong answers are never on the menu.

Executor details:

* **protocol** — length-prefixed pickle frames over the worker's
  stdin/stdout pipes (:func:`~repro.serve.worker.send_frame`);
  ``transport="inline"`` runs the same frame codec and worker code
  in-process for fast differential tests;
* **deadlines** — per-shard deadlines are derived **tighten-only** from
  the admission deadline: each task ships the remaining wall seconds at
  dispatch, which the worker maps onto its engine's
  :class:`~repro.guard.Budgets`;
* **errors** — workers reply with pickled typed REPRO-* errors
  (:mod:`repro.guard.errors` round-trips the whole taxonomy); a dead
  worker surfaces as :class:`~repro.guard.WorkerLost`, its in-flight
  tasks are re-dispatched once, and the pool **respawns** the worker
  (while the service closes, lost tasks fail typed instead);
* **resilience** — per-worker circuit breakers
  (:class:`~repro.serve.resilience.CircuitBreaker`) steer dispatch away
  from flapping workers; with ``allow_partial=True`` a scatter whose
  shards partially failed still answers with the merged successes and
  ``QueryResponse.partial=True``;
* **chaos** — sites ``cluster.dispatch`` / ``cluster.gather`` fire in
  the coordinator; worker processes re-activate the configured specs
  with seed ``base + worker_index``
  (:func:`~repro.guard.worker_seed`), so ``REPRO_CHAOS_SEED`` sweeps
  are reproducible across the pool;
* **tracing** — the service's ``request`` root span gets one ``shard``
  child span per task (coordinator-measured wait, worker-measured
  duration) with the worker's own span tree grafted under it, all
  under the same trace id.

See ``docs/CLUSTER.md`` for the architecture and ``benchmarks/
bench_serve.py`` (E13) for the scaling numbers.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.ops import (DDOPlan, FieldAccess, MapFromItem, MapToItem,
                           TupleTreePattern, VarPlan)
from ..guard import (BudgetExceeded, Budgets, ChaosSpec, CircuitOpen,
                     InjectedFault, InternalError, ReproError,
                     ServiceOverloaded, WorkerLost, chaos_point,
                     default_seed)
from ..pattern.tree import PatternPath, TreePattern
from ..trace import FlightRecorder, TraceContext, Tracer, graft_remote
from ..xmltree.axes import Axis
from ..xmltree.nodetest import NameTest, TextTest
from ..xmltree.shard import ShardManifest, write_shard_layout
from .catalog import DocumentCatalog
from .metrics import LatencyHistogram
from .resilience import BreakerPolicy, CircuitBreaker
from .service import (DEFAULT_QUEUE_LIMIT, QueryResponse, QueryService,
                      _Execution)
from .worker import ShardWorker, recv_frame, send_frame

__all__ = ["ClusterLayout", "ClusterService", "ClusterStats",
           "WorkerStats", "merge_shard_results", "scatter_plan"]

#: axes a scatterable pattern may use: strictly downward, strictly
#: depth-increasing (SELF / DESCENDANT_OR_SELF would let deep steps
#: match the replicated spine, breaking the depth argument below).
_SCATTER_AXES = (Axis.CHILD, Axis.DESCENDANT, Axis.ATTRIBUTE)


# -- layout ------------------------------------------------------------------


@dataclass
class ClusterLayout:
    """The on-disk shard layouts one cluster serves: per document name,
    a :class:`~repro.xmltree.shard.ShardManifest` in ``directory``."""

    directory: str
    manifests: Dict[str, ShardManifest] = field(default_factory=dict)

    @classmethod
    def build(cls, documents: Dict[str, Any], directory: str,
              shard_count: int) -> "ClusterLayout":
        """Shard every document's columns into ``directory`` (see
        :func:`~repro.xmltree.shard.write_shard_layout`)."""
        layout = cls(directory=os.path.abspath(directory))
        for name, columns in documents.items():
            manifest_path = write_shard_layout(columns, layout.directory,
                                               name, shard_count)
            layout.manifests[name] = ShardManifest.load(manifest_path)
        return layout

    @classmethod
    def load(cls, directory: str) -> "ClusterLayout":
        """Scan ``directory`` for ``*.manifest.json`` files."""
        layout = cls(directory=os.path.abspath(directory))
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".manifest.json"):
                manifest = ShardManifest.load(
                    os.path.join(directory, entry))
                layout.manifests[manifest.name] = manifest
        return layout

    def worker_documents(self) -> Dict[str, Dict[str, str]]:
        """The ``documents`` section of a worker init frame."""
        return {name: {"directory": self.directory,
                       "manifest": f"{name}.manifest.json"}
                for name in self.manifests}


# -- scatter planner ---------------------------------------------------------


def scatter_plan(compiled, root_tag: str) -> bool:
    """True when the compiled query's **optimized** plan can be
    evaluated independently per shard and merged by pre number.

    Conservative by construction: admits only the canonical path shape
    (an optional DDO stack over ``MapToItem(FieldAccess(out),
    TupleTreePattern(pattern, MapFromItem(bind, $external)))``) whose
    pattern is downward, position-free, and whose first step cannot be
    a predicated match of the root element (the only non-attribute node
    whose subtree spans shards; ``root_tag`` names it).  Everything
    else — aggregates, FLWOR, positional predicates, Select stacks —
    returns False and runs whole-document.
    """
    plan = compiled.optimized
    while isinstance(plan, DDOPlan):
        plan = plan.input
    if not isinstance(plan, MapToItem):
        return False
    dep = plan.dep
    if not isinstance(dep, FieldAccess):
        return False
    pattern_op = plan.input
    if not isinstance(pattern_op, TupleTreePattern):
        return False
    source = pattern_op.input
    if not isinstance(source, MapFromItem) \
            or source.index_field is not None:
        return False
    if not isinstance(source.input, VarPlan) \
            or source.input.var.origin != "external":
        # Only the engine-bound document root is replicated into every
        # shard; anything else anchors the pattern unpredictably.
        return False
    pattern = pattern_op.pattern
    if source.bind_field != pattern.input_field:
        return False
    if not pattern.is_single_output_at_extraction_point():
        return False
    if pattern.extraction_point.output_field != dep.field:
        return False
    return _pattern_scatterable(pattern, root_tag)


def _pattern_scatterable(pattern: TreePattern, root_tag: str) -> bool:
    if not _path_downward(pattern.path):
        return False
    first = pattern.path.steps[0]
    # Only the first main-path step can match the root element (every
    # admitted axis strictly increases depth, and the context — the
    # document node — sits at depth 0).  A predicate there may need a
    # witness from a child subtree living in another shard.
    if first.predicates and first.axis in (Axis.CHILD, Axis.DESCENDANT) \
            and _may_match_root(first.test, root_tag):
        return False
    return True


def _path_downward(path: PatternPath) -> bool:
    for step in path.steps:
        if step.axis not in _SCATTER_AXES:
            return False
        if step.position is not None:
            return False
        for predicate in step.predicates:
            if not _path_downward(predicate):
                return False
    return True


def _may_match_root(test, root_tag: str) -> bool:
    if isinstance(test, TextTest):
        return False
    if isinstance(test, NameTest):
        return test.name == root_tag
    # Wildcards, kind tests, anything else: assume it can.
    return True


# -- merge -------------------------------------------------------------------


def merge_shard_results(
        streams: Sequence[Sequence[Tuple[str, int]]]) -> List[int]:
    """K-way merge shard result streams into one global-pre list.

    Each stream is the encoded result of one shard — ``("n",
    global_pre)`` pairs in strictly increasing pre order (shard-local
    document order maps monotonically onto global order).  Spine nodes
    appear in several streams; duplicates are dropped, so the merged
    list is exactly the distinct-document-order union.
    """
    merged: List[int] = []
    last = -1
    for tag, pre in heapq.merge(*streams, key=lambda item: item[1]):
        if tag != "n":
            raise InternalError(
                f"scatter stream carries a non-node item tagged "
                f"{tag!r}; the scatter planner admitted a plan it "
                f"should not have")
        if pre != last:
            merged.append(pre)
            last = pre
    return merged


# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class WorkerStats:
    """One worker's counters at snapshot time."""

    index: int
    pid: Optional[int]
    alive: bool
    dispatched: int
    completed: int
    failed: int
    queue_depth: int
    breaker_state: str
    #: cumulative worker-self-measured task execution seconds — the
    #: per-worker utilization series on ``/metrics``.
    busy_seconds: float = 0.0


@dataclass
class ClusterStats:
    """Cluster-level counters next to the base :class:`ServiceStats`."""

    workers: List[WorkerStats]
    respawns: int
    partials: int
    scattered: int
    whole_document: int
    #: per ``document/shard`` latency histograms (worker-measured
    #: execution seconds; shard ``-1`` is the whole-document path).
    shard_latency: Dict[str, LatencyHistogram]

    def report(self) -> str:
        lines = [
            f"cluster    : {len(self.workers)} workers, "
            f"respawns={self.respawns} scattered={self.scattered} "
            f"whole={self.whole_document} partials={self.partials}",
        ]
        for worker in self.workers:
            lines.append(
                f"worker {worker.index}   : "
                f"{'alive' if worker.alive else 'dead '} "
                f"pid={worker.pid} dispatched={worker.dispatched} "
                f"completed={worker.completed} failed={worker.failed} "
                f"queue={worker.queue_depth} "
                f"breaker={worker.breaker_state}")
        for key in sorted(self.shard_latency):
            histogram = self.shard_latency[key]
            if histogram.count:
                lines.append(
                    f"shard {key}: n={histogram.count} "
                    f"p50={histogram.quantile(0.5) * 1e3:.2f}ms "
                    f"p95={histogram.quantile(0.95) * 1e3:.2f}ms")
        return "\n".join(lines)


class _ClusterMetrics:
    """Thread-safe per-worker / per-shard counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.dispatched: Dict[int, int] = {}
        self.completed: Dict[int, int] = {}
        self.failed: Dict[int, int] = {}
        self.busy_seconds: Dict[int, float] = {}
        self.respawns = 0
        self.partials = 0
        self.scattered = 0
        self.whole_document = 0
        self.shard_latency: Dict[str, LatencyHistogram] = {}

    def record_dispatched(self, worker: int) -> None:
        with self._lock:
            self.dispatched[worker] = self.dispatched.get(worker, 0) + 1

    def record_result(self, worker: int, document: str, shard: Optional[int],
                      seconds: float, ok: bool) -> None:
        key = f"{document}/{-1 if shard is None else shard}"
        with self._lock:
            if ok:
                self.completed[worker] = self.completed.get(worker, 0) + 1
            else:
                self.failed[worker] = self.failed.get(worker, 0) + 1
            self.busy_seconds[worker] = \
                self.busy_seconds.get(worker, 0.0) + seconds
            histogram = self.shard_latency.get(key)
            if histogram is None:
                histogram = self.shard_latency[key] = LatencyHistogram()
        histogram.record(seconds)

    def record_respawn(self) -> None:
        with self._lock:
            self.respawns += 1

    def record_partial(self) -> None:
        with self._lock:
            self.partials += 1

    def record_mode(self, scattered: bool) -> None:
        with self._lock:
            if scattered:
                self.scattered += 1
            else:
                self.whole_document += 1


# -- attempts and tasks ------------------------------------------------------


class _Attempt:
    """One execution attempt's fan-out: the task frame every shard
    task shares, its tasks, and the countdown the coordinator thread
    waits on."""

    def __init__(self, execution: _Execution,
                 message: Dict[str, Any]) -> None:
        self.execution = execution
        self.message = message
        self.tasks: List["_Task"] = []
        self.pending = 0
        self.done = threading.Event()


class _Task:
    """One dispatched unit: a (document, shard) evaluation."""

    __slots__ = ("task_id", "attempt", "shard", "worker", "dispatched",
                 "received", "exec_seconds", "ok", "items", "error",
                 "retried", "finished", "remote_trace")

    def __init__(self, task_id: int, attempt: _Attempt,
                 shard: Optional[int], worker: int) -> None:
        self.task_id = task_id
        self.attempt = attempt
        self.shard = shard
        self.worker = worker
        self.dispatched = 0.0
        #: coordinator-clock instant the result frame arrived (0.0 when
        #: the task failed without one) — with ``dispatched`` it bounds
        #: the dispatch→first-frame wait on ONE clock.
        self.received = 0.0
        self.exec_seconds = 0.0
        self.ok = False
        self.items: Optional[List[Tuple[str, Any]]] = None
        self.error: Optional[Exception] = None
        self.retried = False
        self.finished = False
        #: packed worker span payload (:func:`repro.trace.pack_trace`)
        #: when the request was sampled and the worker replied with one.
        self.remote_trace: Optional[Dict[str, Any]] = None


# -- transports --------------------------------------------------------------


class _ProcessTransport:
    """A worker subprocess plus its reader thread."""

    def __init__(self, service: "ClusterService", index: int) -> None:
        self.service = service
        self.index = index
        self._write_lock = threading.Lock()
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = package_root if not existing \
            else package_root + os.pathsep + existing
        # -c instead of -m: the package __init__ imports .worker, and
        # runpy warns when the -m target is already in sys.modules.
        self.process = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.serve.worker import main; "
             "sys.exit(main())"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=None, env=env, cwd=service.layout.directory)
        self.reader = threading.Thread(
            target=self._reader_loop,
            name=f"repro-cluster-reader-{index}", daemon=True)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def start(self, init: Dict[str, Any]) -> None:
        self.send(init)
        self.reader.start()

    def send(self, message: Dict[str, Any]) -> None:
        with self._write_lock:
            send_frame(self.process.stdin, message)

    def _reader_loop(self) -> None:
        stream = self.process.stdout
        try:
            while True:
                message = recv_frame(stream)
                if message is None:
                    break
                self.service._on_frame(self.index, message)
        except Exception:
            pass
        self.service._on_worker_exit(self.index, self)

    def shutdown(self) -> None:
        try:
            self.send({"type": "shutdown"})
        except Exception:
            pass
        try:
            self.process.stdin.close()
        except Exception:
            pass

    def reap(self, timeout: float = 5.0) -> None:
        """Wait for exit, escalating to terminate/kill — the no-orphan
        guarantee behind the CI leak check."""
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except Exception:
                pass
        if self.reader.is_alive() and self.reader is not \
                threading.current_thread():
            self.reader.join(timeout=2.0)


class _InlineTransport:
    """The worker code path without the process: frames still go
    through the pickle codec (wire fidelity), execution is synchronous
    in the caller's thread.  For tests — fast, deterministic, and the
    ambient in-process chaos injector applies."""

    def __init__(self, service: "ClusterService", index: int) -> None:
        self.service = service
        self.index = index
        self.worker: Optional[ShardWorker] = None
        self._closed = False

    @property
    def pid(self) -> Optional[int]:
        return os.getpid()

    def alive(self) -> bool:
        return not self._closed

    def start(self, init: Dict[str, Any]) -> None:
        init = pickle.loads(pickle.dumps(init))
        self.worker = ShardWorker.from_init(init)

    def send(self, message: Dict[str, Any]) -> None:
        if self._closed:
            raise BrokenPipeError("inline worker is closed")
        message = pickle.loads(pickle.dumps(message))
        if message.get("type") == "task":
            result = self.worker.handle(message)
            self.service._on_frame(self.index,
                                   pickle.loads(pickle.dumps(result)))

    def shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            if self.worker is not None:
                self.worker.close()

    def reap(self, timeout: float = 5.0) -> None:
        self.shutdown()


# -- the coordinator ---------------------------------------------------------


class ClusterService(QueryService):
    """The query service with a shard executor: scatter-gather over a
    pool of worker processes.

    ::

        layout = ClusterLayout.build({"site": doc.columns}, tmp, 4)
        with ClusterService(layout, workers=4) as cluster:
            names = cluster.query("site", "$input//person/name")

    Admission, shedding, coalescing, deadlines, retries, the
    per-document breaker, degraded answers, request traces,
    ``stats()``, ``health()`` and ``close(drain=)`` are
    :class:`~repro.serve.QueryService`'s own.  The cluster replaces
    only the per-attempt execution step (:meth:`_execute`): on one of
    ``workers`` coordinator threads it dispatches the attempt's shard
    tasks, blocks until they are gathered and merges them.
    ``queue_limit`` bounds the admission queue and, separately, the
    dispatched tasks: an attempt that needs more task slots than remain
    fails with :class:`~repro.guard.ServiceOverloaded`.  ``catalog``
    supplies the engines used for the scatter decision and node
    rehydration; when omitted, one is built from the layout's full
    indexes (and closed with the service).
    """

    def __init__(self, layout: ClusterLayout,
                 workers: int = 4,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 catalog: Optional[DocumentCatalog] = None,
                 transport: str = "process",
                 backend: str = "compiled",
                 use_summary: bool = True,
                 default_budgets: Optional[Budgets] = None,
                 clock=time.perf_counter,
                 tracer: Optional[Tracer] = None,
                 flight_recorder: Optional[FlightRecorder] = None,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 allow_partial: bool = False,
                 respawn: bool = True,
                 chaos_specs: Sequence[ChaosSpec] = (),
                 chaos_seed: Optional[int] = None) -> None:
        if transport not in ("process", "inline"):
            raise ValueError(f"unknown transport {transport!r}; "
                             f"valid: process, inline")
        self._owns_catalog = catalog is None
        if catalog is None:
            catalog = DocumentCatalog()
            for name, manifest in layout.manifests.items():
                catalog.add_columnar_file(
                    name,
                    os.path.join(layout.directory, manifest.index_file),
                    verify=False)
        super().__init__(catalog, workers=workers, queue_limit=queue_limit,
                         default_budgets=default_budgets, clock=clock,
                         tracer=tracer, flight_recorder=flight_recorder,
                         breaker_policy=breaker_policy)
        self.layout = layout
        self.transport = transport
        self.backend = backend
        self.use_summary = use_summary
        self.allow_partial = allow_partial
        self.respawn = respawn
        self._chaos_specs = tuple(chaos_specs)
        self._chaos_seed = chaos_seed
        self.cluster_metrics = _ClusterMetrics()
        self._owned_directory: Optional[str] = None

        self._lock = threading.Lock()
        self._next_task_id = 0
        self._tasks: Dict[int, _Task] = {}
        self._inflight_per_worker: Dict[int, int] = \
            {index: 0 for index in range(workers)}
        self._rr = 0
        self._breakers: Dict[int, CircuitBreaker] = {}
        if breaker_policy is not None:
            self._breakers = {
                index: CircuitBreaker(breaker_policy, clock=clock)
                for index in range(workers)}
        self._workers: List[Any] = []
        for index in range(workers):
            self._workers.append(self._spawn(index))

    # -- pool management -----------------------------------------------------

    def _spawn(self, index: int):
        transport = _ProcessTransport(self, index) \
            if self.transport == "process" \
            else _InlineTransport(self, index)
        transport.start(self._init_message(index))
        return transport

    def _init_message(self, index: int) -> Dict[str, Any]:
        chaos = None
        if self._chaos_specs and self.transport == "process":
            chaos = {"specs": list(self._chaos_specs),
                     "seed": default_seed() if self._chaos_seed is None
                     else self._chaos_seed}
        return {"type": "init", "worker_index": index,
                "documents": self.layout.worker_documents(),
                "engine": {"backend": self.backend,
                           "use_summary": self.use_summary,
                           "default_budgets": self.default_budgets},
                "chaos": chaos}

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[Optional[int]]:
        return [transport.pid for transport in self._workers]

    # -- the shard executor --------------------------------------------------

    def _execute(self, execution: _Execution, strategy: Optional[str],
                 trace, response: QueryResponse) -> None:
        """One attempt as shard tasks: decide scatter vs whole-document,
        dispatch, wait for every task, then merge into ``response``."""
        request = execution.request
        manifest = self.layout.manifests.get(request.document)
        if manifest is None:
            raise ReproError(
                f"unknown cluster document {request.document!r}; "
                f"known: {sorted(self.layout.manifests)}",
                code="REPRO-CLUSTER-DOCUMENT")
        engine = self.catalog.engine(request.document)
        scattered = request.optimize and manifest.shard_count > 1 \
            and scatter_plan(engine.compile(request.query, optimize=True),
                             manifest.root_tag)
        message = {"type": "task", "document": request.document,
                   "query": request.query, "strategy": strategy,
                   "optimize": request.optimize,
                   "timeout": request.timeout}
        if trace is not None:
            # Context presence IS the sampling decision: only sampled
            # requests make the workers trace.
            message["trace"] = TraceContext(
                trace.trace_id, trace.root.span_id).to_wire()
        attempt = _Attempt(execution, message)
        shards: List[Optional[int]] = \
            list(range(manifest.shard_count)) if scattered else [None]
        with self._lock:
            in_flight = len(self._tasks)
            if in_flight + len(shards) > self.queue_limit:
                self.metrics.record_shed()
                raise ServiceOverloaded(
                    f"cluster task queue full ({in_flight} in flight, "
                    f"limit {self.queue_limit}); request shed",
                    queue_depth=in_flight, queue_limit=self.queue_limit)
            workers = [self._pick_worker_locked(request.document)
                       for _ in shards]
            for shard, worker in zip(shards, workers):
                task = _Task(self._next_task_id, attempt, shard, worker)
                self._next_task_id += 1
                attempt.tasks.append(task)
                self._tasks[task.task_id] = task
                self._inflight_per_worker[worker] += 1
            attempt.pending = len(attempt.tasks)
        self.cluster_metrics.record_mode(scattered)
        for task in attempt.tasks:
            self._dispatch(task)
        attempt.done.wait()
        if trace is not None:
            trace.annotate(cluster=True, scattered=scattered)
            self._graft_shards(trace, attempt.tasks)
        self._merge(attempt.tasks, engine.document, scattered, response)

    def _pick_worker_locked(self, document: str) -> int:
        """Round-robin over live workers whose breaker admits traffic."""
        count = len(self._workers)
        candidates = []
        for offset in range(count):
            index = (self._rr + offset) % count
            if not self._workers[index].alive():
                continue
            breaker = self._breakers.get(index)
            if breaker is not None and not breaker.allow():
                continue
            candidates.append(index)
        if not candidates:
            retry_after = 0.0
            for breaker in self._breakers.values():
                retry_after = max(retry_after, breaker.retry_after())
            self.metrics.record_breaker_rejected()
            raise CircuitOpen(
                "every cluster worker's circuit is open",
                document=document, retry_after_seconds=retry_after)
        chosen = candidates[0]
        self._rr = (chosen + 1) % count
        return chosen

    def _dispatch(self, task: _Task) -> None:
        try:
            remaining = self._remaining(task.attempt.execution)
        except BudgetExceeded as err:
            self._complete_task(task, error=err)
            return
        message = dict(task.attempt.message, task_id=task.task_id,
                       shard=task.shard, remaining=remaining)
        task.dispatched = self._clock()
        self.cluster_metrics.record_dispatched(task.worker)
        transport = self._workers[task.worker]
        try:
            chaos_point("cluster.dispatch")
            transport.send(message)
        except InjectedFault as fault:
            self._complete_task(task, error=fault)
        except Exception:
            # The pipe broke mid-write: the worker is gone.  The exit
            # path re-dispatches or fails this task.
            self._on_worker_exit(task.worker, transport)

    # -- gather --------------------------------------------------------------

    def _on_frame(self, worker_index: int, message: Dict[str, Any]) -> None:
        if message.get("type") != "result":
            return
        with self._lock:
            task = self._tasks.get(message.get("task_id"))
        if task is None or task.worker != worker_index:
            return
        task.exec_seconds = message.get("exec_seconds", 0.0)
        task.received = self._clock()
        task.remote_trace = message.get("trace")
        ok = bool(message.get("ok"))
        self.cluster_metrics.record_result(
            worker_index, task.attempt.message["document"], task.shard,
            task.exec_seconds, ok)
        breaker = self._breakers.get(worker_index)
        if breaker is not None:
            # A frame — success or typed query error — proves the
            # worker itself is healthy.
            breaker.record_success()
        try:
            chaos_point("cluster.gather")
        except InjectedFault as fault:
            self._complete_task(task, error=fault)
            return
        if ok:
            self._complete_task(task, items=message.get("items", []))
        else:
            error = message.get("error")
            if not isinstance(error, Exception):
                error = InternalError(
                    f"worker {worker_index} reported a malformed "
                    f"error payload: {error!r}")
            self._complete_task(task, error=error)

    def _complete_task(self, task: _Task,
                       items: Optional[List[Tuple[str, Any]]] = None,
                       error: Optional[Exception] = None) -> None:
        attempt = task.attempt
        with self._lock:
            if task.finished:
                return
            task.finished = True
            task.ok = error is None
            task.items = items
            task.error = error
            self._tasks.pop(task.task_id, None)
            if task.worker in self._inflight_per_worker:
                self._inflight_per_worker[task.worker] = max(
                    0, self._inflight_per_worker[task.worker] - 1)
            attempt.pending -= 1
            if attempt.pending == 0:
                attempt.done.set()

    def _merge(self, tasks: List[_Task], document, scattered: bool,
               response: QueryResponse) -> None:
        failed = [task for task in tasks if not task.ok]
        succeeded = [task for task in tasks if task.ok]
        if failed and not (scattered and succeeded and self.allow_partial):
            raise failed[0].error
        if not scattered:
            (task,) = tasks
            response.results = [
                document.node_at(value) if tag == "n" else value
                for tag, value in task.items]
            return
        merged = merge_shard_results([task.items for task in succeeded])
        response.results = [document.node_at(pre) for pre in merged]
        if failed:
            response.partial = True
            self.cluster_metrics.record_partial()
            self.metrics.record_degraded()

    def _graft_shards(self, trace, tasks: List[_Task]) -> None:
        """One ``shard`` span per task, each with the worker's own span
        tree grafted under it when the worker sent one."""
        for task in tasks:
            # Every instant here is coordinator-clock: the shard span
            # covers dispatch -> result-frame arrival as this process
            # measured it.  The worker's self-measured execution time
            # rides along as ``worker_seconds`` — an attribute, never a
            # position — so clock skew between the two processes cannot
            # produce negative gaps in the stitched tree.
            dispatch_offset = max(task.dispatched - trace.root.start, 0.0) \
                if task.dispatched else 0.0
            wait = max(task.received - task.dispatched, 0.0) \
                if task.dispatched and task.received else 0.0
            payload = task.remote_trace
            duration = wait
            if payload is not None:
                # Under rate skew the worker may report a longer
                # execution than the coordinator-observed wait; widen
                # the envelope so grafted children still nest inside it.
                duration = max(duration, payload.get("duration", 0.0))
            shard = -1 if task.shard is None else task.shard
            shard_span = trace.add_span(
                "shard", start=trace.root.start + dispatch_offset,
                duration=duration, shard=shard, worker=task.worker,
                ok=task.ok, wait_seconds=wait,
                worker_seconds=task.exec_seconds)
            if payload is not None and trace.spans \
                    and trace.spans[-1] is shard_span:
                # Only graft when the shard span itself survived the
                # buffer cap — stitching under a dropped span would
                # break the no-dropped-parent invariant.
                try:
                    graft_remote(trace, payload, anchor=shard_span.start,
                                 parent_id=shard_span.span_id,
                                 attrs={"worker": task.worker,
                                        "shard": shard})
                except ValueError as err:
                    trace.event("graft-failed", error=str(err))

    # -- worker loss ---------------------------------------------------------

    def _on_worker_exit(self, index: int, transport) -> None:
        with self._lock:
            if index >= len(self._workers) \
                    or self._workers[index] is not transport:
                return  # already replaced
            lost = [task for task in self._tasks.values()
                    if task.worker == index and not task.finished]
            closing = self._closed
            replacement = None
            if self.respawn and not closing:
                self.cluster_metrics.record_respawn()
                replacement = _ProcessTransport(self, index) \
                    if self.transport == "process" \
                    else _InlineTransport(self, index)
                self._workers[index] = replacement
            self._inflight_per_worker[index] = 0
        if not closing:
            # (While closing, close() itself reaps every transport.)
            breaker = self._breakers.get(index)
            if breaker is not None:
                breaker.record_failure()
            if replacement is not None:
                try:
                    replacement.start(self._init_message(index))
                except Exception:
                    pass
            transport.reap(timeout=0.5)
        # Re-dispatched once while running; failed typed while closing,
        # which unblocks the coordinator thread a drain is waiting on.
        for task in lost:
            self._retry_or_fail(task, index)

    def _retry_or_fail(self, task: _Task, dead_index: int) -> None:
        error = WorkerLost(
            f"cluster worker {dead_index} died while evaluating "
            f"{task.attempt.message['query']!r}", worker_index=dead_index)
        if task.retried or self._closed:
            self._complete_task(task, error=error)
            return
        with self._lock:
            if task.finished:
                return
            try:
                worker = self._pick_worker_locked(
                    task.attempt.message["document"])
            except ReproError:
                worker = None
            if worker is not None:
                old = task.worker
                task.worker = worker
                task.retried = True
                if old in self._inflight_per_worker:
                    self._inflight_per_worker[old] = max(
                        0, self._inflight_per_worker[old] - 1)
                self._inflight_per_worker[worker] = \
                    self._inflight_per_worker.get(worker, 0) + 1
        if worker is None:
            self._complete_task(task, error=error)
        else:
            self.metrics.record_retried()
            self._dispatch(task)

    # -- introspection -------------------------------------------------------

    def cluster_stats(self) -> ClusterStats:
        metrics = self.cluster_metrics
        with self._lock:
            inflight = dict(self._inflight_per_worker)
            workers = []
            for index, transport in enumerate(self._workers):
                breaker = self._breakers.get(index)
                workers.append(WorkerStats(
                    index=index, pid=transport.pid,
                    alive=transport.alive(),
                    dispatched=metrics.dispatched.get(index, 0),
                    completed=metrics.completed.get(index, 0),
                    failed=metrics.failed.get(index, 0),
                    queue_depth=inflight.get(index, 0),
                    breaker_state=breaker.state if breaker is not None
                    else "disabled",
                    busy_seconds=metrics.busy_seconds.get(index, 0.0)))
        with metrics._lock:
            latency = {key: histogram.snapshot()
                       for key, histogram
                       in metrics.shard_latency.items()}
        return ClusterStats(workers=workers, respawns=metrics.respawns,
                            partials=metrics.partials,
                            scattered=metrics.scattered,
                            whole_document=metrics.whole_document,
                            shard_latency=latency)

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def from_catalog(cls, catalog: DocumentCatalog,
                     directory: Optional[str] = None,
                     shard_count: int = 4,
                     **options) -> "ClusterService":
        """Shard every catalog document into ``directory`` (a private
        temporary directory when omitted — removed on ``close``) and
        build a cluster over the layout.  The catalog's engines serve
        as the coordinator's rehydration/baseline side."""
        owned = directory is None
        if owned:
            directory = tempfile.mkdtemp(prefix="repro-cluster-")
        documents = {name: catalog.engine(name).document.columns
                     for name in catalog.names()}
        layout = ClusterLayout.build(documents, directory, shard_count)
        service = cls(layout, catalog=catalog, **options)
        if owned:
            service._owned_directory = directory
        return service

    def close(self, drain: bool = True) -> None:
        """:meth:`QueryService.close`, then shut every worker down and
        reap it (no orphan processes, no open pipes), release an owned
        catalog's shard mmaps and remove an owned layout directory.
        Idempotent."""
        super().close(drain)
        for transport in self._workers:
            transport.shutdown()
        for transport in self._workers:
            transport.reap()
        if self._owns_catalog:
            for name in self.catalog.names():
                engine = self.catalog.engine_if_built(name)
                if engine is not None:
                    engine.document.close()
        if self._owned_directory is not None:
            shutil.rmtree(self._owned_directory, ignore_errors=True)
