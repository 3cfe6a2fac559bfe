"""The four workloads and the measurement loop.

Every workload enters the program only through its public entry points
(``Engine.from_file`` / ``run`` / ``compile`` / ``execute`` /
``run_traced``, ``IndexedDocument.save``, ``serialize``,
``DocumentCatalog``, ``QueryService``, ``ClusterService``) and opens
every document from a file, so a change to the store is measured, not
bypassed.

A run sets the workload up ``setup_repeats`` times (``setup_s`` is
the median) and keeps the last set-up for the measured loop.  The loop
is closed: each client sends its next op only after the previous one
returned its serialized result.  Latency is the benchmark's own
``perf_counter`` around each op, scaled for the machine's momentary
speed (see :data:`REFERENCE_CALIBRATION_S`).  With ``trace=True`` the
run makes an untraced pass for half the time, then a traced pass over
the same ops, and reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Engine, ExecMetrics
from repro.guard import ReproError
from repro.serve import DocumentCatalog, QueryService
from repro.serve.cluster import ClusterLayout, ClusterService
from repro.serve.service import QueryRequest
from repro.trace import Tracer

import spans
from inputs import BACKENDS, digest, render, request_key

PHYSICAL = ("nljoin", "twigjoin", "scjoin", "stacktree", "streaming")
CLIENTS = {"cold_start": 1, "warm_mix": 2, "compile_churn": 1,
           "cluster_mix": 2}
SERVICE_WORKERS = 2
CLUSTER_SHARDS = 2

#: self-time layers whose per-op mean is reported as ``<layer>_ms``.
SELF_TIME_LAYERS = (
    "xmltree.columnar.open", "xmltree.document.materialize",
    "xmltree.summary.build", "xmltree.columnar.derive",
    "xmltree.serializer.serialize",
    "xquery.parse", "xqcore.normalize", "rewrite.tpnf", "algebra.compile",
    "algebra.optimize", "compiled.codegen", "engine.compile.self",
    *(f"physical.{name}.eval" for name in PHYSICAL),
    "physical.cost.choose", "algebra.eval.self", "compiled.runtime.self",
    "serve.service.self", "serve.service.queue_wait", "serve.cluster.self",
    "serve.cluster.dispatch_wait", "serve.cluster.merge",
    "serve.worker.self", "bench.unattributed",
)

#: spans of the benchmark's own bookkeeping, kept out of every sum.
CENSUS = "bench.gc_census"

#: end-to-end times are scaled to a machine on which
#: :func:`calibration_loop` takes this long (about its first quartile on
#: the 2-core box the bounds in BENCHMARK.json were set on), because
#: that machine's speed for Python drifts by 10-30% from one run to the
#: next and can flip between two speeds within a run.  The measured
#: loop's scale is this over the first quartile of the calibration
#: samples its clients take between ops; the quartile rather than the
#: median, because with two clients a sample can overlap the other
#: client's request and wait for the interpreter lock.  Each set-up is
#: scaled by calibration samples taken just before and just after it.
REFERENCE_CALIBRATION_S = 2.0e-3
CALIBRATION_INTERVAL_S = 0.02
#: calibration samples taken just before and just after each set-up.
SETUP_CALIBRATION_SAMPLES = 15


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory (``VmHWM``) of this process or ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class TraceInbox:
    """A flight recorder that hands each finished request trace to the
    client waiting for it (the services call ``record`` before they
    complete the request)."""

    def __init__(self) -> None:
        self._traces: Dict[str, object] = {}

    def record(self, trace, latency: Optional[float] = None) -> None:
        self._traces[trace.trace_id] = trace

    def take(self, trace_id: Optional[str]):
        return self._traces.pop(trace_id, None) if trace_id else None


class ClientLog:
    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.trees: List[spans.Node] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.errors: Counter = Counter()
        #: seconds of the benchmark's own work between ops.
        self.own = 0.0
        #: seconds per :func:`calibration_loop` sample.
        self.calibrations: List[float] = []
        self.end = 0.0


# -- workloads -----------------------------------------------------------------


class Workload:
    """Set-up, the op each client repeats, and layer collection."""

    #: set-ups per run; ``setup_s`` is their median.
    setup_repeats = 9

    def __init__(self, name: str, inputs: Dict, directory: str) -> None:
        self.inputs = inputs
        self.directory = directory
        self.expected = inputs["expected"]
        self.requests = inputs["requests"]
        self.clients = CLIENTS[name]
        self.tracer: Optional[Tracer] = None
        self.gc_probe: Optional["GCProbe"] = None
        self.setup_layers: Dict[str, List[float]] = defaultdict(list)
        #: per-layer values only the workload can produce.
        self.extra: Dict[str, float] = {}
        self.exec_metrics = ExecMetrics()
        self.traced_runs = 0
        self.cache_hits = 0
        #: TupleTreePattern operators over ``pattern_queries`` plans.
        self.tree_patterns = 0
        self.pattern_queries = 0
        self.compiled_runs = 0
        self.codegen_refusals = 0

    # set-up helpers -------------------------------------------------------

    def ingest(self, name: str) -> str:
        """``repro index``: parse the XML, index it, save ``.rpxc``."""
        spec = self.inputs["documents"][name]
        xml = os.path.join(self.directory, spec["xml"])
        target = os.path.join(self.directory, f"{name}.rpxc")
        started = time.perf_counter()
        engine = Engine.from_file(xml, store="object")
        saved = time.perf_counter()
        spec["rpxc_bytes"] = engine.document.save(target)
        done = time.perf_counter()
        engine.document.close()
        self.setup_layers["xmltree.parser.ingest_ms"].append(
            (saved - started) * 1e3)
        self.setup_layers["xmltree.columnar.save_ms"].append(
            (done - saved) * 1e3)
        return target

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def op(self, client: int, index: int) -> Tuple[str, str, List[str]]:
        raise NotImplementedError

    def traced_op(self, client: int, index: int,
                  trace: spans.OpTrace) -> Tuple[str, str, List[str]]:
        raise NotImplementedError

    def between_ops(self) -> None:
        """The benchmark's own work between two ops of a client."""

    def begin_pass(self) -> None:
        """Snapshot program counters before the untraced pass."""

    def end_pass(self, wall: float, ops: int) -> None:
        """Read program counters after the untraced pass."""

    def replay_layers(self) -> None:
        """Per-layer counts gathered outside the timed passes."""

    def process_rss_mb(self) -> float:
        return peak_rss_mb()

    # traced-op helpers ----------------------------------------------------

    def absorb(self, run, backend: str) -> None:
        """Fold one ``run_traced`` result into the exact counters."""
        self.exec_metrics.merge(run.metrics)
        self.traced_runs += 1
        self.cache_hits += run.cache_hit
        self.tree_patterns += run.compiled.tree_pattern_count()
        self.pattern_queries += 1
        if backend == "compiled":
            self.compiled_runs += 1
            self.codegen_refusals += isinstance(
                run.compiled.codegen.get("optimized"), Exception)


class ColdStart(Workload):
    """Open a fresh ``.rpxc`` per op, answer one catalog query."""

    def setup(self) -> None:
        self.path = self.ingest("xmark")

    def teardown(self) -> None:
        pass

    def query(self, index: int) -> str:
        return self.requests[index % len(self.requests)]

    def between_ops(self) -> None:
        # Each op stands for a fresh process (a CLI call, a new shard):
        # free the previous op's cyclic garbage so no op pays a full
        # collection for another op's tree.
        if self.gc_probe is not None:
            self.gc_probe.active = False
        gc.collect()
        if self.gc_probe is not None:
            self.gc_probe.active = True

    def op(self, client, index):
        query = self.query(index)
        engine = Engine.from_file(self.path)
        try:
            rendered = render(engine.run(query))
        finally:
            engine.document.close()
        return "xmark", query, rendered

    def traced_op(self, client, index, trace):
        query = self.query(index)
        with trace.span(CENSUS):
            gc.collect()
            before = len(gc.get_objects())
        with trace.span("xmltree.columnar.open"):
            engine = Engine.from_file(self.path)
        with trace.span("xmltree.document.materialize"):
            engine.document.root
        with trace.span("xmltree.summary.build"):
            engine.document.summary
        run = engine.run_traced(query, tracer=self.tracer)
        trace.graft(run.trace, "interpreted")
        with trace.span("xmltree.serializer.serialize"):
            rendered = render(run.results)
        with trace.span(CENSUS):
            gc.collect()
            self.census.append(len(gc.get_objects()) - before)
            self.absorb(run, "interpreted")
        engine.document.close()
        return "xmark", query, rendered

    def begin_pass(self) -> None:
        self.census: List[int] = []

    def replay_layers(self) -> None:
        self.extra["xmltree.document.gc_objects_after_query"] = \
            statistics.median(self.census) if self.census else 0


class CompileChurn(Workload):
    """Compile and run a never-seen text per op on small documents."""

    def setup(self) -> None:
        paths = {name: self.ingest(name)
                 for name in self.inputs["documents"]}
        self.engines = {(name, backend): Engine.from_file(path,
                                                          backend=backend)
                        for name, path in paths.items()
                        for backend in BACKENDS}
        for engine in self.engines.values():
            # Build the lazy per-document state (tree, summary, columns)
            # with a text the generator never emits.
            engine.run("count($input//*)")

    def teardown(self) -> None:
        for engine in self.engines.values():
            engine.document.close()

    def pick(self, index: int):
        document, query = self.requests[index % len(self.requests)]
        backend = BACKENDS[index % len(BACKENDS)]
        return document, query, backend, self.engines[(document, backend)]

    def op(self, client, index):
        document, query, _, engine = self.pick(index)
        compiled = engine.compile(query)
        return document, query, render(engine.execute(compiled))

    def traced_op(self, client, index, trace):
        document, query, backend, engine = self.pick(index)
        run = engine.run_traced(query, tracer=self.tracer)
        trace.graft(run.trace, backend)
        with trace.span("xmltree.serializer.serialize"):
            rendered = render(run.results)
        self.absorb(run, backend)
        return document, query, rendered


class ServingMix(Workload):
    """Shared request stream of warm_mix and cluster_mix: each client
    cycles through its own seeded permutation of every distinct
    request."""

    def __init__(self, name, inputs, directory) -> None:
        super().__init__(name, inputs, directory)
        seed = inputs["seed"]
        self.streams = []
        for client in range(self.clients):
            stream = list(self.requests)
            random.Random(seed * 7919 + client).shuffle(stream)
            self.streams.append(stream)
        self.queue_seconds: List[float] = []
        self.exec_seconds: List[float] = []

    def request(self, client: int, index: int):
        stream = self.streams[client]
        return stream[index % len(stream)]

    def submit(self, service, name: str, query: str, strategy):
        response = service.submit(QueryRequest(
            document=name, query=query, strategy=strategy)).response()
        return response, response.unwrap()

    def cache_totals(self) -> Tuple[int, int]:
        """Plan-cache hits and lookups over the catalog's engines."""
        hits = lookups = 0
        for name in self.catalog.names():
            stats = self.catalog.engine(name).plan_cache.stats
            hits += stats.hits
            lookups += stats.lookups
        return hits, lookups

    def begin_pass(self) -> None:
        self.cache_before = self.cache_totals()

    def cache_hit_ratio(self) -> float:
        hits, lookups = (after - before for after, before
                         in zip(self.cache_totals(), self.cache_before))
        return hits / lookups if lookups else 0.0


class WarmMix(ServingMix):
    """QueryService over a catalog opened from ``.rpxc`` files; each
    document is registered once per backend."""

    setup_repeats = 3

    def setup(self) -> None:
        self.catalog = DocumentCatalog()
        for name in self.inputs["documents"]:
            path = self.ingest(name)
            for backend in BACKENDS:
                self.catalog.add_file(f"{name}@{backend}", path,
                                      backend=backend)
        self.inbox = TraceInbox()
        self.service = QueryService(
            self.catalog, workers=SERVICE_WORKERS, tracer=self.tracer,
            flight_recorder=self.inbox if self.tracer else None)
        if self.tracer is not None:
            self.tracer.enabled = False
        # Lazy state is per engine and request: plans and generated
        # code per query text, the cost model and its pattern estimates
        # per (query, "cost").  One pass over the distinct requests
        # builds all of it.
        for document, query, strategy, backend in self.requests:
            self.submit(self.service, f"{document}@{backend}", query,
                        strategy)

    def teardown(self) -> None:
        self.service.close()
        for name in self.catalog.names():
            self.catalog.engine(name).document.close()

    def op(self, client, index):
        document, query, strategy, backend = self.request(client, index)
        response, results = self.submit(
            self.service, f"{document}@{backend}", query, strategy)
        rendered = render(results)
        self.queue_seconds.append(response.queue_seconds)
        self.exec_seconds.append(response.exec_seconds)
        return document, query, rendered

    def traced_op(self, client, index, trace):
        document, query, strategy, backend = self.request(client, index)
        with trace.span("serve.service.self") as node:
            response, results = self.submit(
                self.service, f"{document}@{backend}", query, strategy)
        program = self.inbox.take(response.trace_id)
        if program is not None:
            trace.graft(program, backend, parent=node)
        with trace.span("xmltree.serializer.serialize"):
            rendered = render(results)
        return document, query, rendered

    def begin_pass(self) -> None:
        super().begin_pass()
        self.stats_before = self.service.stats()
        self.queue_seconds.clear()
        self.exec_seconds.clear()

    def end_pass(self, wall, ops) -> None:
        after = self.service.stats()
        submitted = max(after.submitted - self.stats_before.submitted, 1)
        self.extra.update({
            "obs.plan_cache.hit_ratio": self.cache_hit_ratio(),
            "serve.service.queue_wait_ms":
                statistics.fmean(self.queue_seconds) * 1e3,
            "serve.service.exec_ms":
                statistics.fmean(self.exec_seconds) * 1e3,
            "serve.service.coalesced_ratio":
                (after.coalesced - self.stats_before.coalesced) / submitted,
            "serve.service.shed_ratio":
                (after.shed - self.stats_before.shed) / submitted,
        })

    def replay_layers(self) -> None:
        """Exact execution counters and chooser regret, from one
        ``run_traced`` per distinct request on the service's own
        engines (every distinct request is equally frequent in the
        stream, so the plain mean is the per-op mean)."""
        regrets = []
        patterns = set()
        for document, query, strategy, backend in self.requests:
            engine = self.catalog.engine(f"{document}@{backend}")
            run = engine.run_traced(query, strategy=strategy)
            self.absorb(run, backend)
            patterns.add((document, query))
            if strategy in ("auto", "cost") and backend == "interpreted" \
                    and run.metrics.decision_counts:
                chosen = run.metrics.decision_counts.most_common(1)[0][0]
                times = {name: _best_time(engine, run.compiled, name)
                         for name in PHYSICAL}
                regrets.append(times[chosen] / min(times.values()))
        # Per distinct query text, not per request.
        self.tree_patterns = sum(
            self.catalog.engine(f"{document}@interpreted").compile(query)
            .tree_pattern_count() for document, query in patterns)
        self.pattern_queries = len(patterns)
        self.extra["physical.cost.chooser_regret"] = math.exp(
            statistics.fmean(math.log(value) for value in regrets)) \
            if regrets else 0.0


def _best_time(engine: Engine, compiled, strategy: str,
               repeats: int = 2) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        engine.execute(compiled, strategy=strategy)
        best = min(best, time.perf_counter() - started)
    return best


class ClusterMix(ServingMix):
    """ClusterService with process workers over sharded ``.rpxc``
    layouts.  The workers run the cluster's default backend, so the
    stream's backend field collapses: each (document, query, strategy)
    appears twice."""

    setup_repeats = 3
    #: give up warming after this many rounds over the requests.
    WARMUP_ROUNDS = 12

    def setup(self) -> None:
        self.catalog = DocumentCatalog()
        columns = {}
        for name in self.inputs["documents"]:
            self.catalog.add_file(name, self.ingest(name))
            columns[name] = self.catalog.engine(name).document.columns
        self.shard_dir = os.path.join(self.directory, "shards")
        layout = ClusterLayout.build(columns, self.shard_dir,
                                     CLUSTER_SHARDS)
        self.inbox = TraceInbox()
        # Warm-up needs to see which worker served which shard, so the
        # cluster always starts traced; tracing is off once it is warm.
        self.cluster_tracer = self.tracer or Tracer()
        self.cluster_tracer.enabled = True
        self.service = ClusterService(
            layout, workers=SERVICE_WORKERS, catalog=self.catalog,
            tracer=self.cluster_tracer, flight_recorder=self.inbox)
        self.warm_up()
        self.cluster_tracer.enabled = False

    def warm_up(self) -> None:
        """Send the distinct requests, in rounds, until every worker
        has served each of them on every shard it reaches: a worker
        engine's lazy state is per (document, shard) (tree, summary),
        per query text (plans, generated code) and per (query, "cost")
        (the cost model's pattern estimates)."""
        requests = sorted({(document, query, strategy or "")
                           for document, query, strategy, _
                           in self.requests})
        workers = range(SERVICE_WORKERS)
        shards_of: Dict[Tuple[str, str], set] = {}
        served: set = set()
        first: Dict[Tuple[int, str, int], float] = {}
        sent = 0
        shifter = None

        def missing(document, query, strategy) -> bool:
            shards = shards_of.get((document, query))
            return shards is None or any(
                (worker, document, shard, query, strategy) not in served
                for worker in workers for shard in shards)

        for _ in range(self.WARMUP_ROUNDS):
            pending = [request for request in requests
                       if missing(*request)]
            if not pending:
                break
            for document, query, strategy in pending:
                response, _ = self.submit(self.service, document, query,
                                          strategy or None)
                sent += 1
                program = self.inbox.take(response.trace_id)
                shards = [span for span in program.spans
                          if span.name == "shard"]
                shards_of[(document, query)] = {
                    span.attrs["shard"] for span in shards}
                for span in shards:
                    worker, shard = span.attrs["worker"], span.attrs["shard"]
                    served.add((worker, document, shard, query, strategy))
                    first.setdefault((worker, document, shard),
                                     span.attrs["worker_seconds"])
                if len(shards) == 1:
                    shifter = (document, query)
            if shifter is not None:
                # Round-robin placement can fall in lock-step with the
                # round: one whole-document request shifts it a worker.
                response, _ = self.submit(self.service, *shifter, None)
                self.inbox.take(response.trace_id)
                sent += 1
        if any(missing(*request) for request in requests):
            raise RuntimeError(
                f"cluster warm-up left worker/shard pairs cold after "
                f"{sent} requests")
        self.extra["serve.worker.warmup_requests"] = sent
        self.extra["serve.worker.first_query_per_shard_ms"] = \
            statistics.median(first.values()) * 1e3

    def teardown(self) -> None:
        self.service.close()
        for name in self.catalog.names():
            self.catalog.engine(name).document.close()
        shutil.rmtree(self.shard_dir, ignore_errors=True)

    def op(self, client, index):
        document, query, strategy, _ = self.request(client, index)
        _, results = self.submit(self.service, document, query, strategy)
        return document, query, render(results)

    def traced_op(self, client, index, trace):
        document, query, strategy, _ = self.request(client, index)
        with trace.span("serve.cluster.self") as node:
            response, results = self.submit(self.service, document, query,
                                            strategy)
        program = self.inbox.take(response.trace_id)
        if program is not None:
            request = trace.graft(program, "compiled",
                                  request_layer="serve.cluster.self",
                                  parent=node)
            shards = [child for child in request.children
                      if child.layer == "serve.cluster.dispatch_wait"]
            if shards:
                # Merge and rehydration run after the last shard result
                # arrives and before the request completes.
                merge = spans.Node("serve.cluster.merge",
                                   max(shard.end for shard in shards),
                                   request.end)
                request.children.append(merge)
        with trace.span("xmltree.serializer.serialize"):
            rendered = render(results)
        return document, query, rendered

    def begin_pass(self) -> None:
        super().begin_pass()
        self.cluster_before = self.service.cluster_stats()

    def end_pass(self, wall, ops) -> None:
        before, after = self.cluster_before, self.service.cluster_stats()
        busy = sum(worker.busy_seconds for worker in after.workers) - \
            sum(worker.busy_seconds for worker in before.workers)
        scattered = after.scattered - before.scattered
        whole = after.whole_document - before.whole_document
        self.extra.update({
            "obs.plan_cache.hit_ratio": self.cache_hit_ratio(),
            "serve.cluster.scatter_ratio":
                scattered / max(scattered + whole, 1),
            "serve.worker.busy_ms_per_op": busy / max(ops, 1) * 1e3,
            "serve.worker.utilization":
                busy / (wall * len(after.workers)),
            "serve.cluster.respawns": after.respawns - before.respawns,
        })

    def process_rss_mb(self) -> float:
        return peak_rss_mb() + sum(
            peak_rss_mb(pid) for pid in self.service.worker_pids()
            if pid is not None)


WORKLOADS = {"cold_start": ColdStart, "warm_mix": WarmMix,
             "compile_churn": CompileChurn, "cluster_mix": ClusterMix}


# -- measurement -------------------------------------------------------------


def measure(workload: Workload, logs: List[ClientLog],
            seconds: Optional[float] = None,
            counts: Optional[Sequence[int]] = None,
            traced: bool = False, calibrated: bool = False) -> float:
    """Run the closed loop, appending to ``logs``: for ``seconds`` or,
    when ``counts`` is given, until client ``i`` has made ``counts[i]``
    ops.  Op indices continue across calls.  With ``calibrated`` each
    client times :func:`calibration_loop` between ops, every
    :data:`CALIBRATION_INTERVAL_S`.  Returns the wall time, less the
    benchmark's own work between ops."""
    started = time.perf_counter()
    deadline = started + (seconds or 0.0)
    own_before = [log.own for log in logs]

    def client(index: int) -> None:
        log = logs[index]
        last_calibration = 0.0
        while (log.attempted < counts[index]) if counts is not None \
                else (time.perf_counter() < deadline):
            op = log.attempted
            trace = spans.OpTrace() if traced else None
            log.attempted += 1
            began = time.perf_counter()
            try:
                if traced:
                    document, query, rendered = workload.traced_op(
                        index, op, trace)
                    log.trees.append(trace.close())
                else:
                    document, query, rendered = workload.op(index, op)
            except ReproError as err:
                log.failed += 1
                log.errors[getattr(err, "code", type(err).__name__)] += 1
            else:
                log.latencies.append(time.perf_counter() - began)
                expected = workload.expected[request_key(document, query)]
                if digest(rendered) != expected[0]:
                    log.failed += 1
                    log.mismatched += 1
            own = time.perf_counter()
            if calibrated and own - last_calibration \
                    >= CALIBRATION_INTERVAL_S:
                # Right after the op, before the benchmark's own work
                # (a collection would leave the allocator in a state no
                # op runs in).
                last_calibration = own
                log.calibrations.append(timed_calibration())
            workload.between_ops()
            log.own += time.perf_counter() - own
        log.end = time.perf_counter()

    if workload.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    own = statistics.fmean(log.own - before
                           for log, before in zip(logs, own_before))
    return max(log.end for log in logs) - started - own


class _CalibrationNode:
    __slots__ = ("parent", "children", "name")

    def __init__(self, parent, name: str) -> None:
        self.parent = parent
        self.children: list = []
        self.name = name


def calibration_loop() -> int:
    """Fixed interpreter work whose time tracks how fast this machine
    runs Python at the moment: a small tree of linked objects (the
    allocation pattern of a materialized document), dictionary and
    string work, and a sort."""
    root = _CalibrationNode(None, "root")
    nodes = [root]
    table: Dict[str, int] = {}
    for value in range(1500):
        parent = nodes[value // 3]
        node = _CalibrationNode(parent, f"t{value % 17}")
        parent.children.append(node)
        nodes.append(node)
        table[node.name] = table.get(node.name, 0) + value
    nodes.sort(key=lambda node: (node.name, len(node.children)))
    return len(table) + len(nodes)


def timed_calibration() -> float:
    started = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - started


def first_quartile(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=4)[0]


def setup_calibration() -> float:
    return first_quartile([timed_calibration()
                           for _ in range(SETUP_CALIBRATION_SAMPLES)])


def tail(latencies: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples above it, and
    its value."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (count - 10) / count, ordered[count - 11]


class GCProbe:
    """Collections and pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause = 0.0
        self.active = True
        self._start = 0.0

    def __call__(self, phase: str, info) -> None:
        if not self.active:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.pause += time.perf_counter() - self._start

    def __enter__(self) -> "GCProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def run(name: str, inputs: Dict, directory: str, seconds: float,
        trace: bool) -> Dict:
    """Set up, measure, and return the run's result record."""
    workload = WORKLOADS[name](name, inputs, directory)
    if trace:
        workload.tracer = Tracer(max_spans=50_000)
    setup_times, setup_scales = [], []
    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.teardown()
        gc.collect()
        before = setup_calibration()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
        setup_scales.append(
            2 * REFERENCE_CALIBRATION_S / (before + setup_calibration()))
    logs = [ClientLog() for _ in range(workload.clients)]
    try:
        if trace:
            with GCProbe() as probe:
                workload.gc_probe = probe
                workload.begin_pass()
                wall = measure(workload, logs, seconds / 2)
                ops = sum(log.attempted for log in logs)
                workload.end_pass(wall, ops)
            workload.gc_probe = None
            if workload.tracer is not None:
                workload.tracer.enabled = True
            traced_logs = [ClientLog() for _ in range(workload.clients)]
            traced_wall = measure(
                workload, traced_logs,
                counts=[log.attempted for log in logs], traced=True)
            workload.replay_layers()
            all_logs = logs + traced_logs
        else:
            workload.begin_pass()
            wall = measure(workload, logs, seconds, calibrated=True)
            all_logs = logs
        rss = workload.process_rss_mb()
    finally:
        workload.teardown()

    attempted = sum(log.attempted for log in all_logs)
    failed = sum(log.failed for log in all_logs)
    record = {
        "workload": name,
        "correct": sum(log.mismatched for log in all_logs) == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": dict(sum((log.errors for log in all_logs), Counter())),
        "setup_samples_s": setup_times,
    }
    if trace:
        raw = [value for log in logs for value in log.latencies]
        trees = [tree for log in traced_logs for tree in log.trees]
        record["metrics"] = layer_metrics(
            workload, trees, raw, wall, traced_wall, ops, probe)
        record["spans"] = [spans.flatten(tree) for tree in trees]
        return record
    raw = [value for log in logs for value in log.latencies]
    calibrations = [value for log in logs for value in log.calibrations]
    scale = REFERENCE_CALIBRATION_S / first_quartile(calibrations)
    percentile, tail_value = tail([value * scale for value in raw])
    record.update({
        "samples": len(raw),
        "tail_percentile": percentile,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "calibration_quartiles_s": statistics.quantiles(calibrations,
                                                         n=4),
        "calibration_samples": len(calibrations),
        "setup_scales": setup_scales,
        "fail_ratio": failed / attempted,
        "raw_metrics": {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": tail(raw)[1] * 1e3,
            "throughput_ops_s": len(raw) / wall,
        },
        "metrics": {
            "setup_s": statistics.median(
                seconds * scale
                for seconds, scale in zip(setup_times, setup_scales)),
            "latency_p50_ms": statistics.median(raw) * scale * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "throughput_ops_s": len(raw) / (wall * scale),
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": rss,
        },
    })
    return record


def layer_metrics(workload: Workload, trees, latencies, wall: float,
                  traced_wall: float, ops: int, probe: GCProbe) -> Dict:
    """Per-layer metrics of a traced run: self times per traced op,
    set-up layer times, exact counters and the trace's own checks."""
    totals: Dict[str, float] = defaultdict(float)
    per_op_sums = []
    for tree in trees:
        times = spans.self_times(tree)
        for layer, seconds in times.items():
            totals[layer] += seconds
        per_op_sums.append(sum(
            seconds for layer, seconds in times.items()
            if layer not in ("bench.unattributed", CENSUS)))
    count = max(len(trees), 1)
    metrics: Dict[str, float] = {
        f"{layer}_ms": totals.get(layer, 0.0) / count * 1e3
        for layer in SELF_TIME_LAYERS}
    for key, values in sorted(workload.setup_layers.items()):
        metrics[key] = statistics.median(values)
    untraced_p50 = statistics.median(latencies) * 1e3
    layer_sum_p50 = statistics.median(per_op_sums) * 1e3 \
        if per_op_sums else 0.0
    counters = workload.exec_metrics
    runs = max(workload.traced_runs, 1)
    checks = counters.prune_hits + counters.prune_misses
    metrics.update({
        "gc.pause_ms_per_op": probe.pause / max(ops, 1) * 1e3,
        "gc.collections_per_op": probe.collections / max(ops, 1),
        "obs.plan_cache.hit_ratio": workload.cache_hits / runs,
        "algebra.optimize.tree_patterns_per_query":
            workload.tree_patterns / max(workload.pattern_queries, 1),
        "physical.nodes_visited_per_op":
            sum(counters.nodes_visited.values()) / runs,
        "physical.stream_scanned_per_op":
            sum(counters.stream_scanned.values()) / runs,
        "physical.summary.prune_ratio":
            counters.prune_hits / checks if checks else 0.0,
        "compiled.codegen_refusal_ratio":
            workload.codegen_refusals / workload.compiled_runs
            if workload.compiled_runs else 0.0,
        "bench.trace_overhead_ratio": traced_wall / wall,
        "bench.untraced_p50_ms": untraced_p50,
        "bench.layer_sum_p50_ms": layer_sum_p50,
        "bench.accounted_ratio": layer_sum_p50 / untraced_p50,
        "bench.traced_ops": len(trees),
    })
    metrics.update(workload.extra)
    return metrics
