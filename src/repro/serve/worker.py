"""The cluster worker: one process, mmap-opened shards, a full Engine.

Run as ``python -m repro.serve.worker`` by the
:class:`~repro.serve.cluster.ClusterService` coordinator.  The protocol
is **length-prefixed pickle frames** over the worker's stdin/stdout
pipes: an 8-byte little-endian payload length followed by the pickled
message dict (:func:`send_frame` / :func:`recv_frame`).  The worker

1. receives one ``init`` frame naming the shard layouts
   (:class:`~repro.xmltree.shard.ShardManifest` files) it serves, its
   ``worker_index``, the engine options and an optional chaos
   configuration;
2. mmap-opens shard and index files **read-only and unverified**
   (O(1); the page cache is shared with every sibling worker and the
   coordinator — no per-worker copy of the columns);
3. answers ``task`` frames — one query against one shard (or the whole
   document) — with ``result`` frames carrying either encoded result
   items or a pickled typed :class:`~repro.guard.ReproError`.

Result items are encoded store-independently as ``("n", global_pre)``
for nodes — shard-local pres are mapped through the manifest's runs, so
the coordinator can k-way merge streams from different shards in global
document order — and ``("v", value)`` for atomics.

Process hygiene: the protocol channel is a ``dup()`` of fd 1 taken at
startup, after which fd 1 is redirected onto stderr — a stray
``print`` anywhere in the engine cannot corrupt the frame stream.

Determinism under chaos: when the init frame carries chaos specs the
worker activates them for its whole lifetime with seed ``base_seed +
worker_index`` (:func:`repro.guard.worker_seed`), so a single
``REPRO_CHAOS_SEED`` reproduces the pool's fire sequences exactly.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import time
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from ..engine import Engine
from ..guard import (BudgetExceeded, Budgets, InternalError, ReproError,
                     deadline_budgets, inject, typed_error, worker_seed)
from ..trace import TraceContext, Tracer, pack_trace
from ..xmltree.node import Node
from ..xmltree.shard import ShardManifest

__all__ = ["ShardWorker", "recv_frame", "send_frame", "main",
           "MAX_FRAME_BYTES"]

_LENGTH = struct.Struct("<Q")

#: hard upper bound on one frame's payload — a corrupted length prefix
#: must not trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 1 << 31


# -- framing -----------------------------------------------------------------


def send_frame(stream: BinaryIO, message: Any) -> None:
    """Write one length-prefixed pickle frame and flush."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise InternalError(
            f"cluster frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    stream.write(_LENGTH.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def recv_frame(stream: BinaryIO) -> Optional[Any]:
    """Read one frame; ``None`` on a clean EOF (peer closed the pipe)."""
    header = _read_exact(stream, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise InternalError(
            f"cluster frame announces {length} bytes (limit "
            f"{MAX_FRAME_BYTES}); protocol stream is corrupt")
    payload = _read_exact(stream, length, allow_eof=False)
    return pickle.loads(payload)


def _read_exact(stream: BinaryIO, count: int,
                allow_eof: bool) -> Optional[bytes]:
    chunks: List[bytes] = []
    got = 0
    while got < count:
        chunk = stream.read(count - got)
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise InternalError(
                f"cluster protocol stream truncated: wanted {count} "
                f"bytes, got {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def wire_safe_error(err: Exception) -> ReproError:
    """A typed error guaranteed to pickle: non-:class:`ReproError`
    exceptions are wrapped in :class:`~repro.guard.InternalError`, and
    an error whose context resists pickling is flattened to its string
    form (code preserved)."""
    err = typed_error(err, "in cluster worker")
    try:
        pickle.dumps(err, protocol=pickle.HIGHEST_PROTOCOL)
        return err
    except Exception:
        return ReproError(str(err.message), code=err.code)


# -- the worker --------------------------------------------------------------


class ShardWorker:
    """Executes shard tasks against lazily opened shard engines.

    Usable in-process (the coordinator's ``transport="inline"`` test
    mode) or wrapped by :func:`main` in a subprocess.  Engines are
    cached per ``(document, shard)``; shard ``None`` is the full
    document (non-scatterable queries).
    """

    def __init__(self, worker_index: int,
                 documents: Dict[str, Dict[str, str]],
                 backend: str = "compiled",
                 use_summary: bool = True,
                 default_budgets: Optional[Budgets] = None) -> None:
        self.worker_index = worker_index
        self.backend = backend
        self.use_summary = use_summary
        self.default_budgets = default_budgets
        self._manifests: Dict[str, ShardManifest] = {}
        self._directories: Dict[str, str] = {}
        for name, spec in documents.items():
            directory = spec["directory"]
            self._directories[name] = directory
            self._manifests[name] = ShardManifest.load(
                os.path.join(directory, spec["manifest"]))
        self._engines: Dict[Tuple[str, Optional[int]], Engine] = {}
        #: worker-local tracer for sampled tasks.  Always enabled: the
        #: coordinator makes the sampling decision, and a task without
        #: a trace context never touches the tracer at all.
        self.tracer = Tracer()

    @classmethod
    def from_init(cls, init: Dict[str, Any]) -> "ShardWorker":
        options = init.get("engine", {})
        return cls(worker_index=init["worker_index"],
                   documents=init["documents"],
                   backend=options.get("backend", "compiled"),
                   use_summary=options.get("use_summary", True),
                   default_budgets=options.get("default_budgets"))

    # -- engines -------------------------------------------------------------

    def engine_for(self, document: str, shard: Optional[int]) -> Engine:
        key = (document, shard)
        engine = self._engines.get(key)
        if engine is None:
            manifest = self._manifest(document)
            directory = self._directories[document]
            file_name = manifest.index_file if shard is None \
                else manifest.shard_files[shard]
            engine = Engine.from_columnar_file(
                os.path.join(directory, file_name), verify=False,
                backend=self.backend, use_summary=self.use_summary)
            self._engines[key] = engine
        return engine

    def _manifest(self, document: str) -> ShardManifest:
        manifest = self._manifests.get(document)
        if manifest is None:
            raise InternalError(
                f"worker {self.worker_index} has no layout for "
                f"document {document!r}")
        return manifest

    # -- task handling -------------------------------------------------------

    def handle(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one ``task`` frame and build its ``result`` frame
        (errors come back typed and wire-safe, never raised).

        A task whose frame carries a trace context
        (:class:`~repro.trace.TraceContext` wire dict) runs under a
        worker-local trace; its span buffer and exact ``op_stats`` ride
        back on the result frame as a :func:`~repro.trace.pack_trace`
        payload — **relative durations and offsets only**, never
        absolute worker timestamps — for the coordinator to stitch.
        """
        started = time.perf_counter()
        context = TraceContext.from_wire(task.get("trace"))
        trace = None
        if context is not None:
            trace = self.tracer.begin(
                "worker", worker=self.worker_index,
                shard=-1 if task.get("shard") is None else task["shard"],
                remote_trace_id=context.trace_id)
        try:
            items = self._execute(task, trace)
        except Exception as err:
            frame = {"type": "result", "task_id": task["task_id"],
                     "ok": False, "error": wire_safe_error(err),
                     "exec_seconds": time.perf_counter() - started}
            if trace is not None:
                trace.annotate(error=getattr(err, "code",
                                             type(err).__name__))
                trace.finish()
                frame["trace"] = pack_trace(trace)
            return frame
        frame = {"type": "result", "task_id": task["task_id"],
                 "ok": True, "items": items,
                 "exec_seconds": time.perf_counter() - started}
        if trace is not None:
            trace.finish(rows=len(items))
            frame["trace"] = pack_trace(trace)
        return frame

    def _execute(self, task: Dict[str, Any],
                 trace=None) -> List[Tuple[str, Any]]:
        document = task["document"]
        shard = task.get("shard")
        remaining = task.get("remaining")
        if remaining is not None and remaining <= 0:
            raise BudgetExceeded("wall", task.get("timeout") or 0.0,
                                 -remaining, elapsed_seconds=-remaining)
        engine = self.engine_for(document, shard)
        compiled = engine.compile(task["query"],
                                  optimize=task.get("optimize", True),
                                  tracing=trace)
        results = engine.execute(compiled, strategy=task.get("strategy"),
                                 optimized=task.get("optimize", True),
                                 budgets=deadline_budgets(
                                     self.default_budgets, remaining),
                                 tracing=trace)
        if shard is None:
            return [("n", item.pre) if isinstance(item, Node)
                    else ("v", item) for item in results]
        runs = self._manifest(document).runs_for(shard)
        encoded: List[Tuple[str, Any]] = []
        for item in results:
            if isinstance(item, Node):
                encoded.append(("n", _to_global(runs, item.pre)))
            else:
                # The scatter planner only ships node-producing plans;
                # an atomic here means the plan walker and the engine
                # disagree — surface it loudly.
                raise InternalError(
                    f"shard task produced a non-node item "
                    f"{type(item).__name__}; query {task['query']!r} "
                    f"should not have been scattered")
        return encoded

    def close(self) -> None:
        for engine in self._engines.values():
            engine.document.close()
        self._engines.clear()


def _to_global(runs, local_pre: int) -> int:
    for run in runs:
        if run.local_start <= local_pre < run.local_start + run.length:
            return run.global_start + (local_pre - run.local_start)
    raise InternalError(f"result pre {local_pre} outside the shard's runs")


# -- subprocess entry --------------------------------------------------------


def main() -> int:
    """The ``python -m repro.serve.worker`` entry point."""
    # Claim the protocol channel, then point fd 1 at stderr so stray
    # stdout writes (prints, warnings) cannot corrupt the frame stream.
    proto_in = os.fdopen(os.dup(0), "rb")
    proto_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    init = recv_frame(proto_in)
    if init is None or init.get("type") != "init":
        return 1
    worker = ShardWorker.from_init(init)
    send_frame(proto_out, {"type": "ready", "pid": os.getpid(),
                           "worker_index": worker.worker_index})

    chaos = init.get("chaos")

    def serve_loop() -> None:
        while True:
            message = recv_frame(proto_in)
            if message is None or message.get("type") == "shutdown":
                return
            if message.get("type") == "task":
                send_frame(proto_out, worker.handle(message))

    try:
        if chaos and chaos.get("specs"):
            seed = worker_seed(chaos.get("seed", 0), worker.worker_index)
            with inject(*chaos["specs"], seed=seed):
                serve_loop()
        else:
            serve_loop()
    finally:
        worker.close()
        try:
            proto_out.close()
        except Exception:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
