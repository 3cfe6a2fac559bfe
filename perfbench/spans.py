"""Benchmark-side spans for the traced run.

Each traced op builds one span tree: the benchmark opens a span around
every call it makes into a layer's public entry point, and grafts the
span tree the program itself records for that call (``run_traced`` /
a service's request trace) under the span that made it.  Program spans
are mapped to layer names by :func:`program_layer`.

A layer's self time is its span's duration minus the time its direct
children cover; the op root's own self time is ``bench.unattributed``,
the benchmark's loop overhead.  Trees stay in memory until the run ends
and are then written out as rows (:func:`flatten`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional

#: program span name → layer, for names that do not depend on context.
PROGRAM_LAYERS = {
    "parse": "xquery.parse",
    "normalize": "xqcore.normalize",
    "rewrite": "rewrite.tpnf",
    "compile": "algebra.compile",
    "optimize": "algebra.optimize",
    "summary": "xmltree.summary.build",
    "columnar": "xmltree.columnar.derive",
    "codegen": "compiled.codegen",
    "compile_pipeline": "engine.compile.self",
    "queue": "serve.service.queue_wait",
    "shard": "serve.cluster.dispatch_wait",
    "worker": "serve.worker.self",
}

RUNTIME_LAYERS = {"interpreted": "algebra.eval.self",
                  "compiled": "compiled.runtime.self"}


#: pattern spans of the auto/cost choosers, which dispatch to the
#: algorithm they pick without a span of its own.
CHOOSERS = ("pattern:auto", "pattern:cost")


def program_layer(span, backend: str, request_layer: str) -> str:
    """The layer a program span's self time belongs to.  A chooser's
    pattern span belongs to the algorithm its last ``decision`` event
    picked; plan operator spans and the engine's ``execute``/``attempt``
    spans belong to the execution backend's runtime."""
    name = span.name
    if name == "request":
        return request_layer
    layer = PROGRAM_LAYERS.get(name)
    if layer is not None:
        return layer
    if name in CHOOSERS:
        picked = [attrs["algorithm"] for _, event, attrs in span.events
                  if event == "decision"]
        return f"physical.{picked[-1]}.eval" if picked \
            else "physical.cost.choose"
    if name.startswith("pattern:"):
        return f"physical.{name[len('pattern:'):]}.eval"
    return RUNTIME_LAYERS[backend]


class Node:
    __slots__ = ("layer", "start", "end", "children")

    def __init__(self, layer: str, start: float,
                 end: float = 0.0) -> None:
        self.layer = layer
        self.start = start
        self.end = end
        self.children: List["Node"] = []


class OpTrace:
    """The span tree of one op, built on one thread."""

    def __init__(self) -> None:
        self.root = Node("bench.unattributed", time.perf_counter())
        self._stack = [self.root]

    def span(self, layer: str) -> "_SpanContext":
        return _SpanContext(self, layer)

    def graft(self, trace, backend: str,
              request_layer: str = "serve.service.self",
              parent: Optional[Node] = None) -> Node:
        """Attach a finished program :class:`~repro.trace.Trace` under
        ``parent`` (default: the innermost open span) and return its
        root node.  Program clocks are ``perf_counter`` in this
        process; worker spans arrive already re-based by the
        coordinator."""
        nodes: Dict[int, Node] = {}
        parent = parent or self._stack[-1]
        for span in trace.spans:
            node = Node(program_layer(span, backend, request_layer),
                        span.start, span.start + span.duration)
            nodes[span.span_id] = node
            owner = nodes.get(span.parent_id) if span.parent_id is not None \
                else parent
            (owner or parent).children.append(node)
        return nodes[trace.root.span_id]

    def close(self) -> Node:
        self.root.end = time.perf_counter()
        return self.root


class _SpanContext:
    __slots__ = ("trace", "node")

    def __init__(self, trace: OpTrace, layer: str) -> None:
        self.trace = trace
        self.node = Node(layer, 0.0)

    def __enter__(self) -> Node:
        self.trace._stack[-1].children.append(self.node)
        self.trace._stack.append(self.node)
        self.node.start = time.perf_counter()
        return self.node

    def __exit__(self, *exc_info) -> None:
        self.node.end = time.perf_counter()
        self.trace._stack.pop()


def self_times(root: Node) -> Dict[str, float]:
    """layer → seconds of self time in the tree under ``root``."""
    totals: Dict[str, float] = defaultdict(float)
    stack = [root]
    while stack:
        node = stack.pop()
        covered = sum(child.end - child.start for child in node.children)
        totals[node.layer] += max(node.end - node.start - covered, 0.0)
        stack.extend(node.children)
    return totals


def flatten(root: Node, origin: Optional[float] = None) -> List[list]:
    """The tree as ``[layer, start offset, duration, parent index]``
    rows (parents first), for writing out."""
    origin = root.start if origin is None else origin
    rows: List[list] = []
    stack = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        rows.append([node.layer, round(node.start - origin, 9),
                     round(node.end - node.start, 9), parent])
        index = len(rows) - 1
        stack.extend((child, index) for child in node.children)
    return rows

