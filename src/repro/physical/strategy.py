"""Choosing a tree pattern algorithm (paper Sections 2 and 5).

The paper's last compilation phase picks the physical algorithm for each
``TupleTreePattern``.  Its experiments yield heuristics rather than a
single winner:

* simple rooted path patterns → SCJoin or TwigJoin (never NLJoin);
* complex/branching patterns → TwigJoin ("always well-behaved");
* patterns embedded in maps and evaluated per-context on small regions
  (e.g. selective positional chains like ``(/t1[1])^k``) → NLJoin,
  whose cost tracks the visited region instead of the index streams.

:class:`HeuristicChooser` encodes those findings; the paper's own
conclusion — "clearly, an accurate cost model is needed" — is reflected
in the simple stream-statistics cost model it consults.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

from ..guard.chaos import chaos_point
from ..obs import ExecMetrics, Probe
from ..pattern import PatternPath, TreePattern
from ..xmltree.document import IndexedDocument
from ..xmltree.nodetest import NameTest
from ..xmltree.summary import PathSummary
from .base import TreePatternAlgorithm
from .cost import CostModel
from .nljoin import NLJoin
from .stacktree import StackTreeJoin
from .staircase import StaircaseJoin
from .streaming import StreamingXPath
from .twigjoin import TwigJoin


class Strategy(str, Enum):
    """Physical strategies for ``TupleTreePattern`` operators."""

    NESTED_LOOP = "nljoin"
    TWIG_JOIN = "twigjoin"
    STAIRCASE = "scjoin"
    STACK_TREE = "stacktree"
    STREAMING = "streaming"
    AUTO = "auto"
    COST = "cost"

    def __str__(self) -> str:
        return self.value


_INSTANCES = {
    Strategy.NESTED_LOOP: NLJoin,
    Strategy.TWIG_JOIN: TwigJoin,
    Strategy.STAIRCASE: StaircaseJoin,
    Strategy.STACK_TREE: StackTreeJoin,
    Strategy.STREAMING: StreamingXPath,
}


def make_algorithm(strategy: Strategy | str,
                   document: Optional[IndexedDocument] = None,
                   probe: Optional[Probe] = None,
                   summary: Optional[PathSummary] = None
                   ) -> TreePatternAlgorithm:
    """Instantiate the algorithm for a strategy (AUTO/COST need a
    document), wired to ``probe`` and pruning with ``summary``."""
    strategy = Strategy(strategy)
    if strategy is Strategy.AUTO:
        return HeuristicChooser(document, probe, summary)
    if strategy is Strategy.COST:
        return CostBasedChooser(document, probe, summary)
    return _INSTANCES[strategy](probe, summary)


def pattern_complexity(path: PatternPath) -> int:
    """Steps + branches, a rough size measure for the heuristics."""
    total = 0
    for step in path.steps:
        total += 1
        for branch in step.predicates:
            total += pattern_complexity(branch)
    return total


def estimated_stream_size(document: IndexedDocument,
                          path: PatternPath) -> int:
    """Total size of the streams a holistic scan would read."""
    total = 0
    for step in path.steps:
        if isinstance(step.test, NameTest):
            total += len(document.tag_pres.get(step.test.name, ()))
        else:
            total += document.size
        for branch in step.predicates:
            total += estimated_stream_size(document, branch)
    return total


class _Chooser(TreePatternAlgorithm):
    """Per-evaluation dispatch to one of ``self.algorithms``.

    Choosers always record their decisions: without a probe that
    counts (plain runs), they count into a private
    :class:`~repro.obs.ExecMetrics` (a bounded ring plus an exact tally,
    so long-running engines never leak).  The summary defaults to the
    document's own.
    """

    #: the algorithm classes this chooser dispatches to.
    candidates: Tuple[type, ...] = ()

    def __init__(self, document: Optional[IndexedDocument] = None,
                 probe: Optional[Probe] = None,
                 summary: Optional[PathSummary] = None) -> None:
        if probe is None:
            probe = Probe(ExecMetrics())
        elif probe.metrics is None:
            probe = Probe(ExecMetrics(), probe.governor, probe.trace)
        if summary is None and document is not None:
            summary = document.summary
        super().__init__(probe, summary)
        self.document = document
        self.algorithms: Dict[str, TreePatternAlgorithm] = {
            algorithm.name: algorithm(probe) for algorithm in self.candidates}

    @property
    def metrics(self) -> ExecMetrics:
        """The counters decisions are recorded into."""
        return self.probe.metrics

    @property
    def decisions(self) -> list:
        """Recently chosen algorithm names (bounded; the exact tally is
        ``self.metrics.decision_counts``)."""
        return [record.algorithm for record in self.metrics.decision_ring]

    def match_single(self, document, contexts, path):
        return self.choose(document, contexts, path).match_single(
            document, contexts, path)

    def enumerate_bindings(self, document, context, path):
        return self.choose(document, [context], path).enumerate_bindings(
            document, context, path)


class HeuristicChooser(_Chooser):
    """Per-evaluation dispatch between NL, Twig and Staircase.

    The decision uses the heuristics derived in Section 5:

    * when the context is a small subtree relative to the streams the
      index-based algorithms would scan, navigation wins → NLJoin;
    * branching patterns favour the holistic TwigJoin;
    * plain spines favour SCJoin.
    """

    name = "auto"
    candidates = (NLJoin, TwigJoin, StaircaseJoin)

    #: visit/scan cost ratio below which navigation is preferred.
    NAVIGATION_THRESHOLD = 0.25

    def choose(self, document: IndexedDocument, contexts,
               path: PatternPath) -> TreePatternAlgorithm:
        region = sum(max(context.end - context.pre, 1)
                     for context in contexts)
        streams = max(estimated_stream_size(document, path), 1)
        if region < streams * self.NAVIGATION_THRESHOLD:
            chosen = "nljoin"
        elif any(step.predicates for step in path.steps):
            chosen = "twigjoin"
        else:
            chosen = "scjoin"
        self.probe.decision(self.name, chosen, region=region,
                            streams=streams)
        chaos_point("auto.choose", chosen)
        return self.algorithms[chosen]


class CostBasedChooser(_Chooser):
    """Per-evaluation dispatch driven by the cost model of
    :mod:`repro.physical.cost` — the "accurate cost model" the paper's
    conclusion calls for, covering all four algorithms (including the
    streaming matcher)."""

    name = "cost"
    candidates = (NLJoin, TwigJoin, StaircaseJoin, StreamingXPath)

    _model: Optional[CostModel] = None

    def model_for(self, document: IndexedDocument) -> "CostModel":
        use_summary = (self.summary is not None
                       and self.summary.document is document)
        if (self._model is None or self._model.document is not document
                or (self._model.summary is not None) != use_summary):
            # Statistics gathering is linear in the document; cache the
            # model on the document (one slot per statistics source) so
            # repeated queries and fresh chooser instances reuse it.
            slot = "_cost_model" if use_summary else "_cost_model_plain"
            cached = getattr(document, slot, None)
            if cached is None:
                cached = CostModel(
                    document,
                    summary=self.summary if use_summary else None)
                setattr(document, slot, cached)
            self._model = cached
        return self._model

    def choose(self, document: IndexedDocument, contexts,
               path: PatternPath) -> TreePatternAlgorithm:
        estimate = self.model_for(document).estimate(list(contexts), path)
        name = estimate.best()
        self.probe.decision(
            self.name, name,
            **{f"cost_{algo}": cost for algo, cost in estimate.costs.items()})
        chaos_point("cost.choose", name)
        return self.algorithms[name]
