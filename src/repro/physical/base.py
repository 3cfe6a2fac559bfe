"""Interface shared by the physical tree-pattern algorithms.

Every algorithm answers two requests about a
:class:`~repro.pattern.TreePattern`'s path:

* :meth:`match_single` — the XPath result of the main path (with its
  existential predicate branches) from a *sequence* of context nodes:
  document order, duplicate-free.  This is the semantics the optimizer
  relies on for the single-output patterns it generates (Section 4.1:
  "the semantics coincide with the XPath semantics in the case there is
  only an output field on the extraction point").
* :meth:`enumerate_bindings` — all bindings of the pattern's annotated
  nodes from a single context node, in root-to-leaf lexical order
  (the multi-output semantics illustrated in Section 4.1's example).

:meth:`evaluate` is the template method the ``TupleTreePattern``
operator calls; it dispatches between the two semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs import Probe
from ..pattern import PatternPath, TreePattern
from ..xmltree.document import IndexedDocument, ddo
from ..xmltree.node import Node
from ..xmltree.summary import PathSummary

Binding = Dict[str, Node]


class TreePatternAlgorithm:
    """Base class of NLJoin, TwigJoin and SCJoin.

    ``probe`` is the execution's instrumentation channel (counters,
    step budgets, spans — see :class:`repro.obs.Probe`); ``None`` (the
    default) disables all of it, so plain runs pay one ``is None`` check
    per scan.  ``summary`` is the structural summary of the queried
    document: when given, :meth:`evaluate` consults it to skip pattern
    evaluations that provably cannot match (see
    :mod:`repro.xmltree.summary`).  Algorithms that delegate (fallbacks,
    choosers) hand both to their inner algorithms at construction.
    """

    name = "abstract"

    #: every algorithm materializes the per-tuple binding list before
    #: returning from :meth:`evaluate` (the join's build side), so the
    #: compiled backend (:mod:`repro.compiled`) treats each pattern
    #: evaluation as a pipeline breaker: upstream tuples push one at a
    #: time, the bindings materialize here, and downstream code resumes
    #: per binding.
    is_pipeline_breaker = True

    def __init__(self, probe: Optional[Probe] = None,
                 summary: Optional[PathSummary] = None) -> None:
        self.probe = probe
        self.summary = summary

    def match_single(self, document: IndexedDocument,
                     contexts: List[Node], path: PatternPath) -> List[Node]:
        raise NotImplementedError

    def enumerate_bindings(self, document: IndexedDocument, context: Node,
                           path: PatternPath) -> List[Binding]:
        raise NotImplementedError

    def evaluate(self, document: IndexedDocument, contexts: List[Node],
                 pattern: TreePattern) -> List[Binding]:
        """Evaluate a pattern for one input tuple's context nodes."""
        if self.probe is None:
            return self._evaluate(document, contexts, pattern)
        return self.probe.pattern(self, document, contexts, pattern)

    def _evaluate(self, document: IndexedDocument, contexts: List[Node],
                  pattern: TreePattern) -> List[Binding]:
        summary = self.summary
        if (summary is not None and summary.document is document
                and contexts):
            # The structural prefilter: when no summary path can embed
            # the pattern from these contexts, the result is provably
            # empty and no algorithm needs to run.
            pruned = not summary.can_match(pattern.path, contexts)
            if self.probe is not None:
                self.probe.prune(pruned, pattern)
            if pruned:
                return []
        if pattern.is_single_output_at_extraction_point():
            out_field = pattern.extraction_point.output_field
            assert out_field is not None
            nodes = self.match_single(document, contexts, pattern.path)
            return [{out_field: node} for node in nodes]
        bindings: list[Binding] = []
        for context in contexts:
            bindings.extend(
                self.enumerate_bindings(document, context, pattern.path))
        return bindings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


def distinct_doc_order(nodes: List[Node]) -> List[Node]:
    """Shared ddo helper for implementations."""
    return ddo(nodes)
