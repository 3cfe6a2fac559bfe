"""A cost model for tree-pattern algorithm selection.

The paper closes its evaluation with: *"A combination of parameters,
including the form of the query and the shape and size of the documents
must be taken into account to predict which XPath join algorithms
performs best. Clearly, an accurate cost model is needed."*  This module
provides that model for the reproduction's four algorithms.

Cost formulas (unit: abstract "node touches"; the constants are relative
weights fitted to this engine's measured per-node costs, see
EXPERIMENTS.md §E4/E2):

=============  ==============================================================
algorithm      estimated cost per evaluation
=============  ==============================================================
NLJoin         ``NL_VISIT · visited``, where ``visited`` is the region the
               navigation can touch: the full context subtrees for
               descendant spines, only ``fanout^steps`` for child-only
               spines (the Section 5.3 effect)
TwigJoin       ``TJ_SETUP + TJ_SCAN · streams`` — every query node's
               region-restricted stream is swept once, with a fixed
               per-evaluation machinery cost
SCJoin         ``SC_SCAN · streams · passes`` — one array scan per spine
               step plus one extra pass per predicate branch (the
               multi-pass degradation on complex patterns)
Streaming      ``ST_SCAN · region`` — one pass over every event in the
               context region
=============  ==============================================================

``streams`` is the stream volume inside the context regions.  With a
structural summary attached (the default through the engine; see
:mod:`repro.xmltree.summary`) it is estimated from summary-derived
per-query-node cardinalities — the number of nodes that can actually
match each query node given the steps above it — scaled by the region
fraction; without one it falls back to the document-wide tag statistics.
The relative weights were re-checked against the EXPERIMENTS.md §E4/E2
procedure after the summary switch-over: the summary estimates are
uniformly ≤ the tag-count estimates and preserve every regime boundary
(NLJoin on selective child chains, SCJoin/TwigJoin on rooted descendant
paths, the branch penalty on SCJoin), so the fitted constants carry
over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from typing import Optional

from ..pattern import PatternPath
from ..xmltree.document import IndexedDocument
from ..xmltree.node import Node
from ..xmltree.axes import Axis
from ..xmltree.nodetest import NameTest
from ..xmltree.summary import PathSummary

#: relative per-unit weights (fitted on this engine; see module docstring).
NL_VISIT = 1.0
TJ_SCAN = 0.45
TJ_SETUP = 120.0
SC_SCAN = 0.18
SC_BRANCH_PASS = 0.35
ST_SCAN = 0.9

_CHILD_LIKE = (Axis.CHILD, Axis.ATTRIBUTE, Axis.SELF)


@dataclass(frozen=True)
class CostEstimate:
    """Estimated costs, one entry per algorithm name."""

    costs: Dict[str, float]

    def best(self) -> str:
        return min(self.costs, key=self.costs.get)

    def __getitem__(self, name: str) -> float:
        return self.costs[name]


class CostModel:
    """Estimates per-algorithm evaluation cost from document statistics."""

    _UNSET = object()

    def __init__(self, document: IndexedDocument,
                 summary: "Optional[PathSummary]" = _UNSET) -> None:
        self.document = document
        #: structural summary feeding per-query-node cardinalities; the
        #: default builds (or reuses) the document's own summary, pass
        #: ``None`` explicitly for flat tag-count statistics only.
        self.summary = document.summary if summary is CostModel._UNSET \
            else summary
        self.size = max(document.size, 1)
        columns = document.columns
        elements = len(columns.element_pres)
        self.average_fanout = (columns.element_child_count() / elements
                               if elements else 1.0)

    # -- statistics -----------------------------------------------------------

    def region_size(self, contexts: List[Node]) -> int:
        return sum(max(context.end - context.pre, 1)
                   for context in contexts)

    def stream_volume(self, path: PatternPath, region: int) -> float:
        """Stream elements the index algorithms touch inside the region.

        With a summary, per-query-node cardinalities (what can actually
        match each step under its prefix) stand in for the flat tag
        counts; both are scaled by the region fraction.
        """
        fraction = min(region / self.size, 1.0)
        if self.summary is not None:
            volume = self.summary.pattern_volume(path)
            if volume is not None:
                return volume * fraction
        return self._tag_count_volume(path, region)

    def _tag_count_volume(self, path: PatternPath, region: int) -> float:
        """The summary-free fallback: document-wide tag statistics."""
        fraction = min(region / self.size, 1.0)
        total = 0.0
        for step in path.steps:
            if isinstance(step.test, NameTest):
                total += len(self.document.tag_pres.get(step.test.name,
                                                        ())) * fraction
            else:
                total += self.size * fraction
            for branch in step.predicates:
                total += self._tag_count_volume(branch, region)
        return total

    def spine_steps(self, path: PatternPath) -> int:
        return len(path.steps)

    def branch_count(self, path: PatternPath) -> int:
        total = 0
        for step in path.steps:
            for branch in step.predicates:
                total += 1 + self.branch_count(branch)
        return total

    def navigation_visits(self, contexts: List[Node],
                          path: PatternPath) -> float:
        """Nodes navigation touches: child-only spines touch only the
        fanout frontier per step; any descendant step opens the whole
        region."""
        region = self.region_size(contexts)
        if all(step.axis in _CHILD_LIKE for step in path.steps):
            frontier = float(len(contexts))
            visited = 0.0
            for _ in path.steps:
                frontier *= max(self.average_fanout, 1.0)
                visited += frontier
            branch_factor = 1 + self.branch_count(path)
            return min(visited * branch_factor, float(region))
        return float(region) * (1 + self.branch_count(path))

    # -- the model --------------------------------------------------------------

    def estimate(self, contexts: List[Node],
                 path: PatternPath) -> CostEstimate:
        region = self.region_size(contexts)
        streams = self.stream_volume(path, region)
        branches = self.branch_count(path)
        return CostEstimate({
            "nljoin": NL_VISIT * self.navigation_visits(contexts, path),
            "twigjoin": TJ_SETUP + TJ_SCAN * streams,
            "scjoin": (SC_SCAN * streams
                       + SC_BRANCH_PASS * streams * branches),
            "streaming": ST_SCAN * region,
        })
