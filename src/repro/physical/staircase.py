"""Staircase join (SCJoin) — Grust & van Keulen's tree-aware join.

The staircase join evaluates one location step for a whole *sequence* of
context nodes at once on the pre/post plane:

* **pruning** — context nodes whose regions are covered by other
  context nodes are removed (for the descendant axis, a context nested
  inside another contributes nothing new);
* **partition scan** — the remaining "staircase" of disjoint regions is
  swept left to right; each partition is answered with one binary search
  on the tag stream plus a scan of the region slice, so results come out
  in document order *without a sort* and duplicate-free *without a
  dedup*.

Since the columnar refactor the whole evaluation runs in *integer
space*: contexts are converted to ``pre`` numbers once, every step is a
merge of ``pre`` streams against the document's
:class:`~repro.xmltree.columnar.ColumnarDocument` columns (``end``,
``parent``, ``kind``), and node objects are materialized only at the
result boundary — exactly the staircase join of Grust et al., which is
defined over the integer pre/post plane, not over heap objects.

Patterns are evaluated spine-step-by-spine-step (each step one
staircase join); predicate branches are existential semi-joins that
filter the step's output.  This set-at-a-time, multi-pass style is
precisely why the paper finds SCJoin "can degrade for complex tree
patterns while TwigJoin is always well-behaved" (Section 5): every
branch adds passes over the candidate sets.

Axes outside the downward fragment fall back to NLJoin.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

from ..guard.chaos import chaos_point
from ..pattern import PatternPath, PatternStep
from ..xmltree.axes import Axis
from ..xmltree.columnar import KIND_ELEMENT, ColumnarDocument
from ..xmltree.document import IndexedDocument
from ..xmltree.node import Node
from ..xmltree.nodetest import (ElementTest, NameTest, NodeTest, TextTest,
                                WildcardTest)
from .base import Binding, TreePatternAlgorithm
from .nljoin import NLJoin

_SUPPORTED_AXES = (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
                   Axis.ATTRIBUTE, Axis.SELF)


class StaircaseJoin(TreePatternAlgorithm):
    """Set-at-a-time staircase join evaluation in integer pre-space."""

    name = "scjoin"

    def __init__(self, probe=None, summary=None) -> None:
        super().__init__(probe, summary)
        self._fallback = NLJoin(probe)

    # -- public API -----------------------------------------------------------

    def match_single(self, document: IndexedDocument,
                     contexts: List[Node], path: PatternPath) -> List[Node]:
        if not _supported(path):
            return self._fallback.match_single(document, contexts, path)
        columns = document.columns
        # Into integer space: sorted, duplicate-free context pres.
        current: List[int] = sorted({node.pre for node in contexts})
        for step in path.steps:
            if step.position is not None:
                current = self._positional_step(columns, current, step)
                continue
            current = self._staircase_step(columns, current, step)
            for branch in step.predicates:
                current = [pre for pre in current
                           if self._branch_exists(columns, pre, branch)]
        # Out of integer space: nodes exist only at the result boundary.
        return chaos_point("scjoin.match",
                           [document.node_at(pre) for pre in current])

    def enumerate_bindings(self, document: IndexedDocument, context: Node,
                           path: PatternPath) -> List[Binding]:
        # Binding enumeration is inherently tuple-at-a-time; the
        # staircase join is a set-at-a-time algorithm, so multi-output
        # patterns use the navigational fallback (the optimizer only
        # emits single-output patterns — see DESIGN.md).
        return self._fallback.enumerate_bindings(document, context, path)

    # -- the join ----------------------------------------------------------------

    def _staircase_step(self, columns: ColumnarDocument,
                        contexts: List[int],
                        step: PatternStep) -> List[int]:
        """One staircase join: context pres (doc order, dup-free) →
        result pres (doc order, dup-free)."""
        if not contexts:
            return []
        axis = step.axis
        probe = self.probe
        if probe is not None:
            probe.work(self.name, len(contexts) + 1)
        if axis is Axis.SELF:
            kind = axis.principal_kind
            if probe is not None:
                probe.work(self.name, visited=len(contexts))
            test = step.test
            return [pre for pre in contexts
                    if columns.test_matches(pre, test, kind)]
        if axis is Axis.ATTRIBUTE:
            result: List[int] = []
            kind_column = columns.kind
            test = step.test
            for context in contexts:
                if kind_column[context] == KIND_ELEMENT:
                    attributes = columns.attributes_of(context)
                    if probe is not None:
                        probe.work(self.name, visited=len(attributes))
                    result.extend(
                        pre for pre in attributes
                        if columns.test_matches(pre, test, "attribute"))
            return result
        if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            return self._descendant_join(columns, contexts, step,
                                         axis is Axis.DESCENDANT_OR_SELF)
        if axis is Axis.CHILD:
            return self._child_join(columns, contexts, step)
        raise AssertionError(f"unsupported axis {axis}")

    def _descendant_join(self, columns: ColumnarDocument,
                         contexts: List[int], step: PatternStep,
                         include_self: bool) -> List[int]:
        pres = _stream(columns, step.test)
        end_column = columns.end
        pruned = _prune_covered(contexts, end_column)
        result: List[int] = []
        # The pruned staircase has pairwise-disjoint regions in document
        # order: concatenating the partition scans yields sorted,
        # duplicate-free output with no post-processing.
        for context in pruned:
            low_key = context if include_self else context + 1
            low = bisect_left(pres, low_key)
            high = bisect_right(pres, end_column[context])
            result.extend(pres[low:high])
        if self.probe is not None:
            self.probe.work(self.name, len(result), scanned=len(result),
                            visited=len(result))
        return result

    def _child_join(self, columns: ColumnarDocument,
                    contexts: List[int], step: PatternStep) -> List[int]:
        pres = _stream(columns, step.test)
        end_column = columns.end
        parent_column = columns.parent
        # Children of distinct contexts are disjoint, but nested contexts
        # interleave regions; detect the (common) non-nested case to skip
        # the merge.
        merged: List[int] = []
        nested = False
        previous_end = -1
        for context in contexts:
            if context <= previous_end:
                nested = True
            end = end_column[context]
            previous_end = max(previous_end, end)
            low = bisect_left(pres, context + 1)
            high = bisect_right(pres, end)
            if self.probe is not None:
                self.probe.work(self.name, high - low + 1,
                                scanned=high - low, visited=high - low)
            merged.extend(pre for pre in pres[low:high]
                          if parent_column[pre] == context)
        if nested:
            merged = sorted(set(merged))
        return merged

    def _positional_step(self, columns: ColumnarDocument,
                         contexts: List[int],
                         step: PatternStep) -> List[int]:
        """A positional step (``step[P]...[n]``) is inherently
        per-context: the staircase's bulk partition scan cannot apply,
        so each context is answered with its own region scan (positions
        count per context node, after branch filtering)."""
        end_column = columns.end
        merged: List[int] = []
        nested = False
        previous_end = -1
        for context in contexts:
            if context <= previous_end:
                nested = True
            previous_end = max(previous_end, end_column[context])
            survivors = self._staircase_step(columns, [context], step)
            for branch in step.predicates:
                survivors = [pre for pre in survivors
                             if self._branch_exists(columns, pre, branch)]
            index = step.position - 1
            if 0 <= index < len(survivors):
                merged.append(survivors[index])
        if nested:
            merged = sorted(set(merged))
        return merged

    def _branch_exists(self, columns: ColumnarDocument, context: int,
                       branch: PatternPath) -> bool:
        """Existential semi-join of a predicate branch from one node."""
        current = [context]
        for step in branch.steps:
            if step.position is not None:
                current = self._positional_step(columns, current, step)
            else:
                current = self._staircase_step(columns, current, step)
                for nested in step.predicates:
                    current = [pre for pre in current
                               if self._branch_exists(columns, pre,
                                                      nested)]
            if not current:
                return False
        return bool(current)


def _supported(path: PatternPath) -> bool:
    for step in path.steps:
        if step.axis not in _SUPPORTED_AXES:
            return False
        if isinstance(step.test, TextTest) and step.axis not in (
                Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            return False
        if not all(_supported(branch) for branch in step.predicates):
            return False
    return True


def _stream(columns: ColumnarDocument, test: NodeTest) -> Sequence[int]:
    """The document-wide sorted ``pre`` stream matching a node test."""
    if isinstance(test, NameTest):
        return columns.element_stream(test.name)
    if isinstance(test, ElementTest) and test.name is not None:
        return columns.element_stream(test.name)
    if isinstance(test, (WildcardTest, ElementTest)):
        return columns.element_pres
    if isinstance(test, TextTest):
        return columns.text_pres
    # node(): attributes are only reachable via the attribute axis.
    return columns.non_attribute_pres


def _prune_covered(contexts: List[int], end_column) -> List[int]:
    """Drop contexts contained in an earlier context (staircase pruning)."""
    pruned: List[int] = []
    boundary = -1
    for context in contexts:
        if context > boundary:
            pruned.append(context)
            boundary = end_column[context]
    return pruned
