"""Structural path summary (a DataGuide over tag paths).

A :class:`PathSummary` is built from an :class:`IndexedDocument`'s
integer columns in one pass — no node object is created — and never
invalidated (documents are immutable).  It maps every
distinct root-to-node *tag path* — the tuple of element names from the
document element down to a node — to its statistics: how many elements
share the path, the depth range of the subtrees below it, which child
tags, attributes and text occur under it.

Two consumers sit on top:

* the **pattern prefilter** (:meth:`PathSummary.can_match`): decide,
  without touching a single document node, whether a pattern path could
  possibly embed into the document.  Child steps are matched exactly
  against the summary trie; descendant steps through summary
  reachability.  The answer is *conservative*: ``False`` is proof that
  the pattern has no match (so the physical algorithms can return empty
  immediately), ``True`` only means "maybe".
* **selectivity estimation** (:meth:`PathSummary.pattern_volume`):
  per-query-node candidate cardinalities for the cost model of
  :mod:`repro.physical.cost`, replacing flat document-wide tag counts.

Both are memoized per (pattern, start point): the prefilter runs once
per ``TupleTreePattern`` evaluation, which happens per input tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Set, Tuple, Union)

from .axes import Axis
from .node import AttributeNode, ElementNode, Node, TextNode
from .nodetest import (AnyKindTest, ElementTest, NameTest, TextTest,
                       WildcardTest)

if TYPE_CHECKING:  # pattern imports xmltree; keep this one-directional.
    from ..pattern import PatternPath

__all__ = ["PathStats", "PathSummary", "SUMMARY_AXES"]

#: a root-to-node tag path; ``()`` denotes the document node itself.
TagPath = Tuple[str, ...]

#: non-element match points the prefilter tracks symbolically.
_ATTR = "@attribute"
_TEXT = "@text"

Point = Union[TagPath, str]

#: the axes the summary can reason about; a pattern using any other axis
#: is outside the downward fragment and is never pruned.
SUMMARY_AXES = frozenset({
    Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
    Axis.SELF, Axis.ATTRIBUTE,
})


class _Unsupported(Exception):
    """Internal: the pattern leaves the fragment the summary models."""


@dataclass
class PathStats:
    """Statistics for one distinct root-to-node tag path."""

    path: TagPath
    #: elements sharing this exact tag path.
    count: int = 0
    #: child elements by tag, summed over all elements at this path —
    #: the path's child-tag fanout.
    child_tags: Counter = field(default_factory=Counter)
    #: attribute names seen on elements at this path.
    attributes: Set[str] = field(default_factory=set)
    #: text-node children over all elements at this path.
    text_count: int = 0
    #: maximum element-depth below this path (0 for leaf paths).
    height: int = 0
    #: text nodes anywhere in subtrees at this path (self included).
    text_below: int = 0

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def depth_range(self) -> Tuple[int, int]:
        """(own depth, deepest element depth under this path)."""
        return (self.depth, self.depth + self.height)

    @property
    def fanout(self) -> int:
        """Distinct child tags under this path."""
        return len(self.child_tags)


class PathSummary:
    """Per-document structural summary over root-to-node tag paths."""

    def __init__(self, document) -> None:
        self.document = document
        #: stats per distinct element tag path (length ≥ 1).
        self.stats: Dict[TagPath, PathStats] = {}
        #: child tags per path, *including* the document point ``()``.
        self.children: Dict[TagPath, Set[str]] = {(): set()}
        #: text-node children per path, including ``()``.
        self.text_counts: Dict[TagPath, int] = {(): 0}
        #: all paths ending in a given tag (for descendant steps).
        self.tag_paths: Dict[str, List[TagPath]] = {}
        self.total_elements = 0
        self.total_text = 0
        self._node_paths: Dict[int, Point] = {}
        self._embed_cache: Dict[Tuple[object, Point], bool] = {}
        self._volume_cache: Dict[object, Optional[float]] = {}
        self._patterns: Dict[int, object] = {}
        self._build(document.columns)

    # -- construction -------------------------------------------------------

    def _build(self, columns) -> None:
        """Fill the statistics from the ``parent``/``name_id`` columns
        and the element, text and attribute ``pre`` streams.

        Paths are numbered as they first occur (id 0 is the document
        point ``()``).  Elements come in ``pre`` order, so a parent's
        path id is known before its children's."""
        parent_col = columns.parent
        name_col = columns.name_id
        names = columns.names
        width = len(names)
        # Path id per pre (set for elements and the document node).
        point = [0] * columns.n
        intern: Dict[int, int] = {}
        parents = [0]
        tags = [-1]
        counts = [0]
        for pre in columns.element_pres:
            parent = point[parent_col[pre]]
            name_id = name_col[pre]
            key = parent * width + name_id
            path = intern.get(key)
            if path is None:
                path = intern[key] = len(parents)
                parents.append(parent)
                tags.append(name_id)
                counts.append(0)
            counts[path] += 1
            point[pre] = path
        text_counts = [0] * len(parents)
        for pre in columns.text_pres:
            text_counts[point[parent_col[pre]]] += 1
        paths: List[TagPath] = [()]
        self.text_counts[()] = text_counts[0]
        for path_id in range(1, len(parents)):
            name = names[tags[path_id]]
            parent_path = paths[parents[path_id]]
            path = parent_path + (name,)
            paths.append(path)
            stats = self.stats[path] = PathStats(path, counts[path_id])
            stats.text_count = text_counts[path_id]
            self.children[path] = set()
            self.text_counts[path] = stats.text_count
            self.tag_paths.setdefault(name, []).append(path)
            self.children[parent_path].add(name)
            if parent_path:
                self.stats[parent_path].child_tags[name] = stats.count
        for name, pres in columns.attribute_pres.items():
            for path_id in {point[parent_col[pre]] for pre in pres}:
                self.stats[paths[path_id]].attributes.add(name)
        self.total_elements = len(columns.element_pres)
        self.total_text = len(columns.text_pres)
        # Bottom-up pass: subtree height and text reachability per path.
        for path in sorted(self.stats, key=len, reverse=True):
            stats = self.stats[path]
            stats.text_below += stats.text_count
            parent = path[:-1]
            if parent:
                parent_stats = self.stats[parent]
                parent_stats.height = max(parent_stats.height,
                                          stats.height + 1)
                parent_stats.text_below += stats.text_below

    # -- basic lookups ------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct element tag paths."""
        return len(self.stats)

    def path_count(self, path: Iterable[str]) -> int:
        """Elements at exactly this tag path (0 when absent)."""
        stats = self.stats.get(tuple(path))
        return stats.count if stats is not None else 0

    def path_of(self, node: Node) -> Point:
        """The summary point a document node maps to."""
        if isinstance(node, AttributeNode):
            return _ATTR
        if isinstance(node, TextNode):
            return _TEXT
        cached = self._node_paths.get(node.pre)
        if cached is not None:
            return cached
        names: List[str] = []
        current: Optional[Node] = node
        while current is not None and isinstance(current, ElementNode):
            names.append(current.name)
            current = current.parent
        path: Point = tuple(reversed(names))
        self._node_paths[node.pre] = path
        return path

    def _strict_descendants(self, prefix: TagPath) -> Iterator[TagPath]:
        stack = [prefix + (tag,) for tag in self.children.get(prefix, ())]
        while stack:
            path = stack.pop()
            yield path
            stack.extend(path + (tag,)
                         for tag in self.children.get(path, ()))

    def _text_below(self, path: TagPath) -> int:
        if not path:
            return self.total_text
        stats = self.stats.get(path)
        return stats.text_below if stats is not None else 0

    # -- the prefilter ------------------------------------------------------

    def can_match(self, path: "PatternPath",
                  contexts: Optional[Iterable[Node]] = None) -> bool:
        """Conservative embeddability test for a pattern path.

        Returns ``False`` only when *no* document node reachable from
        ``contexts`` (any node, when omitted) can produce a match —
        child steps are looked up exactly in the summary trie,
        descendant steps through reachability, predicate branches
        recursively.  Patterns using axes outside the downward fragment
        are never pruned.
        """
        if contexts is None:
            points: Iterable[Point] = self._all_points()
        else:
            points = {self.path_of(node) for node in contexts}
        try:
            return any(self._point_embeds(path, point) for point in points)
        except _Unsupported:
            return True

    def _all_points(self) -> Iterator[Point]:
        yield ()
        yield from self.stats

    def _point_embeds(self, path: "PatternPath", point: Point) -> bool:
        key = (self._pattern_key(path), point)
        cached = self._embed_cache.get(key)
        if cached is None:
            cached = self._embeds(path.steps, {point})
            self._embed_cache[key] = cached
        return cached

    def _pattern_key(self, path: "PatternPath") -> object:
        # Patterns inside a compiled plan are stable objects; keying the
        # memo by identity avoids rehashing the recursive dataclass on
        # every input tuple.
        self._patterns[id(path)] = path
        return id(path)

    def _embeds(self, steps, points: Set[Point]) -> bool:
        current = points
        for step in steps:
            if step.axis not in SUMMARY_AXES:
                raise _Unsupported(step.axis)
            current = self._advance(current, step)
            if step.predicates:
                current = {
                    point for point in current
                    if all(self._branch_embeds(branch, point)
                           for branch in step.predicates)}
            if not current:
                return False
            # step.position only filters further; ignoring it keeps the
            # test conservative.
        return True

    def _branch_embeds(self, branch: "PatternPath", point: Point) -> bool:
        key = (self._pattern_key(branch), point)
        cached = self._embed_cache.get(key)
        if cached is None:
            cached = self._embeds(branch.steps, {point})
            self._embed_cache[key] = cached
        return cached

    # -- one-step transitions ----------------------------------------------

    def _advance(self, points: Set[Point], step) -> Set[Point]:
        axis, test = step.axis, step.test
        out: Set[Point] = set()
        for point in points:
            if point == _ATTR or point == _TEXT:
                # Attribute and text nodes have no children, descendants
                # or attributes; only self:: can keep them alive.
                if axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
                    if isinstance(test, AnyKindTest):
                        out.add(point)
                    elif isinstance(test, TextTest) and point == _TEXT:
                        out.add(point)
                continue
            if axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
                self._self_points(point, test, out)
            if axis is Axis.CHILD:
                self._child_points(point, test, out)
            if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
                self._descendant_points(point, test, out)
            if axis is Axis.ATTRIBUTE:
                if point and self._attribute_matches(point, test):
                    out.add(_ATTR)
        return out

    def _self_points(self, path: TagPath, test, out: Set[Point]) -> None:
        if not path:
            # The document node is neither an element nor text.
            if isinstance(test, AnyKindTest):
                out.add(path)
            return
        if isinstance(test, NameTest):
            if path[-1] == test.name:
                out.add(path)
        elif isinstance(test, ElementTest):
            if test.name is None or path[-1] == test.name:
                out.add(path)
        elif isinstance(test, (WildcardTest, AnyKindTest)):
            out.add(path)

    def _child_points(self, path: TagPath, test, out: Set[Point]) -> None:
        children = self.children.get(path)
        if children is None:
            return
        if isinstance(test, NameTest) or (isinstance(test, ElementTest)
                                          and test.name is not None):
            name = test.name
            if name in children:
                out.add(path + (name,))
            return
        if isinstance(test, (WildcardTest, ElementTest)):
            out.update(path + (tag,) for tag in children)
            return
        if isinstance(test, TextTest):
            if self.text_counts.get(path, 0):
                out.add(_TEXT)
            return
        if isinstance(test, AnyKindTest):
            out.update(path + (tag,) for tag in children)
            if self.text_counts.get(path, 0):
                out.add(_TEXT)

    def _descendant_points(self, path: TagPath, test,
                           out: Set[Point]) -> None:
        if isinstance(test, NameTest) or (isinstance(test, ElementTest)
                                          and test.name is not None):
            depth = len(path)
            for candidate in self.tag_paths.get(test.name, ()):
                if len(candidate) > depth and candidate[:depth] == path:
                    out.add(candidate)
            return
        if isinstance(test, (WildcardTest, ElementTest)):
            out.update(self._strict_descendants(path))
            return
        if isinstance(test, TextTest):
            if self._text_below(path):
                out.add(_TEXT)
            return
        if isinstance(test, AnyKindTest):
            out.update(self._strict_descendants(path))
            if self._text_below(path):
                out.add(_TEXT)

    def _attribute_matches(self, path: TagPath, test) -> bool:
        stats = self.stats.get(path)
        if stats is None:
            return False
        if isinstance(test, NameTest):
            return test.name in stats.attributes
        if isinstance(test, (WildcardTest, AnyKindTest)):
            return bool(stats.attributes)
        return False

    # -- selectivity estimation ---------------------------------------------

    def pattern_volume(self, path: "PatternPath") -> Optional[float]:
        """Total candidate cardinality over a pattern's query nodes.

        For each step (spine and predicate branches alike) the summary
        yields the number of document nodes that can match that query
        node given the steps above it; the sum replaces the flat
        tag-count stream estimate in the cost model.  ``None`` when the
        pattern leaves the summarizable fragment.
        """
        key = self._pattern_key(path)
        if key in self._volume_cache:
            return self._volume_cache[key]
        try:
            volume = self._volume(path.steps, set(self._all_points()))
        except _Unsupported:
            volume = None
        self._volume_cache[key] = volume
        return volume

    def _volume(self, steps, points: Set[Point]) -> float:
        total = 0.0
        current = points
        for step in steps:
            if step.axis not in SUMMARY_AXES:
                raise _Unsupported(step.axis)
            previous = current
            current = self._advance(current, step)
            total += self._point_cardinality(current, previous, step)
            if step.predicates:
                for branch in step.predicates:
                    total += self._volume(branch.steps, current)
                current = {
                    point for point in current
                    if all(self._branch_embeds(branch, point)
                           for branch in step.predicates)}
            if not current:
                break
        return total

    def _point_cardinality(self, points: Set[Point], previous: Set[Point],
                           step) -> float:
        total = 0.0
        for point in points:
            if isinstance(point, tuple):
                if point:
                    total += self.stats[point].count
                else:
                    total += 1.0
            elif point == _TEXT:
                total += sum(self._text_below(prev)
                             for prev in previous
                             if isinstance(prev, tuple))
            else:   # _ATTR: one attribute per matching owner, roughly
                total += sum(self.stats[prev].count
                             for prev in previous
                             if isinstance(prev, tuple) and prev)
        return total
