"""Document wrapper: node table, per-tag streams and document order.

The structural-join algorithms (TwigJoin, Staircase join) do not navigate
the tree; they scan *streams*: for each element tag, the sorted (by
``pre``) list of elements with that tag.  :class:`IndexedDocument` keeps
these streams together with a table of nodes indexed by ``pre`` number.

The class is a *two-way facade* over
:class:`~repro.xmltree.columnar.ColumnarDocument`:

tree-first
    built from a parsed :class:`DocumentNode`; the node table and
    streams are built eagerly, and the integer columns the join inner
    loops scan are derived lazily on first access to :attr:`columns`.
column-first
    built from a :class:`ColumnarDocument` — typically mmap-opened from
    a saved index file via :meth:`IndexedDocument.open`.  The joins run
    directly on the integer columns, and node objects exist only for
    the nodes a query touches: :meth:`IndexedDocument.node_at` creates
    a node (and its missing ancestors) from the columns on first
    request, and a container node fills its ``children`` and
    ``attributes`` from the columns on first access.  :attr:`root` is
    ``node_at(0)``; the node-level streams (:attr:`nodes_by_pre`,
    :meth:`stream`, …) are derived through :meth:`node_at` as they are
    asked for.

Either way, every consumer of the old API — the seven strategies, the
path summary (built from the columns, see :mod:`repro.xmltree.summary`),
the prefilter, serve, trace — sees the same attributes with the same
meaning, and ``node_at(p) is node_at(p)`` always holds.

The module also provides :func:`ddo` — sorting by document order with
duplicate elimination — the dynamic counterpart of the special function
``fs:distinct-doc-order`` that the paper's normalization inserts.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from .columnar import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                       ColumnarDocument, StorageError)
from .node import AttributeNode, DocumentNode, ElementNode, Node, TextNode
from .parser import parse_xml

_PRE_KEY = attrgetter("pre")


class IndexedDocument:
    """A parsed document plus the indexes the join algorithms need.

    Construct with a parsed ``root`` (tree-first) or a ``columns``
    store (column-first) — exactly one of the two.
    """

    def __init__(self, root: Optional[DocumentNode] = None, *,
                 columns: Optional[ColumnarDocument] = None) -> None:
        if (root is None) == (columns is None):
            raise ValueError(
                "IndexedDocument takes exactly one of root= or columns=")
        self._root = root
        self._columns = columns
        #: the node table indexed by ``pre``; on column-first documents
        #: it holds ``None`` for every node not created yet.
        self._nodes: Optional[list[Optional[Node]]] = None
        self._nodes_by_pre: Optional[list[Node]] = None
        self._pres: Optional[list[int]] = None
        self._tag_streams: dict[str, list[ElementNode]] = {}
        self._tag_pres: Optional[dict[str, Sequence[int]]] = None
        self._attribute_streams: Optional[
            dict[str, list[AttributeNode]]] = None
        self._text_stream: Optional[list[TextNode]] = None
        self._summary = None
        self._summary_lock = threading.Lock()
        self._columns_lock = threading.Lock()
        #: guards node creation and filling on column-first documents.
        self._tree_lock = threading.Lock()
        self._store_kind = "object" if root is not None else "columnar"
        if root is not None:
            self._build()
        else:
            # Streams of pre numbers come straight from the columns; no
            # node object exists until something dereferences one.
            self._size = columns.n
            self._tag_pres = columns.tag_pres

    @classmethod
    def from_string(cls, text: str, uri: str = "") -> "IndexedDocument":
        return cls(parse_xml(text, uri))

    @classmethod
    def open(cls, path: Union[str, os.PathLike],
             verify: bool = True) -> "IndexedDocument":
        """Open a saved columnar index file (see
        :meth:`ColumnarDocument.open`): O(1) mmap, no re-parse."""
        return cls(columns=ColumnarDocument.open(path, verify=verify))

    def save(self, path: Union[str, os.PathLike]) -> int:
        """Persist the document's columnar form to ``path``; returns
        the byte size written."""
        return self.columns.save(path)

    # -- store identity -----------------------------------------------------

    @property
    def store_kind(self) -> str:
        """``"columnar"`` when column-first (opened from a saved index
        or built from a :class:`ColumnarDocument`), ``"object"`` when
        built from a parsed tree."""
        return self._store_kind

    # -- lazy column derivation (tree-first documents) -----------------------

    @property
    def columns(self) -> ColumnarDocument:
        """The document's integer-column form (see
        :mod:`repro.xmltree.columnar`), the representation the
        staircase/twig join inner loops scan.

        Column-first documents carry it from birth; tree-first
        documents derive it lazily, exactly once (double-check
        locked), from the dense node table.
        """
        if self._columns is None:
            if self._store_kind == "columnar":
                raise _closed()
            with self._columns_lock:
                if self._columns is None:
                    self._columns = ColumnarDocument.from_nodes(
                        self._nodes_by_pre, uri=self._root.uri)
        return self._columns

    @property
    def has_columns(self) -> bool:
        """True when the columnar form already exists (no build cost
        behind :attr:`columns`)."""
        return self._columns is not None

    # -- node access ----------------------------------------------------------

    @property
    def root(self) -> DocumentNode:
        root = self._root
        if root is None:
            root = self.node_at(0) if self._size else None
            if not isinstance(root, DocumentNode):
                raise StorageError("column store has no document node",
                                   check="root", path=self._columns.path)
        return root

    @property
    def nodes_by_pre(self) -> list[Node]:
        """Every node, in ``pre`` order (on a column-first document this
        creates every node not created yet)."""
        if self._nodes_by_pre is None:
            for pre in range(self._size):
                self.node_at(pre)
            self._nodes_by_pre = self._nodes
        return self._nodes_by_pre

    @property
    def tag_streams(self) -> dict[str, list[ElementNode]]:
        for tag in self._tag_pres:
            self.stream(tag)
        return self._tag_streams

    @property
    def tag_pres(self) -> dict[str, Sequence[int]]:
        # Available without any node object in both modes.
        return self._tag_pres

    @property
    def attribute_streams(self) -> dict[str, list[AttributeNode]]:
        if self._attribute_streams is None:
            self._attribute_streams = {
                name: [self.node_at(pre) for pre in pres]
                for name, pres in self.columns.attribute_pres.items()}
        return self._attribute_streams

    @property
    def text_stream(self) -> list[TextNode]:
        if self._text_stream is None:
            self._text_stream = [self.node_at(pre)
                                 for pre in self.columns.text_pres]
        return self._text_stream

    def _build(self) -> None:
        table: list[Node] = []
        stack: list[Node] = [self._root]
        while stack:
            node = stack.pop()
            table.append(node)
            if isinstance(node, ElementNode):
                for attribute in node.attributes:
                    table.append(attribute)
            stack.extend(reversed(node.children))
        table.sort(key=_PRE_KEY)
        self._nodes = self._nodes_by_pre = table
        self._size = len(table)
        tag_streams: dict[str, list[ElementNode]] = {}
        attribute_streams: dict[str, list[AttributeNode]] = {}
        text_stream: list[TextNode] = []
        for node in table:
            if isinstance(node, ElementNode):
                tag_streams.setdefault(node.name, []).append(node)
            elif isinstance(node, AttributeNode):
                attribute_streams.setdefault(node.name, []).append(node)
            elif isinstance(node, TextNode):
                text_stream.append(node)
        self._tag_streams = tag_streams
        self._attribute_streams = attribute_streams
        self._text_stream = text_stream
        self._tag_pres = {
            tag: [element.pre for element in stream]
            for tag, stream in tag_streams.items()
        }

    def node_at(self, pre: int) -> Node:
        """The node with the given ``pre`` number.

        O(1) by construction on densely numbered tables (the normal
        case: :func:`~repro.xmltree.node.assign_regions` numbers every
        node, attributes included, consecutively).  On a column-first
        document the node is created from the columns on first request,
        its missing ancestors first so ``parent`` is always set, and
        cached, so later requests return the same object.  If a
        tree-first table is *not* dense — e.g. a document wrapped around
        a re-rooted fragment that kept its original numbers — the lookup
        degrades to a binary search instead of silently returning the
        wrong node.  Unknown ``pre`` values raise :class:`KeyError`,
        never :class:`IndexError` and never a negative-index alias.
        """
        table = self._nodes
        if table is not None and 0 <= pre < len(table):
            node = table[pre]
            if node is not None and node.pre == pre:
                return node
        if self._store_kind == "columnar":
            if 0 <= pre < self._size:
                with self._tree_lock:
                    return self._create(pre)
        elif pre >= 0:
            # Sparse table: fall back to bisect over the sorted pres.
            if self._pres is None:
                self._pres = [node.pre for node in table]
            index = bisect_left(self._pres, pre)
            if index < len(table) and table[index].pre == pre:
                return table[index]
        raise KeyError(f"no node with pre={pre}")

    def _create(self, pre: int) -> Node:
        """Node ``pre`` of a column-first document, created with its
        missing ancestors if needed.  Call with the tree lock held."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = [None] * self._size
        node = nodes[pre]
        if node is not None:
            return node
        columns = self._columns
        if columns is None:
            raise _closed()
        parent_col = columns.parent
        missing = [pre]
        ancestor = parent_col[pre]
        while ancestor >= 0 and nodes[ancestor] is None:
            missing.append(ancestor)
            ancestor = parent_col[ancestor]
        node = nodes[ancestor] if ancestor >= 0 else None
        for missing_pre in reversed(missing):
            node = self._new_node(columns, missing_pre, node)
        return node

    def _new_node(self, columns: ColumnarDocument, pre: int,
                  parent: Optional[Node]) -> Node:
        kind = columns.kind[pre]
        node: Node
        if kind == KIND_ELEMENT:
            node = ElementNode.__new__(ElementNode)
            node._name = columns.name_of(pre)
            node._children = node._attributes = None
            node._source = self
        elif kind == KIND_ATTRIBUTE:
            node = AttributeNode(columns.name_of(pre), columns.text_of(pre))
        elif kind == KIND_DOCUMENT:
            node = DocumentNode.__new__(DocumentNode)
            node.uri = columns.uri
            node._children = None
            node._source = self
            self._root = node
        else:
            node = TextNode(columns.text_of(pre))
        node.pre = pre
        node.post = columns.post[pre]
        node.level = columns.level[pre]
        node.end = columns.end[pre]
        node.parent = parent
        self._nodes[pre] = node
        return node

    def fill(self, node: Union[DocumentNode, ElementNode]) -> None:
        """Fill the children (and attributes) of a container node that
        :meth:`node_at` created, from the columns.  Called by the node's
        ``children``/``attributes`` properties on first access."""
        with self._tree_lock:
            if node._children is not None:
                return
            columns = self._columns
            if columns is None:
                raise _closed()
            nodes = self._nodes
            pre = node.pre
            if isinstance(node, ElementNode):
                node._attributes = [
                    nodes[child] or self._new_node(columns, child, node)
                    for child in columns.attributes_of(pre)]
            node._children = [
                nodes[child] or self._new_node(columns, child, node)
                for child in columns.children_of(pre)]

    # -- stream access ------------------------------------------------------

    @property
    def size(self) -> int:
        """Total node count — answered without creating any node."""
        return self._size

    def stream(self, tag: str) -> list[ElementNode]:
        """All elements with ``tag``, sorted by ``pre``."""
        stream = self._tag_streams.get(tag)
        if stream is None:
            pres = self._tag_pres.get(tag)
            if pres is None:
                return []
            stream = [self.node_at(pre) for pre in pres]
            self._tag_streams[tag] = stream
        return stream

    def all_elements(self) -> list[ElementNode]:
        return [node for node in self.nodes_by_pre
                if isinstance(node, ElementNode)]

    def stream_in_region(self, tag: str, context: Node,
                         include_self: bool = False) -> list[ElementNode]:
        """Elements with ``tag`` inside the subtree of ``context``.

        Performs a binary search on the integer tag stream to the start
        of the context's region, then slices the containment interval —
        the ``log(|input|)`` index lookup cost per step that Section 5.3
        of the paper attributes to the stream-based algorithms.  Only
        the nodes inside the slice are dereferenced.
        """
        pres = self._tag_pres.get(tag)
        if not pres:
            return []
        low_key = context.pre if include_self else context.pre + 1
        low = bisect_left(pres, low_key)
        high = bisect_right(pres, context.end)
        return [self.node_at(pres[index]) for index in range(low, high)]

    @property
    def summary(self):
        """The document's structural path summary (see
        :mod:`repro.xmltree.summary`), built from the columns on first
        access and cached for the document's lifetime — documents are
        immutable, so the summary never needs invalidation.

        The build is double-check locked: concurrent first accesses
        (e.g. a :mod:`repro.serve` worker pool warming one document)
        build the summary exactly once, and the fast path after that
        stays a single attribute read.
        """
        if self._summary is None:
            with self._summary_lock:
                if self._summary is None:
                    from .summary import PathSummary
                    self._summary = PathSummary(self)
        return self._summary

    def close(self) -> None:
        """Release the mmap behind a column-first document (no-op for
        tree-first documents).

        When nodes were already handed out, the columns are copied into
        process memory first (:meth:`ColumnarDocument.detach`), so those
        nodes keep filling their children and the document keeps
        answering queries.  Otherwise the columns are dropped and any
        later node access raises :class:`StorageError`
        (``check="closed"``)."""
        columns = self._columns
        if columns is None or not columns.is_mapped:
            return
        if self._nodes is not None:
            # Drop our references to the mapped streams before the map
            # is released, then point at the detached copies.
            self._tag_pres = None
            columns.detach()
            self._tag_pres = columns.tag_pres
        else:
            self._tag_pres = {tag: list(stream)
                              for tag, stream in self._tag_pres.items()}
            columns.close()
            self._columns = None


def _closed() -> StorageError:
    return StorageError("document store was closed before its nodes "
                        "were created", check="closed")


def document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes by document order (within one tree)."""
    return sorted(nodes, key=_PRE_KEY)


def ddo(nodes: Iterable[Node]) -> list[Node]:
    """Distinct-doc-order: sort by document order and drop duplicates.

    Duplicates are determined by ``pre`` number, which coincides with
    node identity inside a single tree (the paper's setting) and stays
    correct when the same logical node is reachable through both the
    object table and a columnar materialization.
    """
    ordered = sorted(nodes, key=_PRE_KEY)
    result: list[Node] = []
    previous = -1
    for node in ordered:
        if node.pre != previous:
            result.append(node)
            previous = node.pre
    return result


def is_distinct_doc_ordered(nodes: Sequence[Node]) -> bool:
    """True if the sequence is strictly increasing in document order."""
    return all(nodes[index].pre < nodes[index + 1].pre
               for index in range(len(nodes) - 1))
