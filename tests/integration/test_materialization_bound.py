"""Opening a columnar document and answering a selective query creates
node objects only for what the query touches.

A fresh mmap-opened XMark ``.rpxc`` answers a catalog path under every
stream-based strategy and both backends.  The nodes created, and the
growth in GC-tracked objects across compiling and running the query,
must both stay under 10% of the document's node count: the structural
summary is built from the integer columns, ``$input`` binds to the
document node alone, and results are created per ``pre``.
"""

import gc

import pytest

from repro import Engine
from repro.data import xmark_document
from repro.xmltree import IndexedDocument, serialize
from repro.xmltree.node import Node

QUERY = "$input/site/regions/africa/item/name"
BOUND = 0.10


def live_nodes() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Node))


@pytest.fixture(scope="module")
def xmark(tmp_path_factory):
    document = xmark_document(50, seed=19992001)
    path = tmp_path_factory.mktemp("bound") / "xmark.rpxc"
    document.save(path)
    expected = [serialize(node)
                for node in Engine(document).run(QUERY, strategy="nljoin")]
    assert expected
    return path, expected


@pytest.mark.parametrize("backend", ["interpreted", "compiled"])
@pytest.mark.parametrize("strategy", ["scjoin", "twigjoin", "auto", "cost"])
def test_first_query_creates_few_nodes(xmark, strategy, backend):
    path, expected = xmark
    gc.collect()
    nodes_before = live_nodes()
    document = IndexedDocument.open(path)
    limit = BOUND * document.size
    try:
        # The per-document statistics the engine builds once: sized by
        # the distinct tag paths, never by the node count.
        document.summary
        assert live_nodes() == nodes_before
        gc.collect()
        objects_before = len(gc.get_objects())
        engine = Engine(document, backend=backend)
        results = engine.run(QUERY, strategy=strategy)
        gc.collect()
        grown = len(gc.get_objects()) - objects_before
        created = live_nodes() - nodes_before
        assert [serialize(node) for node in results] == expected
        assert created < limit, (
            f"{created} nodes created for {len(results)} results "
            f"on a {document.size}-node document")
        assert grown < limit, (
            f"{grown} GC-tracked objects grown on a "
            f"{document.size}-node document")
    finally:
        document.close()
