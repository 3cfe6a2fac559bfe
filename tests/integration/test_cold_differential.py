"""The golden corpus on cold columnar documents.

:mod:`tests.integration.test_columnar_differential` reuses one engine
per document, so later queries find nodes that earlier queries created.
Here every (query, strategy, backend) opens its own fresh ``.rpxc``, so
each run starts from a document with no node object at all and must
still serialize byte-identically to the object-store reference (the
recorded golden bytes).  Every result is rendered once more after the
document is closed: nodes handed out before ``close()`` keep working.
"""

import pytest

from repro import Engine
from repro.xmltree import IndexedDocument

from tests.support.make_golden import (GOLDEN_DIR, golden_queries,
                                       reference_engines, render_results)

ALL_STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree",
                  "streaming", "auto", "cost", "item")

_QUERIES = golden_queries()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cold")
    paths = {}
    for name, engine in reference_engines().items():
        paths[name] = directory / f"{name}.rpxc"
        engine.document.save(paths[name])
    return paths


@pytest.mark.parametrize("backend", ["interpreted", "compiled"])
@pytest.mark.parametrize("stem", sorted(_QUERIES))
def test_golden_bytes_on_a_cold_document(saved, stem, backend):
    name = stem.split("_", 1)[0]
    expected = (GOLDEN_DIR / f"{stem}.xml").read_text(encoding="utf-8")
    for strategy in ALL_STRATEGIES:
        document = IndexedDocument.open(saved[name])
        assert document._nodes is None
        results = Engine(document, backend=backend).run(
            _QUERIES[stem], strategy=strategy)
        got = render_results(results)
        document.close()
        assert got == expected, (
            f"{stem} under {strategy} ({backend}) on a cold columnar "
            f"document drifted from the golden corpus")
        assert render_results(results) == expected, (
            f"{stem} under {strategy} ({backend}): results changed "
            f"after close()")
