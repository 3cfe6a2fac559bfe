"""The AUTO and COST choosers on both evaluation paths."""

import pytest

from repro.data import member_document
from repro.pattern import parse_pattern
from repro.physical import (CostBasedChooser, HeuristicChooser, NLJoin,
                            make_algorithm)


@pytest.fixture(scope="module")
def doc():
    return member_document(600, depth=5, tag_count=4, seed=31)


@pytest.fixture(scope="module")
def reference():
    return NLJoin()


PATHS = [
    "IN#d/descendant::t01{o}",
    "IN#d/descendant::t01[child::t02]{o}",
    "IN#d/child::t01/child::t02{o}",
    "IN#d/descendant::t01{p}/child::t02{o}",
]


@pytest.mark.parametrize("chooser_factory", [HeuristicChooser,
                                             CostBasedChooser],
                         ids=["auto", "cost"])
class TestChoosers:
    @pytest.mark.parametrize("pattern_text", PATHS[:3])
    def test_match_single_agrees(self, chooser_factory, pattern_text, doc,
                                 reference):
        chooser = chooser_factory(doc)
        path = parse_pattern(pattern_text).path
        expected = reference.match_single(doc, [doc.root], path)
        assert chooser.match_single(doc, [doc.root], path) == expected

    def test_enumerate_bindings_agrees(self, chooser_factory, doc,
                                       reference):
        chooser = chooser_factory(doc)
        path = parse_pattern(PATHS[3]).path
        expected = reference.enumerate_bindings(doc, doc.root, path)
        got = chooser.enumerate_bindings(doc, doc.root, path)
        assert [sorted((k, v.pre) for k, v in b.items()) for b in got] == \
            [sorted((k, v.pre) for k, v in b.items()) for b in expected]

    def test_decisions_logged(self, chooser_factory, doc):
        chooser = chooser_factory(doc)
        path = parse_pattern(PATHS[0]).path
        chooser.match_single(doc, [doc.root], path)
        chooser.match_single(doc, [doc.root], path)
        assert len(chooser.decisions) == 2

    def test_per_context_decisions_can_differ(self, chooser_factory, doc):
        """The choosers decide per evaluation, so a root context and a
        leaf context may pick different algorithms."""
        chooser = chooser_factory(doc)
        path = parse_pattern("IN#d/child::t02{o}").path
        leafish = doc.all_elements()[-1]
        chooser.match_single(doc, [doc.root], path)
        chooser.match_single(doc, [leafish], path)
        assert len(chooser.decisions) == 2  # both calls went through


class TestStrategyEnumCompleteness:
    def test_every_concrete_strategy_instantiable(self, doc):
        for name in ("nljoin", "twigjoin", "scjoin", "stacktree",
                     "streaming"):
            algorithm = make_algorithm(name)
            assert algorithm.name == name

    def test_choosers_need_no_document_until_use(self):
        # construction without a document must not raise
        assert make_algorithm("auto").name == "auto"
        assert make_algorithm("cost").name == "cost"

    def test_all_strategies_resolve_through_engine(self, doc):
        from repro import Engine
        engine = Engine(doc)
        expected = [n.pre for n in engine.run("$input//t02",
                                              strategy="nljoin")]
        for name in ("twigjoin", "scjoin", "stacktree", "streaming",
                     "auto", "cost"):
            got = [n.pre for n in engine.run("$input//t02", strategy=name)]
            assert got == expected, name


class TestChooserStatisticsFromColumns:
    """The choosers' document statistics come from the columns; they
    must equal the node-level definitions, on both stores."""

    PATHS = ["IN#d/descendant::t01[child::t02]/child::t03{o}",
             "IN#d/descendant::*/child::t04{o}",
             "IN#d/descendant::nosuchtag{o}"]

    @pytest.fixture(scope="class")
    def stores(self, doc, tmp_path_factory):
        from repro.xmltree import IndexedDocument
        path = tmp_path_factory.mktemp("choosers") / "member.rpxc"
        doc.save(path)
        reopened = IndexedDocument.open(path)
        yield doc, reopened
        reopened.close()

    def test_identical_on_object_and_reopened_store(self, stores):
        from repro.physical.cost import CostModel
        from repro.physical.strategy import estimated_stream_size
        doc, reopened = stores
        assert reopened.store_kind == "columnar"
        models = [CostModel(store, summary=None) for store in stores]
        elements = doc.all_elements()
        fanout = (sum(len(element.children) for element in elements)
                  / len(elements))
        assert [model.average_fanout for model in models] == [fanout] * 2
        for text in self.PATHS:
            path = parse_pattern(text).path
            sizes = [estimated_stream_size(store, path) for store in stores]
            volumes = [model._tag_count_volume(path, 300)
                       for model in models]
            assert sizes[0] == sizes[1]
            assert volumes[0] == volumes[1]
        path = parse_pattern(self.PATHS[0]).path
        assert estimated_stream_size(doc, path) == (
            len(doc.stream("t01")) + len(doc.stream("t02"))
            + len(doc.stream("t03")))

    def test_statistics_create_no_nodes(self, stores):
        from repro.physical.cost import CostModel
        from repro.physical.strategy import estimated_stream_size
        from repro.xmltree import IndexedDocument
        _, reopened = stores
        fresh = IndexedDocument(columns=reopened.columns)
        CostModel(fresh, summary=None)
        estimated_stream_size(fresh, parse_pattern(self.PATHS[0]).path)
        assert fresh._nodes is None
