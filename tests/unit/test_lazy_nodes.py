"""The on-demand node contract of column-first documents.

A column-first :class:`IndexedDocument` creates node objects only when
something asks for them (``node_at``, ``children``, ``attributes``,
``parent``), yet must be indistinguishable from the eagerly built tree:
same region numbers, names, values and structure, one object per
``pre`` no matter the order or the thread that touches it first, and
nodes handed out before ``close()`` keep working after it.
"""

import os
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmltree import IndexedDocument, StorageError, serialize
from repro.xmltree.node import AttributeNode, ElementNode, TextNode

TAGS = ("a", "b", "c")


@st.composite
def documents(draw):
    """Random XML text: nested elements with attributes and text."""

    def element(depth):
        tag = draw(st.sampled_from(TAGS))
        names = draw(st.lists(st.sampled_from(("x", "y", "z")),
                              max_size=2, unique=True))
        attributes = "".join(
            f' {name}="{draw(st.sampled_from(("1", "two", "")))}"'
            for name in names)
        parts = []
        if depth < 4:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                if draw(st.booleans()):
                    parts.append(element(depth + 1))
                else:
                    parts.append(draw(st.sampled_from(("t", "u v", "w"))))
        return f"<{tag}{attributes}>{''.join(parts)}</{tag}>"

    return element(0)


OPERATIONS = st.lists(
    st.tuples(st.sampled_from(("node_at", "children", "parent",
                               "attributes", "string_value")),
              st.integers(min_value=0, max_value=1000)),
    min_size=1, max_size=40)


def lazy_copy(eager):
    return IndexedDocument(columns=eager.columns)


def value_of(node):
    if isinstance(node, AttributeNode):
        return node.value
    if isinstance(node, TextNode):
        return node.text
    return None


def assert_same_node(ours, theirs):
    assert type(ours) is type(theirs)
    assert (ours.pre, ours.post, ours.level, ours.end) == \
        (theirs.pre, theirs.post, theirs.level, theirs.end)
    assert ours.kind == theirs.kind
    assert ours.name == theirs.name
    assert value_of(ours) == value_of(theirs)
    if theirs.parent is None:
        assert ours.parent is None
    else:
        assert ours.parent.pre == theirs.parent.pre


def assert_same_structure(ours, theirs):
    assert_same_node(ours, theirs)
    assert [child.pre for child in ours.children] == \
        [child.pre for child in theirs.children]
    if isinstance(theirs, ElementNode):
        assert [attribute.pre for attribute in ours.attributes] == \
            [attribute.pre for attribute in theirs.attributes]


@settings(max_examples=80, deadline=None)
@given(text=documents(), operations=OPERATIONS)
def test_random_touch_order_matches_eager_tree(text, operations):
    eager = IndexedDocument.from_string(text)
    lazy = lazy_copy(eager)
    touched = {}
    cursor = None
    for operation, index in operations:
        if operation == "node_at" or cursor is None:
            cursor = lazy.node_at(index % lazy.size)
        elif operation == "children":
            if cursor.children:
                cursor = cursor.children[index % len(cursor.children)]
        elif operation == "parent":
            cursor = cursor.parent or cursor
        elif operation == "attributes":
            if isinstance(cursor, ElementNode) and cursor.attributes:
                cursor = cursor.attributes[index % len(cursor.attributes)]
        else:
            assert cursor.string_value() == \
                eager.node_at(cursor.pre).string_value()
        assert_same_node(cursor, eager.node_at(cursor.pre))
        touched[cursor.pre] = cursor
    for pre, node in touched.items():
        assert lazy.node_at(pre) is node
        assert_same_structure(node, eager.node_at(pre))
    assert serialize(lazy.root) == serialize(eager.root)


XML = ('<site><people><person id="p1"><name>John</name>'
       '<emailaddress>j@x</emailaddress></person>'
       '<person id="p2"><name>Ada</name><note/></person></people>'
       '<regions><item ref="p1">text &amp; more</item></regions></site>')


@pytest.fixture()
def saved(tmp_path):
    eager = IndexedDocument.from_string(XML)
    path = os.path.join(tmp_path, "site.rpxc")
    eager.save(path)
    return eager, path


def test_creating_a_node_creates_only_its_ancestors(saved):
    eager, path = saved
    document = IndexedDocument.open(path)
    name = eager.stream("name")[1]
    node = document.node_at(name.pre)
    ancestors = [ancestor.pre for ancestor in node.iter_ancestors()]
    assert ancestors == [a.pre for a in name.iter_ancestors()]
    created = [pre for pre, slot in enumerate(document._nodes)
               if slot is not None]
    assert created == sorted(ancestors + [name.pre])
    document.close()


def test_concurrent_first_dereferences_share_objects(saved):
    eager, path = saved
    document = IndexedDocument.open(path)
    barrier = threading.Barrier(4)
    seen = [None] * 4
    errors = []

    def walk(index):
        try:
            barrier.wait()
            found = {}
            stack = [document.root]
            while stack:
                node = stack.pop()
                found[node.pre] = node
                if isinstance(node, ElementNode):
                    for attribute in node.attributes:
                        found[attribute.pre] = attribute
                stack.extend(node.children)
            for pre in reversed(range(document.size)):
                assert document.node_at(pre) is found[pre]
            for tag in ("person", "name"):
                assert [n.pre for n in document.stream(tag)] == \
                    [n.pre for n in eager.stream(tag)]
            seen[index] = found
        except BaseException as err:  # surfaced by the main thread
            errors.append(err)

    threads = [threading.Thread(target=walk, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for found in seen[1:]:
        assert found.keys() == seen[0].keys()
        assert all(found[pre] is seen[0][pre] for pre in found)
    assert len(seen[0]) == eager.size
    document.close()


def test_nodes_handed_out_survive_close(saved):
    eager, path = saved
    document = IndexedDocument.open(path)
    people = document.node_at(eager.stream("people")[0].pre)
    item = document.node_at(eager.stream("item")[0].pre)
    document.close()
    assert not document.columns.is_mapped
    # Neither node had its children filled before the close.
    assert serialize(people) == serialize(eager.stream("people")[0])
    assert serialize(item) == serialize(eager.stream("item")[0])
    assert serialize(document.root) == serialize(eager.root)


def test_untouched_closed_document_refuses_node_access(saved):
    _, path = saved
    document = IndexedDocument.open(path)
    document.close()
    with pytest.raises(StorageError) as err:
        document.root
    assert err.value.context["check"] == "closed"
