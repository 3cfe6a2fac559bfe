"""Seeded generator of distinct query texts for the ``compile_churn``
workload.

The texts are built from the paper's own query shapes, so the compile
pipeline sees the kind of input it was designed for:

* **Figure 4 variants** — a five-step downward XMark path with one
  predicate, spelled with every subset of its ``/`` joins turned into
  ``for`` clauses, optionally with the predicate moved into a ``where``
  clause (the Section 5.1 experiment, over many paths instead of one);
* **QE shapes** — the six Figure 5 templates over the MemBeR tags
  ``t01``–``t06`` in every slot;
* **XMark paths** — random downward walks of the XMark schema with
  mixed ``/`` and ``//`` steps, optional predicates and ``count()``.

The tag graph is read from the generated document, so every path exists
in the data; the generator never emits the same text twice.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Set, Tuple

#: the Figure 5 templates with their four tag slots.
QE_TEMPLATES = (
    "$input/desc::{0}[child::{1}[child::{2}[child::{3}]]]",
    "$input/desc::{0}/child::{1}[1]/child::{2}[child::{3}]",
    "$input/desc::{0}[child::{1}[child::{2}]/child::{3}[child::{2}]]",
    "$input/desc::{0}[desc::{1}[desc::{2}[desc::{3}]]]",
    "$input/desc::{0}/desc::{1}[1]/desc::{2}[desc::{3}]",
    "$input/desc::{0}[desc::{1}[desc::{2}]/desc::{3}[desc::{2}]]",
)

MEMBER_TAGS = tuple(f"t0{index}" for index in range(1, 7))

TagGraph = Dict[str, Sequence[str]]


def tag_graph(root) -> TagGraph:
    """parent tag → sorted child element tags, read from a document."""
    children: Dict[str, Set[str]] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in getattr(node, "children", ()):
            name = getattr(child, "name", None)
            if name is None or not hasattr(child, "children"):
                continue
            children.setdefault(node.name or "", set()).add(name)
            stack.append(child)
    return {tag: tuple(sorted(names)) for tag, names in children.items()}


def _walk(graph: TagGraph, rng: random.Random, steps: int) -> List[str]:
    """A downward chain of ``steps`` element tags from the document
    element (shorter when it reaches a leaf)."""
    path = [graph[""][0]]
    while len(path) < steps and graph.get(path[-1]):
        path.append(rng.choice(graph[path[-1]]))
    return path


def figure4_variant(graph: TagGraph, rng: random.Random) -> str:
    """One FLWOR/path spelling of a five-step path with a predicate."""
    steps = _walk(graph, rng, 5)
    while len(steps) < 4:
        steps = _walk(graph, rng, 5)
    anchor = rng.randrange(1, len(steps) - 1)
    witness = rng.choice(graph.get(steps[anchor]) or (steps[anchor + 1],))
    mask = rng.randrange(1 << (len(steps) - 1))
    where_form = rng.random() < 0.25
    if where_form:
        mask |= 1 << anchor        # the predicate's step must be bound
    clauses: List[str] = []
    current = "$input"
    for position, step in enumerate(steps):
        predicate = f"[{witness}]" \
            if position == anchor and not where_form else ""
        current = f"{current}/{step}{predicate}"
        if position < len(steps) - 1 and mask & (1 << position):
            var = f"$x{len(clauses) + 1}"
            clauses.append(f"for {var} in {current}")
            if position == anchor and where_form:
                clauses.append(f"where {var}/{witness}")
            current = var
    if not clauses:
        return current
    return " ".join(clauses) + f" return {current}"


def qe_shape(rng: random.Random) -> str:
    template = rng.choice(QE_TEMPLATES)
    return template.format(*(rng.choice(MEMBER_TAGS) for _ in range(4)))


def xmark_path(graph: TagGraph, rng: random.Random) -> str:
    steps = _walk(graph, rng, rng.randint(2, 6))
    text = "$input"
    axis = "/"
    for position, step in enumerate(steps):
        if 0 < position < len(steps) - 1 and rng.random() < 0.3:
            axis = "//"               # skip this step: '//' reaches past it
            continue
        predicate = ""
        below = graph.get(step)
        if below and rng.random() < 0.3:
            predicate = f"[{rng.choice(below)}]"
        text += f"{axis}{step}{predicate}"
        axis = "/"
    if rng.random() < 0.2:
        text = f"count({text})"
    return text


def generate(xmark_graph: TagGraph, seed: int,
             count: int) -> Iterator[Tuple[str, str]]:
    """``count`` distinct ``(document, query)`` pairs, where the
    document is ``"member"`` for QE shapes and ``"xmark"`` otherwise;
    the three families are drawn in equal shares."""
    rng = random.Random(seed)
    seen: Set[str] = set()
    produced = 0
    misses = 0
    while produced < count:
        family = rng.randrange(3)
        if family == 0:
            pair = ("xmark", figure4_variant(xmark_graph, rng))
        elif family == 1:
            pair = ("member", qe_shape(rng))
        else:
            pair = ("xmark", xmark_path(xmark_graph, rng))
        if pair[1] in seen:
            misses += 1
            if misses > 50 * count:
                raise RuntimeError("query generator ran out of texts")
            continue
        seen.add(pair[1])
        produced += 1
        yield pair
