"""Input generation and the independent reference outputs.

Run as ``python3 perfbench/inputs.py WORKLOAD SEED DIRECTORY`` by
``run.py``, in its own process, so that generating documents and
computing the expected outputs (the benchmark's own work) adds neither
to the measured process's peak memory nor to its set-up time.

It writes the workload's XML documents and an ``inputs.json`` with the
request list and, for every distinct ``(document, query)``, the digest
and item count of the expected output.  Expected outputs come from the
``"item"`` evaluator on the *unoptimized* plan over the XML parsed
afresh: that path bypasses TPNF' rewriting, the optimizer and all seven
tree-pattern algorithms, so it checks them rather than repeats them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Dict, List, Sequence, Tuple

#: document sizes per workload (MemBeR nodes, XMark persons).  Sized so
#: that one 10-second run collects a few hundred to a few thousand ops
#: on a 2-core machine.
COLD_XMARK_PERSONS = 50
WARM_MEMBER_NODES = 2_000
WARM_XMARK_PERSONS = 100
CHURN_MEMBER_NODES = 600
CHURN_XMARK_PERSONS = 15
#: generator seed of the MemBeR documents (see :func:`_member`).
MEMBER_SEED = 20070415
#: distinct compile_churn texts per run: far more than the engine's
#: 64-entry plan cache, and more than one run's ops on this hardware.
CHURN_POOL = 2_400

#: XMark catalog entries the mixes leave out: XQ9 is a quadratic value
#: join (0.47 s at 200 persons; unfinished after minutes at 1,000).
EXCLUDED_CATALOG = ("XQ9",)

#: strategies crossed with every warm_mix / cluster_mix query;
#: ``None`` is the engine default.
STRATEGIES = (None, "twigjoin", "scjoin", "auto", "cost")
BACKENDS = ("interpreted", "compiled")

#: queries the structural summary proves empty on each document, so
#: the prefilter is exercised.
PROVABLY_EMPTY = {
    "member": ("$input/desc::t01/child::t07",
               "$input/desc::t02[child::t08]"),
    "xmark": ("$input/site/people/person/bidder",),
}


def render(results: Sequence) -> List[str]:
    """A result sequence as strings: serialized nodes, typed atomics."""
    from repro import serialize
    return [serialize(item) if hasattr(item, "pre")
            else f"{type(item).__name__}:{item!r}" for item in results]


def digest(rendered: Sequence[str]) -> str:
    return hashlib.sha256("\x1e".join(rendered).encode()).hexdigest()


def request_key(document: str, query: str) -> str:
    return f"{document}\t{query}"


# -- documents ---------------------------------------------------------------


def _write_xml(directory: str, name: str, indexed) -> Dict[str, object]:
    from repro import serialize
    text = serialize(indexed.root)
    path = os.path.join(directory, f"{name}.xml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return {"xml": f"{name}.xml", "nodes": indexed.size,
            "xml_bytes": len(text.encode())}


def _xmark(persons: int, seed: int):
    from repro.data import xmark_document
    return xmark_document(persons, seed=seed)


def _member(nodes: int):
    """A depth-8, 6-tag MemBeR document on which every QE query has
    results: the first qualifying candidate from a fixed generator
    seed.  It is the same for every benchmark seed because such random
    trees differ up to twofold in QE work from one generator seed to the
    next, which would swamp the changes the benchmark has to resolve."""
    from repro import Engine
    from repro.bench.harness import QE_QUERIES
    from repro.data import member_document
    for attempt in range(200):
        document = member_document(nodes, depth=8, tag_count=6,
                                   seed=MEMBER_SEED + attempt)
        engine = Engine(document)
        if all(engine.run(query) for query in QE_QUERIES.values()):
            return document
    raise RuntimeError("no MemBeR candidate gives non-empty QE results")


# -- reference ---------------------------------------------------------------


def reference(directory: str, documents: Dict[str, Dict[str, object]],
              pairs: Sequence[Tuple[str, str]],
              skip_failures: bool = False) -> Dict[str, list]:
    """``key → [digest, item count]`` for every distinct pair.

    With ``skip_failures`` a query the reference evaluator rejects is
    left out (the caller then drops it from the workload)."""
    from repro import Engine
    from repro.guard import ReproError
    engines = {name: Engine.from_file(os.path.join(directory, spec["xml"]),
                                      store="object")
               for name, spec in documents.items()}
    expected: Dict[str, list] = {}
    for document, query in pairs:
        key = request_key(document, query)
        if key in expected:
            continue
        try:
            results = engines[document].run(query, strategy="item",
                                            optimize=False,
                                            backend="interpreted")
        except ReproError:
            if skip_failures:
                continue
            raise
        expected[key] = [digest(render(results)), len(results)]
    return expected


# -- workloads ---------------------------------------------------------------


def _catalog_queries(include_joins: bool) -> List[str]:
    from repro.bench.xmark_queries import XMARK_CATALOG
    return [entry.query for name, entry in XMARK_CATALOG.items()
            if name not in EXCLUDED_CATALOG
            and (include_joins or not entry.join)]


def cold_start(directory: str, seed: int) -> Dict[str, object]:
    documents = {"xmark": _write_xml(
        directory, "xmark", _xmark(COLD_XMARK_PERSONS, seed))}
    queries = _catalog_queries(include_joins=False)
    random.Random(seed).shuffle(queries)
    expected = reference(directory, documents,
                         [("xmark", query) for query in queries])
    return {"documents": documents, "requests": queries,
            "expected": expected}


def serving_mix(directory: str, seed: int) -> Dict[str, object]:
    """warm_mix and cluster_mix share documents and request stream."""
    from repro.bench.harness import QE_QUERIES
    documents = {
        "member": _write_xml(directory, "member",
                             _member(WARM_MEMBER_NODES)),
        "xmark": _write_xml(directory, "xmark",
                            _xmark(WARM_XMARK_PERSONS, seed)),
    }
    pairs = [("member", query) for query in QE_QUERIES.values()]
    pairs += [("xmark", query) for query in _catalog_queries(True)]
    pairs += [(document, query)
              for document, queries in PROVABLY_EMPTY.items()
              for query in queries]
    requests = [[document, query, strategy, backend]
                for document, query in pairs
                for strategy in STRATEGIES
                for backend in BACKENDS]
    return {"documents": documents, "requests": requests,
            "expected": reference(directory, documents, pairs)}


def compile_churn(directory: str, seed: int) -> Dict[str, object]:
    import querygen
    xmark = _xmark(CHURN_XMARK_PERSONS, seed)
    documents = {
        "member": _write_xml(directory, "member",
                             _member(CHURN_MEMBER_NODES)),
        "xmark": _write_xml(directory, "xmark", xmark),
    }
    pairs = list(querygen.generate(querygen.tag_graph(xmark.root), seed,
                                   CHURN_POOL))
    expected = reference(directory, documents, pairs, skip_failures=True)
    requests = [[document, query] for document, query in pairs
                if request_key(document, query) in expected]
    return {"documents": documents, "requests": requests,
            "expected": expected}


GENERATORS = {"cold_start": cold_start, "warm_mix": serving_mix,
              "compile_churn": compile_churn, "cluster_mix": serving_mix}


def main(argv: Sequence[str]) -> int:
    workload, seed, directory = argv[0], int(argv[1]), argv[2]
    corrupt = "--corrupt-reference" in argv[3:]
    inputs = GENERATORS[workload](directory, seed)
    if corrupt:
        # Flip one expected digest: the run must then report a mismatch
        # and exit non-zero (the check's own self-test).
        first = inputs["requests"][0]
        key = request_key("xmark", first) if isinstance(first, str) \
            else request_key(first[0], first[1])
        inputs["expected"][key][0] = "0" * 64
    inputs["seed"] = seed
    with open(os.path.join(directory, "inputs.json"), "w") as handle:
        json.dump(inputs, handle)
    return 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    sys.exit(main(sys.argv[1:]))
