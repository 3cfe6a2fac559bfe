"""E12: the compiled (produce/consume) backend vs the interpreter.

Two workloads, both straight from earlier experiment sections:

* the **E2** MemBeR document (Table 1 shape) running QE1–QE6;
* the **E7** summary document (the prefilter experiment's 6-tag MemBeR
  shape) running evaluator-bound queries that *match* (positional
  steps and plain chains through the tuple machinery).

The compiled backend fuses the tuple pipeline (``MapFromItem`` →
``Select`` → …) into generated Python, so it wins exactly where that
machinery dominates: positional chains (QE2/QE5, ``//t01/t02[1]``) and
prefilter-era hot paths.  Pattern-join-bound queries (QE3/QE4/QE6 at
this document shape) sit at parity because pattern evaluation is a
pipeline breaker executed by the same physical algorithm in both
backends — the table shows those too, honestly.

``generate_table`` asserts a ≥ :data:`SPEEDUP_FLOOR` geometric-mean
speedup over the declared :data:`HOT_PATHS` — the regression gate CI's
``bench-gates`` job runs (via ``run_all.py``) at ``REPRO_SCALE=0.25``.

Run styles:

* ``pytest benchmarks/bench_compiled.py --benchmark-only``;
* ``python benchmarks/bench_compiled.py`` — prints the E12 tables.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.bench import (QE_QUERIES, geometric_mean, render_table, scaled,
                         time_call)
from repro.data import member_document

#: asserted floor on the hot-path geometric-mean speedup.
SPEEDUP_FLOOR = 1.3

#: evaluator-bound queries on the E7 (summary experiment) document.
E7_QUERIES = {
    "chain": "$input//t01/t02",
    "positional": "$input//t01/t02[1]",
}

#: the queries whose geometric-mean speedup is asserted: the
#: evaluator-bound hot paths of E2 (positional chains QE2/QE5 plus the
#: child-chain QE1) and of the E7 document.  Keys name (table, row).
HOT_PATHS = (("E2", "QE1"), ("E2", "QE2"), ("E2", "QE5"),
             ("E7", "chain"), ("E7", "positional"))

BACKENDS = ("interpreted", "compiled")


def e2_engine(node_count=None) -> Engine:
    node_count = node_count or scaled(4_000)
    return Engine(member_document(node_count, depth=4, tag_count=100,
                                  seed=20070415))


def e7_engine(node_count=None) -> Engine:
    node_count = node_count or scaled(20_000)
    return Engine(member_document(node_count, depth=8, tag_count=6,
                                  seed=5))


@pytest.fixture(scope="module")
def engines():
    return {"E2": e2_engine(), "E7": e7_engine()}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("query_name", sorted(QE_QUERIES))
def test_qe_backends(benchmark, engines, query_name, backend):
    engine = engines["E2"]
    plan = engine.compile(QE_QUERIES[query_name])
    benchmark.extra_info["query"] = query_name
    benchmark(lambda: engine.execute(plan, backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("query_name", sorted(E7_QUERIES))
def test_e7_backends(benchmark, engines, query_name, backend):
    engine = engines["E7"]
    plan = engine.compile(E7_QUERIES[query_name])
    benchmark.extra_info["query"] = E7_QUERIES[query_name]
    benchmark(lambda: engine.execute(plan, backend=backend))


def _measure(engine, queries, repeats):
    """rows × {interpreted, compiled, speedup} cells; returns (cells,
    speedups-by-row).  Byte-identity is asserted on every pair — a
    benchmark must never time a wrong answer."""
    cells, speedups = {}, {}
    for label, query in queries.items():
        plan = engine.compile(query)
        reference = engine.execute(plan, backend="interpreted")
        assert engine.execute(plan, backend="compiled") == reference, (
            f"compiled diverged on {query!r}")
        timings = {}
        for backend in BACKENDS:
            timings[backend] = time_call(
                lambda b=backend: engine.execute(plan, backend=b),
                repeats=repeats)
            cells[(label, backend)] = timings[backend]
        speedup = (timings["interpreted"] / timings["compiled"]
                   if timings["compiled"] > 0 else float("inf"))
        cells[(label, "speedup")] = speedup
        speedups[label] = speedup
    return cells, speedups


def generate_table(e2_nodes=None, e7_nodes=None, repeats=5) -> str:
    engines = {"E2": e2_engine(e2_nodes), "E7": e7_engine(e7_nodes)}
    workloads = {"E2": QE_QUERIES, "E7": E7_QUERIES}
    titles = {
        "E2": "E12a. QE1-QE6 (E2 document): interpreted vs compiled "
              "backend",
        "E7": "E12b. Evaluator-bound queries (E7 document): interpreted "
              "vs compiled backend",
    }
    columns = ["interpreted", "compiled", "speedup"]
    sections = []
    hot = {}
    for table, queries in workloads.items():
        cells, speedups = _measure(engines[table], queries, repeats)
        sections.append(render_table(titles[table], list(queries),
                                     columns, cells))
        for label, speedup in speedups.items():
            if (table, label) in HOT_PATHS:
                hot[(table, label)] = speedup
    assert set(hot) == set(HOT_PATHS)
    mean = geometric_mean(list(hot.values()))
    gate = (f"hot-path geometric-mean speedup: {mean:.2f}x over "
            f"{', '.join(f'{t}:{q}' for t, q in HOT_PATHS)} "
            f"(floor {SPEEDUP_FLOOR}x)")
    assert mean >= SPEEDUP_FLOOR, (
        f"compiled backend regressed: hot-path geomean {mean:.2f}x "
        f"< {SPEEDUP_FLOOR}x floor")
    return "\n\n".join(sections) + "\n\n" + gate


if __name__ == "__main__":
    print(generate_table())
