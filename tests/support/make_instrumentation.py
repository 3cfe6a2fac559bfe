"""Regenerate the instrumentation ledger.

::

    PYTHONPATH=src python -m tests.support.make_instrumentation

Runs QE1–QE6 on a seeded MemBeR document and four XMark catalog queries
on a seeded XMark document under every pattern strategy and both
execution backends, and records into ``tests/golden/instrumentation.json``
what the instrumentation observed:

* ``counters`` — the exact :meth:`~repro.obs.ExecMetrics.counters` of
  one run;
* ``op_stats`` — the ``(name, calls, rows)`` multiset of the trace's
  per-operator aggregates;
* ``spans`` / ``events`` — the ``(span, parent span)`` and
  ``(span, event)`` name multisets of the traced run;
* ``budget`` — ``(code, steps)`` of the :class:`~repro.guard.BudgetExceeded`
  raised under ``Budgets(max_steps=k)`` for each of :data:`STEP_LIMITS`
  (``null`` when the run fits the budget), strict so the requested
  strategy's own step charges are pinned.

``tests/integration/test_instrumentation_ledger.py`` holds every
combination to the recorded values, so a refactor of the counting,
tracing or governor plumbing cannot silently shift a counter or a step
charge.  Regenerate only when what is counted intentionally changes,
and say why in the commit message.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import Engine
from repro.bench import QE_QUERIES, XMARK_CATALOG
from repro.data import member_document, xmark_document
from repro.guard import BudgetExceeded, Budgets
from repro.obs import ExecMetrics
from repro.trace import Tracer

LEDGER_PATH = Path(__file__).resolve().parent.parent / "golden" / \
    "instrumentation.json"

STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree", "streaming",
              "auto", "cost")
BACKENDS = ("interpreted", "compiled")

#: XMark catalog entries covered: a positional step, an attribute value
#: comparison under ``count``, a FLWOR with a dependent ``where``, and a
#: wildcard step with a predicate.
XMARK_QUERIES = ("XQ2", "XQ8", "XQ17", "XQ19")

#: the two step budgets every combination is run under.
STEP_LIMITS = (60, 1500)


def ledger_queries() -> Dict[str, str]:
    """Map ledger query id (``member_QE1`` …) to query text."""
    corpus = {f"member_{name}": query for name, query in QE_QUERIES.items()}
    corpus.update({f"xmark_{name}": XMARK_CATALOG[name].query
                   for name in XMARK_QUERIES})
    return corpus


def ledger_engines() -> Dict[str, Engine]:
    """The two seeded documents (the golden corpus's), no fallback so a
    failure surfaces instead of being retried."""
    return {
        "member": Engine(member_document(600, depth=5, tag_count=4, seed=7),
                         fallback_chain=()),
        "xmark": Engine(xmark_document(40, seed=11), fallback_chain=()),
    }


def _multiset(pairs) -> List[List[Any]]:
    return sorted([*key, count] for key, count in Counter(pairs).items())


def observe(engine: Engine, query: str, strategy: str,
            backend: str) -> Dict[str, Any]:
    """Everything the ledger records for one combination."""
    compiled = engine.compile(query)
    metrics = ExecMetrics()
    engine.execute(compiled, strategy=strategy, metrics=metrics,
                   backend=backend)
    traced_metrics = ExecMetrics()
    trace = Tracer().begin("ledger")
    engine.execute(compiled, strategy=strategy, metrics=traced_metrics,
                   tracing=trace, backend=backend)
    trace.finish()
    if traced_metrics.counters() != metrics.counters():
        raise AssertionError(
            f"tracing changed the counters of {strategy}/{backend}: "
            f"{traced_metrics.counters()} != {metrics.counters()}")
    names = {span.span_id: span.name for span in trace.spans}
    entry: Dict[str, Any] = {
        "counters": metrics.counters(),
        "op_stats": _multiset((stat.name, stat.calls, stat.rows)
                              for stat in trace.op_stats.values()),
        "spans": _multiset((span.name, names.get(span.parent_id))
                           for span in trace.spans),
        "events": _multiset((span.name, event[1])
                            for span in trace.spans
                            for event in span.events),
        "budget": {},
    }
    for limit in STEP_LIMITS:
        outcome: Tuple[str, int] | None = None
        try:
            engine.execute(compiled, strategy=strategy, backend=backend,
                           budgets=Budgets(max_steps=limit), strict=True)
        except BudgetExceeded as err:
            outcome = (err.code, err.steps)
        entry["budget"][str(limit)] = \
            list(outcome) if outcome is not None else None
    return entry


def build_ledger() -> Dict[str, Any]:
    engines = ledger_engines()
    ledger: Dict[str, Any] = {}
    for query_id, query in sorted(ledger_queries().items()):
        engine = engines[query_id.split("_", 1)[0]]
        for strategy in STRATEGIES:
            for backend in BACKENDS:
                key = f"{query_id}/{strategy}/{backend}"
                ledger[key] = observe(engine, query, strategy, backend)
    return ledger


def render_ledger(ledger: Dict[str, Any]) -> str:
    """JSON with one line per recorded field, so a drift diffs as the
    field that moved."""
    entries = []
    for key in sorted(ledger):
        fields = ",\n".join(
            f"  {json.dumps(name)}: "
            f"{json.dumps(value, sort_keys=True)}"
            for name, value in sorted(ledger[key].items()))
        entries.append(f" {json.dumps(key)}: {{\n{fields}\n }}")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def main() -> int:
    ledger = build_ledger()
    LEDGER_PATH.write_text(render_ledger(ledger), encoding="utf-8")
    print(f"wrote {LEDGER_PATH.name} ({len(ledger)} entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
