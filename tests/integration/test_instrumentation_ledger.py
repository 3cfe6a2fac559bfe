"""The instrumentation ledger.

Every strategy × backend combination of the ledger queries must count,
trace and charge steps exactly as recorded in
``tests/golden/instrumentation.json``: the exact
:class:`~repro.obs.ExecMetrics` counters, the per-operator ``op_stats``
multiset, the span and event name multisets, and the ``(code, steps)``
of the step-budget trip at two fixed budgets.  The parity suites only
hold one backend to the other; this pins both across time.

Regenerate intentionally with::

    PYTHONPATH=src python -m tests.support.make_instrumentation
"""

import json

import pytest

from tests.support.make_instrumentation import (BACKENDS, LEDGER_PATH,
                                                STRATEGIES, ledger_engines,
                                                ledger_queries, observe)

_QUERIES = ledger_queries()
_LEDGER = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def engines():
    return ledger_engines()


def test_ledger_is_complete():
    expected = {f"{query_id}/{strategy}/{backend}"
                for query_id in _QUERIES for strategy in STRATEGIES
                for backend in BACKENDS}
    assert set(_LEDGER) == expected, (
        "instrumentation ledger out of sync with its query set — rerun "
        "python -m tests.support.make_instrumentation")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query_id", sorted(_QUERIES))
def test_instrumentation_matches_ledger(engines, query_id, strategy,
                                        backend):
    engine = engines[query_id.split("_", 1)[0]]
    observed = json.loads(json.dumps(
        observe(engine, _QUERIES[query_id], strategy, backend)))
    recorded = _LEDGER[f"{query_id}/{strategy}/{backend}"]
    for field in sorted(recorded):
        assert observed[field] == recorded[field], (
            f"{query_id} under {strategy}/{backend}: {field} drifted "
            f"from the instrumentation ledger")
