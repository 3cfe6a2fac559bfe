"""The serving contract both services share.

:class:`~repro.serve.ClusterService` is the query service with a shard
executor plugged into its per-attempt execution step, so admission,
shedding, deadlines, shutdown, coalescing, tracing and the response
timings must behave identically on both.  Every test runs against the
in-thread :class:`~repro.serve.QueryService` and an inline-transport
cluster; a :class:`Gate` holds the executor step so queue states are
deterministic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.data import xmark_document
from repro.guard import (BudgetExceeded, InternalError, ReproError,
                         ServiceClosed, ServiceOverloaded)
from repro.serve import (ClusterService, DocumentCatalog, QueryRequest,
                         QueryService)
from repro.trace import Tracer

QUERY = "$input//person/name"
OTHER = "$input//open_auction//increase"
THIRD = "count($input//item)"


@pytest.fixture(scope="module")
def document():
    return xmark_document(20, seed=5)


@pytest.fixture(params=["thread", "cluster"])
def make_service(request, document, tmp_path):
    """A factory for one-executor services of the parametrized kind."""
    services = []

    def make(**options):
        catalog = DocumentCatalog()
        catalog.add_document("xmark", document)
        options.setdefault("workers", 1)
        if request.param == "thread":
            service = QueryService(catalog, **options)
        else:
            service = ClusterService.from_catalog(
                catalog, directory=str(tmp_path), shard_count=2,
                transport="inline", **options)
        services.append(service)
        return service

    yield make
    for service in services:
        service.close()


class Gate:
    """Holds every execution attempt at the executor step until
    released (``entered`` fires when the first one arrives)."""

    def __init__(self, service) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        inner = service._execute

        def gated(*args):
            self.entered.set()
            assert self.release.wait(10), "gate never released"
            inner(*args)

        service._execute = gated

    def hold(self, service, query: str = QUERY):
        """Submit ``query`` and wait until it occupies the executor."""
        pending = service.submit(QueryRequest("xmark", query))
        assert self.entered.wait(10)
        return pending


def test_typed_errors(make_service):
    service = make_service()
    with pytest.raises(ReproError) as info:
        service.query("xmark", "$input//person[")
    assert info.value.code.startswith("REPRO-")

    def buggy(*args):
        raise RuntimeError("a bug, not a typed error")

    service._execute = buggy
    with pytest.raises(InternalError) as info:
        service.query("xmark", QUERY)
    assert isinstance(info.value.__cause__, RuntimeError)


def test_full_queue_sheds(make_service):
    # Whole-document queries: one cluster task each, so the cluster's
    # task cap (also ``queue_limit``) never binds before the queue.
    service = make_service(queue_limit=1)
    gate = Gate(service)
    running = gate.hold(service, THIRD)
    queued = service.submit(QueryRequest("xmark",
                                         "count($input//person)"))
    with pytest.raises(ServiceOverloaded):
        service.submit(QueryRequest("xmark", "count($input//bidder)"))
    gate.release.set()
    assert running.result(timeout=10)
    assert queued.result(timeout=10)
    assert service.stats().shed == 1


def test_deadline_expires_in_queue(make_service):
    service = make_service()
    gate = Gate(service)
    running = gate.hold(service)
    doomed = service.submit(QueryRequest("xmark", OTHER, timeout=1e-3))
    time.sleep(0.05)
    gate.release.set()
    running.result(timeout=10)
    with pytest.raises(BudgetExceeded) as info:
        doomed.result(timeout=10)
    assert info.value.kind == "wall"
    assert service.stats().deadline_expired == 1


def test_close_without_drain_fails_queued(make_service):
    service = make_service()
    gate = Gate(service)
    running = gate.hold(service)
    queued = service.submit(QueryRequest("xmark", OTHER))
    closer = threading.Thread(target=service.close,
                              kwargs={"drain": False})
    closer.start()
    assert isinstance(queued.response(timeout=10).error, ServiceClosed)
    gate.release.set()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert running.response(timeout=10).ok
    with pytest.raises(ServiceClosed):
        service.submit(QueryRequest("xmark", QUERY))


def test_identical_requests_coalesce(make_service):
    service = make_service()
    gate = Gate(service)
    leader = gate.hold(service)
    follower = service.submit(QueryRequest("xmark", QUERY))
    assert follower.coalesced and not leader.coalesced
    gate.release.set()
    assert follower.result(timeout=10) is leader.result(timeout=10)
    assert service.stats().coalesced == 1


def test_flight_recorder_sees_trace_before_completion(make_service):
    class Probe:
        def __init__(self) -> None:
            self.handles = []
            self.recorded = []

        def record(self, trace, latency=None) -> None:
            done = [handle.done() for handle in self.handles]
            self.recorded.append((trace.trace_id, done))

    probe = Probe()
    service = make_service(tracer=Tracer(), flight_recorder=probe)
    gate = Gate(service)
    probe.handles.append(gate.hold(service))
    gate.release.set()
    response = probe.handles[0].response(timeout=10)
    assert response.ok and response.trace_id is not None
    assert probe.recorded == [(response.trace_id, [False])]


def test_queue_and_exec_seconds_mean_the_same(make_service):
    service = make_service()
    gate = Gate(service)
    first = gate.hold(service)
    second = service.submit(QueryRequest("xmark", OTHER))
    time.sleep(0.1)
    gate.release.set()
    held = first.response(timeout=10)
    waited = second.response(timeout=10)
    # The first request waited at the executor (exec time); the second
    # waited in the admission queue behind it (queue time).
    assert held.queue_seconds < 0.1 <= held.exec_seconds
    assert waited.queue_seconds >= 0.1 > waited.exec_seconds
