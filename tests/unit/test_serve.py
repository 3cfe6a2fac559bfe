"""The serving layer: catalog, admission control, coalescing, deadlines."""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro import Engine
from repro.guard import (BudgetExceeded, Budgets, InputError, ServiceClosed,
                         ServiceOverloaded, deadline_budgets)
from repro.serve import (DocumentCatalog, LatencyHistogram, QueryRequest,
                         QueryService, ServiceMetrics)

SITE_XML = ("<site><people>"
            "<person><name>John</name><emailaddress>j@x</emailaddress>"
            "</person>"
            "<person><name>Mary</name></person>"
            "</people></site>")

QUERY = "$input//person[emailaddress]/name"
OTHER_QUERY = "$input//person/name"
THIRD_QUERY = "$input//people"


def site_catalog(**defaults) -> DocumentCatalog:
    catalog = DocumentCatalog(**defaults)
    catalog.add_xml("site", SITE_XML)
    return catalog


class Gate:
    """Blocks a specific query inside a (monkey-patched) engine so tests
    can hold a worker mid-execution deterministically."""

    def __init__(self, engine: Engine, query_text: str) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        original = engine.execute

        def gated_execute(compiled, *args, **kwargs):
            if compiled.text == query_text:
                self.started.set()
                assert self.release.wait(10), "gate never released"
            return original(compiled, *args, **kwargs)

        engine.execute = gated_execute


# -- LatencyHistogram ----------------------------------------------------------

class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_quantiles_bracket_recorded_values(self):
        histogram = LatencyHistogram()
        for milliseconds in range(1, 101):
            histogram.record(milliseconds / 1e3)
        assert histogram.count == 100
        # Log buckets are exact to one bucket width (~26%).
        assert histogram.quantile(0.5) == pytest.approx(0.050, rel=0.30)
        assert histogram.quantile(0.99) == pytest.approx(0.100, rel=0.30)
        assert histogram.quantile(1.0) <= histogram.max

    def test_quantile_never_exceeds_max(self):
        histogram = LatencyHistogram()
        histogram.record(0.0017)
        assert histogram.quantile(0.5) <= histogram.max

    def test_negative_latency_clamped(self):
        histogram = LatencyHistogram()
        histogram.record(-1.0)
        assert histogram.min == 0.0

    def test_overflow_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(1e4)   # slower than the last bound
        assert histogram.quantile(0.99) == pytest.approx(1e4)

    def test_invalid_quantile(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_snapshot_is_independent(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        copy = histogram.snapshot()
        histogram.record(0.02)
        assert copy.count == 1
        assert histogram.count == 2


# -- ServiceMetrics ------------------------------------------------------------

class TestServiceMetrics:
    def test_counter_lifecycle(self):
        metrics = ServiceMetrics()
        metrics.record_submitted()
        metrics.record_accepted()
        metrics.record_done(latency_seconds=0.01, queue_seconds=0.001,
                            failed=False)
        stats = metrics.stats(queue_depth=3, in_flight=2)
        assert stats.submitted == 1
        assert stats.completed == 1
        assert stats.failed == 0
        assert stats.queue_depth == 3
        assert stats.in_flight == 2
        assert stats.latency_count == 1
        assert stats.qps > 0

    def test_failed_and_deadline_counters(self):
        metrics = ServiceMetrics()
        metrics.record_done(0.01, 0.01, failed=True, deadline_expired=True)
        metrics.record_done(0.01, 0.01, failed=True)
        stats = metrics.stats()
        assert stats.failed == 2
        assert stats.deadline_expired == 1

    def test_shed_and_coalesce_counters(self):
        metrics = ServiceMetrics()
        metrics.record_shed()
        metrics.record_coalesced()
        metrics.record_coalesced()
        stats = metrics.stats()
        assert stats.shed == 1
        assert stats.coalesced == 2

    def test_stats_report_and_dict(self):
        metrics = ServiceMetrics()
        metrics.record_done(0.004, 0.001, failed=False)
        stats = metrics.stats()
        report = stats.report()
        for fragment in ("requests", "backpressure", "throughput",
                         "latency", "p95"):
            assert fragment in report
        data = stats.to_dict()
        assert data["latency"]["count"] == 1
        assert data["shed"] == 0


# -- DocumentCatalog -----------------------------------------------------------

class TestDocumentCatalog:
    def test_add_xml_builds_one_shared_engine(self):
        catalog = site_catalog()
        first = catalog.engine("site")
        second = catalog.engine("site")
        assert first is second
        assert [n.string_value() for n in first.run(QUERY)] == ["John"]

    def test_add_document_and_engine(self, people_doc):
        catalog = DocumentCatalog()
        catalog.add_document("people", people_doc)
        engine = Engine(people_doc)
        catalog.add_engine("ready", engine)
        assert catalog.engine("people").document is people_doc
        assert catalog.engine("ready") is engine

    def test_add_file(self, tmp_path):
        path = tmp_path / "site.xml"
        path.write_text(SITE_XML, encoding="utf-8")
        catalog = DocumentCatalog()
        catalog.add_file("site", str(path))
        assert len(catalog.engine("site").run(OTHER_QUERY)) == 2

    def test_factory_called_once_even_concurrently(self, people_doc):
        calls = []
        barrier = threading.Barrier(6)
        catalog = DocumentCatalog()

        def factory():
            calls.append(1)
            return people_doc

        catalog.add_factory("people", factory)
        engines = []

        def fetch():
            barrier.wait()
            engines.append(catalog.engine("people"))

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(engine is engines[0] for engine in engines)

    def test_engine_defaults_and_overrides(self, people_doc):
        catalog = DocumentCatalog(plan_cache_size=3, use_summary=False)
        catalog.add_document("a", people_doc)
        catalog.add_document("b", people_doc, use_summary=True)
        assert catalog.engine("a").plan_cache.max_size == 3
        assert catalog.engine("a").use_summary is False
        assert catalog.engine("b").use_summary is True

    def test_duplicate_name_rejected(self):
        catalog = site_catalog()
        with pytest.raises(InputError):
            catalog.add_xml("site", SITE_XML)

    def test_bad_name_rejected(self):
        catalog = DocumentCatalog()
        with pytest.raises(InputError):
            catalog.add_xml("", SITE_XML)

    def test_unknown_document(self):
        catalog = site_catalog()
        with pytest.raises(InputError) as excinfo:
            catalog.engine("nope")
        assert "site" in str(excinfo.value)

    def test_names_contains_len_remove(self):
        catalog = site_catalog()
        catalog.add_xml("other", SITE_XML)
        assert catalog.names() == ["other", "site"]
        assert "site" in catalog
        assert len(catalog) == 2
        catalog.remove("other")
        assert "other" not in catalog


# -- QueryService basics -------------------------------------------------------

class TestQueryServiceBasics:
    def test_query_matches_direct_engine_run(self):
        catalog = site_catalog()
        expected = [n.pre for n in catalog.engine("site").run(QUERY)]
        with QueryService(catalog, workers=2, queue_limit=8) as service:
            results = service.query("site", QUERY)
            assert [n.pre for n in results] == expected
            stats = service.stats()
        assert stats.submitted == 1
        assert stats.completed == 1
        assert stats.failed == 0

    def test_request_strategy_honoured(self):
        catalog = site_catalog()
        with QueryService(catalog, workers=1) as service:
            for strategy in ("nljoin", "twigjoin", "scjoin"):
                results = service.query("site", QUERY, strategy=strategy)
                assert [n.string_value() for n in results] == ["John"]

    def test_error_propagates_to_caller(self):
        with QueryService(site_catalog(), workers=1) as service:
            with pytest.raises(InputError):
                service.query("missing", QUERY)
            with pytest.raises(Exception):
                service.query("site", "///")
            stats = service.stats()
        assert stats.failed == 2

    def test_response_carries_timings_and_unwrap(self):
        with QueryService(site_catalog(), workers=1) as service:
            pending = service.submit(QueryRequest("site", QUERY))
            response = pending.response(timeout=10)
        assert response.ok
        assert response.queue_seconds >= 0.0
        assert response.exec_seconds > 0.0
        assert response.total_seconds == pytest.approx(
            response.queue_seconds + response.exec_seconds)
        assert response.unwrap() == response.results
        assert pending.done()

    def test_submit_after_close_raises(self):
        service = QueryService(site_catalog(), workers=1)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.submit(QueryRequest("site", QUERY))
        service.close()   # idempotent

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QueryService(site_catalog(), workers=0)
        with pytest.raises(ValueError):
            QueryService(site_catalog(), workers=1, queue_limit=0)


# -- backpressure --------------------------------------------------------------

class TestBackpressure:
    def test_full_queue_sheds_with_typed_error(self):
        catalog = site_catalog()
        gate = Gate(catalog.engine("site"), QUERY)
        service = QueryService(catalog, workers=1, queue_limit=1)
        try:
            leader = service.submit(QueryRequest("site", QUERY))
            assert gate.started.wait(10)   # worker is now held mid-query
            queued = service.submit(QueryRequest("site", OTHER_QUERY))
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit(QueryRequest("site", THIRD_QUERY))
            error = excinfo.value
            assert error.code == "REPRO-SERVICE-OVERLOADED"
            assert error.queue_limit == 1
            assert service.stats().shed == 1
            gate.release.set()
            assert len(leader.result(timeout=10)) == 1
            assert len(queued.result(timeout=10)) == 2
        finally:
            gate.release.set()
            service.close()
        stats = service.stats()
        assert stats.completed == 2
        assert stats.shed == 1

    def test_shed_request_can_be_retried_after_drain(self):
        catalog = site_catalog()
        gate = Gate(catalog.engine("site"), QUERY)
        service = QueryService(catalog, workers=1, queue_limit=1)
        try:
            leader = service.submit(QueryRequest("site", QUERY))
            assert gate.started.wait(10)
            queued = service.submit(QueryRequest("site", OTHER_QUERY))
            with pytest.raises(ServiceOverloaded):
                service.submit(QueryRequest("site", THIRD_QUERY))
            gate.release.set()
            leader.result(timeout=10)
            queued.result(timeout=10)
            # After the backlog drains, the same request is admitted.
            assert len(service.query("site", THIRD_QUERY)) == 1
        finally:
            gate.release.set()
            service.close()


# -- request coalescing --------------------------------------------------------

class TestCoalescing:
    def test_identical_inflight_requests_share_one_execution(self):
        catalog = site_catalog()
        engine = catalog.engine("site")
        executions = []
        original = engine.execute

        def counting_execute(compiled, *args, **kwargs):
            executions.append(compiled.text)
            return original(compiled, *args, **kwargs)

        engine.execute = counting_execute
        gate = Gate(engine, QUERY)
        service = QueryService(catalog, workers=2, queue_limit=8)
        try:
            leader = service.submit(QueryRequest("site", QUERY))
            assert gate.started.wait(10)
            followers = [service.submit(QueryRequest("site", QUERY))
                         for _ in range(3)]
            assert all(f.coalesced for f in followers)
            assert not leader.coalesced
            gate.release.set()
            expected = [n.pre for n in leader.result(timeout=10)]
            for follower in followers:
                assert [n.pre for n in follower.result(timeout=10)] \
                    == expected
        finally:
            gate.release.set()
            service.close()
        assert executions.count(QUERY) == 1
        stats = service.stats()
        assert stats.coalesced == 3
        assert stats.accepted == 1

    def test_different_strategy_does_not_coalesce(self):
        catalog = site_catalog()
        gate = Gate(catalog.engine("site"), QUERY)
        service = QueryService(catalog, workers=2, queue_limit=8)
        try:
            service.submit(QueryRequest("site", QUERY,
                                        strategy="twigjoin"))
            assert gate.started.wait(10)
            other = service.submit(QueryRequest("site", QUERY,
                                                strategy="nljoin"))
            assert not other.coalesced
            gate.release.set()
        finally:
            gate.release.set()
            service.close()
        assert service.stats().coalesced == 0

    def test_sequential_duplicates_do_not_coalesce(self):
        with QueryService(site_catalog(), workers=1) as service:
            service.query("site", QUERY)
            service.query("site", QUERY)
            stats = service.stats()
        assert stats.coalesced == 0
        assert stats.completed == 2


# -- deadlines -----------------------------------------------------------------

class TestDeadlines:
    def test_deadline_expired_in_queue(self):
        catalog = site_catalog()
        gate = Gate(catalog.engine("site"), QUERY)
        service = QueryService(catalog, workers=1, queue_limit=8)
        try:
            leader = service.submit(QueryRequest("site", QUERY))
            assert gate.started.wait(10)
            doomed = service.submit(
                QueryRequest("site", OTHER_QUERY, timeout=1e-4))
            time.sleep(0.01)   # let the deadline lapse while queued
            gate.release.set()
            leader.result(timeout=10)
            with pytest.raises(BudgetExceeded) as excinfo:
                doomed.result(timeout=10)
            assert excinfo.value.kind == "wall"
        finally:
            gate.release.set()
            service.close()
        stats = service.stats()
        assert stats.deadline_expired == 1
        assert stats.failed == 1

    def test_generous_deadline_passes(self):
        with QueryService(site_catalog(), workers=1) as service:
            results = service.query("site", QUERY, timeout=30.0)
            assert len(results) == 1
            assert service.stats().deadline_expired == 0

    def test_deadline_tightens_default_budgets(self):
        service = QueryService(site_catalog(), workers=1,
                               default_budgets=Budgets(wall_seconds=60.0,
                                                       max_steps=100_000))
        try:
            tightened = deadline_budgets(service.default_budgets,
                                         remaining=1.5)
            assert tightened.wall_seconds == 1.5
            assert tightened.max_steps == 100_000
            kept = deadline_budgets(service.default_budgets,
                                    remaining=120.0)
            assert kept.wall_seconds == 60.0
            assert deadline_budgets(service.default_budgets, None) \
                is service.default_budgets
        finally:
            service.close()

    def test_deadline_creates_budgets_when_no_defaults(self):
        service = QueryService(site_catalog(), workers=1)
        try:
            budgets = deadline_budgets(service.default_budgets,
                                       remaining=2.0)
            assert budgets.wall_seconds == 2.0
            assert deadline_budgets(service.default_budgets, None) is None
        finally:
            service.close()


# -- shutdown ------------------------------------------------------------------

class TestCloseDrain:
    def test_drain_completes_queued_requests(self):
        catalog = site_catalog()
        gate = Gate(catalog.engine("site"), QUERY)
        service = QueryService(catalog, workers=1, queue_limit=8)
        leader = service.submit(QueryRequest("site", QUERY))
        assert gate.started.wait(10)
        queued = service.submit(QueryRequest("site", OTHER_QUERY))
        gate.release.set()
        service.close(drain=True)
        assert leader.done() and queued.done()
        assert len(queued.result()) == 2

    def test_no_drain_fails_queued_requests(self):
        catalog = site_catalog()
        gate = Gate(catalog.engine("site"), QUERY)
        service = QueryService(catalog, workers=1, queue_limit=8)
        leader = service.submit(QueryRequest("site", QUERY))
        assert gate.started.wait(10)
        queued = service.submit(QueryRequest("site", OTHER_QUERY))
        # Close while the worker is still held: the queued request must
        # be failed, not executed.  close() joins the workers, so it
        # runs on a helper thread and the gate opens afterwards.
        closer = threading.Thread(
            target=lambda: service.close(drain=False))
        closer.start()
        with pytest.raises(ServiceClosed):
            queued.result(timeout=10)
        gate.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        leader.result()   # already executing: allowed to finish

    def test_pending_timeout(self):
        catalog = site_catalog()
        gate = Gate(catalog.engine("site"), QUERY)
        service = QueryService(catalog, workers=1, queue_limit=8)
        try:
            pending = service.submit(QueryRequest("site", QUERY))
            assert gate.started.wait(10)
            with pytest.raises(TimeoutError):
                pending.response(timeout=0.01)
            gate.release.set()
            assert pending.result(timeout=10)
        finally:
            gate.release.set()
            service.close()


# -- load generator ------------------------------------------------------------

class TestLoadgen:
    def test_empty_workload_rejected(self):
        from repro.serve import run_load
        with QueryService(site_catalog(), workers=1) as service:
            with pytest.raises(ValueError):
                run_load(service, workload=[], concurrency=1,
                         requests_per_client=1)

    def test_custom_workload_runs_and_reports(self):
        from repro.serve import run_load
        workload = [QueryRequest("site", QUERY),
                    QueryRequest("site", OTHER_QUERY)]
        with QueryService(site_catalog(), workers=2) as service:
            report = run_load(service, workload=workload, concurrency=2,
                              requests_per_client=3, seed=5,
                              coalesce_burst=2)
        assert report.mismatches == 0
        assert report.errors == 0
        assert report.attempted == 2 * 3 + 2
        assert report.succeeded == report.attempted
        row = report.row()
        assert row["clients"] == 2
        assert row["qps"] == pytest.approx(report.throughput)
        assert "succeeded" in report.report()

    def test_report_includes_error_samples(self):
        from repro.serve import run_load
        # A nanosecond deadline expires before any worker can pick the
        # request up; the report must surface samples, not hide them.
        workload = [QueryRequest("site", QUERY)]
        with QueryService(site_catalog(), workers=1) as service:
            report = run_load(service, workload=workload, concurrency=1,
                              requests_per_client=2, timeout=1e-9,
                              coalesce_burst=0)
        assert report.errors == 2
        assert report.succeeded == 0
        assert report.error_samples
        assert "BudgetExceeded" in report.report()


# -- CLI -----------------------------------------------------------------------

class TestServeBenchCli:
    def test_serve_bench_runs_and_checks(self):
        from repro.cli import main
        out = io.StringIO()
        code = main(["serve-bench", "--workers", "2", "--concurrency", "2",
                     "--requests", "2", "--queue-limit", "64",
                     "--seed", "3", "--check"], out=out)
        text = out.getvalue()
        assert code == 0, text
        assert "mismatches=0" in text
        assert "latency" in text


# -- retries (docs/ROBUSTNESS.md) ----------------------------------------------

class FlakyEngine:
    """Patches an engine's execute to fail the first ``failures`` calls."""

    def __init__(self, engine: Engine, failures: int,
                 error_factory=None) -> None:
        from repro.guard import InjectedFault
        self.calls = 0
        self.strategies = []
        self.error_factory = error_factory or \
            (lambda: InjectedFault("transient", site="test"))
        original = engine.execute

        def flaky_execute(compiled, *args, **kwargs):
            self.calls += 1
            self.strategies.append(kwargs.get("strategy"))
            if self.calls <= failures:
                raise self.error_factory()
            return original(compiled, *args, **kwargs)

        engine.execute = flaky_execute


def fast_retry(**overrides):
    from repro.serve import RetryPolicy
    defaults = dict(max_attempts=3, base_delay=0.0, max_delay=0.0,
                    jitter=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestRetries:
    def test_transient_fault_retried_to_success(self):
        catalog = site_catalog()
        flaky = FlakyEngine(catalog.engine("site"), failures=2)
        with QueryService(catalog, workers=1,
                          retry_policy=fast_retry()) as service:
            pending = service.submit(QueryRequest("site", QUERY))
            response = pending.response(timeout=10)
            assert response.ok
            assert response.attempts == 3
            assert [n.string_value() for n in response.results] == ["John"]
            stats = service.stats()
        assert flaky.calls == 3
        assert stats.retried == 2
        assert stats.completed == 1
        assert stats.failed == 0

    def test_attempts_exhausted_surfaces_typed_error(self):
        from repro.guard import InjectedFault
        catalog = site_catalog()
        flaky = FlakyEngine(catalog.engine("site"), failures=99)
        with QueryService(catalog, workers=1,
                          retry_policy=fast_retry()) as service:
            with pytest.raises(InjectedFault):
                service.query("site", QUERY)
            stats = service.stats()
        assert flaky.calls == 3
        assert stats.retried == 2
        assert stats.failed == 1

    def test_algorithm_error_steps_to_next_strategy(self):
        from repro.guard import AlgorithmError
        catalog = site_catalog()
        engine = catalog.engine("site")
        strategies = []
        original = engine.execute

        def broken_twigjoin(compiled, *args, **kwargs):
            strategies.append(kwargs.get("strategy"))
            if kwargs.get("strategy") == "twigjoin":
                raise AlgorithmError("twigjoin exploded")
            return original(compiled, *args, **kwargs)

        engine.execute = broken_twigjoin
        with QueryService(catalog, workers=1,
                          retry_policy=fast_retry()) as service:
            pending = service.submit(
                QueryRequest("site", QUERY, strategy="twigjoin"))
            response = pending.response(timeout=10)
        assert response.ok
        assert response.attempts == 2
        assert strategies == ["twigjoin", "nljoin"]

    def test_caller_error_never_retried(self):
        from repro.guard import ReproError
        catalog = site_catalog()
        with QueryService(catalog, workers=1,
                          retry_policy=fast_retry()) as service:
            with pytest.raises(ReproError):
                service.query("site", "///")
            stats = service.stats()
        assert stats.retried == 0
        assert stats.failed == 1

    def test_backoff_never_crosses_deadline(self):
        from repro.guard import InjectedFault
        catalog = site_catalog()
        flaky = FlakyEngine(catalog.engine("site"), failures=99)
        # A 10 s backoff cannot fit a 0.5 s deadline: the first failure
        # must surface immediately instead of sleeping past it.
        policy = fast_retry(base_delay=10.0, max_delay=10.0)
        with QueryService(catalog, workers=1,
                          retry_policy=policy) as service:
            started = time.perf_counter()
            with pytest.raises(InjectedFault):
                service.query("site", QUERY, timeout=0.5)
            elapsed = time.perf_counter() - started
        assert flaky.calls == 1
        assert elapsed < 5.0
        assert service.stats().retried == 0

    def test_no_policy_means_no_retry(self):
        from repro.guard import InjectedFault
        catalog = site_catalog()
        flaky = FlakyEngine(catalog.engine("site"), failures=1)
        with QueryService(catalog, workers=1) as service:
            with pytest.raises(InjectedFault):
                service.query("site", QUERY)
        assert flaky.calls == 1


# -- circuit breaker + degraded mode -------------------------------------------

def strict_breaker(**overrides):
    from repro.serve import BreakerPolicy
    defaults = dict(window=4, min_samples=4, failure_threshold=0.5,
                    reset_seconds=60.0)
    defaults.update(overrides)
    return BreakerPolicy(**defaults)


class TestCircuitBreakerIntegration:
    def poisoned_service(self, **service_options):
        from repro.guard import InjectedFault
        catalog = site_catalog()
        engine = catalog.engine("site")

        def poisoned_execute(compiled, *args, **kwargs):
            raise InjectedFault("document is poisoned", site="test")

        engine.execute = poisoned_execute
        return QueryService(catalog, workers=1,
                            breaker_policy=strict_breaker(),
                            **service_options)

    def trip(self, service, n=4):
        from repro.guard import ReproError
        for _ in range(n):
            with pytest.raises(ReproError):
                service.query("site", QUERY)

    def test_failures_open_circuit_and_shed_at_admission(self):
        from repro.guard import CircuitOpen
        with self.poisoned_service() as service:
            self.trip(service)
            with pytest.raises(CircuitOpen) as excinfo:
                service.query("site", QUERY)
            error = excinfo.value
            assert error.code == "REPRO-CIRCUIT-OPEN"
            assert error.document == "site"
            assert error.retry_after_seconds > 0
            stats = service.stats()
        assert stats.breaker_rejected == 1
        assert stats.failed == 4

    def test_circuit_open_serves_provably_empty_degraded(self):
        with self.poisoned_service() as service:
            self.trip(service)
            pending = service.submit(
                QueryRequest("site", "$input//nosuchtag"))
            response = pending.response(timeout=10)
            assert response.ok
            assert response.degraded
            assert response.results == []
            stats = service.stats()
        assert stats.degraded == 1
        assert stats.breaker_rejected == 0

    def test_degraded_mode_disabled_always_rejects(self):
        from repro.guard import CircuitOpen
        with self.poisoned_service(degraded_mode=False) as service:
            self.trip(service)
            with pytest.raises(CircuitOpen):
                service.query("site", "$input//nosuchtag")
            assert service.stats().degraded == 0

    def test_health_reflects_open_breaker(self):
        with self.poisoned_service() as service:
            assert service.health().status == "healthy"
            self.trip(service)
            health = service.health()
            assert health.status == "degraded"  # summary still serves
            site = health.documents[0]
            assert site.document == "site"
            assert site.breaker_state == "open"
            assert site.failures == 4
            assert site.last_error == "REPRO-CHAOS"
            assert site.degraded_capable
            assert "breaker=open" in health.report()

    def test_successful_traffic_keeps_circuit_closed(self):
        catalog = site_catalog()
        with QueryService(catalog, workers=2,
                          breaker_policy=strict_breaker()) as service:
            for _ in range(8):
                service.query("site", QUERY)
            health = service.health()
            assert health.status == "healthy"
            assert health.documents[0].breaker_state == "closed"
            assert service.stats().breaker_rejected == 0

    def test_probe_closes_half_open_circuit(self):
        from repro.guard import InjectedFault
        clock_value = [100.0]
        catalog = site_catalog()
        engine = catalog.engine("site")
        original = engine.execute
        poisoned = [True]

        def flappy_execute(compiled, *args, **kwargs):
            if poisoned[0]:
                raise InjectedFault("poisoned", site="test")
            return original(compiled, *args, **kwargs)

        engine.execute = flappy_execute
        # A controllable clock drives the breaker cooldown; real time
        # drives nothing else in this test.
        service = QueryService(
            catalog, workers=1,
            breaker_policy=strict_breaker(reset_seconds=10.0),
            clock=lambda: clock_value[0])
        try:
            self.trip(service)
            breaker = service.health_tracker.breaker("site")
            assert breaker.state == "open"
            clock_value[0] += 11.0
            assert breaker.state == "half-open"
            poisoned[0] = False   # the document recovered
            health = service.probe("site")
            assert health.last_probe_ok is True
            assert breaker.state == "closed"
            assert len(service.query("site", QUERY)) == 1
        finally:
            service.close()


# -- shutdown with dead workers (regression) -----------------------------------

class WorkerKilled(BaseException):
    """Escapes the worker's Exception handling, killing the thread —
    the only way a real execution can be abandoned mid-flight."""


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestDeadWorkerShutdown:
    def dead_worker_service(self):
        service = QueryService(site_catalog(), workers=1, queue_limit=8)
        service._run = lambda execution: (_ for _ in ()).throw(
            WorkerKilled())
        return service

    def wait_for_worker_death(self, service):
        for _ in range(200):
            if not service._threads[0].is_alive():
                return
            time.sleep(0.01)
        raise AssertionError("worker never died")

    def test_coalesced_followers_unblocked_on_close(self):
        service = self.dead_worker_service()
        leader = service.submit(QueryRequest("site", QUERY))
        self.wait_for_worker_death(service)
        # The leader's execution is still registered in-flight, so an
        # identical request coalesces onto the abandoned execution.
        follower = service.submit(QueryRequest("site", QUERY))
        assert follower.coalesced
        service.close(drain=True)   # must not hang
        with pytest.raises(ServiceClosed):
            leader.result(timeout=5)
        with pytest.raises(ServiceClosed):
            follower.result(timeout=5)

    def test_requests_queued_behind_dead_worker_fail_typed(self):
        service = self.dead_worker_service()
        doomed = service.submit(QueryRequest("site", QUERY))
        self.wait_for_worker_death(service)
        queued = service.submit(QueryRequest("site", OTHER_QUERY))
        service.close(drain=True)
        with pytest.raises(ServiceClosed):
            doomed.result(timeout=5)
        with pytest.raises(ServiceClosed):
            queued.result(timeout=5)
        stats = service.stats()
        assert stats.failed >= 2

    def test_unexpected_engine_exception_is_wrapped_typed(self):
        from repro.guard import InternalError
        catalog = site_catalog()
        engine = catalog.engine("site")

        def buggy_execute(compiled, *args, **kwargs):
            raise RuntimeError("a bug, not a typed error")

        engine.execute = buggy_execute
        with QueryService(catalog, workers=1) as service:
            with pytest.raises(InternalError) as excinfo:
                service.query("site", QUERY)
            assert excinfo.value.code == "REPRO-INTERNAL"
            assert isinstance(excinfo.value.__cause__, RuntimeError)


# -- catalog quarantine and rebuild --------------------------------------------

class TestCatalogQuarantine:
    def write_index(self, tmp_path, name="site"):
        engine = Engine.from_xml(SITE_XML)
        path = tmp_path / f"{name}.rpxc"
        engine.document.save(str(path))
        return path

    def corrupt(self, path):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF   # flip a payload byte
        path.write_bytes(bytes(data))

    def test_storage_failure_quarantines_document(self):
        import tempfile
        from pathlib import Path
        from repro.guard import DocumentQuarantined
        from repro.xmltree.columnar import StorageError
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write_index(Path(tmp))
            self.corrupt(path)
            catalog = DocumentCatalog()
            catalog.add_file("site", str(path))
            with pytest.raises(StorageError):
                catalog.engine("site")
            assert catalog.quarantined_names() == ["site"]
            assert "site" not in catalog
            # Subsequent lookups explain the quarantine, typed.
            with pytest.raises(DocumentQuarantined) as excinfo:
                catalog.engine("site")
            assert excinfo.value.code == "REPRO-STORAGE-QUARANTINED"
            assert excinfo.value.document == "site"
            record = catalog.quarantined()["site"]
            assert record.path == str(path)

    def test_reregistration_clears_quarantine(self):
        import tempfile
        from pathlib import Path
        from repro.xmltree.columnar import StorageError
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write_index(Path(tmp))
            self.corrupt(path)
            catalog = DocumentCatalog()
            catalog.add_file("site", str(path))
            with pytest.raises(StorageError):
                catalog.engine("site")
            self.write_index(Path(tmp))   # fix the file
            catalog.add_file("site", str(path))   # no duplicate error
            assert catalog.quarantined_names() == []
            assert len(catalog.engine("site").run(OTHER_QUERY)) == 2

    def test_rebuild_falls_back_to_xml_source(self):
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write_index(Path(tmp))
            (Path(tmp) / "site.xml").write_text(SITE_XML,
                                                encoding="utf-8")
            self.corrupt(path)
            catalog = DocumentCatalog()
            catalog.add_file("site", str(path), rebuild=True)
            engine = catalog.engine("site")
            assert len(engine.run(OTHER_QUERY)) == 2
            assert catalog.quarantined_names() == []
            assert catalog.rebuilt() == {"site": str(Path(tmp)
                                                     / "site.xml")}
            # Best-effort heal: the index file was rewritten and now
            # loads cleanly.
            fresh = DocumentCatalog()
            fresh.add_file("fresh", str(path))
            assert len(fresh.engine("fresh").run(OTHER_QUERY)) == 2

    def test_parse_error_frees_slot_without_quarantine(self):
        import tempfile
        from pathlib import Path
        from repro.guard import ReproError
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.xml"
            path.write_text("<site><unclosed>", encoding="utf-8")
            catalog = DocumentCatalog()
            catalog.add_file("bad", str(path))
            with pytest.raises(ReproError):
                catalog.engine("bad")
            assert "bad" not in catalog
            assert catalog.quarantined_names() == []
            path.write_text(SITE_XML, encoding="utf-8")
            catalog.add_file("bad", str(path))
            assert len(catalog.engine("bad").run(OTHER_QUERY)) == 2

    def test_remove_clears_quarantine(self):
        import tempfile
        from pathlib import Path
        from repro.xmltree.columnar import StorageError
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write_index(Path(tmp))
            self.corrupt(path)
            catalog = DocumentCatalog()
            catalog.add_file("site", str(path))
            with pytest.raises(StorageError):
                catalog.engine("site")
            catalog.remove("site")
            assert catalog.quarantined_names() == []
