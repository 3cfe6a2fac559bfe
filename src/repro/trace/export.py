"""Trace exporters: Chrome ``chrome://tracing`` JSON, Prometheus text,
and a JSONL span log.

Three consumers, three formats:

* :func:`chrome_trace` renders traces as Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto): one ``pid`` for the process, one
  ``tid`` per trace, complete (``ph: "X"``) events for spans and
  instant (``ph: "i"``) events for span events, timestamps in
  microseconds relative to the earliest span.
* :func:`prometheus_text` dumps service counters/histograms plus tracer
  aggregates in the Prometheus text exposition format, ready for a
  textfile collector or a scrape-on-demand endpoint.
* :func:`spans_jsonl` emits one JSON object per span — the grep-able
  archive format.

Each format has a ``validate_*`` twin used by the CI ``serving`` job's
traced load run so a malformed export fails loudly, and a ``write_*`` helper.

This module deliberately does **not** import :mod:`repro.serve`:
:func:`prometheus_text` duck-types its ``metrics`` argument (anything
with ``stats()`` and ``snapshot_histograms()``), which keeps
``repro.trace`` importable on its own and free of cycles.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from .tracer import Trace, Tracer

__all__ = [
    "chrome_trace", "prometheus_text", "spans_jsonl",
    "validate_chrome_trace", "validate_prometheus",
    "write_chrome_trace", "write_prometheus", "write_spans_jsonl",
]

_Traces = Union[Trace, Iterable[Trace]]


def _as_traces(traces: _Traces) -> List[Trace]:
    if isinstance(traces, Trace):
        return [traces]
    return list(traces)


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------

def chrome_trace(traces: _Traces, *, pid: int = 1) -> Dict[str, Any]:
    """Render traces as a Chrome trace-event JSON object.

    Open the result in ``chrome://tracing`` or https://ui.perfetto.dev.
    Each trace becomes its own thread row (``tid``), named after the
    trace; timestamps are microseconds from the earliest span start
    across all traces, so rows line up on a shared timeline.
    """
    traces = _as_traces(traces)
    events: List[Dict[str, Any]] = []
    origin = min((trace.started for trace in traces), default=0.0)

    def micros(seconds: float) -> float:
        return round((seconds - origin) * 1e6, 3)

    events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": "repro"}})
    for tid, trace in enumerate(traces, start=1):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": f"{trace.name} [{trace.trace_id}]"},
        })
        for span in trace.spans:
            args: Dict[str, Any] = {
                "trace_id": trace.trace_id, "span_id": span.span_id,
            }
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            events.append({
                "name": span.name, "ph": "X", "cat": "repro",
                "ts": micros(span.start),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid, "tid": tid, "args": args,
            })
            for offset, name, attrs in span.events:
                events.append({
                    "name": name, "ph": "i", "cat": "repro", "s": "t",
                    "ts": micros(span.start + offset),
                    "pid": pid, "tid": tid,
                    "args": dict(attrs, span_id=span.span_id),
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` is a well-formed Chrome
    trace: required keys present, and complete events properly nested
    within their parent spans on each thread."""
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("chrome trace must be an object with traceEvents")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    spans_by_id: Dict[Any, Dict[str, Any]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {index} missing key {key!r}")
        if event["ph"] in ("X", "i") and "ts" not in event:
            raise ValueError(f"event {index} missing key 'ts'")
        if event["ph"] == "X":
            if "dur" not in event:
                raise ValueError(f"event {index} (ph=X) missing 'dur'")
            args = event.get("args", {})
            key = (event["tid"], args.get("trace_id"), args.get("span_id"))
            spans_by_id[key] = event
    # Nesting: every child's [ts, ts+dur] must lie inside its parent's.
    for key, event in spans_by_id.items():
        parent_id = event.get("args", {}).get("parent_id")
        if parent_id is None:
            continue
        parent = spans_by_id.get((key[0], key[1], parent_id))
        if parent is None:
            raise ValueError(
                f"span {key} references missing parent {parent_id}")
        if (event["ts"] < parent["ts"] - 1e-3
                or event["ts"] + event["dur"]
                > parent["ts"] + parent["dur"] + 1e-3):
            raise ValueError(
                f"span {key} ({event['name']}) not nested inside its "
                f"parent {parent['name']}")


def write_chrome_trace(path: str, traces: _Traces) -> Dict[str, Any]:
    data = chrome_trace(traces)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return data


# ---------------------------------------------------------------------------
# Prometheus text exposition format
# ---------------------------------------------------------------------------

def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _PromWriter:
    """Accumulates exposition lines with a **family registry**: the
    first declaration of a metric family emits its ``HELP``/``TYPE``
    pair; later contributions to the same family (merged registries —
    service + cluster + per-worker series) append samples only.  A
    re-declaration with a *different* kind is a programming error and
    raises, instead of emitting the conflicting exposition Prometheus
    would reject."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._families: Dict[str, str] = {}

    def _declare(self, name: str, kind: str, help_text: str) -> None:
        known = self._families.get(name)
        if known is not None:
            if known != kind:
                raise ValueError(
                    f"metric family {name!r} declared as both "
                    f"{known!r} and {kind!r}")
            return
        self._families[name] = kind
        self.lines.append(f"# HELP {name} {_escape_help(help_text)}")
        self.lines.append(f"# TYPE {name} {kind}")

    def metric(self, name: str, kind: str, help_text: str,
               samples: "Iterable[tuple]") -> None:
        self._declare(name, kind, help_text)
        for labels, value in samples:
            label_text = ""
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape_label(text)}"'
                    for key, text in labels.items())
                label_text = "{" + rendered + "}"
            self.lines.append(f"{name}{label_text} {_format_value(value)}")

    def histogram(self, name: str, help_text: str, histogram,
                  labels: Optional[Dict[str, str]] = None) -> None:
        """Emit a LatencyHistogram-shaped object (``BOUNDS``, ``counts``,
        ``count``, ``total``) as a Prometheus cumulative histogram.
        ``labels`` are added to every sample; additional labelled series
        for an already-declared family simply append samples."""
        self._declare(name, "histogram", help_text)

        def render(extra: Dict[str, str]) -> str:
            merged = dict(labels or {})
            merged.update(extra)
            if not merged:
                return ""
            return "{" + ",".join(
                f'{key}="{_escape_label(str(text))}"'
                for key, text in merged.items()) + "}"

        cumulative = 0
        for bound, bucket in zip(histogram.BOUNDS, histogram.counts):
            cumulative += bucket
            self.lines.append(
                f"{name}_bucket"
                f"{render({'le': _format_value(bound)})} {cumulative}")
        self.lines.append(
            f"{name}_bucket{render({'le': '+Inf'})} {histogram.count}")
        self.lines.append(
            f"{name}_sum{render({})} {_format_value(histogram.total)}")
        self.lines.append(f"{name}_count{render({})} {histogram.count}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _escape_help(value: str) -> str:
    # HELP escaping per the exposition format: backslash and newline
    # only (quotes are legal in help text).
    return str(value).replace("\\", r"\\").replace("\n", r"\n")


def prometheus_text(metrics: Optional[Any] = None,
                    tracer: Optional[Tracer] = None,
                    cluster: Optional[Any] = None) -> str:
    """Service metrics + tracer aggregates as Prometheus text format.

    ``metrics`` is duck-typed (avoids importing :mod:`repro.serve`):
    anything with ``stats() -> ServiceStats``-like and
    ``snapshot_histograms() -> (latency, queue_wait)`` works —
    :class:`repro.serve.ServiceMetrics` provides both.  ``cluster`` is
    likewise duck-typed over :class:`repro.serve.ClusterStats` (from
    ``ClusterService.cluster_stats()``) and adds the per-worker and
    per-shard ``repro_cluster_*`` series.
    """
    writer = _PromWriter()
    if metrics is not None:
        stats = metrics.stats()
        for field_name, help_text in (
                ("submitted", "Requests submitted to the service."),
                ("accepted", "Requests admitted to the queue."),
                ("completed", "Requests completed successfully."),
                ("failed", "Requests that failed."),
                ("shed", "Requests shed at admission (queue full)."),
                ("coalesced", "Requests coalesced onto an in-flight "
                              "duplicate."),
                ("deadline_expired", "Requests whose deadline lapsed.")):
            writer.metric(f"repro_requests_{field_name}_total", "counter",
                          help_text,
                          [(None, getattr(stats, field_name))])
        writer.metric("repro_queue_depth", "gauge",
                      "Requests waiting in the admission queue.",
                      [(None, stats.queue_depth)])
        writer.metric("repro_in_flight", "gauge",
                      "Requests currently executing.",
                      [(None, stats.in_flight)])
        writer.metric("repro_uptime_seconds", "gauge",
                      "Seconds since the service metrics started.",
                      [(None, stats.uptime_seconds)])
        latency, queue_wait = metrics.snapshot_histograms()
        writer.histogram("repro_request_latency_seconds",
                         "End-to-end request latency (queue included).",
                         latency)
        writer.histogram("repro_queue_wait_seconds",
                         "Time spent waiting in the admission queue.",
                         queue_wait)
    if tracer is not None:
        agg = tracer.aggregates
        for field_name, help_text in (
                ("traces_started", "Traces begun by the tracer."),
                ("traces_finished", "Traces finished and absorbed."),
                ("traces_sampled_out", "Trace requests skipped by the "
                                       "sampler."),
                ("spans_dropped", "Spans dropped by per-trace buffer "
                                  "caps."),
                ("events_dropped", "Span events dropped by per-trace "
                                   "buffer caps.")):
            writer.metric(f"repro_{field_name}_total", "counter", help_text,
                          [(None, getattr(agg, field_name))])
        span_totals = sorted(agg.span_totals.items())
        writer.metric("repro_span_count_total", "counter",
                      "Spans recorded, by span name.",
                      [({"span": name}, count)
                       for name, (count, _seconds) in span_totals])
        writer.metric("repro_span_seconds_total", "counter",
                      "Total seconds spent in spans, by span name.",
                      [({"span": name}, seconds)
                       for name, (_count, seconds) in span_totals])
    if cluster is not None:
        for field_name, help_text in (
                ("dispatched", "Shard tasks dispatched, by worker."),
                ("completed", "Shard tasks completed, by worker."),
                ("failed", "Shard tasks failed, by worker.")):
            writer.metric(
                f"repro_cluster_tasks_{field_name}_total", "counter",
                help_text,
                [({"worker": str(worker.index)},
                  getattr(worker, field_name))
                 for worker in cluster.workers])
        writer.metric("repro_cluster_worker_up", "gauge",
                      "1 when the worker process is alive.",
                      [({"worker": str(worker.index)},
                        1 if worker.alive else 0)
                       for worker in cluster.workers])
        writer.metric("repro_cluster_worker_queue_depth", "gauge",
                      "Tasks in flight on the worker.",
                      [({"worker": str(worker.index)}, worker.queue_depth)
                       for worker in cluster.workers])
        writer.metric("repro_cluster_worker_busy_seconds_total", "counter",
                      "Cumulative worker-self-measured task execution "
                      "seconds.",
                      [({"worker": str(worker.index)},
                        getattr(worker, "busy_seconds", 0.0))
                       for worker in cluster.workers])
        writer.metric("repro_cluster_respawns_total", "counter",
                      "Dead workers replaced by the coordinator.",
                      [(None, cluster.respawns)])
        writer.metric("repro_cluster_partial_responses_total", "counter",
                      "Scatter answers merged from a strict subset of "
                      "shards.",
                      [(None, cluster.partials)])
        writer.metric("repro_cluster_requests_total", "counter",
                      "Requests by execution mode.",
                      [({"mode": "scattered"}, cluster.scattered),
                       ({"mode": "whole_document"},
                        cluster.whole_document)])
        for key in sorted(cluster.shard_latency):
            document, _, shard = key.rpartition("/")
            writer.histogram(
                "repro_cluster_shard_latency_seconds",
                "Worker-measured shard execution seconds.",
                cluster.shard_latency[key],
                labels={"document": document,
                        "shard": "whole" if shard == "-1" else shard})
    return writer.text()


_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\")*\})?"  # labels
    r" (NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)$")  # value
_HELP_LINE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_TYPE_LINE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(counter|gauge|histogram|summary|untyped)$")


def validate_prometheus(text: str) -> None:
    """Raise ``ValueError`` unless ``text`` parses as the Prometheus
    text exposition format: HELP/TYPE comments well-formed and declared
    **at most once per metric family** (merged registries must
    deduplicate, not repeat), sample line syntax valid, every sample
    preceded by a TYPE for its family, and no duplicate series (the
    same metric name with the same label set twice)."""
    typed: Dict[str, str] = {}
    helped: set = set()
    seen_series: set = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            if not _HELP_LINE.match(line):
                raise ValueError(f"line {number}: malformed HELP: {line!r}")
            family = line.split(" ", 3)[2]
            if family in helped:
                raise ValueError(
                    f"line {number}: duplicate HELP for family "
                    f"{family!r}")
            helped.add(family)
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_LINE.match(line)
            if not match:
                raise ValueError(f"line {number}: malformed TYPE: {line!r}")
            if match.group(1) in typed:
                raise ValueError(
                    f"line {number}: duplicate TYPE for family "
                    f"{match.group(1)!r}")
            typed[match.group(1)] = match.group(2)
            continue
        if line.startswith("#"):
            continue
        if not _METRIC_LINE.match(line):
            raise ValueError(f"line {number}: malformed sample: {line!r}")
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and family not in typed:
            raise ValueError(
                f"line {number}: sample {name!r} has no TYPE declaration")
        series = line.rsplit(" ", 1)[0]
        if series in seen_series:
            raise ValueError(
                f"line {number}: duplicate series {series!r}")
        seen_series.add(series)


def write_prometheus(path: str, metrics: Optional[Any] = None,
                     tracer: Optional[Tracer] = None,
                     cluster: Optional[Any] = None) -> str:
    text = prometheus_text(metrics, tracer, cluster)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


# ---------------------------------------------------------------------------
# JSONL span log
# ---------------------------------------------------------------------------

def spans_jsonl(traces: _Traces) -> Iterator[str]:
    """One JSON object per span (trace_id/name merged in) — an
    append-friendly archive format for offline analysis."""
    for trace in _as_traces(traces):
        for span in trace.spans:
            record = span.to_dict()
            record["trace_id"] = trace.trace_id
            record["trace_name"] = trace.name
            yield json.dumps(record, sort_keys=True)


def write_spans_jsonl(path: str, traces: _Traces) -> int:
    """Append spans to ``path``; returns the number of lines written."""
    count = 0
    with open(path, "a", encoding="utf-8") as handle:
        for line in spans_jsonl(traces):
            handle.write(line + "\n")
            count += 1
    return count
