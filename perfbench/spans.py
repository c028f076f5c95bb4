"""Spans for a traced pipeline run, recorded from outside the program.

`install` replaces public functions where evontree looks them up (the names
`evontree.pipeline` imports, `fit_threshold` in `evontree.calibration`, the
stage table) and a few methods on their classes, with wrappers that record
one span per call: name, parent span, start, end, success, and a size taken
from the result (labels collected, curve points fitted, ...). The thread
pool `evontree.pipeline` uses is swapped for one that records each task as
a `pipeline.worker` span whose parent is the span that submitted it, so
work done in worker threads hangs under the call that fanned it out.

Spans stay in memory until `summarize` turns them into per-layer metrics.
Self time is a span's duration minus the union of its children's intervals:
children running on two threads at once overlap, so their durations cannot
simply be subtracted.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

# Names evontree.pipeline imports, with the size recorded from each result.
PIPELINE_IMPORTS: dict[str, Callable | None] = {
    "extract_forest": lambda r: r[1].expansions,
    "score_triple": None,
    "collect_samples": lambda r: sum(map(len, r[0].values())) + r[1],
    "calibrate_relation": None,
    "select_reliable": len,
    "extrapolate": len,
    "read_triple_file": None,
    "write_triple_file": None,
    "build_corpus": lambda r: len(r[0]),
    "judge_triples": lambda r: len(r[0]) + r[1],
}

# (module, class, method, span name, size of the result)
METHODS = (
    ("gateway", "ResponseCache", "get", "gateway.cache.get", lambda r: r is not None),
    ("gateway", "ResponseCache", "put", "gateway.cache.put", None),
    ("gateway", "ModelGateway", "generate", "gateway.generate", None),
    ("gateway", "ModelGateway", "score", "gateway.score", None),
    ("gateway", "HttpBackend", "generate", "gateway.http.generate", None),
    ("gateway", "HttpBackend", "score", "gateway.http.score", None),
    ("synthetic", "SyntheticBackend", "generate", "synthetic.generate", None),
    ("synthetic", "SyntheticBackend", "score", "synthetic.score", None),
    ("pipeline", "RunContext", "map_concurrent", "pipeline.map_concurrent", len),
)

BACKEND_SPANS = ("gateway.http.generate", "gateway.http.score",
                 "synthetic.generate", "synthetic.score")


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    ok: bool
    size: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pools: list[tuple[float, float, int]] = []  # (start, end, max_workers)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _current(self) -> int:
        return getattr(self._local, "span", 0)

    def wrap(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current()
            span_id = next(tracer._ids)
            tracer._local.span = span_id
            ok, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._local.span = parent
                n = int(size(result)) if ok and size is not None else 0
                tracer.spans.append(Span(span_id, parent, name, start, end, ok, n))

        return traced

    def pool_class(self) -> type[ThreadPoolExecutor]:
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs) -> None:
                super().__init__(max_workers, *args, **kwargs)
                self._opened = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                task = tracer.wrap("pipeline.worker", fn)
                submitter = tracer._current()

                def run_under_submitter(*a, **k):
                    tracer._local.span = submitter
                    try:
                        return task(*a, **k)
                    finally:
                        tracer._local.span = 0

                return super().submit(run_under_submitter, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs) -> None:
                super().shutdown(wait, **kwargs)
                tracer.pools.append((self._opened, time.perf_counter(), self._max_workers))

        return TracedPool


def install(tracer: Tracer) -> None:
    """Patch evontree so every call named in this module records a span."""
    import evontree.calibration as calibration
    import evontree.gateway as gateway
    import evontree.pipeline as pipeline
    import evontree.synthetic as synthetic

    modules = {"gateway": gateway, "pipeline": pipeline, "synthetic": synthetic}
    for name, size in PIPELINE_IMPORTS.items():
        fn = getattr(pipeline, name)
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(pipeline, name, tracer.wrap(f"{layer}.{name}", fn, size))
    calibration.fit_threshold = tracer.wrap(
        "calibration.fit_threshold", calibration.fit_threshold, lambda r: len(r.curve))
    for stage, fn in list(pipeline.STAGES.items()):
        pipeline.STAGES[stage] = tracer.wrap(f"pipeline.{stage}", fn)
    for module, cls_name, method, span_name, size in METHODS:
        cls = getattr(modules[module], cls_name)
        setattr(cls, method, tracer.wrap(span_name, getattr(cls, method), size))
    pipeline.ThreadPoolExecutor = tracer.pool_class()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children[s.parent].append((max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: (s.end - s.start) - _union_length(children.get(s.id, [])) for s in spans}


def _percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 when there are no samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1000.0


def summarize(tracer: Tracer) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics plus a per-span-name table (count, errors, total and
    self seconds) for a human reading the trace."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(*names: str) -> float:
        return sum(s.end - s.start for n in names for s in by_name.get(n, ()))

    def size(name: str) -> int:
        return sum(s.size for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    for stage in ("extract", "calibrate", "confirm", "reliable", "extrapolate", "gap",
                  "synthesize", "report"):
        m[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
    m["pipeline.map_concurrent_s"] = total("pipeline.map_concurrent")
    m["pipeline.map_concurrent.items"] = size("pipeline.map_concurrent")
    busy = total("pipeline.worker")
    capacity = sum((end - start) * workers for start, end, workers in tracer.pools)
    m["pipeline.worker_busy_s"] = busy
    m["pipeline.parallel_eff"] = busy / capacity if capacity else 0.0

    requests = by_name.get("gateway.generate", []) + by_name.get("gateway.score", [])
    request_s = total("gateway.generate", "gateway.score")
    m["gateway.requests"] = len(requests)
    m["gateway.request_s"] = request_s
    m["gateway.request_p50_ms"] = _percentile_ms([s.end - s.start for s in requests], 50)
    m["gateway.request_p99_ms"] = _percentile_ms([s.end - s.start for s in requests], 99)

    hits = size("gateway.cache.get")
    lookups = count("gateway.cache.get")
    m["gateway.cache.hits"] = hits
    m["gateway.cache.misses"] = lookups - hits
    m["gateway.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["gateway.cache.puts"] = count("gateway.cache.put")
    m["gateway.cache.get_s"] = total("gateway.cache.get")
    m["gateway.cache_s"] = total("gateway.cache.get", "gateway.cache.put")

    backend = [s for n in BACKEND_SPANS for s in by_name.get(n, ())]
    backend_s = total(*BACKEND_SPANS)
    m["gateway.backend.calls"] = len(backend)
    m["gateway.backend_s"] = backend_s
    m["gateway.backend.errors"] = sum(not s.ok for s in backend)
    # Every request is a cache hit or reaches the backend at least once;
    # backend calls beyond that are retries.
    m["gateway.retries"] = len(backend) - (len(requests) - hits)
    m["gateway.backend.share"] = backend_s / request_s if request_s else 0.0
    m["synthetic.generate.calls"] = count("synthetic.generate")
    m["synthetic.score.calls"] = count("synthetic.score")

    m["scoring.score_triple.calls"] = count("scoring.score_triple")
    m["scoring.score_triple_s"] = total("scoring.score_triple")
    m["calibration.collect_samples_s"] = total("calibration.collect_samples")
    m["calibration.labels"] = size("calibration.collect_samples")
    m["calibration.fit_threshold.calls"] = count("calibration.fit_threshold")
    m["calibration.fit_threshold_s"] = total("calibration.fit_threshold")
    m["calibration.curve_points"] = size("calibration.fit_threshold")
    m["extraction.extract_forest_s"] = total("extraction.extract_forest")
    m["extraction.expansions"] = size("extraction.extract_forest")
    for fn in ("read_triple_file", "write_triple_file"):
        m[f"ontology.{fn}.calls"] = count(f"ontology.{fn}")
        m[f"ontology.{fn}_s"] = total(f"ontology.{fn}")
    m["rules.select_reliable_s"] = total("rules.select_reliable")
    m["rules.reliable"] = size("rules.select_reliable")
    m["rules.extrapolate_s"] = total("rules.extrapolate")
    m["rules.candidates"] = size("rules.extrapolate")
    m["synthesis.build_corpus_s"] = total("synthesis.build_corpus")
    m["synthesis.entries"] = size("synthesis.build_corpus")
    m["report.judge_triples_s"] = total("report.judge_triples")
    m["report.judged"] = size("report.judge_triples")

    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += selfs[s.id]
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds

    table = [{"span": name,
              "count": len(group),
              "errors": sum(not s.ok for s in group),
              "total_s": sum(s.end - s.start for s in group),
              "self_s": sum(selfs[s.id] for s in group)}
             for name, group in sorted(by_name.items())]
    return m, table
