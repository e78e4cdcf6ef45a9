"""Spans and counters taken from outside the program.

``Tracer.install`` replaces public functions of ``dfscreen`` at the
module boundaries where one module calls another (for example the
``complete`` name inside ``dfscreen.triage``) with wrappers that record
a span or bump a counter and then call the original.  Nothing under
``src/`` knows about it; ``uninstall`` puts every original back.

Spans live in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

# Span tuple fields, in order.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run_id", "thread",
               "nested", "value", "error")

# Per-layer metric names and units, in report order.  ``_s`` values are
# summed over threads.
LAYER_METRICS = {
    "rng.fnv1a64_calls": "count",
    "corpus.load_s": "s",
    "corpus.curate_s": "s",
    "embedding.embed_s": "s",
    "embedding.vectors": "count",
    "projection.project_s": "s",
    "clustering.kmeans_s": "s",
    "clustering.nearest_centroid_calls": "count",
    "exemplar_pool.build_s": "s",
    "exemplar_pool.select_s": "s",
    "exemplar_pool.select_calls": "count",
    "prompting.render_s": "s",
    "prompting.render_calls": "count",
    "prompting.prompt_mb": "MB",
    "gateway.complete_s": "s",
    "gateway.complete_calls": "count",
    "gateway.parse_s": "s",
    "gateway.cache_get_s": "s",
    "gateway.cache_put_s": "s",
    "gateway.cache_hit_ratio": "ratio",
    "gateway.sends": "count",
    "gateway.send_s": "s",
    "gateway.retries": "count",
    "gateway.usd_spent": "USD",
    "triage.cascade_s": "s",
    "triage.cascade_runs": "count",
    "triage.stage2_calls": "count",
    "triage.routed_ratio": "ratio",
    "triage.failed_ratio": "ratio",
    "triage.pool_busy_ratio": "ratio",
    "triage.write_results_s": "s",
    "cache.artifact_read_s": "s",
    "cache.artifact_write_s": "s",
    "cache.artifact_mb": "MB",
    "cache.responses_mb": "MB",
    "evaluation.evaluate_s": "s",
    "evaluation.macro_f1": "ratio",
    "synth.workspace_s": "s",
    "cli.self_s": "s",
    "cli.sweep_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder shared by every thread of one process.

    A thread with no open span of its own parents its spans to the
    innermost span open on the main thread: pool workers run on behalf
    of the cascade call that the main thread is blocked in.
    """

    def __init__(self, run_id: str, cache_root: str | None = None):
        self.run_id = run_id
        self.cache_root = os.path.abspath(cache_root) if cache_root else None
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._counters: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; the body may set ``box[0]`` to a numeric value."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        nested = any(n == name for _, n in stack)
        span_id = next(self._ids)
        stack.append((span_id, name))
        box = [None]
        error = None
        start = time.perf_counter()
        try:
            yield box
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id,
                               threading.get_ident(), nested, box[0], error))

    def _counter(self, name: str) -> itertools.count:
        # itertools.count.__next__ is atomic, so pool threads may share it.
        return self._counters.setdefault(name, itertools.count())

    def count_of(self, name: str) -> int:
        """Calls counted so far; reading advances the counter, so read once."""
        counter = self._counters.get(name)
        return next(counter) if counter is not None else 0

    def in_cache(self, path) -> bool:
        if self.cache_root is None or not isinstance(path, (str, os.PathLike)):
            return False
        return os.path.abspath(path).startswith(self.cache_root + os.sep)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, row))) + "\n")

    # -- wrapping --------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _timed(self, owner, attr: str, name, value=None) -> None:
        """Wrap ``owner.attr`` in a span.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``value(result, args, kwargs)`` gives the span's
        numeric payload.
        """

        def make(original):
            def wrapper(*args, **kwargs):
                span_name = name(args, kwargs) if callable(name) else name
                with self.span(span_name) as box:
                    result = original(*args, **kwargs)
                    if value is not None:
                        box[0] = value(result, args, kwargs)
                    return result

            return wrapper

        self._patch(owner, attr, make)

    def _counted(self, owner, attr: str, name: str) -> None:
        counter = self._counter(name)

        def make(original):
            def wrapper(*args, **kwargs):
                next(counter)
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def install(self, count_only: bool = False, providers=()) -> None:
        """Wrap the boundaries; ``count_only`` installs the counters alone.

        ``providers`` lists extra provider classes whose ``send`` is a
        provider boundary (the benchmark's own latency provider).
        """
        import dfscreen.cache as cache
        import dfscreen.cli as cli
        import dfscreen.clustering as clustering
        import dfscreen.corpus as corpus
        import dfscreen.embedding as embedding
        import dfscreen.evaluation as evaluation
        import dfscreen.exemplar_pool as exemplar_pool
        import dfscreen.gateway as gateway
        import dfscreen.rng as rng
        import dfscreen.triage as triage

        self._counted(embedding, "fnv1a64", "rng.fnv1a64_calls")
        self._counted(rng, "fnv1a64", "rng.fnv1a64_calls")
        self._counted(clustering, "nearest_centroid",
                      "clustering.nearest_centroid_calls")
        if count_only:
            return

        def by_path(layer, io):
            # Reads and writes of files under cache_dir are cache I/O.
            def name(args, kwargs):
                path = args[0] if io == "artifact_read" else args[-1]
                return "cache." + io if self.in_cache(path) else layer

            return name

        def written_bytes(_result, args, _kwargs):
            path = args[-1]
            return os.path.getsize(path) if self.in_cache(path) else None

        def embed_name(args, _kwargs):
            client = args[0]
            if client.config.kind == "file_import":
                return "cache.artifact_read"
            return "embedding.embed"

        def embed_count(result, args, _kwargs):
            return len(result) if args[0].config.kind != "file_import" else None

        self._timed(corpus, "load_dataset", "corpus.load")
        self._timed(corpus, "load_dataset_jsonl", by_path("corpus.load", "artifact_read"))
        self._timed(corpus, "curate", "corpus.curate")
        self._timed(corpus, "write_dataset_jsonl", by_path("corpus.write", "artifact_write"),
                    written_bytes)
        self._timed(embedding.EmbeddingClient, "embed_batch", embed_name, embed_count)
        self._timed(embedding, "write_vectors_jsonl", by_path("embedding.write", "artifact_write"),
                    written_bytes)
        self._timed(cli, "project_2d", "projection.project")
        self._timed(cli, "write_points_jsonl", by_path("projection.write", "artifact_write"),
                    written_bytes)
        self._timed(cli, "read_points_jsonl", by_path("projection.read", "artifact_read"))
        self._timed(cache.ArtifactCache, "read_text", "cache.artifact_read")
        self._timed(cache.ArtifactCache, "write_text", "cache.artifact_write",
                    lambda target, _a, _k: os.path.getsize(target))
        self._timed(clustering, "kmeans", "clustering.kmeans")
        self._timed(cli, "build_pool", "exemplar_pool.build")
        self._timed(triage, "select_instances", "exemplar_pool.select")
        self._timed(exemplar_pool.ExemplarPool, "select_instances",
                    "exemplar_pool.select")

        def prompt_bytes(prompt, _args, _kwargs):
            return len(prompt.text.encode("utf-8"))

        self._timed(triage, "render", "prompting.render", prompt_bytes)
        self._timed(cli, "render", "prompting.render", prompt_bytes)
        self._timed(triage, "complete", "gateway.complete")
        self._timed(triage, "parse_decision", "gateway.parse")
        self._timed(gateway.ResponseCache, "get", "gateway.cache_get",
                    lambda hit, _a, _k: 1 if hit is not None else 0)
        self._timed(gateway.ResponseCache, "put", "gateway.cache_put")
        for cls in (gateway.OracleProvider, *providers):
            self._timed(cls, "send", "gateway.send")
        self._timed(triage, "run_two_stage", "triage.cascade",
                    lambda out, _a, _k: (sum(r.routed for r in out[0]), len(out[0])))
        self._timed(triage, "write_results_jsonl", "triage.write_results")
        self._timed(evaluation, "evaluate_run", "evaluation.evaluate")
        self._timed(evaluation, "write_report", "evaluation.evaluate")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, parallelism: int) -> dict[str, float]:
    """Fold the recorded spans into the per-layer metrics.

    Spans nested in a span of the same name are skipped, so recursion
    and wrapper-inside-wrapper calls count once.  ``cli.self_s`` is the
    time of the top-level spans (one per command the pass ran) not
    covered by their direct children on the same thread.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    children: dict[int, float] = {}
    tops = []
    for sid, name, start, end, parent, _run, thread, nested, value, error in tracer.spans:
        if parent is None:
            tops.append((sid, end - start, thread))
        if nested:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if value is not None:
            values.setdefault(name, []).append(value)
        if name == "gateway.send" and error == "TransientProviderError":
            calls["retries"] = calls.get("retries", 0) + 1
    top_threads = {sid: thread for sid, _d, thread in tops}
    for sid, name, start, end, parent, _run, thread, nested, _v, _e in tracer.spans:
        if parent in top_threads and thread == top_threads[parent]:
            children[parent] = children.get(parent, 0.0) + (end - start)

    def s(name):
        return total.get(name, 0.0)

    def mb(name):
        return sum(values.get(name, [])) / 1e6

    routed = sum(v[0] for v in values.get("triage.cascade", []))
    records = sum(v[1] for v in values.get("triage.cascade", []))
    complete_calls = calls.get("gateway.complete", 0)
    hits = sum(values.get("gateway.cache_get", []))
    return {
        "rng.fnv1a64_calls": tracer.count_of("rng.fnv1a64_calls"),
        "corpus.load_s": s("corpus.load"),
        "corpus.curate_s": s("corpus.curate"),
        "embedding.embed_s": s("embedding.embed"),
        "embedding.vectors": sum(values.get("embedding.embed", [])),
        "projection.project_s": s("projection.project"),
        "clustering.kmeans_s": s("clustering.kmeans"),
        "clustering.nearest_centroid_calls":
            tracer.count_of("clustering.nearest_centroid_calls"),
        "exemplar_pool.build_s": s("exemplar_pool.build"),
        "exemplar_pool.select_s": s("exemplar_pool.select"),
        "exemplar_pool.select_calls": calls.get("exemplar_pool.select", 0),
        "prompting.render_s": s("prompting.render"),
        "prompting.render_calls": calls.get("prompting.render", 0),
        "prompting.prompt_mb": mb("prompting.render"),
        "gateway.complete_s": s("gateway.complete"),
        "gateway.complete_calls": complete_calls,
        "gateway.parse_s": s("gateway.parse"),
        "gateway.cache_get_s": s("gateway.cache_get"),
        "gateway.cache_put_s": s("gateway.cache_put"),
        "gateway.cache_hit_ratio": hits / complete_calls if complete_calls else 0.0,
        "gateway.sends": calls.get("gateway.send", 0),
        "gateway.send_s": s("gateway.send"),
        "gateway.retries": calls.get("retries", 0),
        "triage.cascade_s": s("triage.cascade"),
        "triage.cascade_runs": calls.get("triage.cascade", 0),
        "triage.stage2_calls": routed,
        "triage.routed_ratio": routed / records if records else 0.0,
        "triage.pool_busy_ratio": (
            s("gateway.send") / (parallelism * s("triage.cascade"))
            if s("triage.cascade") else 0.0
        ),
        "triage.write_results_s": s("triage.write_results"),
        "cache.artifact_read_s": s("cache.artifact_read"),
        "cache.artifact_write_s": s("cache.artifact_write"),
        "cache.artifact_mb": mb("cache.artifact_write"),
        "evaluation.evaluate_s": s("evaluation.evaluate"),
        "cli.self_s": sum(d - children.get(sid, 0.0) for sid, d, _t in tops),
    }
