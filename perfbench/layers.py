"""Traced single-process run: per-layer time and counts, measured from
outside the program by timing calls into each layer.

The flagship loop follows ``run_extract_pipeline`` step by step without
Ray: read ``READ_COLUMNS``, ``AddBucket``, ``HtmlExtractUDF`` per batch,
``PartialWriter``, then the per-bucket finalize. While it runs,
``parse_stage.parse``, ``html.feed.parse_chunked`` and
``parse_stage.extract_main_content`` are wrapped, so their spans nest
inside the batch span; the originals are restored afterwards. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa

import checks
import host

BATCH_SIZE = 256
N_BUCKETS = 16

# Entry points the tracer wraps: (module, attribute, span name).
WRAPPED = [
    ("htmlparsersharp_ray.stages.parse_stage", "parse", "html.parse"),
    ("htmlparsersharp_ray.html.feed", "parse_chunked", "html.feed"),
    ("htmlparsersharp_ray.stages.parse_stage", "extract_main_content", "extract.boilerplate"),
]

# Every per-layer metric with its unit; a layer the workload does not
# exercise reports 0.
PER_LAYER = {
    "html.tokenizer.busy_s": "s",
    "html.tokenizer.chars_per_s": "chars/s",
    "html.tokenizer.tokens": "count",
    "html.tokenizer.parse_errors": "count",
    "html.treebuilder.busy_s": "s",
    "html.treebuilder.nodes": "count",
    "html.treebuilder.capped_docs": "count",
    "html.feed.busy_s": "s",
    "html.feed.docs": "count",
    "html.feed.overhead_ratio": "ratio",
    "extract.boilerplate.busy_s": "s",
    "extract.boilerplate.kept_char_share": "ratio",
    "extract.boilerplate.boilerplate_bytes": "bytes",
    "stages.parse_stage.busy_s": "s",
    "stages.parse_stage.self_s": "s",
    "stages.parse_stage.batch_ms_p50": "ms",
    "stages.parse_stage.batch_ms_p99": "ms",
    "stages.parse_stage.truncated_rows": "count",
    "pipelines.extract_pipeline.read_s": "s",
    "pipelines.extract_pipeline.bucket_s": "s",
    "pipelines.extract_pipeline.shuffle_write_s": "s",
    "pipelines.extract_pipeline.shuffle_bytes": "bytes",
    "pipelines.extract_pipeline.finalize_s": "s",
    "pipelines.extract_pipeline.bucket_rows_max_over_median": "ratio",
    "pipelines.extract_pipeline.rows_parsed": "count",
    "pipelines.extract_pipeline.rows_skipped": "count",
    "pipelines.extract_pipeline.ray_overhead_s": "s",
    "pipelines.extract_pipeline.ray_overhead_share": "ratio",
    "pipelines.joins.hash_join_s": "s",
    "pipelines.joins.rows_per_s": "rows/s",
    "stages.exchange.bucket_group_map_s": "s",
    "trace.overhead_share": "ratio",
}


class TraceError(RuntimeError):
    """A wrapped entry point got no calls on a workload with work for it."""


class Tracer:
    """Spans as (name, start, end, parent index) in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.capped_docs = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            start = self.spans[idx][1]
            self.spans[idx] = (name, start, time.perf_counter(), parent)

    def busy(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n == name]

    def self_time(self, name: str) -> float:
        child = [0.0] * len(self.spans)
        for n, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return sum(e - s - child[i] for i, (n, s, e, _) in enumerate(self.spans)
                   if n == name)

    @contextmanager
    def wrapped(self):
        import importlib

        saved = []
        for mod_name, attr, span_name in WRAPPED:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)

            def wrapper(*a, _orig=orig, _name=span_name, **kw):
                with self.span(_name):
                    result = _orig(*a, **kw)
                self.capped_docs += bool(getattr(result, "content_capped", False))
                return result

            saved.append((mod, attr, orig))
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def dump(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump([{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                       for n, s, e, p in self.spans], f)


def flagship_loop(tracer: Tracer, input_dir: str, out_dir: str,
                  salt_cap: int, skip=None) -> dict:
    """One in-process pass of the flagship pipeline; returns counts."""
    import pyarrow.parquet as pq

    from htmlparsersharp_ray.pipelines import extract_pipeline as ep
    from htmlparsersharp_ray.stages.parse_stage import HtmlExtractUDF

    shutil.rmtree(os.path.join(out_dir, "_partial"), ignore_errors=True)
    run_id = "traced"
    with tracer.span("pipelines.extract_pipeline.read"):
        table = pq.read_table(input_dir, columns=ep.READ_COLUMNS)
    with tracer.span("pipelines.extract_pipeline.bucket"):
        bucketed = ep.AddBucket(N_BUCKETS, salt_cap, skip_buckets=skip)(table)
    udf = HtmlExtractUDF()
    writer = ep.PartialWriter(out_dir, run_id)
    touched: dict[int, int] = {}
    for lo in range(0, bucketed.num_rows, BATCH_SIZE):
        batch = bucketed.slice(lo, BATCH_SIZE)
        with tracer.span("stages.parse_stage"):
            out = udf(batch.drop_columns(["bucket"])).append_column(
                "bucket", batch.column("bucket"))
        with tracer.span("pipelines.extract_pipeline.shuffle_write"):
            written = writer(out)
        for b, n in zip(written.column("bucket").to_pylist(), written.column("rows").to_pylist()):
            touched[b] = touched.get(b, 0) + n
    pdir = ep._partial_dir(out_dir, run_id)
    shuffle_bytes = sum(os.path.getsize(os.path.join(pdir, f)) for f in os.listdir(pdir)) \
        if os.path.isdir(pdir) else 0
    finalize = ep._finalize_bucket(out_dir, run_id)
    for b in sorted(touched):
        with tracer.span("pipelines.extract_pipeline.finalize"):
            finalize(pa.table({"bucket": pa.array([b], pa.int32())}))
    shutil.rmtree(os.path.join(out_dir, "_partial"), ignore_errors=True)
    return {"rows_in": table.num_rows, "rows_parsed": bucketed.num_rows,
            "shuffle_bytes": shuffle_bytes}


class _NullSink:
    """Tokenizer sink that builds nothing but switches the content model
    on the elements whose text the tree builder would, so the tokenizer
    does the same work as in a full parse."""

    def __init__(self):
        from htmlparsersharp_ray.html import tokenizer as tk
        from htmlparsersharp_ray.html.constants import RAWTEXT_ELEMENTS, RCDATA_ELEMENTS

        self.tokenizer = None
        self._models = {n: tk.RCDATA for n in RCDATA_ELEMENTS}
        self._models.update({n: tk.RAWTEXT for n in RAWTEXT_ELEMENTS})
        self._models["script"] = tk.SCRIPT_DATA
        self._models["plaintext"] = tk.PLAINTEXT

    def start_tag(self, name, attrs, self_closing):
        state = self._models.get(name)
        if state is not None and not self_closing:
            self.tokenizer.set_content_model(state, None if name == "plaintext" else name)

    def cdata_allowed(self):
        return False

    def characters(self, data): pass
    def comment(self, data): pass
    def doctype(self, *a): pass
    def end_tag(self, name): pass
    def eof(self): pass


def tokenizer_only(texts: list[str]) -> tuple[float, int]:
    """Seconds and chars for ``Tokenizer(null sink).run`` over the
    preprocessed texts."""
    from htmlparsersharp_ray.html.parser import preprocess
    from htmlparsersharp_ray.html.tokenizer import Tokenizer

    pre = [preprocess(t or "") for t in texts]
    t0 = time.perf_counter()
    for text in pre:
        sink = _NullSink()
        sink.tokenizer = Tokenizer(sink)
        sink.tokenizer.run(text)
    return time.perf_counter() - t0, sum(len(t) for t in pre)


def zero_metrics() -> dict:
    return {name: 0.0 for name in PER_LAYER}


def flagship_layers(input_dir: str, out_dir: str, salt_cap: int, ray_wall_s: float,
                    resume_skip=None) -> tuple[dict, Tracer, dict]:
    """Per-layer metrics of one flagship workload's input; the in-process
    pipeline writes its output to ``out_dir``."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from htmlparsersharp_ray.stages.parse_stage import FEED_THRESHOLD_CHARS
    from htmlparsersharp_ray.html.parser import parse

    # The tracing overhead compares the loop with and without the
    # wrappers, alternated twice, best of each; spans come from the
    # first traced loop.
    plain_s, traced_s, tracer = [], [], None
    for traced in (False, True, False, True):
        shutil.rmtree(out_dir, ignore_errors=True)
        loop_tracer = Tracer()
        t0 = time.perf_counter()
        if traced:
            with loop_tracer.wrapped():
                loop_counts = flagship_loop(loop_tracer, input_dir, out_dir, salt_cap)
        else:
            flagship_loop(loop_tracer, input_dir, out_dir, salt_cap)
        (traced_s if traced else plain_s).append(time.perf_counter() - t0)
        if traced and tracer is None:
            tracer, counts = loop_tracer, loop_counts

    texts = pq.read_table(input_dir, columns=["text"]).column("text").to_pylist()
    in_chars = sum(len(t or "") for t in texts)
    feed_texts = [t for t in texts if t and len(t) > FEED_THRESHOLD_CHARS]
    required = ["html.parse", "extract.boilerplate"] + (["html.feed"] if feed_texts else [])
    missing = [n for n in required if tracer.calls(n) == 0]
    if missing:
        raise TraceError(f"wrapped entry points got no calls: {missing}")

    tok_s, tok_chars = tokenizer_only(texts)
    whole_s = 0.0
    for text in feed_texts:
        t0 = time.perf_counter()
        parse(text)
        whole_s += time.perf_counter() - t0

    recs = checks.lineage_records(out_dir)
    bucket_rows = [r["rows"] for r in recs.values()]
    msum = {k: sum(r["metrics"][k] for r in recs.values())
            for k in ("nodes", "tokens", "parse_errors", "boilerplate_bytes", "truncated_rows")}
    extracted = sum(pc.sum(pc.utf8_length(t.column("extracted_text"))).as_py() or 0
                    for t in (pq.read_table(r["path"], columns=["extracted_text"])
                              for r in recs.values()))

    rows_parsed, rows_skipped = counts["rows_parsed"], 0
    if resume_skip:
        for b in resume_skip:
            shutil.rmtree(os.path.join(out_dir, f"bucket={b:04d}"), ignore_errors=True)
        resumed = flagship_loop(Tracer(), input_dir, out_dir, salt_cap,
                                skip=sorted(set(recs) - set(resume_skip)))
        rows_parsed, rows_skipped = resumed["rows_parsed"], resumed["rows_in"] - resumed["rows_parsed"]

    parse_s = tracer.busy("html.parse")
    feed_s = tracer.busy("html.feed")
    batch_ms = [d * 1000 for d in tracer.durations("stages.parse_stage")]
    layer_sum = sum(tracer.busy(n) for n in (
        "pipelines.extract_pipeline.read", "pipelines.extract_pipeline.bucket",
        "stages.parse_stage", "pipelines.extract_pipeline.shuffle_write",
        "pipelines.extract_pipeline.finalize"))
    m = zero_metrics()
    m.update({
        "html.tokenizer.busy_s": tok_s,
        "html.tokenizer.chars_per_s": tok_chars / tok_s if tok_s else 0.0,
        "html.tokenizer.tokens": msum["tokens"],
        "html.tokenizer.parse_errors": msum["parse_errors"],
        "html.treebuilder.busy_s": max(0.0, parse_s + feed_s - tok_s),
        "html.treebuilder.nodes": msum["nodes"],
        "html.treebuilder.capped_docs": tracer.capped_docs,
        "html.feed.busy_s": feed_s,
        "html.feed.docs": tracer.calls("html.feed"),
        "html.feed.overhead_ratio": feed_s / whole_s if whole_s else 0.0,
        "extract.boilerplate.busy_s": tracer.busy("extract.boilerplate"),
        "extract.boilerplate.kept_char_share": extracted / in_chars if in_chars else 0.0,
        "extract.boilerplate.boilerplate_bytes": msum["boilerplate_bytes"],
        "stages.parse_stage.busy_s": tracer.busy("stages.parse_stage"),
        "stages.parse_stage.self_s": tracer.self_time("stages.parse_stage"),
        "stages.parse_stage.batch_ms_p50": float(np.percentile(batch_ms, 50)),
        "stages.parse_stage.batch_ms_p99": float(np.percentile(batch_ms, 99)),
        "stages.parse_stage.truncated_rows": msum["truncated_rows"],
        "pipelines.extract_pipeline.read_s": tracer.busy("pipelines.extract_pipeline.read"),
        "pipelines.extract_pipeline.bucket_s": tracer.busy("pipelines.extract_pipeline.bucket"),
        "pipelines.extract_pipeline.shuffle_write_s": tracer.busy("pipelines.extract_pipeline.shuffle_write"),
        "pipelines.extract_pipeline.shuffle_bytes": counts["shuffle_bytes"],
        "pipelines.extract_pipeline.finalize_s": tracer.busy("pipelines.extract_pipeline.finalize"),
        "pipelines.extract_pipeline.bucket_rows_max_over_median":
            max(bucket_rows) / statistics.median(bucket_rows),
        "pipelines.extract_pipeline.rows_parsed": rows_parsed,
        "pipelines.extract_pipeline.rows_skipped": rows_skipped,
        "pipelines.extract_pipeline.ray_overhead_s": ray_wall_s - layer_sum,
        "pipelines.extract_pipeline.ray_overhead_share": (ray_wall_s - layer_sum) / ray_wall_s,
        "trace.overhead_share": min(traced_s) / min(plain_s) - 1.0,
    })
    info = {"layer_sum_s": layer_sum, "ray_wall_s": ray_wall_s,
            "traced_loop_s": min(traced_s), "untraced_loop_s": min(plain_s)}
    return m, tracer, info


def _median_time(fn, reps: int = 3) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        host.settle()
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def exchange_layers(tables_dir: str, con) -> tuple[dict, int, list]:
    """Standalone ``hash_join`` and ``bucket_group_map`` calls, each
    materialised and checked against DuckDB on the same tables. Returns
    (metrics, failed checks, problems)."""
    import pandas as pd
    import ray.data

    from htmlparsersharp_ray.pipelines.joins import hash_join
    from htmlparsersharp_ray.stages.exchange import bucket_group_map

    def table(name):
        return ray.data.read_parquet(os.path.join(tables_dir, f"{name}.parquet"))

    failed, problems = 0, []
    orders, customer = table("orders"), table("customer")
    join_s, joined = _median_time(
        lambda: hash_join(orders, customer, left_on="o_custkey", right_on="c_custkey")
        .materialize().count())
    want = con.sql("SELECT count(*) FROM orders JOIN customer ON o_custkey = c_custkey").fetchone()[0]
    if joined != want:
        failed += 1
        problems.append(f"hash_join rows {joined} != {want}")
    n_in = orders.count() + customer.count()

    lineitem = table("lineitem")
    group_s, counted = _median_time(
        lambda: int(bucket_group_map(
            lineitem,
            lambda t: t.column("l_orderkey").to_numpy() % N_BUCKETS,
            lambda df: pd.DataFrame({"n": [len(df)]}),
        ).to_pandas()["n"].sum()))
    want = con.sql("SELECT count(*) FROM lineitem").fetchone()[0]
    if counted != want:
        failed += 1
        problems.append(f"bucket_group_map rows {counted} != {want}")

    m = zero_metrics()
    m.update({
        "pipelines.joins.hash_join_s": join_s,
        "pipelines.joins.rows_per_s": n_in / join_s,
        "stages.exchange.bucket_group_map_s": group_s,
    })
    return m, failed, problems
