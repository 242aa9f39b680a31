"""Arrow-IPC blob exchange — the one owner of bucketed per-key work.

Ray Data's ``groupby`` is a sort-based all-to-all over RAW ROWS: a
pipeline that emits one row per (doc, gram) or (doc, bigram) pushes
tens of millions of tiny rows through the sort at corpus scale, and the
sort — not the per-bucket compute — becomes the wall (measured: the
1M-doc lm_score pass spent >80% of 86.7 s in the two exchanges).
Packing each batch's per-bucket slices into ONE Arrow-IPC blob per
(batch, bucket) makes the exchange sort ``blocks × occupied_buckets``
binary rows instead, while the per-bucket callable still sees exactly
the rows it would have seen (zero-parse IPC deserialize + concat).

:func:`bucket_group_map` is the single-input form and
``pipelines/joins.py::hash_join`` the two-sided one; both bucket a key
with :func:`key_buckets`, so a key lands in the same bucket under
either.

A blob row is an int64 ``bucket`` plus one IPC ``blob``
(:data:`BLOB_SCHEMA`). Only this module builds and reads them:
:func:`pack_by` (one row per occupied bucket of a table),
:func:`blob_row` (a whole table in one bucket) and :func:`unpack` (a
bucket group's tables) serve :func:`bucket_group_map`, ``hash_join``
(whose rows add an int8 ``side`` column) and the graph operators in
``stages/graph.py`` (pagerank, label_propagation, sssp, bfs_hops,
kcore, triangle_counts, edge_support), whose blob rows carry edges and
per-node state from one superstep to the next. Reference n/a —
engine-level utility.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.ipc

import ray.data

from . import hashing


def serialize_table(table: pa.Table) -> bytes:
    """Arrow-IPC-stream bytes for ``table`` (schema included)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def deserialize_table(blob: bytes) -> pa.Table:
    """Inverse of :func:`serialize_table` (zero-parse IPC read)."""
    return pa.ipc.open_stream(pa.BufferReader(blob)).read_all()


BLOB_SCHEMA = pa.schema([("bucket", pa.int64()), ("blob", pa.large_binary())])

EMPTY_BLOBS = BLOB_SCHEMA.empty_table()


def pack_by(table: pa.Table, buckets: np.ndarray) -> pa.Table:
    """One blob row per occupied bucket of ``table`` (``buckets`` holds
    each row's bucket id); 0 rows give an empty blob table."""
    if table.num_rows == 0:
        return EMPTY_BLOBS
    order = np.argsort(buckets, kind="stable")
    table, buckets = table.take(pa.array(order)), buckets[order]
    uniq, starts = np.unique(buckets, return_index=True)
    ends = np.append(starts[1:], len(buckets))
    blobs = [serialize_table(table.slice(lo, hi - lo))
             for lo, hi in zip(starts, ends)]
    return pa.table({
        "bucket": pa.array(uniq.astype(np.int64)),
        "blob": pa.array(blobs, pa.large_binary()),
    }, schema=BLOB_SCHEMA)


def blob_row(table: pa.Table, bucket: int) -> pa.Table:
    """``table`` as ONE blob row in ``bucket``."""
    return pa.table({
        "bucket": pa.array([bucket], pa.int64()),
        "blob": pa.array([serialize_table(table)], pa.large_binary()),
    }, schema=BLOB_SCHEMA)


def unpack(group: pd.DataFrame) -> list[pa.Table]:
    """The tables packed into a group's blob rows, in row order."""
    return [deserialize_table(b) for b in group["blob"]]


def key_hash64(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic pre-mod uint64 hash per key value, fully vectorized.
    Int keys splitmix; string keys dictionary-encode then hash unique
    values in one C pass. Nulls hash to a fixed slot — callers enforce
    SQL null-join semantics by filtering (see joins.hash_join)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_integer(arr.type):
        x = (arr.cast(pa.int64()).fill_null(0)
             .to_numpy(zero_copy_only=False).astype(np.uint64))
        return hashing.mix64(x)
    enc = arr.dictionary_encode()
    vals = [str(v) for v in enc.dictionary.to_pylist()] + [""]
    # a null key takes the slot after the dictionary: it hashes as ""
    codes = (enc.indices.fill_null(len(vals) - 1)
             .to_numpy(zero_copy_only=False).astype(np.int64))
    return hashing.hash_strings64(
        np.asarray(vals, dtype=object), categorize=False)[codes]


def key_buckets(col: str, n_buckets: int):
    """``bucket_of`` for :func:`bucket_group_map`: the key-hash bucket
    of column ``col`` in ``[0, n_buckets)``, the same bucket
    ``hash_join`` gives that key."""
    nb = np.uint64(n_buckets)

    def bucket_of(batch: pa.Table) -> np.ndarray:
        return (key_hash64(batch.column(col)) % nb).astype(np.int64)

    return bucket_of


def bucket_group_map(ds: ray.data.Dataset, bucket_of, fn):
    """Bucketed ``groupby().map_groups`` with an Arrow-IPC BLOB
    exchange: the scale replacement for feeding millions of raw rows
    through Ray's sort-based groupby. Each input batch is split into
    per-bucket slices (``bucket_of(pa.Table) -> int64 array``, one
    vectorized call) and packed into ONE IPC blob per (batch, bucket),
    so the all-to-all sorts only ``blocks × occupied_buckets`` rows;
    ``fn(pandas DataFrame of the whole bucket) -> DataFrame`` then runs
    exactly like a map_groups callable. Blob rows carry the slice's
    schema, so empty buckets never reach ``fn`` and mixed-schema
    warnings don't arise. Same semantics as
    ``ds.map_batches(tag).groupby(b).map_groups(fn)`` — pytest-gated
    equivalence in tests/test_joins.py."""

    def pack(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        if batch.num_rows == 0:   # bucket_of never sees an empty batch
            return EMPTY_BLOBS
        return pack_by(batch, np.asarray(bucket_of(batch), dtype=np.int64))

    def unpack_fn(group: pd.DataFrame) -> pd.DataFrame:
        return fn(pa.concat_tables(unpack(group)).to_pandas())

    return (
        ds.map_batches(pack, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(unpack_fn, batch_format="pandas")
    )


def checkpoint(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Materialize AND CUT LINEAGE — mandatory for iterative pipelines
    that rebind a Dataset every round.

    ``materialize()`` alone is not enough: deriving a new Dataset from a
    MaterializedDataset still DEEP-COPIES its logical plan into the new
    plan, so a loop whose round r+1 references round r twice (state +
    a derived side) builds a plan tree that DOUBLES per round — measured
    on the k-core peel at sf0.01: round walls 1.0 → 2.5 → ... → 127 s
    (2^r) while every actual execution stayed under one second.
    Re-rooting the plan at the materialized blocks
    (``from_arrow_refs(to_arrow_refs())``) makes rounds flat
    (~0.8 s/round, 20 rounds in 16 s on the same input)."""
    return ray.data.from_arrow_refs(ds.materialize().to_arrow_refs())
