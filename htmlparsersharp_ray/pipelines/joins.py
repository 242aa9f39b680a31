"""Bucketed two-sided shuffle hash join — the first-class operator for
fact-to-fact joins where NEITHER side fits a worker (VERDICT r1 item 1:
every round-1 join broadcast the small side; this is the missing general
case).

Design (Ray-Data-native; the two-sided form of
``stages/exchange.py::bucket_group_map``, whose key hash it shares):

  1. Each side maps its batches to compact exchange rows
     (bucket, side, blob) where ``blob`` is the Arrow-IPC-serialized
     sub-table of the batch's rows hashing to that bucket. One row per
     (batch × bucket × side) — the shuffle moves O(n_buckets) binary
     blobs per batch, not per-row Python objects.
  2. A single ``groupby("bucket")`` is the only all-to-all exchange; both
     sides land in the same group.
  3. Inside each bucket group the blobs deserialize zero-parse (Arrow
     IPC), concat per side, and a C-vectorized pandas merge emits the
     joined rows.

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
import pyarrow.ipc

import ray.data

from ..stages.exchange import deserialize_table as _deserialize
from ..stages.exchange import key_hash64
from ..stages.exchange import serialize_table as _serialize
from ..stages.exchange import split_sorted as _split_sorted

_EXCHANGE_SCHEMA = pa.schema([
    ("bucket", pa.int64()),
    ("side", pa.int8()),
    ("blob", pa.large_binary()),
])

# variant → bucket perturbation for hot-key salting (odd constant so every
# variant lands in a distinct bucket stream)
_SALT_STEP = np.uint64(0x9E3779B97F4A7C15)


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
                      drop_null_keys: bool, salt: int = 1, hot_keys=None,
                      null_bucket: int | None = None):
    hot = list(hot_keys) if (hot_keys and salt > 1) else None

    def fn(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        col = batch.column(key)
        null_blob = None
        if col.null_count:
            if drop_null_keys:
                batch = batch.filter(pc.is_valid(col))
                col = batch.column(key)
            elif null_bucket is not None:
                # FULL joins keep null-key rows but they match nothing:
                # route them to a reserved one-sided bucket so the merge
                # null-fills them without any chance of NaN-matching the
                # other side's nulls (SQL NULL-join semantics).
                valid = pc.is_valid(col)
                null_blob = _serialize(batch.filter(pc.invert(valid)))
                batch = batch.filter(valid)
                col = batch.column(key)
        h = key_hash64(col)
        idx = np.arange(batch.num_rows, dtype=np.int64)
        variants = np.zeros(batch.num_rows, dtype=np.uint64)
        if hot is not None:
            keys_np = col.to_numpy(zero_copy_only=False)
            hot_mask = np.isin(keys_np, hot)
            if side == 0 and hot_mask.any():
                # fan hot left rows round-robin across salt variants
                variants[hot_mask] = (
                    np.arange(int(hot_mask.sum()), dtype=np.uint64)
                    % np.uint64(salt)
                )
            elif side == 1 and hot_mask.any():
                # replicate hot right rows into every salted variant
                extra_idx = np.tile(idx[hot_mask], salt - 1)
                extra_var = np.repeat(
                    np.arange(1, salt, dtype=np.uint64),
                    int(hot_mask.sum()),
                )
                idx = np.concatenate([idx, extra_idx])
                variants = np.concatenate([variants, extra_var])
                h = np.concatenate([h, np.tile(h[hot_mask], salt - 1)])
        buckets = ((h + variants * _SALT_STEP) % np.uint64(n_buckets)).astype(np.int64)
        order = np.argsort(buckets, kind="stable")
        uniq, blobs = _split_sorted(batch.take(pa.array(idx[order])),
                                    buckets[order])
        out_bucket = [int(b) for b in uniq]
        out_blob = list(blobs)
        if null_blob is not None:
            out_bucket.append(null_bucket)
            out_blob.append(null_blob)
        return pa.table({
            "bucket": pa.array(out_bucket, pa.int64()),
            "side": pa.array([side] * len(out_bucket), pa.int8()),
            "blob": pa.array(out_blob, pa.large_binary()),
        }, schema=_EXCHANGE_SCHEMA)

    return fn


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str,
    how: str = "inner",
    n_buckets: int | None = None,
    strict_empty_schema: bool = False,
    salt: int = 1,
    hot_keys=None,
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

    Skew: pass ``hot_keys=[...]`` + ``salt=k`` to split each hot key's
    left rows round-robin across k salted buckets while replicating the
    hot right rows into all k — the standard salted-join fix for a key
    whose left fan-in would otherwise overload one bucket. (The
    unsalted default is correct for typical key distributions;
    pre-aggregation before the join remains the first resort, see
    q_join_shuffle.)

    ``strict_empty_schema=True`` guarantees the joined column layout even
    when NO bucket holds rows from both sides, at the cost of one eager
    ``Dataset.schema()`` per input (which executes part of each input
    plan). The default first tries each input's schema WITHOUT execution
    (``schema(fetch_if_missing=False)`` — free for metadata-bearing
    inputs like fresh parquet reads) and only falls back to deriving
    layouts lazily from the exchanged blobs, where a fully disjoint
    inner join yields a zero-column empty Dataset (documented contract:
    Ray map UDFs skip the zero-column marker blocks)."""
    if how not in ("inner", "left", "full", "semi", "anti"):
        raise ValueError(
            f"unsupported how={how!r} (inner/left/full/semi/anti)")
    if salt < 1:
        raise ValueError(f"salt must be >= 1, got {salt}")
    if how == "full" and salt > 1:
        # replicated hot right rows would emit spurious right-only
        # null-filled rows in variants where they don't match
        raise ValueError("hot-key salting is not defined for FULL joins")
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
        ls = (left.schema() if (how == "full" or strict_empty_schema)
              else _free_schema(left))
    if right_schema is not None:
        rs = right_schema
    else:
        rs = (right.schema() if (how in ("left", "full") or strict_empty_schema)
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
                          salt=salt, hot_keys=hot_keys,
                          null_bucket=(-1 if how in ("full", "anti")
                                       else None)),
        batch_format="pyarrow",
    )
    rrows = right.map_batches(
        _to_exchange_rows(1, right_on, n_buckets,
                          drop_null_keys=(how != "full"),
                          salt=salt, hot_keys=hot_keys,
                          null_bucket=(-2 if how == "full" else None)),
        batch_format="pyarrow",
    )

    def merge_bucket(group: pd.DataFrame):
        lt = [_deserialize(b) for b in group[group["side"] == 0]["blob"]]
        rt = [_deserialize(b) for b in group[group["side"] == 1]["blob"]]
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
    how: str = "inner",
) -> ray.data.Dataset:
    """Map-side join against a small in-memory right side: the right table
    is ray.put ONCE and fetched once per actor; each left batch merges
    against it with no shuffle at all. The standard dimension-join shape."""
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how={how!r} (inner/left)")
    import ray as _ray

    right_ref = _ray.put(right_df.reset_index(drop=True))

    class MergeRight:
        def __init__(self):
            self.right = _ray.get(right_ref)
            if how == "left":
                # null-fill protection (CLAUDE.md): merge would promote
                # unmatched int64 right columns to float64, rounding
                # values above 2^53 — pre-cast to nullable Int64 once
                # per actor
                self.right = self.right.astype({
                    c: ("UInt64" if self.right[c].dtype.kind == "u"
                        else "Int64")
                    for c in self.right.columns
                    if self.right[c].dtype.kind in "iu"
                })

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(
                self.right, left_on=left_on, right_on=right_on, how=how
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


def _broadcast_key_filter(left: ray.data.Dataset, keys, left_on: str,
                          how: str) -> ray.data.Dataset:
    """Map-side semi/anti join: the sorted key set ships once via
    ray.put (EXISTS semantics, matching hash_join's semi/anti contract)."""
    keys_ref = ray.put(np.sort(keys))
    return left.map_batches(KeyFilter,
                            fn_constructor_args=(keys_ref, left_on,
                                                 how == "semi"),
                            batch_format="pandas", concurrency=(1, 4))


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
    return _broadcast_key_filter(left, keys, left_on, how)


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str,
    how: str = "inner",
    broadcast_threshold_bytes: int = 64 << 20,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Size-aware join planner: broadcast the right side when its size is
    KNOWN (from input metadata, without executing the plan) and under the
    threshold; otherwise run the bucketed shuffle hash join.

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
    if (how in ("inner", "left") and right_bytes is not None
            and right_bytes <= broadcast_threshold_bytes):
        return broadcast_join(left, right.to_pandas(), left_on, right_on, how)
    if (how in ("semi", "anti") and right_bytes is not None
            and right_bytes <= broadcast_threshold_bytes):
        # map-side key-membership filter: the right KEY SET ships once
        # (EXISTS semantics, matching hash_join's semi/anti contract)
        keys = (right.map_batches(
            lambda t, col=right_on: pa.table(
                {col: pc.unique(pc.drop_null(t.column(col)))}),
            batch_format="pyarrow",
        ).to_pandas()[right_on].unique())
        return _broadcast_key_filter(left, keys, left_on, how)
    # FULL joins always shuffle: a map-side broadcast can't emit the
    # right-only rows (no worker knows which right rows matched nowhere)
    return hash_join(left, right, left_on, right_on, how, n_buckets)

