"""Relational operator demos over the TPC-H-ish test tables.

The reference is a transform library with NO relational operators
(SURVEY.md §2.6) — these exist to exercise the engine-level primitives the
north_rule needs around the per-turn transform: pruned reads, vectorized
filters/projections, partial aggregation before groupby, broadcast joins,
sort/limit, distinct, windowed aggregates. Each function takes ``sf_dir``
and returns a small result; each has a matching oracle in
``__ray_entry__.oracle_sql``.

Column names are chosen to match the oracle SQL exactly (driver compares
sorted-by-name value hashes).
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min

from ..stages.exchange import bucket_group_map, key_buckets, key_hash64
from .joins import auto_buckets


def _pysum_cols(df: pd.DataFrame, cols) -> pd.DataFrame:
    """Final-merge overflow guard (ADVICE r2): convert partial-sum
    columns to Python ints (object dtype) so the driver-side merge
    accumulates with arbitrary precision — scaled revenue units run
    ~3e8/row, which would wrap a plain int64 sum near ~3e10 rows.
    Per-batch partials stay int64 (bounded by block size); only the
    tiny driver/bucket merge pays the object-dtype cost."""
    for c in cols:
        df[c] = [int(v) for v in df[c]]
    return df


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _tdiv2(v: int) -> int:
    """Halving that TRUNCATES TOWARD ZERO — the oracle mirror for
    DuckDB's ``//`` (−7 // 2 = −3 there, −4 in Python floor-div;
    ADVICE r3). Shared by the SES/Holt recurrence family so the
    truncation rule lives in exactly one place."""
    return v // 2 if v >= 0 else -((-v) // 2)


def _h2d(v: int) -> float:
    """Big-integer → double conversion MIRRORED with the oracle.

    DuckDB's ``CAST(hugeint AS DOUBLE)`` is NOT correctly rounded: it
    recombines ``(double)upper * 2^64 + (double)lower``, which double-
    rounds for negatives and for magnitudes straddling 2^64 (measured:
    ``-386318719748028000`` casts 1 ULP off Python's correctly-rounded
    ``float(int)``). Both sides therefore split ``|v| = hi*2^62 + lo``
    — each piece casts correctly-rounded (nonneg < 2^64 takes the
    exact upper==0 path in DuckDB; Python float() is always correct)
    — and recombine with the same two IEEE ops, so the two sides are
    BITWISE-EQUAL for any |v| < 2^126. The contract is the mirror,
    not correct rounding: the result equals float(v) exactly for
    |v| < 2^62 and can double-round 1 ULP off above the seam
    (hypothesis-pinned counterexample: 9074390995551966465). SQL
    mirror:
    ``sign * (CAST(ABS(m)//2^62 AS DOUBLE) * CAST(2^62 AS DOUBLE)
    + CAST(ABS(m)%2^62 AS DOUBLE))``."""
    s = -1.0 if v < 0 else 1.0
    a = abs(int(v))
    return s * (float(a >> 62) * 4611686018427387904.0
                + float(a & ((1 << 62) - 1)))


def _bitlen64(a):
    """Vectorized int bit_length over a nonneg int64 array (binary-
    search shifts; no Python loop over rows)."""
    import numpy as np

    a = np.asarray(a, dtype=np.int64)
    out = np.zeros(len(a), dtype=np.int64)
    v = a.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= (np.int64(1) << np.int64(shift))
        out[m] += shift
        v[m] >>= shift
    out += (v > 0).astype(np.int64)
    return out


def _views_and_purchases(batch: pa.Table) -> pa.Table:
    """The ``view`` and ``purchase`` rows of an events batch."""
    mask = pc.is_in(batch.column("event_type"),
                    value_set=pa.array(["view", "purchase"]))
    return batch.filter(mask)


def _view_purchase_cents(b: pd.DataFrame) -> pd.DataFrame:
    """Per-batch histogram of event ``value`` in integer cents:
    ``(v, d1, d2)`` = view and purchase counts at cent value ``v``."""
    import numpy as np

    t = b["event_type"].to_numpy()
    m = (t == "view") | (t == "purchase")
    v = np.round(b["value"].to_numpy()[m] * 100).astype(np.int64)
    is1 = (t[m] == "view").astype(np.int64)
    return (pd.DataFrame({"v": v, "d1": is1, "d2": 1 - is1})
            .groupby("v", as_index=False)
            .agg(d1=("d1", "sum"), d2=("d2", "sum")))


def _quantile_cont(v, q: float) -> float:
    """DuckDB ``quantile_cont`` over the sorted array ``v``: position
    h = q·(n−1), result v[⌊h⌋]·(1−frac) + v[⌈h⌉]·frac."""
    import math

    n = len(v)
    h = q * (n - 1)
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return float(v[lo] * (1 - frac) + v[hi] * frac)


def _high_bits(col: str, shift: int):
    """``bucket_of`` for the sort-free rank scans: the high bits of the
    int64 column ``col``. Buckets are globally ordered (an arithmetic
    shift keeps order for negatives too), so each bucket's global rank
    offset is the row count of the lower buckets."""
    import numpy as np

    def bucket_of(t: pa.Table):
        return t.column(col).to_numpy(zero_copy_only=False) >> np.int64(shift)

    return bucket_of


def q_lineitem_agg(sf_dir: str):
    """TPC-H Q1 shape: grouped aggregate with a computed revenue column.

    Float sums are order-sensitive, so Ray's tree reduction over doubles can
    never bit-match DuckDB's sequential accumulation (round-1 hash FAIL).
    Fix: the money/quantity columns are fixed-point 2-decimal values (TPC-H
    semantics: DECIMAL, not DOUBLE), so aggregate EXACTLY in scaled int64
    (cents; revenue in 1e-4 units) — integer sums commute and associate, so
    ANY reduction order gives identical bits — then divide once at the end.
    PER-BATCH partials stay int64 (a block's sum is bounded far below
    2^63); the FINAL driver-side merge accumulates in Python ints via
    :func:`_pysum_cols`, so even group totals past ~3e10 rows (where
    rev_u ≈ 3e8/row would wrap int64 — ADVICE r2) stay exact. The oracle
    casts to DECIMAL (hugeint accumulation), the same exact arithmetic.
    Each batch pre-aggregates to ≤6 partial rows inside map_batches; the
    read is pruned to the 5 needed columns."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        """Per-batch partial aggregate in exact cents: the whole batch
        collapses to ≤6 rows before any exchange (Ray's own
        groupby().aggregate() sort-shuffles every row — measured 9.7 s
        for 150k rows; this path merges n_blocks×6 partial rows)."""
        def cents(col):
            return pc.cast(pc.round(pc.multiply(batch.column(col), pa.scalar(100.0))), pa.int64())

        qty_c, price_c, disc_c = cents("l_quantity"), cents("l_extendedprice"), cents("l_discount")
        rev_u = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        t = pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "qty_c": qty_c, "price_c": price_c, "disc_c": disc_c, "rev_u": rev_u,
        }).to_pandas()
        g = t.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            qty_c=("qty_c", "sum"), price_c=("price_c", "sum"),
            rev_u=("rev_u", "sum"), disc_c=("disc_c", "sum"),
            count_order=("qty_c", "count"),
        )
        return g

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = _pysum_cols(parts, ["qty_c", "price_c", "rev_u", "disc_c"])
    df = (
        parts.groupby(["l_returnflag", "l_linestatus"], as_index=False)
        .agg(qty_c=("qty_c", "sum"), price_c=("price_c", "sum"),
             rev_u=("rev_u", "sum"), disc_c=("disc_c", "sum"),
             count_order=("count_order", "sum"))
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    df["count_order"] = df["count_order"].astype("int64")
    df["sum_qty"] = df.pop("qty_c") / 100.0
    df["sum_base_price"] = df.pop("price_c") / 100.0
    df["sum_revenue"] = df.pop("rev_u") / 10000.0
    df["avg_disc"] = (df.pop("disc_c") / 100.0) / df["count_order"]
    return df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
               "sum_revenue", "avg_disc", "count_order"]]


def q_filter_project(sf_dir: str):
    """Pruned read + vectorized filter + projection (no shuffle)."""
    cutoff = pd.Timestamp("1995-06-01")
    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_shipdate", "l_quantity"],
    )

    def f(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(batch.column("l_shipdate"), pa.scalar(cutoff)),
            pc.greater(batch.column("l_quantity"), pa.scalar(40.0)),
        )
        t = batch.filter(mask)
        return t.select(["l_orderkey", "l_linenumber", "l_quantity"])

    return ds.map_batches(f, batch_format="pyarrow")


def q_orders_topk(sf_dir: str):
    """Top-k WITHOUT a global sort: per-batch partial top-10, then one tiny
    merge of n_blocks*10 candidate rows. An all-to-all sort for a top-10 is
    the classic scale bug (VERDICT r1); the candidate set here is O(blocks),
    not O(rows). Deterministic tie-break on o_orderkey."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice", "o_orderdate"]
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            batch,
            sort_keys=[("o_totalprice", "descending"), ("o_orderkey", "ascending")],
        )
        return batch.take(idx.slice(0, 10))

    cand = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    out = cand.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).head(10)
    return out.reset_index(drop=True)


def q_join_broadcast(sf_dir: str,
                     broadcast_threshold_bytes: int = 64 << 20):
    """Orders ⋈ customer with the small side broadcast via ray.put — the
    scale pattern for dimension joins (no shuffle; ray_guide joins).

    Honest at scale (VERDICT r3 item 7): the broadcast is gated on the
    dimension's parquet-metadata size — beyond the 64 MB dimension
    budget (or when the size is unknowable) the query degrades to the
    bucketed shuffle hash join instead of shipping a multi-GB Python
    dict to every actor. Both paths feed the same per-batch exact-cents
    partial aggregation."""
    cust_ds = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )
    try:
        cust_bytes = cust_ds.size_bytes()
    except Exception:
        cust_bytes = None

    def agg_segment(batch: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        batch["tp_cents"] = np.round(
            batch["o_totalprice"].to_numpy() * 100
        ).astype("int64")
        return batch.groupby("c_mktsegment", as_index=False).agg(
            tp_cents=("tp_cents", "sum"), n_orders=("tp_cents", "count")
        )

    # Exact fixed-point sums (cents, int64) pre-aggregated PER BATCH inside
    # the map — integer sums are order-insensitive, so merging the tiny
    # per-batch partials in any order is bit-deterministic. Ray's own
    # groupby().aggregate() sort-shuffles every row (measured 9.7 s for
    # 150k rows / 5 groups); the partials merge is n_blocks×5 rows.
    if cust_bytes is not None and cust_bytes <= broadcast_threshold_bytes:
        cust = cust_ds.to_pandas()
        lookup_ref = ray.put(dict(zip(cust["c_custkey"],
                                      cust["c_mktsegment"])))

        class JoinSegment:
            def __init__(self):
                self.lookup = ray.get(lookup_ref)

            def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
                batch["c_mktsegment"] = batch["o_custkey"].map(self.lookup)
                return agg_segment(batch)

        parts = (
            ds.map_batches(JoinSegment, batch_format="pandas",
                           concurrency=(1, 2))
            .to_pandas()
        )
    else:
        from .joins import hash_join

        parts = (
            hash_join(ds, cust_ds, "o_custkey", "c_custkey", "inner")
            .map_batches(agg_segment, batch_format="pandas")
            .to_pandas()
        )
    parts = _pysum_cols(parts, ["tp_cents"])
    df = (
        parts.groupby("c_mktsegment", as_index=False)
        .agg(tp_cents=("tp_cents", "sum"), n_orders=("n_orders", "sum"))
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    df["n_orders"] = df["n_orders"].astype("int64")
    df["total_price"] = df.pop("tp_cents") / 100.0
    return df[["c_mktsegment", "total_price", "n_orders"]]


def q_join_nation_region(sf_dir: str):
    """Two-level broadcast join: nation → region name, counted."""
    region = ray.data.read_parquet(_t(sf_dir, "region")).to_pandas()
    rmap_ref = ray.put(dict(zip(region["r_regionkey"], region["r_name"])))

    class AddRegion:
        def __init__(self):
            self.rmap = ray.get(rmap_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            batch["r_name"] = batch["n_regionkey"].map(self.rmap)
            return batch[["n_name", "r_name"]]

    ds = ray.data.read_parquet(_t(sf_dir, "nation"))
    out = (
        ds.map_batches(AddRegion, batch_format="pandas", concurrency=1)
        .groupby("r_name")
        .aggregate(Count(alias_name="n_nations"))
    )
    df = out.to_pandas().sort_values("r_name").reset_index(drop=True)
    df["n_nations"] = df["n_nations"].astype("int64")
    return df


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window aggregate per event_type — the stream-shaped
    operator expressed as a grouped aggregate over a derived window key
    (ray_guide: streaming-shaped workloads)."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )

    def add_window(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        value_c = pc.cast(
            pc.round(pc.multiply(batch.column("value"), pa.scalar(100.0))), pa.int64()
        )
        return pa.table({
            "event_type": batch.column("event_type"),
            "window_start": hour,
            "value_c": value_c,
        })

    # Exact fixed-point sums (cents) pre-aggregated per batch — order-
    # independent, so merging the per-batch partials is bit-deterministic
    # (and skips Ray's row-level sort aggregate; see q_lineitem_agg).
    def partial(batch: pa.Table) -> pd.DataFrame:
        t = add_window(batch).to_pandas()
        return t.groupby(["event_type", "window_start"], as_index=False).agg(
            value_c=("value_c", "sum"), n_events=("value_c", "count")
        )

    parts = (
        ds.map_batches(lambda b: partial(b), batch_format="pyarrow").to_pandas()
    )
    parts = _pysum_cols(parts, ["value_c"])
    df = (
        parts.groupby(["event_type", "window_start"], as_index=False)
        .agg(value_c=("value_c", "sum"), n_events=("n_events", "sum"))
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    df["n_events"] = df["n_events"].astype("int64")
    df["sum_value"] = df.pop("value_c") / 100.0
    return df[["event_type", "window_start", "sum_value", "n_events"]]


def q_distinct(sf_dir: str):
    """Distinct values (shuffle-light: tiny cardinality)."""
    ds = ray.data.read_parquet(_t(sf_dir, "events"), columns=["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pd.DataFrame({"event_type": vals})


def q_union_limit(sf_dir: str):
    """Union + count: supplier ∪ customer keys as a single id column."""
    sup = ray.data.read_parquet(_t(sf_dir, "supplier"), columns=["s_suppkey"])
    cust = ray.data.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey"])
    sup = sup.map_batches(
        lambda t: pa.table({"key": t.column("s_suppkey")}), batch_format="pyarrow"
    )
    cust = cust.map_batches(
        lambda t: pa.table({"key": t.column("c_custkey")}), batch_format="pyarrow"
    )
    n = sup.union(cust).count()
    return pd.DataFrame({"n_keys": [n]})


def q_part_stats(sf_dir: str):
    """Per-brand part statistics (min/max/mean)."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_brand", "p_retailprice", "p_size"]
    )
    out = ds.groupby("p_brand").aggregate(
        Min("p_retailprice", alias_name="min_price"),
        Max("p_retailprice", alias_name="max_price"),
        Mean("p_size", alias_name="avg_size"),
        Count(alias_name="n_parts"),
    )
    df = out.to_pandas().sort_values("p_brand").reset_index(drop=True)
    df["n_parts"] = df["n_parts"].astype("int64")
    return df


def q_join_left(sf_dir: str):
    """LEFT OUTER join through the bucketed shuffle hash join: every
    customer survives; customers with no orders get n_orders = 0 (the
    null-fill path — SQL null semantics are pytest-gated in
    test_joins). The right side pre-aggregates order counts per
    customer (per-batch partials, then ONE bounded-bucket merge) so the
    join input is customer-grained; count merges stay int64-exact (a
    per-customer order count can't approach the wrap point)."""

    from .joins import hash_join

    cust = ray.data.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("o_custkey", as_index=False).agg(cnt=("o_custkey", "count"))

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("o_custkey", as_index=False)["cnt"].sum()
        out["cnt"] = out["cnt"].astype("int64")
        return out

    counts = bucket_group_map(
        ray.data.read_parquet(_t(sf_dir, "orders"), columns=["o_custkey"])
        .map_batches(partial, batch_format="pandas"),
        key_buckets("o_custkey", 64), merge_counts,
    )
    joined = hash_join(
        cust, counts, "c_custkey", "o_custkey", how="left",
        # known layout of the counts side — skips the eager schema()
        # that would otherwise execute the counts sub-plan twice
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("cnt", pa.int64())]),
    )
    df = joined.to_pandas()
    df["n_orders"] = df["cnt"].fillna(0).astype("int64")
    return (
        df[["c_custkey", "n_orders"]]
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )


def q_events_running_total(sf_dir: str):
    """ORDER-BY window function: per-user running sum of value in
    event-time order — the row-windowed aggregate beside the tumbling
    (q_events_window) and session (q_events_sessions) windows.

    Scale shape: users bucketize by hash (bounded group count, the
    repo-standard move); inside each bucket ONE vectorized pandas
    sort + per-user cumsum computes every user's window. Exact int64
    cents accumulate the running sum, so the result bit-matches the
    DECIMAL-window oracle."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    )

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        cents = np.round(g["value"].to_numpy() * 100).astype("int64")
        g["run_total"] = (
            pd.Series(cents, index=g.index).groupby(g["user_id"]).cumsum()
            / 100.0
        )
        return g[["user_id", "event_id", "run_total"]]

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), running
    ).to_pandas()
    return (
        out.sort_values(["user_id", "event_id"])
        .reset_index(drop=True)
    )


def q_orders_semi(sf_dir: str,
                  broadcast_threshold_bytes: int = 64 << 20):
    """SEMI-join (EXISTS): orders whose customer is in the BUILDING
    segment, as a global exact-cents aggregate (1 row). Size-aware
    since round 4 (the VERDICT r3 item-2 pattern): the broadcast key
    set is gated on the BASE customer table's parquet-metadata size (an
    upper bound on the filtered side, which loses metadata through the
    filter) — under the 64 MB dimension cap the sorted key array ships
    once via ray.put, beyond it the query degrades to the bucketed
    shuffle semi-join. No driver-built array grows unboundedly."""
    import numpy as np

    cust_ds = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    building = cust_ds.map_batches(
        lambda t: t.filter(
            pc.equal(t.column("c_mktsegment"), "BUILDING")
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )
    try:
        cust_bytes = cust_ds.size_bytes()
    except Exception:
        cust_bytes = None

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        tp_c = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({"tp_cents": [int(tp_c.sum())],
                             "n_orders": [int(len(b))]})

    if (cust_bytes is not None
            and cust_bytes <= broadcast_threshold_bytes):
        keys = np.sort(building.to_pandas()["c_custkey"].to_numpy())
        keys_ref = ray.put(keys)

        class SemiFilter:
            def __init__(self):
                self.keys = ray.get(keys_ref)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                return partial(
                    b[np.isin(b["o_custkey"].to_numpy(), self.keys)])

        filtered = orders.map_batches(SemiFilter, batch_format="pandas",
                                      concurrency=(1, 2))
    else:
        from .joins import hash_join

        filtered = hash_join(
            orders, building, "o_custkey", "c_custkey", "semi"
        ).map_batches(partial, batch_format="pandas")
    parts = filtered.to_pandas()
    total = sum(int(v) for v in parts["tp_cents"])  # Python-int merge
    return pd.DataFrame({
        "n_orders": [int(parts["n_orders"].sum())],
        "total_price": [total / 100.0],
    })


def q_part_quantiles(sf_dir: str):
    """Exact grouped PERCENTILES (p25/median/p90 of retail price per
    brand): discrete quantiles pick real elements (sorted[ceil(q·n)−1],
    DuckDB quantile_disc semantics), so the result is hash-exact with
    no float accumulation at all. The grouping key is low-cardinality
    (25 brands), so a direct groupby is shuffle-cheap and each group's
    sort fits a worker; a 100-TB quantile over a HIGH-cardinality or
    giant group would swap in a mergeable sketch (the HLL pattern,
    stages/sketches.py) at some accuracy cost."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_brand", "p_retailprice"]
    )

    def qtile(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["p_retailprice"].to_numpy())
        n = len(v)

        def pick(q):
            return float(v[max(0, math.ceil(q * n) - 1)])

        return pd.DataFrame({
            "p_brand": [g["p_brand"].iloc[0]],
            "p25": [pick(0.25)],
            "median": [pick(0.5)],
            "p90": [pick(0.9)],
            "n_parts": [n],
        })

    out = ds.groupby("p_brand").map_groups(qtile, batch_format="pandas")
    df = out.to_pandas().sort_values("p_brand").reset_index(drop=True)
    df["n_parts"] = df["n_parts"].astype("int64")
    return df


def q_events_sessions(sf_dir: str):
    """Session windows (30-min inactivity gap) per user — the stream-shaped
    custom operator: partition by key, order by time inside the group, and
    segment on gaps (ray_guide: streaming-shaped workloads; SURVEY.md §2
    custom operators). Deterministic tie-break on (ts, event_id).

    Shuffle discipline: users bucket by key hash
    (``bucket_group_map`` + ``key_buckets``; Ray's per-group overhead
    makes per-USER groups a scale bug — ~1 ms/group);
    inside a bucket the whole segmentation is vectorized pandas (sort,
    diff, cumsum, grouped agg — all C loops over every user at once)."""
    import numpy as np

    gap = pd.Timedelta(minutes=30)
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    )
    # auto-size like hash_join: bucket working set ≤ a worker heap
    # (NOTES_r3 round-4 lead 4), from file metadata only
    n_buckets = auto_buckets(ds)

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"])
        user_changed = g["user_id"].ne(g["user_id"].shift())
        new_session = user_changed | (g["ts"].diff() > gap)
        g["session_no"] = new_session.cumsum()  # globally unique in bucket
        # exact cents sum => bit-deterministic (see q_lineitem_agg)
        g["value_c"] = np.round(g["value"].to_numpy() * 100).astype("int64")
        out = (
            g.groupby("session_no")
            .agg(
                user_id=("user_id", "first"),
                session_start=("ts", "min"),
                n_events=("event_id", "count"),
                value_c=("value_c", "sum"),
            )
            .reset_index(drop=True)
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = out.pop("value_c") / 100.0
        return out[["user_id", "session_start", "n_events", "sum_value"]]

    out = bucket_group_map(ds, key_buckets("user_id", n_buckets), sessions)
    return (
        out.to_pandas()
        .sort_values(["user_id", "session_start"])
        .reset_index(drop=True)
    )


def q_topk_per_group(sf_dir: str):
    """Grouped top-k: 3 highest-value orders per market segment.

    The customer dimension attaches through the size-aware join planner
    (VERDICT r3 item 2: broadcast under 64 MB of parquet metadata,
    bucketed shuffle join above — never a driver-built Python dict that
    grows with scale).  Top-k itself is a SELECTION, so it reduces
    map-side: each batch keeps its own top-3 per segment (≤15 rows out
    per block for the 5-segment domain), and the driver merges the tiny
    partials — no all-orders-into-5-groups shuffle, no skew."""
    from .joins import join

    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )

    def partial_topk(b: pd.DataFrame) -> pd.DataFrame:
        g = b.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        )
        return g.groupby("c_mktsegment", as_index=False, sort=False).head(3)[
            ["c_mktsegment", "o_orderkey", "o_totalprice"]
        ]

    parts = (
        join(orders, cust, "o_custkey", "c_custkey")
        .map_batches(partial_topk, batch_format="pandas")
        .to_pandas()
    )
    out = (
        parts.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        )
        .groupby("c_mktsegment", as_index=False, sort=False)
        .head(3)
    )
    out = out.sort_values(
        ["c_mktsegment", "o_totalprice", "o_orderkey"],
        ascending=[True, False, True],
    ).reset_index(drop=True)
    out["rank"] = (out.groupby("c_mktsegment").cumcount() + 1).astype("int64")
    return out


def q_order_revenue_top10(sf_dir: str):
    """TPC-H Q3 shape: revenue per order, top 10 by revenue.

    High-cardinality aggregate done scale-correctly: (1) per-batch partial
    sums in EXACT scaled int64 (1e-4 currency units — order-insensitive, so
    parallel merges can't perturb bits; see q_lineitem_agg), (2) a bucketed
    parallel merge (``bucket_group_map`` on the order-key hash, per-bucket
    final sum + partial top-10), (3) one tiny driver-side merge of n_buckets*10
    candidates. Replaces round-1's single-task ``repartition(1)`` merge
    (VERDICT item 7). Ray's groupby().aggregate() costs ~1 ms PER GROUP
    (measured 16 s for 15k groups) — hence pandas partials, not Ray Sum.
    Order dates are fetched with a pushed-down filter on the final 10 keys
    only; orders is never materialized on the driver."""
    import numpy as np

    n_buckets = 16
    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        g = pd.DataFrame(
            {"l_orderkey": b["l_orderkey"], "rev_u": pr_c * (100 - di_c)}
        ).groupby("l_orderkey", as_index=False)["rev_u"].sum()
        return g

    def bucket_merge(g: pd.DataFrame) -> pd.DataFrame:
        # int64 is exact here: the sum is PER ORDER (TPC-H fan-in ~7
        # lineitems), orders of magnitude below the int64 wrap point —
        # unlike the global/group merges, which use _pysum_cols
        m = g.groupby("l_orderkey", as_index=False)["rev_u"].sum()
        m["revenue"] = m.pop("rev_u") / 10000.0
        return m.sort_values(
            ["revenue", "l_orderkey"], ascending=[False, True]
        ).head(10)

    cand = bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("l_orderkey", n_buckets), bucket_merge,
    ).to_pandas()
    out = (
        cand.sort_values(["revenue", "l_orderkey"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )

    import pyarrow.dataset as pads

    keys = out["l_orderkey"].tolist()
    dates = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate"],
        filter=pads.field("o_orderkey").isin(keys),
    ).to_pandas()
    out["o_orderdate"] = out["l_orderkey"].map(
        dict(zip(dates["o_orderkey"], dates["o_orderdate"]))
    )
    return out[["l_orderkey", "revenue", "o_orderdate"]]

def q_join_shuffle(sf_dir: str):
    """TPC-H Q3 proper: customer ⋈ orders ⋈ lineitem with NO broadcast —
    both joins are the bucketed two-sided shuffle hash join (pipelines/
    joins.py), the engine's fact-to-fact join (VERDICT r1 item 5).

    Scale shape: lineitem pre-aggregates revenue per order INSIDE
    map_batches (exact scaled-int64 cents — see q_lineitem_agg) before
    entering the join, so the join input is orders-sized, not
    lineitem-sized; the final per-order aggregate is a bucketed parallel
    merge + per-bucket top-10 with one tiny driver-side candidate merge."""
    import numpy as np

    from .joins import hash_join

    cutoff = pd.Timestamp("1995-03-15")

    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda t: t.filter(
            pc.equal(t.column("c_mktsegment"), pa.scalar("BUILDING"))
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )

    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda t: t.filter(pc.less(t.column("o_orderdate"), pa.scalar(cutoff))),
        batch_format="pyarrow",
    )

    building_orders = hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey"
    ).map_batches(
        lambda df: df[["o_orderkey", "o_orderdate", "o_orderpriority"]],
        batch_format="pandas",
    ).repartition(8)  # join emits one small block per bucket; coalesce so
    #                   the next exchange doesn't schedule 64 tiny tasks

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] > cutoff]
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        return pd.DataFrame(
            {"l_orderkey": b["l_orderkey"], "rev_u": pr_c * (100 - di_c)}
        ).groupby("l_orderkey", as_index=False)["rev_u"].sum()

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(li_partial, batch_format="pandas")

    joined = hash_join(
        li, building_orders, left_on="l_orderkey", right_on="o_orderkey"
    )

    def bucket_merge(g: pd.DataFrame) -> pd.DataFrame:
        # per-order sum: bounded fan-in, int64-exact (see
        # q_order_revenue_top10.bucket_merge)
        m = g.groupby(
            ["l_orderkey", "o_orderdate", "o_orderpriority"], as_index=False
        )["rev_u"].sum()
        m["revenue"] = m.pop("rev_u") / 10000.0
        return m.sort_values(
            ["revenue", "l_orderkey"], ascending=[False, True]
        ).head(10)

    cand = bucket_group_map(
        joined, key_buckets("l_orderkey", 16), bucket_merge
    ).to_pandas()
    out = (
        cand.sort_values(["revenue", "l_orderkey"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    return out[["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]

def q_lineitem_global_agg(sf_dir: str):
    """TPC-H Q6 shape: filtered GLOBAL scalar aggregate (no grouping).
    Exact scaled-int64 revenue (see q_lineitem_agg) collapses to ONE
    partial row per block; the driver merges the partials in Python
    ints (arbitrary precision — a global 1e-4-unit revenue sum is the
    first place a plain int64 reduction would wrap at extreme scale,
    ADVICE r2). One row out."""
    import numpy as np

    cutoff = pd.Timestamp("1995-01-01")
    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= cutoff) & (b["l_quantity"] < 24.0)
              & (b["l_discount"] >= 0.05)]
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({
            "rev_u": [int((pr_c * di_c).sum())],
            "n_rows": [int(len(b))],
        })

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    rev_u = sum(int(v) for v in parts["rev_u"])  # Python-int accumulation
    n = int(parts["n_rows"].sum())
    return pd.DataFrame({"revenue": [rev_u / 10000.0], "n_rows": [n]})


def q_events_asof(sf_dir: str):
    """AS-OF join (events ⋈ most-recent-prior event): for each 'purchase'
    event, the latest 'view' event of the same user strictly before it
    (strict on the (ts, event_id) tuple, so equal-timestamp ties are
    unambiguous — ASOF-join tie semantics vary by engine, the tuple order
    doesn't). The operator Ray Data lacks natively, built as the
    documented composition (SURVEY.md §2 custom operators): bucket by
    user-hash (bounded group count), sort inside the bucket, and a
    vectorized last-non-null scan — shift(1)+ffill over the sorted frame
    gives "latest view before this row" with NO per-row or per-user
    Python loop; a parallel ffill of the source user/ts validates
    cross-user fills. Partitioning assumption: one user's events fit a
    bucket worker (same as q_events_sessions)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "ts"]
    )

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        is_view = (g["event_type"] == "view").to_numpy()
        # view event id / user / ts where the row is a view, else NaN;
        # shift(1)+ffill = latest view STRICTLY before each row
        vid = pd.Series(np.where(is_view, g["event_id"], np.nan))
        vus = pd.Series(np.where(is_view, g["user_id"], np.nan))
        vts = pd.Series(
            g["ts"].where(pd.Series(is_view, index=g.index))
        )
        prev_id = vid.shift(1).ffill()
        prev_us = vus.shift(1).ffill()
        prev_ts = vts.shift(1).ffill()
        valid = prev_us.to_numpy() == g["user_id"].to_numpy()  # NaN != x
        keep = (g["event_type"] == "purchase").to_numpy()
        out = pd.DataFrame({
            "event_id": g.loc[keep, "event_id"].to_numpy(),
            "user_id": g.loc[keep, "user_id"].to_numpy(),
        })
        pid = np.where(valid, prev_id.to_numpy(), -1.0)[keep]
        out["view_event_id"] = pid.astype("int64")
        gap = (
            g["ts"].astype("int64").to_numpy()
            - prev_ts.astype("int64").to_numpy()  # NaT -> iNaT, masked next
        )
        out["gap_us"] = np.where(valid, gap, -1)[keep].astype("int64")
        return out

    out = bucket_group_map(
        ds.map_batches(_views_and_purchases, batch_format="pyarrow"),
        key_buckets("user_id", auto_buckets(ds)), asof,
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_events_lag(sf_dir: str):
    """LAG window function: per-event gap (µs, exact int64 — no float
    time math) since the same user's previous event, -1 for each user's
    first. Same bucket-then-vectorize shape as q_events_running_total;
    the lag itself is one shift(1) over the sorted bucket with a
    user-boundary mask."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def lag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        ts_us = g["ts"].astype("int64").to_numpy()
        same_user = g["user_id"].to_numpy() == np.roll(g["user_id"].to_numpy(), 1)
        same_user[0] = False
        gap = ts_us - np.roll(ts_us, 1)
        g["gap_us"] = np.where(same_user, gap, -1).astype("int64")
        return g[["event_id", "user_id", "gap_us"]]

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), lag
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_event_user_distinct(sf_dir: str):
    """EXACT grouped COUNT(DISTINCT): distinct users per event type —
    the exact companion to the HLL sketch (events_user_hll). Scale
    shape: each batch first collapses to its distinct (type, user)
    pairs, the bucketed merge dedups pairs bucketed by USER hash (so
    one group never sees more than users/64 — a hot event_type cannot
    skew a bucket), and per-bucket distinct counts sum to the answer
    because user-buckets partition the pair space."""

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        out = d.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "count")
        )
        return out

    parts = bucket_group_map(
        ds.map_batches(lambda b: b.drop_duplicates(), batch_format="pandas"),
        key_buckets("user_id", auto_buckets(ds)), bucket_count,
    ).to_pandas()
    df = (
        parts.groupby("event_type", as_index=False)["n_users"].sum()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    df["n_users"] = df["n_users"].astype("int64")
    return df


def q_lineitem_rollup(sf_dir: str):
    """GROUP BY ROLLUP (flag, status): the hierarchical-totals aggregate.
    Scale shape: ONE pass computes the finest-grain exact-cents partials
    (≤6 rows per batch, as q_lineitem_agg); the two super-aggregate
    levels are derived from the merged leaf rows on the driver — O(groups)
    work, never a second scan. 'ALL' marks rolled-up levels (the data's
    own values are never NULL, so the label is unambiguous)."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        qty_c = pc.cast(
            pc.round(pc.multiply(batch.column("l_quantity"), pa.scalar(100.0))),
            pa.int64(),
        )
        t = pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "qty_c": qty_c,
        }).to_pandas()
        return t.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            qty_c=("qty_c", "sum"), n_rows=("qty_c", "count")
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = _pysum_cols(parts, ["qty_c"])
    leaf = parts.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
        qty_c=("qty_c", "sum"), n_rows=("n_rows", "sum")
    )
    lvl1 = leaf.groupby("l_returnflag", as_index=False).agg(
        qty_c=("qty_c", "sum"), n_rows=("n_rows", "sum")
    )
    lvl1["l_linestatus"] = "ALL"
    total = pd.DataFrame({
        "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
        "qty_c": [int(leaf["qty_c"].sum())],
        "n_rows": [int(leaf["n_rows"].sum())],
    })
    df = pd.concat([leaf, lvl1, total], ignore_index=True)
    df["n_rows"] = df["n_rows"].astype("int64")
    df["sum_qty"] = [int(v) / 100.0 for v in df.pop("qty_c")]
    return (
        df[["l_returnflag", "l_linestatus", "sum_qty", "n_rows"]]
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )


def q_segment_status_pivot(sf_dir: str):
    """PIVOT: order counts per market segment spread across order-status
    columns.  The customer dimension attaches through the size-aware join
    planner (VERDICT r3 item 2) — broadcast only while parquet metadata
    proves it under 64 MB, bucketed shuffle hash join beyond that, so the
    dimension is never a Python dict that grows with scale.  Per-batch
    2-D count partials (segment × status is a tiny fixed grid, so every
    batch collapses to ≤15 rows before the exchange); the driver pivots
    the merged grid — columns come from the fixed status domain, not from
    data discovery, so the output schema is stable at any scale."""
    from .joins import join

    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderstatus"]
    )

    def count_grid(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(
            ["c_mktsegment", "o_orderstatus"], as_index=False
        ).agg(n=("o_orderstatus", "count"))

    parts = (
        join(orders, cust, "o_custkey", "c_custkey")
        .map_batches(count_grid, batch_format="pandas")
        .to_pandas()
    )
    grid = parts.groupby(
        ["c_mktsegment", "o_orderstatus"], as_index=False
    )["n"].sum()
    wide = grid.pivot_table(
        index="c_mktsegment", columns="o_orderstatus", values="n",
        aggfunc="sum", fill_value=0,
    )
    df = pd.DataFrame({"c_mktsegment": wide.index})
    for status in ("F", "O", "P"):  # fixed domain: stable schema
        col = wide[status].to_numpy() if status in wide.columns else 0
        df[f"n_{status.lower()}"] = pd.Series(col).astype("int64")
    df["n_orders"] = (df["n_f"] + df["n_o"] + df["n_p"]).astype("int64")
    return df.sort_values("c_mktsegment").reset_index(drop=True)


def q_customer_anti(sf_dir: str,
                    broadcast_threshold_bytes: int = 64 << 20):
    """ANTI-join (NOT EXISTS): customers with no order since 2000-01-01.
    The active-customer key set builds distributedly (per-batch unique
    partials — bounded by |customer|, not |orders|) and attaches via the
    gated key-set filter (round 4, the VERDICT r3 item-2 pattern):
    broadcast while the CUSTOMER base table's parquet metadata — the
    upper bound on the key-set size — stays under the 64 MB cap,
    bucketed shuffle anti-join beyond. The mirror of q_orders_semi."""
    from .joins import gated_keyset_filter

    cutoff = pd.Timestamp("2000-01-01")

    def active_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater_equal(b.column("o_orderdate"), pa.scalar(cutoff)))
        keys = pc.unique(t.column("o_custkey"))
        return pa.table({"o_custkey": keys})

    active = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"]
    ).map_batches(active_partial, batch_format="pyarrow")
    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_acctbal"]
    )
    out = gated_keyset_filter(
        cust, active, "c_custkey", "o_custkey", how="anti",
        size_hint_ds=cust,
        broadcast_threshold_bytes=broadcast_threshold_bytes,
    ).to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_docs_sample(sf_dir: str):
    """Deterministic content-hash sampling (the reproducible-split op a
    training-data pipeline needs): keep documents whose md5(text) starts
    with hex 0 or 1 (≈12.5% sample). Pure per-batch filter — no shuffle,
    no RNG; the same rows come back at any parallelism, and DuckDB's md5
    computes the identical predicate."""
    import hashlib

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def keep(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        mask = pa.array(
            [hashlib.md5((t or "").encode()).hexdigest()[0] in "01"
             for t in texts],
            pa.bool_(),
        )
        return batch.filter(mask).select(["doc_id"])

    df = docs.map_batches(keep, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_docs_stratified_sample(sf_dir: str):
    """STRATIFIED deterministic sampling: per-stratum rates (majority
    'en' at 1/16, every other lang at 4/16) via the same content-hash
    predicate as q_docs_sample — rebalancing a skewed corpus without RNG
    or shuffle. Still a pure per-batch filter: the stratum column rides
    in the row, so rates apply locally and reproduce at any parallelism
    (and in DuckDB, which is the oracle)."""
    import hashlib

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "lang", "text"]
    )

    def keep(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        mask = pa.array(
            [
                hashlib.md5((t or "").encode()).hexdigest()[0]
                in ("0" if lang == "en" else "0123")
                for t, lang in zip(texts, langs)
            ],
            pa.bool_(),
        )
        return batch.filter(mask).select(["doc_id", "lang"])

    df = docs.map_batches(keep, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)

def q_events_rank(sf_dir: str):
    """RANK / DENSE_RANK / ROW_NUMBER per user by value (desc) — the
    ranking-window family, same bucket-then-vectorize shape as
    q_events_lag: user-hash buckets auto-sized from file metadata, then
    ONE pandas sort + grouped rank/cumcount over the whole bucket (C
    kernels over every user at once — never a per-user group). Ties in
    the raw double `value` share rank/dense_rank exactly as SQL does;
    row_number breaks them on event_id."""

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "value", "event_id"], ascending=[True, False, True]
        ).reset_index(drop=True)
        by_user = g.groupby("user_id", sort=False)
        g["rn"] = (by_user.cumcount() + 1).astype("int64")
        g["rnk"] = by_user["value"].rank(
            method="min", ascending=False).astype("int64")
        g["drnk"] = by_user["value"].rank(
            method="dense", ascending=False).astype("int64")
        return g[["event_id", "user_id", "rn", "rnk", "drnk"]]

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), ranks).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_part_band_join(sf_dir: str):
    """BROADCAST RANGE JOIN: price-band lookup via np.searchsorted on the
    broadcast band edges — the interval-join primitive (each row finds
    its [lo, hi) band in O(log bands), vectorized over the batch; no
    shuffle, the band table rides in the closure like any broadcast
    side). Per-batch partial aggregation in exact cents collapses each
    batch to ≤n_bands rows before the tiny driver merge. Rows outside
    every band drop (inner-join semantics), matching the SQL BETWEEN
    join."""
    import numpy as np

    edges = np.array([900.0, 920.0, 940.0, 960.0, 980.0, 1000.0])
    band_lo = np.array([900, 920, 940, 960, 980], dtype=np.int64)
    ds = ray.data.read_parquet(_t(sf_dir, "part"), columns=["p_retailprice"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        price = batch.column("p_retailprice").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(edges, price, side="right") - 1
        keep = (idx >= 0) & (idx < len(band_lo)) & (price < edges[-1])
        idx, price = idx[keep], price[keep]
        cents = np.round(price * 100).astype("int64")
        t = pd.DataFrame({"band_lo": band_lo[idx], "cents": cents})
        g = t.groupby("band_lo", as_index=False).agg(
            n_parts=("cents", "count"), cents=("cents", "sum")
        )
        return g

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = _pysum_cols(parts, ["cents"])
    df = (
        parts.groupby("band_lo", as_index=False)
        .agg(n_parts=("n_parts", "sum"), cents=("cents", "sum"))
        .sort_values("band_lo")
        .reset_index(drop=True)
    )
    df["n_parts"] = df["n_parts"].astype("int64")
    df["sum_price"] = df.pop("cents") / 100.0
    return df[["band_lo", "n_parts", "sum_price"]]


def q_customer_cube(sf_dir: str):
    """GROUP BY CUBE (segment, nation): all four grouping sets from ONE
    pass — each batch pre-aggregates to the finest (segment, nation)
    grain in exact cents, the driver merges the tiny finest table
    (grouping dims are low-cardinality by construction — a
    high-cardinality cube would swap the driver merge for a
    groupby shuffle), and the three coarser levels derive from the
    finest by exact integer re-aggregation, so every level is
    bit-identical to summing the raw rows. Rolled-up levels label as
    'ALL' / -1 (source columns are never NULL)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "customer"),
        columns=["c_mktsegment", "c_nationkey", "c_acctbal"],
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        cents = np.round(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False) * 100
        ).astype("int64")
        t = pd.DataFrame({
            "c_mktsegment": batch.column("c_mktsegment").to_pylist(),
            "c_nationkey": batch.column("c_nationkey").to_numpy(
                zero_copy_only=False).astype("int64"),
            "cents": cents,
        })
        return t.groupby(["c_mktsegment", "c_nationkey"], as_index=False).agg(
            n_customers=("cents", "count"), cents=("cents", "sum")
        )

    finest = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    finest = _pysum_cols(finest, ["cents"])
    finest = finest.groupby(["c_mktsegment", "c_nationkey"], as_index=False).agg(
        n_customers=("n_customers", "sum"), cents=("cents", "sum")
    )

    def level(df, seg, nat):
        keys = []
        if not seg:
            df = df.assign(c_mktsegment="ALL")
        keys.append("c_mktsegment")
        if not nat:
            df = df.assign(c_nationkey=np.int64(-1))
        keys.append("c_nationkey")
        return df.groupby(keys, as_index=False).agg(
            n_customers=("n_customers", "sum"), cents=("cents", "sum")
        )

    out = pd.concat([
        level(finest, True, True), level(finest, True, False),
        level(finest, False, True), level(finest, False, False),
    ], ignore_index=True)
    out["n_customers"] = out["n_customers"].astype("int64")
    out["c_nationkey"] = out["c_nationkey"].astype("int64")
    out["sum_acctbal"] = out.pop("cents") / 100.0
    return (
        out.sort_values(["c_mktsegment", "c_nationkey"])
        .reset_index(drop=True)
        [["c_mktsegment", "c_nationkey", "n_customers", "sum_acctbal"]]
    )


def q_events_props_extract(sf_dir: str):
    """Semi-structured extraction: pull the integer field `k` out of the
    JSON `props` column with ONE vectorized regex pass per batch
    (pandas .str.extract — no per-row json.loads), then aggregate
    exactly per event_type. The per-batch partial collapses to
    ≤n_types rows before the driver merge (Python-int accumulation,
    same overflow discipline as every money sum). Missing/malformed
    props count as 0 on both sides (COALESCE in the oracle)."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "props"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # string → int64 directly (no float64 round-trip: values above
        # 2^53 must stay exact, matching the oracle's TRY_CAST)
        k = (
            b["props"].fillna("").str.extract(r'"k"\s*:\s*(-?\d+)')[0]
            .fillna("0").astype("int64")
        )
        t = pd.DataFrame({"event_type": b["event_type"], "k": k})
        return t.groupby("event_type", as_index=False).agg(
            sum_k=("k", "sum"), n_events=("k", "count")
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["sum_k"])
    df = (
        parts.groupby("event_type", as_index=False)
        .agg(sum_k=("sum_k", "sum"), n_events=("n_events", "sum"))
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    df["sum_k"] = df["sum_k"].map(int).astype("int64")
    df["n_events"] = df["n_events"].astype("int64")
    return df


def q_events_moving_avg(sf_dir: str):
    """SLIDING window frame (ROWS BETWEEN 3 PRECEDING AND CURRENT ROW):
    per-user moving sum/avg of value over (ts, event_id) order — the
    bounded-frame window family, distinct from the UNBOUNDED-PRECEDING
    running total. Same bucket-then-vectorize shape as q_events_rank;
    inside the bucket the frame sum is pure cumsum algebra (win_i =
    cs[i] - cs[i-frame], clamped at each user's group start via ONE
    C-level cumcount — no per-user group, no pandas rolling). Exact
    int64-cents arithmetic; the only float ops are the final /100.0 and
    /count divisions, each one correctly-rounded IEEE step that DuckDB
    reproduces bit-for-bit."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def win(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        cents = np.round(g["value"].to_numpy() * 100).astype("int64")
        cs = np.cumsum(cents)
        k = g.groupby("user_id", sort=False).cumcount().to_numpy()
        back = np.minimum(k, 3)
        j = np.arange(len(g)) - back
        lo = np.where(j > 0, cs[j - 1], 0)  # j=0 branch discards cs[-1]
        win_sum = (cs - lo) / 100.0
        cnt = back + 1
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "win_sum": win_sum,
                "win_avg": win_sum / cnt,
                "n_in_frame": cnt.astype("int64"),
            }
        )

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), win).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_key_set_ops(sf_dir: str):
    """Set operations (INTERSECT / EXCEPT) over the supplier vs customer
    key domains. Each side collapses per batch to its DISTINCT keys
    tagged with a side bit (np.unique — no shuffle yet); the tagged
    union then shuffles ONCE on a bounded key-hash bucket, each bucket
    OR-combines the bits per key with a vectorized pandas groupby and
    emits three partial counts, and the driver merges only the tiny
    per-bucket partials. Scale shape: the exchange carries distinct
    (key, bit) rows, never source rows, and no bucket sees more than
    its key range's distinct keys."""
    import numpy as np

    supp = ray.data.read_parquet(_t(sf_dir, "supplier"), columns=["s_suppkey"])
    cust = ray.data.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey"])
    nb = max(auto_buckets(supp), auto_buckets(cust))

    def tag(col: str, bit: int):
        def f(batch: pa.Table) -> pd.DataFrame:
            keys = np.unique(batch.column(col).to_numpy(zero_copy_only=False))
            return pd.DataFrame({
                "key": keys.astype("int64"),
                "bits": np.full(len(keys), bit, dtype=np.int64),
            })
        return f

    tagged = supp.map_batches(tag("s_suppkey", 1), batch_format="pyarrow").union(
        cust.map_batches(tag("c_custkey", 2), batch_format="pyarrow")
    )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        # each side emits a key at most once per batch, but a key can
        # appear in several batches of the same side: OR the bits via a
        # C-level max per (key, side-bit-set) — bits are 1/2, and
        # max(1,2,...)==3 only after a true cross-side meet, so combine
        # with a two-step groupby: dedup per (key, bits), then sum
        bits = g.drop_duplicates(["key", "bits"]).groupby(
            "key", sort=False)["bits"].sum()
        return pd.DataFrame({
            "n_intersect": [int((bits == 3).sum())],
            "n_supp_only": [int((bits == 1).sum())],
            "n_cust_only": [int((bits == 2).sum())],
        })

    parts = bucket_group_map(tagged, key_buckets("key", nb), combine).to_pandas()
    out = pd.DataFrame({
        "n_intersect": [int(parts["n_intersect"].sum())],
        "n_supp_only": [int(parts["n_supp_only"].sum())],
        "n_cust_only": [int(parts["n_cust_only"].sum())],
    })
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def q_events_first_last(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE window endpoints per user over
    (ts, event_id) order — one row per user with both boundary events
    and values. Same bucket-then-vectorize shape as the other window
    ops: ONE pandas sort + grouped first/last (C kernels) per
    user-hash bucket; raw double values pass through untouched, so
    equality vs the SQL window oracle is exact."""

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def fl(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        # drop_duplicates keeps whole ROWS (SQL FIRST_VALUE/LAST_VALUE
        # semantics) — groupby.first()/last() would skip nulls
        # per-column and could stitch values from different rows
        first = g.drop_duplicates("user_id", keep="first").set_index("user_id")
        last = g.drop_duplicates("user_id", keep="last").set_index("user_id")
        n = g.groupby("user_id", sort=False).size()
        return pd.DataFrame({
            "user_id": first.index.astype("int64"),
            "first_event_id": first["event_id"].astype("int64").to_numpy(),
            "last_event_id": last["event_id"].astype("int64").to_numpy(),
            "first_value": first["value"].to_numpy(),
            "last_value": last["value"].to_numpy(),
            "n_events": n.reindex(first.index).astype("int64").to_numpy(),
        })

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), fl).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def q_part_quantiles_cont(sf_dir: str):
    """INTERPOLATED grouped percentiles (PERCENTILE_CONT semantics, the
    companion to q_part_quantiles' discrete picks): position
    h = q·(n−1) over the sorted group, result
    v[⌊h⌋]·(1−frac) + v[⌈h⌉]·frac. DuckDB's quantile_cont computes the
    identical IEEE expression (verified bitwise), and frac = h−⌊h⌋ is
    exact by Sterbenz, so the oracle match is hash-exact despite the
    interpolation. Same shuffle shape as q_part_quantiles: 25 brands →
    direct low-cardinality groupby, sort-per-group on a worker."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_brand", "p_retailprice"]
    )

    def qtile(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["p_retailprice"].to_numpy())
        return pd.DataFrame({
            "p_brand": [g["p_brand"].iloc[0]],
            "p25": [_quantile_cont(v, 0.25)],
            "median": [_quantile_cont(v, 0.5)],
            "p90": [_quantile_cont(v, 0.9)],
            "n_parts": [len(v)],
        })

    out = ds.groupby("p_brand").map_groups(qtile, batch_format="pandas")
    df = out.to_pandas().sort_values("p_brand").reset_index(drop=True)
    df["n_parts"] = df["n_parts"].astype("int64")
    return df


def q_docs_shuffle(sf_dir: str):
    """Deterministic training-order shuffle: each doc's position is its
    global rank in md5(doc_id) order — the reproducible no-RNG shuffle a
    training run wants (same order at any parallelism, resumable by
    position range).

    This is the engine's GLOBAL RANK primitive, built WITHOUT Ray's
    all-to-all sort: the md5 hex prefix is itself a RANGE partitioner
    (hex strings order lexicographically), so 256 prefix buckets are
    already globally ordered. Pass 1 collapses each batch to per-bucket
    counts (tiny driver merge → exclusive bucket offsets in Python
    ints); pass 2 buckets rows, sorts WITHIN each bucket only, and adds
    the broadcast offset — per-bucket work is corpus/256, never the
    corpus. The per-row md5 is one C call (same precedent as
    docs_sample's content-hash split)."""
    import hashlib

    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def md5s(ids: np.ndarray) -> list:
        return [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids]

    def counts(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b = np.array([int(h[:2], 16) for h in md5s(ids)], dtype=np.int64)
        c = np.bincount(b, minlength=256)
        nz = np.nonzero(c)[0]
        return pd.DataFrame({"hb": nz.astype("int64"),
                             "n": c[nz].astype("int64")})

    parts = ds.map_batches(counts, batch_format="pyarrow").to_pandas()
    per_bucket = [0] * 256
    for hb, n in zip(parts["hb"], parts["n"]):
        per_bucket[int(hb)] += int(n)
    offsets = [0] * 256
    run = 0
    for i in range(256):
        offsets[i] = run
        run += per_bucket[i]

    def add_hash(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pd.DataFrame({"doc_id": ids.astype("int64"), "h": md5s(ids)})

    def hash_byte(t: pa.Table) -> np.ndarray:
        return np.array([int(h[:2], 16) for h in t.column("h").to_pylist()],
                        dtype=np.int64)

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"]).reset_index(drop=True)
        base = offsets[int(g["h"].iloc[0][:2], 16)]
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64"),
            "pos": (base + np.arange(len(g))).astype("int64"),
        })

    out = bucket_group_map(
        ds.map_batches(add_hash, batch_format="pyarrow"), hash_byte, rank
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_part_quantiles_sketch(sf_dir: str):
    """APPROXIMATE grouped percentiles via the mergeable quantile sketch
    (stages/sketches.py) — the scale path q_part_quantiles' docstring
    names for groups too large to gather: each batch collapses every
    brand to one fixed-size (points, weights) summary, partials merge
    associatively inside the brand group, and no worker ever holds a
    group's full value set. At sf scale every per-brand summary stays
    under the sketch size, so the result is EXACT here (equal to the
    discrete quantiles up to the midpoint-rank rule); accuracy at
    giant-group scale is pytest-gated (<0.5% rank error at 200k values).
    No SQL oracle (approximate by construction) — rows-only check plus
    the pytest accuracy/merge gates, like events_user_hll."""
    import numpy as np

    from ..stages.sketches import (
        merge_quantile_sketches,
        quantile_sketch,
        sketch_quantile,
    )

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_brand", "p_retailprice"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for brand, g in b.groupby("p_brand", sort=False):
            pts, wts = quantile_sketch(g["p_retailprice"].to_numpy())
            rows.append((brand, pts.tolist(), wts.tolist(), len(g)))
        return pd.DataFrame(rows, columns=["p_brand", "pts", "wts", "n"])

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        pts, wts = merge_quantile_sketches(
            [(np.asarray(p), np.asarray(w))
             for p, w in zip(g["pts"], g["wts"])]
        )
        return pd.DataFrame({
            "p_brand": [g["p_brand"].iloc[0]],
            "p25": [sketch_quantile(pts, wts, 0.25)],
            "median": [sketch_quantile(pts, wts, 0.5)],
            "p90": [sketch_quantile(pts, wts, 0.9)],
            "n_parts": [int(g["n"].sum())],
        })

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("p_brand")
        .map_groups(finalize, batch_format="pandas")
        .to_pandas()
    )
    out["n_parts"] = out["n_parts"].astype("int64")
    return out.sort_values("p_brand").reset_index(drop=True)


def q_region_revenue(sf_dir: str,
                     broadcast_threshold_bytes: int = 64 << 20):
    """TPC-H Q5 proper: the 6-table join chain customer ⋈ orders ⋈
    lineitem ⋈ supplier ⋈ nation ⋈ region with the local-supplier
    predicate c_nationkey = s_nationkey — the join-COMPOSITION
    demonstration. Scale shape: the two fact joins (orders⋈customer,
    lineitem⋈orders) run through the bucketed shuffle hash join
    (pipelines/joins.py); the bounded dimension chain (region→nation, 30
    rows total) broadcasts unconditionally; lineitem pre-aggregates to
    (orderkey, supplier-nation) grain with exact scaled-int64 cents
    INSIDE its map before entering the shuffle, so the big exchange is
    near orders-sized. Final per-nation merge is a tiny Python-int sum
    (overflow-safe, ADVICE r2).

    Size-aware (round 5): supplier is 10k rows/SF — linear in table
    scale, NOT a bounded domain — so the region-pruned suppkey→nation
    map only broadcasts while the SUPPLIER base table's parquet
    metadata stays under the cap; beyond it the pruned supplier dataset
    attaches to lineitem through the bucketed shuffle hash join and the
    same partial runs on the joined column (planner rule: no
    driver-built array may grow with table scale ungated)."""
    import numpy as np

    from .joins import hash_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")

    # dimension chain, driver-side tiny (5 + 25 rows)
    region = ray.data.read_parquet(_t(sf_dir, "region")).to_pandas()
    nation = ray.data.read_parquet(_t(sf_dir, "nation")).to_pandas()
    rkeys = set(region.loc[region["r_name"] == "ASIA", "r_regionkey"])
    nat = nation[nation["n_regionkey"].isin(rkeys)]
    nat_names = {int(k): v for k, v in zip(nat["n_nationkey"], nat["n_name"])}

    # supplier → nationkey, region-pruned; size-gated (see docstring)
    sup_ds = ray.data.read_parquet(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    try:
        sup_bytes = sup_ds.size_bytes()
    except Exception:
        sup_bytes = None

    nat_set = pa.array(sorted(nat_names), pa.int64())
    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda t: t.filter(pc.is_in(t.column("c_nationkey"), value_set=nat_set)),
        batch_format="pyarrow",
    )
    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t.column("o_orderdate"), pa.scalar(lo)),
                pc.less(t.column("o_orderdate"), pa.scalar(hi)),
            )
        ),
        batch_format="pyarrow",
    )
    cust_orders = hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey"
    ).map_batches(
        lambda df: df[["o_orderkey", "c_nationkey"]], batch_format="pandas"
    ).repartition(8)  # one small block per join bucket — coalesce

    def _li_partial(b: pd.DataFrame, s_nat: np.ndarray) -> pd.DataFrame:
        """Exact-cents pre-aggregation to (orderkey, nation) grain —
        shared by both planner paths (broadcast map vs joined column)."""
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        out = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(dtype=np.int64),
                "s_nat": s_nat,
                "rev_u": pr_c * (100 - di_c),
            }
        )
        return out.groupby(["l_orderkey", "s_nat"], as_index=False)["rev_u"].sum()

    li_read = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    if sup_bytes is not None and sup_bytes <= broadcast_threshold_bytes:
        sup = sup_ds.to_pandas()
        sup = sup[sup["s_nationkey"].isin(nat_names)]
        sup_ref = ray.put(dict(zip(sup["s_suppkey"], sup["s_nationkey"])))

        class LiPartial:
            """Region-prune via the broadcast supplier map."""

            def __init__(self):
                self.sup = ray.get(sup_ref)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                s_nat = b["l_suppkey"].map(self.sup)
                keep = s_nat.notna().to_numpy()
                b = b[keep]
                return _li_partial(
                    b, s_nat[keep].to_numpy().astype("int64"))

        li = li_read.map_batches(LiPartial, batch_format="pandas",
                                 concurrency=(1, 4))
    else:
        sup_pruned = sup_ds.map_batches(
            lambda t: t.filter(pc.is_in(t.column("s_nationkey"),
                                        value_set=nat_set)),
            batch_format="pyarrow",
        )
        li = hash_join(
            li_read, sup_pruned, left_on="l_suppkey", right_on="s_suppkey"
        ).map_batches(
            lambda b: _li_partial(
                b, b["s_nationkey"].to_numpy(dtype=np.int64)),
            batch_format="pandas",
        )

    joined = hash_join(li, cust_orders, left_on="l_orderkey", right_on="o_orderkey")

    def local_only(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["s_nat"].to_numpy() == df["c_nationkey"].to_numpy()]
        return df.groupby("s_nat", as_index=False)["rev_u"].sum()

    parts = joined.map_batches(local_only, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["rev_u"])
    agg = parts.groupby("s_nat", as_index=False)["rev_u"].sum()
    agg["n_name"] = agg["s_nat"].map(nat_names)
    agg["revenue"] = agg.pop("rev_u") / 10000.0
    return (
        agg[["n_name", "revenue"]].sort_values("n_name").reset_index(drop=True)
    )


def q_events_ntile(sf_dir: str):
    """NTILE(4) per user ordered by (ts, event_id), verified at tile
    grain: per (user, tile) count + event_id endpoints pin BOTH the
    SQL tile-size rule (first n%k tiles get one extra row) and the
    exact boundary rows. Same bucket-then-vectorize shape as
    q_events_rank — ONE pandas sort + numpy tile arithmetic per bucket,
    never a per-user group."""
    import numpy as np

    K = 4
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def ntiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        by_user = g.groupby("user_id", sort=False)
        idx = by_user.cumcount().to_numpy()
        n = by_user["event_id"].transform("size").to_numpy()
        # SQL NTILE: first (n % K) tiles hold ceil(n/K) rows, the rest
        # floor(n/K); all-integer branch arithmetic, fully vectorized
        big = n % K
        size_big = n // K + 1
        in_big = idx < big * size_big
        small = np.maximum(n // K, 1)  # n < K ⇒ every row is in a big tile
        tile = np.where(
            in_big,
            idx // size_big,
            big + (idx - big * size_big) // small,
        ) + 1
        g["tile"] = tile.astype("int64")
        out = (
            g.groupby(["user_id", "tile"], as_index=False)
            .agg(
                n_events=("event_id", "size"),
                first_event=("event_id", "min"),
                last_event=("event_id", "max"),
            )
        )
        out["n_events"] = out["n_events"].astype("int64")
        return out

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), ntiles).to_pandas()
    return out.sort_values(["user_id", "tile"]).reset_index(drop=True)


def q_lineitem_corr(sf_dir: str):
    """Grouped Pearson CORRELATION (quantity vs extendedprice per
    returnflag) computed from EXACT sufficient statistics: per-batch
    scaled-int64 partial sums (Σx, Σy, Σxy, Σx², Σy², n), Python-int
    merge (arbitrary precision), then ONE float expression
    (n·Σxy − ΣxΣy) / (√(n·Σx² − (Σx)²) · √(n·Σy² − (Σy)²)) evaluated
    once per group. The oracle computes the SAME expression from
    DECIMAL sums, so every intermediate is identical and the doubles
    match bitwise — a float statistic with no float accumulation."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = np.round(b["l_quantity"].to_numpy() * 100).astype("int64")
        y = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
                "syy": y * y,
            }
        )
        out = d.groupby("l_returnflag", as_index=False).sum()
        out["n_rows"] = (
            b.groupby("l_returnflag", as_index=False)
            .size()["size"].to_numpy().astype("int64")
        )
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["sx", "sy", "sxy", "sxx", "syy", "n_rows"])
    rows = []
    for flag, g in parts.groupby("l_returnflag"):
        n = sum(g["n_rows"])
        sx, sy = sum(g["sx"]), sum(g["sy"])
        sxy, sxx, syy = sum(g["sxy"]), sum(g["sxx"]), sum(g["syy"])
        corr = float(n * sxy - sx * sy) / (
            math.sqrt(float(n * sxx - sx * sx)) * math.sqrt(float(n * syy - sy * sy))
        )
        rows.append((flag, corr, int(n)))
    return (
        pd.DataFrame(rows, columns=["l_returnflag", "corr_qty_price", "n_rows"])
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )


def q_region_nations(sf_dir: str):
    """Ordered STRING_AGG: comma-joined nation names per region, sorted
    inside the group — the order-sensitive aggregate (tiny tables; the
    pattern is groupby().map_groups with an explicit in-group sort,
    which is exactly how an ordered concat stays deterministic at any
    parallelism)."""
    region = ray.data.read_parquet(_t(sf_dir, "region")).to_pandas()
    rmap_ref = ray.put(dict(zip(region["r_regionkey"], region["r_name"])))

    class AddRegion:
        def __init__(self):
            self.rmap = ray.get(rmap_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            b["r_name"] = b["n_regionkey"].map(self.rmap)
            return b[["r_name", "n_name"]]

    def concat(g: pd.DataFrame) -> pd.DataFrame:
        names = ",".join(sorted(g["n_name"]))
        return pd.DataFrame(
            {
                "r_name": [g["r_name"].iloc[0]],
                "nations": [names],
                "n_nations": [len(g)],
            }
        )

    ds = ray.data.read_parquet(_t(sf_dir, "nation"))
    out = (
        ds.map_batches(AddRegion, batch_format="pandas", concurrency=1)
        .groupby("r_name")
        .map_groups(concat, batch_format="pandas")
        .to_pandas()
    )
    out["n_nations"] = out["n_nations"].astype("int64")
    return out.sort_values("r_name").reset_index(drop=True)


def q_join_full(sf_dir: str):
    """FULL OUTER join through the bucketed shuffle hash join: daily
    purchase spend vs daily error spend per (user, day). Both sides
    pre-aggregate to the join grain inside ``map_batches`` (per-batch
    exact-cents partials, then ONE bounded-bucket merge each), so the
    join input is already (user, day)-grained; ~2/3 of the keys exist
    on only one side, exercising both null-fill directions. Unmatched
    sums coalesce to 0 like the SQL. The composite key is a single
    string column so the generic single-key exchange applies."""
    import numpy as np

    from .joins import hash_join

    def side(event_type: str, cname: str):
        ds = ray.data.read_parquet(
            _t(sf_dir, "events"), columns=["user_id", "event_type", "ts", "value"]
        )
        nb = auto_buckets(ds)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            b = b[b["event_type"] == event_type]
            if b.empty:
                return pd.DataFrame({
                    "ukey": pd.Series([], dtype=object),
                    cname: pd.Series([], dtype="int64"),
                })
            d = pd.DataFrame({
                "ukey": b["user_id"].astype(str) + "#"
                        + b["ts"].dt.strftime("%Y-%m-%d"),
                cname: np.round(b["value"].to_numpy() * 100).astype("int64"),
            })
            return d.groupby("ukey", as_index=False).sum()

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            out = g.groupby("ukey", as_index=False)[cname].sum()
            out[cname] = out[cname].astype("int64")
            return out

        return bucket_group_map(
            ds.map_batches(partial, batch_format="pandas"),
            key_buckets("ukey", nb), merge,
        )

    sch = lambda c: pa.schema([("ukey", pa.string()), (c, pa.int64())])
    joined = hash_join(
        side("purchase", "purchase_c"), side("error", "error_c"),
        "ukey", "ukey", how="full",
        left_schema=sch("purchase_c"), right_schema=sch("error_c"),
    )
    df = joined.to_pandas()
    df["purchase_c"] = df["purchase_c"].fillna(0).astype("int64")
    df["error_c"] = df["error_c"].fillna(0).astype("int64")
    return (
        df[["ukey", "purchase_c", "error_c"]]
        .sort_values("ukey")
        .reset_index(drop=True)
    )


def q_events_pct_rank(sf_dir: str):
    """PERCENT_RANK / CUME_DIST per user by value desc — completes the
    ranking-window family (q_events_rank covers rank/dense_rank/
    row_number). Same bucket-then-vectorize shape; both statistics are
    ONE double division of exact integers ((rank-1)/(n-1) and
    peers≤/n), written identically in the oracle, so the doubles match
    bitwise. n=1 partitions define percent_rank = 0 like SQL."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "value"], ascending=[True, False]
                          ).reset_index(drop=True)
        by = g.groupby("user_id", sort=False)
        n = by["value"].transform("size").to_numpy().astype("float64")
        rmin = by["value"].rank(method="min", ascending=False).to_numpy()
        rmax = by["value"].rank(method="max", ascending=False).to_numpy()
        g["pct_rank"] = np.where(n > 1.0, (rmin - 1.0) / (n - 1.0), 0.0)
        g["cume_dist"] = rmax / n
        return g[["event_id", "user_id", "pct_rank", "cume_dist"]]

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), ranks).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_customer_mode(sf_dir: str):
    """Grouped MODE with a deterministic tie-break (most frequent
    nation per market segment; ties take the smallest nation key) —
    the partial-count pattern: per-batch (segment, nation) counts
    bound the exchange to group-cardinality rows per batch, the final
    pick runs over ≤ |segments|×|nations| rows."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_mktsegment", "c_nationkey"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(["c_mktsegment", "c_nationkey"], as_index=False).agg(
            cnt=("c_nationkey", "count")
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    counts = parts.groupby(["c_mktsegment", "c_nationkey"], as_index=False)[
        "cnt"].sum()
    counts = counts.sort_values(
        ["c_mktsegment", "cnt", "c_nationkey"],
        ascending=[True, False, True],
    )
    out = counts.groupby("c_mktsegment", as_index=False).first()
    out = out.rename(columns={"c_nationkey": "mode_nationkey", "cnt": "n_cust"})
    out["n_cust"] = out["n_cust"].astype("int64")
    return (
        out[["c_mktsegment", "mode_nationkey", "n_cust"]]
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )


def q_lineitem_regr(sf_dir: str):
    """Grouped linear REGRESSION (price on quantity per returnflag) from
    EXACT sufficient statistics — the q_lineitem_corr construction:
    scaled-int64 per-batch partials, Python-int merge, then the slope
    and intercept as single float expressions mirrored verbatim in the
    oracle so the doubles match bitwise. Slope is unit-free (both
    variables scale by 100); the intercept divides back to currency."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = np.round(b["l_quantity"].to_numpy() * 100).astype("int64")
        y = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame({
            "l_returnflag": b["l_returnflag"],
            "sx": x, "sy": y, "sxy": x * y, "sxx": x * x,
        })
        out = d.groupby("l_returnflag", as_index=False).sum()
        out["n_rows"] = (
            b.groupby("l_returnflag", as_index=False)
            .size()["size"].to_numpy().astype("int64")
        )
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["sx", "sy", "sxy", "sxx", "n_rows"])
    rows = []
    for flag, g in parts.groupby("l_returnflag"):
        n = sum(g["n_rows"])
        sx, sy, sxy, sxx = sum(g["sx"]), sum(g["sy"]), sum(g["sxy"]), sum(g["sxx"])
        slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
        intercept = (float(sy) - slope * float(sx)) / float(n) / 100.0
        rows.append((flag, slope, intercept, int(n)))
    return (
        pd.DataFrame(rows, columns=["l_returnflag", "slope", "intercept", "n_rows"])
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )


def q_events_ab_test(sf_dir: str):
    """A/B EXPERIMENT READOUT: deterministic cohort split (user_id
    parity — the hash-assignment stand-in), then per event type the two
    cohorts' sizes, mean values, and Welch's t-statistic — the
    experimentation-analytics kernel (two-sample comparison over an
    event stream).

    The q_lineitem_corr construction: per-batch scaled-int64 partials
    (n, Σv, Σv² in cents per (event_type, cohort)), Python-int driver
    merge, then means/variances/t as single float expressions mirrored
    VERBATIM in the oracle — every intermediate double is identical, so
    the statistics match bitwise with no float accumulation anywhere.
    One bounded exchange: partial frames carry ≤ |event_types|×2 rows
    per batch."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.round(b["value"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame({
            "event_type": b["event_type"],
            "cohort": (b["user_id"].to_numpy() % 2).astype("int64"),
            "s": v, "q": v * v,
        })
        out = d.groupby(["event_type", "cohort"], as_index=False).agg(
            s=("s", "sum"), q=("q", "sum"), n=("s", "size"))
        out["n"] = out["n"].astype("int64")
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["s", "q", "n"])
    rows = []
    for et, g in parts.groupby("event_type"):
        agg = {int(c): (sum(gc["n"]), sum(gc["s"]), sum(gc["q"]))
               for c, gc in g.groupby("cohort")}
        (na, sa, qa), (nb, sb, qb) = agg[0], agg[1]
        mean_a = float(sa) / na / 100.0
        mean_b = float(sb) / nb / 100.0
        var_a = (float(qa) - float(sa) * float(sa) / na) / (na - 1)
        var_b = (float(qb) - float(sb) * float(sb) / nb) / (nb - 1)
        t = (float(sa) / na - float(sb) / nb) / math.sqrt(
            var_a / na + var_b / nb)
        rows.append((et, int(na), int(nb), mean_a, mean_b, t))
    return (
        pd.DataFrame(rows, columns=["event_type", "n_a", "n_b",
                                    "mean_a", "mean_b", "t_welch"])
        .sort_values("event_type").reset_index(drop=True)
    )


def q_orders_monthly(sf_dir: str):
    """Monthly time-series rollup (order count + exact-cents revenue per
    calendar month) — the temporal re-bucketing every training-data
    freshness dashboard needs. Per-batch partials bound the exchange to
    |months| rows per batch; the final merge is tiny and Python-int."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderdate", "o_totalprice"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "month": b["o_orderdate"].dt.strftime("%Y-%m"),
            "rev_c": np.round(b["o_totalprice"].to_numpy() * 100).astype("int64"),
        })
        out = d.groupby("month", as_index=False).agg(
            rev_c=("rev_c", "sum"), n_orders=("rev_c", "count")
        )
        out["n_orders"] = out["n_orders"].astype("int64")
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["rev_c", "n_orders"])
    out = parts.groupby("month", as_index=False).sum()
    out["revenue"] = [int(v) / 100.0 for v in out["rev_c"]]
    out["n_orders"] = out["n_orders"].astype("int64")
    return (
        out[["month", "n_orders", "revenue"]]
        .sort_values("month")
        .reset_index(drop=True)
    )


def q_events_histogram(sf_dir: str):
    """Fixed-width HISTOGRAM per event type (value bins of width 10) —
    the data-quality profiling primitive. Bin id is one vectorized
    floor; per-batch partial counts bound the exchange to
    |types|×|bins| rows per batch."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "value"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "event_type": b["event_type"],
            "bin": np.floor(b["value"].to_numpy() / 10.0).astype("int64"),
        })
        out = d.groupby(["event_type", "bin"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["event_type", "bin"], as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return (
        out.sort_values(["event_type", "bin"])
        .reset_index(drop=True)
    )


def q_orders_weighted_sample(sf_dir: str):
    """Deterministic WEIGHTED Bernoulli sampling — keep probability
    proportional to order value (the data-mixing primitive for
    source-weighted training corpora). u32 = first 8 md5 hex digits of
    the key; keep iff u32 * W_CENTS < price_cents * 2^32, an
    ALL-INTEGER predicate (both sides < 2^58 — no float compare to
    diverge from the oracle). One C md5 call per row (the docs_sample
    precedent), pure per-batch filter: no shuffle, no RNG, identical
    rows at any parallelism."""
    import hashlib

    import numpy as np

    W_CENTS = 60_000_000  # P(keep) = price / $600k (≈0..0.93 on TPC-H)

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )

    def keep(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        u32 = np.fromiter(
            (int(hashlib.md5(str(int(k)).encode()).hexdigest()[:8], 16)
             for k in keys),
            dtype=np.int64, count=len(keys),
        )
        cents = np.round(
            batch.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        mask = u32 * np.int64(W_CENTS) < (cents << np.int64(32))
        return batch.filter(pa.array(mask)).select(["o_orderkey"])

    df = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return df.sort_values("o_orderkey").reset_index(drop=True)


def q_events_range_frame(sf_dir: str):
    """Time-RANGE window frame (RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
    AND CURRENT ROW): per-user sliding one-hour sum/count of value in ts
    order — the VARIABLE-width frame family, distinct from the fixed
    ROWS frame (q_events_moving_avg). Peer semantics match SQL: rows
    sharing the current row's ts are in the frame.

    Vectorized with NO per-user loop: user segments embed into one
    nondecreasing int64 timeline (rel_ts + user_index × span, span sized
    past any segment's reach so a frame can never cross users), then TWO
    np.searchsorted calls over the whole bucket find every row's frame
    bounds and cumsum algebra yields the sums. Embedding precondition
    users_per_bucket × (time_span + 1 h) < 2^62 — auto-sized buckets keep
    that comfortably; a bucket that would overflow falls back to
    per-segment searchsorted (still C per segment). Exact int64 cents;
    the only float op is the final /100.0."""
    import numpy as np

    HOUR = 3_600_000_000  # µs

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def win(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        ts = g["ts"].astype("int64").to_numpy()
        cents = np.round(g["value"].to_numpy() * 100).astype("int64")
        uid = g["user_id"].to_numpy()
        n = len(g)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        uidx = np.cumsum(new_user) - 1
        rel = ts - ts[new_user][uidx]  # µs since each user's first event
        span = int(rel.max()) + HOUR + 2
        n_users = int(uidx[-1]) + 1
        if n_users * span < (1 << 62):
            adj = uidx * span + rel
            lo = np.searchsorted(adj, adj - HOUR, side="left")
            hi = np.searchsorted(adj, adj, side="right")
        else:  # overflow fallback: per-segment bounds (C per segment)
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            bounds = np.append(np.flatnonzero(new_user), n)
            for s, e in zip(bounds[:-1], bounds[1:]):
                tseg = ts[s:e]
                lo[s:e] = s + np.searchsorted(tseg, tseg - HOUR, side="left")
                hi[s:e] = s + np.searchsorted(tseg, tseg, side="right")
        cs = np.cumsum(cents)
        fr = cs[hi - 1] - np.where(lo > 0, cs[lo - 1], 0)
        return pd.DataFrame({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "hour_sum": fr / 100.0,
            "n_in_frame": (hi - lo).astype("int64"),
        })

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), win).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_part_zscore(sf_dir: str):
    """Group-wise Z-SCORE normalization (retail price within brand) —
    the feature-normalization two-pass every training pipeline runs:
    pass 1 reduces each batch to exact scaled-int64 moments per group
    (n, Σx, Σx²; Python-int final merge), pass 2 broadcasts the tiny
    per-group (mean, std) table via ray.put and normalizes every row
    vectorized in the actor. All float steps — mean = Σx/n, population
    var = (nΣx² − Σx²)/n², std = √var, z = (x − mean)/std — are written
    in the same order as the oracle, so the doubles match bitwise;
    zero-variance groups define z = 0 on both sides."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_retailprice"]
    )

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = np.round(b["p_retailprice"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame({"p_brand": b["p_brand"], "sx": x, "sxx": x * x})
        out = d.groupby("p_brand", as_index=False).sum()
        out["n_rows"] = (
            b.groupby("p_brand", as_index=False)
            .size()["size"].to_numpy().astype("int64")
        )
        return out

    parts = ds.map_batches(moments, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["sx", "sxx", "n_rows"])
    rows = []
    for brand, g in parts.groupby("p_brand"):
        n, sx, sxx = sum(g["n_rows"]), sum(g["sx"]), sum(g["sxx"])
        mean = float(sx) / float(n)
        var = float(n * sxx - sx * sx) / (float(n) * float(n))
        rows.append((brand, mean, math.sqrt(var)))
    stats_ref = ray.put(pd.DataFrame(rows, columns=["p_brand", "mean", "std"]))

    class Normalize:
        def __init__(self):
            self.stats = ray.get(stats_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            x = np.round(b["p_retailprice"].to_numpy() * 100).astype("int64")
            m = b.merge(self.stats, on="p_brand", how="left")
            mean = m["mean"].to_numpy()
            std = m["std"].to_numpy()
            z = np.where(std == 0.0, 0.0,
                         (x.astype(np.float64) - mean)
                         / np.where(std == 0.0, 1.0, std))
            return pd.DataFrame({
                "p_partkey": b["p_partkey"],
                "p_brand": b["p_brand"],
                "z": z,
            })

    out = ds.map_batches(
        Normalize, batch_format="pandas", concurrency=(1, 4)
    ).to_pandas()
    return out.sort_values("p_partkey").reset_index(drop=True)


def q_events_transitions(sf_dir: str):
    """MARKOV TRANSITION counts: (previous event_type → event_type)
    pairs per user in (ts, event_id) order, aggregated corpus-wide —
    the lag-then-aggregate composition behind funnel/session-flow
    analytics. Inside each user-hash bucket the previous type is one
    vectorized shift masked at user boundaries (no per-user group);
    per-bucket pair counts are the partials and the driver merges
    ≤ |types|² rows per bucket."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same_user = np.empty(len(g), dtype=bool)
        same_user[0] = False
        same_user[1:] = uid[1:] == uid[:-1]
        d = pd.DataFrame({
            "prev_type": np.where(same_user, np.roll(et, 1), None),
            "event_type": et,
        })
        d = d[same_user]
        out = d.groupby(["prev_type", "event_type"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    parts = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), pairs).to_pandas()
    out = parts.groupby(["prev_type", "event_type"], as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return (
        out.sort_values(["prev_type", "event_type"])
        .reset_index(drop=True)
    )


def q_events_latest(sf_dir: str):
    """LOG COMPACTION / keep-latest upsert: the newest event per
    (user_id, event_type) key by (ts, event_id) — the CDC-apply /
    SCD-type-1 primitive. All rows of a key land in one user-hash
    bucket; inside the bucket ONE sort + a duplicated() mask picks the
    survivors (no per-key group). Output rows are carried verbatim, so
    the result is hash-exact against the SQL row_number()=1 oracle."""

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"])
        keep = ~g.duplicated(["user_id", "event_type"], keep="last")
        out = g.loc[keep, ["event_id", "user_id", "event_type", "value"]].copy()
        out["ts_us"] = g.loc[keep, "ts"].astype("int64")
        return out[["event_id", "user_id", "event_type", "ts_us", "value"]]

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), latest).to_pandas()
    return out.sort_values(["user_id", "event_type"]).reset_index(drop=True)


def q_events_retention(sf_dir: str):
    """COHORT RETENTION: weekly cohorts (epoch-week of each user's
    first event) × week offset → distinct returning users. One pass,
    NO join: a user's whole history sits in one user-hash bucket, so
    the cohort week is a C-level groupby-min inside the bucket and the
    per-bucket distinct (cohort, offset, user) counts are additive
    across buckets (user sets are disjoint by construction). The
    exchange is bounded by buckets × |cohorts|² rows."""

    WEEK_US = 7 * 86400 * 10**6

    ds = ray.data.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])

    def ret(g: pd.DataFrame) -> pd.DataFrame:
        wk = g["ts"].astype("int64").to_numpy() // WEEK_US
        codes, _ = pd.factorize(g["user_id"].to_numpy())
        cohort = pd.Series(wk).groupby(codes).min().to_numpy()[codes]
        d = pd.DataFrame({
            "cohort_week": cohort,
            "week_offset": wk - cohort,
            "u": g["user_id"].to_numpy(),
        }).drop_duplicates()
        return d.groupby(["cohort_week", "week_offset"], as_index=False).agg(
            n_users=("u", "count")
        )

    parts = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), ret).to_pandas()
    out = parts.groupby(["cohort_week", "week_offset"], as_index=False)[
        "n_users"
    ].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_week", "week_offset"]).reset_index(drop=True)


def q_events_funnel(sf_dir: str):
    """FUNNEL ANALYSIS: users reaching each stage of the ordered
    signup → view → click sequence, each step strictly AFTER the
    previous step's first completion (equal-ts ties do NOT advance the
    funnel — mirrored in the oracle's ``ts >`` predicate). Per bucket:
    factorize users once, then one masked C-level groupby-min per step
    — time of first qualifying event, INF sentinel propagates
    non-completion (nothing sorts, nothing loops per user). Per-bucket
    stage counts are additive across disjoint user buckets."""
    import numpy as np

    STEPS = ("signup", "view", "click")

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].astype("int64").to_numpy()
        et = g["event_type"].to_numpy()
        codes, uniques = pd.factorize(g["user_id"].to_numpy())
        n = len(uniques)
        INF = np.iinfo(np.int64).max
        prev = np.full(n, np.iinfo(np.int64).min)  # stage 0: -inf
        counts = []
        for step in STEPS:
            mask = (et == step) & (ts > prev[codes])
            t = (
                pd.Series(np.where(mask, ts, INF))
                .groupby(codes)
                .min()
                .to_numpy()
            )
            counts.append(int((t < INF).sum()))
            prev = t  # INF propagates: ts > INF is impossible
        return pd.DataFrame({
            "stage": np.arange(1, len(STEPS) + 1, dtype=np.int64),
            "n_users": np.array(counts, dtype=np.int64),
        })

    parts = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), funnel).to_pandas()
    out = parts.groupby("stage", as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("stage").reset_index(drop=True)


def q_part_winsorize(sf_dir: str):
    """OUTLIER WINSORIZATION: clamp retail price into the per-brand
    [p05, p95] band — the feature-clipping companion to q_part_zscore's
    normalization. Pass 1 computes the interpolated band edges per
    brand (the identical IEEE expression as q_part_quantiles_cont, so
    the edges equal DuckDB's quantile_cont bitwise); the tiny
    (brand, lo, hi) table broadcasts via ray.put; pass 2 clips every
    row vectorized — min/max SELECT values, they never do float
    arithmetic, so the clipped prices are carried inputs."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_retailprice"]
    )

    def edges(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["p_retailprice"].to_numpy())
        return pd.DataFrame({
            "p_brand": [g["p_brand"].iloc[0]],
            "lo": [_quantile_cont(v, 0.05)],
            "hi": [_quantile_cont(v, 0.95)],
        })

    band = (
        ds.groupby("p_brand")
        .map_groups(edges, batch_format="pandas")
        .to_pandas()
    )
    band_ref = ray.put(band)

    class Clip:
        def __init__(self):
            self.band = ray.get(band_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            m = b.merge(self.band, on="p_brand", how="left")
            x = m["p_retailprice"].to_numpy()
            lo = m["lo"].to_numpy()
            hi = m["hi"].to_numpy()
            return pd.DataFrame({
                "p_partkey": b["p_partkey"],
                "p_brand": b["p_brand"],
                "price_w": np.minimum(np.maximum(x, lo), hi),
                "clipped": ((x < lo) | (x > hi)).astype("int64"),
            })

    out = ds.map_batches(
        Clip, batch_format="pandas", concurrency=(1, 4)
    ).to_pandas()
    return out.sort_values("p_partkey").reset_index(drop=True)


def q_part_unpivot(sf_dir: str):
    """UNPIVOT / melt — the reshape inverse of q_segment_status_pivot:
    (p_size, p_retailprice) columns become (attr, val) rows. A pure
    per-batch 1→2 expansion (two column selects + one concat, no
    shuffle, no row loop); int attrs cast to double exactly (both fit
    in the 2^53 mantissa)."""
    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size", "p_retailprice"]
    )

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        price = pd.DataFrame({
            "p_partkey": b["p_partkey"],
            "attr": "p_retailprice",
            "val": b["p_retailprice"].astype("float64"),
        })
        size = pd.DataFrame({
            "p_partkey": b["p_partkey"],
            "attr": "p_size",
            "val": b["p_size"].astype("float64"),
        })
        return pd.concat([price, size], ignore_index=True)

    out = ds.map_batches(melt, batch_format="pandas").to_pandas()
    return out.sort_values(["p_partkey", "attr"]).reset_index(drop=True)


def q_events_share(sf_dir: str):
    """RATIO-TO-REPORT window (value / SUM(value) OVER (PARTITION BY
    event_type)): each event's share of its type's total. Two passes,
    no shuffle: pass 1 reduces each batch to per-type exact-cents
    partials (|types| rows per batch) merged in Python ints on the
    driver; pass 2 broadcasts the tiny totals dict via ray.put and
    divides vectorized. Numerator and denominator are both exact
    integers, so the single /-division is the only float op — bitwise
    equal to the oracle's expression."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "event_type": b["event_type"],
            "vc": np.round(b["value"].to_numpy() * 100).astype("int64"),
        })
        return d.groupby("event_type", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["vc"])
    totals = {t: sum(g["vc"]) for t, g in parts.groupby("event_type")}
    totals_ref = ray.put(totals)

    class Share:
        def __init__(self):
            self.totals = ray.get(totals_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            vc = np.round(b["value"].to_numpy() * 100).astype("int64")
            tot = b["event_type"].map(self.totals).to_numpy(dtype="float64")
            return pd.DataFrame({
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "share": vc.astype("float64") / tot,
            })

    out = ds.map_batches(
        Share, batch_format="pandas", concurrency=(1, 4)
    ).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_events_rolling_median(sf_dir: str):
    """ROLLING MEDIAN (order statistic over a sliding frame, ROWS 3
    PRECEDING .. CURRENT ROW) — the robust-statistics window the
    mean-based family can't answer. The frame is materialized as a
    (rows × 4) lag matrix (user-boundary-masked with an int64-max
    sentinel), ONE np.sort along axis=1 puts each frame's valid cents
    ascending first, and the median is the uniform interpolation
    (lo + hi)/2 over exact cents (odd frames hit lo == hi, so the
    halving is exact and DuckDB's BIGINT median matches bitwise at
    cents magnitudes); /100.0 back to currency is the only other float
    op, mirrored in the oracle."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def med(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        n = len(g)
        cents = np.round(g["value"].to_numpy() * 100).astype("int64")
        k = g.groupby("user_id", sort=False).cumcount().to_numpy()
        back = np.minimum(k, 3)
        SENT = np.iinfo(np.int64).max
        m = np.full((n, 4), SENT, dtype=np.int64)
        for lag in range(4):  # 4 fixed shifts, not a row loop
            valid = back >= lag
            rows = np.nonzero(valid)[0]
            m[rows, lag] = cents[rows - lag]
        m.sort(axis=1)
        c = back + 1
        lo = (c - 1) // 2
        hi = c // 2
        r = np.arange(n)
        a = m[r, lo].astype(np.float64)
        b = m[r, hi].astype(np.float64)
        return pd.DataFrame({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "med": ((a + b) / 2.0) / 100.0,
            "n_in_frame": c.astype("int64"),
        })

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), med).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_part_mad(sf_dir: str):
    """ROBUST STATISTICS: per-brand median + MAD (median absolute
    deviation) of retail price — the outlier-resistant companion to
    q_part_zscore's moment statistics. Everything happens over exact
    integer cents: the group median interpolates to an exact half-cent
    ((a+b)/2 of ints is exact in double), deviations |vc − med| are
    exact halves, and the deviation median interpolates to an exact
    quarter — so no float expression rounds until the final shared
    /100, and DuckDB's nested medians match bitwise. 25 brands → the
    same direct low-cardinality map_groups as q_part_quantiles."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_brand", "p_retailprice"]
    )

    def _interp_median(sorted_vals: "np.ndarray") -> float:
        n = len(sorted_vals)
        lo = (n - 1) // 2
        hi = n // 2
        return (float(sorted_vals[lo]) + float(sorted_vals[hi])) / 2.0

    def mad(g: pd.DataFrame) -> pd.DataFrame:
        cents = np.sort(
            np.round(g["p_retailprice"].to_numpy() * 100).astype("int64")
        )
        med_c = _interp_median(cents)
        dev = np.sort(np.abs(cents.astype(np.float64) - med_c))
        mad_c = _interp_median(dev)
        return pd.DataFrame({
            "p_brand": [g["p_brand"].iloc[0]],
            "med": [med_c / 100.0],
            "mad": [mad_c / 100.0],
            "n_parts": [len(cents)],
        })

    out = (
        ds.groupby("p_brand")
        .map_groups(mad, batch_format="pandas")
        .to_pandas()
    )
    out["n_parts"] = out["n_parts"].astype("int64")
    return out.sort_values("p_brand").reset_index(drop=True)


def q_events_assoc_rules(sf_dir: str, min_support: int = 5):
    """ASSOCIATION RULES (market-basket a→b): for every ordered
    event-type pair performed by ≥ ``min_support`` common users,
    exact support / confidence / lift. The mining upgrade of
    events_cooccurrence: all three count families — ordered pair
    counts, per-type user counts, and the distinct-user total — ride
    ONE user-hash exchange as a tagged-union partial frame (user sets
    are disjoint across buckets, so every partial is additive), and
    the rule table assembles on the driver at |types|² size.

    Floats appear only as two mirrored expressions over exact int64
    counts (confidence = both/ante; lift = (both·users)/(ante·cons),
    products < 2^53) — identical operand trees on both sides, so the
    DuckDB oracle agrees bitwise."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def partials(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "event_type"])[
            ["user_id", "event_type"]
        ]
        # kind 0: distinct users in this bucket (disjoint ⇒ additive)
        out = [pd.DataFrame({"kind": [0], "key_a": [""], "key_b": [""],
                             "n": [d["user_id"].nunique()]})]
        # kind 1: per-type user counts
        tc = d.groupby("event_type", as_index=False).size()
        out.append(pd.DataFrame({
            "kind": 1, "key_a": tc["event_type"], "key_b": "",
            "n": tc["size"],
        }))
        # kind 2: ordered pair counts (both directions)
        m = d.merge(d, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] != m["event_type_b"]]
        pc2 = m.groupby(["event_type_a", "event_type_b"],
                        as_index=False).size()
        out.append(pd.DataFrame({
            "kind": 2, "key_a": pc2["event_type_a"],
            "key_b": pc2["event_type_b"], "n": pc2["size"],
        }))
        r = pd.concat(out, ignore_index=True)
        r["n"] = r["n"].astype("int64")
        return r

    parts = bucket_group_map(
        ds.map_batches(lambda b: b.drop_duplicates(), batch_format="pandas"),
        key_buckets("user_id", auto_buckets(ds)), partials,
    ).to_pandas()
    sums = parts.groupby(["kind", "key_a", "key_b"], as_index=False)[
        "n"].sum()
    n_users = int(sums.loc[sums["kind"] == 0, "n"].sum())
    tc = dict(zip(sums.loc[sums["kind"] == 1, "key_a"],
                  sums.loc[sums["kind"] == 1, "n"]))
    pairs = sums[(sums["kind"] == 2) & (sums["n"] >= min_support)]

    ante = pairs["key_a"].to_numpy()
    cons = pairs["key_b"].to_numpy()
    n_both = pairs["n"].to_numpy(dtype=np.int64)
    n_ante = np.array([tc[a] for a in ante], dtype=np.int64)
    n_cons = np.array([tc[c] for c in cons], dtype=np.int64)
    bothf, antef, consf = (n_both.astype(np.float64),
                           n_ante.astype(np.float64),
                           n_cons.astype(np.float64))
    usersf = np.float64(n_users)
    out = pd.DataFrame({
        "antecedent": ante, "consequent": cons,
        "n_both": n_both, "n_ante": n_ante, "n_cons": n_cons,
        "n_users": np.full(len(ante), n_users, dtype=np.int64),
        "confidence": bothf / antef,
        "lift": (bothf * usersf) / (antef * consf),
    })
    return (out.sort_values(["antecedent", "consequent"])
            .reset_index(drop=True))


def q_events_cooccurrence(sf_dir: str):
    """CO-OCCURRENCE self-join: for each unordered event-type pair, how
    many users performed BOTH — the market-basket / co-engagement
    primitive. Each batch collapses to its distinct (user, type) rows
    (no shuffle yet); ONE bounded user-hash exchange co-locates a
    user's types, and inside the bucket a vectorized self-merge emits
    the ≤ |types|² pair counts. Partials are additive because user
    sets are disjoint across buckets."""

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "event_type"])[
            ["user_id", "event_type"]
        ]
        m = d.merge(d, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        out = m.groupby(
            ["event_type_a", "event_type_b"], as_index=False
        ).size()
        return out.rename(columns={
            "event_type_a": "type_a", "event_type_b": "type_b", "size": "n",
        })

    parts = bucket_group_map(
        ds.map_batches(lambda b: b.drop_duplicates(), batch_format="pandas"),
        key_buckets("user_id", auto_buckets(ds)), pairs,
    ).to_pandas()
    out = parts.groupby(["type_a", "type_b"], as_index=False)["n"].sum()
    out["n_users"] = out.pop("n").astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


def q_orders_page(sf_dir: str):
    """PAGINATION (ORDER BY … LIMIT k OFFSET s) without a global sort:
    every batch keeps only its own top-(s+k) candidates by
    (price DESC, key ASC) — a bounded partial like q_orders_topk — and
    the driver merges ≤ (s+k)·n_batches candidate rows and slices the
    page. Page rows are carried verbatim (no arithmetic)."""
    LIMIT, OFFSET = 20, 40
    top = LIMIT + OFFSET

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(top)

    cand = ds.map_batches(partial, batch_format="pandas").to_pandas()
    page = (
        cand.sort_values(["o_totalprice", "o_orderkey"],
                         ascending=[False, True])
        .iloc[OFFSET:OFFSET + LIMIT]
        .reset_index(drop=True)
    )
    return page


def _selection_quantiles(ds, to_int, qs, to_weight=None):
    """REUSABLE distributed selection — exact discrete quantiles of an
    int64-valued expression over a Dataset WITHOUT a global sort.
    ``to_int(batch) -> np.int64 array``; ``qs`` maps name → fraction.
    Pass 1 reduces each batch to coarse value-histogram partials
    (bucket = value >> 8, so the driver merge is bounded by the VALUE
    RANGE / 256, never by row count); the cumulative histogram locates
    the buckets containing the target ranks. Pass 2 re-streams the
    dataset and emits exact per-value counts ONLY inside those buckets
    — a bucket spans exactly 256 distinct values, so every batch
    contributes ≤ 256·|qs| partial rows and the driver picks the
    global ranks from a tiny exact histogram. Discrete rank rule:
    sorted[ceil(q·n)−1] == DuckDB quantile_disc. Returns
    (dict name → int value, total row count).

    WEIGHTED variant: pass ``to_weight(batch) -> np.int64 array`` —
    histograms accumulate exact integer WEIGHT sums instead of counts
    and the rule becomes "smallest value whose cumulative weight ≥
    ceil(q·W)" (with unit weights this is exactly the rule above)."""
    import math

    import numpy as np

    def coarse(b: pd.DataFrame) -> pd.DataFrame:
        v = to_int(b)
        if to_weight is None:
            cb, n = np.unique(v >> 8, return_counts=True)
            return pd.DataFrame({"cb": cb, "n": n.astype("int64")})
        g = pd.DataFrame({"cb": v >> 8, "n": to_weight(b)}).groupby(
            "cb", as_index=False)["n"].sum()
        return g.astype({"cb": "int64", "n": "int64"})

    hist = ds.map_batches(coarse, batch_format="pandas").to_pandas()
    hist = _pysum_cols(hist, ["n"])
    merged = hist.groupby("cb")["n"].sum().sort_index()
    total = int(merged.sum())
    cum = merged.cumsum()
    ranks = {name: max(0, math.ceil(q * total) - 1)
             for name, q in qs.items()}
    # the coarse bucket holding each target rank (cum is 1-based counts)
    targets = {
        name: int(cum.index[int(np.searchsorted(cum.to_numpy(), r + 1))])
        for name, r in ranks.items()
    }
    want = sorted(set(targets.values()))
    before = {b: int(cum.loc[:b].iloc[-2]) if cum.index.get_loc(b) > 0 else 0
              for b in want}
    want_ref = ray.put(np.array(want, dtype=np.int64))

    class FineCounts:
        def __init__(self):
            self.want = ray.get(want_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            v = to_int(b)
            keep = np.isin(v >> 8, self.want)
            if to_weight is None:
                v, n = np.unique(v[keep], return_counts=True)
                return pd.DataFrame({"vc": v, "n": n.astype("int64")})
            g = pd.DataFrame(
                {"vc": v[keep], "n": to_weight(b)[keep]}
            ).groupby("vc", as_index=False)["n"].sum()
            return g.astype({"vc": "int64", "n": "int64"})

    fine = ds.map_batches(
        FineCounts, batch_format="pandas", concurrency=(1, 4)
    ).to_pandas()
    fine = _pysum_cols(fine, ["n"])
    fine = fine.groupby("vc")["n"].sum().sort_index()

    out = {}
    for name in qs:
        b = targets[name]
        in_b = fine[(fine.index.to_numpy() >> 8) == b]
        offset = ranks[name] - before[b]
        pos = int(np.searchsorted(in_b.cumsum().to_numpy(), offset + 1))
        out[name] = int(in_b.index[pos])
    return out, total


def _selection_quantiles_multi(ds, to_ints, qs):
    """Fused MULTI-metric variant of :func:`_selection_quantiles`: ONE
    coarse pass + ONE fine pass for ALL metrics instead of two passes
    per metric (q_customer_rfm previously re-streamed its per-customer
    table six times — NOTES_r3 round-4 lead #6). ``to_ints`` maps
    metric name → ``batch -> np.int64 array``; returns
    ``(dict metric → dict q-name → int value, total row count)``.
    Identical rank rule per metric (discrete, == DuckDB
    quantile_disc)."""
    import math

    import numpy as np

    names = list(to_ints)

    def coarse(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for i, nm in enumerate(names):
            v = to_ints[nm](b)
            cb, n = np.unique(v >> 8, return_counts=True)
            frames.append(pd.DataFrame({
                "m": np.full(len(cb), i, dtype=np.int64),
                "cb": cb, "n": n.astype("int64"),
            }))
        return pd.concat(frames, ignore_index=True)

    hist = ds.map_batches(coarse, batch_format="pandas").to_pandas()
    hist = _pysum_cols(hist, ["n"])

    ranks, targets, before, total = {}, {}, {}, 0
    for i, nm in enumerate(names):
        merged = (hist[hist["m"] == i].groupby("cb")["n"].sum()
                  .sort_index())
        total = int(merged.sum())  # same dataset → same count per metric
        cum = merged.cumsum()
        ranks[nm] = {q: max(0, math.ceil(f * total) - 1)
                     for q, f in qs.items()}
        targets[nm] = {
            q: int(cum.index[int(np.searchsorted(cum.to_numpy(), r + 1))])
            for q, r in ranks[nm].items()
        }
        before[nm] = {}
        for b_ in sorted(set(targets[nm].values())):
            loc = cum.index.get_loc(b_)
            before[nm][b_] = int(cum.iloc[loc - 1]) if loc > 0 else 0

    want_ref = ray.put({
        i: np.array(sorted(set(targets[nm].values())), dtype=np.int64)
        for i, nm in enumerate(names)
    })

    class FineCounts:
        def __init__(self):
            self.want = ray.get(want_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            frames = []
            for i, nm in enumerate(names):
                v = to_ints[nm](b)
                v = v[np.isin(v >> 8, self.want[i])]
                vc, n = np.unique(v, return_counts=True)
                frames.append(pd.DataFrame({
                    "m": np.full(len(vc), i, dtype=np.int64),
                    "vc": vc, "n": n.astype("int64"),
                }))
            return pd.concat(frames, ignore_index=True)

    fine = ds.map_batches(
        FineCounts, batch_format="pandas", concurrency=(1, 4)
    ).to_pandas()
    fine = _pysum_cols(fine, ["n"])

    out = {}
    for i, nm in enumerate(names):
        fm = fine[fine["m"] == i].groupby("vc")["n"].sum().sort_index()
        out[nm] = {}
        for q in qs:
            b_ = targets[nm][q]
            in_b = fm[(fm.index.to_numpy() >> 8) == b_]
            offset = ranks[nm][q] - before[nm][b_]
            pos = int(np.searchsorted(in_b.cumsum().to_numpy(), offset + 1))
            out[nm][q] = int(in_b.index[pos])
    return out, total


def q_lineitem_price_quantiles(sf_dir: str):
    """GLOBAL order statistics WITHOUT a global sort — exact corpus-wide
    p25/median/p90 of l_extendedprice via the shared two-pass
    distributed selection (:func:`_selection_quantiles`); the only
    float op is the shared /100 back to currency."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_extendedprice"]
    )

    def cents(b: pd.DataFrame):
        return np.round(
            b["l_extendedprice"].to_numpy() * 100).astype("int64")

    vals, total = _selection_quantiles(
        ds, cents, {"p25": 0.25, "median": 0.5, "p90": 0.9})
    out = {name: float(v) / 100.0 for name, v in vals.items()}
    out["n_rows"] = total
    return pd.DataFrame([out])


def q_docs_source_cap(sf_dir: str):
    """PER-SOURCE CAP (domain-mixing quota): keep at most k documents
    per source, chosen deterministically by md5(doc_id) order — the
    per-domain cap every web-corpus curation pass applies so no single
    site dominates the mixture, reproducible at any parallelism (no
    RNG, no arrival-order dependence). Same shape as grouped top-k:
    per-batch (source, h) candidates → ONE bounded source-hash
    exchange → vectorized sort + cumcount < k inside the bucket. The
    per-row md5 is one C call (docs_sample / docs_shuffle precedent,
    oracle-pinned); the bucket hash is batch-vectorized."""
    import hashlib

    K = 10

    ds = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "source"]
    )

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(str(int(i)).encode()).hexdigest()
             for i in b["doc_id"]]
        return b.assign(h=h)

    def cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "h", "doc_id"])
        keep = g.groupby("source", sort=False).cumcount() < K
        return g.loc[keep, ["doc_id", "source"]]

    out = bucket_group_map(
        ds.map_batches(tag, batch_format="pandas"),
        key_buckets("source", auto_buckets(ds)), cap,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_events_dedup_consecutive(sf_dir: str):
    """DEBOUNCE / run-length compaction: drop events repeating the same
    user's immediately-previous event_type (in (ts, event_id) order) —
    the consecutive-duplicate collapse a streaming ingest applies
    before sessionization. One vectorized shift + boundary mask per
    user bucket (the q_events_transitions machinery, filtering instead
    of aggregating); survivors are carried verbatim."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    )

    def debounce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same_user = np.empty(len(g), dtype=bool)
        same_user[0] = False
        same_user[1:] = uid[1:] == uid[:-1]
        same_type = np.empty(len(g), dtype=bool)
        same_type[0] = False
        same_type[1:] = et[1:] == et[:-1]
        keep = ~(same_user & same_type)
        return g.loc[keep, ["event_id", "user_id", "event_type"]]

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), debounce).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _deletion_variants(s: str, k: int) -> set[str]:
    """All strings obtainable from ``s`` by deleting at most ``k``
    characters (the FastSS deletion neighborhood; Bocek et al. 2007,
    public construction). Size is sum_{i<=k} C(len(s), i) — bounded
    for the short-string columns this op targets (document the len cap
    at the call site)."""
    from itertools import combinations

    out = {s}
    n = len(s)
    for d in range(1, min(k, n) + 1):
        for idx in combinations(range(n), d):
            t = s
            for p in reversed(idx):
                t = t[:p] + t[p + 1:]
            out.add(t)
    return out


def _levenshtein_pairs(a, b) -> "np.ndarray":
    """Exact Levenshtein distance for n string pairs AT ONCE: one
    numpy DP — O(Lmax_a × Lmax_b) vector steps, each across all n
    pairs, no per-pair Python loop. Strings are laid out as numpy
    fixed-width unicode (NUL-padded in memory); pad cells get
    per-side sentinels above U+10FFFF so padding never matches.
    Each pair's distance is read at its own (len_a, len_b) DP cell,
    which depends only on real characters."""
    import numpy as np

    n = len(a)
    la = np.fromiter((len(s) for s in a), dtype=np.int64, count=n)
    lb = np.fromiter((len(s) for s in b), dtype=np.int64, count=n)
    La, Lb = int(la.max()), int(lb.max())
    if La == 0:
        return lb.copy()
    if Lb == 0:
        return la.copy()
    A = np.asarray(a, dtype=f"U{La}").view(np.uint32).reshape(n, La)
    B = np.asarray(b, dtype=f"U{Lb}").view(np.uint32).reshape(n, Lb)
    A = np.where(A == 0, np.uint32(0x110001), A)
    B = np.where(B == 0, np.uint32(0x110002), B)
    D = np.zeros((La + 1, Lb + 1, n), dtype=np.int32)
    D[:, 0, :] = np.arange(La + 1, dtype=np.int32)[:, None]
    D[0, :, :] = np.arange(Lb + 1, dtype=np.int32)[:, None]
    for i in range(1, La + 1):
        for j in range(1, Lb + 1):
            cost = (A[:, i - 1] != B[:, j - 1]).astype(np.int32)
            D[i, j] = np.minimum(
                np.minimum(D[i - 1, j], D[i, j - 1]) + 1,
                D[i - 1, j - 1] + cost,
            )
    return D[la, lb, np.arange(n)].astype(np.int64)


def _fuzzy_name_pairs(names, K: int, nb: int, carry: str | None = None):
    """Shared fuzzy-join core: Dataset of DISTINCT ``p_name`` rows
    (plus an optional int64 ``carry`` column riding along, e.g. a
    representative id) → lazy Dataset of verified pairs
    (name_a, name_b, dist[, <carry>_a, <carry>_b]) within Levenshtein
    distance K. Candidate generation is the FastSS deletion
    neighborhood: ed(s,t) <= K implies the optimal alignment's
    exactly-matched positions form a common subsequence with <= K
    deletions from EACH side, so near pairs always share a variant;
    a shared variant implies ed <= 2K, so variant buckets only grow
    with genuine near-dup families. Hash collisions just add
    candidates that the exact verify kills."""
    import numpy as np

    from ..stages import hashing

    def emit_variants(b: pd.DataFrame) -> pd.DataFrame:
        # vectorized deletion neighborhoods: per LENGTH group, each of
        # the C(L,1)+C(L,2) deletion masks is ONE numpy column-select
        # over the whole group's char matrix (no per-name Python work;
        # semantics == _deletion_variants, pytest-gated)
        # vectorized deletion neighborhoods: per LENGTH group, each of
        # the C(L,1)+C(L,2) deletion masks is ONE numpy column-select
        # over the whole group's char matrix (no per-name Python work;
        # semantics == _deletion_variants, pytest-gated)
        from itertools import combinations

        arr = b["p_name"].to_numpy()
        car = b[carry].to_numpy().astype(np.int64) if carry else None
        lens = np.fromiter((len(s) for s in arr), np.int64, len(arr))
        parts = []

        def frame(sub, v, subc):
            d = {"p_name": sub, "v": v}
            if carry:
                d[carry] = subc
            return pd.DataFrame(d)

        for L in np.unique(lens):
            L = int(L)
            m = lens == L
            sub = arr[m]
            subc = car[m] if carry else None
            parts.append(frame(sub, sub, subc))
            if L == 0:
                continue
            chars = np.asarray(sub, dtype=f"U{L}").view(np.uint32)
            chars = chars.reshape(len(sub), L)
            for d in range(1, min(K, L) + 1):
                w = L - d
                for idx in combinations(range(L), d):
                    if w == 0:
                        v = np.full(len(sub), "", dtype=object)
                    else:
                        keep = [c for c in range(L) if c not in idx]
                        vm = np.ascontiguousarray(chars[:, keep])
                        v = vm.view(f"U{w}").ravel()
                    parts.append(frame(sub, v, subc))
        allv = pd.concat(parts, ignore_index=True).drop_duplicates(
            subset=["p_name", "v"])
        vh = hashing.mix64(
            hashing.hash_strings64(
                allv["v"].to_numpy().astype(object), categorize=False)
        ).view(np.int64)
        out = {"p_name": allv["p_name"].to_numpy(), "vh": vh}
        if carry:
            out[carry] = allv[carry].to_numpy()
        return pd.DataFrame(out)

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # run-length pairing over (vh-sorted) rows: size-2 variant
        # groups (the common case) pair in one vectorized gather;
        # only larger near-dup families loop
        g = g.drop_duplicates(["vh", "p_name"]).sort_values(
            ["vh", "p_name"])
        vh = g["vh"].to_numpy()
        nm = g["p_name"].to_numpy()
        n = len(g)
        ecols = {"name_a": pd.Series([], dtype=object),
                 "name_b": pd.Series([], dtype=object)}
        if carry:
            ecols[f"{carry}_a"] = pd.Series([], dtype=np.int64)
            ecols[f"{carry}_b"] = pd.Series([], dtype=np.int64)
        empty = pd.DataFrame(ecols)
        if n < 2:
            return empty
        starts = np.flatnonzero(np.r_[True, vh[1:] != vh[:-1]])
        sizes = np.diff(np.r_[starts, n])
        idx_a, idx_b = [], []
        two = starts[sizes == 2]
        if len(two):
            idx_a.append(two)
            idx_b.append(two + 1)
        for s0, sz in zip(starts[sizes > 2], sizes[sizes > 2]):
            i, j = np.triu_indices(int(sz), 1)
            idx_a.append(s0 + i)
            idx_b.append(s0 + j)
        if not idx_a:
            return empty
        ia = np.concatenate(idx_a)
        ib = np.concatenate(idx_b)
        out = {"name_a": nm[ia], "name_b": nm[ib]}
        if carry:
            cv = g[carry].to_numpy()
            out[f"{carry}_a"] = cv[ia]
            out[f"{carry}_b"] = cv[ib]
        return pd.DataFrame(out)

    def dedup_verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["name_a", "name_b"])
        d = _levenshtein_pairs(g["name_a"].to_numpy(),
                               g["name_b"].to_numpy())
        g = g.assign(dist=d)
        cols = ["name_a", "name_b", "dist"]
        if carry:
            cols += [f"{carry}_a", f"{carry}_b"]
        return g.loc[g["dist"] <= K, cols]

    # one bucket holds many variants (vh) and, after pairing, every
    # copy of a candidate pair (all copies share name_a)
    pairs = bucket_group_map(
        names.map_batches(emit_variants, batch_format="pandas"),
        key_buckets("vh", nb), pairs_in_bucket,
    )
    return bucket_group_map(pairs, key_buckets("name_a", nb), dedup_verify)


def q_part_fuzzy_pairs(sf_dir: str):
    """STRING-SIMILARITY SELF-JOIN (fuzzy join): all pairs of DISTINCT
    part names within Levenshtein distance K=2 — the catalog/entity
    near-duplicate matcher (typo'd product names, OCR'd titles).

    Scale shape (no all-pairs pass anywhere):
      1. distinct names — per-batch drop_duplicates, ONE name-hash
         exchange, in-bucket dedup;
      2. candidate generation — FastSS deletion neighborhoods
         (see :func:`_fuzzy_name_pairs`), <= 1+L+C(L,2) keys per
         name (L <= 12 here), pairing inside variant buckets;
      3. pair dedup + verify — ONE pair-hash exchange, in-bucket
         drop_duplicates, then exact vectorized Levenshtein
         (numpy DP over the whole candidate batch) keeps ed <= K.

    Oracle: DuckDB levenshtein() over the distinct-name self-join
    (quadratic — sf0.01 gate only)."""
    import numpy as np

    K = 2

    ds = ray.data.read_parquet(_t(sf_dir, "part"), columns=["p_name"])
    nb = int(auto_buckets(ds))

    def distinct(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"p_name": b["p_name"].drop_duplicates().to_numpy()})

    names = bucket_group_map(
        ds.map_batches(distinct, batch_format="pandas"),
        key_buckets("p_name", nb),
        lambda g: g.drop_duplicates("p_name")[["p_name"]],
    )

    out = _fuzzy_name_pairs(names, K, nb).to_pandas()
    if out.empty:
        return pd.DataFrame({"name_a": pd.Series([], dtype=object),
                             "name_b": pd.Series([], dtype=object),
                             "dist": pd.Series([], dtype=np.int64)})
    return (out[["name_a", "name_b", "dist"]]
            .sort_values(["name_a", "name_b"]).reset_index(drop=True))


def _skyline2d(df: pd.DataFrame) -> pd.DataFrame:
    """2-D Pareto frontier (minimize p_retailprice, maximize p_size),
    fully vectorized: per-price max size, strict cummax over
    ascending price, then keep every row tying its price's max size
    in a surviving price group. Identical (price, size) rows never
    dominate each other, so all ties survive — matching the NOT
    EXISTS skyline definition."""
    import numpy as np

    if df.empty:
        return df
    g = df.groupby("p_retailprice", sort=True)["p_size"].max()
    best_cheaper = g.cummax().shift(1, fill_value=-np.inf)
    kept = g[g > best_cheaper].rename("smax").reset_index()
    out = df.merge(kept, on="p_retailprice")
    return out.loc[out["p_size"] == out["smax"],
                   ["p_partkey", "p_size", "p_retailprice"]]


def q_part_skyline(sf_dir: str):
    """DISTRIBUTED SKYLINE (Pareto frontier): parts not dominated on
    (price low, size high) — the multi-objective shortlist operator
    (best tradeoff curve over a catalog). Classic distributed shape:
    the local frontier of any subset preserves every global frontier
    member, so per-BATCH vectorized skylines shrink the data first,
    a 16-way hash-bucketed middle level re-shrinks, and one final
    tiny skyline finishes — no all-pairs work anywhere. Frontier
    partials for random 2-D data are ~O(log batch) rows, so the
    merge levels stay bounded; adversarially frontier-heavy data
    degrades gracefully (the final level sees exactly the true
    frontier candidates). Oracle: quadratic NOT EXISTS (sf0.01)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"),
        columns=["p_partkey", "p_size", "p_retailprice"],
    )

    out = _skyline2d(bucket_group_map(
        ds.map_batches(_skyline2d, batch_format="pandas"),
        key_buckets("p_partkey", 16), _skyline2d,
    ).to_pandas())
    if out.empty:
        return pd.DataFrame({"p_partkey": pd.Series([], dtype=np.int64),
                             "p_size": pd.Series([], dtype=np.int64),
                             "p_retailprice": pd.Series([], dtype=float)})
    out = out.astype({"p_size": np.int64})  # driver hashes dtypes; SQL BIGINT
    return (out[["p_partkey", "p_size", "p_retailprice"]]
            .sort_values("p_partkey").reset_index(drop=True))


def q_docs_mixture_sample(sf_dir: str):
    """MIXTURE RESAMPLING: allocate a global budget of K=200 documents
    across sources proportional to source size — quota_s =
    max(1, floor(K·n_s / N)) — and keep each source's quota in
    deterministic md5(doc_id) order. This is the mixture-weighting op
    a training-data pipeline runs to hit a target corpus composition;
    the all-INTEGER quota arithmetic (no double division, no sqrt)
    makes the allocation bit-reproducible against any SQL engine and
    at any parallelism.

    Two passes: (1) per-batch per-source count partials → one small
    source-keyed groupby → broadcast quota map (one ray.put, read per
    actor — never reshipped per batch); (2) the docs_source_cap
    machinery with a per-source K looked up from the broadcast map."""
    import hashlib

    K = 200

    ds = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "source"]
    )
    nb = int(auto_buckets(ds))

    # pass 1: exact per-source counts (per-batch partials keep the
    # exchange bounded by the batch's distinct sources)
    counts = (
        ds.map_batches(
            lambda b: b.groupby("source").size().reset_index(name="c"),
            batch_format="pandas",
        )
        .groupby("source")
        .map_groups(
            lambda g: pd.DataFrame(
                {"source": [g["source"].iloc[0]], "c": [int(g["c"].sum())]}
            ),
            batch_format="pandas",
        )
        .to_pandas()
    )
    total = int(counts["c"].sum())
    quota = {
        s: max(1, (K * int(c)) // total)
        for s, c in zip(counts["source"], counts["c"])
    }
    quota_ref = ray.put(quota)

    class Tag:
        def __init__(self):
            self.quota = ray.get(quota_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            h = [hashlib.md5(str(int(i)).encode()).hexdigest()
                 for i in b["doc_id"]]
            q = b["source"].map(self.quota).astype("int64")
            return b.assign(h=h, q=q)

    def cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "h", "doc_id"])
        keep = g.groupby("source", sort=False).cumcount() < g["q"]
        return g.loc[keep.to_numpy(), ["doc_id", "source"]]

    out = bucket_group_map(
        ds.map_batches(Tag, batch_format="pandas", concurrency=2),
        key_buckets("source", nb), cap,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_part_name_clusters(sf_dir: str):
    """ENTITY RESOLUTION: cluster parts whose names match exactly OR
    within Levenshtein distance 2, labeling every part with the min
    partkey of its cluster — the fuzzy-join-then-connected-components
    composition a catalog/entity pipeline runs to collapse typo'd
    records onto one canonical entity.

    Scale shape: ONE name-hash exchange computes, per distinct name,
    the representative (min partkey) AND the exact-duplicate star
    edges (rep → member) in the same group; the fuzzy pairs between
    distinct names come from the shared FastSS machinery
    (:func:`_fuzzy_name_pairs`) carrying the rep id, so fuzzy edges
    are emitted as (rep_a, rep_b) without a second join; both edge
    sets union into the distributed min-label-propagation CC
    (stages/dedup.py::dup_clusters — bucketed, pointer-jumping,
    O(1) driver memory). Oracle: recursive CTE over the same edge
    definition."""
    import numpy as np

    from ..stages.dedup import dup_clusters

    K = 2

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_name"]
    )
    nb = int(auto_buckets(ds))

    def per_name(g: pd.DataFrame) -> pd.DataFrame:
        # one group holds every row of each name hashing here: compute
        # rep + star edges + the distinct-name row in one pass.
        # kind 0 = star edge (a=rep, b=member); kind 1 = distinct name
        rep = g.groupby("p_name")["p_partkey"].transform("min")
        g = g.assign(rep=rep.astype(np.int64))
        star = g.loc[g["p_partkey"] != g["rep"]]
        nm = g.drop_duplicates("p_name")
        return pd.concat([
            pd.DataFrame({"kind": np.int64(0), "p_name": "",
                          "a": star["rep"].to_numpy(),
                          "b": star["p_partkey"].to_numpy()}),
            pd.DataFrame({"kind": np.int64(1),
                          "p_name": nm["p_name"].to_numpy(),
                          "a": nm["rep"].to_numpy(),
                          "b": np.int64(-1)}),
        ], ignore_index=True)

    rows = bucket_group_map(
        ds, key_buckets("p_name", nb), per_name
    ).materialize()  # consumed twice (star edges + distinct names)

    star_edges = rows.map_batches(
        lambda b: b.loc[b["kind"] == 0, ["a", "b"]].rename(
            columns={"a": "doc_a", "b": "doc_b"}),
        batch_format="pandas",
    )
    names = rows.map_batches(
        lambda b: b.loc[b["kind"] == 1, ["p_name", "a"]].rename(
            columns={"a": "rep"}),
        batch_format="pandas",
    )

    fuzzy_edges = _fuzzy_name_pairs(names, K, nb, carry="rep").map_batches(
        lambda b: b[["rep_a", "rep_b"]].rename(
            columns={"rep_a": "doc_a", "rep_b": "doc_b"}),
        batch_format="pandas",
    )

    out = dup_clusters(ds, star_edges.union(fuzzy_edges),
                       id_col="p_partkey")
    return out.sort_values("p_partkey").reset_index(drop=True)


def q_docs_pmi(sf_dir: str, min_count: int = 5):
    """PMI COLLOCATION MINING: corpus-global pointwise-mutual-information
    scores for every adjacent word pair occurring at least ``min_count``
    times — the classic collocation extractor (Church & Hanks) a
    training-data pipeline runs to find multi-word expressions worth
    preserving through tokenization. PMI = log(P(x,y) / (P(x)·P(y)));
    log is monotone, so the emitted ``pmi_ratio`` = c_xy·T / (c_x·c_y)
    ranks identically and stays ONE mirrored float expression over
    integer partials (bit-reproducible vs SQL, the events_share /
    lm_score pattern).

    Two bounded blob exchanges (``stages/exchange.py``), both keyed by
    TOKEN hash so unigram counts and the bigrams needing them co-locate:
      1. bucket by hash(x): sum bigram partials → global c_xy (every
         occurrence of (x,y) shares x), sum unigram partials → global
         c_x, filter c_xy ≥ min_count EARLY (prunes the second exchange
         to the survivors), attach c_x, emit per-bucket T partials;
      2. bucket by hash(y): attach c_y from the same unigram table.
    The driver sees only the filtered collocations plus ≤n_buckets
    T-partial rows. int64 headroom: c_x·c_y < 2^63 holds through ~3e9
    occurrences of both words; past that, carry the product as float.
    """
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    nb = int(auto_buckets(ds))

    E1 = {"kind": np.int64, "x": object, "y": object, "cnt": np.int64}

    def _empty(schema: dict) -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in schema.items()})

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("").str.strip().str.lower()
        lists = text[(text != "").to_numpy()].str.split().tolist()
        if not lists:
            return _empty(E1)
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        flat = np.concatenate([np.asarray(l, dtype=object) for l in lists])
        # unigram partials over ALL token occurrences
        u = pd.DataFrame({"x": flat}).groupby("x", as_index=False).size()
        u = pd.DataFrame({"kind": np.int64(0), "x": u["x"], "y": "",
                          "cnt": u["size"].astype(np.int64)})
        # bigram partials: adjacent tokens within the same document
        doc_pos = np.arange(len(flat)) - np.repeat(
            np.cumsum(lens) - lens, lens)
        same_doc = doc_pos[1:] != 0
        parts = [u]
        if same_doc.any():
            bg = pd.DataFrame({"x": flat[:-1][same_doc],
                               "y": flat[1:][same_doc]})
            bg = bg.groupby(["x", "y"], as_index=False).size()
            parts.append(pd.DataFrame({
                "kind": np.int64(1), "x": bg["x"], "y": bg["y"],
                "cnt": bg["size"].astype(np.int64)}))
        return pd.concat(parts, ignore_index=True)

    def bucket1(g: pd.DataFrame) -> pd.DataFrame:
        cols = ["kind", "x", "y", "c1", "c2"]
        uni = (g.loc[g["kind"] == 0].groupby("x", as_index=False)["cnt"]
               .sum())
        bgp = g.loc[g["kind"] == 1]
        bg = bgp.groupby(["x", "y"], as_index=False)["cnt"].sum()
        t_part = int(bg["cnt"].sum())
        out = [pd.DataFrame({"kind": np.int64(2), "x": "", "y": "",
                             "c1": np.array([t_part], dtype=np.int64),
                             "c2": np.int64(0)})]
        if len(uni):
            out.append(pd.DataFrame({
                "kind": np.int64(0), "x": uni["x"], "y": "",
                "c1": uni["cnt"].astype(np.int64), "c2": np.int64(0)}))
        keep = bg[bg["cnt"] >= min_count]
        if len(keep):
            m = keep.merge(uni.rename(columns={"cnt": "cx"}), on="x")
            out.append(pd.DataFrame({
                "kind": np.int64(1), "x": m["x"], "y": m["y"],
                "c1": m["cnt"].astype(np.int64),
                "c2": m["cx"].astype(np.int64)}))
        return pd.concat(out, ignore_index=True)[cols]

    def bucket2(g: pd.DataFrame) -> pd.DataFrame:
        cols = ["kind", "x", "y", "cxy", "cx", "cy"]
        out = [pd.DataFrame({
            "kind": np.int64(2), "x": "", "y": "",
            "cxy": g.loc[g["kind"] == 2, "c1"].astype(np.int64),
            "cx": np.int64(0), "cy": np.int64(0)})]
        bg = g.loc[g["kind"] == 1]
        if len(bg):
            uni = (g.loc[g["kind"] == 0].groupby("x", as_index=False)["c1"]
                   .sum().rename(columns={"x": "y", "c1": "cy"}))
            m = bg.merge(uni, on="y")
            out.append(pd.DataFrame({
                "kind": np.int64(1), "x": m["x"], "y": m["y"],
                "cxy": m["c1"].astype(np.int64),
                "cx": m["c2"].astype(np.int64),
                "cy": m["cy"].astype(np.int64)}))
        return pd.concat(out, ignore_index=True)[cols]

    def y_bucket(t: pa.Table) -> np.ndarray:
        # a bigram row meets y's unigram row (kind 0, word in x); the
        # T partials (kind 2, x = "") share one bucket
        word = pc.if_else(pc.equal(t.column("kind"), 1),
                          t.column("y"), t.column("x"))
        return (key_hash64(word) % np.uint64(nb)).astype(np.int64)

    emitted = ds.map_batches(emit, batch_format="pandas")
    ex1 = bucket_group_map(emitted, key_buckets("x", nb), bucket1)
    out = bucket_group_map(ex1, y_bucket, bucket2).to_pandas()

    total = int(out.loc[out["kind"] == 2, "cxy"].sum())
    f = out.loc[out["kind"] == 1].copy()
    cxy = f["cxy"].to_numpy(dtype=np.int64)
    cx = f["cx"].to_numpy(dtype=np.int64)
    cy = f["cy"].to_numpy(dtype=np.int64)
    # ONE mirrored float expression (left-assoc like the SQL):
    # (double(cxy) * double(T)) / double(cx*cy)
    ratio = (cxy.astype(np.float64) * np.float64(total)) / (
        (cx * cy).astype(np.float64))
    res = pd.DataFrame({
        "term_x": f["x"].astype(str), "term_y": f["y"].astype(str),
        "pair_count": cxy, "count_x": cx, "count_y": cy,
        "pmi_ratio": ratio})
    return (res.sort_values(["term_x", "term_y"])
            .reset_index(drop=True))


def q_docs_lm_score(sf_dir: str):
    """CORPUS-LM COMMONNESS SCORE: build a global bigram count table
    over the corpus, then score every document by the mean corpus
    count of its bigram occurrences — the count-based stand-in for
    the LM-perplexity quality filter (CCNet-style) a training-data
    pipeline runs: documents whose word transitions are rare in the
    corpus (boilerplate glyph soup, OCR noise) score low.

    One pipeline, two bounded exchanges, all-integer until ONE final
    double division (bit-reproducible vs SQL):
      1. each batch emits its doc bigram rows AND its partial bigram
         counts, both keyed by BIGRAM hash; inside the bigram bucket
         the partials sum to global counts and a vectorized merge
         scores the doc rows (no separate join pass);
      2. per-doc partial (n, sum) rows re-key by DOC hash; the doc
         bucket sums and divides once. Docs with < 2 tokens have no
         bigrams and are excluded (the SQL join drops them too).

    Bigrams travel as 64-bit window hashes (hash_strings64 token
    hashes → window_hashes polynomial — one vectorized pass, no
    string building), the docs_gram_dups equivalence argument:
    counts-per-hash == counts-per-bigram absent a 64-bit collision,
    and the oracle gate verifies the equality holds on the graded
    corpus. Rewrote a 1M-doc corpus pass from 103 s → see BASELINE."""
    import numpy as np

    from ..stages import hashing

    ds = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    nb = int(auto_buckets(ds))

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("").str.strip().str.lower()
        nz = (text != "").to_numpy()
        lists = text[nz].str.split().tolist()
        ids = b.loc[nz, "doc_id"].to_numpy()
        schema = {
            "kind": pd.Series([], dtype=np.int64),
            "doc_id": pd.Series([], dtype=np.int64),
            "bgh": pd.Series([], dtype=np.int64),
            "cnt": pd.Series([], dtype=np.int64),
        }
        if not lists:
            return pd.DataFrame(schema)
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        flat = np.concatenate(
            [np.asarray(l, dtype=object) for l in lists])
        doc_rep = np.repeat(ids, lens)
        if len(flat) < 2:
            return pd.DataFrame(schema)
        # bigram rows: adjacent tokens within the same document,
        # hashed in one vectorized window pass
        th = hashing.hash_strings64(flat, categorize=True)
        wh = hashing.window_hashes(th, 2)
        same_doc = doc_rep[1:] == doc_rep[:-1]
        bgh = wh[same_doc].view(np.int64)
        if len(bgh) == 0:
            return pd.DataFrame(schema)
        occ = pd.DataFrame({"doc_id": doc_rep[:-1][same_doc],
                            "bgh": bgh})
        # collapse occurrences to (doc, bigram, tf) BEFORE the
        # exchange — sum-over-occurrences == sum(tf * global count)
        d = occ.groupby(["doc_id", "bgh"], as_index=False).size().rename(
            columns={"size": "cnt"})  # cnt = tf for kind-1 rows
        d["cnt"] = d["cnt"].astype(np.int64)
        d["kind"] = np.int64(1)
        # partial GLOBAL counts for the same bigrams
        p = d.groupby("bgh", as_index=False)["cnt"].sum()
        p["kind"] = np.int64(0)
        p["doc_id"] = np.int64(-1)
        cols = ["kind", "doc_id", "bgh", "cnt"]
        return pd.concat([p[cols], d[cols]], ignore_index=True)

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g.loc[g["kind"] == 0].groupby("bgh")["cnt"].sum()
               .rename("c"))
        docs = g.loc[g["kind"] == 1, ["doc_id", "bgh", "cnt"]]
        m = docs.merge(cnt, left_on="bgh", right_index=True)
        m["s"] = m["cnt"].to_numpy() * m["c"].to_numpy()
        return m.groupby("doc_id", as_index=False).agg(
            n=("cnt", "sum"), s=("s", "sum"))

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", as_index=False).agg(
            n_bigrams=("n", "sum"), sum_cnt=("s", "sum"))
        score = (out["sum_cnt"].to_numpy().astype(np.float64)
                 / out["n_bigrams"].to_numpy())
        return out.assign(lm_score=score).astype(
            {"n_bigrams": np.int64, "sum_cnt": np.int64})

    # both exchanges go through the blob exchange (bucket_group_map):
    # the all-to-all sorts blocks x buckets blob rows instead of the
    # tens of millions of (doc, bigram) rows
    emitted = ds.map_batches(emit, batch_format="pandas")
    scored = bucket_group_map(emitted, key_buckets("bgh", nb), score_bucket)
    out = bucket_group_map(
        scored, key_buckets("doc_id", nb), finalize).to_pandas()
    return (out[["doc_id", "n_bigrams", "sum_cnt", "lm_score"]]
            .sort_values("doc_id").reset_index(drop=True))


def q_events_user_gini(sf_dir: str):
    """BEHAVIORAL DIVERSITY: Gini impurity of each user's event-type
    distribution — 1 − Σ n_t² / n², the bot/spam screen a behavioral
    pipeline runs (impurity 0 = single-type automation). All-integer
    partials (per-batch (user, type) counts → ONE user-hash exchange
    → in-bucket exact counts and squared sums); the only float math
    is the final division+subtraction, written identically in the SQL
    oracle so the doubles match bit-for-bit."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    nb = auto_buckets(ds)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = (b.groupby(["user_id", "event_type"], as_index=False)
               .size().rename(columns={"size": "c"}))
        out["c"] = out["c"].astype("int64")
        return out

    def gini(g: pd.DataFrame) -> pd.DataFrame:
        t = (g.groupby(["user_id", "event_type"], as_index=False)["c"]
             .sum())
        t["c2"] = t["c"].to_numpy() ** 2
        agg = t.groupby("user_id", as_index=False).agg(
            n=("c", "sum"), ssq=("c2", "sum"))
        n = agg["n"].to_numpy().astype(np.int64)
        ssq = agg["ssq"].to_numpy().astype(np.int64)
        score = 1.0 - (ssq.astype(np.float64) / (n * n).astype(np.float64))
        return pd.DataFrame({"user_id": agg["user_id"].astype("int64"),
                             "n_events": n, "gini": score})

    out = bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("user_id", nb), gini,
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def q_customer_rfm(sf_dir: str):
    """RFM SEGMENTATION: per active customer — recency (days since
    their last order, vs the corpus max date), frequency (order
    count), monetary (exact-cents spend) — each scored 1–4 by EXACT
    global quartiles. The composite every retention/curriculum
    pipeline runs; everything integer until the single /100.

    Scale shape: one partial-max pass finds the global max date; ONE
    custkey-hash exchange builds per-customer exact aggregates
    (materialized — one bounded row per customer); each metric's
    quartile thresholds come from the shared two-pass distributed
    selection (:func:`_selection_quantiles`, no global sort); a final
    vectorized compare assigns the 1–4 scores."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )
    nb = int(auto_buckets(ds))

    gmax = (
        ds.map_batches(
            lambda b: pd.DataFrame({"mx": [b["o_orderdate"].max()]}),
            batch_format="pandas",
        ).to_pandas()["mx"].max()
    )
    gmax_us = np.int64(pd.Timestamp(gmax).value // 1000)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame({
            "c_custkey": b["o_custkey"].to_numpy(),
            "mx": b["o_orderdate"].to_numpy(),
            "cents": cents,
        })
        g = d.groupby("c_custkey", as_index=False).agg(
            mx=("mx", "max"), frequency=("mx", "size"),
            cents=("cents", "sum"))
        g["frequency"] = g["frequency"].astype("int64")
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("c_custkey", as_index=False).agg(
            mx=("mx", "max"), frequency=("frequency", "sum"),
            cents=("cents", "sum"))
        mx_us = out["mx"].to_numpy().astype("datetime64[us]").astype(np.int64)
        out["recency_days"] = (gmax_us - mx_us) // 86_400_000_000
        return out[["c_custkey", "recency_days", "frequency", "cents"]]

    per_cust = bucket_group_map(
        ds.map_batches(part, batch_format="pandas"),
        key_buckets("c_custkey", nb), combine,
    ).materialize()  # bounded (one row per customer); re-streamed by
    #                  each quantile pass below

    QS = {"q1": 0.25, "q2": 0.5, "q3": 0.75}
    th, _ = _selection_quantiles_multi(
        per_cust,
        {col: (lambda c: lambda b: b[c].to_numpy())(col)
         for col in ("recency_days", "frequency", "cents")},
        QS)
    th_ref = ray.put(th)

    class Score:
        def __init__(self):
            self.th = ray.get(th_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            out = {"c_custkey": b["c_custkey"].to_numpy().astype("int64"),
                   "recency_days": b["recency_days"].to_numpy(),
                   "frequency": b["frequency"].to_numpy(),
                   "monetary": b["cents"].to_numpy().astype(np.float64)
                   / 100.0}
            for col, label in (("recency_days", "r_q"),
                               ("frequency", "f_q"), ("cents", "m_q")):
                t = self.th[col]
                v = b[col].to_numpy()
                out[label] = (1 + (v > t["q1"]).astype("int64")
                              + (v > t["q2"]) + (v > t["q3"]))
            return pd.DataFrame(out)

    out = per_cust.map_batches(
        Score, batch_format="pandas", concurrency=(1, 4)).to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_lineitem_weighted_quantiles(sf_dir: str):
    """QUANTITY-WEIGHTED price quantiles: the price points below which
    25/50/90% of all shipped UNITS (not line rows) fall — the
    volume-weighted percentile a pricing/mixture analysis needs.
    Same shared two-pass distributed selection, weighted variant
    (:func:`_selection_quantiles` with integer l_quantity weights;
    exact integer weight sums, no global sort); rule = smallest price
    whose cumulative unit weight ≥ ceil(q·W), mirrored in the SQL
    oracle's window cumsum."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_extendedprice", "l_quantity"],
    )

    def cents(b: pd.DataFrame):
        return np.round(
            b["l_extendedprice"].to_numpy() * 100).astype("int64")

    def qty(b: pd.DataFrame):
        return b["l_quantity"].to_numpy().astype("int64")

    vals, total_w = _selection_quantiles(
        ds, cents, {"wp25": 0.25, "wmedian": 0.5, "wp90": 0.9},
        to_weight=qty)
    out = {name: float(v) / 100.0 for name, v in vals.items()}
    out["total_units"] = total_w
    return pd.DataFrame([out])


def q_orders_order_gap(sf_dir: str):
    """INTER-ARRIVAL ANALYSIS: per customer with ≥ 2 orders, the
    number / median / max of day gaps between consecutive orders (by
    (o_orderdate, o_orderkey)) — the churn-risk cadence feature. ONE
    custkey-hash exchange; inside the bucket one sort + one shift
    computes every customer's gaps (no per-customer loop); gaps are
    exact BIGINT days, and the median's only float op is the final
    halving of two small ints — exact in IEEE, so DuckDB's
    median(BIGINT) matches bit-for-bit (the r3 lesson: integer-domain
    medians are reproducible, DOUBLE-domain ones are not)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_orderdate"],
    )

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        cust = g["o_custkey"].to_numpy()
        days = (g["o_orderdate"].to_numpy().astype("datetime64[us]")
                .astype(np.int64) // 86_400_000_000)
        gap = np.empty(len(g), dtype=np.int64)
        gap[0] = -1
        gap[1:] = days[1:] - days[:-1]
        same = np.empty(len(g), dtype=bool)
        same[0] = False
        same[1:] = cust[1:] == cust[:-1]
        d = pd.DataFrame({"c_custkey": cust[same], "gap": gap[same]})
        if d.empty:
            return pd.DataFrame({
                "c_custkey": pd.Series([], dtype=np.int64),
                "n_gaps": pd.Series([], dtype=np.int64),
                "median_gap": pd.Series([], dtype=np.float64),
                "max_gap": pd.Series([], dtype=np.int64)})
        out = d.groupby("c_custkey", as_index=False).agg(
            n_gaps=("gap", "size"), median_gap=("gap", "median"),
            max_gap=("gap", "max"))
        return out.astype({"n_gaps": np.int64, "max_gap": np.int64,
                           "median_gap": np.float64})

    out = bucket_group_map(
        ds, key_buckets("o_custkey", auto_buckets(ds)), gaps).to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_events_dau_mau(sf_dir: str):
    """ENGAGEMENT STICKINESS: per calendar day — exact distinct active
    users that day (DAU), exact distinct users of the containing
    month (MAU), and the DAU/MAU ratio — the standard engagement
    metric. Exact distinct at scale: per-batch (user, day) dedup
    partials → ONE user-hash exchange where per-(bucket, day) and
    per-(bucket, month) distinct counts are computed vectorized —
    counts over DISJOINT user sets are additive, so the tiny per-day
    merge on the driver is exact (the events_user_distinct shape,
    two granularities in one pass). Integer counts; the ratio is the
    single mirrored float division."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "user_id": g["user_id"].to_numpy(),
            "day": g["ts"].dt.strftime("%Y-%m-%d"),
        })
        dd = d.drop_duplicates()
        day_counts = dd.groupby("day", as_index=False).size().rename(
            columns={"size": "n"})
        day_counts["kind"] = 0
        m = pd.DataFrame({
            "user_id": d["user_id"],
            "day": d["day"].str.slice(0, 7),  # month key
        }).drop_duplicates()
        mon_counts = m.groupby("day", as_index=False).size().rename(
            columns={"size": "n"})
        mon_counts["kind"] = 1
        out = pd.concat([day_counts, mon_counts], ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return out

    parts = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), per_bucket).to_pandas()
    parts = _pysum_cols(parts, ["n"])
    agg = parts.groupby(["kind", "day"], as_index=False)["n"].sum()
    dau = agg.loc[agg["kind"] == 0, ["day", "n"]].rename(
        columns={"n": "dau"})
    mau = agg.loc[agg["kind"] == 1, ["day", "n"]].rename(
        columns={"day": "month", "n": "mau"})
    dau["month"] = dau["day"].str.slice(0, 7)
    out = dau.merge(mau, on="month")
    out["stickiness"] = (out["dau"].to_numpy().astype(np.float64)
                         / out["mau"].to_numpy().astype(np.float64))
    out = out[["day", "dau", "mau", "stickiness"]].astype(
        {"dau": "int64", "mau": "int64"})
    return out.sort_values("day").reset_index(drop=True)


def q_docs_dup_rate_by_source(sf_dir: str):
    """DEDUP REPORTING: per source — total docs, docs that global
    keep-first exact dedup would DROP (their text already exists under
    a smaller doc_id anywhere in the corpus), and the drop rate — the
    per-domain duplication report a curation pipeline publishes after
    a dedup pass. ONE text-hash exchange (the exact_dedup shape):
    inside the bucket every full-text group finds its keeper (min
    doc_id, vectorized transform) and collapses to per-source count
    partials; counts over disjoint text groups are additive, so the
    driver merge is |sources| rows and the rate is the single
    mirrored float division."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "source"]
    )
    nb = int(auto_buckets(ds))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keeper = g.groupby("text", sort=False)["doc_id"].transform("min")
        dup = (g["doc_id"].to_numpy() != keeper.to_numpy())
        d = pd.DataFrame({"source": g["source"].to_numpy(),
                          "n_docs": np.int64(1),
                          "n_dups": dup.astype(np.int64)})
        return d.groupby("source", as_index=False).sum()

    parts = bucket_group_map(ds, key_buckets("text", nb), per_bucket).to_pandas()
    parts = _pysum_cols(parts, ["n_docs", "n_dups"])
    out = parts.groupby("source", as_index=False).sum()
    out["dup_rate"] = (out["n_dups"].to_numpy().astype(np.float64)
                       / out["n_docs"].to_numpy().astype(np.float64))
    out = out.astype({"n_docs": "int64", "n_dups": "int64"})
    return out.sort_values("source").reset_index(drop=True)


def q_embeddings_norm_quantiles(sf_dir: str):
    """FLOAT-DOMAIN SELECTION: exact global quantiles of the per-vector
    L2 norm — the embedding-health check (collapsed / exploding norms)
    run before similarity indexing. Floats enter the shared integer
    selection primitive via FIXED-POINT micro-units: v = floor(norm ·
    1e6) (floor of the same IEEE product on both engines — no rounding
    ties, the money-column pattern), so the two-pass histogram stays
    bounded by the VALUE RANGE / 256 and the result is bit-exact vs
    quantile_disc over the same quantization. Norms reuse the
    sequential-cumsum kernel that matches DuckDB's list_sum order."""
    import numpy as np
    import pyarrow as pa

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["embedding"]
    )

    def micro_norm(b) -> np.ndarray:
        t = b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
        emb = t.column("embedding").combine_chunks()
        offs = emb.offsets.to_numpy()
        lens = np.diff(offs)
        flat = emb.flatten().to_numpy(
            zero_copy_only=False).astype(np.float64)
        sq = flat * flat
        if len(lens) and lens[0] > 0 and (lens == lens[0]).all():
            tot = np.cumsum(sq.reshape(len(lens), lens[0]), axis=1)[:, -1]
        else:
            tot = np.array([np.cumsum(sq[s:e])[-1] if e > s else 0.0
                            for s, e in zip(offs[:-1], offs[1:])])
        return np.floor(np.sqrt(tot) * 1e6).astype(np.int64)

    vals, total = _selection_quantiles(
        ds, micro_norm, {"qp25": 0.25, "qmedian": 0.5, "qp90": 0.9})
    out = {name: float(v) / 1e6 for name, v in vals.items()}
    out["n_vecs"] = total
    return pd.DataFrame([out])


def q_docs_language_mixture(sf_dir: str):
    """LANGUAGE MIXTURE REPORT: per (source, predicted language) —
    document count and within-source share — the composition dashboard
    a multilingual-corpus pipeline publishes (and the input to
    language-aware mixture weights). Reuses the vetted LangIdUDF
    kernel (vectorized stopword argmax, CJK short-circuit) with the
    source column riding through; per-batch (source, lang) count
    partials bound the exchange, the driver merge is |sources|×|langs|
    Python-int rows, and the share is the single mirrored float
    division of exact int64 counts."""
    import numpy as np

    from ..stages.text_analysis import LangIdUDF

    class WithSource(LangIdUDF):
        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            src = batch["source"].to_numpy()
            out = super().__call__(batch)  # preserves row order
            d = pd.DataFrame({"source": src,
                              "lang_pred": out["lang_pred"].to_numpy()})
            p = d.groupby(["source", "lang_pred"], as_index=False).size()
            p["size"] = p["size"].astype("int64")
            return p.rename(columns={"size": "n_docs"})

    ds = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "source", "lang"]
    ).map_batches(
        WithSource(), batch_format="pandas", batch_size=2048,
    )
    parts = _pysum_cols(ds.to_pandas(), ["n_docs"])
    out = parts.groupby(["source", "lang_pred"], as_index=False).sum()
    out["n_docs"] = out["n_docs"].astype("int64")
    totals = out.groupby("source")["n_docs"].transform("sum")
    out["share"] = (out["n_docs"].to_numpy().astype(np.float64)
                    / totals.to_numpy().astype(np.float64))
    return (out.sort_values(["source", "lang_pred"])
            .reset_index(drop=True))


def q_customer_order_counts(sf_dir: str):
    """Count-of-counts with zero-fill (TPC-H Q13 shape): the
    distribution of per-customer order counts INCLUDING customers with
    no orders — the LEFT-join-then-double-groupby idiom. Reference n/a
    (engine-level relational op).

    Scale shape: orders pre-aggregate to per-batch (custkey, partial
    count) rows — the exchange carries at most |distinct custkeys per
    batch| rows per batch, never raw orders — and customer keys ride
    the SAME custkey-hash bucketed exchange, so the zero-fill LEFT
    join, the per-customer sum and the count-of-counts partial all
    happen inside one bounded bucket group. The driver only merges
    per-bucket (c_count, partial) rows: O(buckets × distinct counts),
    independent of row volume."""
    import numpy as np

    orders_ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey"])
    cust_ds = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey"])
    # orders-metadata sizing is an upper bound for the exchange (it
    # carries per-batch DISTINCT-custkey partials, not raw orders)
    nb = auto_buckets(orders_ds, cust_ds)

    def order_partials(b: pa.Table) -> pa.Table:
        k = b.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, cnt = np.unique(k, return_counts=True)
        return pa.table({
            "key": pa.array(uniq),
            "cnt": pa.array(cnt.astype(np.int64)),
            "is_cust": pa.array(np.zeros(len(uniq), dtype=np.int64)),
        })

    def cust_rows(b: pa.Table) -> pa.Table:
        k = b.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(k),
            "cnt": pa.array(np.zeros(len(k), dtype=np.int64)),
            "is_cust": pa.array(np.ones(len(k), dtype=np.int64)),
        })

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        per_key = g.groupby("key").agg(cnt=("cnt", "sum"),
                                       is_cust=("is_cust", "max"))
        counts = per_key.loc[per_key["is_cust"] == 1, "cnt"]
        vc = counts.value_counts()
        return pd.DataFrame({"c_count": vc.index.astype("int64"),
                             "n_custs": vc.to_numpy().astype("int64")})

    orders = orders_ds.map_batches(order_partials, batch_format="pyarrow")
    cust = cust_ds.map_batches(cust_rows, batch_format="pyarrow")

    parts = bucket_group_map(
        orders.union(cust), key_buckets("key", nb), bucket
    ).to_pandas()
    out = parts.groupby("c_count", as_index=False)["n_custs"].sum()
    out["n_custs"] = out["n_custs"].astype("int64")
    return out.sort_values("c_count").reset_index(drop=True)


def q_orders_big_spenders(sf_dir: str):
    """HAVING-filter join-back (TPC-H Q18 shape): customers whose
    lifetime order spend is ≥ a threshold, returned WITH their detail
    order rows and the qualifying total. Reference n/a (engine-level).

    The aggregate-then-retrieve needs ONE exchange: detail rows and the
    aggregate co-locate in the same custkey-hash bucket, so the
    per-customer sum, the HAVING filter and the detail join-back all
    run inside one bucket group — no second shuffle, no broadcast of a
    qualifying-key set. Money sums are exact int64 cents (bounded by
    bucket size; the qualifying output is small by construction)."""
    import numpy as np

    thresh_cents = 480_000_000  # $4.8M lifetime spend
    orders_ds = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )
    nb = auto_buckets(orders_ds)

    def add_cents(b: pa.Table) -> pa.Table:
        k = b.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.round(
            b.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "o_custkey": pa.array(k),
            "o_orderkey": b.column("o_orderkey"),
            "price_cents": pa.array(cents),
        })

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("o_custkey")["price_cents"].sum()
        qual = tot[tot >= thresh_cents]
        out = g[g["o_custkey"].isin(qual.index)].copy()
        out["cust_total_cents"] = qual.reindex(out["o_custkey"]).to_numpy()
        return out[["o_custkey", "o_orderkey", "price_cents",
                    "cust_total_cents"]]

    out = bucket_group_map(
        orders_ds.map_batches(add_cents, batch_format="pyarrow"),
        key_buckets("o_custkey", nb), bucket,
    ).to_pandas()
    return (
        out.astype({"o_custkey": "int64", "o_orderkey": "int64",
                    "price_cents": "int64", "cust_total_cents": "int64"})
        .sort_values(["o_custkey", "o_orderkey"])
        .reset_index(drop=True)
    )


def q_part_pagerank(sf_dir: str):
    """DISTRIBUTED ITERATIVE GRAPH ANALYTICS #2 (power-iteration family,
    complementing the min-label-propagation connected components): PageRank
    over the part co-purchase graph — parts are linked when they appear in
    the same order, the standard fact-table-to-graph construction.

    Integer-exact (fixed-point 1e6 scale, per-edge floor division by
    out-degree, damping as one integer multiply + floor-divide per node
    per iteration), so the 5-iteration result is BITWISE identical at any
    parallelism AND reproducible by the oracle's unrolled chained CTEs
    with the same integer expressions. See
    :mod:`htmlparsersharp_ray.stages.graph` for the scale shape (one
    reused degree-decorated edge exchange + two bounded bucket groupbys
    per iteration — a Pregel superstep)."""
    from ..stages.graph import group_cooccurrence_edges, pagerank

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    out = pagerank(edges, iters=5).to_pandas()
    out = out.rename(columns={"r": "pagerank_scaled"}).astype(
        {"node": "int64", "pagerank_scaled": "int64"})
    return (out[["node", "pagerank_scaled"]]
            .sort_values("node").reset_index(drop=True))


def q_part_bfs_hops(sf_dir: str):
    """MULTI-SOURCE BFS REACHABILITY over the part co-purchase graph:
    minimum hop distance from any size-1 part to every part reachable
    within 3 hops — the graph-traversal kernel (impact radius, k-hop
    neighborhood expansion, taint propagation) on the same
    fact-table-to-graph construction as PageRank/triangles.

    Integer mins only, so the bounded-frontier propagation is bitwise
    identical at any parallelism and hash-exact vs a bounded recursive
    CTE. See :func:`htmlparsersharp_ray.stages.graph.bfs_hops` for the
    scale shape (edge blobs ride the blob exchange unparsed; per-round
    work is proportional to the frontier's out-edges)."""
    from ..stages.graph import bfs_hops, group_cooccurrence_edges

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    def size1(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("p_size"), pa.scalar(1))
        return pa.table({"node": b.filter(keep).column("p_partkey")
                         .cast(pa.int64())})

    sources = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size"]
    ).map_batches(size1, batch_format="pyarrow")
    out = bfs_hops(edges, sources, max_hops=3).to_pandas()
    out = out.astype({"node": "int64", "hops": "int64"})
    return (out[["node", "hops"]]
            .sort_values("node").reset_index(drop=True))


def q_part_sssp(sf_dir: str):
    """WEIGHTED SHORTEST PATH (bounded Bellman-Ford) over the part
    co-purchase graph: minimum total edge weight from any size-1 part
    within 4 edges, where an edge's weight falls with tie strength —
    w = 1 + 20 // (number of co-purchase orders). The min-plus sibling
    of part_bfs_hops: same graph construction, a semiring upgrade.

    Integer weights and mins only, so the frontier-tagged propagation
    (:func:`htmlparsersharp_ray.stages.graph.sssp`) is bitwise identical
    at any parallelism and hash-exact vs four unrolled relaxation CTEs
    (no path-enumeration blowup: each CTE is one aggregating join)."""
    import numpy as np

    from ..stages.graph import group_cooccurrence_weighted_edges, sssp

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    weighted = group_cooccurrence_weighted_edges(
        li, "l_orderkey", "l_partkey")

    def to_w(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt").to_numpy(zero_copy_only=False)
        return pa.table({
            "src": batch.column("src"),
            "dst": batch.column("dst"),
            "w": pa.array(1 + 20 // cnt.astype(np.int64)),
        })

    edges = weighted.map_batches(to_w, batch_format="pyarrow")

    def size1(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("p_size"), pa.scalar(1))
        return pa.table({"node": b.filter(keep).column("p_partkey")
                         .cast(pa.int64())})

    sources = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size"]
    ).map_batches(size1, batch_format="pyarrow")
    out = sssp(edges, sources, max_rounds=4).to_pandas()
    out = out.astype({"node": "int64", "dist": "int64"})
    return (out[["node", "dist"]]
            .sort_values("node").reset_index(drop=True))


def q_part_communities(sf_dir: str):
    """COMMUNITY DETECTION (synchronous label propagation, 3 rounds)
    over the part co-purchase graph: every part's community label after
    three simultaneous majority-vote rounds (ties to the smallest
    label). Sixth graph-family member — an argmax semiring next to
    pagerank's weighted average, CC's min, BFS/SSSP's min-hop/min-plus.

    Synchronous updates make each round a pure function of the last
    labeling, so the propagation is bitwise-deterministic and
    hash-exact vs three unrolled vote-then-argmax CTEs (classic
    asynchronous LPA is visit-order-dependent — uncheckable)."""
    from ..stages.graph import group_cooccurrence_edges, label_propagation

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    out = label_propagation(edges, iters=3).to_pandas()
    out = out.astype({"node": "int64", "label": "int64"})
    return (out[["node", "label"]]
            .sort_values("node").reset_index(drop=True))


def q_part_substitutes(sf_dir: str, min_support: int = 5):
    """GRAPH SIMILARITY JOIN (k-truss support): for every co-purchase
    edge with at least ``min_support`` common neighbors, the common-
    neighbor count, both degrees, and the neighbor-set Jaccard — the
    structural-equivalence signal behind substitute detection ("parts
    bought alongside the same things") and truss decomposition.

    Exact integer support via the degree-ordered wedge pipeline (each
    triangle credits its three edges; see
    :func:`htmlparsersharp_ray.stages.graph.edge_support`); the Jaccard
    over N(u)\\{v} vs N(v)\\{u} is ONE mirrored float expression over
    integer fields — hash-exact vs the oracle's adjacency self-join."""
    import numpy as np

    from ..stages.graph import edge_support, group_cooccurrence_edges

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    out = edge_support(edges).to_pandas()
    out = out[out["support"] >= min_support].copy()
    sup = out["support"].to_numpy(dtype=np.int64)
    du = out["deg_u"].to_numpy(dtype=np.int64)
    dv = out["deg_v"].to_numpy(dtype=np.int64)
    out["nbr_jaccard"] = sup.astype(np.float64) / (du + dv - 2 - sup)
    out = out.astype({"u": "int64", "v": "int64", "support": "int64",
                      "deg_u": "int64", "deg_v": "int64"})
    return (out[["u", "v", "support", "deg_u", "deg_v", "nbr_jaccard"]]
            .sort_values(["u", "v"]).reset_index(drop=True))


def q_part_triangles(sf_dir: str):
    """DISTRIBUTED TRIANGLE COUNTING over the part co-purchase graph —
    per-node triangle membership counts, the classic graph-statistics
    kernel (clustering-coefficient numerator, community density).

    Degree-ordered wedge generation bounds the per-node fan-out at
    O(sqrt(m)) for any degree distribution (a hub's C(deg,2) wedge
    blow-up never happens); wedges close against the undirected edge set
    in one pair-bucket semi-join. Exact integer counts — bitwise
    deterministic at any parallelism (pytest differential vs brute-force
    enumeration across block layouts). Oracle: the a<b<c three-way
    self-join (quadratic in edges — sf0.01 gate scale)."""
    from ..stages.graph import group_cooccurrence_edges, triangle_counts

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    out = triangle_counts(edges).to_pandas().astype(
        {"node": "int64", "triangles": "int64"})
    return (out[["node", "triangles"]]
            .sort_values("node").reset_index(drop=True))


def q_part_link_predict(sf_dir: str):
    """LINK PREDICTION over the part co-purchase graph: for every pair
    of parts that do NOT co-occur in any order, count their common
    co-purchase neighbors and keep pairs sharing >= 22 — the structural
    "customers who bought X also bought Y" candidate generator
    (Liben-Nowell & Kleinberg's common-neighbors score), sixth member
    of the graph family (a WEDGE-count kernel, where triangles is a
    wedge-CLOSURE kernel).

    Exact integer counts — bitwise deterministic at any parallelism and
    hash-exact vs the wedge self-join oracle. See
    :func:`htmlparsersharp_ray.stages.graph.common_neighbor_pairs` for
    the scale shape (center-bucketed wedge partials + one pair-bucket
    merge carrying edge anti-markers; ``max_center_degree`` is the
    hub-cap scale knob — unused here so the oracle needs no cap
    mirror, exercised in pytest)."""
    from ..stages.graph import common_neighbor_pairs, group_cooccurrence_edges

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    out = common_neighbor_pairs(edges, min_common=22).to_pandas()
    if out.empty:  # Ray drops columns on all-empty to_pandas()
        out = pd.DataFrame({c: pd.Series([], dtype="int64")
                            for c in ("u", "v", "common")})
    out = out.rename(columns={"u": "part_a", "v": "part_b",
                              "common": "common_neighbors"}).astype(
        {"part_a": "int64", "part_b": "int64", "common_neighbors": "int64"})
    return (out[["part_a", "part_b", "common_neighbors"]]
            .sort_values(["part_a", "part_b"]).reset_index(drop=True))


# k of part_kcore / part_ktruss; the DuckDB oracles import them
PART_KCORE_K = 82
PART_KTRUSS_K = 4


def q_part_kcore(sf_dir: str):
    """K-CORE DECOMPOSITION of the part co-purchase graph (k=82 —
    just below the sf0.01 percolation threshold at 83, giving a
    20-round peeling cascade that still leaves a core): the maximal
    subgraph where every part co-occurs with ≥ k others. Third member
    of the iterative-graph family — fixpoint peeling (vs fixed power
    iterations and converging label propagation); per round two
    blob-exchange endpoint filters against one degree snapshot, one
    edge-count convergence scalar. Deterministic integer degrees;
    SQL-ORACLED since round 5 (__ray_entry__._kcore_oracle_sql: the
    peel unrolled as 40 bounded SQL rounds — monotone, so post-fixpoint
    rounds are no-ops; measured depths 3/19/8 at the three sfs), plus
    the sequential-peel differential pytest
    (tests/test_stages.py::test_kcore_*)."""
    from ..stages.graph import group_cooccurrence_edges, kcore

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    out = kcore(edges, k=PART_KCORE_K).to_pandas()
    if out.empty:  # Ray drops columns on all-empty to_pandas()
        out = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                            "core_deg": pd.Series([], dtype="int64")})
    out = out.astype({"node": "int64", "core_deg": "int64"})
    return (out[["node", "core_deg"]]
            .sort_values("node").reset_index(drop=True))


def q_part_sorted_neighbors(sf_dir: str):
    """SORTED-NEIGHBORHOOD dedup blocking (Hernández & Stolfo's classic
    merge/purge method — the third candidate-generation family next to
    FastSS deletion neighborhoods and MinHash banding): sort the
    DISTINCT names alphabetically, compare each name only to its w=10
    nearest neighbors in sort order, keep pairs within Levenshtein 2.

    Scale shape — global alphabetical order WITHOUT a global sort:
    names range-partition by their 2-char prefix (prefix order is
    consistent with full-string order, so bucket-local sorted ranks are
    globally contiguous); in-bucket window pairs come from w vectorized
    shift passes over the sorted array; pairs that CROSS bucket
    boundaries involve only each bucket's first/last w names, which
    flow (with local index + bucket count) into one tiny straddle
    group that reconstructs global ranks from the carried counts —
    no driver participation. The exact Levenshtein verify is the
    shared all-pairs numpy DP (:func:`_levenshtein_pairs`).

    Oracle: ROW_NUMBER window self-join on rank distance ≤ w with
    DuckDB levenshtein() (quadratic in w·names — sf0.01 gate)."""
    import numpy as np

    W, K = 10, 2

    ds = ray.data.read_parquet(_t(sf_dir, "part"), columns=["p_name"])

    def distinct(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"p_name": b["p_name"].drop_duplicates().astype(str)})

    def prefix_bucket(t: pa.Table) -> np.ndarray:
        # one bucket per distinct 2-char prefix: code points + 1 (each
        # < 2^21) packed, so no two prefixes share a bucket
        return np.array([sum((ord(c) + 1) << (21 * i)
                             for i, c in enumerate(s[:2]))
                         for s in t.column("p_name").to_pylist()],
                        dtype=np.int64)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        names = np.sort(g["p_name"].astype(str).unique())
        n = len(names)
        out_a, out_b = [], []
        for k in range(1, min(W, n - 1) + 1):
            out_a.append(names[:-k])
            out_b.append(names[k:])
        cand_a = (np.concatenate(out_a) if out_a
                  else np.empty(0, dtype=object))
        cand_b = (np.concatenate(out_b) if out_b
                  else np.empty(0, dtype=object))
        pb = str(names[0])[:2]
        head = np.arange(min(W, n))
        tail = np.arange(max(0, n - W), n)
        edge_idx = np.unique(np.concatenate([head, tail]))
        return pd.concat([
            pd.DataFrame({"kind": np.int64(0), "name_a": cand_a,
                          "name_b": cand_b, "pb": "", "idx": np.int64(-1),
                          "cnt": np.int64(-1)}),
            pd.DataFrame({"kind": np.int64(1), "name_a": names[edge_idx],
                          "name_b": "", "pb": pb,
                          "idx": edge_idx.astype(np.int64),
                          "cnt": np.int64(n)}),
        ], ignore_index=True)

    rows = bucket_group_map(
        ds.map_batches(distinct, batch_format="pandas"),
        prefix_bucket, bucket_pairs,
    ).materialize()  # consumed twice (in-bucket pairs + straddle)

    in_bucket = rows.map_batches(
        lambda b: b.loc[b["kind"] == 0, ["name_a", "name_b"]],
        batch_format="pandas")

    def straddle_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # reconstruct global ranks: offsets = cumsum of per-bucket
        # counts in prefix order (counts ride on every straddle row)
        counts = (g.drop_duplicates("pb").sort_values("pb")
                  [["pb", "cnt"]])
        offs = dict(zip(counts["pb"],
                        np.concatenate([[0], counts["cnt"].cumsum()
                                        .to_numpy()[:-1]])))
        rank = (g["pb"].map(offs).to_numpy(dtype=np.int64)
                + g["idx"].to_numpy(dtype=np.int64))
        order = np.argsort(rank, kind="stable")
        nm = g["name_a"].to_numpy(dtype=object)[order]
        rk = rank[order]
        pb = g["pb"].to_numpy(dtype=object)[order]
        out_a, out_b = [], []
        for k in range(1, len(nm)):
            # straddle-set neighbors are not rank-adjacent in general;
            # pair every element with later ones within rank window W,
            # cross-bucket only (in-bucket pairs already emitted)
            ok = (rk[k:] - rk[:-k] <= W) & (pb[k:] != pb[:-k])
            if not ok.any():
                continue
            out_a.append(nm[:-k][ok])
            out_b.append(nm[k:][ok])
        if not out_a:
            return pd.DataFrame({"name_a": pd.Series([], dtype=object),
                                 "name_b": pd.Series([], dtype=object)})
        return pd.DataFrame({"name_a": np.concatenate(out_a),
                             "name_b": np.concatenate(out_b)})

    straddle = bucket_group_map(  # one global straddle group
        rows.map_batches(
            lambda b: b.loc[b["kind"] == 1, ["pb", "name_a", "idx", "cnt"]],
            batch_format="pandas"),
        lambda t: np.zeros(t.num_rows, dtype=np.int64), straddle_pairs,
    )

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return pd.DataFrame({"name_a": pd.Series([], dtype=object),
                                 "name_b": pd.Series([], dtype=object),
                                 "dist": pd.Series([], dtype="int64")})
        a = b["name_a"].to_numpy(dtype=object)
        c = b["name_b"].to_numpy(dtype=object)
        d = _levenshtein_pairs(a, c)
        keep = d <= K
        lo = np.minimum(a[keep], c[keep])
        hi = np.maximum(a[keep], c[keep])
        return pd.DataFrame({"name_a": lo, "name_b": hi,
                             "dist": d[keep].astype("int64")})

    out = (
        in_bucket.union(straddle)
        .map_batches(verify, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame({"name_a": pd.Series([], dtype=object),
                             "name_b": pd.Series([], dtype=object),
                             "dist": pd.Series([], dtype="int64")})
    return (out.drop_duplicates(["name_a", "name_b"])
            .sort_values(["name_a", "name_b"]).reset_index(drop=True))


def q_events_cdc_apply(sf_dir: str):
    """CDC APPLY WITH TOMBSTONES: materialize the final state of a
    change log — per entity (user_id), the latest change by
    (ts, event_id) wins, and entities whose latest change is a
    tombstone ('error' events stand in for deletes) are ABSENT from
    the result. The merge-on-read compaction step a lakehouse /
    feature-store pipeline runs; extends the keep-latest primitive
    (q_events_latest) with delete semantics.

    Same scale shape: every entity's history lands in one user-hash
    bucket; ONE sort + duplicated() mask picks each entity's latest
    row; a vectorized != filter drops tombstoned entities. Hash-exact
    (rows carried verbatim)."""

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def apply_changes(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        keep = ~g.duplicated(["user_id"], keep="last")
        out = g.loc[keep]
        out = out[out["event_type"] != "error"]
        res = out[["user_id", "event_id", "event_type", "value"]].copy()
        res["ts_us"] = out["ts"].astype("int64")
        return res[["user_id", "event_id", "event_type", "ts_us", "value"]]

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), apply_changes).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def q_lineitem_below_avg(sf_dir: str):
    """Correlated aggregate subquery (TPC-H Q17 shape): per part, sum the
    extended price of lineitem rows whose quantity is below 20% of that
    part's OWN average quantity — the aggregate-compare-filter idiom
    (`l_quantity < (SELECT 0.2*avg(l_quantity) ... WHERE same part)`).
    Reference n/a (engine-level relational op).

    ONE partkey-hash exchange: a part's detail rows co-locate in one
    bucket group, so the per-part (count, sum-of-quantity) aggregate,
    the correlated comparison and the qualifying-row re-aggregate all
    happen inside the group — no second shuffle, no broadcast of the
    per-part averages. The comparison is EXACT integer cross-multiply
    (q_u < sum_q/(5·cnt)  ⇔  5·q_u·cnt < sum_q in 1e-2 quantity
    units), so no float-division drift can flip a boundary row; the
    oracle uses the identical integer predicate. Money stays in int64
    cents (per-part totals — bounded by the bucket's working set; a
    corpus where ONE part's qualifying spend nears 2^63 cents would
    need the _pysum_cols Python-int merge, noted not armed)."""
    import numpy as np

    li_ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    nb = auto_buckets(li_ds)

    def scale(b: pa.Table) -> pa.Table:
        k = b.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        q_u = np.round(
            b.column("l_quantity").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        price_cents = np.round(
            b.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "l_partkey": pa.array(k),
            "q_u": pa.array(q_u), "price_cents": pa.array(price_cents),
        })

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("l_partkey")["q_u"].agg(["count", "sum"])
        cnt = agg["count"].reindex(g["l_partkey"]).to_numpy()
        sum_q = agg["sum"].reindex(g["l_partkey"]).to_numpy()
        below = g.loc[5 * g["q_u"].to_numpy() * cnt < sum_q]
        if below.empty:
            return pd.DataFrame({
                "l_partkey": pd.Series([], dtype="int64"),
                "below_avg_cents": pd.Series([], dtype="int64"),
                "n_below": pd.Series([], dtype="int64"),
            })
        out = below.groupby("l_partkey").agg(
            below_avg_cents=("price_cents", "sum"),
            n_below=("price_cents", "size"),
        ).reset_index()
        return out.astype({"l_partkey": "int64",
                           "below_avg_cents": "int64", "n_below": "int64"})

    out = bucket_group_map(
        li_ds.map_batches(scale, batch_format="pyarrow"),
        key_buckets("l_partkey", nb), bucket,
    ).to_pandas()
    return (out.astype({"l_partkey": "int64", "below_avg_cents": "int64",
                        "n_below": "int64"})
            .sort_values("l_partkey").reset_index(drop=True))


def q_supplier_top_revenue(sf_dir: str):
    """Max-over-aggregate (TPC-H Q15 shape): the supplier(s) whose total
    lineitem revenue equals the GLOBAL maximum — aggregate, find the max
    of the aggregate, return the achievers (ties included, like Q15's
    `total_revenue = (SELECT max(total_revenue) ...)`). Reference n/a
    (engine-level relational op).

    Scale shape: per-batch revenue partials collapse each batch to its
    distinct suppliers BEFORE the exchange; one suppkey-hash bucket
    groupby finalizes per-supplier totals (Python-int merge — exact at
    any corpus size) and each bucket emits ONLY its local argmax rows,
    so the driver merges n_buckets candidate rows, never the supplier
    dimension. Revenue is exact 1e-6-dollar units
    (cents × (10000 − discount·1e4)) — the oracle mirrors it in
    HUGEINT."""
    import numpy as np

    li_ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
    )
    nb = auto_buckets(li_ds)

    def partial(b: pa.Table) -> pa.Table:
        k = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pr_c = np.round(
            b.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        di_u = np.round(
            b.column("l_discount").to_numpy(zero_copy_only=False) * 10000
        ).astype(np.int64)
        rev = pr_c * (10000 - di_u)
        df = pd.DataFrame({"k": k, "rev_u": rev}).groupby(
            "k", as_index=False)["rev_u"].sum()
        return pa.table({
            "l_suppkey": pa.array(df["k"].to_numpy()),
            "rev_u": pa.array(df["rev_u"].to_numpy()),
        })

    def bucket_argmax(g: pd.DataFrame) -> pd.DataFrame:
        # Python-int accumulation (exact at any fan-in), then emit
        # int64: a supplier total wraps only past ~1.8e10 lineitem rows
        # PER supplier (rev_u ≈ 5e8/row) — guarded, not silent
        tot: dict[int, int] = {}
        for k, r in zip(g["l_suppkey"].to_numpy(), g["rev_u"].to_numpy()):
            tot[int(k)] = tot.get(int(k), 0) + int(r)
        best = max(tot.values())
        if best >= (1 << 63):  # pragma: no cover
            raise OverflowError("supplier revenue exceeds int64 units; "
                                "rescale rev_u before the exchange")
        rows = sorted(k for k, v in tot.items() if v == best)
        return pd.DataFrame({
            "l_suppkey": pd.Series(rows, dtype="int64"),
            "total_u": pd.Series([best] * len(rows), dtype="int64"),
        })

    cand = bucket_group_map(
        li_ds.map_batches(partial, batch_format="pyarrow"),
        key_buckets("l_suppkey", nb), bucket_argmax,
    ).to_pandas()
    best = int(cand["total_u"].max())
    out = cand[cand["total_u"] == best]
    return (out[["l_suppkey", "total_u"]]
            .astype({"l_suppkey": "int64", "total_u": "int64"})
            .sort_values("l_suppkey").reset_index(drop=True))


def q_orders_sorted(sf_dir: str):
    """DISTRIBUTED GLOBAL SORT — range-partitioned, never
    ``Dataset.sort()`` (whose all-to-all sort measured 13 s of a 14 s
    flagship run, NOTES r1). Reference n/a (engine-level op).

    Split points are EXACT quantiles of the sort key from the two-pass
    selection machinery (:func:`_selection_quantiles` — bounded driver
    state, no sampling skew, fully deterministic), so every range
    bucket holds ~1/n of the rows BY CONSTRUCTION even under heavy
    value skew. ONE range exchange co-locates each key range; buckets
    sort independently (vectorized); bucket id == global position, so
    at 100 TB each bucket streams straight to its own parquet partition
    (partition dir = global order) with no driver pass. For the graded
    result the driver reassembles with a STABLE int32-key sort on the
    bucket id only — within-bucket order rides through untouched; the
    sort KEY itself is never re-sorted on the driver.

    Total order: (price_cents, o_orderkey) — the exchange ranges on
    price alone (equal keys co-locate), the tie-break resolves inside
    the bucket."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"])
    nparts = auto_buckets(ds)

    def cents(b: pd.DataFrame) -> "np.ndarray":
        return np.round(
            b["o_totalprice"].to_numpy() * 100).astype(np.int64)

    qs = {f"s{i:04d}": i / nparts for i in range(1, nparts)}
    splits_d, _total = _selection_quantiles(ds, cents, qs)
    splits = np.asarray([splits_d[k] for k in sorted(splits_d)],
                        dtype=np.int64)

    def to_cents(b: pa.Table) -> pa.Table:
        c = np.round(
            b.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "price_cents": pa.array(c),
        })

    def range_bucket(price_cents) -> np.ndarray:
        return np.searchsorted(splits, price_cents, side="right").astype(
            np.int64)

    def bucket_sort(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["price_cents", "o_orderkey"])
        return g.assign(rb=range_bucket(g["price_cents"].iloc[:1])[0])

    out = bucket_group_map(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        lambda t: range_bucket(t.column("price_cents").to_numpy()),
        bucket_sort,
    ).to_pandas()
    out = out.sort_values("rb", kind="stable")  # bucket-order merge only
    return (out[["o_orderkey", "price_cents"]]
            .astype({"o_orderkey": "int64", "price_cents": "int64"})
            .reset_index(drop=True))


def q_events_hopping(sf_dir: str):
    """HOPPING-window aggregate (1-hour window, 15-minute hop): every
    event lands in FOUR overlapping windows — the streaming window
    family's other half next to the tumbling q_events_window.
    Reference n/a (engine-level op).

    Shape: a per-batch 4× vectorized expansion (np.repeat/tile on the
    int64 microsecond timestamps — windows are derived keys, no
    shuffle of raw events), then the same exact-cents per-batch partial
    aggregate as the tumbling window: the exchange carries
    (event_type, window, partial) rows only, and the driver merge is
    Python-int exact."""
    import numpy as np

    HOP_US = 15 * 60 * 1_000_000
    K = 4  # window / hop

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "ts", "value"])

    def partial(b: pa.Table) -> pd.DataFrame:
        ts_us = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v_c = np.round(
            b.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        et = np.asarray(b.column("event_type").to_pylist(), dtype=object)
        slot = (ts_us // HOP_US) * HOP_US
        starts = (np.repeat(slot, K)
                  - np.tile(np.arange(K, dtype=np.int64) * HOP_US,
                            len(slot)))
        df = pd.DataFrame({
            "event_type": np.repeat(et, K),
            "window_start_us": starts,
            "value_c": np.repeat(v_c, K),
        })
        return df.groupby(["event_type", "window_start_us"],
                          as_index=False).agg(
            value_c=("value_c", "sum"), n_events=("value_c", "size"))

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = _pysum_cols(parts, ["value_c"])
    df = (parts.groupby(["event_type", "window_start_us"], as_index=False)
          .agg(value_c=("value_c", "sum"), n_events=("n_events", "sum")))
    df["window_start"] = pd.to_datetime(df.pop("window_start_us"), unit="us")
    df["sum_value"] = df.pop("value_c") / 100.0
    df["n_events"] = df["n_events"].astype("int64")
    return (df[["event_type", "window_start", "sum_value", "n_events"]]
            .sort_values(["event_type", "window_start"])
            .reset_index(drop=True))


def q_lineitem_profile(sf_dir: str):
    """DATA-PROFILING AUDIT: per numeric column — null count, EXACT
    distinct count, min and max — the validation pass a pipeline runs
    before trusting an input drop. Reference n/a (engine-level op).

    ONE streaming pass, one exchange: each batch emits (a) one tiny
    stats-partial row per column (nulls/min/max — mergeable anywhere)
    and (b) its batch-local DISTINCT (column, value) pairs, bucketed by
    value hash so a value's global presence is decided inside exactly
    one bucket group; per-bucket per-column distinct partials sum to
    the exact global distinct count. The driver merges
    O(batches × columns + buckets × columns) rows — never values.
    Values travel as float64 bits (exact for these columns' int64
    ranges ≤ 2^53 and for native doubles)."""
    import numpy as np

    cols = ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax"]
    ds = ray.data.read_parquet(_t(sf_dir, "lineitem"), columns=cols)
    nb = auto_buckets(ds)

    # stats rows (nulls/min/max) meet in bucket -1; each distinct value
    # is bucketed by its float64 bits
    def value_bucket(t: pa.Table) -> np.ndarray:
        bits = t.column("value").to_numpy(zero_copy_only=False).view(np.int64)
        vb = key_hash64(pa.array(bits)) % np.uint64(nb)
        return np.where(t.column("stats").to_numpy(zero_copy_only=False),
                        -1, vb.astype(np.int64))

    def partial(b: pa.Table) -> pd.DataFrame:
        frames = []
        for ci, c in enumerate(cols):
            arr = b.column(c)
            n_null = int(arr.null_count)
            v = arr.drop_null().to_numpy(zero_copy_only=False).astype(
                np.float64)
            uniq = np.unique(v)
            if len(uniq):
                frames.append(pd.DataFrame({
                    "stats": False, "col_id": np.int64(ci), "value": uniq,
                    "n_null": np.int64(0),
                }))
            frames.append(pd.DataFrame({
                "stats": [True], "col_id": [np.int64(ci)],
                "value": [uniq[0] if len(uniq) else np.nan],
                "n_null": [np.int64(n_null)],
                "min_v": [uniq[0] if len(uniq) else np.nan],
                "max_v": [uniq[-1] if len(uniq) else np.nan],
            }))
        out = pd.concat(frames, ignore_index=True)
        if "min_v" not in out.columns:
            out["min_v"] = np.nan
            out["max_v"] = np.nan
        return out

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g["stats"].iloc[0]:
            agg = g.groupby("col_id").agg(
                n_null=("n_null", "sum"), min_v=("min_v", "min"),
                max_v=("max_v", "max")).reset_index()
            agg["n_distinct"] = np.int64(0)
            return agg[["col_id", "n_null", "n_distinct", "min_v", "max_v"]]
        d = g.drop_duplicates(["col_id", "value"]).groupby(
            "col_id").size().reset_index(name="n_distinct")
        d["n_null"] = np.int64(0)
        d["min_v"] = np.nan
        d["max_v"] = np.nan
        return d[["col_id", "n_null", "n_distinct", "min_v", "max_v"]]

    parts = bucket_group_map(
        ds.map_batches(partial, batch_format="pyarrow"), value_bucket, bucket
    ).to_pandas()
    out = parts.groupby("col_id").agg(
        n_null=("n_null", "sum"), n_distinct=("n_distinct", "sum"),
        min_v=("min_v", "min"), max_v=("max_v", "max")).reset_index()
    out["col"] = [cols[int(i)] for i in out["col_id"]]
    out = out[["col", "n_null", "n_distinct", "min_v", "max_v"]].astype(
        {"n_null": "int64", "n_distinct": "int64"})
    return out.sort_values("col").reset_index(drop=True)

def q_supplier_ship_islands(sf_dir: str):
    """GAPS-AND-ISLANDS: merge each supplier's overlapping-or-touching
    shipment transit intervals into maximal coverage islands and report
    per supplier the island count, total covered transit time, and the
    longest island — the classic interval-coalescing op (uptime
    stitching, session coverage, contract continuity) that needs an
    ordered scan per key.

    Intervals are half-open ``[ship, ship + transit)`` with a
    DETERMINISTIC synthetic transit (quantity % 30 + 1 days — the table
    carries no receipt date), in int64 epoch-microseconds end to end,
    so the per-bucket vectorized island scan (new island exactly when
    start > running max of prior ends) agrees BITWISE with the oracle's
    window-function formulation. One bounded exchange: supplier-hash
    buckets; inside a bucket the scan is one lexsort + one cumulative
    max per supplier run — no per-row Python.
    """
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_shipdate", "l_quantity"])
    nb = int(auto_buckets(ds))
    DAY_US = np.int64(86_400_000_000)

    def emit(b: pa.Table) -> pa.Table:
        k = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(
            np.int64)
        s = b.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        days = (b.column("l_quantity").to_numpy(zero_copy_only=False)
                .astype(np.int64) % 30 + 1)
        e = s + days * DAY_US
        return pa.table({"k": pa.array(k), "s": pa.array(s),
                         "e": pa.array(e)})

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(dtype=np.int64)
        s = g["s"].to_numpy(dtype=np.int64)
        e = g["e"].to_numpy(dtype=np.int64)
        order = np.lexsort((e, s, k))
        k, s, e = k[order], s[order], e[order]
        new_key = np.r_[True, k[1:] != k[:-1]]
        # prior-rows max end within the supplier run: per-key cummax
        # (C kernel) shifted one row; run-start rows are new islands
        # regardless, so the cross-run leak at shift(1) never matters
        sk = pd.Series(k)
        cm = pd.Series(e).groupby(sk, sort=False).cummax()
        prior = cm.shift(1).fillna(0).to_numpy(dtype=np.int64)
        new_island = new_key | (s > prior)
        isl = np.cumsum(new_island) - 1
        df = pd.DataFrame({"k": k, "isl": isl, "s": s, "e": e})
        agg = df.groupby(["k", "isl"], as_index=False, sort=False).agg(
            is_=("s", "min"), ie=("e", "max"))
        span = agg["ie"].to_numpy() - agg["is_"].to_numpy()
        out = (pd.DataFrame({"k": agg["k"], "span": span})
               .groupby("k", as_index=False, sort=False)
               .agg(n_islands=("span", "size"),
                    covered_us=("span", "sum"),
                    max_island_us=("span", "max")))
        return out.astype({"k": np.int64, "n_islands": np.int64,
                           "covered_us": np.int64,
                           "max_island_us": np.int64})

    out = bucket_group_map(
        ds.map_batches(emit, batch_format="pyarrow"),
        key_buckets("k", nb), islands,
    ).to_pandas()
    out = out.rename(columns={"k": "l_suppkey"})
    return (out[["l_suppkey", "n_islands", "covered_us", "max_island_us"]]
            .sort_values("l_suppkey").reset_index(drop=True))


def q_part_transit_concurrency(sf_dir: str):
    """SWEEP-LINE MAX CONCURRENCY: for every part, the maximum number of
    its shipments simultaneously in transit — the interval-stabbing
    maximum (peak concurrent sessions, warehouse load, connection-pool
    high-water mark). Same deterministic half-open transit intervals as
    q_supplier_ship_islands.

    One bounded exchange keyed by part hash; inside a bucket the sweep
    is fully vectorized: +1/-1 events collapse per (part, timestamp),
    a per-part-run cumulative sum gives the concurrency profile, and a
    per-run max reduces it. Integer events only — bitwise-deterministic
    and hash-exact vs the oracle's window-sum formulation.
    """
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_shipdate", "l_quantity"])
    nb = int(auto_buckets(ds))
    DAY_US = np.int64(86_400_000_000)

    def emit(b: pa.Table) -> pa.Table:
        k = b.column("l_partkey").to_numpy(zero_copy_only=False).astype(
            np.int64)
        s = b.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        days = (b.column("l_quantity").to_numpy(zero_copy_only=False)
                .astype(np.int64) % 30 + 1)
        e = s + days * DAY_US
        # pre-collapse events per (part, ts) inside the batch
        ev = pd.DataFrame({
            "k": np.concatenate([k, k]),
            "d": np.concatenate([s, e]),
            "dl": np.concatenate([np.ones(len(k), dtype=np.int64),
                                  np.full(len(k), -1, dtype=np.int64)]),
        }).groupby(["k", "d"], as_index=False, sort=False)["dl"].sum()
        kk = ev["k"].to_numpy(dtype=np.int64)
        return pa.table({"k": pa.array(kk),
                         "d": pa.array(ev["d"].to_numpy(dtype=np.int64)),
                         "dl": pa.array(ev["dl"].to_numpy(dtype=np.int64))})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        ev = g.groupby(["k", "d"], as_index=False, sort=False)["dl"].sum()
        k = ev["k"].to_numpy(dtype=np.int64)
        d = ev["d"].to_numpy(dtype=np.int64)
        dl = ev["dl"].to_numpy(dtype=np.int64)
        order = np.lexsort((d, k))
        k, dl = k[order], dl[order]
        new_key = np.r_[True, k[1:] != k[:-1]]
        run_id = np.cumsum(new_key) - 1
        c = np.cumsum(dl)
        # reset the cumulative sum at each part run (subtract the
        # prefix before the run start)
        starts = np.flatnonzero(new_key)
        prefix = np.r_[0, c[starts[1:] - 1]][run_id]
        conc = c - prefix
        out = (pd.DataFrame({"k": k, "conc": conc})
               .groupby("k", as_index=False, sort=False)["conc"].max())
        return pd.DataFrame({
            "l_partkey": out["k"].astype(np.int64),
            "max_in_transit": out["conc"].astype(np.int64)})

    out = bucket_group_map(
        ds.map_batches(emit, batch_format="pyarrow"),
        key_buckets("k", nb), sweep,
    ).to_pandas()
    return (out[["l_partkey", "max_in_transit"]]
            .sort_values("l_partkey").reset_index(drop=True))

def q_docs_split(sf_dir: str):
    """GROUP-AWARE TRAIN/VAL/TEST SPLIT: assign every document to a
    split by hashing its SOURCE, so all documents from one source land
    in the same split — the leakage-safe split a training pipeline
    needs (near-duplicates cluster within a source; a doc-level split
    would leak them across train and test). Deterministic md5-based
    (no RNG, no shuffle, reproducible at any parallelism): the first
    md5 byte of the source name picks train (<204/256 ≈ 80%),
    val (<230 ≈ 10%) or test.

    Pure per-batch map with a PER-UNIQUE-SOURCE hash (sources
    factorize; one md5 per distinct source per batch, not per row) —
    zero exchanges, streams at read speed at any scale."""
    import hashlib

    import numpy as np

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "source"]
    )

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        codes, uniques = pd.factorize(batch["source"].fillna(""))
        vals = np.fromiter(
            (int(hashlib.md5(u.encode()).hexdigest()[:2], 16)
             for u in uniques), np.int64, len(uniques))
        v = vals[codes]
        split = np.where(v < 204, "train",
                         np.where(v < 230, "val", "test"))
        return pd.DataFrame({"doc_id": batch["doc_id"].astype("int64"),
                             "source": batch["source"],
                             "split": split})

    out = docs.map_batches(assign, batch_format="pandas").to_pandas()
    return (out[["doc_id", "source", "split"]]
            .sort_values("doc_id").reset_index(drop=True))


def q_docs_search(sf_dir: str, terms: tuple = ("join", "hash", "vector")):
    """BOOLEAN KEYWORD SEARCH (conjunctive): documents containing ALL
    query terms, scored by total term frequency — the AND-retrieval op
    over the same whitespace tokenization as the inverted index
    (docs_postings). A real pipeline uses it for targeted corpus
    slicing ("every doc mentioning all of X, Y, Z").

    Embarrassingly parallel: one ``np.isin`` over the batch's flattened
    tokens against the tiny query set, per-(doc, term) counts via a
    factorized bincount, conjunction = per-doc min over the terms — no
    exchange at all; only matches leave the worker. Integer tf sums →
    hash-exact vs SQL."""
    import numpy as np

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    term_list = list(terms)
    t_index = {t: i for i, t in enumerate(term_list)}
    n_terms = len(term_list)

    def match(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                              "tf_total": pd.Series([], dtype=np.int64)})
        text = b["text"].fillna("").str.strip().str.lower()
        lists = text[(text != "").to_numpy()].str.split().tolist()
        ids = b.loc[(text != "").to_numpy(), "doc_id"].to_numpy(np.int64)
        if not lists:
            return empty
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        flat = np.concatenate([np.asarray(l, dtype=object) for l in lists])
        doc_ix = np.repeat(np.arange(len(lists)), lens)
        hit = np.isin(flat, term_list)
        if not hit.any():
            return empty
        t_ix = np.fromiter((t_index[t] for t in flat[hit]), np.int64,
                           int(hit.sum()))
        # per-(doc, term) counts in one bincount over a combined index
        combo = doc_ix[hit] * n_terms + t_ix
        counts = np.bincount(combo, minlength=len(lists) * n_terms)
        counts = counts.reshape(len(lists), n_terms)
        all_present = (counts > 0).all(axis=1)
        return pd.DataFrame({
            "doc_id": ids[all_present],
            "tf_total": counts[all_present].sum(axis=1).astype(np.int64)})

    out = docs.map_batches(match, batch_format="pandas").to_pandas()
    return (out[["doc_id", "tf_total"]]
            .sort_values("doc_id").reset_index(drop=True))

def q_embeddings_label_centroids(sf_dir: str):
    """GROUPED VECTOR AGGREGATE: the per-label centroid of the embedding
    column — the building block of class prototypes, SemDeDup cluster
    seeds, and per-domain embedding drift monitors.

    Float sums are order-dependent, so the engine sums FIXED-POINT
    int64 components instead: each float32 component scales by 2^20
    (exact — a power-of-two multiply in double) and rounds HALF-TO-EVEN
    (np.rint), which is bitwise DuckDB's CAST(DOUBLE AS BIGINT)
    semantics; integer sums are order-independent at any parallelism,
    and the final mean is ONE mirrored float expression
    (double(sum) / (double(count) * 2^20)). int64 headroom: unit-norm
    components scaled by 2^20 leave room for ~8.8e12 rows per
    (label, dim); past that, raise the final merge to Python ints.

    Per-batch bincount over a (label, dim) combined index — one partial
    row per (label, dim) per batch, merged on the driver (labels × dims
    is tiny); no exchange at all."""
    import numpy as np

    SCALE = np.float64(1 << 20)

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["label", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        v = np.rint(mat * SCALE).astype(np.int64)
        labels = b["label"].to_numpy()
        codes, uniq = pd.factorize(labels)
        n_l, d = len(uniq), mat.shape[1]
        sums = np.zeros((n_l, d), dtype=np.int64)
        np.add.at(sums, codes, v)
        counts = np.bincount(codes, minlength=n_l).astype(np.int64)
        return pd.DataFrame({
            "label": np.repeat(uniq.astype(np.int64), d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n_l),
            "n": np.repeat(counts, d),
            "s": sums.ravel(),
        })

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["label", "dim"], as_index=False).agg(
        n=("n", "sum"), sum_scaled=("s", "sum"))
    centroid = (out["sum_scaled"].to_numpy().astype(np.float64)
                / (out["n"].to_numpy().astype(np.float64) * float(SCALE)))
    out = out.assign(centroid=centroid).astype(
        {"label": np.int64, "dim": np.int64, "n": np.int64,
         "sum_scaled": np.int64})
    return (out[["label", "dim", "n", "sum_scaled", "centroid"]]
            .sort_values(["label", "dim"]).reset_index(drop=True))


def _nc_predictions(sf_dir: str) -> pd.DataFrame:
    """Shared nearest-centroid train+classify core: returns one row per
    ODD vec_id with ``(vec_id, true_label, pred_label)``. The thin
    drivers :func:`q_embeddings_nearest_centroid` (per-row predictions)
    and :func:`q_embeddings_confusion` (error structure) both consume
    this frame, so the integer-exact argmin is defined in exactly one
    place.

    Fully INTEGER-exact, hence bitwise-deterministic at any parallelism
    and SQL-mirrorable with no float-compare at the argmin:
    components quantize to the 2^20 fixed-point grid with np.rint
    (bitwise DuckDB's CAST(AS BIGINT) half-to-even), centroids are
    exact int64 sums divided once in float64 and re-quantized to the
    SAME grid (one mirrored expression), and every squared distance is
    an int64 sum of 32 terms < 2^42 — ties break to the smaller label,
    which numpy argmin and ROW_NUMBER agree on.

    Scale shape: ZERO exchanges. Training is per-batch (label, dim)
    bincount partials driver-merged (labels × dims rows); the k×d
    int64 centroid grid ships in the classify task's closure (the
    kmeans lesson — no actor pool for tiny read-only state) and
    classification is one map-only pass."""
    import numpy as np

    SCALE = np.float64(1 << 20)

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "label", "embedding"])

    def train_partial(b: pd.DataFrame) -> pd.DataFrame:
        vid = b["vec_id"].to_numpy()
        b = b[vid % 2 == 0]
        if not len(b):
            return pd.DataFrame({
                "label": pd.Series([], dtype="int64"),
                "dim": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "s": pd.Series([], dtype="int64"),
            })
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        v = np.rint(mat * SCALE).astype(np.int64)
        codes, uniq = pd.factorize(b["label"].to_numpy())
        n_l, d = len(uniq), mat.shape[1]
        sums = np.zeros((n_l, d), dtype=np.int64)
        np.add.at(sums, codes, v)
        counts = np.bincount(codes, minlength=n_l).astype(np.int64)
        return pd.DataFrame({
            "label": np.repeat(uniq.astype(np.int64), d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n_l),
            "n": np.repeat(counts, d),
            "s": sums.ravel(),
        })

    parts = ds.map_batches(train_partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["label", "dim"], as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    labels = np.sort(agg["label"].unique()).astype(np.int64)
    d = int(agg["dim"].max()) + 1
    qc = np.zeros((len(labels), d), dtype=np.int64)
    lpos = {int(l): i for i, l in enumerate(labels)}
    # centroid re-quantized to the SAME 2^20 grid: rint(float(s) / n)
    qc[[lpos[int(l)] for l in agg["label"]], agg["dim"].to_numpy()] = \
        np.rint(agg["s"].to_numpy().astype(np.float64)
                / agg["n"].to_numpy().astype(np.float64)).astype(np.int64)

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        vid = b["vec_id"].to_numpy()
        b = b[vid % 2 == 1]
        if not len(b):
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype="int64"),
                "true_label": pd.Series([], dtype="int64"),
                "pred_label": pd.Series([], dtype="int64"),
                "margin": pd.Series([], dtype="int64"),
            })
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vq = np.rint(mat * SCALE).astype(np.int64)
        diff = vq[:, None, :] - qc[None, :, :]
        dist = np.einsum("ijk,ijk->ij", diff, diff)  # int64-exact
        # argmin takes the FIRST minimum; rows of qc are label-ascending
        pred = labels[np.argmin(dist, axis=1)]
        if dist.shape[1] >= 2:
            p2 = np.partition(dist, 1, axis=1)
            margin = p2[:, 1] - p2[:, 0]   # 2nd-best minus best
        else:
            margin = np.zeros(len(vq), dtype=np.int64)
        return pd.DataFrame({
            "vec_id": b["vec_id"].to_numpy().astype(np.int64),
            "true_label": b["label"].to_numpy().astype(np.int64),
            "pred_label": pred.astype(np.int64),
            "margin": margin.astype(np.int64),
        })

    out = ds.map_batches(classify, batch_format="pandas").to_pandas()
    return out.astype({"vec_id": "int64", "true_label": "int64",
                       "pred_label": "int64", "margin": "int64"})


def q_embeddings_nearest_centroid(sf_dir: str):
    """Per-row nearest-centroid predictions — see
    :func:`_nc_predictions` for the full construction (integer-exact
    Rocchio classifier, ties to the smaller label)."""
    out = _nc_predictions(sf_dir)
    return (out[["vec_id", "pred_label"]]
            .sort_values("vec_id").reset_index(drop=True))


def q_embeddings_confusion(sf_dir: str):
    """CONFUSION MATRIX of the nearest-centroid classifier — the model-
    EVALUATION op every training pipeline ends with (which labels the
    classifier mixes up, not just how often it is right). Rows are
    ``(true_label, pred_label, n)`` integer counts over the ODD-vec_id
    holdout, so the result is bitwise-deterministic wherever the
    underlying predictions are (they are — `_nc_predictions` is
    integer-exact end to end, driver-query ``embeddings_nearest_
    centroid`` holds that gate).

    Scale shape: inherits the classifier's ZERO-exchange shape; the
    confusion aggregation itself is a labels×labels-bounded groupby of
    per-batch count partials (here: one pandas groupby over the
    already-tiny prediction frame)."""
    out = _nc_predictions(sf_dir)
    m = (out.groupby(["true_label", "pred_label"], as_index=False)
         .size().rename(columns={"size": "n"}))
    return (m.astype({"true_label": "int64", "pred_label": "int64",
                      "n": "int64"})
            .sort_values(["true_label", "pred_label"])
            .reset_index(drop=True))


def q_embeddings_nb(sf_dir: str):
    """BERNOULLI NAIVE BAYES classification (the count-based generative
    sibling of the nearest-centroid discriminator): train per-label bit
    statistics on the EVEN vec_ids over 8 sign features (dim d fires
    iff embedding[d] > 0), predict every ODD vec_id by the
    maximum-score label.

    The smoothing denominator is POOLED (Laplace +1 counts over a
    common (n_l + 2)^d normalizer that cancels in the argmax), so the
    per-label score collapses to a PURE INTEGER product

        score(l) = n_l · Π_d (b_d ? c_dl + 1 : n_l − c_dl + 1)

    — no float, no log, bitwise-deterministic at any parallelism, ties
    to the smaller label. The oracle computes the identical product in
    HUGEINT (exact while n_l ≲ 1.8e4, comfortably beyond every test
    scale; the engine's Python-int scores are unbounded, so only the
    ORACLE has a range note).

    Scale shape: ZERO exchanges — training is per-batch (label, dim)
    count partials driver-merged (labels × 8 rows per batch), and the
    labels × 8 count table ships in the classify task's closure (the
    kmeans lesson). Classification is one map-only pass whose products
    run over object-dtype numpy (exact Python ints, 9 multiplies per
    row-label)."""
    import numpy as np

    D = 8

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "label", "embedding"])

    def train_partial(b: pd.DataFrame) -> pd.DataFrame:
        vid = b["vec_id"].to_numpy()
        b = b[vid % 2 == 0]
        if not len(b):
            return pd.DataFrame({
                "label": pd.Series([], dtype="int64"),
                "dim": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "c": pd.Series([], dtype="int64"),
            })
        mat = np.stack(b["embedding"].to_numpy())[:, :D]
        bits = (mat > 0).astype(np.int64)
        codes, uniq = pd.factorize(b["label"].to_numpy())
        n_l = len(uniq)
        sums = np.zeros((n_l, D), dtype=np.int64)
        np.add.at(sums, codes, bits)
        counts = np.bincount(codes, minlength=n_l).astype(np.int64)
        return pd.DataFrame({
            "label": np.repeat(uniq.astype(np.int64), D),
            "dim": np.tile(np.arange(D, dtype=np.int64), n_l),
            "n": np.repeat(counts, D),
            "c": sums.ravel(),
        })

    parts = ds.map_batches(train_partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(["label", "dim"], as_index=False).agg(
        n=("n", "sum"), c=("c", "sum"))
    labels = np.sort(agg["label"].unique()).astype(np.int64)
    lpos = {int(l): i for i, l in enumerate(labels)}
    n_vec = np.zeros(len(labels), dtype=np.int64)
    c_mat = np.zeros((len(labels), D), dtype=np.int64)
    rows = [lpos[int(l)] for l in agg["label"]]
    c_mat[rows, agg["dim"].to_numpy()] = agg["c"].to_numpy()
    n_vec[rows] = agg["n"].to_numpy()

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        vid = b["vec_id"].to_numpy()
        b = b[vid % 2 == 1]
        if not len(b):
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype="int64"),
                "pred_label": pd.Series([], dtype="int64"),
            })
        mat = np.stack(b["embedding"].to_numpy())[:, :D]
        bits = mat > 0
        best = None
        pred = None
        # ascending label order + strict > keeps the SMALLER label on
        # ties (mirrors ORDER BY score DESC, label in the oracle)
        for i, lab in enumerate(labels):
            pos = (c_mat[i] + 1).astype(object)
            neg = (n_vec[i] - c_mat[i] + 1).astype(object)
            f = np.where(bits, pos[None, :], neg[None, :])
            score = f.prod(axis=1) * int(n_vec[i])
            if best is None:
                best, pred = score, np.full(len(score), int(lab),
                                            dtype=np.int64)
            else:
                m = score > best
                best = np.where(m, score, best)
                pred = np.where(m, int(lab), pred)
        return pd.DataFrame({
            "vec_id": b["vec_id"].to_numpy().astype(np.int64),
            "pred_label": pred.astype(np.int64),
        })

    out = ds.map_batches(classify, batch_format="pandas").to_pandas()
    return (out.astype({"vec_id": "int64", "pred_label": "int64"})
            .sort_values("vec_id").reset_index(drop=True))


def q_embeddings_stump(sf_dir: str):
    """HISTOGRAM-BASED SPLIT FINDING (the GBDT/decision-tree building
    block, LightGBM-style): train a depth-1 decision stump over the
    embedding dims on the EVEN vec_ids, score it on the ODD ones.
    Feature bins are floor(v·16) clipped to [-8, 7]; a candidate split
    (dim, thr) sends bin ≤ thr left; each side predicts its majority
    label (ties to the smaller label); the chosen stump minimizes the
    TRAINING MISCLASSIFICATION COUNT — a pure integer objective, so
    the argmin is exactly SQL-orderable (Gini/entropy would need
    fraction comparisons), ties to the smallest (dim, thr). Splits
    with an empty side are excluded.

    Scale shape: training is ONE map-only pass emitting per-batch
    (dim, bin, label) integer count partials (bounded: dims × bins ×
    labels rows per batch) merged on the driver — the classic
    histogram trick that turns split finding over any corpus size into
    a fixed-size cumsum scan (64 × 16 × 10 ints here). Scoring ships
    the 4-int model in the task's closure; one more map-only pass,
    per-batch correct-count partials."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "label", "embedding"])

    def bins_of(mat: np.ndarray) -> np.ndarray:
        return np.clip(np.floor(mat.astype(np.float64) * 16.0),
                       -8, 7).astype(np.int64)

    def train_partial(b: pd.DataFrame) -> pd.DataFrame:
        vid = b["vec_id"].to_numpy()
        b = b[vid % 2 == 0]
        if not len(b):
            return pd.DataFrame({
                "dim": pd.Series([], dtype="int64"),
                "bin": pd.Series([], dtype="int64"),
                "label": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
            })
        q = bins_of(np.stack(b["embedding"].to_numpy()))
        n_rows, d = q.shape
        lab = b["label"].to_numpy().astype(np.int64)
        dim = np.repeat(np.arange(d, dtype=np.int64), n_rows)
        flat = pd.DataFrame({
            "dim": dim,
            "bin": q.T.ravel(),
            "label": np.tile(lab, d),
        })
        out = flat.groupby(["dim", "bin", "label"], as_index=False).size()
        return out.rename(columns={"size": "n"}).astype("int64")

    parts = ds.map_batches(train_partial, batch_format="pandas").to_pandas()
    hist = parts.groupby(["dim", "bin", "label"], as_index=False)["n"].sum()
    d = int(hist["dim"].max()) + 1
    labels = np.sort(hist["label"].unique()).astype(np.int64)
    lpos = {int(l): i for i, l in enumerate(labels)}
    # (dim, bin+8, label) count cube, then cumsum over bins = every
    # threshold's left-side counts exactly
    cube = np.zeros((d, 16, len(labels)), dtype=np.int64)
    cube[hist["dim"].to_numpy(),
         hist["bin"].to_numpy() + 8,
         [lpos[int(l)] for l in hist["label"]]] = hist["n"].to_numpy()
    left = np.cumsum(cube, axis=1)          # (d, 16, L): bins <= thr
    total = left[:, -1:, :]                 # (d, 1, L)
    right = total - left
    cand = slice(0, 15)                     # thr in [-8, 6]
    n_left = left[:, cand, :].sum(axis=2)
    n_right = right[:, cand, :].sum(axis=2)
    # majority label per side; np.argmax takes the FIRST max — labels
    # ascending ⇒ ties to the smaller label (the oracle's row_number)
    max_l = left[:, cand, :].max(axis=2)
    max_r = right[:, cand, :].max(axis=2)
    miss = (n_left - max_l) + (n_right - max_r)
    valid = (n_left > 0) & (n_right > 0)
    miss_m = np.where(valid, miss, np.iinfo(np.int64).max)
    flat_idx = int(np.argmin(miss_m))       # row-major ⇒ (dim, thr) lex
    best_dim, best_thr_i = divmod(flat_idx, 15)
    best_thr = best_thr_i - 8
    left_label = int(labels[np.argmax(left[best_dim, best_thr_i, :])])
    right_label = int(labels[np.argmax(right[best_dim, best_thr_i, :])])
    n_miss = int(miss[best_dim, best_thr_i])

    def score_partial(b: pd.DataFrame) -> pd.DataFrame:
        vid = b["vec_id"].to_numpy()
        b = b[vid % 2 == 1]
        if not len(b):
            return pd.DataFrame({"n_test": pd.Series([], dtype="int64"),
                                 "n_correct": pd.Series([], dtype="int64")})
        q = bins_of(np.stack(b["embedding"].to_numpy()))[:, best_dim]
        pred = np.where(q <= best_thr, left_label, right_label)
        ok = int((pred == b["label"].to_numpy()).sum())
        return pd.DataFrame({"n_test": [len(b)], "n_correct": [ok]})

    sc = ds.map_batches(score_partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "dim": [int(best_dim)],
        "thr": [int(best_thr)],
        "left_label": [left_label],
        "right_label": [right_label],
        "n_miss_train": [n_miss],
        "n_test": [int(sc["n_test"].sum())],
        "n_test_correct": [int(sc["n_correct"].sum())],
    })


def q_events_late_arrivals(sf_dir: str, lateness_us: int = 300_000_000):
    """STREAMING WATERMARK ACCOUNTING: how many events arrive LATE —
    event-time older than the watermark (running max event-time over
    ARRIVAL order, minus the allowed lateness) at the moment they
    arrive. The op every streaming pipeline needs before windowed
    aggregation: it measures how much data a given watermark delay
    would drop. Arrival order simulates OUT-OF-ORDER ingestion: a
    deterministic md5 permutation of the ingest ids — (md5(event_id),
    event_id) — the shuffled-arrival stress case a watermark policy is
    tuned against (the table itself is time-ordered, which would make
    every event on-time and test nothing).

    A GLOBAL running max over that order WITHOUT a global sort: the
    md5 hex prefix is a range partitioner (docs_shuffle's primitive),
    so two passes suffice:
      1. one map_batches pass emits per-hex-bucket max-ts partials
         (tiny: blocks x 256 rows, merged on the driver into per-bucket
         CARRY maxima — the prefix max of all earlier buckets);
      2. one hex-bucket blob exchange sorts each bucket by
         (md5, event_id) WITHIN the bucket only, takes the shifted
         prefix max, combines it with the broadcast carry, flags
         ts < watermark - lateness, and emits per-type partial counts.
    Integer epoch-us comparisons only — hash-exact vs the oracle's
    window-max formulation. The first arrival globally has no
    watermark (SQL NULL) and is never late (int64-min/4 sentinel)."""
    import hashlib

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "ts", "event_type"])
    SENTINEL = np.int64(-(2 ** 62))

    def md5s(ids: np.ndarray) -> list:
        return [hashlib.md5(str(int(i)).encode()).hexdigest()
                for i in ids]

    def bucket_max(b: pa.Table) -> pd.DataFrame:
        ids = b.column("event_id").to_numpy(zero_copy_only=False).astype(
            np.int64)
        hb = np.array([int(h[:2], 16) for h in md5s(ids)], dtype=np.int64)
        ts = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        out = (pd.DataFrame({"hb": hb, "ts": ts})
               .groupby("hb", as_index=False)["ts"].max())
        return out.rename(columns={"ts": "mx"})

    bmax = (ds.map_batches(bucket_max, batch_format="pyarrow")
            .to_pandas()
            .groupby("hb")["mx"].max())
    # carry[b] = max ts over ALL hex buckets strictly before b
    carry = np.full(256, SENTINEL, dtype=np.int64)
    running = SENTINEL
    for b in range(256):
        carry[b] = running
        if b in bmax.index:
            running = max(running, int(bmax.loc[b]))

    L = np.int64(lateness_us)

    def decorate(b: pa.Table) -> pd.DataFrame:
        ids = b.column("event_id").to_numpy(zero_copy_only=False).astype(
            np.int64)
        hs = md5s(ids)
        return pd.DataFrame({
            "event_id": ids,
            "h": hs,
            "hb": np.array([int(h[:2], 16) for h in hs], dtype=np.int64),
            "tu": b.column("ts").cast(pa.int64()).to_numpy(
                zero_copy_only=False),
            "event_type": b.column("event_type").to_pylist(),
        })

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["hb"].iloc[0])
        g = g.sort_values(["h", "event_id"])
        ts = g["tu"].to_numpy(dtype=np.int64)
        prior = np.empty_like(ts)
        prior[0] = SENTINEL
        np.maximum.accumulate(ts[:-1], out=prior[1:])
        wm = np.maximum(prior, carry[b])
        # never-late sentinel: wm - L stays hugely negative (no wrap)
        late = ts < wm - L
        out = pd.DataFrame({"event_type": g["event_type"].to_numpy(),
                            "late": late.astype(np.int64)})
        return out.groupby("event_type", as_index=False).agg(
            n_events=("late", "size"), n_late=("late", "sum"))

    decorated = ds.map_batches(decorate, batch_format="pyarrow")
    parts = bucket_group_map(
        decorated,
        lambda t: t.column("hb").to_numpy(zero_copy_only=False),
        flag,
    ).to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        n_events=("n_events", "sum"), n_late=("n_late", "sum")).astype(
        {"n_events": "int64", "n_late": "int64"})
    return (out[["event_type", "n_events", "n_late"]]
            .sort_values("event_type").reset_index(drop=True))

def q_events_time_weighted(sf_dir: str):
    """TIME-WEIGHTED AVERAGE (TWAP): per user, the step-function
    time-weighted mean of ``value`` over the user's event timeline —
    each value holds from its event until the next (last event holds
    nothing), weights are whole elapsed seconds. The op behind
    time-weighted prices, utilization billing, and exposure metrics,
    where a plain AVG over-counts bursts.

    Exactness: values scale to int64 ticks via CAST(value*10000.0 AS
    BIGINT) — DuckDB CAST rounds half-to-even, bitwise np.rint — and
    durations are integer floor-div seconds, so the weighted sum is an
    order-independent int64 and the final TWA is ONE mirrored float
    division. Users whose events span < 1 whole second drop (the
    SQL HAVING). int64 headroom: |ticks| ≤ 1e8 × seconds ≤ 1e8 per
    event-gap-day ⇒ ~1e6 event-days per user before overflow.

    One user-hash bucket exchange; inside a bucket the integration is
    fully vectorized over every user at once (sort by (user, ts,
    event_id), shifted timestamps masked at run boundaries, one
    groupby-sum) — the events_sessions shape."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["user_id", "event_id", "ts", "value"])
    nb = int(auto_buckets(ds))

    def twa(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy(dtype=np.int64)
        tu = g["ts"].astype("int64").to_numpy()
        v = np.rint(g["value"].to_numpy(dtype=np.float64)
                    * 10000.0).astype(np.int64)
        nxt = np.empty_like(tu)
        nxt[:-1] = tu[1:]
        last = np.r_[uid[1:] != uid[:-1], True]   # last row of each user
        dt_s = np.where(last, 0, (nxt - tu) // 1_000_000)
        d = pd.DataFrame({"user_id": uid, "w": v * dt_s, "tu": tu})
        agg = d.groupby("user_id", as_index=False, sort=False).agg(
            num_scaled=("w", "sum"), t0=("tu", "min"), t1=("tu", "max"))
        span = (agg["t1"].to_numpy(dtype=np.int64)
                - agg["t0"].to_numpy(dtype=np.int64)) // 1_000_000
        keep = span > 0
        num = agg["num_scaled"].to_numpy(dtype=np.int64)[keep]
        span = span[keep]
        return pd.DataFrame({
            "user_id": agg["user_id"].to_numpy(dtype=np.int64)[keep],
            "num_scaled": num,
            "span_s": span,
            "twa": num.astype(np.float64) / (span.astype(np.float64)
                                             * 10000.0),
        })

    out = bucket_group_map(ds, key_buckets("user_id", nb), twa).to_pandas()
    return (out[["user_id", "num_scaled", "span_s", "twa"]]
            .sort_values("user_id").reset_index(drop=True))


def q_nation_volume(sf_dir: str,
                    broadcast_threshold_bytes: int = 64 << 20):
    """TPC-H Q7 shape (volume shipping): revenue flowing between two
    nations by (supplier nation, customer nation, year).

    Scale shape — the multi-join plan a 100-TB run needs:
      * supplier and nation are broadcast dims (suppkey→nation name,
        pre-filtered to the 2 nations of interest, so the shipped map is
        a FRACTION of the dim);
      * customer is fact-sized ⇒ orders ⋈ customer is the bucketed
        two-sided shuffle join (joins.hash_join), pre-filtered to the
        nation pair on the customer side;
      * lineitem pre-aggregates exact scaled-int64 revenue per
        (l_orderkey, supp_nation, l_year) INSIDE map_batches before its
        shuffle join with orders, so the second join's left side is
        bounded by |orders| × 2 nations × 2 years, not |lineitem|.
    Final aggregate is a tiny exact-cents merge (≤ 8 groups)."""
    import numpy as np

    from .joins import hash_join

    lo = pd.Timestamp("1995-01-01")
    hi = pd.Timestamp("1996-12-31")
    pair = {1: "NATION_1", 2: "NATION_2"}

    # suppkey -> nation name, pruned to the pair's nations; SIZE-GATED
    # (round 5): supplier is 10k rows/SF — linear in scale — so the map
    # broadcasts only while the base table's parquet metadata stays
    # under the cap; beyond it the pruned supplier dataset attaches to
    # the date-filtered lineitem through the bucketed shuffle hash join.
    supp_ds = ray.data.read_parquet(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    try:
        supp_bytes = supp_ds.size_bytes()
    except Exception:
        supp_bytes = None

    def _li_empty() -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": pd.Series([], dtype="int64"),
            "supp_nation": pd.Series([], dtype=object),
            "l_year": pd.Series([], dtype="int64"),
            "rev_u": pd.Series([], dtype="int64"),
        })

    def _li_partial(b: pd.DataFrame, supp_nation: np.ndarray) -> pd.DataFrame:
        """Exact-revenue partial at (orderkey, supp_nation, year) grain
        — shared by both planner paths; ``b`` is already date-filtered
        and supplier-matched."""
        if len(b) == 0:
            return _li_empty()
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(dtype=np.int64),
            "supp_nation": supp_nation,
            "l_year": b["l_shipdate"].dt.year.to_numpy(dtype=np.int64),
            "rev_u": pr_c * (100 - di_c),
        }).groupby(["l_orderkey", "supp_nation", "l_year"],
                   as_index=False, sort=False)["rev_u"].sum()

    li_read = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"],
    )
    if supp_bytes is not None and supp_bytes <= broadcast_threshold_bytes:
        supp = supp_ds.to_pandas()
        supp = supp[supp["s_nationkey"].isin(pair.keys())]
        supp_map_ref = ray.put((
            np.sort(supp["s_suppkey"].to_numpy(dtype=np.int64)),
            supp.sort_values("s_suppkey")["s_nationkey"]
                .map(pair).to_numpy(dtype=object),
        ))

        class LiPartial:
            """Filter + broadcast supplier-nation attach + partial."""

            def __init__(self):
                self.keys, self.nations = ray.get(supp_map_ref)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                if len(self.keys) == 0:
                    return _li_empty()
                b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] <= hi)]
                sk = b["l_suppkey"].to_numpy(dtype=np.int64)
                pos = np.searchsorted(self.keys, sk)
                pos_c = np.minimum(pos, len(self.keys) - 1)
                ok = self.keys[pos_c] == sk
                b = b[ok]
                if len(b) == 0:
                    return _li_empty()
                return _li_partial(b, self.nations[pos_c[ok]])

        li = li_read.map_batches(LiPartial, batch_format="pandas",
                                 concurrency=(1, 4))
    else:
        pair_arr = pa.array(sorted(pair.keys()), pa.int64())
        supp_pruned = supp_ds.map_batches(
            lambda t: t.filter(pc.is_in(t.column("s_nationkey"),
                                        value_set=pair_arr)),
            batch_format="pyarrow",
        )
        li_dated = li_read.map_batches(
            lambda b: b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] <= hi)],
            batch_format="pandas",
        )
        li = hash_join(
            li_dated, supp_pruned, left_on="l_suppkey", right_on="s_suppkey"
        ).map_batches(
            lambda b: _li_partial(
                b, b["s_nationkey"].map(pair).to_numpy(dtype=object)),
            batch_format="pandas",
        )

    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda df: pd.DataFrame({
            "c_custkey": df.loc[df["c_nationkey"].isin(pair.keys()),
                                "c_custkey"],
            "cust_nation": df.loc[df["c_nationkey"].isin(pair.keys()),
                                  "c_nationkey"].map(pair),
        }),
        batch_format="pandas",
    )

    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )
    o_nat = hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey"
    ).map_batches(
        lambda df: df[["o_orderkey", "cust_nation"]], batch_format="pandas"
    ).repartition(8)

    joined = hash_join(li, o_nat, left_on="l_orderkey", right_on="o_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["supp_nation"] != df["cust_nation"]]
        return df.groupby(["supp_nation", "cust_nation", "l_year"],
                          as_index=False, sort=False)["rev_u"].sum()

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    if len(parts) == 0:  # all-empty to_pandas loses columns (NOTES_r2)
        return pd.DataFrame({
            "supp_nation": pd.Series([], dtype=object),
            "cust_nation": pd.Series([], dtype=object),
            "l_year": pd.Series([], dtype="int64"),
            "revenue": pd.Series([], dtype="float64"),
        })
    out = _pysum_cols(parts, ["rev_u"]).groupby(
        ["supp_nation", "cust_nation", "l_year"], as_index=False)["rev_u"].sum()
    out["revenue"] = [int(v) / 10000.0 for v in out.pop("rev_u")]
    return (out.sort_values(["supp_nation", "cust_nation", "l_year"])
            .reset_index(drop=True))


def q_promo_revenue(sf_dir: str,
                    broadcast_threshold_bytes: int = 64 << 20):
    """TPC-H Q14 shape (promotion effect): percentage of one month's
    revenue from PROMO-type parts. Revenue accumulates in exact scaled
    int64 with per-batch partials, and the percentage is ONE float
    division mirrored bit-for-bit by the oracle.

    Size-aware (round 4): while the PART base table's parquet metadata
    stays under the 64 MB cap, the promo partkey set ships once via
    ray.put as a SORTED int64 array (binary search per batch, no hash
    table build per task); beyond it the query degrades to the
    bucketed shuffle join and reads the promo flag off the joined
    p_type column — no driver-built array grows with scale."""
    import numpy as np

    lo = pd.Timestamp("1995-09-01")
    hi = pd.Timestamp("1995-10-01")

    part_ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_type"]
    )
    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )
    try:
        part_bytes = part_ds.size_bytes()
    except Exception:
        part_bytes = None

    def _rev(b: pd.DataFrame) -> np.ndarray:
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        return pr_c * (100 - di_c)

    if part_bytes is not None and part_bytes <= broadcast_threshold_bytes:
        # ship (sorted partkeys, promo flags): BOTH paths must apply
        # inner-join semantics — a lineitem with no part row is outside
        # the denominator too, exactly as the oracle's JOIN computes
        # (review-found path divergence on FK-violating corpora)
        part = part_ds.to_pandas().sort_values("p_partkey")
        keys_arr = part["p_partkey"].to_numpy(dtype=np.int64)
        promo_arr = (part["p_type"] == "PROMO").to_numpy()
        bcast_ref = ray.put((keys_arr, promo_arr))

        class Partial:
            def __init__(self):
                self.keys, self.promo = ray.get(bcast_ref)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
                rev = _rev(b)
                pk = b["l_partkey"].to_numpy(dtype=np.int64)
                if len(self.keys) == 0:
                    return pd.DataFrame({"promo_u": [0], "total_u": [0]})
                pos = np.minimum(np.searchsorted(self.keys, pk),
                                 len(self.keys) - 1)
                matched = self.keys[pos] == pk
                is_promo = matched & self.promo[pos]
                return pd.DataFrame({
                    "promo_u": [int(rev[is_promo].sum())],
                    "total_u": [int(rev[matched].sum())],
                })

        flow = li.map_batches(Partial, batch_format="pandas",
                              concurrency=(1, 4))
    else:
        from .joins import hash_join

        def joined_partial(b: pd.DataFrame) -> pd.DataFrame:
            b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
            rev = _rev(b)
            is_promo = (b["p_type"] == "PROMO").to_numpy()
            return pd.DataFrame({
                "promo_u": [int(rev[is_promo].sum())],
                "total_u": [int(rev.sum())],
            })

        flow = hash_join(
            li, part_ds, "l_partkey", "p_partkey", "inner"
        ).map_batches(joined_partial, batch_format="pandas")
    parts = flow.to_pandas()
    promo_u = sum(int(v) for v in parts["promo_u"])  # Python-int merge
    total_u = sum(int(v) for v in parts["total_u"])
    return pd.DataFrame({
        "promo_revenue": [100.0 * float(promo_u) / float(total_u)],
    })


def q_lineitem_disjunctive(sf_dir: str,
                           broadcast_threshold_bytes: int = 64 << 20):
    """TPC-H Q19 shape (discounted revenue): lineitem ⋈ part under an
    OR of three (brand, size-range, quantity-range) conjunctions — the
    disjunctive-predicate join. The part side prunes to the union of the
    three brand clauses BEFORE attaching (a fraction of the dim), and
    the three clauses evaluate as vectorized boolean masks OR-ed
    together. Exact scaled-int64 revenue, one global row.

    Size-aware (round 4): the pruned dim broadcasts while the PART base
    table's parquet metadata stays under the 64 MB cap; beyond it the
    same pruned dataset goes through the bucketed shuffle hash join —
    no driver-resident slice grows with scale."""
    import numpy as np

    clauses = [
        # (brand, size_lo, size_hi, qty_lo, qty_hi)
        ("Brand#12", 1, 5, 1.0, 11.0),
        ("Brand#23", 1, 10, 10.0, 20.0),
        ("Brand#34", 1, 15, 20.0, 30.0),
    ]
    brands = [c[0] for c in clauses]

    part_ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"]
    )
    pruned = part_ds.map_batches(
        lambda t: t.filter(pc.is_in(t.column("p_brand"),
                                    value_set=pa.array(brands))),
        batch_format="pyarrow",
    )
    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"],
    )
    try:
        part_bytes = part_ds.size_bytes()
    except Exception:
        part_bytes = None

    def clause_partial(m: pd.DataFrame) -> pd.DataFrame:
        if len(m) == 0:
            return pd.DataFrame({"rev_u": [0], "n_rows": [0]})
        qty = m["l_quantity"].to_numpy()
        size = m["p_size"].to_numpy()
        brand = m["p_brand"].to_numpy(dtype=object)
        keep = np.zeros(len(m), dtype=bool)
        for br, slo, shi, qlo, qhi in clauses:
            keep |= ((brand == br) & (size >= slo) & (size <= shi)
                     & (qty >= qlo) & (qty <= qhi))
        m = m[keep]
        pr_c = np.round(m["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(m["l_discount"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({
            "rev_u": [int((pr_c * (100 - di_c)).sum())],
            "n_rows": [int(len(m))],
        })

    if (part_bytes is not None
            and part_bytes <= broadcast_threshold_bytes):
        part_ref = ray.put(
            pruned.to_pandas().sort_values("p_partkey")
            .reset_index(drop=True))

        class Partial:
            def __init__(self):
                self.part = ray.get(part_ref)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                return clause_partial(b.merge(
                    self.part, left_on="l_partkey",
                    right_on="p_partkey", how="inner"))

        flow = li.map_batches(Partial, batch_format="pandas",
                              concurrency=(1, 4))
    else:
        from .joins import hash_join

        flow = hash_join(
            li, pruned, "l_partkey", "p_partkey", "inner"
        ).map_batches(clause_partial, batch_format="pandas")
    parts = flow.to_pandas()
    rev_u = sum(int(v) for v in parts["rev_u"])
    n = int(parts["n_rows"].sum())
    return pd.DataFrame({"revenue": [rev_u / 10000.0], "n_rows": [n]})


def q_supplier_last_to_ship(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting), adapted to
    this schema (no receipt/commit dates): for each completed order
    ('F') touching ≥2 distinct suppliers, find the supplier who was
    STRICTLY the last to ship (their max shipdate is the order's max
    and no other supplier ties it) — the multi-EXISTS / NOT-EXISTS
    correlated pattern. Top 10 suppliers by count.

    Scale shape: lineitem collapses to per-(order, supplier) max-ship
    partials inside map_batches, and ONE orderkey-hash exchange
    co-locates those partials WITH the order's 'F' status row (the Q18
    side-tagged-union trick, q_orders_big_spenders) — the status
    semi-join, the per-order EXISTS logic (vectorized
    groupby-transform) and the per-supplier partial counts all run
    inside the single bucket group; the final per-supplier count is a
    tiny driver merge."""
    import numpy as np

    li_ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    nb = auto_buckets(li_ds)

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["l_orderkey", "l_suppkey"], as_index=False,
                      sort=False)["l_shipdate"].max()
        okey = g["l_orderkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "okey": okey,
            "suppkey": g["l_suppkey"].to_numpy(dtype=np.int64),
            "smax": g["l_shipdate"].to_numpy(dtype="datetime64[us]")
                     .astype(np.int64),
            "side": np.zeros(len(g), dtype=np.int8),
        })

    li = li_ds.map_batches(li_partial, batch_format="pandas")

    def orders_rows(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderstatus"] == "F"]
        okey = b["o_orderkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "okey": okey,
            "suppkey": np.full(len(b), -1, dtype=np.int64),
            "smax": np.zeros(len(b), dtype=np.int64),
            "side": np.ones(len(b), dtype=np.int8),
        })

    orders_f = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(orders_rows, batch_format="pandas")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        f_keys = df.loc[df["side"] == 1, "okey"].to_numpy()
        d = df[df["side"] == 0]
        d = d[np.isin(d["okey"].to_numpy(), f_keys)]  # status semi-join
        # finish the per-(order, supplier) max (partials may split a key
        # across input batches; the bucket holds every row of its orders)
        g = d.groupby(["okey", "suppkey"], as_index=False,
                      sort=False)["smax"].max()
        grp = g.groupby("okey")["smax"]
        omax = grp.transform("max")
        nsupp = grp.transform("size")
        at_max = g["smax"].eq(omax)
        nmax = at_max.groupby(g["okey"]).transform("sum")
        win = g[(nsupp >= 2) & (nmax == 1) & at_max]
        out = win.groupby("suppkey", as_index=False).agg(
            num_last=("okey", "size"))
        return out.rename(columns={"suppkey": "l_suppkey"})

    cand = bucket_group_map(
        li.union(orders_f), key_buckets("okey", nb), per_bucket
    ).to_pandas()
    if len(cand) == 0:  # all-empty to_pandas loses columns (NOTES_r2)
        return pd.DataFrame({
            "l_suppkey": pd.Series([], dtype="int64"),
            "num_last": pd.Series([], dtype="int64"),
        })
    out = cand.groupby("l_suppkey", as_index=False)["num_last"].sum()
    out = out.sort_values(["num_last", "l_suppkey"],
                          ascending=[False, True]).head(10)
    out["num_last"] = out["num_last"].astype("int64")
    return out.reset_index(drop=True)


def q_customer_idle_balance(sf_dir: str):
    """TPC-H Q22 shape (global-market opportunity): customers whose
    balance exceeds the average POSITIVE balance and who have placed no
    order since 2000-01-01, grouped by nation. Composite of a two-pass
    global scalar subquery + broadcast anti-join + exact-cents
    aggregate. (The date cutoff keeps the anti-join non-trivial on the
    sf corpora, where every customer has SOME order — same cutoff as
    q_customer_anti.)

    The above-average comparison is INTEGER-exact: instead of dividing
    (avg = sum/count, a float whose boundary rounding could flip rows),
    each batch tests ``acctbal_cents * count > sum_cents`` in int64 —
    the oracle mirrors the same multiplied comparison in DECIMAL."""
    import numpy as np

    cust_path = _t(sf_dir, "customer")

    # pass 1: exact global avg of positive balances (cents partials)
    def avg_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.round(b["c_acctbal"].to_numpy() * 100).astype("int64")
        c = c[c > 0]
        return pd.DataFrame({"s": [int(c.sum())], "n": [int(len(c))]})

    p = (ray.data.read_parquet(cust_path, columns=["c_acctbal"])
         .map_batches(avg_partial, batch_format="pandas").to_pandas())
    sum_c = sum(int(v) for v in p["s"])
    n_pos = int(p["n"].sum())

    # distinct recent-purchaser keys (bounded by |customer|), attached
    # via the gated key-set filter (round 4): broadcast while the
    # customer base's metadata proves it under the 64 MB cap, bucketed
    # shuffle anti-join beyond
    from .joins import gated_keyset_filter

    cutoff = pd.Timestamp("2000-01-01")

    def cust_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater_equal(b.column("o_orderdate"),
                                      pa.scalar(cutoff)))
        return pa.table({"o_custkey": pc.unique(t.column("o_custkey"))})

    active = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"]
    ).map_batches(cust_partial, batch_format="pyarrow")
    cust = ray.data.read_parquet(
        cust_path, columns=["c_custkey", "c_nationkey", "c_acctbal"]
    )

    def rich_partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["c_acctbal"].to_numpy() * 100).astype("int64")
        rich = cents * n_pos > sum_c              # integer-exact > avg
        b = b[rich]
        cents = cents[rich]
        return pd.DataFrame({
            "c_nationkey": b["c_nationkey"].to_numpy(dtype=np.int64),
            "bal_c": cents,
        }).groupby("c_nationkey", as_index=False).agg(
            numcust=("bal_c", "size"), bal_c=("bal_c", "sum"))

    parts = (
        gated_keyset_filter(cust, active, "c_custkey", "o_custkey",
                            how="anti", size_hint_ds=cust)
        .map_batches(rich_partial, batch_format="pandas")
        .to_pandas()
    )
    if len(parts) == 0:  # all-empty to_pandas loses columns (NOTES_r2)
        return pd.DataFrame({
            "c_nationkey": pd.Series([], dtype="int64"),
            "numcust": pd.Series([], dtype="int64"),
            "totacctbal": pd.Series([], dtype="float64"),
        })
    out = _pysum_cols(parts, ["bal_c"]).groupby(
        "c_nationkey", as_index=False).agg(
        numcust=("numcust", "sum"), bal_c=("bal_c", "sum"))
    out["numcust"] = out["numcust"].astype("int64")
    out["totacctbal"] = [int(v) / 100.0 for v in out.pop("bal_c")]
    return out.sort_values("c_nationkey").reset_index(drop=True)


def _orders_ship_exists(sf_dir: str, how: str) -> pd.DataFrame:
    """Shared body of q_orders_semi_shuffle / q_orders_anti_shuffle:
    distributed EXISTS / NOT-EXISTS against a filtered fact table via
    joins.hash_join(how="semi"/"anti") — the shuffle counterpart of the
    broadcast key-set patterns in q_orders_semi / q_customer_anti, for
    when the right side's key set is itself too large to broadcast.
    Only the right KEY COLUMN crosses the exchange. The grouped count +
    exact-cents sum collapses per batch after the filter."""
    import numpy as np

    from .joins import hash_join

    cutoff = pd.Timestamp("2000-06-01")

    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    recent_li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    ).map_batches(
        lambda t: t.filter(
            pc.greater_equal(t.column("l_shipdate"), pa.scalar(cutoff))
        ).select(["l_orderkey"]),
        batch_format="pyarrow",
    )

    filtered = hash_join(orders, recent_li, left_on="o_orderkey",
                         right_on="l_orderkey", how=how)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({
            "o_orderpriority": b["o_orderpriority"],
            "n_orders": np.ones(len(b), dtype=np.int64),
            "total_c": cents,
        }).groupby("o_orderpriority", as_index=False).sum()

    parts = filtered.map_batches(partial, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "o_orderpriority": pd.Series([], dtype=object),
            "n_orders": pd.Series([], dtype="int64"),
            "total_price": pd.Series([], dtype="float64"),
        })
    out = _pysum_cols(parts, ["total_c"]).groupby(
        "o_orderpriority", as_index=False).agg(
        n_orders=("n_orders", "sum"), total_c=("total_c", "sum"))
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_price"] = [int(v) / 100.0 for v in out.pop("total_c")]
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def q_orders_semi_shuffle(sf_dir: str):
    """TPC-H Q4 shape via the distributed SHUFFLE semi join: orders with
    at least one recently-shipped lineitem, counted by priority (see
    _orders_ship_exists)."""
    return _orders_ship_exists(sf_dir, "semi")


def q_orders_anti_shuffle(sf_dir: str):
    """NOT-EXISTS twin of q_orders_semi_shuffle via the distributed
    SHUFFLE anti join: orders with NO recently-shipped lineitem."""
    return _orders_ship_exists(sf_dir, "anti")


def q_nation_market_share(sf_dir: str,
                          broadcast_threshold_bytes: int = 64 << 20):
    """TPC-H Q8 shape (national market share): NATION_1 suppliers' share
    of all revenue delivered to region-0 customers, by order year — a
    conditional-numerator / grouped-denominator ratio over a multi-join.

    Scale shape: customer prunes to region-0 nations (a bounded nation
    set) before its shuffle join with orders; lineitem pre-aggregates
    BOTH exact int64 sums (total, nation-only) per order inside
    map_batches, so the second shuffle join is orders-sized. The share
    is ONE float division per year, mirrored by the oracle
    (events_share idiom).

    Size-aware (round 5): the numerator nation's supplier key set is a
    slice of supplier (10k rows/SF — linear in scale), so it only
    broadcasts while the SUPPLIER base table's parquet metadata stays
    under the cap; beyond it the n1 flag attaches through a bucketed
    LEFT shuffle join with the pruned supplier key set — no
    driver-built array grows with table scale ungated."""
    import numpy as np

    from .joins import hash_join

    # region 0's nations — a bounded 25-row domain, broadcast freely
    nation = ray.data.read_parquet(_t(sf_dir, "nation")).to_pandas()
    r0_nations = set(
        nation.loc[nation["n_regionkey"] == 0, "n_nationkey"].tolist())
    supp_ds = ray.data.read_parquet(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    try:
        supp_bytes = supp_ds.size_bytes()
    except Exception:
        supp_bytes = None

    def _li_partial(b: pd.DataFrame, is_n1: np.ndarray) -> pd.DataFrame:
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        rev = pr_c * (100 - di_c)
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(dtype=np.int64),
            "total_u": rev,
            "nation_u": np.where(is_n1, rev, 0),
        }).groupby("l_orderkey", as_index=False, sort=False).sum()

    li_read = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    if supp_bytes is not None and supp_bytes <= broadcast_threshold_bytes:
        supp = supp_ds.to_pandas()
        n1_supp_ref = ray.put(np.sort(
            supp.loc[supp["s_nationkey"] == 1, "s_suppkey"]
            .to_numpy(dtype=np.int64)))

        class LiPartial:
            def __init__(self):
                self.n1 = ray.get(n1_supp_ref)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                sk = b["l_suppkey"].to_numpy(dtype=np.int64)
                if len(self.n1):
                    pos = np.minimum(np.searchsorted(self.n1, sk),
                                     len(self.n1) - 1)
                    is_n1 = self.n1[pos] == sk
                else:
                    is_n1 = np.zeros(len(b), dtype=bool)
                return _li_partial(b, is_n1)

        li = li_read.map_batches(LiPartial, batch_format="pandas",
                                 concurrency=(1, 4))
    else:
        n1_keys = supp_ds.map_batches(
            lambda t: t.filter(pc.equal(t.column("s_nationkey"), 1))
                       .select(["s_suppkey"]),
            batch_format="pyarrow",
        )
        # LEFT join keeps every lineitem row (the denominator needs all
        # revenue); a matched s_suppkey (supplier keys are unique, so no
        # fan-out) marks the numerator rows
        li = hash_join(
            li_read, n1_keys, left_on="l_suppkey", right_on="s_suppkey",
            how="left",
        ).map_batches(
            lambda b: _li_partial(b, b["s_suppkey"].notna().to_numpy()),
            batch_format="pandas",
        )

    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda df: df.loc[df["c_nationkey"].isin(r0_nations),
                          ["c_custkey"]],
        batch_format="pandas",
    )
    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    o_r0 = hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey"
    ).map_batches(
        lambda df: pd.DataFrame({
            "o_orderkey": df["o_orderkey"],
            "o_year": df["o_orderdate"].dt.year.astype("int64"),
        }),
        batch_format="pandas",
    ).repartition(8)

    joined = hash_join(li, o_r0, left_on="l_orderkey",
                       right_on="o_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_year", as_index=False)[
            ["total_u", "nation_u"]].sum()

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "o_year": pd.Series([], dtype="int64"),
            "mkt_share": pd.Series([], dtype="float64"),
        })
    out = _pysum_cols(parts, ["total_u", "nation_u"]).groupby(
        "o_year", as_index=False)[["total_u", "nation_u"]].sum()
    out["mkt_share"] = [float(a) / float(b) for a, b
                        in zip(out.pop("nation_u"), out.pop("total_u"))]
    return out.sort_values("o_year").reset_index(drop=True)


def q_events_new_users(sf_dir: str):
    """Daily new-user counts + running cumulative total: each user's
    FIRST event day (per-batch min partials → one user-hash bucket
    exchange → per-bucket exact min), then a tiny per-day aggregate and
    a driver-side cumsum over the bounded day axis. The heavy data
    never leaves its bucket; the shipped state is |users| partials and
    |days| rows."""
    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["user_id", "ts"])
    nb = auto_buckets(ds)

    def first_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("user_id", as_index=False)["ts"].min()
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(dtype=np.int64),
            "ts": g["ts"],
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id")["ts"].min()
        day = first.dt.floor("D")
        out = day.value_counts().sort_index()
        return pd.DataFrame({"day": out.index, "new_users": out.to_numpy()})

    days = bucket_group_map(
        ds.map_batches(first_partial, batch_format="pandas"),
        key_buckets("user_id", nb), per_bucket,
    ).to_pandas()
    out = (days.groupby("day", as_index=False)["new_users"].sum()
           .sort_values("day").reset_index(drop=True))
    out["new_users"] = out["new_users"].astype("int64")
    out["cum_users"] = out["new_users"].cumsum().astype("int64")
    return out


def q_events_rolling_dau(sf_dir: str, window_days: int = 7):
    """Rolling 7-day distinct active users per day — COUNT(DISTINCT)
    over a sliding window, which is NOT decomposable by day. The
    distributed trick: distinct (user, day) pairs partition by USER
    hash, each bucket merges every user's activity days into coverage
    intervals ([d, d+W-1] unioned) and emits tiny ±1 diff rows at
    interval starts/ends — per-day ADDITIVE partials — plus observed-day
    markers. The driver sums diffs per day and takes one cumsum over
    the bounded day axis. No per-day distinct sets ever ship."""
    import numpy as np

    W = np.int64(window_days)
    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["user_id", "ts"])
    nb = auto_buckets(ds)
    us_per_day = np.int64(86_400_000_000)

    def pairs_partial(b: pd.DataFrame) -> pd.DataFrame:
        day = (b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
               // us_per_day)
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(dtype=np.int64), "day": day,
        }).drop_duplicates()

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["user_id", "day"])
             .sort_values(["user_id", "day"]))
        u = g["user_id"].to_numpy()
        d = g["day"].to_numpy()
        # interval starts: first activity day of a user, or a gap that
        # outruns the window's coverage [d_prev, d_prev + W - 1]
        new_user = np.r_[True, u[1:] != u[:-1]]
        gap = np.r_[np.int64(0), d[1:] - d[:-1]]
        start = new_user | (gap >= W)
        # interval end day = the activity day right before the next
        # start (or the user's last); coverage stops after end + W - 1
        next_start = np.r_[start[1:], True]
        starts_d = d[start]
        ends_d = d[next_start]
        diffs = pd.DataFrame({
            "day": np.concatenate([starts_d, ends_d + W]),
            "delta": np.concatenate([
                np.ones(len(starts_d), dtype=np.int64),
                -np.ones(len(ends_d), dtype=np.int64),
            ]),
            "obs": np.zeros(len(starts_d) + len(ends_d), dtype=np.int64),
        })
        obs = pd.DataFrame({
            "day": np.unique(d),
            "delta": np.int64(0),
            "obs": np.int64(1),
        })
        out = pd.concat([diffs, obs], ignore_index=True)
        return out.groupby("day", as_index=False).agg(
            delta=("delta", "sum"), obs=("obs", "max"))

    parts = bucket_group_map(
        ds.map_batches(pairs_partial, batch_format="pandas"),
        key_buckets("user_id", nb), per_bucket,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "day": pd.Series([], dtype="datetime64[us]"),
            "dau7": pd.Series([], dtype="int64"),
        })
    m = parts.groupby("day", as_index=False).agg(
        delta=("delta", "sum"), obs=("obs", "max")).sort_values("day")
    m["dau7"] = m["delta"].cumsum()
    m = m[m["obs"] == 1]
    return pd.DataFrame({
        "day": pd.to_datetime(m["day"].to_numpy() * us_per_day, unit="us"),
        "dau7": m["dau7"].astype("int64").to_numpy(),
    }).reset_index(drop=True)


def q_nation_top_customers(sf_dir: str):
    """Ordered string aggregation per group: each nation's top-3
    customers by balance, concatenated in rank order — the
    collect_list/string_agg aggregate family. Per-batch top-3 partials
    bound the exchange (3 rows per nation per batch, the top-k-per-
    group trick), the per-nation finalize sorts ≤ 3×batches rows, and
    the concat is bounded by construction (never a full-group string
    at scale)."""
    import numpy as np

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["c_acctbal"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame({
            "c_nationkey": b["c_nationkey"].to_numpy(dtype=np.int64),
            "c_name": b["c_name"],
            "bal_c": cents,
            "c_custkey": b["c_custkey"].to_numpy(dtype=np.int64),
        })
        return (d.sort_values(["bal_c", "c_custkey"],
                              ascending=[False, True])
                .groupby("c_nationkey", as_index=False).head(3))

    parts = (
        ray.data.read_parquet(
            _t(sf_dir, "customer"),
            columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
        )
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    if len(parts) == 0:
        return pd.DataFrame({
            "c_nationkey": pd.Series([], dtype="int64"),
            "top_customers": pd.Series([], dtype=object),
        })
    top = (parts.sort_values(["bal_c", "c_custkey"],
                             ascending=[False, True])
           .groupby("c_nationkey", as_index=False).head(3)
           .sort_values(["c_nationkey", "bal_c", "c_custkey"],
                        ascending=[True, False, True]))
    out = top.groupby("c_nationkey", as_index=False).agg(
        top_customers=("c_name", ",".join))
    return out.sort_values("c_nationkey").reset_index(drop=True)


def q_region_nation_cross(sf_dir: str):
    """CROSS JOIN (the one join variant the engine hadn't exposed):
    every (region, nation) name pair that is NOT the nation's actual
    region — a 125-row dim×dim product. Small×small cross products
    broadcast one side and expand per batch; fact×anything cross joins
    are a deliberate non-feature (row explosion)."""
    regions = ray.data.read_parquet(_t(sf_dir, "region")).to_pandas()
    nations = ray.data.read_parquet(_t(sf_dir, "nation"))
    r_ref = ray.put(regions)

    class CrossExpand:
        def __init__(self):
            self.regions = ray.get(r_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            out = b.merge(self.regions, how="cross")
            out = out[out["r_regionkey"] != out["n_regionkey"]]
            return out[["r_name", "n_name"]]

    out = (
        nations.map_batches(CrossExpand, batch_format="pandas",
                            concurrency=(1, 2))
        .to_pandas()
    )
    return out.sort_values(["r_name", "n_name"]).reset_index(drop=True)


def q_events_bag_except(sf_dir: str):
    """EXCEPT ALL (bag/multiset semantics — the set-ops family's
    missing half, see q_key_set_ops): per event_type, the surplus
    multiplicity of even-user events over odd-user events. Bag ops
    reduce to per-key COUNT partials tagged by side — one tiny merge,
    never row-level row matching."""
    import numpy as np

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        even = (b["user_id"].to_numpy(dtype=np.int64) % 2) == 0
        d = pd.DataFrame({"event_type": b["event_type"], "even": even})
        g = d.groupby(["event_type", "even"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    parts = (
        ray.data.read_parquet(_t(sf_dir, "events"),
                              columns=["user_id", "event_type"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    g = parts.groupby(["event_type", "even"], as_index=False)["n"].sum()
    wide = g.pivot(index="event_type", columns="even", values="n").fillna(0)
    surplus = (wide.get(True, 0) - wide.get(False, 0)).clip(lower=0)
    surplus = surplus[surplus > 0]
    return pd.DataFrame({
        "event_type": surplus.index,
        "surplus": surplus.to_numpy().astype("int64"),
    }).sort_values("event_type").reset_index(drop=True)


def q_customer_revenue_deciles(sf_dir: str):
    """Pareto/concentration report: customers ranked by lifetime spend,
    bucketed into deciles (rank order, NTILE-free exact definition:
    decile = (rank-1)*10 // N), with each decile's exact revenue and
    revenue share — "the top 10% drive X% of revenue".

    This is the engine's ORDER-BY-VALUE global rank (the hash-rank
    twin is q_docs_shuffle): per-customer exact cents (one custkey
    exchange) → global min/max from tiny partials → 256 equal-width
    VALUE-range buckets, which are globally ordered by construction, so
    pass 2 counts per bucket (driver computes exclusive offsets in
    Python ints) and pass 3 sorts only WITHIN buckets (rev desc,
    custkey asc — ties share a value so they share a bucket) and adds
    the offset. No all-to-all sort; per-bucket work is customers/256
    (value skew can unbalance buckets — documented; rank stays exact).
    The share is one mirrored float division per decile."""
    import numpy as np

    from ..stages.exchange import checkpoint

    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    nb = auto_buckets(orders)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        g = pd.DataFrame({
            "o_custkey": b["o_custkey"].to_numpy(dtype=np.int64),
            "rev_c": cents,
        }).groupby("o_custkey", as_index=False)["rev_c"].sum()
        return g

    def per_cust(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", as_index=False)["rev_c"].sum()

    percust = checkpoint(bucket_group_map(
        orders.map_batches(partial, batch_format="pandas"),
        key_buckets("o_custkey", nb), per_cust,
    ))  # reused by three passes below — cut lineage once

    stats = percust.map_batches(
        lambda df: pd.DataFrame({
            "lo": [int(df["rev_c"].min())], "hi": [int(df["rev_c"].max())],
            "n": [len(df)], "tot": [int(df["rev_c"].sum())],
        }),
        batch_format="pandas",
    ).to_pandas()
    if len(stats) == 0:
        return pd.DataFrame({
            "decile": pd.Series([], dtype="int64"),
            "n_custs": pd.Series([], dtype="int64"),
            "revenue": pd.Series([], dtype="float64"),
            "rev_share": pd.Series([], dtype="float64"),
        })
    lo = min(int(v) for v in stats["lo"])
    hi = max(int(v) for v in stats["hi"])
    n_total = sum(int(v) for v in stats["n"])
    rev_total = sum(int(v) for v in stats["tot"])  # Python-int merge
    B = 256
    span = hi - lo + 1

    def vbucket(rev: np.ndarray) -> np.ndarray:
        # bucket 0 = highest revenue (rank order is rev DESC)
        return ((np.int64(hi) - rev) * np.int64(B)) // np.int64(span)

    counts = percust.map_batches(
        lambda df: pd.DataFrame({"vb": vbucket(df["rev_c"].to_numpy())})
        .groupby("vb", as_index=False).size().rename(columns={"size": "n"}),
        batch_format="pandas",
    ).to_pandas()
    per_vb = [0] * B
    for vb, n in zip(counts["vb"], counts["n"]):
        per_vb[int(vb)] += int(n)
    offsets = np.cumsum([0] + per_vb[:-1]).astype(np.int64)

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["rev_c", "o_custkey"],
                          ascending=[False, True]).reset_index(drop=True)
        vb = int(vbucket(g["rev_c"].to_numpy()[:1])[0])
        rank0 = offsets[vb] + np.arange(len(g), dtype=np.int64)
        dec = (rank0 * 10) // np.int64(n_total)
        return pd.DataFrame({"decile": dec, "rev_c": g["rev_c"]}).groupby(
            "decile", as_index=False).agg(
            n_custs=("rev_c", "size"), rev_c=("rev_c", "sum"))

    parts = bucket_group_map(
        percust, lambda t: vbucket(t.column("rev_c").to_numpy()), rank_bucket
    ).to_pandas()
    out = _pysum_cols(parts, ["rev_c"]).groupby("decile", as_index=False).agg(
        n_custs=("n_custs", "sum"), rev_c=("rev_c", "sum"))
    out["n_custs"] = out["n_custs"].astype("int64")
    rev = [int(v) for v in out.pop("rev_c")]
    out["revenue"] = [v / 100.0 for v in rev]
    out["rev_share"] = [float(v) / float(rev_total) for v in rev]
    return out.sort_values("decile").reset_index(drop=True)


def q_orders_yoy(sf_dir: str):
    """Year-over-year growth per calendar month: exact monthly cents
    partials (one pass, bounded month axis merged in Python ints on the
    driver), then an explicit (year-1, month) self-match — NOT LAG(12),
    which silently mispairs across missing months — and ONE mirrored
    float expression per row. Months without a prior-year counterpart
    are omitted (inner-match semantics, mirrored by the oracle)."""
    import numpy as np

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({
            "o_year": b["o_orderdate"].dt.year.astype("int64"),
            "o_month": b["o_orderdate"].dt.month.astype("int64"),
            "rev_c": cents,
        }).groupby(["o_year", "o_month"], as_index=False)["rev_c"].sum()

    parts = (
        ray.data.read_parquet(_t(sf_dir, "orders"),
                              columns=["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    m = _pysum_cols(parts, ["rev_c"]).groupby(
        ["o_year", "o_month"], as_index=False)["rev_c"].sum()
    prev = m.copy()
    prev["o_year"] = prev["o_year"] + 1
    j = m.merge(prev, on=["o_year", "o_month"], how="inner",
                suffixes=("", "_prev"))
    j["revenue"] = [int(v) / 100.0 for v in j["rev_c"]]
    j["yoy_pct"] = [100.0 * float(int(c) - int(p)) / float(int(p))
                    for c, p in zip(j["rev_c"], j["rev_c_prev"])]
    return (j[["o_year", "o_month", "revenue", "yoy_pct"]]
            .sort_values(["o_year", "o_month"]).reset_index(drop=True))


def q_customer_returns(sf_dir: str):
    """TPC-H Q10 shape (returned-item reporting): top-20 customers by
    revenue lost to returns in one quarter, with name and nation. The
    classic join-aggregate-topk: lineitem pre-filters 'R' rows and
    pre-aggregates exact cents per order inside map_batches; ONE
    shuffle join against the date-filtered orders attaches custkey; a
    custkey-hash exchange finishes per-customer sums AND takes each
    bucket's top-20 (exact-int ordering), the driver merges ≤
    20×buckets candidates, and the 20 survivors join their attributes
    via a tiny broadcast lookup. Ordering is by exact integer revenue
    (no float compare), mirrored by the oracle's ORDER BY rev_u."""
    import numpy as np

    from .joins import hash_join

    lo = pd.Timestamp("1995-07-01")
    hi = pd.Timestamp("1995-10-01")

    def li_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_returnflag"] == "R"]
        pr_c = np.round(b["l_extendedprice"].to_numpy() * 100).astype("int64")
        di_c = np.round(b["l_discount"].to_numpy() * 100).astype("int64")
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(dtype=np.int64),
            "rev_u": pr_c * (100 - di_c),
        }).groupby("l_orderkey", as_index=False, sort=False)["rev_u"].sum()

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    ).map_batches(li_partial, batch_format="pandas")

    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda t: t.filter(
            pc.and_(pc.greater_equal(t.column("o_orderdate"), pa.scalar(lo)),
                    pc.less(t.column("o_orderdate"), pa.scalar(hi)))
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )

    joined = hash_join(li, orders, left_on="l_orderkey",
                       right_on="o_orderkey")
    nb = auto_buckets(ray.data.read_parquet(_t(sf_dir, "orders")))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False)["rev_u"].sum()

    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("o_custkey", as_index=False)["rev_u"].sum()
        return m.sort_values(["rev_u", "o_custkey"],
                             ascending=[False, True]).head(20)

    cand = bucket_group_map(
        joined.map_batches(partial, batch_format="pandas"),
        key_buckets("o_custkey", nb), bucket_top,
    ).to_pandas()
    if len(cand) == 0:
        return pd.DataFrame({
            "c_custkey": pd.Series([], dtype="int64"),
            "c_name": pd.Series([], dtype=object),
            "n_name": pd.Series([], dtype=object),
            "revenue": pd.Series([], dtype="float64"),
        })
    top = (cand.sort_values(["rev_u", "o_custkey"],
                            ascending=[False, True])
           .head(20).reset_index(drop=True))

    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"),
        columns=["c_custkey", "c_name", "c_nationkey"],
    ).map_batches(
        lambda t, keys=top["o_custkey"].tolist(): t.filter(
            pc.is_in(t.column("c_custkey"),
                     value_set=pa.array(keys, pa.int64()))),
        batch_format="pyarrow",
    ).to_pandas()
    nation = ray.data.read_parquet(_t(sf_dir, "nation")).to_pandas()

    out = (top.rename(columns={"o_custkey": "c_custkey"})
           .merge(cust, on="c_custkey")
           .merge(nation[["n_nationkey", "n_name"]],
                  left_on="c_nationkey", right_on="n_nationkey"))
    out["revenue"] = [int(v) / 10000.0 for v in out["rev_u"]]
    out = out.sort_values(["rev_u", "c_custkey"],
                          ascending=[False, True]).reset_index(drop=True)
    return out[["c_custkey", "c_name", "n_name", "revenue"]]


def q_events_bursts(sf_dir: str):
    """Burst detection (Kleinberg-lite): hour buckets where an event
    type's count more than DOUBLES its trailing-8-observed-buckets
    average, at a minimum support — the rate-anomaly screen a
    streaming pipeline runs per key. ALL-INTEGER decision
    (n·8 > 2·trail — no float rate compare can flip a boundary), and
    'trailing' means the previous 8 OBSERVED buckets (absent hours
    don't zero-fill), mirrored exactly by the oracle's ROWS frame.

    Scale shape: per-batch (type, hour) count partials collapse the
    stream first; one type-hash bucket exchange; per-type rolling sums
    are one sliding-window cumsum inside the bucket."""
    import numpy as np

    W, RATIO, SUPPORT = 8, 2, 10

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        hour = b["ts"].dt.floor("h")
        g = (pd.DataFrame({"event_type": b["event_type"],
                           "bucket_ts": hour})
             .groupby(["event_type", "bucket_ts"], as_index=False)
             .size().rename(columns={"size": "n"}))
        return g

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby(["event_type", "bucket_ts"], as_index=False)["n"]
             .sum().sort_values(["event_type", "bucket_ts"]))
        out = []
        for et, d in g.groupby("event_type", sort=False):
            n = d["n"].to_numpy(dtype=np.int64)
            if len(n) <= W:
                continue
            c = np.concatenate([[0], np.cumsum(n)])
            # trailing sum of the previous W observed buckets
            trail = c[W:-1] - c[:-W - 1]
            cur = n[W:]
            burst = (cur >= SUPPORT) & (cur * W > RATIO * trail)
            if burst.any():
                out.append(pd.DataFrame({
                    "event_type": et,
                    "bucket_ts": d["bucket_ts"].to_numpy()[W:][burst],
                    "n": cur[burst],
                    "trail": trail[burst],
                }))
        if not out:
            return pd.DataFrame({
                "event_type": pd.Series([], dtype=object),
                "bucket_ts": pd.Series([], dtype="datetime64[us]"),
                "n": pd.Series([], dtype="int64"),
                "trail": pd.Series([], dtype="int64"),
            })
        return pd.concat(out, ignore_index=True)

    parts = bucket_group_map(
        ray.data.read_parquet(_t(sf_dir, "events"),
                              columns=["event_type", "ts"])
        .map_batches(partial, batch_format="pandas"),
        key_buckets("event_type", 16), per_type,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "bucket_ts": pd.Series([], dtype="datetime64[us]"),
            "n": pd.Series([], dtype="int64"),
            "trail": pd.Series([], dtype="int64"),
        })
    return (parts.astype({"n": "int64", "trail": "int64"})
            .sort_values(["event_type", "bucket_ts"])
            .reset_index(drop=True))


def q_part_multi_nation(sf_dir: str):
    """HAVING over a grouped COUNT(DISTINCT …): parts whose suppliers
    span ≥ 18 nations — the supply-chain-diversity screen. Distinct
    (part, nation) pairs collapse per batch, finish inside one
    partkey-hash bucket, and the HAVING filter is vectorized there;
    only qualifying rows leave the bucket.

    The supplier dimension attaches through the size-aware join planner
    (round 4, the VERDICT r3 item-2 pattern: supplier GROWS with SF —
    broadcast only under the 64 MB metadata cap, bucketed shuffle
    beyond)."""
    import numpy as np

    from .joins import join

    supp_ds = ray.data.read_parquet(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    li_ds = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"])
    nb = auto_buckets(li_ds)

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "l_partkey": b["l_partkey"].to_numpy(dtype=np.int64),
            "nation": b["s_nationkey"].to_numpy(dtype=np.int64),
        }).drop_duplicates()
        return g

    def having(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["l_partkey", "nation"])
        cnt = d.groupby("l_partkey", as_index=False).size()
        cnt = cnt[cnt["size"] >= 18]
        return pd.DataFrame({
            "l_partkey": cnt["l_partkey"].astype("int64"),
            "n_nations": cnt["size"].astype("int64"),
        })

    out = bucket_group_map(
        join(li_ds, supp_ds, "l_suppkey", "s_suppkey")
        .map_batches(pairs, batch_format="pandas"),
        key_buckets("l_partkey", nb), having,
    ).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({
            "l_partkey": pd.Series([], dtype="int64"),
            "n_nations": pd.Series([], dtype="int64"),
        })
    return (out.astype({"l_partkey": "int64", "n_nations": "int64"})
            .sort_values("l_partkey").reset_index(drop=True))


def q_events_pattern(sf_dir: str):
    """Sequence-pattern match (MATCH_RECOGNIZE-lite): users whose
    time-ordered event stream contains the ADJACENT triple
    view→view→purchase, with the per-user match count. Per-user
    sequences order by (ts, event_id) — deterministic under timestamp
    ties — and the adjacent-triple test is two shifted vector compares
    inside the user-hash bucket; no per-user Python loop, no
    sequence ever leaves its bucket."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts",
                                       "event_type"])
    nb = auto_buckets(ds)

    def pattern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy(dtype=np.int64)
        t = g["event_type"].to_numpy(dtype=object)
        if len(u) < 3:
            return pd.DataFrame({
                "user_id": pd.Series([], dtype="int64"),
                "n_matches": pd.Series([], dtype="int64"),
            })
        same = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        hit = same & (t[:-2] == "view") & (t[1:-1] == "view") \
            & (t[2:] == "purchase")
        users = u[:-2][hit]
        if len(users) == 0:
            return pd.DataFrame({
                "user_id": pd.Series([], dtype="int64"),
                "n_matches": pd.Series([], dtype="int64"),
            })
        uu, cc = np.unique(users, return_counts=True)
        return pd.DataFrame({"user_id": uu, "n_matches": cc.astype("int64")})

    out = bucket_group_map(ds, key_buckets("user_id", nb), pattern).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({
            "user_id": pd.Series([], dtype="int64"),
            "n_matches": pd.Series([], dtype="int64"),
        })
    return (out.astype({"user_id": "int64", "n_matches": "int64"})
            .sort_values("user_id").reset_index(drop=True))


def q_events_attribution(sf_dir: str):
    """Last-touch attribution: each purchase attributes to the user's
    most recent PRIOR click WITHIN A 1-HOUR TOLERANCE — the as-of join
    (q_events_asof) plus the max-age window marketing attribution
    needs. Purchases with no qualifying click drop (inner-attribution
    semantics); the attributed purchase value rides along in exact
    cents. Tolerance is an integer-µs compare — no float time math."""
    import numpy as np

    tol_us = np.int64(3_600_000_000)
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "ts", "value"],
    )

    def pre(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("event_type"),
                        value_set=pa.array(["click", "purchase"]))
        return batch.filter(mask)

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        is_click = (g["event_type"] == "click").to_numpy()
        cid = pd.Series(np.where(is_click, g["event_id"], np.nan))
        cus = pd.Series(np.where(is_click, g["user_id"], np.nan))
        cts = pd.Series(g["ts"].where(pd.Series(is_click, index=g.index)))
        prev_id = cid.shift(1).ffill()
        prev_us = cus.shift(1).ffill()
        prev_ts = cts.shift(1).ffill()
        gap = (g["ts"].astype("int64").to_numpy()
               - prev_ts.astype("int64").to_numpy())
        valid = ((prev_us.to_numpy() == g["user_id"].to_numpy())
                 & (gap <= tol_us))
        keep = (g["event_type"] == "purchase").to_numpy() & valid
        vc = np.rint(g["value"].to_numpy(dtype=np.float64)[keep]
                     * 100).astype(np.int64)
        return pd.DataFrame({
            "event_id": g.loc[keep, "event_id"].to_numpy(dtype=np.int64),
            "user_id": g.loc[keep, "user_id"].to_numpy(dtype=np.int64),
            "click_event_id": prev_id.to_numpy()[keep].astype("int64"),
            "gap_us": gap[keep].astype("int64"),
            "value_cents": vc,
        })

    out = bucket_group_map(
        ds.map_batches(pre, batch_format="pyarrow"),
        key_buckets("user_id", auto_buckets(ds)), attribute,
    ).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "click_event_id": pd.Series([], dtype="int64"),
            "gap_us": pd.Series([], dtype="int64"),
            "value_cents": pd.Series([], dtype="int64"),
        })
    return out.sort_values("event_id").reset_index(drop=True)


def q_events_windowed_join(sf_dir: str):
    """Stream-stream WINDOWED JOIN (Flink-style interval join): every
    (purchase, view) pair of the same user where the view happened in
    the 10 minutes BEFORE the purchase (strictly before by
    (ts, event_id), inclusive window edge). Unlike the as-of join this
    is 1:N — all qualifying pairs emit.

    Scale shape: one user-hash bucket exchange; inside the bucket both
    sides sort once and each purchase's qualifying view RANGE comes
    from two np.searchsorted calls over the user's view timeline — the
    pair expansion is run-length (repeat + offset arange), no per-event
    loop. Pair volume is bounded by the window, the partitioning
    assumption is the session one (a user's events fit a bucket)."""
    import numpy as np

    win_us = np.int64(600_000_000)
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "ts"],
    )

    def wjoin(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "purchase_id": pd.Series([], dtype="int64"),
            "view_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "gap_us": pd.Series([], dtype="int64"),
        })
        v = g[g["event_type"] == "view"]
        p = g[g["event_type"] == "purchase"]
        if len(v) == 0 or len(p) == 0:
            return empty
        # global (user, ts, id) order makes each user's views one
        # contiguous run; vectorized searchsorted over the whole bucket
        # works because the sort key leads with user_id
        v = v.sort_values(["user_id", "ts", "event_id"])
        vu = v["user_id"].to_numpy(dtype=np.int64)
        vt = v["ts"].astype("int64").to_numpy()
        vid = v["event_id"].to_numpy(dtype=np.int64)
        pu = p["user_id"].to_numpy(dtype=np.int64)
        pt = p["ts"].astype("int64").to_numpy()
        pid = p["event_id"].to_numpy(dtype=np.int64)
        # ONE vectorized searchsorted over the whole bucket: shift each
        # user's timeline into a disjoint numeric range (composite key
        # = user_rank·span + ts_offset). Exact while ranks·span fits
        # int64 — guarded; the fallback is a per-purchase slice loop.
        uniq_u = np.unique(vu)
        t_min = min(int(vt.min()), int(pt.min()))
        t_max = max(int(vt.max()), int(pt.max()))
        span = np.int64(t_max - t_min + int(win_us) + 2)
        if len(uniq_u) * int(span) < (1 << 62):
            vr = np.searchsorted(uniq_u, vu)
            pr = np.minimum(np.searchsorted(uniq_u, pu), len(uniq_u) - 1)
            # a purchase whose user has NO views would land on another
            # user's rank — mask it to an empty range
            has_views = uniq_u[pr] == pu
            vkey = vr * span + (vt - t_min)
            pkey_hi = pr * span + (pt - t_min)
            pkey_lo = pkey_hi - win_us
            starts = np.searchsorted(vkey, pkey_lo, side="left")
            ends = np.searchsorted(vkey, pkey_hi, side="right")
            ends = np.where(has_views, ends, starts)
        else:  # pragmatic exact fallback for astronomically wide spans
            user_lo = np.searchsorted(vu, pu, side="left")
            user_hi = np.searchsorted(vu, pu, side="right")
            starts = np.empty(len(p), dtype=np.int64)
            ends = np.empty(len(p), dtype=np.int64)
            for i in range(len(p)):
                s, e = user_lo[i], user_hi[i]
                starts[i] = s + np.searchsorted(vt[s:e], pt[i] - win_us,
                                                side="left")
                ends[i] = s + np.searchsorted(vt[s:e], pt[i],
                                              side="right")
        counts = ends - starts
        keep = counts > 0
        if not keep.any():
            return empty
        reps = counts[keep]
        p_idx = np.repeat(np.nonzero(keep)[0], reps)
        offs = np.concatenate([np.arange(c) for c in reps])
        v_idx = starts[keep].repeat(reps) + offs
        # strictly-before on the (ts, event_id) tuple: drop pairs where
        # the view is the purchase itself timewise AND not earlier
        g_us = pt[p_idx] - vt[v_idx]
        strict = (g_us > 0) | ((g_us == 0) & (vid[v_idx] < pid[p_idx]))
        return pd.DataFrame({
            "purchase_id": pid[p_idx][strict],
            "view_id": vid[v_idx][strict],
            "user_id": pu[p_idx][strict],
            "gap_us": g_us[strict],
        })

    out = bucket_group_map(
        ds.map_batches(_views_and_purchases, batch_format="pyarrow"),
        key_buckets("user_id", auto_buckets(ds)), wjoin,
    ).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({
            "purchase_id": pd.Series([], dtype="int64"),
            "view_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "gap_us": pd.Series([], dtype="int64"),
        })
    return (out.astype({"purchase_id": "int64", "view_id": "int64",
                        "user_id": "int64", "gap_us": "int64"})
            .sort_values(["purchase_id", "view_id"])
            .reset_index(drop=True))


def q_region_nation_share(sf_dir: str):
    """Two-level percent-of-parent: each nation's revenue share WITHIN
    its region, and each region's share of the total — the hierarchical
    ratio report (ratio-to-report's nested sibling, see q_events_share).
    One pass of exact-cents partials keyed by (region, nation); all
    three aggregation levels derive from the same finest-grain exact
    integers (the CUBE rule), and every share is one mirrored float
    division.

    Scale shape (round 4, the VERDICT r3 item-2 pattern): the customer
    dimension attaches through the size-aware join planner — broadcast
    only while parquet metadata proves it under 64 MB, bucketed shuffle
    beyond — instead of a driver-built per-customer array that grows
    with scale; only the BOUNDED nation table (25 rows) broadcasts as a
    dict into the partial."""
    import numpy as np

    from .joins import join

    nation = ray.data.read_parquet(_t(sf_dir, "nation")).to_pandas()
    nat_region = dict(zip(nation["n_nationkey"].astype(int),
                          nation["n_regionkey"].astype(int)))
    nr_ref = ray.put(nat_region)

    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )

    class Partial:
        def __init__(self):
            nr = ray.get(nr_ref)
            # vectorized nation→region lookup over the BOUNDED key range
            self.lut = np.zeros(max(nr) + 1, dtype=np.int64)
            for k, v in nr.items():
                self.lut[k] = v

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            cents = np.round(b["o_totalprice"].to_numpy()
                             * 100).astype("int64")
            nat = b["c_nationkey"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "r": self.lut[nat],
                "n": nat,
                "rev_c": cents,
            }).groupby(["r", "n"], as_index=False)["rev_c"].sum()

    parts = (
        join(orders, cust, "o_custkey", "c_custkey")
        .map_batches(Partial, batch_format="pandas", concurrency=(1, 4))
        .to_pandas()
    )
    if len(parts) == 0:
        return pd.DataFrame({
            "n_regionkey": pd.Series([], dtype="int64"),
            "n_nationkey": pd.Series([], dtype="int64"),
            "revenue": pd.Series([], dtype="float64"),
            "share_in_region": pd.Series([], dtype="float64"),
            "region_share": pd.Series([], dtype="float64"),
        })
    fine = _pysum_cols(parts, ["rev_c"]).groupby(
        ["r", "n"], as_index=False)["rev_c"].sum()
    region_tot = {r: sum(int(v) for v in g["rev_c"])
                  for r, g in fine.groupby("r")}
    total = sum(region_tot.values())
    out = pd.DataFrame({
        "n_regionkey": fine["r"].astype("int64"),
        "n_nationkey": fine["n"].astype("int64"),
        "revenue": [int(v) / 100.0 for v in fine["rev_c"]],
        "share_in_region": [float(int(v)) / float(region_tot[r])
                            for r, v in zip(fine["r"], fine["rev_c"])],
        "region_share": [float(region_tot[r]) / float(total)
                         for r in fine["r"]],
    })
    return (out.sort_values(["n_regionkey", "n_nationkey"])
            .reset_index(drop=True))


def q_events_anomaly(sf_dir: str):
    """ROBUST OUTLIER DETECTION (Iglewicz–Hoaglin modified-z family):
    flag events whose value deviates from their event_type's median by
    more than 3.5× the MAD — the resilient screen a metrics pipeline
    runs where mean/stddev would be dragged by the very outliers it
    hunts. The decision is made ENTIRELY in integers: with cents c,
    half-cent median m2 = median(2c) (avg of two even middles is an
    exact int), deviations dev2 = |2c − m2| (half-cents), quarter-cent
    MAD mad4 = median(2·dev2), and the 3.5× test cross-multiplies to
    4·dev2 > 7·mad4 — no float compare anywhere, so the survivor set
    is bit-identical to the SQL oracle's.

    Scale shape: pass 1 collapses each batch to a per-(type, cents)
    HISTOGRAM partial — bounded by the metric's distinct cent values
    (a bounded-range metric, not row count), additive across batches.
    The driver computes BOTH nested weighted medians from that tiny
    histogram (the deviation histogram derives from the value histogram
    by relabeling, no second data pass) and broadcasts ~5 thresholds;
    pass 2 is a stateless vectorized filter. No all-to-all exchange.
    Reference n/a — engine-level op (SURVEY.md §2.6)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )

    def hist_partial(batch: pa.Table) -> pd.DataFrame:
        c = np.round(
            batch.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype("int64")
        t = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(), "c": c,
        })
        return t.groupby(["event_type", "c"], as_index=False).size().rename(
            columns={"size": "n"})

    hist = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["event_type", "c"], as_index=False)["n"].sum()
    )

    def wmedian2(vals: "np.ndarray", wts: "np.ndarray") -> int:
        """2× the weighted median of a value histogram (sorted vals):
        lower+upper middle element summed — exact int, equal to
        CAST(median(2*v) AS BIGINT) in DuckDB for any int multiset."""
        cum = np.cumsum(wts)
        n = int(cum[-1])
        lo = int(vals[np.searchsorted(cum, (n - 1) // 2 + 1)])
        hi = int(vals[np.searchsorted(cum, n // 2 + 1)])
        return lo + hi

    thresholds = {}
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("c")
        vals = g["c"].to_numpy()
        wts = g["n"].to_numpy()
        m2 = wmedian2(vals, wts)
        dev = pd.DataFrame({"d2": np.abs(2 * vals - m2), "n": wts})
        dev = dev.groupby("d2", as_index=False)["n"].sum().sort_values("d2")
        mad4 = wmedian2(dev["d2"].to_numpy(), dev["n"].to_numpy())
        thresholds[et] = (m2, mad4)

    def flag(batch: pa.Table) -> pd.DataFrame:
        et = batch.column("event_type").to_pylist()
        c = np.round(
            batch.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype("int64")
        m2 = np.array([thresholds[e][0] for e in et], dtype=np.int64)
        mad4 = np.array([thresholds[e][1] for e in et], dtype=np.int64)
        dev2 = np.abs(2 * c - m2)
        keep = 4 * dev2 > 7 * mad4
        return pd.DataFrame({
            "event_id": batch.column("event_id").to_numpy(
                zero_copy_only=False)[keep],
            "event_type": np.asarray(et, dtype=object)[keep],
            "value": batch.column("value").to_numpy(
                zero_copy_only=False)[keep],
        })

    out = ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


def q_events_resample(sf_dir: str):
    """Time-series resample: per-user hourly grid between the user's
    first and last observed hour, gaps filled with n_events = 0 and the
    hourly cents total FORWARD-FILLED from the most recent non-empty
    hour — the gap-fill/ffill primitive behind rate dashboards and
    feature windows. All integers end-to-end (no float compare).

    Shuffle discipline: ONE user-hash bucket exchange (users are
    disjoint across buckets, so grids never straddle); inside a bucket
    the grid is built with np.repeat/arange and the forward fill is the
    maximum.accumulate index trick — no per-user loop. The fill cannot
    bleed across users because each user's first grid hour IS its first
    observed hour (an observed fill anchor by construction). Grid rows
    are bounded by users x span-hours, ~10x the input at this corpus
    shape; at 100 TB the same bound holds per bucket and the exchange
    ships only the (user, hour) pre-aggregate, not raw events."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "value"]
    )
    n_buckets = auto_buckets(ds)

    def partial(batch: pa.Table) -> pd.DataFrame:
        """Pre-aggregate to (user, hour) grain BEFORE the exchange."""
        t = pa.table({
            "user_id": batch.column("user_id"),
            "hour": pc.floor_temporal(batch.column("ts"), unit="hour"),
            "cents": pc.cast(
                pc.round(pc.multiply(batch.column("value"),
                                     pa.scalar(100.0))), pa.int64()),
        }).to_pandas()
        g = t.groupby(["user_id", "hour"], as_index=False).agg(
            n_events=("cents", "size"), cents=("cents", "sum"))
        return g

    def resample(group: pd.DataFrame) -> pd.DataFrame:
        g = (group.groupby(["user_id", "hour"], as_index=False)
                  .agg(n_events=("n_events", "sum"), cents=("cents", "sum"))
                  .sort_values(["user_id", "hour"]))
        uid = g["user_id"].to_numpy()
        h_int = g["hour"].to_numpy().astype("datetime64[h]").astype("int64")
        first = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(first)
        ends = np.r_[starts[1:], len(uid)]
        h0, h1 = h_int[starts], h_int[ends - 1]
        span = h1 - h0 + 1
        total = int(span.sum())
        grid_base = np.cumsum(span) - span
        guser = np.repeat(uid[starts], span)
        ghour = (np.arange(total, dtype=np.int64)
                 - np.repeat(grid_base, span) + np.repeat(h0, span))
        obs_group = np.cumsum(first) - 1
        pos = grid_base[obs_group] + (h_int - h0[obs_group])
        n = np.zeros(total, dtype=np.int64)
        n[pos] = g["n_events"].to_numpy().astype(np.int64)
        c = np.zeros(total, dtype=np.int64)
        c[pos] = g["cents"].to_numpy()
        has = np.zeros(total, dtype=bool)
        has[pos] = True
        idx = np.where(has, np.arange(total), 0)
        np.maximum.accumulate(idx, out=idx)
        return pd.DataFrame({
            "user_id": guser,
            "hour": ghour.astype("datetime64[h]").astype("datetime64[us]"),
            "n_events": n,
            "filled_cents": c[idx],
        })

    out = bucket_group_map(
        ds.map_batches(partial, batch_format="pyarrow"),
        key_buckets("user_id", n_buckets), resample,
    )
    return (
        out.to_pandas()
        .sort_values(["user_id", "hour"])
        .reset_index(drop=True)
    )


def q_events_scd2(sf_dir: str):
    """SCD TYPE-2 DIMENSION BUILD: compress each user's event-type
    stream into change-versioned validity intervals — one row per
    CHANGE of event_type (consecutive repeats merge), carrying
    ``[valid_from, valid_to)`` microsecond bounds, a 1-based version
    number, and int64-max as the open-ended sentinel for the current
    version. The slowly-changing-dimension construction every
    warehouse/feature-store pipeline runs over a change log; the
    compaction dual of events_latest (which keeps one row per key,
    this keeps one row per STATE EPISODE). Reference n/a — engine-level
    relational op (SURVEY.md §2.6).

    Scale shape: ONE user-hash exchange (a user's full history
    co-locates, like every window op here); in-bucket the change mask,
    version numbers and interval ends are three vectorized shifts over
    the (user, ts, event_id)-sorted frame — no per-user loop, no
    driver state beyond the bounded result. Ordering ties on equal ts
    break by event_id, mirrored in the oracle's window ORDER BY."""
    import numpy as np

    OPEN_END = np.int64(np.iinfo(np.int64).max)

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts",
                                       "event_id"]
    )

    def compress(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy(dtype=np.int64)
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        change = new_user | np.r_[False, et[1:] != et[:-1]]
        keep = np.flatnonzero(change)
        k_uid = uid[keep]
        k_from = ts_us[keep]
        # valid_to = next change row's valid_from within the same user
        k_to = np.empty(len(keep), dtype=np.int64)
        k_to[:-1] = k_from[1:]
        k_to[-1:] = OPEN_END
        last_of_user = np.r_[k_uid[1:] != k_uid[:-1], True]
        k_to[last_of_user] = OPEN_END
        # 1-based version per user among change rows
        starts = np.flatnonzero(np.r_[True, k_uid[1:] != k_uid[:-1]])
        run_id = np.cumsum(np.r_[False, k_uid[1:] != k_uid[:-1]])
        version = np.arange(len(keep), dtype=np.int64) - starts[run_id] + 1
        return pd.DataFrame({
            "user_id": k_uid,
            "version": version,
            "event_type": et[keep],
            "valid_from_us": k_from,
            "valid_to_us": k_to,
        })

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), compress).to_pandas()
    return (out.sort_values(["user_id", "version"])
            .reset_index(drop=True))


def q_events_distinct_running(sf_dir: str):
    """RUNNING COUNT(DISTINCT) WINDOW: per user ordered by (ts,
    event_id), the number of distinct event types seen SO FAR at each
    event — the exploration/coverage curve behind onboarding funnels
    and behavioral-breadth features, and the one window-family member
    whose naive form (a set per row) doesn't vectorize. Reference n/a —
    engine-level relational op (SURVEY.md §2.6).

    Scale shape: ONE user-hash exchange; in-bucket the running distinct
    count is first-occurrence-mask (pandas duplicated over the
    (user, type) pair on the sorted frame) + one per-user cumulative
    sum — integer-exact, no per-row set state. The oracle is DuckDB's
    COUNT(DISTINCT) OVER with the same ROWS frame."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts",
                                       "event_id"]
    )

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy(dtype=np.int64)
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        first = (~g.duplicated(["user_id", "event_type"])).to_numpy()
        cum = np.cumsum(first.astype(np.int64))
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        run_id = np.cumsum(np.r_[False, uid[1:] != uid[:-1]])
        base = np.r_[0, cum[:-1]][starts]  # cumsum before each user run
        n_types = cum - base[run_id]
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(dtype=np.int64),
            "user_id": uid,
            "ts_us": ts_us,
            "n_types": n_types,
        })

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), running).to_pandas()
    return (out.sort_values(["user_id", "ts_us", "event_id"])
            .reset_index(drop=True))


def q_part_clustering_coeff(sf_dir: str):
    """LOCAL CLUSTERING COEFFICIENT over the part co-purchase graph:
    per node with degree >= 2, the fraction of its neighbor pairs that
    are themselves connected — 2*triangles / (deg*(deg-1)), the
    transitivity statistic next to part_triangles (its numerator) and
    part_communities (what dense clustering predicts). Reference n/a —
    engine-level graph op.

    Scale shape: triangle counts ride the degree-ordered wedge pipeline
    (:func:`stages.graph.triangle_counts`, bounded pair-bucket
    exchanges); degrees are one bucketed groupby over the distinct
    undirected edge list (:func:`stages.graph.node_degrees`); the final
    merge is driver-side over one bounded row per node (the
    part_triangles precedent). Integer counts everywhere; the
    coefficient is ONE mirrored float division, so doubles match the
    oracle bitwise."""
    import numpy as np

    from ..stages.graph import (group_cooccurrence_edges, node_degrees,
                                triangle_counts)

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    deg = node_degrees(edges).to_pandas().astype(
        {"node": "int64", "deg": "int64"})
    tri = triangle_counts(edges).to_pandas()
    if tri.empty:  # Ray drops columns on all-empty to_pandas()
        tri = pd.DataFrame({c: pd.Series([], dtype="int64")
                            for c in ("node", "triangles")})
    tri = tri.astype({"node": "int64", "triangles": "int64"})
    out = deg.merge(tri, on="node", how="left")
    out["triangles"] = out["triangles"].fillna(0).astype("int64")
    out = out[out["deg"] >= 2].copy()
    d = out["deg"].to_numpy(dtype=np.int64)
    t = out["triangles"].to_numpy(dtype=np.int64)
    out["cc"] = (2 * t).astype(np.float64) / (d * (d - 1)).astype(np.float64)
    return (out[["node", "deg", "triangles", "cc"]]
            .sort_values("node").reset_index(drop=True))


def q_docs_bm25(sf_dir: str, terms: tuple = ("join", "hash", "vector"),
                k: int = 10):
    """BM25 RANKED RETRIEVAL (top-k): score every document against a
    fixed query by the BM25 term-saturation formula — tf*(k1+1) /
    (tf + k1*(1-b+b*dl/avgdl)) per term, k1=1.2, b=0.75 — with the
    ratio idf N/df (the docs_tfidf discipline: log() would pin the
    result to a libm; the N/df ratio keeps every float bitwise-
    reproducible across engines). The ranked-retrieval op next to
    docs_search (boolean AND) and docs_postings (the index built for
    exactly this scoring). Reference n/a — engine-level op.

    Scale shape: TWO pruned corpus passes, no exchange. Pass 1 reduces
    each batch to ONE integer stats row (doc count, token total,
    per-term df); the driver merges ⌈batches⌉ rows into the broadcast
    constants (N, avgdl, df) — shipped in the pass-2 task closure (the
    kmeans lesson: tiny read-only arrays ride closures, not actor
    state). Pass 2 scores matching docs per batch and keeps only that
    batch's top-k — the global top-k is a subset of the union of
    per-batch top-ks, so the driver merges ≤ batches×k rows, never the
    corpus. Floats: each term's contribution is one mirrored
    expression over exact integers (tf, dl, df, N, T); the 3-term sum
    is written left-associated identically in the SQL oracle."""
    import numpy as np

    term_list = list(terms)
    t_index = {t: i for i, t in enumerate(term_list)}
    n_terms = len(term_list)

    def _tf_matrix(b: pd.DataFrame):
        """(ids, lens, counts[len × n_terms]) for non-empty docs."""
        text = b["text"].fillna("").str.strip().str.lower()
        ok = (text != "").to_numpy()
        lists = text[ok].str.split().tolist()
        ids = b.loc[ok, "doc_id"].to_numpy(np.int64)
        if not lists:
            return ids, np.empty(0, np.int64), np.empty((0, n_terms),
                                                        np.int64)
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        flat = np.concatenate([np.asarray(l, dtype=object) for l in lists])
        doc_ix = np.repeat(np.arange(len(lists)), lens)
        hit = np.isin(flat, term_list)
        counts = np.zeros((len(lists), n_terms), dtype=np.int64)
        if hit.any():
            t_ix = np.fromiter((t_index[t] for t in flat[hit]), np.int64,
                               int(hit.sum()))
            combo = doc_ix[hit] * n_terms + t_ix
            bc = np.bincount(combo, minlength=len(lists) * n_terms)
            counts = bc.reshape(len(lists), n_terms).astype(np.int64)
        return ids, lens, counts

    def stats_partial(b: pd.DataFrame) -> pd.DataFrame:
        _, lens, counts = _tf_matrix(b)
        return pd.DataFrame({
            "n_docs": [np.int64(len(lens))],
            "tot": [lens.sum() if len(lens) else np.int64(0)],
            **{f"df{i}": [np.int64((counts[:, i] > 0).sum())]
               for i in range(n_terms)},
        }).astype("int64")

    def _read():
        return ray.data.read_parquet(
            _t(sf_dir, "documents"), columns=["doc_id", "text"])

    stats = _read().map_batches(
        stats_partial, batch_format="pandas").to_pandas()
    n_corpus = int(stats["n_docs"].sum())
    tot = int(stats["tot"].sum())
    dfs = [int(stats[f"df{i}"].sum()) for i in range(n_terms)]
    empty = pd.DataFrame({
        "rank": pd.Series([], dtype="int64"),
        "doc_id": pd.Series([], dtype="int64"),
        "score": pd.Series([], dtype="float64"),
    })
    if n_corpus == 0:
        return empty
    avgdl = np.float64(tot) / np.float64(n_corpus)
    idfs = [np.float64(n_corpus) / np.float64(d) if d else np.float64(0.0)
            for d in dfs]

    def score_topk(b: pd.DataFrame) -> pd.DataFrame:
        ids, lens, counts = _tf_matrix(b)
        any_hit = (counts > 0).any(axis=1)
        if not any_hit.any():
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64")})
        ids, lens, counts = ids[any_hit], lens[any_hit], counts[any_hit]
        dl = lens.astype(np.float64)
        norm = 1.2 * (0.25 + 0.75 * (dl / avgdl))
        score = np.zeros(len(ids), dtype=np.float64)
        # left-associated fixed-order sum, mirrored verbatim in the SQL
        for i in range(n_terms):
            tf = counts[:, i].astype(np.float64)
            contrib = np.where(
                tf > 0.0, idfs[i] * ((tf * 2.2) / (tf + norm)), 0.0)
            score = score + contrib
        part = pd.DataFrame({"doc_id": ids, "score": score})
        return part.sort_values(["score", "doc_id"],
                                ascending=[False, True]).head(k)

    cand = _read().map_batches(score_topk, batch_format="pandas").to_pandas()
    if cand.empty:
        return empty
    out = cand.sort_values(["score", "doc_id"],
                           ascending=[False, True]).head(k)
    out = out.astype({"doc_id": "int64"})
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    return out.reset_index(drop=True)


def q_part_degree_hist(sf_dir: str):
    """DEGREE DISTRIBUTION of the part co-purchase graph: how many
    nodes have each degree — the first diagnostic a pipeline reads off
    any graph it builds (skew detection: a heavy tail here is what the
    degree-ordered wedge machinery exists to survive). Reference n/a —
    engine-level graph op.

    Scale shape: per-node degrees from ONE bucketed exchange
    (:func:`stages.graph.node_degrees`); the histogram then collapses
    per batch to (deg, count) partials and the driver merges only
    distinct-degree rows (bounded by the max degree, not nodes)."""
    from ..stages.graph import group_cooccurrence_edges, node_degrees

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    deg = node_degrees(group_cooccurrence_edges(
        li, "l_orderkey", "l_partkey"))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = b.groupby("deg", as_index=False).size()
        return pd.DataFrame({"deg": out["deg"].astype("int64"),
                             "n": out["size"].astype("int64")})

    parts = deg.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("deg", as_index=False).agg(n_nodes=("n", "sum"))
    out["n_nodes"] = out["n_nodes"].astype("int64")
    return out.sort_values("deg").reset_index(drop=True)


def q_events_paths(sf_dir: str, k: int = 5):
    """TOP USER JOURNEYS: each user's first-``k`` event types (ordered
    by ts, ties by event_id) joined into a '>'-separated path string,
    counted across users — the sequence-mining census next to
    events_funnel (fixed target sequence), events_pattern (regex
    match) and events_transitions (1-step Markov): this one reports
    the empirical k-prefix distribution itself. Reference n/a —
    engine-level relational op.

    Scale shape: ONE user-hash exchange; in-bucket a vectorized
    run-position mask keeps each user's first k rows, per-user joins
    run over ≤ k strings each, and the bucket emits (path, n_users)
    PARTIALS — the driver merges distinct paths only (bounded by the
    observed k-prefix vocabulary, ≤ |event_types|^k, never users)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts",
                                       "event_id"]
    )

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        run_id = np.cumsum(np.r_[False, uid[1:] != uid[:-1]])
        pos = np.arange(len(uid)) - starts[run_id]
        head = g[pos < k]
        p = head.groupby("user_id", sort=False)["event_type"].agg(
            ">".join)
        out = p.to_frame("path").groupby("path", as_index=False).size()
        return pd.DataFrame({"path": out["path"].astype(str),
                             "n": out["size"].astype("int64")})

    parts = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), paths).to_pandas()
    out = parts.groupby("path", as_index=False).agg(n_users=("n", "sum"))
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("path").reset_index(drop=True)


def q_docs_kwic(sf_dir: str, term: str = "vector", window: int = 3):
    """KEYWORD IN CONTEXT (concordance): one row per occurrence of the
    query term with up to ``window`` tokens of left/right context —
    the corpus-inspection op behind targeted quality review and
    decontamination forensics ("show me every hit with its
    surroundings"). Tokenization is the corpus-wide convention
    (lower(trim(text)) whitespace split). Reference n/a — engine-level
    op.

    Embarrassingly parallel, no exchange: per batch the flattened
    token array yields occurrence indices via one equality compare;
    each context column is one shifted gather masked at document
    boundaries (empties are contiguous at the edges, so a plain join +
    strip reproduces SQL's array_to_string over the clamped slice).
    Only occurrence rows leave the worker."""
    import numpy as np

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def kwic(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "pos": pd.Series([], dtype="int64"),
            "left_ctx": pd.Series([], dtype=str),
            "right_ctx": pd.Series([], dtype=str),
        })
        text = b["text"].fillna("").str.strip().str.lower()
        ok = (text != "").to_numpy()
        lists = text[ok].str.split().tolist()
        ids = b.loc[ok, "doc_id"].to_numpy(np.int64)
        if not lists:
            return empty
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        flat = np.concatenate([np.asarray(l, dtype=object) for l in lists])
        doc_ix = np.repeat(np.arange(len(lists)), lens)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        occ = np.flatnonzero(flat == term)
        if not len(occ):
            return empty
        d = doc_ix[occ]
        o = occ - starts[d]          # 0-based position within the doc
        sides = {}
        for sign, name in ((-1, "left_ctx"), (1, "right_ctx")):
            cols = []
            rng = range(window, 0, -1) if sign < 0 else range(1, window + 1)
            for off in rng:
                j = o + sign * off
                valid = (j >= 0) & (j < lens[d])
                tok = np.where(valid, flat[np.clip(occ + sign * off, 0,
                                                   len(flat) - 1)], "")
                cols.append(pd.Series(tok, dtype=str))
            joined = cols[0].str.cat(cols[1:], sep=" ").str.strip()
            # empties are contiguous at the edges; collapse runs of
            # spaces left by them (never between two kept tokens)
            sides[name] = joined.str.replace(r" +", " ", regex=True)
        return pd.DataFrame({
            "doc_id": ids[d],
            "pos": o + 1,            # 1-based, the SQL convention
            "left_ctx": sides["left_ctx"].to_numpy(),
            "right_ctx": sides["right_ctx"].to_numpy(),
        })

    out = docs.map_batches(kwic, batch_format="pandas").to_pandas()
    if out.empty:
        # all-empty datasets lose their columns through to_pandas()
        return pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "pos": pd.Series([], dtype="int64"),
            "left_ctx": pd.Series([], dtype=str),
            "right_ctx": pd.Series([], dtype=str),
        })
    return (out.sort_values(["doc_id", "pos"])
            .reset_index(drop=True))


def q_events_churn(sf_dir: str):
    """WEEKLY GROWTH ACCOUNTING: per epoch-week (the events_retention
    convention), how many users were active, new (first-ever week),
    retained (also active the week before) and churned (active the
    week before, absent this week) — the standard active-user
    waterfall next to retention's cohort matrix. Reference n/a —
    engine-level relational op.

    Scale shape: ONE user-hash exchange; inside a bucket the distinct
    (user, week) rows sort once and every flag is a shifted compare
    over the run-length structure (no per-user loop); churn emits at
    week+1 as a candidate. Per-bucket (week, counts) partials are
    additive (user sets disjoint), and the driver merges rows bounded
    by the CALENDAR (weeks × buckets), never users. Weeks with zero
    corpus-wide activity are dropped (mirrors the oracle's
    distinct-week frame)."""
    import numpy as np

    WEEK_US = 7 * 86400 * 10**6

    ds = ray.data.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])

    def churn(g: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "u": g["user_id"].to_numpy(np.int64),
            "w": g["ts"].astype("int64").to_numpy() // WEEK_US,
        }).drop_duplicates().sort_values(["u", "w"])
        u = d["u"].to_numpy()
        w = d["w"].to_numpy()
        same_prev = np.r_[False, (u[1:] == u[:-1])]
        new = ~same_prev                                   # first week of the run
        retained = same_prev & np.r_[False, w[1:] == w[:-1] + 1]
        # churn source: no row (same user, week + 1) follows this one
        cont = np.r_[(u[1:] == u[:-1]) & (w[1:] == w[:-1] + 1), False]
        frames = [
            pd.DataFrame({"week": w, "kind": "a"}),
            pd.DataFrame({"week": w[new], "kind": "n"}),
            pd.DataFrame({"week": w[retained], "kind": "r"}),
            pd.DataFrame({"week": w[~cont] + 1, "kind": "c"}),
        ]
        e = pd.concat(frames, ignore_index=True)
        out = e.groupby(["week", "kind"], as_index=False).size()
        return pd.DataFrame({"week": out["week"].astype("int64"),
                             "kind": out["kind"].astype(str),
                             "n": out["size"].astype("int64")})

    parts = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), churn).to_pandas()
    p = parts.pivot_table(index="week", columns="kind", values="n",
                          aggfunc="sum", fill_value=0).reset_index()
    for k in "anrc":
        if k not in p.columns:
            p[k] = 0
    p = p[p["a"] > 0]  # only weeks with corpus-wide activity
    out = pd.DataFrame({
        "week": p["week"].astype("int64"),
        "n_active": p["a"].astype("int64"),
        "n_new": p["n"].astype("int64"),
        "n_retained": p["r"].astype("int64"),
        "n_churned": p["c"].astype("int64"),
    })
    return out.sort_values("week").reset_index(drop=True)


def q_docs_vocab_growth(sf_dir: str, n_buckets: int = 64):
    """VOCABULARY GROWTH (Heaps'-law census): cumulative distinct-word
    count after each DECILE of the corpus in doc_id order — the
    diagnostic that says whether a corpus's vocabulary is saturating
    (dedup working) or still growing linearly (new domains arriving).
    Reference n/a — engine-level corpus census.

    Scale shape: a word's growth contribution is decided by its global
    MIN(doc_id) — per batch the explode collapses to per-word minima
    (one C-level groupby), ONE term-hash bucket exchange completes the
    global min per word, and each bucket emits only (decile, n) counts:
    the driver merges ≤ 10 × n_buckets rows and cumsums a 10-row axis.
    Tokenization is the corpus convention (lower(trim(text))
    whitespace split)."""
    import numpy as np

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"])
    n_docs = docs.count()  # metadata-only on a fresh parquet read

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("").str.strip().str.lower()
        ok = text != ""
        e = pd.DataFrame({
            "doc_id": b.loc[ok, "doc_id"].astype("int64"),
            "term": text[ok].str.split(),
        }).explode("term")
        m = e.groupby("term", as_index=False)["doc_id"].min()
        return pd.DataFrame({
            "term": m["term"].astype(str),
            "fd": m["doc_id"].astype("int64"),
        })

    def decile_counts(g: pd.DataFrame) -> pd.DataFrame:
        fd = g.groupby("term")["fd"].min().to_numpy()
        dec = fd * 10 // n_docs + 1
        d, n = np.unique(dec, return_counts=True)
        return pd.DataFrame({"decile": d.astype("int64"),
                             "nw": n.astype("int64")})

    parts = bucket_group_map(
        docs.map_batches(partial, batch_format="pandas"),
        key_buckets("term", n_buckets), decile_counts,
    ).to_pandas()
    axis = pd.DataFrame({"decile": np.arange(1, 11, dtype=np.int64)})
    if parts.empty:
        merged = axis.assign(nw=0)
    else:
        merged = axis.merge(
            parts.groupby("decile", as_index=False)["nw"].sum(),
            on="decile", how="left").fillna({"nw": 0})
    merged["vocab_size"] = merged["nw"].cumsum().astype("int64")
    return merged[["decile", "vocab_size"]].reset_index(drop=True)


def q_part_modularity(sf_dir: str):
    """GRAPH PARTITION QUALITY: Newman modularity of the brand
    partition over the part co-purchase graph — the score a pipeline
    reads to decide whether an attribute (here ``p_brand``) explains
    the graph's community structure before running detection
    (part_communities). Reference n/a — engine-level graph op.

    Exactness: with the DIRECTED distinct edge list E (each undirected
    edge appears both ways, M = |E| = 2m), a community's contribution
    is Q_c = (M*W_c - D_c^2) / M^2 where W_c = directed within-edges
    and D_c = edges with src in c — all plain integer counts, merged as
    Python ints on a driver table bounded by the BRAND vocabulary, with
    ONE mirrored float division at the end (the events_share / Welch-t
    precedent). Q = sum(q_contrib).

    Scale shape: edges from the two bounded co-occurrence exchanges,
    brands attached by TWO hash joins (part is a dim table but not
    broadcast-small at 100 TB), per-batch (brand, d, w) partials, and a
    driver merge over distinct brands only."""
    import numpy as np

    from ..stages.graph import group_cooccurrence_edges
    from .joins import hash_join

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    part = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand"])

    bsrc = part.map_batches(
        lambda b: pa.table({"pk_s": b.column("p_partkey"),
                            "b_src": b.column("p_brand")}),
        batch_format="pyarrow")
    bdst = part.map_batches(
        lambda b: pa.table({"pk_d": b.column("p_partkey"),
                            "b_dst": b.column("p_brand")}),
        batch_format="pyarrow")
    annotated = hash_join(
        hash_join(edges, bsrc, left_on="src", right_on="pk_s"),
        bdst, left_on="dst", right_on="pk_d")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        within = (b["b_src"] == b["b_dst"]).astype("int64")
        out = (pd.DataFrame({"brand": b["b_src"], "w": within})
               .groupby("brand", as_index=False)
               .agg(d=("w", "size"), w=("w", "sum")))
        return pd.DataFrame({"brand": out["brand"].astype(str),
                             "d": out["d"].astype("int64"),
                             "w": out["w"].astype("int64")})

    stats = (annotated.map_batches(partial, batch_format="pandas")
             .to_pandas())

    def nodes_partial(b: pd.DataFrame) -> pd.DataFrame:
        out = b.groupby("p_brand", as_index=False).size()
        return pd.DataFrame({"brand": out["p_brand"].astype(str),
                             "n": out["size"].astype("int64")})

    nn = (part.map_batches(nodes_partial, batch_format="pandas")
          .to_pandas().groupby("brand", as_index=False)["n"].sum())

    # driver merge: Python ints over the bounded brand vocabulary
    d_by, w_by = {}, {}
    for brand, d, w in zip(stats["brand"], stats["d"], stats["w"]):
        d_by[brand] = d_by.get(brand, 0) + int(d)
        w_by[brand] = w_by.get(brand, 0) + int(w)
    M = sum(d_by.values())
    rows = []
    for brand, n in sorted(zip(nn["brand"], nn["n"])):
        d = d_by.get(brand, 0)
        w = w_by.get(brand, 0)
        q = float(M * w - d * d) / float(M * M) if M else 0.0
        rows.append((brand, int(n), d, w // 2, q))
    return pd.DataFrame(rows, columns=[
        "brand", "n_nodes", "d_sum", "e_within", "q_contrib"])


def q_part_zorder(sf_dir: str):
    """Z-ORDER DATA LAYOUT CLUSTERING: each part's Morton code over the
    (p_size, decicent price) grid and its GLOBAL rank in zcode order —
    the multi-dimensional clustering key a lakehouse sorts files by
    (Delta/Iceberg ``ZORDER BY``) so range predicates on EITHER
    dimension prune well. Reference n/a — engine-level layout op.

    Bit spreading is the classic vectorized mask cascade (one numpy
    pass, no per-row loop); the global rank reuses the docs_shuffle
    primitive — the zcode's high bits are themselves a RANGE
    partitioner, so pass 1 collapses batches to per-bucket counts
    (driver merges bucket offsets in Python ints) and pass 2 sorts
    WITHIN buckets only, never a global all-to-all sort. Bucket
    boundaries follow the DATA's value range (top-12-bit prefix), so
    skewed dimension distributions only unbalance buckets, never break
    ordering. Rounding mirrors DuckDB's round() (half AWAY from zero —
    np.round is half-to-even and diverges on exact .5 ties like
    929.25*10): non-ties use np.round, exact ties get floor+1 (values
    are positive)."""
    import numpy as np

    def spread16(v: np.ndarray) -> np.ndarray:
        """Interleave-ready spread: 16-bit value -> even bit positions."""
        v = v.astype(np.uint64)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
        return v

    def _round_half_away(v: np.ndarray) -> np.ndarray:
        """DuckDB round() for positive doubles: half away from zero.
        np.round alone is half-to-even (929.25*10 = exactly 9292.5
        → np.round 9292, DuckDB 9293)."""
        f = np.floor(v)
        return np.where(v - f == 0.5, f + 1.0, np.round(v))

    def zcodes(batch: pa.Table) -> pd.DataFrame:
        x = (batch.column("p_size").to_numpy(zero_copy_only=False)
             .astype(np.int64) & 0xFFFF)
        y = (_round_half_away(
                batch.column("p_retailprice")
                .to_numpy(zero_copy_only=False) * 10)
             .astype(np.int64) & 0xFFFF)
        z = ((spread16(x) << np.uint64(1)) | spread16(y)).astype(np.int64)
        return pd.DataFrame({
            "p_partkey": batch.column("p_partkey").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "zcode": z,
        })

    def prefix(zcode) -> np.ndarray:
        return zcode >> 20  # top-12-bit prefix = range bucket

    coded = ray.data.read_parquet(
        _t(sf_dir, "part"),
        columns=["p_partkey", "p_size", "p_retailprice"],
    ).map_batches(zcodes, batch_format="pyarrow")

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        out = (b.assign(hb=prefix(b["zcode"].to_numpy()))
               .groupby("hb", as_index=False).size())
        return pd.DataFrame({"hb": out["hb"].astype("int64"),
                             "n": out["size"].astype("int64")})

    parts = coded.map_batches(counts, batch_format="pandas").to_pandas()
    per_bucket: dict[int, int] = {}
    for hb, n in zip(parts["hb"], parts["n"]):
        per_bucket[int(hb)] = per_bucket.get(int(hb), 0) + int(n)
    offsets: dict[int, int] = {}
    run = 0
    for hb in sorted(per_bucket):
        offsets[hb] = run
        run += per_bucket[hb]

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["zcode", "p_partkey"]).reset_index(drop=True)
        base = offsets[prefix(int(g["zcode"].iloc[0]))]
        return pd.DataFrame({
            "p_partkey": g["p_partkey"].astype("int64"),
            "zcode": g["zcode"].astype("int64"),
            "zrank": (base + np.arange(len(g))).astype("int64"),
        })

    out = bucket_group_map(
        coded, lambda t: prefix(t.column("zcode").to_numpy()), rank
    ).to_pandas()
    return out.sort_values("p_partkey").reset_index(drop=True)


def q_part_assortativity(sf_dir: str):
    """DEGREE ASSORTATIVITY of the part co-purchase graph: the Pearson
    correlation of endpoint degrees over the directed distinct edge
    list — the one-number diagnostic that says whether hubs connect to
    hubs (assortative, r > 0) or to leaves (disassortative, r < 0),
    read alongside the degree histogram before sizing hub-cap knobs
    (part_link_predict) and wedge machinery. Reference n/a —
    engine-level graph op.

    Exactness: all six sufficient statistics (M, Σx, Σy, Σxy, Σx², Σy²
    with x = deg(src), y = deg(dst)) are integer counts summed as
    per-batch int64 partials and merged as Python ints; r is computed
    by the mirrored expression float(M·Σxy − Σx·Σy) /
    (sqrt(float(M·Σx² − Σx²)) · sqrt(float(M·Σy² − Σy²))) — the
    events_share / Welch-t precedent. Degenerate graphs (no edges, or
    regular degree ⇒ zero variance) report r = 0.0, mirrored by the
    oracle's CASE.

    Scale shape: degrees from ONE node-bucket exchange
    (:func:`stages.graph.node_degrees`), attached to both endpoints by
    TWO hash joins, then one-row per-batch partials — the driver holds
    six integers."""
    import math

    import numpy as np

    from ..stages.exchange import checkpoint
    from ..stages.graph import group_cooccurrence_edges, node_degrees
    from .joins import hash_join

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    # checkpoint both: edges feeds the join's left arm AND the degree
    # build; deg feeds BOTH join sides — without materialization the
    # lazy lineage re-executes the pair expansion per consumer (3x)
    edges = checkpoint(group_cooccurrence_edges(
        li, "l_orderkey", "l_partkey"))
    deg = checkpoint(node_degrees(edges))

    dsrc = deg.map_batches(
        lambda b: pa.table({"n_s": b.column("node"),
                            "deg_s": b.column("deg")}),
        batch_format="pyarrow")
    ddst = deg.map_batches(
        lambda b: pa.table({"n_d": b.column("node"),
                            "deg_d": b.column("deg")}),
        batch_format="pyarrow")
    annotated = hash_join(
        hash_join(edges, dsrc, left_on="src", right_on="n_s"),
        ddst, left_on="dst", right_on="n_d")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b["deg_s"].to_numpy(np.int64)
        y = b["deg_d"].to_numpy(np.int64)
        return pd.DataFrame({
            "m": [len(b)], "sx": [int(x.sum())], "sy": [int(y.sum())],
            "sxy": [int((x * y).sum())], "sxx": [int((x * x).sum())],
            "syy": [int((y * y).sum())],
        })

    parts = (annotated.map_batches(partial, batch_format="pandas")
             .to_pandas())
    M = int(parts["m"].sum()) if len(parts) else 0
    sx = sum(int(v) for v in parts["sx"]) if len(parts) else 0
    sy = sum(int(v) for v in parts["sy"]) if len(parts) else 0
    sxy = sum(int(v) for v in parts["sxy"]) if len(parts) else 0
    sxx = sum(int(v) for v in parts["sxx"]) if len(parts) else 0
    syy = sum(int(v) for v in parts["syy"]) if len(parts) else 0
    vx = M * sxx - sx * sx
    vy = M * syy - sy * sy
    if M == 0 or vx <= 0 or vy <= 0:
        r = 0.0
    else:
        r = (float(M * sxy - sx * sy)
             / (math.sqrt(float(vx)) * math.sqrt(float(vy))))
    return pd.DataFrame({"m_edges": pd.Series([M], dtype="int64"),
                         "r_assort": pd.Series([r], dtype="float64")})


def q_part_item_sim(sf_dir: str, k: int = 3):
    """ITEM-ITEM SIMILARITY (collaborative-filtering shape): for every
    part, the top-``k`` most similar parts by co-occurrence cosine —
    sim(i,j) = n_both / (sqrt(n_i)·sqrt(n_j)) over DISTINCT orders —
    the "customers also bought" kernel and the similarity weighting
    fed to part_substitutes-style analyses. Reference n/a —
    engine-level relational op.

    Exactness: n_both comes from the weighted co-occurrence edge
    builder (distinct-group pair counts, additive partials), n_i from
    one (order, part)-distinct exchange; sim is ONE mirrored float
    expression (double(n_both) / (sqrt(double(n_i)) · sqrt(double(n_j)))
    — bitwise vs DuckDB), so ordering by (sim DESC, dst ASC) and the
    oracle's row_number agree even through float ties.

    Scale shape: two bounded graph exchanges + TWO hash joins attach
    the per-item counts; top-k runs INSIDE src-hash buckets (one
    vectorized sort + C-level groupby head per bucket) — no global
    sort, no driver state beyond the final ≤ k·|parts| result."""
    import numpy as np

    from ..stages.graph import group_cooccurrence_weighted_edges
    from .joins import hash_join

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    pairs = group_cooccurrence_weighted_edges(
        li, "l_orderkey", "l_partkey")

    # n_i: distinct orders containing part i — per-batch dedup, then
    # one part-hash exchange completes the global distinct count
    nb = auto_buckets(li)

    def order_part(b: pd.DataFrame) -> pd.DataFrame:
        d = b.drop_duplicates(["l_orderkey", "l_partkey"])
        return pd.DataFrame({
            "p": d["l_partkey"].to_numpy(np.int64),
            "o": d["l_orderkey"].to_numpy(np.int64),
        })

    def item_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(["p", "o"])
               .groupby("p", as_index=False).size())
        return pd.DataFrame({"p": out["p"].astype("int64"),
                             "n": out["size"].astype("int64")})

    from ..stages.exchange import checkpoint

    # counts feeds BOTH join sides: materialize once or the distinct
    # (order, part) exchange executes twice inside the annotated join
    counts = checkpoint(bucket_group_map(
        li.map_batches(order_part, batch_format="pandas"),
        key_buckets("p", nb), item_counts))
    cs = counts.map_batches(
        lambda b: pa.table({"p_s": b.column("p"), "n_s": b.column("n")}),
        batch_format="pyarrow")
    cd = counts.map_batches(
        lambda b: pa.table({"p_d": b.column("p"), "n_d": b.column("n")}),
        batch_format="pyarrow")
    annotated = hash_join(
        hash_join(pairs, cs, left_on="src", right_on="p_s"),
        cd, left_on="dst", right_on="p_d")

    def add_sim(b: pd.DataFrame) -> pd.DataFrame:
        n_both = b["cnt"].to_numpy(np.int64)
        sim = (n_both.astype(np.float64)
               / (np.sqrt(b["n_s"].to_numpy(np.float64))
                  * np.sqrt(b["n_d"].to_numpy(np.float64))))
        return pd.DataFrame({
            "src": b["src"].to_numpy(np.int64), "dst": b["dst"].to_numpy(np.int64),
            "n_both": n_both, "sim": sim,
        })

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "sim", "dst"],
                          ascending=[True, False, True])
        g["rank"] = g.groupby("src").cumcount() + 1
        out = g[g["rank"] <= k]
        return pd.DataFrame({
            "src": out["src"].astype("int64"),
            "dst": out["dst"].astype("int64"),
            "n_both": out["n_both"].astype("int64"),
            "sim": out["sim"].astype("float64"),
            "rank": out["rank"].astype("int64"),
        })

    out = bucket_group_map(
        annotated.map_batches(add_sim, batch_format="pandas"),
        key_buckets("src", nb), topk,
    ).to_pandas()
    return out.sort_values(["src", "rank"]).reset_index(drop=True)


def q_part_hits(sf_dir: str, iters: int = 2, scale: int = 1_000_000):
    """HITS HUBS/AUTHORITIES on the bipartite purchase graph
    (Kleinberg 1999 — public method): customers are hubs, parts are
    authorities; a(p) = Σ h(c) over purchasers, h(c) = Σ a(p) over
    purchases, alternating ``iters`` times. The directed link-analysis
    op next to part_pagerank (which ranks the co-purchase projection);
    on a bipartite graph HITS is the natural form — authority ≈ the
    principal singular direction of the purchase matrix. Reference
    n/a — engine-level graph op.

    Exactness: all scores are int64 on the ``scale`` grid. Each
    half-step is (1) an integer SUM of the fixed side's scores over
    incident edges, (2) a global integer MAX (per-batch partials → one
    Python-int driver max), (3) floor-normalize s*scale//max — every
    operation order-independent, so the result is bitwise equal to the
    oracle's unrolled CTEs at any parallelism. int64 headroom: the
    un-normalized sum ≤ scale·max_degree, and the normalize multiply
    ≤ scale²·max_degree ≈ 1e16 at a 10k-degree hub — 600× under 2^63
    (lower ``scale`` past that).

    Scale shape: ONE orderkey hash join + one pair-bucket exchange
    build the distinct bipartite edge list (checkpointed; reused by
    all 2·iters half-steps); each half-step is one hash join + one
    bucketed sum + a max-partials pass; scores stay Datasets
    throughout."""
    import numpy as np

    from ..stages.exchange import checkpoint
    from .joins import hash_join

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    od = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"])
    nb = auto_buckets(li, od)
    joined = hash_join(li, od, left_on="l_orderkey",
                       right_on="o_orderkey", n_buckets=nb)

    def edge_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b.drop_duplicates(["o_custkey", "l_partkey"])
        return pd.DataFrame({
            "c": d["o_custkey"].to_numpy(np.int64),
            "p": d["l_partkey"].to_numpy(np.int64),
        })

    def edge_dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["c", "p"])[["c", "p"]]

    edges = checkpoint(bucket_group_map(  # every copy of (c, p) shares c
        joined.map_batches(edge_partial, batch_format="pandas"),
        key_buckets("c", nb), edge_dedup))

    def init_scores(col: str):
        def partial(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"id": np.unique(b[col].to_numpy(np.int64))})

        def dedup(g: pd.DataFrame) -> pd.DataFrame:
            out = g.drop_duplicates("id")[["id"]].copy()
            out["s"] = np.int64(scale)
            return out

        return checkpoint(bucket_group_map(
            edges.map_batches(partial, batch_format="pandas"),
            key_buckets("id", nb), dedup))

    def half_step(scores, from_col: str, to_col: str):
        """sum the fixed side's scores onto the other side, then
        max-normalize back to the scale grid."""
        sc = scores.map_batches(
            lambda b: pa.table({"sid": b.column("id"),
                                "s": b.column("s")}),
            batch_format="pyarrow")
        j = hash_join(edges, sc, left_on=from_col, right_on="sid",
                      n_buckets=nb)

        def sum_partial(b: pd.DataFrame) -> pd.DataFrame:
            out = b.groupby(to_col, as_index=False)["s"].sum()
            return pd.DataFrame({
                "id": out[to_col].to_numpy(np.int64),
                "s": out["s"].to_numpy(np.int64),
            })

        def sum_merge(g: pd.DataFrame) -> pd.DataFrame:
            out = g.groupby("id", as_index=False)["s"].sum()
            return pd.DataFrame({"id": out["id"].astype("int64"),
                                 "s": out["s"].astype("int64")})

        summed = checkpoint(bucket_group_map(
            j.map_batches(sum_partial, batch_format="pandas"),
            key_buckets("id", nb), sum_merge))

        mx_parts = summed.map_batches(
            lambda b: pd.DataFrame({"m": [int(b["s"].max())]}),
            batch_format="pandas").to_pandas()
        m = max(int(v) for v in mx_parts["m"])

        def normalize(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "id": b["id"].astype("int64"),
                "s": (b["s"].to_numpy(np.int64) * np.int64(scale)
                      // np.int64(m)).astype(np.int64),
            })

        return checkpoint(summed.map_batches(normalize,
                                             batch_format="pandas"))

    hubs = init_scores("c")
    auth = None
    for _ in range(iters):
        auth = half_step(hubs, "c", "p")
        hubs = half_step(auth, "p", "c")

    a = auth.to_pandas().assign(kind="part")
    h = hubs.to_pandas().assign(kind="customer")
    out = pd.concat([a, h], ignore_index=True)[["kind", "id", "s"]]
    out = out.astype({"id": "int64", "s": "int64"})
    return out.sort_values(["kind", "id"]).reset_index(drop=True)


def q_audit_referential(sf_dir: str):
    """DATA-QUALITY AUDIT: orphan counts for every foreign-key edge of
    the schema — lineitem→orders, lineitem→part, lineitem→supplier,
    orders→customer, customer→nation, supplier→nation, nation→region —
    the referential-integrity report a pipeline runs before trusting
    joins (an orphan fact row silently vanishes from every inner
    join). One row per edge: child rows, orphan rows, distinct orphan
    keys. Reference n/a — engine-level op.

    Scale shape: each edge is ONE semi-structured anti join through
    ``hash_join(how="anti")`` — the right side ships only its deduped
    key column — followed by count partials; child totals come from
    metadata-cheap ``Dataset.count()``. Null child keys count as
    orphans here (they vanish from inner joins too, which is what the
    audit measures) — hash_join's anti keeps them, matching the
    oracle's ``NOT EXISTS`` + ``IS NULL`` union."""
    import numpy as np

    from .joins import hash_join

    edges = [
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
        ("customer", "c_nationkey", "nation", "n_nationkey"),
        ("supplier", "s_nationkey", "nation", "n_nationkey"),
        ("nation", "n_regionkey", "region", "r_regionkey"),
    ]
    rows = []
    for child, ck, parent, pk in edges:
        c_ds = ray.data.read_parquet(_t(sf_dir, child), columns=[ck])
        p_ds = ray.data.read_parquet(_t(sf_dir, parent), columns=[pk])
        n_child = c_ds.count()
        orphans = hash_join(c_ds, p_ds, left_on=ck, right_on=pk,
                            how="anti")

        # distinct orphan keys through ONE key-hash exchange (never a
        # driver concat — a badly broken corpus could have fact-scale
        # orphan volume); rows ride alongside as additive counts
        def partial(b: pd.DataFrame, _ck=ck) -> pd.DataFrame:
            keys = b[_ck].dropna().to_numpy(np.int64)
            u = np.unique(keys)
            return pd.DataFrame({
                "key": u,
                "n": np.r_[np.int64(len(b)),
                           np.zeros(max(len(u) - 1, 0),
                                    dtype=np.int64)]
                if len(u) else np.full(0, 0, dtype=np.int64),
            }) if len(u) else pd.DataFrame({
                "key": [np.int64(-1)],
                "n": [np.int64(len(b))]})

        def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
            real = g[g["key"] >= 0]
            return pd.DataFrame({
                "n": [int(g["n"].sum())],
                "d": [int(real["key"].nunique())],
            })

        parts = bucket_group_map(
            orphans.map_batches(partial, batch_format="pandas"),
            key_buckets("key", 64), bucket_stats,
        ).to_pandas()
        n_orphan = int(parts["n"].sum()) if len(parts) else 0
        distinct = int(parts["d"].sum()) if len(parts) else 0
        rows.append((f"{child}.{ck}->{parent}.{pk}",
                     int(n_child), n_orphan, distinct))
    return pd.DataFrame(rows, columns=[
        "edge", "n_child", "n_orphans", "n_orphan_keys"])


def q_events_drawdown(sf_dir: str):
    """MAX DRAWDOWN per user: the largest peak-to-current drop of the
    event ``value`` series in (ts, event_id) order — the running-max
    window composed with a grouped max, the risk-metric shape
    (peak - trough after the peak). Reference n/a — engine-level
    relational op.

    Exactness: values become int64 cents; cummax/subtraction/max are
    integer; the two output doubles are single exact /100.0 conversions,
    so the result bit-matches the DECIMAL-window oracle.

    Scale shape: ONE user-hash bucket exchange (auto-sized), then one
    vectorized pandas sort + per-user cummax inside each bounded
    bucket; driver holds only the per-user result rows."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    )

    def drawdown(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        cents = np.round(g["value"].to_numpy() * 100).astype("int64")
        peak = pd.Series(cents, index=g.index).groupby(g["user_id"]).cummax()
        dd = peak.to_numpy() - cents
        out = pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "dd": dd, "peak": peak.to_numpy(),
        }).groupby("user_id", as_index=False).max()
        return pd.DataFrame({
            "user_id": out["user_id"].astype("int64"),
            "max_drawdown": out["dd"].to_numpy(np.int64) / 100.0,
            "peak_value": out["peak"].to_numpy(np.int64) / 100.0,
        })

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), drawdown).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def q_embeddings_auc(sf_dir: str, pos_label: int = 0):
    """ROC AUC of a scalar score (first embedding dimension) against
    the binary target ``label == pos_label`` — the Mann-Whitney U
    evaluation metric every trained classifier in stages/train.py
    needs, computed exactly from integer rank statistics (ties get the
    standard half credit). Reference n/a — engine-level op.

    Exactness: 2·U = Σ_s (2·pos(s)·neg_below(s) + pos(s)·neg(s)) over
    DISTINCT scores s is pure integer; AUC is ONE mirrored division
    float(2U) / float(2·n_pos·n_neg) — bitwise vs DuckDB's
    CAST-to-DOUBLE division.

    Scale shape: per-batch (score → pos/neg count) partials, ONE
    bounded exchange keyed by an order-preserving fixed-grid score
    bucket (ties share a bucket by construction), per-bucket local
    prefix sums; the driver cumsums only the ≤4096 bucket totals in
    Python ints (per-bucket 2U fits int64 up to ~2^31 rows per score
    bucket; the driver merge is arbitrary-precision)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["embedding", "label"])

    def score_bucket(score) -> np.ndarray:
        return np.clip(np.floor(score * 64.0), -2048, 2047).astype(np.int64)

    def partial(b: pa.Table) -> pd.DataFrame:
        score = pc.list_element(b.column("embedding"), 0).to_numpy(
            zero_copy_only=False).astype(np.float64)
        pos = (b.column("label").to_numpy(zero_copy_only=False)
               == pos_label)
        df = pd.DataFrame({"score": score,
                           "p": pos.astype(np.int64),
                           "n": (~pos).astype(np.int64)})
        out = df.groupby("score", as_index=False).sum()
        return pd.DataFrame({
            "score": out["score"].astype("float64"),
            "p": out["p"].astype("int64"),
            "n": out["n"].astype("int64"),
        })

    def bucket_term_keyed(g: pd.DataFrame) -> pd.DataFrame:
        sb = int(score_bucket(g["score"].to_numpy()[:1])[0])
        g = (g.groupby("score", as_index=False)[["p", "n"]].sum()
             .sort_values("score"))
        p = g["p"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        nb = np.cumsum(n) - n  # negatives strictly below, within bucket
        u2 = int((2 * p * nb + p * n).sum())
        return pd.DataFrame({
            "sb": [sb], "u2_local": [u2],
            "p": [int(p.sum())], "n": [int(n.sum())],
        })

    parts = bucket_group_map(
        ds.map_batches(partial, batch_format="pyarrow"),
        lambda t: score_bucket(t.column("score").to_numpy()),
        bucket_term_keyed,
    ).to_pandas()
    parts = parts.sort_values("sb").reset_index(drop=True)
    # driver: arbitrary-precision cross-bucket combine (≤4096 rows)
    u2 = 0
    neg_below = 0
    n_pos = 0
    n_neg = 0
    for _, row in parts.iterrows():
        u2 += int(row["u2_local"]) + 2 * int(row["p"]) * neg_below
        neg_below += int(row["n"])
        n_pos += int(row["p"])
        n_neg += int(row["n"])
    auc = float(u2) / float(2 * n_pos * n_neg)
    return pd.DataFrame({"n_pos": [n_pos], "n_neg": [n_neg],
                         "auc": [auc]})


def q_part_brand_itemsets(sf_dir: str, min_support: int = 60):
    """FREQUENT 3-ITEMSETS (Apriori census at k=3): brand triples that
    co-occur in at least ``min_support`` orders — the market-basket
    step above the pairwise co-occurrence/association ops
    (events_assoc_rules, part_item_sim). Reference n/a — engine-level
    relational op.

    Exactness: pure integer counting over globally-DISTINCT
    (order, brand) rows; triple expansion enumerates sorted in-order
    combinations so (b1 < b2 < b3) matches the oracle's self-join
    inequality chain.

    Scale shape (round 4, the VERDICT r3 item-2 pattern): the part
    dimension attaches through the size-aware join planner (broadcast
    under the 64 MB metadata cap, bucketed shuffle beyond) instead of a
    driver-built partkey-indexed array that grows with scale; only the
    BOUNDED brand→code table (|brands| ≈ 25, a domain not a table
    size) ships as a task-closure dict. ONE order-hash exchange makes
    (order, brand) globally distinct; triple generation is
    per-BASKET-SIZE-group fancy indexing (no per-order Python loop —
    the FastSS trick); each bucket emits ≤|brands|³ packed-code partial
    counts and the driver merges the bounded census in Python ints."""
    import numpy as np
    from itertools import combinations

    from .joins import join

    part_ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand"])
    # distinct brand domain, distributed (bounded: |brands| per block)
    brand_parts = part_ds.map_batches(
        lambda t: pa.table({"p_brand": pc.unique(t.column("p_brand"))}),
        batch_format="pyarrow",
    ).to_pandas()
    brands = np.sort(brand_parts["p_brand"].unique())
    code_of = {b: i for i, b in enumerate(brands)}
    nb_brands = len(brands)

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    n_buckets = auto_buckets(li)

    def to_order_brand(b: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame({
            "o": b["l_orderkey"].to_numpy(np.int64),
            "c": b["p_brand"].map(code_of).to_numpy(np.int32),
        }).drop_duplicates(["o", "c"])
        return df

    def count_triples(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["o", "c"]).sort_values(["o", "c"])
        o = g["o"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        # run-length: basket sizes per order
        starts = np.r_[0, np.flatnonzero(o[1:] != o[:-1]) + 1]
        sizes = np.diff(np.r_[starts, len(o)])
        census = np.zeros(nb_brands ** 3, dtype=np.int64)
        for k in np.unique(sizes):
            if k < 3:
                continue
            rows = starts[sizes == k]
            # (n_orders_k, k) brand matrix, rows already sorted by c
            mat = c[rows[:, None] + np.arange(k)]
            combo = np.array(list(combinations(range(k), 3)),
                             dtype=np.int64)  # (C(k,3), 3)
            t = mat[:, combo]  # (n, C(k,3), 3) sorted within triple
            codes = (t[..., 0] * nb_brands * nb_brands
                     + t[..., 1] * nb_brands + t[..., 2]).ravel()
            census += np.bincount(codes, minlength=nb_brands ** 3)
        nz = np.flatnonzero(census)
        return pd.DataFrame({"code": nz.astype(np.int64),
                             "cnt": census[nz]})

    parts = bucket_group_map(
        join(li, part_ds, "l_partkey", "p_partkey")
        .map_batches(to_order_brand, batch_format="pandas"),
        key_buckets("o", n_buckets), count_triples,
    ).to_pandas()
    total = parts.groupby("code", as_index=False)["cnt"].sum()
    total = total[total["cnt"] >= min_support]
    code = total["code"].to_numpy(np.int64)
    out = pd.DataFrame({
        "b1": brands[code // (nb_brands * nb_brands)],
        "b2": brands[(code // nb_brands) % nb_brands],
        "b3": brands[code % nb_brands],
        "support": total["cnt"].to_numpy(np.int64),
    })
    return (out.sort_values(["support", "b1", "b2", "b3"],
                            ascending=[False, True, True, True])
            .reset_index(drop=True))


def q_docs_char_entropy(sf_dir: str):
    """CHARACTER-CLASS ENTROPY per source: Shannon entropy (nats) of
    the {letter, digit, ascii-whitespace, other} distribution over each
    source's corpus — the distribution-shape quality signal beside the
    ratio-based docs_quality scores (gibberish/binary-ish sources show
    as entropy outliers). Reference n/a — engine-level text-analysis op.

    Exactness: the four class counts are exact integers (vectorized
    ascii-class regex counts, additive per-batch partials); entropy is
    the FIXED-ORDER expression ln(N) − (t_a + t_d + t_w + t_o)/N with
    t_c = c·ln(c) (0 if c = 0), evaluated in Python libm — bitwise
    equal to DuckDB's ln/double arithmetic on the same integers
    (verified: glibc log on both sides).

    Scale shape: per-batch count partials only (no exchange at all —
    sources are a bounded dimension); the driver sums a ≤|sources|×4
    table in Python ints and pays four ln calls per source."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["source", "text"])

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].astype(str)
        alpha = t.str.count(r"[A-Za-z]").to_numpy(np.int64)
        digit = t.str.count(r"[0-9]").to_numpy(np.int64)
        ws = t.str.count(r"[ \t\n\r\f\v]").to_numpy(np.int64)
        n = t.str.len().to_numpy(np.int64)
        df = pd.DataFrame({
            "source": b["source"].to_numpy(),
            "c_alpha": alpha, "c_digit": digit, "c_ws": ws,
            "c_other": n - alpha - digit - ws,
        })
        return df.groupby("source", as_index=False).sum()

    parts = ds.map_batches(counts, batch_format="pandas").to_pandas()
    agg = parts.groupby("source", as_index=False).sum()
    agg = _pysum_cols(agg, ["c_alpha", "c_digit", "c_ws", "c_other"])

    def entropy(row) -> float:
        cs = [int(row["c_alpha"]), int(row["c_digit"]),
              int(row["c_ws"]), int(row["c_other"])]
        n = sum(cs)
        if n == 0:
            return 0.0
        acc = 0.0
        for c in cs:  # FIXED order: alpha, digit, ws, other
            acc = acc + (float(c) * math.log(float(c)) if c > 0 else 0.0)
        return math.log(float(n)) - acc / float(n)

    out = pd.DataFrame({
        "source": agg["source"],
        "c_alpha": [int(v) for v in agg["c_alpha"]],
        "c_digit": [int(v) for v in agg["c_digit"]],
        "c_ws": [int(v) for v in agg["c_ws"]],
        "c_other": [int(v) for v in agg["c_other"]],
        "entropy": [entropy(r) for _, r in agg.iterrows()],
    })
    return out.sort_values("source").reset_index(drop=True)


def q_events_cusum(sf_dir: str, k_cents: int = 5500, h_cents: int = 30000):
    """CUSUM change detection per user: one-sided cumulative-sum
    control chart S_t = max(0, S_{t-1} + (x_t − k)) over each user's
    event values in (ts, event_id) order; rows where S_t > h flag a
    sustained upward drift — the sequential drift detector a
    data-quality pipeline runs over ingest streams. Reference n/a —
    engine-level relational op.

    Exactness: the recursive max(0, ·) has the closed form
    S_t = P_t − min(0, min_{j≤t} P_j) with P = cumsum(x − k), so the
    whole chart is two integer prefix passes (cumsum + cummin) in
    exact cents — bit-identical to the oracle's window expression.

    Scale shape: ONE auto-sized user-hash bucket exchange; inside each
    bucket one vectorized sort + per-user cumsum/cummin; only flagged
    rows leave the bucket."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    )
    k = np.int64(k_cents)
    h = np.int64(h_cents)

    def cusum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        d = np.round(g["value"].to_numpy() * 100).astype("int64") - k
        by_user = pd.Series(d, index=g.index).groupby(g["user_id"])
        p = by_user.cumsum().to_numpy()
        run_min = (pd.Series(p, index=g.index).groupby(g["user_id"])
                   .cummin().to_numpy())
        sv = p - np.minimum(np.int64(0), run_min)
        keep = sv > h
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64)[keep],
            "event_id": g["event_id"].to_numpy(np.int64)[keep],
            "sv": sv[keep],
        })

    out = bucket_group_map(
        ds, key_buckets("user_id", auto_buckets(ds)), cusum).to_pandas()
    return (out.sort_values(["user_id", "event_id"])
            .reset_index(drop=True))


def q_events_seasonal_naive(sf_dir: str, season_days: int = 7):
    """FORECAST BACKTEST (seasonal naive): predict each day's total
    event value by the total ``season_days`` earlier and report the
    exact absolute error per evaluable day — the baseline every
    forecasting pipeline is judged against. Reference n/a —
    engine-level relational op.

    Exactness: day totals are exact int64-cents partial sums (merged
    in Python ints on the bounded day axis); actual/forecast/abs_err
    are single /100.0 conversions, bit-matching the DECIMAL oracle.

    Scale shape: per-batch (day → cents) partials only — no exchange;
    the driver merges ≤|days| rows and joins day−7 by dict lookup."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["ts", "value"])
    us_per_day = np.int64(86_400_000_000)

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        day = (b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
               // us_per_day)
        cents = np.round(b["value"].to_numpy() * 100).astype("int64")
        out = (pd.DataFrame({"day": day, "cents": cents})
               .groupby("day", as_index=False).sum())
        return out

    parts = ds.map_batches(day_partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("day", as_index=False)["cents"].sum()
    totals = {int(d): int(c) for d, c in zip(agg["day"], agg["cents"])}
    rows = []
    for d in sorted(totals):
        ref = d - season_days
        if ref in totals:
            a, f = totals[d], totals[ref]
            rows.append((d, a, f, abs(a - f)))
    return pd.DataFrame({
        "day": pd.to_datetime(
            np.array([r[0] for r in rows], dtype=np.int64) * us_per_day,
            unit="us"),
        "actual": np.array([r[1] for r in rows], dtype=np.int64) / 100.0,
        "forecast": np.array([r[2] for r in rows], dtype=np.int64) / 100.0,
        "abs_err": np.array([r[3] for r in rows], dtype=np.int64) / 100.0,
    })


def q_orders_grouping_sets(sf_dir: str):
    """GROUPING SETS ((status), (priority), ()): three aggregation
    grains from ONE scan — the OLAP multi-grain shape beside CUBE
    (customer_cube) and ROLLUP (lineitem_rollup). Reference n/a —
    engine-level relational op.

    Exactness: exact int64-cents per-batch partials for all three
    grains at once (tagged-union rows), Python-int driver merge
    (_pysum_cols), one /100.0 per output row.

    Scale shape: no exchange — both grouping columns are bounded
    dimensions, so every batch emits ≤|status|+|priority|+1 partial
    rows and the driver merges a dimension-bounded table."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        frames = []
        for kind, col in (("status", "o_orderstatus"),
                          ("priority", "o_orderpriority")):
            g = (pd.DataFrame({"key": b[col].to_numpy(), "c": cents})
                 .groupby("key", as_index=False)
                 .agg(c=("c", "sum"), n=("c", "size")))
            g.insert(0, "kind", kind)
            frames.append(g)
        frames.append(pd.DataFrame({
            "kind": ["all"], "key": [""],
            "c": [int(cents.sum())], "n": [len(b)]}))
        return pd.concat(frames, ignore_index=True)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = (parts.groupby(["kind", "key"], as_index=False)
           .agg(c=("c", "sum"), n=("n", "sum")))
    agg = _pysum_cols(agg, ["c"])
    return pd.DataFrame({
        "kind": agg["kind"],
        "key": agg["key"],
        "total_price": [int(v) / 100.0 for v in agg["c"]],
        "n_orders": agg["n"].astype("int64"),
    }).sort_values(["kind", "key"]).reset_index(drop=True)


def q_part_skew_kurt(sf_dir: str):
    """Grouped SKEWNESS / KURTOSIS / sample stddev per brand from EXACT
    integer power sums — the higher-moment family beyond
    :func:`q_lineitem_corr`. Cents values c < 2^18 (TPC-H retail
    prices reach ~209,900 cents), so c^4 < 2^72 overflows int64 per
    element; the per-batch partials split c^2 = a*2^17 + b (a < 2^19,
    b < 2^17) and ship only int64-safe columns (s3h=Σac, s3l=Σbc,
    s4h=Σa², s4m=Σab, s4l=Σb² — every term < 2^38, so sums are safe
    to 2^25 rows/batch, far above any real block). The driver
    recombines in
    Python ints (S3 = (s3h<<17)+s3l; S4 = (s4h<<34)+(s4m<<18)+s4l) and
    forms the scaled central moments
    M2 = n·S2 − S1², M3 = n²S3 − 3nS1S2 + 2S1³,
    M4 = n³S4 − 4n²S1S3 + 6nS1²S2 − 3S1⁴ (= n^k·m_k, exact integers).
    Central moments are SHIFT-INVARIANT, so the oracle computes the
    SAME integers from per-group min-shifted values (keeping hugeint
    magnitudes bounded) and evaluates the SAME mirrored float
    expressions — sample stddev in cents, adjusted Fisher-Pearson
    skewness G1 = m3/m2^1.5 · sqrt(n(n−1))/(n−2), and sample excess
    kurtosis G2 = ((n+1)(m4/m2²−3) + 6)(n−1)/((n−2)(n−3)) — making the
    doubles bitwise-equal (sqrt is IEEE-exact; no float accumulation)."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_brand", "p_retailprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.round(b["p_retailprice"].to_numpy() * 100).astype("int64")
        c2 = c * c
        a, lo = c2 >> 17, c2 & ((1 << 17) - 1)
        d = pd.DataFrame({
            "p_brand": b["p_brand"],
            "s1": c, "s2": c2,
            "s3h": a * c, "s3l": lo * c,
            "s4h": a * a, "s4m": a * lo, "s4l": lo * lo,
        })
        out = d.groupby("p_brand", as_index=False).sum()
        out["n_rows"] = (
            d.groupby("p_brand", as_index=False)
            .size()["size"].to_numpy().astype("int64"))
        return out

    cols = ["s1", "s2", "s3h", "s3l", "s4h", "s4m", "s4l", "n_rows"]
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, cols)
    rows = []
    for brand, g in parts.groupby("p_brand"):
        n = sum(g["n_rows"])
        s1, s2 = sum(g["s1"]), sum(g["s2"])
        s3 = (sum(g["s3h"]) << 17) + sum(g["s3l"])
        s4 = (sum(g["s4h"]) << 34) + (sum(g["s4m"]) << 18) + sum(g["s4l"])
        m2 = n * s2 - s1 * s1
        m3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3
        m4 = (n ** 3 * s4 - 4 * n * n * s1 * s3
              + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        if n < 4 or m2 <= 0:
            continue    # degenerate group — mirrored by WHERE n>3, m2>0
        m2d, m3d, m4d = _h2d(m2), _h2d(m3), _h2d(m4)
        stddev = math.sqrt(m2d / float(n * (n - 1)))
        g1 = m3d / (m2d * math.sqrt(m2d))
        skew = g1 * math.sqrt(float(n * (n - 1))) / float(n - 2)
        g2 = m4d / (m2d * m2d) - 3.0
        kurt = (float(n + 1) * g2 + 6.0) * float(n - 1) / float(
            (n - 2) * (n - 3))
        rows.append((brand, int(n), stddev, skew, kurt))
    return (
        pd.DataFrame(rows, columns=[
            "p_brand", "n_rows", "stddev_cents", "skew_price",
            "kurt_price"])
        .sort_values("p_brand").reset_index(drop=True)
    )


def q_events_trending(sf_dir: str):
    """Trailing-window TRENDING TOP-K: for every observed day, the
    top-3 event types by trailing-7-day event count (count desc, type
    asc tiebreak). The count-over-sliding-window is decomposable —
    per-batch (day, type) count partials collapse each block to a few
    dozen rows, the driver merges the BOUNDED (days × types) axis in
    Python ints and evaluates the window with one cumsum-difference
    per type over the observed-day spine. No shuffle; nothing
    row-scale ever reaches the driver (same bounded-axis argument as
    q_events_rolling_dau)."""
    import numpy as np

    us_per_day = np.int64(86_400_000_000)
    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        day = (b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
               // us_per_day)
        return (pd.DataFrame({"day": day, "event_type": b["event_type"]})
                .groupby(["day", "event_type"], as_index=False)
                .size().rename(columns={"size": "n"}))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    m = parts.groupby(["day", "event_type"], as_index=False).agg(
        n=("n", "sum"))
    m = _pysum_cols(m, ["n"])
    days = np.sort(m["day"].unique())          # observed-day spine
    types = np.sort(m["event_type"].unique())
    # dense counts matrix (days × types), trailing sum over day VALUES
    cnt = np.zeros((len(days), len(types)), dtype=np.int64)
    di = np.searchsorted(days, m["day"].to_numpy())
    ti = np.searchsorted(types, m["event_type"].to_numpy())
    cnt[di, ti] = [int(v) for v in m["n"]]
    csum = np.vstack([np.zeros((1, len(types)), dtype=np.int64),
                      np.cumsum(cnt, axis=0)])
    # for day d: sum over rows with day value in [d-6, d]
    lo = np.searchsorted(days, days - 6, side="left")
    hi = np.arange(1, len(days) + 1)
    cnt7 = csum[hi] - csum[lo]
    rows = []
    for i, d in enumerate(days):
        order = np.lexsort((types, -cnt7[i]))[:3]
        for r, j in enumerate(order, start=1):
            if cnt7[i, j] > 0:
                rows.append((d, r, types[j], int(cnt7[i, j])))
    out = pd.DataFrame(rows, columns=["day", "rnk", "event_type", "cnt7"])
    out["day"] = pd.to_datetime(out["day"].to_numpy(dtype=np.int64)
                                * us_per_day, unit="us")
    out["rnk"] = out["rnk"].astype("int64")
    out["cnt7"] = out["cnt7"].astype("int64")
    return out.sort_values(["day", "rnk"]).reset_index(drop=True)


def q_orders_checksum(sf_dir: str):
    """Partition CHECKSUM for replication / migration verification:
    per order-month, row count + exact total cents + an ORDER-
    INDEPENDENT content signature (XOR of a 60-bit md5 prefix of each
    row's canonical key#status#cents string). XOR partials commute and
    associate, so per-batch int64 XOR partials merge in any order with
    no exchange; a single flipped row anywhere flips the signature.
    The oracle rebuilds the identical signature with DuckDB's md5 and
    bit_xor over the same canonical string."""
    import hashlib

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderstatus", "o_totalprice",
                 "o_orderdate"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        dt = b["o_orderdate"].to_numpy(dtype="datetime64[M]")
        month = (dt.astype(np.int64) // 12 + 1970) * 100 + (
            dt.astype(np.int64) % 12 + 1)
        vc = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        keys = b["o_orderkey"].to_numpy(dtype=np.int64)
        st = b["o_orderstatus"].to_numpy()
        sig = np.fromiter(
            (int(hashlib.md5(f"{k}#{s}#{v}".encode()).hexdigest()[:15], 16)
             for k, s, v in zip(keys, st, vc)),
            dtype=np.int64, count=len(keys))
        d = pd.DataFrame({"month": month, "vc": vc, "sig": sig})
        out = d.groupby("month", as_index=False).agg(
            total_cents=("vc", "sum"),
            xor_sig=("sig", lambda s: np.bitwise_xor.reduce(
                s.to_numpy(dtype=np.int64))),
            n_rows=("vc", "size"))
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["total_cents"])
    rows = []
    for month, g in parts.groupby("month"):
        xs = np.bitwise_xor.reduce(g["xor_sig"].to_numpy(dtype=np.int64))
        rows.append((int(month), int(g["n_rows"].sum()),
                     int(sum(g["total_cents"])), int(xs)))
    return (
        pd.DataFrame(rows, columns=["month", "n_rows", "total_cents",
                                    "xor_sig"])
        .astype({"month": "int64", "n_rows": "int64",
                 "total_cents": "int64", "xor_sig": "int64"})
        .sort_values("month").reset_index(drop=True)
    )


def q_part_mst(sf_dir: str):
    """MAXIMUM SPANNING BACKBONE of the part co-purchase graph via
    distributed Borůvka (:func:`..stages.graph.minimum_spanning_forest`
    with negated weights): the strongest-ties skeleton that keeps every
    part connected to its cluster — the classic graph-sparsification /
    taxonomy-backbone op (and the third distributed iterative graph
    family in the repo, after label propagation and power iteration).

    Determinism: edge order is the total order (−cnt, u, v), so the
    forest is unique; pytest holds a Kruskal differential on random
    graphs and the planted-structure cases. Not SQL-expressible
    (driver records rows-only) — MST needs a cut/cycle fixpoint that
    ANSI SQL recursion cannot express over arbitrary weights without
    materializing exponentially many paths."""
    import numpy as np

    from ..stages.graph import (group_cooccurrence_weighted_edges,
                                minimum_spanning_forest)

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_weighted_edges(li, "l_orderkey",
                                              "l_partkey")

    def negate(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt").to_numpy(zero_copy_only=False)
        return pa.table({
            "src": batch.column("src"), "dst": batch.column("dst"),
            "w": pa.array(-cnt.astype(np.int64)),
        })

    forest = minimum_spanning_forest(
        edges.map_batches(negate, batch_format="pyarrow"))
    out = forest.to_pandas().astype(
        {"ua": "int64", "ub": "int64", "w": "int64"})
    out["cnt"] = -out["w"]
    return (out[["ua", "ub", "cnt"]]
            .rename(columns={"ua": "u", "ub": "v"})
            .sort_values(["u", "v"]).reset_index(drop=True))


def q_customer_pareto(sf_dir: str):
    """PARETO / ABC ANALYSIS: the smallest prefix of customers (by
    revenue desc, custkey asc) whose cumulative revenue reaches 80% of
    the total — the concentration question behind every "20% of X
    drives 80% of Y" report. The global ranked prefix is computed
    WITHOUT a global sort: per-customer exact-cents revenues hash-
    bucket once, then partition into ORDERED bit-length bands of the
    revenue value (equal revenues can never straddle a band), each
    band sorts locally and the driver merges only 64 (band, count,
    sum) scalars into per-band rank/cumsum offsets. The 80% cut is the
    integer cross-multiply 5·cum_before < 4·total — no float division
    at the boundary."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    nb = auto_buckets(ds)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        g = (pd.DataFrame({"c_custkey": b["o_custkey"].to_numpy(
            dtype=np.int64), "rev_c": cents})
            .groupby("c_custkey", as_index=False)["rev_c"].sum())
        return g

    def per_cust(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("c_custkey", as_index=False)["rev_c"].sum()

    from ..stages.exchange import checkpoint
    cust = checkpoint(bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("c_custkey", nb), per_cust))

    # band scalars: band = bit_length(rev_c); higher band ⇒ strictly
    # larger revenue, so bands are globally ordered
    def band_partial(b: pd.DataFrame) -> pd.DataFrame:
        rev = b["rev_c"].to_numpy(dtype=np.int64)
        return (pd.DataFrame({"band": _bitlen64(rev), "rev_c": rev})
                .groupby("band", as_index=False)
                .agg(cnt=("rev_c", "size"), s=("rev_c", "sum")))

    bands = cust.map_batches(band_partial,
                             batch_format="pandas").to_pandas()
    bands = _pysum_cols(bands, ["s"])
    bmerged = (bands.groupby("band", as_index=False)
               .agg(cnt=("cnt", "sum"), s=("s", "sum")))
    total = int(sum(int(v) for v in bmerged["s"]))
    # offsets from strictly heavier bands (descending band order)
    bm = bmerged.sort_values("band", ascending=False)
    rank_off, cum_off = {}, {}
    racc, cacc = 0, 0
    for _, row in bm.iterrows():
        rank_off[int(row["band"])] = racc
        cum_off[int(row["band"])] = cacc
        racc += int(row["cnt"])
        cacc += int(row["s"])

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["rev_c", "c_custkey"],
                          ascending=[False, True])
        rev = g["rev_c"].to_numpy(dtype=np.int64)
        band = int(rev[0]).bit_length()
        cum = np.cumsum(rev) + np.int64(cum_off[band])
        rnk = (np.arange(1, len(g) + 1, dtype=np.int64)
               + np.int64(rank_off[band]))
        keep = 5 * (cum - rev) < 4 * total
        return pd.DataFrame({
            "c_custkey": g["c_custkey"].to_numpy(dtype=np.int64)[keep],
            "rev_c": rev[keep], "rnk": rnk[keep],
            "cum_c": cum[keep],
        })

    out = bucket_group_map(
        cust, lambda t: _bitlen64(t.column("rev_c").to_numpy()), finalize
    ).to_pandas()
    return (out.astype({"c_custkey": "int64", "rev_c": "int64",
                        "rnk": "int64", "cum_c": "int64"})
            .sort_values("rnk").reset_index(drop=True))


def q_events_chisq(sf_dir: str):
    """CHI-SQUARE INDEPENDENCE TEST (event_type × day-of-week) with a
    FIXED-POINT sum: each cell's term (O·N − r·c)²/(N·r·c) is one
    mirrored float expression over exact hugeint counts, floored at
    2^20 fixed-point BEFORE summation — integer partials commute, so
    the statistic is order-independent (a raw float Σ over cells would
    depend on DuckDB's/numpy's visit order). Day-of-week is defined as
    (epoch_days + 4) % 7 verbatim on both sides (epoch 1970-01-01 was
    a Thursday; Sunday = 0 matching DuckDB's dayofweek). Hugeint →
    double casts go through the mirrored 2^62 split (see _h2d)."""
    import math

    import numpy as np

    us_per_day = np.int64(86_400_000_000)
    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        days = (b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
                // us_per_day)
        dow = (days + 4) % 7
        return (pd.DataFrame({"event_type": b["event_type"], "dow": dow})
                .groupby(["event_type", "dow"], as_index=False)
                .size().rename(columns={"size": "o"}))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cells = (parts.groupby(["event_type", "dow"], as_index=False)
             .agg(o=("o", "sum")))
    cells = _pysum_cols(cells, ["o"])
    n = sum(int(v) for v in cells["o"])
    r = {k: sum(int(v) for v in g["o"])
         for k, g in cells.groupby("event_type")}
    c = {int(k): sum(int(v) for v in g["o"])
         for k, g in cells.groupby("dow")}
    scaled = 0
    for _, row in cells.iterrows():
        o, ri, cj = int(row["o"]), r[row["event_type"]], c[int(row["dow"])]
        num = (o * n - ri * cj) ** 2
        den = n * ri * cj
        term = _h2d(num) / _h2d(den)
        scaled += math.floor(term * 1048576.0)
    k_types, m_dows = len(r), len(c)
    return pd.DataFrame({
        "n_rows": pd.Series([n], dtype="int64"),
        "df": pd.Series([(k_types - 1) * (m_dows - 1)], dtype="int64"),
        "chisq_scaled": pd.Series([scaled], dtype="int64"),
    })


def q_orders_benford(sf_dir: str):
    """BENFORD'S-LAW AUDIT of order totals — the classic fraud /
    data-fabrication screen: observed first-significant-digit counts
    vs the Benford expectation log10(1+1/d). First digits come from a
    fully vectorized numpy int→'U1' cast (no float log10 near
    power-of-ten boundaries where rounding could flip the digit);
    observed shares are integer ppm; the expected share is the ONE
    mirrored float expression floor(log10(1+1/d)·1e6) — libm log10 on
    identical doubles both sides."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "orders"),
                               columns=["o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        # Benford applies to nonzero MAGNITUDES: zero totals carry no
        # first significant digit and negatives contribute |v| —
        # mirrored by the oracle's ABS + <> 0 filter
        vc = np.abs(vc)
        vc = vc[vc > 0]
        first = vc.astype("U20").astype("U1").astype(np.int64)
        return (pd.DataFrame({"digit": first})
                .groupby("digit", as_index=False)
                .size().rename(columns={"size": "n"}))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    m = parts.groupby("digit", as_index=False).agg(n=("n", "sum"))
    m = _pysum_cols(m, ["n"])
    total = sum(int(v) for v in m["n"])
    if total == 0:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in ("digit", "n_rows", "obs_ppm",
                                       "exp_ppm")})
    rows = []
    for _, row in m.iterrows():
        d, n = int(row["digit"]), int(row["n"])
        obs_ppm = n * 1_000_000 // total
        exp_ppm = math.floor(math.log10(1.0 + 1.0 / float(d))
                             * 1000000.0)
        rows.append((d, n, obs_ppm, exp_ppm))
    return (pd.DataFrame(rows, columns=["digit", "n_rows", "obs_ppm",
                                        "exp_ppm"])
            .astype("int64").sort_values("digit").reset_index(drop=True))


def q_nation_customer_hhi(sf_dir: str):
    """MARKET-CONCENTRATION (Herfindahl–Hirschman) index of customer
    revenue shares per nation: HHI = Σ sᵢ² / (Σ sᵢ)² over each
    nation's customers. ONE custkey-hash exchange carries both the
    order partials and the customer→nation rows (side-tagged union,
    the Q18 trick); per-nation Σs and Σs² merge as exact Python ints;
    the index is ONE mirrored division of `_h2d`-split integers, so
    the float matches DuckDB bitwise."""
    import numpy as np

    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    cust = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    nb = auto_buckets(orders)

    def order_partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype(
            "int64")
        g = (pd.DataFrame({"k": b["o_custkey"].to_numpy(dtype=np.int64),
                           "cents": cents})
             .groupby("k", as_index=False)["cents"].sum())
        g["nk"] = np.int64(0)
        g["is_cust"] = False
        return g[["k", "cents", "nk", "is_cust"]]

    def cust_rows(b: pd.DataFrame) -> pd.DataFrame:
        k = b["c_custkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "k": k,
            "cents": np.zeros(len(k), dtype=np.int64),
            "nk": b["c_nationkey"].to_numpy(dtype=np.int64),
            "is_cust": np.ones(len(k), dtype=bool),
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cmap = g[g["is_cust"]][["k", "nk"]]
        rev = (g[~g["is_cust"]]
               .groupby("k", as_index=False)["cents"].sum())
        m = rev.merge(cmap, on="k", how="inner")
        s = m["cents"].to_numpy(dtype=np.int64)
        # s^2 ~ 8e16 per TPC-H-sized customer: a plain int64 GROUP sum
        # wraps around ~100 customers/group — split s^2 = a*2^31 + b so
        # every partial term is < 2^32 (group sums safe to 2^31 rows);
        # the driver recombines in Python ints
        s2 = s * s
        d = pd.DataFrame({"nk": m["nk"].to_numpy(dtype=np.int64),
                          "s": s, "s2h": s2 >> 31,
                          "s2l": s2 & ((1 << 31) - 1)})
        out = d.groupby("nk", as_index=False).agg(
            s=("s", "sum"), s2h=("s2h", "sum"), s2l=("s2l", "sum"),
            n_customers=("s", "size"))
        return out

    parts = bucket_group_map(
        orders.map_batches(order_partial, batch_format="pandas")
        .union(cust.map_batches(cust_rows, batch_format="pandas")),
        key_buckets("k", nb), per_bucket,
    ).to_pandas()
    parts = _pysum_cols(parts, ["s", "s2h", "s2l"])
    rows = []
    for nk, g in parts.groupby("nk"):
        t = sum(g["s"])
        ss2 = (sum(g["s2h"]) << 31) + sum(g["s2l"])
        hhi = _h2d(ss2) / _h2d(t * t)
        rows.append((int(nk), int(g["n_customers"].sum()), hhi))
    return (pd.DataFrame(rows, columns=["c_nationkey", "n_customers",
                                        "hhi"])
            .astype({"c_nationkey": "int64", "n_customers": "int64"})
            .sort_values("c_nationkey").reset_index(drop=True))


def _daily_cents(sf_dir: str) -> pd.DataFrame:
    """Exact-cents day totals of events.value over the observed-day
    axis — the shared decomposable front half of the day-series family
    (SES forecast, autocorrelation). Returns a day-sorted frame with
    Python-int ``xc`` (``_pysum_cols`` merged)."""
    import numpy as np

    us_per_day = np.int64(86_400_000_000)
    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        day = (b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
               // us_per_day)
        cents = np.round(b["value"].to_numpy() * 100).astype("int64")
        return (pd.DataFrame({"day": day, "xc": cents})
                .groupby("day", as_index=False)["xc"].sum())

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    m = parts.groupby("day", as_index=False).agg(xc=("xc", "sum"))
    return _pysum_cols(m, ["xc"]).sort_values("day")


def q_events_ses(sf_dir: str):
    """SIMPLE EXPONENTIAL SMOOTHING forecast over daily event spend
    (α = 1/2) in EXACT integer cents: S₁ = x₁, Sₜ = trunc((Sₜ₋₁+xₜ)/2)
    — halving keeps the recurrence integer so the sequential smoother
    is bitwise-reproducible (a float EWMA is order-fragile). Day totals
    are decomposable partials; the recurrence runs once over the
    BOUNDED day axis on the driver (the rolling_dau argument). The
    oracle is a recursive CTE with the identical halving — DuckDB's
    ``//`` truncates toward ZERO (-7//2 = -3 there, -4 in Python), so
    the Python side mirrors with sign-magnitude truncation (ADVICE r3;
    same tdiv2 construction as q_events_holt)."""
    import numpy as np

    us_per_day = np.int64(86_400_000_000)
    m = _daily_cents(sf_dir)
    ses, out = None, []
    for _, row in m.iterrows():
        x = int(row["xc"])
        ses = x if ses is None else _tdiv2(ses + x)
        out.append((int(row["day"]), x, ses))
    df = pd.DataFrame(out, columns=["day", "day_cents", "ses_cents"])
    df["day"] = pd.to_datetime(df["day"].to_numpy(dtype=np.int64)
                               * us_per_day, unit="us")
    return df.astype({"day_cents": "int64", "ses_cents": "int64"})


def q_events_autocorr(sf_dir: str):
    """LAG-k AUTOCORRELATION of daily spend (lags 1 and 7) — the
    time-series diagnostics op behind seasonality detection. Day
    totals are decomposable exact-cents partials; the (x_t, x_{t−k})
    pairing and Pearson r run over the BOUNDED day axis with exact
    Python-int sufficient statistics and ONE mirrored float expression
    per lag (the q_lineitem_corr construction, sqrt form; `_h2d`
    splits the big integers)."""
    import math

    import numpy as np

    m = _daily_cents(sf_dir)
    days = m["day"].to_numpy(dtype=np.int64)
    vals = [int(v) for v in m["xc"]]
    by_day = dict(zip(days.tolist(), vals))
    rows = []
    for lag in (1, 7):
        xs, ys = [], []
        for d, x in zip(days.tolist(), vals):
            if d - lag in by_day:
                xs.append(x)
                ys.append(by_day[d - lag])
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        sxx = sum(a * a for a in xs)
        syy = sum(b * b for b in ys)
        num = n * sxy - sx * sy
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        if n < 2 or dx <= 0 or dy <= 0:
            continue        # degenerate lag: mirrored by WHERE dx>0
        corr = _h2d(num) / (math.sqrt(_h2d(dx)) * math.sqrt(_h2d(dy)))
        rows.append((lag, n, corr))
    return pd.DataFrame(rows, columns=["lag", "n_pairs", "autocorr"]) \
        .astype({"lag": "int64", "n_pairs": "int64"})


def q_orders_key_gaps(sf_dir: str):
    """KEY-GAP DETECTION (missing-id audit): contiguous runs of absent
    o_orderkey values within the F-status order sequence — the
    sequence-completeness check run before trusting an id column. The
    global lead-over-sorted-keys is computed WITHOUT a global sort:
    keys range-bucket by high bits (shift chosen from the max key's
    bit length, ≤4096 ordered buckets), each bucket sorts locally and
    emits its internal gaps; the ≤4096 per-bucket (min, max) scalars
    merge on the driver to close the straddle gaps between adjacent
    occupied buckets."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderstatus"])

    def keys_only(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("o_orderstatus"), "F")
        k = batch.filter(mask).column("o_orderkey")
        return pa.table({"k": k.cast(pa.int64())})

    _empty_gaps = pd.DataFrame({
        "gap_start": pd.Series([], dtype="int64"),
        "gap_end": pd.Series([], dtype="int64"),
        "gap_len": pd.Series([], dtype="int64"),
    })
    filtered = ds.map_batches(keys_only, batch_format="pyarrow")
    max_key = filtered.max("k")
    if max_key is None:      # no F rows at all — oracle is empty too
        return _empty_gaps
    shift = max(0, int(max_key).bit_length() - 12)

    def bucket_gaps(g: pd.DataFrame) -> pd.DataFrame:
        k = np.unique(g["k"].to_numpy(dtype=np.int64))
        d = np.diff(k)
        i = np.nonzero(d > 1)[0]
        out = pd.DataFrame({
            "gap_start": k[i] + 1, "gap_end": k[i + 1] - 1,
            "is_edge": np.zeros(len(i), dtype=bool),
        })
        edge = pd.DataFrame({
            "gap_start": [int(k[0])], "gap_end": [int(k[-1])],
            "is_edge": [True],
        })
        return pd.concat([out, edge], ignore_index=True)

    parts = bucket_group_map(
        filtered,
        lambda t: t.column("k").to_numpy(zero_copy_only=False) >> np.int64(shift),
        bucket_gaps,
    ).to_pandas()
    inner = parts[~parts["is_edge"]]
    edges = parts[parts["is_edge"]].sort_values("gap_start")
    lo = edges["gap_start"].to_numpy(dtype=np.int64)  # bucket min key
    hi = edges["gap_end"].to_numpy(dtype=np.int64)    # bucket max key
    straddle = pd.DataFrame({
        "gap_start": hi[:-1] + 1, "gap_end": lo[1:] - 1,
    })
    straddle = straddle[straddle["gap_end"] >= straddle["gap_start"]]
    out = pd.concat([inner[["gap_start", "gap_end"]], straddle],
                    ignore_index=True)
    out["gap_len"] = out["gap_end"] - out["gap_start"] + 1
    return (out.astype("int64").sort_values("gap_start")
            .reset_index(drop=True))


def q_docs_source_kl(sf_dir: str):
    """VOCABULARY-DRIFT REPORT: KL divergence of each source's term
    distribution from the corpus distribution, over the GLOBAL top-64
    terms — the distribution-shift monitor a training-data pipeline
    runs per ingestion source. Two passes: (1) the existing exact
    top-terms pass fixes the 64-term universe; (2) one map pass counts
    those terms per source (64-term set in the task closure — the
    kmeans tiny-broadcast rule), partials merge on the bounded
    (sources × 64) axis in Python ints. KL is a FIXED-POINT sum: each
    (source, term) cell contributes floor((c/ns)·ln(c·N/(ns·Ct))·2^30)
    — integer partials commute, zero cells drop identically both
    sides, products ≥2^53 go through the `_h2d` split, and ln/division
    are ONE mirrored expression (shared libm)."""
    import math

    import numpy as np

    from ..stages.text_analysis import top_terms

    docs = ray.data.read_parquet(_t(sf_dir, "documents"),
                                 columns=["source", "text"])
    t64 = top_terms(
        ray.data.read_parquet(_t(sf_dir, "documents"),
                              columns=["text"]), k=64)
    terms = t64["term"].tolist()
    ct = {t: int(n) for t, n in zip(t64["term"], t64["n"])}
    n64 = sum(ct.values())
    term_set = set(terms)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("").str.strip().str.lower()
        d = pd.DataFrame({"source": b["source"], "toks": text.str.split()})
        d = d[text != ""]
        e = d.explode("toks")
        e = e[e["toks"].isin(term_set)]
        out = (e.groupby(["source", "toks"], as_index=False)
               .size().rename(columns={"size": "c", "toks": "term"}))
        return out

    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    cells = (parts.groupby(["source", "term"], as_index=False)
             .agg(c=("c", "sum")))
    cells = _pysum_cols(cells, ["c"])
    rows = []
    for source, g in cells.groupby("source"):
        ns = sum(g["c"])
        scaled = 0
        for _, row in g.iterrows():
            c = int(row["c"])
            t = row["term"]
            ratio = _h2d(c * n64) / _h2d(ns * ct[t])
            termv = (float(c) / float(ns)) * math.log(ratio)
            scaled += math.floor(termv * 1073741824.0)
        rows.append((source, ns, scaled))
    return (pd.DataFrame(rows, columns=["source", "n_tokens",
                                        "kl_scaled"])
            .astype({"n_tokens": "int64", "kl_scaled": "int64"})
            .sort_values("source").reset_index(drop=True))


def q_events_type_overlap(sf_dir: str):
    """SET-OVERLAP CARDINALITIES between behavior cohorts: for every
    PAIR of event types, |users(a) ∩ users(b)|, |union|, and the
    integer-ppm Jaccard — the audience-overlap report behind
    cross-sell and funnel design. One user-hash exchange: per-user
    type BITMASKS (OR of per-batch partial masks), then each bucket
    emits bounded per-pair partial counts from ONE vectorized
    bit-test matrix; the driver merges (pairs × buckets) scalars.
    COUNT(DISTINCT ...) never ships user sets — the bitmask collapses
    each user to one int64 row."""
    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["user_id", "event_type"])
    nb = auto_buckets(ds)

    # fixed global type order = sorted distinct types (tiny pre-pass)
    types = sorted(
        ds.map_batches(
            lambda b: pa.table(
                {"event_type": pc.unique(b.column("event_type"))}),
            batch_format="pyarrow")
        .to_pandas()["event_type"].unique().tolist())
    bit = {t: i for i, t in enumerate(types)}
    k = len(types)
    if k > 63:
        # np.int64(1) << 64 is 0 (and bit 63 is the sign bit): the
        # single-word bitmask silently drops types past 63 — fail loud
        raise ValueError(
            f"events_type_overlap: {k} distinct event types exceed the "
            "63-bit single-word bitmask; use a multi-word mask variant")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        mask = b["event_type"].map(bit).to_numpy(dtype=np.int64)
        d = pd.DataFrame({
            "user_id": b["user_id"].to_numpy(dtype=np.int64),
            "m": np.int64(1) << mask,
        })
        g = d.groupby("user_id", as_index=False)["m"].agg(
            lambda s: np.bitwise_or.reduce(s.to_numpy()))
        return g

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby("user_id")["m"]
             .agg(lambda s: np.bitwise_or.reduce(s.to_numpy()))
             .to_numpy(dtype=np.int64))
        rows = []
        for i in range(k):
            hi = (m >> np.int64(i)) & 1
            for j in range(i + 1, k):
                hj = (m >> np.int64(j)) & 1
                rows.append((i, j, int((hi & hj).sum()),
                             int((hi | hj).sum())))
        return pd.DataFrame(rows, columns=["i", "j", "n_both",
                                           "n_either"])

    parts = bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("user_id", nb), per_bucket,
    ).to_pandas()
    m = (parts.groupby(["i", "j"], as_index=False)
         .agg(n_both=("n_both", "sum"), n_either=("n_either", "sum")))
    m = _pysum_cols(m, ["n_both", "n_either"])
    rows = []
    for _, row in m.iterrows():
        i, j = int(row["i"]), int(row["j"])
        both, either = int(row["n_both"]), int(row["n_either"])
        jac = both * 1_000_000 // either if either else 0
        rows.append((types[i], types[j], both, either, jac))
    return (pd.DataFrame(rows, columns=["type_a", "type_b", "n_both",
                                        "n_either", "jaccard_ppm"])
            .astype({"n_both": "int64", "n_either": "int64",
                     "jaccard_ppm": "int64"})
            .sort_values(["type_a", "type_b"]).reset_index(drop=True))


def q_part_trimmed_mean(sf_dir: str):
    """TRIMMED MEAN per brand (drop below-p10 / above-p90 values, then
    exact mean of the kept middle) — the robust-average op, computed
    from ONE pass of (brand, cents, count) VALUE-HISTOGRAM partials:
    retail prices live in a bounded cent domain, so the histogram is
    bounded regardless of row count (the scale story for bounded-
    domain columns; unbounded domains take the two-pass selection
    path instead — see `_selection_quantiles`). The driver cumsums
    each brand's histogram to locate the discrete p10/p90 boundaries
    (sorted[ceil(q·n)−1], the lineitem_price_quantiles convention),
    sums kept cents exactly in Python ints, and emits ONE mirrored
    division per brand."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_brand", "p_retailprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["p_retailprice"].to_numpy() * 100).astype(
            "int64")
        return (pd.DataFrame({"p_brand": b["p_brand"], "cents": cents})
                .groupby(["p_brand", "cents"], as_index=False)
                .size().rename(columns={"size": "n"}))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    hist = (parts.groupby(["p_brand", "cents"], as_index=False)
            .agg(n=("n", "sum")))
    hist = _pysum_cols(hist, ["n"])
    rows = []
    for brand, g in hist.groupby("p_brand"):
        g = g.sort_values("cents")
        cents = g["cents"].to_numpy(dtype=np.int64)
        cnt = np.array([int(v) for v in g["n"]], dtype=np.int64)
        n = int(cnt.sum())
        cum = np.cumsum(cnt)
        # discrete quantile: sorted[ceil(q*n) - 1]
        lo_rank = math.ceil(0.1 * n)
        hi_rank = math.ceil(0.9 * n)
        lo_v = int(cents[np.searchsorted(cum, lo_rank)])
        hi_v = int(cents[np.searchsorted(cum, hi_rank)])
        keep = (cents >= lo_v) & (cents <= hi_v)
        kept_n = int(cnt[keep].sum())
        kept_sum = sum(int(c) * int(k)
                       for c, k in zip(cents[keep], cnt[keep]))
        tmean = float(kept_sum) / float(kept_n)
        rows.append((brand, n, kept_n, lo_v, hi_v, tmean))
    return (pd.DataFrame(rows, columns=[
        "p_brand", "n_rows", "n_kept", "lo_cents", "hi_cents",
        "trimmed_mean_cents"])
        .astype({"n_rows": "int64", "n_kept": "int64",
                 "lo_cents": "int64", "hi_cents": "int64"})
        .sort_values("p_brand").reset_index(drop=True))


def q_events_interarrival(sf_dir: str):
    """GROUPED QUANTILES OVER AN UNBOUNDED DOMAIN: median and p90
    inter-arrival seconds per event type (gaps between consecutive
    same-type events within each user's timeline) — the latency/
    engagement-cadence profile. Gap extraction is one user-hash
    exchange (vectorized lag inside buckets, ties broken by event_id
    exactly like the oracle's window ORDER BY); the per-type quantiles
    run through the fused two-pass distributed selection
    (`_selection_quantiles_multi` — coarse value-histogram pass, then
    exact counts only inside the target 256-value buckets), so
    NOTHING row-scale reaches the driver even though gap values have
    no bounded domain. Seconds (not µs) keep the coarse histogram at
    ~10k buckets per month of range."""
    import numpy as np

    from ..stages.exchange import checkpoint

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "event_id"])
    nb = auto_buckets(ds)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"])
        us = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy(dtype=np.int64)
        et = g["event_type"].to_numpy()
        same = np.r_[False, (uid[1:] == uid[:-1]) & (et[1:] == et[:-1])]
        gap_sec = np.r_[np.int64(0), (us[1:] - us[:-1])] // 1_000_000
        return pd.DataFrame({
            "event_type": et[same], "gap_sec": gap_sec[same],
        })

    gaps = checkpoint(
        bucket_group_map(ds, key_buckets("user_id", nb), per_bucket))

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("event_type", as_index=False)
                .size().rename(columns={"size": "n"}))

    counts = (gaps.map_batches(count_partial, batch_format="pandas")
              .to_pandas().groupby("event_type", as_index=False)
              .agg(n=("n", "sum")))
    counts = _pysum_cols(counts, ["n"])
    n_by_type = {t: int(v) for t, v in zip(counts["event_type"],
                                           counts["n"])}
    types = sorted(t for t, n in n_by_type.items() if n > 0)
    if not types:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n_gaps": pd.Series([], dtype="int64"),
            "p50_sec": pd.Series([], dtype="int64"),
            "p90_sec": pd.Series([], dtype="int64"),
        })

    def extractor(t):
        def to_int(b: pd.DataFrame) -> np.ndarray:
            return b[b["event_type"] == t]["gap_sec"].to_numpy(
                dtype=np.int64)
        return to_int

    qres, _ = _selection_quantiles_multi(
        gaps, {t: extractor(t) for t in types},
        {"p50": 0.5, "p90": 0.9})
    rows = [(t, n_by_type[t], qres[t]["p50"], qres[t]["p90"])
            for t in types]
    return (pd.DataFrame(rows, columns=["event_type", "n_gaps",
                                        "p50_sec", "p90_sec"])
            .astype({"n_gaps": "int64", "p50_sec": "int64",
                     "p90_sec": "int64"})
            .sort_values("event_type").reset_index(drop=True))


def q_part_betweenness(sf_dir: str):
    """K-SOURCE BETWEENNESS CENTRALITY on the part co-purchase graph
    (:func:`..stages.graph.betweenness`) — which parts sit on the most
    shortest paths between others (broker/bottleneck detection), the
    ninth distributed-graph family member. Sources = the 8 smallest
    part keys incident to an edge (deterministic); δ accumulates in
    2^20 fixed point with per-edge flooring so the result is bitwise
    at any parallelism. Rows-only at the driver (iterative BFS +
    dependency accumulation, non-SQL); pytest holds the sequential-
    Brandes differential under the identical flooring rule. Returns
    the top-20 parts by accumulated dependency."""
    import numpy as np

    from ..stages.graph import (betweenness, group_cooccurrence_edges,
                                node_degrees)

    from ..stages.exchange import checkpoint

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    # checkpoint: the edge list feeds BOTH the source-selection pass
    # and the betweenness supersteps — don't rebuild it twice
    edges = checkpoint(group_cooccurrence_edges(li, "l_orderkey",
                                                "l_partkey"))

    def min_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.nsmallest(8, "node")[["node"]]

    smallest = (node_degrees(edges)
                .map_batches(min_partial, batch_format="pandas")
                .to_pandas().nsmallest(8, "node"))
    sources = [int(v) for v in smallest["node"]]

    out = betweenness(edges, sources).to_pandas()
    out = out.astype({"node": "int64", "bc_scaled": "int64"})
    return (out.sort_values(["bc_scaled", "node"],
                            ascending=[False, True])
            .head(20).reset_index(drop=True))


def _two_sample_rank_buckets(sf_dir: str, type_a: str, type_b: str):
    """Shared machinery for the two-sample rank statistics
    (``q_events_ks_test`` / ``q_events_mannwhitney``): exact-cents
    per-value counts of two event-type samples, range-bucketed by the
    value's high bits so buckets are GLOBALLY ORDERED (arithmetic
    shift preserves order for negatives too) and global cumulative
    ranks need only per-bucket offsets — no global sort, no driver
    materialization of per-value rows.

    Returns ``(bucketed, shift, off1, off2, offc, n1, n2)``:
    ``bucketed`` is a Dataset of merged per-value rows
    ``(v, d1, d2)`` whose bucket is ``v >> shift``
    (:func:`_high_bits`); the ``off*`` dicts map each occupied bucket
    to the Python-int count of sample-1 / sample-2 / combined values
    in strictly LOWER buckets (≤1024 scalars on the driver; 2^10-wide
    value buckets keep grouped-stage scheduling overhead ~4x below the
    4096-bucket q_orders_key_gaps budget — measured group-overhead
    bound at sf0.1); ``n1``/``n2`` are the sample sizes.
    Returns ``None`` when both samples are empty.
    """
    import numpy as np

    from ..stages.exchange import checkpoint

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["event_type"].to_numpy()
        m = (t == type_a) | (t == type_b)
        v = np.round(b["value"].to_numpy()[m] * 100).astype(np.int64)
        is1 = (t[m] == type_a).astype(np.int64)
        return (pd.DataFrame({"v": v, "d1": is1, "d2": 1 - is1})
                .groupby("v", as_index=False)
                .agg(d1=("d1", "sum"), d2=("d2", "sum")))

    parts = checkpoint(ds.map_batches(partial, batch_format="pandas"))
    max_v = parts.max("v")
    if max_v is None:
        return None
    shift = max(0, int(max_v).bit_length() - 10)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("v", as_index=False)
                .agg(d1=("d1", "sum"), d2=("d2", "sum")))

    bucketed = checkpoint(
        bucket_group_map(parts, _high_bits("v", shift), merge_bucket))

    def totals_partial(b: pd.DataFrame) -> pd.DataFrame:
        rb = b["v"].to_numpy(dtype=np.int64) >> np.int64(shift)
        return (b.assign(rb=rb).groupby("rb", as_index=False)
                .agg(t1=("d1", "sum"), t2=("d2", "sum")))

    tot = (bucketed.map_batches(totals_partial, batch_format="pandas")
           .to_pandas())
    tot = _pysum_cols(tot, ["t1", "t2"])
    tot = (tot.groupby("rb", as_index=False)
           .agg(t1=("t1", "sum"), t2=("t2", "sum"))
           .sort_values("rb"))
    off1, off2, offc = {}, {}, {}
    a1 = a2 = 0
    for _, row in tot.iterrows():
        rb, t1, t2 = int(row["rb"]), int(row["t1"]), int(row["t2"])
        off1[rb], off2[rb], offc[rb] = a1, a2, a1 + a2
        a1 += t1
        a2 += t2
    return bucketed, shift, off1, off2, offc, a1, a2


def q_events_ks_test(sf_dir: str):
    """TWO-SAMPLE KOLMOGOROV–SMIRNOV test (distribution drift between
    'view' and 'purchase' event values) as a PURE-INTEGER statistic:
    D = max over distinct values v of |F1(v) − F2(v)| is reported as
    the exact numerator d_num = max |c1(v)·n2 − c2(v)·n1| (so
    D = d_num/(n1·n2) with no float anywhere), plus the smallest value
    at_v attaining the max. The global ECDF scan runs WITHOUT a global
    sort: per-value counts range-bucket by high bits, each bucket
    cumsums locally against Python-int offsets from lower buckets, and
    the driver merges ≤1024 per-bucket maxima. int64 bound: the
    cross-multiply c·n caps at n1·n2 < 2^63 ⇒ exact for samples up to
    ~3·10^9 rows EACH (beyond that, switch the per-bucket dn to object
    dtype — the bucket structure already confines the cost)."""
    import numpy as np

    res = _two_sample_rank_buckets(sf_dir, "view", "purchase")
    cols = ("n1", "n2", "d_num", "at_v")
    if res is None:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    bucketed, shift, off1, off2, _offc, n1, n2 = res
    if n1 == 0 or n2 == 0:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("v")
        rb = int(g["v"].iloc[0]) >> shift
        c1 = (np.cumsum(g["d1"].to_numpy(dtype=np.int64))
              + np.int64(off1[rb]))
        c2 = (np.cumsum(g["d2"].to_numpy(dtype=np.int64))
              + np.int64(off2[rb]))
        dn = np.abs(c1 * np.int64(n2) - c2 * np.int64(n1))
        i = int(np.argmax(dn))  # sorted asc ⇒ first max = smallest v
        return pd.DataFrame({
            "dn": [int(dn[i])],
            "at_v": [int(g["v"].to_numpy(dtype=np.int64)[i])],
        })

    m = bucket_group_map(
        bucketed, _high_bits("v", shift), finalize).to_pandas()
    d_num = int(m["dn"].max())
    at_v = int(m.loc[m["dn"] == d_num, "at_v"].min())
    return pd.DataFrame({
        "n1": pd.Series([n1], dtype="int64"),
        "n2": pd.Series([n2], dtype="int64"),
        "d_num": pd.Series([d_num], dtype="int64"),
        "at_v": pd.Series([at_v], dtype="int64"),
    })


def q_events_mannwhitney(sf_dir: str):
    """MANN–WHITNEY U (Wilcoxon rank-sum) test between 'view' and
    'purchase' event values, EXACT with midranks: ties get the average
    rank, so doubled rank sums stay integral — 2·R1 = Σ_v d1(v)·
    (2·cum_before(v) + cnt(v) + 1), 2·U1 = 2·R1 − n1(n1+1). Also
    reports tie_sum = Σ (cnt³ − cnt), the exact tie-correction term of
    the normal-approximation variance. Same sort-free range-bucket
    scan as q_events_ks_test; per-bucket partials convert to Python
    ints before the driver merge (the _pysum_cols discipline). int64
    bound: per-value terms cap at ~2·(n1+n2)², exact for combined
    samples to ~2·10^9 rows (then: object-dtype per-bucket terms)."""
    import numpy as np

    res = _two_sample_rank_buckets(sf_dir, "view", "purchase")
    cols = ("n1", "n2", "r1_x2", "u1_x2", "tie_sum")
    if res is None:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    bucketed, shift, _off1, _off2, offc, n1, n2 = res
    if n1 == 0 or n2 == 0:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("v")
        rb = int(g["v"].iloc[0]) >> shift
        d1 = g["d1"].to_numpy(dtype=np.int64)
        cnt = d1 + g["d2"].to_numpy(dtype=np.int64)
        cumb = (np.concatenate(([np.int64(0)], np.cumsum(cnt)[:-1]))
                + np.int64(offc[rb]))
        terms = d1 * (2 * cumb + cnt + 1)
        ties = cnt * cnt * cnt - cnt
        return pd.DataFrame({"r1p": [int(terms.sum())],
                             "tiep": [int(ties.sum())]})

    m = bucket_group_map(
        bucketed, _high_bits("v", shift), finalize).to_pandas()
    m = _pysum_cols(m, ["r1p", "tiep"])
    r1_x2 = sum(int(v) for v in m["r1p"])
    tie_sum = sum(int(v) for v in m["tiep"])
    u1_x2 = r1_x2 - n1 * (n1 + 1)
    return pd.DataFrame({
        "n1": pd.Series([n1], dtype="int64"),
        "n2": pd.Series([n2], dtype="int64"),
        "r1_x2": pd.Series([r1_x2], dtype="int64"),
        "u1_x2": pd.Series([u1_x2], dtype="int64"),
        "tie_sum": pd.Series([tie_sum], dtype="int64"),
    })


def _hour_value_cell_buckets(sf_dir: str):
    """Shared machinery for the bivariate rank statistics
    (``q_events_spearman`` / ``q_events_kendall``): per-(hour-of-day,
    exact-cents-value) occurrence counts ("cells") of the full events
    table, range-bucketed by the value's high bits so buckets are
    GLOBALLY ORDERED in ``v`` and every global cumulative the
    statistics need reduces to per-bucket work plus tiny driver-held
    offsets. Because bucket = ``v >> shift``, each distinct value
    lives in exactly ONE bucket — per-value tie counts are
    bucket-local.

    Returns ``(bucketed, shift, offh, nh, n)``: ``bucketed`` is a
    Dataset of merged cells ``(h, v, c)`` whose bucket is
    ``v >> shift`` (:func:`_high_bits`); ``offh`` maps each occupied bucket
    to a 24-long Python-int list counting, per hour, the events in
    strictly LOWER buckets (≤1024×24 driver scalars); ``nh`` is the
    24-long global per-hour totals list; ``n`` the row count. Returns
    ``None`` on an empty table.
    """
    import numpy as np

    from ..stages.exchange import checkpoint

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = b["ts"].dt.hour.to_numpy(dtype=np.int64)
        v = np.round(b["value"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({"h": h, "v": v})
                .groupby(["h", "v"], as_index=False).size()
                .rename(columns={"size": "c"}))

    parts = checkpoint(ds.map_batches(partial, batch_format="pandas"))
    max_v = parts.max("v")
    if max_v is None:
        return None
    shift = max(0, int(max_v).bit_length() - 10)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["h", "v"], as_index=False)
                .agg(c=("c", "sum")))

    bucketed = checkpoint(
        bucket_group_map(parts, _high_bits("v", shift), merge_bucket))

    def totals_partial(b: pd.DataFrame) -> pd.DataFrame:
        rb = b["v"].to_numpy(dtype=np.int64) >> np.int64(shift)
        return (b.assign(rb=rb).groupby(["rb", "h"], as_index=False)
                .agg(t=("c", "sum")))

    tot = (bucketed.map_batches(totals_partial, batch_format="pandas")
           .to_pandas())
    tot = _pysum_cols(tot, ["t"])
    tot = (tot.groupby(["rb", "h"], as_index=False)
           .agg(t=("t", "sum")))
    per_rb = {}
    for _, row in tot.iterrows():
        per_rb.setdefault(int(row["rb"]), [0] * 24)[int(row["h"])] = \
            int(row["t"])
    offh, acc = {}, [0] * 24
    for rb in sorted(per_rb):
        offh[rb] = list(acc)
        acc = [a + t for a, t in zip(acc, per_rb[rb])]
    nh = acc
    return bucketed, shift, offh, nh, sum(nh)


def q_events_spearman(sf_dir: str):
    """SPEARMAN RANK CORRELATION between hour-of-day and event value
    (is spend rank-associated with time of day?), EXACT with midranks:
    with doubled midranks r2x (per hour) and r2y (per cents value),
    every moment is an integer and rho² = sxy²/(sxx·syy) where
    sxy = Σ r2x·r2y − n(n+1)², sxx = Σ r2x² − n(n+1)²,
    syy = Σ r2y² − n(n+1)² (doubled-rank sums are n(n+1) exactly, ties
    included, so the centering term is closed-form). No global sort:
    per-(hour, value) cells range-bucket by value high bits
    (:func:`_hour_value_cell_buckets`); r2x needs only the 24 global
    per-hour totals; r2y cumulates per bucket against driver-held
    offsets; partials combine as Python ints. int64 OUTPUT bound:
    sxy/syy ≈ 4n³ caps at n ≈ 1.3×10⁶ rows — beyond that emit the
    (already exact) Python ints as decimal strings."""
    import numpy as np

    res = _hour_value_cell_buckets(sf_dir)
    cols = ("n", "sxy", "sxx", "syy")
    if res is None:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    bucketed, shift, offh, nh, n = res
    # doubled midrank per hour from the 24 global totals
    r2x, cum = [0] * 24, 0
    for h in range(24):
        r2x[h] = 2 * cum + nh[h] + 1
        cum += nh[h]
    offall = {rb: sum(o) for rb, o in offh.items()}

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["v"].iloc[0]) >> shift
        gv = (g.groupby("v", as_index=False).agg(cv=("c", "sum"))
              .sort_values("v"))
        cv = gv["cv"].to_numpy(dtype=np.int64)
        cum_excl = (np.concatenate(([np.int64(0)],
                                    np.cumsum(cv)[:-1]))
                    + np.int64(offall[rb]))
        r2y = 2 * cum_excl + cv + 1
        uniq_v = gv["v"].to_numpy(dtype=np.int64)
        c = g["c"].to_numpy(dtype=np.int64)
        ry = r2y[np.searchsorted(uniq_v,
                                 g["v"].to_numpy(dtype=np.int64))]
        rx = np.asarray(r2x, dtype=np.int64)[
            g["h"].to_numpy(dtype=np.int64)]
        # Python-int arithmetic over the bounded cell axis: per-cell
        # products reach c*(2n)^2 and would wrap int64 inside a bucket
        # long before the driver-side 2^63 OUTPUT guard could see
        # them. Partials travel as decimal strings so the exchange
        # never squeezes them back into an int64 arrow column.
        co, rxo, ryo = (c.astype(object), rx.astype(object),
                        ry.astype(object))
        return pd.DataFrame({
            "sxyp": [str(int((co * rxo * ryo).sum()))],
            "syyp": [str(int((co * ryo * ryo).sum()))],
        })

    m = bucket_group_map(
        bucketed, _high_bits("v", shift), finalize).to_pandas()
    m = _pysum_cols(m, ["sxyp", "syyp"])
    cen = n * (n + 1) * (n + 1)
    sxy = sum(int(v) for v in m["sxyp"]) - cen
    syy = sum(int(v) for v in m["syyp"]) - cen
    sxx = sum(nh[h] * r2x[h] * r2x[h] for h in range(24)) - cen
    if max(abs(sxy), sxx, syy) >= 2 ** 63:
        # the moments are already exact Python ints; only the int64
        # OUTPUT columns cap the scale (~1.3e6 rows). Fail loud rather
        # than let pandas overflow-cast.
        raise ValueError(
            f"events_spearman moments exceed int64 at n={n}; emit "
            "decimal strings (or rescale ranks) beyond ~1.3e6 rows")
    return pd.DataFrame({
        "n": pd.Series([n], dtype="int64"),
        "sxy": pd.Series([sxy], dtype="int64"),
        "sxx": pd.Series([sxx], dtype="int64"),
        "syy": pd.Series([syy], dtype="int64"),
    })


def q_events_kendall(sf_dir: str):
    """KENDALL TAU-B concordance between hour-of-day and event value,
    EXACT: reports the pair counts the statistic is built from —
    nc (concordant), nd (discordant), tx (pairs tied in hour),
    ty (pairs tied in value), txy (tied in both) — so
    tau_b = (nc−nd)/√((P−tx)(P−ty)) with P = n(n−1)/2 and every count
    integral. The naive statistic is O(n²); here nc = Σ_cells c·A with
    A(h,v) = #events at (h'<h, v'<v) computed WITHOUT a global sort:
    per-bucket dense (values×24) count matrices take an exclusive
    cumsum along each axis (value axis seeded by the driver-held
    per-hour lower-bucket offsets), nd follows from the pair identity
    nd = P − nc − tx − ty + txy (mirrored in the oracle; the pytest
    brute force checks nd independently). Tie counts: tx from the 24
    global totals, ty/txy bucket-local since each value owns one
    bucket. int64 bound: nc ≤ P ≈ n²/2 caps at n ≈ 4×10⁹ rows."""
    import numpy as np

    res = _hour_value_cell_buckets(sf_dir)
    cols = ("n", "nc", "nd", "tx", "ty", "txy")
    if res is None:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    bucketed, shift, offh, nh, n = res

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["v"].iloc[0]) >> shift
        v = g["v"].to_numpy(dtype=np.int64)
        h = g["h"].to_numpy(dtype=np.int64)
        c = g["c"].to_numpy(dtype=np.int64)
        uniq = np.unique(v)
        vi = np.searchsorted(uniq, v)
        M = np.zeros((len(uniq), 24), dtype=np.int64)
        np.add.at(M, (vi, h), c)
        # events per hour with value strictly below each local v
        below = (np.cumsum(M, axis=0) - M
                 + np.asarray(offh[rb], dtype=np.int64)[None, :])
        # A(h, v) = sum over h' < h of below[v, h']
        A = np.cumsum(below, axis=1) - below
        nv = M.sum(axis=1)
        return pd.DataFrame({
            "ncp": [int((M * A).sum())],
            "typ": [int((nv * (nv - 1) // 2).sum())],
            "txyp": [int((c * (c - 1) // 2).sum())],
        })

    m = bucket_group_map(
        bucketed, _high_bits("v", shift), finalize).to_pandas()
    m = _pysum_cols(m, ["ncp", "typ", "txyp"])
    nc = sum(int(x) for x in m["ncp"])
    ty = sum(int(x) for x in m["typ"])
    txy = sum(int(x) for x in m["txyp"])
    tx = sum(t * (t - 1) // 2 for t in nh)
    p_all = n * (n - 1) // 2
    nd = p_all - nc - tx - ty + txy
    return pd.DataFrame({
        "n": pd.Series([n], dtype="int64"),
        "nc": pd.Series([nc], dtype="int64"),
        "nd": pd.Series([nd], dtype="int64"),
        "tx": pd.Series([tx], dtype="int64"),
        "ty": pd.Series([ty], dtype="int64"),
        "txy": pd.Series([txy], dtype="int64"),
    })


def q_events_hodges_lehmann(sf_dir: str):
    """HODGES–LEHMANN SHIFT ESTIMATOR between 'view' and 'purchase'
    event values: the median of ALL n1·n2 pairwise differences
    v_view − v_purchase (in exact cents), the robust companion to the
    Mann–Whitney test — reported DOUBLED (hl_x2 = d_⌈(m+1)/2⌉ +
    d_⌊m/2⌋₊₁, identical halves when m is odd) so ties and even counts
    stay integral. The naive statistic materializes m ≈ n²  pairwise
    diffs; here neither the engine nor the driver ever builds them:
    event values live in a BOUNDED cent domain (the
    part_trimmed_mean scale story), so one distributed pass builds the
    two per-value count histograms, and the driver selects the middle
    ranks by BINARY SEARCH over candidate diffs — each probe is one
    vectorized count of pairs {v1 − v2 ≤ d} via prefix sums
    (O(|domain| log range) total, zero pair materialization). The
    oracle mirrors the counting form with an aggregated c1 × c2 join.
    int64 bound: probe counts cap at n1·n2 < 2^63 ⇒ exact to ~3×10⁹
    rows per side (beyond: object-dtype probe sums)."""
    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["event_type", "value"])

    hist = (ds.map_batches(_view_purchase_cents, batch_format="pandas")
            .to_pandas())
    cols = ("n1", "n2", "hl_x2")
    empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                          for c in cols})
    if len(hist) == 0:
        return empty
    hist = _pysum_cols(hist, ["d1", "d2"])
    hist = (hist.groupby("v", as_index=False)
            .agg(d1=("d1", "sum"), d2=("d2", "sum"))
            .sort_values("v"))
    v = hist["v"].to_numpy(dtype=np.int64)
    c1 = np.array([int(x) for x in hist["d1"]], dtype=np.int64)
    c2 = np.array([int(x) for x in hist["d2"]], dtype=np.int64)
    n1, n2 = int(c1.sum()), int(c2.sum())
    if n1 == 0 or n2 == 0:
        return empty
    v1, c1 = v[c1 > 0], c1[c1 > 0]
    v2, c2 = v[c2 > 0], c2[c2 > 0]
    cum2 = np.concatenate(([0], np.cumsum(c2)))  # below-count prefix

    def count_le(d: int) -> int:
        # pairs with v1 - v2 <= d  <=>  v2 >= v1 - d
        below = cum2[np.searchsorted(v2, v1 - d, side="left")]
        return int((c1 * (n2 - below)).sum())

    def kth(k: int) -> int:
        lo = int(v1[0] - v2[-1])
        hi = int(v1[-1] - v2[0])
        while lo < hi:
            mid = (lo + hi) // 2
            if count_le(mid) >= k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    m = n1 * n2
    hl_x2 = kth((m + 1) // 2) + kth(m // 2 + 1)
    return pd.DataFrame({
        "n1": pd.Series([n1], dtype="int64"),
        "n2": pd.Series([n2], dtype="int64"),
        "hl_x2": pd.Series([hl_x2], dtype="int64"),
    })


def q_audit_k_anonymity(sf_dir: str):
    """K-ANONYMITY AUDIT WITH A GENERALIZATION LADDER (k = 5): how
    identifiable are customers by the quasi-identifier
    (c_nationkey, c_mktsegment), and does coarsening fix it? Level 0
    keys on the full QI, level 1 generalizes away the segment
    (nation only), level 2 the nation too (single equivalence class) —
    the minimal lattice walk of Samarati-style k-anonymization. Per
    level: equivalence classes, classes below k, and rows at risk
    (rows in sub-k classes — the re-identifiable population). The
    privacy-audit companion to q_audit_referential. Reference n/a —
    engine-level op.

    Scale shape: ONE pass of finest-grain (nation, segment) count
    partials (the grouping-sets discipline — coarser levels roll up
    from finest cells, never rescanning); the cell table is bounded by
    the QI domain (|nations| × |segments|), so the rollup is a
    driver-side Python-int fold over ≤ a few hundred scalars."""
    k = 5
    ds = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_nationkey", "c_mktsegment"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["c_nationkey", "c_mktsegment"],
                          as_index=False)
                .size().rename(columns={"size": "n"}))

    cells = (ds.map_batches(partial, batch_format="pandas")
             .to_pandas())
    out_rows = []
    if len(cells) == 0:
        # the oracle's level-2 COUNT(*) over an empty table still
        # yields one (empty, sub-k) equivalence class — mirror it
        out_rows.append((2, 1, 1, 0))
    else:
        cells = _pysum_cols(cells, ["n"])
        cells = (cells.groupby(["c_nationkey", "c_mktsegment"],
                               as_index=False).agg(n=("n", "sum")))
        levels = [
            (0, ["c_nationkey", "c_mktsegment"]),
            (1, ["c_nationkey"]),
            (2, []),
        ]
        for lvl, keys in levels:
            if keys:
                g = cells.groupby(keys)["n"].sum()
                counts = [int(v) for v in g]
            else:
                counts = [sum(int(v) for v in cells["n"])]
            viol = [c for c in counts if c < k]
            out_rows.append((lvl, len(counts), len(viol), sum(viol)))
    return pd.DataFrame(
        out_rows, columns=["level", "n_classes", "n_violating",
                           "rows_at_risk"]
    ).astype({"level": "int64", "n_classes": "int64",
              "n_violating": "int64", "rows_at_risk": "int64"})


def q_events_quantile_map(sf_dir: str):
    """QUANTILE NORMALIZATION (distribution alignment): map every
    distinct 'purchase' value onto the 'view' distribution at the same
    quantile — the covariate/score-alignment op a pipeline runs before
    mixing sources (quantile matching). Discrete convention, exact in
    integers: r = #purchase ≤ v (max rank of ties), target rank
    t = ⌈r·n1/n2⌉ computed as (r·n1 + n2 − 1)//n2, mapped = the
    SMALLEST view value whose cumulative count reaches t. One row per
    distinct purchase value: (v, n, r, mapped).

    Scale shape: event values live in a BOUNDED cent domain, so one
    distributed histogram pass bounds the driver work regardless of
    row count (the part_trimmed_mean / hodges_lehmann story); the map
    itself is two cumsums + one searchsorted. int64 bound: r·n1 <
    2^63 ⇒ exact to ~3×10⁹ rows per side."""
    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["event_type", "value"])

    hist = (ds.map_batches(_view_purchase_cents, batch_format="pandas")
            .to_pandas())
    cols = ("v", "n", "r", "mapped")
    empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                          for c in cols})
    if len(hist) == 0:
        return empty
    hist = _pysum_cols(hist, ["d1", "d2"])
    hist = (hist.groupby("v", as_index=False)
            .agg(d1=("d1", "sum"), d2=("d2", "sum"))
            .sort_values("v"))
    v = hist["v"].to_numpy(dtype=np.int64)
    c1 = np.array([int(x) for x in hist["d1"]], dtype=np.int64)
    c2 = np.array([int(x) for x in hist["d2"]], dtype=np.int64)
    n1, n2 = int(c1.sum()), int(c2.sum())
    if n1 == 0 or n2 == 0:
        return empty
    v1, c1 = v[c1 > 0], c1[c1 > 0]
    cum1 = np.cumsum(c1)
    v2, c2 = v[c2 > 0], c2[c2 > 0]
    r = np.cumsum(c2)
    tgt = (r * np.int64(n1) + np.int64(n2) - 1) // np.int64(n2)
    mapped = v1[np.searchsorted(cum1, tgt, side="left")]
    return pd.DataFrame({
        "v": pd.Series(v2, dtype="int64"),
        "n": pd.Series(c2, dtype="int64"),
        "r": pd.Series(r, dtype="int64"),
        "mapped": pd.Series(mapped, dtype="int64"),
    }).sort_values("v").reset_index(drop=True)


def q_events_mutual_info(sf_dir: str):
    """MUTUAL INFORMATION between hour-of-day and event type — "does
    behavior depend on time of day" as an information quantity, the
    feature-relevance companion to q_events_chisq's significance test.
    MI = Σ_cells (c/n)·ln(c·n/(rh·ct)) reported as a FIXED-POINT sum:
    each (hour, type) cell contributes floor(term · 2^30) — integer
    partials commute (order-independent float-derived sum, the
    docs_source_kl discipline), zero cells drop identically both
    sides, products cross the 2^53 line through the mirrored `_h2d`
    2^62 split, and division/ln are ONE mirrored libm expression.

    Scale shape: one pass of (hour, type) count partials; the cell
    table is bounded by 24 × |event types| regardless of row count, so
    the fold is driver-side Python ints over ≤ a few hundred
    scalars."""
    import math

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({"h": b["ts"].dt.hour,
                              "t": b["event_type"]})
                .groupby(["h", "t"], as_index=False).size()
                .rename(columns={"size": "c"}))

    cells = (ds.map_batches(partial, batch_format="pandas")
             .to_pandas())
    if len(cells) == 0:
        return pd.DataFrame({
            "n": pd.Series([], dtype="int64"),
            "n_cells": pd.Series([], dtype="int64"),
            "mi_scaled": pd.Series([], dtype="int64"),
        })
    cells = _pysum_cols(cells, ["c"])
    cells = (cells.groupby(["h", "t"], as_index=False)
             .agg(c=("c", "sum")))
    rh = {h: sum(int(v) for v in g["c"])
          for h, g in cells.groupby("h")}
    ct = {t: sum(int(v) for v in g["c"])
          for t, g in cells.groupby("t")}
    n = sum(rh.values())
    scaled = 0
    for _, row in cells.iterrows():
        c = int(row["c"])
        ratio = _h2d(c * n) / _h2d(rh[int(row["h"])] * ct[row["t"]])
        termv = (float(c) / float(n)) * math.log(ratio)
        scaled += math.floor(termv * 1073741824.0)
    return pd.DataFrame({
        "n": pd.Series([n], dtype="int64"),
        "n_cells": pd.Series([len(cells)], dtype="int64"),
        "mi_scaled": pd.Series([scaled], dtype="int64"),
    })


def q_orders_cohort(sf_dir: str):
    """COHORT RETENTION MATRIX over orders: customers grouped by the
    calendar month of their FIRST order; each cell (cohort_month,
    month_offset) counts the distinct customers of that cohort who
    ordered again ``offset`` months later — the acquisition-quality
    view behind every retention dashboard (events_retention is the
    user-day flavor; this is the calendar-month flavor with a
    customer-anchor join). Month index = year·12 + month − 1 so
    offsets subtract exactly across year boundaries.

    Scale shape: ONE custkey-hash exchange of per-batch-deduped
    (customer, month) pairs; each bucket anchors its customers (min
    month), expands offsets, and emits per-(cohort, offset) partial
    counts — distinct-customer semantics are exact because a customer
    lives in exactly one bucket. The driver merges a cell table
    bounded by months² (the calendar span), never customer-scale."""
    import numpy as np

    n_buckets = 64
    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["o_orderdate"].dt.year.to_numpy(dtype=np.int64) * 12
             + b["o_orderdate"].dt.month.to_numpy(dtype=np.int64) - 1)
        df = pd.DataFrame({
            "c": b["o_custkey"].to_numpy(dtype=np.int64), "m": m,
        }).drop_duplicates()
        return df

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["c", "m"])
        cm = g.groupby("c")["m"].transform("min")
        cells = pd.DataFrame({
            "cohort_month": cm.to_numpy(dtype=np.int64),
            "month_offset": (g["m"].to_numpy(dtype=np.int64)
                             - cm.to_numpy(dtype=np.int64)),
        })
        # (c, m) distinct => one row per customer per cell
        return (cells.groupby(["cohort_month", "month_offset"],
                              as_index=False)
                .size().rename(columns={"size": "n"}))

    parts = bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("c", n_buckets), fold,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "cohort_month": pd.Series([], dtype="int64"),
            "month_offset": pd.Series([], dtype="int64"),
            "n_customers": pd.Series([], dtype="int64"),
        })
    parts = _pysum_cols(parts, ["n"])
    out = (parts.groupby(["cohort_month", "month_offset"],
                         as_index=False)
           .agg(n_customers=("n", "sum")))
    out["n_customers"] = [int(v) for v in out["n_customers"]]
    return (out.astype({"cohort_month": "int64",
                        "month_offset": "int64",
                        "n_customers": "int64"})
            .sort_values(["cohort_month", "month_offset"])
            .reset_index(drop=True))


def q_docs_hapax(sf_dir: str, n_buckets: int = 64):
    """HAPAX-LEGOMENA CENSUS per source: vocabulary size, number of
    terms occurring exactly ONCE in that source, and token count — the
    lexical-richness triple (hapax share is the standard
    synthetic-vs-natural text tell: templated corpora have almost no
    hapaxes, natural text ~40-60% of vocabulary). Complements
    q_docs_vocab_growth (global Heaps'-law deciles) with per-source
    composition. Tokenization is the corpus convention
    (lower(trim(text)) whitespace split, the docs_source_kl partial).

    Scale shape: a term's hapax-ness is a property of its GLOBAL
    per-source count, so per-batch (source, term, c) partials complete
    in ONE term-hash bucket exchange; each bucket emits only
    per-source scalar partials (vocab, hapax, tokens) — the driver
    merges |sources| × n_buckets rows in Python ints, never a
    term-scale table."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"),
                                 columns=["source", "text"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby(["source", "term"], as_index=False)
             .agg(c=("c", "sum")))
        out = m.groupby("source").agg(
            vocab=("c", "size"),
            hapax=("c", lambda s: int((s == 1).sum())),
            n_tokens=("c", "sum"))
        return out.reset_index()

    parts = bucket_group_map(
        docs.map_batches(_source_term_partial, batch_format="pandas"),
        key_buckets("term", n_buckets), fold,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "source": pd.Series([], dtype="object"),
            "vocab": pd.Series([], dtype="int64"),
            "hapax": pd.Series([], dtype="int64"),
            "n_tokens": pd.Series([], dtype="int64"),
        })
    parts = _pysum_cols(parts, ["vocab", "hapax", "n_tokens"])
    out = (parts.groupby("source", as_index=False)
           .agg(vocab=("vocab", "sum"), hapax=("hapax", "sum"),
                n_tokens=("n_tokens", "sum")))
    for c in ("vocab", "hapax", "n_tokens"):
        out[c] = [int(v) for v in out[c]]
    return (out.astype({"vocab": "int64", "hapax": "int64",
                        "n_tokens": "int64"})
            .sort_values("source").reset_index(drop=True))


def q_events_wilcoxon(sf_dir: str):
    """WILCOXON SIGNED-RANK test, the PAIRED companion to
    q_events_mannwhitney: each user who has BOTH view and purchase
    events is one pair, d_u = (view spend − purchase spend) in exact
    cents; zeros drop (the standard convention) and W⁺ is the sum of
    |d| midranks on the positive side — reported DOUBLED
    (w_plus_x2 = Σ cp·(2·cum_before + ct + 1)) so ties stay integral,
    with tie_sum = Σ(ct³ − ct) for the variance correction.

    Scale shape: pass 1 is ONE user-hash exchange producing per-user
    exact differences (a user owns one bucket, so the pairing is
    exact); pass 2 ranks |d| WITHOUT a global sort — the
    events_ks_test range-bucket scan: per-value (ct, cp) counts bucket
    by |d| high bits, each bucket cumsums locally against Python-int
    offsets, the driver merges ≤1024 bucket partials. int64 bound:
    W⁺ ≈ 2n² caps at n ≈ 2×10⁹ paired users."""
    import numpy as np

    from ..stages.exchange import checkpoint

    n_buckets = 64
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["user_id", "event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["event_type"].to_numpy()
        m = (t == "view") | (t == "purchase")
        u = b["user_id"].to_numpy()[m].astype(np.int64)
        cents = np.round(b["value"].to_numpy()[m] * 100).astype(
            np.int64)
        is_v = (t[m] == "view")
        df = pd.DataFrame({
            "u": u,
            "sv": np.where(is_v, cents, 0),
            "sp": np.where(is_v, 0, cents),
            "hv": is_v.astype(np.int64),
            "hp": (~is_v).astype(np.int64),
        }).groupby("u", as_index=False).agg(
            sv=("sv", "sum"), sp=("sp", "sum"),
            hv=("hv", "max"), hp=("hp", "max"))
        return df

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("u", as_index=False).agg(
            sv=("sv", "sum"), sp=("sp", "sum"),
            hv=("hv", "max"), hp=("hp", "max"))
        m = m[(m["hv"] == 1) & (m["hp"] == 1)]
        d = (m["sv"] - m["sp"]).to_numpy(dtype=np.int64)
        d = d[d != 0]
        return (pd.DataFrame({"a": np.abs(d),
                              "pos": (d > 0).astype(np.int64)})
                .groupby("a", as_index=False)
                .agg(ct=("pos", "size"), cp=("pos", "sum")))

    parts = checkpoint(bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("u", n_buckets), fold))
    cols = ("n_users", "w_plus_x2", "tie_sum")
    max_a = parts.max("a")
    if max_a is None:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    shift = max(0, int(max_a).bit_length() - 10)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("a", as_index=False)
                .agg(ct=("ct", "sum"), cp=("cp", "sum")))

    bucketed = checkpoint(
        bucket_group_map(parts, _high_bits("a", shift), merge_bucket))
    tot = (bucketed.map_batches(
        lambda b: b.assign(rb=b["a"].to_numpy(dtype=np.int64)
                           >> np.int64(shift))
        .groupby("rb", as_index=False).agg(t=("ct", "sum")),
        batch_format="pandas").to_pandas())
    tot = _pysum_cols(tot, ["t"])
    tot = (tot.groupby("rb", as_index=False).agg(t=("t", "sum"))
           .sort_values("rb"))
    off, acc = {}, 0
    for _, row in tot.iterrows():
        off[int(row["rb"])] = acc
        acc += int(row["t"])
    n_users = acc

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("a")
        rb = int(g["a"].iloc[0]) >> shift
        ct = g["ct"].to_numpy(dtype=np.int64)
        cp = g["cp"].to_numpy(dtype=np.int64)
        cumb = (np.concatenate(([np.int64(0)], np.cumsum(ct)[:-1]))
                + np.int64(off[rb]))
        r2 = 2 * cumb + ct + 1
        return pd.DataFrame({
            "wp": [int((cp * r2).sum())],
            "tiep": [int((ct * ct * ct - ct).sum())],
        })

    m = bucket_group_map(
        bucketed, _high_bits("a", shift), finalize).to_pandas()
    m = _pysum_cols(m, ["wp", "tiep"])
    return pd.DataFrame({
        "n_users": pd.Series([n_users], dtype="int64"),
        "w_plus_x2": pd.Series([sum(int(v) for v in m["wp"])],
                               dtype="int64"),
        "tie_sum": pd.Series([sum(int(v) for v in m["tiep"])],
                             dtype="int64"),
    })


def q_docs_zipf(sf_dir: str, k: int = 256):
    """ZIPF'S-LAW FIT: the log-log slope of term frequency against
    frequency rank over the global top-``k`` terms — the corpus-health
    power-law check (natural text ≈ −1; templated/synthetic corpora
    flatten). Built on the exact :func:`top_terms` pass (rank order =
    count desc, term asc, both sides). The regression is EXACT given
    fixed-point inputs: x = ⌊ln(rank)·2^30⌋, y = ⌊ln(count)·2^30⌋
    floor BEFORE the sums (the docs_source_kl discipline), the
    sufficient statistics are Python-int exact, and the single
    slope division crosses to float through the mirrored `_h2d`
    split. Scale shape: everything after the distributed top-k pass
    is O(k) driver work."""
    import math

    from ..stages.text_analysis import top_terms

    t = top_terms(
        ray.data.read_parquet(_t(sf_dir, "documents"),
                              columns=["text"]), k=k)
    n = len(t)
    if n < 2:
        return pd.DataFrame({
            "n_terms": pd.Series([], dtype="int64"),
            "slope": pd.Series([], dtype="float64"),
        })
    xs, ys = [], []
    for i, cnt in enumerate(t["n"], start=1):
        xs.append(math.floor(math.log(float(i)) * 1073741824.0))
        ys.append(math.floor(math.log(float(int(cnt)))
                             * 1073741824.0))
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    slope = _h2d(num) / _h2d(den)
    return pd.DataFrame({
        "n_terms": pd.Series([n], dtype="int64"),
        "slope": pd.Series([slope], dtype="float64"),
    })


def q_events_runs_test(sf_dir: str):
    """WALD–WOLFOWITZ RUNS TEST on daily spend: is the above/below-
    median day sequence random, or does it trend/oscillate? Days at
    the discrete median drop (the standard convention); n1/n2 count
    above/below days and n_runs counts maximal same-sign stretches —
    all integers, so the statistic is exact and the normal
    approximation is the reader's one division. Day totals are the
    shared :func:`_daily_cents` decomposable partials; the
    classification + run count is one linear walk over the BOUNDED
    day axis on the driver (the events_ses argument). Median
    convention: sorted[⌈n/2⌉ − 1], mirrored via ROW_NUMBER in the
    oracle."""
    import numpy as np

    m = _daily_cents(sf_dir)
    cols = ("n1", "n2", "n_runs", "median_cents")
    if len(m) == 0:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    vals = np.array([int(v) for v in m["xc"]], dtype=np.int64)
    med = int(np.sort(vals)[(len(vals) + 1) // 2 - 1])
    signs = vals[vals != med] > med  # day order preserved
    n1 = int(signs.sum())
    n2 = int(len(signs) - n1)
    if len(signs) == 0:
        n_runs = 0
    else:
        n_runs = int(1 + (signs[1:] != signs[:-1]).sum())
    return pd.DataFrame({
        "n1": pd.Series([n1], dtype="int64"),
        "n2": pd.Series([n2], dtype="int64"),
        "n_runs": pd.Series([n_runs], dtype="int64"),
        "median_cents": pd.Series([med], dtype="int64"),
    })


def q_events_kruskal(sf_dir: str):
    """KRUSKAL–WALLIS k-sample rank test across ALL event types (the
    k-group generalization of q_events_mannwhitney): every event's
    value is ranked in the POOLED sample with doubled midranks, and
    each type reports its exact integer rank sum — H =
    (12/(n(n+1))·Σ R_t²/n_t − 3(n+1)) / (1 − tie_sum/(n³−n)) is the
    reader's one float away; every reported number is an integer
    (r2_sum = doubled midrank sum per type, tie_sum = Σ(cnt³ − cnt)
    over pooled distinct values, repeated per row for completeness).

    Scale shape: (type, value) cells range-bucket by value high bits
    (a value owns one bucket), pooled midranks come from per-bucket
    cumsums against Python-int offsets, and each bucket emits
    |types| + 1 scalar partials — the events_ks_test discipline at
    k groups. int64 bound: r2_sum < 2n² ⇒ exact to ~2×10⁹ rows."""
    import numpy as np

    from ..stages.exchange import checkpoint

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.round(b["value"].to_numpy() * 100).astype(np.int64)
        return (pd.DataFrame({"t": b["event_type"], "v": v})
                .groupby(["t", "v"], as_index=False).size()
                .rename(columns={"size": "c"}))

    parts = checkpoint(ds.map_batches(partial, batch_format="pandas"))
    cols = ("event_type", "n", "r2_sum", "tie_sum")
    max_v = parts.max("v")
    if max_v is None:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype="object"),
            "n": pd.Series([], dtype="int64"),
            "r2_sum": pd.Series([], dtype="int64"),
            "tie_sum": pd.Series([], dtype="int64"),
        })
    shift = max(0, int(max_v).bit_length() - 10)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["t", "v"], as_index=False)
                .agg(c=("c", "sum")))

    bucketed = checkpoint(
        bucket_group_map(parts, _high_bits("v", shift), merge_bucket))
    tot = (bucketed.map_batches(
        lambda b: b.assign(rb=b["v"].to_numpy(dtype=np.int64)
                           >> np.int64(shift))
        .groupby("rb", as_index=False).agg(t=("c", "sum")),
        batch_format="pandas").to_pandas())
    tot = _pysum_cols(tot, ["t"])
    tot = (tot.groupby("rb", as_index=False).agg(t=("t", "sum"))
           .sort_values("rb"))
    off, acc = {}, 0
    for _, row in tot.iterrows():
        off[int(row["rb"])] = acc
        acc += int(row["t"])

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["v"].iloc[0]) >> shift
        gv = (g.groupby("v", as_index=False).agg(cnt=("c", "sum"))
              .sort_values("v"))
        cnt = gv["cnt"].to_numpy(dtype=np.int64)
        cumb = (np.concatenate(([np.int64(0)], np.cumsum(cnt)[:-1]))
                + np.int64(off[rb]))
        r2 = 2 * cumb + cnt + 1
        rr = r2[np.searchsorted(gv["v"].to_numpy(dtype=np.int64),
                                g["v"].to_numpy(dtype=np.int64))]
        c = g["c"].to_numpy(dtype=np.int64)
        out = (pd.DataFrame({"t": g["t"].to_numpy(), "p": c * rr,
                             "n": c})
               .groupby("t", as_index=False)
               .agg(p=("p", "sum"), n=("n", "sum")))
        out["tiep"] = 0
        tie_row = pd.DataFrame({
            "t": ["\x00tie"], "p": [0], "n": [0],
            "tiep": [int((cnt * cnt * cnt - cnt).sum())],
        })
        return pd.concat([out, tie_row], ignore_index=True)

    m = bucket_group_map(
        bucketed, _high_bits("v", shift), finalize).to_pandas()
    m = _pysum_cols(m, ["p", "n", "tiep"])
    tie_sum = sum(int(v) for v in m["tiep"])
    m = m[m["t"] != "\x00tie"]
    out = (m.groupby("t", as_index=False)
           .agg(n=("n", "sum"), r2_sum=("p", "sum")))
    out["n"] = [int(v) for v in out["n"]]
    out["r2_sum"] = [int(v) for v in out["r2_sum"]]
    out["tie_sum"] = tie_sum
    out = out.rename(columns={"t": "event_type"})
    return (out.astype({"n": "int64", "r2_sum": "int64",
                        "tie_sum": "int64"})
            [list(cols)]
            .sort_values("event_type").reset_index(drop=True))


def q_events_friedman(sf_dir: str):
    """FRIEDMAN TEST (paired k-sample — the within-blocks companion
    that completes the nonparametric suite: MWU two-sample, Wilcoxon
    paired, Kruskal–Wallis k-sample, Friedman paired-k): blocks are
    users observed under ALL k event types (complete blocks only, the
    standard design), the treatment response is the user's exact cent
    spend per type, ranked WITHIN the user with doubled midranks.
    Output per type: n_blocks, the exact integer doubled rank sum,
    and the tie-correction term Σ_blocks Σ_ties (t³ − t) (global,
    repeated per row); the χ²_F statistic is the reader's one float.

    Scale shape: ONE user-hash exchange (a user owns one bucket, so
    block completeness and within-block ranks are bucket-local); each
    bucket emits |types| + 1 scalar partials. Within-block ranking is
    pandas' C-level grouped average-rank ×2 (integral by
    construction)."""
    import numpy as np

    n_buckets = 64
    ds = ray.data.read_parquet(
        _t(sf_dir, "events"),
        columns=["user_id", "event_type", "value"])
    k_types = sorted(
        ray.data.read_parquet(_t(sf_dir, "events"),
                              columns=["event_type"])
        .unique("event_type"))
    k = len(k_types)
    cols = ("event_type", "n_blocks", "r2_sum", "tie_sum")
    if k == 0:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype="object"),
            "n_blocks": pd.Series([], dtype="int64"),
            "r2_sum": pd.Series([], dtype="int64"),
            "tie_sum": pd.Series([], dtype="int64"),
        })

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["value"].to_numpy() * 100).astype(np.int64)
        df = (pd.DataFrame({
            "u": b["user_id"].to_numpy().astype(np.int64),
            "t": b["event_type"], "s": cents,
        }).groupby(["u", "t"], as_index=False).agg(s=("s", "sum")))
        return df

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["u", "t"], as_index=False).agg(s=("s", "sum"))
        complete = m.groupby("u")["t"].transform("size") == k
        m = m[complete]
        if len(m) == 0:
            return pd.DataFrame({
                "t": pd.Series([], dtype="object"),
                "nb": pd.Series([], dtype="int64"),
                "r2p": pd.Series([], dtype="int64"),
                "tiep": pd.Series([], dtype="int64"),
            })
        # doubled within-block midranks: average rank x2 is integral
        m = m.copy()
        m["r2"] = np.rint(
            m.groupby("u")["s"].rank(method="average").to_numpy()
            * 2.0).astype(np.int64)
        out = (m.groupby("t", as_index=False)
               .agg(nb=("u", "size"), r2p=("r2", "sum")))
        # tie term per block: sum over tied-value groups of t^3 - t
        tc = (m.groupby(["u", "s"], as_index=False).size()
              .rename(columns={"size": "c"}))
        tie = int((tc["c"] ** 3 - tc["c"]).sum())
        out["tiep"] = 0
        tie_row = pd.DataFrame({"t": ["\x00tie"], "nb": [0],
                                "r2p": [0], "tiep": [tie]})
        return pd.concat([out, tie_row], ignore_index=True)

    m = bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("u", n_buckets), fold,
    ).to_pandas()
    if len(m) == 0:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype="object"),
            "n_blocks": pd.Series([], dtype="int64"),
            "r2_sum": pd.Series([], dtype="int64"),
            "tie_sum": pd.Series([], dtype="int64"),
        })
    m = _pysum_cols(m, ["nb", "r2p", "tiep"])
    tie_sum = sum(int(v) for v in m["tiep"])
    m = m[m["t"] != "\x00tie"]
    out = (m.groupby("t", as_index=False)
           .agg(n_blocks=("nb", "sum"), r2_sum=("r2p", "sum")))
    if len(out) == 0:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype="object"),
            "n_blocks": pd.Series([], dtype="int64"),
            "r2_sum": pd.Series([], dtype="int64"),
            "tie_sum": pd.Series([], dtype="int64"),
        })
    out["n_blocks"] = [int(v) for v in out["n_blocks"]]
    out["r2_sum"] = [int(v) for v in out["r2_sum"]]
    out["tie_sum"] = tie_sum
    out = out.rename(columns={"t": "event_type"})
    return (out.astype({"n_blocks": "int64", "r2_sum": "int64",
                        "tie_sum": "int64"})[list(cols)]
            .sort_values("event_type").reset_index(drop=True))


def q_lineitem_ship_latency(sf_dir: str):
    """SHIP-LATENCY SLA REPORT: median and p90 days between order
    placement and line-item shipment, per order priority — the
    fact-to-fact JOIN composed with GROUPED UNBOUNDED-DOMAIN QUANTILES
    (the two expensive shapes in one query: q_join_shuffle's bucketed
    hash join feeding q_events_interarrival's fused two-pass
    distributed selection). Latency = (l_shipdate − o_orderdate) in
    whole days (both midnight-aligned; floor µs-division mirrors
    datediff).

    Scale shape: ONE orderkey-bucketed shuffle join (pruned to three
    columns a side), checkpointed once and re-streamed by the fused
    coarse+fine selection passes — per-priority quantiles are
    per-metric filters inside the SAME two passes, so pass count does
    not grow with group count and nothing row-scale reaches the
    driver."""
    import numpy as np

    from ..stages.exchange import checkpoint
    from .joins import hash_join

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"])
    orders = ray.data.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = checkpoint(hash_join(li, orders, "l_orderkey",
                                  "o_orderkey"))
    cols = ("o_orderpriority", "n", "p50_days", "p90_days")
    prios = sorted(orders.unique("o_orderpriority"))
    if joined.count() == 0 or not prios:
        return pd.DataFrame({
            "o_orderpriority": pd.Series([], dtype="object"),
            "n": pd.Series([], dtype="int64"),
            "p50_days": pd.Series([], dtype="int64"),
            "p90_days": pd.Series([], dtype="int64"),
        })
    day_us = np.int64(86_400_000_000)

    def lat_for(prio):
        def to_int(b: pd.DataFrame) -> np.ndarray:
            m = (b["o_orderpriority"] == prio).to_numpy()
            s = b["l_shipdate"].to_numpy(
                dtype="datetime64[us]").astype(np.int64)[m]
            o = b["o_orderdate"].to_numpy(
                dtype="datetime64[us]").astype(np.int64)[m]
            return (s - o) // day_us

        return to_int

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("o_orderpriority", as_index=False)
                .size().rename(columns={"size": "n"}))

    counts = (joined.map_batches(count_partial, batch_format="pandas")
              .to_pandas())
    counts = _pysum_cols(counts, ["n"])
    counts = (counts.groupby("o_orderpriority")["n"].sum().to_dict())
    prios = [p for p in prios if counts.get(p, 0)]  # joined rows only
    if not prios:
        return pd.DataFrame({
            "o_orderpriority": pd.Series([], dtype="object"),
            "n": pd.Series([], dtype="int64"),
            "p50_days": pd.Series([], dtype="int64"),
            "p90_days": pd.Series([], dtype="int64"),
        })
    qres, _total = _selection_quantiles_multi(
        joined, {p: lat_for(p) for p in prios},
        {"p50": 0.5, "p90": 0.9})
    rows = [(p, int(counts[p]), int(qres[p]["p50"]),
             int(qres[p]["p90"]))
            for p in prios]
    return (pd.DataFrame(rows, columns=list(cols))
            .astype({"n": "int64", "p50_days": "int64",
                     "p90_days": "int64"})
            .sort_values("o_orderpriority").reset_index(drop=True))


def q_part_ktruss(sf_dir: str, k: int = PART_KTRUSS_K):
    """K-TRUSS (k = 4) of the part co-purchase graph: the maximal
    subgraph where every surviving edge closes ≥ k − 2 triangles with
    OTHER surviving edges — the cohesion cut between k-core's degree
    peel (q_part_kcore) and full cliques, keeping only parts embedded
    in genuinely clustered baskets (a co-purchase edge with support
    from one stray basket peels away; a K4 basket core survives).
    Fourth iterative-graph family (CC label propagation, Borůvka MSF,
    fixpoint degree peel, and now iterative support peel). Returns the
    surviving canonical edges. SQL-ORACLED since round 5
    (__ray_entry__._ktruss_oracle_sql: the support peel unrolled as 20
    bounded monotone SQL rounds — measured depths 1/3/8 at the three
    sfs); the sequential-reference-peeler pytest remains
    (tests/test_round3_ktruss.py)."""
    from ..stages.graph import group_cooccurrence_edges, ktruss

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    out, _rounds = ktruss(edges, k=k)
    return out


def q_docs_source_drift(sf_dir: str):
    """ALL-PAIRS DISTRIBUTION-DRIFT MATRIX: the exact two-sample KS
    statistic between EVERY pair of sources over the document-length
    (n_chars) distribution — 190 pairwise tests from ONE scan, the
    per-ingestion-source drift dashboard (q_docs_source_kl is the
    top-terms view; this is the length-distribution view, and the
    k-group extension of q_events_ks_test). Per pair: d_num =
    max over values of |c_a(v)·n_b − c_b(v)·n_a| so D = d_num/(n_a·n_b)
    with no float anywhere.

    Scale shape: per-(source, value) count cells range-bucket by value
    high bits (≤1024 ordered buckets); each bucket builds its local
    dense (values × sources) cumulative matrix against driver-held
    per-source offsets and reduces to ONE |S|×|S| max matrix — the
    driver max-merges buckets × pairs scalars, never value-scale rows.
    int64 bound: c·n < n_a·n_b < 2^63 ⇒ exact to ~3×10⁹ rows per
    source."""
    import numpy as np

    from ..stages.exchange import checkpoint

    ds = ray.data.read_parquet(_t(sf_dir, "documents"),
                               columns=["source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({"s": b["source"],
                              "v": b["n_chars"].astype("int64")})
                .groupby(["s", "v"], as_index=False).size()
                .rename(columns={"size": "c"}))

    parts = checkpoint(ds.map_batches(partial, batch_format="pandas"))
    max_v = parts.max("v")
    cols = ("src_a", "src_b", "n_a", "n_b", "d_num")
    if max_v is None:
        return pd.DataFrame({
            "src_a": pd.Series([], dtype="object"),
            "src_b": pd.Series([], dtype="object"),
            "n_a": pd.Series([], dtype="int64"),
            "n_b": pd.Series([], dtype="int64"),
            "d_num": pd.Series([], dtype="int64"),
        })
    shift = max(0, int(max_v).bit_length() - 10)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["s", "v"], as_index=False)
                .agg(c=("c", "sum")))

    bucketed = checkpoint(
        bucket_group_map(parts, _high_bits("v", shift), merge_bucket))
    tot = (bucketed.map_batches(
        lambda b: b.assign(rb=b["v"].to_numpy(dtype=np.int64)
                           >> np.int64(shift))
        .groupby(["rb", "s"], as_index=False)
        .agg(t=("c", "sum")), batch_format="pandas").to_pandas())
    tot = _pysum_cols(tot, ["t"])
    tot = (tot.groupby(["rb", "s"], as_index=False)
           .agg(t=("t", "sum")))
    sources = sorted(tot["s"].unique())
    si = {s: i for i, s in enumerate(sources)}
    S = len(sources)
    per_rb = {}
    for _, row in tot.iterrows():
        per_rb.setdefault(int(row["rb"]),
                          [0] * S)[si[row["s"]]] = int(row["t"])
    off, acc = {}, [0] * S
    for rb in sorted(per_rb):
        off[rb] = list(acc)
        acc = [a + t for a, t in zip(acc, per_rb[rb])]
    n_tot = np.array(acc, dtype=np.int64)
    if S < 2:
        return pd.DataFrame({
            "src_a": pd.Series([], dtype="object"),
            "src_b": pd.Series([], dtype="object"),
            "n_a": pd.Series([], dtype="int64"),
            "n_b": pd.Series([], dtype="int64"),
            "d_num": pd.Series([], dtype="int64"),
        })

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["v"].iloc[0]) >> shift
        uniq = np.sort(g["v"].unique())
        vi = np.searchsorted(uniq, g["v"].to_numpy(dtype=np.int64))
        M = np.zeros((len(uniq), S), dtype=np.int64)
        np.add.at(M, (vi, [si[s] for s in g["s"]]),
                  g["c"].to_numpy(dtype=np.int64))
        cum = np.cumsum(M, axis=0) + np.asarray(off[rb],
                                                dtype=np.int64)[None, :]
        # per value: |cum_a * n_b - cum_b * n_a| for all pairs
        d = np.abs(cum[:, :, None] * n_tot[None, None, :]
                   - cum[:, None, :] * n_tot[None, :, None])
        dm = d.max(axis=0)                # (S, S)
        ia, ib = np.triu_indices(S, k=1)
        return pd.DataFrame({
            "ia": ia.astype(np.int64), "ib": ib.astype(np.int64),
            "dn": dm[ia, ib].astype(np.int64),
        })

    m = bucket_group_map(
        bucketed, _high_bits("v", shift), finalize).to_pandas()
    m = (m.groupby(["ia", "ib"], as_index=False).agg(dn=("dn", "max")))
    return pd.DataFrame({
        "src_a": [sources[int(i)] for i in m["ia"]],
        "src_b": [sources[int(i)] for i in m["ib"]],
        "n_a": pd.Series([int(n_tot[int(i)]) for i in m["ia"]],
                         dtype="int64"),
        "n_b": pd.Series([int(n_tot[int(i)]) for i in m["ib"]],
                         dtype="int64"),
        "d_num": pd.Series([int(v) for v in m["dn"]], dtype="int64"),
    }).sort_values(["src_a", "src_b"]).reset_index(drop=True)


def _floored_f_stat(groups, K=1 << 20):
    """Shared exact-integer one-way F construction (ANOVA and
    Brown–Forsythe): ``groups`` is ``[(n_t, s_t, q_t), ...]`` with
    Python-int moments (n, Σx, Σx²) per group. The between/within sums
    of squares are defined THROUGH fixed-point floors so the statistic
    is a pure integer both sides can compute bit-identically:

        A      = Σ_t (s_t²·K) // n_t          (per-group floored)
        B      = (S²·K) // n                  (grand floored)
        ssb_k  = max(A − B, 0)                (Cauchy–Schwarz ≥ −1
                                               only via flooring)
        ssw_k  = K·ΣQ − A                     (≥ 0 exactly)
        f_sc   = ssb_k·(n−k)·K // (ssw_k·(k−1))

    Returns ``(df1, df2, f_scaled)`` as Python ints; ``f_scaled`` is
    −1 when the statistic is undefined (k < 2, n ≤ k, or zero
    within-group variance) — the oracle mirrors the same CASE."""
    k = len(groups)
    n = sum(g[0] for g in groups)
    S = sum(g[1] for g in groups)
    Q = sum(g[2] for g in groups)
    df1, df2 = k - 1, n - k
    if k < 2 or n <= k:
        return df1, df2, -1
    A = sum((s * s * K) // nt for nt, s, _ in groups)
    B = (S * S * K) // n
    ssb_k = max(A - B, 0)
    ssw_k = Q * K - A
    if ssw_k <= 0:
        return df1, df2, -1
    return df1, df2, (ssb_k * df2 * K) // (ssw_k * df1)


def q_events_anova(sf_dir: str):
    """ONE-WAY ANOVA F test of event value across event types — the
    parametric companion of q_events_kruskal (k-sample location test on
    means instead of ranks). Per-type exact integer moments (n, Σcents,
    Σcents²) plus the F statistic as a FIXED-POINT integer
    (`_floored_f_stat`): every division is a floor over exact integers,
    so the statistic is order-independent and mirrored verbatim by the
    oracle's HUGEINT arithmetic — no float accumulates anywhere.

    Scale shape: the q_events_ab_test discipline — ONE bounded
    exchange (≤ |event_types| partial rows per batch), Python-int
    driver merge. int64 OUTPUT bound: sumsq_cents ≈ 2.4e9/row wraps
    past ~3.8e9 rows per type — guarded with a loud ValueError (the
    internal statistic is unbounded Python int)."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.round(b["value"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame({"event_type": b["event_type"],
                          "s": v, "q": v * v})
        out = d.groupby("event_type", as_index=False).agg(
            s=("s", "sum"), q=("q", "sum"), n=("s", "size"))
        out["n"] = out["n"].astype("int64")
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["s", "q", "n"])
    agg = {}
    for et, g in parts.groupby("event_type"):
        agg[et] = (sum(g["n"]), sum(g["s"]), sum(g["q"]))
    df1, df2, f_sc = _floored_f_stat(sorted(agg.values()))
    rows = []
    for et in sorted(agg):
        nt, s, q = agg[et]
        if max(abs(s), q, abs(f_sc)) >= 1 << 62:
            raise ValueError(
                "events_anova int64 output bound exceeded — ship the "
                "moment columns as decimal strings (the events_spearman "
                "fix) before rerunning at this scale")
        rows.append((et, nt, s, q, df1, df2, f_sc))
    return (pd.DataFrame(rows, columns=[
        "event_type", "n", "sum_cents", "sumsq_cents",
        "df1", "df2", "f_scaled"])
        .astype({"n": "int64", "sum_cents": "int64",
                 "sumsq_cents": "int64", "df1": "int64",
                 "df2": "int64", "f_scaled": "int64"})
        .sort_values("event_type").reset_index(drop=True))


def q_events_levene(sf_dir: str):
    """BROWN–FORSYTHE TEST (Levene with median centers) for equality of
    spread across event types — the dispersion companion of
    q_events_anova (same F construction, applied to absolute deviations
    from each group's EXACT median). Two passes: (1) the kruskal-style
    (type, cents) cell census gives each type's exact doubled median
    ``med2`` (a+b for even counts, 2m for odd — integer, no float
    interpolation); (2) per-batch moments of z = |2·cents − med2| in
    half-cent units. W comes out of `_floored_f_stat` — a pure integer
    both sides compute identically (the oracle's 2·median(BIGINT) is
    exact: (a+b)/2 is a power-of-two halving, ×2 restores a+b).

    Scale shape: two bounded exchanges — the cell census is
    |types|×|distinct cents| (bounded value domain, the
    part_trimmed_mean argument) and the z-moment pass is ≤ |types| rows
    per batch; both merges are Python-int."""
    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "value"])

    def cell_partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.round(b["value"].to_numpy() * 100).astype("int64")
        return (pd.DataFrame({"t": b["event_type"], "v": v})
                .groupby(["t", "v"], as_index=False).size()
                .rename(columns={"size": "c"}))

    cells = (ds.map_batches(cell_partial, batch_format="pandas")
             .to_pandas())
    cells = _pysum_cols(cells, ["c"])
    cells = cells.groupby(["t", "v"], as_index=False).agg(c=("c", "sum"))
    med2 = {}
    for et, g in cells.sort_values("v").groupby("t"):
        cnt = [int(x) for x in g["c"]]
        vals = [int(x) for x in g["v"]]
        n = sum(cnt)
        k1, k2 = (n + 1) // 2, (n + 2) // 2  # 1-indexed order stats
        acc, lo, hi = 0, None, None
        for v, c in zip(vals, cnt):
            if lo is None and acc + c >= k1:
                lo = v
            if hi is None and acc + c >= k2:
                hi = v
                break
            acc += c
        med2[et] = lo + hi

    def z_partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.round(b["value"].to_numpy() * 100).astype("int64")
        m2 = b["event_type"].map(med2).to_numpy(dtype="int64")
        z = np.abs(2 * v - m2)
        d = pd.DataFrame({"event_type": b["event_type"],
                          "s": z, "q": z * z})
        out = d.groupby("event_type", as_index=False).agg(
            s=("s", "sum"), q=("q", "sum"), n=("s", "size"))
        out["n"] = out["n"].astype("int64")
        return out

    parts = ds.map_batches(z_partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["s", "q", "n"])
    agg = {}
    for et, g in parts.groupby("event_type"):
        agg[et] = (sum(g["n"]), sum(g["s"]), sum(g["q"]))
    df1, df2, w_sc = _floored_f_stat(sorted(agg.values()))
    rows = []
    for et in sorted(agg):
        nt, s, q = agg[et]
        if max(s, q, abs(w_sc)) >= 1 << 62:
            raise ValueError(
                "events_levene int64 output bound exceeded — ship the "
                "moment columns as decimal strings before rerunning")
        rows.append((et, nt, int(med2[et]), s, q, df1, df2, w_sc))
    return (pd.DataFrame(rows, columns=[
        "event_type", "n", "med2_cents", "zsum", "zsumsq",
        "df1", "df2", "w_scaled"])
        .astype({"n": "int64", "med2_cents": "int64", "zsum": "int64",
                 "zsumsq": "int64", "df1": "int64", "df2": "int64",
                 "w_scaled": "int64"})
        .sort_values("event_type").reset_index(drop=True))


def _daily_cents_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-(event_type, day) exact-cents totals — the typed sibling of
    :func:`_daily_cents`, shared by the Mann–Kendall and Theil–Sen
    trend tests so the day/cents convention is defined ONCE. Returns a
    merged frame with Python-int ``xc``."""
    import numpy as np

    us_per_day = np.int64(86_400_000_000)
    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["event_type", "ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        day = (b["ts"].to_numpy(dtype="datetime64[us]")
               .astype(np.int64) // us_per_day)
        cents = np.round(b["value"].to_numpy() * 100).astype("int64")
        return (pd.DataFrame({"t": b["event_type"], "day": day,
                              "xc": cents})
                .groupby(["t", "day"], as_index=False)["xc"].sum())

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["xc"])
    return parts.groupby(["t", "day"], as_index=False).agg(
        xc=("xc", "sum"))


def q_events_mann_kendall(sf_dir: str):
    """MANN–KENDALL TREND TEST per event type over the daily-spend
    series — the monotonic-trend detector that completes the
    time-series diagnostics family (SES forecasts it, autocorrelation
    explains it, Mann–Kendall decides whether a trend is there at
    all). S = Σ_{i<j} sign(x_j − x_i) over day-ordered exact-cents
    daily totals, plus the variance numerator
    n(n−1)(2n+5) − Σ_v t_v(t_v−1)(2t_v+5) (Var(S) is the reader's one
    /18 away) — all exact integers.

    Scale shape: the `_daily_cents` discipline per type — day totals
    are decomposable per-batch partials (≤ |types|×|days| rows per
    batch), the pairwise statistic runs over the BOUNDED day axis.
    Values are Python ints (no int64 wrap at any corpus size); the
    pairwise sign sum runs on dense RANKS (sign-equivalent, int64-
    safe) with one O(d²) numpy pass per type, d = observed days."""
    import numpy as np

    m = _daily_cents_by_type(sf_dir)
    rows = []
    for et, g in m.groupby("t"):
        g = g.sort_values("day")
        xs = [int(v) for v in g["xc"]]  # exact Python ints
        n = len(xs)
        order = {v: i for i, v in enumerate(sorted(set(xs)))}
        r = np.asarray([order[v] for v in xs], dtype=np.int64)
        sgn = np.sign(r[None, :] - r[:, None])
        s_stat = int(np.triu(sgn, k=1).sum())
        ties = pd.Series(r).value_counts()
        tie = sum(int(c) * (int(c) - 1) * (2 * int(c) + 5)
                  for c in ties if int(c) > 1)
        var_num = n * (n - 1) * (2 * n + 5) - tie
        rows.append((et, n, s_stat, var_num))
    return (pd.DataFrame(rows, columns=["event_type", "n_days",
                                        "s_stat", "var_num"])
            .astype({"n_days": "int64", "s_stat": "int64",
                     "var_num": "int64"})
            .sort_values("event_type").reset_index(drop=True))


def q_part_cramers_v(sf_dir: str):
    """CRAMÉR'S V association between part brand and part type — the
    categorical-correlation audit (is a schema column redundant with
    another?) built on the events_chisq fixed-point discipline: the
    contingency table is exact integer counts, each cell's χ² term is
    floored at 2^20 before summation (order-independent), the
    hugeint→double casts go through the mirrored 2^62 split (`_h2d`),
    and V = √(χ²/(n·min(r−1,c−1))) is ONE mirrored float expression
    whose sqrt is IEEE-correctly-rounded on both sides — bitwise
    equal, then refloored to 2^20.

    Scale shape: per-batch (brand, type) count partials bound the
    exchange to r×c rows per batch; everything after the driver merge
    is O(r·c)."""
    import math

    ds = ray.data.read_parquet(_t(sf_dir, "part"),
                               columns=["p_brand", "p_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["p_brand", "p_type"], as_index=False)
                .size().rename(columns={"size": "c"}))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    parts = _pysum_cols(parts, ["c"])
    o = parts.groupby(["p_brand", "p_type"], as_index=False).agg(
        c=("c", "sum"))
    r = {b: sum(g["c"]) for b, g in o.groupby("p_brand")}
    cc = {t: sum(g["c"]) for t, g in o.groupby("p_type")}
    n = sum(int(v) for v in o["c"])
    K = 1 << 20
    obs_map = {(b, t): int(v)
               for b, t, v in zip(o["p_brand"], o["p_type"], o["c"])}
    chisq_scaled = 0
    # iterate the FULL r x c cross product: a zero cell still
    # contributes (r*c)^2 / (n*r*c) = r*c/n to the chi-square
    # (review fix — summing observed cells only understates V
    # whenever a brand never sells a type)
    for br in r:
        for ty in cc:
            obs = obs_map.get((br, ty), 0)
            rr, ccc = int(r[br]), int(cc[ty])
            num = (obs * n - rr * ccc) ** 2
            den = n * rr * ccc
            chisq_scaled += math.floor(_h2d(num) / _h2d(den)
                                       * float(K))
    nr, nc = len(r), len(cc)
    mdim = min(nr - 1, nc - 1)
    v_scaled = math.floor(
        math.sqrt((chisq_scaled / float(K)) / float(n * mdim))
        * float(K))
    return pd.DataFrame({
        "n_rows": pd.Series([n], dtype="int64"),
        "n_brands": pd.Series([nr], dtype="int64"),
        "n_types": pd.Series([nc], dtype="int64"),
        "chisq_scaled": pd.Series([chisq_scaled], dtype="int64"),
        "v_scaled": pd.Series([v_scaled], dtype="int64"),
    })


def _source_term_partial(b: pd.DataFrame) -> pd.DataFrame:
    """Per-batch (source, term, count) partial — the corpus
    tokenization convention (fillna/strip/lower/whitespace split),
    defined ONCE for the per-source term-census family (hapax,
    Simpson index, unigram entropy)."""
    text = b["text"].fillna("").str.strip().str.lower()
    d = pd.DataFrame({"source": b["source"], "toks": text.str.split()})
    d = d[text != ""]
    e = d.explode("toks")
    out = (e.groupby(["source", "toks"], as_index=False)
           .size().rename(columns={"size": "c", "toks": "term"}))
    return out[["source", "term", "c"]]


def q_docs_simpson(sf_dir: str, n_buckets: int = 64):
    """SIMPSON REPETITION INDEX per source — the lexical-concentration
    audit that complements q_docs_hapax (tail richness) with HEAD
    concentration: D = Σ c(c−1) / (N(N−1)) is the probability two
    random tokens are the same term (templated corpora score high,
    natural text low). Reported as the PURE-INTEGER numerator
    ``rep_pairs`` = Σ_terms c(c−1) plus N; D is the reader's one
    division away. Tokenization is the corpus convention (the
    docs_hapax partial).

    Scale shape: per-batch (source, term, c) partials complete in ONE
    term-hash bucket exchange; each bucket emits per-source scalar
    partials only. c(c−1) grows quadratically — a stopword with 3e9
    occurrences wraps int64 — so bucket partials travel as DECIMAL
    STRINGS (the events_spearman fix) and the driver merges Python
    ints; only the final int64 OUTPUT is guarded with a loud
    ValueError."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"),
                                 columns=["source", "text"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby(["source", "term"], as_index=False)
             .agg(c=("c", "sum")))
        rows = []
        for src, gs in m.groupby("source"):
            cs = [int(v) for v in gs["c"]]
            rows.append((src, str(sum(cs)),
                         str(sum(c * (c - 1) for c in cs))))
        return pd.DataFrame(rows, columns=["source", "nt", "rp"])

    parts = bucket_group_map(
        docs.map_batches(_source_term_partial, batch_format="pandas"),
        key_buckets("term", n_buckets), fold,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "source": pd.Series([], dtype="object"),
            "n_tokens": pd.Series([], dtype="int64"),
            "rep_pairs": pd.Series([], dtype="int64"),
        })
    rows = []
    for src, g in parts.groupby("source"):
        nt = sum(int(v) for v in g["nt"])
        rp = sum(int(v) for v in g["rp"])
        if max(nt, rp) >= 1 << 62:
            raise ValueError(
                "docs_simpson int64 output bound exceeded — ship the "
                "output columns as decimal strings at this scale")
        rows.append((src, nt, rp))
    return (pd.DataFrame(rows, columns=["source", "n_tokens",
                                        "rep_pairs"])
            .astype({"n_tokens": "int64", "rep_pairs": "int64"})
            .sort_values("source").reset_index(drop=True))


def q_events_theilsen(sf_dir: str):
    """THEIL–SEN ROBUST TREND per event type over the daily-spend
    series: the median of all pairwise slopes (x_j − x_i)/(day_j −
    day_i) — the outlier-proof companion of q_events_mann_kendall
    (MK decides IF there is a trend, Theil–Sen says how steep). The
    median slope is reported as the EXACT INTEGER PAIR (med_dy,
    med_dx) of the lower-median pair under the mirrored ordering
    (slope as one IEEE double division of exactly-cast int64s, ties
    broken by (dy, dx)) — both sides select the identical element, no
    float ever aggregates.

    Scale shape: daily cents totals are decomposable per-batch
    partials (≤ |types|×|days| rows per batch, Python-int merged);
    the C(d,2) pairwise slopes live on the BOUNDED day axis (the
    Mann–Kendall argument). Types with < 2 observed days drop (no
    pairs — both sides)."""
    m = _daily_cents_by_type(sf_dir)
    rows = []
    for et, g in m.groupby("t"):
        g = g.sort_values("day")
        days = [int(v) for v in g["day"]]
        xs = [int(v) for v in g["xc"]]
        d = len(days)
        if d < 2:
            continue
        pairs = []
        for i in range(d):
            for j in range(i + 1, d):
                dy, dx = xs[j] - xs[i], days[j] - days[i]
                pairs.append((float(dy) / float(dx), dy, dx))
        pairs.sort()
        k = (len(pairs) + 1) // 2 - 1  # lower median, 0-indexed
        _, dy, dx = pairs[k]
        rows.append((et, len(pairs), dy, dx))
    return (pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                        "med_dy", "med_dx"])
            .astype({"n_pairs": "int64", "med_dy": "int64",
                     "med_dx": "int64"})
            .sort_values("event_type").reset_index(drop=True))


def q_events_holt(sf_dir: str):
    """HOLT'S LINEAR-TREND SMOOTHING (α = β = 1/2) of daily spend in
    EXACT integer cents — the trend-aware upgrade of q_events_ses:
    l_t = (x_t + l_{t−1} + b_{t−1}) div 2,
    b_t = (l_t − l_{t−1} + b_{t−1}) div 2, with div = TRUNCATION
    toward zero (DuckDB's `//` truncates and its `%` is C-style —
    measured, NOT floor like Python — so the engine mirrors truncation
    via sign-magnitude |v|//2). Integer recurrences make the
    sequential smoother bitwise-reproducible; the oracle is a
    recursive CTE with the identical truncating halvings.

    Scale shape: day totals are decomposable exact-cents partials; the
    recurrence runs once over the BOUNDED day axis on the driver (the
    q_events_ses argument)."""
    import numpy as np

    us_per_day = np.int64(86_400_000_000)
    m = _daily_cents(sf_dir)
    lev, tr, out = None, 0, []
    for _, row in m.iterrows():
        x = int(row["xc"])
        if lev is None:
            lev, tr = x, 0
        else:
            prev = lev
            lev = _tdiv2(x + prev + tr)
            tr = _tdiv2(lev - prev + tr)
        out.append((int(row["day"]), x, lev, tr))
    df = pd.DataFrame(out, columns=["day", "day_cents", "level_cents",
                                    "trend_cents"])
    df["day"] = pd.to_datetime(df["day"].to_numpy(dtype=np.int64)
                               * us_per_day, unit="us")
    return df.astype({"day_cents": "int64", "level_cents": "int64",
                      "trend_cents": "int64"})


def q_part_closeness(sf_dir: str):
    """K-SOURCE CLOSENESS CENTRALITY over the part co-purchase graph:
    for each of the 4 smallest size-1 partkeys, the number of parts
    reached within 3 hops and the total hop distance — closeness
    c(s) = n_reached/total_dist is the reader's one division away.
    Ninth graph-family member: the sampled-source distance-sum
    statistic next to betweenness' sampled dependency sums (the
    standard k-source estimator at web scale, where exact all-pairs
    closeness is quadratic).

    Each sweep is :func:`htmlparsersharp_ray.stages.graph.bfs_hops` —
    the bounded-frontier blob-exchange propagation, bitwise-exact —
    run per source over ONE checkpointed edge build (k sequential
    sweeps; a production k in the hundreds would batch sources per
    sweep the way betweenness does). Integer mins/sums only, so the
    result is hash-exact vs a per-source bounded recursive CTE."""
    from ..stages.exchange import checkpoint
    from ..stages.graph import bfs_hops, group_cooccurrence_edges

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = checkpoint(
        group_cooccurrence_edges(li, "l_orderkey", "l_partkey"))

    pt = ray.data.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    keys = (pt.filter(lambda r: r["p_size"] == 1)
            .to_pandas()["p_partkey"].astype("int64"))
    sources = sorted(int(v) for v in keys)[:4]

    rows = []
    for s in sources:
        src_ds = ray.data.from_items([{"node": s}])
        out = bfs_hops(edges, src_ds, max_hops=3).to_pandas()
        n_reached = int(len(out)) - 1  # exclude the source itself
        total = int(sum(int(h) for h in out["hops"]))
        rows.append((s, n_reached, total))
    return (pd.DataFrame(rows, columns=["source", "n_reached",
                                        "total_dist"])
            .astype({"source": "int64", "n_reached": "int64",
                     "total_dist": "int64"})
            .sort_values("source").reset_index(drop=True))


def q_embeddings_silhouette(sf_dir: str):
    """SIMPLIFIED SILHOUETTE per label over the embedding table — the
    cluster-quality diagnostic (are the labeled clusters actually
    separated?): for every vector, a = squared distance to its OWN
    label centroid, b = min squared distance to any OTHER centroid,
    s = (b − a)/max(a, b) ∈ [−1, 1]. Centroid-based ("simplified")
    silhouette is the standard linear-time variant of the quadratic
    pairwise definition.

    INTEGER-exact: components and centroids live on the 2^20
    fixed-point grid (the nearest-centroid construction), distances
    are int64 sums, and each row's s is floored at 2^10 via the
    sign-magnitude divmod identity trunc(|x|·1024/y) = (|x|//y)·1024 +
    ((|x|%y)·1024)//y (nonneg operands only — DuckDB `//`/`%`
    truncate) so the per-label SUM of s_scaled is an order-independent
    integer. int64 bound: (|x| % y)·1024 needs max dist < 9e15 —
    ~unit-norm embeddings at d=64 sit near 8e13; guarded loud.

    Scale shape: ZERO exchanges — per-batch (label, dim) centroid
    partials driver-merged, the k×d grid ships in the scoring task's
    closure, and scoring is one map-only pass emitting per-label
    scalar partials."""
    import numpy as np

    SCALE = np.float64(1 << 20)
    K = np.int64(1 << 10)

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "label", "embedding"])

    def train_partial(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        v = np.rint(mat * SCALE).astype(np.int64)
        codes, uniq = pd.factorize(b["label"].to_numpy())
        n_l, d = len(uniq), mat.shape[1]
        sums = np.zeros((n_l, d), dtype=np.int64)
        np.add.at(sums, codes, v)
        counts = np.bincount(codes, minlength=n_l).astype(np.int64)
        return pd.DataFrame({
            "label": np.repeat(uniq.astype(np.int64), d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n_l),
            "n": np.repeat(counts, d),
            "s": sums.ravel(),
        })

    parts = ds.map_batches(train_partial, batch_format="pandas").to_pandas()
    # guard BEFORE the groupby: Ray's all-empty to_pandas() loses the
    # columns, so an empty table would KeyError on "label"
    if len(parts) == 0:
        return pd.DataFrame({
            "label": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "s_scaled_sum": pd.Series([], dtype="int64"),
        })
    agg = parts.groupby(["label", "dim"], as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    labels = np.sort(agg["label"].unique()).astype(np.int64)
    if len(labels) < 2:
        return pd.DataFrame({
            "label": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "s_scaled_sum": pd.Series([], dtype="int64"),
        })
    d = int(agg["dim"].max()) + 1
    qc = np.zeros((len(labels), d), dtype=np.int64)
    lpos = {int(l): i for i, l in enumerate(labels)}
    qc[[lpos[int(l)] for l in agg["label"]], agg["dim"].to_numpy()] = \
        np.rint(agg["s"].to_numpy().astype(np.float64)
                / agg["n"].to_numpy().astype(np.float64)).astype(np.int64)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vq = np.rint(mat * SCALE).astype(np.int64)
        diff = vq[:, None, :] - qc[None, :, :]
        dist = np.einsum("ijk,ijk->ij", diff, diff)  # int64-exact
        own_idx = np.asarray([lpos[int(l)] for l in b["label"]],
                             dtype=np.int64)
        rows = np.arange(len(b))
        a2 = dist[rows, own_idx]
        masked = dist.copy()
        masked[rows, own_idx] = np.iinfo(np.int64).max
        b2 = masked.min(axis=1)
        x = b2 - a2
        y = np.maximum(a2, b2)
        if int(y.max(initial=0)) >= (1 << 63) // int(K):
            raise ValueError(
                "embeddings_silhouette distance exceeds the 2^10 "
                "divmod headroom — lower the component grid or the "
                "s_scaled precision at this scale")
        sgn = np.sign(x)
        ax = np.abs(x)
        s_sc = np.zeros(len(b), dtype=np.int64)
        nz = y > 0
        s_sc[nz] = sgn[nz] * ((ax[nz] // y[nz]) * K
                              + ((ax[nz] % y[nz]) * K) // y[nz])
        out = pd.DataFrame({"label": b["label"].to_numpy()
                            .astype(np.int64),
                            "s_sc": s_sc, "one": 1})
        return (out.groupby("label", as_index=False)
                .agg(n=("one", "sum"), s_scaled_sum=("s_sc", "sum")))

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    out = _pysum_cols(out, ["n", "s_scaled_sum"])
    m = (out.groupby("label", as_index=False)
         .agg(n=("n", "sum"), s_scaled_sum=("s_scaled_sum", "sum")))
    m["n"] = [int(v) for v in m["n"]]
    m["s_scaled_sum"] = [int(v) for v in m["s_scaled_sum"]]
    return (m.astype({"label": "int64", "n": "int64",
                      "s_scaled_sum": "int64"})
            .sort_values("label").reset_index(drop=True))


def q_events_markov_entropy(sf_dir: str):
    """MARKOV ENTROPY RATE per preceding event type — "how predictable
    is the next action given the last one": H(next | prev=p) =
    Σ_next (c/r)·ln(r/c) over the corpus transition counts, reported
    as a FIXED-POINT floor-then-sum at 2^30 per cell (the
    events_mutual_info discipline: integer partials commute, so the
    float-derived sum is order-independent; c and r are int64 whose
    DOUBLE casts are correctly rounded on both sides, so no `_h2d`
    split is needed — there are no products).

    Scale shape: transition counts come from q_events_transitions'
    bucketed lag machinery (ONE user-hash exchange, ≤ |types|² partial
    rows per bucket); the entropy fold runs over the bounded
    |types|² cell table driver-side."""
    import math

    counts = q_events_transitions(sf_dir)
    rows = []
    for prev, g in counts.groupby("prev_type"):
        cs = [int(v) for v in g["n"]]
        r = sum(cs)
        scaled = 0
        for c in cs:
            term = (float(c) / float(r)) * math.log(float(r) / float(c))
            scaled += math.floor(term * 1073741824.0)
        rows.append((prev, r, len(cs), scaled))
    return (pd.DataFrame(rows, columns=["prev_type", "n_out",
                                        "n_next", "h_scaled"])
            .astype({"n_out": "int64", "n_next": "int64",
                     "h_scaled": "int64"})
            .sort_values("prev_type").reset_index(drop=True))


def q_customer_lorenz(sf_dir: str):
    """GINI COEFFICIENT of customer revenue — the inequality audit
    behind every "whale concentration" dashboard (customer_pareto
    reports the 80%-prefix; this is the full Lorenz-curve summary).
    Reported as PURE INTEGERS: n_customers, sum_cents, and gini_num =
    Σ_{i≠j} |rev_i − rev_j| (G = gini_num / (2·n·sum) is the reader's
    one division). The pairwise-absolute-difference sum collapses to
    Σ_values c·(v·C_below − S_below) ×2 over the ordered value
    histogram, so no pair ever materializes.

    Scale shape (the events_kruskal discipline — the driver never
    holds the value histogram): (1) per-customer exact revenue inside
    ONE custkey-hash exchange (a customer owns one bucket), emitted as
    (value, count) histogram partials; (2) value-RANGE buckets by high
    bits (a value owns one bucket) fold their distinct-value cells
    with EXACT Python ints against driver-held (C_below, S_below)
    offsets (≤1024 scalars) and emit ONE decimal-string partial each
    (v·C products cross int64 at whale scale — exactness over
    vectorization; cells are distinct VALUES, not rows). int64 OUTPUT
    bound guarded loud."""
    import numpy as np

    from ..stages.exchange import checkpoint

    ds = ray.data.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    nb = auto_buckets(ds)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].to_numpy() * 100).astype("int64")
        d = pd.DataFrame({"c": b["o_custkey"].to_numpy(), "v": cents})
        return d.groupby("c", as_index=False)["v"].sum()

    def per_customer(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("c", as_index=False)["v"].sum()
        return (m.groupby("v", as_index=False).size()
                .rename(columns={"size": "cnt"}))

    hist = checkpoint(bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("c", nb), per_customer))
    max_v = hist.max("v")
    if max_v is None:
        return pd.DataFrame({
            "n_customers": pd.Series([], dtype="int64"),
            "sum_cents": pd.Series([], dtype="int64"),
            "gini_num": pd.Series([], dtype="int64"),
        })
    shift = max(0, int(max_v).bit_length() - 10)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("v", as_index=False).agg(cnt=("cnt", "sum"))

    bucketed = checkpoint(
        bucket_group_map(hist, _high_bits("v", shift), merge_bucket))

    # per-range-bucket totals as decimal strings -> exact offsets
    def rb_tot(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        rb_of = b["v"].to_numpy(dtype=np.int64) >> np.int64(shift)
        for rb, g in b.groupby(rb_of):
            rows.append((int(rb),
                         str(sum(int(x) for x in g["cnt"])),
                         str(sum(int(v) * int(c)
                                 for v, c in zip(g["v"], g["cnt"])))))
        return pd.DataFrame(rows, columns=["rb", "n", "s"])

    tot = (bucketed.map_batches(rb_tot, batch_format="pandas")
           .to_pandas())
    agg = {}
    for _, row in tot.iterrows():
        rb = int(row["rb"])
        n0, s0 = agg.get(rb, (0, 0))
        agg[rb] = (n0 + int(row["n"]), s0 + int(row["s"]))
    off_n, off_s, accn, accs = {}, {}, 0, 0
    for rb in sorted(agg):
        off_n[rb] = accn
        off_s[rb] = accs
        accn += agg[rb][0]
        accs += agg[rb][1]

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["v"].iloc[0]) >> shift
        m = g.sort_values("v")
        cb, sb, part = off_n[rb], off_s[rb], 0
        for v, c in zip(m["v"], m["cnt"]):
            v, c = int(v), int(c)
            part += c * (v * cb - sb)
            cb += c
            sb += v * c
        return pd.DataFrame({"p": pd.Series([str(part)],
                                            dtype="object")})

    parts = bucket_group_map(
        bucketed, _high_bits("v", shift), finalize).to_pandas()
    gini2 = sum(int(v) for v in parts["p"])
    n, s = accn, accs
    gnum = 2 * gini2
    if max(s, gnum) >= 1 << 62:
        raise ValueError(
            "customer_lorenz int64 output bound exceeded — ship "
            "sum_cents/gini_num as decimal strings at this scale")
    return pd.DataFrame({
        "n_customers": pd.Series([n], dtype="int64"),
        "sum_cents": pd.Series([s], dtype="int64"),
        "gini_num": pd.Series([gnum], dtype="int64"),
    })


def q_part_rich_club(sf_dir: str):
    """RICH-CLUB PROFILE of the part co-purchase graph: for each degree
    threshold k ∈ {4, 8, 16, 32, 64}, the number of nodes with degree
    > k and the number of (undirected) edges with BOTH endpoints above
    the threshold — φ(k) = 2·E_k/(N_k(N_k−1)) is the reader's one
    division away. Tenth graph-family member: the hub-interconnection
    audit (do popular parts co-sell with each other, or only with the
    tail?).

    Scale shape: degrees from ONE bucketed exchange over the distinct
    directed edge set; edge thresholding via TWO `hash_join`s (deg onto
    src, deg onto dst — auto-sized buckets, no broadcast node state);
    the final fold merges |K| scalar partials per batch. Integer
    counts only — hash-exact vs the SQL degree join."""
    import numpy as np

    from ..stages.exchange import checkpoint
    from ..stages.graph import group_cooccurrence_edges
    from .joins import hash_join

    KS = (4, 8, 16, 32, 64)
    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = checkpoint(
        group_cooccurrence_edges(li, "l_orderkey", "l_partkey"))
    nb = auto_buckets(edges)

    def deg_partial(b: pa.Table) -> pa.Table:
        src = b.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(src, return_counts=True)
        return pa.table({"node": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    def deg_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False).agg(deg=("c", "sum"))
        return out.astype({"node": "int64", "deg": "int64"})

    degs = checkpoint(bucket_group_map(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        key_buckets("node", nb), deg_fold))

    # N_k partials from the degree table
    def node_counts(b: pd.DataFrame) -> pd.DataFrame:
        d = b["deg"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "k": np.asarray(KS, dtype=np.int64),
            "n_nodes": np.asarray([(d > k).sum() for k in KS],
                                  dtype=np.int64),
            "n_edges": 0})

    nparts = degs.map_batches(node_counts,
                              batch_format="pandas").to_pandas()

    ds_src = degs.map_batches(
        lambda b: b.rename(columns={"node": "src", "deg": "deg_s"})
        [["src", "deg_s"]], batch_format="pandas")
    e1 = hash_join(edges, ds_src, left_on="src", right_on="src")
    ds_dst = degs.map_batches(
        lambda b: b.rename(columns={"node": "dst", "deg": "deg_d"})
        [["dst", "deg_d"]], batch_format="pandas")
    e2 = hash_join(e1, ds_dst, left_on="dst", right_on="dst")

    def edge_counts(b: pd.DataFrame) -> pd.DataFrame:
        s = b["deg_s"].to_numpy(dtype=np.int64)
        d = b["deg_d"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "k": np.asarray(KS, dtype=np.int64),
            "n_nodes": 0,
            "n_edges": np.asarray(
                [((s > k) & (d > k)).sum() for k in KS],
                dtype=np.int64)})

    eparts = e2.map_batches(edge_counts,
                            batch_format="pandas").to_pandas()
    m = pd.concat([nparts, eparts], ignore_index=True)
    m = _pysum_cols(m, ["n_nodes", "n_edges"])
    out = (m.groupby("k", as_index=False)
           .agg(n_nodes=("n_nodes", "sum"), n_edges=("n_edges", "sum")))
    out["n_nodes"] = [int(v) for v in out["n_nodes"]]
    # directed both-ways edge set -> undirected count
    out["n_edges"] = [int(v) // 2 for v in out["n_edges"]]
    return (out.astype({"k": "int64", "n_nodes": "int64",
                        "n_edges": "int64"})
            .sort_values("k").reset_index(drop=True))


def q_docs_burstiness(sf_dir: str, n_buckets: int = 64):
    """TERM BURSTINESS census over the global top-32 terms: total
    count, document frequency, and Σ per-doc-count² — the
    variance-to-mean ("is this term spread evenly or does it clump in
    few docs") that separates topical terms from function words; the
    burstiness index B = (c2/c − c/df)·… is the reader's arithmetic
    away, every reported number is an exact integer.

    Scale shape: a doc is one row, so per-batch (term, Σc, Σc², df)
    partials are complete per doc; ONE term-hash exchange completes
    them globally, and each bucket emits only its OWN top-32 by
    (count desc, term asc) — buckets partition terms, so the global
    top-32 is exactly contained in the ≤ 32·n_buckets candidate rows
    the driver merges. Σc² wraps int64 near 3e9-occurrence stopwords,
    so it travels as a DECIMAL STRING (the docs_simpson fix); final
    output int64-guarded."""
    import numpy as np

    docs = ray.data.read_parquet(_t(sf_dir, "documents"),
                                 columns=["doc_id", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"].fillna("").str.strip().str.lower()
        d = pd.DataFrame({"doc_id": b["doc_id"],
                          "toks": text.str.split()})
        d = d[text != ""]
        e = d.explode("toks")
        m = (e.groupby(["doc_id", "toks"], as_index=False)
             .size().rename(columns={"size": "c", "toks": "term"}))
        m["c2"] = m["c"].to_numpy(dtype=np.int64) ** 2
        out = m.groupby("term", as_index=False).agg(
            c=("c", "sum"), c2=("c2", "sum"), df=("c", "size"))
        out["df"] = out["df"].astype("int64")
        return out[["term", "c", "c2", "df"]]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for term, gt in g.groupby("term"):
            rows.append((term,
                         sum(int(v) for v in gt["c"]),
                         str(sum(int(v) for v in gt["c2"])),
                         sum(int(v) for v in gt["df"])))
        m = pd.DataFrame(rows, columns=["term", "c", "c2s", "df"])
        m = m.sort_values(["c", "term"],
                          ascending=[False, True]).head(32)
        return m

    parts = bucket_group_map(
        docs.map_batches(partial, batch_format="pandas"),
        key_buckets("term", n_buckets), fold,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "term": pd.Series([], dtype="object"),
            "total_count": pd.Series([], dtype="int64"),
            "doc_freq": pd.Series([], dtype="int64"),
            "sumsq": pd.Series([], dtype="int64"),
        })
    parts = parts.sort_values(["c", "term"],
                              ascending=[False, True]).head(32)
    rows = []
    for _, row in parts.iterrows():
        c2 = int(row["c2s"])
        if c2 >= 1 << 62:
            raise ValueError(
                "docs_burstiness int64 output bound exceeded — ship "
                "sumsq as a decimal string at this scale")
        rows.append((row["term"], int(row["c"]), int(row["df"]), c2))
    return (pd.DataFrame(rows, columns=["term", "total_count",
                                        "doc_freq", "sumsq"])
            .astype({"total_count": "int64", "doc_freq": "int64",
                     "sumsq": "int64"})
            .sort_values("term").reset_index(drop=True))


def q_events_survival(sf_dir: str):
    """KAPLAN–MEIER SURVIVAL TABLE for signup→purchase conversion —
    the time-to-event family (how long until a signed-up user first
    purchases, with users who never purchase right-censored at the
    corpus horizon). Per event time t (days): the risk set n_t =
    #users with duration ≥ t, the event count d_t, and the cumulative
    log-survival Σ_{t'≤t} ⌊ln((n−d)/n)·2^30⌋ (floor-then-sum per
    step in time order — deterministic; the KM estimate Ŝ(t) =
    exp(cum/2^30) is the reader's one exp away; degenerate n=d steps
    contribute 0 to the reported sum — the n/d columns carry the
    truth). KM convention: ties at t put events before censorings, so
    censored-at-t users sit in the risk set.

    Scale shape: durations form inside ONE user-hash exchange (a user
    owns one bucket: its signup min and first-qualifying-purchase min
    are bucket-local); each bucket emits a (duration, event) HISTOGRAM
    partial, so the driver folds a day-span-bounded table, never
    user-scale rows. The censor horizon is one pruned single-column
    max."""
    import math

    import numpy as np

    ds = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts"])
    tmax = ds.max("ts")
    if tmax is None:
        return pd.DataFrame({
            "t_day": pd.Series([], dtype="int64"),
            "n_risk": pd.Series([], dtype="int64"),
            "d_event": pd.Series([], dtype="int64"),
            "cum_ls_scaled": pd.Series([], dtype="int64"),
        })
    us_per_day = 86_400_000_000
    tmax_day = int(pd.Timestamp(tmax).value // 1000) // us_per_day

    def keep_sp(b: pa.Table) -> pa.Table:
        t = b.column("event_type")
        m = pc.or_(pc.equal(t, pa.scalar("signup")),
                   pc.equal(t, pa.scalar("purchase")))
        return b.filter(m)

    sp = ds.map_batches(keep_sp, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        day = (g["ts"].to_numpy(dtype="datetime64[us]")
               .astype(np.int64) // np.int64(us_per_day))
        g = pd.DataFrame({"u": g["user_id"].to_numpy(),
                          "t": g["event_type"].to_numpy(),
                          "ts": g["ts"].to_numpy(), "day": day})
        s = (g[g["t"] == "signup"].groupby("u", as_index=False)
             .agg(t0=("ts", "min"), d0=("day", "min")))
        p = g[g["t"] == "purchase"].merge(s, on="u")
        p = p[p["ts"] >= p["t0"]]
        pp = p.groupby("u", as_index=False).agg(dp=("day", "min"))
        m = s.merge(pp, on="u", how="left")
        ev = m["dp"].notna()
        dur = np.where(ev, m["dp"].fillna(0).to_numpy(dtype=np.int64)
                       - m["d0"].to_numpy(dtype=np.int64),
                       np.int64(tmax_day)
                       - m["d0"].to_numpy(dtype=np.int64))
        out = (pd.DataFrame({"dur": dur.astype(np.int64),
                             "ev": ev.astype(np.int64), "c": 1})
               .groupby(["dur", "ev"], as_index=False)["c"].sum())
        return out

    parts = bucket_group_map(
        sp, key_buckets("user_id", auto_buckets(ds)), fold).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "t_day": pd.Series([], dtype="int64"),
            "n_risk": pd.Series([], dtype="int64"),
            "d_event": pd.Series([], dtype="int64"),
            "cum_ls_scaled": pd.Series([], dtype="int64"),
        })
    parts = _pysum_cols(parts, ["c"])
    hist = parts.groupby(["dur", "ev"], as_index=False).agg(
        c=("c", "sum"))
    total = sum(int(v) for v in hist["c"])
    rows, before, cum = [], 0, 0
    for dur in sorted(int(v) for v in hist["dur"].unique()):
        g = hist[hist["dur"] == dur]
        at_t = sum(int(v) for v in g["c"])
        d_event = sum(int(v) for v in g[g["ev"] == 1]["c"])
        n_risk = total - before
        if n_risk > d_event:
            cum += math.floor(
                math.log(float(n_risk - d_event) / float(n_risk))
                * 1073741824.0)
        if d_event > 0:
            rows.append((dur, n_risk, d_event, cum))
        before += at_t
    return (pd.DataFrame(rows, columns=["t_day", "n_risk", "d_event",
                                        "cum_ls_scaled"])
            .astype({"t_day": "int64", "n_risk": "int64",
                     "d_event": "int64", "cum_ls_scaled": "int64"}))


def q_embeddings_cv(sf_dir: str, n_folds: int = 5):
    """K-FOLD CROSS-VALIDATION of the nearest-centroid classifier —
    the model-selection loop every training pipeline runs: folds are
    vec_id % 5, each fold is scored by centroids trained on the OTHER
    four, and the report is per-fold (n_test, n_correct) integer
    counts. INTEGER-exact end to end (the `_nc_predictions`
    discipline: 2^20 grid, one mirrored centroid division per
    (fold, label, dim), int64 distances, ties to the smaller label),
    so the accuracy table is bitwise-deterministic at any parallelism.

    Scale shape: ZERO exchanges. One pass of per-batch (fold, label,
    dim) moment partials (a row TRAINS every fold but its own, so
    fold-f centroids are TOTALS MINUS fold-f partials — one partial
    set serves all folds); the folds×k×d grid ships in the scoring
    task's closure; scoring emits per-fold scalar partials."""
    import numpy as np

    SCALE = np.float64(1 << 20)

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "label", "embedding"])

    def train_partial(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        v = np.rint(mat * SCALE).astype(np.int64)
        fold = (b["vec_id"].to_numpy() % n_folds).astype(np.int64)
        lab = b["label"].to_numpy().astype(np.int64)
        d = mat.shape[1]
        frames = []
        for f in range(n_folds):
            m = fold == f
            if not m.any():
                continue
            codes, uniq = pd.factorize(lab[m])
            sums = np.zeros((len(uniq), d), dtype=np.int64)
            np.add.at(sums, codes, v[m])
            counts = np.bincount(codes,
                                 minlength=len(uniq)).astype(np.int64)
            frames.append(pd.DataFrame({
                "fold": np.int64(f),
                "label": np.repeat(uniq, d),
                "dim": np.tile(np.arange(d, dtype=np.int64),
                               len(uniq)),
                "n": np.repeat(counts, d),
                "s": sums.ravel(),
            }))
        if not frames:
            return pd.DataFrame({
                "fold": pd.Series([], dtype="int64"),
                "label": pd.Series([], dtype="int64"),
                "dim": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "s": pd.Series([], dtype="int64"),
            })
        return pd.concat(frames, ignore_index=True)

    parts = (ds.map_batches(train_partial, batch_format="pandas")
             .to_pandas())
    if len(parts) == 0:
        return pd.DataFrame({
            "fold": pd.Series([], dtype="int64"),
            "n_test": pd.Series([], dtype="int64"),
            "n_correct": pd.Series([], dtype="int64"),
        })
    parts = _pysum_cols(parts, ["n", "s"])
    pf = parts.groupby(["fold", "label", "dim"], as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    tot = pf.groupby(["label", "dim"], as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    d = int(tot["dim"].max()) + 1
    # per-fold centroid grids: totals minus the fold's own partials
    grids, fold_labels = {}, {}
    tot_idx = {(int(l), int(dd)): (int(n), int(s))
               for l, dd, n, s in zip(tot["label"], tot["dim"],
                                      tot["n"], tot["s"])}
    pf_idx = {}
    for f, l, dd, n, s in zip(pf["fold"], pf["label"], pf["dim"],
                              pf["n"], pf["s"]):
        pf_idx[(int(f), int(l), int(dd))] = (int(n), int(s))
    all_labels = sorted(set(int(l) for l in tot["label"]))
    for f in range(n_folds):
        labs = []
        for l in all_labels:
            n_tot = tot_idx[(l, 0)][0]
            n_f = pf_idx.get((f, l, 0), (0, 0))[0]
            if n_tot - n_f > 0:
                labs.append(l)
        fold_labels[f] = np.asarray(labs, dtype=np.int64)
        qc = np.zeros((len(labs), d), dtype=np.int64)
        for i, l in enumerate(labs):
            for dd in range(d):
                n_tot, s_tot = tot_idx[(l, dd)]
                n_f, s_f = pf_idx.get((f, l, dd), (0, 0))
                qc[i, dd] = int(np.rint(float(s_tot - s_f)
                                        / float(n_tot - n_f)))
        grids[f] = qc

    def score(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vq = np.rint(mat * SCALE).astype(np.int64)
        fold = (b["vec_id"].to_numpy() % n_folds).astype(np.int64)
        lab = b["label"].to_numpy().astype(np.int64)
        rows = []
        for f in range(n_folds):
            m = fold == f
            if not m.any() or len(fold_labels[f]) == 0:
                continue
            diff = vq[m][:, None, :] - grids[f][None, :, :]
            dist = np.einsum("ijk,ijk->ij", diff, diff)
            pred = fold_labels[f][np.argmin(dist, axis=1)]
            rows.append((f, int(m.sum()),
                         int((pred == lab[m]).sum())))
        return pd.DataFrame(rows, columns=["fold", "n_test",
                                           "n_correct"])

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    out = _pysum_cols(out, ["n_test", "n_correct"])
    m = (out.groupby("fold", as_index=False)
         .agg(n_test=("n_test", "sum"),
              n_correct=("n_correct", "sum")))
    m["n_test"] = [int(v) for v in m["n_test"]]
    m["n_correct"] = [int(v) for v in m["n_correct"]]
    return (m.astype({"fold": "int64", "n_test": "int64",
                      "n_correct": "int64"})
            .sort_values("fold").reset_index(drop=True))


def _check_exact_matmul(x, op_name: str) -> None:
    """Guard for the float64-matmul-as-exact-integers trick (TwoNN /
    kNN classifier / outlier kernels): squared distances are computed
    as bn + rn - 2*(bx @ rx.T), which is exact ONLY while every
    intermediate stays an integer-representable double. With d columns
    and components bounded by M, dot partials reach d*M^2 and the
    norm-sum intermediate 2*d*M^2 — so the requirement is
    d*M^2 < 2^52 (the review-tightened bound; the old 2^24 component
    cap admitted sums past 2^53 at d = 64, where ULP rounding would
    silently break bitwise oracle equality)."""
    import numpy as np

    d = x.shape[1] if x.ndim == 2 else 1
    m = float(np.abs(x).max(initial=0.0))
    if d * m * m >= float(1 << 52):
        raise ValueError(
            f"{op_name}: component magnitude {m:.3g} at d={d} breaks "
            "the exact-float64-matmul bound (d*M^2 < 2^52) — rescale "
            "the fixed-point grid at this scale")


def q_embeddings_twonn(sf_dir: str):
    """TWO-NN INTRINSIC DIMENSION statistic (Facco et al. 2017) — the
    manifold-dimension probe used to audit embedding quality before
    LID-based filtering: for every vector, μ = d2/d1 over its two
    nearest neighbors; d̂ = n / Σ ln μ is the reader's one division.
    Reported as exact integers: n_used, n_dups (d1 = 0 rows excluded
    — exact duplicates carry no ratio), and Σ ⌊ln(d2/d1)·2^30⌋
    (floor-then-sum per point — order-independent; d1, d2 are int64
    squared distances on the 2^20 grid whose DOUBLE casts and ratio
    are one mirrored expression; the /2 from squared distances is the
    reader's constant).

    Scale shape (round 4, the kNN-classifier pattern): EXACT
    block-streamed scan — the corpus stays a materialized Dataset whose
    Arrow block refs the scoring actors stream one at a time with a
    bounded per-row two-smallest-distances pool (min-merge is
    order-independent, so the streamed d1/d2 are bitwise the global
    ones). No driver materialization, no broadcast matrix that grows
    with scale; same-node ray.get of a block is a zero-copy
    object-store read. The per-block kernel stays one float64 matmul
    whose integer partials stay < 2^52, hence EXACT; at corpus scale
    the candidate generation can also ride knn_graph_lsh with only the
    final top-2 re-verified exactly."""
    import numpy as np

    from ..stages.similarity import _batch_matrix

    SCALE = np.float64(1 << 20)

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    corpus = ds.map_batches(lambda t: t.sort_by("vec_id"),
                            batch_format="pyarrow").materialize()
    if corpus.count() < 3:
        return pd.DataFrame({
            "n_used": pd.Series([0], dtype="int64"),
            "n_dups": pd.Series([0], dtype="int64"),
            "sum_lnmu_scaled": pd.Series([0], dtype="int64"),
        })
    refs = corpus.to_arrow_refs()

    class Score:
        def __init__(self, refs):
            self.refs = refs
            from ..stages.similarity import DecodedBlockCache
            self.cache = DecodedBlockCache()

        def __call__(self, b: pa.Table) -> pd.DataFrame:
            bi = b.column("vec_id").to_numpy(
                zero_copy_only=False).astype(np.int64)
            bx = np.rint(np.asarray(
                b.column("embedding").to_pylist(), dtype=np.float64)
                * SCALE)
            bn = (bx * bx).sum(axis=1)
            n = len(bi)
            best = np.full((n, 2), np.inf)
            def _decode(r):
                t = ray.get(r)
                if t.num_rows == 0:
                    return (np.empty(0, np.int64), np.empty((0, 1)),
                            np.empty(0))
                r_ids, mat = _batch_matrix(t)
                rx = np.rint(mat * SCALE)
                _check_exact_matmul(rx, "embeddings_twonn")
                return (r_ids.astype(np.int64), rx,
                        (rx * rx).sum(axis=1))

            for ref in self.refs:
                r_ids, rx, rn = self.cache.get(
                    ref, lambda r=ref: _decode(r))
                if not len(r_ids):
                    continue
                d2m = bn[:, None] + rn[None, :] - 2.0 * (bx @ rx.T)
                # self-exclusion: block rows are id-sorted
                pos = np.searchsorted(r_ids, bi)
                ok = (pos < len(r_ids)) & (r_ids[np.minimum(
                    pos, len(r_ids) - 1)] == bi)
                d2m[np.nonzero(ok)[0], pos[ok]] = np.inf
                take = min(2, d2m.shape[1])
                blk = (np.partition(d2m, take - 1, axis=1)[:, :take]
                       if take > 1 else d2m)
                pool = np.concatenate([best, blk], axis=1)
                best = np.partition(pool, 1, axis=1)[:, :2]
            d1, d2 = best[:, 0], best[:, 1]
            used = d1 > 0
            # math.log, not np.log: the oracle's libm ln must be
            # mirrored bitwise (the events_mutual_info precedent);
            # np.log's SIMD path can differ by ULPs
            import math
            tsum = sum(math.floor(math.log(b_ / a_) * 1073741824.0)
                       for a_, b_ in zip(d1[used], d2[used]))
            return pd.DataFrame({
                "n_used": pd.Series([int(used.sum())], dtype="int64"),
                "n_dups": pd.Series([int((~used).sum())], dtype="int64"),
                "s": pd.Series([str(tsum)], dtype="object"),
            })

    parts = ds.map_batches(Score, fn_constructor_args=(refs,),
                           batch_format="pyarrow", batch_size=1024,
                           concurrency=(1, 4)).to_pandas()
    parts = _pysum_cols(parts, ["n_used", "n_dups"])
    total = sum(int(v) for v in parts["s"])
    if abs(total) >= 1 << 62:
        raise ValueError(
            "embeddings_twonn int64 output bound exceeded — ship "
            "sum_lnmu_scaled as a decimal string at this scale")
    return pd.DataFrame({
        "n_used": pd.Series([sum(int(v) for v in parts["n_used"])],
                            dtype="int64"),
        "n_dups": pd.Series([sum(int(v) for v in parts["n_dups"])],
                            dtype="int64"),
        "sum_lnmu_scaled": pd.Series([total], dtype="int64"),
    })


def q_docs_source_novelty(sf_dir: str, n: int = 8,
                          n_buckets: int = 64):
    """SOURCE NOVELTY audit: per source, its distinct word-8-gram
    count and how many of those grams appear in NO other source — the
    "is this feed adding anything" measurement a mixture designer
    reads next to docs_source_kl (vocabulary drift) and
    docs_dup_rate_by_source (within-corpus duplication). Gram identity
    is the dedup family's 64-bit token-window polynomial (collision
    odds ~G²/2⁶⁴ vs the oracle's string grams — the decontaminate
    precedent).

    Scale shape: per-batch DISTINCT (gram, source) rows bucket by GRAM
    hash, so "unique to one source" is decided inside one bounded
    bucket; buckets emit per-source scalar partials only (gram sets
    are bucket-disjoint, so counts are additive)."""
    import numpy as np

    from ..stages.dedup import _gram_hash_sets

    docs = ray.data.read_parquet(_t(sf_dir, "documents"),
                                 columns=["source", "text"])

    def emit(batch: pa.Table) -> pd.DataFrame:
        srcs = batch.column("source").to_pylist()
        sets = _gram_hash_sets(batch.column("text").to_pylist(), n)
        lens = np.array([len(s) for s in sets], dtype=np.int64)
        flat = (np.concatenate(sets) if lens.sum()
                else np.empty(0, dtype=np.int64))
        d = pd.DataFrame({
            "g": flat,
            "source": np.repeat(np.asarray(srcs, dtype=object), lens),
        }).drop_duplicates(["g", "source"])
        return d

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = g.drop_duplicates(["g", "source"])
        ns = m.groupby("g")["source"].transform("size")
        out = pd.DataFrame({"source": m["source"],
                            "novel": (ns == 1).astype(np.int64),
                            "one": 1})
        return (out.groupby("source", as_index=False)
                .agg(n_grams=("one", "sum"),
                     novel_grams=("novel", "sum")))

    parts = bucket_group_map(
        docs.map_batches(emit, batch_format="pyarrow"),
        key_buckets("g", n_buckets), fold,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "source": pd.Series([], dtype="object"),
            "n_grams": pd.Series([], dtype="int64"),
            "novel_grams": pd.Series([], dtype="int64"),
        })
    parts = _pysum_cols(parts, ["n_grams", "novel_grams"])
    out = (parts.groupby("source", as_index=False)
           .agg(n_grams=("n_grams", "sum"),
                novel_grams=("novel_grams", "sum")))
    for c in ("n_grams", "novel_grams"):
        out[c] = [int(v) for v in out[c]]
    return (out.astype({"n_grams": "int64", "novel_grams": "int64"})
            .sort_values("source").reset_index(drop=True))


def q_docs_unigram_entropy(sf_dir: str, n_buckets: int = 64):
    """SHANNON UNIGRAM ENTROPY per source — completes the
    lexical-diversity trio (q_docs_hapax measures the tail,
    q_docs_simpson the head, this the whole distribution): H =
    Σ_terms (c/N)·ln(N/c) as a FIXED-POINT floor-then-sum at 2^30 per
    (source, term) cell — integer partials commute across the
    term-hash buckets (the mutual-info discipline at vocabulary
    scale), and c/N casts are correctly rounded BIGINT→DOUBLE on both
    sides (no products, no hugeint split).

    Scale shape: pass 1 is a bounded per-source token-total scan
    (|sources| rows per batch); pass 2 is the hapax-style term-hash
    exchange whose buckets emit per-source integer partial sums only
    — the driver never sees a term-scale table."""
    import math

    from ..stages.exchange import checkpoint

    docs = ray.data.read_parquet(_t(sf_dir, "documents"),
                                 columns=["source", "text"])

    # ONE tokenization pass: the checkpointed term partials feed both
    # the per-source totals and the entropy fold (review fix — the
    # totals used to re-tokenize the whole corpus)
    parts_ds = checkpoint(
        docs.map_batches(_source_term_partial, batch_format="pandas"))

    def tot_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("source", as_index=False).agg(n=("c", "sum"))

    tot = (parts_ds.map_batches(tot_partial, batch_format="pandas")
           .to_pandas())
    if len(tot) == 0:
        return pd.DataFrame({
            "source": pd.Series([], dtype="object"),
            "n_tokens": pd.Series([], dtype="int64"),
            "vocab": pd.Series([], dtype="int64"),
            "h_scaled": pd.Series([], dtype="int64"),
        })
    tot = _pysum_cols(tot, ["n"])
    totals = {s: sum(int(v) for v in g["n"])
              for s, g in tot.groupby("source")}

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby(["source", "term"], as_index=False)
             .agg(c=("c", "sum")))
        rows = []
        for src, gs in m.groupby("source"):
            n = totals[src]
            h = 0
            for c in gs["c"]:
                c = int(c)
                h += math.floor((float(c) / float(n))
                                * math.log(float(n) / float(c))
                                * 1073741824.0)
            rows.append((src, len(gs), str(h)))
        return pd.DataFrame(rows, columns=["source", "vocab", "h"])

    parts = bucket_group_map(
        parts_ds, key_buckets("term", n_buckets), fold).to_pandas()
    rows = []
    for src, g in parts.groupby("source"):
        h = sum(int(v) for v in g["h"])
        vocab = sum(int(v) for v in g["vocab"])
        if abs(h) >= 1 << 62:
            raise ValueError(
                "docs_unigram_entropy int64 output bound exceeded — "
                "ship h_scaled as a decimal string at this scale")
        rows.append((src, totals[src], vocab, h))
    return (pd.DataFrame(rows, columns=["source", "n_tokens",
                                        "vocab", "h_scaled"])
            .astype({"n_tokens": "int64", "vocab": "int64",
                     "h_scaled": "int64"})
            .sort_values("source").reset_index(drop=True))


def q_events_changepoint(sf_dir: str):
    """BINARY-SEGMENTATION CHANGEPOINT over the daily-spend series —
    the global "when did behavior shift" detector next to
    q_events_cusum's per-user drift charts: the split index k
    maximizing the PURE-INTEGER CUSUM statistic |d·S_k − k·S_d| over
    prefix sums of exact cents (cross-multiplied — no mean, no float
    at the comparison; the classic max-|CUSUM| split). Ties break to
    the smallest k.

    Scale shape: day totals are decomposable exact-cents partials
    (the `_daily_cents` discipline); the argmax runs over the BOUNDED
    day axis with Python ints. int64 OUTPUT bound: d·S_k wraps past
    ~9e18/|days| total cents — guarded loud."""
    import numpy as np

    us_per_day = np.int64(86_400_000_000)
    m = _daily_cents(sf_dir)
    d = len(m)
    if d < 2:
        return pd.DataFrame({
            "split_day": pd.Series([], dtype="datetime64[us]"),
            "k_index": pd.Series([], dtype="int64"),
            "stat_num": pd.Series([], dtype="int64"),
            "n_days": pd.Series([], dtype="int64"),
            "total_cents": pd.Series([], dtype="int64"),
        })
    days = [int(v) for v in m["day"]]
    xs = [int(v) for v in m["xc"]]
    total = sum(xs)
    best_k, best_stat, acc = None, -1, 0
    for k in range(1, d):  # split AFTER the k-th day (1-based)
        acc += xs[k - 1]
        stat = abs(d * acc - k * total)
        if stat > best_stat:
            best_k, best_stat = k, stat
    if max(best_stat, abs(total)) >= 1 << 62:
        raise ValueError(
            "events_changepoint int64 output bound exceeded — ship "
            "stat_num as a decimal string at this scale")
    return pd.DataFrame({
        "split_day": pd.to_datetime(
            np.asarray([days[best_k - 1]], dtype=np.int64)
            * us_per_day, unit="us"),
        "k_index": pd.Series([best_k], dtype="int64"),
        "stat_num": pd.Series([best_stat], dtype="int64"),
        "n_days": pd.Series([d], dtype="int64"),
        "total_cents": pd.Series([total], dtype="int64"),
    })


def q_embeddings_knn_classifier(sf_dir: str, k: int = 5):
    """K-NEAREST-NEIGHBOR CLASSIFIER (k = 5, majority vote) — the
    nonparametric member of the classifier-eval family next to the
    nearest-centroid parametric one: every ODD vec_id is labeled by
    the majority vote of its 5 nearest EVEN vec_ids. INTEGER-exact:
    distances are int64 squared distances on the 2^20 grid, neighbor
    ties break to the smaller train id (stable argsort over id-sorted
    columns), vote ties to the smaller label — bitwise-deterministic
    and SQL-mirrorable with no float compare anywhere.

    Scale shape (VERDICT r3 item 4): EXACT block-streamed scan — the
    train side is a materialized Dataset whose Arrow block refs the
    classify actors stream one at a time with a bounded running top-k
    pool (concat 2k candidates, row-wise lexsort by (dist, id), keep
    k).  No driver materialization of the corpus, no broadcast of a
    matrix that grows with scale: each actor holds one train block +
    the (rows × k) pool, and same-node ray.get of a block is a
    zero-copy object-store read, so per-node traffic is one fetch per
    train block.  Exactness is why this (and not LSH candidates) is
    the graded path — the oracle is the true 5-NN vote, and LSH
    recall < 1 would hash-fail it; the approximate scale path is
    knn_graph_lsh, differential-gated in pytest."""
    import numpy as np

    from ..stages.similarity import _batch_matrix

    SCALE = np.float64(1 << 20)

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "label", "embedding"])

    def keep_even(t: pa.Table) -> pa.Table:
        keep = pc.equal(pc.bit_wise_and(t.column("vec_id"), 1), 0)
        t = t.filter(keep)
        # id-sorted WITHIN the block: per-block stable argsort on dist
        # then selects by (dist, id-within-block), so the pool merge's
        # (dist, id) lexsort reproduces the global id-sorted tie-break
        return t.sort_by("vec_id")

    train_ds = ds.map_batches(keep_even, batch_format="pyarrow").materialize()
    n_train = train_ds.count()
    if n_train == 0:
        return pd.DataFrame({
            "vec_id": pd.Series([], dtype="int64"),
            "pred_label": pd.Series([], dtype="int64"),
        })
    train_refs = train_ds.to_arrow_refs()
    kk = min(k, n_train)

    class Classify:
        def __init__(self, refs):
            self.refs = refs
            from ..stages.similarity import DecodedBlockCache
            self.cache = DecodedBlockCache()

        @staticmethod
        def _decode(t: pa.Table):
            # a fully-filtered block can arrive empty with a BARE schema
            # (Ray emits schema-less empty RefBundles) — guard before
            # any column access
            if t.num_rows == 0:
                return (np.empty(0, np.int64), np.empty(0, np.int64),
                        np.empty((0, 1)), np.empty(0))
            ids_ = t.column("vec_id").to_numpy(zero_copy_only=False)
            labs_ = t.column("label").to_numpy(
                zero_copy_only=False).astype(np.int64)
            _, mat = _batch_matrix(t)
            tx = np.rint(mat * SCALE)
            _check_exact_matmul(tx, "embeddings_knn_classifier")
            return ids_.astype(np.int64), labs_, tx, (tx * tx).sum(axis=1)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            m = b["vec_id"].to_numpy() % 2 == 1
            b = b[m]
            if not len(b):
                return pd.DataFrame({
                    "vec_id": pd.Series([], dtype="int64"),
                    "pred_label": pd.Series([], dtype="int64"),
                })
            bx = np.rint(np.asarray(b["embedding"].tolist(),
                                    dtype=np.float64) * SCALE)
            bn = (bx * bx).sum(axis=1)
            n = len(b)
            pool_d = np.empty((n, 0), dtype=np.float64)
            pool_id = np.empty((n, 0), dtype=np.int64)
            pool_lab = np.empty((n, 0), dtype=np.int64)
            for ref in self.refs:
                ids_, labs_, rx, rn = self.cache.get(
                    ref, lambda r=ref: self._decode(ray.get(r)))
                if not len(ids_):
                    continue
                g = bx @ rx.T               # exact: partials < 2^52
                dist = bn[:, None] + rn[None, :] - 2.0 * g
                bkk = min(kk, dist.shape[1])
                # stable argsort over id-sorted block columns: ties
                # fall to the lower in-block id
                order = np.argsort(dist, axis=1,
                                   kind="stable")[:, :bkk]
                pool_d = np.concatenate(
                    [pool_d, np.take_along_axis(dist, order, 1)], axis=1)
                pool_id = np.concatenate([pool_id, ids_[order]], axis=1)
                pool_lab = np.concatenate([pool_lab, labs_[order]],
                                          axis=1)
                if pool_d.shape[1] > kk:
                    # row-wise lexsort (primary dist, secondary id):
                    # stable id-argsort then stable dist-argsort
                    o1 = np.argsort(pool_id, axis=1, kind="stable")
                    d1 = np.take_along_axis(pool_d, o1, 1)
                    o2 = np.argsort(d1, axis=1, kind="stable")[:, :kk]
                    sel = np.take_along_axis(o1, o2, 1)
                    pool_d = np.take_along_axis(pool_d, sel, 1)
                    pool_id = np.take_along_axis(pool_id, sel, 1)
                    pool_lab = np.take_along_axis(pool_lab, sel, 1)
            o1 = np.argsort(pool_id, axis=1, kind="stable")
            d1 = np.take_along_axis(pool_d, o1, 1)
            o2 = np.argsort(d1, axis=1, kind="stable")[:, :kk]
            votes = np.take_along_axis(
                np.take_along_axis(pool_lab, o1, 1), o2, 1)
            n_lab = int(votes.max()) + 1
            counts = np.zeros((n, n_lab), dtype=np.int64)
            for j in range(votes.shape[1]):
                np.add.at(counts, (np.arange(n), votes[:, j]), 1)
            pred = counts.argmax(axis=1)    # first max = smaller label
            return pd.DataFrame({
                "vec_id": b["vec_id"].to_numpy().astype(np.int64),
                "pred_label": pred.astype(np.int64),
            })

    out = ds.map_batches(Classify, fn_constructor_args=(train_refs,),
                         batch_format="pandas", batch_size=1024,
                         concurrency=(1, 4)).to_pandas()
    return (out.astype({"vec_id": "int64", "pred_label": "int64"})
            .sort_values("vec_id").reset_index(drop=True))


def q_audit_l_diversity(sf_dir: str):
    """L-DIVERSITY audit — the second privacy-audit member next to
    q_audit_k_anonymity: with quasi-identifier = nation and sensitive
    attribute = market segment, every QI group reports its size, its
    distinct-sensitive-value count l (distinct l-diversity), and its
    sensitive-distribution ENTROPY as a fixed-point floor-then-sum at
    2^30 per (nation, segment) cell (entropy l-diversity: the group
    passes "entropy ≥ ln l₀" — the stronger criterion that catches
    99:1 skews distinct-l misses).

    Scale shape: ONE bounded cell pass — per-batch (nation, segment)
    count partials, driver fold over a |nations|×|segments| table."""
    import math

    ds = ray.data.read_parquet(
        _t(sf_dir, "customer"), columns=["c_nationkey", "c_mktsegment"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["c_nationkey", "c_mktsegment"],
                          as_index=False)
                .size().rename(columns={"size": "c"}))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "nation_key": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "l_distinct": pd.Series([], dtype="int64"),
            "h_scaled": pd.Series([], dtype="int64"),
        })
    parts = _pysum_cols(parts, ["c"])
    cells = parts.groupby(["c_nationkey", "c_mktsegment"],
                          as_index=False).agg(c=("c", "sum"))
    rows = []
    for nk, g in cells.groupby("c_nationkey"):
        cs = [int(v) for v in g["c"]]
        n = sum(cs)
        h = sum(math.floor((float(c) / float(n))
                           * math.log(float(n) / float(c))
                           * 1073741824.0) for c in cs)
        rows.append((int(nk), n, len(cs), h))
    return (pd.DataFrame(rows, columns=["nation_key", "n",
                                        "l_distinct", "h_scaled"])
            .astype({"nation_key": "int64", "n": "int64",
                     "l_distinct": "int64", "h_scaled": "int64"})
            .sort_values("nation_key").reset_index(drop=True))


def q_part_four_cycles(sf_dir: str):
    """GLOBAL 4-CYCLE CENSUS of the part co-purchase graph — the
    bipartite-ish motif that triangle counting misses (co-purchase
    graphs are locally bipartite: customer×product structure shows up
    as rectangles, not triangles). Identity: every 4-cycle a-b-c-d is
    counted once per diagonal pair, so
    C4 = ½ · Σ_pairs C(common_neighbors, 2) over ALL unordered node
    pairs (adjacent or not) — the wedge-count kernel of
    part_link_predict with the edge anti-filter off
    (``common_neighbor_pairs(include_edges=True)``). Exact integers;
    the driver folds per-batch Σ C(c,2) partials shipped as DECIMAL
    STRINGS (hub pairs can push the sum past int64).

    Scale shape: inherits the wedge pipeline's three bounded
    exchanges; the final fold is one scalar per batch."""
    import numpy as np

    from ..stages.graph import (
        common_neighbor_pairs,
        group_cooccurrence_edges,
    )

    li = ray.data.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    edges = group_cooccurrence_edges(li, "l_orderkey", "l_partkey")
    pairs = common_neighbor_pairs(edges, min_common=2,
                                  include_edges=True)

    def partial(b: pa.Table) -> pd.DataFrame:
        c = b.column("common").to_numpy(zero_copy_only=False).astype(np.int64)
        s = sum(int(x) * (int(x) - 1) // 2 for x in c)
        return pd.DataFrame({
            "n_pairs": pd.Series([len(c)], dtype="int64"),
            "s": pd.Series([str(s)], dtype="object"),
        })

    parts = pairs.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "n_pairs": pd.Series([0], dtype="int64"),
            "sum_choose2": pd.Series([0], dtype="int64"),
            "n_cycles4": pd.Series([0], dtype="int64"),
        })
    n_pairs = sum(int(v) for v in parts["n_pairs"])
    s = sum(int(v) for v in parts["s"])
    if s >= 1 << 62:
        raise ValueError(
            "part_four_cycles int64 output bound exceeded — ship "
            "sum_choose2 as a decimal string at this scale")
    return pd.DataFrame({
        "n_pairs": pd.Series([n_pairs], dtype="int64"),
        "sum_choose2": pd.Series([s], dtype="int64"),
        "n_cycles4": pd.Series([s // 2], dtype="int64"),
    })


def q_events_forecast_eval(sf_dir: str):
    """FORECAST BACKTEST COMPARISON — one-step-ahead MAE of the two
    integer forecasters over the daily-spend series: SES (predict day
    t by S_{t−1}, the q_events_ses recurrence) vs seasonal naive
    (predict by day t−7). Per method: evaluable days and the EXACT
    absolute-error sum in cents — the model-selection readout
    (which baseline wins) with no float anywhere.

    Scale shape: day totals are decomposable exact-cents partials;
    both backtests run once over the BOUNDED day axis on the
    driver.  The SES halving mirrors the oracle CTE's DuckDB ``//``
    (truncation toward zero, not Python floor — ADVICE r3) via the
    same tdiv2 sign-magnitude construction as q_events_holt."""
    m = _daily_cents(sf_dir)

    days = [int(v) for v in m["day"]]
    xs = [int(v) for v in m["xc"]]
    totals = dict(zip(days, xs))
    ses, ses_err, ses_n = None, 0, 0
    for x in xs:
        if ses is not None:
            ses_err += abs(x - ses)
            ses_n += 1
        ses = x if ses is None else _tdiv2(ses + x)
    sn_err, sn_n = 0, 0
    for d in sorted(totals):
        if d - 7 in totals:
            sn_err += abs(totals[d] - totals[d - 7])
            sn_n += 1
    out = pd.DataFrame(
        [("seasonal_naive", sn_n, sn_err), ("ses", ses_n, ses_err)],
        columns=["method", "n_evals", "abs_err_sum"])
    if max(ses_err, sn_err) >= 1 << 62:
        raise ValueError(
            "events_forecast_eval int64 output bound exceeded")
    return out.astype({"n_evals": "int64", "abs_err_sum": "int64"})


def q_part_brand_jaccard(sf_dir: str):
    """BRAND-PROFILE SIMILARITY: Jaccard overlap of the part-type sets
    two brands sell — the group-profile set-similarity op (which
    catalog families are interchangeable), reported as exact integers
    (n_inter, n_a, n_b; J = inter/(n_a + n_b − inter) is the reader's
    one division). Only pairs with n_inter ≥ 1 appear.

    Scale shape: ONE bounded cell pass — per-batch distinct
    (brand, type) partials; the pair fold runs over the
    |brands|²-bounded profile table driver-side."""
    ds = ray.data.read_parquet(_t(sf_dir, "part"),
                               columns=["p_brand", "p_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates(["p_brand", "p_type"])[
            ["p_brand", "p_type"]]

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cells = parts.drop_duplicates(["p_brand", "p_type"])
    sets = {b: set(g["p_type"]) for b, g in cells.groupby("p_brand")}
    brands = sorted(sets)
    rows = []
    for i, a in enumerate(brands):
        for b in brands[i + 1:]:
            inter = len(sets[a] & sets[b])
            if inter:
                rows.append((a, b, inter, len(sets[a]),
                             len(sets[b])))
    return (pd.DataFrame(rows, columns=["brand_a", "brand_b",
                                        "n_inter", "n_a", "n_b"])
            .astype({"n_inter": "int64", "n_a": "int64",
                     "n_b": "int64"})
            .sort_values(["brand_a", "brand_b"])
            .reset_index(drop=True))


def q_embeddings_outliers(sf_dir: str, k: int = 5, top: int = 20):
    """K-NN DISTANCE OUTLIER MINING — the distance-based anomaly
    screen (Ramaswamy et al.'s "distance to the k-th neighbor" score)
    every embedding-quality audit runs before training: the ``top``
    vectors whose 5th-nearest-neighbor squared distance is LARGEST
    (ties to the smaller vec_id). INTEGER-exact: distances are int64
    squared distances on the 2^20 grid (multiset k-th-smallest
    semantics — np.partition == the oracle's rn = k), so the ranking
    has no float compare.

    Scale shape (round 4, the kNN-classifier pattern): EXACT
    block-streamed scan — the corpus stays a materialized Dataset
    whose Arrow block refs the scoring actors stream one at a time
    with a bounded per-row k-smallest-distances pool (min-merge is
    order-independent, so the streamed k-th distance is bitwise the
    global one). No driver materialization, no broadcast matrix that
    grows with scale; the per-batch top-``top`` partials bound the
    driver merge. At corpus scale candidates can also ride
    knn_graph_lsh with an exact re-verify."""
    import numpy as np

    from ..stages.similarity import _batch_matrix

    SCALE = np.float64(1 << 20)

    ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    corpus = ds.map_batches(lambda t: t.sort_by("vec_id"),
                            batch_format="pyarrow").materialize()
    if corpus.count() <= k:
        return pd.DataFrame({
            "vec_id": pd.Series([], dtype="int64"),
            "dist_k": pd.Series([], dtype="int64"),
        })
    refs = corpus.to_arrow_refs()

    class Score:
        def __init__(self, refs):
            self.refs = refs
            from ..stages.similarity import DecodedBlockCache
            self.cache = DecodedBlockCache()

        def __call__(self, b: pa.Table) -> pd.DataFrame:
            bi = b.column("vec_id").to_numpy(
                zero_copy_only=False).astype(np.int64)
            bx = np.rint(np.asarray(
                b.column("embedding").to_pylist(), dtype=np.float64)
                * SCALE)
            bn = (bx * bx).sum(axis=1)
            best = np.full((len(bi), k), np.inf)
            def _decode(r):
                t = ray.get(r)
                if t.num_rows == 0:
                    return (np.empty(0, np.int64), np.empty((0, 1)),
                            np.empty(0))
                r_ids, mat = _batch_matrix(t)
                rx = np.rint(mat * SCALE)
                _check_exact_matmul(rx, "embeddings_outliers")
                return (r_ids.astype(np.int64), rx,
                        (rx * rx).sum(axis=1))

            for ref in self.refs:
                r_ids, rx, rn = self.cache.get(
                    ref, lambda r=ref: _decode(r))
                if not len(r_ids):
                    continue
                d2m = bn[:, None] + rn[None, :] - 2.0 * (bx @ rx.T)
                pos = np.searchsorted(r_ids, bi)
                ok = (pos < len(r_ids)) & (r_ids[np.minimum(
                    pos, len(r_ids) - 1)] == bi)
                d2m[np.nonzero(ok)[0], pos[ok]] = np.inf
                take = min(k, d2m.shape[1])
                blk = (np.partition(d2m, take - 1, axis=1)[:, :take]
                       if take < d2m.shape[1] else d2m)
                pool = np.concatenate([best, blk], axis=1)
                best = np.partition(pool, k - 1, axis=1)[:, :k]
            dk = best[:, k - 1]
            out = pd.DataFrame({"vec_id": bi,
                                "dist_k": dk.astype(np.int64)})
            # per-batch partial: only the local top-N can reach the
            # global top-N
            return (out.sort_values(["dist_k", "vec_id"],
                                    ascending=[False, True]).head(top))

    parts = ds.map_batches(Score, fn_constructor_args=(refs,),
                           batch_format="pyarrow", batch_size=1024,
                           concurrency=(1, 4)).to_pandas()
    out = (parts.sort_values(["dist_k", "vec_id"],
                             ascending=[False, True]).head(top))
    return (out.astype({"vec_id": "int64", "dist_k": "int64"})
            .reset_index(drop=True))


def q_embeddings_calibration(sf_dir: str):
    """CALIBRATION TABLE of the nearest-centroid classifier — the
    "does a bigger margin mean a more reliable prediction" readout
    (the reliability-diagram kernel behind confidence thresholds):
    odd-vec_id predictions bucket by the BIT LENGTH of their integer
    margin (2nd-best minus best squared centroid distance, exact on
    the 2^20 grid), and each bucket reports integer (n, n_correct).
    Monotone-increasing accuracy over margin_bin is the expected
    shape; the table is what a pipeline reads to pick an
    auto-accept threshold.

    INTEGER-exact: margins come from `_nc_predictions` (multiset
    second-minimum == the oracle's rn=2), bin = bit_length (mirrored
    by LENGTH(bin(m)) in SQL, m=0 → 0). Scale shape: inherits the
    classifier's ZERO exchanges; the fold is ≤64 bins driver-side."""
    out = _nc_predictions(sf_dir)
    if len(out) == 0:
        return pd.DataFrame({
            "margin_bin": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "n_correct": pd.Series([], dtype="int64"),
        })
    out = out.copy()
    out["margin_bin"] = _bitlen64(out["margin"].to_numpy())
    out["ok"] = (out["true_label"] == out["pred_label"]).astype("int64")
    m = (out.groupby("margin_bin", as_index=False)
         .agg(n=("ok", "size"), n_correct=("ok", "sum")))
    return (m.astype({"margin_bin": "int64", "n": "int64",
                      "n_correct": "int64"})
            .sort_values("margin_bin").reset_index(drop=True))


def q_events_srm(sf_dir: str):
    """SAMPLE-RATIO-MISMATCH check for the A/B split — the guardrail
    read BEFORE q_events_ab_test's effect readout (a skewed assignment
    invalidates the experiment): distinct-user counts per cohort
    (user_id parity) and the 50:50 chi-square statistic as the PURE
    INTEGER ⌊(n_a − n_b)²·2^20 / n⌋ (one floored division over exact
    counts — both sides compute the identical integer).

    Scale shape: ONE user-hash exchange — a user owns one bucket, so
    per-bucket distinct-parity counts are exact scalar partials."""
    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "events"),
                               columns=["user_id"])
    nb = auto_buckets(ds)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": np.unique(b["user_id"].to_numpy())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].drop_duplicates().to_numpy()
        a = int((u % 2 == 0).sum())
        return pd.DataFrame({"n_a": pd.Series([a], dtype="int64"),
                             "n_b": pd.Series([len(u) - a],
                                              dtype="int64")})

    parts = bucket_group_map(
        ds.map_batches(partial, batch_format="pandas"),
        key_buckets("u", nb), fold,
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({
            "n_a": pd.Series([0], dtype="int64"),
            "n_b": pd.Series([0], dtype="int64"),
            "srm_scaled": pd.Series([-1], dtype="int64"),
        })
    parts = _pysum_cols(parts, ["n_a", "n_b"])
    na = sum(int(v) for v in parts["n_a"])
    nbb = sum(int(v) for v in parts["n_b"])
    n = na + nbb
    srm = ((na - nbb) * (na - nbb) * (1 << 20)) // n if n else -1
    if srm >= 1 << 62:
        raise ValueError("events_srm int64 output bound exceeded")
    return pd.DataFrame({
        "n_a": pd.Series([na], dtype="int64"),
        "n_b": pd.Series([nbb], dtype="int64"),
        "srm_scaled": pd.Series([srm], dtype="int64"),
    })


def q_part_gini_by_brand(sf_dir: str):
    """GROUPED GINI — price inequality WITHIN each brand's catalog
    (the grouped sibling of q_customer_lorenz: is a brand's line-up
    uniformly priced or barbelled?): per brand the part count, exact
    cents price sum, and gini_num = Σ_{i≠j}|p_i − p_j| over the
    brand's retail prices — all PURE INTEGERS via the ordered
    value-histogram identity (Σ c·(v·C_below − S_below) ×2), folded
    per brand with exact Python ints.

    Scale shape: per-batch (brand, cents) histogram partials complete
    in ONE brand-hash groupby (a brand owns one group; the per-group
    fold walks distinct VALUES, not rows); gini partials travel as
    decimal strings (v·C crosses int64 at catalog scale), int64
    output guarded loud."""
    import numpy as np

    ds = ray.data.read_parquet(_t(sf_dir, "part"),
                               columns=["p_brand", "p_retailprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["p_retailprice"].to_numpy() * 100).astype("int64")
        return (pd.DataFrame({"brand": b["p_brand"], "v": cents})
                .groupby(["brand", "v"], as_index=False).size()
                .rename(columns={"size": "cnt"}))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby("v", as_index=False).agg(cnt=("cnt", "sum"))
             .sort_values("v"))
        cb, sb, gini2, n, s = 0, 0, 0, 0, 0
        for v, c in zip(m["v"], m["cnt"]):
            v, c = int(v), int(c)
            gini2 += c * (v * cb - sb)
            cb += c
            sb += v * c
            n += c
            s += v * c
        return pd.DataFrame({
            "brand": [g["brand"].iloc[0]],
            "n": pd.Series([n], dtype="int64"),
            "sum_cents": pd.Series([s], dtype="int64"),
            "g2": pd.Series([str(gini2)], dtype="object"),
        })

    parts = (ds.map_batches(partial, batch_format="pandas")
             .groupby("brand").map_groups(fold, batch_format="pandas")
             .to_pandas())
    if len(parts) == 0:
        return pd.DataFrame({
            "brand": pd.Series([], dtype="object"),
            "n": pd.Series([], dtype="int64"),
            "sum_cents": pd.Series([], dtype="int64"),
            "gini_num": pd.Series([], dtype="int64"),
        })
    rows = []
    for _, row in parts.iterrows():
        gnum = 2 * int(row["g2"])
        if max(gnum, int(row["sum_cents"])) >= 1 << 62:
            raise ValueError(
                "part_gini_by_brand int64 output bound exceeded — "
                "ship gini_num as a decimal string at this scale")
        rows.append((row["brand"], int(row["n"]),
                     int(row["sum_cents"]), gnum))
    return (pd.DataFrame(rows, columns=["brand", "n", "sum_cents",
                                        "gini_num"])
            .astype({"n": "int64", "sum_cents": "int64",
                     "gini_num": "int64"})
            .sort_values("brand").reset_index(drop=True))


def q_events_seasonality_strength(sf_dir: str):
    """SEASONALITY-STRENGTH moments of the daily-spend series: over
    the days where day−7 is observed, the exact integer moments of the
    series (Σx, Σx²) and of the seasonal-naive residual r = x_t −
    x_{t−7} (Σr, Σr²) — strength 1 − Var(r)/Var(x) is the reader's
    arithmetic away, every reported number is an integer (the STL-less
    seasonality screen read before committing to a seasonal model).

    Scale shape: day totals are decomposable exact-cents partials; the
    lag-7 pairing and moments run over the BOUNDED day axis with
    Python ints."""
    m = _daily_cents(sf_dir)
    totals = {int(d): int(c) for d, c in zip(m["day"], m["xc"])}
    n = sx = sxx = sr = srr = 0
    for d in sorted(totals):
        if d - 7 in totals:
            x = totals[d]
            rr = x - totals[d - 7]
            n += 1
            sx += x
            sxx += x * x
            sr += rr
            srr += rr * rr
    if max(abs(v) for v in (sx, sxx, sr, srr)) >= 1 << 62:
        raise ValueError(
            "events_seasonality_strength int64 output bound exceeded")
    return pd.DataFrame({
        "n_days": pd.Series([n], dtype="int64"),
        "sum_x": pd.Series([sx], dtype="int64"),
        "sumsq_x": pd.Series([sxx], dtype="int64"),
        "sum_r": pd.Series([sr], dtype="int64"),
        "sumsq_r": pd.Series([srr], dtype="int64"),
    })


def q_events_weekday_anova(sf_dir: str):
    """WEEKDAY-EFFECT ANOVA: one-way F of the daily-spend totals
    across day-of-week groups — the significance TEST behind the
    seasonality-strength ratio (is the weekly pattern real or
    noise?). Day totals are the observations, dow = (epoch_days+4)%7
    (the events_chisq convention), and F comes from the shared
    `_floored_f_stat` fixed-point construction — a pure integer both
    sides compute identically.

    Scale shape: day totals are decomposable exact-cents partials;
    the 7-group moment fold runs over the BOUNDED day axis."""
    m = _daily_cents(sf_dir)
    groups = {}
    for d, c in zip(m["day"], m["xc"]):
        dow = (int(d) + 4) % 7
        n0, s0, q0 = groups.get(dow, (0, 0, 0))
        x = int(c)
        groups[dow] = (n0 + 1, s0 + x, q0 + x * x)
    if not groups:
        return pd.DataFrame({
            "dow": pd.Series([], dtype="int64"),
            "n_days": pd.Series([], dtype="int64"),
            "sum_cents": pd.Series([], dtype="int64"),
            "df1": pd.Series([], dtype="int64"),
            "df2": pd.Series([], dtype="int64"),
            "f_scaled": pd.Series([], dtype="int64"),
        })
    df1, df2, f_sc = _floored_f_stat(
        [groups[k] for k in sorted(groups)])
    rows = []
    for dow in sorted(groups):
        nt, s, _ = groups[dow]
        if max(abs(s), abs(f_sc)) >= 1 << 62:
            raise ValueError(
                "events_weekday_anova int64 output bound exceeded")
        rows.append((dow, nt, s, df1, df2, f_sc))
    return (pd.DataFrame(rows, columns=["dow", "n_days", "sum_cents",
                                        "df1", "df2", "f_scaled"])
            .astype({"dow": "int64", "n_days": "int64",
                     "sum_cents": "int64", "df1": "int64",
                     "df2": "int64", "f_scaled": "int64"}))
