"""Distributed graph analytics over edge Datasets.

Companion to the connected-components op (``stages/dedup.py::
dup_clusters``, min-label propagation): this module holds the
POWER-ITERATION family — an integer-exact distributed PageRank over a
directed edge Dataset — plus the co-occurrence edge builder that turns
a ``(group, item)`` table into a graph (items sharing a group link to
each other), the standard way a relational fact table becomes a graph
(parts co-purchased in an order, terms co-occurring in a doc).

Everything is fixed-point int64 arithmetic: ranks carry a 1e6 scale,
each edge's contribution floor-divides by the source's out-degree
BEFORE any summation, and the damping step is one integer multiply +
floor-divide applied once per node per iteration. Every operation is
order-independent, so the result is BITWISE identical at any
parallelism AND expressible in ANSI SQL — the driver oracle unrolls
the K iterations as chained CTEs with the same integer expressions.

Scale shape: the Arrow-IPC blob exchange (``stages/exchange.py``) —
degree-decorated edge blobs build in ONE static exchange and ride
every superstep unparsed; rank-finalize and contribution-send fuse
into ONE groupby per iteration because partials land keyed by the
same bucket the next round reads ranks from (K+2 exchanges total,
each sorting only blocks × occupied-buckets blob rows). Driver
memory is O(1) — state lives in the object store as bucketed blob
Datasets, built with ``exchange.pack_by``/``blob_row`` and read with
``exchange.unpack``; a blob's kind (edges, node universe, ranks,
partial sums, ...) is told apart by its column set. No
reference-engine counterpart (engine-level extension, like
dup_clusters).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .exchange import EMPTY_BLOBS, blob_row, checkpoint, pack_by, unpack
from .hashing import _ibucket, _pair_bucket


def _undirected_distinct(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct undirected edges as canonical ``(u, v)`` with u < v
    (self-loops dropped) — one pair-bucket exchange. Shared by every
    op over the undirected graph."""

    def und_rows(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u, v = np.minimum(s, d), np.maximum(s, d)
        return pa.table({"pb": pa.array(_pair_bucket(u, v)),
                         "u": pa.array(u), "v": pa.array(v)})

    def und_distinct(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(["u", "v"])[["u", "v"]]

    return (
        edges.map_batches(und_rows, batch_format="pyarrow")
        .groupby("pb")
        .map_groups(und_distinct, batch_format="pandas")
    )


def _degrees(und: ray.data.Dataset, deg_col: str) -> ray.data.Dataset:
    """``(node, deg_col)``: each node's degree in the undirected
    ``(u, v)`` edge list ``und`` — ONE node-bucket exchange over
    endpoint rows, exact integer counts. Shared by node_degrees and
    kcore."""

    def endpoints(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([u, v])
        return pa.table({"kb": pa.array(_ibucket(node)),
                         "node": pa.array(node)})

    def count(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("node", as_index=False, sort=False).size()
        return pd.DataFrame({"node": out["node"].astype("int64"),
                             deg_col: out["size"].astype("int64")})

    return (
        und.map_batches(endpoints, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(count, batch_format="pandas")
    )


def _endpoint_blobs(batch: pa.Table) -> pa.Table:
    """Both endpoints of every ``(u, v)`` edge as ``node`` rows packed
    by kb(node): a bucket counts its own nodes' degrees from them."""
    u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
    v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    node = np.concatenate([u, v])
    return pack_by(pa.table({"node": pa.array(node)}), _ibucket(node))


def _pack_first(batch: pa.Table) -> pa.Table:
    """Edge slices keyed by kb(u) + endpoint slices keyed by
    kb(endpoint): each bucket can then count its own nodes' degrees
    from the endpoint rows — no separate degree exchange."""
    u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
    v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    et = pa.table({"u": pa.array(u), "v": pa.array(v)})
    return pa.concat_tables([pack_by(et, _ibucket(u)), _endpoint_blobs(batch)])


def _attach_u(group: pd.DataFrame) -> pa.Table:
    """Count this bucket's degrees from endpoint slices; decorate
    edges whose u lives here; re-emit the bucket's degree table for
    the second attach (keyed by its own bucket id)."""
    tabs = unpack(group)
    nt = [t for t in tabs if "node" in t.column_names]
    n = pa.concat_tables(nt).to_pandas() if nt else pd.DataFrame(
        {"node": pd.Series([], dtype="int64")})
    deg = n.groupby("node", as_index=False, sort=False).size()
    deg = pd.DataFrame({"node": deg["node"].astype("int64"),
                        "deg": deg["size"].astype("int64")})
    out = [blob_row(pa.Table.from_pandas(deg, preserve_index=False),
                    int(group["bucket"].iloc[0]))]
    et = [t for t in tabs if "u" in t.column_names]
    if et:
        e = pa.concat_tables(et).to_pandas()
        m = e.merge(deg.rename(columns={"node": "u", "deg": "du"}),
                    on="u", how="inner")
        v = m["v"].to_numpy(dtype=np.int64)
        half = pa.table({
            "u": pa.array(m["u"].to_numpy(dtype=np.int64)),
            "v": pa.array(v),
            "du": pa.array(m["du"].to_numpy(dtype=np.int64)),
        })
        out.append(pack_by(half, _ibucket(v)))
    return pa.concat_tables(out)


def _attach_v_orient(group: pd.DataFrame):
    """Attach deg(v) from this bucket's degree table to the edges whose
    v lives here and orient each edge from the (deg, node)-smaller
    endpoint. Returns the oriented (tail, head) slices packed by the
    tail's bucket, for wedge generation, and the decorated edges as
    arrays ``(u, v, du, dv)`` (None when no edge's v lives here)."""
    tabs = unpack(group)
    ht = [t for t in tabs if "du" in t.column_names]
    if not ht:
        return EMPTY_BLOBS, None
    dt = [t for t in tabs if "deg" in t.column_names]
    deg = pa.concat_tables(dt).to_pandas()
    h = pa.concat_tables(ht).to_pandas()
    m = h.merge(deg.rename(columns={"node": "v", "deg": "dv"}),
                on="v", how="inner")
    u = m["u"].to_numpy(dtype=np.int64)
    v = m["v"].to_numpy(dtype=np.int64)
    du = m["du"].to_numpy(dtype=np.int64)
    dv = m["dv"].to_numpy(dtype=np.int64)
    u_first = (du < dv) | ((du == dv) & (u < v))
    tail = np.where(u_first, u, v)
    head = np.where(u_first, v, u)
    wedge_slices = pack_by(pa.table({"tail": pa.array(tail),
                                     "head": pa.array(head)}),
                           _ibucket(tail))
    return wedge_slices, (u, v, du, dv)


def _wedge_blobs(wt: list) -> pa.Table:
    """Pairs of out-neighbors per tail of the oriented ``(tail, head)``
    tables ``wt`` → closure-probe ``(x, y, center)`` slices PACKED as
    one IPC blob per pair bucket: the wedge volume must not hit the
    sort as raw rows.

    FULLY vectorized run-length pairing (no per-tail Python loop —
    measured minutes on 1M tails): rows sort by (run length, tail,
    head) so each offset-k pass slices the suffix of runs with
    L > k via one searchsorted; pairing row i with row i+k inside a
    run emits every neighbor pair exactly once, total work
    O(Σ C(L, 2)) across ≤ max-out-degree passes."""
    g = pa.concat_tables(wt).to_pandas()
    L = g.groupby("tail")["tail"].transform("size").to_numpy(
        dtype=np.int64)
    order = np.lexsort((g["head"].to_numpy(dtype=np.int64),
                        g["tail"].to_numpy(dtype=np.int64), L))
    t = g["tail"].to_numpy(dtype=np.int64)[order]
    h = g["head"].to_numpy(dtype=np.int64)[order]
    L = L[order]
    # position of each row within its (contiguous) run
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    run_id = np.cumsum(np.r_[False, t[1:] != t[:-1]])
    pos = np.arange(len(t)) - starts[run_id]
    out_x, out_y, out_c = [], [], []
    max_l = int(L[-1]) if len(L) else 0
    for k in range(1, max_l):
        lo = np.searchsorted(L, k + 1)   # runs with L > k
        sel = np.flatnonzero(pos[lo:] + k < L[lo:]) + lo
        if not len(sel):
            continue
        out_x.append(h[sel])
        out_y.append(h[sel + k])
        out_c.append(t[sel])
    if not out_x:
        return EMPTY_BLOBS
    x = np.concatenate(out_x); y = np.concatenate(out_y)
    tt = pa.table({"x": pa.array(x), "y": pa.array(y),
                   "center": pa.array(np.concatenate(out_c))})
    return pack_by(tt, _pair_bucket(x, y))


def node_degrees(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per-node degree over the UNDIRECTED graph induced by ``(src,
    dst)`` edges — ``(node, deg)`` for every node incident to at least
    one distinct non-loop edge. ONE node-bucket exchange over endpoint
    rows of the distinct undirected edge list; counts are exact
    integers (clustering-coefficient / degree-distribution
    denominator)."""
    return _degrees(_undirected_distinct(edges), "deg")


def _group_item_pairs(ds: ray.data.Dataset, group_col: str, item_col: str,
                      emit) -> ray.data.Dataset:
    """The group-bucket exchange of the co-occurrence builders: per
    bucket, ``emit(m)`` gets every ordered pair ``(item_x, item_y)`` of
    distinct items sharing a group (one vectorized pandas self-merge
    over the deduplicated ``(g, item)`` rows) and returns pair-bucket
    rows."""

    def add_gb(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "gb": pa.array(_ibucket(g)),
            "g": pa.array(g),
            "item": batch.column(item_col).cast(pa.int64()),
        })

    def group_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["g", "item"])[["g", "item"]]
        m = g.merge(g, on="g")
        return emit(m[m["item_x"] != m["item_y"]])

    return (
        ds.map_batches(add_gb, batch_format="pyarrow")
        .groupby("gb")
        .map_groups(group_pairs, batch_format="pandas")
    )


def group_cooccurrence_edges(
    ds: ray.data.Dataset, group_col: str, item_col: str,
) -> ray.data.Dataset:
    """Distinct directed edges ``(src, dst)`` between every ordered pair
    of distinct items sharing a group — both directions, no self-loops.

    Group sizes are assumed bounded (an order's lineitems, a doc's
    terms-of-interest): the within-group pair expansion is quadratic in
    GROUP size only. Two bounded exchanges: group-bucket (pair
    expansion, vectorized pandas self-merge) then pair-bucket (global
    distinct — the same pair can arise from many groups).
    """

    def distinct_pairs(m: pd.DataFrame) -> pd.DataFrame:
        src = m["item_x"].to_numpy(dtype=np.int64)
        dst = m["item_y"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "pb": _pair_bucket(src, dst), "src": src, "dst": dst,
        }).drop_duplicates(["src", "dst"])

    def pair_distinct(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(["src", "dst"])[["src", "dst"]]

    return (
        _group_item_pairs(ds, group_col, item_col, distinct_pairs)
        .groupby("pb")
        .map_groups(pair_distinct, batch_format="pandas")
    )


def group_cooccurrence_weighted_edges(
    ds: ray.data.Dataset, group_col: str, item_col: str,
) -> ray.data.Dataset:
    """Directed co-occurrence edges ``(src, dst, cnt)`` where ``cnt`` is
    the number of DISTINCT groups the ordered pair shares — the weighted
    sibling of :func:`group_cooccurrence_edges` (tie strength for
    SSSP / similarity weighting). Same two bounded exchanges; the
    pair-bucket pass sums per-bucket partial counts instead of
    dropping duplicates."""

    def pair_counts(m: pd.DataFrame) -> pd.DataFrame:
        # pairs are unique per group after the item dedup, so the
        # per-bucket partial count = multiplicity across this bucket's
        # groups
        part = (m.groupby(["item_x", "item_y"], sort=False)
                .size().reset_index(name="cnt"))
        src = part["item_x"].to_numpy(dtype=np.int64)
        dst = part["item_y"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "pb": _pair_bucket(src, dst), "src": src, "dst": dst,
            "cnt": part["cnt"].to_numpy(dtype=np.int64),
        })

    def pair_sum(group: pd.DataFrame) -> pd.DataFrame:
        return (group.groupby(["src", "dst"], as_index=False, sort=False)
                ["cnt"].sum())

    return (
        _group_item_pairs(ds, group_col, item_col, pair_counts)
        .groupby("pb")
        .map_groups(pair_sum, batch_format="pandas")
    )


def sssp(edges: ray.data.Dataset, sources: ray.data.Dataset,
         max_rounds: int = 4) -> ray.data.Dataset:
    """Weighted multi-source shortest path, bounded Bellman-Ford:
    ``edges`` is directed ``(src, dst, w)`` with int64 weights > 0,
    ``sources`` a ``(node,)`` Dataset; returns ``(node, dist)`` — the
    minimum total weight over paths of at most ``max_rounds`` edges
    from any source, for every node with such a path. Fifth member of
    the graph family: BFS with a min-PLUS semiring instead of hop
    counting.

    Integer mins/sums only → order-independent, bitwise-deterministic
    at any parallelism, and exactly reproducible by ``max_rounds``
    unrolled relaxation CTEs (d_k(v) = min(d_{k-1}(v),
    min_u d_{k-1}(u) + w(u,v))) — a hash-exact oracle with no
    path-enumeration blowup.

    Scale shape = :func:`bfs_hops` (edge blobs keyed by bucket(src)
    ride every superstep unparsed; ONE fused groupby per round), with
    one extra piece of state: each node's distance row carries ``newr``,
    the round that last IMPROVED it, so round r relaxes only the
    r-1-improved frontier. An unimproved node's contribution was
    already delivered the round after it last improved, so frontier-
    only emission preserves the ≤k-edge-paths invariant exactly.
    Per-round work ∝ the frontier's out-edges. Driver memory O(1).
    Reference n/a — engine-level extension, like bfs_hops."""

    def pack_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        et = pa.table({"node": pa.array(src), "dst": pa.array(dst),
                       "w": pa.array(w)})
        return pack_by(et, _ibucket(src))

    static = (
        edges.map_batches(pack_edges, batch_format="pyarrow")
        .materialize()
    )

    def seed(batch: pa.Table) -> pa.Table:
        node = np.unique(
            batch.column("node").to_numpy(zero_copy_only=False)
            .astype(np.int64))
        z = np.zeros(len(node), dtype=np.int64)
        dt = pa.table({"node": pa.array(node), "d": pa.array(z),
                       "newr": pa.array(z)})
        return pack_by(dt, _ibucket(node))

    state = checkpoint(sources.map_batches(seed, batch_format="pyarrow"))

    def _merged(tabs: list) -> pd.DataFrame:
        dt = [t for t in tabs if "d" in t.column_names]
        if not dt:
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "d": pd.Series([], dtype="int64"),
                                 "newr": pd.Series([], dtype="int64")})
        d = pa.concat_tables(dt).to_pandas()
        # min d per node; among equal d, the EARLIEST improving round
        # wins (so a node that merely re-receives its current distance
        # does not rejoin the frontier) — (d, newr) lexicographic min
        # is reduction-order-free
        d = d.sort_values(["node", "d", "newr"], kind="stable")
        return d.drop_duplicates("node", keep="first")[
            ["node", "d", "newr"]]

    def make_superstep(r: int):
        def superstep(group: pd.DataFrame) -> pa.Table:
            tabs = unpack(group)
            merged = _merged(tabs)
            if merged.empty:
                return EMPTY_BLOBS
            out = [blob_row(pa.Table.from_pandas(merged, preserve_index=False),
                            int(group["bucket"].iloc[0]))]
            frontier = merged[merged["newr"] == r - 1]
            et = [t for t in tabs if "dst" in t.column_names]
            if len(frontier) and et:
                e = pa.concat_tables(et).to_pandas()
                m = e.merge(frontier[["node", "d"]], on="node",
                            how="inner")
                if len(m):
                    cand = (m.assign(nd=m["d"] + m["w"])
                            .groupby("dst", as_index=False, sort=False)
                            ["nd"].min())
                    dsts = cand["dst"].to_numpy(dtype=np.int64)
                    ct = pa.table({
                        "node": pa.array(dsts),
                        "d": pa.array(cand["nd"].to_numpy(dtype=np.int64)),
                        "newr": pa.array(
                            np.full(len(dsts), r, dtype=np.int64)),
                    })
                    out.append(pack_by(ct, _ibucket(dsts)))
            return pa.concat_tables(out)
        return superstep

    for r in range(1, max_rounds + 1):
        state = checkpoint(
            state.union(static)
            .groupby("bucket")
            .map_groups(make_superstep(r), batch_format="pandas")
            .repartition(16)
        )

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        merged = _merged(unpack(group))
        return pd.DataFrame({"node": merged["node"].astype("int64"),
                             "dist": merged["d"].astype("int64")})

    return state.groupby("bucket").map_groups(finalize,
                                              batch_format="pandas")


def pagerank(
    edges: ray.data.Dataset, iters: int = 5,
    damping_num: int = 85, damping_den: int = 100,
    scale: int = 1_000_000,
) -> ray.data.Dataset:
    """Integer-exact PageRank over distinct directed ``(src, dst)``
    edges; returns a Dataset of ``(node, r)`` after ``iters`` power
    iterations.

        r_0(v)     = scale
        contrib(u→v) = r_k(u) // outdeg(u)                (per edge)
        r_{k+1}(v) = (scale*(den-num)) // den
                     + (num * Σ_incoming contrib) // den

    All values stay positive int64 (floor division == SQL ``//`` for
    positives), every reduction is an integer sum → order-independent,
    bitwise-deterministic at any parallelism (pytest differential vs a
    sequential numpy reference across block layouts). int64 headroom:
    a node's incoming sum is bounded by total mass = n_nodes·scale, so
    ``damping_num · n_nodes · scale`` must stay < 2^63 (≈1.08e11
    nodes at the default scale — past that, lower ``scale``).

    Nodes = src ∪ dst of the edge set. Dangling nodes (no out-edges)
    leak their mass — the classic simple variant; the teleport term
    keeps every node's rank ≥ the floor. Nodes with no in-edges settle
    at exactly the teleport floor.

    Scale shape (Arrow-IPC blob exchange, ``stages/exchange.py``):
    contribution partials land keyed by the SAME bucket key the next
    round's ranks are read from, so rank-finalize and contribution-send
    FUSE into one groupby per iteration — K+2 exchanges total (one
    static build, K fused supersteps, one finalize), each sorting only
    ``blocks × occupied_buckets`` blob rows while the static
    degree-decorated edge blobs ride along unparsed. (The raw-row
    formulation measured 33 s at sf0.1 with the sort dominated by
    re-sorting 1.5M decorated edge rows twice per iteration.)
    """
    teleport = (scale * (damping_den - damping_num)) // damping_den

    def pack_raw(batch: pa.Table) -> pa.Table:
        """Edge slices keyed by kb(src) + endpoint slices keyed by
        kb(endpoint) — the node universe must reach ITS bucket even for
        nodes that only ever appear as dst."""
        src = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        et = pa.table({"node": pa.array(src), "dst": pa.array(dst)})
        node = np.concatenate([src, dst])
        nt = pa.table({"node": pa.array(node)})
        return pa.concat_tables([pack_by(et, _ibucket(src)),
                                 pack_by(nt, _ibucket(node))])

    def build_static(group: pd.DataFrame) -> pa.Table:
        """Per bucket: degree-decorate this bucket's out-edges (every
        row of a src lands in its bucket, so the in-bucket count IS the
        out-degree) and dedupe the node universe into zero-sum rows."""
        tabs = unpack(group)
        b = int(group["bucket"].iloc[0])
        out = []
        et = [t for t in tabs if "dst" in t.column_names]
        if et:
            e = pa.concat_tables(et).to_pandas()
            e["deg"] = (e.groupby("node")["node"].transform("size")
                        .astype("int64"))
            out.append(blob_row(pa.Table.from_pandas(
                e[["node", "dst", "deg"]], preserve_index=False), b))
        nt = [t for t in tabs if "dst" not in t.column_names]
        if nt:
            n = (pa.concat_tables(nt).to_pandas()
                 .drop_duplicates("node")["node"]
                 .to_numpy(dtype=np.int64))
            out.append(blob_row(pa.table({
                "node": pa.array(n),
                "s": pa.array(np.zeros(len(n), dtype=np.int64)),
            }), b))
        return pa.concat_tables(out)

    static = (
        edges.map_batches(pack_raw, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(build_static, batch_format="pandas")
        # map_groups leaves ~3 mostly-empty blocks per group (measured
        # 324 blocks for 128 rows at 10M edges) and every superstep's
        # union sort pays per-block overhead for them
        .repartition(16)
        .materialize()
    )

    def seed_rows(batch: pd.DataFrame) -> pa.Table:
        """Initial rank blobs (node, r=scale) derived from the static
        node-universe blobs — exact r_0 for ANY damping parameters."""
        return pa.concat_tables([EMPTY_BLOBS] + [
            blob_row(pa.table({
                "node": t.column("node"),
                "r": pa.array(np.full(t.num_rows, scale, dtype=np.int64)),
            }), bk)
            for bk, t in zip(batch["bucket"], unpack(batch))
            if "s" in t.column_names])

    state = checkpoint(static.map_batches(seed_rows, batch_format="pandas"))

    def _bucket_ranks(tabs: list) -> pd.DataFrame:
        """Recover this bucket's ranks from the incoming blobs: seed
        rank rows pass through; otherwise finalize partial sums (the
        static zero rows complete the node universe)."""
        rk = [t for t in tabs if "r" in t.column_names]
        if rk:
            return pa.concat_tables(rk).to_pandas()
        sums = pa.concat_tables(
            [t for t in tabs if "s" in t.column_names]).to_pandas()
        tot = sums.groupby("node", as_index=False, sort=False)["s"].sum()
        s = tot["s"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "node": tot["node"].astype("int64"),
            "r": teleport + (damping_num * s) // damping_den,
        })

    def superstep(group: pd.DataFrame) -> pa.Table:
        """Fused finalize + send: ranks of this bucket's nodes flow down
        this bucket's out-edges; contributions floor per edge, PARTIAL-
        sum per dst (damping applies only after the full sum, next
        round), and pack per destination bucket."""
        tabs = unpack(group)
        ranks = _bucket_ranks(tabs)
        et = [t for t in tabs if "dst" in t.column_names]
        if not et:
            return EMPTY_BLOBS
        e = pa.concat_tables(et).to_pandas()
        m = e.merge(ranks, on="node", how="inner")
        contrib = (m["r"].to_numpy(dtype=np.int64)
                   // m["deg"].to_numpy(dtype=np.int64))
        part = (
            pd.DataFrame({"node": m["dst"].to_numpy(dtype=np.int64),
                          "s": contrib})
            .groupby("node", as_index=False, sort=False)["s"].sum()
        )
        node = part["node"].to_numpy(dtype=np.int64)
        out = pa.table({"node": pa.array(node),
                        "s": pa.array(part["s"].to_numpy(dtype=np.int64))})
        return pack_by(out, _ibucket(node))

    for _ in range(iters):
        # checkpoint(), not bare materialize: it also CUTS LINEAGE so
        # round r+1's plan does not embed round r's (see
        # stages/exchange.py::checkpoint for the measured blowup);
        # the repartition pins block count (union grows it by static's
        # blocks every round — measured +64 blocks/iter, superstep wall
        # 1.5→8.1 s by round 5)
        state = checkpoint(
            state.union(static)
            .groupby("bucket")
            .map_groups(superstep, batch_format="pandas")
            .repartition(32)
        )

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        return _bucket_ranks(unpack(group))

    return (
        state.union(static)
        .groupby("bucket")
        .map_groups(finalize, batch_format="pandas")
    )


def label_propagation(edges: ray.data.Dataset,
                      iters: int = 3) -> ray.data.Dataset:
    """Synchronous label-propagation community detection over the
    UNDIRECTED graph induced by ``(src, dst)``: labels start as node
    ids; each round EVERY node simultaneously takes the majority label
    of its neighbors, ties broken by the smallest label. Returns
    ``(node, label)`` after exactly ``iters`` rounds — the sixth graph
    op (vs pagerank's weighted average, CC's min, BFS/SSSP's min-hop /
    min-plus, this one is an argmax semiring).

    Synchronous updates + the (count DESC, label ASC) tie-break make
    every round a pure function of the previous labeling —
    order-independent, bitwise-deterministic at any parallelism, and
    exactly reproducible by ``iters`` unrolled vote-then-argmax CTEs
    (a hash-exact oracle; classic asynchronous LPA is
    visit-order-dependent and would be uncheckable).

    Scale shape = :func:`pagerank`'s fused finalize+send: vote partials
    land keyed by the bucket the next round's labels are read from, so
    each round is ONE groupby (K+2 exchanges total); the symmetrized
    edge blobs ride every superstep unparsed. In the symmetrized edge
    set every node has ≥1 neighbor, so every node receives votes every
    round — no carry-old-label branch. Driver memory O(1).
    Reference n/a — engine-level extension, like pagerank."""
    und = _undirected_distinct(edges)

    def pack_sym(batch: pa.Table) -> pa.Table:
        """Both directions of each undirected edge, keyed by
        bucket(src)."""
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        et = pa.table({"node": pa.array(src), "dst": pa.array(dst)})
        return pack_by(et, _ibucket(src))

    static = (
        und.map_batches(pack_sym, batch_format="pyarrow")
        .repartition(16)
        .materialize()
    )

    def seed(batch: pd.DataFrame) -> pa.Table:
        """Initial labels = node id, derived from each bucket's edge
        sources (every node appears as a source after symmetrizing)."""
        out = [EMPTY_BLOBS]
        for bk, t in zip(batch["bucket"], unpack(batch)):
            node = np.unique(t.column("node").to_numpy(
                zero_copy_only=False).astype(np.int64))
            out.append(blob_row(pa.table({
                "node": pa.array(node), "lab": pa.array(node)}), bk))
        return pa.concat_tables(out)

    state = checkpoint(static.map_batches(seed, batch_format="pandas"))

    def _bucket_labels(tabs: list) -> pd.DataFrame:
        """This bucket's labels: seed label rows pass through;
        otherwise sum vote partials per (node, lab) and take the
        majority with the (count DESC, label ASC) tie-break."""
        lr = [t for t in tabs if "lab" in t.column_names
              and "c" not in t.column_names]
        if lr:
            # a bucket can hold several seed blobs with OVERLAPPING
            # node sets (one per input batch): dedup, or each duplicate
            # label row would double that node's outgoing votes
            return (pa.concat_tables(lr).to_pandas()
                    .drop_duplicates("node"))
        votes = pa.concat_tables(
            [t for t in tabs if "c" in t.column_names]).to_pandas()
        tot = votes.groupby(["node", "lab"], as_index=False,
                            sort=False)["c"].sum()
        tot = tot.sort_values(["node", "c", "lab"], kind="stable",
                              ascending=[True, False, True])
        return tot.drop_duplicates("node")[["node", "lab"]]

    def superstep(group: pd.DataFrame) -> pa.Table:
        """Fused finalize + send: this bucket's labels flow down its
        out-edges as per-(dst, lab) vote partials."""
        tabs = unpack(group)
        labels = _bucket_labels(tabs)
        et = [t for t in tabs if "dst" in t.column_names]
        if not et:
            return EMPTY_BLOBS
        e = pa.concat_tables(et).to_pandas()
        m = e.merge(labels, on="node", how="inner")
        part = (m.groupby(["dst", "lab"], as_index=False, sort=False)
                .size().rename(columns={"size": "c"}))
        dst = part["dst"].to_numpy(dtype=np.int64)
        out = pa.table({
            "node": pa.array(dst),
            "lab": pa.array(part["lab"].to_numpy(dtype=np.int64)),
            "c": pa.array(part["c"].to_numpy(dtype=np.int64)),
        })
        return pack_by(out, _ibucket(dst))

    for _ in range(iters):
        state = checkpoint(
            state.union(static)
            .groupby("bucket")
            .map_groups(superstep, batch_format="pandas")
            .repartition(16)
        )

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        labels = _bucket_labels(unpack(group))
        return pd.DataFrame({"node": labels["node"].astype("int64"),
                             "label": labels["lab"].astype("int64")})

    return state.groupby("bucket").map_groups(finalize,
                                              batch_format="pandas")


def triangle_counts(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per-node triangle counts over the UNDIRECTED graph induced by an
    edge Dataset ``(src, dst)`` — returns ``(node, triangles)`` for every
    node in at least one triangle.

    Degree-ordered orientation (the standard wedge bound): each
    undirected edge points from the (degree, node)-smaller endpoint to
    the larger, so every node's OUT-degree is O(sqrt(m)) amortized for
    ANY degree distribution — a hub of degree d generates ~0 wedges
    instead of C(d, 2). Wedges (pairs of out-neighbors) close into
    triangles via one pair-bucket semi-join against the undirected edge
    set; each triangle is found exactly once (at its orientation-minimal
    corner).

    Scale shape: five bounded exchanges, all on the Arrow-IPC blob
    pattern (``stages/exchange.py``) with pure-int64 payloads — distinct,
    degree-attach(u) (degrees counted in-bucket from endpoint slices, no
    separate degree exchange), degree-attach(v)+orient, wedge-closure,
    corner-count — the wedge volume (Σ C(outdeg, 2), ~35M rows on the
    sf0.1 co-purchase graph) and the corner volume (3 per triangle)
    never hit a sort as raw rows: wedges pack per pair bucket at the
    source and corners pre-aggregate per closure bucket.
    """
    und = _undirected_distinct(edges).materialize()

    def attach_v_orient(group: pd.DataFrame) -> pa.Table:
        return _attach_v_orient(group)[0]

    def wedges(group: pd.DataFrame) -> pa.Table:
        return _wedge_blobs(unpack(group))

    def edge_probe_blobs(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pack_by(pa.table({"x": pa.array(u), "y": pa.array(v)}),
                       _pair_bucket(u, v))

    def close_triangles(group: pd.DataFrame) -> pd.DataFrame:
        """A wedge (x, y) closes iff the undirected edge {x, y} exists in
        this bucket; corner counts PRE-AGGREGATE per bucket (a dense
        graph yields millions of triangles — 3 raw corner rows each
        would dominate the final exchange)."""
        empty = pd.DataFrame({"kb": pd.Series([], dtype="int64"),
                              "node": pd.Series([], dtype="int64"),
                              "c": pd.Series([], dtype="int64")})
        tabs = unpack(group)
        eg = [t for t in tabs if "center" not in t.column_names]
        wg = [t for t in tabs if "center" in t.column_names]
        if not eg or not wg:
            return empty
        e = pa.concat_tables(eg).to_pandas()
        w = pa.concat_tables(wg).to_pandas()
        m = w.merge(e, on=["x", "y"], how="inner")
        if m.empty:
            return empty
        node = np.concatenate([
            m["x"].to_numpy(dtype=np.int64),
            m["y"].to_numpy(dtype=np.int64),
            m["center"].to_numpy(dtype=np.int64),
        ])
        part = (pd.DataFrame({"node": node})
                .groupby("node", as_index=False, sort=False).size())
        n = part["node"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"kb": _ibucket(n), "node": n,
                             "c": part["size"].astype("int64")})

    def count_tris(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("node", as_index=False, sort=False)["c"].sum()
        return pd.DataFrame({"node": out["node"].astype("int64"),
                             "triangles": out["c"].astype("int64")})

    return (
        und.map_batches(_pack_first, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_attach_u, batch_format="pandas")
        .groupby("bucket")
        .map_groups(attach_v_orient, batch_format="pandas")
        .groupby("bucket")
        .map_groups(wedges, batch_format="pandas")
        .union(und.map_batches(edge_probe_blobs, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(close_triangles, batch_format="pandas")
        .groupby("kb")
        .map_groups(count_tris, batch_format="pandas")
    )


def edge_support(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per-EDGE triangle support over the undirected graph induced by
    ``(src, dst)`` edges: for every undirected edge {u, v} (canonical
    u < v), the number of triangles containing it — i.e. the common-
    neighbor count |N(u) ∩ N(v)| — plus both endpoint degrees. Returns
    ``(u, v, support, deg_u, deg_v)`` for EVERY distinct edge
    (support 0 included). The k-truss building block, and the
    structural-similarity join: Jaccard(N(u)\\{v}, N(v)\\{u}) =
    support / (deg_u + deg_v - 2 - support), all integers.

    Scale shape: the triangle_counts wedge pipeline (degree-ordered
    orientation bounds per-node fan-out at O(sqrt(m)); wedges close
    against the edge set in one pair-bucket semi-join), but each closed
    triangle {x, y, c} credits its THREE edges instead of its corners —
    partials pre-aggregate per pair bucket, one more bucketed sum joins
    them back onto the degree-decorated edge list. Exact integer
    counts: bitwise-deterministic at any parallelism and SQL-oracle-
    expressible (three-way self-join). The first three stages
    (:func:`_pack_first`, :func:`_attach_u`, :func:`_attach_v_orient`)
    and the wedge pairing (:func:`_wedge_blobs`) are triangle_counts'
    own; reference n/a — engine-level extension.
    """
    und = _undirected_distinct(edges).materialize()

    def attach_v_orient(group: pd.DataFrame) -> pa.Table:
        """Besides the wedge slices, emit the fully-decorated edge rows
        keyed by their pair bucket — where closure counts will land."""
        wedge_slices, decorated = _attach_v_orient(group)
        if decorated is None:
            return wedge_slices
        u, v, du, dv = decorated
        edge_rows = pack_by(
            pa.table({"u": pa.array(u), "v": pa.array(v),
                      "du": pa.array(du), "dv": pa.array(dv)}),
            _pair_bucket(u, v))
        return pa.concat_tables([wedge_slices, edge_rows])

    def wedges(group: pd.DataFrame) -> pa.Table:
        """:func:`_wedge_blobs` over the oriented slices; decorated edge
        rows (du present) pass through unchanged, they are already
        keyed by their pair bucket."""
        tabs = unpack(group)
        b = int(group["bucket"].iloc[0])
        out = [blob_row(t, b) for t in tabs if "du" in t.column_names]
        wt = [t for t in tabs if "tail" in t.column_names]
        if wt:
            out.append(_wedge_blobs(wt))
        return pa.concat_tables(out) if out else EMPTY_BLOBS

    def close_and_credit(group: pd.DataFrame) -> pd.DataFrame:
        """Wedge (x, y) with center c closes iff edge {x, y} lives in
        this bucket; each triangle credits all THREE of its edges.
        Support partials pre-aggregate per (pair-bucket, u, v) before
        the final bucketed sum; decorated edge rows re-key unchanged."""
        empty = pd.DataFrame({
            "pb": pd.Series([], dtype="int64"),
            "u": pd.Series([], dtype="int64"),
            "v": pd.Series([], dtype="int64"),
            "c": pd.Series([], dtype="int64"),
            "du": pd.Series([], dtype="int64"),
            "dv": pd.Series([], dtype="int64"),
            "kind": pd.Series([], dtype="int64")})
        tabs = unpack(group)
        out = []
        eg = [t for t in tabs if "du" in t.column_names]
        if eg:
            e = pa.concat_tables(eg).to_pandas()
            u = e["u"].to_numpy(dtype=np.int64)
            v = e["v"].to_numpy(dtype=np.int64)
            out.append(pd.DataFrame({
                "pb": _pair_bucket(u, v), "u": u, "v": v,
                "c": np.zeros(len(u), dtype=np.int64),
                "du": e["du"].to_numpy(dtype=np.int64),
                "dv": e["dv"].to_numpy(dtype=np.int64),
                "kind": np.zeros(len(u), dtype=np.int64)}))
        wg = [t for t in tabs if "center" in t.column_names]
        if eg and wg:
            e = out[0][["u", "v"]].rename(columns={"u": "x", "v": "y"})
            w = pa.concat_tables(wg).to_pandas()
            m = w.merge(e.drop_duplicates(), on=["x", "y"], how="inner")
            if len(m):
                x = m["x"].to_numpy(dtype=np.int64)
                y = m["y"].to_numpy(dtype=np.int64)
                c = m["center"].to_numpy(dtype=np.int64)
                eu = np.concatenate([x, np.minimum(x, c),
                                     np.minimum(y, c)])
                ev = np.concatenate([y, np.maximum(x, c),
                                     np.maximum(y, c)])
                part = (pd.DataFrame({"u": eu, "v": ev})
                        .groupby(["u", "v"], as_index=False, sort=False)
                        .size())
                pu = part["u"].to_numpy(dtype=np.int64)
                pv = part["v"].to_numpy(dtype=np.int64)
                out.append(pd.DataFrame({
                    "pb": _pair_bucket(pu, pv), "u": pu, "v": pv,
                    "c": part["size"].astype("int64"),
                    "du": np.zeros(len(pu), dtype=np.int64),
                    "dv": np.zeros(len(pu), dtype=np.int64),
                    "kind": np.ones(len(pu), dtype=np.int64)}))
        if not out:
            return empty
        return pd.concat(out, ignore_index=True)[empty.columns]

    def final_sum(group: pd.DataFrame) -> pd.DataFrame:
        edges_g = group.loc[group["kind"] == 0, ["u", "v", "du", "dv"]]
        cr = (group.loc[group["kind"] == 1]
              .groupby(["u", "v"], as_index=False, sort=False)["c"].sum())
        m = edges_g.merge(cr, on=["u", "v"], how="left")
        sup = m["c"].fillna(0).astype("int64")
        return pd.DataFrame({
            "u": m["u"].astype("int64"), "v": m["v"].astype("int64"),
            "support": sup,
            "deg_u": m["du"].astype("int64"),
            "deg_v": m["dv"].astype("int64")})

    return (
        und.map_batches(_pack_first, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_attach_u, batch_format="pandas")
        .groupby("bucket")
        .map_groups(attach_v_orient, batch_format="pandas")
        .groupby("bucket")
        .map_groups(wedges, batch_format="pandas")
        .groupby("bucket")
        .map_groups(close_and_credit, batch_format="pandas")
        .groupby("pb")
        .map_groups(final_sum, batch_format="pandas")
    )


def bfs_hops(edges: ray.data.Dataset, sources: ray.data.Dataset,
             max_hops: int = 3) -> ray.data.Dataset:
    """Multi-source BFS over directed ``(src, dst)`` edges: returns
    ``(node, hops)`` — the minimum hop distance from ANY source — for
    every node reachable within ``max_hops`` (sources themselves at
    hops=0, whether or not they appear in the edge set). Fourth member
    of the graph family — a BOUNDED-FRONTIER propagation (vs pagerank's
    fixed power iterations, dup_clusters' converging min-label, and
    kcore's fixpoint peel).

    Integer mins only → order-independent, bitwise-deterministic at any
    parallelism, and exactly reproducible by a bounded recursive CTE
    (``WHERE d < max_hops``) — a hash-exact oracle.

    Scale shape (Arrow-IPC blob exchange, ``stages/exchange.py``): edge
    blobs keyed by kb(src) build once and ride every superstep
    unparsed; distance state lives as one blob per bucket. Each round
    is ONE fused groupby: finalize this bucket's mins, detect the
    frontier (a node's min equals r-1 exactly when its first candidate
    arrived this round — candidates carrying value v are only ever
    emitted in round v), and send (dst, r) candidates down the
    frontier's out-edges, pre-deduplicated per destination. Work per
    round is proportional to the FRONTIER's out-edges, not the graph —
    the textbook BFS bound. Driver memory O(1); ``max_hops`` rounds,
    no convergence scalar needed (the hop budget bounds the loop).
    Reference n/a — engine-level extension, like dup_clusters.
    """

    def pack_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        et = pa.table({"node": pa.array(src), "dst": pa.array(dst)})
        return pack_by(et, _ibucket(src))

    static = (
        edges.map_batches(pack_edges, batch_format="pyarrow")
        .materialize()
    )

    def seed(batch: pa.Table) -> pa.Table:
        node = np.unique(
            batch.column("node").to_numpy(zero_copy_only=False)
            .astype(np.int64))
        dt = pa.table({"node": pa.array(node),
                       "d": pa.array(np.zeros(len(node), dtype=np.int64))})
        return pack_by(dt, _ibucket(node))

    state = checkpoint(sources.map_batches(seed, batch_format="pyarrow"))

    def _merged_dists(tabs: list) -> pd.DataFrame:
        dt = [t for t in tabs if "d" in t.column_names]
        if not dt:
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "d": pd.Series([], dtype="int64")})
        d = pa.concat_tables(dt).to_pandas()
        return d.groupby("node", as_index=False, sort=False)["d"].min()

    def make_superstep(r: int):
        def superstep(group: pd.DataFrame) -> pa.Table:
            tabs = unpack(group)
            merged = _merged_dists(tabs)
            if merged.empty:
                return EMPTY_BLOBS   # edges-only bucket: nothing reached yet
            out = [blob_row(pa.Table.from_pandas(merged, preserve_index=False),
                            int(group["bucket"].iloc[0]))]
            frontier = merged[merged["d"] == r - 1]
            et = [t for t in tabs if "dst" in t.column_names]
            if len(frontier) and et:
                e = pa.concat_tables(et).to_pandas()
                m = e.merge(frontier[["node"]], on="node", how="inner")
                dsts = np.unique(m["dst"].to_numpy(dtype=np.int64))
                if len(dsts):
                    cand = pa.table({
                        "node": pa.array(dsts),
                        "d": pa.array(np.full(len(dsts), r, dtype=np.int64)),
                    })
                    out.append(pack_by(cand, _ibucket(dsts)))
            return pa.concat_tables(out)
        return superstep

    for r in range(1, max_hops + 1):
        # checkpoint, not materialize: cuts lineage so round r+1's plan
        # does not embed round r's (exchange.py::checkpoint rationale);
        # repartition pins block count against union growth
        state = checkpoint(
            state.union(static)
            .groupby("bucket")
            .map_groups(make_superstep(r), batch_format="pandas")
            .repartition(16)
        )

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        merged = _merged_dists(unpack(group))
        return pd.DataFrame({"node": merged["node"].astype("int64"),
                             "hops": merged["d"].astype("int64")})

    # the loop's last round emitted candidates valued max_hops that are
    # still unmerged — the final pass folds them in (and needs no edges)
    return state.groupby("bucket").map_groups(finalize,
                                              batch_format="pandas")


def kcore(edges: ray.data.Dataset, k: int,
          max_rounds: int = 100) -> ray.data.Dataset:
    """The k-CORE of the undirected graph induced by ``(src, dst)``
    edges: the maximal subgraph in which every node has degree ≥ k.
    Returns ``(node, core_deg)`` for the surviving nodes (degree
    measured inside the core). Third member of the graph family — a
    FIXPOINT-PEELING iteration (vs pagerank's fixed power iterations
    and dup_clusters' converging label propagation): each round drops
    every node with degree < k and the edges touching it; removing a
    node lowers its neighbors' degrees, so peeling cascades until an
    edge-count fixpoint (unchanged edge count ⟹ unchanged degrees ⟹
    unchanged alive set).

    Scale shape: per round, TWO blob-exchange groupbys (filter by the
    u endpoint's aliveness, then by v's — both against the SAME round's
    degree snapshot, recomputed in-bucket from endpoint slices exactly
    like triangle_counts' degree attach) + one tiny count aggregation
    for the convergence scalar. Deterministic (integer degrees only);
    differential pytest vs a sequential peel. Not SQL-expressible (a
    fixpoint over aggregates) → rows-only driver check.
    """
    alive = checkpoint(_undirected_distinct(edges))

    def filter_side(key_col: str):
        def fn(group: pd.DataFrame) -> pd.DataFrame:
            tabs = unpack(group)
            et = [t for t in tabs if "u" in t.column_names]
            if not et:
                return pd.DataFrame({"u": pd.Series([], dtype="int64"),
                                     "v": pd.Series([], dtype="int64")})
            nt = [t for t in tabs if "node" in t.column_names]
            deg = (pa.concat_tables(nt).to_pandas()
                   .groupby("node").size()) if nt else pd.Series(dtype=int)
            alive_set = deg[deg >= k].index
            e = pa.concat_tables(et).to_pandas()
            return e[e[key_col].isin(alive_set)][["u", "v"]]
        return fn

    prev = -1
    converged = False
    for _ in range(max_rounds):
        # endpoint slices come from THIS round's full edge set in both
        # passes: both endpoint filters use one consistent degree
        # snapshot (sequential peel removes the same node set)
        # checkpoint, not materialize: the round derives from BOTH
        # half and alive, so nested plans double per round (measured
        # 2^r round walls — stages/exchange.py::checkpoint)
        half = checkpoint(
            alive.map_batches(_pack_first, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(filter_side("u"), batch_format="pandas")
        )

        def repack_v(batch: pa.Table) -> pa.Table:
            u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
            return pack_by(pa.table({"u": pa.array(u), "v": pa.array(v)}),
                           _ibucket(v))

        alive = checkpoint(
            half.map_batches(repack_v, batch_format="pyarrow")
            .union(alive.map_batches(_endpoint_blobs,
                                     batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(filter_side("v"), batch_format="pandas")
            .repartition(16)
        )
        n = alive.count()
        if n == prev:
            converged = True
            break
        prev = n
    if not converged:
        # a silent fallthrough would return a NON-k-core remnant (long
        # cascades, e.g. a path with k=2, peel only 2 nodes per round)
        raise RuntimeError(
            f"kcore did not reach a fixpoint within max_rounds={max_rounds} "
            f"(edges still changing: {prev} -> {n}); raise max_rounds")

    return _degrees(alive, "core_deg")


def common_neighbor_pairs(
    edges: ray.data.Dataset, min_common: int = 2,
    max_center_degree: int | None = None,
    include_edges: bool = False,
) -> ray.data.Dataset:
    """LINK PREDICTION by common-neighbor counting: for every pair of
    nodes that is NOT an edge of the undirected graph induced by
    ``edges`` ``(src, dst)``, count the neighbors they share, and keep
    pairs with ``common >= min_common`` — the classic structural
    link-prediction score (Liben-Nowell & Kleinberg 2003; the
    "customers who bought X also bought Y" candidate generator).
    Returns ``(u, v, common)`` with u < v. With
    ``include_edges=True`` the edge anti-filter is skipped and EVERY
    pair with ``common >= min_common`` is returned (adjacent or not) —
    the input to wedge-pair statistics like 4-cycle counting, where a
    pair's common-neighbor count is wanted regardless of adjacency.

    Exact integer counts → bitwise-deterministic at any parallelism and
    reproducible by the wedge self-join in ANSI SQL.

    Scale shape: three bounded exchanges. (1) undirected distinct
    (pair-bucket); (2) adjacency grouped by CENTER bucket — a center's
    full neighbor set lands in one group, so per-center degree is
    locally complete and the C(deg, 2) wedge expansion is one
    vectorized pandas self-merge emitting per-bucket PARTIAL pair
    counts (centers are disjoint across buckets, so partials sum
    exactly); (3) pair-bucket merge summing partials, anti-filtering
    pairs that are already edges (edge markers ride the same
    exchange), and applying the ``min_common`` floor. The wedge
    volume is Σ C(deg, 2) — unlike triangle counting there is no
    degree-ordered orientation to hide hubs behind (a hub's wedges ARE
    the candidates), so ``max_center_degree`` is the scale knob: it
    drops hub centers from the evidence (mirrored in any oracle), the
    standard cap for power-law graphs where a hub's co-occurrence
    carries no signal.
    """

    und = edges if set(edges.schema().names) >= {"u", "v"} \
        else _undirected_distinct(edges)

    def adj_rows(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        ctr = np.concatenate([u, v])
        nbr = np.concatenate([v, u])
        return pa.table({"cb": pa.array(_ibucket(ctr)),
                         "ctr": pa.array(ctr), "nbr": pa.array(nbr)})

    def wedge_partials(group: pd.DataFrame) -> pa.Table:
        # returns Arrow so the union with edge_markers is block-type
        # uniform (mixed pandas/Arrow blocks break the sort sampler)
        g = group[["ctr", "nbr"]]
        if max_center_degree is not None:
            deg = g.groupby("ctr", sort=False)["nbr"].transform("size")
            g = g[deg <= max_center_degree]
        m = g.merge(g, on="ctr")
        m = m[m["nbr_x"] < m["nbr_y"]]
        part = (m.groupby(["nbr_x", "nbr_y"], sort=False)
                .size().reset_index(name="c"))
        a = part["nbr_x"].to_numpy(dtype=np.int64)
        b = part["nbr_y"].to_numpy(dtype=np.int64)
        return pa.table({
            "pb": pa.array(_pair_bucket(a, b)),
            "a": pa.array(a), "b": pa.array(b),
            "c": pa.array(part["c"].to_numpy(dtype=np.int64)),
            "is_edge": pa.array(np.zeros(len(a), dtype=np.int64)),
        })

    def edge_markers(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "pb": pa.array(_pair_bucket(u, v)),
            "a": pa.array(u), "b": pa.array(v),
            "c": pa.array(np.zeros(len(u), dtype=np.int64)),
            "is_edge": pa.array(np.ones(len(u), dtype=np.int64)),
        })

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby(["a", "b"], as_index=False, sort=False).agg(
            common=("c", "sum"), edge=("is_edge", "max"))
        adj_ok = True if include_edges else (agg["edge"] == 0)
        keep = agg[adj_ok & (agg["common"] >= min_common)]
        return pd.DataFrame({
            "u": keep["a"].astype("int64"),
            "v": keep["b"].astype("int64"),
            "common": keep["common"].astype("int64"),
        })

    wedges = (
        und.map_batches(adj_rows, batch_format="pyarrow")
        .groupby("cb")
        .map_groups(wedge_partials, batch_format="pandas")
    )
    markers = und.map_batches(edge_markers, batch_format="pyarrow")
    return wedges.union(markers).groupby("pb").map_groups(
        finalize, batch_format="pandas")


def minimum_spanning_forest(
    edges: ray.data.Dataset, max_rounds: int = 32,
    max_jumps: int = 40,
) -> ray.data.Dataset:
    """Distributed Borůvka minimum spanning forest over a weighted
    edge Dataset ``(src, dst, w)`` (int64; undirected interpretation,
    parallel/duplicate edges reduced to the lightest).

    Edge weights are totally ordered by ``(w, ua, ub)`` over canonical
    endpoints, so every edge is distinct and the MSF is UNIQUE —
    making the op deterministic at any parallelism and differential-
    testable against sequential Kruskal.

    Each Borůvka round runs entirely as bounded-bucket exchanges
    (driver sees only scalar counts):

    1. CHOOSE — symmetric (component → incident edge) messages meet in
       a component-hash groupby; one vectorized lexsort picks each
       component's minimum edge. With distinct weights the chosen
       functional graph parent(c) = neighbor-component has only
       2-cycles, broken toward the smaller id (the classic Borůvka
       argument).
    2. CONTRACT — pointer jumping (label ← label(label), the
       dup_clusters trick) flattens chosen chains to their roots in
       O(log depth) exchanges, with an exact changed-row count as the
       fixpoint test.
    3. RELABEL — edges rejoin the new component labels (two bucketed
       merges), self-loops drop, and parallel edges between merged
       components reduce to their minimum — the edge set at least
       halves every round, so rounds ≤ log2(n).

    Chosen edges accumulate as a Dataset (checkpointed per round —
    the iterative-lineage rule) and are never driver-resident.
    Raises on non-convergence instead of returning a partial forest.
    """

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d, w = s[keep], d[keep], w[keep]
        ua, ub = np.minimum(s, d), np.maximum(s, d)
        return pa.table({
            "ua": pa.array(ua), "ub": pa.array(ub), "w": pa.array(w),
            "ca": pa.array(ua), "cb": pa.array(ub),
        })

    raw = checkpoint(edges.map_batches(canon, batch_format="pyarrow"))
    # exchange width tracks input size: every superstep pays per-group
    # Ray task overhead × n_buckets, so tiny graphs must not pay the
    # full 64-way fan-out (measured 33 s → ~10 s at sf0.01)
    nb = int(min(64, max(4, raw.count() // 20_000)))

    def add_pb(batch: pa.Table) -> pa.Table:
        ua = batch.column("ua").to_numpy(zero_copy_only=False)
        ub = batch.column("ub").to_numpy(zero_copy_only=False)
        return batch.append_column("pb", pa.array(_ibucket(
            ua * np.int64(1000003) + ub, nb)))

    def reduce_parallel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ca", "cb", "w", "ua", "ub"])
        return g.drop_duplicates(["ca", "cb"])[
            ["ua", "ub", "w", "ca", "cb"]]

    live = (raw.map_batches(add_pb, batch_format="pyarrow")
            .groupby("pb").map_groups(reduce_parallel,
                                      batch_format="pandas"))
    live = checkpoint(live)

    forest = None
    for _ in range(max_rounds):
        n_edges = live.count()
        if n_edges == 0:
            break

        # -- 1. CHOOSE: min incident edge per component ---------------
        def sym_msgs(batch: pa.Table) -> pa.Table:
            ua = batch.column("ua").to_numpy(zero_copy_only=False)
            ub = batch.column("ub").to_numpy(zero_copy_only=False)
            w = batch.column("w").to_numpy(zero_copy_only=False)
            ca = batch.column("ca").to_numpy(zero_copy_only=False)
            cb = batch.column("cb").to_numpy(zero_copy_only=False)
            comp = np.concatenate([ca, cb])
            other = np.concatenate([cb, ca])
            return pa.table({
                "kb": pa.array(_ibucket(comp.astype(np.int64), nb)),
                "comp": pa.array(comp), "other": pa.array(other),
                "w": pa.array(np.concatenate([w, w])),
                "ua": pa.array(np.concatenate([ua, ua])),
                "ub": pa.array(np.concatenate([ub, ub])),
            })

        def pick_min(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["comp", "w", "ua", "ub"])
            return g.drop_duplicates("comp")[
                ["comp", "other", "w", "ua", "ub"]]

        chosen = (live.map_batches(sym_msgs, batch_format="pyarrow")
                  .groupby("kb").map_groups(pick_min,
                                            batch_format="pandas"))
        chosen = checkpoint(chosen)

        # accumulate this round's tree edges (both endpoints may pick
        # the same edge — dedup on the canonical pair)
        def pair_rows(batch: pa.Table) -> pa.Table:
            ua = batch.column("ua").to_numpy(zero_copy_only=False)
            ub = batch.column("ub").to_numpy(zero_copy_only=False)
            return pa.table({
                "pb": pa.array(_ibucket(ua.astype(np.int64) * np.int64(1000003)
                                          + ub.astype(np.int64), nb)),
                "ua": pa.array(ua), "ub": pa.array(ub),
                "w": batch.column("w"),
            })

        def pair_dedup(g: pd.DataFrame) -> pa.Table:
            # arrow out: the result unions with the CHECKPOINTED forest
            # (arrow blocks) — mixed block types break the repartition
            return pa.Table.from_pandas(
                g.drop_duplicates(["ua", "ub"])[["ua", "ub", "w"]],
                preserve_index=False)

        new_tree = (chosen.map_batches(pair_rows, batch_format="pyarrow")
                    .groupby("pb").map_groups(pair_dedup,
                                              batch_format="pandas"))
        forest = (new_tree if forest is None
                  else forest.union(new_tree).repartition(8))
        forest = checkpoint(forest)

        # -- 2a. parent assignment with 2-cycle break ------------------
        # provider rows answer "what did component X choose?"; request
        # rows ask for parent(other). Row kinds are NON-NULL bools
        # (the 2^53 nullable-int64 rule).
        def parent_msgs(batch: pa.Table) -> pa.Table:
            comp = batch.column("comp").to_numpy(zero_copy_only=False)
            other = batch.column("other").to_numpy(zero_copy_only=False)
            prov = pa.table({
                "kb": pa.array(_ibucket(comp.astype(np.int64), nb)),
                "key": pa.array(comp), "comp": pa.array(comp),
                "other": pa.array(other),
                "is_prov": pa.array(np.ones(len(comp), dtype=bool)),
            })
            req = pa.table({
                "kb": pa.array(_ibucket(other.astype(np.int64), nb)),
                "key": pa.array(other), "comp": pa.array(comp),
                "other": pa.array(other),
                "is_prov": pa.array(np.zeros(len(comp), dtype=bool)),
            })
            return pa.concat_tables([prov, req])

        def assign_parent(g: pd.DataFrame) -> pd.DataFrame:
            prov = g[g["is_prov"]][["key", "other"]].rename(
                columns={"other": "others_choice"})
            req = g[~g["is_prov"]][["key", "comp", "other"]]
            # inner merge: `other` is a component with an incident
            # edge, so its chosen row (the provider) always exists —
            # and inner keeps the int64 dtype (a left merge would
            # null-fill to float64, the 2^53 id-rounding trap)
            m = req.merge(prov, on="key", how="inner")
            oc = m["others_choice"].to_numpy(dtype=np.int64)
            comp = m["comp"].to_numpy(dtype=np.int64)
            other = m["other"].to_numpy(dtype=np.int64)
            mutual = oc == comp
            parent = np.where(mutual & (comp < other), comp, other)
            return pd.DataFrame({"c": comp, "l": parent})

        labels = (chosen.map_batches(parent_msgs, batch_format="pyarrow")
                  .groupby("kb").map_groups(assign_parent,
                                            batch_format="pandas"))
        labels = checkpoint(labels)

        # -- 2b. pointer jumping to roots ------------------------------
        for _j in range(max_jumps):
            def jump_msgs(batch: pa.Table) -> pa.Table:
                c = batch.column("c").to_numpy(zero_copy_only=False)
                lab = batch.column("l").to_numpy(zero_copy_only=False)
                prov = pa.table({
                    "kb": pa.array(_ibucket(c.astype(np.int64), nb)),
                    "key": pa.array(c), "c": pa.array(c),
                    "l": pa.array(lab),
                    "is_prov": pa.array(np.ones(len(c), dtype=bool)),
                })
                req = pa.table({
                    "kb": pa.array(_ibucket(lab.astype(np.int64), nb)),
                    "key": pa.array(lab), "c": pa.array(c),
                    "l": pa.array(lab),
                    "is_prov": pa.array(np.zeros(len(c), dtype=bool)),
                })
                return pa.concat_tables([prov, req])

            def jump(g: pd.DataFrame) -> pd.DataFrame:
                prov = g[g["is_prov"]][["key", "l"]].rename(
                    columns={"l": "ll"})
                prov = prov.drop_duplicates("key")
                req = g[~g["is_prov"]][["key", "c", "l"]]
                # inner: every label value is itself a labelled
                # component (parents come from chosen components),
                # and inner preserves int64 (2^53 rule)
                m = req.merge(prov, on="key", how="inner")
                newl = m["ll"].to_numpy(dtype=np.int64)
                out = pd.DataFrame({"c": m["c"].to_numpy(dtype=np.int64),
                                    "l": newl})
                out["chg"] = (newl != m["l"].to_numpy(dtype=np.int64)
                              ).astype(np.int64)
                return out

            nxt = (labels.map_batches(jump_msgs, batch_format="pyarrow")
                   .groupby("kb").map_groups(jump, batch_format="pandas"))
            nxt = checkpoint(nxt)
            changed = nxt.sum("chg")
            labels = nxt.drop_columns(["chg"])
            if not changed:
                break
        else:
            raise RuntimeError(
                "minimum_spanning_forest: pointer jumping did not "
                f"converge in {max_jumps} jumps")

        # -- 3. RELABEL edges, drop self-loops, reduce parallels -------
        def relabel_pass(side: str):
            def msgs(batch: pa.Table) -> pa.Table:
                cols = {n: batch.column(n) for n in
                        ("ua", "ub", "w", "ca", "cb")}
                key = cols[side].to_numpy(zero_copy_only=False)
                t = pa.table({
                    "kb": pa.array(_ibucket(key.astype(np.int64), nb)),
                    "key": pa.array(key), **cols,
                    "l": pa.array(np.zeros(len(key), dtype=np.int64)),
                    "is_prov": pa.array(np.zeros(len(key), dtype=bool)),
                })
                return t

            def lab_rows(batch: pa.Table) -> pa.Table:
                c = batch.column("c").to_numpy(zero_copy_only=False)
                z = np.zeros(len(c), dtype=np.int64)
                return pa.table({
                    "kb": pa.array(_ibucket(c.astype(np.int64), nb)),
                    "key": pa.array(c),
                    "ua": pa.array(z), "ub": pa.array(z),
                    "w": pa.array(z), "ca": pa.array(z),
                    "cb": pa.array(z),
                    "l": batch.column("l"),
                    "is_prov": pa.array(np.ones(len(c), dtype=bool)),
                })

            def apply_lab(g: pd.DataFrame) -> pd.DataFrame:
                prov = g[g["is_prov"]][["key", "l"]].drop_duplicates("key")
                req = g[~g["is_prov"]][["key", "ua", "ub", "w",
                                        "ca", "cb"]]
                # inner merge: every live edge endpoint had an incident
                # edge this round, hence a chosen row, hence a label
                m = req.merge(prov, on="key", how="inner")
                out = m[["ua", "ub", "w", "ca", "cb"]].copy()
                out[side] = m["l"].to_numpy(dtype=np.int64)
                return out

            return msgs, lab_rows, apply_lab

        for side in ("ca", "cb"):
            msgs, lab_rows, apply_lab = relabel_pass(side)
            live = (live.map_batches(msgs, batch_format="pyarrow")
                    .union(labels.map_batches(lab_rows,
                                              batch_format="pyarrow"))
                    .groupby("kb")
                    .map_groups(apply_lab, batch_format="pandas"))

        def post_contract(batch: pa.Table) -> pa.Table:
            ua = batch.column("ua").to_numpy(zero_copy_only=False)
            ub = batch.column("ub").to_numpy(zero_copy_only=False)
            w = batch.column("w").to_numpy(zero_copy_only=False)
            ca = batch.column("ca").to_numpy(zero_copy_only=False).astype(np.int64)
            cb = batch.column("cb").to_numpy(zero_copy_only=False).astype(np.int64)
            keep = ca != cb
            ua, ub, w = ua[keep], ub[keep], w[keep]
            ca, cb = ca[keep], cb[keep]
            cx, cy = np.minimum(ca, cb), np.maximum(ca, cb)
            return pa.table({
                "pb": pa.array(_ibucket(cx * np.int64(1000003) + cy, nb)),
                "ua": pa.array(ua), "ub": pa.array(ub),
                "w": pa.array(w), "ca": pa.array(cx),
                "cb": pa.array(cy),
            })

        live = (live.map_batches(post_contract, batch_format="pyarrow")
                .groupby("pb").map_groups(reduce_parallel,
                                          batch_format="pandas")
                .repartition(16))
        live = checkpoint(live)
    else:
        raise RuntimeError(
            f"minimum_spanning_forest did not converge in {max_rounds} "
            "rounds")

    if forest is None:
        return ray.data.from_arrow(pa.table({
            "ua": pa.array([], pa.int64()), "ub": pa.array([], pa.int64()),
            "w": pa.array([], pa.int64())}))
    return forest


_BC_SCALE = np.int64(1 << 20)


def betweenness(edges: ray.data.Dataset, sources: list[int],
                max_levels: int = 32) -> ray.data.Dataset:
    """K-SOURCE BETWEENNESS CENTRALITY (Brandes) over the undirected
    graph — forward BFS levels computing shortest-path counts σ, then
    a level-by-level backward dependency accumulation
    δ(v) = Σ_{w: succ(v)} σ(v)/σ(w) · (1 + δ(w)), bc(v) = Σ_s δ_s(v).

    All ``len(sources)`` BFS trees advance TOGETHER: state rows are
    (node, src, dist, σ) so each superstep is one pair of bounded
    bucket exchanges regardless of k. The backward pass stores δ in
    2^20 FIXED POINT and floors each edge contribution
    ⌊σ_v·(S + δ_w)/σ_w⌋ BEFORE the integer sum — order-independent,
    so the result is bitwise-deterministic at any parallelism (a
    float δ would depend on neighbor visit order). The BFS DAG
    guarantees every successor of a level-(ℓ−1) node sits at level ℓ,
    so each node's δ finalizes in exactly one backward superstep.
    σ values are exact int64 with an explicit overflow guard (path
    counts can grow combinatorially on dense graphs).

    Returns a Dataset (node, bc_scaled) — δ sums over sources,
    excluding each tree's own root, in 2^20 fixed point. Rows-only at
    the driver (iterative, non-SQL); pytest holds a sequential-Brandes
    differential under the same flooring rule."""
    und = checkpoint(_undirected_distinct(edges))

    def adj_rows(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        a = np.concatenate([u, v]).astype(np.int64)
        b = np.concatenate([v, u]).astype(np.int64)
        z = np.zeros(len(a), dtype=np.int64)
        return pa.table({
            "kb": pa.array(_ibucket(a)),
            "node": pa.array(a), "other": pa.array(b),
            "src": pa.array(z), "dist": pa.array(z),
            "sigma": pa.array(z), "delta": pa.array(z),
            "kind": pa.array(np.zeros(len(a), dtype=np.int8)),
        })

    _SCHEMA_COLS = ["kb", "node", "other", "src", "dist", "sigma",
                    "delta", "kind"]
    # kind: 0 = adjacency, 1 = state/frontier, 2 = message
    adj = checkpoint(und.map_batches(adj_rows, batch_format="pyarrow"))

    def rows(node, other, src, dist, sigma, delta, kind, key=None):
        # Arrow out everywhere: checkpointed datasets are arrow-block,
        # and a union of mixed pandas/arrow blocks breaks the shuffle
        # (the MSF lesson)
        node = np.asarray(node, dtype=np.int64)
        return pa.table({
            "kb": pa.array(_ibucket(np.asarray(
                key if key is not None else node, dtype=np.int64))),
            "node": pa.array(node),
            "other": pa.array(np.asarray(other, dtype=np.int64)),
            "src": pa.array(np.asarray(src, dtype=np.int64)),
            "dist": pa.array(np.asarray(dist, dtype=np.int64)),
            "sigma": pa.array(np.asarray(sigma, dtype=np.int64)),
            "delta": pa.array(np.asarray(delta, dtype=np.int64)),
            "kind": pa.array(np.full(len(node), kind, dtype=np.int8)),
        })

    srcs = np.asarray(sorted(set(int(s) for s in sources)),
                      dtype=np.int64)
    state = ray.data.from_arrow(rows(
        srcs, np.zeros(len(srcs)), srcs, np.zeros(len(srcs)),
        np.ones(len(srcs)), np.zeros(len(srcs)), 1))
    frontier = state
    levels = 0

    # ---- forward BFS (σ) -------------------------------------------
    for lvl in range(max_levels):
        def fan_out(g: pd.DataFrame, _lvl=lvl) -> pd.DataFrame:
            a = g[g["kind"] == 0]
            f = g[(g["kind"] == 1) & (g["dist"] == _lvl)]
            if a.empty or f.empty:
                return pa.Table.from_pandas(g.iloc[0:0],
                                            preserve_index=False)
            nbrs = a[["node", "other"]].rename(
                columns={"other": "nbr"})
            m = f.merge(nbrs, on="node", how="inner")
            return rows(m["nbr"], np.zeros(len(m)), m["src"],
                        np.full(len(m), _lvl), m["sigma"],
                        np.zeros(len(m)), 2)

        def absorb(g: pd.DataFrame, _lvl=lvl) -> pd.DataFrame:
            msgs = g[g["kind"] == 2]
            if msgs.empty:
                return pa.Table.from_pandas(g.iloc[0:0],
                                            preserve_index=False)
            st = g[g["kind"] == 1][["node", "src"]]
            agg = (msgs.groupby(["node", "src"], as_index=False)
                   ["sigma"].sum())
            if len(st):
                seen = st.assign(_seen=True)
                agg = agg.merge(seen, on=["node", "src"], how="left")
                agg = agg[agg["_seen"].isna()]
            if (agg["sigma"] > (1 << 61)).any():
                raise OverflowError(
                    "betweenness: sigma exceeded 2^61")
            return rows(agg["node"], np.zeros(len(agg)), agg["src"],
                        np.full(len(agg), _lvl + 1), agg["sigma"],
                        np.zeros(len(agg)), 1)

        msgs = (adj.union(frontier).groupby("kb")
                .map_groups(fan_out, batch_format="pandas"))
        new = (msgs.union(state).groupby("kb")
               .map_groups(absorb, batch_format="pandas"))
        new = checkpoint(new)
        if new.count() == 0:
            levels = lvl
            break
        state = checkpoint(state.union(new).repartition(16))
        frontier = new
    else:
        raise RuntimeError(
            f"betweenness: BFS did not converge in {max_levels} levels")

    # ---- backward dependency accumulation (δ, fixed point) ----------
    deltas = None      # rows kind=1 with delta set, keyed by node
    for lvl in range(levels, 0, -1):
        def send(g: pd.DataFrame, _lvl=lvl) -> pd.DataFrame:
            a = g[g["kind"] == 0]
            w = g[(g["kind"] == 1) & (g["dist"] == _lvl)]
            if a.empty or w.empty:
                return pa.Table.from_pandas(g.iloc[0:0],
                                            preserve_index=False)
            d = g[g["kind"] == 3][["node", "src", "delta"]]
            if len(d):
                # nullable Int64 (not float64) through the left merge:
                # missing deltas are 0, and float64 would round scaled
                # deltas above 2^53 (the repo-wide id-rounding rule)
                d = d.astype({"delta": "Int64"})
                w = w.drop(columns=["delta"]).merge(
                    d, on=["node", "src"], how="left")
                w["delta"] = w["delta"].fillna(0).astype(np.int64)
            nbrs = a[["node", "other"]].rename(
                columns={"other": "nbr"})
            m = w.merge(nbrs, on="node", how="inner")
            # message carries (σ_w, δ_w) to neighbor v; keyed by v
            return rows(m["nbr"], np.zeros(len(m)), m["src"],
                        np.full(len(m), _lvl), m["sigma"], m["delta"],
                        2, key=m["nbr"])

        def receive(g: pd.DataFrame, _lvl=lvl) -> pd.DataFrame:
            msgs = g[g["kind"] == 2]
            v = g[(g["kind"] == 1) & (g["dist"] == _lvl - 1)]
            if msgs.empty or v.empty:
                return pa.Table.from_pandas(g.iloc[0:0],
                                            preserve_index=False)
            m = msgs.merge(
                v[["node", "src", "sigma"]].rename(
                    columns={"sigma": "sigma_v"}),
                on=["node", "src"], how="inner")
            if m.empty:
                return pa.Table.from_pandas(g.iloc[0:0],
                                            preserve_index=False)
            sv = m["sigma_v"].to_numpy(dtype=np.int64)
            sw = m["sigma"].to_numpy(dtype=np.int64)
            dw = m["delta"].to_numpy(dtype=np.int64)
            contrib = sv * (_BC_SCALE + dw) // sw
            d = pd.DataFrame({
                "node": m["node"].to_numpy(dtype=np.int64),
                "src": m["src"].to_numpy(dtype=np.int64),
                "c": contrib,
            }).groupby(["node", "src"], as_index=False)["c"].sum()
            return rows(d["node"], np.zeros(len(d)), d["src"],
                        np.full(len(d), _lvl - 1),
                        np.zeros(len(d)), d["c"], 3)

        senders_in = adj.union(state)
        if deltas is not None:
            senders_in = senders_in.union(deltas)
        msgs = (senders_in.groupby("kb")
                .map_groups(send, batch_format="pandas"))
        new_d = (msgs.union(state).groupby("kb")
                 .map_groups(receive, batch_format="pandas"))
        new_d = checkpoint(new_d)
        deltas = (new_d if deltas is None
                  else checkpoint(deltas.union(new_d).repartition(8)))

    if deltas is None:
        return ray.data.from_pandas(pd.DataFrame({
            "node": pd.Series([], dtype="int64"),
            "bc_scaled": pd.Series([], dtype="int64"),
        }))

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g[(g["kind"] == 3) & (g["node"] != g["src"])]
        out = g.groupby("node", as_index=False)["delta"].sum()
        return pd.DataFrame({
            "node": out["node"].astype("int64"),
            "bc_scaled": out["delta"].astype("int64"),
        })

    return deltas.groupby("kb").map_groups(finalize,
                                           batch_format="pandas")


def ktruss(edges: ray.data.Dataset, k: int,
           max_rounds: int = 64) -> tuple:
    """K-TRUSS DECOMPOSITION (iterative support peel): the maximal
    subgraph in which every edge participates in at least ``k − 2``
    triangles AMONG SURVIVING EDGES — the cohesion notion between
    k-core (degree peel, :func:`kcore`) and cliques, standard for
    mining tightly-knit product/community clusters. Each round runs
    the :func:`edge_support` wedge pipeline on the surviving edge set,
    drops under-supported edges, and repeats to fixpoint; the edge
    count strictly decreases, so termination is structural
    (``max_rounds`` is a backstop only). Returns
    ``(edges_df, n_rounds)`` where ``edges_df`` holds the canonical
    surviving ``(u, v)`` pairs, u < v, sorted.

    Scale shape: per round the full wedge/closure cost of
    edge_support (∝ Σ C(outdeg, 2) on the CURRENT subgraph — it
    shrinks every round) plus one filter; survivors re-checkpoint so
    round r+1's lineage does not nest round r's (the exchange.py
    iterative-loop rule). Driver state is one integer per round.
    Reference n/a — engine-level op."""
    cur = _undirected_distinct(edges)
    prev = None
    rounds = 0
    thresh = k - 2
    while rounds < max_rounds:
        sup = edge_support(
            cur.map_batches(
                lambda b: b.rename_columns(["src", "dst"]),
                batch_format="pyarrow"))

        def keep(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            m = pc.greater_equal(batch.column("support"), thresh)
            return batch.filter(m).select(["u", "v"])

        cur = checkpoint(sup.map_batches(keep, batch_format="pyarrow"))
        n = cur.count()
        rounds += 1
        if n == 0 or n == prev:
            break
        prev = n
    out = cur.to_pandas()
    if len(out) == 0:
        return (pd.DataFrame({"u": pd.Series([], dtype="int64"),
                              "v": pd.Series([], dtype="int64")}),
                rounds)
    return (out.astype({"u": "int64", "v": "int64"})
            .sort_values(["u", "v"]).reset_index(drop=True), rounds)
