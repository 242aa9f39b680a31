"""Distributed k-means (Lloyd) over an embedding column — the iterative
ML primitive a training-data pipeline uses for corpus bucketing /
curriculum binning / IVF list building. Reference n/a — engine-level op
(the reference is a transform library, SURVEY.md §2.6).

Bit-deterministic by construction, independent of batching and task
order (the repo's determinism creed, CLAUDE.md):

- Per-point sums accumulate in FIXED-POINT int64 (``round(x · 2^20)``),
  so partial sums are exact integers and any reduction order yields the
  same total — no float-summation order sensitivity. The driver merges
  partials in Python ints (arbitrary precision), so 10^12-row clusters
  cannot wrap (per-batch partials stay bounded int64).
- Centroid update is ONE float64 division of exact integers
  (``sum_fp / (count · 2^20)``) — identical on every host.
- Assignment is ``argmin(-2·X·Cᵀ + |C|²)`` in float64 from the same
  centroid bits; numpy argmin breaks ties toward the lowest cluster id.
- Init = the vectors of the k smallest ids (found via per-batch
  partial top-k, a bounded reduce — no driver scan).

Scale shape: each iteration is one streaming pass (map_batches → tiny
per-batch partials of k rows each); the driver holds k×d centroid
state only. The quantization (2^-20 per coordinate) is the documented
accuracy trade for order-free exactness — at unit-scale embeddings it
is far below any meaningful cluster geometry.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

# fixed-point grid for exact integer distances; the k-center oracle
# imports it
GRID_SCALE = float(1 << 20)


def _batch_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    """(rows, d) float64 matrix from a list<float> column (one flatten,
    no per-row Python)."""
    col = batch.column(vec_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _assign(x: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """argmin squared distance; ties -> lowest cluster id (np.argmin)."""
    scores = -2.0 * (x @ cent.T) + (cent * cent).sum(axis=1)
    return np.argmin(scores, axis=1).astype(np.int64)


def fit_centroids(
    embeddings: ray.data.Dataset, k: int = 8, iters: int = 8,
    vec_col: str = "embedding", id_col: str = "vec_id",
) -> np.ndarray:
    """Lloyd iterations only — returns the final (k, d) float64 centroid
    matrix WITHOUT materializing per-point assignments on the driver
    (the scale entry point for downstream per-batch assignment, e.g.
    :func:`semdedup`). Same fixed-point determinism as :func:`kmeans`."""
    # ---- init: vectors of the k smallest ids (bounded partial top-k)
    def seed_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             vec_col: batch.column(vec_col).slice(0, 0)})
        # keep ALL rows carrying the batch's k smallest DISTINCT ids —
        # dropping same-id rows here could discard the row the driver's
        # content tie-break would have picked, or starve a later
        # distinct id out of the global top-k
        uniq = np.unique(ids)  # sorted
        cut = uniq[min(k, len(uniq)) - 1]
        mask = ids <= cut
        return batch.select([id_col, vec_col]).filter(pa.array(mask))

    seeds = embeddings.map_batches(
        seed_partial, batch_format="pyarrow").to_pandas()
    # order by (id, vector BYTES): ids are normally unique, but if a
    # caller feeds duplicate ids the content tie-break keeps seeding
    # independent of block arrival order (a plain stable sort would
    # still be order-dependent across parallelism levels)
    seeds["_vb"] = [
        np.asarray(v, dtype=np.float64).tobytes() for v in seeds[vec_col]]
    seeds = (seeds.sort_values([id_col, "_vb"], kind="stable")
             .drop_duplicates(id_col, keep="first").head(k))
    cent = np.asarray(
        [np.asarray(v, dtype=np.float64) for v in seeds[vec_col]])
    if len(cent) == 0:
        return np.zeros((0, 0))
    k = len(cent)  # corpus smaller than k -> shrink
    d = cent.shape[1]

    # ---- Lloyd iterations: one streaming pass each. The centroid
    # matrix is k×d float64 (a few KB) — ship it inside a plain task
    # function closure instead of spinning an actor pool per iteration
    for _ in range(iters):
        def partial_fn(batch: pa.Table, _cent=cent) -> pa.Table:
            x = _batch_matrix(batch, vec_col)
            if x.shape[0] == 0:
                return pa.table({
                    "cluster": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sums": pa.array([], pa.large_binary()),
                })
            a = _assign(x, _cent)
            x_fp = np.rint(x * GRID_SCALE).astype(np.int64)
            uniq = np.unique(a)
            sums, ns = [], []
            for c in uniq:
                m = a == c
                ns.append(int(m.sum()))
                sums.append(x_fp[m].sum(axis=0).tobytes())
            return pa.table({
                "cluster": pa.array(uniq, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "sums": pa.array(sums, pa.large_binary()),
            })

        parts = embeddings.map_batches(
            partial_fn, batch_format="pyarrow",
        ).to_pandas()
        new_cent = cent.copy()  # empty clusters keep their centroid
        for c, grp in parts.groupby("cluster"):
            # Python-int merge: exact at any cluster size (no int64 wrap)
            tot = [0] * d
            for blob in grp["sums"]:
                v = np.frombuffer(blob, dtype=np.int64)
                for j in range(d):
                    tot[j] += int(v[j])
            n = int(grp["n"].sum())
            new_cent[int(c)] = np.array(
                [t / (n * GRID_SCALE) for t in tot], dtype=np.float64)
        cent = new_cent
    return cent


def kmeans(
    embeddings: ray.data.Dataset, k: int = 8, iters: int = 8,
    vec_col: str = "embedding", id_col: str = "vec_id",
) -> tuple[pd.DataFrame, np.ndarray]:
    """Lloyd's k-means; returns (assignments DataFrame sorted by id
    with columns ``(id_col, cluster)``, final (k, d) float64 centroids).
    Deterministic at any parallelism — see module docstring. The
    returned assignment frame is driver-resident (one row per point) —
    for corpora where that matters, use :func:`fit_centroids` and
    assign per batch downstream."""
    cent = fit_centroids(embeddings, k=k, iters=iters,
                         vec_col=vec_col, id_col=id_col)
    if cent.size == 0:
        return (pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                              "cluster": pd.Series([], dtype="int64")}),
                cent)

    # ---- final assignment pass (same small-closure shape)
    def assign_fn(batch: pa.Table, _cent=cent) -> pa.Table:
        x = _batch_matrix(batch, vec_col)
        ids = batch.column(id_col)
        if x.shape[0] == 0:
            return pa.table({id_col: ids,
                             "cluster": pa.array([], pa.int64())})
        return pa.table({id_col: ids,
                         "cluster": pa.array(_assign(x, _cent))})

    out = embeddings.map_batches(assign_fn, batch_format="pyarrow").to_pandas()
    # sort includes cluster so duplicate-id rows (different vectors →
    # possibly different clusters) come back in a content-determined
    # order, not block-arrival order; equal (id, cluster) rows are
    # interchangeable
    out = (out.astype({id_col: "int64", "cluster": "int64"})
           .sort_values([id_col, "cluster"], kind="stable")
           .reset_index(drop=True))
    return out, cent


def kmeans_reference(
    ids: np.ndarray, x: np.ndarray, k: int = 8, iters: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-node numpy reference implementing the SAME fixed-point
    algorithm — bitwise-identical to :func:`kmeans` at any parallelism
    (differential gate in tests/test_stages.py)."""
    # same seeding rule as kmeans: k smallest DISTINCT ids, duplicate
    # ids resolved by smallest float64 vector bytes (order-free)
    order = sorted(range(len(ids)),
                   key=lambda i: (ids[i], x[i].astype(np.float64).tobytes()))
    seen, seed_rows = set(), []
    for i in order:
        if ids[i] not in seen:
            seen.add(ids[i])
            seed_rows.append(i)
        if len(seed_rows) == k:
            break
    cent = x[seed_rows].astype(np.float64)
    k = len(cent)
    x = x.astype(np.float64)
    x_fp = np.rint(x * GRID_SCALE).astype(np.int64)
    for _ in range(iters):
        a = _assign(x, cent)
        new_cent = cent.copy()
        for c in range(k):
            m = a == c
            n = int(m.sum())
            if n:
                tot = [int(v) for v in x_fp[m].sum(axis=0)]
                new_cent[c] = np.array([t / (n * GRID_SCALE) for t in tot])
        cent = new_cent
    return _assign(x, cent), cent


def semdedup(
    embeddings: ray.data.Dataset, k: int = 8, iters: int = 8,
    threshold: float = 0.9,
    vec_col: str = "embedding", id_col: str = "vec_id",
) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540 — public method):
    SEMANTIC dedup = k-means bucket the embedding space, then inside
    each cluster greedily drop every point whose cosine similarity to
    an already-kept point exceeds ``threshold``; keep order is
    ascending id (ties by vector bytes), so the survivor set is
    deterministic at any parallelism. Complements the exact/LSH dup
    families: it removes *semantic* redundancy no literal hash can see.
    Reference n/a — engine-level op (SURVEY.md §2.6).

    Scale shape: centroids fit WITHOUT driver-resident assignments
    (:func:`fit_centroids`); assignment is a per-batch argmin against
    the closure-shipped k×d matrix; the quadratic cosine work happens
    per CLUSTER inside one bucket group — pick ``k`` ∝ corpus/target
    cluster size so a cluster fits a worker (the paper's regime), same
    contract as every bucketed map_groups in this repo. Returns the
    survivor frame ``(vec_id, cluster)`` sorted by id."""
    cent = fit_centroids(embeddings, k=k, iters=iters,
                         vec_col=vec_col, id_col=id_col)
    if cent.size == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "cluster": pd.Series([], dtype="int64")})

    def assign_fn(batch: pa.Table, _cent=cent) -> pa.Table:
        x = _batch_matrix(batch, vec_col)
        if x.shape[0] == 0:
            return pa.table({id_col: batch.column(id_col),
                             "cluster": pa.array([], pa.int64()),
                             "vb": pa.array([], pa.large_binary())})
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(_assign(x, cent)),
            # float64 row bytes: one blob per point — carries the vector
            # through the exchange without a list-column re-encode and
            # doubles as the duplicate-id tie-break key
            "vb": pa.array([r.tobytes() for r in x], pa.large_binary()),
        })

    def cluster_greedy(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "vb"], kind="stable").reset_index(drop=True)
        x = np.frombuffer(b"".join(g["vb"]), dtype=np.float64).reshape(
            len(g), -1)
        nrm = np.linalg.norm(x, axis=1)
        nrm[nrm == 0.0] = 1.0          # zero vectors: cos := 0 vs all
        u = x / nrm[:, None]
        kept: list[int] = []
        for i in range(len(g)):
            if not kept or float(np.max(u[kept] @ u[i])) <= threshold:
                kept.append(i)
        out = g.loc[kept, [id_col, "cluster"]]
        return out.astype({id_col: "int64", "cluster": "int64"})

    out = (
        embeddings.map_batches(assign_fn, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(cluster_greedy, batch_format="pandas")
        .to_pandas()
    )
    return (out.astype({id_col: "int64", "cluster": "int64"})
            .sort_values([id_col, "cluster"], kind="stable")
            .reset_index(drop=True))


def semdedup_reference(
    ids: np.ndarray, x: np.ndarray, k: int = 8, iters: int = 8,
    threshold: float = 0.9,
) -> list[tuple[int, int]]:
    """Single-node numpy reference for :func:`semdedup` — the same
    fixed-point k-means, the same greedy-by-id within-cluster cosine
    prune; bitwise-identical survivors at any parallelism (differential
    gate in tests/test_stages.py)."""
    a, _cent = kmeans_reference(ids, x, k=k, iters=iters)
    x = x.astype(np.float64)
    nrm = np.linalg.norm(x, axis=1)
    nrm[nrm == 0.0] = 1.0
    u = x / nrm[:, None]
    out: list[tuple[int, int]] = []
    for c in np.unique(a):
        idx = np.where(a == c)[0]
        idx = sorted(idx, key=lambda i: (int(ids[i]), x[i].tobytes()))
        kept: list[int] = []
        for i in idx:
            if not kept or float(np.max(u[kept] @ u[i])) <= threshold:
                kept.append(i)
        out.extend((int(ids[i]), int(c)) for i in kept)
    return sorted(out)


def product_quantize(
    embeddings: ray.data.Dataset, m: int = 4, k: int = 16, iters: int = 6,
    vec_col: str = "embedding", id_col: str = "vec_id",
):
    """Product quantization: split each d-dim vector into ``m``
    contiguous subvectors, fit a k-centroid codebook per subspace
    (:func:`fit_centroids` — fixed-point Lloyd, bitwise-deterministic
    at any parallelism), then ONE streaming pass assigns every vector
    its m codes and squared reconstruction error. The compressed
    representation behind billion-scale vector stores: d floats →
    m small ints (+ an m×k×(d/m) codebook a few KB big, shipped in a
    task closure — the kmeans lesson).

    Returns ``(codes: ray.data.Dataset, codebooks: np.ndarray
    (m, k, d/m))``; the codes Dataset has (id_col, code_0..code_{m-1},
    recon_err). Reference n/a — engine-level vector-store operator."""
    first = embeddings.take(1)[0][vec_col]
    dim = len(first)
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m

    books = []
    for j in range(m):
        lo = j * sub

        def slice_j(batch: pa.Table, lo=lo) -> pa.Table:
            x = _batch_matrix(batch, vec_col)
            xs = x[:, lo:lo + sub] if len(x) else x.reshape(0, 0)
            return pa.table({
                id_col: batch.column(id_col),
                vec_col: pa.FixedSizeListArray.from_arrays(
                    pa.array(np.ascontiguousarray(xs).ravel(),
                             pa.float64()), sub
                ).cast(pa.list_(pa.float64())),
            })

        books.append(fit_centroids(
            embeddings.map_batches(slice_j, batch_format="pyarrow"),
            k=k, iters=iters, vec_col=vec_col, id_col=id_col))
    books = np.stack(books)  # (m, k, sub)

    def assign_codes(batch: pa.Table) -> pa.Table:
        x = _batch_matrix(batch, vec_col)
        n = len(x)
        cols = {id_col: batch.column(id_col)}
        if n == 0:
            for j in range(m):
                cols[f"code_{j}"] = pa.array([], pa.int64())
            cols["recon_err"] = pa.array([], pa.float64())
            return pa.table(cols)
        err = np.zeros(n, dtype=np.float64)
        for j in range(m):
            xs = x[:, j * sub:(j + 1) * sub]
            code = _assign(xs, books[j])
            cols[f"code_{j}"] = pa.array(code, pa.int64())
            diff = xs - books[j][code]
            err += (diff * diff).sum(axis=1)
        cols["recon_err"] = pa.array(err, pa.float64())
        return pa.table(cols)

    return (embeddings.map_batches(assign_codes, batch_format="pyarrow"),
            books)


def kcenter_sample(
    embeddings: ray.data.Dataset, k: int = 16,
    vec_col: str = "embedding", id_col: str = "vec_id",
) -> pd.DataFrame:
    """DIVERSITY SAMPLING via greedy k-center (Gonzalez farthest-point
    traversal, the 2-approximation to the k-center cover): pick the
    vector with the smallest id, then k−1 times pick the point FARTHEST
    from everything picked so far — the coverage-maximising selection a
    curation pipeline uses to seed evaluation sets / dedup anchors.
    Returns (center_rank, vec_id, radius): ``radius`` is the distance at
    which rank r was selected, i.e. the k-center cover radius AFTER
    r−1 centers — a non-increasing sequence.

    Bit-deterministic at any parallelism (the kmeans creed): distances
    are EXACT integers over fixed-point coordinates q = rint(x·2²⁰)
    (per-coord diff² ≤ ~2⁴⁹ · d — inside int64), so the global argmax +
    smallest-id tie-break is reduction-order-free.

    Scale shape: the classic incremental trick — each round computes
    distances to the ONE new center and folds them into a carried
    per-row ``mind2`` column (O(n·d) per round, not O(n·k·d)), so the
    whole selection is k streaming passes. The carried state lives in
    the object store (checkpoint() per round cuts lineage, CLAUDE.md
    rule); the driver holds only the k×d center matrix. Stops early
    when the cover radius hits 0 (every remaining point duplicates a
    center)."""
    from .exchange import checkpoint

    # seed = vector of the smallest id (content tie-break on dup ids,
    # same rationale as fit_centroids)
    def seed_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return batch.select([id_col, vec_col])
        m = ids == ids.min()
        return batch.select([id_col, vec_col]).filter(pa.array(m))

    seeds = embeddings.map_batches(
        seed_partial, batch_format="pyarrow").to_pandas()
    if len(seeds) == 0:
        return pd.DataFrame({
            "center_rank": pd.Series([], dtype="int64"),
            "vec_id": pd.Series([], dtype="int64"),
            "radius": pd.Series([], dtype="float64"),
        })
    seeds["_vb"] = [
        np.asarray(v, dtype=np.float64).tobytes() for v in seeds[vec_col]]
    seeds = seeds.sort_values([id_col, "_vb"], kind="stable")
    seed_id = int(seeds[id_col].iloc[0])
    seed_q = np.rint(
        np.asarray(seeds[vec_col].iloc[0], dtype=np.float64) * GRID_SCALE
    ).astype(np.int64)

    chosen = [(0, seed_id, 0.0)]
    state = None  # Dataset carrying (id, vec, mind2)

    def fold_center(batch: pa.Table, _cq=seed_q, _first=True) -> pa.Table:
        x = _batch_matrix(batch, vec_col)
        q = np.rint(x * GRID_SCALE).astype(np.int64)
        diff = q - _cq
        d2 = (diff * diff).sum(axis=1) if len(q) else np.empty(0, np.int64)
        if not _first:
            d2 = np.minimum(
                d2, batch.column("mind2").to_numpy(zero_copy_only=False))
        t = batch.select([id_col, vec_col])
        return t.append_column("mind2", pa.array(d2, pa.int64()))

    state = checkpoint(
        embeddings.map_batches(fold_center, batch_format="pyarrow"))

    def far_partial(batch: pa.Table) -> pa.Table:
        d2 = batch.column("mind2").to_numpy(zero_copy_only=False)
        if len(d2) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "mind2": pa.array([], pa.int64()),
                "q": pa.array([], pa.large_binary()),
            })
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        m = d2.max()
        cand = np.flatnonzero(d2 == m)
        i = cand[np.argmin(ids[cand])]
        qv = np.rint(
            _batch_matrix(batch, vec_col)[i] * GRID_SCALE).astype(np.int64)
        return pa.table({
            id_col: pa.array([int(ids[i])], pa.int64()),
            "mind2": pa.array([int(m)], pa.int64()),
            "q": pa.array([qv.tobytes()], pa.large_binary()),
        })

    for rank in range(1, k):
        parts = state.map_batches(
            far_partial, batch_format="pyarrow").to_pandas()
        parts = parts.sort_values(
            ["mind2", id_col], ascending=[False, True], kind="stable")
        best_d2 = int(parts["mind2"].iloc[0])
        if best_d2 == 0:
            break  # perfect cover: remaining points duplicate centers
        best_id = int(parts[id_col].iloc[0])
        best_q = np.frombuffer(parts["q"].iloc[0], dtype=np.int64)
        chosen.append((rank, best_id, float(np.sqrt(best_d2)) / GRID_SCALE))
        if rank < k - 1:
            def fold(batch: pa.Table, _cq=best_q) -> pa.Table:
                return fold_center(batch, _cq=_cq, _first=False)
            state = checkpoint(
                state.map_batches(fold, batch_format="pyarrow"))

    out = pd.DataFrame(chosen, columns=["center_rank", "vec_id", "radius"])
    return out.astype({"center_rank": "int64", "vec_id": "int64"})


def kcenter_reference(
    ids: np.ndarray, vecs: np.ndarray, k: int
) -> pd.DataFrame:
    """Single-process greedy k-center over the same fixed-point integers
    — the differential oracle for :func:`kcenter_sample`."""
    vb = np.asarray([np.asarray(v, dtype=np.float64).tobytes()
                     for v in vecs], dtype=object)
    order = np.lexsort((vb, ids))  # (id, vector-bytes): dup-id tie-break
    ids = ids[order]
    vecs = np.asarray(vecs)[order]
    q = np.rint(np.asarray(vecs, dtype=np.float64)
                * GRID_SCALE).astype(np.int64)
    i0 = 0  # smallest id first (lexsort put it there)
    chosen = [(0, int(ids[i0]), 0.0)]
    diff = q - q[i0]
    mind2 = (diff * diff).sum(axis=1)
    for rank in range(1, k):
        m = mind2.max()
        if m == 0:
            break
        cand = np.flatnonzero(mind2 == m)
        i = cand[np.argmin(ids[cand])]
        chosen.append((rank, int(ids[i]), float(np.sqrt(int(m))) / GRID_SCALE))
        diff = q - q[i]
        mind2 = np.minimum(mind2, (diff * diff).sum(axis=1))
    out = pd.DataFrame(chosen, columns=["center_rank", "vec_id", "radius"])
    return out.astype({"center_rank": "int64", "vec_id": "int64"})
