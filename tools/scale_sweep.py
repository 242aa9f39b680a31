"""Reproducible 1M-document scale sweep (BASELINE.md "Round-3 scale
sweep" section).

Synthesizes a deterministic dup-heavy corpus — sf0.1 `documents`
replicated REPS× with id offsets; every 10th replica byte-identical
(~10% exact dups, REPS-way near-dup families, the adversarial shape of
a web crawl) — then times the corpus-pass operators and prints one JSON
line. Driver RSS is sampled after every pass so memory growth across
passes is visible.

    python tools/scale_sweep.py              # full sweep, 32 CPUs
    GRAFT_SWEEP_REPS=20 python tools/scale_sweep.py   # smaller corpus

Owns its Ray session (CLI rule, CLAUDE.md).
"""

from __future__ import annotations

import glob
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SRC = os.environ.get("GRAFT_SWEEP_SRC",
                     "/root/testdata/sf0.1/documents.parquet")
REPS = int(os.environ.get("GRAFT_SWEEP_REPS", "200"))
# cache key covers BOTH knobs: a different source must not reuse a
# stale corpus behind the same _COMPLETE marker
import zlib  # noqa: E402

OUT = f"/tmp/graft_docs_sweep_{REPS}_{zlib.crc32(SRC.encode()):08x}"


def synth_corpus() -> str:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    os.makedirs(OUT, exist_ok=True)
    marker = os.path.join(OUT, "_COMPLETE")
    if os.path.exists(marker):
        return OUT
    src = pq.read_table(SRC, columns=["doc_id", "text"])
    ids, text = src.column("doc_id"), src.column("text")
    for i in range(REPS):
        t = text if i % 10 == 0 else pc.binary_join_element_wise(
            text, f" rep{i}", "")
        pq.write_table(
            pa.table({"doc_id": pc.add(ids, i * src.num_rows), "text": t}),
            os.path.join(OUT, f"part-{i:04d}.parquet"),
        )
    with open(marker, "w") as f:
        f.write("ok")
    return OUT


def main() -> int:
    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    corpus = synth_corpus()
    files = sorted(glob.glob(os.path.join(corpus, "part-*.parquet")))

    def docs(n_files=None):
        return ray.data.read_parquet(files[:n_files] if n_files else files)

    from htmlparsersharp_ray.stages.dedup import (
        decontaminate,
        exact_dedup,
        minhash_lsh_pairs,
        simhash_pairs,
    )
    from htmlparsersharp_ray.stages.text_analysis import (
        chunk_docs,
        fingerprints_fast,
        model_quality_scores,
        pack_bins,
        repetition_signals,
        token_counts,
        top_terms,
        top_terms_sketch,
    )

    results = {}
    only = {s for s in os.environ.get("GRAFT_SWEEP_ONLY", "").split(",") if s}

    def run(name, fn):
        if only and name not in only:
            return
        import gc

        gc.collect()  # earlier passes' ObjectRef cycles pin blocks
        t0 = time.time()
        try:
            r = fn()
        except Exception as e:  # record, don't kill the sweep
            results[name] = {"sec": round(time.time() - t0, 1),
                             "error": repr(e)[:200]}
            return
        results[name] = {
            "sec": round(time.time() - t0, 1),
            "rows": int(len(r)) if hasattr(r, "__len__") else int(r),
            "driver_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        }

    run("token_counts", lambda: token_counts(docs()).count())
    run("exact_dedup", lambda: exact_dedup(docs()).count())
    run("repetition_signals", lambda: repetition_signals(docs()).count())
    run("fingerprints_fast", lambda: fingerprints_fast(docs()).count())
    run("pack_bins", lambda: pack_bins(docs(), budget=1024))
    run("decontaminate", lambda: decontaminate(docs(), bench_mod=20, n=8))
    run("top_terms", lambda: top_terms(docs(), k=20))
    run("top_terms_sketch", lambda: top_terms_sketch(docs(), k=20, m=4096))
    run("model_quality_scores",
        lambda: model_quality_scores(docs()).count())
    run("chunk_docs", lambda: chunk_docs(docs()).count())
    # pair mining on a 10%-of-corpus slice (output is quadratic in the
    # dup-family size; the slice keeps the verified-pair volume ~1M)
    pair_files = max(1, len(files) // 10)
    run("minhash_pairs_slice",
        lambda: minhash_lsh_pairs(docs(pair_files), jaccard_threshold=0.5))
    run("simhash_pairs_slice",
        lambda: simhash_pairs(docs(pair_files), max_hamming=6))
    from htmlparsersharp_ray.stages.dedup import gram_dups

    run("gram_dups_slice", lambda: gram_dups(docs(pair_files), n=8))

    from htmlparsersharp_ray.stages.pdf_stage import pdf_roundtrip

    # PDF render->extract round trip on a 10%-of-corpus slice (~100k
    # docs): per-doc codec work, embarrassingly parallel actor pools
    run("pdf_roundtrip_slice",
        lambda: pdf_roundtrip(docs(pair_files)).count())

    def synth_docs_prefix(n=100_000, d="/tmp/graft_sweep_prefix"):
        # mostly-DISTINCT corpus (50k vocab, 40-word docs → cross-doc
        # token collisions rare) with a 3-word-substitution twin for
        # every 10th doc: the intended regime for the zero-miss prefix
        # join. (The dup-heavy sweep corpus is MinHash's regime — prefix
        # raw candidates grow with family_size² × prefix_length, while
        # banding emits a bounded 16 rows/doc regardless of dup rate.)
        import numpy as _np
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = _np.random.default_rng(41)
            base = rng.integers(0, 50_000, (n, 40))
            twins = base[::10].copy()
            for pos in range(3):  # deterministic twin edit positions
                twins[:, 7 + 11 * pos] = rng.integers(0, 50_000, len(twins))
            words = _np.char.add("w", _np.concatenate([base, twins]).astype(str))
            texts = [" ".join(row) for row in words]
            _pq.write_table(_pa.table({
                "doc_id": _np.arange(len(texts), dtype=_np.int64),
                "text": _pa.array(texts),
            }), os.path.join(d, "documents.parquet"), row_group_size=1 << 15)
            open(marker, "w").write("ok")
        return d

    if not only or "jaccard_prefix_110k" in only:
        synth_docs_prefix()  # synthesis cost stays OUT of the timed pass

    def jaccard_prefix_110k():
        from htmlparsersharp_ray.stages.dedup import jaccard_prefix_pairs

        return jaccard_prefix_pairs(
            ray.data.read_parquet(
                os.path.join(synth_docs_prefix(), "documents.parquet")),
            jaccard_threshold=0.4)

    run("jaccard_prefix_110k", jaccard_prefix_110k)

    def synth_docs_quotes(n=100_000, d="/tmp/graft_sweep_quotes"):
        # mostly-distinct 40-word docs + a 12-word contiguous SLICE of
        # every 20th doc (containment 1.0 in its source, Jaccard ~0.26
        # — the regime only the asymmetric containment join catches)
        import numpy as _np
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = _np.random.default_rng(43)
            base = rng.integers(0, 50_000, (n, 40))
            quotes = base[::20, 11:23].copy()
            words = _np.char.add("w", base.astype(str))
            texts = [" ".join(row) for row in words]
            qwords = _np.char.add("w", quotes.astype(str))
            texts += [" ".join(row) for row in qwords]
            _pq.write_table(_pa.table({
                "doc_id": _np.arange(len(texts), dtype=_np.int64),
                "text": _pa.array(texts),
            }), os.path.join(d, "documents.parquet"), row_group_size=1 << 15)
            open(marker, "w").write("ok")
        return d

    if not only or "containment_105k" in only:
        synth_docs_quotes()  # synthesis cost stays OUT of the timed pass

    def containment_105k():
        from htmlparsersharp_ray.stages.dedup import containment_pairs_ds

        return containment_pairs_ds(
            ray.data.read_parquet(
                os.path.join(synth_docs_quotes(), "documents.parquet")),
            threshold=0.8).count()

    run("containment_105k", containment_105k)

    def synth_graph(n_nodes=1_000_000, n_edges=10_000_000,
                    d="/tmp/graft_sweep_graph"):
        # sparse directed graph (~10 out-edges/node, web-ish) with a
        # planted 100-clique so triangle counting has guaranteed
        # closures (a clique of c carries C(c,3) triangles — keep c
        # modest or the probe measures enumeration volume, not the
        # operator: a first attempt with c=1000 planted 166M triangles)
        import numpy as _np
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = _np.random.default_rng(43)
            src = rng.integers(0, n_nodes, n_edges)
            dst = rng.integers(0, n_nodes, n_edges)
            keep = src != dst
            cl = _np.arange(100, dtype=_np.int64)
            ii, jj = _np.triu_indices(100, k=1)
            _pq.write_table(_pa.table({
                "src": _np.concatenate([src[keep], cl[ii]]).astype(_np.int64),
                "dst": _np.concatenate([dst[keep], cl[jj]]).astype(_np.int64),
            }), os.path.join(d, "edges.parquet"), row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    if not only or {"pagerank_10m", "triangles_10m",
                    "kcore_10m", "sssp_10m", "lpa_10m"} & only:
        synth_graph()  # synthesis cost stays OUT of the timed passes

    def pagerank_10m():
        from htmlparsersharp_ray.stages.graph import pagerank

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))
        return pagerank(e, iters=5).count()

    def triangles_10m():
        from htmlparsersharp_ray.stages.graph import triangle_counts

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))
        return triangle_counts(e).count()

    def kcore_10m():
        # mean undirected degree ~20 → k=12 peels a real fringe while
        # keeping a large core
        from htmlparsersharp_ray.stages.graph import kcore

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))
        return kcore(e, k=12).count()

    def sssp_10m():
        # weighted shortest path, 4 relaxation rounds from 100 seeds;
        # deterministic weights derived from endpoint ids
        from htmlparsersharp_ray.stages.graph import sssp

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))

        def with_w(b):
            import pyarrow as _pa

            s = b.column("src").to_numpy(zero_copy_only=False)
            d2 = b.column("dst").to_numpy(zero_copy_only=False)
            w = (s + d2) % 9 + 1
            return b.append_column("w", _pa.array(w.astype("int64")))

        src = ray.data.range(100).map_batches(
            lambda b: {"node": (b["id"] * 10_007) % 1_000_000},
            batch_format="numpy")
        return sssp(e.map_batches(with_w, batch_format="pyarrow"),
                    src, max_rounds=4).count()

    def lpa_10m():
        from htmlparsersharp_ray.stages.graph import label_propagation

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))
        return label_propagation(e, iters=3).count()

    run("pagerank_10m", pagerank_10m)
    run("triangles_10m", triangles_10m)
    run("kcore_10m", kcore_10m)
    run("sssp_10m", sssp_10m)
    run("lpa_10m", lpa_10m)

    def bpe_100k():
        from htmlparsersharp_ray.stages.bpe import bpe_learn

        return bpe_learn(docs(pair_files), n_merges=10)

    run("bpe_100k", bpe_100k)

    # ---- new-operator scale probes (synth sf_dir-shaped inputs,
    # cached under /tmp by _COMPLETE markers) -------------------------
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    def synth_part_sky(n=20_000_000, d="/tmp/graft_sweep_sky"):
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(5)
            pq.write_table(pa.table({
                "p_partkey": np.arange(n, dtype=np.int64),
                "p_size": rng.integers(1, 51, n).astype(np.int32),
                "p_retailprice": rng.integers(90000, 200001, n) / 100.0,
            }), os.path.join(d, "part.parquet"), row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    def synth_part_names(n=200_000, d="/tmp/graft_sweep_fuzzy"):
        # n distinct 10-char names + a 1-deletion twin for every 10th
        # (planted near-dup families a fuzzy join must find)
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(7)
            letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
            chars = letters[rng.integers(0, 26, (n, 10))]
            base = ["".join(row) for row in chars]
            names = base + [s[:3] + s[4:] for s in base[::10]]
            pq.write_table(
                pa.table({"p_name": pa.array(names)}),
                os.path.join(d, "part.parquet"), row_group_size=1 << 16)
            open(marker, "w").write("ok")
        return d

    def synth_docs_src(n=1_000_000, d="/tmp/graft_sweep_mix"):
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            ids = np.arange(n, dtype=np.int64)
            src = np.char.add("s", (ids % 10_000).astype(str))
            pq.write_table(
                pa.table({"doc_id": ids, "source": src}),
                os.path.join(d, "documents.parquet"),
                row_group_size=1 << 18)
            open(marker, "w").write("ok")
        return d

    def synth_docs_lm(d="/tmp/graft_sweep_lm"):
        # the 1M-doc sweep corpus as a single documents.parquet (the
        # sf_dir shape the graded query reads)
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            t = pq.read_table(files[0]).schema  # noqa: F841 (warm check)
            parts_t = [pq.read_table(f, columns=["doc_id", "text"])
                       for f in files]
            pq.write_table(pa.concat_tables(parts_t),
                           os.path.join(d, "documents.parquet"),
                           row_group_size=1 << 16)
            open(marker, "w").write("ok")
        return d

    def synth_events(n=10_000_000, d="/tmp/graft_sweep_ev"):
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(13)
            base = np.int64(1_700_000_000_000_000)  # fixed epoch-us
            ts = (base + rng.integers(0, 90 * 86_400_000_000, n)
                  ).astype("datetime64[us]")
            pq.write_table(pa.table({
                "event_id": np.arange(n, dtype=np.int64),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": rng.integers(0, 100_000, n).astype(np.int64),
                "event_type": pa.array(["view"] * n),
                "value": np.zeros(n),
                "props": pa.array([""] * n),
            }), os.path.join(d, "events.parquet"),
                row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    from htmlparsersharp_ray.pipelines.relational import (
        q_docs_lm_score,
        q_docs_mixture_sample,
        q_events_dau_mau,
        q_part_fuzzy_pairs,
        q_part_skyline,
    )

    def synth_vecs(n=1_000_000, dim=32, d="/tmp/graft_sweep_vec"):
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(17)
            centers = rng.normal(size=(16, dim)) * 3
            x = (centers[rng.integers(0, 16, n)]
                 + rng.normal(size=(n, dim))).astype(np.float32)
            pq.write_table(pa.table({
                "vec_id": np.arange(n, dtype=np.int64),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(x.reshape(-1)), dim).cast(
                        pa.list_(pa.float32())),
            }), os.path.join(d, "embeddings.parquet"),
                row_group_size=1 << 17)
            open(marker, "w").write("ok")
        return d

    def kmeans_1m():
        from htmlparsersharp_ray.stages.clustering import kmeans

        out, _ = kmeans(ray.data.read_parquet(
            os.path.join(synth_vecs(), "embeddings.parquet")),
            k=16, iters=8)
        return out

    def incr_dedup_100k():
        from htmlparsersharp_ray.stages.dedup import incremental_near_dups

        return incremental_near_dups(
            docs(pair_files), is_new=lambda ids: ids % 10 == 0,
            jaccard_threshold=0.5)

    def canonical_100k():
        from htmlparsersharp_ray.stages.dedup import (
            cluster_survivors,
            dup_clusters,
            minhash_lsh_pairs,
        )

        import pyarrow.compute as pc

        d = docs(pair_files)
        edges = minhash_lsh_pairs(d, jaccard_threshold=0.5)
        labels = dup_clusters(d.select_columns(["doc_id"]),
                              edges[["doc_a", "doc_b"]],
                              id_col="doc_id", as_dataset=True)

        def with_len(b: pa.Table) -> pa.Table:
            # sweep corpus has no n_chars column; derive it
            return pa.table({
                "doc_id": b.column("doc_id"),
                "n_chars": pc.utf8_length(b.column("text")).cast(pa.int64()),
            })

        meta = d.map_batches(with_len, batch_format="pyarrow")
        return cluster_survivors(labels, meta, n_buckets=64)

    def synth_media(n=100_000, d="/tmp/graft_sweep_media"):
        # 32x32 REAL PPM images (vectorized pixel synthesis; the P6
        # encode is one header + one tobytes per image) — ~315 MB of
        # binary payload, the multimodal-column shape at scale
        from htmlparsersharp_ray.stages.multimodal import encode_ppm

        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(29)
            grad = np.linspace(0, 255, 32, dtype=np.float32)
            base = grad[None, :, None] * 0.5 + grad[:, None, None] * 0.5
            shard = 10_000
            for s in range(0, n, shard):
                m = min(shard, n - s)
                noise = rng.uniform(0, 64, size=(m, 32, 32, 3)).astype(np.float32)
                imgs = np.clip(base[None] + noise, 0, 255).astype(np.uint8)
                pq.write_table(pa.table({
                    "media_id": np.arange(s, s + m, dtype=np.int64),
                    "payload": pa.array([encode_ppm(im) for im in imgs],
                                        pa.binary()),
                }), os.path.join(d, f"media-{s:07d}.parquet"),
                    row_group_size=1 << 12)
            open(marker, "w").write("ok")
        return d

    def media_100k():
        from htmlparsersharp_ray.stages.multimodal import MediaFeatureUDF

        d = synth_media()
        media_files = [os.path.join(d, f) for f in sorted(os.listdir(d))
                       if f.endswith(".parquet")]
        ds = ray.data.read_parquet(media_files)
        out = ds.map_batches(MediaFeatureUDF(fake=False),
                             batch_format="pyarrow", batch_size=256)
        return out.count()  # consume distributed; never driver-collect

    run("kmeans_1m", kmeans_1m)
    run("incr_dedup_100k", incr_dedup_100k)
    run("canonical_100k", canonical_100k)
    run("media_features_100k", media_100k)
    run("skyline_20m", lambda: q_part_skyline(synth_part_sky()))
    run("fuzzy_pairs_220k", lambda: q_part_fuzzy_pairs(synth_part_names()))
    run("mixture_sample_1m",
        lambda: q_docs_mixture_sample(synth_docs_src()))
    run("lm_score_1m", lambda: q_docs_lm_score(synth_docs_lm()))
    run("dau_mau_10m", lambda: q_events_dau_mau(synth_events()))

    # --- continuation-session probes ---------------------------------
    from htmlparsersharp_ray.pipelines.curate import curate
    from htmlparsersharp_ray.pipelines.relational import (
        q_customer_revenue_deciles,
        q_events_rolling_dau,
    )
    from htmlparsersharp_ray.stages.similarity import pca_components

    def synth_orders(n=10_000_000, d="/tmp/graft_sweep_ord"):
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(23)
            pq.write_table(pa.table({
                "o_custkey": rng.integers(0, 1_000_000, n).astype(np.int64),
                "o_totalprice": rng.integers(100, 60_000_001, n) / 100.0,
            }), os.path.join(d, "orders.parquet"), row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    # distinct-over-window at 10M events / 100k users / 90 days
    run("rolling_dau_10m", lambda: q_events_rolling_dau(synth_events()))
    # order-by-value global rank at 10M orders / 1M customers
    run("revenue_deciles_10m",
        lambda: q_customer_revenue_deciles(synth_orders()))
    # exact-covariance PCA pass at 1M x 32
    run("pca_1m", lambda: pca_components(ray.data.read_parquet(
        os.path.join(synth_vecs(), "embeddings.parquet")), k=8)[1])
    # end-to-end curation funnel on the dup-heavy 100k slice
    run("curate_100k", lambda: curate(docs(pair_files),
                                      jaccard_threshold=0.5))

    # duplicated-content coverage on the dup-heavy 100k slice (worst
    # case: nearly EVERY gram position is a dup occurrence, so this
    # measures the forward+union volume, not a sparse fast path)
    def dup_coverage_slice():
        from htmlparsersharp_ray.stages.dedup import dup_coverage

        return dup_coverage(docs(pair_files), n=8)

    run("dup_coverage_slice", dup_coverage_slice)

    # common-neighbors link prediction on the 10M-edge graph; cap 128
    # keeps the planted 100-clique's centers (deg ~119) while bounding
    # any hub — wedge volume ~sum C(deg,2) ~ 190M rows through one
    # exchange is the cost driver being measured
    def link_predict_10m():
        from htmlparsersharp_ray.stages.graph import common_neighbor_pairs

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))
        return common_neighbor_pairs(
            e, min_common=2, max_center_degree=128).count()

    run("link_predict_10m", link_predict_10m)

    # --- training-op probes -------------------------------------------
    def synth_interactions(n_users=100_000, n_items=10_000, per_user=10,
                           d="/tmp/graft_sweep_als"):
        # 1M planted rank-4 interactions (positive factors) — ALS must
        # stream joins + bucket solves, factors never driver-resident
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(31)
            xu = rng.uniform(0.5, 1.5, (n_users, 4))
            yi = rng.uniform(0.5, 1.5, (n_items, 4))
            u = np.repeat(np.arange(n_users, dtype=np.int64), per_user)
            i = rng.integers(0, n_items, n_users * per_user).astype(np.int64)
            c = (xu[u] * yi[i]).sum(axis=1)
            pq.write_table(pa.table({"u": u, "i": i, "c": c}),
                           os.path.join(d, "inter.parquet"),
                           row_group_size=1 << 18)
            open(marker, "w").write("ok")
        return d

    def als_1m():
        from htmlparsersharp_ray.stages.train import als_train

        inter = ray.data.read_parquet(
            os.path.join(synth_interactions(), "inter.parquet"))
        users, items, hist = als_train(inter, k=4, iters=3, reg=0.05,
                                       n_buckets=64, track_sse="final")
        return users.count() + items.count()

    run("als_1m", als_1m)

    def synth_baskets(n_orders=2_000_000, n_parts=50_000, per_order=4,
                      d="/tmp/graft_sweep_baskets"):
        # 8M lineitem rows, 4 parts/order — item-sim's pair expansion
        # is quadratic in ORDER size only (12 ordered pairs per order)
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(37)
            ok = np.repeat(np.arange(n_orders, dtype=np.int64), per_order)
            # zipf-ish popularity so hot items exist
            p = (rng.pareto(1.5, n_orders * per_order) * 50
                 ).astype(np.int64) % n_parts
            pq.write_table(pa.table({"l_orderkey": ok, "l_partkey": p}),
                           os.path.join(d, "lineitem.parquet"),
                           row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    def item_sim_8m():
        from htmlparsersharp_ray.pipelines.relational import q_part_item_sim

        return q_part_item_sim(synth_baskets())

    run("item_sim_8m", item_sim_8m)

    def synth_embeddings_1m(n=1_000_000, dim=64, n_labels=10,
                            d="/tmp/graft_sweep_emb1m"):
        # 1M×64 float32 (256 MB), 10 sign-pattern label clusters with
        # noise — NB and the stump must stay map-only + driver-merged
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(41)
            sub = os.path.join(d, "embeddings.parquet")
            os.makedirs(sub, exist_ok=True)
            chunk = 125_000
            for ci in range(n // chunk):
                lab = rng.integers(0, n_labels, chunk).astype(np.int64)
                mat = rng.uniform(0.05, 0.45, (chunk, dim)).astype(
                    np.float32)
                # label-specific sign pattern on 16 dims + noise flips
                for li in range(n_labels):
                    m = lab == li
                    pat = (np.arange(dim) % n_labels) < li
                    mat[np.ix_(m, np.where(pat)[0])] *= -1
                flip = rng.random((chunk, dim)) < 0.1
                mat = np.where(flip, -mat, mat)
                pq.write_table(pa.table({
                    "vec_id": pa.array(
                        np.arange(ci * chunk, (ci + 1) * chunk,
                                  dtype=np.int64)),
                    "label": pa.array(lab),
                    "embedding": pa.array(list(mat),
                                          pa.list_(pa.float32())),
                }), os.path.join(sub, f"part-{ci}.parquet"),
                    row_group_size=1 << 16)
            open(marker, "w").write("ok")
        return d

    def nb_1m():
        from htmlparsersharp_ray.pipelines.relational import q_embeddings_nb

        return q_embeddings_nb(synth_embeddings_1m())

    run("nb_1m", nb_1m)

    def stump_1m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_embeddings_stump)

        return q_embeddings_stump(synth_embeddings_1m())

    run("stump_1m", stump_1m)

    _TC_BLOCKS = 14_286

    def synth_curation_100k(d="/tmp/graft_sweep_turns100k"):
        # 14286 blocks × 7 turns = 100,002 raw-HTML turns, cached to
        # parquet OUTSIDE the timed pass (synthesis is a Python loop)
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            import importlib.util

            spec = importlib.util.spec_from_file_location(
                "__ray_entry__", os.path.join(os.path.dirname(__file__),
                                              "..", "__ray_entry__.py"))
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            pq.write_table(mod._synth_curation_transcripts(_TC_BLOCKS),
                           os.path.join(d, "transcripts.parquet"),
                           row_group_size=1 << 16)
            open(marker, "w").write("ok")
        return os.path.join(d, "transcripts.parquet")

    tc_path = synth_curation_100k()

    def turns_curate_100k():
        # the full parse→extract→curation-funnel composition; the
        # funnel counts are known by construction and ASSERTED, so the
        # probe is also a 100k-scale correctness gate
        from htmlparsersharp_ray.pipelines.curate import (
            curate, turns_to_docs)
        from htmlparsersharp_ray.stages.parse_stage import HtmlExtractUDF

        nb = _TC_BLOCKS
        ds = ray.data.read_parquet(tc_path)
        ext = ds.map_batches(HtmlExtractUDF(), batch_format="pyarrow",
                             batch_size=256)
        out = curate(turns_to_docs(ext))
        row = out.iloc[0]
        assert (int(row.n_input), int(row.n_after_exact),
                int(row.n_after_near), int(row.n_after_quality),
                int(row.total_ws_tokens)) == (
            7 * nb, 6 * nb, 5 * nb, 4 * nb, 200 * nb), row.to_dict()
        return out

    run("turns_curate_100k", turns_curate_100k)

    # --- this-session probes (cusum/drawdown/naive, itemsets, textrank,
    #     AUC, MMR) ----------------------------------------------------
    def synth_events_val(n=10_000_000, d="/tmp/graft_sweep_evval"):
        # like synth_events but with nonzero pareto-ish cent values so
        # the cusum/drawdown charts do real flagging work
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v2")   # v2: + event_type
        if not os.path.exists(marker):
            rng = np.random.default_rng(17)
            base = np.int64(1_700_000_000_000_000)
            ts = (base + rng.integers(0, 90 * 86_400_000_000, n)
                  ).astype("datetime64[us]")
            cents = np.minimum(
                (rng.pareto(1.3, n) * 3000).astype(np.int64) + 1, 49_000)
            types = np.array(["view", "click", "purchase", "error",
                              "login"])
            pq.write_table(pa.table({
                "event_id": np.arange(n, dtype=np.int64),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": rng.integers(0, 100_000, n).astype(np.int64),
                "event_type": pa.array(
                    types[rng.integers(0, 5, n)]),
                "value": cents / 100.0,
            }), os.path.join(d, "events.parquet"),
                row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    from htmlparsersharp_ray.pipelines.relational import (
        q_embeddings_auc,
        q_events_cusum,
        q_events_drawdown,
        q_events_seasonal_naive,
        q_part_brand_itemsets,
    )

    run("cusum_10m", lambda: q_events_cusum(synth_events_val()))
    run("drawdown_10m", lambda: q_events_drawdown(synth_events_val()))
    run("seasonal_naive_10m",
        lambda: q_events_seasonal_naive(synth_events_val()))

    def synth_basket_parts(d="/tmp/graft_sweep_baskets",
                           n_parts=50_000, n_brands=25):
        synth_baskets()  # ensure lineitem.parquet exists in d
        marker = os.path.join(d, "_COMPLETE_parts_v1")
        if not os.path.exists(marker):
            keys = np.arange(n_parts, dtype=np.int64)
            pq.write_table(pa.table({
                "p_partkey": keys,
                "p_brand": pa.array([f"Brand#{int(k) % n_brands:02d}"
                                     for k in keys]),
            }), os.path.join(d, "part.parquet"))
            open(marker, "w").write("ok")
        return d

    run("brand_itemsets_8m",
        lambda: q_part_brand_itemsets(synth_basket_parts()))

    def textrank_100k():
        from htmlparsersharp_ray.stages.text_analysis import (
            textrank_summaries)

        return textrank_summaries(docs(pair_files)).count()

    run("textrank_100k", textrank_100k)

    run("auc_1m", lambda: q_embeddings_auc(synth_embeddings_1m()))

    def mmr_1m():
        from htmlparsersharp_ray.stages.similarity import mmr_topk

        emb_dir = os.path.join(synth_embeddings_1m(),
                               "embeddings.parquet")
        first = pq.read_table(
            os.path.join(emb_dir, "part-0.parquet"),
            columns=["vec_id", "embedding"]).slice(0, 5)
        queries = {
            int(i): np.asarray(e, np.float64)
            for i, e in zip(first.column("vec_id").to_pylist(),
                            first.column("embedding").to_pylist())}
        return mmr_topk(ray.data.read_parquet(emb_dir), queries,
                        k=10, pool=50)

    run("mmr_1m", mmr_1m)

    def mst_10m():
        # Borůvka MSF over the 10M-edge graph with deterministic
        # id-derived weights (the sssp weighting)
        from htmlparsersharp_ray.stages.graph import (
            minimum_spanning_forest)

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))

        def with_w(b):
            s = b.column("src").to_numpy(zero_copy_only=False)
            d2 = b.column("dst").to_numpy(zero_copy_only=False)
            w = (s + d2) % 9 + 1
            return b.append_column("w", pa.array(w.astype("int64")))

        return minimum_spanning_forest(
            e.map_batches(with_w, batch_format="pyarrow")).count()

    run("mst_10m", mst_10m)

    def betweenness_10m():
        # k=4 source Brandes over the 10M-edge graph; superstep count
        # = 2 x (BFS levels + backward levels), state = nodes x k rows
        from htmlparsersharp_ray.stages.graph import betweenness

        e = ray.data.read_parquet(
            os.path.join(synth_graph(), "edges.parquet"))
        return betweenness(e, [0, 1, 2, 3]).count()

    run("betweenness_10m", betweenness_10m)

    def synth_orders_pareto(d="/tmp/graft_sweep_orders10m",
                            n=10_000_000, n_cust=1_000_000):
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(17)
            # zipf-ish revenue skew so the 80% prefix is a real cut
            cents = (rng.pareto(1.5, n) * 10_000).astype(np.int64) + 100
            pq.write_table(pa.table({
                "o_custkey": rng.integers(0, n_cust, n).astype(np.int64),
                "o_totalprice": cents / 100.0,
            }), os.path.join(d, "orders.parquet"),
                row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    if not only or "pareto_10m" in only:
        synth_orders_pareto()
    from htmlparsersharp_ray.pipelines.relational import (
        q_customer_pareto,
        q_events_chisq,
        q_events_trending,
        q_orders_benford,
    )

    run("pareto_10m", lambda: q_customer_pareto(synth_orders_pareto()))
    run("benford_10m", lambda: q_orders_benford(synth_orders_pareto()))
    run("trending_10m", lambda: q_events_trending(synth_events_val()))
    run("chisq_10m", lambda: q_events_chisq(synth_events_val()))

    def compressibility_100k():
        from htmlparsersharp_ray.stages.text_analysis import (
            compressibility)

        return compressibility(docs(pair_files)).count()

    run("compressibility_100k", compressibility_100k)

    from htmlparsersharp_ray.pipelines.relational import (
        q_events_hodges_lehmann,
        q_events_kendall,
        q_events_ks_test,
        q_events_mannwhitney,
        q_events_spearman,
    )

    run("ks_10m", lambda: q_events_ks_test(synth_events_val()))
    run("mannwhitney_10m",
        lambda: q_events_mannwhitney(synth_events_val()))
    # spearman's int64 OUTPUT bound is ~1.3e6 rows (moments ~4n^3);
    # probe at the designed scale — beyond it the op raises loud
    run("spearman_1m",
        lambda: q_events_spearman(
            synth_events_val(n=1_000_000, d="/tmp/graft_sweep_ev1m")))
    run("kendall_10m", lambda: q_events_kendall(synth_events_val()))
    run("hodges_lehmann_10m",
        lambda: q_events_hodges_lehmann(synth_events_val()))

    def wilcoxon_10m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_events_wilcoxon)

        return q_events_wilcoxon(synth_events_val())

    run("wilcoxon_10m", wilcoxon_10m)

    def kruskal_10m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_events_kruskal)

        return q_events_kruskal(synth_events_val())

    run("kruskal_10m", kruskal_10m)

    def friedman_10m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_events_friedman)

        return q_events_friedman(synth_events_val())

    run("friedman_10m", friedman_10m)

    def dedup_trim_slice():
        from htmlparsersharp_ray.stages.dedup import dedup_trim

        return dedup_trim(docs(pair_files), n=8)

    run("dedup_trim_slice", dedup_trim_slice)

    def longest_dup_span_slice():
        from htmlparsersharp_ray.stages.dedup import longest_dup_span

        return longest_dup_span(docs(pair_files), min_len=8)

    run("longest_dup_span_slice", longest_dup_span_slice)

    # --- late-round-3 operator batch probes ---
    from htmlparsersharp_ray.pipelines.relational import (
        q_customer_lorenz,
        q_events_anova,
        q_events_levene,
        q_events_mann_kendall,
        q_events_markov_entropy,
        q_events_theilsen,
    )

    run("anova_10m", lambda: q_events_anova(synth_events_val()))
    run("levene_10m", lambda: q_events_levene(synth_events_val()))
    run("mann_kendall_10m",
        lambda: q_events_mann_kendall(synth_events_val()))
    run("theilsen_10m", lambda: q_events_theilsen(synth_events_val()))
    run("markov_entropy_10m",
        lambda: q_events_markov_entropy(synth_events_val()))
    run("lorenz_10m", lambda: q_customer_lorenz(synth_orders_pareto()))

    def synth_events_signup(n=10_000_000, n_users=1_000_000,
                            d="/tmp/graft_sweep_evsignup"):
        # signup/purchase/view mix over 1M users so the KM risk table
        # does real censoring work (~37% of users never purchase)
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(19)
            base = np.int64(1_700_000_000_000_000)
            ts = (base + rng.integers(0, 90 * 86_400_000_000, n)
                  ).astype("datetime64[us]")
            types = np.array(["signup", "purchase", "view"])
            pq.write_table(pa.table({
                "event_id": np.arange(n, dtype=np.int64),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": rng.integers(0, n_users, n).astype(np.int64),
                "event_type": pa.array(
                    types[rng.integers(0, 3, n)]),
                "value": np.ones(n),
            }), os.path.join(d, "events.parquet"),
                row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    def survival_10m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_events_survival)

        return q_events_survival(synth_events_signup())

    run("survival_10m", survival_10m)

    def rich_club_8m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_part_rich_club)

        return q_part_rich_club(synth_baskets())

    run("rich_club_8m", rich_club_8m)

    def synth_docs_sourced(d="/tmp/graft_sweep_srcdocs"):
        # the 100k-doc sweep slice with a bounded source column (20
        # sources keyed by doc id) for the per-source census ops
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            parts = []
            for f in files[:pair_files]:
                t = pq.read_table(f, columns=["doc_id", "text"])
                ids = t.column("doc_id").to_numpy()
                parts.append(t.append_column("source", pa.array(
                    np.char.add("src", (ids % 20).astype(str)))))
            pq.write_table(pa.concat_tables(parts),
                           os.path.join(d, "documents.parquet"),
                           row_group_size=1 << 15)
            open(marker, "w").write("ok")
        return d

    def simpson_slice():
        from htmlparsersharp_ray.pipelines.relational import (
            q_docs_simpson)

        return q_docs_simpson(synth_docs_sourced())

    run("simpson_slice", simpson_slice)

    def burstiness_slice():
        from htmlparsersharp_ray.pipelines.relational import (
            q_docs_burstiness)

        return q_docs_burstiness(synth_docs_sourced())

    run("burstiness_slice", burstiness_slice)

    def novelty_slice():
        from htmlparsersharp_ray.pipelines.relational import (
            q_docs_source_novelty)

        return q_docs_source_novelty(synth_docs_sourced())

    run("novelty_slice", novelty_slice)

    def cv_1m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_embeddings_cv)

        return q_embeddings_cv(synth_embeddings_1m())

    run("cv_1m", cv_1m)

    def silhouette_1m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_embeddings_silhouette)

        return q_embeddings_silhouette(synth_embeddings_1m())

    run("silhouette_1m", silhouette_1m)

    def synth_parts_10m(d="/tmp/graft_sweep_parts10m", n=10_000_000,
                        n_brands=25):
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = np.random.default_rng(23)
            cents = (rng.pareto(1.5, n) * 5_000).astype(np.int64) + 100
            pq.write_table(pa.table({
                "p_brand": pa.array(
                    [f"Brand#{i % n_brands:02d}"
                     for i in rng.integers(0, n_brands, n)]),
                "p_retailprice": cents / 100.0,
            }), os.path.join(d, "part.parquet"),
                row_group_size=1 << 19)
            open(marker, "w").write("ok")
        return d

    def gini_by_brand_10m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_part_gini_by_brand)

        return q_part_gini_by_brand(synth_parts_10m())

    run("gini_by_brand_10m", gini_by_brand_10m)

    def four_cycles_8m():
        from htmlparsersharp_ray.pipelines.relational import (
            q_part_four_cycles)

        return q_part_four_cycles(synth_baskets())

    run("four_cycles_8m", four_cycles_8m)

    def synth_embeddings_100k(n=100_000, dim=64,
                              d="/tmp/graft_sweep_emb100k"):
        # clustered float32 corpus + an exact-duplicate twin for every
        # 50th vector so the dup-pair probe has guaranteed hits
        import numpy as _np
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        os.makedirs(d, exist_ok=True)
        marker = os.path.join(d, "_COMPLETE_v1")
        if not os.path.exists(marker):
            rng = _np.random.default_rng(47)
            cents = rng.normal(size=(64, dim)) * 4
            x = (cents[rng.integers(0, 64, n)]
                 + rng.normal(size=(n, dim)) * 0.5).astype(_np.float32)
            x[1::50] = x[::50][:len(x[1::50])]
            _pq.write_table(_pa.table({
                "vec_id": _np.arange(n, dtype=_np.int64),
                "embedding": _pa.array([r.tolist() for r in x],
                                       _pa.list_(_pa.float32())),
            }), os.path.join(d, "embeddings.parquet"),
                row_group_size=1 << 13)
            open(marker, "w").write("ok")
        return d

    # round-5 probes: the block-streamed EXACT embedding scans (the old
    # broadcast forms held the full normalized matrix on the driver —
    # these runs pin that driver RSS stays flat while the O(n²) sim
    # volume streams block-by-block through the scan actors)
    def knn_graph_exact_100k():
        from htmlparsersharp_ray.stages.similarity import knn_graph_exact

        return knn_graph_exact(
            ray.data.read_parquet(
                os.path.join(synth_embeddings_100k(),
                             "embeddings.parquet")), k=3)

    run("knn_graph_exact_100k", knn_graph_exact_100k)

    def cosine_dup_pairs_exact_100k():
        from htmlparsersharp_ray.stages.dedup import (
            embedding_cosine_dup_pairs_exact)

        # 0.995 sits ABOVE the same-cluster cosine (~0.985 for σ=0.5
        # noise on |c|≈32 centers) and below the exact twins' 1.0, so
        # the pair volume is the 2k planted twins, not a quadratic
        # intra-cluster blowup (0.98 returned 67M pairs)
        return embedding_cosine_dup_pairs_exact(
            ray.data.read_parquet(
                os.path.join(synth_embeddings_100k(),
                             "embeddings.parquet")), threshold=0.995)

    run("cosine_dup_pairs_exact_100k", cosine_dup_pairs_exact_100k)

    print(json.dumps({
        "corpus_docs": REPS * 5000 if "sf0.1" in SRC else None,
        "corpus_files": len(files),
        "reps": REPS,
        "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        "passes": results,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
