"""Unit tests for dedup / similarity / text-analysis / multimodal stages."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    # corpus with exact dups, near dups, and distinct docs
    rows = [
        (0, "the quick brown fox jumps over the lazy dog again and again"),
        (1, "the quick brown fox jumps over the lazy dog again and again"),   # exact dup of 0
        (2, "the quick brown fox jumps over the lazy cat again and again"),   # near dup of 0
        (3, "completely different content about ray data pipelines at scale"),
        (4, "totally unrelated words regarding benchmark harness design"),
        (5, "the quick brown fox jumps over the lazy dog again and again!"),  # near dup of 0
    ]
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
            }
        )
    )


def test_exact_dedup(docs_ds):
    from htmlparsersharp_ray.stages.dedup import exact_dedup

    kept = sorted(exact_dedup(docs_ds).to_pandas()["doc_id"])
    assert kept == [0, 2, 3, 4, 5]  # doc 1 deduped against doc 0


def test_minhash_lsh_pairs(docs_ds):
    from htmlparsersharp_ray.stages.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(docs_ds, jaccard_threshold=0.5)
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 1) in got        # exact dup is jaccard 1.0
    assert (0, 2) in got or (0, 5) in got  # near dups share most shingles
    assert all(a < b for a, b in got)
    assert (3, 4) not in got


def test_simhash_pairs(docs_ds):
    from htmlparsersharp_ray.stages.dedup import simhash_pairs

    pairs = simhash_pairs(docs_ds, max_hamming=6)
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 1) in got        # identical text → hamming 0
    assert (3, 4) not in got


def test_brute_force_topk_self_first(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.similarity import brute_force_topk

    rng = np.random.default_rng(0)
    emb = rng.standard_normal((50, 8)).astype(np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(50), pa.int64()),
                "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    queries = {0: emb[0].astype(np.float64), 7: emb[7].astype(np.float64)}
    out = brute_force_topk(ds, queries, k=5)
    assert len(out) == 10
    first = out[out["rank"] == 1].set_index("query_id")["vec_id"]
    assert first[0] == 0 and first[7] == 7  # self-similarity = 1.0


def test_langid_and_quality(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import langid, quality_scores

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "lang": pa.array(["en", "de", "zh"], pa.string()),
                "text": pa.array(
                    [
                        "the cat sat on the mat and it is a good day for the team",
                        "der hund ist ein guter freund und die katze auf dem dach",
                        "这是一个中文句子",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    pred = langid(ds).to_pandas().set_index("doc_id")["lang_pred"]
    assert pred[0] == "en" and pred[1] == "de" and pred[2] == "zh"

    q = quality_scores(ds).to_pandas().set_index("doc_id")
    assert q.loc[0, "n_words"] == 15
    assert 0 <= q.loc[0, "quality_score"] <= 1


def test_media_features_deterministic(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import (
        MediaFeatureUDF,
        synth_media_table,
    )

    ds = ray.data.from_arrow(synth_media_table(20))
    out1 = ds.map_batches(MediaFeatureUDF(), batch_format="pyarrow",
                          batch_size=8, concurrency=2).to_pandas()
    out2 = ds.map_batches(MediaFeatureUDF(), batch_format="pyarrow",
                          batch_size=4, concurrency=1).to_pandas()
    a = out1.sort_values("media_id").reset_index(drop=True)
    b = out2.sort_values("media_id").reset_index(drop=True)
    assert (a["media_id"] == b["media_id"]).all()
    for x, y in zip(a["feature"], b["feature"]):
        assert list(x) == list(y)


def test_media_decode_stub_raises():
    from htmlparsersharp_ray.stages.multimodal import MediaFeatureUDF

    with pytest.raises(NotImplementedError):
        MediaFeatureUDF(fake=False)._decode(b"payload")


def test_fingerprint_deterministic(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import fingerprints

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(
                    ["one two three four five six seven", "one two three"],
                    pa.string(),
                ),
            }
        )
    )
    a = fingerprints(ds).to_pandas().set_index("doc_id")["fingerprint"]
    b = fingerprints(ds).to_pandas().set_index("doc_id")["fingerprint"]
    assert (a == b).all()


def test_ivf_topk_recall_vs_brute_force(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.similarity import brute_force_topk, ivf_topk

    rng = np.random.default_rng(5)
    emb = rng.standard_normal((300, 16)).astype(np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(300), pa.int64()),
                "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    queries = {i: emb[i].astype(np.float64) for i in (0, 50, 100)}
    exact = brute_force_topk(ds, queries, k=10)
    approx = ivf_topk(ds, queries, k=10, n_lists=8, n_probe=4)
    # rank-1 is always the query itself; overall recall must be decent
    for qid in queries:
        assert approx[(approx.query_id == qid) & (approx["rank"] == 1)]["vec_id"].iloc[0] == qid
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        assert len(e & a) >= 5  # ≥50% recall at n_probe=4/8 lists


def test_media_resize_and_frames(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import (
        AudioFrameSampleUDF,
        ImageResizeUDF,
        synth_media_table,
    )

    ds = ray.data.from_arrow(synth_media_table(12))
    resized = ds.map_batches(ImageResizeUDF(), batch_format="pyarrow",
                             batch_size=4, concurrency=1).to_pandas()
    assert (resized["meta"].map(lambda m: m["width"]) == 32).all()
    frames = ds.map_batches(AudioFrameSampleUDF(), batch_format="pyarrow",
                            batch_size=4, concurrency=1).to_pandas()
    assert len(frames) == 12 * 4
    assert set(frames["frame_idx"]) == {0, 1, 2, 3}
    # opaque (non-PPM/WAV) payloads still refuse honestly
    with pytest.raises(NotImplementedError):
        ImageResizeUDF(fake=False)(synth_media_table(1, real_payloads=False))


def test_ppm_wav_codec_roundtrip():
    """Real pure-numpy codecs: encode→decode is exact."""
    from htmlparsersharp_ray.stages.multimodal import (
        decode_ppm, decode_wav, encode_ppm, encode_wav,
    )

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    assert (decode_ppm(encode_ppm(img)) == img).all()

    clip = (rng.uniform(-1, 1, size=333)).astype(np.float32)
    got, rate = decode_wav(encode_wav(clip, 8000))
    assert rate == 8000
    assert np.allclose(got, np.clip(clip, -1, 1), atol=1.0 / 32767)


def test_media_features_real_decode(ray_session):
    """fake=False computes features from actually-decoded pixels/samples."""
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import (
        MediaFeatureUDF, audio_features, decode_ppm, decode_wav,
        image_features, synth_media_table,
    )

    table = synth_media_table(6)
    out = (
        ray.data.from_arrow(table)
        .map_batches(MediaFeatureUDF(fake=False),
                     batch_format="pyarrow", batch_size=2, concurrency=1)
        .to_pandas().set_index("media_id")
    )
    payloads = table.column("payload").to_pylist()
    # image row 0: features must equal the luma grid of the decoded pixels
    expected_img = image_features(decode_ppm(payloads[0]))
    assert np.allclose(np.asarray(out.loc[0, "feature"]), expected_img, atol=1e-6)
    # audio row 1: features must equal segment energies of decoded samples
    samples, rate = decode_wav(payloads[1])
    assert rate == 16000 and len(samples) == 256
    expected_aud = audio_features(samples)
    assert np.allclose(np.asarray(out.loc[1, "feature"]), expected_aud, atol=1e-6)


def test_image_resize_real(ray_session):
    import pyarrow.compute as pc
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import (
        ImageResizeUDF, decode_ppm, synth_media_table,
    )

    ds = ray.data.from_arrow(synth_media_table(8)).map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), pa.scalar("image"))),
        batch_format="pyarrow",
    )
    out = ds.map_batches(ImageResizeUDF(fake=False, width=4, height=3),
                         batch_format="pyarrow", batch_size=4, concurrency=1).to_pandas()
    for p in out["payload"]:
        px = decode_ppm(bytes(p))
        assert px.shape == (3, 4, 3)


def test_audio_frames_real(ray_session):
    import pyarrow.compute as pc
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import (
        AudioFrameSampleUDF, synth_media_table,
    )

    ds = ray.data.from_arrow(synth_media_table(8)).map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), pa.scalar("audio"))),
        batch_format="pyarrow",
    )
    out = ds.map_batches(AudioFrameSampleUDF(fake=False),
                         batch_format="pyarrow", batch_size=4, concurrency=1).to_pandas()
    assert len(out) == 4 * 4
    # real sine-mix clips have nonzero energy in every frame
    assert all(np.asarray(f).sum() > 0 for f in out["feature"])


def test_lsh_topk_recall_vs_brute_force(ray_session):
    """VERDICT r1 item 4: L-table LSH must reach >=90% recall vs exact."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import brute_force_topk, lsh_topk

    rng = np.random.default_rng(5)
    emb = rng.standard_normal((300, 16)).astype(np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(300), pa.int64()),
                "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    queries = {i: emb[i].astype(np.float64) for i in (0, 50, 100)}
    exact = brute_force_topk(ds, queries, k=10)
    approx = lsh_topk(ds, queries, k=10)
    hits = total = 0
    for qid in queries:
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        assert len(a) == 10  # full result rows, not a starved bucket
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.9


def test_lsh_topk_deterministic_across_calls(ray_session):
    """ADVICE r1: module-level RNG made repeated calls differ."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import lsh_topk

    rng = np.random.default_rng(9)
    emb = rng.standard_normal((120, 8)).astype(np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(120), pa.int64()),
                "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    queries = {3: emb[3].astype(np.float64)}
    a = lsh_topk(ds, queries, k=5)
    b = lsh_topk(ds, queries, k=5)
    assert list(a["vec_id"]) == list(b["vec_id"])


def test_minhash_path_never_materializes_on_driver(docs_ds):
    """VERDICT r1 item 2: the candidate/verify path must stay a Dataset."""
    import inspect

    import ray.data
    from htmlparsersharp_ray.stages import dedup

    src = inspect.getsource(dedup.minhash_lsh_pairs_ds)
    for banned in ("to_pandas", "iter_batches", "take_all", "iter_rows"):
        assert banned not in src, f"{banned} found in minhash_lsh_pairs_ds"
    out = dedup.minhash_lsh_pairs_ds(docs_ds, jaccard_threshold=0.5)
    assert isinstance(out, ray.data.Dataset)


def test_bloom_filter_membership():
    from htmlparsersharp_ray.stages.dedup import _bloom_contains, _bloom_from_ids

    ids = np.array([3, 17, 99, 123456789, -5], dtype=np.int64)
    bloom = _bloom_from_ids(ids)
    assert _bloom_contains(bloom, ids).all()
    others = np.arange(1000, 2000, dtype=np.int64)
    # fp rate at 5 inserted ids is ~0 — expect no false positives here
    assert not _bloom_contains(bloom, others).any()


def test_minhash_bloom_prune_identical_results(docs_ds):
    from htmlparsersharp_ray.stages.dedup import minhash_lsh_pairs

    a = minhash_lsh_pairs(docs_ds, jaccard_threshold=0.5, prune=True)
    b = minhash_lsh_pairs(docs_ds, jaccard_threshold=0.5, prune=False)
    pd.testing.assert_frame_equal(a, b)


def test_ngram_jaccard_threads_n(docs_ds):
    """ADVICE r1: n must actually change the shingling."""
    from htmlparsersharp_ray.stages.dedup import ngram_jaccard_pairs

    p2 = ngram_jaccard_pairs(docs_ds, n=2, threshold=0.4)
    p3 = ngram_jaccard_pairs(docs_ds, n=3, threshold=0.4)
    j2 = dict(zip(zip(p2["doc_a"], p2["doc_b"]), p2["jaccard"]))
    j3 = dict(zip(zip(p3["doc_a"], p3["doc_b"]), p3["jaccard"]))
    assert j2[(0, 1)] == 1.0 and j3[(0, 1)] == 1.0
    # near-dup pair: one substituted word flips n shingles per occurrence,
    # so 2-gram Jaccard > 3-gram Jaccard
    key = (0, 2)
    assert key in j2 and key in j3 and j2[key] > j3[key]


def test_dup_clusters_multi_batch_chain(ray_session):
    """VERDICT r1 item 3: label propagation at an edge set >> one batch,
    with a long chain forcing multiple propagation rounds."""
    import ray.data

    # chain 0-1-...-255 (forces ~log2(256) pointer-jump rounds) plus
    # 6000 triangle clusters => 18k+ edge rows, several blocks
    chain = pd.DataFrame({
        "doc_a": np.arange(0, 255, dtype=np.int64),
        "doc_b": np.arange(1, 256, dtype=np.int64),
    })
    base = np.arange(6000, dtype=np.int64) * 3 + 1000
    tris = pd.DataFrame({
        "doc_a": np.concatenate([base, base, base + 1]),
        "doc_b": np.concatenate([base + 1, base + 2, base + 2]),
    })
    edges = pd.concat([chain, tris], ignore_index=True)
    n_nodes = int(edges[["doc_a", "doc_b"]].to_numpy().max()) + 1
    nodes = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(n_nodes), pa.int64())})
    ).repartition(8)
    from htmlparsersharp_ray.stages.dedup import dup_clusters

    out = dup_clusters(nodes, edges, max_iters=50)
    reps = dict(zip(out["doc_id"], out["cluster_rep"]))
    assert all(reps[i] == 0 for i in range(256))
    for b in (1000, 1003, 16000):
        assert reps[b] == b and reps[b + 1] == b and reps[b + 2] == b


def test_dup_clusters(docs_ds):
    from htmlparsersharp_ray.stages.dedup import dup_clusters, minhash_lsh_pairs

    pairs = minhash_lsh_pairs(docs_ds, jaccard_threshold=0.5)
    out = dup_clusters(docs_ds.select_columns(["doc_id"]),
                       pairs[["doc_a", "doc_b"]])
    reps = dict(zip(out["doc_id"], out["cluster_rep"]))
    assert reps[0] == 0 and reps[1] == 0       # exact dup joins doc 0
    assert reps[3] == 3 and reps[4] == 4       # singletons stay themselves
    # near dups of 0 share its cluster
    assert reps[2] == 0 or reps[5] == 0


def test_embedding_lsh_dups_equal_exact_sf001(ray_session):
    """VERDICT r2 item 1: the LSH scale path wired into the graded
    queries (embeddings_lsh_dups / embedding_dup_clusters edges) must
    reproduce the exact brute-force pair set at the driver's scale and
    threshold. Uses the driver's own sf0.01 embeddings table read-only."""
    import os

    import ray.data
    from htmlparsersharp_ray.stages.dedup import (
        embedding_cosine_dup_pairs,
        embedding_cosine_dup_pairs_exact,
    )

    path = "/root/testdata/sf0.01/embeddings.parquet"
    if not os.path.exists(path):
        pytest.skip("driver testdata not present")
    emb = ray.data.read_parquet(path)
    exact = embedding_cosine_dup_pairs_exact(emb, threshold=0.45)
    lsh = embedding_cosine_dup_pairs(
        emb, threshold=0.45, n_planes=4, n_tables=32
    )
    exact_set = set(zip(exact["doc_a"].astype(int), exact["doc_b"].astype(int)))
    lsh_set = set(zip(lsh["doc_a"].astype(int), lsh["doc_b"].astype(int)))
    assert lsh_set == exact_set
    assert len(exact_set) > 0  # the corpus does contain near-dups


def test_embedding_lsh_dups_synthetic_clusters(ray_session):
    """LSH path finds planted near-dup clusters and nothing else
    (synthetic, no testdata dependency)."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import (
        embedding_cosine_dup_pairs,
        embedding_cosine_dup_pairs_exact,
    )

    rng = np.random.default_rng(31)
    base = rng.standard_normal((40, 16))
    # plant 5 clusters of 3 vectors at cosine ~0.99; the rest random
    vecs = [base[i] for i in range(40)]
    for c in range(5):
        for k in (1, 2):
            vecs[c * 3 + k] = base[c * 3] + 0.05 * rng.standard_normal(16)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    }))
    exact = embedding_cosine_dup_pairs_exact(ds, threshold=0.9)
    lsh = embedding_cosine_dup_pairs(ds, threshold=0.9, n_planes=4, n_tables=32)
    exact_set = set(zip(exact["doc_a"].astype(int), exact["doc_b"].astype(int)))
    lsh_set = set(zip(lsh["doc_a"].astype(int), lsh["doc_b"].astype(int)))
    assert lsh_set == exact_set
    assert len(exact_set) >= 15  # 5 clusters × 3 pairs


def test_simhash_banded_equals_bruteforce_sf001(ray_session):
    """VERDICT r2 item 6: the SimHash pair-MINING step is differential-
    testable even though the signature is not SQL-expressible — banded
    candidate generation + in-bucket verify must equal brute-force
    all-pairs Hamming over the engine's own signatures. Complete recall
    to Hamming 7 is guaranteed by 8×8 banding (pigeonhole)."""
    import os

    import ray.data
    from htmlparsersharp_ray.stages.dedup import (
        SimHashUDF,
        _popcount64,
        simhash_pairs,
    )

    path = "/root/testdata/sf0.01/documents.parquet"
    if not os.path.exists(path):
        pytest.skip("driver testdata not present")
    docs = ray.data.read_parquet(path)
    banded = simhash_pairs(docs, max_hamming=6)
    sig = docs.map_batches(SimHashUDF(), batch_format="pyarrow",
                           batch_size=512, concurrency=2).to_pandas()
    sig = sig.sort_values("doc_id").reset_index(drop=True)
    ids = sig["doc_id"].to_numpy()
    hs = sig["simhash"].to_numpy(dtype=np.uint64)
    dist = _popcount64(hs[:, None] ^ hs[None, :])
    ii, jj = np.nonzero(np.triu(dist <= 6, k=1))
    brute = set(zip(ids[ii].astype(int), ids[jj].astype(int)))
    got = set(zip(banded["doc_a"].astype(int), banded["doc_b"].astype(int)))
    assert got == brute
    assert len(brute) > 0


def test_simhash_scalar_matches_batch():
    """The scalar wrapper and the batched path agree bit-for-bit."""
    from htmlparsersharp_ray.stages.dedup import (
        _hash_tokens64,
        _simhash_batch,
        _simhash64,
    )

    texts = ["the quick brown fox", "", "a", "x y z w v u t s r q p o n m"]
    toks = [t.split() for t in texts]
    counts = np.array([len(x) for x in toks], dtype=np.int64)
    flat = np.asarray([w for x in toks for w in x], dtype=object)
    batch_sigs = _simhash_batch(_hash_tokens64(flat), counts)
    for t, s in zip(texts, batch_sigs):
        assert _simhash64(t) == int(s)


def test_fingerprint_fast_deterministic_and_semantic(ray_session):
    """Rolling-hash fingerprint: run-to-run deterministic, equal texts →
    equal fingerprints, and the value is genuinely the min over window
    hashes (recomputed directly from the hashing primitives)."""
    import ray.data
    from htmlparsersharp_ray.stages.hashing import hash_strings64, window_hashes
    from htmlparsersharp_ray.stages.text_analysis import fingerprints_fast

    texts = [
        "alpha beta gamma delta epsilon zeta eta theta",
        "alpha beta gamma delta epsilon zeta eta theta",   # dup of 0
        "one two three",                                   # < window words
        "",                                                # empty
        "totally different words in this document here now",
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    a = fingerprints_fast(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = fingerprints_fast(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(a["fingerprint64"]) == list(b["fingerprint64"])
    assert a["fingerprint64"][0] == a["fingerprint64"][1]
    assert a["fingerprint64"][0] != a["fingerprint64"][4]
    # direct recomputation for doc 0
    th = hash_strings64(np.asarray(texts[0].split(), dtype=object))
    expect = int(window_hashes(th, 5).min())
    assert int(np.uint64(a["fingerprint64"][0])) == expect
    # short doc: single window of all words
    th3 = hash_strings64(np.asarray(texts[2].split(), dtype=object))
    assert int(np.uint64(a["fingerprint64"][2])) == int(window_hashes(th3, 3)[0])


def test_clean_corpus_composition(ray_session):
    """End-to-end cleaning composition: dedup drops the exact dup,
    quality drops short docs, langid drops non-English, survivors get
    token counts."""
    import ray.data
    import __ray_entry__ as entry
    import pyarrow.parquet as pq
    import tempfile, os

    en_long = ("the quick brown fox jumps over the lazy dog and then the "
               "dog wakes up to chase the fox around the yard for a while")
    de_long = ("der hund und die katze sind mit der maus auf der wiese und "
               "das ist ein langer deutscher satz mit vielen wörtern der "
               "für den test geschrieben wurde und noch länger wird")
    rows = [
        (0, "en", en_long),
        (1, "en", en_long),          # exact dup of 0 → dropped
        (2, "en", "too short"),      # quality-filtered
        (3, "de", de_long),          # language-filtered
        (4, "en", en_long + " extra tail words here making it unique"),
    ]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[2]) for r in rows], pa.int64()),
        }), os.path.join(d, "documents.parquet"))
        out = entry.queries()["docs_clean_corpus"](d)
    assert list(out["doc_id"]) == [0, 4]
    assert (out["ws_tokens"] >= 20).all()


def test_hll_accuracy_and_merge(ray_session):
    """HyperLogLog gates: ±2% of the exact distinct count on the
    driver's events table, and register max-merge associativity (any
    partial split estimates the same union)."""
    import os

    import ray.data
    from htmlparsersharp_ray.stages.hashing import mix64
    from htmlparsersharp_ray.stages.sketches import (
        approx_distinct,
        hll_estimate,
        hll_registers,
    )

    # pure-math accuracy envelope at several scales
    for n in (1000, 20000, 200000):
        h = mix64(np.arange(n, dtype=np.uint64))
        est = hll_estimate(hll_registers(h))
        assert abs(est - n) / n < 0.02, (n, est)
    # merge associativity: overlapping splits -> same registers
    h = mix64(np.arange(50000, dtype=np.uint64))
    whole = hll_registers(h)
    merged = np.maximum(hll_registers(h[:30000]), hll_registers(h[25000:]))
    assert (whole == merged).all()

    path = "/root/testdata/sf0.01/events.parquet"
    if not os.path.exists(path):
        pytest.skip("driver testdata not present")
    ds = ray.data.read_parquet(path, columns=["user_id"])
    exact = len(set(ds.to_pandas()["user_id"]))
    est = approx_distinct(ds, "user_id")
    assert abs(est - exact) / exact < 0.02


def test_repetition_signals_semantics(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import repetition_signals

    rows = {
        0: "a a a b",            # 4 tokens, 2 distinct, max 3, rep 0.75
        1: "x y z",              # all distinct → rep 1/3
        2: "",                   # empty → all zeros
        3: "   ",                # whitespace-only → all zeros
        4: "w w w w",            # fully degenerate → rep 1.0
    }
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(rows), pa.int64()),
                  "text": pa.array(list(rows.values()), pa.string())})
    )
    out = repetition_signals(ds).to_pandas().set_index("doc_id")
    assert list(out.loc[0][["n_tokens", "n_distinct", "max_tok_n"]]) == [4, 2, 3]
    assert out.loc[0, "rep_frac"] == 0.75
    assert list(out.loc[2][["n_tokens", "n_distinct", "max_tok_n"]]) == [0, 0, 0]
    assert out.loc[2, "rep_frac"] == 0.0
    assert list(out.loc[3][["n_tokens", "n_distinct", "max_tok_n"]]) == [0, 0, 0]
    assert out.loc[4, "rep_frac"] == 1.0
    assert out.loc[1, "rep_frac"] == 1.0 / 3.0


def test_pack_bins_matches_sequential_reference(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import pack_bins

    # token counts chosen so docs straddle bin boundaries (budget 10):
    # cum_excl: 0, 7, 11, 11, 20, 26 → bins 0, 0, 1, 1, 2, 2
    toks = [7, 4, 0, 9, 6, 3]
    texts = [" ".join(["t"] * n) for n in toks]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(6), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    out = pack_bins(ds, budget=10, n_buckets=4)
    # sequential greedy reference
    ref = {}
    cum = 0
    for d, n in enumerate(toks):
        b = cum // 10
        ref.setdefault(b, [0, 0, d, d])
        ref[b][0] += 1
        ref[b][1] += n
        ref[b][3] = d
        cum += n
    got = {int(r.bin_id): [int(r.n_docs), int(r.sum_tokens),
                           int(r.first_doc), int(r.last_doc)]
           for r in out.itertuples()}
    assert got == ref
    # bucket-count invariance: the distributed scan must not depend on
    # the partitioning
    out1 = pack_bins(ds, budget=10, n_buckets=1)
    assert out.equals(out1)


def test_decontaminate_gram_semantics(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.dedup import decontaminate

    bench = "one two three four five six seven eight nine ten"
    # doc 21 shares the full 8-gram "one..eight"; doc 22 shares only a
    # 7-token prefix (never 8 in a row); doc 23 is unrelated; doc 24 is
    # too short to form an 8-gram even though all its tokens are bench's.
    rows = {
        20: bench,                                              # bench (id%20==0)
        21: "zz " + " ".join(bench.split()[:8]) + " yy",
        22: " ".join(bench.split()[:7]) + " XX " + " ".join(bench.split()[:7]),
        23: "completely different words with no overlap at all here ok",
        24: " ".join(bench.split()[:7]),
    }
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(rows), pa.int64()),
                  "text": pa.array(list(rows.values()), pa.string())})
    )
    out = decontaminate(ds, bench_mod=20, n=8)
    assert list(out["doc_id"]) == [21]


def test_pack_bins_sparse_ids_random_vs_sequential(ray_session):
    # sparse, non-dense doc_ids (the range bucketing must stay correct
    # for ANY monotone id layout, not just 0..n-1) + random token counts,
    # differential against the sequential greedy definition.
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import pack_bins

    rng = np.random.default_rng(77)
    ids = np.unique(rng.integers(0, 10**9, 80)).astype(np.int64)
    toks = rng.integers(0, 40, len(ids))
    texts = [" ".join(["w"] * int(n)) for n in toks]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    )
    budget = 64
    out = pack_bins(ds, budget=budget, n_buckets=8)

    ref = {}
    cum = 0
    for d, n in zip(ids, toks):
        b = cum // budget
        e = ref.setdefault(int(b), [0, 0, int(d), int(d)])
        e[0] += 1
        e[1] += int(n)
        e[3] = int(d)
        cum += int(n)
    got = {int(r.bin_id): [int(r.n_docs), int(r.sum_tokens),
                           int(r.first_doc), int(r.last_doc)]
           for r in out.itertuples()}
    assert got == ref


def test_pack_bins_negative_ids_clamp_to_first_bucket(ray_session):
    # negative doc_ids must clamp into bucket 0 (not wrap through
    # Python negative indexing into the last bucket's offset)
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import pack_bins

    ids = np.array([-5, -1, 0, 3, 7], dtype=np.int64)
    toks = [4, 3, 5, 2, 6]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids),
                  "text": pa.array([" ".join(["w"] * n) for n in toks])})
    )
    out = pack_bins(ds, budget=8, n_buckets=4)
    ref, cum = {}, 0
    for d, n in zip(ids, toks):
        b = cum // 8
        e = ref.setdefault(int(b), [0, 0, int(d), int(d)])
        e[0] += 1; e[1] += n; e[3] = int(d)
        cum += n
    got = {int(r.bin_id): [int(r.n_docs), int(r.sum_tokens),
                           int(r.first_doc), int(r.last_doc)]
           for r in out.itertuples()}
    assert got == ref


def test_quantile_sketch_exact_small_and_accurate_at_scale():
    """Mergeable quantile sketch gates: (a) n <= k keeps every point and
    the midpoint-rank pick is exact; (b) 200k values split into 64
    random-size partials and merged stay under 0.5% rank error at every
    probed quantile; (c) partial arrival order cannot change any
    returned quantile."""
    from htmlparsersharp_ray.stages.sketches import (
        merge_quantile_sketches,
        quantile_sketch,
        sketch_quantile,
    )

    rng = np.random.default_rng(7)

    # (a) exact case
    v = rng.normal(size=500)
    pts, wts = quantile_sketch(v)
    assert len(pts) == 500 and (wts == 1.0).all()
    sv = np.sort(v)
    for q in (0.25, 0.5, 0.9):
        idx = min(int(np.searchsorted(np.arange(500) + 0.5, q * 500)), 499)
        assert sketch_quantile(pts, wts, q) == sv[idx]

    # (b) accuracy after a 64-way random split + merge
    v = rng.normal(size=200_000)
    cuts = np.sort(rng.choice(np.arange(1, 200_000), size=63, replace=False))
    chunks = np.split(v, cuts)
    sketches = [quantile_sketch(c) for c in chunks]
    pts, wts = merge_quantile_sketches(sketches)
    assert len(pts) <= 1024
    sv = np.sort(v)
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        got = sketch_quantile(pts, wts, q)
        rank = np.searchsorted(sv, got) / 200_000
        assert abs(rank - q) < 0.005, (q, rank)

    # (c) order-insensitive quantiles
    order = rng.permutation(len(sketches))
    pts2, wts2 = merge_quantile_sketches([sketches[i] for i in order])
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        assert sketch_quantile(pts2, wts2, q) == sketch_quantile(pts, wts, q)


def test_part_quantiles_sketch_query_exact_at_sf(ray_session):
    """At sf scale every brand's merged sketch holds ALL its points
    (n <= 1024), so the distributed query must equal the in-test
    midpoint-rank reference computed from the raw parquet."""
    import os

    import __ray_entry__ as entry

    sf = "/root/testdata/sf0.01"
    path = os.path.join(sf, "part.parquet")
    if not os.path.exists(path):
        pytest.skip("driver testdata not present")
    out = entry.queries()["part_quantiles_sketch"](sf).set_index("p_brand")
    df = pd.read_parquet(path, columns=["p_brand", "p_retailprice"])
    assert len(out) == df["p_brand"].nunique()
    for brand, g in df.groupby("p_brand"):
        v = np.sort(g["p_retailprice"].to_numpy())
        n = len(v)
        assert n <= 1024  # exactness precondition at this sf
        for q, col in ((0.25, "p25"), (0.5, "median"), (0.9, "p90")):
            idx = min(int(np.searchsorted(np.arange(n) + 0.5, q * n)), n - 1)
            assert out.loc[brand, col] == v[idx], (brand, col)
        assert out.loc[brand, "n_parts"] == n


def test_docs_dup_clusters_transitive_chain(ray_session):
    """The text dup-cluster query: A~B and B~C (3-gram Jaccard >= 0.4)
    but A≁C directly — the closure still puts all three in one cluster
    labeled by the min doc_id; unrelated docs stay singletons."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    base = "the quick brown fox jumps over the lazy dog again and again " * 3
    a = base + "alpha beta gamma delta"
    b = base + "alpha beta something else entirely now"
    c = base + "completely different tail tokens here instead"
    lone = "unrelated text with no shared window content whatsoever " * 5
    rows = [(10, a), (11, b), (12, c), (13, lone)]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["t"] * 4, pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }), os.path.join(d, "documents.parquet"))
        out = entry.queries()["docs_dup_clusters"](d)
    got = dict(zip(out["doc_id"], out["cluster_rep"]))
    assert got[10] == got[11] == got[12] == 10
    assert got[13] == 13


def test_dup_pairs_multi_sources_and_both(ray_session):
    """The union op tags each pair with its detecting source; a pair
    caught by BOTH detectors (identical text AND near-identical
    embedding) tags 'both' and appears once."""
    import os
    import tempfile

    import numpy as np
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    dup_text = "shared duplicated content tokens " * 20
    texts = [dup_text, dup_text,
             "completely different body one " * 20,
             "another unrelated body text " * 20]
    rng = np.random.default_rng(5)
    base = rng.normal(size=16)
    embs = [base, base * 1.001,                  # cosine ~1 → emb pair
            rng.normal(size=16), rng.normal(size=16)]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["t"] * 4, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }), os.path.join(d, "documents.parquet"))
        pq.write_table(pa.table({
            "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
            "embedding": pa.array([list(map(float, e)) for e in embs],
                                  pa.list_(pa.float32())),
        }), os.path.join(d, "embeddings.parquet"))
        out = entry.queries()["dup_pairs_multi"](d)
    got = {(a, b): s for a, b, s in
           zip(out["doc_a"], out["doc_b"], out["src"])}
    assert got[(0, 1)] == "both"
    assert ((out["doc_a"] == 0) & (out["doc_b"] == 1)).sum() == 1


def test_mg_compress_bound_and_survival():
    """mg_compress keeps <= m entries, only lowers counters, and any
    term with count > N/(m+1) survives."""
    import numpy as np

    from htmlparsersharp_ray.stages.sketches import mg_compress

    rng = np.random.default_rng(11)
    counts = rng.integers(1, 50, size=5000).astype(np.int64)
    counts[:5] = 100_000  # heavy hitters
    terms = np.array([f"t{i}" for i in range(5000)], dtype=object)
    t, c = mg_compress(terms, counts, m=64)
    assert len(t) <= 64
    orig = dict(zip(terms, counts))
    n_total = int(counts.sum())
    for ti, ci in zip(t, c):
        assert ci <= orig[ti]                      # underestimate only
        assert orig[ti] - ci <= n_total // 65 + 1  # error bound
    kept = set(t)
    for i in range(5):
        assert f"t{i}" in kept                     # hitters survive


def test_top_terms_sketch_exact_under_forced_compression(ray_session):
    """A planted long tail (vocab >> m, m tiny) forces MG compression in
    every batch; the two-pass op still returns the EXACT top-k because
    pass 2 recounts candidates exactly and the hitters clear N/(m+1)."""
    import collections
    import os
    import tempfile

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from htmlparsersharp_ray.stages.text_analysis import top_terms, top_terms_sketch

    rng = np.random.default_rng(7)
    docs = []
    for i in range(200):
        toks = [f"tail{rng.integers(0, 20000)}" for _ in range(40)]
        toks += [f"hot{j}" for j in range(10) for _ in range(3 + j)]
        rng.shuffle(toks)
        docs.append(" ".join(toks))
    exact_counts = collections.Counter(
        w for d in docs for w in d.strip().lower().split())
    expected = sorted(exact_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array(list(range(len(docs))), pa.int64()),
            "text": pa.array(docs, pa.string()),
            "lang": pa.array(["en"] * len(docs), pa.string()),
            "source": pa.array(["t"] * len(docs), pa.string()),
            "n_chars": pa.array([len(t) for t in docs], pa.int64()),
        }), os.path.join(d, "documents.parquet"))
        ds = ray.data.read_parquet(os.path.join(d, "documents.parquet"))
        out = top_terms_sketch(ds, k=10, m=64, merge_buckets=8)
        ref = top_terms(ray.data.read_parquet(
            os.path.join(d, "documents.parquet")), k=10)
    got = list(zip(out["term"], out["n"]))
    assert got == expected
    assert got == list(zip(ref["term"], ref["n"]))


def test_chunk_docs_boundaries(ray_session):
    """Chunking edges: short doc → one chunk; exactly one window → one
    chunk; window+1 tokens → two overlapping chunks whose union covers
    every token; empty doc → no chunks."""
    import os
    import tempfile

    import pyarrow.parquet as pq
    import ray.data

    from htmlparsersharp_ray.stages.text_analysis import chunk_docs

    docs = {
        0: " ".join(f"t{i}" for i in range(10)),     # < window
        1: " ".join(f"t{i}" for i in range(64)),     # == window
        2: " ".join(f"t{i}" for i in range(65)),     # window + 1
        3: "",                                        # empty
        4: " ".join(f"t{i}" for i in range(150)),    # multi-chunk
    }
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.string()),
            "lang": pa.array(["en"] * 5, pa.string()),
            "source": pa.array(["t"] * 5, pa.string()),
            "n_chars": pa.array([len(v) for v in docs.values()], pa.int64()),
        }), os.path.join(d, "documents.parquet"))
        out = chunk_docs(ray.data.read_parquet(
            os.path.join(d, "documents.parquet")), window=64, stride=48
        ).to_pandas().sort_values(["doc_id", "chunk_idx"])
    by = {k: g for k, g in out.groupby("doc_id")}
    assert 3 not in by
    assert list(by[0]["n_tokens"]) == [10]
    assert list(by[1]["n_tokens"]) == [64, 16]   # start 48 < 64 → tail chunk
    assert list(by[2]["n_tokens"]) == [64, 17]
    # doc 4: starts 0,48,96,144 → lengths 64,64,54,6
    assert list(by[4]["n_tokens"]) == [64, 64, 54, 6]
    # overlap rule: every token appears in at least one chunk
    toks4 = set()
    for t in by[4]["chunk_text"]:
        toks4.update(t.split())
    assert toks4 == {f"t{i}" for i in range(150)}
    # chunk text is the exact token slice
    assert by[2]["chunk_text"].iloc[1] == " ".join(f"t{i}" for i in range(48, 65))


def test_model_quality_score_features_and_flag(ray_session):
    """ModelScoreUDF: empty doc scores the bias only; stopword-rich text
    raises the logit; keep_flag == (logit > 0)."""
    import os
    import tempfile

    import pyarrow.parquet as pq
    import ray.data

    from htmlparsersharp_ray.stages.text_analysis import (
        QUALITY_MODEL,
        model_quality_scores,
    )

    texts = ["", "the of and to in is that it for a " * 30,
             "!!! ??? ;;; ###"]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
            "source": pa.array(["t"] * 3, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }), os.path.join(d, "documents.parquet"))
        out = model_quality_scores(ray.data.read_parquet(
            os.path.join(d, "documents.parquet"))).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out.loc[0, "model_logit"] == QUALITY_MODEL["bias"]
    assert out.loc[1, "model_logit"] > 0 and out.loc[1, "keep_flag"] == 1
    assert out.loc[2, "model_logit"] < 0 and out.loc[2, "keep_flag"] == 0
    assert ((out["model_logit"] > 0) == (out["keep_flag"] == 1)).all()


def test_gram_dups_census(ray_session):
    """gram_dups: only grams appearing in >=2 DISTINCT docs count, each
    doc reports its DISTINCT shared grams, short docs form no grams,
    and the census is bucket-count invariant."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import gram_dups

    base = "a b c d e f g h"                      # exactly one 8-gram
    rows = {
        1: base + " x",                           # grams: (a..h), (b..h x)
        2: "z " + base,                           # grams: (z a..g), (a..h)
        3: "totally unrelated words here that never overlap anything q r",
        4: " ".join(base.split()[:7]),            # 7 tokens: no gram
    }
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(rows), pa.int64()),
                  "text": pa.array(list(rows.values()), pa.string())})
    )
    out = gram_dups(ds, n=8)
    assert list(out["doc_id"]) == [1, 2]
    assert list(out["n_shared_grams"]) == [1, 1]   # the shared (a..h)
    assert out.equals(gram_dups(ds, n=8, n_buckets=1))


def test_incremental_near_dups(docs_ds):
    """New shard = even doc_ids. Doc 0 (new) matches corpus docs 1 and
    5 -> dup_of must be the SMALLEST corpus match (1) with jaccard 1.0;
    doc 2 (new) near-matches corpus docs 1/5; within-side pairs (e.g.
    corpus 1 vs corpus 5) and distinct docs are never flagged."""
    from htmlparsersharp_ray.stages.dedup import incremental_near_dups

    out = incremental_near_dups(
        docs_ds, is_new=lambda ids: ids % 2 == 0, jaccard_threshold=0.5,
    )
    by_id = {int(r.doc_id): r for r in out.itertuples()}
    assert set(by_id) <= {0, 2, 4}
    assert 0 in by_id and by_id[0].dup_of == 1 and by_id[0].jaccard == 1.0
    assert 2 in by_id and by_id[2].dup_of in (1, 5)
    assert 4 not in by_id  # distinct doc
    # all flagged rows are new-side, all dup_of are corpus-side
    assert all(k % 2 == 0 for k in by_id)
    assert all(int(r.dup_of) % 2 == 1 for r in out.itertuples())


def test_incremental_near_dups_empty(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.dedup import incremental_near_dups

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 3], pa.int64()),
        "text": pa.array(["alpha beta gamma delta", "zeta eta theta iota"]),
    }))
    out = incremental_near_dups(ds, is_new=lambda ids: ids % 2 == 0)
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "dup_of", "jaccard"]


def test_kmeans_matches_numpy_reference(ray_session):
    """Distributed k-means == single-node numpy fixed-point reference,
    BITWISE (assignments integer-equal, centroids float64-equal),
    across different block layouts — the determinism argument is that
    fixed-point partial sums make reduction order irrelevant."""
    import ray.data
    from htmlparsersharp_ray.stages.clustering import kmeans, kmeans_reference

    rng = np.random.default_rng(11)
    n, d, k = 400, 16, 5
    centers = rng.normal(size=(k, d)) * 4
    x = (centers[rng.integers(0, k, n)]
         + rng.normal(size=(n, d))).astype(np.float32)
    ids = rng.permutation(n).astype(np.int64)  # ids not in storage order

    ref_a, ref_c = kmeans_reference(ids, x, k=k, iters=6)
    # reference returns assignments in row order of x; key them by id
    ref_by_id = dict(zip(ids.tolist(), ref_a.tolist()))

    for blocks in (1, 7):
        tab = pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([row.tolist() for row in x],
                                  pa.list_(pa.float32())),
        })
        ds = ray.data.from_arrow(tab).repartition(blocks)
        out, cent = kmeans(ds, k=k, iters=6)
        got = dict(zip(out["vec_id"], out["cluster"]))
        assert got == ref_by_id, f"assignments diverge at blocks={blocks}"
        np.testing.assert_array_equal(cent, ref_c)


def test_kmeans_fewer_points_than_k(ray_session):
    import ray.data
    from htmlparsersharp_ray.stages.clustering import kmeans

    tab = pa.table({
        "vec_id": pa.array([5, 2], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]], pa.list_(pa.float32())),
    })
    out, cent = kmeans(ray.data.from_arrow(tab), k=8, iters=3)
    assert len(out) == 2 and cent.shape == (2, 2)
    # each point sits exactly on a centroid -> distinct clusters
    assert sorted(out["cluster"].tolist()) == [0, 1]


def test_docs_canonical_survivor_selection(ray_session, tmp_path):
    """Per dup cluster: the LONGEST doc survives, ties break to the
    smallest doc_id; singletons survive as themselves with n_docs=1."""
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    near_a = ("alpha beta gamma delta epsilon zeta eta theta "
              "iota kappa lambda mu")
    near_b = near_a + " EXTRA TAIL WORDS HERE"     # longer near-dup
    docs = [
        (0, near_a),
        (1, near_b),          # cluster {0,1}: 1 is longer -> survivor
        (2, near_a),          # also joins the cluster (exact dup of 0)
        (3, "a completely different document about ray data pipelines"),
    ]
    t = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
        "n_chars": pa.array([len(d[1]) for d in docs], pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = entry._q_docs_canonical(str(tmp_path))
    by_rep = {int(r.cluster_rep): r for r in out.itertuples()}
    assert by_rep[0].doc_id == 1 and by_rep[0].n_docs == 3
    assert by_rep[3].doc_id == 3 and by_rep[3].n_docs == 1
    assert len(out) == 2


def test_kmeans_duplicate_ids_deterministic(ray_session):
    """Duplicate ids with DIFFERENT vectors: seeding resolves the tie
    by vector bytes (order-free), so assignments match the reference
    and are identical across block layouts."""
    import ray.data
    from htmlparsersharp_ray.stages.clustering import kmeans, kmeans_reference

    rng = np.random.default_rng(23)
    x = rng.normal(size=(60, 8)).astype(np.float32)
    ids = np.arange(60, dtype=np.int64)
    ids[1] = ids[0]  # duplicate id 0 with a different vector
    ids[10] = ids[9]

    ref_a, ref_c = kmeans_reference(ids, x, k=4, iters=4)

    results = []
    for blocks in (1, 5):
        tab = pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([r.tolist() for r in x],
                                  pa.list_(pa.float32())),
        })
        out, cent = kmeans(ray.data.from_arrow(tab).repartition(blocks),
                           k=4, iters=4)
        results.append((tuple(map(tuple, out.to_numpy())), cent.tobytes()))
        np.testing.assert_array_equal(cent, ref_c)
    assert results[0] == results[1]


def test_incremental_matches_postfiltered_full_mining(docs_ds):
    """pair_filter only PRUNES: the incremental result equals taking
    the FULL pair mining, keeping cross-side pairs, and reducing to
    the min corpus partner per new doc."""
    from htmlparsersharp_ray.stages.dedup import (
        incremental_near_dups,
        minhash_lsh_pairs,
    )

    full = minhash_lsh_pairs(docs_ds, jaccard_threshold=0.5)
    want = {}
    for a, b, j in zip(full["doc_a"], full["doc_b"], full["jaccard"]):
        a, b = int(a), int(b)
        if (a % 2 == 0) == (b % 2 == 0):
            continue  # within-side
        new_id, old_id = (a, b) if a % 2 == 0 else (b, a)
        if new_id not in want or old_id < want[new_id][0]:
            want[new_id] = (old_id, float(j))

    got = incremental_near_dups(
        docs_ds, is_new=lambda ids: ids % 2 == 0, jaccard_threshold=0.5)
    got_map = {int(r.doc_id): (int(r.dup_of), float(r.jaccard))
               for r in got.itertuples()}
    assert got_map == want and len(want) > 0


def _bruteforce_jaccard_pairs(texts, ids, threshold, n=3):
    """Independent all-pairs exact Jaccard via an inverted token index —
    the reference the prefix-filter path must match EXACTLY (it is
    deterministic zero-miss by the prefix theorem, unlike LSH banding)."""
    from htmlparsersharp_ray.stages.dedup import _shingle_hash_sets

    sets = _shingle_hash_sets(list(texts), n)
    sizes = [s.size for s in sets]
    postings = {}
    for i, s in enumerate(sets):
        for tok in s.tolist():
            postings.setdefault(tok, []).append(i)
    inter = {}
    for docs in postings.values():
        for x in range(len(docs)):
            for y in range(x + 1, len(docs)):
                key = (docs[x], docs[y])
                inter[key] = inter.get(key, 0) + 1
    out = {}
    for (i, j), c in inter.items():
        jac = c / (sizes[i] + sizes[j] - c)
        if jac >= threshold:
            a, b = sorted((int(ids[i]), int(ids[j])))
            out[(a, b)] = jac
    return out


def test_jaccard_prefix_equals_bruteforce_planted(ray_session):
    """Prefix filtering (AllPairs/PPJoin) is EXACT: on a corpus with
    planted near-dups, rewrites, and unrelated docs, the mined pair set
    and jaccard values equal an independent brute-force all-pairs pass."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import jaccard_prefix_pairs

    rng = np.random.default_rng(7)
    vocab = [f"w{k}" for k in range(300)]
    texts, ids = [], []
    did = 0
    for c in range(12):
        base = " ".join(rng.choice(vocab, size=40).tolist())
        texts.append(base); ids.append(did); did += 1
        words = base.split()
        # near dup: swap 3 words
        w = words.copy()
        for pos in rng.choice(len(w), size=3, replace=False):
            w[pos] = str(rng.choice(vocab))
        texts.append(" ".join(w)); ids.append(did); did += 1
        # heavier rewrite: swap 15 words (usually below 0.4)
        w = words.copy()
        for pos in rng.choice(len(w), size=15, replace=False):
            w[pos] = str(rng.choice(vocab))
        texts.append(" ".join(w)); ids.append(did); did += 1
    for _ in range(20):  # unrelated docs
        texts.append(" ".join(rng.choice(vocab, size=30).tolist()))
        ids.append(did); did += 1
    texts.append("")  # empty doc must not break token_rows
    ids.append(did)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(6)

    want = _bruteforce_jaccard_pairs(texts, ids, 0.4)
    got = jaccard_prefix_pairs(ds, jaccard_threshold=0.4)
    got_map = {(int(a), int(b)): float(j) for a, b, j in
               zip(got["doc_a"], got["doc_b"], got["jaccard"])}
    assert set(got_map) == set(want)
    for k in want:
        assert got_map[k] == pytest.approx(want[k], abs=1e-12)
    assert len(want) >= 12  # every light near-dup pair qualifies


def test_jaccard_prefix_equals_bruteforce_sf001(ray_session):
    """Driver-scale differential: prefix path == brute force on the
    sf0.01 documents table at the graded threshold (0.4)."""
    import os

    import ray.data
    from htmlparsersharp_ray.stages.dedup import jaccard_prefix_pairs

    path = "/root/testdata/sf0.01/documents.parquet"
    if not os.path.exists(path):
        pytest.skip("driver testdata not present")
    docs = ray.data.read_parquet(path, columns=["doc_id", "text"])
    tbl = docs.to_pandas()
    want = _bruteforce_jaccard_pairs(tbl["text"], tbl["doc_id"], 0.4)
    got = jaccard_prefix_pairs(docs, jaccard_threshold=0.4)
    got_map = {(int(a), int(b)): float(j) for a, b, j in
               zip(got["doc_a"], got["doc_b"], got["jaccard"])}
    assert set(got_map) == set(want) and len(want) > 0


def test_jaccard_prefix_prune_and_filter(docs_ds):
    """prune=False must not change results; pair_filter prunes pairs
    BEFORE verification (same contract as the MinHash path); the _ds
    path never materializes on the driver."""
    import inspect

    import ray.data
    from htmlparsersharp_ray.stages import dedup

    a = dedup.jaccard_prefix_pairs(docs_ds, jaccard_threshold=0.4, prune=True)
    b = dedup.jaccard_prefix_pairs(docs_ds, jaccard_threshold=0.4, prune=False)
    pd.testing.assert_frame_equal(a, b)
    assert (0, 1) in set(zip(a["doc_a"], a["doc_b"]))

    only_even = dedup.jaccard_prefix_pairs_ds(
        docs_ds, jaccard_threshold=0.4,
        pair_filter=lambda x, y: (x % 2 == 0) & (y % 2 == 0)).to_pandas()
    got = set(zip(only_even["doc_a"], only_even["doc_b"]))
    want = {(x, y) for x, y in zip(a["doc_a"], a["doc_b"])
            if x % 2 == 0 and y % 2 == 0}
    assert got == want

    src = inspect.getsource(dedup.jaccard_prefix_pairs_ds)
    for banned in ("to_pandas", "iter_batches", "take_all", "iter_rows"):
        assert banned not in src
    assert isinstance(dedup.jaccard_prefix_pairs_ds(docs_ds), ray.data.Dataset)


def _ref_pagerank_int(edges_pd, iters=5, num=85, den=100, scale=10**6):
    """Sequential integer reference — same fixed-point formula."""
    nodes = sorted(set(edges_pd["src"]) | set(edges_pd["dst"]))
    deg = edges_pd.groupby("src").size().to_dict()
    r = {v: scale for v in nodes}
    tele = (scale * (den - num)) // den
    for _ in range(iters):
        s = {v: 0 for v in nodes}
        for u, v in zip(edges_pd["src"], edges_pd["dst"]):
            s[v] += r[u] // deg[u]
        r = {v: tele + (num * s[v]) // den for v in nodes}
    return r


def test_pagerank_matches_integer_reference_and_block_layouts(ray_session):
    """Distributed PageRank is BITWISE equal to the sequential integer
    reference, at 1 block and at 8 blocks (parallelism invariance), on a
    graph with a hub, a chain, a cycle, and a dangling node."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import pagerank

    rng = np.random.default_rng(3)
    rows = [(i, 0) for i in range(1, 30)]            # hub
    rows += [(i, i + 1) for i in range(30, 60)]      # chain -> dangling 60
    rows += [(70, 71), (71, 72), (72, 70)]           # cycle
    rows += [(int(a), int(b)) for a, b in rng.integers(0, 80, (100, 2))
             if a != b]
    edges_pd = pd.DataFrame(rows, columns=["src", "dst"]).drop_duplicates()
    edges_pd = edges_pd.astype("int64").reset_index(drop=True)
    want = _ref_pagerank_int(edges_pd)

    for parts in (1, 8):
        ds = ray.data.from_pandas(edges_pd).repartition(parts)
        out = pagerank(ds, iters=5).to_pandas()
        got = dict(zip(out["node"].astype(int), out["r"].astype(int)))
        assert got == want, f"mismatch at {parts} blocks"
    # dangling chain end (no out-edges, one in-edge) and no-in-edge nodes
    assert want[60] > 150000
    assert all(want[i] == 150000 for i in (30,))  # chain head: teleport floor


def test_edge_support_matches_bruteforce_and_block_layouts(ray_session):
    """Per-edge triangle support equals brute-force common-neighbor
    counting on every distinct undirected edge (support-0 edges
    included, degrees attached), at 1 and 8 blocks, on a 4-clique +
    pendant + random graph."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import edge_support

    rng = np.random.default_rng(7)
    rows = [(a, b) for a in range(1, 5) for b in range(1, 5) if a < b]
    rows += [(5, 1)]                                   # pendant: support 0
    rows += [(int(a), int(b)) for a, b in rng.integers(10, 40, (60, 2))
             if a != b]
    edges_pd = pd.DataFrame(rows, columns=["src", "dst"])
    edges_pd = edges_pd.astype("int64").reset_index(drop=True)

    # brute-force reference over canonical undirected edges
    und = set()
    for a, b in zip(edges_pd["src"], edges_pd["dst"]):
        if a != b:
            und.add((min(a, b), max(a, b)))
    adj = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {(a, b): (len(adj[a] & adj[b]), len(adj[a]), len(adj[b]))
            for a, b in und}

    for parts in (1, 8):
        ds = ray.data.from_pandas(edges_pd).repartition(parts)
        out = edge_support(ds).to_pandas()
        got = {(int(r.u), int(r.v)): (int(r.support), int(r.deg_u),
                                      int(r.deg_v))
               for r in out.itertuples()}
        assert got == want, f"mismatch at {parts} blocks"
    assert want[(1, 2)] == (2, 4, 3)   # clique edge: 2 common nbrs
    assert want[(1, 5)][0] == 0        # pendant edge: no triangles


def _ref_bfs_hops(edges_pd, sources, max_hops):
    """Sequential BFS reference: min hop distance from any source,
    capped at max_hops."""
    adj = {}
    for u, v in zip(edges_pd["src"], edges_pd["dst"]):
        adj.setdefault(int(u), set()).add(int(v))
    dist = {int(s): 0 for s in sources}
    frontier = set(dist)
    for d in range(1, max_hops + 1):
        nxt = set()
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = d
                    nxt.add(v)
        frontier = nxt
    return dist


def test_bfs_hops_matches_sequential_and_block_layouts(ray_session):
    """Multi-source BFS hop distances are BITWISE equal to a sequential
    BFS, at 1 and 8 blocks, on a graph with a long chain (exercises the
    hop cap), a hub, a cycle reachable from a source, random edges, a
    source with no edges at all (must appear at hops=0), and
    unreachable nodes (must be absent)."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import bfs_hops

    rng = np.random.default_rng(11)
    rows = [(i, i + 1) for i in range(100, 110)]      # chain: cap bites
    rows += [(0, i) for i in range(1, 15)]            # hub fan-out
    rows += [(200, 201), (201, 202), (202, 200)]      # cycle
    rows += [(300, 301)]                              # unreachable island
    rows += [(int(a), int(b)) for a, b in rng.integers(0, 60, (80, 2))
             if a != b]
    edges_pd = pd.DataFrame(rows, columns=["src", "dst"]).drop_duplicates()
    edges_pd = edges_pd.astype("int64").reset_index(drop=True)
    sources = [0, 100, 200, 999]   # 999 has no edges: hops=0 only
    for max_hops in (1, 3):
        want = _ref_bfs_hops(edges_pd, sources, max_hops)
        for parts in (1, 8):
            ds = ray.data.from_pandas(edges_pd).repartition(parts)
            src = ray.data.from_pandas(
                pd.DataFrame({"node": sources}).astype("int64"))
            out = bfs_hops(ds, src, max_hops=max_hops).to_pandas()
            got = dict(zip(out["node"].astype(int),
                           out["hops"].astype(int)))
            assert got == want, f"mismatch at {parts} blocks, H={max_hops}"
        assert want[999] == 0          # edgeless source present
        assert 300 not in want and 301 not in want   # island absent
        assert want[100 + max_hops] == max_hops      # chain capped exactly


def _ref_sssp(edges_pd, sources, max_rounds):
    """Sequential bounded Bellman-Ford reference: d_k(v) = min over
    paths of <= max_rounds edges, full relaxation every round."""
    dist = {int(s): 0 for s in sources}
    for _ in range(max_rounds):
        new = dict(dist)
        for u, v, w in zip(edges_pd["src"], edges_pd["dst"],
                           edges_pd["w"]):
            u, v, w = int(u), int(v), int(w)
            if u in dist and dist[u] + w < new.get(v, 1 << 60):
                new[v] = dist[u] + w
        dist = new
    return dist


def test_sssp_matches_sequential_and_block_layouts(ray_session):
    """Weighted bounded SSSP is bitwise equal to a full-relaxation
    Bellman-Ford at 1 and 8 blocks, on a graph where (a) a 3-edge
    cheap path beats a 1-edge expensive edge (re-improvement: the
    frontier tag must re-fire), (b) a negative case: the cheap path
    needs MORE edges than the round budget, so the expensive edge must
    win under the cap, (c) a cycle, (d) an edgeless source."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import sssp

    rows = [
        (0, 9, 100),                       # expensive direct
        (0, 1, 1), (1, 2, 1), (2, 9, 1),   # cheap 3-edge path → 3
        (0, 20, 50),                       # expensive direct to 20
        (0, 10, 1), (10, 11, 1), (11, 12, 1), (12, 20, 1),  # 4 edges
        (200, 201, 2), (201, 202, 3), (202, 200, 4),        # cycle
        (300, 301, 7),                     # unreachable island
        (5, 0, 1),                         # back-edge into a source
    ]
    edges_pd = pd.DataFrame(rows, columns=["src", "dst", "w"]).astype(
        "int64")
    sources = [0, 200, 999]
    for max_rounds in (2, 3, 4, 6):
        want = _ref_sssp(edges_pd, sources, max_rounds)
        for parts in (1, 8):
            ds = ray.data.from_pandas(edges_pd).repartition(parts)
            src = ray.data.from_pandas(
                pd.DataFrame({"node": sources}).astype("int64"))
            out = sssp(ds, src, max_rounds=max_rounds).to_pandas()
            got = dict(zip(out["node"].astype(int),
                           out["dist"].astype(int)))
            assert got == want, f"mismatch at {parts} blocks, K={max_rounds}"
    # semantics pinned at K=3: cheap 3-edge path wins to node 9, but
    # node 20's 4-edge path exceeds the budget → expensive edge wins
    want3 = _ref_sssp(edges_pd, sources, 3)
    assert want3[9] == 3 and want3[20] == 50
    want4 = _ref_sssp(edges_pd, sources, 4)
    assert want4[20] == 4                 # one more round: cheap path
    assert want3[999] == 0 and 300 not in want3


def _ref_lpa(edges_pd, iters):
    """Sequential synchronous LPA reference: labels start at node id;
    every round all nodes take their neighbors' majority label (count
    desc, label asc tie-break) simultaneously."""
    adj = {}
    for u, v in zip(edges_pd["src"], edges_pd["dst"]):
        u, v = int(u), int(v)
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    lab = {n: n for n in adj}
    for _ in range(iters):
        new = {}
        for n, nbrs in adj.items():
            counts = {}
            for m in nbrs:
                counts[lab[m]] = counts.get(lab[m], 0) + 1
            new[n] = min(counts, key=lambda k: (-counts[k], k))
        lab = new
    return lab


def test_label_propagation_matches_sequential_and_layouts(ray_session):
    """Synchronous LPA is bitwise equal to the sequential reference at
    1 and 8 blocks; two 5-cliques joined by a bridge resolve into two
    communities labelled by each clique's smallest node."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import label_propagation

    rows = []
    for base in (0, 100):                       # two 5-cliques
        for i in range(5):
            for j in range(i + 1, 5):
                rows.append((base + i, base + j))
    rows.append((4, 100))                       # bridge
    rows += [(200, 201), (201, 202)]            # path of 3
    edges_pd = pd.DataFrame(rows, columns=["src", "dst"]).astype("int64")
    for iters in (1, 3, 5):
        want = _ref_lpa(edges_pd, iters)
        for parts in (1, 8):
            ds = ray.data.from_pandas(edges_pd).repartition(parts)
            out = label_propagation(ds, iters=iters).to_pandas()
            got = dict(zip(out["node"].astype(int),
                           out["label"].astype(int)))
            assert got == want, f"mismatch at {parts} blocks, K={iters}"
    want3 = _ref_lpa(edges_pd, 3)
    assert all(want3[i] == 0 for i in range(4))        # clique A → 0
    assert all(want3[100 + i] == 100 for i in range(1, 5))  # clique B


def test_group_cooccurrence_weighted_edges_counts(ray_session):
    """cnt = number of DISTINCT groups sharing the ordered pair;
    within-group duplicates collapse; block-layout invariant."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import (
        group_cooccurrence_weighted_edges)

    df = pd.DataFrame({
        "g":    [1, 1, 1, 2, 2, 3, 3, 3],
        "item": [10, 11, 10, 10, 11, 10, 11, 12],
    }).astype("int64")   # pair (10,11) shared by groups 1,2,3 → cnt 3
    for parts in (1, 4):
        ds = ray.data.from_pandas(df).repartition(parts)
        out = group_cooccurrence_weighted_edges(ds, "g", "item").to_pandas()
        got = {(int(r.src), int(r.dst)): int(r.cnt)
               for r in out.itertuples()}
        assert got[(10, 11)] == 3 and got[(11, 10)] == 3
        assert got[(10, 12)] == 1 and got[(12, 11)] == 1
        assert (10, 10) not in got
        assert len(got) == 6


def test_group_cooccurrence_edges_semantics(ray_session):
    """Distinct directed pairs per shared group; both directions, no
    self-loops, no duplicate edges across groups or duplicate rows."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import group_cooccurrence_edges

    tbl = pd.DataFrame({
        "g":  [10, 10, 10, 20, 20, 30, 30, 40],
        "it": [1,  2,  3,  2,  3,  7,  7,  9],   # g30 repeats item 7
    }).astype("int64")
    ds = ray.data.from_pandas(tbl).repartition(4)
    e = group_cooccurrence_edges(ds, "g", "it").to_pandas()
    got = sorted(zip(e["src"], e["dst"]))
    want = sorted([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
    assert got == want  # (2,3) appears in two groups but once here


def test_triangle_counts_matches_bruteforce_and_block_layouts(ray_session):
    """Per-node triangle counts equal brute-force enumeration, at 1 and
    6 blocks, on a graph with a 6-clique (20 triangles), a 30-spoke hub
    star (zero triangles — the degree-ordered orientation must not blow
    up on it), and random edges."""
    from itertools import combinations

    import ray.data
    from htmlparsersharp_ray.stages.graph import triangle_counts

    rng = np.random.default_rng(11)
    edges = set()
    for a, b in combinations(range(6), 2):
        edges.add((a, b))
    for i in range(101, 131):   # star isolated from the random-edge
        edges.add((100, i))     # id range so it truly closes nothing
    for a, b in rng.integers(0, 50, (120, 2)):
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    epd = pd.DataFrame(sorted(edges), columns=["src", "dst"]).astype("int64")

    adj = {}
    for u, v in zip(epd["src"], epd["dst"]):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    want = {}
    for a, b, c in combinations(sorted(adj), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            for x in (a, b, c):
                want[x] = want.get(x, 0) + 1

    for parts in (1, 6):
        ds = ray.data.from_pandas(epd).repartition(parts)
        out = triangle_counts(ds).to_pandas()
        got = dict(zip(out["node"].astype(int), out["triangles"].astype(int)))
        assert got == want, f"mismatch at {parts} blocks"
    assert want[0] >= 10    # clique corner sits in many triangles
    assert 100 not in want  # hub star closes nothing


def test_common_neighbor_pairs_bruteforce_and_hub_cap(ray_session):
    """Link-prediction common-neighbor counts equal brute-force
    enumeration over NON-edges, at 1 and 6 blocks; the hub cap drops a
    high-degree center's wedge evidence (and only that evidence)."""
    from itertools import combinations

    import ray.data
    from htmlparsersharp_ray.stages.graph import common_neighbor_pairs

    rng = np.random.default_rng(23)
    edges = set()
    for i in range(1, 31):      # hub 0 with 30 spokes: every spoke pair
        edges.add((0, i))       # shares >= 1 common neighbor (the hub)
    for a, b in rng.integers(0, 40, (150, 2)):
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    epd = pd.DataFrame(sorted(edges), columns=["src", "dst"]).astype("int64")

    adj = {}
    for u, v in zip(epd["src"], epd["dst"]):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def brute(cap=None):
        want = {}
        for a, b in combinations(sorted(adj), 2):
            if b in adj[a]:
                continue
            common = {w for w in adj[a] & adj[b]
                      if cap is None or len(adj[w]) <= cap}
            if len(common) >= 2:
                want[(a, b)] = len(common)
        return want

    want = brute()
    for parts in (1, 6):
        ds = ray.data.from_pandas(epd).repartition(parts)
        out = common_neighbor_pairs(ds, min_common=2).to_pandas()
        got = {(int(u), int(v)): int(c) for u, v, c in
               zip(out["u"], out["v"], out["common"])}
        assert got == want, f"mismatch at {parts} blocks"
    assert want  # non-degenerate

    # hub cap: degree-30+ center 0 no longer contributes evidence
    want_cap = brute(cap=10)
    ds = ray.data.from_pandas(epd).repartition(4)
    out = common_neighbor_pairs(
        ds, min_common=2, max_center_degree=10).to_pandas()
    got = {(int(u), int(v)): int(c) for u, v, c in
           zip(out["u"], out["v"], out["common"])}
    assert got == want_cap
    assert want_cap != want  # the cap actually bit


def test_bpe_matches_sequential_reference(ray_session):
    """Distributed BPE merge list == the published dict-based sequential
    algorithm, at 1 and 4 blocks (bitwise determinism across layouts),
    including overlap greediness ('aaaa' merges to (aa)(aa)) and the
    (count desc, pair lex) tie-break."""
    import ray.data
    from htmlparsersharp_ray.stages.bpe import bpe_learn, bpe_learn_reference

    texts = [
        "the cat sat on the mat",
        "the dog sat on the log with the cat",
        "aaa aaaa banana bandana",
        "low lower lowest newest newer new",
        "",
        "  padded   whitespace   tokens  ",
    ]
    wc = {}
    for t in texts:
        for w in t.strip().lower().split():
            wc[w] = wc.get(w, 0) + 1
    want = bpe_learn_reference(wc, n_merges=15)
    assert len(want) == 15

    for parts in (1, 4):
        ds = ray.data.from_pandas(pd.DataFrame({
            "doc_id": np.arange(len(texts)), "text": texts,
        })).repartition(parts)
        got = bpe_learn(ds, n_merges=15)
        got_list = [(int(a), str(b), str(c), int(d)) for a, b, c, d in
                    zip(got["rank"], got["left"], got["right"],
                        got["pair_count"])]
        assert got_list == want, f"mismatch at {parts} blocks"
    # greedy overlap rule: 'aaaa' contributes 3 overlapping (a,a) pairs
    # to the count but only 2 non-overlapping merges apply
    aa = [m for m in want if m[1] == "a" and m[2] == "a"]
    assert aa and aa[0][3] == 5  # aaa(2) + aaaa(3) occurrences


def test_bpe_reference_on_driver_corpus(ray_session):
    """Driver-scale differential: 12 merges on the sf0.01 documents
    table equal the sequential reference over the same word counts."""
    import os

    import ray.data
    from htmlparsersharp_ray.stages.bpe import bpe_learn, bpe_learn_reference

    path = "/root/testdata/sf0.01/documents.parquet"
    if not os.path.exists(path):
        pytest.skip("driver testdata not present")
    docs = ray.data.read_parquet(path, columns=["doc_id", "text"])
    tbl = docs.to_pandas()
    wc = {}
    for t in tbl["text"]:
        for w in (t or "").strip().lower().split():
            wc[w] = wc.get(w, 0) + 1
    want = bpe_learn_reference(wc, n_merges=12)
    got = bpe_learn(docs, n_merges=12)
    got_list = [(int(a), str(b), str(c), int(d)) for a, b, c, d in
                zip(got["rank"], got["left"], got["right"],
                    got["pair_count"])]
    assert got_list == want and len(want) == 12


def test_phash_planted_dups_and_differential(ray_session):
    """Image pHash dedup finds every planted near-dup pair, and the
    banded miner equals brute-force Hamming over the engine's own
    hashes (the same differential gate SimHash carries)."""
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import ImagePHashUDF, phash_dups

    import __ray_entry__ as entry_mod

    tbl = entry_mod._synth_phash_corpus(100)
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = phash_dups(ds, max_hamming=6)
    got_set = set(zip(got["media_a"].astype(int), got["media_b"].astype(int)))
    planted = {(i - 1, i) for i in range(1, 100) if i % 5 == 1}
    assert planted <= got_set          # complete recall on planted dups

    sig = ds.map_batches(ImagePHashUDF(), batch_format="pyarrow",
                         batch_size=32, concurrency=2).to_pandas()
    sig = sig.sort_values("media_id").reset_index(drop=True)
    ids = sig["media_id"].to_numpy()
    h = sig["phash"].to_numpy().astype(np.uint64)
    x = h[:, None] ^ h[None, :]
    # SWAR popcount
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    dist = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
    ii, jj = np.nonzero(dist <= 6)
    want = {(int(ids[a]), int(ids[b])) for a, b in zip(ii, jj) if ids[a] < ids[b]}
    assert got_set == want


def test_average_hash_invariances():
    """aHash is stable under small noise and resize, different for
    different structure — the perceptual contract."""
    import numpy as np

    from htmlparsersharp_ray.stages.multimodal import average_hash64

    rng = np.random.default_rng(3)
    coarse = rng.integers(0, 2, (4, 4, 3)) * 255
    img = np.repeat(np.repeat(coarse, 8, axis=0), 8, axis=1).astype(np.uint8)
    noisy = np.clip(img.astype(int) + rng.integers(-8, 9, img.shape),
                    0, 255).astype(np.uint8)
    small = img[::2, ::2]              # 16×16 downsample of the same scene
    other = np.repeat(np.repeat(rng.integers(0, 2, (4, 4, 3)) * 255,
                                8, axis=0), 8, axis=1).astype(np.uint8)

    h = average_hash64(img)
    assert bin(h ^ average_hash64(noisy)).count("1") <= 2
    assert bin(h ^ average_hash64(small)).count("1") <= 2
    assert bin(h ^ average_hash64(other)).count("1") >= 10


def test_bpe_segment_matches_reference(ray_session):
    """Distributed learn→apply == sequential reference learn→apply:
    the corpus subword counts under 10 learned merges agree exactly,
    across block layouts."""
    import ray.data
    from htmlparsersharp_ray.stages.bpe import (
        bpe_learn,
        bpe_learn_reference,
        bpe_segment_counts,
        bpe_segment_reference,
    )

    texts = [
        "the cat sat on the mat",
        "the dog sat on the log with the cat",
        "aaa aaaa banana bandana",
        "low lower lowest newest newer new",
    ]
    wc = {}
    for t in texts:
        for w in t.strip().lower().split():
            wc[w] = wc.get(w, 0) + 1
    ref_merges = bpe_learn_reference(wc, n_merges=10)
    want = bpe_segment_reference(wc, ref_merges)

    for parts in (1, 3):
        ds = ray.data.from_pandas(pd.DataFrame({
            "doc_id": np.arange(len(texts)), "text": texts,
        })).repartition(parts)
        merges = bpe_learn(ds, n_merges=10)
        got_df = bpe_segment_counts(ds, merges).to_pandas()
        got = dict(zip(got_df["subword"].astype(str),
                       got_df["n"].astype(int)))
        assert got == want, f"mismatch at {parts} blocks"
    # conservation: total subword mass == total character mass is NOT
    # expected (merges shrink counts); but every subword's chars concat
    # back into corpus words
    assert sum(want.values()) < sum(len(w) * c for w, c in wc.items())


def test_kcore_matches_sequential_peel(ray_session):
    """Distributed k-core == sequential peeling for several k, at 1 and
    5 blocks, on a graph with an 8-clique (7-core), a chain (1-core),
    and random edges — including the cascade case where removing one
    node drags neighbors below k."""
    from itertools import combinations

    import ray.data
    from htmlparsersharp_ray.stages.graph import kcore

    rng = np.random.default_rng(9)
    edges = set()
    for a, b in combinations(range(8), 2):
        edges.add((a, b))
    for i in range(20, 50):
        edges.add((i, i + 1))
    for a, b in rng.integers(0, 60, (150, 2)):
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    epd = pd.DataFrame(sorted(edges), columns=["src", "dst"]).astype("int64")

    def seq_kcore(epd, k):
        adj = {}
        for u, v in zip(epd["src"], epd["dst"]):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        changed = True
        while changed:
            changed = False
            for n in [n for n, nb in adj.items() if len(nb) < k]:
                changed = True
                for m in adj[n]:
                    adj[m].discard(n)
                del adj[n]
        return {n: len(nb) for n, nb in adj.items() if len(nb) > 0}

    for k in (3, 5, 7):
        want = seq_kcore(epd, k)
        for parts in (1, 5):
            ds = ray.data.from_pandas(epd).repartition(parts)
            out = kcore(ds, k=k).to_pandas()
            got = dict(zip(out["node"].astype(int),
                           out["core_deg"].astype(int)))
            assert got == want, f"k={k} parts={parts}"
    assert len(seq_kcore(epd, 7)) == 8  # exactly the clique survives


def test_kcore_raises_on_nonconvergence(ray_session):
    """A long path with k=2 peels only 2 nodes per round — hitting
    max_rounds before the fixpoint must RAISE, not silently return a
    non-k-core remnant (review finding)."""
    import ray.data
    from htmlparsersharp_ray.stages.graph import kcore

    path = pd.DataFrame({"src": np.arange(0, 60, dtype=np.int64),
                         "dst": np.arange(1, 61, dtype=np.int64)})
    ds = ray.data.from_pandas(path)
    with pytest.raises(RuntimeError, match="fixpoint"):
        kcore(ds, k=2, max_rounds=5)
    out = kcore(ds, k=2, max_rounds=40).to_pandas()
    assert len(out) == 0  # the true 2-core of a path is empty


def test_audio_dups_planted_and_differential(ray_session):
    """Audio fingerprint dedup finds every planted half-volume noisy
    copy, and the banded miner equals brute-force Hamming over the
    engine's own fingerprints."""
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import AudioHashUDF, audio_dups

    import __ray_entry__ as entry_mod

    tbl = entry_mod._synth_audio_corpus(100)
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = audio_dups(ds, max_hamming=6)
    got_set = set(zip(got["media_a"].astype(int), got["media_b"].astype(int)))
    planted = {(i - 1, i) for i in range(1, 100) if i % 5 == 1}
    assert planted <= got_set

    sig = ds.map_batches(AudioHashUDF(), batch_format="pyarrow",
                         batch_size=32, concurrency=2).to_pandas()
    sig = sig.sort_values("media_id").reset_index(drop=True)
    ids = sig["media_id"].to_numpy()
    h = sig["ahash"].to_numpy().astype(np.uint64)
    x = h[:, None] ^ h[None, :]
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    dist = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
    ii, jj = np.nonzero(dist <= 6)
    want = {(int(ids[a]), int(ids[b])) for a, b in zip(ii, jj)
            if ids[a] < ids[b]}
    assert got_set == want


def test_audio_hash_volume_invariance():
    """The energy fingerprint is exactly invariant to volume scaling
    and different for a different envelope."""
    import numpy as np

    from htmlparsersharp_ray.stages.multimodal import audio_hash64

    rng = np.random.default_rng(5)
    t = np.arange(4096, dtype=np.float32) / 16000.0
    env = np.repeat(rng.integers(0, 2, 16).astype(np.float32), 256)
    clip = env * np.sin(2 * np.pi * 440 * t).astype(np.float32)
    other_env = 1.0 - env
    other = other_env * np.sin(2 * np.pi * 440 * t).astype(np.float32)

    h = audio_hash64(clip)
    assert audio_hash64(clip * 0.25) == h          # volume invariance
    assert audio_hash64(clip * 3.0) == h
    assert bin(h ^ audio_hash64(other)).count("1") >= 20


@pytest.mark.parametrize("seed,threshold", [(1, 0.3), (2, 0.5), (3, 0.7)])
def test_jaccard_prefix_random_differential(ray_session, seed, threshold):
    """Randomized differential sweep: prefix filtering == brute force
    at several thresholds and corpus shapes (zero-miss is a THEOREM —
    any miss is a bug, not bad luck)."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import jaccard_prefix_pairs

    rng = np.random.default_rng(seed)
    vocab = [f"t{k}" for k in range(60)]     # small vocab → real overlap
    texts = [" ".join(rng.choice(vocab, size=rng.integers(5, 25)).tolist())
             for _ in range(30)]
    ids = list(range(30))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    want = _bruteforce_jaccard_pairs(texts, ids, threshold)
    got = jaccard_prefix_pairs(ds, jaccard_threshold=threshold)
    got_map = {(int(a), int(b)): float(j) for a, b, j in
               zip(got["doc_a"], got["doc_b"], got["jaccard"])}
    assert set(got_map) == set(want)
    for k, v in want.items():
        assert got_map[k] == pytest.approx(v, abs=1e-12)


@pytest.mark.parametrize("seed", [11, 12])
def test_bpe_random_differential(ray_session, seed):
    """Randomized differential: distributed BPE == sequential reference
    on random Zipf-ish corpora (tie-breaks exercised by repetition)."""
    import ray.data
    from htmlparsersharp_ray.stages.bpe import bpe_learn, bpe_learn_reference

    rng = np.random.default_rng(seed)
    vocab = ["".join(rng.choice(list("abcdef"), size=rng.integers(2, 7)))
             for _ in range(40)]
    texts = [" ".join(rng.choice(vocab, size=20,
                                 p=np.arange(40, 0, -1) / np.arange(40, 0, -1).sum()
                                 ).tolist())
             for _ in range(15)]
    wc = {}
    for t in texts:
        for w in t.split():
            wc[w] = wc.get(w, 0) + 1
    want = bpe_learn_reference(wc, n_merges=10)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    got = bpe_learn(ds, n_merges=10)
    got_list = [(int(a), str(b), str(c), int(d)) for a, b, c, d in
                zip(got["rank"], got["left"], got["right"],
                    got["pair_count"])]
    assert got_list == want


def test_chunk_dedup_semantics(ray_session):
    """Chunk dedup: first occurrence survives (cross-doc AND within-doc),
    a doc whose every chunk duplicates earlier content vanishes, short
    trailing chunks dedupe like any other chunk."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import chunk_dedup

    w = 4
    a = "a1 a2 a3 a4 b1 b2 b3 b4 a1 a2 a3 a4"   # 3 chunks; 3rd == 1st
    b = "b1 b2 b3 b4 c1 c2 c3 c4 tail"           # chunk1 dups doc0's 2nd
    c = "a1 a2 a3 a4 b1 b2 b3 b4"                # fully duplicated -> drops
    d = "tail"                                    # short chunk dups doc1's tail
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([a, b, c, d], pa.string()),
    })).repartition(3)
    out = (chunk_dedup(ds, window=w, n_buckets=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    got = {int(r.doc_id): (int(r.n_kept), r.text_dedup)
           for r in out.itertuples()}
    # doc 2 (every chunk seen in doc 0) and doc 3 (its only chunk
    # "tail" first occurs as doc 1's trailing short chunk) both vanish
    assert set(got) == {0, 1}
    assert got[0] == (2, "a1 a2 a3 a4 b1 b2 b3 b4")
    assert got[1] == (2, "c1 c2 c3 c4 tail")


def test_semdedup_matches_numpy_reference(ray_session):
    """Distributed SemDeDup == single-node numpy reference (same
    fixed-point k-means, same greedy-by-id cosine prune) BITWISE across
    block layouts — and it actually drops the planted near-duplicates."""
    import ray.data
    from htmlparsersharp_ray.stages.clustering import (
        semdedup, semdedup_reference)

    rng = np.random.default_rng(23)
    n, d, k = 300, 12, 4
    centers = rng.normal(size=(k, d)) * 4
    x = (centers[rng.integers(0, k, n)]
         + rng.normal(size=(n, d))).astype(np.float32)
    # plant 30 near-copies of the first 30 points (tiny perturbation ->
    # cosine ~ 1) with HIGHER ids, so greedy keeps the originals
    x[n - 30:] = x[:30] + rng.normal(scale=1e-4, size=(30, d)).astype(
        np.float32)
    ids = np.arange(n, dtype=np.int64)

    want = semdedup_reference(ids, x, k=k, iters=6, threshold=0.9)
    assert len(want) < n                       # the prune fired
    assert not {int(i) for i in ids[n - 30:]} & {i for i, _ in want}

    for blocks in (1, 5):
        tab = pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([row.tolist() for row in x],
                                  pa.list_(pa.float32())),
        })
        ds = ray.data.from_arrow(tab).repartition(blocks)
        out = semdedup(ds, k=k, iters=6, threshold=0.9)
        got = list(zip(out["vec_id"].tolist(), out["cluster"].tolist()))
        assert got == want, f"survivors diverge at blocks={blocks}"


def test_top_terms_by_group_cross_batch_counts(ray_session):
    """Per-group heavy hitters: counts for the same (group, term) pair
    split across blocks must merge exactly, ties break (n desc, term
    asc), and each group gets its own independent top-k."""
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import top_terms_by_group

    docs = [
        ("s1", "x x x y y z"), ("s1", "y z z w"), ("s1", "q"),
        ("s2", "a a b"), ("s2", "b b a c"),
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "source": pa.array([d[0] for d in docs]),
        "text": pa.array([d[1] for d in docs]),
    })).repartition(4)
    out = top_terms_by_group(ds, group_col="source", k=2, n_buckets=8)
    got = [(r.source, r.term, int(r.n)) for r in out.itertuples()]
    # s1: x=3, y=3 (tie -> term asc: x before y), z=3? z appears 1+2=3 ->
    # three-way tie at 3 between x,y,z -> top-2 = x,y
    assert got == [("s1", "x", 3), ("s1", "y", 3),
                   ("s2", "a", 3), ("s2", "b", 3)]


def test_lineitem_profile_nulls_and_distinct(ray_session, tmp_path):
    """Profiling audit: null counts, exact cross-block distinct counts
    and min/max — including an all-null column."""
    import pyarrow.parquet as pq
    from htmlparsersharp_ray.pipelines.relational import q_lineitem_profile

    n = 1000
    t = pa.table({
        "l_orderkey": pa.array(list(range(500)) * 2, pa.int64()),
        "l_partkey": pa.array([1] * n, pa.int64()),
        "l_suppkey": pa.array([None] * n, pa.int64()),
        "l_quantity": pa.array([float(i % 7) for i in range(n)]),
        "l_extendedprice": pa.array(
            [100.5 if i % 2 else None for i in range(n)]),
        "l_discount": pa.array([0.0] * n),
        "l_tax": pa.array([i / 100.0 for i in range(n)]),
    })
    pq.write_table(t, tmp_path / "lineitem.parquet", row_group_size=100)
    out = q_lineitem_profile(str(tmp_path))
    row = {r.col: r for r in out.itertuples()}
    assert (row["l_orderkey"].n_null, row["l_orderkey"].n_distinct) == (0, 500)
    assert (row["l_partkey"].n_distinct, row["l_partkey"].min_v,
            row["l_partkey"].max_v) == (1, 1.0, 1.0)
    assert row["l_suppkey"].n_null == n and row["l_suppkey"].n_distinct == 0
    assert np.isnan(row["l_suppkey"].min_v)
    assert (row["l_extendedprice"].n_null,
            row["l_extendedprice"].n_distinct) == (500, 1)
    assert (row["l_quantity"].n_distinct, row["l_quantity"].max_v) == (7, 6.0)
    assert row["l_tax"].n_distinct == n


def test_pca_bitwise_across_layouts_and_matches_numpy(ray_session):
    """Distributed PCA: bitwise-identical (ratio AND components) across
    block layouts — integer partials make reduction order irrelevant —
    and allclose to a direct numpy eigh of the same quantized data's
    covariance."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import pca_components

    rng = np.random.default_rng(7)
    n, d, k = 300, 12, 5
    # anisotropic data: a few dominant directions
    basis = rng.normal(size=(d, d))
    x = (rng.normal(size=(n, 4)) * np.array([8.0, 4.0, 2.0, 1.0])
         ) @ basis[:4] + rng.normal(size=(n, d)) * 0.05

    results = []
    for blocks in (1, 6):
        tab = pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array([row.tolist() for row in x],
                                  pa.list_(pa.float32())),
        })
        ds = ray.data.from_arrow(tab).repartition(blocks)
        results.append(pca_components(ds, k=k))
    (r1, c1, n1), (r2, c2, n2) = results
    assert n1 == n2 == n
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(c1, c2)

    # numpy reference over the same quantization (float32 storage!)
    q = np.rint(x.astype(np.float32).astype(np.float64) * (1 << 20))
    cov = np.cov(q, rowvar=False, bias=True) * n * n  # n·Σxxᵀ−(Σx)(Σx)ᵀ
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    ref_ratio = evals[order] / np.trace(cov)
    np.testing.assert_allclose(r1, ref_ratio, rtol=1e-9, atol=1e-12)
    for i, j in enumerate(order):
        v = evecs[:, j]
        jj = int(np.argmax(np.abs(v)))
        if v[jj] < 0:
            v = -v
        np.testing.assert_allclose(c1[i], v, rtol=1e-6, atol=1e-9)


def test_pca_sign_convention_and_variance_order(ray_session):
    """Components come largest-variance-first, unit-norm, with the
    largest-|loading| entry positive."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import pca_components

    rng = np.random.default_rng(3)
    n = 200
    x = np.zeros((n, 3))
    x[:, 0] = rng.normal(size=n) * 10  # dominant axis 0
    x[:, 1] = rng.normal(size=n) * 1
    x[:, 2] = rng.normal(size=n) * 0.1
    tab = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in x],
                              pa.list_(pa.float32())),
    })
    ratio, comps, _ = pca_components(
        ray.data.from_arrow(tab).repartition(4), k=3)
    assert ratio[0] > ratio[1] > ratio[2]
    assert ratio[0] > 0.9
    assert abs(comps[0, 0]) > 0.99 and comps[0, 0] > 0  # sign fixed
    np.testing.assert_allclose(np.linalg.norm(comps, axis=1), 1.0,
                               rtol=1e-12)


def test_sentence_stats_semantics(ray_session):
    """Boundary = punctuation run + whitespace run: trailing punctuation
    with no following whitespace does NOT split; empty docs yield 0/0;
    multi-punct runs ('!?') are one boundary."""
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import sentence_stats

    docs = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [
            "One. Two! Three?",          # 3 sentences (trailing ? no ws)
            "No terminal punctuation",   # 1
            "",                          # 0
            "A!? B",                     # 2 (multi-punct run = 1 boundary)
            "Tab.\tSplit too.\nAnd nl",  # 3
        ],
    })
    out = (sentence_stats(ray.data.from_pandas(docs).repartition(2))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_sentences"].tolist() == [3, 1, 0, 2, 3]
    # "Three?" keeps its trailing '?' (no following whitespace) -> 6;
    # "No terminal punctuation" -> 23; "A"/"B" -> 1; "Split too" -> 9
    assert out["max_sent_chars"].tolist() == [6, 23, 0, 1, 9]


def test_pca_project_matches_numpy(ray_session):
    """Projection pipeline: bitwise-identical across layouts and equal
    to emb @ components.T computed directly."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import (
        pca_components, pca_project,
    )

    rng = np.random.default_rng(5)
    n, d = 150, 10
    x = rng.normal(size=(n, d)).astype(np.float32)
    tab = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in x],
                              pa.list_(pa.float32())),
    })
    outs = []
    for blocks in (1, 5):
        ds = ray.data.from_arrow(tab).repartition(blocks)
        outs.append(pca_project(ds, k=3).to_pandas()
                    .sort_values("vec_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])

    _, comps, _ = pca_components(ray.data.from_arrow(tab), k=3)
    want = x.astype(np.float64) @ comps.T
    got = outs[0][["pc0", "pc1", "pc2"]].to_numpy()
    np.testing.assert_array_equal(got, want)


def test_media_meta_header_parity(ray_session):
    """Header-only metadata equals what the full decoders report, for
    every payload in the synthetic table — without decoding."""
    import ray.data
    from htmlparsersharp_ray.stages.multimodal import (
        MediaMetaUDF, decode_ppm, decode_wav, synth_media_table,
    )

    tab = synth_media_table(40)
    out = (ray.data.from_arrow(tab)
           .map_batches(MediaMetaUDF(), batch_format="pyarrow",
                        batch_size=7)
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    payloads = tab.column("payload").to_pylist()
    for i, row in out.iterrows():
        p = payloads[i]
        assert row["payload_bytes"] == len(p)
        if row["kind"] == "image":
            px = decode_ppm(p)
            assert (row["width"], row["height"]) == (px.shape[1],
                                                     px.shape[0])
            assert row["sample_rate"] == 0 and row["n_samples"] == 0
        else:
            s, rate = decode_wav(p)
            assert row["sample_rate"] == rate
            assert row["n_samples"] == len(s)


def test_ppm_meta_comment_and_multidigit_header():
    """PPM header walk handles comments and multi-digit dims (meta must
    not assume the synth table's fixed 8x8 shape)."""
    import numpy as np
    from htmlparsersharp_ray.stages.multimodal import (
        decode_ppm, encode_ppm, ppm_meta,
    )

    img = np.zeros((12, 345, 3), dtype=np.uint8)
    payload = encode_ppm(img)
    assert ppm_meta(payload) == (345, 12)
    # hand-built header with a comment line
    commented = b"P6\n# a comment\n17 4\n255\n" + bytes(17 * 4 * 3)
    assert ppm_meta(commented) == (17, 4)
    assert decode_ppm(commented).shape == (4, 17, 3)


def test_codec_corrupt_inputs_raise_valueerror():
    """Fuzz-found crash classes: every corrupt payload must fail with a
    clean ValueError, never OverflowError / struct.error / a silent
    mis-decode (120k-seed campaign, 2026-08)."""
    import numpy as np
    import pytest as _pytest
    from htmlparsersharp_ray.stages.multimodal import (
        decode_ppm, decode_wav, encode_ppm, encode_wav, ppm_meta, wav_meta,
    )

    img = np.arange(5 * 7 * 3, dtype=np.uint8).reshape(5, 7, 3)
    wav = encode_wav(np.zeros(500, dtype=np.float32), 8000)

    # huge dims overflowed frombuffer's C ssize_t count
    huge = b"P6\n7 1000000000000000000\n255\n" + bytes(64)
    with _pytest.raises(ValueError):
        decode_ppm(huge)
    # h=-1 made reshape(-1, w, 3) INFER a dim from garbage (silent wrong)
    neg = b"P6\n7 -1\n255\n" + bytes(7 * 3 * 4)
    with _pytest.raises(ValueError):
        decode_ppm(neg)
    with _pytest.raises(ValueError):
        ppm_meta(neg)
    # dims claiming more pixels than the payload carries
    short = b"P6\n100 100\n255\n" + bytes(10)
    with _pytest.raises(ValueError):
        decode_ppm(short)

    # truncated fmt chunk raised struct.error in decode_wav AND wav_meta
    trunc_fmt = wav[:20]  # RIFF..WAVEfmt <size> then cut mid-body
    assert trunc_fmt[12:16] == b"fmt "
    with _pytest.raises(ValueError):
        decode_wav(trunc_fmt)
    with _pytest.raises(ValueError):
        wav_meta(trunc_fmt)

    # valid payloads still round-trip after the guards
    assert (decode_ppm(encode_ppm(img)) == img).all()
    samples, rate = decode_wav(wav)
    assert rate == 8000 and len(samples) == 500


def test_knn_graph_lsh_recall_vs_exact(ray_session):
    """LSH kNN graph recovers >= 0.9 of the exact graph's neighbor
    edges on a clustered corpus, and both produce k rows per vector
    with rank 1..k."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import (
        knn_graph_exact, knn_graph_lsh,
    )

    rng = np.random.default_rng(19)
    n, d, k = 400, 24, 3
    centers = rng.normal(size=(12, d)) * 4
    x = (centers[rng.integers(0, 12, n)]
         + rng.normal(size=(n, d)) * 0.3).astype(np.float32)
    tab = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in x],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tab).repartition(4)
    exact = knn_graph_exact(ds, k=k)
    approx = knn_graph_lsh(ray.data.from_arrow(tab).repartition(4), k=k)

    assert len(exact) == n * k
    assert exact.groupby("vec_id")["rank"].max().eq(k).all()
    e = set(zip(exact["vec_id"], exact["nbr_id"]))
    a = set(zip(approx["vec_id"], approx["nbr_id"]))
    recall = len(e & a) / len(e)
    assert recall >= 0.9, recall


def test_knn_graph_exact_self_excluded_and_ties(ray_session):
    """Self never appears as a neighbor; exact duplicate vectors tie
    and break to the smaller id."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import knn_graph_exact

    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                 dtype=np.float32)
    tab = pa.table({
        "vec_id": pa.array(np.array([10, 20, 30, 40], dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in x],
                              pa.list_(pa.float32())),
    })
    out = knn_graph_exact(ray.data.from_arrow(tab).repartition(2), k=2)
    assert not (out["vec_id"] == out["nbr_id"]).any()
    # vec 10's neighbors: ties among {20, 30} -> id order
    assert out[out["vec_id"] == 10]["nbr_id"].tolist() == [20, 30]
    # vec 40 is orthogonal to all: still gets k neighbors, smallest ids
    assert out[out["vec_id"] == 40]["nbr_id"].tolist() == [10, 20]


def test_product_quantize_planted_codewords(ray_session):
    """Vectors built FROM codewords quantize back to them exactly (zero
    reconstruction error), bitwise-identically across block layouts."""
    import ray.data
    from htmlparsersharp_ray.stages.clustering import product_quantize

    rng = np.random.default_rng(31)
    m, k, sub, n = 2, 4, 3, 120
    words = rng.normal(size=(m, k, sub)) * 5
    # cyclic planting: ids 0..k-1 cover every codeword in every
    # subspace, so the smallest-id seeding starts on the optimum (a
    # random plant can seed two centroids on one codeword — a genuine
    # k-means local minimum, not an engine defect)
    codes_true = ((np.arange(n)[:, None] + np.arange(m)[None, :]) % k)
    x = np.concatenate([words[j][codes_true[:, j]] for j in range(m)],
                       axis=1).astype(np.float32)
    tab = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in x],
                              pa.list_(pa.float32())),
    })
    outs = []
    for blocks in (1, 5):
        ds = ray.data.from_arrow(tab).repartition(blocks)
        codes, books = product_quantize(ds, m=m, k=k, iters=8)
        outs.append(codes.to_pandas().sort_values("vec_id")
                    .reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # every vector reconstructs exactly (codebooks converge onto the
    # planted codewords; float32 storage round-trips into float64)
    np.testing.assert_allclose(outs[0]["recon_err"].to_numpy(), 0.0,
                               atol=1e-10)
    # same-true-code vectors share engine codes (a relabel-invariant
    # check: the mapping true-code -> engine-code must be a bijection)
    for j in range(m):
        got = outs[0][f"code_{j}"].to_numpy()
        mapping = {}
        for t, g in zip(codes_true[:, j], got):
            assert mapping.setdefault(int(t), int(g)) == int(g)
        assert len(set(mapping.values())) == len(mapping)


def test_product_quantize_error_decreases_with_m(ray_session):
    """More subspaces -> finer quantization: mean reconstruction error
    is non-increasing from m=1 to m=4 on random data."""
    import ray.data
    from htmlparsersharp_ray.stages.clustering import product_quantize

    rng = np.random.default_rng(33)
    n, d = 300, 8
    x = rng.normal(size=(n, d)).astype(np.float32)
    tab = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in x],
                              pa.list_(pa.float32())),
    })
    errs = []
    for m in (1, 4):
        codes, _ = product_quantize(ray.data.from_arrow(tab), m=m, k=8,
                                    iters=6)
        errs.append(codes.to_pandas()["recon_err"].mean())
    assert errs[1] <= errs[0]


def test_fingerprint_dups_winnowing(ray_session):
    """fingerprint_dups: the winnowing guarantee (a shared run of
    w+k-1 = 8 words yields a shared fingerprint), the min_shared
    threshold, the stop-fingerprint cap, and bucket-count invariance
    against a brute-force single-process reference."""
    import hashlib

    import ray.data
    from htmlparsersharp_ray.stages.dedup import fingerprint_dups

    shared = "alpha beta gamma delta epsilon zeta eta theta " \
             "iota kappa lambda mu"
    rows = {
        1: shared + " one ending here now",
        2: "start differs then " + shared,
        3: "totally different content that shares nothing at all ok",
        4: shared + " one ending here now",       # exact dup of 1
        5: "four words only here",                # 4 words: no windows
    }
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(rows), pa.int64()),
                  "text": pa.array(list(rows.values()), pa.string())})
    )
    out = fingerprint_dups(ds, min_shared=1)

    def fps(text, w=5, k=4):
        words = text.split()
        if len(words) < w:
            return set()
        whs = [hashlib.md5(" ".join(words[i:i + w]).encode()).hexdigest()
               for i in range(len(words) - w + 1)]
        span = min(k, len(whs))
        return {min(whs[i:i + span])
                for i in range(len(whs) - span + 1)}
    ref_fps = {d: fps(t) for d, t in rows.items()}
    expect = {}
    for a in rows:
        for b in rows:
            if a < b and len(ref_fps[a] & ref_fps[b]):
                expect[(a, b)] = len(ref_fps[a] & ref_fps[b])
    got = {(int(r.doc_a), int(r.doc_b)): int(r.n_shared_fps)
           for r in out.itertuples()}
    assert got == expect
    assert (1, 2) in got and (1, 4) in got       # guarantee + exact dup
    assert not any(3 in p or 5 in p for p in got)
    # min_shared threshold prunes the weaker overlap rows
    out2 = fingerprint_dups(ds, min_shared=10**6)
    assert len(out2) == 0
    # stop-fingerprint cap: with cap=1 every shared fp is dropped
    out3 = fingerprint_dups(ds, min_shared=1, cap=1)
    assert len(out3) == 0
    # bucket-count invariance
    assert out.equals(fingerprint_dups(ds, min_shared=1, n_buckets=1))


def test_kcenter_matches_reference_and_block_layouts(ray_session):
    """Distributed greedy k-center selects BITWISE the same (rank, id,
    radius) sequence as the single-node fixed-point reference, at 1 and
    8 blocks, on a corpus with two planted far clusters + noise; the
    radius sequence is non-increasing and the planted far point is the
    second pick."""
    import ray.data
    from htmlparsersharp_ray.stages.clustering import (
        kcenter_reference, kcenter_sample,
    )

    rng = np.random.default_rng(11)
    vecs = rng.normal(0, 0.05, (200, 8)).astype(np.float32)
    vecs[150:] += 0.8                      # far cluster
    vecs[137] = 25.0                       # extreme point: must be pick #2
    ids = np.arange(100, 300, dtype=np.int64)
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    })
    want = kcenter_reference(ids, vecs.astype(np.float64), k=12)
    for parts in (1, 8):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = kcenter_sample(ds, k=12)
        pd.testing.assert_frame_equal(got, want)
    assert want["vec_id"].iloc[0] == 100          # smallest id seeds
    assert want["vec_id"].iloc[1] == 237          # extreme point next
    r = want["radius"].to_numpy()[1:]
    assert (np.diff(r) <= 1e-12).all()            # non-increasing cover


def test_kcenter_early_stop_on_duplicates(ray_session):
    """k larger than the number of DISTINCT points: selection stops when
    the cover radius hits zero instead of emitting duplicate centers."""
    import ray.data
    from htmlparsersharp_ray.stages.clustering import kcenter_sample

    t = pa.table({
        "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
        "embedding": pa.array(
            [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
            pa.list_(pa.float32())),
    })
    out = kcenter_sample(ray.data.from_arrow(t), k=4)
    assert list(out["vec_id"]) == [1, 3]
    assert list(out["center_rank"]) == [0, 1]


def _bruteforce_containment_pairs(texts, ids, threshold, n=3):
    """Independent all-ORDERED-pairs exact containment |A∩B|/|B| —
    the reference the asymmetric prefix-filter path must match EXACTLY."""
    from htmlparsersharp_ray.stages.dedup import _shingle_hash_sets

    sets = _shingle_hash_sets(list(texts), n)
    out = {}
    for i, sa in enumerate(sets):
        for j, sb in enumerate(sets):
            if i == j or sb.size == 0:
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            c = inter / sb.size
            if c >= threshold:
                out[(ids[i], ids[j])] = c
    return out


def test_containment_planted_quote_inclusion(ray_session):
    """A small doc pasted inside a large one has low Jaccard but
    containment 1.0 — the directed pair (big contains small) must be
    found, the reverse direction must NOT."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import containment_pairs_ds

    rng = np.random.default_rng(11)
    vocab = [f"w{k}" for k in range(500)]
    big_words = rng.choice(vocab, size=200, replace=False).tolist()
    big = " ".join(big_words)
    small = " ".join(big_words[50:80])          # contiguous quote
    half = " ".join(big_words[:15] +
                    rng.choice(vocab[400:], size=15).tolist())
    texts = [big, small, half, ""]
    ids = [0, 1, 2, 3]
    for k in range(20):  # unrelated
        texts.append(" ".join(rng.choice(vocab, size=40).tolist()))
        ids.append(4 + k)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(5)
    got = containment_pairs_ds(ds, threshold=0.8).to_pandas()
    got_map = {(int(a), int(b)): float(c) for a, b, c in
               zip(got["doc_a"], got["doc_b"], got["containment"])}
    assert got_map[(0, 1)] == 1.0            # big contains the quote
    assert (1, 0) not in got_map             # direction matters
    assert (0, 2) not in got_map             # half-quote below 0.8
    want = _bruteforce_containment_pairs(texts, ids, 0.8)
    assert got_map == pytest.approx(want)


@pytest.mark.parametrize("seed,threshold", [(3, 0.7), (19, 0.9)])
def test_containment_equals_bruteforce_random(ray_session, seed, threshold):
    """Zero-miss differential: random corpus with planted slices and
    near-dups — pipeline pair set and values equal brute force exactly."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import containment_pairs_ds

    rng = np.random.default_rng(seed)
    vocab = [f"t{k}" for k in range(200)]
    texts, ids = [], []
    did = 0
    for _ in range(10):
        words = rng.choice(vocab, size=60).tolist()
        texts.append(" ".join(words)); ids.append(did); did += 1
        lo = int(rng.integers(0, 30))
        span = int(rng.integers(5, 25))
        texts.append(" ".join(words[lo:lo + span]))  # slice quote
        ids.append(did); did += 1
    for _ in range(15):
        texts.append(" ".join(rng.choice(vocab, size=int(rng.integers(1, 50))).tolist()))
        ids.append(did); did += 1

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(7)
    got = containment_pairs_ds(ds, threshold=threshold).to_pandas()
    got_map = {(int(a), int(b)): float(c) for a, b, c in
               zip(got["doc_a"], got["doc_b"], got["containment"])}
    want = _bruteforce_containment_pairs(texts, ids, threshold)
    assert set(got_map) == set(want)
    for k, v in want.items():
        assert got_map[k] == pytest.approx(v, abs=1e-12)
    assert len(want) > 0


def test_dup_coverage_planted_spans(ray_session):
    """Interval-union coverage: overlapping dup grams merge, disjoint
    spans add, within-doc-only repeats do NOT count, short/empty docs
    report 0 — identical at 1 and 4 blocks."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import dup_coverage

    w = [f"w{i}" for i in range(40)]          # 40 unique filler words
    shared = "alpha beta gamma delta eps zeta eta theta"   # 8 words
    docs = pd.DataFrame({
        "doc_id": pd.array([0, 1, 2, 3, 4, 5], dtype="int64"),
        "text": [
            # doc 0: shared block at words 0-7 and again at 20-27
            shared + " " + " ".join(w[:12]) + " " + shared,
            # doc 1: the same shared block once, in the middle
            " ".join(w[12:20]) + " " + shared + " " + " ".join(w[20:28]),
            # doc 2: clean doc, >= 8 words, nothing shared
            " ".join(w[28:40]),
            # doc 3: within-doc repeat ONLY (same 8-gram twice in one
            # doc, nowhere else) — must not count as duplicated
            " ".join(["rep"] * 7 + ["x"] + ["rep"] * 7 + ["x", "tailword"]),
            # doc 4: too short to form a gram
            "only five words right here",
            # doc 5: empty
            "",
        ],
    })
    for parts in (1, 4):
        ds = ray.data.from_pandas(docs).repartition(parts)
        out = dup_coverage(ds, n=8).set_index("doc_id")
        # doc 0: two disjoint 8-word spans covered
        assert out.loc[0, "covered_words"] == 16
        assert out.loc[0, "n_dup_grams"] == 2
        assert out.loc[0, "n_words"] == 28
        assert out.loc[0, "dup_frac"] == 16 / 28
        # doc 1: one 8-word span
        assert out.loc[1, "covered_words"] == 8
        assert out.loc[1, "n_dup_grams"] == 1
        # docs 2-5: nothing duplicated ACROSS docs
        for d in (2, 3, 4, 5):
            assert out.loc[d, "covered_words"] == 0, d
            assert out.loc[d, "dup_frac"] == 0.0
        assert out.loc[5, "n_words"] == 0
        assert len(out) == 6   # every doc reports


def test_dup_coverage_overlapping_union(ray_session):
    """Two dup grams overlapping by 7 words cover 9 positions, not 16
    (the union, not the sum)."""
    import ray.data
    from htmlparsersharp_ray.stages.dedup import dup_coverage

    nine = "a b c d e f g h i"          # 9 words → grams at pos 0 and 1
    docs = pd.DataFrame({
        "doc_id": pd.array([0, 1], dtype="int64"),
        "text": [nine + " tail0 tail1", "pre0 pre1 " + nine],
    })
    ds = ray.data.from_pandas(docs).repartition(2)
    out = dup_coverage(ds, n=8).set_index("doc_id")
    assert out.loc[0, "n_dup_grams"] == 2      # both windows shared
    assert out.loc[0, "covered_words"] == 9    # union of [0,7] and [1,8]
    assert out.loc[1, "covered_words"] == 9


def _mmr_sequential_reference(emb, ids, queries, k, pool, lam):
    """Independent sequential MMR: full-corpus numpy, no Ray."""
    out = []
    norms = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    for qid in sorted(queries):
        qn = np.asarray(queries[qid], np.float64)
        qn = qn / np.linalg.norm(qn)
        rel_all = norms @ qn
        # exact top-pool with vec_id tie-break
        order = np.lexsort((ids, -rel_all))[:pool]
        cids, V, rel = ids[order], norms[order], rel_all[order]
        pair = V @ V.T
        chosen, avail = [], np.ones(len(cids), bool)
        for rank in range(1, min(k, len(cids)) + 1):
            score = (lam * rel - (1 - lam) * pair[:, chosen].max(axis=1)
                     if chosen else lam * rel)
            score = np.where(avail, score, -np.inf)
            tied = np.flatnonzero(score == score.max())
            pick = tied[np.argmin(cids[tied])]
            chosen.append(int(pick))
            avail[pick] = False
            out.append((qid, rank, int(cids[pick])))
    return out


def test_mmr_matches_sequential_reference(ray_session):
    """Pipeline MMR == full-corpus sequential reference, across block
    layouts (parallelism invariance)."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import mmr_topk

    rng = np.random.default_rng(11)
    emb = rng.standard_normal((400, 12)).astype(np.float32)
    ids = np.arange(1000, 1400, dtype=np.int64)
    queries = {0: emb[7].astype(np.float64), 3: emb[200].astype(np.float64)}
    expect = _mmr_sequential_reference(
        emb.astype(np.float64), ids, queries, k=10, pool=50, lam=0.7)
    for blocks in (1, 7):
        t = pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
        })
        ds = ray.data.from_arrow(t).repartition(blocks)
        got = mmr_topk(ds, queries, k=10, pool=50, lam=0.7)
        assert [tuple(r) for r in
                got[["query_id", "rank", "vec_id"]].to_numpy()] == expect


def test_mmr_diversifies_planted_redundancy(ray_session):
    """A clump of near-duplicates of the query must NOT fill the top-k:
    after the first clump member, MMR prefers the orthogonal cluster
    that plain top-k ranks below every clump member."""
    import ray.data
    from htmlparsersharp_ray.stages.similarity import brute_force_topk, mmr_topk

    rng = np.random.default_rng(3)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    clump = q + rng.normal(0, 0.01, size=(6, 4))      # ids 0..5: dups of q
    other = np.array([0.7, 0.7, 0.0, 0.0]) + rng.normal(0, 0.01, size=(6, 4))
    emb = np.vstack([clump, other]).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(12), pa.int64()),
        "embedding": pa.array(emb.tolist(), pa.list_(pa.float32())),
    }))
    plain = brute_force_topk(ds, {0: q}, k=4)
    mmr = mmr_topk(ds, {0: q}, k=4, pool=12, lam=0.5)
    # plain top-4 = all clump members; MMR mixes in the other cluster
    assert all(v < 6 for v in plain["vec_id"])
    mmr_ids = list(mmr["vec_id"])
    assert mmr_ids[0] < 6                  # best match still first
    assert any(v >= 6 for v in mmr_ids)    # diversity kicked in


def _textrank_sequential_reference(sents, iters=20):
    """Independent per-doc reference: dict-based overlap counting and a
    scalar Python loop (no membership matrix), same fixed-point rules."""
    n = len(sents)
    if n == 0:
        return -1, 0
    if n == 1:
        return 0, 1_000_000
    import re as _re
    toks = [set(_re.findall(r"[a-z0-9]+", s.lower())) for s in sents]
    if not any(toks):
        return 0, 1_000_000
    w = [[len(toks[i] & toks[j]) if i != j else 0 for j in range(n)]
         for i in range(n)]
    s = [sum(row) for row in w]
    r = [1_000_000] * n
    for _ in range(iters):
        q = [r[j] // s[j] if s[j] > 0 else r[j] for j in range(n)]
        r = [150_000 + (85 * sum(w[i][j] * q[j] for j in range(n)
                                 if s[j] > 0)) // 100
             for i in range(n)]
    best = max(range(n), key=lambda i: (r[i], -i))
    return best, r[best]


def test_textrank_matches_sequential_reference(ray_session):
    """Pipeline TextRank == an independent dict/loop reference, across
    block layouts; the central planted sentence wins."""
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import (
        SENTENCE_SPLIT_PATTERN, textrank_summaries)
    import re as _re

    rng = np.random.default_rng(23)
    words = [f"w{i}" for i in range(40)]
    docs = []
    for d in range(30):
        n_s = int(rng.integers(2, 9))
        sents = [" ".join(rng.choice(words, size=6)) for _ in range(n_s)]
        docs.append(". ".join(sents) + ".")
    # one planted doc where sentence 1 overlaps everything
    docs.append("alpha beta gamma. alpha beta gamma delta zeta. delta zeta eta.")
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    split = _re.compile(SENTENCE_SPLIT_PATTERN)
    expect = {}
    for i, txt in enumerate(docs):
        sents = [s for s in split.split(txt) if s.strip()]
        expect[i] = _textrank_sequential_reference(sents)
    for blocks in (1, 5):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = textrank_summaries(ds).to_pandas()
        got = {int(d): (int(i), int(s)) for d, i, s in zip(
            out["doc_id"], out["sent_idx"], out["score_fp"])}
        assert got == expect
    assert expect[30][0] == 1  # the planted central sentence


def test_textrank_edge_shapes(ray_session):
    """Empty docs, one-sentence docs, and no-word docs stay in-row
    (no dropped doc_ids) with sentinel outputs."""
    import ray.data
    from htmlparsersharp_ray.stages.text_analysis import textrank_summaries

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["", "Only one sentence here", "?!. .. !",
                          "a b. a c. x y."]),
    })
    out = (textrank_summaries(ray.data.from_arrow(t)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert list(out["doc_id"]) == [1, 2, 3, 4]
    assert int(out.loc[0, "sent_idx"]) == -1      # empty
    assert int(out.loc[1, "sent_idx"]) == 0       # single sentence
    assert out.loc[1, "summary"].startswith("Only one")
    assert int(out.loc[3, "n_sentences"]) == 3
