"""Ray pipeline tests: shuffle invariance, ordering, resume, skew
(FIXTURES.md §4 scale/ordering fixtures)."""

from __future__ import annotations

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def transcripts_dir(ray_session, tmp_path_factory):
    from htmlparsersharp_ray.sources.transcripts import generate_transcripts

    d = str(tmp_path_factory.mktemp("tx"))
    generate_transcripts(1200, d, n_files=3)
    return d


def _run(transcripts_dir, out_dir, **kw):
    from htmlparsersharp_ray.pipelines.extract_pipeline import run_extract_pipeline

    return run_extract_pipeline(transcripts_dir, out_dir, **kw)


def _read_all(out_dir):
    import pyarrow as pa

    files = sorted(glob.glob(os.path.join(out_dir, "bucket=*/part.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files])


def test_pipeline_end_to_end(ray_session, transcripts_dir, tmp_path):
    out = str(tmp_path / "out")
    manifest = _run(transcripts_dir, out, n_buckets=8, concurrency=2,
                    batch_size=64, resume=False)
    assert manifest["rows"].sum() == 1200
    table = _read_all(out)
    assert table.num_rows == 1200
    # every (conv_id, turn_idx) appears exactly once
    keys = list(zip(table.column("conv_id").to_pylist(),
                    table.column("turn_idx").to_pylist()))
    assert len(set(keys)) == 1200


def test_per_bucket_ordering(ray_session, transcripts_dir, tmp_path):
    out = str(tmp_path / "out")
    _run(transcripts_dir, out, n_buckets=8, concurrency=2, batch_size=64,
         resume=False)
    for f in glob.glob(os.path.join(out, "bucket=*/part.parquet")):
        t = pq.read_table(f, columns=["conv_id", "turn_idx"])
        keys = list(zip(t.column("conv_id").to_pylist(),
                        t.column("turn_idx").to_pylist()))
        assert keys == sorted(keys), f"bucket file {f} not sorted"


def _lineage_manifest(out_dir):
    """bucket → (rows, text_md5) from the lineage records."""
    manifest = {}
    for f in glob.glob(os.path.join(out_dir, "_lineage", "bucket-*.json")):
        with open(f) as fh:
            m = json.load(fh)
        manifest[m["bucket"]] = (m["rows"], m["text_md5"])
    return manifest


def test_shuffle_invariance_across_parallelism(ray_session, transcripts_dir, tmp_path):
    """Same input at different concurrency/batch sizing → identical
    per-bucket content hashes (north_rule determinism). ``concurrency``
    covers both accepted forms: None (Ray Data sizes the parse stage)
    and an int task cap."""
    hashes = []
    for i, (conc, bs) in enumerate([(None, 64), (1, 32), (2, 128)]):
        out = str(tmp_path / f"out{i}")
        _run(transcripts_dir, out, n_buckets=8, concurrency=conc,
             batch_size=bs, resume=False)
        hashes.append(_lineage_manifest(out))
    assert len(hashes[0]) == 8
    assert all(h == hashes[0] for h in hashes[1:])


def test_finalize_packs_more_buckets_than_cpus(ray_session, transcripts_dir, tmp_path):
    """More buckets than the session's 4 CPUs: finalize packs several
    buckets into each task, and every touched bucket still lands in the
    manifest, the lineage and the output exactly once."""
    out = str(tmp_path / "out")
    manifest = _run(transcripts_dir, out, n_buckets=16, concurrency=2,
                    batch_size=64, resume=False)
    buckets = sorted(int(b) for b in manifest["bucket"])
    assert buckets == sorted(set(buckets)) and len(buckets) > 4
    lineage = _lineage_manifest(out)
    assert sorted(lineage) == buckets
    assert {int(b): (int(r), m) for b, r, m in zip(
        manifest["bucket"], manifest["rows"], manifest["text_md5"])} == lineage
    assert sum(r for r, _ in lineage.values()) == 1200
    assert _read_all(out).num_rows == 1200


def test_resume_skips_completed_buckets(ray_session, transcripts_dir, tmp_path):
    out = str(tmp_path / "out")
    m1 = _run(transcripts_dir, out, n_buckets=8, concurrency=2,
              batch_size=64, resume=False)
    assert len(m1) == 8
    # simulate partial completion: delete lineage for 3 buckets
    victims = [0, 3, 5]
    for b in victims:
        os.remove(os.path.join(out, "_lineage", f"bucket-{b:04d}.json"))
        shutil.rmtree(os.path.join(out, f"bucket={b:04d}"))
    m2 = _run(transcripts_dir, out, n_buckets=8, concurrency=2, batch_size=64)
    assert sorted(m2["bucket"]) == victims
    # full content restored and identical
    table = _read_all(out)
    assert table.num_rows == 1200


def test_resume_after_crash_mid_finalize(ray_session, transcripts_dir, tmp_path):
    """Resume from what a crash mid-finalize leaves on disk: a bucket
    whose final file was renamed into place but whose lineage record was
    never written, a bucket with only a torn ``part.parquet.tmp``, and a
    dead run's shuffle file. Exactly the two buckets without a record
    are rewritten, the dead shuffle rows never reach finalize, and every
    bucket's (rows, text_md5) equals the clean run's."""
    import pyarrow as pa

    from htmlparsersharp_ray.pipelines.extract_pipeline import PartialWriter

    out = str(tmp_path / "out")
    _run(transcripts_dir, out, n_buckets=8, concurrency=2, batch_size=64,
         resume=False)
    clean = _lineage_manifest(out)
    assert len(clean) == 8

    def final(b):
        return os.path.join(out, f"bucket={b:04d}", "part.parquet")

    renamed, torn = 2, 6
    # crash after the rename, before the lineage write
    os.remove(os.path.join(out, "_lineage", f"bucket-{renamed:04d}.json"))
    # crash while writing the tmp file, before the rename
    with open(final(torn), "rb") as f:
        data = f.read()
    os.remove(final(torn))
    os.remove(os.path.join(out, "_lineage", f"bucket-{torn:04d}.json"))
    with open(final(torn) + ".tmp", "wb") as f:
        f.write(data[: len(data) // 2])
    # a dead run's shuffle file: its rows would double bucket `renamed`
    # if they leaked into this run's finalize
    t = pq.read_table(final(renamed))
    PartialWriter(out, "dead")(t.append_column(
        "bucket", pa.array([renamed] * t.num_rows, pa.int32())))
    kept = {b: os.stat(final(b)).st_mtime_ns
            for b in clean if b not in (renamed, torn)}

    m2 = _run(transcripts_dir, out, n_buckets=8, concurrency=2, batch_size=64)
    assert sorted(m2["bucket"]) == [renamed, torn]
    assert _lineage_manifest(out) == clean
    assert {b: os.stat(final(b)).st_mtime_ns for b in kept} == kept
    assert not os.path.exists(final(torn) + ".tmp")
    assert not os.path.exists(os.path.join(out, "_partial"))
    assert _read_all(out).num_rows == 1200


def test_giant_conversation_salting(ray_session, tmp_path):
    """A conversation larger than salt_cap must split across buckets with
    each range internally ordered."""
    from htmlparsersharp_ray.sources.transcripts import generate_transcripts

    d = str(tmp_path / "tx")
    generate_transcripts(2000, d, n_files=2, giant_frac=0.5)  # giant = 1000 turns
    out = str(tmp_path / "out")
    _run(d, out, n_buckets=8, salt_cap=100, concurrency=2, batch_size=64,
         resume=False)
    buckets_with_giant = set()
    per_bucket_ranges = []
    for f in glob.glob(os.path.join(out, "bucket=*/part.parquet")):
        t = pq.read_table(f, columns=["conv_id", "turn_idx"])
        turns = [ti for c, ti in zip(t.column("conv_id").to_pylist(),
                                     t.column("turn_idx").to_pylist())
                 if c == "conv-giant"]
        if turns:
            buckets_with_giant.add(f)
            assert turns == sorted(turns)
            per_bucket_ranges.append(turns)
    assert len(buckets_with_giant) > 1, "giant conversation did not split"
    all_turns = sorted(t for r in per_bucket_ranges for t in r)
    assert all_turns == list(range(1000))


def test_extract_sorted_matches_bucketed(ray_session, transcripts_dir, tmp_path):
    """Global-sort path and bucketed path agree on content."""
    from htmlparsersharp_ray.pipelines.extract_pipeline import extract_sorted

    out = str(tmp_path / "out")
    _run(transcripts_dir, out, n_buckets=8, concurrency=2, batch_size=64,
         resume=False)
    bucketed = _read_all(out)
    sorted_ds = extract_sorted(transcripts_dir, concurrency=2, batch_size=64)
    t = sorted_ds.to_pandas()
    b = bucketed.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert (t["conv_id"] == b["conv_id"]).all()
    assert (t["turn_idx"] == b["turn_idx"]).all()
    assert (t["extracted_text"] == b["extracted_text"]).all()


def test_metrics_summary(ray_session, transcripts_dir, tmp_path):
    from htmlparsersharp_ray.pipelines.extract_pipeline import metrics_summary

    out = str(tmp_path / "out")
    _run(transcripts_dir, out, n_buckets=8, concurrency=2, batch_size=64,
         resume=False)
    m = metrics_summary(out)
    assert m["rows"] == 1200 and m["buckets"] == 8
    assert m["nodes"] > 0 and m["tokens"] > 0
    assert m["truncated_rows"] == 0


def test_cli_bench_subcommand(tmp_path, capsys):
    """Reference Program.cs parity surface: repeated-parse micro-benchmark."""
    import json

    from htmlparsersharp_ray.__main__ import main

    f = tmp_path / "page.html"
    f.write_text("<html><body><p>Hello <b>world</b></p><table><td>x</table>")
    rc = main(["bench", "--file", str(f), "--repeat", "3",
               "--save", str(tmp_path / "out.html")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["repeat"] == 3
    assert set(out["parse"]) == {"total_ms", "first_ms", "average_ms",
                                 "average_without_first_ms", "min_ms", "max_ms"}
    assert out["tokens"] > 0
    assert (tmp_path / "out.html").exists()
    # serialize → re-parse is a fixed point for well-formed content
    assert out["reparse_serialized"]["total_ms"] >= 0


def test_curate_funnel_counts_planted(ray_session, tmp_path):
    """Corpus curation funnel on a planted corpus where every stage's
    effect is known by construction: 2 exact dups collapse, 1 near-dup
    pair keeps its min-id representative, 1 low-quality doc (almost all
    punctuation) falls to the quality floor."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data
    from htmlparsersharp_ray.pipelines.curate import curate

    base = ("the quick brown fox jumps over the lazy dog and keeps "
            "running through the wide open field toward the river ") * 4
    near = base + "with one extra tail sentence appended at the end"
    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            base,                     # 0: kept (rep of near-dup cluster)
            base,                     # 1: exact dup of 0 -> dropped
            near,                     # 2: near dup of 0 -> dropped
            "a completely different document about distributed "
            "dataflow engines and arrow batches flowing through "
            "object stores with backpressure",            # 3: kept
            "!!! ??? ... !!! ??? ... !!! ??? ... !!!",     # 4: low quality
            "short unique words only here",               # 5: kept
        ],
    })
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    ds = ray.data.read_parquet(str(tmp_path / "documents.parquet"))

    out = curate(ds, jaccard_threshold=0.6, min_quality=0.05)
    row = out.iloc[0]
    assert row["n_input"] == 6
    assert row["n_after_exact"] == 5          # doc 1 collapses into 0
    assert row["n_after_near"] == 4           # doc 2 drops, 0 survives
    assert row["n_after_quality"] == 3        # doc 4 drops
    # token total = whitespace tokens of docs 0, 3, 5
    want = sum(len(t.split()) for t in [docs.text[0], docs.text[3],
                                        docs.text[5]])
    assert row["total_ws_tokens"] == want
