"""Tests for the bucketed two-sided shuffle hash join (pipelines/joins.py)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _mk_ds(df: pd.DataFrame, n_blocks: int = 4):
    import ray.data

    return ray.data.from_arrow(
        pa.Table.from_pandas(df, preserve_index=False)
    ).repartition(n_blocks)


@pytest.fixture(scope="module")
def join_inputs(ray_session):
    rng = np.random.default_rng(42)
    left = pd.DataFrame({
        "k": rng.integers(0, 500, size=5000).astype(np.int64),
        "lv": np.arange(5000, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 600, size=800).astype(np.int64),
        "rv": np.arange(800, dtype=np.int64) * 10,
    })
    return left, right


def test_hash_join_inner_matches_pandas(join_inputs):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left, right = join_inputs
    out = hash_join(_mk_ds(left), _mk_ds(right), "k", "k").to_pandas()
    expected = left.merge(right, on="k", how="inner")
    key = ["k", "lv", "rv"]
    got = out[key].sort_values(key).reset_index(drop=True)
    exp = expected[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_hash_join_different_key_names(join_inputs):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left, right = join_inputs
    r2 = right.rename(columns={"k": "rk"})
    out = hash_join(_mk_ds(left), _mk_ds(r2), "k", "rk").to_pandas()
    expected = left.merge(r2, left_on="k", right_on="rk", how="inner")
    key = ["k", "lv", "rv"]
    got = out[key].sort_values(key).reset_index(drop=True)
    exp = expected[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_hash_join_string_keys(ray_session):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left = pd.DataFrame({"name": [f"u{i % 37}" for i in range(400)],
                         "lv": np.arange(400, dtype=np.int64)})
    right = pd.DataFrame({"name": [f"u{i}" for i in range(50)],
                          "rv": np.arange(50, dtype=np.int64)})
    out = hash_join(_mk_ds(left, 3), _mk_ds(right, 2), "name", "name").to_pandas()
    expected = left.merge(right, on="name", how="inner")
    key = ["name", "lv", "rv"]
    got = out[key].sort_values(key).reset_index(drop=True)
    exp = expected[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_hash_join_no_matches_yields_empty_with_schema(ray_session):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                         "lv": np.arange(10, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(100, 110, dtype=np.int64),
                          "rv": np.arange(10, dtype=np.int64)})
    out = hash_join(
        _mk_ds(left, 2), _mk_ds(right, 2), "k", "k",
        left_schema=pa.Schema.from_pandas(left, preserve_index=False),
        right_schema=pa.Schema.from_pandas(right, preserve_index=False))
    # Dataset-level schema keeps the joined layout even when every block
    # is empty (Ray's to_pandas drops columns for all-empty datasets).
    assert set(out.schema().names) == {"k", "lv", "rv"}
    assert out.count() == 0
    # without the schemas it still joins correctly; only the
    # fully-disjoint empty-schema guarantee needs them
    lazy = hash_join(_mk_ds(left, 2), _mk_ds(right, 2), "k", "k")
    assert lazy.count() == 0


def test_hash_join_rejects_unknown_how(ray_session):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    with pytest.raises(ValueError):
        hash_join(None, None, "k", "k", how="outer")


def test_join_planner_broadcasts_small_metadata_side(join_inputs, ray_session):
    import ray.data
    from htmlparsersharp_ray.pipelines import joins

    left, right = join_inputs
    # right side read from parquet => size known from metadata
    import tempfile, os
    import pyarrow.parquet as pq
    import pyarrow as pa_

    d = tempfile.mkdtemp(prefix="join_planner_")
    pq.write_table(pa_.Table.from_pandas(right, preserve_index=False),
                   os.path.join(d, "right.parquet"))
    right_ds = ray.data.read_parquet(os.path.join(d, "right.parquet"))

    called = {}
    orig_broadcast, orig_hash = joins.broadcast_join, joins.hash_join
    try:
        def spy_broadcast(*a, **k):
            called["broadcast"] = True
            return orig_broadcast(*a, **k)

        def spy_hash(*a, **k):
            called["hash"] = True
            return orig_hash(*a, **k)

        joins.broadcast_join, joins.hash_join = spy_broadcast, spy_hash
        out = joins.join(_mk_ds(left), right_ds, "k", "k").to_pandas()
    finally:
        joins.broadcast_join, joins.hash_join = orig_broadcast, orig_hash
    assert called.get("broadcast") and "hash" not in called
    expected = left.merge(right, on="k", how="inner")
    key = ["k", "lv", "rv"]
    got = out[key].sort_values(key).reset_index(drop=True)
    exp = expected[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_join_planner_shuffles_over_threshold(join_inputs, ray_session):
    from htmlparsersharp_ray.pipelines import joins

    left, right = join_inputs
    out = joins.join(_mk_ds(left), _mk_ds(right), "k", "k",
                     broadcast_threshold_bytes=1).to_pandas()
    expected = left.merge(right, on="k", how="inner")
    key = ["k", "lv", "rv"]
    got = out[key].sort_values(key).reset_index(drop=True)
    exp = expected[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_hash_join_left(join_inputs, ray_session):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left, right = join_inputs
    dedup_right = right.drop_duplicates("k")  # keep row counts predictable
    out = hash_join(_mk_ds(left), _mk_ds(dedup_right), "k", "k",
                    how="left").to_pandas()
    expected = left.merge(dedup_right, on="k", how="left")
    assert len(out) == len(expected)
    key = ["k", "lv"]
    got = out.sort_values(key).reset_index(drop=True)
    exp = expected.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "lv"]], exp[["k", "lv"]])
    # unmatched rows are null-filled on the right
    assert got["rv"].isna().equals(exp["rv"].isna())
    matched = exp["rv"].notna()
    assert (got.loc[matched, "rv"] == exp.loc[matched, "rv"]).all()


def test_hash_join_null_keys_sql_semantics(ray_session):
    """SQL NULL-join semantics (ADVICE r2): null keys never match — not
    even each other; LEFT join keeps left null-key rows unmatched."""
    import pyarrow as pa
    import ray.data
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left = pa.table({
        "k": pa.array([1, None, 2, None], pa.int64()),
        "lv": pa.array([10, 11, 12, 13], pa.int64()),
    })
    right = pa.table({
        "k": pa.array([1, None, 3], pa.int64()),
        "rv": pa.array([100, 101, 102], pa.int64()),
    })
    inner = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "k",
        n_buckets=4,
    ).to_pandas()
    assert len(inner) == 1 and int(inner["lv"].iloc[0]) == 10
    leftj = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "k",
        how="left", n_buckets=4,
    ).to_pandas()
    assert len(leftj) == 4  # every left row once; nulls unmatched
    matched = leftj[leftj["rv"].notna()]
    assert list(matched["lv"]) == [10]


def test_hash_join_auto_buckets_from_metadata(ray_session, tmp_path):
    """n_buckets=None derives the bucket count from input-file metadata
    (small files → the lo clamp, not 64) and the join stays correct."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    import ray.data
    from htmlparsersharp_ray.pipelines.joins import auto_buckets, hash_join

    lp = str(tmp_path / "l.parquet")
    rp = str(tmp_path / "r.parquet")
    pq.write_table(pa.table({"k": pa.array(range(1000), pa.int64()),
                             "lv": pa.array(range(1000), pa.int64())}), lp)
    pq.write_table(pa.table({"k": pa.array(range(0, 1000, 2), pa.int64()),
                             "rv": pa.array(range(500), pa.int64())}), rp)
    lds = ray.data.read_parquet(lp)
    rds = ray.data.read_parquet(rp)
    assert auto_buckets(lds, rds) == 8  # tiny input hits the lo clamp
    out = hash_join(lds, rds, "k", "k").to_pandas()
    assert len(out) == 500
    # no file metadata → conservative default
    assert auto_buckets(ray.data.from_pandas(pd.DataFrame({"k": [1]})),
                         rds) == 64


def test_hash_join_disjoint_keeps_schema_when_free(ray_session, tmp_path):
    """Fully disjoint inner join: when input schemas are metadata-known
    (fresh parquet reads), the empty result still carries the joined
    column layout (ADVICE r2 marker-schema fix)."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    import ray.data
    from htmlparsersharp_ray.pipelines.joins import hash_join

    lp = str(tmp_path / "l.parquet")
    rp = str(tmp_path / "r.parquet")
    pq.write_table(pa.table({"k": pa.array([1, 2], pa.int64()),
                             "lv": pa.array([1, 2], pa.int64())}), lp)
    pq.write_table(pa.table({"k": pa.array([8, 9], pa.int64()),
                             "rv": pa.array([1, 2], pa.int64())}), rp)
    ds = hash_join(ray.data.read_parquet(lp), ray.data.read_parquet(rp),
                   "k", "k", n_buckets=4)
    out = ds.to_pandas()
    assert len(out) == 0
    # NOTE: Ray's to_pandas() on an all-empty dataset drops columns even
    # when blocks carry them (NOTES_r2) — the schema is the contract.
    assert {"k", "lv", "rv"} <= set(ds.schema().names)


def test_hash_join_full_matches_pandas(join_inputs, ray_session):
    """FULL OUTER: matched rows join, one-sided keys null-fill in both
    directions; row multiset equals the pandas outer merge."""
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left, right = join_inputs
    out = hash_join(_mk_ds(left), _mk_ds(right), "k", "k",
                    how="full", n_buckets=4).to_pandas()
    # the engine emits nullable Int64 on null-fillable full-join columns
    # (never float64 — values above 2^53 would round); mirror that in
    # the pandas reference before comparing
    expected = left.astype({c: "Int64" for c in left.columns
                            if left[c].dtype.kind in "iu"}).merge(
        right.astype({c: "Int64" for c in right.columns
                      if right[c].dtype.kind in "iu"}),
        on="k", how="outer")
    assert len(out) == len(expected)
    key = ["k", "lv", "rv"]
    got = out[key].sort_values(key).reset_index(drop=True)
    exp = expected[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_hash_join_full_null_keys_sql_semantics(ray_session):
    """FULL JOIN keeps null-key rows from BOTH sides, each unmatched —
    nulls never match, not even each other."""
    import ray.data
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left = pa.table({
        "k": pa.array([1, None, 2, None], pa.int64()),
        "lv": pa.array([10, 11, 12, 13], pa.int64()),
    })
    right = pa.table({
        "k": pa.array([1, None, 3], pa.int64()),
        "rv": pa.array([100, 101, 102], pa.int64()),
    })
    out = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "k",
        how="full", n_buckets=4,
    ).to_pandas()
    # 1 matched + 1 left-only (k=2) + 2 left nulls + 1 right-only (k=3)
    # + 1 right null = 6 rows
    assert len(out) == 6
    matched = out[out["lv"].notna() & out["rv"].notna()]
    assert list(matched["lv"]) == [10] and list(matched["rv"]) == [100]
    # both left null-key rows survive unmatched
    assert out["lv"].notna().sum() == 4
    # rv present for matched (100) + right-only (102) + right-null (101)
    assert out["rv"].notna().sum() == 3
    # the right null-key row survives, unmatched (left side null-filled)
    assert (out[out["rv"] == 101]["lv"].isna()).all()


def test_hash_join_full_disjoint_and_one_sided(ray_session):
    """Fully disjoint keys: FULL returns every row from both sides,
    null-filled — including when one side is empty."""
    import ray.data
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left = pd.DataFrame({"k": [1, 2], "lv": [10, 20]})
    right = pd.DataFrame({"k": [3, 4, 5], "rv": [30, 40, 50]})
    out = hash_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right), "k", "k",
        how="full", n_buckets=4,
    ).to_pandas()
    assert len(out) == 5
    assert out["lv"].notna().sum() == 2 and out["rv"].notna().sum() == 3

    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "lv": pd.Series([], dtype="int64")})
    out2 = hash_join(
        ray.data.from_pandas(empty), ray.data.from_pandas(right), "k", "k",
        how="full", n_buckets=4,
    ).to_pandas()
    assert len(out2) == 3 and out2["lv"].isna().all()


def test_bucket_group_map_matches_plain_map_groups(ray_session):
    """bucket_group_map == a pandas groupby on the key: same rows for
    an order-insensitive per-key aggregate, across multi-block inputs,
    empty buckets never reaching fn — with a positional callable and
    with key_buckets on an int and on a string key."""
    import numpy as np
    from htmlparsersharp_ray.stages.exchange import (bucket_group_map,
                                                     key_buckets)

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "k": rng.integers(0, 40, size=500),
        "v": rng.integers(-1000, 1000, size=500),
        "s": [f"s{i % 13}" for i in range(500)],
    })
    cases = [
        ("k", lambda t: t.column("k").to_numpy() % 8),
        ("k", key_buckets("k", 8)),
        ("s", key_buckets("s", 8)),
    ]
    for key, bucket_of in cases:
        other = "s" if key == "k" else "k"

        def agg(g: pd.DataFrame, key=key, other=other) -> pd.DataFrame:
            assert len(g) > 0  # empty buckets must never reach fn
            return (g.groupby(key, as_index=False)
                     .agg(total=("v", "sum"), n=("v", "size"),
                          omin=(other, "min")))

        got = bucket_group_map(
            _mk_ds(df, n_blocks=6), bucket_of, agg,
        ).to_pandas().sort_values(key).reset_index(drop=True)

        want = (df.groupby(key, as_index=False)
                  .agg(total=("v", "sum"), n=("v", "size"),
                       omin=(other, "min"))
                  .sort_values(key).reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got.astype({"total": "int64", "n": "int64"}),
            want.astype({"total": "int64", "n": "int64"}))


@pytest.mark.parametrize("keys", [
    pa.array([5, 17, 5, -3, 2**40, 0, None, 17], pa.int64()),
    pa.array(["a", "b", "a", "", None, "ccc", "b", "zz"]),
], ids=["int", "str"])
def test_key_buckets_match_hash_join_buckets(keys):
    """A key lands in the same bucket under key_buckets and under
    hash_join's exchange, so the two exchanges co-partition."""
    from htmlparsersharp_ray.pipelines.joins import _to_exchange_rows
    from htmlparsersharp_ray.stages.exchange import (deserialize_table,
                                                     key_buckets)

    table = pa.table({"k": keys, "row": pa.array(range(len(keys)))})
    mine = key_buckets("k", 16)(table)
    rows = _to_exchange_rows(0, "k", 16, drop_null_keys=True)(table)
    seen = 0
    for bucket, blob in zip(rows.column("bucket").to_pylist(),
                            rows.column("blob").to_pylist()):
        for r in deserialize_table(blob).column("row").to_pylist():
            assert mine[r] == bucket
            seen += 1
    assert seen == len(keys) - keys.null_count
    # a null key has one fixed bucket, whatever batch it arrives in
    nulls = pa.table({"k": pa.nulls(3, keys.type)})
    assert len(set(key_buckets("k", 16)(nulls))) == 1


def test_bucket_group_map_empty_input(ray_session):
    from htmlparsersharp_ray.stages.exchange import bucket_group_map

    df = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                       "v": pd.Series([], dtype="int64")})
    out = bucket_group_map(
        _mk_ds(df, n_blocks=1),
        lambda t: t.column("k").to_numpy(),
        lambda g: g,
    ).to_pandas()
    assert len(out) == 0


def test_hash_join_semi_matches_pandas(join_inputs):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left, right = join_inputs
    out = hash_join(_mk_ds(left), _mk_ds(right), "k", "k",
                    how="semi").to_pandas()
    exp = (left[left["k"].isin(right["k"])]
           .sort_values(["k", "lv"]).reset_index(drop=True))
    got = out.sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "lv"]], exp[["k", "lv"]])
    assert list(out.columns) == ["k", "lv"]  # LEFT columns only


def test_hash_join_anti_matches_pandas(join_inputs):
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left, right = join_inputs
    out = hash_join(_mk_ds(left), _mk_ds(right), "k", "k",
                    how="anti").to_pandas()
    exp = (left[~left["k"].isin(right["k"])]
           .sort_values(["k", "lv"]).reset_index(drop=True))
    got = out.sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "lv"]], exp[["k", "lv"]])


def test_hash_join_semi_anti_null_keys_exists_semantics(ray_session):
    """EXISTS / NOT-EXISTS semantics (NOT the NOT-IN null trap): left
    null keys match nothing — semi drops them, anti KEEPS them; right
    null keys are ignored entirely."""
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left = pd.DataFrame({
        "k": pd.array([1, 2, None, 4], dtype="Int64"),
        "lv": np.arange(4, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": pd.array([2, None], dtype="Int64"),
        "rv": np.array([20, 99], dtype=np.int64),
    })
    semi = hash_join(_mk_ds(left, 2), _mk_ds(right, 2), "k", "k",
                     how="semi").to_pandas()
    assert sorted(semi["lv"].tolist()) == [1]          # only k=2 matches
    anti = hash_join(_mk_ds(left, 2), _mk_ds(right, 2), "k", "k",
                     how="anti").to_pandas()
    # k=1, k=4 unmatched; the NULL-key row matches nothing -> kept
    assert sorted(anti["lv"].tolist()) == [0, 2, 3]


def test_hash_join_semi_no_dup_amplification(ray_session):
    """Duplicate right keys must NOT duplicate left rows (semi is a
    filter, not a join-multiply)."""
    from htmlparsersharp_ray.pipelines.joins import hash_join

    left = pd.DataFrame({"k": np.array([7, 8], dtype=np.int64),
                         "lv": np.array([0, 1], dtype=np.int64)})
    right = pd.DataFrame({"k": np.array([7, 7, 7], dtype=np.int64)})
    out = hash_join(_mk_ds(left, 2), _mk_ds(right, 2), "k", "k",
                    how="semi").to_pandas()
    assert out["lv"].tolist() == [0]


def test_hash_join_anti_disjoint_keeps_all(ray_session, tmp_path):
    """Fully disjoint keys: anti passes every left row through; semi
    yields an empty result that still carries the left layout when the
    schema is metadata-known."""
    import pyarrow.parquet as pq

    import ray.data
    from htmlparsersharp_ray.pipelines.joins import hash_join

    pq.write_table(pa.table({"k": pa.array([1, 2], pa.int64()),
                             "lv": pa.array([10, 20], pa.int64())}),
                   str(tmp_path / "l.parquet"))
    pq.write_table(pa.table({"k": pa.array([5, 6], pa.int64())}),
                   str(tmp_path / "r.parquet"))
    l_ds = ray.data.read_parquet(str(tmp_path / "l.parquet"))
    r_ds = ray.data.read_parquet(str(tmp_path / "r.parquet"))
    anti = hash_join(l_ds, r_ds, "k", "k", how="anti").to_pandas()
    assert sorted(anti["lv"].tolist()) == [10, 20]
    semi = hash_join(l_ds, r_ds, "k", "k", how="semi")
    assert semi.count() == 0
    assert "lv" in semi.schema().names


def test_join_planner_broadcast_semi_anti(ray_session, tmp_path):
    """gated_keyset_filter routes small metadata-known key sets of
    semi/anti through the broadcast key-set path — same EXISTS semantics
    as the shuffle path (null left keys: dropped by semi, kept by anti)."""
    import pyarrow.parquet as pq

    import ray.data
    from htmlparsersharp_ray.pipelines import joins

    pq.write_table(pa.table({
        "k": pa.array([1, 2, None, 4], pa.int64()),
        "lv": pa.array([0, 1, 2, 3], pa.int64()),
    }), str(tmp_path / "l.parquet"))
    pq.write_table(pa.table({"k": pa.array([2, 2, None], pa.int64())}),
                   str(tmp_path / "r.parquet"))
    l_ds = ray.data.read_parquet(str(tmp_path / "l.parquet"))
    r_ds = ray.data.read_parquet(str(tmp_path / "r.parquet"))

    semi = joins.gated_keyset_filter(l_ds, r_ds, "k", "k",
                                     how="semi").to_pandas()
    assert sorted(semi["lv"].tolist()) == [1]
    anti = joins.gated_keyset_filter(
        ray.data.read_parquet(str(tmp_path / "l.parquet")),
        ray.data.read_parquet(str(tmp_path / "r.parquet")),
        "k", "k", how="anti").to_pandas()
    assert sorted(anti["lv"].tolist()) == [0, 2, 3]

    # over-threshold: falls back to the shuffle semi (same result)
    semi2 = joins.gated_keyset_filter(
        ray.data.read_parquet(str(tmp_path / "l.parquet")),
        ray.data.read_parquet(str(tmp_path / "r.parquet")),
        "k", "k", how="semi", broadcast_threshold_bytes=0).to_pandas()
    assert sorted(semi2["lv"].tolist()) == [1]


def test_hash_join_all_hows_randomized_vs_pandas(ray_session):
    """Seeded randomized differential across every join type: keys with
    heavy duplication, partial overlap and nulls; result must equal the
    pandas reference (EXISTS semantics for semi/anti). 12 seeds × 5
    hows, multi-block inputs."""
    from htmlparsersharp_ray.pipelines.joins import hash_join

    for seed in range(12):
        rng = np.random.default_rng(seed)
        nl, nr = rng.integers(1, 120, size=2)
        lk = rng.integers(0, 25, size=nl).astype(float)
        rk = rng.integers(10, 35, size=nr).astype(float)
        lk[rng.random(nl) < 0.1] = np.nan
        rk[rng.random(nr) < 0.1] = np.nan
        left = pd.DataFrame({
            "k": pd.array([None if np.isnan(v) else int(v) for v in lk],
                          dtype="Int64"),
            "lv": np.arange(nl, dtype=np.int64),
        })
        right = pd.DataFrame({
            "k": pd.array([None if np.isnan(v) else int(v) for v in rk],
                          dtype="Int64"),
            "rv": np.arange(nr, dtype=np.int64),
        })
        lmask = left["k"].notna()
        rmask = right["k"].notna()
        for how in ("inner", "left", "full", "semi", "anti"):
            got = hash_join(_mk_ds(left, 3), _mk_ds(right, 2), "k", "k",
                            how=how).to_pandas()
            if how == "semi":
                want = left[lmask & left["k"].isin(
                    right.loc[rmask, "k"])][["lv"]]
                assert sorted(got["lv"]) == sorted(want["lv"]), (seed, how)
                continue
            if how == "anti":
                want = left[~(lmask & left["k"].isin(
                    right.loc[rmask, "k"]))][["lv"]]
                assert sorted(got["lv"]) == sorted(want["lv"]), (seed, how)
                continue
            # pandas merge matches NaN==NaN, so drop nulls per SQL rules
            # and re-append the null-key rows the engine keeps
            li = left[lmask]
            ri = right[rmask]
            want = li.merge(ri, on="k", how="inner")
            pairs = set(zip(want["lv"], want["rv"]))
            if how == "inner":
                assert set(zip(got["lv"], got["rv"])) == pairs, (seed, how)
                continue
            matched_l = set(want["lv"])
            got_pairs = set(zip(got["lv"],
                                got["rv"].fillna(-1).astype(int)))
            want_pairs = set(pairs)
            if how in ("left", "full"):
                want_pairs |= {(lv, -1) for lv in left["lv"]
                               if lv not in matched_l}
            if how == "full":
                matched_r = set(want["rv"])
                got_r_only = set(got.loc[got["lv"].isna(), "rv"]
                                 .astype(int))
                want_r_only = {rv for rv in right["rv"]
                               if rv not in matched_r}
                assert got_r_only == want_r_only, (seed, how)
                got_pairs = {(lv, rv) for lv, rv in
                             zip(got["lv"].fillna(-2),
                                 got["rv"].fillna(-1).astype(int))
                             if lv != -2}
                got_pairs = {(int(lv), rv) for lv, rv in got_pairs}
            assert got_pairs == want_pairs, (seed, how)
