"""Unit tests for the round-3 relational operators: as-of join, lag,
exact grouped count-distinct, rollup, pivot, anti-join, stratified
sampling, and corpus top-terms.

Each builds a tiny hand-crafted parquet table (edge cases the sf corpus
may not hit: equal timestamps, single-event users, cross-batch
duplicate pairs) and checks the distributed result against a
straightforward in-process reference. The DuckDB oracle equivalence at
sf0.01 is tools/check_oracle.py's job; these tests pin the SEMANTICS.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from htmlparsersharp_ray.pipelines import relational as r


def _write(tmp_path, name: str, table: pa.Table) -> str:
    pq.write_table(table, str(tmp_path / f"{name}.parquet"))
    return str(tmp_path)


@pytest.fixture()
def events_dir(tmp_path):
    # user 1: view→purchase ordering incl. an equal-timestamp tie where
    #   the view's event_id is HIGHER than the purchase's (must not match);
    # user 2: purchase with no prior view; user 3: views only.
    ts = pd.to_datetime(
        [
            "2024-01-01 00:00:00", "2024-01-01 00:10:00",  # u1 view, purchase
            "2024-01-01 00:10:00",                          # u1 view, ts tie, id>purchase
            "2024-01-01 00:30:00",                          # u1 purchase
            "2024-01-01 01:00:00",                          # u2 purchase (no view)
            "2024-01-01 02:00:00",                          # u3 view
        ]
    )
    t = pa.table(
        {
            "event_id": pa.array([10, 11, 12, 13, 20, 30], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([1, 1, 1, 1, 2, 3], pa.int64()),
            "event_type": pa.array(
                ["view", "purchase", "view", "purchase", "purchase", "view"]
            ),
            "value": pa.array([0.0, 1.5, 0.0, 2.5, 3.0, 0.0], pa.float64()),
            "props": pa.array([""] * 6),
        }
    )
    return _write(tmp_path, "events", t)


def test_events_asof_semantics(ray_session, events_dir):
    out = r.q_events_asof(events_dir)
    got = {
        row.event_id: (row.view_event_id, row.gap_us)
        for row in out.itertuples()
    }
    # purchase 11 at 00:10 matches view 10 at 00:00 (view 12 shares the
    # timestamp but has a higher event_id → strictly-before excludes it)
    assert got[11] == (10, 600_000_000)
    # purchase 13 at 00:30 matches view 12 at 00:10 (latest prior)
    assert got[13] == (12, 1_200_000_000)
    # user 2 has no views at all
    assert got[20] == (-1, -1)
    assert set(got) == {11, 13, 20}


def test_events_lag_semantics(ray_session, events_dir):
    out = r.q_events_lag(events_dir)
    got = dict(zip(out["event_id"], out["gap_us"]))
    assert got[10] == -1                      # user 1 first event
    assert got[11] == 600_000_000             # 10 min after event 10
    assert got[12] == 0                       # ts tie: ordered after 11
    assert got[13] == 1_200_000_000
    assert got[20] == -1 and got[30] == -1    # single-event users


def test_events_user_distinct_dedups_across_batches(ray_session, tmp_path):
    # the same (type, user) pair appears in MANY rows spread over blocks:
    # the count must still be distinct users, not row counts
    n = 5000
    t = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array(
                pd.to_datetime(["2024-01-01"] * n), pa.timestamp("us")
            ),
            "user_id": pa.array([i % 7 for i in range(n)], pa.int64()),
            "event_type": pa.array(
                ["click" if i % 2 else "view" for i in range(n)]
            ),
            "value": pa.array([0.0] * n, pa.float64()),
            "props": pa.array([""] * n),
        }
    )
    d = _write(tmp_path, "events", t)
    out = r.q_event_user_distinct(d)
    got = dict(zip(out["event_type"], out["n_users"]))
    # users 0..6 alternate even/odd event ids → every user hits both types
    assert got == {"click": 7, "view": 7}


def test_lineitem_rollup_levels_consistent(ray_session):
    out = r.q_lineitem_rollup("/root/testdata/sf0.001")
    leaf = out[(out["l_returnflag"] != "ALL") & (out["l_linestatus"] != "ALL")]
    lvl1 = out[(out["l_returnflag"] != "ALL") & (out["l_linestatus"] == "ALL")]
    total = out[(out["l_returnflag"] == "ALL") & (out["l_linestatus"] == "ALL")]
    assert len(total) == 1
    assert int(total["n_rows"].iloc[0]) == int(leaf["n_rows"].sum())
    assert total["sum_qty"].iloc[0] == pytest.approx(leaf["sum_qty"].sum())
    for flag, grp in leaf.groupby("l_returnflag"):
        row = lvl1[lvl1["l_returnflag"] == flag]
        assert int(row["n_rows"].iloc[0]) == int(grp["n_rows"].sum())


def test_segment_status_pivot_row_sums(ray_session):
    out = r.q_segment_status_pivot("/root/testdata/sf0.001")
    assert (out["n_f"] + out["n_o"] + out["n_p"] == out["n_orders"]).all()
    # every order lands in exactly one segment cell
    orders = pq.read_table("/root/testdata/sf0.001/orders.parquet")
    assert int(out["n_orders"].sum()) == orders.num_rows


def test_customer_anti_complements_active(ray_session):
    sf = "/root/testdata/sf0.001"
    anti = set(r.q_customer_anti(sf)["c_custkey"])
    orders = pq.read_table(sf + "/orders.parquet").to_pandas()
    active = set(
        orders.loc[
            orders["o_orderdate"] >= pd.Timestamp("2000-01-01"), "o_custkey"
        ]
    )
    cust = set(
        pq.read_table(sf + "/customer.parquet").to_pandas()["c_custkey"]
    )
    assert anti == cust - active
    assert anti  # non-trivial at this sf


def test_top_terms_parallelism_invariant_and_tiebreak(ray_session):
    import ray.data

    from htmlparsersharp_ray.stages.text_analysis import top_terms

    rows = ["b b c", "a a", "c b", "a", "", "   "]
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array(rows),
    })
    one = top_terms(ray.data.from_arrow(t), k=3)
    many = top_terms(ray.data.from_arrow(t).repartition(5), k=3)
    # counts: a=3, b=3, c=2 → tie a<b at count 3
    assert list(one["term"]) == ["a", "b", "c"]
    assert list(one["n"]) == [3, 3, 2]
    assert one.equals(many)


def test_tfidf_semantics_and_parallelism(ray_session):
    import ray.data

    from htmlparsersharp_ray.stages.text_analysis import tfidf_top_terms

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(
            ["apple apple banana", "banana cherry", "cherry cherry cherry"]
        ),
    })
    one = tfidf_top_terms(ray.data.from_arrow(t), k=2)
    many = tfidf_top_terms(ray.data.from_arrow(t).repartition(3), k=2)
    assert one.equals(many)
    # doc 0: apple tf=2 df=1 → 6.0; banana tf=1 df=2 → 1.5
    d0 = one[one["doc_id"] == 0]
    assert list(d0["term"]) == ["apple", "banana"]
    assert list(d0["score"]) == [6.0, 1.5]
    # doc 2: cherry tf=3 df=2 → 4.5
    d2 = one[one["doc_id"] == 2]
    assert list(d2["term"]) == ["cherry"] and list(d2["score"]) == [4.5]


def test_stratified_sample_rates_and_determinism(ray_session):
    sf = "/root/testdata/sf0.01"
    a = r.q_docs_stratified_sample(sf)
    b = r.q_docs_stratified_sample(sf)
    assert a.equals(b)
    docs = pq.read_table(sf + "/documents.parquet").to_pandas()
    n_en = (docs["lang"] == "en").sum()
    n_other = (docs["lang"] != "en").sum()
    got_en = (a["lang"] == "en").sum()
    got_other = (a["lang"] != "en").sum()
    # binomial bands around 1/16 and 4/16 (loose — deterministic input)
    assert 0 < got_en < 0.25 * n_en
    assert 0.10 * n_other < got_other < 0.45 * n_other


def test_events_rank_tie_semantics(ray_session, tmp_path):
    # user 1 has a two-way value tie: rank repeats-then-skips (1,1,3),
    # dense_rank repeats-then-continues (1,1,2), row_number breaks the
    # tie on event_id. user 2 pins the single-row group.
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 9], pa.int64()),
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "value": pa.array([5.0, 5.0, 1.0, 7.0], pa.float64()),
        }
    )
    out = r.q_events_rank(_write(tmp_path, "events", t))
    got = out.set_index("event_id")
    assert list(got.loc[1][["rn", "rnk", "drnk"]]) == [1, 1, 1]
    assert list(got.loc[2][["rn", "rnk", "drnk"]]) == [2, 1, 1]
    assert list(got.loc[3][["rn", "rnk", "drnk"]]) == [3, 3, 2]
    assert list(got.loc[9][["rn", "rnk", "drnk"]]) == [1, 1, 1]


def test_part_band_join_boundary_semantics(ray_session, tmp_path):
    # half-open [lo, hi): 900 and 920 land in their own bands; 1000 and
    # 899.99 fall outside every band and drop (inner-join semantics).
    t = pa.table(
        {"p_retailprice": pa.array([900.0, 919.99, 920.0, 1000.0, 899.99],
                                    pa.float64())}
    )
    out = r.q_part_band_join(_write(tmp_path, "part", t))
    got = {int(b): (int(n), s) for b, n, s in
           zip(out["band_lo"], out["n_parts"], out["sum_price"])}
    assert got == {900: (2, 900.0 + 919.99), 920: (1, 920.0)}


def test_customer_cube_levels_reaggregate(ray_session, tmp_path):
    t = pa.table(
        {
            "c_mktsegment": pa.array(["A", "A", "B", "B", "B"]),
            "c_nationkey": pa.array([0, 1, 0, 0, 1], pa.int64()),
            "c_acctbal": pa.array([1.25, 2.5, 10.0, -3.75, 0.5], pa.float64()),
        }
    )
    out = r.q_customer_cube(_write(tmp_path, "customer", t))
    # four grouping sets present
    finest = out[(out["c_mktsegment"] != "ALL") & (out["c_nationkey"] != -1)]
    by_seg = out[(out["c_mktsegment"] != "ALL") & (out["c_nationkey"] == -1)]
    by_nat = out[(out["c_mktsegment"] == "ALL") & (out["c_nationkey"] != -1)]
    grand = out[(out["c_mktsegment"] == "ALL") & (out["c_nationkey"] == -1)]
    assert len(finest) == 4 and len(by_seg) == 2 and len(by_nat) == 2
    assert len(grand) == 1
    # every level re-aggregates the finest exactly (exact cents => ==)
    assert grand["n_customers"].iloc[0] == 5
    assert grand["sum_acctbal"].iloc[0] == finest["sum_acctbal"].sum()
    assert by_seg["sum_acctbal"].sum() == grand["sum_acctbal"].iloc[0]
    assert by_nat["n_customers"].sum() == 5


def test_events_props_extract_malformed(ray_session, tmp_path):
    # missing key / malformed JSON / null props all count 0; negatives
    # and whitespace variants extract exactly.
    t = pa.table(
        {
            "event_type": pa.array(["a", "a", "a", "b", "b"]),
            "props": pa.array(
                ['{"k": 7}', '{"k":-3}', '{"j": 5}', "not json", None]
            ),
        }
    )
    out = r.q_events_props_extract(_write(tmp_path, "events", t))
    got = {s: (int(k), int(n)) for s, k, n in
           zip(out["event_type"], out["sum_k"], out["n_events"])}
    assert got == {"a": (4, 3), "b": (0, 2)}


def test_events_moving_avg_frame_clamps_at_group_start(ray_session, tmp_path):
    # user 1: 5 events — frame holds at most 4 rows and never crosses
    # the user boundary; user 2 pins the single-row frame.
    ts = pd.to_datetime([f"2024-01-01 00:0{i}:00" for i in range(5)] +
                        ["2024-01-01 01:00:00"])
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5, 9], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([1, 1, 1, 1, 1, 2], pa.int64()),
            "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0, 100.0], pa.float64()),
        }
    )
    out = r.q_events_moving_avg(_write(tmp_path, "events", t))
    got = out.set_index("event_id")
    assert list(got["n_in_frame"]) == [1, 2, 3, 4, 4, 1]
    assert list(got["win_sum"]) == [1.0, 3.0, 7.0, 15.0, 30.0, 100.0]
    assert got.loc[4, "win_avg"] == 15.0 / 4
    assert got.loc[9, "win_avg"] == 100.0


def test_events_moving_avg_random_vs_sequential(ray_session, tmp_path):
    # randomized (seeded) differential: the distributed bucketed frame
    # computation must equal the sequential per-user definition, ties in
    # ts included.
    rng = np.random.default_rng(4242)
    n = 300
    ts = pd.to_datetime(rng.integers(0, 50, n), unit="m", origin="2024-01-01")
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 13, n).astype(np.int64)),
            "value": pa.array(np.round(rng.normal(50, 30, n), 2)),
        }
    )
    out = r.q_events_moving_avg(_write(tmp_path, "events", t))

    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"])
    ref_rows = {}
    for _, g in df.groupby("user_id"):
        cents = np.round(g["value"].to_numpy() * 100).astype("int64")
        for i, eid in enumerate(g["event_id"]):
            lo = max(0, i - 3)
            win = int(cents[lo:i + 1].sum())
            cnt = i + 1 - lo
            ref_rows[int(eid)] = (win / 100.0, (win / 100.0) / cnt, cnt)
    got = out.set_index("event_id")
    for eid, (ws, wa, cnt) in ref_rows.items():
        assert got.loc[eid, "win_sum"] == ws
        assert got.loc[eid, "win_avg"] == wa
        assert got.loc[eid, "n_in_frame"] == cnt


def test_key_set_ops_cross_batch_dedup(ray_session, tmp_path):
    # keys repeat WITHIN a side (duplicate rows + multiple row groups) —
    # set semantics must count each distinct key once; overlap {2,3},
    # supplier-only {1}, customer-only {4,5}.
    supp = pa.table({"s_suppkey": pa.array([1, 2, 3, 2, 2, 1], pa.int64())})
    cust = pa.table({"c_custkey": pa.array([2, 3, 4, 5, 5, 3], pa.int64())})
    pq.write_table(supp, str(tmp_path / "supplier.parquet"), row_group_size=2)
    pq.write_table(cust, str(tmp_path / "customer.parquet"), row_group_size=2)
    out = r.q_key_set_ops(str(tmp_path))
    assert out.iloc[0].to_dict() == {
        "n_intersect": 2, "n_supp_only": 1, "n_cust_only": 2}


def test_events_first_last_tie_semantics(ray_session, tmp_path):
    # equal timestamps break on event_id at BOTH window ends; single-event
    # users return the same event on both ends.
    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:00:00",
         "2024-01-01 00:05:00", "2024-01-01 00:05:00",
         "2024-01-01 01:00:00"]
    )
    t = pa.table(
        {
            "event_id": pa.array([2, 1, 10, 9, 50], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "value": pa.array([5.0, 6.0, 7.0, 8.0, 9.0], pa.float64()),
        }
    )
    out = r.q_events_first_last(_write(tmp_path, "events", t))
    got = out.set_index("user_id")
    assert got.loc[1, "first_event_id"] == 1 and got.loc[1, "first_value"] == 6.0
    assert got.loc[1, "last_event_id"] == 10 and got.loc[1, "last_value"] == 7.0
    assert got.loc[1, "n_events"] == 4
    assert got.loc[2, "first_event_id"] == 50 and got.loc[2, "last_event_id"] == 50


def test_events_first_last_null_value_row_semantics(ray_session, tmp_path):
    # SQL FIRST_VALUE returns the first ROW's value even when it is NULL
    # — per-column null-skipping (groupby.first) would stitch 7.0 in.
    ts = pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:10:00"])
    t = pa.table(
        {
            "event_id": pa.array([1, 2], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([1, 1], pa.int64()),
            "value": pa.array([None, 7.0], pa.float64()),
        }
    )
    out = r.q_events_first_last(_write(tmp_path, "events", t))
    row = out.set_index("user_id").loc[1]
    assert row["first_event_id"] == 1 and np.isnan(row["first_value"])
    assert row["last_event_id"] == 2 and row["last_value"] == 7.0


def test_events_props_extract_exact_above_2_53(ray_session, tmp_path):
    # integers above 2^53 must not round-trip through float64
    big = 9007199254740993  # 2^53 + 1
    t = pa.table(
        {
            "event_type": pa.array(["a"]),
            "props": pa.array([f'{{"k": {big}}}']),
        }
    )
    out = r.q_events_props_extract(_write(tmp_path, "events", t))
    assert int(out["sum_k"].iloc[0]) == big


def test_docs_shuffle_is_deterministic_permutation(ray_session, tmp_path):
    # positions are exactly 0..n-1 (a permutation), stable across runs,
    # and match the sequential md5-order definition
    import hashlib

    ids = np.array([3, 7, 11, 200, 999, 5], dtype=np.int64)
    t = pa.table({"doc_id": pa.array(ids),
                  "text": pa.array(["x"] * len(ids))})
    d = _write(tmp_path, "documents", t)
    a = r.q_docs_shuffle(d)
    b = r.q_docs_shuffle(d)
    assert a.equals(b)
    assert sorted(a["pos"]) == list(range(len(ids)))
    order = sorted(ids, key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
    ref = {int(doc): p for p, doc in enumerate(order)}
    assert {int(d_): int(p) for d_, p in zip(a["doc_id"], a["pos"])} == ref


def test_events_ntile_tile_size_rule(ray_session, tmp_path):
    # SQL NTILE(4): the first n%4 tiles take one extra row. user 1 has
    # n=10 → tile sizes 3,3,2,2 split in (ts, event_id) order; user 2
    # has n=2 (< K) → every row its own tile, tiles 1 and 2 only;
    # user 3 has n=1. event_id endpoints pin the boundary rows.
    ts = pd.to_datetime(["2024-01-01"] * 13) + pd.to_timedelta(
        list(range(10)) + [0, 1] + [0], unit="m"
    )
    t = pa.table(
        {
            "event_id": pa.array(list(range(10)) + [20, 21, 30], pa.int64()),
            "user_id": pa.array([1] * 10 + [2, 2, 3], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    out = r.q_events_ntile(_write(tmp_path, "events", t))
    got = {
        (int(u), int(tl)): (int(n), int(f), int(l))
        for u, tl, n, f, l in zip(
            out["user_id"], out["tile"], out["n_events"],
            out["first_event"], out["last_event"],
        )
    }
    assert got == {
        (1, 1): (3, 0, 2), (1, 2): (3, 3, 5),
        (1, 3): (2, 6, 7), (1, 4): (2, 8, 9),
        (2, 1): (1, 20, 20), (2, 2): (1, 21, 21),
        (3, 1): (1, 30, 30),
    }


def test_docs_redact_sequential_pattern_order(ray_session, tmp_path):
    # pattern 1 (email) applies BEFORE pattern 2 (lexicon): the lexicon
    # must not match inside an already-redacted email, and the count is
    # the sum over the sequential passes. 'keys' must NOT match (\b).
    import __ray_entry__ as entry

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "mail key.user@example.com then key keys user",
                    "no matches here at all",
                    "customer customer",
                ]
            ),
        }
    )
    out = entry.queries()["docs_redact"](_write(tmp_path, "documents", t))
    got = out.set_index("doc_id")
    assert got.loc[0, "scrubbed"] == "mail <X> then <X> keys <X>"
    assert got.loc[0, "n_redactions"] == 3
    assert got.loc[1, "scrubbed"] == "no matches here at all"
    assert got.loc[1, "n_redactions"] == 0
    assert got.loc[2, "scrubbed"] == "<X> <X>"
    assert got.loc[2, "n_redactions"] == 2


def test_region_revenue_local_supplier_predicate(ray_session, tmp_path):
    # one order with two lineitems: supplier 1 shares the customer's
    # nation (kept), supplier 2 is in the region but a DIFFERENT nation
    # (dropped by c_nationkey = s_nationkey); supplier 3 is outside the
    # region entirely. An out-of-date-range order is excluded.
    d = str(tmp_path)
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0, 1], pa.int64()),
        "r_name": pa.array(["ASIA", "EUROPE"]),
    }), f"{d}/region.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([10, 11, 12], pa.int64()),
        "n_name": pa.array(["JAPAN", "INDIA", "FRANCE"]),
        "n_regionkey": pa.array([0, 0, 1], pa.int64()),
    }), f"{d}/nation.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_nationkey": pa.array([10, 11, 12], pa.int64()),
    }), f"{d}/supplier.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([100], pa.int64()),
        "c_nationkey": pa.array([10], pa.int64()),
    }), f"{d}/customer.parquet")
    dates = pd.to_datetime(["1996-06-01", "1995-01-01"])
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1000, 1001], pa.int64()),
        "o_custkey": pa.array([100, 100], pa.int64()),
        "o_orderdate": pa.array(dates, pa.timestamp("us")),
    }), f"{d}/orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1000, 1000, 1000, 1001], pa.int64()),
        "l_suppkey": pa.array([1, 2, 3, 1], pa.int64()),
        "l_extendedprice": pa.array([100.0, 50.0, 25.0, 77.0], pa.float64()),
        "l_discount": pa.array([0.10, 0.0, 0.0, 0.0], pa.float64()),
    }), f"{d}/lineitem.parquet")
    out = r.q_region_revenue(d)
    assert list(out["n_name"]) == ["JAPAN"]
    assert out["revenue"].iloc[0] == 90.0


def test_events_pct_rank_ties_and_singletons(ray_session, tmp_path):
    """percent_rank/cume_dist under value ties (peer groups share both
    statistics) and a single-row partition (percent_rank = 0)."""
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-01-01"] * 5), pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "event_type": pa.array(["view"] * 5),
        "value": pa.array([5.0, 5.0, 3.0, 1.0, 9.0], pa.float64()),
        "props": pa.array([""] * 5),
    })
    out = r.q_events_pct_rank(_write(tmp_path, "events", t))
    got = out.set_index("event_id")
    # user 1 desc order: 5,5 (rank 1, peers of 2), 3 (rank 3), 1 (rank 4)
    assert got.loc[1, "pct_rank"] == 0.0 and got.loc[2, "pct_rank"] == 0.0
    assert got.loc[3, "pct_rank"] == pytest.approx(2 / 3)
    assert got.loc[4, "pct_rank"] == 1.0
    assert got.loc[1, "cume_dist"] == 0.5 and got.loc[2, "cume_dist"] == 0.5
    assert got.loc[3, "cume_dist"] == 0.75
    assert got.loc[4, "cume_dist"] == 1.0
    # singleton partition: percent_rank 0 (SQL), cume_dist 1
    assert got.loc[5, "pct_rank"] == 0.0 and got.loc[5, "cume_dist"] == 1.0


def test_customer_mode_tiebreak_smallest_key(ray_session, tmp_path):
    t = pa.table({
        "c_custkey": pa.array(list(range(6)), pa.int64()),
        "c_name": pa.array([f"c{i}" for i in range(6)]),
        "c_nationkey": pa.array([7, 7, 3, 3, 9, 9], pa.int64()),
        "c_acctbal": pa.array([0.0] * 6, pa.float64()),
        "c_mktsegment": pa.array(["A"] * 6),
    })
    out = r.q_customer_mode(_write(tmp_path, "customer", t))
    # three-way tie at count 2 → smallest nation key wins
    assert list(out["mode_nationkey"]) == [3]
    assert list(out["n_cust"]) == [2]


def test_events_histogram_negative_bins(ray_session, tmp_path):
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-01-01"] * 4), pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1], pa.int64()),
        "event_type": pa.array(["view"] * 4),
        # floor semantics: -0.5 → bin -1 (NOT 0), 9.99 → 0, 10.0 → 1
        "value": pa.array([-0.5, 9.99, 10.0, 25.0], pa.float64()),
        "props": pa.array([""] * 4),
    })
    out = r.q_events_histogram(_write(tmp_path, "events", t))
    assert list(zip(out["bin"], out["n"])) == [(-1, 1), (0, 1), (1, 1), (2, 1)]


def test_lineitem_regr_matches_numpy(ray_session, tmp_path):
    qty = [1.0, 2.0, 3.0, 4.0, 5.0]
    price = [12.5, 14.0, 17.5, 18.0, 22.5]
    t = pa.table({
        "l_orderkey": pa.array([1] * 5, pa.int64()),
        "l_returnflag": pa.array(["A"] * 5),
        "l_quantity": pa.array(qty, pa.float64()),
        "l_extendedprice": pa.array(price, pa.float64()),
    })
    out = r.q_lineitem_regr(_write(tmp_path, "lineitem", t))
    slope, intercept = np.polyfit(qty, price, 1)
    assert out["slope"].iloc[0] == pytest.approx(slope)
    assert out["intercept"].iloc[0] == pytest.approx(intercept)
    assert int(out["n_rows"].iloc[0]) == 5


def test_join_full_query_coalesces_both_directions(ray_session, tmp_path):
    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-02 10:00",  # u1 purchases, two days
        "2024-01-01 11:00",                       # u1 error day 1 (matched)
        "2024-01-03 09:00",                       # u2 error only
    ])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "event_type": pa.array(["purchase", "purchase", "error", "error"]),
        "value": pa.array([10.0, 20.0, 1.5, 2.5], pa.float64()),
        "props": pa.array([""] * 4),
    })
    out = r.q_join_full(_write(tmp_path, "events", t))
    got = out.set_index("ukey")
    assert got.loc["1#2024-01-01", "purchase_c"] == 1000
    assert got.loc["1#2024-01-01", "error_c"] == 150
    assert got.loc["1#2024-01-02", "purchase_c"] == 2000
    assert got.loc["1#2024-01-02", "error_c"] == 0       # left-only
    assert got.loc["2#2024-01-03", "purchase_c"] == 0     # right-only
    assert got.loc["2#2024-01-03", "error_c"] == 250
    assert len(out) == 3


def test_orders_weighted_sample_boundaries(ray_session, tmp_path):
    """Weight 0 → never kept; weight ≥ the $600k normalizer → always
    kept (u32 < 2^32 makes the integer predicate unconditionally true);
    intermediate weights keep a deterministic subset."""
    n = 300
    prices = [0.0] * 100 + [600000.0] * 100 + [300000.0] * 100
    t = pa.table({
        "o_orderkey": pa.array(list(range(n)), pa.int64()),
        "o_custkey": pa.array([1] * n, pa.int64()),
        "o_orderstatus": pa.array(["O"] * n),
        "o_totalprice": pa.array(prices, pa.float64()),
        "o_orderdate": pa.array(
            pd.to_datetime(["2024-01-01"] * n), pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * n),
    })
    d = _write(tmp_path, "orders", t)
    out = r.q_orders_weighted_sample(d)
    kept = set(out["o_orderkey"])
    assert not (kept & set(range(100)))            # zero weight: none
    assert set(range(100, 200)) <= kept            # full weight: all
    mid = kept & set(range(200, 300))
    assert 20 < len(mid) < 80                      # ≈50% band
    out2 = r.q_orders_weighted_sample(d)           # deterministic
    assert list(out2["o_orderkey"]) == list(out["o_orderkey"])


def test_events_range_frame_boundaries_and_peers(ray_session, tmp_path):
    """RANGE frame semantics: the 1-hour bound is INCLUSIVE (an event
    exactly 1 h earlier is in-frame), sliding out works, and equal-ts
    peers appear in each other's frames (SQL peer rule)."""
    ts = pd.to_datetime([
        "2024-01-01 00:00", "2024-01-01 00:30", "2024-01-01 01:00",
        "2024-01-01 01:01", "2024-01-01 01:30", "2024-01-01 01:30",
    ])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1] * 6, pa.int64()),
        "event_type": pa.array(["view"] * 6),
        "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], pa.float64()),
        "props": pa.array([""] * 6),
    })
    out = r.q_events_range_frame(_write(tmp_path, "events", t))
    got = out.set_index("event_id")
    assert got.loc[1, "hour_sum"] == 1.0 and got.loc[1, "n_in_frame"] == 1
    assert got.loc[2, "hour_sum"] == 3.0
    # event 3 at exactly +1h: the 00:00 event is still in-frame (inclusive)
    assert got.loc[3, "hour_sum"] == 7.0 and got.loc[3, "n_in_frame"] == 3
    # event 4 at +1h01: 00:00 slid out
    assert got.loc[4, "hour_sum"] == 14.0 and got.loc[4, "n_in_frame"] == 3
    # equal-ts peers: both 01:30 events include each other (and 00:30 is
    # exactly 1 h back, still in)
    for e in (5, 6):
        assert got.loc[e, "hour_sum"] == 2.0 + 4.0 + 8.0 + 16.0 + 32.0
        assert got.loc[e, "n_in_frame"] == 5


def test_part_zscore_semantics(ray_session, tmp_path):
    """Z-scores: hand-computable values on a tiny group, zero-variance
    group defines z = 0, and per-group scores are centered."""
    t = pa.table({
        "p_partkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "p_name": pa.array(["a", "b", "c", "d", "e"]),
        "p_brand": pa.array(["X", "X", "X", "Y", "Y"]),
        "p_type": pa.array(["t"] * 5),
        "p_size": pa.array([1] * 5, pa.int32()),
        # X: 10, 20, 30 → mean 20, pop-std sqrt(200/3)·... in cents;
        # Y: constant → zero variance
        "p_retailprice": pa.array([10.0, 20.0, 30.0, 7.0, 7.0], pa.float64()),
    })
    out = r.q_part_zscore(_write(tmp_path, "part", t))
    got = out.set_index("p_partkey")["z"]
    import math
    std = math.sqrt((3 * (1000**2 + 2000**2 + 3000**2) - 6000**2) / 9.0)
    assert got.loc[1] == pytest.approx((1000 - 2000) / std)
    assert got.loc[2] == 0.0
    assert got.loc[3] == pytest.approx((3000 - 2000) / std)
    assert got.loc[4] == 0.0 and got.loc[5] == 0.0       # zero variance
    assert abs(got.loc[[1, 2, 3]].sum()) < 1e-12          # centered


def test_events_transitions_boundaries(ray_session, tmp_path):
    """Transitions: each user's first event has no predecessor; pairs
    never cross users; equal-ts ties order by event_id."""
    ts = pd.to_datetime([
        "2024-01-01 00:00", "2024-01-01 00:01", "2024-01-01 00:01",
        "2024-01-01 00:05",
    ])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 10], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        # tie at 00:01: event 2 (view) sorts before event 3 (click)
        "event_type": pa.array(["signup", "view", "click", "error"]),
        "value": pa.array([0.0] * 4, pa.float64()),
        "props": pa.array([""] * 4),
    })
    out = r.q_events_transitions(_write(tmp_path, "events", t))
    got = {(a, b): n for a, b, n in
           zip(out["prev_type"], out["event_type"], out["n"])}
    assert got == {("signup", "view"): 1, ("view", "click"): 1}


def test_embeddings_norms_known_and_ragged(ray_session, tmp_path):
    import numpy as np

    t = pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array(
            [[3.0, 4.0], [1.0, 2.0, 2.0], []],
            pa.list_(pa.float32())),
        "label": pa.array([0, 0, 0], pa.int32()),
    })
    import __ray_entry__ as entry
    out = entry.queries()["embeddings_norms"](_write(tmp_path, "embeddings", t))
    got = out.set_index("vec_id")
    assert got.loc[0, "l2_norm"] == 5.0 and got.loc[0, "dim"] == 2
    assert got.loc[1, "l2_norm"] == 3.0 and got.loc[1, "dim"] == 3
    assert got.loc[2, "l2_norm"] == 0.0 and got.loc[2, "dim"] == 0


def test_events_latest_compaction(ray_session, tmp_path):
    """Keep-latest: newest row per (user, type) survives; equal-ts tie
    breaks on the larger event_id; singleton keys pass through."""
    ts = pd.to_datetime([
        "2024-01-01 00:00", "2024-01-01 00:05", "2024-01-01 00:05",
        "2024-01-02 00:00",
    ])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 9], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "event_type": pa.array(["view", "view", "view", "click"]),
        "value": pa.array([1.0, 2.0, 3.0, 4.0], pa.float64()),
        "props": pa.array([""] * 4),
    })
    out = r.q_events_latest(_write(tmp_path, "events", t))
    assert out["event_id"].tolist() == [3, 9]   # tie at 00:05 -> id 3
    assert out["value"].tolist() == [3.0, 4.0]
    assert out["ts_us"].tolist() == [int(ts[2].value // 1000),
                                     int(ts[3].value // 1000)]


def test_events_retention_cohorts(ray_session, tmp_path):
    """Weekly cohorts: offsets measured from each user's own first
    week; distinct users per cell (repeat events in a week count once)."""
    week = 7 * 86400
    base = pd.Timestamp("2024-01-04")  # epoch-week boundary (Thursday)
    ts = pd.to_datetime([
        base,                                  # u1 week0
        base + pd.Timedelta(seconds=10),       # u1 week0 again (dedup)
        base + pd.Timedelta(seconds=2 * week), # u1 week2
        base + pd.Timedelta(seconds=week),     # u2 first = week1
        base + pd.Timedelta(seconds=2 * week), # u2 offset1
    ])
    t = pa.table({
        "event_id": pa.array(range(5), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "event_type": pa.array(["view"] * 5),
        "value": pa.array([0.0] * 5, pa.float64()),
        "props": pa.array([""] * 5),
    })
    out = r.q_events_retention(_write(tmp_path, "events", t))
    w0 = int(base.value // 1000 // (week * 10**6))
    got = {(c, o): n for c, o, n in
           zip(out["cohort_week"], out["week_offset"], out["n_users"])}
    assert got == {(w0, 0): 1, (w0, 2): 1, (w0 + 1, 0): 1, (w0 + 1, 1): 1}


def test_events_funnel_ordering(ray_session, tmp_path):
    """Funnel: steps must occur strictly after the previous step's
    first completion — a view BEFORE signup doesn't advance, a view AT
    the signup's exact ts doesn't advance, and the click must follow
    the first qualifying view."""
    rows = [
        # u1: full funnel in order
        (1, "2024-01-01 00:00", 1, "signup"),
        (2, "2024-01-01 00:01", 1, "view"),
        (3, "2024-01-01 00:02", 1, "click"),
        # u2: view only before signup -> stops at stage 1
        (4, "2024-01-01 00:00", 2, "view"),
        (5, "2024-01-01 00:01", 2, "signup"),
        (6, "2024-01-01 00:02", 2, "click"),
        # u3: view at the signup's exact ts -> tie does not advance
        (7, "2024-01-02 00:00", 3, "signup"),
        (8, "2024-01-02 00:00", 3, "view"),
        # u4: click between signup and first view -> stage 2 only
        (9, "2024-01-03 00:00", 4, "signup"),
        (10, "2024-01-03 00:01", 4, "click"),
        (11, "2024-01-03 00:02", 4, "view"),
    ]
    t = pa.table({
        "event_id": pa.array([x[0] for x in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([x[1] for x in rows]),
                       pa.timestamp("us")),
        "user_id": pa.array([x[2] for x in rows], pa.int64()),
        "event_type": pa.array([x[3] for x in rows]),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array([""] * len(rows)),
    })
    out = r.q_events_funnel(_write(tmp_path, "events", t))
    assert out["stage"].tolist() == [1, 2, 3]
    assert out["n_users"].tolist() == [4, 2, 1]


def test_part_winsorize_clipping(ray_session, tmp_path):
    """Winsorize: values below p05 / above p95 clip to the interpolated
    band edge (flagged), interior values pass through unchanged."""
    t = pa.table({
        "p_partkey": pa.array(range(1, 12), pa.int64()),
        "p_brand": pa.array(["B"] * 11),
        "p_retailprice": pa.array([float(x) for x in range(0, 101, 10)],
                                  pa.float64()),
    })
    out = r.q_part_winsorize(_write(tmp_path, "part", t)).set_index("p_partkey")
    # n=11: p05 at h=0.5 -> 5.0, p95 at h=9.5 -> 95.0
    assert out.loc[1, "price_w"] == 5.0 and out.loc[1, "clipped"] == 1
    assert out.loc[11, "price_w"] == 95.0 and out.loc[11, "clipped"] == 1
    assert out.loc[6, "price_w"] == 50.0 and out.loc[6, "clipped"] == 0
    assert out["clipped"].sum() == 2


def test_part_unpivot_melt(ray_session, tmp_path):
    t = pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_size": pa.array([7, 9], pa.int32()),
        "p_retailprice": pa.array([10.5, 20.25], pa.float64()),
    })
    out = r.q_part_unpivot(_write(tmp_path, "part", t))
    assert len(out) == 4
    assert out["attr"].tolist() == ["p_retailprice", "p_size"] * 2
    assert out["val"].tolist() == [10.5, 7.0, 20.25, 9.0]


def test_docs_normalize_semantics(ray_session, tmp_path):
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["  Hello\t\tWORLD \n", "already ok"]),
    })
    import __ray_entry__ as entry
    out = entry.queries()["docs_normalize"](
        _write(tmp_path, "documents", t)
    ).set_index("doc_id")
    assert out.loc[1, "norm_text"] == "hello world"
    assert out.loc[1, "changed"] == 1
    assert out.loc[2, "norm_text"] == "already ok"
    assert out.loc[2, "changed"] == 0


def test_events_share_ratio(ray_session, tmp_path):
    """Ratio-to-report: shares are value/type-total and sum to 1 per
    type; types don't leak into each other's denominator."""
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-01-01"] * 4), pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 2], pa.int64()),
        "event_type": pa.array(["a", "a", "a", "b"]),
        "value": pa.array([1.0, 3.0, 4.0, 5.0], pa.float64()),
        "props": pa.array([""] * 4),
    })
    out = r.q_events_share(_write(tmp_path, "events", t)).set_index("event_id")
    assert out.loc[1, "share"] == 1.0 / 8.0
    assert out.loc[2, "share"] == 3.0 / 8.0
    assert out.loc[3, "share"] == 4.0 / 8.0
    assert out.loc[4, "share"] == 1.0            # sole 'b' event


def test_events_rolling_median_frames(ray_session, tmp_path):
    """Rolling median: growing frames interpolate on even counts, pick
    the middle on odd ones, and never cross user boundaries."""
    ts = pd.to_datetime([f"2024-01-01 00:0{i}" for i in range(5)])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "event_type": pa.array(["x"] * 5),
        "value": pa.array([10.0, 20.0, 90.0, 40.0, 7.0], pa.float64()),
        "props": pa.array([""] * 5),
    })
    out = r.q_events_rolling_median(
        _write(tmp_path, "events", t)
    ).set_index("event_id")
    assert out.loc[1, "med"] == 10.0                    # frame {10}
    assert out.loc[2, "med"] == 15.0                    # {10,20}
    assert out.loc[3, "med"] == 20.0                    # {10,20,90}
    assert out.loc[4, "med"] == 30.0                    # {10,20,90,40} -> (20+40)/2
    assert out.loc[5, "med"] == 7.0                     # new user resets
    assert out["n_in_frame"].tolist() == [1, 2, 3, 4, 1]


def test_embeddings_label_stats_ragged(ray_session, tmp_path):
    t = pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array(
            [[1.0, -2.0], [3.0, 4.0, 9.0], [-5.0, 6.0]],
            pa.list_(pa.float32())),
        "label": pa.array([7, 7, 8], pa.int32()),
    })
    import __ray_entry__ as entry
    out = entry.queries()["embeddings_label_stats"](
        _write(tmp_path, "embeddings", t)
    ).set_index(["label", "dim"])
    assert out.loc[(7, 0)].tolist() == [1.0, 3.0, 2]    # mn, mx, n
    assert out.loc[(7, 1)].tolist() == [-2.0, 4.0, 2]
    assert out.loc[(7, 2)].tolist() == [9.0, 9.0, 1]    # ragged dim
    assert out.loc[(8, 0)].tolist() == [-5.0, -5.0, 1]
    assert len(out) == 5


def test_part_mad_robust_stats(ray_session, tmp_path):
    """MAD: median interpolates on even counts; deviations use the
    interpolated median; MAD ignores the outlier the stdev would not."""
    t = pa.table({
        "p_partkey": pa.array(range(1, 6), pa.int64()),
        "p_brand": pa.array(["B"] * 4 + ["C"]),
        # B: cents 100,200,300,10000 -> med 2.50; |dev| 150,50,50,9750
        # sorted 50,50,150,9750 -> mad (50+150)/2 = 100 cents = 1.00
        "p_retailprice": pa.array([1.0, 2.0, 3.0, 100.0, 7.0], pa.float64()),
    })
    out = r.q_part_mad(_write(tmp_path, "part", t)).set_index("p_brand")
    assert out.loc["B", "med"] == 2.5 and out.loc["B", "mad"] == 1.0
    assert out.loc["C", "med"] == 7.0 and out.loc["C", "mad"] == 0.0
    assert out.loc["B", "n_parts"] == 4


def test_events_cooccurrence_pairs(ray_session, tmp_path):
    """Co-occurrence: repeat events count once per user, pairs are
    unordered (a < b), and users without both types don't contribute."""
    t = pa.table({
        "event_id": pa.array(range(6), pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-01-01"] * 6), pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "event_type": pa.array(["a", "b", "b", "a", "c", "a"]),
        "value": pa.array([0.0] * 6, pa.float64()),
        "props": pa.array([""] * 6),
    })
    out = r.q_events_cooccurrence(_write(tmp_path, "events", t))
    got = {(a, b): n for a, b, n in
           zip(out["type_a"], out["type_b"], out["n_users"])}
    assert got == {("a", "b"): 1, ("a", "c"): 1}


def test_orders_page_slice(ray_session, tmp_path):
    """Pagination: the OFFSET 40 LIMIT 20 slice of the (price DESC,
    key) order — prices constructed so the page spans a tie broken by
    key order."""
    n = 100
    # prices: 50 distinct values, each appearing twice (tie on key)
    prices = [float(1000 - (i // 2)) for i in range(n)]
    t = pa.table({
        "o_orderkey": pa.array(range(1, n + 1), pa.int64()),
        "o_custkey": pa.array([i % 7 for i in range(n)], pa.int64()),
        "o_totalprice": pa.array(prices, pa.float64()),
    })
    out = r.q_orders_page(_write(tmp_path, "orders", t))
    assert len(out) == 20
    assert out["o_orderkey"].tolist() == list(range(41, 61))
    assert out["o_totalprice"].iloc[0] == 980.0


def test_lineitem_price_quantiles_selection(ray_session, tmp_path):
    """Distributed selection: exact global discrete quantiles —
    duplicates straddling coarse-bucket edges, rank exactly at a
    boundary, and the ceil(q*n)-1 rank rule."""
    import numpy as np

    # cents values: 100 copies of 2.55 (bucket 0: 255>>8=0), 100 of
    # 2.56 (bucket 1: 256>>8=1), one outlier at 1000.00
    prices = [2.55] * 100 + [2.56] * 100 + [1000.0]
    t = pa.table({"l_extendedprice": pa.array(prices, pa.float64())})
    out = r.q_lineitem_price_quantiles(_write(tmp_path, "lineitem", t))
    n = 201
    v = np.sort(np.array([255] * 100 + [256] * 100 + [100000]))
    import math
    exp = {q: v[max(0, math.ceil(q * n) - 1)] / 100.0
           for q in (0.25, 0.5, 0.9)}
    assert out.loc[0, "p25"] == exp[0.25]       # rank 50 -> 2.55
    # rank 100 is the FIRST element of the second coarse bucket -> 2.56
    assert out.loc[0, "median"] == exp[0.5]
    assert out.loc[0, "p90"] == exp[0.9]        # rank 180 -> 2.56
    assert out.loc[0, "n_rows"] == n


def test_docs_source_cap_quota(ray_session, tmp_path):
    """Per-source cap: sources over the quota keep exactly K docs
    chosen by md5(doc_id) order; small sources pass through whole."""
    import hashlib

    n = 30
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n),
        "source": pa.array(["big"] * 25 + ["small"] * 5),
    })
    out = r.q_docs_source_cap(_write(tmp_path, "documents", t))
    assert (out["source"] == "big").sum() == 10
    assert (out["source"] == "small").sum() == 5
    exp_big = sorted(
        range(25), key=lambda i: hashlib.md5(str(i).encode()).hexdigest()
    )[:10]
    assert sorted(out.loc[out["source"] == "big", "doc_id"]) == sorted(exp_big)


def test_events_dedup_consecutive_debounce(ray_session, tmp_path):
    """Debounce: consecutive same-type repeats drop (incl. across an
    equal-ts tie ordered by event_id); a repeat AFTER an intervening
    different type survives; user boundaries reset."""
    ts = pd.to_datetime([
        "2024-01-01 00:00", "2024-01-01 00:01", "2024-01-01 00:01",
        "2024-01-01 00:02", "2024-01-01 00:03", "2024-01-01 00:00",
    ])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 1, 2], pa.int64()),
        # u1: view, view(tie, dup), click, view (survives), view(dup)
        "event_type": pa.array(
            ["view", "view", "click", "view", "view", "view"]),
        "value": pa.array([0.0] * 6, pa.float64()),
        "props": pa.array([""] * 6),
    })
    out = r.q_events_dedup_consecutive(_write(tmp_path, "events", t))
    assert out["event_id"].tolist() == [1, 3, 4, 6]


def test_part_fuzzy_pairs_planted(ray_session, tmp_path):
    """Fuzzy self-join: planted typo family found with exact distances;
    unrelated name excluded; duplicate input rows collapse to the
    distinct-name pair set."""
    names = ["blue bolt", "blue bolt", "blueболт bolt",  # dup + far
             "blue bolz", "lue bolt", "zzzz qqqq"]
    t = pa.table({
        "p_partkey": pa.array(range(len(names)), pa.int64()),
        "p_name": pa.array(names),
        "p_brand": pa.array(["b"] * len(names)),
        "p_retailprice": pa.array([1.0] * len(names), pa.float64()),
    })
    out = r.q_part_fuzzy_pairs(_write(tmp_path, "part", t))
    got = set(zip(out["name_a"], out["name_b"], out["dist"]))
    assert got == {
        ("blue bolt", "blue bolz", 1),
        ("blue bolt", "lue bolt", 1),
        ("blue bolz", "lue bolt", 2),
    }


def test_part_fuzzy_pairs_empty(ray_session, tmp_path):
    """No near pairs -> empty result still carries the contract
    columns (Ray drops columns on all-empty to_pandas)."""
    t = pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_name": pa.array(["aaaaaaaaaa", "qqqqqqqqqq"]),
        "p_brand": pa.array(["b", "b"]),
        "p_retailprice": pa.array([1.0, 2.0], pa.float64()),
    })
    out = r.q_part_fuzzy_pairs(_write(tmp_path, "part", t))
    assert len(out) == 0
    assert list(out.columns) == ["name_a", "name_b", "dist"]


def test_levenshtein_pairs_vs_reference():
    """Vectorized pair DP == textbook DP on random short strings,
    empty strings included (fixed seed)."""
    import random

    import numpy as np

    def ref(s, t):
        dp = [[0] * (len(t) + 1) for _ in range(len(s) + 1)]
        for i in range(len(s) + 1):
            dp[i][0] = i
        for j in range(len(t) + 1):
            dp[0][j] = j
        for i in range(1, len(s) + 1):
            for j in range(1, len(t) + 1):
                dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                               dp[i - 1][j - 1] + (s[i - 1] != t[j - 1]))
        return dp[len(s)][len(t)]

    rng = random.Random(7)
    a = ["".join(rng.choice("abcde") for _ in range(rng.randint(0, 9)))
         for _ in range(300)]
    b = ["".join(rng.choice("abcde") for _ in range(rng.randint(0, 9)))
         for _ in range(300)]
    got = r._levenshtein_pairs(np.array(a, object), np.array(b, object))
    assert (got == np.array([ref(s, t) for s, t in zip(a, b)])).all()


def test_part_skyline_semantics(ray_session, tmp_path):
    """Skyline: identical (price,size) ties both survive; equal price
    + larger size dominates; equal size + cheaper price dominates;
    incomparable points coexist on the frontier."""
    t = pa.table({
        "p_partkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "p_name": pa.array(["a"] * 6),
        "p_brand": pa.array(["b"] * 6),
        "p_type": pa.array(["t"] * 6),
        # (price, size): 1:(10,5) 2:(10,5) ties survive; 3:(10,4)
        # dominated by 1; 4:(9,3) frontier (cheaper); 5:(11,6)
        # frontier (bigger); 6:(12,6) dominated by 5 (same size,
        # pricier)
        "p_size": pa.array([5, 5, 4, 3, 6, 6], pa.int32()),
        "p_retailprice": pa.array(
            [10.0, 10.0, 10.0, 9.0, 11.0, 12.0], pa.float64()),
    })
    out = r.q_part_skyline(_write(tmp_path, "part", t))
    assert out["p_partkey"].tolist() == [1, 2, 4, 5]
    assert str(out["p_size"].dtype) == "int64"


def test_part_skyline_matches_bruteforce(ray_session, tmp_path):
    """Distributed 3-level skyline == quadratic brute force on a
    seeded random table large enough to span many batches/buckets."""
    import numpy as np

    rng = np.random.default_rng(11)
    n = 4000
    size = rng.integers(1, 60, n).astype(np.int32)
    price = (rng.integers(80000, 120000, n) / 100.0)
    t = pa.table({
        "p_partkey": pa.array(range(n), pa.int64()),
        "p_name": pa.array(["a"] * n),
        "p_brand": pa.array(["b"] * n),
        "p_type": pa.array(["t"] * n),
        "p_size": pa.array(size, pa.int32()),
        "p_retailprice": pa.array(price, pa.float64()),
    })
    out = r.q_part_skyline(_write(tmp_path, "part", t))
    dominated = np.zeros(n, dtype=bool)
    for i in range(n):
        dominated[i] = bool(np.any(
            (price <= price[i]) & (size >= size[i])
            & ((price < price[i]) | (size > size[i]))))
    exp = np.flatnonzero(~dominated)
    assert out["p_partkey"].to_numpy().tolist() == exp.tolist()


def test_docs_mixture_sample_quotas(ray_session, tmp_path):
    """Mixture resampling: integer-exact proportional quotas
    (max(1, floor(K*n_s/N))), members in md5(doc_id) order, tiny
    sources keep at least one doc."""
    import hashlib

    # 160 'a', 36 'b', 4 'c' -> N=200, K=200 -> quotas 160, 36, 4
    # then a skew check below with different N
    src = ["a"] * 160 + ["b"] * 36 + ["c"] * 4
    n = len(src)
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n),
        "source": pa.array(src),
    })
    out = r.q_docs_mixture_sample(_write(tmp_path, "documents", t))
    vc = out["source"].value_counts()
    assert vc["a"] == 160 and vc["b"] == 36 and vc["c"] == 4

    # skewed: 990 'big', 7 'mid', 3 'tiny' -> N=1000, K=200 ->
    # quotas floor(198.0)=198, floor(1.4)=1, max(1, floor(0.6))=1
    src2 = ["big"] * 990 + ["mid"] * 7 + ["tiny"] * 3
    n2 = len(src2)
    t2 = pa.table({
        "doc_id": pa.array(range(n2), pa.int64()),
        "text": pa.array(["x"] * n2),
        "source": pa.array(src2),
    })
    d2 = tmp_path / "s2"
    d2.mkdir()
    out2 = r.q_docs_mixture_sample(_write(d2, "documents", t2))
    vc2 = out2["source"].value_counts()
    assert vc2["big"] == 198 and vc2["mid"] == 1 and vc2["tiny"] == 1
    # md5-order member choice for 'mid' (doc_ids 990..996)
    exp_mid = min(range(990, 997),
                  key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
    assert out2.loc[out2["source"] == "mid", "doc_id"].iloc[0] == exp_mid


def test_fuzzy_variant_generation_matches_setwise():
    """Vectorized per-length deletion-mask variant generation inside
    q_part_fuzzy_pairs emits exactly the _deletion_variants set for
    every name (mixed lengths, incl. shorter-than-K strings)."""
    import numpy as np

    names = ["abcde", "xy", "a", "", "hello world!", "abcde"]
    # replicate the emit_variants numpy path standalone
    from itertools import combinations

    K = 2
    arr = np.array(list(dict.fromkeys(names)), dtype=object)
    lens = np.fromiter((len(s) for s in arr), np.int64, len(arr))
    got = {s: set() for s in arr}
    for L in np.unique(lens):
        L = int(L)
        sub = arr[lens == L]
        for s in sub:
            got[s].add(s)
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
                    v = np.ascontiguousarray(
                        chars[:, keep]).view(f"U{w}").ravel()
                for s, vv in zip(sub, v):
                    got[s].add(str(vv))
    for s in got:
        assert got[s] == r._deletion_variants(s, K), s


def test_part_name_clusters_semantics(ray_session, tmp_path):
    """Entity resolution: exact-dup names cluster, typo chains merge
    transitively (a~b, b~c => one cluster even if ed(a,c) > 2), far
    names stay singletons; rep = min partkey."""
    names = [
        "widget",      # 0: rep of the widget family
        "widget",      # 1: exact dup
        "widgex",      # 2: ed 1 from widget
        "widgexyz",    # 3: ed 2 from widgex, ed 3 from widget (chain)
        "gizmo",       # 4: singleton
        "sprocket",    # 5: rep of sprocket pair
        "sprockez",    # 6: ed 1
    ]
    t = pa.table({
        "p_partkey": pa.array(range(len(names)), pa.int64()),
        "p_name": pa.array(names),
        "p_brand": pa.array(["b"] * len(names)),
        "p_type": pa.array(["t"] * len(names)),
        "p_size": pa.array([1] * len(names), pa.int32()),
        "p_retailprice": pa.array([1.0] * len(names), pa.float64()),
    })
    out = r.q_part_name_clusters(_write(tmp_path, "part", t))
    got = dict(zip(out["p_partkey"], out["cluster_rep"]))
    assert got == {0: 0, 1: 0, 2: 0, 3: 0, 4: 4, 5: 5, 6: 5}


def test_docs_lm_score_counts(ray_session, tmp_path):
    """LM commonness: global bigram counts aggregate across docs and
    batches; repeated bigrams count per OCCURRENCE; one-token and
    empty docs are excluded."""
    texts = [
        "the cat sat",          # bigrams: "the cat", "cat sat"
        "the cat ran",          # "the cat" (x2 globally), "cat ran"
        "the cat sat",          # exact dup -> "the cat" x3, "cat sat" x2
        "solo",                 # no bigrams
        "",                     # empty
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "source": pa.array(["s"] * len(texts)),
    })
    out = r.q_docs_lm_score(_write(tmp_path, "documents", t))
    assert out["doc_id"].tolist() == [0, 1, 2]
    got = {row.doc_id: (row.n_bigrams, row.sum_cnt, row.lm_score)
           for row in out.itertuples()}
    # "the cat"=3, "cat sat"=2, "cat ran"=1
    assert got[0] == (2, 5, 2.5)
    assert got[1] == (2, 4, 2.0)
    assert got[2] == (2, 5, 2.5)


def _transit_lineitem(tmp_path):
    """Synthetic lineitem for the interval ops: transit = qty%30+1 days,
    half-open [ship, ship+transit). Supplier/part 1: three intervals —
    [d0, d0+3) and [d0+3, d0+4) touch (merge), [d0+10, d0+11) is a
    separate island. Supplier/part 2: two overlapping [d0, d0+5) and
    [d0+3, d0+7) plus a nested [d0+4, d0+5) => peak concurrency 3."""
    d0 = pd.Timestamp("2024-01-01")
    ship = [d0, d0 + pd.Timedelta(days=3), d0 + pd.Timedelta(days=10),
            d0, d0 + pd.Timedelta(days=3), d0 + pd.Timedelta(days=4)]
    qty = [2.0, 0.0, 0.0, 4.0, 3.0, 0.0]   # transit = qty % 30 + 1 days
    key = [1, 1, 1, 2, 2, 2]
    t = pa.table({
        "l_orderkey": pa.array(range(6), pa.int64()),
        "l_partkey": pa.array(key, pa.int64()),
        "l_suppkey": pa.array(key, pa.int64()),
        "l_linenumber": pa.array([1] * 6, pa.int32()),
        "l_quantity": pa.array(qty, pa.float64()),
        "l_extendedprice": pa.array([1.0] * 6, pa.float64()),
        "l_discount": pa.array([0.0] * 6, pa.float64()),
        "l_tax": pa.array([0.0] * 6, pa.float64()),
        "l_returnflag": pa.array(["N"] * 6),
        "l_linestatus": pa.array(["O"] * 6),
        "l_shipdate": pa.array(pd.Series(ship).astype("datetime64[us]")),
    })
    return _write(tmp_path, "lineitem", t)


def test_supplier_ship_islands_semantics(ray_session, tmp_path):
    """Touching half-open intervals merge; disjoint ones form separate
    islands; covered/max spans are exact integer microseconds."""
    sf = _transit_lineitem(tmp_path)
    out = r.q_supplier_ship_islands(sf)
    DAY = 86_400_000_000
    got = {row.l_suppkey: (row.n_islands, row.covered_us,
                           row.max_island_us)
           for row in out.itertuples()}
    # supplier 1: [0,3)+[3,4) merged + [10,11) => 2 islands, 4+1 days
    assert got[1] == (2, 5 * DAY, 4 * DAY)
    # supplier 2: [0,5),[3,7),[4,5) all merge => 1 island of 7 days
    assert got[2] == (1, 7 * DAY, 7 * DAY)


def test_part_transit_concurrency_semantics(ray_session, tmp_path):
    """Sweep-line peak: nested/overlapping intervals count
    simultaneously; touching half-open intervals do NOT overlap."""
    sf = _transit_lineitem(tmp_path)
    out = r.q_part_transit_concurrency(sf)
    got = dict(zip(out["l_partkey"], out["max_in_transit"]))
    # part 1: [0,3) and [3,4) touch (no overlap), [10,11) alone => 1
    assert got[1] == 1
    # part 2: at day 4, [0,5)+[3,7)+[4,5) are all live => 3
    assert got[2] == 3


def test_events_time_weighted_step_integration(ray_session, tmp_path):
    """TWAP: each value holds until the next event (the last holds
    nothing); weights are whole elapsed seconds; sub-second-span users
    drop; ticks round half-to-even."""
    base = pd.Timestamp("2024-01-01")
    rows = [
        # user 1: v=2 for 10 s, v=4 for 30 s -> twa = (20+120)/40 = 3.5
        (1, 1, base, 2.0),
        (2, 1, base + pd.Timedelta(seconds=10), 4.0),
        (3, 1, base + pd.Timedelta(seconds=40), 99.0),   # last: no weight
        # user 2: single event -> span 0 -> dropped
        (4, 2, base, 5.0),
        # user 3: two events 500ms apart -> span_s floor 0 -> dropped
        (5, 3, base, 1.0),
        (6, 3, base + pd.Timedelta(milliseconds=500), 1.0),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(pd.Series([r[2] for r in rows])
                       .astype("datetime64[us]")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array(["x"] * len(rows)),
        "value": pa.array([r[3] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows)),
    })
    out = r.q_events_time_weighted(_write(tmp_path, "events", t))
    assert out["user_id"].tolist() == [1]
    assert out["num_scaled"].tolist() == [(20000 * 10) + (40000 * 30)]
    assert out["span_s"].tolist() == [40]
    assert out["twa"].tolist() == [3.5]


def test_embeddings_label_centroids_fixed_point(ray_session, tmp_path):
    """Per-label centroids: fixed-point component sums are exact and
    order-independent; half-to-even rounding matches CAST semantics."""
    emb = [[1.0, -0.5], [0.0, 0.5], [2.0, 2.0]]
    t = pa.table({
        "vec_id": pa.array([1, 2, 3], pa.int64()),
        "embedding": pa.array(emb, pa.list_(pa.float32())),
        "label": pa.array([7, 7, 8], pa.int32()),
    })
    out = r.q_embeddings_label_centroids(_write(tmp_path, "embeddings", t))
    S = 1 << 20
    got = {(row.label, row.dim): (row.n, row.sum_scaled, row.centroid)
           for row in out.itertuples()}
    assert got[(7, 0)] == (2, S, S / (2 * float(S)))          # mean 0.5
    assert got[(7, 1)] == (2, 0, 0.0)                         # -0.5+0.5
    assert got[(8, 0)] == (1, 2 * S, 2.0)
    assert got[(8, 1)] == (1, 2 * S, 2.0)


def test_events_late_arrivals_watermark(ray_session, tmp_path):
    """Lateness is judged against the running max event-time in md5
    arrival order minus the allowed lateness; the first arrival is
    never late; ties and on-time events stay on-time."""
    import hashlib
    n = 50
    ids = list(range(n))
    # event times INCREASE with id; md5 arrival order scrambles them,
    # so an event is late iff some md5-earlier event has a much later ts
    base = pd.Timestamp("2024-01-01")
    ts = [base + pd.Timedelta(hours=i) for i in ids]
    t = pa.table({
        "event_id": pa.array(ids, pa.int64()),
        "ts": pa.array(pd.Series(ts).astype("datetime64[us]")),
        "user_id": pa.array([1] * n, pa.int64()),
        "event_type": pa.array(["a" if i % 2 else "b" for i in ids]),
        "value": pa.array([1.0] * n, pa.float64()),
        "props": pa.array(["{}"] * n),
    })
    out = r.q_events_late_arrivals(_write(tmp_path, "events", t))
    # sequential reference over the same md5 arrival permutation
    order = sorted(ids, key=lambda i: (hashlib.md5(
        str(i).encode()).hexdigest(), i))
    us = {i: (base + pd.Timedelta(hours=i)).value // 1000 for i in ids}
    wm, late = None, {"a": 0, "b": 0}
    totals = {"a": 0, "b": 0}
    for i in order:
        typ = "a" if i % 2 else "b"
        totals[typ] += 1
        if wm is not None and us[i] < wm - 300_000_000:
            late[typ] += 1
        wm = us[i] if wm is None else max(wm, us[i])
    got = {row.event_type: (row.n_events, row.n_late)
           for row in out.itertuples()}
    assert got == {k: (totals[k], late[k]) for k in ("a", "b")}
    assert sum(late.values()) > 0     # the scramble makes some late


def test_docs_split_group_aware(ray_session, tmp_path):
    """Every doc of a source lands in the same split (leakage safety),
    splits are deterministic md5-of-source, all three labels legal."""
    import hashlib
    srcs = [f"s{i}" for i in range(40)]
    t = pa.table({
        "doc_id": pa.array(range(80), pa.int64()),
        "text": pa.array(["x"] * 80),
        "source": pa.array([srcs[i % 40] for i in range(80)]),
    })
    out = r.q_docs_split(_write(tmp_path, "documents", t))
    per_src = out.groupby("source")["split"].nunique()
    assert (per_src == 1).all()          # group-aware: one split per source
    for s, grp in out.groupby("source"):
        v = int(hashlib.md5(s.encode()).hexdigest()[:2], 16)
        want = "train" if v < 204 else ("val" if v < 230 else "test")
        assert (grp["split"] == want).all()


def test_docs_search_conjunctive(ray_session, tmp_path):
    """AND semantics: only docs containing every query term match;
    score sums tf over the query terms only."""
    texts = [
        "join hash vector join",      # all 3: tf_total = 2+1+1 = 4
        "join hash join hash",        # missing 'vector' -> no match
        "vector",                     # missing others -> no match
        "join the hash and vector",   # all 3 once each -> 3
        "",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "source": pa.array(["s"] * len(texts)),
    })
    out = r.q_docs_search(_write(tmp_path, "documents", t))
    assert dict(zip(out["doc_id"], out["tf_total"])) == {0: 4, 3: 3}


def test_docs_pmi_semantics(ray_session, tmp_path):
    """PMI collocations: pair counts aggregate globally across docs,
    the min-count threshold prunes, unigram counts cover ALL token
    occurrences (including doc-final ones), and the ratio equals
    c_xy*T/(c_x*c_y) with T = total bigram occurrences pre-threshold."""
    texts = (["new york"] * 5            # "new york" x5
             + ["new deal york"]          # "new deal", "deal york"
             + ["york"])                  # unigram only
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "source": pa.array(["s"] * len(texts)),
    })
    out = r.q_docs_pmi(_write(tmp_path, "documents", t), min_count=5)
    # survivors: only ("new", "york") with 5; T = 7 bigrams total
    assert out["term_x"].tolist() == ["new"]
    assert out["term_y"].tolist() == ["york"]
    assert out["pair_count"].tolist() == [5]
    assert out["count_x"].tolist() == [6]    # "new" x6
    assert out["count_y"].tolist() == [7]    # "york" x7
    want = (np.float64(5) * np.float64(7)) / np.float64(6 * 7)
    assert out["pmi_ratio"].tolist() == [want]


def test_part_name_clusters_all_singletons(ray_session, tmp_path):
    """No exact dups and no fuzzy pairs at all: both edge datasets are
    empty and every part is its own cluster rep (exercises the
    empty-edges path through the distributed CC)."""
    names = ["aaaaaaaaaa", "qqqqqqqqqq", "zzzzzzzzzz"]
    t = pa.table({
        "p_partkey": pa.array([7, 8, 9], pa.int64()),
        "p_name": pa.array(names),
        "p_brand": pa.array(["b"] * 3),
        "p_type": pa.array(["t"] * 3),
        "p_size": pa.array([1] * 3, pa.int32()),
        "p_retailprice": pa.array([1.0] * 3, pa.float64()),
    })
    out = r.q_part_name_clusters(_write(tmp_path, "part", t))
    assert dict(zip(out["p_partkey"], out["cluster_rep"])) == {
        7: 7, 8: 8, 9: 9}


def test_events_user_gini_semantics(ray_session, tmp_path):
    """Gini impurity: single-type user scores 0; a 50/50 user scores
    0.5; counts aggregate across batches (exact squared sums)."""
    n = 8
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-01-01"] * n),
                       pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 3, 3], pa.int64()),
        "event_type": pa.array(
            ["view", "view", "click", "click",   # u1: 2/2 -> 0.5
             "view", "view",                      # u2: pure -> 0.0
             "view", "click"]),                   # u3: 1/1 -> 0.5
        "value": pa.array([0.0] * n, pa.float64()),
        "props": pa.array([""] * n),
    })
    out = r.q_events_user_gini(_write(tmp_path, "events", t))
    got = dict(zip(out["user_id"], out["gini"]))
    assert got[1] == 0.5 and got[2] == 0.0 and got[3] == 0.5
    assert dict(zip(out["user_id"], out["n_events"])) == {1: 4, 2: 2, 3: 2}


def test_customer_rfm_scores(ray_session, tmp_path):
    """RFM: recency measured against the corpus max date; quartile
    scores use the discrete rule (> q_disc thresholds); aggregates
    are exact across batches. 4 customers with clean separation."""
    dates = pd.to_datetime([
        "2024-04-10",                # c1: recency 0, freq 1, cents 100
        "2024-04-01", "2024-03-01",  # c2: recency 9, freq 2
        "2024-02-01", "2024-01-15", "2024-01-01",   # c3: recency 69, freq 3
        "2023-06-01",                # c4: recency 314, freq 1
    ])
    cust = [1, 2, 2, 3, 3, 3, 4]
    price = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 0.5]
    n = len(cust)
    t = pa.table({
        "o_orderkey": pa.array(range(n), pa.int64()),
        "o_custkey": pa.array(cust, pa.int64()),
        "o_orderdate": pa.array(dates, pa.timestamp("us")),
        "o_totalprice": pa.array(price, pa.float64()),
        "o_orderstatus": pa.array(["O"] * n),
    })
    out = r.q_customer_rfm(_write(tmp_path, "orders", t))
    got = out.set_index("c_custkey")
    assert got.loc[1, "recency_days"] == 0
    assert got.loc[2, "recency_days"] == 9
    assert got.loc[4, "recency_days"] == 314
    assert got.loc[3, "frequency"] == 3
    assert got.loc[3, "monetary"] == 9.0
    # recency values sorted: [0, 9, 69, 314]; q_disc(.25)=0, .5=9, .75=69
    # scores: c1: 0 -> 1; c2: 9 -> 2; c3: 69 -> 3; c4: 314 -> 4
    assert got["r_q"].to_dict() == {1: 1, 2: 2, 3: 3, 4: 4}
    # frequency sorted [1,1,2,3]: q=.25->1, .5->1, .75->2
    # c1: 1 -> 1; c4: 1 -> 1; c2: 2 -> 3; c3: 3 -> 4
    assert got["f_q"].to_dict() == {1: 1, 2: 3, 3: 4, 4: 1}


def test_lineitem_weighted_quantiles(ray_session, tmp_path):
    """Weighted selection: quantiles follow unit weights, not row
    counts — one heavy cheap row outweighs many light expensive ones;
    rule = smallest value with cumweight >= ceil(q*W)."""
    # prices 1.00..5.00; weights: price 1.00 carries 90 of 100 units
    price = [1.0, 2.0, 3.0, 4.0, 5.0]
    qty = [90.0, 4.0, 3.0, 2.0, 1.0]
    n = len(price)
    t = pa.table({
        "l_orderkey": pa.array(range(n), pa.int64()),
        "l_extendedprice": pa.array(price, pa.float64()),
        "l_quantity": pa.array(qty, pa.float64()),
        "l_discount": pa.array([0.0] * n, pa.float64()),
        "l_tax": pa.array([0.0] * n, pa.float64()),
        "l_returnflag": pa.array(["N"] * n),
        "l_linestatus": pa.array(["O"] * n),
        "l_shipdate": pa.array(
            pd.to_datetime(["2024-01-01"] * n), pa.timestamp("us")),
    })
    out = r.q_lineitem_weighted_quantiles(_write(tmp_path, "lineitem", t))
    # W=100: ceil(.25*100)=25 -> 1.00; ceil(.5*100)=50 -> 1.00;
    # ceil(.9*100)=90 -> 1.00 (cum at 1.00 is exactly 90)
    assert out.loc[0, "wp25"] == 1.0
    assert out.loc[0, "wmedian"] == 1.0
    assert out.loc[0, "wp90"] == 1.0
    assert out.loc[0, "total_units"] == 100
    # shift one unit: 89 cheap units -> p90 rank 90 crosses into 2.00
    qty2 = [89.0, 5.0, 3.0, 2.0, 1.0]
    t2 = t.set_column(2, "l_quantity", pa.array(qty2, pa.float64()))
    d2 = tmp_path / "w2"
    d2.mkdir()
    out2 = r.q_lineitem_weighted_quantiles(_write(d2, "lineitem", t2))
    assert out2.loc[0, "wp90"] == 2.0


def test_orders_order_gap_semantics(ray_session, tmp_path):
    """Order gaps: same-date tie ordered by orderkey gives a 0 gap;
    single-order customers drop; median interpolates two middles
    exactly."""
    dates = pd.to_datetime([
        "2024-01-01", "2024-01-11", "2024-01-11", "2024-02-10",  # c1
        "2024-03-01",                                            # c2 solo
        "2024-01-01", "2024-01-02",                              # c3
    ])
    cust = [1, 1, 1, 1, 2, 3, 3]
    n = len(cust)
    t = pa.table({
        "o_orderkey": pa.array(range(n), pa.int64()),
        "o_custkey": pa.array(cust, pa.int64()),
        "o_orderdate": pa.array(dates, pa.timestamp("us")),
        "o_totalprice": pa.array([1.0] * n, pa.float64()),
        "o_orderstatus": pa.array(["O"] * n),
    })
    out = r.q_orders_order_gap(_write(tmp_path, "orders", t))
    got = out.set_index("c_custkey")
    assert set(got.index) == {1, 3}           # c2 has no gaps
    # c1 gaps: 10, 0 (tie), 30 -> n=3, median 10, max 30
    assert got.loc[1, "n_gaps"] == 3
    assert got.loc[1, "median_gap"] == 10.0
    assert got.loc[1, "max_gap"] == 30
    # c3: single gap of 1 day
    assert got.loc[3, "n_gaps"] == 1 and got.loc[3, "median_gap"] == 1.0


def test_group_sums_exact_past_int64(ray_session):
    """_group_sums merges its per-block int64 partials in Python ints:
    a group whose total passes 2^63 (three blocks of 2^62) comes back
    exact, n_rows counts rows, rows sort by the keys and a null key
    drops."""
    import ray.data

    big = 1 << 62
    blocks = [pa.table({"k": pa.array(["b", None, "a", "b"]),
                        "v": pa.array([big - 1, 7, i, 1], pa.int64())})
              for i in range(3)]
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == 3
    out = r._group_sums(ds, ["k"], lambda b: b)
    assert list(out["k"]) == ["a", "b"]
    assert [int(v) for v in out["v"]] == [0 + 1 + 2, 3 * big]
    assert 3 * big > (1 << 63)
    assert [int(v) for v in out["n_rows"]] == [3, 6]


def test_selection_quantiles_weighted_bruteforce(ray_session):
    """Weighted distributed selection == brute-force rule (smallest
    value with cumulative weight >= ceil(q*W)) on seeded random data
    spanning many coarse buckets, including weight-0 rows and
    duplicate values."""
    import math

    import numpy as np
    import ray.data

    for seed in (3, 17, 99):
        rng = np.random.default_rng(seed)
        n = 5000
        v = rng.integers(0, 10_000, n)
        w = rng.integers(0, 5, n)
        df = pd.DataFrame({"v": v.astype("int64"), "w": w.astype("int64")})
        ds = ray.data.from_pandas(df).repartition(7)
        got, total = r._selection_quantiles_multi(
            ds, {"v": lambda b: b["v"].to_numpy()},
            {"q25": 0.25, "q5": 0.5, "q9": 0.9},
            to_weight=lambda b: b["w"].to_numpy())
        got = got["v"]
        assert total == int(w.sum())
        order = np.argsort(v, kind="stable")
        sv, sw = v[order], w[order]
        cw = np.cumsum(sw)
        for name, q in (("q25", 0.25), ("q5", 0.5), ("q9", 0.9)):
            r_w = max(1, math.ceil(q * total))
            exp = int(sv[np.searchsorted(cw, r_w)])
            assert got[name] == exp, (seed, name)


def test_events_dau_mau(ray_session, tmp_path):
    """DAU/MAU: distinct users dedup within day and month across
    batches and buckets; MAU spans the whole month; stickiness is
    dau/mau."""
    ts = pd.to_datetime([
        "2024-01-01 03:00", "2024-01-01 09:00",  # u1 twice on day 1
        "2024-01-01 10:00",                       # u2 day 1
        "2024-01-15 12:00",                       # u1 again mid-month
        "2024-02-01 00:00",                       # u3 new month
    ])
    users = [1, 1, 2, 1, 3]
    n = len(users)
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(["view"] * n),
        "value": pa.array([0.0] * n, pa.float64()),
        "props": pa.array([""] * n),
    })
    out = r.q_events_dau_mau(_write(tmp_path, "events", t))
    got = out.set_index("day")
    assert got.loc["2024-01-01", "dau"] == 2     # u1 deduped
    assert got.loc["2024-01-01", "mau"] == 2     # jan users: u1, u2
    assert got.loc["2024-01-01", "stickiness"] == 1.0
    assert got.loc["2024-01-15", "dau"] == 1
    assert got.loc["2024-01-15", "stickiness"] == 0.5
    assert got.loc["2024-02-01", "mau"] == 1     # feb: u3 only


def test_docs_dup_rate_by_source(ray_session, tmp_path):
    """Dup-rate report: keep-first is GLOBAL (a dup in source B whose
    keeper lives in source A still counts against B); keeper itself is
    not a dup; rate = dups/docs."""
    texts = ["same", "same", "same", "unique1", "unique2"]
    srcs = ["A", "B", "B", "A", "B"]
    n = len(texts)
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts),
        "source": pa.array(srcs),
    })
    out = r.q_docs_dup_rate_by_source(_write(tmp_path, "documents", t))
    got = out.set_index("source")
    # A: docs 0 (keeper) + 3 -> 0 dups; B: docs 1,2 dups of 0 + 4
    assert got.loc["A", "n_docs"] == 2 and got.loc["A", "n_dups"] == 0
    assert got.loc["B", "n_docs"] == 3 and got.loc["B", "n_dups"] == 2
    assert got.loc["B", "dup_rate"] == 2.0 / 3.0


def test_embeddings_norm_quantiles(ray_session, tmp_path):
    """Float-domain selection: micro-quantized norm quantiles follow
    the discrete rank rule over planted norms (vectors [k,0] have norm
    exactly k); ragged vectors still norm correctly."""
    vecs = ([[1.0, 0.0]] * 5 + [[2.0, 0.0]] * 3 + [[10.0, 0.0]] * 2
            + [[3.0]])  # ragged 1-dim vector, norm 3
    t = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
        "label": pa.array(["x"] * len(vecs)),
    })
    out = r.q_embeddings_norm_quantiles(_write(tmp_path, "embeddings", t))
    # sorted norms: 1x5, 2x3, 3, 10x2 (n=11)
    # q25 -> rank ceil(2.75)=3 -> 1; median -> rank 6 -> 2;
    # p90 -> rank ceil(9.9)=10 -> 10
    assert out.loc[0, "qp25"] == 1.0
    assert out.loc[0, "qmedian"] == 2.0
    assert out.loc[0, "qp90"] == 10.0
    assert out.loc[0, "n_vecs"] == 11


def test_docs_language_mixture(ray_session, tmp_path):
    """Language mixture: per-source counts + shares over the langid
    kernel — planted de/es/zh docs classify, zero-hit text falls back
    to en, shares sum to 1 per source."""
    texts = [
        "the cat is on the mat for a while",   # en
        "der hund ist ein tier und das ist gut",  # de
        "el perro es un animal y la casa",     # es
        "这是中文文本",                          # zh (CJK)
        "qqq zzz xxx",                          # zero-hit -> en
    ]
    srcs = ["s1", "s1", "s2", "s2", "s1"]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "source": pa.array(srcs),
        "lang": pa.array(["x"] * len(texts)),
    })
    out = r.q_docs_language_mixture(_write(tmp_path, "documents", t))
    got = {(r_.source, r_.lang_pred): (r_.n_docs, r_.share)
           for r_ in out.itertuples()}
    assert got[("s1", "en")] == (2, 2.0 / 3.0)
    assert got[("s1", "de")] == (1, 1.0 / 3.0)
    assert got[("s2", "es")] == (1, 0.5)
    assert got[("s2", "zh")] == (1, 0.5)


def test_customer_order_counts_zero_fill(ray_session, tmp_path):
    """Q13 shape: customers with NO orders appear in the c_count=0 row
    (the zero-fill LEFT-join path — absent from the sf corpora), and
    the distribution matches a pandas reference."""
    import numpy as np

    rng = np.random.default_rng(3)
    custkeys = np.arange(1, 41, dtype=np.int64)
    o_cust = rng.choice(custkeys[:30], size=200)  # custkeys 31..40 orderless
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array(custkeys),
    }))
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array(o_cust),
    }))
    out = r.q_customer_order_counts(str(tmp_path))

    counts = pd.Series(o_cust).value_counts().reindex(custkeys, fill_value=0)
    want = (counts.value_counts().rename_axis("c_count")
            .reset_index(name="n_custs").astype("int64")
            .sort_values("c_count").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, want)
    assert int(out.loc[out["c_count"] == 0, "n_custs"].iloc[0]) == 10


def test_orders_big_spenders_having_joinback(ray_session, tmp_path):
    """Q18 shape: only customers at/over the threshold survive; every
    one of their detail rows comes back with the qualifying total."""
    import numpy as np

    # customer 1: 3 orders of $2M (qualifies: $6M >= $4.8M)
    # customer 2: 2 orders of $2M (doesn't: $4M)
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "o_orderkey": pa.array([10, 11, 12, 20, 21], pa.int64()),
        "o_totalprice": pa.array([2e6, 2e6, 2e6, 2e6, 2e6], pa.float64()),
    }))
    out = r.q_orders_big_spenders(str(tmp_path))
    assert out["o_custkey"].tolist() == [1, 1, 1]
    assert out["o_orderkey"].tolist() == [10, 11, 12]
    assert (out["cust_total_cents"] == 600_000_000).all()
    assert (out["price_cents"] == 200_000_000).all()


def test_sorted_neighbors_straddle_and_window(ray_session, tmp_path):
    """Sorted-neighborhood blocking must find pairs that CROSS a
    2-char-prefix bucket boundary (e.g. 'az...' vs 'ba...') and honor
    the rank-window cutoff exactly — differential vs a brute-force
    rank self-join over the same distinct names."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from htmlparsersharp_ray.pipelines.relational import (
        _levenshtein_pairs,
        q_part_sorted_neighbors,
    )

    rng = np.random.default_rng(21)
    names = []
    # boundary twins in DIFFERENT prefix buckets but rank-adjacent
    names += ["azzzy", "bazzy"]          # cross-bucket, lev 2
    names += ["cat", "cbt", "cct"]       # in-bucket chain, lev 1 apart
    # filler spreading across buckets (push some pairs out of window)
    letters = "abcdefghij"
    for i in range(80):
        names.append(letters[i % 10] + letters[(i // 10) % 10]
                     + f"xx{i:03d}")
    tbl = pa.table({"p_name": pa.array(names * 3)})  # dup rows collapse
    pq.write_table(tbl, str(tmp_path / "part.parquet"))

    got = q_part_sorted_neighbors(str(tmp_path))
    got_set = set(zip(got["name_a"], got["name_b"]))

    # brute-force reference over distinct sorted names
    d = sorted(set(names))
    want = set()
    for i in range(len(d)):
        for j in range(i + 1, min(i + 11, len(d))):
            dist = int(_levenshtein_pairs(
                np.array([d[i]], dtype=object),
                np.array([d[j]], dtype=object))[0])
            if dist <= 2:
                want.add((d[i], d[j]))
    assert got_set == want
    assert ("azzzy", "bazzy") in got_set      # the straddle pair
    assert ("cat", "cbt") in got_set


def test_cdc_apply_tombstone_semantics(ray_session, tmp_path):
    """Latest change wins per entity; an entity whose LATEST change is
    a tombstone vanishes; a tombstone followed by a later upsert
    resurrects the entity (standard CDC merge-on-read)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from htmlparsersharp_ray.pipelines.relational import q_events_cdc_apply

    base = np.int64(1_700_000_000_000_000)
    rows = [
        # user 1: upsert then tombstone -> absent
        (1, 1, base + 1, "view", 1.0),
        (2, 1, base + 2, "error", 0.0),
        # user 2: tombstone then later upsert -> resurrected w/ latest
        (3, 2, base + 1, "error", 0.0),
        (4, 2, base + 2, "purchase", 9.5),
        # user 3: two upserts -> latest value
        (5, 3, base + 1, "view", 1.0),
        (6, 3, base + 2, "click", 2.0),
        # user 4: ts tie -> higher event_id wins
        (7, 4, base + 5, "view", 1.0),
        (8, 4, base + 5, "signup", 3.0),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts_i",
                                     "event_type", "value"])
    tbl = pa.table({
        "event_id": pa.array(df["event_id"], pa.int64()),
        "user_id": pa.array(df["user_id"], pa.int64()),
        "ts": pa.array(df["ts_i"].to_numpy().astype("datetime64[us]"),
                       pa.timestamp("us")),
        "event_type": pa.array(df["event_type"]),
        "value": pa.array(df["value"], pa.float64()),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    out = q_events_cdc_apply(str(tmp_path))
    state = {int(r.user_id): (str(r.event_type), float(r.value))
             for r in out.itertuples()}
    assert 1 not in state                      # tombstoned away
    assert state[2] == ("purchase", 9.5)       # resurrected
    assert state[3] == ("click", 2.0)          # latest upsert
    assert state[4] == ("signup", 3.0)         # event_id tie-break


def test_lineitem_below_avg_boundary_exact(ray_session, tmp_path):
    """Q17 shape: the correlated comparison is strict (<) and exact at
    the 0.2*avg boundary — a row AT exactly one-fifth of the part's
    average must NOT qualify (float division would make this flaky)."""
    # part 1: quantities [1, 5, 5, 5, 9] -> avg 5, 0.2*avg = 1.0;
    #   the qty=1 row sits exactly ON the boundary -> excluded
    # part 2: quantities [1, 9] -> avg 5, boundary 1.0; qty=1 ON -> none
    # part 3: quantities [1, 99] -> avg 50, boundary 10; qty=1 qualifies
    _write(tmp_path, "lineitem", pa.table({
        "l_partkey": pa.array([1, 1, 1, 1, 1, 2, 2, 3, 3], pa.int64()),
        "l_quantity": pa.array(
            [1.0, 5, 5, 5, 9, 1, 9, 1, 99], pa.float64()),
        "l_extendedprice": pa.array(
            [10.0, 20, 20, 20, 20, 10, 20, 7.77, 20], pa.float64()),
    }))
    out = r.q_lineitem_below_avg(str(tmp_path))
    assert out["l_partkey"].tolist() == [3]
    assert out["below_avg_cents"].tolist() == [777]
    assert out["n_below"].tolist() == [1]


def test_supplier_top_revenue_ties(ray_session, tmp_path):
    """Q15 shape: ALL suppliers tied at the global max come back, and
    the revenue arithmetic is exact scaled-int (2 and 3 tie bitwise:
    100.00*(1-0.10) == 90.00*(1-0.00))."""
    _write(tmp_path, "lineitem", pa.table({
        "l_suppkey": pa.array([1, 2, 3, 3], pa.int64()),
        "l_extendedprice": pa.array([50.0, 100.0, 45.0, 45.0], pa.float64()),
        "l_discount": pa.array([0.0, 0.10, 0.0, 0.0], pa.float64()),
    }))
    out = r.q_supplier_top_revenue(str(tmp_path))
    assert out["l_suppkey"].tolist() == [2, 3]
    assert out["total_u"].nunique() == 1
    assert int(out["total_u"].iloc[0]) == 100_00 * (10000 - 1000)


def test_orders_sorted_global_order_under_skew(ray_session, tmp_path):
    """Range-partitioned global sort: output must be GLOBALLY ordered by
    (price_cents, o_orderkey) — the driver compare is order-insensitive,
    so this test carries the ordering guarantee. Heavy value skew (80%
    of rows share one price) exercises duplicate split points."""
    import numpy as np

    rng = np.random.default_rng(7)
    n = 5000
    price = np.where(rng.random(n) < 0.8, 100.0,
                     rng.integers(1, 10_000, n) / 7.0)
    keys = rng.permutation(n).astype(np.int64)
    _write(tmp_path, "orders", pa.table({
        "o_orderkey": pa.array(keys),
        "o_totalprice": pa.array(price, pa.float64()),
    }))
    out = r.q_orders_sorted(str(tmp_path))
    assert len(out) == n
    got = list(zip(out["price_cents"], out["o_orderkey"]))
    assert got == sorted(got), "output not globally ordered"
    want_cents = np.sort(np.round(price * 100).astype(np.int64))
    assert (out["price_cents"].to_numpy() == want_cents).all()


def test_events_hopping_membership(ray_session, tmp_path):
    """Hopping window (1 h / 15 min): an event at 10:37 belongs to
    exactly the windows starting 09:45, 10:00, 10:15, 10:30 — and sums
    are exact cents."""
    ts = pd.to_datetime(["2024-01-01 10:37:00", "2024-01-01 10:44:59"])
    _write(tmp_path, "events", pa.table({
        "event_type": pa.array(["a", "a"]),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array([1.25, 2.50], pa.float64()),
    }))
    out = r.q_events_hopping(str(tmp_path))
    # both events share the same 15-min slot -> same 4 windows
    assert len(out) == 4
    starts = pd.to_datetime(out["window_start"]).dt.strftime("%H:%M").tolist()
    assert starts == ["09:45", "10:00", "10:15", "10:30"]
    assert (out["sum_value"] == 3.75).all()
    assert (out["n_events"] == 2).all()


def test_nation_volume_pair_routing(ray_session, tmp_path):
    """Q7 shape: only cross-nation (supp != cust) revenue within the
    {NATION_1, NATION_2} pair survives, split by ship year; nations
    outside the pair and same-nation flows drop."""
    _write(tmp_path, "supplier", pa.table({
        "s_suppkey": pa.array([10, 11, 12], pa.int64()),
        "s_nationkey": pa.array([1, 2, 3], pa.int64()),  # 12 outside pair
    }))
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([20, 21, 22], pa.int64()),
        "c_nationkey": pa.array([2, 1, 4], pa.int64()),  # 22 outside pair
    }))
    _write(tmp_path, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([20, 21, 22], pa.int64()),
    }))
    ship = pd.to_datetime([
        "1995-06-01",  # supp1 -> cust-nation2 (keep, 1995)
        "1996-06-01",  # supp1 -> cust-nation2 (keep, 1996)
        "1995-07-01",  # supp2 -> cust-nation2: same nation, drop
        "1995-08-01",  # supp3 (outside pair), drop
        "1997-01-01",  # out of date range, drop
    ])
    _write(tmp_path, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2, 1], pa.int64()),
        "l_suppkey": pa.array([10, 10, 11, 12, 10], pa.int64()),
        "l_extendedprice": pa.array([100.0, 200.0, 50.0, 50.0, 999.0]),
        "l_discount": pa.array([0.10, 0.00, 0.0, 0.0, 0.0]),
        "l_shipdate": pa.array(ship, pa.timestamp("us")),
    }))
    out = r.q_nation_volume(str(tmp_path))
    assert out.to_dict("records") == [
        {"supp_nation": "NATION_1", "cust_nation": "NATION_2",
         "l_year": 1995, "revenue": 90.0},
        {"supp_nation": "NATION_1", "cust_nation": "NATION_2",
         "l_year": 1996, "revenue": 200.0},
    ]


def test_promo_revenue_ratio(ray_session, tmp_path):
    """Q14 shape: the percentage is promo/total of the month's
    discounted revenue; out-of-month rows don't contribute."""
    _write(tmp_path, "part", pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_type": pa.array(["PROMO", "STANDARD"]),
    }))
    ship = pd.to_datetime(
        ["1995-09-10", "1995-09-20", "1995-10-01"])  # 3rd outside month
    _write(tmp_path, "lineitem", pa.table({
        "l_partkey": pa.array([1, 2, 1], pa.int64()),
        "l_extendedprice": pa.array([100.0, 300.0, 999.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0]),
        "l_shipdate": pa.array(ship, pa.timestamp("us")),
    }))
    out = r.q_promo_revenue(str(tmp_path))
    assert out["promo_revenue"].tolist() == [100.0 * 100.0 / 400.0]


def test_lineitem_disjunctive_clauses(ray_session, tmp_path):
    """Q19 shape: a row qualifies through ANY single clause (brand AND
    size-range AND qty-range together); partial matches drop."""
    _write(tmp_path, "part", pa.table({
        "p_partkey": pa.array([1, 2, 3, 4], pa.int64()),
        "p_brand": pa.array(["Brand#12", "Brand#23", "Brand#34", "Brand#12"]),
        "p_size": pa.array([3, 8, 12, 40], pa.int64()),  # 4: size too big
    }))
    _write(tmp_path, "lineitem", pa.table({
        "l_partkey": pa.array([1, 2, 3, 4, 1], pa.int64()),
        # clause1 qty 1-11 ok; clause2 qty 10-20 ok; clause3 qty 20-30
        # TOO LOW (19); part4 wrong size; part1 qty out of range
        "l_quantity": pa.array([5.0, 15.0, 19.0, 5.0, 50.0]),
        "l_extendedprice": pa.array([10.0, 20.0, 40.0, 80.0, 160.0]),
        "l_discount": pa.array([0.0, 0.5, 0.0, 0.0, 0.0]),
    }))
    out = r.q_lineitem_disjunctive(str(tmp_path))
    assert out["n_rows"].tolist() == [2]
    assert out["revenue"].tolist() == [10.0 + 10.0]  # 20 * (1-0.5) = 10


def test_supplier_last_to_ship_exists_semantics(ray_session, tmp_path):
    """Q21 shape: single-supplier orders drop, ties at the order max
    drop (STRICTLY last), non-'F' orders drop; the count attributes to
    the unique last supplier."""
    _write(tmp_path, "orders", pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_orderstatus": pa.array(["F", "F", "F", "O"]),
    }))
    ship = pd.to_datetime([
        # order 1: supp 7 strictly last (keep)
        "2024-01-01", "2024-01-05",
        # order 2: supp 7 and 8 TIE at max (drop)
        "2024-02-01", "2024-02-01",
        # order 3: single supplier (drop)
        "2024-03-01",
        # order 4: status 'O' (drop even though supp 9 is strictly last)
        "2024-04-01", "2024-04-09",
    ])
    _write(tmp_path, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 2, 2, 3, 4, 4], pa.int64()),
        "l_suppkey": pa.array([6, 7, 7, 8, 7, 6, 9], pa.int64()),
        "l_shipdate": pa.array(ship, pa.timestamp("us")),
    }))
    out = r.q_supplier_last_to_ship(str(tmp_path))
    assert out.to_dict("records") == [{"l_suppkey": 7, "num_last": 1}]


def test_customer_idle_balance_boundaries(ray_session, tmp_path):
    """Q22 shape: balance EQUAL to the average positive balance drops
    (> is strict, integer cross-multiply); a recent order disqualifies;
    negative balances count for grouping but not the average."""
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "c_nationkey": pa.array([0, 0, 1, 1, 2], pa.int64()),
        # positive balances: 100, 200, 300, 250 -> avg = 212.5
        "c_acctbal": pa.array([100.0, 200.0, 300.0, 250.0, -50.0]),
    }))
    # customer 4 (bal 250 > avg) ordered recently -> disqualified
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array([4, 3], pa.int64()),
        "o_orderdate": pa.array(pd.to_datetime(["2000-05-01", "1999-01-01"]),
                                pa.timestamp("us")),
    }))
    out = r.q_customer_idle_balance(str(tmp_path))
    # avg positive = (100+200+250+300)/4 = 212.5 -> only cust 3 and 4
    # exceed; 4 is recently active -> only cust 3 (nation 1) remains
    assert out.to_dict("records") == [
        {"c_nationkey": 1, "numcust": 1, "totacctbal": 300.0}]


def test_customer_idle_balance_empty(ray_session, tmp_path):
    """All customers recently active -> empty result with stable
    schema (the all-empty to_pandas column-loss wart, NOTES_r2)."""
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([1], pa.int64()),
        "c_nationkey": pa.array([0], pa.int64()),
        "c_acctbal": pa.array([100.0]),
    }))
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array([1], pa.int64()),
        "o_orderdate": pa.array(pd.to_datetime(["2000-05-01"]),
                                pa.timestamp("us")),
    }))
    out = r.q_customer_idle_balance(str(tmp_path))
    assert len(out) == 0
    assert list(out.columns) == ["c_nationkey", "numcust", "totacctbal"]


def test_nation_market_share_ratio(ray_session, tmp_path):
    """Q8 shape: numerator counts only NATION_1-supplier revenue, the
    denominator counts ALL revenue of region-0 customers' orders, and
    orders from other regions are excluded entirely."""
    _write(tmp_path, "nation", pa.table({
        "n_nationkey": pa.array([0, 1, 5], pa.int64()),
        "n_name": pa.array(["NATION_0", "NATION_1", "NATION_5"]),
        "n_regionkey": pa.array([0, 1, 0], pa.int64()),
    }))
    _write(tmp_path, "supplier", pa.table({
        "s_suppkey": pa.array([10, 11], pa.int64()),
        "s_nationkey": pa.array([1, 5], pa.int64()),
    }))
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([20, 21], pa.int64()),
        "c_nationkey": pa.array([0, 1], pa.int64()),  # 21: region 1, drop
    }))
    _write(tmp_path, "orders", pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([20, 21], pa.int64()),
        "o_orderdate": pa.array(pd.to_datetime(["1995-03-01", "1995-04-01"]),
                                pa.timestamp("us")),
    }))
    _write(tmp_path, "lineitem", pa.table({
        "l_orderkey": pa.array([1, 1, 2], pa.int64()),
        "l_suppkey": pa.array([10, 11, 10], pa.int64()),
        "l_extendedprice": pa.array([100.0, 300.0, 999.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0]),
    }))
    out = r.q_nation_market_share(str(tmp_path))
    assert out.to_dict("records") == [
        {"o_year": 1995, "mkt_share": 100.0 / 400.0}]


def test_events_new_users_cumulative(ray_session, tmp_path):
    """First-event day per user; repeat events don't recount; the
    running total accumulates over days."""
    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-02 09:00",  # u1 first on Jan 1
        "2024-01-01 23:59",                       # u2 first on Jan 1
        "2024-01-03 00:00",                       # u3 first on Jan 3
    ])
    _write(tmp_path, "events", pa.table({
        "user_id": pa.array([1, 1, 2, 3], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
    }))
    out = r.q_events_new_users(str(tmp_path))
    assert out["new_users"].tolist() == [2, 1]
    assert out["cum_users"].tolist() == [2, 3]
    assert pd.to_datetime(out["day"]).dt.strftime("%Y-%m-%d").tolist() == [
        "2024-01-01", "2024-01-03"]


def test_events_rolling_dau_interval_semantics(ray_session, tmp_path):
    """Distinct-over-sliding-window: a user active twice within one
    window counts once; a gap >= 7 days splits their coverage; only
    observed days emit rows."""
    ts = pd.to_datetime([
        "2024-01-01", "2024-01-03",   # u1: days 1,3 (one merged cover)
        "2024-01-01",                 # u2: day 1 only
        "2024-01-15",                 # u1 again after a long gap
    ])
    _write(tmp_path, "events", pa.table({
        "user_id": pa.array([1, 1, 2, 1], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
    }))
    out = r.q_events_rolling_dau(str(tmp_path))
    got = dict(zip(pd.to_datetime(out["day"]).dt.strftime("%m-%d"),
                   out["dau7"]))
    # observed days: 01-01, 01-03, 01-15
    # 01-01 window [12-26..01-01]: u1,u2 -> 2
    # 01-03 window [12-28..01-03]: u1,u2 -> 2
    # 01-15 window [01-09..01-15]: only u1's second burst -> 1
    assert got == {"01-01": 2, "01-03": 2, "01-15": 1}


def test_nation_top_customers_rank_order(ray_session, tmp_path):
    """Top-3 per nation by (balance desc, custkey asc), concatenated in
    rank order; cross-batch partials must not lose a global top-3
    member."""
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "c_name": pa.array(["a", "b", "c", "d", "e"]),
        "c_nationkey": pa.array([0, 0, 0, 0, 1], pa.int64()),
        "c_acctbal": pa.array([10.0, 30.0, 20.0, 30.0, 5.0]),
    }))
    out = r.q_nation_top_customers(str(tmp_path))
    got = dict(zip(out["c_nationkey"], out["top_customers"]))
    # nation 0: 30(b, key2), 30(d, key4), 20(c) — 'a' drops
    assert got == {0: "b,d,c", 1: "e"}


def test_events_bag_except_multiset(ray_session, tmp_path):
    """Bag semantics: surplus = max(count_even - count_odd, 0), per
    type; equal counts vanish."""
    _write(tmp_path, "events", pa.table({
        "user_id": pa.array([2, 4, 6, 1, 2, 3], pa.int64()),
        "event_type": pa.array(["x", "x", "x", "x", "y", "y"]),
    }))
    out = r.q_events_bag_except(str(tmp_path))
    # x: even {2,4,6}=3 vs odd {1}=1 -> surplus 2; y: 1 vs 1 -> gone
    assert out.to_dict("records") == [{"event_type": "x", "surplus": 2}]


def test_customer_revenue_deciles_rank_semantics(ray_session, tmp_path):
    """Rank-order deciles with N not divisible by 10 and a revenue tie
    broken by custkey; shares sum to 1."""
    import numpy as np

    # 12 customers: two tie at the top (100.0), rest descending
    rev = [100.0, 100.0, 90.0, 80.0, 70.0, 60.0,
           50.0, 40.0, 30.0, 20.0, 10.0, 5.0]
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array(np.arange(1, 13, dtype=np.int64)),
        "o_totalprice": pa.array(rev),
    }))
    out = r.q_customer_revenue_deciles(str(tmp_path))
    # ranks 1..12; decile = (rank-1)*10 // 12 -> 0,0,1,2,3,4,5,5,6,7,8,9
    assert out["n_custs"].tolist() == [2, 1, 1, 1, 1, 2, 1, 1, 1, 1]
    # decile 0 = the two tied 100s
    assert out.loc[0, "revenue"] == 200.0
    total = sum(rev)
    np.testing.assert_allclose(out["rev_share"].sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(out.loc[0, "rev_share"], 200.0 / total)


def test_customer_returns_semantics(ray_session, tmp_path):
    """Q10 shape: only 'R' lineitems of in-window orders count; revenue
    ties break to the smaller custkey; attributes join back."""
    _write(tmp_path, "nation", pa.table({
        "n_nationkey": pa.array([0], pa.int64()),
        "n_name": pa.array(["NATION_0"]),
        "n_regionkey": pa.array([0], pa.int64()),
    }))
    _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_name": pa.array(["ca", "cb", "cc"]),
        "c_nationkey": pa.array([0, 0, 0], pa.int64()),
    }))
    dates = pd.to_datetime(["1995-08-01", "1995-08-02", "1996-01-01"])
    _write(tmp_path, "orders", pa.table({
        "o_orderkey": pa.array([10, 20, 30], pa.int64()),
        "o_custkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderdate": pa.array(dates, pa.timestamp("us")),
    }))
    _write(tmp_path, "lineitem", pa.table({
        "l_orderkey": pa.array([10, 10, 20, 30], pa.int64()),
        "l_returnflag": pa.array(["R", "N", "R", "R"]),  # N drops
        "l_extendedprice": pa.array([50.0, 999.0, 50.0, 999.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0]),
    }))
    out = r.q_customer_returns(str(tmp_path))
    # cust 3's order is out of window; 1 and 2 tie at 50 -> custkey order
    assert out["c_custkey"].tolist() == [1, 2]
    assert out["revenue"].tolist() == [50.0, 50.0]
    assert out["n_name"].tolist() == ["NATION_0", "NATION_0"]


def test_events_bursts_integer_decision(ray_session, tmp_path):
    """Burst requires 8 PRIOR observed buckets, min support, and a
    strict > 2x trailing-average rate — boundary exactly-2x does NOT
    fire (integer cross-multiply)."""
    rows = []
    # type 'a': 8 quiet hours of 4, then a 10-count hour (10*8 > 2*32
    # -> burst), then an hour of exactly 2x the new trailing avg
    base = pd.Timestamp("2024-01-01 00:00:00")
    for h in range(8):
        rows += [("a", base + pd.Timedelta(hours=h))] * 4
    rows += [("a", base + pd.Timedelta(hours=8))] * 10
    # type 'b': spikes but with only 7 prior buckets -> never fires
    for h in range(7):
        rows += [("b", base + pd.Timedelta(hours=h))] * 4
    rows += [("b", base + pd.Timedelta(hours=7))] * 100
    # type 'c': exactly 2x boundary — trail 8x5=40, n=10: 10*8 == 2*40
    for h in range(8):
        rows += [("c", base + pd.Timedelta(hours=h))] * 5
    rows += [("c", base + pd.Timedelta(hours=8))] * 10
    et = [r[0] for r in rows]
    ts = [r[1] for r in rows]
    _write(tmp_path, "events", pa.table({
        "event_type": pa.array(et),
        "ts": pa.array(pd.to_datetime(ts), pa.timestamp("us")),
    }))
    out = r.q_events_bursts(str(tmp_path))
    assert out["event_type"].tolist() == ["a"]
    assert out["n"].tolist() == [10]
    assert out["trail"].tolist() == [32]


def test_events_pattern_adjacency_and_ties(ray_session, tmp_path):
    """Pattern requires ADJACENCY (an intervening event breaks it);
    timestamp ties order by event_id; per-user counts accumulate."""
    base = pd.Timestamp("2024-01-01")
    rows = [
        # u1: v v p -> 1 match, then another v v p later -> 2 total
        (1, 1, base, "view"), (1, 2, base, "view"),
        (1, 3, base, "purchase"),  # ts TIES: event_id orders v,v,p
        (1, 4, base + pd.Timedelta("1h"), "view"),
        (1, 5, base + pd.Timedelta("2h"), "view"),
        (1, 6, base + pd.Timedelta("3h"), "purchase"),
        # u2: v CLICK v p -> intervening click breaks adjacency
        (2, 7, base, "view"), (2, 8, base + pd.Timedelta("1m"), "click"),
        (2, 9, base + pd.Timedelta("2m"), "view"),
        (2, 10, base + pd.Timedelta("3m"), "purchase"),
    ]
    _write(tmp_path, "events", pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[2] for r in rows]),
                       pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows]),
    }))
    out = r.q_events_pattern(str(tmp_path))
    assert out.to_dict("records") == [{"user_id": 1, "n_matches": 2}]


def test_part_multi_nation_distinct_and_threshold(ray_session, tmp_path):
    """Duplicate (part, nation) pairs count once; threshold is >= 18."""
    import numpy as np

    # part 1: suppliers from 18 nations (many dup lineitems);
    # part 2: 17 nations -> below threshold
    supp_keys = np.arange(1, 40, dtype=np.int64)
    _write(tmp_path, "supplier", pa.table({
        "s_suppkey": pa.array(supp_keys),
        "s_nationkey": pa.array(supp_keys % 25),
    }))
    li_part, li_supp = [], []
    for s in range(1, 19):          # part 1: nations 1..18
        li_part += [1, 1]           # duplicated rows
        li_supp += [s, s]
    for s in range(1, 18):          # part 2: nations 1..17
        li_part.append(2)
        li_supp.append(s)
    _write(tmp_path, "lineitem", pa.table({
        "l_partkey": pa.array(li_part, pa.int64()),
        "l_suppkey": pa.array(li_supp, pa.int64()),
    }))
    out = r.q_part_multi_nation(str(tmp_path))
    assert out.to_dict("records") == [{"l_partkey": 1, "n_nations": 18}]


def test_events_attribution_tolerance_and_last_touch(ray_session, tmp_path):
    """Attribution picks the LAST prior click (not the max id), drops
    purchases whose latest click is older than 1 h, and drops
    click-less purchases; value rides in exact cents."""
    base = pd.Timestamp("2024-01-01")
    rows = [
        # u1: click#9, then click#5 LATER (lower id!), purchase 10 min
        # after -> attributes to #5 (last touch), not #9 (max id)
        (1, 9, base, "click", 0.0),
        (1, 5, base + pd.Timedelta("30min"), "click", 0.0),
        (1, 20, base + pd.Timedelta("40min"), "purchase", 12.34),
        # u2: click then purchase 2 h later -> outside tolerance
        (2, 30, base, "click", 0.0),
        (2, 31, base + pd.Timedelta("2h"), "purchase", 5.0),
        # u3: purchase with no click at all
        (3, 40, base, "purchase", 7.0),
    ]
    _write(tmp_path, "events", pa.table({
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[2] for r in rows]),
                       pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows]),
        "value": pa.array([r[4] for r in rows], pa.float64()),
    }))
    out = r.q_events_attribution(str(tmp_path))
    assert out.to_dict("records") == [{
        "event_id": 20, "user_id": 1, "click_event_id": 5,
        "gap_us": 600_000_000, "value_cents": 1234,
    }]


def test_events_windowed_join_semantics(ray_session, tmp_path):
    """1:N windowed join: all views within 10 min before the purchase
    emit; older views drop; same-ts ties break by event_id; a purchase
    whose user has NO views must not capture another user's views (the
    composite-key rank-collision case)."""
    base = pd.Timestamp("2024-01-01 12:00:00")
    rows = [
        # u10: views at -15min (drop), -5min, -1min, tie-ts lower id
        (10, 1, base - pd.Timedelta("15min"), "view"),
        (10, 2, base - pd.Timedelta("5min"), "view"),
        (10, 3, base - pd.Timedelta("1min"), "view"),
        (10, 4, base, "view"),          # ts tie with purchase, id 4 < 5
        (10, 5, base, "purchase"),
        # u20: purchase but NO views at all (rank-collision guard)
        (20, 6, base, "purchase"),
        # u30: views only, no purchase
        (30, 7, base, "view"),
    ]
    _write(tmp_path, "events", pa.table({
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[2] for r in rows]),
                       pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows]),
    }))
    out = r.q_events_windowed_join(str(tmp_path))
    assert out.to_dict("records") == [
        {"purchase_id": 5, "view_id": 2, "user_id": 10,
         "gap_us": 300_000_000},
        {"purchase_id": 5, "view_id": 3, "user_id": 10,
         "gap_us": 60_000_000},
        {"purchase_id": 5, "view_id": 4, "user_id": 10, "gap_us": 0},
    ]


def test_events_windowed_join_fallback_wide_span(ray_session, tmp_path):
    """Force the composite-key overflow guard (ranks x span >= 2^62):
    600+ view-bearing users across the full pandas timestamp range take
    the slice-loop fallback, which must agree with a pandas reference."""
    import numpy as np

    n_users = 700
    lo = pd.Timestamp("1677-09-22")
    hi = pd.Timestamp("2262-04-10")
    rows_u, rows_id, rows_ts, rows_ty = [], [], [], []
    eid = 0
    for u in range(n_users):
        t = lo if u % 2 == 0 else hi  # spread across the full range
        rows_u += [u, u]
        rows_id += [eid, eid + 1]
        rows_ts += [t, t + pd.Timedelta("5min")]
        rows_ty += ["view", "purchase"]
        eid += 2
    _write(tmp_path, "events", pa.table({
        "event_id": pa.array(rows_id, pa.int64()),
        "user_id": pa.array(rows_u, pa.int64()),
        "ts": pa.array(pd.to_datetime(rows_ts), pa.timestamp("us")),
        "event_type": pa.array(rows_ty),
    }))
    span = (int(hi.to_datetime64().astype("datetime64[us]").astype("int64"))
            - int(lo.to_datetime64().astype("datetime64[us]")
                  .astype("int64"))) + 600_000_000 + 2  # us span + win
    assert n_users * span >= (1 << 62)  # the guard genuinely trips
    out = r.q_events_windowed_join(str(tmp_path))
    # every user: exactly one (purchase, view) pair, 5-minute gap
    assert len(out) == n_users
    assert (out["gap_us"] == 300_000_000).all()
    assert sorted(out["user_id"]) == list(range(n_users))


def test_events_anomaly_mad_decision(ray_session, tmp_path):
    # Type A: 7 values clustered at $10.00 +/- a few cents plus one
    # wild $500.00 outlier. n=8 sorted cents C = [990..1010, 50000];
    # median interpolates between the 4th/5th values. Type B: constant
    # values → MAD = 0, so ANY deviation flags (4*dev2 > 0); the
    # constant rows themselves never flag.
    vals_a = [9.90, 9.95, 10.00, 10.00, 10.05, 10.10, 10.20, 500.00]
    vals_b = [5.00] * 6 + [5.25]
    t = pa.table({
        "event_id": pa.array(range(len(vals_a) + len(vals_b)), pa.int64()),
        "ts": pa.array(
            pd.to_datetime(["2024-01-01"] * (len(vals_a) + len(vals_b)))),
        "user_id": pa.array([1] * (len(vals_a) + len(vals_b)), pa.int64()),
        "event_type": pa.array(["A"] * len(vals_a) + ["B"] * len(vals_b)),
        "value": pa.array(vals_a + vals_b, pa.float64()),
        "props": pa.array([""] * (len(vals_a) + len(vals_b))),
    })
    out = r.q_events_anomaly(_write(tmp_path, "events", t))

    # reference: per type, exact integer modified-z decision
    df = t.to_pandas()
    df["c"] = np.round(df["value"] * 100).astype("int64")
    expect = []
    for et, g in df.groupby("event_type"):
        c = np.sort(g["c"].to_numpy())
        n = len(c)
        m2 = int(c[(n - 1) // 2]) + int(c[n // 2])
        dev2 = np.abs(2 * g["c"].to_numpy() - m2)
        sd = np.sort(dev2)
        mad4 = int(sd[(n - 1) // 2]) + int(sd[n // 2])
        expect.extend(g.loc[4 * dev2 > 7 * mad4, "event_id"].tolist())
    assert sorted(out["event_id"].tolist()) == sorted(expect)
    # the planted $500 outlier is flagged; B's lone deviant is flagged
    # (MAD=0), B's constant bulk is not
    assert 7 in out["event_id"].tolist()
    assert len(vals_a) + len(vals_b) - 1 in out["event_id"].tolist()
    assert not set(range(len(vals_a), len(vals_a) + 6)) & set(
        out["event_id"].tolist())


def test_events_assoc_rules_planted_counts(ray_session, tmp_path):
    """Planted basket: 6 users do A; 4 of them also do B; 2 do only B
    (B total = 6); 1 does C alone. With min_support=3 only A↔B
    survives. confidence(A→B) = 4/6, lift = 4·9/(6·6); duplicates of
    the same (user, type) must not inflate counts."""
    users = []
    types = []
    for u in range(6):
        users.append(u)
        types.append("A")
    for u in range(4):          # 4 of the A users also do B (twice: dup)
        users += [u, u]
        types += ["B", "B"]
    for u in (100, 101):        # B-only users
        users.append(u)
        types.append("B")
    users.append(200)           # C loner
    types.append("C")
    n = len(users)
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array(
            pd.to_datetime(["2024-01-01"] * n), pa.timestamp("us")),
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(types),
        "value": pa.array([0.0] * n, pa.float64()),
        "props": pa.array([""] * n),
    })
    d = _write(tmp_path, "events", t)
    out = r.q_events_assoc_rules(d, min_support=3)
    got = {(row.antecedent, row.consequent): row for row in out.itertuples()}
    assert set(got) == {("A", "B"), ("B", "A")}
    ab = got[("A", "B")]
    assert (ab.n_both, ab.n_ante, ab.n_cons, ab.n_users) == (4, 6, 6, 9)
    assert ab.confidence == 4.0 / 6.0
    assert ab.lift == (4.0 * 9.0) / (6.0 * 6.0)
    ba = got[("B", "A")]
    assert (ba.n_both, ba.n_ante) == (4, 6)


def test_events_resample_gap_fill(ray_session, tmp_path):
    """Resample: gaps between a user's first and last observed hour get
    n_events=0 and forward-filled cents; grids never extend past the
    span or bleed across users."""
    rows = [
        # u1: hours 0, 1, 4 observed -> grid 0..4, fill from hour 1
        (1, "2024-01-01 00:10", 1, 1.00),
        (2, "2024-01-01 00:20", 1, 2.00),
        (3, "2024-01-01 01:30", 1, 5.00),
        (4, "2024-01-01 04:05", 1, 7.00),
        # u2: single hour -> one grid row, no fill needed
        (5, "2024-01-02 10:00", 2, 9.00),
    ]
    t = pa.table({
        "event_id": pa.array([x[0] for x in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([x[1] for x in rows]),
                       pa.timestamp("us")),
        "user_id": pa.array([x[2] for x in rows], pa.int64()),
        "event_type": pa.array(["e"] * len(rows)),
        "value": pa.array([x[3] for x in rows], pa.float64()),
        "props": pa.array([""] * len(rows)),
    })
    out = r.q_events_resample(_write(tmp_path, "events", t))
    assert len(out) == 6  # u1 hours 0..4, u2 one row
    u1 = out[out["user_id"] == 1].reset_index(drop=True)
    assert u1["n_events"].tolist() == [2, 1, 0, 0, 1]
    assert u1["filled_cents"].tolist() == [300, 500, 500, 500, 700]
    u2 = out[out["user_id"] == 2].reset_index(drop=True)
    assert u2["n_events"].tolist() == [1]
    assert u2["filled_cents"].tolist() == [900]


def test_embeddings_nearest_centroid_planted_and_ties(ray_session, tmp_path):
    """Nearest-centroid classification: odd vec_ids classify to the
    closest even-trained centroid; equidistant vectors break ties to
    the SMALLER label; identical at 1 and 4 blocks."""
    # even ids (training): label 1 clusters at (0, 0); label 2 at (4, 4)
    emb = [
        [0.0, 0.0], [0.25, -0.25],        # ids 0, 2  -> label 1
        [4.0, 4.0], [3.75, 4.25],         # ids 4, 6  -> label 2
        # odd ids (to classify):
        [0.5, 0.5],                       # id 1 -> near label 1
        [4.5, 3.5],                       # id 3 -> near label 2
        [2.0, 2.0],                       # id 5 -> EXACTLY equidistant
        # (bisector of centroids (0.125, -0.125) and (3.875, 4.125):
        #  2x^2 + 0.03125 == 2x^2 - 16x + 32.03125  =>  x = 2.0)
    ]
    t = pa.table({
        "vec_id": pa.array([0, 2, 4, 6, 1, 3, 5], pa.int64()),
        "embedding": pa.array(emb, pa.list_(pa.float32())),
        "label": pa.array([1, 1, 2, 2, 9, 9, 9], pa.int32()),
    })
    sf = _write(tmp_path, "embeddings", t)
    for parts in (1, 4):
        import ray.data  # noqa: F401  (parallelism via the query's read)
        out = r.q_embeddings_nearest_centroid(sf)
        got = dict(zip(out["vec_id"], out["pred_label"]))
        assert got == {1: 1, 3: 2, 5: 1}, got  # tie at id 5 -> label 1


def test_events_drawdown_peak_trough(ray_session, tmp_path):
    """Drawdown is peak-to-CURRENT, not global max-min: a new high
    resets the peak; drops before a peak don't count against it."""
    ts = pd.to_datetime([
        "2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04",
        "2024-01-05",
        "2024-01-01", "2024-01-02",
    ])
    _write(tmp_path, "events", pa.table({
        "user_id": pa.array([1, 1, 1, 1, 1, 2, 2], pa.int64()),
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        # u1: 10 -> 4 (dd 6) -> 12 (new peak) -> 11 (dd 1) -> 3 (dd 9)
        # u2: monotone rise -> drawdown 0
        "value": pa.array([10.0, 4.0, 12.0, 11.0, 3.0, 1.0, 2.0]),
    }))
    out = r.q_events_drawdown(str(tmp_path))
    got = {int(u): (dd, pk) for u, dd, pk in zip(
        out["user_id"], out["max_drawdown"], out["peak_value"])}
    assert got == {1: (9.0, 12.0), 2: (0.0, 2.0)}


def test_embeddings_auc_ties_and_parallelism(ray_session, tmp_path):
    """AUC: perfect separation -> 1.0; ties get half credit; the
    bucketed rank statistics are invariant to block layout."""
    import pyarrow.parquet as _pq

    # scores: pos {0.9, 0.8}, neg {0.1, 0.2} -> AUC 1.0
    t = pa.table({
        "embedding": pa.array([[0.9], [0.8], [0.1], [0.2]],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 0, 1, 2], pa.int64()),
    })
    _write(tmp_path, "embeddings", t)
    out = r.q_embeddings_auc(str(tmp_path))
    assert float(out["auc"].iloc[0]) == 1.0
    assert (int(out["n_pos"].iloc[0]), int(out["n_neg"].iloc[0])) == (2, 2)

    # all-tied scores -> AUC exactly 0.5 regardless of labels
    t2 = pa.table({
        "embedding": pa.array([[0.5]] * 6, pa.list_(pa.float32())),
        "label": pa.array([0, 0, 1, 2, 3, 4], pa.int64()),
    })
    _write(tmp_path, "embeddings", t2)
    assert float(r.q_embeddings_auc(str(tmp_path))["auc"].iloc[0]) == 0.5

    # layout invariance: one row group vs many must agree bitwise
    rng = np.random.default_rng(7)
    scores = rng.normal(size=400).astype(np.float32)
    labels = rng.integers(0, 4, size=400)
    big = pa.table({
        "embedding": pa.array([[float(s)] for s in scores],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int64()),
    })
    _write(tmp_path, "embeddings", big)
    a = r.q_embeddings_auc(str(tmp_path))
    _pq.write_table(big, str(tmp_path / "embeddings.parquet"),
                    row_group_size=13)
    b = r.q_embeddings_auc(str(tmp_path))
    assert float(a["auc"].iloc[0]) == float(b["auc"].iloc[0])


def test_part_brand_itemsets_distinct_and_order(ray_session, tmp_path):
    """Triples count DISTINCT (order, brand) baskets: duplicate
    lineitems of one brand in an order count once; orders with <3
    distinct brands contribute nothing; triples come out sorted."""
    _write(tmp_path, "part", pa.table({
        "p_partkey": pa.array([1, 2, 3, 4], pa.int64()),
        "p_brand": pa.array(["B#1", "B#2", "B#3", "B#4"]),
    }))
    # order 10: brands 1,2,3 (brand 1 twice) -> one triple
    # order 11: brands 1,2,3,4 -> C(4,3)=4 triples
    # order 12: brands 1,2 -> nothing
    _write(tmp_path, "lineitem", pa.table({
        "l_orderkey": pa.array([10, 10, 10, 10, 11, 11, 11, 11, 12, 12],
                               pa.int64()),
        "l_partkey": pa.array([1, 1, 2, 3, 1, 2, 3, 4, 1, 2],
                              pa.int64()),
    }))
    out = r.q_part_brand_itemsets(str(tmp_path), min_support=1)
    got = {(b1, b2, b3): int(s) for b1, b2, b3, s in zip(
        out["b1"], out["b2"], out["b3"], out["support"])}
    assert got == {
        ("B#1", "B#2", "B#3"): 2,
        ("B#1", "B#2", "B#4"): 1,
        ("B#1", "B#3", "B#4"): 1,
        ("B#2", "B#3", "B#4"): 1,
    }
    # support-desc, then lexicographic
    assert list(out["support"]) == sorted(out["support"], reverse=True)
    # threshold prunes
    out2 = r.q_part_brand_itemsets(str(tmp_path), min_support=2)
    assert len(out2) == 1


def test_docs_char_entropy_classes_and_uniform(ray_session, tmp_path):
    """Class counts are exact; a source with all four classes equally
    represented scores ln(4); a one-class source scores 0."""
    import math

    _write(tmp_path, "documents", pa.table({
        "source": pa.array(["u", "u", "z"]),
        # source u: "ab12", " \t@#" -> alpha 2, digit 2, ws 2, other 2
        "text": pa.array(["ab12", " \t@#", "aaaa"]),
    }))
    out = r.q_docs_char_entropy(str(tmp_path))
    u = out[out["source"] == "u"].iloc[0]
    assert (int(u["c_alpha"]), int(u["c_digit"]),
            int(u["c_ws"]), int(u["c_other"])) == (2, 2, 2, 2)
    # the FIXED-ORDER expression (what the oracle mirrors); it sits
    # within 1 ulp of the analytic ln(4)
    expect = math.log(8.0) - (4 * (2.0 * math.log(2.0))) / 8.0
    assert float(u["entropy"]) == expect
    assert abs(float(u["entropy"]) - math.log(4.0)) < 1e-12
    z = out[out["source"] == "z"].iloc[0]
    assert float(z["entropy"]) == 0.0


def test_events_cusum_reset_semantics(ray_session, tmp_path):
    """CUSUM resets at zero: a deep dip before the drift must not
    offset later accumulation (max(0,·) recursion == the closed
    form); flags fire only while S exceeds h."""
    ts = pd.to_datetime([f"2024-01-{d:02d}" for d in range(1, 7)])
    # k=100 cents, h=150: d = x-100 in cents
    # x: 0.50 (d=-50, S=0), 2.00 (d=100, S=100), 2.00 (S=200 FLAG),
    #    0.10 (d=-90, S=110), 2.00 (S=210 FLAG), 0.01 (S=111)
    _write(tmp_path, "events", pa.table({
        "user_id": pa.array([1] * 6, pa.int64()),
        "event_id": pa.array(list(range(1, 7)), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array([0.50, 2.00, 2.00, 0.10, 2.00, 0.01]),
    }))
    out = r.q_events_cusum(str(tmp_path), k_cents=100, h_cents=150)
    assert list(out["event_id"]) == [3, 5]
    assert list(out["sv"]) == [200, 210]
    # without the reset (plain cumsum - k), event 4's dip at S=110
    # would have been 60 under a no-floor chart; the flags prove the
    # floor: S after the dip restarts from 110, not from 60


def test_events_seasonal_naive_date_join(ray_session, tmp_path):
    """Forecast joins by DATE-7, not by row position: missing days
    leave gaps (no forecast row), and errors are exact cents."""
    days = ["2024-01-01", "2024-01-08", "2024-01-09", "2024-01-15"]
    _write(tmp_path, "events", pa.table({
        "ts": pa.array(pd.to_datetime(days), pa.timestamp("us")),
        "value": pa.array([10.00, 12.50, 3.00, 9.25]),
    }))
    out = r.q_events_seasonal_naive(str(tmp_path))
    got = {str(d.date()): (a, f, e) for d, a, f, e in zip(
        out["day"], out["actual"], out["forecast"], out["abs_err"])}
    # 01-08 <- 01-01: |12.50-10.00| = 2.50
    # 01-15 <- 01-08: |9.25-12.50| = 3.25
    # 01-09 has no 01-02 reference -> no row
    assert got == {"2024-01-08": (12.5, 10.0, 2.5),
                   "2024-01-15": (9.25, 12.5, 3.25)}
