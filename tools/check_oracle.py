"""Local stand-in for the driver's correctness gate.

Runs every queries() entry at a given sf dir, and for entries with an
oracle_sql() compares row count, column names, and values (sorted by
column name, float-tolerant) against DuckDB.

Usage: python tools/check_oracle.py [sf_dir]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(result, ray.data.Dataset):
            return result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def compare(name, ray_df, sql_df):
    import numpy as np
    import pandas as pd

    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    rc, sc = sorted(ray_df.columns), sorted(sql_df.columns)
    if rc != sc:
        problems.append(f"cols: ray={rc} sql={sc}")
        return problems
    if len(ray_df) == len(sql_df):
        a = ray_df[rc].sort_values(rc).reset_index(drop=True)
        b = sql_df[rc].sort_values(rc).reset_index(drop=True)
        for col in rc:
            av, bv = a[col], b[col]
            # DTYPE-EXACT (VERDICT r3 item 1): the driver hashes values
            # dtype-sensitively (int64 5 != float64 5.0), so a dtype
            # divergence the old float-cast compare masked IS a driver
            # hash failure.  Exception: datetime64 unit width ([us] vs
            # [ns]) — DuckDB's .df() emits [us], pandas-native engine
            # results emit [ns]; r3 driver runs hash-passed timestamp
            # queries across that split, so units compare by value.
            ak, bk = av.dtype.kind, bv.dtype.kind
            if av.dtype != bv.dtype and not (ak == "M" and bk == "M"):
                problems.append(
                    f"dtype {col}: ray={av.dtype} sql={bv.dtype}")
                continue
            if ak == "M":
                x = av.astype("datetime64[ns]")
                y = bv.astype("datetime64[ns]")
                if not ((x == y) | (x.isna() & y.isna())).all():
                    problems.append(f"col {col} differs (datetime)")
                continue
            if av.dtype.kind == "f" or bv.dtype.kind == "f":
                # BIT-exact: the driver hashes exact values, so the local
                # gate must not pass anything the driver would fail.
                x = av.astype(float).to_numpy()
                y = bv.astype(float).to_numpy()
                ok = bool(
                    ((x.view(np.int64) == y.view(np.int64))
                     | (np.isnan(x) & np.isnan(y))).all()
                )
            else:
                ok = (av.astype(str) == bv.astype(str)).all()
            if not ok:
                diff_idx = None
                try:
                    mism = (av.astype(str) != bv.astype(str))
                    diff_idx = mism.idxmax()
                except Exception:
                    pass
                problems.append(
                    f"col {col} differs (e.g. idx {diff_idx}: "
                    f"ray={av.iloc[diff_idx] if diff_idx is not None else '?'} "
                    f"sql={bv.iloc[diff_idx] if diff_idx is not None else '?'})"
                )
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2].split(",") if len(sys.argv) > 2 else None
    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    try:
        _check(sf_dir, only)
    finally:
        if owns_ray:
            ray.shutdown()


def _check(sf_dir, only):
    import duckdb

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    # spill to /tmp, never the CWD (a runaway oracle once wrote 71 GB
    # of duckdb_temp_storage into the repo's .tmp/), and cap memory so
    # a planner mis-order fails fast instead of eating the host
    con.sql("SET temp_directory='/tmp/duckdb_oracle_spill'")
    con.sql("SET memory_limit='24GB'")
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    if only:
        unknown = [n for n in only if n not in qs]
        if unknown:
            # a typo'd subset must NOT pass vacuously (this exact
            # failure shipped as `--only name` silently checking
            # nothing — the subset is positional: check_oracle.py
            # SF_DIR name1,name2)
            print(f"ERROR: unknown query names in subset: {unknown}")
            sys.exit(2)
    failed = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import gc

        gc.collect()  # reference cycles pin object-store blocks
        t0 = time.time()
        try:
            result = to_pandas(fn(sf_dir))
        except Exception as e:
            import traceback
            traceback.print_exc()
            print(f"FAIL {name}: exception {e}")
            failed.append(name)
            continue
        elapsed = time.time() - t0
        if name in oracles:
            t1 = time.time()
            sql_df = con.sql(oracles[name]).df()
            sql_s = time.time() - t1  # oracle cost is NOT in `elapsed`
            # (part_name_clusters' Levenshtein oracle at sf0.1 costs
            # ~40 min while the engine side prints 16 s — log both)
            problems = compare(name, result, sql_df)
            if problems:
                print(f"FAIL {name} ({elapsed:.1f}s, sql {sql_s:.1f}s): "
                      f"{problems}")
                failed.append(name)
            else:
                print(f"OK   {name} ({elapsed:.1f}s, sql {sql_s:.1f}s): "
                      f"{len(result)} rows match oracle")
        else:
            print(f"ROWS {name} ({elapsed:.1f}s): {len(result)} rows (no oracle)")
    if failed:
        print("FAILED:", failed)
        sys.exit(1)
    print("all queries passed")


if __name__ == "__main__":
    main()
