"""Output checks. None of them depends on the bucket layout or on a
pinned digest: every expected value is recomputed from the run's own
inputs, in process, by the program's public entry points.

Each check returns ``(attempted, failed, problems)``: ``attempted`` is the
number of turns or queries checked, ``failed`` how many of them had
missing or wrong output, and ``problems`` a few human-readable examples.
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]
VALUE_COLUMNS = ["extracted_text", "doc_mode", "spans", "metrics"]
MAX_PROBLEMS = 5


def read_inputs(input_dir: str) -> pa.Table:
    from htmlparsersharp_ray.pipelines.extract_pipeline import READ_COLUMNS

    return pq.read_table(input_dir, columns=READ_COLUMNS)


def reference(inputs: pa.Table) -> pa.Table:
    """In-process ``HtmlExtractUDF`` over every input turn, sorted by key.
    Turns above the feed threshold go through ``parse_chunked`` here as
    they do in the pipeline, so the feed path is covered."""
    from htmlparsersharp_ray.stages.parse_stage import HtmlExtractUDF

    return HtmlExtractUDF()(inputs).sort_by(KEYS)


def _rows(table: pa.Table) -> dict:
    """(conv_id, turn_idx) -> list of value tuples, one per occurrence."""
    out: dict = {}
    cols = [table.column(c).to_pylist() for c in ["conv_id", "turn_idx"] + VALUE_COLUMNS]
    for row in zip(*cols):
        out.setdefault(row[:2], []).append(row[2:])
    return out


def _is_sorted(table: pa.Table) -> bool:
    if table.num_rows < 2:
        return True
    convs = table.column("conv_id")
    turns = table.column("turn_idx")
    c0, c1 = convs.slice(0, table.num_rows - 1), convs.slice(1)
    t0, t1 = turns.slice(0, table.num_rows - 1), turns.slice(1)
    ok = pc.or_(pc.less(c0, c1), pc.and_(pc.equal(c0, c1), pc.less(t0, t1)))
    return bool(pc.all(ok).as_py())


def read_buckets(out_dir: str) -> dict[int, pa.Table]:
    tables = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "bucket=*", "part.parquet"))):
        bucket = int(os.path.basename(os.path.dirname(path)).split("=")[1])
        tables[bucket] = pq.read_table(path)
    return tables


def check_extract(out_dir: str, ref: pa.Table) -> tuple[int, int, list]:
    """Every input turn appears exactly once across the buckets, each
    bucket is sorted by (conv_id, turn_idx), and every row equals the
    in-process reference."""
    problems = []
    buckets = read_buckets(out_dir)
    bad_keys = set()
    for bucket, table in buckets.items():
        if not _is_sorted(table):
            problems.append(f"bucket {bucket} is not sorted by (conv_id, turn_idx)")
            bad_keys.update(zip(table.column("conv_id").to_pylist(),
                                table.column("turn_idx").to_pylist()))
    out = (pa.concat_tables(buckets.values()).select(ref.column_names).sort_by(KEYS)
           if buckets else ref.slice(0, 0))
    if not bad_keys and out.num_rows == ref.num_rows and out.equals(ref):
        return ref.num_rows, 0, []
    got = _rows(out)
    for key, (want,) in _rows(ref).items():
        rows = got.pop(key, [])
        if len(rows) != 1 or rows[0] != want or key in bad_keys:
            bad_keys.add(key)
            if len(problems) < MAX_PROBLEMS:
                what = "missing" if not rows else (
                    f"{len(rows)} copies" if len(rows) > 1 else "wrong values")
                problems.append(f"turn {key}: {what}")
    for key in got:
        problems.append(f"turn {key}: not in the input")
    return ref.num_rows, len(bad_keys) + len(got), problems[:MAX_PROBLEMS]


def lineage_records(out_dir: str) -> dict[int, dict]:
    """bucket -> lineage record."""
    out = {}
    for path in glob.glob(os.path.join(out_dir, "_lineage", "bucket-*.json")):
        with open(path) as f:
            rec = json.load(f)
        out[int(rec["bucket"])] = rec
    return out


def check_resume(cold: dict[int, dict], resumed: dict[int, dict]) -> tuple[int, int, list]:
    """Every bucket's text_md5 after the resume pass equals the cold
    pass's; a mismatch counts every turn the bucket holds."""
    failed, problems = 0, []
    for bucket, rec in sorted(cold.items()):
        got = resumed.get(bucket, {}).get("text_md5")
        if got != rec["text_md5"]:
            failed += rec["rows"]
            problems.append(f"bucket {bucket}: text_md5 {got} != cold {rec['text_md5']}")
    return sum(r["rows"] for r in cold.values()), failed, problems[:MAX_PROBLEMS]


def check_query(name: str, got, want) -> tuple[int, int, list]:
    """One query result against its oracle, under the repository's own
    oracle comparison (row count, column names, dtype-exact values)."""
    from tools.check_oracle import compare

    problems = compare(name, got, want)
    return 1, int(bool(problems)), [f"{name}: {p}" for p in problems[:MAX_PROBLEMS]]
