"""Tests of the benchmark's own output checks (no Ray needed):

    python3 -m pytest perfbench/test_checks.py -q

A corrupted row, a dropped row, an unsorted bucket, a resume digest
mismatch and a wrong query value must each count as failed.
"""

from __future__ import annotations

import os
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
from htmlparsersharp_ray.state import lineage  # noqa: E402


@pytest.fixture(scope="module")
def ref(tmp_path_factory):
    d = tmp_path_factory.mktemp("in")
    inputs.gen_turns(str(d), seed=7, skewed=False, n_turns=40)
    return checks.reference(checks.read_inputs(str(d)))


def _write(out_dir, table: pa.Table, n_buckets: int = 2) -> None:
    """Split ``table`` over buckets by row parity, each bucket sorted."""
    for b in range(n_buckets):
        part = table.filter(pa.array([i % n_buckets == b for i in range(table.num_rows)]))
        lineage.write_bucket_parquet(str(out_dir), b, part.sort_by(checks.KEYS))


def _share(check) -> float:
    attempted, failed, _ = check
    return failed / attempted


def test_clean_output_passes(ref, tmp_path):
    _write(tmp_path, ref)
    assert checks.check_extract(str(tmp_path), ref) == (ref.num_rows, 0, [])


def test_corrupted_row_fails(ref, tmp_path):
    texts = ref.column("extracted_text").to_pylist()
    texts[3] = texts[3] + " corrupted"
    bad = ref.set_column(ref.column_names.index("extracted_text"), "extracted_text",
                         pa.array(texts, pa.string()))
    _write(tmp_path, bad)
    attempted, failed, problems = checks.check_extract(str(tmp_path), ref)
    assert failed == 1 and _share((attempted, failed, problems)) > 0
    assert "wrong values" in problems[0]


def test_dropped_row_fails(ref, tmp_path):
    _write(tmp_path, pa.concat_tables([ref.slice(0, 5), ref.slice(6)]))
    attempted, failed, problems = checks.check_extract(str(tmp_path), ref)
    assert failed == 1 and "missing" in problems[0]


def test_duplicated_row_fails(ref, tmp_path):
    _write(tmp_path, pa.concat_tables([ref, ref.slice(2, 1)]), n_buckets=1)
    assert checks.check_extract(str(tmp_path), ref)[1] >= 1


def test_unsorted_bucket_fails(ref, tmp_path):
    lineage.write_bucket_parquet(str(tmp_path), 0, ref.take(pc.sort_indices(
        ref, sort_keys=[("turn_idx", "descending")])))
    assert _share(checks.check_extract(str(tmp_path), ref)) > 0


def test_resume_digest_mismatch_fails():
    cold = {0: {"rows": 10, "text_md5": "a"}, 1: {"rows": 5, "text_md5": "b"}}
    assert checks.check_resume(cold, cold)[1] == 0
    resumed = {0: {"rows": 10, "text_md5": "a"}, 1: {"rows": 5, "text_md5": "x"}}
    assert checks.check_resume(cold, resumed)[:2] == (15, 5)


def test_wrong_query_value_fails():
    want = pd.DataFrame({"k": [1, 2, 3], "v": [1.5, 2.5, 3.5]})
    assert checks.check_query("q", want.copy(), want) == (1, 0, [])
    got = want.copy()
    got.loc[1, "v"] = 2.75
    attempted, failed, problems = checks.check_query("q", got, want)
    assert failed / attempted > 0 and "col v differs" in problems[0]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    import json

    import layers
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
