"""Source-format coverage (sources/formats.py): CSV / JSONL / raw-HTML
directory readers must yield the SAME logical table (and the same
extraction output) as the canonical Parquet path."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from htmlparsersharp_ray.sources.formats import (
    TRANSCRIPT_SCHEMA,
    read_html_dir,
    read_transcripts_csv,
    read_transcripts_jsonl,
    read_transcripts_jsonl_gz,
    write_html_dir,
    write_transcripts_csv,
    write_transcripts_jsonl,
)
from htmlparsersharp_ray.sources.transcripts import transcripts_for_sf


@pytest.fixture(scope="module")
def sample_table():
    """A small but adversarial slice of the canonical corpus: includes
    commas, quotes, newlines (<pre>), and multi-KB documents."""
    tdir = transcripts_for_sf("/root/testdata/sf0.001")
    files = sorted(glob.glob(os.path.join(tdir, "*.parquet")))
    t = pq.read_table(files[0])
    return t.slice(0, 400)


def _sorted_df(table: pa.Table):
    return (table.to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True))


class TestCsvRoundTrip:
    def test_table_equality(self, ray_session, sample_table, tmp_path):
        write_transcripts_csv(sample_table, str(tmp_path / "csv"))
        ds = read_transcripts_csv(str(tmp_path / "csv"))
        got = pa.Table.from_pandas(
            _sorted_df(pa.table(ds.to_pandas())), schema=TRANSCRIPT_SCHEMA)
        want = pa.Table.from_pandas(
            _sorted_df(sample_table), schema=TRANSCRIPT_SCHEMA)
        assert got.equals(want)

    def test_schema_is_canonical(self, ray_session, sample_table, tmp_path):
        write_transcripts_csv(sample_table, str(tmp_path / "csv"))
        ds = read_transcripts_csv(str(tmp_path / "csv"))
        schema = ds.schema()
        assert schema.names == [f.name for f in TRANSCRIPT_SCHEMA]
        assert list(schema.types) == [f.type for f in TRANSCRIPT_SCHEMA]

    def test_empty_tool_stays_empty_string(self, ray_session, tmp_path):
        t = pa.table({
            "conv_id": ["c"], "turn_idx": pa.array([0], pa.int32()),
            "role": ["user"], "text": ["<p>a,b\n\"q\"</p>"], "tool": [""],
            "ts": pa.array([1_700_000_000_000_000], pa.timestamp("us")),
        })
        write_transcripts_csv(t, str(tmp_path / "csv"), n_files=1)
        df = read_transcripts_csv(str(tmp_path / "csv")).to_pandas()
        assert df["tool"].tolist() == [""]
        assert df["text"].tolist() == ['<p>a,b\n"q"</p>']


class TestJsonlRoundTrip:
    def test_table_equality(self, ray_session, sample_table, tmp_path):
        write_transcripts_jsonl(sample_table, str(tmp_path / "jsonl"))
        ds = read_transcripts_jsonl(str(tmp_path / "jsonl"))
        got = pa.Table.from_pandas(
            _sorted_df(pa.table(ds.to_pandas())), schema=TRANSCRIPT_SCHEMA)
        want = pa.Table.from_pandas(
            _sorted_df(sample_table), schema=TRANSCRIPT_SCHEMA)
        assert got.equals(want)

    def test_non_ascii_payload(self, ray_session, tmp_path):
        t = pa.table({
            "conv_id": ["c"], "turn_idx": pa.array([3], pa.int32()),
            "role": ["assistant"], "text": ["<p>café — 日本語 &amp; x</p>"],
            "tool": ["search"],
            "ts": pa.array([1_700_000_001_500_000], pa.timestamp("us")),
        })
        write_transcripts_jsonl(t, str(tmp_path / "jsonl"), n_files=1)
        df = read_transcripts_jsonl(str(tmp_path / "jsonl")).to_pandas()
        assert df["text"].tolist() == ["<p>café — 日本語 &amp; x</p>"]
        assert df["ts"].astype("int64").tolist() == [1_700_000_001_500_000]


class TestHtmlDir:
    def test_one_row_per_file(self, ray_session, sample_table, tmp_path):
        write_html_dir(sample_table.slice(0, 50), str(tmp_path / "html"))
        ds = read_html_dir(str(tmp_path / "html"))
        df = ds.to_pandas().sort_values("conv_id").reset_index(drop=True)
        assert len(df) == 50
        assert (df["turn_idx"] == 0).all()
        # text round-trips byte-for-byte
        src = sample_table.slice(0, 50).to_pandas()
        src["stem"] = src["conv_id"] + "-" + \
            src["turn_idx"].map(lambda i: f"{i:06d}")
        src = src.sort_values("stem").reset_index(drop=True)
        assert df["text"].tolist() == src["text"].tolist()

    def test_extraction_equality_with_parquet_path(self, ray_session,
                                                   sample_table, tmp_path):
        """Same documents through read_html_dir vs an in-memory dataset:
        identical extracted text (the source-agnostic invariant)."""
        import ray.data

        from htmlparsersharp_ray.stages.parse_stage import HtmlExtractUDF

        small = sample_table.slice(0, 40)
        write_html_dir(small, str(tmp_path / "html"))

        def run(ds):
            out = ds.map_batches(HtmlExtractUDF(), batch_format="pyarrow",
                                 batch_size=64, concurrency=2)
            return (out.to_pandas()[["conv_id", "extracted_text"]]
                    .sort_values("conv_id").reset_index(drop=True))

        via_files = run(read_html_dir(str(tmp_path / "html")))
        # mirror the file-stem conv_id for comparability
        stems = [f"{c}-{i:06d}" for c, i in
                 zip(small.column("conv_id").to_pylist(),
                     small.column("turn_idx").to_pylist())]
        mem = pa.table({
            "conv_id": pa.array(stems, pa.string()),
            "turn_idx": pa.array([0] * len(stems), pa.int32()),
            "text": small.column("text"),
        })
        via_mem = run(ray.data.from_arrow(mem))
        assert via_files.equals(via_mem)


class TestPipelineFormatEquality:
    def test_flagship_csv_equals_parquet(self, ray_session, sample_table,
                                         tmp_path):
        """The full flagship pipeline (bucketing, ordering, lineage)
        over a CSV source produces byte-identical bucket content hashes
        to the Parquet source of the same rows."""
        import pyarrow.parquet as pq

        from htmlparsersharp_ray.pipelines.extract_pipeline import (
            run_extract_pipeline)

        pq_dir = tmp_path / "pq"
        pq_dir.mkdir()
        pq.write_table(sample_table, str(pq_dir / "part-0000.parquet"))
        write_transcripts_csv(sample_table, str(tmp_path / "csv"))

        m1 = run_extract_pipeline(str(pq_dir), str(tmp_path / "out_pq"),
                                  n_buckets=8, concurrency=2,
                                  batch_size=128, resume=False)
        m2 = run_extract_pipeline(str(tmp_path / "csv"),
                                  str(tmp_path / "out_csv"),
                                  n_buckets=8, concurrency=2,
                                  batch_size=128, resume=False,
                                  input_format="csv")
        k = ["bucket", "rows", "text_md5"]
        a = m1[k].sort_values("bucket").reset_index(drop=True)
        b = m2[k].sort_values("bucket").reset_index(drop=True)
        assert a.equals(b)

    def test_unknown_format_raises(self, ray_session, tmp_path):
        from htmlparsersharp_ray.pipelines.extract_pipeline import (
            _read_transcripts)

        with pytest.raises(ValueError, match="unknown input_format"):
            _read_transcripts(str(tmp_path), "avro")


class TestTorturePayloads:
    """Adversarial text round trip for BOTH non-Parquet formats: control
    chars, CR/CRLF/LF, tab, quote storms, astral-plane unicode, BOM-at-
    content-start, empties, and multi-KB quoted blocks must survive
    write→read EXACTLY (probed 2026-08; zero tolerance)."""

    TEXTS = [
        "", "plain", 'q"uo"tes,"",commas,,', "line1\nline2", "cr\rcr",
        "crlf\r\nx", "tab\tend", "emoji 😀 astral 𝔘𝔫𝔦 \U0001F9EA",
        "nul-adjacent \x01\x1f", "<pre>a,b\n\"q\"\r\n</pre>" * 200,
        "ünïcødé ﬀ ligature   ls   ps", "trailing space ", " leading",
        "﻿BOM-start",
    ]

    @pytest.fixture()
    def torture_table(self):
        n = len(self.TEXTS)
        return pa.table({
            "conv_id": pa.array([f"c{i:03d}" for i in range(n)]),
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array(self.TEXTS),
            "tool": pa.array([""] * n),
            "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)],
                           pa.timestamp("us")),
        })

    @pytest.mark.parametrize("kind", ["csv", "jsonl", "jsonl_gz"])
    def test_exact_round_trip(self, ray_session, torture_table, tmp_path,
                              kind):
        from htmlparsersharp_ray.sources.formats import (
            write_transcripts_jsonl_gz)

        w, r = {
            "csv": (write_transcripts_csv, read_transcripts_csv),
            "jsonl": (write_transcripts_jsonl, read_transcripts_jsonl),
            "jsonl_gz": (write_transcripts_jsonl_gz,
                         read_transcripts_jsonl_gz),
        }[kind]
        w(torture_table, str(tmp_path / kind), n_files=2)
        got = (r(str(tmp_path / kind)).to_pandas()
               .sort_values("turn_idx").reset_index(drop=True))
        assert got["text"].tolist() == self.TEXTS
        assert got["ts"].astype("int64").tolist() == \
            torture_table.column("ts").cast(pa.int64()).to_pylist()
