"""CLI entry point — the `ray job submit` surface of the engine.

    python -m htmlparsersharp_ray extract --input DIR --output DIR \
        [--n-buckets 64] [--salt-cap 10000] [--concurrency N] \
        [--batch-size 512] [--no-resume] [--num-cpus N]

    python -m htmlparsersharp_ray synth --turns 100000 --output DIR

CLI scripts OWN their Ray session (init + shutdown); library code never
does (driver contract, CLAUDE.md).
"""

from __future__ import annotations

import argparse
import json
import sys


def _timing_stats(times):
    total = sum(times)
    rest = times[1:] or times
    return {
        "total_ms": round(total * 1000, 2),
        "first_ms": round(times[0] * 1000, 2),
        "average_ms": round(total / len(times) * 1000, 2),
        "average_without_first_ms": round(sum(rest) / len(rest) * 1000, 2),
        "min_ms": round(min(times) * 1000, 2),
        "max_ms": round(max(times) * 1000, 2),
    }


def _bench(args):
    """Reference Program.cs parity (Program.cs:39-96): parse the file
    ``--repeat`` times with one shared parser path, report wall-clock
    stats, save the serialized document, then benchmark re-parsing the
    serialized output the same way (the reference's XDocument.Load
    comparison pass). Pure single-process — no Ray session."""
    import time

    from .html import parse, serialize_html

    with open(args.file, encoding="utf-8", errors="replace") as f:
        text = f.read()
    times = []
    result = None
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        result = parse(text)
        times.append(time.perf_counter() - t0)
    html_out = serialize_html(result.root)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            f.write(html_out)
    re_times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        parse(html_out)
        re_times.append(time.perf_counter() - t0)
    print(json.dumps({
        "file": args.file,
        "bytes": len(text.encode("utf-8")),
        "repeat": args.repeat,
        "parse": _timing_stats(times),
        "reparse_serialized": _timing_stats(re_times),
        "tokens": result.tokens,
        "errors": result.errors,
        "doc_mode": result.doc_mode,
    }))
    return 0


def _query(args):
    """Run a named driver-contract query (the `queries()` registry in
    __ray_entry__.py) from the command line — the ad-hoc surface a user
    of the engine reaches for before scripting a pipeline. CLI owns the
    Ray session; the registry callables never do."""
    import os
    import time

    # same loading mechanism as tools/check_oracle.py — one path for the
    # driver-contract module everywhere
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    import __ray_entry__ as mod

    qs = mod.queries()
    oracles = mod.oracle_sql()
    if args.list or not args.name:
        for name in qs:
            print(f"{name}\t{'oracle' if name in oracles else 'rows-only'}")
        return 0
    if args.name not in qs:
        print(f"unknown query {args.name!r}; use --list", file=sys.stderr)
        return 2

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=args.num_cpus or os.cpu_count(),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    try:
        import pyarrow as pa

        t0 = time.time()
        result = qs[args.name](args.sf_dir)
        if not isinstance(result, pa.Table) and hasattr(result, "to_pandas"):
            result = result.to_pandas()  # Ray Dataset → pandas
        elapsed = time.time() - t0
        is_table = isinstance(result, pa.Table)
        if args.output:
            import pyarrow.parquet as pq

            table = (result if is_table
                     else pa.Table.from_pandas(result, preserve_index=False))
            pq.write_table(table, args.output)
        print(json.dumps({
            "query": args.name,
            "sf_dir": args.sf_dir,
            "rows": int(result.num_rows if is_table else len(result)),
            "columns": [str(c) for c in
                        (result.column_names if is_table else result.columns)],
            "seconds": round(elapsed, 3),
            "output": args.output,
        }))
    finally:
        ray.shutdown()
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="htmlparsersharp_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_ext = sub.add_parser("extract", help="run the flagship extraction pipeline")
    p_ext.add_argument("--input", required=True)
    p_ext.add_argument("--output", required=True)
    p_ext.add_argument("--n-buckets", type=int, default=64)
    p_ext.add_argument("--salt-cap", type=int, default=10_000)
    p_ext.add_argument("--concurrency", type=int, default=None,
                       help="at most N parse tasks at once (default: Ray "
                            "Data sizes the stage)")
    p_ext.add_argument("--batch-size", type=int, default=512)
    p_ext.add_argument("--no-resume", action="store_true")
    p_ext.add_argument("--format", default="parquet",
                       choices=["parquet", "csv", "jsonl", "html"],
                       help="input source format (sources/formats.py)")
    p_ext.add_argument("--num-cpus", type=int, default=None)

    p_syn = sub.add_parser("synth", help="generate a synthetic transcript table")
    p_syn.add_argument("--turns", type=int, required=True)
    p_syn.add_argument("--output", required=True)
    p_syn.add_argument("--seed", type=int, default=42)

    p_b = sub.add_parser(
        "bench",
        help="single-parser micro-benchmark (parity with the reference's "
             "Program.cs: N repeated parses of one file, Total/First/"
             "Average/Average-without-first/Min/Max, plus a re-parse of "
             "the serialized output as the comparison pass)",
    )
    p_b.add_argument("--file", required=True, help="HTML file to parse")
    p_b.add_argument("--repeat", type=int, default=10)
    p_b.add_argument("--save", default=None,
                     help="write the serialized HTML here (reference: doc.Save)")

    p_q = sub.add_parser(
        "query",
        help="run a named driver-contract query over an sf dir "
             "(--list to enumerate; --output to save parquet)",
    )
    p_q.add_argument("name", nargs="?", default=None)
    p_q.add_argument("--list", action="store_true")
    p_q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    p_q.add_argument("--output", default=None)
    p_q.add_argument("--num-cpus", type=int, default=None)

    args = parser.parse_args(argv)

    if args.cmd == "bench":
        return _bench(args)

    if args.cmd == "query":
        return _query(args)

    if args.cmd == "synth":
        from .sources.transcripts import generate_transcripts

        out = generate_transcripts(args.turns, args.output, seed=args.seed)
        print(json.dumps({"output": out, "turns": args.turns}))
        return 0

    import os

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus or os.cpu_count(),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    try:
        from .pipelines.extract_pipeline import run_extract_pipeline

        manifest = run_extract_pipeline(
            args.input,
            args.output,
            n_buckets=args.n_buckets,
            salt_cap=args.salt_cap,
            concurrency=args.concurrency,
            batch_size=args.batch_size,
            resume=not args.no_resume,
            input_format=args.format,
        )
        print(
            json.dumps(
                {
                    "buckets_written": int(len(manifest)),
                    "rows": int(manifest["rows"].sum()) if len(manifest) else 0,
                    "output": args.output,
                }
            )
        )
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
