#!/usr/bin/env python3
"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload turns_short --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed, starts a host-safe Ray
session, warms it up (timed as ``setup_s``), then either measures the
workload for ``--seconds`` (``--trace 0``: end-to-end metrics) or runs
the traced per-layer split (``--trace 1``). Every output is checked.
Human-readable lines come first; the last line of stdout is the JSON
result. Exit codes: 0 done, 2 program or inputs missing, 3 watchdog
(stall), 4 a traced entry point got no calls.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbw")
sys.path[:0] = [HERE]

import checks  # noqa: E402
import host  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

N_BUCKETS = 16
MIN_REPS = 3
TIMEOUT_S = 150
# join_shuffle runs two hash_join exchanges and raw groupby exchanges,
# events_late_arrivals a bucket_group_map exchange. part_item_sim uses
# the same layers as join_shuffle at 3-4 s a call, and docs_canonical
# takes about 10 s a call plus 11 s for its oracle: both are left out to
# keep a run short.
QUERIES = ("join_shuffle", "events_late_arrivals")
# tables each query reads, for rows_per_s on exchange_queries
QUERY_TABLES = {
    "join_shuffle": ("customer", "orders", "lineitem"),
    "events_late_arrivals": ("events",),
}
END_TO_END = {"pass_s": "s", "rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Outcome:
    """Checks accumulated over a run: attempted, failed and examples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, check: tuple[int, int, list]) -> None:
        attempted, failed, problems = check
        self.attempted += attempted
        self.failed += failed
        self.problems = (self.problems + problems)[:checks.MAX_PROBLEMS]


def _reps(seconds: float, one_rep) -> list:
    """Run ``one_rep`` until ``seconds`` of it have elapsed, at least
    MIN_REPS times; returns its results."""
    out, spent = [], 0.0
    while spent < seconds or len(out) < MIN_REPS:
        t0 = time.perf_counter()
        out.append(one_rep(len(out)))
        spent += time.perf_counter() - t0
    return out


class Flagship:
    """turns_short, pages_long and skew_resume: ``run_extract_pipeline``
    through Ray, every output checked against in-process extraction."""

    def __init__(self, workload: str, input_dir: str, seed: int):
        from htmlparsersharp_ray.pipelines.extract_pipeline import DEFAULT_SALT_CAP

        self.workload = workload
        self.input_dir = input_dir
        self.seed = seed
        self.out_dir = os.path.join(WORK, "out", workload)
        self.salt_cap = inputs.SKEW_SALT_CAP if workload == "skew_resume" else DEFAULT_SALT_CAP
        self.outcome = Outcome()

    def _pipeline(self, input_dir: str, out_dir: str, resume: bool) -> float:
        from htmlparsersharp_ray.pipelines.extract_pipeline import run_extract_pipeline

        if not resume:
            shutil.rmtree(out_dir, ignore_errors=True)
        host.settle()
        t0 = time.perf_counter()
        run_extract_pipeline(input_dir, out_dir, n_buckets=N_BUCKETS, salt_cap=self.salt_cap,
                             concurrency=host.POOL, resume=resume)
        return time.perf_counter() - t0

    def _run(self, resume: bool) -> float:
        return self._pipeline(self.input_dir, self.out_dir, resume)

    def warm_up(self) -> None:
        self._pipeline(inputs.ensure_inputs(WORK, "warmup", 0),
                       os.path.join(WORK, "out", "warmup"), resume=False)

    def prepare(self) -> None:
        """Inputs and the in-process reference, outside every timing."""
        table = checks.read_inputs(self.input_dir)
        self.turns = table.num_rows
        self.html_bytes = sum(len(t.encode()) for t in table.column("text").to_pylist())
        self.ref = checks.reference(table)

    def _check(self) -> None:
        self.outcome.add(checks.check_extract(self.out_dir, self.ref))

    def _delete_set(self, recs: dict, rep: int) -> list[int]:
        """The largest bucket plus seeded others: half of the buckets."""
        import numpy as np

        largest = max(recs, key=lambda b: (recs[b]["rows"], -b))
        others = sorted(set(recs) - {largest})
        rng = np.random.default_rng([self.seed, rep])
        return [largest] + sorted(int(b) for b in rng.choice(others, len(recs) // 2 - 1,
                                                             replace=False))

    def _resume_cycle(self, cold: dict, rep: int) -> float:
        for b in self._delete_set(cold, rep):
            shutil.rmtree(os.path.join(self.out_dir, f"bucket={b:04d}"))
            os.remove(os.path.join(self.out_dir, "_lineage", f"bucket-{b:04d}.json"))
        wall = self._run(resume=True)
        self.outcome.add(checks.check_resume(cold, checks.lineage_records(self.out_dir)))
        self._check()
        return wall

    def measure(self, seconds: float) -> tuple[dict, dict]:
        if self.workload == "skew_resume":
            # one cold pass, then the measured resume passes, each after
            # deleting another seeded bucket set
            cold_s = self._run(resume=False)
            self._check()
            cold = checks.lineage_records(self.out_dir)
            walls = _reps(seconds, lambda rep: self._resume_cycle(cold, rep))
            print(f"{self.workload} cold pass wall: {cold_s:.3f} s; resume pass walls: "
                  f"{[round(t, 3) for t in walls]}")
            resume_s = statistics.median(walls)
            named = {"turns_per_s": (self.turns / cold_s, "turns/s (cold pass)", 1),
                     "resume_s": (resume_s, "s", len(walls))}
            return {"pass_s": resume_s, "rows_per_s": self.turns / resume_s}, named

        def one_rep(rep: int) -> float:
            wall = self._run(resume=False)
            self._check()
            return wall

        walls = _reps(seconds, one_rep)
        print(f"{self.workload} pass walls: {[round(t, 3) for t in walls]}")
        wall = statistics.median(walls)
        named = {"turns_per_s": (self.turns / wall, "turns/s", len(walls)),
                 "html_mb_per_s": (self.html_bytes / 1e6 / wall, "MB/s", len(walls))}
        return {"pass_s": wall, "rows_per_s": self.turns / wall}, named

    def traced(self) -> tuple[dict, dict]:
        ray_wall = self._run(resume=False)
        self._check()
        skip = None
        if self.workload == "skew_resume":
            skip = self._delete_set(checks.lineage_records(self.out_dir), 0)
        out_dir = os.path.join(WORK, "out", self.workload + "-traced")
        metrics, tracer, info = layers.flagship_layers(
            self.input_dir, out_dir, self.salt_cap, ray_wall, resume_skip=skip)
        self.outcome.add(checks.check_extract(out_dir, self.ref))
        tracer.dump(os.path.join(WORK, f"spans-{self.workload}-s{self.seed}.json"))
        return metrics, info


class Exchange:
    """exchange_queries: the queries through ``__ray_entry__.queries()``,
    each materialised and checked against its ``oracle_sql()``."""

    def __init__(self, workload: str, input_dir: str, seed: int):
        self.tables = input_dir
        self.outcome = Outcome()

    def warm_up(self) -> None:
        import __ray_entry__

        self.fns = __ray_entry__.queries()
        for name in QUERIES:
            self._call(name)

    def _call(self, name: str):
        from tools.check_oracle import to_pandas

        return to_pandas(self.fns[name](self.tables))

    def prepare(self) -> None:
        import duckdb
        import pyarrow.parquet as pq

        import __ray_entry__

        self.con = duckdb.connect()
        rows = {}
        for t in ("customer", "orders", "lineitem", "events"):
            path = os.path.join(self.tables, f"{t}.parquet")
            self.con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")
            rows[t] = pq.ParquetFile(path).metadata.num_rows
        sql = __ray_entry__.oracle_sql()
        self.oracle = {q: self.con.sql(sql[q]).df() for q in QUERIES}
        self.rows_per_round = sum(rows[t] for q in QUERIES for t in QUERY_TABLES[q])

    def measure(self, seconds: float) -> tuple[dict, dict]:
        def one_rep(rep: int):
            times = {}
            for name in QUERIES:
                host.settle()
                t0 = time.perf_counter()
                got = self._call(name)
                times[name] = time.perf_counter() - t0
                self.outcome.add(checks.check_query(name, got, self.oracle[name]))
            return times

        reps = _reps(seconds, one_rep)
        print(f"exchange_queries round walls: {[round(sum(r.values()), 3) for r in reps]}")
        round_s = statistics.median(sum(r.values()) for r in reps)
        named = {f"query_s.{q}": (statistics.median(r[q] for r in reps), "s", len(reps))
                 for q in QUERIES}
        return {"pass_s": round_s, "rows_per_s": self.rows_per_round / round_s}, named

    def traced(self) -> tuple[dict, dict]:
        metrics, failed, problems = layers.exchange_layers(self.tables, self.con)
        self.outcome.add((2, failed, problems))
        return metrics, {}


WORKLOADS = {
    "turns_short": Flagship,
    "pages_long": Flagship,
    "skew_resume": Flagship,
    "exchange_queries": Exchange,
}


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "htmlparsersharp_ray", "__init__.py")):
        print(f"program not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    input_dir = inputs.ensure_inputs(WORK, args.workload, args.seed)
    inputs.ensure_inputs(WORK, "warmup", 0)
    wl = WORKLOADS[args.workload](args.workload, input_dir, args.seed)
    # expected outputs first: the measured passes follow the warm-up
    # directly, before Ray retires the idle workers it started
    wl.prepare()
    try:
        t0 = time.perf_counter()
        with host.Session(ROOT, WORK, TIMEOUT_S):
            wl.warm_up()
            setup_s = time.perf_counter() - t0
            if args.trace:
                metrics, info = wl.traced()
                named = {}
            else:
                with host.RssSampler() as rss:
                    metrics, named = wl.measure(args.seconds)
                metrics["setup_s"] = setup_s
                metrics["peak_rss_mb"] = rss.peak_mb
    except KeyboardInterrupt:
        print("run stopped by the watchdog: counted as failed", file=sys.stderr)
        return host.WATCHDOG_EXIT
    except layers.TraceError as e:
        print(f"traced run failed: {e}", file=sys.stderr)
        return 4

    out = wl.outcome
    units = layers.PER_LAYER if args.trace else END_TO_END
    for name, (value, unit, n) in named.items():
        print(f"{args.workload} {name} = {_fmt(value)} {unit} (median of {n})")
    if args.trace:
        for k, v in info.items():
            print(f"{args.workload} {k} = {_fmt(v)} s")
    for name in units:
        print(f"{args.workload} {name} = {_fmt(metrics[name])} {units[name]}")
    print(f"{args.workload} failed_share = {_fmt(out.failed / max(1, out.attempted))} ratio "
          f"({out.failed} of {out.attempted})")
    for p in out.problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
