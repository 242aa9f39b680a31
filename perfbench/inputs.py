"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same tables, byte for byte. Inputs are written under the benchmark's own
work directory, keyed by workload, seed and ``GEN_VERSION``, and a
directory counts as complete only once its ``_COMPLETE`` marker exists.
Marker and side files start with ``_`` so that ``read_parquet`` on the
directory skips them.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Bump when any generator changes what it writes, so stale inputs are
# never reused.
GEN_VERSION = 3

# Short chat turns: the per-turn fixed costs dominate.
TURNS = 10_000
TURN_CHARS = (80, 400)
MAX_CONV_TURNS = 200
WARMUP_TURNS = 256
# Skewed corpus: same text distribution and turn count, one conversation
# holds GIANT_SHARE of the turns. SKEW_SALT_CAP sits just below that
# conversation's length, as DEFAULT_SALT_CAP (10k) does for the 30%
# conversation of a 34k-turn corpus: the giant splits into one full
# salted range plus a small remainder, so one bucket stays heavy. (A
# 34k-turn corpus is too slow to repeat inside one run.)
GIANT_SHARE = 0.30
SKEW_SALT_CAP = 2_900
# Long pages: N_PAGES pages of sizes spaced geometrically over PAGE_BYTES
# (the same sizes for every seed, so the corpus size does not vary),
# plus FEED_PAGES pages above the feed threshold (1 MiB chars), the first
# of them anchor-dense.
PAGE_BYTES = (20_000, 400_000)
N_PAGES = 7
FEED_PAGES = 2
FEED_PAGE_CHARS = (1_050_000, 1_080_000)
# Exchange tables: TPC-H-shaped, sized so one round of the queries takes
# a few seconds.
N_CUSTOMER = 300
N_ORDERS = 3_000
N_PART = 400
N_EVENTS = 4_000

_WORDS = (
    "the model returns a summary of each result and the user asks for "
    "more detail about parsing markup tables lists links scripts styles "
    "entities quotes code blocks plain text tokens nodes trees buckets "
    "rows files pages articles sections footers navigation sidebars"
).split()

# One short HTML shape per parser-algorithm family; {w} takes filler words.
_TURN_SHAPES = [
    "<p>{w} &amp; {w} &notin; scope &#x2713;</p>",
    "<div id=t{n} class='msg' data-k={n} data-k=dup><span>{w}</span></div>",
    "<!DOCTYPE html><!-- turn {n} --><article>{w}</article>",
    "<html><head><title>T{n}</title><style>.c{{color:red}}</style></head><body><p>{w}</p></body></html>",
    "<script>if (a<{n}) {{ /* <script>x</script> */ }}</script><p>{w}</p>",
    "{w} naked text with <b>inline {w}</b> markup",
    "<table><tr><td>{w}</td><td>r{n}</td></tr>stray {w}</table>",
    "<p>x<b>bold {w}<p>cont</b>plain {w}",
    "<ul><li>{w}<li>{w}</ul><dl><dt>k<dd>v</dl>",
    "<form><select><option>{w}<option selected>opt{n}</select></form>",
    "<svg viewBox='0 0 10 10'><circle r='{n}'/><desc>{w}</desc></svg><p>{w}</p>",
    "<div class='unclosed {n}<p>{w}",
    "<nav><a href=/>Home</a> <a href=/a>A</a></nav><div><h1>{w}</h1><p>{w}</p></div><footer>&copy; corp</footer>",
    "<pre>{w}\n  indent {n}</pre>",
    "<div><template id=row{n}><tr><td>{w}</td></tr></template><p>{w}</p></div>",
]


def _words(rng: np.random.Generator, n: int) -> str:
    return " ".join(_WORDS[i] for i in rng.integers(0, len(_WORDS), n))


def _turn_text(rng: np.random.Generator, n: int) -> str:
    target = int(rng.integers(TURN_CHARS[0], TURN_CHARS[1] + 1))
    shape = _TURN_SHAPES[int(rng.integers(0, len(_TURN_SHAPES)))]
    text = shape.replace("{n}", str(n)).replace("{w}", _words(rng, 3))
    while len(text) < target:
        text += f" <p>{_words(rng, 8)}</p>"
    return text[:target] if len(text) > target + 40 else text


def _conversations(rng: np.random.Generator, n_turns: int,
                   giant: int) -> tuple[list, list]:
    conv_ids: list[str] = []
    turn_idxs: list[int] = []
    remaining = n_turns - giant
    conv = 0
    while remaining > 0:
        length = min(int(rng.zipf(1.5)), MAX_CONV_TURNS, remaining)
        conv_ids.extend([f"conv-{conv:06d}"] * length)
        turn_idxs.extend(range(length))
        conv += 1
        remaining -= length
    conv_ids.extend(["conv-giant"] * giant)
    turn_idxs.extend(range(giant))
    return conv_ids, turn_idxs


def _write_turns(out_dir: str, rng: np.random.Generator, conv_ids: list,
                 turn_idxs: list, texts: list, n_files: int) -> None:
    perm = rng.permutation(len(conv_ids))
    table = pa.table({
        "conv_id": pa.array([conv_ids[i] for i in perm], pa.string()),
        "turn_idx": pa.array([turn_idxs[i] for i in perm], pa.int32()),
        "text": pa.array([texts[i] for i in perm], pa.string()),
    })
    per_file = -(-table.num_rows // n_files)
    for f in range(n_files):
        part = table.slice(f * per_file, per_file)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{f:04d}.parquet"))


def gen_turns(out_dir: str, seed: int, skewed: bool, n_turns: int = TURNS) -> None:
    rng = np.random.default_rng(seed)
    giant = int(n_turns * GIANT_SHARE) if skewed else 0
    conv_ids, turn_idxs = _conversations(rng, n_turns, giant)
    texts = [_turn_text(rng, i) for i in range(len(conv_ids))]
    _write_turns(out_dir, rng, conv_ids, turn_idxs, texts, n_files=4)


def _chrome(rng: np.random.Generator, n_links: int, prefix: str) -> str:
    return " ".join(
        f'<a href="/{prefix}/{int(k)}" title="{_WORDS[int(k) % len(_WORDS)]}">'
        f"{_WORDS[int(k) % len(_WORDS)]}</a>"
        for k in rng.integers(0, 10_000, n_links))


def _page(rng: np.random.Generator, n: int, target: int,
          anchor_dense: bool = False) -> str:
    head = (
        f"<!DOCTYPE html><html lang=en><head><meta charset=utf-8>"
        f"<title>Page {n} &mdash; {_words(rng, 3)}</title>"
        "<style>body{margin:0} .nav a{color:#333}</style>"
        f"<script>var n={n}; if (n < 10 && n > 2) {{ document.title = '<b>x</b>'; }}</script>"
        "</head><body>"
        f"<header><nav class=nav>{_chrome(rng, 40, 'cat')}</nav></header>"
        f"<aside><h3>Related</h3><ul>"
        + "".join(f"<li>{_chrome(rng, 1, 'rel')}" for _ in range(15))
        + "</ul></aside><main><article>"
    )
    tail = (
        "</article></main>"
        f"<footer><p>&copy; 2024 corp &middot; {_chrome(rng, 25, 'legal')}</p></footer>"
        "</body></html>"
    )
    parts = [head]
    size = len(head) + len(tail)
    while size < target:
        if anchor_dense:
            block = f"<p>{_chrome(rng, 40, 'a')}</p>"
        else:
            k = int(rng.integers(0, 4))
            if k == 0:
                block = (f"<h2>{_words(rng, 4)}</h2><p>{_words(rng, 60)} "
                         f"&amp; {_words(rng, 10)} &#8212; <a href=/x/{n}>"
                         f"{_words(rng, 2)}</a> <em>{_words(rng, 5)}</em></p>")
            elif k == 1:
                rows = "".join(
                    f"<tr><td>{_words(rng, 2)}<td>{int(v)}<td>&euro;{int(v) % 97}"
                    for v in rng.integers(0, 100_000, 12))
                block = f"<table><thead><tr><th>a<th>b<th>c</thead>{rows}</table>"
            elif k == 2:
                block = ("<ul>" + "".join(f"<li>{_words(rng, 6)}"
                                          for _ in range(8)) + "</ul>")
            else:
                block = (f"<div class=ad><script>track({n}, '{_words(rng, 2)}');"
                         f"</script>{_chrome(rng, 6, 'ad')}</div>"
                         f"<p>{_words(rng, 40)}</p>")
        parts.append(block)
        size += len(block)
    parts.append(tail)
    return "".join(parts)


def gen_pages(out_dir: str, seed: int) -> None:
    rng = np.random.default_rng(seed)
    texts = [_page(rng, n, int(size)) for n, size in
             enumerate(np.geomspace(PAGE_BYTES[0], PAGE_BYTES[1], N_PAGES))]
    for k in range(FEED_PAGES):
        texts.append(_page(rng, len(texts),
                           int(rng.integers(*FEED_PAGE_CHARS)),
                           anchor_dense=(k == 0)))
    conv_ids = [f"site-{i % 5}" for i in range(len(texts))]
    turn_idxs = [i // 5 for i in range(len(texts))]
    _write_turns(out_dir, rng, conv_ids, turn_idxs, texts, n_files=2)


_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "search", "view"]


def _ts(rng: np.random.Generator, n: int, lo: str, hi: str) -> pa.Array:
    a = np.datetime64(lo, "us").astype(np.int64)
    b = np.datetime64(hi, "us").astype(np.int64)
    return pa.array(rng.integers(a, b, n), pa.timestamp("us"))


def _cents(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    return rng.integers(lo, hi, n) / 100.0


def gen_tables(out_dir: str, seed: int) -> None:
    """customer, orders, lineitem and events with the column names and
    types of the engine's TPC-H-shaped test tables."""
    rng = np.random.default_rng(seed)
    pq.write_table(pa.table({
        "c_custkey": pa.array(np.arange(1, N_CUSTOMER + 1), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(1, N_CUSTOMER + 1)]),
        "c_nationkey": pa.array(rng.integers(0, 25, N_CUSTOMER), pa.int32()),
        "c_acctbal": pa.array(_cents(rng, N_CUSTOMER, -99_999, 999_999)),
        "c_mktsegment": pa.array([_SEGMENTS[i] for i in rng.integers(0, 5, N_CUSTOMER)]),
    }), os.path.join(out_dir, "customer.parquet"))
    okeys = np.arange(1, N_ORDERS + 1, dtype=np.int64) * 4
    pq.write_table(pa.table({
        "o_orderkey": pa.array(okeys),
        "o_custkey": pa.array(rng.integers(1, N_CUSTOMER + 1, N_ORDERS), pa.int64()),
        "o_orderstatus": pa.array([("F", "O", "P")[i] for i in rng.integers(0, 3, N_ORDERS)]),
        "o_totalprice": pa.array(_cents(rng, N_ORDERS, 90_000, 50_000_000)),
        "o_orderdate": _ts(rng, N_ORDERS, "1992-01-01", "1998-08-02"),
        "o_orderpriority": pa.array([_PRIORITIES[i] for i in rng.integers(0, 5, N_ORDERS)]),
    }), os.path.join(out_dir, "orders.parquet"))
    lines = rng.integers(1, 8, N_ORDERS)
    n_lines = int(lines.sum())
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.repeat(okeys, lines)),
        "l_partkey": pa.array(rng.integers(1, N_PART + 1, n_lines), pa.int64()),
        "l_suppkey": pa.array(rng.integers(1, 101, n_lines), pa.int64()),
        "l_linenumber": pa.array(np.concatenate([np.arange(1, k + 1) for k in lines]), pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, n_lines).astype(np.float64)),
        "l_extendedprice": pa.array(_cents(rng, n_lines, 90_000, 10_500_000)),
        "l_discount": pa.array(rng.integers(0, 11, n_lines) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n_lines) / 100.0),
        "l_returnflag": pa.array([("A", "N", "R")[i] for i in rng.integers(0, 3, n_lines)]),
        "l_linestatus": pa.array([("F", "O")[i] for i in rng.integers(0, 2, n_lines)]),
        "l_shipdate": _ts(rng, n_lines, "1992-01-02", "1998-12-01"),
    }), os.path.join(out_dir, "lineitem.parquet"))
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(1, N_EVENTS + 1), pa.int64()),
        "ts": pa.array(np.sort(_ts(rng, N_EVENTS, "2024-01-01", "2024-01-08").to_numpy()),
                       pa.timestamp("us")),
        "user_id": pa.array(rng.integers(1, 500, N_EVENTS), pa.int64()),
        "event_type": pa.array([_EVENT_TYPES[i] for i in rng.integers(0, 5, N_EVENTS)]),
        "value": pa.array(_cents(rng, N_EVENTS, 0, 100_000)),
        "props": pa.array(["{}"] * N_EVENTS),
    }), os.path.join(out_dir, "events.parquet"))


GENERATORS = {
    # small corpus the set-up pass runs, so the actor pool is warm
    "warmup": lambda d, s: gen_turns(d, s, skewed=False, n_turns=WARMUP_TURNS),
    "turns_short": lambda d, s: gen_turns(d, s, skewed=False),
    "skew_resume": lambda d, s: gen_turns(d, s, skewed=True),
    "pages_long": gen_pages,
    "exchange_queries": gen_tables,
}


def ensure_inputs(work_dir: str, workload: str, seed: int) -> str:
    """Directory holding the workload's inputs for ``seed``; generated on
    first use and reused while its ``_COMPLETE`` marker exists."""
    out = os.path.join(work_dir, "inputs", f"{workload}-s{seed}-v{GEN_VERSION}")
    if os.path.exists(os.path.join(out, "_COMPLETE")):
        return out
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    GENERATORS[workload](out, seed)
    with open(os.path.join(out, "_COMPLETE"), "w") as f:
        f.write("ok\n")
    return out
