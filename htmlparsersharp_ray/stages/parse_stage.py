"""The parse+extract stage: transcripts batch → extraction batch.

This is the engine's core operator (SURVEY.md §2.2-2.3 fused): each row's
``text`` is run through the HTML5 tokenizer+tree-builder and the
boilerplate extractor. An instance holds only one scalar (the input
cap), so the flagship runs it as stateless Ray
Data tasks: the module-level tables (entities, element flags) are built
once per worker process at import, and Ray reuses its worker processes
from task to task, so no actor is needed to keep them warm.

Batch format is pyarrow end-to-end: zero-copy in, columnar out.
Parsing is inherently sequential per document, so the per-row loop here is
the *one* sanctioned Python loop in the hot path (SURVEY.md §1.3).

Every document is parsed by ``_on_tree``, which pauses CPython's cyclic
GC for the row. A DOM is one big reference cycle (``Node.parent``
points back up), so while a large tree grows, its surviving nodes get
promoted and set off full collections that rescan every live tree plus
the whole worker heap; on ``pages_long`` those took about a third of the
parse stage. Paused, the row's tree stays young and one
young-generation pass frees it when the row ends. The rule that makes
this work: hold no reference to the tree past the row. A walk returns
only plain values (strings, numbers, tuples), never a node or the
``ParseResult``.
"""

from __future__ import annotations

import gc

import pyarrow as pa

from ..html import feed
from ..html.parser import parse
from ..extract.boilerplate import extract_main_content

# Per-row input cap, raised 32x in round 4 (2M -> 64M chars): multi-MB
# turns now parse FULLY through the chunked feed (html/feed.py,
# construct-granularity suspension mirroring the reference's buffer
# loop, SimpleHtmlParser.cs:93-162) — the old 2M truncation (VERDICT r3
# missing item 1) no longer clips real pages. The cap itself remains as
# the HEAP guard the chunked feed cannot provide: the feed bounds
# tokenizer intermediates, but the DOM of a hostile multi-GB turn would
# still materialize in one worker (SURVEY §7.4.7), so truncation —
# recorded in metrics — is the correct degradation there. Pass None to
# disable entirely.
DEFAULT_MAX_TEXT_CHARS = 64_000_000

# Inputs beyond this parse via FeedParser in FEED_CHUNK_CHARS pieces —
# same result bit-for-bit (differential-gated), but the tokenizer works
# construct-at-a-time so a giant turn cannot make one sub-parser
# allocate document-sized intermediate strings.
FEED_THRESHOLD_CHARS = 1 << 20
FEED_CHUNK_CHARS = 1 << 20

SPAN_TYPE = pa.list_(
    pa.struct(
        [
            ("path", pa.string()),
            ("start", pa.int32()),
            ("end", pa.int32()),
            ("tag", pa.string()),
        ]
    )
)
METRICS_TYPE = pa.struct(
    [
        ("nodes", pa.int64()),
        ("tokens", pa.int64()),
        ("parse_errors", pa.int32()),
        ("boilerplate_bytes", pa.int64()),
        ("truncated", pa.bool_()),
    ]
)

EXTRACTED_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("extracted_text", pa.string()),
        ("spans", SPAN_TYPE),
        ("doc_mode", pa.string()),
        ("metrics", METRICS_TYPE),
    ]
)


def _on_tree(text: str, walk):
    """``walk(result)`` for the ``ParseResult`` of ``text``, with the
    cyclic GC paused for the row (module docstring). ``walk`` must return
    nothing that holds the tree: once it returns, the tree is garbage,
    and one ``gc.collect(0)`` frees it before it is ever promoted. The
    GC is re-enabled only if it was enabled on entry.

    ``parse``, ``extract_main_content`` (inside the walks) and
    ``html.feed.parse_chunked`` are looked up by module attribute at call
    time, not bound here: perfbench/layers.py wraps those three names to
    time each layer, and its traced run fails if they get no calls."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if len(text) > FEED_THRESHOLD_CHARS:
            return walk(feed.parse_chunked(text, FEED_CHUNK_CHARS))
        return walk(parse(text))
    finally:
        gc.collect(0)
        if enabled:
            gc.enable()


def _extract(result):
    """The parse stage's walk: extraction plus the parse scalars the
    output row needs (no reference to the tree)."""
    return (extract_main_content(result.root), result.doc_mode,
            result.tokens, result.errors, result.content_capped)


class HtmlExtractUDF:
    """``HtmlExtractUDF()(batch)`` — the parse stage; an instance is a
    plain callable, so ``map_batches(HtmlExtractUDF(), ...)`` runs it as
    tasks."""

    def __init__(self, max_text_chars: int = DEFAULT_MAX_TEXT_CHARS):
        self.max_text_chars = max_text_chars

    def _extract_raw(self, text: str):
        """Parse + extract one turn → (ExtractionResult, doc_mode, tokens,
        errors, truncated). Shared by the dict view (extract_one) and the
        columnar batch builder (__call__)."""
        truncated = False
        if text is None:
            text = ""
        if self.max_text_chars is not None and len(text) > self.max_text_chars:
            text = text[: self.max_text_chars]
            truncated = True
        ext, doc_mode, tokens, errors, capped = _on_tree(text, _extract)
        # metrics.truncated records ANY incomplete-content degradation:
        # input char cap, stack-depth cap, or node-count cap
        return ext, doc_mode, tokens, errors, truncated or capped

    def extract_one(self, text: str):
        """Parse + extract a single turn; returns a plain dict of fields."""
        ext, doc_mode, tokens, errors, truncated = self._extract_raw(text)
        return {
            "extracted_text": ext.text,
            "spans": [
                {"path": p, "start": s, "end": e, "tag": t}
                for (p, s, e, t) in ext.spans
            ],
            "doc_mode": doc_mode,
            "metrics": {
                "nodes": ext.nodes,
                "tokens": tokens,
                "parse_errors": errors,
                "boilerplate_bytes": ext.boilerplate_bytes,
                "truncated": truncated,
            },
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Columns build as FLAT arrays + a list-offsets array: the Arrow
        # wire layout is struct-of-arrays already, so building it directly
        # skips one Python dict per span/metrics row (the old builder's
        # main allocation churn — NOTES_r3 round-4 lead 2). Schema is
        # byte-identical to the previous per-dict builder.
        texts = batch.column("text").to_pylist()
        n = len(texts)
        extracted = []
        doc_modes = []
        nodes, tokens, errors, bbytes, trunc = [], [], [], [], []
        span_offsets = [0]
        paths, starts, ends, tags = [], [], [], []
        for text in texts:
            ext, doc_mode, n_tokens, n_errors, truncated = self._extract_raw(text)
            extracted.append(ext.text)
            for (p, s, e, t) in ext.spans:
                paths.append(p)
                starts.append(s)
                ends.append(e)
                tags.append(t)
            span_offsets.append(len(paths))
            doc_modes.append(doc_mode)
            nodes.append(ext.nodes)
            tokens.append(n_tokens)
            errors.append(n_errors)
            bbytes.append(ext.boilerplate_bytes)
            trunc.append(truncated)
        spans_arr = pa.ListArray.from_arrays(
            pa.array(span_offsets, pa.int32()),
            pa.StructArray.from_arrays(
                [
                    pa.array(paths, pa.string()),
                    pa.array(starts, pa.int32()),
                    pa.array(ends, pa.int32()),
                    pa.array(tags, pa.string()),
                ],
                fields=list(SPAN_TYPE.value_type),
            ),
        )
        metrics_arr = pa.StructArray.from_arrays(
            [
                pa.array(nodes, pa.int64()),
                pa.array(tokens, pa.int64()),
                pa.array(errors, pa.int32()),
                pa.array(bbytes, pa.int64()),
                pa.array(trunc, pa.bool_()),
            ],
            fields=list(METRICS_TYPE),
        )
        assert len(spans_arr) == n
        return pa.table(
            {
                "conv_id": batch.column("conv_id"),
                "turn_idx": batch.column("turn_idx").cast(pa.int32()),
                "extracted_text": pa.array(extracted, type=pa.string()),
                "spans": spans_arr,
                "doc_mode": pa.array(doc_modes, type=pa.string()),
                "metrics": metrics_arr,
            }
        )


class LinkExtractUDF:
    """Link-graph extraction: parse each turn with the real HTML5 parser
    and emit one row per ``<a href>`` — (conv_id, turn_idx, href,
    anchor_text, in_content). The 1→N flat-map that builds a web link
    graph from raw HTML; ``in_content`` marks anchors OUTSIDE
    nav/header/footer/aside ancestry (boilerplate links vs editorial
    links — the signal link-based crawl frontiers weight by).

    Runs as Ray Data tasks like the flagship parse; the DOM walk is
    iterative (explicit stack — no recursion limit on deep markup).
    Reference parity: the reference parses and exposes the DOM
    (SimpleHtmlParser.cs); link extraction is an engine-level consumer
    of the same tree."""

    _BOILER = frozenset(("nav", "header", "footer", "aside"))

    def __init__(self, max_text_chars: int = DEFAULT_MAX_TEXT_CHARS):
        self.max_text_chars = max_text_chars

    def _links_of(self, text: str):
        return _on_tree(text[: self.max_text_chars] if text else "",
                        self._links_in)

    def _links_in(self, result):
        from ..extract.boilerplate import _norm
        from ..html.dom import Element, Text

        root = result.root
        out = []
        # iterative preorder: children pushed REVERSED so the LIFO pop
        # visits them in document order. Stack entries: (node, bdepth).
        stack = [(root, 0)]
        while stack:
            node, bdepth = stack.pop()
            if isinstance(node, Element):
                name = node.name
                if name in self._BOILER:
                    bdepth += 1
                if name == "a" and "href" in node.attrs:
                    # anchor text: Text descendants in document order
                    parts = []
                    tstack = list(reversed(node.children))
                    while tstack:
                        c = tstack.pop()
                        if isinstance(c, Text):
                            parts.append(c.data)
                        else:
                            tstack.extend(reversed(c.children))
                    out.append((node.attrs["href"], _norm("".join(parts)),
                                bdepth == 0))
            for child in reversed(node.children):
                stack.append((child, bdepth))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        convs = batch.column("conv_id").to_pylist()
        turns = batch.column("turn_idx").to_pylist()
        texts = batch.column("text").to_pylist()
        conv_o, turn_o, href_o, text_o, content_o = [], [], [], [], []
        for cid, tix, text in zip(convs, turns, texts):
            for href, anchor, in_content in self._links_of(text):
                conv_o.append(cid)
                turn_o.append(tix)
                href_o.append(href)
                text_o.append(anchor)
                content_o.append(in_content)
        return pa.table({
            "conv_id": pa.array(conv_o, pa.string()),
            "turn_idx": pa.array(turn_o, pa.int64()),
            "href": pa.array(href_o, pa.string()),
            "anchor_text": pa.array(text_o, pa.string()),
            "in_content": pa.array(content_o, pa.bool_()),
        })


def render_nation_links(batch: pa.Table) -> pa.Table:
    """Render ONE link-bearing HTML document per nation row, messy on
    purpose (markup style keyed on ``n_nationkey % 3``: clean quoted,
    unquoted href + implied ``</p>``, single-quoted + nested inline
    markup inside the anchor text) so link extraction exercises the real
    parser's attribute and recovery machinery. Link layout per doc is
    FORMULAIC — ``/nation/<key>`` once in content and once in the
    footer, ``/region/<key>`` once in the nav and once in content — so
    the per-href aggregate is re-derivable by plain SQL over ``nation``
    (the extract_tables round-trip trick applied to the link graph)."""
    keys = batch.column("n_nationkey").to_pylist()
    names = batch.column("n_name").to_pylist()
    regions = batch.column("n_regionkey").to_pylist()
    docs = []
    for k, nm, r in zip(keys, names, regions):
        style = k % 3
        if style == 0:
            body = (f'<p>See <a href="/nation/{k}">{nm}</a> and '
                    f'<a href="/region/{r}">region</a>.</p>')
        elif style == 1:
            body = (f"<p>See <a href=/nation/{k}>{nm}</a> and "
                    f"<a href=/region/{r}>region</a>")
        else:
            body = (f"<p>See <a class=x href='/nation/{k}'>"
                    f"<b>{nm}</b> profile</a> and "
                    f"<a href='/region/{r}'><i>region</i></a>.")
        docs.append(
            "<!DOCTYPE html><html><body>"
            f'<nav><a href="/region/{r}">r</a></nav>'
            + body
            + f'<footer><a href="/nation/{k}">foot</a></footer>'
            "</body></html>"
        )
    return pa.table({"html": pa.array(docs, pa.string())})


# --- HTML table round trip (structured-data extraction) ---------------------

_TABLE_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def _esc(s: str) -> str:
    for ch, rep in _TABLE_ESCAPES.items():
        s = s.replace(ch, rep)
    return s


def render_part_tables(batch: pa.Table) -> pa.Table:
    """Render ONE deliberately-messy HTML document per input batch: a
    data ``<table>`` holding the batch's ``part`` rows, wrapped in
    boilerplate (nav/footer), with per-row markup style keyed on
    ``p_partkey % 4`` so the corpus deterministically exercises the
    WHATWG table insertion modes the reference implements
    (reference: TreeBuilder.cs IN_TABLE/IN_ROW/IN_CELL handling):

    - style 0: fully closed ``<tr><td>…</td></tr>``
    - style 1: implied end tags — ``<tr><td>a<td>b`` (no ``</td></tr>``)
    - style 2: spaces in text cells rendered as numeric char refs
      (``&#x20;``) + an attribute on the row
    - style 3: an HTML comment inside the row (legal in table content)

    Each document also carries stray text directly inside ``<table>``
    (foster-parented OUT of the table per spec — extraction must not
    see it as cell data) and a ``<thead>`` of ``<th>`` cells that the
    extractor must skip. Deterministic: output rows depend only on
    input rows, never on batch boundaries (one table row per part)."""
    import numpy as np

    keys = batch.column("p_partkey").to_pylist()
    names = batch.column("p_name").to_pylist()
    brands = batch.column("p_brand").to_pylist()
    types = batch.column("p_type").to_pylist()
    sizes = batch.column("p_size").to_pylist()
    cents = np.round(
        batch.column("p_retailprice").to_numpy(zero_copy_only=False) * 100
    ).astype("int64")

    parts = [
        "<!DOCTYPE html><html><head><title>parts</title>"
        "<meta charset=utf-8></head><body>"
        "<nav><a href=/>home</a> <a href=/parts>parts</a></nav>"
        "<p>Catalog excerpt.</p>"
        "<table class=data>STRAY<caption>parts</caption>"
        "<thead><tr><th>key<th>name<th>brand<th>type<th>size<th>cents"
        "</thead>"
    ]
    for k, nm, br, ty, sz, ct in zip(keys, names, brands, types, sizes, cents):
        cells = [str(k), _esc(nm), _esc(br), _esc(ty), str(sz), str(ct)]
        style = k % 4
        if style == 0:
            parts.append(
                "<tr>" + "".join(f"<td>{c}</td>" for c in cells) + "</tr>")
        elif style == 1:
            parts.append("<tr>" + "".join(f"<td>{c}" for c in cells))
        elif style == 2:
            cells = [c.replace(" ", "&#x20;") for c in cells]
            parts.append(
                '<tr class="r">' + "".join(f"<td>{c}" for c in cells))
        else:
            parts.append(
                f"<tr><!-- row {k} -->" + "".join(f"<td>{c}" for c in cells))
    parts.append("</table><footer>generated</footer>")
    return pa.table({"html": pa.array(["".join(parts)], pa.string())})


class TableExtractUDF:
    """Structured-data extraction: parse each HTML document with the real
    HTML5 parser and emit one typed row per data row of the FIRST
    ``<table>`` — the wrapper-table/data-table shape of web scraping.
    Skips header rows (``th`` cells), caption text, and foster-parented
    stray text (which the spec moves OUT of the table). Stateless, so
    it runs as Ray Data tasks; iterative DOM walks (no recursion
    limit)."""

    def _rows_of(self, html: str):
        return _on_tree(html, self._rows_in)

    def _rows_in(self, result):
        from ..html.dom import Element
        from .structured import element_text

        root = result.root
        # first <table> in document order (iterative preorder)
        table = None
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Element) and node.name == "table":
                table = node
                break
            stack.extend(reversed(node.children))
        if table is None:
            return []
        out = []
        stack = [table]
        while stack:
            node = stack.pop()
            if isinstance(node, Element) and node.name == "tr":
                tds = [c for c in node.children
                       if isinstance(c, Element) and c.name == "td"]
                if tds:
                    out.append([element_text(td) for td in tds])
                continue  # no nested tables in this corpus shape
            stack.extend(reversed(node.children))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, names, brands, types, sizes, cents = [], [], [], [], [], []
        for html in batch.column("html").to_pylist():
            for cells in self._rows_of(html):
                keys.append(int(cells[0]))
                names.append(cells[1])
                brands.append(cells[2])
                types.append(cells[3])
                sizes.append(int(cells[4]))
                cents.append(int(cells[5]))
        return pa.table({
            "p_partkey": pa.array(keys, pa.int64()),
            "p_name": pa.array(names, pa.string()),
            "p_brand": pa.array(brands, pa.string()),
            "p_type": pa.array(types, pa.string()),
            "p_size": pa.array(sizes, pa.int64()),
            "price_cents": pa.array(cents, pa.int64()),
        })
