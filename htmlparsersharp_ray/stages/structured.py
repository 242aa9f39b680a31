"""Structured-data extraction round trips over the REAL HTML5 parser.

Three render→parse→recover pipelines that put parser surfaces the
flagship doesn't isolate into the GRADED oracle gate (same trick as
``parse_stage.render_part_tables`` / ``TableExtractUDF``):

- ``render_customer_profiles`` / ``MetaExtractUDF`` — <head> metadata
  extraction: <title> RCDATA text (named/decimal/hex character
  references), <meta name/content> in every quoting style, <link
  rel=canonical>, and the <html lang> attribute. One of the three
  markup styles omits <html>/<head> entirely, so the implicit-element
  synthesis path (reference: TreeBuilder.cs AppendHtmlElementToDocument
  / head synthesis in BEFORE_HEAD) is observable in the graded output
  (html_lang = "" exactly when the parser synthesized <html>).
- ``make_render_nation_lists`` / ``ListExtractUDF`` — nested <ul>/<li>
  hierarchy recovery via DOM ancestry, with implied </li> end tags at
  both levels (reference: TreeBuilder.cs GenerateImpliedEndTags) and
  numeric-char-ref text in the odd-keyed items.
- ``render_supplier_fragments`` / ``FragmentExtractUDF`` — the
  reference's ParseStringFragment API (SimpleHtmlParser.cs:42-46,67-73)
  as a graded query: innerHTML-style fragment parses with "tr",
  "table" and "tbody" context elements, exercising
  ResetTheInsertionMode from a fragment context and the implied-<tbody>
  fix-up for <tr> in IN_TABLE.

All renders are deterministic functions of the input rows (never of
batch boundaries: one output row per input row for profiles/fragments;
list extraction depends only on each row's own ancestry). Prices travel
as exact cents strings, so each oracle is plain SQL over the source
table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}


def _esc(s: str) -> str:
    for ch, rep in _ESCAPES.items():
        s = s.replace(ch, rep)
    return s


def element_text(node) -> str:
    """Concatenated descendant text (iterative walk, no recursion)."""
    from ..html.dom import Text

    parts = []
    stack = list(reversed(node.children))
    while stack:
        c = stack.pop()
        if isinstance(c, Text):
            parts.append(c.data)
        else:
            stack.extend(reversed(c.children))
    return "".join(parts)


def _own_text(el) -> str:
    """Descendant text of ``el`` EXCLUDING nested list subtrees — the
    label of a list item whose children include a sub-list."""
    from ..html.dom import Element, Text

    parts = []
    stack = list(reversed(el.children))
    while stack:
        c = stack.pop()
        if isinstance(c, Text):
            parts.append(c.data)
        elif isinstance(c, Element) and c.name in ("ul", "ol"):
            continue
        else:
            stack.extend(reversed(c.children))
    return "".join(parts).strip()


def _cents(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """double money column → exact int64 cents, matching the oracle's
    CAST(round(x * 100) AS BIGINT) (same idiom as render_part_tables)."""
    return np.round(
        col.to_numpy(zero_copy_only=False) * 100
    ).astype("int64")


# ---------------------------------------------------------------------------
# <head> metadata extraction (customer profiles)
# ---------------------------------------------------------------------------

def render_customer_profiles(batch: pa.Table) -> pa.Table:
    """One HTML profile document per customer row; markup style keyed
    on ``c_custkey % 3``:

    - style 0: fully-closed lowercase markup, double-quoted attributes,
      ``&mdash;`` named reference in the RCDATA <title>
    - style 1: UPPERCASE tag/attribute names, unquoted and
      single-quoted attribute values, <head> implied-closed by <BODY>,
      ``&#8212;`` decimal reference
    - style 2: NO <html>/<head>/<body> tags at all — the parser must
      synthesize them and route <title>/<meta>/<link> into the
      synthesized head; ``&#x2014;`` hex reference. Extraction reads
      <html lang>, so this style's output row carries lang = ""
      (no author <html> tag to put it on).
    """
    keys = batch.column("c_custkey").to_pylist()
    names = batch.column("c_name").to_pylist()
    segs = batch.column("c_mktsegment").to_pylist()
    cents = _cents(batch.column("c_acctbal"))

    docs = []
    for k, nm, seg, ct in zip(keys, names, segs, cents):
        nm_esc = _esc(nm)
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html lang=\"en\"><head>"
                f"<title>Customer {nm_esc} &mdash; profile</title>"
                "<meta charset=\"utf-8\">"
                f"<meta name=\"segment\" content=\"{seg}\">"
                f"<meta name=\"balance\" content=\"{ct}\">"
                f"<link rel=\"canonical\" href=\"https://example.com/c/{k}\">"
                f"</head><body><h1>{nm_esc}</h1><p>profile {k}</p>"
                "</body></html>"
            )
        elif style == 1:
            docs.append(
                "<!DOCTYPE html><HTML LANG=en><HEAD>"
                f"<TITLE>Customer {nm_esc} &#8212; profile</TITLE>"
                "<META CHARSET=utf-8>"
                f"<META NAME=segment CONTENT={seg}>"
                f"<META NAME=balance CONTENT='{ct}'>"
                f"<LINK REL=canonical HREF=https://example.com/c/{k}>"
                f"<BODY><P>profile {k}"
            )
        else:
            docs.append(
                f"<title>Customer {nm_esc} &#x2014; profile</title>"
                f"<meta name=segment content=\"{seg}\">"
                f"<meta name=balance content=\"{ct}\">"
                f"<link rel=canonical href='https://example.com/c/{k}'>"
                f"profile text {k} with <b>markup</b>"
            )
    return pa.table({"html": pa.array(docs, pa.string())})


class MetaExtractUDF:
    """Parse each profile document and emit its head metadata as one
    typed row. Stateless, so it runs as Ray Data tasks."""

    @staticmethod
    def _fields(html: str):
        from ..html.dom import Element
        from ..html.parser import parse

        doc = parse(html).root
        html_el = next(
            (c for c in doc.children
             if isinstance(c, Element) and c.name == "html"), None)
        if html_el is None:  # pragma: no cover - parser always builds one
            return None
        head = next(
            (c for c in html_el.children
             if isinstance(c, Element) and c.name == "head"), None)
        lang = html_el.attrs.get("lang", "")
        title = ""
        metas: dict[str, str] = {}
        canonical = ""
        for c in (head.children if head is not None else ()):
            if not isinstance(c, Element):
                continue
            if c.name == "title":
                title = element_text(c)
            elif c.name == "meta":
                name = c.attrs.get("name")
                if name:
                    metas[name] = c.attrs.get("content", "")
            elif c.name == "link" and c.attrs.get("rel") == "canonical":
                canonical = c.attrs.get("href", "")
        return lang, title, metas, canonical

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, langs, titles, segs, bals, canons = [], [], [], [], [], []
        for html in batch.column("html").to_pylist():
            got = self._fields(html)
            if got is None:  # pragma: no cover
                continue
            lang, title, metas, canonical = got
            # canonical carries the key: https://example.com/c/<key>
            keys.append(int(canonical.rsplit("/", 1)[1]))
            langs.append(lang)
            titles.append(title)
            segs.append(metas.get("segment", ""))
            bals.append(int(metas.get("balance", "0")))
            canons.append(canonical)
        return pa.table({
            "c_custkey": pa.array(keys, pa.int64()),
            "html_lang": pa.array(langs, pa.string()),
            "title": pa.array(titles, pa.string()),
            "segment": pa.array(segs, pa.string()),
            "balance_cents": pa.array(bals, pa.int64()),
            "canonical": pa.array(canons, pa.string()),
        })


# ---------------------------------------------------------------------------
# nested-list hierarchy extraction (region → nation)
# ---------------------------------------------------------------------------

def make_render_nation_lists(region_names: dict[int, str]):
    """Render a batch of nation rows as ONE document holding a nested
    region→nation <ul>, using implied </li> end tags at both levels.
    ``region_names`` is the broadcast small side (regionkey → name) —
    read once on the driver, shipped in the task closure.

    Batch-boundary independent: each nation row's extracted
    (n_nationkey, n_name, r_name) depends only on its own ancestry,
    never on which other rows share the document.
    """

    def render(batch: pa.Table) -> pa.Table:
        keys = batch.column("n_nationkey").to_pylist()
        names = batch.column("n_name").to_pylist()
        rkeys = batch.column("n_regionkey").to_pylist()
        groups: dict[str, list[tuple[int, str]]] = {}
        for k, nm, rk in zip(keys, names, rkeys):
            groups.setdefault(region_names[rk], []).append((int(k), nm))
        parts = [
            "<!DOCTYPE html><html><head><title>geo</title></head><body>"
            "<ul class=regions>"
        ]
        for rname in sorted(groups):
            parts.append(f"<li>{_esc(rname)}<ul>")
            for k, nm in groups[rname]:
                if k % 2:
                    enc = _esc(nm).replace(" ", "&#32;")
                    parts.append(f"<li data-k={k} class='n'><b>{enc}</b>")
                else:
                    parts.append(f"<li data-k={k}>{_esc(nm)}")
            parts.append("</ul>")
        parts.append("</ul><footer>generated</footer></body></html>")
        return pa.table({"html": pa.array(["".join(parts)], pa.string())})

    return render


class ListExtractUDF:
    """Recover (n_nationkey, n_name, r_name) rows from the nested-list
    documents by DOM ancestry: a nation is any <li> carrying data-k;
    its region is the label text of the <li> two levels up (excluding
    the nested <ul> subtree)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, names, regions = [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "li" \
                        and "data-k" in node.attrs:
                    region_li = node.parent.parent  # li > ul > li(region)
                    keys.append(int(node.attrs["data-k"]))
                    names.append(_own_text(node))
                    regions.append(_own_text(region_li))
                    continue  # nation items carry no nested lists
                stack.extend(reversed(node.children))
        return pa.table({
            "n_nationkey": pa.array(keys, pa.int64()),
            "n_name": pa.array(names, pa.string()),
            "r_name": pa.array(regions, pa.string()),
        })


# ---------------------------------------------------------------------------
# fragment parsing (the reference's ParseStringFragment API)
# ---------------------------------------------------------------------------

def render_supplier_fragments(batch: pa.Table) -> pa.Table:
    """One innerHTML-style fragment per supplier row, with the fragment
    CONTEXT varying by ``s_suppkey % 3``:

    - style 0, context "tr":    bare ``<td>`` cells (implied </td>)
    - style 1, context "table": a fully-closed ``<tr>`` — the parser
      must synthesize the implied <tbody> (IN_TABLE fix-up)
    - style 2, context "tbody": an attributed unclosed row
    """
    keys = batch.column("s_suppkey").to_pylist()
    names = batch.column("s_name").to_pylist()
    nkeys = batch.column("s_nationkey").to_pylist()
    cents = _cents(batch.column("s_acctbal"))

    frags, ctxs = [], []
    for k, nm, nk, ct in zip(keys, names, nkeys, cents):
        cells = [str(k), _esc(nm), str(int(nk)), str(ct)]
        style = k % 3
        if style == 0:
            ctxs.append("tr")
            frags.append("".join(f"<td>{c}" for c in cells))
        elif style == 1:
            ctxs.append("table")
            frags.append(
                "<tr>" + "".join(f"<td>{c}</td>" for c in cells) + "</tr>")
        else:
            ctxs.append("tbody")
            frags.append("<tr class=s>" + "".join(f"<td>{c}" for c in cells))
    return pa.table({
        "fragment": pa.array(frags, pa.string()),
        "ctx": pa.array(ctxs, pa.string()),
    })


class FragmentExtractUDF:
    """Parse each fragment with its context element
    (``parse_fragment``, mirroring ParseStringFragment) and recover the
    typed supplier row from the <td> cells in document order."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse_fragment

        keys, names, nkeys, bals = [], [], [], []
        frags = batch.column("fragment").to_pylist()
        ctxs = batch.column("ctx").to_pylist()
        for frag, ctx in zip(frags, ctxs):
            fragment = parse_fragment(frag, ctx).root
            cells = []
            stack = list(reversed(fragment.children))
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "td":
                    cells.append(element_text(node))
                    continue  # no nested tables in this corpus shape
                stack.extend(reversed(node.children))
            keys.append(int(cells[0]))
            names.append(cells[1])
            nkeys.append(int(cells[2]))
            bals.append(int(cells[3]))
        return pa.table({
            "s_suppkey": pa.array(keys, pa.int64()),
            "s_name": pa.array(names, pa.string()),
            "s_nationkey": pa.array(nkeys, pa.int64()),
            "bal_cents": pa.array(bals, pa.int64()),
        })


def render_customer_markdown_pages(batch: pa.Table) -> pa.Table:
    """One HTML page per customer row for the HTML→Markdown round trip;
    markup style keyed on ``c_custkey % 3`` — all three styles carry
    the SAME content, so the Markdown output is style-invariant (that
    invariance is what the oracle checks):

    - style 0: fully-closed lowercase markup, ``<strong>``/``<em>``
    - style 1: implied end tags (``<li``/``<p`` unclosed), unquoted
      attributes, ``<b>``/``<i>`` synonyms
    - style 2: UPPERCASE tags, ``&#x20;``-encoded spaces and
      ``&#35;``-encoded ``#`` in the name (NCR decoding must restore
      the exact text), single-quoted attributes
    """
    keys = batch.column("c_custkey").to_pylist()
    names = batch.column("c_name").to_pylist()
    segs = batch.column("c_mktsegment").to_pylist()
    nkeys = batch.column("c_nationkey").to_pylist()
    cents = _cents(batch.column("c_acctbal"))

    docs = []
    for k, nm, seg, nk, ct in zip(keys, names, segs, nkeys, cents):
        nm0 = _esc(nm)
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><head><title>c</title></head><body>"
                '<nav><a href="/">home</a> <a href="/customers">customers</a></nav>'
                f"<h1>{nm0}</h1>"
                f"<p>Customer {k} in segment {seg} has balance "
                f"<code>{ct}</code> cents.</p>"
                f"<ul><li>nation: {nk}</li><li>segment: {seg}</li></ul>"
                f'<p>See <a href="/customer/{k}">profile</a> or mail '
                f"<strong>{nm0}</strong> <em>now</em>.</p>"
                "</body></html>"
            )
        elif style == 1:
            docs.append(
                "<!DOCTYPE html><html><head><title>c</title></head><body>"
                "<nav><a href=/>home</a> <a href=/customers>customers</a></nav>"
                f"<h1>{nm0}</h1>"
                f"<p>Customer {k} in segment {seg} has balance "
                f"<code>{ct}</code> cents."
                f"<ul><li>nation: {nk}<li>segment: {seg}</ul>"
                f"<p>See <a href=/customer/{k}>profile</a> or mail "
                f"<b>{nm0}</b> <i>now</i>."
            )
        else:
            nm2 = _esc(nm).replace(" ", "&#x20;").replace("#", "&#35;")
            docs.append(
                "<!DOCTYPE html><HTML><HEAD><TITLE>c</TITLE></HEAD><BODY>"
                "<NAV><A HREF='/'>home</A> <A HREF='/customers'>customers</A></NAV>"
                f"<H1>{nm2}</H1>"
                f"<P>Customer {k} in segment {seg} has balance "
                f"<CODE>{ct}</CODE> cents.</P>"
                f"<UL><LI>nation: {nk}</LI><LI>segment: {seg}</LI></UL>"
                f"<P>See <A HREF='/customer/{k}'>profile</A> or mail "
                f"<STRONG>{nm2}</STRONG> <EM>now</EM>.</P>"
                "</BODY></HTML>"
            )
    return pa.table({
        "c_custkey": pa.array(keys, pa.int64()),
        "html": pa.array(docs, pa.string()),
    })


class MarkdownExtractUDF:
    """HTML → Markdown conversion through the REAL HTML5 parser
    (run as Ray Data tasks): parse each page, convert the DOM via
    :func:`htmlparsersharp_ray.extract.markdown.dom_to_markdown`.
    The graded round trip proves heading/list/link/emphasis structure
    survives implied-end-tag repair, NCR decoding and tag case-folding
    — the HTML→Markdown step of a pretraining corpus pipeline."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..extract.markdown import dom_to_markdown
        from ..html.parser import parse

        mds = [dom_to_markdown(parse(h).root)
               for h in batch.column("html").to_pylist()]
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "markdown": pa.array(mds, pa.string()),
        })


# ---------------------------------------------------------------------------
# document-outline extraction (order report pages)
# ---------------------------------------------------------------------------

def render_order_outlines(batch: pa.Table) -> pa.Table:
    """One HTML report page per orders row with a 4-heading outline
    (h1 order / h2 status / h3 priority / h2 total); markup style keyed
    on ``o_orderkey % 3`` — all three carry the SAME outline:

    - style 0: fully-closed headings with <p> siblings between them
    - style 1: an UNCLOSED heading chain — each next <hN> start tag
      must POP the currently-open heading (the WHATWG "current node is
      an h1-h6" rule, reference: TreeBuilder.cs StartTag h1-h6 group;
      engine: html/treebuilder.py:1208), so the headings still come
      out as siblings, not nested
    - style 2: UPPERCASE tags with ``&#x20;``/``&#32;``-encoded spaces
      inside the heading text (NCR decoding must restore exact text)
    """
    keys = batch.column("o_orderkey").to_pylist()
    stats = batch.column("o_orderstatus").to_pylist()
    prios = batch.column("o_orderpriority").to_pylist()
    cents = _cents(batch.column("o_totalprice"))

    docs = []
    for k, st, pr, ct in zip(keys, stats, prios, cents):
        h = (f"Order {k}", f"Status {st}", f"Priority {_esc(pr)}",
             f"Total {ct}")
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><head><title>o</title></head><body>"
                f"<h1>{h[0]}</h1><p>report {k}</p>"
                f"<h2>{h[1]}</h2><p>status detail</p>"
                f"<h3>{h[2]}</h3><p>priority detail</p>"
                f"<h2>{h[3]}</h2><p>total detail</p>"
                "</body></html>"
            )
        elif style == 1:
            docs.append(
                "<!DOCTYPE html>"
                f"<h1>{h[0]}<h2>{h[1]}<h3>{h[2]}<h2>{h[3]}"
            )
        else:
            enc = [t.replace(" ", "&#x20;" if i % 2 else "&#32;")
                   for i, t in enumerate(h)]
            docs.append(
                "<!DOCTYPE html><HTML><HEAD><TITLE>o</TITLE></HEAD><BODY>"
                f"<H1>{enc[0]}</H1><P>report</P>"
                f"<H2>{enc[1]}</H2>"
                f"<H3>{enc[2]}</H3>"
                f"<H2>{enc[3]}</H2>"
                "</BODY></HTML>"
            )
    return pa.table({"html": pa.array(docs, pa.string())})


class OutlineExtractUDF:
    """Recover the document OUTLINE from each report page: walk the DOM
    in document order, emit one row per h1-h6 element with its 1-based
    sequence number, heading level, text, and the outline PATH — the
    ``" > "``-joined texts of the nearest preceding headings of smaller
    level (computed from the level sequence, the HTML5 outline
    discipline). The h1 key rides the heading text ("Order <k>"), so
    extraction inverts the render exactly and the oracle is plain SQL
    over ``orders``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, seqs, levels, texts, paths = [], [], [], [], []
        headings = {"h1", "h2", "h3", "h4", "h5", "h6"}
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            found = []
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name in headings:
                    found.append((int(node.name[1]), element_text(node)))
                    continue  # headings never nest in this corpus shape
                stack.extend(reversed(node.children))
            key = int(found[0][1].rsplit(" ", 1)[1])
            outline: list[tuple[int, str]] = []
            for seq, (lvl, txt) in enumerate(found, start=1):
                while outline and outline[-1][0] >= lvl:
                    outline.pop()
                keys.append(key)
                seqs.append(seq)
                levels.append(lvl)
                texts.append(txt)
                paths.append(" > ".join(t for _, t in outline))
                outline.append((lvl, txt))
        return pa.table({
            "o_orderkey": pa.array(keys, pa.int64()),
            "seq": pa.array(seqs, pa.int64()),
            "level": pa.array(levels, pa.int64()),
            "heading": pa.array(texts, pa.string()),
            "path": pa.array(paths, pa.string()),
        })


# ---------------------------------------------------------------------------
# Code-block extraction (order snippets) — the <pre> leading-LF rule
# ---------------------------------------------------------------------------

_LANG_BY_STATUS = {"O": "python", "F": "sql", "P": "rust"}


def _order_code(k: int, c: int, status: str, prio: str) -> str:
    """The canonical snippet for one order row — shared by the render
    (escaped into HTML) and the pytest expectations; the oracle mirrors
    it as one SQL concat. Deliberately carries every character class
    entity escaping must round-trip: ``<`` ``>`` ``&`` ``"`` and
    newlines."""
    return (
        f"# order {k} & customer {c}\n"
        f'if priority == "{prio}":\n'
        f'    status = "{status}" if {c} < {k} else "?"'
    )


def render_order_code(batch: pa.Table) -> pa.Table:
    """One HTML page per order row carrying exactly one ``<pre><code>``
    block (plus decoys that must NOT extract: a ``<pre>`` with no code
    child and an inline ``<code>`` outside ``<pre>``), in one of three
    markup styles by ``o_orderkey % 3``:

    - style 0: ``<pre>\\n<code ...>`` — the newline immediately after
      the ``<pre>`` start tag must be IGNORED by the tree builder (the
      WHATWG pre/listing leading-LF rule; reference TreeBuilder.cs
      StartTag pre/listing group), so the extracted code must not gain
      a leading newline. Named entities (&lt; &gt; &amp; &quot;).
    - style 1: no doctype, unquoted attribute values, ``<pre><code``
      with no LF — same text, proving the skip in style 0 is the rule
      and not a strip().
    - style 2: UPPERCASE tags, the LF-after-<PRE> variant again, and
      NUMERIC character references (&#60; &#x3E; &#38; &#34;) for the
      special characters.

    The snippet's real newlines stay literal inside the element (pre
    preserves them); only the leading LF is parser-dropped."""
    keys = batch.column("o_orderkey").to_pylist()
    custs = batch.column("o_custkey").to_pylist()
    stats = batch.column("o_orderstatus").to_pylist()
    prios = batch.column("o_orderpriority").to_pylist()

    docs = []
    for k, c, st, pr in zip(keys, custs, stats, prios):
        lang = _LANG_BY_STATUS.get(st, "rust")
        code = _order_code(int(k), int(c), st, pr)
        named = (code.replace("&", "&amp;").replace("<", "&lt;")
                 .replace(">", "&gt;").replace('"', "&quot;"))
        numeric = (code.replace("&", "&#38;").replace("<", "&#60;")
                   .replace(">", "&#x3E;").replace('"', "&#34;"))
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><head><title>s</title></head><body>"
                "<nav><a href=\"/\">home</a></nav>"
                f"<pre>\n<code id=\"o-{k}\" class=\"language-{lang}\">"
                f"{named}</code></pre>"
                f"<pre>\ndecoy {k} has no code child</pre>"
                "</body></html>"
            )
        elif style == 1:
            docs.append(
                f"<p>see <code>inline()</code> below</p>"
                f"<pre><code id=o-{k} class=language-{lang}>"
                f"{named}</code></pre>"
            )
        else:
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f"<PRE>\n<CODE ID=\"o-{k}\" CLASS=\"language-{lang}\">"
                f"{numeric}</CODE></PRE>"
                "<PRE>\nno&#32;code here</PRE>"
                "</BODY></HTML>"
            )
    return pa.table({"html": pa.array(docs, pa.string())})


class CodeExtractUDF:
    """Recover (o_orderkey, lang, code) from each page: walk the DOM in
    document order and take every ``<pre>`` whose FIRST child is a
    ``<code>`` element (decoy <pre> blocks start with text; inline
    <code> has no <pre> parent). The key comes from the code element's
    ``id`` attribute ("o-<k>"), the language from its ``class``
    ("language-<lang>"), and the code text is the element's
    concatenated descendant text — already entity-decoded and, for the
    LF-after-<pre> styles, already missing the parser-dropped leading
    newline."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, langs, codes = [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "pre":
                    kids = node.children
                    if kids and isinstance(kids[0], Element) \
                            and kids[0].name == "code":
                        code_el = kids[0]
                        keys.append(int(code_el.attrs["id"][2:]))
                        langs.append(
                            code_el.attrs["class"].split("language-", 1)[1])
                        codes.append(element_text(code_el))
                    continue  # pre never nests another pre here
                stack.extend(reversed(node.children))
        return pa.table({
            "o_orderkey": pa.array(keys, pa.int64()),
            "lang": pa.array(langs, pa.string()),
            "code": pa.array(codes, pa.string()),
        })


# ---------------------------------------------------------------------------
# Image-text pair mining (<figure>/<img>/<figcaption>) — CLIP-style data
# ---------------------------------------------------------------------------


def _figure_triple(k: int, name: str, ptype: str):
    """The canonical (src, alt, caption) for one part row — shared by
    the render (escaped into HTML) and the pytest expectations; the
    oracle mirrors it as SQL concats. The alt deliberately carries
    ``&`` and ``<``/``>`` so attribute-VALUE character-reference
    decoding (a different tokenizer path than text content) is in the
    graded surface."""
    return (f"/img/parts/{k}.jpg",
            f"{name} & more <specs>",
            f"Part {k}: {ptype}")


def render_part_figures(batch: pa.Table) -> pa.Table:
    """One HTML page per part row carrying exactly one image-text pair
    (``<figure><img src alt><figcaption>``) plus decoys that must NOT
    extract — a tracking pixel (``alt=""``), a bare ``<img>`` with no
    alt, and a ``<figure>`` with no image — in one of three markup
    styles by ``p_partkey % 3``:

    - style 0: double-quoted attributes, NAMED character references
      (&amp; &lt; &gt;) in the alt value and caption text.
    - style 1: no doctype/html wrapper, UNQUOTED src, single-quoted
      alt, self-closing ``<img .../>`` (the solidus on a void element
      must be ignored; reference Tokenizer.cs self-closing-start-tag).
    - style 2: UPPERCASE tags, attribute order swapped (ALT before
      SRC), NUMERIC character references (&#38; &#60; &#62;).

    All three converge to the identical (src, alt, caption) triple, so
    the oracle is plain SQL concats over ``part``."""
    keys = batch.column("p_partkey").to_pylist()
    names = batch.column("p_name").to_pylist()
    types = batch.column("p_type").to_pylist()

    docs = []
    for k, nm, tp in zip(keys, names, types):
        src, alt, cap = _figure_triple(int(k), nm, tp)
        alt_named = (alt.replace("&", "&amp;").replace("<", "&lt;")
                     .replace(">", "&gt;"))
        alt_num = (alt.replace("&", "&#38;").replace("<", "&#60;")
                   .replace(">", "&#62;"))
        cap_named = _esc(cap)
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"<img src=\"/pix.gif\" alt=\"\">"
                f"<figure><img src=\"{src}\" alt=\"{alt_named}\">"
                f"<figcaption>{cap_named}</figcaption></figure>"
                "<figure><p>no image here</p></figure>"
                "</body></html>"
            )
        elif style == 1:
            docs.append(
                f"<p>banner: <img src=/banner.png></p>"
                f"<figure><img src={src} alt='{alt_named}'/>"
                f"<figcaption>{cap_named}</figcaption></figure>"
            )
        else:
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f"<FIGURE><IMG ALT=\"{alt_num}\" SRC=\"{src}\">"
                f"<FIGCAPTION>{cap.replace('&', '&#38;')}</FIGCAPTION>"
                "</FIGURE>"
                "<FIGURE><IMG SRC=\"/icon.svg\" ALT=\"\"></FIGURE>"
                "</BODY></HTML>"
            )
    return pa.table({"html": pa.array(docs, pa.string())})


class FigureExtractUDF:
    """Recover (p_partkey, src, alt, caption) image-text pairs: every
    ``<figure>`` in document order whose descendants include an
    ``<img>`` with a NON-EMPTY ``alt`` and a ``<figcaption>`` emits one
    pair (first img / first figcaption in document order). Bare images,
    empty-alt tracking pixels and caption-less or image-less figures
    never extract — the pair-mining rule a CLIP-style corpus builder
    applies. The key parses from the src path digits."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, srcs, alts, caps = [], [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "figure":
                    img = cap_el = None
                    inner = list(reversed(node.children))
                    while inner:
                        c = inner.pop()
                        if not isinstance(c, Element):
                            continue
                        if c.name == "img" and img is None:
                            img = c
                        elif c.name == "figcaption" and cap_el is None:
                            cap_el = c
                        inner.extend(reversed(c.children))
                    if (img is not None and cap_el is not None
                            and img.attrs.get("alt")):
                        src = img.attrs.get("src", "")
                        keys.append(int(src.rsplit("/", 1)[-1]
                                        .split(".", 1)[0]))
                        srcs.append(src)
                        alts.append(img.attrs["alt"])
                        caps.append(element_text(cap_el))
                    continue  # figures never nest here
                stack.extend(reversed(node.children))
        return pa.table({
            "p_partkey": pa.array(keys, pa.int64()),
            "src": pa.array(srcs, pa.string()),
            "alt": pa.array(alts, pa.string()),
            "caption": pa.array(caps, pa.string()),
        })


# ---------------------------------------------------------------------------
# JSON-LD structured-data extraction (<script type="application/ld+json">)
# ---------------------------------------------------------------------------


def _jsonld_obj(k: int, c: int, prio: str) -> dict:
    """The canonical schema.org Product object for one orders row —
    shared by the render (JSON-encoded into a script element) and the
    pytest expectations; the oracle mirrors the leaf fields as SQL
    concats. The description carries a literal ``</script>`` (escaped
    as ``<\\/script>`` in the JSON encodings, as real-world JSON-LD
    must, since an unescaped one would terminate the script element
    mid-string per the WHATWG script-data rules)."""
    return {
        "@context": "https://schema.org",
        "@type": "Product",
        "sku": f"SKU-{k}",
        "name": f"Order {k} & customer {c}",
        "category": prio,
        "description": f'trap </script> & "quotes" for {k}',
    }


def render_order_jsonld(batch: pa.Table) -> pa.Table:
    """One HTML page per orders row carrying exactly one
    ``<script type="application/ld+json">`` block (plus decoy scripts
    that must NOT extract: a bare ``<script>`` with JS containing
    ``1 < 2 && ...`` — script-data ``<`` must not open a tag — and a
    ``type="text/javascript"`` one), with the SAME JSON object in one
    of three encodings by ``o_orderkey % 3``:

    - style 0: pretty-printed (indent=2), ``</`` escaped as ``<\\/``.
    - style 1: compact separators, same ``<\\/`` escape.
    - style 2: compact with ``\\u0026``/``\\u003c``/``\\u003e`` unicode
      escapes for every ``&`` ``<`` ``>`` (no raw specials at all).

    All three json.loads to the identical object. Script content is
    RAWTEXT: the parser must hand it through verbatim — no character
    references, no tag recognition inside."""
    import json

    keys = batch.column("o_orderkey").to_pylist()
    custs = batch.column("o_custkey").to_pylist()
    prios = batch.column("o_orderpriority").to_pylist()

    docs = []
    for k, c, pr in zip(keys, custs, prios):
        obj = _jsonld_obj(int(k), int(c), pr)
        style = k % 3
        if style == 0:
            body = json.dumps(obj, indent=2).replace("</", "<\\/")
        elif style == 1:
            body = json.dumps(obj, separators=(",", ":")).replace(
                "</", "<\\/")
        else:
            body = (json.dumps(obj, separators=(",", ":"))
                    .replace("&", "\\u0026").replace("<", "\\u003c")
                    .replace(">", "\\u003e"))
        docs.append(
            "<!DOCTYPE html><html><head>"
            "<script>var x = 1 < 2 && y > 0;</script>"
            f"<script type=\"application/ld+json\">{body}</script>"
            "<script type=\"text/javascript\">if (a<b) {track()}</script>"
            "</head><body><p>order page</p></body></html>"
        )
    return pa.table({"html": pa.array(docs, pa.string())})


class JsonLdExtractUDF:
    """Recover (o_orderkey, name, category, description) from each
    page's ``application/ld+json`` script blocks: walk the DOM, take
    every ``<script>`` whose ``type`` attribute is exactly
    ``application/ld+json`` (ASCII-lowercased — attribute VALUES keep
    case, so the compare normalizes), json.loads its RAWTEXT content,
    and emit the Product leaf fields. The key parses from the sku."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json

        from ..html.dom import Element
        from ..html.parser import parse

        keys, names, cats, descs = [], [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "script":
                    if (node.attrs.get("type", "").strip().lower()
                            == "application/ld+json"):
                        obj = json.loads(element_text(node))
                        keys.append(int(obj["sku"][4:]))
                        names.append(obj["name"])
                        cats.append(obj["category"])
                        descs.append(obj["description"])
                    continue
                stack.extend(reversed(node.children))
        return pa.table({
            "o_orderkey": pa.array(keys, pa.int64()),
            "name": pa.array(names, pa.string()),
            "category": pa.array(cats, pa.string()),
            "description": pa.array(descs, pa.string()),
        })


# ---------------------------------------------------------------------------
# Form-field extraction (<form>/<input>/<select>/<textarea>) — IN_SELECT
# ---------------------------------------------------------------------------

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
             "MACHINERY")


def _form_note(k: int) -> str:
    """Canonical textarea note for one customer — carries a character
    reference target (&) AND literal markup (<b>…</b>) that RCDATA must
    keep as TEXT: references decode inside <textarea>, tags do not."""
    return f"note {k} & co <b>unbolded</b>"


def render_customer_forms(batch: pa.Table) -> pa.Table:
    """One HTML page per customer row carrying a signup form — a text
    input holding ``c_name``, a 5-option segment ``<select>`` with the
    customer's segment ``selected``, and a ``<textarea>`` note — in one
    of three markup styles by ``c_custkey % 3``:

    - style 0: fully closed ``</option>`` tags, quoted attributes,
      ``selected="selected"``, no leading LF in the textarea.
    - style 1: OMITTED ``</option>`` end tags (the IN_SELECT implied
      close; reference TreeBuilder.cs IN_SELECT option handling), a
      stray ``<b>`` between options that IN_SELECT must IGNORE,
      unquoted attribute values, minimized ``selected``, and a leading
      LF after ``<textarea>`` that the WHATWG rule must DROP.
    - style 2: UPPERCASE tags, an ``<optgroup>`` wrapping the options,
      numeric character reference (&#38;) in the note, leading LF.

    The note text carries ``&`` (escaped in the render — RCDATA
    decodes character references) and a literal ``<b>…</b>`` (RCDATA
    does NOT tokenize tags), so both halves of the RCDATA contract are
    in the graded value."""
    keys = batch.column("c_custkey").to_pylist()
    names = batch.column("c_name").to_pylist()
    segs = batch.column("c_mktsegment").to_pylist()

    docs = []
    for k, nm, sg in zip(keys, names, segs):
        note = _form_note(int(k))
        note_named = note.replace("&", "&amp;")
        note_num = note.replace("&", "&#38;")
        style = k % 3
        if style == 0:
            opts = "".join(
                f'<option value="{s}"'
                + (' selected="selected"' if s == sg else "")
                + f">{s}</option>" for s in _SEGMENTS)
            docs.append(
                "<!DOCTYPE html><html><body>"
                f'<form id="f-{k}" action="/signup" method="post">'
                f'<label for="cust_name">Name</label>'
                f'<input type="text" name="cust_name" value="{nm}">'
                f'<select name="segment">{opts}</select>'
                f'<textarea name="note">{note_named}</textarea>'
                "</form></body></html>"
            )
        elif style == 1:
            opts = "".join(
                f"<option{' selected' if s == sg else ''}>{s}"
                + ("<b>" if s == _SEGMENTS[1] else "")
                for s in _SEGMENTS)
            docs.append(
                f"<form id=f-{k} action=/signup>"
                f"<input type=text name=cust_name value={nm}>"
                f"<select name=segment>{opts}</select>"
                f"<textarea name=note>\n{note_named}</textarea>"
                "</form>"
            )
        else:
            opts = "".join(
                f'<OPTION VALUE="{s}"'
                + (" SELECTED" if s == sg else "")
                + f">{s}</OPTION>" for s in _SEGMENTS)
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f'<FORM ID="f-{k}" ACTION="/signup">'
                f'<INPUT TYPE="text" NAME="cust_name" VALUE="{nm}">'
                f'<SELECT NAME="segment">'
                f'<OPTGROUP LABEL="all">{opts}</OPTGROUP></SELECT>'
                f"<TEXTAREA NAME=\"note\">\n{note_num}</TEXTAREA>"
                "</FORM></BODY></HTML>"
            )
    return pa.table({"html": pa.array(docs, pa.string())})


class FormExtractUDF:
    """Recover (c_custkey, cust_name, segment, note) from each page's
    form: the text input's ``value`` attribute, the ``selected``
    option's TEXT (reached through an optional optgroup — any
    descendant option of the select), and the textarea's RCDATA text
    (leading LF already parser-dropped, references decoded, literal
    markup kept). The key parses from the form's ``id``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, names, segs, notes = [], [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "form":
                    keys.append(int(node.attrs["id"][2:]))
                    name = seg = note = ""
                    inner = [node]
                    while inner:
                        el = inner.pop()
                        if not isinstance(el, Element):
                            continue
                        if (el.name == "input"
                                and el.attrs.get("name") == "cust_name"):
                            name = el.attrs.get("value", "")
                        elif (el.name == "option"
                              and "selected" in el.attrs):
                            seg = element_text(el)
                        elif (el.name == "textarea"
                              and el.attrs.get("name") == "note"):
                            note = element_text(el)
                        inner.extend(el.children)
                    names.append(name)
                    segs.append(seg)
                    notes.append(note)
                    continue
                stack.extend(reversed(node.children))
        return pa.table({
            "c_custkey": pa.array(keys, pa.int64()),
            "cust_name": pa.array(names, pa.string()),
            "segment": pa.array(segs, pa.string()),
            "note": pa.array(notes, pa.string()),
        })


def render_part_dls(batch: pa.Table) -> pa.Table:
    """One HTML page per part row carrying exactly one keyed ``<dl>``
    definition list ((brand, type, size) pairs) plus decoys that must
    NOT extract (a second ``<dl>`` holding a dangling ``<dt>`` with no
    following ``<dd>``, and an empty ``<dl>``), in one of three markup
    styles by ``p_partkey % 3``:

    - style 0: fully closed ``<dt>…</dt><dd>…</dd>`` — the baseline.
    - style 1: NO ``</dt>``/``</dd>`` anywhere — every ``<dt>``/``<dd>``
      start tag must IMPLY the close of the open one (the WHATWG
      dd/dt implied-end-tag group; reference TreeBuilder.cs StartTag
      dd/dt case — ImplicitlyCloseP-family machinery; engine
      html/treebuilder.py dd/dt handling), so the pairs still nest as
      siblings and no definition swallows the next term.
    - style 2: UPPERCASE tags, unclosed, an open ``<p>`` inside each
      ``<dd>`` that the NEXT ``<dt>``/``</dl>`` must imply-close, and
      spaces in the definition text rendered as numeric ``&#32;``
      character references (the text-content NCR path).

    All styles converge to the identical (term, definition) pairs, so
    the oracle is plain SQL over ``part``."""
    keys = batch.column("p_partkey").to_pylist()
    brands = batch.column("p_brand").to_pylist()
    types = batch.column("p_type").to_pylist()
    sizes = batch.column("p_size").to_pylist()

    docs = []
    for k, br, ty, sz in zip(keys, brands, types, sizes):
        pairs = [("brand", br), ("type", ty), ("size", str(int(sz)))]
        style = k % 3
        if style == 0:
            body = "".join(f"<dt>{t}</dt><dd>{d}</dd>"
                           for t, d in pairs)
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"<dl id=\"p-{k}\">{body}</dl>"
                "<dl><dt>orphan term</dt></dl>"
                "</body></html>"
            )
        elif style == 1:
            body = "".join(f"<dt>{t}<dd>{d}" for t, d in pairs)
            docs.append(
                f"<dl id=p-{k}>{body}</dl><dl></dl>"
                "<dl><dt>orphan term</dl>"
            )
        else:
            body = "".join(
                f"<DT>{t}<DD><P>{d.replace(' ', '&#32;')}"
                for t, d in pairs)
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f"<DL ID=\"p-{k}\">{body}</DL>"
                "<DL><DT>orphan&#32;term</DL>"
                "</BODY></HTML>"
            )
    out = pa.table({
        "p_partkey": batch.column("p_partkey").cast(pa.int64()),
        "html": pa.array(docs, pa.string()),
    })
    return out


class DlExtractUDF:
    """Recover (p_partkey, term, definition) rows from each page: for
    every keyed ``<dl>`` (id = "p-<k>"), pair each ``<dt>`` child with
    the text of the next ``<dd>`` sibling before the following
    ``<dt>``; a ``<dt>`` with no following ``<dd>`` (the decoy) emits
    nothing. Correct pairing REQUIRES the implied dd/dt end tags —
    if the parser nested the unclosed elements, every definition
    would swallow the rest of the list."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, terms, defs = [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "dl":
                    key = node.attrs.get("id", "")
                    if not key.startswith("p-"):
                        continue
                    k = int(key[2:])
                    pend = None
                    for kid in node.children:
                        if not isinstance(kid, Element):
                            continue
                        if kid.name == "dt":
                            pend = element_text(kid)
                        elif kid.name == "dd" and pend is not None:
                            keys.append(k)
                            terms.append(pend)
                            defs.append(element_text(kid))
                            pend = None
                    continue
                stack.extend(reversed(node.children))
        return pa.table({
            "p_partkey": pa.array(keys, pa.int64()),
            "term": pa.array(terms, pa.string()),
            "definition": pa.array(defs, pa.string()),
        })


def render_customer_formatting(batch: pa.Table) -> pa.Table:
    """One HTML page per customer row whose text divides into four
    segments by FORMATTING ANCESTRY — A bold-only, B bold+italic,
    C italic-only, P plain — in one of three markup styles by
    ``c_custkey % 3``:

    - style 0: properly nested ``<b>A<i>B</i></b><i>C</i>P``.
    - style 1: MISNESTED ``<b>A<i>B</b>C</i>P`` — recovering the
      correct ancestry requires the ADOPTION AGENCY ALGORITHM (the
      ``</b>`` must split the open ``<i>`` so B stays bold+italic
      while C comes out italic-only; reference TreeBuilder.cs
      AdoptionAgencyEndTag; engine html/treebuilder.py adoption
      agency). A parser that simply popped to ``</b>`` would strip
      C's italics; one that ignored the stray ``</b>`` would leave
      C bold.
    - style 2: the same misnesting in UPPERCASE with ``&#32;`` numeric
      references for the spaces of C and P (text-content NCR path).

    All styles converge to identical (bold_text, italic_text,
    plain_text) triples, so the oracle is plain SQL concat over
    ``customer``."""
    keys = batch.column("c_custkey").to_pylist()
    names = batch.column("c_name").to_pylist()
    segs = batch.column("c_mktsegment").to_pylist()
    nats = batch.column("c_nationkey").to_pylist()

    docs = []
    for k, nm, sg, nk in zip(keys, names, segs, nats):
        a, b = nm, sg
        c = f"nation {int(nk)}"
        p = f"plain {int(k)}"
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"<p id=\"c-{k}\"><b>{a}<i>{b}</i></b>"
                f"<i>{c}</i>{p}</p>"
                "</body></html>"
            )
        elif style == 1:
            docs.append(
                f"<p id=c-{k}><b>{a}<i>{b}</b>{c}</i>{p}</p>"
            )
        else:
            c32 = c.replace(" ", "&#32;")
            p32 = p.replace(" ", "&#32;")
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f"<P ID=\"c-{k}\"><B>{a}<I>{b}</B>{c32}</I>{p32}</P>"
                "</BODY></HTML>"
            )
    return pa.table({
        "c_custkey": batch.column("c_custkey").cast(pa.int64()),
        "html": pa.array(docs, pa.string()),
    })


class FormattingExtractUDF:
    """Recover (c_custkey, bold_text, italic_text, plain_text) from
    each page: concatenate the keyed ``<p>``'s descendant text nodes
    by formatting ancestry (has-``<b>``-ancestor / has-``<i>``-
    ancestor / neither), in document order. The misnested styles only
    classify correctly if the adoption agency reparented the split
    ``<i>`` — making AAA observable in the graded value."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element, Text
        from ..html.parser import parse

        keys, bolds, italics, plains = [], [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            target = None
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "p" \
                        and node.attrs.get("id", "").startswith("c-"):
                    target = node
                    break
                stack.extend(reversed(node.children))
            if target is None:
                continue
            b_txt, i_txt, p_txt = [], [], []
            walk = [(c, False, False)
                    for c in reversed(target.children)]
            while walk:
                n, in_b, in_i = walk.pop()
                if isinstance(n, Text):
                    if in_b:
                        b_txt.append(n.data)
                    if in_i:
                        i_txt.append(n.data)
                    if not in_b and not in_i:
                        p_txt.append(n.data)
                    continue
                nb = in_b or (isinstance(n, Element)
                              and n.name == "b")
                ni = in_i or (isinstance(n, Element)
                              and n.name == "i")
                walk.extend((c, nb, ni)
                            for c in reversed(n.children))
            keys.append(int(target.attrs["id"][2:]))
            bolds.append("".join(b_txt))
            italics.append("".join(i_txt))
            plains.append("".join(p_txt))
        return pa.table({
            "c_custkey": pa.array(keys, pa.int64()),
            "bold_text": pa.array(bolds, pa.string()),
            "italic_text": pa.array(italics, pa.string()),
            "plain_text": pa.array(plains, pa.string()),
        })


def render_supplier_fosters(batch: pa.Table) -> pa.Table:
    """One HTML page per supplier row with a keyed ``<table>`` and a
    text note that must end up IMMEDIATELY BEFORE the table in the
    body, in one of three markup styles by ``s_suppkey % 3``:

    - style 0: the note written properly before the table (baseline).
    - style 1: the note written INSIDE ``<table>`` before ``<tr>`` —
      FOSTER PARENTING must relocate it before the table (reference
      TreeBuilder.cs foster-parenting paths / pending table character
      tokens; engine html/treebuilder.py foster machinery), and the
      bare ``<tr>`` needs the implied ``<tbody>`` fix-up.
    - style 2: the note written inside ``<TR>`` (pending table chars
      flushed from IN_ROW), UPPERCASE, with ``&#32;`` refs for the
      note's spaces.

    All styles converge to the same (note before table, cell text)
    pair, so the oracle is plain SQL over ``supplier``."""
    keys = batch.column("s_suppkey").to_pylist()
    names = batch.column("s_name").to_pylist()
    nats = batch.column("s_nationkey").to_pylist()

    docs = []
    for k, nm, nk in zip(keys, names, nats):
        note = f"note {nm}"
        cell = f"acct {int(nk)}"
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"{note}<table id=\"t-{k}\"><tbody><tr>"
                f"<td>{cell}</td></tr></tbody></table>"
                "</body></html>"
            )
        elif style == 1:
            docs.append(
                f"<table id=t-{k}>{note}<tr><td>{cell}</table>"
            )
        else:
            n32 = note.replace(" ", "&#32;")
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f"<TABLE ID=\"t-{k}\"><TR>{n32}<TD>{cell}</TABLE>"
                "</BODY></HTML>"
            )
    return pa.table({
        "s_suppkey": batch.column("s_suppkey").cast(pa.int64()),
        "html": pa.array(docs, pa.string()),
    })


class FosterExtractUDF:
    """Recover (s_suppkey, fostered, cell) from each page: the keyed
    table's preceding text siblings (concatenated) and its first
    ``<td>``'s text. In the misplaced styles the note only lands
    before the table if foster parenting ran."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element, Text
        from ..html.parser import parse

        keys, notes, cells = [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            # find the keyed table and its parent by walking with
            # an explicit parent pointer
            stack = [(root, None)]
            table, parent = None, None
            while stack:
                node, par = stack.pop()
                if isinstance(node, Element) \
                        and node.name == "table" \
                        and node.attrs.get("id", "").startswith("t-"):
                    table, parent = node, par
                    break
                stack.extend((c, node)
                             for c in reversed(node.children))
            if table is None:
                continue
            acc = []
            for sib in parent.children:
                if sib is table:
                    break
                if isinstance(sib, Text):
                    acc.append(sib.data)
            td_stack = [table]
            cell = ""
            while td_stack:
                n = td_stack.pop()
                if isinstance(n, Element) and n.name == "td":
                    cell = element_text(n)
                    break
                td_stack.extend(reversed(n.children))
            keys.append(int(table.attrs["id"][2:]))
            notes.append("".join(acc))
            cells.append(cell)
        return pa.table({
            "s_suppkey": pa.array(keys, pa.int64()),
            "fostered": pa.array(notes, pa.string()),
            "cell": pa.array(cells, pa.string()),
        })


def render_part_svgs(batch: pa.Table) -> pa.Table:
    """One HTML page per part row with a keyed inline ``<svg>`` figure
    — foreignObject HTML island, self-closable circle, text label —
    in one of three markup styles by ``p_partkey % 3``:

    - style 0: ALL-LOWERCASE foreign tags and attributes
      (``<foreignobject``, ``viewbox``, ``textlength``) — the parser
      must CASE-ADJUST them to the SVG camelCase names (reference
      TreeBuilder.cs adjust tables / ElementName & AttributeName
      camelCase data; engine html/constants.py adjust maps), or the
      extractor's ``attrs["viewBox"]`` lookups find nothing.
    - style 1: ALL-UPPERCASE (same adjustment, opposite direction).
    - style 2: spec-cased input with single-quoted attributes and an
      ACKNOWLEDGED SELF-CLOSING ``<circle .../>`` (legal only in
      foreign content — the HTML side treats ``/`` as a parse error).

    The ``<b>`` island inside foreignObject exercises the HTML
    INTEGRATION POINT (HTML rules resume inside it). All styles
    converge, so the oracle is plain SQL over ``part``."""
    keys = batch.column("p_partkey").to_pylist()
    names = batch.column("p_name").to_pylist()
    brands = batch.column("p_brand").to_pylist()
    sizes = batch.column("p_size").to_pylist()

    docs = []
    for k, nm, br, sz in zip(keys, names, brands, sizes):
        sz = int(sz)
        vb = f"0 0 {sz} {sz}"
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"<svg id=\"s-{k}\" viewbox=\"{vb}\">"
                f"<foreignobject><b>{br}</b></foreignobject>"
                f"<circle r=\"{sz}\"></circle>"
                f"<text textlength=\"{sz}\">{nm}</text>"
                "</svg></body></html>"
            )
        elif style == 1:
            docs.append(
                f"<SVG ID=\"s-{k}\" VIEWBOX=\"{vb}\">"
                f"<FOREIGNOBJECT><B>{br}</B></FOREIGNOBJECT>"
                f"<CIRCLE R=\"{sz}\"></CIRCLE>"
                f"<TEXT TEXTLENGTH=\"{sz}\">{nm}</TEXT>"
                "</SVG>"
            )
        else:
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"<svg id='s-{k}' viewBox='{vb}'>"
                f"<foreignObject><b>{br}</b></foreignObject>"
                f"<circle r='{sz}'/>"
                f"<text textLength='{sz}'>{nm}</text>"
                "</svg></body></html>"
            )
    return pa.table({
        "p_partkey": batch.column("p_partkey").cast(pa.int64()),
        "html": pa.array(docs, pa.string()),
    })


class SvgExtractUDF:
    """Recover (p_partkey, viewbox, island_text, circle_r,
    text_length, label) from each page via the ADJUSTED names only:
    ``attrs["viewBox"]`` / ``attrs["textLength"]`` / the
    ``foreignObject`` element name — lowercase/uppercase source styles
    only extract if the foreign-content adjustment ran."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, vbs, islands, rs, tls, labels = [], [], [], [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            svg = None
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "svg" \
                        and node.attrs.get("id", "").startswith("s-"):
                    svg = node
                    break
                stack.extend(reversed(node.children))
            if svg is None:
                continue
            vb, isl, rr, tl, lab = "", "", "", "", ""
            for kid in svg.children:
                if not isinstance(kid, Element):
                    continue
                if kid.name == "foreignObject":
                    for b in kid.children:
                        if isinstance(b, Element) and b.name == "b":
                            isl = element_text(b)
                elif kid.name == "circle":
                    rr = kid.attrs.get("r", "")
                elif kid.name == "text":
                    tl = kid.attrs.get("textLength", "")
                    lab = element_text(kid)
            vb = svg.attrs.get("viewBox", "")
            keys.append(int(svg.attrs["id"][2:]))
            vbs.append(vb)
            islands.append(isl)
            rs.append(rr)
            tls.append(tl)
            labels.append(lab)
        return pa.table({
            "p_partkey": pa.array(keys, pa.int64()),
            "viewbox": pa.array(vbs, pa.string()),
            "island_text": pa.array(islands, pa.string()),
            "circle_r": pa.array(rs, pa.string()),
            "text_length": pa.array(tls, pa.string()),
            "label": pa.array(labels, pa.string()),
        })


def render_order_templates(batch: pa.Table) -> pa.Table:
    """One HTML page per order row with a VISIBLE keyed ``<div>`` and
    a keyed ``<template>`` whose contents must land in the separate
    template-contents DocumentFragment (never in body text), in one of
    three markup styles by ``o_orderkey % 3``:

    - style 0: div first, template in body.
    - style 1: template FIRST — it parses in IN_HEAD, so the element
      lives under ``<head>`` while the div lands in ``<body>`` (the
      template-in-head path of the IN_TEMPLATE machinery).
    - style 2: UPPERCASE, with a NESTED decoy ``<template>`` inside —
      the decoy's contents belong to the INNER fragment, so the outer
      template's text must not include them.

    The template machinery is a BEYOND-REFERENCE feature (Validator.nu
    1.3.1 predates ``<template>``); this query puts it into the graded
    oracle gate. All styles converge, so the oracle is plain SQL over
    ``orders``."""
    keys = batch.column("o_orderkey").to_pylist()
    stats = batch.column("o_orderstatus").to_pylist()
    prios = batch.column("o_orderpriority").to_pylist()

    docs = []
    for k, st, pr in zip(keys, stats, prios):
        vis = f"status {st}"
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"<div id=\"v-{k}\">{vis}</div>"
                f"<template id=\"t-{k}\"><p>prio <b>{pr}</b></p>"
                "</template></body></html>"
            )
        elif style == 1:
            docs.append(
                f"<template id=t-{k}><p>prio <b>{pr}</b></p>"
                f"</template><div id=v-{k}>{vis}</div>"
            )
        else:
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f"<TEMPLATE ID=\"t-{k}\"><P>prio <B>{pr}</B></P>"
                "<TEMPLATE><P>decoy</P></TEMPLATE></TEMPLATE>"
                f"<DIV ID=\"v-{k}\">{vis}</DIV>"
                "</BODY></HTML>"
            )
    return pa.table({
        "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
        "html": pa.array(docs, pa.string()),
    })


class TemplateExtractUDF:
    """Recover (o_orderkey, visible, templated) from each page: the
    keyed div's text and the keyed template's CONTENT-fragment text.
    ``element_text`` walks ``children`` only, so a nested template's
    contents (which live in ITS ``content`` fragment) are excluded
    automatically — exactly the WHATWG containment contract."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element, TemplateElement
        from ..html.parser import parse

        keys, vis, tmpl = [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            div = tpl = None
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, Element):
                    nid = node.attrs.get("id", "")
                    if node.name == "div" and nid.startswith("v-"):
                        div = node
                    elif isinstance(node, TemplateElement) \
                            and nid.startswith("t-"):
                        tpl = node
                stack.extend(node.children)
            if div is None or tpl is None:
                continue
            keys.append(int(div.attrs["id"][2:]))
            vis.append(element_text(div))
            tmpl.append(element_text(tpl.content))
        return pa.table({
            "o_orderkey": pa.array(keys, pa.int64()),
            "visible": pa.array(vis, pa.string()),
            "templated": pa.array(tmpl, pa.string()),
        })


def render_nation_rubies(batch: pa.Table) -> pa.Table:
    """One HTML page per nation row with a keyed ``<ruby>`` annotation
    (rb base + rt annotation) in one of three markup styles by
    ``n_nationkey % 3``: fully closed; NO ``</rb>``/``</rt>`` (the
    ruby implied-end-tag group — ``<rt>`` must imply the open
    ``<rb>``'s close and ``</ruby>`` the open ``<rt>``'s; a DIFFERENT
    spec group than dd/dt — reference TreeBuilder.cs rt/rp handling);
    UPPERCASE unclosed with an ``&#32;`` NCR. All styles converge."""
    keys = batch.column("n_nationkey").to_pylist()
    names = batch.column("n_name").to_pylist()
    regs = batch.column("n_regionkey").to_pylist()

    docs = []
    for k, nm, rk in zip(keys, names, regs):
        anno = f"reg {int(rk)}"
        style = k % 3
        if style == 0:
            docs.append(
                "<!DOCTYPE html><html><body>"
                f"<ruby id=\"r-{k}\"><rb>{nm}</rb>"
                f"<rt>{anno}</rt></ruby></body></html>"
            )
        elif style == 1:
            docs.append(
                f"<ruby id=r-{k}><rb>{nm}<rt>{anno}</ruby>"
            )
        else:
            a32 = anno.replace(" ", "&#32;")
            docs.append(
                "<!DOCTYPE html><HTML><BODY>"
                f"<RUBY ID=\"r-{k}\"><RB>{nm}<RT>{a32}</RUBY>"
                "</BODY></HTML>"
            )
    return pa.table({
        "n_nationkey": batch.column("n_nationkey").cast(pa.int64()),
        "html": pa.array(docs, pa.string()),
    })


class RubyExtractUDF:
    """Recover (n_nationkey, base, anno) from each page: the keyed
    ruby's ``<rb>`` child text and ``<rt>`` child text — SIBLINGS only
    if the ruby implied end tags ran (a parser nesting the unclosed
    ``<rb>`` would swallow the annotation into the base)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..html.dom import Element
        from ..html.parser import parse

        keys, bases, annos = [], [], []
        for html in batch.column("html").to_pylist():
            root = parse(html).root
            stack = [root]
            ruby = None
            while stack:
                node = stack.pop()
                if isinstance(node, Element) and node.name == "ruby" \
                        and node.attrs.get("id", "").startswith("r-"):
                    ruby = node
                    break
                stack.extend(reversed(node.children))
            if ruby is None:
                continue
            base = anno = ""
            for kid in ruby.children:
                if not isinstance(kid, Element):
                    continue
                if kid.name == "rb":
                    base = element_text(kid)
                elif kid.name == "rt":
                    anno = element_text(kid)
            keys.append(int(ruby.attrs["id"][2:]))
            bases.append(base)
            annos.append(anno)
        return pa.table({
            "n_nationkey": pa.array(keys, pa.int64()),
            "base": pa.array(bases, pa.string()),
            "anno": pa.array(annos, pa.string()),
        })
