"""DOM → main-content text / spans / metrics.

The reference stops at the DOM (reference: Core/DomTreeBuilder.cs produces
the XmlDocument and Program.cs saves it); the extraction heuristics layered
here are what `BASELINE.json.north_star` requires on top: boilerplate strip
via tag identity, link-ratio and text-block scoring, emitting
``extracted_text`` + ``spans`` + ``metrics`` per turn.

The extraction hooks correspond to the reference's ElementPushed /
ElementPopped virtuals (reference: Core/TreeBuilder.cs:5719-5727) — the
natural seam for accumulating per-block statistics without a second DOM
walk; here the walk is a separate, iterative pass over the finished tree
(one tree per transcript turn, so the second pass is row-local and cheap).

The parse stage runs this walk with CPython's cyclic GC paused for the
row (``stages/parse_stage.py``, ``_on_tree``): the tree is cyclic through
``Node.parent``, and a large one growing under the collector sets off
full collections that rescan the whole heap. After the row one
young-generation pass frees the tree, so the rule is: hold no reference
to the tree past the row. ``ExtractionResult`` carries only strings,
ints and tuples, never a node.

Everything is deterministic: fixed tag sets, fixed thresholds, stable
ordering — required for byte-equality across parallel runs
(BASELINE.json north_rule).
"""

from __future__ import annotations

import re

from ..html.dom import Comment, Doctype, Element, Text, HTML_NS

# Elements whose entire subtree is never content.
_DROP_SUBTREE = frozenset([
    "script", "style", "template", "head", "iframe", "object", "embed",
    "applet", "select", "datalist", "frameset", "frame",
])
# Elements that signal page chrome; their subtree counts as boilerplate.
_CHROME = frozenset(["nav", "footer", "aside", "menu"])
# Block-level boundaries: entering one flushes the current text block.
_BLOCK = frozenset([
    "address", "article", "blockquote", "body", "caption", "center", "dd",
    "details", "dialog", "dir", "div", "dl", "dt", "fieldset", "figcaption",
    "figure", "footer", "form", "h1", "h2", "h3", "h4", "h5", "h6", "header",
    "hgroup", "hr", "html", "li", "main", "nav", "ol", "p", "plaintext",
    "pre", "section", "summary", "table", "tbody", "td", "tfoot", "th",
    "thead", "tr", "ul", "xmp", "listing", "marquee", "textarea", "aside",
    "menu", "br",
])
_PRE = frozenset(["pre", "plaintext", "xmp", "listing", "textarea"])

# One dict lookup replaces the 4-5 frozenset membership tests the hot
# walk used to do per element (profiled: extract_main_content was 16% of
# parse-stage tottime; element classification was most of it).
_F_DROP, _F_BLOCK, _F_CHROME, _F_PRE, _F_LINK = 1, 2, 4, 8, 16
_FLAGS: dict = {}
for _n in _DROP_SUBTREE:
    _FLAGS[_n] = _FLAGS.get(_n, 0) | _F_DROP
for _n in _BLOCK:
    _FLAGS[_n] = _FLAGS.get(_n, 0) | _F_BLOCK
for _n in _CHROME:
    _FLAGS[_n] = _FLAGS.get(_n, 0) | _F_CHROME
for _n in _PRE:
    _FLAGS[_n] = _FLAGS.get(_n, 0) | _F_PRE
_FLAGS["a"] = _FLAGS.get("a", 0) | _F_LINK
del _n

_WS_RUN = re.compile(r"[\t\n\f\r ]+")

# Link-farm thresholds (fixed; tuned on the fixture corpus).
_LINK_RATIO_MAX = 0.6   # blocks with more linked chars than this …
_LINK_WORDS_MIN = 25    # … are dropped unless they have at least this many words
_TAG_DENSITY_MIN_TAGS = 6  # tag-density rule kicks in at this many inline tags


class ExtractionResult:
    __slots__ = ("text", "spans", "nodes", "boilerplate_bytes")

    def __init__(self, text, spans, nodes, boilerplate_bytes):
        self.text = text
        self.spans = spans          # list of (path, start, end, tag)
        self.nodes = nodes
        self.boilerplate_bytes = boilerplate_bytes


def _norm(text: str) -> str:
    return _WS_RUN.sub(" ", text).strip()


def extract_main_content(root) -> ExtractionResult:
    """Walk the DOM iteratively (hostile-depth safe) collecting text blocks,
    then score and join the kept blocks.

    A *block* is the inline text run between block-level boundaries,
    attributed to its nearest block ancestor. Scoring per block:
      - inside chrome (nav/footer/aside/menu) → boilerplate
      - link_ratio > 0.6 and words < 25 → link-farm boilerplate
      - tag-density: >= 6 inline tags and words <= tags/2 → boilerplate
      - empty after whitespace normalization → dropped silently
    Kept blocks join with "\\n"; spans carry (path, start, end, tag).
    """
    blocks = []  # (text, link_chars, tag_count, path, tag, preformatted, in_chrome)
    blocks_append = blocks.append
    nodes = 0
    boiler_bytes = 0

    # Iterative DFS (hostile-depth safe). The block path tracks only
    # block-level ancestors, e.g. "/html[1]/body[1]/div[2]/p[1]"; sibling
    # indices count same-tag block children per parent element.
    # The flush is INLINED at its four sites with plain int accumulators
    # (profiled: the closure version was ~19 calls/doc, mostly no-ops).
    cur_parts = []          # inline text accumulation for the current block
    parts_append = cur_parts.append
    link_chars = 0
    tag_count = 0           # inline elements inside the current block
    link_depth = 0
    chrome_depth = 0
    pre_depth = 0
    block_path = "/"
    block_tag = "body"

    counters = {}  # id(parent element) -> {tag: seen count}
    ctx_stack = []  # per entered element: (was_block, prev_path, prev_tag, d_link, d_chrome, d_pre)
    node_stack = [(root, iter(root.children))]
    flags_get = _FLAGS.get
    while node_stack:
        parent, it = node_stack[-1]
        child = next(it, None)
        if child is None:
            node_stack.pop()
            if ctx_stack and isinstance(parent, Element):
                was_block, prev_path, prev_tag, d_link, d_chrome, d_pre = ctx_stack.pop()
                if was_block:
                    if cur_parts:
                        blocks_append(("".join(cur_parts), link_chars,
                                       tag_count, block_path, block_tag,
                                       pre_depth > 0, chrome_depth > 0))
                        cur_parts = []
                        parts_append = cur_parts.append
                        link_chars = 0
                        tag_count = 0
                    block_path = prev_path
                    block_tag = prev_tag
                link_depth -= d_link
                chrome_depth -= d_chrome
                pre_depth -= d_pre
            continue
        nodes += 1
        tcls = type(child)
        if tcls is Text:
            # read _parts directly: a multi-fragment run extends the
            # block accumulator as-is (the block join is the only join)
            tparts = child._parts
            if len(tparts) == 1:
                data = tparts[0]
                parts_append(data)
                if link_depth > 0:
                    link_chars += len(data)
            else:
                cur_parts.extend(tparts)
                if link_depth > 0:
                    link_chars += sum(map(len, tparts))
            continue
        if tcls is not Element:  # Comment / Doctype
            continue
        name = child.name
        if child.namespace != HTML_NS:
            # svg/math subtrees are not main text content: count and drop.
            # The root was already counted at visit — add descendants only.
            t_bytes, n_count = _subtree_stats(child)
            boiler_bytes += t_bytes
            nodes += n_count - 1
            continue
        fl = flags_get(name, 0)
        if fl & _F_DROP:
            t_bytes, n_count = _subtree_stats(child)
            boiler_bytes += t_bytes
            nodes += n_count - 1
            continue
        is_block = fl & _F_BLOCK
        if not is_block:
            tag_count += 1
        if not child.children:
            # childless (br/hr/img/empty elements): enter+exit collapses —
            # a block still flushes and claims its sibling index (later
            # siblings' paths depend on the count); depth deltas cancel
            if is_block:
                if cur_parts:
                    blocks_append(("".join(cur_parts), link_chars,
                                   tag_count, block_path, block_tag,
                                   pre_depth > 0, chrome_depth > 0))
                    cur_parts = []
                    parts_append = cur_parts.append
                    link_chars = 0
                    tag_count = 0
                cnt = counters.setdefault(id(parent), {})
                cnt[name] = cnt.get(name, 0) + 1
            continue
        d_link = 1 if fl & _F_LINK else 0
        d_chrome = 1 if fl & _F_CHROME else 0
        d_pre = 1 if fl & _F_PRE else 0
        prev_path, prev_tag = block_path, block_tag
        if is_block:
            if cur_parts:
                blocks_append(("".join(cur_parts), link_chars, tag_count,
                               block_path, block_tag,
                               pre_depth > 0, chrome_depth > 0))
                cur_parts = []
                parts_append = cur_parts.append
                link_chars = 0
                tag_count = 0
            cnt = counters.setdefault(id(parent), {})
            n = cnt.get(name, 0) + 1
            cnt[name] = n
            block_path = (
                f"/{name}[{n}]" if prev_path == "/" else f"{prev_path}/{name}[{n}]"
            )
            block_tag = name
        link_depth += d_link
        chrome_depth += d_chrome
        pre_depth += d_pre
        ctx_stack.append((is_block, prev_path, prev_tag, d_link, d_chrome, d_pre))
        node_stack.append((child, iter(child.children)))
    if cur_parts:
        blocks_append(("".join(cur_parts), link_chars, tag_count,
                       block_path, block_tag,
                       pre_depth > 0, chrome_depth > 0))

    # score blocks
    out_parts = []
    spans = []
    offset = 0
    for raw, link_chars, tag_count, path, tag, preformatted, in_chrome in blocks:
        if preformatted:
            text = raw.strip("\n")
        else:
            text = _norm(raw)
        if not text:
            continue
        if in_chrome:
            boiler_bytes += len(text.encode("utf-8"))
            continue
        total = len(raw) or 1
        link_ratio = link_chars / total
        words = text.count(" ") + 1
        if link_ratio > _LINK_RATIO_MAX and words < _LINK_WORDS_MIN:
            boiler_bytes += len(text.encode("utf-8"))
            continue
        # tag-density score: heavily-marked-up short blocks (icon bars,
        # tag clouds) are boilerplate even without anchors
        if tag_count >= _TAG_DENSITY_MIN_TAGS and words <= tag_count // 2:
            boiler_bytes += len(text.encode("utf-8"))
            continue
        start = offset
        out_parts.append(text)
        offset += len(text) + 1  # joined with "\n"
        spans.append((path, start, start + len(text), tag))
    return ExtractionResult("\n".join(out_parts), spans, nodes, boiler_bytes)


def _subtree_stats(node):
    """(text_bytes, node_count) of a dropped subtree in ONE walk (the
    hot path drops head/script/style on virtually every document, so the
    old separate byte/count walks doubled the traversal)."""
    total = 0
    count = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        count += 1
        if type(cur) is Text:
            total += len(cur.data.encode("utf-8"))
        else:
            stack.extend(cur.children)
            content = getattr(cur, "content", None)
            if content is not None:  # <template> contents fragment
                stack.extend(content.children)
    return total, count
