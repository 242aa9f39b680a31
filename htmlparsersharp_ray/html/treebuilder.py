"""WHATWG HTML5 tree builder.

Reimplements the reference's tree construction
(reference: Core/TreeBuilder.cs — 22 insertion modes :1378-4132, adoption
agency :4679-4863, active-formatting reconstruction :5017-5075, foster
parenting :5077-5088, foreign content :1415-1506, scope searches
:4134-4236, ResetTheInsertionMode :4431-4529) as an original Python
implementation of the published WHATWG tree-construction algorithm.

Beyond the reference: full <template> content machinery (the "in
template" insertion mode, the stack of template insertion modes, template
contents as a separate DocumentFragment, template-aware foster parenting
and form-pointer handling) — Validator.nu 1.3.1 predates <template>
(/root/reference/README.md:10), but modern transcript HTML contains it.

Deliberate divergences (SURVEY.md §7.5): no document.write
speculation/snapshots, scripting disabled by default (reference default:
TreeBuilder.cs:128), error messages collapse to a counter while error
*recovery* follows the spec exactly.
"""

from __future__ import annotations

from .dom import (
    Comment,
    Doctype,
    Document,
    DocumentFragment,
    Element,
    TemplateElement,
    Text,
    HTML_NS,
    MATHML_NS,
    SVG_NS,
)
from .constants import (
    ALMOST_STANDARDS_PREFIXES,
    BREAKOUT,
    CLOSE_P_BLOCKS,
    DEFAULT_SCOPE,
    FOREIGN_ATTR_ADJUST,
    FORMATTING,
    HEADINGS,
    IMPLIED_END_TAGS,
    IMPLIED_END_TAGS_THOROUGH,
    MATHML_ATTR_ADJUST,
    MATHML_TEXT_INTEGRATION,
    QUIRKY_IF_NO_SYSTEM_PREFIXES,
    QUIRKY_PUBLIC_EXACT,
    QUIRKY_PUBLIC_PREFIXES,
    QUIRKY_SYSTEM_EXACT,
    RAWTEXT_ELEMENTS,
    RCDATA_ELEMENTS,
    SVG_ATTR_ADJUST,
    SVG_ELEMENT_ADJUST,
    is_html_integration_point,
    is_special,
)
from . import tokenizer as tok

# Insertion modes (reference: Core/InsertionMode.cs:29-74)
INITIAL = 0
BEFORE_HTML = 1
BEFORE_HEAD = 2
IN_HEAD = 3
IN_HEAD_NOSCRIPT = 4
AFTER_HEAD = 5
IN_BODY = 6
TEXT = 7
IN_TABLE = 8
IN_TABLE_TEXT = 9
IN_CAPTION = 10
IN_COLUMN_GROUP = 11
IN_TABLE_BODY = 12
IN_ROW = 13
IN_CELL = 14
IN_SELECT = 15
IN_SELECT_IN_TABLE = 16
AFTER_BODY = 17
IN_FRAMESET = 18
AFTER_FRAMESET = 19
AFTER_AFTER_BODY = 20
AFTER_AFTER_FRAMESET = 21
IN_TEMPLATE = 22  # WHATWG template machinery (beyond the reference)

_WS = "\t\n\f "
_MARKER = None  # active-formatting-list marker (reference: null entries)

_TABLE_CONTEXT = ("table", "tbody", "tfoot", "thead", "tr")
_IMPLIED_END_SKIP_LI = frozenset(["li"])
_LIST_SCOPE_STOP = DEFAULT_SCOPE | frozenset(["ol", "ul"])
_BUTTON_SCOPE_STOP = DEFAULT_SCOPE | frozenset(["button"])


class _FmtEntry:
    """Active-formatting-list entry: the element plus the token data needed
    to clone it (reference: StackNode flags/name/attrs, Core/StackNode.cs)."""

    __slots__ = ("element", "name", "attrs")

    def __init__(self, element, name, attrs):
        self.element = element
        self.name = name
        self.attrs = attrs


# content-model-switching elements stay insertable at the depth cap:
# they consume their content as text and pop via the TEXT mode, so the
# stack grows by at most one transient entry — dropping them instead
# would spill raw script/style source into extracted text
_DEPTH_CAP_EXEMPT = frozenset((
    "script", "style", "title", "textarea", "xmp", "iframe",
    "noembed", "noframes", "plaintext",
))

_RUN_ERROR_CODES = {
    "nul": "unexpected-null-character",
    "foster": "foster-parenting-text",
    "colgroup-text": "unexpected-text-in-colgroup",
    "frameset-text": "unexpected-text-after-frameset",
}

class TreeBuilder:
    """Token sink building a DOM; fused with the tokenizer per document
    (reference: tokenizer/tree-builder co-routine, SURVEY.md §2.3)."""

    def __init__(self, scripting: bool = False, ignore_comments: bool = False,
                 doctype_expectation: str = "no-doctype-errors"):
        self.scripting = scripting
        # reference knob IsIgnoringComments (TreeBuilder.cs:5752-5762)
        self.ignore_comments = ignore_comments
        # reference knob DoctypeExpectation
        # (Common/DoctypeExpectation.cs:39-68): html / html401-strict /
        # html401-transitional / auto / no-doctype-errors — see
        # _doctype_policy_events. Engine default is the survey mode.
        if doctype_expectation not in (
                "html", "html401-strict", "html401-transitional",
                "auto", "no-doctype-errors"):
            raise ValueError(
                f"unknown doctype_expectation {doctype_expectation!r}")
        self.doctype_expectation = doctype_expectation
        self.warnings = 0
        # Hostile-input guards (SURVEY §7.4.7). max_open_depth caps the
        # open-elements stack the way production engines do (Chromium
        # ships 512): a start tag arriving at the cap is DROPPED (error
        # + flag; text keeps flowing into the current element, so
        # extraction loses structure, not content). This also bounds
        # every scope search, killing the O(depth²) blowup a
        # 300k-deep <div> nest otherwise causes (measured: 1.8 MB of
        # divs > 300 s pre-cap). max_nodes caps total DOM nodes: past
        # it, element AND text insertion stop (flag recorded) so a
        # hostile many-node turn cannot blow an actor's heap. Pass None
        # to lift either (strict-conformance runs).
        self.max_open_depth = 512
        self.max_nodes = 4_000_000
        self.depth_capped = False
        self.node_capped = False
        self.node_count = 0
        # recorded <meta charset> declaration (reference: CheckMetaCharset
        # TreeBuilder.cs:3213-3244 + EncodingDeclared event; like the
        # reference we never re-decode — input is already str)
        self.encoding_declared = None
        self.doc = Document()
        self.open = []
        self.afe = []  # active formatting elements; None entries are markers
        self.head_el = None
        self.form_el = None
        self.mode = INITIAL
        self.original_mode = IN_BODY
        self.template_modes = []  # stack of template insertion modes
        self.frameset_ok = True
        self.pending_table_text = []
        self.ignore_next_lf = False
        self.errors = 0
        self.token_count = 0  # tokens received (reference: metrics per north_star)
        # text RUN coalescing for the count: consecutive characters()
        # calls are one token, so the metric is invariant to how the
        # tokenizer (or the chunked feed, html/feed.py) splits a run
        self._prev_text = False
        self._run_errs = None
        self.tokenizer = None  # set by parser
        self.fragment_ctx = None  # context Element for fragment parsing
        self.done = False

    # ------------------------------------------------------------------ util
    def error(self, code: str | None = None):
        self.errors += 1
        tok = self.tokenizer
        if tok is not None:
            if tok.error_offsets is not None:
                # reference parity: tree-builder errors report the
                # tokenizer's current position (TaintableLocator
                # semantics)
                tok.error_offsets.append(tok.mark)
            if tok.error_log is not None:
                tok.error_log.append(
                    (tok.mark, code or "tree-construction"))

    def _adjusted_current(self):
        if self.fragment_ctx is not None and len(self.open) == 1:
            return self.fragment_ctx
        return self.open[-1]

    def cdata_allowed(self):
        if not self.open:
            return False
        node = self._adjusted_current()
        return node.namespace != HTML_NS

    # -- insertion location / foster parenting ------------------------------
    def _appropriate_parent(self, override=None):
        """Returns (parent, before_ref) — the appropriate place for
        inserting a node (reference: InsertIntoFosterParent,
        TreeBuilder.cs:5077-5088)."""
        target = override if override is not None else self.open[-1]
        if self.foster and target.namespace == HTML_NS and target.name in _TABLE_CONTEXT:
            # spec: compare LAST TEMPLATE vs LAST TABLE in the stack; a
            # template above the table captures the foster-parented node
            # into its contents
            for i in range(len(self.open) - 1, -1, -1):
                node = self.open[i]
                if type(node) is TemplateElement:
                    return node.content, None
                if node.name == "table" and node.namespace == HTML_NS:
                    if node.parent is not None:
                        return node.parent, node
                    return self.open[i - 1], None
            return self.open[0], None
        if type(target) is TemplateElement:
            return target.content, None
        return target, None

    foster = False

    def _insert_text(self, data):
        if self.node_capped:
            return
        self.node_count += 1
        parent, ref = self._appropriate_parent()
        if ref is None:
            parent.append_text(data)
        else:
            parent.insert_text_before(data, ref)

    def _insert_element(self, name, attrs, namespace=HTML_NS, push=True):
        cls = (
            TemplateElement
            if name == "template" and namespace == HTML_NS
            else Element
        )
        el = cls(
            name, namespace,
            attrs if attrs else {},
        )
        if self.node_capped:
            # past the node cap, spec recovery paths may still
            # synthesize elements (e.g. the </p>-implies-<p> rule):
            # keep the machinery consistent with a DETACHED node —
            # pushed if asked, never attached to the document
            if push:
                self.open.append(el)
            return el
        parent, ref = self._appropriate_parent()
        if ref is None:
            parent.append(el)
        else:
            parent.insert_before(el, ref)
        if push:
            self.open.append(el)
        self.node_count += 1
        if (self.max_nodes is not None
                and self.node_count >= self.max_nodes
                and not self.node_capped):
            self.node_capped = True
            self.error("node-count-limit")
        return el

    def _insert_foreign(self, name, attrs_adjusted, namespace, push=True,
                        attr_ns=None):
        el = Element(name, namespace, attrs_adjusted, attr_ns)
        if self.node_capped:
            if push:
                self.open.append(el)
            return el
        parent, ref = self._appropriate_parent()
        if ref is None:
            parent.append(el)
        else:
            parent.insert_before(el, ref)
        if push:
            self.open.append(el)
        self.node_count += 1
        if (self.max_nodes is not None
                and self.node_count >= self.max_nodes
                and not self.node_capped):
            self.node_capped = True
            self.error("node-count-limit")
        return el

    def _pop_until(self, *names):
        """Pop until an HTML element with one of ``names`` is popped."""
        while self.open:
            node = self.open.pop()
            if node.namespace == HTML_NS and node.name in names:
                return node
        return None

    # -- scope searches (reference: TreeBuilder.cs:4134-4236) ----------------
    def _has_in_scope_set(self, names, stop_set):
        # ONE namespace test per node (profiled hot: ~40k calls per 3k
        # docs); names/stop tests only on the taken branch
        for node in reversed(self.open):
            ns = node.namespace
            if ns == HTML_NS:
                name = node.name
                if name in names:
                    return True
                if name in stop_set:
                    return False
            elif ns == MATHML_NS:
                if node.name in ("mi", "mo", "mn", "ms", "mtext", "annotation-xml"):
                    return False
            elif ns == SVG_NS:
                if node.name in ("foreignObject", "desc", "title"):
                    return False
        return False

    def _in_scope(self, name):
        return self._has_in_scope_set((name,), DEFAULT_SCOPE)

    def _in_scope_any(self, names):
        return self._has_in_scope_set(names, DEFAULT_SCOPE)

    def _in_list_scope(self, name):
        return self._has_in_scope_set((name,), _LIST_SCOPE_STOP)

    def _in_button_scope(self, name):
        return self._has_in_scope_set((name,), _BUTTON_SCOPE_STOP)

    def _in_table_scope(self, name):
        for node in reversed(self.open):
            if node.namespace != HTML_NS:
                continue
            if node.name == name:
                return True
            if node.name in ("html", "table", "template"):
                return False
        return False

    def _in_table_scope_any(self, names):
        for node in reversed(self.open):
            if node.namespace != HTML_NS:
                continue
            if node.name in names:
                return True
            if node.name in ("html", "table", "template"):
                return False
        return False

    def _in_select_scope(self, name):
        for node in reversed(self.open):
            if node.namespace != HTML_NS:
                return False
            if node.name == name:
                return True
            if node.name not in ("optgroup", "option"):
                return False
        return False

    def _el_in_scope(self, element):
        """Scope check on an element identity (for adoption agency)."""
        for node in reversed(self.open):
            if node is element:
                return True
            if is_special(node.name, node.namespace) and (
                (node.namespace == HTML_NS and node.name in DEFAULT_SCOPE)
                or node.namespace != HTML_NS
                and (
                    (node.namespace == MATHML_NS and node.name in ("mi", "mo", "mn", "ms", "mtext", "annotation-xml"))
                    or (node.namespace == SVG_NS and node.name in ("foreignObject", "desc", "title"))
                )
            ):
                return False
        return False

    # -- implied end tags ----------------------------------------------------
    def _generate_implied(self, except_for=None, thorough=False):
        names = IMPLIED_END_TAGS_THOROUGH if thorough else IMPLIED_END_TAGS
        while self.open:
            node = self.open[-1]
            if node.namespace == HTML_NS and node.name in names and node.name != except_for:
                self.open.pop()
            else:
                return

    def _close_p(self):
        """(reference: ImplicitlyCloseP, TreeBuilder.cs:4531-4547)"""
        self._generate_implied(except_for="p")
        if not (self.open[-1].name == "p" and self.open[-1].namespace == HTML_NS):
            self.error()
        self._pop_until("p")

    # -- active formatting list (reference: TreeBuilder.cs:4865-5075) --------
    def _push_formatting(self, element, name, attrs):
        # Noah's Ark clause: max 3 identical entries since the last marker
        # (reference: MaybeForgetEarlierDuplicateFormattingElement,
        # TreeBuilder.cs:4927-4948).
        count = 0
        earliest = -1
        for i in range(len(self.afe) - 1, -1, -1):
            entry = self.afe[i]
            if entry is _MARKER:
                break
            if entry.name == name and entry.element.namespace == HTML_NS and entry.attrs == attrs:
                count += 1
                earliest = i
        if count >= 3:
            del self.afe[earliest]
        self.afe.append(_FmtEntry(element, name, attrs))

    def _clear_afe_to_marker(self):
        while self.afe:
            if self.afe.pop() is _MARKER:
                return

    def _reconstruct_afe(self):
        """(reference: TreeBuilder.cs:5017-5075)"""
        afe = self.afe
        if not afe:
            return
        entry = afe[-1]
        if entry is _MARKER or entry.element in self.open:
            return
        i = len(afe) - 1
        while i > 0:
            i -= 1
            entry = afe[i]
            if entry is _MARKER or entry.element in self.open:
                i += 1
                break
        # i indexes the first entry to reconstruct
        while i < len(afe):
            entry = afe[i]
            el = self._insert_element(entry.name, {}, push=True)
            el.attrs = entry.attrs
            afe[i] = _FmtEntry(el, entry.name, entry.attrs)
            i += 1

    # -- adoption agency (reference: TreeBuilder.cs:4679-4863) ---------------
    def _adoption_agency(self, name):
        """Returns True when handled; False → caller runs the any-other-end-
        tag steps."""
        for _outer in range(8):
            cur = self.open[-1] if self.open else None
            if (
                cur is not None
                and cur.namespace == HTML_NS
                and cur.name == name
                and all(e is _MARKER or e.element is not cur for e in self.afe)
            ):
                self.open.pop()
                return True
            # find formatting element entry
            fmt_idx = -1
            for i in range(len(self.afe) - 1, -1, -1):
                entry = self.afe[i]
                if entry is _MARKER:
                    break
                if entry.name == name:
                    fmt_idx = i
                    break
            if fmt_idx == -1:
                return False  # no entry: any-other-end-tag steps
            fmt_entry = self.afe[fmt_idx]
            fmt_el = fmt_entry.element
            if fmt_el not in self.open:
                self.error()
                del self.afe[fmt_idx]
                return True
            if not self._el_in_scope(fmt_el):
                self.error()
                return True
            if fmt_el is not self.open[-1]:
                self.error()
            stack_idx = self.open.index(fmt_el)
            # furthest block: lowest node above fmt_el that is special
            furthest = None
            furthest_idx = -1
            for i in range(stack_idx + 1, len(self.open)):
                node = self.open[i]
                if is_special(node.name, node.namespace):
                    furthest = node
                    furthest_idx = i
                    break
            if furthest is None:
                del self.open[stack_idx:]
                del self.afe[fmt_idx]
                return True
            common_ancestor = self.open[stack_idx - 1]
            bookmark = fmt_idx
            node = furthest
            node_idx = furthest_idx
            last_node = furthest
            inner = 0
            while True:
                inner += 1
                node_idx -= 1
                node = self.open[node_idx]
                if node is fmt_el:
                    break
                node_afe_idx = next(
                    (i for i, e in enumerate(self.afe) if e is not _MARKER and e.element is node),
                    -1,
                )
                if inner > 3 and node_afe_idx != -1:
                    del self.afe[node_afe_idx]
                    if node_afe_idx < bookmark:
                        bookmark -= 1
                    node_afe_idx = -1
                if node_afe_idx == -1:
                    del self.open[node_idx]
                    continue
                # clone node from its AFE token data
                entry = self.afe[node_afe_idx]
                clone = Element(entry.name, HTML_NS, entry.attrs)
                self.afe[node_afe_idx] = _FmtEntry(clone, entry.name, entry.attrs)
                self.open[node_idx] = clone
                node = clone
                if last_node is furthest:
                    bookmark = node_afe_idx + 1
                if last_node.parent is not None:
                    last_node.parent.remove_child(last_node)
                node.append(last_node)
                last_node = node
            # place last_node in the appropriate place with common_ancestor
            # as override target (may foster-parent)
            if last_node.parent is not None:
                last_node.parent.remove_child(last_node)
            saved_foster = self.foster
            self.foster = True
            parent, ref = self._appropriate_parent(override=common_ancestor)
            self.foster = saved_foster
            if (
                common_ancestor.namespace == HTML_NS
                and common_ancestor.name in _TABLE_CONTEXT
            ):
                if ref is None:
                    parent.append(last_node)
                else:
                    parent.insert_before(last_node, ref)
            else:
                common_ancestor.append(last_node)
            # new element: clone of fmt element, children of furthest moved in
            clone = Element(fmt_entry.name, HTML_NS, fmt_entry.attrs)
            for child in list(furthest.children):
                furthest.remove_child(child)
                clone.append(child)
            furthest.append(clone)
            # AFE: remove fmt entry, insert clone entry at bookmark
            old_idx = next(i for i, e in enumerate(self.afe) if e is fmt_entry)
            del self.afe[old_idx]
            if old_idx < bookmark:
                bookmark -= 1
            self.afe.insert(bookmark, _FmtEntry(clone, fmt_entry.name, fmt_entry.attrs))
            # stack: remove fmt element, insert clone after furthest
            self.open.remove(fmt_el)
            self.open.insert(self.open.index(furthest) + 1, clone)
        return True

    # -- reset insertion mode (reference: TreeBuilder.cs:4431-4529) ----------
    def _reset_mode(self):
        for i in range(len(self.open) - 1, -1, -1):
            node = self.open[i]
            last = i == 0
            if last and self.fragment_ctx is not None:
                node = self.fragment_ctx
            if node.namespace != HTML_NS:
                if last:
                    self.mode = IN_BODY
                    return
                continue
            name = node.name
            if name == "template":
                self.mode = (
                    self.template_modes[-1] if self.template_modes
                    else IN_TEMPLATE
                )
                return
            if name == "select":
                mode = IN_SELECT
                for j in range(i - 1, 0, -1):
                    anc = self.open[j]
                    if anc.namespace != HTML_NS:
                        continue
                    if anc.name == "template":
                        break  # spec: template stops the table search
                    if anc.name == "table":
                        mode = IN_SELECT_IN_TABLE
                        break
                self.mode = mode
                return
            if name in ("td", "th") and not last:
                self.mode = IN_CELL
                return
            if name == "tr":
                self.mode = IN_ROW
                return
            if name in ("tbody", "thead", "tfoot"):
                self.mode = IN_TABLE_BODY
                return
            if name == "caption":
                self.mode = IN_CAPTION
                return
            if name == "colgroup":
                self.mode = IN_COLUMN_GROUP
                return
            if name == "table":
                self.mode = IN_TABLE
                return
            if name == "head":
                # template-era spec: head (last or not) → "in head"; the
                # non-last case is reachable only after </template> closes
                # inside head
                self.mode = IN_HEAD
                return
            if name == "body":
                self.mode = IN_BODY
                return
            if name == "frameset":
                self.mode = IN_FRAMESET
                return
            if name == "html":
                self.mode = BEFORE_HEAD if self.head_el is None else AFTER_HEAD
                return
            if last:
                self.mode = IN_BODY
                return

    # ================== token sink interface ===============================
    def doctype(self, name, public_id, system_id, force_quirks):
        self.token_count += 1
        self._prev_text = False
        self.ignore_next_lf = False
        if self.mode == IN_TABLE_TEXT:
            self._flush_table_text()
        if self.mode != INITIAL:
            self.error("unexpected-doctype")
            return
        self.doc.append(Doctype(name or "", public_id, system_id))
        self.doc.mode = self._classify_doctype(name, public_id, system_id, force_quirks)
        self._doctype_policy_events(self.doc.mode, public_id, system_id)
        self.mode = BEFORE_HTML

    # DoctypeExpectation policy matrix (reference:
    # Common/DoctypeExpectation.cs:39-68 + the per-policy switch in
    # TreeBuilder.cs:400-607). The MODE computation is policy-invariant
    # (the reference computes quirks/almost/standards identically in
    # every arm); the policy controls only which doctypes additionally
    # report an error or warning. The engine default is
    # "no-doctype-errors" (the reference's survey mode — our recorded
    # fixture error counts; the reference defaults to Html) and the
    # html4-specific TOKENIZER extras of TurnOnAdditionalHtml4Errors
    # are not implemented (documented divergence).
    _H401_STRICT_PUB = "-//W3C//DTD HTML 4.01//EN"
    _H401_STRICT_SYS = "http://www.w3.org/TR/html4/strict.dtd"
    _H401_TRANS_PUB = "-//W3C//DTD HTML 4.01 Transitional//EN"
    _H401_TRANS_SYS = "http://www.w3.org/TR/html4/loose.dtd"
    _OBSOLETE_PERMITTED = (
        ("-//W3C//DTD HTML 4.0//EN",
         (None, "http://www.w3.org/TR/REC-html40/strict.dtd")),
        (_H401_STRICT_PUB, (None, _H401_STRICT_SYS)),
        ("-//W3C//DTD XHTML 1.0 Strict//EN",
         ("http://www.w3.org/TR/xhtml1/DTD/xhtml1-strict.dtd",)),
        ("-//W3C//DTD XHTML 1.1//EN",
         ("http://www.w3.org/TR/xhtml11/DTD/xhtml11.dtd",)),
    )

    def _doctype_policy_events(self, mode, public_id, system_id):
        policy = self.doctype_expectation
        if policy == "no-doctype-errors":
            return
        if policy == "html":
            if mode == "quirks":
                self.error("quirky-doctype")
            elif mode == "almost-standards":
                self.error("almost-standards-doctype")
            else:
                for pub, systems in self._OBSOLETE_PERMITTED:
                    if public_id == pub and system_id in systems:
                        self.warn("obsolete-doctype")
                        return
                if not (public_id is None and system_id in
                        (None, "about:legacy-compat")):
                    self.error("legacy-doctype")
            return
        if policy == "html401-strict":
            if mode == "quirks":
                self.error("quirky-doctype")
            elif mode == "almost-standards":
                self.error("almost-standards-doctype")
            elif public_id == self._H401_STRICT_PUB:
                if system_id != self._H401_STRICT_SYS:
                    self.warn("missing-html401-system-id")
            else:
                self.error("not-html401-strict-doctype")
            return
        if policy == "html401-transitional":
            if mode == "quirks":
                self.error("quirky-doctype")
            elif mode == "almost-standards":
                if (public_id == self._H401_TRANS_PUB
                        and system_id is not None):
                    if system_id != self._H401_TRANS_SYS:
                        self.warn("missing-html401-system-id")
                else:
                    self.error("not-html401-transitional-doctype")
            else:
                self.error("not-html401-transitional-doctype")
            return
        # "auto"
        if mode == "quirks":
            self.error("quirky-doctype")
        elif mode == "almost-standards":
            if public_id == self._H401_TRANS_PUB:
                if system_id != self._H401_TRANS_SYS:
                    self.warn("missing-html401-system-id")
            else:
                self.error("almost-standards-doctype")
        else:
            if public_id == self._H401_STRICT_PUB:
                if system_id != self._H401_STRICT_SYS:
                    self.warn("missing-html401-system-id")
            elif not (public_id is None and system_id is None):
                self.error("legacy-doctype")

    def warn(self, code: str | None = None):
        """Non-error diagnostics (reference Warn): counted separately,
        logged with codes when collect_errors is on, never part of the
        parse-error count."""
        self.warnings += 1
        tok = self.tokenizer
        if tok is not None and tok.error_log is not None:
            tok.error_log.append((tok.mark, "warning:" + (code or "warn")))

    def _classify_doctype(self, name, public_id, system_id, force_quirks):
        """(reference: IsQuirky TreeBuilder.cs:4336-4387,
        IsAlmostStandards :4308-4334; tables TreeBuilderConstants.cs:27-86)"""
        if force_quirks or name != "html":
            return "quirks"
        pub = (public_id or "").lower()
        sysid = (system_id or "").lower()
        if public_id is not None:
            if pub in QUIRKY_PUBLIC_EXACT:
                return "quirks"
            if pub.startswith(QUIRKY_PUBLIC_PREFIXES):
                return "quirks"
            if system_id is None and pub.startswith(QUIRKY_IF_NO_SYSTEM_PREFIXES):
                return "quirks"
        if sysid and sysid in QUIRKY_SYSTEM_EXACT:
            return "quirks"
        if public_id is not None:
            if pub.startswith(ALMOST_STANDARDS_PREFIXES):
                return "almost-standards"
            if system_id is not None and pub.startswith(QUIRKY_IF_NO_SYSTEM_PREFIXES):
                return "almost-standards"
        return "standards"

    def _check_meta_charset(self, attrs):
        """Record a charset declaration (reference: CheckMetaCharset
        TreeBuilder.cs:3213-3244; content-attr scanner
        ExtractCharsetFromContent :3037-3211)."""
        charset = attrs.get("charset")
        if charset:
            self.encoding_declared = charset.strip().lower()
            return
        if attrs.get("http-equiv", "").lower() == "content-type":
            content = attrs.get("content", "")
            idx = content.lower().find("charset")
            if idx != -1:
                rest = content[idx + 7:].lstrip()
                if rest.startswith("="):
                    value = rest[1:].strip()
                    if value[:1] in "\'\"":
                        quote = value[0]
                        end = value.find(quote, 1)
                        value = value[1:end] if end != -1 else value[1:]
                    else:
                        value = value.split(";")[0].split()[0] if value else ""
                    if value:
                        self.encoding_declared = value.lower()

    def comment(self, data):
        self.token_count += 1
        self._prev_text = False
        self.ignore_next_lf = False
        if self.ignore_comments:
            if self.mode == IN_TABLE_TEXT:
                self._flush_table_text()
            return
        if self.mode == IN_TABLE_TEXT:
            self._flush_table_text()
        mode = self.mode
        if mode in (INITIAL, BEFORE_HTML, AFTER_AFTER_BODY, AFTER_AFTER_FRAMESET):
            self.doc.append(Comment(data))
        elif mode == AFTER_BODY:
            self.open[0].append(Comment(data))
        else:
            parent, ref = self._appropriate_parent()
            node = Comment(data)
            if ref is None:
                parent.append(node)
            else:
                parent.insert_before(node, ref)

    # -- characters ----------------------------------------------------------
    def _run_error(self, key):
        """Parse error fired at most ONCE per coalesced text run —
        keeps error counts invariant to how the tokenizer or the
        chunked feed (html/feed.py) splits a text run into
        characters() calls.

        A "run" is the maximal text between two NON-character tokens,
        deliberately spanning character-reference replacements: before
        round 4 these sites counted once per characters() CALL, which
        made the count an artifact of internal regex segmentation
        ('a\\x00b\\x00' = one error but 'a\\x00&amp;b\\x00' = two) and
        chunking-dependent. The run definition is coarser than the
        spec's per-occurrence rule for NUL but is segmentation-stable;
        the recorded fixture counts are unaffected
        (tests/test_round4_error_codes.py pins the new semantics)."""
        s = self._run_errs
        if s is None:
            s = self._run_errs = set()
        if key not in s:
            s.add(key)
            self.error(_RUN_ERROR_CODES.get(key, key))

    def characters(self, data):
        if not self._prev_text:
            self.token_count += 1
            self._prev_text = True
            self._run_errs = None
        if self.ignore_next_lf:
            self.ignore_next_lf = False
            if data.startswith("\n"):
                data = data[1:]
                if not data:
                    return
        # foreign-content dispatch
        if self.open:
            acn = self._adjusted_current()
            if acn.namespace != HTML_NS and not (
                (acn.namespace == MATHML_NS and acn.name in MATHML_TEXT_INTEGRATION)
                or is_html_integration_point(acn.name, acn.namespace, acn.attrs)
            ):
                if "\x00" in data:
                    self._run_error("nul")
                    data = data.replace("\x00", "�")
                stripped = data.strip(_WS)
                if stripped:
                    self.frameset_ok = False
                self._insert_text(data)
                return
        self._characters_html(data)

    def _characters_html(self, data):
        while data:
            mode = self.mode
            if (mode == IN_BODY or mode == IN_CAPTION or mode == IN_CELL
                    or mode == IN_TEMPLATE):
                if "\x00" in data:
                    self._run_error("nul")
                    data = data.replace("\x00", "")
                    if not data:
                        return
                self._reconstruct_afe()
                self._insert_text(data)
                if data.strip(_WS):
                    self.frameset_ok = False
                return
            if mode == TEXT:
                self._insert_text(data)
                return
            if mode in (IN_TABLE, IN_TABLE_BODY, IN_ROW):
                cur = self.open[-1]
                if cur.namespace == HTML_NS and cur.name in _TABLE_CONTEXT:
                    self.pending_table_text = []
                    self.original_mode = mode
                    self.mode = IN_TABLE_TEXT
                    continue
                # anything else: foster-parent via in-body rules
                self._run_error("foster")
                self.foster = True
                self._reconstruct_afe()
                self._insert_text(data.replace("\x00", ""))
                self.foster = False
                if data.strip(_WS):
                    self.frameset_ok = False
                return
            if mode == IN_TABLE_TEXT:
                if "\x00" in data:
                    self._run_error("nul")
                    data = data.replace("\x00", "")
                if data:
                    self.pending_table_text.append(data)
                return
            if mode in (INITIAL, BEFORE_HTML, BEFORE_HEAD):
                ws_len = len(data) - len(data.lstrip(_WS))
                data = data[ws_len:]
                if not data:
                    return
                if mode == INITIAL:
                    # no doctype → quirks (reference default policy)
                    self.error()
                    self.doc.mode = "quirks"
                    self.mode = BEFORE_HTML
                elif mode == BEFORE_HTML:
                    self._create_html_root({})
                    self.mode = BEFORE_HEAD
                else:
                    self._start_head({})
                continue
            if mode in (IN_HEAD, IN_HEAD_NOSCRIPT, AFTER_HEAD):
                ws_len = len(data) - len(data.lstrip(_WS))
                if ws_len:
                    self._insert_text(data[:ws_len])
                    data = data[ws_len:]
                if not data:
                    return
                if mode == IN_HEAD:
                    self._pop_guarded()  # head (absent in fragment ctx)
                    self.mode = AFTER_HEAD
                elif mode == IN_HEAD_NOSCRIPT:
                    self.error()
                    self._pop_guarded()  # noscript (absent in fragment ctx)
                    self.mode = IN_HEAD
                else:
                    self._start_body({})
                continue
            if mode in (IN_COLUMN_GROUP,):
                ws_len = len(data) - len(data.lstrip(_WS))
                if ws_len:
                    self._insert_text(data[:ws_len])
                    data = data[ws_len:]
                if not data:
                    return
                if self.open[-1].name == "colgroup":
                    self.open.pop()
                    self.mode = IN_TABLE
                    continue
                self._run_error("colgroup-text")
                return  # ignore (fragment case)
            if mode in (IN_SELECT, IN_SELECT_IN_TABLE):
                if "\x00" in data:
                    self._run_error("nul")
                    data = data.replace("\x00", "")
                if data:
                    self._insert_text(data)
                return
            if mode in (AFTER_BODY, AFTER_AFTER_BODY):
                ws_len = len(data) - len(data.lstrip(_WS))
                if ws_len:
                    # process per in-body rules
                    self._reconstruct_afe()
                    self._insert_text(data[:ws_len])
                    data = data[ws_len:]
                if not data:
                    return
                self.error()
                self.mode = IN_BODY
                continue
            if mode in (IN_FRAMESET, AFTER_FRAMESET, AFTER_AFTER_FRAMESET):
                ws = "".join(c for c in data if c in _WS)
                if ws:
                    self._insert_text(ws)
                if len(ws) != len(data):
                    self._run_error("frameset-text")
                return
            return  # unreachable

    def _flush_table_text(self):
        data = "".join(self.pending_table_text)
        self.pending_table_text = []
        self.mode = self.original_mode
        if not data:
            return
        if data.strip(_WS):
            self.error()
            # non-whitespace: foster-parent through in-body rules
            self.foster = True
            self._reconstruct_afe()
            self._insert_text(data)
            self.foster = False
            self.frameset_ok = False
        else:
            self._insert_text(data)

    # -- start tags ----------------------------------------------------------
    def start_tag(self, name, attrs, self_closing):
        self.token_count += 1
        self._prev_text = False
        self.ignore_next_lf = False
        if self.mode == IN_TABLE_TEXT:
            self._flush_table_text()
        # hostile-input guards: drop start tags past the stack-depth or
        # node-count cap (see __init__; text still flows, end tags
        # still pop)
        if ((self.max_open_depth is not None
                and len(self.open) >= self.max_open_depth
                and name not in _DEPTH_CAP_EXEMPT)
                or self.node_capped):
            if not self.depth_capped and not self.node_capped:
                self.error("stack-depth-limit")
            self.depth_capped = self.depth_capped or not self.node_capped
            return
        # tree construction dispatcher: foreign content?
        if self.open:
            acn = self._adjusted_current()
            if acn.namespace != HTML_NS:
                if not (
                    (
                        acn.namespace == MATHML_NS
                        and acn.name in MATHML_TEXT_INTEGRATION
                        and name not in ("mglyph", "malignmark")
                    )
                    or (
                        acn.namespace == MATHML_NS
                        and acn.name == "annotation-xml"
                        and name == "svg"
                    )
                    or is_html_integration_point(acn.name, acn.namespace, acn.attrs)
                ):
                    self._foreign_start(name, attrs, self_closing)
                    return
        self._html_start(name, attrs, self_closing)

    def _foreign_start(self, name, attrs, self_closing):
        """(reference: foreign breakout, TreeBuilder.cs:1415-1506)"""
        if name in BREAKOUT or (
            name == "font" and ("color" in attrs or "face" in attrs or "size" in attrs)
        ):
            self.error()
            while self.open:
                node = self.open[-1]
                if (
                    node.namespace == HTML_NS
                    or (node.namespace == MATHML_NS and node.name in MATHML_TEXT_INTEGRATION)
                    or is_html_integration_point(node.name, node.namespace, node.attrs)
                ):
                    break
                self.open.pop()
            self.start_tag(name, attrs, self_closing)
            return
        ns = self._adjusted_current().namespace
        adjusted, ns_map = {}, None
        for aname, avalue in attrs.items():
            if ns == SVG_NS:
                aname = SVG_ATTR_ADJUST.get(aname, aname)
            elif ns == MATHML_NS:
                aname = MATHML_ATTR_ADJUST.get(aname, aname)
            fa = FOREIGN_ATTR_ADJUST.get(aname)
            if fa is not None:
                adjusted[fa[0]] = avalue
                ns_map = ns_map or {}
                ns_map[fa[0]] = fa[1]
            else:
                adjusted[aname] = avalue
        if ns == SVG_NS:
            name = SVG_ELEMENT_ADJUST.get(name, name)
        el = self._insert_foreign(name, adjusted, ns, push=True,
                                  attr_ns=ns_map)
        if self_closing:
            self.open.pop()
            # <script/> in SVG would execute; scripting off → plain pop

    def _create_html_root(self, attrs):
        el = Element("html", HTML_NS, attrs)
        self.doc.append(el)
        self.open.append(el)

    def _pop_guarded(self):
        """Pop for the head-family "act as if </head>/</noscript>" paths:
        never pops the synthetic root. In a head/noscript-context
        FRAGMENT these modes are entered with ONLY the root on the
        stack (no head element was inserted), so the spec's "pop the
        current node (which will be the head element)" would pop the
        root and crash the next insertion (mirrors the reference's
        `while (currentPtr > 0)` EOF guard, TreeBuilder.cs Eof)."""
        if len(self.open) > 1:
            self.open.pop()

    def _start_head(self, attrs):
        self.head_el = self._insert_element("head", attrs)
        self.mode = IN_HEAD

    def _start_body(self, attrs):
        self._insert_element("body", attrs)
        self.mode = IN_BODY

    def _merge_attrs(self, el, attrs):
        """First-writer-wins merge (reference: HtmlAttributes.Merge,
        Core/HtmlAttributes.cs:620-631)."""
        for k, v in attrs.items():
            if k not in el.attrs:
                el.attrs[k] = v

    def _parse_rawtext(self, name, attrs, model):
        self._insert_element(name, attrs)
        self.tokenizer.set_content_model(model, name)
        self.original_mode = self.mode
        self.mode = TEXT

    def _html_start(self, name, attrs, self_closing):
        mode = self.mode
        while True:
            if mode == IN_BODY:
                self._start_in_body(name, attrs, self_closing)
                return
            if mode == INITIAL:
                self.error()
                self.doc.mode = "quirks"
                self.mode = mode = BEFORE_HTML
                continue
            if mode == BEFORE_HTML:
                if name == "html":
                    self._create_html_root(attrs)
                    self.mode = BEFORE_HEAD
                    return
                self._create_html_root({})
                self.mode = mode = BEFORE_HEAD
                continue
            if mode == BEFORE_HEAD:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                if name == "head":
                    self._start_head(attrs)
                    return
                self._start_head({})
                mode = self.mode
                continue
            if mode == IN_HEAD:
                if self._start_in_head(name, attrs, self_closing):
                    return
                self._pop_guarded()  # head (absent in fragment ctx)
                self.mode = mode = AFTER_HEAD
                continue
            if mode == IN_HEAD_NOSCRIPT:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                if name in ("basefont", "bgsound", "link", "meta", "noframes", "style"):
                    self._start_in_head(name, attrs, self_closing)
                    return
                if name in ("head", "noscript"):
                    self.error()
                    return
                self.error()
                self._pop_guarded()  # noscript (absent in fragment ctx)
                self.mode = mode = IN_HEAD
                continue
            if mode == AFTER_HEAD:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                if name == "body":
                    self._start_body(attrs)
                    self.frameset_ok = False
                    return
                if name == "frameset":
                    self._insert_element("frameset", attrs)
                    self.mode = IN_FRAMESET
                    return
                if name in (
                    "base", "basefont", "bgsound", "link", "meta", "noframes",
                    "script", "style", "template", "title",
                ):
                    self.error()
                    self.open.append(self.head_el)
                    self._start_in_head(name, attrs, self_closing)
                    if self.head_el in self.open:
                        self.open.remove(self.head_el)
                    return
                if name == "head":
                    self.error()
                    return
                self._start_body({})
                mode = self.mode
                continue
            if mode == TEXT:
                return  # cannot happen: tokenizer is in rawtext
            if mode == IN_TABLE:
                self._start_in_table(name, attrs, self_closing)
                return
            if mode == IN_CAPTION:
                if name in ("caption", "col", "colgroup", "tbody", "td", "tfoot", "th", "thead", "tr"):
                    self.error()
                    if self._close_caption():
                        mode = self.mode
                        continue
                    return
                self._start_in_body(name, attrs, self_closing)
                return
            if mode == IN_COLUMN_GROUP:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                if name == "col":
                    self._insert_element("col", attrs, push=False)
                    return
                if name == "template":
                    self._start_in_head(name, attrs, self_closing)
                    return
                if self.open[-1].name != "colgroup":
                    self.error()
                    return
                self.open.pop()
                self.mode = mode = IN_TABLE
                continue
            if mode == IN_TABLE_BODY:
                self._start_in_table_body(name, attrs, self_closing)
                return
            if mode == IN_ROW:
                self._start_in_row(name, attrs, self_closing)
                return
            if mode == IN_CELL:
                if name in ("caption", "col", "colgroup", "tbody", "td", "tfoot", "th", "thead", "tr"):
                    if not self._in_table_scope_any(("td", "th")):
                        self.error()
                        return
                    self._close_cell()
                    mode = self.mode
                    continue
                self._start_in_body(name, attrs, self_closing)
                return
            if mode in (IN_SELECT, IN_SELECT_IN_TABLE):
                self._start_in_select(name, attrs, self_closing)
                return
            if mode == IN_TEMPLATE:
                reproc = self._start_in_template(name, attrs, self_closing)
                if reproc is None:
                    return
                mode = reproc
                continue
            if mode == AFTER_BODY:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                self.error()
                self.mode = mode = IN_BODY
                continue
            if mode == IN_FRAMESET:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                if name == "frameset":
                    self._insert_element("frameset", attrs)
                    return
                if name == "frame":
                    self._insert_element("frame", attrs, push=False)
                    return
                if name == "noframes":
                    self._start_in_head(name, attrs, self_closing)
                    return
                self.error()
                return
            if mode == AFTER_FRAMESET:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                if name == "noframes":
                    self._start_in_head(name, attrs, self_closing)
                    return
                self.error()
                return
            if mode == AFTER_AFTER_BODY:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                self.error()
                self.mode = mode = IN_BODY
                continue
            if mode == AFTER_AFTER_FRAMESET:
                if name == "html":
                    self._start_in_body(name, attrs, self_closing)
                    return
                if name == "noframes":
                    self._start_in_head(name, attrs, self_closing)
                    return
                self.error()
                return
            return

    def _start_in_head(self, name, attrs, self_closing):
        """Returns True when handled; False → anything-else."""
        if name == "html":
            self._start_in_body(name, attrs, self_closing)
            return True
        if name in ("base", "basefont", "bgsound", "link", "meta"):
            if name == "meta" and self.encoding_declared is None:
                self._check_meta_charset(attrs)
            self._insert_element(name, attrs, push=False)
            return True
        if name == "title":
            self._parse_rawtext(name, attrs, tok.RCDATA)
            return True
        if name in ("noframes", "style"):
            self._parse_rawtext(name, attrs, tok.RAWTEXT)
            return True
        if name == "noscript":
            if self.scripting:
                self._parse_rawtext(name, attrs, tok.RAWTEXT)
            else:
                self._insert_element(name, attrs)
                self.mode = IN_HEAD_NOSCRIPT
            return True
        if name == "script":
            self._insert_element(name, attrs)
            self.tokenizer.set_content_model(tok.SCRIPT_DATA, "script")
            self.original_mode = self.mode
            self.mode = TEXT
            return True
        if name == "template":
            self._insert_element(name, attrs)
            self.afe.append(_MARKER)
            self.frameset_ok = False
            self.mode = IN_TEMPLATE
            self.template_modes.append(IN_TEMPLATE)
            return True
        if name == "head":
            self.error()
            return True
        return False

    # -- template machinery (WHATWG; beyond the reference) -------------------
    def _template_on_stack(self):
        return any(
            node.namespace == HTML_NS and node.name == "template"
            for node in self.open
        )

    def _end_template(self):
        """</template> per the in-head rules."""
        if not self._template_on_stack():
            self.error()
            return
        self._generate_implied(thorough=True)
        if not (self.open[-1].name == "template"
                and self.open[-1].namespace == HTML_NS):
            self.error()
        self._pop_until("template")
        self._clear_afe_to_marker()
        if self.template_modes:
            self.template_modes.pop()
        self._reset_mode()

    def _start_in_template(self, name, attrs, self_closing):
        """The 'in template' insertion mode for start tags; returns the
        mode to REPROCESS in, or None when fully handled."""
        if name in (
            "base", "basefont", "bgsound", "link", "meta", "noframes",
            "script", "style", "template", "title",
        ):
            self._start_in_head(name, attrs, self_closing)
            return None
        if name in ("caption", "colgroup", "tbody", "tfoot", "thead"):
            new_mode = IN_TABLE
        elif name == "col":
            new_mode = IN_COLUMN_GROUP
        elif name == "tr":
            new_mode = IN_TABLE_BODY
        elif name in ("td", "th"):
            new_mode = IN_ROW
        else:
            new_mode = IN_BODY
        if self.template_modes:
            self.template_modes.pop()
        self.template_modes.append(new_mode)
        self.mode = new_mode
        return new_mode

    def _start_in_body(self, name, attrs, self_closing):
        if name == "html":
            self.error()
            self._merge_attrs(self.open[0], attrs)
            return
        if name in (
            "base", "basefont", "bgsound", "link", "meta", "noframes",
            "script", "style", "template", "title",
        ):
            self._start_in_head(name, attrs, self_closing)
            return
        if name == "body":
            self.error()
            if len(self.open) > 1 and self.open[1].name == "body":
                self.frameset_ok = False
                self._merge_attrs(self.open[1], attrs)
            return
        if name == "frameset":
            self.error()
            if len(self.open) > 1 and self.open[1].name == "body" and self.frameset_ok:
                body = self.open[1]
                if body.parent is not None:
                    body.parent.remove_child(body)
                del self.open[1:]
                self._insert_element("frameset", attrs)
                self.mode = IN_FRAMESET
            return
        if name in CLOSE_P_BLOCKS:
            if self._in_button_scope("p"):
                self._close_p()
            self._insert_element(name, attrs)
            return
        if name in HEADINGS:
            if self._in_button_scope("p"):
                self._close_p()
            if self.open[-1].name in HEADINGS and self.open[-1].namespace == HTML_NS:
                self.error()
                self.open.pop()
            self._insert_element(name, attrs)
            return
        if name in ("pre", "listing"):
            if self._in_button_scope("p"):
                self._close_p()
            self._insert_element(name, attrs)
            self.ignore_next_lf = True
            self.frameset_ok = False
            return
        if name == "form":
            # form pointer is ignored inside template contents (spec)
            in_template = self._template_on_stack()
            if self.form_el is not None and not in_template:
                self.error()
                return
            if self._in_button_scope("p"):
                self._close_p()
            el = self._insert_element(name, attrs)
            if not in_template:
                self.form_el = el
            return
        if name == "li":
            self.frameset_ok = False
            for i in range(len(self.open) - 1, -1, -1):
                node = self.open[i]
                if node.namespace == HTML_NS and node.name == "li":
                    self._generate_implied(except_for="li")
                    if self.open[-1].name != "li":
                        self.error()
                    self._pop_until("li")
                    break
                if is_special(node.name, node.namespace) and node.name not in ("address", "div", "p"):
                    break
            if self._in_button_scope("p"):
                self._close_p()
            self._insert_element(name, attrs)
            return
        if name in ("dd", "dt"):
            self.frameset_ok = False
            for i in range(len(self.open) - 1, -1, -1):
                node = self.open[i]
                if node.namespace == HTML_NS and node.name in ("dd", "dt"):
                    self._generate_implied(except_for=node.name)
                    if self.open[-1] is not node:
                        self.error()
                    self._pop_until("dd", "dt")
                    break
                if is_special(node.name, node.namespace) and node.name not in ("address", "div", "p"):
                    break
            if self._in_button_scope("p"):
                self._close_p()
            self._insert_element(name, attrs)
            return
        if name == "plaintext":
            if self._in_button_scope("p"):
                self._close_p()
            self._insert_element(name, attrs)
            self.tokenizer.set_content_model(tok.PLAINTEXT, None)
            return
        if name == "button":
            if self._in_scope("button"):
                self.error()
                self._generate_implied()
                self._pop_until("button")
            self._reconstruct_afe()
            self._insert_element(name, attrs)
            self.frameset_ok = False
            return
        if name == "a":
            for i in range(len(self.afe) - 1, -1, -1):
                entry = self.afe[i]
                if entry is _MARKER:
                    break
                if entry.name == "a":
                    self.error()
                    el = entry.element
                    self._adoption_agency("a")
                    if any(e is not _MARKER and e.element is el for e in self.afe):
                        self.afe[:] = [e for e in self.afe if e is _MARKER or e.element is not el]
                    if el in self.open:
                        self.open.remove(el)
                    break
            self._reconstruct_afe()
            el = self._insert_element(name, attrs)
            self._push_formatting(el, name, attrs)
            return
        if name in FORMATTING:  # b big code em font i s small strike strong tt u (+nobr below)
            if name == "nobr":
                self._reconstruct_afe()
                if self._in_scope("nobr"):
                    self.error()
                    self._adoption_agency("nobr")
                    self._reconstruct_afe()
                el = self._insert_element(name, attrs)
                self._push_formatting(el, name, attrs)
                return
            self._reconstruct_afe()
            el = self._insert_element(name, attrs)
            self._push_formatting(el, name, attrs)
            return
        if name in ("applet", "marquee", "object"):
            self._reconstruct_afe()
            self._insert_element(name, attrs)
            self.afe.append(_MARKER)
            self.frameset_ok = False
            return
        if name == "table":
            if self.doc.mode != "quirks" and self._in_button_scope("p"):
                self._close_p()
            self._insert_element(name, attrs)
            self.frameset_ok = False
            self.mode = IN_TABLE
            return
        if name in ("area", "br", "embed", "img", "keygen", "wbr"):
            self._reconstruct_afe()
            self._insert_element(name, attrs, push=False)
            self.frameset_ok = False
            return
        if name == "input":
            self._reconstruct_afe()
            self._insert_element(name, attrs, push=False)
            if attrs.get("type", "").lower() != "hidden":
                self.frameset_ok = False
            return
        if name in ("param", "source", "track"):
            self._insert_element(name, attrs, push=False)
            return
        if name == "hr":
            if self._in_button_scope("p"):
                self._close_p()
            self._insert_element(name, attrs, push=False)
            self.frameset_ok = False
            return
        if name == "image":
            self.error()
            self._start_in_body("img", attrs, self_closing)
            return
        if name == "isindex":
            # legacy expansion (reference: TreeBuilder.cs:2106-2186)
            self.error()
            if self.form_el is not None:
                return
            form_attrs = {}
            if "action" in attrs:
                form_attrs["action"] = attrs["action"]
            self.form_el = self._insert_element("form", form_attrs)
            self._insert_element("hr", {}, push=False)
            self._reconstruct_afe()
            self._insert_element("label", {})
            prompt = attrs.get(
                "prompt", "This is a searchable index. Enter search keywords: "
            )
            self._insert_text(prompt)
            input_attrs = {
                k: v for k, v in attrs.items() if k not in ("action", "name", "prompt")
            }
            input_attrs["name"] = "isindex"
            self._insert_element("input", input_attrs, push=False)
            self.open.pop()  # label
            self._insert_element("hr", {}, push=False)
            self.open.pop()  # form
            self.form_el = None
            return
        if name == "textarea":
            self._insert_element(name, attrs)
            self.tokenizer.set_content_model(tok.RCDATA, name)
            self.ignore_next_lf = True
            self.original_mode = self.mode
            self.frameset_ok = False
            self.mode = TEXT
            return
        if name == "xmp":
            if self._in_button_scope("p"):
                self._close_p()
            self._reconstruct_afe()
            self.frameset_ok = False
            self._parse_rawtext(name, attrs, tok.RAWTEXT)
            return
        if name == "iframe":
            self.frameset_ok = False
            self._parse_rawtext(name, attrs, tok.RAWTEXT)
            return
        if name == "noembed" or (name == "noscript" and self.scripting):
            self._parse_rawtext(name, attrs, tok.RAWTEXT)
            return
        if name == "select":
            self._reconstruct_afe()
            self._insert_element(name, attrs)
            self.frameset_ok = False
            if self.mode in (IN_TABLE, IN_CAPTION, IN_TABLE_BODY, IN_ROW, IN_CELL):
                self.mode = IN_SELECT_IN_TABLE
            else:
                self.mode = IN_SELECT
            return
        if name in ("optgroup", "option"):
            if self.open[-1].name == "option" and self.open[-1].namespace == HTML_NS:
                self.open.pop()
            self._reconstruct_afe()
            self._insert_element(name, attrs)
            return
        if name in ("rb", "rtc"):
            if self._in_scope("ruby"):
                self._generate_implied()
                if self.open[-1].name != "ruby":
                    self.error()
            self._insert_element(name, attrs)
            return
        if name in ("rp", "rt"):
            if self._in_scope("ruby"):
                self._generate_implied(except_for="rtc")
                if self.open[-1].name not in ("ruby", "rtc"):
                    self.error()
            self._insert_element(name, attrs)
            return
        if name == "math":
            self._reconstruct_afe()
            adjusted, ns_map = {}, None
            for aname, avalue in attrs.items():
                aname = MATHML_ATTR_ADJUST.get(aname, aname)
                fa = FOREIGN_ATTR_ADJUST.get(aname)
                if fa is not None:
                    adjusted[fa[0]] = avalue
                    ns_map = ns_map or {}
                    ns_map[fa[0]] = fa[1]
                else:
                    adjusted[aname] = avalue
            self._insert_foreign(name, adjusted, MATHML_NS, attr_ns=ns_map)
            if self_closing:
                self.open.pop()
            return
        if name == "svg":
            self._reconstruct_afe()
            adjusted, ns_map = {}, None
            for aname, avalue in attrs.items():
                aname = SVG_ATTR_ADJUST.get(aname, aname)
                fa = FOREIGN_ATTR_ADJUST.get(aname)
                if fa is not None:
                    adjusted[fa[0]] = avalue
                    ns_map = ns_map or {}
                    ns_map[fa[0]] = fa[1]
                else:
                    adjusted[aname] = avalue
            self._insert_foreign(name, adjusted, SVG_NS, attr_ns=ns_map)
            if self_closing:
                self.open.pop()
            return
        if name in (
            "caption", "col", "colgroup", "frame", "head", "tbody", "td",
            "tfoot", "th", "thead", "tr",
        ):
            self.error()
            return
        # anything else
        self._reconstruct_afe()
        self._insert_element(name, attrs)

    # -- table-family start tags --------------------------------------------
    def _clear_to_table_context(self):
        while (
            self.open[-1].name not in ("table", "template", "html")
            or self.open[-1].namespace != HTML_NS
        ):
            self.open.pop()

    def _clear_to_table_body_context(self):
        while (
            self.open[-1].name not in ("tbody", "tfoot", "thead", "template", "html")
            or self.open[-1].namespace != HTML_NS
        ):
            self.open.pop()

    def _clear_to_table_row_context(self):
        while (
            self.open[-1].name not in ("tr", "template", "html")
            or self.open[-1].namespace != HTML_NS
        ):
            self.open.pop()

    def _start_in_table(self, name, attrs, self_closing):
        if name == "caption":
            self._clear_to_table_context()
            self.afe.append(_MARKER)
            self._insert_element(name, attrs)
            self.mode = IN_CAPTION
            return
        if name == "colgroup":
            self._clear_to_table_context()
            self._insert_element(name, attrs)
            self.mode = IN_COLUMN_GROUP
            return
        if name == "col":
            self._clear_to_table_context()
            self._insert_element("colgroup", {})
            self.mode = IN_COLUMN_GROUP
            self._html_start(name, attrs, self_closing)
            return
        if name in ("tbody", "tfoot", "thead"):
            self._clear_to_table_context()
            self._insert_element(name, attrs)
            self.mode = IN_TABLE_BODY
            return
        if name in ("td", "th", "tr"):
            self._clear_to_table_context()
            self._insert_element("tbody", {})
            self.mode = IN_TABLE_BODY
            self._html_start(name, attrs, self_closing)
            return
        if name == "table":
            self.error()
            if not self._in_table_scope("table"):
                return  # fragment case
            self._pop_until("table")
            self._reset_mode()
            self._html_start(name, attrs, self_closing)
            return
        if name in ("style", "script", "template"):
            self._start_in_head(name, attrs, self_closing)
            return
        if name == "input":
            if attrs.get("type", "").lower() == "hidden":
                self.error()
                self._insert_element(name, attrs, push=False)
                return
            # else fall to anything-else
        elif name == "form":
            self.error()
            if self.form_el is None and not self._template_on_stack():
                self.form_el = self._insert_element(name, attrs)
                self.open.pop()
            return
        # anything else: process with foster parenting via in-body rules
        self.error()
        self.foster = True
        self._start_in_body(name, attrs, self_closing)
        self.foster = False

    def _start_in_table_body(self, name, attrs, self_closing):
        if name == "tr":
            self._clear_to_table_body_context()
            self._insert_element(name, attrs)
            self.mode = IN_ROW
            return
        if name in ("th", "td"):
            self.error()
            self._clear_to_table_body_context()
            self._insert_element("tr", {})
            self.mode = IN_ROW
            self._start_in_row(name, attrs, self_closing)
            return
        if name in ("caption", "col", "colgroup", "tbody", "tfoot", "thead"):
            if not self._in_table_scope_any(("tbody", "thead", "tfoot")):
                self.error()
                return
            self._clear_to_table_body_context()
            self.open.pop()
            self.mode = IN_TABLE
            self._html_start(name, attrs, self_closing)
            return
        self._start_in_table(name, attrs, self_closing)

    def _start_in_row(self, name, attrs, self_closing):
        if name in ("th", "td"):
            self._clear_to_table_row_context()
            self._insert_element(name, attrs)
            self.mode = IN_CELL
            self.afe.append(_MARKER)
            return
        if name in ("caption", "col", "colgroup", "tbody", "tfoot", "thead", "tr"):
            if not self._in_table_scope("tr"):
                self.error()
                return
            self._clear_to_table_row_context()
            self.open.pop()  # tr
            self.mode = IN_TABLE_BODY
            self._html_start(name, attrs, self_closing)
            return
        self._start_in_table(name, attrs, self_closing)

    def _close_cell(self):
        self._generate_implied()
        if self.open[-1].name not in ("td", "th"):
            self.error()
        self._pop_until("td", "th")
        self._clear_afe_to_marker()
        self.mode = IN_ROW

    def _close_caption(self):
        """Returns True when the caption was closed."""
        if not self._in_table_scope("caption"):
            self.error()
            return False
        self._generate_implied()
        if self.open[-1].name != "caption":
            self.error()
        self._pop_until("caption")
        self._clear_afe_to_marker()
        self.mode = IN_TABLE
        return True

    def _start_in_select(self, name, attrs, self_closing):
        if self.mode == IN_SELECT_IN_TABLE and name in (
            "caption", "table", "tbody", "tfoot", "thead", "tr", "td", "th",
        ):
            self.error()
            self._pop_until("select")
            self._reset_mode()
            self._html_start(name, attrs, self_closing)
            return
        if name == "html":
            self._start_in_body(name, attrs, self_closing)
            return
        if name == "option":
            if self.open[-1].name == "option":
                self.open.pop()
            self._insert_element(name, attrs)
            return
        if name == "optgroup":
            if self.open[-1].name == "option":
                self.open.pop()
            if self.open[-1].name == "optgroup":
                self.open.pop()
            self._insert_element(name, attrs)
            return
        if name == "select":
            self.error()
            if not self._in_select_scope("select"):
                return  # fragment case
            self._pop_until("select")
            self._reset_mode()
            return
        if name in ("input", "keygen", "textarea"):
            self.error()
            if not self._in_select_scope("select"):
                return
            self._pop_until("select")
            self._reset_mode()
            self._html_start(name, attrs, self_closing)
            return
        if name in ("script", "template"):
            self._start_in_head(name, attrs, self_closing)
            return
        self.error()

    # -- end tags ------------------------------------------------------------
    def end_tag(self, name):
        self.token_count += 1
        self._prev_text = False
        self.ignore_next_lf = False
        if self.mode == IN_TABLE_TEXT:
            self._flush_table_text()
        if self.open:
            acn = self._adjusted_current()
            if acn.namespace != HTML_NS:
                self._foreign_end(name)
                return
        self._html_end(name)

    def _foreign_end(self, name):
        """(reference: foreign-content name-match pop, TreeBuilder.cs:3257-3281)"""
        node = self.open[-1]
        if node.name.lower() != name:
            self.error()
        for i in range(len(self.open) - 1, 0, -1):
            node = self.open[i]
            if node.name.lower() == name:
                while self.open[-1] is not node:
                    self.open.pop()
                self.open.pop()
                return
            if self.open[i - 1].namespace == HTML_NS:
                break
        self._html_end(name)

    def _html_end(self, name):
        mode = self.mode
        # </template> routes to the in-head template rules from every mode
        # past head construction (the spec delegates it mode-by-mode; the
        # observable behavior — error-ignore without an open template,
        # close + reset otherwise — is identical).
        if name == "template" and mode not in (
            INITIAL, BEFORE_HTML, BEFORE_HEAD, TEXT,
        ):
            self._end_template()
            return
        while True:
            if mode == IN_BODY:
                self._end_in_body(name)
                return
            if mode == TEXT:
                # </script> / </style> / </title> / </textarea>
                self.open.pop()
                self.mode = self.original_mode
                return
            if mode == INITIAL:
                self.error()
                self.doc.mode = "quirks"
                self.mode = mode = BEFORE_HTML
                continue
            if mode == BEFORE_HTML:
                if name in ("head", "body", "html", "br"):
                    self._create_html_root({})
                    self.mode = mode = BEFORE_HEAD
                    continue
                self.error()
                return
            if mode == BEFORE_HEAD:
                if name in ("head", "body", "html", "br"):
                    self._start_head({})
                    mode = self.mode
                    continue
                self.error()
                return
            if mode == IN_HEAD:
                if name == "head":
                    self._pop_guarded()
                    self.mode = AFTER_HEAD
                    return
                if name in ("body", "html", "br"):
                    self._pop_guarded()
                    self.mode = mode = AFTER_HEAD
                    continue
                self.error()
                return
            if mode == IN_HEAD_NOSCRIPT:
                if name == "noscript":
                    self._pop_guarded()
                    self.mode = IN_HEAD
                    return
                if name == "br":
                    self.error()
                    self._pop_guarded()
                    self.mode = mode = IN_HEAD
                    continue
                self.error()
                return
            if mode == AFTER_HEAD:
                if name in ("body", "html", "br"):
                    self._start_body({})
                    mode = self.mode
                    continue
                self.error()
                return
            if mode == IN_TABLE:
                self._end_in_table(name)
                return
            if mode == IN_CAPTION:
                if name == "caption":
                    self._close_caption()
                    return
                if name == "table":
                    self.error()
                    if self._close_caption():
                        mode = self.mode
                        continue
                    return
                if name in (
                    "body", "col", "colgroup", "html", "tbody", "td", "tfoot",
                    "th", "thead", "tr",
                ):
                    self.error()
                    return
                self._end_in_body(name)
                return
            if mode == IN_COLUMN_GROUP:
                if name == "colgroup":
                    if self.open[-1].name != "colgroup":
                        self.error()
                        return
                    self.open.pop()
                    self.mode = IN_TABLE
                    return
                if name == "col":
                    self.error()
                    return
                if self.open[-1].name != "colgroup":
                    self.error()
                    return
                self.open.pop()
                self.mode = mode = IN_TABLE
                continue
            if mode == IN_TABLE_BODY:
                if name in ("tbody", "tfoot", "thead"):
                    if not self._in_table_scope(name):
                        self.error()
                        return
                    self._clear_to_table_body_context()
                    self.open.pop()
                    self.mode = IN_TABLE
                    return
                if name == "table":
                    if not self._in_table_scope_any(("tbody", "thead", "tfoot")):
                        self.error()
                        return
                    self._clear_to_table_body_context()
                    self.open.pop()
                    self.mode = mode = IN_TABLE
                    continue
                if name in (
                    "body", "caption", "col", "colgroup", "html", "td", "th", "tr",
                ):
                    self.error()
                    return
                self._end_in_table(name)
                return
            if mode == IN_ROW:
                if name == "tr":
                    if not self._in_table_scope("tr"):
                        self.error()
                        return
                    self._clear_to_table_row_context()
                    self.open.pop()
                    self.mode = IN_TABLE_BODY
                    return
                if name == "table":
                    if not self._in_table_scope("tr"):
                        self.error()
                        return
                    self._clear_to_table_row_context()
                    self.open.pop()
                    self.mode = mode = IN_TABLE_BODY
                    continue
                if name in ("tbody", "tfoot", "thead"):
                    if not self._in_table_scope(name):
                        self.error()
                        return
                    if not self._in_table_scope("tr"):
                        return
                    self._clear_to_table_row_context()
                    self.open.pop()
                    self.mode = mode = IN_TABLE_BODY
                    continue
                if name in ("body", "caption", "col", "colgroup", "html", "td", "th"):
                    self.error()
                    return
                self._end_in_table(name)
                return
            if mode == IN_CELL:
                if name in ("td", "th"):
                    if not self._in_table_scope(name):
                        self.error()
                        return
                    self._generate_implied()
                    if self.open[-1].name != name:
                        self.error()
                    self._pop_until(name)
                    self._clear_afe_to_marker()
                    self.mode = IN_ROW
                    return
                if name in ("body", "caption", "col", "colgroup", "html"):
                    self.error()
                    return
                if name in ("table", "tbody", "tfoot", "thead", "tr"):
                    if not self._in_table_scope(name):
                        self.error()
                        return
                    self._close_cell()
                    mode = self.mode
                    continue
                self._end_in_body(name)
                return
            if mode == IN_TEMPLATE:
                # any end tag other than </template> (routed above)
                self.error()
                return
            if mode in (IN_SELECT, IN_SELECT_IN_TABLE):
                if mode == IN_SELECT_IN_TABLE and name in (
                    "caption", "table", "tbody", "tfoot", "thead", "tr", "td", "th",
                ):
                    self.error()
                    if not self._in_table_scope(name):
                        return
                    self._pop_until("select")
                    self._reset_mode()
                    self._html_end(name)
                    return
                if name == "optgroup":
                    if (
                        self.open[-1].name == "option"
                        and len(self.open) > 1
                        and self.open[-2].name == "optgroup"
                    ):
                        self.open.pop()
                    if self.open[-1].name == "optgroup":
                        self.open.pop()
                    else:
                        self.error()
                    return
                if name == "option":
                    if self.open[-1].name == "option":
                        self.open.pop()
                    else:
                        self.error()
                    return
                if name == "select":
                    if not self._in_select_scope("select"):
                        self.error()
                        return
                    self._pop_until("select")
                    self._reset_mode()
                    return
                self.error()
                return
            if mode == AFTER_BODY:
                if name == "html":
                    if self.fragment_ctx is not None:
                        self.error()
                        return
                    self.mode = AFTER_AFTER_BODY
                    return
                self.error()
                self.mode = mode = IN_BODY
                continue
            if mode == IN_FRAMESET:
                if name == "frameset":
                    if len(self.open) == 1:
                        self.error()
                        return  # fragment case
                    self.open.pop()
                    if self.fragment_ctx is None and self.open[-1].name != "frameset":
                        self.mode = AFTER_FRAMESET
                    return
                self.error()
                return
            if mode == AFTER_FRAMESET:
                if name == "html":
                    self.mode = AFTER_AFTER_FRAMESET
                    return
                self.error()
                return
            if mode in (AFTER_AFTER_BODY, AFTER_AFTER_FRAMESET):
                self.error()
                if mode == AFTER_AFTER_BODY:
                    self.mode = mode = IN_BODY
                    continue
                return
            return

    def _end_in_table(self, name):
        if name == "table":
            if not self._in_table_scope("table"):
                self.error()
                return
            self._pop_until("table")
            self._reset_mode()
            return
        if name in (
            "body", "caption", "col", "colgroup", "html", "tbody", "td",
            "tfoot", "th", "thead", "tr",
        ):
            self.error()
            return
        # anything else: foster-parent via in-body rules
        self.error()
        self.foster = True
        self._end_in_body(name)
        self.foster = False

    def _end_in_body(self, name):
        if name == "body":
            if not self._in_scope("body"):
                self.error()
                return
            self.mode = AFTER_BODY
            return
        if name == "html":
            if not self._in_scope("body"):
                self.error()
                return
            self.mode = AFTER_BODY
            self._html_end(name)
            return
        if name in (
            "address", "article", "aside", "blockquote", "button", "center",
            "details", "dialog", "dir", "div", "dl", "fieldset", "figcaption",
            "figure", "footer", "header", "hgroup", "listing", "main", "menu",
            "nav", "ol", "pre", "section", "summary", "ul",
        ):
            if not self._in_scope(name):
                self.error()
                return
            self._generate_implied()
            if self.open[-1].name != name:
                self.error()
            self._pop_until(name)
            return
        if name == "form":
            if self._template_on_stack():
                # template variant (spec): ignore the form pointer
                if not self._in_scope("form"):
                    self.error()
                    return
                self._generate_implied()
                if self.open[-1].name != "form":
                    self.error()
                self._pop_until("form")
                return
            node = self.form_el
            self.form_el = None
            if node is None or not self._el_in_scope(node):
                self.error()
                return
            self._generate_implied()
            if self.open[-1] is not node:
                self.error()
            self.open.remove(node)
            return
        if name == "p":
            if not self._in_button_scope("p"):
                self.error()
                self._insert_element("p", {})
            self._close_p()
            return
        if name == "li":
            if not self._in_list_scope("li"):
                self.error()
                return
            self._generate_implied(except_for="li")
            if self.open[-1].name != "li":
                self.error()
            self._pop_until("li")
            return
        if name in ("dd", "dt"):
            if not self._in_scope(name):
                self.error()
                return
            self._generate_implied(except_for=name)
            if self.open[-1].name != name:
                self.error()
            self._pop_until(name)
            return
        if name in HEADINGS:
            if not self._in_scope_any(HEADINGS):
                self.error()
                return
            self._generate_implied()
            if self.open[-1].name != name:
                self.error()
            self._pop_until(*HEADINGS)
            return
        if name in FORMATTING:
            if not self._adoption_agency(name):
                self._any_other_end_tag(name)
            return
        if name in ("applet", "marquee", "object"):
            if not self._in_scope(name):
                self.error()
                return
            self._generate_implied()
            if self.open[-1].name != name:
                self.error()
            self._pop_until(name)
            self._clear_afe_to_marker()
            return
        if name == "br":
            self.error()
            self._reconstruct_afe()
            self._insert_element("br", {}, push=False)
            self.frameset_ok = False
            return
        self._any_other_end_tag(name)

    def _any_other_end_tag(self, name):
        for i in range(len(self.open) - 1, -1, -1):
            node = self.open[i]
            if node.namespace == HTML_NS and node.name == name:
                self._generate_implied(except_for=name)
                if self.open[-1] is not node:
                    self.error()
                while self.open[-1] is not node:
                    self.open.pop()
                self.open.pop()
                return
            if is_special(node.name, node.namespace):
                self.error()
                return

    # -- EOF -----------------------------------------------------------------
    def eof(self):
        """(reference: per-mode EOF unwind, TreeBuilder.cs:1156-1342)"""
        if self.mode == IN_TABLE_TEXT:
            self._flush_table_text()
        while True:
            mode = self.mode
            # template open at EOF: close it and reprocess (spec: the
            # in-template EOF rules, also reached from in-body when the
            # stack of template insertion modes is non-empty)
            if self.template_modes and self._template_on_stack():
                self.error()
                self._pop_until("template")
                self._clear_afe_to_marker()
                self.template_modes.pop()
                self._reset_mode()
                continue
            if mode == INITIAL:
                self.doc.mode = "quirks"
                self.mode = BEFORE_HTML
                continue
            if mode == BEFORE_HTML:
                self._create_html_root({})
                self.mode = BEFORE_HEAD
                continue
            if mode == BEFORE_HEAD:
                self._start_head({})
                continue
            if mode == IN_HEAD:
                # pop down TO the root, never past it: a head-context
                # FRAGMENT enters IN_HEAD with only the synthetic root
                # on the stack (reference: `while (currentPtr > 0)
                # PopOnEof()`, TreeBuilder.cs Eof IN_HEAD case)
                while len(self.open) > 1:
                    self.open.pop()
                self.mode = AFTER_HEAD
                continue
            if mode == IN_HEAD_NOSCRIPT:
                self.error()
                # reference: `while (currentPtr > 1) PopOnEof()` — pop
                # down to root + head; a scripting-on noscript-context
                # FRAGMENT enters with only the root (nothing to pop)
                while len(self.open) > 2:
                    self.open.pop()
                self.mode = IN_HEAD
                continue
            if mode == AFTER_HEAD:
                self._start_body({})
                continue
            if mode == TEXT:
                self.error()
                self.open.pop()
                self.mode = self.original_mode
                continue
            break
        self.done = True
