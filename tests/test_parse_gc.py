"""The parse stage pauses the cyclic GC per document and frees each tree
with one young-generation pass (stages/parse_stage.py, ``_on_tree``)."""

from __future__ import annotations

import gc

import pyarrow as pa
import pytest

from htmlparsersharp_ray.html.dom import Node
from htmlparsersharp_ray.stages import parse_stage
from htmlparsersharp_ray.stages.parse_stage import (
    FEED_THRESHOLD_CHARS, HtmlExtractUDF)

_TEMPLATE = ('<div class="post"><p>Some words <a href="/x">a link</a> and '
             '<b>more</b> words.</p></div>')


def _batch(texts):
    n = len(texts)
    return pa.table({"conv_id": ["c"] * n, "turn_idx": list(range(n)),
                     "text": texts})


def test_feed_page_batch_runs_no_full_collection_and_leaves_no_tree():
    page = ("<!DOCTYPE html><html><body>"
            + _TEMPLATE * (FEED_THRESHOLD_CHARS // len(_TEMPLATE) + 1)
            + "</body></html>")
    assert len(page) > FEED_THRESHOLD_CHARS
    batch = _batch(["<p>first turn</p>", page, "<p>a <i>short</i> turn",
                    "<nav>menu</nav><p>last turn</p>"])
    # Start with empty generations, so that a full collection during the
    # call can only come from this batch's own allocations. Node objects
    # that outlive this collect belong to other tests.
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, Node)}
    generations = []

    def hook(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        out = HtmlExtractUDF()(batch)
    finally:
        gc.callbacks.remove(hook)
    # No explicit collect between the call and this count.
    left = sum(1 for o in gc.get_objects()
               if isinstance(o, Node) and id(o) not in before)
    assert out.num_rows == 4
    assert out.column("extracted_text")[1].as_py().startswith("Some words")
    assert 2 not in generations, generations
    assert left == 0


def test_gc_state_restored_when_enabled():
    assert gc.isenabled()
    HtmlExtractUDF().extract_one("<p>x</p>")
    assert gc.isenabled()


def test_gc_state_restored_when_caller_disabled_it():
    gc.disable()
    try:
        HtmlExtractUDF().extract_one("<p>x</p>")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gc_reenabled_when_parse_raises(monkeypatch):
    def boom(text):
        raise RuntimeError("parse failed")

    monkeypatch.setattr(parse_stage, "parse", boom)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="parse failed"):
        HtmlExtractUDF().extract_one("<p>x</p>")
    assert gc.isenabled()
