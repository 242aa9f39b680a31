"""Bucketed per-key work in ``pipelines/relational.py`` goes through
``stages.exchange.bucket_group_map``.

A raw ``ds.groupby(X).map_groups(fn)`` is Ray's sort-based exchange over
raw rows, and a hand-made bucket column ``X`` puts the bucketing rule
in the query instead of in the exchange. Raw ``map_groups`` stays only
for natural low-cardinality keys, one group per value. This test reads
the source (no Ray session) and fails on any ``.groupby(X).map_groups``
whose ``X`` is not one of those natural columns.
"""

from __future__ import annotations

import ast
import pathlib

RELATIONAL = (pathlib.Path(__file__).resolve().parents[1]
              / "htmlparsersharp_ray" / "pipelines" / "relational.py")

# natural keys: 25 brands, 5 regions, a handful of sources
NATURAL_KEYS = {"p_brand", "r_name", "source", "brand"}


def _groupby_map_groups_keys(tree: ast.AST):
    """(line, key source) of every ``<expr>.groupby(key).map_groups(...)``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"):
            continue
        inner = node.func.value
        if (isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "groupby"):
            key = inner.args[0] if inner.args else None
            name = (key.value if isinstance(key, ast.Constant)
                    else ast.unparse(key) if key is not None else "")
            yield node.lineno, name


def test_raw_map_groups_only_on_natural_keys():
    tree = ast.parse(RELATIONAL.read_text())
    sites = list(_groupby_map_groups_keys(tree))
    bad = [f"relational.py:{line} groupby({key!r})"
           for line, key in sites if key not in NATURAL_KEYS]
    assert not bad, (
        "bucketed per-key work must use stages.exchange.bucket_group_map "
        "(key_buckets or a bucket_of callable), not a hand-made bucket "
        "column:\n" + "\n".join(bad))
    # the scan must reach the natural-key sites it allows, or a change
    # in call shape would let it pass without looking at anything
    assert {key for _, key in sites} == NATURAL_KEYS


def test_no_bucket_tagger_helper():
    tree = ast.parse(RELATIONAL.read_text())
    names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_add_user_bucket" not in names
