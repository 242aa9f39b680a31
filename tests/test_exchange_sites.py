"""Exchange rules, read from the source (no Ray session).

Bucketed per-key work in ``pipelines/relational.py`` goes through
``stages.exchange.bucket_group_map``. A raw ``ds.groupby(X).map_groups(fn)``
is Ray's sort-based exchange over raw rows, and a hand-made bucket
column ``X`` puts the bucketing rule in the query instead of in the
exchange. Raw ``map_groups`` stays only for natural low-cardinality
keys, one group per value.

The blob-row format (an int64 ``bucket`` plus an Arrow-IPC ``blob``) is
known only to ``stages/exchange.py``, whose ``pack_by``, ``blob_row``
and ``unpack`` every other module uses, ``pipelines/joins.py`` too:
its two-sided rows only add a ``side`` column.
"""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "htmlparsersharp_ray"
RELATIONAL = PACKAGE / "pipelines" / "relational.py"

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


# hand-written partial → pandas → _pysum_cols merges left in
# relational.py; grouped SUM/COUNT merges go through _group_sums
PYSUM_MERGES_MAX = 19


def test_grouped_sums_go_through_group_sums():
    tree = ast.parse(RELATIONAL.read_text())
    helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == "_group_sums")
    inside = {id(n) for n in ast.walk(helper)}
    calls = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
             and n.func.id == "_pysum_cols" and id(n) not in inside]
    assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "_pysum_cols" for n in ast.walk(helper))
    assert len(calls) <= PYSUM_MERGES_MAX, (
        "write a grouped SUM/COUNT with _group_sums(ds, keys, terms), "
        f"not a new _pysum_cols merge (lines {calls})")


BLOB_OWNERS = {"stages/exchange.py"}
IPC_NAMES = {"serialize_table", "deserialize_table"}
BLOB_COLUMN = "large_binary blob column"


def _has_large_binary(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "large_binary"
               for n in ast.walk(node))


def _is_blob_key(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == "blob"


def _blob_format_sites(tree: ast.AST):
    """(line, what) of every import or call of the IPC helpers and every
    ``"blob"`` column typed ``large_binary`` (a dict entry, a schema
    ``("blob", type)`` tuple or a ``pa.field("blob", type)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in IPC_NAMES:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = (f.attr if isinstance(f, ast.Attribute)
                    else f.id if isinstance(f, ast.Name) else None)
            if name in IPC_NAMES:
                yield node.lineno, name
            elif (node.args and _is_blob_key(node.args[0])
                  and any(_has_large_binary(a) for a in node.args[1:])):
                yield node.lineno, BLOB_COLUMN
        elif isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if k is not None and _is_blob_key(k) and _has_large_binary(v):
                    yield node.lineno, BLOB_COLUMN
        elif isinstance(node, ast.Tuple):
            elts = node.elts
            if (len(elts) == 2 and _is_blob_key(elts[0])
                    and _has_large_binary(elts[1])):
                yield node.lineno, BLOB_COLUMN


def test_blob_rows_only_in_exchange_and_joins():
    sites = {
        path.relative_to(PACKAGE).as_posix():
            list(_blob_format_sites(ast.parse(path.read_text())))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    bad = [f"{rel}:{line} {what}" for rel, found in sites.items()
           if rel not in BLOB_OWNERS for line, what in found]
    assert not bad, (
        "blob rows are built and read through stages/exchange.py "
        "(pack_by, blob_row, unpack, bucket_group_map):\n"
        + "\n".join(bad))
    # the scan must reach every kind of site in the owner, or a change
    # in call shape would let it pass without looking at anything
    assert not sites["pipelines/joins.py"]
    assert {what for _, what in sites["stages/exchange.py"]} == (
        IPC_NAMES | {BLOB_COLUMN})
