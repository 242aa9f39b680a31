"""A ``map_batches`` UDF runs as an actor pool only when it must.

Passing a class by name makes Ray Data start a pool of actors, each a
fresh process that imports the engine. That pays off only when the
class's ``__init__`` fetches broadcast state from the object store
(``ray.get``) or builds a per-actor ``DecodedBlockCache``. Every other
UDF is passed as an instance or a plain function, so Ray Data runs it
as tasks on the worker processes it reuses. This test reads the source
(no Ray session) and fails on any class passed by name whose
``__init__`` does neither.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "htmlparsersharp_ray").rglob("*.py")) + [
    ROOT / "__ray_entry__.py"
]
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_classes(scope: ast.AST) -> dict[str, ast.ClassDef]:
    """Classes defined directly in ``scope``, not in nested functions."""
    out: dict[str, ast.ClassDef] = {}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            out[node.name] = node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _fetches_state(init: ast.FunctionDef) -> bool:
    for node in ast.walk(init):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "get"
                and isinstance(f.value, ast.Name)
                and f.value.id in ("ray", "_ray")):
            return True
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "DecodedBlockCache":
            return True
    return False


def _needs_actor(cls: ast.ClassDef, module_classes: dict) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            return _fetches_state(stmt)
    for base in cls.bases:  # inherited __init__
        name = base.id if isinstance(base, ast.Name) else getattr(
            base, "attr", None)
        if name in module_classes:
            return _needs_actor(module_classes[name], module_classes)
    return False


def _map_batches_classes():
    """Yield (file:line, class name, ClassDef, module classes) for every
    ``map_batches`` call whose UDF argument names a class defined in the
    sources."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    module_classes: dict[str, ast.ClassDef] = {}
    for tree in trees.values():
        module_classes.update(_scope_classes(tree))
    for path, tree in trees.items():
        parents = {c: p for p in ast.walk(tree)
                   for c in ast.iter_child_nodes(p)}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "map_batches"):
                continue
            arg = call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "fn"), None)
            if isinstance(arg, ast.Name):
                name = arg.id
            elif isinstance(arg, ast.Attribute):
                name = arg.attr
            else:
                continue  # an instance, a call or a lambda
            cls, node = None, call
            while cls is None and node in parents:  # innermost scope first
                node = parents[node]
                if isinstance(node, _SCOPES):
                    cls = _scope_classes(node).get(name)
            cls = cls or module_classes.get(name)
            if cls is not None:
                site = f"{path.relative_to(ROOT)}:{call.lineno}"
                yield site, name, cls, module_classes


def test_only_stateful_udfs_run_as_actor_pools():
    actors, stateless = set(), []
    for site, name, cls, module_classes in _map_batches_classes():
        if _needs_actor(cls, module_classes):
            actors.add(name)
        else:
            stateless.append(f"{site} {name}")
    assert not stateless, (
        "pass these UDFs as an instance or a function (no concurrency=): "
        + ", ".join(stateless))
    # the scan reaches the broadcast actors, so it is not vacuous
    assert {"KeyFilter", "MergeRight", "ModelScoreUDF", "Classify",
            "PairFinder"} <= actors
