"""No function body is pasted twice under ``htmlparsersharp_ray/``.

Two functions with the same argument list and the same body (their
docstrings, names and formatting aside) are one stage written twice: a
fix to one copy silently misses the other. This test reads the source
(no Ray session) and fails on every such group whose longer body spans
at least ``MIN_LINES`` lines; define the stage once at module level and
call it from both places instead.
"""

from __future__ import annotations

import ast
import collections
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "htmlparsersharp_ray"
MIN_LINES = 5


def _body(fn: ast.AST) -> list:
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _copies(root: pathlib.Path) -> list[list[str]]:
    """Sorted ``path:line name`` sites of every group of copied
    functions under ``root``."""
    groups = collections.defaultdict(list)
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = _body(node)
            if not body:
                continue
            key = ast.dump(node.args) + "".join(ast.dump(s) for s in body)
            lines = body[-1].end_lineno - body[0].lineno + 1
            site = f"{path.relative_to(root).as_posix()}:{node.lineno} {node.name}"
            groups[key].append((lines, site))
    return [sorted(site for _, site in g) for g in groups.values()
            if len(g) > 1 and max(n for n, _ in g) >= MIN_LINES]


def test_no_function_pasted_twice():
    copies = _copies(PACKAGE)
    assert not copies, (
        "identical functions (share one module-level definition):\n"
        + "\n".join(" == ".join(g) for g in copies))


def test_copy_scan_catches_a_planted_copy(tmp_path):
    # the scan must see through names, docstrings and formatting, and
    # ignore copies shorter than MIN_LINES, or the test above proves
    # nothing
    long_fn = ("def a(x):\n    y = x\n    y += 1\n    y += 2\n"
               "    y += 3\n    return y\n")
    twin = ('def b(x):\n    """Doc."""\n    y = (x)\n    y += 1\n'
            "    y += 2\n    y += 3\n    return y\n")
    short = "def c(x):\n    return x + 1\n\n\ndef d(x):\n    return x + 1\n"
    (tmp_path / "m.py").write_text(long_fn + "\n\n" + twin + "\n\n" + short)
    assert _copies(tmp_path) == [["m.py:1 a", "m.py:9 b"]]
