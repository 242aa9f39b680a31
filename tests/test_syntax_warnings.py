"""Every engine source compiles with no SyntaxWarning or
DeprecationWarning (an invalid escape such as ``'\\s'`` in a non-raw
string is one: a warning today, an error in a later Python)."""

from __future__ import annotations

import pathlib
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [*(ROOT / "htmlparsersharp_ray").rglob("*.py"),
     *(ROOT / "tools").rglob("*.py"),
     ROOT / "__ray_entry__.py"])


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        warnings.simplefilter("error", DeprecationWarning)
        compile(path.read_text(), str(path), "exec")
