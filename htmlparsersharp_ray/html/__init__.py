"""Pure-Python HTML5 parsing core (WHATWG tokenizer + tree builder).

Re-expresses the parsing semantics of HtmlParserSharp
(/root/reference/HtmlParserSharp/Core/Tokenizer.cs,
/root/reference/HtmlParserSharp/Core/TreeBuilder.cs) as an original
Python implementation driven by the published WHATWG HTML standard.
No Ray dependency — the Ray stages in ``..stages`` wrap this.
"""

from .dom import Document, DocumentFragment, Element, Text, Comment, Doctype  # noqa: F401
from .serializer import serialize_html, serialize_tree  # noqa: F401


def parse(text, **kwargs):
    from .parser import parse as _parse
    return _parse(text, **kwargs)


def parse_fragment(text, context, **kwargs):
    from .parser import parse_fragment as _parse_fragment
    return _parse_fragment(text, context, **kwargs)


def parse_chunked(text, chunk_size, **kwargs):
    """Chunk-feed parse (html/feed.py) — bit-identical to ``parse`` at
    any chunking; the bounded-memory path for giant documents."""
    from .feed import parse_chunked as _parse_chunked
    return _parse_chunked(text, chunk_size, **kwargs)
