"""The package's public names, and the one shape of stream its counters and scorers take."""

import ast
from pathlib import Path

import pytest

import layoutforge
from layoutforge import (AlphabetConfig, count_all, count_ngrams, evaluate, evaluate_all,
                         tokenize)
from conftest import layout_from_hands


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from layoutforge import *", namespace)
    assert len(set(layoutforge.__all__)) == len(layoutforge.__all__)
    for name in layoutforge.__all__:
        assert namespace[name] is getattr(layoutforge, name)


# Public names that no module of the package uses, each kept for a caller outside it.
UNUSED_BY_THE_PACKAGE = {
    "concat_streams": "bench/spans.py traces layoutforge.corpus.concat_streams",
    "render_grid": "the only drawing of a layout, which demos/04_build_layout.py prints",
}


def test_every_public_name_is_used_by_the_package():
    """A public name that no module but ``__init__`` refers to restates one the pipeline calls."""
    used = set()
    for path in Path(layoutforge.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = set(layoutforge.__all__) - used
    assert unused == set(UNUSED_BY_THE_PACKAGE)


LAYOUT = layout_from_hands("a", "b")
TAKES_PIECES = {
    "count_all": lambda corpus: count_all(corpus),
    "count_ngrams": lambda corpus: count_ngrams(corpus, 2),
    "evaluate": lambda corpus: evaluate(LAYOUT, corpus),
    "evaluate_all": lambda corpus: evaluate_all([LAYOUT], corpus),
}


@pytest.mark.parametrize("call", TAKES_PIECES.values(), ids=TAKES_PIECES.keys())
def test_a_bare_stream_is_refused(call):
    """A stream is its pieces in order; a bare str would be one piece per letter."""
    stream = tokenize("ab ba", AlphabetConfig(ranges=((ord("a"), ord("b")),),
                                              exclude=frozenset()))
    with pytest.raises(TypeError, match=r"pass \[stream\], not a str"):
        call(stream)
    call([stream])
