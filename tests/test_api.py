"""The package's public names, and the one shape of stream its counters and scorers take."""

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
