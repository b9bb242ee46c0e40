"""The one-pass counter against the oracle's count of the raw text.

The oracle never looks at a letter stream: it splits the original text
into letter runs with a plain character loop (``oracle.letter_runs``)
and counts windows within each run, or across all of them
(``oracle.count``).
"""

import random

import pytest

from layoutforge import stats
from layoutforge.corpus import BOUNDARY, AlphabetConfig, concat_streams, tokenize
from layoutforge.stats import NGRAM_SIZES, count_all, count_ngrams
from conftest import letter_config
import oracle


def check_against_oracle(rng, letters, others, rounds):
    config = letter_config(letters)
    pool = list(letters) + list(others)
    for _ in range(rounds):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 400)))
        stream = tokenize(text, config)
        assert BOUNDARY not in config.resolve()
        for span in (False, True):
            tables = count_all([stream], span_boundaries=span)
            expected = oracle.count(oracle.letter_runs(text, config.resolve()), span)
            for n, table, counts in zip((*NGRAM_SIZES, 2), tables, expected):
                assert table.n == n
                assert table.counts == counts
                assert table.total_letters == sum(expected[0].values())
            for n in NGRAM_SIZES:
                assert count_ngrams([stream], n, span_boundaries=span).counts == expected[n - 1]


def test_count_all_matches_naive_windows():
    check_against_oracle(random.Random(20), "abcdef", " .,\n", 300)


def test_count_all_with_space_as_a_letter():
    # The space is a letter here, and LF still stands for the boundary.
    rng = random.Random(21)
    letters = "ab c"
    assert tokenize("a b.c", letter_config(letters)) == "a b" + BOUNDARY + "c"
    check_against_oracle(rng, letters, ".\n\x00", 300)


def test_count_all_with_regex_special_letters():
    check_against_oracle(random.Random(22), "]-^\\[a", " z", 200)


def test_count_all_with_astral_letters():
    # Letters up to the top of the code space pin the 21-bit packing of
    # window keys; NUL is no letter, so it becomes a boundary like the rest.
    check_against_oracle(random.Random(24), "a\u0995\U00010000\U0001F600\U0010FFFF",
                         " \x00.", 200)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_count_all_across_block_seams(monkeypatch, block):
    # Blocks this short put a seam inside trigram windows and junctions alike.
    monkeypatch.setattr(stats, "_BLOCK", block)
    check_against_oracle(random.Random(25 + block), "abcdef", " .,\n", 100)


def test_count_all_over_several_blocks():
    rng = random.Random(30)
    config = letter_config("abcdefgh")
    text = "".join(rng.choices("abcdefgh  .", k=5 * stats._BLOCK))
    stream = tokenize(text, config)
    assert len(stream.replace(BOUNDARY, "")) > 3 * stats._BLOCK
    for span in (False, True):
        expected = oracle.count(oracle.letter_runs(text, config.resolve()), span)
        assert [t.counts for t in count_all([stream], span_boundaries=span)] == expected


def test_count_all_over_concatenated_streams():
    rng = random.Random(23)
    config = letter_config("xyz")
    for _ in range(100):
        texts = ["".join(rng.choice("xyz  ") for _ in range(rng.randrange(1, 30)))
                 for _ in range(rng.randrange(1, 5))]
        joined = concat_streams(tokenize(t, config) for t in texts)
        # Files are joined with a boundary, exactly as if a space stood between them.
        assert joined == tokenize(" ".join(texts), config)
        for span in (False, True):
            expected = oracle.count(oracle.letter_runs(" ".join(texts), config.resolve()),
                                    span)
            assert [t.counts for t in count_all([joined], span_boundaries=span)] == expected


def test_alphabet_without_letters():
    config = AlphabetConfig(ranges=(), include=frozenset(), exclude=frozenset())
    assert config.resolve() == frozenset()
    for text, expected in (("", ""), ("abc d", BOUNDARY), ("\n\n", BOUNDARY)):
        stream = tokenize(text, config)
        assert stream == expected
        assert stream.strip(BOUNDARY) == ""
        for span in (False, True):
            for n, table in zip(NGRAM_SIZES, count_all([stream], span_boundaries=span)):
                assert table.n == n and not table.counts and table.total_letters == 0
