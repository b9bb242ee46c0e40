"""The one-pass counter against a naive per-window count of the raw text.

The oracle never looks at a letter stream: it splits the original text
into letter runs with a plain character loop and slides a window over
each run (or, when windows span boundaries, over all letters in order).
Its junctions pair the last letter of each run with the first of the
next; when windows span boundaries there are none.
"""

import random
from collections import Counter

import pytest

from layoutforge import stats
from layoutforge.corpus import BOUNDARY, AlphabetConfig, concat_streams, tokenize
from layoutforge.stats import NGRAM_SIZES, count_all, count_ngrams


def naive_tables(text, alphabet, span_boundaries):
    runs, run = [], []
    for ch in text:
        if ch in alphabet:
            run.append(ch)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    if span_boundaries:
        runs = [[ch for r in runs for ch in r]]
    junctions = Counter(a[-1] + b[0] for a, b in zip(runs, runs[1:]))
    tables = []
    for n in NGRAM_SIZES:
        counts = Counter()
        for r in runs:
            for i in range(len(r) - n + 1):
                counts["".join(r[i:i + n])] += 1
        tables.append(counts)
    return tables + [junctions]


def letter_config(letters):
    return AlphabetConfig(ranges=(), include=frozenset(letters), exclude=frozenset())


def check_against_oracle(rng, letters, others, rounds):
    config = letter_config(letters)
    pool = list(letters) + list(others)
    for _ in range(rounds):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 400)))
        stream = tokenize(text, config)
        assert BOUNDARY not in config.resolve()
        for span in (False, True):
            tables = count_all([stream], span_boundaries=span)
            expected = naive_tables(text, config.resolve(), span)
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
        expected = naive_tables(text, config.resolve(), span)
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
            expected = naive_tables(" ".join(texts), config.resolve(), span)
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
