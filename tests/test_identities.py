"""Scoring from the n-gram tables against the replay of the stream.

When a layout places every letter of the corpus, scoring it needs no
replay: each adjacent letter pair the evaluator sees is one digraph or
junction occurrence, so the switch count is the cross-hand mass of those
tables and each hand's load is its letters' monogram mass
(``score_tables``). Without boundary resets the evaluator pairs letters
across word breaks: the run-only digraphs plus the junctions, which
together are the ``span_boundaries=True`` digraph table. With resets it
pairs only within runs, which is the run-only digraph table alone; a
count spanning boundaries cannot give it, so that one combination, like
a layout that leaves letters out, is scored by replay. ``run-all``
takes the table route exactly where these tests hold ``score_tables``
equal to ``evaluate``.
"""

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutforge.corpus import AlphabetConfig, read_corpus, tokenize
from layoutforge.evaluator import evaluate, score_tables
from layoutforge.layout import build_layout
from layoutforge.partition import partition_all
from layoutforge.stats import count_all

from test_evaluator import layout_from_hands

SAMPLE = sorted((Path(__file__).resolve().parent.parent / "data" / "bn_sample").glob("*.txt"))

# (span_boundaries, reset_on_boundary) of the counts the table route scores from
TABLE_ROUTES = ((False, False), (False, True), (True, False))

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def stream():
    return read_corpus(SAMPLE)


def check_identities(layout, stream):
    for span, reset in TABLE_ROUTES:
        mono, digraphs, _trigrams, junctions = count_all(stream, span_boundaries=span)
        assert all(layout.hand_of(letter) for letter in mono.counts)
        assert (score_tables(layout, mono, digraphs, junctions, reset_on_boundary=reset)
                == evaluate(layout, stream, reset_on_boundary=reset))


def test_identities_for_the_built_layout(stream):
    mono, digraphs, _trigrams, _junctions = count_all(stream)
    layout = build_layout(partition_all(mono, digraphs), mono)
    check_identities(layout, stream)


def test_identities_for_random_hand_splits(stream):
    rng = random.Random(31)
    letters = sorted(set(stream.letters()))
    for _ in range(20):
        rng.shuffle(letters)
        cut = rng.randrange(1, len(letters))
        check_identities(layout_from_hands(letters[:cut], letters[cut:]), stream)


# Letters and boundary characters overlap: a space or NUL may be drawn as a
# letter, while LF is always the boundary.
LETTER_POOL = "abc \x00"
TEXT_POOL = "abc \x00.\n"


@st.composite
def streams_and_layouts(draw):
    letters = draw(st.sets(st.sampled_from(LETTER_POOL), min_size=1))
    stream = tokenize(draw(st.text(TEXT_POOL, max_size=80)),
                      AlphabetConfig(ranges=(), include=frozenset(letters), exclude=frozenset()))
    left = draw(st.sets(st.sampled_from(sorted(letters))))
    layout = layout_from_hands(sorted(left), sorted(letters - left))
    return stream, layout


@FUZZ
@given(streams_and_layouts())
def test_score_tables_equals_the_replay(case):
    stream, layout = case
    check_identities(layout, stream)
    _mono, run_only, _trigrams, junctions = count_all(stream)
    _mono, spanning, _trigrams, no_junctions = count_all(stream, span_boundaries=True)
    assert run_only.counts + junctions.counts == spanning.counts
    assert not no_junctions.counts


def test_score_tables_counts_no_switch_at_an_unplaced_letter():
    layout = layout_from_hands(["a"], ["b"])
    stream = tokenize("abxa", AlphabetConfig(ranges=(), include=frozenset("abx"),
                                             exclude=frozenset()))
    mono, digraphs, _trigrams, junctions = count_all(stream)
    report = score_tables(layout, mono, digraphs, junctions, reset_on_boundary=False)
    assert (report.hand_switching, report.left_load, report.right_load,
            report.not_determined, report.total_letters) == (1, 2, 1, 1, 4)
