"""Cross-layer identities between the n-gram tables and the evaluator.

When a layout places every letter of the corpus, scoring it needs no
replay: each adjacent letter pair the evaluator sees is one digraph
occurrence, so the switch count is the digraph mass across the hands
and each hand's load is its letters' monogram mass. Without boundary
resets the evaluator pairs letters across word breaks, which is the
``span_boundaries=True`` table; with resets it pairs only within runs,
which is the default table.
"""

import random
from pathlib import Path

import pytest

from layoutforge.corpus import read_corpus
from layoutforge.evaluator import evaluate
from layoutforge.layout import build_layout
from layoutforge.partition import partition_all
from layoutforge.stats import count_all

from test_evaluator import layout_from_hands

SAMPLE = sorted((Path(__file__).resolve().parent.parent / "data" / "bn_sample").glob("*.txt"))


@pytest.fixture(scope="module")
def stream():
    return read_corpus(SAMPLE)


def cross_hand_mass(digraphs, hand_of):
    return sum(count for gram, count in digraphs.counts.items()
               if hand_of(gram[0]) != hand_of(gram[1]))


def hand_mass(mono, hand_of, hand):
    return sum(count for letter, count in mono.counts.items() if hand_of(letter) == hand)


def check_identities(layout, stream):
    for reset in (False, True):
        mono, digraphs, _trigrams = count_all(stream, span_boundaries=not reset)
        assert all(layout.hand_of(letter) for letter in mono.counts)
        report = evaluate(layout, stream, reset_on_boundary=reset)
        assert report.hand_switching == cross_hand_mass(digraphs, layout.hand_of)
        assert report.left_load == hand_mass(mono, layout.hand_of, "left")
        assert report.right_load == hand_mass(mono, layout.hand_of, "right")
        assert report.not_determined == 0


def test_identities_for_the_built_layout(stream):
    mono, digraphs, _trigrams = count_all(stream)
    layout = build_layout(partition_all(mono, digraphs), mono)
    check_identities(layout, stream)


def test_identities_for_random_hand_splits(stream):
    rng = random.Random(31)
    letters = sorted(set(stream.letters()))
    for _ in range(20):
        rng.shuffle(letters)
        cut = rng.randrange(1, len(letters))
        check_identities(layout_from_hands(letters[:cut], letters[cut:]), stream)
