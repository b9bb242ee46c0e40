"""Greedy hand assignment: seeding, the decision rule, and trace replay.

The randomized suite checks partition_all against ``oracle.greedy``,
which recomputes every cumulative sum directly from the raw count dicts,
step by step, sharing no code with the implementation.
"""

import json
import random
from collections import Counter

import pytest

from layoutforge.errors import AlreadyAssigned, ConfigError, TooFewLetters
from layoutforge.partition import (HandPartition, assign, initialize, partition_all,
                                   read_partition_json, write_partition_json)
from layoutforge.stats import NGramTable, involvement_totals
from conftest import FOCUS, K_LEFT_SCORE, K_RIGHT_SCORE, random_corpus, trace_rows
import oracle


# ---------------------------------------------------------------------------
# Seeding.

def test_initialize_from_published_ranking(paper_mono):
    from layoutforge.stats import ranked_monograms
    part = initialize(ranked_monograms(paper_mono)[:4])
    assert part.right == ["া", "ি"]
    assert part.left == ["ে", "র"]
    assert [d.rule for d in part.trace] == ["seed"] * 4


def test_initialize_rank_rule():
    part = initialize(["a", "b", "c", "d"])
    assert part.right == ["a", "d"]
    assert part.left == ["b", "c"]


def test_initialize_accepts_ranking_tuples():
    part = initialize([("a", 9, 50.0), ("b", 5, 20.0), ("c", 3, 20.0), ("d", 1, 10.0)])
    assert part.right == ["a", "d"]


def test_initialize_refuses_short_ranking():
    with pytest.raises(TooFewLetters):
        initialize(["a", "b", "c"])


# ---------------------------------------------------------------------------
# The decision rule.

def test_worked_example_sends_focus_right(paper_mono, paper_digraphs):
    from layoutforge.stats import ranked_monograms
    part = initialize(ranked_monograms(paper_mono)[:4])
    assign(FOCUS, part, paper_digraphs, involvement_totals(paper_digraphs))
    assert part.right == ["া", "ি", FOCUS]
    decision = part.trace[-1]
    assert decision.hand == "right"
    assert decision.rule == "left-association-to-right"
    assert decision.left.cumulative_support == pytest.approx(K_LEFT_SCORE[0], abs=1e-5)
    assert decision.left.cumulative_confidence == pytest.approx(K_LEFT_SCORE[1], abs=1e-5)
    assert decision.right.cumulative_support == pytest.approx(K_RIGHT_SCORE[0], abs=1e-5)
    assert decision.right.cumulative_confidence == pytest.approx(K_RIGHT_SCORE[1], abs=1e-5)


def test_zero_scores_default_left():
    mono = NGramTable(1, Counter({"a": 4, "b": 3, "c": 2, "d": 1, "e": 1}), 11)
    dig = NGramTable(2, Counter(), 11)
    part = initialize(["a", "b", "c", "d"])
    assign("e", part, dig, involvement_totals(dig))
    assert part.left[-1] == "e"
    assert part.trace[-1].rule == "default-left"


def test_right_association_still_defaults_left():
    # e pairs only with right-hand letters; the literal rule has no
    # mirrored branch, so e lands left anyway
    mono = NGramTable(1, Counter({"a": 9, "b": 8, "c": 7, "d": 6, "e": 1}), 31)
    dig = NGramTable(2, Counter({"ea": 5, "de": 4}), 31)
    part = initialize(["a", "b", "c", "d"])  # right = a, d
    assign("e", part, dig, involvement_totals(dig))
    assert part.left[-1] == "e"
    assert part.trace[-1].rule == "default-left"


def test_balance_tiebreak_mirrors_the_rule():
    mono = NGramTable(1, Counter({"a": 9, "b": 8, "c": 7, "d": 6, "e": 1}), 31)
    dig = NGramTable(2, Counter({"ea": 5, "de": 4}), 31)
    part = initialize(["a", "b", "c", "d"])
    assign("e", part, dig, involvement_totals(dig), balance_tiebreak=True)
    assert part.left[-1] == "e"
    assert part.trace[-1].rule == "right-association-to-left"


def test_balance_tiebreak_sends_ties_to_lighter_hand():
    mono = NGramTable(1, Counter({"a": 9, "b": 8, "c": 7, "d": 6, "e": 1, "f": 1}), 32)
    dig = NGramTable(2, Counter(), 32)
    part = initialize(["a", "b", "c", "d"])
    assign("e", part, dig, involvement_totals(dig), balance_tiebreak=True)  # 2 vs 2: left wins ties
    assert part.left[-1] == "e"
    assert part.trace[-1].rule == "balance-to-lighter"
    assign("f", part, dig, involvement_totals(dig), balance_tiebreak=True)  # left 3, right 2
    assert part.right[-1] == "f"


def test_assign_rejects_duplicates(paper_mono, paper_digraphs):
    part = initialize(["া", "ে", "র", "ি"])
    for letter, hand in (("া", "right"), ("ে", "left")):
        with pytest.raises(AlreadyAssigned, match=f"already on the {hand} hand"):
            assign(letter, part, paper_digraphs, involvement_totals(paper_digraphs))


def test_all_zero_digraphs_send_everything_left():
    letters = [chr(ord("a") + i) for i in range(10)]
    mono = NGramTable(1, Counter({l: 10 - i for i, l in enumerate(letters)}), 55)
    dig = NGramTable(2, Counter(), 55)
    part = partition_all(mono, dig)
    assert part.right == [letters[0], letters[3]]
    assert part.left == [letters[1], letters[2]] + letters[4:]


# ---------------------------------------------------------------------------
# Whole-run behavior.

def test_four_letter_corpus_is_initialization_only():
    mono = NGramTable(1, Counter({"a": 4, "b": 3, "c": 2, "d": 1}), 10)
    dig = NGramTable(2, Counter({"ab": 1}), 10)
    part = partition_all(mono, dig)
    assert len(part.trace) == 4
    assert set(part.left) | set(part.right) == {"a", "b", "c", "d"}


def test_partition_requires_four_letters():
    mono = NGramTable(1, Counter({"a": 5, "b": 1, "c": 1}), 7)
    dig = NGramTable(2, Counter(), 7)
    with pytest.raises(TooFewLetters):
        partition_all(mono, dig)


def test_coverage_floor_drops_rare_letters():
    mono = NGramTable(1, Counter({"a": 9, "b": 8, "c": 7, "d": 6, "e": 1}), 31)
    dig = NGramTable(2, Counter(), 31)
    part = partition_all(mono, dig, coverage=2)
    assert "e" not in set(part.left) | set(part.right)
    assert len(part.trace) == 4
    with pytest.raises(TooFewLetters):
        partition_all(mono, dig, coverage=7)


def test_partition_is_deterministic():
    rng = random.Random(31)
    mono, dig = random_corpus(rng, 15, 500)
    first = partition_all(mono, dig)
    second = partition_all(mono, dig)
    assert first.left == second.left
    assert first.right == second.right
    assert first.trace == second.trace


def test_disjoint_and_complete_after_every_step():
    rng = random.Random(37)
    for _ in range(10):
        mono, dig = random_corpus(rng, rng.randrange(6, 20), 300)
        part = partition_all(mono, dig)
        assert not set(part.left) & set(part.right)
        assert set(part.left) | set(part.right) == set(mono.counts)
        assert len(part.trace) == len(mono.counts)


def test_matches_independent_replay():
    rng = random.Random(41)
    for _ in range(100):
        mono, dig = random_corpus(rng, rng.randrange(12, 31), rng.randrange(200, 2001))
        part = partition_all(mono, dig)
        left, right, trace = oracle.greedy(mono.counts, dig.counts, mono.total_letters)
        assert part.left == left
        assert part.right == right
        assert trace_rows(part) == trace


def test_trace_replays_to_the_same_partition():
    rng = random.Random(43)
    mono, dig = random_corpus(rng, 18, 800)
    part = partition_all(mono, dig)
    rebuilt = HandPartition()
    for decision in part.trace:
        getattr(rebuilt, decision.hand).append(decision.letter)
    assert rebuilt.left == part.left
    assert rebuilt.right == part.right


# ---------------------------------------------------------------------------
# JSON round-trip.

def test_partition_json_round_trip(tmp_path, paper_mono, paper_digraphs):
    part = partition_all(paper_mono, paper_digraphs)
    path = tmp_path / "partition.json"
    write_partition_json(part, paper_mono, path, config_echo={"coverage": 1})
    assert list(json.loads(path.read_text(encoding="utf-8")).items())[-1] == (
        "config", {"coverage": 1})  # the echo is the last key
    back, mono = read_partition_json(path)
    assert back.left == part.left
    assert back.right == part.right
    assert back.trace == part.trace
    assert mono.counts == paper_mono.counts
    assert mono.total_letters == paper_mono.total_letters


def test_partition_json_rejects_corruption(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_partition_json(path)
    path.write_text('{"left": ["a"], "right": ["a"], "trace": [], '
                    '"ranking": [], "total_letters": 1}', encoding="utf-8")
    with pytest.raises(ConfigError):
        read_partition_json(path)
    path.write_text('{"left": ["a"], "right": ["b"], "trace": [], '
                    '"ranking": [], "total_letters": 1}', encoding="utf-8")
    with pytest.raises(ConfigError):  # trace shorter than assignments
        read_partition_json(path)
