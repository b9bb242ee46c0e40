"""Greedy two-hand partition of an alphabet by digraph association.

Letters are taken in descending frequency order. The four most frequent
seed the hands (first and fourth right, second and third left) so each
hand starts with comparable weight. Every later letter is scored against
both hands; a letter strongly associated with the left hand — higher
cumulative support AND higher cumulative confidence there — goes right,
so that the pairs it forms most often become hand alternations. Any
weaker or mixed signal defaults left.

The deterministic left bias is intentional: it keeps the procedure
reproducible with no RNG and no dependence on dict order. An optional
tiebreak mode adds the mirrored rule and sends genuinely mixed cases to
the lighter hand instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .atomic import OptionalField, read_json_object, write_json
from .errors import AlreadyAssigned, ConfigError, TooFewLetters
from .stats import (NGramTable, SideScore, involvement_totals, ranked_monograms,
                    side_scores)

RULE_SEED = "seed"
RULE_LEFT_TO_RIGHT = "left-association-to-right"
RULE_RIGHT_TO_LEFT = "right-association-to-left"
RULE_DEFAULT_LEFT = "default-left"
RULE_BALANCE = "balance-to-lighter"


@dataclass(frozen=True)
class Decision:
    """One step of the assignment trace: the scores seen and the rule applied."""

    letter: str
    left: SideScore
    right: SideScore
    hand: str
    rule: str


@dataclass
class HandPartition:
    """Disjoint left/right letter lists, in assignment order, plus the trace."""

    left: list[str] = field(default_factory=list)
    right: list[str] = field(default_factory=list)
    trace: list[Decision] = field(default_factory=list)

    def hand_of(self, letter: str) -> str:
        if letter in self.left:
            return "left"
        if letter in self.right:
            return "right"
        raise KeyError(f"{letter!r} is not assigned to either hand")


def _letter_of(entry) -> str:
    return entry if isinstance(entry, str) else entry[0]


def initialize(ranking: Sequence) -> HandPartition:
    """Seed the hands from the top four letters of a frequency ranking.

    ``ranking`` entries may be bare letters or (letter, ...) tuples as
    produced by ranked_monograms. Ranks one and four go right, two and
    three left. Fewer than four letters is refused.
    """
    letters = [_letter_of(e) for e in ranking[:4]]
    if len(letters) < 4:
        raise TooFewLetters(
            f"need at least 4 distinct letters to seed both hands, got {len(letters)}")
    zero = SideScore(0.0, 0.0)
    part = HandPartition()
    for letter, hand in zip(letters, ("right", "left", "left", "right")):
        getattr(part, hand).append(letter)
        part.trace.append(Decision(letter, zero, zero, hand, RULE_SEED))
    return part


def assign(letter: str, partition: HandPartition, digraphs: NGramTable,
           involvement: Mapping[str, int], *, balance_tiebreak: bool = False) -> HandPartition:
    """Place one letter by comparing its cumulative scores against both hands.

    ``involvement`` is ``involvement_totals(digraphs)``. Mutates and returns
    the partition; the decision is appended to the trace.
    """
    if letter in partition.left or letter in partition.right:
        raise AlreadyAssigned(f"{letter!r} is already on the {partition.hand_of(letter)} hand")
    left_score = side_scores(letter, partition.left, digraphs, involvement)
    right_score = side_scores(letter, partition.right, digraphs, involvement)
    if (left_score.cumulative_support > right_score.cumulative_support
            and left_score.cumulative_confidence > right_score.cumulative_confidence):
        hand, rule = "right", RULE_LEFT_TO_RIGHT
    elif balance_tiebreak and (
            right_score.cumulative_support > left_score.cumulative_support
            and right_score.cumulative_confidence > left_score.cumulative_confidence):
        hand, rule = "left", RULE_RIGHT_TO_LEFT
    elif balance_tiebreak:
        hand = "left" if len(partition.left) <= len(partition.right) else "right"
        rule = RULE_BALANCE
    else:
        hand, rule = "left", RULE_DEFAULT_LEFT
    getattr(partition, hand).append(letter)
    partition.trace.append(Decision(letter, left_score, right_score, hand, rule))
    return partition


def partition_all(mono: NGramTable, digraphs: NGramTable, *, coverage: int = 1,
                  balance_tiebreak: bool = False) -> HandPartition:
    """Run the full greedy partition over every letter meeting the coverage floor."""
    ranking = [r for r in ranked_monograms(mono) if r[1] >= coverage]
    if len(ranking) < 4:
        raise TooFewLetters(
            f"need at least 4 distinct letters to seed both hands, got {len(ranking)}"
            + (f" at coverage >= {coverage}" if coverage > 1 else ""))
    part = initialize(ranking)
    involvement = involvement_totals(digraphs)
    for letter, _count, _pct in ranking[4:]:
        assign(letter, part, digraphs, involvement, balance_tiebreak=balance_tiebreak)
    return part


# ---------------------------------------------------------------------------
# JSON import/export. The file embeds the frequency ranking it was derived
# from, so downstream steps (layout building) can run from the file alone.

PARTITION_SHAPE = {
    "left": [str], "right": [str], "degenerate": OptionalField(bool), "total_letters": int,
    "ranking": [(str, int)], "config": OptionalField(dict),
    "trace": [{"letter": str, "left_support": float, "left_confidence": float,
               "right_support": float, "right_confidence": float, "hand": str, "rule": str}],
}


def write_partition_json(partition: HandPartition, mono: NGramTable, out_path: str | Path,
                         *, config_echo: dict | None = None) -> None:
    ranking = ranked_monograms(mono)
    payload = {
        "left": list(partition.left),
        "right": list(partition.right),
        "degenerate": False,  # kept for file compatibility: partition_all seeds 4 letters
        "total_letters": mono.total_letters,
        "ranking": [[letter, count] for letter, count, _pct in ranking],
        "trace": [
            {
                "letter": d.letter,
                "left_support": d.left.cumulative_support,
                "left_confidence": d.left.cumulative_confidence,
                "right_support": d.right.cumulative_support,
                "right_confidence": d.right.cumulative_confidence,
                "hand": d.hand,
                "rule": d.rule,
            }
            for d in partition.trace
        ],
    }
    if config_echo is not None:
        payload["config"] = config_echo
    write_json(payload, out_path)


def read_partition_json(path: str | Path) -> tuple[HandPartition, NGramTable]:
    """Load a partition file; returns the partition and its embedded ranking
    as a monogram table."""
    return read_json_object(path, ConfigError, "partition", PARTITION_SHAPE, _partition_from_doc)


def _partition_from_doc(payload: dict) -> tuple[HandPartition, NGramTable]:
    part = HandPartition(left=payload["left"], right=payload["right"])
    part.trace = [Decision(row["letter"], SideScore(row["left_support"], row["left_confidence"]),
                           SideScore(row["right_support"], row["right_confidence"]),
                           row["hand"], row["rule"])
                  for row in payload["trace"]]
    counts = Counter(dict(payload["ranking"]))
    total = payload["total_letters"]
    left, right = set(part.left), set(part.right)
    if not all(len(letter) == 1 for letter in left | right | set(counts)):
        raise ConfigError("every placed and ranked letter must be one code point")
    ranked = [letter for letter, _count in payload["ranking"]]
    for where, listed in ("left hand", part.left), ("right hand", part.right), ("ranking", ranked):
        twice = sorted(letter for letter, seen in Counter(listed).items() if seen > 1)
        if twice:
            raise ConfigError(f"the {where} lists {twice} more than once")
    if total < 0 or min(counts.values(), default=0) < 0:
        raise ConfigError("total_letters and ranking counts must not be negative")
    if counts.total() > total:
        raise ConfigError(f"ranking counts add up to {counts.total()},"
                          f" more than total_letters {total}")
    if left & right:
        raise ConfigError("hands are not disjoint")
    if len(part.trace) != len(part.left) + len(part.right):
        raise ConfigError("trace length does not match assigned letters")
    for decision in part.trace:
        placed = ("left" if decision.letter in left
                  else "right" if decision.letter in right else None)
        if decision.hand != placed:
            raise ConfigError(f"trace puts {decision.letter!r} on the {decision.hand} hand,"
                              f" the hands put it on {placed or 'neither'}")
    unranked = (left | right) - set(counts)
    if unranked:
        raise ConfigError(f"placed letters missing from the ranking: {sorted(unranked)}")
    return part, NGramTable(n=1, counts=counts, total_letters=total)
