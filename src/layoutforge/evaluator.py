"""Layout scoring: hand alternation, per-hand load, unplaced letters.

The score of a letter stream is a left-to-right fold. Each letter on the
layout adds to its hand's load and, when the previous determined letter
sat on the other hand, one hand switch. Letters the layout does not place
count as not-determined and leave the previous hand untouched; word
boundaries do the same unless boundary resetting is switched on.

A score comes by one of two routes. ``score_chunk`` replays a stream: it
scores any slice of a stream's text on its own, and ``ChunkScore.merge``
joins the scores of neighbouring slices associatively, so ``evaluate``
(the whole stream as one slice) and ``evaluate_chunked`` (the stream cut
into slices and merged) agree by construction. ``score_tables`` reads the
same report off the tables of ``stats.count_all`` when the layout places
every counted letter: the loads are monogram sums and the switches the
cross-hand mass of the letter pairs the fold sees. ``run-all`` takes the
table route wherever it is exact; ``evaluate`` replays, and so does
``run-all`` for a layout that leaves letters out or when boundaries both
span and reset. The replay is tested against a plain per-letter rescan,
and the tables against the replay.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence, TextIO, get_type_hints

from .atomic import OptionalField, read_json_object, write_json
from .corpus import BOUNDARY, LetterStream
from .errors import EmptyInput, MalformedInput
from .layout import KeyboardLayout
from .stats import NGramTable


@dataclass(frozen=True)
class EvaluationReport:
    layout_name: str
    hand_switching: int
    left_load: int
    right_load: int
    not_determined: int
    total_letters: int


@dataclass(frozen=True)
class ChunkScore:
    """Score of one contiguous slice of a stream, mergeable with neighbors.

    ``first`` and ``last`` are the slice's first and last markers: ``<``
    or ``>`` for a letter on the left or right hand, ``|`` for a reset,
    ``""`` when the slice has neither. Two slices meet in a switch when
    the left one ends on one hand and the right one starts on the other;
    a slice with no marker passes its neighbors' ends straight through.
    """

    left: int = 0
    right: int = 0
    not_determined: int = 0
    switching: int = 0
    first: str = ""
    last: str = ""

    def merge(self, other: "ChunkScore") -> "ChunkScore":
        junction = int(self.last + other.first in ("<>", "><"))
        return ChunkScore(
            left=self.left + other.left,
            right=self.right + other.right,
            not_determined=self.not_determined + other.not_determined,
            switching=self.switching + other.switching + junction,
            first=self.first or other.first,
            last=other.last or self.last,
        )


_HAND_MARKS = {"left": "<", "right": ">"}


def score_chunk(layout: KeyboardLayout, stream: LetterStream,
                *, reset_on_boundary: bool = False) -> ChunkScore:
    """Score a stream, or any slice of one, in a few passes over its text.

    Every distinct character maps to a hand marker, to nothing (a letter
    the layout lacks), or to a reset marker (a boundary, when boundaries
    reset); switches are then adjacent unlike markers, and the first and
    last markers are the slice's ends.
    """
    marks = {ord(ch): _HAND_MARKS.get(layout.hand_of(ch)) for ch in set(stream.text)}
    marks[ord(BOUNDARY)] = "|" if reset_on_boundary else None
    hands = stream.text.translate(marks)
    left, right = hands.count("<"), hands.count(">")
    return ChunkScore(left=left, right=right,
                      not_determined=stream.letter_count - left - right,
                      switching=hands.count("<>") + hands.count("><"),
                      first=hands[:1], last=hands[-1:])


def _report(layout: KeyboardLayout, score: ChunkScore) -> EvaluationReport:
    return EvaluationReport(
        layout_name=layout.name,
        hand_switching=score.switching,
        left_load=score.left,
        right_load=score.right,
        not_determined=score.not_determined,
        total_letters=score.left + score.right + score.not_determined,
    )


def evaluate(layout: KeyboardLayout, stream: LetterStream,
             *, reset_on_boundary: bool = False) -> EvaluationReport:
    """Score a whole stream as one slice."""
    return _report(layout, score_chunk(layout, stream, reset_on_boundary=reset_on_boundary))


def evaluate_chunked(layout: KeyboardLayout, stream: LetterStream, *, chunks: int = 4,
                     reset_on_boundary: bool = False) -> EvaluationReport:
    """Score a stream in independently scored slices; same result as evaluate."""
    if chunks < 1:
        raise ValueError(f"chunks must be positive, got {chunks}")
    text = stream.text
    size = max(1, math.ceil(len(text) / chunks))
    total = ChunkScore()
    for start in range(0, len(text), size):
        part = LetterStream(text=text[start:start + size])
        total = total.merge(score_chunk(layout, part, reset_on_boundary=reset_on_boundary))
    return _report(layout, total)


def _cross_hand_mass(layout: KeyboardLayout, pairs: NGramTable) -> int:
    total = 0
    for (first, second), count in pairs.counts.items():
        hand, other = layout.hand_of(first), layout.hand_of(second)
        if hand and other and hand != other:
            total += count
    return total


def score_tables(layout: KeyboardLayout, mono: NGramTable, digraphs: NGramTable,
                 junctions: NGramTable, *, reset_on_boundary: bool) -> EvaluationReport:
    """Score from the monogram, digraph and junction tables ``count_all`` returns.

    The loads are the per-hand monogram sums and the rest of the letters
    are not determined. The switches are the cross-hand mass of
    ``digraphs``, plus that of ``junctions`` (the pairs that meet across
    one boundary) unless boundaries reset. This equals ``evaluate`` on the
    counted stream when the layout places every letter of ``mono``, and
    the tables were counted within runs or, when boundaries do not reset,
    across them.
    """
    loads = {"left": 0, "right": 0}
    for letter, count in mono.counts.items():
        hand = layout.hand_of(letter)
        if hand:
            loads[hand] += count
    switching = _cross_hand_mass(layout, digraphs)
    if not reset_on_boundary:
        switching += _cross_hand_mass(layout, junctions)
    return _report(layout, ChunkScore(
        left=loads["left"], right=loads["right"], switching=switching,
        not_determined=mono.total_letters - loads["left"] - loads["right"]))


# ---------------------------------------------------------------------------
# Comparison of several reports over the same corpus.

@dataclass(frozen=True)
class ComparisonRow(EvaluationReport):
    switching_per_determined: float
    load_ratio: float


@dataclass(frozen=True)
class Comparison:
    rows: tuple[ComparisonRow, ...]
    warning: str | None = None


def compare(reports: Sequence[EvaluationReport]) -> Comparison:
    """Rank reports by hand switching, most alternation first."""
    if not reports:
        raise EmptyInput("no reports to compare")
    rows = []
    for rep in sorted(reports, key=lambda r: (-r.hand_switching, r.layout_name)):
        determined = rep.left_load + rep.right_load
        rows.append(ComparisonRow(
            **asdict(rep),
            switching_per_determined=rep.hand_switching / determined if determined else 0.0,
            load_ratio=rep.left_load / rep.right_load if rep.right_load else math.inf,
        ))
    warning = None
    if len({r.total_letters for r in rows}) > 1:
        warning = "reports cover different letter totals; scores are not directly comparable"
    return Comparison(rows=tuple(rows), warning=warning)


def format_comparison(comparison: Comparison) -> str:
    headers = ("layout", "switches", "left", "right", "not_det", "total",
               "sw/determined", "left/right")
    table = [headers]
    for row in comparison.rows:
        ratio = "inf" if math.isinf(row.load_ratio) else f"{row.load_ratio:.3f}"
        table.append((
            row.layout_name, str(row.hand_switching), str(row.left_load),
            str(row.right_load), str(row.not_determined), str(row.total_letters),
            f"{row.switching_per_determined:.4f}", ratio,
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = []
    for line in table:
        cells = [line[0].ljust(widths[0])]
        cells += [line[i].rjust(widths[i]) for i in range(1, len(headers))]
        lines.append("  ".join(cells).rstrip())
    if comparison.warning:
        lines.append(f"warning: {comparison.warning}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report files.

_REPORT_FIELDS = tuple(f.name for f in fields(EvaluationReport))
REPORT_SHAPE = {**get_type_hints(EvaluationReport), "config": OptionalField(dict)}


def write_report_json(report: EvaluationReport, path: str | Path,
                      *, config_echo: dict | None = None) -> None:
    doc = {name: getattr(report, name) for name in _REPORT_FIELDS}
    if config_echo is not None:
        doc["config"] = config_echo
    write_json(doc, path)


def read_report_json(path: str | Path) -> EvaluationReport:
    return read_json_object(path, MalformedInput, "report", REPORT_SHAPE, _report_from_doc)


def _report_from_doc(doc: dict) -> EvaluationReport:
    negative = [name for name in _REPORT_FIELDS if REPORT_SHAPE[name] is int and doc[name] < 0]
    if negative:
        raise MalformedInput(f"negative report counts: {negative}")
    if doc["left_load"] + doc["right_load"] + doc["not_determined"] != doc["total_letters"]:
        raise MalformedInput("left_load + right_load + not_determined != total_letters")
    return EvaluationReport(**{name: doc[name] for name in _REPORT_FIELDS})


def write_report_tsv(report: EvaluationReport, out: TextIO) -> None:
    out.write("\t".join(_REPORT_FIELDS) + "\n")
    out.write("\t".join(str(getattr(report, name)) for name in _REPORT_FIELDS) + "\n")
