"""Layout scoring: hand alternation, per-hand load, unplaced letters.

The score of a letter stream is a left-to-right fold. Each letter on the
layout adds to its hand's load and, when the previous determined letter
sat on the other hand, one hand switch. Letters the layout does not place
count as not-determined and leave the previous hand untouched; word
boundaries do the same unless boundary resetting is switched on.

``score_chunk`` is the one scorer. It scores any slice of a stream's text
on its own, and ``ChunkScore.merge`` joins the scores of neighbouring
slices associatively, so ``evaluate`` (the whole stream as one slice) and
``evaluate_chunked`` (the stream cut into slices and merged) agree by
construction. The oracles they are tested against live outside this
module: a plain per-letter rescan in the tests, and the identity between
switches and the cross-hand digraph mass of the n-gram tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence, TextIO, get_type_hints

from .atomic import OptionalField, read_json_object, write_json
from .corpus import LetterStream
from .errors import EmptyInput, MalformedInput
from .layout import KeyboardLayout


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

    ``head`` is the hand of the first determined letter, unless a reset
    comes first; ``tail`` is the running previous-hand state at the end of
    the slice. ``transparent`` slices (no determined letter, no reset)
    pass the previous-hand state straight through.
    """

    left: int = 0
    right: int = 0
    not_determined: int = 0
    switching: int = 0
    head: str | None = None
    tail: str | None = None
    transparent: bool = True

    def merge(self, other: "ChunkScore") -> "ChunkScore":
        junction = int(self.tail is not None and other.head is not None
                       and self.tail != other.head)
        return ChunkScore(
            left=self.left + other.left,
            right=self.right + other.right,
            not_determined=self.not_determined + other.not_determined,
            switching=self.switching + other.switching + junction,
            head=self.head if not self.transparent else other.head,
            tail=other.tail if not other.transparent else self.tail,
            transparent=self.transparent and other.transparent,
        )


_HAND_MARKS = {"left": "<", "right": ">"}
_MARK_HANDS = {mark: hand for hand, mark in _HAND_MARKS.items()}


def score_chunk(layout: KeyboardLayout, stream: LetterStream,
                *, reset_on_boundary: bool = False) -> ChunkScore:
    """Score a stream, or any slice of one, in a few passes over its text.

    Every distinct character maps to a hand marker, to nothing (a letter
    the layout lacks), or to a reset marker (a boundary, when boundaries
    reset); switches are then adjacent unlike markers, and the first and
    last markers give the slice's head and tail.
    """
    marks = {ord(ch): _HAND_MARKS.get(layout.hand_of(ch)) for ch in set(stream.text)}
    marks[ord(stream.sep)] = "|" if reset_on_boundary else None
    hands = stream.text.translate(marks)
    left, right = hands.count("<"), hands.count(">")
    return ChunkScore(left=left, right=right,
                      not_determined=stream.letter_count - left - right,
                      switching=hands.count("<>") + hands.count("><"),
                      head=_MARK_HANDS.get(hands[:1]), tail=_MARK_HANDS.get(hands[-1:]),
                      transparent=not hands)


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
        part = LetterStream(text=text[start:start + size], sep=stream.sep)
        total = total.merge(score_chunk(layout, part, reset_on_boundary=reset_on_boundary))
    return _report(layout, total)


# ---------------------------------------------------------------------------
# Comparison of several reports over the same corpus.

@dataclass(frozen=True)
class ComparisonRow:
    layout_name: str
    hand_switching: int
    left_load: int
    right_load: int
    not_determined: int
    total_letters: int
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
            layout_name=rep.layout_name,
            hand_switching=rep.hand_switching,
            left_load=rep.left_load,
            right_load=rep.right_load,
            not_determined=rep.not_determined,
            total_letters=rep.total_letters,
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
    doc = read_json_object(path, MalformedInput, "report", REPORT_SHAPE)
    return EvaluationReport(**{name: doc[name] for name in _REPORT_FIELDS})


def write_report_tsv(report: EvaluationReport, out: TextIO) -> None:
    out.write("\t".join(_REPORT_FIELDS) + "\n")
    out.write("\t".join(str(getattr(report, name)) for name in _REPORT_FIELDS) + "\n")
