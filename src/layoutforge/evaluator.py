"""Layout scoring: hand alternation, per-hand load, unplaced letters.

The score of a letter stream is a single left-to-right fold. Each letter
on the layout adds to its hand's load and, when the previous determined
letter sat on the other hand, one hand switch. Letters the layout does
not place count as not-determined and leave the previous hand untouched;
word boundaries do the same unless boundary resetting is switched on.

Scoring also exists in a divide-and-conquer form over the token view of
a stream: any split of the tokens into chunks can be scored on its own
and merged, and the merge is associative. It is the token-level oracle
that the single-pass ``evaluate`` is tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

from .corpus import BOUNDARY, LetterStream
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
    """Score of one contiguous slice of tokens, mergeable with neighbors.

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


def score_chunk(layout: KeyboardLayout, tokens: Sequence,
                *, reset_on_boundary: bool = False) -> ChunkScore:
    left = right = nd = switching = 0
    head: str | None = None
    tail: str | None = None
    absorbed = False  # incoming state can no longer influence this slice
    for token in tokens:
        if token is BOUNDARY:
            if reset_on_boundary:
                tail = None
                absorbed = True
            continue
        hand = layout.hand_of(token)
        if hand is None:
            nd += 1
            continue
        if tail is not None and tail != hand:
            switching += 1
        if not absorbed:
            head = hand
            absorbed = True
        if hand == "left":
            left += 1
        else:
            right += 1
        tail = hand
    return ChunkScore(left=left, right=right, not_determined=nd, switching=switching,
                      head=head, tail=tail, transparent=not absorbed)


_HAND_MARKS = {"left": "<", "right": ">"}


def evaluate(layout: KeyboardLayout, stream: LetterStream,
             *, reset_on_boundary: bool = False) -> EvaluationReport:
    """Score a stream in one pass.

    Every distinct character of the stream maps to a hand marker, to
    nothing (a letter the layout lacks), or to a reset marker (a boundary,
    when boundaries reset); switches are then adjacent unlike markers.
    """
    marks = {ord(ch): _HAND_MARKS.get(layout.hand_of(ch)) for ch in set(stream.text)}
    marks[ord(stream.sep)] = "|" if reset_on_boundary else None
    hands = stream.text.translate(marks)
    left, right = hands.count("<"), hands.count(">")
    return EvaluationReport(
        layout_name=layout.name,
        hand_switching=hands.count("<>") + hands.count("><"),
        left_load=left,
        right_load=right,
        not_determined=stream.letter_count - left - right,
        total_letters=stream.letter_count,
    )


def evaluate_chunked(layout: KeyboardLayout, stream: LetterStream, *, chunks: int = 4,
                     reset_on_boundary: bool = False) -> EvaluationReport:
    """Score a stream in independently scored slices; same result as evaluate."""
    if chunks < 1:
        raise ValueError(f"chunks must be positive, got {chunks}")
    tokens = stream.tokens
    size = max(1, math.ceil(len(tokens) / chunks)) if tokens else 1
    total = ChunkScore()
    for start in range(0, len(tokens), size):
        part = score_chunk(layout, tokens[start:start + size],
                           reset_on_boundary=reset_on_boundary)
        total = total.merge(part)
    return EvaluationReport(
        layout_name=layout.name,
        hand_switching=total.switching,
        left_load=total.left,
        right_load=total.right,
        not_determined=total.not_determined,
        total_letters=stream.letter_count,
    )


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

_REPORT_FIELDS = ("layout_name", "hand_switching", "left_load", "right_load",
                  "not_determined", "total_letters")


def write_report_json(report: EvaluationReport, path: str | Path,
                      *, config_echo: dict | None = None) -> None:
    doc = {name: getattr(report, name) for name in _REPORT_FIELDS}
    if config_echo is not None:
        doc["config"] = config_echo
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def read_report_json(path: str | Path) -> EvaluationReport:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise MalformedInput(f"{path}: not a JSON report: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: a report must be a JSON object")
    missing = [name for name in _REPORT_FIELDS if name not in doc]
    if missing:
        raise MalformedInput(f"{path}: missing report fields {missing}")
    if not isinstance(doc["layout_name"], str) or not all(
            type(doc[name]) is int for name in _REPORT_FIELDS[1:]):
        raise MalformedInput(f"{path}: a report holds a name and integer counts")
    return EvaluationReport(**{name: doc[name] for name in _REPORT_FIELDS})


def write_report_tsv(report: EvaluationReport, out: TextIO) -> None:
    out.write("\t".join(_REPORT_FIELDS) + "\n")
    out.write("\t".join(str(getattr(report, name)) for name in _REPORT_FIELDS) + "\n")
