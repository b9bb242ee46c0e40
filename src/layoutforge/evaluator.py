"""Layout scoring: hand alternation, per-hand load, unplaced letters.

The score of a letter stream is a left-to-right fold. Each letter on the
layout adds to its hand's load and, when the previous determined letter
sat on the other hand, one hand switch. Letters the layout does not place
count as not-determined and leave the previous hand untouched; word
boundaries do the same unless boundary resetting is switched on.

A score comes by one of two routes. ``evaluate_all`` replays a stream
given as its pieces in order, such as the blocks ``corpus.read_pieces``
reads, for several layouts in one pass, so a replay holds one block at a
time. Each piece is counted behind the previous piece's last hand marker,
as ``count_all`` counts it behind the last two characters, so any split
gives the same report; ``evaluate`` does so for one layout.
``score_tables`` reads the same report off the tables of
``stats.count_all`` when the layout places every counted letter: the
loads are monogram sums and the switches the cross-hand mass of the
letter pairs the fold sees. ``run-all`` takes the table route wherever
it is exact; the ``evaluate`` command replays, and so does ``run-all``
for a layout that leaves letters out or when boundaries both span and
reset, reading the corpus again. The replay is tested against a plain
per-letter rescan, and the tables against the replay.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence, TextIO, get_type_hints

from .atomic import OptionalField, read_json_object, write_json
from .corpus import BOUNDARY, refuse_bare_stream
from .errors import EmptyInput, MalformedInput
from .layout import KeyboardLayout, check_layout_name
from .stats import NGramTable


@dataclass(frozen=True)
class EvaluationReport:
    layout_name: str
    hand_switching: int
    left_load: int
    right_load: int
    not_determined: int
    total_letters: int


_HAND_MARKS = {"left": "<", "right": ">"}


def _report(layout: KeyboardLayout, left: int, right: int, switching: int,
            total_letters: int) -> EvaluationReport:
    return EvaluationReport(layout_name=layout.name, hand_switching=switching,
                            left_load=left, right_load=right,
                            not_determined=total_letters - left - right,
                            total_letters=total_letters)


def evaluate_all(layouts: Sequence[KeyboardLayout], corpus: Iterable[str],
                 *, reset_on_boundary: bool = False) -> list[EvaluationReport]:
    """Score each layout against a stream given as its pieces in order, in one pass.

    Each piece maps, per layout, every letter to a hand marker or to
    nothing (a letter the layout lacks), and a boundary to a reset marker
    or to nothing. The loads are the hand markers, and the switches the
    adjacent unlike markers, counted behind the last marker so far.
    """
    refuse_bare_stream(corpus)
    reset = "|" if reset_on_boundary else None
    tallies = [(0, 0, 0, "")] * len(layouts)  # left, right, switches, last marker
    letters = 0
    for piece in corpus:
        letters += len(piece) - piece.count(BOUNDARY)
        chars = set(piece)
        for i, layout in enumerate(layouts):
            marks = {ord(ch): _HAND_MARKS.get(layout.hand_of(ch)) for ch in chars}
            marks[ord(BOUNDARY)] = reset
            hands = piece.translate(marks)
            left, right, switching, last = tallies[i]
            behind = last + hands
            tallies[i] = (left + hands.count("<"), right + hands.count(">"),
                          switching + behind.count("<>") + behind.count("><"), behind[-1:])
    return [_report(layout, left, right, switching, letters)
            for layout, (left, right, switching, _last) in zip(layouts, tallies)]


def evaluate(layout: KeyboardLayout, corpus: Iterable[str],
             *, reset_on_boundary: bool = False) -> EvaluationReport:
    """Score one layout against a stream given as its pieces in order."""
    return evaluate_all([layout], corpus, reset_on_boundary=reset_on_boundary)[0]


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
    return _report(layout, loads["left"], loads["right"], switching, mono.total_letters)


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


def write_report_json(report: EvaluationReport, path: str | Path, *, config_echo: dict) -> None:
    doc = {name: getattr(report, name) for name in _REPORT_FIELDS}
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
    pairs = max(doc["left_load"] + doc["right_load"] - 1, 0)
    if doc["hand_switching"] > pairs:  # a switch takes two adjacent determined letters
        raise MalformedInput(f"hand_switching {doc['hand_switching']} is more than the {pairs}"
                             " pairs of adjacent determined letters")
    check_layout_name(doc["layout_name"], MalformedInput)
    return EvaluationReport(**{name: doc[name] for name in _REPORT_FIELDS})


def write_report_tsv(report: EvaluationReport, out: TextIO) -> None:
    out.write("\t".join(_REPORT_FIELDS) + "\n")
    out.write("\t".join(str(getattr(report, name)) for name in _REPORT_FIELDS) + "\n")
