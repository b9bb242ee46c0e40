"""N-gram counting plus support, confidence, and cumulative side scores.

Counting (``count_all``) keys every trigram window of a stream by one int
that packs its three code points, 21 bits each. The keys are built and
counted in C, a block of windows at a time so that no temporary buffer
grows with the corpus. One loop over the distinct keys then folds them
into the monogram, digraph, trigram and junction tables, decoding only
the grams that hold no boundary.

Support of a gram is its share of all letters, as a percentage. Confidence
of a digraph relative to a focus letter divides the digraph's count by the
total count of every digraph that involves the focus letter in either
position (a doubled digraph counts once). That involvement is computed for
every letter in one pass over the digraph table (``involvement_totals``),
once per table, and handed to ``side_scores``. Side scores accumulate both
quantities for a candidate letter against the letters already on one hand,
taking both orientations of each pair.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from .corpus import BOUNDARY, LetterStream
from .errors import EmptyCorpus, MalformedInput, NoInvolvement

NGRAM_SIZES = (1, 2, 3)


@dataclass
class NGramTable:
    """Frequency table for n-grams of one fixed size.

    Keys are n-character strings (one code point per letter). Zero-count
    grams are never stored. ``total_letters`` is the letter count of the
    source stream, whatever n is — it is the denominator of support.
    """

    n: int
    counts: Counter
    total_letters: int

    def merge(self, other: "NGramTable") -> "NGramTable":
        """Combine tables counted over disjoint parts of a corpus.

        Commutative and associative; counts and letter totals both add.
        """
        if self.n != other.n:
            raise ValueError(f"cannot merge {self.n}-gram and {other.n}-gram tables")
        return NGramTable(self.n, self.counts + other.counts,
                          self.total_letters + other.total_letters)


@dataclass(frozen=True)
class SideScore:
    """Cumulative support and confidence of a letter against one hand."""

    cumulative_support: float
    cumulative_confidence: float


# A trigram window is one int key: each code point takes 21 bits, the
# window's first letter the lowest.
_CODE_MASK = (1 << 21) - 1
# Windows packed at once. A block's buffers (its 8-byte slots, their int and
# its shifts) then stay around a megabyte, whatever the length of the text.
_BLOCK = 1 << 16


def _count_windows(text: str) -> Counter:
    """Count the trigram windows of ``text`` plus two boundaries, keyed by packed code points.

    The window at position i is keyed ``c[i] | c[i+1] << 21 | c[i+2] << 42``.
    Blocks of ``_BLOCK`` windows overlap by two characters, and only the
    last one is extended by the two boundaries. Each block is packed in C:
    its code points fill the low halves of 8-byte little-endian slots, the
    slots read as one int ``x``, and ``x | (x >> 64) << 21 | (x >> 128) << 42``
    holds the key of the window that starts in each slot. Its first
    ``size - 2`` slots are then counted by ``Counter.update``.
    """
    windows: Counter = Counter()
    for start in range(0, len(text), _BLOCK):
        size = min(_BLOCK, len(text) - start) + 2  # characters, two more than windows
        chunk = text[start:start + size]
        if len(chunk) < size:
            chunk = (chunk + BOUNDARY + BOUNDARY)[:size]
        slots = bytearray(8 * size)
        memoryview(slots).cast("I")[0::2] = memoryview(chunk.encode("utf-32-le")).cast("I")
        x = int.from_bytes(slots, "little")
        keys = memoryview((x | (x >> 64) << 21 | (x >> 128) << 42)
                          .to_bytes(8 * size, sys.byteorder)).cast("Q")
        # A big-endian machine lists the slots last one first.
        windows.update(keys[:size - 2] if sys.byteorder == "little" else keys[:1:-1])
    return windows


def count_all(stream: LetterStream, *, span_boundaries: bool = False
              ) -> tuple[NGramTable, NGramTable, NGramTable, NGramTable]:
    """Count the 1-, 2- and 3-gram tables of a stream in one pass, plus its junctions.

    Windows never cross a word boundary unless ``span_boundaries`` is set
    (a sensitivity knob; alternation across a space is not meaningful).
    Every trigram window of the text with two boundaries appended is
    counted under one int key that packs its three code points
    (``_count_windows``), so each position of the text starts exactly one
    window. One loop over the distinct keys then folds the tables: a
    window that starts with a boundary is dropped; any other adds its
    first letter to the monograms, its first two letters to the digraphs
    unless the second is a boundary, and itself to the trigrams unless
    it holds a boundary. Only these surviving grams are decoded to
    strings. Each table lists its grams in order of first occurrence.

    The fourth table, of 2-grams, holds the junctions: the letter pairs
    that meet across one word boundary, folded from the windows ``x·LF·y``.
    Run-only digraphs plus junctions are the digraphs counted with
    ``span_boundaries``; under ``span_boundaries`` the junction table is
    empty, since the digraphs already hold those pairs. No file carries
    it: it serves scoring from the tables (``evaluator.score_tables``).
    """
    boundary = ord(BOUNDARY)  # compared with the code points a key unpacks to
    text = stream.letters() if span_boundaries else stream.text
    monograms: Counter = Counter()
    digraphs: Counter = Counter()
    trigrams: Counter = Counter()
    junctions: Counter = Counter()
    mono_get, di_get = monograms.get, digraphs.get
    for key, count in _count_windows(text).items():
        first = key & _CODE_MASK
        if first == boundary:
            continue
        second = key >> 21 & _CODE_MASK
        third = key >> 42
        gram = chr(first)
        monograms[gram] = mono_get(gram, 0) + count
        if second == boundary:
            if third != boundary:
                junctions[gram + chr(third)] = count
            continue
        gram += chr(second)
        digraphs[gram] = di_get(gram, 0) + count
        if third != boundary:
            trigrams[gram + chr(third)] = count
    total = stream.letter_count
    return (NGramTable(1, monograms, total), NGramTable(2, digraphs, total),
            NGramTable(3, trigrams, total), NGramTable(2, junctions, total))


def count_ngrams(stream: LetterStream, n: int, *, span_boundaries: bool = False) -> NGramTable:
    """The n-gram table of ``count_all`` for one n."""
    if n not in NGRAM_SIZES:
        raise ValueError(f"n must be one of {NGRAM_SIZES}, got {n}")
    return count_all(stream, span_boundaries=span_boundaries)[n - 1]


def support(table: NGramTable, gram: str) -> float:
    """Percentage of all letters accounted for by this gram's occurrences."""
    if table.total_letters == 0:
        raise EmptyCorpus("empty corpus: no letters to take percentages of")
    return 100.0 * table.counts.get(gram, 0) / table.total_letters


def involvement_totals(digraphs: NGramTable) -> dict[str, int]:
    """Every letter's involvement: the total count of the digraphs containing it.

    One pass over the table; a doubled digraph (letter twice) contributes
    its count once. This is the denominator of digraph confidence. Letters
    in no digraph are absent.
    """
    totals: dict[str, int] = {}
    get = totals.get
    for (first, second), count in digraphs.counts.items():
        totals[first] = get(first, 0) + count
        if second != first:
            totals[second] = get(second, 0) + count
    return totals


def digraph_confidence(digraphs: NGramTable, focus_letter: str, digraph: str) -> float:
    """The digraph's share, in percent, of all digraphs involving the focus letter."""
    if focus_letter not in digraph:
        raise ValueError(f"digraph {digraph!r} does not contain {focus_letter!r}")
    inv = involvement_totals(digraphs).get(focus_letter, 0)
    if inv == 0:
        raise NoInvolvement(f"{focus_letter!r} occurs in no digraph")
    return 100.0 * digraphs.counts.get(digraph, 0) / inv


def side_scores(focus_letter: str, side: Sequence[str], digraphs: NGramTable,
                involvement: Mapping[str, int]) -> SideScore:
    """Cumulative support/confidence of a candidate letter against one hand.

    Both orientations of each pair count (alternation is order-symmetric);
    were the focus letter itself on the side, its doubled digraph would count
    once. A focus letter with no digraph involvement scores confidence 0
    rather than failing, so rare letters still partition cleanly.

    ``involvement`` maps letters to their totals, as ``involvement_totals``
    returns them for ``digraphs``. ``side`` is consumed in its given order —
    pass an ordered sequence.
    """
    inv = involvement.get(focus_letter, 0)
    sup = 0.0
    conf = 0.0
    for member in side:
        if member == focus_letter:
            grams = (focus_letter + focus_letter,)
        else:
            grams = (focus_letter + member, member + focus_letter)
        for gram in grams:
            sup += support(digraphs, gram)
            if inv:
                conf += 100.0 * digraphs.counts.get(gram, 0) / inv
    return SideScore(cumulative_support=sup, cumulative_confidence=conf)


def frequency_order(counts: Mapping[str, int]) -> list[tuple[str, int]]:
    """(gram, count) pairs by descending count, then ascending code point.

    The order of table rows, of the partition's ranking and of key placement.
    """
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def ranked_monograms(mono: NGramTable) -> list[tuple[str, int, float]]:
    """Letters in ``frequency_order`` as (letter, count, percentage) triples.

    The percentage is the letter's support.
    """
    if not mono.counts or mono.total_letters == 0:
        raise EmptyCorpus("empty corpus: nothing to rank")
    return [(g, c, 100.0 * c / mono.total_letters) for g, c in frequency_order(mono.counts)]


# ---------------------------------------------------------------------------
# TSV import/export. The table files are self-describing: leading '#' lines
# carry n, the letter total, and the config echo, so a table file alone is
# enough to rebuild the NGramTable it came from.

def write_ngram_tsv(table: NGramTable, out: TextIO, *, config_echo: dict | None = None) -> None:
    out.write("# layoutforge ngram table\n")
    out.write(f"# n\t{table.n}\n")
    out.write(f"# total_letters\t{table.total_letters}\n")
    if config_echo is not None:
        out.write(f"# config\t{json.dumps(config_echo, sort_keys=True, ensure_ascii=False)}\n")
    out.write("gram\tcount\tpercentage\n")
    for gram, count in frequency_order(table.counts):
        pct = 100.0 * count / table.total_letters if table.total_letters else 0.0
        out.write(f"{gram}\t{count}\t{pct:.6f}\n")


def _read_comment(line: str, header: dict[str, int]) -> None:
    parts = line[1:].strip().split("\t")
    if len(parts) == 2 and parts[0] in ("n", "total_letters"):
        header[parts[0]] = int(parts[1])


def read_ngram_tsv(path: str | Path) -> NGramTable:
    """Rebuild a table from its TSV export (counts and totals, not percentages).

    The file is read line by line, never whole. '#' lines carry the header
    wherever they stand; blank lines and column headers are skipped. A
    table whose ``n`` is not one of 1-3, that stores a gram of another
    length, that holds a negative count or total, or whose counts add up
    to more than its total (no gram occurs more often than there are
    letters), is malformed.
    """
    header: dict[str, int] = {}
    counts: Counter = Counter()
    line = ""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line[0] == "#":
                    _read_comment(line, header)
                    continue
                try:
                    gram, count, _pct = line.split("\t")
                    counts[gram] = int(count)
                except ValueError:
                    if line != "\n" and not line.startswith("gram\t"):
                        raise
    except ValueError as exc:  # not UTF-8, a short row, or a count that is no integer
        row = line.rstrip("\n")
        raise MalformedInput(f"{path}: bad row {row!r}: {exc}") from None
    # a column header whose count field reads as a number is still no row
    counts.pop("gram", None)
    if "n" not in header or "total_letters" not in header:
        raise MalformedInput(f"{path}: missing '# n' or '# total_letters' header")
    n = header["n"]
    if n not in NGRAM_SIZES:
        raise MalformedInput(f"{path}: n must be one of {NGRAM_SIZES}, got {n}")
    if not set(map(len, counts)) <= {n}:
        wrong = next(gram for gram in counts if len(gram) != n)
        raise MalformedInput(f"{path}: gram {wrong!r} is not {n} letter(s) long")
    if header["total_letters"] < 0:
        raise MalformedInput(f"{path}: total_letters {header['total_letters']} is negative")
    if min(counts.values(), default=0) < 0:
        wrong = next(gram for gram, count in counts.items() if count < 0)
        raise MalformedInput(f"{path}: gram {wrong!r} has a negative count {counts[wrong]}")
    if counts.total() > header["total_letters"]:
        raise MalformedInput(f"{path}: counts add up to {counts.total()},"
                             f" more than total_letters {header['total_letters']}")
    return NGramTable(n=n, counts=counts, total_letters=header["total_letters"])

