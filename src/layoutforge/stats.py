"""N-gram counting plus support, confidence, and cumulative side scores.

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
from collections import Counter
from dataclasses import dataclass
from operator import add
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from .corpus import LetterStream
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


def _fold_prefixes(counts: Counter, n: int) -> Counter:
    folded: Counter = Counter()
    for gram, count in counts.items():
        folded[gram[:n]] += count
    return folded


def count_all(stream: LetterStream, *,
              span_boundaries: bool = False) -> tuple[NGramTable, NGramTable, NGramTable]:
    """Count the 1-, 2- and 3-gram tables of a stream in one pass.

    Windows never cross a word boundary unless ``span_boundaries`` is set
    (a sensitivity knob; alternation across a space is not meaningful).
    Trigram windows are counted over the text with two separators
    appended, so that each position of the text starts exactly one of
    them; digraphs and monograms are folded from their prefixes, and any
    gram holding a separator is dropped at the end.
    """
    sep = stream.sep
    text = (stream.letters() if span_boundaries else stream.text) + sep + sep
    trigrams = Counter(map(add, map(add, text, text[1:]), text[2:]))
    digraphs = _fold_prefixes(trigrams, 2)
    monograms = _fold_prefixes(digraphs, 1)
    for counts in (monograms, digraphs, trigrams):
        for gram in [g for g in counts if sep in g]:
            del counts[gram]
    total = stream.letter_count
    return tuple(NGramTable(n, counts, total)
                 for n, counts in zip(NGRAM_SIZES, (monograms, digraphs, trigrams)))


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


def ranked_monograms(mono: NGramTable) -> list[tuple[str, int, float]]:
    """Letters by descending count; ties broken by ascending code point.

    Returns (letter, count, percentage) triples, percentage being support.
    """
    if not mono.counts or mono.total_letters == 0:
        raise EmptyCorpus("empty corpus: nothing to rank")
    ordered = sorted(mono.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(g, c, 100.0 * c / mono.total_letters) for g, c in ordered]


# ---------------------------------------------------------------------------
# TSV import/export. The table files are self-describing: leading '#' lines
# carry n, the letter total, and the config echo, so a table file alone is
# enough to rebuild the NGramTable it came from.

def _sorted_rows(table: NGramTable) -> list[tuple[str, int]]:
    return sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def write_ngram_tsv(table: NGramTable, out: TextIO, *, config_echo: dict | None = None) -> None:
    out.write("# layoutforge ngram table\n")
    out.write(f"# n\t{table.n}\n")
    out.write(f"# total_letters\t{table.total_letters}\n")
    if config_echo is not None:
        out.write(f"# config\t{json.dumps(config_echo, sort_keys=True, ensure_ascii=False)}\n")
    out.write("gram\tcount\tpercentage\n")
    for gram, count in _sorted_rows(table):
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
    length, or that holds a negative count or total, is malformed.
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
    return NGramTable(n=n, counts=counts, total_letters=header["total_letters"])

