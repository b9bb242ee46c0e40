"""N-gram counting plus support, confidence, and cumulative side scores.

Support of a gram is its share of all letters, as a percentage. Confidence
of a digraph relative to a focus letter divides the digraph's count by the
total count of every digraph that involves the focus letter in either
position (a doubled digraph counts once). Side scores accumulate both
quantities for a candidate letter against the letters already on one hand,
taking both orientations of each pair.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import add
from pathlib import Path
from typing import Sequence, TextIO

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


def involvement_total(digraphs: NGramTable, letter: str) -> int:
    """Total occurrences of digraphs containing the letter in either position.

    A doubled digraph (letter twice) contributes its count once. This is the
    denominator of digraph confidence.
    """
    return sum(c for g, c in digraphs.counts.items() if letter in g)


def digraph_confidence(digraphs: NGramTable, focus_letter: str, digraph: str) -> float:
    """The digraph's share, in percent, of all digraphs involving the focus letter."""
    if focus_letter not in digraph:
        raise ValueError(f"digraph {digraph!r} does not contain {focus_letter!r}")
    inv = involvement_total(digraphs, focus_letter)
    if inv == 0:
        raise NoInvolvement(f"{focus_letter!r} occurs in no digraph")
    return 100.0 * digraphs.counts.get(digraph, 0) / inv


def side_scores(focus_letter: str, side: Sequence[str], mono: NGramTable,
                digraphs: NGramTable) -> SideScore:
    """Cumulative support/confidence of a candidate letter against one hand.

    Both orientations of each pair count (alternation is order-symmetric);
    were the focus letter itself on the side, its doubled digraph would count
    once. A focus letter with no digraph involvement scores confidence 0
    rather than failing, so rare letters still partition cleanly.

    ``side`` is consumed in its given order — pass an ordered sequence.
    ``mono`` is part of the scoring interface but unused by the current
    arithmetic: digraph supports already carry the corpus letter total.
    """
    del mono
    inv = involvement_total(digraphs, focus_letter)
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


def read_ngram_tsv(path: str | Path) -> NGramTable:
    """Rebuild a table from its TSV export (counts and totals, not percentages)."""
    n = None
    total = None
    counts: Counter = Counter()
    line = ""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line[1:].strip().split("\t")
                    if len(parts) == 2 and parts[0] == "n":
                        n = int(parts[1])
                    elif len(parts) == 2 and parts[0] == "total_letters":
                        total = int(parts[1])
                    continue
                if line.startswith("gram\t"):
                    continue
                gram, count, _pct = line.split("\t")
                counts[gram] = int(count)
    except ValueError as exc:  # not UTF-8, a short row, or a count that is no integer
        raise MalformedInput(f"{path}: bad row {line!r}: {exc}") from None
    if n is None or total is None:
        raise MalformedInput(f"{path}: missing '# n' or '# total_letters' header")
    return NGramTable(n=n, counts=counts, total_letters=total)


def write_association_tsv(digraphs: NGramTable, focus_letter: str, out: TextIO,
                          *, config_echo: dict | None = None) -> None:
    """Export every digraph involving one letter with its support and confidence."""
    rows = [(g, c) for g, c in digraphs.counts.items() if focus_letter in g]
    rows.sort(key=lambda kv: (-kv[1], kv[0]))
    out.write(f"# layoutforge digraph associations for {focus_letter}\n")
    out.write(f"# total_letters\t{digraphs.total_letters}\n")
    if config_echo is not None:
        out.write(f"# config\t{json.dumps(config_echo, sort_keys=True, ensure_ascii=False)}\n")
    out.write("digraph\tcount\tsupport\tconfidence\n")
    inv = involvement_total(digraphs, focus_letter)
    for gram, count in rows:
        sup = support(digraphs, gram)
        conf = 100.0 * count / inv if inv else 0.0
        out.write(f"{gram}\t{count}\t{sup:.6f}\t{conf:.6f}\n")
