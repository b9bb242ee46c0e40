"""N-gram counting plus support, confidence, and cumulative side scores.

Counting (``count_all``) keys every trigram window of a letter stream by
one int that packs its three code points, 21 bits each. The stream comes
as its pieces in order, such as the blocks ``corpus.read_pieces`` reads
one at a time, and the windows that straddle two pieces are counted
once. The keys are built and counted in C, a block of windows at a time,
so that only the counts grow with the corpus. The stream may also come
in parts, such as the lines that start in each byte range of
``parts.byte_parts``; where each is counted, ``parts.forked`` decides.
Each part after the first is counted as its first three and last two
characters and its keys and counts packed as 8-byte words. The windows
of each seam are counted behind the part before it, and the part's
counts merged after them, so the tables and their key order are those
of the whole stream. The distinct keys and their counts are then copied
into two arrays of 8-byte words and the ``Counter`` released, so that the
tables are built next to 16 bytes a distinct window, not next to a
second copy of the counts. One loop over those arrays folds them into the
monogram, digraph, trigram and junction tables, decoding only the grams
that hold no boundary.

The association scores are computed in one place, ``side_scores``. Support
of a gram is its share of all letters, as a percentage. Confidence of a
digraph relative to a focus letter divides the digraph's count by the
total count of every digraph that involves the focus letter in either
position (a doubled digraph counts once). That involvement is computed
once per partition and handed to ``side_scores``, by one of two routes
that give the same integers: for every letter in one pass over the
digraph rows (``involvement_totals``), or for the scored letters alone by
sums in C over every letter of the table (``involvement_sums`` with
``partners``), whichever needs fewer steps. Side scores accumulate both
quantities for a candidate letter against the letters already on one
hand, taking both orientations of each pair, with one lookup per gram.

The tables are read and written as TSV in bulk. The reader takes the
file through the corpus's block reader (``corpus.blocks``), a block of
bytes that ends right after an LF at a time, with its offset in the
file; it decodes each block strictly, naming a byte that is not UTF-8 by
that offset, and reads CRLF and a lone CR as LF. A block of rows alone
is parsed with one replace and one split, and each distinct count string
in it with one ``int``: counts add up to at most the letter total, so a
table holds few distinct counts. Only any other block is split into
lines, at LF only, and read line by line, which keeps every layout it
accepts and names the row at fault. Whether a block holds rows alone is
told from its bytes, with one ``bytes.translate`` that keeps only its
TABs, LFs and '#'s: a UTF-8 letter of two or more bytes never holds a
TAB, LF, CR or '#' byte. The writer orders the grams by two sorts keyed
in C (``ordered_grams``), formats each distinct count once, and builds
each chunk of rows from the ordered grams, so it holds one list of the
table's grams and never a list of its rows.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

from .corpus import BOUNDARY, _class_items, blocks, refuse_bare_stream, seamed
from .errors import EmptyCorpus, MalformedInput
from .parts import forked

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


@dataclass(frozen=True)
class SideScore:
    """Cumulative support and confidence of a letter against one hand."""

    cumulative_support: float
    cumulative_confidence: float


# A trigram window is one int key: each code point takes 21 bits, the
# window's first letter the lowest.
_CODE_MASK = (1 << 21) - 1
# Windows packed at once. A block's buffers (its 8-byte slots, their int and
# its shifts) then stay within a few hundred kilobytes, whatever the length
# of the text.
_BLOCK = 1 << 14


def _count_pieces(windows: Counter, pieces: Iterable[str], carry: str = "") -> str:
    """Count each window that lies wholly in ``carry`` and the pieces joined; return the last two.

    The window at position i is keyed ``c[i] | c[i+1] << 21 | c[i+2] << 42``.
    Each piece is counted behind the last two characters of the one before
    it, which start the windows that straddle the seam, so every window is
    counted once however the pieces split the whole. Within a piece, blocks
    of ``_BLOCK`` windows overlap by two characters. Each block is packed in
    C: its code points fill the low halves of 8-byte little-endian slots,
    the slots read as one int ``x``, and ``x | x >> 43 | x >> 86`` holds
    the key of the window that starts in each slot: each slot holds only
    its 21-bit code point, so the next slot's lands in bits 21-41 and the
    one after in bits 42-62. Its first ``size - 2`` slots are then counted
    by ``Counter.update``.
    """
    for piece in pieces:
        text = carry + piece
        for start in range(0, len(text) - 2, _BLOCK):
            chunk = text[start:start + _BLOCK + 2]
            size = len(chunk)  # characters, two more than windows
            slots = bytearray(8 * size)
            memoryview(slots).cast("I")[0::2] = memoryview(chunk.encode("utf-32-le")).cast("I")
            x = int.from_bytes(slots, "little")
            keys = memoryview((x | x >> 43 | x >> 86)
                              .to_bytes(8 * size, sys.byteorder)).cast("Q")
            # A big-endian machine lists the slots last one first.
            windows.update(keys[:size - 2] if sys.byteorder == "little" else keys[:1:-1])
        carry = text[-2:]
    return carry


def _part_windows(part: Iterable[str]) -> tuple[str, bytes, bytes, str]:
    """A part after the first: the windows it holds on its own, and its ends.

    Those windows start at its second character or later and end within
    it. Its first three characters start the windows of the seam before
    it, however that seam trims or extends it, and its last two those of
    the seam after it; a part shorter than three characters holds no
    window of its own and is given whole. The keys and the counts of its
    windows, in order of first occurrence, are each packed as the native
    8-byte words of an ``array("Q")``, which a forked child sends back
    as they are.
    """
    pieces = iter(part)
    first = ""
    for piece in pieces:
        first += piece
        if len(first) >= 3:
            break
    windows: Counter = Counter()
    last = _count_pieces(windows, itertools.chain([first[1:]], pieces))
    return (first[:3], array("Q", windows.keys()).tobytes(),
            array("Q", windows.values()).tobytes(), last)


def _count_windows(parts: Sequence[Iterable[str]], *, seams: bool) -> Counter:
    """Count the trigram windows of the parts joined, plus two boundaries, by packed key.

    The first part is counted here while each later one is counted
    (``_part_windows``) in a forked child (``parts.forked``). Each later
    part is then stitched in behind what came before it: its first three
    characters, ``seamed`` when ``seams`` is set, are counted behind the
    last two characters so far, which gives the windows of the seam; the
    part's counts are merged after those, so every key keeps its place
    of first occurrence, and its last two characters carry on. Two
    boundaries follow the last part. The error raised is that of the
    earliest part that failed.
    """
    windows: Counter = Counter()
    get = windows.get
    with forked(parts[1:], _part_windows) as results:
        carry = _count_pieces(windows, parts[0] if parts else ())
        for first, keys, counts, last in results:
            carry = _count_pieces(windows, [seamed(carry, first) if seams else first], carry)
            if len(first) == 3:
                for key, count in zip(memoryview(keys).cast("Q"), memoryview(counts).cast("Q")):
                    windows[key] = get(key, 0) + count
                carry = last
    _count_pieces(windows, [BOUNDARY + BOUNDARY], carry)
    return windows


def count_all(*parts: Iterable[str], span_boundaries: bool = False
              ) -> tuple[NGramTable, NGramTable, NGramTable, NGramTable]:
    """Count the 1-, 2- and 3-gram tables of a stream in one pass, plus its junctions.

    The stream comes as one or more parts, each its pieces in order
    (``read_pieces``); a whole stream is one part of one piece,
    ``[stream]``. The parts are joined as ``concat_streams`` joins
    streams, and any split gives the same tables. Each part after the
    first is counted in a forked child where one can be had, else here
    (``_count_windows``). Windows never cross a word boundary unless
    ``span_boundaries`` is set (a sensitivity knob; alternation across a
    space is not meaningful); then every boundary is dropped first. Every
    trigram window of the text with two boundaries appended is counted
    under one int key that packs its three code points, so each position
    of the text starts exactly one window. The distinct keys and their
    counts are copied into two ``array("Q")``, in order of first
    occurrence, and the ``Counter`` that counted them is released before
    any table is built, so the fold holds 16 bytes a distinct window
    beside the tables. One loop over the two arrays then folds the
    tables: a window that starts with a boundary is dropped; any other
    adds its first letter to the monograms, its first two letters to the
    digraphs unless the second is a boundary, and itself to the trigrams
    unless it holds a boundary. Only these surviving grams are decoded to
    strings. Each table lists its grams in order of first occurrence, and
    the monograms add up to the letter total.

    The fourth table, of 2-grams, holds the junctions: the letter pairs
    that meet across one word boundary, folded from the windows ``x·LF·y``.
    Run-only digraphs plus junctions are the digraphs counted with
    ``span_boundaries``; under ``span_boundaries`` the junction table is
    empty, since the digraphs already hold those pairs. No file carries
    it: it serves scoring from the tables (``evaluator.score_tables``).
    """
    for part in parts:
        refuse_bare_stream(part)
    if span_boundaries:
        parts = tuple((piece.replace(BOUNDARY, "") for piece in part) for part in parts)
    windows = _count_windows(parts, seams=not span_boundaries)
    keys, counts = array("Q", windows), array("Q", windows.values())
    del windows
    boundary = ord(BOUNDARY)  # compared with the code points a key unpacks to
    monograms: Counter = Counter()
    digraphs: Counter = Counter()
    trigrams: Counter = Counter()
    junctions: Counter = Counter()
    mono_get, di_get = monograms.get, digraphs.get
    for key, count in zip(keys, counts):
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
    total = monograms.total()
    return (NGramTable(1, monograms, total), NGramTable(2, digraphs, total),
            NGramTable(3, trigrams, total), NGramTable(2, junctions, total))


def count_ngrams(corpus: Iterable[str], n: int, *,
                 span_boundaries: bool = False) -> NGramTable:
    """The n-gram table of ``count_all`` for one n."""
    if n not in NGRAM_SIZES:
        raise ValueError(f"n must be one of {NGRAM_SIZES}, got {n}")
    return count_all(corpus, span_boundaries=span_boundaries)[n - 1]


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


def involvement_sums(digraphs: NGramTable, letters: Iterable[str],
                     partners: Sequence[str]) -> dict[str, int]:
    """The involvement of each of ``letters``, summed over its digraphs with each partner.

    ``partners`` must hold every letter of the digraph table, each once, as
    the function ``partners`` gives them. A letter x sums xy and then yx
    over every partner y, less xx, which both sums hold: two lookups in C
    per partner, so this beats the pass of ``involvement_totals`` over
    every row when few letters are wanted. The totals are the ones that
    pass gives, and 0 for a letter in no digraph.
    """
    get = digraphs.counts.get
    zeros = itertools.repeat(0)
    return {x: sum(map(get, map(x.__add__, partners), zeros))
            + sum(map(get, map(str.__add__, partners, itertools.repeat(x)), zeros))
            - get(x + x, 0)
            for x in letters}


def partners(digraphs: NGramTable, known: Iterable[str]) -> list[str]:
    """The letters ``known``, each once, then every other letter of the digraph table.

    The other letters are found in C, by one search of the joined digraphs
    for any code point outside ``known``: a set of every letter of the
    table takes several times as long. ``known`` letters are single code
    points.
    """
    known = list(dict.fromkeys(known))
    outside = f"[^{_class_items(known)}]" if known else "(?s:.)"
    return known + sorted(set(re.findall(outside, "".join(digraphs.counts))))


def side_scores(focus_letter: str, side: Sequence[str], digraphs: NGramTable,
                involvement: Mapping[str, int]) -> SideScore:
    """Cumulative support/confidence of a candidate letter against one hand.

    Both orientations of each pair count (alternation is order-symmetric);
    were the focus letter itself on the side, its doubled digraph would count
    once. A focus letter with no digraph involvement scores confidence 0
    rather than failing, so rare letters still partition cleanly.

    ``involvement`` maps at least the focus letter to its total, as
    ``involvement_totals`` maps every letter of ``digraphs``. ``side`` is
    consumed in its given order — pass an ordered sequence.
    """
    inv = involvement.get(focus_letter, 0)
    total = digraphs.total_letters
    get = digraphs.counts.get
    # One lookup per gram. Each term is one gram's support, 100 * count /
    # total, or confidence, 100 * count / inv, added in turn, xm before mx,
    # so the floats match a sum of the terms taken one at a time.
    sup = 0.0
    conf = 0.0
    try:
        for member in side:
            if member == focus_letter:
                count = get(focus_letter + focus_letter, 0)
                sup += 100.0 * count / total
                if inv:
                    conf += 100.0 * count / inv
            else:
                ahead = get(focus_letter + member, 0)
                behind = get(member + focus_letter, 0)
                sup = sup + 100.0 * ahead / total + 100.0 * behind / total
                if inv:
                    conf = conf + 100.0 * ahead / inv + 100.0 * behind / inv
    except ZeroDivisionError:  # a letter total of 0: there is no share to take
        raise EmptyCorpus("empty corpus: no letters to take percentages of") from None
    return SideScore(cumulative_support=sup, cumulative_confidence=conf)


def ordered_grams(counts: Mapping[str, int]) -> list[str]:
    """The grams by descending count, then ascending code point.

    The order of table rows, of the partition's ranking and of key placement.
    Both sorts are keyed in C; the second is stable, so equal counts keep
    the ascending order of the first.
    """
    return sorted(sorted(counts), key=counts.__getitem__, reverse=True)


def frequency_order(counts: Mapping[str, int]) -> list[tuple[str, int]]:
    """(gram, count) pairs in ``ordered_grams`` order."""
    grams = ordered_grams(counts)
    return list(zip(grams, map(counts.__getitem__, grams)))


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

# Rows joined into one write. A table's text is never held whole.
_ROWS_WRITTEN = 4096


def write_ngram_tsv(table: NGramTable, out: TextIO, *, config_echo: dict) -> None:
    """Write the table as TSV: a '#' header, a column header, then rows by ``ordered_grams``.

    A row's count and percentage depend on its count alone, so each
    distinct count is formatted once. The rows are written a few thousand
    at a time, each chunk joined from the ordered grams and a lookup of
    each gram's count, so the writer holds the table, one list of its
    grams and one chunk of text, never a list of (gram, count) pairs.
    """
    out.write("# layoutforge ngram table\n")
    out.write(f"# n\t{table.n}\n")
    out.write(f"# total_letters\t{table.total_letters}\n")
    out.write(f"# config\t{json.dumps(config_echo, sort_keys=True, ensure_ascii=False)}\n")
    out.write("gram\tcount\tpercentage\n")
    total = table.total_letters
    tails = {count: f"\t{count}\t{100.0 * count / total if total else 0.0:.6f}\n"
             for count in set(table.counts.values())}
    grams = ordered_grams(table.counts)
    count = table.counts.__getitem__
    for start in range(0, len(grams), _ROWS_WRITTEN):
        out.write("".join([gram + tails[count(gram)]
                           for gram in grams[start:start + _ROWS_WRITTEN]]))


def _read_comment(line: str, header: dict[str, int]) -> None:
    parts = line[1:].strip().split("\t")
    if len(parts) == 2 and parts[0] in ("n", "total_letters"):
        header[parts[0]] = int(parts[1])


# Every byte but TAB, LF and '#': deleting them leaves a block's tabs, line
# ends and comment marks.
_NOT_TAB_LF_OR_HASH = bytes(byte for byte in range(256) if byte not in b"\t\n#")


def _rows_only(data: bytes) -> bool:
    """Whether the block ends in LF, every line has two tabs and none holds a '#'.

    The check runs on the bytes, in C, once CRLF and a lone CR are LF: no
    UTF-8 sequence of two or more bytes holds a TAB, LF, CR or '#' byte,
    so the bytes show every tab, line end and '#' that the text holds. '#' is never a table letter
    (``corpus.NOT_TABLE_LETTERS``), so no row the writer writes holds one;
    a block with a '#' anywhere is read line by line, which reads a row
    as the bulk parse does. A column header has two tabs too, but its
    count is no integer; one whose count is, the reader drops as a row
    named ``gram``.
    """
    marks = data.translate(None, _NOT_TAB_LF_OR_HASH)
    return data.endswith(b"\n") and marks == b"\t\t\n" * (len(marks) // 3)


def _head_length(data: bytes) -> int:
    """The bytes of the block's leading '#' lines and column headers."""
    end = 0
    while data.startswith((b"#", b"gram\t"), end):
        end = data.find(b"\n", end) + 1 or len(data)
    return end


def _lines(block: str) -> list[str]:
    """The lines of a block, split at LF only, without the LF that ends it."""
    lines = block.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _refuse_repeats(path: str | Path, grams: Sequence[str], counts: Counter,
                    before: int) -> None:
    """Refuse the first of ``grams`` already listed: earlier among them, or in ``counts``.

    Only the first ``before`` grams of ``counts`` were listed before
    ``grams``, which ``counts`` holds after them. A row named ``gram`` is
    a column header, which may come again.
    """
    seen = set(itertools.islice(counts, before))
    for gram in grams:
        if gram in seen and gram != "gram":
            raise MalformedInput(f"{path}: gram {gram!r} is listed twice")
        seen.add(gram)


def _read_lines(path: str | Path, lines: list[str], counts: Counter,
                header: dict[str, int]) -> None:
    """Read a block line by line: '#' lines into ``header``, rows into ``counts``.

    Blank lines and column headers are skipped; any other line that is no
    row, or a row of a gram listed before, is malformed, and named.
    """
    for line in lines:
        try:
            if line[:1] == "#":
                _read_comment(line, header)
            else:
                gram, count, _pct = line.split("\t")
                count = int(count)
                if gram in counts and gram != "gram":
                    raise MalformedInput(f"{path}: gram {gram!r} is listed twice")
                counts[gram] = count
        except ValueError as exc:  # a short row, or a count or header value that is no integer
            if line and not line.startswith("gram\t"):
                raise MalformedInput(f"{path}: bad row {line!r}: {exc}") from None


def read_ngram_tsv(path: str | Path) -> NGramTable:
    """Rebuild a table from its TSV export (counts and totals, not percentages).

    The file is read as ``corpus.blocks`` reads a corpus, a block of bytes
    that ends right after an LF at a time, never whole. Each block is
    decoded strictly on its own, since no UTF-8 sequence holds an LF byte,
    and a byte that is not UTF-8 is named by its offset from the start of
    the file. CRLF and a lone CR read as LF, as in text mode, and the text
    is split at LF only: ``str.splitlines`` would also split at characters
    a gram may hold. The '#' lines and column headers that start a block
    (``_head_length``) are read line by line. The rest of it, when
    ``_rows_only`` tells from its bytes that it holds rows alone, is
    parsed in bulk: its LFs become TABs, one split gives every field, and
    each distinct count string is parsed once. Lines are split only for
    any other rest, or one whose counts do not all read as integers,
    which is read line by line and names the row at fault. '#' lines
    carry the header wherever they stand; blank lines and column headers
    are skipped. A table that lists a gram twice is
    malformed, and the gram named: a block parsed in bulk is searched for
    it only when it adds fewer grams than it has rows. A table whose
    ``n`` is not one of 1-3, that stores a gram of another length, that
    holds a negative count or total, or whose counts add up to more than
    its total (no gram occurs more often than there are letters), is
    malformed.
    """
    header: dict[str, int] = {}
    counts: Counter = Counter()
    with open(path, "rb") as handle:
        for offset, data in blocks(handle):
            try:
                block = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedInput(f"{path}: invalid UTF-8 at byte offset"
                                     f" {offset + exc.start}") from None
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                block = block.replace("\r\n", "\n").replace("\r", "\n")
            if head := _head_length(data):
                text = data[:head].decode("utf-8")
                _read_lines(path, _lines(text), counts, header)
                data, block = data[head:], block[len(text):]
            if _rows_only(data):
                fields = block.replace("\n", "\t").split("\t")
                texts = fields[1::3]
                try:
                    parsed = {text: int(text) for text in set(texts)}
                except ValueError:
                    pass  # _read_lines names the row
                else:
                    grams = fields[0:-1:3]  # the last field is the empty one after the final LF
                    before = len(counts)
                    dict.update(counts, zip(grams, map(parsed.__getitem__, texts)))
                    if len(counts) - before < len(texts):  # a gram came again
                        _refuse_repeats(path, grams, counts, before)
                    continue
            _read_lines(path, _lines(block), counts, header)
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

