"""N-gram counting plus support, confidence, and cumulative side scores.

Counting (``count_all``) keys every trigram window of a letter stream by
one int that packs its three code points, 21 bits each. The stream comes
as its pieces in order, such as the blocks ``corpus.read_pieces`` reads
one at a time, and the windows that straddle two pieces are counted
once. The keys are built and counted in C, a block of windows at a time,
so that only the counts grow with the corpus. The stream may also come
in parts, such as the byte ranges of ``corpus.byte_parts``: the first is
counted in this process and each later one in a forked child, which
sends back one pickle: its first three and last two characters and its
keys and counts packed as 8-byte words, or its error. The windows of
each seam are counted here, behind the part before it, and the child's
counts merged after them, so the tables and their key order are those of
the whole stream. A part that no child can take, for want of a process
or a pipe, is counted here in its turn, and a child that dies is reaped
and named by its exit status or signal. One loop over the distinct keys
then folds them into the monogram, digraph, trigram and junction tables,
decoding only the grams that hold no boundary.

Support of a gram is its share of all letters, as a percentage. Confidence
of a digraph relative to a focus letter divides the digraph's count by the
total count of every digraph that involves the focus letter in either
position (a doubled digraph counts once). That involvement is computed for
every letter in one pass over the digraph table (``involvement_totals``),
once per table, and handed to ``side_scores``. Side scores accumulate both
quantities for a candidate letter against the letters already on one hand,
taking both orientations of each pair, with one lookup per gram.

The tables are read and written as TSV in bulk. The reader takes the
file through the corpus's block reader (``corpus.blocks``), a block of
bytes that ends right after an LF at a time; it decodes each block
strictly, naming a byte that is not UTF-8 by its offset in the file,
reads CRLF and a lone CR as LF, splits at LF only, and parses a block of
rows alone with one split and a map of ``int``; any other block is read
line by line, which keeps every layout it accepts and names the row at
fault. The writer orders the rows by two sorts keyed in C and formats
each distinct count once.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence, TextIO

from .corpus import BOUNDARY, blocks, refuse_bare_stream, seamed
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
    the slots read as one int ``x``, and ``x | (x >> 64) << 21 | (x >> 128)
    << 42`` holds the key of the window that starts in each slot. Its first
    ``size - 2`` slots are then counted by ``Counter.update``.
    """
    for piece in pieces:
        text = carry + piece
        for start in range(0, len(text) - 2, _BLOCK):
            chunk = text[start:start + _BLOCK + 2]
            size = len(chunk)  # characters, two more than windows
            slots = bytearray(8 * size)
            memoryview(slots).cast("I")[0::2] = memoryview(chunk.encode("utf-32-le")).cast("I")
            x = int.from_bytes(slots, "little")
            keys = memoryview((x | (x >> 64) << 21 | (x >> 128) << 42)
                              .to_bytes(8 * size, sys.byteorder)).cast("Q")
            # A big-endian machine lists the slots last one first.
            windows.update(keys[:size - 2] if sys.byteorder == "little" else keys[:1:-1])
        carry = text[-2:]
    return carry


def _part_windows(part: Iterable[str]) -> tuple[str, Counter, str]:
    """What a child counts of a part after the first: the windows it holds on its own, and its ends.

    Those windows start at its second character or later and end within
    it. Its first three characters start the windows of the seam before
    it, however that seam trims or extends it, and its last two those of
    the seam after it; a part shorter than three characters holds no
    window of its own and is sent whole.
    """
    pieces = iter(part)
    first = ""
    for piece in pieces:
        first += piece
        if len(first) >= 3:
            break
    windows: Counter = Counter()
    last = _count_pieces(windows, itertools.chain([first[1:]], pieces))
    return first[:3], windows, last


def _serve(part: Iterable[str], fd: int) -> NoReturn:
    """In a forked child: count a part, send what ``_part_windows`` gives through ``fd``, and leave.

    The message is one pickle: the part's error, or its first characters,
    the keys and the counts of its windows in order of first occurrence,
    each packed as the native 8-byte words of an ``array("Q")``, and its
    last two characters. The parent reads the words where the pickle put
    them, with no copy. The child always leaves by ``os._exit``, so it
    runs none of the parent's clean-up and flushes none of its buffers.
    """
    code = 1
    try:
        import pickle

        try:
            first, windows, last = _part_windows(part)
            result = (first, array("Q", windows.keys()).tobytes(),
                      array("Q", windows.values()).tobytes(), last)
        except BaseException as exc:  # the parent raises it in its turn
            result = exc
        with open(fd, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


class _Child:
    """A forked process that counts one part, and the pipe it sends its result back by."""

    def __init__(self, part: Iterable[str]):
        read_end, write_end = os.pipe()
        self.pipe = open(read_end, "rb")
        try:
            self.pid: int | None = os.fork()
            if self.pid == 0:
                _serve(part, write_end)
        except BaseException:
            self.pipe.close()
            raise
        finally:
            os.close(write_end)

    def result(self) -> tuple[str, Iterable[tuple[int, int]], str]:
        """The first characters, window counts and last two characters of the child's part.

        The child's one pickle is read whole, and its packed keys and
        counts are read in place. Where the part failed, its error is
        raised instead; where the pickle ends short, the child is reaped
        and named by its exit status or signal.
        """
        import pickle

        try:
            result = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"a counting process {how} before it sent its whole"
                               " result") from None
        if isinstance(result, BaseException):
            raise result
        first, keys, counts, last = result
        return first, zip(memoryview(keys).cast("Q"), memoryview(counts).cast("Q")), last

    def end(self) -> None:
        """Stop the child, if it still runs, and reap it, unless it was reaped already."""
        import signal

        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


class _Here:
    """A part that no child could take, for want of a process or a pipe: counted here in turn."""

    def __init__(self, part: Iterable[str]):
        self.part = part

    def result(self) -> tuple[str, Iterable[tuple[int, int]], str]:
        first, windows, last = _part_windows(self.part)
        return first, windows.items(), last

    def end(self) -> None:
        pass


def _count_windows(parts: Sequence[Iterable[str]], *, seams: bool) -> Counter:
    """Count the trigram windows of the parts joined, plus two boundaries, by packed key.

    The first part is counted here, each later one in a forked child
    (``_part_windows``) while this process counts the first; a part for
    which no process or pipe can be had is counted here in its turn
    (``_Here``), as its child would have counted it. Each child's
    part, read back whole from its one pickle (``_Child.result``), is
    then stitched in behind what came before it: its first three
    characters, ``seamed`` when ``seams`` is set, are counted behind the
    last two characters so far, which gives the windows of the seam; the
    child's counts are merged after those, so every key keeps its place
    of first occurrence, and its last two characters carry on. Two
    boundaries follow the last part. Every child is stopped, if it still
    runs, and reaped before this returns or raises; the error raised is
    that of the earliest part that failed.
    """
    windows: Counter = Counter()
    children: list[_Child | _Here] = []
    try:
        for part in parts[1:]:
            try:
                children.append(_Child(part))
            except OSError:  # EAGAIN, ENOMEM or EMFILE
                children.append(_Here(part))
        carry = _count_pieces(windows, parts[0] if parts else ())
        for child in children:
            first, pairs, last = child.result()
            carry = _count_pieces(windows, [seamed(carry, first) if seams else first], carry)
            if len(first) == 3:
                get = windows.get
                for key, count in pairs:
                    windows[key] = get(key, 0) + count
                carry = last
        _count_pieces(windows, [BOUNDARY + BOUNDARY], carry)
    finally:
        for child in children:
            child.end()
    return windows


def count_all(*parts: Iterable[str], span_boundaries: bool = False
              ) -> tuple[NGramTable, NGramTable, NGramTable, NGramTable]:
    """Count the 1-, 2- and 3-gram tables of a stream in one pass, plus its junctions.

    The stream comes as one or more parts, each its pieces in order
    (``read_pieces``); a whole stream is one part of one piece,
    ``[stream]``. The parts are joined as ``concat_streams`` joins
    streams, and any split gives the same tables. Each part after the
    first is counted in a forked child (``_count_windows``), so a split
    needs ``os.fork``. Windows never cross a word boundary unless
    ``span_boundaries`` is set (a sensitivity knob; alternation across a
    space is not meaningful); then every boundary is dropped first. Every
    trigram window of the text with two boundaries appended is counted
    under one int key that packs its three code points, so each position
    of the text starts exactly one window. One loop over the distinct
    keys then folds the tables: a window that starts with a boundary is
    dropped; any other adds its first letter to the monograms, its first
    two letters to the digraphs unless the second is a boundary, and
    itself to the trigrams unless it holds a boundary. Only these
    surviving grams are decoded to strings. Each table lists its grams in
    order of first occurrence, and the monograms add up to the letter
    total.

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
    boundary = ord(BOUNDARY)  # compared with the code points a key unpacks to
    monograms: Counter = Counter()
    digraphs: Counter = Counter()
    trigrams: Counter = Counter()
    junctions: Counter = Counter()
    mono_get, di_get = monograms.get, digraphs.get
    for key, count in windows.items():
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
    total = digraphs.total_letters
    get = digraphs.counts.get
    # One lookup per gram. Each term is the one ``support`` (or the
    # confidence) gives, added in turn, xm before mx, so the floats match.
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
    except ZeroDivisionError:  # a letter total of 0, as ``support`` refuses it
        raise EmptyCorpus("empty corpus: no letters to take percentages of") from None
    return SideScore(cumulative_support=sup, cumulative_confidence=conf)


def frequency_order(counts: Mapping[str, int]) -> list[tuple[str, int]]:
    """(gram, count) pairs by descending count, then ascending code point.

    The order of table rows, of the partition's ranking and of key placement.
    Both sorts are keyed in C; the second is stable, so equal counts keep
    the ascending order of the first.
    """
    grams = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
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


def write_ngram_tsv(table: NGramTable, out: TextIO, *, config_echo: dict | None = None) -> None:
    """Write the table as TSV: a '#' header, a column header, then rows in ``frequency_order``.

    A row's count and percentage depend on its count alone, so each
    distinct count is formatted once, and the rows are written a few
    thousand at a time.
    """
    out.write("# layoutforge ngram table\n")
    out.write(f"# n\t{table.n}\n")
    out.write(f"# total_letters\t{table.total_letters}\n")
    if config_echo is not None:
        out.write(f"# config\t{json.dumps(config_echo, sort_keys=True, ensure_ascii=False)}\n")
    out.write("gram\tcount\tpercentage\n")
    total = table.total_letters
    tails = {count: f"\t{count}\t{100.0 * count / total if total else 0.0:.6f}\n"
             for count in set(table.counts.values())}
    rows = frequency_order(table.counts)
    for start in range(0, len(rows), _ROWS_WRITTEN):
        out.write("".join([gram + tails[count]
                           for gram, count in rows[start:start + _ROWS_WRITTEN]]))


def _read_comment(line: str, header: dict[str, int]) -> None:
    parts = line[1:].strip().split("\t")
    if len(parts) == 2 and parts[0] in ("n", "total_letters"):
        header[parts[0]] = int(parts[1])


def _rows_only(block: str, lines: list[str]) -> bool:
    """Whether every line of the block has two tabs and none is a comment.

    A column header has two tabs too, but its count is no integer; one
    whose count is, the reader drops as a row named ``gram``.
    """
    return (not block.startswith("#") and "\n#" not in block
            and set(map(str.count, lines, itertools.repeat("\t"))) == {2})


def read_ngram_tsv(path: str | Path) -> NGramTable:
    """Rebuild a table from its TSV export (counts and totals, not percentages).

    The file is read as ``corpus.blocks`` reads a corpus, a block of bytes
    that ends right after an LF at a time, never whole. Each block is
    decoded strictly on its own, since no UTF-8 sequence holds an LF byte,
    and a byte that is not UTF-8 is named by its offset from the start of
    the file. CRLF and a lone CR read as LF, as in text mode, and the text
    is split at LF only: ``str.splitlines`` would also split at characters
    a gram may hold. A block of rows alone is parsed in bulk; any other
    block, or one whose counts do not all read as integers, line by line,
    which names the row at fault. '#' lines carry the header wherever they
    stand; blank lines and column headers are skipped. A table whose ``n``
    is not one of 1-3, that stores a gram of another length, that holds a
    negative count or total, or whose counts add up to more than its total
    (no gram occurs more often than there are letters), is malformed.
    """
    header: dict[str, int] = {}
    counts: Counter = Counter()
    offset = 0
    try:
        with open(path, "rb") as handle:
            for data in blocks(handle):
                try:
                    block = data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise MalformedInput(f"{path}: invalid UTF-8 at byte offset"
                                         f" {offset + exc.start}") from None
                offset += len(data)
                block = block.replace("\r\n", "\n").replace("\r", "\n")
                lines = block.split("\n")
                if not lines[-1]:  # the LF that ends the block
                    lines.pop()
                if _rows_only(block, lines):
                    fields = "\t".join(lines).split("\t")
                    try:
                        # a later row of a gram overwrites it, as the loop below does
                        dict.update(counts, zip(fields[0::3], map(int, fields[1::3])))
                    except ValueError:
                        pass  # the loop below names the row
                    else:
                        continue
                for line in lines:
                    if line[:1] == "#":
                        _read_comment(line, header)
                        continue
                    try:
                        gram, count, _pct = line.split("\t")
                        counts[gram] = int(count)
                    except ValueError:
                        if line and not line.startswith("gram\t"):
                            raise
    except ValueError as exc:  # a short row, or a count that is no integer
        raise MalformedInput(f"{path}: bad row {line!r}: {exc}") from None
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

