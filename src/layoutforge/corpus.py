"""Text ingestion: UTF-8 decoding, NFC normalization, letter-stream tokenization.

A corpus is reduced to a letter stream: a ``str`` of its letters in
order in which each word boundary is a single LF (``BOUNDARY``). What
counts as a letter is driven entirely by an AlphabetConfig; every other
code point becomes a boundary, and consecutive boundaries collapse into
one. LF is the boundary under every alphabet because no alphabet can
hold it: it splits the rows of an n-gram table (``NOT_TABLE_LETTERS``).
The letter unit is a single code point, so dependent vowel signs
(matras) and the virama are letters in their own right.

Files are read in blocks of 16 KiB that end right after an LF
(``blocks``), and each block is decoded, normalized and tokenized on its
own, so only one block is held at a time (``read_pieces``); n-gram
tables are read through the same blocks. The pieces, joined in order,
are the stream ``read_corpus`` returns whole. A corpus of regular files
can also be cut into byte ranges that end right after an LF, one part
per CPU (``byte_parts``); each part reads as the blocks of its ranges,
and the parts' streams, joined by the same seam rule (``seamed``), are
the stream of the whole.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import io
import itertools
import os
import re
import stat
import sys
import threading
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from .atomic import OptionalField, check_shape, read_json_object
from .errors import ConfigError, InvalidEncoding

# Bangla defaults: the whole Bengali block minus its digits. The danda
# (U+0964) lives in the Devanagari block and is therefore a boundary unless
# explicitly included.
BANGLA_BLOCK = (0x0980, 0x09FF)
BANGLA_DIGITS = frozenset(chr(cp) for cp in range(0x09E6, 0x09F0))

# '#' starts a comment line of an n-gram table, and TAB, LF and CR split
# its rows, so no table could carry these letters.
NOT_TABLE_LETTERS = frozenset("#\t\n\r")

# The one character that stands for a word boundary in a letter stream. A
# stream keeps its letters in order and writes each boundary as one
# BOUNDARY, including a boundary at either end; no two are ever adjacent.
# It is in NOT_TABLE_LETTERS, so it is never a letter, and it is no
# backslash, so it stands as its own replacement template in ``re.sub``.
BOUNDARY = "\n"

# Bytes read at a time from a corpus file or an n-gram table; each block
# then runs on to the end of its line.
_READ_BLOCK = 1 << 14
# The fewest bytes worth a part of their own (``byte_parts``): below that,
# forking and merging cost more than a second core saves.
_MIN_PART = 1 << 18

ALPHABET_SHAPE = {"ranges": OptionalField([(str, str)]), "include": OptionalField([str]),
                  "exclude": OptionalField([str])}


def parse_codepoint(text: str) -> str:
    """Accept either a literal single character or a "U+XXXX" spelling."""
    if text.upper().startswith("U+"):
        try:
            return chr(int(text[2:], 16))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad code point {text!r}") from exc
    if len(text) != 1:
        raise ConfigError(f"expected one character or U+XXXX, got {text!r}")
    return text


def format_codepoint(ch: str) -> str:
    return f"U+{ord(ch):04X}"


@dataclass(frozen=True)
class AlphabetConfig:
    """Defines the letter set for tokenization.

    The resolved alphabet is (union of ranges) | include - exclude. Code
    points outside it are word boundaries. ``include`` and ``exclude`` must
    not overlap; excluding something a range covers is the normal way to
    carve out digits or (optionally) the virama.
    """

    ranges: tuple[tuple[int, int], ...] = (BANGLA_BLOCK,)
    include: frozenset[str] = frozenset()
    exclude: frozenset[str] = BANGLA_DIGITS

    def __post_init__(self):
        for lo, hi in self.ranges:
            if lo > hi:
                raise ConfigError(f"empty code point range U+{lo:04X}..U+{hi:04X}")
        clash = self.include & self.exclude
        if clash:
            listed = ", ".join(sorted(format_codepoint(c) for c in clash))
            raise ConfigError(f"include and exclude overlap: {listed}")
        untabled = sorted(format_codepoint(c) for c in NOT_TABLE_LETTERS - self.exclude
                          if c in self.include or any(lo <= ord(c) <= hi for lo, hi in self.ranges))
        if untabled:
            raise ConfigError(f"n-gram tables cannot hold the letters {', '.join(untabled)};"
                              " exclude them from the alphabet")

    def resolve(self) -> frozenset[str]:
        """The concrete letter set this config denotes."""
        letters = {chr(cp) for lo, hi in self.ranges for cp in range(lo, hi + 1)}
        letters |= self.include
        letters -= self.exclude
        return frozenset(letters)

    @classmethod
    def from_dict(cls, data: dict) -> "AlphabetConfig":
        """The config an alphabet document describes; its shape is checked here."""
        check_shape(data, ConfigError, "alphabet", ALPHABET_SHAPE)
        ranges = tuple((ord(parse_codepoint(lo)), ord(parse_codepoint(hi)))
                       for lo, hi in data.get("ranges", []))
        include = frozenset(map(parse_codepoint, data.get("include", [])))
        exclude = frozenset(map(parse_codepoint, data.get("exclude", [])))
        return cls(ranges=ranges, include=include, exclude=exclude)

    def to_dict(self) -> dict:
        return {
            "ranges": [[f"U+{lo:04X}", f"U+{hi:04X}"] for lo, hi in self.ranges],
            "include": sorted(format_codepoint(c) for c in self.include),
            "exclude": sorted(format_codepoint(c) for c in self.exclude),
        }

    @classmethod
    def load(cls, path: str | Path) -> "AlphabetConfig":
        return read_json_object(path, ConfigError, "alphabet", ALPHABET_SHAPE, cls.from_dict)


def normalize_text(raw: bytes) -> str:
    """Decode UTF-8 strictly and normalize to NFC."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(exc.start) from exc
    return unicodedata.normalize("NFC", text)


@functools.lru_cache(maxsize=16)
def _scanner(config: AlphabetConfig) -> re.Pattern:
    """A pattern matching each maximal run of non-letters."""
    alphabet = config.resolve()
    spans = []  # one class item per run of consecutive code points
    for _, group in itertools.groupby(enumerate(sorted(map(ord, alphabet))),
                                      lambda pair: pair[1] - pair[0]):
        cps = [cp for _, cp in group]
        lo, hi = re.escape(chr(cps[0])), re.escape(chr(cps[-1]))
        spans.append(lo if lo == hi else f"{lo}-{hi}")
    pattern = f"[^{''.join(spans)}]+" if spans else r"[\s\S]+"
    return re.compile(pattern)


def tokenize(text: str, config: AlphabetConfig | None = None) -> str:
    """The letter stream of normalized text under the given alphabet.

    Unknown characters never fail; any maximal run of non-alphabet code
    points becomes one ``BOUNDARY``, which no alphabet holds, so
    tokenizing a stream again under its alphabet gives it back.
    """
    nonletters = _scanner(config if config is not None else AlphabetConfig())
    return nonletters.sub(BOUNDARY, text)


def seamed(before: str, text: str) -> str:
    """``text`` trimmed or extended so that it meets a stream ending in ``before`` at one boundary.

    Within a stream no two boundaries touch, so each seam needs exactly
    one: one is added where neither side has it and dropped where both do.
    With nothing before it, ``text`` stays as it is.
    """
    if before and text:
        seam = before.endswith(BOUNDARY) + text.startswith(BOUNDARY)
        if seam == 0:
            return BOUNDARY + text
        if seam == 2:
            return text[1:]
    return text


def _joined(streams: Iterable[str]) -> Iterator[str]:
    """The nonempty streams, each ``seamed`` behind the one given out before it."""
    last = ""
    for text in streams:
        if text := seamed(last, text):
            last = text
            yield text


def concat_streams(streams: Iterable[str]) -> str:
    """Join streams with an implicit boundary between parts.

    Digraphs therefore never span two source files, and the merged statistics
    do not depend on which file a word came from.
    """
    return "".join(_joined(streams))


def refuse_bare_stream(corpus: Iterable[str]) -> None:
    """Refuse a bare ``str``, which would be read slowly as one piece per character."""
    if isinstance(corpus, str):
        raise TypeError("a stream is given as its pieces in order: pass [stream], not a str")


def blocks(handle: BinaryIO, size: int = sys.maxsize) -> Iterator[bytes]:
    """The handle's next ``size`` bytes in blocks that end right after an LF, bar perhaps the last.

    A block is ``_READ_BLOCK`` bytes and the rest of the line they end in,
    so a line longer than a block is read whole. With no ``size``, the
    handle is read to its end.
    """
    while block := handle.read(min(_READ_BLOCK, size)):
        if not block.endswith(b"\n"):
            block += handle.readline(size - len(block))
        size -= len(block)
        yield block


class FileRange(NamedTuple):
    """The bytes of a file from ``start`` up to ``stop``, a cut that ``byte_parts`` made."""

    path: str | Path
    start: int
    stop: int


Source = str | Path | FileRange | bytes | BinaryIO


def _source_texts(source: Source, config: AlphabetConfig | None) -> Iterator[str]:
    """The letter stream of each block of a file or a range of one, of bytes, or of a handle.

    LF is never a letter, and it is a starter that composes with nothing,
    so decoding, normalizing and tokenizing each block gives the stream
    that those steps give the whole source. An encoding error is placed by
    its offset from the start of the file, or of the source. A handle is
    read from where it stands and left open.
    """
    offset, size = 0, sys.maxsize
    if isinstance(source, FileRange):
        source, offset, size = source.path, source.start, source.stop - source.start
    path = source if isinstance(source, (str, Path)) else None
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    with open(path, "rb") if path is not None else contextlib.nullcontext(source) as handle:
        if offset:
            handle.seek(offset)
        for block in blocks(handle, size):
            try:
                text = normalize_text(block)
            except InvalidEncoding as exc:
                raise InvalidEncoding(offset + exc.position, path) from None
            offset += len(block)
            yield tokenize(text, config)


def _line_end(path: str | Path, position: int) -> int:
    """The offset past the LF that ends the line holding byte ``position``, or the file size."""
    with open(path, "rb") as handle:
        handle.seek(position)
        handle.readline()
        return handle.tell()


def byte_parts(sources: Sequence[Source]) -> list[list[Source]]:
    """The sources cut into parts of about equal bytes, one for each CPU this process may use.

    Only a corpus of regular files is cut, and only where ``os.fork`` can
    count the parts side by side: on a platform that has it, in a process
    that runs no other thread, which a fork could leave holding a lock. A
    file that cannot be opened counts as empty, so reading it fails in its
    part as it fails in the whole. Each cut falls right after the LF that
    ends the line holding a 1/P mark, or at a file's end, so it splits the
    corpus where a block may end: the parts' streams, joined as
    ``read_pieces`` joins pieces, are the stream of the whole. P is capped
    so that the marks lie ``_MIN_PART`` bytes apart or more; a corpus of
    fewer than two such parts, or any other kind of source, is one part.
    """
    whole = [list(sources)]
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return whole
    sizes = []
    for source in sources:
        if not isinstance(source, (str, Path)):
            return whole
        try:
            info = os.stat(source)
        except OSError:
            sizes.append(0)
            continue
        if not stat.S_ISREG(info.st_mode):
            return whole
        sizes.append(info.st_size)
    total = sum(sizes)
    count = min(len(os.sched_getaffinity(0)), total // _MIN_PART)
    if count < 2:
        return whole
    starts = list(itertools.accumulate(sizes, initial=0))
    cuts = set()
    for mark in (total * k // count for k in range(1, count)):
        i = bisect.bisect_right(starts, mark) - 1  # the file that holds byte ``mark``
        cuts.add(starts[i] + _line_end(sources[i], mark - starts[i]))
    bounds = iter(sorted(cuts - {total}))
    cut = next(bounds, total)
    parts: list[list[Source]] = [[]]
    for path, first, size in zip(sources, starts, sizes):
        start = first
        while cut < first + size:
            if cut > start:
                parts[-1].append(FileRange(path, start - first, cut - first))
            parts.append([])
            start, cut = cut, next(bounds, total)
        parts[-1].append(path if start == first else FileRange(path, start - first, size))
    return parts


def read_pieces(sources: Iterable[Source],
                config: AlphabetConfig | None = None) -> Iterator[str]:
    """The corpus in its sources' order, as one letter-stream piece per block read.

    Each seam between pieces, of one source or of two, holds exactly one
    boundary, so the pieces joined are the stream of the whole corpus,
    while only one block is held at a time.
    """
    return _joined(piece for source in sources for piece in _source_texts(source, config))


def read_corpus(paths: Iterable[str | Path], config: AlphabetConfig | None = None) -> str:
    """The whole corpus as one stream: the files' pieces joined in the given order."""
    return "".join(read_pieces(paths, config))
