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
tables are read through the same blocks. A read learns from its first
block which characters NFC keeps, and which pairs of them it changes
(``NfcCheck``); a later block that holds only those characters and no
such pair is NFC already, and is not normalized again. Every alphabet
is tokenized one way (``tokenize``): two patterns make each run of
non-letters one boundary, after a ``str.replace`` has made each space
one under an alphabet with letters but no space. The pieces, joined in
order, are the stream ``read_corpus`` returns whole. Only regular files
(``regular_file_size``) can be read twice, or cut into byte ranges, so
stdin and pipes are first copied to one (``spooled``). ``blocks`` alone
decides where a line starts: a range reads the lines that start in it
(``FileRange``), and the streams of consecutive ranges, joined by the
same seam rule (``seamed``), are the stream of the whole; how a corpus
is cut into parts, ``parts`` decides.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import shutil
import sys
import tempfile
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

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


def normalize_text(raw: bytes, is_nfc: Callable[[str], bool] | None = None) -> str:
    """Decode UTF-8 strictly and normalize to NFC.

    A decoded text that ``is_nfc`` accepts (a ``NfcCheck``) is already NFC,
    and is given back as decoded, not normalized again.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(exc.start) from exc
    if is_nfc is not None and is_nfc(text):
        return text
    return unicodedata.normalize("NFC", text)


def _joins_previous(ch: str) -> bool:
    """Whether ``ch`` may compose with, or reorder against, the character before it.

    It may when it, or a character of its NFD, is a non-starter, a mark
    or a Hangul vowel or trailing jamo, which composes with the syllable
    before it. The second character of every primary composite is one of
    these.
    """
    return any(unicodedata.combining(part) or unicodedata.category(part)[0] == "M"
               or "\u1161" <= part <= "\u1175" or "\u11a8" <= part <= "\u11c2"
               for part in ch + unicodedata.normalize("NFD", ch))


class NfcCheck:
    """Tells whether a text is NFC as it stands, by what it learned from the first text it saw.

    The first call learns, and answers no. From that text it takes K, the
    characters that NFC keeps as they are alone; S, those of K that
    ``_joins_previous``; and P, the pairs of K × S that NFC changes, found
    by one normalization for each first character. Each later text is NFC
    when no character lies outside K, no two non-starters stand side by
    side and no pair of P does, which up to three regex searches tell.

    That test is exact. NFC changes a text in three ways only: at a
    character that it changes alone, which is not in K; across two
    adjacent non-starters, which it reorders or composes past; and where
    a character composes with, or reorders against, the one right before
    it. The last needs that character, or the first of its NFD, to be a
    mark, a non-starter or a Hangul vowel or trailing jamo. A scan of
    every code point finds this true of the second character of every
    primary composite (Unicode 13.0-15.1, CPython 3.10-3.13), so such a
    character is in S and the pair in P.

    A check learns nothing, and answers no to every text, when its first
    text holds no character of K, or when the pairs of K × S would take
    more characters than ``budget``, the bytes it is to check.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.learned = False
        self.searches: list[re.Pattern] | None = None  # None: nothing learned

    def __call__(self, text: str) -> bool:
        if not self.learned:
            self.learned = True
            self.searches = self._learn(text)
            return False
        return self.searches is not None and not any(search.search(text)
                                                     for search in self.searches)

    def _learn(self, text: str) -> list[re.Pattern] | None:
        stable = [ch for ch in set(text) if unicodedata.is_normalized("NFC", ch)]
        firsts = [ch for ch in stable if ch != BOUNDARY]  # LF composes with nothing
        seconds = [ch for ch in stable if _joins_previous(ch)]
        if not stable or 3 * len(firsts) * len(seconds) > self.budget:
            return None
        # A row of P at a time: the pairs that start with one character,
        # joined by LF, which composes with nothing, and normalized at once.
        branches = []
        for first in sorted(firsts):
            pairs = [first + second for second in seconds]
            row = BOUNDARY.join(pairs)
            normalized = unicodedata.normalize("NFC", row)
            if normalized != row:
                changed = (pair[1] for pair, nfc in zip(pairs, normalized.split(BOUNDARY))
                           if pair != nfc)
                branches.append(f"{re.escape(first)}[{_class_items(changed)}]")
        nonstarters = [ch for ch in stable if unicodedata.combining(ch)]
        # One pattern a search: a pattern that starts with one character
        # (a class of one character is one) is scanned for by that character.
        patterns = [f"[^{_class_items(stable)}]"]
        if nonstarters:
            patterns.append(f"[{_class_items(nonstarters)}]" * 2)
        if branches:
            patterns.append("|".join(branches))
        return [re.compile(pattern) for pattern in patterns]


def _class_items(chars: Iterable[str]) -> str:
    """The items of a regex character class of ``chars``: one per run of consecutive code points.

    A run is its character, or its ends joined by ``-``; only ``\\``,
    ``]``, ``[``, ``^`` and ``-`` are escaped, ``[`` to keep off a
    "possible nested set" warning. ``&&``, ``||``, ``~~`` and ``--``
    would need a character twice, so no other pair warns.
    """
    cps = sorted(set(map(ord, chars)))
    firsts = [cp for cp, before in zip(cps, [-2, *cps]) if cp != before + 1]
    lasts = [cp for cp, after in zip(cps, [*cps[1:], -2]) if cp + 1 != after]
    spell = {ord(ch): "\\" + ch for ch in "\\][^-"}.get
    return "".join([spell(lo, chr(lo)) if lo == hi
                    else f"{spell(lo, chr(lo))}-{spell(hi, chr(hi))}"
                    for lo, hi in zip(firsts, lasts)])


@functools.lru_cache(maxsize=16)
def _scanners(config: AlphabetConfig) -> tuple[re.Pattern, re.Pattern, bool]:
    """``tokenize``'s patterns, of non-letters from a non-LF on and of LFs, and its space rule."""
    alphabet = config.resolve()
    first = f"[^{_class_items(alphabet | {BOUNDARY})}]"
    rest = f"[^{_class_items(alphabet)}]" if alphabet else "(?s:.)"
    spaces = bool(alphabet) and " " not in alphabet
    return re.compile(first + rest + "*"), re.compile(BOUNDARY * 2 + "+"), spaces


def tokenize(text: str, config: AlphabetConfig | None = None) -> str:
    """The letter stream of normalized text under the given alphabet.

    Unknown characters never fail; any maximal run of non-alphabet code
    points becomes one ``BOUNDARY``, which no alphabet holds, so
    tokenizing a stream again under its alphabet gives it back. Under an
    alphabet with letters but no space, each space is first made a
    ``BOUNDARY`` by one ``str.replace``, so a one-space word gap, the most
    common run, is no match of a pattern. Then the first non-LF of each
    maximal run of non-letters starts a match that runs to the end of the
    run, LFs included, and becomes one ``BOUNDARY``. This is exact, since
    each such run becomes some LFs plus at most one match, and a stretch
    of words that are no letters is one match, not one a word. The last
    pattern then makes each run of LFs one LF. Each pattern starts with a class, which the
    regex engine scans for first: "[^x]+" and "\\n{2,}" are slower.
    """
    others, boundaries, spaces = _scanners(config if config is not None else AlphabetConfig())
    if spaces:
        text = text.replace(" ", BOUNDARY)
    return boundaries.sub(BOUNDARY, others.sub(BOUNDARY, text))


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


def blocks(handle: BinaryIO, start: int = 0,
           stop: int = sys.maxsize) -> Iterator[tuple[int, bytes]]:
    """The lines of the handle that start at byte ``start`` or later and before ``stop``.

    They come as ``(offset, block)`` pairs, the block at ``offset`` from
    the handle's start. A block is ``_READ_BLOCK`` bytes and the rest of
    the line they end in, so a line longer than a block is read whole.
    From a ``start`` past 0, the rest of the line that holds byte
    ``start - 1`` is skipped, in reads of at most ``_READ_BLOCK`` bytes,
    and no further than ``stop``: past it no line starts in the range.
    """
    offset = start
    if start:
        handle.seek(start - 1)
        offset -= 1
        while offset < stop and (skipped := handle.readline(_READ_BLOCK)):
            offset += len(skipped)
            if skipped.endswith(b"\n"):
                break
    while offset < stop and (block := handle.read(min(_READ_BLOCK, stop - offset))):
        if not block.endswith(b"\n"):
            block += handle.readline()
        yield offset, block
        offset += len(block)


class FileRange(NamedTuple):
    """The lines of a file that start at byte ``start`` or later and before ``stop``."""

    path: str | Path
    start: int
    stop: int


Source = str | Path | FileRange


def _source_texts(source: Source, config: AlphabetConfig | None,
                  is_nfc: NfcCheck) -> Iterator[str]:
    """The letter stream of each block of a file or a range of one.

    LF is never a letter, and it is a starter that composes with nothing,
    so decoding, normalizing and tokenizing each block gives the stream
    that those steps give the whole source. A block that ``is_nfc``
    accepts is not normalized again. An encoding error is placed by its
    offset from the start of the file.
    """
    start, stop = 0, sys.maxsize
    if isinstance(source, FileRange):
        source, start, stop = source
    with open(source, "rb") as handle:
        for offset, block in blocks(handle, start, stop):
            try:
                text = normalize_text(block, is_nfc)
            except InvalidEncoding as exc:
                raise InvalidEncoding(offset + exc.position, source) from None
            yield tokenize(text, config)


def _source_bytes(source: Source) -> int:
    """The bytes of a source to read: its range, or its file's size (0 for no regular file)."""
    if isinstance(source, FileRange):
        return source.stop - source.start
    return regular_file_size(source) or 0


def regular_file_size(path: str | Path) -> int | None:
    """The size of a regular file, which can be read again; None for any other name."""
    return os.path.getsize(path) if os.path.isfile(path) else None


@contextlib.contextmanager
def spooled(paths: Sequence[str]) -> Iterator[list[str]]:
    """The files ``paths`` name, or stdin when they are none, as names of regular files.

    Stdin and each name that opens but is no regular file (a pipe, say)
    are copied byte for byte to temporary files, removed when the block
    ends; a name that does not open stays, to fail in its turn.
    """
    copied: dict[str, str | None] = {}  # what each spool holds
    try:
        yield [_spool(path, copied) for path in paths or [None]]
    except InvalidEncoding as exc:  # named by what was copied, never by its copy
        raise InvalidEncoding(exc.position, copied.get(exc.path, exc.path)) from None
    finally:
        for spool in copied:
            os.remove(spool)


def _spool(path: str | None, copied: dict[str, str | None]) -> str | None:
    """``path``, or the name of a copy of it (of stdin when it is None) entered in ``copied``."""
    if path is not None and regular_file_size(path) is not None:
        return path
    try:
        source = open(path, "rb") if path is not None else contextlib.nullcontext(sys.stdin.buffer)
    except OSError:  # fails in its turn
        return path
    with source as handle, tempfile.NamedTemporaryFile(prefix="layoutforge-",
                                                        delete=False) as spool:
        copied[spool.name] = path
        shutil.copyfileobj(handle, spool)
    return spool.name


def read_pieces(sources: Iterable[Source],
                config: AlphabetConfig | None = None) -> Iterator[str]:
    """The corpus in its sources' order, as one letter-stream piece per block read.

    Each seam between pieces, of one source or of two, holds exactly one
    boundary, so the pieces joined are the stream of the whole corpus,
    while only one block is held at a time. The first block read teaches
    a ``NfcCheck``, which lives as long as this call's pieces, which later
    blocks are already NFC; the corpus's bytes are its budget.
    """
    sources = list(sources)
    is_nfc = NfcCheck(sum(map(_source_bytes, sources)))
    return _joined(piece for source in sources
                   for piece in _source_texts(source, config, is_nfc))


def read_corpus(paths: Iterable[str | Path], config: AlphabetConfig | None = None) -> str:
    """The whole corpus as one stream: the files' pieces joined in the given order."""
    return "".join(read_pieces(paths, config))
