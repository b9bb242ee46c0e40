"""A block that is NFC already is given back as decoded, and only such a block.

``NfcCheck`` learns from the first block a ``read_pieces`` call reads
which characters and pairs NFC could change, and tells a later block NFC
as it stands when none of them occurs. Its test rests on one fact of the
Unicode tables: the second character of every primary composite is a
mark, a non-starter or a Hangul vowel or trailing jamo
(``_joins_previous``), which a scan of every code point checks here. A
check must never pass a text that NFC changes, over every short string of
characters that compose, reorder or decompose, and over texts drawn past
what it learned; and a corpus whose later blocks are typed decomposed
counts as its NFC text does, in parts, in one part and from stdin.
"""

import io
import itertools
import os
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutforge import cli, corpus, parts
from layoutforge.cli import main
from layoutforge.corpus import NfcCheck, _joins_previous, normalize_text, read_pieces
from conftest import SAMPLE, read_all_bytes


def primary_composites():
    """Each primary composite of this interpreter's Unicode, as (composite, first, second).

    ``tools/check_interpreters.py`` runs this function's source under each
    interpreter it checks.
    """
    for cp in range(0x110000):
        ch = chr(cp)
        if 0xAC00 <= cp <= 0xD7A3:  # a Hangul syllable
            trail = (cp - 0xAC00) % 28
            if trail:  # LV + T
                yield ch, chr(cp - trail), chr(0x11A7 + trail)
            else:  # L + V
                index = (cp - 0xAC00) // 28
                yield ch, chr(0x1100 + index // 21), chr(0x1161 + index % 21)
            continue
        fields = unicodedata.decomposition(ch).split()
        if len(fields) == 2 and not fields[0].startswith("<"):
            first, second = (chr(int(field, 16)) for field in fields)
            if unicodedata.normalize("NFC", first + second) == ch:
                yield ch, first, second


def test_the_second_character_of_every_primary_composite_joins_the_one_before():
    composites = list(primary_composites())
    assert len(composites) > 900 + 11172  # 11,172 Hangul syllables
    assert ("\u09cb", "\u09c7", "\u09be") in composites  # ো, ে + া
    assert [composite for composite, _, second in composites
            if not _joins_previous(second)] == []


# Characters that compose, reorder or decompose: Latin letters with marks of
# classes 230, 220 and 202 and a precomposed é; Hangul L, V and T jamo and
# an LV syllable; Bangla vowel signs that compose (ে া ৗ into ো ৌ), the
# nukta and the virama, ড and ড় (U+09DC, which NFC decomposes); Tibetan
# vowel signs, U+0F73 among them, which NFC decomposes into two
# non-starters; U+0344, U+0958 and U+F900, which NFC changes alone; か
# and the voiced mark it composes with; and LF.
POOL = ("a\u0301\u0323\u0328\u00e9"
        "\u1100\u1161\u11a8\uac00"
        "\u09c7\u09be\u09d7\u09cb\u09cc\u09bc\u09cd\u09a1\u09dc"
        "\u0f71\u0f72\u0f73\u0f80"
        "\u0344\u0958\uf900"
        "\u304b\u3099\n")


def learned(text, budget=10**6):
    check = NfcCheck(budget)
    assert check(text) is False  # learning answers no
    return check


def test_a_check_passes_no_short_string_that_nfc_changes():
    check = learned(POOL)
    texts = ["".join(chars) for length in range(4) for chars in itertools.product(POOL, repeat=length)]
    passed = [text for text in texts if check(text)]
    assert [text for text in passed if unicodedata.normalize("NFC", text) != text] == []
    assert len(passed) * 4 > len(texts)  # the check is no blanket no


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(first=st.text(st.sampled_from(POOL), min_size=1, max_size=40),
       later=st.lists(st.text(st.sampled_from(POOL), max_size=30), max_size=6))
def test_a_check_learned_from_some_characters_normalizes_any_text(first, later):
    check = learned(first)
    for text in later:
        assert normalize_text(text.encode("utf-8"), check) == unicodedata.normalize("NFC", text)


def test_nothing_is_learned_past_the_budget():
    """Learning from a, e and U+0301 normalizes the 3 × 1 pairs of K × S, 3 characters each."""
    assert learned("ae\u0301", budget=9)("ae") is True
    assert learned("ae\u0301", budget=8)("ae") is False
    assert learned("\u0958")("\u0958") is False  # no character that NFC keeps


def test_a_read_that_starts_with_ascii_normalizes_the_bangla_after_it(tmp_path, monkeypatch):
    path = tmp_path / "mixed.txt"
    path.write_bytes("plain ascii\n\u0995\u09c7\u09be \u0995\u09cb\n".encode("utf-8"))
    monkeypatch.setattr(corpus, "_READ_BLOCK", 4)
    assert "".join(read_pieces([path])) == "\n\u0995\u09cb\n\u0995\u09cb\n"


# A corpus whose first 16 KiB are NFC and whose later blocks are typed
# decomposed: the sample, its first file behind ড় as NFC leaves it (ড and
# the nukta), so that the nukta, the virama and ে া are all characters its
# first block teaches; then its other files retyped, with ো as ে + া, the
# virama before the nukta, which NFC puts after it, and ড় precomposed
# (U+09DC), which NFC decomposes. ``tools/check_interpreters.py`` reads
# these literals.
FIRST_WORDS = "\u09ac\u09a1\u09bc "
RETYPED = [("\u09cb", "\u09c7\u09be", -1), ("\u0995", "\u0995\u09cd\u09bc", 40),
           ("\u09a1", "\u09dc", 40)]


def decomposed_corpus():
    texts = [path.read_text(encoding="utf-8") for path in SAMPLE]
    later = "".join(texts[1:])
    for old, new, count in RETYPED:
        later = later.replace(old, new, count)
    assert len((FIRST_WORDS + texts[0]).encode("utf-8")) > corpus._READ_BLOCK
    return FIRST_WORDS + texts[0] + later


@pytest.mark.skipif(not hasattr(os, "fork"), reason="parts are counted in forks")
@pytest.mark.parametrize("cpus", [1, 3])
def test_a_decomposed_corpus_counts_as_its_nfc_text(tmp_path, monkeypatch, cpus):
    text = decomposed_corpus()
    assert unicodedata.normalize("NFC", text) != text
    typed, nfc = tmp_path / "typed.txt", tmp_path / "nfc.txt"
    typed.write_text(text, encoding="utf-8")
    nfc.write_text(unicodedata.normalize("NFC", text), encoding="utf-8")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(parts, "_MIN_PART", 4096)
    counted = []
    byte_parts = cli.byte_parts

    def spied(sources):
        counted.append(byte_parts(sources))
        return counted[-1]

    monkeypatch.setattr(cli, "byte_parts", spied)
    assert main(["stats", str(nfc), "--out", str(tmp_path / "nfc")]) == 0
    assert main(["stats", str(typed), "--out", str(tmp_path / "typed")]) == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(typed.read_bytes())))
    assert main(["stats", "--out", str(tmp_path / "stdin")]) == 0
    assert [len(parts) for parts in counted] == [cpus] * 3
    assert read_all_bytes(tmp_path / "typed") == read_all_bytes(tmp_path / "nfc")
    assert read_all_bytes(tmp_path / "stdin") == read_all_bytes(tmp_path / "nfc")
