"""Text ingestion: decoding, normalization, tokenization, concatenation."""

import random
import re
import string
import unicodedata
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from layoutforge.corpus import (BOUNDARY, AlphabetConfig, _class_items, concat_streams,
                                format_codepoint, normalize_text, parse_codepoint,
                                read_corpus, tokenize)
from layoutforge.errors import ConfigError, InvalidEncoding
from conftest import letter_config, letter_count, write_files


def test_normalize_empty():
    assert normalize_text(b"") == ""


def test_normalize_ascii_stable():
    assert normalize_text(b"abc") == "abc"


def test_normalize_composes_matra():
    # U+09C7 followed by U+09BE composes to the single vowel sign U+09CB
    raw = "কো".encode("utf-8")
    assert normalize_text(raw) == "কো"
    # cross-check against the normalization reference
    assert unicodedata.normalize("NFC", "ো") == "ো"


def test_invalid_utf8_reports_offset():
    with pytest.raises(InvalidEncoding) as info:
        normalize_text(b"\xff\xfe")
    assert info.value.position == 0
    with pytest.raises(InvalidEncoding) as info:
        normalize_text(b"abc\xff")
    assert info.value.position == 3
    assert "byte offset 3" in str(info.value)


def test_tokenize_empty():
    stream = tokenize("")
    assert stream == ""
    assert letter_count(stream) == 0


def test_tokenize_boundary_collapse():
    stream = tokenize("ক খ")
    assert stream == "ক" + BOUNDARY + "খ"
    assert letter_count(stream) == 2


def test_tokenize_run_of_nonletters_is_one_boundary():
    stream = tokenize("ক ,;\t খ")
    assert stream == "ক" + BOUNDARY + "খ"


def test_tokenize_excluded_digits_are_boundaries():
    # Bangla digits are excluded by default; ASCII digits are simply
    # outside the alphabet. Both act as boundaries.
    assert tokenize("ক১২খ") == "ক" + BOUNDARY + "খ"
    assert tokenize("ক12খ") == "ক" + BOUNDARY + "খ"


def test_tokenize_keeps_edge_boundaries_single():
    stream = tokenize("  ক  ")
    assert stream == BOUNDARY + "ক" + BOUNDARY
    assert letter_count(stream) == 1


def test_virama_is_a_letter_by_default():
    stream = tokenize("ক্ত")  # conjunct spelled out
    assert letter_count(stream) == 3
    assert BOUNDARY not in stream


def test_danda_is_a_boundary_by_default():
    stream = tokenize("ক।খ")  # danda is outside the block
    assert stream == "ক" + BOUNDARY + "খ"


def test_letter_count_matches_brute_scan():
    rng = random.Random(7)
    config = AlphabetConfig()
    alphabet = sorted(config.resolve())
    pool = alphabet[:20] + list(" .,!12\n\t") + ["১"]
    for _ in range(50):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 300)))
        stream = tokenize(text, config)
        expected = sum(1 for ch in text if ch in config.resolve())
        assert letter_count(stream) == expected
        assert letter_count(stream) == sum(1 for ch in stream if ch != BOUNDARY)


def test_no_consecutive_boundaries_property():
    rng = random.Random(11)
    pool = ["ক", "খ", " ", ",", "1"]
    for _ in range(100):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 60)))
        stream = tokenize(text)
        assert BOUNDARY * 2 not in stream


# Letters of the default alphabet, the danda and a digit it excludes, ASCII
# punctuation, spaces, tabs and LFs, the characters a regex class escapes
# and "&" and "_" beside them, and two astral characters, alone and in runs.
TOKEN_POOL = "\u0995\u09be\u09cd\u0964\u09e7a. \t\n-]^\\[&_\U0001F600\U0001F601"


def one_boundary_per_run(text: str, letters) -> str:
    """``text`` walked a character at a time: each letter is kept, and any other character
    adds a ``BOUNDARY`` unless the output already ends in one."""
    out = []
    for ch in text:
        if ch in letters:
            out.append(ch)
        elif not out or out[-1] != BOUNDARY:
            out.append(BOUNDARY)
    return "".join(out)


# Latin words, spaces, punctuation and line ends with a Bangla letter now
# and then: text that is mostly non-letters under the default alphabet.
MOSTLY_OTHER = ["word", "a", "Bc", " ", " ", "  ", ". ", ",", "\n", " \n", "\t", "\u0995"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.text(st.sampled_from(TOKEN_POOL), max_size=40)
       | st.lists(st.sampled_from(MOSTLY_OTHER), max_size=30).map("".join),
       config=st.sampled_from([AlphabetConfig(), letter_config("a \u0995"), letter_config(""),
                               letter_config("-]^\\[&"), letter_config("a\U0001F600"),
                               letter_config(string.ascii_letters + " "),
                               letter_config(string.ascii_lowercase)]))
def test_tokenize_replaces_each_run_of_nonletters_as_one_pattern_does(text, config):
    """One LF a run of non-letters, as one pattern over the run gives, under every alphabet:
    the space a letter or not, no letter at all, regex specials, an astral letter or ASCII
    letters, and in text that is mostly non-letters."""
    assert tokenize(text, config) == one_boundary_per_run(text, config.resolve())


# Groups of characters a class is drawn from: the characters special in a
# regex or in a class, LF, Bangla letters, a run of CJK, CJK points 97
# apart and a run of astral emoji.
CLASS_GROUPS = ["\\][^-&|~.*+?(){}$#", "\n",
                "".join(map(chr, range(0x0995, 0x09A0))),
                "".join(map(chr, range(0x4E00, 0x4E10))),
                "".join(chr(0x4E20 + 97 * k) for k in range(40)),
                "".join(map(chr, range(0x1F600, 0x1F608)))]
CLASS_POOL = "".join(CLASS_GROUPS)
# Every character of the pool and the code points on either side of each.
CLASS_PROBE = "".join(sorted({chr(ord(ch) + step) for ch in CLASS_POOL for step in (-1, 0, 1)}))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(groups=st.sets(st.sampled_from(CLASS_GROUPS)), picks=st.sets(st.sampled_from(CLASS_POOL)))
def test_a_class_of_the_items_matches_exactly_its_characters(groups, picks):
    chars = set("".join(groups)) | picks
    assume(chars)
    items = _class_items(chars)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        inside, outside = re.compile(f"[{items}]"), re.compile(f"[^{items}]")
    assert inside.findall(CLASS_PROBE) == [ch for ch in CLASS_PROBE if ch in chars]
    assert outside.findall(CLASS_PROBE) == [ch for ch in CLASS_PROBE if ch not in chars]


def test_concatenation_letter_counts_add():
    a, b = "কাক", "খি"
    joined = tokenize(a + " " + b)
    assert letter_count(joined) == letter_count(tokenize(a)) + letter_count(tokenize(b))


def test_concat_streams_inserts_seam_boundary():
    a = tokenize("কা")
    b = tokenize("খ")
    merged = concat_streams([a, b])
    assert merged == "কা" + BOUNDARY + "খ"
    assert letter_count(merged) == 3


def test_concat_streams_collapses_edge_boundaries():
    a = tokenize("ক ")
    b = tokenize(" খ")
    merged = concat_streams([a, b])
    assert merged == "ক" + BOUNDARY + "খ"
    # A part without letters is one boundary, shared with its neighbours.
    assert concat_streams([a, tokenize("."), b]) == "ক" + BOUNDARY + "খ"
    assert concat_streams([tokenize("."), tokenize(".")]) == BOUNDARY


def test_concat_skips_empty_parts():
    a = tokenize("ক")
    merged = concat_streams([a, tokenize(""), tokenize("খ")])
    assert merged == "ক" + BOUNDARY + "খ"


def test_round_trip_stability():
    rng = random.Random(3)
    alphabet = sorted(AlphabetConfig().resolve())[:15]
    pool = alphabet + [" ", ".", "\n"]
    for _ in range(50):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 120)))
        once = tokenize(normalize_text(text.encode("utf-8")))
        twice = tokenize(once)
        assert twice == once
        assert letter_count(twice) == letter_count(once)


def test_read_corpus_joins_files_with_boundary(tmp_path):
    p1 = tmp_path / "one.txt"
    p2 = tmp_path / "two.txt"
    p1.write_text("কা", encoding="utf-8")
    p2.write_text("খ", encoding="utf-8")
    stream = read_corpus([p1, p2], AlphabetConfig())
    assert stream == "কা" + BOUNDARY + "খ"


# An astral letter, the space as a letter, and a vowel sign that NFC
# composes from the two after it; the rest are never letters.
LETTER_POOL = "a \U0001F600\u09cb\u09c7\u09be"
TEXT_POOL = LETTER_POOL + ".\t\n-"


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(letters=st.sets(st.sampled_from(LETTER_POOL)),
       texts=st.lists(st.text(TEXT_POOL, max_size=12), min_size=1, max_size=4))
def test_read_corpus_is_the_texts_joined_by_one_boundary(tmp_path_factory, letters, texts):
    config = letter_config(letters)
    paths = write_files(tmp_path_factory.mktemp("corpus"), texts)
    stream = read_corpus(paths, config)
    nfc = [unicodedata.normalize("NFC", text) for text in texts]
    assert stream == tokenize(BOUNDARY.join(text for text in nfc if text), config)
    assert tokenize(stream, config) == stream


def test_codepoint_parsing():
    assert parse_codepoint("U+0995") == "ক"
    assert parse_codepoint("ক") == "ক"
    assert format_codepoint("ক") == "U+0995"
    with pytest.raises(ConfigError):
        parse_codepoint("0995")
    with pytest.raises(ConfigError):
        parse_codepoint("U+ZZZZ")


def test_alphabet_config_from_dict_and_back():
    doc = {"ranges": [["U+0980", "U+09FF"]], "include": ["U+0964"],
           "exclude": ["U+09E6"]}
    config = AlphabetConfig.from_dict(doc)
    letters = config.resolve()
    assert "।" in letters
    assert "০" not in letters
    assert "ক" in letters
    rebuilt = AlphabetConfig.from_dict(config.to_dict())
    assert rebuilt == config


def test_alphabet_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        AlphabetConfig.from_dict({"ranges": [], "letters": ["U+0995"]})


def test_alphabet_config_rejects_include_exclude_overlap():
    with pytest.raises(ConfigError):
        AlphabetConfig(include=frozenset("ক"), exclude=frozenset("ক"))


def test_alphabet_config_rejects_inverted_range():
    with pytest.raises(ConfigError):
        AlphabetConfig(ranges=((0x09FF, 0x0980),))


def test_alphabet_config_load(tmp_path):
    path = tmp_path / "alpha.json"
    path.write_text('{"ranges": [["U+0061", "U+007A"]], "exclude": []}',
                    encoding="utf-8")
    config = AlphabetConfig.load(path)
    assert "a" in config.resolve()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        AlphabetConfig.load(bad)


def test_same_input_same_stream():
    text = "কা খিক"
    first = tokenize(text)
    second = tokenize(text)
    assert first == second
