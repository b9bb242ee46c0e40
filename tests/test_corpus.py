"""Text ingestion: decoding, normalization, tokenization, concatenation."""

import random
import unicodedata

import pytest

from layoutforge.corpus import (AlphabetConfig, concat_streams,
                                format_codepoint, normalize_text, parse_codepoint,
                                read_corpus, reconstruct_text, tokenize)
from layoutforge.errors import ConfigError, InvalidEncoding


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
    assert stream.text == ""
    assert stream.letter_count == 0


def test_tokenize_boundary_collapse():
    stream = tokenize("ক খ")
    assert stream.text == "ক খ"
    assert stream.letter_count == 2


def test_tokenize_run_of_nonletters_is_one_boundary():
    stream = tokenize("ক ,;\t খ")
    assert stream.text == "ক খ"


def test_tokenize_excluded_digits_are_boundaries():
    # Bangla digits are excluded by default; ASCII digits are simply
    # outside the alphabet. Both act as boundaries.
    assert tokenize("ক১২খ").text == "ক খ"
    assert tokenize("ক12খ").text == "ক খ"


def test_tokenize_keeps_edge_boundaries_single():
    stream = tokenize("  ক  ")
    assert stream.text == " ক "
    assert stream.letter_count == 1


def test_virama_is_a_letter_by_default():
    stream = tokenize("ক্ত")  # conjunct spelled out
    assert stream.letter_count == 3
    assert stream.sep not in stream.text


def test_danda_is_a_boundary_by_default():
    stream = tokenize("ক।খ")  # danda is outside the block
    assert stream.text == "ক খ"


def test_letter_count_matches_brute_scan():
    rng = random.Random(7)
    config = AlphabetConfig()
    alphabet = sorted(config.resolve())
    pool = alphabet[:20] + list(" .,!12\n\t") + ["১"]
    for _ in range(50):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 300)))
        stream = tokenize(text, config)
        expected = sum(1 for ch in text if ch in config.resolve())
        assert stream.letter_count == expected
        assert stream.letter_count == sum(1 for ch in stream.text if ch != stream.sep)


def test_no_consecutive_boundaries_property():
    rng = random.Random(11)
    pool = ["ক", "খ", " ", ",", "1"]
    for _ in range(100):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 60)))
        stream = tokenize(text)
        assert stream.sep * 2 not in stream.text


def test_concatenation_letter_counts_add():
    a, b = "কাক", "খি"
    joined = tokenize(a + " " + b)
    assert joined.letter_count == tokenize(a).letter_count + tokenize(b).letter_count


def test_concat_streams_inserts_seam_boundary():
    a = tokenize("কা")
    b = tokenize("খ")
    merged = concat_streams([a, b])
    assert merged.text == "কা খ"
    assert merged.letter_count == 3
    assert merged.source_bytes == a.source_bytes + b.source_bytes


def test_concat_streams_collapses_edge_boundaries():
    a = tokenize("ক ")
    b = tokenize(" খ")
    merged = concat_streams([a, b])
    assert merged.text == "ক খ"
    # A part without letters is one boundary, shared with its neighbours.
    assert concat_streams([a, tokenize("."), b]).text == "ক খ"
    assert concat_streams([tokenize("."), tokenize(".")]).text == " "


def test_concat_skips_empty_parts():
    a = tokenize("ক")
    merged = concat_streams([a, tokenize(""), tokenize("খ")])
    assert merged.text == "ক খ"


def test_concat_refuses_streams_with_different_separators():
    spaced = AlphabetConfig(ranges=((ord("a"), ord("z")),), exclude=frozenset())
    unspaced = AlphabetConfig(ranges=((ord("a"), ord("z")),), include=frozenset(" "),
                              exclude=frozenset())
    a, b = tokenize("ab cd", spaced), tokenize("ef.gh", unspaced)
    assert a.sep != b.sep
    with pytest.raises(ValueError, match="different separators"):
        concat_streams([a, b])


def test_round_trip_stability():
    rng = random.Random(3)
    alphabet = sorted(AlphabetConfig().resolve())[:15]
    pool = alphabet + [" ", ".", "\n"]
    for _ in range(50):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 120)))
        once = tokenize(normalize_text(text.encode("utf-8")))
        twice = tokenize(reconstruct_text(once))
        assert (twice.text, twice.sep) == (once.text, once.sep)
        assert twice.letter_count == once.letter_count


def test_read_corpus_joins_files_with_boundary(tmp_path):
    p1 = tmp_path / "one.txt"
    p2 = tmp_path / "two.txt"
    p1.write_text("কা", encoding="utf-8")
    p2.write_text("খ", encoding="utf-8")
    stream = read_corpus([p1, p2], AlphabetConfig())
    assert stream.text == "কা খ"


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
    assert (first.text, first.sep) == (second.text, second.sep)
    assert first.source_bytes == second.source_bytes
