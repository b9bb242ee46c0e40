"""N-gram counting and the support/confidence arithmetic of side scores.

The randomized suites check count_ngrams against ``oracle.count``, which
splits the raw token list into letter runs and slides a window over each,
without the block machinery the implementation uses.
"""

import io
import json
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutforge import corpus, stats
from layoutforge.corpus import BOUNDARY, tokenize
from layoutforge.errors import EmptyCorpus
from layoutforge.stats import (NGramTable, count_ngrams, involvement_totals, ranked_monograms,
                               read_ngram_tsv, side_scores, write_ngram_tsv)
from conftest import (FOCUS, FILLER_DIGRAPH, INVOLVEMENT_K, K_LEFT_SCORE, K_RIGHT_SCORE,
                      TABLE1_ROWS, TABLE2_ROWS, letter_count, make_stream, random_tokens)
import oracle


# ---------------------------------------------------------------------------
# Published-table fixtures.

def pair_score(digraphs, gram):
    """The side score of the focus letter against the one other letter of ``gram``.

    The reversed digraph is absent from the published rows, so this is
    the gram's own support and confidence.
    """
    partner = gram.replace(FOCUS, "", 1)
    return side_scores(FOCUS, [partner], digraphs, involvement_totals(digraphs))


def test_published_supports(paper_digraphs):
    for gram, _count, expected_support, _conf in TABLE2_ROWS:
        assert pair_score(paper_digraphs, gram).cumulative_support == pytest.approx(
            expected_support, abs=1e-5)


def test_published_confidences(paper_digraphs):
    for gram, _count, _sup, expected_conf in TABLE2_ROWS:
        assert pair_score(paper_digraphs, gram).cumulative_confidence == pytest.approx(
            expected_conf, abs=1e-4)


def test_involvement_of_focus_letter(paper_digraphs, paper_digraphs_bare):
    assert involvement_totals(paper_digraphs_bare).get(FOCUS, 0) == 27990
    assert involvement_totals(paper_digraphs).get(FOCUS, 0) == INVOLVEMENT_K
    assert involvement_totals(paper_digraphs).get("ভ", 0) == 0  # unseen letter


def test_published_monogram_ranking(paper_mono):
    ranking = ranked_monograms(paper_mono)
    assert ranking[0][0] == "া"
    assert ranking[0][1] == 74300
    assert ranking[0][2] == pytest.approx(9.039875, abs=1e-5)
    for (letter, count, pct), (exp_letter, exp_count, exp_pct) in zip(ranking, TABLE1_ROWS):
        assert (letter, count) == (exp_letter, exp_count)
        assert pct == pytest.approx(exp_pct, abs=1e-5)


def test_side_scores_match_worked_example(paper_mono, paper_digraphs):
    left = side_scores(FOCUS, ["ে", "র"], paper_digraphs, involvement_totals(paper_digraphs))
    right = side_scores(FOCUS, ["া", "ি"], paper_digraphs, involvement_totals(paper_digraphs))
    assert left.cumulative_support == pytest.approx(K_LEFT_SCORE[0], abs=1e-5)
    assert left.cumulative_confidence == pytest.approx(K_LEFT_SCORE[1], abs=1e-5)
    assert right.cumulative_support == pytest.approx(K_RIGHT_SCORE[0], abs=1e-5)
    assert right.cumulative_confidence == pytest.approx(K_RIGHT_SCORE[1], abs=1e-5)


def test_filler_digraph_does_not_touch_seed_hands(paper_mono, paper_digraphs,
                                                  paper_digraphs_bare):
    # the involvement filler pairs the focus letter with a letter on
    # neither seed hand, so it must change confidence denominators only
    for side in (["ে", "র"], ["া", "ি"]):
        with_filler = side_scores(FOCUS, side, paper_digraphs, involvement_totals(paper_digraphs))
        bare = side_scores(FOCUS, side, paper_digraphs_bare,
                           involvement_totals(paper_digraphs_bare))
        assert with_filler.cumulative_support == bare.cumulative_support
    assert FILLER_DIGRAPH[0][1] not in {"ে", "র", "া", "ি"}


# ---------------------------------------------------------------------------
# count_ngrams basics and the window-scanner oracle.

def test_count_monograms_simple():
    table = count_ngrams([tokenize("ককক")], 1)
    assert dict(table.counts) == {"ক": 3}
    assert table.total_letters == 3


def test_count_digraphs_simple():
    table = count_ngrams([tokenize("ককক")], 2)
    assert dict(table.counts) == {"কক": 2}


def test_boundary_blocks_digraph():
    table = count_ngrams([tokenize("ক খ")], 2)
    assert dict(table.counts) == {}


def test_span_boundaries_flag():
    table = count_ngrams([tokenize("ক খ")], 2, span_boundaries=True)
    assert dict(table.counts) == {"কখ": 1}


def test_rejects_unsupported_n():
    stream = tokenize("ক")
    for n in (0, 4, -1):
        with pytest.raises(ValueError):
            count_ngrams([stream], n)


def test_counts_match_window_scanner():
    rng = random.Random(2024)
    alphabet = [chr(c) for c in range(ord("a"), ord("a") + 12)]
    for _ in range(200):
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 1000))
        stream = make_stream(tokens)
        expected = oracle.count(oracle.letter_runs(tokens))
        for n in (1, 2, 3):
            table = count_ngrams([stream], n)
            assert table.counts == expected[n - 1]
            assert table.total_letters == letter_count(stream)


def test_monogram_sum_equals_total_and_digraph_bound():
    rng = random.Random(5)
    alphabet = list("abcdefgh")
    for _ in range(50):
        tokens = random_tokens(rng, alphabet, rng.randrange(1, 400))
        stream = make_stream(tokens)
        mono = count_ngrams([stream], 1)
        assert sum(mono.counts.values()) == letter_count(stream)
        words = len([word for word in stream.split(BOUNDARY) if word])
        dig = count_ngrams([stream], 2)
        assert sum(dig.counts.values()) <= letter_count(stream) - words


# ---------------------------------------------------------------------------
# support / confidence semantics.

def test_support_of_absent_gram_is_zero(paper_digraphs):
    assert pair_score(paper_digraphs, FOCUS + "খ").cumulative_support == 0.0


def test_support_of_single_letter_corpus():
    table = count_ngrams([tokenize("ক")], 1)
    assert ranked_monograms(table) == [("ক", 1, 100.0)]


def test_support_requires_letters():
    empty = NGramTable(n=2, counts=Counter(), total_letters=0)
    with pytest.raises(EmptyCorpus):
        side_scores("ক", ["খ"], empty, {})


def test_confidence_of_absent_digraph_is_zero(paper_digraphs):
    assert side_scores(FOCUS, ["ঙ"], paper_digraphs,
                       involvement_totals(paper_digraphs)).cumulative_confidence == 0.0


def test_support_totals_100():
    rng = random.Random(13)
    alphabet = list("abcde")
    for _ in range(30):
        tokens = random_tokens(rng, alphabet, rng.randrange(1, 500))
        mono = count_ngrams([make_stream(tokens)], 1)
        total = sum(pct for _letter, _count, pct in ranked_monograms(mono))
        assert total == pytest.approx(100.0, abs=1e-9)


def test_per_letter_confidence_totals_100():
    rng = random.Random(17)
    alphabet = list("abcdef")
    for _ in range(30):
        tokens = random_tokens(rng, alphabet, rng.randrange(2, 400))
        dig = count_ngrams([make_stream(tokens)], 2)
        involvement = involvement_totals(dig)
        for letter in involvement:
            # every partner, the letter itself included: its doubled digraph counts once
            total = sum(side_scores(letter, [partner], dig, involvement).cumulative_confidence
                        for partner in involvement)
            assert total == pytest.approx(100.0, abs=1e-9)


def test_involvement_bounded_by_twice_monogram_count():
    rng = random.Random(19)
    alphabet = list("abcd")
    for _ in range(50):
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 300))
        stream = make_stream(tokens)
        mono = count_ngrams([stream], 1)
        dig = count_ngrams([stream], 2)
        for letter in alphabet:
            assert involvement_totals(dig).get(letter, 0) <= 2 * mono.counts.get(letter, 0)


def test_statistics_invariant_under_file_order():
    pieces = ["কাক", "খি", "কগক"]
    rng = random.Random(23)
    reference = None
    for _ in range(6):
        rng.shuffle(pieces)
        stream = tokenize(" ".join(pieces))
        tables = tuple(count_ngrams([stream], n).counts for n in (1, 2, 3))
        if reference is None:
            reference = tables
        assert tables == reference


# ---------------------------------------------------------------------------
# side_scores edge cases.

def test_side_scores_empty_side(paper_mono, paper_digraphs):
    score = side_scores(FOCUS, [], paper_digraphs, involvement_totals(paper_digraphs))
    assert (score.cumulative_support, score.cumulative_confidence) == (0.0, 0.0)


def test_side_scores_count_both_orientations():
    counts = Counter({"ab": 3, "ba": 2, "ac": 5})
    dig = NGramTable(n=2, counts=counts, total_letters=100)
    mono = NGramTable(n=1, counts=Counter({"a": 10, "b": 5, "c": 5}), total_letters=100)
    score = side_scores("a", ["b"], dig, involvement_totals(dig))
    assert score.cumulative_support == pytest.approx(5.0)          # (3+2)/100
    assert score.cumulative_confidence == pytest.approx(50.0)      # (3+2)/10


def test_side_scores_without_involvement_are_zero_confidence():
    dig = NGramTable(n=2, counts=Counter({"bc": 4}), total_letters=50)
    mono = NGramTable(n=1, counts=Counter({"a": 1, "b": 4, "c": 4}), total_letters=50)
    score = side_scores("a", ["b", "c"], dig, involvement_totals(dig))
    assert score.cumulative_support == 0.0
    assert score.cumulative_confidence == 0.0


def test_ranked_monograms_tiebreak_and_errors():
    table = NGramTable(n=1, counts=Counter({"খ": 2, "ক": 2}), total_letters=4)
    ranking = ranked_monograms(table)
    assert [r[0] for r in ranking] == ["ক", "খ"]
    with pytest.raises(EmptyCorpus):
        ranked_monograms(NGramTable(n=1, counts=Counter(), total_letters=0))


def test_single_letter_ranking_is_total():
    table = NGramTable(n=1, counts=Counter({"ক": 9}), total_letters=9)
    assert ranked_monograms(table) == [("ক", 9, 100.0)]


# ---------------------------------------------------------------------------
# TSV round-trips.

def test_ngram_tsv_round_trip(tmp_path):
    stream = tokenize("কাক খি")
    for n in (1, 2):
        table = count_ngrams([stream], n)
        path = tmp_path / f"t{n}.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            write_ngram_tsv(table, handle, config_echo={"coverage": 1})
        back = read_ngram_tsv(path)
        assert back.n == table.n
        assert back.counts == table.counts
        assert back.total_letters == table.total_letters


def test_ngram_tsv_shape():
    table = count_ngrams([tokenize("ককক")], 1)
    out = io.StringIO()
    write_ngram_tsv(table, out, config_echo={"coverage": 1})
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert lines[3] == '# config\t{"coverage": 1}'
    assert "gram\tcount\tpercentage" in lines
    assert lines[-1] == "ক\t3\t100.000000"


def row_by_row_writer(table, config_echo=None):
    """The writer before it formatted each count once, restated: the text it wrote."""
    out = io.StringIO()
    out.write("# layoutforge ngram table\n")
    out.write(f"# n\t{table.n}\n")
    out.write(f"# total_letters\t{table.total_letters}\n")
    if config_echo is not None:
        out.write(f"# config\t{json.dumps(config_echo, sort_keys=True, ensure_ascii=False)}\n")
    out.write("gram\tcount\tpercentage\n")
    for gram, count in sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0])):
        pct = 100.0 * count / table.total_letters if table.total_letters else 0.0
        out.write(f"{gram}\t{count}\t{pct:.6f}\n")
    return out.getvalue()


# Letters that str.splitlines breaks at, and two that it does not.
LINE_BREAKING = "\x0b\x1c\x85\u2028a\u0995"


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 3), data=st.data(), extra=st.integers(0, 50), empty=st.booleans(),
       block=st.sampled_from([1, 6, 40, corpus._READ_BLOCK]), rows=st.integers(1, 5))
def test_ngram_tsv_writes_as_row_by_row_and_reads_back(tmp_path, monkeypatch, n, data, extra,
                                                         empty, block, rows):
    """Many tied counts, grams of letters that end a line for splitlines, any block size.

    The bytes are those of the row-by-row writer, a total of 0 included,
    and the table reads back with its rows in the order written.
    """
    grams = st.text(st.sampled_from(LINE_BREAKING), min_size=n, max_size=n)
    counts = Counter(data.draw(st.dictionaries(grams, st.integers(1, 3), max_size=60)))
    table = NGramTable(n=n, counts=counts, total_letters=0 if empty else counts.total() + extra)
    monkeypatch.setattr(stats, "_ROWS_WRITTEN", rows)
    out = io.StringIO()
    write_ngram_tsv(table, out, config_echo={"coverage": 1})
    assert out.getvalue() == row_by_row_writer(table, {"coverage": 1})
    if table.total_letters < counts.total():
        return
    path = tmp_path / "table.tsv"
    path.write_bytes(out.getvalue().encode("utf-8"))
    monkeypatch.setattr(corpus, "_READ_BLOCK", block)
    back = read_ngram_tsv(path)
    assert (back.n, back.total_letters, back.counts) == (n, table.total_letters, counts)
    assert list(back.counts) == [gram for gram, _count in stats.frequency_order(counts)]
