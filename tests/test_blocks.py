"""Reading a corpus in blocks gives what reading each file whole gives.

The whole-file path decodes and normalizes each file at once, tokenizes
it, and joins the streams with ``concat_streams``. The block path
(``read_pieces``) does the same to blocks that end right after an LF and
hands on one piece per block; counting carries the last two characters
across each seam, and the replay the last hand marker. With the read
and count blocks cut to a few bytes and windows, every seam lands inside
words, lines and composing pairs, unless the block ends where it must.
"""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutforge import cli, corpus, stats
from layoutforge.cli import main
from layoutforge.corpus import concat_streams, normalize_text, read_pieces, tokenize
from layoutforge.evaluator import evaluate
from layoutforge.stats import count_all
from conftest import (SAMPLE, last_error, layout_from_hands, letter_config, read_all_bytes,
                      write_files)

ROOT = Path(__file__).resolve().parent.parent

# Letters: an ASCII and an astral one, two vowel signs that NFC composes
# into a third (ে + া = ো), ড and the nukta, which NFC keeps apart and
# orders before a virama, and ড়, which NFC splits into ড + nukta.
LETTERS = "a\U0001F600\u09c7\u09be\u09cb\u09a1\u09bc\u09cd\u09dc"
UNITS = [*LETTERS, "\u09c7\u09be", "\u09a1\u09bc", "\u09a1\u09cd\u09bc", " ", ".", "\n",
         "\r\n", "\n\n"]
CONFIG = letter_config(LETTERS)
# ড is on no hand, so the replay must keep the hand across it.
LAYOUT = layout_from_hands("a\u09c7\u09bc", "\U0001F600\u09be\u09cb\u09cd", name="blocks")

corpus_files = st.lists(st.lists(st.sampled_from(UNITS), max_size=30).map("".join),
                        min_size=1, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(texts=corpus_files, read_block=st.integers(1, 7), count_block=st.integers(1, 7))
def test_blocks_give_what_whole_files_give(tmp_path_factory, monkeypatch, texts, read_block,
                                           count_block):
    paths = write_files(tmp_path_factory.mktemp("corpus"), texts)
    whole = concat_streams(tokenize(normalize_text(path.read_bytes()), CONFIG) for path in paths)
    tables = {span: count_all([whole], span_boundaries=span) for span in (False, True)}
    reports = {reset: evaluate(LAYOUT, [whole], reset_on_boundary=reset)
               for reset in (False, True)}
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "_READ_BLOCK", read_block)
        patch.setattr(stats, "_BLOCK", count_block)
        pieces = list(read_pieces(paths, CONFIG))
        assert "".join(pieces) == whole
        assert all(pieces)
        for span in (False, True):
            assert count_all(read_pieces(paths, CONFIG), span_boundaries=span) == tables[span]
        for reset in (False, True):
            assert evaluate(LAYOUT, read_pieces(paths, CONFIG),
                            reset_on_boundary=reset) == reports[reset]


@pytest.mark.parametrize("tail, offset", [(b"\xff\n", 0), ("ক".encode("utf-8")[:2] + b"\n", 0),
                                          ("কখ".encode("utf-8")[:5], 3)])
def test_bad_utf8_after_the_first_block_is_placed_from_the_file_start(tmp_path, capsys,
                                                                        monkeypatch, tail,
                                                                        offset):
    head = "কাক খ.\n".encode("utf-8") * (3 * corpus._READ_BLOCK // 10)
    assert len(head) > 2 * corpus._READ_BLOCK
    bad = tmp_path / "bad.txt"
    bad.write_bytes(head + tail)
    assert main(["stats", str(bad), "--out", str(tmp_path / "out")]) == 2
    error = last_error(capsys)
    assert error == {"error": "InvalidEncoding",
                     "message": f"{bad}: invalid UTF-8 at byte offset {len(head) + offset}"}
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(head + tail)))
    assert main(["stats", "--out", str(tmp_path / "out")]) == 2
    assert last_error(capsys)["message"] == f"invalid UTF-8 at byte offset {len(head) + offset}"
    assert not (tmp_path / "out").exists()


# run-all flags that call for a replay: a layout that leaves letters out,
# and resets scored against a spanning count.
REPLAYS = [["--coverage", "50"], ["--span-boundaries", "--reset-on-boundary"]]


@pytest.mark.parametrize("read_block", [corpus._READ_BLOCK, 1000])
def test_run_all_from_stdin_writes_what_the_files_give(tmp_path, capsys, monkeypatch,
                                                       read_block):
    monkeypatch.setattr(corpus, "_READ_BLOCK", read_block)
    for i, flags in enumerate(REPLAYS):
        named, piped = tmp_path / f"named{i}", tmp_path / f"piped{i}"
        assert main(["run-all", *map(str, SAMPLE), *flags, "--out", str(named)]) == 0
        named_stdout = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(
            b"".join(path.read_bytes() for path in SAMPLE))))
        assert main(["run-all", *flags, "--out", str(piped)]) == 0
        assert capsys.readouterr().out == named_stdout
        assert read_all_bytes(named) == read_all_bytes(piped)


class WholeReadRefused(io.BytesIO):
    """Bytes that can be read a block or a line at a time, but not whole."""

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("read whole")
        return super().read(size)


@pytest.mark.parametrize("command", [["stats"], ["partition", "--coverage", "50"], ["run-all"],
                                     ["run-all", "--reset-on-boundary"],
                                     ["run-all", "--span-boundaries"],
                                     ["run-all", "--coverage", "50"],
                                     ["run-all", "--span-boundaries", "--reset-on-boundary"]])
def test_a_single_read_streams_stdin(tmp_path, capsys, monkeypatch, command):
    """Every command reads stdin a block at a time, as it reads a file, replay or not."""
    monkeypatch.setattr(corpus, "_READ_BLOCK", 1000)
    assert main([*command, *map(str, SAMPLE), "--out", str(tmp_path / "named")]) == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(WholeReadRefused(
        b"".join(path.read_bytes() for path in SAMPLE))))
    named_stdout = capsys.readouterr().out
    assert main([*command, "--out", str(tmp_path / "piped")]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == named_stdout
    assert read_all_bytes(tmp_path / "piped") == read_all_bytes(tmp_path / "named")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_run_all_replays_a_named_pipe_from_what_it_read(tmp_path, capsys):
    """A pipe gives its bytes once: run-all replays the copy it made of them, as of stdin.

    Opened a second time, the pipe ``/dev/stdin`` names reads as empty. In
    a corpus of a regular file and the pipe, the pipe alone is copied.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for i, flags in enumerate(REPLAYS):
        named = tmp_path / f"named{i}"
        assert main(["run-all", *map(str, SAMPLE), *flags, "--out", str(named)]) == 0
        named_stdout = capsys.readouterr().out
        for j, files in enumerate([[], SAMPLE[:1]]):
            piped = tmp_path / f"piped{i}-{j}"
            text = b"".join(path.read_bytes() for path in SAMPLE[len(files):])
            done = subprocess.run([sys.executable, "-m", "layoutforge", "run-all",
                                   *map(str, files), "/dev/stdin", *flags, "--out", str(piped)],
                                  input=text, env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stdout.decode("utf-8") == named_stdout
            assert read_all_bytes(piped) == read_all_bytes(named)


def test_run_all_refuses_a_corpus_that_changed_before_its_replay(tmp_path, capsys, monkeypatch):
    path = tmp_path / "corpus.txt"
    path.write_bytes(SAMPLE[0].read_bytes())
    count_all = cli.count_all

    def count_then_change(*args, **kwargs):
        tables = count_all(*args, **kwargs)
        path.write_bytes(SAMPLE[1].read_bytes())
        return tables

    monkeypatch.setattr(cli, "count_all", count_then_change)
    assert main(["run-all", str(path), "--coverage", "50", "--out", str(tmp_path / "out")]) == 2
    error = last_error(capsys)
    assert error["error"] == "CorpusChanged"
    assert error["message"].startswith("the corpus changed while it was read: ")
    assert not (tmp_path / "out").exists()


def test_run_all_refuses_a_replay_whose_hand_loads_moved(tmp_path, capsys, monkeypatch):
    """Between count and replay, two letters on different hands swap: the letter total holds."""
    path = tmp_path / "corpus.txt"
    text = SAMPLE[0].read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    assert main(["run-all", str(path), "--coverage", "50", "--out", str(tmp_path / "first")]) == 0
    capsys.readouterr()
    hands = json.loads((tmp_path / "first" / "partition.json").read_text(encoding="utf-8"))
    # Consonants, which NFC neither composes nor splits, so the swap keeps every letter.
    left, right = (next(letter for letter in hands[hand] if letter in "কখগঘচজতদনপবমলসহ")
                   for hand in ("left", "right"))
    assert text.count(left) != text.count(right)
    count_all = cli.count_all

    def count_then_swap(*args, **kwargs):
        tables = count_all(*args, **kwargs)
        path.write_text(text.translate({ord(left): right, ord(right): left}), encoding="utf-8")
        return tables

    monkeypatch.setattr(cli, "count_all", count_then_swap)
    assert main(["run-all", str(path), "--coverage", "50", "--out", str(tmp_path / "out")]) == 2
    error = last_error(capsys)
    assert error["error"] == "CorpusChanged"
    summary = json.loads((tmp_path / "first" / "summary.json").read_text(encoding="utf-8"))
    total = summary["total_letters"]
    assert error["message"].startswith(f"the corpus changed while it was read: {total} letters"
                                       " were counted, ")
    assert f"and {total} replayed, " in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--coverage", "2"],
                                   ["--span-boundaries", "--reset-on-boundary"]],
                         ids=["no replay", "coverage", "span and reset"])
@pytest.mark.parametrize("second", ["missing.txt", "directory"])
def test_run_all_reports_the_first_bad_input_whatever_its_flags(tmp_path, capsys, flags,
                                                                second):
    """No input is read before its turn, so the first bad one is named, replay or not."""
    head = "কাক খ\n".encode("utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(head + b"\xff\n")
    (tmp_path / "directory").mkdir()
    out = tmp_path / "out"
    assert main(["run-all", str(bad), str(tmp_path / second), *flags, "--out", str(out)]) == 2
    assert last_error(capsys) == {"error": "InvalidEncoding",
                                  "message": f"{bad}: invalid UTF-8 at byte offset {len(head)}"}
    assert not out.exists()


def test_evaluate_reads_the_corpus_once_for_all_its_layouts(tmp_path, capsys, monkeypatch):
    run = tmp_path / "run"
    assert main(["run-all", *map(str, SAMPLE), "--coverage", "50", "--out", str(run)]) == 0
    other = json.loads((run / "layout.json").read_text(encoding="utf-8"))
    other["name"] = "other"
    (tmp_path / "other.json").write_text(json.dumps(other), encoding="utf-8")
    layouts = [str(run / "layout.json"), str(tmp_path / "other.json")]
    for layout in layouts:
        assert main(["evaluate", layout, "--corpus", *map(str, SAMPLE),
                     "--out", str(tmp_path / "alone")]) == 0
    reads = []
    read_pieces = cli.read_pieces

    def counted_read(*args):
        reads.append(args)
        return read_pieces(*args)

    monkeypatch.setattr(cli, "read_pieces", counted_read)
    assert main(["evaluate", *layouts, "--corpus", *map(str, SAMPLE),
                 "--out", str(tmp_path / "together")]) == 0
    assert len(reads) == 1
    assert read_all_bytes(tmp_path / "together") == read_all_bytes(tmp_path / "alone")


def counting_peak(paths) -> int:
    """Peak bytes Python allocates while counting the files' tables, the tables included."""
    tracemalloc.start()
    try:
        count_all(read_pieces(paths))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counting_memory_does_not_grow_with_the_corpus(tmp_path):
    eight = tmp_path / "eight"
    eight.mkdir()
    for path in SAMPLE:
        (eight / path.name).write_bytes(path.read_bytes() * 8)
    one_peak = counting_peak(SAMPLE)
    eight_peak = counting_peak(sorted(eight.iterdir()))
    assert eight_peak - one_peak < 1_000_000, (one_peak, eight_peak)


@pytest.mark.parametrize("start, stop", [(1, 2), (7, 20), (33, 64), (64, 100), (100, 130)])
def test_a_part_of_a_line_that_started_before_it_yields_nothing(monkeypatch, start, stop):
    # A file with no LF is one line, which the part from byte 0 holds.
    monkeypatch.setattr(corpus, "_READ_BLOCK", 8)
    handle = io.BytesIO(b"a" * 200)
    assert list(corpus.blocks(handle, start, stop)) == []
    assert handle.tell() < stop + corpus._READ_BLOCK


def test_a_part_starts_at_the_first_line_after_a_long_one(monkeypatch):
    monkeypatch.setattr(corpus, "_READ_BLOCK", 8)
    data = b"a" * 50 + b"\nbc\n" + b"d" * 30
    assert list(corpus.blocks(io.BytesIO(data), 3, 52)) == [(51, b"bc\n")]
    assert list(corpus.blocks(io.BytesIO(data), 3, 51)) == []
    assert list(corpus.blocks(io.BytesIO(data), 51, 60)) == [(51, b"bc\n" + b"d" * 30)]
