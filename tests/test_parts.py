"""Counting a corpus of regular files in parts, one forked child per part after the first.

``byte_parts`` cuts the files right after an LF near each 1/P mark, P
being the CPUs this process may use, and ``count_all`` counts the first
part here and each later one in a child, then stitches each seam. With
the least part size, the read block and the block of counts read from a
child cut to a few bytes, and P set from 1 to 4, the parts fall inside
words, files and boundary runs, and a part may be shorter than three
characters or hold no letter; the tables must still be those
of the whole stream, key order included. A split command must exit as
the serial one does, with the same files or the same error, and leave no
child behind.
"""

import json
import os
import pickle
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutforge import corpus, stats
from layoutforge.cli import PipelineConfig, _count, main
from layoutforge.corpus import (FileRange, byte_parts, concat_streams, normalize_text, read_pieces,
                               tokenize)
from layoutforge.errors import CapacityExceeded, EmptyCorpus, InvalidEncoding
from layoutforge.stats import count_all
from conftest import SAMPLE, letter_config, read_all_bytes, write_files

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="parts are counted in forks")

# An ASCII and an astral letter, a vowel sign pair that NFC composes, and
# boundaries alone, in runs, and as CRLF.
LETTERS = "ab\U0001F600োো"
UNITS = [*LETTERS, "ো", " ", ".", "\n", "\r\n", "\n\n", ".\n", "a\n"]
CONFIG = letter_config(LETTERS)


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(texts=st.lists(st.lists(st.sampled_from(UNITS), max_size=20).map("".join),
                      min_size=1, max_size=4),
       cpus=st.integers(1, 4), min_part=st.integers(1, 6), read_block=st.integers(1, 5))
def test_parts_count_what_the_whole_stream_counts(tmp_path_factory, monkeypatch, texts, cpus,
                                                  min_part, read_block):
    directory = tmp_path_factory.mktemp("corpus")
    paths = write_files(directory, texts)
    alphabet = directory / "alphabet.json"
    alphabet.write_text(json.dumps(CONFIG.to_dict()), encoding="utf-8")
    whole = concat_streams(tokenize(normalize_text(path.read_bytes()), CONFIG) for path in paths)
    with monkeypatch.context() as patch:
        use_cpus(patch, cpus)
        patch.setattr(corpus, "_MIN_PART", min_part)
        patch.setattr(corpus, "_READ_BLOCK", read_block)
        patch.setattr(stats, "_PAIRS_READ", read_block)
        parts = byte_parts(paths)
        assert 1 <= len(parts) <= cpus
        for source in (source for part in parts for source in part):
            if isinstance(source, FileRange) and source.stop < source.path.stat().st_size:
                assert source.path.read_bytes()[source.stop - 1:source.stop] == b"\n"
        assert concat_streams("".join(read_pieces(part, CONFIG)) for part in parts) == whole
        for span in (False, True):
            config = PipelineConfig(alphabet_path=str(alphabet), span_boundaries=span)
            expected = count_all([whole], span_boundaries=span)
            if expected[0].total_letters == 0:
                with pytest.raises(EmptyCorpus):
                    _count(paths, config)
                continue
            tables = _count(paths, config)
            assert tables == expected
            assert [list(table.counts) for table in tables] == \
                [list(table.counts) for table in expected]
    assert no_children_left()


def sample_files(directory, bad=()):
    """The sample's three files, with ``b"\\xff"`` put in at the start of a line near each
    (file, offset) in ``bad``; the paths, and where the first bad byte went."""
    paths, first = [], None
    for i, path in enumerate(SAMPLE):
        data = path.read_bytes()
        for near in sorted((near for file, near in bad if file == i), reverse=True):
            offset = data.index(b"\n", near) + 1
            data = data[:offset] + b"\xff" + data[offset:]
            if (i, near) == bad[0]:
                first = offset
        paths.append(directory / path.name)
        paths[-1].write_bytes(data)
    return paths, first


def run_split_and_serial(monkeypatch, capsys, tmp_path, argv, paths, cpus=3):
    """Exit code, stdout, stderr and files of ``argv`` over ``paths``: split, then serial."""
    outcomes = []
    for run, count in (("split", cpus), ("serial", 1)):
        with monkeypatch.context() as patch:
            use_cpus(patch, count)
            patch.setattr(corpus, "_MIN_PART", 4096)
            assert len(byte_parts(paths)) == (count if run == "split" else 1)
            out = tmp_path / run
            code = main([*argv, *map(str, paths), "--out", str(out)])
        written = read_all_bytes(out) if out.exists() else None
        outcomes.append((code, *capsys.readouterr(), written))
        assert no_children_left()
    return outcomes


@pytest.mark.parametrize("argv", [["stats"], ["stats", "--span-boundaries"], ["run-all"],
                                  ["run-all", "--coverage", "50"]])
def test_a_split_command_writes_what_the_serial_one_writes(tmp_path, capsys, monkeypatch, argv):
    split, serial = run_split_and_serial(monkeypatch, capsys, tmp_path, argv,
                                         sample_files(tmp_path)[0])
    assert split[0] == 0
    assert split == serial


# (file, offset) of each bad byte: in the first part, counted here; in
# the last, counted in a child; in two children; here and in a child.
@pytest.mark.parametrize("bad", [[(0, 100)], [(2, 16000)], [(1, 8000), (2, 16000)],
                                 [(0, 9000), (2, 100)]])
@pytest.mark.parametrize("command", ["stats", "run-all"])
def test_a_split_command_refuses_bad_utf8_as_the_serial_one_does(tmp_path, capsys, monkeypatch,
                                                                 bad, command):
    paths, offset = sample_files(tmp_path, bad)
    split, serial = run_split_and_serial(monkeypatch, capsys, tmp_path, [command], paths)
    assert split == serial
    code, stdout, stderr, written = split
    assert (code, stdout, written) == (2, "", None)
    assert json.loads(stderr) == {"error": "InvalidEncoding",
                                  "message": f"{paths[bad[0][0]]}: invalid UTF-8 at byte offset"
                                             f" {offset}"}


def test_bad_utf8_is_reported_before_a_missing_file_after_it(tmp_path, capsys, monkeypatch):
    """The second part holds the bad byte and the third the missing file: both fail in children."""
    paths, offset = sample_files(tmp_path, [(1, 100)])
    paths[2].unlink()
    split, serial = run_split_and_serial(monkeypatch, capsys, tmp_path, ["stats"], paths)
    assert split == serial
    assert split[0] == 2
    assert json.loads(split[2]) == {"error": "InvalidEncoding",
                                    "message": f"{paths[1]}: invalid UTF-8 at byte offset {offset}"}


def test_a_process_that_runs_another_thread_counts_in_one_part(monkeypatch):
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(corpus, "_MIN_PART", 4096)
    assert len(byte_parts(SAMPLE)) == 3
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert byte_parts(SAMPLE) == [SAMPLE]
    finally:
        release.set()
        waiting.join(60)
    assert not waiting.is_alive()


@pytest.mark.parametrize("error", [InvalidEncoding(7, "a.txt"), InvalidEncoding(0),
                                   CapacityExceeded("left", 3)])
def test_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.__dict__ == error.__dict__
