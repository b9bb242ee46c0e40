"""Counting a corpus of regular files in parts, one forked child per part after the first.

``byte_parts`` cuts the files at each 1/P byte mark, P being the CPUs
this process may use, without opening them, and a part reads the lines
that start in its byte ranges; ``count_all`` counts the first part here
and each later one in a child, then stitches each seam. With the least
part size and the read block cut to a few bytes, and P set from 1 to 4,
the cuts fall inside lines, UTF-8 sequences and CRLFs, and a part may
be shorter than three characters or hold no letter; the tables must
still be those of the whole stream, key order included, as they must
for ranges cut at any bytes. A split command must exit as the serial
one does, with the same files or the same error, and leave no child
behind, even one that dies part-way through the marshal it sends back.
A part no child can take, or whose child raised, is counted in the
command itself, with the same tables.
"""

import builtins
import errno
import itertools
import json
import marshal
import os
import pickle
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import layoutforge.parts
from layoutforge import corpus, stats
from layoutforge.cli import PipelineConfig, _count, _parts, main
from layoutforge.corpus import FileRange, concat_streams, normalize_text, read_pieces, tokenize
from layoutforge.errors import EmptyCorpus, LayoutForgeError
from layoutforge.parts import byte_parts
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
        patch.setattr(layoutforge.parts, "_MIN_PART", min_part)
        patch.setattr(corpus, "_READ_BLOCK", read_block)
        parts = byte_parts(paths)
        assert 1 <= len(parts) <= cpus
        sizes = [path.stat().st_size for path in paths]
        starts = dict(zip(paths, itertools.accumulate(sizes, initial=0)))
        cuts = [starts[first.path] + first.start if isinstance(first, FileRange) else starts[first]
                for first, *_ in parts[1:]]
        assert cuts == [sum(sizes) * k // len(parts) for k in range(1, len(parts))]
        assert concat_streams("".join(read_pieces(part, CONFIG)) for part in parts) == whole
        for span in (False, True):
            config = PipelineConfig(alphabet_path=str(alphabet), span_boundaries=span)
            expected = count_all([whole], span_boundaries=span)
            if expected[0].total_letters == 0:
                with pytest.raises(EmptyCorpus):
                    _count(_parts(paths, config), config)
                continue
            tables = _count(_parts(paths, config), config)
            assert tables == expected
            assert [list(table.counts) for table in tables] == \
                [list(table.counts) for table in expected]
    assert no_children_left()


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(texts=st.lists(st.lists(st.sampled_from(UNITS), max_size=20).map("".join),
                      min_size=1, max_size=3),
       cuts=st.lists(st.integers(0, 200), max_size=6), read_block=st.integers(1, 5))
# Cuts inside a letter's UTF-8 sequence, between CR and LF, and in mid-line.
@example(texts=["a\U0001F600\r\nb c\n"], cuts=[2, 6, 8], read_block=1)
def test_ranges_cut_at_any_bytes_read_as_their_file(tmp_path_factory, monkeypatch, texts, cuts,
                                                   read_block):
    paths = write_files(tmp_path_factory.mktemp("corpus"), texts)
    whole = concat_streams(tokenize(normalize_text(path.read_bytes()), CONFIG) for path in paths)
    ranges = []
    for path in paths:
        size = path.stat().st_size
        bounds = sorted({0, size, *(cut % (size + 1) for cut in cuts)})
        ranges += [FileRange(path, start, stop) for start, stop in zip(bounds, bounds[1:])]
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "_READ_BLOCK", read_block)
        assert concat_streams("".join(read_pieces([source], CONFIG)) for source in ranges) == whole
        for span in (False, True):
            assert_same_tables(count_all(read_pieces(ranges, CONFIG), span_boundaries=span),
                               count_all([whole], span_boundaries=span))


def test_byte_parts_opens_no_file(tmp_path, monkeypatch):
    paths = sample_files(tmp_path)[0]
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(layoutforge.parts, "_MIN_PART", 4096)
    parts = byte_parts(paths)

    def refused_open(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.setattr(builtins, "open", refused_open)
    monkeypatch.setattr(os, "open", refused_open)
    assert byte_parts(paths) == parts
    assert len(parts) == 3


# The first 1/3 byte mark of the sample with one byte put in: a byte of
# its first file, in mid-line.
MARK = (sum(path.stat().st_size for path in SAMPLE) + 1) // 3


def sample_files(directory, bad=()):
    """The sample's three files, with ``b"\\xff"`` put in for each (file, offset) in ``bad``: at
    the start of a line near that offset, or at the offset itself, in mid-line, where a third
    item says "at"; the paths, and the offset of the first byte that is not UTF-8."""
    paths, first = [], None
    for i, path in enumerate(SAMPLE):
        data = path.read_bytes()
        for _, near, *at in sorted((entry for entry in bad if entry[0] == i), reverse=True):
            offset = near if at else data.index(b"\n", near) + 1
            assert not at or b"\n" not in data[offset - 1:offset + 1]
            data = data[:offset] + b"\xff" + data[offset:]
        if bad and i == bad[0][0]:
            with pytest.raises(UnicodeDecodeError) as error:
                data.decode("utf-8")
            first = error.value.start
        paths.append(directory / path.name)
        paths[-1].write_bytes(data)
    return paths, first


def run_split_and_serial(monkeypatch, capsys, tmp_path, argv, paths, cpus=3):
    """Exit code, stdout, stderr and files of ``argv`` over ``paths``: split, then serial."""
    outcomes = []
    for run, count in (("split", cpus), ("serial", 1)):
        with monkeypatch.context() as patch:
            use_cpus(patch, count)
            patch.setattr(layoutforge.parts, "_MIN_PART", 4096)
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
# the last, counted in a child; in two children; here and in a child; at
# the first mark, and just before it, in a line the first part reads.
@pytest.mark.parametrize("bad", [[(0, 100)], [(2, 16000)], [(1, 8000), (2, 16000)],
                                 [(0, 9000), (2, 100)], [(0, MARK, "at")],
                                 [(0, MARK - 1, "at")]])
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


def open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
@pytest.mark.parametrize("fails", ["every fork", "the second fork", "the pipe"])
@pytest.mark.parametrize("argv", [["stats"], ["run-all"]])
def test_a_part_no_child_can_take_is_counted_here(tmp_path, capsys, monkeypatch, argv, fails):
    """A fork refused for want of processes, or a pipe for want of descriptors."""
    fork, forks = os.fork, []

    def refused_fork():
        forks.append(len(forks))
        if fails == "every fork" or len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    def refused_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    if fails == "the pipe":
        monkeypatch.setattr(os, "pipe", refused_pipe)
    else:
        monkeypatch.setattr(os, "fork", refused_fork)
    before = open_descriptors()
    split, serial = run_split_and_serial(monkeypatch, capsys, tmp_path, argv,
                                         sample_files(tmp_path)[0])
    assert open_descriptors() == before
    assert len(forks) == (0 if fails == "the pipe" else 2)
    assert split[0] == 0
    assert split == serial


@pytest.mark.parametrize("death, cause", [(lambda: os.kill(os.getpid(), signal.SIGKILL),
                                           f"was killed by signal {int(signal.SIGKILL)}"),
                                          (lambda: os._exit(3), "exited with status 3")],
                         ids=["signal", "exit status"])
def test_a_child_that_dies_is_named_by_its_cause(tmp_path, capsys, monkeypatch, death, cause):
    parent = os.getpid()

    def dying(part):
        if os.getpid() != parent:  # never this process, should a part be counted here
            death()
        raise AssertionError("a part was counted in this process")

    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(layoutforge.parts, "_MIN_PART", 4096)
    monkeypatch.setattr(stats, "_part_windows", dying)
    out = tmp_path / "out"
    assert main(["stats", *map(str, sample_files(tmp_path)[0]), "--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert (stdout, out.exists()) == ("", False)
    assert json.loads(stderr) == {
        "error": "RuntimeError",
        "message": f"a counting process {cause} before it sent its whole result"}
    assert no_children_left()


def test_a_child_that_dies_part_way_through_its_result_is_named_by_its_cause(tmp_path, capsys,
                                                                           monkeypatch):
    """Half a marshal reaches the parent, which cannot load it: not the end of the pipe."""
    halves = tmp_path / "halves"
    halves.mkdir()

    def half_dump(value, file):
        data = marshal.dumps(value)
        (halves / str(os.getpid())).write_bytes(data[:len(data) // 2])
        file.write(data[:len(data) // 2])
        file.flush()
        os._exit(3)

    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(layoutforge.parts, "_MIN_PART", 4096)
    monkeypatch.setattr(marshal, "dump", half_dump)
    out = tmp_path / "out"
    assert main(["stats", *map(str, sample_files(tmp_path)[0]), "--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert (stdout, out.exists()) == ("", False)
    assert json.loads(stderr) == {
        "error": "RuntimeError",
        "message": "a counting process exited with status 3 before it sent its whole result"}
    assert no_children_left()
    sent = list(halves.iterdir())
    assert sent
    for half in sent:
        with pytest.raises(EOFError):
            marshal.loads(half.read_bytes())


@pytest.mark.parametrize("raised_in", ["every process", "the children"])
def test_a_childs_error_reaches_the_user_as_itself(tmp_path, capsys, monkeypatch, raised_in):
    """An error pickle could not carry: the part whose child raised it is counted here."""

    class PartError(LayoutForgeError):
        pass

    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(PartError("local"))
    parent, part_windows = os.getpid(), stats._part_windows
    raised = tmp_path / "raised"
    raised.mkdir()

    def failing(part):
        if os.getpid() != parent:
            (raised / str(os.getpid())).touch()
        elif raised_in == "the children":
            return part_windows(part)
        else:  # the parent would stop a child that has not yet reached its part
            deadline = time.monotonic() + 5
            while len(list(raised.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        raise PartError("this part cannot be counted")

    monkeypatch.setattr(stats, "_part_windows", failing)
    paths = sample_files(tmp_path)[0]
    if raised_in == "the children":
        split, serial = run_split_and_serial(monkeypatch, capsys, tmp_path, ["stats"], paths)
        assert split[0] == 0
        assert split == serial
    else:
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(layoutforge.parts, "_MIN_PART", 4096)
        out = tmp_path / "out"
        assert main(["stats", *map(str, paths), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert (stdout, out.exists()) == ("", False)
        assert json.loads(stderr) == {"error": "PartError",
                                      "message": "this part cannot be counted"}
        assert no_children_left()
    assert len(list(raised.iterdir())) == 2


def forbidden_fork():
    raise AssertionError("a child was forked")


def running_another_thread(run):
    """What ``run()`` gives while another thread of this process waits."""
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        return run()
    finally:
        release.set()
        waiting.join(60)
        assert not waiting.is_alive()


def test_a_process_that_runs_another_thread_counts_every_part_itself(tmp_path, capsys,
                                                                     monkeypatch):
    paths = sample_files(tmp_path)[0]
    monkeypatch.setattr(os, "fork", forbidden_fork)
    split, serial = running_another_thread(
        lambda: run_split_and_serial(monkeypatch, capsys, tmp_path, ["stats"], paths))
    assert split[0] == 0
    assert split == serial


def sample_parts():
    """A few thousand letters of the sample cut into three parts inside words, and their join."""
    stream = "".join(read_pieces(SAMPLE[:1]))[:6000]
    cuts = [stream.index("\n", 2000) - 2, stream.index("\n", 4000) - 1]
    parts = [stream[:cuts[0]], stream[cuts[0]:cuts[1]], stream[cuts[1]:]]
    return [[part] for part in parts], concat_streams(parts)


def assert_same_tables(tables, expected):
    assert tables == expected
    assert [list(table.counts) for table in tables] == [list(table.counts) for table in expected]


@pytest.mark.parametrize("span", [False, True])
def test_parts_are_counted_where_os_fork_is_missing(monkeypatch, span):
    parts, whole = sample_parts()
    expected = count_all([whole], span_boundaries=span)
    monkeypatch.delattr(os, "fork")
    assert_same_tables(count_all(*parts, span_boundaries=span), expected)


@pytest.mark.parametrize("span", [False, True])
def test_parts_are_counted_here_while_another_thread_runs(monkeypatch, span):
    parts, whole = sample_parts()
    expected = count_all([whole], span_boundaries=span)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    tables = running_another_thread(lambda: count_all(*parts, span_boundaries=span))
    assert_same_tables(tables, expected)
