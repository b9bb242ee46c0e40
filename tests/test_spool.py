"""Stdin and pipes are spooled to a temporary file, then read like named files.

``corpus.spooled`` copies stdin, and each named file that opens but is
not a regular file, byte for byte before anything is counted; a regular
file is never copied, and a name that does not open stays in the list,
to fail in its turn. Whatever the run gives, the spools are removed, and
an error in a copy names what was copied, never the spool.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from layoutforge import cli, corpus
from layoutforge.cli import main
from conftest import SAMPLE, last_error, read_all_bytes

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_BYTES = b"".join(path.read_bytes() for path in SAMPLE)
needs_dev_stdin = pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")


def feed_stdin(monkeypatch, data):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))


@pytest.fixture
def spools(tmp_path, monkeypatch):
    """The directory every spool of the test is made in."""
    directory = tmp_path / "spools"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


def run_piped(argv, data):
    """A CLI call in a new process whose stdin is a pipe fed ``data``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("LAYOUTFORGE_CONFIG", None)
    return subprocess.run([sys.executable, "-m", "layoutforge", *argv], input=data, env=env,
                          capture_output=True, timeout=120)


@needs_dev_stdin
@pytest.mark.parametrize("flags", [[], ["--coverage", "50"]])
@pytest.mark.parametrize("last", ["missing.txt", "directory"])
def test_the_first_bad_input_is_named_though_a_pipe_is_copied_first(tmp_path, flags, last):
    head = "কাক খ\n".encode("utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(head + b"\xff\n")
    (tmp_path / "directory").mkdir()
    out = tmp_path / "out"
    done = run_piped(["run-all", str(bad), "/dev/stdin", str(tmp_path / last), *flags,
                      "--out", str(out)], SAMPLE_BYTES)
    assert done.returncode == 2
    assert json.loads(done.stderr) == {
        "error": "InvalidEncoding", "message": f"{bad}: invalid UTF-8 at byte offset {len(head)}"}
    assert not out.exists()


@needs_dev_stdin
def test_an_error_in_a_copied_pipe_names_the_pipe(tmp_path):
    done = run_piped(["stats", str(SAMPLE[0]), "/dev/stdin", "--out", str(tmp_path / "out")],
                     SAMPLE_BYTES + b"\xff\n")
    assert done.returncode == 2
    assert json.loads(done.stderr) == {
        "error": "InvalidEncoding",
        "message": f"/dev/stdin: invalid UTF-8 at byte offset {len(SAMPLE_BYTES)}"}


def test_a_temporary_directory_that_takes_no_spool_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    feed_stdin(monkeypatch, SAMPLE_BYTES)
    out = tmp_path / "out"
    assert main(["run-all", "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    [line] = stderr.splitlines()
    assert json.loads(line)["error"] == "FileNotFoundError"
    assert not out.exists()


def test_no_spool_is_left_after_success(tmp_path, spools, monkeypatch, capsys):
    feed_stdin(monkeypatch, SAMPLE_BYTES)
    assert main(["run-all", "--coverage", "50", "--out", str(tmp_path / "out")]) == 0
    assert list(spools.iterdir()) == []


def test_no_spool_is_left_after_an_encoding_error(tmp_path, spools, monkeypatch, capsys):
    feed_stdin(monkeypatch, SAMPLE_BYTES + b"\xff\n")
    assert main(["stats", "--out", str(tmp_path / "out")]) == 2
    assert last_error(capsys) == {
        "error": "InvalidEncoding", "message": f"invalid UTF-8 at byte offset {len(SAMPLE_BYTES)}"}
    assert list(spools.iterdir()) == []


def test_no_spool_is_left_after_an_interrupt(tmp_path, spools, monkeypatch):
    def interrupted(*parts, **options):
        assert [path.name[:12] for path in spools.iterdir()] == ["layoutforge-"]
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "count_all", interrupted)
    feed_stdin(monkeypatch, SAMPLE_BYTES)
    with pytest.raises(KeyboardInterrupt):
        main(["stats", "--out", str(tmp_path / "out")])
    assert list(spools.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="parts are counted in forks")
@pytest.mark.parametrize("argv", [["stats"], ["run-all", "--coverage", "50"]])
def test_a_long_stdin_is_counted_in_parts(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(corpus, "_MIN_PART", 4096)
    assert len(SAMPLE_BYTES) >= 2 * corpus._MIN_PART
    assert main([*argv, *map(str, SAMPLE), "--out", str(tmp_path / "named")]) == 0
    named_stdout = capsys.readouterr().out
    counted = []
    byte_parts = cli.byte_parts

    def spied(sources):
        counted.append(byte_parts(sources))
        return counted[-1]

    monkeypatch.setattr(cli, "byte_parts", spied)
    feed_stdin(monkeypatch, SAMPLE_BYTES)
    assert main([*argv, "--out", str(tmp_path / "piped")]) == 0
    assert [len(parts) for parts in counted] == [2]
    assert capsys.readouterr().out == named_stdout
    assert read_all_bytes(tmp_path / "piped") == read_all_bytes(tmp_path / "named")


@pytest.mark.parametrize("argv", [["stats"], ["partition", "--coverage", "50"],
                                  ["run-all", "--coverage", "50"]])
def test_named_regular_files_are_never_copied(tmp_path, capsys, monkeypatch, argv):
    copies = []
    copy = shutil.copyfileobj

    def spied(source, target, *args):
        copies.append(source)
        return copy(source, target, *args)

    monkeypatch.setattr(shutil, "copyfileobj", spied)
    assert main([*argv, *map(str, SAMPLE), "--out", str(tmp_path / "named")]) == 0
    assert copies == []
    feed_stdin(monkeypatch, SAMPLE_BYTES)
    assert main([*argv, "--out", str(tmp_path / "piped")]) == 0
    assert copies == [sys.stdin.buffer]
    assert read_all_bytes(tmp_path / "piped") == read_all_bytes(tmp_path / "named")
