"""Cutting a corpus into parts, one for each CPU, and running a forked child for each later part.

A corpus of regular files is cut at its 1/P byte marks into P parts,
P being the CPUs this process may use, each the lines that start in its
byte ranges (``byte_parts``). Counting works the first part itself, and
``forked`` each later one in a forked child, which sends its result
back as one marshal. No child is forked where ``os.fork`` is missing or
another thread runs, which a fork could leave holding a lock, nor where
the system refuses a pipe or a process; such a part, and one whose child
raised, is worked here in its turn, which raises the child's error in
the order of the stream. A child that dies otherwise is reaped and named
by its exit status or signal. This module alone forks, and alone decides
how a corpus is cut.
"""

from __future__ import annotations

import contextlib
import itertools
import marshal
import os
import threading
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .corpus import FileRange, Source, regular_file_size

# The fewest bytes worth a part of their own (``byte_parts``): below that,
# forking and merging cost more than a second core saves.
_MIN_PART = 1 << 18
# A part is its pieces in order, and its result what ``work`` gives of it.
Work = Callable[[Iterable[str]], object]


def byte_parts(sources: Sequence[Source]) -> list[list[Source]]:
    """The sources cut into parts of about equal bytes, one for each CPU this process may use.

    The corpus is cut on a platform that tells the CPUs a process may
    use. The cuts lie at the 1/P byte marks of the files joined, found
    with no file opened, and a part holds the lines that start in its
    byte range (``FileRange``, ``corpus.blocks``), so each line is read
    by one part: the parts' streams, joined as ``read_pieces`` joins
    pieces, are the stream of the whole. A file that is not regular
    (``regular_file_size``), such as a name that does not open, counts as
    empty, and its part reads it whole. P is capped so that the marks lie
    ``_MIN_PART`` bytes apart or more; a corpus of fewer than two such
    parts is one part.
    """
    sizes = [regular_file_size(source) or 0 for source in sources]
    total = sum(sizes)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, total // _MIN_PART)
    if count < 2:
        return [list(sources)]
    marks = (total * k // count for k in range(1, count))
    cut = next(marks)
    parts: list[list[Source]] = [[]]
    for path, first, size in zip(sources, itertools.accumulate(sizes, initial=0), sizes):
        start = first
        while cut < first + size:
            if cut > start:
                parts[-1].append(FileRange(path, start - first, cut - first))
            parts.append([])
            start, cut = cut, next(marks, total)
        parts[-1].append(path if start == first else FileRange(path, start - first, size))
    return parts


@contextlib.contextmanager
def forked(parts: Sequence[Iterable[str]], work: Work) -> Iterator[Iterator]:
    """``work`` of each part, each in a forked child where one can be had, given in order.

    Each child is forked on entry, so the children work while the block
    runs, and each result is read when the block asks for it. On exit
    every child that still runs is stopped, and each is reaped.
    """
    children: list[tuple[int, BinaryIO] | None] = []
    try:
        for part in parts:
            children.append(_fork(part, work))
        yield _results(parts, children, work)
    finally:
        import signal

        for pid, pipe in filter(None, children):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(part: Iterable[str], work: Work) -> tuple[int, BinaryIO] | None:
    """A child that sends ``work(part)`` as one marshal and the pipe it sends it through, or None.

    Where ``work`` raises, the child exits with status 1 and sends
    nothing. It always leaves by ``os._exit``, so it runs none of this
    process's clean-up and flushes none of its buffers.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    try:
        read_end, write_end = os.pipe()
    except OSError:  # EMFILE
        return None
    pid = None
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with open(write_end, "wb") as pipe:
                    marshal.dump(work(part), pipe)
                code = 0
            finally:
                os._exit(code)
    except OSError:  # EAGAIN or ENOMEM
        os.close(read_end)
    finally:
        os.close(write_end)
    return None if pid is None else (pid, open(read_end, "rb"))


def _results(parts: Sequence[Iterable[str]], children: list[tuple[int, BinaryIO] | None],
             work: Work) -> Iterator:
    """Each part's result: its child's one marshal, or ``work`` of it here.

    A child that sent its marshal short is reaped; one that exited with
    status 1 raised, and its part is worked here to raise the same error.
    """
    for index, part in enumerate(parts):
        if children[index] is not None:
            pid, pipe = children[index]
            try:
                yield marshal.load(pipe)
                continue
            except EOFError:
                pipe.close()
                children[index] = None
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 1:
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    raise RuntimeError(f"a counting process {how} before it sent its whole"
                                       " result") from None
        yield work(part)
