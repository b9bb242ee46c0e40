"""Parts are sent back in one place, and files are read in blocks in one place.

``stats`` alone decides where a part is counted: it forks the counting
children, looks for other threads, and reads each child's result as one
marshal. A module that forked, marshalled or watched threads on its own
would be a second transport, with its own framing and its own way for a
child to die, and no module imports ``pickle``.

``corpus.blocks`` reads a file a block that ends right after an LF at a
time, and is the only reader that runs a block on to the end of its line.
A module that called ``readline`` itself would be a second block reader,
with its own block size and its own way to place a bad byte.

No module but ``atomic``, which reads JSON documents, reads anything
whole: no ``.read_bytes()``, and no ``.read()`` without a size. A corpus
is read a block at a time, in its turn, from its files, or from the
temporary file that stdin or a pipe was copied to a chunk at a time, so
that the first bad input is named whatever the flags.
"""

import ast
from pathlib import Path

import layoutforge

PACKAGE = Path(layoutforge.__file__).resolve().parent


def calls(path, module, names):
    """Line numbers of ``module.name`` uses, or imports of a name from ``module``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == module):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == module and any(
                alias.name in names for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def imports(path, modules):
    """Line numbers of imports of any of ``modules``, or of a name from one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(alias.name in modules
                                                          for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module in modules)


def transport_calls(path):
    """Line numbers of ``os.fork``, and of imports of ``marshal`` or ``threading``."""
    return sorted(calls(path, "os", ("fork",)) + imports(path, ("marshal", "threading")))


def readline_calls(path):
    """Line numbers of ``.readline`` on anything."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "readline")


def whole_reads(path):
    """Line numbers of ``.read_bytes()`` on anything, and of ``.read()`` with no argument."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and (node.func.attr == "read_bytes"
                       or node.func.attr == "read" and not node.args and not node.keywords))


def offenders(find, owner):
    """The modules other than ``owner`` in which ``find`` finds something, with its lines."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / owner in modules
    found = {path.name: find(path) for path in modules if path.name != owner}
    return {name: lines for name, lines in found.items() if lines}


def test_only_stats_forks_and_loads_results():
    assert offenders(transport_calls, "stats.py") == {}
    assert calls(PACKAGE / "stats.py", "os", ("fork",))
    assert calls(PACKAGE / "stats.py", "marshal", ("load",))


def test_no_module_imports_pickle():
    found = {path.name: imports(path, ("pickle",)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_corpus_reads_lines():
    assert offenders(readline_calls, "corpus.py") == {}
    assert readline_calls(PACKAGE / "corpus.py")


def test_only_atomic_reads_a_file_whole():
    assert offenders(whole_reads, "atomic.py") == {}
    assert whole_reads(PACKAGE / "atomic.py")


def test_the_guard_sees_every_spelling(tmp_path):
    module = tmp_path / "transport.py"
    module.write_text("import os, pickle\nfrom pickle import loads\nfrom os import fork\n"
                      "def run(pipe):\n    os.fork()\n    return marshal.load(pipe)\n"
                      "def lines(handle):\n    return handle.readline() + handle.read()\n"
                      "import threading as t, marshal\nfrom threading import Thread\n"
                      "def whole(path, handle):\n"
                      "    return Path(path).read_bytes() + handle.read() + handle.read(4)\n"
                      "stdin = sys.stdin.buffer.read\nsys.stdin.buffer.read()\n",
                      encoding="utf-8")
    assert transport_calls(module) == [3, 5, 9, 10]
    assert calls(module, "marshal", ("load",)) == [6]
    assert imports(module, ("pickle",)) == [1, 2]
    assert readline_calls(module) == [8]
    assert whole_reads(module) == [8, 12, 12, 14]
