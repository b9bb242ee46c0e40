"""Parts are sent back in one place, and files are read in blocks in one place.

``stats`` forks the counting children and reads each one's result as one
pickle. A module that forked or unpickled on its own would be a second
transport, with its own framing and its own way for a child to die.

``corpus.blocks`` reads a file a block that ends right after an LF at a
time, and is the only reader that runs a block on to the end of its line.
A module that called ``readline`` itself would be a second block reader,
with its own block size and its own way to place a bad byte.
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


def fork_and_unpickle_calls(path):
    return sorted(calls(path, "os", ("fork",)) + calls(path, "pickle", ("load", "loads")))


def readline_calls(path):
    """Line numbers of ``.readline`` on anything."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "readline")


def offenders(find, owner):
    """The modules other than ``owner`` in which ``find`` finds something, with its lines."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / owner in modules
    found = {path.name: find(path) for path in modules if path.name != owner}
    return {name: lines for name, lines in found.items() if lines}


def test_only_stats_forks_and_unpickles():
    assert offenders(fork_and_unpickle_calls, "stats.py") == {}
    assert fork_and_unpickle_calls(PACKAGE / "stats.py")


def test_only_corpus_reads_lines():
    assert offenders(readline_calls, "corpus.py") == {}
    assert readline_calls(PACKAGE / "corpus.py")


def test_the_guard_sees_every_spelling(tmp_path):
    module = tmp_path / "transport.py"
    module.write_text("import os, pickle\nfrom pickle import loads\nfrom os import fork\n"
                      "def run(pipe):\n    os.fork()\n    return pickle.load(pipe)\n"
                      "def lines(handle):\n    return handle.readline() + handle.read()\n",
                      encoding="utf-8")
    assert fork_and_unpickle_calls(module) == [2, 3, 5, 6]
    assert readline_calls(module) == [8]
