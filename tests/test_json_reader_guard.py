"""JSON is parsed, and directories are made, in one place only.

``atomic.parse_json_object`` maps every way a JSON document can be bad
onto the reader's own error, so the CLI exits 2. A module that called
``json.load``/``json.loads`` itself would bypass that mapping.

``atomic.atomic_open`` makes the directory of the file it writes. A module
that called ``mkdir`` or ``os.makedirs`` itself could make an output
directory before the command has refused its inputs.
"""

import ast
from pathlib import Path

import layoutforge

PACKAGE = Path(layoutforge.__file__).resolve().parent


def json_parse_calls(path):
    """Line numbers of json.load/json.loads calls or imports in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in ("load", "loads") for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def directory_calls(path):
    """Line numbers of mkdir/makedirs calls or imports in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("mkdir", "makedirs"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("mkdir", "makedirs") for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def offenders(calls):
    """The modules other than atomic.py that make ``calls``, with their lines."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "atomic.py" in modules
    found = {path.name: calls(path) for path in modules if path.name != "atomic.py"}
    return {name: lines for name, lines in found.items() if lines}


def test_only_atomic_parses_json():
    assert offenders(json_parse_calls) == {}
    assert json_parse_calls(PACKAGE / "atomic.py")


def test_only_atomic_makes_directories():
    assert offenders(directory_calls) == {}
    assert directory_calls(PACKAGE / "atomic.py")


def test_the_guard_sees_both_spellings(tmp_path):
    module = tmp_path / "reader.py"
    module.write_text("import json\nfrom json import loads\n"
                      "def read(h):\n    return json.load(h)\n", encoding="utf-8")
    assert json_parse_calls(module) == [2, 4]


def test_the_guard_sees_every_directory_call(tmp_path):
    module = tmp_path / "writer.py"
    module.write_text("import os\nfrom os import makedirs\nfrom pathlib import Path\n"
                      "def write(p):\n    Path(p).parent.mkdir()\n    os.makedirs(p)\n",
                      encoding="utf-8")
    assert directory_calls(module) == [2, 5, 6]
