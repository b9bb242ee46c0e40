"""JSON is parsed in one place only.

``atomic.parse_json_object`` maps every way a JSON document can be bad
onto the reader's own error, so the CLI exits 2. A module that called
``json.load``/``json.loads`` itself would bypass that mapping.
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


def test_only_atomic_parses_json():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "atomic.py" in modules
    offenders = {path.name: json_parse_calls(path) for path in modules
                 if path.name != "atomic.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}
    assert json_parse_calls(PACKAGE / "atomic.py")


def test_the_guard_sees_both_spellings(tmp_path):
    module = tmp_path / "reader.py"
    module.write_text("import json\nfrom json import loads\n"
                      "def read(h):\n    return json.load(h)\n", encoding="utf-8")
    assert json_parse_calls(module) == [2, 4]
