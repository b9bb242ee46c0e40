"""The oracle stands apart from the package it checks.

``oracle.py`` restates each pipeline stage so that the tests can hold
the package to it. A helper it took from ``layoutforge`` would be checked
against itself, so it imports the standard library only.
"""

import ast
import sys
from pathlib import Path

ORACLE = Path(__file__).resolve().parent / "oracle.py"


def imported_modules(path):
    """(line, top-level module) of every import statement in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "").split(".")[0]))
    return found


def test_the_oracle_imports_the_standard_library_only():
    modules = imported_modules(ORACLE)
    assert modules
    assert [(line, name) for line, name in modules if name not in sys.stdlib_module_names] == []


def test_the_guard_sees_every_spelling_of_the_package(tmp_path):
    module = tmp_path / "oracle.py"
    module.write_text("import collections\nimport layoutforge\nfrom layoutforge.stats import x\n"
                      "import os, layoutforge.cli as cli\nfrom . import stats\n", encoding="utf-8")
    assert imported_modules(module) == [(1, "collections"), (2, "layoutforge"),
                                        (3, "layoutforge"), (4, "os"), (4, "layoutforge"),
                                        (5, ".")]
