"""The README's examples run as written and its outputs table is complete."""

import re
import shlex
from pathlib import Path

import pytest

from layoutforge.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
SAMPLE_DIR = ROOT / "data" / "bn_sample"


def section(heading):
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def code_blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def documented_outputs():
    """File names in the first column of the outputs table."""
    names = set()
    for line in section("Command line").split("Outputs:")[1].splitlines():
        if not line.startswith("| `"):
            continue
        stem = None
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if name.startswith(".") and stem:  # `report-<name>.json` / `.tsv`
                name = stem + name
            stem = name.rsplit(".", 1)[0]
            names.add(name.replace("<name>", "optimized"))
    return names


def test_library_example_runs_as_written(monkeypatch, capsys):
    (block,) = code_blocks(section("Library"), "python")
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(word.isdigit() for word in printed)


def test_outputs_table_matches_run_all(tmp_path, capsys):
    out = tmp_path / "out"
    paths = [str(p) for p in sorted(SAMPLE_DIR.glob("*.txt"))]
    assert main(["run-all", *paths, "--out", str(out)]) == 0
    assert documented_outputs() == {p.name for p in out.iterdir()}


@pytest.mark.parametrize(
    "command",
    [line for block in code_blocks(section("Command line"), "sh")
     for line in block.splitlines() if line.startswith("layoutforge ")])
def test_command_line_examples_parse(command):
    args = build_parser().parse_args(shlex.split(command)[1:])
    assert callable(args.func)
