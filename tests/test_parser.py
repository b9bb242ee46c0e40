"""A call builds the parser of its own subcommand alone, and it parses as the full one does.

``cli.main`` builds only the subparser that ``argv[0]`` names. For each
argv of ``ARGV_MATRIX``, and for argv lists drawn from its tokens, that
parser and the full one must print the same help, usage and error text
and exit with the same code, or parse to the same namespace.
``tools/check_interpreters.py`` reads ``ARGV_MATRIX`` from this file's
source and makes the same comparison under each interpreter it is given.
"""

import argparse
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from layoutforge import cli

# Each subcommand with -h, with no arguments, with a bad --coverage, with
# an unknown option, with an extra positional, and once validly.
ARGV_MATRIX = [
    ["stats", "-h"], ["stats"], ["stats", "--coverage", "x"], ["stats", "--bogus"],
    ["stats", "a.txt", "b.txt"], ["stats", "a.txt", "--out", "o", "--span-boundaries"],
    ["partition", "-h"], ["partition"], ["partition", "--coverage", "x"],
    ["partition", "--bogus"], ["partition", "a.txt", "b.txt"],
    ["partition", "--mono", "m.tsv", "--digraphs", "d.tsv", "--coverage", "3",
     "--balance-tiebreak"],
    ["layout", "-h"], ["layout"], ["layout", "p.json", "--coverage", "x"],
    ["layout", "p.json", "--bogus"], ["layout", "p.json", "q.json"],
    ["layout", "p.json", "--geometry", "g.json", "--name", "alt", "--out", "o"],
    ["evaluate", "-h"], ["evaluate"], ["evaluate", "l.json", "--corpus", "c.txt", "--coverage", "x"],
    ["evaluate", "l.json", "--corpus", "c.txt", "--bogus"],
    ["evaluate", "l.json", "m.json", "--corpus", "c.txt"],
    ["evaluate", "l.json", "--corpus", "c.txt", "--reset-on-boundary"],
    ["compare", "-h"], ["compare"], ["compare", "r.json", "--coverage", "x"],
    ["compare", "r.json", "--bogus"], ["compare", "r.json", "s.json"],
    ["compare", "r.json", "--out", "table.txt"],
    ["run-all", "-h"], ["run-all"], ["run-all", "--coverage", "x"], ["run-all", "--bogus"],
    ["run-all", "a.txt", "b.txt"],
    ["run-all", "a.txt", "--coverage", "50", "--reset-on-boundary", "--name", "x"],
]


def outcome(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """What parsing ``argv`` prints and returns: exit code, stdout, stderr and namespace."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def assert_one_parser_parses_as_all(argv: list[str]) -> None:
    assert outcome(cli.build_parser(argv[0]), argv) == outcome(cli.build_parser(), argv)


def test_the_matrix_covers_every_subcommand():
    assert {argv[0] for argv in ARGV_MATRIX} == set(cli.COMMANDS)


def test_each_argv_parses_alike_with_one_subparser_or_all():
    for argv in ARGV_MATRIX:
        assert_one_parser_parses_as_all(argv)


def test_an_error_names_every_subcommand():
    code, _out, err, _namespace = outcome(cli.build_parser("layout"), ["layout", "p", "q"])
    assert code == 2
    assert err.startswith("usage: layoutforge [-h] {" + ",".join(cli.COMMANDS) + "} ...\n")


def added_parsers(monkeypatch, argv: list[str]) -> list[str]:
    """The subparsers ``cli.main(argv)`` builds, by name, with no command run."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return names


def test_a_call_builds_its_own_subparser_alone(monkeypatch):
    # The partition file is missing, so the command fails after parsing.
    assert added_parsers(monkeypatch, ["layout", "missing.json"]) == ["layout"]
    assert added_parsers(monkeypatch, ["run-all", "-h"]) == ["run-all"]


def test_help_no_command_and_an_unknown_one_build_every_subparser(monkeypatch):
    for argv in [["-h"], [], ["bogus"], ["--bogus", "layout"]]:
        assert added_parsers(monkeypatch, argv) == list(cli.COMMANDS)


TOKENS = sorted({token for argv in ARGV_MATRIX for token in argv} | {"--", "-", "1"})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(list(cli.COMMANDS)),
       rest=st.lists(st.sampled_from(TOKENS), max_size=6))
def test_drawn_argvs_parse_alike_with_one_subparser_or_all(command, rest):
    assert_one_parser_parses_as_all([command, *rest])
