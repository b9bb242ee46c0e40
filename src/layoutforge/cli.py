"""Command line front end: count, partition, build, score, compare.

Subcommands mirror the pipeline stages and each writes plain files
(TSV for tables, JSON for structured results) so stages can be rerun
and inspected independently. ``run-all`` chains the whole pipeline.
Outputs embed an echo of the knobs that produced them, never the input
paths, so the same inputs give byte-identical files on every run.

Every command reads its corpus once, one block at a time, in order,
into the n-gram tables or into the scores of every layout ``evaluate``
is given; ``run-all`` replays it where its tables cannot score its
layout. ``stats``, ``partition`` and ``run-all`` first copy stdin, and
each named file that is not a regular file (a pipe, say), to a
temporary file (``corpus.spooled``), so their corpus is all regular
files. Their bytes are counted in parts, one per CPU, as ``parts``
decides, with the same tables and files as one part gives; a replay
reads the files again. Scoring a corpus (``evaluate``, and a replay) is
done in this process.

A call builds the argument parser of the subcommand it names alone
(``COMMANDS`` declares each subcommand's arguments once); help, no
subcommand or an unknown one builds the parser of all six.

Exit codes: 0 on success, 2 for input or usage problems, 1 for bugs.
Errors are reported as a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_type_hints

from .atomic import OptionalField, atomic_open, read_json_object, write_json
from .corpus import AlphabetConfig, Source, read_pieces, spooled
from .errors import ConfigError, CorpusChanged, EmptyCorpus, LayoutForgeError
from .evaluator import (EvaluationReport, compare, evaluate, evaluate_all, format_comparison,
                        read_report_json, score_tables, write_report_json, write_report_tsv)
from .layout import (Geometry, KeyboardLayout, build_layout, check_layout_name, load_geometry,
                     load_layout, write_layout)
from .parts import byte_parts
from .partition import (HandPartition, partition_all, read_partition_json,
                        write_partition_json)
from .stats import NGramTable, count_all, read_ngram_tsv, write_ngram_tsv
# Never called here: bench/spans.py traces these names in this module, and
# bench/test_bench.py needs every metric they feed (corpus.letters,
# corpus.mb_per_s, stats.count_*). Those read 0 until the tracer is pointed
# at names the CLI calls; then these imports can go.
from .corpus import normalize_text, read_corpus, tokenize  # noqa: F401
from .stats import count_ngrams  # noqa: F401

CONFIG_ENV_VAR = "LAYOUTFORGE_CONFIG"


@dataclass
class PipelineConfig:
    """Every knob the pipeline accepts, with its resting default.

    Values come from three layers, strongest last: built-in defaults,
    the JSON file named by LAYOUTFORGE_CONFIG, command line flags. The
    alphabet and geometry files are each read once, when first needed.
    """

    alphabet_path: str | None = None
    geometry_path: str | None = None
    out_dir: str = "."
    coverage: int = 1
    balance_tiebreak: bool = False
    reset_on_boundary: bool = False
    span_boundaries: bool = False

    @functools.cached_property
    def alphabet(self) -> AlphabetConfig:
        return AlphabetConfig.load(self.alphabet_path) if self.alphabet_path else AlphabetConfig()

    @functools.cached_property
    def geometry(self) -> Geometry:
        return load_geometry(self.geometry_path) if self.geometry_path else Geometry()

    def echo(self) -> dict:
        """The fields worth stamping into output files.

        out_dir is omitted: it changes where results go, never what
        they contain. A named alphabet or geometry file is echoed as the
        document it resolves to, not as its path, so that the same
        settings give the same files wherever they are kept.
        """
        doc = asdict(self)
        del doc["out_dir"]
        if self.alphabet_path:
            doc["alphabet_path"] = self.alphabet.to_dict()
        if self.geometry_path:
            doc["geometry_path"] = self.geometry.to_dict()
        return doc


# Every field may be left out; the env file sets only the ones it names.
CONFIG_SHAPE = {name: OptionalField(hint) for name, hint in get_type_hints(PipelineConfig).items()}


def _env_defaults(environ=os.environ) -> dict:
    path = environ.get(CONFIG_ENV_VAR)
    return read_json_object(path, ConfigError, "config", CONFIG_SHAPE) if path else {}


def resolve_config(args: argparse.Namespace, environ=os.environ) -> PipelineConfig:
    """Overlay flag values (when given) on the env-file values on the defaults."""
    config = PipelineConfig(**_env_defaults(environ))
    for name in (f.name for f in fields(PipelineConfig)):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    return config


def _refuse_empty(total_letters: int) -> None:
    """A corpus without a letter of the alphabet is refused."""
    if total_letters == 0:
        raise EmptyCorpus("empty corpus: input contains no alphabet letters")


def _parts(sources: Sequence[Source], config: PipelineConfig) -> list[Iterator[str]]:
    """The corpus's pieces, in a part for each CPU where the sources allow it."""
    return [read_pieces(part, config.alphabet) for part in byte_parts(sources)]


def _count(parts: Sequence[Iterable[str]], config: PipelineConfig) -> tuple[NGramTable, ...]:
    """The tables of a corpus given as its parts, each its pieces in order."""
    tables = count_all(*parts, span_boundaries=config.span_boundaries)
    _refuse_empty(tables[0].total_letters)
    return tables


def _partition(mono: NGramTable, digraphs: NGramTable, config: PipelineConfig) -> HandPartition:
    return partition_all(mono, digraphs, coverage=config.coverage,
                         balance_tiebreak=config.balance_tiebreak)


def _write_stats_files(tables: Sequence[NGramTable], config: PipelineConfig) -> None:
    """Write the three n-gram tables and the summary."""
    echo, out = config.echo(), Path(config.out_dir)
    for table, filename in zip(tables, ("monograms.tsv", "digraphs.tsv", "trigrams.tsv")):
        with atomic_open(out / filename) as handle:
            write_ngram_tsv(table, handle, config_echo=echo)
    write_json({"total_letters": tables[0].total_letters,
                "distinct_letters": len(tables[0].counts), "config": echo}, out / "summary.json")


def _write_partition(part: HandPartition, mono: NGramTable, config: PipelineConfig) -> None:
    write_partition_json(part, mono, Path(config.out_dir) / "partition.json",
                         config_echo=config.echo())


def _score_counted(layout: KeyboardLayout, corpus: Iterable[str],
                   tables: Sequence[NGramTable], config: PipelineConfig) -> EvaluationReport:
    """Score a layout against a counted corpus, which ``corpus`` gives again as its pieces.

    The tables give the replay's report exactly when the layout places
    every counted letter, unless boundaries both span and reset: resets
    need the digraphs within runs, and a spanning count has none of its
    own. Elsewhere, as when ``--coverage`` leaves letters out, ``corpus``
    is replayed: its files are read again. A replay whose letter total or
    hand loads are not the counted ones read another corpus, and is refused.
    """
    mono, digraphs, _trigrams, junctions = tables
    reset = config.reset_on_boundary
    counted = score_tables(layout, mono, digraphs, junctions, reset_on_boundary=reset)
    if all(map(layout.hand_of, mono.counts)) and not (config.span_boundaries and reset):
        return counted
    report = evaluate(layout, corpus, reset_on_boundary=reset)
    # The loads of the tables are the per-hand monogram sums, exact whatever the layout.
    if replace(counted, hand_switching=report.hand_switching) != report:
        raise CorpusChanged(
            f"the corpus changed while it was read: {counted.total_letters} letters were"
            f" counted, {counted.left_load} left and {counted.right_load} right, and"
            f" {report.total_letters} replayed, {report.left_load} left and"
            f" {report.right_load} right")
    return report


def _write_report(report: EvaluationReport, config: PipelineConfig) -> None:
    out = Path(config.out_dir)
    name = report.layout_name
    write_report_json(report, out / f"report-{name}.json", config_echo=config.echo())
    with atomic_open(out / f"report-{name}.tsv") as handle:
        write_report_tsv(report, handle)


def _write_comparison(reports: Sequence[EvaluationReport], path: str | Path | None) -> None:
    """Print the comparison table, and also write it to ``path`` when one is given."""
    text = format_comparison(compare(reports))
    sys.stdout.write(text)
    if path:
        with atomic_open(path) as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Subcommands. Each takes the parsed namespace and returns an exit code. Each
# reads all of its inputs and computes every stage that can refuse before its
# first write, so a refused command writes no file and makes no directory.

def cmd_stats(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    with spooled(args.corpus) as sources:
        _write_stats_files(_count(_parts(sources, config), config), config)
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.mono or args.digraphs:
        if args.corpus:
            raise ConfigError("give corpus files or --mono/--digraphs tables, not both")
        if not (args.mono and args.digraphs):
            raise ConfigError("--mono and --digraphs must be given together")
        mono = read_ngram_tsv(args.mono)
        digraphs = read_ngram_tsv(args.digraphs)
        if mono.n != 1 or digraphs.n != 2:
            raise ConfigError("--mono must be a 1-gram table and --digraphs a 2-gram table")
        if mono.total_letters != digraphs.total_letters:
            raise ConfigError(f"--mono counts {mono.total_letters} letters and --digraphs"
                              f" {digraphs.total_letters}; the tables come from different corpora")
    else:
        with spooled(args.corpus) as sources:
            mono, digraphs = _count(_parts(sources, config), config)[:2]
    _write_partition(_partition(mono, digraphs, config), mono, config)
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    part, mono = read_partition_json(args.partition)
    layout = build_layout(part, mono, config.geometry, name=args.name)
    write_layout(layout, Path(config.out_dir) / "layout.json")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    layouts = [load_layout(path) for path in args.layouts]
    named: dict[str, str] = {}
    for path, layout in zip(args.layouts, layouts):
        if layout.name in named:
            raise ConfigError(f"{named[layout.name]} and {path} both name their layout"
                              f" {layout.name!r}; their reports would overwrite each other")
        named[layout.name] = path
    reports = evaluate_all(layouts, read_pieces(args.corpus, config.alphabet),
                           reset_on_boundary=config.reset_on_boundary)
    _refuse_empty(reports[0].total_letters)
    for report in reports:
        _write_report(report, config)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _write_comparison([read_report_json(path) for path in args.reports], args.out)
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    check_layout_name(args.name)  # before the corpus is read
    config = resolve_config(args)
    geometry = config.geometry
    with spooled(args.corpus) as sources:
        tables = _count(_parts(sources, config), config)
        mono, digraphs = tables[:2]
        part = _partition(mono, digraphs, config)
        layout = build_layout(part, mono, geometry, name=args.name)
        report = _score_counted(layout, read_pieces(sources, config.alphabet), tables, config)
    out = Path(config.out_dir)
    _write_stats_files(tables, config)
    _write_partition(part, mono, config)
    write_layout(layout, out / "layout.json")
    _write_report(report, config)
    _write_comparison([report], out / "comparison.txt")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry points.

def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as its flags and options."""
    return flags, options


_CORPUS = _arg("corpus", nargs="*", help="corpus text files (stdin when omitted)")
_ALPHABET = _arg("--alphabet", dest="alphabet_path", metavar="JSON",
                 help="alphabet config file (ranges, include, exclude)")
_GEOMETRY = _arg("--geometry", dest="geometry_path", metavar="JSON",
                 help="geometry config file (rows, columns, layers)")
_OUT = _arg("--out", dest="out_dir", metavar="DIR",
            help="directory for output files (default: current)")
_COVERAGE = _arg("--coverage", type=int, metavar="N",
                 help="ignore letters occurring fewer than N times")
_BALANCE = _arg("--balance-tiebreak", dest="balance_tiebreak", action="store_true", default=None,
                help="send mixed-signal letters to the lighter hand")
_RESET = _arg("--reset-on-boundary", dest="reset_on_boundary", action="store_true",
              default=None, help="forget the previous hand at word boundaries")
_SPAN = _arg("--span-boundaries", dest="span_boundaries", action="store_true", default=None,
             help="let n-gram windows cross word boundaries")
_NAME = _arg("--name", default="optimized",
             help="name for the built layout (default: optimized)")

# Each subcommand's help, handler and arguments, in the order of its help text.
COMMANDS = {
    "stats": ("count n-grams and write frequency tables", cmd_stats,
              (_CORPUS, _ALPHABET, _OUT, _SPAN)),
    "partition": ("split the alphabet across two hands", cmd_partition,
                  (_CORPUS, _arg("--mono", metavar="TSV", help="precomputed 1-gram table"),
                   _arg("--digraphs", metavar="TSV", help="precomputed 2-gram table"),
                   _ALPHABET, _OUT, _COVERAGE, _BALANCE, _SPAN)),
    "layout": ("place a partition onto the key grid", cmd_layout,
               (_arg("partition", help="partition.json produced by the partition step"),
                _GEOMETRY, _OUT, _NAME)),
    "evaluate": ("score layouts against a corpus", cmd_evaluate,
                 (_arg("layouts", nargs="+", help="layout JSON files"),
                  _arg("--corpus", nargs="+", required=True, help="corpus text files"),
                  _ALPHABET, _OUT, _RESET)),
    "compare": ("rank evaluation reports by hand switching", cmd_compare,
                (_arg("reports", nargs="+", help="report JSON files"),
                 _arg("--out", metavar="FILE", help="also write the table to a file"))),
    "run-all": ("run the whole pipeline in one go", cmd_run_all,
                (_CORPUS, _ALPHABET, _GEOMETRY, _OUT, _COVERAGE, _BALANCE, _RESET, _SPAN,
                 _NAME)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it is given.

    A parser of one subcommand parses an argv that starts with its name
    as the full parser does, with the same messages: the usage line of an
    error names every subcommand all the same.
    """
    parser = argparse.ArgumentParser(
        prog="layoutforge",
        description="derive and score two-handed keyboard layouts from a text corpus")
    # One subparser's usage line still lists every name. The full parser
    # takes no metavar, which would replace "command" in its errors.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if command else None)
    for name in [command] if command else COMMANDS:
        help_text, handler, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def _report_error(exc: BaseException) -> None:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      ensure_ascii=False)
    print(line, file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (LayoutForgeError, OSError) as exc:
        _report_error(exc)
        return 2
    except Exception as exc:  # a bug, not a usage problem
        _report_error(exc)
        return 1


def run() -> None:
    raise SystemExit(main())
