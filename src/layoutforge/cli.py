"""Command line front end: count, partition, build, score, compare.

Subcommands mirror the pipeline stages and each writes plain files
(TSV for tables, JSON for structured results) so stages can be rerun
and inspected independently. ``run-all`` chains the whole pipeline.
Outputs embed an echo of the knobs that produced them, never the input
paths, so the same inputs give byte-identical files on every run.

Exit codes: 0 on success, 2 for input or usage problems, 1 for bugs.
Errors are reported as a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence, get_type_hints

from .atomic import OptionalField, atomic_open, read_json_object, write_json
from .corpus import AlphabetConfig, LetterStream, normalize_text, read_corpus, tokenize
from .errors import ConfigError, EmptyCorpus, LayoutForgeError
from .evaluator import (EvaluationReport, compare, evaluate, format_comparison,
                        read_report_json, score_tables, write_report_json, write_report_tsv)
from .layout import (Geometry, KeyboardLayout, build_layout, check_layout_name, load_geometry,
                     load_layout, write_layout)
from .partition import (HandPartition, partition_all, read_partition_json,
                        write_partition_json)
from .stats import NGramTable, count_all, read_ngram_tsv, write_ngram_tsv
# Not called here, but bench/spans.py traces layoutforge.cli.count_ngrams.
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


def _read_letters(paths: Sequence[str], config: PipelineConfig) -> LetterStream:
    """The corpus files, or stdin when none are named, under the configured alphabet.

    A corpus without a letter of the alphabet is refused.
    """
    if paths:
        stream = read_corpus(paths, config.alphabet)
    else:
        stream = tokenize(normalize_text(sys.stdin.buffer.read()), config.alphabet)
    if stream.letter_count == 0:
        raise EmptyCorpus("empty corpus: input contains no alphabet letters")
    return stream


def _count(stream: LetterStream, config: PipelineConfig) -> tuple[NGramTable, ...]:
    return count_all(stream, span_boundaries=config.span_boundaries)


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


def _score_counted(layout: KeyboardLayout, stream: LetterStream,
                   tables: Sequence[NGramTable], config: PipelineConfig) -> EvaluationReport:
    """Score a layout against a stream whose tables ``_count`` gave.

    The tables give the replay's report exactly when the layout places
    every counted letter, unless boundaries both span and reset: resets
    need the digraphs within runs, and a spanning count has none of its
    own. Elsewhere, as when ``--coverage`` leaves letters out, the stream
    is replayed.
    """
    mono, digraphs, _trigrams, junctions = tables
    reset = config.reset_on_boundary
    if all(map(layout.hand_of, mono.counts)) and not (config.span_boundaries and reset):
        return score_tables(layout, mono, digraphs, junctions, reset_on_boundary=reset)
    return evaluate(layout, stream, reset_on_boundary=reset)


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
    _write_stats_files(_count(_read_letters(args.corpus, config), config), config)
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
        mono, digraphs = _count(_read_letters(args.corpus, config), config)[:2]
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
    stream = _read_letters(args.corpus, config)
    for layout in layouts:
        _write_report(evaluate(layout, stream, reset_on_boundary=config.reset_on_boundary),
                      config)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _write_comparison([read_report_json(path) for path in args.reports], args.out)
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    check_layout_name(args.name)  # before the corpus is read
    config = resolve_config(args)
    stream = _read_letters(args.corpus, config)
    geometry = config.geometry
    tables = _count(stream, config)
    mono, digraphs = tables[:2]
    part = _partition(mono, digraphs, config)
    layout = build_layout(part, mono, geometry, name=args.name)
    report = _score_counted(layout, stream, tables, config)
    out = Path(config.out_dir)
    _write_stats_files(tables, config)
    _write_partition(part, mono, config)
    write_layout(layout, out / "layout.json")
    _write_report(report, config)
    _write_comparison([report], out / "comparison.txt")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry points.

def _add_common(parser: argparse.ArgumentParser, *, alphabet=False, geometry=False,
                out=True, coverage=False, balance=False, reset=False, span=False,
                name=False) -> None:
    if alphabet:
        parser.add_argument("--alphabet", dest="alphabet_path", metavar="JSON",
                            help="alphabet config file (ranges, include, exclude)")
    if geometry:
        parser.add_argument("--geometry", dest="geometry_path", metavar="JSON",
                            help="geometry config file (rows, columns, layers)")
    if out:
        parser.add_argument("--out", dest="out_dir", metavar="DIR",
                            help="directory for output files (default: current)")
    if coverage:
        parser.add_argument("--coverage", type=int, metavar="N",
                            help="ignore letters occurring fewer than N times")
    if balance:
        parser.add_argument("--balance-tiebreak", dest="balance_tiebreak",
                            action="store_true", default=None,
                            help="send mixed-signal letters to the lighter hand")
    if reset:
        parser.add_argument("--reset-on-boundary", dest="reset_on_boundary",
                            action="store_true", default=None,
                            help="forget the previous hand at word boundaries")
    if span:
        parser.add_argument("--span-boundaries", dest="span_boundaries",
                            action="store_true", default=None,
                            help="let n-gram windows cross word boundaries")
    if name:
        parser.add_argument("--name", default="optimized",
                            help="name for the built layout (default: optimized)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layoutforge",
        description="derive and score two-handed keyboard layouts from a text corpus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="count n-grams and write frequency tables")
    p.add_argument("corpus", nargs="*", help="corpus text files (stdin when omitted)")
    _add_common(p, alphabet=True, span=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("partition", help="split the alphabet across two hands")
    p.add_argument("corpus", nargs="*", help="corpus text files (stdin when omitted)")
    p.add_argument("--mono", metavar="TSV", help="precomputed 1-gram table")
    p.add_argument("--digraphs", metavar="TSV", help="precomputed 2-gram table")
    _add_common(p, alphabet=True, coverage=True, balance=True, span=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("layout", help="place a partition onto the key grid")
    p.add_argument("partition", help="partition.json produced by the partition step")
    _add_common(p, geometry=True, name=True)
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("evaluate", help="score layouts against a corpus")
    p.add_argument("layouts", nargs="+", help="layout JSON files")
    p.add_argument("--corpus", nargs="+", required=True, help="corpus text files")
    _add_common(p, alphabet=True, reset=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="rank evaluation reports by hand switching")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--out", metavar="FILE", help="also write the table to a file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run-all", help="run the whole pipeline in one go")
    p.add_argument("corpus", nargs="*", help="corpus text files (stdin when omitted)")
    _add_common(p, alphabet=True, geometry=True, coverage=True, balance=True,
                reset=True, span=True, name=True)
    p.set_defaults(func=cmd_run_all)

    return parser


def _report_error(exc: BaseException) -> None:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      ensure_ascii=False)
    print(line, file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
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
