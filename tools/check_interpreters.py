"""Check that every given Python interpreter writes the pipeline's bytes.

    python3 tools/check_interpreters.py python3.10 python3.11 python3.12 python3.13

Each interpreter (this one when none is given) runs, under ``-W error``:

- ``run-all`` over ``data/bn_sample`` with the default flags and with the
  replayed flag set ``coverage 50``, and with ``coverage 50`` once more
  from the sample's bytes on stdin, which is spooled to a temporary file
  and then counted and replayed as the named files are; every file and
  the stdout must match the golden digests of
  ``tests/test_run_all_scores.py``;
- ``partition --mono --digraphs`` from the tables the default run wrote,
  then ``layout`` from its partition, once with the default coverage,
  where the partition sums involvement in one pass over the digraph rows,
  and once at ``--coverage 500``, where it sums involvement per scored
  letter; these files and stdouts must be the same bytes under every
  interpreter;
- ``stats`` over the sample with six of its letters retyped as the
  characters a regex class escapes and ``&`` (``RETYPED_LETTERS``), once
  under each alphabet of ``ALPHABETS``: the Bengali block and the space,
  and those six characters alone; these files and stdouts must be the
  same bytes under every interpreter;
- ``stats`` over the sample's files copied until they hold 600 KiB or
  more, once from the named files and once from their bytes on stdin,
  both counted in parts on a machine with two CPUs or more; both runs
  must write the same bytes;
- the scan of every code point in ``tests/test_nfc_check.py``
  (``primary_composites``), which must find the second character of
  every primary composite of the interpreter's Unicode tables to be one
  that ``corpus._joins_previous`` accepts, since a block passed as NFC
  without normalizing rests on it;
- ``stats`` over the sample retyped as ``tests/test_nfc_check.py``
  retypes it, NFC in its first block and decomposed after, and over the
  NFC text of the same; both runs must write the same bytes;
- each argv of ``ARGV_MATRIX`` in ``tests/test_parser.py``, parsed by the
  full parser and by the parser of its subcommand alone, which ``main``
  builds; both must print the same bytes, exit with the same code, or
  parse to the same namespace (argparse's help and usage text differs
  between Python versions, so each interpreter is checked against itself).

The golden digests, flag sets, argvs and retyped characters are read
from the test files' source with ``ast.literal_eval``, and the code point
scan is its function's source, so the script needs neither pytest nor
hypothesis.
It prints one line per check and exits 1 on any mismatch or failed run.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import unicodedata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = [str(path) for path in sorted((ROOT / "data" / "bn_sample").glob("*.txt"))]
CHECKED_FLAG_SETS = ("defaults", "coverage 50")
# The partitions from tables: the first sums involvement in one pass over
# the digraph rows, the second (8 letters scored) per scored letter.
PARTITION_FLAG_SETS = ([], ["--coverage", "500"])
# Letters of the sample retyped as characters that a regex class escapes, and
# alphabets that ``stats`` runs under over the retyped sample: one that holds
# the space, and one of the retyped characters alone.
RETYPED_LETTERS = str.maketrans("\u0995\u09b0\u09be\u09c7\u09bf\u09a8", "-]^\\[&")
ALPHABETS = {"space": {"ranges": [["U+0980", "U+09FF"]], "include": [" "]},
             "specials": {"ranges": [], "include": list("-]^\\[&")}}
# Above the 512 KiB a corpus needs before it is counted in parts.
SPLIT_BYTES = 600 << 10


# Run under each interpreter: prints each argv whose parse differs between
# the full parser and the parser of its subcommand alone, one JSON list a line.
PARSER_PROBE = """
import contextlib, io, json, sys
from layoutforge.cli import build_parser

def outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode(), namespace

for argv in json.loads(sys.stdin.read()):
    if outcome(build_parser(argv[0]), argv) != outcome(build_parser(), argv):
        print(json.dumps(argv))
"""

# Run under each interpreter, behind the source of ``primary_composites``:
# prints each primary composite whose second character ``_joins_previous``
# refuses, one code point a line.
COMPOSITES_PROBE = """
import unicodedata
from layoutforge.corpus import _joins_previous
{source}
for composite, _, second in primary_composites():
    if not _joins_previous(second):
        print(f"U+{{ord(composite):04X}}")
"""


def function_source(filename: str, name: str) -> str:
    """The source of the module-level function ``name`` in ``tests/<filename>``."""
    text = (ROOT / "tests" / filename).read_text(encoding="utf-8")
    node, = (node for node in ast.parse(text).body
             if isinstance(node, ast.FunctionDef) and node.name == name)
    return ast.get_source_segment(text, node)


def literals_of(filename: str, *names: str) -> list:
    """The values of the module-level literals ``names`` in ``tests/<filename>``."""
    tree = ast.parse((ROOT / "tests" / filename).read_text(encoding="utf-8"))
    values = {target.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for target in node.targets
              if isinstance(target, ast.Name) and target.id in names}
    return [values[name] for name in names]


def run(python: str, argv: list[str], stdin: bytes | None = None) -> bytes:
    """The stdout of one CLI call under ``python``, fed ``stdin`` if given; RuntimeError with
    its stderr if it fails. An argv that starts with ``-c`` runs that code instead."""
    env = {key: value for key, value in os.environ.items() if key != "LAYOUTFORGE_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    command = argv if argv[0] == "-c" else ["-m", "layoutforge", *argv]
    done = subprocess.run([python, "-W", "error", *command],
                          env=env, input=stdin, capture_output=True, timeout=300)
    if done.returncode:
        raise RuntimeError(f"exit {done.returncode} from {argv[0]}:\n"
                           f"{done.stderr.decode('utf-8', 'replace')}")
    return done.stdout


def written(stdout: bytes, out: Path) -> dict[str, bytes]:
    """The stdout of a call and every file it wrote, by name."""
    return {"stdout": stdout, **{path.name: path.read_bytes() for path in sorted(out.iterdir())}}


def check(python: str, work: Path, flag_sets: dict, golden: dict) -> tuple[list[str], dict]:
    """The mismatches of ``python`` against the golden digests, and its partition and layout."""
    faults = []
    piped = b"".join(Path(path).read_bytes() for path in SAMPLE)
    for key, stdin in [(key, None) for key in CHECKED_FLAG_SETS] + [("coverage 50", piped)]:
        label = f"run-all {key}" + (" from stdin" if stdin else "")
        out = work / label.replace(" ", "-")
        files = written(run(python, ["run-all", *([] if stdin else SAMPLE), "--out", str(out),
                                     *flag_sets[key]], stdin=stdin), out)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        faults += [f"{label}: {name}" for name in sorted(digests.keys() | golden[key].keys())
                   if digests.get(name) != golden[key].get(name)]
    tables, files = work / "run-all-defaults", {}
    for i, flags in enumerate(PARTITION_FLAG_SETS):
        out = work / f"tables{i}"
        stdout = run(python, ["partition", "--mono", str(tables / "monograms.tsv"),
                              "--digraphs", str(tables / "digraphs.tsv"), *flags,
                              "--out", str(out)])
        stdout += run(python, ["layout", str(out / "partition.json"), "--out", str(out)])
        files.update((f"{' '.join(['partition', *flags])}: {name}", data)
                     for name, data in written(stdout, out).items())
    files.update(check_alphabets(python, work))
    return (faults + check_parts(python, work) + check_nfc(python, work)
            + check_parser(python)), files


def check_alphabets(python: str, work: Path) -> dict[str, bytes]:
    """What ``stats`` writes over the retyped sample under each alphabet of ``ALPHABETS``."""
    corpus = work / "retyped.txt"
    corpus.write_text("".join(Path(path).read_text(encoding="utf-8") for path in SAMPLE)
                      .translate(RETYPED_LETTERS), encoding="utf-8")
    files = {}
    for name, doc in ALPHABETS.items():
        alphabet, out = work / f"{name}.json", work / f"alphabet-{name}"
        alphabet.write_text(json.dumps(doc), encoding="utf-8")
        stdout = run(python, ["stats", str(corpus), "--alphabet", str(alphabet),
                              "--out", str(out)])
        files.update((f"stats under the {name} alphabet: {file}", data)
                     for file, data in written(stdout, out).items())
    return files


def check_parts(python: str, work: Path) -> list[str]:
    """The mismatch, if any, of ``stats`` over copies of the sample: named files against stdin."""
    copies = work / "copies"
    copies.mkdir()
    data = [Path(path).read_bytes() for path in SAMPLE]
    count = len(data) * (SPLIT_BYTES // sum(map(len, data)) + 1)
    chunks = list(itertools.islice(itertools.cycle(data), count))
    paths = [copies / f"{i}.txt" for i in range(count)]
    for path, chunk in zip(paths, chunks):
        path.write_bytes(chunk)
    named, piped = work / "named", work / "piped"
    named_files = written(run(python, ["stats", *map(str, paths), "--out", str(named)]), named)
    piped_files = written(run(python, ["stats", "--out", str(piped)], stdin=b"".join(chunks)),
                          piped)
    return [f"stats from named files and from stdin: {name}"
            for name in sorted(named_files.keys() | piped_files.keys())
            if named_files.get(name) != piped_files.get(name)]


def check_nfc(python: str, work: Path) -> list[str]:
    """The composites whose second character ``_joins_previous`` refuses, and the mismatch, if
    any, of ``stats`` over the retyped sample against its NFC text."""
    probe = COMPOSITES_PROBE.format(source=function_source("test_nfc_check.py",
                                                           "primary_composites"))
    faults = [f"a primary composite joins nothing before it: {line}"
              for line in run(python, ["-c", probe]).decode().splitlines()]
    first_words, retyped = literals_of("test_nfc_check.py", "FIRST_WORDS", "RETYPED")
    texts = [Path(path).read_text(encoding="utf-8") for path in SAMPLE]
    later = "".join(texts[1:])
    for old, new, count in retyped:
        later = later.replace(old, new, count)
    text = first_words + texts[0] + later
    files = []
    for name, data in [("typed", text), ("nfc", unicodedata.normalize("NFC", text))]:
        (work / f"{name}.txt").write_text(data, encoding="utf-8")
        out = work / name
        files.append(written(run(python, ["stats", str(work / f"{name}.txt"), "--out", str(out)]),
                             out))
    return faults + [f"stats from retyped and from NFC text: {name}"
                     for name in sorted(files[0].keys() | files[1].keys())
                     if files[0].get(name) != files[1].get(name)]


def check_parser(python: str) -> list[str]:
    """The argvs of the matrix that one subcommand's parser and the full one parse apart."""
    matrix, = literals_of("test_parser.py", "ARGV_MATRIX")
    differ = run(python, ["-c", PARSER_PROBE], stdin=json.dumps(matrix).encode())
    return [f"parsers of one and of every subcommand differ on {line}"
            for line in differ.decode().splitlines()]


def main(pythons: list[str]) -> int:
    flag_sets, golden = literals_of("test_run_all_scores.py", "FLAG_SETS", "GOLDEN")
    failed = False
    first = None
    with tempfile.TemporaryDirectory() as temp:
        for i, python in enumerate(pythons):
            try:
                faults, files = check(python, Path(temp) / str(i), flag_sets, golden)
            except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{python}: FAILED {exc}")
                failed = True
                continue
            first = first or (python, files)
            if files != first[1]:
                faults.append(f"partition and layout differ from {first[0]}: "
                              + ", ".join(name for name in sorted(files.keys() | first[1].keys())
                                          if files.get(name) != first[1].get(name)))
            print(f"{python}: " + ("ok" if not faults else "MISMATCH " + "; ".join(faults)))
            failed = failed or bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable]))
