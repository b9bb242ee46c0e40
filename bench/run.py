"""layoutforge benchmark: one workload, measured end to end or traced per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

- corpus-2mb: ``run-all`` over three ~0.7 MB generated Bangla-like files.
- tables-wide: ``partition --mono/--digraphs`` then ``layout --geometry``
  over 4 coverage floors x balance tiebreak off/on, on the tables of a
  179-letter Devanagari + Bangla corpus.

A run generates (or reuses) its seeded inputs, measures the program's
start-up in separate interpreters, runs the workload's passes in one fresh
worker process for the given seconds, then checks every output against an
independent reference. Besides the start-up probes, only the passes and,
between them, a fixed reference task (calibrate.py) that reads the
machine's speed are timed; ``wall_s`` is the median pass time at the
reference speed. The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` operations (CLI calls and output
checks), and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import calibrate
import inputs
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".bench_work")
SETUP_CODE = "import layoutforge.cli as cli; cli.build_parser()"
SETUP_SPAWNS = 8  # before the worker and again after it
WORKER_TIMEOUT_S = 120  # beyond the measured seconds

# Generated input sizes. The benchmark is sized for 4 + 22 x (workloads)
# runs within 57 minutes, and a fresh seed means fresh inputs, so passes
# take 2 to 4 s: enough of them per run for a steady median.
CORPUS_FILE_BYTES = 700_000
TABLES_LETTERS = 300_000
SMOKE_TABLES_LETTERS = 20_000
# Coverage floors for tables-wide, per million letters of its corpus: all
# 179 letters, then about 85, 30 and 11 of them.
COVERAGE_PPM = (0, 3_333, 8_333, 16_667)


@dataclass
class Plan:
    """What one run executes and how its outputs are checked."""

    steps: list[list[str]]
    check: Callable[[Path], list[tuple[str, list[str]]]]  # first pass dir -> (name, problems)
    setup_calls: list[list[str]] = field(default_factory=list)
    setup_checks: Callable[[], list[tuple[str, list[str]]]] | None = None


def _argv_paths(paths) -> list[str]:
    return [str(p) for p in paths]


def _table_checks(directory: Path, grams: dict, total: int):
    return [(f"{name} table", reference.check_ngram_tsv(directory / name, grams[n], n, total))
            for n, name in ((1, "monograms.tsv"), (2, "digraphs.tsv"), (3, "trigrams.tsv"))]


def plan_corpus(root: Path, seed: int, smoke: bool, work: Path) -> Plan:
    files = (list(inputs.SAMPLE_FILES) if smoke
             else inputs.bangla_corpus(root, seed, CORPUS_FILE_BYTES))
    steps = [["run-all", *_argv_paths(files), "--out", "{out}"]]

    def check(out: Path):
        runs = reference.letter_runs([root / p for p in files], reference.BANGLA)
        grams = {n: reference.ngram_counts(runs, n) for n in (1, 2, 3)}
        total = sum(grams[1].values())
        expected = reference.greedy_partition(grams[1], grams[2], total, coverage=1,
                                              balance=False)
        return _table_checks(out, grams, total) + [
            ("summary", reference.check_summary(out / "summary.json", grams[1])),
            ("partition", reference.check_partition(out / "partition.json", expected)),
            ("layout hands", reference.check_layout_on_hands(out / "layout.json", expected)),
            ("report", reference.check_report(out / "report-optimized.json", "".join(runs),
                                              reference.layout_hands(out / "layout.json"))),
        ]

    return Plan(steps=steps, check=check)


def plan_tables(root: Path, seed: int, smoke: bool, work: Path) -> Plan:
    letters = SMOKE_TABLES_LETTERS if smoke else TABLES_LETTERS
    given = inputs.two_script_tables_inputs(root, seed, letters)
    tables = work / "tables"
    settings = [(max(1, round(letters * ppm / 1e6)), balance)
                for ppm in COVERAGE_PPM for balance in (False, True)]
    steps = []
    for j, (coverage, balance) in enumerate(settings):
        out = f"{{out}}/setting{j}"
        steps.append(["partition", "--mono", str(tables / "monograms.tsv"),
                      "--digraphs", str(tables / "digraphs.tsv"),
                      "--coverage", str(coverage), *(["--balance-tiebreak"] if balance else []),
                      "--out", out])
        steps.append(["layout", f"{out}/partition.json", "--geometry", str(given["geometry"]),
                      "--out", out])
    setup = [["stats", str(given["corpus"]), "--alphabet", str(given["alphabet"]),
              "--out", str(tables)]]
    grams: dict[int, object] = {}

    def setup_checks():
        runs = reference.letter_runs([root / given["corpus"]], reference.TWO_SCRIPT)
        grams.update({n: reference.ngram_counts(runs, n) for n in (1, 2, 3)})
        return _table_checks(root / tables, grams, sum(grams[1].values()))

    def check(out: Path):
        total = sum(grams[1].values())
        results = []
        for j, (coverage, balance) in enumerate(settings):
            expected = reference.greedy_partition(grams[1], grams[2], total,
                                                  coverage=coverage, balance=balance)
            setting = out / f"setting{j}"
            results.append((f"partition {j}",
                            reference.check_partition(setting / "partition.json", expected)))
            results.append((f"layout hands {j}",
                            reference.check_layout_on_hands(setting / "layout.json", expected)))
        return results

    return Plan(steps=steps, check=check, setup_calls=setup, setup_checks=setup_checks)


WORKLOADS = {"corpus-2mb": plan_corpus, "tables-wide": plan_tables}


# ---------------------------------------------------------------------------

def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def program_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def probe_setup(root: Path, count: int) -> list[float]:
    """Wall seconds of ``count`` fresh interpreters that import the CLI and build its parser."""
    env = program_env(root)
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        # No timeout: with one, subprocess polls with sleeps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(root: Path, plan: Plan, work: Path, seconds: float, trace: bool,
               spans_file: Path) -> dict:
    plan_file, result_file = work / "plan.json", work / "result.json"
    plan_file.write_text(json.dumps({
        "steps": plan.steps, "seconds": seconds, "trace": trace,
        "passes_dir": str(work / "passes"), "spans_file": str(spans_file)}), encoding="utf-8")
    subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                    str(plan_file), str(result_file)],
                   cwd=root, env=program_env(root), check=True,
                   timeout=seconds + WORKER_TIMEOUT_S)
    return json.loads(result_file.read_text(encoding="utf-8"))


@dataclass
class Tally:
    """Operations attempted and failed: CLI calls and output checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def calls(self, count: int, failures: list[dict]) -> None:
        self.attempted += count
        self.failed += len(failures)
        self.problems += [f"exit {f['code']}: layoutforge {' '.join(f['argv'])}: "
                          f"{f['output'].strip()}" for f in failures]

    def checks(self, results) -> None:
        for name, problems in results:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"check {name}: {p}" for p in problems]


def check_digests(root: Path, workload: str, seed: int, smoke: bool,
                  digests: list[str]) -> list[tuple[str, list[str]]]:
    """Every pass, and every earlier run of this seed on this source, wrote the same bytes."""
    results = [(f"pass {k} bytes", [] if d == digests[0] else
                [f"pass {k} wrote different output files than pass 0"])
               for k, d in enumerate(digests[1:], start=1)]
    store = root / inputs.CACHE_DIR / "digests"
    store.mkdir(parents=True, exist_ok=True)
    key = store / f"{workload}-s{seed}{'-smoke' if smoke else ''}-{source_digest(root)}"
    if key.exists():
        earlier = key.read_text(encoding="utf-8").strip()
        results.append(("bytes across runs", [] if earlier == digests[0] else
                        ["output files differ from an earlier run with this seed"]))
    else:
        key.write_text(digests[0] + "\n", encoding="utf-8")
    return results


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, *,
                  smoke: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the human-readable lines."""
    root = ROOT
    work = root / WORK_DIR / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_file = root / WORK_DIR / f"spans-{workload}-s{seed}.jsonl"
    try:
        plan = WORKLOADS[workload](root, seed, smoke, work.relative_to(root))
        tally = Tally()
        for argv in plan.setup_calls:
            done = subprocess.run([sys.executable, "-m", "layoutforge", *argv], cwd=root,
                                  env=program_env(root), capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
            tally.calls(1, [] if done.returncode == 0 else
                        [{"argv": argv, "code": done.returncode, "output": done.stderr}])
        if plan.setup_checks is not None:
            tally.checks(plan.setup_checks())
        spawns = 1 if smoke else SETUP_SPAWNS
        setup = probe_setup(root, spawns)
        result = run_worker(root, plan, work, seconds, trace, spans_file)
        setup += probe_setup(root, spawns)
        tally.calls(result["calls"], result["failures"])
        tally.checks(plan.check(root / work / "passes" / "pass000"))
        tally.checks(check_digests(root, workload, seed, smoke, result["digests"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [f"workload {workload}  seed {seed}  passes {result['passes']} "
             f"(first is warm-up)  trace {int(trace)}"]
    if trace:
        metrics = {name: {"value": value, "unit": spans.METRICS[name][0]}
                   for name, value in result["layers"].items()}
        if result["absent"]:
            lines.append("absent (metrics needing them are left out): "
                         + ", ".join(result["absent"]))
        lines.append(f"spans written to {spans_file.relative_to(root)}")
    else:
        raw_wall = statistics.median(result["walls"])
        reference_wall = statistics.median(result["reference_walls"])
        metrics = {
            "wall_s": {"value": raw_wall * calibrate.REFERENCE_S / reference_wall, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        lines.append(f"wall_s median of {len(result['walls'])} passes, {raw_wall:.4f} s as "
                     f"timed, scaled to the reference speed: the reference task took a median "
                     f"{reference_wall:.4f} s over {len(result['reference_walls'])} runs, "
                     f"against {calibrate.REFERENCE_S} s; setup_s median of {len(setup)} "
                     f"interpreter starts")
        lines.append("pass times (s): " + " ".join(f"{w:.4f}" for w in result["walls"]))
        lines.append("reference task times (s): "
                     + " ".join(f"{w:.4f}" for w in result["reference_walls"]))
    for name, metric in metrics.items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    rate = tally.failed / tally.attempted
    lines.append(f"error_rate {rate:.6g} ratio ({tally.failed} of {tally.attempted} "
                 f"operations failed)")
    lines += tally.problems[:20]
    return ({"correct": tally.failed == 0, "attempted": tally.attempted,
             "failed": tally.failed, "metrics": metrics}, lines)


def main(argv: list[str] | None = None, *, smoke: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (Path("src") / "layoutforge" / "cli.py", inputs.GENERATOR)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a layoutforge checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                  smoke=smoke)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
