"""Run one workload's CLI calls in this process, pass after pass, for a set time.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan lists the argument vectors of one pass; ``{out}`` in an argument
stands for that pass's own output directory. Each pass calls
``layoutforge.cli.main`` for every vector in turn and is timed from the
first call to the last return. The first pass is a warm-up: its outputs
are checked and its peak RSS counts, but its time does not. Every later
pass must write the same bytes; only the first pass's files are kept.

With tracing on, passes alternate traced and untraced, starting traced, so
the traced and untraced times come from the same stretch of the run and
their difference is the tracing overhead. With tracing off, the fixed
reference task of calibrate.py runs before every pass and after the last,
for half as long as a pass, so the machine's speed is read throughout the
same stretch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import spans

OUT = "{out}"


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def run(plan: dict) -> dict:
    from layoutforge import cli

    tracer = spans.Tracer() if plan["trace"] else None
    passes_dir = Path(plan["passes_dir"])
    walls, traced_flags, digests, failures = [], [], [], []
    reference_walls = []
    cycles = []  # seconds from the start of each pass's reference readings to its end
    calls = 0
    minimum = 3 if tracer else 2
    started = time.perf_counter()
    k = 0
    # Stop before a pass that would end past the measured seconds.
    while k < minimum or (time.perf_counter() - started + statistics.median(cycles)
                          <= plan["seconds"]):
        c0 = time.perf_counter()
        if tracer is None:
            reference_walls += calibrate.readings(calibrate.READING_SHARE * walls[-1]
                                                  if walls else 0.0)
        traced = tracer is not None and k % 2 == 0
        if tracer is not None:
            tracer.run = k
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        out = passes_dir / f"pass{k:03d}"
        argvs = [[arg.replace(OUT, str(out)) for arg in argv] for argv in plan["steps"]]
        codes = []
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                codes.append(cli.main(argv))
        walls.append(time.perf_counter() - t0)
        traced_flags.append(traced)
        calls += len(argvs)
        failures += [{"argv": argv, "code": code, "output": sink.getvalue()[-500:]}
                     for argv, code in zip(argvs, codes) if code != 0]
        digests.append(tree_digest(out) if out.is_dir() else "missing")
        if k > 0:
            shutil.rmtree(out, ignore_errors=True)
        cycles.append(time.perf_counter() - c0)
        k += 1
    if tracer is not None:
        tracer.uninstall()
    else:
        reference_walls += calibrate.readings(calibrate.READING_SHARE * walls[-1])

    result = {"walls": walls[1:], "reference_walls": reference_walls, "passes": len(walls),
              "calls": calls, "failures": failures, "digests": digests,
              "peak_rss_mb": spans.peak_rss_mb()}
    if tracer is not None:
        timed_traced = [i for i in range(1, len(walls)) if traced_flags[i]]
        untraced = [walls[i] for i in range(1, len(walls)) if not traced_flags[i]]
        layers = spans.layer_metrics(tracer, 0, timed_traced)
        layers["trace.overhead_s"] = (statistics.median(walls[i] for i in timed_traced)
                                      - statistics.median(untraced))
        result.update(layers=layers, absent=tracer.absent)
        with open(plan["spans_file"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
    return result


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    result = run(plan)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
