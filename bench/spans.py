"""Outside-in tracing of layoutforge: spans around calls into each module.

The tracer replaces each public function at the name its caller looks it
up by (``layoutforge.cli.count_ngrams``, ``layoutforge.corpus.tokenize``
that ``read_corpus`` calls, ``layoutforge.partition.side_scores``), so no
file of the program changes. Every call becomes a span: name, parent span,
run id (the pass number), start, end, and a count read from its
arguments or result at the same boundary. Spans stay in memory until the
worker writes them out at the end of the run.

A name that no longer exists (say, once counting is fused into one call)
is recorded as absent, and every metric that needs it is left out of the
result instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
from time import perf_counter


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _letters_scored(args, kwargs, result):
    return result.left_load + result.right_load + result.not_determined


# (module, attribute, span name, count taken at the call, record peak-RSS rise)
BINDINGS = (
    ("layoutforge.cli", "main", "cli.main", None, False),
    ("layoutforge.cli", "read_corpus", "corpus.read_corpus",
     lambda a, k, r: r.letter_count, True),
    ("layoutforge.cli", "normalize_text", "corpus.normalize_text", _first_arg_len, False),
    ("layoutforge.cli", "tokenize", "corpus.tokenize", None, False),
    ("layoutforge.corpus", "normalize_text", "corpus.normalize_text", _first_arg_len, False),
    ("layoutforge.corpus", "tokenize", "corpus.tokenize", None, False),
    ("layoutforge.corpus", "concat_streams", "corpus.concat_streams", None, False),
    ("layoutforge.cli", "count_ngrams", "stats.count_ngrams",
     lambda a, k, r: r.n, True),
    ("layoutforge.cli", "write_ngram_tsv", "stats.write_ngram_tsv", None, False),
    ("layoutforge.cli", "read_ngram_tsv", "stats.read_ngram_tsv",
     lambda a, k, r: len(r.counts), False),
    ("layoutforge.partition", "side_scores", "stats.side_scores", None, False),
    ("layoutforge.cli", "partition_all", "partition.partition_all",
     lambda a, k, r: len(r.left) + len(r.right), False),
    ("layoutforge.cli", "write_partition_json", "partition.write_partition_json", None, False),
    ("layoutforge.cli", "read_partition_json", "partition.read_partition_json", None, False),
    ("layoutforge.cli", "build_layout", "layout.build_layout",
     lambda a, k, r: len(r.assignment), False),
    ("layoutforge.cli", "load_geometry", "layout.load_geometry", None, False),
    ("layoutforge.cli", "write_layout", "layout.write_layout", None, False),
    ("layoutforge.cli", "evaluate", "evaluator.evaluate", _letters_scored, False),
    ("layoutforge.cli", "write_report_json", "evaluator.write_report_json", None, False),
    ("layoutforge.cli", "write_report_tsv", "evaluator.write_report_tsv", None, False),
    ("layoutforge.cli", "compare", "evaluator.compare", None, False),
    ("layoutforge.cli", "format_comparison", "evaluator.format_comparison", None, False),
)


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    VmHWM belongs to the address space made at exec. getrusage's ru_maxrss
    is only the fallback: Linux carries it over from the parent across
    fork and exec, so a large parent would mask the worker's own peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Span:
    __slots__ = ("index", "name", "parent", "run", "start", "end", "count", "rss_gain_mb")

    def __init__(self, index, name, parent, run):
        self.index, self.name, self.parent, self.run = index, name, parent, run
        self.start = self.end = 0.0
        self.count = None
        self.rss_gain_mb = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.index, "name": self.name, "parent": self.parent, "run": self.run,
                "start": self.start, "end": self.end, "count": self.count}


class Tracer:
    """Wraps the bindings while installed; spans accumulate across installs."""

    def __init__(self, bindings=BINDINGS):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        self.present: set[str] = set()
        for module_name, attr, name, counter, rss in bindings:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.present.add(name)
            self._wrapped.append((module, attr, original,
                                  self._wrap(original, name, counter, rss)))
        # A span name is only trusted when every binding that feeds it exists.
        self.present -= {name for module_name, attr, name, _c, _r in bindings
                         if f"{module_name}.{attr}" in self.absent}

    def install(self) -> None:
        for module, attr, _original, wrapper in self._wrapped:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._wrapped:
            setattr(module, attr, original)

    def _wrap(self, fn, name, counter, rss):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None, self.run)
            stack.append(span.index)
            spans.append(span)
            before = peak_rss_mb() if rss else 0.0
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if rss:
                span.rss_gain_mb = peak_rss_mb() - before
            if counter is not None:
                try:
                    span.count = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span.count = None
            return result

        return traced


# ---------------------------------------------------------------------------
# Per-layer metrics of one pass. Each entry: name -> (unit, better, span
# names it needs, function of a PassView).

class _Missing(Exception):
    """A count the metric needs was not readable at its boundary."""


class PassView:
    """The spans of one pass, with the sums the metric table is written in."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        child_seconds: dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                child_seconds[span.parent] = child_seconds.get(span.parent, 0.0) + span.seconds
        self.self_seconds = [span.seconds - child_seconds.get(span.index, 0.0) for span in spans]
        mains = {s.index for s in spans if s.name == "cli.main"}
        self.main_seconds = sum(s.seconds for s in spans if s.name == "cli.main")
        self.entry_seconds: dict[str, float] = {}
        for span in spans:
            if span.parent in mains:
                layer = span.name.split(".")[0]
                self.entry_seconds[layer] = self.entry_seconds.get(layer, 0.0) + span.seconds

    def t(self, name: str, where=None) -> float:
        return sum((s.seconds for s in self.spans
                    if s.name == name and (where is None or where(s.count))), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def k(self, name: str) -> float:
        total = 0
        for s in self.spans:
            if s.name == name:
                if s.count is None:
                    raise _Missing(name)
                total += s.count
        return total

    def rss(self, name: str) -> float:
        return sum((s.rss_gain_mb for s in self.spans if s.name == name), 0.0)

    def layer_self(self, layer: str) -> float:
        return sum((sec for s, sec in zip(self.spans, self.self_seconds)
                    if s.name.split(".")[0] == layer), 0.0)

    def share(self, layer: str) -> float:
        if not self.main_seconds:
            return 0.0
        seconds = self.layer_self("cli") if layer == "cli" else self.entry_seconds.get(layer, 0.0)
        return 100.0 * seconds / self.main_seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_ALL = {binding[2] for binding in BINDINGS}
_EVAL = ("evaluator.evaluate",)
_RSS = "rss"  # metrics read from the first (warm-up) pass, where peak RSS can still rise

METRICS = {
    "corpus.normalize_s": ("s", "lower", ("corpus.normalize_text",),
                           lambda v: v.t("corpus.normalize_text")),
    "corpus.tokenize_s": ("s", "lower", ("corpus.tokenize",), lambda v: v.t("corpus.tokenize")),
    "corpus.concat_s": ("s", "lower", ("corpus.concat_streams",),
                        lambda v: v.t("corpus.concat_streams")),
    "corpus.bytes_in": ("bytes", "higher", ("corpus.normalize_text",),
                        lambda v: v.k("corpus.normalize_text")),
    "corpus.letters": ("count", "higher", ("corpus.read_corpus",),
                       lambda v: v.k("corpus.read_corpus")),
    "corpus.mb_per_s": ("MB/s", "higher", ("corpus.normalize_text", "corpus.read_corpus"),
                        lambda v: _ratio(v.k("corpus.normalize_text") / 1e6,
                                         v.t("corpus.read_corpus"))),
    "corpus.rss_gain_mb": ("MB", "lower", ("corpus.read_corpus",), _RSS),
    "corpus.self_s": ("s", "lower", _ALL, lambda v: v.layer_self("corpus")),
    "corpus.share": ("%", "lower", _ALL, lambda v: v.share("corpus")),
    "stats.count_calls": ("count", "lower", ("stats.count_ngrams",),
                          lambda v: v.calls("stats.count_ngrams")),
    "stats.count_n1_s": ("s", "lower", ("stats.count_ngrams",),
                         lambda v: v.t("stats.count_ngrams", lambda n: n == 1)),
    "stats.count_n2_s": ("s", "lower", ("stats.count_ngrams",),
                         lambda v: v.t("stats.count_ngrams", lambda n: n == 2)),
    "stats.count_n3_s": ("s", "lower", ("stats.count_ngrams",),
                         lambda v: v.t("stats.count_ngrams", lambda n: n == 3)),
    "stats.count_s": ("s", "lower", ("stats.count_ngrams",),
                      lambda v: v.t("stats.count_ngrams")),
    "stats.tsv_write_s": ("s", "lower", ("stats.write_ngram_tsv",),
                          lambda v: v.t("stats.write_ngram_tsv")),
    "stats.tsv_read_s": ("s", "lower", ("stats.read_ngram_tsv",),
                         lambda v: v.t("stats.read_ngram_tsv")),
    "stats.tsv_rows_read": ("count", "lower", ("stats.read_ngram_tsv",),
                            lambda v: v.k("stats.read_ngram_tsv")),
    "stats.side_scores_calls": ("count", "lower", ("stats.side_scores",),
                                lambda v: v.calls("stats.side_scores")),
    "stats.side_scores_s": ("s", "lower", ("stats.side_scores",),
                            lambda v: v.t("stats.side_scores")),
    "stats.rss_gain_mb": ("MB", "lower", ("stats.count_ngrams",), _RSS),
    "stats.self_s": ("s", "lower", _ALL, lambda v: v.layer_self("stats")),
    "stats.share": ("%", "lower", _ALL, lambda v: v.share("stats")),
    "partition.s": ("s", "lower", ("partition.partition_all",),
                    lambda v: v.t("partition.partition_all")),
    "partition.letters": ("count", "higher", ("partition.partition_all",),
                          lambda v: v.k("partition.partition_all")),
    "partition.json_write_s": ("s", "lower", ("partition.write_partition_json",),
                               lambda v: v.t("partition.write_partition_json")),
    "partition.json_read_s": ("s", "lower", ("partition.read_partition_json",),
                              lambda v: v.t("partition.read_partition_json")),
    "partition.self_s": ("s", "lower", _ALL, lambda v: v.layer_self("partition")),
    "partition.share": ("%", "lower", _ALL, lambda v: v.share("partition")),
    "layout.build_s": ("s", "lower", ("layout.build_layout",),
                       lambda v: v.t("layout.build_layout")),
    "layout.keys": ("count", "higher", ("layout.build_layout",),
                    lambda v: v.k("layout.build_layout")),
    "layout.write_s": ("s", "lower", ("layout.write_layout",),
                       lambda v: v.t("layout.write_layout")),
    "layout.self_s": ("s", "lower", _ALL, lambda v: v.layer_self("layout")),
    "layout.share": ("%", "lower", _ALL, lambda v: v.share("layout")),
    "evaluator.evaluate_calls": ("count", "lower", _EVAL,
                                 lambda v: v.calls("evaluator.evaluate")),
    "evaluator.evaluate_s": ("s", "lower", _EVAL, lambda v: v.t("evaluator.evaluate")),
    "evaluator.letters_scored": ("count", "higher", _EVAL,
                                 lambda v: v.k("evaluator.evaluate")),
    "evaluator.letters_per_s": ("1/s", "higher", _EVAL,
                                lambda v: _ratio(v.k("evaluator.evaluate"),
                                                 v.t("evaluator.evaluate"))),
    "evaluator.report_io_s": ("s", "lower", ("evaluator.write_report_json",
                                             "evaluator.write_report_tsv"),
                              lambda v: v.t("evaluator.write_report_json")
                              + v.t("evaluator.write_report_tsv")),
    "evaluator.compare_s": ("s", "lower", ("evaluator.compare", "evaluator.format_comparison"),
                            lambda v: v.t("evaluator.compare")
                            + v.t("evaluator.format_comparison")),
    "evaluator.self_s": ("s", "lower", _ALL, lambda v: v.layer_self("evaluator")),
    "evaluator.share": ("%", "lower", _ALL, lambda v: v.share("evaluator")),
    "cli.main_calls": ("count", "lower", ("cli.main",), lambda v: v.calls("cli.main")),
    "cli.self_s": ("s", "lower", _ALL, lambda v: v.layer_self("cli")),
    "cli.share": ("%", "lower", _ALL, lambda v: v.share("cli")),
    "trace.overhead_s": ("s", "lower", (), None),
}


def layer_metrics(tracer: Tracer, warmup_run: int, timed_runs: list[int]) -> dict[str, float]:
    """Median over the timed traced passes of each metric whose spans all exist.

    RSS rises come from the warm-up pass: after it the process peak no
    longer moves. ``trace.overhead_s`` is filled in by the caller.
    """
    by_run: dict[int, list[Span]] = {}
    for span in tracer.spans:
        by_run.setdefault(span.run, []).append(span)
    views = {run: PassView(by_run.get(run, []))
             for run in {warmup_run, *timed_runs}}
    result = {}
    for name, (_unit, _better, needs, measure) in METRICS.items():
        if measure is None or not set(needs) <= tracer.present:
            continue
        try:
            if measure is _RSS:
                span_name = needs[0]
                result[name] = views[warmup_run].rss(span_name)
            else:
                result[name] = statistics.median(measure(views[run])
                                                 for run in timed_runs or [warmup_run])
        except _Missing:
            continue
    return result
