"""Corpus-driven two-handed keyboard layouts.

The pipeline: ingest text into a letter stream (a ``str`` in which each
word boundary is one LF), count n-grams, score letter pairs by support
and confidence, greedily split the alphabet across the hands to favor
alternation, place each hand's letters on a key grid by frequency, then
score any layout against a corpus.
"""

from .corpus import (BOUNDARY, AlphabetConfig, concat_streams, format_codepoint,
                     normalize_text, parse_codepoint, read_corpus, read_pieces, tokenize)
from .errors import (AlreadyAssigned, CapacityExceeded, ConfigError, CorpusChanged,
                     EmptyCorpus, EmptyInput, InvalidEncoding, InvariantViolation,
                     LayoutForgeError, MalformedInput, MalformedLayout, TooFewLetters)
from .evaluator import (Comparison, ComparisonRow, EvaluationReport, compare, evaluate,
                        evaluate_all, format_comparison, score_tables)
from .layout import (Geometry, KeyPosition, KeyboardLayout, build_layout,
                     load_geometry, load_layout, render_grid, write_layout)
from .partition import (Decision, HandPartition, assign, initialize,
                        partition_all, read_partition_json, write_partition_json)
from .stats import (NGramTable, SideScore, count_all, count_ngrams, involvement_totals,
                    ranked_monograms, read_ngram_tsv, side_scores, write_ngram_tsv)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY", "AlphabetConfig", "concat_streams",
    "format_codepoint", "normalize_text", "parse_codepoint", "read_corpus", "read_pieces",
    "tokenize",
    "LayoutForgeError", "ConfigError", "InvalidEncoding", "EmptyCorpus",
    "TooFewLetters", "AlreadyAssigned", "CapacityExceeded",
    "MalformedInput", "MalformedLayout", "InvariantViolation", "EmptyInput", "CorpusChanged",
    "NGramTable", "SideScore", "count_all", "count_ngrams", "involvement_totals",
    "side_scores", "ranked_monograms", "read_ngram_tsv", "write_ngram_tsv",
    "Decision", "HandPartition", "initialize", "assign", "partition_all",
    "read_partition_json", "write_partition_json",
    "Geometry", "KeyPosition", "KeyboardLayout", "build_layout", "load_geometry",
    "load_layout", "write_layout", "render_grid",
    "EvaluationReport", "score_tables", "evaluate", "evaluate_all",
    "Comparison", "ComparisonRow", "compare", "format_comparison",
]
