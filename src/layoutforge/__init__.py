"""Corpus-driven two-handed keyboard layouts.

The pipeline: ingest text into a letter stream, count n-grams, score
letter pairs by support and confidence, greedily split the alphabet
across the hands to favor alternation, place each hand's letters on a
key grid by frequency, then score any layout against a corpus.
"""

from .corpus import (BOUNDARY, AlphabetConfig, LetterStream, concat_streams,
                     format_codepoint, normalize_text, parse_codepoint, read_corpus, tokenize)
from .errors import (AlreadyAssigned, CapacityExceeded, ConfigError, EmptyCorpus,
                     EmptyInput, InvalidEncoding, InvariantViolation,
                     LayoutForgeError, MalformedInput, MalformedLayout,
                     NoInvolvement, TooFewLetters)
from .evaluator import (ChunkScore, Comparison, ComparisonRow, EvaluationReport,
                        compare, evaluate, evaluate_chunked, format_comparison,
                        score_chunk, score_tables)
from .layout import (Geometry, KeyPosition, KeyboardLayout, build_layout,
                     load_geometry, load_layout, parse_layout, render_grid,
                     serialize_layout, write_layout)
from .partition import (Decision, HandPartition, assign, initialize,
                        partition_all, read_partition_json, write_partition_json)
from .stats import (NGramTable, SideScore, count_all, count_ngrams, digraph_confidence,
                    involvement_totals, ranked_monograms, read_ngram_tsv, side_scores,
                    support, write_ngram_tsv)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY", "AlphabetConfig", "LetterStream", "concat_streams",
    "format_codepoint", "normalize_text", "parse_codepoint", "read_corpus", "tokenize",
    "LayoutForgeError", "ConfigError", "InvalidEncoding", "EmptyCorpus",
    "NoInvolvement", "TooFewLetters", "AlreadyAssigned", "CapacityExceeded",
    "MalformedInput", "MalformedLayout", "InvariantViolation", "EmptyInput",
    "NGramTable", "SideScore", "count_all", "count_ngrams", "support", "involvement_totals",
    "digraph_confidence", "side_scores", "ranked_monograms", "read_ngram_tsv",
    "write_ngram_tsv",
    "Decision", "HandPartition", "initialize", "assign", "partition_all",
    "read_partition_json", "write_partition_json",
    "Geometry", "KeyPosition", "KeyboardLayout", "build_layout", "load_geometry",
    "load_layout", "parse_layout", "serialize_layout", "write_layout", "render_grid",
    "EvaluationReport", "ChunkScore", "score_chunk", "score_tables", "evaluate",
    "evaluate_chunked",
    "Comparison", "ComparisonRow", "compare", "format_comparison",
]
