"""Sound tagging and exact inference for discontinuous named-entity recognition.

The package provides:

- a 10-tag encoding of (possibly discontinuous) mention sets with a
  one-to-one mapping between well-formed tag sequences and annotations
  (:mod:`disctag.scheme`);
- a grammar automaton recognising exactly the well-formed sequences, which
  ``build_lattice`` compiles once, from its minimal DFA, into one layer of
  the acyclic intersection lattice (a successor table, the edges as padded
  slot tables for a two-way and a backward chart, and grouped by tag); the
  lattice of an ``n``-word sentence is ``n`` such layers
  (:mod:`disctag.automata`);
- exact MAP, log-partition and marginal inference on the lattice, ``n`` read
  from the weight matrix, all on one semiring chart routine whose steps are
  row gathers and sums over those slots, plus fully- and
  partially-supervised losses with exact gradients and the sampler of random
  well-formed sequences, ``random_well_formed`` (:mod:`disctag.inference`);
- a small hashed-feature linear scorer and SGD training loop
  (:mod:`disctag.model`);
- corpus I/O, incompatibility filtering, silver component typing and
  mention-level evaluation (:mod:`disctag.corpus`), wrapped by the ``disctag``
  command-line tool (:mod:`disctag.cli`).
"""

from .automata import (
    Automaton,
    Lattice,
    build_lattice,
    determinize,
    export_text,
    grammar_automaton,
    minimize,
    remove_epsilon,
)
from .corpus import (
    BenchResult,
    CorpusRecord,
    CorpusStats,
    EvalReport,
    Lexicon,
    annotate,
    benchmark_predict,
    evaluate,
    filter_incompatible,
    read_corpus,
    silver_type,
    stats,
    synthetic_records,
)
from .errors import (
    ConfigError,
    DisctagError,
    EmptyLanguage,
    EncodingViolation,
    IllFormed,
    Incompatible,
    LengthMismatch,
    ParseError,
)
from .inference import (
    PartialLabelSet,
    clamped_log_partition,
    clamped_marginals,
    forward,
    hard_em_step,
    marginals,
    nll,
    partial_nll,
    sequence_score,
    viterbi,
)
from .model import LinearScorer, TrainConfig, predict, predict_tags, train
from .scheme import (
    NUM_TAGS,
    TAGS,
    ComponentType,
    Mention,
    MentionSet,
    SentenceAnnotation,
    Tag,
    TagSequence,
    TwoLayerSet,
    decode,
    encode,
    from_two_layer,
    is_well_formed,
    to_two_layer,
)

__version__ = "0.1.0"

__all__ = [
    "Automaton",
    "BenchResult",
    "ComponentType",
    "ConfigError",
    "CorpusRecord",
    "CorpusStats",
    "DisctagError",
    "EmptyLanguage",
    "EncodingViolation",
    "EvalReport",
    "IllFormed",
    "Incompatible",
    "Lattice",
    "LengthMismatch",
    "Lexicon",
    "LinearScorer",
    "Mention",
    "MentionSet",
    "NUM_TAGS",
    "ParseError",
    "PartialLabelSet",
    "SentenceAnnotation",
    "TAGS",
    "Tag",
    "TagSequence",
    "TrainConfig",
    "TwoLayerSet",
    "annotate",
    "benchmark_predict",
    "build_lattice",
    "clamped_log_partition",
    "clamped_marginals",
    "decode",
    "determinize",
    "encode",
    "evaluate",
    "export_text",
    "filter_incompatible",
    "forward",
    "from_two_layer",
    "grammar_automaton",
    "hard_em_step",
    "is_well_formed",
    "marginals",
    "minimize",
    "nll",
    "partial_nll",
    "predict",
    "predict_tags",
    "read_corpus",
    "remove_epsilon",
    "sequence_score",
    "silver_type",
    "stats",
    "synthetic_records",
    "to_two_layer",
    "train",
    "viterbi",
]
