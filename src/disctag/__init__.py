"""Sound tagging and exact inference for discontinuous named-entity recognition.

The package provides:

- a 10-tag encoding of (possibly discontinuous) mention sets with a
  one-to-one mapping between well-formed tag sequences and annotations
  (:mod:`disctag.scheme`);
- a grammar automaton recognising exactly the well-formed sequences, compiled
  once into a transition table (a successor table and the edges grouped by
  source, by target and by tag) that ``build_lattice`` pairs with a sentence
  length to give the acyclic intersection lattice (:mod:`disctag.automata`);
- exact MAP, log-partition and marginal inference on the lattice, all on one
  semiring chart routine whose steps are ``reduceat`` sums over those edge
  groups, plus fully- and partially-supervised losses with exact gradients
  and the sampler of random well-formed sequences, ``random_well_formed``
  (:mod:`disctag.inference`);
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
    read_tag_file,
    silver_type,
    stats,
    synthetic_records,
    write_corpus,
    write_tag_file,
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
    LOG,
    TROPICAL,
    PartialLabelSet,
    Semiring,
    clamped_log_partition,
    clamped_marginals,
    forward,
    hard_em_step,
    marginals,
    nll,
    partial_nll,
    sequence_score,
    viterbi,
    viterbi_batch,
)
from .model import LinearScorer, TrainConfig, predict, predict_batch, predict_tags, train
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
    decode_annotation,
    encode,
    from_two_layer,
    is_structural,
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
    "LOG",
    "Lattice",
    "LengthMismatch",
    "Lexicon",
    "LinearScorer",
    "Mention",
    "MentionSet",
    "NUM_TAGS",
    "ParseError",
    "PartialLabelSet",
    "Semiring",
    "SentenceAnnotation",
    "TAGS",
    "TROPICAL",
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
    "decode_annotation",
    "determinize",
    "encode",
    "evaluate",
    "export_text",
    "filter_incompatible",
    "forward",
    "from_two_layer",
    "grammar_automaton",
    "hard_em_step",
    "is_structural",
    "is_well_formed",
    "marginals",
    "minimize",
    "nll",
    "partial_nll",
    "predict",
    "predict_batch",
    "predict_tags",
    "read_corpus",
    "read_tag_file",
    "remove_epsilon",
    "sequence_score",
    "silver_type",
    "stats",
    "synthetic_records",
    "to_two_layer",
    "train",
    "viterbi",
    "viterbi_batch",
    "write_corpus",
    "write_tag_file",
]
