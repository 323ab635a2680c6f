"""The package's public names: pinned, and each one defined."""

import importlib

import pytest

import disctag

MODULES = ["automata", "corpus", "inference", "model", "scheme"]  # the modules that list their names

PUBLIC = [
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


def test_package_names_are_pinned():
    assert sorted(disctag.__all__) == PUBLIC
    assert len(PUBLIC) == 58
    assert [n for n in PUBLIC if not hasattr(disctag, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"disctag.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
