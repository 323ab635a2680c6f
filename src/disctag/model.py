"""A minimal trainable scorer: hashed sparse features with a linear layer.

This stands in for a neural sentence encoder so that the structured losses can
be exercised end to end on CPU.  Scores are produced per position from a
handful of lexical indicator features hashed into a fixed-size table; training
is plain SGD on the exact loss gradients from :mod:`disctag.inference`.
"""

from __future__ import annotations

import logging
import zipfile
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .automata import build_lattice, grammar_automaton
from .errors import ConfigError
from .inference import PartialLabelSet, hard_em_step, nll, partial_nll, viterbi_batch
from .scheme import (
    NUM_TAGS,
    TAGS,
    MentionSet,
    SentenceAnnotation,
    TagSequence,
    decode,
)

__all__ = [
    "LinearScorer",
    "TrainConfig",
    "train",
    "predict",
    "predict_tags",
    "predict_batch",
    "sentence_features",
]

logger = logging.getLogger(__name__)

LOSSES = ("nll", "partial", "hard-em")
MODES = ("semantic", "structural")

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
FEATURES = 5  # features per word, see sentence_features
TOKEN_BUDGET = 2048  # padded words per predict batch: bounds the batch's strings and arrays


def fnv1a(strings: Sequence[str]) -> np.ndarray:
    """64-bit FNV-1a of each string's UTF-8 bytes; fixed and seed-free for reproducibility.

    All strings are hashed at once, one byte column at a time: sorted by
    byte length, the strings still running at column ``j`` are a prefix, so
    the work is one ``uint64`` xor and multiply (wrapping mod ``2**64``) per
    byte.
    """
    data = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longer = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # longer[j]: strings of more than j bytes
    flat = np.frombuffer(b"".join(data), dtype=np.uint8)
    h = np.full(len(data), _FNV_OFFSET)
    for j, count in enumerate(longer):
        live = h[:count]
        live ^= flat[starts[:count] + j]
        live *= _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


def sentence_features(tokens: Sequence[str]) -> list[list[str]]:
    """Indicator features per position: word, neighbours, affixes."""
    low = [t.lower() for t in tokens]
    out = []
    for i, word in enumerate(low):
        out.append(
            [
                f"w={word}",
                f"w-1={low[i - 1] if i > 0 else '<bos>'}",
                f"w+1={low[i + 1] if i + 1 < len(low) else '<eos>'}",
                f"pre={word[:3]}",
                f"suf={word[-3:]}",
            ]
        )
    return out


class LinearScorer:
    """Linear model mapping token sequences to ``(n, 10)`` weight matrices."""

    FORMAT_VERSION = 1

    def __init__(self, dim: int = 2**18, params: np.ndarray | None = None):
        if dim < 1:
            raise ConfigError("feature dimension must be positive")
        self.dim = dim
        if params is None:
            params = np.zeros((dim, NUM_TAGS))
        # min and max are non-finite iff some entry is, and need no (dim, 10) temporary
        elif np.shape(params) != (dim, NUM_TAGS) or not np.isfinite([np.min(params), np.max(params)]).all():
            raise ConfigError(f"params must be a finite ({dim}, {NUM_TAGS}) matrix")
        self.params = np.asarray(params, dtype=np.float64)

    def feature_indices(self, tokens: Sequence[str]) -> np.ndarray:
        """Hashed feature rows: ``(n, FEATURES)`` row indices into ``params``."""
        return self.batch_feature_indices([tokens])

    def batch_feature_indices(self, sentences: Iterable[Sequence[str]]) -> np.ndarray:
        """The feature rows of the sentences' words, concatenated in order;
        their feature strings are all held, and hashed, at once."""
        strings = [f for tokens in sentences for row in sentence_features(tokens) for f in row]
        return (fnv1a(strings) % np.uint64(self.dim)).astype(np.int64).reshape(-1, FEATURES)

    def score(self, tokens: Sequence[str]) -> np.ndarray:
        """Deterministic ``(n, 10)`` score matrix for a non-empty sentence."""
        if not tokens:
            raise ValueError("cannot score an empty sentence")
        return self.score_rows(self.feature_indices(tokens))

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Scores of hashed feature rows, one per word.  Each word's features are
        summed in order on their own, so a batch scores bit-identically to its
        sentences scored one at a time."""
        return np.add.reduceat(self.params[rows.ravel()], np.arange(0, rows.size, FEATURES), axis=0)

    def apply_gradient(self, rows: np.ndarray, grad: np.ndarray, lr: float, l2: float) -> None:
        """SGD update of one sentence, given its hashed feature rows; the L2
        penalty decays only the rows touched here."""
        flat = rows.ravel()
        if l2 > 0.0:
            touched = np.unique(flat)
            self.params[touched] *= 1.0 - lr * l2
        np.subtract.at(self.params, flat, lr * np.repeat(grad, FEATURES, axis=0))

    def save(self, path) -> None:
        np.savez(
            path,
            format_version=np.int64(self.FORMAT_VERSION),
            dim=np.int64(self.dim),
            tagset=np.array([t.symbol for t in TAGS]),
            params=self.params,
        )

    @classmethod
    def load(cls, path) -> "LinearScorer":
        """Read a model written by :meth:`save`.

        A file that is not such a model (not an ``.npz`` archive, truncated,
        or missing an entry) raises :class:`~disctag.errors.ConfigError`;
        a file that cannot be opened raises :class:`OSError`.
        """
        with open(path, "rb") as handle:
            try:
                with np.load(handle, allow_pickle=False) as data:
                    version = int(data["format_version"])
                    if version != cls.FORMAT_VERSION:
                        raise ConfigError(f"unsupported model format version {version}")
                    tagset = [str(s) for s in data["tagset"]]
                    if tagset != [t.symbol for t in TAGS]:
                        raise ConfigError("model tagset does not match this build")
                    return cls(dim=int(data["dim"]), params=data["params"])
            except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as err:
                raise ConfigError(f"{path} is not a model file written by 'disctag train'") from err


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "nll"
    epochs: int = 20
    learning_rate: float = 0.5
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning rate must be positive and finite")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError("l2 must be non-negative and finite")


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as a ConfigError
def train(
    data: Iterable[tuple[Sequence[str], SentenceAnnotation]],
    config: TrainConfig,
    mode: str = "semantic",
    dim: int = 2**18,
) -> LinearScorer:
    """SGD over (tokens, annotation) pairs; returns the trained scorer.

    In structural mode every annotation is canonicalised so that the leftmost
    component of each set is typed x and the restricted grammar applies; the
    partially-supervised losses then see a single admissible sequence per
    sentence.  Incompatible sentences must have been filtered out beforehand.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    scorer = LinearScorer(dim=dim)
    examples = []
    for tokens, ann in data:
        if len(tokens) != ann.n:
            raise ConfigError(f"annotation length {ann.n} != sentence length {len(tokens)}")
        if mode == "structural":
            ann = ann.structural()
        # hashed once for every epoch, one sentence at a time so that few strings are alive
        examples.append((scorer.feature_indices(tokens), PartialLabelSet.from_annotation(ann)))
    if not examples:
        raise ConfigError("empty training corpus")

    grammar = grammar_automaton(mode)
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        total = 0.0
        for j in rng.permutation(len(examples)):
            rows, supervision = examples[j]
            w = scorer.score_rows(rows)
            if not np.isfinite(w).all():
                raise _diverged(epoch + 1)
            lattice = build_lattice(grammar, len(rows))
            if config.loss == "nll":
                loss, grad = nll(lattice, w, supervision.gold)
            elif config.loss == "partial":
                loss, grad = partial_nll(lattice, w, supervision)
            else:
                loss, grad, _ = hard_em_step(lattice, w, supervision)
            if not loss >= -1e-6:  # every loss is >= 0; huge scores cancel (or give NaN)
                raise _diverged(epoch + 1)
            scorer.apply_gradient(rows, grad, config.learning_rate, config.l2)
            total += loss
        logger.info("epoch %d: mean %s loss %.6g", epoch + 1, config.loss, total / len(examples))
    if not np.isfinite(scorer.score_rows(rows)).all():  # reads the rows of the last update
        raise _diverged(config.epochs)
    return scorer


def _diverged(epoch: int) -> ConfigError:
    return ConfigError(f"training diverged in epoch {epoch}; lower the learning rate")


def predict_tags(scorer: LinearScorer, tokens: Sequence[str], mode: str = "semantic") -> TagSequence:
    """MAP tag sequence; well-formed by construction.

    Raises :class:`~disctag.errors.ConfigError` when the model's scores for
    the sentence are not finite (finite but huge weights can overflow).
    """
    return predict_batch(scorer, [tokens], mode)[0]


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as a ConfigError
def predict_batch(
    scorer: LinearScorer, sentences: Sequence[Sequence[str]], mode: str = "semantic"
) -> list[TagSequence]:
    """:func:`predict_tags` of every sentence, in order, computed in batches.

    Sentences are sorted by length and cut into runs of at most
    ``TOKEN_BUDGET`` padded words (a longer sentence runs alone).  Each batch
    is hashed and scored in one pass and decoded by one right-aligned
    :func:`~disctag.inference.viterbi_batch`, so every sequence is the one
    the sentence gets alone.
    """
    if not all(sentences):
        raise ValueError("cannot score an empty sentence")
    grammar = grammar_automaton(mode)
    batches: list[list[int]] = [[]]
    for k in sorted(range(len(sentences)), key=lambda k: len(sentences[k])):
        if batches[-1] and (len(batches[-1]) + 1) * len(sentences[k]) > TOKEN_BUDGET:
            batches.append([])
        batches[-1].append(k)
    out: dict[int, TagSequence] = {}
    for batch in filter(None, batches):
        lengths = np.array([len(sentences[k]) for k in batch])
        scores = scorer.score_rows(scorer.batch_feature_indices(sentences[k] for k in batch))
        if not np.isfinite(scores).all():
            raise ConfigError("model scores are not finite; the model's weights are too large")
        # word j of sentence b goes to row n - lengths[b] + j of the padded (B, n) batch
        n, ends = int(lengths[-1]), np.cumsum(lengths)
        slots = np.arange(ends[-1]) + np.repeat(np.arange(len(batch)) * n + n - ends, lengths)
        padded = np.zeros((len(batch), n, NUM_TAGS))
        padded.reshape(-1, NUM_TAGS)[slots] = scores
        out.update(zip(batch, viterbi_batch(build_lattice(grammar, n), padded, lengths)))
    return [out[k] for k in range(len(sentences))]


def predict(scorer: LinearScorer, tokens: Sequence[str], mode: str = "semantic") -> MentionSet:
    """Predicted mention set: decode of the MAP tag sequence.

    Decoding cannot fail: the lattice only admits well-formed sequences.
    """
    return decode(predict_tags(scorer, tokens, mode))
