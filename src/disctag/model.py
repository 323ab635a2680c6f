"""A minimal trainable scorer: hashed sparse features with a linear layer.

This stands in for a neural sentence encoder so that the structured losses can
be exercised end to end on CPU.  Scores are produced per position from a
handful of lexical indicator features hashed into a fixed-size table; training
is mini-batch SGD on the exact loss gradients from :mod:`disctag.inference`.
"""

from __future__ import annotations

import itertools
import logging
import zipfile
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .automata import build_lattice, grammar_automaton
from .errors import ConfigError
from .inference import LOSSES, PartialLabelSet, batch_losses, viterbi_rows
from .scheme import (
    NUM_TAGS,
    TAGS,
    MentionSet,
    SentenceAnnotation,
    TagSequence,
    decode,
    encode_batch,
    from_rows,
)

__all__ = [
    "LinearScorer",
    "TrainConfig",
    "train",
    "predict",
    "predict_tags",
    "predict_rows",
]

logger = logging.getLogger(__name__)

MODES = ("semantic", "structural")

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
FEATURES = 5  # features per word, see LinearScorer.batch_feature_indices
# Cells (lanes times lane length) per predict batch, and lanes per batch (see
# _lanes): they bound a batch's strings and arrays.  Each chart and walk step
# makes a few numpy calls for the whole batch, so wider batches spread that
# cost over more words, until a step's rows outgrow the caches.  Timed in
# process (predict_rows, median of 15 interleaved calls) against these values:
# on 120 sentences of 128-511 words, budgets of 16,384 and 32,768 cells (3 and
# 2 batches) took 16 % and 12 % longer, and 131,072 no less; on 3,000
# sentences of 5-40 words, caps of 256 and 1,024 lanes took 4 % and 17 %
# longer, and no cap (2 batches of up to 1,638 lanes) 16 % longer.
TOKEN_BUDGET = 65536
LANES = 512
TRAIN_BATCH = 8  # sentences per SGD step, scored with the same params; 16 lowered held-out F1
# Sentences per length pool of an epoch (see train).  On the train-partial
# benchmark corpus (800 sentences of 8-48 words) chart steps per epoch, the
# sum of each batch's longest sentence, fell from 4,396 for runs of the plain
# permutation to 2,921 (mean of 20 epochs), against 2,798 without padding.
# Pools of 32, 64, 256 and 800 gave 3,235, 3,026, 2,868 and 2,815; at 64 and
# at 128 held-out F1 stayed within its spread across benchmark seeds.
TRAIN_POOL = 16 * TRAIN_BATCH


def fnv1a(strings: Iterable[str]) -> np.ndarray:
    """64-bit FNV-1a of each string's UTF-8 bytes; fixed and seed-free for reproducibility."""
    data = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    flat = np.frombuffer(b"".join(data), dtype=np.uint8)
    return _fnv1a_continue(np.full(len(data), _FNV_OFFSET), flat, np.cumsum(lengths) - lengths, lengths)


def _fnv1a_continue(h: np.ndarray, flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """FNV-1a states ``h`` carried on over the byte ranges ``flat[starts:starts + lengths]``.

    FNV-1a is a running state, so the hash of ``a + b`` is the hash of ``a``
    carried on over ``b``.  All ranges are hashed at once, one byte column at
    a time: sorted by length, the ranges still running at column ``j`` are a
    prefix, so the work is one ``uint64`` xor and multiply (wrapping mod
    ``2**64``) per byte.
    """
    order = np.argsort(-lengths, kind="stable")
    starts = starts[order]
    longer = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # longer[j]: ranges of more than j bytes
    h = h[order]
    for j, count in enumerate(longer):
        live = h[:count]
        live ^= flat[starts[:count] + j]
        live *= _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


_PREFIX_HASHES = fnv1a(["w=", "w-1=", "w+1=", "pre=", "suf="])  # the five features of a type, in order


class LinearScorer:
    """Linear model mapping token sequences to ``(n, 10)`` weight matrices."""

    FORMAT_VERSION = 2

    def __init__(self, dim: int = 2**18, params: np.ndarray | None = None):
        if dim < 1:
            raise ConfigError("feature dimension must be positive")
        self.dim = dim
        if params is None:
            try:
                params = np.zeros((dim, NUM_TAGS))
            except (MemoryError, ValueError):  # ValueError: more bytes than an address holds
                raise ConfigError(f"feature dimension {dim} is too large: its params cannot be allocated") from None
        # min and max are non-finite iff some entry is, and need no (dim, 10) temporary
        elif np.shape(params) != (dim, NUM_TAGS) or not np.isfinite([np.min(params), np.max(params)]).all():
            raise ConfigError(f"params must be a finite ({dim}, {NUM_TAGS}) matrix")
        self.params = np.ascontiguousarray(params, dtype=np.float64)  # apply_gradient updates a flat view

    def batch_feature_indices(self, sentences: Iterable[Sequence[str]]) -> np.ndarray:
        """The hashed feature rows ``(words, FEATURES)`` of the sentences' words, in order.

        A word's features are ``w=`` its lowercased type, ``w-1=`` and ``w+1=``
        its neighbours' (``<bos>`` and ``<eos>`` past either end), and ``pre=``
        and ``suf=`` its type's first and last three characters: five strings
        of one type each.  So each distinct type's five strings are hashed
        once, and each word gathers its row from its own and its neighbours' types.
        """
        sentences = list(sentences)
        lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
        # raw token -> type id, numbered as first seen; equal lowercases hash equally
        types = defaultdict(None, {"<bos>": 0, "<eos>": 1})
        types.default_factory = types.__len__
        own = np.fromiter(map(types.__getitem__, itertools.chain.from_iterable(sentences)),
                          dtype=np.intp, count=lengths.sum())
        # a type's strings are prefixes carried on over its bytes, or over the
        # bytes of its first or last three characters (as many as characters if ASCII)
        low = list(map(str.lower, types))
        data = [t.encode("utf-8") for t in low]
        size = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
        pre, suf = np.minimum(size, 3), np.minimum(size, 3)
        for i in np.flatnonzero(~np.fromiter(map(str.isascii, low), dtype=bool, count=len(low))):
            pre[i], suf[i] = len(low[i][:3].encode("utf-8")), len(low[i][-3:].encode("utf-8"))
        start = np.cumsum(size) - size
        h = _fnv1a_continue(
            np.tile(_PREFIX_HASHES, len(data)),
            np.frombuffer(b"".join(data), dtype=np.uint8),
            np.stack([start, start, start, start, start + size - suf], axis=1).ravel(),
            np.stack([size, size, size, pre, suf], axis=1).ravel(),
        )
        table = (h % np.uint64(self.dim)).astype(np.int64).reshape(-1, FEATURES)
        prev, after = np.empty_like(own), np.empty_like(own)
        prev[1:], after[:-1] = own[:-1], own[1:]
        ends = np.cumsum(lengths)[lengths > 0]
        prev[ends - lengths[lengths > 0]] = types["<bos>"]
        after[ends - 1] = types["<eos>"]
        return table[np.stack([own, prev, after, own, own], axis=1), np.arange(FEATURES)]

    def score(self, tokens: Sequence[str]) -> np.ndarray:
        """Deterministic ``(n, 10)`` score matrix for a non-empty sentence."""
        if not tokens:
            raise ValueError("cannot score an empty sentence")
        return self.score_rows(self.batch_feature_indices([tokens]))

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Scores of hashed feature rows ``(words, FEATURES)``, one per word.

        Each word's rows are summed as ``w + (((w-1 + w+1) + pre) + suf)``, one
        in-place ``take`` per feature column with ``w`` last: the order in which
        ``np.add.reduceat`` sums five rows, so (``a + b == b + a`` exactly) the
        scores keep its bits.  Each word is summed on its own, in the same order
        whatever the batch, so a batch scores bit-identically to its sentences
        scored one at a time."""
        out = self.params.take(rows[:, 1], axis=0)
        for col in (2, 3, 4, 0):
            out += self.params.take(rows[:, col], axis=0)
        return out

    def apply_gradient(self, rows: np.ndarray, grad: np.ndarray, lr: float, l2: float) -> None:
        """SGD update of the words whose hashed feature rows are ``rows`` and
        whose score gradients are ``grad``, summed over the words in order; the L2
        penalty first decays the rows touched here, once.

        The update runs over the params' cells, ``row * 10 + tag``, with the
        values in word order: numpy's one-dimensional ``subtract.at`` applies
        each cell's updates in that order, as the row-wise one does, and fast."""
        flat = rows.ravel()
        if l2 > 0.0:
            touched = np.unique(flat)
            self.params[touched] *= 1.0 - lr * l2
        cells = (flat[:, None] * NUM_TAGS + np.arange(NUM_TAGS)).ravel()
        np.subtract.at(self.params.reshape(-1), cells, np.repeat(lr * grad, FEATURES, axis=0).ravel())

    def save(self, path) -> None:
        """Write the model to exactly ``path`` (``np.savez`` would add ``.npz``).

        Only the rows with a bit set are stored, as their ids (``rows``) and
        params (``values``): a corpus's features touch few of the ``dim``
        rows, and a row of ``-0.0`` is kept.
        """
        rows = np.flatnonzero(self.params.view(np.int64).any(axis=1))
        with open(path, "wb") as handle:
            np.savez(
                handle,
                format_version=np.int64(self.FORMAT_VERSION),
                dim=np.int64(self.dim),
                tagset=np.array([t.symbol for t in TAGS]),
                rows=rows,
                values=self.params[rows],
            )

    @classmethod
    def load(cls, path) -> "LinearScorer":
        """Read a model written by :meth:`save`: the zero model of its ``dim``
        with the stored rows scattered in.

        A file that is not such a model (not an ``.npz`` archive, truncated,
        missing an entry, or with rows that are not increasing ids below
        ``dim`` or values that are not their finite params) raises
        :class:`~disctag.errors.ConfigError`; a file that cannot be opened
        raises :class:`OSError`.
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
                    scorer = cls(dim=int(data["dim"]))
                    rows, values = data["rows"], data["values"]
            except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as err:
                raise ConfigError(f"{path} is not a model file written by 'disctag train'") from err
        if not (
            rows.ndim == 1
            and rows.dtype.kind in "iu"
            and (rows[1:] > rows[:-1]).all()
            and (len(rows) == 0 or (rows[0] >= 0 and rows[-1] < scorer.dim))
        ):
            raise ConfigError(f"model rows must be increasing row ids in [0, {scorer.dim})")
        # the other rows are zeros, so only the stored values need the finite check
        if values.shape != (len(rows), NUM_TAGS) or values.dtype.kind != "f" or not np.isfinite(values).all():
            raise ConfigError(f"model values must be a finite float ({len(rows)}, {NUM_TAGS}) matrix")
        scorer.params[rows] = values
        return scorer


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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as a ConfigError
def train(
    data: Iterable[tuple[Sequence[str], SentenceAnnotation]],
    config: TrainConfig,
    mode: str = "semantic",
    dim: int = 2**18,
) -> LinearScorer:
    """SGD over (tokens, annotation) pairs; returns the trained scorer.

    Each epoch takes a fresh permutation of the corpus and cuts it into
    pools of ``TRAIN_POOL`` sentences.  Each pool is stable-sorted by sentence
    length and cut into runs of at most ``TRAIN_BATCH`` sentences, so a run
    never crosses a pool and its sentences have similar lengths: a batched
    chart takes as many steps as its longest sentence.  The epoch visits the
    runs in an order drawn from the same generator.  A run is scored with
    the params as they are at its start, its losses come from one batched
    chart, and its gradients are applied as one update, summed word by word
    in order.

    In structural mode every annotation is canonicalised so that the leftmost
    component of each set is typed x and the restricted grammar applies; the
    partially-supervised losses then see a single admissible sequence per
    sentence.  Incompatible sentences must have been filtered out beforehand.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    scorer = LinearScorer(dim=dim)
    sentences, annotations = [], []
    for tokens, ann in data:
        if len(tokens) != ann.n:
            raise ConfigError(f"annotation length {ann.n} != sentence length {len(tokens)}")
        sentences.append(tokens)
        annotations.append(ann.structural() if mode == "structural" else ann)
    if not sentences:
        raise ConfigError("empty training corpus")
    sizes = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
    # hashed once for every epoch, in one pass over the corpus's types
    rows = np.split(scorer.batch_feature_indices(sentences), np.cumsum(sizes[:-1]))
    golds = encode_batch(annotations)  # checked at once, not one annotation at a time
    examples = [
        (r, PartialLabelSet.from_annotation(ann, gold=gold)) for r, ann, gold in zip(rows, annotations, golds)
    ]

    lattice = build_lattice(grammar_automaton(mode))
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        total = 0.0
        order = rng.permutation(len(examples))
        runs = []
        for first in range(0, len(order), TRAIN_POOL):
            pool = order[first : first + TRAIN_POOL]
            pool = pool[np.argsort(sizes[pool], kind="stable")]
            runs += [pool[i : i + TRAIN_BATCH] for i in range(0, len(pool), TRAIN_BATCH)]
        for k in rng.permutation(len(runs)):
            batch = [examples[j] for j in runs[k]]
            rows = np.concatenate([r for r, _ in batch])
            w = scorer.score_rows(rows)
            if not np.isfinite(w).all():
                raise _diverged(epoch + 1)
            lengths = sizes[runs[k]]
            labels = [s for _, s in batch]
            losses, grad = batch_losses(lattice, _right_aligned(w, lengths), lengths, labels, config.loss)
            if not (losses >= -1e-6).all():  # every loss is >= 0; huge scores cancel (or give NaN)
                raise _diverged(epoch + 1)
            scorer.apply_gradient(rows, grad, config.learning_rate, config.l2)
            total += losses.sum()
        logger.info("epoch %d: mean %s loss %.6g", epoch + 1, config.loss, total / len(examples))
    if not np.isfinite(scorer.score_rows(rows)).all():  # reads the rows of the last update
        raise _diverged(config.epochs)
    return scorer


def _right_aligned(scores: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``(B, n, 10)`` batch of rows whose word scores are ``scores``, one
    block of ``lengths[b]`` words after another (a sentence, or a lane of
    them): word ``j`` of block ``b`` goes to row ``n - lengths[b] + j``,
    after zero padding."""
    n = lengths.max()
    if (lengths == n).all():  # no padding
        return scores.reshape(len(lengths), n, NUM_TAGS)
    padded = np.zeros((len(lengths), n, NUM_TAGS))
    padded[np.arange(n) >= n - lengths[:, None]] = scores
    return padded


def _diverged(epoch: int) -> ConfigError:
    return ConfigError(f"training diverged in epoch {epoch}; lower the learning rate")


def predict_tags(scorer: LinearScorer, tokens: Sequence[str], mode: str = "semantic") -> TagSequence:
    """MAP tag sequence; well-formed by construction.

    Raises :class:`~disctag.errors.ConfigError` when the model's scores for
    the sentence are not finite (finite but huge weights can overflow).
    """
    return from_rows(*predict_rows(scorer, [tokens], mode))[0]


def _lanes(lengths: np.ndarray) -> list[tuple[list[int], list[int], list[int]]]:
    """The predict batches of sentences of ``lengths``: per batch, the
    indices of its sentences in lane order, the number in each lane, and
    each lane's words.

    Sentences are taken longest first.  A batch's lanes are as long as the
    longest sentence left when it opens, and it holds at most ``min(LANES,
    TOKEN_BUDGET // length)`` of them (a sentence longer than the budget runs
    in a lane of its own).  A lane holds the longest sentence left, then as
    many of the shortest left as fit: two pointers over the sorted order.
    """
    order = np.argsort(-lengths, kind="stable")
    sizes, order = lengths[order].tolist(), order.tolist()
    batches = []
    longest, shortest = 0, len(order) - 1
    while longest <= shortest:
        width = sizes[longest]
        members, counts, spans = [], [], []
        for _ in range(max(1, min(LANES, TOKEN_BUDGET // width))):
            if longest > shortest:
                break
            room = width - sizes[longest]
            members.append(order[longest])
            longest += 1
            first = len(members)
            while longest <= shortest and sizes[shortest] <= room:
                room -= sizes[shortest]
                members.append(order[shortest])
                shortest -= 1
            counts.append(len(members) - first + 1)
            spans.append(width - room)
        batches.append((members, counts, spans))
    return batches


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as a ConfigError
def predict_rows(
    scorer: LinearScorer, sentences: Sequence[Sequence[str]], mode: str = "semantic"
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`predict_tags` sequences of the sentences, as flat tag
    indices in order and the bounds of each sentence in them (see
    :func:`~disctag.scheme.as_rows`), as :func:`~disctag.scheme.mention_table` reads them.

    The sentences are packed end to end into the lanes of a few batches (see
    :func:`_lanes`).  Each batch is hashed and scored in one pass and decoded
    by one :func:`~disctag.inference.viterbi_rows` over its lanes, which
    resets the chart and the walk at every sentence's first word, so every
    sequence, tie-break included, is the one the sentence gets alone.
    """
    if not all(sentences):
        raise ValueError("cannot score an empty sentence")
    lattice = build_lattice(grammar_automaton(mode))
    lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
    pieces, order = [np.empty(0, dtype=np.intp)], []
    for batch, lanes, spans in _lanes(lengths):
        scores = scorer.score_rows(scorer.batch_feature_indices(sentences[k] for k in batch))
        if not np.isfinite(scores).all():
            raise ConfigError("model scores are not finite; the model's weights are too large")
        pieces.append(viterbi_rows(lattice, _right_aligned(scores, np.array(spans)), lengths[batch], lanes))
        order += batch
    # the pieces hold the sentences in lane order: gather each back to its place
    order = np.array(order, dtype=np.intp)
    source = np.empty_like(lengths)
    source[order] = np.cumsum(lengths[order]) - lengths[order]
    bounds = np.zeros(len(sentences) + 1, dtype=np.intp)
    np.cumsum(lengths, out=bounds[1:])
    flat = np.concatenate(pieces)[np.arange(bounds[-1]) + np.repeat(source - bounds[:-1], lengths)]
    return flat, bounds


def predict(scorer: LinearScorer, tokens: Sequence[str], mode: str = "semantic") -> MentionSet:
    """Predicted mention set: decode of the MAP tag sequence.

    Decoding cannot fail: the lattice only admits well-formed sequences.
    """
    return decode(predict_tags(scorer, tokens, mode))
