"""Exact inference on the tag lattice and the training losses.

All programs run on the acyclic lattice from :mod:`disctag.automata` in one of
two semirings: tropical (max, +) for MAP inference and log (logaddexp, +) for
the log-partition and marginals.  Scores of a tag sequence are bilinear,
``<y, w> = sum_i w[i, y_i]``, so every gradient below is an ``(n, 10)`` matrix
aligned with the weight matrix.

One chart routine serves every program: each step sums a state's edges, grouped
by source (backward) or by target (forward), with one ``reduceat``.  The
marginals sum the edges grouped by tag the same way, and
:func:`random_well_formed` samples paths through the states that a backward
tropical chart finds co-reachable.

The partially-supervised losses marginalise over the label set of an
annotation whose component types are unknown: flipping the x/y orientation of
any unresolved set of mentions swaps its x and y tags and leaves the denoted
mentions unchanged, so a sentence with ``k`` unresolved sets has ``2**k``
admissible gold sequences.  Set spans are disjoint, so every sum over them
factorises into one two-way choice per set and takes time linear in ``n``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .automata import Lattice
from .errors import EmptyLanguage, IllFormed
from .scheme import (
    NUM_TAGS,
    TAGS,
    SentenceAnnotation,
    Tag,
    TagSequence,
    encode,
    is_well_formed,
)

__all__ = [
    "Semiring",
    "TROPICAL",
    "LOG",
    "PartialLabelSet",
    "viterbi",
    "viterbi_batch",
    "forward",
    "marginals",
    "sequence_score",
    "clamped_log_partition",
    "clamped_marginals",
    "nll",
    "partial_nll",
    "hard_em_step",
    "random_well_formed",
]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring given by numpy ufuncs and its identities."""

    name: str
    plus: np.ufunc
    times: np.ufunc
    zero: float
    one: float


TROPICAL = Semiring("tropical", np.maximum, np.add, NEG_INF, 0.0)
LOG = Semiring("log", np.logaddexp, np.add, NEG_INF, 0.0)


def _check_weights(lat: Lattice, weights: np.ndarray, batched: bool = False) -> np.ndarray:
    """The weights as float64, checked to be an ``(n, 10)`` matrix of finite
    scores, or with ``batched`` a ``(B, n, 10)`` stack of them."""
    weights = np.asarray(weights, dtype=np.float64)
    shape = (lat.n, NUM_TAGS)
    if weights.shape[batched:] != shape or weights.ndim != len(shape) + batched:
        want = f"(B, {lat.n}, {NUM_TAGS})" if batched else f"({lat.n}, {NUM_TAGS})"
        raise ValueError(f"expected weights of shape {want}, got {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weight matrix entries must be finite")
    return weights


def _chart(
    lat: Lattice, weights: np.ndarray, sr: Semiring, backward: bool = False, starts: np.ndarray | None = None
):
    """``(totals, chart)`` of a batch: the ``(n+1, B, S+1)`` prefix sums from
    the initial state, or with ``backward`` the suffix sums into the final
    states, and per sentence the sum over its accepting paths.  Column ``S``
    is the dead state, with no paths: its sums stay zero.

    ``weights`` is ``(B, n, 10)``.  A backward batch may hold shorter
    sentences right-aligned: sentence ``b`` scores its words with
    ``weights[b, starts[b]:]``, so its suffix sums are the rows from
    ``starts[b]`` on and need no mask.  Each step gathers the chart at the
    edges' far ends and combines each state's edges with one ``reduceat``, in
    edge order.  Raises :class:`EmptyLanguage` if some sentence has no
    accepting path.
    """
    batch, n = weights.shape[:2]
    states = lat.num_grammar_states
    chart = np.full((n + 1, batch, states + 1), sr.zero)
    groups = lat.backward if backward else lat.forward
    far = groups.dst if backward else groups.src
    edge_weights = np.take(weights, groups.tag, axis=2).transpose(1, 0, 2)  # (n, B, E)
    if backward:
        order, read, write = range(n - 1, -1, -1), 1, 0
        chart[n, :, :states][:, lat.final_mask] = sr.one
    else:
        order, read, write = range(n), 0, 1
        chart[0, :, lat.initial] = sr.one
    for i in order:
        edges = chart[i + read][:, far]
        sr.times(edges, edge_weights[i], out=edges)
        sr.plus.reduceat(edges, groups.bounds, axis=1, out=chart[i + write][:, :states])
    if backward:
        starts = np.zeros(batch, dtype=np.int64) if starts is None else starts
        totals = chart[starts, np.arange(batch), lat.initial]
    else:
        totals = sr.plus.reduce(chart[n, :, :states][:, lat.final_mask], axis=1)
    if (totals == sr.zero).any():
        raise EmptyLanguage("lattice has no accepting path")
    return totals, chart


def _posterior(lat: Lattice, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """``log Z`` and the tag marginals, from one forward and one backward chart;
    each tag's edges are summed with one ``reduceat``, in edge order, and each
    marginal row is normalised by its own log-sum (``log Z`` in exact
    arithmetic), so with large weights rounding cannot push a row off one.
    """
    (log_z,), alpha = _chart(lat, weights[None], LOG)
    _, beta = _chart(lat, weights[None], LOG, backward=True)
    edges = lat.by_tag
    edge_logp = alpha[:-1, 0, edges.src] + weights[:, edges.tag] + beta[1:, 0, edges.dst]
    acc = np.logaddexp.reduceat(edge_logp, edges.bounds, axis=1)
    return float(log_z), np.exp(acc - np.logaddexp.reduce(acc, axis=1, keepdims=True))


def random_well_formed(lat: Lattice, rng: np.random.Generator) -> tuple[Tag, ...]:
    """Sample one accepting path uniformly over local choices.

    The choices at each word are the tags that lead to a co-reachable state,
    one with a finite score in a backward tropical chart over zero weights.
    Raises :class:`EmptyLanguage` if the lattice has no accepting path.
    """
    _, beta = _chart(lat, np.zeros((1, lat.n, NUM_TAGS)), TROPICAL, backward=True)
    alive = beta[:, 0] > NEG_INF  # the dead state, where next_state is -1, never is
    q = lat.initial
    out: list[Tag] = []
    for pos in range(lat.n):
        tag = int(rng.choice([t for t in range(NUM_TAGS) if alive[pos + 1, lat.next_state[q, t]]]))
        out.append(TAGS[tag])
        q = int(lat.next_state[q, tag])
    return tuple(out)


def sequence_score(weights: np.ndarray, ts: TagSequence) -> float:
    """Bilinear score ``<y, w>`` of one tag sequence."""
    idx = ts.indices
    return float(np.asarray(weights)[np.arange(len(idx)), idx].sum())


def viterbi(lat: Lattice, weights: np.ndarray) -> tuple[float, TagSequence]:
    """Highest-scoring well-formed tag sequence and its score.

    Ties are broken toward the lower tag index, resolved left to right, so
    the result is deterministic.  The score is recomputed from the returned
    sequence, making ``score == <y, w>`` exact.
    """
    weights = _check_weights(lat, weights)
    (ts,) = viterbi_batch(lat, weights[None], [lat.n])
    return sequence_score(weights, ts), ts


def viterbi_batch(lat: Lattice, weights: np.ndarray, lengths: Sequence[int]) -> list[TagSequence]:
    """The :func:`viterbi` sequences of a batch of right-aligned sentences.

    ``weights`` is ``(B, n, 10)`` for the ``n``-word lattice ``lat``;
    sentence ``b`` has ``lengths[b] <= n`` words, scored by the last
    ``lengths[b]`` rows of ``weights[b]`` (the rows before them are padding
    and may hold any finite value).  Each sequence, tie-break included, is
    the one :func:`viterbi` gives for the sentence alone.
    """
    weights = _check_weights(lat, weights, batched=True)
    batch, n, states = len(weights), lat.n, lat.num_grammar_states
    starts = n - np.asarray(lengths, dtype=np.int64)
    if starts.shape != (batch,) or (starts < 0).any() or (starts > n).any():
        raise ValueError(f"expected {batch} lengths in 0..{n}, got {lengths!r}")
    beta = _chart(lat, weights, TROPICAL, backward=True, starts=starts)[1][1:]
    per_word = weights.transpose(1, 0, 2)
    # best[i, b, s]: the lowest tag of a best step from state s at word i, found
    # one tag at a time so that no (n, B, S, 10) array is needed; an undefined
    # step (-1) reads the last column, the dead state
    best = np.zeros((n, batch, states), dtype=np.intp)
    top = np.take(beta, lat.next_state[:, 0], axis=2)
    top += per_word[:, :, :1]
    for tag in range(1, NUM_TAGS):
        score = np.take(beta, lat.next_state[:, tag], axis=2)
        score += per_word[:, :, tag : tag + 1]
        np.copyto(best, tag, where=score > top)
        np.maximum(top, score, out=top)
    succ = lat.next_state[np.arange(states), best]
    succ[np.arange(n)[:, None] < starts, lat.initial] = lat.initial  # padding keeps the initial state
    # walk all sentences at once over flat (sentence, state) indices
    flat_succ = (succ + np.arange(batch)[:, None] * states).reshape(n, batch * states)
    at = np.arange(batch) * states + lat.initial
    path = np.empty((n, batch), dtype=np.int64)
    for i, row in enumerate(flat_succ):
        path[i] = at
        at = row[at]
    tags = best.reshape(n, batch * states)[np.arange(n)[:, None], path].T.tolist()
    return [TagSequence.from_indices(row[start:]) for row, start in zip(tags, starts.tolist())]


def forward(lat: Lattice, weights: np.ndarray) -> float:
    """Log-partition over all well-formed sequences of length ``n``."""
    return float(_chart(lat, _check_weights(lat, weights)[None], LOG)[0][0])


def marginals(lat: Lattice, weights: np.ndarray) -> np.ndarray:
    """Posterior tag probabilities, the gradient of :func:`forward`.

    Entry ``(i, t)`` is the total probability of sequences tagging word ``i``
    with tag ``t``; rows sum to one and cells unusable by any accepting path
    are exactly zero.
    """
    return _posterior(lat, _check_weights(lat, weights))[1]


# Canonical tag index after a flip: swaps DB-Bx/DB-By, DI-Bx/DI-By and DI-Ix/DI-Iy.
_FLIP = np.array([0, 1, 2, 4, 3, 6, 5, 8, 7, 9])


@dataclass(frozen=True, eq=False)
class PartialLabelSet:
    """The ``2**k`` admissible gold sequences: ``gold`` with any of its ``k``
    unresolved sets flipped.  ``owner[i]`` is the unresolved set covering word
    ``i`` (numbered left to right), or -1.
    """

    gold: TagSequence
    owner: np.ndarray
    k: int

    @classmethod
    def from_annotation(cls, ann: SentenceAnnotation) -> "PartialLabelSet":
        owner = np.full(ann.n, -1)
        free = [s for s in ann.sets if not s.resolved]
        for slot, s in enumerate(free):
            owner[s.span[0] : s.span[1] + 1] = slot
        return cls(gold=encode(ann), owner=owner, k=len(free))

    def __len__(self) -> int:
        return 2**self.k


def _flip_gains(pl: PartialLabelSet, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per word the gold tag and its flip (itself outside unresolved sets), and
    the score gain of flipping each set, with slot 0 standing for no set."""
    gold = pl.gold.indices
    flipped = np.where(pl.owner >= 0, _FLIP[gold], gold)
    words = np.arange(len(gold))
    change = weights[words, flipped] - weights[words, gold]
    return gold, flipped, np.bincount(pl.owner + 1, weights=change, minlength=pl.k + 1)


def clamped_log_partition(pl: PartialLabelSet, weights: np.ndarray) -> float:
    """Log-sum-exp of the member scores (the clamped log-partition):
    ``<gold, w> + sum_s log(1 + exp(delta_s))``, ``delta_s`` the gain of flipping set ``s``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    gains = _flip_gains(pl, weights)[2][1:]
    return sequence_score(weights, pl.gold) + float(np.logaddexp(0.0, gains).sum())


def clamped_marginals(pl: PartialLabelSet, weights: np.ndarray) -> np.ndarray:
    """Posterior-weighted average of member one-hots (gradient of the clamp):
    inside each set's span, ``gold`` and its flip mixed with weight ``sigmoid(delta_s)``.
    """
    gold, flipped, gains = _flip_gains(pl, np.asarray(weights, dtype=np.float64))
    p = np.exp(-np.logaddexp(0.0, -gains))[pl.owner + 1]  # sigmoid without overflow
    words = np.arange(len(gold))
    out = np.zeros((len(gold), NUM_TAGS))
    out[words, gold] += 1.0 - p  # outside sets flipped == gold, so the row still sums to 1
    out[words, flipped] += p
    return out


def nll(lat: Lattice, weights: np.ndarray, gold: TagSequence) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of a fully-observed gold sequence.

    Returns ``(loss, gradient)`` with ``gradient = marginals - onehot(gold)``.
    """
    weights = _check_weights(lat, weights)
    if len(gold) != lat.n:
        raise ValueError(f"gold length {len(gold)} != lattice length {lat.n}")
    if not is_well_formed(gold):
        raise IllFormed(gold.symbols())
    log_z, probs = _posterior(lat, weights)
    return log_z - sequence_score(weights, gold), probs - gold.one_hot()


def partial_nll(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray]:
    """Marginalised negative log-likelihood over a partial label set.

    ``loss = A_all - A_clamped >= 0`` and the gradient is the difference
    between full marginals and the member-posterior mean of member one-hots
    (the E-step quantity, treated as a constant with respect to ``weights``).
    """
    weights = _check_weights(lat, weights)
    log_z, probs = _posterior(lat, weights)
    return log_z - clamped_log_partition(pl, weights), probs - clamped_marginals(pl, weights)


def hard_em_step(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray, TagSequence]:
    """One hard-EM step: clamp to the best-scoring member, then NLL on it.

    It flips exactly the sets whose flip raises the score, so ties keep the
    earliest member in canonical order (unflipped first, then binary counting
    over sets from left to right).
    """
    weights = _check_weights(lat, weights)
    gold, flipped, gains = _flip_gains(pl, weights)
    chosen = TagSequence.from_indices(np.where(gains[pl.owner + 1] > 0, flipped, gold))
    loss, grad = nll(lat, weights, chosen)
    return loss, grad, chosen
