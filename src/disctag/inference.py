"""Exact inference on the tag lattice and the training losses.

All programs run on the acyclic lattice from :mod:`disctag.automata` in one of
two semirings: tropical (max, +) for MAP inference and log (logaddexp, +) for
the log-partition and marginals.  Scores of a tag sequence are bilinear,
``<y, w> = sum_i w[i, y_i]``, so every gradient below is an ``(n, 10)`` matrix
aligned with the weight matrix.

The partially-supervised losses marginalise over the label set of an
annotation whose component types are unknown: flipping the x/y orientation of
any unresolved set of mentions leaves the denoted mentions unchanged, so a
sentence with ``k`` unresolved sets has ``2**k`` admissible gold sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .automata import Lattice
from .errors import EmptyLanguage, IllFormed
from .scheme import (
    NUM_TAGS,
    SentenceAnnotation,
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
    "forward",
    "marginals",
    "sequence_score",
    "clamped_log_partition",
    "clamped_marginals",
    "nll",
    "partial_nll",
    "hard_em_step",
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


def _check_weights(lat: Lattice, weights: np.ndarray) -> np.ndarray:
    """The weights as float64, checked to be an ``(n, 10)`` matrix of finite scores."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (lat.n, NUM_TAGS):
        raise ValueError(f"expected weights of shape ({lat.n}, {NUM_TAGS}), got {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weight matrix entries must be finite")
    return weights


def _forward_chart(lat: Lattice, weights: np.ndarray, sr: Semiring) -> np.ndarray:
    """(n+1, S) chart of prefix sums from the initial state."""
    alpha = np.full((lat.n + 1, lat.num_grammar_states), sr.zero)
    alpha[0, lat.initial] = sr.one
    for i in range(lat.n):
        contrib = sr.times(alpha[i, lat.edge_src], weights[i, lat.edge_tag])
        sr.plus.at(alpha[i + 1], lat.edge_dst, contrib)
    return alpha


def _backward_chart(lat: Lattice, weights: np.ndarray, sr: Semiring) -> np.ndarray:
    """(n+1, S) chart of suffix sums into the final states."""
    beta = np.full((lat.n + 1, lat.num_grammar_states), sr.zero)
    beta[lat.n, lat.final_mask] = sr.one
    for i in range(lat.n - 1, -1, -1):
        contrib = sr.times(weights[i, lat.edge_tag], beta[i + 1, lat.edge_dst])
        sr.plus.at(beta[i], lat.edge_src, contrib)
    return beta


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
    beta = _backward_chart(lat, weights, TROPICAL)
    if beta[0, lat.initial] == NEG_INF:
        raise EmptyLanguage("lattice has no accepting path")
    tags = []
    state = lat.initial
    for i in range(lat.n):
        target = beta[i, state]
        for t in range(NUM_TAGS):
            nxt = lat.next_state[state, t]
            if nxt >= 0 and weights[i, t] + beta[i + 1, nxt] == target:
                tags.append(t)
                state = int(nxt)
                break
        else:  # pragma: no cover - beta guarantees a witness
            raise AssertionError("no transition attains the chart value")
    ts = TagSequence.from_indices(tags)
    return sequence_score(weights, ts), ts


def forward(lat: Lattice, weights: np.ndarray) -> float:
    """Log-partition over all well-formed sequences of length ``n``."""
    weights = _check_weights(lat, weights)
    alpha = _forward_chart(lat, weights, LOG)
    total = np.logaddexp.reduce(alpha[lat.n, lat.final_mask])
    if total == NEG_INF:
        raise EmptyLanguage("lattice has no accepting path")
    return float(total)


def marginals(lat: Lattice, weights: np.ndarray) -> np.ndarray:
    """Posterior tag probabilities, the gradient of :func:`forward`.

    Entry ``(i, t)`` is the total probability of sequences tagging word ``i``
    with tag ``t``; rows sum to one and cells unusable by any accepting path
    are exactly zero.  Each row is normalised by its own log-sum, which is
    ``log Z`` in exact arithmetic; with large weights the rounding of the
    chart sums then cannot push a row away from one or overflow ``exp``.
    """
    weights = _check_weights(lat, weights)
    alpha = _forward_chart(lat, weights, LOG)
    beta = _backward_chart(lat, weights, LOG)
    log_z = np.logaddexp.reduce(alpha[lat.n, lat.final_mask])
    if log_z == NEG_INF:
        raise EmptyLanguage("lattice has no accepting path")
    acc = np.full((lat.n, NUM_TAGS), NEG_INF)
    for i in range(lat.n):
        edge_logp = (
            alpha[i, lat.edge_src]
            + weights[i, lat.edge_tag]
            + beta[i + 1, lat.edge_dst]
        )
        np.logaddexp.at(acc[i], lat.edge_tag, edge_logp)
    return np.exp(acc - np.logaddexp.reduce(acc, axis=1, keepdims=True))


@dataclass(frozen=True)
class PartialLabelSet:
    """The admissible gold sequences of a partially-typed annotation.

    ``members`` enumerates the encodings obtained by independently flipping
    the x/y orientation of every unresolved set of mentions, in canonical
    order (the unflipped annotation first, then binary counting over sets
    from left to right).  Sets marked resolved keep their orientation.  All
    members are well-formed and decode to the same mention set.
    """

    base: SentenceAnnotation
    members: tuple[TagSequence, ...]

    @classmethod
    def from_annotation(cls, ann: SentenceAnnotation) -> "PartialLabelSet":
        free = [i for i, s in enumerate(ann.sets) if not s.resolved]
        members = []
        for combo in itertools.product((False, True), repeat=len(free)):
            flips = [False] * len(ann.sets)
            for slot, flip in zip(free, combo):
                flips[slot] = flip
            members.append(encode(ann.with_flips(flips)))
        return cls(base=ann, members=tuple(members))

    def __len__(self) -> int:
        return len(self.members)


def _member_scores(weights: np.ndarray, pl: PartialLabelSet) -> np.ndarray:
    return np.array([sequence_score(weights, m) for m in pl.members])


def clamped_log_partition(pl: PartialLabelSet, weights: np.ndarray) -> float:
    """Log-sum-exp of the member scores (the clamped log-partition)."""
    if not pl.members:
        raise ValueError("partial label set has no members")
    return float(np.logaddexp.reduce(_member_scores(np.asarray(weights, dtype=np.float64), pl)))


def clamped_marginals(pl: PartialLabelSet, weights: np.ndarray) -> np.ndarray:
    """Posterior-weighted average of member one-hots (gradient of the clamp)."""
    scores = _member_scores(np.asarray(weights, dtype=np.float64), pl)
    log_z = np.logaddexp.reduce(scores)
    posterior = np.exp(scores - log_z)
    out = np.zeros((len(pl.members[0]), NUM_TAGS))
    for p, member in zip(posterior, pl.members):
        out[np.arange(len(member)), member.indices] += p
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
    loss = forward(lat, weights) - sequence_score(weights, gold)
    grad = marginals(lat, weights) - gold.one_hot()
    return float(loss), grad


def partial_nll(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray]:
    """Marginalised negative log-likelihood over a partial label set.

    ``loss = A_all - A_clamped >= 0`` and the gradient is the difference
    between full marginals and the member-posterior mean of member one-hots
    (the E-step quantity, treated as a constant with respect to ``weights``).
    """
    weights = _check_weights(lat, weights)
    loss = forward(lat, weights) - clamped_log_partition(pl, weights)
    grad = marginals(lat, weights) - clamped_marginals(pl, weights)
    return float(loss), grad


def hard_em_step(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray, TagSequence]:
    """One hard-EM step: clamp to the best-scoring member, then NLL on it.

    Ties keep the earliest member in canonical flip order.
    """
    weights = _check_weights(lat, weights)
    scores = _member_scores(weights, pl)
    chosen = pl.members[int(np.argmax(scores))]
    loss, grad = nll(lat, weights, chosen)
    return loss, grad, chosen
