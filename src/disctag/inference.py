"""Exact inference on the tag lattice and the training losses.

All programs run on the acyclic lattice of :mod:`disctag.automata`, one
layer of the grammar's compiled table per word, ``n`` read from the shape of
the weight matrix.  They run in one of three semirings: tropical (max, +) for
MAP inference, and for the log-partition and marginals the probability
semiring (+, *) with each chart step rescaled, falling back to log
(logaddexp, +) where that underflows.
Scores of a tag sequence are bilinear, ``<y, w> = sum_i w[i, y_i]``, so every
gradient below is an ``(n, 10)`` matrix aligned with the weight matrix.

One chart routine serves every program, on a batch of lanes, each holding
one or more sentences end to end, and the grammar's table compiled from its
minimal DFA; the chart resets where each sentence begins, so a sentence gets
the same bits in any lane.  The backward chart is the forward chart of the
reversed edges with the words read right to left, so one pass of ``n`` steps
gives both.  The chart is held state-major, one row of ``L`` lanes per
state, and each step sums every
state's edges, of both halves, through the grammar's padded slot table: two
row gathers, a product and one sum over the slots, which adds in the order
``reduceat`` over each state's edges would.  Viterbi and
:func:`random_well_formed` run the backward half alone; the latter samples
paths through the states that a backward tropical chart finds co-reachable.
The marginals sum the edges grouped by tag with one ``reduceat``.  The losses
of a batch (:func:`batch_losses`) run one two-way pass; the single-sentence
losses are batches of one.

The partially-supervised losses marginalise over the label set of an
annotation whose component types are unknown: flipping the x/y orientation of
any unresolved set of mentions swaps its x and y tags and leaves the denoted
mentions unchanged, so a sentence with ``k`` unresolved sets has ``2**k``
admissible gold sequences.  Set spans are disjoint, so every sum over them
factorises into one two-way choice per set and takes time linear in ``n``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "PartialLabelSet",
    "viterbi",
    "viterbi_rows",
    "forward",
    "marginals",
    "sequence_score",
    "clamped_log_partition",
    "clamped_marginals",
    "nll",
    "partial_nll",
    "hard_em_step",
    "batch_losses",
    "LOSSES",
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
# the probability semiring, which :func:`_chart` runs rescaled and reports as logs
SCALED = Semiring("scaled", np.add, np.multiply, 0.0, 1.0)
# Bounds of a scaled chart without underflow (see :func:`_chart`), for
# grammars of up to a million edges: a cell of at least _TINY, before its row
# is divided, loses under 1e-67 of itself to products that underflow; and
# with a word's weights spanning at most _SPAN, a product read from such a
# cell is at least exp(-_SPAN) * _TINY / 1e6 > 0, so none underflows to zero.
_TINY = 1e-250
_SPAN = 150.0


def _check_weights(weights: np.ndarray, batched: bool = False) -> np.ndarray:
    """The weights as float64, checked to be an ``(n, 10)`` matrix of finite
    scores, or with ``batched`` a ``(B, n, 10)`` stack of them."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 + batched or weights.shape[-1] != NUM_TAGS:
        want = f"(B, n, {NUM_TAGS})" if batched else f"(n, {NUM_TAGS})"
        raise ValueError(f"expected weights of shape {want}, got {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weight matrix entries must be finite")
    return weights


def _check_lengths(
    weights: np.ndarray, lengths: Sequence[int], lanes: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The sentence lengths and sentences per lane of a ``(L, n, 10)`` batch
    of lanes as arrays, checked to fit: ``lanes[l]`` sentences in lane ``l``
    (by default one, and then ``lanes`` stays ``None``), their lengths
    summing to at most ``n``, and each sentence of a lane of several at least
    one word long."""
    batch, n = weights.shape[:2]
    lengths = np.asarray(lengths, dtype=np.intp)
    given, fits = lanes, True
    if lanes is not None:
        lanes = np.asarray(lanes, dtype=np.intp)
        if len(lengths) == batch:  # a lane of one each
            fits, lanes = lanes.shape == (batch,) and (lanes == 1).all(), None
        else:
            fits = lanes.shape == (batch,) and (lanes >= 1).all() and lengths.shape == (lanes.sum(),)
    if lanes is None:
        fits = fits and lengths.shape == (batch,) and (lengths >= 0).all() and (lengths <= n).all()
    elif fits:
        lane = np.repeat(np.arange(batch), lanes)
        fits = (np.bincount(lane, lengths, batch) <= n).all() and ((lengths > 0) | (lanes[lane] == 1)).all()
    if not fits:
        raise ValueError(f"lengths {lengths!r} do not fit {batch} lanes of {n} words holding {given!r} sentences")
    return lengths, lanes


class _Layout(NamedTuple):
    """Where the sentences of a batch of lanes sit (see :func:`_layout`)."""

    lane: np.ndarray  # (sentences,): each sentence's lane
    starts: np.ndarray  # each sentence's first row
    ends: np.ndarray  # the row after its last word
    heads: np.ndarray  # (L,): each lane's first row
    opens: np.ndarray  # (n + 1, L): the rows that start a sentence
    inner: np.ndarray | None  # (n + 1, L): those that end one and start the next; None if lanes hold one


def _layout(n: int, lengths: np.ndarray, lanes: np.ndarray | None = None) -> _Layout:
    """The layout of lanes of ``n`` rows, lane ``l`` holding the next
    ``lanes[l]`` sentences of ``lengths`` (by default one, and then no row
    is between two sentences) end to end, the last one ending at row ``n``."""
    if lanes is None:
        lane, ends = np.arange(len(lengths)), np.full(len(lengths), n)
        starts = heads = ends - lengths
    else:
        lane = np.repeat(np.arange(len(lanes)), lanes)
        ends = np.cumsum(lengths)
        lasts = np.cumsum(lanes) - 1
        ends += (n - ends[lasts])[lane]
        starts = ends - lengths
        heads = starts[lasts + 1 - lanes]
    opens = np.zeros((n + 1, len(heads)), dtype=bool)
    opens[starts, lane] = True
    inner = None
    if lanes is not None:
        inner = opens.copy()  # a lane's later sentences, of a word or more, start after its first
        inner[heads, np.arange(len(heads))] = False
    return _Layout(lane, starts, ends, heads, opens, inner)


def _in_word_order(steps: np.ndarray) -> np.ndarray:
    """An ``(n, B, halves, ...)`` array of :func:`_chart`'s steps, its last half
    (the backward one, whose step ``t`` reads word ``n - 1 - t``) reversed, so
    that row ``i`` of every half belongs to word ``i``."""
    return np.concatenate([steps[:, :, :-1], steps[::-1, :, -1:]], axis=2)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # a scaled underflow shows in the totals
def _chart(
    lat: Lattice, weights: np.ndarray, sr: Semiring, lengths: np.ndarray | None = None, backward: bool = False,
    *, layout: _Layout | None = None, scaled_out: np.ndarray | None = None,
):
    """``(totals, charts)`` of a batch of lanes in one pass: ``charts`` is
    ``(alpha, beta)``, the ``(n+1, S+1, L)`` prefix sums from the initial
    state and suffix sums into the final states, or with ``backward`` only
    ``(beta,)``; ``totals`` is ``(halves, sentences)``, per chart and
    sentence the sum over its accepting paths.  Column ``S`` is the dead
    state, with no paths: its sums stay zero.

    ``weights`` is ``(L, n, 10)``, ``L`` lanes of ``n`` rows, and
    ``layout`` (see :func:`_layout`) places the sentences in them: by default
    each lane holds one, of ``lengths[l]`` words (by default ``n``).  A
    lane's sentences lie end to end, the last one ending at row ``n``; its
    rows before the first are padding.  Each sentence is scored by its own
    rows, and both charts are reset where it begins: ``alpha`` reads its
    first row as the initial row, and ``beta`` the row after its last word
    as the final row.  So a sentence's rows of each chart are the ones it
    gets alone, except that a row between two sentences holds the reset of
    each half; the totals are read before the resets.  Padding rows are
    undefined.  The backward chart is the forward chart of the reversed
    edges with the words read right to left, so step ``t`` writes ``alpha[t
    + 1]`` and ``beta[n - 1 - t]`` together (the grammar's ``two_way``
    :class:`~disctag.automata.SlotTable`, or its ``reverse`` half alone),
    then resets them.  The steps are held state-major, each chart column a
    row of ``L`` lanes, so a step is four calls on whole rows: it gathers
    every slot's far-end row, gathers the slot's word weights, multiplies,
    and sums the slots in order, which rounds as ``reduceat`` over each
    column's edges did.

    :data:`SCALED` is Rabiner's scaled forward-backward: each word's
    weights are ``exp(w - max w)``, each step divides each half by its own
    sum, and a total is the log of its sum plus the logs of the divisors and
    word maxima of the sentence's words; the scaled weights go to
    ``scaled_out``, an ``(n, 10, L)`` array, if given.  Its total is NaN for
    a chart that may have lost mass to underflow: one where some word of the
    sentence has weights spanning more than ``_SPAN``, or some cell at such a
    word was positive but below ``_TINY`` before its half was divided.  In
    any other chart no cell can underflow to zero, and every cell is right
    to rounding.  The other semirings raise :class:`EmptyLanguage` if some
    sentence has no accepting path.
    """
    batch, n = weights.shape[:2]
    if layout is None:
        layout = _layout(n, np.full(batch, n) if lengths is None else lengths)
    lane, starts, ends, _, opens, inner = layout
    states = lat.num_grammar_states
    halves, table = (1, lat.reverse) if backward else (2, lat.two_way)
    steps = np.full((n + 1, halves, states + 1, batch), sr.zero)  # steps[t]: after t words of each half
    rows = steps.reshape(n + 1, halves * (states + 1), batch)
    # the chart rows with a reset in some lane: alpha's where a sentence
    # starts, beta's between two sentences, where both are first kept as
    # they were, for the totals
    packed = inner is not None
    opening = [False] if backward else opens.any(axis=1).tolist()
    closing = inner.any(axis=1).tolist() if packed else [False] * (n + 1)
    if packed:
        kept = np.empty_like(steps)
    per_word = weights.transpose(1, 2, 0)  # (n, 10, L)
    scaled = sr is SCALED
    if scaled:
        top = per_word.max(axis=1, keepdims=True)
        per_word = np.exp(per_word - top, out=scaled_out)
        scale = np.ones((n, batch, halves, 1))
        by_lane = np.empty((batch, halves, states + 1))  # a step's row as its divisors are summed
    # the forward half reads word t at step t, the backward half word n - 1 - t
    words = np.concatenate([per_word, per_word[::-1]][2 - halves :], axis=1)
    far, word = table.far, table.word
    if sr is LOG:  # logaddexp.reduceat sums a group's edges in plain order
        far, word = np.roll(far, 1, axis=0), np.roll(word, 1, axis=0)
    cells = np.empty(far.shape + (batch,))
    edge_weights = np.empty_like(cells)
    written = rows[:, : far.shape[1]]  # the last column, a dead state, stays
    steps[0, -1, :states][lat.final_mask] = sr.one
    if not backward:
        steps[0, 0, lat.initial] = sr.one
    for t in range(n):  # "clip": with out=, the default mode gathers into a buffer and copies it
        rows[t].take(far, axis=0, out=cells, mode="clip")
        words[t].take(word, axis=0, out=edge_weights, mode="clip")
        sr.times(cells, edge_weights, out=cells)
        sr.plus.reduce(cells, axis=0, out=written[t + 1])
        if scaled:
            np.copyto(by_lane, steps[t + 1].transpose(2, 0, 1))
            np.add.reduce(by_lane, axis=2, keepdims=True, out=scale[t])
            steps[t + 1] /= scale[t].transpose(1, 2, 0)
        if not backward and opening[t + 1]:  # alpha's row t + 1
            if closing[t + 1]:
                np.copyto(kept[t + 1, 0], steps[t + 1, 0])
            np.copyto(steps[t + 1, 0], steps[0, 0], where=opens[t + 1])
        if closing[n - 1 - t]:  # beta's row n - 1 - t
            np.copyto(kept[t + 1, -1], steps[t + 1, -1])
            np.copyto(steps[t + 1, -1], steps[0, -1], where=inner[n - 1 - t])
    charts = (steps[:, 0], steps[::-1, -1])[2 - halves :]

    # each sentence's totals, from its rows as they were before a reset
    totals = np.empty((halves, len(lane)))
    first = n - starts  # the step that wrote beta's row of the sentence's first word
    totals[-1] = steps[first, -1, lat.initial, lane]
    if packed:
        np.copyto(totals[-1], kept[first, -1, lat.initial, lane], where=inner[starts, lane])
    if not backward:  # each sentence's finals are summed as a row, whatever their number
        at_end = (ends[:, None], 0, np.flatnonzero(lat.final_mask), lane[:, None])
        finals = np.where(inner[ends, lane][:, None], kept[at_end], steps[at_end]) if packed else steps[at_end]
        sr.plus.reduce(finals, axis=1, out=totals[0])
    if scaled:
        at = np.arange(n)[:, None]
        own = ((at >= starts) & (at < ends))[..., None]  # (n, S, 1): word i is one of sentence s's
        # summed in word order, so the other rows (zeros) leave a sentence's sum as it is alone
        logs = np.log(_in_word_order(scale)[..., 0]) + top.transpose(0, 2, 1)
        if packed:
            logs = logs[:, lane]
        log_totals = np.log(totals) + (np.cumsum(np.where(own, logs, 0.0), axis=0)[-1].T if n else 0.0)
        divided = steps[1:]
        if packed:  # the rows between two sentences as they were before their reset
            between = np.stack([inner, inner[::-1]][2 - halves :], axis=1)[1:, :, None]
            divided = np.where(between, kept[1:], divided)
        before = divided[:, :, :states] * scale.transpose(0, 2, 3, 1)  # each step's cells before the division
        small = ((before > 0) & (before < _TINY)).any(axis=2).transpose(0, 2, 1)
        wide = (per_word < np.exp(-_SPAN)).any(axis=1)[..., None]
        if small.any() or wide.any():  # rare, so the sentences are looked for only then
            log_totals[((_in_word_order(small) | wide)[:, lane] & own).any(axis=0).T] = np.nan
        return log_totals, charts
    if (totals == sr.zero).any():
        raise EmptyLanguage("lattice has no accepting path")
    return totals, charts


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # failed rows are recomputed
def _posterior(lat: Lattice, weights: np.ndarray, lengths: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``log Z`` and the tag marginals of a batch, ``(B,)`` and ``(B, n, 10)``,
    for right-aligned sentences as in :func:`_chart` (padding rows of the
    marginals are undefined).

    One scaled two-way chart; each tag's edges are summed with one
    ``reduceat``, in edge order, and each marginal row is divided by its own
    sum, so the scales cancel.  A sentence where either half of the chart
    may have lost mass to underflow (see :func:`_chart`), or where some
    marginal row sums to less than ``_TINY``, is recomputed alone by
    :func:`_log_posterior`; that happens only with large weights, whose
    scores differ by hundreds.  Each sentence gets, bit for bit, what it gets
    alone.
    """
    batch, n = weights.shape[:2]
    starts = np.zeros(batch, dtype=np.intp) if lengths is None else n - lengths
    scaled = np.empty((n, NUM_TAGS, batch))
    (log_z, log_z_back), (alpha, beta) = _chart(lat, weights, SCALED, lengths, scaled_out=scaled)
    edges = lat.by_tag
    mass = alpha[:-1].take(edges.src, axis=1)  # (n, E, B)
    mass *= scaled.take(edges.tag, axis=1)
    mass *= beta[1:].take(edges.dst, axis=1)
    acc = np.add.reduceat(mass, edges.bounds, axis=1).transpose(0, 2, 1).copy()  # (n, B, 10)
    sums = acc.sum(axis=2, keepdims=True)
    acc /= sums
    real = np.arange(n)[:, None] >= starts
    good = np.isfinite(log_z + log_z_back) & ((sums[..., 0] >= _TINY) | ~real).all(axis=0)  # NaN >= is false
    probs = acc.transpose(1, 0, 2)
    for b in (~good).nonzero()[0]:
        log_z[b], probs[b, starts[b] :] = _log_posterior(lat, weights[b, starts[b] :])
    return log_z, probs


def _log_posterior(lat: Lattice, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """``log Z`` and the tag marginals of one sentence, from one two-way
    log-semiring chart; each marginal row is normalised by its own log-sum
    (``log Z`` in exact arithmetic), so with large weights rounding cannot
    push a row off one.
    """
    ((log_z,), _), (alpha, beta) = _chart(lat, weights[None], LOG)
    edges = lat.by_tag
    edge_logp = alpha[:-1, edges.src, 0] + weights[:, edges.tag] + beta[1:, edges.dst, 0]
    acc = np.logaddexp.reduceat(edge_logp, edges.bounds, axis=1)
    return log_z, np.exp(acc - np.logaddexp.reduce(acc, axis=1, keepdims=True))


def random_well_formed(lat: Lattice, n: int, rng: np.random.Generator) -> tuple[Tag, ...]:
    """Sample one accepting path of ``n`` words uniformly over local choices.

    The choices at each word are the tags that lead to a co-reachable state,
    one with a finite score in a backward tropical chart over zero weights.
    Raises :class:`EmptyLanguage` if the lattice has no accepting path.
    """
    _, (beta,) = _chart(lat, np.zeros((1, n, NUM_TAGS)), TROPICAL, backward=True)
    alive = beta[..., 0] > NEG_INF  # the dead state, where next_state is -1, never is
    q = lat.initial
    out: list[Tag] = []
    for pos in range(n):
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
    weights = _check_weights(weights)
    ts = TagSequence.from_indices(viterbi_rows(lat, weights[None], [len(weights)]))
    return sequence_score(weights, ts), ts


def viterbi_rows(
    lat: Lattice, weights: np.ndarray, lengths: Sequence[int], lanes: Sequence[int] | None = None
) -> np.ndarray:
    """The :func:`viterbi` sequences of a batch of sentences packed in lanes,
    as tag indices, one sentence after another in one flat array.

    ``weights`` is ``(L, n, 10)``, ``L`` lanes of ``n`` rows.  Lane ``l``
    holds the next ``lanes[l]`` sentences (by default one), whose lengths
    are the next entries of ``lengths``, end to end, the last one ending at
    row ``n``; the rows before its first sentence are padding and may hold
    any finite value.  Each sentence of a lane of several has at least one
    word.  The chart reads the row after each sentence's last word as the
    final-state row, and the walk restarts in the initial state at each
    sentence's first word, so each sequence, tie-break included, is the one
    :func:`viterbi` gives for the sentence alone.
    """
    weights = _check_weights(weights, batched=True)
    lengths, lanes = _check_lengths(weights, lengths, lanes)
    (batch, n, _), width = weights.shape, lat.num_grammar_states + 1
    layout = _layout(n, lengths, lanes)
    _, (beta,) = _chart(lat, weights, TROPICAL, backward=True, layout=layout)
    per_word = weights.transpose(1, 0, 2)
    # Walk along the best path, every lane at once, each one's state held as
    # its cell q * L + l of a chart row: at word i a lane scores the ten
    # successors of its state, beta[i + 1, l, next_state[q]] + w[i, l], and takes
    # the first best tag, the lowest.  These are the sums and comparisons of a
    # best tag per (word, state), made on the path only, so no (n, L, S) array
    # is built.  An undefined step (-1) reads the last column, the dead state,
    # whose score is -inf.
    rows = np.arange(batch)
    succ = np.full((width, NUM_TAGS), width - 1)  # the dead state's row is dead
    np.remainder(lat.next_state, width, out=succ[:-1])
    cells = (succ[:, None] * batch + rows[:, None]).reshape(width * batch, NUM_TAGS)
    chosen = rows * NUM_TAGS  # lane l's tag t is cell l * 10 + t of an (L, 10) step
    at = restart = lat.initial * batch + rows
    restarts = layout.opens[1:].any(axis=1).tolist()
    tags = np.empty((n, batch), dtype=np.intp)
    for i in range(n):
        step = cells.take(at, axis=0)
        score = beta[i + 1].take(step)
        score += per_word[i]
        at = step.take(score.argmax(axis=1, out=tags[i]) + chosen)
        if restarts[i]:  # in some lane, word i + 1 starts a sentence
            at = np.where(layout.opens[i + 1], restart, at)
    return tags.T[np.arange(n) >= layout.heads[:, None]]


def forward(lat: Lattice, weights: np.ndarray) -> float:
    """Log-partition over all well-formed sequences of length ``n``.

    It is the :func:`_posterior` of a batch of one, so that it is, bit for
    bit, the ``log Z`` of the losses, under the same fallback rule; that
    costs one two-way pass, and one more in the log semiring where the
    scaled one may have underflowed.
    """
    return float(_posterior(lat, _check_weights(weights)[None])[0][0])


def marginals(lat: Lattice, weights: np.ndarray) -> np.ndarray:
    """Posterior tag probabilities, the gradient of :func:`forward`.

    Entry ``(i, t)`` is the total probability of sequences tagging word ``i``
    with tag ``t``; rows sum to one and cells unusable by any accepting path
    are exactly zero.
    """
    return _posterior(lat, _check_weights(weights)[None])[1][0]


# Canonical tag index after a flip: swaps DB-Bx/DB-By, DI-Bx/DI-By and DI-Ix/DI-Iy.
_FLIP = np.array([0, 1, 2, 4, 3, 6, 5, 8, 7, 9])


@dataclass(frozen=True, eq=False)
class PartialLabelSet:
    """The ``2**k`` admissible gold sequences: ``gold`` with any of its ``k``
    unresolved sets flipped.  ``owner[i]`` is the unresolved set covering word
    ``i`` (numbered left to right), or -1.  ``gold_indices`` holds ``gold``'s
    tag indices, read-only, taken once for every loss that reads them.
    """

    gold: TagSequence
    owner: np.ndarray
    k: int
    gold_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        indices = self.gold.indices
        indices.flags.writeable = False
        object.__setattr__(self, "gold_indices", indices)

    @classmethod
    def from_annotation(cls, ann: SentenceAnnotation, *, gold: TagSequence | None = None) -> "PartialLabelSet":
        """The label set of ``ann``, whose encoding is ``gold``: by default
        ``encode(ann)``, or the caller's own, as :func:`~disctag.scheme.encode_batch`
        gives it for a whole corpus."""
        owner = np.full(ann.n, -1)
        free = [s for s in ann.sets if not s.resolved]
        for slot, s in enumerate(free):
            owner[s.span[0] : s.span[1] + 1] = slot
        return cls(gold=encode(ann) if gold is None else gold, owner=owner, k=len(free))

    def __len__(self) -> int:
        return 2**self.k


def _sums(values: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Sums of consecutive runs of ``values`` of the given sizes, each added in order."""
    return np.bincount(np.repeat(np.arange(len(sizes)), sizes), weights=values, minlength=len(sizes))


def _joined(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Integer arrays concatenated in order; none give an empty one."""
    return np.concatenate([np.empty(0, dtype=np.intp), *arrays])


def _flip_gains(labels: Sequence[PartialLabelSet], weights: np.ndarray):
    """Flip terms of a batch of label sets, over their words concatenated in
    order, ``weights`` holding the words' rows.

    Returns per word the gold tag, its flip (itself outside unresolved sets)
    and its slot, and per slot the score gain of flipping it.  Slot 0 stands
    for no set; the unresolved sets follow, sentence by sentence.
    """
    gold = _joined(pl.gold_indices for pl in labels)
    owner = _joined(pl.owner for pl in labels)
    sets = np.array([pl.k for pl in labels], dtype=np.intp)
    before = np.repeat(np.cumsum(sets) - sets, [len(pl.owner) for pl in labels])  # sets of earlier sentences
    slot = np.where(owner >= 0, owner + 1 + before, 0)
    flipped = np.where(owner >= 0, _FLIP[gold], gold)
    words = np.arange(len(gold))
    change = weights[words, flipped] - weights[words, gold]
    return gold, flipped, slot, np.bincount(slot, weights=change, minlength=sets.sum() + 1)


def _clamped(labels: Sequence[PartialLabelSet], weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sentence the clamped log-partition, and per word the clamped
    marginals (see :func:`clamped_log_partition` and
    :func:`clamped_marginals`), of a batch as in :func:`_flip_gains`."""
    gold, flipped, slot, gains = _flip_gains(labels, weights)
    p = np.exp(-np.logaddexp(0.0, -gains))[slot]  # sigmoid without overflow
    words = np.arange(len(gold))
    out = np.zeros((len(gold), NUM_TAGS))
    out[words, gold] += 1.0 - p  # outside sets flipped == gold, so the row still sums to 1
    out[words, flipped] += p
    gold_scores = _sums(weights[words, gold], [len(pl.owner) for pl in labels])
    return gold_scores + _sums(np.logaddexp(0.0, gains[1:]), [pl.k for pl in labels]), out


def _check_label_set(pl: PartialLabelSet, weights: np.ndarray) -> np.ndarray:
    """:func:`_check_weights` of one sentence's weights, checked to have one row per word of ``pl``."""
    weights = _check_weights(weights)
    if len(pl.owner) != len(weights):
        raise ValueError(f"label set length {len(pl.owner)} != sentence length {len(weights)}")
    return weights


def clamped_log_partition(pl: PartialLabelSet, weights: np.ndarray) -> float:
    """Log-sum-exp of the member scores (the clamped log-partition):
    ``<gold, w> + sum_s log(1 + exp(delta_s))``, ``delta_s`` the gain of flipping set ``s``.
    """
    return float(_clamped([pl], _check_label_set(pl, weights))[0][0])


def clamped_marginals(pl: PartialLabelSet, weights: np.ndarray) -> np.ndarray:
    """Posterior-weighted average of member one-hots (gradient of the clamp):
    inside each set's span, ``gold`` and its flip mixed with weight ``sigmoid(delta_s)``.
    """
    return _clamped([pl], _check_label_set(pl, weights))[1]


def _hard_em_targets(labels: Sequence[PartialLabelSet], weights: np.ndarray) -> np.ndarray:
    """The members picked by :func:`hard_em_step`, concatenated: each set is
    flipped iff that raises the score."""
    gold, flipped, slot, gains = _flip_gains(labels, weights)
    return np.where(gains[slot] > 0, flipped, gold)


LOSSES = ("nll", "partial", "hard-em")


def batch_losses(
    lat: Lattice, weights: np.ndarray, lengths: Sequence[int], labels: Sequence[PartialLabelSet], loss: str
) -> tuple[np.ndarray, np.ndarray]:
    """The losses of a batch of right-aligned sentences, and their gradients.

    ``weights`` and ``lengths`` are as in :func:`viterbi_rows`, one
    sentence per lane;
    ``labels[b]`` is sentence ``b``'s label set, and ``loss`` one of
    :data:`LOSSES`: :func:`nll` of each gold sequence (taken to be
    well-formed), :func:`partial_nll`, or :func:`hard_em_step`.  Returns the
    ``(B,)`` losses and the gradient rows of the sentences' words, one
    sentence after another; each sentence gets, bit for bit, what it gets
    alone.
    """
    weights = _check_weights(weights, batched=True)
    lengths, _ = _check_lengths(weights, lengths)
    if [len(pl.owner) for pl in labels] != lengths.tolist():
        raise ValueError("label set lengths do not match the sentence lengths")
    log_z, probs = _posterior(lat, weights, lengths)
    n = weights.shape[1]
    real = np.arange(n) >= (n - lengths)[:, None]
    scores, grad = weights[real], probs[real]
    if loss == "partial":
        clamped_z, clamped = _clamped(labels, scores)
        return log_z - clamped_z, grad - clamped
    if loss == "hard-em":
        target = _hard_em_targets(labels, scores)
    elif loss == "nll":
        target = _joined(pl.gold_indices for pl in labels)
    else:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    words = np.arange(len(target))
    grad[words, target] -= 1.0
    return log_z - _sums(scores[words, target], lengths), grad


def nll(lat: Lattice, weights: np.ndarray, gold: TagSequence) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of a fully-observed gold sequence.

    Returns ``(loss, gradient)`` with ``gradient = marginals - onehot(gold)``.
    """
    weights = _check_weights(weights)
    if len(gold) != len(weights):
        raise ValueError(f"gold length {len(gold)} != sentence length {len(weights)}")
    if not is_well_formed(gold):
        raise IllFormed(gold.symbols())
    return _nll(lat, weights, gold)


def _nll(lat: Lattice, weights: np.ndarray, gold: TagSequence) -> tuple[float, np.ndarray]:
    """:func:`nll` of checked weights and a well-formed gold sequence."""
    alone = PartialLabelSet(gold, np.full(len(weights), -1), 0)
    (loss,), grad = batch_losses(lat, weights[None], [len(weights)], [alone], "nll")
    return float(loss), grad


def partial_nll(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray]:
    """Marginalised negative log-likelihood over a partial label set.

    ``loss = A_all - A_clamped >= 0`` and the gradient is the difference
    between full marginals and the member-posterior mean of member one-hots
    (the E-step quantity, treated as a constant with respect to ``weights``).
    """
    weights = _check_label_set(pl, weights)
    (loss,), grad = batch_losses(lat, weights[None], [len(weights)], [pl], "partial")
    return float(loss), grad


def hard_em_step(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray, TagSequence]:
    """One hard-EM step: clamp to the best-scoring member, then NLL on it.

    It flips exactly the sets whose flip raises the score, so ties keep the
    earliest member in canonical order (unflipped first, then binary counting
    over sets from left to right).
    """
    weights = _check_label_set(pl, weights)
    chosen = TagSequence.from_indices(_hard_em_targets([pl], weights))
    return *_nll(lat, weights, chosen), chosen
