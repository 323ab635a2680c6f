"""Exact inference on the tag lattice and the training losses.

All programs run on the acyclic lattice of :mod:`disctag.automata`, one
layer of the grammar's compiled table per word, ``n`` read from the shape of
the weight matrix.  They run in one of three semirings: tropical (max, +) for
MAP inference, and for the log-partition and marginals the probability
semiring (+, *) with each chart step rescaled, falling back to log
(logaddexp, +) where that underflows.
Scores of a tag sequence are bilinear, ``<y, w> = sum_i w[i, y_i]``, so every
gradient below is an ``(n, 10)`` matrix aligned with the weight matrix.

One chart routine serves every program, on a batch of lanes and the
grammar's table compiled from its minimal DFA.  The batch programs take the
weights of their sentences' words one sentence after another, and
:func:`_layout` alone places them in lanes: one or more sentences end to end
in a lane, one padding row between two of them.  The chart resets at each
sentence's ends, so a sentence gets the same bits in any lane.  The backward
chart is the forward chart of the reversed edges with the words read right to
left, so one pass of ``n`` steps gives both.  The chart is held state-major,
one row of ``L`` lanes per state, and each step sums every state's edges, of
both halves, through the grammar's padded slot table: two row gathers, a
product and one sum over the slots, which adds in the order ``reduceat`` over
each state's edges would.  Viterbi and :func:`random_well_formed` run the
backward half alone; the latter samples paths through the states that a
backward tropical chart finds co-reachable.  The marginals sum the edges
grouped by tag with one ``reduceat``.  The losses of a batch
(:func:`batch_losses`) run one two-way pass; the single-sentence losses are
batches of one.

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
    as_rows,
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


def _check_weights(weights: np.ndarray) -> np.ndarray:
    """The weights as float64, checked to be an ``(n, 10)`` matrix of finite scores."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != NUM_TAGS:
        raise ValueError(f"expected weights of shape (n, {NUM_TAGS}), got {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weight matrix entries must be finite")
    return weights


class _Layout(NamedTuple):
    """Where a batch's sentences and words sit in ``L`` lanes of ``n`` rows (see :func:`_layout`)."""

    lengths: np.ndarray  # (sentences,): each sentence's words
    lane: np.ndarray  # each sentence's lane
    starts: np.ndarray  # each sentence's first row
    sentence: np.ndarray  # (words,): each word's sentence
    cell: np.ndarray  # each word's cell, row * L + lane
    shape: tuple[int, int]  # (n, L)

    def padded(self, weights: np.ndarray) -> np.ndarray:
        """The ``(n, L, 10)`` rows of the words' weights ``(words, 10)``, zeros elsewhere."""
        if len(weights) != len(self.cell):
            raise ValueError(f"{len(weights)} weight rows for sentences of {len(self.cell)} words")
        out = np.zeros((self.shape[0] * self.shape[1], NUM_TAGS))
        out[self.cell] = weights
        return out.reshape(*self.shape, NUM_TAGS)

    def opens(self) -> np.ndarray:
        """``(n + 1, L)``: true at the row where each sentence starts."""
        out = np.zeros((self.shape[0] + 1, self.shape[1]), dtype=bool)
        out[self.starts, self.lane] = True
        return out

    def words(self, rows: np.ndarray) -> np.ndarray:
        """The words' entries of ``(n, L, ...)`` rows, one sentence after another."""
        return rows.reshape(-1, *rows.shape[2:]).take(self.cell, axis=0)

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """``(k, sentences)``: the ``(n, L, k)`` rows of each sentence's words, summed in word order."""
        return np.stack([np.bincount(self.sentence, column, len(self.lane)) for column in self.words(rows).T])


def _layout(lengths: Sequence[int], lanes: Sequence[int] | None = None) -> _Layout:
    """The layout of sentences of ``lengths`` words in lanes: lane ``l`` holds
    the next ``lanes[l]`` sentences (by default one), end to end from row 0
    with one zero padding row between two of them, and ``n`` is the most rows
    a lane needs.  A sentence may have no words.  Each word's cell is where
    :meth:`_Layout.padded` puts its weights and :meth:`_Layout.words` reads
    its results."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.min(initial=0) < 0:
        raise ValueError(f"sentence lengths must be a list of counts, got {lengths!r}")
    lanes = np.ones(len(lengths), dtype=np.intp) if lanes is None else np.asarray(lanes, dtype=np.intp)
    if lanes.ndim != 1 or lanes.min(initial=1) < 1 or lanes.sum() != len(lengths):
        raise ValueError(f"{len(lengths)} sentences do not fill lanes of {lanes!r} sentences")
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    firsts = np.cumsum(lengths) - lengths  # each sentence's first word
    rows = firsts + np.arange(len(lengths))  # all sentences end to end, a padding row after each
    lane, batch = np.repeat(np.arange(len(lanes)), lanes), len(lanes)
    starts = rows - rows.take(np.cumsum(lanes) - lanes).take(lane)  # less the rows of earlier lanes
    n = (starts + lengths).max(initial=0)
    # word w of sentence k sits in row starts[k] + w - firsts[k] of lane lane[k]
    cell = np.arange(len(sentence)) * batch
    cell += ((starts - firsts) * batch + lane).take(sentence)
    return _Layout(lengths, lane, starts, sentence, cell, (int(n), batch))


def _in_word_order(steps: np.ndarray) -> np.ndarray:
    """An ``(n, B, halves, ...)`` array of :func:`_chart`'s steps, its last half
    (the backward one, whose step ``t`` reads word ``n - 1 - t``) reversed, so
    that row ``i`` of every half belongs to word ``i``."""
    return np.concatenate([steps[:, :, :-1], steps[::-1, :, -1:]], axis=2)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # a scaled underflow shows in the totals
def _chart(
    lat: Lattice, weights: np.ndarray, sr: Semiring, layout: _Layout, backward: bool = False,
    *, scaled_out: np.ndarray | None = None,
):
    """``(totals, charts)`` of a batch of lanes in one pass: ``charts`` is
    ``(alpha, beta)``, the ``(n+1, S+1, L)`` prefix sums from the initial
    state and suffix sums into the final states, or with ``backward`` only
    ``(beta,)``; ``totals`` is ``(halves, sentences)``, per chart and
    sentence the sum over its accepting paths.  Column ``S`` is the dead
    state, with no paths: its sums stay zero.

    ``weights`` is ``(n, L, 10)``, ``L`` lanes of ``n`` rows, in which
    ``layout`` places the sentences (see :func:`_layout`): end to end from
    row 0, one padding row between two of them.  Each sentence is scored by
    its own rows, and both charts are reset around it: ``alpha`` reads its
    first row as the initial row, and ``beta`` the row after its last word
    as the final row.  No row is both of these for two sentences, so a
    sentence's rows of each chart, and its totals, are the ones it gets
    alone; padding rows are undefined.  The backward chart is the forward
    chart of the reversed edges with the words read right to left, so step
    ``t`` writes ``alpha[t + 1]`` and ``beta[n - 1 - t]`` together (the
    grammar's ``two_way`` :class:`~disctag.automata.SlotTable`, or its
    ``reverse`` half alone), then resets them.  The steps are held
    state-major, each chart column a row of ``L`` lanes, so a step is four
    calls on whole rows: it gathers every slot's far-end row, gathers the
    slot's word weights, multiplies, and sums the slots in order, which
    rounds as ``reduceat`` over each column's edges did.

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
    n, batch = weights.shape[:2]
    lane, starts, ends = layout.lane, layout.starts, layout.starts + layout.lengths
    states = lat.num_grammar_states
    halves, table = (1, lat.reverse) if backward else (2, lat.two_way)
    steps = np.full((n + 1, halves, states + 1, batch), sr.zero)  # steps[t]: after t words of each half
    rows = steps.reshape(n + 1, halves * (states + 1), batch)
    resets = np.zeros((n + 1, halves, 1, batch), dtype=bool)  # the lanes whose row of step t starts afresh
    resets[n - ends, -1, 0, lane] = True  # beta's row after a sentence's last word
    if not backward:
        resets[:, 0, 0] = layout.opens()  # alpha's row of its first word
    resetting = resets.any(axis=(1, 2, 3)).tolist()
    per_word = weights.transpose(0, 2, 1)  # (n, 10, L)
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
    steps[0, -1][lat.final_mask] = sr.one
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
        if resetting[t + 1]:
            np.copyto(steps[t + 1], steps[0], where=resets[t + 1])
    charts = (steps[:, 0], steps[::-1, -1])[2 - halves :]

    totals = np.empty((halves, len(lane)))
    totals[-1] = steps[n - starts, -1, lat.initial, lane]
    if not backward:  # each sentence's finals are summed as a row, whatever their number
        sr.plus.reduce(steps[ends[:, None], 0, np.flatnonzero(lat.final_mask), lane[:, None]], axis=1, out=totals[0])
    if scaled:
        logs = np.log(_in_word_order(scale)[..., 0]) + top.transpose(0, 2, 1)  # (n, L, halves)
        log_totals = np.log(totals) + layout.sums(logs)
        before = steps[1:, :, :states] * scale.transpose(0, 2, 3, 1)  # each step's cells before the division
        small = ((before > 0) & (before < _TINY)).any(axis=2).transpose(0, 2, 1)
        wide = (per_word < np.exp(-_SPAN)).any(axis=1)[..., None]
        if small.any() or wide.any():  # rare, so the sentences are looked for only then
            log_totals[layout.sums(_in_word_order(small) | wide) > 0] = np.nan
        return log_totals, charts
    if (totals == sr.zero).any():
        raise EmptyLanguage("lattice has no accepting path")
    return totals, charts


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # failed rows are recomputed
def _posterior(lat: Lattice, weights: np.ndarray, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """``log Z`` and the tag marginals of a batch of sentences, ``(sentences,)``
    and ``(words, 10)``, their words' weights ``(words, 10)`` placed in lanes by
    ``layout`` (see :func:`_layout`).

    One scaled two-way chart; each tag's edges are summed with one
    ``reduceat``, in edge order, and each marginal row is divided by its own
    sum, so the scales cancel.  A sentence where either half of the chart
    may have lost mass to underflow (see :func:`_chart`), or where some
    marginal row sums to less than ``_TINY``, is recomputed alone by
    :func:`_log_posterior`; that happens only with large weights, whose
    scores differ by hundreds.  Each sentence gets, bit for bit, what it gets
    alone.
    """
    n, batch = layout.shape
    scaled = np.empty((n, NUM_TAGS, batch))
    (log_z, log_z_back), (alpha, beta) = _chart(lat, layout.padded(weights), SCALED, layout, scaled_out=scaled)
    edges = lat.by_tag
    mass = alpha[:-1].take(edges.src, axis=1)  # (n, E, L)
    mass *= scaled.take(edges.tag, axis=1)
    mass *= beta[1:].take(edges.dst, axis=1)
    probs = layout.words(np.add.reduceat(mass, edges.bounds, axis=1).transpose(0, 2, 1))  # (words, 10)
    sums = probs.sum(axis=1, keepdims=True)
    probs /= sums
    bad = ~np.isfinite(log_z + log_z_back)
    bad[layout.sentence[~(sums[:, 0] >= _TINY)]] = True  # NaN >= is false
    for b in bad.nonzero()[0]:
        words = layout.sentence == b
        log_z[b], probs[words] = _log_posterior(lat, weights[words])
    return log_z, probs


def _log_posterior(lat: Lattice, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """``log Z`` and the tag marginals of one sentence, from one two-way
    log-semiring chart; each marginal row is normalised by its own log-sum
    (``log Z`` in exact arithmetic), so with large weights rounding cannot
    push a row off one.
    """
    layout = _layout([len(weights)])
    ((log_z,), _), (alpha, beta) = _chart(lat, layout.padded(weights), LOG, layout)
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
    _, (beta,) = _chart(lat, np.zeros((n, 1, NUM_TAGS)), TROPICAL, _layout([n]), backward=True)
    alive = beta[..., 0] > NEG_INF  # the dead state never is
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
    ts = TagSequence.from_indices(viterbi_rows(lat, weights, [len(weights)]))
    return sequence_score(weights, ts), ts


def viterbi_rows(
    lat: Lattice, weights: np.ndarray, lengths: Sequence[int], lanes: Sequence[int] | None = None
) -> np.ndarray:
    """The :func:`viterbi` sequences of a batch of sentences, as tag indices,
    one sentence after another in one flat array.

    ``weights`` is ``(words, 10)``, the rows of each sentence's words, one
    sentence after another, of the given ``lengths`` (a sentence may have
    none).  They run in lanes (see :func:`_layout`): lane ``l`` holds the
    next ``lanes[l]`` sentences (by default one), end to end.  The chart
    reads the row after each sentence's last word as the final-state row,
    and the walk restarts in the initial state at each sentence's first
    word, so each sequence, tie-break included, is the one :func:`viterbi`
    gives for the sentence alone.
    """
    layout = _layout(lengths, lanes)
    weights = layout.padded(_check_weights(weights))  # the flat rows are freed here if the caller holds none
    n, batch = layout.shape
    _, (beta,) = _chart(lat, weights, TROPICAL, layout, backward=True)
    # Walk along the best path, every lane at once, each one's state held as
    # its cell q * L + l of a chart row: at word i a lane scores the ten
    # successors of its state, beta[i + 1, l, next_state[q]] + w[i, l], and takes
    # the first best tag, the lowest.  These are the sums and comparisons of a
    # best tag per (word, state), made on the path only, so no (n, L, S) array
    # is built.  An undefined step reads the dead state, whose score is -inf.
    rows = np.arange(batch)
    cells = (lat.next_state[:, None] * batch + rows[:, None]).reshape(-1, NUM_TAGS)
    chosen = rows * NUM_TAGS  # lane l's tag t is cell l * 10 + t of an (L, 10) step
    at = restart = lat.initial * batch + rows
    opens = layout.opens()
    restarts = opens[1:].any(axis=1).tolist()
    tags = np.empty((n, batch), dtype=np.intp)
    for i in range(n):
        step = cells.take(at, axis=0)
        score = beta[i + 1].take(step)
        score += weights[i]
        at = step.take(score.argmax(axis=1, out=tags[i]) + chosen)
        if restarts[i]:  # in some lane, word i + 1 starts a sentence
            at = np.where(opens[i + 1], restart, at)
    return layout.words(tags)


def forward(lat: Lattice, weights: np.ndarray) -> float:
    """Log-partition over all well-formed sequences of length ``n``.

    It is the :func:`_posterior` of a batch of one, so that it is, bit for
    bit, the ``log Z`` of the losses, under the same fallback rule; that
    costs one two-way pass, and one more in the log semiring where the
    scaled one may have underflowed.
    """
    return float(_posterior(lat, _check_weights(weights), _layout([len(weights)]))[0][0])


def marginals(lat: Lattice, weights: np.ndarray) -> np.ndarray:
    """Posterior tag probabilities, the gradient of :func:`forward`.

    Entry ``(i, t)`` is the total probability of sequences tagging word ``i``
    with tag ``t``; rows sum to one and cells unusable by any accepting path
    are exactly zero.
    """
    return _posterior(lat, _check_weights(weights), _layout([len(weights)]))[1]


# Canonical tag index after a flip: swaps DB-Bx/DB-By, DI-Bx/DI-By and DI-Ix/DI-Iy.
_FLIP = np.array([0, 1, 2, 4, 3, 6, 5, 8, 7, 9])


@dataclass(frozen=True, eq=False)
class PartialLabelSet:
    """The ``2**k`` admissible gold sequences: ``gold`` with any of its ``k``
    unresolved sets flipped.  ``owner[i]`` is the unresolved set covering word
    ``i`` (numbered left to right), or -1, so ``k`` is one more than the
    largest owner.  The losses read label sets only through :func:`_flat`,
    which joins a whole batch's and checks each of them once.
    """

    gold: TagSequence
    owner: np.ndarray

    @classmethod
    def from_annotation(cls, ann: SentenceAnnotation, *, gold: TagSequence | None = None) -> "PartialLabelSet":
        """The label set of ``ann``, whose encoding is ``gold``: by default
        ``encode(ann)``, or the caller's own, as :func:`~disctag.scheme.encode_batch`
        gives it for a whole corpus."""
        owner = np.full(ann.n, -1)
        for slot, s in enumerate(s for s in ann.sets if not s.resolved):
            owner[s.span[0] : s.span[1] + 1] = slot
        return cls(gold=encode(ann) if gold is None else gold, owner=owner)

    @property
    def k(self) -> int:
        """The number of unresolved sets, read from the owners."""
        return int(self.owner.max(initial=-1)) + 1

    def __len__(self) -> int:
        return 2**self.k


def _sums(values: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Sums of consecutive runs of ``values`` of the given sizes, each added in order."""
    return np.bincount(np.repeat(np.arange(len(sizes)), sizes), weights=values, minlength=len(sizes))


class _Labels(NamedTuple):
    """The label sets of a batch as flat arrays, one sentence after another."""

    lengths: np.ndarray  # (sentences,): each sentence's words
    sets: np.ndarray  # its unresolved sets, one more than its largest owner
    gold: np.ndarray  # (words,): each word's gold tag
    owner: np.ndarray  # its unresolved set in its sentence, or -1


def _flat(labels: Sequence[PartialLabelSet]) -> _Labels:
    """The label sets joined in order, in fresh arrays; none give empty arrays.

    Each label set is checked here, once: its owners must be a 1-d array of
    signed integers, one per gold tag, each -1 or below its sentence's
    length, and each set below its count, one more than its largest owner,
    must own a word.  One that is not raises :class:`ValueError` naming its
    position in ``labels``.
    """
    owners = [np.asarray(pl.owner) for pl in labels]
    for b, owner in enumerate(owners):
        if owner.ndim != 1 or owner.dtype.kind != "i":
            raise ValueError(f"label set {b}: owners must be 1-d signed integers, not {owner.dtype} {owner.shape}")
    lengths = np.fromiter(map(len, owners), dtype=np.intp, count=len(owners))
    gold, bounds = as_rows(pl.gold for pl in labels)
    (longer,) = np.nonzero(np.diff(bounds) != lengths)
    if len(longer):
        b = longer[0]
        raise ValueError(f"label set {b}: {bounds[b + 1] - bounds[b]} gold tags for {lengths[b]} owners")
    owner = np.concatenate([np.empty(0, dtype=np.intp), *owners])
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    (outside,) = np.nonzero((owner < -1) | (owner >= lengths[sentence]))
    if len(outside):
        b, o = sentence[outside[0]], owner[outside[0]]
        raise ValueError(f"label set {b}: owner {o} not in [-1, {lengths[b]})")
    sets = np.zeros(len(lengths), dtype=np.intp)
    words = lengths > 0
    sets[words] = np.maximum.reduceat(owner, (np.cumsum(lengths) - lengths)[words]) + 1
    before = np.cumsum(sets) - sets  # sets of earlier sentences
    # with every owner below its sentence's length, the sets number at most
    # the words, and each must own one of them
    (unowned,) = np.nonzero(np.bincount((owner + before[sentence])[owner >= 0], minlength=sets.sum()) == 0)
    if len(unowned):
        slot = unowned[0]
        b = np.searchsorted(before, slot, side="right") - 1
        raise ValueError(f"label set {b}: unresolved set {slot - before[b]} owns no word")
    return _Labels(lengths, sets, gold, owner)


def _flip_gains(labels: _Labels, weights: np.ndarray):
    """Flip terms of a batch of label sets, ``weights`` holding the rows of
    their words.

    Returns per word the flip of its gold tag (itself outside unresolved
    sets) and its slot, and per slot the score gain of flipping it.  Slot 0
    stands for no set; the unresolved sets follow, sentence by sentence.
    """
    gold, owner = labels.gold, labels.owner
    before = np.repeat(np.cumsum(labels.sets) - labels.sets, labels.lengths)  # sets of earlier sentences
    slot = np.where(owner >= 0, owner + 1 + before, 0)
    flipped = np.where(owner >= 0, _FLIP[gold], gold)
    words = np.arange(len(gold))
    change = weights[words, flipped] - weights[words, gold]
    return flipped, slot, np.bincount(slot, weights=change, minlength=labels.sets.sum() + 1)


def _clamped(labels: _Labels, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sentence the clamped log-partition, and per word the clamped
    marginals (see :func:`clamped_log_partition` and
    :func:`clamped_marginals`), of a batch as in :func:`_flip_gains`."""
    gold = labels.gold
    flipped, slot, gains = _flip_gains(labels, weights)
    p = np.exp(-np.logaddexp(0.0, -gains))[slot]  # sigmoid without overflow
    words = np.arange(len(gold))
    out = np.zeros((len(gold), NUM_TAGS))
    out[words, gold] += 1.0 - p  # outside sets flipped == gold, so the row still sums to 1
    out[words, flipped] += p
    gold_scores = _sums(weights[words, gold], labels.lengths)
    return gold_scores + _sums(np.logaddexp(0.0, gains[1:]), labels.sets), out


def _check_label_set(pl: PartialLabelSet, weights: np.ndarray) -> tuple[_Labels, np.ndarray]:
    """``_flat([pl])`` and :func:`_check_weights` of one sentence's weights,
    checked to have one row per word of ``pl``."""
    labels, weights = _flat([pl]), _check_weights(weights)
    if labels.lengths[0] != len(weights):
        raise ValueError(f"label set length {labels.lengths[0]} != sentence length {len(weights)}")
    return labels, weights


def clamped_log_partition(pl: PartialLabelSet, weights: np.ndarray) -> float:
    """Log-sum-exp of the member scores (the clamped log-partition):
    ``<gold, w> + sum_s log(1 + exp(delta_s))``, ``delta_s`` the gain of flipping set ``s``.
    """
    return float(_clamped(*_check_label_set(pl, weights))[0][0])


def clamped_marginals(pl: PartialLabelSet, weights: np.ndarray) -> np.ndarray:
    """Posterior-weighted average of member one-hots (gradient of the clamp):
    inside each set's span, ``gold`` and its flip mixed with weight ``sigmoid(delta_s)``.
    """
    return _clamped(*_check_label_set(pl, weights))[1]


def _hard_em_targets(labels: _Labels, weights: np.ndarray) -> np.ndarray:
    """The members picked by :func:`hard_em_step`, concatenated: each set is
    flipped iff that raises the score."""
    flipped, slot, gains = _flip_gains(labels, weights)
    return np.where(gains[slot] > 0, flipped, labels.gold)


LOSSES = ("nll", "partial", "hard-em")


def batch_losses(
    lat: Lattice, weights: np.ndarray, labels: Sequence[PartialLabelSet], loss: str
) -> tuple[np.ndarray, np.ndarray]:
    """The losses of a batch of sentences, and their gradients.

    ``labels[b]`` is sentence ``b``'s label set, which gives its length,
    ``len(labels[b].owner)`` words; ``weights`` holds the ``(words, 10)``
    rows of the sentences' words, one sentence after another, as in
    :func:`viterbi_rows`, and ``loss`` is one of
    :data:`LOSSES`: :func:`nll` of each gold sequence (taken to be
    well-formed), :func:`partial_nll`, or :func:`hard_em_step`.  Returns the
    ``(B,)`` losses and the gradient rows of the sentences' words, in the
    order of ``weights``; each sentence gets, bit for bit, what it gets
    alone.  The weights and ``loss`` are checked here, and an unknown
    ``loss`` raises :class:`ValueError` before any chart runs.  The label
    sets are joined into flat arrays and checked by :func:`_flat`, which
    :func:`~disctag.model.train` calls once for its whole corpus and slices
    for each step, and both run the same core.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    return _batch_losses(lat, _check_weights(weights), _flat(labels), loss)


def _batch_losses(lat: Lattice, weights: np.ndarray, labels: _Labels, loss: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_losses` of label sets given as flat arrays, trusting its
    callers' checks: ``weights`` finite float64 ``(words, 10)`` rows, ``labels``
    :func:`_flat` output or a run of its sentences, ``loss`` in :data:`LOSSES`.
    Every loss of this module is this one call."""
    layout = _layout(labels.lengths)
    log_z, grad = _posterior(lat, weights, layout)
    if loss == "partial":
        clamped_z, clamped = _clamped(labels, weights)
        return log_z - clamped_z, grad - clamped
    target = _hard_em_targets(labels, weights) if loss == "hard-em" else labels.gold
    words = np.arange(len(target))
    grad[words, target] -= 1.0
    return log_z - _sums(weights[words, target], layout.lengths), grad


def nll(lat: Lattice, weights: np.ndarray, gold: TagSequence) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of a fully-observed gold sequence.

    Returns ``(loss, gradient)`` with ``gradient = marginals - onehot(gold)``.
    """
    weights = _check_weights(weights)
    if len(gold) != len(weights):
        raise ValueError(f"gold length {len(gold)} != sentence length {len(weights)}")
    if not is_well_formed(gold):
        raise IllFormed(gold.symbols())
    (loss,), grad = _batch_losses(lat, weights, _flat([PartialLabelSet(gold, np.full(len(weights), -1))]), "nll")
    return float(loss), grad


def partial_nll(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray]:
    """Marginalised negative log-likelihood over a partial label set.

    ``loss = A_all - A_clamped >= 0`` and the gradient is the difference
    between full marginals and the member-posterior mean of member one-hots
    (the E-step quantity, treated as a constant with respect to ``weights``).
    """
    labels, weights = _check_label_set(pl, weights)
    (loss,), grad = _batch_losses(lat, weights, labels, "partial")
    return float(loss), grad


def hard_em_step(
    lat: Lattice, weights: np.ndarray, pl: PartialLabelSet
) -> tuple[float, np.ndarray, TagSequence]:
    """One hard-EM step: clamp to the best-scoring member, then NLL on it,
    by the loss core's ``"hard-em"`` branch, which training runs.

    It flips exactly the sets whose flip raises the score, so ties keep the
    earliest member in canonical order (unflipped first, then binary counting
    over sets from left to right).
    """
    labels, weights = _check_label_set(pl, weights)
    (loss,), grad = _batch_losses(lat, weights, labels, "hard-em")
    return float(loss), grad, TagSequence.from_indices(_hard_em_targets(labels, weights))
