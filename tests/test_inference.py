import itertools
import math

import numpy as np
import pytest

from disctag import inference
from disctag.automata import Automaton, build_lattice, grammar_automaton
from disctag.errors import EmptyLanguage, IllFormed
from disctag.inference import (
    LOG,
    LOSSES,
    SCALED,
    TROPICAL,
    PartialLabelSet,
    _chart,
    _layout,
    _log_posterior,
    _posterior,
    batch_losses,
    clamped_log_partition,
    clamped_marginals,
    forward,
    hard_em_step,
    marginals,
    nll,
    partial_nll,
    random_well_formed,
    sequence_score,
    viterbi,
    viterbi_rows,
)
from disctag.scheme import (
    CB,
    CI,
    DB_BX,
    DB_BY,
    DI_BX,
    DI_BY,
    DI_IX,
    DI_IY,
    NUM_TAGS,
    O,
    Mention,
    TagSequence,
    decode,
    encode,
    to_two_layer,
)

from conftest import (
    LIBRARY_LOSSES,
    admissible_sequences,
    chart_reference,
    is_structural,
    is_well_formed_reference,
    max_sum_reference,
    one_hot,
    viterbi_batch,
)

GRAMMAR = grammar_automaton("semantic")
LAT = build_lattice(GRAMMAR)


def brute_scores(language, n, w):
    """Scores of every well-formed sequence, by exhaustive enumeration."""
    seqs = language.sequences(n)
    idx = np.array([[t.index for t in seq] for seq in seqs])
    return seqs, w[np.arange(n), idx].sum(axis=1)


def random_weights(rng, n, scale=2.0):
    return rng.uniform(-scale, scale, size=(n, NUM_TAGS))


class TestSemirings:
    @pytest.mark.parametrize("sr", [TROPICAL, LOG, SCALED], ids=lambda s: s.name)
    def test_identities_and_laws(self, sr):
        xs = np.array([-2.0, 0.0, 1.5])
        assert np.allclose(sr.plus(xs, sr.zero), xs)
        assert np.allclose(sr.times(xs, sr.one), xs)
        a, b, c = 0.3, -1.2, 2.2
        assert np.isclose(sr.plus(a, sr.plus(b, c)), sr.plus(sr.plus(a, b), c))
        assert np.isclose(sr.times(a, sr.plus(b, c)), sr.plus(sr.times(a, b), sr.times(a, c)))


class TestViterbi:
    def test_two_candidate_max(self):
        w = np.full((1, NUM_TAGS), -5.0)
        w[0, O.index] = 1.0
        w[0, CB.index] = 0.0
        score, ts = viterbi(LAT, w)
        assert score == 1.0
        assert ts.tags == (O,)

    def test_zero_weights_canonical_tie_break(self):
        score, ts = viterbi(LAT, np.zeros((3, NUM_TAGS)))
        assert score == 0.0
        # lowest tag index wins at every position, left to right
        assert ts.symbols() == "CB CB CB"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force(self, language, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            w = random_weights(rng, n)
            seqs, scores = brute_scores(language, n, w)
            score, ts = viterbi(LAT, w)
            assert score == scores.max()
            assert tuple(ts) in set(seqs)
            assert is_well_formed_reference(ts)
            assert sequence_score(w, ts) == score

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        w = random_weights(rng, 6)
        score, ts = viterbi(LAT, w)
        score2, ts2 = viterbi(LAT, w + 3.25)
        assert ts2.tags == ts.tags
        assert np.isclose(score2, score + 6 * 3.25)


class TestViterbiBatch:
    def test_matches_brute_force_with_ties(self, language):
        # integer weights tie often; the tie-break picks the lexicographically
        # first best sequence
        rng = np.random.default_rng(41)
        for mode in ("semantic", "structural"):
            grammar = grammar_automaton(mode)
            for _ in range(20):
                sentences = [rng.integers(-2, 3, size=(m, NUM_TAGS)).astype(float) for m in rng.integers(1, 6, 8)]
                got = viterbi_batch(build_lattice(grammar), sentences)
                for own, ts in zip(sentences, got):
                    seqs = [s for s in language.sequences(len(own)) if mode == "semantic" or is_structural(s)]
                    scores = [sequence_score(own, TagSequence(s)) for s in seqs]
                    best = max(scores)
                    first = min(tuple(t.index for t in s) for s, x in zip(seqs, scores) if x == best)
                    assert tuple(ts.indices) == first

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_matches_max_sum_over_the_determinised_grammar(self, mode):
        # Viterbi runs on the minimal DFA's table, the oracle on the
        # determinised machine's transitions; integer weights tie often
        grammar = grammar_automaton(mode)
        rng = np.random.default_rng(47)
        for lengths in ([1], [200], [3, 200, 57, 1, 120], rng.integers(1, 201, 8), np.arange(1, 41)):
            sentences = [rng.integers(-2, 3, size=(m, NUM_TAGS)).astype(float) for m in lengths]
            got = viterbi_batch(build_lattice(grammar), sentences)
            for w, ts in zip(sentences, got):
                score, tags = max_sum_reference(grammar, w)
                assert tuple(ts.indices) == tags
                assert sequence_score(w, ts) == score

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_wide_batch_equals_each_sentence_alone(self, mode):
        # as wide as the batches `disctag predict` runs, in no order, a 1-word
        # sentence included; integer weights tie often
        lattice = build_lattice(grammar_automaton(mode))
        rng = np.random.default_rng(53)
        lengths = rng.permutation(np.concatenate([[1, 40], rng.integers(1, 41, size=510)]))
        sentences = [rng.integers(-2, 3, size=(m, NUM_TAGS)).astype(float) for m in lengths]
        got = viterbi_rows(lattice, np.concatenate(sentences), lengths)
        assert got.tolist() == np.concatenate([viterbi(lattice, w)[1].indices for w in sentences]).tolist()

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_packed_lanes_equal_each_sentence_alone(self, mode):
        # lanes of one to twelve sentences end to end, 1-word and 0-word ones
        # included, a 0-word one first, between two others, last and alone in
        # its lane; integer weights tie often
        lattice = build_lattice(grammar_automaton(mode))
        rng = np.random.default_rng(59)
        lanes = [[1], [40], [1] * 12, [39, 1], [1, 39], [7, 1, 1, 20], [3, 1], [13] * 3, [2, 5, 1, 9, 1, 1]]
        lanes += [[0], [0, 5], [4, 0, 6], [3, 0], [0, 0, 2, 0], [0, 0]]
        lanes += [list(rng.integers(0, 9, size=rng.integers(1, 6))) for _ in range(40)]
        sentences = [rng.integers(-2, 3, size=(m, NUM_TAGS)).astype(float) for lane in lanes for m in lane]
        got = viterbi_batch(lattice, sentences, [len(lane) for lane in lanes])
        assert [ts.tags for ts in got] == [viterbi(lattice, w)[1].tags for w in sentences]
        assert viterbi(lattice, np.zeros((0, NUM_TAGS))) == (0.0, TagSequence(()))

    def test_batch_of_one_is_viterbi(self):
        rng = np.random.default_rng(43)
        for n in (1, 7, 64):
            w = rng.integers(-2, 3, size=(n, NUM_TAGS)).astype(float)
            assert viterbi_batch(LAT, [w])[0].tags == viterbi(LAT, w)[1].tags

    def test_rejects_bad_shapes_and_lengths(self):
        w = np.zeros((8, NUM_TAGS))
        # lengths that sum to fewer or more words than there are rows, or are negative
        for lengths in ([4], [4, 5], [9, -1], [[4, 4]]):
            with pytest.raises(ValueError):
                viterbi_rows(LAT, w, lengths)
        # weights that are not one row of ten per word
        for bad in (np.zeros((2, 4, NUM_TAGS)), np.zeros((8, 4)), np.full((8, NUM_TAGS), np.nan)):
            with pytest.raises(ValueError):
                viterbi_rows(LAT, bad, [4, 4])
        # lanes that hold more or fewer sentences than there are, or none
        for lengths, lanes in (([2, 2, 4], [2, 2]), ([4, 4], [3]), ([4, 4], [2, 0]), ([4, 4], [[1, 1]])):
            with pytest.raises(ValueError):
                viterbi_rows(LAT, w, lengths, lanes)
        # a batch of no sentences is no bad shape: it gives no tags
        tags = viterbi_rows(LAT, np.zeros((0, NUM_TAGS)), [])
        assert tags.shape == (0,) and tags.dtype.kind == "i"


class TestEmptyLanguageInLanes:
    def test_a_sentence_without_a_path_raises_wherever_it_sits(self):
        # a grammar of even lengths only: a 3-word sentence has no accepting
        # path, first, between two others or last in its lane, next to 0-word
        # sentences, and alone in its lane; a 0-word sentence has one
        even = build_lattice(Automaton(2, frozenset({(0, O, 0.0, 1), (1, O, 0.0, 0)}), 0, frozenset({0})))
        assert viterbi_rows(even, np.zeros((12, NUM_TAGS)), [2, 4, 6], [2, 1]).tolist() == [O.index] * 12
        assert viterbi_rows(even, np.zeros((6, NUM_TAGS)), [0, 2, 0, 4, 0], [3, 2]).tolist() == [O.index] * 6
        for lengths, lanes in (
            ([2, 3, 6], [2, 1]), ([3, 2, 6], [2, 1]), ([1, 4, 6], [2, 1]), ([2, 3, 4], [3]),
            ([0, 3, 0], [3]), ([3, 0], [2]), ([0, 3], [2]), ([0, 3], [1, 1]), ([3], [1]),
        ):
            with pytest.raises(EmptyLanguage):
                viterbi_rows(even, np.zeros((sum(lengths), NUM_TAGS)), lengths, lanes)


class TestForward:
    def test_uniform_counts(self):
        assert forward(LAT, np.zeros((1, NUM_TAGS))) == pytest.approx(math.log(2), abs=1e-12)
        assert forward(LAT, np.zeros((2, NUM_TAGS))) == pytest.approx(math.log(5), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force(self, language, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(25):
            w = random_weights(rng, n)
            _, scores = brute_scores(language, n, w)
            expected = scores.max() + np.log(np.exp(scores - scores.max()).sum())
            assert forward(LAT, w) == pytest.approx(expected, abs=1e-6)

    def test_sandwich_bounds(self, language):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            w = random_weights(rng, n)
            v, _ = viterbi(LAT, w)
            a = forward(LAT, w)
            assert v <= a <= v + math.log(len(language.sequences(n))) + 1e-9

    def test_shift_adds_nc(self):
        rng = np.random.default_rng(12)
        w = random_weights(rng, 5)
        assert forward(LAT, w + 1.5) == pytest.approx(forward(LAT, w) + 5 * 1.5)


def central_difference(f, w, eps=1e-3):
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for t in range(w.shape[1]):
            up, down = w.copy(), w.copy()
            up[i, t] += eps
            down[i, t] -= eps
            grad[i, t] = (f(up) - f(down)) / (2 * eps)
    return grad


def assert_close_to_fd(analytic, fd, rtol=1e-4):
    denom = np.maximum(np.abs(fd), 1.0)
    assert np.all(np.abs(analytic - fd) / denom <= rtol)


class TestMarginals:
    def test_two_path_posterior(self):
        m = marginals(LAT, np.zeros((1, NUM_TAGS)))
        assert m[0, O.index] == pytest.approx(0.5)
        assert m[0, CB.index] == pytest.approx(0.5)
        assert m.sum() == pytest.approx(1.0)
        used = {O.index, CB.index}
        for t in range(NUM_TAGS):
            if t not in used:
                assert m[0, t] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(31)
        w = random_weights(rng, 7)
        m = marginals(LAT, w)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((m >= 0) & (m <= 1))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_gradient_of_forward(self, n):
        rng = np.random.default_rng(40 + n)
        w = random_weights(rng, n)
        fd = central_difference(lambda v: forward(LAT, v), w)
        assert_close_to_fd(marginals(LAT, w), fd)

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        w = random_weights(rng, 4)
        assert np.allclose(marginals(LAT, w), marginals(LAT, w + 2.0), atol=1e-9)

    @pytest.mark.parametrize("scale", [1e14, 1e50, 1e300])
    def test_large_finite_weights(self, scale):
        rng = np.random.default_rng(59)
        w = random_weights(rng, 6, scale=scale)
        assert math.isfinite(forward(LAT, w))
        m = marginals(LAT, w)
        assert np.all(np.isfinite(m))
        assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)


def annotation_with_sets(k, resolved=()):
    """k disjoint two-fragment mentions, each its own unresolved set."""
    mentions = [Mention(((4 * i, 4 * i), (4 * i + 2, 4 * i + 2))) for i in range(k)]
    n = max(4 * k, 1)
    ann = to_two_layer(mentions, n)
    if resolved:
        from disctag.scheme import SentenceAnnotation, TwoLayerSet

        sets = tuple(
            TwoLayerSet(s.components, resolved=(i in resolved))
            for i, s in enumerate(ann.sets)
        )
        ann = SentenceAnnotation(ann.n, ann.continuous, sets)
    return ann


class TestPartialLabelSet:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_two_to_the_k_members(self, k):
        ann = annotation_with_sets(k)
        pl = PartialLabelSet.from_annotation(ann)
        members = admissible_sequences(ann)
        assert len(pl) == len(members) == 2**k
        assert len({decode(m) for m in members}) == 1
        assert all(is_well_formed_reference(m) for m in members)
        assert len({m.tags for m in members}) == 2**k

    def test_resolved_sets_do_not_flip(self):
        pl = PartialLabelSet.from_annotation(annotation_with_sets(2, resolved={0}))
        assert len(pl) == 2
        assert list(pl.owner) == [-1] * 4 + [0, 0, 0, -1]

    def test_canonical_order_starts_unflipped(self):
        ann = annotation_with_sets(2)
        pl = PartialLabelSet.from_annotation(ann)
        assert pl.gold.tags == admissible_sequences(ann)[0].tags == encode(ann).tags

    def test_flat_gold_is_each_sets_gold_in_order(self):
        labels = [PartialLabelSet.from_annotation(annotation_with_sets(k)) for k in (2, 0, 3, 1)]
        flat = inference._flat(labels)
        assert flat.gold.dtype == np.intp
        assert np.array_equal(flat.gold, np.concatenate([pl.gold.indices for pl in labels]))
        assert np.array_equal(flat.owner, np.concatenate([pl.owner for pl in labels]))
        # fresh arrays: a loss that writes to them cannot reach a label set
        assert not any(np.shares_memory(flat.owner, pl.owner) for pl in labels)
        assert flat.sets.tolist() == [2, 0, 3, 1] == [pl.k for pl in labels]
        assert inference._flat([]).gold.shape == (0,)

    def test_gold_longer_than_owners_rejected(self):
        good = PartialLabelSet.from_annotation(annotation_with_sets(1))  # 4 words
        longer = PartialLabelSet(TagSequence.from_symbols("O O O O O"), np.full(4, -1))
        w = np.zeros((4, NUM_TAGS))
        with pytest.raises(ValueError, match="^label set 1: 5 gold tags for 4 owners$"):
            batch_losses(LAT, joined([w, w]), [good, longer], "partial")
        for loss in (partial_nll, hard_em_step, lambda lat, w, pl: clamped_log_partition(pl, w)):
            with pytest.raises(ValueError, match="^label set 0: 5 gold tags for 4 owners$"):
                loss(LAT, w, longer)

    @pytest.mark.parametrize(
        "owner, message",
        [
            ([0, 0, -1, 2, 2], "unresolved set 1 owns no word$"),
            ([1, 1, -1, -1, -1], "unresolved set 0 owns no word$"),
            ([0, 0, -2, 1, 1], r"owner -2 not in \[-1, 5\)$"),
            ([0, 0, -1, 5, 5], r"owner 5 not in \[-1, 5\)$"),
            (np.zeros(5), r"owners must be 1-d signed integers, not float64 \(5,\)$"),
        ],
        ids=["set-skipped", "set-0-skipped", "below-minus-one", "past-the-words", "float"],
    )
    def test_owners_that_do_not_number_the_sets_rejected(self, owner, message):
        gold = TagSequence.from_symbols("DB-Bx DI-By O DB-Bx DI-By")
        bad = PartialLabelSet(gold, np.asarray(owner))
        w = np.zeros((5, NUM_TAGS))
        for loss in LOSSES:
            with pytest.raises(ValueError, match="^label set 2: " + message):
                batch_losses(LAT, joined([w, w, w]), [PartialLabelSet(gold, np.full(5, -1))] * 2 + [bad], loss)
        with pytest.raises(ValueError, match="^label set 0: " + message):
            partial_nll(LAT, w, bad)

    def test_flips_stay_inside_their_span(self):
        ann = annotation_with_sets(3)
        pl = PartialLabelSet.from_annotation(ann)
        members = admissible_sequences(ann)
        for bits, member in zip(itertools.product((False, True), repeat=3), members):
            changed = set(np.flatnonzero(member.indices != pl.gold.indices))
            for s, flipped in enumerate(bits):
                span = set(np.flatnonzero(pl.owner == s))
                assert bool(changed & span) == flipped
            assert changed <= set(np.flatnonzero(pl.owner >= 0))


class TestClampedLogPartition:
    def test_single_member_is_its_score(self):
        ann = annotation_with_sets(0)
        # all-continuous annotation: one admissible sequence
        pl = PartialLabelSet.from_annotation(ann)
        w = np.random.default_rng(3).uniform(-1, 1, (ann.n, NUM_TAGS))
        member = admissible_sequences(ann)[0]
        assert clamped_log_partition(pl, w) == pytest.approx(sequence_score(w, member))

    def test_symmetric_weights_add_log2(self):
        ann = annotation_with_sets(1)
        pl = PartialLabelSet.from_annotation(ann)
        w = np.zeros((ann.n, NUM_TAGS))  # symmetric under the x<->y tag swap
        member = sequence_score(w, admissible_sequences(ann)[0])
        assert clamped_log_partition(pl, w) == pytest.approx(member + math.log(2))

    def test_matches_explicit_enumeration(self):
        rng = np.random.default_rng(9)
        for k, resolved in [(2, ()), (5, ()), (4, {1, 3})]:
            ann = annotation_with_sets(k, resolved)
            pl = PartialLabelSet.from_annotation(ann)
            members = admissible_sequences(ann)
            w = rng.uniform(-2, 2, (ann.n, NUM_TAGS))
            scores = np.array([sequence_score(w, m) for m in members])
            log_z = np.logaddexp.reduce(scores)
            expected = sum(np.exp(sc - log_z) * one_hot(m) for sc, m in zip(scores, members))
            assert clamped_log_partition(pl, w) == pytest.approx(log_z, rel=1e-13)
            assert np.allclose(clamped_marginals(pl, w), expected, rtol=0, atol=1e-13)

    def test_gradient_matches_fd(self):
        ann = annotation_with_sets(2)
        pl = PartialLabelSet.from_annotation(ann)
        rng = np.random.default_rng(13)
        w = rng.uniform(-1, 1, (ann.n, NUM_TAGS))
        fd = central_difference(lambda v: clamped_log_partition(pl, v), w)
        assert_close_to_fd(clamped_marginals(pl, w), fd)

    def test_rejects_bad_weights(self):
        pl = PartialLabelSet.from_annotation(to_two_layer([Mention(((0, 0), (2, 2)))], 5))
        nan = np.zeros((5, NUM_TAGS))
        nan[1, 2] = np.nan
        for w in (np.zeros((9, NUM_TAGS)), nan, np.zeros((5, 4))):
            for clamped in (clamped_log_partition, clamped_marginals):
                with pytest.raises(ValueError):
                    clamped(pl, w)


class TestNll:
    def test_value_at_zero_weights(self):
        gold = TagSequence.from_symbols("O")
        loss, grad = nll(LAT, np.zeros((1, NUM_TAGS)), gold)
        assert loss == pytest.approx(math.log(2))
        assert grad.shape == (1, NUM_TAGS)

    def test_loss_vanishes_on_dominant_gold(self):
        gold = TagSequence.from_symbols("CB CI O")
        w = np.full((3, NUM_TAGS), -30.0)
        w[np.arange(3), gold.indices] = 30.0
        loss, _ = nll(LAT, w, gold)
        assert 0 <= loss < 1e-9

    def test_rejects_ill_formed_gold(self):
        with pytest.raises(IllFormed):
            nll(LAT, np.zeros((2, NUM_TAGS)), TagSequence.from_symbols("O CI"))

    def test_rejects_gold_of_another_length(self):
        gold = TagSequence.from_symbols("O CB CI")
        for n in (2, 4):
            with pytest.raises(ValueError, match="gold length"):
                nll(LAT, np.zeros((n, NUM_TAGS)), gold)

    def test_gradient_matches_fd(self):
        gold = TagSequence.from_symbols("O CB CI O DB-Bx DI-O DI-By")
        rng = np.random.default_rng(21)
        w = rng.uniform(-1, 1, (7, NUM_TAGS))
        fd = central_difference(lambda v: nll(LAT, v, gold)[0], w)
        assert_close_to_fd(nll(LAT, w, gold)[1], fd)


class TestPartialNll:
    def test_reduces_to_nll_on_single_member(self):
        ann = annotation_with_sets(0)
        pl = PartialLabelSet.from_annotation(ann)
        rng = np.random.default_rng(2)
        w = rng.uniform(-1, 1, (ann.n, NUM_TAGS))
        ploss, pgrad = partial_nll(LAT, w, pl)
        floss, fgrad = nll(LAT, w, admissible_sequences(ann)[0])
        assert ploss == pytest.approx(floss)
        assert np.allclose(pgrad, fgrad)

    def test_nonnegative_and_below_any_member_nll(self):
        ann = annotation_with_sets(2)
        pl = PartialLabelSet.from_annotation(ann)
        rng = np.random.default_rng(23)
        for _ in range(20):
            w = rng.uniform(-3, 3, (ann.n, NUM_TAGS))
            loss, _ = partial_nll(LAT, w, pl)
            assert loss >= 0
            for member in admissible_sequences(ann):
                assert loss <= nll(LAT, w, member)[0] + 1e-9

    def test_gradient_matches_fd(self):
        ann = annotation_with_sets(2)
        pl = PartialLabelSet.from_annotation(ann)
        rng = np.random.default_rng(29)
        w = rng.uniform(-1, 1, (ann.n, NUM_TAGS))
        fd = central_difference(lambda v: partial_nll(LAT, v, pl)[0], w)
        assert_close_to_fd(partial_nll(LAT, w, pl)[1], fd)

    def test_thirty_sets_beyond_enumeration(self):
        ann = annotation_with_sets(30)  # 2**30 admissible sequences, n = 120
        pl = PartialLabelSet.from_annotation(ann)
        assert len(pl) == 2**30
        rng = np.random.default_rng(31)
        w = rng.uniform(-2, 2, (ann.n, NUM_TAGS))
        loss, grad = partial_nll(LAT, w, pl)
        assert loss >= 0
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)
        eps = 1e-4
        for i, t in zip(rng.integers(0, ann.n, 25), rng.integers(0, NUM_TAGS, 25)):
            up, down = w.copy(), w.copy()
            up[i, t] += eps
            down[i, t] -= eps
            fd = (partial_nll(LAT, up, pl)[0] - partial_nll(LAT, down, pl)[0]) / (2 * eps)
            assert grad[i, t] == pytest.approx(fd, abs=1e-6)


class TestHardEm:
    def test_single_member_equals_nll(self):
        ann = annotation_with_sets(0)
        pl = PartialLabelSet.from_annotation(ann)
        w = np.random.default_rng(4).uniform(-1, 1, (ann.n, NUM_TAGS))
        loss, grad, chosen = hard_em_step(LAT, w, pl)
        member = admissible_sequences(ann)[0]
        floss, fgrad = nll(LAT, w, member)
        assert chosen.tags == member.tags
        assert loss == floss and np.array_equal(grad, fgrad)

    def test_picks_first_on_ties_and_max_otherwise(self):
        ann = annotation_with_sets(1)
        pl = PartialLabelSet.from_annotation(ann)
        members = admissible_sequences(ann)
        w = np.zeros((ann.n, NUM_TAGS))
        _, _, chosen = hard_em_step(LAT, w, pl)
        assert chosen.tags == members[0].tags  # tie: canonical member
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = rng.uniform(-2, 2, (ann.n, NUM_TAGS))
            _, _, chosen = hard_em_step(LAT, w, pl)
            best = max(sequence_score(w, m) for m in members)
            assert sequence_score(w, chosen) == best

    def test_zero_and_positive_gains_pick_earliest_best(self):
        # each set encodes as DB-Bx DI-O DI-By at words 4s..4s+2; its flip
        # gains w[4s, DB-By] - w[4s, DB-Bx] + w[4s+2, DI-Bx] - w[4s+2, DI-By]
        ann = annotation_with_sets(4)
        pl = PartialLabelSet.from_annotation(ann)
        members = admissible_sequences(ann)
        w = np.zeros((ann.n, NUM_TAGS))
        w[4, DB_BY.index] = 1.0  # set 1 gains 1
        w[8, DB_BX.index] = 1.0  # set 2 loses 1
        w[12, DB_BY.index] = w[14, DI_BY.index] = 0.5  # set 3 gains exactly 0
        scores = [sequence_score(w, m) for m in members]
        best = members[scores.index(max(scores))]
        _, _, chosen = hard_em_step(LAT, w, pl)
        assert chosen.tags == best.tags
        assert chosen.tags == members[0b0100].tags  # only set 1 flipped

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_nll_of_its_chosen_member(self, k):
        ann = annotation_with_sets(k)
        pl = PartialLabelSet.from_annotation(ann)
        rng = np.random.default_rng(40 + k)
        chosen_members = set()
        for _ in range(10):
            w = rng.normal(0, 3, (ann.n, NUM_TAGS))
            loss, grad, chosen = hard_em_step(LAT, w, pl)
            floss, fgrad = nll(LAT, w, chosen)
            assert loss == floss and np.array_equal(grad, fgrad)
            chosen_members.add(chosen.tags)
        assert len(chosen_members) > 1  # the draws pick more than the unflipped member

    def test_rejects_label_set_of_another_length(self):
        pl = PartialLabelSet.from_annotation(annotation_with_sets(2))  # 8 words
        for n in (7, 9):
            with pytest.raises(ValueError, match="label set length"):
                hard_em_step(LAT, np.zeros((n, NUM_TAGS)), pl)


def joined(sentences):
    """The (words, 10) rows of the (n_s, 10) matrices, one after another."""
    return np.concatenate([np.empty((0, NUM_TAGS)), *sentences])


def in_lanes(rng, layout, sentences, pad_scale=5.0):
    """The (n, L, 10) chart rows of the (n_s, 10) matrices where layout
    places them, and random values in the padding rows around them."""
    n, lanes = layout.shape
    batch = rng.uniform(-pad_scale, pad_scale, (n * lanes, NUM_TAGS))
    batch[layout.cell] = joined(sentences)
    return batch.reshape(n, lanes, NUM_TAGS)


def word_rows(lengths):
    """Each sentence's rows of a (words, ...) array."""
    bounds = np.cumsum([0, *lengths])
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def random_labels(rng, mode, n):
    """The label set of a random sequence of n words of the mode's grammar;
    its sets are unresolved, except in structural mode."""
    ann = to_two_layer(decode(random_well_formed(build_lattice(grammar_automaton(mode)), n, rng)), n)
    return PartialLabelSet.from_annotation(ann.structural() if mode == "structural" else ann)


def chain_grammar(chain=8):
    """A grammar whose cell ``j`` steps along a chain of CI is ``exp(-100 j)``
    of its row at weights of -100 on CB and CI: below ``_TINY`` from ``j = 6`` on."""
    transitions = {(0, O, 0.0, 0), (0, CB, 0.0, 1), (chain, CI, 0.0, chain)}
    transitions |= {(j, CI, 0.0, j + 1) for j in range(1, chain)}
    return Automaton(chain + 1, frozenset(transitions), 0, frozenset({0, chain}))


class TestBatchedPosterior:
    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_batch_equals_each_sentence_alone(self, mode):
        grammar = grammar_automaton(mode)
        lattice = build_lattice(grammar)
        rng = np.random.default_rng(61)
        for batch in range(1, 17):
            lengths = rng.integers(1, 301 if batch % 4 == 0 else 40, batch)
            sentences = [random_weights(rng, n, scale=rng.choice([0.5, 3.0, 30.0])) for n in lengths]
            log_z, probs = _posterior(lattice, joined(sentences), _layout(lengths))
            for b, (w, rows) in enumerate(zip(sentences, word_rows(lengths))):
                assert log_z[b] == forward(lattice, w)
                assert np.array_equal(probs[rows], marginals(lattice, w))

    def test_log_fallback_in_a_batch(self, monkeypatch):
        calls = []
        log_posterior = inference._log_posterior
        monkeypatch.setattr(inference, "_log_posterior", lambda *a: calls.append(a) or log_posterior(*a))
        rng = np.random.default_rng(67)
        lengths = np.array([5, 9, 3, 12])
        sentences = [random_weights(rng, n) for n in lengths]
        sentences[1] = random_weights(rng, 9, scale=1e300)  # underflows in the scaled chart
        log_z, probs = _posterior(LAT, joined(sentences), _layout(lengths))
        assert len(calls) == 1 and np.array_equal(calls[0][1], sentences[1])
        assert np.all(np.isfinite(log_z)) and np.all(np.isfinite(probs))
        calls.clear()
        for b, (w, rows) in enumerate(zip(sentences, word_rows(lengths))):
            assert log_z[b] == forward(LAT, w)
            assert np.array_equal(probs[rows], marginals(LAT, w))
        # alone, forward and marginals each fall back for the 1e300 sentence, and only for it
        assert len(calls) == 2 and all(np.array_equal(c[1], sentences[1]) for c in calls)

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_scaled_matches_log_chart(self, mode):
        grammar = grammar_automaton(mode)
        lattice = build_lattice(grammar)
        rng = np.random.default_rng(71)
        for n in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]:
            for scale in (0.1, 2.0, 20.0):
                w = random_weights(rng, n, scale=scale)
                (log_z,), probs = _posterior(lattice, w, _layout([n]))
                log_z_ref, probs_ref = _log_posterior(lattice, w)
                assert abs(log_z - log_z_ref) <= 1e-12 * abs(log_z_ref)
                assert np.max(np.abs(probs - probs_ref)) <= 1e-12

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_scaled_matches_log_chart_at_large_weights(self, mode):
        # scores that differ by hundreds underflow exp: such sentences must take the log chart
        grammar = grammar_automaton(mode)
        lattice = build_lattice(grammar)
        rng = np.random.default_rng(89)
        for n in [2, 6, 20, 80]:
            for scale in (1e2, 3e2, 1e3, 1e4):
                for _ in range(3):
                    w = random_weights(rng, n, scale=scale)
                    (log_z,), probs = _posterior(lattice, w, _layout([n]))
                    log_z_ref, probs_ref = _log_posterior(lattice, w)
                    assert abs(log_z - log_z_ref) <= 1e-12 * abs(log_z_ref)
                    # the log chart rounds its log sums, up to n * scale, to eps of them
                    assert np.max(np.abs(probs - probs_ref)) <= max(1e-12, 4 * n * scale * np.finfo(float).eps)

    def test_subnormal_path_takes_the_log_chart(self):
        # the best path opens a mention at 740 below the word's best tag, and
        # exp(w - max w) keeps only a few digits of that: scaled alone, log Z
        # would be off by 7e-3
        w = np.full((2, NUM_TAGS), -100.0)
        w[0, O.index] = 0.0
        w[0, CB.index] = -740.0
        w[1] = 300.0
        w[1, CI.index] = 1042.0
        (log_z,), probs = _posterior(LAT, w, _layout([2]))
        log_z_ref, probs_ref = _log_posterior(LAT, w)
        assert abs(log_z - log_z_ref) <= 1e-12 * abs(log_z_ref)
        assert np.max(np.abs(probs - probs_ref)) <= 1e-12

    def test_scaled_chart_flags_possible_underflow(self):
        # a word's weights spanning more than 150 make the total NaN
        w = np.zeros((4, 2, NUM_TAGS))
        w[1, 0, CB.index] = -151.0
        w[1, 1, CB.index] = -149.0
        for backward in (False, True):
            log_z, _ = _chart(LAT, w, SCALED, _layout([4, 4]), backward)
            assert np.isnan(log_z[:, 0]).all() and np.isfinite(log_z[:, 1]).all()
        # so does a cell below 1e-250
        layout = _layout([6, 5])
        w = np.zeros((11, NUM_TAGS))
        w[:, CB.index] = w[:, CI.index] = -100.0
        log_z, _ = _chart(build_lattice(chain_grammar()), layout.padded(w), SCALED, layout)
        assert np.isnan(log_z[:, 0]).all() and np.isfinite(log_z[:, 1]).all()

    @pytest.mark.parametrize("small_half", [0, 1], ids=["forward", "backward"])
    def test_underflow_in_one_half_falls_back_alone(self, monkeypatch, small_half):
        # a chain of six states, each step along it costing 100: entered one
        # step at a time and left at once, its prefix sums underflow and its
        # suffix sums do not; entered at once and left one step at a time,
        # the other way round
        if small_half == 0:
            transitions = {(0, O, 0.0, 0), (0, CB, 0.0, 1)} | {(j, CI, 0.0, j + 1) for j in range(1, 6)}
            transitions |= {(j, O, 0.0, 0) for j in range(1, 7)}
        else:
            entries = (DB_BX, DB_BY, DI_BX, DI_BY, DI_IX, DI_IY)
            transitions = {(0, O, 0.0, 0), (1, CB, 0.0, 0)} | {(j, CI, 0.0, j - 1) for j in range(2, 7)}
            transitions |= {(0, tag, 0.0, j) for j, tag in enumerate(entries, start=1)}
        grammar = Automaton(7, frozenset(transitions), 0, frozenset({0}))
        lattice = build_lattice(grammar)
        rng = np.random.default_rng(103)
        lengths = np.array([9, 4, 12, 7])
        sentences = [random_weights(rng, n) for n in lengths]
        sentences[2] = np.zeros((12, NUM_TAGS))
        sentences[2][:, [CB.index, CI.index]] = -100.0
        layout = _layout(lengths)
        log_z, _ = _chart(lattice, in_lanes(rng, layout, sentences), SCALED, layout)
        assert np.isnan(log_z[small_half, 2]) and np.isfinite(log_z[1 - small_half, 2])
        assert np.isfinite(np.delete(log_z, 2, axis=1)).all()
        calls = []
        log_posterior = inference._log_posterior
        monkeypatch.setattr(inference, "_log_posterior", lambda *a: calls.append(a) or log_posterior(*a))
        log_z, probs = _posterior(lattice, joined(sentences), layout)
        assert len(calls) == 1 and np.array_equal(calls[0][1], sentences[2])
        for b, (w, rows) in enumerate(zip(sentences, word_rows(lengths))):
            assert log_z[b] == forward(lattice, w)
            assert np.array_equal(probs[rows], marginals(lattice, w))

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_log_pass_matches_enumeration(self, language, mode):
        grammar = grammar_automaton(mode)
        lattice = build_lattice(grammar)
        rng = np.random.default_rng(97)
        for n in range(1, 6):
            seqs = [s for s in language.sequences(n) if mode == "semantic" or is_structural(s)]
            idx = np.array([[t.index for t in s] for s in seqs])
            for scale in (0.5, 3.0, 300.0):
                w = random_weights(rng, n, scale=scale)
                scores = w[np.arange(n), idx].sum(axis=1)
                log_z = np.logaddexp.reduce(scores)
                expected = np.zeros((n, NUM_TAGS))
                for i in range(n):
                    np.add.at(expected[i], idx[:, i], np.exp(scores - log_z))
                totals, _ = _chart(lattice, w[:, None], LOG, _layout([n]))
                assert totals[:, 0] == pytest.approx([log_z, log_z], rel=1e-12)
                got_z, got = _log_posterior(lattice, w)
                assert got_z == totals[0, 0]
                assert np.max(np.abs(got - expected)) <= max(1e-12, 4 * n * scale * np.finfo(float).eps)

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_every_length_up_to_n_equals_alone(self, mode):
        grammar = grammar_automaton(mode)
        lattice = build_lattice(grammar)
        rng = np.random.default_rng(107)
        for n in (9, 40):
            lengths = rng.permutation(np.arange(1, n + 1))
            sentences = [random_weights(rng, m, scale=rng.choice([0.5, 3.0, 30.0])) for m in lengths]
            layout = _layout(lengths)
            log_z, probs = _posterior(lattice, joined(sentences), layout)
            log_totals, _ = _chart(lattice, in_lanes(rng, layout, sentences), LOG, layout)
            for b, (w, rows) in enumerate(zip(sentences, word_rows(lengths))):
                assert log_z[b] == forward(lattice, w)
                assert np.array_equal(probs[rows], marginals(lattice, w))
                assert np.array_equal(log_totals[:, b], _chart(lattice, w[:, None], LOG, _layout([len(w)]))[0][:, 0])

    def test_unusable_cells_exactly_zero(self):
        rng = np.random.default_rng(73)
        lengths = np.array([4, 1, 7])
        sentences = [random_weights(rng, n) for n in lengths]
        _, probs = _posterior(LAT, joined(sentences), _layout(lengths))
        for w, rows in zip(sentences, word_rows(lengths)):
            usable = marginals(LAT, np.zeros_like(w)) > 0
            assert np.all(probs[rows][~usable] == 0.0)
            assert np.all(probs[rows][usable] > 0.0)


class TestChartOracle:
    """``_chart`` keeps, bit for bit, the totals and charts of the batch-major
    ``reduceat`` chart it replaced (``chart_reference``)."""

    @staticmethod
    def assert_same_bits(lattice, batch, sr, lengths, backward):
        # batch holds lane b's rows at batch[b], its sentence first, as _layout
        # places it by default and with one sentence a lane named explicitly
        layouts = _layout(lengths), _layout(lengths, [1] * len(lengths))
        assert all(np.array_equal(a, b) for a, b in zip(*layouts))
        ref_totals, ref_charts = chart_reference(lattice, batch, sr, lengths, backward)
        for layout in layouts:
            totals, charts = _chart(lattice, batch.transpose(1, 0, 2), sr, layout, backward)
            assert totals.shape == ref_totals.shape
            assert np.array_equal(totals.view(np.int64), ref_totals.view(np.int64))
            assert len(charts) == len(ref_charts) == 2 - backward
            for chart, ref in zip(charts, ref_charts):
                assert np.array_equal(chart.transpose(0, 2, 1).view(np.int64), ref.view(np.int64))
        return totals

    @pytest.mark.parametrize("backward", [False, True], ids=["two-way", "backward"])
    @pytest.mark.parametrize("sr", [TROPICAL, SCALED, LOG], ids=lambda s: s.name)
    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    @pytest.mark.parametrize("batch", [1, 8, 409])
    def test_same_bits_as_reference(self, batch, mode, sr, backward):
        lattice = build_lattice(grammar_automaton(mode))
        rng = np.random.default_rng(113 + batch)
        n = 40 if batch > 1 else 57
        lengths = rng.integers(1, n + 1, batch)
        lengths[0] = n
        scales = rng.choice([0.5, 3.0, 30.0, 300.0], batch)  # scores that differ by hundreds flag the scaled chart
        sentences = [random_weights(rng, m, scale=s) for m, s in zip(lengths, scales)]
        if batch > 1:
            # the best path opens a mention 740 below the word's best tag: a subnormal cell
            sentences[1] = np.full((2, NUM_TAGS), -100.0)
            sentences[1][0, [O.index, CB.index]] = 0.0, -740.0
            sentences[1][1] = 300.0
            sentences[1][1, CI.index] = 1042.0
            lengths[1] = 2
        # padding whose scores differ by up to 1,000: exp underflows, and a padded row can lose all its mass
        batch_weights = in_lanes(rng, _layout(lengths), sentences, pad_scale=500.0).transpose(1, 0, 2)
        totals = self.assert_same_bits(lattice, batch_weights, sr, lengths, backward)
        if sr is SCALED and batch > 1:
            assert np.isnan(totals).any() and np.isfinite(totals).any()

    @pytest.mark.parametrize("backward", [False, True], ids=["two-way", "backward"])
    @pytest.mark.parametrize("sr", [TROPICAL, SCALED, LOG], ids=lambda s: s.name)
    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_each_lane_resets_to_each_sentence_alone(self, mode, sr, backward):
        # lanes of one to six sentences end to end, 0-word ones included, with
        # padding whose scores differ by up to 1,000 between them and after
        # them: each sentence's rows of its lane's charts, from its first row
        # to the row after its last word, and its totals, are the bits
        # chart_reference gives it alone
        lattice = build_lattice(grammar_automaton(mode))
        rng = np.random.default_rng(131)
        lanes = [[40], [1] * 6, [20, 19], [1, 38], [12, 3, 1], [0], [0, 4], [5, 0, 2], [6, 0], [0, 0, 0]]
        lanes += [rng.integers(0, 9, size=rng.integers(1, 7)).tolist() for _ in range(20)]
        scales = [0.5, 3.0, 30.0, 300.0]
        sentences = [random_weights(rng, m, scale=rng.choice(scales)) for lane in lanes for m in lane]
        sentences[8][5, CB.index] -= 1000.0  # weights spanning more than 150 flag the scaled chart
        layout = _layout([len(x) for x in sentences], [len(lane) for lane in lanes])
        assert layout.shape == (40, len(lanes))
        totals, charts = _chart(lattice, in_lanes(rng, layout, sentences, pad_scale=500.0), sr, layout, backward)
        same = lambda a, b: np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
        for k, (x, lane, start) in enumerate(zip(sentences, layout.lane, layout.starts)):
            ref_totals, ref_charts = chart_reference(lattice, x[None], sr, backward=backward)
            assert same(totals[:, k], ref_totals[:, 0])
            for chart, ref in zip(charts, ref_charts):
                assert same(chart[start : start + len(x) + 1, :, lane], ref[:, 0])
        if sr is SCALED:  # the 1,000 below sits in sentence 8, the second of lane 2
            assert np.isnan(totals[:, 8]).all() and np.isfinite(totals).any()

    @pytest.mark.parametrize("backward", [False, True], ids=["two-way", "backward"])
    @pytest.mark.parametrize("sr", [TROPICAL, SCALED, LOG], ids=lambda s: s.name)
    def test_same_bits_with_cells_below_tiny(self, sr, backward):
        lattice = build_lattice(chain_grammar())
        rng = np.random.default_rng(127)
        batch = rng.uniform(-5.0, 5.0, (8, 12, NUM_TAGS))
        batch[::2, :, [CB.index, CI.index]] = -100.0
        lengths = np.array([12, 11, 10, 9, 8, 7, 6, 5])
        totals = self.assert_same_bits(lattice, batch, sr, lengths, backward)
        if sr is SCALED:
            assert np.isnan(totals[:, ::2]).all() and np.isfinite(totals[:, 1::2]).all()


class TestBatchLosses:
    @pytest.mark.parametrize("loss", list(LIBRARY_LOSSES))
    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_batch_equals_library_loss_of_each_sentence(self, loss, mode):
        grammar = grammar_automaton(mode)
        rng = np.random.default_rng(79)
        for batch in (1, 2, 8, 13):
            lengths = rng.integers(1, 30, batch)
            labels = [random_labels(rng, mode, n) for n in lengths]
            sentences = [random_weights(rng, n) for n in lengths]
            losses, grad = batch_losses(build_lattice(grammar), joined(sentences), labels, loss)
            for b, (w, pl, rows) in enumerate(zip(sentences, labels, word_rows(lengths))):
                alone_loss, alone_grad = LIBRARY_LOSSES[loss](build_lattice(grammar), w, pl)
                assert losses[b] == alone_loss
                assert np.array_equal(grad[rows], alone_grad)
        # a batch of no sentences gives no losses and no gradient rows
        losses, grad = batch_losses(build_lattice(grammar), np.zeros((0, NUM_TAGS)), [], loss)
        assert losses.shape == (0,) and grad.shape == (0, NUM_TAGS)

    def test_rejects_mismatched_labels_and_unknown_loss(self, monkeypatch):
        rng = np.random.default_rng(83)
        labels = [random_labels(rng, "semantic", 4), random_labels(rng, "semantic", 3)]
        w = np.zeros((7, NUM_TAGS))
        with pytest.raises(ValueError, match="^6 weight rows for sentences of 7 words$"):
            batch_losses(LAT, w[:6], labels, "nll")
        with pytest.raises(ValueError):
            batch_losses(LAT, w, labels, "mle")

        def refuse(*args):
            raise AssertionError("the chart ran")

        # an unknown loss is rejected before the chart runs
        monkeypatch.setattr(inference, "_posterior", refuse)
        with pytest.raises(ValueError, match=r"^loss must be one of \('nll', 'partial', 'hard-em'\), got 'mle'$"):
            batch_losses(LAT, w, labels, "mle")
