import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disctag.automata import build_lattice, grammar_automaton
from disctag.corpus import read_corpus
from disctag.errors import EncodingViolation, IllFormed, Incompatible
from disctag.inference import random_well_formed
from disctag.scheme import (
    CB,
    CI,
    DI_O,
    NUM_TAGS,
    O,
    TAGS,
    ComponentType,
    Mention,
    SentenceAnnotation,
    TagSequence,
    as_rows,
    encode_batch,
    decode,
    encode,
    from_rows,
    from_two_layer,
    is_well_formed,
    is_well_formed_batch,
    mention_table,
    tag_by_symbol,
    to_two_layer,
)

from conftest import (
    _ALLOWED_PREV,
    decode_annotation,
    decode_annotation_reference,
    decode_batch,
    decode_reference,
    is_structural,
    is_well_formed_reference,
    mention_table_reference,
    mention_words,
    one_hot,
    to_two_layer_reference,
    with_flips,
)


def ts(symbols: str) -> TagSequence:
    return TagSequence.from_symbols(symbols)


class TestTagAlphabet:
    def test_ten_tags_with_bijective_indices(self):
        assert NUM_TAGS == 10
        assert sorted(t.index for t in TAGS) == list(range(10))
        assert len({t.symbol for t in TAGS}) == 10

    def test_canonical_order(self):
        assert [t.symbol for t in TAGS] == [
            "CB", "CI", "O", "DB-Bx", "DB-By", "DI-Bx", "DI-By", "DI-Ix", "DI-Iy", "DI-O",
        ]

    def test_no_db_inside_or_gap_tags(self):
        symbols = {t.symbol for t in TAGS}
        assert not symbols & {"DB-Ix", "DB-Iy", "DB-O"}

    def test_symbol_lookup(self):
        assert tag_by_symbol("DI-O") is DI_O
        with pytest.raises(KeyError):
            tag_by_symbol("DB-O")

    def test_one_hot_view(self):
        seq = ts("O CB CI")
        hot = one_hot(seq)
        assert hot.shape == (3, 10)
        assert hot.sum() == 3
        assert hot[0, O.index] == 1 and hot[1, CB.index] == 1 and hot[2, CI.index] == 1


class TestWellFormedness:
    def test_continuous_only_rules(self):
        assert is_well_formed(ts("O O O"))
        assert is_well_formed(ts("CB CI CI"))
        assert not is_well_formed(ts("O CI"))  # rule 1
        assert not is_well_formed(ts("CI"))

    def test_set_needs_preceding_set_tag(self):
        assert not is_well_formed(ts("O DI-Bx DI-By"))  # rule 2
        assert not is_well_formed(ts("DI-O"))

    def test_component_continuation(self):
        assert is_well_formed(ts("DB-Bx DI-Ix DI-O DI-By"))
        assert not is_well_formed(ts("DB-Bx DI-By DI-Ix"))  # rule 3
        assert not is_well_formed(ts("DB-Bx DI-O DI-Ix DI-By"))  # continuation across gap

    def test_both_types_required(self):
        assert not is_well_formed(ts("DB-Bx DI-O DI-Bx"))  # rule 4, no y
        assert not is_well_formed(ts("DB-By DI-O DI-By"))  # rule 4, no x

    def test_forbidden_single_continuous_reconstruction(self):
        # Exactly two adjacent components would decode to one continuous
        # mention, which must be written CB CI* instead.
        assert not is_well_formed(ts("DB-Bx DI-By"))  # rule 5
        assert not is_well_formed(ts("DB-Bx DI-Ix DI-By DI-Iy"))
        assert not is_well_formed(ts("DB-By DI-Bx"))
        assert is_well_formed(ts("DB-Bx DI-O DI-By"))  # gap: single discontinuous, fine
        assert is_well_formed(ts("DB-Bx DI-By DI-Bx"))  # three components, fine
        assert is_well_formed(ts("DB-Bx DI-By DI-By"))

    def test_span_cannot_end_with_gap(self):
        assert is_well_formed(ts("DB-Bx DI-O DI-By"))
        assert not is_well_formed(ts("DB-Bx DI-By DI-O"))  # rule 6
        assert not is_well_formed(ts("DB-Bx DI-O DI-By DI-O O"))

    def test_two_adjacent_sets(self):
        assert is_well_formed(ts("DB-Bx DI-O DI-By DB-By DI-O DI-Bx"))

    def test_structural_subset(self):
        assert is_structural(ts("DB-Bx DI-O DI-By"))
        assert not is_structural(ts("DB-By DI-O DI-Bx"))
        assert not is_structural(ts("DB-By DI-Bx"))  # ill-formed stays out

    def test_language_size_small_n(self, language):
        assert language.as_set(1) == {(O,), (CB,)}
        assert language.as_set(2) == {
            (O, O), (O, CB), (CB, O), (CB, CB), (CB, CI),
        }


class TestMention:
    def test_adjacent_fragments_merge(self):
        assert Mention(((0, 1), (2, 2))) == Mention(((0, 2),))
        assert Mention(((4, 4), (0, 1))).fragments == ((0, 1), (4, 4))

    def test_overlapping_fragments_merge(self):
        assert Mention(((0, 3), (2, 5))).fragments == ((0, 5),)

    def test_bad_fragment(self):
        with pytest.raises(ValueError):
            Mention(((3, 1),))
        with pytest.raises(ValueError):
            Mention(())

    def test_continuity(self):
        assert Mention(((1, 3),)).is_continuous
        assert not Mention(((0, 0), (2, 2))).is_continuous

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).map(lambda p: (min(p), max(p))),
            min_size=1,
            max_size=4,
        )
    )
    def test_canonical_fragments_invariants(self, frags):
        m = Mention(tuple(frags))
        for (b1, e1), (b2, e2) in itertools.pairwise(m.fragments):
            assert e1 + 1 < b2  # sorted, disjoint, non-adjacent
        assert mention_words(m) == frozenset(
            w for b, e in frags for w in range(b, e + 1)
        )


# The running example: "pain in arms and shoulders" with mentions
# "pain in arms" and "pain in shoulders".
PAIN = frozenset({Mention(((0, 2),)), Mention(((0, 1), (4, 4)))})


class TestToTwoLayer:
    def test_shared_words_become_one_set(self):
        ann = to_two_layer(PAIN, 5)
        assert ann.continuous == ()
        assert len(ann.sets) == 1
        s = ann.sets[0]
        assert s.span == (0, 4)
        assert [(c.interval, c.ctype) for c in s.components] == [
            ((0, 1), ComponentType.X),
            ((2, 2), ComponentType.Y),
            ((4, 4), ComponentType.Y),
        ]
        assert s.gaps == (3,)

    def test_standalone_continuous_passes_through(self):
        m = Mention(((1, 2),))
        ann = to_two_layer({m}, 4)
        assert ann.continuous == (m,)
        assert ann.sets == ()

    def test_single_discontinuous_mention(self):
        ann = to_two_layer({Mention(((0, 0), (2, 3)))}, 4)
        (s,) = ann.sets
        assert [(c.interval, c.ctype) for c in s.components] == [
            ((0, 0), ComponentType.X),
            ((2, 3), ComponentType.Y),
        ]

    def test_three_component_mention_incompatible(self):
        # e.g. "muscle aches and pains in hands and feet": subject, head and
        # PP coordination give a mention split into three runs.
        with pytest.raises(Incompatible) as err:
            to_two_layer({Mention(((0, 0), (2, 2), (4, 4)))}, 5)
        assert err.value.reason == "three-way-split"

    def test_partially_shared_component_incompatible(self):
        # The second mention is entirely contained in the shared run.
        with pytest.raises(Incompatible) as err:
            to_two_layer({Mention(((0, 3),)), Mention(((1, 3),))}, 4)
        assert err.value.reason == "partial-overlap"

    def test_odd_cycle_incompatible(self):
        with pytest.raises(Incompatible) as err:
            to_two_layer(
                {Mention(((0, 1),)), Mention(((1, 2),)), Mention(((0, 0), (2, 2)))}, 3
            )
        assert err.value.reason == "partial-overlap"

    def test_incomplete_product_incompatible(self):
        # Chain of three mentions over four components: bipartite but the
        # product would also generate a fourth, unannotated mention.
        with pytest.raises(Incompatible) as err:
            to_two_layer(
                {
                    Mention(((0, 0), (2, 2))),
                    Mention(((2, 2), (4, 4))),
                    Mention(((4, 4), (6, 6))),
                },
                7,
            )
        assert err.value.reason == "partial-overlap"

    def test_mention_inside_foreign_gap_is_span_conflict(self):
        with pytest.raises(Incompatible) as err:
            to_two_layer({Mention(((0, 0), (4, 4))), Mention(((2, 2),))}, 5)
        assert err.value.reason == "span-conflict"

    def test_interleaved_set_spans_conflict(self):
        with pytest.raises(Incompatible) as err:
            to_two_layer(
                {Mention(((0, 0), (4, 4))), Mention(((2, 2), (6, 6)))}, 7
            )
        assert err.value.reason == "span-conflict"

    def test_mention_outside_sentence(self):
        with pytest.raises(ValueError):
            to_two_layer({Mention(((0, 5),))}, 3)


class TestFromTwoLayer:
    def test_cartesian_product(self):
        ann = to_two_layer(PAIN, 5)
        assert from_two_layer(ann) == PAIN

    def test_one_by_one_product(self):
        ann = decode_annotation(ts("DB-Bx DI-O DI-By"))
        assert from_two_layer(ann) == {Mention(((0, 0), (2, 2)))}

    def test_flip_invariance(self):
        ann = to_two_layer(PAIN, 5)
        assert from_two_layer(with_flips(ann, [True])) == PAIN


class TestEncodeDecode:
    def test_running_example_encoding(self):
        assert encode(to_two_layer(PAIN, 5)).symbols() == "DB-Bx DI-Ix DI-By DI-O DI-By"

    def test_empty_annotation(self):
        assert encode(SentenceAnnotation(3)).symbols() == "O O O"
        assert decode(ts("O O O")) == frozenset()

    def test_single_continuous_mention(self):
        ann = to_two_layer({Mention(((1, 2),))}, 4)
        assert encode(ann).symbols() == "O CB CI O"

    def test_decode_running_example(self):
        got = decode(ts("DB-Bx DI-Ix DI-By DI-O DI-By"))
        assert got == PAIN

    def test_decode_requires_well_formed(self):
        with pytest.raises(IllFormed):
            decode(ts("O CI"))
        with pytest.raises(IllFormed):
            decode(ts("DB-Bx DI-By"))

    def test_encode_rejects_handcrafted_violation(self):
        # Two adjacent single-fragment components cannot come out of
        # to_two_layer, but a hand-built annotation can request them.
        from disctag.scheme import Component, TwoLayerSet

        bad = SentenceAnnotation(
            2,
            (),
            (
                TwoLayerSet(
                    (
                        Component(0, 0, ComponentType.X),
                        Component(1, 1, ComponentType.Y),
                    )
                ),
            ),
        )
        with pytest.raises(EncodingViolation):
            encode(bad)

    def test_encode_batch_names_the_first_violation(self):
        from disctag.scheme import Component, TwoLayerSet

        good = [decode_annotation(ts(s)) for s in ("O CB CI", "DB-By DI-O DI-Bx", "CB DB-Bx DI-O DI-By DI-Iy")]
        assert encode_batch(good) == [encode(a) for a in good]
        assert encode_batch([]) == []
        def adjacent(n):  # an x word, then a y component up to word n - 1: ill-formed
            components = (Component(0, 0, ComponentType.X), Component(1, n - 1, ComponentType.Y))
            return SentenceAnnotation(n, (), (TwoLayerSet(components),))

        bad = [adjacent(2), adjacent(3)]
        with pytest.raises(EncodingViolation, match="ill-formed sequence: DB-Bx DI-By$"):
            encode_batch([good[0], bad[0], good[1], bad[1]])
        with pytest.raises(EncodingViolation, match="ill-formed sequence: DB-Bx DI-By DI-Iy$"):
            encode_batch([good[0], bad[1]])

    def test_structural_canonicalisation(self):
        seq = ts("DB-By DI-O DI-Bx")
        ann = decode_annotation(seq)
        assert encode(ann.structural()).symbols() == "DB-Bx DI-O DI-By"


class TestRoundTrips:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_decode_encode_identity_up_to_flip(self, language, n):
        for seq in language.sequences(n):
            mentions = decode(seq)
            ann = to_two_layer(mentions, n)
            again = encode(ann)
            k = len(ann.sets)
            orbit = {
                encode(with_flips(ann, flips)).tags
                for flips in itertools.product([False, True], repeat=k)
            }
            assert len(orbit) == 2 ** k
            assert tuple(seq) in orbit
            assert again.tags in orbit
            assert sum(1 for member in orbit if is_structural(member)) == 1
            for member in orbit:
                assert decode(member) == mentions

    @pytest.mark.parametrize("n", range(1, 7))
    def test_decoded_mentions_are_canonical(self, language, n):
        # decoding builds mentions without the constructor's checks; each must
        # equal, fragment for fragment, the mention the constructor builds
        for ms in decode_batch(*as_rows(language.sequences(n))):
            for m in ms:
                assert m.fragments == Mention(m.fragments).fragments
                assert all(type(i) is int for fragment in m.fragments for i in fragment)

    def test_touching_components_merge(self):
        # x at words 0-1, y at word 2 and again at 4: the pair (0-1, 2) touches
        seq = [tag_by_symbol(s) for s in "DB-Bx DI-Ix DI-By DI-O DI-By".split()]
        assert decode(seq) == {Mention(((0, 2),)), Mention(((0, 1), (4, 4)))}
        assert {m.fragments for m in decode(seq)} == {((0, 2),), ((0, 1), (4, 4))}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_flip_orbits_are_complete_preimages(self, language, n):
        # one-to-one mapping: no sequence outside the flip orbit may decode
        # to the same mention set
        preimages = {}
        for seq in language.sequences(n):
            preimages.setdefault(decode(seq), set()).add(tuple(seq))
        for mentions, seqs in preimages.items():
            k = len(to_two_layer(mentions, n).sets)
            assert len(seqs) == 2 ** k

    @pytest.mark.parametrize("n", range(1, 6))
    def test_structural_identity(self, language, n):
        for seq in language.sequences(n):
            if not is_structural(seq):
                continue
            assert encode(to_two_layer(decode(seq), n).structural()).tags == tuple(seq)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_encode_output_always_well_formed(self, language, n):
        for seq in language.sequences(n):
            assert is_well_formed(encode(to_two_layer(decode(seq), n)))


def random_batch(rng, count, max_len=10):
    """Tag sequences of mixed lengths, mostly following rules 1-3 so that the
    set rules are reached; a third start with any tag at all, such as a DI-*,
    CI or *-I* right after a sequence that ends inside a set span."""
    follows = {p: [t for t in TAGS if t not in _ALLOWED_PREV or p in _ALLOWED_PREV[t]] for p in TAGS}
    out = []
    for n, (u, v) in zip(rng.integers(0, max_len + 1, size=count), rng.random((count, 2, max_len))):
        seq = [TAGS[int(10 * u[0])] if v[0] < 1 / 3 else (CB, O)[int(2 * u[0])]]
        for a, b in zip(u[1:n], v[1:n]):
            options = TAGS if b < 0.05 else follows[seq[-1]]
            seq.append(options[int(a * len(options))])
        out.append(tuple(seq[:n]))
    return out


class TestBatchedRuleCheck:
    """The vectorised check against the tag-at-a-time reference in conftest."""

    def test_every_sequence_up_to_six_words(self, language):
        # all 1,111,110 sequences of 1-6 tags, in lexicographic order, in one call
        flat = np.concatenate([np.indices((10,) * n, dtype=np.uint8).reshape(n, -1).T.ravel() for n in range(1, 7)])
        lengths = np.repeat(np.arange(1, 7), 10 ** np.arange(1, 7))
        got = is_well_formed_batch(flat, np.concatenate(([0], np.cumsum(lengths))))
        assert got.shape == (1_111_110,)
        offset = 0
        for n in range(1, 7):
            want = np.zeros(10**n, dtype=bool)
            for seq in language.sequences(n):  # enumerated with the reference
                want[int("".join(str(t.index) for t in seq))] = True
            assert np.array_equal(got[offset : offset + 10**n], want), n
            offset += 10**n

    def test_random_mixed_length_batches(self):
        # 10**5 sequences of 0-10 tags, checked in batches of 1 to 200
        rng = np.random.default_rng(41)
        sequences = random_batch(rng, 10**5)
        assert 0.2 < np.mean([is_well_formed_reference(s) for s in sequences[:2000]]) < 0.8
        start = 0
        while start < len(sequences):
            batch = sequences[start : start + int(rng.integers(1, 201))]
            got = is_well_formed_batch(*as_rows(batch)).tolist()
            assert got == [is_well_formed_reference(s) for s in batch], start
            start += len(batch)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("DB-Bx DI-O DI-By", "DI-O"),  # would end the span above with DI-O
            ("DB-Bx DI-O DI-By", "DI-By DI-O"),
            ("DB-Bx DI-O DI-By DI-Iy", "DI-Iy"),
            ("DB-Bx DI-O", "DI-By"),  # together they would be well-formed
            ("DB-Bx DI-By", "DI-O DI-Bx"),
            ("DB-Bx DI-Ix DI-O DI-By", "DI-Ix O"),
            ("CB CI", "CI"),
            ("DB-By DI-O DI-Bx", "DI-Bx DI-Ix"),
        ],
    )
    def test_no_span_runs_into_the_next_sequence(self, first, second):
        batch = [ts(first), ts(second), ts(""), ts(first)]
        want = [is_well_formed_reference(s) for s in batch]
        assert want[1] is False and want[2] is True
        assert is_well_formed_batch(*as_rows(batch)).tolist() == want
        assert [is_well_formed(s) for s in batch] == want

    def test_rows_round_trip(self):
        batch = [ts("CB CI O"), ts(""), ts("DB-Bx DI-O DI-By")]
        flat, bounds = as_rows(batch)
        assert flat.tolist() == [0, 1, 2, 3, 9, 6] and bounds.tolist() == [0, 3, 3, 6]
        assert from_rows(flat, bounds) == batch

    def test_batch_decode_names_the_first_ill_formed_sequence(self):
        batch = [ts("CB O"), ts("DB-Bx DI-O DI-By"), ts("O CI"), ts("DI-O")]
        assert decode_batch(*as_rows(batch[:2])) == [decode(s) for s in batch[:2]]
        with pytest.raises(IllFormed, match="^O CI$"):
            decode_batch(*as_rows(batch))


# Sequences that decode to the table's corner cases: no mention, one word, a
# pair that touches (x then y, and y then x), and a 2x2 product
CORNER_CASES = [
    "", "O", "CB", "O O O", "CB CI CI",
    "DB-Bx DI-Ix DI-By DI-O DI-By",
    "DB-By DI-Bx DI-O DI-By",
    "DB-Bx DI-O DI-By DI-O DI-Bx DI-O DI-By",
    "CB DB-By DI-Iy DI-O DI-Bx DI-By DI-O DI-Bx DI-Ix O CB",
]


def well_formed_batches(language, seed, count):
    """Random batches of well-formed sequences of mixed lengths, the first one
    empty (a table of no rows): corner cases, short sequences of every shape,
    and samples of up to 40 words from the grammar of either mode."""
    rng = np.random.default_rng(seed)
    short = [s for n in range(1, 6) for s in language.sequences(n)]
    samplers = [(build_lattice(grammar_automaton(mode)), n) for mode in ("semantic", "structural") for n in range(1, 41)]
    batches = [[]]
    for _ in range(count - 1):
        batch = []
        for u in rng.random(int(rng.integers(1, 40))):
            if u < 0.3:
                batch.append(ts(CORNER_CASES[int(rng.integers(len(CORNER_CASES)))]).tags)
            elif u < 0.6:
                batch.append(short[int(rng.integers(len(short)))])
            else:
                batch.append(random_well_formed(*samplers[int(rng.integers(len(samplers)))], rng))
        batches.append(batch)
    return batches


class TestMentionTable:
    """The one-pass decode against the tag-at-a-time oracles in conftest."""

    def test_every_sequence_up_to_six_words(self, language):
        batch = [seq for n in range(1, 7) for seq in language.sequences(n)]
        table = mention_table(*as_rows(batch))
        assert np.array_equal(table, mention_table_reference(batch))
        assert decode_batch(*as_rows(batch)) == [decode_reference(seq) for seq in batch]
        for seq in batch:
            assert decode_annotation(seq) == decode_annotation_reference(seq)

    def test_random_mixed_length_batches(self, language):
        touching = products = 0
        for batch in well_formed_batches(language, 43, 150):
            table = mention_table(*as_rows(batch))
            assert table.shape[1] == 5 and table.dtype.kind == "i"
            assert np.array_equal(np.lexsort(table.T[::-1]), np.arange(len(table)))  # sorted rows
            assert np.array_equal(table, mention_table_reference(batch))
            assert decode_batch(*as_rows(batch)) == [decode_reference(seq) for seq in batch]
            for seq in batch:
                ann = decode_annotation_reference(seq)
                assert decode_annotation(seq) == ann
                for s in ann.sets:
                    xs = [c for c in s.components if c.ctype is ComponentType.X]
                    ys = [c for c in s.components if c.ctype is ComponentType.Y]
                    touching += sum(x.end + 1 == y.start or y.end + 1 == x.start for x in xs for y in ys)
                    products += len(xs) >= 2 and len(ys) >= 2
        assert touching > 100 and products > 100  # the batches reach the corner cases

    @pytest.mark.parametrize("decoder", [mention_table, decode_batch])
    def test_names_the_first_ill_formed_sequence(self, decoder):
        batch = [ts("CB O"), ts("DB-Bx DI-O DI-By"), ts(""), ts("DB-Bx DI-By"), ts("O CI")]
        with pytest.raises(IllFormed, match="^DB-Bx DI-By$"):
            decoder(*as_rows(batch))
        with pytest.raises(IllFormed, match="^O CI$"):
            decoder(*as_rows(batch[:3] + batch[4:]))
        with pytest.raises(IllFormed, match="^DI-O$"):
            decode_annotation(ts("DI-O"))


@st.composite
def mention_sets(draw, n=8, max_mentions=3, max_fragments=2):
    count = draw(st.integers(1, max_mentions))
    mentions = []
    for _ in range(count):
        frag_count = draw(st.integers(1, max_fragments))
        frags = []
        for _ in range(frag_count):
            b = draw(st.integers(0, n - 1))
            e = draw(st.integers(b, min(n - 1, b + 2)))
            frags.append((b, e))
        mentions.append(Mention(tuple(frags)))
    return frozenset(mentions), n


class TestRandomMentionSets:
    @settings(max_examples=300, deadline=None)
    @given(mention_sets())
    def test_compatible_sets_round_trip(self, case):
        mentions, n = case
        try:
            ann = to_two_layer(mentions, n)
        except Incompatible:
            return
        assert from_two_layer(ann) == mentions
        seq = encode(ann)
        assert is_well_formed(seq)
        assert decode(seq) == mentions


def annotation_or_reason(annotate, mentions, n):
    """What ``annotate`` makes of a mention set: its annotation, the reason it
    raises :class:`Incompatible` with, or ``ValueError``."""
    try:
        return annotate(mentions, n)
    except Incompatible as err:
        return err.reason
    except ValueError:
        return ValueError


class TestToTwoLayerOracle:
    """The one-pass annotation against the union-find oracle in conftest."""

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: mention_sets(n, max_mentions=5, max_fragments=3)))
    def test_random_mention_sets(self, case):
        mentions, n = case
        got = annotation_or_reason(to_two_layer, mentions, n)
        assert got == annotation_or_reason(to_two_layer_reference, mentions, n)
        if isinstance(got, SentenceAnnotation):
            assert from_two_layer(got) == mentions
        last = max(m.end for m in mentions)  # a sentence that ends inside the last mention
        assert annotation_or_reason(to_two_layer, mentions, last) is ValueError
        assert annotation_or_reason(to_two_layer_reference, mentions, last) is ValueError

    def test_golden_corpus(self):
        records = read_corpus(Path(__file__).parent / "data" / "golden_corpus.txt")
        assert records
        for r in records:
            got = annotation_or_reason(to_two_layer, r.mentions, r.n)
            assert got == annotation_or_reason(to_two_layer_reference, r.mentions, r.n)
