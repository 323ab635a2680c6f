import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disctag.errors import EncodingViolation, IllFormed, Incompatible
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
    decode,
    decode_annotation,
    encode,
    from_two_layer,
    is_structural,
    is_well_formed,
    tag_by_symbol,
    to_two_layer,
)

from conftest import with_flips


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
        hot = seq.one_hot()
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
        assert m.words() == frozenset(
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


@st.composite
def mention_sets(draw, n=8):
    count = draw(st.integers(1, 3))
    mentions = []
    for _ in range(count):
        frag_count = draw(st.integers(1, 2))
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
