import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disctag.corpus import (
    CorpusRecord,
    CorpusStats,
    Lexicon,
    annotate,
    corpus_text,
    evaluate,
    filter_incompatible,
    format_mentions,
    read_corpus,
    read_tag_file,
    silver_type,
    stats,
    synthetic_records,
    write_corpus,
    write_tag_file,
)
from disctag.errors import LengthMismatch, ParseError
from disctag.scheme import ComponentType, Mention, TagSequence, from_two_layer

GOLDEN = """pain in arms and shoulders
0-1;2-2|0-1;4-4

it hurts
"""


class TestCorpusIO:
    def test_read_golden(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(GOLDEN, encoding="utf-8")
        records = read_corpus(path)
        assert len(records) == 2
        first = records[0]
        assert first.tokens == ("pain", "in", "arms", "and", "shoulders")
        # 0-1;2-2 merges into a single continuous fragment
        assert first.mentions == {
            Mention(((0, 2),)),
            Mention(((0, 1), (4, 4))),
        }
        assert records[1].mentions == frozenset()

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(GOLDEN, encoding="utf-8")
        records = read_corpus(path)
        out = tmp_path / "copy.txt"
        write_corpus(records, out)
        # after canonicalisation (merged fragments, sorted mentions) the file
        # is a fixed point of write(read(.))
        canonical = out.read_text(encoding="utf-8")
        write_corpus(read_corpus(out), out)
        assert out.read_text(encoding="utf-8") == canonical

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("one two\n0-x\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_corpus(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, newline):
        path = tmp_path / "bad.txt"
        path.write_bytes(newline.join([b"O O", b"0-0", b"", "O \u00e9 \xff O".encode("latin-1"), b""]))
        for read in (read_corpus, read_tag_file, Lexicon.from_file):
            with pytest.raises(ParseError, match="^line 4: byte 0xe9 is not UTF-8$"):
                read(path)

    def test_mention_outside_sentence(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("one two\n0-5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_corpus(path)

    def test_missing_blank_line_between_records(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n0-0\nc d\n1-1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_corpus(path)
        assert err.value.line == 3

    def test_missing_mention_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b", encoding="utf-8")
        with pytest.raises(ParseError):
            read_corpus(path)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    def test_random_round_trip(self, tmp_path_factory, shapes):
        records = []
        for kind in shapes:
            if kind == 0:
                records.append(CorpusRecord(("just", "words"), frozenset()))
            elif kind == 1:
                records.append(
                    CorpusRecord(("a", "b", "c"), frozenset({Mention(((0, 1),))}))
                )
            else:
                records.append(
                    CorpusRecord(
                        ("a", "b", "c", "d"),
                        frozenset({Mention(((0, 0), (2, 2))), Mention(((0, 0), (3, 3)))}),
                    )
                )
        path = tmp_path_factory.mktemp("io") / "corpus.txt"
        write_corpus(records, path)
        assert read_corpus(path) == records

    def test_tag_file_round_trip(self, tmp_path):
        sequences = [
            TagSequence.from_symbols("O CB CI"),
            TagSequence.from_symbols("DB-Bx DI-O DI-By"),
        ]
        path = tmp_path / "tags.txt"
        write_tag_file(sequences, path)
        assert read_tag_file(path) == sequences

    def test_tag_file_unknown_symbol(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("O DB-O\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_tag_file(path)
        assert err.value.line == 1


INCOMPATIBLE = CorpusRecord(
    ("muscle", "aches", "in", "elbows", "and", "knees"),
    frozenset({Mention(((0, 0), (2, 2), (4, 4)))}),
)


class TestFilterAndStats:
    def test_all_continuous_nothing_dropped(self):
        records = [CorpusRecord(("a", "b"), frozenset({Mention(((0, 0),))}))] * 3
        kept, dropped = filter_incompatible(records)
        assert len(kept) == 3 and not dropped

    def test_three_component_record_dropped_with_reason(self):
        kept, dropped = filter_incompatible([INCOMPATIBLE])
        assert not kept
        assert dropped[0][1] == "three-way-split"

    def test_counts_per_reason_on_mixed_corpus(self):
        good = synthetic_records(4, length=6, seed=3)
        partial = CorpusRecord(
            ("a", "b", "c", "d"), frozenset({Mention(((0, 3),)), Mention(((1, 3),))})
        )
        records = good + [INCOMPATIBLE, partial]
        kept, dropped = filter_incompatible(records)
        assert len(kept) == 4
        assert sorted(reason for _, reason in dropped) == [
            "partial-overlap",
            "three-way-split",
        ]

    def test_filter_is_idempotent(self):
        records = synthetic_records(5, length=8, seed=9) + [INCOMPATIBLE]
        kept, _ = filter_incompatible(records)
        again, dropped = filter_incompatible(kept)
        assert again == kept and not dropped

    def test_stats_empty(self):
        assert stats([]) == CorpusStats(0, 0, 0, 0)

    def test_stats_counting(self):
        record = CorpusRecord(
            ("pain", "in", "arms", "and", "shoulders"),
            frozenset({Mention(((0, 2),)), Mention(((0, 1), (4, 4)))}),
        )
        assert stats([record]) == CorpusStats(1, 2, 1, 0)

    def test_stats_mixed_ten_records(self):
        continuous = [
            CorpusRecord(("w", "x"), frozenset({Mention(((0, 0),))})) for _ in range(6)
        ]
        disc = [
            CorpusRecord(("a", "b", "c"), frozenset({Mention(((0, 0), (2, 2)))}))
            for _ in range(3)
        ]
        records = continuous + disc + [INCOMPATIBLE]
        assert stats(records) == CorpusStats(10, 10, 4, 1)


class TestLexicon:
    def test_from_file_lowercases_and_indexes_words(self, tmp_path):
        path = tmp_path / "parts.txt"
        path.write_text("Arms\nhip joints\n\nShoulders\n", encoding="utf-8")
        lex = Lexicon.from_file(path)
        assert lex.words == {"arms", "hip", "joints", "shoulders"}

    def test_whole_word_matching_only(self):
        lex = Lexicon.from_entries(["hip joints"])
        assert lex.matches(["hip"])
        assert lex.matches(["JOINTS"])
        assert not lex.matches(["hipjoints"])


PAIN_RECORD = CorpusRecord(
    ("pain", "in", "arms", "and", "shoulders"),
    frozenset({Mention(((0, 2),)), Mention(((0, 1), (4, 4)))}),
)


class TestSilverType:
    def test_match_orients_whole_set(self):
        ann = annotate(PAIN_RECORD)
        typed = silver_type(ann, PAIN_RECORD.tokens, Lexicon.from_entries(["arms"]))
        (s,) = typed.sets
        assert s.resolved
        # "pain in" is the event (y); "arms"/"shoulders" are parts (x)
        assert [c.ctype for c in s.components] == [
            ComponentType.Y, ComponentType.X, ComponentType.X,
        ]

    def test_empty_lexicon_leaves_sets_latent(self):
        ann = annotate(PAIN_RECORD)
        typed = silver_type(ann, PAIN_RECORD.tokens, Lexicon.from_entries([]))
        assert not typed.sets[0].resolved

    def test_matches_on_both_sides_leave_set_latent(self):
        lex = Lexicon.from_entries(["pain", "arms"])
        typed = silver_type(annotate(PAIN_RECORD), PAIN_RECORD.tokens, lex)
        assert not typed.sets[0].resolved

    def test_spans_and_mentions_unchanged(self):
        ann = annotate(PAIN_RECORD)
        typed = silver_type(ann, PAIN_RECORD.tokens, Lexicon.from_entries(["shoulders"]))
        assert [s.span for s in typed.sets] == [s.span for s in ann.sets]
        assert from_two_layer(typed) == from_two_layer(ann) == PAIN_RECORD.mentions

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            silver_type(annotate(PAIN_RECORD), ("too", "short"), Lexicon.from_entries([]))


class TestEvaluate:
    def test_perfect_prediction(self):
        gold = [PAIN_RECORD.mentions, frozenset()]
        report = evaluate(gold, gold)
        assert report.precision == report.recall == report.f1 == 1.0
        assert report.disc_f1 == 1.0
        assert report.matched == 2

    def test_empty_predictions(self):
        report = evaluate([PAIN_RECORD.mentions], [frozenset()])
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0

    def test_half_right(self):
        gold = [frozenset({Mention(((0, 1),)), Mention(((3, 4),))})]
        pred = [frozenset({Mention(((0, 1),)), Mention(((5, 5),))})]
        report = evaluate(gold, pred)
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_discontinuous_only_restriction(self):
        gold = [frozenset({Mention(((0, 1),)), Mention(((0, 0), (3, 3)))})]
        pred = [frozenset({Mention(((0, 1),))})]
        report = evaluate(gold, pred)
        assert report.recall == 0.5
        assert report.disc_recall == 0.0
        assert report.disc_predicted == 0

    def test_swapping_arguments_swaps_p_and_r(self):
        gold = [frozenset({Mention(((0, 1),)), Mention(((3, 4),))})]
        pred = [frozenset({Mention(((0, 1),))})]
        a = evaluate(gold, pred)
        b = evaluate(pred, gold)
        assert a.precision == b.recall and a.recall == b.precision

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([frozenset()], [])


class TestFormatMentions:
    def test_sorted_and_joined(self):
        text = format_mentions(PAIN_RECORD.mentions)
        assert text == "0-1;4-4|0-2"

    def test_corpus_text_layout(self):
        text = corpus_text([PAIN_RECORD])
        assert text == "pain in arms and shoulders\n0-1;4-4|0-2\n"


class TestSyntheticRecords:
    def test_fixed_length_and_compatible(self):
        records = synthetic_records(10, length=12, seed=1)
        assert all(r.n == 12 for r in records)
        kept, dropped = filter_incompatible(records)
        assert not dropped

    def test_deterministic_given_seed(self):
        assert synthetic_records(5, 8, seed=2) == synthetic_records(5, 8, seed=2)

    @pytest.mark.parametrize(
        "count, length, seed, digest",
        [
            (5, 1, 0, "03ebe46bcdb3e10b36f64d7e5b43ea1fbbf4fc4bc47ceadafe7cae3a7aae249b"),
            (20, 8, 3, "32b300891d9cc1a54e781df095a7f706644482efef4be8b4b2bc16869a14cc5d"),
            (10, 40, 0, "957850526ad0323301af4dff49ef378bd293439d741cb0adb8862993dcbbfce3"),
            (3, 128, 11, "82e807d69631bd217dbf882d11b7f0a8f04582f78cad75c61ffb55c40a8eecf0"),
        ],
    )
    def test_text_is_pinned(self, count, length, seed, digest):
        # the inputs of 'disctag bench' and of the scaling criterion
        text = corpus_text(synthetic_records(count, length, seed=seed))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
