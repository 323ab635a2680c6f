import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    mention_lines,
    read_corpus,
    read_tag_rows,
    silver_type,
    stats,
    synthetic_records,
    table_text,
)
from disctag.errors import Incompatible, LengthMismatch, ParseError
from disctag.scheme import ComponentType, Mention, TagSequence, as_rows, encode, from_two_layer, mention_table

from conftest import MIXED_CORPUS, MIXED_DROPPED, read_corpus_reference, read_tag_file, write_corpus, write_tag_file

GOLDEN = """pain in arms and shoulders
0-1;2-2|0-1;4-4

it hurts
"""


# Pieces of random corpus files: words and the Unicode whitespace between
# them (str.split splits at all of it, lines break only at \n, \r\n and \r);
# fragments that parse in a sentence of three or more words, among them the
# signs and non-ASCII digits that int() accepts, and ones that are bad,
# non-numeric, reversed or outside the sentence.
WORDS = ["a", "pain", "\u0130", "\u65e5\u672c", "e\u0301"]
SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000"]
GOOD_FRAGMENTS = ["0-0", "1-2", "0-1", "2-2", " 1-1 ", "+1-1", "0-+2", "\u0661-\u0662", "\uff11-\uff11"]
BAD_FRAGMENTS = ["2-1", "1", "1-2-3", "", "-", "x-1", "0-x", "0-9", "3_0-40", "1_0-2"]
BLANKS = ["", " ", "\t", "\u3000", "\x1c"]
NEWLINES = ["\n", "\r\n", "\r"]


def _mention_line(fragments):
    return st.lists(st.lists(st.sampled_from(fragments), min_size=1, max_size=3).map(";".join),
                    max_size=3).map("|".join)


@st.composite
def corpus_files(draw) -> bytes:
    """A corpus file of records with 0-2 blank lines after each (so some
    lack their blank line), perhaps cut after any line, with mixed line ends
    and perhaps none after the last line (so the last record may lack its
    mention line); one mention line in eight may hold bad fragments, and one
    file in eight a byte that is not UTF-8."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        words = draw(st.lists(st.tuples(st.sampled_from(SPACES), st.sampled_from(WORDS)), min_size=1, max_size=5))
        bad = draw(st.integers(0, 7)) == 0
        lines.append("".join(space + word for space, word in words))
        lines.append(draw(_mention_line(GOOD_FRAGMENTS + BAD_FRAGMENTS if bad else GOOD_FRAGMENTS)))
        lines += draw(st.lists(st.sampled_from(BLANKS), max_size=2))
    if lines and draw(st.integers(0, 3)) == 0:
        lines = lines[: draw(st.integers(0, len(lines) - 1)) + 1]
    data = b"".join((line + draw(st.sampled_from(NEWLINES))).encode("utf-8") for line in lines)
    if data and draw(st.booleans()):
        data = data.removesuffix(b"\n").removesuffix(b"\r")  # a last line without its line end
    if data and draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _outcome(read, path):
    try:
        return read(path)
    except ParseError as err:
        return str(err), err.line


class TestCorpusIO:
    @settings(max_examples=300, deadline=None)
    @given(corpus_files())
    @example(b"a b\n0-0\nc d\n1-1\n")  # missing blank line
    @example(b"a b\n0-0\n\nc d")  # missing mention line
    @example("a b c\n+1-1|\u0661-\u0662|3_0-40\n".encode("utf-8"))  # int() reads all three; 3_0 is 30
    @example("a\u00a0b\x1cc\r\n0-2\r\rd\u3000e\r1-1\r".encode("utf-8"))  # Unicode whitespace, CRLF and CR
    @example(b"a b\n2-1|x-1\n")  # reversed, then non-numeric: the first is named
    @example(b"a b\n0-9;0-0|x\n")  # a bad fragment after one out of range
    @example(b"a b\n0-1\n\n\xff\n")
    def test_records_or_error_match_the_reference(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("parse") / "corpus.txt"
        path.write_bytes(data)
        assert _outcome(read_corpus, path) == _outcome(read_corpus_reference, path)


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
        for read in (read_corpus, read_tag_file, read_tag_rows, Lexicon.from_file):
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

    def test_tag_rows_skip_blank_lines(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("\nO CB CI\n \t\nDB-Bx  DI-O DI-By\nO\n\n", encoding="utf-8")
        flat, bounds = read_tag_rows(path)
        want = [TagSequence.from_symbols(s) for s in ("O CB CI", "DB-Bx DI-O DI-By", "O")]
        assert flat.dtype == bounds.dtype == np.intp
        assert flat.tolist() == [t.index for ts in want for t in ts] and bounds.tolist() == [0, 3, 6, 7]
        assert read_tag_file(path) == want

    def test_tag_file_unknown_symbol(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("O CB\n\nO DB-O\nO XX\n", encoding="utf-8")
        for read in (read_tag_file, read_tag_rows):
            with pytest.raises(ParseError) as err:
                read(path)
            assert err.value.line == 3
            assert str(err.value) == "line 3: \"unknown tag symbol: 'DB-O'\""


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
        assert dropped == [(0, INCOMPATIBLE, "three-way-split")]

    def test_counts_per_reason_on_mixed_corpus(self):
        good = synthetic_records(4, length=6, seed=3)
        partial = CorpusRecord(
            ("a", "b", "c", "d"), frozenset({Mention(((0, 3),)), Mention(((1, 3),))})
        )
        records = good + [INCOMPATIBLE, partial]
        kept, dropped = filter_incompatible(records)
        assert [record for record, _ in kept] == good
        assert dropped == [(4, INCOMPATIBLE, "three-way-split"), (5, partial, "partial-overlap")]

    def test_filter_is_idempotent(self):
        records = synthetic_records(5, length=8, seed=9) + [INCOMPATIBLE]
        kept, _ = filter_incompatible(records)
        again, dropped = filter_incompatible(record for record, _ in kept)
        assert again == kept and not dropped

    def test_positions_reasons_and_annotations(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text(MIXED_CORPUS, encoding="utf-8")
        records = read_corpus(path)
        kept, dropped = filter_incompatible(records)
        assert [(position, reason) for position, _, reason in dropped] == MIXED_DROPPED
        for position, record, reason in dropped:
            assert record is records[position]
            with pytest.raises(Incompatible) as err:
                annotate(record)
            assert err.value.reason == reason
        positions = {position for position, _ in MIXED_DROPPED}
        assert [record for record, _ in kept] == [r for i, r in enumerate(records) if i not in positions]
        assert [ann for _, ann in kept] == [annotate(record) for record, _ in kept]

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

    def test_table_text_equals_corpus_text(self):
        # the text written from the mention table of the records' tag sequences
        records = synthetic_records(40, length=9, seed=6) + synthetic_records(3, length=1, seed=6) + [
            CorpusRecord(tuple("abcdefg"), {Mention(((0, 0), (2, 2))), Mention(((0, 0), (6, 6))),
                                           Mention(((4, 4), (2, 2))), Mention(((4, 4), (6, 6)))}),
            CorpusRecord(("no", "mention"), ()),
        ]
        sequences = [encode(annotate(r)) for r in records]
        table = mention_table(*as_rows(sequences))
        assert table_text([r.tokens for r in records], table) == corpus_text(records)
        assert mention_lines(table, len(records)) == [format_mentions(r.mentions) for r in records]
        assert table_text([], mention_table(*as_rows([]))) == corpus_text([]) == ""


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
