"""Checked-in golden files pin the external formats bit for bit."""

from pathlib import Path

from disctag.automata import export_text, grammar_automaton, minimize
from disctag.corpus import annotate, corpus_text, read_corpus
from disctag.scheme import decode, encode

from conftest import read_tag_file, write_tag_file

DATA = Path(__file__).parent / "data"


def test_golden_corpus_is_a_fixed_point():
    path = DATA / "golden_corpus.txt"
    records = read_corpus(path)
    assert len(records) == 3
    assert corpus_text(records) == path.read_text(encoding="utf-8")


def test_golden_tags_align_with_golden_corpus(tmp_path):
    records = read_corpus(DATA / "golden_corpus.txt")
    sequences = read_tag_file(DATA / "golden_tags.txt")
    assert [encode(annotate(r)).tags for r in records] == [ts.tags for ts in sequences]
    assert [decode(ts) for ts in sequences] == [r.mentions for r in records]
    out = tmp_path / "tags.txt"
    write_tag_file(sequences, out)
    assert out.read_text(encoding="utf-8") == (DATA / "golden_tags.txt").read_text(encoding="utf-8")


def test_golden_automaton_export():
    automaton = minimize(grammar_automaton("structural"))
    expected = (DATA / "golden_structural_automaton.txt").read_text(encoding="utf-8")
    assert export_text(automaton) == expected
