"""Corpus I/O, filtering, silver component typing and mention-level scoring.

File formats (all UTF-8):

- **corpus**: records separated by one blank line.  Each record is two lines:
  the space-separated tokens, then the mentions.  A mention is its fragments
  ``b-e`` (0-based, inclusive) joined by ``;``; mentions are joined by ``|``;
  the line is empty when the sentence has no mentions.
- **tag file**: one space-separated tag sequence per line, aligned with the
  records of a corpus file.
- **lexicon**: one entry per line; matching is lowercased, exact, whole-word.

Each record's reason, ``None`` if encodable, comes from one grouping pass
over a corpus's mention fragments as written (:func:`_grouped`).
``disctag encode``, ``silver`` and ``train`` read a corpus file through
:func:`_read_annotations`, ``filter`` and ``stats`` keep only the reasons,
and none builds a record; :func:`filter_incompatible` and :func:`stats`
run the same pass on records.
"""

from __future__ import annotations

import gc
import itertools
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .automata import build_lattice, grammar_automaton
from .errors import INCOMPATIBLE_REASONS, LengthMismatch, ParseError
from .inference import random_well_formed
from .model import LinearScorer, predict_tags
from .scheme import (
    TAGS,
    ComponentType,
    Mention,
    MentionSet,
    SentenceAnnotation,
    TagSequence,
    TwoLayerSet,
    _annotations,
    _Grouping,
    _fragment_rows,
    _two_layer_batch,
    decode,
    encode,
    to_two_layer,
)

__all__ = [
    "CorpusRecord",
    "format_mentions",
    "corpus_text",
    "mention_lines",
    "table_text",
    "read_corpus",
    "read_tag_rows",
    "annotate",
    "filter_incompatible",
    "CorpusStats",
    "stats",
    "Lexicon",
    "silver_type",
    "EvalReport",
    "evaluate",
    "synthetic_records",
    "BenchResult",
    "benchmark_predict",
]


@dataclass(frozen=True)
class CorpusRecord:
    """One sentence: tokens and gold mentions.

    Mentions carry no component types: :func:`annotate` orients each set
    structurally, and a lexicon (:func:`silver_type`) or the partial-label
    losses settle the orientation.
    """

    tokens: tuple[str, ...]
    mentions: MentionSet

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "mentions", frozenset(self.mentions))
        for m in self.mentions:
            if m.end >= len(self.tokens):
                raise ValueError(f"mention {m} outside sentence of {len(self.tokens)} tokens")

    @property
    def n(self) -> int:
        return len(self.tokens)


def format_mentions(mentions: MentionSet) -> str:
    return "|".join(
        ";".join(f"{b}-{e}" for b, e in m.fragments) for m in sorted(mentions, key=lambda m: m.fragments)
    )


def _parse_mentions(text: str, line_no: int) -> list[tuple[tuple[int, int], ...]]:
    """The fragments ``(b, e)`` of each mention of a mention line, as written."""
    text = text.strip()
    if not text:
        return []
    mentions = []
    for chunk in text.split("|"):
        fragments = []
        for frag in chunk.split(";"):
            parts = frag.split("-")
            if len(parts) != 2:
                raise ParseError(f"bad fragment {frag!r}", line_no)
            try:
                b, e = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-numeric fragment {frag!r}", line_no) from None
            if b < 0 or e < b:
                raise ParseError(f"bad fragment range {frag!r}", line_no)
            fragments.append((b, e))
        mentions.append(tuple(fragments))
    return mentions


def _read_lines(path) -> list[str]:
    r"""The lines of a UTF-8 text file, split at ``\n``, ``\r\n`` and ``\r`` as
    ``open`` splits them; a byte that is not UTF-8 raises :class:`ParseError`
    naming its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len((data[: err.start] + b".").splitlines())
        raise ParseError(f"byte {data[err.start]:#04x} is not UTF-8", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_corpus(path) -> Iterator[tuple[list[str], list[tuple[tuple[int, int], ...]]]]:
    """Each record's tokens, and the fragments ``(b, e)`` of each of its
    mentions as written, of a corpus file, one record at a time.

    Every check of :func:`read_corpus` is made here, record by record in line
    order, so the first bad line raises its :class:`ParseError`; no record
    object is built unless a mention lies outside its sentence, to name it.
    """
    numbered = enumerate(_read_lines(path), start=1)
    for line_no, line in numbered:
        if not line.strip():
            continue
        text = next(numbered, (0, None))[1]
        if text is None:
            raise ParseError("record is missing its mention line", line_no)
        tokens = line.split()
        fragments = _parse_mentions(text, line_no + 1)
        if fragments and max(e for mention in fragments for _, e in mention) >= len(tokens):
            try:
                CorpusRecord(tokens, map(Mention, fragments))
            except ValueError as err:
                raise ParseError(str(err), line_no + 1) from None
        if next(numbered, (0, ""))[1].strip():
            raise ParseError("expected a blank line between records", line_no + 2)
        yield tokens, fragments


def _corpus_sentences(path) -> list[list[str]]:
    """Each record's tokens of a corpus file, checked as :func:`read_corpus`
    checks it, for the commands that read no mentions (``predict``, ``decode --corpus``)."""
    return [tokens for tokens, _ in _parse_corpus(path)]


def read_corpus(path) -> list[CorpusRecord]:
    """Parse a corpus file; raises :class:`ParseError` with a line number."""
    return [CorpusRecord(tokens, map(Mention, fragments)) for tokens, fragments in _parse_corpus(path)]


def mention_lines(table: np.ndarray, count: int) -> list[str]:
    """The mention line of each of ``count`` sentences from their
    :func:`~disctag.scheme.mention_table`, as :func:`format_mentions` writes it."""
    texts = [f"{b1}-{e1}" if b2 < 0 else f"{b1}-{e1};{b2}-{e2}" for _, b1, e1, b2, e2 in table.tolist()]
    cuts = np.searchsorted(table[:, 0], np.arange(count + 1)).tolist()
    return ["|".join(texts[a:b]) for a, b in zip(cuts, cuts[1:])]


def _layout(lines: Iterable[tuple[str, str]]) -> str:
    """The corpus file of records given as (token line, mention line) pairs."""
    return "\n".join(f"{tokens}\n{mentions}\n" for tokens, mentions in lines)


def corpus_text(records: Iterable[CorpusRecord]) -> str:
    return _layout((" ".join(r.tokens), format_mentions(r.mentions)) for r in records)


def table_text(sentences: Sequence[Sequence[str]], table: np.ndarray) -> str:
    """The :func:`corpus_text` of the sentences with the mentions of their
    :func:`~disctag.scheme.mention_table`, built without mention objects."""
    return _layout(zip(map(" ".join, sentences), mention_lines(table, len(sentences))))


_TAG_INDEX = {t.symbol: t.index for t in TAGS}


def read_tag_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The sequences of a tag file, one per non-blank line, as one flat array
    of tag indices and their bounds (see :func:`~disctag.scheme.as_rows`).
    An unknown symbol raises :class:`ParseError` naming its line."""
    lines = _read_lines(path)
    symbols = [row for row in map(str.split, lines) if row]
    bounds = np.zeros(len(symbols) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, symbols), dtype=np.intp, count=len(symbols)), out=bounds[1:])
    try:
        flat = np.fromiter(map(_TAG_INDEX.__getitem__, itertools.chain.from_iterable(symbols)),
                           dtype=np.intp, count=bounds[-1])
    except KeyError:
        for line_no, line in enumerate(lines, start=1):
            try:
                TagSequence.from_symbols(line)
            except KeyError as err:
                raise ParseError(str(err), line_no) from None
        raise
    return flat, bounds


def annotate(record: CorpusRecord) -> SentenceAnnotation:
    """Two-layer annotation of a record; every set is left unresolved."""
    return to_two_layer(record.mentions, record.n)


def _grouped(mentions: Sequence[Sequence[Sequence[tuple[int, int]]]]) -> tuple[_Grouping, list[str | None]]:
    """The one grouping pass over records given by their mentions' fragments
    (as written), and each record's :class:`Incompatible` reason, ``None``
    for an encodable record."""
    grouping = _two_layer_batch(*_fragment_rows(mentions))
    return grouping, [INCOMPATIBLE_REASONS[code] if code >= 0 else None for code in grouping.reason.tolist()]


def filter_incompatible(
    records: Iterable[CorpusRecord],
) -> tuple[list[tuple[CorpusRecord, SentenceAnnotation]], list[tuple[int, CorpusRecord, str]]]:
    """Split records into encodable and dropped ones, by the one grouping
    pass over all their mentions (:func:`_grouped`, which the commands run
    on a corpus file without building records).

    Returns each kept record with its :func:`annotate` annotation, and each
    dropped one as ``(position, record, reason)``: its 0-based position in
    ``records`` and the :class:`Incompatible` reason of its leftmost failing
    set.  Annotations are built for the kept records only.
    """
    records = list(records)
    grouping, reasons = _grouped([[m.fragments for m in r.mentions] for r in records])
    kept = [k for k, reason in enumerate(reasons) if reason is None]
    annotations = _annotations(grouping, [r.n for r in records], kept)
    dropped = [(k, records[k], reason) for k, reason in enumerate(reasons) if reason is not None]
    return [(records[k], ann) for k, ann in zip(kept, annotations)], dropped


def _filtered_corpus(path) -> tuple[list[tuple[str, str]], list[str | None]]:
    """Each record of a corpus file as its token line and mention line, as
    :func:`corpus_text` writes them, and its :func:`_grouped` reason: no
    record is built."""
    lines, mentions = [], []
    for tokens, fragments in _parse_corpus(path):
        lines.append((" ".join(tokens), format_mentions(frozenset(map(Mention, fragments)))))
        mentions.append(fragments)
    return lines, _grouped(mentions)[1]


def _read_annotations(path, lexicon_path=None) -> tuple[list[str | None], list[tuple[list[str], SentenceAnnotation]]]:
    """Each record's :func:`_grouped` reason of a corpus file, and the tokens
    and annotation of each encodable record, silver-typed by the lexicon at
    ``lexicon_path`` when one is given: one grouping pass over the mentions
    as written, and no record is built."""
    sentences, mentions = [], []
    for tokens, fragments in _parse_corpus(path):
        sentences.append(tokens)
        mentions.append(fragments)
    lexicon = None if lexicon_path is None else Lexicon.from_file(lexicon_path)
    grouping, reasons = _grouped(mentions)
    kept = [k for k, reason in enumerate(reasons) if reason is None]
    annotations = _annotations(grouping, list(map(len, sentences)), kept)
    if lexicon is not None:
        annotations = [silver_type(ann, sentences[k], lexicon) for k, ann in zip(kept, annotations)]
    return reasons, [(sentences[k], ann) for k, ann in zip(kept, annotations)]


@dataclass(frozen=True)
class CorpusStats:
    sentences: int
    mentions: int
    discontinuous_mentions: int
    incompatible_sentences: int


def stats(records: Sequence[CorpusRecord]) -> CorpusStats:
    return _stats([[m.fragments for m in r.mentions] for r in records])


def _stats(mentions: Sequence[Sequence[Sequence[tuple[int, int]]]]) -> CorpusStats:
    """The :func:`stats` of records given by their mentions' fragments, as
    written (``disctag stats`` reads no tokens)."""
    total = discontinuous = 0
    for fragments in mentions:
        canonical = set(map(Mention, fragments))
        total += len(canonical)
        discontinuous += sum(not m.is_continuous for m in canonical)
    reasons = _grouped(mentions)[1]
    return CorpusStats(len(mentions), total, discontinuous, len(reasons) - reasons.count(None))


@dataclass(frozen=True)
class Lexicon:
    """Lowercased words of the names of one semantic class (e.g. body parts)."""

    words: frozenset[str]

    @classmethod
    def from_entries(cls, entries: Iterable[str]) -> "Lexicon":
        return cls(frozenset(w for e in entries for w in e.lower().split()))

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        return cls.from_entries(_read_lines(path))

    def matches(self, tokens: Iterable[str]) -> bool:
        """True when any token equals any single word of any entry."""
        return any(t.lower() in self.words for t in tokens)


def silver_type(
    ann: SentenceAnnotation, tokens: Sequence[str], lexicon: Lexicon
) -> SentenceAnnotation:
    """Orient sets whose components match the lexicon; spans never change.

    A component counts as type x when at least one of its words is in the
    lexicon's word index.  Matches confined to one side of a set orient the
    whole set (a single match disambiguates it) and mark it resolved; sets
    with no match, or with matches on both sides, are left untouched for the
    partial-label path.
    """
    if len(tokens) != ann.n:
        raise LengthMismatch(f"{len(tokens)} tokens for an annotation of {ann.n} words")
    new_sets = []
    for s in ann.sets:
        matched_sides = {
            c.ctype
            for c in s.components
            if lexicon.matches(tokens[c.start : c.end + 1])
        }
        if len(matched_sides) == 1:
            side = matched_sides.pop()
            oriented = s if side is ComponentType.X else s.flipped()
            new_sets.append(TwoLayerSet(oriented.components, resolved=True))
        else:
            new_sets.append(s)
    return SentenceAnnotation(ann.n, ann.continuous, tuple(new_sets))


def _prf(matched: int, predicted: int, gold: int) -> tuple[float, float, float]:
    p = matched / predicted if predicted else 0.0
    r = matched / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    disc_precision: float
    disc_recall: float
    disc_f1: float
    gold: int
    predicted: int
    matched: int
    disc_gold: int
    disc_predicted: int
    disc_matched: int

    def summary(self) -> str:
        return (
            f"all:  P={self.precision:.4f} R={self.recall:.4f} F1={self.f1:.4f} "
            f"(gold={self.gold} pred={self.predicted} matched={self.matched})\n"
            f"disc: P={self.disc_precision:.4f} R={self.disc_recall:.4f} F1={self.disc_f1:.4f} "
            f"(gold={self.disc_gold} pred={self.disc_predicted} matched={self.disc_matched})"
        )


def evaluate(gold: Sequence[MentionSet], predicted: Sequence[MentionSet]) -> EvalReport:
    """Exact-match mention scoring, overall and on discontinuous mentions only.

    A predicted mention matches a gold one iff their canonical fragment lists
    are equal; duplicates collapse under set semantics.  Precision with no
    predictions is reported as zero.
    """
    if len(gold) != len(predicted):
        raise LengthMismatch(f"{len(gold)} gold sentences vs {len(predicted)} predicted")
    n_gold = n_pred = n_match = 0
    d_gold = d_pred = d_match = 0
    for g, p in zip(gold, predicted):
        g, p = frozenset(g), frozenset(p)
        n_gold += len(g)
        n_pred += len(p)
        n_match += len(g & p)
        gd = frozenset(m for m in g if not m.is_continuous)
        pd = frozenset(m for m in p if not m.is_continuous)
        d_gold += len(gd)
        d_pred += len(pd)
        d_match += len(gd & pd)
    precision, recall, f1 = _prf(n_match, n_pred, n_gold)
    dp, dr, df = _prf(d_match, d_pred, d_gold)
    return EvalReport(
        precision, recall, f1, dp, dr, df,
        n_gold, n_pred, n_match, d_gold, d_pred, d_match,
    )


def synthetic_records(count: int, length: int, seed: int = 0) -> list[CorpusRecord]:
    """Random fixed-length sentences with per-tag trigger tokens."""
    rng = np.random.default_rng(seed)
    lattice = build_lattice(grammar_automaton("semantic"))
    records = []
    for _ in range(count):
        mentions = decode(random_well_formed(lattice, length, rng))  # what encode(to_two_layer(mentions)) decodes to
        gold = encode(to_two_layer(mentions, length))
        tokens = tuple(f"t{t.index}w{rng.integers(3)}" for t in gold)
        records.append(CorpusRecord(tokens, mentions))
    return records


@dataclass(frozen=True)
class BenchResult:
    length: int
    median_seconds: float

    @property
    def sentences_per_second(self) -> float:
        return 1.0 / self.median_seconds if self.median_seconds else float("inf")


BENCH_DIM = 2**12  # rows of the random scorer that benchmark_predict times
BENCH_WORDS = 1024  # words per timed run of one length, in at least BENCH_BATCH sentences
BENCH_BATCH = 3


def benchmark_predict(lengths: Sequence[int], repeats: int = 5, seed: int = 0) -> list[BenchResult]:
    """Median wall-clock time of one MAP prediction per sentence length.

    Each of the ``repeats`` timed runs predicts a batch sized so that every
    length does comparable work per run, rounds are interleaved across
    lengths, and garbage collection is paused while timing; machine noise
    then spreads over all lengths instead of skewing their ratios.
    """
    rng = np.random.default_rng(seed)
    scorer = LinearScorer(dim=BENCH_DIM, params=rng.normal(0, 1.0, (BENCH_DIM, 10)))
    lengths = sorted(lengths)
    per_length = {}
    for length in lengths:
        count = max(BENCH_BATCH, BENCH_WORDS // length)
        records = synthetic_records(count, length, seed=seed + length)
        predict_tags(scorer, records[0].tokens)  # warm-up
        per_length[length] = records
    times: dict[int, list[float]] = {length: [] for length in lengths}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for length in lengths:
                records = per_length[length]
                start = time.perf_counter()
                for record in records:
                    predict_tags(scorer, record.tokens)
                times[length].append((time.perf_counter() - start) / len(records))
    finally:
        if gc_was_enabled:
            gc.enable()
    return [BenchResult(length, float(np.median(times[length]))) for length in lengths]
