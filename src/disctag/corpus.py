"""Corpus I/O, filtering, silver component typing and mention-level scoring.

File formats (all UTF-8):

- **corpus**: records separated by one blank line.  Each record is two lines:
  the space-separated tokens, then the mentions.  A mention is its fragments
  ``b-e`` (0-based, inclusive) joined by ``;``; mentions are joined by ``|``;
  the line is empty when the sentence has no mentions.
- **tag file**: one space-separated tag sequence per line, aligned with the
  records of a corpus file.
- **lexicon**: one entry per line; matching is lowercased, exact, whole-word.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .automata import build_lattice, grammar_automaton
from .errors import Incompatible, LengthMismatch, ParseError
from .inference import random_well_formed
from .model import LinearScorer, predict_tags
from .scheme import (
    ComponentType,
    Mention,
    MentionSet,
    SentenceAnnotation,
    TagSequence,
    TwoLayerSet,
    decode,
    encode,
    to_two_layer,
)

__all__ = [
    "CorpusRecord",
    "format_mentions",
    "corpus_text",
    "read_corpus",
    "write_corpus",
    "read_tag_file",
    "write_tag_file",
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
        ";".join(f"{b}-{e}" for b, e in m.fragments) for m in sorted(mentions)
    )


def _parse_mentions(text: str, line_no: int) -> MentionSet:
    text = text.strip()
    if not text:
        return frozenset()
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
        mentions.append(Mention(tuple(fragments)))
    return frozenset(mentions)


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


def read_corpus(path) -> list[CorpusRecord]:
    """Parse a corpus file; raises :class:`ParseError` with a line number."""
    lines = _read_lines(path)
    records = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        tokens = tuple(lines[i].split())
        if i + 1 >= len(lines):
            raise ParseError("record is missing its mention line", i + 1)
        mentions = _parse_mentions(lines[i + 1], i + 2)
        try:
            records.append(CorpusRecord(tokens, mentions))
        except ValueError as err:
            raise ParseError(str(err), i + 2) from None
        i += 2
        if i < len(lines) and lines[i].strip():
            raise ParseError("expected a blank line between records", i + 1)
    return records


def corpus_text(records: Iterable[CorpusRecord]) -> str:
    return "\n".join(
        f"{' '.join(r.tokens)}\n{format_mentions(r.mentions)}\n" for r in records
    )


def write_corpus(records: Iterable[CorpusRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(corpus_text(records))


def read_tag_file(path) -> list[TagSequence]:
    out = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            out.append(TagSequence.from_symbols(line))
        except KeyError as err:
            raise ParseError(str(err), line_no) from None
    return out


def write_tag_file(sequences: Iterable[TagSequence], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ts in sequences:
            handle.write(ts.symbols() + "\n")


def annotate(record: CorpusRecord) -> SentenceAnnotation:
    """Two-layer annotation of a record; every set is left unresolved."""
    return to_two_layer(record.mentions, record.n)


def filter_incompatible(
    records: Iterable[CorpusRecord],
) -> tuple[list[CorpusRecord], list[tuple[CorpusRecord, str]]]:
    """Split records into encodable ones and dropped ones with reasons."""
    kept, dropped = [], []
    for record in records:
        try:
            annotate(record)
        except Incompatible as err:
            dropped.append((record, err.reason))
        else:
            kept.append(record)
    return kept, dropped


@dataclass(frozen=True)
class CorpusStats:
    sentences: int
    mentions: int
    discontinuous_mentions: int
    incompatible_sentences: int


def stats(records: Sequence[CorpusRecord]) -> CorpusStats:
    _, dropped = filter_incompatible(records)
    return CorpusStats(
        sentences=len(records),
        mentions=sum(len(r.mentions) for r in records),
        discontinuous_mentions=sum(
            1 for r in records for m in r.mentions if not m.is_continuous
        ),
        incompatible_sentences=len(dropped),
    )


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
    lattice = build_lattice(grammar_automaton("semantic"), length)
    records = []
    for _ in range(count):
        seq = random_well_formed(lattice, rng)
        gold = encode(to_two_layer(decode(seq), length))
        tokens = tuple(f"t{t.index}w{rng.integers(3)}" for t in gold)
        records.append(CorpusRecord(tokens, decode(gold)))
    return records


@dataclass(frozen=True)
class BenchResult:
    length: int
    median_seconds: float

    @property
    def sentences_per_second(self) -> float:
        return 1.0 / self.median_seconds if self.median_seconds else float("inf")


def benchmark_predict(
    lengths: Sequence[int],
    repeats: int = 5,
    seed: int = 0,
    scorer: LinearScorer | None = None,
    mode: str = "semantic",
    batch: int = 3,
) -> list[BenchResult]:
    """Median wall-clock time of one MAP prediction per sentence length.

    Each of the ``repeats`` timed runs predicts a batch sized so that every
    length does comparable work per run, rounds are interleaved across
    lengths, and garbage collection is paused while timing; machine noise
    then spreads over all lengths instead of skewing their ratios.
    """
    if scorer is None:
        rng = np.random.default_rng(seed)
        scorer = LinearScorer(dim=2**12, params=rng.normal(0, 1.0, (2**12, 10)))
    lengths = sorted(lengths)
    per_length = {}
    for length in lengths:
        count = max(batch, 1024 // length)
        records = synthetic_records(count, length, seed=seed + length)
        predict_tags(scorer, records[0].tokens, mode)  # warm-up
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
                    predict_tags(scorer, record.tokens, mode)
                times[length].append((time.perf_counter() - start) / len(records))
    finally:
        if gc_was_enabled:
            gc.enable()
    return [BenchResult(length, float(np.median(times[length]))) for length in lengths]
