"""Seeded corpus generator for the disctag benchmark.

The generator is self-contained: it builds sentence layouts (continuous
mentions and sets of discontinuous mentions with typed components), renders
tokens and writes corpus files in the documented text format.  It imports
nothing from ``disctag``, so a change to the program cannot change the
benchmark's inputs.

Every corpus has a fixed length histogram and, for each length, a fixed
sequence of set counts ``k``; the seed only shuffles sentences and draws the
layouts and tokens.  Totals that drive the cost of a command (tokens per
corpus, the sum of ``2**k``) therefore do not depend on the seed.

Each word carries its gold tag as a marker token only with some probability;
otherwise it is a filler word drawn from a Zipfian vocabulary.  A model can
therefore learn the tags but not perfectly, so F1 stays below 1.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Capacity of the FNV feature-hash cache in ``disctag.model`` (an lru_cache).
HASH_CACHE_ENTRIES = 1 << 16

_MARKER_CODE = {
    "CB": "cb", "CI": "ci", "O": "oo",
    "DB-Bx": "dbx", "DB-By": "dby", "DI-Bx": "dix", "DI-By": "diy",
    "DI-Ix": "iix", "DI-Iy": "iiy", "DI-O": "dio",
}
_MARKER_VARIANTS = 2
_LETTERS = "abcdefghijklmnopqrstuvwxy"  # markers carry a digit, fillers never do
_WORD_LETTERS = 7


@dataclass(frozen=True)
class Vocabulary:
    """Zipfian filler words: rank ``r`` has weight ``r ** -exponent``."""

    size: int
    exponent: float
    salt: int

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Ranks ``0..size-1`` by inverse-CDF sampling of the continuous power law."""
        u = rng.random(count)
        if self.exponent == 1.0:
            x = np.power(float(self.size + 1), u)
        else:
            a = 1.0 - self.exponent
            x = np.power(1.0 + u * ((self.size + 1) ** a - 1.0), 1.0 / a)
        return np.minimum(np.floor(x).astype(np.int64) - 1, self.size - 1)

    def word(self, rank: int) -> str:
        """Fixed-length spelling; a bijection of the rank for a given salt."""
        x = (rank * 2654435761 + self.salt) % len(_LETTERS) ** _WORD_LETTERS
        letters = []
        for _ in range(_WORD_LETTERS):
            x, d = divmod(x, len(_LETTERS))
            letters.append(_LETTERS[d])
        return "".join(letters)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    mentions: tuple[tuple[tuple[int, int], ...], ...]
    k: int  # number of sets of mentions (each left unresolved)


@dataclass(frozen=True)
class CorpusSpec:
    lengths: tuple[int, ...]  # one entry per sentence, before shuffling
    set_counts: tuple[int, ...]  # k per sentence, aligned with ``lengths``
    vocabulary: Vocabulary
    continuous_per_word: float  # expected continuous mentions per word
    entity_marker_p: float  # P(token is the marker) inside mentions
    outside_marker_p: float  # P(token is the marker) for O words


def _set_components(rng: np.random.Generator) -> list[str]:
    """Component types of one set, left to right: both types, at most 2 each."""
    pattern = rng.choice(["xy", "xyy", "xxy", "xyx", "xyxy", "xxyy", "xyyx"],
                         p=[0.4, 0.15, 0.15, 0.1, 0.08, 0.06, 0.06])
    if rng.random() < 0.5:  # semantic orientation: which type comes first
        pattern = pattern.translate(str.maketrans("xy", "yx"))
    return list(pattern)


def _layout(n: int, k: int, spec: CorpusSpec, rng: np.random.Generator):
    """Gold tags (sets in their semantic orientation) and mentions of one sentence.

    The sentence has ``n`` words and ``k`` sets of mentions.

    Elements are separated by at least one O word and components of a set by
    at least one gap word, so every set is a full product of its components
    and the layout is always encodable.
    """
    # Each element is a list of (kind, width) segments; kind is "x", "y",
    # "gap" or "cont".
    elements: list[list[list]] = []
    for _ in range(k):
        comps = _set_components(rng)
        segs: list[list] = []
        for i, c in enumerate(comps):
            if i:
                segs.append(["gap", 1])
            segs.append([c, 1])
        elements.append(segs)

    def used() -> int:
        return sum(w for e in elements for _, w in e) + max(len(elements) - 1, 0)

    while used() > n:  # too many components for n: shrink the largest set
        big = max(range(len(elements)), key=lambda i: len(elements[i]))
        segs = elements[big]
        drop = 2 if len(segs) > 3 else 0
        if drop:
            del segs[-drop:]
            kinds = {s[0] for s in segs if s[0] != "gap"}
            if kinds != {"x", "y"}:
                segs[-1][0] = "y" if segs[0][0] == "x" else "x"
        else:  # cannot happen for k <= (n + 1) // 4
            raise ValueError(f"{k} sets do not fit in {n} words")
    slack = n - used()
    conts = min(rng.poisson(spec.continuous_per_word * n), slack // 2)
    for _ in range(conts):
        elements.append([["cont", 1]])
    slack = n - used()
    # Widen components (1-3 words) and gaps (1-2 words) while there is room,
    # leaving some of the slack for O words.
    for _ in range(rng.binomial(slack, 0.5) if elements else 0):
        e = elements[rng.integers(len(elements))]
        seg = e[rng.integers(len(e))]
        if seg[1] < (2 if seg[0] == "gap" else 3):
            seg[1] += 1
    order = rng.permutation(len(elements))
    elements = [elements[i] for i in order]
    outside = n - sum(w for e in elements for _, w in e)
    # O words: one separator between elements, the rest spread over all slots.
    slots = np.zeros(len(elements) + 1, dtype=np.int64)
    slots[1:-1] = 1
    extra = outside - int(slots.sum())
    if extra:
        slots += rng.multinomial(extra, np.full(len(slots), 1.0 / len(slots)))

    tags: list[str] = []
    mentions: list[tuple[tuple[int, int], ...]] = []
    for slot, element in zip(slots, elements + [None]):
        tags.extend(["O"] * int(slot))
        if element is None:
            break
        start = len(tags)
        if element[0][0] == "cont":
            width = element[0][1]
            tags.extend(["CB"] + ["CI"] * (width - 1))
            mentions.append(((start, start + width - 1),))
            continue
        comps = {"x": [], "y": []}
        for kind, width in element:
            b = len(tags)
            if kind == "gap":
                tags.extend(["DI-O"] * width)
                continue
            first = "DB" if b == start else "DI"
            tags.extend([f"{first}-B{kind}"] + [f"DI-I{kind}"] * (width - 1))
            comps[kind].append((b, b + width - 1))
        for cx in comps["x"]:
            for cy in comps["y"]:
                mentions.append(tuple(sorted((cx, cy))))
    assert len(tags) == n
    return tags, mentions


def generate(spec: CorpusSpec, rng: np.random.Generator) -> list[Sentence]:
    order = rng.permutation(len(spec.lengths))
    out = []
    for idx in order:
        n, k = spec.lengths[idx], spec.set_counts[idx]
        tags, mentions = _layout(n, k, spec, rng)
        fillers = spec.vocabulary.sample(rng, n)
        marks = rng.random(n)
        variants = rng.integers(_MARKER_VARIANTS, size=n)
        tokens = []
        for i, t in enumerate(tags):
            p = spec.outside_marker_p if t == "O" else spec.entity_marker_p
            if marks[i] < p:
                tokens.append(f"{_MARKER_CODE[t]}{variants[i]}")
            else:
                tokens.append(spec.vocabulary.word(int(fillers[i])))
        out.append(Sentence(tuple(tokens), tuple(sorted(mentions)), k))
    return out


def fixed_lengths(count: int, lo: int, hi: int) -> tuple[int, ...]:
    """``count`` lengths covering ``lo..hi`` as evenly as possible."""
    span = hi - lo + 1
    return tuple(lo + (i * span) // count for i in range(count))


def stratified_lengths(count: int, lo: int, hi: int, rng: np.random.Generator) -> tuple[int, ...]:
    """One random length per equal-width stratum: all distinct when count <= span."""
    span = hi - lo + 1
    out = []
    for i in range(count):
        a = lo + math.ceil(i * span / count)
        b = lo + math.ceil((i + 1) * span / count) - 1
        out.append(int(rng.integers(a, b + 1)))
    return tuple(out)


def set_counts(
    lengths: tuple[int, ...], k_cap: int, per_word: float, power: float = 1.0
) -> tuple[int, ...]:
    """Fixed k per sentence: for each length, k runs from 0 up to its cap.

    The cap for length ``n`` is ``min(k_cap, per_word * n, (n + 1) // 4)``,
    the last term being the most sets that fit.  The ``j``-th of ``c``
    sentences of a length gets ``cap * (j / (c - 1)) ** power`` sets, so a
    larger ``power`` leaves fewer sentences near the cap.
    """
    by_length: dict[int, list[int]] = {}
    for i, n in enumerate(lengths):
        by_length.setdefault(n, []).append(i)
    out = [0] * len(lengths)
    for n, idxs in by_length.items():
        cap = min(k_cap, int(per_word * n), (n + 1) // 4)
        for j, i in enumerate(idxs):
            out[i] = round(cap * (j / (len(idxs) - 1)) ** power) if len(idxs) > 1 else cap
    return tuple(out)


def corpus_text(sentences: list[Sentence], with_mentions: bool = True) -> str:
    """Corpus file format: tokens line, mentions line, blank line."""
    blocks = []
    for s in sentences:
        mentions = "|".join(";".join(f"{b}-{e}" for b, e in m) for m in s.mentions)
        blocks.append(f"{' '.join(s.tokens)}\n{mentions if with_mentions else ''}\n")
    return "\n".join(blocks)


def write(path: Path, text: str) -> str:
    """Write a generated file and return its SHA-256."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def feature_strings(sentences: list[Sentence]) -> set[str]:
    """Distinct strings of the scorer's feature templates (word, neighbours, affixes)."""
    out: set[str] = set()
    for s in sentences:
        low = [t.lower() for t in s.tokens]
        for i, word in enumerate(low):
            out.add(f"w={word}")
            out.add(f"w-1={low[i - 1] if i > 0 else '<bos>'}")
            out.add(f"w+1={low[i + 1] if i + 1 < len(low) else '<eos>'}")
            out.add(f"pre={word[:3]}")
            out.add(f"suf={word[-3:]}")
    return out


def properties(sentences: list[Sentence]) -> dict:
    """Input properties the program's cost depends on."""
    lengths = [len(s.tokens) for s in sentences]
    ks = [s.k for s in sentences]
    hist = Counter((n // 8) * 8 for n in lengths)
    return {
        "sentences": len(sentences),
        "tokens": sum(lengths),
        "length_histogram": {f"{b}-{b + 7}": hist[b] for b in sorted(hist)},
        "distinct_lengths": len(set(lengths)),
        "k_mean": sum(ks) / len(ks),
        "k_max": max(ks),
        "members_total": sum(2**k for k in ks),
        "distinct_feature_strings": len(feature_strings(sentences)),
        "hash_cache_entries": HASH_CACHE_ENTRIES,
        "mentions": sum(len(s.mentions) for s in sentences),
        "discontinuous_mentions": sum(1 for s in sentences for m in s.mentions if len(m) > 1),
    }


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(stream.encode(), "little")])


def predict_short(seed: int) -> dict[str, list[Sentence]]:
    """~3,000 sentences of 5-40 words over a large Zipfian vocabulary.

    The vocabulary is sized so that the distinct feature strings are well
    over twice the hash cache, so feature hashing keeps missing.
    """
    vocab = Vocabulary(size=10**7, exponent=0.75, salt=seed)
    def spec(count):
        lengths = fixed_lengths(count, 5, 40)
        return CorpusSpec(lengths, set_counts(lengths, 2, 1 / 8), vocab, 1 / 12, 0.7, 0.1)
    return {
        "model-train": generate(spec(1600), _rng(seed, "model-train")),
        "input": generate(spec(3000), _rng(seed, "input")),
    }


def predict_long(seed: int) -> dict[str, list[Sentence]]:
    """120 sentences of 128-512 words, all of distinct lengths, over ~50 words."""
    vocab = Vocabulary(size=30, exponent=1.0, salt=seed)
    lengths = stratified_lengths(120, 128, 512, _rng(seed, "lengths"))
    train_lengths = fixed_lengths(300, 16, 64)
    return {
        "model-train": generate(
            CorpusSpec(train_lengths, set_counts(train_lengths, 3, 1 / 16), vocab, 1 / 16, 0.7, 0.3),
            _rng(seed, "model-train"),
        ),
        "input": generate(
            CorpusSpec(lengths, set_counts(lengths, 16, 1 / 24), vocab, 1 / 16, 0.7, 0.3),
            _rng(seed, "input"),
        ),
    }


def train_partial(seed: int) -> dict[str, list[Sentence]]:
    """800 training sentences of 8-48 words with up to 10 unresolved sets each."""
    vocab = Vocabulary(size=20_000, exponent=1.0, salt=seed)
    def spec(count):
        lengths = fixed_lengths(count, 8, 48)
        return CorpusSpec(lengths, set_counts(lengths, 10, 1 / 4, power=3.0), vocab, 1 / 16, 0.7, 0.15)
    return {
        "train": generate(spec(800), _rng(seed, "train")),
        "heldout": generate(spec(400), _rng(seed, "heldout")),
    }


GENERATORS = {
    "predict-short": predict_short,
    "predict-long": predict_long,
    "train-partial": train_partial,
}
