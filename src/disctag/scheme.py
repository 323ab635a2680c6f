"""The 10 tags and the two-layer representation of discontinuous mentions.

A sentence annotation is either flat (continuous mentions, BIO-style) or
grouped into *sets of mentions*: maximal groups of mentions that share words.
Each set is described by typed components (``x`` / ``y``), runs of words
covered by the same mentions; the mentions of the set are the Cartesian
product of its x-components with its y-components, whose sides follow from
the leftmost component.  This module provides the mapping in both directions
and the 10-tag encoding of annotations as word-level tag sequences, together
with the rule-based well-formedness check that characterises exactly the
encodable sequences.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    PARTIAL_OVERLAP,
    SPAN_CONFLICT,
    THREE_WAY_SPLIT,
    EncodingViolation,
    IllFormed,
    Incompatible,
)

__all__ = [
    "Tag",
    "TAGS",
    "NUM_TAGS",
    "CB",
    "CI",
    "O",
    "DB_BX",
    "DB_BY",
    "DI_BX",
    "DI_BY",
    "DI_IX",
    "DI_IY",
    "DI_O",
    "tag_by_symbol",
    "TagSequence",
    "is_well_formed",
    "ComponentType",
    "Mention",
    "MentionSet",
    "Component",
    "TwoLayerSet",
    "SentenceAnnotation",
    "to_two_layer",
    "from_two_layer",
    "encode",
    "encode_batch",
    "decode",
    "mention_table",
    "as_rows",
    "from_rows",
    "is_well_formed_batch",
]


@dataclass(frozen=True)
class Tag:
    """One of the 10 word-level tags, with its fixed canonical index."""

    symbol: str
    index: int

    def __repr__(self) -> str:
        return self.symbol


CB = Tag("CB", 0)
CI = Tag("CI", 1)
O = Tag("O", 2)
DB_BX = Tag("DB-Bx", 3)
DB_BY = Tag("DB-By", 4)
DI_BX = Tag("DI-Bx", 5)
DI_BY = Tag("DI-By", 6)
DI_IX = Tag("DI-Ix", 7)
DI_IY = Tag("DI-Iy", 8)
DI_O = Tag("DI-O", 9)

TAGS: tuple[Tag, ...] = (CB, CI, O, DB_BX, DB_BY, DI_BX, DI_BY, DI_IX, DI_IY, DI_O)
NUM_TAGS = len(TAGS)

_BY_SYMBOL = {t.symbol: t for t in TAGS}

# Tag indices by their part in a parse; _PART[t]: tag t opens a set (2), begins
# a continuous mention or a component (1), continues one (-1), or none (0)
_SET_OPENERS = frozenset((DB_BX.index, DB_BY.index))
_X_BEGINS = frozenset((DB_BX.index, DI_BX.index))
_Y_BEGINS = frozenset((DB_BY.index, DI_BY.index))
_PART = np.zeros(NUM_TAGS, dtype=np.int8)
_PART[[CB.index, DI_BX.index, DI_BY.index, *_SET_OPENERS]] = [1, 1, 1, 2, 2]
_PART[[CI.index, DI_IX.index, DI_IY.index]] = -1

# The six rules as tables over tag indices; row _START of a table indexed by
# the previous tag stands for the start of a sentence.
_START = NUM_TAGS
_SET_TAGS = TAGS[DB_BX.index :]  # DB-* and DI-*
_IN_SET = np.array([t in _SET_TAGS for t in (*TAGS, None)])
_FOLLOWS = {  # rules 1-3: the tags that may come before each constrained tag
    CI: (CB, CI),
    DI_BX: _SET_TAGS,
    DI_BY: _SET_TAGS,
    DI_O: _SET_TAGS,
    DI_IX: (DB_BX, DI_BX, DI_IX),
    DI_IY: (DB_BY, DI_BY, DI_IY),
}
# _BREAKS[p, t]: tag t may not follow p: rules 1-3, and rule 6 inside a
# sentence (a set span ends with DI-O iff a DI-O is followed by no DI-*)
_BREAKS = np.array([[t in _FOLLOWS and p not in _FOLLOWS[t] for t in TAGS] for p in (*TAGS, None)])
_BREAKS[DI_O.index, : DI_BX.index] = True  # CB, CI, O and DB-* after DI-O
# _OPENS[p, t]: set tag t after p starts a set span (at a DB-*, or after no set tag)
_OPENS = np.array([[t in _SET_OPENERS or not _IN_SET[p] for t in range(NUM_TAGS)] for p in range(NUM_TAGS + 1)])
# per tag, what a set span counts: x begins, y begins and gap words, capped at
# 2, 2 and 1; _SPAN_BREAKS[x, y, gaps]: such a span breaks rule 4 or 5
_SPAN_COUNTS = np.array(
    [[t in _X_BEGINS, t in _Y_BEGINS, t == DI_O.index] for t in range(NUM_TAGS)], dtype=np.int32
)
_SPAN_CAP = np.array([2, 2, 1], dtype=np.int32)
_SPAN_BREAKS = np.ones((3, 3, 2), dtype=bool)
_SPAN_BREAKS[1:, 1:] = False
_SPAN_BREAKS[1, 1, 0] = True  # two components without a gap: one continuous mention


def tag_by_symbol(symbol: str) -> Tag:
    try:
        return _BY_SYMBOL[symbol]
    except KeyError:
        raise KeyError(f"unknown tag symbol: {symbol!r}") from None


@dataclass(frozen=True)
class TagSequence:
    """An assignment of one tag per word of a sentence."""

    tags: tuple[Tag, ...]

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(self.tags))
        for t in self.tags:
            if not isinstance(t, Tag):
                raise TypeError(f"not a Tag: {t!r}")

    @classmethod
    def from_symbols(cls, symbols: str | Iterable[str]) -> "TagSequence":
        if isinstance(symbols, str):
            symbols = symbols.split()
        return cls(tuple(tag_by_symbol(s) for s in symbols))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "TagSequence":
        return cls(tuple(TAGS[int(i)] for i in indices))

    @property
    def indices(self) -> np.ndarray:
        return np.fromiter((t.index for t in self.tags), dtype=np.int64, count=len(self.tags))

    def symbols(self) -> str:
        return " ".join(t.symbol for t in self.tags)

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self):
        return iter(self.tags)

    def __getitem__(self, i):
        return self.tags[i]

    def __repr__(self) -> str:
        return f"TagSequence({self.symbols()!r})"


def as_rows(sequences: Iterable[Sequence[Tag] | TagSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Tag sequences as one flat array of tag indices and the ``len + 1``
    bounds of the sequences in it: sequence ``k`` is ``flat[bounds[k]:bounds[k + 1]]``."""
    sequences = list(sequences)
    bounds = np.zeros(len(sequences) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences)), out=bounds[1:])
    flat = np.fromiter((t.index for tags in sequences for t in tags), dtype=np.intp, count=bounds[-1])
    return flat, bounds


def from_rows(flat: np.ndarray, bounds: np.ndarray) -> list[TagSequence]:
    """The tag sequences of a batch given as by :func:`as_rows`."""
    flat, bounds = np.asarray(flat).tolist(), np.asarray(bounds).tolist()
    return [TagSequence.from_indices(flat[a:b]) for a, b in itertools.pairwise(bounds)]


def is_well_formed_batch(flat: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Rule-based well-formedness of each sequence of a batch (see :func:`as_rows`).

    A sequence is well-formed iff:

    1. every CI is preceded by CB or CI;
    2. every DI-* is preceded by DB-* or DI-*;
    3. every *-Ix is preceded by *-Bx or *-Ix (same for y);
    4. every set span contains at least one *-Bx and one *-By;
    5. no set span reconstructs to a single continuous mention (exactly two
       components with no gap between them);
    6. no set span ends with DI-O.

    A set span is a DB-* and the DI-* tags after it.  Rules 1-3 and 6 are
    checked on each pair of neighbouring tags (and on each sequence's first
    and last tag); rules 4 and 5 on each span's counts, summed by one
    ``np.add.reduceat``.  A run of DB-*/DI-* tags is also cut at the start of
    each sequence, so no sequence's verdict depends on its neighbours.
    """
    flat = np.asarray(flat)
    bounds = np.asarray(bounds, dtype=np.intp)
    prev = np.empty(len(flat) + 1, dtype=np.int8)
    prev[1:] = flat
    prev[bounds[:-1]] = _START
    prev = prev[:-1]
    bad = _BREAKS[prev, flat]  # per word
    starts, ends = bounds[:-1], bounds[1:]
    filled = starts < ends
    starts, ends = starts[filled], ends[filled]
    bad[ends - 1] |= flat[ends - 1] == DI_O.index  # rule 6 at the end of a sentence
    words = _IN_SET[flat].nonzero()[0]  # rules 4 and 5, per set span
    if len(words):
        tags = flat[words]
        heads = _OPENS[prev[words], tags].nonzero()[0]
        counts = np.add.reduceat(_SPAN_COUNTS[tags], heads, axis=0, dtype=np.int32)
        np.minimum(counts, _SPAN_CAP, out=counts)
        bad[words[heads]] |= _SPAN_BREAKS[counts[:, 0], counts[:, 1], counts[:, 2]]
    out = np.ones(len(bounds) - 1, dtype=bool)
    if len(starts):
        out[filled] = ~np.logical_or.reduceat(bad, starts)
    return out


def is_well_formed(tags: Sequence[Tag] | TagSequence) -> bool:
    """Whether one sequence keeps the six rules of :func:`is_well_formed_batch`."""
    return bool(is_well_formed_batch(*as_rows([tags]))[0])


class ComponentType(enum.Enum):
    X = "x"
    Y = "y"

    @property
    def flipped(self) -> "ComponentType":
        return ComponentType.Y if self is ComponentType.X else ComponentType.X

    def __repr__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Mention:
    """A mention given by its word-index fragments (inclusive intervals).

    Fragments are canonicalised on construction: sorted, and any two
    overlapping or adjacent fragments are merged, so that equality of
    mentions is equality of their word sets.
    """

    fragments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        frags = sorted((int(b), int(e)) for b, e in self.fragments)
        if not frags:
            raise ValueError("a mention needs at least one fragment")
        merged: list[tuple[int, int]] = []
        for b, e in frags:
            if b < 0 or e < b:
                raise ValueError(f"bad fragment [{b}, {e}]")
            if merged and b <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((b, e))
        object.__setattr__(self, "fragments", tuple(merged))

    @property
    def is_continuous(self) -> bool:
        return len(self.fragments) == 1

    @property
    def start(self) -> int:
        return self.fragments[0][0]

    @property
    def end(self) -> int:
        return self.fragments[-1][1]

    def __repr__(self) -> str:
        return "Mention(%s)" % ";".join(f"{b}-{e}" for b, e in self.fragments)


MentionSet = frozenset  # frozenset[Mention]


@dataclass(frozen=True, order=True)
class Component:
    """A maximal contiguous word run inside a set span, typed x or y."""

    start: int
    end: int
    ctype: ComponentType

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class TwoLayerSet:
    """A set of mentions: typed components plus implicit gaps.

    ``resolved`` records whether the x/y orientation is semantically grounded
    (by :func:`disctag.corpus.silver_type`, or by a caller that builds the set
    from gold types) as opposed to an arbitrary structural choice; it
    determines whether the set contributes a latent flip during
    weakly-supervised training.
    """

    components: tuple[Component, ...]
    resolved: bool = False

    def __post_init__(self):
        comps = tuple(sorted(self.components))
        object.__setattr__(self, "components", comps)
        if len(comps) < 2:
            raise ValueError("a set of mentions needs at least two components")
        for a, b in itertools.pairwise(comps):
            if b.start <= a.end:
                raise ValueError(f"components overlap: {a} / {b}")
        types = {c.ctype for c in comps}
        if types != {ComponentType.X, ComponentType.Y}:
            raise ValueError("a set needs at least one x and one y component")

    @property
    def span(self) -> tuple[int, int]:
        return (self.components[0].start, self.components[-1].end)

    @property
    def gaps(self) -> tuple[int, ...]:
        covered = set()
        for c in self.components:
            covered.update(range(c.start, c.end + 1))
        b, e = self.span
        return tuple(w for w in range(b, e + 1) if w not in covered)

    def flipped(self) -> "TwoLayerSet":
        return TwoLayerSet(
            tuple(Component(c.start, c.end, c.ctype.flipped) for c in self.components),
            resolved=self.resolved,
        )

    def with_orientation(self, leftmost: ComponentType, resolved: bool) -> "TwoLayerSet":
        out = self if self.components[0].ctype is leftmost else self.flipped()
        return TwoLayerSet(out.components, resolved=resolved)


@dataclass(frozen=True)
class SentenceAnnotation:
    """Two-layer annotation of one sentence of ``n`` words."""

    n: int
    continuous: tuple[Mention, ...] = ()
    sets: tuple[TwoLayerSet, ...] = ()

    def __post_init__(self):
        cont = tuple(sorted(self.continuous))
        sets = tuple(sorted(self.sets, key=lambda s: s.span))
        object.__setattr__(self, "continuous", cont)
        object.__setattr__(self, "sets", sets)
        spans = sorted(
            [(m.start, m.end) for m in cont] + [s.span for s in sets]
        )
        for m in cont:
            if not m.is_continuous:
                raise ValueError(f"not a continuous mention: {m}")
        for b, e in spans:
            if b < 0 or e >= self.n:
                raise ValueError(f"span [{b}, {e}] outside sentence of {self.n} words")
        for (_, e1), (b2, _) in itertools.pairwise(spans):
            if b2 <= e1:
                raise ValueError(f"annotation elements overlap near word {b2}")

    def structural(self) -> "SentenceAnnotation":
        """Canonical orientation: every set's leftmost component typed x."""
        return SentenceAnnotation(
            self.n,
            self.continuous,
            tuple(s.with_orientation(ComponentType.X, resolved=True) for s in self.sets),
        )


def to_two_layer(mentions: Iterable[Mention], n: int) -> SentenceAnnotation:
    """Group a mention set into the two-layer representation.

    A component is a maximal run of words covered by the same mentions; a
    set grows from each leftmost component not yet seen, through the
    components its mentions touch, and a mention alone on its component is
    a standalone continuous mention.  Mention spans carry no component
    types, so the orientation is structural: the components that share a
    mention with the leftmost one are typed y, the rest x, and the set is
    left unresolved.  :func:`disctag.corpus.silver_type` orients sets afterwards.

    Raises :class:`Incompatible` when the mention set has no tag encoding.
    """
    ms = sorted(set(mentions))
    for m in ms:
        if m.end >= n:
            raise ValueError(f"mention {m} outside sentence of {n} words")
    cover: dict[int, list[int]] = {}  # word -> the sorted ids of the mentions covering it
    for i, m in enumerate(ms):
        for b, e in m.fragments:
            for w in range(b, e + 1):
                cover.setdefault(w, []).append(i)
    spans: list[list[int]] = []
    owners: list[list[int]] = []
    for w in sorted(cover):
        if owners and owners[-1] == cover[w] and spans[-1][1] == w - 1:
            spans[-1][1] = w
        else:
            spans.append([w, w])
            owners.append(cover[w])
    touched: list[list[int]] = [[] for _ in ms]  # per mention, its components in word order
    for c, ids in enumerate(owners):
        for i in ids:
            touched[i].append(c)

    continuous: list[Mention] = []
    sets: list[TwoLayerSet] = []
    seen: set[int] = set()
    for first in range(len(owners)):
        if first in seen:
            continue
        comps, members = {first}, list(owners[first])
        for i in members:  # the list grows as the walk reaches new components
            for c in touched[i]:
                if c not in comps:
                    comps.add(c)
                    members.extend(j for j in owners[c] if j not in members)
        seen |= comps
        if len(comps) == 1:
            continuous.append(ms[members[0]])
            continue
        for i in sorted(members):
            if len(touched[i]) >= 3:
                raise Incompatible(THREE_WAY_SPLIT, f"mention {ms[i]} splits into {len(touched[i])} components")
            if len(touched[i]) < 2:
                raise Incompatible(PARTIAL_OVERLAP, f"mention {ms[i]} is entirely shared")
        # a mention covers whole components and distinct mentions cover
        # distinct words, so a count checks the full product
        y = {touched[i][1] for i in owners[first]}
        one_of_each = all((a in y) != (b in y) for a, b in (touched[i] for i in members))
        if not one_of_each or len(members) != (len(comps) - len(y)) * len(y):
            raise Incompatible(PARTIAL_OVERLAP, "mention set is not a full product of its components")
        sets.append(
            TwoLayerSet(
                tuple(Component(*spans[c], ComponentType.Y if c in y else ComponentType.X) for c in sorted(comps))
            )
        )
    try:
        return SentenceAnnotation(n, tuple(continuous), tuple(sets))
    except ValueError as err:  # the mentions are inside the sentence: elements overlap
        raise Incompatible(SPAN_CONFLICT, str(err)) from None


def from_two_layer(ann: SentenceAnnotation) -> MentionSet:
    """Rebuild the mention set: Cartesian product of x- and y-components."""
    out = set(ann.continuous)
    for s in ann.sets:
        xs = [c.interval for c in s.components if c.ctype is ComponentType.X]
        ys = [c.interval for c in s.components if c.ctype is ComponentType.Y]
        for cx, cy in itertools.product(xs, ys):
            out.add(Mention((cx, cy)))
    return frozenset(out)


def encode(ann: SentenceAnnotation) -> TagSequence:
    """Tag encoding of an annotation.

    Continuous mentions become ``CB CI*``; inside a set span the first word is
    ``DB-B<type>``, later component starts ``DI-B<type>``, continuations
    ``DI-I<type>`` and gap words ``DI-O``; everything else is ``O``.
    """
    return encode_batch([ann])[0]


def encode_batch(anns: Iterable[SentenceAnnotation]) -> list[TagSequence]:
    """The :func:`encode` of each annotation, checked by one
    :func:`is_well_formed_batch` call.

    Raises :class:`EncodingViolation`, naming the first annotation's tags
    that break a rule.
    """
    out = []
    for ann in anns:
        tags: list[Tag] = [O] * ann.n
        for m in ann.continuous:
            b, e = m.fragments[0]
            tags[b] = CB
            for w in range(b + 1, e + 1):
                tags[w] = CI
        for s in ann.sets:
            span_b, span_e = s.span
            for w in range(span_b, span_e + 1):
                tags[w] = DI_O
            for c in s.components:
                if c.ctype is ComponentType.X:
                    begin, inside = (DB_BX if c.start == span_b else DI_BX), DI_IX
                else:
                    begin, inside = (DB_BY if c.start == span_b else DI_BY), DI_IY
                tags[c.start] = begin
                for w in range(c.start + 1, c.end + 1):
                    tags[w] = inside
        out.append(TagSequence(tuple(tags)))
    ok = is_well_formed_batch(*as_rows(out))
    if not ok.all():
        ts = out[int(np.argmin(ok))]
        raise EncodingViolation(f"annotation encodes to an ill-formed sequence: {ts.symbols()}")
    return out


def _components(flat: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per continuous mention and set component of a batch (see :func:`as_rows`),
    in order: its sentence, first and last word, begin tag, and set (the DB-*
    tags up to it).  Raises :class:`IllFormed`, naming the first sequence that
    fails the one :func:`is_well_formed_batch` check."""
    flat = np.asarray(flat)
    bounds = np.asarray(bounds, dtype=np.intp)
    ok = is_well_formed_batch(flat, bounds)
    if not ok.all():
        k = int(np.argmin(ok))
        raise IllFormed(" ".join(TAGS[t].symbol for t in flat[bounds[k] : bounds[k + 1]].tolist()))
    part = _PART[flat]
    begins = (part > 0).nonzero()[0]  # array methods: a batch of one pays less per call
    # an element ends before the next tag that does not continue it; no
    # well-formed sequence starts with CI or DI-I*, so it ends in its sentence
    stops = np.concatenate(((part >= 0).nonzero()[0], [len(flat)]))
    ends = stops[stops.searchsorted(begins, side="right")] - 1
    sentence = bounds.searchsorted(begins, side="right") - 1
    offset = bounds[sentence]
    return sentence, begins - offset, ends - offset, flat[begins], (part[begins] == 2).cumsum()


def mention_table(flat: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The mentions of a batch (see :func:`as_rows`) as rows ``(sentence, b1,
    e1, b2, e2)`` of their fragments, ``b2 = e2 = -1`` for a single one.

    A set's mentions are the product of its x and y components; a pair that
    touches is one fragment.  Rows are sorted (-1 first), the order of
    :func:`~disctag.corpus.format_mentions`.  Raises as :func:`_components`."""
    sentence, start, end, tags, sets = _components(flat, bounds)
    x = _SPAN_COUNTS[tags, 0].nonzero()[0]
    y = _SPAN_COUNTS[tags, 1].nonzero()[0]
    # each x component pairs with the y components of its set, a run of y
    first = sets[y].searchsorted(sets[x])
    pairs = sets[y].searchsorted(sets[x], side="right") - first
    xs = x.repeat(pairs)
    ys = y[(first - pairs.cumsum() + pairs).repeat(pairs) + np.arange(len(xs))]
    # elements are in word order; a continuous mention pairs with itself
    cont = (tags == CB.index).nonzero()[0]
    lo = np.concatenate((cont, np.minimum(xs, ys)))
    hi = np.concatenate((cont, np.maximum(xs, ys)))
    b1, e1, b2, e2 = start[lo], end[lo], start[hi], end[hi]
    one = (lo == hi) | (e1 + 1 == b2)
    e1[one] = e2[one]
    b2[one] = e2[one] = -1
    # by element; a touching pair last, as its first fragment ends later
    order = np.lexsort((hi, one, lo))
    return np.array((sentence[lo], b1, e1, b2, e2)).T[order]


def decode(ts: TagSequence | Sequence[Tag]) -> MentionSet:
    """Mention set denoted by a well-formed tag sequence, from the rows of
    its :func:`mention_table`.  Raises :class:`IllFormed` if the sequence
    breaks any rule; decoding never guesses."""
    table = mention_table(*as_rows([ts])).tolist()
    return frozenset(Mention(((b1, e1),) if b2 < 0 else ((b1, e1), (b2, e2))) for _, b1, e1, b2, e2 in table)
