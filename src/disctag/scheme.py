"""The 10 tags and the two-layer representation of discontinuous mentions.

A sentence annotation is either flat (continuous mentions, BIO-style) or
grouped into *sets of mentions*: maximal groups of mentions that share words.
Each set is described by typed components (``x`` / ``y``); the mentions of the
set are recovered as the Cartesian product of its x-components with its
y-components.  This module provides the mapping in both directions and the
10-tag encoding of annotations as word-level tag sequences, together with the
rule-based well-formedness check that characterises exactly the encodable
sequences.
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
    "is_structural",
    "ComponentType",
    "Mention",
    "MentionSet",
    "Component",
    "TwoLayerSet",
    "SentenceAnnotation",
    "to_two_layer",
    "from_two_layer",
    "encode",
    "decode",
    "decode_annotation",
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

# Tag families used by the well-formedness rules.
_SET_TAGS = frozenset((DB_BX, DB_BY, DI_BX, DI_BY, DI_IX, DI_IY, DI_O))
_SET_START = frozenset((DB_BX, DB_BY))
_SET_INSIDE = frozenset((DI_BX, DI_BY, DI_IX, DI_IY, DI_O))
_COMPONENT_BEGIN = frozenset((DB_BX, DB_BY, DI_BX, DI_BY))

# Allowed predecessor per tag (rules 1-3); tags absent here accept anything.
_ALLOWED_PREV = {
    CI: frozenset((CB, CI)),
    DI_BX: _SET_TAGS,
    DI_BY: _SET_TAGS,
    DI_O: _SET_TAGS,
    DI_IX: frozenset((DB_BX, DI_BX, DI_IX)),
    DI_IY: frozenset((DB_BY, DI_BY, DI_IY)),
}


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

    def one_hot(self) -> np.ndarray:
        """Binary view: one row per word, one column per tag, single 1 per row."""
        out = np.zeros((len(self.tags), NUM_TAGS))
        if self.tags:
            out[np.arange(len(self.tags)), self.indices] = 1.0
        return out

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


def _set_spans(tags: Sequence[Tag]) -> list[tuple[int, int]]:
    """Half-open index ranges of the maximal set spans (DB-* followed by DI-*)."""
    spans = []
    i, n = 0, len(tags)
    while i < n:
        if tags[i] in _SET_START:
            j = i + 1
            while j < n and tags[j] in _SET_INSIDE:
                j += 1
            spans.append((i, j))
            i = j
        else:
            i += 1
    return spans


def is_well_formed(tags: Sequence[Tag] | TagSequence) -> bool:
    """Rule-based well-formedness check.

    A sequence is well-formed iff:

    1. every CI is preceded by CB or CI;
    2. every DI-* is preceded by DB-* or DI-*;
    3. every *-Ix is preceded by *-Bx or *-Ix (same for y);
    4. every set span contains at least one *-Bx and one *-By;
    5. no set span reconstructs to a single continuous mention (exactly two
       components with no gap between them);
    6. no set span ends with DI-O.
    """
    if isinstance(tags, TagSequence):
        tags = tags.tags
    prev = None
    for t in tags:
        allowed = _ALLOWED_PREV.get(t)
        if allowed is not None and prev not in allowed:
            return False
        prev = t
    for i, j in _set_spans(tags):
        span = tags[i:j]
        if span[-1] is DI_O:
            return False
        begins = sum(1 for t in span if t in _COMPONENT_BEGIN)
        if not any(t is DB_BX or t is DI_BX for t in span):
            return False
        if not any(t is DB_BY or t is DI_BY for t in span):
            return False
        if begins == 2 and DI_O not in span:
            return False
    return True


def is_structural(tags: Sequence[Tag] | TagSequence) -> bool:
    """True iff well-formed and every set's leftmost component is typed x."""
    if isinstance(tags, TagSequence):
        tags = tags.tags
    return is_well_formed(tags) and DB_BY not in tags


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

    def words(self) -> frozenset[int]:
        return frozenset(
            w for b, e in self.fragments for w in range(b, e + 1)
        )

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
                raise ValueError("annotation elements overlap")

    def structural(self) -> "SentenceAnnotation":
        """Canonical orientation: every set's leftmost component typed x."""
        return SentenceAnnotation(
            self.n,
            self.continuous,
            tuple(s.with_orientation(ComponentType.X, resolved=True) for s in self.sets),
        )


def _grouped(mentions: Sequence[Mention]) -> list[list[Mention]]:
    """Connected components of the word-sharing graph over mentions."""
    word_to_ids: dict[int, list[int]] = {}
    for i, m in enumerate(mentions):
        for w in m.words():
            word_to_ids.setdefault(w, []).append(i)
    parent = list(range(len(mentions)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ids in word_to_ids.values():
        for j in ids[1:]:
            parent[find(j)] = find(ids[0])
    groups: dict[int, list[Mention]] = {}
    for i, m in enumerate(mentions):
        groups.setdefault(find(i), []).append(m)
    return [sorted(g) for g in sorted(groups.values(), key=lambda g: min(g).start)]


def _group_to_set(group: list[Mention]) -> TwoLayerSet:
    """Express one word-sharing group as a typed-component set.

    Raises :class:`Incompatible` when the group is not a complete two-sided
    product of contiguous components.
    """
    lo = min(m.start for m in group)
    hi = max(m.end for m in group)
    covered = [m.words() for m in group]
    profile = [frozenset(i for i, words in enumerate(covered) if w in words) for w in range(lo, hi + 1)]

    # Maximal runs of identical non-empty covering profiles become components.
    intervals: list[tuple[int, int]] = []
    owners: list[frozenset[int]] = []
    for w, cov in zip(range(lo, hi + 1), profile):
        if not cov:
            continue
        if owners and owners[-1] == cov and intervals[-1][1] == w - 1:
            intervals[-1] = (intervals[-1][0], w)
        else:
            intervals.append((w, w))
            owners.append(cov)

    comps_of = [[] for _ in group]
    for ci, cov in enumerate(owners):
        for mi in cov:
            comps_of[mi].append(ci)
    for mi, comps in enumerate(comps_of):
        if len(comps) >= 3:
            raise Incompatible(THREE_WAY_SPLIT, f"mention {group[mi]} splits into {len(comps)} components")
        if len(comps) < 2:
            raise Incompatible(PARTIAL_OVERLAP, f"mention {group[mi]} is entirely shared")

    # Mentions are edges between their two components; the edge graph must be
    # a complete bipartite graph for the Cartesian-product reconstruction to
    # give back exactly this group.
    side = {0: 0}
    queue = [0]
    adj: dict[int, list[int]] = {i: [] for i in range(len(intervals))}
    for a, b in comps_of:
        adj[a].append(b)
        adj[b].append(a)
    while queue:
        a = queue.pop()
        for b in adj[a]:
            if b not in side:
                side[b] = 1 - side[a]
                queue.append(b)
            elif side[b] == side[a]:
                raise Incompatible(PARTIAL_OVERLAP, "components do not split into two sides")
    left = [ci for ci in range(len(intervals)) if side[ci] == 0]
    right = [ci for ci in range(len(intervals)) if side[ci] == 1]
    edges = {frozenset(c) for c in comps_of}
    if len(edges) != len(left) * len(right):
        raise Incompatible(PARTIAL_OVERLAP, "mention set is not a full product of its components")

    types = {ci: (ComponentType.X if side[ci] == 0 else ComponentType.Y) for ci in side}
    return TwoLayerSet(
        tuple(Component(b, e, types[ci]) for ci, (b, e) in enumerate(intervals))
    )


def to_two_layer(mentions: Iterable[Mention], n: int) -> SentenceAnnotation:
    """Group a mention set into the two-layer representation.

    Mentions sharing at least one word are grouped into a single set of
    mentions; standalone continuous mentions pass through unchanged.  Mention
    spans carry no component types, so the orientation is structural: the
    side containing the leftmost component is typed x and the set is left
    unresolved.  :func:`disctag.corpus.silver_type` orients sets afterwards.

    Raises :class:`Incompatible` when the mention set has no tag encoding.
    """
    ms = sorted(set(mentions))
    for m in ms:
        if m.end >= n:
            raise ValueError(f"mention {m} outside sentence of {n} words")
    continuous: list[Mention] = []
    sets: list[TwoLayerSet] = []
    for group in _grouped(ms):
        if len(group) == 1 and group[0].is_continuous:
            continuous.append(group[0])
        else:
            sets.append(_group_to_set(group))
    spans = sorted([(m.start, m.end) for m in continuous] + [s.span for s in sets])
    for (_, e1), (b2, _) in itertools.pairwise(spans):
        if b2 <= e1:
            raise Incompatible(SPAN_CONFLICT, f"element spans overlap near word {b2}")
    return SentenceAnnotation(n, tuple(continuous), tuple(sets))


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
    ts = TagSequence(tuple(tags))
    if not is_well_formed(ts):
        raise EncodingViolation(f"annotation encodes to an ill-formed sequence: {ts.symbols()}")
    return ts


def decode_annotation(ts: TagSequence | Sequence[Tag]) -> SentenceAnnotation:
    """Parse a well-formed tag sequence back into an annotation.

    Raises :class:`IllFormed` if the sequence breaks any rule; decoding never
    guesses.
    """
    tags = ts.tags if isinstance(ts, TagSequence) else tuple(ts)
    if not is_well_formed(tags):
        raise IllFormed(" ".join(t.symbol for t in tags) or "<empty>")
    n = len(tags)
    continuous: list[Mention] = []
    sets: list[TwoLayerSet] = []
    i = 0
    while i < n:
        t = tags[i]
        if t is CB:
            j = i + 1
            while j < n and tags[j] is CI:
                j += 1
            continuous.append(Mention(((i, j - 1),)))
            i = j
        elif t in _SET_START:
            j = i + 1
            while j < n and tags[j] in _SET_INSIDE:
                j += 1
            comps: list[Component] = []
            k = i
            while k < j:
                tk = tags[k]
                if tk is DI_O:
                    k += 1
                    continue
                ctype = ComponentType.X if tk in (DB_BX, DI_BX) else ComponentType.Y
                inside = DI_IX if ctype is ComponentType.X else DI_IY
                e = k
                while e + 1 < j and tags[e + 1] is inside:
                    e += 1
                comps.append(Component(k, e, ctype))
                k = e + 1
            sets.append(TwoLayerSet(tuple(comps)))
            i = j
        else:
            i += 1
    return SentenceAnnotation(n, tuple(continuous), tuple(sets))


def decode(ts: TagSequence | Sequence[Tag]) -> MentionSet:
    """Mention set denoted by a well-formed tag sequence."""
    return from_two_layer(decode_annotation(ts))
