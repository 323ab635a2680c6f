"""The 10 tags and the two-layer representation of discontinuous mentions.

A sentence annotation is either flat (continuous mentions, BIO-style) or
grouped into *sets of mentions*: maximal groups of mentions that share words.
Each set is described by typed components (``x`` / ``y``), runs of words
covered by the same mentions; the mentions of the set are the Cartesian
product of its x-components with its y-components, whose sides follow from
the leftmost component.  This module provides the mapping in both directions
and the 10-tag encoding of annotations as word-level tag sequences.  Mentions
are grouped into annotations by one pass over the fragments of a whole batch
of records (:func:`_two_layer_batch`); :func:`to_two_layer` is a batch of
one.  The tags
are the alphabet of :mod:`disctag.automata`, whose grammar automaton is the
one definition of the encodable sequences: a sequence is well-formed iff the
grammar's minimal DFA accepts it.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .automata import (
    CB,
    CI,
    DB_BX,
    DB_BY,
    DI_BX,
    DI_BY,
    DI_IX,
    DI_IY,
    DI_O,
    NUM_TAGS,
    O,
    TAGS,
    Tag,
    _ragged_walk,
    build_lattice,
    grammar_automaton,
)
from .errors import (
    INCOMPATIBLE_REASONS,
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


_BY_SYMBOL = {t.symbol: t for t in TAGS}

# Tag indices by their part in a parse; _PART[t]: tag t opens a set (2), begins
# a continuous mention or a component (1), continues one (-1), or none (0)
_SET_OPENERS = frozenset((DB_BX.index, DB_BY.index))
_X_BEGINS = frozenset((DB_BX.index, DI_BX.index))
_Y_BEGINS = frozenset((DB_BY.index, DI_BY.index))
_PART = np.zeros(NUM_TAGS, dtype=np.int8)
_PART[[CB.index, DI_BX.index, DI_BY.index, *_SET_OPENERS]] = [1, 1, 1, 2, 2]
_PART[[CI.index, DI_IX.index, DI_IY.index]] = -1
# per tag, whether it begins an x and a y component
_BEGINS = np.array([[t in _X_BEGINS, t in _Y_BEGINS] for t in range(NUM_TAGS)])


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
    """Well-formedness of each sequence of a batch (see :func:`as_rows`): whether
    the minimal DFA of the semantic grammar accepts it.  Its language is the
    sequences that keep the six rules listed under *Tag file* in the README.

    The sequences walk the grammar's complete table together, one successor
    gather per position (:func:`~disctag.automata._ragged_walk`); an undefined
    step enters the dead state, which stays and is not final.  A sequence is
    well-formed iff it ends in a final state, so a 0-word one is.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    lengths = bounds[1:] - bounds[:-1]
    lat = build_lattice(grammar_automaton("semantic"))

    def step(state: np.ndarray, tags: np.ndarray) -> None:
        state[:] = lat.next_state[state, tags]

    state = _ragged_walk(np.full(len(lengths), lat.initial), step, np.asarray(flat), bounds[:-1], lengths)
    return lat.final_mask[state]


def is_well_formed(tags: Sequence[Tag] | TagSequence) -> bool:
    """Whether the grammar accepts one sequence (see :func:`is_well_formed_batch`)."""
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
    """Group a mention set into the two-layer representation: the
    :func:`_two_layer_batch` of a batch of one.

    A component is a maximal run of words covered by the same mentions; the
    components that mentions join are one set, and a mention alone on its
    component is a standalone continuous mention.  Mention spans carry no
    component types, so the orientation is structural: the components that
    share a mention with the leftmost one are typed y, the rest x, and the
    set is left unresolved.  :func:`disctag.corpus.silver_type` orients sets
    afterwards.

    Raises :class:`Incompatible` when the mention set has no tag encoding,
    and :class:`ValueError` for a mention outside the sentence.
    """
    ms = set(mentions)
    outside = [m for m in ms if m.end >= n]
    if outside:
        raise ValueError(f"mention {min(outside)} outside sentence of {n} words")
    grouping = _two_layer_batch(*_fragment_rows([[m.fragments for m in ms]]))
    if grouping.reason[0] >= 0:
        raise Incompatible(INCOMPATIBLE_REASONS[grouping.reason[0]])
    return _annotations(grouping, [n], [0])[0]


class _Grouping(NamedTuple):
    """What :func:`_two_layer_batch` finds in a batch of records.  Its elements
    are the continuous mentions (one component) and the sets (two or more),
    in record order and, within a record, in the word order of their
    leftmost components."""

    reason: np.ndarray  # (records,): index into INCOMPATIBLE_REASONS, or -1 for an encodable record
    elements: np.ndarray  # (records + 1,): record r's elements are elements[r]:elements[r + 1]
    parts: np.ndarray  # (elements + 1,): element k's components are parts[k]:parts[k + 1]
    start: np.ndarray  # (components,): first word, each element's components in word order
    end: np.ndarray  # last word
    y: np.ndarray  # typed y: shares a mention with its set's leftmost component


def _fragment_rows(records: Sequence[Sequence[Sequence[tuple[int, int]]]]) -> tuple:
    """The fragments ``(b, e)`` of each mention of each record, as rows
    ``(record, mention, b, e)`` of one array per column, mentions numbered
    across the batch, and the count of records: the arguments of
    :func:`_two_layer_batch`."""
    mentions = [m for r in records for m in r]
    counts = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
    sizes = np.fromiter(map(len, mentions), dtype=np.intp, count=len(mentions))
    ends = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(mentions)),
                       dtype=np.int64, count=2 * sizes.sum()).reshape(-1, 2)
    record = np.repeat(np.repeat(np.arange(len(records)), counts), sizes)
    return record, np.repeat(np.arange(len(mentions)), sizes), ends[:, 0], ends[:, 1], len(records)


def _opens(values: np.ndarray) -> np.ndarray:
    """Whether each entry of a grouped array opens a run of equal entries."""
    out = np.ones(len(values), dtype=bool)
    out[1:] = values[1:] != values[:-1]
    return out


def _two_layer_batch(
    record: np.ndarray, mention: np.ndarray, b: np.ndarray, e: np.ndarray, count: int
) -> _Grouping:
    """The two-layer grouping (see :func:`to_two_layer`) of the mentions of
    ``count`` records, from their fragments as written: rows ``(record,
    mention, b, e)`` in any order (see :func:`_fragment_rows`).

    - Each mention's fragments are sorted, and overlapping or adjacent ones
      merged, as :class:`Mention` does.  The words right before and after a
      merged fragment are not its mention's, so the covering profile
      changes exactly at every fragment start and right after every
      fragment end: a component is a covered run between two such cuts.
    - The components that mentions join are one element.  The elements are
      found by hooking each higher root onto the lower one and jumping to
      the roots, until no mention joins two trees; a root is the leftmost
      component.
    - A mention of a set must hit exactly two components.  A set with other
      mentions fails with the reason of the first of them in
      :class:`Mention` order, which their first fragments decide (a prefix
      comes first).
    - A component is y exactly when it shares a mention with its set's
      leftmost component.  Equal mentions hit the same two components, so a
      set is a full product iff each distinct pair of components that a
      mention hits is one x and one y, and there are ``x * y`` pairs.
    - A record's reason is that of its leftmost failing set; if no set
      fails, overlapping element spans are a span conflict.
    """
    partial, three_way, conflict = map(INCOMPATIBLE_REASONS.index, (PARTIAL_OVERLAP, THREE_WAY_SPLIT, SPAN_CONFLICT))
    order = np.lexsort((e, b, mention))
    record, mention, b, e = record[order], mention[order], b[order], e[order]
    # a merged fragment opens where its mention's running end stops short of it
    mention = np.cumsum(_opens(mention)) - 1
    width = int(e.max(initial=0)) + 2  # a word of a record as one key, record * width + word
    reach = np.maximum.accumulate(mention * width + e) - mention * width
    merged = _opens(mention)
    merged[1:] |= b[1:] > reach[:-1] + 1
    at = np.flatnonzero(merged)
    record, mention, b, e = record[at], mention[at], b[at], reach[np.append(at, len(reach))[1:] - 1]
    # components: the covered runs between cuts, the coverage a running sum
    # of +1 at each fragment start and -1 right after each end
    cuts = np.concatenate((record * width + b, record * width + e + 1))
    order = np.argsort(cuts, kind="stable")
    cuts = cuts[order]
    last = np.ones(len(cuts), dtype=bool)  # a cut's last event
    last[:-1] = cuts[1:] != cuts[:-1]
    cuts, depth = cuts[last], np.cumsum(np.repeat([1, -1], len(b))[order])[last]
    covered = np.flatnonzero(depth > 0)  # not a record's last cut
    keys = cuts[covered]
    comp_record = keys // width
    start, end = keys - comp_record * width, cuts[covered + 1] - 1 - comp_record * width
    first = keys.searchsorted(record * width + b)  # each fragment's components, first to last
    last = keys.searchsorted(record * width + e, side="right") - 1
    heads = np.flatnonzero(_opens(mention))  # each mention's first fragment, then its end
    tails = np.append(heads, len(b))[1:]
    hits = np.concatenate(([0], np.cumsum(last - first + 1)))
    hits = hits[tails] - hits[heads]
    c1, c2 = first[heads], last[tails - 1]
    # elements: chains of components that a fragment runs through, joined by mentions
    through = np.zeros(len(keys) + 1, dtype=np.intp)
    np.add.at(through, first, 1)
    np.add.at(through, last, -1)
    chain_opens = np.ones(len(keys), dtype=bool)
    chain_opens[1:] = np.cumsum(through)[:-2] == 0
    chain = np.cumsum(chain_opens) - 1
    root = np.arange(chain_opens.sum())
    u, v = chain[first], chain[c1[mention]]
    while len(u):
        ru, rv = root[u], root[v]
        apart = ru != rv
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    leftmost = np.flatnonzero(chain_opens)[root[chain]]  # per component, its element's leftmost
    leaders = np.flatnonzero(leftmost == np.arange(len(keys)))
    element = leaders.searchsorted(leftmost)
    size = np.bincount(element, minlength=len(leaders))
    # each set's first mention, in Mention order, that does not hit two components
    owner = element[c1]
    odd = np.flatnonzero((size[owner] > 1) & (hits != 2))
    odd = odd[np.lexsort((hits[odd] > 2, e[heads[odd]], b[heads[odd]], owner[odd]))]
    odd = odd[_opens(owner[odd])]
    fails = np.full(len(leaders), -1)
    fails[owner[odd]] = np.where(hits[odd] > 2, three_way, partial)
    # the full-product count over the distinct pairs of components
    two = hits == 2
    y = np.zeros(len(keys), dtype=bool)
    y[c2[two & (c1 == leaders[owner])]] = True
    pairs = (c1 * len(keys) + c2)[two]
    pairs = pairs[np.argsort(pairs, kind="stable")]
    pair_first, pair_second = np.divmod(pairs[_opens(pairs)], max(len(keys), 1))
    pairs = element[pair_first]
    same_side = np.bincount(pairs[y[pair_first] == y[pair_second]], minlength=len(leaders))
    ys = np.bincount(element[y], minlength=len(leaders))
    full = (same_side == 0) & (np.bincount(pairs, minlength=len(leaders)) == (size - ys) * ys)
    fails[(fails < 0) & (size > 1) & ~full] = partial
    # per record, its leftmost failing set, else a span conflict
    element_record = comp_record[leaders]
    reason = np.full(count, -1)
    failing = np.flatnonzero(fails >= 0)
    failing = failing[_opens(element_record[failing])]
    reason[element_record[failing]] = fails[failing]
    span_end = np.full(len(leaders), -1)
    np.maximum.at(span_end, element, end)
    clash = element_record[1:][(element_record[1:] == element_record[:-1]) & (start[leaders[1:]] <= span_end[:-1])]
    reason[clash[reason[clash] < 0]] = conflict
    by_element = np.argsort(element, kind="stable")
    return _Grouping(
        reason,
        element_record.searchsorted(np.arange(count + 1)),
        np.concatenate(([0], np.cumsum(size))),
        start[by_element],
        end[by_element],
        y[by_element],
    )


def _annotations(grouping: _Grouping, lengths: Sequence[int], records: Iterable[int]) -> list[SentenceAnnotation]:
    """The annotations of the given encodable records of a grouping, of
    ``lengths[r]`` words each; every set is left unresolved."""
    elements, parts = grouping.elements.tolist(), grouping.parts.tolist()
    start, end = grouping.start.tolist(), grouping.end.tolist()
    types = [ComponentType.Y if y else ComponentType.X for y in grouping.y.tolist()]
    out = []
    for r in records:
        continuous, sets = [], []
        for a, z in itertools.pairwise(parts[elements[r] : elements[r + 1] + 1]):
            if z - a == 1:
                continuous.append(Mention(((start[a], end[a]),)))
            else:
                sets.append(TwoLayerSet(tuple(map(Component, start[a:z], end[a:z], types[a:z]))))
        out.append(SentenceAnnotation(lengths[r], tuple(continuous), tuple(sets)))
    return out


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
    that are not well-formed.
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
    x = _BEGINS[tags, 0].nonzero()[0]
    y = _BEGINS[tags, 1].nonzero()[0]
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
    is not well-formed; decoding never guesses."""
    table = mention_table(*as_rows([ts])).tolist()
    return frozenset(Mention(((b1, e1),) if b2 < 0 else ((b1, e1), (b2, e2))) for _, b1, e1, b2, e2 in table)
