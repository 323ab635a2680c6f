import io
import itertools
import zipfile
from collections.abc import Iterable, Sequence

import numpy as np
import pytest

from disctag.automata import EdgeGroups
from disctag.corpus import CorpusRecord, _read_lines, corpus_text, read_tag_rows
from disctag.errors import PARTIAL_OVERLAP, SPAN_CONFLICT, THREE_WAY_SPLIT, EmptyLanguage, Incompatible, ParseError
from disctag.inference import _SPAN, _TINY, SCALED, hard_em_step, nll, partial_nll, viterbi_rows
from disctag.model import FEATURES, predict_rows
from disctag.scheme import (
    _X_BEGINS,
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
    TAGS,
    Component,
    ComponentType,
    Mention,
    SentenceAnnotation,
    TagSequence,
    TwoLayerSet,
    _components,
    as_rows,
    encode,
    from_rows,
    mention_table,
)

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


def _set_spans(tags) -> list[tuple[int, int]]:
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


def is_well_formed_reference(tags) -> bool:
    """The six well-formedness rules, checked one tag at a time.

    The oracle for the grammar automaton, and so for
    :func:`disctag.scheme.is_well_formed_batch`, which walks its minimal DFA:

    1. every CI is preceded by CB or CI;
    2. every DI-* is preceded by DB-* or DI-*;
    3. every *-Ix is preceded by *-Bx or *-Ix (same for y);
    4. every set span contains at least one *-Bx and one *-By;
    5. no set span reconstructs to a single continuous mention (exactly two
       components with no gap between them);
    6. no set span ends with DI-O.
    """
    tags = tuple(tags)
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


class WellFormedLanguage:
    """Brute-force enumeration of well-formed tag sequences, cached per length.

    This is the independent oracle for everything automaton- or DP-based:
    it only relies on the reference rule checker, never on the grammar
    automaton or on :mod:`disctag.scheme`'s check, which walks it.
    """

    def __init__(self):
        self._cache: dict[int, tuple[tuple, ...]] = {}

    def sequences(self, n: int) -> tuple[tuple, ...]:
        if n not in self._cache:
            self._cache[n] = tuple(
                seq for seq in itertools.product(TAGS, repeat=n) if is_well_formed_reference(seq)
            )
        return self._cache[n]

    def as_set(self, n: int) -> frozenset:
        return frozenset(self.sequences(n))


@pytest.fixture(scope="session")
def language():
    return WellFormedLanguage()


def accepts(automaton, sequence) -> bool:
    """Whether ``automaton`` accepts ``sequence``, by NFA simulation.

    The oracle for the language-preserving automaton constructions; epsilon
    transitions (label ``None``) are allowed.
    """
    eps, step = {}, {}
    for src, label, _, dst in automaton.transitions:
        if label is None:
            eps.setdefault(src, set()).add(dst)
        else:
            step.setdefault((src, label), set()).add(dst)

    def closure(states):
        out, stack = set(states), list(states)
        while stack:
            for dst in eps.get(stack.pop(), ()):
                if dst not in out:
                    out.add(dst)
                    stack.append(dst)
        return out

    current = closure({automaton.initial})
    for tag in sequence:
        current = closure({dst for q in current for dst in step.get((q, tag), ())})
    return bool(current & automaton.finals)


def language_of(automaton, n: int) -> frozenset:
    """All sequences of exactly ``n`` tags that ``automaton`` accepts (``10**n`` checks)."""
    return frozenset(seq for seq in itertools.product(TAGS, repeat=n) if accepts(automaton, seq))


def accepting_sequences(lattice, n: int) -> set:
    """The ``n``-tag sequences spelled by the accepting paths of ``lattice``.

    Walks every path of the successor table from the initial state, so it
    relies on no dynamic program; small ``n`` only.
    """
    paths = [((), lattice.initial)]
    for _ in range(n):
        paths = [
            (seq + (tag,), int(lattice.next_state[q, tag.index]))
            for seq, q in paths
            for tag in TAGS
            if lattice.next_state[q, tag.index] != lattice.num_grammar_states
        ]
    return {seq for seq, q in paths if lattice.final_mask[q]}


def max_sum_reference(automaton, weights) -> tuple[float, tuple[int, ...]]:
    """Best score and tag indices of a sequence that ``automaton`` accepts,
    by plain-Python max-sum over its transition list.

    The oracle for Viterbi on the compiled (minimal) table: it reads the
    determinised machine's transitions, so it shares neither the table nor
    its state numbering.  Suffix scores come first; then the walk from the
    initial state takes at each word the lowest tag that keeps the best
    score, so ties go to the lowest tag, left to right.
    """
    weights = [list(map(float, row)) for row in weights]
    step: dict[int, list[tuple[int, int]]] = {}
    for src, label, _, dst in automaton.transitions:
        step.setdefault(src, []).append((label.index, dst))
    best = [{q: 0.0 for q in automaton.finals}]  # best[j]: suffix scores before the last j words
    for row in reversed(weights):
        after, here = best[-1], {}
        for q, edges in step.items():
            scores = [row[t] + after[d] for t, d in edges if d in after]
            if scores:
                here[q] = max(scores)
        best.append(here)
    best.reverse()
    q, tags = automaton.initial, []
    for i, row in enumerate(weights):
        t, q = min((t, d) for t, d in step[q] if d in best[i + 1] and row[t] + best[i + 1][d] == best[i][q])
        tags.append(t)
    return best[0][automaton.initial], tuple(tags)


def with_flips(ann, flips) -> SentenceAnnotation:
    """``ann`` with the x/y orientation of each set whose flag is true flipped."""
    if len(flips) != len(ann.sets):
        raise ValueError("one flip flag per set expected")
    return SentenceAnnotation(
        ann.n, ann.continuous, tuple(s.flipped() if f else s for s, f in zip(ann.sets, flips))
    )


def admissible_sequences(ann):
    """The admissible gold sequences of ``ann``, enumerated in canonical order.

    The oracle for the closed-form sums over a partial label set: every
    combination of x/y flips of the unresolved sets, encoded, starting with
    the unflipped annotation and then counting in binary over the sets from
    left to right.  There are ``2**k`` of them, so only small ``k`` is usable.
    """
    free = [i for i, s in enumerate(ann.sets) if not s.resolved]
    out = []
    for combo in itertools.product((False, True), repeat=len(free)):
        flips = [False] * len(ann.sets)
        for slot, flip in zip(free, combo):
            flips[slot] = flip
        out.append(encode(with_flips(ann, flips)))
    return out


def fnv1a_reference(text: str) -> int:
    """64-bit FNV-1a of the UTF-8 bytes of ``text``, one byte at a time.

    The oracle for the vectorised hash of :func:`disctag.model.fnv1a`.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def score_rows_reference(params: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each word's score as ``np.add.reduceat`` sums its five gathered params
    rows: the oracle for the summation order of
    :meth:`disctag.model.LinearScorer.score_rows`."""
    return np.add.reduceat(params[rows.ravel()], np.arange(0, rows.size, FEATURES), axis=0)


def _edge_groups_reference(lat) -> dict:
    """The ``(halves, EdgeGroups)`` of :func:`chart_reference`'s two-way
    chart (``False``) and backward chart (``True``): the edges grouped by
    target, the dead state, then the reversed edges grouped by the original
    source; or the reversed edges alone."""
    states = lat.num_grammar_states
    src, tag = np.nonzero(lat.next_state != states)
    edges = np.stack([src, tag, lat.next_state[src, tag]], axis=1)
    reversed_edges = edges[:, ::-1]
    both = np.concatenate([edges, reversed_edges + [states + 1, 0, states + 1]])
    return {
        False: (2, EdgeGroups.of(both, 2, 2 * states + 1, states)),
        True: (1, EdgeGroups.of(reversed_edges, 2, states, states)),
    }


def _in_word_order_reference(steps: np.ndarray) -> np.ndarray:
    """An ``(n, B, halves, ...)`` array of steps, its last half reversed."""
    return np.concatenate([steps[:, :, :-1], steps[::-1, :, -1:]], axis=2)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def chart_reference(lat, weights: np.ndarray, sr, lengths: np.ndarray | None = None, backward: bool = False):
    """The batch-major chart that :func:`disctag.inference._chart` replaced:
    the oracle for the bits of its totals and charts, on ``(B, n, 10)``
    lanes of one sentence each, its ``lengths[b]`` words (by default ``n``)
    from row 0, then padding.

    Its charts are ``(n+1, B, S+1)``.  Each step gathers the chart at every
    edge's far end from a flat row, multiplies by the edge weights filled
    for all ``n`` words up front, and combines each state's edges with one
    ``reduceat``, in edge order.  The suffix sums are reset to the final
    row at the row after each sentence's last word, as ``_chart`` resets
    them; the chart it replaced read sentences that end at row ``n``.
    """
    batch, n = weights.shape[:2]
    ends = np.full(batch, n) if lengths is None else np.asarray(lengths)
    states = lat.num_grammar_states
    halves, groups = _edge_groups_reference(lat)[backward]
    steps = np.full((n + 1, batch, halves, states + 1), sr.zero)  # steps[t]: after t words of each half
    rows = steps.reshape(n + 1, batch, -1)
    flat = steps.reshape(n + 1, -1)
    far = np.arange(batch)[:, None] * rows.shape[2] + groups.src  # edges' far ends in a flat chart row
    per_word = weights.transpose(1, 0, 2)  # (n, B, 10)
    scaled = sr is SCALED
    if scaled:
        top = per_word.max(axis=2, keepdims=True)
        per_word = np.exp(per_word - top)
        scale = np.ones((n, batch, halves, 1))
    # the edges of the forward half read word t at step t, the reversed ones word n - 1 - t
    split = groups.bounds[(halves - 1) * (states + 1)]
    edge_weights = np.empty((n, batch, len(groups.tag)))
    np.take(per_word, groups.tag[:split], axis=2, out=edge_weights[:, :, :split], mode="clip")
    np.take(per_word[::-1], groups.tag[split:], axis=2, out=edge_weights[:, :, split:], mode="clip")
    steps[0, :, -1][:, lat.final_mask] = sr.one
    if not backward:
        steps[0, :, 0, lat.initial] = sr.one
    for t in range(n):
        edges = flat[t].take(far)
        sr.times(edges, edge_weights[t], out=edges)
        sr.plus.reduceat(edges, groups.bounds, axis=1, out=rows[t + 1, :, :-1])  # the last dead state stays
        if scaled:
            np.add.reduce(steps[t + 1], axis=2, keepdims=True, out=scale[t])
            steps[t + 1] /= scale[t]
        # row n - 1 - t of the suffix sums is the row after a sentence's last word
        np.copyto(steps[t + 1, :, -1], steps[0, :, -1], where=(n - ends == t + 1)[:, None])
    charts = (steps[:, :, 0], steps[::-1, :, -1])[2 - halves :]
    totals = [steps[n, :, -1, lat.initial]]
    if not backward:
        totals.insert(0, sr.plus.reduce(steps[ends, np.arange(batch), 0][:, lat.final_mask], axis=1))
    totals = np.stack(totals)
    if scaled:
        real = (np.arange(n)[:, None] < ends)[..., None]  # (n, B, 1): word i is real
        # summed in word order, so padding (zeros, last) leaves a sentence's sum as it is alone
        logs = np.where(real, np.log(_in_word_order_reference(scale)[..., 0]) + top, 0.0)
        log_totals = np.log(totals) + (np.cumsum(logs, axis=0)[-1].T if n else 0.0)
        written = steps[1:, :, :, :states] * scale  # each step's cells before the division
        small = ((written > 0) & (written < _TINY)).any(axis=3)
        wide = (per_word < np.exp(-_SPAN)).any(axis=2, keepdims=True)
        if small.any() or wide.any():  # rare, so the sentences are looked for only then
            log_totals[((_in_word_order_reference(small) | wide) & real).any(axis=0).T] = np.nan
        return log_totals, charts
    if (totals == sr.zero).any():
        raise EmptyLanguage("lattice has no accepting path")
    return totals, charts


def model_bytes(**fields) -> bytes:
    """A version-2 model file of ``dim`` 8 with rows 1 and 5 set, its entries
    replaced by ``fields``; an entry given as ``None`` is left out."""
    entries = {
        "format_version": np.int64(2),
        "dim": np.int64(8),
        "tagset": np.array([t.symbol for t in TAGS]),
        "rows": np.array([1, 5], dtype=np.int64),
        "values": np.ones((2, NUM_TAGS)),
        **fields,
    }
    handle = io.BytesIO()
    np.savez(handle, **{key: value for key, value in entries.items() if value is not None})
    return handle.getvalue()


def write_model(path, **fields) -> None:
    """Write :func:`model_bytes` of ``fields`` to ``path``."""
    with open(path, "wb") as handle:
        handle.write(model_bytes(**fields))


def _central_byte_set(at: int, value: int) -> bytes:
    """:func:`model_bytes` with byte ``at`` of its first central-directory record set to ``value``."""
    data = bytearray(model_bytes())
    data[data.index(b"PK\x01\x02") + at] = value
    return bytes(data)


def _npy_header_archive(header: str) -> bytes:
    """An archive of one entry, ``format_version.npy``, whose ``.npy`` header
    text is ``header``, padded as numpy pads it, followed by 8 zero bytes."""
    text = header.encode().ljust(117) + b"\n"
    npy = b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(8)
    handle = io.BytesIO()
    with zipfile.ZipFile(handle, "w") as archive:
        archive.writestr(zipfile.ZipInfo("format_version.npy"), npy)  # dated 1980-01-01, so the bytes are fixed
    return handle.getvalue()


# Model files that are not a model, as the entries :func:`write_model` replaces,
# and what the error names.
MALFORMED_MODELS = {
    "rows-out-of-range": ({"rows": np.array([1, 8])}, r"row ids in \[0, 8\)"),
    "rows-negative": ({"rows": np.array([-1, 5])}, r"row ids in \[0, 8\)"),
    "rows-unsorted": ({"rows": np.array([5, 1])}, "increasing row ids"),
    "rows-duplicated": ({"rows": np.array([5, 5])}, "increasing row ids"),
    "rows-float": ({"rows": np.array([1.0, 5.0])}, "increasing row ids"),
    "rows-2d": ({"rows": np.array([[1, 5]])}, "increasing row ids"),
    "values-too-few-columns": ({"values": np.ones((2, NUM_TAGS - 1))}, r"finite float \(2, 10\) matrix"),
    "values-too-many-rows": ({"values": np.ones((3, NUM_TAGS))}, r"finite float \(2, 10\) matrix"),
    "values-integer": ({"values": np.ones((2, NUM_TAGS), dtype=np.int64)}, r"finite float \(2, 10\) matrix"),
    "tagset-reordered": (
        {"tagset": np.array([t.symbol for t in reversed(TAGS)])},
        "model tagset does not match this build$",
    ),
    "version-1-dense": (
        {"format_version": np.int64(1), "rows": None, "values": None, "params": np.zeros((8, NUM_TAGS))},
        "unsupported model format version 1$",
    ),
}


# Model files that zipfile or numpy cannot parse, as their bytes: the first
# central-directory record needing zip version 25.5 (byte +6) or marked
# encrypted (byte +8, the flags), and an entry whose .npy header is cut off
# inside its shape, or whose dtype does not parse.
UNPARSABLE_MODELS = {
    "zip-version-25.5": _central_byte_set(6, 0xFF),
    "zip-encrypted": _central_byte_set(8, 0x01),
    "npy-header-cut-in-shape": _npy_header_archive("{'descr': '<i8', 'fortran_order': False, 'shape': ("),
    "npy-descr-unparsable": _npy_header_archive("{'descr': ',f8', 'fortran_order': False, 'shape': (), }"),
}


# Each training loss as ``(lattice, weights, label set) -> (loss, gradient)``
# for one sentence, through the library's one-sentence functions.
LIBRARY_LOSSES = {
    "nll": lambda lattice, w, pl: nll(lattice, w, pl.gold),
    "partial": partial_nll,
    "hard-em": lambda lattice, w, pl: hard_em_step(lattice, w, pl)[:2],
}


def _elements(seq) -> tuple[list[list[int]], list[tuple[list, list]]]:
    """Parse a well-formed tag sequence one tag at a time: the ``[start, end]``
    of each continuous mention, and per set those of its x and of its y components."""
    continuous: list[list[int]] = []
    sets: list[tuple[list, list]] = []
    for i, t in enumerate(seq):
        if t is CB:
            continuous.append([i, i])
        elif t is CI:
            continuous[-1][1] = i
        elif t in (DI_IX, DI_IY):
            component[1] = i
        elif t in _COMPONENT_BEGIN:
            if t in _SET_START:
                sets.append(([], []))
            component = [i, i]
            sets[-1][t in (DB_BY, DI_BY)].append(component)
    return continuous, sets


def decode_reference(seq) -> frozenset:
    """The mentions of a well-formed tag sequence: its continuous mentions, and
    the Cartesian product of each set's x and y components, built by the
    checking :class:`Mention` constructor (which merges a pair that touches).

    The oracle for :func:`disctag.scheme.mention_table` and the decoders built on it.
    """
    continuous, sets = _elements(seq)
    mentions = {Mention((tuple(span),)) for span in continuous}
    for xs, ys in sets:
        mentions.update(Mention((tuple(x), tuple(y))) for x in xs for y in ys)
    return frozenset(mentions)


def decode_annotation_reference(seq) -> SentenceAnnotation:
    """The annotation of a well-formed tag sequence, parsed one tag at a time."""
    continuous, sets = _elements(seq)
    return SentenceAnnotation(
        len(seq),
        tuple(Mention((tuple(span),)) for span in continuous),
        tuple(
            TwoLayerSet(
                tuple(Component(b, e, ComponentType.X) for b, e in xs)
                + tuple(Component(b, e, ComponentType.Y) for b, e in ys)
            )
            for xs, ys in sets
        ),
    )


def mention_table_reference(sequences) -> np.ndarray:
    """The rows ``(sentence, b1, e1, b2, e2)`` of :func:`decode_reference` for
    each sequence, sorted by their fragments, ``-1`` standing for no second fragment."""
    rows = []
    for k, seq in enumerate(sequences):
        for m in sorted(decode_reference(seq), key=lambda m: m.fragments):
            (b1, e1), (b2, e2) = (*m.fragments, (-1, -1))[:2]
            rows.append((k, b1, e1, b2, e2))
    return np.array(rows, dtype=np.intp).reshape(-1, 5)


def mention_words(m: Mention) -> frozenset[int]:
    """The words a mention covers."""
    return frozenset(
        w for b, e in m.fragments for w in range(b, e + 1)
    )


def _grouped(mentions: Sequence[Mention]) -> list[list[Mention]]:
    """Connected components of the word-sharing graph over mentions."""
    word_to_ids: dict[int, list[int]] = {}
    for i, m in enumerate(mentions):
        for w in mention_words(m):
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
    covered = [mention_words(m) for m in group]
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


def to_two_layer_reference(mentions: Iterable[Mention], n: int) -> SentenceAnnotation:
    """Group a mention set into the two-layer representation.

    Mentions sharing at least one word are grouped into a single set of
    mentions; standalone continuous mentions pass through unchanged.  Mention
    spans carry no component types, so the orientation is structural: the
    side containing the leftmost component is typed x and the set is left
    unresolved.  :func:`disctag.corpus.silver_type` orients sets afterwards.

    Raises :class:`Incompatible` when the mention set has no tag encoding.

    The oracle for :func:`disctag.scheme.to_two_layer`: a union-find over
    mentions that share words, then per group a covering-profile scan, a
    bipartite walk and a product count, then a check of the element spans.
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


# Helpers that only tests call: object views of tag sequences and of the
# library's batch functions, the feature strings that
# LinearScorer.batch_feature_indices hashes, and tag and corpus file writers.


def one_hot(ts: TagSequence) -> np.ndarray:
    """Binary view: one row per word, one column per tag, single 1 per row."""
    out = np.zeros((len(ts.tags), NUM_TAGS))
    if ts.tags:
        out[np.arange(len(ts.tags)), ts.indices] = 1.0
    return out


def is_structural(tags) -> bool:
    """True iff well-formed and every set's leftmost component is typed x, by
    :func:`is_well_formed_reference`, independent of the grammar."""
    if isinstance(tags, TagSequence):
        tags = tags.tags
    return is_well_formed_reference(tags) and DB_BY not in tags


def decode_annotation(ts) -> SentenceAnnotation:
    """Parse a well-formed tag sequence back into an annotation, typing each
    component by its tag.  Raises :class:`IllFormed` if the sequence breaks
    any rule; decoding never guesses."""
    flat, bounds = as_rows([ts])
    _, start, end, tags, sets = _components(flat, bounds)
    continuous, components = [], {}
    for b, e, t, s in zip(start.tolist(), end.tolist(), tags.tolist(), sets.tolist()):
        if t == CB.index:
            continuous.append(Mention(((b, e),)))
        else:
            components.setdefault(s, []).append(Component(b, e, ComponentType.X if t in _X_BEGINS else ComponentType.Y))
    return SentenceAnnotation(len(flat), tuple(continuous), tuple(map(TwoLayerSet, components.values())))


def decode_batch(flat: np.ndarray, bounds: np.ndarray) -> list[frozenset]:
    """:func:`disctag.scheme.decode` of each sequence of a batch, from the rows
    of its :func:`disctag.scheme.mention_table`."""
    table = mention_table(flat, bounds)
    mentions = [Mention(((b1, e1),) if b2 < 0 else ((b1, e1), (b2, e2))) for _, b1, e1, b2, e2 in table.tolist()]
    cuts = np.searchsorted(table[:, 0], np.arange(len(bounds))).tolist()
    return [frozenset(mentions[a:b]) for a, b in itertools.pairwise(cuts)]


def viterbi_batch(lat, sentences: Sequence[np.ndarray], lanes=None) -> list[TagSequence]:
    """The :func:`disctag.inference.viterbi_rows` of the sentences' ``(n, 10)``
    weight matrices, in lanes of ``lanes`` sentences (by default one), as tag sequences."""
    lengths = [len(w) for w in sentences]
    weights = np.concatenate([np.empty((0, NUM_TAGS)), *sentences])
    return from_rows(viterbi_rows(lat, weights, lengths, lanes), np.cumsum([0, *lengths]))


def predict_batch(scorer, sentences, mode: str = "semantic") -> list[TagSequence]:
    """The :func:`disctag.model.predict_rows` of the sentences as tag sequences."""
    return from_rows(*predict_rows(scorer, sentences, mode))


def sentence_features(tokens: Sequence[str]) -> list[list[str]]:
    """Indicator features per position: word, neighbours, affixes.

    The oracle for the strings that
    :meth:`disctag.model.LinearScorer.batch_feature_indices` hashes."""
    low = [t.lower() for t in tokens]
    out = []
    for i, word in enumerate(low):
        out.append(
            [
                f"w={word}",
                f"w-1={low[i - 1] if i > 0 else '<bos>'}",
                f"w+1={low[i + 1] if i + 1 < len(low) else '<eos>'}",
                f"pre={word[:3]}",
                f"suf={word[-3:]}",
            ]
        )
    return out


def read_tag_file(path) -> list[TagSequence]:
    return from_rows(*read_tag_rows(path))


def write_tag_file(sequences: Iterable[TagSequence], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ts in sequences:
            handle.write(ts.symbols() + "\n")


def _parse_mentions_reference(text: str, line_no: int) -> frozenset:
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


def read_corpus_reference(path) -> list[CorpusRecord]:
    """A corpus file's records, each built as its lines are read.

    The oracle for :func:`disctag.corpus.read_corpus`: the same records, or
    the same :class:`ParseError` message and line."""
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
        mentions = _parse_mentions_reference(lines[i + 1], i + 2)
        try:
            records.append(CorpusRecord(tokens, mentions))
        except ValueError as err:
            raise ParseError(str(err), i + 2) from None
        i += 2
        if i < len(lines) and lines[i].strip():
            raise ParseError("expected a blank line between records", i + 1)
    return records


def write_corpus(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(corpus_text(records))


# Compatible records first, then one record of each incompatibility reason
# and two records with incompatible sets of two kinds, where the leftmost
# set's reason is the record's.  The first incompatible record is record 3.
MIXED_CORPUS = (
    "pain in arms and shoulders\n0-1;2-2|0-1;4-4\n\n"
    "no problems at all\n\n\n"
    "muscle aches in elbows and knees\n0-0;2-2;4-4\n\n"
    "a b c d\n0-3|1-3\n\n"
    "sore and stiff\n0-0;2-2\n\n"
    "a b c d e\n0-0;4-4|2-2\n\n"
    "a b c d e f g h i\n0-0;2-2;4-4|6-6;8-8|6-6\n\n"
    "a b c d e f g h i\n0-0;2-2|0-0|4-4;6-6;8-8\n"
)
# (0-based position, reason) of each incompatible record of MIXED_CORPUS
MIXED_DROPPED = [
    (2, THREE_WAY_SPLIT),
    (3, PARTIAL_OVERLAP),
    (5, SPAN_CONFLICT),
    (6, THREE_WAY_SPLIT),
    (7, PARTIAL_OVERLAP),
]
