"""The tag alphabet, weighted automata and the grammar/sentence intersection.

The grammar automaton is a small cyclic machine over the 10 tags whose
language is exactly the set of well-formed tag sequences of any length, those
that encode an annotation (see :mod:`disctag.scheme`).  It is the one
definition of that language: :func:`disctag.scheme.is_well_formed_batch`
walks the minimal DFA of the semantic grammar in :func:`_ragged_walk`, the
walk that also hashes bytes with FNV-1a, and every chart reads it.
Intersecting it with the trivial sentence automaton of an ``n``-word sentence
yields an acyclic lattice whose accepting paths are the well-formed sequences
of length ``n``; all dynamic programs run on that lattice.  It is ``n``
copies of one time-invariant layer, the :class:`Lattice` that
:func:`build_lattice` compiles once per grammar, from the minimal DFA of its
language: a successor table and final mask made complete by a dead state,
the machine's edges as padded slot tables (:class:`SlotTable`) for the
two-way chart and for the backward chart, and its edges grouped by tag
(:class:`EdgeGroups`) for the marginals.  The dynamic programs of
:mod:`disctag.inference`, the path sampler ``random_well_formed`` included,
read ``n`` from the weight matrix and sum over edges only through these tables.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLanguage

__all__ = [
    "Automaton",
    "Lattice",
    "EdgeGroups",
    "SlotTable",
    "grammar_automaton",
    "remove_epsilon",
    "determinize",
    "minimize",
    "build_lattice",
    "export_text",
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

EPSILON = None  # transition label for the empty emission

Transition = tuple[int, "Tag | None", float, int]


@dataclass(frozen=True, eq=False)
class EdgeGroups:
    """Edges ``(src, tag, dst)`` grouped by one of their columns.

    The edges of key ``k`` are the run ``bounds[k]:bounds[k + 1]``, in the
    order they are given.  A key with no edge gets one dead edge from and to
    the dead state ``S`` (one past the last), whose chart entries stay zero.
    A sum over each key's edges is then one gather and one ``reduceat``.
    """

    bounds: np.ndarray  # (K,) int
    src: np.ndarray  # (E,) int in 0..S
    tag: np.ndarray  # (E,) int
    dst: np.ndarray  # (E,) int in 0..S

    @classmethod
    def of(cls, edges: np.ndarray, column: int, num_keys: int, dead: int) -> "EdgeGroups":
        """The rows ``(src, tag, dst)`` of ``edges`` grouped by ``edges[:, column]``."""
        key = edges[:, column]
        idle = np.flatnonzero(np.bincount(key, minlength=num_keys) == 0)
        key = np.concatenate([key, idle])
        order = np.argsort(key, kind="stable")
        rows = np.concatenate([edges, np.tile([dead, 0, dead], (len(idle), 1))])[order]
        return cls(np.searchsorted(key[order], np.arange(num_keys)), *rows.T.copy())


@dataclass(frozen=True, eq=False)
class SlotTable:
    """A chart step's sums over edges, as a ``(D, K)`` table of slots.

    Column ``k`` lists the edges into chart column ``k``, ``D`` slots of
    them, ``D`` the largest in-degree: slot ``d`` reads chart column
    ``far[d, k]`` times row ``word[d, k]`` of the step's word weights, so a
    step is two row gathers, a product and a sum over the slots.  A
    column's first edge sits in the last slot and its other edges fill the
    first slots in order; the slots in between, and every slot of a column
    without edges, are pads, which read the dead-state column of their own
    half of the chart, whose sums stay zero (see :class:`Lattice`).  A
    sum over the slots in order then rounds as ``np.add.reduceat`` over the
    column's edges does for up to eight of them, ``e0 + (((e1 + e2) + e3) +
    ...)``; rolled by one slot, the edges come in plain order, as
    ``np.logaddexp.reduceat`` sums them.
    """

    far: np.ndarray  # (D, K) int: the chart column each slot reads
    word: np.ndarray  # (D, K) int: the word-weight row each slot reads

    @classmethod
    def of(cls, key: np.ndarray, far: np.ndarray, word: np.ndarray, pad: np.ndarray) -> "SlotTable":
        """The table of the edges ``(key, far, word)``, each key's edges in the
        order given, and ``pad[k]`` the column that key ``k``'s pads read."""
        order = np.argsort(key, kind="stable")
        key, far, word = key[order], far[order], word[order]
        counts = np.bincount(key, minlength=len(pad))
        rank = np.arange(len(key)) - (np.cumsum(counts) - counts)[key]  # 0 for a key's first edge
        depth = max(counts.max(initial=0), 1)
        table = np.zeros((2, depth, len(pad)), dtype=np.int64)
        table[0] = pad
        table[:, np.where(rank == 0, depth - 1, rank - 1), key] = far, word
        return cls(*table)


@dataclass(frozen=True)
class Automaton:
    """A weighted finite-state automaton over the 10 tags.

    States are dense integers ``0..num_states-1``.  Transitions are
    ``(source, label, weight, target)`` with ``label`` either a
    :class:`Tag` or ``None`` for an epsilon transition.
    Scores come from the weight matrix alone, so every transition weight
    must be ``0.0``; any other is rejected rather than dropped.
    """

    num_states: int
    transitions: frozenset[Transition]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "finals", frozenset(self.finals))
        states = range(self.num_states)
        if self.initial not in states:
            raise ValueError("initial state out of range")
        if not self.finals <= set(states):
            raise ValueError("final state out of range")
        for src, label, weight, dst in self.transitions:
            if src not in states or dst not in states:
                raise ValueError("transition endpoint out of range")
            if label is not None and not isinstance(label, Tag):
                raise ValueError(f"label {label!r} is not a tag")
            if weight != 0.0:
                raise ValueError(f"transition weight {weight!r} is not 0.0")

    @property
    def is_epsilon_free(self) -> bool:
        return all(label is not None for _, label, _, _ in self.transitions)

    @property
    def is_deterministic(self) -> bool:
        if not self.is_epsilon_free:
            return False
        seen = set()
        for src, label, _, _ in self.transitions:
            if (src, label) in seen:
                return False
            seen.add((src, label))
        return True

    def _closure(self, states: frozenset[int]) -> frozenset[int]:
        out = set(states)
        stack = list(states)
        eps = {}
        for src, label, _, dst in self.transitions:
            if label is None:
                eps.setdefault(src, []).append(dst)
        while stack:
            for dst in eps.get(stack.pop(), ()):
                if dst not in out:
                    out.add(dst)
                    stack.append(dst)
        return frozenset(out)


def _trim(transitions: set[Transition], initial: int, finals: set[int]) -> Automaton:
    """Drop states unreachable from the initial state and renumber densely."""
    out_edges: dict[int, list[Transition]] = {}
    for t in transitions:
        out_edges.setdefault(t[0], []).append(t)
    reachable = {initial}
    stack = [initial]
    while stack:
        for _, _, _, dst in out_edges.get(stack.pop(), ()):
            if dst not in reachable:
                reachable.add(dst)
                stack.append(dst)
    order = sorted(reachable)
    renum = {old: new for new, old in enumerate(order)}
    return Automaton(
        num_states=len(order),
        transitions=frozenset(
            (renum[s], a, w, renum[d]) for s, a, w, d in transitions if s in reachable and d in reachable
        ),
        initial=renum[initial],
        finals=frozenset(renum[f] for f in finals if f in reachable),
    )


def remove_epsilon(a: Automaton) -> Automaton:
    """Language-preserving epsilon removal."""
    if a.is_epsilon_free:
        return a
    closures = {q: a._closure(frozenset((q,))) for q in range(a.num_states)}
    transitions: set[Transition] = set()
    for q in range(a.num_states):
        for p in closures[q]:
            for src, label, w, dst in a.transitions:
                if src == p and label is not None:
                    transitions.add((q, label, w, dst))
    finals = {q for q in range(a.num_states) if closures[q] & a.finals}
    return _trim(transitions, a.initial, finals)


def determinize(a: Automaton) -> Automaton:
    """Subset construction; requires an epsilon-free input.

    States are numbered in breadth-first discovery order with label-sorted
    expansion, so the result (and its text export) is identical across runs.
    """
    if not a.is_epsilon_free:
        raise ValueError("determinize requires an epsilon-free automaton")
    step: dict[int, dict[Tag, set[int]]] = {}
    for src, label, _, dst in a.transitions:
        step.setdefault(src, {}).setdefault(label, set()).add(dst)
    start = frozenset((a.initial,))
    ids: dict[frozenset[int], int] = {start: 0}
    queue = deque([start])
    transitions: set[Transition] = set()
    while queue:
        subset = queue.popleft()
        targets: dict[Tag, set[int]] = {}
        for q in subset:
            for label, dsts in step.get(q, {}).items():
                targets.setdefault(label, set()).update(dsts)
        for label in sorted(targets, key=lambda t: t.index):
            key = frozenset(targets[label])
            if key not in ids:
                ids[key] = len(ids)
                queue.append(key)
            transitions.add((ids[subset], label, 0.0, ids[key]))
    finals = frozenset(i for subset, i in ids.items() if subset & a.finals)
    return Automaton(len(ids), frozenset(transitions), 0, finals)


def minimize(a: Automaton) -> Automaton:
    """Moore partition refinement; requires a deterministic input.

    The result is trimmed to accessible and co-accessible states, so it is the
    unique minimal DFA of the language (up to isomorphism).
    """
    if not a.is_deterministic:
        raise ValueError("minimize requires a deterministic automaton")
    # Keep only states on some accepting path.
    into: dict[int, set[int]] = {}
    for src, _, _, dst in a.transitions:
        into.setdefault(dst, set()).add(src)
    useful = set(a.finals)
    stack = list(a.finals)
    while stack:
        for src in into.get(stack.pop(), ()):
            if src not in useful:
                useful.add(src)
                stack.append(src)
    if a.initial not in useful:
        raise EmptyLanguage("automaton accepts nothing")
    delta = {
        (src, label): dst
        for src, label, _, dst in a.transitions
        if src in useful and dst in useful
    }
    block = {q: int(q in a.finals) for q in useful}
    while True:
        signatures = {
            q: (block[q], tuple(block.get(delta.get((q, t), -1), -1) for t in TAGS))
            for q in useful
        }
        renum: dict[tuple, int] = {}
        new_block = {}
        for q in sorted(useful):
            new_block[q] = renum.setdefault(signatures[q], len(renum))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    transitions = {
        (block[src], label, 0.0, block[dst]) for (src, label), dst in delta.items()
    }
    finals = {block[q] for q in a.finals if q in useful}
    return _trim(transitions, block[a.initial], finals)


def _half_states(prefix: str) -> tuple[str, ...]:
    return tuple(
        f"{prefix}:{name}"
        for name in ("first", "gap-early", "later", "adjacent-other", "safe-same", "safe-other", "gap-late")
    )


@functools.cache
def grammar_automaton(mode: str = "semantic") -> Automaton:
    """Deterministic, epsilon-free automaton of the well-formed sequences.

    The machine is built with epsilon transitions first: an outer part for
    runs of ``CB``/``CI``/``O``, plus one sub-machine per orientation of a
    set's leftmost component (x first, and its mirror with x and y swapped).
    Epsilon transitions route the end of a continuous mention or of a set back
    to the outer start state; they are then removed and the automaton is
    determinized.  In ``structural`` mode the mirror entry is dropped, which
    constrains every leftmost component to be typed x.  The result is
    immutable and shared: repeated calls return the same object.
    """
    if mode not in ("semantic", "structural"):
        raise ValueError(f"unknown mode: {mode!r}")
    ids: dict[str, int] = {}

    def state(name: str) -> int:
        return ids.setdefault(name, len(ids))

    t: set[Transition] = set()
    start = state("outside")
    cont = state("continuous")
    t |= {
        (start, O, 0.0, start),
        (start, CB, 0.0, cont),
        (cont, CI, 0.0, cont),
        (cont, EPSILON, 0.0, start),
    }
    halves = [("x-first", DB_BX, DI_BX, DI_IX, DI_BY, DI_IY)]
    if mode == "semantic":
        halves.append(("y-first", DB_BY, DI_BY, DI_IY, DI_BX, DI_IX))
    for prefix, enter, same_b, same_i, other_b, other_i in halves:
        first, gap_early, later, adj_other, safe_same, safe_other, gap_late = (
            state(n) for n in _half_states(prefix)
        )
        t |= {
            (start, enter, 0.0, first),
            # First component of the set; the other type is still missing.
            (first, same_i, 0.0, first),
            (first, DI_O, 0.0, gap_early),
            (first, same_b, 0.0, later),
            (first, other_b, 0.0, adj_other),
            (gap_early, DI_O, 0.0, gap_early),
            (gap_early, same_b, 0.0, later),
            (gap_early, other_b, 0.0, safe_other),
            (later, same_i, 0.0, later),
            (later, same_b, 0.0, later),
            (later, DI_O, 0.0, gap_early),
            (later, other_b, 0.0, safe_other),
            # Other-typed component glued to the first one: ending here would
            # reconstruct a single continuous mention, so something else must
            # follow before the set may close.
            (adj_other, other_i, 0.0, adj_other),
            (adj_other, DI_O, 0.0, gap_late),
            (adj_other, same_b, 0.0, safe_same),
            (adj_other, other_b, 0.0, safe_other),
            # Both types present and the current component may end the set.
            (safe_same, same_i, 0.0, safe_same),
            (safe_same, same_b, 0.0, safe_same),
            (safe_same, other_b, 0.0, safe_other),
            (safe_same, DI_O, 0.0, gap_late),
            (safe_same, EPSILON, 0.0, start),
            (safe_other, other_i, 0.0, safe_other),
            (safe_other, other_b, 0.0, safe_other),
            (safe_other, same_b, 0.0, safe_same),
            (safe_other, DI_O, 0.0, gap_late),
            (safe_other, EPSILON, 0.0, start),
            (gap_late, DI_O, 0.0, gap_late),
            (gap_late, same_b, 0.0, safe_same),
            (gap_late, other_b, 0.0, safe_other),
        }
    with_eps = Automaton(
        num_states=len(ids),
        transitions=frozenset(t),
        initial=start,
        finals=frozenset((start,)),
    )
    return determinize(remove_epsilon(with_eps))


@dataclass(frozen=True, eq=False)
class Lattice:
    """A grammar's compiled table: one layer of its intersection with a sentence.

    The intersection with an ``n``-word sentence is an acyclic lattice of
    states ``(position, grammar state)`` whose every transition advances the
    position by one and reads one ``(position, tag)`` cell of a weight
    matrix: ``n`` copies of this layer, so the dynamic programs read ``n``
    from the weights.  The grammar states are those of the minimal DFA of
    the grammar's language, numbered as :func:`minimize` does, then a dead
    state ``S``, the successor of every undefined step and of itself, never
    final.  The table holds the initial state, that complete successor
    table, the final-state mask, and the edges three ways, each kept in
    ``(src, tag, dst)`` order within a group:

    - ``two_way`` (a :class:`SlotTable`) runs the forward and the backward
      chart in one pass over ``2 * (S + 1)`` columns: the edges into each
      state, reading their source and the word's tag (rows ``0..9`` of the
      step's word weights), the dead state ``S`` without edges, then the
      edges out of each state, from column ``S + 1 + src``, reading their
      target at ``S + 1 + dst`` and the tag of the word read right to left
      (rows ``10..19``); the backward half's dead state, the last column,
      has no slots, and the pads of each half read its own dead state;
    - ``reverse`` is that backward half alone, over ``S + 1`` columns, its
      word rows ``0..9``;
    - ``by_tag`` holds the edges grouped by tag (see :class:`EdgeGroups`),
      for the marginals.

    Every array is read-only.
    """

    num_grammar_states: int
    initial: int
    next_state: np.ndarray  # (S + 1, NUM_TAGS) int, S where undefined and in row S
    final_mask: np.ndarray  # (S + 1,) bool, False at S
    two_way: SlotTable  # edges by target, then by source: one pass of prefix and suffix sums
    reverse: SlotTable  # edges by source: a state's suffix sum reads its successors
    by_tag: EdgeGroups  # edges by tag: a tag's marginal sums its edges


@functools.cache
def build_lattice(grammar: Automaton) -> Lattice:
    """The compiled table of a deterministic, epsilon-free grammar.

    It is built once per grammar: repeated calls return the same object.  A
    sentence length with no accepting path is reported by the dynamic
    programs of :mod:`disctag.inference`, which raise
    :class:`~disctag.errors.EmptyLanguage`; a grammar that accepts nothing
    at all raises it here, from :func:`minimize`.
    """
    if not grammar.is_deterministic:
        raise ValueError("intersection requires a deterministic, epsilon-free grammar")
    minimal = minimize(grammar)
    states = minimal.num_states
    edges = np.array(
        sorted((src, label.index, dst) for src, label, _, dst in minimal.transitions),
        dtype=np.int64,
    ).reshape(-1, 3)
    next_state = np.full((states + 1, NUM_TAGS), states, dtype=np.int64)  # undefined: the dead state
    next_state[edges[:, 0], edges[:, 1]] = edges[:, 2]
    final_mask = np.zeros(states + 1, dtype=bool)
    final_mask[list(minimal.finals)] = True
    src, tag, dst = edges.T
    back = states + 1  # the backward half's first column
    tables = (
        SlotTable.of(
            np.concatenate([dst, back + src]),
            np.concatenate([src, back + dst]),
            np.concatenate([tag, NUM_TAGS + tag]),
            np.repeat([states, 2 * states + 1], [states + 1, states]),
        ),
        SlotTable.of(src, dst, tag, np.full(states, states)),
        EdgeGroups.of(edges, 1, NUM_TAGS, states),
    )
    for array in (next_state, final_mask) + tuple(a for table in tables for a in vars(table).values()):
        array.flags.writeable = False
    return Lattice(states, minimal.initial, next_state, final_mask, *tables)


def _ragged_walk(states: np.ndarray, step, data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``states`` carried on over the ranges ``data[starts:starts + lengths]``,
    one element of every range at a time.

    The ranges run longest first, ties in place, so the ones still running at
    offset ``j`` are a prefix of that order: ``step(live, elements)`` updates
    those states in place from their ``j``-th elements, once per offset.
    Returns the final states in the order given.
    """
    # descending by length, ties in place: a stable sort of an unsigned key
    # no wider than 16 bits is numpy's radix sort
    top = int(lengths.max(initial=0))
    order = np.argsort((top - lengths).astype(np.min_scalar_type(top)), kind="stable")
    starts = starts[order]
    longer = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # longer[j]: ranges of more than j elements
    states = states[order]
    for j, count in enumerate(longer.tolist()):
        step(states[:count], data[starts[:count] + j])
    out = np.empty_like(states)
    out[order] = states
    return out


def export_text(a: Automaton) -> str:
    """Line-based dump: initial/final headers, then one transition per line.

    Transitions are written ``src label weight dst`` with ``<eps>`` for the
    empty label, sorted for reproducible golden files.
    """
    lines = [f"initial {a.initial}"]
    lines += [f"final {q}" for q in sorted(a.finals)]
    def key(tr):
        src, label, _, dst = tr
        return (src, -1 if label is None else label.index, dst)
    for src, label, w, dst in sorted(a.transitions, key=key):
        sym = "<eps>" if label is None else label.symbol
        lines.append(f"{src} {sym} {w!r} {dst}")
    return "\n".join(lines) + "\n"
