"""Weighted finite-state automata and the grammar/sentence intersection.

The grammar automaton is a small cyclic machine whose language is exactly the
set of well-formed tag sequences of any length (see :mod:`disctag.scheme`).
Intersecting it with the trivial sentence automaton of an ``n``-word sentence
yields an acyclic lattice whose accepting paths are the well-formed sequences
of length ``n``; all dynamic programs run on that lattice.  The lattice is
``n`` copies of one time-invariant transition table, which is compiled once
per grammar and shared by the lattices of every length: a dense successor
table, and the grammar's edges grouped three ways (:class:`EdgeGroups`), by
source for the backward chart, by target for the forward chart and by tag
for the marginals.  The dynamic programs of :mod:`disctag.inference`, the
path sampler ``random_well_formed`` included, sum over edges only through one
``reduceat`` over one of these groupings.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLanguage
from .scheme import (
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
)

__all__ = [
    "Automaton",
    "Lattice",
    "EdgeGroups",
    "grammar_automaton",
    "remove_epsilon",
    "determinize",
    "minimize",
    "build_lattice",
    "export_text",
]

EPSILON = None  # transition label for the empty emission

Transition = tuple[int, "Tag | None", float, int]


@dataclass(frozen=True, eq=False)
class EdgeGroups:
    """A grammar's edges ``(src, tag, dst)``, grouped by source, tag or target.

    The edges of key ``k`` are the run ``bounds[k]:bounds[k + 1]``, in
    ``(src, tag, dst)`` order.  A key with no edge gets one dead edge from and
    to the dead state ``S`` (one past the last), whose chart entries stay
    zero.  Any sum over edges, such as one chart step, is then one gather and
    one ``reduceat``, whatever the batch.
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


@dataclass(frozen=True)
class Automaton:
    """A weighted finite-state automaton over the 10 tags.

    States are dense integers ``0..num_states-1``.  Transitions are
    ``(source, label, weight, target)`` with ``label`` either a
    :class:`~disctag.scheme.Tag` or ``None`` for an epsilon transition.
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
        for src, label, _, dst in self.transitions:
            if src not in states or dst not in states:
                raise ValueError("transition endpoint out of range")
            if label is not None and not isinstance(label, Tag):
                raise ValueError(f"label {label!r} is not a tag")

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

    @functools.cached_property
    def _table(self) -> tuple:
        """Read-only ``(next_state, final_mask, backward, forward, by_tag)``.

        The transition table of a deterministic, epsilon-free automaton: the
        dense successor table (``-1`` where undefined), the final-state mask,
        and the edges grouped by source for the backward chart step, by
        target for the forward one and by tag for the marginals (see
        :class:`EdgeGroups`).  It is built on first use and shared by every
        lattice of this automaton.
        """
        if not self.is_deterministic:
            raise ValueError("intersection requires a deterministic, epsilon-free grammar")
        edges = np.array(
            sorted((src, label.index, dst) for src, label, _, dst in self.transitions),
            dtype=np.int64,
        ).reshape(-1, 3)
        next_state = np.full((self.num_states, NUM_TAGS), -1, dtype=np.int64)
        next_state[edges[:, 0], edges[:, 1]] = edges[:, 2]
        final_mask = np.zeros(self.num_states, dtype=bool)
        final_mask[list(self.finals)] = True
        states = self.num_states
        groups = (
            EdgeGroups.of(edges, 0, states, states),
            EdgeGroups.of(edges, 2, states, states),
            EdgeGroups.of(edges, 1, NUM_TAGS, states),
        )
        for array in (next_state, final_mask) + tuple(a for g in groups for a in vars(g).values()):
            array.flags.writeable = False
        return (next_state, final_mask) + groups

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
    """Language-preserving epsilon removal (all weights must be zero)."""
    if any(w != 0.0 for _, _, w, _ in a.transitions):
        raise ValueError("epsilon removal requires all-zero weights")
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
    """Acyclic intersection of the grammar with an ``n``-word sentence.

    States are pairs ``(position, grammar state)`` with ``position`` in
    ``0..n``; every transition advances the position by one and reads the
    score of one ``(position, tag)`` cell of a weight matrix.  The grammar
    part is time-invariant, so only ``n`` is per sentence: ``next_state`` is
    the dense successor table of the (deterministic) grammar, and
    ``backward``, ``forward`` and ``by_tag`` group its edges for the
    dynamic programs.  These arrays are the grammar's compiled table,
    read-only and shared by the lattices of every length.
    """

    n: int
    num_grammar_states: int
    initial: int
    next_state: np.ndarray  # (S, NUM_TAGS) int, -1 where undefined
    final_mask: np.ndarray  # (S,) bool
    backward: EdgeGroups  # edges by source: a state's suffix sum reads its successors
    forward: EdgeGroups  # edges by target: a state's prefix sum reads its predecessors
    by_tag: EdgeGroups  # edges by tag: a tag's marginal sums its edges


def build_lattice(grammar: Automaton, n: int) -> Lattice:
    """Intersection lattice for a sentence of ``n`` words.

    Constant time: the lattice attaches ``n`` to the grammar's compiled
    table.  A length with no accepting path is reported by the dynamic
    programs of :mod:`disctag.inference`, which raise
    :class:`~disctag.errors.EmptyLanguage`.
    """
    return Lattice(n, grammar.num_states, grammar.initial, *grammar._table)


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
