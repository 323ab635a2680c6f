import itertools

import pytest

from disctag.scheme import TAGS, SentenceAnnotation, encode, is_well_formed


class WellFormedLanguage:
    """Brute-force enumeration of well-formed tag sequences, cached per length.

    This is the independent oracle for everything automaton- or DP-based:
    it only relies on the rule checker, never on the grammar automaton.
    """

    def __init__(self):
        self._cache: dict[int, tuple[tuple, ...]] = {}

    def sequences(self, n: int) -> tuple[tuple, ...]:
        if n not in self._cache:
            self._cache[n] = tuple(
                seq for seq in itertools.product(TAGS, repeat=n) if is_well_formed(seq)
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


def accepting_sequences(lattice) -> set:
    """The tag sequences spelled by the accepting paths of ``lattice``.

    Walks every path of the successor table from the initial state, so it
    relies on no dynamic program; small ``n`` only.
    """
    paths = [((), lattice.initial)]
    for _ in range(lattice.n):
        paths = [
            (seq + (tag,), int(lattice.next_state[q, tag.index]))
            for seq, q in paths
            for tag in TAGS
            if lattice.next_state[q, tag.index] >= 0
        ]
    return {seq for seq, q in paths if lattice.final_mask[q]}


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
