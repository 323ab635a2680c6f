import itertools

import pytest

from disctag.scheme import TAGS, encode, is_well_formed


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
        out.append(encode(ann.with_flips(flips)))
    return out


def fnv1a_reference(text: str) -> int:
    """64-bit FNV-1a of the UTF-8 bytes of ``text``, one byte at a time.

    The oracle for the vectorised hash of :func:`disctag.model.fnv1a`.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
