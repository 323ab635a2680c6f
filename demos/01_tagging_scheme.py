"""Tagging scheme walkthrough: mentions <-> two-layer structure <-> tags.

The sentence "pain in arms and shoulders" carries two overlapping mentions,
"pain in arms" and "pain in shoulders".  They share words, so they are grouped
into one *set of mentions* made of typed components; the set reconstructs as
the Cartesian product of its x-components with its y-components.
"""

from disctag import (
    Mention,
    decode,
    encode,
    from_two_layer,
    is_well_formed,
    to_two_layer,
)
from disctag.errors import Incompatible
from disctag.scheme import TagSequence

tokens = "pain in arms and shoulders".split()
mentions = {
    Mention(((0, 2),)),          # pain in arms (continuous)
    Mention(((0, 1), (4, 4))),   # pain in ... shoulders (discontinuous)
}

print("tokens: ", " ".join(tokens))
for m in sorted(mentions):
    print(f"mention {m}: {' / '.join(' '.join(tokens[b:e+1]) for b, e in m.fragments)}")

# Group into the two-layer representation.
ann = to_two_layer(mentions, n=len(tokens))
(group,) = ann.sets
print("\nset span:", group.span, "gap words:", group.gaps)
for c in group.components:
    print(f"  component [{c.start},{c.end}] {' '.join(tokens[c.start:c.end+1])!r} typed {c.ctype.value}")

# The product of x- and y-components gives the mentions back.
assert from_two_layer(ann) == frozenset(mentions)

# Encode to one tag per word, and decode back.
tags = encode(ann)
print("\nencoding:", tags.symbols())
assert decode(tags) == frozenset(mentions)

# Well-formedness: the grammar rejects the sequences that no annotation produces.
for text in (
    "DB-Bx DI-Ix DI-By DI-O DI-By",  # the encoding above
    "O CI O O O",                    # CI without CB
    "DB-Bx DI-By O O O",             # would decode to a single continuous mention
    "DB-Bx DI-O DI-By DI-O O",       # a set cannot end on a gap
):
    ts = TagSequence.from_symbols(text)
    print(f"well-formed({text!r}) = {is_well_formed(ts)}")

# Not everything is expressible: a mention split into three components is
# reported as incompatible with a machine-readable reason.
try:
    to_two_layer({Mention(((0, 1), (3, 3), (5, 5)))}, n=6)
except Incompatible as err:
    print("\nincompatible:", err)
