"""The grammar automaton and its intersection with a sentence.

The grammar is a small cyclic DFA accepting exactly the well-formed tag
sequences of any length.  Intersecting it with an n-word sentence gives an
acyclic lattice whose accepting paths are the well-formed sequences of length
n, with one transition batch per word: inference cost is linear in n.  That
batch does not depend on n, so it is compiled once per grammar and every
lattice shares it.
"""

import itertools
import math

import numpy as np

from disctag import (
    build_lattice,
    determinize,
    export_text,
    forward,
    grammar_automaton,
    is_well_formed,
    minimize,
    remove_epsilon,
)
from disctag.scheme import NUM_TAGS, TAGS

semantic = grammar_automaton("semantic")
print("semantic grammar:", semantic.num_states, "states,", len(semantic.transitions), "transitions")
print("deterministic:", semantic.is_deterministic, "| epsilon-free:", semantic.is_epsilon_free)

minimal = minimize(determinize(remove_epsilon(semantic)))
print("minimal DFA:", minimal.num_states, "states")

structural = grammar_automaton("structural")
print("structural grammar:", structural.num_states, "states (leftmost component forced to x)")

# The language, counted by brute force vs. by lattice paths: over zero weights
# the log-partition is the log of the number of accepting paths.
print("\n n  well-formed  lattice-paths")
for n in range(1, 5):
    brute = sum(1 for seq in itertools.product(TAGS, repeat=n) if is_well_formed(seq))
    paths = round(math.exp(forward(build_lattice(semantic, n), np.zeros((n, NUM_TAGS)))))
    print(f"{n:2d}  {brute:11d}  {paths:13d}")

# Lattice size grows exactly linearly with the sentence, over one shared table.
for n in (8, 16, 32):
    print(f"lattice transitions at n={n:2d}: {n * len(semantic.transitions)}")
shared = build_lattice(semantic, 8).next_state is build_lattice(semantic, 32).next_state
print("successor table shared across lengths:", shared)

# Text export, e.g. for graph tooling; here just the first lines.
print("\nexport preview:")
print("\n".join(export_text(minimal).splitlines()[:8]))
