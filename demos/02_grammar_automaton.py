"""The grammar automaton and its intersection with a sentence.

The grammar is a small cyclic DFA accepting exactly the well-formed tag
sequences of any length.  Intersecting it with an n-word sentence gives an
acyclic lattice whose accepting paths are the well-formed sequences of length
n, with one transition batch per word: inference cost is linear in n.  That
batch does not depend on n, so only it is built: ``build_lattice`` compiles it
once per grammar, from the minimal DFA of its language, and the dynamic
programs read n from the weight matrix.
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

# The language, counted two ways with the same grammar: by walking its minimal
# DFA over every sequence (is_well_formed) and by lattice paths, since over
# zero weights the log-partition is the log of the number of accepting paths.
# One table serves every length.
table = build_lattice(semantic)
print("\n n  well-formed  lattice-paths")
for n in range(1, 5):
    brute = sum(1 for seq in itertools.product(TAGS, repeat=n) if is_well_formed(seq))
    paths = round(math.exp(forward(table, np.zeros((n, NUM_TAGS)))))
    print(f"{n:2d}  {brute:11d}  {paths:13d}")

# Lattice size grows exactly linearly with the sentence: n copies of the
# table's edges, those of the minimal DFA: the successors that are not the
# dead state, which the table adds after the DFA's states.
edges = int((table.next_state != table.num_grammar_states).sum())
print(f"table: {table.num_grammar_states} states, {edges} edges")
for n in (8, 16, 32):
    print(f"lattice transitions at n={n:2d}: {n * edges}")
# The table is compiled on the first call for a grammar; later calls return it.
print("table built once per grammar:", build_lattice(grammar_automaton("semantic")) is table)

# Text export, e.g. for graph tooling; here just the first lines.
print("\nexport preview:")
print("\n".join(export_text(minimal).splitlines()[:8]))
