"""Exact MAP and marginal inference on the tag lattice.

Viterbi and Forward are the same dynamic program in two semirings: tropical
(max, +) finds the best well-formed sequence, log (logaddexp, +) computes the
log-partition whose gradient is the table of posterior tag marginals.
"""

import numpy as np

from disctag import (
    build_lattice,
    decode,
    forward,
    grammar_automaton,
    marginals,
    nll,
    sequence_score,
    viterbi,
)
from disctag.scheme import TAGS, TagSequence

rng = np.random.default_rng(42)
n = 6
grammar = grammar_automaton("semantic")
weights = rng.normal(0.0, 1.5, size=(n, 10))
lattice = build_lattice(grammar)  # the grammar's table; each program reads n from the weights

score, best = viterbi(lattice, weights)
print("MAP sequence:", best.symbols())
print("MAP score:   ", round(score, 4), "=", round(sequence_score(weights, best), 4))
print("decodes to:  ", sorted(decode(best)) or "(no mentions)")

log_z = forward(lattice, weights)
print("\nlog-partition:", round(log_z, 4))
print("MAP probability:", round(np.exp(score - log_z), 4))

post = marginals(lattice, weights)
print("\nposterior marginals (rows sum to 1):")
header = "  ".join(f"{t.symbol:>6}" for t in TAGS)
print("     " + header)
for i in range(n):
    print(f"w{i}:  " + "  ".join(f"{post[i, t]:6.3f}" for t in range(10)))

# Training signal: NLL of a gold sequence and its exact gradient.
gold = TagSequence.from_symbols("O CB CI DB-Bx DI-O DI-By")
loss, grad = nll(lattice, weights, gold)
print("\nNLL of", gold.symbols(), "=", round(loss, 4))
print("gradient = marginals - onehot(gold); max |entry| =", round(float(np.abs(grad).max()), 4))

# The marginals are literally the gradient of the log-partition.
eps, i, t = 1e-4, 2, 1
bumped = weights.copy()
bumped[i, t] += eps
fd = (forward(lattice, bumped) - log_z) / eps
print(f"finite difference at (word {i}, tag {TAGS[t].symbol}): {fd:.6f} vs marginal {post[i, t]:.6f}")
