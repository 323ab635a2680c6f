"""Learning when component types are unobserved.

Corpora annotate mentions, not component types: nothing says which side of a
set is the body part and which is the event.  Flipping a set's x/y assignment
leaves its mentions unchanged, so a sentence with k sets has 2^k admissible
gold sequences.  Training can marginalise over them (partial NLL), clamp to
the best one (hard EM), or resolve them beforehand with a lexicon (silver
typing).  The sums over the 2^k sequences factorise per set, so training
never lists them; this demo lists them only to show them.
"""

import itertools

import numpy as np

from disctag import (
    Lexicon,
    Mention,
    PartialLabelSet,
    SentenceAnnotation,
    annotate,
    build_lattice,
    clamped_log_partition,
    encode,
    forward,
    grammar_automaton,
    hard_em_step,
    nll,
    partial_nll,
    sequence_score,
    silver_type,
)
from disctag.corpus import CorpusRecord

tokens = "pain in arms and shoulders , also nausea".split()
record = CorpusRecord(
    tuple(tokens),
    frozenset({
        Mention(((0, 2),)),
        Mention(((0, 1), (4, 4))),
        Mention(((7, 7),)),
    }),
)
ann = annotate(record)
pl = PartialLabelSet.from_annotation(ann)
members = [
    encode(SentenceAnnotation(ann.n, ann.continuous, tuple(s.flipped() if f else s for s, f in zip(ann.sets, flips))))
    for flips in itertools.product((False, True), repeat=len(ann.sets))
]
print(f"{len(ann.sets)} set(s) of mentions -> {len(pl)} admissible tag sequences:")
for member in members:
    print("  ", member.symbols())

rng = np.random.default_rng(1)
weights = rng.normal(0.0, 1.0, size=(len(tokens), 10))
lattice = build_lattice(grammar_automaton("semantic"))  # one table, for sentences of any length

loss, grad = partial_nll(lattice, weights, pl)
print("\npartial NLL:", round(loss, 4))
print("  = log-partition - clamped log-partition:",
      round(forward(lattice, weights), 4), "-",
      round(clamped_log_partition(pl, weights), 4))

em_loss, _, chosen = hard_em_step(lattice, weights, pl)
print("hard-EM clamps to:", chosen.symbols())
print("hard-EM loss:", round(em_loss, 4), ">= partial loss:", round(loss, 4))
for member in members:
    assert sequence_score(weights, chosen) >= sequence_score(weights, member)

# Silver typing: one lexicon match orients a whole set, removing its flip.
lexicon = Lexicon.from_entries(["arms", "shoulders", "legs"])
typed = silver_type(ann, record.tokens, lexicon)
resolved = PartialLabelSet.from_annotation(typed)
print(f"\nafter silver typing: {len(resolved)} admissible sequence(s)")
print("  ", resolved.gold.symbols())
supervised, _ = nll(lattice, weights, resolved.gold)
print("plain NLL on the disambiguated gold:", round(supervised, 4))
