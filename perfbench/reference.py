"""Output checks of the disctag benchmark.

The reference Viterbi score is the benchmark's own plain-Python max-sum
dynamic program over the grammar automaton's transition list; it shares no
code with :mod:`disctag.inference`.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_TOLERANCE = 1e-9  # relative; the two sums add the same terms in another order
MODE = "semantic"  # the grammar variant the benchmark's commands use (the CLI default)


def max_sum_score(automaton, weights: np.ndarray) -> float:
    """Best total weight of an accepted tag sequence of length ``len(weights)``."""
    edges = [(src, label.index, w, dst) for src, label, w, dst in automaton.transitions]
    best = {automaton.initial: 0.0}
    for row in np.asarray(weights, dtype=np.float64).tolist():
        nxt: dict[int, float] = {}
        for src, tag, arc, dst in edges:
            prev = best.get(src)
            if prev is None:
                continue
            value = prev + arc + row[tag]
            if value > nxt.get(dst, -math.inf):
                nxt[dst] = value
        best = nxt
    return max((best[q] for q in automaton.finals if q in best), default=-math.inf)


def reencodes(disctag, mentions, n: int) -> bool:
    """True when a predicted mention set encodes to a well-formed sequence that decodes back."""
    scheme = disctag.scheme
    try:
        ts = scheme.encode(scheme.to_two_layer(mentions, n))
    except (disctag.errors.DisctagError, ValueError):
        return False
    return scheme.is_well_formed(ts) and scheme.decode(ts) == frozenset(mentions)


def check_predictions(disctag, pred_path, inputs, scorer, sample: list[int]):
    """Indices of sentences whose prediction fails a check, and one-line reasons.

    Every sentence must keep its tokens and re-encode.  On the sampled
    sentences, ``predict_tags`` must reach the reference max-sum score and
    decode to the mentions written by the command.
    """
    try:
        records = disctag.corpus.read_corpus(pred_path)
    except (disctag.errors.DisctagError, OSError) as err:
        return set(range(len(inputs))), [f"output unreadable: {err}"]
    if len(records) != len(inputs):
        return set(range(len(inputs))), [f"{len(records)} records for {len(inputs)} sentences"]
    failed: set[int] = set()
    reasons: list[str] = []
    for i, (record, sentence) in enumerate(zip(records, inputs)):
        if record.tokens != sentence.tokens:
            failed.add(i)
            reasons.append(f"sentence {i}: tokens changed")
        elif not reencodes(disctag, record.mentions, record.n):
            failed.add(i)
            reasons.append(f"sentence {i}: mentions do not re-encode")
    grammar = disctag.automata.grammar_automaton(MODE)
    for i in sample:
        tokens = inputs[i].tokens
        weights = scorer.score(tokens)
        ts = disctag.model.predict_tags(scorer, tokens, MODE)
        got = float(weights[np.arange(len(tokens)), ts.indices].sum())
        want = max_sum_score(grammar, weights)
        if not abs(got - want) <= SCORE_TOLERANCE * max(1.0, abs(want)):
            failed.add(i)
            reasons.append(f"sentence {i}: predict_tags score {got!r} != max-sum {want!r}")
        elif disctag.scheme.decode(ts) != records[i].mentions:
            failed.add(i)
            reasons.append(f"sentence {i}: written mentions differ from predict_tags")
    return failed, reasons
