"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from disctag.automata import (
    build_lattice,
    determinize,
    grammar_automaton,
    minimize,
    remove_epsilon,
)
from disctag.corpus import benchmark_predict, evaluate, read_corpus
from disctag.errors import IllFormed
from disctag.inference import (
    PartialLabelSet,
    clamped_log_partition,
    clamped_marginals,
    forward,
    hard_em_step,
    marginals,
    nll,
    partial_nll,
    random_well_formed,
    sequence_score,
    viterbi,
)
from disctag.model import (
    LinearScorer,
    TrainConfig,
    predict_tags,
    train,
)
from disctag.scheme import (
    NUM_TAGS,
    Mention,
    decode,
    encode,
    to_two_layer,
)

from conftest import accepting_sequences, admissible_sequences, is_well_formed_reference, with_flips, write_corpus

GRAMMAR = grammar_automaton("semantic")
README_PATH = __file__.rsplit("/", 2)[0] + "/README.md"


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


LATTICE = build_lattice(GRAMMAR)


def random_instances(count, seed, max_n=8, min_n=2):
    """(n, weights, annotation, gold) tuples for gradient-style checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(min_n, max_n + 1))
        seq = random_well_formed(LATTICE, n, rng)
        ann = to_two_layer(decode(seq), n)
        w = rng.uniform(-2.0, 2.0, size=(n, NUM_TAGS))
        out.append((n, w, ann, encode(ann)))
    return out


def central_difference(f, w, eps=1e-3):
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for t in range(w.shape[1]):
            up, down = w.copy(), w.copy()
            up[i, t] += eps
            down[i, t] -= eps
            grad[i, t] = (f(up) - f(down)) / (2 * eps)
    return grad


def max_relative_error(analytic, fd):
    return float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)))


def test_criterion_01_language_equivalence(language):
    start = time.perf_counter()
    for n in range(1, 7):
        expected = language.as_set(n)
        got = frozenset(accepting_sequences(LATTICE, n))
        assert got == expected, f"mismatch at n={n}"
    elapsed = time.perf_counter() - start
    report(
        1,
        "lattice paths equal rule-checker language for n=1..6",
        elapsed < 120.0,
        f"exhaustive over 10^1..10^6 sequences in {elapsed:.1f}s",
    )


def test_criterion_02_canonical_automaton_size(language):
    minimal = minimize(determinize(remove_epsilon(grammar_automaton("semantic"))))
    count = minimal.num_states
    if count == 22:
        report(2, "minimized grammar automaton has 22 states", True)
        return
    # Fallback: language equivalence stays authoritative and the measured
    # count must be recorded in the project docs.
    for n in range(1, 7):
        got = frozenset(accepting_sequences(build_lattice(minimal), n))
        assert got == language.as_set(n), f"minimized automaton differs at n={n}"
    with open(README_PATH, encoding="utf-8") as handle:
        documented = f"{count} states" in handle.read()
    report(
        2,
        "automaton size (fallback: language-equivalent, count documented)",
        documented,
        f"minimized to {count} states instead of 22; see README",
    )


def test_criterion_03_forward_oracle(language):
    assert forward(LATTICE, np.zeros((1, NUM_TAGS))) == pytest.approx(math.log(2), abs=1e-9)
    assert forward(LATTICE, np.zeros((2, NUM_TAGS))) == pytest.approx(math.log(5), abs=1e-9)
    rng = np.random.default_rng(301)
    worst = 0.0
    for n in range(1, 7):
        seqs = language.sequences(n)
        idx = np.array([[t.index for t in seq] for seq in seqs])
        for _ in range(100):
            w = rng.uniform(-3.0, 3.0, size=(n, NUM_TAGS))
            scores = w[np.arange(n), idx].sum(axis=1)
            brute = scores.max() + math.log(np.exp(scores - scores.max()).sum())
            worst = max(worst, abs(forward(LATTICE, w) - brute))
    report(3, "forward equals brute-force log-sum-exp", worst <= 1e-6, f"max abs err {worst:.2e}")


def test_criterion_04_viterbi_oracle(language):
    rng = np.random.default_rng(401)
    for n in range(1, 7):
        seqs = language.sequences(n)
        idx = np.array([[t.index for t in seq] for seq in seqs])
        for _ in range(100):
            w = rng.uniform(-3.0, 3.0, size=(n, NUM_TAGS))
            scores = w[np.arange(n), idx].sum(axis=1)
            score, ts = viterbi(LATTICE, w)
            assert score == scores.max(), f"inexact max at n={n}"
            assert is_well_formed_reference(ts)
            assert sequence_score(w, ts) == score
    report(4, "viterbi equals brute-force max exactly", True)


def test_criterion_05_gradient_checks():
    instances = random_instances(50, seed=501)
    worst = {"marginals": 0.0, "clamped": 0.0, "nll": 0.0, "partial": 0.0}
    for n, w, ann, gold in instances:
        pl = PartialLabelSet.from_annotation(ann)
        fd = central_difference(lambda v: forward(LATTICE, v), w)
        worst["marginals"] = max(worst["marginals"], max_relative_error(marginals(LATTICE, w), fd))
        fd = central_difference(lambda v: clamped_log_partition(pl, v), w)
        worst["clamped"] = max(worst["clamped"], max_relative_error(clamped_marginals(pl, w), fd))
        fd = central_difference(lambda v: nll(LATTICE, v, gold)[0], w)
        worst["nll"] = max(worst["nll"], max_relative_error(nll(LATTICE, w, gold)[1], fd))
        fd = central_difference(lambda v: partial_nll(LATTICE, v, pl)[0], w)
        worst["partial"] = max(worst["partial"], max_relative_error(partial_nll(LATTICE, w, pl)[1], fd))
    ok = all(v <= 1e-4 for v in worst.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    report(5, "gradients match central finite differences", ok, detail)


def test_criterion_06_partial_label_structure():
    rng = np.random.default_rng(601)
    for k in range(6):
        mentions = [
            Mention(((4 * i, 4 * i), (4 * i + 2, 4 * i + 2))) for i in range(k)
        ]
        n = max(4 * k, 2)
        ann = to_two_layer(mentions, n)
        pl = PartialLabelSet.from_annotation(ann)
        members = admissible_sequences(ann)
        assert len(pl) == len(members) == 2**k
        assert len({m.tags for m in members}) == 2**k
        assert len({decode(m) for m in members}) == 1
        for _ in range(10):
            w = rng.uniform(-2.0, 2.0, size=(n, NUM_TAGS))
            scores = np.array([sequence_score(w, m) for m in members])
            loss, _ = partial_nll(LATTICE, w, pl)
            assert loss >= 0.0
            assert loss == pytest.approx(forward(LATTICE, w) - np.logaddexp.reduce(scores), abs=1e-12)
            if k == 0:
                assert loss == pytest.approx(nll(LATTICE, w, members[0])[0], abs=1e-12)
            _, _, chosen = hard_em_step(LATTICE, w, pl)
            assert chosen.tags == members[int(np.argmax(scores))].tags
    report(6, "partial-label sets have 2^k members with consistent losses", True)


def test_criterion_07_soundness_fuzz():
    rng = np.random.default_rng(701)
    dim = 128
    failures = 0
    for _ in range(10_000):
        scorer = LinearScorer(dim=dim, params=rng.normal(0.0, 2.0, size=(dim, NUM_TAGS)))
        n = int(rng.integers(1, 41))
        tokens = [f"w{rng.integers(10_000)}" for _ in range(n)]
        try:
            ts = predict_tags(scorer, tokens, "semantic")
            decode(ts)
        except IllFormed:
            failures += 1
    report(7, "10^4 random scorers always decode", failures == 0, f"{failures} failures")


def test_criterion_08_round_trips(language, tmp_path):
    for n in range(1, 7):
        preimages = {}
        for seq in language.sequences(n):
            mentions = decode(seq)
            preimages.setdefault(mentions, set()).add(tuple(seq))
            ann = to_two_layer(mentions, n)
            k = len(ann.sets)
            orbit = {
                encode(with_flips(ann, flips)).tags
                for flips in itertools.product((False, True), repeat=k)
            }
            assert len(orbit) == 2**k
            assert tuple(seq) in orbit
            assert all(decode(member) == mentions for member in orbit)
        # bijection up to type flip: the orbit is the whole preimage
        for mentions, seqs in preimages.items():
            assert len(seqs) == 2 ** len(to_two_layer(mentions, n).sets)
    golden = tmp_path / "golden.txt"
    golden.write_text(
        "pain in arms and shoulders\n0-1;4-4|0-2\n\nnothing here\n\n",
        encoding="utf-8",
    )
    records = read_corpus(golden)
    copy = tmp_path / "copy.txt"
    write_corpus(records, copy)
    assert read_corpus(copy) == records
    assert copy.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")
    report(8, "encode/decode bijection up to type flip; corpus round-trip", True)


def _toy_corpus(count=50, seed=901):
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        n = int(rng.integers(4, 11))
        seq = random_well_formed(LATTICE, n, rng)
        ann = to_two_layer(decode(seq), n)
        gold = encode(ann)
        tokens = tuple(f"t{t.index}w{rng.integers(3)}" for t in gold)
        corpus.append((tokens, gold, ann))
    return corpus


def test_criterion_09_toy_training():
    corpus = _toy_corpus()
    start = time.perf_counter()
    scorer = train(
        [(tokens, ann) for tokens, _, ann in corpus],
        TrainConfig(loss="nll", epochs=20, learning_rate=0.5, seed=0),
        mode="semantic",
        dim=2**14,
    )
    nll_seconds = time.perf_counter() - start
    exact = sum(
        predict_tags(scorer, tokens, "semantic").tags == gold.tags
        for tokens, gold, _ in corpus
    )
    assert nll_seconds < 30.0, f"nll training took {nll_seconds:.1f}s"

    start = time.perf_counter()
    scorer = train(
        [(tokens, ann) for tokens, _, ann in corpus],
        TrainConfig(loss="partial", epochs=20, learning_rate=0.5, seed=0),
        mode="semantic",
        dim=2**14,
    )
    partial_seconds = time.perf_counter() - start
    gold_sets = [decode(gold) for _, gold, _ in corpus]
    predicted = [
        decode(predict_tags(scorer, tokens, "semantic")) for tokens, _, _ in corpus
    ]
    f1 = evaluate(gold_sets, predicted).f1
    assert partial_seconds < 30.0, f"partial training took {partial_seconds:.1f}s"
    report(
        9,
        "toy training reaches perfect fit",
        exact == len(corpus) and f1 == 1.0,
        f"nll exact-match {exact}/{len(corpus)} in {nll_seconds:.1f}s; "
        f"partial mention-F1 {f1:.3f} in {partial_seconds:.1f}s",
    )


def test_criterion_10_linear_time_scaling():
    results = {r.length: r.median_seconds for r in benchmark_predict([64, 128, 256, 512], repeats=5, seed=0)}
    ratios = {m: results[2 * m] / results[m] for m in (64, 128, 256)}
    ok = all(r <= 2.5 for r in ratios.values())
    detail = ", ".join(f"t(2*{m})/t({m})={r:.2f}" for m, r in ratios.items())
    report(10, "prediction time scales linearly", ok, detail)
