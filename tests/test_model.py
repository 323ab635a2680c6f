import numpy as np
import pytest

from disctag import model
from disctag.automata import build_lattice, grammar_automaton
from disctag.errors import ConfigError
from disctag.inference import nll, random_well_formed
from disctag.model import (
    FEATURES,
    LinearScorer,
    TrainConfig,
    fnv1a,
    predict,
    predict_batch,
    predict_tags,
    sentence_features,
    train,
)
from disctag.scheme import (
    CB,
    CI,
    NUM_TAGS,
    O,
    TAGS,
    decode,
    encode,
    is_well_formed,
    to_two_layer,
)

from conftest import fnv1a_reference

# ASCII, two-byte, three-byte and four-byte UTF-8, and a NUL byte
VOCABULARY = ["pain", "in", "Arms", "é", "café", "日本語", "語", "😀", "x😀y", "a\x00", "", "ÉTÉ"]


def random_sentences(rng, lengths):
    return [tuple(VOCABULARY[i] for i in rng.integers(len(VOCABULARY), size=n)) for n in lengths]


def synthetic_corpus(count, seed=0, min_len=4, max_len=10, continuous_only=False):
    """Sentences with per-tag trigger tokens, so a linear model can fit exactly.

    The gold sequence is the canonical (leftmost-component-x) encoding of the
    sampled annotation, and each token name encodes its gold tag index.
    """
    rng = np.random.default_rng(seed)
    grammar = grammar_automaton("semantic")
    lattices = {n: build_lattice(grammar, n) for n in range(min_len, max_len + 1)}
    out = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        if continuous_only:
            tags, ci_ok = [], False
            for _ in range(n):
                options = (O, CB, CI) if ci_ok else (O, CB)
                t = options[int(rng.integers(len(options)))]
                tags.append(t)
                ci_ok = t is not O
            seq = tuple(tags)
        else:
            seq = random_well_formed(lattices[n], rng)
        ann = to_two_layer(decode(seq), n)
        gold = encode(ann)
        tokens = tuple(f"t{t.index}w{rng.integers(3)}" for t in gold)
        out.append((tokens, gold, ann))
    return out


class TestFeatures:
    def test_window_and_affixes(self):
        feats = sentence_features(["Pain", "in", "Arms"])[1]
        assert feats == ["w=in", "w-1=pain", "w+1=arms", "pre=in", "suf=in"]

    def test_boundary_markers(self):
        feats = sentence_features(["solo"])[0]
        assert "w-1=<bos>" in feats and "w+1=<eos>" in feats


class TestFnv1a:
    def test_matches_scalar_reference(self):
        strings = [""] + VOCABULARY + [f"w={w}" for w in VOCABULARY] + ["suf=日本語😀" * 9, "w-1=<bos>"]
        got = fnv1a(strings)
        assert got.dtype == np.uint64
        assert [int(h) for h in got] == [fnv1a_reference(t) for t in strings]

    def test_reference_vectors(self):
        # published 64-bit FNV-1a values
        assert fnv1a_reference("") == 0xCBF29CE484222325
        assert fnv1a_reference("a") == 0xAF63DC4C8601EC8C
        assert int(fnv1a(["a"])[0]) == 0xAF63DC4C8601EC8C

    def test_feature_indices_hash_each_feature(self):
        tokens = ["Café", "日本語", "😀", "in"]
        rows = LinearScorer(dim=1000).feature_indices(tokens)
        want = [[fnv1a_reference(f) % 1000 for f in feats] for feats in sentence_features(tokens)]
        assert rows.shape == (len(tokens), FEATURES)
        assert rows.tolist() == want


class TestLinearScorer:
    def test_zero_params_zero_scores(self):
        s = LinearScorer(dim=64)
        assert np.array_equal(s.score(["a", "b"]), np.zeros((2, NUM_TAGS)))

    def test_deterministic(self):
        s = LinearScorer(dim=512, params=np.random.default_rng(0).normal(size=(512, NUM_TAGS)))
        tokens = ["pain", "in", "arms", "and", "shoulders"]
        assert np.array_equal(s.score(tokens), s.score(tokens))

    def test_perturbing_one_row_traces_back_to_features(self):
        dim = 1024
        s = LinearScorer(dim=dim)
        tokens = ["alpha", "beta", "gamma"]
        rows = s.feature_indices(tokens)
        target = int(rows[1][0])  # a feature hash used at position 1
        s.params[target, 4] += 2.5
        scores = s.score(tokens)
        for i, row in enumerate(rows):
            hits = np.count_nonzero(row == target)
            assert scores[i, 4] == pytest.approx(2.5 * hits)

    def test_batch_scores_bit_identical(self):
        rng = np.random.default_rng(3)
        s = LinearScorer(dim=512, params=rng.normal(size=(512, NUM_TAGS)))
        sentences = random_sentences(rng, [1, 7, 30, 2, 64, 5])
        single = np.concatenate([s.score(t) for t in sentences])
        assert np.array_equal(s.score_rows(s.batch_feature_indices(sentences)), single)
        # each word sums the rows of its features (integers, so the sum is exact in any order)
        s.params = rng.integers(-50, 50, size=(512, NUM_TAGS)).astype(float)
        feats = [f for t in sentences for row in sentence_features(t) for f in row]
        rows = s.params[[fnv1a_reference(f) % 512 for f in feats]].reshape(-1, FEATURES, NUM_TAGS)
        assert np.array_equal(s.score_rows(s.batch_feature_indices(sentences)), rows.sum(axis=1))

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            LinearScorer(dim=8).score([])

    def test_l2_decays_touched_rows_before_the_step(self):
        rng = np.random.default_rng(5)
        params = rng.normal(size=(256, NUM_TAGS))
        tokens = ["pain", "in", "arms"]
        grad = rng.normal(size=(len(tokens), NUM_TAGS))
        lr, l2 = 0.1, 0.5
        decayed = LinearScorer(dim=256, params=params.copy())
        decayed.apply_gradient(decayed.feature_indices(tokens), grad, lr, l2)
        touched = np.unique(np.concatenate(decayed.feature_indices(tokens)))
        untouched = np.setdiff1d(np.arange(256), touched)
        assert 0 < len(touched) < 256
        reference = params.copy()
        reference[touched] *= 1.0 - lr * l2
        plain = LinearScorer(dim=256, params=reference)
        plain.apply_gradient(plain.feature_indices(tokens), grad, lr, 0.0)
        assert np.array_equal(decayed.params, plain.params)
        assert np.array_equal(decayed.params[untouched], params[untouched])

    def test_serialization_round_trip(self, tmp_path):
        params = np.random.default_rng(1).normal(size=(256, NUM_TAGS))
        s = LinearScorer(dim=256, params=params)
        path = tmp_path / "model.npz"
        s.save(path)
        loaded = LinearScorer.load(path)
        assert loaded.dim == 256
        assert np.array_equal(loaded.params, params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, tmp_path, bad):
        params = np.zeros((8, NUM_TAGS))
        params[3, 4] = bad
        with pytest.raises(ConfigError):
            LinearScorer(dim=8, params=params)
        path = tmp_path / "model.npz"
        np.savez(
            path,
            format_version=np.int64(LinearScorer.FORMAT_VERSION),
            dim=np.int64(8),
            tagset=np.array([t.symbol for t in TAGS]),
            params=params,
        )
        with pytest.raises(ConfigError):
            LinearScorer.load(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(
            path,
            format_version=np.int64(99),
            dim=np.int64(8),
            tagset=np.array(["CB"]),
            params=np.zeros((8, NUM_TAGS)),
        )
        with pytest.raises(ConfigError):
            LinearScorer.load(path)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="mle")
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(l2=-1.0)

    @pytest.mark.parametrize(
        "bad", [{"learning_rate": float("nan")}, {"learning_rate": float("inf")}, {"l2": float("inf")}]
    )
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


class TestGradientThroughScorer:
    def test_matches_finite_differences_on_params(self):
        corpus = synthetic_corpus(1, seed=5, min_len=5, max_len=5)
        tokens, gold, _ = corpus[0]
        dim = 128
        rng = np.random.default_rng(7)
        scorer = LinearScorer(dim=dim, params=rng.normal(0, 0.3, (dim, NUM_TAGS)))
        lattice = build_lattice(grammar_automaton("semantic"), len(tokens))

        def loss_of(params):
            return nll(lattice, LinearScorer(dim=dim, params=params).score(tokens), gold)[0]

        _, grad_w = nll(lattice, scorer.score(tokens), gold)
        rows = scorer.feature_indices(tokens)
        param_grad = np.zeros((dim, NUM_TAGS))
        for i, row in enumerate(rows):
            for h in row:
                param_grad[h] += grad_w[i]
        eps = 1e-5
        for h, t in [(int(rows[0][0]), 2), (int(rows[2][1]), 0), (int(rows[4][3]), 9)]:
            up = scorer.params.copy()
            up[h, t] += eps
            down = scorer.params.copy()
            down[h, t] -= eps
            fd = (loss_of(up) - loss_of(down)) / (2 * eps)
            assert abs(param_grad[h, t] - fd) <= 1e-3 * max(1.0, abs(fd))


class TestTraining:
    def test_nll_fits_trigger_corpus_exactly(self):
        corpus = synthetic_corpus(50, seed=11)
        cfg = TrainConfig(loss="nll", epochs=20, learning_rate=0.5, seed=0)
        scorer = train([(t, a) for t, _, a in corpus], cfg, mode="semantic", dim=2**14)
        hits = sum(
            predict_tags(scorer, tokens, "semantic").tags == gold.tags
            for tokens, gold, _ in corpus
        )
        assert hits == len(corpus)

    def test_hard_em_equals_nll_without_latent_sets(self):
        # continuous-only sentences: |admissible| == 1 everywhere
        corpus = [
            (tokens, ann)
            for tokens, _, ann in synthetic_corpus(15, seed=13, continuous_only=True)
        ]
        assert all(not ann.sets for _, ann in corpus)
        a = train(corpus, TrainConfig(loss="nll", epochs=3, seed=4), dim=2**12)
        b = train(corpus, TrainConfig(loss="hard-em", epochs=3, seed=4), dim=2**12)
        assert np.array_equal(a.params, b.params)

    def test_structural_mode_losses_equal_nll(self):
        # structural mode resolves every set, so no loss has a latent flip left
        corpus = [(t, a) for t, _, a in synthetic_corpus(40, seed=19)]
        assert sum(len(a.sets) for _, a in corpus) > 0
        params = {
            loss: train(corpus, TrainConfig(loss=loss, epochs=3, seed=2), mode="structural",
                        dim=2**12).params
            for loss in ("nll", "partial", "hard-em")
        }
        assert np.array_equal(params["partial"], params["nll"])
        assert np.array_equal(params["hard-em"], params["nll"])

    def test_features_hashed_once(self, monkeypatch):
        calls = []
        hash_rows = LinearScorer.batch_feature_indices

        def counted(self, sentences):
            calls.append(sentences)
            return hash_rows(self, sentences)

        monkeypatch.setattr(LinearScorer, "batch_feature_indices", counted)
        corpus = [(t, a) for t, _, a in synthetic_corpus(12, seed=9)]
        train(corpus, TrainConfig(loss="partial", epochs=3), dim=2**10)
        assert [list(s) for s in calls] == [[t] for t, _ in corpus]  # each once, not once per epoch

    def test_length_mismatch_rejected(self):
        _, _, ann = synthetic_corpus(1, seed=1)[0]
        with pytest.raises(ConfigError):
            train([(("one",), ann)], TrainConfig())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train([], TrainConfig())

    def test_divergence_names_the_epoch(self):
        corpus = [(t, a) for t, _, a in synthetic_corpus(20, seed=3)]
        with pytest.raises(ConfigError, match="epoch 1"):
            train(corpus, TrainConfig(epochs=3, learning_rate=1e308), dim=2**12)

    def test_divergence_in_the_last_update_is_reported(self):
        # a repeated word accumulates its gradient rows, so one update overflows
        tokens = ("a",) * 6
        ann = to_two_layer([], len(tokens))
        with pytest.raises(ConfigError, match="epoch 1"):
            train([(tokens, ann)], TrainConfig(epochs=1, learning_rate=1e308), dim=64)


class TestPredict:
    def test_zero_params_canonical_prediction(self):
        scorer = LinearScorer(dim=16)
        # all-zero scores: the canonical tie-break is CB everywhere, which
        # decodes to one single-word continuous mention per position
        mentions = predict(scorer, ["a", "b"])
        assert {tuple(m.fragments) for m in mentions} == {((0, 0),), ((1, 1),)}

    def test_trained_scorer_reproduces_gold_mentions(self):
        corpus = synthetic_corpus(20, seed=17)
        cfg = TrainConfig(loss="nll", epochs=15, learning_rate=0.5)
        scorer = train([(t, a) for t, _, a in corpus], cfg, dim=2**13)
        for tokens, gold, _ in corpus:
            assert predict(scorer, tokens) == decode(gold)

    def test_random_scorers_always_decode(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = 64
            scorer = LinearScorer(dim=dim, params=rng.normal(0, 3.0, (dim, NUM_TAGS)))
            n = int(rng.integers(1, 25))
            tokens = [f"tok{rng.integers(1000)}" for _ in range(n)]
            ts = predict_tags(scorer, tokens, "semantic")
            assert is_well_formed(ts)
            decode(ts)  # must not raise

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_batch_matches_per_sentence(self, mode):
        # integer weights in [-2, 2] make ties common
        rng = np.random.default_rng(29)
        scorer = LinearScorer(dim=256, params=rng.integers(-2, 3, size=(256, NUM_TAGS)).astype(float))
        lengths = [1, 600, 2, 3, 40, 41, 599, 1, 128, 300] + list(rng.integers(1, 601, size=20))
        sentences = random_sentences(rng, lengths)
        got = predict_batch(scorer, sentences, mode)
        assert [len(ts) for ts in got] == lengths
        assert [ts.tags for ts in got] == [predict_tags(scorer, t, mode).tags for t in sentences]

    def test_sentence_longer_than_the_budget(self, monkeypatch):
        rng = np.random.default_rng(31)
        scorer = LinearScorer(dim=128, params=rng.integers(-2, 3, size=(128, NUM_TAGS)).astype(float))
        sentences = random_sentences(rng, [3, model.TOKEN_BUDGET + 5, 9])
        want = [predict_tags(scorer, t).tags for t in sentences]
        assert [ts.tags for ts in predict_batch(scorer, sentences)] == want
        # many small batches, each cut where the next sentence would overflow
        monkeypatch.setattr(model, "TOKEN_BUDGET", 16)
        sentences = random_sentences(rng, rng.integers(1, 25, size=40))
        want = [predict_tags(scorer, t).tags for t in sentences]
        assert [ts.tags for ts in predict_batch(scorer, sentences)] == want

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            predict_batch(LinearScorer(dim=8), [("a",), ()])

