import numpy as np
import pytest

from disctag import model, scheme
from disctag.automata import build_lattice, grammar_automaton
from disctag.errors import ConfigError, EncodingViolation
from disctag.inference import PartialLabelSet, nll, random_well_formed, viterbi_rows
from disctag.model import (
    FEATURES,
    LinearScorer,
    TrainConfig,
    fnv1a,
    predict,
    predict_tags,
    train,
)
from disctag.scheme import (
    CB,
    CI,
    NUM_TAGS,
    O,
    TAGS,
    Component,
    ComponentType,
    SentenceAnnotation,
    TwoLayerSet,
    decode,
    encode,
    is_well_formed,
    to_two_layer,
)

from conftest import (
    LIBRARY_LOSSES,
    MALFORMED_MODELS,
    fnv1a_reference,
    predict_batch,
    score_rows_reference,
    sentence_features,
    write_model,
)

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
    lattice = build_lattice(grammar_automaton("semantic"))
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
            seq = random_well_formed(lattice, n, rng)
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
        rows = LinearScorer(dim=1000).batch_feature_indices([tokens])
        want = [[fnv1a_reference(f) % 1000 for f in feats] for feats in sentence_features(tokens)]
        assert rows.shape == (len(tokens), FEATURES)
        assert rows.tolist() == want


class TestTypeHashing:
    """Rows hashed once per word type equal the hash of every word's own
    feature strings, bit for bit."""

    @staticmethod
    def oracle_rows(sentences, dim):
        return [[fnv1a_reference(f) % dim for f in row] for tokens in sentences for row in sentence_features(tokens)]

    @pytest.mark.parametrize("dim", [2**16, 65521])
    @pytest.mark.parametrize(
        "sentences",
        [
            [("The", "THE", "the", "tHe"), ("Pain", "in", "ARMS")],
            [("İ", "İstanbul", "iSTANBUL", "ǅ")],  # "İ".lower() is two code points
            [("a", "ab", "Ab", "é", "x"), ("I",), ("of", "to")],
            [("solo",), ("X",), ("日本語",)],
            [("<BOS>", "<eos>", "<bos>"), ("<EOS>",), ("a", "<bos>", "b")],
            [("é", "É", "café", "😀", "x😀y", "😀😀😀😀"), ("", "a\x00")],
            [("same", "type"), ("type", "same", "same"), ("Same",), ("same",)],
        ],
    )
    def test_rows_match_the_hash_of_every_word(self, sentences, dim):
        scorer = LinearScorer(dim=dim)
        rows = scorer.batch_feature_indices(sentences)
        assert rows.shape == (sum(map(len, sentences)), FEATURES)
        assert rows.tolist() == self.oracle_rows(sentences, dim)
        assert np.array_equal(rows, np.concatenate([scorer.batch_feature_indices([t]) for t in sentences]))

    def test_random_batches_with_empty_sentences(self):
        rng = np.random.default_rng(37)
        scorer = LinearScorer(dim=4099)
        for _ in range(20):
            sentences = random_sentences(rng, rng.integers(0, 6, size=int(rng.integers(1, 8))))
            assert scorer.batch_feature_indices(sentences).tolist() == self.oracle_rows(sentences, 4099)


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
        rows = s.batch_feature_indices([tokens])
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

    @pytest.mark.parametrize("words", [0, 1, 240, 16384])
    @np.errstate(over="ignore", invalid="ignore")
    def test_scores_keep_the_bits_of_reduceat(self, words):
        # magnitudes from subnormal to 1e300, signed zeros, and rows whose sums
        # overflow to +-inf; the int64 views compare every bit
        rng = np.random.default_rng(words)
        dim = 64
        params = rng.normal(size=(dim, NUM_TAGS)) * 10.0 ** rng.integers(-300, 301, size=(dim, NUM_TAGS))
        special = rng.random(size=params.shape) < 0.3
        params[special] = rng.choice([0.0, 5e-324, 3e-320, 2e-308, 1.7e308], size=special.sum())
        params[special] *= rng.choice([-1.0, 1.0], size=special.sum())
        params[0], params[1] = 1.7e308, -1.7e308
        # dim 64 repeats rows across words; the first two words' features share one row
        rows = rng.integers(0, dim, size=(words, FEATURES))
        rows[: min(words, 2)] = np.arange(min(words, 2))[:, None]
        got = LinearScorer(dim=dim, params=params).score_rows(rows)
        w, prev, after, pre, suf = (params[rows[:, j]] for j in range(FEATURES))
        assert got.shape == (words, NUM_TAGS)
        assert np.array_equal(got.view(np.int64), score_rows_reference(params, rows).view(np.int64))
        assert np.array_equal(got.view(np.int64), (w + (((prev + after) + pre) + suf)).view(np.int64))
        if words > 1:
            assert (got[0] == np.inf).all() and (got[1] == -np.inf).all()
            assert np.isinf(got[2:]).any() == (words > 2)

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
        decayed.apply_gradient(decayed.batch_feature_indices([tokens]), grad, lr, l2)
        touched = np.unique(np.concatenate(decayed.batch_feature_indices([tokens])))
        untouched = np.setdiff1d(np.arange(256), touched)
        assert 0 < len(touched) < 256
        reference = params.copy()
        reference[touched] *= 1.0 - lr * l2
        plain = LinearScorer(dim=256, params=reference)
        plain.apply_gradient(plain.batch_feature_indices([tokens]), grad, lr, 0.0)
        assert np.array_equal(decayed.params, plain.params)
        assert np.array_equal(decayed.params[untouched], params[untouched])

    def test_flat_update_is_the_row_wise_update(self):
        # repeated rows, and a word whose features share a row: each cell's
        # updates apply in word order, bit for bit as row-wise subtract.at does
        rng = np.random.default_rng(17)
        params = rng.normal(size=(64, NUM_TAGS))
        rows = rng.integers(0, 64, size=(40, FEATURES))
        rows[7], rows[9, 2] = rows[3], rows[9, 0]
        assert len(np.unique(rows)) < rows.size
        grad = rng.normal(size=(40, NUM_TAGS))
        lr, l2 = 0.3, 0.05
        expected = params.copy()
        expected[np.unique(rows)] *= 1.0 - lr * l2
        np.subtract.at(expected, rows.ravel(), lr * np.repeat(grad, FEATURES, axis=0))
        for start in (params.copy(), np.asfortranarray(params)):
            scorer = LinearScorer(dim=64, params=start)
            scorer.apply_gradient(rows, grad, lr, l2)
            assert np.array_equal(scorer.params, expected)

    def test_serialization_round_trip(self, tmp_path):
        params = np.random.default_rng(1).normal(size=(256, NUM_TAGS))
        s = LinearScorer(dim=256, params=params)
        path = tmp_path / "model.npz"
        s.save(path)
        loaded = LinearScorer.load(path)
        assert loaded.dim == 256
        assert np.array_equal(loaded.params, params)

    def test_round_trip_is_bit_exact(self, tmp_path):
        dim = 64
        params = np.zeros((dim, NUM_TAGS))
        params[2] = -0.0  # no bit but the sign's
        params[7, 4] = 1.5  # one nonzero cell
        params[dim - 1] = np.random.default_rng(2).normal(size=NUM_TAGS)
        path = tmp_path / "model.npz"
        for start, stored in ((params, [2, 7, dim - 1]), (np.zeros((dim, NUM_TAGS)), [])):
            LinearScorer(dim=dim, params=start).save(path)
            with np.load(path) as data:
                assert data["rows"].dtype == np.int64 and data["rows"].tolist() == stored
                assert data["values"].shape == (len(stored), NUM_TAGS)
            loaded = LinearScorer.load(path)
            assert loaded.dim == dim
            assert np.array_equal(loaded.params.view(np.int64), start.view(np.int64))

    def test_zero_model_file_is_small(self, tmp_path):
        path = tmp_path / "model.npz"
        LinearScorer(dim=2**18).save(path)
        assert path.stat().st_size < 4096
        assert LinearScorer.load(path).dim == 2**18

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, tmp_path, bad):
        params = np.zeros((8, NUM_TAGS))
        params[3, 4] = bad
        with pytest.raises(ConfigError):
            LinearScorer(dim=8, params=params)
        path = tmp_path / "model.npz"
        write_model(path, rows=np.array([3]), values=params[3:4])
        with pytest.raises(ConfigError, match="finite"):
            LinearScorer.load(path)

    @pytest.mark.parametrize("kind", MALFORMED_MODELS)
    def test_load_rejects_malformed_file(self, tmp_path, kind):
        fields, message = MALFORMED_MODELS[kind]
        path = tmp_path / "model.npz"
        write_model(path)
        assert np.flatnonzero(LinearScorer.load(path).params.any(axis=1)).tolist() == [1, 5]
        write_model(path, **fields)
        with pytest.raises(ConfigError, match=message):
            LinearScorer.load(path)

    def test_dim_beyond_any_address_space_rejected(self):
        # numpy refuses the shape before allocating anything
        with pytest.raises(ConfigError, match="too large"):
            LinearScorer(dim=2**62)

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
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)

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
        lattice = build_lattice(grammar_automaton("semantic"))

        def loss_of(params):
            return nll(lattice, LinearScorer(dim=dim, params=params).score(tokens), gold)[0]

        _, grad_w = nll(lattice, scorer.score(tokens), gold)
        rows = scorer.batch_feature_indices([tokens])
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
        # one pass over the whole corpus, not one per sentence or per epoch
        assert [list(s) for s in calls] == [[t for t, _ in corpus]]

    @pytest.mark.parametrize("loss", ["nll", "partial", "hard-em"])
    def test_batch_of_one_is_the_library_loop(self, monkeypatch, loss):
        monkeypatch.setattr(model, "TRAIN_BATCH", 1)
        monkeypatch.setattr(model, "TRAIN_POOL", 4)  # 30 sentences: seven pools and a short one
        corpus = [(t, a) for t, _, a in synthetic_corpus(30, seed=23, min_len=1, max_len=14)]
        config = TrainConfig(loss=loss, epochs=2, learning_rate=0.3, l2=0.01, seed=5)
        expected = sgd_oracle(corpus, config, batch=1, pool=4)
        assert np.array_equal(train(corpus, config, dim=2**10).params, expected.params)

    @pytest.mark.parametrize("loss", ["nll", "partial", "hard-em"])
    def test_batch_of_eight_is_a_frozen_batch_oracle(self, loss):
        assert (model.TRAIN_BATCH, model.TRAIN_POOL) == (8, 128)
        corpus = [(t, a) for t, _, a in synthetic_corpus(45, seed=29, min_len=1, max_len=20)]
        config = TrainConfig(loss=loss, epochs=2, learning_rate=0.3, l2=0.01, seed=6)
        expected = sgd_oracle(corpus, config, batch=8, pool=128)
        assert np.array_equal(train(corpus, config, dim=2**10).params, expected.params)

    def test_runs_are_length_sorted_pieces_of_pools(self, monkeypatch):
        assert (model.TRAIN_BATCH, model.TRAIN_POOL) == (8, 128)
        corpus = [(t, a) for t, _, a in synthetic_corpus(300, seed=31, min_len=1, max_len=48)]
        lengths = np.array([len(t) for t, _ in corpus])
        assert (lengths.min(), lengths.max()) == (1, 48)
        # each sentence's label set names it; the generator's draws give each epoch's permutation
        index, runs, draws = {}, [], []
        from_annotation, batch_losses = PartialLabelSet.from_annotation, model.batch_losses
        default_rng = np.random.default_rng

        def named(ann, gold=None):
            label = from_annotation(ann, gold=gold)
            index[id(label)] = len(index)
            return label

        class Recording:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def permutation(self, n):
                draws.append(self.rng.permutation(n))
                return draws[-1]

        def recorded(lattice, w, lengths, labels, loss):
            runs.append((len(draws) // 2 - 1, [index[id(label)] for label in labels]))
            return batch_losses(lattice, w, lengths, labels, loss)

        monkeypatch.setattr(PartialLabelSet, "from_annotation", named)
        monkeypatch.setattr(np.random, "default_rng", Recording)
        monkeypatch.setattr(model, "batch_losses", recorded)
        epochs = 3
        train(corpus, TrainConfig(epochs=epochs, seed=7), dim=2**12)
        assert len(draws) == 2 * epochs
        for epoch in range(epochs):
            order = draws[2 * epoch]
            pool_of = np.empty(len(corpus), dtype=int)
            pool_of[order] = np.arange(len(corpus)) // 128
            these = [run for e, run in runs if e == epoch]
            assert sorted(j for run in these for j in run) == list(range(len(corpus)))
            assert all(1 <= len(run) <= 8 and len(set(pool_of[run])) == 1 for run in these)
            for pool in range(3):
                pieces = sorted((run for run in these if pool_of[run[0]] == pool),
                                key=lambda run: (lengths[run].min(), lengths[run].max()))
                in_order = np.concatenate([lengths[run] for run in pieces])
                assert (np.diff(in_order) >= 0).all()
            padded = sum(lengths[run].max() for run in these)
            plain = sum(lengths[order[i : i + 8]].max() for i in range(0, len(order), 8))
            assert padded < plain

    def test_gold_sequences_checked_in_one_call(self, monkeypatch):
        corpus = [(t, a) for t, _, a in synthetic_corpus(12, seed=9)]
        calls = []
        check = scheme.is_well_formed_batch
        monkeypatch.setattr(scheme, "is_well_formed_batch", lambda *a: calls.append(a) or check(*a))
        train(corpus, TrainConfig(loss="partial", epochs=1), dim=2**10)
        assert len(calls) == 1 and len(calls[0][1]) == len(corpus) + 1

    def test_ill_formed_encoding_names_its_tags(self):
        corpus = [(t, a) for t, _, a in synthetic_corpus(5, seed=2)]
        # two adjacent single-word components: to_two_layer never builds this set
        bad = SentenceAnnotation(
            2, (), (TwoLayerSet((Component(0, 0, ComponentType.X), Component(1, 1, ComponentType.Y))),)
        )
        corpus.insert(3, (("a", "b"), bad))
        with pytest.raises(EncodingViolation, match="ill-formed sequence: DB-Bx DI-By$"):
            train(corpus, TrainConfig(epochs=1), dim=2**10)

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

    def test_negative_loss_is_divergence(self, monkeypatch):
        # huge scores can cancel in log Z - A_clamped; a loss below zero stops training
        corpus = [(t, a) for t, _, a in synthetic_corpus(20, seed=3)]  # one pool: runs of 8, 8 and 4
        calls = []
        batch_losses = model.batch_losses

        def fourth_negative(*args):
            losses, grad = batch_losses(*args)
            calls.append(len(losses))
            return (np.full_like(losses, -1e-3) if len(calls) == 4 else losses), grad

        monkeypatch.setattr(model, "batch_losses", fourth_negative)
        with pytest.raises(ConfigError, match="epoch 2"):
            train(corpus, TrainConfig(epochs=3), dim=2**12)
        # seed 0 visits the runs as [2, 0, 1] in epoch 1 and starts epoch 2 with run 2
        assert calls == [4, 8, 8, 4]

    def test_divergence_in_the_last_update_is_reported(self):
        # a repeated word accumulates its gradient rows, so one update overflows
        tokens = ("a",) * 6
        ann = to_two_layer([], len(tokens))
        with pytest.raises(ConfigError, match="epoch 1"):
            train([(tokens, ann)], TrainConfig(epochs=1, learning_rate=1e308), dim=64)


def sgd_oracle(corpus, config, batch, pool, dim=2**10):
    """SGD with the library losses, one sentence at a time.  Each epoch cuts
    its permutation into pools of ``pool`` sentences, sorts each pool by
    length (``sorted`` is stable) and cuts it into runs of ``batch``; a second
    permutation orders the runs.  Each run is scored with the params frozen
    at its start; then the run's touched rows decay once and each sentence's
    gradient is applied in order."""
    scorer = LinearScorer(dim=dim)
    grammar = grammar_automaton("semantic")
    examples = [
        (scorer.batch_feature_indices([tokens]), PartialLabelSet.from_annotation(ann)) for tokens, ann in corpus
    ]
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(len(examples)).tolist()
        runs = []
        for first in range(0, len(order), pool):
            members = sorted(order[first : first + pool], key=lambda j: len(corpus[j][0]))
            runs += [members[i : i + batch] for i in range(0, len(members), batch)]
        for k in rng.permutation(len(runs)).tolist():
            run = [examples[j] for j in runs[k]]
            grads = [LIBRARY_LOSSES[config.loss](build_lattice(grammar), scorer.score_rows(rows), pl)[1]
                     for rows, pl in run]
            touched = np.unique(np.concatenate([rows for rows, _ in run]))
            scorer.params[touched] *= 1.0 - config.learning_rate * config.l2
            for (rows, _), grad in zip(run, grads):
                scorer.apply_gradient(rows, grad, config.learning_rate, 0.0)
    return scorer


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

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_batches_at_the_real_budget_match_per_sentence(self, mode, monkeypatch):
        rng = np.random.default_rng(37)
        scorer = LinearScorer(dim=256, params=rng.integers(-2, 3, size=(256, NUM_TAGS)).astype(float))
        sentences = random_sentences(rng, [1, 2, 3, *rng.integers(100, 401, size=150)])
        calls = []

        def counted(lat, weights, lengths, lanes):
            calls.append(list(lanes))
            return viterbi_rows(lat, weights, lengths, lanes)

        monkeypatch.setattr(model, "viterbi_rows", counted)
        got = [ts.tags for ts in predict_batch(scorer, sentences, mode)]
        # one batch of lanes as long as the longest sentence, 400 words, so of at
        # most 65,536 // 400 = 163 lanes: the 153 sentences fill 104 of them
        assert len(calls) == 1 and len(calls[0]) == 104 and sum(calls[0]) == len(sentences)
        assert got == [predict_tags(scorer, t, mode).tags for t in sentences]

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

    @pytest.mark.parametrize("mode", ["semantic", "structural"])
    def test_packed_lanes_match_per_sentence(self, mode, monkeypatch):
        # at a budget of 64 cells and 4 lanes a batch: a 70-word sentence runs
        # alone, wide batches are cut by the budget and narrow ones by the lane
        # cap, and lanes hold one to nine sentences, 1-word ones included;
        # integer weights in [-2, 2] make ties common
        rng = np.random.default_rng(61)
        scorer = LinearScorer(dim=256, params=rng.integers(-2, 3, size=(256, NUM_TAGS)).astype(float))
        lengths = [70, 30, 29, 20, 8, 8, 8, 8, 8, 8, 7, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 5]
        sentences = random_sentences(rng, lengths + list(rng.integers(1, 12, size=30)))
        monkeypatch.setattr(model, "TOKEN_BUDGET", 64)
        monkeypatch.setattr(model, "LANES", 4)
        calls = []

        def counted(lat, weights, lengths, lanes):
            calls.append((weights.shape[1], list(lanes)))
            return viterbi_rows(lat, weights, lengths, lanes)

        monkeypatch.setattr(model, "viterbi_rows", counted)
        got = [ts.tags for ts in predict_batch(scorer, sentences, mode)]
        assert calls[0] == (70, [1])
        assert any(len(lanes) == 4 and width * 4 < 64 for width, lanes in calls)  # cut by the lane cap
        assert any(len(lanes) < 4 and width * (len(lanes) + 1) > 64 for width, lanes in calls)  # cut by the budget
        assert max(max(lanes) for _, lanes in calls) >= 5
        assert sum(sum(lanes) for _, lanes in calls) == len(sentences)
        monkeypatch.undo()
        assert got == [predict_tags(scorer, t, mode).tags for t in sentences]

    def test_empty_corpus(self):
        flat, bounds = model.predict_rows(LinearScorer(dim=8), [])
        assert flat.shape == (0,) and flat.dtype.kind == "i" and bounds.tolist() == [0]

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            predict_batch(LinearScorer(dim=8), [("a",), ()])

