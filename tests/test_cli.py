import collections
import contextlib
import io
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disctag import cli, model
from disctag import corpus as corpus_module
from disctag.cli import main
from disctag.corpus import (
    Lexicon,
    annotate,
    read_corpus,
    silver_type,
    synthetic_records,
)
from disctag.inference import PartialLabelSet
from disctag.model import LinearScorer, TrainConfig, predict_tags, train
from disctag.scheme import NUM_TAGS, TAGS, Mention, SentenceAnnotation, decode

from conftest import (
    MALFORMED_MODELS,
    MIXED_CORPUS,
    MIXED_DROPPED,
    UNPARSABLE_MODELS,
    is_structural,
    read_tag_file,
    write_corpus,
    write_model,
)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "pain in arms and shoulders\n"
        "0-1;2-2|0-1;4-4\n"
        "\n"
        "no problems at all\n"
        "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def trained_model(tmp_path):
    train_path = tmp_path / "train.txt"
    write_corpus(synthetic_records(30, length=8, seed=4), train_path)
    model_path = tmp_path / "model.npz"
    code = main(
        [
            "train",
            str(train_path),
            "--model",
            str(model_path),
            "--loss",
            "nll",
            "--epochs",
            "12",
            "--dim",
            str(2**13),
        ]
    )
    assert code == 0
    return train_path, model_path


@pytest.fixture
def mixed_corpus_file(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED_CORPUS, encoding="utf-8")
    return path


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_leak_no_options(self, monkeypatch):
        seen = []
        for command in ("predict", "decode"):
            monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(vars(args)) or 0)
        assert main(["predict", "c.txt", "--model", "m", "--mode", "structural", "-o", "out.txt"]) == 0
        assert main(["predict", "c.txt", "--model", "m"]) == 0
        assert main(["decode", "t.txt", "--corpus", "c.txt"]) == 0
        assert main(["decode", "t.txt"]) == 0
        assert seen == [
            {"command": "predict", "corpus": "c.txt", "model": "m", "output": "out.txt", "mode": "structural"},
            {"command": "predict", "corpus": "c.txt", "model": "m", "output": "-", "mode": "semantic"},
            {"command": "decode", "tags": "t.txt", "corpus": "c.txt", "output": "-"},
            {"command": "decode", "tags": "t.txt", "corpus": None, "output": "-"},
        ]

    @pytest.mark.parametrize(
        "argv", [[], ["--help"], ["predict", "--help"], ["predict"], ["train", "c.txt", "--model", "m", "--loss", "mle"]]
    )
    def test_help_and_usage_errors_are_a_fresh_parsers(self, capsys, argv):
        outputs = []
        for parse in (cli.build_parser.__wrapped__().parse_args, main, main):
            with pytest.raises(SystemExit) as exit_:
                parse(argv)
            outputs.append((exit_.value.code, *capsys.readouterr()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][1] or outputs[0][2]


class TestValidate:
    def test_all_well_formed(self, tmp_path, capsys):
        tags = tmp_path / "tags.txt"
        tags.write_text("O CB CI\nDB-Bx DI-O DI-By\n", encoding="utf-8")
        assert main(["validate", str(tags)]) == 0
        assert "2/2" in capsys.readouterr().out

    def test_ill_formed_exits_1(self, tmp_path, capsys):
        tags = tmp_path / "tags.txt"
        tags.write_text("O CI\n", encoding="utf-8")
        assert main(["validate", str(tags)]) == 1
        assert "ill-formed" in capsys.readouterr().out

    def test_unknown_symbol_exits_2(self, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("O XYZ\n", encoding="utf-8")
        assert main(["validate", str(tags)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.txt")]) == 2


class TestEncodeDecode:
    def test_encode(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "tags.txt"
        assert main(["encode", str(corpus_file), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "DB-Bx DI-Ix DI-By DI-O DI-By\nO O O O\n"
        )

    def test_encode_output_is_structural(self, tmp_path):
        corpus_path = tmp_path / "corpus.txt"
        write_corpus(synthetic_records(30, length=10, seed=6), corpus_path)
        path = tmp_path / "out.tags"
        assert main(["encode", str(corpus_path), "-o", str(path)]) == 0
        # mention spans carry no types, so every set is oriented structurally
        out = read_tag_file(path)
        assert len(out) == 30 and all(is_structural(ts) for ts in out)
        assert any("DB-Bx" in ts.symbols() for ts in out)
        with pytest.raises(SystemExit):  # the option is gone
            main(["encode", str(corpus_path), "--mode", "structural"])

    def test_encode_incompatible_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b c d e\n0-0;2-2;4-4\n", encoding="utf-8")
        assert main(["encode", str(bad)]) == 1
        assert capsys.readouterr().err == "error: record 1: incompatible (three-way-split)\n"

    @pytest.mark.parametrize("command", ["encode", "silver"])
    def test_first_incompatible_record_is_named(self, mixed_corpus_file, tmp_path, capsys, command):
        lexicon = tmp_path / "parts.txt"
        lexicon.write_text("arms\n", encoding="utf-8")
        argv = [command, str(mixed_corpus_file)] + (["--lexicon", str(lexicon)] if command == "silver" else [])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: record 3: incompatible (three-way-split)\n")

    def test_decode_standalone(self, tmp_path, capsys):
        tags = tmp_path / "tags.txt"
        tags.write_text("DB-Bx DI-Ix DI-By DI-O DI-By\n", encoding="utf-8")
        assert main(["decode", str(tags)]) == 0
        assert capsys.readouterr().out == "0-1;4-4|0-2\n"

    def test_decode_with_corpus_round_trips(self, corpus_file, tmp_path):
        tags = tmp_path / "tags.txt"
        assert main(["encode", str(corpus_file), "-o", str(tags)]) == 0
        out = tmp_path / "decoded.txt"
        assert main(["decode", str(tags), "--corpus", str(corpus_file), "-o", str(out)]) == 0
        records = read_corpus(out)
        assert records[0].mentions == read_corpus(corpus_file)[0].mentions
        assert records[1].mentions == frozenset()

    def test_decode_ill_formed_exits_1(self, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("O CI\n", encoding="utf-8")
        assert main(["decode", str(tags)]) == 1

    @pytest.mark.parametrize("with_corpus", [False, True])
    def test_decode_names_the_first_ill_formed_sequence(self, corpus_file, tmp_path, capsys, with_corpus):
        tags = tmp_path / "tags.txt"
        tags.write_text("DB-Bx DI-O DI-By DI-O DI-By\nO CI\nDB-Bx DI-By\n", encoding="utf-8")
        out = tmp_path / "decoded.txt"
        argv = ["decode", str(tags), "-o", str(out)] + (["--corpus", str(corpus_file)] if with_corpus else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: O CI\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("O O O O O\n", "error: corpus has 2 records but tag file has 1 sequences\n"),
            ("O O O\nO O O O\n", "error: length mismatch for sentence 'pain in arms and shoulders'\n"),
        ],
        ids=["record-count", "sentence-length"],
    )
    def test_decode_corpus_mismatch_exits_1(self, corpus_file, tmp_path, capsys, lines, message):
        tags = tmp_path / "tags.txt"
        tags.write_text(lines, encoding="utf-8")
        out = tmp_path / "decoded.txt"
        assert main(["decode", str(tags), "--corpus", str(corpus_file), "-o", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestStatsFilterSilver:
    def test_stats_output(self, corpus_file, capsys):
        assert main(["stats", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "sentences                2" in out
        assert "mentions                 2" in out
        assert "discontinuous mentions   1" in out
        assert "incompatible sentences   0" in out

    @pytest.mark.parametrize("command", ["encode", "silver", "filter", "stats", "train"])
    def test_build_no_record_and_only_the_annotations_they_use(
        self, corpus_file, mixed_corpus_file, tmp_path, monkeypatch, capsys, command
    ):
        # no command builds a record: filter and stats read the grouping
        # pass's reasons only, and the others annotate their kept records
        # from the fragments as written
        lexicon = tmp_path / "parts.txt"
        lexicon.write_text("arms\n", encoding="utf-8")
        out = tmp_path / "out"
        options = {
            "encode": ["-o", str(out)],
            "silver": ["--lexicon", str(lexicon), "-o", str(out)],
            "filter": ["-o", str(out)],
            "stats": [],
            "train": ["--model", str(out), "--dim", "64"],
        }[command]
        paths = [corpus_file, mixed_corpus_file] if command in ("encode", "silver") else [mixed_corpus_file]

        def run(path):
            out.unlink(missing_ok=True)
            code = main([command, str(path), *options])
            return code, capsys.readouterr(), out.exists() and out.read_bytes()

        want = list(map(run, paths))
        assert want[0][0] == 0
        if command in ("encode", "silver"):  # record 3 is the first incompatible one
            assert want[1] == (1, ("", "error: record 3: incompatible (three-way-split)\n"), False)

        def refuse(*args):
            raise AssertionError("built")

        for name in ("CorpusRecord", "annotate", "read_corpus", "filter_incompatible"):
            monkeypatch.setattr(corpus_module, name, refuse)
        if command in ("filter", "stats"):
            monkeypatch.setattr(corpus_module, "_annotations", refuse)
        assert list(map(run, paths)) == want

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n \n\n"], ids=["empty", "blank-lines"])
    def test_a_corpus_with_no_records(self, tmp_path, capsys, text):
        path, lexicon, out = tmp_path / "corpus.txt", tmp_path / "parts.txt", tmp_path / "out"
        path.write_text(text, encoding="utf-8")
        lexicon.write_text("arms\n", encoding="utf-8")
        zeros = "".join(f"{name:<25}0\n" for name in ("sentences", "mentions", "discontinuous mentions",
                                                     "incompatible sentences"))
        runs = [
            (["encode", "-o", str(out)], 0, ("", ""), b""),
            (["silver", "--lexicon", str(lexicon), "-o", str(out)], 0,
             ("", "sets disambiguated by the lexicon: 0; left latent: 0\n"), b""),
            (["filter", "-o", str(out)], 0, ("", "kept 0/0 records\n"), b""),
            (["stats"], 0, (zeros, ""), False),
            (["train", "--model", str(out), "--dim", "64"], 1, ("", "error: empty training corpus\n"), False),
        ]
        for (command, *options), code, printed, written in runs:
            out.unlink(missing_ok=True)
            assert main([command, str(path), *options]) == code
            assert capsys.readouterr() == printed
            assert (out.exists() and out.read_bytes()) == written

    def test_filter_drops_and_reports(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        path.write_text(
            "a b c d e\n0-0;2-2;4-4\n\nclean sentence\n\n", encoding="utf-8"
        )
        out = tmp_path / "kept.txt"
        assert main(["filter", str(path), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "three-way-split" in err
        assert len(read_corpus(out)) == 1

    @pytest.mark.parametrize("command", ["encode", "silver", "train", "filter", "stats"])
    def test_one_annotate_call_per_record(self, corpus_file, mixed_corpus_file, tmp_path, monkeypatch, command):
        # each record is annotated once: one grouping pass over every record's mentions
        calls = []
        grouping = corpus_module._two_layer_batch
        monkeypatch.setattr(corpus_module, "_two_layer_batch", lambda *rows: calls.append(rows) or grouping(*rows))
        lexicon = tmp_path / "parts.txt"
        lexicon.write_text("arms\n", encoding="utf-8")
        out = str(tmp_path / "out")
        path, options = {
            "encode": (corpus_file, ["-o", out]),
            "silver": (corpus_file, ["--lexicon", str(lexicon), "-o", out]),
            "train": (mixed_corpus_file, ["--model", out, "--epochs", "1", "--dim", "64"]),
            "filter": (mixed_corpus_file, ["-o", out]),
            "stats": (mixed_corpus_file, []),
        }[command]
        assert main([command, str(path), *options]) == 0
        ((record, mention, b, e, count),) = calls
        fragments = collections.defaultdict(list)
        for r, m, fragment in zip(record.tolist(), mention.tolist(), zip(b.tolist(), e.tolist())):
            fragments[r, m].append(fragment)
        mentions = [set() for _ in range(count)]
        for (r, _), written in fragments.items():
            mentions[r].add(Mention(tuple(written)))
        assert mentions == [r.mentions for r in read_corpus(path)]

    def test_silver_disambiguates(self, corpus_file, tmp_path, capsys):
        lexicon = tmp_path / "parts.txt"
        lexicon.write_text("arms\nshoulders\n", encoding="utf-8")
        out = tmp_path / "tags.txt"
        assert main(["silver", str(corpus_file), "--lexicon", str(lexicon), "-o", str(out)]) == 0
        assert "disambiguated by the lexicon: 1" in capsys.readouterr().err
        # body parts end up typed x; the leading event component becomes y
        assert out.read_text(encoding="utf-8").splitlines()[0] == (
            "DB-By DI-Iy DI-Bx DI-O DI-Bx"
        )


class TestTrainPredictEval:
    def test_full_loop_reaches_perfect_f1(self, trained_model, tmp_path, capsys):
        train_path, model_path = trained_model
        pred_path = tmp_path / "pred.txt"
        assert main(["predict", str(train_path), "--model", str(model_path), "-o", str(pred_path)]) == 0
        assert main(["eval", str(train_path), str(pred_path)]) == 0
        out = capsys.readouterr().out
        assert "F1=1.0000" in out

    def test_eval_records_that_do_not_align_exit_1(self, tmp_path, capsys):
        gold, predicted = tmp_path / "gold.txt", tmp_path / "pred.txt"
        gold.write_text("x y\n\n\na b c\n0-1\n", encoding="utf-8")
        predicted.write_text("x y\n\n\na b c d e\n3-4\n", encoding="utf-8")
        assert main(["eval", str(gold), str(predicted)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: record 2 has 3 gold tokens but 5 predicted tokens\n"
        assert captured.out == ""

    def test_eval_compares_record_counts_before_tokens(self, tmp_path, capsys):
        # a dropped record shifts the next one into its place: the counts are named, not its tokens
        gold, predicted = tmp_path / "gold.txt", tmp_path / "pred.txt"
        gold.write_text("x y\n\n\na b c\n0-1\n\nd e\n\n", encoding="utf-8")
        predicted.write_text("x y\n\n\nd e\n\n", encoding="utf-8")
        assert main(["eval", str(gold), str(predicted)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: 3 gold sentences vs 2 predicted\n"
        assert captured.out == ""

    def test_predict_and_decode_corpus_build_no_records(self, corpus_file, tmp_path, monkeypatch):
        model_path, tags, out = tmp_path / "m.npz", tmp_path / "tags.txt", tmp_path / "out.txt"
        LinearScorer(dim=64).save(model_path)
        assert main(["encode", str(corpus_file), "-o", str(tags)]) == 0
        runs = [
            ["predict", str(corpus_file), "--model", str(model_path), "-o", str(out)],
            ["decode", str(tags), "--corpus", str(corpus_file), "-o", str(out)],
        ]
        want = [main(argv) == 0 and out.read_bytes() for argv in runs]
        assert all(want)

        def refuse(*args):
            raise AssertionError("a record was built")

        monkeypatch.setattr(corpus_module, "CorpusRecord", refuse)
        assert [main(argv) == 0 and out.read_bytes() for argv in runs] == want

    def test_predict_empty_corpus_writes_an_empty_file(self, tmp_path):
        model_path, empty, out = tmp_path / "m.npz", tmp_path / "empty.txt", tmp_path / "pred.txt"
        LinearScorer(dim=8).save(model_path)
        empty.write_text("", encoding="utf-8")
        assert main(["predict", str(empty), "--model", str(model_path), "-o", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_predict_missing_model_exits_2(self, corpus_file, tmp_path):
        assert main(["predict", str(corpus_file), "--model", str(tmp_path / "none.npz")]) == 2

    @pytest.mark.parametrize(
        "kind", ["random-bytes", "wrong-keys", "truncated", "npy-array", "overflowing-scores"]
    )
    def test_predict_bad_model_file_exits_1(self, corpus_file, tmp_path, capsys, kind):
        bad = tmp_path / "bad.npz"
        if kind == "random-bytes":
            bad.write_bytes(np.random.default_rng(3).bytes(512))
        elif kind == "wrong-keys":
            np.savez(bad, weights=np.zeros((4, NUM_TAGS)))
        elif kind == "truncated":
            good = tmp_path / "good.npz"
            LinearScorer(dim=64).save(good)
            bad.write_bytes(good.read_bytes()[:-100])
        elif kind == "npy-array":
            with open(bad, "wb") as handle:
                np.save(handle, np.zeros((4, NUM_TAGS)))
        else:  # finite weights whose per-word sums overflow
            LinearScorer(dim=64, params=np.full((64, NUM_TAGS), 1e308)).save(bad)
        assert main(["predict", str(corpus_file), "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", MALFORMED_MODELS)
    def test_predict_malformed_model_exits_1(self, corpus_file, tmp_path, capsys, kind):
        fields, message = MALFORMED_MODELS[kind]
        bad = tmp_path / "bad.npz"
        write_model(bad, **fields)
        assert main(["predict", str(corpus_file), "--model", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert re.search(message, captured.err.rstrip("\n"))
        assert captured.out == ""

    @pytest.mark.parametrize("kind", UNPARSABLE_MODELS)
    def test_predict_unparsable_model_exits_1(self, corpus_file, tmp_path, capsys, kind):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(UNPARSABLE_MODELS[kind])
        assert main(["predict", str(corpus_file), "--model", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad} is not a model file written by 'disctag train'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_output_fails_before_predicting(self, corpus_file, tmp_path, capsys, monkeypatch, where):
        model_path = tmp_path / "model.npz"
        LinearScorer(dim=64).save(model_path)
        out = tmp_path / "missing" / "out.txt" if where == "missing-dir" else tmp_path
        calls = []
        monkeypatch.setattr(cli, "predict_rows", lambda *args: calls.append(args))
        assert main(["predict", str(corpus_file), "--model", str(model_path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not calls

    def test_failed_predict_leaves_no_new_output(self, corpus_file, tmp_path, capsys):
        bad = tmp_path / "huge.npz"
        LinearScorer(dim=64, params=np.full((64, NUM_TAGS), 1e308)).save(bad)  # scores overflow
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("kept\n", encoding="utf-8")
        for out in (new, old):
            assert main(["predict", str(corpus_file), "--model", str(bad), "-o", str(out)]) == 1
        assert capsys.readouterr().err.count("error: ") == 2
        assert not new.exists() and old.read_text(encoding="utf-8") == "kept\n"

    def test_predict_structural_mode(self, tmp_path):
        rng = np.random.default_rng(8)
        scorer = LinearScorer(dim=256, params=rng.normal(0.0, 2.0, (256, NUM_TAGS)))
        model_path = tmp_path / "random.npz"
        scorer.save(model_path)
        corpus_path = tmp_path / "corpus.txt"
        records = synthetic_records(12, length=12, seed=5)
        write_corpus(records, corpus_path)
        modes = {
            mode: [decode(predict_tags(scorer, r.tokens, mode)) for r in records]
            for mode in ("semantic", "structural")
        }
        assert modes["semantic"] != modes["structural"]
        pred_path = tmp_path / "pred.txt"
        argv = ["predict", str(corpus_path), "--model", str(model_path), "-o", str(pred_path)]
        assert main(argv + ["--mode", "structural"]) == 0
        assert [r.mentions for r in read_corpus(pred_path)] == modes["structural"]

    @pytest.mark.parametrize(
        "option", [["--learning-rate", "nan"], ["--l2", "inf"], ["--learning-rate", "1e308"]]
    )
    def test_train_non_finite_numbers_exit_1(self, tmp_path, capsys, option):
        train_path = tmp_path / "train.txt"
        write_corpus(synthetic_records(20, length=8, seed=4), train_path)
        model_path = tmp_path / "model.npz"
        argv = ["train", str(train_path), "--model", str(model_path), "--dim", "4096", *option]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not model_path.exists()

    def test_train_negative_loss_is_divergence(self, tmp_path, capsys, caplog, monkeypatch):
        # huge scores cancel in log Z - A_clamped and the partial loss turns negative
        train_path = tmp_path / "train.txt"
        write_corpus(synthetic_records(20, length=8, seed=2), train_path)
        model_path = tmp_path / "model.npz"
        argv = ["train", str(train_path), "--model", str(model_path), "--dim", "4096",
                "--loss", "partial", "--learning-rate", "1e200"]
        lowest = []
        batch_losses = model._batch_losses

        def spied(*args):
            losses, grad = batch_losses(*args)
            lowest.append(losses.min())
            return losses, grad

        monkeypatch.setattr(model, "_batch_losses", spied)
        with caplog.at_level(logging.INFO):
            assert main(argv) == 1
        # whether a corpus gets there depends on the SGD path: if training changes, pick one that does
        assert min(lowest) < -1e-6, "this corpus no longer reaches a negative loss"
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "epoch 2" in err
        assert not model_path.exists()
        # the epoch-1 loss is ~2e199: logged short, and as a float
        epochs = [r for r in caplog.records if r.getMessage().startswith("epoch ")]
        assert epochs and isinstance(epochs[0].args[-1], float)
        assert all(len(r.getMessage()) <= 200 for r in caplog.records)

    def test_train_partial_keeps_what_the_traced_benchmark_counts(self, tmp_path, caplog, monkeypatch):
        # perfbench's traced train-partial run sums 2**k over the calls to
        # PartialLabelSet.from_annotation, k the unresolved sets of the call's
        # last argument, and checks the sum against the corpus; it reads each
        # epoch's mean loss from the last argument of the epoch's log record
        records = synthetic_records(40, length=12, seed=11)
        train_path, model_path = tmp_path / "train.txt", tmp_path / "model.npz"
        write_corpus(records, train_path)
        members = sorted(2 ** len(annotate(r).sets) for r in records)
        assert members[-1] > 1
        calls = []
        from_annotation = PartialLabelSet.from_annotation.__func__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return from_annotation(cls, *args, **kwargs)

        monkeypatch.setattr(PartialLabelSet, "from_annotation", classmethod(counted))
        argv = ["train", str(train_path), "--model", str(model_path), "--loss", "partial", "--epochs", "2",
                "--learning-rate", "0.1", "--dim", "4096"]
        with caplog.at_level(logging.INFO):
            assert main(argv) == 0
        assert all(isinstance(args[-1], SentenceAnnotation) for args in calls)
        assert sorted(2 ** sum(not s.resolved for s in args[-1].sets) for args in calls) == members
        epochs = [r for r in caplog.records if r.getMessage().startswith("epoch ")]
        assert [r.args[0] for r in epochs] == [1, 2]
        for r in epochs:
            loss = r.args[-1]
            assert math.isfinite(loss) and r.getMessage() == f"epoch {r.args[0]}: mean partial loss {loss:.6g}"
        LinearScorer.load(model_path)

    @pytest.mark.parametrize("loss", ["partial", "hard-em"])
    def test_train_with_lexicon_matches_library(self, tmp_path, loss):
        records = synthetic_records(30, length=10, seed=7)
        train_path = tmp_path / "train.txt"
        write_corpus(records, train_path)
        lexicon_path = tmp_path / "lexicon.txt"
        lexicon_path.write_text("T6w0\nt6w1 t8w2\n", encoding="utf-8")
        lexicon = Lexicon.from_file(lexicon_path)
        data = [(r.tokens, silver_type(annotate(r), r.tokens, lexicon)) for r in records]
        resolved = [s.resolved for _, ann in data for s in ann.sets]
        assert any(resolved) and not all(resolved)
        model_path = tmp_path / "model.npz"
        argv = ["train", str(train_path), "--model", str(model_path), "--lexicon",
                str(lexicon_path), "--loss", loss, "--epochs", "3", "--dim", "4096"]
        assert main(argv) == 0
        expected = train(data, TrainConfig(loss=loss, epochs=3), dim=4096)
        assert np.array_equal(LinearScorer.load(model_path).params, expected.params)

    def test_train_ignores_incompatible_records(self, mixed_corpus_file, tmp_path, capsys):
        kept = tmp_path / "kept.txt"
        assert main(["filter", str(mixed_corpus_file), "-o", str(kept)]) == 0
        capsys.readouterr()
        models = []
        for path in (mixed_corpus_file, kept):
            models.append(tmp_path / f"{path.stem}.npz")
            assert main(["train", str(path), "--model", str(models[-1]), "--epochs", "2", "--dim", "256"]) == 0
        err = capsys.readouterr().err
        assert err.count("ignoring") == 1
        assert err.startswith(f"ignoring {len(MIXED_DROPPED)} incompatible record(s)\n")
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_model_written_to_the_path_given(self, corpus_file, tmp_path, capsys):
        model_path = tmp_path / "m"  # no .npz suffix
        assert main(["train", str(corpus_file), "--model", str(model_path), "--epochs", "1", "--dim", "64"]) == 0
        assert model_path.is_file() and not (tmp_path / "m.npz").exists()
        assert f"model written to {model_path}\n" in capsys.readouterr().err
        assert main(["predict", str(corpus_file), "--model", str(model_path), "-o", str(tmp_path / "p.txt")]) == 0
        assert read_corpus(tmp_path / "p.txt")

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_model_path_fails_before_training(self, corpus_file, tmp_path, capsys, caplog, where):
        model_path = tmp_path / "missing" / "m.npz" if where == "missing-dir" else tmp_path
        with caplog.at_level(logging.INFO):
            assert main(["train", str(corpus_file), "--model", str(model_path), "--dim", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not [r for r in caplog.records if r.getMessage().startswith("epoch ")]

    def test_failed_run_keeps_an_existing_model(self, tmp_path):
        train_path = tmp_path / "train.txt"
        write_corpus(synthetic_records(20, length=8, seed=4), train_path)
        model_path = tmp_path / "model.npz"
        LinearScorer(dim=64).save(model_path)
        before = model_path.read_bytes()
        argv = ["train", str(train_path), "--model", str(model_path), "--dim", "4096", "--learning-rate", "1e308"]
        assert main(argv) == 1
        assert model_path.read_bytes() == before

    def test_train_dim_too_large_exits_1(self, corpus_file, tmp_path, capsys, monkeypatch):
        dim, zeros = 2**40, np.zeros

        def refuse(shape, *args, **kwargs):  # numpy's answer to 80 TiB, without asking for it
            if shape == (dim, NUM_TAGS):
                raise MemoryError(f"Unable to allocate {dim * NUM_TAGS * 8} bytes")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refuse)
        model_path = tmp_path / "model.npz"
        assert main(["train", str(corpus_file), "--model", str(model_path), "--dim", str(dim)]) == 1
        assert capsys.readouterr().err == (
            f"error: feature dimension {dim} is too large: its params cannot be allocated\n"
        )
        assert not model_path.exists()

    def test_train_bad_loss_rejected(self, corpus_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", str(corpus_file), "--model", "m.npz", "--loss", "mle"])


class TestBenchAndExport:
    def test_bench_reports_scaling(self, capsys):
        # scaling itself is covered by the acceptance suite; here we check the
        # report format and that the exit code mirrors the printed verdict
        code = main(["bench", "--lengths", "64,128", "--repeats", "3"])
        out = capsys.readouterr().out
        assert "n=   64" in out and "n=  128" in out
        assert "time(n=128) / time(n=64)" in out
        assert (code == 0) == ("EXCEEDED" not in out)

    @pytest.mark.parametrize(
        "argv",
        [["--lengths", "8,x"], ["--lengths", "0,8"], ["--lengths", "8,-4"], ["--repeats", "0"], ["--seed", "-1"]],
    )
    def test_bench_bad_arguments_exit_1(self, capsys, argv):
        assert main(["bench", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("lengths", ["9999999999999999999999,8", "8,100000000", str(model.TOKEN_BUDGET + 1)])
    def test_bench_rejects_lengths_over_the_token_budget(self, capsys, monkeypatch, lengths):
        # rejected before any sentence is made: the benchmark must not run
        def unreachable(*args, **kwargs):
            raise AssertionError("benchmark_predict called")

        monkeypatch.setattr(corpus_module, "benchmark_predict", unreachable)
        assert main(["bench", "--lengths", lengths]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --lengths must be at most {model.TOKEN_BUDGET}, a predict batch's token budget\n"
        called = []
        monkeypatch.setattr(corpus_module, "benchmark_predict", lambda lengths, **_: called.append(lengths) or [])
        assert main(["bench", "--lengths", f"8,{model.TOKEN_BUDGET}"]) == 0
        assert called == [[8, model.TOKEN_BUDGET]]

    def test_bench_prints_each_length_once(self, capsys):
        main(["bench", "--lengths", "16,8,16,8", "--repeats", "1"])
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == ["n=", "n=", "time(n=16)"]
        assert out.count("n=    8 ") == 1 and out.count("n=   16 ") == 1

    def test_automaton_export(self, tmp_path):
        out = tmp_path / "grammar.txt"
        assert main(["automaton-export", "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("initial 0\n")
        assert "DB-Bx" in text

    def test_automaton_export_minimal_structural(self, capsys):
        assert main(["automaton-export", "--mode", "structural", "--minimal"]) == 0
        text = capsys.readouterr().out
        assert "DB-By" not in text


# Pieces of fuzzed input files: bytes that are not UTF-8, NUL, every line
# ending, and the tokens of the corpus, tag file and lexicon formats.
FUZZ_PIECES = [
    b"\xff", b"\x00", b"\r", b"\n", b"\n\n", b" ", b"-", b";", b"|", b"w",
    *(str(d).encode() for d in range(10)),
    *(t.symbol.encode() for t in TAGS),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    LinearScorer(dim=64).save(path / "model.npz")
    (path / "corpus.txt").write_text("pain in arms and shoulders\n0-1;2-2|0-1;4-4\n", encoding="utf-8")
    return path


class TestFuzzedInput:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=50).map(b"".join))
    @example(b"w w\n0-0\n\nw \xff\n\n")
    @example(b"a b c d e\n0-0;2-2;4-4\n")
    def test_reading_commands_end_with_one_error_line(self, fuzz_dir, data):
        path = fuzz_dir / "input.txt"
        path.write_bytes(data)
        fuzzed, out, corpus = str(path), str(fuzz_dir / "out.txt"), str(fuzz_dir / "corpus.txt")
        for argv in (
            ["stats", fuzzed],
            ["validate", fuzzed],
            ["decode", fuzzed, "-o", out],
            ["decode", fuzzed, "--corpus", fuzzed, "-o", out],
            ["filter", fuzzed, "-o", out],
            ["encode", fuzzed, "-o", out],
            ["eval", fuzzed, fuzzed],
            ["silver", corpus, "--lexicon", fuzzed, "-o", out],
            ["silver", fuzzed, "--lexicon", corpus, "-o", out],
            ["train", fuzzed, "--model", str(fuzz_dir / "trained.npz"), "--epochs", "1", "--dim", "64"],
            ["predict", fuzzed, "--model", str(fuzz_dir / "model.npz"), "-o", out],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
            assert code in (0, 1, 2), argv
            assert len(errors) <= 1, (argv, errors)
            if argv[0] != "validate":  # validate's exit 1 is its report
                assert (code == 0) == (not errors), (argv, code, stderr.getvalue())


@pytest.fixture(scope="module")
def train_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("train-fuzz")
    write_corpus(synthetic_records(3, length=5, seed=2), path / "corpus.txt")
    (path / "existing.npz").write_bytes(b"")
    return path


TRAIN_NUMBERS = ["0", "-1", "1e-300", "0.1", "0.5", "1e200", "1e308", "nan", "inf", "-inf"]


class TestFuzzedTrainOptions:
    @settings(max_examples=40, deadline=None)
    @given(
        epochs=st.integers(-2, 3),
        learning_rate=st.sampled_from(TRAIN_NUMBERS),
        l2=st.sampled_from(TRAIN_NUMBERS),
        dim=st.integers(-3, 2**16),  # never a huge table
        model=st.sampled_from(["m.npz", "m", "existing.npz", "missing/m.npz", ".", "corpus.txt/m"]),
        seed=st.integers(-3, 3),
    )
    @example(epochs=1, learning_rate="0.5", l2="0", dim=64, model="m.npz", seed=-1)
    def test_train_ends_with_one_error_line(self, train_fuzz_dir, epochs, learning_rate, l2, dim, model, seed):
        argv = ["train", str(train_fuzz_dir / "corpus.txt"), "--model", str(train_fuzz_dir / model),
                f"--epochs={epochs}", f"--learning-rate={learning_rate}", f"--l2={l2}", f"--dim={dim}",
                f"--seed={seed}"]
        code, _, errors = run_main(argv)
        assert code in (0, 1, 2), argv
        assert len(errors) <= 1, (argv, errors)
        assert (code == 0) == (not errors), argv


def run_main(argv):
    """Exit code, standard output and ``error:`` lines of one command; an
    option that argparse rejects exits with its code 2."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, stdout.getvalue(), [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]


class TestFuzzedBenchOptions:
    # small lengths and repeats keep each run short; the doubling verdict may be either
    @settings(max_examples=15, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from(["-1", "0", "2", "3", "16", "x", "", "1.5"]), min_size=1, max_size=3),
        repeats=st.integers(-1, 2),
        seed=st.integers(-2, 2),
    )
    @example(lengths=["3", "3"], repeats=1, seed=-1)
    def test_bench_ends_with_one_error_line(self, lengths, repeats, seed):
        argv = ["bench", f"--lengths={','.join(lengths)}", f"--repeats={repeats}", f"--seed={seed}"]
        code, out, errors = run_main(argv)
        assert code in (0, 1, 2), argv
        assert len(errors) <= 1, (argv, errors)
        assert (code == 0) <= (not errors), argv
        printed = [int(line[2:].split()[0]) for line in out.splitlines() if line.startswith("n=")]
        assert len(printed) == len(set(printed)), argv


class TestFuzzedExportOptions:
    @settings(max_examples=20, deadline=None)
    @given(
        mode=st.sampled_from(["semantic", "structural", "minimal", ""]),
        minimal=st.booleans(),
        output=st.sampled_from(["-", "grammar.txt", ".", "missing/grammar.txt", "corpus.txt/g"]),
    )
    def test_export_ends_with_one_error_line(self, fuzz_dir, mode, minimal, output):
        argv = ["automaton-export", f"--mode={mode}", "-o", output if output == "-" else str(fuzz_dir / output)]
        code, _, errors = run_main(argv + ["--minimal"] * minimal)
        assert code in (0, 1, 2), argv
        assert len(errors) <= 1, (argv, errors)
        assert (code == 0) <= (not errors), argv
