"""Command-line interface.

Exit codes: 0 on success, 1 when a validation-style check fails (ill-formed
tag sequences, incompatible records during encoding, benchmark scaling out of
bounds), 2 on I/O or parse errors.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import corpus as corpus_io
from .automata import export_text, grammar_automaton, minimize
from .errors import ConfigError, DisctagError, Incompatible, LengthMismatch, ParseError
from .model import LinearScorer, TrainConfig, predict_batch, train
from .scheme import decode, encode, is_well_formed

SCALING_BOUND = 2.5  # doubling the sentence may at most 2.5x the median time


def _add_mode(parser):
    parser.add_argument(
        "--mode",
        choices=("semantic", "structural"),
        default="semantic",
        help="grammar variant: semantic allows either component type first, "
        "structural forces the leftmost component to be typed x",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disctag",
        description="Tagging, exact inference and training for discontinuous NER.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every sequence of a tag file for well-formedness")
    p.add_argument("tags", help="tag file")

    p = sub.add_parser("encode", help="corpus file -> tag file")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("decode", help="tag file -> mention lines (or corpus with --corpus)")
    p.add_argument("tags")
    p.add_argument("--corpus", help="corpus file providing the tokens", default=None)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("stats", help="corpus counts")
    p.add_argument("corpus")

    p = sub.add_parser("filter", help="drop incompatible records, report reasons")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("silver", help="orient sets via a lexicon; writes disambiguated tags")
    p.add_argument("corpus")
    p.add_argument("--lexicon", required=True)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("train", help="fit the linear scorer on a corpus")
    p.add_argument("corpus")
    p.add_argument("--model", required=True, help="output model path (.npz)")
    p.add_argument("--loss", choices=("nll", "partial", "hard-em"), default="nll")
    p.add_argument("--lexicon", default=None, help="optional silver-typing lexicon")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2**18)
    _add_mode(p)

    p = sub.add_parser("predict", help="corpus tokens -> corpus with predicted mentions")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output", default="-")
    _add_mode(p)

    p = sub.add_parser("eval", help="mention-level F1 of predictions against gold")
    p.add_argument("gold")
    p.add_argument("predicted")

    p = sub.add_parser("bench", help="prediction speed and linear-scaling check")
    p.add_argument("--lengths", default="64,128,256,512")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("automaton-export", help="dump the grammar automaton as text")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--minimal", action="store_true", help="export the minimized automaton")
    _add_mode(p)
    return parser


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_records(path: str, records) -> None:
    _write(path, corpus_io.corpus_text(records))


def _cmd_validate(args) -> int:
    sequences = corpus_io.read_tag_file(args.tags)
    bad = [i for i, ts in enumerate(sequences, start=1) if not is_well_formed(ts)]
    for i in bad:
        print(f"sequence {i}: ill-formed")
    print(f"{len(sequences) - len(bad)}/{len(sequences)} sequences well-formed")
    return 1 if bad else 0


def _cmd_encode(args) -> int:
    records = corpus_io.read_corpus(args.corpus)
    lines = []
    for i, record in enumerate(records, start=1):
        try:
            ann = corpus_io.annotate(record)
        except Incompatible as err:
            print(f"record {i}: incompatible ({err.reason})", file=sys.stderr)
            return 1
        lines.append(encode(ann).symbols())
    _write(args.output, "".join(line + "\n" for line in lines))
    return 0


def _cmd_decode(args) -> int:
    sequences = corpus_io.read_tag_file(args.tags)
    mention_sets = [decode(ts) for ts in sequences]
    if args.corpus is None:
        _write(
            args.output,
            "".join(corpus_io.format_mentions(ms) + "\n" for ms in mention_sets),
        )
        return 0
    records = corpus_io.read_corpus(args.corpus)
    if len(records) != len(sequences):
        raise LengthMismatch(f"corpus has {len(records)} records but tag file has {len(sequences)} sequences")
    out = []
    for record, ts, ms in zip(records, sequences, mention_sets):
        if record.n != len(ts):
            raise LengthMismatch(f"length mismatch for sentence {' '.join(record.tokens)!r}")
        out.append(corpus_io.CorpusRecord(record.tokens, ms))
    _write_records(args.output, out)
    return 0


def _cmd_stats(args) -> int:
    s = corpus_io.stats(corpus_io.read_corpus(args.corpus))
    print(f"sentences                {s.sentences}")
    print(f"mentions                 {s.mentions}")
    print(f"discontinuous mentions   {s.discontinuous_mentions}")
    print(f"incompatible sentences   {s.incompatible_sentences}")
    return 0


def _cmd_filter(args) -> int:
    records = corpus_io.read_corpus(args.corpus)
    kept, dropped = corpus_io.filter_incompatible(records)
    by_reason: dict[str, int] = {}
    for _, reason in dropped:
        by_reason[reason] = by_reason.get(reason, 0) + 1
    for reason, count in sorted(by_reason.items()):
        print(f"dropped {count} record(s): {reason}", file=sys.stderr)
    print(f"kept {len(kept)}/{len(records)} records", file=sys.stderr)
    _write_records(args.output, kept)
    return 0


def _cmd_silver(args) -> int:
    records = corpus_io.read_corpus(args.corpus)
    lexicon = corpus_io.Lexicon.from_file(args.lexicon)
    resolved = unresolved = 0
    lines = []
    for i, record in enumerate(records, start=1):
        try:
            ann = corpus_io.annotate(record)
        except Incompatible as err:
            print(f"record {i}: incompatible ({err.reason})", file=sys.stderr)
            return 1
        ann = corpus_io.silver_type(ann, record.tokens, lexicon)
        resolved += sum(s.resolved for s in ann.sets)
        unresolved += sum(not s.resolved for s in ann.sets)
        lines.append(encode(ann).symbols())
    print(f"sets disambiguated by the lexicon: {resolved}; left latent: {unresolved}", file=sys.stderr)
    _write(args.output, "".join(line + "\n" for line in lines))
    return 0


def _cmd_train(args) -> int:
    records = corpus_io.read_corpus(args.corpus)
    lexicon = corpus_io.Lexicon.from_file(args.lexicon) if args.lexicon else None
    data = []
    for record in records:
        try:
            ann = corpus_io.annotate(record)
        except Incompatible:
            continue
        if lexicon is not None:
            ann = corpus_io.silver_type(ann, record.tokens, lexicon)
        data.append((record.tokens, ann))
    if len(data) < len(records):
        print(f"ignoring {len(records) - len(data)} incompatible record(s)", file=sys.stderr)
    config = TrainConfig(
        loss=args.loss,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        l2=args.l2,
        seed=args.seed,
    )
    scorer = train(data, config, mode=args.mode, dim=args.dim)
    scorer.save(args.model)
    print(f"trained on {len(data)} sentences; model written to {args.model}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    records = corpus_io.read_corpus(args.corpus)
    scorer = LinearScorer.load(args.model)
    tags = predict_batch(scorer, [r.tokens for r in records], args.mode)
    out = [corpus_io.CorpusRecord(r.tokens, decode(ts)) for r, ts in zip(records, tags)]
    _write_records(args.output, out)
    return 0


def _cmd_eval(args) -> int:
    gold = corpus_io.read_corpus(args.gold)
    predicted = corpus_io.read_corpus(args.predicted)
    report = corpus_io.evaluate([r.mentions for r in gold], [r.mentions for r in predicted])
    print(report.summary())
    return 0


def _cmd_bench(args) -> int:
    try:
        lengths = sorted(int(x) for x in args.lengths.split(","))
    except ValueError:
        raise ConfigError(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    if lengths[0] < 1 or args.repeats < 1:
        raise ConfigError("--lengths and --repeats must be positive")
    results = corpus_io.benchmark_predict(lengths, repeats=args.repeats, seed=args.seed)
    ok = True
    by_length = {r.length: r for r in results}
    for r in results:
        print(f"n={r.length:5d}  {r.median_seconds * 1e3:8.2f} ms/sentence  {r.sentences_per_second:8.1f} sentences/s")
    for r in results:
        double = by_length.get(2 * r.length)
        if double is None:
            continue
        ratio = double.median_seconds / r.median_seconds
        verdict = "ok" if ratio <= SCALING_BOUND else "EXCEEDED"
        print(f"time(n={2 * r.length}) / time(n={r.length}) = {ratio:.2f} ({verdict})")
        ok = ok and ratio <= SCALING_BOUND
    return 0 if ok else 1


def _cmd_automaton_export(args) -> int:
    automaton = grammar_automaton(args.mode)
    if args.minimal:
        automaton = minimize(automaton)
    _write(args.output, export_text(automaton))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "stats": _cmd_stats,
    "filter": _cmd_filter,
    "silver": _cmd_silver,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "automaton-export": _cmd_automaton_export,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DisctagError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
