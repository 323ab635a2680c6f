"""Command-line interface.

Exit codes: 0 on success, 1 when a validation-style check fails (ill-formed
tag sequences, incompatible records during encoding, benchmark scaling out of
bounds), 2 on I/O or parse errors.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import logging
import os
import sys

from . import corpus as corpus_io
from .automata import export_text, grammar_automaton, minimize
from .errors import ConfigError, DisctagError, LengthMismatch, ParseError
from .model import TOKEN_BUDGET, LinearScorer, TrainConfig, predict_rows, train
from .scheme import encode_batch, is_well_formed_batch, mention_table

SCALING_BOUND = 2.5  # doubling the sentence may at most 2.5x the median time


def _add_mode(parser):
    parser.add_argument(
        "--mode",
        choices=("semantic", "structural"),
        default="semantic",
        help="grammar variant: semantic allows either component type first, "
        "structural forces the leftmost component to be typed x",
    )


@functools.cache  # built once per process: parse_args leaves it as it was
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


@contextlib.contextmanager
def _opened_first(path: str):
    """Open the output ``path`` before the work that fills it, so that a path
    that cannot be written fails first; a run that fails leaves no file that
    was not there, and an existing file as it was until the work writes it."""
    created = not os.path.exists(path)
    with open(path, "ab"):
        pass
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def _cmd_validate(args) -> int:
    ok = is_well_formed_batch(*corpus_io.read_tag_rows(args.tags)).tolist()
    bad = [i for i, good in enumerate(ok, start=1) if not good]
    for i in bad:
        print(f"sequence {i}: ill-formed")
    print(f"{len(ok) - len(bad)}/{len(ok)} sequences well-formed")
    return 1 if bad else 0


def _cmd_encode(args) -> int:
    """``encode``, and ``silver``, which orients sets by its lexicon first."""
    reasons, kept = corpus_io._read_annotations(args.corpus, args.lexicon if args.command == "silver" else None)
    for position, reason in enumerate(reasons, start=1):
        if reason is not None:
            print(f"error: record {position}: incompatible ({reason})", file=sys.stderr)
            return 1
    if args.command == "silver":
        resolved = [s.resolved for _, ann in kept for s in ann.sets]
        print(f"sets disambiguated by the lexicon: {sum(resolved)}; left latent: {resolved.count(False)}",
              file=sys.stderr)
    _write(args.output, "".join(ts.symbols() + "\n" for ts in encode_batch(ann for _, ann in kept)))
    return 0


def _cmd_decode(args) -> int:
    flat, bounds = corpus_io.read_tag_rows(args.tags)
    table = mention_table(flat, bounds)
    count = len(bounds) - 1
    if args.corpus is None:
        _write(args.output, "".join(line + "\n" for line in corpus_io.mention_lines(table, count)))
        return 0
    sentences = corpus_io._corpus_sentences(args.corpus)
    if len(sentences) != count:
        raise LengthMismatch(f"corpus has {len(sentences)} records but tag file has {count} sequences")
    for tokens, n in zip(sentences, (bounds[1:] - bounds[:-1]).tolist()):
        if len(tokens) != n:
            raise LengthMismatch(f"length mismatch for sentence {' '.join(tokens)!r}")
    _write(args.output, corpus_io.table_text(sentences, table))
    return 0


def _cmd_stats(args) -> int:
    s = corpus_io._stats([fragments for _, fragments in corpus_io._parse_corpus(args.corpus)])
    print(f"sentences                {s.sentences}")
    print(f"mentions                 {s.mentions}")
    print(f"discontinuous mentions   {s.discontinuous_mentions}")
    print(f"incompatible sentences   {s.incompatible_sentences}")
    return 0


def _cmd_filter(args) -> int:
    lines, reasons = corpus_io._filtered_corpus(args.corpus)
    for reason, count in sorted(collections.Counter(filter(None, reasons)).items()):
        print(f"dropped {count} record(s): {reason}", file=sys.stderr)
    print(f"kept {reasons.count(None)}/{len(reasons)} records", file=sys.stderr)
    _write(args.output, corpus_io._layout(line for line, reason in zip(lines, reasons) if reason is None))
    return 0


def _cmd_train(args) -> int:
    reasons, data = corpus_io._read_annotations(args.corpus, args.lexicon or None)
    if len(data) < len(reasons):
        print(f"ignoring {len(reasons) - len(data)} incompatible record(s)", file=sys.stderr)
    config = TrainConfig(
        loss=args.loss,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        l2=args.l2,
        seed=args.seed,
    )
    with _opened_first(args.model):  # fails before the first epoch
        scorer = train(data, config, mode=args.mode, dim=args.dim)
        scorer.save(args.model)
    print(f"trained on {len(data)} sentences; model written to {args.model}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    sentences = corpus_io._corpus_sentences(args.corpus)
    scorer = LinearScorer.load(args.model)
    output = contextlib.nullcontext() if args.output == "-" else _opened_first(args.output)
    with output:  # a path that cannot be written fails before predicting
        table = mention_table(*predict_rows(scorer, sentences, args.mode))
        _write(args.output, corpus_io.table_text(sentences, table))
    return 0


def _cmd_eval(args) -> int:
    gold = corpus_io.read_corpus(args.gold)
    predicted = corpus_io.read_corpus(args.predicted)
    report = corpus_io.evaluate([r.mentions for r in gold], [r.mentions for r in predicted])  # record counts first
    for i, (g, p) in enumerate(zip(gold, predicted), start=1):
        if g.n != p.n:
            raise LengthMismatch(f"record {i} has {g.n} gold tokens but {p.n} predicted tokens")
    print(report.summary())
    return 0


def _cmd_bench(args) -> int:
    try:
        lengths = sorted({int(x) for x in args.lengths.split(",")})
    except ValueError:
        raise ConfigError(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    if lengths[0] < 1 or args.repeats < 1:
        raise ConfigError("--lengths and --repeats must be positive")
    if lengths[-1] > TOKEN_BUDGET:  # before a sentence of that length is allocated
        raise ConfigError(f"--lengths must be at most {TOKEN_BUDGET}, a predict batch's token budget")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
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
    "silver": _cmd_encode,
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
