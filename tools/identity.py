"""Identity manifest: the SHA-256 of everything a tree's commands print and write.

Writes the corpora of the three benchmark workloads (``perfbench/workloads.py``,
imported unchanged) for each seed, a lexicon, a small corpus of incompatible
records and a few bad inputs, then runs fresh ``python -m disctag.cli``
processes against the given tree's ``src/``:

- ``train`` of each model, in both ``--mode``s: predict-short with ``--epochs 2``;
  predict-long with ``--epochs 4 --learning-rate 0.1``; train-partial with each
  of the losses ``partial``, ``nll`` and ``hard-em``, with ``--epochs 2
  --learning-rate 0.1``;
- ``predict`` with each predict-short and predict-long model on its input, and
  with each train-partial ``partial`` model on the held-out set, each in both
  modes;
- ``encode``, ``silver`` (with the lexicon, which resolves some sets and leaves
  others latent), ``filter`` and ``stats`` on each workload's training corpus,
  then ``validate`` and ``decode``, with and without ``--corpus``, on each
  ``encode`` output;
- ``automaton-export`` in both modes, with and without ``--minimal``;
- ``encode``, ``silver``, ``filter``, ``stats`` and ``train`` on the
  incompatible corpus, and ``eval`` of it against itself.  It holds one
  record of each incompatibility reason, the first of them record 3, and
  records with two incompatible sets of different kinds.  The workload
  corpora hold no incompatible record, so this corpus is the only one that
  reaches those paths;
- ``encode``, ``silver``, ``filter``, ``stats`` and ``train --loss partial``
  in both modes on a corpus whose mention lines are not as ``disctag`` writes
  them: fragments out of order, overlapping and adjacent fragments of one
  mention, a mention written twice, sets whose mentions are listed right to
  left, and two incompatible records; then ``encode`` and ``silver`` on the
  ``filter`` output, and ``eval`` of the corpus against it, two records
  shorter, whose records stop aligning at record 7;
- ``train`` in both modes, ``predict`` with each model in both modes,
  ``encode`` and ``decode --corpus`` on a small corpus of non-ASCII text: ``İ``
  (whose lowercase is two code points), ``Σ`` in final and non-final
  positions, combining marks, an apostrophe, CJK and multi-byte words of more
  than three characters, with NBSP, U+3000 and ``\\x1c`` between tokens and
  ``\\r\\n`` and ``\\r`` line ends;
- ``predict`` with each of those models in both modes on a corpus whose
  predict batches take both sides of the hasher's ASCII check: 520 ASCII
  records of eight mixed-case words, longer than any non-ASCII record, fill
  a first batch of 512 lanes, one sentence each; the other 8 share the
  second batch with the non-ASCII records, which follow them in the file;
- ``validate``, ``decode`` and ``decode --corpus`` on a tag file of mostly
  ill-formed sequences (see :func:`_ill_formed`), built without ``disctag``, and
  a corpus of as many words per record: long concatenations of well-formed
  blocks, most with one or two tags replaced at seeded random, one of more
  than 65,535 tags with one tag replaced, then one sequence that breaks each
  of the six rules of the tagging scheme, and an empty line;
- bad inputs: a byte that is not UTF-8, a record without its mention line, an
  unknown tag symbol, a ``decode --corpus`` length mismatch, a model file
  that is not a model, four that :mod:`zipfile` or numpy cannot parse (an
  entry that needs zip version 25.5, one marked encrypted, an ``.npy``
  header cut off inside its shape, and one whose dtype string does not
  parse), each given to ``predict``, and ``eval`` of corpora whose record
  counts, and whose token counts, differ.

It prints one sorted line per artefact, ``<sha256> <exit code> <name>``: for
each run, the output file it was given (``missing`` when it wrote none), and
its stdout and stderr (``<name>:stdout``, ``<name>:stderr``) with the path of
the work directory replaced by ``<work>``.  Two trees give the same outputs
exactly when their manifests are equal::

    python tools/identity.py --src /path/to/other/src > other.txt
    python tools/identity.py > this.txt
    diff other.txt this.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
import zipfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is no package)

MODES = ("semantic", "structural")
LOSSES = ("partial", "nll", "hard-em")
MODEL_OPTIONS = {
    "predict-short": ["--epochs", "2"],
    "predict-long": ["--epochs", "4", "--learning-rate", "0.1"],
}
TRAIN_OPTIONS = ["--epochs", "2", "--learning-rate", "0.1"]
SEEDS = (101, 102, 103)
WORKERS = 2
# Markers of x-typed components (variant 0) orient the sets they occur in;
# a set with none of them stays latent, as does one that also holds ``dby1``.
LEXICON = "dbx0\ndix0 iix0\ndby1\n"
# Two compatible records, then incompatible ones, one of each reason; in the
# last two records the leftmost of two incompatible sets names the reason.
INCOMPATIBLE = (
    "pain in arms and shoulders\n0-1;2-2|0-1;4-4\n\n"
    "no problems at all\n\n\n"
    "muscle aches in elbows and knees\n0-0;2-2;4-4\n\n"
    "a b c d\n0-3|1-3\n\n"
    "sore and stiff\n0-0;2-2\n\n"
    "a b c d e\n0-0;4-4|2-2\n\n"
    "a b c d e f g h i\n0-0;2-2;4-4|6-6;8-8|6-6\n\n"
    "a b c d e f g h i\n0-0;2-2|0-0|4-4;6-6;8-8\n"
)
# Mention lines as a person might write them (see the module docstring):
# records 6 and 7 are incompatible, a three-way split and a partial overlap.
NON_CANONICAL = (
    "pain in arms and shoulders\n4-4;0-1|2-2;0-1\n\n"
    "a b dbx0 d e\n2-2;0-0|0-0;4-4\n\n"
    "w0 w1 w2 w3 w4 w5 w6 w7 w8\n1-2;0-1;4-4|6-6;7-7\n\n"
    "x y z q\n0-0;2-2|2-2;0-0|3-3|0-0;2-2;2-2\n\n"
    "nothing here\n\n\n"
    "m a i e k\n4-4;2-2;0-0\n\n"
    "a b c d\n1-3|3-3;0-1;2-2|0-3\n\n"
    "p dby1 r s dix0\n0-1;4-4|2-3;0-1\n\n"
    "a b c d e f g\n6-6;4-4|6-6;0-0|2-2;4-4|0-0;2-2\n"
)
# Non-ASCII text: types that lowercase to more code points, or differently
# in a joined string (final sigma), affixes of multi-byte characters, and the
# Unicode whitespace and line ends that split tokens and records.
UNICODE = (
    "\u0130stanbul\u00a0\u03a3\u0391\u03a3\u3000\u03c3 \u039f\u0394\u03a5\u03a3\u03a3\u0395\u03a5\u03a3\x1cpain\r\n"
    "0-0|1-1;3-3\r\n\r\n"
    "cafe\u0301 na\u00efvet\u00e9 \u65e5\u672c\u8a9e\u30c6\u30ad\u30b9\u30c8 patient's don\u2019t \u75db\u307f\r"
    "1-2|4-5\r\r"
    "\u03a3 \u0130 \u0130\u0130\u0130 \u03a3\u03a3 \u03c3\u03c2 \u03c2 A\u0301\u0301\u0301\u0301\n\n\n"
    "muscle\u00a0aches in\u3000elbows and\x1cknees \u00c9T\u00c9\n0-1;3-3|0-1;5-5\n"
)
# Mixed-case ASCII words for the records before the non-ASCII ones (see
# _fixed_jobs): each record is eight of them, one more word than the longest
# UNICODE record, so that the first predict batch holds only ASCII types.
ASCII_WORDS = ("pain", "Muscle", "ACHES", "in", "Elbows", "and", "KNEES", "patient's", "x", "Arms", "sHoulders")
ASCII_RECORDS = 520
TAG_SYMBOLS = ("CB", "CI", "O", "DB-Bx", "DB-By", "DI-Bx", "DI-By", "DI-Ix", "DI-Iy", "DI-O")
# Well-formed sequences; any concatenation of them is well-formed too.
WELL_FORMED_BLOCKS = (
    "O", "O O", "CB", "CB CI", "CB CI CI",
    "DB-Bx DI-O DI-By", "DB-By DI-O DI-Bx",
    "DB-Bx DI-Ix DI-By DI-O DI-By", "DB-By DI-Iy DI-Bx DI-O DI-Bx",
    "DB-Bx DI-By DI-Bx", "DB-By DI-Bx DI-Ix DI-O DI-O DI-By DI-Iy",
)
# One sequence breaking each rule, in order: CI after no CB or CI; DI-* after
# no DB-* or DI-*; *-Ix after no *-Bx or *-Ix; a set with no y component; a
# set that is one continuous mention; a set span ending with DI-O.
RULE_BREAKERS = (
    "O CI", "O DI-Bx DI-By", "DB-Bx DI-By DI-Ix", "DB-Bx DI-O DI-Bx", "DB-Bx DI-By", "DB-Bx DI-O DI-By DI-O",
)
ILL_FORMED_SEED = 7
ILL_FORMED_LONG = 48  # long sequences; every eighth is left well-formed
# Tags of one more sequence, with one tag replaced: past 65,535 the sort keys
# of the grammar walk (an unsigned integer as wide as the longest length) widen
# from 16 to 32 bits.
ILL_FORMED_WIDE = 65_600


def _archive(header: str, central: dict[int, int] | None = None) -> bytes:
    """A zip archive of one entry, ``format_version.npy``: an ``.npy`` header
    of text ``header``, padded as numpy pads it, then 8 zero bytes; each byte
    of ``central`` (offset -> value) set in the entry's central-directory record."""
    text = header.encode().ljust(117) + b"\n"
    handle = io.BytesIO()
    with zipfile.ZipFile(handle, "w") as archive:
        archive.writestr(zipfile.ZipInfo("format_version.npy"),  # dated 1980-01-01, so the bytes are fixed
                         b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(8))
    data = bytearray(handle.getvalue())
    for at, value in (central or {}).items():
        data[data.index(b"PK\x01\x02") + at] = value
    return bytes(data)


SCALAR_HEADER = "{'descr': '<i8', 'fortran_order': False, 'shape': (), }"
BAD_INPUTS = {  # file name -> contents
    "non-utf8.txt": b"pain in \xffarms\n0-1\n",
    "no-mention-line.txt": b"pain in arms\n0-1\n\nit hurts",
    "unknown-symbol.tags": b"O CB\nO XX\n",
    "three-words.txt": b"pain in arms\n0-1\n",
    "two-records.txt": b"pain in arms\n0-1\n\nit hurts\n\n",
    "four-words.txt": b"pain in both arms\n2-3\n",
    "two-tags.tags": b"CB CI\n",
    "not-a-model.npz": b"not a model\n",
    "zip-version-25.5.npz": _archive(SCALAR_HEADER, {6: 0xFF}),  # version needed to extract
    "zip-encrypted.npz": _archive(SCALAR_HEADER, {8: 0x01}),  # flag bit 0
    "npy-header-cut-in-shape.npz": _archive("{'descr': '<i8', 'fortran_order': False, 'shape': ("),
    "npy-descr-unparsable.npz": _archive("{'descr': ',f8', 'fortran_order': False, 'shape': (), }"),
}
UNPARSABLE_MODELS = [name for name in BAD_INPUTS if name.startswith(("zip-", "npy-"))]


def _model_jobs(seed: int, work: Path) -> tuple[list, list]:
    """Write one seed's corpora under ``work``; return the jobs that need only
    them and the jobs that read the first ones' outputs, each ``(name, argv,
    output)`` with ``output`` None for a run that writes no file."""
    first, second = [], []

    def emit(name: str, sentences, with_mentions: bool) -> Path:
        path = work / f"{name}.txt"
        workloads.write(path, workloads.corpus_text(sentences, with_mentions))
        return path

    for workload, generate in workloads.GENERATORS.items():
        corpora = generate(seed)
        stem = f"seed{seed}/{workload}"
        (work / stem).mkdir(parents=True)
        if workload in MODEL_OPTIONS:
            train = emit(f"{stem}/model-train", corpora["model-train"], True)
            test = emit(f"{stem}/input", corpora["input"], False)
            models = [(f"{stem}/model-{mode}", mode, MODEL_OPTIONS[workload], True) for mode in MODES]
        else:
            train = emit(f"{stem}/train", corpora["train"], True)
            test = emit(f"{stem}/heldout", corpora["heldout"], False)
            models = [
                (f"{stem}/model-{loss}-{mode}", mode, ["--loss", loss, *TRAIN_OPTIONS], loss == "partial")
                for loss in LOSSES for mode in MODES
            ]
        for name, mode, options, predicted in models:
            model = work / f"{name}.npz"
            argv = ["train", str(train), "--model", str(model), *options, "--seed", str(seed), "--mode", mode]
            first.append((f"{name}.npz", argv, model))
            for decode in MODES if predicted else ():
                output = work / f"{name}.predict-{decode}.txt"
                argv = ["predict", str(test), "--model", str(model), "-o", str(output), "--mode", decode]
                second.append((f"{name}.predict-{decode}.txt", argv, output))
        lexicon, tags = str(work / "lexicon.txt"), str(work / stem / "encode.tags")

        def written(name: str, *argv: str, stem=stem) -> tuple:
            return (f"{stem}/{name}", [*argv, "-o", str(work / stem / name)], work / stem / name)

        first += [
            written("encode.tags", "encode", str(train)),
            written("silver.tags", "silver", str(train), "--lexicon", lexicon),
            written("filter.txt", "filter", str(train)),
            (f"{stem}/stats", ["stats", str(train)], None),
        ]
        second += [
            (f"{stem}/validate", ["validate", tags], None),
            written("decode.txt", "decode", tags),
            written("decode-corpus.txt", "decode", tags, "--corpus", str(train)),
        ]
    return first, second


def _ill_formed() -> list[str]:
    """The lines of the ill-formed tag file: :data:`ILL_FORMED_LONG` seeded
    concatenations of :data:`WELL_FORMED_BLOCKS`, of 100-500 tags each, all
    but every eighth with one or two tags replaced by any tag, one more of at
    least :data:`ILL_FORMED_WIDE` tags with one tag replaced by another, then the
    :data:`RULE_BREAKERS` and an empty line."""
    rng = random.Random(ILL_FORMED_SEED)
    lines = []
    for i in range(ILL_FORMED_LONG):
        tags, length = [], rng.randint(100, 500)
        while len(tags) < length:
            tags += rng.choice(WELL_FORMED_BLOCKS).split()
        for _ in range(rng.randint(1, 2) if i % 8 else 0):
            tags[rng.randrange(len(tags))] = rng.choice(TAG_SYMBOLS)
        lines.append(" ".join(tags))
    tags = []
    while len(tags) < ILL_FORMED_WIDE:
        tags += rng.choice(WELL_FORMED_BLOCKS).split()
    at = rng.randrange(len(tags))
    tags[at] = rng.choice([t for t in TAG_SYMBOLS if t != tags[at]])
    lines.append(" ".join(tags))
    return lines + list(RULE_BREAKERS) + [""]


def _fixed_jobs(work: Path) -> tuple[list, list]:
    """Write the lexicon, the incompatible and non-ASCII corpora and the bad
    inputs; return the jobs that need no seed, as :func:`_model_jobs` does."""
    (work / "lexicon.txt").write_text(LEXICON, encoding="utf-8")
    mixed = work / "incompatible.txt"
    mixed.write_text(INCOMPATIBLE, encoding="utf-8")
    (work / "bad").mkdir()
    for name, data in BAD_INPUTS.items():
        (work / "bad" / name).write_bytes(data)
    bad = {name: str(work / "bad" / name) for name in BAD_INPUTS}
    written = work / "non-canonical.txt"
    written.write_text(NON_CANONICAL, encoding="utf-8")
    kept = work / "non-canonical-kept.txt"
    text = work / "unicode.txt"
    text.write_bytes(UNICODE.encode("utf-8"))
    both = work / "ascii-then-unicode.txt"
    records = (" ".join(ASCII_WORDS[(3 * i + 5 * j) % len(ASCII_WORDS)] for j in range(8))
               for i in range(ASCII_RECORDS))
    both.write_bytes(("".join(record + "\n\n\n" for record in records) + UNICODE).encode("utf-8"))
    tags = work / "unicode-encode.tags"
    ill_formed, ill_words = work / "ill-formed.tags", work / "ill-formed-words.txt"
    lines = _ill_formed()
    ill_formed.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    ill_words.write_text("".join(" ".join(["w"] * len(line.split())) + "\n\n\n" for line in lines if line),
                         encoding="utf-8")
    jobs = [
        (f"automaton-export-{mode}{suffix}", ["automaton-export", "--mode", mode, *flags], None)
        for mode in MODES for suffix, flags in (("", []), ("-minimal", ["--minimal"]))
    ]
    jobs += [
        ("incompatible/encode", ["encode", str(mixed)], None),
        ("incompatible/silver", ["silver", str(mixed), "--lexicon", str(work / "lexicon.txt")], None),
        ("incompatible/filter", ["filter", str(mixed)], None),
        ("incompatible/stats", ["stats", str(mixed)], None),
        ("incompatible/eval", ["eval", str(mixed), str(mixed)], None),
        ("incompatible/train.npz", ["train", str(mixed), "--model", str(work / "incompatible.npz"),
                                    "--epochs", "2", "--dim", "256"], work / "incompatible.npz"),
        ("non-canonical/encode", ["encode", str(written)], None),
        ("non-canonical/silver", ["silver", str(written), "--lexicon", str(work / "lexicon.txt")], None),
        ("non-canonical/filter.txt", ["filter", str(written), "-o", str(kept)], kept),
        ("non-canonical/stats", ["stats", str(written)], None),
        ("bad/non-utf8", ["stats", bad["non-utf8.txt"]], None),
        ("bad/no-mention-line", ["encode", bad["no-mention-line.txt"]], None),
        ("bad/unknown-symbol", ["validate", bad["unknown-symbol.tags"]], None),
        ("bad/decode-length-mismatch", ["decode", bad["two-tags.tags"], "--corpus", bad["three-words.txt"]], None),
        ("bad/not-a-model", ["predict", bad["three-words.txt"], "--model", bad["not-a-model.npz"]], None),
        *((f"bad/{name.removesuffix('.npz')}", ["predict", bad["three-words.txt"], "--model", bad[name]], None)
          for name in UNPARSABLE_MODELS),
        ("bad/eval-record-count", ["eval", bad["two-records.txt"], bad["three-words.txt"]], None),
        ("bad/eval-token-count", ["eval", bad["three-words.txt"], bad["four-words.txt"]], None),
        ("unicode/encode.tags", ["encode", str(text), "-o", str(tags)], tags),
        ("ill-formed/validate", ["validate", str(ill_formed)], None),
        ("ill-formed/decode.txt", ["decode", str(ill_formed), "-o", str(work / "ill-formed-decode.txt")],
         work / "ill-formed-decode.txt"),
        ("ill-formed/decode-corpus.txt", ["decode", str(ill_formed), "--corpus", str(ill_words), "-o",
                                          str(work / "ill-formed-decode-corpus.txt")],
         work / "ill-formed-decode-corpus.txt"),
    ]
    second = [("unicode/decode-corpus.txt", ["decode", str(tags), "--corpus", str(text), "-o",
                                              str(work / "unicode-decode.txt")], work / "unicode-decode.txt")]
    second += [
        ("non-canonical/filter.txt/encode", ["encode", str(kept)], None),
        ("non-canonical/filter.txt/silver", ["silver", str(kept), "--lexicon", str(work / "lexicon.txt")], None),
        ("non-canonical/filter.txt/eval", ["eval", str(written), str(kept)], None),
    ]
    for mode in MODES:
        model = work / f"non-canonical-{mode}.npz"
        jobs.append((f"non-canonical/model-partial-{mode}.npz", ["train", str(written), "--model", str(model),
                     "--loss", "partial", "--mode", mode, "--epochs", "2", "--dim", "256"], model))
        model = work / f"unicode-{mode}.npz"
        jobs.append((f"unicode/model-{mode}.npz", ["train", str(text), "--model", str(model), "--epochs", "3",
                                                   "--dim", "4096", "--mode", mode], model))
        for decode in MODES:
            output = work / f"unicode-{mode}.predict-{decode}.txt"
            second.append((f"unicode/model-{mode}.predict-{decode}.txt", ["predict", str(text), "--model",
                           str(model), "-o", str(output), "--mode", decode], output))
            output = work / f"unicode-{mode}.predict-both-{decode}.txt"
            second.append((f"unicode/model-{mode}.predict-ascii-then-unicode-{decode}.txt", ["predict", str(both),
                           "--model", str(model), "-o", str(output), "--mode", decode], output))
    return jobs, second


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(src: Path, work: Path, job) -> list[str]:
    """One fresh ``disctag`` process; its artefacts' manifest lines."""
    name, argv, output = job
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "disctag.cli", *argv], cwd=work, env=env, capture_output=True)
    code = proc.returncode
    path = str(work).encode()
    lines = [
        f"{_digest(proc.stdout.replace(path, b'<work>'))} {code} {name}:stdout",
        f"{_digest(proc.stderr.replace(path, b'<work>'))} {code} {name}:stderr",
    ]
    if output is not None:
        lines.append(f"{_digest(output.read_bytes()) if output.exists() else 'missing'} {code} {name}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree's src/ directory")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "disctag" / "cli.py").is_file():
        parser.error(f"{src} holds no disctag package")
    with tempfile.TemporaryDirectory(prefix="disctag-identity-") as tmp:
        work = Path(tmp)
        first, second = _fixed_jobs(work)
        for seed in SEEDS:
            f, s = _model_jobs(seed, work)
            first += f
            second += s
        lines = []
        with ThreadPoolExecutor(WORKERS) as pool:
            for jobs in (first, second):
                for run_lines in pool.map(lambda job: _run(src, work, job), jobs):
                    lines += run_lines
    print("\n".join(sorted(lines, key=lambda line: line.split(" ", 2)[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
