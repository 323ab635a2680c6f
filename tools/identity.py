"""Identity manifest: the SHA-256 of every model and prediction a tree makes.

Writes the corpora of the three benchmark workloads (``perfbench/workloads.py``,
imported unchanged) for each seed, then runs fresh ``python -m disctag.cli``
processes against the given tree's ``src/``:

- ``train`` of each model, in both ``--mode``s: predict-short with ``--epochs 2``;
  predict-long with ``--epochs 4 --learning-rate 0.1``; train-partial with each
  of the losses ``partial``, ``nll`` and ``hard-em``, with ``--epochs 2
  --learning-rate 0.1``;
- ``predict`` with each predict-short and predict-long model on its input, and
  with each train-partial ``partial`` model on the held-out set, each in both
  modes.

It prints one sorted line per artefact, ``<sha256> <exit code> <name>``, so two
trees give the same outputs exactly when their manifests are equal::

    python tools/identity.py --src /path/to/other/src > other.txt
    python tools/identity.py > this.txt
    diff other.txt this.txt

Three seeds give 30 models and 36 predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
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


def _jobs(seed: int, work: Path) -> tuple[list, list]:
    """Write one seed's corpora under ``work``; return its ``train`` jobs and
    its ``predict`` jobs, each ``(name, argv, output)``."""
    trains, predicts = [], []

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
            trains.append((f"{name}.npz", argv, model))
            for decode in MODES if predicted else ():
                output = work / f"{name}.predict-{decode}.txt"
                argv = ["predict", str(test), "--model", str(model), "-o", str(output), "--mode", decode]
                predicts.append((f"{name}.predict-{decode}.txt", argv, output))
    return trains, predicts


def _run(src: Path, work: Path, job) -> str:
    """One fresh ``disctag`` process; its artefact's manifest line."""
    name, argv, output = job
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = subprocess.run([sys.executable, "-m", "disctag.cli", *argv], cwd=work, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    digest = hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else "missing"
    return f"{digest} {code} {name}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree's src/ directory")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "disctag" / "cli.py").is_file():
        parser.error(f"{src} holds no disctag package")
    with tempfile.TemporaryDirectory(prefix="disctag-identity-") as tmp:
        work = Path(tmp)
        trains, predicts = [], []
        for seed in SEEDS:
            t, p = _jobs(seed, work)
            trains += t
            predicts += p
        with ThreadPoolExecutor(WORKERS) as pool:
            lines = list(pool.map(lambda job: _run(src, work, job), trains))
            lines += pool.map(lambda job: _run(src, work, job), predicts)
    print("\n".join(sorted(lines, key=lambda line: line.split(" ", 2)[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
