"""Benchmark of the ``disctag`` command line.

Run from the repository root::

    python3 perfbench/run.py --workload predict-short --seed 1 --seconds 25 --trace 0

Each workload drives one command through the real entry point,
``disctag.cli.main([...])``, in-process, as a closed loop with one client:
the next command starts when the previous one has returned.  Everything runs
in one thread with BLAS threads pinned to 1.  The inputs are generated from
``--seed`` by :mod:`workloads`; the program only sees the generated corpus and
model files.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; its timings are expressed at reference host speed, from
the host's speed sampled while they are taken (see :mod:`speed`).  With
``--trace 1`` it alternates untraced and traced
commands and reports the per-layer metrics: counts and timings from spans
recorded around disctag's public functions (see :mod:`tracer`), and the
tracing overhead.  Every output is checked (see :mod:`reference`); a sentence
that fails a check counts as failed.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before numpy is imported

import numpy as np  # noqa: E402

import reference  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

# Training options of the model each predict workload loads; they keep its F1
# steady across seeds, so that F1 can guard quality.
MODEL_OPTIONS = {
    "predict-short": ["--epochs", "2"],
    "predict-long": ["--epochs", "4", "--learning-rate", "0.1"],
}
TRAIN_EPOCHS = 2
TRAIN_OPTIONS = ["--loss", "partial", "--epochs", str(TRAIN_EPOCHS), "--learning-rate", "0.1"]
MIN_COMMANDS = 3  # timed commands per run, even if --seconds is shorter
SETUP_REPEATS = 7  # fresh one-sentence processes per run for setup_s
DP_SAMPLE = 24  # sentences per output checked against the reference DP
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class Plan:
    """Inputs and commands of one workload run."""

    name: str
    corpora: dict
    files: dict[str, Path]
    argv: list[str]  # the timed command
    setup_argv: list[str]  # the same command on one sentence
    sentences: int  # sentences per command, times epochs for training
    records: int  # corpus records one command reads
    checked: list  # sentences whose predictions are checked against gold

    @property
    def predicts(self) -> bool:
        return self.argv[0] == "predict"


class EpochLosses(logging.Handler):
    """Collects the per-epoch mean losses that ``disctag.model.train`` logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.losses: list[float] = []

    def emit(self, record):
        if str(record.msg).startswith("epoch "):
            self.losses.append(float(record.args[-1]))


def _log(text: str) -> None:
    print(text, flush=True)


def _import_disctag():
    if not (SRC / "disctag" / "cli.py").is_file():
        raise BenchError("no disctag sources under src/; run from the root of a disctag checkout")
    sys.path.insert(0, str(SRC))
    import disctag
    import disctag.cli

    if SRC.resolve() not in Path(disctag.__file__).resolve().parents:
        raise BenchError(f"imported disctag from {disctag.__file__}, not from src/")
    return disctag


def _fresh_process(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run ``python -m disctag.cli argv`` in a fresh interpreter.

    Returns the exit code, the wall time in seconds and the peak RSS in MiB.
    """
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "disctag.cli", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _smallest(sentences):
    """The input of the one-sentence command: fewest sets, then fewest words.

    Its shape is the same for every seed, so setup_s measures fixed costs.
    """
    return min(sentences, key=lambda s: (s.k, len(s.tokens)))


def _plan(name: str, seed: int, work: Path, disctag) -> Plan:
    """Generate and write the inputs; for predict workloads, train the model."""
    corpora = workloads.GENERATORS[name](seed)
    files: dict[str, Path] = {}

    def emit(key: str, sentences, with_mentions: bool) -> None:
        path = work / f"{key}.txt"
        digest = workloads.write(path, workloads.corpus_text(sentences, with_mentions))
        _log(f"sha256 {digest}  {path.name}")
        files[key] = path

    if name in MODEL_OPTIONS:
        emit("model-train", corpora["model-train"], True)
        emit("input", corpora["input"], False)
        emit("gold", corpora["input"], True)
        emit("one", [_smallest(corpora["input"])], False)
        files["model"] = work / "model.npz"
        code = disctag.cli.main(["train", str(files["model-train"]), "--model", str(files["model"]),
                                 *MODEL_OPTIONS[name], "--seed", str(seed)])
        if code != 0:
            raise BenchError(f"training the model to predict with exited {code}")
        _log(f"sha256 {_sha(files['model'])}  {files['model'].name} (trained before timing)")
        model = ["--model", str(files["model"])]
        return Plan(
            name, corpora, files,
            argv=["predict", str(files["input"]), *model, "-o", str(work / "output.txt")],
            setup_argv=["predict", str(files["one"]), *model, "-o", str(work / "one-output.txt")],
            sentences=len(corpora["input"]), records=len(corpora["input"]),
            checked=corpora["input"],
        )
    emit("train", corpora["train"], True)
    emit("heldout-input", corpora["heldout"], False)
    emit("gold", corpora["heldout"], True)
    emit("one", [_smallest(corpora["train"])], True)
    files["model"] = work / "trained.npz"
    options = [*TRAIN_OPTIONS, "--seed", str(seed)]
    return Plan(
        name, corpora, files,
        argv=["train", str(files["train"]), "--model", str(files["model"]), *options],
        setup_argv=["train", str(files["one"]), "--model", str(work / "one-model.npz"), *options],
        sentences=len(corpora["train"]) * TRAIN_EPOCHS, records=len(corpora["train"]),
        checked=corpora["heldout"],
    )


def _print_properties(plan: Plan) -> dict:
    role = "input" if plan.predicts else "train"
    props = workloads.properties(plan.corpora[role])
    for key, value in props.items():
        _log(f"property {role}.{key} {value:.3f}" if isinstance(value, float)
             else f"property {role}.{key} {value}")
    ratio = props["distinct_feature_strings"] / props["hash_cache_entries"]
    _log(f"property {role}.feature_strings_per_cache_entry {ratio:.2f}")
    return props


class Checker:
    """Checks every command's output; counts sentences attempted and failed."""

    def __init__(self, disctag, plan: Plan, seed: int):
        self.disctag = disctag
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        rng = np.random.default_rng([seed, 7])
        count = min(DP_SAMPLE, len(plan.checked))
        self.sample = sorted(int(i) for i in rng.choice(len(plan.checked), count, replace=False))
        self._verdicts: dict[str, int] = {}  # digest of output and model -> failed sentences

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def predictions(self, path: Path) -> None:
        """Check one predicted corpus; byte-identical outputs are checked once."""
        model = self.plan.files["model"]
        digest = _sha(path) + _sha(model)
        if digest not in self._verdicts:
            scorer = self.disctag.model.LinearScorer.load(model)
            failed, reasons = reference.check_predictions(
                self.disctag, path, self.plan.checked, scorer, self.sample)
            for reason in reasons:
                self.problem(reason)
            self._verdicts[digest] = len(failed)
        self.attempted += len(self.plan.checked)
        self.failed += self._verdicts[digest]

    def command(self, code: int, losses: list[float]) -> None:
        """Check one timed command: exit 0 and, for training, sane epochs and model."""
        if self.plan.predicts and code == 0:
            self.predictions(Path(self.plan.argv[-1]))
            return
        ok = code == 0
        if not ok:
            self.problem(f"{self.plan.argv[0]} exited {code}")
        if not self.plan.predicts:
            if len(losses) != TRAIN_EPOCHS or not all(math.isfinite(x) for x in losses):
                ok = False
                self.problem(f"epoch losses {losses}")
            try:
                self.disctag.model.LinearScorer.load(self.plan.files["model"])
            except (self.disctag.errors.DisctagError, OSError, ValueError, KeyError) as err:
                ok = False
                self.problem(f"trained model does not load: {err}")
        self.attempted += self.plan.sentences
        self.failed += 0 if ok else self.plan.sentences

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _run(disctag, plan: Plan, checker: Checker, losses: EpochLosses, sampler=None) -> float:
    """One command through ``cli.main``; returns its wall time after checking it.

    With a :class:`speed.Sampler`, the host's speed is sampled during the command.
    """
    gc.collect()
    losses.losses.clear()
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        code = disctag.cli.main(list(plan.argv))
        elapsed = time.perf_counter() - start
    checker.command(code, list(losses.losses))
    return elapsed


def _warm_up(disctag, plan: Plan, checker: Checker) -> None:
    """The one-sentence command in-process: imports, grammar and code paths get warm."""
    code = disctag.cli.main(list(plan.setup_argv))
    if code != 0:
        checker.problem(f"one-sentence {plan.argv[0]} exited {code}")


def _quality(disctag, plan: Plan, checker: Checker, work: Path) -> tuple[float, float]:
    """F1 and discontinuous F1 against gold; for training, on held-out sentences."""
    if plan.predicts:
        predicted = Path(plan.argv[-1])
    else:
        predicted = work / "heldout-output.txt"
        code = disctag.cli.main(["predict", str(plan.files["heldout-input"]),
                                 "--model", str(plan.files["model"]), "-o", str(predicted)])
        if code != 0:
            checker.problem(f"held-out predict exited {code}")
            return 0.0, 0.0
        checker.predictions(predicted)
    gold = disctag.corpus.read_corpus(plan.files["gold"])
    pred = disctag.corpus.read_corpus(predicted)
    report = disctag.corpus.evaluate([r.mentions for r in gold], [r.mentions for r in pred])
    return report.f1, report.disc_f1


def _log_timings(label: str, raw: list[float], slowdowns: list[float], scaled: list[float]):
    _log(f"{label}_s " + " ".join(f"{t:.4f}" for t in raw))
    _log(f"{label}_host_slowdown " + " ".join(f"{x:.3f}" for x in slowdowns))
    _log(f"{label}_normalized_s " + " ".join(f"{t:.4f}" for t in scaled))


def _fresh_processes(plan: Plan, checker: Checker, work: Path) -> tuple[list[float], float]:
    """Wall times of one-sentence commands at reference host speed, and the
    peak RSS of one full command."""
    log = work / "children.log"

    def spawn(argv):
        code, elapsed, rss = _fresh_process(argv, log)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            checker.problem(f"fresh process exited {code}: {' '.join(tail)}")
        return elapsed, rss

    # A fresh process cannot be sampled from inside; the host's speed is
    # measured before and after each one instead.
    raw, around = [], [speed.slowdown()]
    for _ in range(SETUP_REPEATS):
        raw.append(spawn(plan.setup_argv)[0])
        around.append(speed.slowdown())
    slowdowns = [(a + b) / 2.0 for a, b in zip(around, around[1:])]
    scaled = [t / x for t, x in zip(raw, slowdowns)]
    _log_timings("setup", raw, slowdowns, scaled)
    return scaled, spawn(plan.argv)[1]


def _end_to_end(disctag, plan: Plan, checker: Checker, seconds: float, losses, work) -> dict:
    setups, rss = _fresh_processes(plan, checker, work)
    _warm_up(disctag, plan, checker)
    sampler = speed.Sampler()
    raw, slowdowns, scaled = [], [], []
    start = time.perf_counter()
    while len(raw) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        raw.append(_run(disctag, plan, checker, losses, sampler))
        slowdowns.append(sampler.slowdown)
        scaled.append(sampler.normalized(raw[-1]))
    _log_timings("timed_commands", raw, slowdowns, scaled)
    f1, disc_f1 = _quality(disctag, plan, checker, work)
    # The host's speed drifts by up to 2x in phases from a fraction of a second
    # to minutes, so each command is timed at the speed sampled during it (see
    # speed.py), and the median over the run is reported.
    return {
        "sentences_per_s": (plan.sentences / statistics.median(scaled),
                            f"median of {len(raw)} warm commands at reference host speed; "
                            f"raw median {plan.sentences / statistics.median(raw):.1f}"),
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} fresh processes, one sentence each, "
                    "at reference host speed"),
        "peak_rss_mb": (rss, "fresh process, one full command"),
        "f1": (f1, "mention-level, against gold"),
        "disc_f1": (disc_f1, "discontinuous mentions only"),
    }


def _traced(disctag, plan: Plan, checker: Checker, seconds: float, losses, props, seed) -> dict:
    t = tracer.Tracer(disctag)
    t.install()
    plain, traced, commands = [], [], []
    try:
        _warm_up(disctag, plan, checker)
        start = time.perf_counter()
        while len(traced) < MIN_COMMANDS or time.perf_counter() - start < seconds:
            plain.append(_run(disctag, plan, checker, losses))
            t.command += 1
            t.enabled = True
            try:
                traced.append(_run(disctag, plan, checker, losses))
            finally:
                t.enabled = False
            commands.append(t.command)
    finally:
        t.uninstall()
    counts, timings = t.metrics(commands, plan.records)
    timings["trace.overhead_pct"] = 100.0 * (min(traced) / min(plain) - 1.0)
    spans = WORK / f"spans-{plan.name}-seed{seed}.jsonl"
    t.write(spans)
    _log(f"spans {len(t.spans)} of {len(commands)} traced commands written to "
         f"{spans.relative_to(ROOT)}")
    if not plan.predicts:
        got = counts["inference.partial_label.members_total"]
        if got != props["members_total"]:
            checker.problem(f"members_total {got} != sum of 2**k from the generator "
                            f"{props['members_total']}")
    _log("counts, exact per command:")
    for key, value in counts.items():
        _log(f"  {key} {value:g}")
    _log(f"timings over {len(commands)} traced commands:")
    for key, value in timings.items():
        _log(f"  {key} {value:.6g}")
    return {key: (value, "") for key, value in {**counts, **timings}.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    disctag = _import_disctag()
    losses = EpochLosses()
    logging.basicConfig(level=logging.INFO, handlers=[losses])  # cli.main's call is then a no-op
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
        _log(f"workload {workload} seed {seed}: closed loop, 1 client, 1 thread")
        _log(f"why {why}")
        plan = _plan(workload, seed, work, disctag)
        props = _print_properties(plan)
        checker = Checker(disctag, plan, seed)
        if trace:
            values = _traced(disctag, plan, checker, seconds, losses, props, seed)
        else:
            values = _end_to_end(disctag, plan, checker, seconds, losses, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value, note = values.pop(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if not trace:
            _log(f"metric {m['name']} {value:.6g} {m['unit']} ({m['better']} is better; {note})")
    if values:
        raise BenchError(f"metrics missing from {SPEC.name}: {sorted(values)}")
    share = checker.failed / checker.attempted if checker.attempted else 1.0
    _log(f"metric error_share {share:.6g} fraction ({checker.failed} of {checker.attempted} "
         "checked sentences failed)")
    for text in checker.problems:
        _log(f"problem {text}")
    return {"correct": checker.correct and checker.attempted > 0,
            "attempted": max(checker.attempted, 1), "failed": checker.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
