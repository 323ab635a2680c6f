"""Span tracing of disctag's public functions, from outside the package.

``cli``, ``model``, ``corpus`` and ``inference`` import each other's functions
by name, so a function is wrapped at every module attribute of the
``disctag`` package that holds it; methods are wrapped on their class.  Spans
are kept in memory (name, start, end, parent, sentence length) and written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Traced functions: "<module>.<name>" or "<module>.<Class>.<method>".
FUNCTIONS = (
    "cli.main",
    "corpus.read_corpus",
    "corpus.corpus_text",
    "corpus.filter_incompatible",
    "corpus.annotate",
    "scheme.to_two_layer",
    "scheme.encode",
    "scheme.decode",
    "scheme.is_well_formed",
    "automata.grammar_automaton",
    "automata.build_lattice",
    "model.LinearScorer.score",
    "model.LinearScorer.apply_gradient",
    "model.LinearScorer.load",
    "model.LinearScorer.save",
    "model.train",
    "model.predict_tags",
    "inference.viterbi",
    "inference.forward",
    "inference.marginals",
    "inference.partial_nll",
    "inference.clamped_log_partition",
    "inference.clamped_marginals",
    "inference.PartialLabelSet.from_annotation",
)

# Sentence length of a call, for the per-token metrics.
_LENGTH = {
    "inference.viterbi": lambda args: len(args[1]),
    "model.LinearScorer.score": lambda args: len(args[1]),
    "scheme.decode": lambda args: len(args[0]),
}
PER_TOKEN = tuple(_LENGTH)
BUCKETS = {"n128-255": (128, 255), "n256-512": (256, 512)}


def _unresolved_sets(args) -> int:
    return sum(not s.resolved for s in args[-1].sets)


class Tracer:
    """Wraps the functions of :data:`FUNCTIONS`; records only while enabled."""

    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.spans: list = []  # [name, start, end, parent, length, command]
        self.members: list[tuple[int, int]] = []  # (command, 2**k) per label set built
        self.command = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        length = _LENGTH.get(name)
        counts_members = name == "inference.PartialLabelSet.from_annotation"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    length(args) if length else 0, self.command]
            spans.append(span)
            if counts_members:
                self.members.append((self.command, 2 ** _unresolved_sets(args)))
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package.__name__
                                         or key.startswith(self.package.__name__ + "."))]
        for name in FUNCTIONS:
            module_name, *path = name.split(".")
            owner = sys.modules[f"{self.package.__name__}.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            if path[:-1]:  # a method: patch the class, keeping classmethods
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span.

        ``parent`` is the line index of the parent span (0-based, header
        excluded) or -1; ``n`` is the sentence length where it applies.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "n",
                                                "command"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self, commands: list[int], records: int) -> tuple[dict, dict]:
        """Per-layer ``(counts, timings)`` per traced command.

        ``commands`` are the ids of the traced commands and ``records`` the
        corpus records (sentences) one command reads.
        Counts are totals per command, which repeat exactly; self times are
        medians over commands; ``p50_us`` is the median inclusive span.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(lambda: defaultdict(float))
        durations = defaultdict(list)
        per_token = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, length, command) in enumerate(self.spans):
            calls[name] += 1
            self_s[name][command] += end - start - child[i]
            durations[name].append(end - start)
            if name in _LENGTH:
                for suffix, (lo, hi) in [("", (0, float("inf")))] + list(BUCKETS.items()):
                    if lo <= length <= hi:
                        cell = per_token[f"{name}.us_per_token{'.' + suffix if suffix else ''}"]
                        cell[0] += end - start
                        cell[1] += length
        per = len(commands)
        counts: dict[str, float] = {}
        timings: dict[str, float] = {}
        for name in FUNCTIONS:
            counts[f"{name}.calls"] = calls[name] / per
            timings[f"{name}.self_ms"] = 1e3 * statistics.median(
                self_s[name].get(c, 0.0) for c in commands)
            timings[f"{name}.p50_us"] = (
                1e6 * statistics.median(durations[name]) if durations[name] else 0.0)
        counts["automata.build_lattice.per_sentence"] = calls["automata.build_lattice"] / per / records
        counts["corpus.annotate.per_record"] = calls["corpus.annotate"] / per / records
        members = [m for _, m in self.members]
        counts["inference.partial_label.members_total"] = sum(members) / per
        counts["inference.partial_label.members_max"] = max(members, default=0)
        for name in PER_TOKEN:
            for suffix in [""] + [f".{b}" for b in BUCKETS]:
                key = f"{name}.us_per_token{suffix}"
                total, tokens = per_token[key]
                timings[key] = 1e6 * total / tokens if tokens else 0.0
        return counts, timings
