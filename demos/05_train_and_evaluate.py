"""End to end on a synthetic corpus: train, predict, evaluate, benchmark.

Sentences are generated with per-tag trigger tokens so the hashed linear
scorer can fit them exactly; the point is to watch each loss drive the exact
structured gradients, and to check that prediction time scales linearly.
"""

import logging

from disctag import (
    TrainConfig,
    benchmark_predict,
    decode,
    evaluate,
    predict,
    synthetic_records,
    train,
)
from disctag.corpus import filter_incompatible
from disctag.model import predict_tags

logging.basicConfig(level=logging.INFO, format="%(message)s")

records = synthetic_records(count=60, length=10, seed=7)
kept, dropped = filter_incompatible(records)
print(f"synthetic corpus: {len(kept)} sentences kept, {len(dropped)} dropped")

data = [(r.tokens, ann) for r, ann in kept]
gold = [r.mentions for r, _ in kept]

for loss in ("nll", "partial", "hard-em"):
    scorer = train(
        data,
        TrainConfig(loss=loss, epochs=12, learning_rate=0.5, seed=0),
        mode="semantic",
        dim=2**14,
    )
    predicted = [predict(scorer, tokens) for tokens, _ in data]
    report = evaluate(gold, predicted)
    print(f"\nloss={loss}: training-set mention F1 = {report.f1:.3f} "
          f"(discontinuous-only F1 = {report.disc_f1:.3f})")

# Every prediction decodes: the lattice only admits well-formed sequences.
wild = synthetic_records(count=5, length=30, seed=99)
for r in wild:
    decode(predict_tags(scorer, r.tokens, "semantic"))
print("\npredictions on unseen 30-word sentences all decode cleanly")

print("\nprediction speed (median per sentence):")
for result in benchmark_predict([64, 128, 256], repeats=5):
    print(f"  n={result.length:3d}: {result.median_seconds * 1e3:6.2f} ms "
          f"({result.sentences_per_second:7.1f} sentences/s)")
