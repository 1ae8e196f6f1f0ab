"""Train a small two-network ensemble end to end and watch it converge.

Builds a little dataset in a temporary directory, trains for 300
iterations, and prints the checkpoint trace: the loss components, the
ramp-up weight on the pseudo-supervised term, how often the two
networks agree with each other, and the fused validation score.
Finishes by scoring the fused ensemble against the clean shapes on the
test split, which no annotator and no network ever saw.
"""

import tempfile

import numpy as np

from ambiseg import (
    TrainConfig,
    build_dataset,
    jaccard,
    load_dataset,
    run_training,
)
from ambiseg.training import fused_prediction

with tempfile.TemporaryDirectory() as tmp:
    build_dataset(
        tmp, n_multi=8, n_unann=16, n_val=4, n_test=10,
        k=2, seed=1, width=48, height=48,
    )
    dataset = load_dataset(tmp)
    print(f"dataset: {len(dataset.multi)} multi-annotated, "
          f"{len(dataset.unannotated)} unannotated, "
          f"{len(dataset.validation)} validation, {len(dataset.test)} test")

    config = TrainConfig(
        k=2, lr=0.02, total_iters=300, validation_every=50, seed=0,
    )
    result = run_training(dataset, config)

    print("\niter   l_ma    l_pc    l_ps    lambda  agree   val")
    for row in result.trace:
        print(f"{row.iteration:5d}  {row.l_ma:.4f}  {row.l_pc:.4f}  "
              f"{row.l_ps:.4f}  {row.lambda_t:.4f}  {row.agreement:.4f}  "
              f"{row.val_jaccard:.4f}")

    print(f"\nbest checkpoint: iteration {result.best.iteration} "
          f"(validation {result.best.score:.4f})")

    scores = [
        jaccard(fused_prediction(result.best.params, s.image), s.clean_gt, 1)
        for s in dataset.test
    ]
    print(f"fused test overlap vs clean shapes: {np.mean(scores):.4f} "
          f"over {len(scores)} images")
