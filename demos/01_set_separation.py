"""Walk through the pixel-set algebra on a pair of disagreeing annotators.

Two simulated experts label the same synthetic scene. We split the grid
into their agreement and disagreement sets, then show how a pair of
(untrained) networks narrows the disagreement down to the pixels where
their own predictions coincide.
"""

import numpy as np

from ambiseg import (
    AnnotatorProfile,
    Architecture,
    SceneSpec,
    argmax_mask,
    generate_scene,
    init_params,
    predict_probs,
    restrict,
    separate_agreement,
    simulate_annotator,
)

image, gt = generate_scene(SceneSpec(width=48, height=48, seed=7))
expert_a = simulate_annotator(
    gt, AnnotatorProfile(bias_radius=1.5, jitter_amplitude=0.8,
                         jitter_scale=12.0, seed=0)
)
expert_b = simulate_annotator(
    gt, AnnotatorProfile(bias_radius=-0.5, jitter_amplitude=0.8,
                         jitter_scale=12.0, seed=1)
)

agree, disagree = separate_agreement(expert_a, expert_b)
n = gt.size
print(f"scene: {gt.width}x{gt.height}, foreground fraction "
      f"{gt.labels.mean():.2f}")
print(f"experts agree on {len(agree)}/{n} pixels ({len(agree) / n:.1%})")
print(f"disagreement band: {len(disagree)} pixels")

# the two sets partition the grid
assert len(agree) + len(disagree) == n

# where they agree near the boundary, how often are they right?
agree_correct = (gt.labels[agree.pixels.member] == agree.labels).mean()
print(f"agreed labels match the clean shape on {agree_correct:.1%} "
      f"of agreement pixels")

# two freshly initialized networks predict; their coincidence restricted
# to the disagreement band is the set the consistency loss trains on
net_a = init_params(Architecture(), seed=11)
net_b = init_params(Architecture(), seed=12)
pred_a = argmax_mask(predict_probs(net_a, image))
pred_b = argmax_mask(predict_probs(net_b, image))
coincide, _ = separate_agreement(pred_a, pred_b)
refined = restrict(coincide, disagree)
print(f"untrained networks coincide on {len(coincide)}/{n} pixels; "
      f"{len(refined)} of those fall in the disagreement band")
print("those band pixels plus the agreement set are the only supervision "
      "the ensemble ever sees on this image")
