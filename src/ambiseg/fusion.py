"""Label and probability fusion: ensemble averaging plus annotation
fusion baselines (majority vote, random selection, STAPLE).

STAPLE estimates a consensus segmentation together with per-annotator
sensitivity/specificity by expectation-maximization. The E-step runs in
log space so clamped parameters never produce zero-probability overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .losses import ProbMap
from .masks import LabelMask, ShapeError, _check_same_shape

STAPLE_INIT_RATE = 0.99999
STAPLE_CLAMP = 1e-6
STAPLE_TOL = 1e-6
STAPLE_MAX_ITER = 100

FUSION_STRATEGIES = ("average-vote", "random", "staple")


def average_fuse(maps: Sequence[ProbMap]) -> ProbMap:
    """Per-pixel, per-class arithmetic mean of probability maps."""
    if len(maps) == 0:
        raise ValueError("average_fuse needs at least one probability map")
    first = maps[0]
    for m in maps[1:]:
        if (m.width, m.height, m.num_classes) != (
            first.width,
            first.height,
            first.num_classes,
        ):
            raise ShapeError("probability maps must share dimensions")
    # the class planes added in map order from +0.0, then divided by the
    # count: bitwise np.mean over the stacked maps, whose reduction along
    # the outer axis is sequential
    total = first.probs.T + 0.0
    for m in maps[1:]:
        total += m.probs.T
    total /= len(maps)
    return ProbMap(
        width=first.width,
        height=first.height,
        num_classes=first.num_classes,
        probs=total.T,
    )


def majority_vote(masks: Sequence[LabelMask]) -> LabelMask:
    """Per-pixel plurality label; ties go to the lowest class index."""
    first = _check_same_shape(masks)
    stacked = np.stack([m.labels for m in masks], axis=0)
    counts = np.empty((first.num_classes, first.size), dtype=np.int64)
    for c in range(first.num_classes):
        counts[c] = (stacked == c).sum(axis=0)
    winners = np.argmax(counts, axis=0)
    return LabelMask(
        width=first.width,
        height=first.height,
        num_classes=first.num_classes,
        labels=winners,
    )


def random_select(
    masks: Sequence[LabelMask], rng: np.random.Generator
) -> LabelMask:
    """One mask chosen uniformly; consumes exactly one rng draw."""
    if len(masks) == 0:
        raise ValueError("random_select needs at least one mask")
    idx = int(rng.integers(len(masks)))
    return masks[idx]


@dataclass
class StapleResult:
    fused: LabelMask
    weights: np.ndarray
    sensitivities: np.ndarray
    specificities: np.ndarray
    iterations_used: int
    converged: bool
    objective_trace: np.ndarray

    def __post_init__(self):
        ok = lambda v: np.all(v > 0.0) and np.all(v <= 1.0)
        if not (ok(self.sensitivities) and ok(self.specificities)):
            raise ValueError("sensitivities/specificities must lie in (0, 1]")
        if self.weights.min() < 0.0 or self.weights.max() > 1.0:
            raise ValueError("posterior weights must lie in [0, 1]")


def _staple_log_likelihood(
    d: np.ndarray, p: np.ndarray, q: np.ndarray, f1: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-pixel log a_i, log b_i and the total log likelihood."""
    log_a = np.log(f1) + d.T @ np.log(p) + (1.0 - d.T) @ np.log(1.0 - p)
    log_b = np.log(1.0 - f1) + d.T @ np.log(1.0 - q) + (1.0 - d.T) @ np.log(q)
    ll = float(np.logaddexp(log_a, log_b).sum())
    return log_a, log_b, ll


def staple_binary(masks: Sequence[LabelMask]) -> StapleResult:
    """EM consensus over binary masks per Warfield-style STAPLE.

    The foreground prior is the mean foreground fraction across
    annotators; sensitivities/specificities are clamped away from {0, 1}
    so unanimous input stays a fixed point instead of degenerating.
    """
    first = _check_same_shape(masks)
    if len(masks) < 2:
        raise ValueError("staple_binary needs at least two masks")
    if first.num_classes != 2:
        raise ValueError("staple_binary requires binary masks")
    d = np.stack([m.labels for m in masks], axis=0).astype(np.float64)
    k, n = d.shape

    f1 = float(np.clip(d.mean(), STAPLE_CLAMP, 1.0 - STAPLE_CLAMP))
    p = np.full(k, STAPLE_INIT_RATE)
    q = np.full(k, STAPLE_INIT_RATE)

    trace = []
    converged = False
    iterations = 0
    w = np.full(n, f1)
    for _ in range(STAPLE_MAX_ITER):
        iterations += 1
        log_a, log_b, ll = _staple_log_likelihood(d, p, q, f1)
        trace.append(ll)
        w = np.exp(log_a - np.logaddexp(log_a, log_b))

        w_sum = w.sum()
        c_sum = (1.0 - w).sum()
        new_p = (d @ w) / w_sum if w_sum > 0 else np.full(k, STAPLE_INIT_RATE)
        new_q = ((1.0 - d) @ (1.0 - w)) / c_sum if c_sum > 0 else np.full(
            k, STAPLE_INIT_RATE
        )
        new_p = np.clip(new_p, STAPLE_CLAMP, 1.0 - STAPLE_CLAMP)
        new_q = np.clip(new_q, STAPLE_CLAMP, 1.0 - STAPLE_CLAMP)

        delta = max(np.abs(new_p - p).max(), np.abs(new_q - q).max())
        p, q = new_p, new_q
        if delta < STAPLE_TOL:
            converged = True
            break

    trace.append(_staple_log_likelihood(d, p, q, f1)[2])
    fused = LabelMask(
        width=first.width,
        height=first.height,
        num_classes=2,
        labels=(w >= 0.5).astype(np.int64),
    )
    return StapleResult(
        fused=fused,
        weights=w,
        sensitivities=p,
        specificities=q,
        iterations_used=iterations,
        converged=converged,
        objective_trace=np.asarray(trace),
    )


def staple_fuse(masks: Sequence[LabelMask]) -> LabelMask:
    """STAPLE for any class count: one-vs-rest posteriors, then argmax."""
    first = _check_same_shape(masks)
    if first.num_classes == 2:
        return staple_binary(masks).fused
    posteriors = np.empty((first.num_classes, first.size))
    for c in range(first.num_classes):
        binarized = [
            LabelMask(
                width=m.width,
                height=m.height,
                num_classes=2,
                labels=(m.labels == c).astype(np.int64),
            )
            for m in masks
        ]
        posteriors[c] = staple_binary(binarized).weights
    winners = np.argmax(posteriors, axis=0)
    return LabelMask(
        width=first.width,
        height=first.height,
        num_classes=first.num_classes,
        labels=winners,
    )


def fuse_annotations(
    strategy: str,
    masks: Sequence[LabelMask],
    rng: Optional[np.random.Generator] = None,
) -> LabelMask:
    """Dispatch over the annotation-fusion strategies by name."""
    if strategy == "average-vote":
        return majority_vote(masks)
    if strategy == "random":
        if rng is None:
            raise ValueError("strategy 'random' requires an rng")
        return random_select(masks, rng)
    if strategy == "staple":
        return staple_fuse(masks)
    raise ValueError(
        f"unknown fusion strategy {strategy!r}; choose from {FUSION_STRATEGIES}"
    )
