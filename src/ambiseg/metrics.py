"""Segmentation evaluation: Jaccard index, Dice coefficient, and the
inter-mask agreement fraction used by the training trace.

Per-class scores treat a class absent from both masks as a perfect
match (1.0). Report means exclude class 0, the background.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .masks import LabelMask, ShapeError, _check_pair


def jaccard(pred: LabelMask, ref: LabelMask, cls: int) -> float:
    """Intersection over union for one class; both-empty counts as 1.0."""
    _check_pair(pred, ref)
    if not 0 <= cls < pred.num_classes:
        raise ValueError(f"class {cls} out of range [0, {pred.num_classes})")
    a = pred.labels == cls
    b = ref.labels == cls
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    inter = int(np.count_nonzero(a & b))
    return inter / union


def dice(pred: LabelMask, ref: LabelMask, cls: int) -> float:
    """2|A∩B| / (|A|+|B|) for one class; both-empty counts as 1.0."""
    _check_pair(pred, ref)
    if not 0 <= cls < pred.num_classes:
        raise ValueError(f"class {cls} out of range [0, {pred.num_classes})")
    a = pred.labels == cls
    b = ref.labels == cls
    total = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if total == 0:
        return 1.0
    inter = int(np.count_nonzero(a & b))
    return 2.0 * inter / total


def agreement_fraction(a: LabelMask, b: LabelMask) -> float:
    """Fraction of pixels where two masks assign the same label."""
    _check_pair(a, b)
    return float(np.count_nonzero(a.labels == b.labels)) / a.size


@dataclass
class EvalReport:
    """Per-sample, per-class scores with foreground-mean summaries."""

    num_classes: int
    sample_jaccard: np.ndarray
    sample_dice: np.ndarray

    def __post_init__(self):
        self.sample_jaccard = np.atleast_2d(
            np.asarray(self.sample_jaccard, dtype=np.float64)
        )
        self.sample_dice = np.atleast_2d(
            np.asarray(self.sample_dice, dtype=np.float64)
        )
        if self.sample_jaccard.shape != self.sample_dice.shape:
            raise ShapeError("jaccard and dice tables must share a shape")
        if self.sample_jaccard.shape[1] != self.num_classes:
            raise ShapeError("score tables must have one column per class")
        for table in (self.sample_jaccard, self.sample_dice):
            if table.size and (table.min() < 0.0 or table.max() > 1.0):
                raise ValueError("scores must lie in [0, 1]")
        j = self.sample_jaccard
        if j.size and np.abs(self.sample_dice - 2.0 * j / (1.0 + j)).max() > 1e-9:
            raise ValueError("dice must equal 2j/(1+j) per sample and class")

    @property
    def sample_count(self) -> int:
        return self.sample_jaccard.shape[0]

    @property
    def class_jaccard(self) -> np.ndarray:
        return self.sample_jaccard.mean(axis=0)

    @property
    def class_dice(self) -> np.ndarray:
        return self.sample_dice.mean(axis=0)

    @property
    def mean_jaccard(self) -> float:
        """Mean over non-background classes of the per-class means."""
        return float(self.class_jaccard[1:].mean())


def evaluate_masks(
    preds: Sequence[LabelMask], refs: Sequence[LabelMask]
) -> EvalReport:
    """Score each prediction against its reference, one row per sample."""
    if len(preds) != len(refs):
        raise ValueError(f"{len(preds)} predictions vs {len(refs)} references")
    if len(preds) == 0:
        raise ValueError("need at least one sample to evaluate")
    c = preds[0].num_classes
    jac = np.empty((len(preds), c))
    dic = np.empty((len(preds), c))
    for i, (p, r) in enumerate(zip(preds, refs)):
        for cls in range(c):
            jac[i, cls] = jaccard(p, r, cls)
            dic[i, cls] = dice(p, r, cls)
    return EvalReport(num_classes=c, sample_jaccard=jac, sample_dice=dic)
