"""Masked cross-entropy, ramp-up weighting, and total-loss composition.

The same masked-CE kernel serves all three training losses (agreement,
consistency, pseudo-supervision); only the target set changes. The kernel
returns the exact analytic gradient with respect to the pre-softmax
scores, so callers never differentiate through the log themselves.

A ProbMap built by its constructor is checked (shape, range, row sums);
the training loop and predict_probs build the ProbMap of each forward
without those checks, which a finite softmax always passes (masks.py
says where validation happens).
masked_cross_entropy checks only that its target set fits the map.

ProbMap.probs is (N, C) in shape whatever its layout. The maps the
package builds are class-major: the transpose of a contiguous (C, N)
array, one plane per class, as model.forward returns its logits.
softmax, masked_cross_entropy, argmax_mask and average_fuse read class
planes and give the row-major results bit for bit. For C < 8 softmax
adds the planes in class order, which is how numpy sums a row shorter
than 8; from 8 classes numpy sums a row pairwise, so softmax sums a
row-major copy instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .masks import PixelLabels, ShapeError

# floor inside log; keeps the loss finite when a target class has
# probability exactly 0
PROB_FLOOR = 1e-12

# weights on the agreement and consistency terms
ALPHA_DEFAULT = 1.0
BETA_DEFAULT = 1.0
W_MAX_DEFAULT = 0.1


@dataclass
class ProbMap:
    """Per-pixel class probabilities, shape (width*height, num_classes),
    in any memory layout (class-major when the package builds them)."""

    width: int
    height: int
    num_classes: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n = self.width * self.height
        if self.probs.shape != (n, self.num_classes):
            raise ShapeError(
                f"probs shape {self.probs.shape} != ({n}, {self.num_classes})"
            )
        # written so that NaN fails: every comparison with NaN is False
        if not (self.probs.min() >= -1e-9 and self.probs.max() <= 1.0 + 1e-9):
            raise ValueError("probabilities must lie in [0, 1]")
        sums = self.probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise ValueError("per-pixel probabilities must sum to 1 within 1e-6")


@dataclass(frozen=True)
class RampUp:
    """Gaussian warm-up schedule for the pseudo-supervision weight."""

    w_max: float
    t_max: int

    def __post_init__(self):
        if not self.w_max > 0:
            raise ValueError(f"w_max must be positive, got {self.w_max}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-network loss components and their weighted total."""

    l_ma: float
    l_pc: float
    l_ps: float
    lambda_t: float
    total: float
    alpha: float = ALPHA_DEFAULT
    beta: float = BETA_DEFAULT

    def __post_init__(self):
        parts = (self.l_ma, self.l_pc, self.l_ps, self.lambda_t, self.total)
        if not all(math.isfinite(v) for v in parts):
            raise ValueError(f"non-finite loss component: {parts}")
        if self.l_ma < 0 or self.l_pc < 0 or self.l_ps < 0:
            raise ValueError("loss components must be nonnegative")
        expect = (
            self.alpha * self.l_ma
            + self.beta * self.l_pc
            + self.lambda_t * self.l_ps
        )
        if abs(self.total - expect) > 1e-12:
            raise ValueError(
                f"total {self.total} does not reproduce weighted sum {expect}"
            )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable; rows are pixels.

    Returns the (N, C) probabilities as the transpose of a (C, N) array:
    class-major, contiguous planes, when the logits are.
    """
    planes = logits.T
    # the max taken plane by plane: a max is exact in any order
    e = planes - functools.reduce(np.maximum, planes)
    np.exp(e, out=e)
    if e.shape[0] < 8:
        # numpy adds a row shorter than 8 left to right
        total = functools.reduce(np.add, e)
    else:
        # and a longer one pairwise, which only row-major rows reproduce
        total = np.ascontiguousarray(e.T).sum(axis=1)
    e /= total
    return e.T


def masked_cross_entropy(
    p: ProbMap, targets: PixelLabels
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over a pixel subset.

    Returns (loss, grad_logits) where grad_logits is the gradient of the
    loss with respect to the pre-softmax scores that produced `p`:
    (probs - onehot) / |S| on target pixels, zero elsewhere. An empty
    target set contributes zero loss and zero gradient.
    """
    n = p.width * p.height
    if targets.pixels.grid_size != n:
        raise ShapeError(
            f"target grid size {targets.pixels.grid_size} != prob map size {n}"
        )
    if targets.num_classes != p.num_classes:
        raise ShapeError(
            f"num_classes mismatch: {targets.num_classes} vs {p.num_classes}"
        )
    member = targets.pixels.member
    idx = np.flatnonzero(member)
    s = idx.size
    if s == 0:
        return 0.0, np.zeros_like(p.probs)
    # each member's target entry as an index into the class planes; take
    # and put index their logical order whatever the memory layout
    planes = p.probs.T
    flat = targets.mask.labels[idx] * np.intp(n) + idx
    picked = np.take(planes, flat)
    loss = float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))
    grad = np.where(member, planes, 0.0)
    np.put(grad, flat, picked - 1.0)
    grad /= s
    return loss, grad.T


def ramp_lambda(t: int, schedule: RampUp) -> float:
    """Weight w_max * exp(-5 (1 - t/t_max)^2), clamped at t_max.

    Starts at w_max * e^-5 and rises monotonically to exactly w_max.
    """
    if t < 0:
        raise ValueError(f"iteration must be nonnegative, got {t}")
    t = min(t, schedule.t_max)
    frac = t / schedule.t_max
    return schedule.w_max * math.exp(-5.0 * (1.0 - frac) ** 2)


def total_network_loss(
    l_ma: float,
    l_pc: float,
    l_ps: float,
    alpha: float,
    beta: float,
    lambda_t: float,
) -> LossBreakdown:
    """Compose one network's weighted total from its three components."""
    parts = (l_ma, l_pc, l_ps, alpha, beta, lambda_t)
    if not all(math.isfinite(v) for v in parts):
        raise ValueError(f"non-finite loss input: {parts}")
    total = alpha * l_ma + beta * l_pc + lambda_t * l_ps
    return LossBreakdown(
        l_ma=l_ma,
        l_pc=l_pc,
        l_ps=l_ps,
        lambda_t=lambda_t,
        total=total,
        alpha=alpha,
        beta=beta,
    )
