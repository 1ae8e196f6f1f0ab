"""Set algebra over pixel label masks.

Masks are flat, row-major label arrays (index = y * width + x). A pixel
set is a flat boolean membership array over the same grid, so the
paper's three sets (where the annotations agree, the refined set where
two networks' predictions coincide inside the annotators' disagreement,
and where all the peers agree) are `==`, `~`, `&` and `all` on grids. A
labeled set pairs a pixel set with the mask whose labels its members
carry; it shares that mask rather than copying labels out of it.

All operations here are pure: they never mutate their inputs, so values
can be shared freely across threads. Empty pixel sets are legal results,
not errors; downstream losses treat them as zero contribution.

Validation happens where values enter: the public constructors check
every field. Values the package derives from already valid ones skip the
checks that cannot fail: argmax_mask builds its LabelMask unchecked
except for the class count, and the training loop builds each forward's
ProbMap unchecked from a softmax (see _unchecked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .losses import ProbMap

LABEL_DTYPE = np.int32


class ShapeError(ValueError):
    """Raised when two grid-shaped values do not share dimensions."""


def _unchecked(cls, **fields):
    """An instance of the dataclass `cls` holding `fields` as given, made
    without running its __post_init__ checks: only for values that are
    valid by construction, such as a softmax or an argmax over one."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _check_num_classes(num_classes: int) -> None:
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")


@dataclass
class LabelMask:
    """Per-pixel class assignment on a width x height grid.

    labels is a flat array of length width * height with values in
    [0, num_classes).
    """

    width: int
    height: int
    num_classes: int
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=LABEL_DTYPE).ravel()
        _check_num_classes(self.num_classes)
        n = self.width * self.height
        if self.labels.shape[0] != n:
            raise ShapeError(
                f"labels length {self.labels.shape[0]} != width*height {n}"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("label values must lie in [0, num_classes)")

    @property
    def size(self) -> int:
        return self.width * self.height

    def grid(self) -> np.ndarray:
        """Labels reshaped to (height, width)."""
        return self.labels.reshape(self.height, self.width)

    @classmethod
    def from_grid(cls, grid: np.ndarray, num_classes: int) -> "LabelMask":
        grid = np.asarray(grid)
        h, w = grid.shape
        return cls(width=w, height=h, num_classes=num_classes, labels=grid.ravel())

    def same_shape(self, other: "LabelMask") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and self.num_classes == other.num_classes
        )


@dataclass
class PixelSet:
    """A set of pixels on a grid: member[i] says whether flat pixel i is in it."""

    member: np.ndarray

    def __post_init__(self):
        self.member = np.asarray(self.member).ravel()
        if self.member.dtype != np.bool_:
            raise TypeError(f"member must be a boolean array, got {self.member.dtype}")

    @property
    def grid_size(self) -> int:
        return int(self.member.size)

    @property
    def indices(self) -> np.ndarray:
        """Member pixel indices, increasing."""
        return np.flatnonzero(self.member)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.member))


@dataclass
class PixelLabels:
    """A pixel set whose members carry the labels of `mask`."""

    pixels: PixelSet
    mask: LabelMask

    def __post_init__(self):
        if self.pixels.grid_size != self.mask.size:
            raise ShapeError(
                f"pixel set grid size {self.pixels.grid_size} != mask size {self.mask.size}"
            )

    @property
    def num_classes(self) -> int:
        return self.mask.num_classes

    @property
    def labels(self) -> np.ndarray:
        """The members' labels, in increasing pixel order."""
        return self.mask.labels[self.pixels.member]

    def __len__(self) -> int:
        return len(self.pixels)


def _check_pair(a: LabelMask, b: LabelMask) -> None:
    if not a.same_shape(b):
        raise ShapeError(
            f"mask shapes differ: {a.width}x{a.height}/C={a.num_classes} vs "
            f"{b.width}x{b.height}/C={b.num_classes}"
        )


def _check_same_shape(masks: Sequence[LabelMask]) -> LabelMask:
    """The first of `masks`, once every other one is checked against it."""
    if len(masks) == 0:
        raise ValueError("need at least one mask")
    for m in masks[1:]:
        _check_pair(masks[0], m)
    return masks[0]


def separate_agreement(a: LabelMask, b: LabelMask) -> tuple[PixelLabels, PixelSet]:
    """Split the grid into pixels where two masks agree and where they differ.

    Returns (agree, disagree): agree carries the shared label per pixel; the
    two sets partition the grid.
    """
    _check_pair(a, b)
    eq = a.labels == b.labels
    return PixelLabels(PixelSet(eq), a), PixelSet(~eq)


def argmax_mask(p: "ProbMap") -> LabelMask:
    """Hard mask from a probability map; ties go to the lowest class index.

    The classes are compared plane by plane, and a class takes a pixel
    only when it is strictly above every lower class there: the labels of
    np.argmax over the rows on any map without NaN, which a checked
    ProbMap or a softmax of finite logits never holds. Each label lies in
    [0, num_classes), so of LabelMask's checks only the class count can
    fail here.
    """
    _check_num_classes(p.num_classes)
    planes = p.probs.T
    labels = np.zeros(p.width * p.height, dtype=LABEL_DTYPE)
    best = planes[0]
    for c in range(1, p.num_classes):
        above = planes[c] > best
        np.copyto(labels, c, where=above)
        best = np.maximum(best, planes[c])
    return _unchecked(
        LabelMask, width=p.width, height=p.height, num_classes=p.num_classes, labels=labels
    )


def consistency_set(pred_a: LabelMask, pred_b: LabelMask) -> PixelLabels:
    """Pixels where two predicted masks coincide, with the shared label."""
    agree, _ = separate_agreement(pred_a, pred_b)
    return agree


def restrict(consistent: PixelLabels, disagree: PixelSet) -> PixelLabels:
    """The members of `consistent` that also lie in `disagree`."""
    if consistent.pixels.grid_size != disagree.grid_size:
        raise ShapeError(
            f"grid sizes differ: {consistent.pixels.grid_size} vs {disagree.grid_size}"
        )
    member = consistent.pixels.member & disagree.member
    return PixelLabels(PixelSet(member), consistent.mask)


def consensus_set(masks: Sequence[LabelMask]) -> PixelLabels:
    """Pixels where every provided mask agrees, with the unanimous label.

    A single mask is unanimous everywhere, so the result is that whole mask.
    """
    first = _check_same_shape(masks)
    unanimous = np.all([m.labels == first.labels for m in masks], axis=0)
    return PixelLabels(PixelSet(unanimous), first)


def full_grid_labels(mask: LabelMask) -> PixelLabels:
    """The whole mask as labels over every pixel."""
    return PixelLabels(PixelSet(np.ones(mask.size, dtype=bool)), mask)
