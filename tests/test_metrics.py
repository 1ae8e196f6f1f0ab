"""Overlap metrics and evaluation reports."""

import numpy as np
import pytest

from ambiseg.masks import LabelMask, separate_agreement
from ambiseg.metrics import (
    EvalReport,
    agreement_fraction,
    dice,
    evaluate_masks,
    jaccard,
)


def mask(bits, width, height, num_classes=2):
    return LabelMask(
        width=width, height=height, num_classes=num_classes,
        labels=np.array(bits, dtype=np.int32),
    )


def test_strip_example():
    # 4x1 strip: prediction covers the left half, reference the left three quarters
    pred = mask([1, 1, 0, 0], 4, 1)
    ref = mask([1, 1, 1, 0], 4, 1)
    assert jaccard(pred, ref, 1) == pytest.approx(2 / 3, abs=1e-15)
    assert dice(pred, ref, 1) == pytest.approx(0.8, abs=1e-15)


def test_degenerate_cases():
    a = mask([1, 0, 1, 0], 2, 2)
    b = mask([0, 1, 0, 1], 2, 2)
    zeros = mask([0, 0, 0, 0], 2, 2)
    assert jaccard(a, a, 1) == 1.0
    assert dice(a, a, 1) == 1.0
    assert jaccard(a, b, 1) == 0.0
    assert dice(a, b, 1) == 0.0
    assert jaccard(zeros, zeros, 1) == 1.0
    assert dice(zeros, zeros, 1) == 1.0


def test_symmetry_and_dice_jaccard_relation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = mask(rng.integers(0, 2, size=36).astype(np.int32), 6, 6)
        b = mask(rng.integers(0, 2, size=36).astype(np.int32), 6, 6)
        j = jaccard(a, b, 1)
        assert j == jaccard(b, a, 1)
        d = dice(a, b, 1)
        assert d == dice(b, a, 1)
        assert d == pytest.approx(2 * j / (1 + j), abs=1e-12)


def test_agreement_fraction_matches_set_separation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = mask(rng.integers(0, 3, size=48).astype(np.int32), 8, 6, num_classes=3)
        b = mask(rng.integers(0, 3, size=48).astype(np.int32), 8, 6, num_classes=3)
        agree, _ = separate_agreement(a, b)
        assert agreement_fraction(a, b) == pytest.approx(
            len(agree.pixels.indices) / 48, abs=1e-15
        )
    same = mask(rng.integers(0, 3, size=48).astype(np.int32), 8, 6, num_classes=3)
    assert agreement_fraction(same, same) == 1.0


def test_evaluate_masks_report():
    rng = np.random.default_rng(2)
    preds, refs = [], []
    for _ in range(5):
        preds.append(mask(rng.integers(0, 3, size=64).astype(np.int32), 8, 8, 3))
        refs.append(mask(rng.integers(0, 3, size=64).astype(np.int32), 8, 8, 3))
    report = evaluate_masks(preds, refs)
    assert report.sample_jaccard.shape == (5, 3)
    assert report.sample_dice.shape == (5, 3)
    for i in range(5):
        for c in range(3):
            assert report.sample_jaccard[i, c] == pytest.approx(
                jaccard(preds[i], refs[i], c), abs=1e-15
            )
    # summary means skip the background class
    assert report.mean_jaccard == pytest.approx(
        report.sample_jaccard[:, 1:].mean(), abs=1e-12
    )
    assert report.class_dice.shape == (3,)


def test_report_rejects_inconsistent_tables():
    good_j = np.array([[1.0, 0.5]])
    good_d = np.array([[1.0, 2 * 0.5 / 1.5]])
    EvalReport(num_classes=2, sample_jaccard=good_j, sample_dice=good_d)
    with pytest.raises(ValueError):
        EvalReport(
            num_classes=2, sample_jaccard=good_j, sample_dice=np.array([[1.0, 0.9]])
        )
    with pytest.raises(ValueError):
        EvalReport(
            num_classes=2,
            sample_jaccard=np.array([[1.0, 1.5]]),
            sample_dice=good_d,
        )


def test_evaluate_masks_validates_lengths():
    a = mask([1, 0], 2, 1)
    with pytest.raises(ValueError):
        evaluate_masks([a], [])
    with pytest.raises(ValueError):
        evaluate_masks([], [])
