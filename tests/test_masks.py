"""Set algebra over label masks, checked against brute-force per-pixel loops."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambiseg.losses import ProbMap, masked_cross_entropy, softmax
from ambiseg.masks import (
    LabelMask,
    PixelLabels,
    PixelSet,
    ShapeError,
    argmax_mask,
    consensus_set,
    consistency_set,
    full_grid_labels,
    restrict,
    separate_agreement,
)


def random_mask(rng, w, h, c):
    return LabelMask(
        width=w, height=h, num_classes=c, labels=rng.integers(0, c, size=w * h)
    )


def brute_separate(a, b):
    agree_idx, agree_lab, disagree = [], [], []
    for i in range(a.size):
        if a.labels[i] == b.labels[i]:
            agree_idx.append(i)
            agree_lab.append(int(a.labels[i]))
        else:
            disagree.append(i)
    return agree_idx, agree_lab, disagree


def test_separate_agreement_worked_example():
    a = LabelMask(width=2, height=2, num_classes=2, labels=[1, 0, 1, 0])
    b = LabelMask(width=2, height=2, num_classes=2, labels=[1, 1, 0, 0])
    agree, disagree = separate_agreement(a, b)
    assert agree.pixels.indices.tolist() == [0, 3]
    assert agree.labels.tolist() == [1, 0]
    assert disagree.indices.tolist() == [1, 2]


def test_separate_agreement_identity():
    rng = np.random.default_rng(0)
    m = random_mask(rng, 5, 4, 3)
    agree, disagree = separate_agreement(m, m)
    assert agree.pixels.indices.tolist() == list(range(m.size))
    assert agree.labels.tolist() == m.labels.tolist()
    assert len(disagree) == 0


def test_separate_agreement_shape_mismatch():
    a = LabelMask(width=2, height=2, num_classes=2, labels=[0, 0, 0, 0])
    b = LabelMask(width=4, height=1, num_classes=2, labels=[0, 0, 0, 0])
    with pytest.raises(ShapeError):
        separate_agreement(a, b)


def test_separate_agreement_random_vs_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w, h = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        c = int(rng.integers(2, 5))
        a, b = random_mask(rng, w, h, c), random_mask(rng, w, h, c)
        agree, disagree = separate_agreement(a, b)
        bi, bl, bd = brute_separate(a, b)
        assert agree.pixels.indices.tolist() == bi
        assert agree.labels.tolist() == bl
        assert disagree.indices.tolist() == bd
        # partition of the grid
        merged = sorted(agree.pixels.indices.tolist() + disagree.indices.tolist())
        assert merged == list(range(w * h))


def test_separate_agreement_symmetry():
    rng = np.random.default_rng(2)
    a, b = random_mask(rng, 9, 7, 3), random_mask(rng, 9, 7, 3)
    ab, _ = separate_agreement(a, b)
    ba, _ = separate_agreement(b, a)
    assert ab.pixels.indices.tolist() == ba.pixels.indices.tolist()


def test_argmax_mask_tie_breaks_low():
    probs = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3], [0.5, 0.5]])
    p = ProbMap(width=2, height=2, num_classes=2, probs=probs)
    assert argmax_mask(p).labels.tolist() == [1, 0, 0, 0]


def test_argmax_mask_vs_bruteforce():
    rng = np.random.default_rng(3)
    raw = rng.random((64, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    p = ProbMap(width=8, height=8, num_classes=3, probs=probs)
    got = argmax_mask(p).labels
    for i in range(64):
        best, best_c = -1.0, 0
        for c in range(3):
            if probs[i, c] > best:
                best, best_c = probs[i, c], c
        assert got[i] == best_c


@pytest.mark.parametrize("num_classes", [2, 3, 9])
def test_argmax_mask_equals_numpy_argmax_with_ties_in_any_layout(num_classes):
    rng = np.random.default_rng(20 + num_classes)
    # probabilities on a coarse grid, so exact ties are frequent
    raw = rng.integers(1, 4, size=(300, num_classes)).astype(np.float64)
    raw[::7] = 1.0  # every class tied
    probs = raw / raw.sum(axis=1, keepdims=True)
    want = np.argmax(probs, axis=1)
    assert (probs == probs.max(axis=1, keepdims=True)).sum(axis=1).max() > 1
    for layout in (probs, np.asfortranarray(probs), np.ascontiguousarray(probs.T).T):
        p = ProbMap(width=20, height=15, num_classes=num_classes, probs=layout)
        got = argmax_mask(p).labels
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def test_consistency_set_full_and_empty():
    rng = np.random.default_rng(4)
    m = random_mask(rng, 6, 6, 2)
    full = consistency_set(m, m)
    assert len(full) == m.size
    comp = LabelMask(
        width=6, height=6, num_classes=2, labels=1 - m.labels
    )
    assert len(consistency_set(m, comp)) == 0


def test_restrict_vs_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 200))
        mask = random_mask(rng, n, 1, 3)
        cons = PixelLabels(PixelSet(rng.random(n) < 0.5), mask)
        dis = PixelSet(rng.random(n) < 0.4)
        cons_idx, dis_idx = cons.pixels.indices, dis.indices
        got = restrict(cons, dis)
        keep = [
            (int(i), int(mask.labels[i]))
            for i in cons_idx
            if i in set(dis_idx.tolist())
        ]
        assert list(zip(got.pixels.indices.tolist(), got.labels.tolist())) == keep
        # monotonicity: result indices lie inside both inputs
        assert set(got.pixels.indices.tolist()) <= set(cons_idx.tolist())
        assert set(got.pixels.indices.tolist()) <= set(dis_idx.tolist())


def test_restrict_trivial_cases():
    mask = LabelMask(width=8, height=1, num_classes=2, labels=[1, 0, 1, 1, 1, 0, 1, 1])
    cons = PixelLabels(PixelSet(np.isin(np.arange(8), [1, 3, 5])), mask)
    assert len(restrict(cons, PixelSet(np.zeros(8, dtype=bool)))) == 0
    everything = PixelSet(np.ones(8, dtype=bool))
    got = restrict(cons, everything)
    assert got.pixels.indices.tolist() == [1, 3, 5]
    assert got.labels.tolist() == [0, 1, 0]
    with pytest.raises(ShapeError):
        restrict(cons, PixelSet(np.ones(9, dtype=bool)))


def test_consensus_single_mask_is_full_grid():
    rng = np.random.default_rng(6)
    m = random_mask(rng, 7, 5, 4)
    got = consensus_set([m])
    assert got.pixels.indices.tolist() == list(range(m.size))
    assert got.labels.tolist() == m.labels.tolist()


def test_consensus_identical_masks():
    rng = np.random.default_rng(7)
    m = random_mask(rng, 6, 6, 3)
    got = consensus_set([m, m, m])
    assert len(got) == m.size


def test_consensus_vs_bruteforce_and_order_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        masks = [random_mask(rng, 10, 10, 2) for _ in range(k)]
        got = consensus_set(masks)
        expect_idx, expect_lab = [], []
        for i in range(100):
            vals = {int(m.labels[i]) for m in masks}
            if len(vals) == 1:
                expect_idx.append(i)
                expect_lab.append(vals.pop())
        assert got.pixels.indices.tolist() == expect_idx
        assert got.labels.tolist() == expect_lab
        shuffled = [masks[int(i)] for i in rng.permutation(k)]
        again = consensus_set(shuffled)
        assert again.pixels.indices.tolist() == expect_idx


def test_consensus_rejects_empty_list():
    with pytest.raises(ValueError):
        consensus_set([])


def test_pixellabels_rejects_grid_size_mismatch():
    mask = LabelMask(width=3, height=2, num_classes=2, labels=[0, 1, 0, 1, 0, 1])
    assert len(PixelLabels(PixelSet(np.ones((2, 3), dtype=bool)), mask)) == 6
    with pytest.raises(ShapeError):
        PixelLabels(PixelSet(np.ones(5, dtype=bool)), mask)
    with pytest.raises(ShapeError):
        PixelLabels(PixelSet(np.ones(7, dtype=bool)), mask)
    # an index array is not a membership grid
    with pytest.raises(TypeError):
        PixelSet(np.array([0, 2, 4]))


def test_labelmask_validation():
    with pytest.raises(ShapeError):
        LabelMask(width=2, height=2, num_classes=2, labels=[0, 1])
    with pytest.raises(ValueError):
        LabelMask(width=2, height=1, num_classes=2, labels=[0, 2])
    with pytest.raises(ValueError):
        LabelMask(width=2, height=1, num_classes=1, labels=[0, 0])


def test_full_grid_labels_round_trip():
    rng = np.random.default_rng(9)
    m = random_mask(rng, 4, 3, 3)
    full = full_grid_labels(m)
    assert full.labels.tolist() == m.labels.tolist()
    assert len(full) == m.size


# ---------------------------------------------------------------------------
# properties of the set algebra on random grids (profile in conftest.py)


@st.composite
def mask_groups(draw, count):
    """`count` masks on one random grid, with one random class count."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    num_classes = draw(st.integers(2, 4))
    labels = st.lists(
        st.integers(0, num_classes - 1), min_size=width * height, max_size=width * height
    )
    return [
        LabelMask(width=width, height=height, num_classes=num_classes, labels=draw(labels))
        for _ in range(count)
    ]


@given(mask_groups(2))
def test_agreement_and_disagreement_partition_the_grid(masks):
    a, b = masks
    agree, disagree = separate_agreement(a, b)
    assert agree.pixels.grid_size == disagree.grid_size == a.size
    assert np.array_equal(agree.pixels.member, ~disagree.member)
    assert np.array_equal(agree.labels, b.labels[agree.pixels.member])


@given(mask_groups(4))
def test_restrict_is_a_subset_of_both_inputs(masks):
    consistent = consistency_set(masks[0], masks[1])
    _, disagree = separate_agreement(masks[2], masks[3])
    refined = restrict(consistent, disagree)
    assert not np.any(refined.pixels.member & ~consistent.pixels.member)
    assert not np.any(refined.pixels.member & ~disagree.member)
    assert np.array_equal(refined.labels, masks[0].labels[refined.pixels.member])


@given(mask_groups(1))
def test_consensus_of_one_mask_is_the_full_grid(masks):
    (mask,) = masks
    got = consensus_set([mask])
    assert len(got) == mask.size
    assert np.array_equal(got.labels, mask.labels)


@given(mask_groups(1), st.data())
def test_empty_set_gives_zero_loss_and_zero_gradient(masks, data):
    (mask,) = masks
    logits = np.array(
        data.draw(st.lists(
            st.floats(-20, 20), min_size=mask.size * mask.num_classes,
            max_size=mask.size * mask.num_classes,
        ))
    ).reshape(mask.size, mask.num_classes)
    probs = ProbMap(width=mask.width, height=mask.height,
                    num_classes=mask.num_classes, probs=softmax(logits))
    empty = PixelLabels(PixelSet(np.zeros(mask.size, dtype=bool)), mask)
    loss, grad = masked_cross_entropy(probs, empty)
    assert loss == 0.0
    assert grad.shape == probs.probs.shape and not np.any(grad)
