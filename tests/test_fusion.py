"""Fusion strategies: probability averaging, majority vote, random pick, EM."""

import numpy as np
import pytest

from ambiseg.fusion import (
    average_fuse,
    fuse_annotations,
    majority_vote,
    random_select,
    staple_binary,
    staple_fuse,
)
from ambiseg.losses import ProbMap
from ambiseg.masks import LabelMask, ShapeError, argmax_mask


def prob_map(rows, width, height):
    return ProbMap(
        width=width, height=height, num_classes=len(rows[0]), probs=np.array(rows)
    )


def random_prob_map(rng, width, height, num_classes):
    raw = rng.uniform(0.05, 1.0, size=(width * height, num_classes))
    return ProbMap(
        width=width,
        height=height,
        num_classes=num_classes,
        probs=raw / raw.sum(axis=1, keepdims=True),
    )


def random_mask(rng, width, height, num_classes=2):
    return LabelMask(
        width=width,
        height=height,
        num_classes=num_classes,
        labels=rng.integers(0, num_classes, size=width * height).astype(np.int32),
    )


def test_average_fuse_identity():
    rng = np.random.default_rng(0)
    p = random_prob_map(rng, 4, 3, 3)
    fused = average_fuse([p, p, p, p])
    assert np.abs(fused.probs - p.probs).max() < 1e-15


def test_average_fuse_two_map_example():
    a = prob_map([[0.2, 0.8]], 1, 1)
    b = prob_map([[0.6, 0.4]], 1, 1)
    fused = average_fuse([a, b])
    assert np.abs(fused.probs - [[0.4, 0.6]]).max() < 1e-15


def test_average_fuse_matches_accumulation():
    rng = np.random.default_rng(1)
    maps = [random_prob_map(rng, 5, 4, 3) for _ in range(4)]
    acc = np.zeros_like(maps[0].probs)
    for p in maps:
        acc += p.probs
    acc /= len(maps)
    fused = average_fuse(maps)
    assert np.abs(fused.probs - acc).max() < 1e-12
    assert np.abs(fused.probs.sum(axis=1) - 1.0).max() < 1e-9


@pytest.mark.parametrize("count", range(1, 10))
def test_average_fuse_bitwise_equal_to_mean_of_stack(count):
    rng = np.random.default_rng(30 + count)
    for width, height, num_classes in ((1, 1, 2), (5, 3, 3), (16, 16, 9)):
        maps = []
        for i in range(count):
            probs = random_prob_map(rng, width, height, num_classes).probs
            probs[0, 0] = -0.0  # a zero whose sign a sum from +0.0 drops
            probs[0, 1:] /= probs[0, 1:].sum()
            # class-major and row-major maps mixed
            layout = np.ascontiguousarray(probs.T).T if i % 2 else probs
            maps.append(
                ProbMap(width=width, height=height, num_classes=num_classes, probs=layout)
            )
        want = np.mean(np.stack([np.ascontiguousarray(m.probs) for m in maps]), axis=0)
        got = average_fuse(maps).probs
        assert got.shape == want.shape
        assert np.array_equal(
            np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64)
        ), (width, height, num_classes)


def test_average_fuse_respects_unanimous_argmax():
    rng = np.random.default_rng(2)
    maps = [random_prob_map(rng, 8, 8, 3) for _ in range(3)]
    votes = np.stack([argmax_mask(p).labels for p in maps])
    fused_labels = argmax_mask(average_fuse(maps)).labels
    unanimous = (votes == votes[0]).all(axis=0)
    assert np.array_equal(fused_labels[unanimous], votes[0][unanimous])


def test_average_fuse_rejects_mismatch_and_empty():
    a = prob_map([[0.2, 0.8]], 1, 1)
    b = prob_map([[0.2, 0.8], [0.5, 0.5]], 2, 1)
    with pytest.raises(ShapeError):
        average_fuse([a, b])
    with pytest.raises(ValueError):
        average_fuse([])


def test_majority_vote_basic():
    def mask(bits):
        return LabelMask(
            width=len(bits), height=1, num_classes=2,
            labels=np.array(bits, dtype=np.int32),
        )

    fused = majority_vote([mask([1, 0]), mask([1, 0]), mask([0, 0])])
    assert fused.labels.tolist() == [1, 0]
    # even split resolves to the lowest class index
    tie = majority_vote([mask([1, 0]), mask([0, 1])])
    assert tie.labels.tolist() == [0, 0]


def test_majority_vote_matches_histogram():
    rng = np.random.default_rng(3)
    masks = [random_mask(rng, 6, 5, num_classes=3) for _ in range(6)]
    fused = majority_vote(masks)
    votes = np.stack([m.labels for m in masks])
    for i in range(votes.shape[1]):
        counts = np.bincount(votes[:, i], minlength=3)
        assert fused.labels[i] == counts.argmax()


def test_majority_vote_permutation_invariant():
    rng = np.random.default_rng(4)
    masks = [random_mask(rng, 7, 7) for _ in range(5)]
    fused = majority_vote(masks)
    shuffled = majority_vote(masks[::-1])
    assert np.array_equal(fused.labels, shuffled.labels)


def test_random_select():
    rng = np.random.default_rng(5)
    masks = [random_mask(rng, 4, 4) for _ in range(4)]
    only = random_select([masks[2]], np.random.default_rng(0))
    assert np.array_equal(only.labels, masks[2].labels)
    a = random_select(masks, np.random.default_rng(11))
    b = random_select(masks, np.random.default_rng(11))
    assert np.array_equal(a.labels, b.labels)


def test_random_select_uniform_and_single_draw():
    rng = np.random.default_rng(6)
    masks = [random_mask(rng, 4, 4) for _ in range(4)]
    draw_rng = np.random.default_rng(7)
    shadow = np.random.default_rng(7)
    counts = np.zeros(4)
    for _ in range(10_000):
        picked = random_select(masks, draw_rng)
        expected = masks[int(shadow.integers(len(masks)))]
        assert np.array_equal(picked.labels, expected.labels)
        for idx, m in enumerate(masks):
            if picked is m or np.array_equal(picked.labels, m.labels):
                counts[idx] += 1
                break
    freqs = counts / 10_000
    assert (freqs > 0.23).all() and (freqs < 0.27).all()


def test_staple_unanimity_fixed_point():
    rng = np.random.default_rng(8)
    labels = (rng.random(144) < 0.4).astype(np.int32)
    m = LabelMask(width=12, height=12, num_classes=2, labels=labels)
    result = staple_binary([m, m, m])
    assert result.converged
    assert result.iterations_used <= 2
    assert np.array_equal(result.fused.labels, labels)
    assert (result.sensitivities > 0.99).all()
    assert (result.specificities > 0.99).all()


def test_staple_outvotes_adversarial_complement():
    rng = np.random.default_rng(9)
    labels = (rng.random(100) < 0.5).astype(np.int32)
    good = LabelMask(width=10, height=10, num_classes=2, labels=labels)
    bad = LabelMask(width=10, height=10, num_classes=2, labels=1 - labels)
    result = staple_binary([good, good, bad])
    vote = majority_vote([good, good, bad])
    assert np.array_equal(result.fused.labels, vote.labels)
    assert np.array_equal(result.fused.labels, labels)


def test_staple_objective_monotone():
    rng = np.random.default_rng(10)
    for _ in range(10):
        masks = [random_mask(rng, 8, 8) for _ in range(4)]
        result = staple_binary(masks)
        trace = np.asarray(result.objective_trace)
        assert (np.diff(trace) >= -1e-9).all()
        assert (result.sensitivities > 0).all() and (result.sensitivities <= 1).all()
        assert (result.specificities > 0).all() and (result.specificities <= 1).all()


def test_staple_permutation_invariant_fusion():
    rng = np.random.default_rng(11)
    masks = [random_mask(rng, 8, 8) for _ in range(5)]
    a = staple_binary(masks)
    b = staple_binary(masks[::-1])
    assert np.array_equal(a.fused.labels, b.fused.labels)


def test_staple_binary_rejects_multiclass():
    rng = np.random.default_rng(12)
    masks = [random_mask(rng, 4, 4, num_classes=3) for _ in range(3)]
    with pytest.raises(ValueError):
        staple_binary(masks)


def test_staple_fuse_multiclass():
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 3, size=64).astype(np.int32)
    m = LabelMask(width=8, height=8, num_classes=3, labels=labels)
    fused = staple_fuse([m, m, m])
    assert fused.num_classes == 3
    assert np.array_equal(fused.labels, labels)


def test_fuse_annotations_dispatch():
    rng = np.random.default_rng(14)
    masks = [random_mask(rng, 6, 6) for _ in range(3)]
    vote = fuse_annotations("average-vote", masks)
    assert np.array_equal(vote.labels, majority_vote(masks).labels)
    st = fuse_annotations("staple", masks)
    assert np.array_equal(st.labels, staple_fuse(masks).labels)
    rnd = fuse_annotations("random", masks, rng=np.random.default_rng(3))
    ref = random_select(masks, np.random.default_rng(3))
    assert np.array_equal(rnd.labels, ref.labels)
    with pytest.raises(ValueError):
        fuse_annotations("blend", masks)
    with pytest.raises(ValueError):
        fuse_annotations("random", masks)
