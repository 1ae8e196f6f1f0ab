"""Masked cross-entropy kernel, ramp-up schedule, and loss composition."""

import math

import numpy as np
import pytest

from ambiseg.losses import (
    PROB_FLOOR,
    LossBreakdown,
    ProbMap,
    RampUp,
    masked_cross_entropy,
    ramp_lambda,
    softmax,
    total_network_loss,
)
from ambiseg.masks import LabelMask, PixelLabels, PixelSet, ShapeError


def sparse(indices, labels, grid, c):
    """`labels` on the listed pixels of a one-row grid of `grid` pixels."""
    indices = np.asarray(indices, dtype=np.intp)
    member = np.zeros(grid, dtype=bool)
    member[indices] = True
    full = np.zeros(grid, dtype=np.int32)
    full[indices] = labels
    mask = LabelMask(width=grid, height=1, num_classes=c, labels=full)
    return PixelLabels(PixelSet(member), mask)


def sparse_index_cross_entropy(p, targets):
    """Reference: masked CE over sorted member indices, labels gathered
    alongside and gradient rows scattered back (the kernel the membership
    grid replaced)."""
    idx = targets.pixels.indices
    y = targets.labels
    grad = np.zeros_like(p.probs)
    s = idx.size
    if s == 0:
        return 0.0, grad
    picked = p.probs[idx, y]
    loss = float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))
    rows = p.probs[idx].copy()
    rows[np.arange(s), y] -= 1.0
    grad[idx] = rows / s
    return loss, grad


def random_probmap(rng, w, h, c):
    logits = rng.normal(size=(w * h, c))
    return ProbMap(width=w, height=h, num_classes=c, probs=softmax(logits)), logits


def test_uniform_binary_prediction_gives_ln2():
    p = ProbMap(width=4, height=2, num_classes=2, probs=np.full((8, 2), 0.5))
    targets = sparse([0, 3, 5], [1, 0, 1], 8, 2)
    loss, _ = masked_cross_entropy(p, targets)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_empty_target_set_is_zero():
    p = ProbMap(width=2, height=2, num_classes=3, probs=np.full((4, 3), 1 / 3))
    loss, grad = masked_cross_entropy(p, sparse([], [], 4, 3))
    assert loss == 0.0
    assert not grad.any()


def test_loss_matches_naive_summation():
    rng = np.random.default_rng(0)
    for _ in range(30):
        c = int(rng.integers(2, 5))
        p, _ = random_probmap(rng, 8, 8, c)
        idx = np.flatnonzero(rng.random(64) < 0.4)
        if idx.size == 0:
            continue
        labels = rng.integers(0, c, size=idx.size)
        targets = sparse(idx, labels, 64, c)
        loss, _ = masked_cross_entropy(p, targets)
        naive = 0.0
        for i, y in zip(idx, labels):
            naive += -math.log(p.probs[i, y])
        naive /= idx.size
        assert loss == pytest.approx(naive, abs=1e-10)


def test_gradient_matches_finite_differences_on_logits():
    rng = np.random.default_rng(1)
    step = 1e-4
    for _ in range(5):
        c = int(rng.integers(2, 4))
        logits = rng.normal(size=(64, c))
        idx = np.flatnonzero(rng.random(64) < 0.5)
        labels = rng.integers(0, c, size=idx.size)
        targets = sparse(idx, labels, 64, c)

        def loss_of(lg):
            pm = ProbMap(width=8, height=8, num_classes=c, probs=softmax(lg))
            return masked_cross_entropy(pm, targets)[0]

        pm = ProbMap(
            width=8, height=8, num_classes=c, probs=softmax(logits), logits=logits
        )
        _, grad = masked_cross_entropy(pm, targets)
        for _ in range(40):
            i = int(rng.integers(64))
            j = int(rng.integers(c))
            bump = logits.copy()
            bump[i, j] += step
            hi = loss_of(bump)
            bump[i, j] -= 2 * step
            lo = loss_of(bump)
            fd = (hi - lo) / (2 * step)
            denom = max(abs(grad[i, j]), abs(fd), 1e-4)
            assert abs(grad[i, j] - fd) / denom < 1e-4


def test_gradient_zero_off_mask():
    rng = np.random.default_rng(2)
    p, _ = random_probmap(rng, 4, 4, 3)
    targets = sparse([2, 7], [1, 0], 16, 3)
    _, grad = masked_cross_entropy(p, targets)
    off = np.setdiff1d(np.arange(16), [2, 7])
    assert not grad[off].any()
    # on-mask rows: softmax minus onehot over |S|
    expect = p.probs[[2, 7]].copy()
    expect[0, 1] -= 1.0
    expect[1, 0] -= 1.0
    assert np.allclose(grad[[2, 7]], expect / 2, atol=1e-15)


def test_permutation_and_split_recombination():
    rng = np.random.default_rng(3)
    p, _ = random_probmap(rng, 6, 6, 2)
    idx = np.sort(rng.choice(36, size=20, replace=False))
    labels = rng.integers(0, 2, size=20)
    full_loss, _ = masked_cross_entropy(p, sparse(idx, labels, 36, 2))
    # split along a random permutation and recombine with |S|-weighted averaging
    perm = rng.permutation(20)
    cut = 8
    first, rest = perm[:cut], perm[cut:]
    l1, _ = masked_cross_entropy(p, sparse(idx[first], labels[first], 36, 2))
    l2, _ = masked_cross_entropy(p, sparse(idx[rest], labels[rest], 36, 2))
    recombined = (cut * l1 + (20 - cut) * l2) / 20
    assert recombined == pytest.approx(full_loss, abs=1e-12)


def test_bit_equal_to_sparse_index_reference():
    rng = np.random.default_rng(5)
    for trial in range(300):
        w, h = int(rng.integers(2, 65)), int(rng.integers(2, 65))
        c = int(rng.integers(2, 5))
        # large logits saturate probabilities to exactly 0 and 1; empty
        # and full sets recur with every scale
        scale = (1.0, 40.0, 800.0)[trial % 3]
        p = ProbMap(
            width=w, height=h, num_classes=c,
            probs=softmax(scale * rng.normal(size=(w * h, c))),
        )
        density = (0.0, 1.0, rng.random(), rng.random())[trial % 4]
        mask = LabelMask(
            width=w, height=h, num_classes=c, labels=rng.integers(0, c, size=w * h)
        )
        targets = PixelLabels(PixelSet(rng.random(w * h) < density), mask)
        loss, grad = masked_cross_entropy(p, targets)
        ref_loss, ref_grad = sparse_index_cross_entropy(p, targets)
        # compare bit patterns, so a zero of the other sign differs
        assert np.float64(loss).view(np.uint64) == np.float64(ref_loss).view(np.uint64)
        assert np.array_equal(grad.view(np.uint64), ref_grad.view(np.uint64))


def test_loss_bounded_by_probability_floor():
    probs = np.zeros((4, 2))
    probs[:, 0] = 1.0
    p = ProbMap(width=2, height=2, num_classes=2, probs=probs)
    targets = sparse([0, 1], [1, 1], 4, 2)
    loss, _ = masked_cross_entropy(p, targets)
    assert 0.0 <= loss <= -math.log(1e-12) + 1e-9


def test_shape_mismatch_rejected():
    p = ProbMap(width=2, height=2, num_classes=2, probs=np.full((4, 2), 0.5))
    with pytest.raises(ShapeError):
        masked_cross_entropy(p, sparse([0], [0], 9, 2))
    with pytest.raises(ShapeError):
        masked_cross_entropy(p, sparse([0], [0], 4, 3))


def test_ramp_endpoints():
    schedule = RampUp(w_max=0.1, t_max=1000)
    assert ramp_lambda(1000, schedule) == 0.1
    assert ramp_lambda(0, schedule) == pytest.approx(0.1 * math.exp(-5.0), rel=1e-12)
    assert ramp_lambda(500, schedule) == pytest.approx(
        0.1 * math.exp(-1.25), rel=1e-12
    )


def test_ramp_monotone_and_scale_free():
    schedule = RampUp(w_max=0.1, t_max=997)
    values = [ramp_lambda(t, schedule) for t in range(0, 998)]
    assert all(b > a for a, b in zip(values, values[1:]))
    other = RampUp(w_max=0.7, t_max=997)
    for t in (0, 123, 500, 997):
        assert ramp_lambda(t, schedule) / 0.1 == pytest.approx(
            ramp_lambda(t, other) / 0.7, rel=1e-12
        )


def test_ramp_clamps_beyond_horizon():
    schedule = RampUp(w_max=0.1, t_max=10)
    assert ramp_lambda(50, schedule) == 0.1
    with pytest.raises(ValueError):
        ramp_lambda(-1, schedule)


def test_rampup_validation():
    with pytest.raises(ValueError):
        RampUp(w_max=0.0, t_max=10)
    with pytest.raises(ValueError):
        RampUp(w_max=0.1, t_max=0)


def test_total_loss_examples():
    bd = total_network_loss(1.0, 0.0, 0.0, 1.0, 1.0, 0.1)
    assert bd.total == 1.0
    bd = total_network_loss(0.5, 0.25, 2.0, 1.0, 1.0, 0.1)
    assert bd.total == pytest.approx(0.95, abs=1e-15)


def test_total_loss_matches_recomputation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        l_ma, l_pc, l_ps = rng.random(3) * 3
        alpha, beta, lam = rng.random(3)
        bd = total_network_loss(l_ma, l_pc, l_ps, alpha, beta, lam)
        assert bd.total == pytest.approx(
            alpha * l_ma + beta * l_pc + lam * l_ps, abs=1e-12
        )


def test_total_loss_rejects_nonfinite():
    with pytest.raises(ValueError):
        total_network_loss(float("nan"), 0.0, 0.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        total_network_loss(0.0, float("inf"), 0.0, 1.0, 1.0, 0.1)


def test_breakdown_invariant_enforced():
    with pytest.raises(ValueError):
        LossBreakdown(l_ma=1.0, l_pc=0.0, l_ps=0.0, lambda_t=0.1, total=2.0)
    with pytest.raises(ValueError):
        LossBreakdown(l_ma=-0.5, l_pc=0.0, l_ps=0.0, lambda_t=0.1, total=-0.5)


def test_probmap_validation():
    with pytest.raises(ValueError):
        ProbMap(width=2, height=1, num_classes=2, probs=np.array([[0.9, 0.3], [0.5, 0.5]]))
    with pytest.raises(ShapeError):
        ProbMap(width=2, height=1, num_classes=2, probs=np.full((3, 2), 0.5))
