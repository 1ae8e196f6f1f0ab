"""Reference pixel classifier: forward oracle, backprop, Adam, checkpoints."""

import math

import numpy as np
import pytest

from ambiseg.data import SceneSpec, generate_scene
from ambiseg.losses import ProbMap, masked_cross_entropy, softmax
from ambiseg.masks import ShapeError, full_grid_labels
from ambiseg.model import (
    Architecture,
    ImageTensor,
    ModelParams,
    adam_step,
    backward,
    forward,
    gradient_check_report,
    init_opt_state,
    init_params,
    layer_slices,
    load_checkpoint,
    param_count,
    predict_probs,
    save_checkpoint,
)


def naive_forward(params: ModelParams, image: ImageTensor) -> np.ndarray:
    """Direct nested-loop convolution, independent of the library path."""
    p = params.unpack()
    x = image.planes()

    def conv3(inp, w, b):
        cin, h, wd = inp.shape
        out = np.zeros((w.shape[0], h, wd))
        for o in range(w.shape[0]):
            for yy in range(h):
                for xx in range(wd):
                    acc = b[o]
                    for ci in range(cin):
                        for dy in range(3):
                            for dx in range(3):
                                sy, sx = yy + dy - 1, xx + dx - 1
                                if 0 <= sy < h and 0 <= sx < wd:
                                    acc += w[o, ci, dy, dx] * inp[ci, sy, sx]
                    out[o, yy, xx] = acc
        return out

    h1 = np.maximum(conv3(x, p["w1"], p["b1"]), 0.0)
    h2 = np.maximum(conv3(h1, p["w2"], p["b2"]), 0.0)
    logits = (
        np.einsum("oc,chw->ohw", p["w3"][:, :, 0, 0], h2) + p["b3"][:, None, None]
    )
    return logits.reshape(params.arch.num_classes, -1).T


def test_forward_matches_naive_convolution():
    rng = np.random.default_rng(0)
    arch = Architecture(in_channels=2, hidden=4, num_classes=3)
    params = init_params(arch, seed=5)
    image = ImageTensor.from_planes(rng.uniform(0, 1, size=(2, 8, 8)))
    logits, _ = forward(params, image)
    assert np.abs(logits - naive_forward(params, image)).max() < 1e-10


def test_zero_params_give_uniform_softmax():
    arch = Architecture()
    params = ModelParams(arch=arch, flat=np.zeros(param_count(arch)), seed=0)
    image = ImageTensor.from_planes(np.random.default_rng(1).random((1, 6, 6)))
    logits, _ = forward(params, image)
    assert not logits.any()
    probs = predict_probs(params, image)
    assert np.abs(probs.probs - 0.5).max() < 1e-15


def test_forward_deterministic():
    arch = Architecture()
    params = init_params(arch, seed=9)
    image = ImageTensor.from_planes(np.random.default_rng(2).random((1, 8, 8)))
    a, _ = forward(params, image)
    b, _ = forward(params, image)
    assert np.array_equal(a, b)


def test_forward_channel_mismatch():
    params = init_params(Architecture(in_channels=1), seed=0)
    image = ImageTensor.from_planes(np.zeros((2, 4, 4)))
    with pytest.raises(ShapeError):
        forward(params, image)


def test_translation_equivariance_interior():
    rng = np.random.default_rng(3)
    arch = Architecture()
    params = init_params(arch, seed=12)
    base = rng.uniform(0, 1, size=(1, 10, 12))
    shifted = np.zeros_like(base)
    shifted[:, :, 1:] = base[:, :, :-1]
    l1, _ = forward(params, ImageTensor.from_planes(base))
    l2, _ = forward(params, ImageTensor.from_planes(shifted))
    g1 = l1.reshape(10, 12, arch.num_classes)
    g2 = l2.reshape(10, 12, arch.num_classes)
    assert np.abs(g2[:, 3:-2, :] - g1[:, 2:-3, :]).max() < 1e-12


def test_backward_zero_and_linearity():
    rng = np.random.default_rng(4)
    arch = Architecture()
    params = init_params(arch, seed=1)
    image = ImageTensor.from_planes(rng.uniform(0, 1, size=(1, 8, 8)))
    logits, cache = forward(params, image)
    zero = backward(params, cache, np.zeros_like(logits))
    assert not zero.any()
    g = rng.normal(size=logits.shape)
    one = backward(params, cache, g)
    scaled = backward(params, cache, 2.5 * g)
    assert np.allclose(scaled, 2.5 * one, atol=1e-12)


def test_backward_shape_check():
    arch = Architecture()
    params = init_params(arch, seed=1)
    image = ImageTensor.from_planes(np.zeros((1, 8, 8)))
    _, cache = forward(params, image)
    with pytest.raises(ShapeError):
        backward(params, cache, np.zeros((10, 2)))


def test_end_to_end_gradient_check():
    report = gradient_check_report(seed=0, instances=4, size=8)
    assert report["passed"]
    assert report["max_rel_error"] < 1e-4


def test_gradient_check_detects_corruption():
    report = gradient_check_report(seed=0, instances=2, size=8, corrupt=True)
    assert not report["passed"]


def test_adam_zero_gradient_keeps_params():
    params = init_params(Architecture(), seed=3)
    opt = init_opt_state(params, lr=0.01)
    new_params, new_opt = adam_step(params, opt, np.zeros_like(params.flat))
    assert np.array_equal(new_params.flat, params.flat)
    assert new_opt.step == 1


def test_adam_first_step_size():
    arch = Architecture(in_channels=1, hidden=1, num_classes=2)
    for g in (1e-3, 1.0, 100.0):
        params = ModelParams(arch=arch, flat=np.zeros(param_count(arch)), seed=0)
        opt = init_opt_state(params, lr=0.05)
        grads = np.full_like(params.flat, g)
        stepped, _ = adam_step(params, opt, grads)
        move = stepped.flat - params.flat
        assert np.allclose(move, -0.05, rtol=1e-4)


def test_adam_rejects_nonfinite_gradient():
    params = init_params(Architecture(), seed=3)
    opt = init_opt_state(params, lr=0.01)
    bad = np.zeros_like(params.flat)
    bad[0] = float("nan")
    with pytest.raises(ValueError):
        adam_step(params, opt, bad)


def test_adam_converges_on_quadratic_bowl():
    arch = Architecture(in_channels=1, hidden=1, num_classes=2)
    n = param_count(arch)
    params = ModelParams(arch=arch, flat=np.ones(n), seed=0)
    opt = init_opt_state(params, lr=1e-2)
    for _ in range(500):
        params, opt = adam_step(params, opt, 2.0 * params.flat)
    assert np.abs(params.flat).max() < 0.1


def test_init_deterministic_and_seed_sensitive():
    arch = Architecture()
    a = init_params(arch, seed=42)
    b = init_params(arch, seed=42)
    c = init_params(arch, seed=43)
    assert np.array_equal(a.flat, b.flat)
    assert not np.array_equal(a.flat, c.flat)


def test_init_scale_matches_fan_in_rule():
    arch = Architecture()
    slices = layer_slices(arch)
    draws = {"w1": [], "w2": [], "w3": []}
    for seed in range(150):
        flat = init_params(arch, seed=seed).flat
        for name in draws:
            draws[name].append(flat[slices[name]])
        # biases start at zero
        for bias in ("b1", "b2", "b3"):
            assert not flat[slices[bias]].any()
    bounds = {"w1": math.sqrt(1 / 9), "w2": math.sqrt(1 / 72), "w3": math.sqrt(1 / 8)}
    for name, chunks in draws.items():
        values = np.concatenate(chunks)
        bound = bounds[name]
        assert np.abs(values).max() <= bound
        expected_std = 2 * bound / math.sqrt(12)
        assert np.std(values) == pytest.approx(expected_std, rel=0.05)


def test_checkpoint_round_trip(tmp_path):
    params = init_params(Architecture(in_channels=2, hidden=5, num_classes=4), seed=77)
    path = tmp_path / "net.msen"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.arch == params.arch
    assert loaded.seed == 77
    assert np.array_equal(loaded.flat, params.flat)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.msen"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(str(path))
    path.write_bytes(b"MSEN" + b"\x00" * 10)
    with pytest.raises(ValueError, match="bad.msen: truncated"):
        load_checkpoint(str(path))
    good = tmp_path / "good.msen"
    save_checkpoint(init_params(Architecture(), seed=1), str(good))
    path.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(ValueError, match="bad.msen"):
        load_checkpoint(str(path))


def test_sanity_fit_single_clean_sample():
    image, gt = generate_scene(
        SceneSpec(width=32, height=32, noise_level=0.0, blur_radius=0.0, seed=11)
    )
    targets = full_grid_labels(gt)
    params = init_params(Architecture(), seed=7)
    opt = init_opt_state(params, lr=0.01)
    loss = float("inf")
    for t in range(2000):
        logits, cache = forward(params, image)
        pm = ProbMap(width=32, height=32, num_classes=2, probs=softmax(logits))
        loss, grad_logits = masked_cross_entropy(pm, targets)
        if loss < 0.05:
            break
        params, opt = adam_step(params, opt, backward(params, cache, grad_logits))
    assert loss < 0.05
