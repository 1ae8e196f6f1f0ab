"""Reference pixel classifier: forward oracle, backprop, Adam, checkpoints."""

import math

import numpy as np
import pytest

from ambiseg.data import SceneSpec, generate_scene
from ambiseg.losses import ProbMap, masked_cross_entropy, softmax
from ambiseg.masks import ShapeError, full_grid_labels
from ambiseg.model import (
    Architecture,
    ForwardCache,
    ImageTensor,
    ModelParams,
    _conv3_input_grad,
    _im2col3,
    _interior,
    _tap_view,
    _tile_rows,
    _zero_ended,
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
from ambiseg.training import _one_blas_thread


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


# The kernels as first written (np.pad + tensordot im2col, a padded
# nine-tensordot input gradient, an axis-1 softmax max). The library's
# buffer-writing kernels must reproduce them bit for bit.


def ref_im2col3(x):
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 3, 3, h, w))
    for dy in range(3):
        for dx in range(3):
            cols[:, dy, dx] = xp[:, dy : dy + h, dx : dx + w]
    return cols


def ref_conv3(cols, w, b):
    return np.tensordot(w, cols, axes=([1, 2, 3], [0, 1, 2])) + b[:, None, None]


def ref_conv3_param_grads(cols, gout):
    return np.tensordot(gout, cols, axes=([1, 2], [3, 4])), gout.sum(axis=(1, 2))


def ref_conv3_input_grad(w, gout):
    _, h, width = gout.shape
    dxp = np.zeros((w.shape[1], h + 2, width + 2))
    for dy in range(3):
        for dx in range(3):
            dxp[:, dy : dy + h, dx : dx + width] += np.tensordot(
                w[:, :, dy, dx], gout, axes=([0], [0])
            )
    return dxp[:, 1 : h + 1, 1 : width + 1]


def ref_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_forward(params, image):
    p = params.unpack()
    acts = {"cols1": ref_im2col3(image.planes())}
    acts["pre1"] = ref_conv3(acts["cols1"], p["w1"], p["b1"])
    acts["act1"] = np.maximum(acts["pre1"], 0.0)
    acts["cols2"] = ref_im2col3(acts["act1"])
    acts["pre2"] = ref_conv3(acts["cols2"], p["w2"], p["b2"])
    acts["act2"] = np.maximum(acts["pre2"], 0.0)
    logits_chw = (
        np.tensordot(p["w3"][:, :, 0, 0], acts["act2"], axes=([1], [0]))
        + p["b3"][:, None, None]
    )
    return logits_chw.reshape(params.arch.num_classes, -1).T.copy(), acts


def ref_backward(params, acts, grad_logits):
    arch = params.arch
    p = params.unpack()
    _, h, w = acts["pre1"].shape
    g_chw = grad_logits.T.reshape(arch.num_classes, h, w)
    dw3 = np.tensordot(g_chw, acts["act2"], axes=([1, 2], [1, 2]))[:, :, None, None]
    db3 = g_chw.sum(axis=(1, 2))
    d_act2 = np.tensordot(p["w3"][:, :, 0, 0], g_chw, axes=([0], [0]))
    d_pre2 = d_act2 * (acts["pre2"] > 0.0)
    dw2, db2 = ref_conv3_param_grads(acts["cols2"], d_pre2)
    d_act1 = ref_conv3_input_grad(p["w2"], d_pre2)
    d_pre1 = d_act1 * (acts["pre1"] > 0.0)
    dw1, db1 = ref_conv3_param_grads(acts["cols1"], d_pre1)
    return np.concatenate(
        [dw1.ravel(), db1.ravel(), dw2.ravel(), db2.ravel(), dw3.ravel(), db3.ravel()]
    )


CACHE_FIELDS = ("cols1", "pre1", "act1", "cols2", "pre2", "act2")


def odd_case(in_channels, num_classes, height, width, seed):
    """Parameters with nonzero biases and a random image of an odd shape."""
    rng = np.random.default_rng(seed)
    arch = Architecture(in_channels=in_channels, hidden=5, num_classes=num_classes)
    params = init_params(arch, seed=seed)
    # nonzero biases, so some ReLUs sit exactly at zero and some are cut
    flat = params.flat + rng.normal(scale=0.2, size=params.flat.shape)
    params = ModelParams(arch=arch, flat=flat, seed=seed)
    image = ImageTensor.from_planes(
        rng.uniform(-1, 1, size=(in_channels, height, width))
    )
    return params, image, rng


ODD_SHAPES = [
    (1, 2, 7, 5),
    (3, 2, 5, 9),
    (1, 3, 9, 7),
    (3, 3, 1, 7),
    (1, 9, 11, 3),
    (3, 9, 7, 1),
]


def gradient_layouts(g):
    """One (N, C) logit gradient in the layouts backward may be given."""
    wide = np.zeros((g.shape[0], 2 * g.shape[1]))
    wide[:, ::2] = g
    return {
        "row-major": np.ascontiguousarray(g),
        "fortran": np.asfortranarray(g),
        "class-major view": np.ascontiguousarray(g.T).T,
        "strided columns": wide[:, ::2],
    }


@pytest.mark.parametrize(
    "in_channels,num_classes,height,width", ODD_SHAPES + [(1, 2, 64, 64)]
)
def test_forward_backward_bitwise_equal_to_reference_kernels(
    in_channels, num_classes, height, width
):
    params, image, rng = odd_case(in_channels, num_classes, height, width, seed=3)
    logits, cache = forward(params, image)
    want_logits, acts = ref_forward(params, image)
    assert np.array_equal(logits, want_logits)
    for name in CACHE_FIELDS:
        assert np.array_equal(getattr(cache, name), acts[name]), name
    g = rng.normal(size=logits.shape)
    # +0.0 on the pixels outside a loss's set, as masked CE leaves them,
    # and one class plane all -0.0: the reference's strided b3 sum starts
    # from +0.0, where a plain cumsum would keep the -0.0
    zeros = g.copy()
    zeros[rng.random(height * width) < 0.4] = 0.0
    zeros[:, -1] = -0.0
    for grad_logits in (g, zeros):
        # the reference is the row-major gradient's: BLAS sums w3's
        # gradient in another order when handed a class-major operand
        want = ref_backward(params, acts, grad_logits).view(np.uint64)
        for name, layout in gradient_layouts(grad_logits).items():
            got = backward(params, cache, layout)
            assert np.array_equal(got.view(np.uint64), want), name


@pytest.mark.parametrize("num_classes", [2, 3, 7, 8, 9, 16])
def test_softmax_bitwise_equal_to_axis_max(num_classes):
    rng = np.random.default_rng(num_classes)
    logits = rng.normal(scale=30.0, size=(77, num_classes))
    logits[::5, -1] = logits[::5, 0]  # ties for the row max
    logits[3] = 0.0
    logits[4, 0] = -0.0
    # the reference sums row-major rows, pairwise from 8 classes on
    want = ref_softmax(logits).view(np.uint64)
    for layout in (logits, np.asfortranarray(logits)):
        got = np.ascontiguousarray(softmax(layout))
        assert np.array_equal(got.view(np.uint64), want)


@pytest.mark.parametrize("in_channels,num_classes,height,width", ODD_SHAPES[:3])
def test_forward_into_reused_cache_equals_fresh_forward(
    in_channels, num_classes, height, width
):
    params, image, rng = odd_case(in_channels, num_classes, height, width, seed=8)
    other = ImageTensor.from_planes(
        rng.uniform(-1, 1, size=(in_channels, height, width))
    )
    _, cache = forward(params, other)
    logits, reused = forward(params, image, cache)
    assert reused is cache
    fresh_logits, fresh = forward(params, image)
    assert fresh is not cache
    assert np.array_equal(logits, fresh_logits)
    for name in CACHE_FIELDS:
        assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name


# (height, width): one cell; one row (both zero ends read); one column
# (the zeroed column 0 of dx = 0 and column W-1 of dx = 2 coincide); 2x2;
# an odd non-square grid; the benchmark's two grids
IM2COL_GRIDS = [(1, 1), (1, 9), (9, 1), (2, 2), (33, 65), (32, 32), (64, 64)]


def zero_ended_input(rng, channels, height, width):
    """A zero-ended buffer holding a random grid with +0.0 and -0.0 cells."""
    x = rng.uniform(-1, 1, size=(channels, height, width))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    buf = _zero_ended(channels, height, width)
    _interior(buf, height, width)[...] = x
    return buf, x


@pytest.mark.parametrize("channels", [1, 8])
@pytest.mark.parametrize("height,width", IM2COL_GRIDS)
def test_im2col3_bitwise_equal_to_reference(channels, height, width):
    rng = np.random.default_rng(height * 100 + width + channels)
    buf, x = zero_ended_input(rng, channels, height, width)
    cols = np.full((channels, 3, 3, height, width), np.nan)  # every cell is rewritten
    _im2col3(_tap_view(buf, width), cols)
    assert np.array_equal(cols.view(np.uint64), ref_im2col3(x).view(np.uint64))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("height,width", IM2COL_GRIDS[:5])
def test_tap_view_spans_its_buffer(channels, height, width):
    buf = _zero_ended(channels, height, width)
    view = _tap_view(buf, width)
    assert view.shape == (channels, 3, 3, height * width)
    assert not view.flags.writeable
    address = lambda a: a.__array_interface__["data"][0]
    # tap (dy, dx) of pixel p reads cell p + dy*W + dx
    assert address(view[0, 0, 0, :1]) == address(buf[0, :1])
    assert address(view[-1, 2, 2, -1:]) == address(buf[-1, -1:])
    assert address(view[-1, 1, 1, :1]) == address(_interior(buf, height, width)[-1])
    ends = np.concatenate([buf[:, : width + 1], buf[:, -(width + 1) :]], axis=1)
    assert ends.shape == (channels, 2 * width + 2)
    assert not ends.view(np.uint64).any()  # +0.0, not -0.0


def test_forward_keeps_the_zero_ends():
    params, image, rng = odd_case(3, 2, 7, 5, seed=9)
    _, cache = forward(params, image)
    other = ImageTensor.from_planes(-rng.uniform(0.5, 2, size=(3, 7, 5)))
    forward(params, other, cache)
    for buf in (cache.x1, cache.x2):
        for end in (buf[:, :6], buf[:, -6:]):  # W + 1 cells each
            assert not end.view(np.uint64).any()  # +0.0, not -0.0
    assert np.shares_memory(cache.act1, cache.x2)


@pytest.mark.parametrize("in_channels,num_classes,height,width", ODD_SHAPES)
def test_forward_into_a_cache_full_of_garbage(in_channels, num_classes, height, width):
    params, image, rng = odd_case(in_channels, num_classes, height, width, seed=12)
    _, cache = forward(params, image)
    # finite garbage of the opposite sign pattern in every buffer but
    # the zero ends, as a previous image of another sign could leave it
    _interior(cache.x1, height, width)[...] = -image.planes() - 3.0
    for name in CACHE_FIELDS:
        buf = getattr(cache, name)
        buf[...] = -np.sign(buf) * rng.uniform(1, 1e3, size=buf.shape)
    logits, reused = forward(params, image, cache)
    assert reused is cache
    want_logits, acts = ref_forward(params, image)
    assert np.array_equal(logits, want_logits)
    for name in CACHE_FIELDS:
        assert np.array_equal(getattr(cache, name).view(np.uint64),
                              acts[name].view(np.uint64)), name


def test_forward_replaces_a_cache_that_does_not_fit():
    params, image, _ = odd_case(1, 2, 7, 5, seed=4)
    _, cache = forward(params, ImageTensor.from_planes(np.ones((1, 5, 7))))
    logits, used = forward(params, image, cache)
    assert used is not cache and (used.height, used.width) == (7, 5)
    assert np.array_equal(logits, ref_forward(params, image)[0])
    wider = Architecture(hidden=6)
    _, foreign = forward(init_params(wider, seed=1), image)
    assert forward(params, image, foreign)[1] is not foreign


def test_backward_only_reads_its_cache():
    params, image, rng = odd_case(3, 3, 9, 7, seed=6)
    logits, cache = forward(params, image)
    before = {name: getattr(cache, name).copy() for name in CACHE_FIELDS}
    g = rng.normal(size=logits.shape)
    first = backward(params, cache, g)
    kept = first.copy()
    # another cache, then the first one again with a different gradient
    # in between, so its scratch holds a stale backward pass
    _, other = forward(params, ImageTensor.from_planes(rng.uniform(size=(3, 9, 7))))
    backward(params, other, g)
    backward(params, cache, rng.normal(size=logits.shape))
    second = backward(params, cache, g)
    assert np.array_equal(first, kept)  # an earlier gradient is never overwritten
    assert np.array_equal(second, first)
    for name in CACHE_FIELDS:
        assert np.array_equal(getattr(cache, name), before[name]), name


def test_forward_returns_class_major_logits():
    params, image, _ = odd_case(1, 3, 7, 5, seed=13)
    logits, _ = forward(params, image)
    assert logits.shape == (35, 3)
    assert logits.T.flags.c_contiguous
    probs = predict_probs(params, image).probs
    assert probs.T.flags.c_contiguous


def test_inference_caches_hold_no_backward_scratch(monkeypatch):
    from ambiseg import training

    allocated = []
    original = ForwardCache.allocate.__func__

    def recording(cls, arch, height, width, inference=False):
        cache = original(cls, arch, height, width, inference)
        allocated.append(cache)
        return cache

    monkeypatch.setattr(ForwardCache, "allocate", classmethod(recording))
    nets = [init_params(Architecture(), seed=s) for s in (1, 2)]
    # (height, width, rows of layer 2's tile): at 64x64 cols2 is a 16-row tile
    for height, width, rows in [(9, 7, 9), (64, 64, 16)]:
        allocated.clear()
        image = ImageTensor.from_planes(np.random.default_rng(3).random((1, height, width)))
        predict_probs(nets[0], image)
        training.fused_prediction(nets, image)
        # one cache per call of predict_probs and of fused_prediction, shared
        # by its networks
        assert len(allocated) == 1 + 1
        for cache in allocated:
            assert all(a is None for a in (cache.d2, cache.d1, cache.tap))
            assert cache.inference and cache.cols2.shape == (8, 3, 3, rows, width)


# grids whose inference caches tile layer 2, with their tile rows
TILED_GRIDS = [(64, 64, 16), (128, 128, 8), (64, 128, 8), (96, 64, 16), (16, 256, 4),
               (48, 48, 16)]


@pytest.mark.parametrize("height,width,rows", TILED_GRIDS)
@pytest.mark.parametrize("hidden", [5, 8, 16])
@pytest.mark.parametrize("in_channels", [1, 3])
def test_tiled_forward_bitwise_equal_to_whole_columns(in_channels, hidden, height, width, rows):
    # the bits hold at one BLAS thread, at which `train` and `eval` forward:
    # at two, some DGEMM kernels (Haswell, Zen, Nehalem) sum a tile's GEMM
    # in another order than the whole columns'
    rng = np.random.default_rng(height * 1000 + width + hidden * 10 + in_channels)
    arch = Architecture(in_channels=in_channels, hidden=hidden, num_classes=3)
    flat = init_params(arch, seed=hidden).flat + rng.normal(scale=0.2, size=param_count(arch))
    params = ModelParams(arch=arch, flat=flat, seed=hidden)
    tiled = ForwardCache.allocate(arch, height, width, inference=True)
    assert tiled.cols2.shape == (hidden, 3, 3, rows, width)
    want_logits, acts = ref_forward(params, ImageTensor.from_planes(
        rng.uniform(-1, 1, size=(in_channels, height, width))))
    for _ in range(2):  # the second forward finds the first one's buffers
        image = ImageTensor.from_planes(rng.uniform(-1, 1, size=(in_channels, height, width)))
        tiled.cols2.fill(np.nan)  # every cell of a tile is rewritten
        with _one_blas_thread():
            logits, used = forward(params, image, tiled)
            whole_logits, whole = forward(params, image)
            want_logits, acts = ref_forward(params, image)
        assert used is tiled
        for got, want in ((logits, whole_logits), (logits, want_logits)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for name in ("pre2", "act2"):
            got = getattr(tiled, name).view(np.uint64)
            assert np.array_equal(got, getattr(whole, name).view(np.uint64)), name
            assert np.array_equal(got, acts[name].view(np.uint64)), name
        # the tile holds the last rows' columns
        assert np.array_equal(tiled.cols2, whole.cols2[:, :, :, -rows:])


@pytest.mark.parametrize("height,width,rows", TILED_GRIDS + [
    (32, 32, 32), (33, 65, 33), (64, 63, 64), (7, 5, 7), (2, 1100, 2),
])
def test_tile_rule(height, width, rows):
    # the largest divisor of H whose tile is at most 1024 pixels and a
    # multiple of 64; the whole grid when there is none
    assert _tile_rows(height, width) == rows
    cache = ForwardCache.allocate(Architecture(), height, width, inference=True)
    assert cache.cols2.shape[3] == rows
    assert ForwardCache.allocate(Architecture(), height, width).cols2.shape[3] == height


def test_backward_refuses_an_inference_cache():
    params, _, rng = odd_case(1, 2, 7, 5, seed=15)
    image = ImageTensor.from_planes(rng.uniform(-1, 1, size=(1, 64, 64)))
    logits, cache = forward(params, image, ForwardCache.allocate(params.arch, 64, 64, True))
    with pytest.raises(ValueError, match="an inference cache"):
        backward(params, cache, np.zeros(logits.shape))
    # a cache that does not fit is replaced by a training cache
    small = ImageTensor.from_planes(rng.uniform(-1, 1, size=(1, 48, 48)))
    _, refit = forward(params, small, cache)
    assert refit is not cache and not refit.inference and refit.cols2.shape[3] == 48
    assert refit.tap is not None


def test_backward_refuses_an_untiled_inference_cache():
    # at 32x32 an inference cache's one tile is the whole grid, so only
    # its kind tells it from a training cache
    params, _, rng = odd_case(1, 2, 7, 5, seed=16)
    image = ImageTensor.from_planes(rng.uniform(-1, 1, size=(1, 32, 32)))
    cache = ForwardCache.allocate(params.arch, 32, 32, inference=True)
    assert cache.cols2.shape[3] == 32
    logits, used = forward(params, image, cache)
    assert used is cache
    with pytest.raises(ValueError, match="an inference cache"):
        backward(params, cache, np.zeros(logits.shape))
    assert all(a is None for a in (cache.d2, cache.d1, cache.tap))


def test_training_cache_holds_its_scratch_from_allocation_and_backward_reuses_it():
    params, image, rng = odd_case(3, 3, 9, 7, seed=14)
    logits, cache = forward(params, image)
    scratch = (cache.d2, cache.d1, cache.tap)
    assert all(isinstance(a, np.ndarray) and a.shape == (5, 9, 7) for a in scratch)
    assert len({id(a) for a in scratch}) == 3
    for _ in range(2):
        forward(params, image, cache)
        backward(params, cache, rng.normal(size=logits.shape))
        assert all(
            now is before for now, before in zip((cache.d2, cache.d1, cache.tap), scratch)
        )


def relu_masked_gout(rng, channels, height, width):
    """An output gradient after a ReLU mask: +0.0 where a positive gradient
    was cut, -0.0 where a negative one was."""
    g = rng.normal(size=(channels, height, width))
    return g * (rng.normal(size=g.shape) > 0.0)


# (in_channels, out_channels, height, width): 1xN, Nx1, 2x2, 1x1, odd
# non-square grids, in != out, one input channel on one row (where the
# gradient is shorter than a tap's shift), 16 or more out channels, where
# BLAS sums a column differently when the GEMM's column count changes, and
# the benchmark's two grids
INPUT_GRAD_CASES = [
    (8, 8, 1, 9),
    (1, 4, 1, 9),
    (8, 8, 9, 1),
    (8, 8, 2, 2),
    (8, 8, 1, 1),
    (5, 5, 7, 11),
    (3, 8, 11, 6),
    (8, 3, 5, 9),
    (8, 16, 2, 2),
    (16, 16, 3, 5),
    (4, 20, 12, 11),
    (8, 8, 32, 32),
    (8, 8, 64, 64),
    (16, 16, 33, 65),
]


@pytest.mark.parametrize("cin,cout,height,width", INPUT_GRAD_CASES)
def test_conv3_input_grad_bitwise_equal_to_reference(cin, cout, height, width):
    rng = np.random.default_rng(cin * 1000 + cout * 100 + height * 10 + width)
    w = rng.normal(size=(cout, cin, 3, 3))
    # the scratch of two grids in turn: the second call at each shape
    # finds its scratch holding the first call's values
    other = (height + 1, width + 2)
    scratch = {shape: np.empty((cin, *shape)) for shape in ((height, width), other)}
    for shape in ((height, width), other, (height, width), other):
        gout = relu_masked_gout(rng, cout, *shape)
        assert np.any(np.signbit(gout) & (gout == 0.0))
        out = np.full((cin, *shape), np.nan)
        _conv3_input_grad(w, gout, out, scratch[shape])
        want = ref_conv3_input_grad(w, gout)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64)), shape


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


def test_gradient_check_detects_corruption(monkeypatch):
    from ambiseg import model

    original = model.backward
    monkeypatch.setattr(model, "backward", lambda *args: original(*args) + 1e-2)
    report = gradient_check_report(seed=0, instances=2, size=8)
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
    path.write_bytes(good.read_bytes()[:-8] + np.float64(np.nan).tobytes())
    with pytest.raises(ValueError, match="bad.msen: parameters must be finite"):
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
