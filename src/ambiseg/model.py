"""Small fully-convolutional pixel classifier with analytic gradients.

Architecture (fixed): conv 3x3 (in -> hidden) + ReLU, conv 3x3
(hidden -> hidden) + ReLU, conv 1x1 (hidden -> num_classes), all zero
padded so the logit grid matches the input grid. Forward/backward are
hand written over numpy so the gradient is exact and checkable against
finite differences. The Adam optimizer lives here too; the learning-rate
schedule does not (callers set lr per step).

Buffers: forward writes its activations into a ForwardCache, the one it
is given when that fits the architecture and image shape, else a new one.
A cache is overwritten by the next forward that receives it. backward
only reads its activations, so a cache can be backpropagated any number
of times; it works in the cache's gradient scratch, which the first
backward on that cache allocates and every later one overwrites. A cache
that only serves inference (predict_probs, the eval path) never holds
scratch. Logits and gradients are always new arrays. Who owns the caches
decides how long they live: a training run keeps one cache per network,
and they die with the run.

Layout: the output head is class-major. forward returns its (N, C)
logits as the transpose of a contiguous (C, N) array, one plane per
class, and softmax, masked_cross_entropy, argmax_mask and average_fuse
work on those planes. backward accepts a logit gradient in any layout.

The convolutions are im2col GEMMs (np.dot on reshaped views, written
into the caller's buffers), with the same operands and memory layouts as
the np.pad + np.tensordot kernels they replace, so results are bitwise
unchanged.

The input gradient of layer 2 adds each tap's product into a flat
accumulator: the input grid with one zero row above and below, row after
row with rows of W, plus one cell at each end. Output pixel (y, x) of tap
(dy, dx) read input (y + dy - 1, x + dx - 1), which sits at
(dy * W + dx) + (y * W + x) in the accumulator, so the product of each
of the nine per-tap GEMMs lands with one contiguous add. The GEMMs are
those of nine strided adds into a zero-padded grid, called in the same
(dy, dx) order. The products of the first output column under dx = 0 and
of the last under dx = 2 read no input and would wrap onto a neighbouring
row, so they are set to +0.0 first. Adding +0.0 leaves every sum unchanged, since the
sums start at +0.0 and so are never -0.0: the result is bitwise that of
the strided adds.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .losses import ProbMap, softmax
from .masks import ShapeError

CHECKPOINT_MAGIC = b"MSEN"
CHECKPOINT_VERSION = 1
# magic, then version, in_channels, hidden, num_classes (u32) and seed (u64)
CHECKPOINT_HEADER_BYTES = 4 + struct.calcsize("<IIIIQ")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8

# central-difference step of gradient_check_report
GRAD_CHECK_STEP = 1e-5


@dataclass
class ImageTensor:
    """Multi-channel image; values flat in (channel, row, column) order."""

    width: int
    height: int
    channels: int
    values: np.ndarray

    def __post_init__(self):
        if min(self.width, self.height, self.channels) < 1:
            raise ValueError(
                f"image width, height and channels must be positive, got "
                f"{self.width}x{self.height}x{self.channels}"
            )
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        n = self.width * self.height * self.channels
        if self.values.shape[0] != n:
            raise ShapeError(f"values length {self.values.shape[0]} != {n}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("image values must be finite")

    def planes(self) -> np.ndarray:
        """Values as (channels, height, width)."""
        return self.values.reshape(self.channels, self.height, self.width)

    @classmethod
    def from_planes(cls, planes: np.ndarray) -> "ImageTensor":
        planes = np.asarray(planes, dtype=np.float64)
        c, h, w = planes.shape
        return cls(width=w, height=h, channels=c, values=planes.ravel())


@dataclass(frozen=True)
class Architecture:
    in_channels: int = 1
    hidden: int = 8
    num_classes: int = 2

    def __post_init__(self):
        if self.in_channels < 1 or self.hidden < 1 or self.num_classes < 2:
            raise ValueError(f"invalid architecture {self}")


def _layer_shapes(arch: Architecture) -> list[tuple[str, tuple[int, ...]]]:
    return [
        ("w1", (arch.hidden, arch.in_channels, 3, 3)),
        ("b1", (arch.hidden,)),
        ("w2", (arch.hidden, arch.hidden, 3, 3)),
        ("b2", (arch.hidden,)),
        ("w3", (arch.num_classes, arch.hidden, 1, 1)),
        ("b3", (arch.num_classes,)),
    ]


@functools.lru_cache(maxsize=None)
def _layout(arch: Architecture) -> tuple[tuple[str, tuple[int, ...], slice], ...]:
    """(name, shape, flat slice) of each layer; immutable, computed once per arch."""
    out = []
    offset = 0
    for name, shape in _layer_shapes(arch):
        size = int(np.prod(shape))
        out.append((name, shape, slice(offset, offset + size)))
        offset += size
    return tuple(out)


def _unpack(arch: Architecture, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each named layer of a flat vector, as a view of its shape."""
    return {name: flat[sl].reshape(shape) for name, shape, sl in _layout(arch)}


def param_count(arch: Architecture) -> int:
    return _layout(arch)[-1][2].stop


def layer_slices(arch: Architecture) -> dict[str, slice]:
    """Position of each named layer inside the flat parameter vector."""
    return {name: sl for name, _, sl in _layout(arch)}


@dataclass
class ModelParams:
    """Flat parameter vector plus the seed that initialized it."""

    arch: Architecture
    flat: np.ndarray
    seed: int

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64).ravel()
        expect = param_count(self.arch)
        if self.flat.shape[0] != expect:
            raise ShapeError(
                f"parameter count {self.flat.shape[0]} != architecture's {expect}"
            )
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("parameters must be finite")

    def unpack(self) -> dict[str, np.ndarray]:
        return _unpack(self.arch, self.flat)


def init_params(arch: Architecture, seed: int) -> ModelParams:
    """Weights U(-b, b) with b = sqrt(1/fan_in); biases start at zero.

    Zero biases keep the initial per-pixel argmax driven by the image
    content instead of a constant channel offset, so differently seeded
    networks start with genuinely different prediction masks.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    for name, shape in _layer_shapes(arch):
        size = int(np.prod(shape))
        if name.startswith("w"):
            bound = np.sqrt(1.0 / int(np.prod(shape[1:])))
            chunks.append(rng.uniform(-bound, bound, size=size))
        else:
            chunks.append(np.zeros(size))
    return ModelParams(arch=arch, flat=np.concatenate(chunks), seed=seed)


@dataclass
class ForwardCache:
    """Activations saved by forward for exact backprop, plus backward's
    gradient scratch.

    A cache is a set of buffers sized for one architecture and image
    shape. forward overwrites every activation buffer of a cache it is
    given, so a cache describes only the latest forward that received it.
    The im2col buffers (cols1, cols2) keep the zero borders written when
    the cache was created: forward writes only the in-image part of each
    tap.

    backward only reads the activations and overwrites the scratch:
    - d2, d1: the gradients at layer 2's and layer 1's pre-activations,
      (hidden, H, W) each;
    - tap: one tap's product in layer 2's input gradient, (hidden, H, W);
    - acc: the flat accumulator of that input gradient (see the module
      docstring), (hidden, (H + 2) * W + 2).

    The scratch is None until the first backward on the cache allocates
    it (scratch()); later backwards reuse it, so a training run's caches
    stop allocating after their first backward. Inference never
    backpropagates, so its caches hold activations only: 3.7 MB at 64x64
    with hidden 8, against 4.8 MB with the scratch. The eval path
    allocates a cache per call and frees it afterwards. Measured after a
    training run in one process (the benchmark's `ensemble-k2` eval unit,
    two networks, 64x64), that cost about 1 020 minor page faults per test
    image when allocate also made the scratch, and 27 without it.
    """

    arch: Architecture
    width: int
    height: int
    cols1: np.ndarray
    pre1: np.ndarray
    act1: np.ndarray
    cols2: np.ndarray
    pre2: np.ndarray
    act2: np.ndarray
    d2: Optional[np.ndarray] = None
    d1: Optional[np.ndarray] = None
    tap: Optional[np.ndarray] = None
    acc: Optional[np.ndarray] = None

    @classmethod
    def allocate(cls, arch: Architecture, height: int, width: int) -> "ForwardCache":
        """Activation buffers for one forward; no backward scratch."""
        act = (arch.hidden, height, width)
        return cls(
            arch=arch,
            width=width,
            height=height,
            cols1=_zero_bordered_cols(arch.in_channels, height, width),
            pre1=np.empty(act),
            act1=np.empty(act),
            cols2=_zero_bordered_cols(arch.hidden, height, width),
            pre2=np.empty(act),
            act2=np.empty(act),
        )

    def scratch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """backward's (d2, d1, tap, acc), allocated by the first call."""
        if self.acc is None:
            act = (self.arch.hidden, self.height, self.width)
            self.d2 = np.empty(act)
            self.d1 = np.empty(act)
            self.tap = np.empty(act)
            self.acc = np.empty((self.arch.hidden, (self.height + 2) * self.width + 2))
        return self.d2, self.d1, self.tap, self.acc


def _zero_bordered_cols(channels: int, height: int, width: int) -> np.ndarray:
    """Uninitialized (C, 3, 3, H, W) im2col columns whose out-of-image
    entries, the ones _im2col3 never writes, are zero."""
    cols = np.empty((channels, 3, 3, height, width))
    cols[:, 0, :, 0, :] = 0.0  # dy = 0 reads above row 0
    cols[:, 2, :, height - 1, :] = 0.0  # dy = 2 reads below the last row
    cols[:, :, 0, :, 0] = 0.0  # dx = 0 reads left of column 0
    cols[:, :, 2, :, width - 1] = 0.0  # dx = 2 reads right of the last column
    return cols


def _taps(n: int) -> tuple[tuple[slice, slice], ...]:
    """(output, input) slices along one axis of length n for the three 3x3
    tap offsets of a SAME convolution: output index i reads input i + d - 1
    when that lies inside [0, n), and sees zero padding otherwise."""
    return (
        (slice(1, n), slice(0, n - 1)),
        (slice(0, n), slice(0, n)),
        (slice(0, n - 1), slice(1, n)),
    )


def _im2col3(x: np.ndarray, cols: np.ndarray) -> None:
    """Write the nine 3x3 taps of zero-padded (C, H, W) x into cols,
    shape (C, 3, 3, H, W), whose out-of-image border is already zero."""
    _, h, w = x.shape
    for dy, (rows_out, rows_in) in enumerate(_taps(h)):
        for dx, (cols_out, cols_in) in enumerate(_taps(w)):
            cols[:, dy, dx, rows_out, cols_out] = x[:, rows_in, cols_in]


def _conv3_from_cols(
    cols: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    """3x3 SAME convolution of im2col columns into out, shape (O, H, W)."""
    np.dot(
        w.reshape(w.shape[0], -1),
        cols.reshape(-1, out.shape[1] * out.shape[2]),
        out=out.reshape(out.shape[0], -1),
    )
    out += b[:, None, None]


def forward(
    params: ModelParams, image: ImageTensor, cache: Optional[ForwardCache] = None
) -> tuple[np.ndarray, ForwardCache]:
    """Logits for every pixel, shape (width*height, num_classes).

    The logits are always a new array, the transpose of a contiguous
    (num_classes, width*height) one: each class's logits are one
    contiguous plane. The activations go into `cache` when it fits this
    architecture and image shape, overwriting what it held, and into a
    new cache otherwise; the cache used is returned.
    """
    arch = params.arch
    if image.channels != arch.in_channels:
        raise ShapeError(
            f"image has {image.channels} channels, model expects {arch.in_channels}"
        )
    shape = (image.height, image.width)
    if cache is None or (cache.arch, cache.height, cache.width) != (arch, *shape):
        cache = ForwardCache.allocate(arch, *shape)
    p = params.unpack()
    _im2col3(image.planes(), cache.cols1)
    _conv3_from_cols(cache.cols1, p["w1"], p["b1"], cache.pre1)
    np.maximum(cache.pre1, 0.0, out=cache.act1)
    _im2col3(cache.act1, cache.cols2)
    _conv3_from_cols(cache.cols2, p["w2"], p["b2"], cache.pre2)
    np.maximum(cache.pre2, 0.0, out=cache.act2)
    logits_cn = np.dot(p["w3"][:, :, 0, 0], cache.act2.reshape(arch.hidden, -1))
    logits_cn += p["b3"][:, None]
    return logits_cn.T, cache


def _conv3_param_grads(
    cols: np.ndarray, gout: np.ndarray, dw: np.ndarray, db: np.ndarray
) -> None:
    """Weight and bias gradients of a 3x3 SAME convolution into dw and db."""
    gout_2d = gout.reshape(gout.shape[0], -1)
    cols_2d = cols.reshape(-1, gout_2d.shape[1])
    np.dot(gout_2d, cols_2d.T, out=dw.reshape(dw.shape[0], -1))
    db[:] = gout.sum(axis=(1, 2))


def _conv3_input_grad(
    w: np.ndarray, gout: np.ndarray, out: np.ndarray, tap: np.ndarray, acc: np.ndarray
) -> None:
    """Input gradient of a 3x3 SAME convolution into out, shape (C, H, W).

    tap (C, H, W) and acc (C, (H + 2) * W + 2) are scratch. Each tap's
    product lands on the input pixels it read with one contiguous add, in
    (dy, dx) order starting from +0.0 (see the module docstring).
    """
    _, h, width = gout.shape
    n = h * width
    gout_2d = gout.reshape(gout.shape[0], -1)
    tap_2d = tap.reshape(tap.shape[0], -1)
    # per dx, the output column whose products read no input and would
    # wrap onto a neighbouring row
    wrapping = (0, None, width - 1)
    acc.fill(0.0)
    for dy in range(3):
        for dx in range(3):
            np.dot(w[:, :, dy, dx].T, gout_2d, out=tap_2d)
            if wrapping[dx] is not None:
                tap[:, :, wrapping[dx]] = 0.0
            offset = dy * width + dx
            acc[:, offset : offset + n] += tap_2d
    # a contiguous copy: the masking and GEMM that follow run faster on it
    # than on the strided interior of acc
    out.reshape(out.shape[0], -1)[...] = acc[:, width + 1 : width + 1 + n]


def backward(
    params: ModelParams, cache: ForwardCache, grad_logits: np.ndarray
) -> np.ndarray:
    """Flat parameter gradient for the loss whose logit gradient is given.

    grad_logits is (width*height, num_classes) in any memory layout. The
    cache's activations are only read, so one forward can be
    backpropagated any number of times; intermediate gradients go into
    the cache's scratch. The returned gradient is always a new array.
    """
    arch = params.arch
    if cache.arch != arch:
        raise ValueError("cache was produced by a different architecture")
    n = cache.width * cache.height
    if grad_logits.shape != (n, arch.num_classes):
        raise ShapeError(
            f"grad_logits shape {grad_logits.shape} != ({n}, {arch.num_classes})"
        )
    d2, d1, tap, acc = cache.scratch()
    p = params.unpack()
    grad = np.empty(param_count(arch))
    g = _unpack(arch, grad)
    # the GEMMs take the transpose of row-major rows: with a contiguous
    # class-major operand OpenBLAS sums w3's gradient in another order
    g_cn = np.ascontiguousarray(grad_logits).T

    np.dot(g_cn, cache.act2.reshape(arch.hidden, -1).T, out=g["w3"][:, :, 0, 0])
    # each class plane summed in pixel order, as numpy's strided sum over
    # the (C, H, W) view did; that sum starts from +0.0, which only an
    # all -0.0 plane can tell apart from a cumsum
    g["b3"][:] = np.cumsum(grad_logits.T, axis=1)[:, -1] + 0.0
    np.dot(p["w3"][:, :, 0, 0].T, g_cn, out=d2.reshape(arch.hidden, -1))

    d2 *= cache.pre2 > 0.0  # d_act2 -> d_pre2
    _conv3_param_grads(cache.cols2, d2, g["w2"], g["b2"])
    _conv3_input_grad(p["w2"], d2, d1, tap, acc)

    # the image is not a parameter, so layer 1's input gradient is never formed
    d1 *= cache.pre1 > 0.0  # d_act1 -> d_pre1
    _conv3_param_grads(cache.cols1, d1, g["w1"], g["b1"])
    return grad


def predict_probs(params: ModelParams, image: ImageTensor) -> ProbMap:
    """Forward pass plus per-pixel softmax."""
    logits, _ = forward(params, image)
    return ProbMap(
        width=image.width,
        height=image.height,
        num_classes=params.arch.num_classes,
        probs=softmax(logits),
    )


@dataclass
class OptState:
    """Adam accumulators; lr is set by the caller before each step."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.m.shape != self.v.shape:
            raise ShapeError("moment vectors must share a shape")
        if self.step < 0:
            raise ValueError("step counter must be >= 0")


def init_opt_state(params: ModelParams, lr: float) -> OptState:
    n = params.flat.shape[0]
    return OptState(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr)


def adam_step(
    params: ModelParams, opt: OptState, grads: np.ndarray
) -> tuple[ModelParams, OptState]:
    """One bias-corrected Adam update; inputs are left untouched."""
    grads = np.asarray(grads, dtype=np.float64).ravel()
    if grads.shape != params.flat.shape:
        raise ShapeError(
            f"gradient shape {grads.shape} != parameter shape {params.flat.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient")
    t = opt.step + 1
    m = ADAM_BETA1 * opt.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * opt.v + (1.0 - ADAM_BETA2) * grads**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_flat = params.flat - opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    new_params = ModelParams(arch=params.arch, flat=new_flat, seed=params.seed)
    return new_params, OptState(m=m, v=v, step=t, lr=opt.lr)


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Little-endian binary: magic, version, architecture, seed, f64 params."""
    arch = params.arch
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIIIQ",
        CHECKPOINT_VERSION,
        arch.in_channels,
        arch.hidden,
        arch.num_classes,
        params.seed,
    )
    body = params.flat.astype("<f8").tobytes()
    with open(path, "wb") as f:
        f.write(header + body)


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < CHECKPOINT_HEADER_BYTES:
        raise ValueError(
            f"{path}: truncated checkpoint header ({len(blob)} of "
            f"{CHECKPOINT_HEADER_BYTES} bytes)"
        )
    version, in_ch, hidden, num_classes, seed = struct.unpack(
        "<IIIIQ", blob[4:CHECKPOINT_HEADER_BYTES]
    )
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        arch = Architecture(in_channels=in_ch, hidden=hidden, num_classes=num_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    body = blob[CHECKPOINT_HEADER_BYTES:]
    expect = param_count(arch)
    if len(body) != 8 * expect:
        raise ValueError(
            f"{path}: parameter vector has {len(body)} bytes, expected {8 * expect}"
        )
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    try:
        return ModelParams(arch=arch, flat=flat, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def gradient_check_report(
    seed: int = 0,
    instances: int = 20,
    size: int = 8,
    corrupt: bool = False,
) -> dict:
    """Compare analytic parameter gradients with central finite differences.

    Random full-grid masked-CE instances are screened so no ReLU
    pre-activation sits within 1e-4 of its kink. A parameter bump of
    GRAD_CHECK_STEP moves any pre-activation by at most ~1.1x that step,
    so no finite-difference evaluation ever crosses a kink and the loss
    is smooth over the probed interval. Returns per-layer and
    overall max relative error; `corrupt` perturbs the analytic gradient
    to prove the check can fail.
    """
    from .losses import masked_cross_entropy
    from .masks import full_grid_labels, LabelMask

    arch = Architecture()
    rng = np.random.default_rng(seed)
    slices = layer_slices(arch)
    per_layer = {name: 0.0 for name in slices}
    checked = 0
    attempts = 0
    while checked < instances:
        attempts += 1
        if attempts > instances * 50:
            raise RuntimeError("could not find enough kink-free instances")
        params = init_params(arch, seed=int(rng.integers(2**31)))
        image = ImageTensor.from_planes(
            rng.uniform(0.0, 1.0, size=(arch.in_channels, size, size))
        )
        logits, cache = forward(params, image)
        if min(np.abs(cache.pre1).min(), np.abs(cache.pre2).min()) < 1e-4:
            continue
        labels = rng.integers(0, arch.num_classes, size=size * size)
        mask = LabelMask(
            width=size, height=size, num_classes=arch.num_classes, labels=labels
        )
        targets = full_grid_labels(mask)

        probs = ProbMap(
            width=size,
            height=size,
            num_classes=arch.num_classes,
            probs=softmax(logits),
        )
        _, grad_logits = masked_cross_entropy(probs, targets)
        analytic = backward(params, cache, grad_logits)
        if corrupt:
            analytic = analytic + 1e-2

        def loss_at(flat: np.ndarray) -> float:
            p = ModelParams(arch=arch, flat=flat, seed=params.seed)
            value, _ = masked_cross_entropy(predict_probs(p, image), targets)
            return value

        fd = np.empty_like(params.flat)
        for i in range(params.flat.shape[0]):
            bumped = params.flat.copy()
            bumped[i] += GRAD_CHECK_STEP
            hi = loss_at(bumped)
            bumped[i] -= 2.0 * GRAD_CHECK_STEP
            lo = loss_at(bumped)
            fd[i] = (hi - lo) / (2.0 * GRAD_CHECK_STEP)

        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
        rel = np.abs(analytic - fd) / denom
        for name, sl in slices.items():
            per_layer[name] = max(per_layer[name], float(rel[sl].max()))
        checked += 1

    overall = max(per_layer.values())
    return {
        "per_layer": per_layer,
        "max_rel_error": overall,
        "instances": checked,
        "passed": overall < 1e-4,
    }
