"""Small fully-convolutional pixel classifier with analytic gradients.

Architecture (fixed): conv 3x3 (in -> hidden) + ReLU, conv 3x3
(hidden -> hidden) + ReLU, conv 1x1 (hidden -> num_classes), all zero
padded so the logit grid matches the input grid. Forward/backward are
hand written over numpy so the gradient is exact and checkable against
finite differences. The Adam optimizer lives here too; the learning-rate
schedule does not (callers set lr per step).

Buffers: forward writes its activations into a ForwardCache, the one it
is given when that fits the architecture and image shape, else a new
training cache. A cache is overwritten by the next forward that receives
it. backward only reads its activations, so a cache can be
backpropagated any number of times. A cache is complete when it is made,
and its kind, training or inference, alone says whether backward may
read it (see ForwardCache). Logits and gradients are always new arrays.
Who owns the caches decides how long they live: each executor of a
training run (the calling process and each forked worker) keeps one
training cache per network for its training and checkpoint rows alike,
and they die with the run; each prediction of the eval path makes its
own inference cache.

Layout: the output head is class-major. forward returns its (N, C)
logits as the transpose of a contiguous (C, N) array, one plane per
class, and softmax, masked_cross_entropy, argmax_mask and average_fuse
work on those planes. backward accepts a logit gradient in any layout.

The convolutions are im2col GEMMs (np.dot on reshaped views, written
into the caller's buffers), with the same operands and memory layouts as
the np.pad + np.tensordot kernels they replace, so results are bitwise
unchanged.

Each 3x3 layer reads its input from a zero-ended buffer of shape
(C, (H+2)*W + 2): the (C, H, W) grid sits at offset W + 1, with W + 1
zero cells before it and W + 1 after it. Layer 1's input is copied there,
and layer 1's ReLU writes layer 2's input there directly. Tap (dy, dx) of
pixel p = y*W + x reads input (y + dy - 1, x + dx - 1), which is buffer
cell p + dy*W + dx. So the nine taps of every pixel form one read-only
(C, 3, 3, H*W) strided view of the buffer, and im2col is one copy from
it. A tap above the first row or below the last reads a zero end. A tap
left of column 0 or right of column W - 1 reads the last cell of the row
above or the first cell of the row below instead, so after the copy,
column 0 of every dx = 0 tap and column W - 1 of every dx = 2 tap are set
to +0.0. The columns are then bitwise those of the zero-padded grid.

Each 3x3 layer is built tile by tile: the cache's columns hold R whole
rows of the grid, and for rows r0 ... r0 + R - 1 in turn forward copies
those rows of the tap view (pixels r0*W up to (r0 + R)*W), zeroes the
wrapped cells and runs one GEMM of the tile into the output's columns
r0*W ... (r0 + R)*W - 1, a strided slice of the (O, H*W) output. A cache
whose columns hold all H rows makes one tile: layer 1 always, and layer 2
of every training cache. An inference cache tiles layer 2 so that its
columns stay inside a core's L2 cache: at 64x64 and hidden 8 a whole
cols2 is 2.36 MB and a 16-row tile 0.59 MB. R is the largest divisor of
H with R*W at most TILE_PIXELS and a multiple of TILE_ALIGN; without one
the tile is the whole grid (64x64 -> 16 rows, 128x128 -> 8, 32x32, 33x65
and 64x63 whole). The tiles are equal and aligned because
OpenBLAS sums a GEMM's edge columns in another order when its column
count changes. Over 600 random GEMMs of layer shapes (OpenBLAS 0.3.31,
x86_64, SkylakeX kernel, one thread), tiles matched the whole GEMM bit
for bit in 200 of 200 cases when equal and a multiple of 64 columns, in
55 of 200 when equal and of another width, and in 34 of 200 with a
shorter last tile. Whether the tiled layer 2 is bitwise that of whole
columns depends on OpenBLAS's DGEMM kernel, which it picks per CPU
(OPENBLAS_CORETYPE overrides the pick), and on its thread count. At one
thread it is on every kernel checked: SkylakeX, Sandybridge, Haswell
(which Zen CPUs load too) and Nehalem. At two threads Haswell and
Nehalem differ in the last bits with hidden 5 on grids of 4096 pixels or
more, and Nehalem also with hidden 8 at 48x48. `ambiseg train` and
`ambiseg eval` hold one BLAS thread (training._one_blas_thread), so
inference and checkpoint validation forward with the same bits; forward,
predict_probs and training.fused_prediction run at the caller's thread
count.

The input gradient of layer 2 accumulates in its own (C, H, W) output.
Output pixel (y, x) of tap (dy, dx) read input (y + dy - 1, x + dx - 1),
which sits s = (dy - 1) * W + (dx - 1) cells after (y, x) in the flat
gradient, so the whole product of each of the nine per-tap GEMMs lands
with one contiguous add, shifted by s and clipped to the array. The
GEMMs are those of nine strided adds into a zero-padded grid, called in
the same (dy, dx) order. The products that read no input (row 0 under
dy = 0, the last row under dy = 2, column 0 under dx = 0, the last
column under dx = 2) would land on a neighbouring row or channel, or off
either end, so they are set to +0.0 first. Adding +0.0 leaves every sum
unchanged, since the sums start at +0.0 and so are never -0.0: the
result is bitwise that of the strided adds.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .losses import ProbMap, softmax
from .masks import ShapeError, _unchecked

CHECKPOINT_MAGIC = b"MSEN"
CHECKPOINT_VERSION = 1
# magic, then version, in_channels, hidden, num_classes (u32) and seed (u64)
CHECKPOINT_HEADER_BYTES = 4 + struct.calcsize("<IIIIQ")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8

# central-difference step of gradient_check_report
GRAD_CHECK_STEP = 1e-5

# an inference cache's layer-2 tile: at most this many pixels, a multiple
# of TILE_ALIGN (see the module docstring)
TILE_PIXELS = 1024
TILE_ALIGN = 64


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
    """Activations saved by forward for exact backprop, plus, in a
    training cache, backward's gradient scratch.

    A cache is a set of buffers sized for one architecture and image
    shape. forward overwrites every activation buffer of a cache it is
    given, so a cache describes only the latest forward that received it.
    x1 and x2 are the zero-ended inputs of layers 1 and 2 (see the module
    docstring), and act1 is a view of x2's grid. Their zero ends are
    written when the cache is created, and no forward writes them; every
    other cell of every buffer is rewritten by each forward.

    A cache is complete when allocate makes it, and its kind is fixed
    then; backward reads a cache by its kind alone:
    - A training cache (inference False) holds layer 2's columns for all
      H rows in cols2, and backward's scratch, which every backward on the
      cache overwrites:
      - d2, d1: the gradients at layer 2's and layer 1's
        pre-activations, (hidden, H, W) each;
      - tap: one tap's product in layer 2's input gradient,
        (hidden, H, W), which d1 accumulates (see the module docstring).
      So a training run's caches allocate nothing after they are made.
      forward(params, image) without a cache, or with one that does not
      fit, makes a training cache.
    - An inference cache (inference True) holds activations only: its
      d2, d1 and tap are None, and its cols2 holds one tile of rows
      (_tile_rows), which forward reuses for every tile, so after a
      forward it holds the last tile only. backward refuses it, even
      where no tile fits the rule and its cols2 covers the whole grid.
      predict_probs and training._fused_row make one per predicted image,
      shared by that image's networks, and free it afterwards.

    With hidden 8 and one input channel, a training cache takes 4.53 MB
    at 64x64 and 1.14 MB at 32x32, an inference cache 1.98 MB at 64x64
    and 0.94 MB at 32x32.
    """

    arch: Architecture
    width: int
    height: int
    inference: bool
    x1: np.ndarray
    cols1: np.ndarray
    pre1: np.ndarray
    x2: np.ndarray
    act1: np.ndarray
    cols2: np.ndarray
    pre2: np.ndarray
    act2: np.ndarray
    d2: Optional[np.ndarray] = None
    d1: Optional[np.ndarray] = None
    tap: Optional[np.ndarray] = None

    @classmethod
    def allocate(
        cls, arch: Architecture, height: int, width: int, inference: bool = False
    ) -> "ForwardCache":
        """A complete cache of its kind: a training cache's activations and
        backward's scratch, or an inference cache's activations alone, its
        cols2 one tile of layer 2's rows."""
        act = (arch.hidden, height, width)
        rows = _tile_rows(height, width) if inference else height
        x2 = _zero_ended(arch.hidden, height, width)
        scratch = {} if inference else {name: np.empty(act) for name in ("d2", "d1", "tap")}
        return cls(
            arch=arch,
            width=width,
            height=height,
            inference=inference,
            x1=_zero_ended(arch.in_channels, height, width),
            cols1=np.empty((arch.in_channels, 3, 3, height, width)),
            pre1=np.empty(act),
            x2=x2,
            act1=_interior(x2, height, width),
            cols2=np.empty((arch.hidden, 3, 3, rows, width)),
            pre2=np.empty(act),
            act2=np.empty(act),
            **scratch,
        )


def _tile_rows(height: int, width: int) -> int:
    """Rows of an inference cache's layer-2 tile: the largest divisor R of
    height with R*width at most TILE_PIXELS and a multiple of TILE_ALIGN,
    else height (the whole grid)."""
    for rows in range(min(height, TILE_PIXELS // width), 0, -1):
        if height % rows == 0 and rows * width % TILE_ALIGN == 0:
            return rows
    return height


def _zero_ended(channels: int, height: int, width: int) -> np.ndarray:
    """Uninitialized (C, (H+2)*W + 2) layer input whose W + 1 cells at
    each end, the ones no forward writes, are zero; the (C, H, W) grid
    sits between them (_interior)."""
    buf = np.empty((channels, (height + 2) * width + 2))
    buf[:, : width + 1] = 0.0
    buf[:, -(width + 1) :] = 0.0
    return buf


def _interior(buf: np.ndarray, height: int, width: int) -> np.ndarray:
    """The (C, H, W) grid of a zero-ended buffer, as a view."""
    return buf[:, width + 1 : width + 1 + height * width].reshape(-1, height, width)


def _tap_view(buf: np.ndarray, width: int) -> np.ndarray:
    """Read-only (C, 3, 3, H*W) view of zero-ended buf whose [c, dy, dx, p]
    is channel c's cell p + dy*W + dx: tap (dy, dx) of pixel p. Its last
    element is the buffer's last cell."""
    channels, cells = buf.shape
    item = buf.itemsize
    view = np.ndarray(
        (channels, 3, 3, cells - 2 * width - 2),
        dtype=buf.dtype,
        buffer=buf,
        strides=(buf.strides[0], width * item, item, item),
    )
    view.flags.writeable = False
    return view


def _im2col3(taps: np.ndarray, cols: np.ndarray, start: int = 0) -> None:
    """Write the nine 3x3 taps of pixels start, start + 1, ... into cols,
    shape (C, 3, 3, R, W): one copy from `taps`, a zero-ended buffer's tap
    view (_tap_view), then zeros over the cells that wrapped round a row
    end (see the module docstring)."""
    channels, _, _, rows, w = cols.shape
    np.copyto(cols.reshape(channels, 3, 3, rows * w), taps[..., start : start + rows * w])
    cols[:, :, 0, :, 0] = 0.0  # dx = 0 reads left of column 0
    cols[:, :, 2, :, w - 1] = 0.0  # dx = 2 reads right of the last column


def _conv3(
    buf: np.ndarray, cols: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    """3x3 SAME convolution of zero-ended buf into out, shape (O, H, W),
    one tile of cols's rows at a time (see the module docstring)."""
    w_2d = w.reshape(w.shape[0], -1)
    out_2d = out.reshape(out.shape[0], -1)
    tile = cols.shape[3] * cols.shape[4]
    cols_2d = cols.reshape(-1, tile)
    taps = _tap_view(buf, cols.shape[4])
    for start in range(0, out_2d.shape[1], tile):
        _im2col3(taps, cols, start)
        np.matmul(w_2d, cols_2d, out=out_2d[:, start : start + tile])
    out += b[:, None, None]


def forward(
    params: ModelParams, image: ImageTensor, cache: Optional[ForwardCache] = None
) -> tuple[np.ndarray, ForwardCache]:
    """Logits for every pixel, shape (width*height, num_classes).

    The logits are always a new array, the transpose of a contiguous
    (num_classes, width*height) one: each class's logits are one
    contiguous plane. The activations go into `cache` when it fits this
    architecture and image shape, overwriting what it held, and into a
    new cache of the same kind otherwise (a training cache when `cache`
    is None); the cache used is returned.
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
    np.copyto(_interior(cache.x1, *shape), image.planes())
    _conv3(cache.x1, cache.cols1, p["w1"], p["b1"], cache.pre1)
    np.maximum(cache.pre1, 0.0, out=cache.act1)  # the interior of x2
    _conv3(cache.x2, cache.cols2, p["w2"], p["b2"], cache.pre2)
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
    w: np.ndarray, gout: np.ndarray, out: np.ndarray, tap: np.ndarray
) -> None:
    """Input gradient of a 3x3 SAME convolution into out, a contiguous
    (C, H, W) array.

    tap (C, H, W) is scratch. out is the accumulator: each tap's product,
    its out-of-image part set to +0.0, is added to it whole, shifted onto
    the input pixels it read, in (dy, dx) order starting from +0.0 (see
    the module docstring).
    """
    _, h, width = gout.shape
    gout_2d = gout.reshape(gout.shape[0], -1)
    tap_2d = tap.reshape(tap.shape[0], -1)
    flat, tap_flat = out.reshape(-1), tap.reshape(-1)
    size = flat.shape[0]
    # per tap offset, the output row (dy) or column (dx) that reads no input
    outside = (0, None, -1)
    out.fill(0.0)
    for dy in range(3):
        for dx in range(3):
            np.dot(w[:, :, dy, dx].T, gout_2d, out=tap_2d)
            if outside[dy] is not None:
                tap[:, outside[dy], :] = 0.0
            if outside[dx] is not None:
                tap[:, :, outside[dx]] = 0.0
            shift = (dy - 1) * width + (dx - 1)
            lo, hi = max(shift, 0), min(size, size + shift)
            if lo < hi:
                flat[lo:hi] += tap_flat[lo - shift : hi - shift]


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
    if cache.inference:
        raise ValueError("an inference cache holds no backward scratch")
    n = cache.width * cache.height
    if grad_logits.shape != (n, arch.num_classes):
        raise ShapeError(
            f"grad_logits shape {grad_logits.shape} != ({n}, {arch.num_classes})"
        )
    d2, d1, tap = cache.d2, cache.d1, cache.tap
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
    _conv3_input_grad(p["w2"], d2, d1, tap)

    # the image is not a parameter, so layer 1's input gradient is never formed
    d1 *= cache.pre1 > 0.0  # d_act1 -> d_pre1
    _conv3_param_grads(cache.cols1, d1, g["w1"], g["b1"])
    return grad


def predict_probs(params: ModelParams, image: ImageTensor) -> ProbMap:
    """Forward pass plus per-pixel softmax, in a new inference cache that
    is freed on return: layer 2 is built in tiles of rows. ValueError when
    the probabilities are not all finite, as after an overflowing forward."""
    cache = ForwardCache.allocate(params.arch, image.height, image.width, inference=True)
    logits, _ = forward(params, image, cache)
    probs = softmax(logits)
    if not np.isfinite(probs).all():
        raise ValueError("probabilities must be finite")
    # a finite softmax passes every other ProbMap check
    return _unchecked(
        ProbMap,
        width=image.width,
        height=image.height,
        num_classes=params.arch.num_classes,
        probs=probs,
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


def gradient_check_report(seed: int = 0, instances: int = 20, size: int = 8) -> dict:
    """Compare analytic parameter gradients with central finite differences.

    Random full-grid masked-CE instances are screened so no ReLU
    pre-activation sits within 1e-4 of its kink. A parameter bump of
    GRAD_CHECK_STEP moves any pre-activation by at most ~1.1x that step,
    so no finite-difference evaluation ever crosses a kink and the loss
    is smooth over the probed interval. Returns per-layer and
    overall max relative error. Raises ValueError when 50 draws per
    instance do not yield `instances` kink-free ones, which larger images,
    with more pre-activations near a kink, make likelier.
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
            raise ValueError(f"found fewer than {instances} kink-free {size}x{size} "
                             f"instances in {attempts - 1} attempts")
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
