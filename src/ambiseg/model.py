"""Small fully-convolutional pixel classifier with analytic gradients.

Architecture (fixed): conv 3x3 (in -> hidden) + ReLU, conv 3x3
(hidden -> hidden) + ReLU, conv 1x1 (hidden -> num_classes), all zero
padded so the logit grid matches the input grid. Forward/backward are
hand written over numpy so the gradient is exact and checkable against
finite differences. The Adam optimizer lives here too; the learning-rate
schedule does not (callers set lr per step).
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


@dataclass
class ImageTensor:
    """Multi-channel image; values flat in (channel, row, column) order."""

    width: int
    height: int
    channels: int
    values: np.ndarray

    def __post_init__(self):
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
        return {
            name: self.flat[sl].reshape(shape) for name, shape, sl in _layout(self.arch)
        }


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
    """Activations saved by forward for exact backprop."""

    arch: Architecture
    width: int
    height: int
    cols1: np.ndarray
    pre1: np.ndarray
    act1: np.ndarray
    cols2: np.ndarray
    pre2: np.ndarray
    act2: np.ndarray


def _im2col3(x: np.ndarray) -> np.ndarray:
    """All nine 3x3 taps of a zero-padded (C, H, W) tensor: (C, 3, 3, H, W)."""
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 3, 3, h, w))
    for dy in range(3):
        for dx in range(3):
            cols[:, dy, dx] = xp[:, dy : dy + h, dx : dx + w]
    return cols


def _conv3_from_cols(cols: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.tensordot(w, cols, axes=([1, 2, 3], [0, 1, 2]))
    return out + b[:, None, None]


def forward(
    params: ModelParams, image: ImageTensor
) -> tuple[np.ndarray, ForwardCache]:
    """Logits for every pixel, shape (width*height, num_classes), row-major."""
    arch = params.arch
    if image.channels != arch.in_channels:
        raise ShapeError(
            f"image has {image.channels} channels, model expects {arch.in_channels}"
        )
    p = params.unpack()
    x = image.planes()
    cols1 = _im2col3(x)
    pre1 = _conv3_from_cols(cols1, p["w1"], p["b1"])
    act1 = np.maximum(pre1, 0.0)
    cols2 = _im2col3(act1)
    pre2 = _conv3_from_cols(cols2, p["w2"], p["b2"])
    act2 = np.maximum(pre2, 0.0)
    logits_chw = (
        np.tensordot(p["w3"][:, :, 0, 0], act2, axes=([1], [0]))
        + p["b3"][:, None, None]
    )
    logits = logits_chw.reshape(arch.num_classes, -1).T.copy()
    cache = ForwardCache(
        arch=arch,
        width=image.width,
        height=image.height,
        cols1=cols1,
        pre1=pre1,
        act1=act1,
        cols2=cols2,
        pre2=pre2,
        act2=act2,
    )
    return logits, cache


def _conv3_param_grads(
    cols: np.ndarray, gout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of a 3x3 SAME convolution."""
    dw = np.tensordot(gout, cols, axes=([1, 2], [3, 4]))
    return dw, gout.sum(axis=(1, 2))


def _conv3_input_grad(w: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Input gradient of a 3x3 SAME convolution."""
    _, h, width = gout.shape
    dxp = np.zeros((w.shape[1], h + 2, width + 2))
    for dy in range(3):
        for dx in range(3):
            dxp[:, dy : dy + h, dx : dx + width] += np.tensordot(
                w[:, :, dy, dx], gout, axes=([0], [0])
            )
    return dxp[:, 1 : h + 1, 1 : width + 1]


def backward(
    params: ModelParams, cache: ForwardCache, grad_logits: np.ndarray
) -> np.ndarray:
    """Flat parameter gradient for the loss whose logit gradient is given."""
    arch = params.arch
    if cache.arch != arch:
        raise ValueError("cache was produced by a different architecture")
    n = cache.width * cache.height
    if grad_logits.shape != (n, arch.num_classes):
        raise ShapeError(
            f"grad_logits shape {grad_logits.shape} != ({n}, {arch.num_classes})"
        )
    p = params.unpack()
    g_chw = grad_logits.T.reshape(arch.num_classes, cache.height, cache.width)

    dw3 = np.tensordot(g_chw, cache.act2, axes=([1, 2], [1, 2]))[:, :, None, None]
    db3 = g_chw.sum(axis=(1, 2))
    d_act2 = np.tensordot(p["w3"][:, :, 0, 0], g_chw, axes=([0], [0]))

    d_pre2 = d_act2 * (cache.pre2 > 0.0)
    dw2, db2 = _conv3_param_grads(cache.cols2, d_pre2)
    d_act1 = _conv3_input_grad(p["w2"], d_pre2)

    # the image is not a parameter, so layer 1's input gradient is never formed
    d_pre1 = d_act1 * (cache.pre1 > 0.0)
    dw1, db1 = _conv3_param_grads(cache.cols1, d_pre1)

    return np.concatenate(
        [dw1.ravel(), db1.ravel(), dw2.ravel(), db2.ravel(), dw3.ravel(), db3.ravel()]
    )


def predict_probs(params: ModelParams, image: ImageTensor) -> ProbMap:
    """Forward pass plus per-pixel softmax, packaged with its logits."""
    logits, _ = forward(params, image)
    return ProbMap(
        width=image.width,
        height=image.height,
        num_classes=params.arch.num_classes,
        probs=softmax(logits),
        logits=logits,
    )


@dataclass
class OptState:
    """Adam accumulators; lr is set by the caller before each step."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    epsilon: float = ADAM_EPS

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
    m = opt.beta1 * opt.m + (1.0 - opt.beta1) * grads
    v = opt.beta2 * opt.v + (1.0 - opt.beta2) * grads**2
    m_hat = m / (1.0 - opt.beta1**t)
    v_hat = v / (1.0 - opt.beta2**t)
    new_flat = params.flat - opt.lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    new_params = ModelParams(arch=params.arch, flat=new_flat, seed=params.seed)
    new_opt = OptState(
        m=m,
        v=v,
        step=t,
        lr=opt.lr,
        beta1=opt.beta1,
        beta2=opt.beta2,
        epsilon=opt.epsilon,
    )
    return new_params, new_opt


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
    return ModelParams(arch=arch, flat=flat, seed=seed)


def gradient_check_report(
    seed: int = 0,
    instances: int = 20,
    size: int = 8,
    arch: Optional[Architecture] = None,
    step: float = 1e-5,
    corrupt: bool = False,
) -> dict:
    """Compare analytic parameter gradients with central finite differences.

    Random full-grid masked-CE instances are screened so no ReLU
    pre-activation sits within 1e-4 of its kink. A parameter bump of
    `step` moves any pre-activation by at most ~1.1x step, so with the
    default step no finite-difference evaluation ever crosses a kink and
    the loss is smooth over the probed interval. Returns per-layer and
    overall max relative error; `corrupt` perturbs the analytic gradient
    to prove the check can fail.
    """
    from .losses import masked_cross_entropy
    from .masks import full_grid_labels, LabelMask

    if arch is None:
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
            lg, _ = forward(p, image)
            pm = ProbMap(
                width=size,
                height=size,
                num_classes=arch.num_classes,
                probs=softmax(lg),
            )
            value, _ = masked_cross_entropy(pm, targets)
            return value

        fd = np.empty_like(params.flat)
        for i in range(params.flat.shape[0]):
            bumped = params.flat.copy()
            bumped[i] += step
            hi = loss_at(bumped)
            bumped[i] -= 2.0 * step
            lo = loss_at(bumped)
            fd[i] = (hi - lo) / (2.0 * step)

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
