"""Synthetic ambiguous-boundary datasets and their on-disk formats.

Scenes hold one star-convex object whose intensity edge is blurred and
noisy, so the true boundary is genuinely uncertain. Simulated annotators
threshold the signed distance to the clean boundary at a systematic bias
plus smooth angular jitter, which confines all disagreement to a band
around the boundary and leaves far pixels untouched.

Formats: images are "TNS1" tensor files (magic, u32 rank, u32 dims,
row-major float64, little-endian); masks are binary PGM (P5) with
maxval = num_classes - 1; each dataset directory carries a manifest.tsv.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.ndimage import distance_transform_edt, gaussian_filter

from .masks import LabelMask, ShapeError
from .model import ImageTensor

TENSOR_MAGIC = b"TNS1"

BACKGROUND_LEVEL = 0.2
NESTED_LEVELS = (0.15, 0.5, 0.85)


class GenerationError(RuntimeError):
    """Raised when a scene cannot satisfy its area constraints."""


# ---------------------------------------------------------------------------
# tensor and mask files


def save_tensor(path: str | Path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    header = TENSOR_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as f:
        f.write(header + arr.astype("<f8").tobytes())


def load_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != TENSOR_MAGIC:
        raise ValueError(f"{path}: not a tensor file (bad magic)")
    if len(blob) < 8:
        raise ValueError(f"{path}: truncated tensor header")
    (rank,) = struct.unpack("<I", blob[4:8])
    header = 8 + 4 * rank
    if len(blob) < header:
        raise ValueError(f"{path}: truncated tensor header ({rank} dimensions)")
    dims = struct.unpack(f"<{rank}I", blob[8:header])
    expect = math.prod(dims)
    if len(blob) - header != 8 * expect:
        raise ValueError(
            f"{path}: payload holds {len(blob) - header} bytes, expected {8 * expect}"
        )
    data = np.frombuffer(blob[header:], dtype="<f8")
    return data.reshape(dims).astype(np.float64)


def save_image(path: str | Path, image: ImageTensor) -> None:
    save_tensor(path, image.planes())


def load_image(path: str | Path) -> ImageTensor:
    planes = load_tensor(path)
    if planes.ndim != 3:
        raise ValueError(f"{path}: image tensors must have rank 3")
    return ImageTensor.from_planes(planes)


def save_mask_pgm(path: str | Path, mask: LabelMask) -> None:
    if mask.num_classes > 256:
        raise ValueError("PGM masks support at most 256 classes")
    header = f"P5\n{mask.width} {mask.height}\n{mask.num_classes - 1}\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(mask.labels.astype(np.uint8).tobytes())


def load_mask_pgm(path: str | Path) -> LabelMask:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise ValueError(f"{path}: truncated or malformed PGM header")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace byte before raster data
    width, height, maxval = fields
    if maxval < 1 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    raster = np.frombuffer(blob[pos:], dtype=np.uint8)
    if raster.shape[0] != width * height:
        raise ValueError(
            f"{path}: raster holds {raster.shape[0]} bytes, expected {width * height}"
        )
    return LabelMask(
        width=width, height=height, num_classes=maxval + 1, labels=raster
    )


# ---------------------------------------------------------------------------
# scene generation


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene; fully determined by its seed."""

    width: int = 64
    height: int = 64
    shape_family: str = "blob"
    contrast: float = 0.6
    noise_level: float = 0.03
    blur_radius: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.shape_family not in ("blob", "ellipse"):
            raise ValueError(f"unknown shape family {self.shape_family!r}")
        if self.width < 8 or self.height < 8:
            raise ValueError("scenes must be at least 8x8")


def _polar_grid(width: int, height: int, cx: float, cy: float):
    ys, xs = np.mgrid[0:height, 0:width]
    dx = xs - cx
    dy = ys - cy
    return np.hypot(dx, dy), np.arctan2(dy, dx), dx, dy


def _draw_indicator(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    w, h = spec.width, spec.height
    cx = w / 2.0 + rng.uniform(-0.08, 0.08) * w
    cy = h / 2.0 + rng.uniform(-0.08, 0.08) * h
    rho, theta, dx, dy = _polar_grid(w, h, cx, cy)
    base = min(w, h)
    if spec.shape_family == "ellipse":
        a = rng.uniform(0.22, 0.32) * base
        b = rng.uniform(0.22, 0.32) * base
        psi = rng.uniform(0.0, np.pi)
        u = dx * np.cos(psi) + dy * np.sin(psi)
        v = -dx * np.sin(psi) + dy * np.cos(psi)
        return (u / a) ** 2 + (v / b) ** 2 <= 1.0
    r0 = rng.uniform(0.22, 0.32) * base
    radius = np.full_like(theta, r0)
    for harmonic in (2, 3, 4):
        amp = rng.uniform(0.03, 0.12)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        radius = radius + r0 * amp * np.cos(harmonic * theta + phase)
    return rho <= radius


def generate_scene(spec: SceneSpec) -> tuple[ImageTensor, LabelMask]:
    """One image plus its clean binary ground truth, deterministic in seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.width * spec.height
    fg = None
    for _ in range(50):
        candidate = _draw_indicator(spec, rng)
        area = candidate.mean()
        if 0.05 <= area <= 0.60:
            fg = candidate
            break
    if fg is None:
        raise GenerationError(
            f"no shape met the 5-60% area constraint for seed {spec.seed}"
        )
    img = BACKGROUND_LEVEL + spec.contrast * fg.astype(np.float64)
    if spec.blur_radius > 0:
        img = gaussian_filter(img, sigma=spec.blur_radius)
    if spec.noise_level > 0:
        img = img + rng.normal(0.0, spec.noise_level, size=img.shape)
    img = np.clip(img, 0.0, 1.0)
    image = ImageTensor.from_planes(img[None, :, :])
    gt = LabelMask.from_grid(fg.astype(np.int64), num_classes=2)
    return image, gt


def generate_nested_scene(spec: SceneSpec) -> tuple[ImageTensor, LabelMask]:
    """Three-class variant: a core region nested inside the object."""
    rng = np.random.default_rng(spec.seed)
    fg = None
    for _ in range(50):
        candidate = _draw_indicator(spec, rng)
        if 0.05 <= candidate.mean() <= 0.60:
            depth = distance_transform_edt(candidate)
            if depth.max() >= 4.0:
                fg = candidate
                break
    if fg is None:
        raise GenerationError(
            f"no nestable shape found for seed {spec.seed}"
        )
    depth = distance_transform_edt(fg)
    core = depth >= 0.45 * depth.max()
    labels = fg.astype(np.int64) + core.astype(np.int64)
    lo, mid, hi = NESTED_LEVELS
    img = np.full(fg.shape, lo)
    img[fg] = mid
    img[core] = hi
    if spec.blur_radius > 0:
        img = gaussian_filter(img, sigma=spec.blur_radius)
    if spec.noise_level > 0:
        img = img + rng.normal(0.0, spec.noise_level, size=img.shape)
    img = np.clip(img, 0.0, 1.0)
    image = ImageTensor.from_planes(img[None, :, :])
    gt = LabelMask.from_grid(labels, num_classes=3)
    return image, gt


# ---------------------------------------------------------------------------
# annotator simulation


@dataclass(frozen=True)
class AnnotatorProfile:
    """Systematic bias plus smooth boundary jitter for one simulated expert.

    bias_radius: signed pixels; positive over-segments (dilates), negative
    under-segments. jitter_amplitude: peak boundary displacement in pixels.
    jitter_scale: approximate arc wavelength of the jitter in pixels.
    """

    bias_radius: float
    jitter_amplitude: float
    jitter_scale: float
    seed: int

    def __post_init__(self):
        if self.jitter_amplitude < 0:
            raise ValueError("jitter_amplitude must be >= 0")
        if self.jitter_scale < 1:
            raise ValueError("jitter_scale must be >= 1")


def _signed_distance(fg: np.ndarray) -> np.ndarray:
    """Positive outside the object, negative inside; never zero."""
    outside = distance_transform_edt(~fg)
    inside = distance_transform_edt(fg)
    return outside - inside


def _angular_jitter(
    theta: np.ndarray, profile: AnnotatorProfile, mean_radius: float
) -> np.ndarray:
    """Smooth zero-mean displacement field with peak = jitter_amplitude."""
    if profile.jitter_amplitude == 0:
        return np.zeros_like(theta)
    rng = np.random.default_rng(profile.seed)
    base_h = max(1, round(2.0 * np.pi * mean_radius / profile.jitter_scale))
    dense = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    signal = np.zeros_like(theta)
    dense_signal = np.zeros_like(dense)
    for harmonic in (base_h, base_h + 1, base_h + 2):
        amp = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal = signal + amp * np.cos(harmonic * theta + phase)
        dense_signal = dense_signal + amp * np.cos(harmonic * dense + phase)
    peak = np.abs(dense_signal).max()
    return profile.jitter_amplitude * signal / peak


def simulate_annotator(clean_gt: LabelMask, profile: AnnotatorProfile) -> LabelMask:
    """Displace the clean boundary by bias plus smooth angular jitter.

    Pixels farther than |bias_radius| + jitter_amplitude from the true
    boundary keep their clean label: the threshold never reaches them.
    """
    if clean_gt.num_classes != 2:
        raise ValueError("simulate_annotator requires a binary mask")
    fg = clean_gt.grid().astype(bool)
    if not fg.any():
        return LabelMask.from_grid(fg.astype(np.int64), num_classes=2)
    d = _signed_distance(fg)
    ys, xs = np.nonzero(fg)
    cy, cx = ys.mean(), xs.mean()
    _, theta, _, _ = _polar_grid(clean_gt.width, clean_gt.height, cx, cy)
    mean_radius = np.sqrt(fg.sum() / np.pi)
    threshold = profile.bias_radius + _angular_jitter(theta, profile, mean_radius)
    out = d <= threshold
    return LabelMask.from_grid(out.astype(np.int64), num_classes=2)


def simulate_annotator_nested(
    clean_gt: LabelMask, profile: AnnotatorProfile
) -> LabelMask:
    """Annotate a three-class nested mask: both boundaries get perturbed."""
    if clean_gt.num_classes != 3:
        raise ValueError("nested annotation requires a three-class mask")
    grid = clean_gt.grid()
    outer = LabelMask.from_grid((grid >= 1).astype(np.int64), num_classes=2)
    inner = LabelMask.from_grid((grid == 2).astype(np.int64), num_classes=2)
    outer_ann = simulate_annotator(outer, profile)
    inner_ann = simulate_annotator(inner, replace(profile, seed=profile.seed + 1))
    o = outer_ann.grid().astype(bool)
    i = inner_ann.grid().astype(bool) & o
    return LabelMask.from_grid(
        o.astype(np.int64) + i.astype(np.int64), num_classes=3
    )


def default_profiles(k: int) -> list[AnnotatorProfile]:
    """K experts whose biases straddle the true boundary symmetrically."""
    if k < 2:
        raise ValueError("need at least two annotator profiles")
    biases = np.linspace(1.0, -1.0, k)
    return [
        AnnotatorProfile(
            bias_radius=float(b),
            jitter_amplitude=0.8,
            jitter_scale=12.0,
            seed=1000 + 7 * i,
        )
        for i, b in enumerate(biases)
    ]


# ---------------------------------------------------------------------------
# dataset assembly


@dataclass
class MultiAnnotatedSample:
    image: ImageTensor
    annotations: list[LabelMask]
    clean_gt: Optional[LabelMask] = None

    def __post_init__(self):
        if len(self.annotations) < 1:
            raise ValueError("multi-annotated samples need at least one mask")
        for m in self.annotations:
            if (m.width, m.height) != (self.image.width, self.image.height):
                raise ShapeError("annotation does not match image dimensions")
        if self.clean_gt is not None and (
            self.clean_gt.width,
            self.clean_gt.height,
        ) != (self.image.width, self.image.height):
            raise ShapeError("clean ground truth does not match image dimensions")


@dataclass
class UnannotatedSample:
    image: ImageTensor


@dataclass
class TestSample:
    image: ImageTensor
    clean_gt: LabelMask

    def __post_init__(self):
        if (self.clean_gt.width, self.clean_gt.height) != (
            self.image.width,
            self.image.height,
        ):
            raise ShapeError("ground truth does not match image dimensions")


@dataclass
class Dataset:
    multi: list[MultiAnnotatedSample]
    unannotated: list[UnannotatedSample]
    validation: list[MultiAnnotatedSample]
    test: list[TestSample]

    @property
    def k(self) -> int:
        return len(self.multi[0].annotations) if self.multi else 0


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def build_dataset(
    out_dir: str | Path,
    n_multi: int,
    n_unann: int,
    n_val: int,
    n_test: int,
    k: int = 2,
    profiles: Optional[Sequence[AnnotatorProfile]] = None,
    seed: int = 0,
    width: int = 64,
    height: int = 64,
    shape_family: str = "blob",
    contrast: float = 0.6,
    noise_level: float = 0.03,
    blur_radius: float = 1.5,
    nested: bool = False,
) -> Path:
    """Generate and write a full dataset directory; returns its path.

    Splits: `multi` and `val` samples carry K annotator masks plus the
    clean ground truth, `test` carries the clean ground truth only, and
    `unann` carries just the image. Everything is a pure function of
    `seed`, so rebuilding with the same arguments reproduces the tree
    byte for byte.
    """
    counts = {"n_multi": n_multi, "n_unann": n_unann, "n_val": n_val, "n_test": n_test}
    for name, count in counts.items():
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if profiles is None:
        profiles = default_profiles(k)
    if len(profiles) != k:
        raise ValueError(f"got {len(profiles)} profiles for k={k}")
    # every scene differs from this one only in its seed; building it
    # checks the scene settings before anything is written
    base_spec = SceneSpec(
        width=width,
        height=height,
        shape_family=shape_family,
        contrast=contrast,
        noise_level=noise_level,
        blur_radius=blur_radius,
    )
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(exist_ok=True)
    (out / "gt").mkdir(exist_ok=True)

    make_scene = generate_nested_scene if nested else generate_scene
    annotate = simulate_annotator_nested if nested else simulate_annotator

    rows = ["id\tsplit\timage\tgt\tmasks\tk"]
    scene_index = 0

    def next_scene() -> tuple[ImageTensor, LabelMask, int]:
        nonlocal scene_index
        idx = scene_index
        scene_index += 1
        image, gt = make_scene(replace(base_spec, seed=_derive_seed(seed, idx)))
        return image, gt, idx

    def annotate_all(gt: LabelMask, idx: int) -> list[LabelMask]:
        out_masks = []
        for a, prof in enumerate(profiles):
            scene_prof = replace(prof, seed=_derive_seed(prof.seed, seed, idx))
            out_masks.append(annotate(gt, scene_prof))
        return out_masks

    def emit(sample_id: str, split: str, with_gt: bool, with_masks: bool) -> None:
        image, gt, idx = next_scene()
        image_rel = f"images/{sample_id}.tns"
        save_image(out / image_rel, image)
        gt_rel = ""
        if with_gt:
            gt_rel = f"gt/{sample_id}.pgm"
            save_mask_pgm(out / gt_rel, gt)
        mask_rels = []
        if with_masks:
            for a, mask in enumerate(annotate_all(gt, idx)):
                rel = f"masks/{sample_id}_a{a}.pgm"
                save_mask_pgm(out / rel, mask)
                mask_rels.append(rel)
        rows.append(
            f"{sample_id}\t{split}\t{image_rel}\t{gt_rel}\t"
            f"{';'.join(mask_rels)}\t{len(mask_rels)}"
        )

    for i in range(n_multi):
        emit(f"m{i:03d}", "multi", with_gt=True, with_masks=True)
    for i in range(n_unann):
        emit(f"u{i:03d}", "unann", with_gt=False, with_masks=False)
    for i in range(n_val):
        emit(f"v{i:03d}", "val", with_gt=True, with_masks=True)
    for i in range(n_test):
        emit(f"t{i:03d}", "test", with_gt=True, with_masks=False)

    (out / "manifest.tsv").write_text("\n".join(rows) + "\n")
    return out


def load_dataset(root: str | Path) -> Dataset:
    """Read a dataset directory written by build_dataset."""
    root = Path(root)
    manifest = root / "manifest.tsv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.tsv under {root}")
    lines = manifest.read_text().splitlines()
    header = lines[0].split("\t") if lines else []
    expect = ["id", "split", "image", "gt", "masks", "k"]
    if header != expect:
        raise ValueError(f"{manifest}: unexpected columns {header}")

    ds = Dataset(multi=[], unannotated=[], validation=[], test=[])
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(expect):
            raise ValueError(
                f"{manifest}:{lineno}: expected {len(expect)} tab-separated "
                f"fields, got {len(fields)}"
            )
        sample_id, split, image_rel, gt_rel, mask_field, k_str = fields
        if not k_str.isdecimal():
            raise ValueError(f"{manifest}:{lineno}: k must be an integer, got {k_str!r}")
        image = load_image(root / image_rel)
        gt = load_mask_pgm(root / gt_rel) if gt_rel else None
        masks = [
            load_mask_pgm(root / rel) for rel in mask_field.split(";") if rel
        ]
        if len(masks) != int(k_str):
            raise ValueError(f"{manifest}: row {sample_id} mask count mismatch")
        if split == "multi":
            ds.multi.append(
                MultiAnnotatedSample(image=image, annotations=masks, clean_gt=gt)
            )
        elif split == "unann":
            ds.unannotated.append(UnannotatedSample(image=image))
        elif split == "val":
            ds.validation.append(
                MultiAnnotatedSample(image=image, annotations=masks, clean_gt=gt)
            )
        elif split == "test":
            if gt is None:
                raise ValueError(f"{manifest}: test row {sample_id} lacks gt")
            ds.test.append(TestSample(image=image, clean_gt=gt))
        else:
            raise ValueError(f"{manifest}: unknown split {split!r}")
    return ds
