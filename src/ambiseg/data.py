"""Synthetic ambiguous-boundary datasets and their on-disk formats.

Scenes hold one star-convex object whose intensity edge is blurred and
noisy, so the true boundary is genuinely uncertain. Simulated annotators
threshold the signed distance to the clean boundary at a systematic bias
plus smooth angular jitter, which confines all disagreement to a band
around the boundary and leaves far pixels untouched.

Binary and nested scenes share one recipe, and a binary scene is its
one-level case. Label c is drawn at intensity levels[c] before blur and
noise: (BACKGROUND_LEVEL, BACKGROUND_LEVEL + contrast) for a binary scene,
NESTED_LEVELS for a nested one, which adds a core (label 2) inside the
object and ignores contrast. Annotators follow the same nesting: level
c >= 1 displaces the boundary of grid >= c with the jitter of seed
profile.seed + c - 1 and keeps only what lies inside level c - 1.

Two small filters serve the scenes and annotators, both exact and both
deterministic to the bit. The Gaussian blur uses the kernel
exp(-x^2 / (2 sigma^2)) over x = -r..r, r = int(4.0 * sigma + 0.5)
(truncated at 4 sigma), normalised by its sum; "reflect" (half-sample
symmetric) extension, periodic when r exceeds the side; it filters axis
0, then axis 1, and sums each output as x[i] * w0, then adds
(x[i-j] + x[i+j]) * wj for j = r..1. The distance transform is the exact
Euclidean distance from each True pixel to the nearest False one; a grid
with no False pixel gets the distance to the point (-1, 0) instead.

Formats: images are "TNS1" tensor files (magic, u32 rank, u32 dims,
row-major float64, little-endian); masks are binary PGM (P5) with
maxval = num_classes - 1; each dataset directory carries a manifest.tsv.

publish is the one way the package creates, replaces or removes a
top-level artifact (a dataset directory from write_dataset, a run
directory that training.write_run persists a result into, an eval
report), so each one appears whole or not at all.
"""

from __future__ import annotations

import errno
import math
import os
import shutil
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ContextManager, Iterator, Optional, Sequence

import numpy as np

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
    try:
        return ImageTensor.from_planes(planes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
        try:
            fields.append(int(blob[start:pos]))
        except ValueError:  # more digits than int() converts
            raise ValueError(f"{path}: PGM header number too long") from None
    pos += 1  # single whitespace byte before raster data
    width, height, maxval = fields
    if maxval < 1 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    raster = np.frombuffer(blob[pos:], dtype=np.uint8)
    if raster.shape[0] != width * height:
        raise ValueError(
            f"{path}: raster holds {raster.shape[0]} bytes, expected {width * height}"
        )
    try:
        return LabelMask(width=width, height=height, num_classes=maxval + 1, labels=raster)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def text_lines(path: Path) -> list[str]:
    """The lines of a text file; bytes it cannot decode raise ValueError naming it."""
    try:
        return path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not {exc.encoding} text: {exc.reason} at byte {exc.start}"
        ) from None


# ---------------------------------------------------------------------------
# filters (the module docstring states what each reproduces)


def _blur_axis0(img: np.ndarray, phi: np.ndarray, r: int) -> np.ndarray:
    n = img.shape[0]
    idx = np.arange(-r, n + r) % (2 * n)
    ext = img[np.minimum(idx, 2 * n - 1 - idx)]
    out = ext[r : r + n] * phi[r]
    for j in range(r, 0, -1):
        out += (ext[r - j : r - j + n] + ext[r + j : r + j + n]) * phi[r + j]
    return out


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    phi = phi / phi.sum()
    return np.ascontiguousarray(_blur_axis0(_blur_axis0(img, phi, r).T, phi, r).T)


def _distance_transform(fg: np.ndarray) -> np.ndarray:
    h, w = fg.shape
    rows = np.arange(h, dtype=np.int32)[:, None]
    cols = np.arange(w, dtype=np.int32)
    if fg.all():
        return np.sqrt((rows + 1.0) ** 2 + cols**2)
    # rows to the nearest False pixel of the same column; `far` where none
    far = np.int32(2 * (h + w))
    above = np.maximum.accumulate(np.where(fg, -far, rows), axis=0)
    below = np.minimum.accumulate(np.where(fg, far, rows)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows)
    sq, dx2 = g * g, (cols[:, None] - cols) ** 2
    step = max(1, (1 << 18) // (w * w))  # rows per pass, to bound the scratch
    best = [(sq[y : y + step, None, :] + dx2).min(axis=2) for y in range(0, h, step)]
    return np.sqrt(np.concatenate(best).astype(np.float64))


# ---------------------------------------------------------------------------
# scene generation


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene; fully determined by its seed.

    contrast lifts a binary scene's object above BACKGROUND_LEVEL. A nested
    scene, whose binary counterpart is its one-level case, draws its three
    labels at NESTED_LEVELS and ignores contrast.
    """

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
        for name in ("blur_radius", "noise_level"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.contrast):
            raise ValueError(f"contrast must be finite, got {self.contrast}")


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


def _scene(spec: SceneSpec, levels: tuple, failure: str) -> tuple[ImageTensor, LabelMask]:
    """The one scene recipe: label c of the ground truth has intensity
    levels[c] before blur and noise. Three levels also ask for a shape 4 px
    deep and nest its core (depth >= 0.45 of the deepest pixel's) as label 2."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(50):
        fg = _draw_indicator(spec, rng)
        if not 0.05 <= fg.mean() <= 0.60:
            continue
        labels = fg.astype(np.int64)
        if len(levels) == 2:
            break
        depth = _distance_transform(fg)
        if depth.max() >= 4.0:
            labels += depth >= 0.45 * depth.max()
            break
    else:
        raise GenerationError(f"{failure} for seed {spec.seed}")
    img = np.asarray(levels, dtype=np.float64)[labels]
    if spec.blur_radius > 0:
        img = _gaussian_blur(img, spec.blur_radius)
    if spec.noise_level > 0:
        img = img + rng.normal(0.0, spec.noise_level, size=img.shape)
    image = ImageTensor.from_planes(np.clip(img, 0.0, 1.0)[None, :, :])
    return image, LabelMask.from_grid(labels, num_classes=len(levels))


def generate_scene(spec: SceneSpec) -> tuple[ImageTensor, LabelMask]:
    """One image plus its clean binary ground truth, deterministic in seed."""
    levels = (BACKGROUND_LEVEL, BACKGROUND_LEVEL + spec.contrast)
    return _scene(spec, levels, "no shape met the 5-60% area constraint")


def generate_nested_scene(spec: SceneSpec) -> tuple[ImageTensor, LabelMask]:
    """Three-class variant: a core region nested inside the object."""
    return _scene(spec, NESTED_LEVELS, "no nestable shape found")


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


def _boundary_displacer(fg: np.ndarray):
    """Profile -> the object `fg` with its boundary displaced.

    The object's geometry (signed distance, positive outside, polar angle
    about its centroid, mean radius) is computed once and shared by every
    profile the returned function is called with.
    """
    if not fg.any():
        return lambda profile: fg
    d = _distance_transform(~fg) - _distance_transform(fg)
    ys, xs = np.nonzero(fg)
    _, theta, _, _ = _polar_grid(fg.shape[1], fg.shape[0], xs.mean(), ys.mean())
    mean_radius = np.sqrt(fg.sum() / np.pi)
    return lambda profile: d <= profile.bias_radius + _angular_jitter(
        theta, profile, mean_radius
    )


def _scene_annotator(clean_gt: LabelMask):
    """Profile -> annotation of one clean binary or three-class nested mask,
    level by level as the module docstring says."""
    grid = clean_gt.grid()
    displacers = [_boundary_displacer(grid >= c) for c in range(1, clean_gt.num_classes)]

    def annotate(profile: AnnotatorProfile) -> LabelMask:
        labels = np.zeros(grid.shape, dtype=np.int64)
        region = np.ones(grid.shape, dtype=bool)
        for c, displace in enumerate(displacers, start=1):
            region = displace(replace(profile, seed=profile.seed + c - 1)) & region
            labels += region
        return LabelMask.from_grid(labels, num_classes=clean_gt.num_classes)

    return annotate


def simulate_annotator(clean_gt: LabelMask, profile: AnnotatorProfile) -> LabelMask:
    """Displace the clean boundaries by bias plus smooth angular jitter.

    A binary mask has one boundary; a three-class nested mask has two,
    and its inner boundary draws its jitter from profile.seed + 1. Pixels
    farther than |bias_radius| + jitter_amplitude from a true boundary
    keep their clean label: the threshold never reaches them.
    """
    if clean_gt.num_classes not in (2, 3):
        raise ValueError(
            f"simulate_annotator takes binary or three-class nested masks, "
            f"got {clean_gt.num_classes} classes"
        )
    return _scene_annotator(clean_gt)(profile)


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
    """Generate a full dataset and write it with write_dataset; returns its path.

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
    # every scene differs from this one only in its seed
    base_spec = SceneSpec(
        width=width,
        height=height,
        shape_family=shape_family,
        contrast=contrast,
        noise_level=noise_level,
        blur_radius=blur_radius,
    )
    make_scene = generate_nested_scene if nested else generate_scene

    def scene(idx: int) -> tuple[ImageTensor, LabelMask]:
        return make_scene(replace(base_spec, seed=_derive_seed(seed, idx)))

    def annotated(idx: int) -> MultiAnnotatedSample:
        image, gt = scene(idx)
        annotate = _scene_annotator(gt)
        masks = [
            annotate(replace(prof, seed=_derive_seed(prof.seed, seed, idx)))
            for prof in profiles
        ]
        return MultiAnnotatedSample(image=image, annotations=masks, clean_gt=gt)

    # scenes are numbered across the splits in manifest order
    first_val = n_multi + n_unann
    first_test = first_val + n_val
    multi = [annotated(i) for i in range(n_multi)]
    unannotated = [UnannotatedSample(scene(n_multi + i)[0]) for i in range(n_unann)]
    validation = [annotated(first_val + i) for i in range(n_val)]
    test = [TestSample(*scene(first_test + i)) for i in range(n_test)]
    return write_dataset(out_dir, Dataset(multi, unannotated, validation, test))


def publish(target: str | Path) -> ContextManager[Path]:
    """Yield the sibling `<name>.partial`, where the caller writes one file or
    directory that one os.replace then makes `target`. A directory replaces an
    empty one, or one with manifest.tsv (moved aside to `<name>.old`, then
    removed); a file only a file. Any failure, KeyboardInterrupt included,
    removes what this call created. A leftover `.partial` or `.old`, and a
    non-empty directory without manifest.tsv, are refused on entry, before
    the caller does any work.
    """
    # its own code object for bench/tracer.py (a @contextmanager's is contextlib's)
    return _publish(Path(os.path.abspath(target)))  # `--out .` has a name too


@contextmanager
def _publish(target: Path) -> Iterator[Path]:
    staged, aside = (target.with_name(target.name + tag) for tag in (".partial", ".old"))
    for sibling in (p for p in (staged, aside) if p.exists()):
        # without the target, `.old` is its only copy: a swap was killed mid-way
        advice = "remove it" if sibling == staged or target.exists() else (
            f"it holds the previous {target.name}, so rename it back to {target}")
        raise FileExistsError(f"{sibling} is in the way of {target}; {advice}")
    # rename(2) would refuse it whatever is staged
    if target.is_dir() and not (target / "manifest.tsv").exists() and any(target.iterdir()):
        raise OSError(errno.ENOTEMPTY, os.strerror(errno.ENOTEMPTY), str(target))
    created = next((p for p in reversed(target.parents) if not p.exists()), None)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        yield staged
        if staged.is_dir() and (target / "manifest.tsv").exists():
            os.replace(target, aside)
        # rename(2) refuses unlike kinds and a non-empty target directory
        os.replace(staged, target)
    except BaseException:
        if aside.exists() and not target.exists():
            os.replace(aside, target)
        shutil.rmtree(created or staged, ignore_errors=True)
        staged.unlink(missing_ok=True)  # a file, which rmtree leaves
        raise
    shutil.rmtree(aside, ignore_errors=True)


def write_dataset(out_dir: str | Path, dataset: Dataset) -> Path:
    """Publish `dataset` as a directory that load_dataset reads; returns its path.

    Samples are named by split initial and position (m000, u000, v000, t000).
    """
    splits = [("multi", dataset.multi), ("unann", dataset.unannotated),
              ("val", dataset.validation), ("test", dataset.test)]
    rows = ["id\tsplit\timage\tgt\tmasks\tk"]
    with publish(out_dir) as staged:
        for sub in ("images", "masks", "gt"):
            (staged / sub).mkdir(parents=True)
        for split, samples in splits:
            for i, sample in enumerate(samples):
                sample_id = f"{split[0]}{i:03d}"
                image_rel = f"images/{sample_id}.tns"
                save_image(staged / image_rel, sample.image)
                gt = getattr(sample, "clean_gt", None)
                gt_rel = f"gt/{sample_id}.pgm" if gt is not None else ""
                if gt is not None:
                    save_mask_pgm(staged / gt_rel, gt)
                mask_rels = []
                for a, mask in enumerate(getattr(sample, "annotations", ())):
                    mask_rels.append(f"masks/{sample_id}_a{a}.pgm")
                    save_mask_pgm(staged / mask_rels[-1], mask)
                rows.append(
                    f"{sample_id}\t{split}\t{image_rel}\t{gt_rel}\t"
                    f"{';'.join(mask_rels)}\t{len(mask_rels)}"
                )
        (staged / "manifest.tsv").write_text("\n".join(rows) + "\n")
    return Path(out_dir)


def load_dataset(root: str | Path) -> Dataset:
    """Read a dataset directory written by write_dataset."""
    root = Path(root)
    manifest = root / "manifest.tsv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.tsv under {root}")
    lines = text_lines(manifest)
    header = lines[0].split("\t") if lines else []
    expect = ["id", "split", "image", "gt", "masks", "k"]
    if header != expect:
        raise ValueError(f"{manifest}: unexpected columns {header}")

    ds = Dataset(multi=[], unannotated=[], validation=[], test=[])
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{manifest}:{lineno}"
        if "\0" in line:  # open() would refuse a file name with one, naming no file
            raise ValueError(f"{where}: NUL byte in row")
        fields = line.split("\t")
        if len(fields) != len(expect):
            raise ValueError(
                f"{where}: expected {len(expect)} tab-separated fields, got {len(fields)}"
            )
        sample_id, split, image_rel, gt_rel, mask_field, k_str = fields
        if split not in ("multi", "unann", "val", "test"):
            raise ValueError(f"{where}: unknown split {split!r}")
        if not k_str.isdecimal():
            raise ValueError(f"{where}: k must be an integer, got {k_str!r}")
        image = load_image(root / image_rel)
        gt = load_mask_pgm(root / gt_rel) if gt_rel else None
        masks = [
            load_mask_pgm(root / rel) for rel in mask_field.split(";") if rel
        ]
        if len(masks) != int(k_str):
            raise ValueError(f"{where}: row {sample_id} mask count mismatch")
        if split == "test" and gt is None:
            raise ValueError(f"{where}: test row {sample_id} lacks gt")
        try:
            if split == "unann":
                ds.unannotated.append(UnannotatedSample(image=image))
            elif split == "test":
                ds.test.append(TestSample(image=image, clean_gt=gt))
            else:
                sample = MultiAnnotatedSample(image=image, annotations=masks, clean_gt=gt)
                (ds.multi if split == "multi" else ds.validation).append(sample)
        except ValueError as exc:  # a sample's own checks, ShapeError included
            raise ValueError(f"{where}: row {sample_id}: {exc}") from None
    return ds
