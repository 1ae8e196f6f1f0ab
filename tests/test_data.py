"""Synthetic scenes, annotator simulation, dataset build and file IO."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from ambiseg.data import (
    AnnotatorProfile,
    SceneSpec,
    build_dataset,
    default_profiles,
    generate_nested_scene,
    generate_scene,
    load_dataset,
    load_image,
    load_mask_pgm,
    load_tensor,
    save_image,
    save_mask_pgm,
    save_tensor,
    simulate_annotator,
    simulate_annotator_nested,
)
from ambiseg.masks import LabelMask
from ambiseg.metrics import jaccard


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(3,), (4, 5), (2, 3, 4)]:
        arr = rng.normal(size=shape)
        path = tmp_path / "t.tns"
        save_tensor(str(path), arr)
        back = load_tensor(str(path))
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_tensor_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_tensor(str(path))
    save_tensor(str(path), np.zeros((2, 3)))
    whole = path.read_bytes()
    for cut in (6, 10, len(whole) - 1):
        path.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match="bad.tns"):
            load_tensor(str(path))


def test_image_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    from ambiseg.model import ImageTensor

    img = ImageTensor.from_planes(rng.uniform(0, 1, size=(1, 6, 7)))
    path = tmp_path / "img.tns"
    save_image(str(path), img)
    back = load_image(str(path))
    assert back.width == 7 and back.height == 6 and back.channels == 1
    assert np.array_equal(back.values, img.values)


def test_mask_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    mask = LabelMask(
        width=5, height=4, num_classes=3,
        labels=rng.integers(0, 3, size=20).astype(np.int32),
    )
    path = tmp_path / "m.pgm"
    save_mask_pgm(str(path), mask)
    back = load_mask_pgm(str(path))
    assert back.width == 5 and back.height == 4 and back.num_classes == 3
    assert np.array_equal(back.labels, mask.labels)
    raw = path.read_bytes()
    assert raw.startswith(b"P5")


def test_mask_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6 2 2 255\n" + b"\x00" * 12)
    with pytest.raises(ValueError):
        load_mask_pgm(str(path))
    for header in (b"P5", b"P5\n4 ", b"P5\n4 4\n-1\n"):
        path.write_bytes(header)
        with pytest.raises(ValueError, match="bad.pgm"):
            load_mask_pgm(str(path))


def test_scene_determinism_and_area():
    spec = SceneSpec(seed=7)
    img_a, gt_a = generate_scene(spec)
    img_b, gt_b = generate_scene(spec)
    assert np.array_equal(img_a.values, img_b.values)
    assert np.array_equal(gt_a.labels, gt_b.labels)
    for seed in range(100):
        _, gt = generate_scene(SceneSpec(seed=seed))
        frac = gt.labels.mean()
        assert 0.05 <= frac <= 0.60


def test_clean_scene_threshold_recovers_gt():
    img, gt = generate_scene(SceneSpec(noise_level=0.0, blur_radius=0.0, seed=3))
    grid = img.planes()[0]
    recovered = (grid > 0.5).astype(np.int32).ravel()
    assert np.array_equal(recovered, gt.labels)


def test_ellipse_family_smoke():
    img, gt = generate_scene(SceneSpec(shape_family="ellipse", seed=4))
    assert gt.labels.any()
    assert img.values.min() >= 0.0 and img.values.max() <= 1.0


def test_annotator_identity_profile():
    _, gt = generate_scene(SceneSpec(seed=5))
    profile = AnnotatorProfile(bias_radius=0.0, jitter_amplitude=0.0, jitter_scale=12.0, seed=0)
    ann = simulate_annotator(gt, profile)
    assert np.array_equal(ann.labels, gt.labels)


def test_annotator_pure_bias_is_euclidean_dilation():
    _, gt = generate_scene(SceneSpec(seed=6))
    profile = AnnotatorProfile(bias_radius=2.0, jitter_amplitude=0.0, jitter_scale=12.0, seed=0)
    ann = simulate_annotator(gt, profile)
    fg = gt.labels.reshape(gt.height, gt.width).astype(bool)
    yy, xx = np.mgrid[-2:3, -2:3]
    ball = (yy**2 + xx**2) <= 4.0
    dilated = ndimage.binary_dilation(fg, structure=ball)
    assert np.array_equal(ann.labels.reshape(gt.height, gt.width), dilated)


def test_annotator_divergence_is_band_limited():
    _, gt = generate_scene(SceneSpec(seed=8))
    fg = gt.labels.reshape(gt.height, gt.width).astype(bool)
    dist_out = ndimage.distance_transform_edt(~fg)
    dist_in = ndimage.distance_transform_edt(fg)
    signed = dist_out - dist_in
    for seed in (0, 1):
        profile = AnnotatorProfile(
            bias_radius=1.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=seed
        )
        ann = simulate_annotator(gt, profile).labels.reshape(gt.height, gt.width)
        differs = ann != fg
        # disagreement with the clean shape stays inside the bias+jitter band
        band = profile.bias_radius + profile.jitter_amplitude
        assert np.abs(signed[differs]).max() <= band + 1.0
    a = simulate_annotator(gt, AnnotatorProfile(
        bias_radius=1.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=0))
    b = simulate_annotator(gt, AnnotatorProfile(
        bias_radius=1.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=1))
    assert (a.labels == b.labels).mean() > 0.9
    assert not np.array_equal(a.labels, b.labels)


def test_default_profiles_overlap_band():
    profiles = default_profiles(2)
    assert len(profiles) == 2
    scores = []
    for seed in range(12):
        _, gt = generate_scene(SceneSpec(seed=100 + seed))
        a = simulate_annotator(gt, profiles[0])
        b = simulate_annotator(gt, profiles[1])
        scores.append(jaccard(a, b, 1))
    mean = float(np.mean(scores))
    assert 0.75 <= mean <= 0.95


def test_nested_scene_and_annotator():
    img, gt = generate_nested_scene(SceneSpec(seed=10))
    assert gt.num_classes == 3
    labels = gt.labels.reshape(gt.height, gt.width)
    assert set(np.unique(labels)) == {0, 1, 2}
    # the core sits strictly inside the outer region
    assert ((labels == 2) <= (labels >= 1)).all()
    profile = AnnotatorProfile(bias_radius=1.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=3)
    ann = simulate_annotator_nested(gt, profile)
    assert ann.num_classes == 3
    ann_grid = ann.labels.reshape(gt.height, gt.width)
    assert ((ann_grid == 2) <= (ann_grid >= 1)).all()


def test_build_dataset_layout(tmp_path):
    root = tmp_path / "ds"
    ds = build_dataset(
        str(root), n_multi=3, n_unann=4, n_val=2, n_test=2,
        k=2, seed=5, width=32, height=32,
    )
    manifest = (root / "manifest.tsv").read_text().strip().splitlines()
    assert manifest[0] == "id\tsplit\timage\tgt\tmasks\tk"
    assert len(manifest) == 1 + 3 + 4 + 2 + 2
    loaded = load_dataset(str(root))
    assert len(loaded.multi) == 3
    assert len(loaded.unannotated) == 4
    assert len(loaded.validation) == 2
    assert len(loaded.test) == 2
    assert loaded.k == 2
    for sample in loaded.multi:
        assert len(sample.annotations) == 2
        assert sample.clean_gt is not None
        assert sample.image.width == 32
    for sample in loaded.unannotated:
        assert sample.image.height == 32
    for sample in loaded.test:
        assert sample.clean_gt.num_classes == 2


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def test_build_dataset_reproducible(tmp_path):
    kwargs = dict(
        n_multi=2, n_unann=2, n_val=1, n_test=1,
        k=3, seed=9, width=32, height=32,
    )
    a = tmp_path / "a"
    b = tmp_path / "b"
    build_dataset(str(a), **kwargs)
    build_dataset(str(b), **kwargs)
    assert tree_digest(a) == tree_digest(b)


def test_build_dataset_nested(tmp_path):
    root = tmp_path / "nested"
    build_dataset(
        str(root), n_multi=2, n_unann=1, n_val=1, n_test=1,
        k=2, seed=11, width=32, height=32, nested=True,
    )
    ds = load_dataset(str(root))
    assert ds.multi[0].clean_gt.num_classes == 3
    assert ds.multi[0].annotations[0].num_classes == 3


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path / "nope"))
