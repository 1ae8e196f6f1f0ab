"""Synthetic scenes, annotator simulation, dataset build and file IO."""

import hashlib
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import ambiseg
from ambiseg import data
from ambiseg.cli import cmd_fuse, entry
from ambiseg.data import (
    AnnotatorProfile,
    SceneSpec,
    _distance_transform,
    _gaussian_blur,
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
    write_dataset,
)
from ambiseg.fusion import FUSION_STRATEGIES
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


@pytest.mark.parametrize("shape", [(0, 3, 3), (1, 0, 3), (1, 3, 0)])
def test_empty_image_is_rejected_with_its_path(shape, tmp_path):
    path = tmp_path / "empty.tns"
    save_tensor(str(path), np.zeros(shape))
    with pytest.raises(ValueError, match="empty.tns: image width, height and channels"):
        load_image(str(path))


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
    for header in (b"P5", b"P5\n4 ", b"P5\n4 4\n-1\n", b"P5\n" + b"9" * 5000 + b" 2\n1\n"):
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
    ann = simulate_annotator(gt, profile)
    assert ann.num_classes == 3
    ann_grid = ann.labels.reshape(gt.height, gt.width)
    assert ((ann_grid == 2) <= (ann_grid >= 1)).all()
    four = LabelMask.from_grid(labels, num_classes=4)
    with pytest.raises(ValueError, match="got 4 classes"):
        simulate_annotator(four, profile)


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


ORACLE_SHAPES = [(1, 1), (1, 9), (9, 1), (2, 3), (7, 5), (13, 31), (33, 40), (64, 64)]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gaussian_blur_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20)
    # 20.0 has radius 80, more than every side here
    for sigma in (0.3, 1.0, 1.5, 2.7, 20.0):
        for shape in ORACLE_SHAPES:
            img = rng.normal(size=shape)
            got = _gaussian_blur(img, sigma)
            assert same_bits(got, ndimage.gaussian_filter(img, sigma)), (sigma, shape)
            assert got.flags.c_contiguous
    for _ in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 65, size=2))
        img = rng.uniform(0.0, 1.0, size=shape)
        sigma = float(rng.uniform(0.1, 12.0))
        assert same_bits(_gaussian_blur(img, sigma), ndimage.gaussian_filter(img, sigma))


def test_distance_transform_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(21)
    for shape in ORACLE_SHAPES:
        for density in (0.0, 0.02, 0.3, 0.5, 0.7, 0.98, 1.0):
            fg = rng.random(shape) < density
            got = _distance_transform(fg)
            assert same_bits(got, ndimage.distance_transform_edt(fg)), (shape, density)
    for _ in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 65, size=2))
        fg = rng.random(shape) < rng.uniform(0.0, 1.0)
        assert same_bits(_distance_transform(fg), ndimage.distance_transform_edt(fg))
    # no False pixel: the distance to the point (-1, 0)
    got = _distance_transform(np.ones((3, 5), dtype=bool))
    assert got[0, 0] == 1.0 and got[2, 0] == 3.0 and got[2, 4] == 5.0


# sha256 of each dataset tree as built before the filters left scipy;
# any change to a scene, annotation or file format moves these
K2_BENCH_PROFILES = [
    AnnotatorProfile(bias_radius=2.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=1000),
    AnnotatorProfile(bias_radius=0.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=1007),
]
# the first draws no jitter at all
UNJITTERED_PROFILES = [
    AnnotatorProfile(bias_radius=1.5, jitter_amplitude=0.0, jitter_scale=12.0, seed=3),
    AnnotatorProfile(bias_radius=-1.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=4),
]
SPLITS = dict(n_multi=3, n_unann=2, n_val=1, n_test=2)
PINNED_DATASETS = [
    (dict(k=2, profiles=K2_BENCH_PROFILES, seed=5, noise_level=0.08),
     "418eb6537fa877418bcda497ed3217db28c144eeb02df49a3503363fe0d84b79"),
    (dict(k=2, profiles=K2_BENCH_PROFILES, seed=5, width=32, height=32, noise_level=0.08),
     "024a155269e95680726ebbb9e1f9ad6269af60db663a35c32e502aeb75a79048"),
    (dict(k=4, seed=7, width=32, height=32),
     "a97b7d97123d6755da4e439f9769eeef40ca668f51f69d4d797fd2e0427bcfa8"),
    (dict(k=3, seed=11, width=40, height=33, nested=True),
     "0367a6794c5c2ba0797243e482d6a480228017aacf5c7e419e6119788f5d5fd6"),
    # generator branches the cases above leave out
    (dict(k=2, seed=3, width=32, height=32, shape_family="ellipse"),
     "005e940591a90a662e06991bf8ff5a39df1937e4b2ea6e5e880066a5a49facb6"),
    (dict(k=2, seed=4, width=32, height=32, shape_family="ellipse", nested=True),
     "bdc4ebeeaaa69c57b5d81f64fa5dd75876847ee6a716481e9f03471bd9d744ed"),
    (dict(k=2, seed=6, width=32, height=32, contrast=0.3),
     "11d37e61ae762e551e2be80e52ea68d78fab3594e1bf2738247bc51b0d8378f9"),
    (dict(k=2, seed=8, width=32, height=32, blur_radius=0.0, noise_level=0.0),
     "65a62eb635681f508f78598571cd11a275e39b1bac4549111b676e6f3ff6e6c3"),
    (dict(k=2, profiles=UNJITTERED_PROFILES, seed=2, width=32, height=32),
     "31ab1809b82043798d52e8c815729215b4d796486dededc1fba9857ebb353465"),
    (dict(k=2, profiles=UNJITTERED_PROFILES, seed=2, width=32, height=32, nested=True),
     "6d83cb9ee3768268d6f49ee21d47a4c616c5e38ea9e49098edc447410a8181b8"),
]
PINNED_IDS = [
    "k2-64", "k2-32", "k4-32", "k3-nested", "ellipse", "ellipse-nested",
    "contrast-0.3", "unblurred-noiseless", "unjittered", "unjittered-nested",
]


@pytest.mark.parametrize("kwargs,pinned", PINNED_DATASETS)
def test_build_dataset_pinned_digest(kwargs, pinned, tmp_path):
    root = build_dataset(tmp_path / "ds", **SPLITS, **kwargs)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    assert h.hexdigest() == pinned


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("kwargs,pinned", PINNED_DATASETS, ids=PINNED_IDS)
def test_write_dataset_round_trip(kwargs, pinned, tmp_path):
    source = build_dataset(tmp_path / "ds", **SPLITS, **kwargs)
    assert tree_sha256(write_dataset(tmp_path / "copy", load_dataset(source))) == pinned


# sha256 of each `fuse --seed 9` tree as written when fuse copied its
# source files and wrote its own manifest. Seed 9 makes `random` pick
# different raters across samples, multi before val; these raters' masks
# nest, so STAPLE agrees with the majority vote
PINNED_FUSES = [
    (PINNED_DATASETS[1][0], {
        "average-vote": "2571fef99b69a8a8b420b63f4b4a366e9acac5ec076d89f9c8613bece46bc805",
        "random": "979dfe52fdc0e863599cc36c920d0a082108a0ac1a973a57cb503bb753053b04",
        "staple": "2571fef99b69a8a8b420b63f4b4a366e9acac5ec076d89f9c8613bece46bc805",
    }),
    (PINNED_DATASETS[3][0], {
        "average-vote": "97d93ecd4843312f334243eacbfea660416ab61a9478257c3f9a8b76345192dd",
        "random": "3d89ee35e6c68adfe63aa92edfa0d828cddd057420b72a2b2aa9dbde6a77fec5",
        "staple": "97d93ecd4843312f334243eacbfea660416ab61a9478257c3f9a8b76345192dd",
    }),
]


@pytest.mark.parametrize("strategy", FUSION_STRATEGIES)
@pytest.mark.parametrize("kwargs,pinned", PINNED_FUSES, ids=["k2", "k3-nested"])
def test_fuse_pinned_digest(kwargs, pinned, strategy, tmp_path):
    source = build_dataset(tmp_path / "ds", **SPLITS, **kwargs)
    out = tmp_path / "fused"
    assert entry([
        "fuse", "--data", str(source), "--out", str(out),
        "--strategy", strategy, "--seed", "9",
    ]) == 0
    assert tree_sha256(out) == pinned[strategy]


def test_import_leaves_scipy_out():
    src = str(Path(ambiseg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ambiseg, ambiseg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name,value", [
    ("blur_radius", -0.5), ("blur_radius", float("nan")), ("blur_radius", float("inf")),
    ("noise_level", -0.01), ("noise_level", float("nan")), ("noise_level", float("inf")),
    ("contrast", float("nan")), ("contrast", float("-inf")),
])
def test_scene_settings_rejected(name, value, tmp_path):
    with pytest.raises(ValueError, match=name):
        SceneSpec(**{name: value})
    out = tmp_path / "ds"
    with pytest.raises(ValueError, match=name):
        build_dataset(out, n_multi=1, n_unann=0, n_val=0, n_test=0, **{name: value})
    assert not out.exists()


SMALL = dict(n_multi=3, n_unann=1, n_val=1, n_test=1, width=16, height=16)


@pytest.fixture(params=["gen-data", "fuse"])
def write(request, tmp_path_factory):
    """(out, seed=0) -> writes a small dataset into `out` as one command does."""
    if request.param == "gen-data":
        return lambda out, seed=0: build_dataset(out, seed=seed, **SMALL)
    source = build_dataset(tmp_path_factory.mktemp("source") / "ds", **SMALL)
    return lambda out, seed=0: cmd_fuse(
        Namespace(data=source, out=out, strategy="random", seed=seed)
    )


def test_failed_build_removes_what_it_created(write, tmp_path, writes):
    writes.arm(None, None)
    write(tmp_path / "counted")
    total = writes.count
    assert total > 10  # every image, mask and gt file, then the manifest
    shutil.rmtree(tmp_path / "counted")

    fresh = tmp_path / "a" / "b" / "ds"
    for n in range(1, total + 1):
        writes.arm(n, OSError(f"disk full at write {n}"))
        with pytest.raises(OSError, match="disk full"):
            write(fresh)
        assert list(tmp_path.iterdir()) == []
    writes.arm(total // 2, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        write(fresh)
    assert list(tmp_path.iterdir()) == []

    # an empty directory stays empty until a write succeeds
    empty = tmp_path / "empty"
    empty.mkdir()
    writes.arm(total, OSError("disk full"))
    with pytest.raises(OSError, match="disk full"):
        write(empty)
    assert list(empty.iterdir()) == []
    writes.arm(None, None)
    write(empty)
    assert len(load_dataset(empty).multi) == 3


def test_failed_rebuild_keeps_the_old_dataset(write, tmp_path, writes):
    root = tmp_path / "ds"
    writes.arm(None, None)
    write(root)
    total, before = writes.count, tree_sha256(root)
    for n in range(1, total + 1):
        writes.arm(n, OSError(f"disk full at write {n}"))
        with pytest.raises(OSError, match="disk full"):
            write(root, seed=1)
        assert tree_sha256(root) == before
    writes.arm(1, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        write(root, seed=1)
    assert tree_sha256(root) == before
    assert list(tmp_path.iterdir()) == [root]

    writes.arm(None, None)
    write(root, seed=1)
    write(tmp_path / "fresh", seed=1)
    assert tree_sha256(root) == tree_sha256(tmp_path / "fresh") != before


def test_interrupted_swap_restores_the_old_directory(tmp_path, monkeypatch):
    root = build_dataset(tmp_path / "ds", **SMALL)
    before = tree_sha256(root)
    real = os.replace

    def replace(src, dst):
        if Path(src).name == "ds.partial":  # the old tree is already aside
            raise KeyboardInterrupt
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(KeyboardInterrupt):
        build_dataset(root, seed=1, **SMALL)
    assert tree_sha256(root) == before
    assert list(tmp_path.iterdir()) == [root]


def test_rewrite_with_fewer_samples_equals_a_fresh_build(tmp_path):
    root = tmp_path / "ds"
    build_dataset(root, **dict(SMALL, n_multi=4))
    build_dataset(root, **SMALL)
    assert tree_sha256(root) == tree_sha256(build_dataset(tmp_path / "fresh", **SMALL))
    assert not (root / "images" / "m003.tns").exists()


def test_write_dataset_refuses_a_foreign_directory(tmp_path):
    foreign = tmp_path / "notes"
    (foreign / "gt").mkdir(parents=True)
    (foreign / "notes.txt").write_text("keep")
    with pytest.raises(OSError, match="Directory not empty"):
        build_dataset(foreign, **SMALL)
    assert sorted(p.name for p in foreign.rglob("*")) == ["gt", "notes.txt"]


def test_publish_replaces_like_with_like(tmp_path):
    report = tmp_path / "report.csv"
    for text in ("old\n", "new\n"):
        with data.publish(report) as staged:
            staged.write_text(text)
        assert report.read_text() == text

    run = tmp_path / "run"
    for text in ("first", "second"):
        with data.publish(run) as staged:
            staged.mkdir()
            (staged / "manifest.tsv").write_text(text)
        assert (run / "manifest.tsv").read_text() == text
    assert sorted(tmp_path.iterdir()) == [report, run]

    # a file never replaces a directory, nor a directory a file
    with pytest.raises(IsADirectoryError):
        with data.publish(run) as staged:
            staged.write_text("csv")
    with pytest.raises(NotADirectoryError):
        with data.publish(report) as staged:
            staged.mkdir()
    assert report.read_text() == "new\n" and (run / "manifest.tsv").exists()
    assert sorted(tmp_path.iterdir()) == [report, run]


def test_publish_refuses_a_leftover_sibling(tmp_path):
    target = tmp_path / "ds"
    for tag in (".partial", ".old"):
        leftover = tmp_path / f"ds{tag}"
        leftover.mkdir()
        with pytest.raises(FileExistsError, match="in the way"):
            with data.publish(target):
                pass
        assert leftover.is_dir() and not target.exists()
        leftover.rmdir()


def test_publish_refuses_a_foreign_directory_on_entry(tmp_path):
    foreign = tmp_path / "notes"
    foreign.mkdir()
    (foreign / "notes.txt").write_text("keep")
    for stage in (Path.mkdir, Path.touch):  # whatever the caller would stage
        with pytest.raises(OSError, match="Directory not empty") as refused:
            with data.publish(foreign) as staged:
                stage(staged)
                pytest.fail("publish let the caller stage over a foreign directory")
        assert refused.value.filename == str(foreign)
    assert sorted(tmp_path.iterdir()) == [foreign]


def test_publish_keeps_mkdir_modes(tmp_path):
    with data.publish(tmp_path / "a" / "ds") as staged:
        (staged / "images").mkdir(parents=True)
    (tmp_path / "b" / "ds" / "images").mkdir(parents=True)
    for rel in ("", "ds", "ds/images"):
        assert (tmp_path / "a" / rel).stat().st_mode == (tmp_path / "b" / rel).stat().st_mode
