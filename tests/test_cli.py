"""Command-line interface: exit codes, artifacts, reproducibility."""

import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from ambiseg.cli import entry
from ambiseg.data import load_dataset
from ambiseg.fusion import majority_vote
from ambiseg.model import Architecture, init_params, load_checkpoint


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "ds"
    code = entry([
        "gen-data", "--out", str(root), "--seed", "3", "--k", "2",
        "--n-multi", "3", "--n-unann", "3", "--n-val", "2", "--n-test", "2",
        "--width", "32", "--height", "32",
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--total-iters", "10", "--validation-every", "5", "--lr", "0.01",
        "--seed", "5",
    ])
    assert code == 0
    return out


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_gen_data_requires_out():
    assert entry(["gen-data"]) == 2


def test_gen_data_created_manifest(dataset_dir):
    manifest = dataset_dir / "manifest.tsv"
    assert manifest.exists()
    assert len(manifest.read_text().strip().splitlines()) == 1 + 3 + 3 + 2 + 2


def test_gen_data_reproducible(tmp_path):
    args = ["--seed", "9", "--k", "2", "--n-multi", "2", "--n-unann", "1",
            "--n-val", "1", "--n-test", "1", "--width", "32", "--height", "32"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert entry(["gen-data", "--out", str(a)] + args) == 0
    assert entry(["gen-data", "--out", str(b)] + args) == 0
    assert tree_digest(a) == tree_digest(b)


def test_train_missing_dataset(tmp_path):
    code = entry([
        "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
        "--total-iters", "5", "--validation-every", "5",
    ])
    assert code == 1


def test_train_artifacts(run_dir):
    assert (run_dir / "trace.csv").exists()
    assert (run_dir / "net0.msen").exists()
    assert (run_dir / "net1.msen").exists()
    manifest = dict(
        line.split("\t")
        for line in (run_dir / "manifest.tsv").read_text().strip().splitlines()
    )
    assert manifest["k"] == "2"
    assert manifest["total_iters"] == "10"
    config_txt = (run_dir / "config.txt").read_text()
    assert "config_hash" in config_txt
    assert "data_manifest_sha256" in config_txt


def test_train_zero_iterations_keeps_initialization(dataset_dir, tmp_path):
    out = tmp_path / "zero"
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--total-iters", "0", "--validation-every", "5", "--seed", "8",
    ])
    assert code == 0
    manifest = dict(
        line.split("\t")
        for line in (out / "manifest.tsv").read_text().strip().splitlines()
    )
    arch = Architecture(in_channels=1, hidden=8, num_classes=2)
    for k in range(2):
        loaded = load_checkpoint(str(out / f"net{k}.msen"))
        fresh = init_params(arch, seed=int(manifest[f"net{k}_seed"]))
        assert np.array_equal(loaded.flat, fresh.flat)
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace) == 1  # header only


def test_train_config_file_with_override(dataset_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small smoke run\n"
        "total_iters = 10\n"
        "validation_every = 5\n"
        "lr = 0.01\n"
        "seed = 5\n"
    )
    out = tmp_path / "cfgrun"
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--config", str(cfg), "--seed", "12",
    ])
    assert code == 0
    assert "seed\t12" in (out / "manifest.tsv").read_text()


def test_train_rejects_unknown_config_key(dataset_dir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum = 0.9\n")
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
        "--config", str(cfg),
    ])
    assert code == 2


def test_train_rejects_invalid_combination(dataset_dir, tmp_path):
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
        "--total-iters", "7", "--validation-every", "5",
    ])
    assert code == 2


def test_train_matches_library_run(dataset_dir, run_dir, tmp_path):
    from ambiseg.training import TrainConfig, run_training

    ds = load_dataset(str(dataset_dir))
    config = TrainConfig(
        k=2, lr=0.01, total_iters=10, validation_every=5, seed=5,
    )
    result = run_training(ds, config)
    assert (run_dir / "trace.csv").read_text() == result.trace_csv()


def test_eval_fused_and_per_network(run_dir, dataset_dir, tmp_path):
    report = tmp_path / "report.csv"
    code = entry([
        "eval", "--run", str(run_dir), "--data", str(dataset_dir),
        "--out", str(report), "--per-network",
    ])
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "network,class,jaccard,dice"
    scopes = {line.split(",")[0] for line in lines[1:]}
    assert scopes == {"fused", "net0", "net1"}
    for line in lines[1:]:
        parts = line.split(",")
        assert 0.0 <= float(parts[2]) <= 1.0
        assert 0.0 <= float(parts[3]) <= 1.0


def test_eval_missing_run(dataset_dir, tmp_path):
    code = entry([
        "eval", "--run", str(tmp_path / "ghost"), "--data", str(dataset_dir),
    ])
    assert code == 1


def test_single_annotator_run_and_eval(dataset_dir, tmp_path):
    out = tmp_path / "single"
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--total-iters", "10", "--validation-every", "5",
        "--single-annotator", "0", "--lr", "0.01",
    ])
    assert code == 0
    manifest = (out / "manifest.tsv").read_text()
    assert "k\t1" in manifest or "net0_file" in manifest
    report = tmp_path / "single.csv"
    code = entry([
        "eval", "--run", str(out), "--data", str(dataset_dir),
        "--out", str(report), "--per-network",
    ])
    assert code == 0
    lines = report.read_text().strip().splitlines()
    fused = {l.split(",")[1]: l.split(",")[2:] for l in lines[1:]
             if l.startswith("fused,")}
    net0 = {l.split(",")[1]: l.split(",")[2:] for l in lines[1:]
            if l.startswith("net0,")}
    assert fused == net0


def test_ablation_flags(dataset_dir, tmp_path):
    out = tmp_path / "abl"
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--total-iters", "5", "--validation-every", "5", "--lr", "0.01",
        "--ablate-ps", "--ablate-pc",
    ])
    assert code == 0
    config_txt = (out / "config.txt").read_text()
    assert "beta = 0" in config_txt.replace("beta\t", "beta = ") or "beta" in config_txt
    trace = (out / "trace.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in trace[1:]]
    assert all(float(r[4]) == 0.0 for r in rows)  # no pseudo-supervision loss
    assert all(float(r[5]) == 0.0 for r in rows)  # ramp weight forced to zero


def test_fuse_average_vote_matches_library(dataset_dir, tmp_path):
    out = tmp_path / "fused"
    code = entry([
        "fuse", "--data", str(dataset_dir), "--out", str(out),
        "--strategy", "average-vote",
    ])
    assert code == 0
    src = load_dataset(str(dataset_dir))
    fused = load_dataset(str(out))
    assert fused.k == 1
    for orig, new in zip(src.multi, fused.multi):
        assert len(new.annotations) == 1
        expected = majority_vote(orig.annotations)
        assert np.array_equal(new.annotations[0].labels, expected.labels)
        assert np.array_equal(new.image.values, orig.image.values)


def test_fuse_random_reproducible(dataset_dir, tmp_path):
    a = tmp_path / "ra"
    b = tmp_path / "rb"
    for out in (a, b):
        code = entry([
            "fuse", "--data", str(dataset_dir), "--out", str(out),
            "--strategy", "random", "--seed", "7",
        ])
        assert code == 0
    assert tree_digest(a) == tree_digest(b)


def test_fuse_staple_runs(dataset_dir, tmp_path):
    out = tmp_path / "staple"
    code = entry([
        "fuse", "--data", str(dataset_dir), "--out", str(out),
        "--strategy", "staple",
    ])
    assert code == 0
    assert load_dataset(str(out)).k == 1


def test_fuse_unknown_strategy(dataset_dir, tmp_path):
    code = entry([
        "fuse", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
        "--strategy", "blend",
    ])
    assert code == 2


def test_grad_check_passes():
    assert entry(["grad-check", "--instances", "3", "--size", "8"]) == 0


def test_grad_check_detects_corruption():
    assert entry(["grad-check", "--instances", "2", "--size", "8",
                  "--corrupt"]) == 1


def test_unknown_subcommand():
    assert entry(["polish"]) == 2


def test_eval_truncated_checkpoint_is_an_error(
    run_dir, dataset_dir, tmp_path, capsys
):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "net0.msen").write_bytes(b"MSEN\x01\x00")
    code = entry(["eval", "--run", str(run), "--data", str(dataset_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "net0.msen" in err


def test_eval_truncated_image_tensor_is_an_error(
    run_dir, dataset_dir, tmp_path, capsys
):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    image = sorted((data / "images").glob("*.tns"))[0]
    image.write_bytes(image.read_bytes()[:6])
    code = entry(["eval", "--run", str(run_dir), "--data", str(data)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and image.name in err
