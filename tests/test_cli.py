"""Command-line interface: exit codes, artifacts, reproducibility."""

import hashlib
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ambiseg.cli import EXTRA_KEYS, entry, parse_config_file
from ambiseg.data import load_dataset
from ambiseg.fusion import majority_vote
from ambiseg.model import Architecture, init_params, load_checkpoint
from ambiseg.training import TrainConfig


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


@pytest.mark.parametrize("args", [
    ["--n-val", "-1"], ["--n-multi", "-2"], ["--n-test", "-1"], ["--width", "0"],
    ["--height", "7"],
])
def test_gen_data_rejects_bad_sizes_before_writing(args, tmp_path, capsys):
    out = tmp_path / "ds"
    code = entry([
        "gen-data", "--out", str(out), "--n-multi", "1", "--n-unann", "0",
        "--n-val", "1", "--n-test", "1", "--width", "16", "--height", "16", *args,
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


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


# a config-file value for each key, and the value it must parse to
CONFIG_VALUES = {
    "k": ("3", 3),
    "alpha": ("2", 2.0),
    "beta": ("0.5", 0.5),
    "w_max": ("0", 0.0),
    "t_max": ("400", 400),
    "lr": ("1e-3", 1e-3),
    "lr_decay_every": ("100", 100),
    "lr_decay_factor": ("1", 1.0),
    "annotated_per_iter": ("2", 2),
    "unannotated_batch": ("4", 4),
    "total_iters": ("400", 400),
    "validation_every": ("50", 50),
    "seed": ("9", 9),
    "hidden": ("4", 4),
    "selection": ("per-network", "per-network"),
    "data": ("some/ds", "some/ds"),
    "out": ("some/run", "some/run"),
    "strategy": ("staple", "staple"),
}


@pytest.mark.parametrize(
    "key", [f.name for f in fields(TrainConfig)] + list(EXTRA_KEYS)
)
def test_config_file_parses_each_key_by_type(key, tmp_path):
    text, value = CONFIG_VALUES[key]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {text}\n")
    parsed = parse_config_file(cfg)
    assert parsed == {key: value}
    assert type(parsed[key]) is type(value)


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


def test_eval_per_network_forwards_each_image_once_per_network(
    run_dir, dataset_dir, tmp_path, monkeypatch
):
    from ambiseg import model, training
    from ambiseg.fusion import average_fuse
    from ambiseg.masks import argmax_mask
    from ambiseg.metrics import evaluate_masks

    # the report as scope-major code computes it from model.predict_probs:
    # a fused pass over the test split, then one pass per network
    dataset = load_dataset(dataset_dir)
    params = [load_checkpoint(run_dir / f"net{k}.msen") for k in range(2)]
    refs = [s.clean_gt for s in dataset.test]
    fused = [
        argmax_mask(average_fuse([model.predict_probs(p, s.image) for p in params]))
        for s in dataset.test
    ]
    scopes = [("fused", fused)]
    for k, p in enumerate(params):
        preds = [argmax_mask(model.predict_probs(p, s.image)) for s in dataset.test]
        scopes.append((f"net{k}", preds))
    want = ["network,class,jaccard,dice"]
    for name, preds in scopes:
        r = evaluate_masks(preds, refs)
        want += [f"{name},{c},{r.class_jaccard[c]:.6f},{r.class_dice[c]:.6f}"
                 for c in range(r.num_classes)]

    calls = []
    original = model.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # prediction rows call training's binding, predict_probs model's
    for module in (model, training):
        monkeypatch.setattr(module, "forward", counted)
    report = tmp_path / "report.csv"
    assert entry([
        "eval", "--run", str(run_dir), "--data", str(dataset_dir),
        "--out", str(report), "--per-network",
    ]) == 0
    assert len(calls) == len(params) * len(dataset.test)
    assert report.read_text() == "\n".join(want) + "\n"

    # without --per-network: the same forwards, the fused lines only
    calls.clear()
    assert entry([
        "eval", "--run", str(run_dir), "--data", str(dataset_dir),
        "--out", str(report),
    ]) == 0
    assert len(calls) == len(params) * len(dataset.test)
    fused_lines = [want[0]] + [line for line in want if line.startswith("fused,")]
    assert report.read_text() == "\n".join(fused_lines) + "\n"


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


@pytest.mark.parametrize(
    "args", [["--instances", "0"], ["--instances", "-3"], ["--size", "0"]]
)
def test_grad_check_rejects_empty_checks(args, capsys):
    assert entry(["grad-check", *args]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


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


@pytest.mark.parametrize("line, message", [
    ("k2", "expected 'key<TAB>value'"), ("k\ttwo", "k must be an integer"),
])
def test_eval_malformed_manifest_names_file_and_line(
    line, message, run_dir, dataset_dir, tmp_path, capsys
):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    manifest = run / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    assert lines[1] == "k\t2"
    lines[1] = line
    manifest.write_text("\n".join(lines) + "\n")
    code = entry(["eval", "--run", str(run), "--data", str(dataset_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:2: {message}")


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


@pytest.mark.parametrize("rel", ["images/m000.tns", "gt/t000.pgm"])
def test_fuse_truncated_source_is_an_error(rel, dataset_dir, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    path = data / rel
    path.write_bytes(path.read_bytes()[:6])
    out = tmp_path / "fused"
    code = entry([
        "fuse", "--data", str(data), "--out", str(out), "--strategy", "average-vote",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path.name in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "fuse"])
@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("\tmulti\t", "\tmulti ", 1),
     ":2: expected 6 tab-separated fields, got 5"),
    (lambda text: text.replace("\t2\n", "\ttwo\n", 1), ":2: k must be an integer"),
    (lambda text: "", ": unexpected columns []"),
], ids=["five-fields", "k-not-integer", "empty"])
def test_malformed_dataset_manifest_names_file_and_line(
    command, edit, message, dataset_dir, tmp_path, capsys
):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    manifest = data / "manifest.tsv"
    manifest.write_text(edit(manifest.read_text()))
    out = tmp_path / "out"
    args = {"train": ["--total-iters", "2"], "fuse": ["--strategy", "average-vote"]}
    code = entry([command, "--data", str(data), "--out", str(out), *args[command]])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}{message}")
    assert not out.exists()
