"""Command-line interface: exit codes, artifacts, reproducibility."""

import ast
import hashlib
import multiprocessing
import os
import shutil
import signal
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ambiseg import cli
from ambiseg.cli import EXTRA_KEYS, entry, parse_config_file
from ambiseg.data import load_dataset, save_tensor
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


def test_cli_imports_no_file_format_helpers():
    """Dataset and run directories are read and written by data and training."""
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    helpers = {"load_mask_pgm", "save_mask_pgm", "save_image", "load_checkpoint"}
    assert imported, "no imports found in cli.py"
    assert imported & helpers == set()


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


def test_gen_data_unsatisfiable_scene_is_an_error(tmp_path, capsys):
    out = tmp_path / "X"
    code = entry(["gen-data", "--out", str(out), "--width", "8", "--height", "300"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no shape met the 5-60% area constraint")
    assert "Traceback" not in err
    assert not out.exists()


def test_gen_data_mid_build_failure_leaves_nothing(tmp_path, monkeypatch, capsys):
    from ambiseg import data

    real = data.generate_scene
    calls = []

    def flaky_scene(spec):
        calls.append(spec.seed)
        if len(calls) == 3:
            raise data.GenerationError(f"no shape for seed {spec.seed}")
        return real(spec)

    monkeypatch.setattr(data, "generate_scene", flaky_scene)
    out = tmp_path / "nested" / "ds"
    code = entry([
        "gen-data", "--out", str(out), "--n-multi", "2", "--n-unann", "2",
        "--n-val", "1", "--n-test", "1", "--width", "16", "--height", "16",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no shape for seed")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "eval", "fuse"])
def test_train_missing_dataset(command, run_dir, tmp_path, capsys):
    missing = tmp_path / "nope"
    args = {
        "train": ["--out", str(tmp_path / "o"), "--total-iters", "5",
                  "--validation-every", "5"],
        "eval": ["--run", str(run_dir)],
        "fuse": ["--out", str(tmp_path / "o"), "--strategy", "random"],
    }
    assert entry([command, "--data", str(missing), *args[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(missing) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


def test_train_rejects_unknown_config_key(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key in ("momentum = 0.9", "strategy = staple"):  # fuse's, not train's
        cfg.write_text(key + "\n")
        code = entry([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
            "--config", str(cfg),
        ])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err


def test_train_rejects_invalid_combination(dataset_dir, tmp_path):
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
        "--total-iters", "7", "--validation-every", "5",
    ])
    assert code == 2


@pytest.mark.parametrize(
    "flags,config",
    [
        (["--lr", "nan"], ""),
        (["--lr", "inf"], ""),
        (["--w-max", "nan"], ""),
        ([], "alpha = nan\n"),
        ([], "beta = -inf\n"),
        ([], "lr_decay_factor = nan\n"),
    ],
)
def test_train_rejects_non_finite_values_as_usage(
    flags, config, dataset_dir, tmp_path, capsys
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    code = entry([
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--config", str(cfg), "--total-iters", "5", "--validation-every", "5",
        *flags,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and "must be finite" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,config", [
    ("gen-data", ""), ("fuse", ""), ("train", ""), ("train", "seed = -1\n"),
], ids=["gen-data", "fuse", "train", "train-config"])
def test_negative_seed_is_a_usage_error(command, config, dataset_dir, tmp_path, capsys):
    out = tmp_path / "o"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    args = {
        "gen-data": ["--out", out],
        "fuse": ["--data", dataset_dir, "--out", out, "--strategy", "random"],
        "train": ["--data", dataset_dir, "--out", out, "--config", cfg,
                  "--total-iters", "5", "--validation-every", "5"],
    }[command]
    seed = [] if config else ["--seed", "-1"]
    assert entry([command, *map(str, args), *seed]) == 2
    err = capsys.readouterr().err
    # a flag is named as given; a config file's key as written there
    named = "seed" if config or command == "train" else "--seed"
    assert err == f"usage error: {named} must be >= 0, got -1\n"
    assert not out.exists()


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
    "args",
    [["--instances", "0"], ["--instances", "-3"], ["--size", "0"], ["--seed", "-1"]],
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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_image_is_an_error(command, run_dir, dataset_dir, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    # unannotated images have no masks whose shape could reveal them
    empty = sorted((data / "images").glob("u*.tns"))
    for image in empty:
        save_tensor(image, np.zeros((1, 0, 0)))
    if command == "train":
        args = train_args(data, tmp_path / "run", iters="10")
    else:
        args = ["eval", "--run", str(run_dir), "--data", str(data)]
    assert entry(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and empty[0].name in err


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
    (lambda text: text.replace("\tmulti\t", "\tmult\t", 1), ":2: unknown split 'mult'"),
    (lambda text: text.replace(";masks/m000_a1.pgm\t2\n", "\t2\n"),
     ":2: row m000 mask count mismatch"),
    (lambda text: text.replace("\tmasks/m000_a0.pgm;masks/m000_a1.pgm\t2\n", "\t\t0\n"),
     ":2: row m000: multi-annotated samples need at least one mask"),
    (lambda text: text.replace("\tmasks/v000_a0.pgm;masks/v000_a1.pgm\t2\n", "\t\t0\n"),
     ":8: row v000: multi-annotated samples need at least one mask"),
    (lambda text: text.replace("\tgt/t000.pgm\t", "\t\t"), ":10: test row t000 lacks gt"),
], ids=["five-fields", "k-not-integer", "empty", "unknown-split", "mask-count",
        "multi-no-masks", "val-no-masks", "test-no-gt"])
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


def test_mask_label_beyond_maxval_names_the_file(dataset_dir, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    mask = data / "masks" / "m000_a0.pgm"
    blob = mask.read_bytes()
    assert blob.startswith(b"P5\n32 32\n1\n")
    mask.write_bytes(blob[:-1] + b"\x02")  # maxval 1: labels 0 and 1 only
    assert entry(train_args(data, tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {mask}: label values must lie in [0, num_classes)\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["train-data", "fuse-data", "eval-run", "train-config"])
def test_a_file_that_is_not_utf8_is_named(case, dataset_dir, run_dir, tmp_path, capsys):
    data, run, cfg, out = tmp_path / "ds", tmp_path / "run", tmp_path / "run.cfg", tmp_path / "out"
    shutil.copytree(dataset_dir, data)
    shutil.copytree(run_dir, run)
    cfg.write_text("total_iters = 10\n")
    fuse = ["fuse", "--data", str(data), "--out", str(out), "--strategy", "average-vote"]
    bad, code, args = {  # the file made undecodable, the exit code, the command
        "train-data": (data / "manifest.tsv", 1, train_args(data, out)),
        "fuse-data": (data / "manifest.tsv", 1, fuse),
        "eval-run": (run / "manifest.tsv", 1, ["eval", "--run", str(run), "--data", str(data)]),
        "train-config": (cfg, 2, train_args(data, out) + ["--config", str(cfg)]),
    }[case]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    assert entry(args) == code
    err = capsys.readouterr().err
    kind = "usage error" if code == 2 else "error"
    assert err.startswith(f"{kind}: {bad}: not utf-8 text: ") and err.count("\n") == 1, err
    assert not out.exists()


def train_args(dataset_dir, out, iters="20"):
    return ["train", "--data", str(dataset_dir), "--out", str(out),
            "--total-iters", iters, "--validation-every", "10", "--lr", "0.01"]


def test_train_without_validation_split_leaves_nothing(tmp_path, capsys):
    data = tmp_path / "ds"
    assert entry([
        "gen-data", "--out", str(data), "--n-multi", "2", "--n-unann", "1",
        "--n-val", "0", "--n-test", "1", "--width", "16", "--height", "16",
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert entry(train_args(data, out)) == 1
    assert capsys.readouterr().err == "error: training requires a validation split\n"
    assert not out.exists()


def two_executors_with_failing_worker(monkeypatch, hook):
    """Train on two executors; hook() runs before each backward in the worker."""
    from ambiseg import training

    parent = os.getpid()
    original = training.backward

    def wrapped(*args):
        if os.getpid() != parent:
            hook()
        return original(*args)

    monkeypatch.setattr(training, "_executor_count", lambda images: min(images, 2))
    monkeypatch.setattr(training, "backward", wrapped)


def fail():
    raise RuntimeError("boom in worker")


def test_train_worker_failure_is_one_error_line(dataset_dir, tmp_path, monkeypatch, capfd):
    two_executors_with_failing_worker(monkeypatch, fail)
    out = tmp_path / "run"
    assert entry(train_args(dataset_dir, out)) == 1
    err = capfd.readouterr().err
    assert err == "error: training worker 1 failed: RuntimeError: boom in worker\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_train_ctrl_c_is_one_error_line(dataset_dir, tmp_path, monkeypatch, capfd):
    two_executors_with_failing_worker(monkeypatch, lambda: time.sleep(0.2))
    out = tmp_path / "run"
    main = threading.main_thread().ident
    timer = threading.Timer(0.5, signal.pthread_kill, (main, signal.SIGINT))
    timer.start()
    try:
        code = entry(train_args(dataset_dir, out, iters="200"))
    finally:
        timer.cancel()
    assert code == 1
    err = capfd.readouterr().err
    assert err.startswith("error: training interrupted at iteration ")
    assert err.count("\n") == 1
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_ctrl_c_outside_training_is_an_error(tmp_path, monkeypatch, capsys):
    from ambiseg import cli

    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_dataset", interrupted)
    assert entry(["gen-data", "--out", str(tmp_path / "ds")]) == 1
    assert capsys.readouterr().err == "error: interrupted\n"


def test_train_out_is_a_file_is_an_error(dataset_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    out.write_text("not a directory")
    no_training(monkeypatch)
    # refused before the dataset is loaded: a missing --data is not reached
    for data in (dataset_dir, tmp_path / "missing"):
        assert entry(train_args(data, out, iters="10")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert out.read_text() == "not a directory"


def test_train_out_is_the_data_directory_is_a_usage_error(dataset_dir, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    before = tree_digest(data)
    same = tmp_path / "elsewhere" / ".." / "ds"
    assert entry(train_args(data, same, iters="10")) == 2
    assert capsys.readouterr().err.startswith("usage error: --out")
    assert tree_digest(data) == before


# the arguments of each command that publishes its --out
PUBLISHERS = {
    "gen-data": lambda data, run, out: [
        "gen-data", "--out", out, "--n-multi", "2", "--n-unann", "1", "--n-val", "1",
        "--n-test", "1", "--width", "16", "--height", "16"],
    "fuse": lambda data, run, out: [
        "fuse", "--data", data, "--out", out, "--strategy", "random"],
    "train": lambda data, run, out: [
        "train", "--data", data, "--out", out, "--total-iters", "2",
        "--validation-every", "1", "--lr", "0.01"],
    "eval": lambda data, run, out: [
        "eval", "--run", run, "--data", data, "--out", out, "--per-network"],
}


def artifact(path: Path):
    return tree_digest(path) if path.is_dir() else path.read_bytes()


@pytest.mark.parametrize("command", PUBLISHERS)
def test_failed_write_leaves_the_old_artifact_or_nothing(
    command, dataset_dir, run_dir, tmp_path, writes, capsys
):
    def args(out):
        return [str(a) for a in PUBLISHERS[command](dataset_dir, run_dir, out)]

    old, fresh = tmp_path / "old", tmp_path / "new" / "out"
    writes.arm(None, None)
    assert entry(args(old)) == 0
    total, before = writes.count, artifact(old)
    # train: trace, each checkpoint, the run manifest, config.txt
    assert total == {"train": 5, "eval": 1}.get(command, total)
    for n in range(1, total + 1):
        for out in (old, fresh):
            writes.arm(n, OSError(f"disk full at write {n}"))
            assert entry(args(out)) == 1
            assert capsys.readouterr().err == f"error: disk full at write {n}\n"
            assert artifact(old) == before
            assert sorted(tmp_path.iterdir()) == [old]
    writes.arm(total, KeyboardInterrupt())
    assert entry(args(old)) == 1
    assert capsys.readouterr().err == "error: interrupted\n"
    assert artifact(old) == before
    assert sorted(tmp_path.iterdir()) == [old]
    # the same command into missing parents writes the same bytes
    writes.arm(None, None)
    assert entry(args(fresh)) == 0
    assert artifact(fresh) == before


def no_training(monkeypatch):
    """Make any training run fail the test: --out is checked before training."""
    from ambiseg import training

    def trained(*args):
        pytest.fail("trained before --out was checked")

    monkeypatch.setattr(training, "_train", trained)


@pytest.mark.parametrize("command", PUBLISHERS)
def test_out_over_a_foreign_directory_is_an_error(
    command, dataset_dir, run_dir, tmp_path, monkeypatch, capsys
):
    foreign = tmp_path / "mine"
    (foreign / "sub").mkdir(parents=True)
    (foreign / "notes.txt").write_text("keep")
    before = tree_digest(foreign)
    args = [str(a) for a in PUBLISHERS[command](dataset_dir, run_dir, foreign)]
    no_training(monkeypatch)
    assert entry(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(foreign) in err
    assert "Directory not empty" in err or "Is a directory" in err  # eval's report
    assert tree_digest(foreign) == before and (foreign / "sub").is_dir()


@pytest.mark.parametrize("tag", [".partial", ".old"])
def test_train_refuses_a_leftover_sibling_before_training(
    tag, dataset_dir, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "run"
    leftover = tmp_path / f"run{tag}"
    leftover.mkdir()
    no_training(monkeypatch)
    # without the run, a `.old` is the only copy of it: a swap was killed
    advice = {".partial": "remove it",
              ".old": f"it holds the previous run, so rename it back to {out}"}[tag]
    try:
        assert entry(train_args(dataset_dir, out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {leftover} is in the way of {out}; {advice}\n"
        assert leftover.is_dir() and not out.exists()
        out.mkdir()
        assert entry(train_args(dataset_dir, out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {leftover} is in the way of {out}; remove it\n"
    finally:
        leftover.rmdir()


def test_eval_out_over_a_dataset_is_an_error(dataset_dir, run_dir, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    before = tree_digest(data)
    args = [str(a) for a in PUBLISHERS["eval"](dataset_dir, run_dir, data)]
    assert entry(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1
    assert str(data) in err
    assert tree_digest(data) == before
