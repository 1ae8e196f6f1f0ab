"""Mutated files fed to every reader.

Each reader must return a value, or raise ValueError or OSError whose
message names the file it read (for a manifest, the directory it
describes); the config parser raises its usage error instead. Through the
CLI, a mutated dataset or run file gives exit 0, or exit 1 with one
`error:` line that names it, and never a traceback.
"""

import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambiseg.cli import UsageError, entry, parse_config_file
from ambiseg.data import load_dataset, load_mask_pgm, load_tensor
from ambiseg.model import load_checkpoint
from ambiseg.training import load_run


@st.composite
def mutated(draw, original: bytes) -> bytes:
    """`original` after one to four byte edits; positions shrink toward
    the start of the file, where the headers are."""
    blob = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, max(len(blob) - 1, 0)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if edit == "set" and blob:
            blob[at] = byte
        elif edit == "insert":
            blob.insert(at, byte)
        elif edit == "delete" and blob:
            del blob[at]
        elif edit == "truncate":
            del blob[at:]
    return bytes(blob)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """A 16x16 dataset and a two-iteration run trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "ds", root / "run"
    assert entry([
        "gen-data", "--out", str(data), "--seed", "1", "--k", "2", "--n-multi", "1",
        "--n-unann", "1", "--n-val", "1", "--n-test", "1", "--width", "16", "--height", "16",
    ]) == 0
    assert entry([
        "train", "--data", str(data), "--out", str(run),
        "--total-iters", "2", "--validation-every", "1",
    ]) == 0
    config = root / "train.cfg"
    config.write_text("# a run\nseed = 3\nlr = 0.01  # step\nselection = \"fused\"\nout = r\n")
    return {"data": data, "run": run, "config": config, "scratch": root / "scratch"}


def fuzz_copy(sources, tree: str) -> Path:
    """A fresh copy of one source tree to mutate."""
    copy = sources["scratch"] / tree
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(sources[tree], copy)
    return copy


def assert_value_or_named_error(read, path: Path, named: Path, errors=(ValueError, OSError)):
    try:
        read(path)
    except errors as exc:
        assert str(named) in str(exc), f"{type(exc).__name__} names no file: {exc}"


READERS = {
    "tensor": ("data", "images/m000.tns", load_tensor),
    "mask": ("data", "masks/m000_a1.pgm", load_mask_pgm),
    "checkpoint": ("run", "net0.msen", load_checkpoint),
}


@pytest.mark.parametrize("reader", READERS)
@given(data=st.data())
def test_file_reader_names_the_file(reader, sources, data):
    tree, rel, read = READERS[reader]
    path = sources[tree] / rel
    blob = data.draw(mutated(path.read_bytes()))
    target = sources["scratch"] / reader / path.name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(blob)
    assert_value_or_named_error(read, target, target)


MANIFEST_READERS = {"dataset": ("data", load_dataset), "run": ("run", load_run)}


@pytest.mark.parametrize("reader", MANIFEST_READERS)
@given(data=st.data())
def test_manifest_reader_names_the_directory(reader, sources, data):
    tree, read = MANIFEST_READERS[reader]
    blob = data.draw(mutated((sources[tree] / "manifest.tsv").read_bytes()))
    copy = fuzz_copy(sources, tree)
    (copy / "manifest.tsv").write_bytes(blob)
    assert_value_or_named_error(read, copy, copy)


@given(data=st.data())
def test_config_parser_names_the_file(sources, data):
    target = sources["scratch"] / "train.cfg"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(data.draw(mutated(sources["config"].read_bytes())))
    assert_value_or_named_error(parse_config_file, target, target, (UsageError, OSError))


DATASET_FILES = ["manifest.tsv", "images/m000.tns", "images/u000.tns", "gt/t000.pgm",
                 "masks/m000_a0.pgm", "masks/v000_a1.pgm"]
RUN_FILES = ["manifest.tsv", "net0.msen", "net1.msen"]


@given(data=st.data())
def test_cli_contract_under_mutated_files(sources, data):
    tree = data.draw(st.sampled_from(["data", "run"]))
    rel = data.draw(st.sampled_from(DATASET_FILES if tree == "data" else RUN_FILES))
    copy = fuzz_copy(sources, tree)
    path = copy / rel
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    if tree == "data":
        out = sources["scratch"] / "fused"
        args = ["fuse", "--data", str(copy), "--out", str(out), "--strategy", "average-vote"]
    else:
        args = ["eval", "--run", str(copy), "--data", str(sources["data"])]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = entry(args)
    err = err.getvalue()
    if code != 0:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert str(copy) in err, err
