"""Command-line surface: dataset generation, training, evaluation,
annotation fusion, and gradient self-verification.

Exit codes: 0 success, 1 runtime or data failure (Ctrl-C included), 2
usage error. Training writes no files: `train` persists the result with
training.write_run, plus its fully-resolved config.txt so the run
directory is self-describing. Every dataset, run directory and report
is published whole through data.publish, so a command that fails leaves
its --out as it was, or absent.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .data import (
    GenerationError, build_dataset, load_dataset, publish, text_lines, write_dataset,
)
from .fusion import FUSION_STRATEGIES, STAPLE_MAX_ITER, fuse_annotations, staple_runs
from .metrics import evaluate_masks
from .model import _prediction_row, gradient_check_report
from .training import (
    TrainConfig,
    TrainingError,
    checkpoint_files,
    config_hash,
    load_run,
    run_training,
    train_single_annotator,
    write_run,
)

# each TrainConfig field parses as its type; Optional[int] parses as int
CONFIG_TYPES = {
    name: next((t for t in get_args(hint) if t is not type(None)), hint)
    for name, hint in get_type_hints(TrainConfig).items()
}
EXTRA_KEYS = ("data", "out")


class UsageError(Exception):
    """Bad flags or config keys; maps to exit code 2."""


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` lines; '#' starts a comment; unknown keys rejected."""
    try:
        lines = text_lines(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip().strip('"')
        if key in EXTRA_KEYS:
            values[key] = text
        elif key in CONFIG_TYPES:
            try:
                values[key] = CONFIG_TYPES[key](text)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {text}") from exc
        else:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
    return values


def resolved_config(config: TrainConfig, data: Path, extras: dict) -> str:
    """The text of a run's config.txt."""
    lines = [f"version = {__version__}"]
    for f in fields(config):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    lines.append(f"data = {data}")
    digest = hashlib.sha256((data / "manifest.tsv").read_bytes()).hexdigest()
    lines.append(f"data_manifest_sha256 = {digest}")
    lines.append(f"config_hash = {config_hash(config)}")
    for key, value in extras.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def check_out_is_not_data(data: Path, out: Path) -> None:
    """An --out that resolves to --data would replace the source."""
    if out.resolve() == data.resolve():
        raise UsageError(f"--out {out} is the --data directory; it would be replaced")


def check_seed(ns: argparse.Namespace) -> None:
    """numpy seeds are non-negative integers."""
    if ns.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {ns.seed}")


def cmd_gen_data(ns: argparse.Namespace) -> int:
    check_seed(ns)
    out = build_dataset(
        out_dir=ns.out,
        n_multi=ns.n_multi,
        n_unann=ns.n_unann,
        n_val=ns.n_val,
        n_test=ns.n_test,
        k=ns.k,
        seed=ns.seed,
        width=ns.width,
        height=ns.height,
        nested=ns.nested,
    )
    print(f"dataset written to {out}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    values: dict = {}
    if ns.config is not None:
        cfg_path = Path(ns.config)
        if not cfg_path.exists():
            raise UsageError(f"config file not found: {cfg_path}")
        values = parse_config_file(cfg_path)

    # a config key without a train flag reads None
    for key in (*EXTRA_KEYS, *CONFIG_TYPES):
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag

    data_path = Path(values.pop("data", "")) if values.get("data") else None
    out_path = Path(values.pop("out", "")) if values.get("out") else None
    if data_path is None:
        raise UsageError("train requires --data (or data= in the config file)")
    if out_path is None:
        raise UsageError("train requires --out (or out= in the config file)")
    check_out_is_not_data(data_path, out_path)
    # rename(2) would refuse a run directory over it, but only after training
    if out_path.exists() and not out_path.is_dir():
        raise NotADirectoryError(f"--out {out_path} exists and is not a directory")

    dataset = load_dataset(data_path)
    if ns.no_unannotated:
        dataset.unannotated = []
    if "k" not in values:
        values["k"] = max(dataset.k, 2)
    if ns.ablate_pc:
        values["beta"] = 0.0
    if ns.ablate_ps:
        values["w_max"] = 0.0
    try:
        config = TrainConfig(**values)
    except (TypeError, TrainingError) as exc:
        raise UsageError(str(exc)) from exc

    extras = {
        "ablate_pc": ns.ablate_pc,
        "ablate_ps": ns.ablate_ps,
        "no_unannotated": ns.no_unannotated,
        "single_annotator": ns.single_annotator,
    }
    config_text = resolved_config(config, data_path, extras)  # the dataset as loaded
    # publish refuses a foreign directory or a leftover sibling on entry,
    # before training
    with publish(out_path) as staged:
        if ns.single_annotator is not None:
            result = train_single_annotator(dataset, config, ns.single_annotator)
        else:
            result = run_training(dataset, config)
        write_run(result, staged)
        (staged / "config.txt").write_text(config_text)
    print(
        f"trained {config.total_iters} iterations; best checkpoint at "
        f"iteration {result.best.iteration} with validation score "
        f"{result.best.score:.4f}; outputs in {out_path}"
    )
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    run_dir = Path(ns.run)
    data_path = Path(ns.data)
    # the report is a file, which rename(2) would refuse over a directory
    if ns.out and Path(ns.out).is_dir():
        raise IsADirectoryError(f"--out {ns.out} exists and is a directory")
    params = load_run(run_dir)
    # every manifest row is checked, and only the test split's files read
    dataset = load_dataset(data_path, splits=("test",))
    if not dataset.test:
        raise ValueError(f"dataset at {data_path} has no test split")

    refs = [s.clean_gt for s in dataset.test]
    alone = range(len(params) if ns.per_network else 0)  # networks scored alone
    names = ["fused"] + [f"net{z}" for z in alone]
    preds = []  # per test image, its mask in each scope
    # one forward per (network, image), each image's into one inference
    # cache; a loadable checkpoint can still overflow, so its row names it
    # instead of warning
    with np.errstate(all="ignore"):
        for i, sample in enumerate(dataset.test):
            row = _prediction_row(params, sample.image)
            bad = row.nonfinite()
            if bad is not None:
                raise ValueError(
                    f"{checkpoint_files(run_dir)[bad]}: network {bad} gives "
                    f"non-finite probabilities on test image {i}"
                )
            preds.append([row.fused()] + [row.mask(z) for z in alone])

    lines = ["network,class,jaccard,dice"]
    summary = []
    for name, scope in zip(names, zip(*preds)):
        report = evaluate_masks(scope, refs)
        for c in range(report.num_classes):
            lines.append(
                f"{name},{c},{report.class_jaccard[c]:.6f},{report.class_dice[c]:.6f}"
            )
        summary.append(f"{name}: foreground jaccard {report.mean_jaccard:.4f}")
    csv_text = "\n".join(lines) + "\n"
    if ns.out:
        with publish(ns.out) as staged:
            staged.write_text(csv_text)
        print(f"report written to {ns.out}")
    else:
        print(csv_text, end="")
    for line in summary:
        print(line)
    return 0


def cmd_fuse(ns: argparse.Namespace) -> int:
    if ns.strategy not in FUSION_STRATEGIES:
        raise UsageError(
            f"unknown strategy {ns.strategy!r}; choose from {FUSION_STRATEGIES}"
        )
    check_seed(ns)
    check_out_is_not_data(Path(ns.data), Path(ns.out))
    dataset = load_dataset(ns.data)
    rng = np.random.default_rng(ns.seed)
    annotated = dataset.multi + dataset.validation
    runs = []  # STAPLE's binary EM runs
    for sample in annotated:
        if ns.strategy == "staple":
            fused, sample_runs = staple_runs(sample.annotations)
            runs += sample_runs
        else:
            fused = fuse_annotations(ns.strategy, sample.annotations, rng=rng)
        sample.annotations = [fused]
    out = write_dataset(ns.out, dataset)
    print(f"fused {len(annotated)} samples with strategy {ns.strategy} into {out}")
    if ns.strategy == "staple":
        capped = sum(not run.converged for run in runs)
        print(
            f"staple: {capped} of {len(runs)} binary EM runs stopped at the "
            f"{STAPLE_MAX_ITER}-iteration cap without converging"
        )
    return 0


def cmd_grad_check(ns: argparse.Namespace) -> int:
    if ns.instances < 1:
        raise UsageError(f"--instances must be >= 1, got {ns.instances}")
    if ns.size < 1:
        raise UsageError(f"--size must be >= 1, got {ns.size}")
    check_seed(ns)
    report = gradient_check_report(seed=ns.seed, instances=ns.instances, size=ns.size)
    for layer, err in report["per_layer"].items():
        print(f"layer {layer}: max relative error {err:.3e}")
    print(
        f"overall max relative error {report['max_rel_error']:.3e} "
        f"over {report['instances']} instances"
    )
    if report["passed"]:
        print("gradient check passed")
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambiseg",
        description=(
            "Ensemble pixel classifiers for segmentation with ambiguous "
            "boundaries: multi-annotator training, consensus pseudo-labels, "
            "and label fusion."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ambiseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--k", type=int, default=2, help="annotators per sample")
    g.add_argument("--n-multi", type=int, default=20)
    g.add_argument("--n-unann", type=int, default=80)
    g.add_argument("--n-val", type=int, default=10)
    g.add_argument("--n-test", type=int, default=50)
    g.add_argument("--width", type=int, default=64)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--nested", action="store_true", help="three-class nested scenes")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train the ensemble on a dataset")
    t.add_argument("--data", help="dataset directory")
    t.add_argument("--out", help="run output directory")
    t.add_argument("--config", help="key-value config file; flags override it")
    t.add_argument("--seed", type=int)
    t.add_argument("--k", type=int, help="number of networks/annotators")
    t.add_argument("--total-iters", type=int, dest="total_iters")
    t.add_argument("--validation-every", type=int, dest="validation_every")
    t.add_argument("--lr", type=float)
    t.add_argument("--w-max", type=float, dest="w_max")
    t.add_argument("--unannotated-batch", type=int, dest="unannotated_batch")
    t.add_argument("--selection", choices=("fused", "per-network"))
    t.add_argument("--ablate-pc", action="store_true",
                   help="drop the prediction-consistency loss")
    t.add_argument("--ablate-ps", action="store_true",
                   help="drop the pseudo-supervision loss")
    t.add_argument("--no-unannotated", action="store_true",
                   help="train without the unannotated pool")
    t.add_argument("--single-annotator", type=int, default=None, metavar="INDEX",
                   help="supervised single-network baseline on one annotator")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a trained run on the test split")
    e.add_argument("--run", required=True, help="run directory with checkpoints")
    e.add_argument("--data", required=True, help="dataset directory")
    e.add_argument("--out", help="write the CSV report here instead of stdout")
    e.add_argument("--per-network", action="store_true",
                   help="also score each network alone")
    e.set_defaults(func=cmd_eval)

    f = sub.add_parser("fuse", help="fuse annotations into single-mask datasets")
    f.add_argument("--data", required=True, help="source dataset directory")
    f.add_argument("--out", required=True, help="fused dataset directory")
    f.add_argument("--strategy", required=True,
                   help="average-vote, random, or staple")
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(func=cmd_fuse)

    c = sub.add_parser("grad-check", help="verify analytic gradients")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--instances", type=int, default=20)
    c.add_argument("--size", type=int, default=8)
    c.set_defaults(func=cmd_grad_check)

    return parser


def entry(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError, GenerationError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
