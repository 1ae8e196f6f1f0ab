"""Acceptance gate: eight executable checks over the library's guarantees.

Each test prints one PASS/FAIL line with its measured numbers, then
asserts. Checks 6 through 8 share one dataset and one 5-seed experiment,
built once per module.
"""

import math
import time

import numpy as np
import pytest

from ambiseg.data import AnnotatorProfile, build_dataset, load_dataset
from ambiseg.fusion import average_fuse, staple_binary
from ambiseg.losses import ProbMap, RampUp, masked_cross_entropy, ramp_lambda
from ambiseg.masks import (
    LabelMask,
    PixelSet,
    argmax_mask,
    consensus_set,
    consistency_set,
    full_grid_labels,
    restrict,
    separate_agreement,
)
from ambiseg.metrics import dice, jaccard
from ambiseg.model import gradient_check_report
from ambiseg.training import (
    TrainConfig,
    fused_probs,
    run_training,
    train_single_annotator,
    write_run,
)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_mask(rng, w, h, c):
    return LabelMask(
        width=w, height=h, num_classes=c,
        labels=rng.integers(0, c, size=w * h).astype(np.int32),
    )


def test_criterion_1_set_algebra_oracle(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(1000):
        w = int(rng.integers(2, 33))
        h = int(rng.integers(2, 33))
        c = int(rng.integers(2, 5))
        kk = int(rng.integers(2, 7))
        n = w * h
        a = random_mask(rng, w, h, c)
        b = random_mask(rng, w, h, c)
        agree, disagree = separate_agreement(a, b)
        exp_agree = [i for i in range(n) if a.labels[i] == b.labels[i]]
        exp_dis = [i for i in range(n) if a.labels[i] != b.labels[i]]
        ok = (
            agree.pixels.indices.tolist() == exp_agree
            and agree.labels.tolist() == [int(a.labels[i]) for i in exp_agree]
            and disagree.indices.tolist() == exp_dis
            and sorted(exp_agree + exp_dis) == list(range(n))
        )

        p = random_mask(rng, w, h, c)
        q = random_mask(rng, w, h, c)
        cons = consistency_set(p, q)
        exp_cons = [i for i in range(n) if p.labels[i] == q.labels[i]]
        ok = ok and cons.pixels.indices.tolist() == exp_cons

        refined = restrict(cons, disagree)
        dis_set = set(exp_dis)
        exp_ref = [i for i in exp_cons if i in dis_set]
        ok = ok and (
            refined.pixels.indices.tolist() == exp_ref
            and refined.labels.tolist() == [int(p.labels[i]) for i in exp_ref]
        )

        group = [random_mask(rng, w, h, c) for _ in range(kk)]
        unanimous = consensus_set(group)
        exp_u = [
            i for i in range(n)
            if all(m.labels[i] == group[0].labels[i] for m in group)
        ]
        ok = ok and (
            unanimous.pixels.indices.tolist() == exp_u
            and unanimous.labels.tolist() == [int(group[0].labels[i]) for i in exp_u]
        )
        if not ok:
            mismatches += 1
    elapsed = time.monotonic() - t0
    report(
        capsys, 1, mismatches == 0 and elapsed < 10.0,
        f"1000 instances, {mismatches} oracle mismatches, {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_loss_and_model_gradients(capsys):
    t0 = time.monotonic()
    mask = LabelMask(
        width=4, height=4, num_classes=2,
        labels=np.zeros(16, dtype=np.int32),
    )
    uniform = ProbMap(width=4, height=4, num_classes=2, probs=np.full((16, 2), 0.5))
    loss, _ = masked_cross_entropy(uniform, full_grid_labels(mask))
    ln2_err = abs(loss - math.log(2.0))
    empty_loss, _ = masked_cross_entropy(
        uniform,
        restrict(consistency_set(mask, mask),
                 PixelSet(np.zeros(16, dtype=bool))),
    )
    grad = gradient_check_report(seed=0, instances=20, size=8)
    elapsed = time.monotonic() - t0
    ok = (
        ln2_err < 1e-9
        and empty_loss == 0.0
        and grad["passed"]
        and grad["max_rel_error"] < 1e-4
        and elapsed < 60.0
    )
    report(
        capsys, 2, ok,
        f"ln2 err {ln2_err:.2e}, empty-set loss {empty_loss}, "
        f"max FD rel err {grad['max_rel_error']:.2e} over 20 instances, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_ramp_schedule(capsys):
    t0 = time.monotonic()
    w_max, t_max = 0.1, 4000
    schedule = RampUp(w_max=w_max, t_max=t_max)
    start_err = abs(ramp_lambda(0, schedule) - w_max * math.exp(-5.0))
    end_exact = ramp_lambda(t_max, schedule) == w_max
    ts = np.linspace(0, t_max, 1000)
    values = [ramp_lambda(float(t), schedule) for t in ts]
    increasing = all(x < y for x, y in zip(values, values[1:]))
    elapsed = time.monotonic() - t0
    ok = start_err < 1e-15 and end_exact and increasing and elapsed < 1.0
    report(
        capsys, 3, ok,
        f"lambda(0) err {start_err:.1e}, lambda(t_max)==w_max {end_exact}, "
        f"strictly increasing over 1000 samples {increasing}, "
        f"{elapsed:.2f}s (limit 1s)",
    )


def test_criterion_4_staple_em(capsys):
    # random instances are drawn from the annotator simulator: a shared
    # truth observed through per-annotator bias and jitter, the regime
    # the EM's generative model assumes
    from ambiseg.data import (
        AnnotatorProfile, SceneSpec, generate_scene, simulate_annotator,
    )

    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    labels = (rng.random(1024) < 0.4).astype(np.int32)
    m = LabelMask(width=32, height=32, num_classes=2, labels=labels)
    unanimous = staple_binary([m, m, m])
    fixed_point = (
        np.array_equal(unanimous.fused.labels, labels)
        and unanimous.iterations_used <= 2
        and unanimous.converged
    )
    all_converged = True
    monotone = True
    max_iters = 0
    for _ in range(50):
        _, gt = generate_scene(
            SceneSpec(width=32, height=32, seed=int(rng.integers(1_000_000)))
        )
        masks = []
        for _ in range(3):
            profile = AnnotatorProfile(
                bias_radius=float(rng.uniform(-1.5, 1.5)),
                jitter_amplitude=float(rng.uniform(0.3, 1.2)),
                jitter_scale=float(rng.uniform(8, 16)),
                seed=int(rng.integers(1_000_000)),
            )
            masks.append(simulate_annotator(gt, profile))
        result = staple_binary(masks)
        all_converged = all_converged and result.converged
        all_converged = all_converged and result.iterations_used <= 100
        max_iters = max(max_iters, result.iterations_used)
        diffs = np.diff(np.asarray(result.objective_trace))
        monotone = monotone and bool((diffs >= -1e-9).all())
    elapsed = time.monotonic() - t0
    ok = fixed_point and all_converged and monotone and elapsed < 30.0
    report(
        capsys, 4, ok,
        f"unanimity fixed point {fixed_point}, 50/50 converged "
        f"{all_converged} (max {max_iters} iterations), objective monotone "
        f"{monotone}, {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_5_fusion_identities(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)

    raw = rng.uniform(0.05, 1.0, size=(64, 3))
    p = ProbMap(width=8, height=8, num_classes=3,
                probs=raw / raw.sum(axis=1, keepdims=True))
    identity_err = np.abs(average_fuse([p, p, p]).probs - p.probs).max()

    unanimous_ok = True
    for _ in range(50):
        maps = []
        for _ in range(3):
            raw = rng.uniform(0.05, 1.0, size=(64, 3))
            maps.append(ProbMap(width=8, height=8, num_classes=3,
                                probs=raw / raw.sum(axis=1, keepdims=True)))
        votes = np.stack([argmax_mask(q).labels for q in maps])
        fused_labels = argmax_mask(average_fuse(maps)).labels
        agree = (votes == votes[0]).all(axis=0)
        unanimous_ok = unanimous_ok and bool(
            np.array_equal(fused_labels[agree], votes[0][agree])
        )

    identity_max = 0.0
    for _ in range(1000):
        a = random_mask(rng, 8, 8, 2)
        b = random_mask(rng, 8, 8, 2)
        j = jaccard(a, b, 1)
        d = dice(a, b, 1)
        identity_max = max(identity_max, abs(d - 2 * j / (1 + j)))
    elapsed = time.monotonic() - t0
    ok = (
        identity_err < 1e-12
        and unanimous_ok
        and identity_max < 1e-12
        and elapsed < 10.0
    )
    report(
        capsys, 5, ok,
        f"average-fuse identity err {identity_err:.1e}, unanimous argmax "
        f"respected {unanimous_ok}, dice identity max err {identity_max:.1e} "
        f"over 1000 pairs, {elapsed:.1f}s (limit 10s)",
    )


EXPERIMENT_PROFILES = [
    AnnotatorProfile(bias_radius=2.0, jitter_amplitude=0.8,
                     jitter_scale=12.0, seed=1000),
    AnnotatorProfile(bias_radius=0.0, jitter_amplitude=0.8,
                     jitter_scale=12.0, seed=1007),
]
EXPERIMENT_CONFIG = dict(
    k=2, lr=0.02, total_iters=800, validation_every=50, unannotated_batch=3,
)


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept") / "bench"
    build_dataset(
        str(root), n_multi=20, n_unann=80, n_val=10, n_test=50,
        k=2, seed=0, width=64, height=64, noise_level=0.08,
        profiles=EXPERIMENT_PROFILES,
    )
    return load_dataset(str(root))


def fused_test_jaccard(params_list, dataset):
    return float(np.mean([
        jaccard(argmax_mask(fused_probs(params_list, s.image)), s.clean_gt, 1)
        for s in dataset.test
    ]))


@pytest.fixture(scope="module")
def experiment(bench_dataset):
    """Five seeds of full method vs single-annotator baseline vs ablation."""
    t0 = time.monotonic()
    out = {"seeds": [], "elapsed": 0.0}
    for seed in range(5):
        full = run_training(
            bench_dataset, TrainConfig(seed=seed, **EXPERIMENT_CONFIG)
        )
        single = train_single_annotator(
            bench_dataset, TrainConfig(seed=seed, **EXPERIMENT_CONFIG), annotator=0
        )
        ablation = run_training(
            bench_dataset,
            TrainConfig(seed=seed, beta=0.0, w_max=0.0, **EXPERIMENT_CONFIG),
        )
        out["seeds"].append({
            "full": fused_test_jaccard(full.best.params, bench_dataset),
            "single": fused_test_jaccard(single.best.params, bench_dataset),
            "ablation": fused_test_jaccard(ablation.best.params, bench_dataset),
            "worst_net": min(
                fused_test_jaccard([p], bench_dataset) for p in full.best.params
            ),
            "agreement_start": full.trace[0].agreement,
            "agreement_final": full.trace[-1].agreement,
        })
    out["elapsed"] = time.monotonic() - t0
    return out


@pytest.mark.slow
def test_criterion_6_determinism(capsys, bench_dataset, tmp_path):
    t0 = time.monotonic()
    config = TrainConfig(
        k=2, lr=0.02, total_iters=100, validation_every=50, seed=0,
    )
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        write_run(run_training(bench_dataset, config), d)
    same = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("trace.csv", "net0.msen", "net1.msen", "manifest.tsv")
    )
    elapsed = time.monotonic() - t0
    ok = same and elapsed < 120.0
    report(
        capsys, 6, ok,
        f"two 100-iteration runs byte-identical {same}, "
        f"{elapsed:.1f}s (limit 120s)",
    )


@pytest.mark.slow
def test_criterion_7_directional_experiment(capsys, experiment):
    seeds = experiment["seeds"]
    mean_full = float(np.mean([s["full"] for s in seeds]))
    mean_single = float(np.mean([s["single"] for s in seeds]))
    mean_ablation = float(np.mean([s["ablation"] for s in seeds]))
    gap_single = 100.0 * (mean_full - mean_single)
    gap_ablation = 100.0 * (mean_full - mean_ablation)
    fused_never_worst = all(s["full"] >= s["worst_net"] for s in seeds)
    elapsed = experiment["elapsed"]
    ok = (
        gap_single >= 1.0
        and gap_ablation >= 0.5
        and fused_never_worst
        and elapsed < 1800.0
    )
    report(
        capsys, 7, ok,
        f"mean fused {mean_full:.4f} vs single {mean_single:.4f} "
        f"(+{gap_single:.2f}pt, need >=1.0) and vs ablation {mean_ablation:.4f} "
        f"(+{gap_ablation:.2f}pt, need >=0.5); fused>=worst in all seeds "
        f"{fused_never_worst}; {elapsed:.0f}s (limit 1800s)",
    )


@pytest.mark.slow
def test_criterion_8_consistency_growth(capsys, experiment):
    seeds = experiment["seeds"]
    grew = [s["agreement_final"] > s["agreement_start"] for s in seeds]
    pairs = ", ".join(
        f"{s['agreement_start']:.4f}->{s['agreement_final']:.4f}" for s in seeds
    )
    report(
        capsys, 8, all(grew),
        f"inter-network agreement grew in {sum(grew)}/5 seeds ({pairs})",
    )
