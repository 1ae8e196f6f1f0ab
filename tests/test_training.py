"""Ensemble trainer: loss assembly, scheduling, determinism, run artifacts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ambiseg.data import (
    AnnotatorProfile,
    MultiAnnotatedSample,
    SceneSpec,
    UnannotatedSample,
    build_dataset,
    generate_scene,
    load_dataset,
    simulate_annotator,
)
from ambiseg.losses import softmax, total_network_loss
from ambiseg.model import (
    Architecture,
    ModelParams,
    adam_step,
    forward,
    init_opt_state,
    init_params,
    layer_slices,
    load_checkpoint,
)
from ambiseg.training import (
    TRACE_HEADER,
    EnsembleState,
    NetworkSlot,
    TrainConfig,
    TrainingError,
    config_hash,
    ensemble_agreement,
    fused_validation_score,
    mnps_loss,
    network_validation_score,
    npce_losses,
    pick_comparison,
    run_training,
    train_iteration,
    train_single_annotator,
    validation_references,
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "tiny"
    build_dataset(
        str(root), n_multi=3, n_unann=3, n_val=2, n_test=1,
        k=2, seed=21, width=32, height=32,
    )
    return load_dataset(str(root))


def make_sample(seed, k=2, size=16):
    image, gt = generate_scene(SceneSpec(width=size, height=size, seed=seed))
    profiles = [
        AnnotatorProfile(bias_radius=b, jitter_amplitude=0.8,
                         jitter_scale=12.0, seed=900 + i)
        for i, b in enumerate(np.linspace(1.0, -1.0, k))
    ]
    anns = [simulate_annotator(gt, p) for p in profiles]
    return MultiAnnotatedSample(image=image, annotations=anns, clean_gt=gt)


def make_nets(n, size=16, seed0=0):
    arch = Architecture()
    return [init_params(arch, seed=seed0 + i) for i in range(n)]


def clean_room_npce(snapshot, sample, k, j):
    """Straight-line per-pixel recomputation of both annotated losses."""
    logits_k, _ = forward(snapshot[k], sample.image)
    p_k = softmax(logits_k)
    logits_j, _ = forward(snapshot[j], sample.image)
    pred_k = p_k.argmax(axis=1)
    pred_j = softmax(logits_j).argmax(axis=1)
    ann_k = sample.annotations[k].labels
    ann_j = sample.annotations[j].labels

    agree_terms = [
        -math.log(max(p_k[i, ann_k[i]], 1e-12))
        for i in range(len(ann_k))
        if ann_k[i] == ann_j[i]
    ]
    l_ma = sum(agree_terms) / len(agree_terms) if agree_terms else 0.0

    refined_terms = [
        -math.log(max(p_k[i, pred_k[i]], 1e-12))
        for i in range(len(ann_k))
        if ann_k[i] != ann_j[i] and pred_k[i] == pred_j[i]
    ]
    l_pc = sum(refined_terms) / len(refined_terms) if refined_terms else 0.0
    return l_ma, l_pc


def clean_room_mnps(snapshot, sample, k):
    preds = []
    for z in range(len(snapshot)):
        if z == k:
            continue
        logits, _ = forward(snapshot[z], sample.image)
        preds.append(softmax(logits).argmax(axis=1))
    votes = np.stack(preds)
    logits_k, _ = forward(snapshot[k], sample.image)
    p_k = softmax(logits_k)
    terms = [
        -math.log(max(p_k[i, votes[0, i]], 1e-12))
        for i in range(votes.shape[1])
        if (votes[:, i] == votes[0, i]).all()
    ]
    return sum(terms) / len(terms) if terms else 0.0


def test_pick_comparison_two_nets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert pick_comparison(0, 2, rng) == 1
        assert pick_comparison(1, 2, rng) == 0


def test_pick_comparison_uniform_and_deterministic():
    rng = np.random.default_rng(1)
    draws = [pick_comparison(1, 3, rng) for _ in range(10_000)]
    counts = np.bincount(draws, minlength=3)
    assert counts[1] == 0
    for peer in (0, 2):
        assert 0.47 < counts[peer] / 10_000 < 0.53
    a = pick_comparison(0, 5, np.random.default_rng(99))
    b = pick_comparison(0, 5, np.random.default_rng(99))
    assert a == b
    with pytest.raises(TrainingError):
        pick_comparison(0, 1, rng)


def test_npce_losses_match_clean_room():
    snapshot = make_nets(2)
    for seed in range(6):
        sample = make_sample(seed)
        for k, j in ((0, 1), (1, 0)):
            l_ma, l_pc, grad = npce_losses(snapshot, sample, k, j)
            ref_ma, ref_pc = clean_room_npce(snapshot, sample, k, j)
            assert l_ma == pytest.approx(ref_ma, abs=1e-10)
            assert l_pc == pytest.approx(ref_pc, abs=1e-10)
            assert grad.shape == snapshot[k].flat.shape
            assert np.isfinite(grad).all()


def test_npce_identical_annotations_kill_consistency_term():
    snapshot = make_nets(2)
    sample = make_sample(3)
    same = MultiAnnotatedSample(
        image=sample.image,
        annotations=[sample.annotations[0], sample.annotations[0]],
        clean_gt=sample.clean_gt,
    )
    _, l_pc, _ = npce_losses(snapshot, same, 0, 1)
    assert l_pc == 0.0


def test_npce_rejects_self_comparison():
    snapshot = make_nets(2)
    sample = make_sample(4)
    with pytest.raises(ValueError):
        npce_losses(snapshot, sample, 0, 0)


def test_npce_gradient_finite_difference_smooth_block():
    # perturb only the final 1x1 layer: the objective is smooth there
    snapshot = make_nets(2)
    sample = make_sample(5)
    arch = snapshot[0].arch
    slices = layer_slices(arch)
    _, _, grad = npce_losses(snapshot, sample, 0, 1, alpha=1.0, beta=0.0)
    rng = np.random.default_rng(2)
    coords = rng.choice(
        np.r_[np.arange(*slices["w3"].indices(len(snapshot[0].flat))[:2]),
              np.arange(*slices["b3"].indices(len(snapshot[0].flat))[:2])],
        size=6, replace=False,
    )
    step = 1e-6
    for c in coords:
        plus = snapshot[0].flat.copy()
        plus[c] += step
        minus = snapshot[0].flat.copy()
        minus[c] -= step
        snap_p = [ModelParams(arch=arch, flat=plus, seed=0), snapshot[1]]
        snap_m = [ModelParams(arch=arch, flat=minus, seed=0), snapshot[1]]
        f_p = clean_room_npce(snap_p, sample, 0, 1)[0]
        f_m = clean_room_npce(snap_m, sample, 0, 1)[0]
        fd = (f_p - f_m) / (2 * step)
        assert grad[c] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_mnps_matches_clean_room():
    snapshot = make_nets(4, seed0=10)
    for seed in range(4):
        image, _ = generate_scene(SceneSpec(width=16, height=16, seed=40 + seed))
        sample = UnannotatedSample(image=image)
        for k in range(4):
            l_ps, grad = mnps_loss(snapshot, sample, k)
            assert l_ps == pytest.approx(
                clean_room_mnps(snapshot, sample, k), abs=1e-10
            )
            assert np.isfinite(grad).all()


def test_mnps_two_net_consensus_is_peer_full_grid():
    snapshot = make_nets(2, seed0=30)
    image, _ = generate_scene(SceneSpec(width=16, height=16, seed=50))
    sample = UnannotatedSample(image=image)
    l_ps, _ = mnps_loss(snapshot, sample, 0)
    logits_peer, _ = forward(snapshot[1], image)
    peer_pred = softmax(logits_peer).argmax(axis=1)
    logits_k, _ = forward(snapshot[0], image)
    p_k = softmax(logits_k)
    expected = np.mean(
        [-math.log(max(p_k[i, peer_pred[i]], 1e-12)) for i in range(len(peer_pred))]
    )
    assert l_ps == pytest.approx(expected, abs=1e-12)


def test_mnps_identical_peers_give_full_grid():
    base = init_params(Architecture(), seed=7)
    snapshot = [init_params(Architecture(), seed=8), base, base]
    image, _ = generate_scene(SceneSpec(width=16, height=16, seed=51))
    sample = UnannotatedSample(image=image)
    l_ps, _ = mnps_loss(snapshot, sample, 0)
    assert l_ps == pytest.approx(clean_room_mnps(snapshot, sample, 0), abs=1e-12)
    logits, _ = forward(base, image)
    pred = softmax(logits).argmax(axis=1)
    logits_k, _ = forward(snapshot[0], image)
    p_k = softmax(logits_k)
    full = np.mean([-math.log(max(p_k[i, pred[i]], 1e-12)) for i in range(len(pred))])
    assert l_ps == pytest.approx(full, abs=1e-12)


def test_schedules():
    config = TrainConfig(total_iters=4000, validation_every=200, lr=0.01)
    assert config.lr_at(0) == 0.01
    assert config.lr_at(1999) == 0.01
    assert config.lr_at(2000) == pytest.approx(0.001, rel=1e-12)
    assert config.lr_at(4000) == pytest.approx(0.0001, rel=1e-12)
    assert config.lambda_at(0) == pytest.approx(0.1 * math.exp(-5.0), rel=1e-12)
    assert config.lambda_at(4000) == 0.1
    zero = TrainConfig(w_max=0.0, total_iters=4000, validation_every=200)
    assert zero.lambda_at(1000) == 0.0


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(k=1)
    with pytest.raises(TrainingError):
        TrainConfig(total_iters=1000, validation_every=300)
    with pytest.raises(TrainingError):
        TrainConfig(t_max=100, total_iters=200, validation_every=100)
    with pytest.raises(TrainingError):
        TrainConfig(selection="best-of-breed")
    with pytest.raises(TrainingError):
        TrainConfig(lr=0.0)


def test_config_hash_stable_and_sensitive():
    a = TrainConfig(seed=3)
    b = TrainConfig(seed=3)
    c = TrainConfig(seed=4)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def make_state(config, size=16):
    arch = Architecture(hidden=config.hidden)
    nets = []
    for k in range(config.k):
        params = init_params(arch, seed=60 + k)
        nets.append(NetworkSlot(params=params, opt=init_opt_state(params, config.lr)))
    return EnsembleState(nets=nets, t=0, rng=np.random.default_rng(5))


def test_train_iteration_breakdowns_and_snapshot_isolation():
    config = TrainConfig(k=2, lr=0.01, total_iters=100, validation_every=50)
    state = make_state(config)
    sample = make_sample(60)
    image, _ = generate_scene(SceneSpec(width=16, height=16, seed=61))
    unann = [UnannotatedSample(image=image)]
    before = [slot.params for slot in state.nets]
    frozen = [p.flat.copy() for p in before]
    breakdowns = train_iteration(state, [sample], unann, config)
    assert state.t == 1
    assert len(breakdowns) == config.k
    lam = config.lambda_at(0)
    for bd in breakdowns:
        assert bd.lambda_t == lam
        recon = bd.alpha * bd.l_ma + bd.beta * bd.l_pc + bd.lambda_t * bd.l_ps
        assert bd.total == pytest.approx(recon, abs=1e-12)
    # the pre-step parameter arrays were never mutated in place
    for old, copy in zip(before, frozen):
        assert np.array_equal(old.flat, copy)
    for slot, old in zip(state.nets, before):
        assert slot.params is not old
        assert not np.array_equal(slot.params.flat, old.flat)
        assert slot.opt.step == 1


def test_train_iteration_without_unannotated_pool():
    config = TrainConfig(k=2, lr=0.01, total_iters=100, validation_every=50)
    state = make_state(config)
    breakdowns = train_iteration(state, [make_sample(62)], [], config)
    for bd in breakdowns:
        assert bd.l_ps == 0.0


def test_train_iteration_respects_budget():
    config = TrainConfig(k=2, lr=0.01, total_iters=100, validation_every=50)
    state = make_state(config)
    state.t = 100
    with pytest.raises(TrainingError):
        train_iteration(state, [make_sample(63)], [], config)


def reference_iteration(state, annotated, unannotated, config):
    """Learner-major iteration built from the public per-sample losses."""
    lam = config.lambda_at(state.t)
    snapshot = state.snapshot()
    breakdowns, grads = [], []
    for k in range(config.k):
        j = pick_comparison(k, config.k, state.rng)
        grad = np.zeros_like(snapshot[k].flat)
        l_ma_sum = l_pc_sum = 0.0
        for sample in annotated:
            l_ma, l_pc, g = npce_losses(
                snapshot, sample, k, j, alpha=config.alpha, beta=config.beta
            )
            l_ma_sum += l_ma
            l_pc_sum += l_pc
            grad += g
        grad /= len(annotated)
        l_ps_sum = 0.0
        ps_grad = np.zeros_like(grad)
        for sample in unannotated:
            l_ps, g = mnps_loss(snapshot, sample, k)
            l_ps_sum += l_ps
            ps_grad += g
        grad += lam * ps_grad / len(unannotated)
        breakdowns.append(total_network_loss(
            l_ma_sum / len(annotated), l_pc_sum / len(annotated),
            l_ps_sum / len(unannotated), config.alpha, config.beta, lam,
        ))
        grads.append(grad)
    for slot, grad in zip(state.nets, grads):
        slot.opt = replace(slot.opt, lr=config.lr_at(state.t))
        slot.params, slot.opt = adam_step(slot.params, slot.opt, grad)
    state.t += 1
    return breakdowns


def iteration_batch(k, seed):
    annotated = [make_sample(seed + i, k=k) for i in range(2)]
    unannotated = [
        UnannotatedSample(
            image=generate_scene(SceneSpec(width=16, height=16, seed=seed + 10 + i))[0]
        )
        for i in range(3)
    ]
    return annotated, unannotated


@pytest.mark.parametrize("k", [2, 4])
def test_train_iteration_equals_learner_major_reference(k):
    config = TrainConfig(k=k, lr=0.02, total_iters=10, validation_every=5,
                         annotated_per_iter=2, unannotated_batch=3)
    state, ref = make_state(config), make_state(config)
    for t in range(3):
        state.t = ref.t = 4 + t  # a ramp weight well above zero
        annotated, unannotated = iteration_batch(k, 100 * t)
        got = train_iteration(state, annotated, unannotated, config)
        want = reference_iteration(ref, annotated, unannotated, config)
        assert got == want
        for a, b in zip(state.nets, ref.nets):
            assert np.array_equal(a.params.flat, b.params.flat)
            assert np.array_equal(a.opt.m, b.opt.m)
            assert np.array_equal(a.opt.v, b.opt.v)


def count_calls(monkeypatch, name):
    """Count calls of model.<name> under both of its bindings."""
    from ambiseg import model, training

    calls = []
    original = getattr(model, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    # training imports the function by name; model's own callers
    # (predict_probs) look it up in model's globals
    for module in (model, training):
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("k", [2, 4])
def test_one_forward_and_backward_per_network_and_image(k, monkeypatch):
    config = TrainConfig(k=k, lr=0.02, total_iters=10, validation_every=5,
                         annotated_per_iter=2, unannotated_batch=3)
    state = make_state(config)
    forwards = count_calls(monkeypatch, "forward")
    backwards = count_calls(monkeypatch, "backward")
    train_iteration(state, *iteration_batch(k, 7), config)
    assert len(forwards) == len(backwards) == k * (2 + 3)


def test_checkpoints_run_no_backward(tiny_dataset, monkeypatch):
    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2,
                         annotated_per_iter=2, unannotated_batch=3,
                         selection="per-network")
    backwards = count_calls(monkeypatch, "backward")
    result = run_training(tiny_dataset, config)
    assert len(result.trace) == 3  # checkpoints at iterations 0, 2 and 4
    assert len(backwards) == config.total_iters * config.k * (2 + 3)


def test_validation_references_are_majority_votes(tiny_dataset):
    from ambiseg.fusion import majority_vote

    refs = validation_references(tiny_dataset.validation)
    assert len(refs) == len(tiny_dataset.validation)
    for ref, sample in zip(refs, tiny_dataset.validation):
        assert np.array_equal(ref.labels, majority_vote(sample.annotations).labels)


def test_ensemble_agreement_bounds(tiny_dataset):
    params = init_params(Architecture(), seed=3)
    images = [s.image for s in tiny_dataset.multi]
    assert ensemble_agreement([params, params], images) == 1.0
    other = init_params(Architecture(), seed=4)
    value = ensemble_agreement([params, other], images)
    assert 0.0 <= value <= 1.0


def test_run_training_deterministic(tiny_dataset):
    config = TrainConfig(
        k=2, lr=0.01, total_iters=30, validation_every=10, seed=123,
        unannotated_batch=2,
    )
    a = run_training(tiny_dataset, config)
    b = run_training(tiny_dataset, config)
    assert a.trace_csv() == b.trace_csv()
    for slot_a, slot_b in zip(a.state.nets, b.state.nets):
        assert np.array_equal(slot_a.params.flat, slot_b.params.flat)
    assert a.best.iteration == b.best.iteration
    assert a.best.score == b.best.score


def test_run_training_trace_contract(tiny_dataset, tmp_path):
    config = TrainConfig(
        k=2, lr=0.01, total_iters=20, validation_every=5, seed=7,
    )
    out = tmp_path / "run"
    result = run_training(tiny_dataset, config, out_dir=str(out))
    csv = result.trace_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + (20 // 5 + 1)
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 5, 10, 15, 20]
    assert all(int(r[1]) == -1 for r in rows)
    assert float(rows[0][5]) == pytest.approx(0.1 * math.exp(-5.0), rel=1e-9)
    assert float(rows[-1][5]) == 0.1
    lambdas = [float(r[5]) for r in rows]
    assert all(x < y for x, y in zip(lambdas, lambdas[1:]))

    assert (out / "trace.csv").read_text() == csv
    manifest = dict(
        line.split("\t") for line in
        (out / "manifest.tsv").read_text().strip().splitlines()
    )
    assert manifest["config_hash"] == config_hash(config)
    assert manifest["k"] == "2"
    assert manifest["selection"] == "fused"
    assert manifest["best_iteration"] == str(result.best.iteration)
    for k in range(2):
        loaded = load_checkpoint(str(out / manifest[f"net{k}_file"]))
        assert np.array_equal(loaded.flat, result.best.params[k].flat)


def test_run_training_zero_iterations(tiny_dataset, tmp_path):
    config = TrainConfig(k=2, lr=0.01, total_iters=0, validation_every=5, seed=7)
    out = tmp_path / "zero"
    result = run_training(tiny_dataset, config, out_dir=str(out))
    assert result.trace == []
    assert result.trace_csv().strip() == TRACE_HEADER
    assert math.isnan(result.best.score)
    assert result.best.iteration == 0
    # kept checkpoints equal the untouched initialization
    for slot, best in zip(result.state.nets, result.best.params):
        assert np.array_equal(slot.params.flat, best.flat)


def test_run_training_best_matches_trace_peak(tiny_dataset):
    config = TrainConfig(k=2, lr=0.01, total_iters=20, validation_every=5, seed=11)
    result = run_training(tiny_dataset, config)
    scores = [row.val_jaccard for row in result.trace]
    assert result.best.score == max(scores)
    assert result.trace[
        [row.val_jaccard for row in result.trace].index(max(scores))
    ].iteration == result.best.iteration
    refs = validation_references(tiny_dataset.validation)
    recomputed = fused_validation_score(
        result.best.params, tiny_dataset.validation, refs
    )
    assert recomputed == pytest.approx(result.best.score, abs=1e-12)


def test_run_training_per_network_selection(tiny_dataset, tmp_path):
    config = TrainConfig(
        k=2, lr=0.01, total_iters=10, validation_every=5, seed=13,
        selection="per-network",
    )
    out = tmp_path / "pernet"
    result = run_training(tiny_dataset, config, out_dir=str(out))
    assert result.best.iteration == -1
    assert result.best.net_iterations is not None
    assert len(result.best.net_iterations) == 2
    manifest = (out / "manifest.tsv").read_text()
    assert "net0_best_iteration" in manifest
    assert "net1_best_iteration" in manifest
    refs = validation_references(tiny_dataset.validation)
    kept = [
        network_validation_score(p, tiny_dataset.validation, refs)
        for p in result.best.params
    ]
    assert result.best.score == pytest.approx(np.mean(kept), abs=1e-12)
    # selection does not steer training, so the fused trace matches fused mode
    fused = run_training(tiny_dataset, replace(config, selection="fused"))
    assert fused.trace_csv() == result.trace_csv()


def test_run_training_rejects_annotation_mismatch(tiny_dataset):
    config = TrainConfig(k=3, lr=0.01, total_iters=10, validation_every=5)
    with pytest.raises(TrainingError):
        run_training(tiny_dataset, config)


def test_single_annotator_baseline(tiny_dataset, tmp_path):
    config = TrainConfig(k=2, lr=0.01, total_iters=10, validation_every=5, seed=17)
    out = tmp_path / "single"
    result = train_single_annotator(tiny_dataset, config, annotator=0,
                                    out_dir=str(out))
    assert len(result.state.nets) == 1
    lines = result.trace_csv().strip().splitlines()
    assert lines[0] == TRACE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert all(int(r[1]) == 0 for r in rows)
    assert all(float(r[3]) == 0.0 for r in rows)  # no consistency term
    assert all(float(r[7]) == 1.0 for r in rows)  # no peers to disagree with
    manifest = (out / "manifest.tsv").read_text()
    assert "net0_file\tnet0.msen" in manifest
    with pytest.raises(TrainingError):
        train_single_annotator(tiny_dataset, config, annotator=5)
