"""Ensemble trainer: loss assembly, scheduling, determinism, run artifacts."""

import gc
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from functools import partial

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
from ambiseg.losses import (
    ALPHA_DEFAULT,
    BETA_DEFAULT,
    ProbMap,
    masked_cross_entropy,
    softmax,
    total_network_loss,
)
from ambiseg.masks import (
    LabelMask,
    argmax_mask,
    consensus_set,
    restrict,
    separate_agreement,
)
from ambiseg.model import (
    Architecture,
    ModelParams,
    adam_step,
    backward,
    forward,
    init_opt_state,
    init_params,
    layer_slices,
    load_checkpoint,
    predict_probs,
)
from ambiseg.training import (
    TRACE_HEADER,
    RunState,
    TrainConfig,
    TrainingError,
    _checkpoint,
    _prediction_rows,
    config_hash,
    pick_comparison,
    run_training,
    train_iteration,
    train_single_annotator,
    validation_references,
    write_run,
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


def learner_probs(params, image):
    """Network k's prediction with the cache its backward pass needs."""
    logits, cache = forward(params, image)
    probs = ProbMap(width=image.width, height=image.height,
                    num_classes=params.arch.num_classes, probs=softmax(logits))
    return probs, cache


def npce_losses(snapshot, sample, k, j, alpha=ALPHA_DEFAULT, beta=BETA_DEFAULT):
    """Reference agreement and consistency losses of network k against peer
    j on one sample, with the alpha/beta-weighted parameter gradient.

    The peer contributes only its hard argmax mask; a zero weight skips
    its term, which reads 0.
    """
    probs_k, cache = learner_probs(snapshot[k], sample.image)
    agree, disagree = separate_agreement(sample.annotations[k], sample.annotations[j])
    grad_logits = np.zeros_like(probs_k.probs)
    l_ma = l_pc = 0.0
    if alpha != 0:
        l_ma, g = masked_cross_entropy(probs_k, agree)
        grad_logits += alpha * g
    if beta != 0 and len(disagree):
        peer = argmax_mask(predict_probs(snapshot[j], sample.image))
        consistent, _ = separate_agreement(argmax_mask(probs_k), peer)
        l_pc, g = masked_cross_entropy(probs_k, restrict(consistent, disagree))
        grad_logits += beta * g
    return l_ma, l_pc, backward(snapshot[k], cache, grad_logits)


def mnps_loss(snapshot, sample, k):
    """Reference pseudo-supervision of network k on one unannotated image:
    the pixels where all peers' hard predictions agree, with that label."""
    probs_k, cache = learner_probs(snapshot[k], sample.image)
    peers = [
        argmax_mask(predict_probs(p, sample.image))
        for z, p in enumerate(snapshot) if z != k
    ]
    l_ps, grad_logits = masked_cross_entropy(probs_k, consensus_set(peers))
    return l_ps, backward(snapshot[k], cache, grad_logits)


def clean_room_validation_score(params_list, samples, references):
    """Mean foreground Jaccard of the averaged networks' argmax labels."""
    scores = []
    for s, ref in zip(samples, references):
        probs = np.mean([softmax(forward(p, s.image)[0]) for p in params_list], axis=0)
        pred = probs.argmax(axis=1)
        per_class = []
        for c in range(1, ref.num_classes):
            a, b = pred == c, ref.labels == c
            union = np.count_nonzero(a | b)
            per_class.append(np.count_nonzero(a & b) / union if union else 1.0)
        scores.append(np.mean(per_class))
    return float(np.mean(scores))


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
    with pytest.raises(TrainingError, match="seed must be >= 0"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "w_max", "lr", "lr_decay_factor"])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(TrainingError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


def test_row_values_equal_validated_constructors():
    snapshot = make_nets(2, seed0=40)
    image = make_sample(41).image
    (row,) = _prediction_rows(snapshot, [image], masks=True)
    for params, probs, mask in zip(snapshot, row.probs, row.masks):
        logits, _ = forward(params, image)
        checked = ProbMap(width=16, height=16, num_classes=2, probs=softmax(logits))
        checked_mask = LabelMask(width=16, height=16, num_classes=2,
                                 labels=np.argmax(checked.probs, axis=1))
        for built, want in ((probs, checked), (mask, checked_mask)):
            assert type(built) is type(want)
            assert vars(built).keys() == vars(want).keys()
            for name, value in vars(want).items():
                got = getattr(built, name)
                if isinstance(value, np.ndarray):
                    assert got.dtype == value.dtype and got.shape == value.shape, name
                    assert np.array_equal(got, value), name
                else:
                    assert got == value, name
        assert mask.labels.dtype == np.int32
        assert argmax_mask(checked).labels.dtype == np.int32


def test_argmax_mask_still_rejects_a_single_class():
    one_class = ProbMap(width=2, height=1, num_classes=1, probs=np.ones((2, 1)))
    with pytest.raises(ValueError, match="num_classes"):
        argmax_mask(one_class)


def test_config_hash_stable_and_sensitive():
    a = TrainConfig(seed=3)
    b = TrainConfig(seed=3)
    c = TrainConfig(seed=4)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def make_state(config, size=16):
    arch = Architecture(hidden=config.hidden)
    params = [init_params(arch, seed=60 + k) for k in range(config.k)]
    opts = [init_opt_state(p, config.lr) for p in params]
    return RunState(params, opts, t=0, rng=np.random.default_rng(5))


def assert_same_networks(a, b):
    """Two run states hold bitwise-equal parameters and Adam moments."""
    assert len(a.params) == len(b.params)
    for pa, pb, oa, ob in zip(a.params, b.params, a.opts, b.opts):
        assert np.array_equal(pa.flat, pb.flat)
        assert np.array_equal(oa.m, ob.m)
        assert np.array_equal(oa.v, ob.v)


def test_train_iteration_breakdowns_and_snapshot_isolation():
    config = TrainConfig(k=2, lr=0.01, total_iters=100, validation_every=50)
    state = make_state(config)
    sample = make_sample(60)
    image, _ = generate_scene(SceneSpec(width=16, height=16, seed=61))
    unann = [UnannotatedSample(image=image)]
    before = list(state.params)
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
    for params, opt, old in zip(state.params, state.opts, before):
        assert params is not old
        assert not np.array_equal(params.flat, old.flat)
        assert opt.step == 1


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
    """Learner-major iteration built from the reference per-sample losses."""
    lam = config.lambda_at(state.t)
    snapshot = list(state.params)
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
    for k, grad in enumerate(grads):
        opt = replace(state.opts[k], lr=config.lr_at(state.t))
        state.params[k], state.opts[k] = adam_step(snapshot[k], opt, grad)
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
        assert_same_networks(state, ref)


class SharedCount:
    """A call count that forked training workers add to as well."""

    def __init__(self):
        self._value = multiprocessing.get_context("fork").Value("q", 0)

    def add(self):
        with self._value.get_lock():
            self._value.value += 1

    def __len__(self):
        return self._value.value


def count_calls(monkeypatch, name):
    """Count calls of model.<name> under both of its bindings, in this
    process and in the training workers it forks."""
    from ambiseg import model, training

    calls = SharedCount()
    original = getattr(model, name)

    def counted(*args, **kwargs):
        calls.add()
        return original(*args, **kwargs)

    # training imports the function by name; model's own callers
    # (predict_probs) look it up in model's globals
    for module in (model, training):
        monkeypatch.setattr(module, name, counted)
    return calls


def use_executors(monkeypatch, w):
    """Train on min(images per iteration, w) executors, whatever the
    machine's core count."""
    from ambiseg import training

    monkeypatch.setattr(training, "_executor_count", lambda images: min(images, w))


@pytest.mark.parametrize("k", [2, 4])
def test_one_forward_and_backward_per_network_and_image(k, monkeypatch):
    config = TrainConfig(k=k, lr=0.02, total_iters=10, validation_every=5,
                         annotated_per_iter=2, unannotated_batch=3)
    state = make_state(config)
    forwards = count_calls(monkeypatch, "forward")
    backwards = count_calls(monkeypatch, "backward")
    train_iteration(state, *iteration_batch(k, 7), config)
    assert len(forwards) == len(backwards) == k * (2 + 3)


@pytest.mark.parametrize("w", [1, 2])
def test_checkpoints_run_no_backward(w, tiny_dataset, monkeypatch):
    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2,
                         annotated_per_iter=2, unannotated_batch=3,
                         selection="per-network")
    use_executors(monkeypatch, w)
    backwards = count_calls(monkeypatch, "backward")
    result = run_training(tiny_dataset, config)
    assert len(result.trace) == 3  # checkpoints at iterations 0, 2 and 4
    assert len(backwards) == config.total_iters * config.k * (2 + 3)


@pytest.mark.parametrize("w", [1, 2])
def test_checkpoint_forwards_each_image_once_per_network(w, tiny_dataset, monkeypatch):
    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2,
                         annotated_per_iter=2, unannotated_batch=3)
    use_executors(monkeypatch, w)
    forwards = count_calls(monkeypatch, "forward")
    result = run_training(tiny_dataset, config)
    checkpoints = len(result.trace)
    assert checkpoints == 3  # iterations 0, 2 and 4
    # a checkpoint's probe shares the first training image's row with the
    # agreement pass, then reads the probe batch; validation follows
    k, a, b = config.k, config.annotated_per_iter, config.unannotated_batch
    n_multi = len(tiny_dataset.multi)
    n_val = len(tiny_dataset.validation)
    assert len(forwards) == (
        config.total_iters * k * (a + b) + checkpoints * k * (n_multi + b + n_val)
    )


@pytest.mark.parametrize("w", [1, 2])
def test_run_reuses_one_cache_per_network_and_frees_them(w, tiny_dataset, monkeypatch):
    from ambiseg import model, training

    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2,
                         annotated_per_iter=2, unannotated_batch=3)
    # the recorder sees this process's forwards: with a worker, network
    # 1's training rows run in the worker, and its checkpoint rows here
    use_executors(monkeypatch, w)
    original = model.forward
    caches = []  # weak references to every distinct cache forward returned
    received = []  # per call: index into caches of the cache passed in, or None

    def recording(params, image, cache=None):
        logits, out = original(params, image, cache)
        if cache is None:
            received.append(None)
        else:
            received.append(next(i for i, r in enumerate(caches) if r() is cache))
        if not any(r() is out for r in caches):
            caches.append(weakref.ref(out))
        return logits, out

    for module in (model, training):
        monkeypatch.setattr(module, "forward", recording)
    result = run_training(tiny_dataset, config)
    assert len(result.trace) == 3  # checkpoints at iterations 0, 2 and 4

    # the first checkpoint's probe row allocates one cache per network;
    # every later forward, in the loop and at checkpoints, reuses them
    assert len(caches) == config.k
    assert received[: config.k] == [None] * config.k
    assert None not in received[config.k :]
    # the run's buffers die with the run, while its result (still held
    # here) lives on, so nothing in it references a cache
    gc.collect()
    assert all(r() is None for r in caches)


def test_fused_prediction_shares_one_cache_across_networks(monkeypatch):
    from ambiseg import model, training

    original = model.forward
    caches = []

    def recording(params, image, cache=None):
        logits, out = original(params, image, cache)
        caches.append(out)
        return logits, out

    for module in (model, training):
        monkeypatch.setattr(module, "forward", recording)
    nets = make_nets(3)
    image, _ = generate_scene(SceneSpec(width=16, height=16, seed=52))
    training.fused_prediction(nets, image)
    # nothing backpropagates through inference, so one cache serves all
    assert len(caches) == 3
    assert all(c is caches[0] for c in caches)


def test_single_annotator_builds_no_training_masks(tiny_dataset, monkeypatch):
    from ambiseg import training

    calls = []
    original = training.argmax_mask

    def counted(probs):
        calls.append(1)
        return original(probs)

    monkeypatch.setattr(training, "argmax_mask", counted)
    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2,
                         annotated_per_iter=2)
    assert config.beta != 0
    result = train_single_annotator(tiny_dataset, config, annotator=1)
    # only the validation pass takes argmax masks, one per image: a lone
    # network's consistency term never reads a mask, and its fused
    # prediction is its own mask
    n_val = len(tiny_dataset.validation)
    assert len(calls) == len(result.trace) * n_val
    refs = validation_references(tiny_dataset.validation)
    assert result.best.score == pytest.approx(
        clean_room_validation_score(result.best.params, tiny_dataset.validation, refs),
        abs=1e-12,
    )


def test_validation_references_are_majority_votes(tiny_dataset):
    from ambiseg.fusion import majority_vote

    refs = validation_references(tiny_dataset.validation)
    assert len(refs) == len(tiny_dataset.validation)
    for ref, sample in zip(refs, tiny_dataset.validation):
        assert np.array_equal(ref.labels, majority_vote(sample.annotations).labels)


def test_ensemble_agreement_bounds(tiny_dataset):
    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2)
    refs = validation_references(tiny_dataset.validation)
    params = init_params(Architecture(), seed=3)
    row, _ = _checkpoint([params, params], tiny_dataset, config, 0, refs, [None, None])
    assert row.agreement == 1.0
    other = init_params(Architecture(), seed=4)
    row, _ = _checkpoint([params, other], tiny_dataset, config, 0, refs, [None, None])
    assert 0.0 <= row.agreement <= 1.0
    # the mean over the training images of the two networks' label agreement
    fractions = [
        np.mean(softmax(forward(params, s.image)[0]).argmax(axis=1)
                == softmax(forward(other, s.image)[0]).argmax(axis=1))
        for s in tiny_dataset.multi
    ]
    assert row.agreement == pytest.approx(np.mean(fractions), abs=1e-12)


def test_run_training_deterministic(tiny_dataset):
    config = TrainConfig(
        k=2, lr=0.01, total_iters=30, validation_every=10, seed=123,
        unannotated_batch=2,
    )
    a = run_training(tiny_dataset, config)
    b = run_training(tiny_dataset, config)
    assert a.trace_csv() == b.trace_csv()
    assert_same_networks(a.state, b.state)
    assert a.best.iteration == b.best.iteration
    assert a.best.score == b.best.score


def test_run_training_trace_contract(tiny_dataset, tmp_path):
    config = TrainConfig(
        k=2, lr=0.01, total_iters=20, validation_every=5, seed=7,
    )
    out = tmp_path / "run"
    result = run_training(tiny_dataset, config)
    write_run(result, out)
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


@pytest.mark.parametrize(
    "train", [run_training, partial(train_single_annotator, annotator=1)],
    ids=["ensemble", "baseline"],
)
def test_run_training_zero_iterations(train, tiny_dataset):
    config = TrainConfig(k=2, lr=0.01, total_iters=0, validation_every=5, seed=7)
    result = train(tiny_dataset, config)
    assert result.trace == []
    assert result.trace_csv().strip() == TRACE_HEADER
    assert math.isnan(result.best.score)
    assert result.best.iteration == 0
    # kept checkpoints equal the untouched initialization
    for params, best in zip(result.state.params, result.best.params):
        assert np.array_equal(params.flat, best.flat)


@pytest.mark.parametrize(
    "train", [run_training, partial(train_single_annotator, annotator=1)],
    ids=["ensemble", "baseline"],
)
def test_training_writes_no_files(train, tiny_dataset, writes):
    config = TrainConfig(k=2, lr=0.01, total_iters=10, validation_every=5, seed=7)
    writes.arm(None, None)
    train(tiny_dataset, config)
    assert writes.count == 0


def test_run_training_best_matches_trace_peak(tiny_dataset):
    config = TrainConfig(k=2, lr=0.01, total_iters=20, validation_every=5, seed=11)
    result = run_training(tiny_dataset, config)
    scores = [row.val_jaccard for row in result.trace]
    assert result.best.score == max(scores)
    assert result.trace[
        [row.val_jaccard for row in result.trace].index(max(scores))
    ].iteration == result.best.iteration
    refs = validation_references(tiny_dataset.validation)
    recomputed = clean_room_validation_score(
        result.best.params, tiny_dataset.validation, refs
    )
    assert recomputed == pytest.approx(result.best.score, abs=1e-12)


def test_run_training_per_network_selection(tiny_dataset, tmp_path):
    config = TrainConfig(
        k=2, lr=0.01, total_iters=10, validation_every=5, seed=13,
        selection="per-network",
    )
    out = tmp_path / "pernet"
    result = run_training(tiny_dataset, config)
    write_run(result, out)
    assert result.best.iteration == -1
    assert result.best.net_iterations is not None
    assert len(result.best.net_iterations) == 2
    manifest = (out / "manifest.tsv").read_text()
    assert "net0_best_iteration" in manifest
    assert "net1_best_iteration" in manifest
    refs = validation_references(tiny_dataset.validation)
    kept = [
        clean_room_validation_score([p], tiny_dataset.validation, refs)
        for p in result.best.params
    ]
    assert result.best.score == pytest.approx(np.mean(kept), abs=1e-12)
    # selection does not steer training, so the fused trace matches fused mode
    fused = run_training(tiny_dataset, replace(config, selection="fused"))
    assert fused.trace_csv() == result.trace_csv()


def record_checkpoints(monkeypatch, script=None):
    """Log each checkpoint's (iteration, snapshot, fused score, per-network
    scores) as _checkpoint returns them. `script[i]`, when given, replaces
    the i-th checkpoint's scores with its (fused, per-network) pair."""
    from ambiseg import training

    log = []
    original = training._checkpoint

    def recording(snapshot, dataset, config, t, *args):
        row, net_scores = original(snapshot, dataset, config, t, *args)
        if script is not None:
            fused, net_scores = script[len(log)]
            row = replace(row, val_jaccard=fused)
        log.append((t, list(snapshot), row.val_jaccard, list(net_scores)))
        return row, net_scores

    monkeypatch.setattr(training, "_checkpoint", recording)
    return log


# (fused, per-network) scores of five checkpoints with ties: the fused
# score peaks at checkpoints 1, 2 and 4, network 0 at 1 and 3, and
# network 1 at 0 and 4
TIED_SCORES = [
    (0.5, [0.2, 0.9]),
    (0.7, [0.6, 0.5]),
    (0.7, [0.4, 0.3]),
    (0.6, [0.6, 0.8]),
    (0.7, [0.1, 0.9]),
]


@pytest.mark.parametrize("script", [None, TIED_SCORES], ids=["measured", "tied"])
def test_per_network_selection_keeps_each_networks_first_best(
    script, tiny_dataset, monkeypatch
):
    config = TrainConfig(k=2, lr=0.01, total_iters=8, validation_every=2, seed=13,
                         selection="per-network")
    log = record_checkpoints(monkeypatch, script)
    result = run_training(tiny_dataset, config)
    assert [t for t, *_ in log] == [0, 2, 4, 6, 8]
    maxima = []
    for k in range(2):
        scores = [net_scores[k] for *_, net_scores in log]
        t, snapshot, _, _ = log[scores.index(max(scores))]  # the first maximum
        assert result.best.net_iterations[k] == t
        assert np.array_equal(result.best.params[k].flat, snapshot[k].flat)
        maxima.append(max(scores))
    assert result.best.iteration == -1
    assert result.best.score == float(np.mean(maxima))


@pytest.mark.parametrize("script", [None, TIED_SCORES], ids=["measured", "tied"])
def test_fused_selection_keeps_the_first_best(script, tiny_dataset, monkeypatch):
    config = TrainConfig(k=2, lr=0.01, total_iters=8, validation_every=2, seed=13)
    log = record_checkpoints(monkeypatch, script)
    result = run_training(tiny_dataset, config)
    fused = [score for _, _, score, _ in log]
    t, snapshot, score, _ = log[fused.index(max(fused))]  # the first maximum
    assert (result.best.iteration, result.best.score) == (t, score)
    assert result.best.net_iterations is None
    for kept, params in zip(result.best.params, snapshot):
        assert np.array_equal(kept.flat, params.flat)


def test_run_training_rejects_annotation_mismatch(tiny_dataset):
    config = TrainConfig(k=3, lr=0.01, total_iters=10, validation_every=5)
    with pytest.raises(TrainingError):
        run_training(tiny_dataset, config)


def test_single_annotator_baseline(tiny_dataset, tmp_path):
    config = TrainConfig(k=2, lr=0.01, total_iters=10, validation_every=5, seed=17)
    out = tmp_path / "single"
    result = train_single_annotator(tiny_dataset, config, annotator=0)
    write_run(result, out)
    assert len(result.state.params) == 1
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


def test_single_annotator_is_one_network_without_pool(tiny_dataset):
    config = TrainConfig(k=2, alpha=0.5, lr=0.01, total_iters=10,
                         validation_every=5, seed=17)
    result = train_single_annotator(tiny_dataset, config, annotator=0)
    for row in result.trace:
        assert row.lambda_t == 0.0
        assert row.l_ps == 0.0
        assert row.total == config.alpha * row.l_ma
    # the unannotated pool is never sampled; the annotator's masks are
    no_pool = train_single_annotator(
        replace(tiny_dataset, unannotated=[]), config, annotator=0
    )
    other = train_single_annotator(tiny_dataset, config, annotator=1)
    flat = result.state.params[0].flat
    assert no_pool.trace_csv() == result.trace_csv()
    assert_same_networks(no_pool.state, result.state)
    assert other.trace_csv() != result.trace_csv()
    assert not np.array_equal(other.state.params[0].flat, flat)
    # per-network selection of one network is fused selection
    per_net = train_single_annotator(
        tiny_dataset, replace(config, selection="per-network"), annotator=0
    )
    assert per_net.best.net_iterations is None
    assert (per_net.best.iteration, per_net.best.score) == (
        result.best.iteration, result.best.score
    )


def test_one_network_iteration_is_a_full_grid_ce_step():
    config = TrainConfig(alpha=0.5, lr=0.02, total_iters=10, validation_every=5)
    params = init_params(Architecture(), seed=60)
    opt = init_opt_state(params, config.lr)
    state = RunState([params], [opt], t=0, rng=np.random.default_rng(5))
    annotated = [make_sample(70 + i, k=1) for i in range(2)]

    # clean room: mean CE over every pixel against the one annotation
    losses, grad = [], np.zeros_like(params.flat)
    for sample in annotated:
        logits, cache = forward(params, sample.image)
        probs = softmax(logits)
        labels = sample.annotations[0].labels
        pixels = np.arange(len(labels))
        losses.append(float(np.mean(
            -np.log(np.maximum(probs[pixels, labels], 1e-12))
        )))
        grad_logits = probs.copy()
        grad_logits[pixels, labels] -= 1.0
        grad_logits /= len(labels)
        grad += backward(params, cache, config.alpha * grad_logits)
    grad /= len(annotated)
    want_params, want_opt = adam_step(params, replace(opt, lr=config.lr_at(0)), grad)
    want = total_network_loss(
        sum(losses) / len(annotated), 0.0, 0.0, config.alpha, config.beta, 0.0
    )

    rng_state = state.rng.bit_generator.state
    assert train_iteration(state, annotated, [], config) == [want]
    assert state.rng.bit_generator.state == rng_state  # no comparison draw
    assert_same_networks(state, RunState([want_params], [want_opt], t=1, rng=None))


def test_single_annotator_forward_count(tiny_dataset, monkeypatch):
    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2,
                         annotated_per_iter=2)
    forwards = count_calls(monkeypatch, "forward")
    result = train_single_annotator(tiny_dataset, config, annotator=1)
    checkpoints = len(result.trace)
    assert checkpoints == 3  # iterations 0, 2 and 4
    # one probe forward and one per validation image at each checkpoint,
    # and no agreement pass for a lone network
    n_val = len(tiny_dataset.validation)
    assert len(forwards) == (
        config.total_iters * config.annotated_per_iter + checkpoints * (1 + n_val)
    )


# ---------------------------------------------------------------------------
# executors: the calling process and its forked workers


@pytest.fixture(scope="module")
def k4_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "k4"
    build_dataset(
        str(root), n_multi=3, n_unann=3, n_val=2, n_test=1,
        k=4, seed=22, width=16, height=16,
    )
    return load_dataset(str(root))


def count_workers(monkeypatch):
    """Count the training workers that start, from inside each worker."""
    from ambiseg import training

    started = SharedCount()
    original = training._worker

    def counted(*args):
        started.add()
        return original(*args)

    monkeypatch.setattr(training, "_worker", counted)
    return started


def run_files(train, dataset, config, out):
    write_run(train(dataset, config), out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


EXECUTOR_VARIANTS = {
    "fused": {},
    "per-network": dict(selection="per-network"),
    "ablate-pc": dict(beta=0.0),  # annotated rows build no masks
    "ablate-ps": dict(w_max=0.0),  # no unannotated rows: two images per iteration
}


@pytest.mark.parametrize("variant", sorted(EXECUTOR_VARIANTS))
@pytest.mark.parametrize("k,ws", [(2, (1, 2)), (4, (1, 2, 3, 4))])
def test_executors_give_byte_identical_runs(
    k, ws, variant, tiny_dataset, k4_dataset, tmp_path, monkeypatch
):
    dataset = tiny_dataset if k == 2 else k4_dataset
    config = TrainConfig(k=k, lr=0.02, total_iters=6, validation_every=3, seed=9,
                         annotated_per_iter=2, unannotated_batch=2,
                         **EXECUTOR_VARIANTS[variant])
    images = config.annotated_per_iter + (config.unannotated_batch if config.w_max else 0)
    runs = []
    for w in ws:
        use_executors(monkeypatch, w)
        started = count_workers(monkeypatch)
        runs.append(run_files(run_training, dataset, config, tmp_path / f"w{w}"))
        assert len(started) == min(w, images) - 1
    names = ["manifest.tsv", *(f"net{z}.msen" for z in range(k)), "trace.csv"]
    assert list(runs[0]) == names
    assert all(run == runs[0] for run in runs[1:])


def test_single_annotator_runs_in_the_calling_process(tiny_dataset, monkeypatch):
    # the baseline has no unannotated pool: one image per iteration
    config = TrainConfig(k=2, lr=0.02, total_iters=6, validation_every=3, seed=9,
                         annotated_per_iter=1)
    use_executors(monkeypatch, 2)
    started = count_workers(monkeypatch)
    result = train_single_annotator(tiny_dataset, config, annotator=1)
    assert len(result.trace) == 3
    assert len(started) == 0


def test_single_annotator_splits_its_batch_across_executors(
    tiny_dataset, tmp_path, monkeypatch
):
    config = TrainConfig(k=2, lr=0.02, total_iters=6, validation_every=3, seed=9,
                         annotated_per_iter=2)
    train = partial(train_single_annotator, annotator=1)
    serial = run_files(train, tiny_dataset, config, tmp_path / "w1")
    use_executors(monkeypatch, 2)
    started = count_workers(monkeypatch)
    assert run_files(train, tiny_dataset, config, tmp_path / "w2") == serial
    assert len(started) == 1


def test_executor_count_is_usable_cores_capped_by_images():
    from ambiseg import training

    cores = len(os.sched_getaffinity(0)) if training._openblas_thread_controls() else 1
    assert training._executor_count(1) == 1
    assert training._executor_count(2) == min(2, cores)
    assert training._executor_count(64) == min(64, cores)


class SharedLog:
    """Pairs of integers appended by this process and its forked workers."""

    def __init__(self, capacity):
        context = multiprocessing.get_context("fork")
        self._pairs = context.Array("q", 2 * capacity)
        self._count = context.Value("q", 0)

    def add(self, a, b):
        with self._count.get_lock():
            i = self._count.value
            self._pairs[2 * i : 2 * i + 2] = [a, b]
            self._count.value += 1

    def pairs(self):
        with self._count.get_lock():
            flat = self._pairs[: 2 * self._count.value]
        return list(zip(flat[::2], flat[1::2]))


def test_each_executor_builds_its_rows_of_the_batch(tiny_dataset, monkeypatch):
    from ambiseg import training

    config = TrainConfig(k=2, lr=0.01, total_iters=4, validation_every=2,
                         annotated_per_iter=2, unannotated_batch=2)
    annotated, unannotated = tiny_dataset.multi[:2], tiny_dataset.unannotated[:2]
    batch = [*annotated, *unannotated]
    row_of = {s.image.values.tobytes(): r for r, s in enumerate(batch)}
    assert len(row_of) == 4  # four distinct images
    built = SharedLog(capacity=16)
    original = training._row_steps

    def recording(snapshot, sample, *args):
        built.add(os.getpid(), row_of[sample.image.values.tobytes()])
        return original(snapshot, sample, *args)

    def counting(method, calls):
        def counted(*args):
            calls.append(args)
            return method(*args)
        return counted

    sends, receives = [], []  # the calling process's side of each pipe
    monkeypatch.setattr(training._Crew, "_send", counting(training._Crew._send, sends))
    monkeypatch.setattr(training._Crew, "_receive", counting(training._Crew._receive, receives))
    monkeypatch.setattr(training, "_row_steps", recording)

    state = make_state(config)
    iterations = 3
    with training._Crew(executors=2, num_nets=2) as crew:
        for _ in range(iterations):
            train_iteration(state, annotated, unannotated, config, crew)
    # one job and one reply per worker and iteration
    assert len(sends) == len(receives) == iterations
    by_pid = {}
    for pid, r in built.pairs():
        by_pid.setdefault(pid, []).append(r)
    assert by_pid.pop(os.getpid()) == [0, 2] * iterations
    (worker_rows,) = by_pid.values()
    assert worker_rows == [1, 3] * iterations


def step_bytes(rows):
    """Each row's per-network loss terms and gradient, as bytes."""
    return [
        [(np.array(terms).tobytes(), grad.tobytes()) for terms, grad in row]
        for row in rows
    ]


def test_crew_builds_rows_of_samples_from_outside_any_dataset():
    from ambiseg import training

    config = TrainConfig(k=2, lr=0.02, total_iters=10, validation_every=5,
                         annotated_per_iter=2, unannotated_batch=3)
    snapshot = make_nets(2, seed0=70)
    annotated, unannotated = iteration_batch(2, 70)
    batch = [*annotated, *unannotated]
    peers = [1, 0]
    serial = [training._row_steps(snapshot, s, peers, config, [None] * 2) for s in batch]
    with training._Crew(executors=2, num_nets=2) as crew:
        rows = crew.run(snapshot, batch, peers, config)
    assert step_bytes(rows) == step_bytes(serial)


def test_crew_builds_each_iteration_with_its_own_config():
    from ambiseg import training

    config = TrainConfig(k=2, lr=0.02, total_iters=10, validation_every=5,
                         annotated_per_iter=2, unannotated_batch=3)
    # the worker builds row 1, an annotated one, whose consistency term
    # only beta switches on
    configs = [config, replace(config, beta=0.0), config]
    state, serial = make_state(config), make_state(config)
    with training._Crew(executors=2, num_nets=2) as crew:
        for t, each in enumerate(configs):
            annotated, unannotated = iteration_batch(2, 80 + 20 * t)
            got = train_iteration(state, annotated, unannotated, each, crew)
            assert got == train_iteration(serial, annotated, unannotated, each)
            assert (got[0].l_pc == 0.0) == (each.beta == 0.0)
            assert_same_networks(state, serial)


def test_workers_run_with_one_blas_thread_and_restore_it(tiny_dataset, monkeypatch):
    from ambiseg import training

    controls = training._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    get, set_ = controls[0]
    before = get()
    seen = SharedCount()
    original = training._row_steps

    def counting_threads(*args):
        if get() == 1:
            seen.add()
        return original(*args)

    use_executors(monkeypatch, 2)
    monkeypatch.setattr(training, "_row_steps", counting_threads)
    set_(2)
    try:
        config = TrainConfig(k=2, lr=0.01, total_iters=2, validation_every=1)
        run_training(tiny_dataset, config)
        # all four rows of both iterations, on both executors, saw one BLAS thread
        assert len(seen) == 2 * (config.annotated_per_iter + config.unannotated_batch)
        assert get() == 2
    finally:
        set_(before)


def test_import_leaves_multiprocessing_out():
    # `import ambiseg` is timed as set-up; training imports these lazily
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["ambiseg"].__file__)))
    code = ("import sys, ambiseg, ambiseg.cli; "
            "print([m for m in ('multiprocessing', 'mmap') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def patch_backward(monkeypatch, in_worker, in_parent=None):
    """Wrap training's backward: in_worker(), or in_parent(), runs before
    each call in a forked worker, or in this process."""
    from ambiseg import training

    parent = os.getpid()
    original = training.backward

    def wrapped(*args):
        hook = in_parent if os.getpid() == parent else in_worker
        if hook is not None:
            hook()
        return original(*args)

    monkeypatch.setattr(training, "backward", wrapped)


FAILURE_CONFIG = TrainConfig(k=2, lr=0.01, total_iters=20, validation_every=10,
                             annotated_per_iter=2, unannotated_batch=3)


def raise_in_worker():
    raise RuntimeError("boom in worker")


def kill_worker():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("hook,message", [
    (raise_in_worker, "training worker 1 failed: RuntimeError: boom in worker"),
    (kill_worker, r"training worker 1 stopped unexpectedly \(exit code -9\)"),
], ids=["raises", "killed"])
def test_worker_failure_ends_the_run(hook, message, tiny_dataset, monkeypatch, capfd):
    use_executors(monkeypatch, 2)
    patch_backward(monkeypatch, hook)
    start = time.monotonic()
    with pytest.raises(TrainingError, match=message):
        run_training(tiny_dataset, FAILURE_CONFIG)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


def interrupt_soon(delay):
    """Deliver SIGINT to the main thread after `delay` seconds, as Ctrl-C
    would; returns the timer, which the caller cancels."""
    main = threading.main_thread().ident
    timer = threading.Timer(delay, signal.pthread_kill, (main, signal.SIGINT))
    timer.start()
    return timer


@pytest.mark.parametrize("w", [1, 2])
def test_ctrl_c_ends_the_run(w, tiny_dataset, monkeypatch):
    use_executors(monkeypatch, w)
    # a slow worker: the calling process waits on it when SIGINT lands
    patch_backward(monkeypatch, lambda: time.sleep(0.2),
                   in_parent=(lambda: time.sleep(0.2)) if w == 1 else None)
    timer = interrupt_soon(0.5)
    start = time.monotonic()
    try:
        with pytest.raises(TrainingError, match="training interrupted at iteration"):
            run_training(tiny_dataset, FAILURE_CONFIG)
    finally:
        timer.cancel()
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("w", [1, 2])
@pytest.mark.parametrize("bad,named", [((1,), 1), ((0, 1), 0)])
def test_non_finite_loss_names_the_lowest_network(w, bad, named, tiny_dataset, monkeypatch):
    from ambiseg import training

    use_executors(monkeypatch, w)
    original = training._row_steps

    # each row's step results, in this process and in the worker
    def poisoned(*args):
        return [
            (((math.nan, *terms[1:]) if k in bad else terms), grad)
            for k, (terms, grad) in enumerate(original(*args))
        ]

    monkeypatch.setattr(training, "_row_steps", poisoned)
    message = f"non-finite loss for network {named} at iteration 0"
    with pytest.raises(TrainingError, match=message):
        run_training(tiny_dataset, FAILURE_CONFIG)
    assert multiprocessing.active_children() == []
