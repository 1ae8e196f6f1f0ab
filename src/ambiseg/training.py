"""Ensemble training: agreement-supervised, consistency-refined,
consensus-pseudo-labeled.

Each of the K networks owns one annotator's masks. Per iteration every
network k draws a random comparison network j, learns the pixels where
annotations k and j agree, refines annotation disagreements with pixels
where the two networks' predictions coincide, and learns unannotated
images on pixels where all peers unanimously agree, the last term scaled
by a Gaussian ramp-up weight. Gradients are computed for all networks
against a pre-iteration parameter snapshot, then applied together, so
results do not depend on update order.

An iteration walks the batch image by image. For each image it builds
one prediction row (every network's forward pass, probabilities, argmax
mask and cache), feeds every learner's loss terms on that image from the
row, backpropagates each learner once, and releases the row before the
next image. Each network therefore forwards each batch image once. Every
learner's losses and gradients still add up in batch order (annotated
samples, then unannotated ones), so results are bit-identical to a
learner-major loop over the public npce_losses and mnps_loss. Checkpoint
probes use the same rows and run no backward pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .data import Dataset, MultiAnnotatedSample, UnannotatedSample
from .fusion import average_fuse, majority_vote
from .losses import (
    ALPHA_DEFAULT,
    BETA_DEFAULT,
    LossBreakdown,
    ProbMap,
    RampUp,
    W_MAX_DEFAULT,
    masked_cross_entropy,
    ramp_lambda,
    softmax,
    total_network_loss,
)
from .masks import LabelMask, argmax_mask, consensus_set, restrict, separate_agreement
from .metrics import agreement_fraction, jaccard
from .model import (
    Architecture,
    ForwardCache,
    ImageTensor,
    ModelParams,
    OptState,
    adam_step,
    backward,
    forward,
    init_opt_state,
    init_params,
    predict_probs,
    save_checkpoint,
)

TRACE_HEADER = "iter,net,l_ma,l_pc,l_ps,lambda,total,agreement,val_jaccard"


class TrainingError(RuntimeError):
    """Raised when training hits a non-finite loss or bad configuration."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one ensemble run.

    t_max (the ramp horizon) always equals total_iters; passing it
    explicitly is only allowed when it matches. The learning rate at
    iteration t is lr * lr_decay_factor ** (t // lr_decay_every).
    """

    k: int = 2
    alpha: float = ALPHA_DEFAULT
    beta: float = BETA_DEFAULT
    w_max: float = W_MAX_DEFAULT
    t_max: Optional[int] = None
    lr: float = 1e-4
    lr_decay_every: int = 2000
    lr_decay_factor: float = 0.1
    annotated_per_iter: int = 1
    unannotated_batch: int = 3
    total_iters: int = 4000
    validation_every: int = 200
    seed: int = 0
    hidden: int = 8
    selection: str = "fused"

    def __post_init__(self):
        if self.k < 2:
            raise TrainingError(f"k must be >= 2, got {self.k}")
        if self.t_max is None:
            object.__setattr__(self, "t_max", self.total_iters)
        elif self.t_max != self.total_iters:
            raise TrainingError(
                f"t_max ({self.t_max}) must equal total_iters ({self.total_iters})"
            )
        if self.alpha < 0 or self.beta < 0 or self.w_max < 0:
            raise TrainingError("loss weights must be nonnegative")
        if self.lr <= 0 or not (0 < self.lr_decay_factor <= 1):
            raise TrainingError("invalid learning-rate settings")
        for name in ("lr_decay_every", "annotated_per_iter", "unannotated_batch",
                     "validation_every", "hidden"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be positive")
        if self.total_iters < 0:
            raise TrainingError("total_iters must be >= 0")
        if self.total_iters % self.validation_every != 0:
            raise TrainingError(
                "total_iters must be a multiple of validation_every so the "
                "final checkpoint lands on the last iteration"
            )
        if self.selection not in ("fused", "per-network"):
            raise TrainingError(f"unknown selection mode {self.selection!r}")

    def lr_at(self, t: int) -> float:
        return self.lr * self.lr_decay_factor ** (t // self.lr_decay_every)

    def lambda_at(self, t: int) -> float:
        if self.w_max == 0 or self.total_iters == 0:
            return 0.0
        return ramp_lambda(t, RampUp(w_max=self.w_max, t_max=self.t_max))


def config_hash(config: TrainConfig) -> str:
    lines = sorted(f"{f.name}={getattr(config, f.name)!r}" for f in fields(config))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@dataclass
class NetworkSlot:
    params: ModelParams
    opt: OptState


@dataclass
class BestRecord:
    """Checkpoint kept by validation selection.

    Fused selection keeps one ensemble snapshot from one iteration.
    Per-network selection lets each network keep its own best iteration,
    recorded in net_iterations with iteration set to -1.
    """

    iteration: int
    score: float
    params: list[ModelParams]
    net_iterations: Optional[list[int]] = None


@dataclass
class EnsembleState:
    nets: list[NetworkSlot]
    t: int
    rng: np.random.Generator
    best: Optional[BestRecord] = None

    def snapshot(self) -> list[ModelParams]:
        return [slot.params for slot in self.nets]


def pick_comparison(k: int, num_nets: int, rng: np.random.Generator) -> int:
    """Uniform peer index j != k; consumes exactly one rng draw."""
    if num_nets < 2:
        raise TrainingError(f"need at least two networks, got {num_nets}")
    if not 0 <= k < num_nets:
        raise ValueError(f"network index {k} out of range [0, {num_nets})")
    draw = int(rng.integers(num_nets - 1))
    return draw + (draw >= k)


def _probs_with_cache(params: ModelParams, image: ImageTensor):
    logits, cache = forward(params, image)
    probs = ProbMap(
        width=image.width,
        height=image.height,
        num_classes=params.arch.num_classes,
        probs=softmax(logits),
        logits=logits,
    )
    return probs, cache


@dataclass
class _PredictionRow:
    """Some networks' predictions on one image, keyed by network index.

    Holds each network's probabilities, its hard argmax mask (when the
    caller asked for masks) and its forward cache; a learner pops its
    cache once its backward pass has run. Every loss term of every
    learner on that image reads from one row, so each network forwards
    each image once.
    """

    probs: dict[int, ProbMap]
    masks: dict[int, LabelMask]
    caches: dict[int, ForwardCache]


def _prediction_row(
    snapshot: Sequence[ModelParams],
    image: ImageTensor,
    nets: Iterable[int],
    masks: bool = True,
) -> _PredictionRow:
    row = _PredictionRow(probs={}, masks={}, caches={})
    for z in nets:
        probs, cache = _probs_with_cache(snapshot[z], image)
        row.probs[z] = probs
        if masks:
            row.masks[z] = argmax_mask(probs)
        row.caches[z] = cache
    return row


def _npce_terms(
    row: _PredictionRow,
    sample: MultiAnnotatedSample,
    k: int,
    j: int,
    alpha: float,
    beta: float,
) -> tuple[float, float, np.ndarray]:
    """l_ma, l_pc and the weighted logit gradient of network k against peer j."""
    agree, disagree = separate_agreement(sample.annotations[k], sample.annotations[j])
    probs_k = row.probs[k]
    grad_logits = np.zeros_like(probs_k.probs)
    l_ma = 0.0
    if alpha != 0:
        l_ma, g_ma = masked_cross_entropy(probs_k, agree)
        grad_logits += alpha * g_ma
    l_pc = 0.0
    if beta != 0:
        consistent, _ = separate_agreement(row.masks[k], row.masks[j])
        refined = restrict(consistent, disagree)
        l_pc, g_pc = masked_cross_entropy(probs_k, refined)
        grad_logits += beta * g_pc
    return l_ma, l_pc, grad_logits


def _mnps_terms(row: _PredictionRow, k: int) -> tuple[float, np.ndarray]:
    """l_ps and its logit gradient for network k.

    The row must hold every network's mask, in ascending network order.
    """
    peer_masks = [mask for z, mask in row.masks.items() if z != k]
    return masked_cross_entropy(row.probs[k], consensus_set(peer_masks))


def npce_losses(
    snapshot: Sequence[ModelParams],
    sample: MultiAnnotatedSample,
    k: int,
    j: int,
    alpha: float = ALPHA_DEFAULT,
    beta: float = BETA_DEFAULT,
) -> tuple[float, float, np.ndarray]:
    """Agreement and consistency losses for network k against peer j.

    Returns (l_ma, l_pc, param_grad) where param_grad already carries the
    alpha/beta weights. The peer contributes only its hard argmax mask,
    so no gradient flows into network j. A zero weight skips its term
    entirely and reports that component as 0.
    """
    if k == j:
        raise ValueError("comparison network must differ from the learner")
    nets = (k, j) if beta != 0 else (k,)
    row = _prediction_row(snapshot, sample.image, nets, masks=beta != 0)
    l_ma, l_pc, grad_logits = _npce_terms(row, sample, k, j, alpha, beta)
    return l_ma, l_pc, backward(snapshot[k], row.caches[k], grad_logits)


def mnps_loss(
    snapshot: Sequence[ModelParams],
    sample: UnannotatedSample,
    k: int,
) -> tuple[float, np.ndarray]:
    """Pseudo-supervision of network k on one unannotated image.

    Targets are the pixels where all peer networks' hard predictions
    agree, labeled with that unanimous prediction; peers are constants.
    """
    row = _prediction_row(snapshot, sample.image, range(len(snapshot)))
    l_ps, grad_logits = _mnps_terms(row, k)
    return l_ps, backward(snapshot[k], row.caches[k], grad_logits)


def _annotated_grads(
    snapshot: Sequence[ModelParams],
    sample: MultiAnnotatedSample,
    peers: Sequence[int],
    config: TrainConfig,
) -> list[tuple[float, float, np.ndarray]]:
    """(l_ma, l_pc, param_grad) of every network k against peers[k] on one sample."""
    nets = range(len(snapshot))
    row = _prediction_row(snapshot, sample.image, nets, masks=config.beta != 0)
    out = []
    for k, j in enumerate(peers):
        l_ma, l_pc, grad_logits = _npce_terms(
            row, sample, k, j, config.alpha, config.beta
        )
        out.append((l_ma, l_pc, backward(snapshot[k], row.caches.pop(k), grad_logits)))
    return out


def _unannotated_grads(
    snapshot: Sequence[ModelParams], sample: UnannotatedSample
) -> list[tuple[float, np.ndarray]]:
    """(l_ps, param_grad) of every network on one unannotated image."""
    nets = range(len(snapshot))
    row = _prediction_row(snapshot, sample.image, nets)
    out = []
    for k in nets:
        l_ps, grad_logits = _mnps_terms(row, k)
        out.append((l_ps, backward(snapshot[k], row.caches.pop(k), grad_logits)))
    return out


def train_iteration(
    state: EnsembleState,
    annotated: Sequence[MultiAnnotatedSample],
    unannotated: Sequence[UnannotatedSample],
    config: TrainConfig,
) -> list[LossBreakdown]:
    """One optimizer step for every network against a shared snapshot.

    rng consumption order is fixed: one comparison draw per network in
    ascending k. Batches are sampled by the caller.
    """
    if state.t >= config.total_iters:
        raise TrainingError(f"iteration {state.t} exceeds total_iters")
    lam = config.lambda_at(state.t)
    lr = config.lr_at(state.t)
    snapshot = state.snapshot()
    use_ps = config.w_max > 0 and len(unannotated) > 0
    nets = range(config.k)
    peers = [pick_comparison(k, config.k, state.rng) for k in nets]

    # Each network's sums run over the images in batch order, exactly as a
    # learner-major loop would add them, so the results are bit-identical.
    grads = [np.zeros_like(p.flat) for p in snapshot]
    l_ma_sums = [0.0] * config.k
    l_pc_sums = [0.0] * config.k
    for sample in annotated:
        for k, (l_ma, l_pc, g) in enumerate(
            _annotated_grads(snapshot, sample, peers, config)
        ):
            l_ma_sums[k] += l_ma
            l_pc_sums[k] += l_pc
            grads[k] += g
    for grad in grads:
        grad /= len(annotated)

    l_ps_sums = [0.0] * config.k
    if use_ps:
        ps_grads = [np.zeros_like(p.flat) for p in snapshot]
        for sample in unannotated:
            for k, (l_ps, g) in enumerate(_unannotated_grads(snapshot, sample)):
                l_ps_sums[k] += l_ps
                ps_grads[k] += g
        for grad, ps_grad in zip(grads, ps_grads):
            grad += lam * ps_grad / len(unannotated)

    breakdowns = []
    for k in nets:
        l_ma_mean = l_ma_sums[k] / len(annotated)
        l_pc_mean = l_pc_sums[k] / len(annotated)
        l_ps_mean = l_ps_sums[k] / len(unannotated) if use_ps else 0.0
        if not all(map(math.isfinite, (l_ma_mean, l_pc_mean, l_ps_mean))):
            raise TrainingError(
                f"non-finite loss for network {k} at iteration {state.t}: "
                f"l_ma={l_ma_mean}, l_pc={l_pc_mean}, l_ps={l_ps_mean}"
            )
        breakdowns.append(
            total_network_loss(
                l_ma_mean, l_pc_mean, l_ps_mean, config.alpha, config.beta, lam
            )
        )

    for k, slot in enumerate(state.nets):
        slot.opt = replace(slot.opt, lr=lr)
        slot.params, slot.opt = adam_step(slot.params, slot.opt, grads[k])
    state.t += 1
    return breakdowns


# ---------------------------------------------------------------------------
# evaluation helpers shared by the trainer and the command-line tools


def fused_probs(params_list: Sequence[ModelParams], image: ImageTensor) -> ProbMap:
    return average_fuse([predict_probs(p, image) for p in params_list])


def fused_prediction(
    params_list: Sequence[ModelParams], image: ImageTensor
) -> LabelMask:
    return argmax_mask(fused_probs(params_list, image))


def _foreground_jaccard(pred: LabelMask, ref: LabelMask) -> float:
    scores = [jaccard(pred, ref, c) for c in range(1, ref.num_classes)]
    return float(np.mean(scores))


def validation_references(
    samples: Sequence[MultiAnnotatedSample],
) -> list[LabelMask]:
    """Majority-vote fusion of each sample's annotations."""
    return [majority_vote(s.annotations) for s in samples]


def network_validation_score(
    params: ModelParams,
    samples: Sequence[MultiAnnotatedSample],
    references: Sequence[LabelMask],
) -> float:
    scores = [
        _foreground_jaccard(argmax_mask(predict_probs(params, s.image)), ref)
        for s, ref in zip(samples, references)
    ]
    return float(np.mean(scores))


def _validation_scores(
    params_list: Sequence[ModelParams],
    samples: Sequence[MultiAnnotatedSample],
    references: Sequence[LabelMask],
) -> tuple[float, list[float]]:
    """The fused validation score and each network's network_validation_score,
    from one forward per (network, image)."""
    fused: list[float] = []
    per_net: list[list[float]] = [[] for _ in params_list]
    for s, ref in zip(samples, references):
        row = [predict_probs(p, s.image) for p in params_list]
        fused.append(_foreground_jaccard(argmax_mask(average_fuse(row)), ref))
        for scores, probs in zip(per_net, row):
            scores.append(_foreground_jaccard(argmax_mask(probs), ref))
    return float(np.mean(fused)), [float(np.mean(scores)) for scores in per_net]


def fused_validation_score(
    params_list: Sequence[ModelParams],
    samples: Sequence[MultiAnnotatedSample],
    references: Sequence[LabelMask],
) -> float:
    """Mean foreground Jaccard of the averaged ensemble's predictions."""
    return _validation_scores(params_list, samples, references)[0]


def ensemble_agreement(
    params_list: Sequence[ModelParams], images: Sequence[ImageTensor]
) -> float:
    """Mean pairwise agreement of the networks' predictions."""
    total = 0.0
    count = 0
    for image in images:
        preds = [argmax_mask(predict_probs(p, image)) for p in params_list]
        for a in range(len(preds)):
            for b in range(a + 1, len(preds)):
                total += agreement_fraction(preds[a], preds[b])
                count += 1
    return total / count if count else 1.0


# ---------------------------------------------------------------------------
# full runs


@dataclass
class TraceRow:
    iteration: int
    net: int
    l_ma: float
    l_pc: float
    l_ps: float
    lambda_t: float
    total: float
    agreement: float
    val_jaccard: float

    def to_csv(self) -> str:
        floats = (
            self.l_ma,
            self.l_pc,
            self.l_ps,
            self.lambda_t,
            self.total,
            self.agreement,
            self.val_jaccard,
        )
        return f"{self.iteration},{self.net}," + ",".join(
            f"{v:.12g}" for v in floats
        )


@dataclass
class TrainResult:
    state: EnsembleState
    best: BestRecord
    trace: list[TraceRow]
    config: TrainConfig

    def trace_csv(self) -> str:
        lines = [TRACE_HEADER] + [row.to_csv() for row in self.trace]
        return "\n".join(lines) + "\n"


def _probe_losses(
    snapshot: Sequence[ModelParams],
    dataset: Dataset,
    config: TrainConfig,
    lam: float,
) -> tuple[float, float, float, float]:
    """Ensemble-mean loss components on a fixed probe batch.

    Uses the first annotated sample and the head of the unannotated pool
    with the deterministic pairing j = (k+1) mod K, so checkpoint rows
    are comparable across iterations and consume no rng draws. Losses
    only: one prediction row per probe image and no backward pass.
    """
    sample = dataset.multi[0]
    probe_unann = dataset.unannotated[: config.unannotated_batch]
    use_ps = config.w_max > 0 and len(probe_unann) > 0
    nets = range(config.k)
    row = _prediction_row(snapshot, sample.image, nets, masks=config.beta != 0)
    npce = [
        _npce_terms(row, sample, k, (k + 1) % config.k, config.alpha, config.beta)
        for k in nets
    ]
    # a row holds K forward caches: free each before building the next
    del row
    l_ps = [0.0] * config.k
    if use_ps:
        for u in probe_unann:
            row = _prediction_row(snapshot, u.image, nets)
            for k in nets:
                l_ps[k] += _mnps_terms(row, k)[0]
            del row
    l_ma_m = l_pc_m = l_ps_m = total_m = 0.0
    for k in nets:
        l_ma, l_pc, _ = npce[k]
        l_ps_k = l_ps[k] / len(probe_unann) if use_ps else 0.0
        bd = total_network_loss(l_ma, l_pc, l_ps_k, config.alpha, config.beta, lam)
        l_ma_m += bd.l_ma
        l_pc_m += bd.l_pc
        l_ps_m += bd.l_ps
        total_m += bd.total
    return (
        l_ma_m / config.k,
        l_pc_m / config.k,
        l_ps_m / config.k,
        total_m / config.k,
    )


def run_training(
    dataset: Dataset, config: TrainConfig, out_dir: Optional[str | Path] = None
) -> TrainResult:
    """Train the ensemble, tracking the best validation checkpoint.

    Every validation_every iterations (and at iteration 0) the trainer
    logs one aggregate trace row (net = -1): probe-batch loss components,
    the ramp weight, mean pairwise prediction agreement on the training
    images, and the fused validation Jaccard against majority-vote
    references. The kept checkpoint maximizes the validation score under
    the configured selection mode. With out_dir set, trace.csv, one
    checkpoint per network, and a manifest are written there.
    """
    if not dataset.multi:
        raise TrainingError("training requires at least one multi-annotated sample")
    if not dataset.validation:
        raise TrainingError("training requires a validation split")
    for s in dataset.multi + dataset.validation:
        if len(s.annotations) != config.k:
            raise TrainingError(
                f"sample has {len(s.annotations)} annotations, config.k={config.k}"
            )

    first = dataset.multi[0]
    arch = Architecture(
        in_channels=first.image.channels,
        hidden=config.hidden,
        num_classes=first.annotations[0].num_classes,
    )

    ss = np.random.SeedSequence(config.seed)
    net_ss, train_ss = ss.spawn(2)
    net_seeds = [int(s.generate_state(1)[0]) for s in net_ss.spawn(config.k)]
    rng = np.random.default_rng(train_ss)

    nets = []
    for k in range(config.k):
        params = init_params(arch, net_seeds[k])
        nets.append(NetworkSlot(params=params, opt=init_opt_state(params, config.lr)))
    state = EnsembleState(nets=nets, t=0, rng=rng)

    val_refs = validation_references(dataset.validation)
    train_images = [s.image for s in dataset.multi]

    trace: list[TraceRow] = []

    # per-network selection tracks each network's own best iteration
    net_best: list[tuple[float, ModelParams, int]] = [
        (-1.0, nets[k].params, 0) for k in range(config.k)
    ]

    def record_checkpoint() -> None:
        snapshot = state.snapshot()
        lam = config.lambda_at(state.t)
        l_ma, l_pc, l_ps, total = _probe_losses(snapshot, dataset, config, lam)
        agreement = ensemble_agreement(snapshot, train_images)
        val_score, net_scores = _validation_scores(snapshot, dataset.validation, val_refs)
        trace.append(
            TraceRow(
                iteration=state.t,
                net=-1,
                l_ma=l_ma,
                l_pc=l_pc,
                l_ps=l_ps,
                lambda_t=lam,
                total=total,
                agreement=agreement,
                val_jaccard=val_score,
            )
        )
        if config.selection == "per-network":
            for k, (params, score) in enumerate(zip(snapshot, net_scores)):
                if score > net_best[k][0]:
                    net_best[k] = (score, params, state.t)
        elif state.best is None or val_score > state.best.score:
            state.best = BestRecord(
                iteration=state.t, score=val_score, params=list(snapshot)
            )

    if config.total_iters == 0:
        state.best = BestRecord(iteration=0, score=float("nan"), params=state.snapshot())
        result = TrainResult(state=state, best=state.best, trace=[], config=config)
    else:
        record_checkpoint()
        while state.t < config.total_iters:
            ann_idx = rng.integers(len(dataset.multi), size=config.annotated_per_iter)
            annotated = [dataset.multi[int(i)] for i in ann_idx]
            unannotated: list[UnannotatedSample] = []
            if config.w_max > 0 and dataset.unannotated:
                un_idx = rng.integers(
                    len(dataset.unannotated), size=config.unannotated_batch
                )
                unannotated = [dataset.unannotated[int(i)] for i in un_idx]
            train_iteration(state, annotated, unannotated, config)
            if state.t % config.validation_every == 0:
                record_checkpoint()
        if config.selection == "per-network":
            state.best = BestRecord(
                iteration=-1,
                score=float(np.mean([b[0] for b in net_best])),
                params=[b[1] for b in net_best],
                net_iterations=[b[2] for b in net_best],
            )
        result = TrainResult(state=state, best=state.best, trace=trace, config=config)

    if out_dir is not None:
        write_run(result, out_dir, net_seeds)
    return result


def train_single_annotator(
    dataset: Dataset,
    config: TrainConfig,
    annotator: int,
    out_dir: Optional[str | Path] = None,
) -> TrainResult:
    """Supervised baseline: one network, one annotator, full-grid CE.

    Shares the optimizer, learning-rate schedule, batch sampling, and
    validation-selection protocol with the ensemble run, so comparisons
    against it isolate the multi-annotator machinery. Trace rows use
    net = 0 and a pairwise agreement of 1.0 (there are no peers).
    """
    from .masks import full_grid_labels

    if not dataset.multi:
        raise TrainingError("training requires at least one multi-annotated sample")
    if not dataset.validation:
        raise TrainingError("training requires a validation split")
    if not 0 <= annotator < len(dataset.multi[0].annotations):
        raise TrainingError(f"annotator index {annotator} out of range")

    first = dataset.multi[0]
    arch = Architecture(
        in_channels=first.image.channels,
        hidden=config.hidden,
        num_classes=first.annotations[0].num_classes,
    )
    ss = np.random.SeedSequence(config.seed)
    net_ss, train_ss = ss.spawn(2)
    net_seed = int(net_ss.spawn(1)[0].generate_state(1)[0])
    rng = np.random.default_rng(train_ss)

    params = init_params(arch, net_seed)
    opt = init_opt_state(params, config.lr)
    val_refs = validation_references(dataset.validation)

    trace: list[TraceRow] = []
    best: Optional[BestRecord] = None
    t = 0

    def record_checkpoint() -> None:
        nonlocal best
        targets = full_grid_labels(first.annotations[annotator])
        probs = predict_probs(params, first.image)
        l_ma, _ = masked_cross_entropy(probs, targets)
        score = network_validation_score(params, dataset.validation, val_refs)
        trace.append(
            TraceRow(
                iteration=t,
                net=0,
                l_ma=l_ma,
                l_pc=0.0,
                l_ps=0.0,
                lambda_t=0.0,
                total=config.alpha * l_ma,
                agreement=1.0,
                val_jaccard=score,
            )
        )
        if best is None or score > best.score:
            best = BestRecord(iteration=t, score=score, params=[params])

    if config.total_iters == 0:
        best = BestRecord(iteration=0, score=float("nan"), params=[params])
    else:
        record_checkpoint()
        while t < config.total_iters:
            idx = rng.integers(len(dataset.multi), size=config.annotated_per_iter)
            grad = np.zeros_like(params.flat)
            for i in idx:
                sample = dataset.multi[int(i)]
                probs, cache = _probs_with_cache(params, sample.image)
                targets = full_grid_labels(sample.annotations[annotator])
                loss, grad_logits = masked_cross_entropy(probs, targets)
                if not math.isfinite(loss):
                    raise TrainingError(f"non-finite loss at iteration {t}")
                grad += backward(params, cache, config.alpha * grad_logits)
            grad /= len(idx)
            opt = replace(opt, lr=config.lr_at(t))
            params, opt = adam_step(params, opt, grad)
            t += 1
            if t % config.validation_every == 0:
                record_checkpoint()

    state = EnsembleState(
        nets=[NetworkSlot(params=params, opt=opt)], t=t, rng=rng, best=best
    )
    result = TrainResult(state=state, best=best, trace=trace, config=config)
    if out_dir is not None:
        write_run(result, out_dir, [net_seed])
    return result


def write_run(
    result: TrainResult, out_dir: str | Path, net_seeds: Sequence[int]
) -> None:
    """Persist trace, per-network best checkpoints, and the run manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.csv").write_text(result.trace_csv())
    lines = [
        f"config_hash\t{config_hash(result.config)}",
        # number of stored networks: 1 for the single-annotator baseline
        f"k\t{len(result.best.params)}",
        f"total_iters\t{result.config.total_iters}",
        f"best_iteration\t{result.best.iteration}",
        f"best_score\t{result.best.score:.12g}",
        f"selection\t{result.config.selection}",
        f"seed\t{result.config.seed}",
    ]
    for k, params in enumerate(result.best.params):
        name = f"net{k}.msen"
        save_checkpoint(params, str(out / name))
        lines.append(f"net{k}_file\t{name}")
        lines.append(f"net{k}_seed\t{net_seeds[k]}")
        if result.best.net_iterations is not None:
            lines.append(f"net{k}_best_iteration\t{result.best.net_iterations[k]}")
    (out / "manifest.tsv").write_text("\n".join(lines) + "\n")
