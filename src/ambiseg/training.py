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

The single-annotator baseline is this loop with K = 1: a lone network
compares with itself, so it learns its whole annotation (full-grid CE),
with nothing to refine, no peer consensus and no ramp weight.

Every pass of several networks over images goes through prediction
rows: one row per image holds every network's probabilities and, on
request, argmax masks. An iteration walks the batch image by image: each
row feeds every learner's loss terms on that image, each learner
backpropagates once, and the next row is built only then. Each network
therefore forwards each batch image once. Every learner's losses and
gradients still add up in batch order (annotated samples, then
unannotated ones), so results are bit-identical to a learner-major loop
that computes each learner's losses on its own. A checkpoint is one pass
of rows over the training images, the probe's unannotated images and the
validation split, with no backward pass; fused prediction uses the same
rows.

Buffers: a training run owns one forward cache per network (a list,
network z's cache at index z, None until its first forward), and every
forward of the run (training and checkpoint rows) writes network z's
activations into cache z. A cache is overwritten by the next forward
that receives it, so a row's activations are valid only until the next
row is built; backward only reads them. The run's caches die with the
run: no returned object references them. Rows built without caches share
one cache of their own across the networks, since nothing backpropagates
through them; train_iteration called without caches uses one per network
for that call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

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
from .masks import (
    LabelMask,
    _unchecked,
    argmax_mask,
    consensus_set,
    restrict,
    separate_agreement,
)
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
        for name in ("alpha", "beta", "w_max", "lr", "lr_decay_factor"):
            if not math.isfinite(getattr(self, name)):
                raise TrainingError(f"{name} must be finite, got {getattr(self, name)}")
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


@dataclass
class _PredictionRow:
    """Every network's prediction on one image, indexed by network.

    Holds each network's probabilities and, when the caller asked for
    masks, its hard argmax mask. Every loss term of every learner on that
    image reads from one row, so each network forwards each image once.
    The row holds no activations: network z's stay in the cache the row
    was built with until the next row overwrites them.
    """

    probs: list[ProbMap]
    masks: list[LabelMask]


def _prediction_row(
    snapshot: Sequence[ModelParams],
    image: ImageTensor,
    masks: bool,
    caches: list[Optional[ForwardCache]],
) -> _PredictionRow:
    row = _PredictionRow(probs=[], masks=[])
    for z, params in enumerate(snapshot):
        # a list of one cache is shared by every network
        slot = z % len(caches)
        logits, caches[slot] = forward(params, image, caches[slot])
        # a softmax of the model's logits passes every ProbMap check
        probs = _unchecked(
            ProbMap,
            width=image.width,
            height=image.height,
            num_classes=params.arch.num_classes,
            probs=softmax(logits),
            logits=logits,
        )
        row.probs.append(probs)
        if masks:
            row.masks.append(argmax_mask(probs))
    return row


def _prediction_rows(
    params_list: Sequence[ModelParams],
    images: Iterable[ImageTensor],
    masks: bool,
    caches: Optional[list[Optional[ForwardCache]]] = None,
) -> Iterator[_PredictionRow]:
    """One prediction row per image, in order, each built when the
    previous one has been consumed.

    Network z forwards into caches[z]. Without caches every network
    shares one cache, so no row can be backpropagated.
    """
    if caches is None:
        caches = [None]
    for image in images:
        yield _prediction_row(params_list, image, masks, caches)


def _npce_terms(
    row: _PredictionRow,
    sample: MultiAnnotatedSample,
    k: int,
    j: int,
    alpha: float,
    beta: float,
) -> tuple[float, float, np.ndarray]:
    """l_ma, l_pc and the weighted logit gradient of network k against peer j.

    The peer contributes only its hard argmax mask, so no gradient flows
    into network j. A zero weight skips its term and reports it as 0.
    """
    agree, disagree = separate_agreement(sample.annotations[k], sample.annotations[j])
    probs_k = row.probs[k]
    grad_logits = np.zeros_like(probs_k.probs)
    l_ma = 0.0
    if alpha != 0:
        l_ma, g_ma = masked_cross_entropy(probs_k, agree)
        grad_logits += alpha * g_ma
    l_pc = 0.0
    # annotations that agree everywhere leave nothing to refine
    if beta != 0 and len(disagree):
        consistent, _ = separate_agreement(row.masks[k], row.masks[j])
        refined = restrict(consistent, disagree)
        l_pc, g_pc = masked_cross_entropy(probs_k, refined)
        grad_logits += beta * g_pc
    return l_ma, l_pc, grad_logits


def _mnps_terms(row: _PredictionRow, k: int) -> tuple[float, np.ndarray]:
    """l_ps and its logit gradient for network k: the pixels where all of
    its peers' hard predictions agree, labeled with that prediction."""
    peer_masks = [mask for z, mask in enumerate(row.masks) if z != k]
    return masked_cross_entropy(row.probs[k], consensus_set(peer_masks))


def _needs_masks(config: TrainConfig, num_nets: int) -> bool:
    """Whether annotated rows need argmax masks: only the consistency term
    reads them, and a lone network has no peer to be consistent with."""
    return config.beta != 0 and num_nets > 1


def _ramp_weight(config: TrainConfig, t: int, num_nets: int) -> float:
    """The pseudo-label weight at iteration t; 0 for a lone network, which
    has no peers to form a consensus."""
    return config.lambda_at(t) if num_nets > 1 else 0.0


def train_iteration(
    state: EnsembleState,
    annotated: Sequence[MultiAnnotatedSample],
    unannotated: Sequence[UnannotatedSample],
    config: TrainConfig,
    caches: Optional[list[Optional[ForwardCache]]] = None,
) -> list[LossBreakdown]:
    """One optimizer step for every network against a shared snapshot.

    rng consumption order is fixed: one comparison draw per network in
    ascending k, and none for a lone network, which compares with itself.
    Batches are sampled by the caller. Forwards go into `caches` (see
    the module docstring).
    """
    if state.t >= config.total_iters:
        raise TrainingError(f"iteration {state.t} exceeds total_iters")
    snapshot = state.snapshot()
    num_nets = len(snapshot)
    if caches is None:
        # backward reads every network's activations of the current row
        caches = [None] * num_nets
    lam = _ramp_weight(config, state.t, num_nets)
    lr = config.lr_at(state.t)
    use_ps = config.w_max > 0 and len(unannotated) > 0
    nets = range(num_nets)
    if num_nets == 1:
        peers = [0]
    else:
        peers = [pick_comparison(k, num_nets, state.rng) for k in nets]

    # Each network's sums run over the images in batch order, exactly as a
    # learner-major loop would add them, so the results are bit-identical.
    grads = [np.zeros_like(p.flat) for p in snapshot]
    l_ma_sums = [0.0] * num_nets
    l_pc_sums = [0.0] * num_nets
    rows = _prediction_rows(
        snapshot, [s.image for s in annotated], _needs_masks(config, num_nets), caches
    )
    for sample, row in zip(annotated, rows):
        for k, j in enumerate(peers):
            l_ma, l_pc, grad_logits = _npce_terms(
                row, sample, k, j, config.alpha, config.beta
            )
            l_ma_sums[k] += l_ma
            l_pc_sums[k] += l_pc
            grads[k] += backward(snapshot[k], caches[k], grad_logits)
    for grad in grads:
        grad /= len(annotated)

    l_ps_sums = [0.0] * num_nets
    if use_ps:
        ps_grads = [np.zeros_like(p.flat) for p in snapshot]
        rows = _prediction_rows(snapshot, [s.image for s in unannotated], True, caches)
        for row in rows:
            for k in nets:
                l_ps, grad_logits = _mnps_terms(row, k)
                l_ps_sums[k] += l_ps
                ps_grads[k] += backward(snapshot[k], caches[k], grad_logits)
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
    """The ensemble's averaged class probabilities on one image."""
    (row,) = _prediction_rows(params_list, [image], masks=False)
    return average_fuse(row.probs)


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


def _checkpoint(
    snapshot: Sequence[ModelParams],
    dataset: Dataset,
    config: TrainConfig,
    t: int,
    val_refs: Sequence[LabelMask],
    caches: list[Optional[ForwardCache]],
) -> tuple[TraceRow, list[float]]:
    """The trace row of a checkpoint at iteration t, and each network's
    mean foreground Jaccard on the validation split.

    One pass of prediction rows, with no backward pass and no rng draw:
    - rows over the training images (only the first for a lone network,
      which agrees with itself) give the mean pairwise agreement of the
      networks' hard predictions, and the first of them gives the probe's
      agreement and consistency losses, with the deterministic pairing
      j = (k+1) mod K so that checkpoints are comparable;
    - rows over the head of the unannotated pool give the probe's
      pseudo-supervision loss;
    - rows over the validation split give the fused score, which the
      trace records, and the per-network scores.
    The loss columns are ensemble means.
    """
    num_nets = len(snapshot)
    nets = range(num_nets)
    lam = _ramp_weight(config, t, num_nets)
    train = dataset.multi if num_nets > 1 else dataset.multi[:1]
    agreement, pairs = 0.0, 0
    rows = _prediction_rows(snapshot, [s.image for s in train], num_nets > 1, caches)
    for i, row in enumerate(rows):
        if i == 0:
            npce = [
                _npce_terms(row, train[0], k, (k + 1) % num_nets, config.alpha, config.beta)
                for k in nets
            ]
        for a in nets:
            for b in range(a + 1, num_nets):
                agreement += agreement_fraction(row.masks[a], row.masks[b])
                pairs += 1

    probe_unann = dataset.unannotated[: config.unannotated_batch]
    use_ps = config.w_max > 0 and len(probe_unann) > 0
    l_ps = [0.0] * num_nets
    if use_ps:
        for row in _prediction_rows(snapshot, [u.image for u in probe_unann], True, caches):
            for k in nets:
                l_ps[k] += _mnps_terms(row, k)[0]

    fused: list[float] = []
    per_net: list[list[float]] = [[] for _ in nets]
    rows = _prediction_rows(snapshot, [s.image for s in dataset.validation], True, caches)
    for row, ref in zip(rows, val_refs):
        fused.append(_foreground_jaccard(argmax_mask(average_fuse(row.probs)), ref))
        for scores, mask in zip(per_net, row.masks):
            scores.append(_foreground_jaccard(mask, ref))

    l_ma_m = l_pc_m = l_ps_m = total_m = 0.0
    for k in nets:
        l_ma, l_pc, _ = npce[k]
        l_ps_k = l_ps[k] / len(probe_unann) if use_ps else 0.0
        bd = total_network_loss(l_ma, l_pc, l_ps_k, config.alpha, config.beta, lam)
        l_ma_m += bd.l_ma
        l_pc_m += bd.l_pc
        l_ps_m += bd.l_ps
        total_m += bd.total
    trace_row = TraceRow(
        iteration=t,
        net=-1 if num_nets > 1 else 0,
        l_ma=l_ma_m / num_nets,
        l_pc=l_pc_m / num_nets,
        l_ps=l_ps_m / num_nets,
        lambda_t=lam,
        total=total_m / num_nets,
        agreement=agreement / pairs if pairs else 1.0,
        val_jaccard=float(np.mean(fused)),
    )
    return trace_row, [float(np.mean(scores)) for scores in per_net]


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
    for s in dataset.multi + dataset.validation:
        if len(s.annotations) != config.k:
            raise TrainingError(
                f"sample has {len(s.annotations)} annotations, config.k={config.k}"
            )
    return _train(dataset, config, out_dir)


def train_single_annotator(
    dataset: Dataset,
    config: TrainConfig,
    annotator: int,
    out_dir: Optional[str | Path] = None,
) -> TrainResult:
    """Supervised baseline: the ensemble loop with one network, trained on
    one annotator's masks and no unannotated images.

    Validation still scores against majority votes over all annotators, so
    comparisons isolate the multi-annotator machinery. config.k is unused.
    Trace rows use net = 0, a ramp weight of 0 and an agreement of 1.0
    (there are no peers); selection is always fused.
    """
    if dataset.multi and not 0 <= annotator < dataset.k:
        raise TrainingError(f"annotator index {annotator} out of range")
    view = replace(
        dataset,
        multi=[replace(s, annotations=[s.annotations[annotator]]) for s in dataset.multi],
        unannotated=[],
    )
    return _train(view, config, out_dir)


def _train(
    dataset: Dataset, config: TrainConfig, out_dir: Optional[str | Path]
) -> TrainResult:
    """The training loop, with one network per annotation of a training sample.

    Every forward of the run goes through one list of caches, which is
    freed when this returns: the result references none of them.
    """
    if not dataset.multi:
        raise TrainingError("training requires at least one multi-annotated sample")
    if not dataset.validation:
        raise TrainingError("training requires a validation split")

    num_nets = dataset.k
    first = dataset.multi[0]
    arch = Architecture(
        in_channels=first.image.channels,
        hidden=config.hidden,
        num_classes=first.annotations[0].num_classes,
    )

    ss = np.random.SeedSequence(config.seed)
    net_ss, train_ss = ss.spawn(2)
    net_seeds = [int(s.generate_state(1)[0]) for s in net_ss.spawn(num_nets)]
    rng = np.random.default_rng(train_ss)

    nets = []
    for seed in net_seeds:
        params = init_params(arch, seed)
        nets.append(NetworkSlot(params=params, opt=init_opt_state(params, config.lr)))
    state = EnsembleState(nets=nets, t=0, rng=rng)
    caches: list[Optional[ForwardCache]] = [None] * num_nets

    val_refs = validation_references(dataset.validation)

    trace: list[TraceRow] = []

    # per-network selection tracks each network's own best iteration
    per_network = config.selection == "per-network" and num_nets > 1
    net_best: list[tuple[float, ModelParams, int]] = [
        (-1.0, slot.params, 0) for slot in nets
    ]

    def record_checkpoint() -> None:
        snapshot = state.snapshot()
        row, net_scores = _checkpoint(snapshot, dataset, config, state.t, val_refs, caches)
        trace.append(row)
        if per_network:
            for k, (params, score) in enumerate(zip(snapshot, net_scores)):
                if score > net_best[k][0]:
                    net_best[k] = (score, params, state.t)
        elif state.best is None or row.val_jaccard > state.best.score:
            state.best = BestRecord(
                iteration=state.t, score=row.val_jaccard, params=list(snapshot)
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
            train_iteration(state, annotated, unannotated, config, caches)
            if state.t % config.validation_every == 0:
                record_checkpoint()
        if per_network:
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
