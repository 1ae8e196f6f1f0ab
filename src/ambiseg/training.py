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

A run's state is one RunState: each network's parameters and Adam
state, the iteration count, the rng, the trace and each network's kept
checkpoint. _train starts one, records checkpoint 0, then advances it
validation_every iterations at a time, recording each checkpoint, until
total_iters; it builds the run's BestRecord from the kept checkpoints at
the end.

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

Executors: networks share nothing but hard predictions on the same image
(a peer's argmax mask in the consistency term, the peers' consensus in
pseudo-supervision), so once an iteration's parameter snapshot is fixed,
each batch image is an independent unit of work: its row, every
network's loss terms on it and every network's gradient from it. A run's
executors are one crew: W = min(images per iteration, usable cores)
executors, row r on executor r mod W. The calling process is executor 0;
W - 1 workers are forked (start method "fork", named explicitly) once per
run, and a crew of one forks nothing. A worker knows only its job: per
iteration the calling process draws the batch and the comparison
networks in the serial order, sends each worker one job (the snapshot,
the samples of its rows, the comparison networks and the config), builds
its own rows meanwhile and reads one reply per worker (its rows' loss
terms and gradients). It then adds each network's terms and gradients in
batch order and takes every Adam step itself, so the rng, the parameters
and the Adam state never leave it, and it runs every checkpoint alone.
Every row is computed by the same operations wherever it runs and its
float64 results cross processes exactly, so results are bit-identical
for every W. While workers run, numpy's OpenBLAS is held to one thread
(the workers inherit the setting), and restored afterwards. W is 1 for a
one-image batch, on one core, where the platform cannot fork or report
its cores, and where no OpenBLAS thread control is found. A worker that
raises (its message travels to the calling process), dies or is
interrupted ends the run with TrainingError. Every worker is stopped
with SIGTERM before the run returns or raises.

Buffers, per executor: an executor holds one forward cache per network
(a list indexed by network, None until that network's first forward),
and every forward it makes for network z (training rows, and in the
calling process checkpoint rows) writes z's activations into cache z.
The crew owns executor 0's caches, and each worker keeps its own. A
cache is overwritten by the next forward that receives it, so a row's
activations are valid only until the next row is built; backward only
reads them. The run's caches die with the run: no returned object
references them. Rows built without caches share one cache of their own
across the networks, since nothing backpropagates through them;
train_iteration called without a crew uses one cache per network for
that call.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .data import Dataset, MultiAnnotatedSample, UnannotatedSample, text_lines
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
    load_checkpoint,
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
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed}")
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
class RunState:
    """A run between iterations, indexed by network z: params[z] and its
    Adam state opts[z], the next iteration t, the rng that draws batches
    and comparison networks, the trace so far, and network z's kept
    checkpoint best[z] = (score, iteration, params)."""

    params: list[ModelParams]
    opts: list[OptState]
    t: int
    rng: np.random.Generator
    trace: list[TraceRow] = field(default_factory=list)
    best: list[tuple[float, int, ModelParams]] = field(default_factory=list)

    def record(self, row: TraceRow, net_scores: Sequence[float], selection: str) -> None:
        """Log the checkpoint at t and keep each network whose score beats
        its best, so a tie keeps the earlier checkpoint. Under fused
        selection every network scores the fused validation Jaccard, so all
        are kept from one checkpoint."""
        self.trace.append(row)
        fused = [row.val_jaccard] * len(net_scores)
        for z, score in enumerate(net_scores if selection == "per-network" else fused):
            if score > self.best[z][0]:
                self.best[z] = (score, self.t, self.params[z])


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


def npce_losses(
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


def mnps_loss(row: _PredictionRow, k: int) -> tuple[float, np.ndarray]:
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


def _row_steps(
    snapshot: Sequence[ModelParams],
    sample: MultiAnnotatedSample | UnannotatedSample,
    peers: Sequence[int],
    config: TrainConfig,
    caches: list[Optional[ForwardCache]],
) -> list[tuple[tuple[float, float, float], np.ndarray]]:
    """One batch image's share of an iteration, indexed by network: its
    (l_ma, l_pc, l_ps) on `sample` and the parameter gradient of their
    weighted logit terms, before batch means and the ramp weight.

    An annotated sample gives each network's agreement and consistency
    terms against its comparison network peers[k], an unannotated one its
    pseudo-supervision term. Each network backpropagates once into its cache.
    """
    annotated = isinstance(sample, MultiAnnotatedSample)
    masks = _needs_masks(config, len(snapshot)) if annotated else True
    row = _prediction_row(snapshot, sample.image, masks, caches)
    steps = []
    for k, params in enumerate(snapshot):
        if annotated:
            l_ma, l_pc, grad_logits = npce_losses(
                row, sample, k, peers[k], config.alpha, config.beta
            )
            terms = (l_ma, l_pc, 0.0)
        else:
            l_ps, grad_logits = mnps_loss(row, k)
            terms = (0.0, 0.0, l_ps)
        steps.append((terms, backward(params, caches[k], grad_logits)))
    return steps


def train_iteration(
    state: RunState,
    annotated: Sequence[MultiAnnotatedSample],
    unannotated: Sequence[UnannotatedSample],
    config: TrainConfig,
    _crew: Optional[_Crew] = None,
) -> list[LossBreakdown]:
    """One optimizer step for every network against a shared snapshot.

    rng consumption order is fixed: one comparison draw per network in
    ascending k, and none for a lone network, which compares with itself.
    Batches are sampled by the caller. The training loop passes its
    executors as `_crew`, which build the batch's rows; without one this
    process builds them, with one cache per network for this call (see
    the module docstring). Each network's terms and gradients add up in
    batch order, annotated samples then unannotated ones. A non-finite
    loss raises TrainingError naming the lowest such network, before any
    network steps.
    """
    if state.t >= config.total_iters:
        raise TrainingError(f"iteration {state.t} exceeds total_iters")
    snapshot = state.params
    num_nets = len(snapshot)
    lam = _ramp_weight(config, state.t, num_nets)
    if num_nets == 1:
        peers = [0]
    else:
        peers = [pick_comparison(k, num_nets, state.rng) for k in range(num_nets)]
    if config.w_max == 0:
        unannotated = []  # no pseudo-supervision term to learn
    batch = [*annotated, *unannotated]
    rows = (_crew or _Crew(1, num_nets)).run(snapshot, batch, peers, config)

    n_ann, n_unann = len(annotated), len(unannotated)
    means, grads = [], []
    for k in range(num_nets):
        l_ma = l_pc = l_ps = 0.0
        grad = np.zeros_like(snapshot[k].flat)
        for (ma, pc, _), row_grad in (row[k] for row in rows[:n_ann]):
            l_ma += ma
            l_pc += pc
            grad += row_grad
        grad /= n_ann
        if n_unann:
            ps_grad = np.zeros_like(grad)
            for (_, _, ps), row_grad in (row[k] for row in rows[n_ann:]):
                l_ps += ps
                ps_grad += row_grad
            grad += lam * ps_grad / n_unann
        means.append((l_ma / n_ann, l_pc / n_ann, l_ps / n_unann if n_unann else 0.0))
        grads.append(grad)

    for k, (l_ma, l_pc, l_ps) in enumerate(means):
        if not all(map(math.isfinite, (l_ma, l_pc, l_ps))):
            raise TrainingError(
                f"non-finite loss for network {k} at iteration {state.t}: "
                f"l_ma={l_ma}, l_pc={l_pc}, l_ps={l_ps}"
            )
    lr = config.lr_at(state.t)
    for k, grad in enumerate(grads):
        opt = replace(state.opts[k], lr=lr)
        state.params[k], state.opts[k] = adam_step(state.params[k], opt, grad)
    state.t += 1
    return [total_network_loss(*m, config.alpha, config.beta, lam) for m in means]


# ---------------------------------------------------------------------------
# executors: the calling process and its forked workers


def _executor_count(images: int) -> int:
    """W for a run with `images` batch images per iteration: one executor
    per usable core and at most one per image; 1 where the platform cannot
    fork or report its cores, or where no OpenBLAS thread control is found."""
    if images < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if not _openblas_thread_controls():
        return 1
    return min(images, len(os.sched_getaffinity(0)))


def _openblas_thread_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions of each OpenBLAS mapped into
    this process, found by path in /proc/self/maps.

    Executors hold BLAS to one thread each: a second BLAS thread buys
    nothing on these small GEMMs, and with processes on every core, idle
    BLAS threads spinning for work made a 2-core run ten times slower.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
    return controls


# messages a worker sends: (tag, body)
_DONE, _FAILED = "done", "failed"


class _Crew:
    """A run's executors: the calling process and W - 1 workers, forked
    when the crew is made and stopped by close().

    `caches` are executor 0's, one per network. Each worker talks to the
    calling process over its own pipe. The calling process sends one job
    per iteration, (snapshot, samples, peers, config): the worker's rows'
    samples and everything else they read. A worker answers each job with
    _DONE and its rows' steps, or with _FAILED and its error's message. A
    worker that dies closes its pipe, so the calling process reads EOF
    instead of waiting for it.
    """

    def __init__(self, executors: int, num_nets: int):
        self.caches: list[Optional[ForwardCache]] = [None] * num_nets
        self._workers: list = []  # (executor number, process, pipe end)
        self._blas_threads: list = []  # (set, thread count before the crew)
        if executors < 2:
            return
        import multiprocessing

        context = multiprocessing.get_context("fork")
        # one BLAS thread here and, through the fork, in every worker
        self._blas_threads = [(set_, get()) for get, set_ in _openblas_thread_controls()]
        for set_, _ in self._blas_threads:
            set_(1)
        try:
            for w in range(1, executors):
                ours, theirs = context.Pipe()
                inherited = [conn for _, _, conn in self._workers] + [ours]
                proc = context.Process(
                    target=_worker,
                    args=(theirs, inherited),
                    name=f"ambiseg-executor-{w}",
                    daemon=True,
                )
                self._workers.append((w, proc, ours))
                proc.start()
                theirs.close()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> _Crew:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker with SIGTERM and restore BLAS's thread count."""
        for _, proc, conn in self._workers:
            if proc.pid is not None:
                proc.terminate()
                proc.join()
                proc.close()
            conn.close()
        self._workers = []
        for set_, threads in self._blas_threads:
            set_(threads)

    @staticmethod
    def _lost(worker) -> TrainingError:
        w, proc, _ = worker
        proc.join(timeout=1.0)
        return TrainingError(
            f"training worker {w} stopped unexpectedly (exit code {proc.exitcode})"
        )

    def _send(self, worker, message) -> None:
        try:
            worker[2].send(message)
        except OSError:
            raise self._lost(worker) from None

    def _receive(self, worker):
        try:
            tag, body = worker[2].recv()
        except (EOFError, OSError):
            raise self._lost(worker) from None
        if tag == _FAILED:
            raise TrainingError(f"training worker {worker[0]} failed: {body}")
        return body

    def run(
        self,
        snapshot: Sequence[ModelParams],
        batch: Sequence[MultiAnnotatedSample | UnannotatedSample],
        peers: Sequence[int],
        config: TrainConfig,
    ) -> list[list[tuple[tuple[float, float, float], np.ndarray]]]:
        """Every batch row's _row_steps, in batch order: row r is built
        by executor r mod W, executor 0's while the workers build theirs."""
        executors = len(self._workers) + 1
        for w, worker in enumerate(self._workers, start=1):
            self._send(worker, (snapshot, batch[w::executors], peers, config))
        steps: list = [None] * len(batch)
        steps[::executors] = [
            _row_steps(snapshot, sample, peers, config, self.caches)
            for sample in batch[::executors]
        ]
        for w, worker in enumerate(self._workers, start=1):
            steps[w::executors] = self._receive(worker)
        return steps


def _worker(conn, inherited) -> None:
    """A forked executor: one job per iteration until it is terminated.

    Ctrl-C is the calling process's to handle, so the worker ignores
    SIGINT. It closes the pipe ends it inherited from the calling
    process, so that either side sees EOF when the other dies, and it
    catches its own exceptions and sends their message to the calling
    process instead of printing a traceback.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    caches: Optional[list[Optional[ForwardCache]]] = None
    try:
        while True:
            snapshot, samples, peers, config = conn.recv()
            if caches is None:
                caches = [None] * len(snapshot)
            steps = [_row_steps(snapshot, s, peers, config, caches) for s in samples]
            conn.send((_DONE, steps))
    except EOFError:
        pass  # the calling process is gone
    except Exception as exc:
        with suppress(OSError):
            conn.send((_FAILED, f"{type(exc).__name__}: {exc}"))


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
    state: RunState
    best: BestRecord
    config: TrainConfig

    @property
    def trace(self) -> list[TraceRow]:
        return self.state.trace

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
                npce_losses(row, train[0], k, (k + 1) % num_nets, config.alpha, config.beta)
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
                l_ps[k] += mnps_loss(row, k)[0]

    fused: list[float] = []
    per_net: list[list[float]] = [[] for _ in nets]
    rows = _prediction_rows(snapshot, [s.image for s in dataset.validation], True, caches)
    for row, ref in zip(rows, val_refs):
        # a lone network's average is its own map, whose mask the row holds
        fused_mask = row.masks[0] if num_nets == 1 else argmax_mask(average_fuse(row.probs))
        fused.append(_foreground_jaccard(fused_mask, ref))
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


def run_training(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Train the ensemble, tracking the best validation checkpoint.

    Every validation_every iterations (and at iteration 0) the trainer
    logs one aggregate trace row (net = -1): probe-batch loss components,
    the ramp weight, mean pairwise prediction agreement on the training
    images, and the fused validation Jaccard against majority-vote
    references. The kept checkpoint maximizes the validation score under
    the configured selection mode; of equal scores, the earliest is kept. Training writes no files: write_run
    persists the result.
    """
    for s in dataset.multi + dataset.validation:
        if len(s.annotations) != config.k:
            raise TrainingError(
                f"sample has {len(s.annotations)} annotations, config.k={config.k}"
            )
    return _train(dataset, config)


def train_single_annotator(
    dataset: Dataset, config: TrainConfig, annotator: int
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
    return _train(view, config)


def _train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """The training loop, with one network per annotation of a training sample.

    Iterations run on the run's executors (see the module docstring),
    forked after the networks are initialized and stopped before this
    returns or raises; Ctrl-C ends the run with TrainingError. Every
    forward this process makes goes through the crew's caches, one per
    network, which are freed when this returns: the result references
    none of them.
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

    net_ss, train_ss = np.random.SeedSequence(config.seed).spawn(2)
    seeds = [int(child.generate_state(1)[0]) for child in net_ss.spawn(num_nets)]
    params = [init_params(arch, seed) for seed in seeds]
    opts = [init_opt_state(p, config.lr) for p in params]
    state = RunState(params, opts, t=0, rng=np.random.default_rng(train_ss),
                     best=[(-math.inf, 0, p) for p in params])
    val_refs = validation_references(dataset.validation)
    if config.total_iters == 0:
        best = BestRecord(iteration=0, score=float("nan"), params=list(params))
        return TrainResult(state=state, best=best, config=config)
    use_unannotated = config.w_max > 0 and bool(dataset.unannotated)
    executors = _executor_count(
        config.annotated_per_iter + (config.unannotated_batch if use_unannotated else 0)
    )
    try:
        with _Crew(executors, num_nets) as crew:
            while True:
                row, net_scores = _checkpoint(
                    state.params, dataset, config, state.t, val_refs, crew.caches
                )
                state.record(row, net_scores, config.selection)
                if state.t == config.total_iters:
                    break
                for _ in range(config.validation_every):
                    ann_idx = state.rng.integers(
                        len(dataset.multi), size=config.annotated_per_iter
                    )
                    annotated = [dataset.multi[int(i)] for i in ann_idx]
                    unannotated: list[UnannotatedSample] = []
                    if use_unannotated:
                        un_idx = state.rng.integers(
                            len(dataset.unannotated), size=config.unannotated_batch
                        )
                        unannotated = [dataset.unannotated[int(i)] for i in un_idx]
                    train_iteration(state, annotated, unannotated, config, crew)
    except KeyboardInterrupt:
        raise TrainingError(f"training interrupted at iteration {state.t}") from None
    scores, iterations, kept = map(list, zip(*state.best))
    if config.selection == "per-network" and num_nets > 1:
        best = BestRecord(iteration=-1, score=float(np.mean(scores)), params=kept,
                          net_iterations=iterations)
    else:
        best = BestRecord(iteration=iterations[0], score=scores[0], params=kept)
    return TrainResult(state=state, best=best, config=config)


def write_run(result: TrainResult, out: str | Path) -> None:
    """Persist trace, per-network best checkpoints, and the run manifest."""
    out = Path(out)
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
        lines.append(f"net{k}_seed\t{params.seed}")
        if result.best.net_iterations is not None:
            lines.append(f"net{k}_best_iteration\t{result.best.net_iterations[k]}")
    (out / "manifest.tsv").write_text("\n".join(lines) + "\n")


def load_run(run_dir: str | Path) -> list[ModelParams]:
    """The checkpoints a run directory's manifest names, in network order."""
    run_dir = Path(run_dir)
    manifest = run_dir / "manifest.tsv"
    if not manifest.exists():
        raise FileNotFoundError(f"no run manifest at {manifest}")
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text_lines(manifest), start=1):
        if not line:
            continue
        key, tab, value = line.partition("\t")
        if not tab:
            raise ValueError(f"{manifest}:{lineno}: expected 'key<TAB>value', got {line!r}")
        if key == "k" and not value.isdecimal():
            raise ValueError(f"{manifest}:{lineno}: k must be an integer, got {value!r}")
        entries[key] = value
    k = int(entries["k"]) if "k" in entries else None
    params = []
    i = 0
    while f"net{i}_file" in entries:
        path = run_dir / entries[f"net{i}_file"]
        if not path.exists():
            raise FileNotFoundError(f"manifest names missing checkpoint {path}")
        params.append(load_checkpoint(str(path)))
        i += 1
    if not params:
        raise ValueError(f"{manifest} lists no checkpoints")
    if k is not None and k != len(params):
        raise ValueError(f"{manifest} says k={k} but lists {len(params)} checkpoints")
    return params
