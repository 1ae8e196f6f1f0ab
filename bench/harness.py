"""Workloads, timed phases and correctness checks of the ambiseg benchmark.

A run of one workload is one user session: build and load a synthetic
dataset (set-up), train the ensemble with `run_training`, score the best
checkpoint on the test split as `ambiseg eval --per-network` does, and
fuse every annotated sample with STAPLE and majority vote as `ambiseg
fuse` does. Set-up, training and eval then repeat one fixed unit of work
each until their share of the run's seconds is used, and each reports
its median unit; every unit must reproduce the first one's outputs byte
for byte. Fusion is timed in the traced run only (see traced.py).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

NOISE_LEVEL = 0.08
LEARNING_RATE = 0.02
# share of the timed window given to the set-up, train and eval phases
PHASE_SHARES = (0.1, 0.6, 0.3)
# EM log-likelihood may dip by rounding only (criterion 4 uses the same slack)
STAPLE_MONOTONE_SLACK = 1e-9

# the two annotators of the tier-1 acceptance experiment: one biased
# outward by two pixels, one unbiased, both with boundary jitter
K2_PROFILES = [
    dict(bias_radius=2.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=1000),
    dict(bias_radius=0.0, jitter_amplitude=0.8, jitter_scale=12.0, seed=1007),
]


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    size: int
    n_multi: int
    n_unann: int
    n_val: int
    n_test: int
    unannotated_batch: int
    total_iters: int
    validation_every: int
    jaccard_floor: float

    def dataset_kwargs(self, seed: int) -> dict:
        return dict(
            n_multi=self.n_multi,
            n_unann=self.n_unann,
            n_val=self.n_val,
            n_test=self.n_test,
            k=self.k,
            seed=seed,
            width=self.size,
            height=self.size,
            noise_level=NOISE_LEVEL,
            profiles=K2_PROFILES if self.k == 2 else None,
        )

    def train_config(self, seed: int, total_iters: Optional[int] = None):
        from ambiseg import TrainConfig

        iters = self.total_iters if total_iters is None else total_iters
        return TrainConfig(
            k=self.k,
            lr=LEARNING_RATE,
            unannotated_batch=self.unannotated_batch,
            total_iters=iters,
            validation_every=min(self.validation_every, iters),
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's default and the traffic of tier-1 criteria 6-8:
        # forward/backward kernels with an L2-sized working set
        Workload("ensemble-k2", k=2, size=64, n_multi=20, n_unann=80, n_val=10,
                 n_test=50, unannotated_batch=3, total_iters=100,
                 validation_every=50,
                 jaccard_floor=0.5),
        # peer-heavy: 56 forwards per iteration, consensus over three peers,
        # small images so per-call overhead dominates
        Workload("ensemble-k4-32", k=4, size=32, n_multi=20, n_unann=80,
                 n_val=10, n_test=50, unannotated_batch=3, total_iters=200,
                 validation_every=50,
                 jaccard_floor=0.4),
    )
}


def source_present() -> bool:
    return (SRC / "ambiseg" / "__init__.py").is_file()


def import_package():
    """Import ambiseg from this checkout's src, never from elsewhere."""
    if not source_present():
        raise FileNotFoundError(f"no ambiseg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ambiseg

    if Path(ambiseg.__file__).resolve().parent != SRC / "ambiseg":
        raise ImportError(f"ambiseg imported from {ambiseg.__file__}, not {SRC}")
    return ambiseg


# ---------------------------------------------------------------------------
# bookkeeping


class Checks:
    """Operations attempted and failed; a failure is an error or a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        l2 = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "l2_cache": l2,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


def setup_trial(w: Workload, seed: int, out_dir: Path) -> dict:
    """One set-up in a fresh interpreter, building into out_dir; its phase times."""
    spec = w.dataset_kwargs(seed)
    spec["net_seeds"] = [seed * 1000 + k for k in range(w.k)]
    script = Path(__file__).resolve().parent / "setup_trial.py"
    proc = subprocess.run(
        [sys.executable, str(script), json.dumps(spec), str(out_dir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up trial failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the phases after set-up; each function is one unit of work


def train_unit(w: Workload, dataset, seed: int, total_iters: Optional[int] = None):
    from ambiseg import training

    return training.run_training(dataset, w.train_config(seed, total_iters))


def eval_unit(params, test):
    """Fused plus per-network predictions and their reports, as `eval --per-network`."""
    from ambiseg import masks, metrics, model, training

    refs = [s.clean_gt for s in test]
    scopes = [[training.fused_prediction(params, s.image) for s in test]]
    for p in params:
        scopes.append([masks.argmax_mask(model.predict_probs(p, s.image)) for s in test])
    reports = [metrics.evaluate_masks(preds, refs) for preds in scopes]
    return scopes, reports


def fuse_unit(samples):
    """STAPLE and majority vote of each sample's masks, as `ambiseg fuse`.

    Returns the fused results and the seconds each sample took: STAPLE's
    EM iteration count, and so its cost, depends on the sample.
    """
    from ambiseg import fusion

    fused, seconds = [], []
    for s in samples:
        t0 = time.perf_counter()
        fused.append((fusion.staple_binary(s.annotations),
                      fusion.majority_vote(s.annotations)))
        seconds.append(time.perf_counter() - t0)
    return fused, seconds


def annotated(dataset) -> list:
    """Every sample that carries annotator masks: the multi and val splits."""
    return dataset.multi + dataset.validation


def train_digest(result, work: Path) -> str:
    from ambiseg import model

    h = hashlib.sha256(result.trace_csv().encode())
    for k, params in enumerate(result.best.params):
        path = work / f"net{k}.msen"
        model.save_checkpoint(params, str(path))
        h.update(path.read_bytes())
    return h.hexdigest()


def eval_digest(scopes) -> str:
    h = hashlib.sha256()
    for preds in scopes:
        for mask in preds:
            h.update(mask.labels.tobytes())
    return h.hexdigest()


def fuse_digest(fused) -> str:
    h = hashlib.sha256()
    for staple, vote in fused:
        h.update(staple.fused.labels.tobytes())
        h.update(staple.objective_trace.tobytes())
        h.update(vote.labels.tobytes())
    return h.hexdigest()


def check_train(result, checks: Checks) -> None:
    finite = all(
        math.isfinite(v)
        for row in result.trace
        for v in (row.l_ma, row.l_pc, row.l_ps, row.lambda_t, row.total,
                  row.agreement, row.val_jaccard)
    )
    checks.op(finite and len(result.trace) > 0, "non-finite or empty trace row")


def check_eval(scopes, reports, n_test: int, checks: Checks) -> None:
    """Each image: the fused label equals the networks' where all of them agree."""
    from ambiseg import EvalReport

    checks.op(
        all(isinstance(r, EvalReport) and r.sample_count == n_test for r in reports),
        "EvalReport did not build",
    )
    fused, nets = scopes[0], scopes[1:]
    for i, pred in enumerate(fused):
        first = nets[0][i].labels
        unanimous = (first[None, :] == [n[i].labels for n in nets]).all(axis=0)
        checks.op(
            bool((pred.labels[unanimous] == first[unanimous]).all()),
            f"test image {i}: fused label differs where all networks agree",
        )


def check_fuse(fused, checks: Checks) -> None:
    import numpy as np

    for i, (staple, _) in enumerate(fused):
        steps = np.diff(staple.objective_trace)
        checks.op(
            bool((steps >= -STAPLE_MONOTONE_SLACK).all()),
            f"annotated sample {i}: STAPLE objective decreased",
        )


def timed(fn, *args):
    """fn(*args) and its wall time; garbage left by earlier units is collected first."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one run


@dataclass
class Session:
    """Outputs of one pass through the three phases, and each phase's time."""

    result: object
    scopes: list
    reports: list
    fused: list
    set_seconds: list[float]
    seconds: tuple[float, float, float]


def one_session(w: Workload, dataset, seed: int, tracer=None) -> Session:
    """Train, eval and fuse once each, timing every phase."""
    phase_times = []

    def phase(name, fn, *args):
        if tracer is not None:
            tracer.phase = name
        out, dt = timed(fn, *args)
        phase_times.append(dt)
        return out

    result = phase("train", train_unit, w, dataset, seed)
    scopes, reports = phase("eval", eval_unit, result.best.params, dataset.test)
    fused, set_seconds = phase("fuse", fuse_unit, annotated(dataset))
    if tracer is not None:
        tracer.phase = ""
    return Session(result, scopes, reports, fused, set_seconds, tuple(phase_times))


def session_digest(s: Session, work: Path) -> str:
    parts = [train_digest(s.result, work), eval_digest(s.scopes), fuse_digest(s.fused)]
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def check_session(w: Workload, s: Session, checks: Checks) -> float:
    """All output checks of one session; returns its test Jaccard."""
    check_train(s.result, checks)
    check_eval(s.scopes, s.reports, w.n_test, checks)
    check_fuse(s.fused, checks)
    test_jaccard = s.reports[0].mean_jaccard
    checks.op(
        test_jaccard >= w.jaccard_floor,
        f"test_jaccard {test_jaccard:.4f} below floor {w.jaccard_floor}",
    )
    return test_jaccard


def warm_up(w: Workload, dataset, seed: int) -> None:
    """Untimed: first calls pay for lazy imports, allocator growth and caches."""
    result = train_unit(w, dataset, seed, total_iters=2)
    eval_unit(result.best.params, dataset.test)
    fuse_unit(annotated(dataset))


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object run.py prints."""
    import_package()
    from ambiseg import load_dataset

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    checks = Checks()
    try:
        ds_dir = work / "dataset"
        setup, setup_wall = timed(setup_trial, w, seed, ds_dir)
        dataset = load_dataset(ds_dir)
        warm_up(w, dataset, seed)
        if trace:
            from traced import traced_metrics

            metrics, info = traced_metrics(w, dataset, seed, work, setup, checks)
        else:
            metrics, info = untraced_metrics(
                w, dataset, seed, seconds, work, (setup, setup_wall), checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "_info": info,
        "_messages": checks.messages,
    }


@dataclass
class Phase:
    """One timed phase: its unit of work and what each unit measured."""

    name: str
    share: float
    unit: Callable
    # (unit output, unit seconds) -> samples; checks the output too
    measure: Callable
    durations: list[float]
    samples: list[float]

    def summary(self) -> tuple[float, float, float]:
        return median_quartiles(self.samples)


def interleave(phases: list[Phase], start: float, seconds: float) -> None:
    """Run units until `seconds` after `start`, keeping each phase near its share.

    The next unit goes to the phase furthest below its share of time so
    far, so every phase samples the whole window rather than one stretch
    of it; a unit that would not finish inside the window is not begun.
    """
    while True:
        elapsed = time.perf_counter() - start
        fits = [p for p in phases
                if elapsed + statistics.median(p.durations) <= seconds]
        if not fits:
            return
        p = min(fits, key=lambda p: sum(p.durations) / p.share)
        out, dt = timed(p.unit)
        p.durations.append(dt)
        p.samples += p.measure(out, dt)


def untraced_metrics(w, dataset, seed, seconds, work, first_setup, checks):
    """End-to-end metrics: the phases interleaved for `seconds`, medians of units.

    Every later unit must reproduce the first one's outputs exactly.
    """
    start = time.perf_counter()
    dataset_digest = dir_digest(work / "dataset")
    first = one_session(w, dataset, seed)
    digest = session_digest(first, work)
    test_jaccard = check_session(w, first, checks)
    first_train = train_digest(first.result, work)
    first_eval = eval_digest(first.scopes)

    def setup_unit():
        trial_dir = work / "trial"
        timings = setup_trial(w, seed, trial_dir)
        same = dir_digest(trial_dir) == dataset_digest
        shutil.rmtree(trial_dir)
        return timings, same

    def measure_setup(out, dt):
        timings, same = out
        checks.op(same, "set-up trials built different datasets")
        return [sum(timings.values())]

    def measure_train(result, dt):
        check_train(result, checks)
        checks.op(
            train_digest(result, work) == first_train,
            "training run did not reproduce the first run's trace and checkpoints",
        )
        return [w.total_iters / dt]

    def measure_eval(out, dt):
        scopes, reports = out
        check_eval(scopes, reports, w.n_test, checks)
        checks.op(eval_digest(scopes) == first_eval,
                  "eval pass did not reproduce the first pass's predictions")
        return [w.n_test / dt]

    params = first.result.best.params
    setup_share, train_share, eval_share = PHASE_SHARES
    setup, setup_wall = first_setup
    phases = [
        Phase("setup_s", setup_share, setup_unit, measure_setup,
              [setup_wall], [sum(setup.values())]),
        Phase("train_iters_per_s", train_share,
              lambda: train_unit(w, dataset, seed), measure_train,
              [first.seconds[0]], [w.total_iters / first.seconds[0]]),
        Phase("eval_images_per_s", eval_share,
              lambda: eval_unit(params, dataset.test), measure_eval,
              [first.seconds[1]], [w.n_test / first.seconds[1]]),
    ]
    interleave(phases, start, seconds)

    metrics = {
        p.name: {"value": p.summary()[0], "unit": "s" if p.name == "setup_s" else "1/s"}
        for p in phases
    }
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    info = {
        "digest": digest,
        "test_jaccard": test_jaccard,
        "samples": {p.name: len(p.samples) for p in phases},
        "quartiles": {p.name: p.summary()[1:] for p in phases},
        "unit_seconds": {p.name: p.durations for p in phases},
        "workload": asdict(w),
    }
    return metrics, info
