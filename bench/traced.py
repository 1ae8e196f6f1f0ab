"""The traced run: per-layer metrics from one traced session.

First a tiny session runs under both the tracer and `sys.setprofile`;
every layer function must show the same call count in both, which proves
the tracer patched every binding. Then an untraced, a traced and another
untraced session run back to back. Their output digests must match
(tracing never changes results), and the traced session's time over the
mean of the untraced ones, minus one, is the tracing overhead.
"""

from __future__ import annotations

import statistics
from collections import Counter

from harness import (
    Checks,
    Workload,
    annotated,
    check_session,
    eval_unit,
    fuse_unit,
    one_session,
    session_digest,
    train_unit,
)
from tracer import Tracer, count_original_calls


def forward_flops(args, kwargs, result) -> float:
    """Multiply-adds x2 of the three convolutions in one forward."""
    params = args[0] if args else kwargs["params"]
    image = args[1] if len(args) > 1 else kwargs["image"]
    a = params.arch
    per_pixel = 9 * a.hidden * a.in_channels + 9 * a.hidden * a.hidden + a.num_classes * a.hidden
    return 2.0 * image.width * image.height * per_pixel


OBSERVERS = {
    "model.forward": forward_flops,
    "masks.consensus_set": lambda a, kw, r: len(r) / r.pixels.grid_size,
    "masks.restrict": lambda a, kw, r: len(r),
    "fusion.staple_binary": lambda a, kw, r: (r.iterations_used, r.converged),
}


def self_check(w: Workload, dataset, seed: int, checks: Checks) -> None:
    """Wrapper counts must equal code-object counts for every layer function."""
    tracer = Tracer()

    def tiny_session():
        with tracer.patched():
            result = train_unit(w, dataset, seed, total_iters=2)
            eval_unit(result.best.params, dataset.test[:2])
            fuse_unit(annotated(dataset)[:2])

    seen = count_original_calls(tiny_session)
    wrapped = Counter(tracer.names)
    missed = sorted(n for n in seen if seen[n] != wrapped[n])
    checks.op(not missed, f"tracer missed calls of {missed}")


def traced_metrics(w: Workload, dataset, seed: int, work, setup: dict, checks: Checks):
    self_check(w, dataset, seed, checks)

    before = one_session(w, dataset, seed)
    tracer = Tracer(OBSERVERS)
    with tracer.patched():
        traced = one_session(w, dataset, seed, tracer=tracer)
    after = one_session(w, dataset, seed)
    traced_digest = session_digest(traced, work)
    checks.op(
        session_digest(before, work) == traced_digest == session_digest(after, work),
        "traced run changed the outputs",
    )
    check_session(w, traced, checks)
    plain_s = (sum(before.seconds) + sum(after.seconds)) / 2
    # the median set, not the mean: at K=4 STAPLE's EM iteration count is
    # heavy-tailed (2 to 100), so a mean would measure the seed's data
    set_seconds = statistics.median(before.set_seconds + after.set_seconds)

    t = tracer
    # max(1, ...) keeps a run whose self-check failed reportable
    iters = max(1, t.count("training.train_iteration"))
    in_iter = t.inside("training.train_iteration")
    loop_forwards = sum(
        1 for i in t.select("model.forward") if in_iter[i]
    ) / iters
    # K networks x (A annotated, each forwarded with its peer, plus K
    # forwards per unannotated image); exact reuse may only lower it
    a, b = 1, w.unannotated_batch if w.n_unann else 0
    ceiling = w.k * (2 * a + w.k * b)
    checks.op(
        0 < loop_forwards <= ceiling,
        f"{loop_forwards} forwards per iteration, ceiling K(2A+KB) = {ceiling}",
    )

    def per_iter(name):
        return t.count(name, "train") / iters

    forward_s = sum(t.duration(i) for i in t.select("model.forward"))
    gflop = sum(t.notes["model.forward"]) / 1e9
    staple = t.notes["fusion.staple_binary"] or [(0, False)]
    run_s = sum(t.duration(i) for i in t.select("training.run_training"))
    iter_s = sum(t.duration(i) for i in t.select("training.train_iteration"))

    values = {
        "model.forward.calls_per_iter": (per_iter("model.forward"), "calls/iter"),
        "model.forward.loop_calls_per_iter": (loop_forwards, "calls/iter"),
        "model.forward.calls_per_image": (
            t.count("model.forward", "eval") / w.n_test, "calls/image"),
        "model.forward.ms_per_call": (t.mean_ms("model.forward"), "ms"),
        "model.forward.gflops_computed": (gflop, "GFLOP"),
        "model.forward.gflop_per_s": (gflop / forward_s if forward_s else 0.0, "GFLOP/s"),
        "model.backward.ms_per_call": (t.mean_ms("model.backward"), "ms"),
        "model.backward.calls_per_iter": (per_iter("model.backward"), "calls/iter"),
        "model.predict_probs.self_ms_per_call": (t.self_ms("model.predict_probs"), "ms"),
        "model.adam_step.ms_per_call": (t.mean_ms("model.adam_step"), "ms"),
        "losses.softmax.ms_per_call": (t.mean_ms("losses.softmax"), "ms"),
        "losses.masked_cross_entropy.ms_per_call": (
            t.mean_ms("losses.masked_cross_entropy"), "ms"),
        "losses.masked_cross_entropy.calls_per_iter": (
            per_iter("losses.masked_cross_entropy"), "calls/iter"),
    }
    for fn in ("separate_agreement", "restrict", "consensus_set", "argmax_mask"):
        values[f"masks.{fn}.ms_per_call"] = (t.mean_ms(f"masks.{fn}"), "ms")
        values[f"masks.{fn}.calls_per_iter"] = (per_iter(f"masks.{fn}"), "calls/iter")
    values.update({
        "masks.consensus_set.mean_frac": (
            statistics.fmean(t.notes["masks.consensus_set"] or [0.0]), "frac"),
        "masks.restrict.mean_pixels": (
            statistics.fmean(t.notes["masks.restrict"] or [0.0]), "pixels"),
        "training.train_iteration.ms_p50": (
            t.percentile_ms("training.train_iteration", 50), "ms"),
        "training.train_iteration.ms_p90": (
            t.percentile_ms("training.train_iteration", 90), "ms"),
        "training.npce_losses.self_ms_per_call": (
            t.self_ms("training.npce_losses"), "ms"),
        "training.mnps_loss.self_ms_per_call": (t.self_ms("training.mnps_loss"), "ms"),
        "training.outside_iteration_share": ((run_s - iter_s) / run_s if run_s else 0.0, "frac"),
        "fusion.fuse_sets_per_s": (1.0 / set_seconds, "1/s"),
        "fusion.staple_binary.ms_per_call": (t.mean_ms("fusion.staple_binary"), "ms"),
        "fusion.staple_binary.em_iters": (
            statistics.fmean(n for n, _ in staple), "iters"),
        "fusion.staple_binary.converged_frac": (
            statistics.fmean(float(c) for _, c in staple), "frac"),
        "fusion.majority_vote.ms_per_call": (t.mean_ms("fusion.majority_vote"), "ms"),
        "fusion.average_fuse.ms_per_call": (t.mean_ms("fusion.average_fuse"), "ms"),
        "metrics.evaluate_masks.ms_per_call": (t.mean_ms("metrics.evaluate_masks"), "ms"),
        "data.build_dataset.s": (setup["build_s"], "s"),
        "data.load_dataset.s": (setup["load_s"], "s"),
        "trace.overhead_frac": (sum(traced.seconds) / plain_s - 1.0, "frac"),
    })
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    info = {
        "digest": traced_digest,
        "spans": len(t.names),
        "untraced_s": plain_s,
        "traced_s": sum(traced.seconds),
        "forward_ceiling_per_iter": ceiling,
    }
    return metrics, info
