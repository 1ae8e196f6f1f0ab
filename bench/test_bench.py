"""Smoke tests of the benchmark itself: python3 -m pytest bench -q

A tiny version of each workload must emit every metric BENCHMARK.json
names, a corrupted output must fail a correctness check and make the
command exit 1, and a directory without the package sources must make
it exit nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import harness
import run

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    return replace(
        harness.WORKLOADS[name], size=24, n_multi=3, n_unann=3, n_val=2,
        n_test=3, total_iters=2, validation_every=1, jaccard_floor=0.0,
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    out = harness.run(tiny(name), seed=3, seconds=0.2, trace=trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert out["correct"], out["_messages"]
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in out["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_corrupted_fused_prediction_fails(monkeypatch, capsys):
    from ambiseg import masks, training

    real = training.fused_prediction

    def inverted(params_list, image):
        pred = real(params_list, image)
        return masks.LabelMask(pred.width, pred.height, pred.num_classes,
                               1 - pred.labels)

    monkeypatch.setattr(training, "fused_prediction", inverted)
    monkeypatch.setitem(harness.WORKLOADS, "ensemble-k2", tiny("ensemble-k2"))
    code = run.main(["--workload", "ensemble-k2", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble-k2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_self_check_catches_missed_binding(monkeypatch):
    import tracer

    real = tracer._package_modules
    monkeypatch.setattr(tracer, "_package_modules",
                        lambda: [m for m in real() if m.__name__ != "ambiseg.training"])
    out = harness.run(tiny("ensemble-k2"), seed=3, seconds=0.2, trace=True)
    assert not out["correct"]
    assert any("tracer missed calls" in m for m in out["_messages"])
