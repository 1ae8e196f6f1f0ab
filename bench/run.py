"""Benchmark of the ambiseg pipeline: set-up, ensemble training, eval, fusion.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ensemble-k2 --seed 1 --seconds 50 --trace 0

The workloads are listed in BENCHMARK.json and described in bench/README.md.
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
runs untraced and traced sessions and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every correctness check passed, 1 when one failed, and 2
when the run could not start (no sources, bad usage).
"""

import argparse
import json
import os
import sys

# One BLAS thread: the GEMMs here are small, and on a 2-core machine
# OpenBLAS's own threads made STAPLE 1.6x slower and widened the spread
# of training runs five-fold. Set before numpy is first imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import harness  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return ns


def main(argv=None) -> int:
    ns = parse_args(argv)
    if not harness.source_present():
        print(f"error: no ambiseg sources under {harness.SRC}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[ns.workload]
    out = harness.run(workload, ns.seed, ns.seconds, bool(ns.trace))
    info = out.pop("_info")
    messages = out.pop("_messages")

    print(f"workload {ns.workload} seed {ns.seed} trace {ns.trace}")
    print("machine " + json.dumps(harness.machine_facts(), sort_keys=True))
    for name, m in out["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if "test_jaccard" in info:
        print(f"  {'test_jaccard':44s} {info.pop('test_jaccard'):.6g} frac")
    print(f"  {'failed_frac':44s} {out['failed'] / out['attempted']:.6g} frac "
          f"({out['failed']} of {out['attempted']} operations)")
    print(f"digest {info.pop('digest')}")
    print("detail " + json.dumps(info, sort_keys=True))
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
