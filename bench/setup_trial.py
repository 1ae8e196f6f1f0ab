"""One timed set-up, run in a fresh interpreter by the benchmark.

Usage: python3 bench/setup_trial.py SPEC_JSON OUT_DIR

SPEC_JSON holds the build_dataset keyword arguments (annotator profiles
as a list of dicts or null) plus "net_seeds". The script imports the
package, builds the dataset into OUT_DIR, loads it back and initialises
one network per seed, then prints the four phase times as one JSON line.
Import time is part of set-up, which is why each trial needs a new
interpreter.
"""

import json
import sys
import time
from pathlib import Path

t_start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ambiseg  # noqa: E402

t_imported = time.perf_counter()


def main() -> None:
    spec = json.loads(sys.argv[1])
    out_dir = sys.argv[2]
    net_seeds = spec.pop("net_seeds")
    profiles = spec.pop("profiles")
    if profiles is not None:
        profiles = [ambiseg.AnnotatorProfile(**p) for p in profiles]

    t0 = time.perf_counter()
    ambiseg.build_dataset(out_dir, profiles=profiles, **spec)
    t1 = time.perf_counter()
    dataset = ambiseg.load_dataset(out_dir)
    t2 = time.perf_counter()
    first = dataset.multi[0]
    arch = ambiseg.Architecture(
        in_channels=first.image.channels,
        num_classes=first.annotations[0].num_classes,
    )
    for seed in net_seeds:
        params = ambiseg.init_params(arch, seed)
        ambiseg.init_opt_state(params, 0.02)
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t_imported - t_start,
        "build_s": t1 - t0,
        "load_s": t2 - t1,
        "init_s": t3 - t2,
    }))


if __name__ == "__main__":
    main()
