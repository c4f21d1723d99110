"""One set-up measurement, run in a fresh interpreter by run.py.

Times `import nevanlab` plus a warm-up round of one op per kind, with numpy
already imported and the warm-up inputs generated before the timer starts.  Like the measured
ops, the import and each warm-up op are bracketed by calibration bursts and
scaled to reference speed.  Prints one JSON line with the raw and the
normalised time.

    python3 bench/setup_child.py --workload growth --seed 1
"""
from __future__ import annotations

import argparse
import json
import time
import warnings

import numpy as np  # noqa: F401  (imported before the timer on purpose)

import calib
from library import WORKLOADS, load_library, warmup_ops

WARM_BURSTS = 3  # a fresh interpreter runs the kernel slowly at first


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    ops = warmup_ops(args.workload, args.seed)
    for _ in range(WARM_BURSTS):
        calib.burst()
    steps = [load_library] + [op.call for op in ops]
    lib = None
    raw = norm = 0.0
    before = calib.burst()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for step in steps:
            t0 = time.perf_counter()
            try:
                result = step(lib) if lib is not None else step()
            except Exception:  # warm-up outcomes are not measured
                result = None
            elapsed = time.perf_counter() - t0
            lib = lib if lib is not None else result
            after = calib.burst()
            raw += elapsed
            norm += elapsed * calib.factors([before, after])[0]
            before = after
    print(json.dumps({"raw_s": raw, "norm_s": norm}))


if __name__ == "__main__":
    main()
