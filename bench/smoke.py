"""Smoke check of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Runs every workload untraced and traced with one round, one set-up repeat
and no minimum op count, and checks that:

- every metric printed has the name and unit BENCHMARK.json declares, and
  no declared metric is missing;
- the result line has the contract's keys and types;
- per-layer counts (calls, points, degrees, failures, warnings) repeat
  exactly across two traced runs of the same seed;
- a run with --known-defects prints the same metrics; how many of its ops
  fail is reported, not checked, as it changes when the library is fixed.

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def result_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise SystemExit(f"run.py {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result, declared, problems, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']!r}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(printed) & set(declared) if printed[n] != declared[n])
        problems.append(f"{where}: missing {missing}, undeclared {extra}, unit differs {units}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run.MIN_OPS = 1
    run.SETUP_REPEATS = 1
    run.TRACE_ROUNDS = 1
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "0"]
        check_result(result_of(base + ["--trace", "0"]), end_to_end, problems, name)
        first = result_of(base + ["--trace", "1"])
        second = result_of(base + ["--trace", "1"])
        check_result(first, per_layer, problems, f"{name} traced")
        defects = result_of(base + ["--trace", "0", "--known-defects"])
        check_result(defects, end_to_end, problems, f"{name} known defects")
        print(f"{name}: --known-defects: {defects['failed']} of {defects['attempted']} ops failed",
              file=sys.stderr)
        for metric, unit in per_layer.items():
            if unit == "count":
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                if a != b:
                    problems.append(f"{name}: count {metric} differs between traced runs: {a} vs {b}")
        print(f"{name}: checked", file=sys.stderr)
    for p in problems:
        print(p)
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
